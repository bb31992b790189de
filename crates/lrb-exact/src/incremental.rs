//! Incremental exact oracle for online competitive analysis.
//!
//! Competitive-ratio experiments compare an online policy's realized
//! makespan against `OPT(t)`: the *unconstrained* optimal makespan of the
//! jobs live at time `t`, free to place every job anywhere (the offline
//! adversary of Albers & Hellwig, arXiv:1111.0773, pays no migration). The
//! [`IncrementalOracle`] maintains the live size multiset under arrivals
//! and departures and answers `OPT` exactly on small instances, so realized
//! ratios in the compete lab are exact rather than estimated.
//!
//! Each answer is [`crate::exhaustive`]'s placement search over empty
//! machines — largest first, with `(load, speed)` symmetry pruning, scored
//! through [`lrb_core::hetero`]'s speed scaling on uniform machines — with
//! a lower-bound early exit (`max(⌈total/Σv⌉, ⌈max size/v_max⌉)`, which is
//! `max(⌈total/m⌉, max size)` on identical machines). Results are memoized
//! per multiset in a `BTreeMap` — epochs of an online run revisit similar
//! multisets, so per-epoch queries amortize well.

use std::collections::BTreeMap;

use lrb_core::hetero::Speeds;
use lrb_core::model::Size;

use crate::exhaustive;

/// Exact `OPT` over the live job multiset, maintained incrementally.
#[derive(Debug, Clone)]
pub struct IncrementalOracle {
    num_procs: usize,
    /// `None` = identical machines; `Some` scores speed-scaled makespans.
    speeds: Option<Speeds>,
    /// Live sizes, descending (canonical multiset key and DFS order).
    sizes: Vec<Size>,
    /// Memoized `OPT` per multiset seen so far.
    memo: BTreeMap<Vec<Size>, Size>,
}

impl IncrementalOracle {
    /// An empty identical-machine oracle over `num_procs ≥ 1` processors.
    pub fn new(num_procs: usize) -> Self {
        assert!(num_procs > 0, "oracle needs at least one processor");
        IncrementalOracle {
            num_procs,
            speeds: None,
            sizes: Vec::new(),
            memo: BTreeMap::new(),
        }
    }

    /// An empty uniform-machine oracle scoring speed-scaled makespans
    /// (`speeds` is validated non-empty by construction).
    pub fn with_speeds(speeds: Speeds) -> Self {
        IncrementalOracle {
            num_procs: speeds.len(),
            speeds: Some(speeds),
            sizes: Vec::new(),
            memo: BTreeMap::new(),
        }
    }

    /// Processors the oracle places onto.
    pub fn num_procs(&self) -> usize {
        self.num_procs
    }

    /// Live jobs currently tracked.
    pub fn len(&self) -> usize {
        self.sizes.len()
    }

    /// Whether no jobs are live.
    pub fn is_empty(&self) -> bool {
        self.sizes.is_empty()
    }

    /// Live sizes, descending.
    pub fn sizes_desc(&self) -> &[Size] {
        &self.sizes
    }

    /// Distinct multisets whose `OPT` has been memoized.
    pub fn memo_len(&self) -> usize {
        self.memo.len()
    }

    /// Track an arriving job of `size`.
    pub fn arrive(&mut self, size: Size) {
        let at = self.sizes.partition_point(|&s| s > size);
        self.sizes.insert(at, size);
    }

    /// Untrack one departing job of `size`; `false` if none is live.
    pub fn depart(&mut self, size: Size) -> bool {
        let at = self.sizes.partition_point(|&s| s > size);
        if at < self.sizes.len() && self.sizes[at] == size {
            self.sizes.remove(at);
            true
        } else {
            false
        }
    }

    /// The exact unconstrained optimal makespan of the live multiset
    /// (speed-scaled when constructed via [`Self::with_speeds`]). Memoized
    /// per multiset; `0` when no jobs are live.
    pub fn opt(&mut self) -> Size {
        if self.sizes.is_empty() {
            return 0;
        }
        if let Some(&v) = self.memo.get(&self.sizes) {
            return v;
        }
        let total: Size = self.sizes.iter().fold(0, |a, &s| a.saturating_add(s));
        let (v_max, v_total) = match &self.speeds {
            None => (1, self.num_procs as u64),
            Some(speeds) => (
                speeds.as_slice().iter().copied().max().unwrap_or(1),
                speeds.total().max(1),
            ),
        };
        // Every job on a fastest machine is achievable; no placement beats
        // the average scaled load or the largest job on a fastest machine.
        let mut best = total.div_ceil(v_max);
        let lb = total.div_ceil(v_total).max(self.sizes[0].div_ceil(v_max));
        let mut loads = vec![0; self.num_procs];
        exhaustive::place(&self.sizes, &mut loads, self.speeds.as_ref(), lb, &mut best);
        self.memo.insert(self.sizes.clone(), best);
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrb_core::model::Instance;
    use rand::{Rng, SeedableRng};

    /// The unconstrained OPT equals the budget-free exhaustive oracle on an
    /// instance with every job piled on processor 0 and `k = n`.
    #[test]
    fn agrees_with_exhaustive_oracle_at_full_budget() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for trial in 0..60 {
            let n = rng.gen_range(1..=9);
            let m = rng.gen_range(1..=3);
            let sizes: Vec<u64> = (0..n).map(|_| rng.gen_range(1..=15)).collect();
            let inst = Instance::from_sizes(&sizes, vec![0; n], m).unwrap();
            let mut oracle = IncrementalOracle::new(m);
            for &s in &sizes {
                oracle.arrive(s);
            }
            let a = oracle.opt();
            let b = crate::exhaustive::optimal_makespan(&inst, n);
            assert_eq!(a, b, "trial {trial}: sizes {sizes:?} m={m}");
        }
    }

    #[test]
    fn agrees_with_hetero_oracle_at_full_budget() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        for trial in 0..40 {
            let n = rng.gen_range(1..=8);
            let m = rng.gen_range(1..=3);
            let sizes: Vec<u64> = (0..n).map(|_| rng.gen_range(1..=12)).collect();
            let speeds = Speeds::new((0..m).map(|_| rng.gen_range(1..=4)).collect()).unwrap();
            let inst = Instance::from_sizes(&sizes, vec![0; n], m).unwrap();
            let mut oracle = IncrementalOracle::with_speeds(speeds.clone());
            for &s in &sizes {
                oracle.arrive(s);
            }
            let a = oracle.opt();
            let b = crate::hetero::optimal_scaled_makespan(&inst, &speeds, n);
            assert_eq!(a, b, "trial {trial}: sizes {sizes:?} speeds {speeds:?}");
        }
    }

    #[test]
    fn uniform_speeds_divide_the_identical_optimum() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for _ in 0..30 {
            let n = rng.gen_range(1..=8);
            let m = rng.gen_range(1..=3);
            let v = rng.gen_range(1..=5);
            let sizes: Vec<u64> = (0..n).map(|_| rng.gen_range(1..=20)).collect();
            let mut ident = IncrementalOracle::new(m);
            let mut scaled = IncrementalOracle::with_speeds(Speeds::uniform(m, v).unwrap());
            for &s in &sizes {
                ident.arrive(s);
                scaled.arrive(s);
            }
            // div_ceil by a common speed commutes with minimizing the max.
            assert_eq!(scaled.opt(), ident.opt().div_ceil(v));
        }
    }

    #[test]
    fn churn_maintains_the_multiset_and_memo_serves_repeats() {
        let mut oracle = IncrementalOracle::new(2);
        assert_eq!(oracle.opt(), 0);
        oracle.arrive(5);
        oracle.arrive(3);
        oracle.arrive(5);
        assert_eq!(oracle.sizes_desc(), &[5, 5, 3]);
        assert_eq!(oracle.opt(), 8); // {5,3} | {5}
        assert!(oracle.depart(5));
        assert_eq!(oracle.sizes_desc(), &[5, 3]);
        assert_eq!(oracle.opt(), 5);
        assert!(!oracle.depart(4)); // no such size live
        oracle.arrive(5); // back to a memoized multiset
        let memo_before = oracle.memo_len();
        assert_eq!(oracle.opt(), 8);
        assert_eq!(oracle.memo_len(), memo_before);
    }

    #[test]
    fn opt_is_a_true_lower_bound_for_any_placement() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(29);
        for _ in 0..40 {
            let n = rng.gen_range(1..=7);
            let m = rng.gen_range(1..=3);
            let sizes: Vec<u64> = (0..n).map(|_| rng.gen_range(1..=10)).collect();
            let mut oracle = IncrementalOracle::new(m);
            let mut loads = vec![0u64; m];
            for &s in &sizes {
                oracle.arrive(s);
                loads[rng.gen_range(0..m)] += s;
            }
            let realized = loads.iter().copied().max().unwrap_or(0);
            assert!(oracle.opt() <= realized);
        }
    }
}
