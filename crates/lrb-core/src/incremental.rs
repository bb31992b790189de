//! The paper's incremental threshold scan (§3.1, proof of Theorem 3).
//!
//! M-PARTITION needs, for increasing candidate thresholds `t`, the planned
//! move count `L_E + Σ b_i + (sum of the L_T smallest c_i)`. The paper
//! observes that between consecutive thresholds nothing changes, and at
//! each threshold only O(1) quantities change, giving an `O(n log n)` scan
//! overall. This module implements that scan:
//!
//! * per-processor change events are precomputed (each candidate threshold
//!   affects the processors whose prefix sums or job sizes generated it);
//! * the multiset of `c_i` values lives in a Fenwick (binary indexed) tree
//!   over the value domain, supporting "sum of the `L_T` smallest values"
//!   in `O(log n)`; the sum of the `L_T` smallest values is independent of
//!   how ties are broken, so the tie-break rule of Step 3 does not affect
//!   the count (only the realized selection, which is recomputed once at
//!   the accepted threshold).
//!
//! The naive scan re-evaluates every processor per probe
//! (`O(m log n)` each); this one pays `O(log n)` per *event* and there are
//! `O(n)` events. The two agree by construction and by the cross-check
//! tests here and in `tests/theorems.rs`.

use crate::model::{Instance, Size};
use crate::profiles::Profiles;
use crate::scratch::{finalize_fingerprint, size_term};

/// Incrementally maintained sorted job-size multiset with a running
/// [`crate::scratch::ThresholdLadder`] fingerprint.
///
/// The online rebalancer keeps one of these in lockstep with its live job
/// set: each arrival/departure is an `O(n)` shifted insert/remove into the
/// sorted array plus an `O(1)` wrapping update of the commutative
/// fingerprint accumulator. Priming the ladder with
/// ([`Self::fingerprint`], [`Self::sizes_asc`]) then lets every rebalance
/// hit the ladder cache instead of re-sorting — the fingerprint here is
/// bit-identical to `ThresholdLadder::fingerprint_of` over the same
/// multiset by construction (both fold [`size_term`] terms through
/// [`finalize_fingerprint`]).
#[derive(Debug, Clone, Default)]
pub struct SizeMultiset {
    sizes_asc: Vec<Size>,
    /// Commutative Σ `size_term(size)` accumulator (wrapping).
    acc: u64,
    /// Σ sizes (wrapping, matching the fingerprint's total fold).
    total: u64,
}

impl SizeMultiset {
    /// An empty multiset.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert one size, keeping the array sorted.
    pub fn insert(&mut self, size: Size) {
        let at = self.sizes_asc.partition_point(|&s| s <= size);
        self.sizes_asc.insert(at, size);
        self.acc = self.acc.wrapping_add(size_term(size));
        self.total = self.total.wrapping_add(size);
    }

    /// Remove one occurrence of `size`; returns false when absent.
    pub fn remove(&mut self, size: Size) -> bool {
        let at = self.sizes_asc.partition_point(|&s| s < size);
        if self.sizes_asc.get(at) != Some(&size) {
            return false;
        }
        self.sizes_asc.remove(at);
        self.acc = self.acc.wrapping_sub(size_term(size));
        self.total = self.total.wrapping_sub(size);
        true
    }

    /// The ladder fingerprint of the current multiset.
    pub fn fingerprint(&self) -> u64 {
        finalize_fingerprint(self.acc, self.total, self.sizes_asc.len())
    }

    /// The sizes in ascending order.
    pub fn sizes_asc(&self) -> &[Size] {
        &self.sizes_asc
    }

    /// Number of sizes held.
    pub fn len(&self) -> usize {
        self.sizes_asc.len()
    }

    /// True when the multiset is empty.
    pub fn is_empty(&self) -> bool {
        self.sizes_asc.is_empty()
    }
}

/// Fenwick tree over the `c`-value domain holding counts and sums, for
/// "sum of the `k` smallest values" queries.
#[derive(Debug, Clone)]
struct CMultiset {
    /// counts[v] = multiplicity of value (v as i64 − 1).
    counts: Vec<i64>,
    sums: Vec<i64>,
    size: usize,
}

impl CMultiset {
    fn new(domain: usize) -> Self {
        CMultiset {
            counts: vec![0; domain.saturating_add(1)],
            sums: vec![0; domain.saturating_add(1)],
            size: domain,
        }
    }

    #[inline]
    fn index(c: i64) -> usize {
        // c >= −1 always (see profiles::c); shift into 1-based Fenwick.
        c.saturating_add(2) as usize
    }

    fn add(&mut self, c: i64, delta: i64) {
        let mut i = Self::index(c);
        while i <= self.size {
            self.counts[i] += delta;
            self.sums[i] += delta.saturating_mul(c);
            i += i & i.wrapping_neg();
        }
    }

    /// Sum of the `k` smallest values in the multiset (`k` no larger than
    /// the multiset size).
    fn sum_smallest(&self, k: usize) -> i64 {
        if k == 0 {
            return 0;
        }
        let mut remaining = k as i64;
        let mut acc = 0i64;
        let mut pos = 0usize;
        // Descend the implicit Fenwick tree: standard prefix search.
        let mut log = self.size.next_power_of_two();
        while log > 0 {
            let next = pos.saturating_add(log);
            if next <= self.size && self.counts[next] < remaining {
                remaining -= self.counts[next];
                acc += self.sums[next];
                pos = next;
            }
            log >>= 1;
        }
        // `pos` is the largest index whose prefix count < k; the remaining
        // elements all have value (pos+1) − 2 in the shifted domain.
        acc + remaining * ((pos as i64 + 1) - 2)
    }
}

/// Incremental scanner state over the candidate thresholds of an instance.
pub struct IncrementalScan<'a> {
    profiles: &'a Profiles,
    num_procs: usize,
    /// Sorted candidate thresholds.
    candidates: Vec<Size>,
    /// Events: `events[j]` = processors affected when the scan reaches
    /// `candidates[j]` (deduplicated).
    events: Vec<Vec<usize>>,
    /// Current per-processor (a, b, has_large).
    state: Vec<(usize, usize, bool)>,
    /// Current candidate index (the scan's position).
    pos: usize,
    /// Running Σ b_i.
    sum_b: usize,
    /// Running m_L.
    m_l: usize,
    cset: CMultiset,
}

impl<'a> IncrementalScan<'a> {
    /// Build the scanner, positioned at the first candidate at or above
    /// `start_at` minus one region (mirroring `mpartition`'s starting rule).
    ///
    /// Returns `None` when the instance has no jobs.
    pub fn new(inst: &Instance, profiles: &'a Profiles, start_at: Size) -> Option<Self> {
        let candidates = profiles.candidates();
        if candidates.is_empty() {
            return None;
        }
        let start = candidates
            .partition_point(|&t| t < start_at)
            .saturating_sub(1);

        // Event map: which processors does each candidate affect? A
        // candidate generated by processor p's prefix sums affects p; a
        // candidate 2·p_j affects the job's processor (small/large flip)
        // and the global L_T (handled separately via l_t()).
        let m = inst.num_procs();
        let mut pairs: Vec<(Size, usize)> = Vec::new();
        for p in 0..m {
            let prof = profiles.proc(p);
            for (&b, &size) in prof.prefix[1..].iter().zip(&prof.sizes) {
                pairs.push((b, p));
                pairs.push((b.saturating_mul(2), p));
                // Doubled job sizes flip the small/large classification on
                // this processor; they saturate as the ladder's do.
                pairs.push((size.saturating_mul(2), p));
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        let mut events: Vec<Vec<usize>> = vec![Vec::new(); candidates.len()];
        for (v, p) in pairs {
            // Candidates are exactly the deduplicated values, so the lookup
            // always hits.
            let j = candidates.partition_point(|&t| t < v);
            debug_assert!(j < candidates.len() && candidates[j] == v);
            events[j].push(p);
        }

        // Initialize full state at candidates[start].
        let t0 = candidates[start];
        let mut state = Vec::with_capacity(m);
        let mut sum_b = 0usize;
        let mut m_l = 0usize;
        // Domain of c values: c ∈ [−1, max jobs on one processor].
        let domain = (0..m).map(|p| profiles.proc(p).len()).max().unwrap_or(0) + 3;
        let mut cset = CMultiset::new(domain);
        for p in 0..m {
            let counts = profiles.counts(p, t0);
            sum_b += counts.b;
            m_l += usize::from(counts.has_large);
            cset.add(counts.c(), 1);
            state.push((counts.a, counts.b, counts.has_large));
        }

        Some(IncrementalScan {
            profiles,
            num_procs: m,
            candidates,
            events,
            state,
            pos: start,
            sum_b,
            m_l,
            cset,
        })
    }

    /// The threshold the scanner currently sits on.
    pub fn current_threshold(&self) -> Size {
        self.candidates[self.pos]
    }

    /// Planned moves at the current threshold; `None` when infeasible
    /// (`L_T > m`).
    pub fn planned_moves(&self) -> Option<usize> {
        let t = self.candidates[self.pos];
        let l_t = self.profiles.l_t(t);
        if l_t > self.num_procs {
            return None;
        }
        let l_e = l_t - self.m_l;
        let selected = self.cset.sum_smallest(l_t);
        Some(
            (l_e as i64)
                .saturating_add(self.sum_b as i64)
                .saturating_add(selected) as usize,
        )
    }

    /// Advance to the next candidate, applying its events. Returns false
    /// when the scan is exhausted.
    pub fn advance(&mut self) -> bool {
        if self.pos + 1 >= self.candidates.len() {
            return false;
        }
        self.pos += 1;
        let t = self.candidates[self.pos];
        // The events list holds exactly the processors whose a/b/has_large
        // can change at this candidate; take them out to appease the
        // borrow checker, then restore.
        let procs = std::mem::take(&mut self.events[self.pos]);
        for &p in &procs {
            let (a_old, b_old, hl_old) = self.state[p];
            let counts = self.profiles.counts(p, t);
            let (a, b, hl) = (counts.a, counts.b, counts.has_large);
            if (a, b, hl) != (a_old, b_old, hl_old) {
                self.sum_b = self.sum_b.saturating_sub(b_old).saturating_add(b);
                self.m_l = self.m_l - usize::from(hl_old) + usize::from(hl);
                self.cset
                    .add((a_old as i64).saturating_sub(b_old as i64), -1);
                self.cset.add((a as i64).saturating_sub(b as i64), 1);
                self.state[p] = (a, b, hl);
            }
        }
        self.events[self.pos] = procs;
        true
    }

    /// Scan forward (inclusive of the current position) to the first
    /// threshold with planned moves at most `k`; returns the threshold and
    /// the number of thresholds visited.
    pub fn first_feasible(&mut self, k: usize) -> Option<(Size, usize)> {
        let mut probes = 0usize;
        loop {
            probes += 1;
            if matches!(self.planned_moves(), Some(moves) if moves <= k) {
                return Some((self.current_threshold(), probes));
            }
            if !self.advance() {
                return None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition;

    fn check_against_naive(inst: &Instance) {
        let profiles = Profiles::new(inst);
        let Some(mut scan) = IncrementalScan::new(inst, &profiles, inst.avg_load_ceil()) else {
            return;
        };
        loop {
            let t = scan.current_threshold();
            let naive = partition::planned_moves(&profiles, t);
            assert_eq!(scan.planned_moves(), naive, "threshold {t} ({inst:?})");
            if !scan.advance() {
                break;
            }
        }
    }

    #[test]
    fn matches_naive_on_fixed_instances() {
        let insts = [
            Instance::from_sizes(&[7, 2, 3, 4, 6, 1], vec![0, 0, 0, 1, 1, 2], 3).unwrap(),
            Instance::from_sizes(
                &[114, 3, 7, 40, 47, 45, 8, 5],
                vec![0, 0, 0, 0, 1, 0, 1, 0],
                2,
            )
            .unwrap(),
            Instance::from_sizes(&[10, 10, 10], vec![0, 0, 0], 3).unwrap(),
            Instance::from_sizes(&[1, 2, 1], vec![0, 0, 1], 2).unwrap(),
            Instance::from_sizes(&[5], vec![0], 4).unwrap(),
        ];
        for inst in &insts {
            check_against_naive(inst);
        }
    }

    #[test]
    fn matches_naive_on_random_instances() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        for _ in 0..60 {
            let n = rng.gen_range(1..=14);
            let m = rng.gen_range(1..=4);
            let sizes: Vec<u64> = (0..n).map(|_| rng.gen_range(1..=60)).collect();
            let initial: Vec<usize> = (0..n).map(|_| rng.gen_range(0..m)).collect();
            let inst = Instance::from_sizes(&sizes, initial, m).unwrap();
            check_against_naive(&inst);
        }
    }

    #[test]
    fn first_feasible_agrees_with_mpartition_scan() {
        use crate::mpartition::{rebalance_in, ThresholdSearch};
        use crate::Ctx;
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(29);
        for _ in 0..40 {
            let n = rng.gen_range(1..=12);
            let m = rng.gen_range(2..=4);
            let sizes: Vec<u64> = (0..n).map(|_| rng.gen_range(1..=40)).collect();
            let initial: Vec<usize> = (0..n).map(|_| rng.gen_range(0..m)).collect();
            let inst = Instance::from_sizes(&sizes, initial, m).unwrap();
            let k = rng.gen_range(0..=n);

            let profiles = Profiles::new(&inst);
            let mut scan = IncrementalScan::new(&inst, &profiles, inst.avg_load_ceil()).unwrap();
            let inc = scan.first_feasible(k).map(|(t, _)| t);
            let reference =
                rebalance_in(&inst, k, ThresholdSearch::Scan, &mut Ctx::default()).unwrap();
            assert_eq!(inc, Some(reference.threshold), "n={n} m={m} k={k}");
        }
    }

    #[test]
    fn size_multiset_fingerprint_matches_fresh_fingerprint() {
        use crate::model::Job;
        use crate::scratch::ThresholdLadder;
        use rand::{Rng, SeedableRng};

        let mut rng = rand::rngs::StdRng::seed_from_u64(41);
        for _ in 0..40 {
            let mut ms = SizeMultiset::new();
            let mut live: Vec<u64> = Vec::new();
            for _ in 0..rng.gen_range(0..40) {
                if !live.is_empty() && rng.gen_bool(0.4) {
                    let at = rng.gen_range(0..live.len());
                    let s = live.swap_remove(at);
                    assert!(ms.remove(s));
                } else {
                    let s = rng.gen_range(1..=30u64);
                    live.push(s);
                    ms.insert(s);
                }
            }
            live.sort_unstable();
            assert_eq!(ms.sizes_asc(), &live[..]);
            let jobs: Vec<Job> = live.iter().map(|&s| Job::unit(s)).collect();
            assert_eq!(ms.fingerprint(), ThresholdLadder::fingerprint_of(&jobs));
        }
    }

    #[test]
    fn size_multiset_remove_absent_is_false() {
        let mut ms = SizeMultiset::new();
        ms.insert(5);
        ms.insert(5);
        ms.insert(9);
        assert!(!ms.remove(4));
        assert!(ms.remove(5));
        assert_eq!(ms.sizes_asc(), &[5, 9]);
        assert_eq!(ms.len(), 2);
        assert!(!ms.is_empty());
    }

    #[test]
    fn fenwick_sum_smallest() {
        let mut s = CMultiset::new(10);
        for c in [-1i64, 0, 0, 2, 5] {
            s.add(c, 1);
        }
        assert_eq!(s.sum_smallest(0), 0);
        assert_eq!(s.sum_smallest(1), -1);
        assert_eq!(s.sum_smallest(2), -1);
        assert_eq!(s.sum_smallest(3), -1);
        assert_eq!(s.sum_smallest(4), 1);
        assert_eq!(s.sum_smallest(5), 6);
        s.add(0, -1);
        assert_eq!(s.sum_smallest(4), 6);
    }
}
