//! The paper's `GREEDY` algorithm (§2): a `(2 − 1/m)`-approximation for the
//! unit-cost load rebalancing problem in `O(n log n)` time.
//!
//! The algorithm has two phases:
//!
//! 1. **Removal** — repeat `k` times: remove the largest job from the
//!    currently maximum-loaded processor. The makespan after this phase,
//!    `G1`, satisfies `G1 ≤ OPT` (Lemma 1), so it doubles as a *lower bound*
//!    on the optimum — see [`g1_lower_bound`].
//! 2. **Reinsertion** — place each removed job, one by one, on the currently
//!    minimum-loaded processor. The final makespan `G2` satisfies
//!    `G2 ≤ (2 − 1/m)·OPT` (Lemma 2), and the bound is tight (Theorem 1).
//!
//! The paper lets the reinsertion order be arbitrary; the order is exposed
//! via [`ReinsertOrder`] because the tightness construction (experiment T2)
//! needs the adversarial order, while descending order behaves like LPT and
//! is the better practical default.
//!
//! The same code runs on processors of any integer speeds
//! ([`crate::hetero::rebalance_greedy`]): "loaded" means the scaled load
//! `L_p / v_p` (reinsertion: `(L_p + s_j) / v_p`), ties broken by `(L_p, p)`.
//! Each phase keeps one `(load, proc)` heap per distinct speed and compares
//! the heads exactly; identical machines are the one-heap case.

use std::cmp::Ordering::{Equal, Greater, Less};
use std::collections::BinaryHeap;

use lrb_obs::{names, NoopTracer, Tracer};

use crate::ctx::Ctx;
use crate::deadline::WorkBudget;
use crate::error::{Error, Result};
use crate::hetero::{cmp_scaled, Speeds};
use crate::model::{Instance, ProcId, Size};
use crate::outcome::RebalanceOutcome;
use crate::scratch::GreedyScratch;

/// Order in which the removal-phase jobs are reinserted in phase 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReinsertOrder {
    /// Largest removed job first (LPT-like; best practical quality).
    #[default]
    Descending,
    /// Smallest removed job first (the adversarial order for the paper's
    /// tightness example).
    Ascending,
    /// Exactly the order the jobs were removed in phase 1.
    RemovalOrder,
}

/// Result of a `GREEDY` run, with the quantities named in the paper's
/// analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GreedyRun {
    /// The rebalanced assignment and its bookkeeping.
    pub outcome: RebalanceOutcome,
    /// Makespan after the removal phase; `G1 ≤ OPT` by Lemma 1.
    pub g1: Size,
    /// Final makespan; `G2 ≤ (2 − 1/m)·OPT` by Lemma 2.
    pub g2: Size,
}

/// Run `GREEDY` with at most `k` moves and the default (descending)
/// reinsertion order.
///
/// ```
/// use lrb_core::model::Instance;
///
/// // Four jobs piled on processor 0 of 2; two moves allowed.
/// let inst = Instance::from_sizes(&[4, 3, 3, 2], vec![0, 0, 0, 0], 2).unwrap();
/// let out = lrb_core::greedy::rebalance(&inst, 2).unwrap();
/// assert!(out.moves() <= 2);
/// assert!(out.makespan() <= 8); // (2 - 1/m) * OPT = 1.5 * 6 = 9, rounded down by luck
/// ```
pub fn rebalance(inst: &Instance, k: usize) -> Result<RebalanceOutcome> {
    rebalance_in(inst, k, ReinsertOrder::Descending, &mut Ctx::default()).map(|run| run.outcome)
}

/// Run `GREEDY` with an explicit reinsertion order in `ctx`.
///
/// One work tick is charged per removal and per reinsertion step. The
/// observer times the removal and reinsertion phases (`greedy.removal` /
/// `greedy.reinsert`), counts removed and reinserted jobs and
/// cross-processor moves, and observes the size of every moved job in the
/// `greedy.move_size` histogram.
pub fn rebalance_in<R: Tracer>(
    inst: &Instance,
    k: usize,
    order: ReinsertOrder,
    ctx: &mut Ctx<'_, R>,
) -> Result<GreedyRun> {
    rebalance_impl(inst, None, k, order, ctx)
}

/// GREEDY on processors of the given speeds (`None`: identical machines,
/// every speed 1), leaving the final loads in `ctx.scratch.greedy.loads`.
pub(crate) fn rebalance_impl<R: Tracer>(
    inst: &Instance,
    speeds: Option<&Speeds>,
    k: usize,
    order: ReinsertOrder,
    ctx: &mut Ctx<'_, R>,
) -> Result<GreedyRun> {
    let (rec, work, s) = (ctx.rec, &ctx.work, &mut ctx.scratch.greedy);
    let mut assignment = inst.initial().clone();
    let g1 = {
        let _t = rec.span(names::GREEDY_REMOVAL);
        removal_phase(inst, speeds, k, rec, work, s)?
    };

    // Phase 2: reinsert each removed job on the processor that finishes it
    // first, the best head of the per-speed min-heaps. The order keys are
    // (size key, removal position) pairs, so an unstable sort keeps equal
    // sizes in removal order without a merge buffer; `!size` orders sizes
    // descending.
    let _t = rec.span(names::GREEDY_REINSERT);
    s.order_keys.clear();
    s.order_keys
        .extend(s.removed.iter().enumerate().map(|(pos, &j)| match order {
            ReinsertOrder::Descending => (!inst.size(j), pos),
            ReinsertOrder::Ascending => (inst.size(j), pos),
            ReinsertOrder::RemovalOrder => (0, pos),
        }));
    if order != ReinsertOrder::RemovalOrder {
        s.order_keys.sort_unstable();
    }

    s.heaps.fill(true, speeds, &s.loads);
    for &(_, pos) in &s.order_keys {
        let j = s.removed[pos];
        let size = inst.size(j);
        work.charge(names::GREEDY_REINSERT, 1)?;
        let (c, (load, p)) = s.heaps.first(size).ok_or(Error::NoProcessors)?;
        let new_load = load.saturating_add(size);
        assignment[j] = p;
        s.loads[p] = new_load;
        s.heaps.replace_head(c, (new_load, p));
        rec.incr(names::GREEDY_JOBS_REINSERTED, 1);
        if p != inst.initial()[j] {
            rec.incr(names::GREEDY_MOVES, 1);
            rec.observe(names::GREEDY_MOVE_SIZE, size);
        }
    }

    let g2 = s.loads.iter().copied().max().unwrap_or(0);
    let outcome = RebalanceOutcome::from_assignment(inst, assignment)?;
    debug_assert_eq!(outcome.makespan(), g2);
    Ok(GreedyRun { outcome, g1, g2 })
}

/// Phase 1 of `GREEDY`: remove the largest job from the heaviest processor
/// `k` times (stopping early once all loads are zero). Leaves the removed
/// jobs (in removal order) in `s.removed` and the residual per-processor
/// loads in `s.loads`; returns the resulting makespan `G1`.
pub(crate) fn removal_phase<R: Tracer>(
    inst: &Instance,
    speeds: Option<&Speeds>,
    k: usize,
    rec: &R,
    work: &WorkBudget,
    s: &mut GreedyScratch,
) -> Result<Size> {
    s.loads.clear();
    s.loads.extend_from_slice(inst.initial_loads());

    // Per-processor stacks of (size, id) keys sorted ascending, so the
    // largest job is popped from the back in O(1) and equal sizes pop in
    // descending id order, matching a stable size sort of a fresh
    // `jobs_by_proc()` build exactly.
    let m = inst.num_procs();
    s.per_proc.truncate(m);
    s.per_proc.resize_with(m, Vec::new);
    for jobs in &mut s.per_proc {
        jobs.clear();
    }
    for (j, &p) in inst.initial().iter().enumerate() {
        s.per_proc[p].push((inst.size(j), j));
    }
    for jobs in &mut s.per_proc {
        jobs.sort_unstable();
    }

    s.heaps.fill(false, speeds, &s.loads);
    s.removed.clear();
    for _ in 0..k {
        work.charge(names::GREEDY_REMOVAL, 1)?;
        let Some((c, (load, p))) = s.heaps.first(0) else {
            break;
        };
        if load == 0 {
            // The heaviest processor is empty, so all are; removing more
            // jobs is pointless.
            break;
        }
        // A nonzero load implies a job on the stack; treat a mismatch (an
        // internal-invariant breach, not user input) as "nothing to remove"
        // rather than panicking.
        let Some((size, j)) = s.per_proc[p].pop() else {
            break;
        };
        s.loads[p] = load.saturating_sub(size);
        s.removed.push(j);
        rec.incr(names::GREEDY_JOBS_REMOVED, 1);
        s.heaps.replace_head(c, (s.loads[p], p));
    }

    Ok(s.loads.iter().copied().max().unwrap_or(0))
}

/// One GREEDY phase's processor queue: per distinct speed, a max-heap with
/// one `(load, proc)` entry per processor (stored negated in reinsertion,
/// which makes it a min-heap), and every heap's head in one array.
#[derive(Debug, Default)]
pub(crate) struct SpeedHeaps {
    /// Min-heaps (reinsertion) rather than max-heaps (removal).
    min: bool,
    /// The distinct speeds, ascending: one heap each.
    speeds: Vec<u64>,
    heaps: Vec<BinaryHeap<(Size, ProcId)>>,
    heads: Vec<(Size, ProcId)>,
}

impl SpeedHeaps {
    /// Refill for one phase with `(loads[p], p)` for every processor `p`.
    fn fill(&mut self, min: bool, speeds: Option<&Speeds>, loads: &[Size]) {
        self.min = min;
        self.speeds.clear();
        self.speeds
            .extend_from_slice(speeds.map_or(&[1][..], Speeds::as_slice));
        self.speeds.sort_unstable();
        self.speeds.dedup();
        self.heaps.truncate(self.speeds.len());
        self.heaps.resize_with(self.speeds.len(), BinaryHeap::new);
        for heap in &mut self.heaps {
            heap.clear();
        }
        for (p, &load) in loads.iter().enumerate() {
            let speed = speeds.map_or(1, |v| v.get(p));
            let c = self.speeds.binary_search(&speed).unwrap_or(0);
            self.heaps[c].push(flip(min, (load, p)));
        }
        // No heap is empty unless there are no processors at all.
        self.heads.clear();
        let heads = self.heaps.iter().filter_map(|h| h.peek());
        self.heads.extend(heads.map(|&e| flip(min, e)));
    }

    /// The class whose head `(load, proc)` ranks first — the greatest in
    /// max-heaps, the least in min-heaps — with that head. Heads rank by
    /// scaled load `(load + extra) / v`, compared exactly, ties broken by
    /// `(load, proc)`; at one speed that is the `(load, proc)` order.
    fn first(&self, extra: Size) -> Option<(usize, (Size, ProcId))> {
        let want = if self.min { Less } else { Greater };
        let heads = &self.heads;
        let mut best = 0;
        let mut best_load = heads.first()?.0.saturating_add(extra);
        let mut best_v = self.speeds[0];
        for c in 1..heads.len() {
            let (head, v) = (heads[c], self.speeds[c]);
            let load = head.0.saturating_add(extra);
            let order = match cmp_scaled(load, v, best_load, best_v) {
                Equal => head.cmp(&heads[best]),
                order => order,
            };
            if order == want {
                (best, best_load, best_v) = (c, load, v);
            }
        }
        Some((best, heads[best]))
    }

    /// Replace class `c`'s head with `key`, restoring its heap order.
    fn replace_head(&mut self, c: usize, key: (Size, ProcId)) {
        let heap = &mut self.heaps[c];
        if let Some(mut head) = heap.peek_mut() {
            *head = flip(self.min, key);
        }
        if let Some(&head) = heap.peek() {
            self.heads[c] = flip(self.min, head);
        }
    }
}

/// A `(load, proc)` heap entry as stored: unchanged in a max-heap, bitwise
/// negated in a min-heap, which reverses its order. Its own inverse.
fn flip(min: bool, (load, p): (Size, ProcId)) -> (Size, ProcId) {
    if min {
        (!load, !p)
    } else {
        (load, p)
    }
}

/// Lemma 1 as a lower bound: the makespan after removing the largest job
/// from the max-loaded processor `k` times. Any rebalancing that moves at
/// most `k` jobs has makespan at least this value.
pub fn g1_lower_bound(inst: &Instance, k: usize) -> Size {
    let (mut scratch, unlimited) = (GreedyScratch::default(), WorkBudget::unlimited());
    removal_phase(inst, None, k, &NoopTracer, &unlimited, &mut scratch)
        // lint: allow(no-panic-core, WorkBudget::unlimited() makes cancellation unreachable)
        .expect("unlimited work budget never cancels")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's tightness instance (proof of Theorem 1) for a given `m`:
    /// one job of size `m` plus `m² − m` unit jobs; every processor starts
    /// with `m − 1` unit jobs and processor 0 additionally holds the size-`m`
    /// job; `k = m − 1`.
    fn tightness_instance(m: usize) -> (Instance, usize) {
        let mut sizes = vec![m as u64];
        let mut initial = vec![0usize];
        for p in 0..m {
            for _ in 0..m - 1 {
                sizes.push(1);
                initial.push(p);
            }
        }
        (Instance::from_sizes(&sizes, initial, m).unwrap(), m - 1)
    }

    #[test]
    fn zero_moves_is_identity() {
        let inst = Instance::from_sizes(&[5, 3, 4], vec![0, 0, 1], 2).unwrap();
        let out = rebalance(&inst, 0).unwrap();
        assert_eq!(out.assignment(), inst.initial());
        assert_eq!(out.moves(), 0);
    }

    #[test]
    fn respects_move_budget() {
        let inst = Instance::from_sizes(&[5, 3, 4, 2, 2], vec![0, 0, 0, 0, 1], 2).unwrap();
        for k in 0..=5 {
            let out = rebalance(&inst, k).unwrap();
            assert!(out.moves() <= k, "k={k} moves={}", out.moves());
        }
    }

    #[test]
    fn moves_all_from_overloaded_proc() {
        // Everything on proc 0; k = n lets GREEDY fully balance.
        let inst = Instance::from_sizes(&[4, 4, 4, 4], vec![0, 0, 0, 0], 2).unwrap();
        let out = rebalance(&inst, 4).unwrap();
        assert_eq!(out.makespan(), 8);
    }

    #[test]
    fn g1_is_monotone_in_k_and_reaches_zero() {
        let inst = Instance::from_sizes(&[7, 5, 3, 2], vec![0, 0, 1, 1], 2).unwrap();
        let mut prev = u64::MAX;
        for k in 0..=4 {
            let g1 = g1_lower_bound(&inst, k);
            assert!(g1 <= prev);
            prev = g1;
        }
        assert_eq!(g1_lower_bound(&inst, 4), 0);
        // Removing more jobs than exist saturates at zero.
        assert_eq!(g1_lower_bound(&inst, 99), 0);
    }

    #[test]
    fn g1_removes_largest_from_max_loaded() {
        // proc 0 load 10 {6,4}, proc 1 load 7 {7}.
        let inst = Instance::from_sizes(&[6, 4, 7], vec![0, 0, 1], 2).unwrap();
        // k=1: remove 6 from proc0 -> loads {4,7} -> G1 = 7.
        assert_eq!(g1_lower_bound(&inst, 1), 7);
        // k=2: then remove 7 from proc1 -> {4,0} -> G1 = 4.
        assert_eq!(g1_lower_bound(&inst, 2), 4);
    }

    #[test]
    fn tightness_example_with_adversarial_order() {
        // With the big job reinserted last, GREEDY reproduces the original
        // configuration of value 2m − 1 while OPT = m (Theorem 1).
        for m in 2..=6 {
            let (inst, k) = tightness_instance(m);
            let run =
                rebalance_in(&inst, k, ReinsertOrder::Ascending, &mut Ctx::default()).unwrap();
            assert_eq!(run.g1, (m - 1) as u64, "m={m}");
            assert_eq!(run.outcome.makespan(), (2 * m - 1) as u64, "m={m}");
        }
    }

    #[test]
    fn tightness_example_respects_theorem_1_bound() {
        // GREEDY's removal phase takes the size-m job first, so no
        // reinsertion order can reach OPT = m here; but every order stays
        // within the Theorem 1 bound (2 − 1/m)·OPT = 2m − 1.
        for m in 2..=6 {
            let (inst, k) = tightness_instance(m);
            for order in [
                ReinsertOrder::Descending,
                ReinsertOrder::Ascending,
                ReinsertOrder::RemovalOrder,
            ] {
                let out = rebalance_in(&inst, k, order, &mut Ctx::default())
                    .unwrap()
                    .outcome;
                assert!(
                    out.makespan() <= (2 * m - 1) as u64,
                    "m={m} order={order:?}"
                );
                assert!(out.makespan() >= m as u64, "m={m} order={order:?}");
            }
        }
    }

    #[test]
    fn trace_g2_matches_outcome() {
        let inst = Instance::from_sizes(&[9, 1, 1, 1, 8], vec![0, 0, 0, 0, 1], 3).unwrap();
        let run = rebalance_in(&inst, 3, ReinsertOrder::RemovalOrder, &mut Ctx::default()).unwrap();
        assert_eq!(run.g2, run.outcome.makespan());
    }

    #[test]
    fn single_processor_is_noop_quality() {
        let inst = Instance::from_sizes(&[3, 4], vec![0, 0], 1).unwrap();
        let out = rebalance(&inst, 2).unwrap();
        assert_eq!(out.makespan(), 7);
    }

    #[test]
    fn budgeted_run_cancels_and_matches_unbudgeted() {
        let inst = Instance::from_sizes(&[9, 1, 1, 1, 8], vec![0, 0, 0, 0, 1], 3).unwrap();
        let mut tiny = Ctx {
            work: WorkBudget::new(1),
            ..Ctx::default()
        };
        let err = rebalance_in(&inst, 3, ReinsertOrder::Descending, &mut tiny).unwrap_err();
        assert!(matches!(err, crate::error::Error::Cancelled { .. }));

        let mut ample = Ctx {
            work: WorkBudget::new(1_000_000),
            ..Ctx::default()
        };
        let budgeted = rebalance_in(&inst, 3, ReinsertOrder::Descending, &mut ample).unwrap();
        let plain = rebalance(&inst, 3).unwrap();
        assert_eq!(budgeted.outcome.assignment(), plain.assignment());
    }

    #[test]
    fn empty_instance() {
        let inst = Instance::from_sizes(&[], vec![], 2).unwrap();
        let out = rebalance(&inst, 3).unwrap();
        assert_eq!(out.makespan(), 0);
        assert_eq!(out.moves(), 0);
    }

    #[test]
    fn scratch_reuse_is_bit_identical_to_fresh_runs() {
        // One scratch reused across differently-shaped instances must match
        // a fresh solve on every call — growing and shrinking shapes stress
        // stale-buffer bugs.
        let insts = [
            Instance::from_sizes(&[9, 1, 1, 1, 8], vec![0, 0, 0, 0, 1], 3).unwrap(),
            Instance::from_sizes(&[5, 3], vec![0, 0], 2).unwrap(),
            Instance::from_sizes(&[7, 7, 7, 2, 2, 2, 1], vec![0, 0, 0, 1, 1, 1, 2], 4).unwrap(),
            Instance::from_sizes(&[], vec![], 2).unwrap(),
        ];
        let mut ctx = Ctx::default();
        for inst in &insts {
            for k in 0..=inst.num_jobs() {
                let fresh = rebalance(inst, k).unwrap();
                let reused = rebalance_in(inst, k, ReinsertOrder::Descending, &mut ctx)
                    .unwrap()
                    .outcome;
                assert_eq!(fresh.assignment(), reused.assignment(), "k={k}");
                assert_eq!(fresh.makespan(), reused.makespan(), "k={k}");
            }
        }
    }
}
