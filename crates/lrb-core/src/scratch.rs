//! Reusable scratch arenas for the rebalancing hot paths.
//!
//! Solving one instance allocates a handful of short-lived buffers: sorted
//! per-processor job stacks, prefix-sum profiles, heap storage, removal
//! lists, the candidate-threshold ladder. A batch executor solving thousands
//! of instances per second pays that allocator traffic on every call. A
//! [`Scratch`] owns all of those buffers so a worker can clear-and-refill
//! them across calls: after the first solve of a given shape, the GREEDY /
//! M-PARTITION / cost-PARTITION hot paths perform no heap allocation beyond
//! the returned outcome (and the unchanged one the no-regression clamp
//! compares it with).
//!
//! The scratch is a pure buffer pool: it caches no answer or sort between
//! calls, so a warm scratch gives the answers a cold one does. See
//! DESIGN.md §9 for the memory layout.

use std::cmp::Reverse;

use crate::cost_partition::ProcPlan;
use crate::greedy::SpeedHeaps;
use crate::knapsack::{Item, KeepScratch};
use crate::model::{Cost, JobId, ProcId, Size};
use crate::profiles::{ProcCounts, Profiles};

/// Per-worker reusable buffers for the core solvers.
///
/// Create one per thread (plain data — share nothing, reuse everything)
/// inside a [`crate::Ctx`] and pass that to the `*_in` entry points. Buffers
/// grow to the largest instance seen and stay at that capacity; call sites
/// never need to size anything.
#[derive(Debug, Default)]
pub struct Scratch {
    pub(crate) greedy: GreedyScratch,
    pub(crate) partition: PartitionScratch,
    pub(crate) profiles: Profiles,
    pub(crate) candidates: Vec<Size>,
    pub(crate) hetero: HeteroScratch,
}

impl Scratch {
    /// A fresh scratch with empty (unallocated) buffers.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Buffers for GREEDY's removal and reinsertion phases, at any speeds.
#[derive(Debug, Default)]
pub(crate) struct GreedyScratch {
    /// Live per-processor loads.
    pub loads: Vec<Size>,
    /// Per-processor `(size, id)` stacks, ascending (largest popped first).
    pub per_proc: Vec<Vec<(Size, JobId)>>,
    /// Each phase's per-speed processor heaps.
    pub heaps: SpeedHeaps,
    /// Jobs removed in phase 1, in removal order.
    pub removed: Vec<JobId>,
    /// `(size key, removal position)` pairs in the reinsertion order.
    pub order_keys: Vec<(Size, usize)>,
}

/// Buffers for speed-scaled M-PARTITION's threshold probes in
/// [`crate::hetero`].
#[derive(Debug, Default)]
pub(crate) struct HeteroScratch {
    /// Live per-processor raw loads.
    pub loads: Vec<Size>,
    /// Per-processor raw capacities `⌊x·v_q / v⌋` at the probed threshold.
    pub caps: Vec<Size>,
    /// Jobs shed by overfull processors at the probed threshold.
    pub shed: Vec<JobId>,
}

/// Buffers for PARTITION's six steps (shared by the cost variant).
#[derive(Debug, Default)]
pub(crate) struct PartitionScratch {
    /// Cost variant: every positive-size job as its knapsack item and id,
    /// grouped by processor, each group in the knapsack's ratio order;
    /// built once per solve.
    pub by_ratio: Vec<(Item, JobId)>,
    /// Cost variant: start of each processor's group in `by_ratio`, and its
    /// length last.
    pub group_start: Vec<usize>,
    /// Cost variant: per-processor plans at the current guess, with their
    /// knapsack values bracketed.
    pub plans: Vec<ProcPlan>,
    /// Cost variant: every processor's small jobs at the current guess as
    /// knapsack items, grouped by processor in ratio order.
    pub items: Vec<Item>,
    /// Cost variant: start of each processor's items in `items`, and their
    /// length last.
    pub item_start: Vec<usize>,
    /// Cost variant: the open knapsack brackets at the current guess as
    /// `(Reverse(width), proc, cap is A)`, widest first.
    pub open: Vec<(Reverse<Cost>, ProcId, bool)>,
    /// Cost variant: the knapsack search's buffers.
    pub keep: KeepScratch,
    /// Live per-processor loads.
    pub loads: Vec<Size>,
    /// Threshold probes and cost-variant plan costs: every processor's
    /// `c_i`, for selecting the `L_T` smallest.
    pub probe_cs: Vec<i64>,
    /// Steps 1-4: every processor's counts at the run's guess.
    pub counts: Vec<ProcCounts>,
    /// Step 1: the kept (smallest) large job per processor, if any.
    pub kept_large: Vec<Option<JobId>>,
    /// Step 2/3 ranking buffer: `(c_i, no-large tiebreak, proc)`.
    pub cs: Vec<(i64, bool, ProcId)>,
    /// Step 3 selection flags.
    pub is_selected: Vec<bool>,
    /// Cost variant: which selected processors keep their large job.
    pub keeps_large: Vec<bool>,
    /// Large jobs awaiting a Step 5 slot.
    pub homeless_large: Vec<JobId>,
    /// Small jobs awaiting Step 6 reinsertion.
    pub removed_small: Vec<JobId>,
    /// Step 5: selected large-free processors.
    pub free_procs: Vec<ProcId>,
    /// Steps 5-6: sort keys ordering removed jobs largest first.
    pub order_keys: Vec<OrderKey>,
    /// Backing storage for the Step 6 min-heap.
    pub min_heap: Vec<Reverse<(Size, ProcId)>>,
}

/// A removed job's reinsertion sort key: `(Reverse(size), position, job)`.
/// Positions are distinct, so the job never breaks a tie.
pub(crate) type OrderKey = (Reverse<Size>, usize, JobId);

impl PartitionScratch {
    /// Reset the per-run buffers for an instance with `m` processors.
    pub(crate) fn reset(&mut self, m: usize) {
        self.kept_large.clear();
        self.kept_large.resize(m, None);
        self.is_selected.clear();
        self.is_selected.resize(m, false);
        self.keeps_large.clear();
        self.keeps_large.resize(m, false);
        self.cs.clear();
        self.homeless_large.clear();
        self.removed_small.clear();
        self.free_procs.clear();
    }
}

#[cfg(test)]
mod tests {
    use crate::model::Instance;

    #[test]
    fn scratch_reuse_grows_but_never_shrinks_buffers() {
        use crate::greedy::{rebalance_in, ReinsertOrder};
        let mut ctx = crate::Ctx::default();
        let big = Instance::from_sizes(&[9, 8, 7, 6, 5, 4, 3, 2], vec![0; 8], 4).unwrap();
        let small = Instance::from_sizes(&[2, 1], vec![0, 0], 2).unwrap();
        rebalance_in(&big, 4, ReinsertOrder::Descending, &mut ctx).unwrap();
        let cap = ctx.scratch.greedy.removed.capacity();
        rebalance_in(&small, 1, ReinsertOrder::Descending, &mut ctx).unwrap();
        assert!(ctx.scratch.greedy.removed.capacity() >= cap);
    }
}
