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
//! The scratch also carries a [`ThresholdLadder`]: M-PARTITION's candidate
//! thresholds depend on the *job-size multiset* (doubled sizes) and on the
//! *placement* (prefix sums). The multiset part — the global ascending size
//! array — is cached across calls keyed by an order-independent fingerprint,
//! so consecutive solves over the same multiset (an online farm whose
//! rebalancer primes it) skip the re-sort. See DESIGN.md §9 for the memory
//! layout and invalidation rules.

use std::cmp::Reverse;

use crate::cost_partition::ProcPlan;
use crate::knapsack::{Item, KeepScratch};
use crate::model::{Job, JobId, ProcId, Size};
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
    pub(crate) ladder: ThresholdLadder,
    pub(crate) hetero: HeteroScratch,
}

impl Scratch {
    /// A fresh scratch with empty (unallocated) buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// How often the threshold-ladder cache was reused across calls.
    pub fn ladder_hits(&self) -> u64 {
        self.ladder.hits
    }

    /// How often the threshold-ladder cache had to be rebuilt.
    pub fn ladder_misses(&self) -> u64 {
        self.ladder.misses
    }
}

/// Buffers for GREEDY's removal and reinsertion phases.
#[derive(Debug, Default)]
pub(crate) struct GreedyScratch {
    /// Live per-processor loads.
    pub loads: Vec<Size>,
    /// Per-processor `(size, id)` stacks, ascending (largest popped first).
    pub per_proc: Vec<Vec<(Size, JobId)>>,
    /// Backing storage for the removal-phase lazy max-heap.
    pub max_heap: Vec<(Size, ProcId)>,
    /// Backing storage for the reinsertion min-heap.
    pub min_heap: Vec<Reverse<(Size, ProcId)>>,
    /// Jobs removed in phase 1, in removal order.
    pub removed: Vec<JobId>,
    /// `(size key, removal position)` pairs in the reinsertion order.
    pub order_keys: Vec<(Size, usize)>,
}

/// Buffers for the speed-scaled (uniform-machine) solvers in
/// [`crate::hetero`]: GREEDY's removal/reinsertion state plus the
/// threshold-probe capacities and shed list.
#[derive(Debug, Default)]
pub(crate) struct HeteroScratch {
    /// Live per-processor raw loads.
    pub loads: Vec<Size>,
    /// Per-processor job stacks, ascending by size (largest popped first).
    pub per_proc: Vec<Vec<JobId>>,
    /// Jobs removed by GREEDY phase 1, in removal order.
    pub removed: Vec<JobId>,
    /// Removed jobs re-sorted into reinsertion order.
    pub order_buf: Vec<JobId>,
    /// Per-processor raw capacities `⌊x·v_q / v⌋` at the probed threshold.
    pub caps: Vec<Size>,
    /// Jobs shed by overfull processors at the probed threshold.
    pub shed: Vec<JobId>,
}

/// Buffers for PARTITION's six steps (shared by the cost variant).
#[derive(Debug, Default)]
pub(crate) struct PartitionScratch {
    /// Cost variant: every positive-size job grouped by processor, each
    /// group in the knapsack's ratio order; built once per solve.
    pub by_ratio: Vec<JobId>,
    /// Cost variant: sort buffer of one group's `(item, id)` keys.
    pub ratio_keys: Vec<(Item, JobId)>,
    /// Cost variant: start of each processor's group in `by_ratio`, and its
    /// length last.
    pub group_start: Vec<usize>,
    /// Cost variant: per-processor plan costs at the current guess.
    pub plans: Vec<ProcPlan>,
    /// Cost variant: one processor's small jobs as knapsack items.
    pub items: Vec<Item>,
    /// Cost variant: the knapsack search's buffers.
    pub keep: KeepScratch,
    /// Live per-processor loads.
    pub loads: Vec<Size>,
    /// Threshold probes: every processor's `c_i`, for selecting the `L_T`
    /// smallest.
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

/// Cache of the multiset-dependent half of M-PARTITION's threshold ladder.
///
/// The Lemma 5 candidate set is `{2·p_j} ∪ {B_l, 2·B_l}`: the doubled job
/// sizes depend only on the job-size *multiset*, the prefix sums on the
/// placement. This cache keys the sorted global size array on an
/// order-independent fingerprint of the multiset, so consecutive solves over
/// the same jobs (a batch of candidate placements, an epoch of what-if
/// probes) skip the `O(n log n)` re-sort.
///
/// Invalidation: the fingerprint folds the job count, the total size, and a
/// commutative hash of each size, so *any* change to the multiset — adding,
/// removing, or resizing a job — misses and rebuilds. Hash collisions would
/// reuse a stale ladder; the fingerprint has 64 bits of mixing, and debug
/// builds additionally verify the cached array against a fresh sort.
#[derive(Debug, Default)]
pub struct ThresholdLadder {
    fingerprint: Option<u64>,
    pub(crate) sizes_asc: Vec<Size>,
    pub(crate) hits: u64,
    pub(crate) misses: u64,
}

impl ThresholdLadder {
    /// Order-independent fingerprint of the job-size multiset.
    pub(crate) fn fingerprint_of(jobs: &[Job]) -> u64 {
        let mut acc = 0u64;
        let mut total = 0u64;
        for j in jobs {
            acc = acc.wrapping_add(size_term(j.size));
            total = total.wrapping_add(j.size);
        }
        finalize_fingerprint(acc, total, jobs.len())
    }

    /// Install an externally maintained sorted size array and its fingerprint
    /// so the next [`Self::sizes_asc_into`] over the same multiset hits the
    /// cache without re-sorting. Callers maintaining the multiset
    /// incrementally (see [`crate::incremental::SizeMultiset`]) use this to
    /// keep a warm ladder across arrivals and departures. Neither a hit nor a
    /// miss is counted; debug builds verify primed data on the next lookup.
    pub(crate) fn prime(&mut self, fingerprint: u64, sizes_asc: &[Size]) {
        debug_assert!(sizes_asc.windows(2).all(|w| w[0] <= w[1]));
        self.sizes_asc.clear();
        self.sizes_asc.extend_from_slice(sizes_asc);
        self.fingerprint = Some(fingerprint);
    }

    /// Fill `out` with the instance's sizes in ascending order, reusing the
    /// cached sort when the multiset fingerprint matches.
    pub(crate) fn sizes_asc_into(&mut self, jobs: &[Job], out: &mut Vec<Size>) {
        let fp = Self::fingerprint_of(jobs);
        if self.fingerprint == Some(fp) && self.sizes_asc.len() == jobs.len() {
            self.hits += 1;
            out.clone_from(&self.sizes_asc);
            debug_assert_eq!(
                {
                    let mut check: Vec<Size> = jobs.iter().map(|j| j.size).collect();
                    check.sort_unstable();
                    check
                },
                *out,
                "threshold-ladder fingerprint collision"
            );
            return;
        }
        self.misses += 1;
        out.clear();
        out.extend(jobs.iter().map(|j| j.size));
        out.sort_unstable();
        self.sizes_asc.clone_from(out);
        self.fingerprint = Some(fp);
    }
}

/// Per-size contribution to the commutative multiset fingerprint. Incremental
/// maintainers add this on insert and subtract it (wrapping) on remove.
pub(crate) fn size_term(size: Size) -> u64 {
    mix(size.wrapping_add(0x9E37_79B9_7F4A_7C15))
}

/// Fold the commutative accumulator, total size, and count into the final
/// fingerprint. Must stay in lockstep with [`ThresholdLadder::fingerprint_of`].
pub(crate) fn finalize_fingerprint(acc: u64, total: u64, len: usize) -> u64 {
    mix(acc ^ mix(total) ^ (len as u64).rotate_left(32))
}

/// splitmix64 finalizer — the same mixer the harness uses for seeds.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Instance;

    fn jobs_of(sizes: &[u64]) -> Vec<Job> {
        sizes.iter().map(|&s| Job::unit(s)).collect()
    }

    #[test]
    fn fingerprint_is_order_independent() {
        let a = ThresholdLadder::fingerprint_of(&jobs_of(&[3, 1, 4, 1, 5]));
        let b = ThresholdLadder::fingerprint_of(&jobs_of(&[5, 4, 3, 1, 1]));
        assert_eq!(a, b);
    }

    #[test]
    fn fingerprint_distinguishes_multisets() {
        let base = ThresholdLadder::fingerprint_of(&jobs_of(&[3, 1, 4]));
        for other in [&[3u64, 1, 5][..], &[3, 1], &[3, 1, 4, 4], &[3, 2, 3]] {
            assert_ne!(base, ThresholdLadder::fingerprint_of(&jobs_of(other)));
        }
        // Same sum, same count, different multiset.
        assert_ne!(
            ThresholdLadder::fingerprint_of(&jobs_of(&[2, 2])),
            ThresholdLadder::fingerprint_of(&jobs_of(&[1, 3])),
        );
    }

    #[test]
    fn ladder_hits_on_same_multiset_misses_on_change() {
        let mut ladder = ThresholdLadder::default();
        let mut out = Vec::new();
        ladder.sizes_asc_into(&jobs_of(&[4, 2, 9]), &mut out);
        assert_eq!(out, vec![2, 4, 9]);
        assert_eq!((ladder.hits, ladder.misses), (0, 1));

        // Same multiset, different order: hit, same answer.
        ladder.sizes_asc_into(&jobs_of(&[9, 4, 2]), &mut out);
        assert_eq!(out, vec![2, 4, 9]);
        assert_eq!((ladder.hits, ladder.misses), (1, 1));

        // Changed multiset: miss, rebuilt.
        ladder.sizes_asc_into(&jobs_of(&[9, 4, 3]), &mut out);
        assert_eq!(out, vec![3, 4, 9]);
        assert_eq!((ladder.hits, ladder.misses), (1, 2));
    }

    #[test]
    fn primed_ladder_hits_without_a_prior_miss() {
        let jobs = jobs_of(&[9, 4, 2]);
        let mut ladder = ThresholdLadder::default();
        ladder.prime(ThresholdLadder::fingerprint_of(&jobs), &[2, 4, 9]);
        let mut out = Vec::new();
        ladder.sizes_asc_into(&jobs, &mut out);
        assert_eq!(out, vec![2, 4, 9]);
        assert_eq!((ladder.hits, ladder.misses), (1, 0));
    }

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
