//! `M-PARTITION` (§3.1): run [`crate::partition`] without knowing `OPT`.
//!
//! PARTITION never looks at the move budget `k` directly; it guarantees it
//! uses no more moves than an optimal rebalancer *for its makespan guess*.
//! M-PARTITION therefore searches the discrete threshold set of Lemma 5 for
//! the smallest guess at which PARTITION plans at most `k` moves. Because
//! the optimal solution itself uses at most `k` moves, the search stops at a
//! threshold no larger than `OPT` (Lemma 6), which yields the 1.5 ratio
//! (Theorem 3).
//!
//! Two search strategies are provided (experiment T14 is their ablation):
//!
//! * [`ThresholdSearch::Scan`] — the paper's increasing scan from the
//!   average-load guess; always finds the *first* feasible threshold.
//! * [`ThresholdSearch::Binary`] — binary search over the same candidate
//!   list, exploiting that the planned move count is non-increasing in the
//!   guess. This is the default; its agreement with the scan is enforced by
//!   property tests (if a non-monotone instance existed, the two variants
//!   would disagree and the tests would catch it).
//!
//! Either way, the produced assignment is *always* valid and within budget;
//! the search strategy affects only which threshold is chosen.
//!
//! Cost of a solve (DESIGN.md §9): the profiles are built once, from one
//! sort of contiguous `(size, id)` keys per processor. The ladder holds only
//! what the search reads, the last candidate below the average load and
//! every candidate from there up. Each probe makes one `Profiles::counts`
//! pass over the processors and selects, rather than sorts, the `L_T`
//! smallest `c_i`. The final PARTITION run reuses the same per-processor
//! counts, and the no-regression clamp copies the initial assignment only
//! when it wins.

use lrb_obs::{names, Tracer};

use crate::ctx::Ctx;
use crate::deadline::WorkBudget;
use crate::error::{Error, Result};
use crate::model::{Instance, Size};
use crate::outcome::RebalanceOutcome;
use crate::partition::{self, PartitionStats};
use crate::scratch::Scratch;

/// How M-PARTITION locates the smallest feasible threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ThresholdSearch {
    /// Increasing scan from the average load, re-evaluating every processor
    /// at each probed threshold (`O(m log n)` per probe).
    Scan,
    /// The paper's incremental increasing scan: `O(log n)` per threshold
    /// *event* via a Fenwick multiset of `c_i` values — the data structure
    /// behind the `O(n log n)` bound of Theorem 3. Finds the same threshold
    /// as `Scan`.
    Incremental,
    /// Binary search over the candidate thresholds (default).
    #[default]
    Binary,
}

/// Result of an M-PARTITION run.
#[derive(Debug, Clone)]
pub struct MPartitionRun {
    /// The rebalanced assignment (clamped to the initial assignment if that
    /// was already at least as good).
    pub outcome: RebalanceOutcome,
    /// The threshold the search settled on (≤ OPT by Lemma 6).
    pub threshold: Size,
    /// Stats of the PARTITION run at that threshold.
    pub stats: PartitionStats,
    /// How many thresholds were probed (for the T14 ablation).
    pub probes: usize,
}

/// Run M-PARTITION with at most `k` moves using the default binary search.
///
/// ```
/// use lrb_core::model::Instance;
///
/// let inst = Instance::from_sizes(&[4, 3, 3, 2], vec![0, 0, 0, 0], 2).unwrap();
/// let run = lrb_core::mpartition::rebalance(&inst, 2).unwrap();
/// assert!(run.outcome.moves() <= 2);
/// assert_eq!(run.outcome.makespan(), 6); // OPT here; the guarantee is 1.5*OPT
/// assert!(run.threshold <= 6);           // Lemma 6
/// ```
pub fn rebalance(inst: &Instance, k: usize) -> Result<MPartitionRun> {
    rebalance_in(inst, k, ThresholdSearch::default(), &mut Ctx::default())
}

/// Run M-PARTITION with an explicit search strategy in `ctx`.
///
/// Work ticks are charged for profile construction, each probed threshold,
/// and the final PARTITION run. The observer times the threshold search
/// (`mpartition.search`) and the final PARTITION run
/// (`mpartition.partition`), and counts — for every search strategy — how
/// many candidate thresholds were examined versus skipped
/// (`mpartition.candidates_examined` / `mpartition.candidates_skipped`).
/// The scratch keeps the profiles, the candidate ladder, and every
/// PARTITION buffer warm across calls.
pub fn rebalance_in<R: Tracer>(
    inst: &Instance,
    k: usize,
    search: ThresholdSearch,
    ctx: &mut Ctx<'_, R>,
) -> Result<MPartitionRun> {
    rebalance_impl(inst, k, search, ctx.rec, &ctx.work, &mut ctx.scratch)
}

pub(crate) fn rebalance_impl<R: Tracer>(
    inst: &Instance,
    k: usize,
    search: ThresholdSearch,
    rec: &R,
    work: &WorkBudget,
    scratch: &mut Scratch,
) -> Result<MPartitionRun> {
    if inst.num_jobs() == 0 {
        return Ok(MPartitionRun {
            outcome: RebalanceOutcome::unchanged(inst),
            threshold: 0,
            stats: PartitionStats {
                guess: 0,
                l_t: 0,
                m_l: 0,
                l_e: 0,
                selected: Vec::new(),
                planned_moves: 0,
            },
            probes: 0,
        });
    }

    work.charge("mpartition.profiles", inst.num_jobs() as u64)?;
    let Scratch {
        profiles,
        candidates,
        partition: pscratch,
        ..
    } = scratch;
    {
        let _ladder_build = rec.span(names::MPARTITION_LADDER_BUILD);
        profiles.rebuild(inst);
    }
    // Start at the paper's average-load guess — but because the search only
    // evaluates candidate thresholds and behavior is constant *between*
    // candidates, the region containing OPT may begin at the last candidate
    // strictly below the average (Lemma 6 talks about the largest threshold
    // not exceeding OPT). The window keeps that one candidate and every
    // candidate from the average up; the search never reads the rest.
    profiles.candidates_from(inst.avg_load_ceil(), candidates);
    let cands = &candidates[..];
    debug_assert!(
        !cands.is_empty(),
        "the doubled max-load candidate always qualifies"
    );

    let mut probes = 0usize;
    let mut feasible = |t: Size, probes: &mut usize| -> Result<bool> {
        *probes += 1;
        work.charge(names::MPARTITION_SEARCH, 1)?;
        Ok(matches!(
            partition::planned_moves_with(profiles, t, &mut pscratch.probe_cs),
            Some(moves) if moves <= k
        ))
    };

    let search_timer = rec.span(names::MPARTITION_SEARCH);
    let idx = match search {
        ThresholdSearch::Scan => {
            let mut idx = None;
            for (i, &t) in cands.iter().enumerate() {
                if feasible(t, &mut probes)? {
                    idx = Some(i);
                    break;
                }
            }
            idx
        }
        ThresholdSearch::Incremental => {
            let mut scan =
                crate::incremental::IncrementalScan::new(inst, profiles, inst.avg_load_ceil())
                    .ok_or(Error::InfeasibleGuess {
                        guess: 0,
                        reason: "no candidate thresholds",
                    })?;
            match scan.first_feasible(k) {
                Some((t, visited)) => {
                    probes += visited;
                    work.charge(names::MPARTITION_SEARCH, visited as u64)?;
                    Some(cands.partition_point(|&c| c < t))
                }
                None => None,
            }
        }
        ThresholdSearch::Binary => {
            // partition_point over "still infeasible".
            let (mut lo, mut hi) = (0usize, cands.len());
            while lo < hi {
                let mid = (lo + hi) / 2;
                if feasible(cands[mid], &mut probes)? {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            (lo < cands.len()).then_some(lo)
        }
    };
    drop(search_timer);

    // Every probe evaluated one candidate threshold; the rest of the
    // candidate list was never touched by this search strategy.
    rec.incr(names::MPARTITION_CANDIDATES_TOTAL, cands.len() as u64);
    rec.incr(names::MPARTITION_CANDIDATES_EXAMINED, probes as u64);
    rec.incr(
        names::MPARTITION_CANDIDATES_SKIPPED,
        cands.len().saturating_sub(probes) as u64,
    );

    let Some(idx) = idx else {
        // Cannot happen: the largest candidate always plans zero moves.
        return Err(Error::InfeasibleGuess {
            guess: cands.last().copied().unwrap_or(0),
            reason: "no feasible threshold found",
        });
    };

    let t = cands[idx];
    work.charge(names::MPARTITION_PARTITION, inst.num_jobs() as u64)?;
    let run = {
        let _t = rec.span(names::MPARTITION_PARTITION);
        partition::run_impl(inst, profiles, t, rec, pscratch)?
    };
    debug_assert!(run.stats.planned_moves <= k);

    // No-regression clamp: if the initial assignment was already at least as
    // good, keep it (PARTITION never promises to beat the status quo; see
    // the Theorem 2 tightness example where it must not move anything).
    let outcome = run.outcome.or_unchanged(inst);
    Ok(MPartitionRun {
        outcome,
        threshold: t,
        stats: run.stats,
        probes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::within_ratio;

    fn with_search(inst: &Instance, k: usize, search: ThresholdSearch) -> MPartitionRun {
        rebalance_in(inst, k, search, &mut Ctx::default()).unwrap()
    }

    #[test]
    fn all_searches_agree_on_threshold() {
        let inst = Instance::from_sizes(&[9, 7, 5, 4, 3, 2, 1, 8], vec![0, 0, 0, 0, 1, 1, 2, 2], 3)
            .unwrap();
        for k in 0..=8 {
            let scan = with_search(&inst, k, ThresholdSearch::Scan);
            let inc = with_search(&inst, k, ThresholdSearch::Incremental);
            let bin = with_search(&inst, k, ThresholdSearch::Binary);
            assert_eq!(scan.threshold, bin.threshold, "k={k}");
            assert_eq!(scan.threshold, inc.threshold, "k={k}");
            assert_eq!(scan.outcome.makespan(), bin.outcome.makespan(), "k={k}");
            assert_eq!(scan.outcome.makespan(), inc.outcome.makespan(), "k={k}");
        }
    }

    #[test]
    fn binary_uses_fewer_probes_than_scan_on_tight_budgets() {
        // With k = 0 the scan walks most of the candidate list; the binary
        // search takes O(log) probes.
        let sizes: Vec<u64> = (1..=40).collect();
        let initial = vec![0usize; 40];
        let inst = Instance::from_sizes(&sizes, initial, 4).unwrap();
        let scan = with_search(&inst, 0, ThresholdSearch::Scan);
        let bin = with_search(&inst, 0, ThresholdSearch::Binary);
        assert!(
            bin.probes < scan.probes,
            "binary {} vs scan {}",
            bin.probes,
            scan.probes
        );
    }

    #[test]
    fn respects_move_budget() {
        let inst = Instance::from_sizes(&[10, 9, 8, 7, 1, 1], vec![0, 0, 0, 0, 1, 2], 3).unwrap();
        for k in 0..=6 {
            let run = rebalance(&inst, k).unwrap();
            assert!(
                run.outcome.moves() <= k,
                "k={k} moves={}",
                run.outcome.moves()
            );
        }
    }

    #[test]
    fn k_zero_changes_nothing() {
        let inst = Instance::from_sizes(&[5, 5, 5], vec![0, 0, 0], 3).unwrap();
        let run = rebalance(&inst, 0).unwrap();
        assert_eq!(run.outcome.moves(), 0);
        assert_eq!(run.outcome.makespan(), inst.initial_makespan());
    }

    #[test]
    fn full_budget_balances_piled_jobs() {
        let inst = Instance::from_sizes(&[6, 6, 6, 6, 6, 6], vec![0, 0, 0, 0, 0, 0], 3).unwrap();
        let run = rebalance(&inst, 6).unwrap();
        // OPT = 12 (two jobs per processor); 1.5 bound allows 18 but the
        // greedy reassignment should land at 12 here.
        assert_eq!(run.outcome.makespan(), 12);
    }

    #[test]
    fn ratio_bound_against_known_opt() {
        // Instances small enough to reason OPT by hand.
        // {4,3,3,2} piled on one of two processors, k=2 -> OPT=6.
        let inst = Instance::from_sizes(&[4, 3, 3, 2], vec![0, 0, 0, 0], 2).unwrap();
        let run = rebalance(&inst, 2).unwrap();
        assert!(within_ratio(run.outcome.makespan(), 6, 3, 2));
        assert!(
            run.threshold <= 6,
            "Lemma 6: final threshold {} <= OPT 6",
            run.threshold
        );
    }

    #[test]
    fn paper_tightness_ratio_is_exactly_1_5() {
        // {1,2} and {1} on two processors, k=1, OPT=2: M-PARTITION makes no
        // moves and stays at makespan 3.
        let inst = Instance::from_sizes(&[1, 2, 1], vec![0, 0, 1], 2).unwrap();
        let run = rebalance(&inst, 1).unwrap();
        assert_eq!(run.outcome.makespan(), 3);
        assert_eq!(run.outcome.moves(), 0);
    }

    #[test]
    fn clamp_never_worse_than_initial() {
        let inst = Instance::from_sizes(&[3, 3, 4, 2], vec![0, 1, 1, 0], 2).unwrap();
        for k in 0..=4 {
            let run = rebalance(&inst, k).unwrap();
            assert!(run.outcome.makespan() <= inst.initial_makespan(), "k={k}");
        }
    }

    #[test]
    fn empty_instance() {
        let inst = Instance::from_sizes(&[], vec![], 2).unwrap();
        let run = rebalance(&inst, 3).unwrap();
        assert_eq!(run.outcome.makespan(), 0);
    }

    #[test]
    fn budgeted_run_cancels_and_matches_unbudgeted() {
        let inst = Instance::from_sizes(&[10, 9, 8, 7, 1, 1], vec![0, 0, 0, 0, 1, 2], 3).unwrap();
        for search in [
            ThresholdSearch::Scan,
            ThresholdSearch::Incremental,
            ThresholdSearch::Binary,
        ] {
            let mut tiny = Ctx {
                work: WorkBudget::new(1),
                ..Ctx::default()
            };
            let err = rebalance_in(&inst, 2, search, &mut tiny).unwrap_err();
            assert!(matches!(err, Error::Cancelled { .. }), "{search:?}");

            let mut ample = Ctx {
                work: WorkBudget::new(1_000_000),
                ..Ctx::default()
            };
            let budgeted = rebalance_in(&inst, 2, search, &mut ample).unwrap();
            let plain = with_search(&inst, 2, search);
            assert_eq!(
                budgeted.outcome.assignment(),
                plain.outcome.assignment(),
                "{search:?}"
            );
        }
    }

    #[test]
    fn scratch_reuse_is_bit_identical() {
        let base = Instance::from_sizes(&[9, 7, 5, 4, 3, 2, 1, 8], vec![0, 0, 0, 0, 1, 1, 2, 2], 3)
            .unwrap();
        // Same job multiset, different placement.
        let alt = Instance::from_sizes(&[9, 7, 5, 4, 3, 2, 1, 8], vec![2, 1, 0, 2, 1, 0, 0, 1], 3)
            .unwrap();
        // Different multiset and shape.
        let other = Instance::from_sizes(&[6, 6, 5], vec![0, 0, 1], 2).unwrap();
        let mut ctx = Ctx::default();
        for inst in [&base, &alt, &base, &other] {
            for k in 0..=4 {
                let fresh = rebalance(inst, k).unwrap();
                let reused = rebalance_in(inst, k, ThresholdSearch::Binary, &mut ctx).unwrap();
                assert_eq!(fresh.threshold, reused.threshold, "k={k}");
                assert_eq!(fresh.probes, reused.probes, "k={k}");
                assert_eq!(
                    fresh.outcome.assignment(),
                    reused.outcome.assignment(),
                    "k={k}"
                );
            }
        }
    }

    #[test]
    fn huge_job_sizes_do_not_overflow() {
        // Doubling 2^63, or a prefix sum near u64::MAX, overflows u64: the
        // ladder's doubled values and the prefix sums saturate, and a job is
        // large when `size > t/2`.
        for sizes in [&[1u64 << 63, 1, 1][..], &[u64::MAX / 2, u64::MAX / 2, 5]] {
            let inst = Instance::from_sizes(sizes, vec![0, 0, 1], 2).unwrap();
            for search in [
                ThresholdSearch::Scan,
                ThresholdSearch::Incremental,
                ThresholdSearch::Binary,
            ] {
                let run = with_search(&inst, 1, search);
                let assignment = run.outcome.assignment();
                assert_eq!(assignment.len(), sizes.len(), "{sizes:?} {search:?}");
                assert!(assignment.iter().all(|&p| p < 2), "{sizes:?} {search:?}");
                assert!(run.outcome.moves() <= 1, "{sizes:?} {search:?}");
                assert!(
                    run.outcome.makespan() <= inst.initial_makespan(),
                    "{sizes:?} {search:?}"
                );
            }
        }
    }

    #[test]
    fn single_job() {
        let inst = Instance::from_sizes(&[7], vec![0], 3).unwrap();
        let run = rebalance(&inst, 1).unwrap();
        assert_eq!(run.outcome.makespan(), 7);
        assert_eq!(run.outcome.moves(), 0);
    }
}
