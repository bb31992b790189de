//! PARTITION for arbitrary relocation costs (§3.2).
//!
//! The structure mirrors the unit-cost algorithm, with two changes the
//! paper prescribes:
//!
//! * the per-processor counters `a_i`/`b_i` become *costs*, computed by a
//!   knapsack ("keep the most relocation cost subject to a size cap", see
//!   [`crate::knapsack`]); among a processor's large jobs the **most
//!   costly** one is kept;
//! * the makespan value is guessed by binary search; for each guess `A` the
//!   algorithm finds an assignment of makespan `≤ 1.5·A` whose removal cost
//!   is at most the cheapest way to achieve makespan `≤ A`, and the guess is
//!   accepted when that cost fits the budget `B`.
//!
//! Because sizes are integers, the binary search runs over integer
//! makespans and the paper's `(1+α)` guessing error disappears: the
//! result is within `1.5·OPT_B` whenever the planned cost is monotone
//! non-increasing in the guess (verified empirically by the T7/T14-style
//! property tests, as for M-PARTITION).
//!
//! The knapsack solver may fall back to a best-effort solution on
//! pathological inputs; that only ever *over*-estimates removal costs, so a
//! returned plan never violates the budget — it can only make the chosen
//! makespan guess slightly conservative (the paper's `ε`).

use lrb_obs::{names, NoopTracer, Tracer};

use crate::ctx::Ctx;
use crate::deadline::WorkBudget;
use crate::error::{Error, Result};
use crate::knapsack::{keep_sorted, ratio_cmp, Item, KeepScratch, DEFAULT_NODE_BUDGET};
use crate::model::{Cost, Instance, JobId, Size};
use crate::outcome::RebalanceOutcome;
use crate::partition;
use crate::scratch::PartitionScratch;

/// One processor's removal costs at one makespan guess.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ProcPlan {
    /// Cost of the Step 1+3 variant: keep the costliest large job (shedding
    /// the rest) and keep smalls of maximum cost within size `A/2`.
    a_cost: Cost,
    /// Cost of the Step 4 variant: shed *all* large jobs and keep smalls of
    /// maximum cost within size `A`.
    b_cost: Cost,
    /// Whether the processor holds at least one large job.
    has_large: bool,
}

/// Result of a cost-PARTITION run.
#[derive(Debug, Clone)]
pub struct CostPartitionRun {
    /// The rebalanced assignment and its bookkeeping.
    pub outcome: RebalanceOutcome,
    /// The makespan guess the search settled on.
    pub guess: Size,
    /// Total removal cost the plan budgeted (realized cost can be lower).
    pub planned_cost: Cost,
    /// Number of large jobs at the final guess.
    pub l_t: usize,
}

/// Plan cost (total removal cost) at makespan guess `a`, without building
/// the assignment; `None` when the guess is infeasible (`L_T > m`).
pub fn planned_cost(inst: &Instance, a: Size) -> Option<Cost> {
    let mut s = PartitionScratch::default();
    order_by_ratio(inst, &mut s);
    plan_costs(inst, a, &NoopTracer, &mut s).map(|l_t| select(&mut s, l_t))
}

/// Run the §3.2 algorithm: minimize makespan subject to a total relocation
/// cost budget `b`.
///
/// ```
/// use lrb_core::model::{Instance, Job};
///
/// // Two equal jobs piled up; moving the cheap one suffices.
/// let jobs = vec![Job::with_cost(5, 10), Job::with_cost(5, 1)];
/// let inst = Instance::new(jobs, vec![0, 0], 2).unwrap();
/// let run = lrb_core::cost_partition::rebalance(&inst, 1).unwrap();
/// assert_eq!(run.outcome.makespan(), 5);
/// assert!(run.outcome.cost() <= 1);
/// ```
pub fn rebalance(inst: &Instance, b: Cost) -> Result<CostPartitionRun> {
    rebalance_in(inst, b, &mut Ctx::default())
}

/// Run cost-PARTITION in `ctx`.
///
/// `n` work ticks are charged per binary-search guess (each guess runs two
/// knapsacks per processor) plus `n` for the final build. The observer
/// counts binary-search guesses (`cost_partition.guesses`), times the guess
/// search (`cost_partition.search`) and the final build
/// (`cost_partition.build`), and reaches the per-processor knapsacks
/// (`knapsack.bb_nodes`, `knapsack.bb_fallbacks`,
/// `knapsack.branch_and_bound`). The scratch keeps every buffer of the
/// guess search and the final build warm across calls.
pub fn rebalance_in<R: Tracer>(
    inst: &Instance,
    b: Cost,
    ctx: &mut Ctx<'_, R>,
) -> Result<CostPartitionRun> {
    rebalance_impl(inst, b, ctx.rec, &ctx.work, &mut ctx.scratch.partition)
}

fn rebalance_impl<R: Tracer>(
    inst: &Instance,
    b: Cost,
    rec: &R,
    work: &WorkBudget,
    s: &mut PartitionScratch,
) -> Result<CostPartitionRun> {
    if inst.num_jobs() == 0 {
        return Ok(CostPartitionRun {
            outcome: RebalanceOutcome::unchanged(inst),
            guess: 0,
            planned_cost: 0,
            l_t: 0,
        });
    }
    // Integer binary search for the smallest guess whose plan fits the
    // budget. The initial makespan always fits (cost 0), so `hi` is valid.
    let search_timer = rec.span(names::COST_PARTITION_SEARCH);
    order_by_ratio(inst, s);
    let lo0 = inst.avg_load_ceil().min(inst.initial_makespan());
    let hi0 = inst.initial_makespan();
    let (mut lo, mut hi) = (lo0, hi0);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        rec.incr(names::COST_PARTITION_GUESSES, 1);
        work.charge("cost_partition.guess", inst.num_jobs() as u64)?;
        match plan_costs(inst, mid, rec, s).map(|l_t| select(s, l_t)) {
            Some(cost) if cost <= b => hi = mid,
            _ => lo = mid + 1,
        }
    }
    drop(search_timer);
    work.charge(names::COST_PARTITION_BUILD, inst.num_jobs() as u64)?;
    let _t = rec.span(names::COST_PARTITION_BUILD);
    build_at(inst, lo, rec, s).map(|mut run| {
        // No-regression clamp (mirrors M-PARTITION).
        run.outcome = run.outcome.or_unchanged(inst);
        run
    })
}

/// Run the algorithm at a fixed makespan guess `a`.
///
/// # Errors
///
/// [`Error::InfeasibleGuess`] when there are more large jobs than
/// processors.
pub fn run_at(inst: &Instance, a: Size) -> Result<CostPartitionRun> {
    let mut s = PartitionScratch::default();
    order_by_ratio(inst, &mut s);
    build_at(inst, a, &NoopTracer, &mut s)
}

/// Whether a job of `size` is large at guess `a` (`2·size > a`), without
/// overflow: for integers, `2·size > a` exactly when `size > ⌊a/2⌋`. Every
/// small job therefore fits the `a`-plan's knapsack cap `⌊a/2⌋`.
fn is_large(size: Size, a: Size) -> bool {
    size > a / 2
}

/// Group every positive-size job by processor into `s.by_ratio`, each
/// group in the knapsack's ratio order with the lower job id first on ties.
/// The small jobs at any guess are a subsequence of their processor's
/// group, so every guess reuses this one sort. Zero-size jobs are left out:
/// they are small at every guess and always kept, so they never cost
/// anything.
fn order_by_ratio(inst: &Instance, s: &mut PartitionScratch) {
    let m = inst.num_procs();
    let starts = &mut s.group_start;
    starts.clear();
    starts.resize(m.saturating_add(1), 0);
    for (j, &p) in inst.initial().iter().enumerate() {
        if inst.size(j) > 0 {
            starts[p] += 1;
        }
    }
    let mut end = 0;
    for slot in starts.iter_mut() {
        end += *slot;
        *slot = end;
    }
    // Filling each group back to front from its end leaves it in job-id
    // order and turns `starts[p]` into the group's start.
    s.by_ratio.clear();
    s.by_ratio.resize(end, 0);
    for (j, &p) in inst.initial().iter().enumerate().rev() {
        if inst.size(j) > 0 {
            starts[p] -= 1;
            s.by_ratio[starts[p]] = j;
        }
    }
    // Sort contiguous (item, id) keys rather than ids that look their item
    // up in every comparison; the ids break ties, so the order is the same.
    for p in 0..m {
        let range = group(s, p);
        let (jobs, keys) = (&mut s.by_ratio[range], &mut s.ratio_keys);
        keys.clear();
        keys.extend(jobs.iter().map(|&j| {
            let item = Item {
                size: inst.size(j),
                cost: inst.cost(j),
            };
            (item, j)
        }));
        keys.sort_unstable_by(|x, y| ratio_cmp(x.0, y.0).then(x.1.cmp(&y.1)));
        for (slot, &(_, j)) in jobs.iter_mut().zip(keys.iter()) {
            *slot = j;
        }
    }
}

/// Processor `p`'s ratio-ordered group in `s.by_ratio`.
fn group(s: &PartitionScratch, p: usize) -> std::ops::Range<usize> {
    s.group_start[p]..s.group_start[p + 1]
}

/// Split `jobs` (one ratio-ordered group) at guess `a`: the small jobs go to
/// `items` in ratio order, and the result is the total cost of the large
/// jobs and the costliest large job, the one the `a`-plan keeps (the higher
/// job id on ties).
fn split(inst: &Instance, jobs: &[JobId], a: Size, items: &mut Vec<Item>) -> (Cost, Option<JobId>) {
    items.clear();
    let mut large_cost: Cost = 0;
    let mut kept_large: Option<JobId> = None;
    for &j in jobs {
        let (size, cost) = (inst.size(j), inst.cost(j));
        if is_large(size, a) {
            large_cost = large_cost.saturating_add(cost);
            if kept_large.is_none_or(|k| (cost, j) > (inst.cost(k), k)) {
                kept_large = Some(j);
            }
        } else {
            items.push(Item { size, cost });
        }
    }
    (large_cost, kept_large)
}

/// One processor's plan costs at guess `a`: two keep-knapsacks over its
/// small jobs, with caps `⌊a/2⌋` and `a`.
fn plan_proc<R: Tracer>(
    inst: &Instance,
    jobs: &[JobId],
    a: Size,
    items: &mut Vec<Item>,
    keep: &mut KeepScratch,
    rec: &R,
) -> ProcPlan {
    let (large_cost, kept_large) = split(inst, jobs, a, items);
    let small_cost = items
        .iter()
        .fold(0u64, |acc, it| acc.saturating_add(it.cost));
    let (keep_half, _) = keep_sorted(items, a / 2, DEFAULT_NODE_BUDGET, false, keep, rec);
    let (keep_full, _) = keep_sorted(items, a, DEFAULT_NODE_BUDGET, false, keep, rec);
    let kept_large_cost = kept_large.map_or(0, |j| inst.cost(j));
    ProcPlan {
        a_cost: small_cost
            .saturating_sub(keep_half)
            .saturating_add(large_cost.saturating_sub(kept_large_cost)),
        b_cost: small_cost
            .saturating_sub(keep_full)
            .saturating_add(large_cost),
        has_large: kept_large.is_some(),
    }
}

/// Fill `s.plans` with every processor's plan costs at guess `a` and return
/// `L_T`; `None`, with no knapsack run, if `L_T > m`.
fn plan_costs<R: Tracer>(
    inst: &Instance,
    a: Size,
    rec: &R,
    s: &mut PartitionScratch,
) -> Option<usize> {
    let m = inst.num_procs();
    let l_t = inst.jobs().iter().filter(|j| is_large(j.size, a)).count();
    if l_t > m {
        return None;
    }
    s.plans.clear();
    for p in 0..m {
        let jobs = &s.by_ratio[group(s, p)];
        let plan = plan_proc(inst, jobs, a, &mut s.items, &mut s.keep, rec);
        s.plans.push(plan);
    }
    Some(l_t)
}

/// Rank the processors of `s.plans` into `s.cs` by `c = a_cost − b_cost`,
/// preferring processors with large jobs on ties (the paper's rule), and
/// return the planned cost of giving the first `l_t` the `a`-plan and the
/// rest the `b`-plan.
fn select(s: &mut PartitionScratch, l_t: usize) -> Cost {
    s.cs.clear();
    s.cs.extend(
        s.plans
            .iter()
            .enumerate()
            .map(|(p, plan)| (plan.a_cost as i64 - plan.b_cost as i64, !plan.has_large, p)),
    );
    s.cs.sort_unstable();
    let base = s
        .plans
        .iter()
        .fold(0u64, |acc, p| acc.saturating_add(p.b_cost));
    let extra: i64 = s.cs.iter().take(l_t).map(|&(c, _, _)| c).sum();
    base.saturating_add_signed(extra)
}

/// Build the assignment at guess `a` from the ratio order in `s`.
fn build_at<R: Tracer>(
    inst: &Instance,
    a: Size,
    rec: &R,
    s: &mut PartitionScratch,
) -> Result<CostPartitionRun> {
    let Some(l_t) = plan_costs(inst, a, rec, s) else {
        return Err(Error::InfeasibleGuess {
            guess: a,
            reason: "more large jobs than processors",
        });
    };
    let m = inst.num_procs();
    s.reset(m);
    let planned_cost = select(s, l_t);
    for &(_, _, p) in s.cs.iter().take(l_t) {
        s.is_selected[p] = true;
    }

    let mut assignment = inst.initial().clone();
    s.loads.clear();
    s.loads.extend_from_slice(inst.initial_loads());

    // Recover the kept set of each processor's chosen plan only. Removed
    // jobs are queued per processor in job-id order, which fixes the order
    // of the equal-size jobs in the stable sorts below.
    for p in 0..m {
        let selected = s.is_selected[p];
        let range = group(s, p);
        let (_, kept_large) = split(inst, &s.by_ratio[range.clone()], a, &mut s.items);
        let cap = if selected { a / 2 } else { a };
        keep_sorted(&s.items, cap, DEFAULT_NODE_BUDGET, true, &mut s.keep, rec);
        s.keeps_large[p] = selected && kept_large.is_some();

        let (small_from, large_from) = (s.removed_small.len(), s.homeless_large.len());
        let mut kept = s.keep.best.iter().copied().peekable();
        let mut pos = 0;
        for &j in &s.by_ratio[range] {
            if is_large(inst.size(j), a) {
                if !(selected && kept_large == Some(j)) {
                    s.homeless_large.push(j);
                    s.loads[p] -= inst.size(j);
                }
                continue;
            }
            if kept.peek() == Some(&pos) {
                kept.next();
            } else {
                s.removed_small.push(j);
                s.loads[p] -= inst.size(j);
            }
            pos += 1;
        }
        s.removed_small[small_from..].sort_unstable();
        s.homeless_large[large_from..].sort_unstable();
    }

    // PARTITION's Steps 5-6: homeless large jobs onto the selected
    // large-free processors, then removed smalls onto the least loaded.
    s.free_procs
        .extend((0..m).filter(|&p| s.is_selected[p] && !s.keeps_large[p]));
    partition::place_large(inst, s, &mut assignment);
    partition::reinsert_small(inst, s, &mut assignment)?;

    let outcome = RebalanceOutcome::from_assignment(inst, assignment)?;
    debug_assert!(outcome.cost() <= planned_cost);
    Ok(CostPartitionRun {
        outcome,
        guess: a,
        planned_cost,
        l_t,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Job;

    fn inst_with_costs(jobs: &[(u64, u64)], initial: Vec<usize>, m: usize) -> Instance {
        let jobs = jobs.iter().map(|&(s, c)| Job::with_cost(s, c)).collect();
        Instance::new(jobs, initial, m).unwrap()
    }

    #[test]
    fn unit_costs_match_move_semantics() {
        // With unit costs, budget B behaves like a move budget.
        let inst = Instance::from_sizes(&[4, 3, 3, 2], vec![0, 0, 0, 0], 2).unwrap();
        let run = rebalance(&inst, 2).unwrap();
        assert!(run.outcome.cost() <= 2);
        assert_eq!(run.outcome.makespan(), 6);
    }

    #[test]
    fn zero_budget_means_no_moves() {
        let inst = inst_with_costs(&[(5, 3), (5, 3)], vec![0, 0], 2);
        let run = rebalance(&inst, 0).unwrap();
        assert_eq!(run.outcome.moves(), 0);
        assert_eq!(run.outcome.makespan(), 10);
    }

    #[test]
    fn prefers_moving_cheap_jobs() {
        // Two equal-size jobs piled up; one costs 10, the other 1. With
        // budget 1 only the cheap one can move.
        let inst = inst_with_costs(&[(5, 10), (5, 1)], vec![0, 0], 2);
        let run = rebalance(&inst, 1).unwrap();
        assert_eq!(run.outcome.makespan(), 5);
        assert_eq!(run.outcome.moved(), &[1]);
        assert_eq!(run.outcome.cost(), 1);
    }

    #[test]
    fn budget_is_never_violated() {
        let inst = inst_with_costs(
            &[(9, 4), (7, 2), (6, 5), (5, 1), (4, 3), (3, 2)],
            vec![0, 0, 0, 1, 1, 2],
            3,
        );
        for b in 0..=20 {
            let run = rebalance(&inst, b).unwrap();
            assert!(
                run.outcome.cost() <= b,
                "budget {b}, cost {}",
                run.outcome.cost()
            );
        }
    }

    #[test]
    fn makespan_never_worse_than_initial() {
        let inst = inst_with_costs(&[(5, 2), (4, 2), (3, 2), (6, 2)], vec![0, 1, 0, 1], 2);
        for b in 0..=8 {
            let run = rebalance(&inst, b).unwrap();
            assert!(run.outcome.makespan() <= inst.initial_makespan(), "b={b}");
        }
    }

    #[test]
    fn larger_budget_never_hurts() {
        let inst = inst_with_costs(
            &[(8, 3), (6, 1), (5, 2), (4, 4), (2, 1)],
            vec![0, 0, 0, 0, 1],
            3,
        );
        let mut prev = u64::MAX;
        for b in 0..=11 {
            let run = rebalance(&inst, b).unwrap();
            assert!(run.outcome.makespan() <= prev, "b={b}");
            prev = run.outcome.makespan();
        }
    }

    #[test]
    fn keeps_costliest_large_job() {
        // Two large jobs on proc 0 (sizes 10); relocation costs 1 and 9.
        // Shedding the cheap one is optimal.
        let inst = inst_with_costs(&[(10, 1), (10, 9)], vec![0, 0], 2);
        let run = rebalance(&inst, 1).unwrap();
        assert_eq!(run.outcome.makespan(), 10);
        assert_eq!(run.outcome.moved(), &[0]);
    }

    #[test]
    fn run_at_reports_infeasible() {
        let inst = Instance::from_sizes(&[10, 10, 10], vec![0, 0, 1], 2).unwrap();
        assert!(matches!(
            run_at(&inst, 10),
            Err(Error::InfeasibleGuess { .. })
        ));
        assert_eq!(planned_cost(&inst, 10), None);
    }

    #[test]
    fn planned_cost_matches_run_at() {
        let inst = inst_with_costs(
            &[(9, 4), (7, 2), (6, 5), (5, 1), (4, 3), (3, 2)],
            vec![0, 0, 0, 1, 1, 2],
            3,
        );
        for a in [8u64, 10, 12, 15, 20, 34] {
            match run_at(&inst, a) {
                Ok(run) => assert_eq!(planned_cost(&inst, a), Some(run.planned_cost), "a={a}"),
                Err(_) => assert_eq!(planned_cost(&inst, a), None, "a={a}"),
            }
        }
    }

    #[test]
    fn huge_jobs_count_as_large_without_overflow() {
        // 2·2^63 overflows u64: L_T and the per-processor split must both
        // see the job as large at every guess.
        let inst = inst_with_costs(&[(1 << 63, 1), (1, 1)], vec![0, 0], 2);
        let run = rebalance(&inst, 1).unwrap();
        assert_eq!(run.l_t, 1);
        assert!(run.outcome.cost() <= 1);
        assert!(run.outcome.makespan() <= inst.initial_makespan());
    }

    #[test]
    fn empty_instance() {
        let inst = Instance::from_sizes(&[], vec![], 2).unwrap();
        let run = rebalance(&inst, 5).unwrap();
        assert_eq!(run.outcome.makespan(), 0);
    }

    #[test]
    fn scratch_reuse_is_bit_identical_to_fresh_runs() {
        let a = inst_with_costs(
            &[(9, 4), (7, 2), (6, 5), (5, 1), (4, 3), (3, 2)],
            vec![0, 0, 0, 1, 1, 2],
            3,
        );
        let b = inst_with_costs(&[(10, 1), (10, 9)], vec![0, 0], 2);
        let mut ctx = Ctx::default();
        for inst in [&a, &b, &a] {
            for budget in 0..=8 {
                let fresh = rebalance(inst, budget).unwrap();
                let reused = rebalance_in(inst, budget, &mut ctx).unwrap();
                assert_eq!(fresh.guess, reused.guess, "b={budget}");
                assert_eq!(fresh.planned_cost, reused.planned_cost, "b={budget}");
                assert_eq!(
                    fresh.outcome.assignment(),
                    reused.outcome.assignment(),
                    "b={budget}"
                );
            }
        }
    }

    #[test]
    fn budgeted_run_cancels_and_matches_unbudgeted() {
        let inst = inst_with_costs(
            &[(9, 4), (7, 2), (6, 5), (5, 1), (4, 3), (3, 2)],
            vec![0, 0, 0, 1, 1, 2],
            3,
        );
        let mut tiny = Ctx {
            work: WorkBudget::new(1),
            ..Ctx::default()
        };
        let err = rebalance_in(&inst, 6, &mut tiny).unwrap_err();
        assert!(matches!(err, Error::Cancelled { .. }));

        let mut ample = Ctx {
            work: WorkBudget::new(1_000_000),
            ..Ctx::default()
        };
        let budgeted = rebalance_in(&inst, 6, &mut ample).unwrap();
        let plain = rebalance(&inst, 6).unwrap();
        assert_eq!(budgeted.outcome.assignment(), plain.outcome.assignment());
    }

    /// `n` jobs with sizes 1–1000 and costs 1–10 on `n/8` processors, skewed
    /// towards the low processors (the farms of `tests/warm_alloc.rs`).
    fn farm(n: usize, seed: u64) -> Instance {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let m = n / 8;
        let jobs: Vec<Job> = (0..n)
            .map(|_| Job::with_cost(rng.gen_range(1..=1000), rng.gen_range(1..=10)))
            .collect();
        let initial = (0..n)
            .map(|_| {
                let u = rng.gen_range(0..m);
                u * u / m
            })
            .collect();
        Instance::new(jobs, initial, m).unwrap()
    }

    #[test]
    fn knapsack_work_matches_the_recorded_counts() {
        // `(n, guesses, bb_nodes, bb_fallbacks)` summed over seeds 0–2 and
        // budgets of half, a quarter and an eighth of the total cost. Any
        // change to the search or the knapsack that does more work fails
        // here; one that does less re-records the counts it earns.
        const PINNED: [(usize, u64, u64, u64); 2] =
            [(1_000, 143, 355_568, 0), (4_000, 152, 1_491_795, 0)];
        for (n, guesses, nodes, fallbacks) in PINNED {
            let rec = lrb_obs::AtomicRecorder::new();
            let mut ctx = Ctx::new(&rec);
            for seed in 0..3 {
                let inst = farm(n, seed);
                for div in [2, 4, 8] {
                    rebalance_in(&inst, inst.total_cost() / div, &mut ctx).unwrap();
                }
            }
            let snap = rec.snapshot();
            let count = |name| snap.counter(name).unwrap_or(0);
            assert_eq!(
                (
                    count(names::COST_PARTITION_GUESSES),
                    count(names::KNAPSACK_BB_NODES),
                    count(names::KNAPSACK_BB_FALLBACKS),
                ),
                (guesses, nodes, fallbacks),
                "n={n}: (guesses, bb_nodes, bb_fallbacks)"
            );
        }
    }
}
