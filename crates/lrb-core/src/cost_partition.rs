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
//! A guess only asks whether the plan cost fits `B`, and it is answered
//! from brackets rather than from exact knapsacks:
//!
//! * one greedy walk of a processor's ratio-ordered small jobs brackets
//!   each of its two knapsacks between its greedy fill and its Dantzig
//!   bound, and the value the search returns lies in that bracket whether
//!   or not it proves optimality (see [`crate::knapsack`]);
//! * the planned cost, `Σ_p b_p` plus the `L_T` least `a_p − b_p`, is the
//!   minimum over `L_T`-sets `T` of `Σ_T a_p + Σ_rest b_p`, so it never
//!   rises when a keep value rises: the plan with every keep value at its
//!   bracket's low end bounds it from above, and the plan at the high ends
//!   bounds it from below;
//! * while those two bounds straddle `B`, exact knapsacks run on the widest
//!   open brackets. A keep value that moves by `δ` moves the planned cost
//!   by at most `δ`, so each bound is recomputed only once the knapsacks
//!   solved since could have carried it across `B`.
//!
//! Every decision is therefore the one the exact plan cost gives, and the
//! guesses, the planned cost and the assignment are those of a search that
//! solves every knapsack. With no large job (`L_T = 0`) no processor takes
//! the `⌊A/2⌋` plan, so those knapsacks never run, and the final build's
//! kept-set knapsacks give the plan cost as well. When the total cost
//! exceeds `i64::MAX`, the ranking's `i64` arithmetic is not monotone, so
//! each guess there solves every open bracket and decides on the exact
//! plan cost.
//!
//! The knapsack solver may fall back to a best-effort solution on
//! pathological inputs; that only ever *over*-estimates removal costs, so a
//! returned plan never violates the budget — it can only make the chosen
//! makespan guess slightly conservative (the paper's `ε`).

use std::cmp::Reverse;

use lrb_obs::{names, NoopTracer, Tracer};

use crate::ctx::Ctx;
use crate::deadline::WorkBudget;
use crate::error::{Error, Result};
use crate::knapsack::{keep_bracket, keep_sorted, ratio_cmp, Item, DEFAULT_NODE_BUDGET};
use crate::model::{Cost, Instance, JobId, ProcId, Size};
use crate::outcome::RebalanceOutcome;
use crate::partition;
use crate::scratch::PartitionScratch;

/// Bounds `lo ≤ v ≤ hi` on the value `v` one keep-knapsack returns; a point
/// once the knapsack has run.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Keep {
    lo: Cost,
    hi: Cost,
}

impl Keep {
    fn point(v: Cost) -> Self {
        Keep { lo: v, hi: v }
    }

    fn width(self) -> Cost {
        self.hi.saturating_sub(self.lo)
    }
}

/// One processor's removal costs at one makespan guess, as brackets on the
/// values of its two keep-knapsacks.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ProcPlan {
    /// Total cost of the small jobs.
    small_cost: Cost,
    /// Total cost of the large jobs, all of which the Step 4 variant sheds.
    large_cost: Cost,
    /// The costliest large job (the higher job id on ties), which the
    /// Step 1+3 variant keeps.
    kept_large: Option<JobId>,
    /// Cost of the large jobs the Step 1+3 variant sheds.
    shed_large: Cost,
    /// The most small-job cost keepable within `⌊A/2⌋` (Step 1+3 variant);
    /// a zero point when no job is large, since then no processor takes
    /// that variant.
    half: Keep,
    /// The most small-job cost keepable within `A` (Step 4 variant).
    full: Keep,
}

impl ProcPlan {
    /// The bracket of the knapsack at cap `⌊A/2⌋` (`full` false) or `A`.
    fn keep(&mut self, full: bool) -> &mut Keep {
        if full {
            &mut self.full
        } else {
            &mut self.half
        }
    }

    /// Removal cost of the Step 1+3 variant with small-job keep value `keep`.
    fn a_cost(&self, keep: Cost) -> Cost {
        self.small_cost
            .saturating_sub(keep)
            .saturating_add(self.shed_large)
    }

    /// Removal cost of the Step 4 variant with small-job keep value `keep`.
    fn b_cost(&self, keep: Cost) -> Cost {
        self.small_cost
            .saturating_sub(keep)
            .saturating_add(self.large_cost)
    }

    /// What taking the Step 1+3 variant adds, `c = a_cost − b_cost`, with
    /// every keep value read by `keep`.
    fn c(&self, keep: fn(Keep) -> Cost) -> i64 {
        self.a_cost(keep(self.half)) as i64 - self.b_cost(keep(self.full)) as i64
    }
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
    bracket_plans(inst, a, &mut s).map(|l_t| {
        resolve_all(a, &NoopTracer, &mut s);
        select(&mut s, l_t, |k| k.lo)
    })
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
/// `n` work ticks are charged per binary-search guess (each guess runs up
/// to two knapsacks per processor) plus `n` for the final build. The
/// observer counts binary-search guesses (`cost_partition.guesses`), times
/// the guess search (`cost_partition.search`) and the final build
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
    // Every plan cost is at most the total cost, so when that fits in an
    // `i64`, `select` computes its minimum exactly.
    let exact_sums = i64::try_from(inst.total_cost()).is_ok();
    let lo0 = inst.avg_load_ceil().min(inst.initial_makespan());
    let hi0 = inst.initial_makespan();
    let (mut lo, mut hi) = (lo0, hi0);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        rec.incr(names::COST_PARTITION_GUESSES, 1);
        work.charge("cost_partition.guess", inst.num_jobs() as u64)?;
        if fits(inst, mid, b, exact_sums, rec, s) {
            hi = mid;
        } else {
            lo = mid + 1;
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

/// Group every positive-size job by processor into `s.by_ratio`, as its
/// knapsack item and id, each group in the knapsack's ratio order with the
/// lower job id first on ties.
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
    s.by_ratio.resize(end, (Item { size: 0, cost: 0 }, 0));
    for (j, &p) in inst.initial().iter().enumerate().rev() {
        let (size, cost) = (inst.size(j), inst.cost(j));
        if size > 0 {
            starts[p] -= 1;
            s.by_ratio[starts[p]] = (Item { size, cost }, j);
        }
    }
    // The ids break ties, so every group's order is total.
    for p in 0..m {
        let range = group(s, p);
        s.by_ratio[range].sort_unstable_by(|x, y| ratio_cmp(x.0, y.0).then(x.1.cmp(&y.1)));
    }
}

/// Processor `p`'s ratio-ordered group in `s.by_ratio`.
fn group(s: &PartitionScratch, p: usize) -> std::ops::Range<usize> {
    s.group_start[p]..s.group_start[p + 1]
}

/// Processor `p`'s small jobs in `s.items`, as `bracket_plans` left them.
fn small_items(s: &PartitionScratch, p: usize) -> std::ops::Range<usize> {
    s.item_start[p]..s.item_start[p + 1]
}

/// Fill `s.plans` with every processor's plan at guess `a`, each knapsack
/// value bracketed from one greedy walk of its items, and `s.items` with
/// every processor's small jobs in ratio order; return `L_T`. `None`, with
/// no plan built, if `L_T > m`.
fn bracket_plans(inst: &Instance, a: Size, s: &mut PartitionScratch) -> Option<usize> {
    let m = inst.num_procs();
    let l_t = inst.jobs().iter().filter(|j| is_large(j.size, a)).count();
    if l_t > m {
        return None;
    }
    s.plans.clear();
    s.items.clear();
    s.item_start.clear();
    for p in 0..m {
        let from = s.items.len();
        s.item_start.push(from);
        let (mut small_cost, mut large_cost): (Cost, Cost) = (0, 0);
        // The costliest large job, the higher job id on ties.
        let mut kept_large: Option<(Cost, JobId)> = None;
        for &(it, j) in &s.by_ratio[group(s, p)] {
            if is_large(it.size, a) {
                large_cost = large_cost.saturating_add(it.cost);
                if kept_large.is_none_or(|k| (it.cost, j) > k) {
                    kept_large = Some((it.cost, j));
                }
            } else {
                small_cost = small_cost.saturating_add(it.cost);
                s.items.push(it);
            }
        }
        let items = &s.items[from..];
        let bracket = |cap| {
            let (lo, hi) = keep_bracket(items, cap, DEFAULT_NODE_BUDGET);
            Keep { lo, hi }
        };
        let kept_large_cost = kept_large.map_or(0, |(cost, _)| cost);
        s.plans.push(ProcPlan {
            small_cost,
            large_cost,
            kept_large: kept_large.map(|(_, j)| j),
            shed_large: large_cost.saturating_sub(kept_large_cost),
            half: if l_t > 0 {
                bracket(a / 2)
            } else {
                Keep::default()
            },
            full: bracket(a),
        });
    }
    s.item_start.push(s.items.len());
    Some(l_t)
}

/// Close the bracket of processor `p`'s knapsack at cap `⌊a/2⌋` (`full`
/// false) or `a` (`full` true) by running it without its kept set; return
/// the bracket it closed and the value it found.
fn resolve<R: Tracer>(
    s: &mut PartitionScratch,
    p: ProcId,
    full: bool,
    a: Size,
    rec: &R,
) -> (Keep, Cost) {
    let cap = if full { a } else { a / 2 };
    let items = &s.items[small_items(s, p)];
    let (v, _) = keep_sorted(items, cap, DEFAULT_NODE_BUDGET, false, &mut s.keep, rec);
    (std::mem::replace(s.plans[p].keep(full), Keep::point(v)), v)
}

/// Close every open bracket of `s.plans`, turning each plan into the exact
/// one. A point bracket needs no knapsack: its value is known.
fn resolve_all<R: Tracer>(a: Size, rec: &R, s: &mut PartitionScratch) {
    for p in 0..s.plans.len() {
        for full in [false, true] {
            if s.plans[p].keep(full).width() > 0 {
                resolve(s, p, full, a, rec);
            }
        }
    }
}

/// Whether the plan at guess `a` fits the budget `b`, that is,
/// `planned_cost(inst, a).is_some_and(|c| c <= b)`, running only the
/// knapsacks whose values could change the answer.
///
/// With `exact_sums`, the planned cost is the minimum over `L_T`-sets `T` of
/// `Σ_T a_p + Σ_rest b_p`, so it falls as any keep value rises: the plan
/// with every keep at its bracket's low end costs the most the exact plan
/// can (`most`), and the one with every keep at its high end the least
/// (`least`). While these two straddle `b`, the widest open bracket is
/// solved next. A keep value that moves by `δ` moves the planned cost by at
/// most `δ`, so solving a knapsack lowers `most` by at most what its value
/// gains over its low end and raises `least` by at most what it loses
/// against its high end; each end is recomputed only once these add up to
/// its distance from a decision. Without `exact_sums`, `select`'s arithmetic
/// is not monotone, so every bracket is closed first.
fn fits<R: Tracer>(
    inst: &Instance,
    a: Size,
    b: Cost,
    exact_sums: bool,
    rec: &R,
    s: &mut PartitionScratch,
) -> bool {
    let Some(l_t) = bracket_plans(inst, a, s) else {
        return false;
    };
    if !exact_sums {
        resolve_all(a, rec, s);
        return select(s, l_t, |k| k.lo) <= b;
    }
    let mut most = select(s, l_t, |k| k.lo);
    if most <= b {
        return true;
    }
    let mut least = select(s, l_t, |k| k.hi);
    if least > b {
        return false;
    }
    s.open.clear();
    for (p, plan) in s.plans.iter().enumerate() {
        for (full, keep) in [(false, plan.half), (true, plan.full)] {
            if keep.width() > 0 {
                s.open.push((Reverse(keep.width()), p, full));
            }
        }
    }
    s.open.sort_unstable();
    let (mut fall, mut rise): (Cost, Cost) = (0, 0);
    for next in 0..s.open.len() {
        let (_, p, full) = s.open[next];
        let (was, v) = resolve(s, p, full, a, rec);
        fall = fall.saturating_add(v.saturating_sub(was.lo));
        rise = rise.saturating_add(was.hi.saturating_sub(v));
        if fall >= most.saturating_sub(b) {
            most = select(s, l_t, |k| k.lo);
            if most <= b {
                return true;
            }
            fall = 0;
        }
        if rise > b.saturating_sub(least) {
            least = select(s, l_t, |k| k.hi);
            if least > b {
                return false;
            }
            rise = 0;
        }
    }
    // Every bracket is closed, so the two ends agree and one of them has
    // decided above; the exact plan decides just the same.
    select(s, l_t, |k| k.lo) <= b
}

/// The planned cost of `s.plans` with every keep value read by `keep`:
/// give the `l_t` processors of least `c = a_cost − b_cost` the `a`-plan
/// and the rest the `b`-plan, adding up those `c`s in ascending order.
fn select(s: &mut PartitionScratch, l_t: usize, keep: fn(Keep) -> Cost) -> Cost {
    let base = s
        .plans
        .iter()
        .fold(0u64, |acc, p| acc.saturating_add(p.b_cost(keep(p.full))));
    if l_t == 0 {
        return base;
    }
    let cs = &mut s.probe_cs;
    cs.clear();
    cs.extend(s.plans.iter().map(|plan| plan.c(keep)));
    let extra: i64 = least(cs, l_t).iter().sum();
    base.saturating_add_signed(extra)
}

/// Mark in `s.is_selected` the `l_t` processors that `select` gives the
/// `a`-plan, preferring processors with large jobs on ties of `c` (the
/// paper's rule). Every bracket of `s.plans` must be closed.
fn choose(s: &mut PartitionScratch, l_t: usize) {
    s.cs.clear();
    s.cs.extend(
        s.plans
            .iter()
            .enumerate()
            .map(|(p, plan)| (plan.c(|k| k.lo), plan.kept_large.is_none(), p)),
    );
    for &(_, _, p) in least(&mut s.cs, l_t).iter() {
        s.is_selected[p] = true;
    }
}

/// The `l` least entries of `v` (all of them if `l` is larger), in
/// ascending order; partitioning first sorts only those.
fn least<T: Ord>(v: &mut [T], l: usize) -> &mut [T] {
    let l = l.min(v.len());
    if l < v.len() {
        v.select_nth_unstable(l);
    }
    let chosen = &mut v[..l];
    chosen.sort_unstable();
    chosen
}

/// Build the assignment at guess `a` from the ratio order in `s`.
fn build_at<R: Tracer>(
    inst: &Instance,
    a: Size,
    rec: &R,
    s: &mut PartitionScratch,
) -> Result<CostPartitionRun> {
    let Some(l_t) = bracket_plans(inst, a, s) else {
        return Err(Error::InfeasibleGuess {
            guess: a,
            reason: "more large jobs than processors",
        });
    };
    let m = inst.num_procs();
    s.reset(m);
    // With no large job no processor takes the `a`-plan, and the plan cost
    // is the sum of the `b`-plans, read off the knapsacks that also give
    // the kept sets below.
    let mut planned_cost = 0;
    if l_t > 0 {
        resolve_all(a, rec, s);
        planned_cost = select(s, l_t, |k| k.lo);
        choose(s, l_t);
    }

    let mut assignment = inst.initial().clone();
    s.loads.clear();
    s.loads.extend_from_slice(inst.initial_loads());

    // Recover the kept set of each processor's chosen plan only. Removed
    // jobs are queued per processor in job-id order, which fixes the order
    // of the equal-size jobs in the stable sorts below.
    for p in 0..m {
        let selected = s.is_selected[p];
        let plan = s.plans[p];
        let cap = if selected { a / 2 } else { a };
        let items = &s.items[small_items(s, p)];
        let (keep, _) = keep_sorted(items, cap, DEFAULT_NODE_BUDGET, true, &mut s.keep, rec);
        if l_t == 0 {
            planned_cost = planned_cost.saturating_add(plan.b_cost(keep));
        }
        s.keeps_large[p] = selected && plan.kept_large.is_some();

        let (small_from, large_from) = (s.removed_small.len(), s.homeless_large.len());
        let mut kept = s.keep.best.iter().copied().peekable();
        let mut pos = 0;
        for &(it, j) in &s.by_ratio[group(s, p)] {
            if is_large(it.size, a) {
                if !(selected && plan.kept_large == Some(j)) {
                    s.homeless_large.push(j);
                    s.loads[p] -= it.size;
                }
                continue;
            }
            if kept.peek() == Some(&pos) {
                kept.next();
            } else {
                s.removed_small.push(j);
                s.loads[p] -= it.size;
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
    use crate::knapsack::KeepScratch;
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

    /// Up to 40 jobs on up to 6 processors, with zero sizes, jobs large at
    /// most guesses and zero costs; other costs reach `i64::MAX / 64`, so the
    /// total cost stays within `i64`.
    fn mixed(seed: u64) -> Instance {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let (n, m) = (rng.gen_range(1..=40), rng.gen_range(1..=6));
        let cost_cap = [10, 1_000, i64::MAX as u64 / 64][rng.gen_range(0..3usize)];
        let jobs: Vec<Job> = (0..n)
            .map(|_| {
                let size = match rng.gen_range(0..8) {
                    0 => 0,
                    1 => rng.gen_range(200..=1_000),
                    _ => rng.gen_range(1..=100),
                };
                let cost = match rng.gen_range(0..5) {
                    0 => 0,
                    _ => rng.gen_range(1..=cost_cap),
                };
                Job::with_cost(size, cost)
            })
            .collect();
        let initial = (0..n).map(|_| rng.gen_range(0..m)).collect();
        Instance::new(jobs, initial, m).unwrap()
    }

    #[test]
    fn bracketed_guesses_decide_as_the_exact_plan_costs() {
        let mut s = PartitionScratch::default();
        let mut keep = KeepScratch::default();
        let mut large_guesses = 0;
        for seed in 0..600 {
            let inst = mixed(seed);
            order_by_ratio(&inst, &mut s);
            let hi = inst.initial_makespan();
            let lo = inst.avg_load_ceil().min(hi);
            let stride = ((hi - lo) / 40).max(1) as usize;
            for a in (lo..=hi).step_by(stride) {
                let exact = planned_cost(&inst, a);
                let c = exact.unwrap_or(0);
                for b in [c.saturating_sub(1), c, 0, u64::MAX] {
                    let want = exact.is_some_and(|c| c <= b);
                    for sums in [true, false] {
                        let got = fits(&inst, a, b, sums, &NoopTracer, &mut s);
                        assert_eq!(got, want, "seed {seed}, a {a}, b {b}, exact sums {sums}");
                    }
                }
                // Each knapsack's answer lies in its bracket even when its
                // node budget only just covers its first path, so that it
                // may stop before proving its answer optimal.
                let Some(l_t) = bracket_plans(&inst, a, &mut s) else {
                    continue;
                };
                large_guesses += usize::from(l_t > 0);
                for p in 0..inst.num_procs() {
                    let items = &s.items[small_items(&s, p)];
                    let budget = items.len() as u64 + 1;
                    for cap in [a / 2, a] {
                        let (lo, hi) = keep_bracket(items, cap, budget);
                        let (v, _) = keep_sorted(items, cap, budget, false, &mut keep, &NoopTracer);
                        assert!(
                            (lo..=hi).contains(&v),
                            "seed {seed}, a {a}, p {p}, cap {cap}: {v} not in [{lo}, {hi}]"
                        );
                    }
                }
            }
        }
        assert!(
            large_guesses > 1_000,
            "{large_guesses} guesses with L_T > 0"
        );
    }

    /// `n` jobs with costs 1–10 on `n/8` processors, skewed towards the low
    /// processors (the farms of `tests/warm_alloc.rs`). Sizes are uniform in
    /// 1–1000, or with `pareto` heavy-tailed: Pareto with scale 10 and shape
    /// 1.5, capped at 10,000 (the law lrb-instances draws).
    fn farm(n: usize, seed: u64, pareto: bool) -> Instance {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let m = n / 8;
        let jobs: Vec<Job> = (0..n)
            .map(|_| {
                let size = if pareto {
                    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                    ((10.0 * u.powf(-1.0 / 1.5)).round() as u64).clamp(10, 10_000)
                } else {
                    rng.gen_range(1..=1000)
                };
                Job::with_cost(size, rng.gen_range(1..=10))
            })
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
        // `(n, pareto, guesses, bb_nodes, bb_fallbacks)` summed over seeds
        // 0–2 and budgets of half, a quarter and an eighth of the total
        // cost. Any change to the search or the knapsack that does more work
        // fails here; one that does less re-records the counts it earns.
        // Uniform sizes leave every job small at every guess (`L_T = 0`);
        // the Pareto rows end every solve with large jobs (`L_T > 0`).
        const PINNED: [(usize, bool, u64, u64, u64); 4] = [
            (1_000, false, 143, 19_739, 0),
            (4_000, false, 152, 96_754, 0),
            (1_000, true, 106, 34_128, 0),
            (4_000, true, 114, 139_817, 0),
        ];
        for (n, pareto, guesses, nodes, fallbacks) in PINNED {
            let rec = lrb_obs::AtomicRecorder::new();
            let mut ctx = Ctx::new(&rec);
            for seed in 0..3 {
                let inst = farm(n, seed, pareto);
                for div in [2, 4, 8] {
                    let run = rebalance_in(&inst, inst.total_cost() / div, &mut ctx).unwrap();
                    assert_eq!(run.l_t > 0, pareto, "n={n} seed={seed} div={div}");
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
                "n={n} pareto={pareto}: (guesses, bb_nodes, bb_fallbacks)"
            );
        }
    }
}
