//! 0/1 knapsack used by the arbitrary-cost PARTITION variant (§3.2).
//!
//! The cost variant needs, per processor, the *cheapest set of jobs to
//! remove* so that the remaining jobs fit in a size cap — equivalently, the
//! set of jobs to **keep** with total size ≤ cap and maximum total
//! relocation cost. This module solves that keep-problem.
//!
//! The solver is depth-first branch-and-bound over ratio-sorted items. It
//! prunes with the integral Dantzig bound (greedy fill plus the *floor* of
//! the fractional item, which no integer-cost kept set can beat), and a
//! branch that skips an item also skips the identical items right behind
//! it. Both rules cut only branches holding no strictly better kept set,
//! so the search meets the same improvements in the same order as a plain
//! one, and returns the same kept set whenever the plain one finishes
//! within the node budget. A hot processor of a skewed farm holds hundreds
//! of jobs (about 600 at n = 4,000 on 500 servers), and the search solves
//! those exactly well within the default node budget (a unit test checks
//! one such processor against a dynamic program). The node budget still
//! guards against pathological inputs, falling back to the best solution
//! found (which *under*-estimates the keepable cost and therefore
//! *over*-estimates removal costs — always safe for budget checks, see the
//! discussion in `cost_partition`); each fallback is counted as
//! `knapsack.bb_fallbacks`.
//!
//! A node's bound resumes from its parent's greedy fill instead of walking
//! the items again (the Horowitz–Sahni and Martello–Toth bookkeeping). A
//! child that takes an item has its parent's fill without that item; a
//! child that skips an item gives back the room of the skipped copies the
//! fill took and resumes at the parent's break item. Only a skipping child
//! walks, and only over the items that newly fit. The fill's cost is kept
//! exact in `u128` and clamped only in the bound, so every bound, and with
//! it every node count, equals that of a walk from scratch.
//!
//! The same walk at the root brackets the search's answer
//! (`keep_bracket`): the answer is at least the greedy fill, which the
//! first path keeps before it branches, and at most the Dantzig bound. That
//! holds whether or not the search proves optimality, as long as its node
//! budget covers the first path. cost-PARTITION settles most of its
//! binary-search guesses from these brackets alone.

use std::cmp::Ordering;

use lrb_obs::{names, NoopTracer, Tracer};

use crate::ctx::Ctx;

/// An item that may be kept: its size (capacity consumption) and the value
/// of keeping it (the relocation cost we avoid paying).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Item {
    /// Capacity the item consumes if kept.
    pub size: u64,
    /// Value of keeping the item.
    pub cost: u64,
}

/// Result of a keep-knapsack computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeepSolution {
    /// Total cost of the kept items.
    pub kept_cost: u64,
    /// Indices (into the input slice) of the kept items.
    pub kept: Vec<usize>,
    /// True if the solver proved optimality (node budget not exhausted).
    pub exact: bool,
}

/// Default node budget for [`max_cost_keep`].
pub const DEFAULT_NODE_BUDGET: u64 = 2_000_000;

/// Choose a subset of `items` with total size at most `cap` maximizing the
/// total cost, exactly (up to the node budget).
pub fn max_cost_keep(items: &[Item], cap: u64) -> KeepSolution {
    max_cost_keep_bounded(items, cap, DEFAULT_NODE_BUDGET)
}

/// [`max_cost_keep`] with an explicit node budget.
pub fn max_cost_keep_bounded(items: &[Item], cap: u64, node_budget: u64) -> KeepSolution {
    keep_bounded(items, cap, node_budget, &NoopTracer)
}

/// [`max_cost_keep`] in `ctx`. The branch-and-bound node budget is clamped
/// to the remaining work, and if the clamped search could not prove
/// optimality the consumed nodes are charged — cancelling with
/// [`crate::error::Error::Cancelled`] when the work budget (rather than the
/// default node budget) was the binding constraint. The observer counts
/// branch-and-bound nodes expanded (`knapsack.bb_nodes`) and searches that
/// hit the node budget (`knapsack.bb_fallbacks`), and times the search
/// (`knapsack.branch_and_bound`).
pub fn max_cost_keep_in<R: Tracer>(
    items: &[Item],
    cap: u64,
    ctx: &mut Ctx<'_, R>,
) -> crate::error::Result<KeepSolution> {
    let work = &ctx.work;
    work.charge("knapsack.setup", items.len() as u64)?;
    let node_budget = DEFAULT_NODE_BUDGET.min(work.remaining().max(1));
    let sol = keep_bounded(items, cap, node_budget, ctx.rec);
    if !sol.exact {
        // The search walked (roughly) its whole node budget before falling
        // back; charging it either records the expense or cancels the run.
        work.charge(names::KNAPSACK_BB, node_budget)?;
    }
    Ok(sol)
}

fn keep_bounded<R: Tracer>(items: &[Item], cap: u64, node_budget: u64, rec: &R) -> KeepSolution {
    // Zero-size items are always kept; oversized items never can be.
    let mut forced: Vec<usize> = Vec::new();
    let mut forced_cost = 0u64;
    let mut order: Vec<usize> = Vec::new();
    for (i, it) in items.iter().enumerate() {
        if it.size == 0 {
            forced.push(i);
            forced_cost += it.cost;
        } else if it.size <= cap {
            order.push(i);
        }
    }
    order.sort_by(|&a, &b| ratio_cmp(items[a], items[b]).then(a.cmp(&b)));

    let sorted: Vec<Item> = order.iter().map(|&i| items[i]).collect();
    let mut scratch = KeepScratch::default();
    let (best_cost, exact) = keep_sorted(&sorted, cap, node_budget, true, &mut scratch, rec);

    let mut kept = forced;
    kept.extend(scratch.best.iter().map(|&i| order[i]));
    kept.sort_unstable();
    KeepSolution {
        kept_cost: forced_cost.saturating_add(best_cost),
        kept,
        exact,
    }
}

/// The branch-and-bound's item order: cost/size descending, compared
/// exactly by cross-multiplication. Callers break ties by index.
pub(crate) fn ratio_cmp(a: Item, b: Item) -> Ordering {
    (b.cost as u128 * a.size as u128).cmp(&(a.cost as u128 * b.size as u128))
}

/// Reusable buffers of [`keep_sorted`].
#[derive(Debug, Default)]
pub(crate) struct KeepScratch {
    /// Positions on the current search path.
    current: Vec<usize>,
    /// Ascending positions of the best kept set, when the caller asks for it.
    pub(crate) best: Vec<usize>,
}

/// The cost of keeping every item of `sorted`, when their total size fits in
/// `cap` (both sums saturating, as the search adds them).
fn keep_all(sorted: &[Item], cap: u64) -> Option<u64> {
    let total_size = sorted
        .iter()
        .fold(0u64, |acc, it| acc.saturating_add(it.size));
    (total_size <= cap).then(|| {
        sorted
            .iter()
            .fold(0u64, |acc, it| acc.saturating_add(it.cost))
    })
}

/// Bounds `(lo, hi)` on the cost [`keep_sorted`] returns for `sorted`, `cap`
/// and `node_budget`, from one walk of the items. `hi` is the Dantzig bound
/// at the root: the greedy fill (the items taken in order until the first
/// that does not fit) plus the floor of that item's fractional share, which
/// no integer-cost kept set beats. `lo` is the fill, which the search's
/// first path keeps before it branches, within one node per item it
/// passes; a budget too short for that path leaves `lo` at 0. When
/// everything fits, both are the total cost.
pub(crate) fn keep_bracket(sorted: &[Item], cap: u64, node_budget: u64) -> (u64, u64) {
    let (mut fill, mut left) = (0u64, cap);
    for (k, it) in sorted.iter().enumerate() {
        if it.size > left {
            // Sizes past `u64::MAX` saturate in `keep_all`'s sum, which can
            // then fit a cap of `u64::MAX`.
            if let Some(all) = keep_all(sorted, cap) {
                return (all, all);
            }
            let part = u128::from(it.cost) * u128::from(left) / u128::from(it.size);
            let hi = u64::try_from(u128::from(fill).saturating_add(part)).unwrap_or(u64::MAX);
            // The first path keeps the fill at its node k, the (k + 1)-th.
            let lo = if (k as u64) < node_budget { fill } else { 0 };
            return (lo, hi);
        }
        left = left.saturating_sub(it.size);
        fill = fill.saturating_add(it.cost);
    }
    (fill, fill)
}

/// The most cost keepable from `sorted` within `cap`, and whether the
/// search proved it optimal within `node_budget`. `sorted` must be in
/// [`ratio_cmp`] order with every size in `1..=cap`. With `want_set`,
/// `scratch.best` ends holding the positions of a kept set of that cost.
pub(crate) fn keep_sorted<R: Tracer>(
    sorted: &[Item],
    cap: u64,
    node_budget: u64,
    want_set: bool,
    scratch: &mut KeepScratch,
    rec: &R,
) -> (u64, bool) {
    debug_assert!(sorted.iter().all(|it| (1..=cap).contains(&it.size)));
    debug_assert!(sorted.windows(2).all(|w| ratio_cmp(w[0], w[1]).is_le()));
    scratch.best.clear();
    if let Some(all) = keep_all(sorted, cap) {
        // Everything fits: the search would keep every item on its first
        // path and prune every other branch.
        if want_set {
            scratch.best.extend(0..sorted.len());
        }
        return (all, true);
    }
    let _t = rec.span(names::KNAPSACK_BB);
    scratch.current.clear();
    let mut search = Search {
        items: sorted,
        best_cost: 0,
        nodes_left: node_budget,
        exact: true,
        want_set,
        scratch,
    };
    let root = Fill {
        cost: 0,
        end: 0,
        left: cap,
    };
    search.dfs(0, cap, 0, root);
    rec.incr(
        names::KNAPSACK_BB_NODES,
        node_budget.saturating_sub(search.nodes_left),
    );
    if !search.exact {
        rec.incr(names::KNAPSACK_BB_FALLBACKS, 1);
    }
    (search.best_cost, search.exact)
}

struct Search<'a> {
    items: &'a [Item],
    best_cost: u64,
    nodes_left: u64,
    exact: bool,
    want_set: bool,
    scratch: &'a mut KeepScratch,
}

/// A node's greedy fill: from the node's item on, the items taken in order
/// up to `end`, the first that does not fit in the room `left` they leave.
/// Its cost is exact, so a child can take an item's cost back out of it;
/// only the bound built from it is clamped to `u64`.
#[derive(Debug, Clone, Copy)]
struct Fill {
    cost: u128,
    end: usize,
    left: u64,
}

impl Search<'_> {
    /// Upper bound on the cost attainable from the node of `fill` onward:
    /// the greedy fill plus the floor of the fractional break item, clamped
    /// to `u64`. Costs are integers, so no kept set beats the floor of the
    /// LP bound. First extends `fill` by the items from `fill.end` that fit
    /// in its room, which a child's fill may have newly gained.
    fn fractional_bound(&self, fill: &mut Fill) -> u64 {
        let mut part = 0u128;
        while let Some(&it) = self.items.get(fill.end) {
            if it.size > fill.left {
                part = u128::from(it.cost) * u128::from(fill.left) / u128::from(it.size);
                break;
            }
            fill.left = fill.left.saturating_sub(it.size);
            fill.cost = fill.cost.saturating_add(u128::from(it.cost));
            fill.end = fill.end.saturating_add(1);
        }
        u64::try_from(fill.cost.saturating_add(part)).unwrap_or(u64::MAX)
    }

    fn dfs(&mut self, i: usize, cap: u64, cost: u64, mut fill: Fill) {
        if self.nodes_left == 0 {
            self.exact = false;
            return;
        }
        self.nodes_left -= 1;

        if cost > self.best_cost {
            self.best_cost = cost;
            if self.want_set {
                let s = &mut *self.scratch;
                s.best.clone_from(&s.current);
            }
        }
        if i == self.items.len() {
            return;
        }
        if cost.saturating_add(self.fractional_bound(&mut fill)) <= self.best_cost {
            return; // cannot improve
        }
        // Branch: take item i (if it fits), then skip it.
        let it = self.items[i];
        if it.size <= cap {
            // Item i fits, so it heads the fill: the child's fill is the
            // same without it, with the same break item and room.
            let rest = Fill {
                cost: fill.cost.saturating_sub(u128::from(it.cost)),
                ..fill
            };
            self.scratch.current.push(i);
            self.dfs(
                i.saturating_add(1),
                cap.saturating_sub(it.size),
                cost.saturating_add(it.cost),
                rest,
            );
            self.scratch.current.pop();
        }
        // Skipping item i skips the copies of it right behind it too: a set
        // that takes a copy but not item i has an equal twin that takes
        // item i instead, and the branch above has already met that one.
        let mut next = i.saturating_add(1);
        while self.items.get(next) == Some(&it) {
            next += 1;
        }
        // The child's fill gives back the cost and room of the skipped
        // copies this fill took, and resumes at its break item (or past
        // the copies), where only the items that newly fit are walked.
        let taken = fill.end.min(next).saturating_sub(i) as u64;
        let rest = Fill {
            cost: fill
                .cost
                .saturating_sub(u128::from(it.cost) * u128::from(taken)),
            end: fill.end.max(next),
            left: fill.left.saturating_add(it.size.saturating_mul(taken)),
        };
        self.dfs(next, cap, cost, rest);
    }
}

/// The knapsack **FPTAS** the paper suggests for unbounded relocation costs
/// (§3.2: "Otherwise, one can use a PTAS in the place of the knapsack
/// routine"): classic cost-scaling dynamic programming, returning a keep
/// set of cost at least `(1 − ε)` times optimal in time
/// `O(n²·⌈n/ε⌉)`-ish, independent of the magnitude of the costs.
///
/// Costs are scaled by `K = ε·max_cost/n`, then an exact DP over scaled
/// cost values finds the minimum-size subset achieving each scaled total.
pub fn max_cost_keep_fptas(items: &[Item], cap: u64, eps: f64) -> KeepSolution {
    max_cost_keep_fptas_in(items, cap, eps, &mut Ctx::default())
}

/// [`max_cost_keep_fptas`] in `ctx`: the observer counts DP cells relaxed
/// (`knapsack.dp_cells` — one per (item, scaled-cost) pair visited) and
/// times the table fill (`knapsack.fptas_dp`). The FPTAS charges no work
/// ticks and keeps no buffers in the scratch.
pub fn max_cost_keep_fptas_in<R: Tracer>(
    items: &[Item],
    cap: u64,
    eps: f64,
    ctx: &mut Ctx<'_, R>,
) -> KeepSolution {
    let rec = ctx.rec;
    assert!(eps > 0.0 && eps < 1.0, "epsilon must be in (0, 1)");
    let feasible: Vec<usize> = (0..items.len()).filter(|&i| items[i].size <= cap).collect();
    let max_cost = feasible.iter().map(|&i| items[i].cost).max().unwrap_or(0);
    if max_cost == 0 || feasible.is_empty() {
        // Only zero-cost (or no) items: keep all zero-size ones for parity
        // with the exact solver's forced keeps.
        let kept: Vec<usize> = (0..items.len()).filter(|&i| items[i].size == 0).collect();
        let kept_cost = kept.iter().map(|&i| items[i].cost).sum();
        return KeepSolution {
            kept_cost,
            kept,
            exact: true,
        };
    }
    let n = feasible.len() as u64;
    let k = ((eps * max_cost as f64) / n as f64).max(1.0);
    let scaled: Vec<u64> = feasible
        .iter()
        .map(|&i| (items[i].cost as f64 / k) as u64)
        .collect();
    let total_scaled: usize = scaled.iter().sum::<u64>() as usize;

    // dp[v] = minimum size achieving scaled cost exactly v, with parent
    // pointers for reconstruction.
    const INF: u64 = u64::MAX;
    let dp_timer = rec.span(names::KNAPSACK_FPTAS_DP);
    let mut dp_cells = 0u64;
    let mut dp = vec![INF; total_scaled.saturating_add(1)];
    let mut choice: Vec<Vec<bool>> = Vec::with_capacity(feasible.len());
    dp[0] = 0;
    for (idx, &i) in feasible.iter().enumerate() {
        let c = scaled[idx] as usize;
        let s = items[i].size;
        let mut took = vec![false; total_scaled.saturating_add(1)];
        for v in (c..=total_scaled).rev() {
            let prev = dp[v.saturating_sub(c)];
            let cand = prev.saturating_add(s);
            if prev != INF && cand <= cap && cand < dp[v] {
                dp[v] = cand;
                took[v] = true;
            }
        }
        dp_cells += total_scaled.saturating_add(1).saturating_sub(c) as u64;
        choice.push(took);
    }
    rec.incr(names::KNAPSACK_DP_CELLS, dp_cells);
    drop(dp_timer);
    let best_v = (0..=total_scaled)
        .rev()
        .find(|&v| dp[v] != INF)
        .unwrap_or(0);

    // Reconstruct.
    let mut kept = Vec::new();
    let mut v = best_v;
    for idx in (0..feasible.len()).rev() {
        if choice[idx][v] {
            kept.push(feasible[idx]);
            v -= scaled[idx] as usize;
        }
    }
    // Zero-size items are always keepable for free.
    for (i, it) in items.iter().enumerate() {
        if it.size == 0 && !kept.contains(&i) {
            kept.push(i);
        }
    }
    kept.sort_unstable();
    let kept_cost = kept.iter().map(|&i| items[i].cost).sum();
    KeepSolution {
        kept_cost,
        kept,
        exact: false,
    }
}

/// Cheapest removal formulation: total cost of all items minus the best
/// keepable cost under `cap`. This is the `a_i`/`b_i` quantity of §3.2.
pub fn min_cost_removal(items: &[Item], cap: u64) -> (u64, Vec<usize>) {
    let total: u64 = items.iter().map(|it| it.cost).sum();
    let sol = max_cost_keep(items, cap);
    let mut removed: Vec<usize> = Vec::with_capacity(items.len().saturating_sub(sol.kept.len()));
    let mut kept_iter = sol.kept.iter().peekable();
    for i in 0..items.len() {
        if kept_iter.peek() == Some(&&i) {
            kept_iter.next();
        } else {
            removed.push(i);
        }
    }
    (total.saturating_sub(sol.kept_cost), removed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn items(v: &[(u64, u64)]) -> Vec<Item> {
        v.iter().map(|&(size, cost)| Item { size, cost }).collect()
    }

    /// Brute-force reference solver (exponential).
    fn max_cost_keep_bruteforce(items: &[Item], cap: u64) -> u64 {
        assert!(items.len() <= 24, "brute force limited to 24 items");
        let mut best = 0u64;
        for mask in 0u32..(1 << items.len()) {
            let mut size = 0u64;
            let mut cost = 0u64;
            for (i, it) in items.iter().enumerate() {
                if mask >> i & 1 == 1 {
                    size += it.size;
                    cost += it.cost;
                }
            }
            if size <= cap {
                best = best.max(cost);
            }
        }
        best
    }

    #[test]
    fn trivial_cases() {
        assert_eq!(max_cost_keep(&[], 10).kept_cost, 0);
        let its = items(&[(5, 3)]);
        assert_eq!(max_cost_keep(&its, 4).kept_cost, 0);
        assert_eq!(max_cost_keep(&its, 5).kept_cost, 3);
    }

    #[test]
    fn budgeted_matches_unbudgeted_and_cancels() {
        use crate::deadline::WorkBudget;

        let its = items(&[(6, 5), (5, 4), (4, 3), (3, 7), (2, 2)]);
        let sol = max_cost_keep_in(&its, 10, &mut Ctx::default()).unwrap();
        assert_eq!(sol, max_cost_keep(&its, 10));

        let mut tiny = Ctx {
            work: WorkBudget::new(1),
            ..Ctx::default()
        };
        let err = max_cost_keep_in(&its, 10, &mut tiny).unwrap_err();
        assert!(matches!(err, crate::error::Error::Cancelled { .. }));
    }

    #[test]
    fn picks_best_combination() {
        // cap 10: best is {6,5}-sized? sizes {6,5,4}, costs {5,4,3}:
        // {6,4} -> 8 cost, {5,4} -> 7, {6,5} -> 11 > cap. So 8.
        let its = items(&[(6, 5), (5, 4), (4, 3)]);
        assert_eq!(max_cost_keep(&its, 10).kept_cost, 8);
    }

    #[test]
    fn ratio_greedy_is_not_always_optimal_but_bb_is() {
        // Classic counterexample: greedy by ratio takes the small item and
        // misses the big one.
        let its = items(&[(1, 2), (10, 10)]);
        let sol = max_cost_keep(&its, 10);
        assert_eq!(sol.kept_cost, 10);
        assert_eq!(sol.kept, vec![1]);
        assert!(sol.exact);
    }

    #[test]
    fn zero_size_items_always_kept() {
        let its = items(&[(0, 7), (5, 1)]);
        let sol = max_cost_keep(&its, 0);
        assert_eq!(sol.kept_cost, 7);
        assert_eq!(sol.kept, vec![0]);
    }

    #[test]
    fn matches_bruteforce_on_random_instances() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        for _ in 0..200 {
            let n = rng.gen_range(0..=12);
            let its: Vec<Item> = (0..n)
                .map(|_| Item {
                    size: rng.gen_range(0..20),
                    cost: rng.gen_range(0..20),
                })
                .collect();
            let cap = rng.gen_range(0..40);
            let bb = max_cost_keep(&its, cap);
            let bf = max_cost_keep_bruteforce(&its, cap);
            assert_eq!(bb.kept_cost, bf, "items={its:?} cap={cap}");
            assert!(bb.exact);
            // The reported kept set realizes the reported cost and fits.
            let size: u64 = bb.kept.iter().map(|&i| its[i].size).sum();
            let cost: u64 = bb.kept.iter().map(|&i| its[i].cost).sum();
            assert!(size <= cap);
            assert_eq!(cost, bb.kept_cost);
        }
    }

    #[test]
    fn min_cost_removal_complements_keep() {
        let its = items(&[(6, 5), (5, 4), (4, 3)]);
        let (removal, removed) = min_cost_removal(&its, 10);
        assert_eq!(removal, 12 - 8);
        assert_eq!(removed.len(), 1);
        // Removed + kept partition the items.
        let sol = max_cost_keep(&its, 10);
        let mut all: Vec<usize> = sol.kept.iter().copied().chain(removed).collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2]);
    }

    #[test]
    fn fptas_within_epsilon_of_exact() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(97);
        for _ in 0..100 {
            let n = rng.gen_range(0..=10);
            let its: Vec<Item> = (0..n)
                .map(|_| Item {
                    size: rng.gen_range(0..15),
                    // Large costs: the regime the FPTAS exists for.
                    cost: rng.gen_range(0..1_000_000),
                })
                .collect();
            let cap = rng.gen_range(0..40);
            let exact = max_cost_keep(&its, cap).kept_cost;
            for eps in [0.5, 0.2, 0.05] {
                let approx = max_cost_keep_fptas(&its, cap, eps);
                // Valid keep set within capacity.
                let size: u64 = approx.kept.iter().map(|&i| its[i].size).sum();
                assert!(size <= cap || size == 0);
                let cost: u64 = approx.kept.iter().map(|&i| its[i].cost).sum();
                assert_eq!(cost, approx.kept_cost);
                // (1 − ε) guarantee.
                assert!(
                    approx.kept_cost as f64 >= (1.0 - eps) * exact as f64 - 1e-9,
                    "eps={eps}: {} < (1-eps)*{exact} (items {its:?}, cap {cap})",
                    approx.kept_cost
                );
            }
        }
    }

    #[test]
    fn fptas_handles_degenerate_inputs() {
        assert_eq!(max_cost_keep_fptas(&[], 10, 0.2).kept_cost, 0);
        let zero_cost = vec![Item { size: 3, cost: 0 }, Item { size: 0, cost: 0 }];
        let sol = max_cost_keep_fptas(&zero_cost, 10, 0.2);
        assert_eq!(sol.kept_cost, 0);
        // Oversized item never kept.
        let big = vec![Item {
            size: 100,
            cost: 50,
        }];
        assert_eq!(max_cost_keep_fptas(&big, 10, 0.2).kept_cost, 0);
    }

    /// Exact keep-knapsack by dynamic programming over total kept cost: the
    /// least size that reaches each cost.
    fn keep_by_cost_dp(items: &[Item], cap: u64) -> u64 {
        let total: usize = items.iter().map(|it| it.cost as usize).sum();
        let mut least = vec![u64::MAX; total + 1];
        least[0] = 0;
        for it in items {
            let c = it.cost as usize;
            for v in (c..=total).rev() {
                if least[v - c] != u64::MAX {
                    least[v] = least[v].min(least[v - c] + it.size);
                }
            }
        }
        (0..=total).rev().find(|&v| least[v] <= cap).unwrap_or(0) as u64
    }

    /// Plain depth-first branch-and-bound over ratio-sorted items, pruned
    /// only by the LP bound rounded up: the first best set it meets is the
    /// reference for the kept set.
    fn plain_keep(items: &[Item], cap: u64) -> (u64, Vec<usize>) {
        fn dfs(
            items: &[Item],
            i: usize,
            cap: u64,
            cost: u64,
            cur: &mut Vec<usize>,
            best: &mut (u64, Vec<usize>),
        ) {
            if cost > best.0 {
                *best = (cost, cur.clone());
            }
            let Some(&it) = items.get(i) else { return };
            let (mut left, mut bound) = (cap, 0);
            let mut k = i;
            while k < items.len() && items[k].size <= left {
                left -= items[k].size;
                bound += items[k].cost;
                k += 1;
            }
            if let Some(crit) = items.get(k) {
                bound += (crit.cost * left).div_ceil(crit.size);
            }
            if cost + bound <= best.0 {
                return;
            }
            if it.size <= cap {
                cur.push(i);
                dfs(items, i + 1, cap - it.size, cost + it.cost, cur, best);
                cur.pop();
            }
            dfs(items, i + 1, cap, cost, cur, best);
        }
        let mut best = (0, Vec::new());
        dfs(items, 0, cap, 0, &mut Vec::new(), &mut best);
        best
    }

    #[test]
    fn pruning_keeps_the_first_best_set() {
        use rand::{Rng, SeedableRng};
        // Few distinct items, so copies sit side by side in ratio order.
        let mut rng = rand::rngs::StdRng::seed_from_u64(14);
        let mut scratch = KeepScratch::default();
        for _ in 0..300 {
            let n = rng.gen_range(0..=16);
            let mut its: Vec<Item> = (0..n)
                .map(|_| Item {
                    size: rng.gen_range(1..=4),
                    cost: rng.gen_range(1..=3),
                })
                .collect();
            its.sort_by(|&a, &b| ratio_cmp(a, b));
            let total: u64 = its.iter().map(|it| it.size).sum();
            let cap = rng.gen_range(0..=total);
            let sorted: Vec<Item> = its.into_iter().filter(|it| it.size <= cap).collect();
            let (cost, exact) = keep_sorted(
                &sorted,
                cap,
                DEFAULT_NODE_BUDGET,
                true,
                &mut scratch,
                &NoopTracer,
            );
            assert!(exact);
            assert_eq!(
                (cost, scratch.best.clone()),
                plain_keep(&sorted, cap),
                "{sorted:?} cap {cap}"
            );
        }
    }

    #[test]
    fn hot_processor_is_solved_exactly() {
        use rand::{Rng, SeedableRng};
        // A hot processor of a benchmark-shaped farm: 600 jobs with sizes
        // in 1..=1000 and costs in 1..=10. With the LP bound rounded up,
        // the search exhausted the default node budget at this cap.
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let its: Vec<Item> = (0..600)
            .map(|_| Item {
                size: rng.gen_range(1..=1000),
                cost: rng.gen_range(1..=10),
            })
            .collect();
        assert_eq!(its.iter().map(|it| it.size).sum::<u64>(), 289_056);
        let cap = 23_124;
        let rec = lrb_obs::AtomicRecorder::default();
        let sol = max_cost_keep_in(&its, cap, &mut Ctx::new(&rec)).unwrap();
        assert!(sol.exact);
        assert_eq!(sol.kept_cost, keep_by_cost_dp(&its, cap));
        let size: u64 = sol.kept.iter().map(|&i| its[i].size).sum();
        let cost: u64 = sol.kept.iter().map(|&i| its[i].cost).sum();
        assert!(size <= cap);
        assert_eq!(cost, sol.kept_cost);
        let snap = rec.snapshot();
        assert_eq!(snap.counter(names::KNAPSACK_BB_FALLBACKS), None);
        assert_eq!(snap.counter(names::KNAPSACK_BB_NODES), Some(328));
    }

    #[test]
    fn node_budget_fallback_is_safe() {
        let its: Vec<Item> = (1..=30)
            .map(|i| Item {
                size: i,
                cost: 31 - i,
            })
            .collect();
        let sol = max_cost_keep_bounded(&its, 200, 10);
        // With a tiny budget we may not be exact, but the answer is a valid
        // keep set.
        let size: u64 = sol.kept.iter().map(|&i| its[i].size).sum();
        assert!(size <= 200);
        let exact = max_cost_keep(&its, 200);
        assert!(sol.kept_cost <= exact.kept_cost);
    }

    #[test]
    fn node_budget_fallbacks_are_counted() {
        let its: Vec<Item> = (1..=30)
            .map(|i| Item {
                size: i,
                cost: 31 - i,
            })
            .collect();
        let rec = lrb_obs::AtomicRecorder::default();
        let sol = keep_bounded(&its, 200, 10, &rec);
        assert!(!sol.exact);
        let snap = rec.snapshot();
        assert_eq!(snap.counter(names::KNAPSACK_BB_FALLBACKS), Some(1));
        assert_eq!(snap.counter(names::KNAPSACK_BB_NODES), Some(10));
    }
}
