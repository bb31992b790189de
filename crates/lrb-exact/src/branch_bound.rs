//! Exact branch-and-bound solver for the load rebalancing problem.
//!
//! Plays the role of `OPTIMAL` in the paper's analysis: every approximation
//! experiment measures its ratio against this solver on instances small
//! enough to solve exactly (roughly `n ≤ 20`, depending on structure).
//!
//! The search assigns jobs (largest first) to processors, preferring the
//! free stay-home branch, and stops as soon as the incumbent meets
//! [`lrb_core::bounds::lower_bound`], which proves it optimal. It has four
//! prunings:
//!
//! * **makespan bound** — a placement that reaches the incumbent makespan is
//!   cut;
//! * **largest-remaining bound** — the next job must land somewhere, so
//!   `min_p load_p + size_next` bounds the final makespan from below;
//! * **budget fast-path** — once the relocation budget is exhausted, all
//!   remaining jobs stay home and the leaf value is computed directly;
//! * **symmetry** — two non-home processors at equal load that are no
//!   remaining job's home are interchangeable, so only one is tried.
//!
//! The incumbent is seeded with the best of GREEDY, M-PARTITION, and the
//! cost variant, which typically prunes most of the tree immediately.
//!
//! [`crate::constrained`] runs the same search under eligibility lists: a
//! job moves only to an eligible processor, and the symmetry cut is off, as
//! eligibility can tell equal-load processors apart (a job's home is always
//! eligible, so the other prunings hold, and so does the lower bound, as
//! eligibility only shrinks the feasible set).

use lrb_core::constrained::ConstrainedInstance;
use lrb_core::model::{Budget, Instance, ProcId, Size};
use lrb_core::outcome::RebalanceOutcome;
use lrb_core::{bounds, cost_partition, greedy, mpartition};

/// An exact solution: the optimal makespan under the budget, a witnessing
/// assignment, and search diagnostics.
#[derive(Debug, Clone)]
pub struct ExactSolution {
    /// The optimal makespan.
    pub makespan: Size,
    /// A witnessing assignment achieving it within the budget.
    pub assignment: Vec<ProcId>,
    /// Nodes expanded by the search.
    pub nodes: u64,
    /// True if the search ran to completion (always, unless a node cap was
    /// given and hit).
    pub exact: bool,
}

/// Default node cap — generous; typical oracle instances use far fewer.
pub const DEFAULT_NODE_CAP: u64 = 200_000_000;

/// Solve the load rebalancing problem exactly under `budget`.
///
/// ```
/// use lrb_core::model::{Budget, Instance};
///
/// let inst = Instance::from_sizes(&[5, 4, 3], vec![0, 0, 0], 2).unwrap();
/// let sol = lrb_exact::branch_bound::solve(&inst, Budget::Moves(1));
/// assert_eq!(sol.makespan, 7); // the single best move sends the 5 across
/// assert!(sol.exact);
/// ```
pub fn solve(inst: &Instance, budget: Budget) -> ExactSolution {
    solve_capped(inst, budget, DEFAULT_NODE_CAP)
}

/// [`solve`] with an explicit node cap; if the cap is hit before the
/// incumbent is proven optimal, it is returned with `exact = false`.
pub fn solve_capped(inst: &Instance, budget: Budget, node_cap: u64) -> ExactSolution {
    // Seed the incumbent with the approximation algorithms.
    let mut best = RebalanceOutcome::unchanged(inst);
    match budget {
        Budget::Moves(k) => {
            if let Ok(g) = greedy::rebalance(inst, k) {
                best = best.better(g);
            }
            if let Ok(p) = mpartition::rebalance(inst, k) {
                best = best.better(p.outcome);
            }
        }
        Budget::Cost(b) => {
            if let Ok(c) = cost_partition::rebalance(inst, b) {
                best = best.better(c.outcome);
            }
        }
    }
    search(inst, budget, None, best, node_cap)
}

/// The search from a within-budget `incumbent`, which it replaces only by
/// a strictly better leaf; with `allowed`, only eligible moves are tried.
pub(crate) fn search(
    inst: &Instance,
    budget: Budget,
    allowed: Option<&ConstrainedInstance>,
    incumbent: RebalanceOutcome,
    node_cap: u64,
) -> ExactSolution {
    // Order jobs by descending size (big rocks first).
    let mut order: Vec<usize> = (0..inst.num_jobs()).collect();
    order.sort_by_key(|&j| std::cmp::Reverse(inst.size(j)));

    // Suffix sums for the stay-home fast path and remaining-home counters.
    let m = inst.num_procs();
    let mut home_suffix: Vec<Vec<Size>> = vec![vec![0; m]; order.len() + 1];
    for i in (0..order.len()).rev() {
        home_suffix[i] = home_suffix[i + 1].clone();
        home_suffix[i][inst.initial_proc(order[i])] += inst.size(order[i]);
    }

    let budget_left = match budget {
        Budget::Moves(k) => k as u64,
        Budget::Cost(b) => b,
    };
    let move_price = |j: usize| match budget {
        Budget::Moves(_) => 1u64,
        Budget::Cost(_) => inst.cost(j),
    };

    // Suffix minima of move prices for the budget fast path.
    let mut price_suffix_min = vec![u64::MAX; order.len() + 1];
    for i in (0..order.len()).rev() {
        price_suffix_min[i] = price_suffix_min[i + 1].min(move_price(order[i]));
    }

    let mut search = Bb {
        inst,
        order: &order,
        home_suffix: &home_suffix,
        price_suffix_min: &price_suffix_min,
        move_price: &move_price,
        allowed,
        lower_bound: bounds::lower_bound(inst, budget),
        best_makespan: incumbent.makespan(),
        best_assignment: incumbent.into_assignment(),
        current: inst.initial().clone(),
        nodes: 0,
        node_cap,
        exact: true,
    };
    let mut loads = vec![0u64; m];
    search.dfs(0, &mut loads, budget_left, 0);

    ExactSolution {
        makespan: search.best_makespan,
        assignment: search.best_assignment,
        nodes: search.nodes,
        exact: search.exact,
    }
}

struct Bb<'a> {
    inst: &'a Instance,
    order: &'a [usize],
    home_suffix: &'a [Vec<Size>],
    price_suffix_min: &'a [u64],
    move_price: &'a dyn Fn(usize) -> u64,
    allowed: Option<&'a ConstrainedInstance>,
    /// A lower bound on OPT: an incumbent that meets it is optimal.
    lower_bound: Size,
    best_makespan: Size,
    best_assignment: Vec<ProcId>,
    current: Vec<ProcId>,
    nodes: u64,
    node_cap: u64,
    exact: bool,
}

impl Bb<'_> {
    fn dfs(&mut self, idx: usize, loads: &mut Vec<Size>, budget_left: u64, cur_max: Size) {
        if self.best_makespan <= self.lower_bound {
            return;
        }
        if self.nodes >= self.node_cap {
            self.exact = false;
            return;
        }
        self.nodes += 1;

        if cur_max >= self.best_makespan {
            return;
        }
        if idx == self.order.len() {
            // Strict improvement (checked above).
            self.best_makespan = cur_max;
            self.best_assignment = self.current.clone();
            return;
        }

        // Largest-remaining lower bound.
        let next_size = self.inst.size(self.order[idx]);
        let min_load = loads.iter().copied().min().unwrap_or(0);
        if min_load + next_size >= self.best_makespan {
            return;
        }

        if budget_left < self.price_suffix_min[idx] {
            // Everything else stays home; evaluate the leaf directly.
            let leaf = loads
                .iter()
                .zip(&self.home_suffix[idx])
                .map(|(&l, &h)| l + h)
                .max()
                .unwrap_or(0);
            if leaf < self.best_makespan {
                for &j in &self.order[idx..] {
                    self.current[j] = self.inst.initial_proc(j);
                }
                self.best_makespan = leaf;
                self.best_assignment = self.current.clone();
            }
            return;
        }

        let j = self.order[idx];
        let home = self.inst.initial_proc(j);
        let size = self.inst.size(j);
        let price = (self.move_price)(j);

        // Candidate processors: home first (free), then the other
        // (eligible) ones by load.
        let mut procs: Vec<ProcId> = match self.allowed {
            None => (0..loads.len()).collect(),
            Some(cinst) => cinst.allowed(j).to_vec(),
        };
        procs.sort_by_key(|&p| (p != home, loads[p], p));
        let mut seen_loads: Vec<Size> = Vec::with_capacity(loads.len());
        for p in procs {
            let is_home = p == home;
            if !is_home {
                if price > budget_left {
                    continue;
                }
                // Symmetry: two non-home processors at equal load are
                // interchangeable for this job if neither is the home of a
                // remaining job; conservatively require zero future home
                // load on both, which the suffix sums tell us.
                if self.allowed.is_none() && self.home_suffix[idx + 1][p] == 0 {
                    if seen_loads.contains(&loads[p]) {
                        continue;
                    }
                    seen_loads.push(loads[p]);
                }
            }
            let new_load = loads[p] + size;
            if new_load >= self.best_makespan {
                continue;
            }
            loads[p] = new_load;
            self.current[j] = p;
            let left = if is_home {
                budget_left
            } else {
                budget_left - price
            };
            self.dfs(idx + 1, loads, left, cur_max.max(new_load));
            loads[p] = new_load - size;
        }
        self.current[j] = home;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrb_core::model::Job;

    #[test]
    fn zero_budget_returns_initial() {
        let inst = Instance::from_sizes(&[5, 4, 3], vec![0, 0, 0], 2).unwrap();
        let sol = solve(&inst, Budget::Moves(0));
        assert_eq!(sol.makespan, 12);
        assert!(sol.exact);
    }

    #[test]
    fn one_move_takes_best_single_relocation() {
        // {5,4,3} on proc 0 of 2: the best single move sends the 5 over,
        // leaving loads {7,5}.
        let inst = Instance::from_sizes(&[5, 4, 3], vec![0, 0, 0], 2).unwrap();
        let sol = solve(&inst, Budget::Moves(1));
        assert_eq!(sol.makespan, 7);
        assert_eq!(inst.move_count(&sol.assignment), 1);
    }

    #[test]
    fn full_budget_equals_unconstrained_scheduling() {
        // {4,3,3,2} on 2 procs: perfect split 6/6.
        let inst = Instance::from_sizes(&[4, 3, 3, 2], vec![0, 0, 0, 0], 2).unwrap();
        let sol = solve(&inst, Budget::Moves(4));
        assert_eq!(sol.makespan, 6);
    }

    #[test]
    fn witness_respects_budget() {
        let inst = Instance::from_sizes(&[9, 7, 5, 4, 3, 2], vec![0, 0, 0, 1, 1, 2], 3).unwrap();
        for k in 0..=6 {
            let sol = solve(&inst, Budget::Moves(k));
            assert!(inst.move_count(&sol.assignment) <= k, "k={k}");
            assert_eq!(
                inst.makespan_of(&sol.assignment).unwrap(),
                sol.makespan,
                "k={k}"
            );
        }
    }

    #[test]
    fn node_cap_returns_the_incumbent_unproven() {
        // {6,5,4,3,2} on proc 0 of 2 with two moves: the seeded incumbent
        // (11) sits above the lower bound (10 = OPT), so the root does not
        // prove it, and a second node is over the cap.
        let inst = Instance::from_sizes(&[6, 5, 4, 3, 2], vec![0; 5], 2).unwrap();
        let sol = solve_capped(&inst, Budget::Moves(2), 1);
        assert!(!sol.exact);
        assert_eq!(sol.nodes, 1);
        assert!(inst.move_count(&sol.assignment) <= 2);
        assert_eq!(inst.makespan_of(&sol.assignment).unwrap(), sol.makespan);
    }

    #[test]
    fn an_incumbent_at_the_lower_bound_is_proven_without_search() {
        // {5,4,3} on proc 0 of 2 with one move: the seeded incumbent (7)
        // equals the lower bound (12 − 5), so no node is expanded.
        let inst = Instance::from_sizes(&[5, 4, 3], vec![0, 0, 0], 2).unwrap();
        let sol = solve_capped(&inst, Budget::Moves(1), 1);
        assert!(sol.exact);
        assert_eq!(sol.nodes, 0);
        assert_eq!(sol.makespan, 7);
        assert_eq!(inst.makespan_of(&sol.assignment).unwrap(), 7);
    }

    #[test]
    fn opt_is_monotone_in_k() {
        let inst = Instance::from_sizes(&[8, 6, 5, 4, 2, 1], vec![0, 0, 0, 0, 1, 1], 3).unwrap();
        let mut prev = u64::MAX;
        for k in 0..=6 {
            let sol = solve(&inst, Budget::Moves(k));
            assert!(sol.makespan <= prev, "k={k}");
            prev = sol.makespan;
        }
    }

    #[test]
    fn cost_budget_prefers_cheap_moves() {
        let jobs = vec![Job::with_cost(5, 10), Job::with_cost(5, 1)];
        let inst = Instance::new(jobs, vec![0, 0], 2).unwrap();
        let sol = solve(&inst, Budget::Cost(1));
        assert_eq!(sol.makespan, 5);
        assert!(inst.move_cost(&sol.assignment) <= 1);
    }

    #[test]
    fn cost_budget_zero_moves_nothing() {
        let jobs = vec![Job::with_cost(5, 3), Job::with_cost(5, 3)];
        let inst = Instance::new(jobs, vec![0, 0], 2).unwrap();
        let sol = solve(&inst, Budget::Cost(2));
        assert_eq!(sol.makespan, 10);
    }

    #[test]
    fn paper_greedy_tightness_has_opt_m() {
        // Theorem 1's example at m = 3: OPT relocates m−1 unit jobs.
        let m = 3;
        let mut sizes = vec![m as u64];
        let mut initial = vec![0usize];
        for p in 0..m {
            for _ in 0..m - 1 {
                sizes.push(1);
                initial.push(p);
            }
        }
        let inst = Instance::from_sizes(&sizes, initial, m).unwrap();
        let sol = solve(&inst, Budget::Moves(m - 1));
        assert_eq!(sol.makespan, m as u64);
    }

    #[test]
    fn matches_bruteforce_on_random_instances() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for trial in 0..60 {
            let n = rng.gen_range(1..=8);
            let m = rng.gen_range(1..=3);
            let sizes: Vec<u64> = (0..n).map(|_| rng.gen_range(1..=12)).collect();
            let initial: Vec<usize> = (0..n).map(|_| rng.gen_range(0..m)).collect();
            let inst = Instance::from_sizes(&sizes, initial, m).unwrap();
            let k = rng.gen_range(0..=n);
            let sol = solve(&inst, Budget::Moves(k));
            let bf = brute_force(&inst, k);
            assert_eq!(sol.makespan, bf, "trial {trial}: {inst:?} k={k}");
        }
    }

    /// Reference: full m^n enumeration.
    fn brute_force(inst: &Instance, k: usize) -> u64 {
        let n = inst.num_jobs();
        let m = inst.num_procs();
        let mut best = u64::MAX;
        let mut asg = vec![0usize; n];
        loop {
            if inst.move_count(&asg) <= k {
                best = best.min(inst.makespan_of(&asg).unwrap());
            }
            // Increment base-m counter.
            let mut i = 0;
            loop {
                if i == n {
                    return best;
                }
                asg[i] += 1;
                if asg[i] == m {
                    asg[i] = 0;
                    i += 1;
                } else {
                    break;
                }
            }
        }
    }
}
