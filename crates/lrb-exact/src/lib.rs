//! # lrb-exact — optimal solvers for the load rebalancing problem
//!
//! The paper's analysis compares against `OPTIMAL`; these solvers *are*
//! `OPTIMAL` on instances small enough to solve exactly. Every
//! approximation-ratio experiment in the reproduction measures against
//! them.
//!
//! * [`branch_bound`] — the one home-first branch-and-bound (moves or cost
//!   budget), good to `n ≈ 20`; [`constrained`] runs it under eligibility
//!   lists (Corollary 1);
//! * [`exhaustive`] — the one placement search, on identical or uniform
//!   machines, and the subset enumeration over it, good for small move
//!   budgets at moderate `n`; cross-checks `branch_bound`. [`hetero`] runs
//!   it at per-processor speeds, certifying the speed-scaled solvers, and
//!   [`incremental`] keeps the unconstrained `OPT` of a live job multiset
//!   under arrivals/departures, for exact online competitive ratios;
//! * [`move_min`] — exact *move minimization* for a target makespan
//!   (the Theorem 5 objective);
//! * [`unit_jobs`] — closed-form optimum for equal-size jobs (the model of
//!   the prior work the paper generalizes), usable at any scale;
//! * [`conflict`] — feasibility oracle for the Conflict Scheduling variant
//!   (Theorem 7).

pub mod branch_bound;
pub mod conflict;
pub mod constrained;
pub mod exhaustive;
pub mod hetero;
pub mod incremental;
pub mod move_min;
pub mod unit_jobs;

pub use branch_bound::{solve, ExactSolution};
pub use hetero::optimal_scaled_makespan;
pub use incremental::IncrementalOracle;

use lrb_core::model::{Budget, Instance, Size};

/// Convenience oracle: the optimal makespan with at most `k` moves.
/// Panics if the search hits its node cap before proving optimality.
pub fn optimal_makespan_moves(inst: &Instance, k: usize) -> Size {
    proven_optimum(inst, Budget::Moves(k))
}

/// Convenience oracle: the optimal makespan with relocation cost at most
/// `b`. Panics if the search hits its node cap before proving optimality.
pub fn optimal_makespan_cost(inst: &Instance, b: u64) -> Size {
    proven_optimum(inst, Budget::Cost(b))
}

fn proven_optimum(inst: &Instance, budget: Budget) -> Size {
    let sol = branch_bound::solve(inst, budget);
    assert!(
        sol.exact,
        "exact search hit its node cap after {} nodes; optimality is not proven",
        sol.nodes
    );
    sol.makespan
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracles_agree_with_each_other() {
        let inst = Instance::from_sizes(&[6, 5, 4, 3, 2], vec![0, 0, 0, 1, 1], 2).unwrap();
        for k in 0..=5 {
            let a = optimal_makespan_moves(&inst, k);
            let b = exhaustive::optimal_makespan(&inst, k);
            assert_eq!(a, b, "k={k}");
            // Unit costs: a cost budget of k equals a move budget of k.
            let c = optimal_makespan_cost(&inst, k as u64);
            assert_eq!(a, c, "k={k}");
        }
    }
}
