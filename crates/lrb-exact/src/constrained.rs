//! Exact solver for Constrained Load Rebalancing (§5, Corollary 1):
//! [`crate::branch_bound`]'s search over eligible processors only.

use lrb_core::constrained::ConstrainedInstance;
use lrb_core::model::{Budget, ProcId, Size};
use lrb_core::outcome::RebalanceOutcome;

use crate::branch_bound;

/// Exact optimal makespan under the budget, respecting eligibility lists.
/// Returns the makespan and a witnessing assignment.
pub fn solve(cinst: &ConstrainedInstance, budget: Budget) -> (Size, Vec<ProcId>) {
    let inst = cinst.base();
    // Incumbent: stay-home (always feasible and within any budget),
    // improved by the constrained greedy when the budget is a move count.
    let mut incumbent = RebalanceOutcome::unchanged(inst);
    if let Budget::Moves(k) = budget {
        if let Ok(out) = lrb_core::constrained::greedy(cinst, k) {
            incumbent = incumbent.better(out);
        }
    }
    let sol = branch_bound::search(inst, budget, Some(cinst), incumbent, u64::MAX);
    (sol.makespan, sol.assignment)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrb_core::model::Instance;

    #[test]
    fn matches_unconstrained_oracle_when_lists_are_full() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(41);
        for trial in 0..30 {
            let n = rng.gen_range(1..=8);
            let m = rng.gen_range(1..=3);
            let sizes: Vec<u64> = (0..n).map(|_| rng.gen_range(1..=12)).collect();
            let initial: Vec<usize> = (0..n).map(|_| rng.gen_range(0..m)).collect();
            let inst = Instance::from_sizes(&sizes, initial, m).unwrap();
            let c = lrb_core::constrained::ConstrainedInstance::unconstrained(inst.clone());
            let k = rng.gen_range(0..=n);
            let (ms, asg) = solve(&c, Budget::Moves(k));
            let reference = crate::branch_bound::solve(&inst, Budget::Moves(k)).makespan;
            assert_eq!(ms, reference, "trial {trial}");
            assert!(c.respects(&asg));
            assert!(inst.move_count(&asg) <= k);
        }
    }

    #[test]
    fn eligibility_changes_the_optimum() {
        // {6,6} piled on proc 0 of 2; unconstrained OPT with k=1 is 6.
        let base = Instance::from_sizes(&[6, 6], vec![0, 0], 2).unwrap();
        let free = lrb_core::constrained::ConstrainedInstance::unconstrained(base.clone());
        assert_eq!(solve(&free, Budget::Moves(1)).0, 6);
        // Lock both jobs to proc 0: nothing can move, OPT is 12.
        let locked =
            lrb_core::constrained::ConstrainedInstance::new(base, vec![vec![0], vec![0]]).unwrap();
        assert_eq!(solve(&locked, Budget::Moves(1)).0, 12);
    }

    #[test]
    fn cost_budget_respects_lists() {
        use lrb_core::model::Job;
        let jobs = vec![Job::with_cost(5, 3), Job::with_cost(5, 1)];
        let base = Instance::new(jobs, vec![0, 0], 3).unwrap();
        // The cheap job may only go to proc 2.
        let c = lrb_core::constrained::ConstrainedInstance::new(
            base.clone(),
            vec![vec![0, 1], vec![0, 2]],
        )
        .unwrap();
        let (ms, asg) = solve(&c, Budget::Cost(1));
        assert_eq!(ms, 5);
        assert_eq!(asg, vec![0, 2]);
    }
}
