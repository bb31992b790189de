//! The 2-approximation for **Constrained Load Rebalancing** (§5,
//! Corollary 1): the Shmoys–Tardos pipeline over the eligibility-filtered
//! LP relaxation.
//!
//! The paper proves this variant cannot be approximated below 3/2 and
//! names the Shmoys–Tardos 2-approximation as the best known upper bound,
//! leaving the gap open — this module is that upper bound. The only change
//! from the unconstrained baseline is that LP variables exist only for
//! eligible `(job, processor)` pairs; the rounding then never leaves the
//! eligibility sets because it only follows fractional edges.

use lrb_core::constrained::ConstrainedInstance;
use lrb_core::error::Result;
use lrb_core::model::Cost;

use crate::shmoys_tardos::{rebalance_filtered, StRun};

/// Minimize makespan subject to relocation cost at most `budget` and every
/// job staying within its eligibility list; makespan `≤ 2·OPT`.
pub fn rebalance(cinst: &ConstrainedInstance, budget: Cost) -> Result<StRun> {
    let run = rebalance_filtered(cinst.base(), budget, |j, p| cinst.is_allowed(j, p))?;
    debug_assert!(
        cinst.respects(run.outcome.assignment()),
        "rounding left the eligibility sets"
    );
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrb_core::model::{Budget, Instance};

    fn locked_pile() -> ConstrainedInstance {
        // {6,6,4} on proc 0 of 3; job 0 locked home, job 1 may use {0,1},
        // job 2 anywhere.
        let base = Instance::from_sizes(&[6, 6, 4], vec![0, 0, 0], 3).unwrap();
        ConstrainedInstance::new(base, vec![vec![0], vec![0, 1], vec![0, 1, 2]]).unwrap()
    }

    #[test]
    fn respects_eligibility_and_budget() {
        let c = locked_pile();
        for b in 0..=3u64 {
            let run = rebalance(&c, b).unwrap();
            assert!(c.respects(run.outcome.assignment()), "b={b}");
            assert!(run.outcome.cost() <= b, "b={b}");
        }
    }

    #[test]
    fn factor_two_against_constrained_oracle() {
        let c = locked_pile();
        for b in 0..=3u64 {
            let run = rebalance(&c, b).unwrap();
            let (opt, _) = lrb_exact::constrained::solve(&c, Budget::Cost(b));
            assert!(
                run.outcome.makespan() <= 2 * opt,
                "b={b}: {} > 2*{opt}",
                run.outcome.makespan()
            );
        }
    }

    #[test]
    fn factor_two_on_random_constrained_instances() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(53);
        for trial in 0..20 {
            let n = rng.gen_range(2..=7);
            let m = rng.gen_range(2..=3);
            let sizes: Vec<u64> = (0..n).map(|_| rng.gen_range(1..=9)).collect();
            let initial: Vec<usize> = (0..n).map(|_| rng.gen_range(0..m)).collect();
            let base = Instance::from_sizes(&sizes, initial.clone(), m).unwrap();
            let allowed: Vec<Vec<usize>> = (0..n)
                .map(|j| {
                    let mut list = vec![initial[j]];
                    for p in 0..m {
                        if p != initial[j] && rng.gen_bool(0.6) {
                            list.push(p);
                        }
                    }
                    list
                })
                .collect();
            let c = ConstrainedInstance::new(base, allowed).unwrap();
            let b = rng.gen_range(0..=n as u64);
            let run = rebalance(&c, b).unwrap();
            assert!(c.respects(run.outcome.assignment()), "trial {trial}");
            assert!(run.outcome.cost() <= b, "trial {trial}");
            let (opt, _) = lrb_exact::constrained::solve(&c, Budget::Cost(b));
            assert!(
                run.outcome.makespan() <= 2 * opt,
                "trial {trial}: {} > 2*{opt}",
                run.outcome.makespan()
            );
        }
    }

    #[test]
    fn matches_unconstrained_baseline_with_full_lists() {
        let base = Instance::from_sizes(&[5, 5], vec![0, 0], 2).unwrap();
        let c = ConstrainedInstance::unconstrained(base.clone());
        let constrained = rebalance(&c, 1).unwrap();
        let free = crate::shmoys_tardos::rebalance(&base, 1).unwrap();
        assert_eq!(constrained.outcome.makespan(), free.outcome.makespan());
    }
}
