//! The Shmoys–Tardos 2-approximation baseline \[14\] for budgeted load
//! rebalancing, via the paper's §2 reduction to generalized assignment.
//!
//! Pipeline: binary-search the smallest makespan guess `T` whose LP
//! relaxation has fractional cost within the budget, then round the vertex
//! solution with [`crate::gap`]'s min-cost matching of the fractional jobs.
//! The rounded makespan is at most `T + max_j s_j ≤ 2T ≤ 2·OPT_B`; its cost
//! can exceed the LP value, so the guess climbs until the rounded cost fits
//! the budget (at the initial makespan nothing moves).
//!
//! This is the prior-art baseline the paper's 1.5-approximation improves
//! on; experiment T9 compares them head-to-head and F3 compares runtimes.

use lrb_core::bounds;
use lrb_core::error::Result;
use lrb_core::model::{Budget, Cost, Instance, Size};
use lrb_core::outcome::RebalanceOutcome;

use crate::gap::{relocation_cost, round, solve_relaxation_filtered, FractionalAssignment};

/// Result of the Shmoys–Tardos baseline.
#[derive(Debug, Clone)]
pub struct StRun {
    /// The rounded assignment.
    pub outcome: RebalanceOutcome,
    /// The accepted makespan guess (LP value).
    pub guess: Size,
    /// Fractional LP cost at the accepted guess.
    pub lp_cost: f64,
}

/// Minimize makespan subject to total relocation cost at most `budget`,
/// within factor 2 (makespan `≤ 2·OPT_budget`).
///
/// ```
/// use lrb_core::model::Instance;
///
/// let inst = Instance::from_sizes(&[5, 5], vec![0, 0], 2).unwrap();
/// let run = lrb_lp::rebalance(&inst, 1).unwrap();
/// assert_eq!(run.outcome.makespan(), 5);
/// assert!(run.outcome.cost() <= 1);
/// ```
pub fn rebalance(inst: &Instance, budget: Cost) -> Result<StRun> {
    rebalance_filtered(inst, budget, |_, _| true)
}

/// [`rebalance`] over the `(job, processor)` pairs passing `eligible`,
/// which must admit each job's home processor. The rounding only follows
/// fractional edges, so the answer stays within the eligible pairs.
pub(crate) fn rebalance_filtered(
    inst: &Instance,
    budget: Cost,
    eligible: impl Fn(usize, usize) -> bool,
) -> Result<StRun> {
    if inst.num_jobs() == 0 {
        return Ok(StRun {
            outcome: RebalanceOutcome::unchanged(inst),
            guess: 0,
            lp_cost: 0.0,
        });
    }

    // Binary search the smallest integer T whose LP cost fits the budget.
    // The initial makespan always qualifies (cost 0).
    let lb = bounds::lower_bound(inst, Budget::Cost(budget)).max(1);
    let ub = inst.initial_makespan().max(lb);
    let fits = |t: Size| -> Option<FractionalAssignment> {
        solve_relaxation_filtered(inst, t, &eligible).filter(|f| f.cost <= budget as f64 + 1e-6)
    };
    // `at_hi` keeps the LP solved at `hi`, once the search has solved it.
    let (mut lo, mut hi, mut at_hi) = (lb, ub, None);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        match fits(mid) {
            Some(frac) => (hi, at_hi) = (mid, Some(frac)),
            None => lo = mid + 1,
        }
    }
    // Round at the found guess; if the rounded cost overshoots the budget,
    // climb the guess ladder — the LP cost, and with it the rounded cost,
    // shrinks to zero by the initial makespan.
    let mut t = lo;
    loop {
        if let Some(frac) = at_hi.take().or_else(|| fits(t)) {
            let assignment = round(&frac, inst.num_procs(), |j, p| relocation_cost(inst, j, p));
            let outcome = RebalanceOutcome::from_assignment(inst, assignment)?;
            if outcome.cost() <= budget {
                let outcome = outcome.better(RebalanceOutcome::unchanged(inst));
                return Ok(StRun {
                    outcome,
                    guess: t,
                    lp_cost: frac.cost,
                });
            }
        }
        if t >= ub {
            // The do-nothing solution is always within budget.
            return Ok(StRun {
                outcome: RebalanceOutcome::unchanged(inst),
                guess: ub,
                lp_cost: 0.0,
            });
        }
        t = (t + t.div_ceil(8)).min(ub);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_instance_stays_put() {
        let inst = Instance::from_sizes(&[5, 5], vec![0, 1], 2).unwrap();
        let run = rebalance(&inst, 0).unwrap();
        assert_eq!(run.outcome.moves(), 0);
        assert_eq!(run.outcome.makespan(), 5);
    }

    #[test]
    fn splits_a_pile_within_factor_two() {
        let inst = Instance::from_sizes(&[5, 5], vec![0, 0], 2).unwrap();
        let run = rebalance(&inst, 1).unwrap();
        assert!(run.outcome.cost() <= 1);
        // OPT = 5; the guarantee allows 10 but rounding should land at 5.
        assert_eq!(run.outcome.makespan(), 5);
    }

    #[test]
    fn budget_respected_and_factor_two_holds() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        for trial in 0..25 {
            let n = rng.gen_range(2..=8);
            let m = rng.gen_range(2..=3);
            let sizes: Vec<u64> = (0..n).map(|_| rng.gen_range(1..=9)).collect();
            let initial: Vec<usize> = (0..n).map(|_| rng.gen_range(0..m)).collect();
            let inst = Instance::from_sizes(&sizes, initial, m).unwrap();
            let b = rng.gen_range(0..=n as u64);
            let run = rebalance(&inst, b).unwrap();
            assert!(
                run.outcome.cost() <= b,
                "trial {trial}: cost {}",
                run.outcome.cost()
            );
            let opt = lrb_exact::optimal_makespan_cost(&inst, b);
            assert!(
                run.outcome.makespan() <= 2 * opt,
                "trial {trial}: {} > 2*{opt} ({inst:?}, b={b})",
                run.outcome.makespan()
            );
        }
    }

    #[test]
    fn never_worse_than_initial() {
        let inst = Instance::from_sizes(&[7, 3, 2, 6], vec![0, 1, 0, 1], 2).unwrap();
        for b in 0..=4 {
            let run = rebalance(&inst, b).unwrap();
            assert!(run.outcome.makespan() <= inst.initial_makespan());
        }
    }

    #[test]
    fn empty_instance() {
        let inst = Instance::from_sizes(&[], vec![], 2).unwrap();
        let run = rebalance(&inst, 3).unwrap();
        assert_eq!(run.outcome.makespan(), 0);
    }
}
