//! Answer checks. Every solver output the benchmark receives is checked
//! against the instance it was solved for, recomputing everything from the
//! assignment rather than trusting the reported figures.

use lrb_core::bounds::lower_bound;
use lrb_core::model::{Budget, Instance, Size};

/// Check one rebalancing answer.
///
/// * the assignment has one valid server per job;
/// * the budget holds, recounting moves (or summing migration cost) against
///   the initial placement;
/// * the reported makespan equals the makespan recomputed from the
///   assignment, and is at least [`lower_bound`];
/// * with `no_regression` (M-PARTITION), the makespan never exceeds the
///   initial one.
///
/// An assignment within budget can never beat the optimum, so the
/// lower-bound check fails only when `lower_bound` itself is wrong: it
/// checks the bound against every answer.
pub fn check_answer(
    inst: &Instance,
    budget: Budget,
    assignment: &[usize],
    reported_makespan: Size,
    no_regression: bool,
) -> Result<(), String> {
    let bound = lower_bound(inst, budget);
    check_against(
        inst,
        budget,
        assignment,
        reported_makespan,
        no_regression,
        bound,
    )
}

/// [`check_answer`] against a given lower bound.
fn check_against(
    inst: &Instance,
    budget: Budget,
    assignment: &[usize],
    reported_makespan: Size,
    no_regression: bool,
    bound: Size,
) -> Result<(), String> {
    if assignment.len() != inst.num_jobs() {
        return Err(format!(
            "assignment has {} entries for {} jobs",
            assignment.len(),
            inst.num_jobs()
        ));
    }
    if let Some(j) = assignment.iter().position(|&p| p >= inst.num_procs()) {
        return Err(format!(
            "job {j} placed on server {} of {}",
            assignment[j],
            inst.num_procs()
        ));
    }
    match budget {
        Budget::Moves(k) => {
            let moves = inst.move_count(assignment);
            if moves > k {
                return Err(format!("{moves} moves exceed the budget of {k}"));
            }
        }
        Budget::Cost(b) => {
            let cost = inst.move_cost(assignment);
            if cost > b {
                return Err(format!("migration cost {cost} exceeds the budget of {b}"));
            }
        }
    }
    let makespan = inst.makespan_of(assignment).map_err(|e| e.to_string())?;
    if makespan != reported_makespan {
        return Err(format!(
            "reported makespan {reported_makespan} but the assignment gives {makespan}"
        ));
    }
    if makespan < bound {
        return Err(format!(
            "makespan {makespan} is below the lower bound {bound}"
        ));
    }
    if no_regression && makespan > inst.initial_makespan() {
        return Err(format!(
            "makespan {makespan} exceeds the initial makespan {}",
            inst.initial_makespan()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::batch_farm;
    use lrb_core::{cost_partition, mpartition};

    #[test]
    fn solver_answers_pass() {
        let inst = batch_farm(256, true, 3);
        let run = mpartition::rebalance(&inst, 8).unwrap();
        let out = &run.outcome;
        check_answer(
            &inst,
            Budget::Moves(8),
            out.assignment(),
            out.makespan(),
            true,
        )
        .unwrap();
        let run = cost_partition::rebalance(&inst, 40).unwrap();
        let out = &run.outcome;
        check_answer(
            &inst,
            Budget::Cost(40),
            out.assignment(),
            out.makespan(),
            false,
        )
        .unwrap();
    }

    #[test]
    fn corrupted_answers_are_caught() {
        let inst = batch_farm(256, false, 4);
        let run = mpartition::rebalance(&inst, 8).unwrap();
        let good = run.outcome.assignment().clone();
        let makespan = run.outcome.makespan();

        // A wrong reported makespan.
        let err = check_answer(&inst, Budget::Moves(8), &good, makespan + 1, true).unwrap_err();
        assert!(err.contains("reported makespan"), "{err}");

        // A move-budget overrun: move every job off its initial server.
        let m = inst.num_procs();
        let overrun: Vec<usize> = inst.initial().iter().map(|&p| (p + 1) % m).collect();
        let ms = inst.makespan_of(&overrun).unwrap();
        let err = check_answer(&inst, Budget::Moves(8), &overrun, ms, false).unwrap_err();
        assert!(err.contains("exceed the budget"), "{err}");

        // A cost-budget overrun on the same assignment.
        let err = check_answer(&inst, Budget::Cost(5), &overrun, ms, false).unwrap_err();
        assert!(err.contains("exceeds the budget"), "{err}");

        // An out-of-range server and a truncated assignment.
        let mut bad = good.clone();
        bad[0] = m;
        assert!(check_answer(&inst, Budget::Moves(8), &bad, makespan, true).is_err());
        assert!(check_answer(&inst, Budget::Moves(8), &good[1..], makespan, true).is_err());
    }

    #[test]
    fn regressions_and_understated_makespans_are_caught() {
        // Two servers, one job each: the initial makespan is optimal.
        let inst = Instance::from_sizes(&[5, 5], vec![0, 1], 2).unwrap();
        // Piling both jobs on one server is within budget but regresses.
        let err = check_answer(&inst, Budget::Moves(1), &[0, 0], 10, true).unwrap_err();
        assert!(err.contains("initial makespan"), "{err}");
        // A reported makespan below the assignment's own is caught.
        let inst = Instance::from_sizes(&[6, 6, 6], vec![0, 0, 1], 2).unwrap();
        let err = check_answer(&inst, Budget::Moves(0), &[0, 0, 1], 12, true);
        assert!(err.is_ok(), "{err:?}");
        let err = check_answer(&inst, Budget::Moves(0), &[0, 0, 1], 11, true).unwrap_err();
        assert!(err.contains("reported makespan"), "{err}");
    }

    #[test]
    fn a_wrong_lower_bound_is_caught() {
        // A consistent answer passes its true bound and fails a bound set
        // above its makespan, which only the lower-bound check looks at.
        let inst = Instance::from_sizes(&[6, 6, 6], vec![0, 0, 1], 2).unwrap();
        let bound = lower_bound(&inst, Budget::Moves(0));
        assert!(bound <= 12);
        check_against(&inst, Budget::Moves(0), &[0, 0, 1], 12, true, bound).unwrap();
        let err = check_against(&inst, Budget::Moves(0), &[0, 0, 1], 12, true, 13).unwrap_err();
        assert!(err.contains("below the lower bound 13"), "{err}");
    }
}
