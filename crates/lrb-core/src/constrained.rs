//! The **Constrained Load Rebalancing** variant (§5, Corollary 1): each
//! job may only be (re)assigned to a specified subset of processors.
//!
//! The paper proves no polynomial algorithm approximates this variant
//! below 3/2 (unless P = NP) and notes the best known upper bound is the
//! Shmoys–Tardos 2-approximation — whether 1.5 is achievable is left open.
//! This module supplies the model plus a constrained `GREEDY` heuristic;
//! the 2-approximation lives in `lrb-lp::constrained` (it needs the LP) and
//! the exact oracle in `lrb-exact::constrained`.

use std::cmp::Reverse;

use lrb_obs::NoopTracer;

use crate::deadline::WorkBudget;
use crate::error::{Error, Result};
use crate::greedy;
use crate::model::{Instance, JobId, ProcId};
use crate::outcome::RebalanceOutcome;
use crate::scratch::GreedyScratch;

/// A load-rebalancing instance where each job carries an eligibility list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConstrainedInstance {
    base: Instance,
    /// `allowed[j]` — sorted processor ids job `j` may run on; always
    /// contains the job's initial processor.
    allowed: Vec<Vec<ProcId>>,
}

impl ConstrainedInstance {
    /// Build and validate: every list must be non-empty, in range, and
    /// contain the job's initial processor (it is already running there).
    pub fn new(base: Instance, mut allowed: Vec<Vec<ProcId>>) -> Result<Self> {
        if allowed.len() != base.num_jobs() {
            return Err(Error::LengthMismatch {
                jobs: base.num_jobs(),
                assignment: allowed.len(),
            });
        }
        for (j, list) in allowed.iter_mut().enumerate() {
            list.sort_unstable();
            list.dedup();
            for &p in list.iter() {
                if p >= base.num_procs() {
                    return Err(Error::ProcOutOfRange {
                        job: j,
                        proc: p,
                        num_procs: base.num_procs(),
                    });
                }
            }
            if list.binary_search(&base.initial_proc(j)).is_err() {
                // The job is already running on its home processor; an
                // eligibility list excluding it is contradictory.
                return Err(Error::ProcOutOfRange {
                    job: j,
                    proc: base.initial_proc(j),
                    num_procs: base.num_procs(),
                });
            }
        }
        Ok(ConstrainedInstance { base, allowed })
    }

    /// The unconstrained view of the instance.
    pub fn base(&self) -> &Instance {
        &self.base
    }

    /// Eligible processors of job `j` (sorted).
    pub fn allowed(&self, j: JobId) -> &[ProcId] {
        &self.allowed[j]
    }

    /// May job `j` run on processor `p`?
    pub fn is_allowed(&self, j: JobId, p: ProcId) -> bool {
        self.allowed[j].binary_search(&p).is_ok()
    }

    /// Does an assignment respect every eligibility list?
    pub fn respects(&self, assignment: &[ProcId]) -> bool {
        assignment.len() == self.base.num_jobs()
            && assignment
                .iter()
                .enumerate()
                .all(|(j, &p)| self.is_allowed(j, p))
    }

    /// An unconstrained instance wrapped with all-processors eligibility.
    pub fn unconstrained(base: Instance) -> Self {
        let all: Vec<ProcId> = (0..base.num_procs()).collect();
        let allowed = vec![all; base.num_jobs()];
        ConstrainedInstance { base, allowed }
    }
}

/// Constrained `GREEDY`: the §2 algorithm with the reinsertion step picking
/// the least-loaded *eligible* processor.
///
/// This is a heuristic (the unconstrained ratio proof does not survive
/// eligibility lists — consistent with the Corollary 1 lower bound), but
/// it keeps GREEDY's shape: GREEDY's own removal phase (the largest job
/// from the max-loaded processor, `k` times), then eligible min-load
/// reinsertion. Jobs always may return home, so the algorithm is total.
pub fn greedy(cinst: &ConstrainedInstance, k: usize) -> Result<RebalanceOutcome> {
    let inst = cinst.base();
    let mut s = GreedyScratch::default();
    greedy::removal_phase(inst, None, k, &NoopTracer, &WorkBudget::unlimited(), &mut s)?;
    let (mut loads, mut removed) = (s.loads, s.removed);

    // Eligible min-load reinsertion, largest job first.
    let mut assignment = inst.initial().clone();
    removed.sort_by_key(|&j| Reverse(inst.size(j)));
    for j in removed {
        let p = cinst
            .allowed(j)
            .iter()
            .copied()
            .min_by_key(|&p| (loads[p], p))
            // lint: allow(no-panic-core, ConstrainedInstance::new rejects empty eligibility lists)
            .expect("eligibility lists are non-empty");
        assignment[j] = p;
        loads[p] += inst.size(j);
    }

    let out = RebalanceOutcome::from_assignment(inst, assignment)?;
    debug_assert!(cinst.respects(out.assignment()));
    Ok(out.or_unchanged(inst))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cinst() -> ConstrainedInstance {
        // 4 jobs piled on proc 0 of 3; job 0 may only use {0,1}, job 1 only
        // {0}, others anywhere.
        let base = Instance::from_sizes(&[8, 6, 4, 2], vec![0, 0, 0, 0], 3).unwrap();
        ConstrainedInstance::new(
            base,
            vec![vec![0, 1], vec![0], vec![0, 1, 2], vec![0, 1, 2]],
        )
        .unwrap()
    }

    #[test]
    fn validation_rejects_bad_lists() {
        let base = Instance::from_sizes(&[5], vec![0], 2).unwrap();
        // Missing the home processor.
        assert!(ConstrainedInstance::new(base.clone(), vec![vec![1]]).is_err());
        // Out of range.
        assert!(ConstrainedInstance::new(base.clone(), vec![vec![0, 7]]).is_err());
        // Wrong length.
        assert!(ConstrainedInstance::new(base.clone(), vec![]).is_err());
        // Fine.
        assert!(ConstrainedInstance::new(base, vec![vec![0, 1]]).is_ok());
    }

    #[test]
    fn is_allowed_and_respects() {
        let c = cinst();
        assert!(c.is_allowed(0, 1));
        assert!(!c.is_allowed(0, 2));
        assert!(!c.is_allowed(1, 1));
        assert!(c.respects(&[0, 0, 2, 1]));
        assert!(!c.respects(&[2, 0, 2, 1]));
        assert!(!c.respects(&[0, 0, 2]));
    }

    #[test]
    fn greedy_respects_eligibility() {
        let c = cinst();
        for k in 0..=4 {
            let out = greedy(&c, k).unwrap();
            assert!(
                c.respects(out.assignment()),
                "k={k}: {:?}",
                out.assignment()
            );
            assert!(out.moves() <= k);
        }
    }

    #[test]
    fn greedy_uses_the_only_eligible_targets() {
        let c = cinst();
        // k = 4: job 1 (size 6) must stay on proc 0; jobs 0,2,3 spread.
        let out = greedy(&c, 4).unwrap();
        assert_eq!(out.assignment()[1], 0);
        // The load on proc 0 can't drop below 6.
        let loads = c.base().loads_of(out.assignment()).unwrap();
        assert!(loads[0] >= 6);
    }

    #[test]
    fn unconstrained_wrapper_matches_plain_greedy() {
        let base = Instance::from_sizes(&[9, 5, 3, 2], vec![0, 0, 1, 1], 2).unwrap();
        let c = ConstrainedInstance::unconstrained(base.clone());
        for k in 0..=4 {
            let a = greedy(&c, k).unwrap();
            assert!(c.respects(a.assignment()));
            // Same guarantee surface: never worse than initial.
            assert!(a.makespan() <= base.initial_makespan());
        }
    }
}
