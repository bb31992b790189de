//! The result type shared by every rebalancing algorithm.

use crate::error::Result;
use crate::model::{Assignment, Cost, Instance, JobId, Size};

/// Result of running a rebalancing algorithm on an [`Instance`]: the new
/// assignment together with derived bookkeeping (makespan, which jobs moved,
/// what the moves cost).
///
/// Always constructed through [`RebalanceOutcome::from_assignment`] so the
/// derived fields cannot drift out of sync with the assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RebalanceOutcome {
    assignment: Assignment,
    makespan: Size,
    moved: Vec<JobId>,
    cost: Cost,
}

impl RebalanceOutcome {
    /// Package an assignment produced by an algorithm, computing the
    /// makespan and move accounting against the instance's initial
    /// placement.
    ///
    /// # Errors
    ///
    /// Fails if the assignment is malformed (wrong length / processor out of
    /// range).
    pub fn from_assignment(inst: &Instance, assignment: Assignment) -> Result<Self> {
        let makespan = inst.makespan_of(&assignment)?;
        let moved = inst.moved_jobs(&assignment);
        let cost = inst.cost_of(moved.iter().copied());
        Ok(RebalanceOutcome {
            assignment,
            makespan,
            moved,
            cost,
        })
    }

    /// The trivial outcome that leaves every job in place.
    pub fn unchanged(inst: &Instance) -> Self {
        RebalanceOutcome {
            assignment: inst.initial().clone(),
            makespan: inst.initial_makespan(),
            moved: Vec::new(),
            cost: 0,
        }
    }

    /// The produced assignment: `assignment()[j]` is job `j`'s processor.
    pub fn assignment(&self) -> &Assignment {
        &self.assignment
    }

    /// Makespan (maximum processor load) of the produced assignment.
    pub fn makespan(&self) -> Size {
        self.makespan
    }

    /// Ids of jobs that ended up on a different processor than they started.
    pub fn moved(&self) -> &[JobId] {
        &self.moved
    }

    /// Number of relocated jobs.
    pub fn moves(&self) -> usize {
        self.moved.len()
    }

    /// Total relocation cost of the moved jobs.
    pub fn cost(&self) -> Cost {
        self.cost
    }

    /// Consume the outcome, yielding the assignment.
    pub fn into_assignment(self) -> Assignment {
        self.assignment
    }

    /// Of two outcomes for the same instance, the better one: lower makespan
    /// wins, ties broken by lower cost, then fewer moves.
    pub fn better(self, other: RebalanceOutcome) -> RebalanceOutcome {
        if other.rank() < self.rank() {
            other
        } else {
            self
        }
    }

    /// The no-regression clamp: `self.better(RebalanceOutcome::unchanged(inst))`,
    /// copying the initial assignment only when it wins.
    pub(crate) fn or_unchanged(self, inst: &Instance) -> RebalanceOutcome {
        if (inst.initial_makespan(), 0, 0) < self.rank() {
            RebalanceOutcome::unchanged(inst)
        } else {
            self
        }
    }

    /// What [`RebalanceOutcome::better`] compares: makespan, then cost, then
    /// moves.
    fn rank(&self) -> (Size, Cost, usize) {
        (self.makespan, self.cost, self.moved.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Instance {
        Instance::from_sizes(&[5, 3, 4], vec![0, 0, 1], 2).unwrap()
    }

    #[test]
    fn from_assignment_computes_bookkeeping() {
        let inst = toy();
        let out = RebalanceOutcome::from_assignment(&inst, vec![0, 1, 1]).unwrap();
        assert_eq!(out.makespan(), 7);
        assert_eq!(out.moved(), &[1]);
        assert_eq!(out.moves(), 1);
        assert_eq!(out.cost(), 1);
    }

    #[test]
    fn unchanged_moves_nothing() {
        let inst = toy();
        let out = RebalanceOutcome::unchanged(&inst);
        assert_eq!(out.makespan(), inst.initial_makespan());
        assert!(out.moved().is_empty());
        assert_eq!(out.cost(), 0);
    }

    #[test]
    fn moved_cost_saturates_like_the_budget_check() {
        let big = (1u64 << 63) + 1;
        let jobs = vec![
            crate::model::Job::with_cost(4, big),
            crate::model::Job::with_cost(4, big),
        ];
        let inst = Instance::new(jobs, vec![0, 0], 2).unwrap();
        let out = RebalanceOutcome::from_assignment(&inst, vec![1, 1]).unwrap();
        assert_eq!(out.cost(), u64::MAX);
        assert_eq!(out.cost(), inst.move_cost(out.assignment()));
    }

    #[test]
    fn from_assignment_rejects_malformed() {
        let inst = toy();
        assert!(RebalanceOutcome::from_assignment(&inst, vec![0, 1]).is_err());
        assert!(RebalanceOutcome::from_assignment(&inst, vec![0, 1, 7]).is_err());
    }

    #[test]
    fn better_prefers_lower_makespan_then_cost_then_moves() {
        let inst = toy();
        let a = RebalanceOutcome::from_assignment(&inst, vec![0, 1, 1]).unwrap(); // makespan 7
        let b = RebalanceOutcome::unchanged(&inst); // makespan 8
        assert_eq!(a.clone().better(b.clone()).makespan(), 7);
        assert_eq!(b.better(a).makespan(), 7);

        // Equal makespans: fewer moves wins (0 moves vs 2 moves both makespan 8).
        let inst2 = Instance::from_sizes(&[4, 4], vec![0, 1], 2).unwrap();
        let stay = RebalanceOutcome::unchanged(&inst2);
        let swap = RebalanceOutcome::from_assignment(&inst2, vec![1, 0]).unwrap();
        assert_eq!(stay.clone().better(swap).moves(), 0);
    }
}
