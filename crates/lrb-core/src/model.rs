//! Problem model: jobs, processors, instances and assignments.
//!
//! An [`Instance`] is the paper's input: `n` jobs of integer sizes, each with
//! an integer relocation cost, already placed on `m` processors. All the
//! algorithms in this crate consume an `Instance` and produce a new
//! assignment; jobs that stay on their initial processor are free, jobs that
//! move pay their relocation cost (1 in the unit-cost model).
//!
//! Sizes and costs are `u64` throughout so the paper's threshold values
//! (prefix sums, doubled job sizes) are exact integers and no floating-point
//! comparisons appear in the core algorithms.

use crate::error::{Error, Result};
use serde::{Deserialize, Serialize};

/// Index of a job within an instance (`0..n`).
pub type JobId = usize;
/// Index of a processor within an instance (`0..m`).
pub type ProcId = usize;
/// Job size (processing time / load contribution).
pub type Size = u64;
/// Relocation cost of a job.
pub type Cost = u64;

/// A job: its size and the cost of relocating it to a different processor.
///
/// In the unit-cost model every job has `cost == 1` and a budget of `k`
/// means "move at most `k` jobs".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Job {
    /// Processing time of the job; contributes this amount to the load of
    /// whichever processor it is assigned to.
    pub size: Size,
    /// Cost charged if the job ends up on a processor different from its
    /// initial one. Staying put is free.
    pub cost: Cost,
}

impl Job {
    /// A job with the given size and unit relocation cost.
    pub const fn unit(size: Size) -> Self {
        Job { size, cost: 1 }
    }

    /// A job with an explicit relocation cost.
    pub const fn with_cost(size: Size, cost: Cost) -> Self {
        Job { size, cost }
    }
}

/// A complete assignment of jobs to processors: `assignment[j]` is the
/// processor that job `j` runs on.
pub type Assignment = Vec<ProcId>;

/// A load-rebalancing instance: jobs with an initial placement on `m`
/// processors.
///
/// Construction validates the placement; afterwards the instance is
/// immutable, so derived quantities (initial loads, total size) are computed
/// once and cached.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Instance {
    jobs: Vec<Job>,
    initial: Assignment,
    num_procs: usize,
    #[serde(skip)]
    cached_loads: Vec<Size>,
    #[serde(skip)]
    cached_total: Size,
}

impl Instance {
    /// Build an instance from jobs, their initial placement, and the number
    /// of processors.
    ///
    /// # Errors
    ///
    /// Returns an error if `num_procs == 0`, the vectors disagree in length,
    /// or any placement is out of range.
    pub fn new(jobs: Vec<Job>, initial: Assignment, num_procs: usize) -> Result<Self> {
        if num_procs == 0 {
            return Err(Error::NoProcessors);
        }
        if jobs.len() != initial.len() {
            return Err(Error::LengthMismatch {
                jobs: jobs.len(),
                assignment: initial.len(),
            });
        }
        for (j, &p) in initial.iter().enumerate() {
            if p >= num_procs {
                return Err(Error::ProcOutOfRange {
                    job: j,
                    proc: p,
                    num_procs,
                });
            }
        }
        let mut inst = Instance {
            jobs,
            initial,
            num_procs,
            cached_loads: Vec::new(),
            cached_total: 0,
        };
        inst.refresh_cache();
        Ok(inst)
    }

    /// Build a unit-cost instance from raw sizes.
    pub fn from_sizes(sizes: &[Size], initial: Assignment, num_procs: usize) -> Result<Self> {
        Self::new(
            sizes.iter().map(|&s| Job::unit(s)).collect(),
            initial,
            num_procs,
        )
    }

    /// Recompute the cached initial loads and total size. Called by
    /// constructors and by deserialization hooks.
    fn refresh_cache(&mut self) {
        let mut loads = vec![0u64; self.num_procs];
        let mut total = 0u64;
        for (job, &p) in self.jobs.iter().zip(&self.initial) {
            // Saturating: pathological near-u64::MAX sizes clamp instead of
            // aborting under overflow-checks; every derived bound stays a
            // valid (if conservative) u64.
            loads[p] = loads[p].saturating_add(job.size);
            total = total.saturating_add(job.size);
        }
        self.cached_loads = loads;
        self.cached_total = total;
    }

    /// Re-validate and repopulate caches after deserialization.
    ///
    /// `serde` skips the cache fields, so an instance read from JSON must be
    /// passed through this before use.
    pub fn into_validated(mut self) -> Result<Self> {
        let jobs = std::mem::take(&mut self.jobs);
        let initial = std::mem::take(&mut self.initial);
        Self::new(jobs, initial, self.num_procs)
    }

    /// Number of jobs `n`.
    #[inline]
    pub fn num_jobs(&self) -> usize {
        self.jobs.len()
    }

    /// Number of processors `m`.
    #[inline]
    pub fn num_procs(&self) -> usize {
        self.num_procs
    }

    /// All jobs, indexed by `JobId`.
    #[inline]
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// Size of job `j`.
    #[inline]
    pub fn size(&self, j: JobId) -> Size {
        self.jobs[j].size
    }

    /// Relocation cost of job `j`.
    #[inline]
    pub fn cost(&self, j: JobId) -> Cost {
        self.jobs[j].cost
    }

    /// The initial assignment.
    #[inline]
    pub fn initial(&self) -> &Assignment {
        &self.initial
    }

    /// Initial processor of job `j`.
    #[inline]
    pub fn initial_proc(&self, j: JobId) -> ProcId {
        self.initial[j]
    }

    /// Initial load of every processor.
    #[inline]
    pub fn initial_loads(&self) -> &[Size] {
        &self.cached_loads
    }

    /// Makespan (maximum processor load) of the initial assignment.
    pub fn initial_makespan(&self) -> Size {
        self.cached_loads.iter().copied().max().unwrap_or(0)
    }

    /// Sum of all job sizes.
    #[inline]
    pub fn total_size(&self) -> Size {
        self.cached_total
    }

    /// Average load, rounded up: `ceil(total / m)`. A lower bound on any
    /// achievable makespan.
    pub fn avg_load_ceil(&self) -> Size {
        self.cached_total.div_ceil(self.num_procs as u64)
    }

    /// Largest job size; another lower bound on any achievable makespan.
    pub fn max_job_size(&self) -> Size {
        self.jobs.iter().map(|j| j.size).max().unwrap_or(0)
    }

    /// Job ids grouped by initial processor.
    pub fn jobs_by_proc(&self) -> Vec<Vec<JobId>> {
        let mut per = vec![Vec::new(); self.num_procs];
        for (j, &p) in self.initial.iter().enumerate() {
            per[p].push(j);
        }
        per
    }

    /// Compute per-processor loads of an arbitrary assignment.
    ///
    /// # Errors
    ///
    /// Fails if the assignment has the wrong length or references a
    /// processor out of range.
    pub fn loads_of(&self, assignment: &[ProcId]) -> Result<Vec<Size>> {
        if assignment.len() != self.jobs.len() {
            return Err(Error::AssignmentLength {
                expected: self.jobs.len(),
                got: assignment.len(),
            });
        }
        let mut loads = vec![0u64; self.num_procs];
        for (j, &p) in assignment.iter().enumerate() {
            if p >= self.num_procs {
                return Err(Error::ProcOutOfRange {
                    job: j,
                    proc: p,
                    num_procs: self.num_procs,
                });
            }
            loads[p] = loads[p].saturating_add(self.jobs[j].size);
        }
        Ok(loads)
    }

    /// Makespan of an arbitrary assignment.
    pub fn makespan_of(&self, assignment: &[ProcId]) -> Result<Size> {
        Ok(self.loads_of(assignment)?.into_iter().max().unwrap_or(0))
    }

    /// Jobs whose processor differs between the initial assignment and
    /// `assignment` — the relocated set.
    pub fn moved_jobs(&self, assignment: &[ProcId]) -> Vec<JobId> {
        self.initial
            .iter()
            .zip(assignment)
            .enumerate()
            .filter(|(_, (a, b))| a != b)
            .map(|(j, _)| j)
            .collect()
    }

    /// Number of relocated jobs.
    pub fn move_count(&self, assignment: &[ProcId]) -> usize {
        self.initial
            .iter()
            .zip(assignment)
            .filter(|(a, b)| a != b)
            .count()
    }

    /// Total relocation cost of `assignment` relative to the initial one.
    pub fn move_cost(&self, assignment: &[ProcId]) -> Cost {
        self.cost_of(
            self.initial
                .iter()
                .zip(assignment)
                .enumerate()
                .filter(|(_, (a, b))| a != b)
                .map(|(j, _)| j),
        )
    }

    /// Total relocation cost of `jobs`, saturating at `u64::MAX`: the one
    /// definition of what moving a set of jobs costs.
    pub(crate) fn cost_of(&self, jobs: impl IntoIterator<Item = JobId>) -> Cost {
        jobs.into_iter()
            .map(|j| self.jobs[j].cost)
            .fold(0u64, u64::saturating_add)
    }

    /// True if every job has unit relocation cost.
    pub fn is_unit_cost(&self) -> bool {
        self.jobs.iter().all(|j| j.cost == 1)
    }

    /// Sum of all relocation costs (an upper bound on any useful budget).
    pub fn total_cost(&self) -> Cost {
        self.jobs
            .iter()
            .map(|j| j.cost)
            .fold(0u64, u64::saturating_add)
    }
}

/// Relocation budget: either a bound on the *number* of moved jobs
/// (the paper's `k`) or on the *total relocation cost* (the paper's `B`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Budget {
    /// Move at most this many jobs.
    Moves(usize),
    /// Total relocation cost of moved jobs at most this.
    Cost(Cost),
}

impl Budget {
    /// Whether an assignment for `inst` respects this budget.
    pub fn allows(&self, inst: &Instance, assignment: &[ProcId]) -> bool {
        match *self {
            Budget::Moves(k) => inst.move_count(assignment) <= k,
            Budget::Cost(b) => inst.move_cost(assignment) <= b,
        }
    }

    /// The budget expressed as a cost bound for unit-cost instances; `Moves(k)`
    /// maps to `k` since each move costs 1.
    pub fn as_cost(&self) -> Cost {
        match *self {
            Budget::Moves(k) => k as u64,
            Budget::Cost(b) => b,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Instance {
        // proc 0: sizes 5, 3; proc 1: size 4.
        Instance::from_sizes(&[5, 3, 4], vec![0, 0, 1], 2).unwrap()
    }

    #[test]
    fn construction_validates() {
        assert_eq!(
            Instance::from_sizes(&[1], vec![0], 0).unwrap_err(),
            Error::NoProcessors
        );
        assert!(matches!(
            Instance::from_sizes(&[1, 2], vec![0], 1).unwrap_err(),
            Error::LengthMismatch { .. }
        ));
        assert!(matches!(
            Instance::from_sizes(&[1], vec![3], 2).unwrap_err(),
            Error::ProcOutOfRange { proc: 3, .. }
        ));
    }

    #[test]
    fn cached_quantities() {
        let inst = toy();
        assert_eq!(inst.initial_loads(), &[8, 4]);
        assert_eq!(inst.initial_makespan(), 8);
        assert_eq!(inst.total_size(), 12);
        assert_eq!(inst.avg_load_ceil(), 6);
        assert_eq!(inst.max_job_size(), 5);
    }

    #[test]
    fn avg_load_rounds_up() {
        let inst = Instance::from_sizes(&[5, 4], vec![0, 1], 3).unwrap();
        // total 9 over 3 procs = 3 exactly; 10 over 3 = 4.
        assert_eq!(inst.avg_load_ceil(), 3);
        let inst = Instance::from_sizes(&[5, 5], vec![0, 1], 3).unwrap();
        assert_eq!(inst.avg_load_ceil(), 4);
    }

    #[test]
    fn loads_and_moves_of_assignment() {
        let inst = toy();
        let alt = vec![0, 1, 1];
        assert_eq!(inst.loads_of(&alt).unwrap(), vec![5, 7]);
        assert_eq!(inst.makespan_of(&alt).unwrap(), 7);
        assert_eq!(inst.moved_jobs(&alt), vec![1]);
        assert_eq!(inst.move_count(&alt), 1);
        assert_eq!(inst.move_cost(&alt), 1);
    }

    #[test]
    fn loads_of_rejects_bad_assignments() {
        let inst = toy();
        assert!(inst.loads_of(&[0]).is_err());
        assert!(inst.loads_of(&[0, 0, 9]).is_err());
    }

    #[test]
    fn move_cost_uses_job_costs() {
        let jobs = vec![
            Job::with_cost(5, 10),
            Job::with_cost(3, 7),
            Job::with_cost(4, 1),
        ];
        let inst = Instance::new(jobs, vec![0, 0, 1], 2).unwrap();
        assert!(!inst.is_unit_cost());
        assert_eq!(inst.total_cost(), 18);
        let alt = vec![1, 0, 0];
        assert_eq!(inst.move_cost(&alt), 11); // jobs 0 and 2 moved
    }

    #[test]
    fn budget_allows() {
        let inst = toy();
        let alt = vec![0, 1, 1];
        assert!(Budget::Moves(1).allows(&inst, &alt));
        assert!(!Budget::Moves(0).allows(&inst, &alt));
        assert!(Budget::Cost(1).allows(&inst, &alt));
        assert!(!Budget::Cost(0).allows(&inst, &alt));
        assert_eq!(Budget::Moves(4).as_cost(), 4);
        assert_eq!(Budget::Cost(9).as_cost(), 9);
    }

    #[test]
    fn jobs_by_proc_groups() {
        let inst = toy();
        assert_eq!(inst.jobs_by_proc(), vec![vec![0, 1], vec![2]]);
    }

    #[test]
    fn empty_instance_is_fine() {
        let inst = Instance::from_sizes(&[], vec![], 3).unwrap();
        assert_eq!(inst.initial_makespan(), 0);
        assert_eq!(inst.avg_load_ceil(), 0);
        assert_eq!(inst.max_job_size(), 0);
    }

    #[test]
    fn near_max_job_sizes_saturate_instead_of_overflowing() {
        // Two jobs near u64::MAX on one processor: the summed load would
        // overflow; saturating accumulation must clamp, not abort (this is
        // the regression test for running with overflow-checks on).
        let big = u64::MAX - 3;
        let inst = Instance::from_sizes(&[big, big, 1], vec![0, 0, 1], 2).unwrap();
        assert_eq!(inst.initial_loads(), &[u64::MAX, 1]);
        assert_eq!(inst.total_size(), u64::MAX);
        assert_eq!(inst.initial_makespan(), u64::MAX);
        assert_eq!(inst.loads_of(&[0, 0, 0]).unwrap(), vec![u64::MAX, 0]);

        // Cost accumulation saturates too.
        let jobs = vec![Job::with_cost(1, big), Job::with_cost(1, big)];
        let ci = Instance::new(jobs, vec![0, 0], 2).unwrap();
        assert_eq!(ci.total_cost(), u64::MAX);
        assert_eq!(ci.move_cost(&[1, 1]), u64::MAX);
    }

    #[test]
    fn into_validated_rebuilds_caches() {
        let inst = toy();
        // Simulate a deserialized instance with empty caches.
        let mut raw = inst.clone();
        raw.cached_loads.clear();
        raw.cached_total = 0;
        let fixed = raw.into_validated().unwrap();
        assert_eq!(fixed.initial_loads(), inst.initial_loads());
        assert_eq!(fixed.total_size(), inst.total_size());
    }
}
