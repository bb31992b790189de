//! The *general* generalized-assignment problem with machine-dependent
//! costs `c_{jp}` — the full Shmoys–Tardos \[14\] setting.
//!
//! Load rebalancing is the special case `c_{jp} ∈ {0, c_j}` (§2); the
//! Theorem 6 hardness gadget is the special case `c_{jp} ∈ {p, q}`. This
//! module hands the general cost matrix to [`crate::gap`]'s LP and
//! rounding: minimize assignment cost subject to makespan at most `T`,
//! solved fractionally and rounded to an integral assignment of makespan at
//! most `T + max_j s_j ≤ 2T`. The rounded cost is that of the integral jobs
//! plus a min-cost matching of the fractional ones, and it can exceed the
//! fractional optimum; `lrb_lp::rebalance` climbs its guess until the
//! rounded cost fits its budget.
//!
//! Experiment T19 uses this on the Theorem 6 gadgets to *demonstrate* the
//! hardness result: the rounding's factor-2 makespan blowup is exactly why
//! a polynomial 2-approximation cannot decide 3-Dimensional Matching, and
//! why the paper's `ρ < 3/2` lower bound leaves real room.

use crate::gap::{relax, round};

/// A general GAP instance: jobs with sizes and a full per-machine cost
/// matrix. (Sizes are machine-independent, matching the paper's §5 focus;
/// the LP and rounding would extend to `p_{jp}` unchanged.)
#[derive(Debug, Clone)]
pub struct GapInstance {
    /// Number of machines.
    pub num_machines: usize,
    /// Job sizes.
    pub sizes: Vec<u64>,
    /// `costs[j][p]` — cost of placing job `j` on machine `p`.
    pub costs: Vec<Vec<u64>>,
}

impl GapInstance {
    /// Build and validate.
    pub fn new(num_machines: usize, sizes: Vec<u64>, costs: Vec<Vec<u64>>) -> Self {
        assert!(num_machines > 0, "need at least one machine");
        assert_eq!(sizes.len(), costs.len(), "one cost row per job");
        for row in &costs {
            assert_eq!(row.len(), num_machines, "one cost per machine");
        }
        GapInstance {
            num_machines,
            sizes,
            costs,
        }
    }

    /// Number of jobs.
    pub fn num_jobs(&self) -> usize {
        self.sizes.len()
    }

    /// Total cost of an assignment.
    pub fn cost_of(&self, assignment: &[usize]) -> u64 {
        assignment
            .iter()
            .enumerate()
            .map(|(j, &p)| self.costs[j][p])
            .sum()
    }

    /// Makespan of an assignment.
    pub fn makespan_of(&self, assignment: &[usize]) -> u64 {
        let mut loads = vec![0u64; self.num_machines];
        for (j, &p) in assignment.iter().enumerate() {
            loads[p] += self.sizes[j];
        }
        loads.into_iter().max().unwrap_or(0)
    }
}

/// Result of the LP + rounding pipeline at a makespan guess.
#[derive(Debug, Clone)]
pub struct GapSolution {
    /// The integral assignment.
    pub assignment: Vec<usize>,
    /// Its cost: the integral jobs' plus a min-cost matching of the
    /// fractional ones, which can exceed `lp_cost`.
    pub cost: u64,
    /// Its makespan (at most `T + max_j s_j ≤ 2T`).
    pub makespan: u64,
    /// The fractional optimum the LP found.
    pub lp_cost: f64,
}

/// Minimize assignment cost subject to fractional makespan ≤ `t`, then
/// round (Lenstra–Shmoys–Tardos): `None` when the LP is infeasible (a job
/// exceeds `t`, or volume exceeds `m·t`).
pub fn solve_at(inst: &GapInstance, t: u64) -> Option<GapSolution> {
    let cost = |j: usize, p: usize| inst.costs[j][p];
    let frac = relax(&inst.sizes, inst.num_machines, t, |j, p| Some(cost(j, p)))?;
    let assignment = round(&frac, inst.num_machines, cost);
    let makespan = inst.makespan_of(&assignment);
    debug_assert!(
        makespan <= 2 * t,
        "rounding exceeded 2T: {makespan} > {}",
        2 * t
    );
    Some(GapSolution {
        cost: inst.cost_of(&assignment),
        assignment,
        makespan,
        lp_cost: frac.cost,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag_instance() -> GapInstance {
        // 3 jobs, 3 machines; diagonal placements are cheap.
        GapInstance::new(
            3,
            vec![5, 5, 5],
            vec![vec![1, 9, 9], vec![9, 1, 9], vec![9, 9, 1]],
        )
    }

    #[test]
    fn picks_cheap_diagonal() {
        let inst = diag_instance();
        let sol = solve_at(&inst, 5).unwrap();
        assert_eq!(sol.assignment, vec![0, 1, 2]);
        assert_eq!(sol.cost, 3);
        assert_eq!(sol.makespan, 5);
    }

    #[test]
    fn infeasible_when_job_too_big() {
        let inst = GapInstance::new(2, vec![10, 1], vec![vec![1, 1], vec![1, 1]]);
        assert!(solve_at(&inst, 9).is_none());
        assert!(solve_at(&inst, 10).is_some());
    }

    #[test]
    fn rounding_respects_two_t() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(71);
        for _ in 0..30 {
            let n = rng.gen_range(2..=7);
            let m = rng.gen_range(2..=3);
            let sizes: Vec<u64> = (0..n).map(|_| rng.gen_range(1..=9)).collect();
            let costs: Vec<Vec<u64>> = (0..n)
                .map(|_| (0..m).map(|_| rng.gen_range(1..=9)).collect())
                .collect();
            let inst = GapInstance::new(m, sizes.clone(), costs);
            let total: u64 = sizes.iter().sum();
            let t = (total.div_ceil(m as u64)).max(sizes.iter().copied().max().unwrap());
            if let Some(sol) = solve_at(&inst, t) {
                assert!(sol.makespan <= 2 * t, "makespan {} > 2*{t}", sol.makespan);
                assert_eq!(sol.cost, inst.cost_of(&sol.assignment));
                // The min-cost matching of the fractional jobs can cost
                // more than their LP share; 9.0 is one job's largest cost.
                assert!(
                    sol.cost as f64 <= sol.lp_cost + 1e-3 + 9.0,
                    "cost {} vs lp {}",
                    sol.cost,
                    sol.lp_cost
                );
            }
        }
    }

    #[test]
    fn section_2_costs_round_like_load_rebalancing() {
        use crate::gap::{relocation_cost, round, solve_relaxation};
        use lrb_core::model::{Instance, Job};
        use rand::{Rng, SeedableRng};
        for seed in 0..2000u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let n = rng.gen_range(2..=8);
            let m = rng.gen_range(2..=4);
            let jobs: Vec<Job> = (0..n)
                .map(|_| Job::with_cost(rng.gen_range(1..=9), rng.gen_range(0..=9)))
                .collect();
            let initial: Vec<usize> = (0..n).map(|_| rng.gen_range(0..m)).collect();
            let inst = Instance::new(jobs, initial, m).unwrap();
            let costs: Vec<Vec<u64>> = (0..n)
                .map(|j| (0..m).map(|p| relocation_cost(&inst, j, p)).collect())
                .collect();
            let sizes: Vec<u64> = inst.jobs().iter().map(|job| job.size).collect();
            let gap = GapInstance::new(m, sizes, costs);
            let t0 = inst.max_job_size().max(inst.avg_load_ceil());
            for t in [t0, t0 + 1, inst.initial_makespan()] {
                let rebalancing = solve_relaxation(&inst, t)
                    .map(|frac| round(&frac, m, |j, p| relocation_cost(&inst, j, p)));
                let general = solve_at(&gap, t).map(|sol| sol.assignment);
                assert_eq!(general, rebalancing, "seed {seed}, t = {t}");
            }
        }
    }

    #[test]
    fn theorem6_gadget_connection() {
        use lrb_instances::reductions::{theorem6_gadget, ThreeDm};
        // Matchable 3DM: exact feasibility holds at makespan 2; the
        // LP+rounding finds cost <= budget with makespan <= 4 = 2T.
        let tdm = ThreeDm::new(2, vec![(0, 0, 0), (1, 1, 1), (0, 1, 0)]);
        let g = theorem6_gadget(&tdm, 1, 100);
        let costs: Vec<Vec<u64>> = (0..g.num_jobs())
            .map(|j| (0..g.num_machines).map(|p| g.cost(j, p)).collect())
            .collect();
        let inst = GapInstance::new(g.num_machines, g.sizes.clone(), costs);
        let sol = solve_at(&inst, g.target_makespan).unwrap();
        assert!(sol.makespan <= 2 * g.target_makespan);
        assert!(
            sol.cost <= g.budget,
            "matchable gadget rounds within budget"
        );
    }
}
