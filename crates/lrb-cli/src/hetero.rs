//! The `hetero` report: speed-scaled solvers, stochastic sizes, and path
//! independence in one schema-versioned document (`HETERO_1.json`).
//!
//! Three sections, each exercising a different extension of the paper's
//! identical-machine model:
//!
//! * `solvers` — seeded instance batches solved by the speed-scaled GREEDY
//!   and M-PARTITION through the work-stealing batch engine
//!   ([`lrb_engine::solve_hetero_batch_recorded`]); quality is reported
//!   against the speed-scaled lower bound
//!   `max(⌈total/Σv⌉, ⌈s_max/v_max⌉)`, which the exact oracle can never
//!   beat, so the ratios are conservative.
//! * `stochastic` — the Gupta-style effective-size policy
//!   ([`lrb_sim::stochastic`]) scored against plain mean-based scheduling
//!   over seeded size realizations.
//! * `path_independence` — the Aspnes–Yang–Yin drill
//!   ([`lrb_faults::pathind`]): crash-path evacuation versus a from-scratch
//!   solve on the final survivor set, divergence recorded and bounded.

use lrb_core::hetero::{self, Speeds};
use lrb_engine::{solve_hetero_batch_recorded, EngineConfig, HeteroBatchItem, HeteroBatchSolver};
use lrb_faults::pathind;
use lrb_instances::generators::{CostModel, GeneratorConfig, PlacementModel, SizeDistribution};
use lrb_obs::Recorder;
use lrb_sim::stochastic::{self, StochasticConfig, StochasticWorkload};
use serde::{Deserialize, Serialize};

/// Version stamp on every [`HeteroReport`]; bump on breaking field changes.
pub const HETERO_SCHEMA_VERSION: u32 = 1;

/// Everything the `hetero` run is parameterized by.
#[derive(Debug, Clone)]
pub struct HeteroRunConfig {
    /// Jobs per solver instance (and stochastic workload).
    pub jobs: usize,
    /// Processors everywhere.
    pub procs: usize,
    /// Move budget per solve.
    pub moves: usize,
    /// Per-processor speeds (length `procs`).
    pub speeds: Vec<u64>,
    /// Seeded solver instances per solver.
    pub instances: usize,
    /// Effective-size hedge θ, in percent of a job's spread.
    pub theta_pct: u64,
    /// Stochastic realizations scored per policy.
    pub trials: usize,
    /// Seeds of the path-independence drill.
    pub pi_seeds: u64,
    /// Per-epoch crash probability in the drill.
    pub crash_rate: f64,
    /// Per-epoch recovery probability in the drill.
    pub recovery_rate: f64,
    /// Master seed.
    pub seed: u64,
}

impl HeteroRunConfig {
    /// The default speed ladder `1, 2, 3, 1, 2, 3, …` — deterministic,
    /// heterogeneous for every `m ≥ 2`, and kind to mental arithmetic.
    pub fn default_speeds(procs: usize) -> Vec<u64> {
        (0..procs).map(|p| 1 + (p % 3) as u64).collect()
    }
}

/// One solver's aggregate over the seeded instance batch.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct HeteroSolverPoint {
    /// `"greedy"` or `"mpartition"`.
    pub solver: String,
    /// Instances solved.
    pub instances: usize,
    /// Σ speed-scaled makespan across instances.
    pub total_scaled_makespan: u64,
    /// Σ speed-scaled lower bound across instances.
    pub total_lower_bound: u64,
    /// Worst per-instance `1000·makespan/lower_bound`.
    pub max_ratio_x1000: u64,
    /// Σ moves spent.
    pub total_moves: u64,
    /// Instances whose solution exceeded the move budget (always 0).
    pub budget_violations: u64,
}

/// The stochastic section (mirrors [`lrb_sim::EffectiveSizeReport`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct HeteroStochasticPoint {
    /// Realizations scored.
    pub trials: usize,
    /// The hedge θ used, in percent.
    pub theta_pct: u64,
    /// Σ realized scaled makespan, θ-hedged assignment.
    pub total_effective: u64,
    /// Σ realized scaled makespan, mean-based assignment.
    pub total_mean_based: u64,
    /// Trials the hedged assignment won outright.
    pub improved_trials: usize,
    /// Trials the hedged assignment lost outright.
    pub regressed_trials: usize,
    /// Moves the hedged assignment spent.
    pub moves_effective: usize,
    /// Moves the mean-based assignment spent.
    pub moves_mean_based: usize,
}

/// The path-independence section (mirrors [`lrb_faults::PathDrillStats`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct HeteroPathPoint {
    /// Seeds drilled.
    pub seeds: u64,
    /// Seeds where the crash path reached the direct assignment exactly.
    pub exact_matches: u64,
    /// Seeds whose plan injected no crash (these always match).
    pub fault_free: u64,
    /// Σ hamming distance across seeds.
    pub total_hamming: u64,
    /// Worst per-seed hamming distance.
    pub max_hamming: u64,
    /// Worst per-seed makespan ratio ×1000 between path and direct.
    pub max_ratio_x1000: u64,
}

/// The full `HETERO_1.json` document.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct HeteroReport {
    /// Schema version ([`HETERO_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Jobs per instance.
    pub jobs: usize,
    /// Processors.
    pub procs: usize,
    /// Move budget.
    pub moves: usize,
    /// Master seed.
    pub seed: u64,
    /// The speed vector every section ran with.
    pub speeds: Vec<u64>,
    /// One row per speed-scaled solver.
    pub solvers: Vec<HeteroSolverPoint>,
    /// Effective-size policy evaluation.
    pub stochastic: HeteroStochasticPoint,
    /// Path-independence drill aggregate.
    pub path_independence: HeteroPathPoint,
}

fn solver_name(solver: HeteroBatchSolver) -> &'static str {
    match solver {
        HeteroBatchSolver::Greedy => "greedy",
        HeteroBatchSolver::MPartition => "mpartition",
    }
}

fn solver_point<R: Recorder + Sync>(
    items: &[HeteroBatchItem],
    solver: HeteroBatchSolver,
    rec: &R,
) -> Result<HeteroSolverPoint, String> {
    let report = solve_hetero_batch_recorded(items, solver, &EngineConfig::default(), rec);
    let mut point = HeteroSolverPoint {
        solver: solver_name(solver).to_string(),
        instances: items.len(),
        total_scaled_makespan: 0,
        total_lower_bound: 0,
        max_ratio_x1000: 1000,
        total_moves: 0,
        budget_violations: 0,
    };
    for (item, outcome) in items.iter().zip(&report.outcomes) {
        let assignment = outcome.assignment();
        let ms = hetero::scaled_makespan(&item.instance, &item.speeds, assignment)
            .map_err(|e| format!("hetero makespan: {e}"))?;
        let lb = hetero::scaled_lower_bound(&item.instance, &item.speeds).max(1);
        let moves = item.instance.move_count(assignment);
        point.total_scaled_makespan += ms;
        point.total_lower_bound += lb;
        point.max_ratio_x1000 = point
            .max_ratio_x1000
            .max((u128::from(ms) * 1000 / u128::from(lb)) as u64);
        point.total_moves += moves as u64;
        if moves > item.moves {
            point.budget_violations += 1;
        }
    }
    Ok(point)
}

/// Run all three sections and assemble the report. Deterministic in `cfg`.
pub fn run<R: Recorder + Sync>(cfg: &HeteroRunConfig, rec: &R) -> Result<HeteroReport, String> {
    let speeds = Speeds::new(cfg.speeds.clone()).map_err(|e| format!("--speeds: {e}"))?;
    if speeds.len() != cfg.procs {
        return Err(format!(
            "--speeds has {} entries, expected {}",
            speeds.len(),
            cfg.procs
        ));
    }

    // Solver section: one seeded instance batch, both solvers.
    let items: Vec<HeteroBatchItem> = (0..cfg.instances)
        .map(|i| HeteroBatchItem {
            instance: GeneratorConfig {
                n: cfg.jobs,
                m: cfg.procs,
                sizes: SizeDistribution::Uniform { lo: 1, hi: 100 },
                placement: PlacementModel::Random,
                costs: CostModel::Unit,
            }
            .generate(cfg.seed.wrapping_add(i as u64)),
            speeds: speeds.clone(),
            moves: cfg.moves,
        })
        .collect();
    let solvers = vec![
        solver_point(&items, HeteroBatchSolver::Greedy, rec)?,
        solver_point(&items, HeteroBatchSolver::MPartition, rec)?,
    ];

    // Stochastic section.
    let workload =
        StochasticWorkload::generate(&StochasticConfig::uniform(cfg.jobs, cfg.procs, cfg.seed));
    let s = stochastic::evaluate(
        &workload,
        &speeds,
        cfg.moves,
        cfg.theta_pct,
        cfg.trials,
        cfg.seed,
    )
    .map_err(|e| format!("stochastic evaluation: {e}"))?;
    let stochastic = HeteroStochasticPoint {
        trials: s.trials,
        theta_pct: s.theta_pct,
        total_effective: s.total_effective,
        total_mean_based: s.total_mean_based,
        improved_trials: s.improved_trials,
        regressed_trials: s.regressed_trials,
        moves_effective: s.moves_effective,
        moves_mean_based: s.moves_mean_based,
    };

    // Path-independence section.
    let p = pathind::drill(&pathind::PathDrillConfig {
        seeds: cfg.pi_seeds,
        jobs: cfg.jobs,
        procs: cfg.procs,
        epochs: 8,
        crash_rate: cfg.crash_rate,
        recovery_rate: cfg.recovery_rate,
        max_size: 50,
        max_speed: *cfg.speeds.iter().max().unwrap_or(&1),
        seed: cfg.seed,
    })
    .map_err(|e| format!("path-independence drill: {e}"))?;
    let path_independence = HeteroPathPoint {
        seeds: p.seeds,
        exact_matches: p.exact_matches,
        fault_free: p.fault_free,
        total_hamming: p.total_hamming,
        max_hamming: p.max_hamming,
        max_ratio_x1000: p.max_ratio_x1000,
    };

    let report = HeteroReport {
        schema_version: HETERO_SCHEMA_VERSION,
        jobs: cfg.jobs,
        procs: cfg.procs,
        moves: cfg.moves,
        seed: cfg.seed,
        speeds: cfg.speeds.clone(),
        solvers,
        stochastic,
        path_independence,
    };
    check(&report)?;
    Ok(report)
}

/// Budget discipline is a hard invariant, not a statistic: a solver row
/// with any instance over its move budget fails the run.
pub fn check(report: &HeteroReport) -> Result<(), String> {
    match report.solvers.iter().find(|p| p.budget_violations > 0) {
        Some(p) => Err(format!(
            "{}: {} instance(s) exceeded the {}-move budget",
            p.solver, p.budget_violations, report.moves
        )),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_budget_violation_fails_the_run() {
        let row = |solver: &str, budget_violations| HeteroSolverPoint {
            solver: solver.to_string(),
            instances: 4,
            total_scaled_makespan: 40,
            total_lower_bound: 36,
            max_ratio_x1000: 1200,
            total_moves: 8,
            budget_violations,
        };
        let mut report = HeteroReport {
            schema_version: HETERO_SCHEMA_VERSION,
            jobs: 8,
            procs: 2,
            moves: 2,
            seed: 0,
            speeds: vec![1, 2],
            solvers: vec![row("greedy", 0), row("mpartition", 0)],
            stochastic: HeteroStochasticPoint {
                trials: 1,
                theta_pct: 50,
                total_effective: 10,
                total_mean_based: 10,
                improved_trials: 0,
                regressed_trials: 0,
                moves_effective: 1,
                moves_mean_based: 1,
            },
            path_independence: HeteroPathPoint {
                seeds: 1,
                exact_matches: 1,
                fault_free: 1,
                total_hamming: 0,
                max_hamming: 0,
                max_ratio_x1000: 1000,
            },
        };
        check(&report).unwrap();
        report.solvers[1].budget_violations = 3;
        let err = check(&report).unwrap_err();
        assert!(err.contains("mpartition: 3 instance(s)"), "{err}");
    }
}
