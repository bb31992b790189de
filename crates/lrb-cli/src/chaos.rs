//! The `chaos` sweep: degradation curves across a fault-rate ladder.
//!
//! Each sweep point generates a seeded [`FaultPlan`] from a
//! [`lrb_harness::scenarios`] scenario and runs the web-farm simulator
//! under it for a pair of policies (the headline M-PARTITION and the
//! graceful [`FallbackPolicy`] chain). Results are a schema-versioned
//! [`ChaosReport`] for machine consumption plus whatever the caller
//! renders from it; all simulator telemetry flows through the shared
//! `lrb-obs` recorder.

use lrb_faults::{FaultConfig, FaultPlan};
use lrb_harness::scenarios::{crash_sweep, FaultScenario};
use lrb_obs::Recorder;
use lrb_sim::{
    run_farm_faulty_recorded, FallbackPolicy, FarmConfig, MPartitionPolicy, Policy, SimReport,
};
use serde::{Deserialize, Serialize};

/// Version stamp on every [`ChaosReport`]; bump on breaking field changes.
pub const CHAOS_SCHEMA_VERSION: u32 = 1;

/// One (scenario, policy) cell of the sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ChaosPoint {
    /// Scenario name (see [`lrb_harness::scenarios`]).
    pub scenario: String,
    /// The scenario's per-epoch crash probability.
    pub crash_rate: f64,
    /// Policy that ran.
    pub policy: String,
    /// Mean makespan / avg-load across epochs.
    pub mean_imbalance: f64,
    /// 95th-percentile imbalance.
    pub p95_imbalance: f64,
    /// Total migrations (forced + policy) over the run.
    pub total_migrations: usize,
    /// Epochs where anything degraded.
    pub epochs_degraded: u64,
    /// Epochs answered by a fallback tier below the first choice.
    pub fallback_invocations: u64,
    /// Evacuation moves forced by crashes.
    pub forced_migrations: u64,
    /// Policy answers rejected as invalid or over budget.
    pub policy_rejections: u64,
    /// Epochs whose solver budget was declared exhausted.
    pub budget_exhausted_epochs: u64,
    /// Mean makespan regret vs. an LPT oracle over surviving servers.
    pub mean_oracle_regret: f64,
}

impl ChaosPoint {
    fn from_report(scenario: &FaultScenario, report: &SimReport) -> Self {
        let d = &report.degradation;
        ChaosPoint {
            scenario: scenario.name.clone(),
            crash_rate: scenario.config.crash_rate,
            policy: report.policy.clone(),
            mean_imbalance: report.mean_imbalance(),
            p95_imbalance: report.percentile_imbalance(95.0),
            total_migrations: report.total_migrations(),
            epochs_degraded: d.epochs_degraded,
            fallback_invocations: d.fallback_invocations,
            forced_migrations: d.forced_migrations,
            policy_rejections: d.policy_rejections,
            budget_exhausted_epochs: d.budget_exhausted_epochs,
            mean_oracle_regret: d.mean_oracle_regret,
        }
    }
}

/// The full sweep output: degradation curves over the crash-rate ladder.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ChaosReport {
    /// Schema version ([`CHAOS_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Number of websites in the simulated farm.
    pub sites: usize,
    /// Number of servers.
    pub servers: usize,
    /// Epochs per run.
    pub epochs: usize,
    /// Per-epoch move budget.
    pub moves: usize,
    /// Master seed (workload and fault plans).
    pub seed: u64,
    /// One row per (scenario, policy).
    pub points: Vec<ChaosPoint>,
}

/// Run the sweep: every [`crash_sweep`] scenario of `base`, each under the
/// M-PARTITION policy and the fallback chain.
pub fn sweep<R: Recorder>(
    farm: &FarmConfig,
    base: &FaultConfig,
    moves: usize,
    rec: &R,
) -> ChaosReport {
    let mut points = Vec::new();
    for scenario in crash_sweep(base) {
        let plan = FaultPlan::generate(&scenario.config, farm.num_servers, farm.epochs);
        let policies: Vec<Box<dyn Policy>> = vec![
            Box::new(MPartitionPolicy),
            Box::new(FallbackPolicy::practical()),
        ];
        for mut policy in policies {
            let report = run_farm_faulty_recorded(farm, policy.as_mut(), &plan, rec);
            points.push(ChaosPoint::from_report(&scenario, &report));
        }
    }
    ChaosReport {
        schema_version: CHAOS_SCHEMA_VERSION,
        sites: farm.workload.num_sites,
        servers: farm.num_servers,
        epochs: farm.epochs,
        moves,
        seed: farm.seed,
        points,
    }
}
