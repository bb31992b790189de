//! The `online` subcommand: streaming arrivals/departures with a banked
//! move budget.
//!
//! Drives [`lrb_sim::run_farm_online_recorded`] — an [`OnlineRebalancer`]
//! fed by a seeded churn stream, rebalanced once per epoch under the
//! amortized move bank — and emits a schema-versioned JSON report
//! (`ONLINE_1.json` by convention) with the run's summary counters plus a
//! per-epoch curve (makespan, migrations, banked balance, churn).
//!
//! [`OnlineRebalancer`]: lrb_core::online::OnlineRebalancer

use lrb_core::model::Budget;
use lrb_obs::Recorder;
use lrb_sim::{run_farm_online_recorded, OnlineRunReport, OnlineWorkloadConfig};
use serde::{Deserialize, Serialize};

/// Version stamp on every [`OnlineReport`]; bump on breaking field changes.
pub const ONLINE_SCHEMA_VERSION: u32 = 1;

/// One epoch of the online trace.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct OnlineEpochPoint {
    /// Epoch index (contiguous from 0).
    pub epoch: usize,
    /// Makespan after the epoch's rebalance.
    pub makespan: u64,
    /// Ceiling of the average load that epoch.
    pub avg_load: u64,
    /// Jobs migrated by the epoch's rebalance.
    pub migrations: usize,
    /// Total migration cost of those moves.
    pub migration_cost: u64,
    /// Bank balance after the rebalance.
    pub banked: u64,
    /// Arrivals applied before the rebalance.
    pub arrivals: usize,
    /// Departures applied before the rebalance.
    pub departures: usize,
}

/// The full online-run output.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct OnlineReport {
    /// Schema version ([`ONLINE_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Number of servers.
    pub servers: usize,
    /// Epochs simulated.
    pub epochs: usize,
    /// Jobs present before epoch 0.
    pub initial_jobs: usize,
    /// Mean arrivals per epoch.
    pub arrival_rate: f64,
    /// Mean job lifetime in epochs.
    pub mean_lifetime: f64,
    /// Budget kind requested each epoch: `moves` or `cost`.
    pub budget_kind: String,
    /// Requested budget amount (the bank may grant less).
    pub budget_amount: u64,
    /// Bank credit accrued per rebalance event.
    pub bank_accrual: u64,
    /// Bank balance cap.
    pub bank_cap: u64,
    /// Bank opening balance.
    pub bank_initial: u64,
    /// Event-stream seed.
    pub seed: u64,
    /// Policy label (`online-mpartition` or `online-cost-partition`).
    pub policy: String,
    /// Total events applied (arrivals + departures + rebalances).
    pub events: u64,
    /// Arrival events applied.
    pub arrivals: u64,
    /// Departure events applied.
    pub departures: u64,
    /// Rebalance events applied.
    pub rebalances: u64,
    /// Rebalances served by the incrementally maintained ladder.
    pub incremental_updates: u64,
    /// Rebalances that rebuilt solver state from scratch.
    pub full_rebuilds: u64,
    /// Jobs migrated across the whole run.
    pub moves_performed: u64,
    /// Mean makespan / avg-load across epochs.
    pub mean_imbalance: f64,
    /// 95th-percentile imbalance.
    pub p95_imbalance: f64,
    /// Total migrations over the run.
    pub total_migrations: usize,
    /// Total migration cost over the run.
    pub total_migration_cost: u64,
    /// Makespan after the final epoch.
    pub final_makespan: u64,
    /// Per-server loads after the final epoch.
    pub final_loads: Vec<u64>,
    /// The per-epoch curve.
    pub epoch_curve: Vec<OnlineEpochPoint>,
}

impl OnlineReport {
    /// Assemble the report from a finished run.
    pub fn from_run(cfg: &OnlineWorkloadConfig, run: &OnlineRunReport) -> Self {
        let (budget_kind, budget_amount) = match cfg.budget {
            Budget::Moves(k) => ("moves".to_string(), k as u64),
            Budget::Cost(b) => ("cost".to_string(), b),
        };
        let epoch_curve = run
            .sim
            .epochs
            .iter()
            .enumerate()
            .map(|(i, m)| OnlineEpochPoint {
                epoch: m.epoch,
                makespan: m.makespan,
                avg_load: m.avg_load,
                migrations: m.migrations,
                migration_cost: m.migration_cost,
                banked: run.banked_per_epoch[i],
                arrivals: run.arrivals_per_epoch[i],
                departures: run.departures_per_epoch[i],
            })
            .collect();
        OnlineReport {
            schema_version: ONLINE_SCHEMA_VERSION,
            servers: cfg.num_procs,
            epochs: cfg.epochs,
            initial_jobs: cfg.initial_jobs,
            arrival_rate: cfg.arrival_rate,
            mean_lifetime: cfg.mean_lifetime,
            budget_kind,
            budget_amount,
            bank_accrual: cfg.bank.accrual,
            bank_cap: cfg.bank.cap,
            bank_initial: cfg.bank.initial,
            seed: cfg.seed,
            policy: run.sim.policy.clone(),
            events: run.stats.events,
            arrivals: run.stats.arrivals,
            departures: run.stats.departures,
            rebalances: run.stats.rebalances,
            incremental_updates: run.stats.incremental_updates,
            full_rebuilds: run.stats.full_rebuilds,
            moves_performed: run.stats.moves_performed,
            mean_imbalance: run.sim.mean_imbalance(),
            p95_imbalance: run.sim.percentile_imbalance(95.0),
            total_migrations: run.sim.total_migrations(),
            total_migration_cost: run.sim.total_cost(),
            final_makespan: run.sim.epochs.last().map_or(0, |m| m.makespan),
            final_loads: run.final_loads.clone(),
            epoch_curve,
        }
    }
}

/// Run one online farm and package the report.
pub fn run<R: Recorder>(cfg: &OnlineWorkloadConfig, rec: &R) -> OnlineReport {
    let run = run_farm_online_recorded(cfg, rec);
    OnlineReport::from_run(cfg, &run)
}

/// Render the human-readable summary.
pub fn render(report: &OnlineReport) -> String {
    let mut out = format!(
        "online farm — {} servers / {} epochs / {} {} requested per epoch (bank {}+{}≤{})\n",
        report.servers,
        report.epochs,
        report.budget_amount,
        report.budget_kind,
        report.bank_initial,
        report.bank_accrual,
        report.bank_cap,
    );
    out.push_str(&format!("policy:        {}\n", report.policy));
    out.push_str(&format!(
        "events:        {} ({} arrivals, {} departures, {} rebalances)\n",
        report.events, report.arrivals, report.departures, report.rebalances
    ));
    out.push_str(&format!(
        "solver:        {} incremental / {} full rebuilds\n",
        report.incremental_updates, report.full_rebuilds
    ));
    out.push_str(&format!(
        "migrations:    {} (cost {})\n",
        report.total_migrations, report.total_migration_cost
    ));
    out.push_str(&format!(
        "imbalance:     mean {:.3}, p95 {:.3}\n",
        report.mean_imbalance, report.p95_imbalance
    ));
    out.push_str(&format!(
        "final:         makespan {}, loads {:?}",
        report.final_makespan, report.final_loads
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrb_obs::NoopRecorder;

    #[test]
    fn report_curve_matches_the_run() {
        let mut cfg = OnlineWorkloadConfig::default_online(4);
        cfg.epochs = 12;
        cfg.seed = 7;
        let report = run(&cfg, &NoopRecorder);
        assert_eq!(report.schema_version, ONLINE_SCHEMA_VERSION);
        assert_eq!(report.epoch_curve.len(), 12);
        assert_eq!(report.rebalances, 12);
        assert_eq!(
            report.arrivals,
            report
                .epoch_curve
                .iter()
                .map(|p| p.arrivals as u64)
                .sum::<u64>()
                + report.initial_jobs as u64
        );
        assert_eq!(
            report.departures,
            report
                .epoch_curve
                .iter()
                .map(|p| p.departures as u64)
                .sum::<u64>()
        );
        assert!(report
            .epoch_curve
            .iter()
            .all(|p| p.banked <= report.bank_cap));
        assert_eq!(report.final_loads.len(), 4);
        let rendered = render(&report);
        assert!(rendered.contains("online farm"), "{rendered}");
        assert!(rendered.contains("rebalances"), "{rendered}");
    }
}
