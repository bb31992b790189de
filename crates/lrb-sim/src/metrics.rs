//! Per-epoch and aggregate metrics for simulation runs.

use lrb_obs::{names, Tracer};
use serde::{Deserialize, Serialize};

/// Metrics of one epoch.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EpochMetrics {
    /// Epoch index.
    pub epoch: usize,
    /// Makespan after rebalancing.
    pub makespan: u64,
    /// Average server load (ceiling), the per-epoch lower bound.
    pub avg_load: u64,
    /// Number of migrations performed this epoch.
    pub migrations: usize,
    /// Total migration cost this epoch.
    pub migration_cost: u64,
}

impl EpochMetrics {
    /// Imbalance = makespan / avg (≥ 1.0).
    pub fn imbalance(&self) -> f64 {
        self.makespan as f64 / self.avg_load.max(1) as f64
    }
}

/// How often the policy actually changed the placement.
///
/// An epoch counts as `rebalanced` when the policy migrated at least one
/// job, `unchanged` otherwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct DecisionCounters {
    /// Epochs where the policy migrated at least one job.
    pub rebalanced: u64,
    /// Epochs where the policy left the placement as-is.
    pub unchanged: u64,
}

impl DecisionCounters {
    /// Fold one epoch's migration count into the counters.
    pub fn record(&mut self, migrations: usize) {
        if migrations > 0 {
            self.rebalanced += 1;
        } else {
            self.unchanged += 1;
        }
    }

    /// Total decisions recorded.
    pub fn total(&self) -> u64 {
        self.rebalanced + self.unchanged
    }
}

/// Degradation bookkeeping for fault-injected runs.
///
/// All-zero (the [`Default`]) for fault-free runs; old JSON reports without
/// the field parse to exactly that.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct DegradationMetrics {
    /// Epochs where anything degraded: forced evacuations, a rejected
    /// policy answer, a fallback past the first tier, or an exhausted
    /// solver budget.
    pub epochs_degraded: u64,
    /// Epochs answered by a fallback tier below the first choice.
    pub fallback_invocations: u64,
    /// Migrations forced by evacuating jobs off crashed processors (they
    /// count against the epoch budget).
    pub forced_migrations: u64,
    /// Relocation cost of those forced migrations.
    pub forced_migration_cost: u64,
    /// Epochs whose policy answer was invalid or over budget and was
    /// discarded in favor of the evacuated placement.
    pub policy_rejections: u64,
    /// Epochs whose solver work budget was declared exhausted by the fault
    /// plan.
    pub budget_exhausted_epochs: u64,
    /// Mean makespan-vs-oracle regret across epochs: the oracle is a full
    /// LPT rebalance over the *up* processors, so regret =
    /// `mean(makespan / oracle − 1)` (0.0 when never behind the oracle).
    pub mean_oracle_regret: f64,
}

impl DegradationMetrics {
    /// Whether the run saw no degradation at all.
    pub fn is_clean(&self) -> bool {
        self == &DegradationMetrics::default()
    }
}

/// What a simulator records while it runs: per-epoch metrics, wall times
/// and decisions, plus a [`FaultTally`] when its fault plan injects
/// anything. A fault-free run keeps no tally, so its report carries default
/// degradation and empty provenance, exactly as a run that never heard of
/// faults.
#[derive(Debug)]
pub(crate) struct RunLog {
    epochs: Vec<EpochMetrics>,
    epoch_wall_nanos: Vec<u64>,
    decisions: DecisionCounters,
    /// The degradation tally; `None` under a fault-free plan.
    pub(crate) faults: Option<FaultTally>,
}

impl RunLog {
    /// An empty log for `epochs` epochs, with a tally when `faulty`.
    pub(crate) fn new(epochs: usize, faulty: bool) -> Self {
        RunLog {
            epochs: Vec::with_capacity(epochs),
            epoch_wall_nanos: Vec::with_capacity(epochs),
            decisions: DecisionCounters::default(),
            faults: faulty.then(FaultTally::default),
        }
    }

    /// Record one epoch that took `nanos`, counting it into `sim.epochs`,
    /// `sim.rebalanced` or `sim.unchanged`, and `sim.epoch_nanos`.
    pub(crate) fn record_epoch<T: Tracer>(&mut self, m: EpochMetrics, nanos: u64, obs: &T) {
        self.decisions.record(m.migrations);
        obs.incr(names::SIM_EPOCHS, 1);
        obs.incr(
            if m.migrations > 0 {
                names::SIM_REBALANCED
            } else {
                names::SIM_UNCHANGED
            },
            1,
        );
        obs.observe(names::SIM_EPOCH_NANOS, nanos);
        self.epochs.push(m);
        self.epoch_wall_nanos.push(nanos);
    }

    /// The finished report for `policy`.
    pub(crate) fn into_report(self, policy: &str) -> SimReport {
        let (degradation, provenance) = match self.faults {
            Some(mut tally) => {
                let epochs = self.epochs.len().max(1) as f64;
                tally.metrics.mean_oracle_regret = tally.regret_sum / epochs;
                (tally.metrics, tally.provenance)
            }
            None => Default::default(),
        };
        SimReport {
            policy: policy.to_string(),
            epochs: self.epochs,
            epoch_wall_nanos: self.epoch_wall_nanos,
            decisions: self.decisions,
            degradation,
            provenance,
        }
    }
}

/// Degradation bookkeeping of a run under a plan that injects faults.
#[derive(Debug, Default)]
pub(crate) struct FaultTally {
    metrics: DegradationMetrics,
    provenance: Vec<String>,
    regret_sum: f64,
}

impl FaultTally {
    /// Fold one epoch in: who answered (`tier`: `"policy"`, a fallback
    /// tier, or `"rejected"` when the answer was discarded), the `forced`
    /// evacuations and their cost, whether the plan exhausted the solver,
    /// and the epoch's [`oracle_regret`]. Counts what degraded into `obs`.
    pub(crate) fn record_faults<T: Tracer>(
        &mut self,
        tier: &str,
        forced: (usize, u64),
        exhausted: bool,
        regret: f64,
        obs: &T,
    ) {
        let rejected = tier == "rejected";
        let fallback = !rejected && tier != "policy";
        let degraded = forced.0 > 0 || rejected || fallback || exhausted;
        let m = &mut self.metrics;
        m.epochs_degraded += u64::from(degraded);
        m.fallback_invocations += u64::from(fallback);
        m.forced_migrations += forced.0 as u64;
        m.forced_migration_cost = m.forced_migration_cost.saturating_add(forced.1);
        m.policy_rejections += u64::from(rejected);
        m.budget_exhausted_epochs += u64::from(exhausted);
        self.regret_sum += regret;
        self.provenance.push(tier.to_string());

        if degraded {
            obs.incr(names::SIM_DEGRADED_EPOCHS, 1);
        }
        if forced.0 > 0 {
            obs.incr(names::SIM_FORCED_MIGRATIONS, forced.0 as u64);
        }
        if rejected {
            obs.incr(names::SIM_POLICY_REJECTIONS, 1);
        }
        if fallback {
            obs.incr(names::SIM_FALLBACKS, 1);
        }
    }
}

/// How far `makespan` trails a fresh LPT schedule of `sizes` on the `up`
/// surviving servers, the unconstrained oracle: `makespan / oracle − 1`,
/// floored at 0.
pub(crate) fn oracle_regret(makespan: u64, sizes: &[u64], up: usize) -> f64 {
    let asg = lrb_core::lpt::schedule(sizes, up);
    let mut per = vec![0u64; up];
    for (j, &p) in asg.iter().enumerate() {
        per[p] = per[p].saturating_add(sizes[j]);
    }
    let oracle = per.into_iter().max().unwrap_or(0).max(1);
    (makespan as f64 / oracle as f64 - 1.0).max(0.0)
}

/// A full simulation trace plus aggregates.
///
/// Wall-clock data lives here rather than in [`EpochMetrics`] so that
/// deterministic-replay comparisons over `epochs` stay exact.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// The policy that produced the trace.
    pub policy: String,
    /// Per-epoch metrics.
    pub epochs: Vec<EpochMetrics>,
    /// Wall-clock nanoseconds each epoch spent in the policy + bookkeeping
    /// (parallel to `epochs`; empty in reports predating this field). An
    /// online farm records the engine's solve time of its epoch item
    /// instead, floored at 1 ns, so an epoch whose solve was skipped reads 1.
    #[serde(default)]
    pub epoch_wall_nanos: Vec<u64>,
    /// Rebalance-vs-no-op decision counts across the run.
    #[serde(default)]
    pub decisions: DecisionCounters,
    /// Fault-handling aggregates (all-zero for fault-free runs; defaults
    /// when parsing reports predating the field).
    #[serde(default)]
    pub degradation: DegradationMetrics,
    /// Per-epoch provenance tags ("policy", or the answering fallback tier
    /// such as "greedy"/"no-move"). Parallel to `epochs` for fault-injected
    /// runs; empty for fault-free runs and old reports.
    #[serde(default)]
    pub provenance: Vec<String>,
}

impl SimReport {
    /// Build a report with empty timing/decision extras (they are folded in
    /// by the simulators as the run progresses).
    pub fn new(policy: impl Into<String>, epochs: Vec<EpochMetrics>) -> Self {
        SimReport {
            policy: policy.into(),
            epochs,
            epoch_wall_nanos: Vec::new(),
            decisions: DecisionCounters::default(),
            degradation: DegradationMetrics::default(),
            provenance: Vec::new(),
        }
    }

    /// Mean imbalance across epochs.
    pub fn mean_imbalance(&self) -> f64 {
        if self.epochs.is_empty() {
            return 1.0;
        }
        self.epochs.iter().map(|e| e.imbalance()).sum::<f64>() / self.epochs.len() as f64
    }

    /// Worst imbalance across epochs.
    pub fn max_imbalance(&self) -> f64 {
        self.epochs
            .iter()
            .map(|e| e.imbalance())
            .fold(1.0, f64::max)
    }

    /// p-th percentile imbalance (0–100).
    pub fn percentile_imbalance(&self, p: f64) -> f64 {
        if self.epochs.is_empty() {
            return 1.0;
        }
        let mut v: Vec<f64> = self.epochs.iter().map(|e| e.imbalance()).collect();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let idx = ((p / 100.0) * (v.len() - 1) as f64).round() as usize;
        v[idx.min(v.len() - 1)]
    }

    /// Total migrations over the run.
    pub fn total_migrations(&self) -> usize {
        self.epochs.iter().map(|e| e.migrations).sum()
    }

    /// Total migration cost over the run.
    pub fn total_cost(&self) -> u64 {
        self.epochs.iter().map(|e| e.migration_cost).sum()
    }

    /// Serialize the full trace to JSON (for plotting pipelines).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes")
    }

    /// Write the trace to a file as JSON.
    pub fn save_json(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Render the trace as CSV (`epoch,makespan,avg_load,migrations,cost`).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("epoch,makespan,avg_load,migrations,migration_cost\n");
        for e in &self.epochs {
            out.push_str(&format!(
                "{},{},{},{},{}\n",
                e.epoch, e.makespan, e.avg_load, e.migrations, e.migration_cost
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> SimReport {
        SimReport::new(
            "test",
            vec![
                EpochMetrics {
                    epoch: 0,
                    makespan: 10,
                    avg_load: 10,
                    migrations: 0,
                    migration_cost: 0,
                },
                EpochMetrics {
                    epoch: 1,
                    makespan: 20,
                    avg_load: 10,
                    migrations: 3,
                    migration_cost: 5,
                },
                EpochMetrics {
                    epoch: 2,
                    makespan: 15,
                    avg_load: 10,
                    migrations: 1,
                    migration_cost: 2,
                },
            ],
        )
    }

    #[test]
    fn aggregates() {
        let r = report();
        assert!((r.mean_imbalance() - 1.5).abs() < 1e-9);
        assert!((r.max_imbalance() - 2.0).abs() < 1e-9);
        assert_eq!(r.total_migrations(), 4);
        assert_eq!(r.total_cost(), 7);
    }

    #[test]
    fn percentiles() {
        let r = report();
        assert!((r.percentile_imbalance(0.0) - 1.0).abs() < 1e-9);
        assert!((r.percentile_imbalance(100.0) - 2.0).abs() < 1e-9);
        assert!((r.percentile_imbalance(50.0) - 1.5).abs() < 1e-9);
    }

    #[test]
    fn empty_report_defaults() {
        let r = SimReport::new("x", vec![]);
        assert_eq!(r.mean_imbalance(), 1.0);
        assert_eq!(r.percentile_imbalance(50.0), 1.0);
        assert_eq!(r.total_migrations(), 0);
    }

    #[test]
    fn percentile_on_empty_and_single_epoch() {
        let empty = SimReport::new("x", vec![]);
        for p in [0.0, 50.0, 100.0] {
            assert_eq!(empty.percentile_imbalance(p), 1.0);
        }

        let single = SimReport::new(
            "x",
            vec![EpochMetrics {
                epoch: 0,
                makespan: 30,
                avg_load: 10,
                migrations: 2,
                migration_cost: 4,
            }],
        );
        // With one epoch, every percentile is that epoch's imbalance.
        for p in [0.0, 25.0, 50.0, 99.0, 100.0] {
            assert!((single.percentile_imbalance(p) - 3.0).abs() < 1e-9);
        }
    }

    #[test]
    fn decision_counters_record_and_total() {
        let mut d = DecisionCounters::default();
        d.record(0);
        d.record(3);
        d.record(0);
        d.record(1);
        assert_eq!(d.rebalanced, 2);
        assert_eq!(d.unchanged, 2);
        assert_eq!(d.total(), 4);
    }

    #[test]
    fn report_serde_round_trip() {
        let mut r = report();
        r.epoch_wall_nanos = vec![100, 250, 75];
        r.decisions.record(0);
        r.decisions.record(3);
        r.decisions.record(1);
        let json = r.to_json();
        let back: SimReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn deserializes_reports_without_timing_fields() {
        // Reports written before epoch_wall_nanos/decisions existed must
        // still parse (the fields default).
        let json = r#"{"policy":"old","epochs":[]}"#;
        let r: SimReport = serde_json::from_str(json).unwrap();
        assert_eq!(r.policy, "old");
        assert!(r.epoch_wall_nanos.is_empty());
        assert_eq!(r.decisions, DecisionCounters::default());
    }

    #[test]
    fn json_and_csv_exports() {
        let r = report();
        let json = r.to_json();
        assert!(json.contains("\"makespan\": 20"));
        // Round-trips through serde_json's Value.
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(v["policy"], "test");
        assert_eq!(v["epochs"].as_array().unwrap().len(), 3);

        let csv = r.to_csv();
        assert_eq!(csv.lines().count(), 4);
        assert!(csv.lines().nth(2).unwrap().starts_with("1,20,10,3,5"));
    }

    #[test]
    fn imbalance_guards_zero_avg() {
        let e = EpochMetrics {
            epoch: 0,
            makespan: 5,
            avg_load: 0,
            migrations: 0,
            migration_cost: 0,
        };
        assert_eq!(e.imbalance(), 5.0);
    }
}
