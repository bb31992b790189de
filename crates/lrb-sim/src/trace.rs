//! Replay externally-recorded load traces through the simulator.
//!
//! The synthetic [`crate::workload`] models are good for controlled
//! experiments; real deployments have real measurements. A [`TraceWorkload`]
//! replays a CSV of per-epoch, per-site loads, so recorded production data
//! can drive the same policies and metrics as the synthetic farm.
//!
//! CSV format: one row per epoch, one column per site, integer loads:
//!
//! ```text
//! # site0,site1,site2
//! 10,20,30
//! 12,18,33
//! ```
//!
//! Blank lines and `#` comments are ignored. Every row must have the same
//! width.

use std::time::Instant;

use lrb_core::model::{Budget, Instance, Job};
use lrb_obs::NoopTracer;

use crate::metrics::{EpochMetrics, RunLog, SimReport};
use crate::policy::Policy;

/// A recorded workload: per-epoch load vectors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceWorkload {
    epochs: Vec<Vec<u64>>,
}

/// Errors from trace parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The trace has no data rows.
    Empty,
    /// A row's width differs from the first row's.
    RaggedRow {
        /// 1-based data-row number.
        row: usize,
        /// Cells found.
        got: usize,
        /// Cells expected.
        expected: usize,
    },
    /// A cell failed to parse as an integer.
    BadCell {
        /// 1-based data-row number.
        row: usize,
        /// 0-based column.
        col: usize,
        /// Offending text.
        text: String,
    },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Empty => write!(f, "trace has no data rows"),
            TraceError::RaggedRow { row, got, expected } => {
                write!(f, "row {row} has {got} cells, expected {expected}")
            }
            TraceError::BadCell { row, col, text } => {
                write!(f, "row {row} col {col}: '{text}' is not an integer")
            }
        }
    }
}

impl std::error::Error for TraceError {}

impl TraceWorkload {
    /// Build from explicit per-epoch load vectors.
    pub fn new(epochs: Vec<Vec<u64>>) -> Result<Self, TraceError> {
        if epochs.is_empty() {
            return Err(TraceError::Empty);
        }
        let width = epochs[0].len();
        for (i, row) in epochs.iter().enumerate() {
            if row.len() != width {
                return Err(TraceError::RaggedRow {
                    row: i + 1,
                    got: row.len(),
                    expected: width,
                });
            }
        }
        Ok(TraceWorkload { epochs })
    }

    /// Parse the CSV format described in the module docs.
    pub fn from_csv(text: &str) -> Result<Self, TraceError> {
        let mut epochs = Vec::new();
        let mut row_no = 0usize;
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            row_no += 1;
            let mut row = Vec::new();
            for (col, cell) in line.split(',').enumerate() {
                let cell = cell.trim();
                let v = cell.parse::<u64>().map_err(|_| TraceError::BadCell {
                    row: row_no,
                    col,
                    text: cell.to_string(),
                })?;
                row.push(v);
            }
            epochs.push(row);
        }
        Self::new(epochs)
    }

    /// Read a CSV trace from a file.
    pub fn from_csv_file(path: impl AsRef<std::path::Path>) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
        Self::from_csv(&text).map_err(|e| e.to_string())
    }

    /// Number of epochs recorded.
    pub fn num_epochs(&self) -> usize {
        self.epochs.len()
    }

    /// Number of sites.
    pub fn num_sites(&self) -> usize {
        self.epochs[0].len()
    }

    /// Loads of a given epoch.
    pub fn loads(&self, epoch: usize) -> &[u64] {
        &self.epochs[epoch]
    }
}

/// Replay a trace through a rebalancing policy: sites start on an LPT
/// placement of the first epoch's loads, then each recorded epoch updates
/// the loads and lets the policy migrate within `budget`. Unit migration
/// costs (the trace format records loads only).
pub fn replay(
    trace: &TraceWorkload,
    num_servers: usize,
    budget: Budget,
    policy: &mut dyn Policy,
) -> SimReport {
    assert!(num_servers > 0, "need at least one server");
    let mut placement = lrb_core::lpt::schedule(trace.loads(0), num_servers);
    let mut log = RunLog::new(trace.num_epochs(), false);

    for epoch in 0..trace.num_epochs() {
        let started = Instant::now();
        let loads = trace.loads(epoch);
        let jobs: Vec<Job> = loads.iter().map(|&l| Job::unit(l)).collect();
        let inst = Instance::new(jobs, placement.clone(), num_servers)
            .expect("trace replay state is a valid instance");
        let new_assignment = policy.rebalance(&inst, budget);
        let makespan = inst
            .makespan_of(&new_assignment)
            .expect("policy returned malformed assignment");
        let unlimited = policy.name() == "full-rebalance";
        assert!(
            unlimited || budget.allows(&inst, &new_assignment),
            "policy {} exceeded the budget",
            policy.name()
        );
        let metrics = EpochMetrics {
            epoch,
            makespan,
            avg_load: inst.avg_load_ceil(),
            migrations: inst.move_count(&new_assignment),
            migration_cost: inst.move_cost(&new_assignment),
        };
        placement = new_assignment;
        let nanos = (started.elapsed().as_nanos() as u64).max(1);
        log.record_epoch(metrics, nanos, &NoopTracer);
    }
    log.into_report(policy.name())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{MPartitionPolicy, NoRebalance};

    const CSV: &str = "\
# three sites
10,20,30
40,20,30

15,25,35
";

    #[test]
    fn parses_csv_with_comments_and_blanks() {
        let t = TraceWorkload::from_csv(CSV).unwrap();
        assert_eq!(t.num_epochs(), 3);
        assert_eq!(t.num_sites(), 3);
        assert_eq!(t.loads(1), &[40, 20, 30]);
    }

    #[test]
    fn rejects_malformed_traces() {
        assert_eq!(
            TraceWorkload::from_csv("# only comments\n").unwrap_err(),
            TraceError::Empty
        );
        assert!(matches!(
            TraceWorkload::from_csv("1,2\n1,2,3\n").unwrap_err(),
            TraceError::RaggedRow {
                row: 2,
                got: 3,
                expected: 2
            }
        ));
        assert!(matches!(
            TraceWorkload::from_csv("1,x\n").unwrap_err(),
            TraceError::BadCell { row: 1, col: 1, .. }
        ));
    }

    #[test]
    fn replay_enforces_budget_and_tracks_metrics() {
        let t = TraceWorkload::from_csv(CSV).unwrap();
        let r = replay(&t, 2, Budget::Moves(1), &mut MPartitionPolicy);
        assert_eq!(r.epochs.len(), 3);
        for e in &r.epochs {
            assert!(e.migrations <= 1, "epoch {}", e.epoch);
            assert!(e.makespan >= e.avg_load);
        }
    }

    #[test]
    fn replay_with_no_policy_never_moves() {
        let t = TraceWorkload::from_csv(CSV).unwrap();
        let r = replay(&t, 2, Budget::Moves(5), &mut NoRebalance);
        assert_eq!(r.total_migrations(), 0);
    }

    #[test]
    fn rebalancing_tracks_a_load_spike() {
        // Site 0 spikes at epoch 1; one move should chase it.
        let t = TraceWorkload::new(vec![
            vec![10, 10, 10, 10],
            vec![100, 10, 10, 10],
            vec![100, 10, 10, 10],
        ])
        .unwrap();
        let fixed = replay(&t, 2, Budget::Moves(2), &mut MPartitionPolicy);
        let drift = replay(&t, 2, Budget::Moves(0), &mut NoRebalance);
        assert!(fixed.mean_imbalance() <= drift.mean_imbalance());
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("lrb-trace-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        std::fs::write(&path, CSV).unwrap();
        let t = TraceWorkload::from_csv_file(&path).unwrap();
        assert_eq!(t.num_epochs(), 3);
        std::fs::remove_file(&path).ok();
        assert!(TraceWorkload::from_csv_file("/missing/t.csv").is_err());
    }
}
