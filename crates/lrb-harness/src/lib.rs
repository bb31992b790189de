//! # lrb-harness — experiment infrastructure
//!
//! Shared machinery for the reproduction's experiment suite:
//!
//! * [`stats`] — summaries (mean/stddev/percentiles/CI) and ratio
//!   aggregation;
//! * [`table`] — aligned text tables + CSV, the one output format every
//!   experiment uses;
//! * [`runner`] — deterministic per-cell seeding for sweeps, which run
//!   across threads on `lrb_engine::run_all`;
//! * [`scenarios`] — the named fault-scenario table for chaos sweeps;
//! * [`loadgen`] — a retrying/backoff client, a concurrent tenant load
//!   generator, and the SIGKILL chaos drill for the `lrb-serve` daemon.

pub mod bench;
pub mod loadgen;
pub mod runner;
pub mod scenarios;
pub mod stats;
pub mod table;

pub use bench::BenchBatch;
pub use loadgen::{
    run_chaos_drill, run_loadgen, Client, ClientConfig, DrillConfig, DrillReport, LoadGenConfig,
    LoadGenReport, ServerProc,
};
pub use runner::seed_for;
pub use scenarios::{crash_sweep, FaultScenario};
pub use stats::{geo_mean, Summary};
pub use table::Table;
