//! # lrb-sim — simulators for the paper's motivating applications
//!
//! The paper's introduction motivates bounded-move rebalancing with two
//! systems scenarios; both are simulated here against the real algorithms:
//!
//! * [`farm`] — a **web-server farm** (the Linder–Shah website-migration
//!   setting): websites with drifting, flash-crowd-prone loads on servers,
//!   rebalanced each epoch under a migration budget;
//! * [`process`] — **process migration** on a multiprocessor: heavy-tailed
//!   process lifetimes (Harchol-Balter & Downey), memory-footprint
//!   migration costs.
//!
//! Shared pieces: [`workload`] (drift + flash crowds), [`policy`]
//! (pluggable rebalancers: none / GREEDY / M-PARTITION / full LPT /
//! threshold-triggered / fallback-chain), and [`metrics`] (imbalance
//! traces plus degradation aggregates).
//!
//! The web farm ([`run_farm_in`]) and the online farm
//! ([`run_online_fleet_in`]) each have one epoch loop, and it runs under an
//! `lrb-faults` fault plan: a clean run is a fault-free plan. Under faults,
//! crashed servers are evacuated, farm policies see a corrupted load view,
//! and invalid answers degrade gracefully instead of panicking. [`online`]
//! streams churning farms with banked budgets as a fleet through the
//! streaming engine; a single farm is a fleet of one.

pub mod adversary;
pub mod farm;
pub mod metrics;
pub mod online;
pub mod policy;
pub mod process;
pub mod stochastic;
pub mod trace;
pub mod workload;

pub use adversary::{AdaptiveAdversary, Adversary, GreedyPunisher, RandomOrderAdversary};
pub use farm::{
    run as run_farm, run_in as run_farm_in, FarmConfig, MigrationCost, EXHAUSTED_EPOCH_WORK_TICKS,
};
/// The observer that records nothing, for unobserved [`run_farm_in`] and
/// [`run_online_fleet_in`] runs.
pub use lrb_obs::NoopTracer;
pub use metrics::{DecisionCounters, DegradationMetrics, EpochMetrics, SimReport};
pub use online::{
    run_online_fleet, run_online_fleet_in, OnlineFleetConfig, OnlineRunReport, OnlineWorkload,
    OnlineWorkloadConfig,
};
pub use policy::{
    FallbackPolicy, FullRebalance, GreedyPolicy, MPartitionPolicy, NoRebalance, Policy,
    ThresholdTriggered,
};
pub use process::{run as run_process, ProcessSimConfig};
pub use stochastic::{
    evaluate as evaluate_effective_size, rebalance_effective, EffectiveSizeReport,
    StochasticConfig, StochasticJob, StochasticWorkload,
};
pub use trace::{replay, TraceWorkload};
pub use workload::{Diurnal, Workload, WorkloadConfig};
