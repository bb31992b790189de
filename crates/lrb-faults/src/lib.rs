//! # lrb-faults — seeded, deterministic fault injection
//!
//! The paper assumes a well-behaved environment: processors never fail,
//! load reports are exact, and every solver finishes. This crate supplies
//! the misbehaving counterpart for robustness testing:
//!
//! * [`FaultPlan`] — a precomputed, seed-deterministic schedule of faults
//!   per epoch: processor crash/recovery (a two-state Markov chain per
//!   processor, with at least one processor always up), stale and dropped
//!   load reports, job-size perturbation, and epoch-level "solver budget
//!   exhausted" events.
//! * [`pathind`] — a path-independence drill (Aspnes–Yang–Yin): replay
//!   crash plans epoch by epoch with a pinned speed-scaled evacuation rule
//!   and measure how far the reached assignment drifts from a from-scratch
//!   solve on the final survivor set.
//! * [`FaultyView`] — a stateful observer that turns the *true*
//!   [`lrb_core::model::Instance`] into the corrupted instance a policy
//!   actually gets to see (stale sizes replay the last reported value,
//!   dropped reports read as zero, perturbation multiplies sizes by a
//!   seeded factor).
//!
//! Everything is deterministic for a fixed seed, and a
//! [`FaultPlan::none`] plan is guaranteed to be an exact no-op: the
//! simulators run every epoch loop under a plan, and a fault-free one
//! reproduces the fault-oblivious results bit-for-bit.

pub mod pathind;
pub mod plan;
pub mod view;

pub use pathind::{
    compare as compare_path_independence, direct_assignment, drill as path_independence_drill,
    evacuate, path_assignment, PathDivergence, PathDrillConfig, PathDrillStats,
};
pub use plan::{EpochFaults, FaultConfig, FaultPlan};
pub use view::FaultyView;
