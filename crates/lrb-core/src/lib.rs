//! # lrb-core — the load rebalancing problem
//!
//! Algorithms from *Aggarwal, Motwani & Zhu, "The Load Rebalancing
//! Problem", SPAA 2003*: given jobs already assigned to processors, relocate
//! at most `k` jobs (or jobs of total relocation cost at most `B`) to
//! minimize the makespan.
//!
//! | Algorithm | Guarantee | Where |
//! |-----------|-----------|-------|
//! | [`greedy`] | `2 − 1/m`, `O(n log n)` | paper §2 |
//! | [`mpartition`] | `1.5`, `O(n log n)` | paper §3 |
//! | [`cost_partition`] | `1.5 + ε` for arbitrary costs | paper §3.2 |
//! | [`ptas`] | `1 + ε` (PTAS) | paper §4 |
//!
//! Plus supporting pieces: the data [`model`], threshold [`profiles`],
//! [`bounds`] on the optimum, Graham's [`lpt`] as a full-rebalance baseline,
//! and the exact [`knapsack`] subroutine used by the cost variants.
//!
//! Each algorithm has its paper-default entry point and one `*_in` entry
//! point that also takes the algorithm's option and a [`Ctx`]: a reusable
//! scratch arena, a work budget, and a telemetry observer.
//!
//! ## Quick example
//!
//! ```
//! use lrb_core::model::Instance;
//!
//! // Four jobs piled on processor 0 of 2; allow two moves.
//! let inst = Instance::from_sizes(&[4, 3, 3, 2], vec![0, 0, 0, 0], 2).unwrap();
//! let run = lrb_core::mpartition::rebalance(&inst, 2).unwrap();
//! assert!(run.outcome.moves() <= 2);
//! assert_eq!(run.outcome.makespan(), 6); // perfectly balanced here
//! ```

pub mod bounds;
pub mod constrained;
pub mod cost_partition;
pub mod ctx;
pub mod deadline;
pub mod error;
pub mod greedy;
pub mod hetero;
pub mod incremental;
pub mod knapsack;
pub mod lpt;
pub mod model;
pub mod mpartition;
pub mod online;
pub mod outcome;
pub mod partition;
pub mod profiles;
pub mod ptas;
pub mod scratch;

pub use ctx::Ctx;

/// Convenient glob-import of the commonly used types and entry points.
pub mod prelude {
    pub use crate::bounds::{lower_bound, within_ratio};
    pub use crate::constrained::ConstrainedInstance;
    pub use crate::cost_partition;
    pub use crate::ctx::Ctx;
    pub use crate::deadline::{
        DeadlineSolver, FallbackChain, FallbackReport, SolverKind, WorkBudget,
    };
    pub use crate::error::{Error, Result};
    pub use crate::greedy;
    pub use crate::hetero::{self, Speeds};
    pub use crate::lpt;
    pub use crate::model::{Assignment, Budget, Cost, Instance, Job, JobId, ProcId, Size};
    pub use crate::mpartition::{self, ThresholdSearch};
    pub use crate::online::{
        BankConfig, Event, JobKey, MaackBank, MigrationPolicy, MoveBank, OnlineRebalancer,
        OnlineStats, ProportionalBank, RebalanceStep,
    };
    pub use crate::outcome::RebalanceOutcome;
    pub use crate::partition;
    pub use crate::ptas::{self, Precision};
    pub use crate::scratch::Scratch;
}
