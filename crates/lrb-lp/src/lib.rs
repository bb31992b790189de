//! # lrb-lp — LP substrate and the Shmoys–Tardos baseline
//!
//! The paper positions its combinatorial 1.5-approximation against the
//! generic 2-approximation for generalized assignment due to Shmoys and
//! Tardos \[14\] (obtained via the §2 reduction `c_ij = 0` at home, `c_i`
//! elsewhere). Reproducing that comparison requires the baseline, and the
//! baseline requires an LP solver — both are built here from scratch:
//!
//! * [`matrix`] — a minimal dense matrix;
//! * [`simplex`] — a two-phase dense primal simplex with Bland's rule,
//!   returning *vertex* solutions;
//! * [`gap`] — the one generalized-assignment LP relaxation (with the
//!   job-too-big pruning) and the one min-cost rounding, both driven by a
//!   cost function;
//! * [`shmoys_tardos`] — binary search on the makespan plus the rounding,
//!   giving makespan `≤ 2·OPT_B` at cost `≤ B`;
//! * [`constrained`] — the same search over the eligible pairs only
//!   (Constrained Load Rebalancing, Corollary 1);
//! * [`general_gap`] — the LP and rounding over a full cost matrix `c_{jp}`
//!   (the Theorem 6 gadgets of experiment T19).

pub mod constrained;
pub mod gap;
pub mod general_gap;
pub mod matrix;
pub mod shmoys_tardos;
pub mod simplex;

pub use shmoys_tardos::{rebalance, StRun};
