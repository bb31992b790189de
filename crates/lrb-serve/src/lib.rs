//! `lrb-serve`: a crash-recoverable, backpressured rebalancing daemon.
//!
//! A long-running server owning many tenant farms (one
//! [`lrb_core::online::OnlineRebalancer`] each), driven by Arrive /
//! Depart / Rebalance events over a hand-rolled length-prefixed wire
//! protocol ([`wire`]). One state thread admits and applies every event
//! in queue order; each rebalance runs the `deadline` module's
//! `FallbackChain` under the work budget its log record names.
//!
//! Three pillars:
//!
//! * **Durability** ([`wal`], [`snapshot`]): every admitted event is
//!   appended to a checksummed write-ahead log and acknowledged only
//!   after the flush, and reads and rejects wait for the same flush;
//!   periodic versioned snapshots bound replay length.
//!   Recovery ([`server::recover`]) is snapshot + WAL-suffix replay, and
//!   the state machine ([`state`]) guarantees the result is bit-identical
//!   to the uninterrupted run — *state ≡ replay-of-survivors*.
//! * **Admission control** ([`state::ServeState::admit`]): requests are
//!   validated before they are logged; a full queue, a busy tenant, an
//!   empty `MoveBank`, or an exhausted epoch work budget answers an
//!   explicit `Reject` with a Retry-After hint instead of blocking,
//!   panicking, or silently degrading. Degradation that *is* allowed
//!   happens inside the `FallbackChain`, and the answering tier is
//!   reported to the client.
//! * **Recoverability under fire** ([`server`]): the daemon is built to
//!   be SIGKILLed at arbitrary points — mid-epoch, mid-snapshot — and
//!   restarted; no acked event is ever lost.

pub mod server;
pub mod snapshot;
pub mod state;
pub mod wal;
pub mod wire;

pub use server::{recover, RecoveryReport, ServeError, Server};
pub use state::{ApplyOutcome, ServeConfig, ServeState};
