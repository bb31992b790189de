//! [`Ctx`]: the per-call context that every solver's `*_in` entry point
//! takes next to the algorithm's option.

use lrb_obs::{NoopTracer, Tracer};

use crate::deadline::WorkBudget;
use crate::scratch::Scratch;

/// The three per-call arguments that never change an answer: a [`Scratch`]
/// arena, so a warm worker reuses every working buffer; a [`WorkBudget`],
/// so a deadline cancels a solve with [`crate::error::Error::Cancelled`]
/// instead of finishing late; and a [`Tracer`] observer for the solver's
/// counters, histograms and phase spans. The observer decides what the
/// telemetry becomes: totals in an `AtomicRecorder`, a timeline in a
/// `ThreadTracer` lane, nothing in the [`NoopTracer`].
///
/// `Ctx::default()` allocates nothing, never cancels and records nothing;
/// each paper-default entry point is its `*_in` call in a fresh default
/// context. A context can serve many solves: its scratch stays warm, and
/// its work budget keeps counting, so the tiers of one
/// [`crate::deadline::FallbackChain`] decision share one budget.
///
/// ```
/// use lrb_core::deadline::WorkBudget;
/// use lrb_core::greedy::{self, ReinsertOrder};
/// use lrb_core::model::Instance;
/// use lrb_core::Ctx;
///
/// let inst = Instance::from_sizes(&[4, 3, 3, 2], vec![0, 0, 0, 0], 2).unwrap();
/// let mut ctx = Ctx { work: WorkBudget::new(1), ..Ctx::default() };
/// assert!(greedy::rebalance_in(&inst, 2, ReinsertOrder::Descending, &mut ctx).is_err());
/// ```
#[derive(Debug)]
pub struct Ctx<'r, R: Tracer = NoopTracer> {
    /// Reusable working buffers: a pure cache.
    pub scratch: Scratch,
    /// Work ticks the solves may spend before they cancel.
    pub work: WorkBudget,
    /// Receives the solvers' telemetry.
    pub rec: &'r R,
}

impl<'r, R: Tracer> Ctx<'r, R> {
    /// A context recording into `rec`, with a cold scratch and an unlimited
    /// work budget.
    pub fn new(rec: &'r R) -> Self {
        Ctx {
            scratch: Scratch::new(),
            work: WorkBudget::unlimited(),
            rec,
        }
    }
}

impl Default for Ctx<'_> {
    fn default() -> Self {
        Ctx::new(&NoopTracer)
    }
}
