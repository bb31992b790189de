//! The PTAS for budgeted load rebalancing (§4, Theorem 4).
//!
//! Given a relocation-cost budget `B` and a precision parameter
//! `ε = 5/q`, finds an assignment of relocation cost at most `B` whose
//! makespan is at most `(1+ε)·OPT_B`, where `OPT_B` is the best makespan
//! achievable within the budget. Runtime is polynomial in the instance for
//! fixed `ε`, but exponential in `1/ε` — this is the theory-grade
//! algorithm; `cost_partition` is the practical one (the paper itself makes
//! this point about its 1.5-approximation).
//!
//! Pipeline per makespan guess `T` (guesses climb a `(1+δ)` ladder from the
//! lower bound, `δ = 1/q`):
//!
//! 1. [`grid`] — classify jobs large/small and build the rounded size grid;
//! 2. [`view`] — precompute per-processor removal orders and prefix sums;
//! 3. [`dp`] — solve the configuration DP for the minimum removal cost;
//! 4. accept the first guess whose cost fits `B`, then [`assemble`] the
//!    assignment.

pub mod assemble;
pub mod dp;
pub mod grid;
pub mod view;

use lrb_obs::{names, Tracer};

use crate::bounds;
use crate::ctx::Ctx;
use crate::deadline::WorkBudget;
use crate::error::{Error, Result};
use crate::model::{Budget, Cost, Instance, Size};
use crate::outcome::RebalanceOutcome;
use crate::ptas::dp::DpOutcome;
use crate::ptas::view::View;

/// Result of a PTAS run.
#[derive(Debug, Clone)]
pub struct PtasRun {
    /// The rebalanced assignment (never worse than the initial one).
    pub outcome: RebalanceOutcome,
    /// The accepted makespan guess.
    pub guess: Size,
    /// The DP's removal cost at the accepted guess (realized cost can be
    /// lower).
    pub planned_cost: Cost,
    /// Number of DP states at the accepted guess (F2 diagnostics).
    pub dp_states: usize,
    /// Number of guesses probed.
    pub probes: usize,
}

/// Precision for the PTAS: the approximation factor is `1 + 5/q`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Precision {
    q: u64,
}

impl Precision {
    /// Build from `q ≥ 1` directly (`δ = 1/q`, factor `1 + 5/q`).
    pub fn from_q(q: u64) -> Self {
        assert!((1..=64).contains(&q), "q must be in 1..=64");
        Precision { q }
    }

    /// The coarsest precision with approximation factor at most `1 + ε`:
    /// `q = ⌈5/ε⌉`.
    pub fn for_epsilon(eps: f64) -> Self {
        assert!(eps > 0.0, "epsilon must be positive");
        let q = (5.0 / eps).ceil() as u64;
        Self::from_q(q.max(1))
    }

    /// The internal `q` (`δ = 1/q`).
    pub fn q(&self) -> u64 {
        self.q
    }

    /// The guaranteed approximation factor numerator over `q`:
    /// factor `= (q + 5)/q`.
    pub fn factor_num_den(&self) -> (u64, u64) {
        (self.q + 5, self.q)
    }
}

/// Minimize the makespan subject to total relocation cost at most `budget`,
/// within factor `1 + 5/q` of optimal.
///
/// ```
/// use lrb_core::model::Instance;
/// use lrb_core::ptas::{rebalance, Precision};
///
/// let inst = Instance::from_sizes(&[50, 50], vec![0, 0], 2).unwrap();
/// let run = rebalance(&inst, 1, Precision::from_q(5)).unwrap();
/// assert_eq!(run.outcome.makespan(), 50);
/// assert!(run.outcome.cost() <= 1);
/// ```
pub fn rebalance(inst: &Instance, budget: Cost, precision: Precision) -> Result<PtasRun> {
    rebalance_in(inst, budget, precision, &mut Ctx::default())
}

/// Run the PTAS in `ctx`.
///
/// `n` work ticks are charged per guess for grid/view construction and one
/// per DP state expanded (the DP's state budget is additionally clamped to
/// the remaining work). The observer times the per-guess pipeline stages
/// (`ptas.grid` for grid/view construction, `ptas.dp` for the configuration
/// DP, `ptas.assemble` for assignment assembly) and counts guesses probed
/// (`ptas.guesses`) and DP states expanded (`ptas.dp_states`). The PTAS
/// keeps no buffers in the scratch.
pub fn rebalance_in<R: Tracer>(
    inst: &Instance,
    budget: Cost,
    precision: Precision,
    ctx: &mut Ctx<'_, R>,
) -> Result<PtasRun> {
    rebalance_impl(inst, budget, precision, ctx.rec, &ctx.work)
}

fn rebalance_impl<R: Tracer>(
    inst: &Instance,
    budget: Cost,
    precision: Precision,
    rec: &R,
    work: &WorkBudget,
) -> Result<PtasRun> {
    let q = precision.q();
    if inst.num_jobs() == 0 || inst.total_size() == 0 {
        return Ok(PtasRun {
            outcome: RebalanceOutcome::unchanged(inst),
            guess: inst.initial_makespan(),
            planned_cost: 0,
            dp_states: 0,
            probes: 0,
        });
    }
    if inst.max_job_size() > 1 << 40 {
        // Refuse gracefully instead of panicking: the internal size scaling
        // has 2^40 of headroom; callers (e.g. a fallback chain) can degrade
        // to an algorithm without that limit.
        return Err(Error::InfeasibleGuess {
            guess: inst.max_job_size(),
            reason: "PTAS supports sizes up to 2^40 (internal scaling headroom)",
        });
    }

    // Guess ladder: from the makespan lower bound up to the initial
    // makespan, multiplying by (1 + 1/q) each step.
    let lb = bounds::lower_bound(inst, Budget::Cost(budget)).max(1);
    let ub = inst.initial_makespan().max(lb);
    let mut guesses = Vec::new();
    let mut t = lb;
    while t < ub {
        guesses.push(t);
        t = t.saturating_mul(q + 1).div_ceil(q).max(t.saturating_add(1));
    }
    guesses.push(ub);

    // Ascending scan: first guess whose DP cost fits the budget.
    let mut probes = 0usize;
    for &t in &guesses {
        probes += 1;
        rec.incr(names::PTAS_GUESSES, 1);
        work.charge(names::PTAS_GRID, inst.num_jobs() as u64)?;
        let view = {
            let _t = rec.span(names::PTAS_GRID);
            View::new(inst, t, q)
        };
        // Clamp the DP's state budget to the remaining work so a tight
        // deadline cannot be blown inside a single guess; one work tick is
        // charged per state the DP actually expanded.
        let state_budget =
            dp::DEFAULT_STATE_BUDGET.min(usize::try_from(work.remaining()).unwrap_or(usize::MAX));
        let solved = {
            let _t = rec.span(names::PTAS_DP);
            dp::solve_bounded(&view, state_budget)
        };
        match solved {
            DpOutcome::Solved(sol) if sol.cost <= budget => {
                work.charge(names::PTAS_DP, sol.states as u64)?;
                rec.incr(names::PTAS_DP_STATES, sol.states as u64);
                let _t = rec.span(names::PTAS_ASSEMBLE);
                let outcome = assemble::assemble(inst, &view, &sol)?.or_unchanged(inst);
                return Ok(PtasRun {
                    outcome,
                    guess: t,
                    planned_cost: sol.cost,
                    dp_states: sol.states,
                    probes,
                });
            }
            DpOutcome::Solved(sol) => {
                work.charge(names::PTAS_DP, sol.states as u64)?;
                rec.incr(names::PTAS_DP_STATES, sol.states as u64);
            }
            DpOutcome::Infeasible => {
                work.charge(names::PTAS_DP, inst.num_jobs() as u64)?;
            }
            DpOutcome::Exhausted => {
                // The DP visited (roughly) its whole state budget.
                work.charge(names::PTAS_DP, state_budget as u64)?;
            }
        }
    }

    // Every guess failed (possible only via state-budget exhaustion):
    // fall back to the do-nothing solution, which always fits any budget.
    Ok(PtasRun {
        outcome: RebalanceOutcome::unchanged(inst),
        guess: ub,
        planned_cost: 0,
        dp_states: 0,
        probes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precision_construction() {
        assert_eq!(Precision::for_epsilon(1.0).q(), 5);
        assert_eq!(Precision::for_epsilon(0.5).q(), 10);
        assert_eq!(Precision::from_q(5).factor_num_den(), (10, 5));
    }

    #[test]
    #[should_panic(expected = "q must be in")]
    fn precision_rejects_huge_q() {
        Precision::from_q(1000);
    }

    #[test]
    fn zero_budget_keeps_initial() {
        let inst = Instance::from_sizes(&[50, 50], vec![0, 0], 2).unwrap();
        let run = rebalance(&inst, 0, Precision::from_q(5)).unwrap();
        assert_eq!(run.outcome.moves(), 0);
        assert_eq!(run.outcome.makespan(), 100);
    }

    #[test]
    fn unit_budget_splits_pile() {
        let inst = Instance::from_sizes(&[50, 50], vec![0, 0], 2).unwrap();
        let run = rebalance(&inst, 1, Precision::from_q(5)).unwrap();
        assert_eq!(run.outcome.makespan(), 50);
        assert!(run.outcome.cost() <= 1);
    }

    #[test]
    fn respects_budget_always() {
        let inst = Instance::from_sizes(&[9, 7, 6, 5, 4, 3], vec![0, 0, 0, 1, 1, 2], 3).unwrap();
        for b in 0..=6 {
            let run = rebalance(&inst, b, Precision::from_q(5)).unwrap();
            assert!(run.outcome.cost() <= b, "b={b} cost={}", run.outcome.cost());
            assert!(run.outcome.makespan() <= inst.initial_makespan(), "b={b}");
        }
    }

    #[test]
    fn finer_precision_never_hurts_much() {
        let inst =
            Instance::from_sizes(&[40, 35, 30, 25, 20, 10], vec![0, 0, 0, 0, 1, 1], 2).unwrap();
        let coarse = rebalance(&inst, 3, Precision::from_q(2)).unwrap();
        let fine = rebalance(&inst, 3, Precision::from_q(8)).unwrap();
        // Finer grids probe denser guess ladders; the result should not be
        // dramatically worse.
        assert!(fine.outcome.makespan() <= coarse.outcome.makespan() + 40);
    }

    #[test]
    fn empty_instance() {
        let inst = Instance::from_sizes(&[], vec![], 2).unwrap();
        let run = rebalance(&inst, 5, Precision::from_q(5)).unwrap();
        assert_eq!(run.outcome.makespan(), 0);
    }

    #[test]
    fn oversized_jobs_error_instead_of_panicking() {
        let inst = Instance::from_sizes(&[1 << 41, 1], vec![0, 0], 2).unwrap();
        let err = rebalance(&inst, 1, Precision::from_q(5)).unwrap_err();
        assert!(matches!(err, Error::InfeasibleGuess { .. }));
    }

    #[test]
    fn budgeted_run_cancels_and_matches_unbudgeted() {
        let inst = Instance::from_sizes(&[9, 7, 6, 5, 4, 3], vec![0, 0, 0, 1, 1, 2], 3).unwrap();
        let mut tiny = Ctx {
            work: WorkBudget::new(1),
            ..Ctx::default()
        };
        let err = rebalance_in(&inst, 3, Precision::from_q(5), &mut tiny).unwrap_err();
        assert!(matches!(err, Error::Cancelled { .. }));

        let mut ample = Ctx {
            work: WorkBudget::new(1_000_000),
            ..Ctx::default()
        };
        let budgeted = rebalance_in(&inst, 3, Precision::from_q(5), &mut ample).unwrap();
        let plain = rebalance(&inst, 3, Precision::from_q(5)).unwrap();
        assert_eq!(budgeted.outcome.assignment(), plain.outcome.assignment());
    }
}
