//! Solver work budgets, deadlines, and graceful-degradation fallback chains.
//!
//! A live rebalancer cannot afford an unbounded solver: the epoch ends
//! whether or not the PTAS finished. This module gives every algorithm in
//! the crate a *deterministic* work budget — measured in abstract work
//! ticks, not wall-clock, so runs are reproducible — with checked
//! cancellation points inside the algorithms' hot loops, and a
//! [`FallbackChain`] that degrades through progressively cheaper tiers
//! (PTAS → M-PARTITION → GREEDY → no-move) until one of them answers
//! within its budget.
//!
//! Guarantees:
//!
//! * [`FallbackChain::solve`] is **infallible**: it always returns a valid,
//!   budget-respecting assignment (the no-move assignment in the worst
//!   case), together with a provenance tag naming the tier that answered.
//! * Every tier is attempted at most once (the solvers are deterministic,
//!   so retrying an identical input is pointless); the chain length bounds
//!   the total number of attempts.
//! * For a fixed instance, relocation budget, and work budget the result is
//!   fully deterministic.

use std::cell::Cell;

use lrb_obs::Tracer;

use crate::ctx::Ctx;
use crate::error::{Error, Result};
use crate::greedy::{self, ReinsertOrder};
use crate::model::{Budget, Instance};
use crate::mpartition::{self, ThresholdSearch};
use crate::outcome::RebalanceOutcome;
use crate::ptas::{self, Precision};
use crate::{bounds, cost_partition};

/// A deterministic work budget shared by the solvers of one decision.
///
/// Work is measured in abstract *ticks* (roughly "one inner-loop iteration
/// or one DP state"). Algorithms call [`WorkBudget::charge`] at their
/// cancellation points; once the budget is exhausted the charge returns
/// [`Error::Cancelled`] and the algorithm unwinds without producing an
/// assignment. Tick accounting is `Cell`-based, so a budget is cheap to
/// consult but is **not** shareable across threads — each worker gets its
/// own.
#[derive(Debug)]
pub struct WorkBudget {
    limit: u64,
    consumed: Cell<u64>,
}

impl WorkBudget {
    /// A budget of `limit` work ticks.
    pub fn new(limit: u64) -> Self {
        WorkBudget {
            limit,
            consumed: Cell::new(0),
        }
    }

    /// A budget that never cancels.
    pub fn unlimited() -> Self {
        Self::new(u64::MAX)
    }

    /// Consume `ticks` of work on behalf of `phase`.
    ///
    /// # Errors
    ///
    /// [`Error::Cancelled`] once cumulative consumption exceeds the limit.
    /// The ticks are still recorded, so [`WorkBudget::consumed`] reflects
    /// the work attempted before cancellation.
    #[inline]
    pub fn charge(&self, phase: &'static str, ticks: u64) -> Result<()> {
        let consumed = self.consumed.get().saturating_add(ticks);
        self.consumed.set(consumed);
        if consumed > self.limit {
            Err(Error::Cancelled {
                phase,
                consumed,
                limit: self.limit,
            })
        } else {
            Ok(())
        }
    }

    /// A pure cancellation check: charges nothing, fails if already
    /// exhausted.
    #[inline]
    pub fn checkpoint(&self, phase: &'static str) -> Result<()> {
        if self.is_exhausted() {
            Err(Error::Cancelled {
                phase,
                consumed: self.consumed.get(),
                limit: self.limit,
            })
        } else {
            Ok(())
        }
    }

    /// Ticks consumed so far (may exceed the limit by the final charge).
    pub fn consumed(&self) -> u64 {
        self.consumed.get()
    }

    /// Ticks still available.
    pub fn remaining(&self) -> u64 {
        self.limit.saturating_sub(self.consumed.get())
    }

    /// Whether the budget has been used up.
    pub fn is_exhausted(&self) -> bool {
        self.consumed.get() >= self.limit
    }
}

/// The algorithms a [`DeadlineSolver`] can dispatch to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SolverKind {
    /// The `(1+ε)` PTAS (§4) — best quality, exponential in `1/ε`.
    Ptas(Precision),
    /// M-PARTITION / cost-PARTITION (§3) — the 1.5-approximation workhorse.
    /// The search locates M-PARTITION's threshold under a move budget
    /// ([`ThresholdSearch::Binary`] unless a caller asks otherwise; every
    /// search finds the same threshold).
    MPartition(ThresholdSearch),
    /// The arbitrary-cost PARTITION variant (§3.2), forced even for move
    /// budgets.
    CostPartition,
    /// GREEDY (§2) — cheapest non-trivial tier.
    Greedy,
    /// Leave every job where it is. Never fails, never spends budget.
    NoMove,
}

impl SolverKind {
    /// Display / provenance name.
    pub fn name(&self) -> &'static str {
        match self {
            SolverKind::Ptas(_) => "ptas",
            SolverKind::MPartition(_) => "m-partition",
            SolverKind::CostPartition => "cost-partition",
            SolverKind::Greedy => "greedy",
            SolverKind::NoMove => "no-move",
        }
    }
}

/// One algorithm wrapped with a work budget / deadline: the one place where
/// a relocation [`Budget`] picks the solver and its move or cost bound.
///
/// `solve` runs the algorithm with cancellation points checked against the
/// context's [`WorkBudget`] and post-validates that the produced assignment
/// respects the relocation budget (a non-unit-cost instance can make a
/// tier overshoot: the cost-based tiers under a `Moves` budget, GREEDY
/// under a `Cost` budget; the check turns that into an error instead of a
/// silent violation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeadlineSolver {
    kind: SolverKind,
}

impl DeadlineSolver {
    /// Wrap an algorithm.
    pub fn new(kind: SolverKind) -> Self {
        DeadlineSolver { kind }
    }

    /// The wrapped algorithm's name.
    pub fn name(&self) -> &'static str {
        self.kind.name()
    }

    /// Run the algorithm in `ctx`, returning a budget-respecting outcome or
    /// the error that stopped it.
    ///
    /// A `Moves` budget goes to M-PARTITION and a `Cost` budget to
    /// cost-PARTITION; GREEDY gets the most jobs a `Cost` budget could pay
    /// for ([`bounds::max_moves_within`]), and the cost-PARTITION and PTAS
    /// tiers read a `Moves` budget as a cost bound ([`Budget::as_cost`]).
    pub fn solve<R: Tracer>(
        &self,
        inst: &Instance,
        budget: Budget,
        ctx: &mut Ctx<'_, R>,
    ) -> Result<RebalanceOutcome> {
        let outcome = match self.kind {
            SolverKind::NoMove => RebalanceOutcome::unchanged(inst),
            SolverKind::Greedy => {
                let k = bounds::max_moves_within(inst, budget);
                greedy::rebalance_in(inst, k, ReinsertOrder::Descending, ctx)?.outcome
            }
            SolverKind::MPartition(search) => match budget {
                Budget::Moves(k) => mpartition::rebalance_in(inst, k, search, ctx)?.outcome,
                Budget::Cost(b) => cost_partition::rebalance_in(inst, b, ctx)?.outcome,
            },
            SolverKind::CostPartition => {
                cost_partition::rebalance_in(inst, budget.as_cost(), ctx)?.outcome
            }
            SolverKind::Ptas(precision) => {
                ptas::rebalance_in(inst, budget.as_cost(), precision, ctx)?.outcome
            }
        };
        let (used, limit) = match budget {
            Budget::Moves(k) => (outcome.moves() as u64, k as u64),
            Budget::Cost(b) => (outcome.cost(), b),
        };
        if used <= limit {
            Ok(outcome)
        } else {
            Err(Error::BudgetExceeded {
                used,
                budget: limit,
            })
        }
    }
}

/// Why a tier failed to answer, kept for diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TierFailure {
    /// Which tier failed.
    pub tier: &'static str,
    /// The error that stopped it.
    pub error: Error,
}

/// The answer of a [`FallbackChain`] run: always a valid assignment, plus
/// provenance saying which tier produced it and why earlier tiers failed.
#[derive(Debug, Clone)]
pub struct FallbackReport {
    /// The valid, budget-respecting outcome.
    pub outcome: RebalanceOutcome,
    /// Name of the tier that answered (`"no-move"` in the worst case).
    pub tier: &'static str,
    /// Index of the answering tier in the chain (equal to the chain length
    /// when the implicit final no-move answered).
    pub tier_index: usize,
    /// The failures of every tier tried before the answering one.
    pub failures: Vec<TierFailure>,
}

impl FallbackReport {
    /// Whether the chain had to degrade past its first tier.
    pub fn degraded(&self) -> bool {
        self.tier_index > 0
    }
}

/// An ordered list of solver tiers tried until one answers within its
/// work budget. An implicit no-move tier at the end makes the chain total.
#[derive(Debug, Clone)]
pub struct FallbackChain {
    tiers: Vec<DeadlineSolver>,
}

impl FallbackChain {
    /// Build a chain from explicit tiers (an implicit final no-move tier is
    /// always appended logically; listing [`SolverKind::NoMove`] explicitly
    /// is allowed but redundant).
    pub fn new(kinds: Vec<SolverKind>) -> Self {
        FallbackChain {
            tiers: kinds.into_iter().map(DeadlineSolver::new).collect(),
        }
    }

    /// The paper-ordered quality ladder: PTAS (`ε = 1`) → M-PARTITION →
    /// GREEDY → no-move.
    pub fn standard() -> Self {
        Self::new(vec![
            SolverKind::Ptas(Precision::from_q(5)),
            SolverKind::MPartition(ThresholdSearch::Binary),
            SolverKind::Greedy,
        ])
    }

    /// The practical ladder for large instances (skips the PTAS):
    /// M-PARTITION → GREEDY → no-move.
    pub fn practical() -> Self {
        Self::new(vec![
            SolverKind::MPartition(ThresholdSearch::Binary),
            SolverKind::Greedy,
        ])
    }

    /// Run the chain in `ctx`. Every tier spends from the context's one
    /// work budget. Infallible: if every tier fails (cancellation,
    /// infeasibility, budget violation), the no-move assignment answers.
    pub fn solve<R: Tracer>(
        &self,
        inst: &Instance,
        budget: Budget,
        ctx: &mut Ctx<'_, R>,
    ) -> FallbackReport {
        let mut failures = Vec::new();
        for (i, tier) in self.tiers.iter().enumerate() {
            match tier.solve(inst, budget, ctx) {
                Ok(outcome) => {
                    return FallbackReport {
                        outcome,
                        tier: tier.name(),
                        tier_index: i,
                        failures,
                    };
                }
                Err(error) => failures.push(TierFailure {
                    tier: tier.name(),
                    error,
                }),
            }
        }
        FallbackReport {
            outcome: RebalanceOutcome::unchanged(inst),
            tier: "no-move",
            tier_index: self.tiers.len(),
            failures,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn piled() -> Instance {
        Instance::from_sizes(&[9, 7, 5, 4, 3, 2], vec![0, 0, 0, 0, 0, 1], 3).unwrap()
    }

    /// A default context with a work budget of `limit` ticks.
    fn with_work(limit: u64) -> Ctx<'static> {
        Ctx {
            work: WorkBudget::new(limit),
            ..Ctx::default()
        }
    }

    #[test]
    fn work_budget_accounting() {
        let w = WorkBudget::new(10);
        assert!(w.charge("t", 4).is_ok());
        assert_eq!(w.consumed(), 4);
        assert_eq!(w.remaining(), 6);
        assert!(w.charge("t", 6).is_ok());
        assert!(w.is_exhausted());
        assert!(matches!(
            w.charge("t", 1),
            Err(Error::Cancelled { phase: "t", .. })
        ));
        assert!(w.checkpoint("t").is_err());

        let free = WorkBudget::unlimited();
        assert!(free.charge("t", u64::MAX / 2).is_ok());
        assert!(free.checkpoint("t").is_ok());
    }

    #[test]
    fn deadline_solver_answers_with_enough_budget() {
        let inst = piled();
        for kind in [
            SolverKind::Greedy,
            SolverKind::MPartition(ThresholdSearch::Binary),
            SolverKind::CostPartition,
            SolverKind::Ptas(Precision::from_q(2)),
            SolverKind::NoMove,
        ] {
            let out = DeadlineSolver::new(kind)
                .solve(&inst, Budget::Moves(3), &mut Ctx::default())
                .unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
            assert!(inst.move_count(out.assignment()) <= 3, "{}", kind.name());
        }
    }

    #[test]
    fn deadline_solver_cancels_on_tiny_budget() {
        let inst = piled();
        for kind in [
            SolverKind::Greedy,
            SolverKind::MPartition(ThresholdSearch::Binary),
            SolverKind::CostPartition,
            SolverKind::Ptas(Precision::from_q(2)),
        ] {
            let err = DeadlineSolver::new(kind)
                .solve(&inst, Budget::Moves(3), &mut with_work(1))
                .unwrap_err();
            assert!(
                matches!(err, Error::Cancelled { .. }),
                "{}: {err}",
                kind.name()
            );
        }
        // No-move ignores the work budget entirely.
        assert!(DeadlineSolver::new(SolverKind::NoMove)
            .solve(&inst, Budget::Moves(3), &mut with_work(0))
            .is_ok());
    }

    #[test]
    fn chain_answers_from_first_tier_given_budget() {
        let inst = piled();
        let chain = FallbackChain::standard();
        let r = chain.solve(&inst, Budget::Moves(3), &mut Ctx::default());
        assert_eq!(r.tier, "ptas");
        assert_eq!(r.tier_index, 0);
        assert!(!r.degraded());
        assert!(r.failures.is_empty());
        assert!(Budget::Moves(3).allows(&inst, r.outcome.assignment()));
    }

    #[test]
    fn chain_degrades_to_no_move_on_zero_work() {
        let inst = piled();
        let chain = FallbackChain::standard();
        let r = chain.solve(&inst, Budget::Moves(3), &mut with_work(0));
        assert_eq!(r.tier, "no-move");
        assert!(r.degraded());
        assert_eq!(r.failures.len(), 3);
        assert_eq!(r.outcome.moves(), 0);
        assert!(r
            .failures
            .iter()
            .all(|f| matches!(f.error, Error::Cancelled { .. })));
    }

    #[test]
    fn chain_lands_on_intermediate_tier_for_medium_work() {
        // Find a work budget where the PTAS cancels but a cheaper tier
        // still answers; sweep budgets to prove every landing tier is
        // valid and provenance is consistent.
        let inst = piled();
        let chain = FallbackChain::standard();
        let mut seen = std::collections::BTreeSet::new();
        for w in [0, 1, 5, 20, 100, 1000, 100_000, u64::MAX] {
            let r = chain.solve(&inst, Budget::Moves(2), &mut with_work(w));
            assert!(
                Budget::Moves(2).allows(&inst, r.outcome.assignment()),
                "w={w}"
            );
            assert_eq!(r.tier_index > 0, r.degraded(), "w={w}");
            assert_eq!(r.failures.len(), r.tier_index, "w={w}");
            seen.insert(r.tier);
        }
        // At the extremes we must have seen both the best and worst tiers.
        assert!(seen.contains("ptas"));
        assert!(seen.contains("no-move"));
    }

    #[test]
    fn chain_is_deterministic() {
        let inst = piled();
        let chain = FallbackChain::practical();
        for w in [0u64, 37, 1_000, u64::MAX] {
            let a = chain.solve(&inst, Budget::Moves(2), &mut with_work(w));
            let b = chain.solve(&inst, Budget::Moves(2), &mut with_work(w));
            assert_eq!(a.outcome.assignment(), b.outcome.assignment(), "w={w}");
            assert_eq!(a.tier, b.tier, "w={w}");
        }
    }

    #[test]
    fn cost_budgets_flow_through_the_chain() {
        let jobs = vec![
            crate::model::Job::with_cost(9, 4),
            crate::model::Job::with_cost(7, 2),
            crate::model::Job::with_cost(6, 5),
            crate::model::Job::with_cost(5, 1),
        ];
        let inst = Instance::new(jobs, vec![0, 0, 0, 1], 2).unwrap();
        let chain = FallbackChain::standard();
        for b in 0..=12 {
            let r = chain.solve(&inst, Budget::Cost(b), &mut Ctx::default());
            assert!(inst.move_cost(r.outcome.assignment()) <= b, "b={b}");
        }
    }

    #[test]
    fn budget_exhausts_mid_tier_and_later_tiers_cancel_at_entry() {
        // Find a work budget that the first tier *partially* consumes
        // before cancelling — exhaustion strikes inside the tier, not at
        // its first checkpoint. The shared WorkBudget then arrives at
        // every later tier already spent, so each cancels immediately and
        // the chain still answers (no-move at worst), never panicking.
        let inst = piled();
        let chain = FallbackChain::standard();
        let mut hit_mid_tier = false;
        for limit in 1..200u64 {
            let mut ctx = with_work(limit);
            let r = chain.solve(&inst, Budget::Moves(3), &mut ctx);
            // The chain is total regardless of where exhaustion lands.
            assert!(Budget::Moves(3).allows(&inst, r.outcome.assignment()));
            let Some(first) = r.failures.first() else {
                continue; // first tier answered: budget never hit zero
            };
            let Error::Cancelled { consumed, .. } = first.error else {
                panic!("tier failed for a non-cancellation reason: {first:?}");
            };
            // `consumed > limit` means the tier charged ticks past the
            // line mid-solve (a checkpoint-at-entry failure reports
            // exactly the prior consumption, which checkpoint() caps at
            // the recorded value with no new charge).
            if consumed > limit && limit > 1 {
                hit_mid_tier = true;
                // Every subsequent failure sees an exhausted budget.
                for later in &r.failures[1..] {
                    let Error::Cancelled {
                        consumed: c,
                        limit: l,
                        ..
                    } = later.error
                    else {
                        panic!("later tier failed oddly: {later:?}");
                    };
                    assert!(c >= l, "later tiers must cancel on arrival");
                }
                assert!(ctx.work.is_exhausted());
                assert_eq!(ctx.work.remaining(), 0);
            }
        }
        assert!(hit_mid_tier, "no budget exhausted inside a tier");
    }
}
