//! Rebalancing policies pluggable into the simulators.
//!
//! A policy sees the current placement as a load rebalancing [`Instance`]
//! (current loads as job sizes, current placement as the initial
//! assignment) plus a per-epoch relocation budget, and returns the new
//! assignment. The simulator enforces that the returned assignment is
//! well-formed and within budget.

use lrb_core::deadline::{DeadlineSolver, FallbackChain, SolverKind, WorkBudget};
use lrb_core::lpt;
use lrb_core::model::{Assignment, Budget, Instance};
use lrb_core::mpartition::ThresholdSearch;
use lrb_core::Ctx;

/// A per-epoch rebalancing policy.
pub trait Policy {
    /// Display name for reports.
    fn name(&self) -> &'static str;

    /// Produce a new assignment within the budget.
    fn rebalance(&mut self, inst: &Instance, budget: Budget) -> Assignment;

    /// Fault-aware simulators announce the epoch's outage mask (`true` =
    /// down) before calling [`Policy::rebalance`]. The mask describes the
    /// *unprojected* farm, so its length can exceed the number of
    /// processors in the instance the policy is then handed (the simulator
    /// projects crashed processors away). Default: ignore.
    fn note_outages(&mut self, _down: &[bool]) {}

    /// Fault-aware simulators announce the epoch's solver work allowance:
    /// `Some(ticks)` when the fault plan declares the solver budget
    /// exhausted, `None` for an unconstrained epoch. Default: ignore.
    fn note_work_budget(&mut self, _ticks: Option<u64>) {}

    /// Who answered the last [`Policy::rebalance`] call: `"policy"` for the
    /// normal path, or a fallback-tier name (e.g. `"greedy"`, `"no-move"`)
    /// when the policy degraded. Default: always the normal path.
    fn provenance(&self) -> &'static str {
        "policy"
    }
}

/// Never move anything — the drift baseline.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoRebalance;

impl Policy for NoRebalance {
    fn name(&self) -> &'static str {
        "no-rebalance"
    }

    fn rebalance(&mut self, inst: &Instance, _budget: Budget) -> Assignment {
        inst.initial().clone()
    }
}

/// The paper's `GREEDY` (§2) each epoch. Under a cost budget it moves at
/// most the jobs the budget could pay for, and an answer that still
/// overspends leaves every job in place.
#[derive(Debug, Default, Clone, Copy)]
pub struct GreedyPolicy;

impl Policy for GreedyPolicy {
    fn name(&self) -> &'static str {
        "greedy"
    }

    fn rebalance(&mut self, inst: &Instance, budget: Budget) -> Assignment {
        solve_or_stay(SolverKind::Greedy, inst, budget)
    }
}

/// The paper's `M-PARTITION` (§3) each epoch — the headline policy. Cost
/// budgets go to the §3.2 cost algorithm.
#[derive(Debug, Default, Clone, Copy)]
pub struct MPartitionPolicy;

impl Policy for MPartitionPolicy {
    fn name(&self) -> &'static str {
        "m-partition"
    }

    fn rebalance(&mut self, inst: &Instance, budget: Budget) -> Assignment {
        solve_or_stay(
            SolverKind::MPartition(ThresholdSearch::Binary),
            inst,
            budget,
        )
    }
}

/// `kind`'s [`DeadlineSolver`] answer, or the unchanged placement when it
/// fails.
fn solve_or_stay(kind: SolverKind, inst: &Instance, budget: Budget) -> Assignment {
    DeadlineSolver::new(kind)
        .solve(inst, budget, &mut Ctx::default())
        .map(|o| o.into_assignment())
        .unwrap_or_else(|_| inst.initial().clone())
}

/// Reschedule everything from scratch with LPT, ignoring the budget (the
/// simulator treats this policy as having an unlimited budget). The upper
/// baseline: what unconstrained migration buys.
#[derive(Debug, Default, Clone, Copy)]
pub struct FullRebalance;

impl Policy for FullRebalance {
    fn name(&self) -> &'static str {
        "full-rebalance"
    }

    fn rebalance(&mut self, inst: &Instance, _budget: Budget) -> Assignment {
        lpt::full_rebalance(inst)
            .map(|o| o.into_assignment())
            .unwrap_or_else(|_| inst.initial().clone())
    }
}

/// Wrap another policy: only invoke it when the imbalance (makespan over
/// average load) exceeds `trigger_pct`/100; otherwise do nothing. Models
/// the operational pattern of rebalancing only past a threshold.
///
/// Under fault injection the trigger is outage-aware: when the processor
/// responsible for the makespan (the most loaded one) is marked down by
/// [`Policy::note_outages`], its reported load is untrustworthy and the
/// wrapper does not fire. Suppression only applies when the mask length
/// matches the instance (i.e. the instance was not already projected onto
/// the surviving processors).
#[derive(Debug, Clone, Default)]
pub struct ThresholdTriggered<P> {
    /// The wrapped policy.
    pub inner: P,
    /// Trigger when `100·makespan > trigger_pct · avg`.
    pub trigger_pct: u64,
    down: Vec<bool>,
}

impl<P> ThresholdTriggered<P> {
    /// Wrap `inner`, firing past `trigger_pct` percent imbalance.
    pub fn new(inner: P, trigger_pct: u64) -> Self {
        ThresholdTriggered {
            inner,
            trigger_pct,
            down: Vec::new(),
        }
    }
}

impl<P: Policy> Policy for ThresholdTriggered<P> {
    fn name(&self) -> &'static str {
        "threshold-triggered"
    }

    fn rebalance(&mut self, inst: &Instance, budget: Budget) -> Assignment {
        let avg = inst.avg_load_ceil().max(1);
        let fires = 100 * inst.initial_makespan() > self.trigger_pct * avg;
        if fires && self.down.len() == inst.num_procs() {
            // The trigger is the most loaded processor; if it is down, the
            // spike is an artifact of an outage, not a reason to burn the
            // migration budget on stale data.
            let trigger_proc = inst
                .initial_loads()
                .iter()
                .enumerate()
                .max_by_key(|&(_, &l)| l)
                .map(|(p, _)| p);
            if trigger_proc.is_some_and(|p| self.down[p]) {
                return inst.initial().clone();
            }
        }
        if fires {
            self.inner.rebalance(inst, budget)
        } else {
            inst.initial().clone()
        }
    }

    fn note_outages(&mut self, down: &[bool]) {
        self.down = down.to_vec();
        self.inner.note_outages(down);
    }

    fn note_work_budget(&mut self, ticks: Option<u64>) {
        self.inner.note_work_budget(ticks);
    }

    fn provenance(&self) -> &'static str {
        self.inner.provenance()
    }
}

/// A graceful-degradation policy: run a [`FallbackChain`] each epoch under
/// the work allowance announced via [`Policy::note_work_budget`], so a
/// "solver budget exhausted" epoch degrades tier by tier (PTAS →
/// M-PARTITION → GREEDY → no-move) instead of failing.
#[derive(Debug, Clone)]
pub struct FallbackPolicy {
    chain: FallbackChain,
    work_limit: Option<u64>,
    last_tier: &'static str,
}

impl FallbackPolicy {
    /// Drive the given chain.
    pub fn new(chain: FallbackChain) -> Self {
        FallbackPolicy {
            chain,
            work_limit: None,
            last_tier: "policy",
        }
    }

    /// The quality-first chain ([`FallbackChain::standard`]).
    pub fn standard() -> Self {
        Self::new(FallbackChain::standard())
    }

    /// The cheap polynomial chain ([`FallbackChain::practical`]).
    pub fn practical() -> Self {
        Self::new(FallbackChain::practical())
    }

    /// Name of the tier that answered the last epoch (`"policy"` when the
    /// first tier answered, before any epoch ran, or after a clean epoch).
    pub fn last_tier(&self) -> &'static str {
        self.last_tier
    }
}

impl Policy for FallbackPolicy {
    fn name(&self) -> &'static str {
        "fallback-chain"
    }

    fn rebalance(&mut self, inst: &Instance, budget: Budget) -> Assignment {
        let work = match self.work_limit {
            Some(ticks) => WorkBudget::new(ticks),
            None => WorkBudget::unlimited(),
        };
        let report = self.chain.solve(
            inst,
            budget,
            &mut Ctx {
                work,
                ..Ctx::default()
            },
        );
        self.last_tier = if report.degraded() {
            report.tier
        } else {
            "policy"
        };
        report.outcome.into_assignment()
    }

    fn note_work_budget(&mut self, ticks: Option<u64>) {
        self.work_limit = ticks;
    }

    fn provenance(&self) -> &'static str {
        self.last_tier
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inst() -> Instance {
        Instance::from_sizes(&[9, 8, 2, 1], vec![0, 0, 1, 1], 2).unwrap()
    }

    #[test]
    fn no_rebalance_is_identity() {
        let i = inst();
        let a = NoRebalance.rebalance(&i, Budget::Moves(4));
        assert_eq!(&a, i.initial());
    }

    #[test]
    fn policies_respect_move_budget() {
        let i = inst();
        for k in 0..=4 {
            for (name, a) in [
                ("greedy", GreedyPolicy.rebalance(&i, Budget::Moves(k))),
                (
                    "m-partition",
                    MPartitionPolicy.rebalance(&i, Budget::Moves(k)),
                ),
            ] {
                assert!(i.move_count(&a) <= k, "{name} k={k}");
                assert!(i.makespan_of(&a).is_ok(), "{name} k={k}");
            }
        }
    }

    #[test]
    fn mpartition_policy_honors_cost_budgets() {
        let i = inst();
        for b in 0..=4 {
            let a = MPartitionPolicy.rebalance(&i, Budget::Cost(b));
            assert!(i.move_cost(&a) <= b, "b={b}");
        }
    }

    #[test]
    fn full_rebalance_balances() {
        let i = inst();
        let a = FullRebalance.rebalance(&i, Budget::Moves(0));
        // Total 20 over 2 -> LPT reaches 10 here ({9,1},{8,2}).
        assert_eq!(i.makespan_of(&a).unwrap(), 10);
    }

    #[test]
    fn threshold_trigger_gates_the_inner_policy() {
        let i = inst(); // makespan 17, avg 10: imbalance 170%.
        let mut calm = ThresholdTriggered::new(GreedyPolicy, 200);
        assert_eq!(&calm.rebalance(&i, Budget::Moves(4)), i.initial());
        let mut eager = ThresholdTriggered::new(GreedyPolicy, 110);
        assert_ne!(&eager.rebalance(&i, Budget::Moves(4)), i.initial());
    }

    #[test]
    fn threshold_trigger_is_suppressed_when_the_triggering_processor_is_down() {
        let i = inst(); // proc 0 carries the makespan (17 of 20).
        let mut p = ThresholdTriggered::new(GreedyPolicy, 110);

        // The most loaded processor is down: the spike is untrustworthy,
        // the wrapper must not fire.
        p.note_outages(&[true, false]);
        assert_eq!(&p.rebalance(&i, Budget::Moves(4)), i.initial());

        // A different processor is down: the trigger stands.
        p.note_outages(&[false, true]);
        assert_ne!(&p.rebalance(&i, Budget::Moves(4)), i.initial());

        // Outages cleared: normal behavior again.
        p.note_outages(&[false, false]);
        assert_ne!(&p.rebalance(&i, Budget::Moves(4)), i.initial());

        // A mask from the unprojected farm (wrong length for this
        // instance) never suppresses.
        p.note_outages(&[true, false, false]);
        assert_ne!(&p.rebalance(&i, Budget::Moves(4)), i.initial());
    }

    #[test]
    fn fallback_policy_degrades_with_the_announced_work_budget() {
        let i = inst();
        let mut p = FallbackPolicy::standard();

        // Unconstrained: first tier answers, provenance is the normal path.
        let a = p.rebalance(&i, Budget::Moves(2));
        assert!(i.move_count(&a) <= 2);
        assert_eq!(p.provenance(), "policy");

        // One tick of work: every real tier cancels, the chain bottoms out
        // at no-move — which is still a valid, budget-respecting answer.
        p.note_work_budget(Some(1));
        let a = p.rebalance(&i, Budget::Moves(2));
        assert_eq!(&a, i.initial());
        assert_eq!(p.provenance(), "no-move");
        assert_eq!(p.last_tier(), "no-move");

        // Lifting the allowance restores the normal path.
        p.note_work_budget(None);
        p.rebalance(&i, Budget::Moves(2));
        assert_eq!(p.provenance(), "policy");
    }
}
