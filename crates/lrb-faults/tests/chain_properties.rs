//! Property tests: for any seeded fault plan and any instance, the
//! graceful-degradation machinery always returns a valid,
//! budget-respecting assignment, and is deterministic for a fixed seed.

use lrb_core::deadline::{FallbackChain, WorkBudget};
use lrb_core::model::{Budget, Instance};
use lrb_core::Ctx;
use lrb_faults::{FaultConfig, FaultPlan};
use lrb_sim::{run_farm_in, FallbackPolicy, FarmConfig, NoopTracer};
use proptest::collection::vec;
use proptest::prelude::*;

/// Random instance + relocation budget + solver work allowance.
fn chain_inputs() -> impl Strategy<Value = (Instance, Budget, u64)> {
    (1usize..=4).prop_flat_map(|m| {
        (1usize..=10).prop_flat_map(move |n| {
            (
                vec(1u64..=60, n),
                vec(0usize..m, n),
                0usize..=6,
                0u64..=2_000,
                0usize..=1,
            )
                .prop_map(move |(sizes, initial, k, ticks, cost_flag)| {
                    let inst = Instance::from_sizes(&sizes, initial, m).unwrap();
                    let budget = if cost_flag == 0 {
                        Budget::Moves(k)
                    } else {
                        Budget::Cost(k as u64)
                    };
                    (inst, budget, ticks)
                })
        })
    })
}

/// Seeded fault-plan knobs for a small farm run.
fn plan_inputs() -> impl Strategy<Value = (FaultConfig, u64)> {
    (0u64..=1_000, 0u32..=4, 0u32..=2, 0u32..=2, 0u32..=2).prop_map(
        |(seed, crash, stale, drop, exhaust)| {
            let cfg = FaultConfig {
                crash_rate: crash as f64 * 0.05,
                recovery_rate: 0.5,
                perturb_pct: stale * 5,
                stale_rate: stale as f64 * 0.1,
                drop_rate: drop as f64 * 0.05,
                exhaust_rate: exhaust as f64 * 0.15,
                seed,
            };
            (cfg, seed)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The fallback chain is total: whatever the work allowance, the answer
    /// is a well-formed assignment that respects the relocation budget.
    #[test]
    fn fallback_chain_is_always_valid_and_within_budget(
        (inst, budget, ticks) in chain_inputs()
    ) {
        let chain = FallbackChain::standard();
        let report = chain.solve(&inst, budget, &mut Ctx {
            work: WorkBudget::new(ticks),
            ..Ctx::default()
        });
        prop_assert!(inst.makespan_of(report.outcome.assignment()).is_ok());
        prop_assert!(budget.allows(&inst, report.outcome.assignment()));
    }

    /// Two runs with identical inputs produce identical answers and
    /// identical provenance.
    #[test]
    fn fallback_chain_is_deterministic((inst, budget, ticks) in chain_inputs()) {
        let chain = FallbackChain::standard();
        let a = chain.solve(&inst, budget, &mut Ctx {
            work: WorkBudget::new(ticks),
            ..Ctx::default()
        });
        let b = chain.solve(&inst, budget, &mut Ctx {
            work: WorkBudget::new(ticks),
            ..Ctx::default()
        });
        prop_assert_eq!(a.outcome.assignment(), b.outcome.assignment());
        prop_assert_eq!(a.tier, b.tier);
        prop_assert_eq!(a.tier_index, b.tier_index);
    }
}

proptest! {
    // Whole-farm runs are heavier; fewer cases keep the suite quick.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For any seeded fault plan, a faulty farm run with the fallback
    /// policy completes every epoch with valid metrics and is
    /// deterministic for the fixed seed.
    #[test]
    fn faulty_farm_runs_are_valid_and_deterministic((fault_cfg, seed) in plan_inputs()) {
        let mut farm = FarmConfig::default_farm(24, 4);
        farm.epochs = 12;
        farm.seed = seed;
        let plan = FaultPlan::generate(&fault_cfg, farm.num_servers, farm.epochs);

        let a = run_farm_in(&farm, &mut FallbackPolicy::practical(), &plan, &NoopTracer);
        let b = run_farm_in(&farm, &mut FallbackPolicy::practical(), &plan, &NoopTracer);
        prop_assert_eq!(&a.epochs, &b.epochs);
        prop_assert_eq!(&a.decisions, &b.decisions);
        prop_assert_eq!(&a.degradation, &b.degradation);
        prop_assert_eq!(&a.provenance, &b.provenance);

        prop_assert_eq!(a.epochs.len(), farm.epochs);
        for e in &a.epochs {
            prop_assert!(e.makespan >= e.avg_load, "epoch {}", e.epoch);
            if fault_cfg.crash_rate == 0.0 {
                // Without forced evacuations the per-epoch budget holds
                // exactly.
                prop_assert!(e.migrations <= 4, "epoch {}", e.epoch);
            }
        }
    }
}
