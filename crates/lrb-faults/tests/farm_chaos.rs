//! Acceptance tests for fault injection end to end: an `lrb-sim` farm run
//! under a generated [`FaultPlan`] must stay valid every epoch, record
//! fallback provenance, and — for a no-fault plan — reproduce the
//! fault-oblivious simulator bit-for-bit.

use lrb_faults::{FaultConfig, FaultPlan};
use lrb_sim::{
    run_farm, run_farm_in, FallbackPolicy, FarmConfig, GreedyPolicy, MPartitionPolicy, NoopTracer,
};

fn farm() -> FarmConfig {
    let mut cfg = FarmConfig::default_farm(60, 6);
    cfg.epochs = 50;
    cfg
}

#[test]
fn ten_percent_crash_rate_yields_a_valid_assignment_every_epoch() {
    let cfg = farm();
    let plan = FaultPlan::generate(
        &FaultConfig::crashes(0.1, 0.5, 42),
        cfg.num_servers,
        cfg.epochs,
    );
    assert!(!plan.is_fault_free());

    let report = run_farm_in(&cfg, &mut MPartitionPolicy, &plan, &NoopTracer);
    assert_eq!(report.epochs.len(), cfg.epochs);
    for e in &report.epochs {
        // A valid assignment keeps the whole load placed: the makespan can
        // never undercut the per-epoch lower bound.
        assert!(e.makespan >= e.avg_load, "epoch {}", e.epoch);
    }
    // Crashes at this rate force evacuations at some point in 50 epochs.
    assert!(report.degradation.forced_migrations > 0);
    assert!(report.degradation.epochs_degraded > 0);
}

#[test]
fn fallback_provenance_is_recorded_in_the_report() {
    let cfg = farm();
    let plan = FaultPlan::generate(
        &FaultConfig {
            crash_rate: 0.1,
            recovery_rate: 0.5,
            exhaust_rate: 0.3,
            ..FaultConfig::none(7)
        },
        cfg.num_servers,
        cfg.epochs,
    );

    let report = run_farm_in(&cfg, &mut FallbackPolicy::standard(), &plan, &NoopTracer);
    assert_eq!(report.provenance.len(), cfg.epochs);
    // Exhausted-budget epochs drove the chain past its first tier, and the
    // answering tier's name is in the trace.
    assert!(report.degradation.fallback_invocations > 0);
    assert!(
        report
            .provenance
            .iter()
            .any(|tier| tier != "policy" && tier != "rejected"),
        "{:?}",
        report.provenance
    );
}

#[test]
fn no_fault_plan_reproduces_the_seed_simulator_bit_for_bit() {
    let cfg = farm();
    for plan in [
        FaultPlan::none(cfg.num_servers),
        FaultPlan::generate(&FaultConfig::none(99), cfg.num_servers, cfg.epochs),
    ] {
        assert!(plan.is_fault_free());
        let clean = run_farm(&cfg, &mut GreedyPolicy);
        let faulty = run_farm_in(&cfg, &mut GreedyPolicy, &plan, &NoopTracer);
        assert_eq!(clean.epochs, faulty.epochs);
        assert_eq!(clean.decisions, faulty.decisions);
        assert_eq!(clean.degradation, faulty.degradation);
        assert!(faulty.degradation.is_clean());
        assert!(faulty.provenance.is_empty());
    }
}

#[test]
fn corrupted_views_never_corrupt_the_reported_metrics() {
    // Stale/dropped/perturbed reports distort what the policy sees, but
    // the report must describe true loads: total size conservation shows
    // up as makespan >= avg_load every epoch.
    let cfg = farm();
    let plan = FaultPlan::generate(
        &FaultConfig {
            perturb_pct: 20,
            stale_rate: 0.2,
            drop_rate: 0.1,
            ..FaultConfig::none(5)
        },
        cfg.num_servers,
        cfg.epochs,
    );
    let report = run_farm_in(&cfg, &mut MPartitionPolicy, &plan, &NoopTracer);
    for e in &report.epochs {
        assert!(e.makespan >= e.avg_load, "epoch {}", e.epoch);
        assert!(
            e.migrations <= 4,
            "epoch {}: no crashes, budget is 4",
            e.epoch
        );
    }
}
