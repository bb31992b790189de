//! Online-vs-batch equivalence: the acceptance invariant of the streaming
//! subsystem.
//!
//! At every epoch of a seeded online run (a checkpoint), the incremental
//! [`OnlineRebalancer`]'s answer must be **bit-identical** to a from-scratch
//! batch solve of the same snapshot at the same effective budget — solved
//! sequentially by the core algorithms *and* through the batch engine at
//! every thread count (1, 2, 4, 8, both cold `solve_batch` calls and warm
//! [`StreamEngine`]s carried across epochs). The rebalancer's own state
//! must land exactly on the committed outcome.
//!
//! [`OnlineRebalancer`]: load_rebalance::core::online::OnlineRebalancer

use load_rebalance::core::model::Budget;
use load_rebalance::core::online::{BankConfig, OnlineRebalancer};
use load_rebalance::core::{cost_partition, mpartition};
use load_rebalance::engine::{solve_batch, BatchItem, BatchSolver, EngineConfig, StreamEngine};
use load_rebalance::sim::{OnlineWorkload, OnlineWorkloadConfig};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Drive one seeded stream, checking every checkpoint against from-scratch
/// solves at every thread count.
fn drive_and_check(cfg: OnlineWorkloadConfig) {
    let mut workload = OnlineWorkload::new(cfg);
    let mut rebalancer = OnlineRebalancer::new(cfg.num_procs, cfg.bank).unwrap();
    for event in workload.initial_events() {
        rebalancer.apply(event).unwrap();
    }
    // Warm stream engines survive across epochs: their scratch reuse (each
    // worker's warm profile and PARTITION buffers) must never change an
    // answer.
    let mut engines: Vec<StreamEngine> = THREAD_COUNTS
        .iter()
        .map(|&t| StreamEngine::new(BatchSolver::MPartition, &EngineConfig::with_threads(t)))
        .collect();

    for epoch in 0..cfg.epochs {
        for event in workload.epoch_events() {
            rebalancer.apply(event).unwrap();
        }
        let snapshot = rebalancer.instance();
        let step = rebalancer.rebalance(cfg.budget).unwrap();

        // Checkpoint 1: from-scratch sequential solve of the snapshot at
        // the effective (bank-clamped) budget.
        match step.effective {
            Budget::Moves(k) => {
                let fresh = mpartition::rebalance(&snapshot, k).unwrap();
                assert_eq!(
                    step.outcome, fresh.outcome,
                    "epoch {epoch}: online diverged from batch m-partition"
                );
            }
            Budget::Cost(b) => {
                let fresh = cost_partition::rebalance(&snapshot, b).unwrap();
                assert_eq!(
                    step.outcome, fresh.outcome,
                    "epoch {epoch}: online diverged from batch cost-partition"
                );
            }
        }

        // Checkpoint 2: the engine at every thread count — warm stream
        // engines and cold one-shot batches alike.
        if matches!(step.effective, Budget::Moves(_)) {
            let item = BatchItem {
                instance: snapshot.clone(),
                budget: step.effective,
            };
            for engine in &mut engines {
                let report = engine.solve_epoch(std::slice::from_ref(&item));
                assert_eq!(
                    report.outcomes[0],
                    step.outcome,
                    "epoch {epoch}: warm engine ({} workers) diverged",
                    engine.workers()
                );
            }
            for &threads in &THREAD_COUNTS {
                let report = solve_batch(
                    std::slice::from_ref(&item),
                    BatchSolver::MPartition,
                    &EngineConfig::with_threads(threads),
                );
                assert_eq!(
                    report.outcomes[0], step.outcome,
                    "epoch {epoch}: cold engine ({threads} threads) diverged"
                );
            }
        }

        // Checkpoint 3: the online state landed exactly on the outcome.
        assert_eq!(rebalancer.assignment(), step.outcome.assignment());
        assert_eq!(rebalancer.makespan(), step.outcome.makespan());
        assert_eq!(
            snapshot.loads_of(step.outcome.assignment()).unwrap(),
            rebalancer.loads()
        );
    }
}

#[test]
fn move_budget_checkpoints_are_bit_identical_across_thread_counts() {
    for seed in [0u64, 7, 42] {
        let mut cfg = OnlineWorkloadConfig::default_online(5);
        cfg.epochs = 25;
        cfg.seed = seed;
        drive_and_check(cfg);
    }
}

#[test]
fn cost_budget_checkpoints_are_bit_identical() {
    let mut cfg = OnlineWorkloadConfig::default_online(4);
    cfg.epochs = 20;
    cfg.budget = Budget::Cost(6);
    cfg.seed = 13;
    drive_and_check(cfg);
}

#[test]
fn unlimited_bank_checkpoints_are_bit_identical() {
    // With an unlimited bank the effective budget always equals the
    // requested one; the equivalence must hold there too.
    let mut cfg = OnlineWorkloadConfig::default_online(6);
    cfg.epochs = 15;
    cfg.bank = BankConfig::unlimited();
    cfg.seed = 99;
    drive_and_check(cfg);
}
