//! Batch-engine benchmarks: scratch reuse vs. fresh allocation, and the
//! thread-scaling curve over the smoke bench ladder.
//!
//! Run `cargo bench -p lrb-bench --bench engine_scaling` for interactive
//! comparisons while hacking on the engine or the scratch arenas. The
//! engine's end-to-end throughput is perfbench's (`batch_large`,
//! `fleet_small`); solver cost is gated by exact work counts in the test
//! suites.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use lrb_core::greedy::{self, ReinsertOrder};
use lrb_core::model::Budget;
use lrb_core::mpartition::{self, ThresholdSearch};
use lrb_core::Ctx;
use lrb_engine::{solve_batch, BatchItem, BatchSolver, EngineConfig};
use lrb_harness::bench::{smoke_ladder, standard_ladder};

fn bench_engine_scaling(c: &mut Criterion) {
    // Scratch reuse vs. the allocating entry points on one rung.
    let rung = &standard_ladder(7, 8)[2]; // n=128
    let inst = &rung.instances[0];
    let k = match rung.budget {
        Budget::Moves(k) => k,
        Budget::Cost(b) => b as usize,
    };
    c.bench_function("mpartition/fresh_alloc", |b| {
        b.iter(|| {
            mpartition::rebalance(black_box(inst), k)
                .unwrap()
                .outcome
                .makespan()
        })
    });
    c.bench_function("mpartition/scratch_reuse", |b| {
        let mut ctx = Ctx::default();
        b.iter(|| {
            mpartition::rebalance_in(black_box(inst), k, ThresholdSearch::Binary, &mut ctx)
                .unwrap()
                .outcome
                .makespan()
        })
    });
    c.bench_function("greedy/scratch_reuse", |b| {
        let mut ctx = Ctx::default();
        b.iter(|| {
            greedy::rebalance_in(black_box(inst), k, ReinsertOrder::Descending, &mut ctx)
                .unwrap()
                .outcome
                .makespan()
        })
    });

    // Whole-batch throughput across thread counts on the smoke ladder
    // (small enough for criterion's iteration counts).
    let items: Vec<BatchItem> = smoke_ladder(7)
        .into_iter()
        .flat_map(|b| {
            let budget = b.budget;
            b.instances
                .into_iter()
                .map(move |instance| BatchItem { instance, budget })
        })
        .collect();
    for threads in [1usize, 2, 4, 8] {
        c.bench_function(format!("engine_batch/threads_{threads}"), |b| {
            let cfg = EngineConfig::with_threads(threads);
            b.iter(|| {
                solve_batch(black_box(&items), BatchSolver::MPartition, &cfg)
                    .outcomes
                    .len()
            })
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = bench_engine_scaling
}
criterion_main!(benches);
