//! Zero-cost check for the no-op observers: code instrumented with
//! [`Recorder`] or [`Tracer`] calls, monomorphized over `NoopRecorder` or
//! `NoopTracer`, must run at the speed of uninstrumented code. Each
//! instrumented hot loop is timed against the identical plain loop and the
//! medians must agree within 2% (the bench aborts otherwise). Then, for
//! context, GREEDY runs through its `Ctx` entry under both recorders, and
//! the batch engine runs untraced and under a live collector.

use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use lrb_core::greedy::{self, ReinsertOrder};
use lrb_core::Ctx;
use lrb_engine::{solve_batch, solve_batch_traced, BatchItem, BatchSolver, EngineConfig};
use lrb_harness::bench::smoke_ladder;
use lrb_instances::generators::{CostModel, GeneratorConfig, PlacementModel, SizeDistribution};
use lrb_obs::{AtomicRecorder, NoopRecorder, NoopTracer, Recorder, TraceCollector, Tracer};

/// The uninstrumented hot loop.
fn plain_sum(data: &[u64]) -> u64 {
    let mut acc = 0u64;
    for &v in data {
        acc = acc.wrapping_add(v).rotate_left(7) ^ v;
    }
    acc
}

/// The same loop with per-iteration recorder traffic.
fn recorded_sum<R: Recorder>(data: &[u64], rec: &R) -> u64 {
    let mut acc = 0u64;
    for &v in data {
        rec.incr("bench.iterations", 1);
        rec.observe("bench.values", v);
        acc = acc.wrapping_add(v).rotate_left(7) ^ v;
    }
    acc
}

/// The same loop with per-iteration span traffic: a guard opened and
/// dropped, plus an instant.
fn traced_sum<T: Tracer>(data: &[u64], tracer: &T) -> u64 {
    let mut acc = 0u64;
    for &v in data {
        let _span = tracer.span_with("bench.iteration", v, false);
        tracer.instant("bench.value", v, false);
        acc = acc.wrapping_add(v).rotate_left(7) ^ v;
    }
    acc
}

/// Median wall time of `runs` timed executions of `f`.
fn median_nanos(runs: usize, mut f: impl FnMut() -> u64) -> u64 {
    let mut samples: Vec<u64> = (0..runs)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Abort unless `instrumented` runs within 2% of [`plain_sum`].
fn assert_free(what: &str, data: &[u64], instrumented: impl Fn(&[u64]) -> u64) {
    // Warm up, then compare independent medians over many runs so a single
    // scheduler hiccup cannot decide the outcome.
    let runs = 101;
    for _ in 0..10 {
        black_box(plain_sum(black_box(data)));
        black_box(instrumented(black_box(data)));
    }
    let plain = median_nanos(runs, || plain_sum(black_box(data)));
    let noop = median_nanos(runs, || instrumented(black_box(data)));
    // 2% tolerance plus a 20us absolute floor to absorb timer granularity.
    let limit = plain + plain / 50 + 20_000;
    assert!(
        noop <= limit,
        "{what} overhead above 2%: plain {plain}ns vs instrumented {noop}ns"
    );
    println!("{what} check: plain {plain}ns, instrumented {noop}ns (limit {limit}ns) — ok");
}

fn bench_noop_overhead(c: &mut Criterion) {
    let data: Vec<u64> = (0..65_536u64)
        .map(|i| i.wrapping_mul(2_654_435_761) % 1_000)
        .collect();
    assert_free("NoopRecorder", &data, |d| recorded_sum(d, &NoopRecorder));
    assert_free("NoopTracer", &data, |d| traced_sum(d, &NoopTracer));

    c.bench_function("hot_loop/plain", |b| b.iter(|| plain_sum(black_box(&data))));
    c.bench_function("hot_loop/noop_recorded", |b| {
        b.iter(|| recorded_sum(black_box(&data), &NoopRecorder))
    });
    c.bench_function("hot_loop/atomic_recorded", |b| {
        let rec = AtomicRecorder::new();
        b.iter(|| recorded_sum(black_box(&data), &rec))
    });
    c.bench_function("hot_loop/noop_traced", |b| {
        b.iter(|| traced_sum(black_box(&data), &NoopTracer))
    });

    // A real instrumented algorithm under both recorders.
    let inst = GeneratorConfig {
        n: 200,
        m: 8,
        sizes: SizeDistribution::Pareto {
            scale: 5,
            alpha: 1.4,
        },
        placement: PlacementModel::Skewed { skew: 1.0 },
        costs: CostModel::Unit,
    }
    .generate(7);
    c.bench_function("greedy/noop_recorder", |b| {
        let mut ctx = Ctx::default();
        b.iter(|| {
            greedy::rebalance_in(&inst, 20, ReinsertOrder::Descending, &mut ctx)
                .unwrap()
                .outcome
                .makespan()
        })
    });
    c.bench_function("greedy/atomic_recorder", |b| {
        let rec = AtomicRecorder::new();
        let mut ctx = Ctx::new(&rec);
        b.iter(|| {
            greedy::rebalance_in(&inst, 20, ReinsertOrder::Descending, &mut ctx)
                .unwrap()
                .outcome
                .makespan()
        })
    });

    // The batch engine untraced vs. under a live collector.
    let batch = &smoke_ladder(7)[0];
    let items: Vec<BatchItem> = batch
        .instances
        .iter()
        .map(|inst| BatchItem {
            instance: inst.clone(),
            budget: batch.budget,
        })
        .collect();
    let cfg = EngineConfig::with_threads(2);
    c.bench_function("engine_batch/untraced", |b| {
        b.iter(|| {
            solve_batch(black_box(&items), BatchSolver::MPartition, &cfg)
                .outcomes
                .len()
        })
    });
    c.bench_function("engine_batch/live_collector", |b| {
        b.iter(|| {
            let mut collector = TraceCollector::new(2);
            solve_batch_traced(
                black_box(&items),
                BatchSolver::MPartition,
                &cfg,
                &mut collector,
            )
            .outcomes
            .len()
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_noop_overhead
}
criterion_main!(benches);
