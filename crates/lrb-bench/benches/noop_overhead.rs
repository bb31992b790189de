//! Zero-cost check for the no-op observer: a hot loop making every call of
//! the [`Tracer`] trait, monomorphized over `NoopTracer`, must run at the
//! speed of the identical uninstrumented loop. The gate times 201
//! interleaved pairs of the two loops on the same 65,536-element input,
//! alternating which side runs first, and aborts unless the median of the
//! per-pair ratios `instrumented / plain` is at most 1.02, with no absolute
//! floor. On a 2-vCPU x86-64 VM that median reads 0.9998–1.0013 for the
//! NoopTracer loop, while the plain loop plus one `u64` division every 64
//! iterations reads 1.07–1.08 and fails. Then, for context, the loop and
//! GREEDY's `Ctx` entry run untraced and under a live `AtomicRecorder`, and
//! the batch engine runs untraced and under a live collector.

use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use lrb_core::greedy::{self, ReinsertOrder};
use lrb_core::Ctx;
use lrb_engine::{solve_batch, solve_batch_in, BatchItem, BatchSolver, EngineConfig};
use lrb_harness::bench::smoke_ladder;
use lrb_instances::generators::{CostModel, GeneratorConfig, PlacementModel, SizeDistribution};
use lrb_obs::{AtomicRecorder, NoopTracer, TraceCollector, Tracer};

/// The uninstrumented hot loop.
fn plain_sum(data: &[u64]) -> u64 {
    let mut acc = 0u64;
    for &v in data {
        acc = acc.wrapping_add(v).rotate_left(7) ^ v;
    }
    acc
}

/// The same loop making every call of the `Tracer` trait per iteration: a
/// span with a payload, a counter, a histogram observation and an instant.
fn observed_sum<T: Tracer>(data: &[u64], obs: &T) -> u64 {
    let mut acc = 0u64;
    for &v in data {
        let _span = obs.span_with("bench.iteration", v, false);
        obs.incr("bench.iterations", 1);
        obs.observe("bench.values", v);
        obs.instant("bench.value", v, false);
        acc = acc.wrapping_add(v).rotate_left(7) ^ v;
    }
    acc
}

/// Wall time of one execution of `f`, in nanoseconds.
fn time_nanos(f: impl Fn() -> u64) -> f64 {
    let start = Instant::now();
    black_box(f());
    start.elapsed().as_nanos() as f64
}

/// Abort unless `instrumented` runs at [`plain_sum`]'s speed: over 201
/// interleaved pairs, alternating which side runs first, the median of the
/// per-pair ratios `instrumented / plain` must be at most 1.02.
fn assert_free(what: &str, data: &[u64], instrumented: impl Fn(&[u64]) -> u64) {
    const PAIRS: usize = 201;
    const BOUND: f64 = 1.02;
    for _ in 0..10 {
        black_box(plain_sum(black_box(data)));
        black_box(instrumented(black_box(data)));
    }
    let plain = || plain_sum(black_box(data));
    let observed = || instrumented(black_box(data));
    // Each pair runs back to back, so a slow stretch of the host slows both
    // sides of the pairs inside it; alternating the order cancels any
    // first-runner bias.
    let mut ratios: Vec<f64> = (0..PAIRS)
        .map(|i| {
            if i % 2 == 0 {
                let p = time_nanos(plain);
                time_nanos(observed) / p
            } else {
                let o = time_nanos(observed);
                o / time_nanos(plain)
            }
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    let median = ratios[PAIRS / 2];
    assert!(
        median <= BOUND,
        "{what} overhead: median instrumented/plain ratio {median:.4} over {PAIRS} \
         interleaved pairs is above {BOUND}"
    );
    println!(
        "{what} check: median instrumented/plain ratio {median:.4} over {PAIRS} interleaved \
         pairs (bound {BOUND}) — ok"
    );
}

fn bench_noop_overhead(c: &mut Criterion) {
    let data: Vec<u64> = (0..65_536u64)
        .map(|i| i.wrapping_mul(2_654_435_761) % 1_000)
        .collect();
    assert_free("NoopTracer", &data, |d| observed_sum(d, &NoopTracer));

    c.bench_function("hot_loop/plain", |b| b.iter(|| plain_sum(black_box(&data))));
    c.bench_function("hot_loop/noop_tracer", |b| {
        b.iter(|| observed_sum(black_box(&data), &NoopTracer))
    });
    c.bench_function("hot_loop/live_recorder", |b| {
        let rec = AtomicRecorder::new();
        b.iter(|| observed_sum(black_box(&data), &rec))
    });

    // A real instrumented algorithm, untraced and under a live recorder.
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
    c.bench_function("greedy/untraced", |b| {
        let mut ctx = Ctx::default();
        b.iter(|| {
            greedy::rebalance_in(&inst, 20, ReinsertOrder::Descending, &mut ctx)
                .unwrap()
                .outcome
                .makespan()
        })
    });
    c.bench_function("greedy/live_recorder", |b| {
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
            let collector = TraceCollector::new(1);
            solve_batch_in(
                black_box(&items),
                BatchSolver::MPartition,
                &cfg,
                collector.main(),
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
