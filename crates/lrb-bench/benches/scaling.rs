//! F1 — runtime scaling of GREEDY and M-PARTITION (`O(n log n)`,
//! Theorems 1 and 3).
//!
//! Criterion reports per-`n` times; the figure's claim is that doubling `n`
//! roughly doubles (not quadruples) the time. The `farm` rows solve the
//! offline farms of perfbench's `batch_large` workload: `n / 8` servers with
//! hot low-numbered ones, sizes uniform in 1..=1000, `k = n / 4`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use lrb_core::{greedy, mpartition};
use lrb_instances::generators::{GeneratorConfig, PlacementModel, SizeDistribution};

fn instance(n: usize) -> lrb_core::model::Instance {
    GeneratorConfig {
        n,
        m: (n / 64).max(4),
        sizes: SizeDistribution::Pareto {
            scale: 5,
            alpha: 1.4,
        },
        placement: PlacementModel::Skewed { skew: 1.0 },
        costs: lrb_instances::generators::CostModel::Unit,
    }
    .generate(42)
}

fn farm(n: usize) -> lrb_core::model::Instance {
    GeneratorConfig {
        n,
        m: n / 8,
        sizes: SizeDistribution::Uniform { lo: 1, hi: 1000 },
        placement: PlacementModel::Skewed { skew: 1.0 },
        costs: lrb_instances::generators::CostModel::Unit,
    }
    .generate(42)
}

fn bench_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("f1_scaling");
    for &n in &[1_000usize, 4_000, 16_000, 64_000] {
        let inst = instance(n);
        let k = n / 16;
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("greedy", n), &inst, |b, inst| {
            b.iter(|| greedy::rebalance(inst, k).unwrap().makespan())
        });
        group.bench_with_input(BenchmarkId::new("m-partition", n), &inst, |b, inst| {
            b.iter(|| mpartition::rebalance(inst, k).unwrap().outcome.makespan())
        });
    }
    for &n in &[1_000usize, 16_000] {
        let inst = farm(n);
        let k = n / 4;
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("greedy/farm", n), &inst, |b, inst| {
            b.iter(|| greedy::rebalance(inst, k).unwrap().makespan())
        });
        group.bench_with_input(BenchmarkId::new("m-partition/farm", n), &inst, |b, inst| {
            b.iter(|| mpartition::rebalance(inst, k).unwrap().outcome.makespan())
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_scaling
}
criterion_main!(benches);
