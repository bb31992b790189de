//! F2 — runtime of the arbitrary-cost variant (§3.2, polynomial) vs the
//! PTAS (§4, polynomial in `n` but exponential in `1/ε`).
//!
//! The figure's claim is the paper's own practicality remark: the 1.5
//! algorithm scales; the PTAS blows up as `q = 1/δ` grows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lrb_core::cost_partition;
use lrb_core::ptas::{self, Precision};
use lrb_instances::generators::{CostModel, GeneratorConfig, PlacementModel, SizeDistribution};

fn instance(n: usize) -> lrb_core::model::Instance {
    GeneratorConfig {
        n,
        m: 3,
        sizes: SizeDistribution::Uniform { lo: 10, hi: 100 },
        placement: PlacementModel::Random,
        costs: CostModel::Uniform { lo: 1, hi: 10 },
    }
    .generate(7)
}

/// A large offline farm: 4,000 jobs piled onto the low-numbered of 500
/// servers, the shape whose hot processors hold hundreds of jobs each.
fn farm() -> lrb_core::model::Instance {
    GeneratorConfig {
        n: 4_000,
        m: 500,
        sizes: SizeDistribution::Uniform { lo: 1, hi: 1000 },
        placement: PlacementModel::Skewed { skew: 1.0 },
        costs: CostModel::Uniform { lo: 1, hi: 10 },
    }
    .generate(7)
}

fn bench_cost_partition(c: &mut Criterion) {
    let mut group = c.benchmark_group("f2_cost_partition");
    let points = [50usize, 100, 200, 400]
        .iter()
        .map(|&n| (n.to_string(), instance(n)))
        .chain([("farm_4000".to_string(), farm())]);
    for (id, inst) in points {
        let budget = inst.total_cost() / 4;
        group.bench_with_input(BenchmarkId::from_parameter(id), &inst, |b, inst| {
            b.iter(|| {
                cost_partition::rebalance(inst, budget)
                    .unwrap()
                    .outcome
                    .makespan()
            })
        });
    }
    group.finish();
}

fn bench_ptas(c: &mut Criterion) {
    let mut group = c.benchmark_group("f2_ptas");
    // n sweep at fixed precision.
    for &n in &[6usize, 8, 10] {
        let inst = instance(n);
        let budget = inst.total_cost() / 4;
        group.bench_with_input(BenchmarkId::new("n", n), &inst, |b, inst| {
            b.iter(|| {
                ptas::rebalance(inst, budget, Precision::from_q(3))
                    .unwrap()
                    .outcome
                    .makespan()
            })
        });
    }
    // precision sweep at fixed n: exponential blow-up in q.
    let inst = instance(8);
    let budget = inst.total_cost() / 4;
    for &q in &[2u64, 3, 4, 5] {
        group.bench_with_input(BenchmarkId::new("q", q), &inst, |b, inst| {
            b.iter(|| {
                ptas::rebalance(inst, budget, Precision::from_q(q))
                    .unwrap()
                    .outcome
                    .makespan()
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_cost_partition, bench_ptas
}
criterion_main!(benches);
