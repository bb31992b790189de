//! F4 — threshold-search strategies at scale: the plain scan re-evaluates
//! every processor per probe (`O(m log n)` each), the incremental scan pays
//! `O(log n)` per threshold event (the paper's Theorem 3 bound), and the
//! binary search needs only `O(log n)` probes. `k = 0` maximizes the number
//! of thresholds the scans must walk; a loose budget collapses them to a
//! single probe.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lrb_core::mpartition::{rebalance_in, ThresholdSearch};
use lrb_core::Ctx;
use lrb_instances::generators::{GeneratorConfig, PlacementModel, SizeDistribution};

fn instance(n: usize) -> lrb_core::model::Instance {
    GeneratorConfig {
        n,
        m: (n / 32).max(4),
        sizes: SizeDistribution::Exponential { mean: 40.0 },
        placement: PlacementModel::Skewed { skew: 1.2 },
        costs: lrb_instances::generators::CostModel::Unit,
    }
    .generate(17)
}

fn bench_search(c: &mut Criterion) {
    let mut group = c.benchmark_group("f4_threshold_search");
    for &n in &[1_000usize, 10_000] {
        let inst = instance(n);
        for (name, search) in [
            ("scan", ThresholdSearch::Scan),
            ("incremental", ThresholdSearch::Incremental),
            ("binary", ThresholdSearch::Binary),
        ] {
            // k = 0: every threshold below "no moves needed" is infeasible,
            // so the scans walk the longest possible prefix.
            group.bench_with_input(
                BenchmarkId::new(format!("{name}/k0"), n),
                &inst,
                |b, inst| {
                    b.iter(|| {
                        rebalance_in(inst, 0, search, &mut Ctx::default())
                            .unwrap()
                            .threshold
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_search
}
criterion_main!(benches);
