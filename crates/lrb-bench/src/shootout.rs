//! Experiments T9, T13, T14: algorithm comparisons and ablations.

use std::time::Instant;

use lrb_core::bounds;
use lrb_core::model::{Budget, Instance};
use lrb_core::mpartition::{self, ThresholdSearch};
use lrb_core::{greedy, lpt, Ctx};
use lrb_engine::{run_all, EngineConfig};
use lrb_harness::{geo_mean, seed_for, Table};
use lrb_instances::generators::{GeneratorConfig, PlacementModel, SizeDistribution};

use crate::common::{ratio, Scale};

fn medium_instance(n: usize, m: usize, seed: u64) -> Instance {
    GeneratorConfig {
        n,
        m,
        sizes: SizeDistribution::Pareto {
            scale: 5,
            alpha: 1.4,
        },
        placement: PlacementModel::Skewed { skew: 1.0 },
        costs: lrb_instances::generators::CostModel::Unit,
    }
    .generate(seed)
}

/// T9 — the shootout: GREEDY vs M-PARTITION vs the Shmoys–Tardos LP
/// baseline, makespan relative to the instance lower bound, across move
/// budgets. (The LP baseline gets the §2 unit-cost reduction.)
pub fn t9_shootout(scale: Scale) -> Table {
    let mut table = Table::new(
        "T9: GREEDY vs M-PARTITION vs Shmoys-Tardos (makespan / lower bound, geo-mean)",
        &[
            "n",
            "m",
            "k",
            "greedy",
            "m-partition",
            "st-lp",
            "st-lp time x",
        ],
    );
    for &(n, m) in &[(30usize, 4usize), (60, 6)] {
        for &k in &[2usize, 4, 8, 16] {
            let seeds: Vec<u64> = (0..scale.trials() as u64)
                .map(|t| seed_for(0xA9, t * 100 + n as u64 + k as u64))
                .collect();
            let rows = run_all(&seeds, &EngineConfig::default(), |&seed| {
                let inst = medium_instance(n, m, seed);
                let lb = bounds::lower_bound(&inst, Budget::Moves(k)).max(1);

                let t0 = Instant::now();
                let g = greedy::rebalance(&inst, k).expect("greedy").makespan();
                let tg = t0.elapsed();

                let t0 = Instant::now();
                let p = mpartition::rebalance(&inst, k)
                    .expect("mp")
                    .outcome
                    .makespan();
                let tp = t0.elapsed().max(tg);

                let t0 = Instant::now();
                let st = lrb_lp::rebalance(&inst, k as u64)
                    .expect("st")
                    .outcome
                    .makespan();
                let ts = t0.elapsed();

                (
                    ratio(g, lb),
                    ratio(p, lb),
                    ratio(st, lb),
                    ts.as_secs_f64() / tp.as_secs_f64().max(1e-9),
                )
            });
            let gs: Vec<f64> = rows.iter().map(|r| r.0).collect();
            let ps: Vec<f64> = rows.iter().map(|r| r.1).collect();
            let sts: Vec<f64> = rows.iter().map(|r| r.2).collect();
            let slow: f64 = rows.iter().map(|r| r.3).sum::<f64>() / rows.len().max(1) as f64;
            table.row(&[
                n.to_string(),
                m.to_string(),
                k.to_string(),
                format!("{:.3}", geo_mean(&gs)),
                format!("{:.3}", geo_mean(&ps)),
                format!("{:.3}", geo_mean(&sts)),
                format!("{slow:.0}x"),
            ]);
        }
    }
    table
}

/// T13 — move-budget crossover: the smallest `k` at which bounded
/// rebalancing gets within 25% / 10% / 2% of full (LPT-from-scratch)
/// rebalancing. The paper's qualitative claim is that most of the benefit
/// arrives at small `k` — visible as the 25% and 10% columns sitting far
/// below `n`.
pub fn t13_crossover(scale: Scale) -> Table {
    let mut table = Table::new(
        "T13: smallest k for M-PARTITION within x% of full rebalancing (mean over trials)",
        &["n", "m", "k(25%)", "k(10%)", "k(2%)", "k(25%)/n"],
    );
    for &(n, m) in &[(40usize, 4usize), (60, 6), (80, 8)] {
        let seeds: Vec<u64> = (0..scale.trials() as u64)
            .map(|t| seed_for(0xB3, t * 31 + n as u64))
            .collect();
        let rows = run_all(&seeds, &EngineConfig::default(), |&seed| {
            let inst = medium_instance(n, m, seed);
            let full = lpt::full_rebalance(&inst).expect("lpt").makespan();
            // Smallest k with makespan <= full * (1 + pct/100), per pct.
            let mut ks = [n; 3];
            let targets = [full + full / 4, full + full / 10, full + full / 50];
            let mut found = 0;
            for k in 0..=n {
                let p = mpartition::rebalance(&inst, k)
                    .expect("mp")
                    .outcome
                    .makespan();
                for (i, &t) in targets.iter().enumerate() {
                    if ks[i] == n && p <= t {
                        ks[i] = k;
                        found += 1;
                    }
                }
                if found == 3 {
                    break;
                }
            }
            ks
        });
        let mean = |i: usize| -> f64 {
            rows.iter().map(|ks| ks[i] as f64).sum::<f64>() / rows.len().max(1) as f64
        };
        table.row(&[
            n.to_string(),
            m.to_string(),
            format!("{:.1}", mean(0)),
            format!("{:.1}", mean(1)),
            format!("{:.1}", mean(2)),
            format!("{:.2}", mean(0) / n as f64),
        ]);
    }
    table
}

/// T14 — §3.1 ablation: three threshold-search strategies — the plain
/// increasing scan, the paper's incremental event-driven scan, and binary
/// search — must agree on the chosen threshold; they differ in probe
/// counts and per-probe cost.
pub fn t14_threshold_ablation(scale: Scale) -> Table {
    let mut table = Table::new(
        "T14: M-PARTITION threshold search ablation (scan / incremental / binary)",
        &[
            "n",
            "k",
            "agree",
            "scan probes",
            "incr probes",
            "binary probes",
        ],
    );
    for &n in &[100usize, 1000] {
        for &kfrac in &[0usize, 8, 2] {
            let k = n.checked_div(kfrac).unwrap_or(0);
            let seeds: Vec<u64> = (0..scale.trials() as u64)
                .map(|t| seed_for(0xB4, t * 17 + n as u64 + k as u64))
                .collect();
            let rows = run_all(&seeds, &EngineConfig::default(), |&seed| {
                let inst = medium_instance(n, 8, seed);
                let mut ctx = Ctx::default();
                let scan = mpartition::rebalance_in(&inst, k, ThresholdSearch::Scan, &mut ctx)
                    .expect("scan");
                let inc =
                    mpartition::rebalance_in(&inst, k, ThresholdSearch::Incremental, &mut ctx)
                        .expect("incremental");
                let bin = mpartition::rebalance_in(&inst, k, ThresholdSearch::Binary, &mut ctx)
                    .expect("binary");
                let agree = scan.threshold == bin.threshold
                    && scan.threshold == inc.threshold
                    && scan.outcome.makespan() == bin.outcome.makespan()
                    && scan.outcome.makespan() == inc.outcome.makespan();
                (agree, scan.probes, inc.probes, bin.probes)
            });
            let agree = rows.iter().filter(|r| r.0).count();
            let mean = |f: fn(&(bool, usize, usize, usize)) -> usize| -> f64 {
                rows.iter().map(|r| f(r) as f64).sum::<f64>() / rows.len() as f64
            };
            table.row(&[
                n.to_string(),
                k.to_string(),
                format!("{}/{}", agree, rows.len()),
                format!("{:.1}", mean(|r| r.1)),
                format!("{:.1}", mean(|r| r.2)),
                format!("{:.1}", mean(|r| r.3)),
            ]);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t9_partition_never_loses_to_greedy_much() {
        let t = t9_shootout(Scale::Quick);
        assert_eq!(t.len(), 8);
        for line in t.to_csv().lines().skip(1) {
            let cells: Vec<&str> = line.split(',').collect();
            let g: f64 = cells[3].parse().unwrap();
            let p: f64 = cells[4].parse().unwrap();
            let st: f64 = cells[5].parse().unwrap();
            // Shapes from the paper: all three are >= 1 (vs a lower bound),
            // M-PARTITION competitive with GREEDY, ST within its factor 2.
            assert!(g >= 1.0 && p >= 1.0 && st >= 1.0, "{line}");
            assert!(p <= g + 0.35, "m-partition far worse than greedy: {line}");
            assert!(st <= 2.2, "st-lp beyond its guarantee zone: {line}");
        }
    }

    #[test]
    fn t13_most_benefit_arrives_early() {
        let t = t13_crossover(Scale::Quick);
        for line in t.to_csv().lines().skip(1) {
            let cells: Vec<&str> = line.split(',').collect();
            let n: f64 = cells[0].parse().unwrap();
            let k25: f64 = cells[2].parse().unwrap();
            let k10: f64 = cells[3].parse().unwrap();
            // Within-25% needs well under half the jobs; thresholds nest.
            assert!(k25 <= n / 2.0, "{line}");
            assert!(k25 <= k10, "{line}");
        }
    }

    #[test]
    fn t14_searches_agree() {
        let t = t14_threshold_ablation(Scale::Quick);
        for line in t.to_csv().lines().skip(1) {
            let cells: Vec<&str> = line.split(',').collect();
            let parts: Vec<&str> = cells[2].split('/').collect();
            assert_eq!(parts[0], parts[1], "disagreement: {line}");
        }
    }
}
