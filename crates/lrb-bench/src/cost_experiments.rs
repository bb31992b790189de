//! Experiments T7–T8: the arbitrary-cost variant and the PTAS.

use lrb_core::cost_partition;
use lrb_core::model::Instance;
use lrb_core::ptas::{self, Precision};
use lrb_engine::{run_all, EngineConfig};
use lrb_harness::{seed_for, Summary, Table};
use lrb_instances::generators::{CostModel, GeneratorConfig, PlacementModel, SizeDistribution};

use crate::common::{ratio, Scale};

fn cost_cells(scale: Scale, master_seed: u64, n_max: usize) -> Vec<(Instance, u64)> {
    let mut cells = Vec::new();
    let mut id = 0u64;
    for &cost_model in &[
        CostModel::Uniform { lo: 1, hi: 10 },
        CostModel::ProportionalToSize { divisor: 10 },
    ] {
        for &(n, m) in &[(8usize, 2usize), (n_max.min(10), 3)] {
            for _ in 0..scale.trials() {
                let cfg = GeneratorConfig {
                    n,
                    m,
                    sizes: SizeDistribution::Uniform { lo: 10, hi: 100 },
                    placement: PlacementModel::Random,
                    costs: cost_model,
                };
                let inst = cfg.generate(seed_for(master_seed, id));
                id += 1;
                let total = inst.total_cost();
                for budget in [total / 8, total / 4, total / 2] {
                    cells.push((inst.clone(), budget));
                }
            }
        }
    }
    cells
}

/// T7 — §3.2: arbitrary-cost PARTITION stays within budget; ratio against
/// the exact budgeted optimum.
pub fn t7_cost_partition(scale: Scale) -> Table {
    let cells = cost_cells(scale, 0xA7, 10);
    let rows = run_all(&cells, &EngineConfig::default(), |(inst, budget)| {
        let opt = lrb_exact::optimal_makespan_cost(inst, *budget);
        let run = cost_partition::rebalance(inst, *budget).expect("cost partition runs");
        let budget_ok = run.outcome.cost() <= *budget;
        (ratio(run.outcome.makespan(), opt), budget_ok)
    });
    let ratios: Vec<f64> = rows.iter().map(|&(r, _)| r).collect();
    let budget_violations = rows.iter().filter(|&&(_, ok)| !ok).count();
    // The paper's guarantee is 1.5 + eps; count cells above 1.5 + 0.05.
    let above_bound = ratios.iter().filter(|&&r| r > 1.55).count();
    let s = Summary::of(&ratios);
    let mut table = Table::new(
        "T7: cost-PARTITION / OPT_B ratio (bound ~1.5+eps), budget adherence",
        &[
            "cells",
            "mean",
            "median",
            "max",
            ">1.55",
            "budget violations",
        ],
    );
    table.row(&[
        s.n.to_string(),
        format!("{:.3}", s.mean),
        format!("{:.3}", s.median),
        format!("{:.3}", s.max),
        above_bound.to_string(),
        budget_violations.to_string(),
    ]);
    table
}

/// T8 — Theorem 4: the PTAS achieves `(1 + 5/q)·OPT_B` within budget, with
/// quality improving as the precision rises.
pub fn t8_ptas_quality(scale: Scale) -> Table {
    let mut table = Table::new(
        "T8: PTAS ratio vs precision (bound 1 + 5/q)",
        &[
            "q",
            "eps=5/q",
            "cells",
            "mean",
            "max",
            "bound violations",
            "budget violations",
        ],
    );
    for q in [2u64, 5, 8] {
        let cells = cost_cells(scale, 0xA8 + q, 8);
        let rows = run_all(&cells, &EngineConfig::default(), |(inst, budget)| {
            let opt = lrb_exact::optimal_makespan_cost(inst, *budget);
            let run = ptas::rebalance(inst, *budget, Precision::from_q(q)).expect("ptas runs");
            let ms = run.outcome.makespan();
            // Bound with the +1 integer slack of the internal scaling.
            let bound_ok =
                (ms as u128) * (q as u128) <= (opt as u128) * (q as u128 + 5) + q as u128;
            (ratio(ms, opt), bound_ok, run.outcome.cost() <= *budget)
        });
        let ratios: Vec<f64> = rows.iter().map(|&(r, _, _)| r).collect();
        let bound_viol = rows.iter().filter(|&&(_, ok, _)| !ok).count();
        let budget_viol = rows.iter().filter(|&&(_, _, ok)| !ok).count();
        let s = Summary::of(&ratios);
        table.row(&[
            q.to_string(),
            format!("{:.2}", 5.0 / q as f64),
            s.n.to_string(),
            format!("{:.3}", s.mean),
            format!("{:.3}", s.max),
            bound_viol.to_string(),
            budget_viol.to_string(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t7_no_budget_violations() {
        let csv = t7_cost_partition(Scale::Quick).to_csv();
        let row = csv.lines().nth(1).expect("T7 has a summary row");
        let cells: Vec<&str> = row.split(',').collect();
        assert_eq!(cells[cells.len() - 1], "0", "budget violations: {row}");
    }

    #[test]
    fn t8_no_violations_anywhere() {
        let t = t8_ptas_quality(Scale::Quick);
        for line in t.to_csv().lines().skip(1) {
            let cells: Vec<&str> = line.split(',').collect();
            assert_eq!(cells[cells.len() - 1], "0", "budget violations: {line}");
            assert_eq!(cells[cells.len() - 2], "0", "bound violations: {line}");
        }
    }
}
