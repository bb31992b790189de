//! Experiments T1–T6: the unit-cost approximation guarantees, measured
//! against the exact oracle.

use lrb_core::bounds::within_ratio;
use lrb_core::greedy::{self, ReinsertOrder};
use lrb_core::model::Instance;
use lrb_core::{mpartition, partition, Ctx};
use lrb_engine::{run_all, EngineConfig};
use lrb_harness::{seed_for, Summary, Table};
use lrb_instances::adversarial;

use crate::common::{ratio, small_config, standard_distributions, Scale};

/// One measured cell of a ratio experiment.
struct Cell {
    inst: Instance,
    k: usize,
}

fn sweep_cells(scale: Scale, master_seed: u64) -> Vec<(String, Cell)> {
    let mut cells = Vec::new();
    let mut id = 0u64;
    for (dist_name, dist) in standard_distributions() {
        for &(n, m) in &[(8usize, 2usize), (10, 3), (12, 4)] {
            for trial in 0..scale.trials() {
                let cfg = small_config(n, m, dist);
                let inst = cfg.generate(seed_for(master_seed, id));
                id += 1;
                for &k in &[1usize, n / 4, n / 2, n] {
                    cells.push((
                        format!("{dist_name}/n={n}/m={m}/t={trial}"),
                        Cell {
                            inst: inst.clone(),
                            k,
                        },
                    ));
                }
            }
        }
    }
    cells
}

/// T1 — Theorem 1 upper bound: `GREEDY ≤ (2 − 1/m)·OPT` across random
/// instances, ratio measured against the exact oracle.
pub fn t1_greedy_ratio(scale: Scale) -> Table {
    let cells = sweep_cells(scale, 0xA1);
    let rows = run_all(&cells, &EngineConfig::default(), |(_, cell)| {
        let opt = lrb_exact::optimal_makespan_moves(&cell.inst, cell.k);
        let g = greedy::rebalance(&cell.inst, cell.k)
            .expect("greedy runs")
            .makespan();
        let m = cell.inst.num_procs() as u64;
        // Theorem 1: g·m ≤ opt·(2m − 1).
        let ok = (g as u128) * (m as u128) <= (opt as u128) * (2 * m - 1) as u128;
        (ratio(g, opt), ok)
    });
    let ratios: Vec<f64> = rows.iter().map(|&(r, _)| r).collect();
    let violations = rows.iter().filter(|&&(_, ok)| !ok).count();
    let s = Summary::of(&ratios);

    let mut table = Table::new(
        "T1: GREEDY / OPT ratio (bound 2 - 1/m)",
        &["cells", "mean", "median", "max", "violations"],
    );
    table.row(&[
        s.n.to_string(),
        format!("{:.3}", s.mean),
        format!("{:.3}", s.median),
        format!("{:.3}", s.max),
        violations.to_string(),
    ]);
    table
}

/// T2 — Theorem 1 tightness: the adversarial construction drives GREEDY to
/// exactly `(2 − 1/m)·OPT`.
pub fn t2_greedy_tight(_scale: Scale) -> Table {
    let mut table = Table::new(
        "T2: GREEDY tightness construction (paper section 2)",
        &["m", "OPT", "GREEDY", "ratio", "bound 2-1/m"],
    );
    for m in 2..=12 {
        let case = adversarial::greedy_tightness(m);
        let out = greedy::rebalance_in(
            &case.instance,
            case.k,
            ReinsertOrder::Ascending,
            &mut Ctx::default(),
        )
        .expect("greedy runs")
        .outcome;
        table.row(&[
            m.to_string(),
            case.opt.to_string(),
            out.makespan().to_string(),
            format!("{:.4}", ratio(out.makespan(), case.opt)),
            format!("{:.4}", 2.0 - 1.0 / m as f64),
        ]);
    }
    table
}

/// T3 — Lemma 1: the removal-phase makespan `G1` never exceeds `OPT`.
pub fn t3_g1_bound(scale: Scale) -> Table {
    let cells = sweep_cells(scale, 0xA3);
    let rows = run_all(&cells, &EngineConfig::default(), |(_, cell)| {
        let opt = lrb_exact::optimal_makespan_moves(&cell.inst, cell.k);
        let g1 = greedy::g1_lower_bound(&cell.inst, cell.k);
        (ratio(g1, opt), g1 <= opt)
    });
    let ratios: Vec<f64> = rows.iter().map(|&(r, _)| r).collect();
    let violations = rows.iter().filter(|&&(_, ok)| !ok).count();
    let s = Summary::of(&ratios);
    let mut table = Table::new(
        "T3: G1 / OPT (Lemma 1: must be <= 1)",
        &["cells", "mean", "max", "violations"],
    );
    table.row(&[
        s.n.to_string(),
        format!("{:.3}", s.mean),
        format!("{:.3}", s.max),
        violations.to_string(),
    ]);
    table
}

/// T4 — Theorems 2–3: `M-PARTITION ≤ 1.5·OPT`, never exceeding the move
/// budget.
pub fn t4_partition_ratio(scale: Scale) -> Table {
    let cells = sweep_cells(scale, 0xA4);
    let rows = run_all(&cells, &EngineConfig::default(), |(_, cell)| {
        let opt = lrb_exact::optimal_makespan_moves(&cell.inst, cell.k);
        let run = mpartition::rebalance(&cell.inst, cell.k).expect("m-partition runs");
        let ms = run.outcome.makespan();
        let ratio_ok = within_ratio(ms, opt, 3, 2);
        let budget_ok = run.outcome.moves() <= cell.k;
        (ratio(ms, opt), ratio_ok && budget_ok)
    });
    let ratios: Vec<f64> = rows.iter().map(|&(r, _)| r).collect();
    let violations = rows.iter().filter(|&&(_, ok)| !ok).count();
    let s = Summary::of(&ratios);
    let mut table = Table::new(
        "T4: M-PARTITION / OPT ratio (bound 1.5) + move budget",
        &["cells", "mean", "median", "max", "violations"],
    );
    table.row(&[
        s.n.to_string(),
        format!("{:.3}", s.mean),
        format!("{:.3}", s.median),
        format!("{:.3}", s.max),
        violations.to_string(),
    ]);
    table
}

/// T5 — Theorem 2 tightness: `PARTITION`'s 1.5 is attained exactly.
pub fn t5_partition_tight(_scale: Scale) -> Table {
    let mut table = Table::new(
        "T5: PARTITION tightness construction (paper section 3)",
        &["scale", "OPT", "M-PARTITION", "moves", "ratio"],
    );
    for s in [1u64, 2, 5, 10, 100, 1000] {
        let case = adversarial::partition_tightness(s);
        let run = mpartition::rebalance(&case.instance, case.k).expect("runs");
        table.row(&[
            s.to_string(),
            case.opt.to_string(),
            run.outcome.makespan().to_string(),
            run.outcome.moves().to_string(),
            format!("{:.4}", ratio(run.outcome.makespan(), case.opt)),
        ]);
    }
    table
}

/// T6 — Lemma 4: with the true optimum as its guess, `PARTITION` plans no
/// more moves than *any* algorithm achieving that makespan. Both sides are
/// evaluated at the same target: `planned_moves` at the candidate-threshold
/// region containing `OPT` (Lemma 5 makes behavior constant on the region)
/// versus the exact minimum move count to reach makespan `≤ OPT`.
pub fn t6_partition_moves(scale: Scale) -> Table {
    use lrb_core::profiles::Profiles;
    let cells = sweep_cells(scale, 0xA6);
    let rows = run_all(&cells, &EngineConfig::default(), |(_, cell)| {
        let opt = lrb_exact::optimal_makespan_moves(&cell.inst, cell.k);
        // Minimum moves any algorithm needs to reach makespan <= opt.
        let opt_moves = lrb_exact::move_min::min_moves_to_achieve(&cell.inst, opt)
            .map(|(mv, _)| mv)
            .expect("opt is achievable by definition");
        // PARTITION's planned moves at the threshold region containing opt.
        let profiles = Profiles::new(&cell.inst);
        let cands = profiles.candidates();
        let idx = cands.partition_point(|&t| t <= opt).saturating_sub(1);
        let planned = partition::planned_moves(&profiles, cands[idx])
            .expect("the region containing OPT is feasible");
        (planned, opt_moves)
    });
    let le = rows.iter().filter(|&&(p, o)| p <= o).count();
    let mut table = Table::new(
        "T6: PARTITION planned moves at OPT's threshold vs exact min moves (Lemma 4)",
        &["cells", "mean planned", "mean opt-moves", "violations"],
    );
    let mp: f64 = rows.iter().map(|&(p, _)| p as f64).sum::<f64>() / rows.len().max(1) as f64;
    let mo: f64 = rows.iter().map(|&(_, o)| o as f64).sum::<f64>() / rows.len().max(1) as f64;
    table.row(&[
        rows.len().to_string(),
        format!("{mp:.2}"),
        format!("{mo:.2}"),
        (rows.len() - le).to_string(),
    ]);
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t1_reports_no_violations() {
        let t = t1_greedy_ratio(Scale::Quick);
        let rendered = t.render();
        // The violations column is the last cell of the single data row.
        let last = rendered.lines().last().unwrap();
        assert!(last.trim().ends_with('0'), "violations found:\n{rendered}");
    }

    #[test]
    fn t2_hits_the_bound_exactly() {
        let t = t2_greedy_tight(Scale::Quick);
        assert_eq!(t.len(), 11);
        let csv = t.to_csv();
        // For m = 2 the ratio is 1.5 exactly.
        assert!(csv.contains("1.5000"), "{csv}");
    }

    #[test]
    fn t3_no_violations() {
        let t = t3_g1_bound(Scale::Quick);
        let last = t.render().lines().last().unwrap().to_string();
        assert!(last.trim().ends_with('0'), "{last}");
    }

    #[test]
    fn t4_no_violations() {
        let t = t4_partition_ratio(Scale::Quick);
        let last = t.render().lines().last().unwrap().to_string();
        assert!(last.trim().ends_with('0'), "{last}");
    }

    #[test]
    fn t5_ratio_is_1_5() {
        let t = t5_partition_tight(Scale::Quick);
        let csv = t.to_csv();
        for line in csv.lines().skip(1) {
            assert!(line.ends_with("1.5000"), "{line}");
        }
    }

    #[test]
    fn t6_lemma_4_no_violations() {
        let t = t6_partition_moves(Scale::Quick);
        let last = t.render().lines().last().unwrap().to_string();
        assert!(last.trim().ends_with('0'), "{last}");
    }
}
