//! The CLI subcommands: `generate`, `info`, `solve`, `simulate`, `chaos`,
//! `online`.

use lrb_core::deadline::{DeadlineSolver, SolverKind};
use lrb_core::greedy::ReinsertOrder;
use lrb_core::model::Budget;
use lrb_core::mpartition::ThresholdSearch;
use lrb_core::ptas::{self, Precision};
use lrb_core::{bounds, cost_partition, greedy, knapsack, mpartition, Ctx};
use lrb_faults::FaultPlan;
use lrb_harness::Table;
use lrb_instances::generators::{CostModel, GeneratorConfig, PlacementModel, SizeDistribution};
use lrb_instances::spec;
use lrb_obs::AtomicRecorder;
use lrb_sim::{
    FarmConfig, FullRebalance, GreedyPolicy, MPartitionPolicy, MigrationCost, NoRebalance,
    OnlineWorkloadConfig, Policy, WorkloadConfig,
};

use crate::args::Args;

/// Top-level error: message already formatted for the user.
pub type CmdResult = Result<String, String>;

/// `lrb generate --n N --m M [--dist uniform|exponential|pareto|constant]
/// [--placement random|pile|skewed|balanced] [--costs unit|uniform|size]
/// [--seed S] --out FILE`
pub fn generate(args: &Args) -> CmdResult {
    let n: usize = args.require_parsed("n").map_err(|e| e.to_string())?;
    let m: usize = args.require_parsed("m").map_err(|e| e.to_string())?;
    let seed: u64 = args.get_or("seed", 0).map_err(|e| e.to_string())?;
    let sizes = match args.get("dist").unwrap_or("uniform") {
        "uniform" => SizeDistribution::Uniform { lo: 1, hi: 100 },
        "exponential" => SizeDistribution::Exponential { mean: 30.0 },
        "pareto" => SizeDistribution::Pareto {
            scale: 5,
            alpha: 1.4,
        },
        "constant" => SizeDistribution::Constant(10),
        other => return Err(format!("unknown --dist {other}")),
    };
    let placement = match args.get("placement").unwrap_or("random") {
        "random" => PlacementModel::Random,
        "pile" => PlacementModel::Pile,
        "skewed" => PlacementModel::Skewed { skew: 1.5 },
        "balanced" => PlacementModel::PerturbedBalanced {
            perturbations: n / 10,
        },
        other => return Err(format!("unknown --placement {other}")),
    };
    let costs = match args.get("costs").unwrap_or("unit") {
        "unit" => CostModel::Unit,
        "uniform" => CostModel::Uniform { lo: 1, hi: 10 },
        "size" => CostModel::ProportionalToSize { divisor: 10 },
        other => return Err(format!("unknown --costs {other}")),
    };
    let out = args.require("out").map_err(|e| e.to_string())?.to_string();
    args.reject_unknown().map_err(|e| e.to_string())?;

    let inst = GeneratorConfig {
        n,
        m,
        sizes,
        placement,
        costs,
    }
    .generate(seed);
    spec::save_json(&inst, &out).map_err(|e| e.to_string())?;
    Ok(format!(
        "wrote {out}: n={n} m={m} makespan={} avg={}",
        inst.initial_makespan(),
        inst.avg_load_ceil()
    ))
}

/// Read the raw spec (for eligibility-aware commands).
fn spec_of(path: &str) -> Result<spec::InstanceSpec, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("io error: {e}"))?;
    spec::InstanceSpec::from_json(&text).map_err(|e| format!("json error: {e}"))
}

/// `lrb info FILE` — summarize an instance.
pub fn info(args: &Args, path: &str) -> CmdResult {
    args.reject_unknown().map_err(|e| e.to_string())?;
    let inst = spec::load_json(path).map_err(|e| e.to_string())?;
    let constrained = spec_of(path)?.is_constrained();
    let loads = inst.initial_loads();
    let mut out = String::new();
    out.push_str(&format!("jobs:        {}\n", inst.num_jobs()));
    out.push_str(&format!("processors:  {}\n", inst.num_procs()));
    out.push_str(&format!("total size:  {}\n", inst.total_size()));
    out.push_str(&format!("makespan:    {}\n", inst.initial_makespan()));
    out.push_str(&format!("avg load:    {}\n", inst.avg_load_ceil()));
    out.push_str(&format!("max job:     {}\n", inst.max_job_size()));
    out.push_str(&format!("unit costs:  {}\n", inst.is_unit_cost()));
    out.push_str(&format!("constrained: {constrained}\n"));
    out.push_str(&format!("loads:       {loads:?}"));
    Ok(out)
}

/// Export a recorder's snapshot as pretty JSON telemetry.
fn write_metrics(rec: &AtomicRecorder, path: &str) -> Result<String, String> {
    let snap = rec.snapshot();
    let json = snap
        .to_json()
        .map_err(|e| format!("telemetry encode error: {e}"))?;
    std::fs::write(path, json).map_err(|e| format!("io error: {e}"))?;
    Ok(format!("telemetry written to {path}"))
}

/// `lrb solve FILE --algorithm greedy|mpartition|cost|ptas|st-lp|exact
/// (--moves K | --budget B) [--eps E] [--metrics OUT.json] [--verbose]`
pub fn solve(args: &Args, path: &str) -> CmdResult {
    let inst = spec::load_json(path).map_err(|e| e.to_string())?;
    let algorithm = args.get("algorithm").unwrap_or("mpartition").to_string();
    let metrics_path = args.get("metrics").map(str::to_string);
    let verbose = args.has("verbose");
    let moves: Option<usize> = match args.get("moves") {
        Some(v) => Some(
            v.parse()
                .map_err(|_| format!("--moves {v}: expected integer"))?,
        ),
        None => None,
    };
    let budget: Option<u64> = match args.get("budget") {
        Some(v) => Some(
            v.parse()
                .map_err(|_| format!("--budget {v}: expected integer"))?,
        ),
        None => None,
    };
    let eps: f64 = args.get_or("eps", 1.0).map_err(|e| e.to_string())?;
    let search = match args.get("search").unwrap_or("binary") {
        "binary" => ThresholdSearch::Binary,
        "scan" => ThresholdSearch::Scan,
        "incremental" => ThresholdSearch::Incremental,
        other => return Err(format!("unknown --search {other}")),
    };
    args.reject_unknown().map_err(|e| e.to_string())?;
    let rec = AtomicRecorder::new();
    let mut ctx = Ctx::new(&rec);

    let budget_enum = match (moves, budget) {
        (Some(k), None) => Budget::Moves(k),
        (None, Some(b)) => Budget::Cost(b),
        (None, None) => return Err("one of --moves or --budget is required".into()),
        (Some(_), Some(_)) => return Err("--moves and --budget are mutually exclusive".into()),
    };
    let cost_budget = budget_enum.as_cost();

    let outcome = match algorithm.as_str() {
        "greedy" => {
            let Budget::Moves(k) = budget_enum else {
                return Err("greedy takes --moves, not --budget".into());
            };
            greedy::rebalance_in(&inst, k, ReinsertOrder::Descending, &mut ctx)
                .map_err(|e| e.to_string())?
                .outcome
        }
        "mpartition" => DeadlineSolver::new(SolverKind::MPartition(search))
            .solve(&inst, budget_enum, &mut ctx)
            .map_err(|e| e.to_string())?,
        "cost" => {
            cost_partition::rebalance_in(&inst, cost_budget, &mut ctx)
                .map_err(|e| e.to_string())?
                .outcome
        }
        "ptas" => {
            ptas::rebalance_in(&inst, cost_budget, Precision::for_epsilon(eps), &mut ctx)
                .map_err(|e| e.to_string())?
                .outcome
        }
        "st-lp" => {
            lrb_lp::rebalance(&inst, cost_budget)
                .map_err(|e| e.to_string())?
                .outcome
        }
        "constrained-lp" => {
            let spec = spec_of(path)?;
            let cinst = spec.to_constrained().map_err(|e| e.to_string())?;
            lrb_lp::constrained::rebalance(&cinst, cost_budget)
                .map_err(|e| e.to_string())?
                .outcome
        }
        "constrained-greedy" => {
            let Budget::Moves(k) = budget_enum else {
                return Err("constrained-greedy takes --moves, not --budget".into());
            };
            let spec = spec_of(path)?;
            let cinst = spec.to_constrained().map_err(|e| e.to_string())?;
            lrb_core::constrained::greedy(&cinst, k).map_err(|e| e.to_string())?
        }
        "exact" => {
            if inst.num_jobs() > 22 {
                return Err(format!(
                    "exact solver limited to 22 jobs; instance has {}",
                    inst.num_jobs()
                ));
            }
            let sol = lrb_exact::solve(&inst, budget_enum);
            if !sol.exact {
                return Err(format!(
                    "exact search hit its node cap after {} nodes; optimality is not proven",
                    sol.nodes
                ));
            }
            lrb_core::outcome::RebalanceOutcome::from_assignment(&inst, sol.assignment)
                .map_err(|e| e.to_string())?
        }
        other => return Err(format!("unknown --algorithm {other}")),
    };

    let lb = bounds::lower_bound(&inst, budget_enum);
    let mut out = String::new();
    out.push_str(&format!("algorithm:   {algorithm}\n"));
    out.push_str(&format!(
        "makespan:    {} (was {})\n",
        outcome.makespan(),
        inst.initial_makespan()
    ));
    out.push_str(&format!("lower bound: {lb}\n"));
    out.push_str(&format!("moves:       {}\n", outcome.moves()));
    out.push_str(&format!("move cost:   {}\n", outcome.cost()));
    out.push_str(&format!("moved jobs:  {:?}\n", outcome.moved()));
    let loads = inst
        .loads_of(outcome.assignment())
        .map_err(|e| e.to_string())?;
    out.push_str(&format!("loads:       {loads:?}"));
    if verbose {
        out.push_str("\n\n");
        out.push_str(&rec.snapshot().render_table());
    }
    if let Some(p) = &metrics_path {
        out.push('\n');
        out.push_str(&write_metrics(&rec, p)?);
    }
    Ok(out)
}

/// `lrb profile FILE [--moves K] [--eps E] [--metrics OUT.json] [--verbose]`
/// — run the full instrumented algorithm suite (GREEDY, M-PARTITION with a
/// threshold scan, the arbitrary-cost partition with its branch-and-bound
/// knapsack, the knapsack FPTAS, and — on small instances — the PTAS) on one
/// instance, sharing a single recorder, and export the telemetry.
pub fn profile(args: &Args, path: &str) -> CmdResult {
    let inst = spec::load_json(path).map_err(|e| e.to_string())?;
    let k: usize = args.get_or("moves", 4).map_err(|e| e.to_string())?;
    let eps: f64 = args.get_or("eps", 0.5).map_err(|e| e.to_string())?;
    let metrics_path = args.get("metrics").map(str::to_string);
    let verbose = args.has("verbose");
    args.reject_unknown().map_err(|e| e.to_string())?;
    if eps <= 0.0 {
        return Err(format!("--eps {eps}: expected a positive number"));
    }

    let rec = AtomicRecorder::new();
    let mut table = Table::new(
        format!(
            "profile: {} jobs / {} processors / {k} moves",
            inst.num_jobs(),
            inst.num_procs()
        ),
        &["algorithm", "makespan", "moves", "cost"],
    );
    let mut row = |name: &str, o: &lrb_core::outcome::RebalanceOutcome| {
        table.row(&[
            name.to_string(),
            o.makespan().to_string(),
            o.moves().to_string(),
            o.cost().to_string(),
        ]);
    };

    let mut ctx = Ctx::new(&rec);
    let g = greedy::rebalance_in(&inst, k, ReinsertOrder::Descending, &mut ctx)
        .map_err(|e| e.to_string())?;
    row("greedy", &g.outcome);
    let mp = mpartition::rebalance_in(&inst, k, ThresholdSearch::Scan, &mut ctx)
        .map_err(|e| e.to_string())?;
    row("m-partition", &mp.outcome);
    let cost_budget = Budget::Moves(k).as_cost();
    let cp =
        cost_partition::rebalance_in(&inst, cost_budget, &mut ctx).map_err(|e| e.to_string())?;
    row("cost-partition", &cp.outcome);

    // Exercise the knapsack FPTAS DP on the instance's own job set: keep the
    // costliest jobs that fit under the average load (the shape of the
    // per-processor shed subproblem in §3.2).
    let items: Vec<knapsack::Item> = inst
        .jobs()
        .iter()
        .map(|j| knapsack::Item {
            size: j.size,
            cost: j.cost,
        })
        .collect();
    let fptas = knapsack::max_cost_keep_fptas_in(&items, inst.avg_load_ceil(), eps, &mut ctx);
    let mut notes = format!(
        "knapsack fptas: kept {} of {} items (cost {})",
        fptas.kept.len(),
        items.len(),
        fptas.kept_cost
    );

    // The PTAS is exponential in 1/eps; only profile it where it is usable.
    if inst.num_jobs() <= 64 {
        let run = ptas::rebalance_in(&inst, cost_budget, Precision::for_epsilon(1.0), &mut ctx)
            .map_err(|e| e.to_string())?;
        row("ptas", &run.outcome);
    } else {
        notes.push_str("\nptas: skipped (instance larger than 64 jobs)");
    }

    let mut out = table.render();
    out.push('\n');
    out.push_str(&notes);
    if verbose {
        out.push_str("\n\n");
        out.push_str(&rec.snapshot().render_table());
    }
    if let Some(p) = &metrics_path {
        out.push('\n');
        out.push_str(&write_metrics(&rec, p)?);
    }
    Ok(out)
}

/// `lrb simulate [--sites N] [--servers M] [--epochs E] [--moves K]
/// [--seed S]` — run the web-farm simulation across all policies.
pub fn simulate(args: &Args) -> CmdResult {
    let sites: usize = args.get_or("sites", 120).map_err(|e| e.to_string())?;
    let servers: usize = args.get_or("servers", 8).map_err(|e| e.to_string())?;
    let epochs: usize = args.get_or("epochs", 100).map_err(|e| e.to_string())?;
    let k: usize = args.get_or("moves", 4).map_err(|e| e.to_string())?;
    let seed: u64 = args.get_or("seed", 0).map_err(|e| e.to_string())?;
    let trace_dir = args.get("trace-dir").map(str::to_string);
    let metrics_path = args.get("metrics").map(str::to_string);
    let verbose = args.has("verbose");
    args.reject_unknown().map_err(|e| e.to_string())?;
    let rec = AtomicRecorder::new();

    let cfg = FarmConfig {
        num_servers: servers,
        epochs,
        budget: Budget::Moves(k),
        workload: WorkloadConfig::default_web(sites),
        migration_cost: MigrationCost::Unit,
        seed,
    };
    let mut table = Table::new(
        format!(
            "web farm: {sites} sites / {servers} servers / {epochs} epochs / {k} moves per epoch"
        ),
        &[
            "policy",
            "mean imbalance",
            "p95 imbalance",
            "migrations",
            "epochs rebalanced",
        ],
    );
    let policies: Vec<Box<dyn Policy>> = vec![
        Box::new(NoRebalance),
        Box::new(GreedyPolicy),
        Box::new(MPartitionPolicy),
        Box::new(FullRebalance),
    ];
    for mut p in policies {
        let r = lrb_sim::run_farm_in(&cfg, p.as_mut(), &FaultPlan::none(servers), &rec);
        table.row(&[
            r.policy.clone(),
            format!("{:.3}", r.mean_imbalance()),
            format!("{:.3}", r.percentile_imbalance(95.0)),
            r.total_migrations().to_string(),
            format!("{}/{}", r.decisions.rebalanced, r.decisions.total()),
        ]);
        if let Some(dir) = &trace_dir {
            std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
            let path = std::path::Path::new(dir).join(format!("{}.json", r.policy));
            r.save_json(&path).map_err(|e| e.to_string())?;
        }
    }
    let mut out = table.render();
    if let Some(dir) = &trace_dir {
        out.push_str(&format!(
            "\nper-epoch traces written to {dir}/<policy>.json"
        ));
    }
    if verbose {
        out.push_str("\n\n");
        out.push_str(&rec.snapshot().render_table());
    }
    if let Some(p) = &metrics_path {
        out.push('\n');
        out.push_str(&write_metrics(&rec, p)?);
    }
    Ok(out)
}

/// `lrb chaos [--sites N] [--servers M] [--epochs E] [--moves K] [--seed S]
/// [--crash-rate R] [--recovery-rate R] [--perturb-pct P] [--stale-rate R]
/// [--drop-rate R] [--exhaust-rate R] [--out FILE]` — sweep fault rates
/// through the web-farm simulator and report degradation curves. Prints a
/// human table followed by the schema-versioned JSON report (also written
/// to `--out` when given).
pub fn chaos_cmd(args: &Args) -> CmdResult {
    let sites: usize = args.get_or("sites", 60).map_err(|e| e.to_string())?;
    let servers: usize = args.get_or("servers", 6).map_err(|e| e.to_string())?;
    let epochs: usize = args.get_or("epochs", 50).map_err(|e| e.to_string())?;
    let k: usize = args.get_or("moves", 4).map_err(|e| e.to_string())?;
    let seed: u64 = args.get_or("seed", 0).map_err(|e| e.to_string())?;
    let crash_rate: f64 = args.get_or("crash-rate", 0.1).map_err(|e| e.to_string())?;
    let recovery_rate: f64 = args
        .get_or("recovery-rate", 0.5)
        .map_err(|e| e.to_string())?;
    let perturb_pct: u32 = args.get_or("perturb-pct", 0).map_err(|e| e.to_string())?;
    let stale_rate: f64 = args.get_or("stale-rate", 0.0).map_err(|e| e.to_string())?;
    let drop_rate: f64 = args.get_or("drop-rate", 0.0).map_err(|e| e.to_string())?;
    let exhaust_rate: f64 = args
        .get_or("exhaust-rate", 0.0)
        .map_err(|e| e.to_string())?;
    let out_path = args.get("out").map(str::to_string);
    let metrics_path = args.get("metrics").map(str::to_string);
    let verbose = args.has("verbose");
    args.reject_unknown().map_err(|e| e.to_string())?;
    for (name, rate) in [
        ("crash-rate", crash_rate),
        ("recovery-rate", recovery_rate),
        ("stale-rate", stale_rate),
        ("drop-rate", drop_rate),
        ("exhaust-rate", exhaust_rate),
    ] {
        if !(0.0..=1.0).contains(&rate) {
            return Err(format!("--{name} {rate}: expected a probability in [0, 1]"));
        }
    }

    let farm = FarmConfig {
        num_servers: servers,
        epochs,
        budget: Budget::Moves(k),
        workload: WorkloadConfig::default_web(sites),
        migration_cost: MigrationCost::Unit,
        seed,
    };
    let base = lrb_faults::FaultConfig {
        crash_rate,
        recovery_rate,
        perturb_pct,
        stale_rate,
        drop_rate,
        exhaust_rate,
        seed,
    };
    let rec = AtomicRecorder::new();
    let report = crate::chaos::sweep(&farm, &base, k, &rec);

    let mut table = Table::new(
        format!(
            "chaos sweep: {sites} sites / {servers} servers / {epochs} epochs / {k} moves per epoch"
        ),
        &[
            "scenario",
            "policy",
            "mean imbalance",
            "degraded",
            "forced",
            "fallbacks",
            "rejected",
            "regret",
        ],
    );
    for p in &report.points {
        table.row(&[
            p.scenario.clone(),
            p.policy.clone(),
            format!("{:.3}", p.mean_imbalance),
            p.epochs_degraded.to_string(),
            p.forced_migrations.to_string(),
            p.fallback_invocations.to_string(),
            p.policy_rejections.to_string(),
            format!("{:.3}", p.mean_oracle_regret),
        ]);
    }

    let json = serde_json::to_string_pretty(&report).map_err(|e| format!("encode error: {e}"))?;
    let mut out = table.render();
    out.push('\n');
    out.push_str(&json);
    if let Some(path) = &out_path {
        std::fs::write(path, &json).map_err(|e| format!("io error: {e}"))?;
        out.push_str(&format!("\nchaos report written to {path}"));
    }
    if verbose {
        out.push_str("\n\n");
        out.push_str(&rec.snapshot().render_table());
    }
    if let Some(p) = &metrics_path {
        out.push('\n');
        out.push_str(&write_metrics(&rec, p)?);
    }
    Ok(out)
}

/// `lrb hetero [--n N] [--m M] [--moves K] [--seed S] [--speeds 1,2,3,..]
/// [--instances I] [--theta T] [--trials T] [--pi-seeds S]
/// [--crash-rate R] [--recovery-rate R] [--smoke] [--out FILE]` — run the
/// heterogeneous-machine evaluation (speed-scaled solvers against the
/// scaled lower bound, the effective-size stochastic policy, and the
/// path-independence crash drill) and emit the schema-versioned
/// HETERO_1.json report.
pub fn hetero_cmd(args: &Args) -> CmdResult {
    let smoke = args.has("smoke");
    let (d_jobs, d_instances, d_trials, d_pi) = if smoke {
        (16, 4, 8, 16)
    } else {
        (48, 16, 32, 64)
    };
    let jobs: usize = args.get_or("n", d_jobs).map_err(|e| e.to_string())?;
    let procs: usize = args.get_or("m", 5).map_err(|e| e.to_string())?;
    let moves: usize = args.get_or("moves", 6).map_err(|e| e.to_string())?;
    let seed: u64 = args.get_or("seed", 0).map_err(|e| e.to_string())?;
    let instances: usize = args
        .get_or("instances", d_instances)
        .map_err(|e| e.to_string())?;
    let theta_pct: u64 = args.get_or("theta", 60).map_err(|e| e.to_string())?;
    let trials: usize = args.get_or("trials", d_trials).map_err(|e| e.to_string())?;
    let pi_seeds: u64 = args.get_or("pi-seeds", d_pi).map_err(|e| e.to_string())?;
    let crash_rate: f64 = args.get_or("crash-rate", 0.25).map_err(|e| e.to_string())?;
    let recovery_rate: f64 = args
        .get_or("recovery-rate", 0.35)
        .map_err(|e| e.to_string())?;
    let speeds: Vec<u64> = match args.get("speeds") {
        Some(s) => s
            .split(',')
            .map(|t| t.trim().parse::<u64>())
            .collect::<Result<_, _>>()
            .map_err(|_| format!("--speeds {s}: expected comma-separated integers"))?,
        None => crate::hetero::HeteroRunConfig::default_speeds(procs),
    };
    let out_path = args.get("out").map(str::to_string);
    let metrics_path = args.get("metrics").map(str::to_string);
    let verbose = args.has("verbose");
    args.reject_unknown().map_err(|e| e.to_string())?;
    if jobs == 0 || procs == 0 {
        return Err("--n and --m must be positive".to_string());
    }
    for (name, rate) in [("crash-rate", crash_rate), ("recovery-rate", recovery_rate)] {
        if !(0.0..=1.0).contains(&rate) {
            return Err(format!("--{name} {rate}: expected a probability in [0, 1]"));
        }
    }

    let rec = AtomicRecorder::new();
    let cfg = crate::hetero::HeteroRunConfig {
        jobs,
        procs,
        moves,
        speeds,
        instances,
        theta_pct,
        trials,
        pi_seeds,
        crash_rate,
        recovery_rate,
        seed,
    };
    let report = crate::hetero::run(&cfg, &rec)?;

    let mut table = Table::new(
        format!(
            "hetero: {jobs} jobs / {procs} procs (speeds {:?}) / {moves} moves / {instances} instances",
            cfg.speeds
        ),
        &["solver", "mean ratio", "max ratio", "moves", "violations"],
    );
    for p in &report.solvers {
        table.row(&[
            p.solver.clone(),
            format!(
                "{:.3}",
                p.total_scaled_makespan as f64 / p.total_lower_bound.max(1) as f64
            ),
            format!("{:.3}", p.max_ratio_x1000 as f64 / 1000.0),
            p.total_moves.to_string(),
            p.budget_violations.to_string(),
        ]);
    }
    let mut out = table.render();
    let s = &report.stochastic;
    out.push_str(&format!(
        "\nstochastic: theta={}% hedged {} vs mean-based {} over {} trials ({} improved, {} regressed)",
        s.theta_pct, s.total_effective, s.total_mean_based, s.trials, s.improved_trials,
        s.regressed_trials
    ));
    let p = &report.path_independence;
    out.push_str(&format!(
        "\npath independence: {}/{} exact over {} seeds (max hamming {}, max ratio {:.3})",
        p.exact_matches,
        p.seeds,
        p.seeds,
        p.max_hamming,
        p.max_ratio_x1000 as f64 / 1000.0
    ));

    let json = serde_json::to_string_pretty(&report).map_err(|e| format!("encode error: {e}"))?;
    out.push('\n');
    out.push_str(&json);
    if let Some(path) = &out_path {
        std::fs::write(path, &json).map_err(|e| format!("io error: {e}"))?;
        out.push_str(&format!("\nhetero report written to {path}"));
    }
    if verbose {
        out.push_str("\n\n");
        out.push_str(&rec.snapshot().render_table());
    }
    if let Some(p) = &metrics_path {
        out.push('\n');
        out.push_str(&write_metrics(&rec, p)?);
    }
    Ok(out)
}

/// `lrb compete [--m M] [--epochs E] [--arrivals A] [--max-size S]
/// [--speeds 1,1,..] [--seed S] [--smoke] [--out FILE] [--metrics OUT.json]
/// [--verbose]` — race the three online migration policies (move bank,
/// proportional migration factor, Maack uniform-machine factor) against
/// the three adversarial arrival generators, scoring every post-rebalance
/// makespan against the exact incremental oracle, and emit the
/// schema-versioned COMPETE_1.json ratio grid.
pub fn compete_cmd(args: &Args) -> CmdResult {
    let smoke = args.has("smoke");
    let (d_epochs, d_arrivals) = if smoke { (5, 2) } else { (8, 2) };
    let procs: usize = args.get_or("m", 3).map_err(|e| e.to_string())?;
    let epochs: usize = args.get_or("epochs", d_epochs).map_err(|e| e.to_string())?;
    let arrivals: usize = args
        .get_or("arrivals", d_arrivals)
        .map_err(|e| e.to_string())?;
    let max_size: u64 = args.get_or("max-size", 20).map_err(|e| e.to_string())?;
    let seed: u64 = args.get_or("seed", 0).map_err(|e| e.to_string())?;
    let speeds: Vec<u64> = match args.get("speeds") {
        Some(s) => s
            .split(',')
            .map(|t| t.trim().parse::<u64>())
            .collect::<Result<_, _>>()
            .map_err(|_| format!("--speeds {s}: expected comma-separated integers"))?,
        None => vec![1; procs],
    };
    let out_path = args.get("out").map(str::to_string);
    let metrics_path = args.get("metrics").map(str::to_string);
    let verbose = args.has("verbose");
    args.reject_unknown().map_err(|e| e.to_string())?;
    if procs == 0 {
        return Err("--m must be >= 1".to_string());
    }

    let rec = AtomicRecorder::new();
    let cfg = crate::compete::CompeteRunConfig {
        procs,
        epochs,
        arrivals_per_epoch: arrivals,
        max_size,
        speeds,
        seed,
    };
    let report = crate::compete::run(&cfg, &rec)?;

    let mut table = Table::new(
        format!("compete: {procs} servers / {epochs} epochs x {arrivals} arrivals / exact oracle"),
        &[
            "policy",
            "adversary",
            "worst ratio",
            "mean ratio",
            "moves",
            "volume",
        ],
    );
    for c in &report.grid {
        table.row(&[
            c.policy.clone(),
            c.adversary.clone(),
            format!("{:.3}", c.worst_ratio_x1000 as f64 / 1000.0),
            format!("{:.3}", c.mean_ratio_x1000 as f64 / 1000.0),
            c.total_moves.to_string(),
            c.total_migration_cost.to_string(),
        ]);
    }

    let json = serde_json::to_string_pretty(&report).map_err(|e| format!("encode error: {e}"))?;
    let mut out = table.render();
    out.push('\n');
    out.push_str(&json);
    if let Some(path) = &out_path {
        std::fs::write(path, &json).map_err(|e| format!("io error: {e}"))?;
        out.push_str(&format!("\ncompete report written to {path}"));
    }
    if verbose {
        out.push_str("\n\n");
        out.push_str(&rec.snapshot().render_table());
    }
    if let Some(p) = &metrics_path {
        out.push('\n');
        out.push_str(&write_metrics(&rec, p)?);
    }
    Ok(out)
}

/// `lrb replay TRACE.csv --servers M [--moves K]` — replay a recorded load
/// trace (one CSV row per epoch, one column per site) through every policy.
pub fn replay_cmd(args: &Args, path: &str) -> CmdResult {
    let servers: usize = args.require_parsed("servers").map_err(|e| e.to_string())?;
    let k: usize = args.get_or("moves", 4).map_err(|e| e.to_string())?;
    args.reject_unknown().map_err(|e| e.to_string())?;

    let trace = lrb_sim::TraceWorkload::from_csv_file(path)?;
    let mut table = Table::new(
        format!(
            "trace replay: {} sites x {} epochs / {servers} servers / {k} moves per epoch",
            trace.num_sites(),
            trace.num_epochs()
        ),
        &["policy", "mean imbalance", "p95 imbalance", "migrations"],
    );
    let policies: Vec<Box<dyn Policy>> = vec![
        Box::new(NoRebalance),
        Box::new(GreedyPolicy),
        Box::new(MPartitionPolicy),
        Box::new(FullRebalance),
    ];
    for mut p in policies {
        let r = lrb_sim::replay(&trace, servers, Budget::Moves(k), p.as_mut());
        table.row(&[
            r.policy.clone(),
            format!("{:.3}", r.mean_imbalance()),
            format!("{:.3}", r.percentile_imbalance(95.0)),
            r.total_migrations().to_string(),
        ]);
    }
    Ok(table.render())
}

/// Help text.
pub fn usage() -> String {
    "\
lrb — the load rebalancing toolkit (Aggarwal-Motwani-Zhu, SPAA 2003)

USAGE:
  lrb generate --n N --m M --out FILE [--dist D] [--placement P] [--costs C] [--seed S]
  lrb info FILE
  lrb solve FILE (--moves K | --budget B) [--algorithm A] [--eps E] [--search binary|scan|incremental]
  lrb profile FILE [--moves K] [--eps E]
  lrb simulate [--sites N] [--servers M] [--epochs E] [--moves K] [--seed S] [--trace-dir D]
  lrb chaos [--sites N] [--servers M] [--epochs E] [--moves K] [--seed S] [--out FILE]
            [--crash-rate R] [--recovery-rate R] [--perturb-pct P]
            [--stale-rate R] [--drop-rate R] [--exhaust-rate R]
  lrb hetero [--n N] [--m M] [--moves K] [--seed S] [--speeds 1,2,3,..]
             [--instances I] [--theta T] [--trials T] [--pi-seeds S]
             [--crash-rate R] [--recovery-rate R] [--smoke] [--out FILE]
  lrb compete [--m M] [--epochs E] [--arrivals A] [--max-size S]
              [--speeds 1,1,..] [--seed S] [--smoke] [--out FILE]
  lrb trace [--scenario smoke_ladder|standard_ladder|chaos|online|lint]
            [--threads T] [--seed S] [--out FILE]
  lrb online [--servers M] [--epochs E] [--initial-jobs J] [--arrival-rate R]
             [--lifetime L] [--moves K | --budget B] [--seed S] [--out FILE]
             [--bank-accrual A] [--bank-cap C] [--bank-initial I]
  lrb replay TRACE.csv --servers M [--moves K]
  lrb serve --data DIR [--addr HOST:PORT] [--digest] [--procs P]
            [--snapshot-every N] [--queue-bound Q] [--tenant-pending Q]
            [--batch-max B] [--max-tenants N] [--max-jobs N] [--seed S]
            [--exhaust-rate R] [--degraded-work W]
            [--bank-accrual A] [--bank-cap C] [--bank-initial I]
  lrb loadgen --addr HOST:PORT [--tenants N] [--events E] [--workers W]
              [--seed S] [--key-space K] [--retries R] [--inject-frame-errors]
  lrb loadgen --drill --data DIR [--cycles C] [--kill-lo MS] [--kill-hi MS]
              [--tenants N] [--events E] [--workers W] [--seed S]
              [+ any serve config flag, forwarded to each incarnation]

TRACE:
  runs a scenario under the structured span tracer (engine worker
  claim/steal/solve spans, simulator epoch and fault events, lint analyzer
  parse/graph/pass spans) and exports a
  Chrome trace-event JSON timeline (TRACE_1.json) loadable in Perfetto;
  prints per-span totals, the attributed wall-time fraction, and the
  thread-count-invariant determinism hash

HETERO:
  runs the heterogeneous-machine (per-processor speed) evaluation: the
  speed-scaled GREEDY and M-PARTITION over seeded instance batches through
  the batch engine, scored against the scaled lower bound; the Gupta-style
  effective-size policy on stochastic job sizes; and the path-independence
  crash drill (epoch-by-epoch evacuation vs a from-scratch solve on the
  final survivor set). Prints a summary plus the schema-versioned JSON
  report (HETERO_1.json); --smoke cuts every section down to seconds

COMPETE:
  races the online migration policies (the paper's amortized move bank,
  the Albers-Hellwig-style proportional migration factor, and the Maack
  uniform-machine factor) against adversarial arrival streams (random
  order, the Graham greedy punisher, a load-adaptive leveler), scoring
  every post-rebalance makespan against an exact incremental oracle.
  Prints the realized competitive-ratio grid plus the schema-versioned
  JSON report (COMPETE_1.json); the Maack 8/3 envelope on uniform speeds
  and the no-overspend migration certificates are hard errors

CHAOS:
  sweeps the crash rate (0x, 0.5x, 1x, 2x, 4x of --crash-rate) through the
  web-farm simulator under seeded fault injection and prints degradation
  curves plus a schema-versioned JSON report

ONLINE:
  streams a churning job population (Poisson-ish arrivals with heavy-tailed
  sizes, geometric lifetimes) through the online rebalancer; each epoch's
  requested budget is clamped by an amortized move bank (--bank-* knobs).
  Prints a summary plus the schema-versioned JSON report (ONLINE_2.json)

TELEMETRY (solve, profile, simulate, chaos, online):
  --metrics OUT.json  write phase timings, counters, and histograms as JSON
  --verbose           print the same telemetry as a table

ALGORITHMS (--algorithm):
  greedy      2 - 1/m approximation (section 2); --moves only
  mpartition  1.5 approximation (section 3); default
  cost        arbitrary-cost variant (section 3.2)
  ptas        (1+eps) approximation (section 4); tiny instances only
  st-lp       Shmoys-Tardos LP 2-approximation baseline
  exact       branch-and-bound oracle (n <= 22)
  constrained-lp      2-approximation honoring per-job 'allowed' lists
  constrained-greedy  eligibility-aware GREEDY heuristic; --moves only

DISTRIBUTIONS (--dist): uniform | exponential | pareto | constant
PLACEMENTS (--placement): random | pile | skewed | balanced
COSTS (--costs): unit | uniform | size"
        .to_string()
}

/// `lrb trace [--scenario smoke_ladder|standard_ladder|chaos|online|lint]
/// [--threads T] [--seed S] [--out FILE]` — run a scenario under the span
/// tracer and export the timeline as Chrome trace-event JSON (loadable in
/// Perfetto / `chrome://tracing`). Prints the per-span summary; `--out`
/// writes the schema-versioned export (`TRACE_1.json` by convention).
pub fn trace_cmd(args: &Args) -> CmdResult {
    let scenario = args.get("scenario").unwrap_or("smoke_ladder").to_string();
    let threads: usize = args.get_or("threads", 4).map_err(|e| e.to_string())?;
    let seed: u64 = args.get_or("seed", 0).map_err(|e| e.to_string())?;
    let out_path = args.get("out").map(str::to_string);
    args.reject_unknown().map_err(|e| e.to_string())?;
    if threads == 0 {
        return Err("--threads must be >= 1".to_string());
    }

    let run = crate::trace::run(&scenario, threads, seed)?;
    let mut out = crate::trace::render(&run);
    if let Some(p) = out_path {
        let json = serde_json::to_string_pretty(&crate::trace::chrome_json(&run))
            .map_err(|e| format!("encode error: {e}"))?;
        std::fs::write(&p, json).map_err(|e| format!("writing {p}: {e}"))?;
        out.push_str(&format!("trace written to {p}"));
    }
    Ok(out)
}

/// `lrb online [--servers M] [--epochs E] [--initial-jobs J]
/// [--arrival-rate R] [--lifetime L] [--moves K | --budget B]
/// [--bank-accrual A] [--bank-cap C] [--bank-initial I] [--seed S]
/// [--out FILE] [--metrics OUT.json] [--verbose]` — stream a churning job
/// population (Poisson-ish arrivals, heavy-tailed sizes, geometric
/// lifetimes) through the online rebalancer with its amortized move bank.
/// Prints a human summary followed by the schema-versioned JSON report
/// (also written to `--out` when given).
pub fn online_cmd(args: &Args) -> CmdResult {
    let servers: usize = args.get_or("servers", 6).map_err(|e| e.to_string())?;
    let mut cfg = OnlineWorkloadConfig::default_online(servers);
    cfg.epochs = args.get_or("epochs", 40).map_err(|e| e.to_string())?;
    cfg.initial_jobs = args
        .get_or("initial-jobs", cfg.initial_jobs)
        .map_err(|e| e.to_string())?;
    cfg.arrival_rate = args
        .get_or("arrival-rate", cfg.arrival_rate)
        .map_err(|e| e.to_string())?;
    cfg.mean_lifetime = args
        .get_or("lifetime", cfg.mean_lifetime)
        .map_err(|e| e.to_string())?;
    cfg.bank.accrual = args
        .get_or("bank-accrual", cfg.bank.accrual)
        .map_err(|e| e.to_string())?;
    cfg.bank.cap = args
        .get_or("bank-cap", cfg.bank.cap)
        .map_err(|e| e.to_string())?;
    cfg.bank.initial = args
        .get_or("bank-initial", cfg.bank.initial)
        .map_err(|e| e.to_string())?;
    cfg.seed = args.get_or("seed", 0).map_err(|e| e.to_string())?;
    let moves: Option<usize> = match args.get("moves") {
        Some(v) => Some(
            v.parse()
                .map_err(|_| format!("--moves {v}: expected integer"))?,
        ),
        None => None,
    };
    let budget: Option<u64> = match args.get("budget") {
        Some(v) => Some(
            v.parse()
                .map_err(|_| format!("--budget {v}: expected integer"))?,
        ),
        None => None,
    };
    let out_path = args.get("out").map(str::to_string);
    let metrics_path = args.get("metrics").map(str::to_string);
    let verbose = args.has("verbose");
    args.reject_unknown().map_err(|e| e.to_string())?;

    cfg.budget = match (moves, budget) {
        (Some(k), None) => Budget::Moves(k),
        (None, Some(b)) => Budget::Cost(b),
        (None, None) => cfg.budget,
        (Some(_), Some(_)) => return Err("--moves and --budget are mutually exclusive".into()),
    };
    if servers == 0 {
        return Err("--servers must be >= 1".to_string());
    }
    if cfg.arrival_rate.is_nan() || cfg.arrival_rate < 0.0 {
        return Err(format!(
            "--arrival-rate {}: expected a non-negative number",
            cfg.arrival_rate
        ));
    }
    if cfg.mean_lifetime.is_nan() || cfg.mean_lifetime < 1.0 {
        return Err(format!(
            "--lifetime {}: expected a number >= 1",
            cfg.mean_lifetime
        ));
    }

    let rec = AtomicRecorder::new();
    let report = crate::online::run(&cfg, &rec);
    let json = serde_json::to_string_pretty(&report).map_err(|e| format!("encode error: {e}"))?;
    let mut out = crate::online::render(&report);
    out.push('\n');
    out.push_str(&json);
    if let Some(path) = &out_path {
        std::fs::write(path, &json).map_err(|e| format!("io error: {e}"))?;
        out.push_str(&format!("\nonline report written to {path}"));
    }
    if verbose {
        out.push_str("\n\n");
        out.push_str(&rec.snapshot().render_table());
    }
    if let Some(p) = &metrics_path {
        out.push('\n');
        out.push_str(&write_metrics(&rec, p)?);
    }
    Ok(out)
}

/// Dispatch a full command line (without the program name).
pub fn dispatch(tokens: Vec<String>) -> CmdResult {
    let args = Args::parse_with_switches(
        tokens,
        &[
            "verbose",
            "smoke",
            "digest",
            "drill",
            "inject-frame-errors",
            "help",
        ],
    )
    .map_err(|e| e.to_string())?;
    // `--help` anywhere asks for the usage, whatever else is on the line.
    if args.has("help") {
        return Ok(usage());
    }
    let pos = args.positionals().to_vec();
    match pos.first().map(String::as_str) {
        Some("generate") => generate(&args),
        Some("info") => {
            let path = pos.get(1).ok_or("info needs a FILE argument")?;
            info(&args, path)
        }
        Some("solve") => {
            let path = pos.get(1).ok_or("solve needs a FILE argument")?;
            solve(&args, path)
        }
        Some("profile") => {
            let path = pos.get(1).ok_or("profile needs a FILE argument")?;
            profile(&args, path)
        }
        Some("simulate") => simulate(&args),
        Some("trace") => trace_cmd(&args),
        Some("chaos") => chaos_cmd(&args),
        Some("hetero") => hetero_cmd(&args),
        Some("compete") => compete_cmd(&args),
        Some("online") => online_cmd(&args),
        Some("serve") => crate::serve_cmd::serve_cmd(&args),
        Some("loadgen") => crate::serve_cmd::loadgen_cmd(&args),
        Some("replay") => {
            let path = pos.get(1).ok_or("replay needs a TRACE.csv argument")?;
            replay_cmd(&args, path)
        }
        Some("help") | None => Ok(usage()),
        Some(other) => Err(format!("unknown command '{other}'\n\n{}", usage())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(cmd: &str) -> CmdResult {
        dispatch(cmd.split_whitespace().map(str::to_string).collect())
    }

    fn tmpfile(name: &str) -> String {
        let dir = std::env::temp_dir().join("lrb-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn generate_info_solve_roundtrip() {
        let path = tmpfile("roundtrip.json");
        let msg = run(&format!("generate --n 12 --m 3 --seed 5 --out {path}")).unwrap();
        assert!(msg.contains("n=12"));

        let info = run(&format!("info {path}")).unwrap();
        assert!(info.contains("jobs:        12"));

        let solved = run(&format!("solve {path} --moves 4")).unwrap();
        assert!(solved.contains("mpartition"));
        assert!(solved.contains("makespan:"));

        for algo in ["greedy", "cost", "st-lp", "exact", "ptas"] {
            let solved = run(&format!("solve {path} --moves 4 --algorithm {algo}")).unwrap();
            assert!(solved.contains(algo), "{algo}: {solved}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn constrained_solving_through_files() {
        // Hand-write a constrained spec and solve with both constrained
        // algorithms.
        let path = tmpfile("constrained.json");
        std::fs::write(
            &path,
            r#"{"num_procs": 3, "jobs": [
                {"size": 9, "proc": 0, "allowed": [0, 1]},
                {"size": 8, "proc": 0, "allowed": [0]},
                {"size": 4, "proc": 0}
            ]}"#,
        )
        .unwrap();
        let info = run(&format!("info {path}")).unwrap();
        assert!(info.contains("constrained: true"));

        let lp = run(&format!(
            "solve {path} --moves 2 --algorithm constrained-lp"
        ))
        .unwrap();
        assert!(lp.contains("makespan:"), "{lp}");
        let g = run(&format!(
            "solve {path} --moves 2 --algorithm constrained-greedy"
        ))
        .unwrap();
        assert!(g.contains("makespan:"), "{g}");
        // The size-8 job is locked to proc 0, so no makespan below 8.
        assert!(!g.contains("makespan:    7 "));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn solve_with_cost_budget() {
        let path = tmpfile("costs.json");
        run(&format!(
            "generate --n 10 --m 3 --costs uniform --out {path}"
        ))
        .unwrap();
        let solved = run(&format!("solve {path} --budget 9 --algorithm cost")).unwrap();
        assert!(solved.contains("move cost:"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn errors_are_helpful() {
        assert!(run("solve nowhere.json --moves 1")
            .unwrap_err()
            .contains("io error"));
        let path = tmpfile("err.json");
        run(&format!("generate --n 4 --m 2 --out {path}")).unwrap();
        assert!(run(&format!("solve {path}"))
            .unwrap_err()
            .contains("--moves or --budget"));
        assert!(run(&format!("solve {path} --moves 1 --budget 1"))
            .unwrap_err()
            .contains("mutually exclusive"));
        assert!(run(&format!("solve {path} --moves 1 --algorithm nope"))
            .unwrap_err()
            .contains("unknown --algorithm"));
        assert!(run(&format!("info {path} --bogus 1"))
            .unwrap_err()
            .contains("unknown flags"));
        assert!(run("frobnicate").unwrap_err().contains("unknown command"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn help_and_empty() {
        assert!(run("help").unwrap().contains("USAGE"));
        assert!(dispatch(vec![]).unwrap().contains("USAGE"));
    }

    #[test]
    fn simulate_runs_quickly() {
        let out = run("simulate --sites 30 --servers 4 --epochs 10 --moves 2").unwrap();
        assert!(out.contains("m-partition"));
        assert!(out.contains("full-rebalance"));
    }

    #[test]
    fn trace_writes_a_perfetto_loadable_timeline() {
        let path = tmpfile("trace.json");
        let out = run(&format!(
            "trace --scenario smoke_ladder --threads 2 --seed 7 --out {path}"
        ))
        .unwrap();
        assert!(out.contains("attributed wall time"), "{out}");
        assert!(out.contains("trace written"), "{out}");
        let text = std::fs::read_to_string(&path).unwrap();
        serde_json::from_str::<crate::trace::ChromeTrace>(&text).unwrap();
        let v: serde_json::Value = serde_json::from_str(&text).unwrap();
        assert_eq!(v["schema_version"], 1u64);
        assert_eq!(v["otherData"]["scenario"], "smoke_ladder");
        assert!(!v["traceEvents"].as_array().unwrap().is_empty());
        std::fs::remove_file(&path).ok();

        assert!(run("trace --scenario bogus").unwrap_err().contains("bogus"));
        assert!(run("trace --threads 0").unwrap_err().contains("--threads"));
    }

    #[test]
    fn trace_lint_scenario_shows_analyzer_phases() {
        // The semantic analyzer reports its own cost through the same
        // span pipeline as every other subsystem.
        let out = run("trace --scenario lint --seed 3").unwrap();
        assert!(out.contains("lint.run"), "{out}");
        assert!(out.contains("lint.parse"), "{out}");
        assert!(out.contains("lint.graph"), "{out}");
        assert!(out.contains("lint.pass"), "{out}");
        assert!(out.contains("attributed wall time"), "{out}");
    }

    #[test]
    fn chaos_emits_a_schema_versioned_report() {
        let out =
            run("chaos --sites 20 --servers 4 --epochs 8 --moves 2 --crash-rate 0.2").unwrap();
        assert!(out.contains("chaos sweep"), "{out}");
        assert!(out.contains("fallback-chain"), "{out}");
        // The JSON report follows the table and is parseable.
        let json_start = out.find('{').unwrap();
        let json_end = out.rfind('}').unwrap();
        let v: serde_json::Value = serde_json::from_str(&out[json_start..=json_end]).unwrap();
        assert_eq!(v["schema_version"], 1u64);
        // 5 sweep points x 2 policies.
        assert_eq!(v["points"].as_array().unwrap().len(), 10);
        // The 0x anchor point is degradation-free.
        assert_eq!(v["points"][0]["epochs_degraded"], 0u64);
    }

    #[test]
    fn chaos_writes_the_report_file_and_validates_rates() {
        let path = tmpfile("chaos.json");
        let out = run(&format!(
            "chaos --sites 16 --servers 3 --epochs 5 --moves 2 --crash-rate 0.1 --exhaust-rate 0.4 --out {path}"
        ))
        .unwrap();
        assert!(out.contains("chaos report written"));
        let v: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(v["schema_version"], 1u64);
        assert_eq!(v["servers"], 3u64);
        std::fs::remove_file(&path).ok();

        assert!(run("chaos --crash-rate 1.5")
            .unwrap_err()
            .contains("probability"));
    }

    #[test]
    fn compete_emits_a_schema_versioned_ratio_grid() {
        let path = tmpfile("compete.json");
        let out = run(&format!("compete --smoke --seed 7 --out {path}")).unwrap();
        assert!(out.contains("compete:"), "{out}");
        assert!(out.contains("compete report written"), "{out}");
        let text = std::fs::read_to_string(&path).unwrap();
        serde_json::from_str::<crate::compete::CompeteReport>(&text).unwrap();
        let v: serde_json::Value = serde_json::from_str(&text).unwrap();
        assert_eq!(v["schema_version"], 1u64);
        let grid = v["grid"].as_array().unwrap();
        // 3 policies x 3 adversaries.
        assert_eq!(grid.len(), 9);
        for cell in grid {
            // No policy ever overspends its migration certificate, and
            // every realized ratio is >= 1 against the exact oracle.
            assert_eq!(cell["certificate_overspend"], 0u64);
            assert!(cell["worst_ratio_x1000"].as_u64().unwrap() >= 1000);
            // The Maack envelope on uniform speeds, as emitted.
            if cell["policy"] == "maack-uniform" {
                assert!(
                    cell["worst_ratio_x1000"].as_u64().unwrap()
                        <= crate::compete::MAACK_ENVELOPE_X1000,
                    "{cell:?}"
                );
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compete_validates_its_knobs() {
        assert!(run("compete --m 0").unwrap_err().contains("--m"));
        assert!(run("compete --speeds 1,2")
            .unwrap_err()
            .contains("--speeds"));
        assert!(run("compete --epochs 40 --arrivals 40")
            .unwrap_err()
            .contains("oracle ceiling"));
        assert!(run("compete --bogus 1")
            .unwrap_err()
            .contains("unknown flags"));
    }

    #[test]
    fn online_emits_a_schema_versioned_report() {
        let path = tmpfile("online.json");
        let out = run(&format!(
            "online --servers 4 --epochs 12 --moves 3 --seed 11 --out {path}"
        ))
        .unwrap();
        assert!(out.contains("online farm"), "{out}");
        assert!(out.contains("online report written"), "{out}");
        let text = std::fs::read_to_string(&path).unwrap();
        let report: crate::online::OnlineReport = serde_json::from_str(&text).unwrap();
        assert_eq!(report.schema_version, 2);
        assert_eq!(report.servers, 4);
        assert_eq!(report.budget_kind, "moves");
        assert_eq!(report.epoch_curve.len(), 12);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn online_cost_budget_and_bad_flags() {
        let out = run("online --servers 3 --epochs 6 --budget 9").unwrap();
        assert!(out.contains("online-cost-partition"), "{out}");
        assert!(run("online --moves 2 --budget 3")
            .unwrap_err()
            .contains("mutually exclusive"));
        assert!(run("online --servers 0").unwrap_err().contains("--servers"));
        assert!(run("online --lifetime 0.2")
            .unwrap_err()
            .contains("--lifetime"));
        assert!(run("online --arrival-rate -1")
            .unwrap_err()
            .contains("--arrival-rate"));
        assert!(run("online --bogus 1")
            .unwrap_err()
            .contains("unknown flags"));
    }

    #[test]
    fn replay_runs_a_csv_trace() {
        let path = tmpfile("replay.csv");
        std::fs::write(&path, "10,20,30,40\n40,20,30,10\n15,25,35,5\n").unwrap();
        let out = run(&format!("replay {path} --servers 2 --moves 1")).unwrap();
        assert!(out.contains("trace replay"));
        assert!(out.contains("m-partition"));
        assert!(run(&format!("replay {path}"))
            .unwrap_err()
            .contains("--servers"));
        std::fs::write(&path, "1,2\n1,x\n").unwrap();
        assert!(run(&format!("replay {path} --servers 2"))
            .unwrap_err()
            .contains("not an integer"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn search_modes_agree_through_cli() {
        let path = tmpfile("search.json");
        run(&format!(
            "generate --n 12 --m 3 --placement pile --out {path}"
        ))
        .unwrap();
        let outputs: Vec<String> = ["binary", "scan", "incremental"]
            .iter()
            .map(|s| run(&format!("solve {path} --moves 4 --search {s}")).unwrap())
            .collect();
        let makespan_line = |s: &str| {
            s.lines()
                .find(|l| l.starts_with("makespan"))
                .unwrap()
                .to_string()
        };
        assert_eq!(makespan_line(&outputs[0]), makespan_line(&outputs[1]));
        assert_eq!(makespan_line(&outputs[0]), makespan_line(&outputs[2]));
        assert!(run(&format!("solve {path} --moves 4 --search bogus"))
            .unwrap_err()
            .contains("unknown --search"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn simulate_writes_traces() {
        let dir = tmpfile("traces");
        let out = run(&format!(
            "simulate --sites 20 --servers 3 --epochs 5 --moves 2 --trace-dir {dir}"
        ))
        .unwrap();
        assert!(out.contains("traces written"));
        let trace = std::fs::read_to_string(format!("{dir}/m-partition.json")).unwrap();
        assert!(trace.contains("\"epochs\""));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn generate_all_knobs() {
        for (d, p, c) in [
            ("exponential", "pile", "size"),
            ("pareto", "skewed", "uniform"),
            ("constant", "balanced", "unit"),
        ] {
            let path = tmpfile(&format!("knobs-{d}.json"));
            let msg = run(&format!(
                "generate --n 8 --m 2 --dist {d} --placement {p} --costs {c} --out {path}"
            ))
            .unwrap();
            assert!(msg.contains("n=8"));
            std::fs::remove_file(&path).ok();
        }
    }
}
