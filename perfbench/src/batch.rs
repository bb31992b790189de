//! `batch_large`: offline rebalancing of big farms through
//! `lrb_engine::solve_batch` on two workers, in two timed phases of equal
//! length — move budgets (M-PARTITION) at n ∈ {1k, 16k} and cost budgets
//! (cost-PARTITION) at n ∈ {1k, 4k}. Every farm has its own job multiset,
//! so the engine's ladder cache misses.
//!
//! Every tenth batch of a phase is heavy: big farms and the small ones.
//! The other nine hold only small farms. So the slowest tenth of the calls
//! are the ones that solve big farms, and a phase's 95th-percentile latency
//! is the middle of those heavy calls, not the host's worst second.
//!
//! An operation is one farm solved. Each phase reports solves per second
//! and per-farm latency, which is the wall time of the `solve_batch` call
//! that returns the farm's answer, timed by the benchmark. The end-to-end
//! figures are the geometric means over the two phases, so a change that
//! speeds either phase by a factor `f` moves them by `√f`.
//!
//! Budgets follow the workspace's own experiments: `n / 4` moves, one of
//! the move budgets of `lrb-bench`'s ratio tables, and a quarter of the
//! farm's total migration cost, the budget of `lrb-bench`'s cost-PARTITION
//! benchmark.

use std::time::{Duration, Instant};

use lrb_core::model::{Budget, Instance};
use lrb_core::{cost_partition, mpartition};
use lrb_engine::{solve_batch, BatchItem, BatchReport, BatchSolver, EngineConfig};
use lrb_obs::{NoopTracer, TraceCollector, Tracer};

use crate::check::check_answer;
use crate::gen::{batch_farm, derive};
use crate::layers::{self, span, Attribution, EngineTally};
use crate::report::{Outcome, Tally};
use crate::stats::{geomean, mean, peak_rss_mb, quantile, Spread};

/// Engine workers (the benchmark host's `nproc`).
pub const WORKERS: usize = 2;

/// Set-up repetitions timed for `setup_s`, spread over the run.
const SETUP_REPEATS: usize = 15;

/// Batch `i` of a phase is heavy when `i` is a multiple of this; the first
/// batch, which warms the allocator and caches, is heavy.
pub const HEAVY_EVERY: u64 = 10;

/// One timed phase: which solver, and which farms make up each batch.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    /// Label in the detail output.
    pub name: &'static str,
    /// Engine solver.
    pub solver: BatchSolver,
    /// Farm size of the big farms and how many of them a heavy batch holds.
    pub big: (usize, usize),
    /// Farm size of the small farms and how many of them every batch holds.
    pub small: (usize, usize),
    /// Seed stream of the phase's farms.
    pub stream: u64,
}

/// The two phases. A heavy M-PARTITION batch gives each of the two workers
/// one big farm. A cost-PARTITION solve at n = 4k takes 50–250 ms
/// depending on the farm, so a heavy cost-PARTITION batch holds eight big
/// farms, and its latency follows their sum rather than one farm's draw.
/// The small farms fill the rest of the call.
pub const PHASES: [Phase; 2] = [
    Phase {
        name: "mpart",
        solver: BatchSolver::MPartition,
        big: (16_000, 2),
        small: (1_000, 16),
        stream: 1,
    },
    Phase {
        name: "costpart",
        solver: BatchSolver::CostPartition,
        big: (4_000, 8),
        small: (1_000, 16),
        stream: 2,
    },
];

impl Phase {
    /// The budget `inst` is solved under.
    pub fn budget(&self, inst: &Instance) -> Budget {
        match self.solver {
            BatchSolver::CostPartition => Budget::Cost(inst.total_cost() / 4),
            _ => Budget::Moves(inst.num_jobs() / 4),
        }
    }

    /// Batch `index` of the phase. In a heavy batch each engine stripe
    /// starts with a big farm followed by small ones; within each size class
    /// farms alternate between uniform and Pareto sizes.
    pub fn batch(&self, seed: u64, index: u64) -> Vec<BatchItem> {
        let (big_n, mut bigs) = self.big;
        if index % HEAVY_EVERY != 0 {
            bigs = 0;
        }
        let (small_n, smalls) = self.small;
        let per_big = smalls / bigs.max(1);
        let mut items = Vec::with_capacity(bigs + smalls);
        let mut slot = 0u64;
        let mut push = |n: usize, k: usize, items: &mut Vec<BatchItem>| {
            let farm_seed = derive(seed, self.stream, index * 128 + slot);
            slot += 1;
            let instance = batch_farm(n, k % 2 == 1, farm_seed);
            let budget = self.budget(&instance);
            items.push(BatchItem { instance, budget });
        };
        for b in 0..bigs {
            push(big_n, b, &mut items);
            for s in 0..per_big {
                push(small_n, s, &mut items);
            }
        }
        for s in per_big * bigs..smalls {
            push(small_n, s, &mut items);
        }
        items
    }
}

/// Check every answer of one batch.
fn check_batch(phase: &Phase, items: &[BatchItem], report: &BatchReport, tally: &mut Tally) {
    let no_regression = phase.solver == BatchSolver::MPartition;
    for (i, item) in items.iter().enumerate() {
        let outcome = match report.outcomes.get(i) {
            Some(out) => check_answer(
                &item.instance,
                item.budget,
                out.assignment(),
                out.makespan(),
                no_regression,
            ),
            None => Err("the batch returned no outcome".to_string()),
        };
        tally.record(outcome.map_err(|e| format!("{} item {i}: {e}", phase.name)));
    }
}

/// What one phase measured.
#[derive(Debug, Default)]
struct PhaseRun {
    solves: u64,
    wall_nanos: u64,
    latencies_ms: Vec<f64>,
    engine: EngineTally,
    first: Option<(Vec<BatchItem>, BatchReport)>,
}

impl PhaseRun {
    /// Solve one batch on the engine, with a span from `tracer` around the
    /// call, and check every answer.
    fn solve<T: Tracer>(
        &mut self,
        phase: &Phase,
        items: Vec<BatchItem>,
        index: u64,
        tracer: &T,
        tally: &mut Tally,
    ) {
        let call = Instant::now();
        let report = {
            let _span = tracer.span_with(span::ENGINE_SOLVE_BATCH, index, false);
            solve_batch(&items, phase.solver, &EngineConfig::with_threads(WORKERS))
        };
        let wall = call.elapsed().as_nanos() as u64;
        self.solves += items.len() as u64;
        self.wall_nanos += wall;
        // Every farm of the batch is answered when the call returns.
        self.latencies_ms.push(wall as f64 / 1e6);
        self.engine.add(&report, wall);
        check_batch(phase, &items, &report, tally);
        if self.first.is_none() {
            self.first = Some((items, report));
        }
    }

    fn solves_per_s(&self) -> f64 {
        self.solves as f64 / (self.wall_nanos.max(1) as f64 / 1e9)
    }

    fn latency(&self, q: f64) -> f64 {
        quantile(&self.latencies_ms, q)
    }
}

/// Run `phase` for `budget` of wall time, timing only the engine calls.
/// The first batch warms the allocator and caches up to the phase's farm
/// sizes; it is checked but not timed. The timed batches are whole runs of
/// [`HEAVY_EVERY`], so exactly one in ten is heavy. Set-up repetitions
/// that fall due are taken between batches.
fn run_phase(
    phase: &Phase,
    seed: u64,
    budget: Duration,
    setup: &mut Spread,
    tally: &mut Tally,
) -> Result<PhaseRun, String> {
    PhaseRun::default().solve(phase, phase.batch(seed, 0), 0, &NoopTracer, tally);
    let mut run = PhaseRun::default();
    let started = Instant::now();
    let mut index = 1;
    while (index - 1) % HEAVY_EVERY != 0 || index == 1 || started.elapsed() < budget {
        run.solve(phase, phase.batch(seed, index), index, &NoopTracer, tally);
        setup.poll(|| first_answers(seed))?;
        index += 1;
    }
    Ok(run)
}

/// Set-up: the time to the first answer of each phase. It generates the
/// phase's first batch, then solves that batch's first small farm in a
/// cold `solve_batch` call, which starts the workers and allocates their
/// scratch.
fn first_answers(seed: u64) -> Result<usize, String> {
    let mut solved = 0;
    for phase in &PHASES {
        let items = phase.batch(seed, 0);
        let first = items.get(1..2).ok_or("batch without a small farm")?;
        let report = solve_batch(first, phase.solver, &EngineConfig::with_threads(WORKERS));
        let mut tally = Tally::default();
        check_batch(phase, first, &report, &mut tally);
        if let Some(e) = tally.first_failure {
            return Err(e);
        }
        solved += report.outcomes.len();
    }
    Ok(solved)
}

/// The untraced run: end-to-end metrics.
pub fn run(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let (mut setup, _) = Spread::new(SETUP_REPEATS, Duration::from_secs_f64(seconds), || {
        first_answers(seed)
    })?;
    let mut tally = Tally::default();
    let half = Duration::from_secs_f64(seconds / 2.0);
    let runs: Vec<PhaseRun> = PHASES
        .iter()
        .map(|p| run_phase(p, seed, half, &mut setup, &mut tally))
        .collect::<Result<_, _>>()?;
    let (m, c) = (&runs[0], &runs[1]);
    let detail = vec![
        ("mpart_solves_per_s".to_string(), m.solves_per_s()),
        ("costpart_solves_per_s".to_string(), c.solves_per_s()),
        ("mpart_solve_p50_ms".to_string(), m.latency(0.5)),
        ("mpart_solve_p95_ms".to_string(), m.latency(0.95)),
        ("mpart_solve_p99_ms".to_string(), m.latency(0.99)),
        ("costpart_solve_p50_ms".to_string(), c.latency(0.5)),
        ("costpart_solve_p95_ms".to_string(), c.latency(0.95)),
        ("costpart_solve_p99_ms".to_string(), c.latency(0.99)),
        ("mpart_samples".to_string(), m.latencies_ms.len() as f64),
        ("costpart_samples".to_string(), c.latencies_ms.len() as f64),
    ];
    Ok(Outcome {
        metrics: vec![
            ("setup_s", setup.median()),
            ("peak_rss_mb", peak_rss_mb()),
            ("ops_per_s", geomean(m.solves_per_s(), c.solves_per_s())),
            ("op_p50_ms", geomean(m.latency(0.5), c.latency(0.5))),
            ("op_p95_ms", geomean(m.latency(0.95), c.latency(0.95))),
        ],
        tally,
        detail,
    })
}

/// Direct kernel calls on a batch's farms: mean solve time (µs) and mean
/// M-PARTITION threshold probes.
fn kernel_calls<T: Tracer>(items: &[BatchItem], tracer: &T) -> Result<(f64, f64), String> {
    let mut micros = Vec::new();
    let mut probes = Vec::new();
    for item in items {
        let inst: &Instance = &item.instance;
        let start = Instant::now();
        match item.budget {
            Budget::Moves(k) => {
                let _span = tracer.span_with(span::CORE_MPARTITION, inst.num_jobs() as u64, false);
                let run = mpartition::rebalance(inst, k).map_err(|e| e.to_string())?;
                probes.push(run.probes as f64);
            }
            Budget::Cost(b) => {
                let _span =
                    tracer.span_with(span::CORE_COST_PARTITION, inst.num_jobs() as u64, false);
                cost_partition::rebalance(inst, b).map_err(|e| e.to_string())?;
            }
        }
        micros.push(start.elapsed().as_secs_f64() * 1e6);
    }
    Ok((mean(&micros), mean(&probes)))
}

/// The traced run: per-layer metrics. Every batch is solved twice, once
/// untraced and once traced, in alternating order; the difference is the
/// tracing overhead.
pub fn run_traced(seed: u64, seconds: f64, out_dir: &std::path::Path) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let half = Duration::from_secs_f64(seconds / 2.0);
    let collector = TraceCollector::new(1);
    let mut ratios = Vec::new();
    let mut detail = Vec::new();
    let mut engine = EngineTally::default();
    let mut inflations = Vec::new();
    let mut mpart = (0.0, 0.0);
    for phase in &PHASES {
        let (mut plain, mut traced) = (PhaseRun::default(), PhaseRun::default());
        let started = Instant::now();
        let mut index = 0;
        while index == 0 || started.elapsed() < half {
            let items = phase.batch(seed, index);
            if index % 2 == 0 {
                plain.solve(phase, items.clone(), index, &NoopTracer, &mut tally);
                traced.solve(phase, items, index, collector.main(), &mut tally);
            } else {
                traced.solve(phase, items.clone(), index, collector.main(), &mut tally);
                plain.solve(phase, items, index, &NoopTracer, &mut tally);
            }
            index += 1;
        }
        ratios.push(traced.wall_nanos as f64 / plain.wall_nanos.max(1) as f64);

        // Kernel calls and a one-worker solve of the first batch, outside
        // the end-to-end wall.
        let (items, two) = traced.first.as_ref().ok_or("phase ran no batch")?;
        let (us, probes) = kernel_calls(items, collector.main())?;
        if phase.solver == BatchSolver::MPartition {
            mpart = (us, probes);
            detail.push(("core.mpart_solve_us".to_string(), us));
            detail.push(("core.mpart_probes".to_string(), probes));
        } else {
            detail.push(("core.costpart_solve_ms".to_string(), us / 1e3));
        }
        let one = solve_batch(items, phase.solver, &EngineConfig::with_threads(1));
        check_batch(phase, items, &one, &mut tally);
        inflations.push(layers::inflation(two, &one));
        engine.merge(&traced.engine);
        detail.push((
            format!("{}_solves_per_s", phase.name),
            traced.solves_per_s(),
        ));
    }
    detail.extend(engine.detail(mean(&inflations)));

    let trace = collector.finish("batch_large", seed, WORKERS, "perfbench");
    let mut attribution = Attribution::from_trace(
        &trace,
        engine.wall_nanos,
        &[span::CORE_MPARTITION, span::CORE_COST_PARTITION],
    );
    attribution.move_nanos("engine", "core", engine.solve_share_nanos);
    layers::write_outputs(
        out_dir,
        "batch_large",
        trace,
        attribution.attributed(),
        &detail,
    )?;
    Ok(Outcome {
        metrics: attribution.metrics(geomean(ratios[0], ratios[1]) - 1.0, mpart.0, mpart.1),
        tally,
        detail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_are_deterministic_in_the_seed_and_distinct() {
        for phase in &PHASES {
            let light = phase.batch(3, 1);
            assert_eq!(light.len(), phase.small.1);
            let a = phase.batch(3, HEAVY_EVERY);
            let b = phase.batch(3, HEAVY_EVERY);
            assert_eq!(a.len(), phase.big.1 + phase.small.1);
            assert_eq!(a[0].instance.num_jobs(), phase.big.0);
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.instance, y.instance);
                assert_eq!(x.budget, y.budget);
            }
            // Another seed or another batch index gives other farms, and no
            // two farms of a batch share a job multiset.
            assert_ne!(a[0].instance, phase.batch(4, HEAVY_EVERY)[0].instance);
            assert_ne!(a[0].instance, phase.batch(3, 2 * HEAVY_EVERY)[0].instance);
            assert_ne!(light[0].instance, phase.batch(3, 2)[0].instance);
            let mut multisets: Vec<Vec<u64>> = a
                .iter()
                .map(|item| {
                    let mut sizes: Vec<u64> = item.instance.jobs().iter().map(|j| j.size).collect();
                    sizes.sort_unstable();
                    sizes
                })
                .collect();
            multisets.sort();
            multisets.dedup();
            assert_eq!(
                multisets.len(),
                a.len(),
                "{} batch repeats a multiset",
                phase.name
            );
        }
    }
}
