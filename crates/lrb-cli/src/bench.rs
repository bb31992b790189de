//! The `bench` subcommand: a reproducible engine-throughput pipeline.
//!
//! Runs the [`lrb_harness::bench::standard_ladder`] batches through the
//! batch engine at each requested thread count and emits a schema-versioned
//! JSON report (`BENCH_4.json` by convention) carrying throughput, p50/p99
//! per-solve latency, the thread-scaling curve, and the engine's steal
//! telemetry. `--smoke` swaps in a cut-down ladder so CI can validate the
//! schema in seconds.
//!
//! Numbers are wall-clock measurements: they vary with the host. The report
//! therefore records the host's available parallelism — a scaling curve is
//! only meaningful relative to it (a 1-core container cannot speed up, no
//! matter how many workers are configured).

use std::time::Instant;

use criterion::black_box;
use lrb_engine::{solve_batch, BatchItem, BatchSolver, EngineConfig};
use lrb_harness::bench::{smoke_ladder, standard_ladder, BenchBatch};
use lrb_harness::stats::percentile_sorted;
use serde::{Deserialize, Serialize};

/// Version stamp on every [`BenchReport`]; bump on breaking field changes.
/// v4: thread-curve points carry `oversubscribed` (threads beyond the
/// host's available parallelism), and such points are excluded from the
/// headline speedup.
pub const BENCH_SCHEMA_VERSION: u32 = 4;

/// Metadata for one ladder rung.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct RungInfo {
    /// Rung name (`n…_m…`).
    pub name: String,
    /// Jobs per instance.
    pub jobs: usize,
    /// Processors per instance.
    pub procs: usize,
    /// Instances in the rung's batch.
    pub instances: usize,
}

/// One point of the thread-scaling curve.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ThreadPoint {
    /// Engine worker threads.
    pub threads: usize,
    /// Total wall time across all rungs and repeats, nanoseconds.
    pub wall_nanos: u64,
    /// Instances solved per second of wall time.
    pub throughput_per_sec: f64,
    /// Median per-instance solve latency, nanoseconds.
    pub p50_solve_nanos: f64,
    /// 99th-percentile per-instance solve latency, nanoseconds.
    pub p99_solve_nanos: f64,
    /// Wall-time speedup relative to the single-thread point.
    pub speedup_vs_1t: f64,
    /// Whether this point asked for more workers than the host can actually
    /// run in parallel. Oversubscribed points still report their numbers but
    /// are excluded from the headline speedup and never gate a
    /// `--baseline` comparison — they measure scheduler contention, not
    /// scaling.
    pub oversubscribed: bool,
    /// Items claimed from another worker's stripe.
    pub steals: u64,
    /// Always 0: the solvers keep no threshold-ladder cache. BENCH_4
    /// keeps the field so committed reports still decode.
    pub ladder_hits: u64,
    /// Always 0, as `ladder_hits`.
    pub ladder_misses: u64,
}

/// The full bench output.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct BenchReport {
    /// Schema version ([`BENCH_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Which ladder ran: `standard_ladder` or `smoke_ladder`.
    pub scenario: String,
    /// Ladder seed.
    pub seed: u64,
    /// Repeats per thread count.
    pub repeats: usize,
    /// Solver driven through the engine.
    pub solver: String,
    /// Host parallelism actually available to the process; scaling beyond
    /// this is physically impossible regardless of configured workers.
    pub available_parallelism: usize,
    /// The rungs that ran.
    pub rungs: Vec<RungInfo>,
    /// Throughput and latency per thread count.
    pub thread_curve: Vec<ThreadPoint>,
}

/// Run the ladder at every requested thread count.
pub fn run(threads: &[usize], seed: u64, repeats: usize, smoke: bool) -> BenchReport {
    let ladder: Vec<BenchBatch> = if smoke {
        smoke_ladder(seed)
    } else {
        standard_ladder(seed, 32)
    };
    let rungs: Vec<RungInfo> = ladder
        .iter()
        .map(|b| RungInfo {
            name: b.name.clone(),
            jobs: b.instances[0].num_jobs(),
            procs: b.instances[0].num_procs(),
            instances: b.instances.len(),
        })
        .collect();
    let batches: Vec<Vec<BatchItem>> = ladder
        .iter()
        .map(|b| {
            b.instances
                .iter()
                .map(|inst| BatchItem {
                    instance: inst.clone(),
                    budget: b.budget,
                })
                .collect()
        })
        .collect();
    let items_per_pass: usize = batches.iter().map(Vec::len).sum();

    let available = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let mut thread_curve = Vec::with_capacity(threads.len());
    let mut base_wall: Option<u64> = None;
    for &t in threads {
        let cfg = EngineConfig::with_threads(t);
        let mut wall_nanos = 0u64;
        let mut latencies: Vec<f64> = Vec::with_capacity(items_per_pass * repeats);
        let mut steals = 0u64;
        for _ in 0..repeats {
            for items in &batches {
                let started = Instant::now();
                let report = black_box(solve_batch(items, BatchSolver::MPartition, &cfg));
                wall_nanos += (started.elapsed().as_nanos() as u64).max(1);
                latencies.extend(report.solve_nanos.iter().map(|&ns| ns as f64));
                steals += report.steals;
            }
        }
        latencies.sort_by(|a, b| a.total_cmp(b));
        let solved = (items_per_pass * repeats) as f64;
        let base = *base_wall.get_or_insert(wall_nanos);
        thread_curve.push(ThreadPoint {
            threads: t,
            wall_nanos,
            throughput_per_sec: solved / (wall_nanos as f64 / 1e9),
            p50_solve_nanos: percentile_sorted(&latencies, 50.0),
            p99_solve_nanos: percentile_sorted(&latencies, 99.0),
            speedup_vs_1t: base as f64 / wall_nanos as f64,
            oversubscribed: t > available,
            steals,
            ladder_hits: 0,
            ladder_misses: 0,
        });
    }

    BenchReport {
        schema_version: BENCH_SCHEMA_VERSION,
        scenario: if smoke {
            "smoke_ladder"
        } else {
            "standard_ladder"
        }
        .to_string(),
        seed,
        repeats,
        solver: "m-partition".to_string(),
        available_parallelism: available,
        rungs,
        thread_curve,
    }
}

/// Render the human-readable summary table.
pub fn render(report: &BenchReport) -> String {
    let mut out = format!(
        "engine bench — {} (seed {}, {} repeats, host parallelism {})\n",
        report.scenario, report.seed, report.repeats, report.available_parallelism
    );
    out.push_str("threads  wall_ms  solves/s  p50_us  p99_us  speedup  steals\n");
    for p in &report.thread_curve {
        out.push_str(&format!(
            "{:>6}{}  {:>7.1}  {:>8.0}  {:>6.1}  {:>6.1}  {:>6.2}x  {:>6}\n",
            p.threads,
            if p.oversubscribed { '*' } else { ' ' },
            p.wall_nanos as f64 / 1e6,
            p.throughput_per_sec,
            p.p50_solve_nanos / 1e3,
            p.p99_solve_nanos / 1e3,
            p.speedup_vs_1t,
            p.steals,
        ));
    }
    if report.thread_curve.iter().any(|p| p.oversubscribed) {
        out.push_str(
            "* oversubscribed: more workers than host parallelism (excluded from the headline)\n",
        );
    }
    if let Some(best) = report
        .thread_curve
        .iter()
        .filter(|p| !p.oversubscribed)
        .max_by(|a, b| a.speedup_vs_1t.total_cmp(&b.speedup_vs_1t))
    {
        out.push_str(&format!(
            "best speedup: {:.2}x at {} thread{}\n",
            best.speedup_vs_1t,
            best.threads,
            if best.threads == 1 { "" } else { "s" },
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_report_has_curve_and_schema() {
        let report = run(&[1, 2], 7, 1, true);
        assert_eq!(report.schema_version, BENCH_SCHEMA_VERSION);
        assert_eq!(report.scenario, "smoke_ladder");
        assert_eq!(report.thread_curve.len(), 2);
        assert!(report.thread_curve[0].throughput_per_sec > 0.0);
        assert!((report.thread_curve[0].speedup_vs_1t - 1.0).abs() < 1e-9);
        assert!(report.thread_curve.iter().all(|p| p.p50_solve_nanos > 0.0));
        assert!(report.available_parallelism >= 1);
        let json = serde_json::to_string_pretty(&report).unwrap();
        assert!(json.contains("\"schema_version\": 4"));
        assert!(json.contains("thread_curve"));
        assert!(json.contains("oversubscribed"));
    }

    #[test]
    fn render_mentions_every_thread_count() {
        let report = run(&[1], 3, 1, true);
        let table = render(&report);
        assert!(table.contains("engine bench"));
        assert!(table.contains("solves/s"));
        assert!(table.contains("best speedup"));
    }

    #[test]
    fn oversubscribed_points_are_flagged_and_dropped_from_the_headline() {
        // Force oversubscription regardless of host size by asking for an
        // absurd worker count; the 1-thread point never oversubscribes.
        let mut report = run(&[1], 5, 1, true);
        assert!(!report.thread_curve[0].oversubscribed);
        report.thread_curve.push(ThreadPoint {
            threads: 4096,
            oversubscribed: true,
            speedup_vs_1t: 99.0,
            ..report.thread_curve[0].clone()
        });
        let table = render(&report);
        assert!(table.contains("4096*"), "{table}");
        assert!(table.contains("oversubscribed"), "{table}");
        // The headline ignores the fake 99x point.
        assert!(!table.contains("best speedup: 99.00x"), "{table}");
    }
}
