//! Layered end-to-end benchmark of the load-rebalancing workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <batch_large|fleet_small|serve_mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every input is generated from `--seed` inside this process. The run
//! measures for about `--seconds`, checks every answer, and prints one JSON
//! line last: `correct`, `attempted`, `failed` and the metrics — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. A traced run also writes a Perfetto-loadable trace and the
//! per-layer numbers under `.perfbench/`. Any failed check exits nonzero.

mod batch;
mod check;
mod fleet;
mod gen;
mod layers;
mod report;
mod serve;
mod stats;

use std::path::Path;
use std::process::ExitCode;

use report::{result_line, Outcome, END_TO_END, PER_LAYER};

/// Workload names, as `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &["batch_large", "fleet_small", "serve_mixed"];

/// Where traces, per-layer numbers and serve data directories go, relative
/// to the working directory.
pub const OUT_DIR: &str = ".perfbench";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds {value}: expected a positive number"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (expected one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    let out_dir = Path::new(OUT_DIR);
    match (args.workload.as_str(), args.trace) {
        ("batch_large", false) => batch::run(args.seed, args.seconds),
        ("batch_large", true) => batch::run_traced(args.seed, args.seconds, out_dir),
        ("fleet_small", false) => fleet::run(args.seed, args.seconds),
        ("fleet_small", true) => fleet::run_traced(args.seed, args.seconds, out_dir),
        ("serve_mixed", trace) => serve::run(args.seed, args.seconds, trace, out_dir),
        (other, _) => Err(format!("unknown workload {other}")),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    for (name, value) in &outcome.detail {
        eprintln!("{}: {name} = {value}", args.workload);
    }
    if let Some(first) = &outcome.tally.first_failure {
        eprintln!(
            "error: {} of {} checks failed; first: {first}",
            outcome.tally.failed, outcome.tally.attempted
        );
    }
    let names = if args.trace { PER_LAYER } else { END_TO_END };
    match result_line(&outcome, names) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    if outcome.tally.failed > 0 || outcome.tally.attempted == 0 {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
