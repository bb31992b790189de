//! `lrb-lint` CLI: lint the workspace, or explore adversarial engine
//! schedules. Exit code 0 means every gate passed; 1 means findings, an
//! empty call graph (a vacuous analysis), or schedule divergence; 2 means
//! usage or I/O errors.

use std::path::PathBuf;
use std::process::ExitCode;

use lrb_lint::{analyze_workspace, report_json, rules, schedules};
use lrb_obs::{AtomicRecorder, NoopTracer};

const USAGE: &str = "\
lrb-lint — workspace invariant checker

USAGE:
  lrb-lint [--root DIR]                 lint every workspace .rs file
           [--report FILE]              also write the LINT_1.json report
  lrb-lint --schedules [--seeds A..B]   adversarial engine schedule gate
           [--threads N,N,...]
  lrb-lint --list-rules                 print the rule registry

A finding is suppressed by a same-line or preceding-line comment:
  // lint: allow(<rule>, <reason>)
A suppression that no longer fires is itself a finding (stale-suppression).
";

struct Args {
    root: PathBuf,
    report: Option<PathBuf>,
    schedules: bool,
    seeds: std::ops::Range<u64>,
    threads: Vec<usize>,
    list_rules: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: PathBuf::from("."),
        report: None,
        schedules: false,
        seeds: 0..8,
        threads: vec![2, 4],
        list_rules: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                args.root = PathBuf::from(it.next().ok_or("--root needs a directory")?);
            }
            "--report" => {
                args.report = Some(PathBuf::from(it.next().ok_or("--report needs a file")?));
            }
            "--schedules" => args.schedules = true,
            "--seeds" | "--seed" => {
                let spec = it.next().ok_or("--seeds needs A..B or N")?;
                args.seeds = match spec.split_once("..") {
                    Some((a, b)) => {
                        let a = a.parse::<u64>().map_err(|e| format!("bad seed {a}: {e}"))?;
                        let b = b.parse::<u64>().map_err(|e| format!("bad seed {b}: {e}"))?;
                        a..b
                    }
                    None => {
                        let n = spec
                            .parse::<u64>()
                            .map_err(|e| format!("bad seed {spec}: {e}"))?;
                        n..n + 1
                    }
                };
            }
            "--threads" => {
                let spec = it.next().ok_or("--threads needs N,N,...")?;
                args.threads = spec
                    .split(',')
                    .map(|t| t.trim().parse::<usize>())
                    .collect::<Result<_, _>>()
                    .map_err(|e| format!("bad thread list {spec}: {e}"))?;
            }
            "--list-rules" => args.list_rules = true,
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other}\n\n{USAGE}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lrb-lint: {e}");
            return ExitCode::from(2);
        }
    };

    if args.list_rules {
        for (name, rationale) in rules::RULES {
            println!("{name}\n    {rationale}");
        }
        return ExitCode::SUCCESS;
    }

    if args.schedules {
        let report = schedules::explore(args.seeds.clone(), &args.threads);
        for failure in &report.failures {
            eprintln!("lrb-lint schedules: {failure}");
        }
        println!(
            "lrb-lint schedules: {} adversarial schedules (seeds {:?}, threads {:?}), \
             {} steals, {}",
            report.schedules_run,
            args.seeds,
            args.threads,
            report.total_steals,
            if report.passed() {
                "all bit-identical to the 1-thread reference"
            } else {
                "BIT-IDENTITY VIOLATED"
            }
        );
        return if report.passed() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    let rec = AtomicRecorder::new();
    let analysis = match analyze_workspace(&args.root, &rec, &NoopTracer) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lrb-lint: walking {}: {e}", args.root.display());
            return ExitCode::from(2);
        }
    };
    for f in &analysis.findings {
        println!("{f}");
    }
    if let Some(path) = &args.report {
        if let Err(e) = std::fs::write(path, report_json(&analysis)) {
            eprintln!("lrb-lint: writing {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    let phase_ms = |name: &'static str| {
        rec.snapshot()
            .phases
            .iter()
            .find(|p| p.name == name)
            .map_or(0.0, |p| p.total_nanos as f64 / 1e6)
    };
    println!(
        "lrb-lint: {} files, {} fns, {} call edges ({} resolved / {} unresolved call \
         sites), {} suppressions; parse {:.1}ms graph {:.1}ms passes {:.1}ms",
        analysis.files,
        analysis.graph.functions,
        analysis.graph.edges,
        analysis.graph.resolved_calls,
        analysis.graph.unresolved_calls,
        analysis.suppressions.len(),
        phase_ms(lrb_obs::names::LINT_PARSE),
        phase_ms(lrb_obs::names::LINT_GRAPH),
        phase_ms(lrb_obs::names::LINT_PASS),
    );
    if analysis.graph.edges == 0 {
        // Every reachability pass is trivially clean on an empty graph.
        println!("lrb-lint: empty call graph, the analysis is vacuous");
        return ExitCode::FAILURE;
    }
    if analysis.findings.is_empty() {
        println!("lrb-lint: workspace clean ({} rules)", rules::RULES.len());
        ExitCode::SUCCESS
    } else {
        println!("lrb-lint: {} finding(s)", analysis.findings.len());
        ExitCode::FAILURE
    }
}
