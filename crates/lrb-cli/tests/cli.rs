//! End-to-end tests that exercise the compiled `lrb` binary.

use std::process::Command;

fn lrb(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_lrb"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn tmp(name: &str) -> String {
    let dir = std::env::temp_dir().join("lrb-bin-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name).to_string_lossy().into_owned()
}

#[test]
fn help_prints_usage_and_succeeds() {
    let path = tmp("help.json");
    for args in [
        vec!["help"],
        vec![],
        vec!["--help"],
        vec!["generate", "--help"],
        vec!["solve", path.as_str(), "--help"],
    ] {
        let (ok, stdout, stderr) = lrb(&args);
        assert!(ok, "{args:?}: {stderr}");
        assert!(stdout.contains("USAGE"), "{args:?}");
    }
}

#[test]
fn a_closed_stdout_is_not_a_failure() {
    // The reader goes away before the usage is written, as `head -1` does
    // once it has its line.
    let mut child = Command::new(env!("CARGO_BIN_EXE_lrb"))
        .arg("help")
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("binary runs");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("binary exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn full_workflow_through_the_binary() {
    let path = tmp("wf.json");
    let (ok, stdout, stderr) = lrb(&[
        "generate",
        "--n",
        "10",
        "--m",
        "3",
        "--placement",
        "pile",
        "--out",
        &path,
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("wrote"));

    let (ok, stdout, _) = lrb(&["info", &path]);
    assert!(ok);
    assert!(stdout.contains("jobs:        10"));

    let (ok, stdout, _) = lrb(&["solve", &path, "--moves", "3"]);
    assert!(ok);
    assert!(stdout.contains("makespan:"));
    assert!(stdout.contains("moved jobs:"));
    std::fs::remove_file(&path).ok();
}

#[test]
fn solve_metrics_flag_writes_versioned_telemetry() {
    let inst = tmp("metrics-inst.json");
    let metrics = tmp("metrics-greedy.json");
    let (ok, _, stderr) = lrb(&[
        "generate",
        "--n",
        "12",
        "--m",
        "3",
        "--placement",
        "pile",
        "--out",
        &inst,
    ]);
    assert!(ok, "{stderr}");

    let (ok, stdout, stderr) = lrb(&[
        "solve",
        &inst,
        "--moves",
        "4",
        "--algorithm",
        "greedy",
        "--metrics",
        &metrics,
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("telemetry written"), "{stdout}");

    let json = std::fs::read_to_string(&metrics).unwrap();
    let snap: lrb_obs::Snapshot = serde_json::from_str(&json).unwrap();
    assert_eq!(snap.schema_version, lrb_obs::SCHEMA_VERSION);

    // Both GREEDY phases ran and have non-zero wall time.
    for phase in ["greedy.removal", "greedy.reinsert"] {
        let p = snap
            .phase(phase)
            .unwrap_or_else(|| panic!("missing {phase}"));
        assert!(p.calls >= 1, "{phase} never called");
        assert!(p.total_nanos > 0, "{phase} has zero duration");
    }

    // The recorded move counter matches the outcome the CLI printed.
    let moves: u64 = stdout
        .lines()
        .find(|l| l.starts_with("moves:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .unwrap()
        .parse()
        .unwrap();
    assert!(moves > 0, "pile placement with k=4 must move something");
    assert_eq!(snap.counter("greedy.moves"), Some(moves));

    std::fs::remove_file(&inst).ok();
    std::fs::remove_file(&metrics).ok();
}

#[test]
fn profile_emits_telemetry_for_the_whole_suite() {
    let inst = tmp("profile-inst.json");
    let metrics = tmp("profile-metrics.json");
    let (ok, _, stderr) = lrb(&[
        "generate",
        "--n",
        "16",
        "--m",
        "4",
        "--placement",
        "pile",
        "--out",
        &inst,
    ]);
    assert!(ok, "{stderr}");

    let (ok, stdout, stderr) = lrb(&[
        "profile",
        &inst,
        "--moves",
        "4",
        "--metrics",
        &metrics,
        "--verbose",
    ]);
    assert!(ok, "{stderr}");
    // --verbose renders the telemetry table alongside the results.
    assert!(stdout.contains("phase"), "{stdout}");
    assert!(stdout.contains("counter"), "{stdout}");

    let json = std::fs::read_to_string(&metrics).unwrap();
    let snap: lrb_obs::Snapshot = serde_json::from_str(&json).unwrap();
    assert_eq!(snap.schema_version, lrb_obs::SCHEMA_VERSION);

    // GREEDY, M-PARTITION, and the knapsack solvers all left phase timings.
    for phase in [
        "greedy.removal",
        "mpartition.search",
        "mpartition.partition",
        "knapsack.branch_and_bound",
        "knapsack.fptas_dp",
    ] {
        let p = snap
            .phase(phase)
            .unwrap_or_else(|| panic!("missing {phase}"));
        assert!(p.total_nanos > 0, "{phase} has zero duration");
    }

    // Threshold-scan candidate accounting is consistent.
    let total = snap.counter("mpartition.candidates_total").unwrap();
    let examined = snap.counter("mpartition.candidates_examined").unwrap();
    let skipped = snap.counter("mpartition.candidates_skipped").unwrap();
    assert!(examined >= 1);
    assert_eq!(examined + skipped, total);

    // The FPTAS filled a real DP table.
    assert!(snap.counter("knapsack.dp_cells").unwrap() > 0);

    std::fs::remove_file(&inst).ok();
    std::fs::remove_file(&metrics).ok();
}

#[test]
fn trace_writes_a_chrome_timeline_through_the_binary() {
    let path = tmp("trace-e2e.json");
    let (ok, stdout, stderr) = lrb(&[
        "trace",
        "--scenario",
        "smoke_ladder",
        "--threads",
        "4",
        "--seed",
        "7",
        "--out",
        &path,
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("attributed wall time"), "{stdout}");
    let json = std::fs::read_to_string(&path).unwrap();
    assert!(json.contains("\"schema_version\": 1"), "missing version");
    assert!(json.contains("traceEvents"), "missing event array");
    assert!(json.contains("engine.worker"), "missing worker spans");
    std::fs::remove_file(&path).ok();
}

#[test]
fn failures_exit_nonzero_with_stderr() {
    let (ok, _, stderr) = lrb(&["solve", "/definitely/missing.json", "--moves", "1"]);
    assert!(!ok);
    assert!(stderr.contains("error:"));

    let (ok, _, stderr) = lrb(&["no-such-command"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"));
}
