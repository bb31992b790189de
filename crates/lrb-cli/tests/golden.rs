//! Golden-schema tests for the machine-readable JSON documents.
//!
//! Each of the seven schemas (CHAOS_1, ONLINE_2, HETERO_1, COMPETE_1,
//! TRACE_1, LINT_1, and the lrb-serve snapshot SERVE_2) is stated once, by
//! its Rust type. The derived `Deserialize` rejects unknown fields and
//! missing fields at every level, and names the record at fault
//! (`epoch_curve[0]`, `traceEvents[0]`). `golden/<SCHEMA>.json`
//! pins each type: it must decode and re-encode to the same bytes, so a
//! field added, removed or renamed fails here until the golden is edited
//! on purpose (and the version bumped). The live tests decode real command
//! output into the same types; the drift tests inject unknown, missing and
//! renamed keys at every level and check that each one is refused.
//!
//! LINT_1 is written by the std-only `lrb-lint`, so its reader type,
//! [`LintReport`], lives here on the consumer side.

use lrb_cli::chaos::{ChaosReport, CHAOS_SCHEMA_VERSION};
use lrb_cli::commands::dispatch;
use lrb_cli::compete::{CompeteReport, COMPETE_SCHEMA_VERSION};
use lrb_cli::hetero::{HeteroReport, HETERO_SCHEMA_VERSION};
use lrb_cli::online::{OnlineReport, ONLINE_SCHEMA_VERSION};
use lrb_cli::trace::{ChromeTrace, TraceEvent};
use lrb_serve::snapshot::{SnapshotDoc, SERVE_SCHEMA_VERSION};
use serde::{Deserialize, Serialize};
use serde_json::Value;

/// Reader for `LINT_1.json`, field for field in `lrb_lint::report_json`'s
/// order.
#[derive(Debug, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
struct LintReport {
    schema_version: u32,
    files: u64,
    call_graph: LintGraph,
    rules: Vec<LintRule>,
    findings: Vec<LintFinding>,
    suppressions: LintSuppressions,
}

#[derive(Debug, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
struct LintGraph {
    edges: u64,
    functions: u64,
    resolved_calls: u64,
    unresolved_calls: u64,
}

#[derive(Debug, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
struct LintRule {
    rule: String,
    findings: u64,
}

#[derive(Debug, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
struct LintFinding {
    rule: String,
    path: String,
    line: u32,
    col: u32,
    message: String,
}

#[derive(Debug, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
struct LintSuppressions {
    total: u64,
    stale: u64,
    sites: Vec<LintSite>,
}

#[derive(Debug, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
struct LintSite {
    rule: String,
    path: String,
    line: u32,
    used: bool,
}

/// A pinned schema: its document type and the version it must carry.
trait Schema: Serialize + Deserialize {
    const VERSION: u32;
    fn version(&self) -> u32;
}

macro_rules! schema {
    ($($ty:ty => $version:expr),* $(,)?) => {$(
        impl Schema for $ty {
            const VERSION: u32 = $version;
            fn version(&self) -> u32 {
                self.schema_version
            }
        }
    )*};
}

schema! {
    ChaosReport => CHAOS_SCHEMA_VERSION,
    OnlineReport => ONLINE_SCHEMA_VERSION,
    HeteroReport => HETERO_SCHEMA_VERSION,
    CompeteReport => COMPETE_SCHEMA_VERSION,
    ChromeTrace => lrb_obs::TRACE_SCHEMA_VERSION,
    LintReport => lrb_lint::LINT_SCHEMA_VERSION,
    SnapshotDoc => SERVE_SCHEMA_VERSION,
}

/// Decode a document into its type and compare its version: what every
/// consumer of these files does.
fn decode<T: Schema>(text: &str) -> Result<T, String> {
    let doc: T = serde_json::from_str(text).map_err(|e| e.to_string())?;
    match doc.version() {
        v if v == T::VERSION => Ok(doc),
        v => Err(format!("schema_version {v}, expected {}", T::VERSION)),
    }
}

fn decode_value<T: Schema>(v: &Value) -> Result<T, String> {
    decode(&serde_json::to_string(v).unwrap())
}

/// Decode `text` and require that it is exactly the type's own encoding.
fn decode_exact<T: Schema>(text: &str, what: &str) -> T {
    let doc: T = decode(text).unwrap_or_else(|e| panic!("{what}: {e}"));
    assert_eq!(
        serde_json::to_string_pretty(&doc).unwrap(),
        text.trim_end(),
        "{what} is not its type's encoding"
    );
    doc
}

fn run(cmd: &str) -> Result<String, String> {
    dispatch(cmd.split_whitespace().map(str::to_string).collect())
}

fn tmpfile(name: &str) -> String {
    let dir = std::env::temp_dir().join("lrb-cli-golden");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name).to_string_lossy().into_owned()
}

/// Run `cmd --out FILE` and decode FILE into its schema type.
fn run_and_decode<T: Schema>(cmd: &str, name: &str) -> T {
    let path = tmpfile(name);
    run(&format!("{cmd} --out {path}")).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    decode_exact(&text, cmd)
}

fn parse(text: &str) -> Value {
    serde_json::from_str(text).unwrap()
}

/// Mutable entries of an object (the vendored `Value` has no `IndexMut`).
fn entries_mut(v: &mut Value) -> &mut Vec<(String, Value)> {
    match v {
        Value::Object(entries) => entries,
        _ => panic!("expected a JSON object"),
    }
}

/// Mutable reference to a named field.
fn field_mut<'a>(v: &'a mut Value, key: &str) -> &'a mut Value {
    entries_mut(v)
        .iter_mut()
        .find(|(k, _)| k == key)
        .map(|(_, val)| val)
        .unwrap_or_else(|| panic!("missing field '{key}'"))
}

/// Mutable reference to element `idx` of the array under `key`.
fn element_mut<'a>(v: &'a mut Value, key: &str, idx: usize) -> &'a mut Value {
    match field_mut(v, key) {
        Value::Array(items) => &mut items[idx],
        _ => panic!("{key} is not an array"),
    }
}

fn push_field(v: &mut Value, key: &str, val: Value) {
    entries_mut(v).push((key.to_string(), val));
}

fn remove_field(v: &mut Value, key: &str) {
    entries_mut(v).retain(|(k, _)| k != key);
}

#[test]
fn every_golden_decodes_into_its_type_and_re_encodes_unchanged() {
    fn check<T: Schema>(name: &str) {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/golden")
            .join(name);
        decode_exact::<T>(&std::fs::read_to_string(path).unwrap(), name);
    }
    check::<ChaosReport>("CHAOS_1.json");
    check::<OnlineReport>("ONLINE_2.json");
    check::<HeteroReport>("HETERO_1.json");
    check::<CompeteReport>("COMPETE_1.json");
    check::<ChromeTrace>("TRACE_1.json");
    check::<LintReport>("LINT_1.json");
    check::<SnapshotDoc>("SERVE_2.json");
}

#[test]
fn retired_versions_are_refused() {
    fn refuse<T: Schema>(name: &str, retired: u32) {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/golden")
            .join(name);
        let text = std::fs::read_to_string(path).unwrap();
        let current = format!("\"schema_version\": {}", T::VERSION);
        let old = text.replacen(&current, &format!("\"schema_version\": {retired}"), 1);
        let err = decode::<T>(&old)
            .err()
            .expect("a retired version was accepted");
        assert!(
            err.contains(&format!("schema_version {retired}")),
            "{name}: {err}"
        );
    }
    refuse::<OnlineReport>("ONLINE_2.json", 1);
    refuse::<SnapshotDoc>("SERVE_2.json", 1);
}

#[test]
fn chaos_report_matches_the_pinned_schema() {
    let report: ChaosReport = run_and_decode(
        "chaos --sites 16 --servers 3 --epochs 6 --moves 2 --crash-rate 0.2",
        "chaos.json",
    );
    assert!(!report.points.is_empty());
}

#[test]
fn hetero_report_matches_the_pinned_schema() {
    let report: HeteroReport = run_and_decode("hetero --smoke --seed 11", "hetero.json");
    assert_eq!(report.solvers.len(), 2);
    for point in &report.solvers {
        // Budget discipline is a hard invariant, not a statistic.
        assert_eq!(point.budget_violations, 0);
        assert!(point.max_ratio_x1000 >= 1000);
    }
}

#[test]
fn hetero_runs_are_seed_deterministic_through_the_cli() {
    let a = tmpfile("hetero-det-a.json");
    let b = tmpfile("hetero-det-b.json");
    for path in [&a, &b] {
        run(&format!(
            "hetero --smoke --seed 42 --speeds 1,3,2,1,2 --out {path}"
        ))
        .unwrap();
    }
    assert_eq!(
        std::fs::read_to_string(&a).unwrap(),
        std::fs::read_to_string(&b).unwrap()
    );
    std::fs::remove_file(&a).ok();
    std::fs::remove_file(&b).ok();
}

#[test]
fn online_report_matches_the_pinned_schema() {
    let report: OnlineReport = run_and_decode(
        "online --servers 4 --epochs 10 --moves 3 --seed 5",
        "online.json",
    );
    assert_eq!(report.epoch_curve.len(), 10);

    // The curve's banked balances respect the bank cap, and churn totals
    // reconcile with the summary counters (initial jobs arrive pre-epoch-0).
    let mut arrivals = report.initial_jobs as u64;
    let mut departures = 0u64;
    for point in &report.epoch_curve {
        assert!(point.banked <= report.bank_cap);
        arrivals += point.arrivals as u64;
        departures += point.departures as u64;
    }
    assert_eq!(arrivals, report.arrivals);
    assert_eq!(departures, report.departures);
}

#[test]
fn trace_export_matches_the_pinned_schema() {
    let path = tmpfile("trace.json");
    run(&format!(
        "trace --scenario smoke_ladder --threads 2 --seed 7 --out {path}"
    ))
    .unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let trace: ChromeTrace = decode_exact(&text, "trace");

    let spans = trace
        .trace_events
        .iter()
        .filter(|e| matches!(e, TraceEvent::Complete(_)))
        .count();
    assert!(spans > 0, "a trace without spans attributes nothing");
    assert_eq!(spans as u64, trace.other_data.span_count);

    // Injected unknown fields are rejected at every level.
    let mut v = parse(&text);
    push_field(&mut v, "smuggled", Value::Bool(true));
    let err = decode_value::<ChromeTrace>(&v).unwrap_err();
    assert!(err.contains("unknown field 'smuggled'"), "{err}");
    remove_field(&mut v, "smuggled");
    push_field(
        element_mut(&mut v, "traceEvents", 0),
        "smuggled",
        Value::Bool(true),
    );
    let err = decode_value::<ChromeTrace>(&v).unwrap_err();
    assert!(err.contains("traceEvents[0]"), "{err}");
    assert!(err.contains("unknown field 'smuggled'"), "{err}");
}

#[test]
fn trace_determinism_hash_is_stable_across_reruns_and_thread_counts() {
    let hash_of = |threads: usize, name: &str| {
        let trace: ChromeTrace = run_and_decode(
            &format!("trace --scenario smoke_ladder --threads {threads} --seed 11"),
            name,
        );
        trace.other_data.determinism_hash
    };
    let base = hash_of(1, "det-t1a.json");
    assert_eq!(base, hash_of(1, "det-t1b.json"), "rerun changed the hash");
    assert_eq!(base, hash_of(4, "det-t4.json"), "threads changed the hash");
}

/// The determinism hash of each `lrb trace --seed 7` scenario. It digests
/// the name, kind and payload of every non-scheduling event, so a change
/// that drops, renames or adds a span or instant moves it.
const PINNED_TRACE_HASHES: &[(&str, u64)] = &[
    ("smoke_ladder", 0x84b2_ea06_55ae_9697),
    ("standard_ladder", 0x67f0_fd25_7c4e_4e8d),
    ("chaos", 0xff76_a252_d3ae_ac6c),
    ("online", 0xe989_11a9_d22e_7d12),
];

#[test]
fn trace_determinism_hashes_match_the_pinned_values() {
    for &(scenario, want) in PINNED_TRACE_HASHES {
        for threads in [1, 2, 4] {
            let run = lrb_cli::trace::run(scenario, threads, 7).unwrap();
            assert_eq!(
                run.trace.determinism_hash(),
                want,
                "{scenario} at {threads} threads: got {:#018x}",
                run.trace.determinism_hash()
            );
        }
    }
}

#[test]
fn validators_reject_injected_unknown_fields() {
    let path = tmpfile("inject-online.json");
    run(&format!(
        "online --servers 3 --epochs 4 --moves 2 --out {path}"
    ))
    .unwrap();
    let mut v = parse(&std::fs::read_to_string(&path).unwrap());
    std::fs::remove_file(&path).ok();

    decode_value::<OnlineReport>(&v).unwrap();
    push_field(&mut v, "smuggled", Value::Bool(true));
    let err = decode_value::<OnlineReport>(&v).unwrap_err();
    assert!(err.contains("unknown field 'smuggled'"), "{err}");
    remove_field(&mut v, "smuggled");

    // Nested injection is caught too.
    push_field(
        element_mut(&mut v, "epoch_curve", 0),
        "smuggled",
        Value::Bool(true),
    );
    let err = decode_value::<OnlineReport>(&v).unwrap_err();
    assert!(err.contains("epoch_curve[0]"), "{err}");
    assert!(err.contains("unknown field 'smuggled'"), "{err}");

    // A renamed (hence missing) field is a schema violation as well.
    entries_mut(element_mut(&mut v, "epoch_curve", 0))
        .retain(|(k, _)| k != "smuggled" && k != "banked");
    let err = decode_value::<OnlineReport>(&v).unwrap_err();
    assert!(err.contains("missing field 'banked'"), "{err}");
}

#[test]
fn online_runs_are_seed_deterministic_through_the_cli() {
    let a = tmpfile("det-a.json");
    let b = tmpfile("det-b.json");
    for path in [&a, &b] {
        run(&format!(
            "online --servers 4 --epochs 8 --moves 3 --seed 42 --out {path}"
        ))
        .unwrap();
    }
    assert_eq!(
        std::fs::read_to_string(&a).unwrap(),
        std::fs::read_to_string(&b).unwrap()
    );
    std::fs::remove_file(&a).ok();
    std::fs::remove_file(&b).ok();
}

fn chaos_doc(version: u64, points: &str) -> Value {
    parse(&format!(
        r#"{{"schema_version": {version}, "sites": 1, "servers": 1,
            "epochs": 1, "moves": 1, "seed": 0, "points": {points}}}"#
    ))
}

#[test]
fn unknown_and_missing_fields_are_both_rejected() {
    let mut v = chaos_doc(1, "[]");
    decode_value::<ChaosReport>(&v).unwrap();
    push_field(&mut v, "surprise", Value::Bool(true));
    assert!(decode_value::<ChaosReport>(&v)
        .unwrap_err()
        .contains("unknown field 'surprise'"));
    remove_field(&mut v, "surprise");
    remove_field(&mut v, "sites");
    assert!(decode_value::<ChaosReport>(&v)
        .unwrap_err()
        .contains("missing field 'sites'"));
}

#[test]
fn version_mismatch_is_rejected() {
    let v = chaos_doc(99, "[]");
    assert!(decode_value::<ChaosReport>(&v)
        .unwrap_err()
        .contains("schema_version 99"));
}

#[test]
fn nested_points_are_checked() {
    let v = chaos_doc(1, r#"[{"bogus": 1}]"#);
    let err = decode_value::<ChaosReport>(&v).unwrap_err();
    assert!(err.contains("points[0]"), "{err}");
}

fn compete_doc(version: u64, grid: &str) -> String {
    format!(
        r#"{{"schema_version": {version}, "procs": 3, "epochs": 4,
            "arrivals_per_epoch": 2, "max_size": 9, "seed": 0,
            "speeds": [1, 1, 1], "grid": {grid}}}"#
    )
}

#[test]
fn compete_documents_are_validated_in_both_directions() {
    let cell = r#"{"adversary": "adaptive", "certificate_overspend": 0,
                   "epochs_scored": 4, "final_makespan": 9, "final_opt": 6,
                   "mean_ratio_x1000": 1200, "policy": "move-bank",
                   "total_migration_cost": 3, "total_moves": 2,
                   "worst_ratio_x1000": 1500}"#;
    decode::<CompeteReport>(&compete_doc(1, &format!("[{cell}]"))).unwrap();
    assert!(decode::<CompeteReport>(&compete_doc(7, "[]"))
        .unwrap_err()
        .contains("schema_version 7"));
    let short = cell.replace(r#""final_opt""#, r#""final_opt_typo""#);
    let err = decode::<CompeteReport>(&compete_doc(1, &format!("[{short}]"))).unwrap_err();
    assert!(err.contains("final_opt"), "{err}");
    let extra = cell.replace(r#""total_moves": 2"#, r#""total_moves": 2, "smuggled": 1"#);
    assert!(
        decode::<CompeteReport>(&compete_doc(1, &format!("[{extra}]")))
            .unwrap_err()
            .contains("unknown field 'smuggled'")
    );
}

fn trace_doc(events: &str) -> String {
    format!(
        r#"{{"displayTimeUnit": "ms",
            "otherData": {{"attributed_pct": 99.0, "determinism_hash": "0x0",
                           "scenario": "s", "seed": 0, "solver": "m",
                           "span_count": 1, "threads": 1}},
            "schema_version": 1, "traceEvents": {events}}}"#
    )
}

#[test]
fn trace_events_are_dispatched_on_phase() {
    let span = r#"{"args": {"seq": 0, "v": 0}, "dur": 1.0, "name": "a",
                   "ph": "X", "pid": 1, "tid": 0, "ts": 0.0}"#;
    let instant = r#"{"args": {"seq": 1, "v": 2}, "name": "b", "ph": "i",
                      "pid": 1, "s": "t", "tid": 0, "ts": 0.5}"#;
    decode::<ChromeTrace>(&trace_doc(&format!("[{span}, {instant}]"))).unwrap();
    // A complete event missing `dur`, an instant with an extra key, an
    // unknown phase, and smuggled args are each violations.
    let short = span.replace(r#""dur": 1.0, "#, "");
    assert!(decode::<ChromeTrace>(&trace_doc(&format!("[{short}]")))
        .unwrap_err()
        .contains("missing field 'dur'"));
    let extra = instant.replace(r#""s": "t""#, r#""s": "t", "smuggled": 1"#);
    assert!(decode::<ChromeTrace>(&trace_doc(&format!("[{extra}]")))
        .unwrap_err()
        .contains("unknown field 'smuggled'"));
    let weird = span.replace(r#""ph": "X""#, r#""ph": "B""#);
    assert!(decode::<ChromeTrace>(&trace_doc(&format!("[{weird}]")))
        .unwrap_err()
        .contains("unknown phase 'B'"));
    let args = span.replace(r#""v": 0"#, r#""v": 0, "note": "hi""#);
    assert!(decode::<ChromeTrace>(&trace_doc(&format!("[{args}]")))
        .unwrap_err()
        .contains("args"));
}

#[test]
fn lint_reports_validate_and_reject_drift() {
    // One finding and one live suppression, so every nested record of the
    // writer's output is exercised.
    let files = [(
        "crates/lrb-core/src/lib.rs",
        "pub fn f(load: u64) -> u64 {\n    g(load).unwrap()\n}\n\n\
         fn g(load: u64) -> Option<u64> {\n    \
         // lint: allow(checked-arith, golden fixture)\n    \
         Some(load + 1)\n}\n",
    )];
    let analysis = lrb_lint::analyze_sources(&files, &lrb_obs::NoopTracer);
    let json = lrb_lint::report_json(&analysis);
    let report: LintReport = decode(&json).unwrap();
    assert!(!report.findings.is_empty() && !report.suppressions.sites.is_empty());
    // The reader states the writer's schema exactly, key order included.
    assert_eq!(
        parse(&serde_json::to_string(&report).unwrap()),
        parse(&json)
    );

    let mut doc = parse(&json);
    push_field(&mut doc, "vendor_extension", Value::Null);
    assert!(decode_value::<LintReport>(&doc)
        .unwrap_err()
        .contains("unknown field"));
    remove_field(&mut doc, "vendor_extension");
    remove_field(&mut doc, "call_graph");
    assert!(decode_value::<LintReport>(&doc)
        .unwrap_err()
        .contains("call_graph"));

    let stale = json.replace("\"schema_version\": 1", "\"schema_version\": 99");
    assert!(decode::<LintReport>(&stale)
        .unwrap_err()
        .contains("schema_version"));
}

#[test]
fn serve_snapshots_validate_and_reject_drift() {
    let mut state = lrb_serve::ServeState::new(lrb_serve::ServeConfig::default());
    let events = [
        lrb_serve::wal::LoggedEvent::Arrive {
            tenant: 1,
            key: 10,
            size: 4,
            cost: 1,
            proc: 0,
        },
        lrb_serve::wal::LoggedEvent::Arrive {
            tenant: 1,
            key: 11,
            size: 2,
            cost: 1,
            proc: 2,
        },
    ];
    state.apply_events(&events);
    let json = serde_json::to_string(&state.capture()).unwrap();
    decode::<SnapshotDoc>(&json).unwrap();
    let mut extra = parse(&json);
    push_field(
        &mut extra,
        "smuggled",
        Value::Number(serde_json::Number::U64(1)),
    );
    assert!(decode_value::<SnapshotDoc>(&extra)
        .unwrap_err()
        .contains("unknown field 'smuggled'"));
    let short = json.replacen(r#""applied""#, r#""applied_typo""#, 1);
    assert!(decode::<SnapshotDoc>(&short)
        .unwrap_err()
        .contains("applied"));
}
