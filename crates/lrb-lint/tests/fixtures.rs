//! Each rule is proven live against a fixture that must trip it, with the
//! exact line/column pinned, and proven suppressible via an allow
//! directive inside the same fixture. The fixtures live under
//! `fixtures/`, which the workspace walker skips, and are linted under
//! *virtual* paths so rule scoping (solver crate, model file, report file)
//! is exercised without touching real sources.

use lrb_lint::rules::{lint_source, Finding};

fn lint(fixture: &str, virtual_path: &str) -> Vec<Finding> {
    lint_source(virtual_path, fixture)
}

fn triples(findings: &[Finding]) -> Vec<(&'static str, u32, u32)> {
    findings.iter().map(|f| (f.rule, f.line, f.col)).collect()
}

#[test]
fn nondeterminism_fixture_trips_and_suppresses() {
    let findings = lint(
        include_str!("../fixtures/nondeterminism.rs"),
        "crates/lrb-core/src/fixture.rs",
    );
    // Three HashMap mentions and one Instant::now; the allow-annotated
    // Instant::now at the bottom of the fixture must NOT appear.
    assert_eq!(
        triples(&findings),
        vec![
            ("no-nondeterminism", 4, 23),
            ("no-nondeterminism", 7, 30),
            ("no-nondeterminism", 8, 19),
            ("no-nondeterminism", 8, 39),
        ],
        "{findings:#?}"
    );
}

#[test]
fn nondeterminism_fixture_goes_stale_outside_solver_crates() {
    // Outside the rule's scope the clock reads are legal — which turns the
    // fixture's embedded allow into a stale-suppression hard error.
    let findings = lint(
        include_str!("../fixtures/nondeterminism.rs"),
        "crates/lrb-cli/src/fixture.rs",
    );
    assert_eq!(
        triples(&findings),
        vec![("stale-suppression", 14, 5)],
        "{findings:#?}"
    );
}

#[test]
fn panic_fixture_trips_outside_tests_only() {
    let findings = lint(
        include_str!("../fixtures/panic.rs"),
        "crates/lrb-core/src/fixture.rs",
    );
    // unwrap, expect, unreachable! in live code; the unwrap inside
    // `#[cfg(test)] mod tests` is masked.
    assert_eq!(
        triples(&findings),
        vec![
            ("no-panic-core", 5, 17),
            ("no-panic-core", 9, 16),
            ("no-panic-core", 13, 5),
        ],
        "{findings:#?}"
    );
}

#[test]
fn panic_rule_covers_the_serve_daemon() {
    // The same fixture trips under a virtual lrb-serve path (the daemon
    // must never abort) and stays silent in crates outside the rule's
    // scope.
    let findings = lint(
        include_str!("../fixtures/panic.rs"),
        "crates/lrb-serve/src/fixture.rs",
    );
    assert_eq!(
        triples(&findings),
        vec![
            ("no-panic-core", 5, 17),
            ("no-panic-core", 9, 16),
            ("no-panic-core", 13, 5),
        ],
        "{findings:#?}"
    );
    let findings = lint(
        include_str!("../fixtures/panic.rs"),
        "crates/lrb-harness/src/fixture.rs",
    );
    assert!(
        !findings.iter().any(|f| f.rule == "no-panic-core"),
        "{findings:#?}"
    );
}

#[test]
fn checked_arith_fixture_trips_once() {
    let findings = lint(
        include_str!("../fixtures/checked_arith.rs"),
        "crates/lrb-core/src/model.rs",
    );
    // `load + size` trips; the u128-widened product and the allow-annotated
    // sum do not.
    assert_eq!(
        triples(&findings),
        vec![("checked-arith", 5, 10)],
        "{findings:#?}"
    );
}

#[test]
fn checked_arith_scope_covers_the_whole_core_crate() {
    // The semantic layer widened the rule from model.rs/bounds.rs to every
    // lrb-core file — the flow pass proves load-typedness crate-wide, so
    // the lexical scope matches.
    let findings = lint(
        include_str!("../fixtures/checked_arith.rs"),
        "crates/lrb-core/src/greedy.rs",
    );
    assert_eq!(
        triples(&findings),
        vec![("checked-arith", 5, 10)],
        "{findings:#?}"
    );
    // Outside the solver crate the rule is silent, so the embedded allow
    // is stale.
    let findings = lint(
        include_str!("../fixtures/checked_arith.rs"),
        "crates/lrb-harness/src/fixture.rs",
    );
    assert_eq!(
        triples(&findings),
        vec![("stale-suppression", 13, 5)],
        "{findings:#?}"
    );
}

#[test]
fn obs_names_fixture_flags_inline_literal_only() {
    let findings = lint(
        include_str!("../fixtures/obs_names.rs"),
        "crates/lrb-sim/src/fixture.rs",
    );
    // The inline "sim.epochz" Recorder literal and the "sim.runz" Tracer
    // span literal trip; the names:: calls are the sanctioned form.
    assert_eq!(
        triples(&findings),
        vec![("obs-name-registry", 7, 14), ("obs-name-registry", 12, 26),],
        "{findings:#?}"
    );
    assert!(findings[0].message.contains("sim.epochz"));
    assert!(findings[1].message.contains("sim.runz"));
}

#[test]
fn unsafe_fixture_requires_safety_comment() {
    let findings = lint(
        include_str!("../fixtures/unsafe_audit.rs"),
        "crates/lrb-sim/src/fixture.rs",
    );
    // The undocumented block trips; the `// SAFETY:`-prefixed one passes.
    assert_eq!(
        triples(&findings),
        vec![("unsafe-audit", 5, 5)],
        "{findings:#?}"
    );
}

#[test]
fn clean_fixture_passes_strictest_scope() {
    let findings = lint(
        include_str!("../fixtures/clean.rs"),
        "crates/lrb-core/src/model.rs",
    );
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn panic_reachability_crosses_crates_to_the_root_cause() {
    // A public engine API reaches an unwrap through a three-deep chain
    // ending in a support crate the lexical rule does not own; the finding
    // lands at the sink with the full chain spelled out. The second chain
    // ends in an allow at the root-cause site, which eats the finding.
    let findings = lrb_lint::lint_sources(&[
        (
            "crates/lrb-engine/src/fixture.rs",
            include_str!("../fixtures/panic_reach.rs"),
        ),
        (
            "crates/lrb-support/src/lib.rs",
            include_str!("../fixtures/panic_sink.rs"),
        ),
    ]);
    assert_eq!(
        triples(&findings),
        vec![("no-panic-core", 10, 22)],
        "{findings:#?}"
    );
    assert_eq!(findings[0].path, "crates/lrb-support/src/lib.rs");
    assert!(
        findings[0]
            .message
            .contains("`solve_public` -> `step_one` -> `step_two` -> `step_three` -> unwrap()"),
        "{}",
        findings[0].message
    );
}

#[test]
fn nondeterminism_taint_flows_through_helpers() {
    // The clock read sits in a helper crate; only the taint pass connects
    // the public engine API to it.
    let findings = lrb_lint::lint_sources(&[
        (
            "crates/lrb-engine/src/fixture.rs",
            include_str!("../fixtures/nondet_caller.rs"),
        ),
        (
            "crates/lrb-support/src/lib.rs",
            include_str!("../fixtures/nondet_taint.rs"),
        ),
    ]);
    assert_eq!(
        triples(&findings),
        vec![("no-nondeterminism", 6, 16)],
        "{findings:#?}"
    );
    assert!(
        findings[0]
            .message
            .contains("`epoch_seed` -> `wall_clock_nanos`"),
        "{}",
        findings[0].message
    );
}

#[test]
fn arith_flow_tracks_loads_through_lets_and_call_slots() {
    // `load` flows through a let binding named `w` into `helper`'s
    // `amount` parameter; the bare `+` there is flagged even though no
    // operand is loadish-named. The u128-widened product is exempt, and
    // the allow-annotated sum is eaten (proving the allow is live, not
    // stale).
    let findings = lrb_lint::lint_sources(&[(
        "crates/lrb-core/src/flow.rs",
        include_str!("../fixtures/arith_flow.rs"),
    )]);
    assert_eq!(
        triples(&findings),
        vec![("checked-arith", 10, 12)],
        "{findings:#?}"
    );
    assert!(
        findings[0].message.contains("load-typed by dataflow"),
        "{}",
        findings[0].message
    );
}

#[test]
fn stale_and_malformed_suppressions_are_hard_errors() {
    let findings = lrb_lint::lint_sources(&[(
        "crates/lrb-harness/src/fixture.rs",
        include_str!("../fixtures/stale_allow.rs"),
    )]);
    assert_eq!(
        triples(&findings),
        vec![("stale-suppression", 5, 5), ("allow-syntax", 10, 5)],
        "{findings:#?}"
    );
}

#[test]
fn real_workspace_is_clean() {
    // The repo itself must satisfy its own linter; run from the crate dir,
    // the workspace root is two levels up.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root exists");
    let analysis = lrb_lint::analyze_workspace(&root, &lrb_obs::NoopRecorder, &lrb_obs::NoopTracer)
        .expect("workspace walk succeeds");
    assert!(analysis.findings.is_empty(), "{:#?}", analysis.findings);
    // Vacuity guards: an empty call graph would make every reachability
    // pass trivially clean. The real workspace has thousands of resolved
    // edges and a live suppression inventory.
    assert!(
        analysis.graph.functions > 500,
        "suspiciously few functions: {:?}",
        analysis.graph
    );
    assert!(
        analysis.graph.edges > 1000,
        "suspiciously few call edges: {:?}",
        analysis.graph
    );
    assert!(
        !analysis.suppressions.is_empty() && analysis.suppressions.iter().all(|s| s.used),
        "every committed allow must be live: {:#?}",
        analysis.suppressions
    );
}

#[test]
fn the_binary_refuses_a_vacuous_call_graph() {
    let lint_tree = |name: &str, src: &str| {
        let root = std::env::temp_dir()
            .join("lrb-lint-vacuity")
            .join(format!("{name}-{}", std::process::id()));
        let dir = root.join("crates/lrb-core/src");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("lib.rs"), src).unwrap();
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_lrb-lint"))
            .arg("--root")
            .arg(&root)
            .output()
            .unwrap();
        std::fs::remove_dir_all(&root).ok();
        (
            out.status.code(),
            String::from_utf8_lossy(&out.stdout).into_owned(),
        )
    };
    // Clean code with no calls certifies nothing: exit 1.
    let (code, stdout) = lint_tree("empty", "pub fn f() -> u64 {\n    1\n}\n");
    assert_eq!(code, Some(1), "{stdout}");
    assert!(stdout.contains("vacuous"), "{stdout}");
    // One resolved call edge is enough to pass.
    let (code, stdout) = lint_tree(
        "one-edge",
        "pub fn f() -> u64 {\n    g()\n}\n\nfn g() -> u64 {\n    1\n}\n",
    );
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("workspace clean"), "{stdout}");
}
