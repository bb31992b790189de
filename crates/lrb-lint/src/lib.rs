//! # lrb-lint — workspace invariant checker
//!
//! The differential and equivalence suites *test* the workspace's core
//! invariants (solver determinism, panic-freedom, overflow discipline,
//! schema stability); this crate *statically certifies* the code patterns
//! those invariants depend on, and adversarially stress-tests the one
//! genuinely racy subsystem:
//!
//! * [`rules`] — the lexical rule layer over a hand-rolled Rust lexer
//!   ([`lexer`]) with per-site `// lint: allow(<rule>, <reason>)`
//!   suppressions.
//! * [`parser`] / [`graph`] / [`taint`] — the semantic layer: an item
//!   parser extracts functions, calls, and sink sites; a cross-crate
//!   call graph is resolved by name under a crate-dependency filter; and
//!   reachability/taint passes widen the panic, nondeterminism, and
//!   checked-arith rules from per-file path scopes to whole-workspace
//!   properties of the reachable computation.
//! * [`report`] — `LINT_1.json` emission (findings, per-rule counts,
//!   call-graph stats, suppression inventory).
//! * [`schedules`] — seeded pathological-scheduler exploration of the
//!   `lrb-engine` work-stealing executor, asserting result bit-identity
//!   across adversarial schedules.
//!
//! All of it runs as hard gates in `scripts/check.sh`. See DESIGN.md §11
//! (lexical layer) and §16 (semantic layer).

pub mod graph;
pub mod lexer;
pub mod parser;
pub mod report;
pub mod rules;
mod scan;
pub mod schedules;
pub mod taint;

use std::path::{Path, PathBuf};

use lrb_obs::{names, NoopRecorder, NoopTracer, Recorder, Tracer};

pub use graph::GraphStats;
pub use report::{report_json, LINT_SCHEMA_VERSION};
pub use rules::Finding;

/// Directory names never descended into when walking a workspace.
const SKIP_DIRS: &[&str] = &[
    "target",
    "vendor",
    ".git",
    "fixtures",
    "benches",
    "node_modules",
];

/// Workspace directories that are linted (relative to the root).
const LINT_ROOTS: &[&str] = &["crates", "src", "tests", "examples"];

/// One `// lint: allow(...)` directive and whether it earned its keep.
#[derive(Debug, Clone)]
pub struct SuppressionSite {
    pub path: String,
    pub line: u32,
    pub col: u32,
    pub rule: String,
    /// `true` when the directive suppressed at least one live finding.
    pub used: bool,
}

/// Full analyzer output: filtered findings plus the report inventory.
pub struct Analysis {
    /// Findings surviving suppression, in (path, line, col, rule) order.
    /// Includes `stale-suppression` findings for unused allows.
    pub findings: Vec<Finding>,
    /// Files analyzed.
    pub files: usize,
    /// Call-graph size and resolution counters.
    pub graph: GraphStats,
    /// Every suppression directive seen, in file order.
    pub suppressions: Vec<SuppressionSite>,
}

/// Collect every lintable `.rs` file under `root`, workspace-relative.
pub fn collect_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    for top in LINT_ROOTS {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(&dir, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

fn walk(dir: &Path, files: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_ref()) {
                walk(&path, files)?;
            }
        } else if name.ends_with(".rs") {
            files.push(path);
        }
    }
    Ok(())
}

/// Analyze a set of `(workspace-relative path, source)` files as one
/// virtual workspace: lexical rules per file, then the call-graph passes
/// across all of them, then suppression filtering and the stale pass.
///
/// Instrumentation goes to `rec`/`tracer` under the `lint.*` names, so
/// analyzer cost shows up in `lrb trace` like every other subsystem.
pub fn analyze_sources<R: Recorder, T: Tracer>(
    files: &[(&str, &str)],
    rec: &R,
    tracer: &T,
) -> Analysis {
    let mut findings: Vec<Finding> = Vec::new();
    let mut facts = Vec::new();
    let mut allows: Vec<(String, Vec<scan::Allow>)> = Vec::new();

    {
        let _t = rec.time(names::LINT_PARSE);
        for (i, (path, src)) in files.iter().enumerate() {
            let _s = tracer.span_with(names::LINT_PARSE, i as u64, false);
            let toks = lexer::lex(src);
            let sc = scan::Scan::new(&toks);
            let file_allows = scan::collect_allows(&toks, &sc.sig, path, &mut findings);
            rules::lexical_findings(&sc, path, &mut findings);
            facts.push(parser::parse_file(path, &sc));
            allows.push((path.to_string(), file_allows));
        }
    }

    let g = {
        let _t = rec.time(names::LINT_GRAPH);
        let _s = tracer.span(names::LINT_GRAPH);
        graph::build(facts)
    };

    {
        let _t = rec.time(names::LINT_PASS);
        type Pass = fn(&graph::Graph, &mut Vec<Finding>);
        const PASSES: &[Pass] = &[
            taint::panic_pass,
            taint::nondet_pass,
            taint::arith_flow_pass,
        ];
        for (k, pass) in PASSES.iter().enumerate() {
            let _s = tracer.span_with(names::LINT_PASS, k as u64, false);
            pass(&g, &mut findings);
        }
    }

    // Suppression filtering: a matching allow eats the finding and is
    // marked used. `allow-syntax` findings can never be suppressed.
    let mut kept = Vec::with_capacity(findings.len());
    for f in findings {
        let mut suppressed = false;
        if f.rule != "allow-syntax" {
            if let Some((_, list)) = allows.iter_mut().find(|(p, _)| p == &f.path) {
                for a in list.iter_mut() {
                    if a.rule == f.rule && a.lines.contains(&f.line) {
                        a.used = true;
                        suppressed = true;
                    }
                }
            }
        }
        if !suppressed {
            kept.push(f);
        }
    }
    let mut findings = kept;

    // Stale pass: every directive must have suppressed something live.
    let mut suppressions = Vec::new();
    for (path, list) in &allows {
        for a in list {
            if !a.used {
                findings.push(Finding {
                    rule: "stale-suppression",
                    path: path.clone(),
                    line: a.line,
                    col: a.col,
                    message: format!(
                        "allow({}) suppresses nothing: delete it, or move it to the \
                         root-cause site the reachability passes point at",
                        a.rule
                    ),
                });
            }
            suppressions.push(SuppressionSite {
                path: path.clone(),
                line: a.line,
                col: a.col,
                rule: a.rule.clone(),
                used: a.used,
            });
        }
    }

    findings
        .sort_by(|a, b| (&a.path, a.line, a.col, a.rule).cmp(&(&b.path, b.line, b.col, b.rule)));
    // The lexical checked-arith rule and the flow pass can flag the same
    // operator (one side loadish-named, the other load-typed by flow); one
    // report per site is enough, keeping the first — the lexical message.
    // Other rules legitimately stack distinct findings on one position
    // (e.g. several missing pinned consts all anchor at 1:1), so the dedup
    // is scoped to that one rule.
    findings.dedup_by(|b, a| {
        a.rule == "checked-arith"
            && b.rule == "checked-arith"
            && a.path == b.path
            && a.line == b.line
            && a.col == b.col
    });

    rec.incr(names::LINT_FILES, files.len() as u64);
    rec.incr(names::LINT_FUNCTIONS, g.stats.functions as u64);
    rec.incr(names::LINT_EDGES, g.stats.edges as u64);
    rec.incr(names::LINT_FINDINGS, findings.len() as u64);

    Analysis {
        findings,
        files: files.len(),
        graph: g.stats,
        suppressions,
    }
}

/// [`analyze_sources`] without instrumentation, returning only findings.
pub fn lint_sources(files: &[(&str, &str)]) -> Vec<Finding> {
    analyze_sources(files, &NoopRecorder, &NoopTracer).findings
}

/// Read and analyze every workspace file under `root`; findings carry
/// root-relative paths so rule scoping is independent of where the tool is
/// invoked from.
pub fn analyze_workspace<R: Recorder, T: Tracer>(
    root: &Path,
    rec: &R,
    tracer: &T,
) -> std::io::Result<Analysis> {
    let _run = tracer.span(names::LINT_RUN);
    let mut sources: Vec<(String, String)> = Vec::new();
    for file in collect_files(root)? {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        let src = std::fs::read_to_string(&file)?;
        sources.push((rel, src));
    }
    let views: Vec<(&str, &str)> = sources
        .iter()
        .map(|(p, s)| (p.as_str(), s.as_str()))
        .collect();
    Ok(analyze_sources(&views, rec, tracer))
}

/// Lint every workspace file under `root` with the full analyzer.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    analyze_workspace(root, &NoopRecorder, &NoopTracer).map(|a| a.findings)
}
