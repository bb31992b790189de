//! The lint rule engine: the lexical layer of the analyzer, plus the rule
//! registry shared with the semantic passes.
//!
//! Every rule here is lexical — it walks the token stream from
//! [`crate::lexer`] with test regions (`#[cfg(test)]` / `#[test]` items)
//! masked out, so production invariants are enforced without constraining
//! test code. The same rule *names* are reused by the call-graph passes in
//! [`crate::taint`], which widen three of them beyond their lexical path
//! scope; suppression directives therefore work identically for both
//! layers. A suppression must name the rule *and* give a reason; it covers
//! findings on its own line (trailing form) and on the next code line
//! (preceding form), and must suppress a *live* finding — a stale allow is
//! itself a finding (`stale-suppression`).

use crate::lexer::{Tok, TokKind};
use crate::scan::Scan;

/// Registry of every rule: `(name, one-line rationale)`.
pub const RULES: &[(&str, &str)] = &[
    (
        "no-nondeterminism",
        "solver crates (lrb-core, lrb-engine) must not read clocks or use hash-ordered \
         collections — nor reach code that does, anywhere in the workspace; \
         reproducibility of the paper's guarantees depends on it",
    ),
    (
        "no-panic-core",
        "non-test lrb-core and lrb-serve code must not unwrap/expect/panic, and no panic \
         site anywhere may be reachable from the core/engine/serve public API; hot paths \
         and the daemon return Error or carry a reviewed allow at the root-cause site",
    ),
    (
        "checked-arith",
        "in lrb-core, bare +/-/* on load-typed values — by name, or by dataflow through \
         let bindings and fn signatures — must go through checked_*/saturating_* \
         (u128-widened arithmetic is exempt)",
    ),
    (
        "obs-name-registry",
        "metric names passed to Tracer calls must be lrb_obs::names:: consts, never \
         inline string literals",
    ),
    (
        "unsafe-audit",
        "every `unsafe` must be immediately preceded by a // SAFETY: comment",
    ),
    (
        "stale-suppression",
        "every lint: allow must suppress a live finding; one that no longer fires is a \
         hard error — delete it or move it to the root-cause site the reachability \
         passes point at",
    ),
    (
        "allow-syntax",
        "lint: allow directives must name both a rule and a reason",
    ),
];

/// One lint finding at an exact source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Name of the rule that fired (a key of [`RULES`]).
    pub rule: &'static str,
    /// Workspace-relative path of the offending file.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] {}",
            self.path, self.line, self.col, self.rule, self.message
        )
    }
}

/// Words that mark an identifier as load-typed for the `checked-arith` rule.
const LOAD_WORDS: &[&str] = &[
    "load", "size", "cost", "makespan", "total", "spent", "bank", "sum",
];

/// Identifiers that contain a load word but are not load-typed values.
const LOAD_WORD_EXEMPT: &[&str] = &["usize", "isize"];

/// The `Tracer` methods that take a name, which must be a `names::` const.
const TRACER_METHODS: &[&str] = &["incr", "observe", "enter", "instant", "span", "span_with"];

pub(crate) fn is_loadish(name: &str) -> bool {
    if LOAD_WORD_EXEMPT.contains(&name) {
        return false;
    }
    let lower = name.to_ascii_lowercase();
    LOAD_WORDS.iter().any(|w| lower.contains(w))
}

/// Which rules apply lexically to `path` (workspace-relative,
/// `/`-separated). The semantic passes use the same scopes to decide which
/// files the lexical layer already owns.
pub(crate) struct Scope {
    pub(crate) nondeterminism: bool,
    pub(crate) panic_core: bool,
    pub(crate) checked_arith: bool,
    pub(crate) obs_names: bool,
    pub(crate) unsafe_audit: bool,
}

impl Scope {
    pub(crate) fn of(path: &str) -> Self {
        let p = path.replace('\\', "/");
        let in_core = p.contains("crates/lrb-core/src/");
        let in_engine = p.contains("crates/lrb-engine/src/");
        let in_serve = p.contains("crates/lrb-serve/src/");
        let in_crate_src = p.contains("crates/") && p.contains("/src/");
        Scope {
            nondeterminism: in_core || in_engine,
            // The daemon must degrade via Reject/Error responses, never
            // abort: a panic in lrb-serve is an availability bug.
            panic_core: in_core || in_serve,
            checked_arith: in_core,
            obs_names: in_crate_src
                && !p.contains("crates/lrb-obs/")
                && !p.contains("crates/lrb-lint/"),
            unsafe_audit: true,
        }
    }
}

/// Lint one file's source with the full analyzer (lexical rules *and* the
/// semantic passes, over a single-file virtual workspace). `path` decides
/// which rules apply; it should be workspace-relative (e.g.
/// `crates/lrb-core/src/greedy.rs`).
pub fn lint_source(path: &str, src: &str) -> Vec<Finding> {
    crate::lint_sources(&[(path, src)])
}

/// Run every lexical rule in `path`'s scope over one file's token scan.
pub(crate) fn lexical_findings(scan: &Scan<'_>, path: &str, findings: &mut Vec<Finding>) {
    let scope = Scope::of(path);
    if scope.nondeterminism {
        rule_no_nondeterminism(scan, path, findings);
    }
    if scope.panic_core {
        rule_no_panic_core(scan, path, findings);
    }
    if scope.checked_arith {
        rule_checked_arith(scan, path, findings);
    }
    if scope.obs_names {
        rule_obs_names(scan, path, findings);
    }
    if scope.unsafe_audit {
        rule_unsafe_audit(scan, path, findings);
    }
}

fn push(findings: &mut Vec<Finding>, rule: &'static str, path: &str, tok: &Tok, message: String) {
    findings.push(Finding {
        rule,
        path: path.to_string(),
        line: tok.line,
        col: tok.col,
        message,
    });
}

fn rule_no_nondeterminism(scan: &Scan<'_>, path: &str, findings: &mut Vec<Finding>) {
    for s in 0..scan.sig.len() {
        if scan.is_test(s) {
            continue;
        }
        let Some(t) = scan.sig_tok(s) else { continue };
        if t.kind != TokKind::Ident {
            continue;
        }
        match t.text.as_str() {
            "HashMap" | "HashSet" => push(
                findings,
                "no-nondeterminism",
                path,
                t,
                format!(
                    "{} in a solver crate: iteration order is nondeterministic; use \
                     BTreeMap/BTreeSet or index-keyed Vecs (allow only for keyed lookups \
                     that are never iterated)",
                    t.text
                ),
            ),
            "Instant" | "SystemTime"
                if scan.sig_text(s + 1) == "::" && scan.sig_text(s + 2) == "now" =>
            {
                push(
                    findings,
                    "no-nondeterminism",
                    path,
                    t,
                    format!(
                        "{}::now() in a solver crate: wall-clock reads must never \
                         influence results (allow only for telemetry)",
                        t.text
                    ),
                );
            }
            _ => {}
        }
    }
}

fn rule_no_panic_core(scan: &Scan<'_>, path: &str, findings: &mut Vec<Finding>) {
    for s in 0..scan.sig.len() {
        if scan.is_test(s) {
            continue;
        }
        let Some(t) = scan.sig_tok(s) else { continue };
        if t.kind != TokKind::Ident {
            continue;
        }
        let name = t.text.as_str();
        let is_method = matches!(name, "unwrap" | "expect")
            && s > 0
            && scan.sig_text(s - 1) == "."
            && scan.sig_text(s + 1) == "(";
        let is_macro = matches!(name, "panic" | "unreachable" | "todo" | "unimplemented")
            && scan.sig_text(s + 1) == "!";
        if is_method || is_macro {
            push(
                findings,
                "no-panic-core",
                path,
                t,
                format!(
                    "{name}{} in non-test lrb-core code: return Error or document the \
                     invariant with an allow",
                    if is_macro { "!" } else { "()" }
                ),
            );
        }
    }
}

fn rule_checked_arith(scan: &Scan<'_>, path: &str, findings: &mut Vec<Finding>) {
    for s in 0..scan.sig.len() {
        if scan.is_test(s) {
            continue;
        }
        let Some(t) = scan.sig_tok(s) else { continue };
        if t.kind != TokKind::Punct || !matches!(t.text.as_str(), "+" | "-" | "*") {
            continue;
        }
        // Binary use only: the previous token must be able to end an operand.
        let binary = s > 0
            && scan.sig_tok(s - 1).is_some_and(|p| {
                matches!(p.kind, TokKind::Ident | TokKind::Num)
                    || matches!(p.text.as_str(), ")" | "]")
            });
        if !binary {
            continue;
        }
        // u128/i128-widened arithmetic is exact by construction, and float
        // arithmetic cannot overflow-panic (its determinism is a separate
        // concern the nondeterminism rule owns).
        let widened = (s.saturating_sub(5)..s)
            .chain(s + 1..(s + 6).min(scan.sig.len()))
            .any(|k| matches!(scan.sig_text(k), "u128" | "i128" | "f64" | "f32"));
        if widened {
            continue;
        }
        // Nearest identifier on each side (skipping closing/opening brackets
        // and field dots) decides whether the operands look load-typed.
        let prev_ident = (s.saturating_sub(3)..s)
            .rev()
            .filter_map(|k| scan.sig_tok(k))
            .find(|t| t.kind == TokKind::Ident);
        let next_ident = (s + 1..(s + 4).min(scan.sig.len()))
            .filter_map(|k| scan.sig_tok(k))
            .find(|t| t.kind == TokKind::Ident);
        let loadish = prev_ident
            .into_iter()
            .chain(next_ident)
            .find(|t| is_loadish(&t.text));
        if let Some(operand) = loadish {
            push(
                findings,
                "checked-arith",
                path,
                t,
                format!(
                    "bare `{}` on load-typed operand `{}`: use checked_*/saturating_* \
                     (or widen through u128)",
                    t.text, operand.text
                ),
            );
        }
    }
}

fn rule_obs_names(scan: &Scan<'_>, path: &str, findings: &mut Vec<Finding>) {
    for s in 0..scan.sig.len() {
        if scan.is_test(s) {
            continue;
        }
        let Some(t) = scan.sig_tok(s) else { continue };
        let is_call = t.kind == TokKind::Ident
            && TRACER_METHODS.contains(&t.text.as_str())
            && s > 0
            && scan.sig_text(s - 1) == "."
            && scan.sig_text(s + 1) == "(";
        if !is_call {
            continue;
        }
        // Flag every string literal inside the call's parentheses.
        let mut depth = 0usize;
        let mut k = s + 1;
        while let Some(a) = scan.sig_tok(k) {
            match a.text.as_str() {
                "(" => depth += 1,
                ")" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            if a.kind == TokKind::Str {
                push(
                    findings,
                    "obs-name-registry",
                    path,
                    a,
                    format!(
                        "string literal {} passed to Tracer::{}; register it as a \
                         const in lrb_obs::names and reference that",
                        a.text, t.text
                    ),
                );
            }
            k += 1;
        }
    }
}

fn rule_unsafe_audit(scan: &Scan<'_>, path: &str, findings: &mut Vec<Finding>) {
    for s in 0..scan.sig.len() {
        if scan.is_test(s) {
            continue;
        }
        let Some(t) = scan.sig_tok(s) else { continue };
        if t.kind != TokKind::Ident || t.text != "unsafe" {
            continue;
        }
        // Walk the raw stream backwards over the comments directly above.
        let raw = scan.sig[s];
        let documented = scan.toks[..raw]
            .iter()
            .rev()
            .take_while(|p| p.is_comment())
            .any(|p| p.text.contains("SAFETY:"));
        if !documented {
            push(
                findings,
                "unsafe-audit",
                path,
                t,
                "`unsafe` without an immediately preceding `// SAFETY:` comment".to_string(),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CORE: &str = "crates/lrb-core/src/some_solver.rs";

    #[test]
    fn test_regions_are_masked() {
        let src = "fn live() { x.unwrap(); }\n\
                   #[cfg(test)]\nmod tests {\n fn t() { y.unwrap(); }\n}\n";
        let f = lint_source(CORE, src);
        assert_eq!(f.len(), 1);
        assert_eq!((f[0].line, f[0].rule), (1, "no-panic-core"));
    }

    #[test]
    fn cfg_not_test_stays_live() {
        let src = "#[cfg(not(test))]\nfn live() { x.unwrap(); }\n";
        let f = lint_source(CORE, src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn allow_needs_a_reason() {
        let src = "// lint: allow(no-panic-core)\nfn f() { x.unwrap(); }\n";
        let f = lint_source(CORE, src);
        assert!(f.iter().any(|f| f.rule == "allow-syntax"));
        assert!(f.iter().any(|f| f.rule == "no-panic-core"));
    }

    #[test]
    fn trailing_and_preceding_allows_suppress() {
        let src = "fn f() { x.unwrap(); } // lint: allow(no-panic-core, invariant: x is Some)\n\
                   // lint: allow(no-panic-core, same, on the next line)\n\
                   fn g() { y.unwrap(); }\n";
        assert_eq!(lint_source(CORE, src), vec![]);
    }

    #[test]
    fn allow_is_rule_specific() {
        let src = "// lint: allow(no-nondeterminism, wrong rule)\nfn f() { x.unwrap(); }\n";
        let f = lint_source(CORE, src);
        // The unwrap still fires, and the mismatched allow — suppressing
        // nothing — is itself a stale-suppression finding.
        assert_eq!(f.len(), 2);
        assert!(f.iter().any(|f| f.rule == "no-panic-core" && f.line == 2));
        assert!(f
            .iter()
            .any(|f| f.rule == "stale-suppression" && f.line == 1));
    }

    #[test]
    fn out_of_scope_paths_are_quiet() {
        let src = "fn f() { x.unwrap(); let m = HashMap::new(); }\n";
        assert_eq!(lint_source("crates/lrb-cli/src/commands.rs", src), vec![]);
    }
}
