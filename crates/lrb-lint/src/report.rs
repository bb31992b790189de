//! `LINT_1.json` emission.
//!
//! The JSON is hand-rolled (this crate stays std-only) and deterministic:
//! keys in a fixed order, entries in (path, line, col) order, no
//! timestamps. Its schema is pinned from the consumer side: `lrb-cli`'s
//! golden tests decode a fresh report into a reader type that rejects
//! unknown and missing fields, and hold that type to the committed
//! `crates/lrb-cli/tests/golden/LINT_1.json`.

use crate::Analysis;

/// Version of the LINT report schema (`LINT_1.json`).
pub const LINT_SCHEMA_VERSION: u32 = 1;

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Serialize an [`Analysis`] as the `LINT_1.json` document.
pub fn report_json(a: &Analysis) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema_version\": {LINT_SCHEMA_VERSION},\n"));
    out.push_str(&format!("  \"files\": {},\n", a.files));

    out.push_str("  \"call_graph\": {\n");
    out.push_str(&format!("    \"edges\": {},\n", a.graph.edges));
    out.push_str(&format!("    \"functions\": {},\n", a.graph.functions));
    out.push_str(&format!(
        "    \"resolved_calls\": {},\n",
        a.graph.resolved_calls
    ));
    out.push_str(&format!(
        "    \"unresolved_calls\": {}\n",
        a.graph.unresolved_calls
    ));
    out.push_str("  },\n");

    out.push_str("  \"rules\": [\n");
    let rules = crate::rules::RULES;
    for (k, (name, _)) in rules.iter().enumerate() {
        let count = a.findings.iter().filter(|f| f.rule == *name).count();
        out.push_str(&format!(
            "    {{ \"rule\": \"{}\", \"findings\": {} }}{}\n",
            esc(name),
            count,
            if k + 1 < rules.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");

    if a.findings.is_empty() {
        out.push_str("  \"findings\": [],\n");
    } else {
        out.push_str("  \"findings\": [\n");
        for (k, f) in a.findings.iter().enumerate() {
            out.push_str(&format!(
                "    {{ \"rule\": \"{}\", \"path\": \"{}\", \"line\": {}, \"col\": {}, \
                 \"message\": \"{}\" }}{}\n",
                esc(f.rule),
                esc(&f.path),
                f.line,
                f.col,
                esc(&f.message),
                if k + 1 < a.findings.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
    }

    let stale = a.suppressions.iter().filter(|s| !s.used).count();
    out.push_str("  \"suppressions\": {\n");
    out.push_str(&format!("    \"total\": {},\n", a.suppressions.len()));
    out.push_str(&format!("    \"stale\": {stale},\n"));
    if a.suppressions.is_empty() {
        out.push_str("    \"sites\": []\n");
    } else {
        out.push_str("    \"sites\": [\n");
        for (k, s) in a.suppressions.iter().enumerate() {
            out.push_str(&format!(
                "      {{ \"rule\": \"{}\", \"path\": \"{}\", \"line\": {}, \"used\": {} }}{}\n",
                esc(&s.rule),
                esc(&s.path),
                s.line,
                s.used,
                if k + 1 < a.suppressions.len() {
                    ","
                } else {
                    ""
                }
            ));
        }
        out.push_str("    ]\n");
    }
    out.push_str("  }\n");
    out.push_str("}\n");
    out
}
