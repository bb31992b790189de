//! Metric names and the one-line JSON result.

use serde_json::{Number, Value};

/// End-to-end metrics, reported by every workload with `--trace 0`:
/// `(name, unit)`. What an "operation" is depends on the workload; see
/// `perfbench/README.md`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p95_ms", "ms"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("attributed_frac", "frac"),
    ("trace_overhead_frac", "frac"),
    ("core.self_frac", "frac"),
    ("engine.self_frac", "frac"),
    ("sim.self_frac", "frac"),
    ("serve.self_frac", "frac"),
    ("transport.self_frac", "frac"),
    ("core.mpart_solve_us", "us"),
    ("core.mpart_probes", "count"),
];

/// Operations attempted and failed, with the first failure's description.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations whose answers were checked.
    pub attempted: u64,
    /// Operations refused, errored, or failing a check.
    pub failed: u64,
    /// What went wrong first, for the error stream.
    pub first_failure: Option<String>,
}

impl Tally {
    /// Count one checked operation.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            self.first_failure.get_or_insert(e);
        }
    }

    /// Fold another tally in.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
    }
}

/// A workload run's result.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Checked operations.
    pub tally: Tally,
    /// The metrics for the JSON line, by name.
    pub metrics: Vec<(&'static str, f64)>,
    /// Per-workload numbers, by name, for the error stream and the layers
    /// file.
    pub detail: Vec<(String, f64)>,
}

/// A JSON number holding `v` with all its digits.
pub fn number(v: f64) -> Value {
    Value::Number(Number::F64(v))
}

/// The result line: `correct`, `attempted`, `failed` and every metric of
/// `names` with its unit. Fails when a metric is missing or not finite.
pub fn result_line(out: &Outcome, names: &[(&str, &str)]) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(names.len());
    for &(name, unit) in names {
        let value = out
            .metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite ({value})"));
        }
        metrics.push((
            name.to_string(),
            Value::Object(vec![
                ("value".to_string(), number(value)),
                ("unit".to_string(), Value::String(unit.to_string())),
            ]),
        ));
    }
    let doc = Value::Object(vec![
        (
            "correct".to_string(),
            Value::Bool(out.tally.failed == 0 && out.tally.attempted > 0),
        ),
        (
            "attempted".to_string(),
            Value::Number(Number::U64(out.tally.attempted)),
        ),
        (
            "failed".to_string(),
            Value::Number(Number::U64(out.tally.failed)),
        ),
        ("metrics".to_string(), Value::Object(metrics)),
    ]);
    serde_json::to_string(&doc).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names a `BENCHMARK.json` section lists, in order.
    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        doc[section]
            .as_array()
            .expect("section is an array")
            .iter()
            .map(|m| {
                (
                    m["name"].as_str().expect("name").to_string(),
                    m["unit"].as_str().expect("unit").to_string(),
                )
            })
            .collect()
    }

    fn printed(names: &[(&str, &str)]) -> Vec<(String, String)> {
        names
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn printed_names_match_benchmark_json() {
        assert_eq!(printed(END_TO_END), declared("end_to_end"));
        assert_eq!(printed(PER_LAYER), declared("per_layer"));
    }

    #[test]
    fn result_line_carries_every_metric() {
        let out = Outcome {
            tally: Tally {
                attempted: 3,
                failed: 0,
                first_failure: None,
            },
            metrics: END_TO_END.iter().map(|&(n, _)| (n, 1.25)).collect(),
            detail: Vec::new(),
        };
        let line = result_line(&out, END_TO_END).unwrap();
        let doc: Value = serde_json::from_str(&line).unwrap();
        assert_eq!(doc["correct"], true);
        assert_eq!(doc["attempted"], 3u64);
        for &(name, unit) in END_TO_END {
            assert_eq!(doc["metrics"][name]["unit"], unit);
            assert_eq!(doc["metrics"][name]["value"], 1.25);
        }
        let missing = Outcome::default();
        assert!(result_line(&missing, END_TO_END).is_err());
    }
}
