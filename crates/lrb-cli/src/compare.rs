//! Schema-aware bench regression comparison (`lrb bench --baseline`).
//!
//! Compares a fresh (or `--compare`-loaded) bench report against a pinned
//! baseline file, per thread-curve point: throughput may not drop and p99
//! latency may not rise by more than the threshold (default 20%). A
//! regression renders the delta table and then fails the command, so the
//! binary exits nonzero and CI can gate on it.
//!
//! Baselines at schema v3 (before the `oversubscribed` field) are accepted
//! and read as "nothing oversubscribed"; v4 points marked oversubscribed on
//! either side are shown but never gate — wall-clock noise from scheduler
//! contention is not a regression signal.

use serde::{Deserialize, Serialize};

use crate::bench::BenchReport;

/// Default allowed relative change before a point counts as regressed.
pub const DEFAULT_THRESHOLD: f64 = 0.2;

/// The part of a bench report the comparator reads: its scenario and
/// thread curve. Lenient on purpose (unknown fields pass, `oversubscribed`
/// defaults to `false`) so that v3 baselines, which predate
/// `oversubscribed`, still load; the full v4 schema is [`BenchReport`].
#[derive(Debug, Clone, Deserialize)]
pub struct Curve {
    /// 3 or 4.
    pub schema_version: u32,
    /// Ladder the report ran.
    pub scenario: String,
    /// One point per thread count.
    pub thread_curve: Vec<CurvePoint>,
}

/// One thread-curve point as the comparator reads it.
#[derive(Debug, Clone, Deserialize)]
pub struct CurvePoint {
    /// Engine worker threads.
    pub threads: usize,
    /// Solves per second.
    pub throughput_per_sec: f64,
    /// p99 solve latency, nanoseconds.
    pub p99_solve_nanos: f64,
    /// Absent (hence `false`) in v3 reports.
    #[serde(default)]
    pub oversubscribed: bool,
}

impl Curve {
    /// Decode a bench report file's text, accepting schema v3 or v4.
    pub fn parse(text: &str, ctx: &str) -> Result<Self, String> {
        let curve: Curve = serde_json::from_str(text).map_err(|e| format!("{ctx}: {e}"))?;
        if !matches!(curve.schema_version, 3 | 4) {
            return Err(format!(
                "{ctx}: schema_version {}, expected 3 or 4",
                curve.schema_version
            ));
        }
        Ok(curve)
    }

    /// A live report, read exactly as its written file would be.
    pub fn of(report: &BenchReport) -> Result<Self, String> {
        Curve::from_value(&report.to_value()).map_err(|e| e.to_string())
    }
}

/// A baseline point and its current counterpart.
#[derive(Debug, Clone)]
pub struct PointDelta {
    /// The baseline point.
    pub base: CurvePoint,
    /// The current point at the same thread count.
    pub current: CurvePoint,
    /// Whether either side marked the point oversubscribed (non-gating).
    pub oversubscribed: bool,
    /// Whether this point regressed beyond the threshold (always `false`
    /// for oversubscribed points).
    pub regressed: bool,
}

/// The full comparison: per-point deltas plus the verdict.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Scenario both reports ran.
    pub scenario: String,
    /// Relative threshold the verdict used.
    pub threshold: f64,
    /// Matched points, in baseline order.
    pub rows: Vec<PointDelta>,
}

impl Comparison {
    /// Whether any gating point regressed.
    pub fn regressed(&self) -> bool {
        self.rows.iter().any(|r| r.regressed)
    }
}

/// Compare `current` against `baseline` at `threshold`.
///
/// Points are matched by thread count; a baseline point with no current
/// counterpart is an error (the curve shrank), extra current points are
/// ignored (the curve may grow).
pub fn compare(baseline: &Curve, current: &Curve, threshold: f64) -> Result<Comparison, String> {
    if !(0.0..1.0).contains(&threshold) {
        return Err(format!(
            "--threshold {threshold}: expected a fraction in [0, 1)"
        ));
    }
    if baseline.scenario != current.scenario {
        return Err(format!(
            "scenario mismatch: baseline ran {}, current ran {}",
            baseline.scenario, current.scenario
        ));
    }
    let mut rows = Vec::with_capacity(baseline.thread_curve.len());
    for b in &baseline.thread_curve {
        let c = current
            .thread_curve
            .iter()
            .find(|c| c.threads == b.threads)
            .ok_or_else(|| {
                format!(
                    "baseline has a {}-thread point but the current report does not",
                    b.threads
                )
            })?;
        let oversubscribed = b.oversubscribed || c.oversubscribed;
        let tp_regressed = c.throughput_per_sec < b.throughput_per_sec * (1.0 - threshold);
        let p99_regressed = c.p99_solve_nanos > b.p99_solve_nanos * (1.0 + threshold);
        rows.push(PointDelta {
            base: b.clone(),
            current: c.clone(),
            oversubscribed,
            regressed: !oversubscribed && (tp_regressed || p99_regressed),
        });
    }
    Ok(Comparison {
        scenario: baseline.scenario.clone(),
        threshold,
        rows,
    })
}

/// Render the per-rung delta table plus the verdict line.
pub fn render(cmp: &Comparison) -> String {
    let mut out = format!(
        "baseline comparison — {} (threshold {:.0}%)\n",
        cmp.scenario,
        cmp.threshold * 100.0
    );
    out.push_str(
        "threads  base_tp   new_tp   tp_delta  base_p99_us  new_p99_us  p99_delta  verdict\n",
    );
    for r in &cmp.rows {
        let pct = |new: f64, base: f64| {
            if base == 0.0 {
                0.0
            } else {
                (new / base - 1.0) * 100.0
            }
        };
        out.push_str(&format!(
            "{:>6}{}  {:>7.0}  {:>7.0}  {:>+7.1}%  {:>11.1}  {:>10.1}  {:>+8.1}%  {}\n",
            r.base.threads,
            if r.oversubscribed { '*' } else { ' ' },
            r.base.throughput_per_sec,
            r.current.throughput_per_sec,
            pct(r.current.throughput_per_sec, r.base.throughput_per_sec),
            r.base.p99_solve_nanos / 1e3,
            r.current.p99_solve_nanos / 1e3,
            pct(r.current.p99_solve_nanos, r.base.p99_solve_nanos),
            if r.regressed {
                "REGRESSED"
            } else if r.oversubscribed {
                "ok (non-gating)"
            } else {
                "ok"
            },
        ));
    }
    out.push_str(if cmp.regressed() {
        "verdict: REGRESSION\n"
    } else {
        "verdict: ok\n"
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(version: u64, scenario: &str, points: &[(u64, f64, f64, bool)]) -> Curve {
        let body: Vec<String> = points
            .iter()
            .map(|(t, tp, p99, over)| {
                let over_field = if version >= 4 {
                    format!(", \"oversubscribed\": {over}")
                } else {
                    String::new()
                };
                format!(
                    r#"{{"threads": {t}, "throughput_per_sec": {tp},
                        "p99_solve_nanos": {p99}{over_field}}}"#
                )
            })
            .collect();
        let text = format!(
            r#"{{"schema_version": {version}, "scenario": "{scenario}",
                "thread_curve": [{}]}}"#,
            body.join(",")
        );
        Curve::parse(&text, "test").unwrap()
    }

    #[test]
    fn identical_reports_pass() {
        let a = doc(4, "smoke_ladder", &[(1, 1000.0, 5000.0, false)]);
        let cmp = compare(&a, &a, DEFAULT_THRESHOLD).unwrap();
        assert!(!cmp.regressed());
        assert!(render(&cmp).contains("verdict: ok"));
    }

    #[test]
    fn throughput_drop_and_p99_rise_both_gate() {
        let base = doc(4, "smoke_ladder", &[(1, 1000.0, 5000.0, false)]);
        let slow = doc(4, "smoke_ladder", &[(1, 700.0, 5000.0, false)]);
        assert!(compare(&base, &slow, 0.2).unwrap().regressed());
        let laggy = doc(4, "smoke_ladder", &[(1, 1000.0, 6500.0, false)]);
        assert!(compare(&base, &laggy, 0.2).unwrap().regressed());
        // Within threshold: fine.
        let ok = doc(4, "smoke_ladder", &[(1, 850.0, 5500.0, false)]);
        assert!(!compare(&base, &ok, 0.2).unwrap().regressed());
    }

    #[test]
    fn oversubscribed_points_never_gate() {
        let base = doc(4, "smoke_ladder", &[(8, 1000.0, 5000.0, true)]);
        let bad = doc(4, "smoke_ladder", &[(8, 100.0, 90000.0, true)]);
        let cmp = compare(&base, &bad, 0.2).unwrap();
        assert!(!cmp.regressed());
        assert!(render(&cmp).contains("non-gating"));
    }

    #[test]
    fn v3_baselines_are_accepted() {
        let old = doc(3, "smoke_ladder", &[(1, 1000.0, 5000.0, false)]);
        let new = doc(4, "smoke_ladder", &[(1, 950.0, 5100.0, false)]);
        assert!(!compare(&old, &new, 0.2).unwrap().regressed());
        let v99 = r#"{"schema_version": 99, "scenario": "smoke_ladder", "thread_curve": []}"#;
        let err = Curve::parse(v99, "baseline").unwrap_err();
        assert!(err.contains("schema_version 99"), "{err}");
    }

    #[test]
    fn mismatches_are_errors() {
        let a = doc(4, "smoke_ladder", &[(1, 1000.0, 5000.0, false)]);
        let b = doc(4, "standard_ladder", &[(1, 1000.0, 5000.0, false)]);
        assert!(compare(&a, &b, 0.2).unwrap_err().contains("scenario"));
        let shrunk = doc(4, "smoke_ladder", &[]);
        assert!(compare(&a, &shrunk, 0.2)
            .unwrap_err()
            .contains("1-thread point"));
        assert!(compare(&a, &a, 1.5).is_err());
    }
}
