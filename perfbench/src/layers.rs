//! Per-layer attribution for traced runs.
//!
//! Spans are recorded from the benchmark's own code around each public call
//! into lrb-core, lrb-engine, lrb-sim and lrb-serve, on lrb-obs
//! [`TraceCollector`] lanes. A span's *self time* is its duration minus the
//! part covered by spans nested inside it on the same lane; a layer's self
//! time is the sum over its spans (the span name's prefix up to the first
//! `.` names the layer). Work a layer delegates internally, out of the
//! benchmark's sight, counts toward the outermost call the benchmark timed,
//! except where the call returns the split itself: engine calls report
//! per-item solve time, which [`Attribution::move_nanos`] shifts to core.

use std::collections::BTreeMap;
use std::path::Path;

use lrb_cli::trace::{chrome_json, TraceRun};
use lrb_engine::BatchReport;
use lrb_obs::{SpanKind, Trace};

/// Span names, one per public call the benchmark times.
pub mod span {
    /// `lrb_engine::solve_batch`.
    pub const ENGINE_SOLVE_BATCH: &str = "engine.solve_batch";
    /// `lrb_engine::StreamEngine::solve_epoch`.
    pub const ENGINE_SOLVE_EPOCH: &str = "engine.solve_epoch";
    /// `lrb_core::mpartition::rebalance`.
    pub const CORE_MPARTITION: &str = "core.mpartition";
    /// `lrb_core::cost_partition::rebalance`.
    pub const CORE_COST_PARTITION: &str = "core.cost_partition";
    /// `OnlineRebalancer::arrive` / `depart` over one epoch's churn.
    pub const CORE_ONLINE_CHURN: &str = "core.online_churn";
    /// `OnlineRebalancer::begin_rebalance` over every farm.
    pub const CORE_ONLINE_BEGIN: &str = "core.online_begin";
    /// `OnlineRebalancer::instance` over every farm.
    pub const CORE_ONLINE_INSTANCE: &str = "core.online_instance";
    /// `OnlineRebalancer::commit_assignment` over every farm.
    pub const CORE_ONLINE_COMMIT: &str = "core.online_commit";
    /// `lrb_sim::OnlineWorkload::epoch_events` over every farm.
    pub const SIM_EPOCH_EVENTS: &str = "sim.epoch_events";
    /// `lrb_serve::wire::decode_request`.
    pub const SERVE_WIRE_DECODE: &str = "serve.wire_decode";
    /// `lrb_serve::ServeState::admit`.
    pub const SERVE_ADMIT: &str = "serve.admit";
    /// `lrb_serve::ServeState::apply_events`.
    pub const SERVE_APPLY: &str = "serve.apply";
    /// `lrb_serve::wal::Wal::append_batch`.
    pub const SERVE_WAL_APPEND: &str = "serve.wal_append";
    /// `lrb_serve::snapshot::write(state.capture())`.
    pub const SERVE_SNAPSHOT: &str = "serve.snapshot";
    /// A read answered from `ServeState` (farm lookup or tenant digest).
    pub const SERVE_READ: &str = "serve.read";
    /// `lrb_serve::wire::encode_response`.
    pub const SERVE_WIRE_ENCODE: &str = "serve.wire_encode";
    /// One client request/response round trip over loopback TCP.
    pub const CLIENT_ROUND_TRIP: &str = "client.round_trip";
}

/// Layers reported as self-time shares, in output order.
pub const LAYERS: &[&str] = &["core", "engine", "sim", "serve", "transport"];

/// Self time per span name over every lane of `trace`.
pub fn self_nanos(trace: &Trace) -> BTreeMap<&'static str, u64> {
    let mut lanes: BTreeMap<u32, Vec<&lrb_obs::SpanEvent>> = BTreeMap::new();
    for ev in trace.events.iter().filter(|e| e.kind == SpanKind::Complete) {
        lanes.entry(ev.tid).or_default().push(ev);
    }
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    for events in lanes.values_mut() {
        // Parents sort before the children they contain.
        events.sort_by_key(|e| (e.ts_nanos, std::cmp::Reverse(e.dur_nanos)));
        // Open spans: (end, self time accumulated so far, name).
        let mut stack: Vec<(u64, u64, &'static str)> = Vec::new();
        let close = |stack: &mut Vec<(u64, u64, &'static str)>,
                     out: &mut BTreeMap<&'static str, u64>| {
            if let Some((_, own, name)) = stack.pop() {
                *out.entry(name).or_default() += own;
            }
        };
        for ev in events.iter() {
            while stack.last().is_some_and(|&(end, _, _)| end <= ev.ts_nanos) {
                close(&mut stack, &mut out);
            }
            if let Some(parent) = stack.last_mut() {
                parent.1 = parent.1.saturating_sub(ev.dur_nanos);
            }
            stack.push((ev.ts_nanos + ev.dur_nanos, ev.dur_nanos, ev.name));
        }
        while !stack.is_empty() {
            close(&mut stack, &mut out);
        }
    }
    out
}

/// Per-layer self time against an end-to-end wall time.
#[derive(Debug, Default)]
pub struct Attribution {
    /// Self nanoseconds per layer.
    pub layers: BTreeMap<&'static str, u64>,
    /// End-to-end wall time the layers are measured against.
    pub e2e_nanos: u64,
}

impl Attribution {
    /// Attribution of every span in `trace` (except `excluded` names, which
    /// lie outside the end-to-end wall) against `e2e_nanos`.
    pub fn from_trace(trace: &Trace, e2e_nanos: u64, excluded: &[&str]) -> Self {
        let mut layers: BTreeMap<&'static str, u64> = BTreeMap::new();
        for (name, nanos) in self_nanos(trace) {
            if excluded.contains(&name) {
                continue;
            }
            let layer = match name.split('.').next() {
                Some("client") => "transport",
                Some(l) => LAYERS.iter().copied().find(|&x| x == l).unwrap_or("other"),
                None => "other",
            };
            *layers.entry(layer).or_default() += nanos;
        }
        Attribution { layers, e2e_nanos }
    }

    /// Shift `nanos` of self time from layer `from` to layer `to`, for
    /// splits a call reports itself (engine per-item solve time).
    pub fn move_nanos(&mut self, from: &'static str, to: &'static str, nanos: u64) {
        let slot = self.layers.entry(from).or_default();
        let moved = nanos.min(*slot);
        *slot -= moved;
        *self.layers.entry(to).or_default() += moved;
    }

    /// A layer's self time as a share of the end-to-end wall time.
    pub fn frac(&self, layer: &str) -> f64 {
        self.layers.get(layer).copied().unwrap_or(0) as f64 / self.e2e_nanos.max(1) as f64
    }

    /// Share of the end-to-end wall time covered by named layers (the
    /// transport remainder is derived, not measured, so it is excluded).
    pub fn attributed(&self) -> f64 {
        let covered: u64 = self
            .layers
            .iter()
            .filter(|(l, _)| LAYERS.contains(l) && **l != "transport")
            .map(|(_, n)| n)
            .sum();
        covered as f64 / self.e2e_nanos.max(1) as f64
    }

    /// The per-layer metrics every workload reports with `--trace 1`.
    pub fn metrics(
        &self,
        trace_overhead: f64,
        mpart_us: f64,
        mpart_probes: f64,
    ) -> Vec<(&'static str, f64)> {
        let mut out = vec![
            ("attributed_frac", self.attributed()),
            ("trace_overhead_frac", trace_overhead),
        ];
        for (name, layer) in [
            ("core.self_frac", "core"),
            ("engine.self_frac", "engine"),
            ("sim.self_frac", "sim"),
            ("serve.self_frac", "serve"),
            ("transport.self_frac", "transport"),
        ] {
            out.push((name, self.frac(layer)));
        }
        out.push(("core.mpart_solve_us", mpart_us));
        out.push(("core.mpart_probes", mpart_probes));
        out
    }
}

/// Engine telemetry summed over calls, from the counts each
/// [`BatchReport`] returns.
#[derive(Debug, Default, Clone)]
pub struct EngineTally {
    /// Calls made.
    pub calls: u64,
    /// Items solved.
    pub items: u64,
    /// Summed call wall time.
    pub wall_nanos: u64,
    /// Summed per-item solve time.
    pub solve_nanos: u64,
    /// Summed `workers × wall`.
    pub worker_wall_nanos: u64,
    /// Summed `solve / workers`: the wall time the solves account for.
    pub solve_share_nanos: u64,
    /// Items stolen across stripes.
    pub steals: u64,
    /// Ladder cache hits.
    pub ladder_hits: u64,
    /// Ladder cache misses.
    pub ladder_misses: u64,
}

impl EngineTally {
    /// Fold one call's report and wall time in.
    pub fn add(&mut self, report: &BatchReport, wall_nanos: u64) {
        let solve: u64 = report.solve_nanos.iter().sum();
        let workers = report.workers.max(1) as u64;
        self.calls += 1;
        self.items += report.outcomes.len() as u64;
        self.wall_nanos += wall_nanos;
        self.solve_nanos += solve;
        self.worker_wall_nanos += workers * wall_nanos;
        self.solve_share_nanos += (solve / workers).min(wall_nanos);
        self.steals += report.steals;
        self.ladder_hits += report.ladder_hits;
        self.ladder_misses += report.ladder_misses;
    }

    /// Fold another tally in.
    pub fn merge(&mut self, other: &EngineTally) {
        self.calls += other.calls;
        self.items += other.items;
        self.wall_nanos += other.wall_nanos;
        self.solve_nanos += other.solve_nanos;
        self.worker_wall_nanos += other.worker_wall_nanos;
        self.solve_share_nanos += other.solve_share_nanos;
        self.steals += other.steals;
        self.ladder_hits += other.ladder_hits;
        self.ladder_misses += other.ladder_misses;
    }

    /// The engine metrics of the per-layer detail.
    pub fn detail(&self, inflation_2t: f64) -> Vec<(String, f64)> {
        let calls = self.calls.max(1) as f64;
        let lookups = (self.ladder_hits + self.ladder_misses).max(1) as f64;
        vec![
            (
                "engine.call_wall_us".into(),
                self.wall_nanos as f64 / calls / 1e3,
            ),
            (
                "engine.overhead_us".into(),
                (self.wall_nanos - self.solve_share_nanos) as f64 / calls / 1e3,
            ),
            (
                "engine.busy_frac".into(),
                self.solve_nanos as f64 / self.worker_wall_nanos.max(1) as f64,
            ),
            ("engine.solve_inflation_2t".into(), inflation_2t),
            (
                "engine.steals_per_item".into(),
                self.steals as f64 / self.items.max(1) as f64,
            ),
            (
                "engine.ladder_hit_ratio".into(),
                self.ladder_hits as f64 / lookups,
            ),
        ]
    }
}

/// Mean per-item solve time of `two` over that of `one` (the same items
/// solved on two workers and on one).
pub fn inflation(two: &BatchReport, one: &BatchReport) -> f64 {
    let sum = |r: &BatchReport| r.solve_nanos.iter().sum::<u64>() as f64;
    sum(two) / sum(one).max(1.0)
}

/// Write the finished trace as Perfetto-loadable Chrome trace-event JSON,
/// and the per-layer numbers as a flat JSON object, under `dir`.
pub fn write_outputs(
    dir: &Path,
    workload: &str,
    trace: Trace,
    attributed: f64,
    detail: &[(String, f64)],
) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let seed = trace.seed;
    let run = TraceRun { trace, attributed };
    let json = serde_json::to_string(&chrome_json(&run)).map_err(|e| e.to_string())?;
    let path = dir.join(format!("{workload}-seed{seed}.trace.json"));
    std::fs::write(&path, json).map_err(|e| format!("write {}: {e}", path.display()))?;
    let obj = serde_json::Value::Object(
        detail
            .iter()
            .map(|(k, v)| (k.clone(), crate::report::number(*v)))
            .collect(),
    );
    let text = serde_json::to_string_pretty(&obj).map_err(|e| e.to_string())?;
    let path = dir.join(format!("{workload}-seed{seed}.layers.json"));
    std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrb_obs::{TraceCollector, Tracer};

    #[test]
    fn self_time_subtracts_nested_children() {
        let c = TraceCollector::new(1);
        {
            let t = c.main();
            let _outer = t.span_with(span::ENGINE_SOLVE_EPOCH, 0, false);
            let _inner = t.span_with(span::CORE_MPARTITION, 0, false);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let trace = c.finish("t", 0, 1, "t");
        let total: u64 = trace.events.iter().map(|e| e.dur_nanos).max().unwrap();
        let own = self_nanos(&trace);
        let sum: u64 = own.values().sum();
        assert_eq!(sum, total, "self times must partition the outer span");
        assert!(own[span::CORE_MPARTITION] >= 2_000_000);
        let a = Attribution::from_trace(&trace, total, &[]);
        assert!((a.attributed() - 1.0).abs() < 1e-9);
    }
}
