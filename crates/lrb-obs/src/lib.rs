//! Zero-overhead instrumentation for the load-rebalancing workspace.
//!
//! One trait, [`Tracer`], carries counters, log2 histograms, spans with a
//! payload and a scheduling bit, and instants. Instrumented code takes a
//! generic `&T: Tracer`; three observers implement it:
//!
//! - [`NoopTracer`]: zero-sized with `ENABLED = false`, so monomorphized
//!   call sites compile to nothing. A default `lrb_core::Ctx` records
//!   through it (see `benches/noop_overhead.rs` in `lrb-bench`).
//! - [`AtomicRecorder`]: a thread-safe aggregate that freezes into a
//!   versioned [`Snapshot`] — counter totals, histogram percentiles
//!   (p50/p90/p99) and per-phase wall time — which the CLI exports with
//!   `--metrics` and renders with `--verbose`.
//! - [`ThreadTracer`]: one lane of a span timeline; a [`TraceCollector`]
//!   drains its lanes into a [`Trace`], which `lrb trace` exports.
//!
//! A parallel run hands each worker [`Tracer::fork`] of the caller's
//! observer and folds it back with [`Tracer::absorb`] after the join.

pub mod names;
mod recorder;
mod snapshot;
pub mod trace;

pub use recorder::AtomicRecorder;
pub use snapshot::{CounterSnapshot, HistogramSnapshot, PhaseSnapshot, Snapshot, SCHEMA_VERSION};
pub use trace::{
    NoopTracer, OpenSpan, SpanEvent, SpanGuard, SpanKind, ThreadTracer, Trace, TraceCollector,
    Tracer, TRACE_SCHEMA_VERSION,
};

/// One splitmix64 step: the workspace's one small deterministic mixer. It
/// hashes trace timelines, checksums lrb-serve's WAL records, digests its
/// state, and seeds schedule exploration and generated workloads; every
/// pinned hash and checksum depends on these exact constants.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomic_recorder_counts_and_times() {
        let r = AtomicRecorder::new();
        r.incr("moves", 2);
        r.incr("moves", 3);
        r.observe("size", 1);
        r.observe("size", 100);
        {
            let _t = r.span("phase");
        }
        let snap = r.snapshot();
        assert_eq!(snap.schema_version, SCHEMA_VERSION);
        assert_eq!(snap.counter("moves"), Some(5));
        let h = snap.histogram("size").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 101);
        assert_eq!(h.min, 1);
        assert_eq!(h.max, 100);
        let p = snap.phase("phase").unwrap();
        assert_eq!(p.calls, 1);
    }

    #[test]
    fn atomic_recorder_times_work_spans_and_drops_the_timeline() {
        let r = AtomicRecorder::new();
        {
            let _work = r.span_with("work", 3, false);
            let _claim = r.span_with("claim", 4, true);
            r.instant("mark", 5, false);
        }
        // A forked lane aggregates on its own and folds back on absorb.
        let lane = r.fork(1);
        lane.incr("n", 2);
        {
            let _work = lane.span("work");
        }
        r.absorb(lane);
        let snap = r.snapshot();
        assert_eq!(snap.phase("work").unwrap().calls, 2);
        assert_eq!(snap.phases.len(), 1, "{:?}", snap.phases);
        assert_eq!(snap.counter("n"), Some(2));
    }

    #[test]
    fn histogram_percentiles_are_bucket_upper_bounds() {
        let r = AtomicRecorder::new();
        // 100 observations of 1, so every percentile lands in bucket [1,2).
        for _ in 0..100 {
            r.observe("v", 1);
        }
        let h = r.snapshot().histogram("v").unwrap().clone();
        assert_eq!(h.p50, 1);
        assert_eq!(h.p90, 1);
        assert_eq!(h.p99, 1);
        // Skewed distribution: 90 small values, 10 large ones.
        let r = AtomicRecorder::new();
        for _ in 0..90 {
            r.observe("w", 2);
        }
        for _ in 0..10 {
            r.observe("w", 1000);
        }
        let h = r.snapshot().histogram("w").unwrap().clone();
        assert!(h.p50 <= 3, "p50 {} should sit in the small bucket", h.p50);
        assert!(h.p99 >= 512, "p99 {} should sit in the large bucket", h.p99);
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let r = AtomicRecorder::new();
        r.incr("a", 7);
        r.observe("b", 9);
        {
            let _t = r.span("c");
        }
        let snap = r.snapshot();
        let json = snap.to_json().unwrap();
        let back: Snapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back.schema_version, snap.schema_version);
        assert_eq!(back.counter("a"), Some(7));
        assert_eq!(back.histogram("b").unwrap().count, 1);
        assert_eq!(back.phase("c").unwrap().calls, 1);
    }

    #[test]
    fn atomic_recorder_is_thread_safe() {
        let r = AtomicRecorder::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for i in 0..1000u64 {
                        r.incr("n", 1);
                        r.observe("v", i);
                    }
                });
            }
        });
        let snap = r.snapshot();
        assert_eq!(snap.counter("n"), Some(4000));
        assert_eq!(snap.histogram("v").unwrap().count, 4000);
    }

    #[test]
    fn histogram_handles_zero_valued_observations() {
        let r = AtomicRecorder::new();
        for _ in 0..10 {
            r.observe("z", 0);
        }
        let h = r.snapshot().histogram("z").unwrap().clone();
        assert_eq!(h.count, 10);
        assert_eq!(h.sum, 0);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 0);
        // All ten land in bucket 0, and every percentile resolves to 0.
        assert_eq!(h.buckets, vec![10]);
        assert_eq!((h.p50, h.p90, h.p99), (0, 0, 0));
    }

    #[test]
    fn histogram_saturates_at_u64_max_instead_of_wrapping() {
        let r = AtomicRecorder::new();
        r.observe("big", u64::MAX);
        r.observe("big", u64::MAX);
        r.observe("big", 1);
        let h = r.snapshot().histogram("big").unwrap().clone();
        assert_eq!(h.count, 3);
        // Two u64::MAX observations would wrap the sum to u64::MAX - 1 under
        // fetch_add; the saturating accumulator pins it instead.
        assert_eq!(h.sum, u64::MAX);
        assert_eq!(h.min, 1);
        assert_eq!(h.max, u64::MAX);
        // u64::MAX lands in the top bucket [2^63, u64::MAX], whose upper
        // bound is what the bucket-resolution percentile reports.
        assert_eq!(h.p99, u64::MAX);
        // Merging saturated snapshots saturates too.
        let agg = AtomicRecorder::new();
        agg.merge(&r.snapshot());
        agg.merge(&r.snapshot());
        let merged = agg.snapshot().histogram("big").unwrap().clone();
        assert_eq!(merged.count, 6);
        assert_eq!(merged.sum, u64::MAX);
    }

    #[test]
    fn snapshot_merge_is_deterministic_across_thread_counts() {
        // The same 64 observations split round-robin across k per-worker
        // recorders and merged must produce one identical snapshot for
        // every k — the aggregation the engine does per worker.
        let values: Vec<u64> = (0..64u64).map(|i| i.wrapping_mul(37) % 1000).collect();
        let mut snapshots = Vec::new();
        for k in [1usize, 2, 4, 8] {
            let workers: Vec<AtomicRecorder> = (0..k).map(|_| AtomicRecorder::new()).collect();
            for (i, &v) in values.iter().enumerate() {
                workers[i % k].observe("lat", v);
                workers[i % k].incr("n", 1);
            }
            let agg = AtomicRecorder::new();
            for w in &workers {
                agg.merge(&w.snapshot());
            }
            snapshots.push(agg.snapshot());
        }
        for s in &snapshots[1..] {
            assert_eq!(
                s, &snapshots[0],
                "merged snapshot differs across thread counts"
            );
        }
        assert_eq!(snapshots[0].counter("n"), Some(64));
        assert_eq!(snapshots[0].histogram("lat").unwrap().count, 64);
    }

    #[test]
    fn merge_folds_counters_histograms_and_phases() {
        let a = AtomicRecorder::new();
        let b = AtomicRecorder::new();
        a.incr("x", 1);
        b.incr("x", 2);
        b.observe("h", 5);
        a.merge(&b.snapshot());
        let snap = a.snapshot();
        assert_eq!(snap.counter("x"), Some(3));
        assert_eq!(snap.histogram("h").unwrap().count, 1);
    }
}
