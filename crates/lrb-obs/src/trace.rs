//! The [`Tracer`] trait, its RAII [`SpanGuard`], the zero-sized
//! [`NoopTracer`] and the timeline observer [`ThreadTracer`]: a lock-free
//! (single-owner, `!Sync`) per-thread span buffer. A [`TraceCollector`]
//! drains its lanes into a versioned [`Trace`].
//!
//! Span timeline events carry wall-clock offsets read from a shared origin
//! `Instant`, so lanes share one timebase and a Chrome trace-event export
//! nests spans by containment. Clock reads are inherently nondeterministic;
//! determinism is recovered by [`Trace::determinism_hash`], an
//! order-independent multiset fingerprint over the *logical* content of
//! events (name, kind, value) that excludes all timestamps/durations and all
//! scheduling-lane events (`sched: true`) — the only events whose *count*
//! depends on thread interleaving. For a fixed seed the hash is therefore
//! identical across reruns and across thread counts.

use std::cell::{Cell, RefCell};
use std::time::Instant;

use crate::splitmix64;

/// Version of the trace event model exported as `TRACE_1.json`. Bump when
/// event fields change meaning.
pub const TRACE_SCHEMA_VERSION: u32 = 1;

/// Shape of a trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// A duration span (Chrome `"X"` complete event).
    Complete,
    /// A point-in-time marker (Chrome `"i"` instant event).
    Instant,
}

/// One buffered trace event. Timestamps are nanosecond offsets from the
/// collector's shared origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Span name — a `names::` const, never an inline literal.
    pub name: &'static str,
    /// Lane id: 0 is the main thread, workers are `1..=threads`.
    pub tid: u32,
    /// Per-lane sequence number; `(tid, seq)` identifies the event within
    /// its trace.
    pub seq: u64,
    /// Start offset from the trace origin, in nanoseconds.
    pub ts_nanos: u64,
    /// Duration in nanoseconds (0 for instants, >= 1 for closed spans).
    pub dur_nanos: u64,
    /// Complete span or instant marker.
    pub kind: SpanKind,
    /// Event payload: item index, worker id, epoch, steal depth, ...
    pub v: u64,
    /// `true` for scheduling-lane events (claim/steal/queue-wait), whose
    /// count depends on thread interleaving; excluded from the
    /// determinism hash.
    pub sched: bool,
}

/// A span opened by [`Tracer::enter`], handed back to [`Tracer::exit`].
/// Only this crate's observers build one, and `exit` consumes it, so a
/// span closes at most once.
#[derive(Debug)]
pub struct OpenSpan {
    /// Span name, as passed to `enter`.
    pub(crate) name: &'static str,
    /// Scheduling-lane bit, as passed to `enter`.
    pub(crate) sched: bool,
    /// The observer's own mark: a [`ThreadTracer`]'s event index, an
    /// [`AtomicRecorder`](crate::AtomicRecorder)'s start in nanoseconds.
    pub(crate) mark: u64,
}

/// The one instrumentation trait: counters, log2 histograms, spans with a
/// payload and a scheduling bit, and instants.
///
/// Instrumented code takes `&T` where `T: Tracer`; passing [`NoopTracer`]
/// monomorphizes every call to an empty inline function, so disabled
/// instrumentation costs nothing. A `sched: true` span or instant belongs
/// to the scheduling lane (claims, steals, queue waits): its count depends
/// on thread interleaving, so only timelines keep it.
pub trait Tracer: Sized {
    /// `false` for [`NoopTracer`]; lets call sites skip work that only
    /// exists to feed the observer (e.g. reading the clock).
    const ENABLED: bool;

    /// Add `by` to the named monotonic counter.
    fn incr(&self, counter: &'static str, by: u64);

    /// Record one observation into the named log2 histogram.
    fn observe(&self, histogram: &'static str, value: u64);

    /// Open a span. Must be matched by [`exit`](Tracer::exit); prefer the
    /// RAII [`span_with`](Tracer::span_with) wrapper.
    fn enter(&self, name: &'static str, v: u64, sched: bool) -> OpenSpan;

    /// Close a span [`enter`](Tracer::enter) opened.
    fn exit(&self, span: OpenSpan);

    /// Emit a point-in-time marker.
    fn instant(&self, name: &'static str, v: u64, sched: bool);

    /// A fresh lane of this observer for worker `lane` of a parallel run,
    /// to be handed back to [`absorb`](Tracer::absorb) after the join.
    fn fork(&self, lane: u32) -> Self;

    /// Fold a lane made by [`fork`](Tracer::fork) back into this observer.
    fn absorb(&self, lane: Self);

    /// RAII span with no payload.
    fn span(&self, name: &'static str) -> SpanGuard<'_, Self> {
        self.span_with(name, 0, false)
    }

    /// RAII span: enters now, exits when the guard drops.
    fn span_with(&self, name: &'static str, v: u64, sched: bool) -> SpanGuard<'_, Self> {
        SpanGuard {
            tracer: self,
            open: Self::ENABLED.then(|| self.enter(name, v, sched)),
        }
    }
}

/// RAII guard returned by [`Tracer::span_with`].
pub struct SpanGuard<'a, T: Tracer> {
    tracer: &'a T,
    open: Option<OpenSpan>,
}

impl<T: Tracer> Drop for SpanGuard<'_, T> {
    fn drop(&mut self) {
        if let Some(open) = self.open.take() {
            self.tracer.exit(open);
        }
    }
}

/// Observer that records nothing. Zero-sized; every method is an empty
/// `#[inline(always)]` body, so instrumented code paths compile down to the
/// un-instrumented equivalent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopTracer;

impl Tracer for NoopTracer {
    const ENABLED: bool = false;

    #[inline(always)]
    fn incr(&self, _counter: &'static str, _by: u64) {}

    #[inline(always)]
    fn observe(&self, _histogram: &'static str, _value: u64) {}

    #[inline(always)]
    fn enter(&self, name: &'static str, _v: u64, sched: bool) -> OpenSpan {
        OpenSpan {
            name,
            sched,
            mark: 0,
        }
    }

    #[inline(always)]
    fn exit(&self, _span: OpenSpan) {}

    #[inline(always)]
    fn instant(&self, _name: &'static str, _v: u64, _sched: bool) {}

    #[inline(always)]
    fn fork(&self, _lane: u32) -> Self {
        NoopTracer
    }

    #[inline(always)]
    fn absorb(&self, _lane: Self) {}
}

/// One lane of buffered span events, owned by exactly one thread at a time.
///
/// `Send` but `!Sync` (interior `RefCell`/`Cell` state): the engine hands
/// each worker its own forked lane, mirroring how per-worker `Scratch`
/// arenas are distributed, so the hot path needs no locks or atomics.
pub struct ThreadTracer {
    tid: u32,
    origin: Instant,
    events: RefCell<Vec<SpanEvent>>,
    seq: Cell<u64>,
}

impl ThreadTracer {
    /// New empty lane with the given id, sharing the collector's origin.
    pub fn new(tid: u32, origin: Instant) -> Self {
        ThreadTracer {
            tid,
            origin,
            events: RefCell::new(Vec::new()),
            seq: Cell::new(0),
        }
    }

    /// Lane id (0 = main thread).
    pub fn tid(&self) -> u32 {
        self.tid
    }

    fn now_nanos(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn push(&self, name: &'static str, kind: SpanKind, v: u64, sched: bool) -> usize {
        // Trace timestamps are excluded from the determinism hash.
        let ts_nanos = self.now_nanos();
        let seq = self.seq.get();
        self.seq.set(seq + 1);
        let mut events = self.events.borrow_mut();
        events.push(SpanEvent {
            name,
            tid: self.tid,
            seq,
            ts_nanos,
            dur_nanos: 0,
            kind,
            v,
            sched,
        });
        events.len() - 1
    }

    fn into_events(self) -> Vec<SpanEvent> {
        self.events.into_inner()
    }
}

/// The timeline observer: spans and instants become events in this lane;
/// counters and histograms are not span-shaped and are dropped.
impl Tracer for ThreadTracer {
    const ENABLED: bool = true;

    #[inline(always)]
    fn incr(&self, _counter: &'static str, _by: u64) {}

    #[inline(always)]
    fn observe(&self, _histogram: &'static str, _value: u64) {}

    fn enter(&self, name: &'static str, v: u64, sched: bool) -> OpenSpan {
        let index = self.push(name, SpanKind::Complete, v, sched);
        OpenSpan {
            name,
            sched,
            mark: index as u64,
        }
    }

    fn exit(&self, span: OpenSpan) {
        let now = self.now_nanos();
        if let Some(ev) = self.events.borrow_mut().get_mut(span.mark as usize) {
            // Clamp to >= 1ns so a closed span is distinguishable from an
            // instant even under coarse clocks.
            ev.dur_nanos = now.saturating_sub(ev.ts_nanos).max(1);
        }
    }

    fn instant(&self, name: &'static str, v: u64, sched: bool) {
        self.push(name, SpanKind::Instant, v, sched);
    }

    /// A new lane with tid `lane` on this lane's timebase. Its sequence
    /// starts at this lane's event count, which already holds every lane
    /// absorbed so far, so a tid forked again for a later batch never
    /// reuses a `(tid, seq)` pair.
    fn fork(&self, lane: u32) -> Self {
        let child = ThreadTracer::new(lane, self.origin);
        child.seq.set(self.events.borrow().len() as u64);
        child
    }

    /// Append the lane's events, which keep their own tid and sequence.
    fn absorb(&self, lane: Self) {
        self.events.borrow_mut().extend(lane.into_events());
    }
}

/// Owns a main lane and worker lanes, all sharing a single origin instant.
pub struct TraceCollector {
    lanes: Vec<ThreadTracer>,
}

impl TraceCollector {
    /// Collector with a main lane (tid 0) and `workers.max(1)` worker lanes
    /// (tids `1..=workers`). The worker lanes serve only callers that run
    /// their own threads; the batch engine forks its workers' lanes from
    /// the lane it is handed, so engine callers pass `1` and observe
    /// through [`main`](TraceCollector::main).
    pub fn new(workers: usize) -> Self {
        // Trace timebase origin; timestamps never feed the determinism hash.
        let origin = Instant::now();
        let lanes = (0..=workers.max(1))
            .map(|tid| ThreadTracer::new(tid as u32, origin))
            .collect();
        TraceCollector { lanes }
    }

    /// The main-thread lane.
    pub fn main(&self) -> &ThreadTracer {
        &self.lanes[0]
    }

    /// Exclusive access to the worker lanes (tids `1..=workers`), for a
    /// caller that runs its own threads. The engine never reads them: its
    /// workers run on lanes forked from the lane the caller passes in.
    pub fn workers_mut(&mut self) -> &mut [ThreadTracer] {
        &mut self.lanes[1..]
    }

    /// Drain every lane into a finished [`Trace`].
    pub fn finish(self, scenario: &str, seed: u64, threads: usize, solver: &str) -> Trace {
        let mut events = Vec::new();
        for lane in self.lanes {
            events.extend(lane.into_events());
        }
        Trace {
            schema_version: TRACE_SCHEMA_VERSION,
            scenario: scenario.to_string(),
            seed,
            threads,
            solver: solver.to_string(),
            events,
        }
    }
}

/// A finished trace: every lane's events plus run identity, ready for the
/// CLI's Chrome trace-event export.
#[derive(Debug, Clone)]
pub struct Trace {
    /// [`TRACE_SCHEMA_VERSION`].
    pub schema_version: u32,
    /// Scenario label (e.g. `smoke_ladder`).
    pub scenario: String,
    /// Workload seed.
    pub seed: u64,
    /// Requested engine thread count.
    pub threads: usize,
    /// Solver label.
    pub solver: String,
    /// All events from all lanes, main lane first.
    pub events: Vec<SpanEvent>,
}

fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl Trace {
    /// Order-independent multiset fingerprint of the trace's logical
    /// content: per-event hashes of `(name, kind, v)` combined with a
    /// commutative wrapping sum. Timestamps/durations (clock reads) and
    /// scheduling-lane events (`sched: true`, whose count depends on thread
    /// interleaving) are excluded, so for a fixed seed the hash is identical
    /// across reruns *and* across thread counts.
    pub fn determinism_hash(&self) -> u64 {
        let mut acc = splitmix64(u64::from(self.schema_version));
        for ev in self.events.iter().filter(|e| !e.sched) {
            let kind_tag = match ev.kind {
                SpanKind::Complete => 1u64,
                SpanKind::Instant => 2u64,
            };
            let mut h = fnv64(ev.name.as_bytes());
            h = splitmix64(h ^ kind_tag.rotate_left(17));
            h = splitmix64(h ^ ev.v.rotate_left(32));
            acc = acc.wrapping_add(splitmix64(h));
        }
        acc
    }

    /// Events with the given name.
    pub fn events_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a SpanEvent> {
        self.events.iter().filter(move |e| e.name == name)
    }

    /// Total duration across all spans with the given name.
    pub fn total_dur_nanos(&self, name: &str) -> u64 {
        self.events_named(name).map(|e| e.dur_nanos).sum()
    }

    /// Fraction of the `container` spans' total wall time covered by the
    /// `leaves` spans (clamped to 1.0; 1.0 when the container never ran).
    /// The engine attribution check uses `engine.worker` as the container
    /// and claim/queue-wait/solve as the leaves.
    pub fn attributed_fraction(&self, container: &str, leaves: &[&str]) -> f64 {
        let total = self.total_dur_nanos(container);
        if total == 0 {
            return 1.0;
        }
        let covered: u64 = leaves.iter().map(|l| self.total_dur_nanos(l)).sum();
        (covered as f64 / total as f64).min(1.0)
    }

    /// Number of complete spans.
    pub fn span_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| e.kind == SpanKind::Complete)
            .count()
    }

    /// Number of instant events.
    pub fn instant_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| e.kind == SpanKind::Instant)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_tracer_is_zero_sized_and_disabled() {
        assert_eq!(std::mem::size_of::<NoopTracer>(), 0);
        const { assert!(!<NoopTracer as Tracer>::ENABLED) };
        let t = NoopTracer;
        {
            let _s = t.span_with("s", 1, false);
        }
        t.instant("i", 2, true);
        t.incr("c", 1);
        t.observe("h", 1);
        t.absorb(t.fork(1));
    }

    #[test]
    fn spans_nest_and_close_in_raii_order() {
        let c = TraceCollector::new(1);
        {
            let t = c.main();
            let _outer = t.span_with("outer", 10, false);
            {
                let _inner = t.span_with("inner", 11, false);
            }
            t.instant("mark", 12, false);
        }
        let trace = c.finish("test", 0, 1, "none");
        assert_eq!(trace.events.len(), 3);
        let outer = trace.events_named("outer").next().unwrap();
        let inner = trace.events_named("inner").next().unwrap();
        let mark = trace.events_named("mark").next().unwrap();
        assert_eq!(outer.seq, 0);
        assert_eq!(inner.seq, 1);
        assert!(outer.dur_nanos >= inner.dur_nanos);
        // The inner span's interval is contained in the outer span's.
        assert!(inner.ts_nanos >= outer.ts_nanos);
        assert!(
            inner.ts_nanos + inner.dur_nanos <= outer.ts_nanos + outer.dur_nanos,
            "inner span must end within the outer span"
        );
        assert_eq!(mark.kind, SpanKind::Instant);
        assert_eq!(mark.dur_nanos, 0);
        assert_eq!(trace.span_count(), 2);
        assert_eq!(trace.instant_count(), 1);
    }

    #[test]
    fn forked_lanes_keep_their_tid_and_fold_back_into_the_parent() {
        let c = TraceCollector::new(1);
        let main = c.main();
        {
            let _outer = main.span("outer");
            let lanes: Vec<ThreadTracer> = std::thread::scope(|s| {
                let handles: Vec<_> = (1..=2)
                    .map(|w| main.fork(w))
                    .map(|lane| {
                        s.spawn(move || {
                            {
                                let _w = lane.span_with("w", u64::from(lane.tid()), false);
                                lane.incr("dropped", 1);
                            }
                            lane
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            for lane in lanes {
                main.absorb(lane);
            }
        }
        let trace = c.finish("test", 0, 2, "none");
        let tids: Vec<u32> = trace.events_named("w").map(|e| e.tid).collect();
        assert_eq!(tids, vec![1, 2]);
        // Forked lanes number their events from the parent's count at the
        // fork (the open "outer" span).
        assert!(trace
            .events_named("w")
            .all(|e| e.seq == 1 && e.dur_nanos >= 1));
        // The parent's span stays open across the absorb and closes last,
        // on the same timebase as the forked lanes' spans it contains.
        let outer = trace.events_named("outer").next().unwrap();
        assert_eq!((outer.tid, outer.seq), (0, 0));
        for w in trace.events_named("w") {
            assert!(w.ts_nanos >= outer.ts_nanos);
            assert!(w.ts_nanos + w.dur_nanos <= outer.ts_nanos + outer.dur_nanos);
        }
        assert_eq!(trace.events.len(), 3);
    }

    #[test]
    fn determinism_hash_ignores_time_order_and_sched_events() {
        let build = |shuffle: bool, extra_sched: usize| {
            let mut c = TraceCollector::new(2);
            let names: &[&'static str] = &["alpha", "beta", "gamma"];
            let order: Vec<usize> = if shuffle {
                vec![2, 0, 1]
            } else {
                vec![0, 1, 2]
            };
            for (lane, &i) in order.iter().enumerate() {
                // Spread the same logical events across different lanes in
                // a different order; the multiset is unchanged.
                let t = &c.workers_mut()[lane % 2];
                let _s = t.span_with(names[i], i as u64, false);
            }
            for _ in 0..extra_sched {
                c.main().instant("steal", 3, true);
            }
            c.finish("test", 7, 2, "none").determinism_hash()
        };
        assert_eq!(build(false, 0), build(true, 0));
        // Scheduling-lane noise must not move the hash.
        assert_eq!(build(false, 0), build(false, 5));
        // But a different logical multiset must.
        let c = TraceCollector::new(2);
        {
            let _s = c.main().span_with("delta", 9, false);
        }
        assert_ne!(
            build(false, 0),
            c.finish("test", 7, 2, "none").determinism_hash()
        );
    }

    #[test]
    fn attribution_covers_leaf_spans() {
        let mut c = TraceCollector::new(1);
        {
            let t = &c.workers_mut()[0];
            let _w = t.span_with("worker", 0, true);
            for i in 0..50u64 {
                let _s = t.span_with("solve", i, false);
                std::hint::black_box(i.wrapping_mul(0x9e37_79b9));
            }
        }
        let trace = c.finish("test", 0, 1, "none");
        let frac = trace.attributed_fraction("worker", &["solve"]);
        assert!(frac > 0.0 && frac <= 1.0, "fraction {frac} out of range");
        // A container that never ran attributes trivially.
        assert_eq!(trace.attributed_fraction("absent", &["solve"]), 1.0);
    }

    #[test]
    fn collector_lanes_are_distinct_and_share_a_timebase() {
        let mut c = TraceCollector::new(3);
        assert_eq!(c.main().tid(), 0);
        let tids: Vec<u32> = c.workers_mut().iter().map(|t| t.tid()).collect();
        assert_eq!(tids, vec![1, 2, 3]);
        // Worker lanes are Send: hand them to scoped threads like Scratches.
        std::thread::scope(|s| {
            for t in c.workers_mut() {
                s.spawn(move || {
                    let _span = t.span_with("w", u64::from(t.tid()), true);
                });
            }
        });
        let trace = c.finish("test", 0, 3, "none");
        assert_eq!(trace.events_named("w").count(), 3);
    }
}
