//! The daemon front-end: TCP listener, per-connection frame pumps, and
//! the single state thread that owns every farm.
//!
//! Durability ordering per batch: **admit → apply → WAL append+flush →
//! reply**, each request admitted and applied in queue order. No reply
//! of the state thread leaves before the append: an ack, a read or an
//! admission reject reports only state that is on disk, so a SIGKILL at
//! any point loses nothing a client was told; events applied in memory
//! but not yet logged were never reported, and recovery reconstructs
//! exactly the logged prefix. Rejections mutate nothing and are never
//! logged.
//!
//! Backpressure is explicit: the state queue is a bounded channel
//! (`queue_bound`), per-tenant in-flight requests are capped
//! (`tenant_pending`), and both trip a `Reject` response carrying a
//! Retry-After hint rather than blocking or dropping the connection.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread;

use lrb_obs::{names, AtomicRecorder, Tracer};

use crate::snapshot::{self, SnapshotError};
use crate::state::{ApplyOutcome, ServeConfig, ServeState};
use crate::wal::{LoggedEvent, Wal};
use crate::wire::{
    decode_request, encode_response, read_frame, write_frame, RejectCode, Request, Response,
    WireError,
};

/// Anything that can stop the daemon.
#[derive(Debug)]
pub enum ServeError {
    /// Filesystem or socket failure.
    Io(std::io::Error),
    /// Snapshot on disk is malformed or does not restore.
    Snapshot(SnapshotError),
    /// Durable state is internally inconsistent.
    State(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "io: {e}"),
            ServeError::Snapshot(e) => write!(f, "snapshot: {e}"),
            ServeError::State(d) => write!(f, "state: {d}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<SnapshotError> for ServeError {
    fn from(e: SnapshotError) -> Self {
        ServeError::Snapshot(e)
    }
}

/// The WAL's location inside a data directory.
pub fn wal_path(data_dir: &Path) -> PathBuf {
    data_dir.join("wal.log")
}

/// What recovery found on disk.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecoveryReport {
    /// A snapshot was loaded.
    pub had_snapshot: bool,
    /// WAL events replayed past the snapshot.
    pub replayed: u64,
    /// Torn bytes truncated from the WAL tail.
    pub torn_bytes: u64,
}

/// Rebuild state from the data directory: load the snapshot (if any),
/// open the WAL (truncating any torn tail), and replay the WAL suffix
/// past the snapshot's `applied` mark. Works on an empty directory, a
/// snapshot with no newer WAL records, or a bare WAL — the full
/// state ≡ replay-of-survivors contract.
///
/// # Errors
///
/// I/O failure, a malformed snapshot, a snapshot ahead of the WAL, or a
/// logged event that no longer applies (all indicate corruption beyond
/// what the torn-tail rule repairs).
pub fn recover(
    data_dir: &Path,
    cfg: ServeConfig,
) -> Result<(ServeState, Wal, RecoveryReport), ServeError> {
    std::fs::create_dir_all(data_dir)?;
    let (mut state, had_snapshot) = match snapshot::load(data_dir)? {
        Some(doc) => (ServeState::from_snapshot(cfg, &doc)?, true),
        None => (ServeState::new(cfg), false),
    };
    let (wal, scan) = Wal::open(&wal_path(data_dir))?;
    let already = state.applied();
    if (scan.events.len() as u64) < already {
        return Err(ServeError::State(format!(
            "snapshot applied={already} but WAL holds only {} records",
            scan.events.len()
        )));
    }
    let suffix = &scan.events[already as usize..];
    for chunk in suffix.chunks(cfg.batch_max.max(1)) {
        for outcome in state.apply_events(chunk) {
            if let ApplyOutcome::Failed { detail } = outcome {
                return Err(ServeError::State(format!("replay failed: {detail}")));
            }
        }
    }
    state.counters.replayed = suffix.len() as u64;
    state.counters.recoveries = u64::from(had_snapshot || !scan.events.is_empty());
    Ok((
        state,
        wal,
        RecoveryReport {
            had_snapshot,
            replayed: suffix.len() as u64,
            torn_bytes: scan.torn_bytes,
        },
    ))
}

/// A request in flight from a connection to the state thread.
struct Msg {
    req: Request,
    reply: mpsc::Sender<Response>,
    /// Shutdown only: disconnects once the connection has written the ack
    /// or failed, so [`Server::run`] can wait for that before returning.
    written: Option<Receiver<()>>,
}

/// The tenant a request would mutate (admission/backpressure scope).
fn mutating_tenant(req: &Request) -> Option<u64> {
    match *req {
        Request::Arrive { tenant, .. }
        | Request::Depart { tenant, .. }
        | Request::Rebalance { tenant, .. } => Some(tenant),
        _ => None,
    }
}

/// A bound, recovered daemon ready to serve.
pub struct Server {
    listener: TcpListener,
    state: ServeState,
    wal: Wal,
    data_dir: PathBuf,
    recovery: RecoveryReport,
    recorder: Arc<AtomicRecorder>,
}

impl Server {
    /// Recover state from `data_dir` and bind `addr` (use port 0 for an
    /// ephemeral port; read it back with [`Server::port`]).
    ///
    /// # Errors
    ///
    /// Recovery failure (see [`recover`]) or a bind error.
    pub fn bind(data_dir: &Path, addr: &str, cfg: ServeConfig) -> Result<Self, ServeError> {
        let (state, wal, recovery) = recover(data_dir, cfg)?;
        let recorder = Arc::new(AtomicRecorder::default());
        recorder.incr(names::SERVE_RECOVERIES, state.counters.recoveries);
        recorder.incr(names::SERVE_REPLAYED, state.counters.replayed);
        let listener = TcpListener::bind(addr)?;
        Ok(Server {
            listener,
            state,
            wal,
            data_dir: data_dir.to_path_buf(),
            recovery,
            recorder,
        })
    }

    /// The bound port.
    ///
    /// # Errors
    ///
    /// Socket introspection failure.
    pub fn port(&self) -> std::io::Result<u16> {
        Ok(self.listener.local_addr()?.port())
    }

    /// What recovery found at startup.
    pub fn recovery(&self) -> RecoveryReport {
        self.recovery
    }

    /// The recorder collecting `serve.*` counters.
    pub fn recorder(&self) -> Arc<AtomicRecorder> {
        Arc::clone(&self.recorder)
    }

    /// Serve until a `Shutdown` request arrives. Connection threads frame
    /// requests and enforce the queue and per-tenant bounds; one state
    /// thread admits, applies and logs them in queue order and replies
    /// once the batch is on disk. A final snapshot is written before
    /// returning, and every Shutdown requester's ack has been written to
    /// its connection (or the connection has failed), so a process that
    /// exits on return loses no ack.
    ///
    /// # Errors
    ///
    /// A WAL or snapshot write failure (the daemon cannot continue
    /// honoring its durability contract) or an accept-loop I/O error.
    pub fn run(self) -> Result<(), ServeError> {
        let Server {
            listener,
            state,
            wal,
            data_dir,
            recorder,
            ..
        } = self;
        let cfg = *state.config();
        let local = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let pending: Arc<Mutex<BTreeMap<u64, u64>>> = Arc::new(Mutex::new(BTreeMap::new()));
        let (tx, rx) = mpsc::sync_channel::<Msg>(cfg.queue_bound.max(1));

        let state_thread = {
            let shutdown = Arc::clone(&shutdown);
            let pending = Arc::clone(&pending);
            let recorder = Arc::clone(&recorder);
            thread::spawn(move || {
                let out = state_loop(state, wal, rx, &pending, &data_dir, &cfg, &recorder);
                shutdown.store(true, Ordering::SeqCst);
                // Unblock the acceptor so run() can return.
                drop(TcpStream::connect(local));
                out
            })
        };

        for incoming in listener.incoming() {
            if shutdown.load(Ordering::SeqCst) {
                break;
            }
            let stream = match incoming {
                Ok(s) => s,
                Err(_) => continue,
            };
            recorder.incr(names::SERVE_CONNECTIONS, 1);
            let tx = tx.clone();
            let pending = Arc::clone(&pending);
            let recorder = Arc::clone(&recorder);
            thread::spawn(move || connection_loop(stream, &tx, &pending, &cfg, &recorder));
        }
        drop(tx);
        let written = match state_thread.join() {
            Ok(out) => out?,
            Err(_) => return Err(ServeError::State("state thread panicked".into())),
        };
        for ack in written {
            // Ok or disconnected: either way the requester is done with it.
            let _ = ack.recv();
        }
        Ok(())
    }
}

/// Send one length-prefixed response on the connection's write half.
fn send_response(stream: &TcpStream, resp: &Response) -> Result<(), WireError> {
    let mut w = stream;
    write_frame(&mut w, &encode_response(resp))?;
    w.flush().map_err(|e| WireError::Io(e.to_string()))
}

/// Per-connection pump: read frames, enforce backpressure bounds, hand
/// requests to the state thread, relay replies. Frame-level errors
/// (malformed, truncated, oversized) answer with `Error` and close the
/// connection — after a framing error the stream offset is untrusted.
fn connection_loop(
    stream: TcpStream,
    tx: &SyncSender<Msg>,
    pending: &Mutex<BTreeMap<u64, u64>>,
    cfg: &ServeConfig,
    recorder: &AtomicRecorder,
) {
    loop {
        let frame = {
            let mut r = &stream;
            match read_frame(&mut r) {
                Ok(f) => f,
                Err(WireError::Closed) => return,
                Err(e) => {
                    recorder.incr(names::SERVE_FRAME_ERRORS, 1);
                    let _ = send_response(
                        &stream,
                        &Response::Error {
                            detail: format!("bad frame: {e}"),
                        },
                    );
                    return;
                }
            }
        };
        let req = match decode_request(&frame) {
            Ok(r) => r,
            Err(e) => {
                recorder.incr(names::SERVE_FRAME_ERRORS, 1);
                let _ = send_response(
                    &stream,
                    &Response::Error {
                        detail: format!("bad request: {e}"),
                    },
                );
                return;
            }
        };

        // Per-tenant in-flight bound (mutating requests only).
        let tenant = mutating_tenant(&req);
        if let Some(t) = tenant {
            let mut map = match pending.lock() {
                Ok(m) => m,
                Err(_) => return,
            };
            let slot = map.entry(t).or_insert(0);
            if *slot >= cfg.tenant_pending as u64 {
                drop(map);
                let busy = Response::Reject {
                    code: RejectCode::TenantBusy,
                    retry_after: 1,
                    detail: format!("tenant {t} has {} requests in flight", cfg.tenant_pending),
                };
                recorder.incr(names::SERVE_REJECTS, 1);
                if send_response(&stream, &busy).is_err() {
                    return;
                }
                continue;
            }
            *slot += 1;
        }

        // A Shutdown requester holds `written` until its ack is written.
        let (written, on_written) = match req {
            Request::Shutdown => {
                let (wtx, wrx) = mpsc::channel();
                (Some(wtx), Some(wrx))
            }
            _ => (None, None),
        };
        let (rtx, rrx) = mpsc::channel();
        match tx.try_send(Msg {
            req,
            reply: rtx,
            written: on_written,
        }) {
            Ok(()) => {}
            Err(TrySendError::Full(_)) => {
                if let (Some(t), Ok(mut map)) = (tenant, pending.lock()) {
                    if let Some(slot) = map.get_mut(&t) {
                        *slot = slot.saturating_sub(1);
                    }
                }
                let full = Response::Reject {
                    code: RejectCode::QueueFull,
                    retry_after: 1,
                    detail: format!("event queue at {}", cfg.queue_bound),
                };
                recorder.incr(names::SERVE_REJECTS, 1);
                if send_response(&stream, &full).is_err() {
                    return;
                }
                continue;
            }
            Err(TrySendError::Disconnected(_)) => {
                let _ = send_response(
                    &stream,
                    &Response::Error {
                        detail: "server shutting down".into(),
                    },
                );
                return;
            }
        }
        let resp = rrx.recv().unwrap_or(Response::Error {
            detail: "server shutting down".into(),
        });
        let sent = send_response(&stream, &resp);
        drop(written);
        if sent.is_err() {
            return;
        }
    }
}

/// Release one in-flight slot for a tenant.
fn release_pending(pending: &Mutex<BTreeMap<u64, u64>>, tenant: Option<u64>) {
    if let (Some(t), Ok(mut map)) = (tenant, pending.lock()) {
        if let Some(slot) = map.get_mut(&t) {
            *slot = slot.saturating_sub(1);
        }
    }
}

/// Answer a read-only request from current state.
fn answer_read(state: &ServeState, req: &Request) -> Response {
    match *req {
        Request::Query { tenant } => match state.farm(tenant) {
            Some(farm) => Response::TenantState {
                tenant,
                jobs: farm.num_jobs() as u64,
                makespan: farm.makespan(),
                banked: farm.bank().balance(),
                digest: state.tenant_digest(tenant).unwrap_or(0),
            },
            None => Response::Reject {
                code: RejectCode::UnknownTenant,
                retry_after: 0,
                detail: format!("tenant {tenant} unknown"),
            },
        },
        Request::Lookup { tenant, key } => match state.farm(tenant).and_then(|f| f.proc_of(key)) {
            Some(proc) => Response::Located { proc: proc as u64 },
            None => Response::NotFound,
        },
        Request::Stats => Response::ServerStats {
            tenants: state.num_tenants() as u64,
            applied: state.applied(),
            snapshots: state.counters.snapshots,
            recoveries: state.counters.recoveries,
            replayed: state.counters.replayed,
            epochs: state.epochs(),
            rejects: state.counters.rejects,
            degraded: state.counters.degraded,
        },
        _ => Response::Error {
            detail: "not a read request".into(),
        },
    }
}

/// Map an applied event's outcome to its wire response.
fn outcome_response(outcome: ApplyOutcome, seq: u64, recorder: &AtomicRecorder) -> Response {
    match outcome {
        ApplyOutcome::Applied => Response::Ack { seq },
        ApplyOutcome::Rebalanced {
            moves,
            makespan,
            degraded,
            tier,
        } => {
            if degraded {
                recorder.incr(names::SERVE_DEGRADED, 1);
            }
            Response::Rebalanced {
                seq,
                moves,
                makespan,
                degraded,
                tier: tier.to_string(),
            }
        }
        ApplyOutcome::Failed { detail } => Response::Error { detail },
    }
}

/// The state thread: drain a batch, then admit and apply each request in
/// queue order, answering reads from the state as it stands at that point.
/// The batch's admitted events are appended to the WAL and flushed, and only
/// then does every reply leave, in queue order, releasing its tenant's
/// in-flight slot. After a Shutdown it returns the requesters' `written`
/// receivers.
fn state_loop(
    mut state: ServeState,
    mut wal: Wal,
    rx: Receiver<Msg>,
    pending: &Mutex<BTreeMap<u64, u64>>,
    data_dir: &Path,
    cfg: &ServeConfig,
    recorder: &AtomicRecorder,
) -> Result<Vec<Receiver<()>>, ServeError> {
    let mut last_snapshot = state.applied();
    loop {
        let first = match rx.recv() {
            Ok(m) => m,
            Err(_) => return Ok(Vec::new()), // every sender gone: orderly teardown
        };
        let mut batch = vec![first];
        while batch.len() < cfg.batch_max.max(1) {
            match rx.try_recv() {
                Ok(m) => batch.push(m),
                Err(_) => break,
            }
        }

        let timer = recorder.span(names::SERVE_BATCH);
        let mut logged: Vec<LoggedEvent> = Vec::new();
        // (index in `batch`, reply); Shutdowns are answered last.
        let mut replies: Vec<(usize, Response)> = Vec::with_capacity(batch.len());
        for (i, msg) in batch.iter().enumerate() {
            match msg.req {
                Request::Shutdown => {}
                Request::Query { .. } | Request::Lookup { .. } | Request::Stats => {
                    replies.push((i, answer_read(&state, &msg.req)));
                }
                _ => match state.admit(&msg.req) {
                    Ok(ev) => {
                        let seq = state.applied() + 1;
                        for outcome in state.apply_events(std::slice::from_ref(&ev)) {
                            replies.push((i, outcome_response(outcome, seq, recorder)));
                        }
                        logged.push(ev);
                    }
                    Err(rej) => {
                        state.counters.rejects += 1;
                        recorder.incr(names::SERVE_REJECTS, 1);
                        let resp = Response::Reject {
                            code: rej.code,
                            retry_after: rej.retry_after,
                            detail: rej.detail,
                        };
                        replies.push((i, resp));
                    }
                },
            }
        }

        if !logged.is_empty() {
            wal.append_batch(&logged)?;
            recorder.incr(names::SERVE_WAL_APPENDS, 1);
            recorder.incr(names::SERVE_EVENTS, logged.len() as u64);
        }
        recorder.incr(names::SERVE_EPOCHS, 1);
        for (i, resp) in replies {
            release_pending(pending, mutating_tenant(&batch[i].req));
            let _ = batch[i].reply.send(resp);
        }
        drop(timer);

        let shutdown = batch.iter().any(|m| matches!(m.req, Request::Shutdown));
        let due = cfg.snapshot_every > 0
            && state.applied().saturating_sub(last_snapshot) >= cfg.snapshot_every;
        if due || shutdown {
            snapshot::write(data_dir, &state.capture())?;
            state.counters.snapshots += 1;
            recorder.incr(names::SERVE_SNAPSHOTS, 1);
            last_snapshot = state.applied();
        }
        if shutdown {
            let seq = state.applied();
            let mut written = Vec::new();
            for msg in &mut batch {
                if matches!(msg.req, Request::Shutdown) {
                    let _ = msg.reply.send(Response::Ack { seq });
                    written.extend(msg.written.take());
                }
            }
            return Ok(written);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{frame_request, BudgetSpec};
    use std::io::Write;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lrb-serve-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn roundtrip(stream: &TcpStream, req: &Request) -> Response {
        let mut w = stream;
        w.write_all(&frame_request(req)).unwrap();
        w.flush().unwrap();
        let mut r = stream;
        let frame = read_frame(&mut r).unwrap();
        crate::wire::decode_response(&frame).unwrap()
    }

    fn small_cfg() -> ServeConfig {
        ServeConfig {
            procs: 3,
            snapshot_every: 4,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn serve_accepts_events_and_survives_restart() {
        let dir = temp_dir("restart");
        let server = Server::bind(&dir, "127.0.0.1:0", small_cfg()).unwrap();
        let port = server.port().unwrap();
        let handle = thread::spawn(move || server.run());

        let stream = TcpStream::connect(("127.0.0.1", port)).unwrap();
        for k in 0..6u64 {
            let resp = roundtrip(
                &stream,
                &Request::Arrive {
                    tenant: 1,
                    key: k,
                    size: k + 3,
                    cost: 1,
                    proc: k % 3,
                },
            );
            assert!(matches!(resp, Response::Ack { .. }), "{resp:?}");
        }
        let resp = roundtrip(
            &stream,
            &Request::Rebalance {
                tenant: 1,
                budget: BudgetSpec::Moves(4),
            },
        );
        assert!(matches!(resp, Response::Rebalanced { .. }), "{resp:?}");
        let live_digest = match roundtrip(&stream, &Request::Query { tenant: 1 }) {
            Response::TenantState { digest, .. } => digest,
            other => panic!("{other:?}"),
        };
        assert!(matches!(
            roundtrip(&stream, &Request::Shutdown),
            Response::Ack { .. }
        ));
        handle.join().unwrap().unwrap();

        // Recovery reproduces the exact state.
        let (state, _wal, report) = recover(&dir, small_cfg()).unwrap();
        assert!(report.had_snapshot);
        assert_eq!(state.tenant_digest(1), Some(live_digest));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_frames_answer_error_and_close() {
        let dir = temp_dir("badframe");
        let server = Server::bind(&dir, "127.0.0.1:0", small_cfg()).unwrap();
        let port = server.port().unwrap();
        let recorder = server.recorder();
        let handle = thread::spawn(move || server.run());

        // Oversized declared length.
        let stream = TcpStream::connect(("127.0.0.1", port)).unwrap();
        {
            let mut w = &stream;
            w.write_all(&u32::MAX.to_be_bytes()).unwrap();
            w.flush().unwrap();
        }
        let mut r = &stream;
        let resp = crate::wire::decode_response(&read_frame(&mut r).unwrap()).unwrap();
        assert!(matches!(resp, Response::Error { .. }), "{resp:?}");
        // Server closed its end after the framing error.
        assert!(matches!(read_frame(&mut r), Err(WireError::Closed)));
        assert!(
            recorder
                .snapshot()
                .counter(names::SERVE_FRAME_ERRORS)
                .unwrap_or(0)
                >= 1
        );

        let stream = TcpStream::connect(("127.0.0.1", port)).unwrap();
        assert!(matches!(
            roundtrip(&stream, &Request::Shutdown),
            Response::Ack { .. }
        ));
        handle.join().unwrap().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Several connections ask for Shutdown at once. Each one that gets an
    /// Ack must already hold the start of it when `run` returns: a process
    /// exiting on return must not lose it. Requests that reach the queue
    /// after the final batch get an error instead.
    #[test]
    fn shutdown_acks_are_written_before_run_returns() {
        const REQUESTERS: usize = 6;
        let dir = temp_dir("shutdown-acks");
        let server = Server::bind(&dir, "127.0.0.1:0", small_cfg()).unwrap();
        let port = server.port().unwrap();
        let handle = thread::spawn(move || server.run());

        let streams: Vec<TcpStream> = (0..REQUESTERS)
            .map(|_| {
                let stream = TcpStream::connect(("127.0.0.1", port)).unwrap();
                // Served: the connection's pump is up before the Shutdowns.
                assert!(matches!(
                    roundtrip(&stream, &Request::Stats),
                    Response::ServerStats { .. }
                ));
                stream
            })
            .collect();
        let go = std::sync::Barrier::new(REQUESTERS);
        thread::scope(|scope| {
            for stream in &streams {
                let go = &go;
                scope.spawn(move || {
                    go.wait();
                    let mut w = stream;
                    w.write_all(&frame_request(&Request::Shutdown)).unwrap();
                    w.flush().unwrap();
                });
            }
        });
        handle.join().unwrap().unwrap();

        let mut acks = 0;
        for stream in &streams {
            let mut buf = [0u8; 1024];
            stream.set_nonblocking(true).unwrap();
            let ready = match stream.peek(&mut buf) {
                Ok(n) => n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => 0,
                Err(e) => panic!("peek: {e}"),
            };
            stream.set_nonblocking(false).unwrap();
            let mut r = stream;
            let frame = read_frame(&mut r).unwrap();
            match crate::wire::decode_response(&frame).unwrap() {
                // The ack's header segment leaves at once (the peer has
                // acknowledged everything before it); Nagle may hold the
                // payload until the peer's delayed ACK.
                Response::Ack { .. } => {
                    acks += 1;
                    assert!(ready >= 4, "ack not written before run returned");
                }
                Response::Error { .. } => {}
                other => panic!("{other:?}"),
            }
        }
        assert!(acks >= 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A read and a reject leave after the WAL append of the arrival they
    /// report, in queue order: a crash before the append cannot erase what
    /// they told the client.
    #[test]
    fn replies_leave_after_the_append_in_queue_order() {
        let dir = temp_dir("reply-order");
        let (state, wal, _) = recover(&dir, small_cfg()).unwrap();
        let arrive = Request::Arrive {
            tenant: 1,
            key: 7,
            size: 5,
            cost: 1,
            proc: 0,
        };
        let (tx, rx) = mpsc::sync_channel(8);
        let (reply, replies) = mpsc::channel();
        for req in [
            arrive.clone(),
            Request::Lookup { tenant: 1, key: 7 },
            arrive,
            Request::Shutdown,
        ] {
            tx.send(Msg {
                req,
                reply: reply.clone(),
                written: None,
            })
            .unwrap();
        }
        drop(tx);
        let pending = Mutex::new(BTreeMap::new());
        let recorder = AtomicRecorder::default();
        state_loop(state, wal, rx, &pending, &dir, &small_cfg(), &recorder).unwrap();

        let got: Vec<Response> = replies.try_iter().collect();
        assert_eq!(got.len(), 4, "{got:?}");
        assert_eq!(got[0], Response::Ack { seq: 1 });
        assert_eq!(got[1], Response::Located { proc: 0 });
        assert!(
            matches!(
                got[2],
                Response::Reject {
                    code: RejectCode::DuplicateKey,
                    ..
                }
            ),
            "{got:?}"
        );
        assert!(matches!(got[3], Response::Ack { .. }), "{got:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_tenant_and_key_reads() {
        let dir = temp_dir("reads");
        let server = Server::bind(&dir, "127.0.0.1:0", small_cfg()).unwrap();
        let port = server.port().unwrap();
        let handle = thread::spawn(move || server.run());

        let stream = TcpStream::connect(("127.0.0.1", port)).unwrap();
        assert!(matches!(
            roundtrip(&stream, &Request::Query { tenant: 42 }),
            Response::Reject {
                code: RejectCode::UnknownTenant,
                ..
            }
        ));
        assert!(matches!(
            roundtrip(&stream, &Request::Lookup { tenant: 42, key: 7 }),
            Response::NotFound
        ));
        assert!(matches!(
            roundtrip(&stream, &Request::Stats),
            Response::ServerStats { .. }
        ));
        assert!(matches!(
            roundtrip(&stream, &Request::Shutdown),
            Response::Ack { .. }
        ));
        handle.join().unwrap().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
