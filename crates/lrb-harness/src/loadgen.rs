//! Load generator and chaos harness for the `lrb-serve` daemon.
//!
//! Three layers:
//!
//! * [`Client`] — one connection with timeouts, reconnects, and
//!   jittered-backoff retries; the retry policy is at-least-once, so the
//!   caller must treat `DuplicateKey` (arrive) and `UnknownKey` (depart)
//!   after a transport failure as delayed acks.
//! * [`run_loadgen`] — drive many tenants concurrently from worker
//!   threads, keeping a per-key ledger of what the server acknowledged,
//!   then verify the ledger against the server (`Lookup` containment)
//!   and collect per-tenant digests.
//! * [`run_chaos_drill`] — spawn the real server binary, drive load,
//!   SIGKILL it at seeded-random points (mid-epoch, and mid-snapshot
//!   when `snapshot_every` is small), restart, and assert **no acked
//!   event is ever lost**; the final cycle shuts down cleanly and
//!   compares live digests against an offline [`lrb_serve::recover`] of
//!   the same data directory — the end-to-end replay-equivalence gate.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write as _};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use lrb_serve::state::splitmix64;
use lrb_serve::wire::{
    decode_response, encode_request, read_frame, write_frame, BudgetSpec, RejectCode, Request,
    Response, WireError,
};
use lrb_serve::ServeConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Transport/protocol failures the client can surface.
#[derive(Debug)]
pub enum ClientError {
    /// Could not reach or keep a connection after every retry.
    Unreachable(String),
    /// The server answered with a protocol-level `Error` frame.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Unreachable(d) => write!(f, "unreachable: {d}"),
            ClientError::Protocol(d) => write!(f, "protocol: {d}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// Client policy: timeouts, retry budget, and backoff shape.
#[derive(Debug, Clone, Copy)]
pub struct ClientConfig {
    /// Per-read socket timeout.
    pub read_timeout: Duration,
    /// Transport attempts per request (connect + send + receive).
    pub retries: u32,
    /// Base backoff; attempt `k` waits `base * 2^k` plus jitter, capped.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
    /// Jitter seed (deterministic per client).
    pub seed: u64,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            read_timeout: Duration::from_millis(2_000),
            retries: 8,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(300),
            seed: 0,
        }
    }
}

/// One resilient connection to the daemon.
pub struct Client {
    addr: String,
    cfg: ClientConfig,
    stream: Option<TcpStream>,
    rng: StdRng,
    /// Transport-level retries performed over this client's lifetime.
    pub retries_used: u64,
}

impl Client {
    /// A client for `addr` (e.g. `127.0.0.1:4800`); connects lazily.
    pub fn new(addr: &str, cfg: ClientConfig) -> Self {
        Client {
            addr: addr.to_string(),
            rng: StdRng::seed_from_u64(cfg.seed ^ 0x10ad_9e57),
            cfg,
            stream: None,
            retries_used: 0,
        }
    }

    fn backoff(&mut self, attempt: u32) {
        let base = self.cfg.backoff_base.as_millis() as u64;
        let cap = self.cfg.backoff_cap.as_millis() as u64;
        let exp = base.saturating_mul(1u64 << attempt.min(10)).min(cap);
        let jitter = self.rng.gen_range(0..=exp.max(1));
        thread::sleep(Duration::from_millis(exp / 2 + jitter / 2));
    }

    fn connect(&mut self) -> std::io::Result<&TcpStream> {
        if self.stream.is_none() {
            let s = TcpStream::connect(&self.addr)?;
            s.set_read_timeout(Some(self.cfg.read_timeout))?;
            s.set_write_timeout(Some(self.cfg.read_timeout))?;
            s.set_nodelay(true)?;
            self.stream = Some(s);
        }
        Ok(self.stream.as_ref().expect("just set"))
    }

    /// Send one request and wait for its response, reconnecting and
    /// retrying (jittered backoff) on transport failure. At-least-once:
    /// a request may have been applied even when this returns an error
    /// or after an internal resend.
    ///
    /// # Errors
    ///
    /// [`ClientError::Unreachable`] once the retry budget is spent.
    pub fn call(&mut self, req: &Request) -> Result<Response, ClientError> {
        let payload = encode_request(req);
        let mut last = String::new();
        for attempt in 0..self.cfg.retries {
            if attempt > 0 {
                self.retries_used += 1;
                self.backoff(attempt - 1);
            }
            let stream = match self.connect() {
                Ok(s) => s,
                Err(e) => {
                    last = e.to_string();
                    continue;
                }
            };
            let io = (|| -> Result<Response, WireError> {
                let mut w = stream;
                write_frame(&mut w, &payload)?;
                w.flush().map_err(|e| WireError::Io(e.to_string()))?;
                let mut r = stream;
                let frame = read_frame(&mut r)?;
                decode_response(&frame)
            })();
            match io {
                Ok(resp) => return Ok(resp),
                Err(e) => {
                    last = e.to_string();
                    self.stream = None; // reconnect on next attempt
                }
            }
        }
        Err(ClientError::Unreachable(last))
    }

    /// Like [`Client::call`], but also retries retryable `Reject`s
    /// (queue full, tenant busy, work exhausted) with backoff.
    ///
    /// # Errors
    ///
    /// Transport exhaustion, or the last retryable rejection if the
    /// budget runs out.
    pub fn call_patient(&mut self, req: &Request) -> Result<Response, ClientError> {
        for attempt in 0..self.cfg.retries {
            match self.call(req)? {
                Response::Reject {
                    code,
                    retry_after,
                    detail,
                } if code.retryable() && retry_after > 0 => {
                    if attempt + 1 == self.cfg.retries {
                        return Ok(Response::Reject {
                            code,
                            retry_after,
                            detail,
                        });
                    }
                    self.backoff(attempt);
                }
                resp => return Ok(resp),
            }
        }
        Err(ClientError::Unreachable("retry budget spent".into()))
    }
}

/// Ledger verdict for one key the generator touched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum KeyState {
    /// Arrive was acked (directly or via duplicate-after-retry) and no
    /// depart was acked: the key MUST exist on the server.
    AckedLive,
    /// A depart was acked: the key MUST NOT exist.
    AckedGone,
    /// A transport failure left the request's fate unknown; no claim.
    InDoubt,
}

/// Load-generation parameters.
#[derive(Debug, Clone)]
pub struct LoadGenConfig {
    /// Server address.
    pub addr: String,
    /// Tenant farms to drive.
    pub tenants: u64,
    /// Events attempted per tenant.
    pub events_per_tenant: u64,
    /// Processor count the server was started with (arrival targets).
    pub procs: u64,
    /// Worker threads (tenants are partitioned round-robin).
    pub workers: usize,
    /// Workload seed.
    pub seed: u64,
    /// Namespace for keys (chaos cycles use it to keep keys unique).
    pub key_space: u64,
    /// Client policy.
    pub client: ClientConfig,
    /// Also open a raw connection and send malformed/truncated frames,
    /// asserting the server answers `Error` and stays up.
    pub inject_frame_errors: bool,
}

/// What a load-generation pass observed.
#[derive(Debug, Clone, Default)]
pub struct LoadGenReport {
    /// Events the server acknowledged durably.
    pub acked: u64,
    /// Admission rejections observed.
    pub rejected: u64,
    /// Transport retries spent.
    pub retries: u64,
    /// Requests whose fate is unknown (killed mid-call).
    pub in_doubt: u64,
    /// Acked-live keys the server no longer has — MUST be empty.
    pub lost: Vec<(u64, u64)>,
    /// Acked-departed keys the server still has — MUST be empty.
    pub ghosts: Vec<(u64, u64)>,
    /// Per-tenant digests observed after the run.
    pub digests: Vec<(u64, u64)>,
}

/// One worker's share of the workload.
struct WorkerOutcome {
    ledger: BTreeMap<(u64, u64), KeyState>,
    acked: u64,
    rejected: u64,
    retries: u64,
}

/// Drive one tenant-partition of deterministic load; returns the ledger.
/// `abort` flips when the chaos driver has killed the server — workers
/// then stop instead of burning their whole retry budget.
#[allow(clippy::too_many_lines)]
fn worker(cfg: &LoadGenConfig, worker_id: usize, abort: &AtomicBool) -> WorkerOutcome {
    let mut client = Client::new(
        &cfg.addr,
        ClientConfig {
            seed: cfg.client.seed ^ (worker_id as u64) << 17,
            ..cfg.client
        },
    );
    let mut ledger: BTreeMap<(u64, u64), KeyState> = BTreeMap::new();
    let mut live: Vec<(u64, u64)> = Vec::new();
    let mut acked = 0u64;
    let mut rejected = 0u64;
    let mut h = splitmix64(cfg.seed ^ (worker_id as u64).wrapping_mul(0x9e37));

    'outer: for tenant in ((worker_id as u64)..cfg.tenants).step_by(cfg.workers.max(1)) {
        for n in 0..cfg.events_per_tenant {
            if abort.load(Ordering::Relaxed) {
                break 'outer;
            }
            h = splitmix64(h);
            let req = match h % 10 {
                0..=6 => {
                    let key = (cfg.key_space << 40) | (tenant << 20) | n;
                    Request::Arrive {
                        tenant,
                        key,
                        size: h % 40 + 1,
                        cost: h % 3 + 1,
                        proc: h % cfg.procs.max(1),
                    }
                }
                7 if !live.is_empty() => {
                    let (t, k) = live[(h as usize) % live.len()];
                    Request::Depart { tenant: t, key: k }
                }
                _ => Request::Rebalance {
                    tenant,
                    budget: BudgetSpec::Moves(h % 4 + 1),
                },
            };
            match client.call_patient(&req) {
                Ok(resp) => match (&req, resp) {
                    (Request::Arrive { tenant, key, .. }, Response::Ack { .. }) => {
                        acked += 1;
                        live.push((*tenant, *key));
                        ledger.insert((*tenant, *key), KeyState::AckedLive);
                    }
                    // Duplicate after a resend: the original write landed.
                    (
                        Request::Arrive { tenant, key, .. },
                        Response::Reject {
                            code: RejectCode::DuplicateKey,
                            ..
                        },
                    ) => {
                        acked += 1;
                        live.push((*tenant, *key));
                        ledger.insert((*tenant, *key), KeyState::AckedLive);
                    }
                    (Request::Depart { tenant, key }, Response::Ack { .. }) => {
                        acked += 1;
                        live.retain(|&e| e != (*tenant, *key));
                        ledger.insert((*tenant, *key), KeyState::AckedGone);
                    }
                    // Unknown after a resend: the original depart landed.
                    (
                        Request::Depart { tenant, key },
                        Response::Reject {
                            code: RejectCode::UnknownKey,
                            ..
                        },
                    ) => {
                        acked += 1;
                        live.retain(|&e| e != (*tenant, *key));
                        ledger.insert((*tenant, *key), KeyState::AckedGone);
                    }
                    (Request::Rebalance { .. }, Response::Rebalanced { .. }) => acked += 1,
                    (_, Response::Reject { .. }) => rejected += 1,
                    (_, Response::Error { .. }) => {
                        // Protocol error (e.g. shutdown race): stop clean.
                        break 'outer;
                    }
                    _ => {}
                },
                Err(_) => {
                    // Fate unknown: record arrives/departs as in-doubt.
                    match req {
                        Request::Arrive { tenant, key, .. } | Request::Depart { tenant, key } => {
                            ledger.entry((tenant, key)).or_insert(KeyState::InDoubt);
                        }
                        _ => {}
                    }
                    break 'outer;
                }
            }
        }
    }
    WorkerOutcome {
        ledger,
        acked,
        rejected,
        retries: client.retries_used,
    }
}

/// Open a raw connection and send garbage: truncated frames, oversized
/// declared lengths, unknown tags. The server must answer `Error` (or
/// close) and keep serving well-formed traffic afterwards.
fn inject_frame_errors(addr: &str, seed: u64) -> u64 {
    let mut injected = 0u64;
    let mut h = seed;
    let cases: Vec<Vec<u8>> = vec![
        // Declared length far past MAX_FRAME.
        u32::MAX.to_be_bytes().to_vec(),
        // Declared 16 bytes, deliver 3, then close.
        {
            let mut v = 16u32.to_be_bytes().to_vec();
            v.extend_from_slice(&[1, 2, 3]);
            v
        },
        // Well-framed payload with an unknown tag.
        {
            let payload = [0x7f_u8, 0, 0, 0];
            let mut v = (payload.len() as u32).to_be_bytes().to_vec();
            v.extend_from_slice(&payload);
            v
        },
        // Zero-length frame (empty payload → truncated tag).
        0u32.to_be_bytes().to_vec(),
    ];
    for case in cases {
        h = splitmix64(h);
        let Ok(stream) = TcpStream::connect(addr) else {
            continue;
        };
        let _ = stream.set_read_timeout(Some(Duration::from_millis(1_000)));
        let mut w = &stream;
        if w.write_all(&case).is_err() {
            continue;
        }
        let _ = w.flush();
        // The server either answers an Error frame or closes; both are
        // clean. What it must never do is die — the caller's next
        // well-formed request proves liveness.
        let mut r = &stream;
        let _ = read_frame(&mut r);
        injected += 1;
    }
    injected
}

/// Run the load pass: drive events from workers, then verify the ledger
/// (every acked-live key present, every acked-gone key absent) and
/// collect per-tenant digests.
///
/// # Errors
///
/// [`ClientError`] when the server is unreachable for verification.
pub fn run_loadgen(cfg: &LoadGenConfig) -> Result<LoadGenReport, ClientError> {
    let abort = AtomicBool::new(false);
    let (report, ledgers) = drive(cfg, &abort);
    verify(cfg, report, &ledgers)
}

/// Drive the workload only (no verification). Exposed separately so the
/// chaos drill can kill the server mid-drive and verify after restart.
fn drive(
    cfg: &LoadGenConfig,
    abort: &AtomicBool,
) -> (LoadGenReport, BTreeMap<(u64, u64), KeyState>) {
    let outcomes: Vec<WorkerOutcome> = thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.workers.max(1))
            .map(|w| scope.spawn(move || worker(cfg, w, abort)))
            .collect();
        handles
            .into_iter()
            .map(|handle| match handle.join() {
                Ok(outcome) => outcome,
                Err(_) => WorkerOutcome {
                    ledger: BTreeMap::new(),
                    acked: 0,
                    rejected: 0,
                    retries: 0,
                },
            })
            .collect()
    });
    let mut report = LoadGenReport::default();
    let mut ledger: BTreeMap<(u64, u64), KeyState> = BTreeMap::new();
    for out in outcomes {
        report.acked += out.acked;
        report.rejected += out.rejected;
        report.retries += out.retries;
        report.in_doubt += out
            .ledger
            .values()
            .filter(|&&s| s == KeyState::InDoubt)
            .count() as u64;
        ledger.extend(out.ledger);
    }
    if cfg.inject_frame_errors {
        inject_frame_errors(&cfg.addr, cfg.seed);
    }
    (report, ledger)
}

/// Check every ledger claim against the server and collect digests.
fn verify(
    cfg: &LoadGenConfig,
    mut report: LoadGenReport,
    ledger: &BTreeMap<(u64, u64), KeyState>,
) -> Result<LoadGenReport, ClientError> {
    let mut client = Client::new(&cfg.addr, cfg.client);
    for (&(tenant, key), &state) in ledger {
        match state {
            KeyState::AckedLive => match client.call(&Request::Lookup { tenant, key })? {
                Response::Located { .. } => {}
                Response::NotFound => report.lost.push((tenant, key)),
                other => {
                    return Err(ClientError::Protocol(format!(
                        "lookup({tenant},{key}): {other:?}"
                    )))
                }
            },
            KeyState::AckedGone => match client.call(&Request::Lookup { tenant, key })? {
                Response::NotFound => {}
                Response::Located { .. } => report.ghosts.push((tenant, key)),
                other => {
                    return Err(ClientError::Protocol(format!(
                        "lookup({tenant},{key}): {other:?}"
                    )))
                }
            },
            KeyState::InDoubt => {} // no claim either way
        }
    }
    for tenant in 0..cfg.tenants {
        match client.call(&Request::Query { tenant })? {
            Response::TenantState { digest, .. } => report.digests.push((tenant, digest)),
            Response::Reject {
                code: RejectCode::UnknownTenant,
                ..
            } => {} // tenant never got a durable arrival
            other => return Err(ClientError::Protocol(format!("query({tenant}): {other:?}"))),
        }
    }
    Ok(report)
}

/// A spawned `lrb serve` child process.
pub struct ServerProc {
    child: Child,
    /// Port the child reported via its `LISTENING <port>` line.
    pub port: u16,
}

impl ServerProc {
    /// Spawn the server command and wait for its `LISTENING <port>`
    /// line on stdout.
    ///
    /// # Errors
    ///
    /// Spawn failure, or the child exiting/printing garbage before the
    /// listening line.
    pub fn spawn(mut cmd: Command) -> std::io::Result<ServerProc> {
        cmd.stdout(Stdio::piped());
        let mut child = cmd.spawn()?;
        let stdout = child.stdout.take().ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::BrokenPipe, "no child stdout")
        })?;
        let mut lines = BufReader::new(stdout).lines();
        for line in &mut lines {
            let line = line?;
            if let Some(port) = line.strip_prefix("LISTENING ") {
                let port = port.trim().parse::<u16>().map_err(|e| {
                    std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
                })?;
                // Keep draining stdout so the child never blocks on a
                // full pipe.
                thread::spawn(move || for _ in lines {});
                return Ok(ServerProc { child, port });
            }
        }
        let _ = child.kill();
        Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "server exited before LISTENING line",
        ))
    }

    /// SIGKILL the child (the crash drills' hammer) and reap it.
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Wait for a clean exit.
    ///
    /// # Errors
    ///
    /// Wait failure or nonzero exit status.
    pub fn wait_clean(mut self) -> std::io::Result<()> {
        let status = self.child.wait()?;
        if status.success() {
            Ok(())
        } else {
            Err(std::io::Error::other(format!("server exited {status}")))
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Chaos-drill parameters.
pub struct DrillConfig {
    /// Data directory shared by every server incarnation.
    pub data_dir: PathBuf,
    /// Server config (must match the flags `server_cmd` passes).
    pub serve: ServeConfig,
    /// Kill/restart cycles; the last cycle shuts down cleanly.
    pub cycles: u32,
    /// Tenants per cycle.
    pub tenants: u64,
    /// Events attempted per tenant per cycle.
    pub events_per_tenant: u64,
    /// Worker threads.
    pub workers: usize,
    /// Master seed (kill timing + workloads).
    pub seed: u64,
    /// Kill delay range in milliseconds (seeded-random per cycle).
    pub kill_after_ms: (u64, u64),
}

/// Chaos-drill verdict.
#[derive(Debug, Default)]
pub struct DrillReport {
    /// SIGKILLs delivered.
    pub kills: u32,
    /// Events acked across all cycles.
    pub acked: u64,
    /// Admission rejections observed.
    pub rejected: u64,
    /// Acked-live keys missing after a restart — MUST be empty.
    pub lost: Vec<(u64, u64)>,
    /// Acked-departed keys resurrected after a restart — MUST be empty.
    pub ghosts: Vec<(u64, u64)>,
    /// Live digests at the end (clean shutdown).
    pub live_digests: Vec<(u64, u64)>,
    /// Digests from offline recovery of the same data directory.
    pub recovered_digests: Vec<(u64, u64)>,
}

impl DrillReport {
    /// True iff no acked event was lost and recovery is bit-identical.
    pub fn passed(&self) -> bool {
        self.lost.is_empty()
            && self.ghosts.is_empty()
            && self.live_digests == self.recovered_digests
    }
}

/// Run the kill/restart drill. `server_cmd(port)` must return a Command
/// that starts the server bound to `port` (0 = ephemeral) over
/// `cfg.data_dir` and prints `LISTENING <port>`.
///
/// # Errors
///
/// Spawn/recovery failures or an unreachable server during verification
/// (ledger violations are reported in the [`DrillReport`], not as
/// errors).
pub fn run_chaos_drill(
    cfg: &DrillConfig,
    server_cmd: &mut dyn FnMut(u16) -> Command,
) -> Result<DrillReport, Box<dyn std::error::Error>> {
    let mut report = DrillReport::default();
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xdead_beef);
    let mut ledger: BTreeMap<(u64, u64), KeyState> = BTreeMap::new();

    for cycle in 0..cfg.cycles {
        let last = cycle + 1 == cfg.cycles;
        let mut server = ServerProc::spawn(server_cmd(0))?;
        let addr = format!("127.0.0.1:{}", server.port);

        // Verify every claim accumulated so far against the restarted
        // server before adding new load: no acked event lost.
        let lg = LoadGenConfig {
            addr: addr.clone(),
            tenants: cfg.tenants,
            events_per_tenant: cfg.events_per_tenant,
            procs: cfg.serve.procs as u64,
            workers: cfg.workers,
            seed: splitmix64(cfg.seed ^ u64::from(cycle)),
            key_space: u64::from(cycle) + 1,
            client: ClientConfig {
                seed: cfg.seed ^ u64::from(cycle) << 9,
                ..ClientConfig::default()
            },
            inject_frame_errors: cycle % 2 == 0,
        };
        {
            let checked = verify(&lg, LoadGenReport::default(), &ledger)?;
            report.lost.extend(checked.lost);
            report.ghosts.extend(checked.ghosts);
        }

        let abort = Arc::new(AtomicBool::new(false));
        let (drive_report, cycle_ledger, killed) = thread::scope(|scope| {
            let driver = {
                let lg = lg.clone();
                let abort = Arc::clone(&abort);
                scope.spawn(move || drive(&lg, &abort))
            };
            let mut killed = false;
            if !last {
                let (lo, hi) = cfg.kill_after_ms;
                let delay = rng.gen_range(lo..=hi.max(lo + 1));
                thread::sleep(Duration::from_millis(delay));
                server.kill(); // SIGKILL: mid-epoch, mid-snapshot, anywhere
                abort.store(true, Ordering::Relaxed);
                killed = true;
            }
            let (r, l) = driver
                .join()
                .unwrap_or((LoadGenReport::default(), BTreeMap::new()));
            (r, l, killed)
        });
        if killed {
            report.kills += 1;
        }
        report.acked += drive_report.acked;
        report.rejected += drive_report.rejected;
        ledger.extend(cycle_ledger);

        if last {
            // Clean finish: verify, digest, shut down, and compare with
            // offline recovery.
            let final_report = verify(&lg, LoadGenReport::default(), &ledger)?;
            report.lost.extend(final_report.lost);
            report.ghosts.extend(final_report.ghosts);
            report.live_digests = final_report.digests;
            let mut client = Client::new(&addr, ClientConfig::default());
            match client.call(&Request::Shutdown)? {
                Response::Ack { .. } => {}
                other => return Err(Box::new(ClientError::Protocol(format!("{other:?}")))),
            }
            server.wait_clean()?;
            let (state, _wal, _rec) = lrb_serve::recover(&cfg.data_dir, cfg.serve)?;
            report.recovered_digests = state.digests();
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::DrillReport;

    #[test]
    fn drill_verdict_fails_on_loss_resurrection_or_divergence() {
        let clean = || DrillReport {
            live_digests: vec![(1, 7)],
            recovered_digests: vec![(1, 7)],
            ..DrillReport::default()
        };
        assert!(clean().passed());
        let mut lost = clean();
        lost.lost.push((1, 10));
        assert!(!lost.passed());
        let mut ghost = clean();
        ghost.ghosts.push((1, 11));
        assert!(!ghost.passed());
        let mut diverged = clean();
        diverged.recovered_digests[0].1 = 8;
        assert!(!diverged.passed());
    }
}
