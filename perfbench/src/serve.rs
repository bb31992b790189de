//! `serve_mixed`: an lrb-serve `Server` on loopback TCP, driven as a closed
//! loop by two client connections, each on its own thread, each owning half
//! the tenants and waiting for every reply before sending again.
//!
//! Set-up (timed) is `Server::bind` recovering a data directory that the
//! benchmark first builds, untimed, through lrb-serve's public API: 64
//! tenants × 8 live jobs as a snapshot plus a WAL tail of 2,000 events
//! that leaves every tenant at 8 live jobs. The first recovery starts the
//! server; 14 more of an untouched copy are spread over the timed phase,
//! and `setup_s` is the median of all 15. The daemon runs
//! `ServeConfig::default()`, whose WAL appends are a write plus flush with
//! no fsync. The writes follow `lrb loadgen`'s arrive:depart:rebalance mix
//! of 7:1:2, with the eight churn events split evenly so the live state
//! stays level (4:4:2), and its job shapes and 1–4-move rebalances. The
//! share of `Query` and `Lookup` reads has no source in the workspace; it
//! is a fixed choice of two of each per ten writes. An operation is one
//! acknowledged write; its latency is the client's round trip.
//!
//! After the timed phase the benchmark checks the ledger: live `Query`
//! digests must equal an offline `lrb_serve::recover` of the data directory
//! after `Shutdown`, and in that recovered state every acknowledged arrival
//! is located and every acknowledged departure is not found.

use std::collections::BTreeMap;
use std::io::Write;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use lrb_core::mpartition;
use lrb_obs::{ThreadTracer, TraceCollector, Tracer};
use lrb_serve::server::wal_path;
use lrb_serve::snapshot::{self, snapshot_path};
use lrb_serve::wal::{LoggedEvent, Wal};
use lrb_serve::wire::{
    decode_request, decode_response, encode_request, encode_response, frame_request, read_frame,
    BudgetSpec, Request, Response,
};
use lrb_serve::{recover, ApplyOutcome, ServeConfig, ServeState, Server};

use crate::gen::{derive, Rng};
use crate::layers::{self, span, Attribution};
use crate::report::{Outcome, Tally};
use crate::stats::{mean, median, peak_rss_mb, quantile, Spread};

/// Tenant farms in the data directory.
pub const TENANTS: u64 = 64;
/// Live jobs per tenant in the snapshot. Snapshot load and write parse the
/// whole JSON document, and that parse grows quadratically with its size
/// (about 38 s for 64 × 500 jobs, 0.3 s for 64 × 32), and a snapshot every
/// 64 events stalls the state thread for one. So the snapshot stays small
/// (~77 KB, ~40 ms).
pub const JOBS: u64 = 8;
/// Events logged after the snapshot, replayed by every recovery.
const TAIL_EVENTS: usize = 2_000;
/// Client connections, one thread each (the benchmark host's `nproc`).
const CONNECTIONS: u64 = 2;
/// Recoveries timed for `setup_s`.
const SETUP_REPEATS: usize = 15;
/// Rebalances ask for 1 to this many moves, as `lrb loadgen`'s do. The
/// default move bank accrues 4 moves per rebalance, so it never refuses.
const MAX_REBALANCE_MOVES: u64 = 4;
/// How long a client waits for a reply before giving up.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// The benchmark's own record of one tenant's jobs.
#[derive(Debug, Clone, Default)]
struct TenantModel {
    live: Vec<u64>,
    departed: Vec<u64>,
    next_key: u64,
}

type Ledger = BTreeMap<u64, TenantModel>;

/// Live digests by tenant, and the checks made reading them back.
type ReadBack = (BTreeMap<u64, u64>, Tally);

/// A new job with `lrb loadgen`'s shape: size 1–40, cost 1–3.
fn arrival(rng: &mut Rng, cfg: &ServeConfig, tenant: u64, model: &mut TenantModel) -> Request {
    let key = model.next_key;
    model.next_key += 1;
    Request::Arrive {
        tenant,
        key,
        size: 1 + rng.below(40),
        cost: 1 + rng.below(3),
        proc: rng.below(cfg.procs as u64),
    }
}

fn rebalance(rng: &mut Rng, tenant: u64) -> Request {
    Request::Rebalance {
        tenant,
        budget: BudgetSpec::Moves(1 + rng.below(MAX_REBALANCE_MOVES)),
    }
}

/// Admit and apply one request, queueing its logged event for the WAL.
fn log_event(
    state: &mut ServeState,
    req: &Request,
    pending: &mut Vec<LoggedEvent>,
) -> Result<(), String> {
    let ev = state
        .admit(req)
        .map_err(|r| format!("admit {req:?}: {}", r.detail))?;
    if let Some(ApplyOutcome::Failed { detail }) =
        state.apply_events(std::slice::from_ref(&ev)).pop()
    {
        return Err(format!("apply {req:?}: {detail}"));
    }
    pending.push(ev);
    Ok(())
}

/// Build the data directory through lrb-serve's public API: every tenant's
/// jobs, a snapshot, then a tail of churn and rebalances left in the WAL.
fn build_data_dir(dir: &Path, seed: u64, cfg: &ServeConfig) -> Result<Ledger, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let mut state = ServeState::new(*cfg);
    let (mut wal, _) = Wal::open(&wal_path(dir)).map_err(|e| format!("open WAL: {e}"))?;
    let mut rng = Rng::new(derive(seed, 4, 0));
    let mut ledger = Ledger::new();
    let mut pending = Vec::new();
    let flush = |pending: &mut Vec<LoggedEvent>, wal: &mut Wal| -> Result<(), String> {
        wal.append_batch(pending)
            .map_err(|e| format!("WAL append: {e}"))?;
        pending.clear();
        Ok(())
    };
    for tenant in 0..TENANTS {
        let model = ledger.entry(tenant).or_default();
        for _ in 0..JOBS {
            let req = arrival(&mut rng, cfg, tenant, model);
            log_event(&mut state, &req, &mut pending)?;
            if let Request::Arrive { key, .. } = req {
                model.live.push(key);
            }
            if pending.len() >= cfg.batch_max {
                flush(&mut pending, &mut wal)?;
            }
        }
    }
    flush(&mut pending, &mut wal)?;
    snapshot::write(dir, &state.capture()).map_err(|e| format!("snapshot: {e}"))?;
    // The tail gives one tenant a whole deck of the timed mix at a time and
    // skips its reads, so each tenant ends every deck with `JOBS` live jobs
    // (a deck departs at most 4 < `JOBS`), and the live state the timed
    // phase starts from is the snapshot's size whatever the seed.
    let mut mix = Mix::new(derive(seed, 4, 1));
    let deck_len: usize = DECK.iter().map(|&(_, n)| n).sum();
    let mut logged = 0;
    while logged < TAIL_EVENTS {
        let tenant = rng.below(TENANTS);
        let model = ledger.entry(tenant).or_default();
        for _ in 0..deck_len {
            let req = match mix.next() {
                Op::Arrive => arrival(&mut rng, cfg, tenant, model),
                Op::Depart => {
                    let at = rng.below(model.live.len() as u64) as usize;
                    Request::Depart {
                        tenant,
                        key: model.live.swap_remove(at),
                    }
                }
                Op::Rebalance => rebalance(&mut rng, tenant),
                Op::Query | Op::Lookup => continue,
            };
            log_event(&mut state, &req, &mut pending)?;
            match req {
                Request::Arrive { key, .. } => model.live.push(key),
                Request::Depart { key, .. } => model.departed.push(key),
                _ => {}
            }
            logged += 1;
            if pending.len() >= cfg.batch_max {
                flush(&mut pending, &mut wal)?;
            }
        }
    }
    flush(&mut pending, &mut wal)?;
    Ok(ledger)
}

/// One client connection.
struct Client {
    stream: TcpStream,
}

impl Client {
    fn connect(port: u16) -> Result<Self, String> {
        let stream =
            TcpStream::connect(("127.0.0.1", port)).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| e.to_string())?;
        Ok(Client { stream })
    }

    /// Send one request as a single write and wait for its reply.
    fn call(&self, req: &Request) -> Result<Response, String> {
        let mut w = &self.stream;
        w.write_all(&frame_request(req))
            .map_err(|e| format!("send: {e}"))?;
        let mut r = &self.stream;
        let frame = read_frame(&mut r).map_err(|e| format!("receive: {e}"))?;
        decode_response(&frame).map_err(|e| format!("decode: {e}"))
    }
}

/// One request of the timed phase, kept for the in-process replay.
struct Sent {
    at: Instant,
    req: Request,
    resp: Response,
    rtt_nanos: u64,
    /// Whether a span was recorded around the round trip.
    traced: bool,
}

/// What one client measured.
#[derive(Default)]
struct ClientRun {
    ack_ms: Vec<f64>,
    rebalance_ms: Vec<f64>,
    read_ms: Vec<f64>,
    tally: Tally,
    sent: Vec<Sent>,
}

/// Whether the server logs and acknowledges the request.
fn is_write(req: &Request) -> bool {
    matches!(
        req,
        Request::Arrive { .. } | Request::Depart { .. } | Request::Rebalance { .. }
    )
}

/// Check a reply against the request and the client's ledger.
fn check_reply(
    req: &Request,
    resp: &Response,
    model: &TenantModel,
    procs: u64,
) -> Result<(), String> {
    let ok = match (req, resp) {
        (Request::Arrive { .. } | Request::Depart { .. }, Response::Ack { .. }) => true,
        (
            Request::Rebalance {
                budget: BudgetSpec::Moves(k),
                ..
            },
            Response::Rebalanced {
                moves, degraded, ..
            },
        ) => moves <= k && !degraded,
        (
            Request::Query { tenant },
            Response::TenantState {
                tenant: t, jobs, ..
            },
        ) => t == tenant && *jobs == model.live.len() as u64,
        (Request::Lookup { .. }, Response::Located { proc }) => *proc < procs,
        _ => false,
    };
    if ok {
        Ok(())
    } else {
        Err(format!("{req:?} answered {resp:?}"))
    }
}

/// Request kinds of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Arrive,
    Depart,
    Rebalance,
    Query,
    Lookup,
}

/// Every deck of the mix holds these requests, in shuffled order, so each
/// run sends the same shares. The writes are `lrb loadgen`'s 7:1:2
/// arrive:depart:rebalance mix with its churn split evenly, so the live
/// state stays level; the reads are a fixed choice.
const DECK: [(Op, usize); 5] = [
    (Op::Arrive, 4),
    (Op::Depart, 4),
    (Op::Rebalance, 2),
    (Op::Query, 2),
    (Op::Lookup, 2),
];

/// One connection's request mix: shuffled decks of [`DECK`], and the
/// generator for tenants, keys and job shapes.
struct Mix {
    rng: Rng,
    deck: Vec<Op>,
}

impl Mix {
    fn new(seed: u64) -> Self {
        Mix {
            rng: Rng::new(seed),
            deck: Vec::new(),
        }
    }

    fn next(&mut self) -> Op {
        if self.deck.is_empty() {
            self.deck = DECK
                .iter()
                .flat_map(|&(op, n)| std::iter::repeat_n(op, n))
                .collect();
            for i in (1..self.deck.len()).rev() {
                let j = self.rng.below(i as u64 + 1) as usize;
                self.deck.swap(i, j);
            }
        }
        self.deck.pop().unwrap_or(Op::Query)
    }
}

/// The closed loop of one connection over its own tenants, until
/// `deadline`. With a trace lane, every other request records a span
/// around its round trip.
fn drive(
    client: &Client,
    owned: &mut [(u64, TenantModel)],
    mix: &mut Mix,
    cfg: &ServeConfig,
    deadline: Instant,
    lane: Option<&mut ThreadTracer>,
    out: &mut ClientRun,
) {
    let procs = cfg.procs as u64;
    while Instant::now() < deadline {
        let (tenant, model) = &mut owned[mix.rng.below(owned.len() as u64) as usize];
        let tenant = *tenant;
        let op = mix.next();
        let rng = &mut mix.rng;
        let mut departing = None;
        let req = match op {
            Op::Depart | Op::Lookup if model.live.is_empty() => arrival(rng, cfg, tenant, model),
            Op::Arrive => arrival(rng, cfg, tenant, model),
            Op::Depart => {
                let at = rng.below(model.live.len() as u64) as usize;
                departing = Some(at);
                Request::Depart {
                    tenant,
                    key: model.live[at],
                }
            }
            Op::Rebalance => rebalance(rng, tenant),
            Op::Query => Request::Query { tenant },
            Op::Lookup => {
                let key = model.live[rng.below(model.live.len() as u64) as usize];
                Request::Lookup { tenant, key }
            }
        };
        let traced = lane.is_some() && out.sent.len() % 2 == 1;
        let at = Instant::now();
        let resp = {
            let _s = lane
                .as_deref()
                .filter(|_| traced)
                .map(|l| l.span_with(span::CLIENT_ROUND_TRIP, tenant, false));
            client.call(&req)
        };
        let rtt = at.elapsed();
        let resp = match resp {
            Ok(r) => r,
            Err(e) => {
                out.tally.record(Err(e));
                return;
            }
        };
        let checked = check_reply(&req, &resp, model, procs);
        if checked.is_ok() {
            match req {
                Request::Arrive { key, .. } => model.live.push(key),
                Request::Depart { key, .. } => {
                    if let Some(i) = departing {
                        model.live.swap_remove(i);
                    }
                    model.departed.push(key);
                }
                _ => {}
            }
        }
        out.tally.record(checked);
        let ms = rtt.as_secs_f64() * 1e3;
        match req {
            Request::Arrive { .. } | Request::Depart { .. } => out.ack_ms.push(ms),
            Request::Rebalance { .. } => {
                out.ack_ms.push(ms);
                out.rebalance_ms.push(ms);
            }
            _ => out.read_ms.push(ms),
        }
        out.sent.push(Sent {
            at,
            req,
            resp,
            rtt_nanos: rtt.as_nanos() as u64,
            traced,
        });
    }
}

/// Counters from a `Stats` request.
#[derive(Debug, Clone, Copy, Default)]
struct ServerCounts {
    applied: u64,
    snapshots: u64,
    epochs: u64,
}

fn stats(client: &Client) -> Result<ServerCounts, String> {
    match client.call(&Request::Stats)? {
        Response::ServerStats {
            applied,
            snapshots,
            epochs,
            ..
        } => Ok(ServerCounts {
            applied,
            snapshots,
            epochs,
        }),
        other => Err(format!("Stats answered {other:?}")),
    }
}

/// Removes the run's scratch directory however the run ends.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn copy_data_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("create {}: {e}", to.display()))?;
    for path in [snapshot_path(from), wal_path(from)] {
        let name = path.file_name().ok_or("data file without a name")?;
        std::fs::copy(&path, to.join(name)).map_err(|e| format!("copy {}: {e}", path.display()))?;
    }
    Ok(())
}

fn file_len(path: &Path) -> f64 {
    std::fs::metadata(path).map_or(0.0, |m| m.len() as f64)
}

/// Everything the live phase measured.
struct LiveRun {
    clients: Vec<ClientRun>,
    wall_secs: f64,
    /// Mean round trip of the untraced and traced requests (trace mode).
    plain_traced_mean_ms: (f64, f64),
    before: ServerCounts,
    after: ServerCounts,
    digests: BTreeMap<u64, u64>,
}

/// Run the closed loop against a live server on `port`. With a collector,
/// each connection alternates untraced and traced requests. The calling
/// thread runs `during` while the clients run.
#[allow(clippy::too_many_arguments)]
fn live_phase(
    port: u16,
    seed: u64,
    seconds: f64,
    cfg: &ServeConfig,
    ledger: &mut Ledger,
    collector: Option<&mut TraceCollector>,
    tally: &mut Tally,
    during: &mut dyn FnMut() -> Result<(), String>,
) -> Result<LiveRun, String> {
    let clients: Vec<Client> = (0..CONNECTIONS)
        .map(|_| Client::connect(port))
        .collect::<Result<_, _>>()?;
    let before = stats(&clients[0])?;
    let mut owned: Vec<Vec<(u64, TenantModel)>> = (0..CONNECTIONS)
        .map(|c| {
            ledger
                .iter()
                .filter(|(t, _)| *t % CONNECTIONS == c)
                .map(|(t, m)| (*t, m.clone()))
                .collect()
        })
        .collect();
    let mut mixes: Vec<Mix> = (0..CONNECTIONS)
        .map(|c| Mix::new(derive(seed, 5, c)))
        .collect();
    let mut runs: Vec<ClientRun> = (0..CONNECTIONS).map(|_| ClientRun::default()).collect();
    let lanes: Vec<Option<&mut ThreadTracer>> = match collector {
        Some(c) => c.workers_mut().iter_mut().map(Some).collect(),
        None => (0..CONNECTIONS).map(|_| None).collect(),
    };
    let started = Instant::now();
    let end = started + Duration::from_secs_f64(seconds);
    std::thread::scope(|s| {
        for ((((client, own), mix), run), lane) in clients
            .iter()
            .zip(&mut owned)
            .zip(&mut mixes)
            .zip(&mut runs)
            .zip(lanes)
        {
            s.spawn(move || drive(client, own, mix, cfg, end, lane, run));
        }
        during()
    })?;
    let wall_secs = started.elapsed().as_secs_f64();
    let rtt_ms = |traced: bool| -> Vec<f64> {
        runs.iter()
            .flat_map(|r| r.sent.iter())
            .filter(|s| s.traced == traced)
            .map(|s| s.rtt_nanos as f64 / 1e6)
            .collect()
    };
    let plain_traced = (mean(&rtt_ms(false)), mean(&rtt_ms(true)));

    // Untimed: each connection reads back its own tenants.
    let procs = cfg.procs as u64;
    let read_backs: Vec<Result<ReadBack, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter()
            .zip(&owned)
            .map(|(client, own)| s.spawn(move || read_back(client, own, procs)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("read-back thread panicked".to_string()))
            })
            .collect()
    });
    let mut digests = BTreeMap::new();
    for result in read_backs {
        let (d, t) = result?;
        digests.extend(d);
        tally.merge(t);
    }
    let after = stats(&clients[0])?;
    for own in owned {
        ledger.extend(own);
    }
    Ok(LiveRun {
        clients: runs,
        wall_secs,
        plain_traced_mean_ms: plain_traced,
        before,
        after,
        digests,
    })
}

/// Each tenant's live digest (its `Query` reply checked against the
/// ledger), and a `Lookup` of its latest departure, which must be
/// `NotFound`.
fn read_back(client: &Client, own: &[(u64, TenantModel)], procs: u64) -> Result<ReadBack, String> {
    let mut digests = BTreeMap::new();
    let mut tally = Tally::default();
    for (tenant, model) in own {
        let query = Request::Query { tenant: *tenant };
        let resp = client.call(&query)?;
        tally.record(check_reply(&query, &resp, model, procs));
        if let Response::TenantState { digest, .. } = resp {
            digests.insert(*tenant, digest);
        }
        if let Some(&key) = model.departed.last() {
            let resp = client.call(&Request::Lookup {
                tenant: *tenant,
                key,
            })?;
            tally.record(match resp {
                Response::NotFound => Ok(()),
                other => Err(format!(
                    "departed key {key} of tenant {tenant} answered {other:?}"
                )),
            });
        }
    }
    Ok((digests, tally))
}

/// Ask the server to snapshot and exit.
fn shutdown(port: u16) -> Result<(), String> {
    match Client::connect(port)?.call(&Request::Shutdown)? {
        Response::Ack { .. } => Ok(()),
        other => Err(format!("Shutdown answered {other:?}")),
    }
}

/// Offline recovery after `Shutdown`: digests must match the live ones, and
/// the ledger must hold in the recovered state.
fn check_recovered(
    dir: &Path,
    cfg: &ServeConfig,
    live: &BTreeMap<u64, u64>,
    ledger: &Ledger,
    tally: &mut Tally,
) -> Result<(), String> {
    let (state, _wal, _) = recover(dir, *cfg).map_err(|e| format!("recover: {e}"))?;
    for (tenant, model) in ledger {
        tally.record(match (state.tenant_digest(*tenant), live.get(tenant)) {
            (Some(a), Some(b)) if a == *b => Ok(()),
            (a, b) => Err(format!(
                "tenant {tenant}: recovered digest {a:?}, live digest {b:?}"
            )),
        });
        let farm = state.farm(*tenant);
        let located = |key: &u64| farm.and_then(|f| f.proc_of(*key)).is_some();
        tally.record(
            match (
                model.live.iter().find(|k| !located(k)),
                model.departed.iter().find(|k| located(k)),
            ) {
                (None, None) => Ok(()),
                (Some(k), _) => Err(format!("tenant {tenant}: acked arrival {k} is not located")),
                (_, Some(k)) => Err(format!(
                    "tenant {tenant}: acked departure {k} is still located"
                )),
            },
        );
    }
    Ok(())
}

/// Per-request service times from the in-process replay.
#[derive(Default)]
struct Replay {
    decode_us: Vec<f64>,
    encode_us: Vec<f64>,
    admit_us: Vec<f64>,
    apply_us: Vec<f64>,
    wal_us: Vec<f64>,
    snapshot_ms: Vec<f64>,
    service_nanos: u64,
    mpart_us: Vec<f64>,
    probes: Vec<f64>,
    wal_scan_mb_per_s: f64,
}

fn us(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e6
}

/// The live request stream in server order: writes by WAL sequence number,
/// reads where they were sent.
fn server_order(clients: Vec<ClientRun>) -> Vec<Sent> {
    let mut all: Vec<Sent> = clients.into_iter().flat_map(|c| c.sent).collect();
    all.sort_by_key(|s| s.at);
    let seq = |s: &Sent| match s.resp {
        Response::Ack { seq } | Response::Rebalanced { seq, .. } => Some(seq),
        _ => None,
    };
    let slots: Vec<usize> = (0..all.len()).filter(|&i| seq(&all[i]).is_some()).collect();
    let mut writes: Vec<usize> = slots.clone();
    writes.sort_by_key(|&i| seq(&all[i]));
    let mut order: Vec<usize> = (0..all.len()).collect();
    for (slot, write) in slots.into_iter().zip(writes) {
        order[slot] = write;
    }
    let mut taken: Vec<Option<Sent>> = all.into_iter().map(Some).collect();
    order.into_iter().filter_map(|i| taken[i].take()).collect()
}

/// Replay the admitted request stream in-process against a copy of the
/// pre-run data directory, through the same public calls the server makes,
/// with a span around each.
fn replay(
    dir: &Path,
    cfg: &ServeConfig,
    stream: &[Sent],
    tracer: &ThreadTracer,
    tally: &mut Tally,
) -> Result<Replay, String> {
    let mut out = Replay::default();
    let wal_bytes = file_len(&wal_path(dir));
    let start = Instant::now();
    drop(Wal::open(&wal_path(dir)).map_err(|e| format!("open WAL: {e}"))?);
    out.wal_scan_mb_per_s = wal_bytes / 1e6 / start.elapsed().as_secs_f64();
    let (mut state, mut wal, _) = recover(dir, *cfg).map_err(|e| format!("recover: {e}"))?;
    let mut last_snapshot = state.applied();
    for sent in stream {
        let payload = encode_request(&sent.req);
        let begin = Instant::now();
        let t = Instant::now();
        let req = {
            let _s = tracer.span_with(span::SERVE_WIRE_DECODE, 0, false);
            decode_request(&payload).map_err(|e| format!("decode: {e}"))?
        };
        out.decode_us.push(us(t));
        let resp = match req {
            Request::Query { tenant } => {
                let _s = tracer.span_with(span::SERVE_READ, tenant, false);
                match state.farm(tenant) {
                    Some(farm) => Response::TenantState {
                        tenant,
                        jobs: farm.num_jobs() as u64,
                        makespan: farm.makespan(),
                        banked: farm.bank().balance(),
                        digest: state.tenant_digest(tenant).unwrap_or(0),
                    },
                    None => Response::NotFound,
                }
            }
            Request::Lookup { tenant, key } => {
                let _s = tracer.span_with(span::SERVE_READ, tenant, false);
                match state.farm(tenant).and_then(|f| f.proc_of(key)) {
                    Some(proc) => Response::Located { proc: proc as u64 },
                    None => Response::NotFound,
                }
            }
            _ => {
                if let Request::Rebalance {
                    tenant,
                    budget: BudgetSpec::Moves(k),
                } = req
                {
                    // The kernel on this tenant's farm, outside the service
                    // time: the M-PARTITION cost the rebalance carries.
                    if let Some(farm) = state.farm(tenant) {
                        let inst = farm.instance();
                        let pause = Instant::now();
                        let _s = tracer.span_with(span::CORE_MPARTITION, tenant, false);
                        let run =
                            mpartition::rebalance(&inst, k as usize).map_err(|e| e.to_string())?;
                        out.mpart_us.push(us(pause));
                        out.probes.push(run.probes as f64);
                    }
                }
                let t = Instant::now();
                let ev = {
                    let _s = tracer.span_with(span::SERVE_ADMIT, 0, false);
                    state
                        .admit(&req)
                        .map_err(|r| format!("replayed {req:?} refused: {}", r.detail))?
                };
                out.admit_us.push(us(t));
                let seq = state.applied() + 1;
                let t = Instant::now();
                let outcome = {
                    let _s = tracer.span_with(span::SERVE_APPLY, 0, false);
                    state.apply_events(std::slice::from_ref(&ev)).pop()
                };
                out.apply_us.push(us(t));
                let t = Instant::now();
                {
                    let _s = tracer.span_with(span::SERVE_WAL_APPEND, 0, false);
                    wal.append_batch(std::slice::from_ref(&ev))
                        .map_err(|e| format!("WAL append: {e}"))?;
                }
                out.wal_us.push(us(t));
                if cfg.snapshot_every > 0 && state.applied() - last_snapshot >= cfg.snapshot_every {
                    let t = Instant::now();
                    {
                        let _s = tracer.span_with(span::SERVE_SNAPSHOT, 0, false);
                        snapshot::write(dir, &state.capture())
                            .map_err(|e| format!("snapshot: {e}"))?;
                    }
                    out.snapshot_ms.push(us(t) / 1e3);
                    last_snapshot = state.applied();
                }
                match outcome {
                    Some(ApplyOutcome::Applied) => Response::Ack { seq },
                    Some(ApplyOutcome::Rebalanced {
                        moves,
                        makespan,
                        degraded,
                        tier,
                    }) => Response::Rebalanced {
                        seq,
                        moves,
                        makespan,
                        degraded,
                        tier: tier.to_string(),
                    },
                    other => return Err(format!("replayed {req:?} gave {other:?}")),
                }
            }
        };
        let t = Instant::now();
        {
            let _s = tracer.span_with(span::SERVE_WIRE_ENCODE, 0, false);
            std::hint::black_box(encode_response(&resp));
        }
        out.encode_us.push(us(t));
        let kernel: f64 = if matches!(sent.req, Request::Rebalance { .. }) {
            out.mpart_us.last().copied().unwrap_or(0.0)
        } else {
            0.0
        };
        out.service_nanos += ((us(begin) - kernel).max(0.0) * 1e3) as u64;
        // Writes must replay to the same answer the live server gave.
        if is_write(&sent.req) {
            tally.record(if resp == sent.resp {
                Ok(())
            } else {
                Err(format!(
                    "replay answered {resp:?}, live server {:?}",
                    sent.resp
                ))
            });
        }
    }
    Ok(out)
}

/// Run the workload: end-to-end metrics, or per-layer metrics with `trace`.
pub fn run(seed: u64, seconds: f64, trace: bool, out_dir: &Path) -> Result<Outcome, String> {
    let cfg = ServeConfig::default();
    let scratch = ScratchDir(out_dir.join(format!("serve-{}-seed{seed}", std::process::id())));
    let data = scratch.0.join("data");
    let replay_dir = scratch.0.join("replay");
    let _ = std::fs::remove_dir_all(&scratch.0);
    let mut ledger = build_data_dir(&data, seed, &cfg)?;
    if trace {
        copy_data_dir(&data, &replay_dir)?;
    }
    let snapshot_bytes = file_len(&snapshot_path(&data));
    let wal_before = file_len(&wal_path(&data));

    let setup_dir = scratch.0.join("setup");
    copy_data_dir(&data, &setup_dir)?;
    let recover_into =
        |dir: &Path| Server::bind(dir, "127.0.0.1:0", cfg).map_err(|e| format!("bind: {e}"));
    let (mut setup, server) = Spread::new(SETUP_REPEATS, Duration::from_secs_f64(seconds), || {
        recover_into(&data)
    })?;
    let replayed = server.recovery().replayed;
    let port = server.port().map_err(|e| e.to_string())?;
    let handle = std::thread::spawn(move || server.run());

    let mut tally = Tally::default();
    let mut collector = trace.then(|| TraceCollector::new(CONNECTIONS as usize));
    let live = live_phase(
        port,
        seed,
        seconds,
        &cfg,
        &mut ledger,
        collector.as_mut(),
        &mut tally,
        // The other set-up repetitions recover the untouched copy, on the
        // main thread while the clients wait on their round trips.
        &mut || {
            while let Some(due) = setup.next_due().filter(|_| !trace) {
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                setup.poll(|| recover_into(&setup_dir))?;
            }
            Ok(())
        },
    );
    let stopped = shutdown(port);
    let joined = handle
        .join()
        .map_err(|_| "server thread panicked".to_string())
        .and_then(|r| r.map_err(|e| format!("server: {e}")));
    let mut live = live?;
    stopped?;
    joined?;
    check_recovered(&data, &cfg, &live.digests, &ledger, &mut tally)?;

    let acks: Vec<f64> = live
        .clients
        .iter()
        .flat_map(|c| c.ack_ms.iter().copied())
        .collect();
    let rebalances: Vec<f64> = live
        .clients
        .iter()
        .flat_map(|c| c.rebalance_ms.iter().copied())
        .collect();
    let reads: Vec<f64> = live
        .clients
        .iter()
        .flat_map(|c| c.read_ms.iter().copied())
        .collect();
    for c in &mut live.clients {
        tally.merge(std::mem::take(&mut c.tally));
    }
    let applied = live
        .after
        .applied
        .saturating_sub(live.before.applied)
        .max(1) as f64;
    let acked_per_s = acks.len() as f64 / live.wall_secs;
    let mut detail: Vec<(String, f64)> = vec![
        ("acked_per_s".into(), acked_per_s),
        ("ack_p50_ms".into(), quantile(&acks, 0.5)),
        ("ack_p95_ms".into(), quantile(&acks, 0.95)),
        ("ack_p99_ms".into(), quantile(&acks, 0.99)),
        ("ack_samples".into(), acks.len() as f64),
        ("rebalance_p50_ms".into(), median(&rebalances)),
        ("rebalance_samples".into(), rebalances.len() as f64),
        ("read_p50_ms".into(), median(&reads)),
        ("read_samples".into(), reads.len() as f64),
        (
            "serve.wal_bytes_per_event".into(),
            (file_len(&wal_path(&data)) - wal_before) / applied,
        ),
        (
            "serve.events_per_batch".into(),
            applied / live.after.epochs.saturating_sub(live.before.epochs).max(1) as f64,
        ),
        ("serve.snapshot_bytes".into(), snapshot_bytes),
        (
            "serve.snapshots_per_kevent".into(),
            live.after.snapshots.saturating_sub(live.before.snapshots) as f64 * 1e3 / applied,
        ),
        ("serve.recover_replayed".into(), replayed as f64),
    ];

    let Some(collector) = collector else {
        return Ok(Outcome {
            metrics: vec![
                ("setup_s", setup.median()),
                ("peak_rss_mb", peak_rss_mb()),
                ("ops_per_s", acked_per_s),
                ("op_p50_ms", quantile(&acks, 0.5)),
                ("op_p95_ms", quantile(&acks, 0.95)),
            ],
            tally,
            detail,
        });
    };

    let overhead = live.plain_traced_mean_ms.1 / live.plain_traced_mean_ms.0 - 1.0;
    let stream = server_order(live.clients);
    let rtt_total: u64 = stream.iter().map(|s| s.rtt_nanos).sum();
    let rep = replay(&replay_dir, &cfg, &stream, collector.main(), &mut tally)?;
    let service_frac = rep.service_nanos as f64 / rtt_total.max(1) as f64;
    detail.extend([
        ("serve.wire_decode_us".to_string(), mean(&rep.decode_us)),
        ("serve.wire_encode_us".to_string(), mean(&rep.encode_us)),
        ("serve.service_frac".to_string(), service_frac),
        ("serve.admit_us".to_string(), mean(&rep.admit_us)),
        ("serve.apply_us".to_string(), mean(&rep.apply_us)),
        ("serve.wal_append_us".to_string(), mean(&rep.wal_us)),
        ("serve.snapshot_ms".to_string(), mean(&rep.snapshot_ms)),
        ("serve.wal_scan_mb_per_s".to_string(), rep.wal_scan_mb_per_s),
        ("core.mpart_solve_us".to_string(), mean(&rep.mpart_us)),
        ("core.mpart_probes".to_string(), mean(&rep.probes)),
    ]);
    let trace = collector.finish("serve_mixed", seed, CONNECTIONS as usize, "perfbench");
    // Service time is measured in the replay of the whole stream; it is set
    // against the whole stream's round trips, and the rest is transport and
    // queue wait. The traced requests' round trips carry the client spans.
    let mut attribution = Attribution::from_trace(
        &trace,
        rtt_total,
        &[span::CORE_MPARTITION, span::CLIENT_ROUND_TRIP],
    );
    let serve_nanos = attribution.layers.get("serve").copied().unwrap_or(0);
    attribution
        .layers
        .insert("transport", rtt_total.saturating_sub(serve_nanos));
    layers::write_outputs(
        out_dir,
        "serve_mixed",
        trace,
        attribution.attributed(),
        &detail,
    )?;
    Ok(Outcome {
        metrics: attribution.metrics(overhead, mean(&rep.mpart_us), mean(&rep.probes)),
        tally,
        detail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const DECK_LEN: usize = 14;

    #[test]
    fn request_mix_is_deterministic_and_keeps_its_shares() {
        assert_eq!(DECK.iter().map(|&(_, n)| n).sum::<usize>(), DECK_LEN);
        let draw = |seed| {
            let mut mix = Mix::new(seed);
            (0..3 * DECK_LEN).map(|_| mix.next()).collect::<Vec<_>>()
        };
        assert_eq!(draw(3), draw(3));
        assert_ne!(draw(3), draw(4));
        for deck in draw(3).chunks(DECK_LEN) {
            for (op, n) in DECK {
                assert_eq!(deck.iter().filter(|&&o| o == op).count(), n, "{op:?}");
            }
        }
    }

    #[test]
    fn data_directory_is_deterministic_in_the_seed() {
        let cfg = ServeConfig::default();
        let base =
            std::env::temp_dir().join(format!("perfbench-serve-test-{}", std::process::id()));
        let build = |name: &str, seed: u64| {
            let dir = base.join(name);
            let ledger = build_data_dir(&dir, seed, &cfg).expect("data directory builds");
            let files =
                [snapshot_path(&dir), wal_path(&dir)].map(|p| std::fs::read(p).expect("data file"));
            let live: Vec<Vec<u64>> = ledger.values().map(|m| m.live.clone()).collect();
            (live, files)
        };
        let a = build("a", 7);
        let b = build("b", 7);
        let c = build("c", 8);
        let _ = std::fs::remove_dir_all(&base);
        assert_eq!(a.0.len(), TENANTS as usize);
        assert_eq!(a, b);
        assert_ne!(a.1, c.1);
    }
}
