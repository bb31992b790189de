//! Hand-rolled length-prefixed wire protocol for the rebalancing daemon.
//!
//! The same vendored-serde discipline that keeps the CLI's JSON reports
//! honest applies here: no external codec, a fixed binary layout, and a
//! decoder that turns *every* malformed input into a typed [`WireError`] —
//! never a panic (the `lrb-lint` no-panic rule covers this crate) and never
//! an out-of-bounds read. The fuzz suite in `tests/wire_fuzz.rs` feeds the
//! decoder random, truncated, and oversized frames to hold that line.
//!
//! ## Frame layout
//!
//! ```text
//! frame   := len:u32be payload
//! payload := tag:u8 fields...          (len = payload length in bytes)
//! ```
//!
//! Integers are big-endian. Strings are `len:u16be` followed by UTF-8
//! bytes. A frame longer than [`MAX_FRAME`] is rejected before any
//! allocation, so a hostile length prefix cannot balloon memory.

use std::io::{Read, Write};

/// Hard ceiling on a frame's payload size. Every legitimate message is
/// tiny; anything larger is a protocol error (or an attack) and is
/// rejected before the payload is read.
pub const MAX_FRAME: usize = 64 * 1024;

/// How a frame or message failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The peer closed the stream cleanly between frames.
    Closed,
    /// I/O failure (including mid-frame EOF), formatted for diagnostics.
    Io(String),
    /// Length prefix exceeds [`MAX_FRAME`].
    Oversize {
        /// The declared payload length.
        declared: u64,
    },
    /// Payload ended before the field being decoded.
    Truncated {
        /// What was being decoded when the bytes ran out.
        field: &'static str,
    },
    /// Unknown message tag.
    BadTag {
        /// The offending tag byte.
        tag: u8,
    },
    /// Payload has bytes left over after a complete message.
    Trailing {
        /// Number of undecoded bytes.
        extra: usize,
    },
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// A field carried a value outside its domain (e.g. unknown enum
    /// discriminant).
    BadValue {
        /// Which field was out of domain.
        field: &'static str,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Closed => write!(f, "connection closed"),
            WireError::Io(e) => write!(f, "io error: {e}"),
            WireError::Oversize { declared } => {
                write!(f, "frame of {declared} bytes exceeds max {MAX_FRAME}")
            }
            WireError::Truncated { field } => write!(f, "payload truncated at {field}"),
            WireError::BadTag { tag } => write!(f, "unknown message tag {tag:#04x}"),
            WireError::Trailing { extra } => write!(f, "{extra} trailing bytes after message"),
            WireError::BadUtf8 => write!(f, "string field is not UTF-8"),
            WireError::BadValue { field } => write!(f, "field {field} out of domain"),
        }
    }
}

impl std::error::Error for WireError {}

/// The relocation budget a rebalance request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetSpec {
    /// At most this many jobs may move.
    Moves(u64),
    /// Total relocation cost may not exceed this.
    Cost(u64),
}

/// A client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Admit job `key` (size, cost) onto `proc` of tenant `tenant`'s farm.
    Arrive {
        /// Tenant farm id.
        tenant: u64,
        /// Caller-chosen job key, unique among the tenant's live jobs.
        key: u64,
        /// Job size (load units).
        size: u64,
        /// Job relocation cost.
        cost: u64,
        /// Initial processor.
        proc: u64,
    },
    /// Retire live job `key` of tenant `tenant`.
    Depart {
        /// Tenant farm id.
        tenant: u64,
        /// The live job's key.
        key: u64,
    },
    /// Rebalance tenant `tenant` under `budget` (clamped by its MoveBank).
    Rebalance {
        /// Tenant farm id.
        tenant: u64,
        /// Requested relocation budget.
        budget: BudgetSpec,
    },
    /// Read tenant `tenant`'s state digest.
    Query {
        /// Tenant farm id.
        tenant: u64,
    },
    /// Locate live job `key` of tenant `tenant`.
    Lookup {
        /// Tenant farm id.
        tenant: u64,
        /// The job key to look up.
        key: u64,
    },
    /// Read server-wide counters.
    Stats,
    /// Ask the server to snapshot and exit cleanly.
    Shutdown,
}

/// Why the server refused to admit a request. The variants mirror the
/// `deadline` module's vocabulary: exhaustion is explicit and retryable,
/// invalid requests are terminal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectCode {
    /// The global event queue is full (backpressure).
    QueueFull,
    /// The tenant has too many requests in flight.
    TenantBusy,
    /// The server is at its tenant limit.
    TenantLimit,
    /// The tenant is at its live-job limit.
    JobsLimit,
    /// The tenant's MoveBank cannot fund any move right now.
    BankExhausted,
    /// This epoch's WorkBudget is exhausted (solver overload).
    WorkExhausted,
    /// Arrive with a key that is already live.
    DuplicateKey,
    /// Depart/Lookup of a key that is not live.
    UnknownKey,
    /// Target processor outside the farm.
    ProcOutOfRange,
    /// Operation on a tenant the server has never seen.
    UnknownTenant,
}

impl RejectCode {
    /// Stable wire discriminant.
    fn to_byte(self) -> u8 {
        match self {
            RejectCode::QueueFull => 1,
            RejectCode::TenantBusy => 2,
            RejectCode::TenantLimit => 3,
            RejectCode::JobsLimit => 4,
            RejectCode::BankExhausted => 5,
            RejectCode::WorkExhausted => 6,
            RejectCode::DuplicateKey => 7,
            RejectCode::UnknownKey => 8,
            RejectCode::ProcOutOfRange => 9,
            RejectCode::UnknownTenant => 10,
        }
    }

    fn from_byte(b: u8) -> Option<Self> {
        Some(match b {
            1 => RejectCode::QueueFull,
            2 => RejectCode::TenantBusy,
            3 => RejectCode::TenantLimit,
            4 => RejectCode::JobsLimit,
            5 => RejectCode::BankExhausted,
            6 => RejectCode::WorkExhausted,
            7 => RejectCode::DuplicateKey,
            8 => RejectCode::UnknownKey,
            9 => RejectCode::ProcOutOfRange,
            10 => RejectCode::UnknownTenant,
            _ => return None,
        })
    }

    /// Human-readable name (used in responses and reports).
    pub fn name(self) -> &'static str {
        match self {
            RejectCode::QueueFull => "queue_full",
            RejectCode::TenantBusy => "tenant_busy",
            RejectCode::TenantLimit => "tenant_limit",
            RejectCode::JobsLimit => "jobs_limit",
            RejectCode::BankExhausted => "bank_exhausted",
            RejectCode::WorkExhausted => "work_exhausted",
            RejectCode::DuplicateKey => "duplicate_key",
            RejectCode::UnknownKey => "unknown_key",
            RejectCode::ProcOutOfRange => "proc_out_of_range",
            RejectCode::UnknownTenant => "unknown_tenant",
        }
    }

    /// Whether retrying the identical request later can succeed.
    pub fn retryable(self) -> bool {
        matches!(
            self,
            RejectCode::QueueFull
                | RejectCode::TenantBusy
                | RejectCode::BankExhausted
                | RejectCode::WorkExhausted
        )
    }
}

/// A server response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// The event was logged durably and applied; `seq` is its WAL position.
    Ack {
        /// 1-based write-ahead-log sequence number.
        seq: u64,
    },
    /// A rebalance was logged and solved.
    Rebalanced {
        /// 1-based write-ahead-log sequence number.
        seq: u64,
        /// Jobs migrated by this rebalance.
        moves: u64,
        /// Post-rebalance makespan.
        makespan: u64,
        /// Whether the solve degraded past its first tier.
        degraded: bool,
        /// Provenance: the FallbackChain tier that answered
        /// (`"m-partition"`, `"greedy"` or `"no-move"`), or `"empty"` for
        /// a jobless farm.
        tier: String,
    },
    /// Admission control refused the request; nothing was logged.
    Reject {
        /// Why.
        code: RejectCode,
        /// Events after which a retry may succeed (0 = not retryable).
        retry_after: u64,
        /// Human-readable detail.
        detail: String,
    },
    /// Answer to [`Request::Query`].
    TenantState {
        /// Tenant farm id.
        tenant: u64,
        /// Live jobs.
        jobs: u64,
        /// Current makespan.
        makespan: u64,
        /// Banked move-budget units.
        banked: u64,
        /// Order-independent digest of the full tenant state
        /// (keys, jobs, assignment, loads, bank).
        digest: u64,
    },
    /// Answer to [`Request::Lookup`] when the key is live.
    Located {
        /// The processor hosting the job.
        proc: u64,
    },
    /// Answer to [`Request::Lookup`] when the key is not live.
    NotFound,
    /// Answer to [`Request::Stats`].
    ServerStats {
        /// Live tenant farms.
        tenants: u64,
        /// Events applied (== WAL records) over the server's lifetime.
        applied: u64,
        /// Snapshots written.
        snapshots: u64,
        /// Recoveries performed at startup (0 on a fresh data dir).
        recoveries: u64,
        /// Events replayed from the WAL during the last recovery.
        replayed: u64,
        /// Fault-plan epochs executed: one per applied event, or per WAL
        /// chunk replayed at recovery.
        epochs: u64,
        /// Admission rejections issued.
        rejects: u64,
        /// Rebalances that the FallbackChain answered below its first tier
        /// (M-PARTITION).
        degraded: u64,
    },
    /// The request could not be decoded or is not servable.
    Error {
        /// Human-readable detail.
        detail: String,
    },
}

// Message tags. Requests are < 0x80, responses >= 0x80.
const TAG_ARRIVE: u8 = 0x01;
const TAG_DEPART: u8 = 0x02;
const TAG_REBALANCE: u8 = 0x03;
const TAG_QUERY: u8 = 0x04;
const TAG_LOOKUP: u8 = 0x05;
const TAG_STATS: u8 = 0x06;
const TAG_SHUTDOWN: u8 = 0x07;
const TAG_ACK: u8 = 0x81;
const TAG_REBALANCED: u8 = 0x82;
const TAG_REJECT: u8 = 0x83;
const TAG_TENANT_STATE: u8 = 0x84;
const TAG_LOCATED: u8 = 0x85;
const TAG_NOT_FOUND: u8 = 0x86;
const TAG_SERVER_STATS: u8 = 0x87;
const TAG_ERROR: u8 = 0x88;

const BUDGET_MOVES: u8 = 0;
const BUDGET_COST: u8 = 1;

/// Bounds-checked cursor over a payload (wire messages and WAL records).
pub(crate) struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, at: 0 }
    }

    fn take(&mut self, n: usize, field: &'static str) -> Result<&'a [u8], WireError> {
        let end = self
            .at
            .checked_add(n)
            .ok_or(WireError::Truncated { field })?;
        if end > self.buf.len() {
            return Err(WireError::Truncated { field });
        }
        let s = &self.buf[self.at..end];
        self.at = end;
        Ok(s)
    }

    pub(crate) fn u8(&mut self, field: &'static str) -> Result<u8, WireError> {
        Ok(self.take(1, field)?[0])
    }

    fn u16(&mut self, field: &'static str) -> Result<u16, WireError> {
        let b = self.take(2, field)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    pub(crate) fn u64(&mut self, field: &'static str) -> Result<u64, WireError> {
        let b = self.take(8, field)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_be_bytes(a))
    }

    fn string(&mut self, field: &'static str) -> Result<String, WireError> {
        let len = self.u16(field)? as usize;
        let bytes = self.take(len, field)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadUtf8)
    }

    pub(crate) fn finish(self) -> Result<(), WireError> {
        let extra = self.buf.len() - self.at;
        if extra != 0 {
            Err(WireError::Trailing { extra })
        } else {
            Ok(())
        }
    }
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_string(out: &mut Vec<u8>, s: &str) {
    // Strings on the wire are short provenance/diagnostic tags; truncate
    // rather than fail so encoding stays infallible.
    let bytes = s.as_bytes();
    let len = bytes.len().min(u16::MAX as usize);
    let mut cut = len;
    while cut > 0 && !s.is_char_boundary(cut) {
        cut -= 1;
    }
    out.extend_from_slice(&(cut as u16).to_be_bytes());
    out.extend_from_slice(&bytes[..cut]);
}

pub(crate) fn put_budget(out: &mut Vec<u8>, b: BudgetSpec) {
    match b {
        BudgetSpec::Moves(k) => {
            out.push(BUDGET_MOVES);
            put_u64(out, k);
        }
        BudgetSpec::Cost(c) => {
            out.push(BUDGET_COST);
            put_u64(out, c);
        }
    }
}

pub(crate) fn take_budget(c: &mut Cursor<'_>) -> Result<BudgetSpec, WireError> {
    let kind = c.u8("budget.kind")?;
    let amount = c.u64("budget.amount")?;
    match kind {
        BUDGET_MOVES => Ok(BudgetSpec::Moves(amount)),
        BUDGET_COST => Ok(BudgetSpec::Cost(amount)),
        _ => Err(WireError::BadValue {
            field: "budget.kind",
        }),
    }
}

/// Encode a request payload (no length prefix).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut out = Vec::with_capacity(48);
    match req {
        Request::Arrive {
            tenant,
            key,
            size,
            cost,
            proc,
        } => {
            out.push(TAG_ARRIVE);
            for v in [tenant, key, size, cost, proc] {
                put_u64(&mut out, *v);
            }
        }
        Request::Depart { tenant, key } => {
            out.push(TAG_DEPART);
            put_u64(&mut out, *tenant);
            put_u64(&mut out, *key);
        }
        Request::Rebalance { tenant, budget } => {
            out.push(TAG_REBALANCE);
            put_u64(&mut out, *tenant);
            put_budget(&mut out, *budget);
        }
        Request::Query { tenant } => {
            out.push(TAG_QUERY);
            put_u64(&mut out, *tenant);
        }
        Request::Lookup { tenant, key } => {
            out.push(TAG_LOOKUP);
            put_u64(&mut out, *tenant);
            put_u64(&mut out, *key);
        }
        Request::Stats => out.push(TAG_STATS),
        Request::Shutdown => out.push(TAG_SHUTDOWN),
    }
    out
}

/// Decode a request payload. Total: every byte string yields `Ok` or a
/// typed error.
pub fn decode_request(payload: &[u8]) -> Result<Request, WireError> {
    let mut c = Cursor::new(payload);
    let tag = c.u8("tag")?;
    let req = match tag {
        TAG_ARRIVE => Request::Arrive {
            tenant: c.u64("tenant")?,
            key: c.u64("key")?,
            size: c.u64("size")?,
            cost: c.u64("cost")?,
            proc: c.u64("proc")?,
        },
        TAG_DEPART => Request::Depart {
            tenant: c.u64("tenant")?,
            key: c.u64("key")?,
        },
        TAG_REBALANCE => Request::Rebalance {
            tenant: c.u64("tenant")?,
            budget: take_budget(&mut c)?,
        },
        TAG_QUERY => Request::Query {
            tenant: c.u64("tenant")?,
        },
        TAG_LOOKUP => Request::Lookup {
            tenant: c.u64("tenant")?,
            key: c.u64("key")?,
        },
        TAG_STATS => Request::Stats,
        TAG_SHUTDOWN => Request::Shutdown,
        tag => return Err(WireError::BadTag { tag }),
    };
    c.finish()?;
    Ok(req)
}

/// Encode a response payload (no length prefix).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut out = Vec::with_capacity(48);
    match resp {
        Response::Ack { seq } => {
            out.push(TAG_ACK);
            put_u64(&mut out, *seq);
        }
        Response::Rebalanced {
            seq,
            moves,
            makespan,
            degraded,
            tier,
        } => {
            out.push(TAG_REBALANCED);
            put_u64(&mut out, *seq);
            put_u64(&mut out, *moves);
            put_u64(&mut out, *makespan);
            out.push(u8::from(*degraded));
            put_string(&mut out, tier);
        }
        Response::Reject {
            code,
            retry_after,
            detail,
        } => {
            out.push(TAG_REJECT);
            out.push(code.to_byte());
            put_u64(&mut out, *retry_after);
            put_string(&mut out, detail);
        }
        Response::TenantState {
            tenant,
            jobs,
            makespan,
            banked,
            digest,
        } => {
            out.push(TAG_TENANT_STATE);
            for v in [tenant, jobs, makespan, banked, digest] {
                put_u64(&mut out, *v);
            }
        }
        Response::Located { proc } => {
            out.push(TAG_LOCATED);
            put_u64(&mut out, *proc);
        }
        Response::NotFound => out.push(TAG_NOT_FOUND),
        Response::ServerStats {
            tenants,
            applied,
            snapshots,
            recoveries,
            replayed,
            epochs,
            rejects,
            degraded,
        } => {
            out.push(TAG_SERVER_STATS);
            for v in [
                tenants, applied, snapshots, recoveries, replayed, epochs, rejects, degraded,
            ] {
                put_u64(&mut out, *v);
            }
        }
        Response::Error { detail } => {
            out.push(TAG_ERROR);
            put_string(&mut out, detail);
        }
    }
    out
}

/// Decode a response payload.
pub fn decode_response(payload: &[u8]) -> Result<Response, WireError> {
    let mut c = Cursor::new(payload);
    let tag = c.u8("tag")?;
    let resp = match tag {
        TAG_ACK => Response::Ack { seq: c.u64("seq")? },
        TAG_REBALANCED => Response::Rebalanced {
            seq: c.u64("seq")?,
            moves: c.u64("moves")?,
            makespan: c.u64("makespan")?,
            degraded: c.u8("degraded")? != 0,
            tier: c.string("tier")?,
        },
        TAG_REJECT => Response::Reject {
            code: RejectCode::from_byte(c.u8("code")?).ok_or(WireError::BadValue {
                field: "reject.code",
            })?,
            retry_after: c.u64("retry_after")?,
            detail: c.string("detail")?,
        },
        TAG_TENANT_STATE => Response::TenantState {
            tenant: c.u64("tenant")?,
            jobs: c.u64("jobs")?,
            makespan: c.u64("makespan")?,
            banked: c.u64("banked")?,
            digest: c.u64("digest")?,
        },
        TAG_LOCATED => Response::Located {
            proc: c.u64("proc")?,
        },
        TAG_NOT_FOUND => Response::NotFound,
        TAG_SERVER_STATS => Response::ServerStats {
            tenants: c.u64("tenants")?,
            applied: c.u64("applied")?,
            snapshots: c.u64("snapshots")?,
            recoveries: c.u64("recoveries")?,
            replayed: c.u64("replayed")?,
            epochs: c.u64("epochs")?,
            rejects: c.u64("rejects")?,
            degraded: c.u64("degraded")?,
        },
        TAG_ERROR => Response::Error {
            detail: c.string("detail")?,
        },
        tag => return Err(WireError::BadTag { tag }),
    };
    c.finish()?;
    Ok(resp)
}

/// Write one `len:u32be | payload` frame.
///
/// # Errors
///
/// [`WireError::Oversize`] if the payload exceeds [`MAX_FRAME`], else any
/// underlying I/O error.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> Result<(), WireError> {
    if payload.len() > MAX_FRAME {
        return Err(WireError::Oversize {
            declared: payload.len() as u64,
        });
    }
    let len = (payload.len() as u32).to_be_bytes();
    w.write_all(&len)
        .map_err(|e| WireError::Io(e.to_string()))?;
    w.write_all(payload)
        .map_err(|e| WireError::Io(e.to_string()))?;
    w.flush().map_err(|e| WireError::Io(e.to_string()))?;
    Ok(())
}

/// Read one frame's payload.
///
/// # Errors
///
/// [`WireError::Closed`] on clean EOF at a frame boundary,
/// [`WireError::Oversize`] for a hostile length prefix (before any
/// allocation), [`WireError::Io`] for everything else including EOF
/// mid-frame.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Vec<u8>, WireError> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while filled < len_buf.len() {
        match r.read(&mut len_buf[filled..]) {
            Ok(0) if filled == 0 => return Err(WireError::Closed),
            Ok(0) => return Err(WireError::Io("eof inside frame header".into())),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::Io(e.to_string())),
        }
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(WireError::Oversize {
            declared: len as u64,
        });
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)
        .map_err(|e| WireError::Io(e.to_string()))?;
    Ok(payload)
}

/// Encode + frame a request in one buffer (for single-write sends).
pub fn frame_request(req: &Request) -> Vec<u8> {
    let payload = encode_request(req);
    let mut out = Vec::with_capacity(payload.len() + 4);
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(&payload);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn requests() -> Vec<Request> {
        vec![
            Request::Arrive {
                tenant: 7,
                key: u64::MAX,
                size: 3,
                cost: 0,
                proc: 2,
            },
            Request::Depart { tenant: 0, key: 9 },
            Request::Rebalance {
                tenant: 1,
                budget: BudgetSpec::Moves(4),
            },
            Request::Rebalance {
                tenant: 2,
                budget: BudgetSpec::Cost(u64::MAX),
            },
            Request::Query { tenant: 3 },
            Request::Lookup { tenant: 4, key: 5 },
            Request::Stats,
            Request::Shutdown,
        ]
    }

    fn responses() -> Vec<Response> {
        vec![
            Response::Ack { seq: 1 },
            Response::Rebalanced {
                seq: 2,
                moves: 3,
                makespan: 44,
                degraded: true,
                tier: "greedy".into(),
            },
            Response::Reject {
                code: RejectCode::BankExhausted,
                retry_after: 1,
                detail: "bank empty".into(),
            },
            Response::TenantState {
                tenant: 1,
                jobs: 10,
                makespan: 7,
                banked: 3,
                digest: 0xdead_beef,
            },
            Response::Located { proc: 2 },
            Response::NotFound,
            Response::ServerStats {
                tenants: 1,
                applied: 2,
                snapshots: 3,
                recoveries: 4,
                replayed: 5,
                epochs: 6,
                rejects: 7,
                degraded: 8,
            },
            Response::Error {
                detail: "oops".into(),
            },
        ]
    }

    #[test]
    fn requests_round_trip() {
        for req in requests() {
            let payload = encode_request(&req);
            assert_eq!(decode_request(&payload).unwrap(), req, "{req:?}");
        }
    }

    #[test]
    fn responses_round_trip() {
        for resp in responses() {
            let payload = encode_response(&resp);
            assert_eq!(decode_response(&payload).unwrap(), resp, "{resp:?}");
        }
    }

    #[test]
    fn every_truncation_is_a_clean_error() {
        for req in requests() {
            let payload = encode_request(&req);
            for cut in 0..payload.len() {
                let err = decode_request(&payload[..cut]);
                assert!(err.is_err(), "{req:?} cut at {cut} decoded");
            }
        }
        for resp in responses() {
            let payload = encode_response(&resp);
            for cut in 0..payload.len() {
                assert!(decode_response(&payload[..cut]).is_err());
            }
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        for req in requests() {
            let mut payload = encode_request(&req);
            payload.push(0);
            assert_eq!(
                decode_request(&payload).unwrap_err(),
                WireError::Trailing { extra: 1 }
            );
        }
    }

    #[test]
    fn unknown_tags_and_values_are_rejected() {
        assert_eq!(
            decode_request(&[0x7f]).unwrap_err(),
            WireError::BadTag { tag: 0x7f }
        );
        assert_eq!(
            decode_response(&[0x01]).unwrap_err(),
            WireError::BadTag { tag: 0x01 }
        );
        // Rebalance with an unknown budget kind.
        let mut payload = vec![TAG_REBALANCE];
        payload.extend_from_slice(&7u64.to_be_bytes());
        payload.push(9);
        payload.extend_from_slice(&1u64.to_be_bytes());
        assert_eq!(
            decode_request(&payload).unwrap_err(),
            WireError::BadValue {
                field: "budget.kind"
            }
        );
    }

    #[test]
    fn frames_round_trip_and_enforce_the_size_cap() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap_err(), WireError::Closed);

        let huge = vec![0u8; MAX_FRAME + 1];
        assert!(matches!(
            write_frame(&mut Vec::new(), &huge),
            Err(WireError::Oversize { .. })
        ));
        let mut hostile = Vec::new();
        hostile.extend_from_slice(&(u32::MAX).to_be_bytes());
        assert!(matches!(
            read_frame(&mut &hostile[..]),
            Err(WireError::Oversize { .. })
        ));
    }

    #[test]
    fn eof_inside_a_frame_is_io_not_closed() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"abcdef").unwrap();
        for cut in 1..buf.len() {
            let err = read_frame(&mut &buf[..cut]).unwrap_err();
            assert!(matches!(err, WireError::Io(_)), "cut {cut}: {err:?}");
        }
    }

    #[test]
    fn oversize_strings_are_truncated_at_a_char_boundary() {
        let detail: String = "é".repeat(40_000);
        let payload = encode_response(&Response::Error { detail });
        let decoded = decode_response(&payload).unwrap();
        match decoded {
            Response::Error { detail } => {
                assert!(detail.len() <= u16::MAX as usize);
                assert!(!detail.is_empty());
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
