//! Write-ahead event log: append-only, checksummed, torn-tail tolerant.
//!
//! Every mutating event is appended (and flushed to the kernel) *before*
//! it is applied or acknowledged, so a SIGKILL at any instant loses at
//! most events that were never acked. Records are individually
//! checksummed; recovery scans the log from the start and truncates at
//! the first incomplete or corrupt record (the torn tail a kill mid-write
//! leaves behind). Everything before the tear is replayable by
//! construction: admission control validates events *before* they are
//! logged, so a logged event always applies cleanly.
//!
//! ## Record layout
//!
//! ```text
//! record  := len:u32be checksum:u64be payload
//! payload := one encoded LoggedEvent (see `encode_event`)
//! ```
//!
//! The checksum is a splitmix64 fold of the payload — not cryptographic,
//! but it reliably catches the partial writes and zero-fill tails that
//! crash recovery actually sees.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use lrb_core::model::Budget;
use lrb_obs::splitmix64;

use crate::wire::{put_budget, put_u64, take_budget, BudgetSpec, Cursor, WireError};

/// Ceiling on one WAL record's payload; mirrors the wire frame cap.
pub const MAX_RECORD: usize = crate::wire::MAX_FRAME;

/// A mutating event, as logged. This is the *post-admission* form: the
/// rebalance work limit is resolved at admission time and recorded, so
/// replay never re-derives scheduling decisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoggedEvent {
    /// Job arrival.
    Arrive {
        /// Tenant farm id.
        tenant: u64,
        /// Job key.
        key: u64,
        /// Job size.
        size: u64,
        /// Job relocation cost.
        cost: u64,
        /// Initial processor.
        proc: u64,
    },
    /// Job departure.
    Depart {
        /// Tenant farm id.
        tenant: u64,
        /// Job key.
        key: u64,
    },
    /// Rebalance with its admission-time scheduling decision frozen in.
    Rebalance {
        /// Tenant farm id.
        tenant: u64,
        /// Requested relocation budget (pre-bank-clamp).
        budget: BudgetSpec,
        /// Solver work budget: the FallbackChain runs under
        /// `WorkBudget::new(work_limit)`; `u64::MAX` is unlimited.
        work_limit: u64,
    },
}

impl LoggedEvent {
    /// The tenant this event touches.
    pub fn tenant(&self) -> u64 {
        match *self {
            LoggedEvent::Arrive { tenant, .. }
            | LoggedEvent::Depart { tenant, .. }
            | LoggedEvent::Rebalance { tenant, .. } => tenant,
        }
    }
}

/// Convert a wire budget into the solver's `Budget`.
pub fn to_budget(spec: BudgetSpec) -> Budget {
    match spec {
        // usize is 64-bit on every supported target; saturate defensively.
        BudgetSpec::Moves(k) => Budget::Moves(usize::try_from(k).unwrap_or(usize::MAX)),
        BudgetSpec::Cost(c) => Budget::Cost(c),
    }
}

const EV_ARRIVE: u8 = 1;
const EV_DEPART: u8 = 2;
const EV_REBALANCE: u8 = 3;

/// Encode one event as a WAL payload: the tag, then big-endian `u64`s,
/// with a rebalance's budget in its wire form (kind byte, then amount).
pub fn encode_event(ev: &LoggedEvent) -> Vec<u8> {
    let mut out = Vec::with_capacity(48);
    match *ev {
        LoggedEvent::Arrive {
            tenant,
            key,
            size,
            cost,
            proc,
        } => {
            out.push(EV_ARRIVE);
            for v in [tenant, key, size, cost, proc] {
                put_u64(&mut out, v);
            }
        }
        LoggedEvent::Depart { tenant, key } => {
            out.push(EV_DEPART);
            put_u64(&mut out, tenant);
            put_u64(&mut out, key);
        }
        LoggedEvent::Rebalance {
            tenant,
            budget,
            work_limit,
        } => {
            out.push(EV_REBALANCE);
            put_u64(&mut out, tenant);
            put_budget(&mut out, budget);
            put_u64(&mut out, work_limit);
        }
    }
    out
}

/// Decode one WAL payload.
pub fn decode_event(payload: &[u8]) -> Result<LoggedEvent, WireError> {
    let mut c = Cursor::new(payload);
    let ev = match c.u8("event.tag")? {
        EV_ARRIVE => LoggedEvent::Arrive {
            tenant: c.u64("tenant")?,
            key: c.u64("key")?,
            size: c.u64("size")?,
            cost: c.u64("cost")?,
            proc: c.u64("proc")?,
        },
        EV_DEPART => LoggedEvent::Depart {
            tenant: c.u64("tenant")?,
            key: c.u64("key")?,
        },
        EV_REBALANCE => LoggedEvent::Rebalance {
            tenant: c.u64("tenant")?,
            budget: take_budget(&mut c)?,
            work_limit: c.u64("work_limit")?,
        },
        tag => return Err(WireError::BadTag { tag }),
    };
    c.finish()?;
    Ok(ev)
}

/// Checksum of a record payload.
fn checksum(payload: &[u8]) -> u64 {
    let mut h = splitmix64(payload.len() as u64);
    for chunk in payload.chunks(8) {
        let mut a = [0u8; 8];
        a[..chunk.len()].copy_from_slice(chunk);
        h = splitmix64(h ^ u64::from_be_bytes(a));
    }
    h
}

/// What opening a WAL found.
#[derive(Debug)]
pub struct WalRecovery {
    /// Every intact record, in log order.
    pub events: Vec<LoggedEvent>,
    /// Bytes truncated off a torn tail (0 for a clean log).
    pub torn_bytes: u64,
}

/// An open write-ahead log.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    records: u64,
}

impl Wal {
    /// Open (or create) the log at `path`, scanning existing records and
    /// truncating any torn tail so the file ends on a record boundary.
    pub fn open(path: &Path) -> std::io::Result<(Wal, WalRecovery)> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let mut events = Vec::new();
        let mut at = 0usize;
        let mut good_end = 0usize;
        loop {
            if at + 12 > bytes.len() {
                break;
            }
            let len = u32::from_be_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]])
                as usize;
            if len > MAX_RECORD || at + 12 + len > bytes.len() {
                break;
            }
            let mut sum = [0u8; 8];
            sum.copy_from_slice(&bytes[at + 4..at + 12]);
            let payload = &bytes[at + 12..at + 12 + len];
            if u64::from_be_bytes(sum) != checksum(payload) {
                break;
            }
            let Ok(ev) = decode_event(payload) else {
                break;
            };
            events.push(ev);
            at += 12 + len;
            good_end = at;
        }
        let torn_bytes = (bytes.len() - good_end) as u64;
        if torn_bytes > 0 {
            file.set_len(good_end as u64)?;
        }
        file.seek(SeekFrom::Start(good_end as u64))?;
        let records = events.len() as u64;
        Ok((
            Wal {
                file,
                path: path.to_path_buf(),
                records,
            },
            WalRecovery { events, torn_bytes },
        ))
    }

    /// Append `events` as one buffered write + flush. On success every
    /// record has reached the kernel (surviving SIGKILL; a power-loss
    /// fsync is out of scope for the fault drills, which kill processes,
    /// not hosts). Returns the sequence number of the *first* appended
    /// record; subsequent events in the batch take consecutive numbers.
    pub fn append_batch(&mut self, events: &[LoggedEvent]) -> std::io::Result<u64> {
        let mut buf = Vec::with_capacity(events.len() * 60);
        for ev in events {
            let payload = encode_event(ev);
            buf.extend_from_slice(&(payload.len() as u32).to_be_bytes());
            buf.extend_from_slice(&checksum(&payload).to_be_bytes());
            buf.extend_from_slice(&payload);
        }
        self.file.write_all(&buf)?;
        self.file.flush()?;
        let first = self.records + 1;
        self.records += events.len() as u64;
        Ok(first)
    }

    /// Records in the log (== the sequence number of the last record).
    pub fn records(&self) -> u64 {
        self.records
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events() -> Vec<LoggedEvent> {
        vec![
            LoggedEvent::Arrive {
                tenant: 1,
                key: 10,
                size: 5,
                cost: 1,
                proc: 0,
            },
            LoggedEvent::Depart { tenant: 1, key: 10 },
            LoggedEvent::Rebalance {
                tenant: 2,
                budget: BudgetSpec::Moves(3),
                work_limit: u64::MAX,
            },
            LoggedEvent::Rebalance {
                tenant: 2,
                budget: BudgetSpec::Cost(9),
                work_limit: 20_000,
            },
        ]
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("lrb-serve-wal-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!(
            "{name}-{:x}",
            splitmix64(std::process::id() as u64)
        ))
    }

    #[test]
    fn events_round_trip() {
        for ev in events() {
            assert_eq!(decode_event(&encode_event(&ev)).unwrap(), ev, "{ev:?}");
        }
    }

    #[test]
    fn append_then_reopen_replays_everything() {
        let path = tmp("roundtrip");
        std::fs::remove_file(&path).ok();
        let (mut wal, rec) = Wal::open(&path).unwrap();
        assert!(rec.events.is_empty());
        assert_eq!(wal.append_batch(&events()).unwrap(), 1);
        assert_eq!(wal.records(), 4);
        // Appends continue the sequence across reopens.
        drop(wal);
        let (mut wal, rec) = Wal::open(&path).unwrap();
        assert_eq!(rec.events, events());
        assert_eq!(rec.torn_bytes, 0);
        assert_eq!(wal.append_batch(&events()[..1]).unwrap(), 5);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tails_are_truncated_at_every_cut_point() {
        let path = tmp("torn");
        std::fs::remove_file(&path).ok();
        let (mut wal, _) = Wal::open(&path).unwrap();
        wal.append_batch(&events()).unwrap();
        drop(wal);
        let full = std::fs::read(&path).unwrap();
        for cut in 0..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let (wal, rec) = Wal::open(&path).unwrap();
            // Every recovered prefix is a prefix of the original events.
            assert_eq!(rec.events[..], events()[..rec.events.len()]);
            assert_eq!(wal.records(), rec.events.len() as u64);
            // The file now ends exactly at the last intact record.
            let len = std::fs::metadata(&path).unwrap().len();
            assert_eq!(len + rec.torn_bytes, cut as u64);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_middle_bytes_stop_replay_at_the_corruption() {
        let path = tmp("corrupt");
        std::fs::remove_file(&path).ok();
        let (mut wal, _) = Wal::open(&path).unwrap();
        wal.append_batch(&events()).unwrap();
        drop(wal);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one payload byte of the second record: recovery keeps
        // record 1 and discards the rest.
        let first_len = 12 + u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize;
        bytes[first_len + 12] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let (_, rec) = Wal::open(&path).unwrap();
        assert_eq!(rec.events, events()[..1]);
        assert!(rec.torn_bytes > 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_and_bad_payloads_are_typed_errors() {
        for ev in events() {
            let payload = encode_event(&ev);
            for cut in 0..payload.len() {
                assert!(decode_event(&payload[..cut]).is_err(), "{ev:?} cut {cut}");
            }
            let mut long = payload.clone();
            long.push(0);
            assert!(matches!(
                decode_event(&long).unwrap_err(),
                WireError::Trailing { .. }
            ));
        }
        assert!(matches!(
            decode_event(&[99]).unwrap_err(),
            WireError::BadTag { tag: 99 }
        ));
    }
}
