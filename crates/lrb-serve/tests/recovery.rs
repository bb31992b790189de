//! In-process durability drills: the metamorphic fact gating the whole
//! subsystem is **state ≡ replay-of-survivors** — a farm recovered from
//! snapshot + WAL suffix is bit-identical (per-tenant digests) to the
//! farm that never crashed, for any crash point the torn-tail rule can
//! produce, including mid-snapshot.

use std::fs;
use std::path::PathBuf;

use lrb_serve::server::{recover, wal_path};
use lrb_serve::snapshot;
use lrb_serve::state::{splitmix64, ServeConfig, ServeState};
use lrb_serve::wal::{LoggedEvent, Wal};
use lrb_serve::wire::BudgetSpec;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lrb-serve-recovery-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn cfg() -> ServeConfig {
    ServeConfig {
        procs: 4,
        ..ServeConfig::default()
    }
}

/// A deterministic mixed workload: arrivals, departures, and rebalances
/// (engine-path and degraded) across several tenants.
fn workload(seed: u64, len: usize) -> Vec<LoggedEvent> {
    let mut events = Vec::with_capacity(len);
    let mut live: Vec<(u64, u64)> = Vec::new(); // (tenant, key)
    let mut next_key = 0u64;
    let mut h = seed;
    for step in 0..len {
        h = splitmix64(h);
        let tenant = h % 3;
        let ev = match h % 10 {
            0..=5 => {
                next_key += 1;
                live.push((tenant, next_key));
                LoggedEvent::Arrive {
                    tenant,
                    key: next_key,
                    size: h % 50 + 1,
                    cost: h % 3 + 1,
                    proc: h % 4,
                }
            }
            6 if !live.is_empty() => {
                let (t, k) = live.remove((step + live.len()) % live.len());
                LoggedEvent::Depart { tenant: t, key: k }
            }
            7 | 8 => LoggedEvent::Rebalance {
                tenant,
                budget: if h.is_multiple_of(2) {
                    BudgetSpec::Moves(h % 5 + 1)
                } else {
                    BudgetSpec::Cost(h % 9 + 1)
                },
                work_limit: u64::MAX,
            },
            _ => LoggedEvent::Rebalance {
                tenant,
                budget: BudgetSpec::Moves(h % 5 + 1),
                // Degraded admission-time grant: deterministic fallback.
                work_limit: h % 4000 + 1,
            },
        };
        events.push(ev);
    }
    // Only log events that admit cleanly: mirror admission by applying to
    // a scratch state and dropping failures.
    let mut scratch = ServeState::new(cfg());
    let mut admitted = Vec::with_capacity(events.len());
    for ev in events {
        let before = scratch.tenant_digest(ev.tenant());
        let out = scratch.apply_events(std::slice::from_ref(&ev)).remove(0);
        if matches!(out, lrb_serve::ApplyOutcome::Failed { .. }) {
            // Undo is impossible; but failures only come from departs of
            // dead keys, which leave state untouched.
            assert_eq!(scratch.tenant_digest(ev.tenant()), before);
            continue;
        }
        admitted.push(ev);
    }
    admitted
}

/// Run a workload through a live state with a real WAL, crash (drop)
/// at `crash_after` events, recover, and compare digests with the
/// uninterrupted run.
fn crash_and_recover_at(crash_after: usize) {
    let dir = temp_dir(&format!("kill-{crash_after}"));
    let events = workload(0xfeed_f00d, 60);
    let crash_after = crash_after.min(events.len());

    // Uninterrupted reference run.
    let mut reference = ServeState::new(cfg());
    for chunk in events.chunks(7) {
        reference.apply_events(chunk);
    }

    // Live run: apply + log, then "crash" after `crash_after` events.
    let (mut wal, scan) = Wal::open(&wal_path(&dir)).unwrap();
    assert!(scan.events.is_empty());
    let mut live = ServeState::new(cfg());
    for chunk in events[..crash_after].chunks(5) {
        live.apply_events(chunk);
        wal.append_batch(chunk).unwrap();
    }
    drop(wal); // SIGKILL stand-in: no snapshot, no clean shutdown

    // Recover and finish the workload on both sides.
    let (mut recovered, mut wal, report) = recover(&dir, cfg()).unwrap();
    assert_eq!(report.replayed, crash_after as u64);
    assert!(!report.had_snapshot);
    {
        let mut survivor = ServeState::new(cfg());
        for chunk in events[..crash_after].chunks(7) {
            survivor.apply_events(chunk);
        }
        assert_eq!(recovered.digests(), survivor.digests(), "at {crash_after}");
    }
    for chunk in events[crash_after..].chunks(5) {
        recovered.apply_events(chunk);
        wal.append_batch(chunk).unwrap();
    }
    assert_eq!(recovered.digests(), reference.digests(), "at {crash_after}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn recovery_is_bit_identical_for_many_crash_points() {
    for crash_after in [0, 1, 7, 23, 42, 59, 60] {
        crash_and_recover_at(crash_after);
    }
}

#[test]
fn snapshot_plus_suffix_equals_full_replay() {
    let dir = temp_dir("snapshot-suffix");
    let events = workload(0xabcd, 50);
    let (mut wal, _) = Wal::open(&wal_path(&dir)).unwrap();
    let mut live = ServeState::new(cfg());

    // Apply 30 events, snapshot, apply the rest, crash.
    live.apply_events(&events[..30]);
    wal.append_batch(&events[..30]).unwrap();
    snapshot::write(&dir, &live.capture()).unwrap();
    live.apply_events(&events[30..]);
    wal.append_batch(&events[30..]).unwrap();
    drop(wal);

    let (recovered, _wal, report) = recover(&dir, cfg()).unwrap();
    assert!(report.had_snapshot);
    assert_eq!(report.replayed, (events.len() - 30) as u64);
    assert_eq!(recovered.digests(), live.digests());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn torn_wal_tail_recovers_logged_prefix() {
    let dir = temp_dir("torn-tail");
    let events = workload(0x7777, 40);
    let (mut wal, _) = Wal::open(&wal_path(&dir)).unwrap();
    let mut live = ServeState::new(cfg());
    live.apply_events(&events);
    wal.append_batch(&events).unwrap();
    drop(wal);

    // Tear the tail mid-record: recovery must land on a record boundary
    // and replay exactly that prefix.
    let path = wal_path(&dir);
    let bytes = fs::read(&path).unwrap();
    fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();

    let (recovered, wal, report) = recover(&dir, cfg()).unwrap();
    assert!(report.torn_bytes > 0);
    let prefix = wal.records() as usize;
    assert_eq!(prefix, events.len() - 1);
    let mut survivor = ServeState::new(cfg());
    survivor.apply_events(&events[..prefix]);
    assert_eq!(recovered.digests(), survivor.digests());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn mid_snapshot_crash_is_harmless() {
    let dir = temp_dir("mid-snapshot");
    let events = workload(0x5151, 30);
    let (mut wal, _) = Wal::open(&wal_path(&dir)).unwrap();
    let mut live = ServeState::new(cfg());
    live.apply_events(&events[..20]);
    wal.append_batch(&events[..20]).unwrap();
    snapshot::write(&dir, &live.capture()).unwrap();
    live.apply_events(&events[20..]);
    wal.append_batch(&events[20..]).unwrap();
    drop(wal);

    // A crash mid-snapshot leaves a partial temp file; the committed
    // snapshot and the WAL are untouched, so recovery ignores it.
    fs::write(dir.join("snapshot.json.tmp"), b"{\"partial\":").unwrap();
    let (recovered, _wal, report) = recover(&dir, cfg()).unwrap();
    assert!(report.had_snapshot);
    assert_eq!(recovered.digests(), live.digests());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn recovery_is_deterministic() {
    let dir = temp_dir("determinism");
    let events = workload(0x9e37, 45);
    let (mut wal, _) = Wal::open(&wal_path(&dir)).unwrap();
    let mut live = ServeState::new(cfg());
    live.apply_events(&events[..25]);
    wal.append_batch(&events[..25]).unwrap();
    snapshot::write(&dir, &live.capture()).unwrap();
    live.apply_events(&events[25..]);
    wal.append_batch(&events[25..]).unwrap();
    drop(wal);

    let (a, _w1, _) = recover(&dir, cfg()).unwrap();
    let (b, _w2, _) = recover(&dir, cfg()).unwrap();
    assert_eq!(a.digests(), b.digests());
    assert_eq!(a.applied(), b.applied());
    let _ = fs::remove_dir_all(&dir);
}
