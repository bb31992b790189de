//! Versioned tenant-farm snapshots: atomic write, typed load.
//!
//! A snapshot captures every tenant's full rebalancer state (live jobs
//! with placements, MoveBank audit trail, event counters) plus the number
//! of WAL records already folded in. Recovery loads the newest snapshot,
//! rebuilds each farm via [`lrb_core::online::OnlineRebalancer::restore`],
//! and replays the WAL suffix past `applied`.
//!
//! Writes go to a temp file in the same directory followed by a rename,
//! so a SIGKILL mid-snapshot leaves either the old snapshot or the new
//! one — never a torn file. The JSON schema (`SERVE_2`) is stated once, by
//! [`SnapshotDoc`], [`TenantSnap`] and [`JobSnap`]: they reject unknown
//! fields on decode, missing fields are errors, and [`load`] compares
//! `schema_version`, so a drifted document at any level is refused. The
//! committed golden `crates/lrb-cli/tests/golden/SERVE_2.json` pins the
//! schema against accidental change.

use std::path::{Path, PathBuf};

use lrb_core::model::{Job, ProcId};
use lrb_core::online::{JobKey, MoveBank, OnlineRebalancer, OnlineStats};
use serde::{Deserialize, Serialize};

/// Snapshot schema version (`SERVE_2`). v2: tenants no longer carry the
/// two threshold-ladder cache counters.
pub const SERVE_SCHEMA_VERSION: u32 = 2;

/// One live job in a snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct JobSnap {
    /// Caller-chosen job key.
    pub key: u64,
    /// Job size.
    pub size: u64,
    /// Relocation cost.
    pub cost: u64,
    /// Current processor.
    pub proc: u64,
}

/// One tenant farm in a snapshot.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct TenantSnap {
    /// Tenant id.
    pub tenant: u64,
    /// Processors in the farm.
    pub procs: u64,
    /// Banked move-budget units.
    pub bank_balance: u64,
    /// Bank accrual per rebalance event.
    pub bank_accrual: u64,
    /// Bank balance ceiling.
    pub bank_cap: u64,
    /// Lifetime units credited.
    pub bank_total_accrued: u64,
    /// Lifetime units debited.
    pub bank_total_spent: u64,
    /// Events applied.
    pub events: u64,
    /// Arrive events applied.
    pub arrivals: u64,
    /// Depart events applied.
    pub departures: u64,
    /// Rebalance events applied.
    pub rebalances: u64,
    /// Jobs migrated.
    pub moves_performed: u64,
    /// Live jobs, ascending by key.
    pub jobs: Vec<JobSnap>,
}

/// A full snapshot document.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct SnapshotDoc {
    /// Always [`SERVE_SCHEMA_VERSION`].
    pub schema_version: u32,
    /// WAL records already folded into this snapshot; recovery replays
    /// records `applied + 1 ..`.
    pub applied: u64,
    /// Every tenant farm, ascending by tenant id.
    pub tenants: Vec<TenantSnap>,
}

/// Snapshot I/O and schema errors.
#[derive(Debug)]
pub enum SnapshotError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// JSON parse/encode failure or schema violation.
    Schema(String),
    /// A tenant's persisted state could not be rebuilt.
    Restore(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot io: {e}"),
            SnapshotError::Schema(e) => write!(f, "snapshot schema: {e}"),
            SnapshotError::Restore(e) => write!(f, "snapshot restore: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// Capture one tenant farm.
pub fn capture_tenant(tenant: u64, farm: &OnlineRebalancer) -> TenantSnap {
    let bank = farm.bank();
    let stats = farm.stats();
    let jobs = farm
        .keys()
        .iter()
        .filter_map(|&k| {
            let job = farm.job(k)?;
            let proc = farm.proc_of(k)?;
            Some(JobSnap {
                key: k,
                size: job.size,
                cost: job.cost,
                proc: proc as u64,
            })
        })
        .collect();
    TenantSnap {
        tenant,
        procs: farm.num_procs() as u64,
        bank_balance: bank.balance(),
        bank_accrual: bank.accrual(),
        bank_cap: bank.cap(),
        bank_total_accrued: bank.total_accrued(),
        bank_total_spent: bank.total_spent(),
        events: stats.events,
        arrivals: stats.arrivals,
        departures: stats.departures,
        rebalances: stats.rebalances,
        moves_performed: stats.moves_performed,
        jobs,
    }
}

/// Rebuild one tenant farm from its snapshot.
pub fn restore_tenant(snap: &TenantSnap) -> Result<OnlineRebalancer, SnapshotError> {
    let jobs: Vec<(JobKey, Job, ProcId)> = snap
        .jobs
        .iter()
        .map(|j| {
            (
                j.key,
                Job::with_cost(j.size, j.cost),
                // Procs were validated on admission; clamp defensively so a
                // hand-edited snapshot fails in restore(), not via indexing.
                usize::try_from(j.proc).unwrap_or(usize::MAX),
            )
        })
        .collect();
    let bank = MoveBank::from_parts(
        snap.bank_balance,
        snap.bank_accrual,
        snap.bank_cap,
        snap.bank_total_accrued,
        snap.bank_total_spent,
    );
    let stats = OnlineStats {
        events: snap.events,
        arrivals: snap.arrivals,
        departures: snap.departures,
        rebalances: snap.rebalances,
        moves_performed: snap.moves_performed,
    };
    let procs = usize::try_from(snap.procs)
        .ok()
        .filter(|&p| p > 0)
        .ok_or_else(|| SnapshotError::Restore(format!("tenant {}: bad procs", snap.tenant)))?;
    OnlineRebalancer::restore(procs, &jobs, bank, stats)
        .map_err(|e| SnapshotError::Restore(format!("tenant {}: {e}", snap.tenant)))
}

/// Canonical snapshot path inside a data directory.
pub fn snapshot_path(data_dir: &Path) -> PathBuf {
    data_dir.join("snapshot.json")
}

/// Write `doc` atomically (temp file + rename).
pub fn write(data_dir: &Path, doc: &SnapshotDoc) -> Result<(), SnapshotError> {
    let json = serde_json::to_string_pretty(doc)
        .map_err(|e| SnapshotError::Schema(format!("encode: {e}")))?;
    let path = snapshot_path(data_dir);
    let tmp = data_dir.join("snapshot.json.tmp");
    std::fs::write(&tmp, json.as_bytes())?;
    std::fs::rename(&tmp, &path)?;
    Ok(())
}

/// Load the snapshot in `data_dir`, if one exists. A document that does
/// not decode into [`SnapshotDoc`], or carries another `schema_version`,
/// is a [`SnapshotError::Schema`].
pub fn load(data_dir: &Path) -> Result<Option<SnapshotDoc>, SnapshotError> {
    let path = snapshot_path(data_dir);
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    let doc: SnapshotDoc =
        serde_json::from_str(&text).map_err(|e| SnapshotError::Schema(e.to_string()))?;
    if doc.schema_version != SERVE_SCHEMA_VERSION {
        return Err(SnapshotError::Schema(format!(
            "schema_version {}, expected {SERVE_SCHEMA_VERSION}",
            doc.schema_version
        )));
    }
    Ok(Some(doc))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrb_core::model::Budget;
    use lrb_core::online::BankConfig;

    fn farm() -> OnlineRebalancer {
        let mut f = OnlineRebalancer::new(
            3,
            BankConfig {
                accrual: 2,
                cap: 6,
                initial: 3,
            },
        )
        .unwrap();
        for (key, size, proc) in [(5u64, 9u64, 0), (2, 4, 0), (8, 3, 1)] {
            f.arrive(key, Job::with_cost(size, 1), proc).unwrap();
        }
        f.rebalance(Budget::Moves(1)).unwrap();
        f
    }

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("lrb-serve-snapshot-tests")
            .join(format!("{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn capture_restore_round_trips_bit_identically() {
        let live = farm();
        let snap = capture_tenant(7, &live);
        let restored = restore_tenant(&snap).unwrap();
        assert_eq!(restored.instance(), live.instance());
        assert_eq!(restored.bank(), live.bank());
        assert_eq!(restored.stats(), live.stats());
    }

    #[test]
    fn write_load_round_trips_and_validates() {
        let dir = tmpdir("roundtrip");
        let doc = SnapshotDoc {
            schema_version: SERVE_SCHEMA_VERSION,
            applied: 4,
            tenants: vec![capture_tenant(0, &farm())],
        };
        write(&dir, &doc).unwrap();
        let loaded = load(&dir).unwrap().unwrap();
        assert_eq!(loaded, doc);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_snapshot_is_none_and_garbage_is_an_error() {
        let dir = tmpdir("missing");
        assert!(load(&dir).unwrap().is_none());
        let load_err = |text: &str| {
            std::fs::write(snapshot_path(&dir), text).unwrap();
            match load(&dir) {
                Err(SnapshotError::Schema(e)) => e,
                other => panic!("expected schema error, got {other:?}"),
            }
        };
        load_err("{not json");
        // Unknown field → schema violation.
        let err = load_err(r#"{"schema_version": 1, "applied": 0, "tenants": [], "extra": 1}"#);
        assert!(err.contains("unknown field 'extra'"), "{err}");

        // The same drift one and two levels down, named by its record.
        let doc = SnapshotDoc {
            schema_version: SERVE_SCHEMA_VERSION,
            applied: 4,
            tenants: vec![capture_tenant(0, &farm()), capture_tenant(3, &farm())],
        };
        let good = serde_json::to_string(&doc).unwrap();
        let second_tenant = good.match_indices(r#""tenant":3"#).next().unwrap().0;
        let (head, tail) = good.split_at(second_tenant);
        let tenant_drift = |from: &str, to: &str| format!("{head}{}", tail.replacen(from, to, 1));
        let err = load_err(&tenant_drift(r#""procs":3"#, r#""procs":3,"extra":1"#));
        assert!(err.contains("tenants[1]"), "{err}");
        assert!(err.contains("unknown field 'extra'"), "{err}");
        let err = load_err(&tenant_drift(r#""procs":3,"#, ""));
        assert!(err.contains("tenants[1]"), "{err}");
        assert!(err.contains("missing field 'procs'"), "{err}");
        let err = load_err(&tenant_drift(r#""cost":1,"#, r#""cost":1,"extra":1,"#));
        assert!(err.contains("tenants[1].jobs[0]"), "{err}");
        assert!(err.contains("unknown field 'extra'"), "{err}");
        let err = load_err(&tenant_drift(r#""cost":1,"#, ""));
        assert!(err.contains("tenants[1].jobs[0]"), "{err}");
        assert!(err.contains("missing field 'cost'"), "{err}");

        // A well-formed document at the retired version 1.
        let err = load_err(&good.replacen(r#""schema_version":2"#, r#""schema_version":1"#, 1));
        assert!(err.contains("schema_version 1"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
