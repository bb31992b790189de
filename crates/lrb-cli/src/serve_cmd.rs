//! `lrb serve` — the crash-recoverable rebalancing daemon — and
//! `lrb loadgen` — its retrying load generator and SIGKILL chaos drill.
//!
//! `serve` binds, prints `LISTENING <port>` (flushed, so a parent process
//! can scrape the ephemeral port), then blocks in the accept loop until a
//! client sends `Shutdown`. `serve --digest` skips listening entirely:
//! it recovers the data directory offline (snapshot + WAL replay), checks
//! any on-disk snapshot against the pinned schema, and prints per-tenant
//! digests as JSON — the replay-equivalence oracle used by the chaos
//! drill and `scripts/check.sh`.

use std::io::Write;
use std::path::PathBuf;
use std::process::Command;

use lrb_harness::loadgen::{DrillConfig, LoadGenConfig, LoadGenReport};
use lrb_harness::{run_chaos_drill, run_loadgen, ClientConfig};
use lrb_serve::{recover, ServeConfig, ServeState, Server};

use crate::args::Args;
use crate::commands::CmdResult;

/// Build a [`ServeConfig`] from flags; every field defaults to
/// [`ServeConfig::default`] so the daemon and the drill's respawn command
/// agree without repeating numbers.
fn serve_config(args: &Args) -> Result<ServeConfig, String> {
    let mut cfg = ServeConfig::default();
    cfg.procs = args.get_or("procs", cfg.procs).map_err(|e| e.to_string())?;
    cfg.threads = args
        .get_or("threads", cfg.threads)
        .map_err(|e| e.to_string())?;
    cfg.queue_bound = args
        .get_or("queue-bound", cfg.queue_bound)
        .map_err(|e| e.to_string())?;
    cfg.tenant_pending = args
        .get_or("tenant-pending", cfg.tenant_pending)
        .map_err(|e| e.to_string())?;
    cfg.batch_max = args
        .get_or("batch-max", cfg.batch_max)
        .map_err(|e| e.to_string())?;
    cfg.snapshot_every = args
        .get_or("snapshot-every", cfg.snapshot_every)
        .map_err(|e| e.to_string())?;
    cfg.max_tenants = args
        .get_or("max-tenants", cfg.max_tenants)
        .map_err(|e| e.to_string())?;
    cfg.max_jobs = args
        .get_or("max-jobs", cfg.max_jobs)
        .map_err(|e| e.to_string())?;
    cfg.exhaust_rate = args
        .get_or("exhaust-rate", cfg.exhaust_rate)
        .map_err(|e| e.to_string())?;
    cfg.degraded_work = args
        .get_or("degraded-work", cfg.degraded_work)
        .map_err(|e| e.to_string())?;
    cfg.bank.accrual = args
        .get_or("bank-accrual", cfg.bank.accrual)
        .map_err(|e| e.to_string())?;
    cfg.bank.cap = args
        .get_or("bank-cap", cfg.bank.cap)
        .map_err(|e| e.to_string())?;
    cfg.bank.initial = args
        .get_or("bank-initial", cfg.bank.initial)
        .map_err(|e| e.to_string())?;
    cfg.seed = args.get_or("seed", cfg.seed).map_err(|e| e.to_string())?;
    if cfg.procs == 0 {
        return Err("--procs must be >= 1".to_string());
    }
    if !(0.0..=1.0).contains(&cfg.exhaust_rate) {
        return Err(format!(
            "--exhaust-rate {}: expected a probability in [0, 1]",
            cfg.exhaust_rate
        ));
    }
    Ok(cfg)
}

/// Render recovered state as the digest JSON consumed by the smoke gate.
fn digest_json(state: &ServeState, replayed: u64, had_snapshot: bool) -> String {
    let digests: Vec<String> = state
        .digests()
        .into_iter()
        .map(|(tenant, d)| format!(r#"{{"digest": "{d:#018x}", "tenant": {tenant}}}"#))
        .collect();
    format!(
        "{{\"applied\": {}, \"digests\": [{}], \"had_snapshot\": {}, \"replayed\": {}}}",
        state.applied(),
        digests.join(", "),
        had_snapshot,
        replayed,
    )
}

/// `lrb serve --data DIR [--addr HOST:PORT] [--digest] [config flags]`
pub fn serve_cmd(args: &Args) -> CmdResult {
    let data: PathBuf = args.require("data").map_err(|e| e.to_string())?.into();
    let addr = args.get("addr").unwrap_or("127.0.0.1:0").to_string();
    let digest_only = args.has("digest");
    let cfg = serve_config(args)?;
    args.reject_unknown().map_err(|e| e.to_string())?;

    if digest_only {
        // Offline: recover exactly as the daemon would; the snapshot load
        // refuses any document that does not decode into `SnapshotDoc`.
        let (state, _wal, recovery) = recover(&data, cfg).map_err(|e| e.to_string())?;
        return Ok(digest_json(
            &state,
            recovery.replayed,
            recovery.had_snapshot,
        ));
    }

    let server = Server::bind(&data, &addr, cfg).map_err(|e| e.to_string())?;
    let port = server.port().map_err(|e| e.to_string())?;
    let recovery = server.recovery();
    // The port line is the spawn handshake: parents block on it.
    println!("LISTENING {port}");
    println!(
        "recovered: snapshot={} replayed={} torn_bytes={}",
        recovery.had_snapshot, recovery.replayed, recovery.torn_bytes
    );
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    server.run().map_err(|e| e.to_string())?;
    Ok("serve: clean shutdown".to_string())
}

/// Render a loadgen report; used by both the plain and drill paths.
fn render_loadgen(r: &LoadGenReport) -> String {
    format!(
        "loadgen: acked={} rejected={} retries={} in_doubt={} lost={} ghosts={} tenants_digested={}",
        r.acked,
        r.rejected,
        r.retries,
        r.in_doubt,
        r.lost.len(),
        r.ghosts.len(),
        r.digests.len(),
    )
}

/// `lrb loadgen --addr HOST:PORT [workload flags]` or
/// `lrb loadgen --drill --data DIR [drill flags]`
pub fn loadgen_cmd(args: &Args) -> CmdResult {
    if args.has("drill") {
        return drill_cmd(args);
    }
    let addr = args.require("addr").map_err(|e| e.to_string())?.to_string();
    let seed: u64 = args.get_or("seed", 0).map_err(|e| e.to_string())?;
    let cfg = LoadGenConfig {
        addr,
        tenants: args.get_or("tenants", 8).map_err(|e| e.to_string())?,
        events_per_tenant: args.get_or("events", 64).map_err(|e| e.to_string())?,
        procs: args.get_or("procs", 4u64).map_err(|e| e.to_string())?,
        workers: args.get_or("workers", 4).map_err(|e| e.to_string())?,
        seed,
        key_space: args.get_or("key-space", 1).map_err(|e| e.to_string())?,
        client: ClientConfig {
            retries: args.get_or("retries", 8).map_err(|e| e.to_string())?,
            seed: seed ^ 0x10ad_9e57,
            ..ClientConfig::default()
        },
        inject_frame_errors: args.has("inject-frame-errors"),
    };
    args.reject_unknown().map_err(|e| e.to_string())?;
    let report = run_loadgen(&cfg).map_err(|e| e.to_string())?;
    let summary = render_loadgen(&report);
    if report.lost.is_empty() && report.ghosts.is_empty() {
        Ok(summary)
    } else {
        Err(format!("acked events lost or resurrected — {summary}"))
    }
}

/// The end-to-end fault drill: repeatedly SIGKILL the daemon mid-load and
/// assert no acked event is lost and restart replay is bit-identical.
fn drill_cmd(args: &Args) -> CmdResult {
    let data: PathBuf = args.require("data").map_err(|e| e.to_string())?.into();
    let serve = serve_config(args)?;
    let cfg = DrillConfig {
        data_dir: data.clone(),
        serve,
        cycles: args.get_or("cycles", 8).map_err(|e| e.to_string())?,
        tenants: args.get_or("tenants", 6).map_err(|e| e.to_string())?,
        events_per_tenant: args.get_or("events", 40).map_err(|e| e.to_string())?,
        workers: args.get_or("workers", 3).map_err(|e| e.to_string())?,
        seed: args.get_or("seed", 0).map_err(|e| e.to_string())?,
        kill_after_ms: (
            args.get_or("kill-lo", 30).map_err(|e| e.to_string())?,
            args.get_or("kill-hi", 250).map_err(|e| e.to_string())?,
        ),
    };
    args.reject_unknown().map_err(|e| e.to_string())?;
    if cfg.cycles == 0 {
        return Err("--cycles must be >= 1".to_string());
    }

    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut server_cmd = |_port: u16| {
        let mut cmd = Command::new(&exe);
        cmd.arg("serve")
            .arg("--data")
            .arg(&data)
            .arg("--addr")
            .arg("127.0.0.1:0");
        for (flag, value) in [
            ("--procs", serve.procs.to_string()),
            ("--threads", serve.threads.to_string()),
            ("--queue-bound", serve.queue_bound.to_string()),
            ("--tenant-pending", serve.tenant_pending.to_string()),
            ("--batch-max", serve.batch_max.to_string()),
            ("--snapshot-every", serve.snapshot_every.to_string()),
            ("--max-tenants", serve.max_tenants.to_string()),
            ("--max-jobs", serve.max_jobs.to_string()),
            ("--exhaust-rate", serve.exhaust_rate.to_string()),
            ("--degraded-work", serve.degraded_work.to_string()),
            ("--bank-accrual", serve.bank.accrual.to_string()),
            ("--bank-cap", serve.bank.cap.to_string()),
            ("--bank-initial", serve.bank.initial.to_string()),
            ("--seed", serve.seed.to_string()),
        ] {
            cmd.arg(flag).arg(value);
        }
        cmd
    };
    let report = run_chaos_drill(&cfg, &mut server_cmd).map_err(|e| e.to_string())?;
    let summary = format!(
        "drill: cycles={} kills={} acked={} rejected={} lost={} ghosts={} \
         live_digests={} recovered_digests={} replay_identical={}",
        cfg.cycles,
        report.kills,
        report.acked,
        report.rejected,
        report.lost.len(),
        report.ghosts.len(),
        report.live_digests.len(),
        report.recovered_digests.len(),
        report.live_digests == report.recovered_digests,
    );
    if report.passed() {
        Ok(summary)
    } else {
        Err(format!("fault drill failed — {summary}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(tokens: &[&str]) -> Args {
        Args::parse_with_switches(
            tokens.iter().map(|s| s.to_string()),
            &["digest", "drill", "inject-frame-errors"],
        )
        .unwrap()
    }

    #[test]
    fn serve_config_parses_flags_and_validates() {
        let args = parsed(&[
            "serve",
            "--procs",
            "7",
            "--snapshot-every",
            "16",
            "--bank-cap",
            "9",
        ]);
        let cfg = serve_config(&args).unwrap();
        assert_eq!(cfg.procs, 7);
        assert_eq!(cfg.snapshot_every, 16);
        assert_eq!(cfg.bank.cap, 9);
        assert!(serve_config(&parsed(&["serve", "--procs", "0"])).is_err());
        assert!(serve_config(&parsed(&["serve", "--exhaust-rate", "1.5"])).is_err());
    }

    #[test]
    fn digest_mode_recovers_an_empty_directory() {
        let dir = std::env::temp_dir().join(format!("lrb-cli-digest-{}", std::process::id()));
        let args = parsed(&["serve", "--data", dir.to_str().unwrap(), "--digest"]);
        let out = serve_cmd(&args).unwrap();
        assert!(out.contains("\"applied\": 0"), "{out}");
        assert!(out.contains("\"had_snapshot\": false"), "{out}");
        let doc: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert!(doc.get("digests").and_then(|d| d.as_array()).is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn loadgen_requires_an_address_and_drill_requires_data() {
        assert!(loadgen_cmd(&parsed(&["loadgen"]))
            .unwrap_err()
            .contains("addr"));
        assert!(loadgen_cmd(&parsed(&["loadgen", "--drill"]))
            .unwrap_err()
            .contains("data"));
    }
}
