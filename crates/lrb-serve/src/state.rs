//! The daemon's deterministic core: tenant farms, admission control, and
//! logged-event application.
//!
//! Everything that touches farm state funnels through [`ServeState`] on a
//! single thread, in WAL order. The contract that makes crash recovery a
//! bit-identical replay:
//!
//! * **Admission before logging.** [`ServeState::admit`] validates a
//!   request against current state (duplicate keys, processor range,
//!   tenant/job limits, bank and work exhaustion) and *mutates nothing*.
//!   Rejected requests are never logged, so every logged event applies
//!   cleanly on replay.
//! * **Scheduling decisions are frozen at admission.** A rebalance's
//!   solver work limit (from the seeded `lrb-faults` plan) is resolved
//!   when the event is admitted and recorded in the WAL, so replay never
//!   re-derives it.
//! * **One path applies every logged event.** [`ServeState::apply_events`]
//!   applies its events one at a time, in order. A rebalance runs the
//!   `deadline` module's [`FallbackChain`] under the [`WorkBudget`] its log
//!   record names, unlimited or not, which is deterministic by
//!   construction. So live application (one event per call) and replay
//!   (chunks of the WAL) reach the same state however the events are
//!   chunked.

use std::collections::BTreeMap;

use lrb_core::deadline::{FallbackChain, WorkBudget};
use lrb_core::online::{BankConfig, OnlineRebalancer};
use lrb_core::Ctx;
use lrb_faults::{FaultConfig, FaultPlan};

use crate::snapshot::{self, SnapshotDoc, SnapshotError, SERVE_SCHEMA_VERSION};
use crate::wal::{to_budget, LoggedEvent};
use crate::wire::{BudgetSpec, RejectCode, Request};

/// Length of the cyclic fault plan driving solver-exhaustion epochs.
const PLAN_EPOCHS: usize = 1024;

/// Server configuration (one farm shape shared by every tenant).
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Processors per tenant farm.
    pub procs: usize,
    /// MoveBank policy for every tenant.
    pub bank: BankConfig,
    /// Global event-queue bound (backpressure trips beyond it).
    pub queue_bound: usize,
    /// Max requests in flight per tenant.
    pub tenant_pending: usize,
    /// Max events drained into one batch epoch.
    pub batch_max: usize,
    /// Snapshot after this many applied events (0 disables).
    pub snapshot_every: u64,
    /// Max tenant farms.
    pub max_tenants: usize,
    /// Max live jobs per tenant.
    pub max_jobs: usize,
    /// Probability an epoch's solver budget is exhausted (fault plan).
    pub exhaust_rate: f64,
    /// Work ticks granted to rebalances in exhausted epochs; 0 means such
    /// rebalances are rejected outright with Retry-After.
    pub degraded_work: u64,
    /// Seed for the fault plan.
    pub seed: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            procs: 4,
            bank: BankConfig::default(),
            queue_bound: 256,
            tenant_pending: 32,
            batch_max: 64,
            snapshot_every: 64,
            max_tenants: 4096,
            max_jobs: 100_000,
            exhaust_rate: 0.0,
            degraded_work: 50_000,
            seed: 0,
        }
    }
}

/// Server-lifetime counters surfaced in `Stats` responses.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeCounters {
    /// Admission rejections issued.
    pub rejects: u64,
    /// Rebalances that degraded below their first solver tier.
    pub degraded: u64,
    /// Snapshots written.
    pub snapshots: u64,
    /// Recoveries performed at startup.
    pub recoveries: u64,
    /// Events replayed from the WAL during recovery.
    pub replayed: u64,
}

/// Why a request was refused at admission. Carries the Retry-After hint
/// (in events; 0 = retrying the identical request cannot succeed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rejection {
    /// The reject class.
    pub code: RejectCode,
    /// Events after which a retry may succeed.
    pub retry_after: u64,
    /// Human-readable detail.
    pub detail: String,
}

/// What applying one logged event produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ApplyOutcome {
    /// An arrival or departure was applied.
    Applied,
    /// A rebalance was solved and committed.
    Rebalanced {
        /// Jobs migrated.
        moves: u64,
        /// Post-rebalance makespan.
        makespan: u64,
        /// Whether the solve degraded past its first tier.
        degraded: bool,
        /// Provenance: the FallbackChain tier that answered
        /// (`"m-partition"`, `"greedy"` or `"no-move"`), or `"empty"` for a
        /// jobless farm.
        tier: &'static str,
    },
    /// The event could not be applied (possible only with a WAL that was
    /// not produced by this server's admission path).
    Failed {
        /// What went wrong.
        detail: String,
    },
}

/// The workspace's splitmix64 step, re-exported here so drills and load
/// generators can derive deterministic workloads.
pub use lrb_obs::splitmix64;

/// The daemon's single-threaded state machine.
#[derive(Debug)]
pub struct ServeState {
    cfg: ServeConfig,
    farms: BTreeMap<u64, OnlineRebalancer>,
    plan: FaultPlan,
    applied: u64,
    epoch: u64,
    /// Lifetime counters (public: the server front-end bumps `rejects`).
    pub counters: ServeCounters,
}

impl ServeState {
    /// A fresh state with no tenants.
    pub fn new(cfg: ServeConfig) -> Self {
        let plan = if cfg.exhaust_rate > 0.0 {
            let fc = FaultConfig {
                exhaust_rate: cfg.exhaust_rate,
                seed: cfg.seed,
                ..FaultConfig::none(cfg.seed)
            };
            FaultPlan::generate(&fc, cfg.procs, PLAN_EPOCHS)
        } else {
            FaultPlan::none(cfg.procs)
        };
        ServeState {
            plan,
            farms: BTreeMap::new(),
            applied: 0,
            epoch: 0,
            counters: ServeCounters::default(),
            cfg,
        }
    }

    /// Rebuild state from a snapshot document (recovery step 1; the WAL
    /// suffix replay is step 2, via [`ServeState::apply_events`]).
    pub fn from_snapshot(cfg: ServeConfig, doc: &SnapshotDoc) -> Result<Self, SnapshotError> {
        let mut state = Self::new(cfg);
        for tenant in &doc.tenants {
            let farm = snapshot::restore_tenant(tenant)?;
            state.farms.insert(tenant.tenant, farm);
        }
        state.applied = doc.applied;
        Ok(state)
    }

    /// The configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Events applied over the server's lifetime (== last WAL seq).
    pub fn applied(&self) -> u64 {
        self.applied
    }

    /// Fault-plan epochs executed: one per [`ServeState::apply_events`]
    /// call.
    pub fn epochs(&self) -> u64 {
        self.epoch
    }

    /// Live tenant farms.
    pub fn num_tenants(&self) -> usize {
        self.farms.len()
    }

    /// A tenant's farm, if it exists.
    pub fn farm(&self, tenant: u64) -> Option<&OnlineRebalancer> {
        self.farms.get(&tenant)
    }

    /// The solver work limit the current epoch grants: `u64::MAX` when
    /// the fault plan leaves the epoch alone, else the degraded grant.
    pub fn epoch_work_limit(&self) -> u64 {
        let faults = self.plan.epoch((self.epoch as usize) % PLAN_EPOCHS.max(1));
        if faults.solver_exhausted {
            self.cfg.degraded_work
        } else {
            u64::MAX
        }
    }

    /// Admission control: validate a mutating request against current
    /// state *without changing anything*, freezing scheduling decisions
    /// (the rebalance work limit) into the returned logged event.
    ///
    /// # Errors
    ///
    /// A [`Rejection`] naming the reason and a Retry-After hint.
    pub fn admit(&self, req: &Request) -> Result<LoggedEvent, Rejection> {
        match *req {
            Request::Arrive {
                tenant,
                key,
                size,
                cost,
                proc,
            } => {
                if proc >= self.cfg.procs as u64 {
                    return Err(Rejection {
                        code: RejectCode::ProcOutOfRange,
                        retry_after: 0,
                        detail: format!("proc {proc} >= {}", self.cfg.procs),
                    });
                }
                match self.farms.get(&tenant) {
                    Some(farm) => {
                        if farm.job(key).is_some() {
                            return Err(Rejection {
                                code: RejectCode::DuplicateKey,
                                retry_after: 0,
                                detail: format!("key {key} is live"),
                            });
                        }
                        if farm.num_jobs() >= self.cfg.max_jobs {
                            return Err(Rejection {
                                code: RejectCode::JobsLimit,
                                retry_after: 1,
                                detail: format!("tenant at {} jobs", self.cfg.max_jobs),
                            });
                        }
                    }
                    None => {
                        if self.farms.len() >= self.cfg.max_tenants {
                            return Err(Rejection {
                                code: RejectCode::TenantLimit,
                                retry_after: 0,
                                detail: format!("server at {} tenants", self.cfg.max_tenants),
                            });
                        }
                    }
                }
                Ok(LoggedEvent::Arrive {
                    tenant,
                    key,
                    size,
                    cost,
                    proc,
                })
            }
            Request::Depart { tenant, key } => {
                let Some(farm) = self.farms.get(&tenant) else {
                    return Err(Rejection {
                        code: RejectCode::UnknownTenant,
                        retry_after: 0,
                        detail: format!("tenant {tenant} unknown"),
                    });
                };
                if farm.job(key).is_none() {
                    return Err(Rejection {
                        code: RejectCode::UnknownKey,
                        retry_after: 0,
                        detail: format!("key {key} not live"),
                    });
                }
                Ok(LoggedEvent::Depart { tenant, key })
            }
            Request::Rebalance { tenant, budget } => {
                let Some(farm) = self.farms.get(&tenant) else {
                    return Err(Rejection {
                        code: RejectCode::UnknownTenant,
                        retry_after: 0,
                        detail: format!("tenant {tenant} unknown"),
                    });
                };
                let work_limit = self.epoch_work_limit();
                if work_limit == 0 {
                    return Err(Rejection {
                        code: RejectCode::WorkExhausted,
                        retry_after: 1,
                        detail: "epoch work budget exhausted".into(),
                    });
                }
                let amount = match budget {
                    BudgetSpec::Moves(k) => k,
                    BudgetSpec::Cost(c) => c,
                };
                let bank = farm.bank();
                let would_bank = bank
                    .balance()
                    .saturating_add(bank.accrual())
                    .min(bank.cap());
                if amount > 0 && would_bank == 0 {
                    return Err(Rejection {
                        code: RejectCode::BankExhausted,
                        // With zero accrual the bank can never refill:
                        // the request is not retryable as-is.
                        retry_after: u64::from(bank.accrual() > 0),
                        detail: "move bank empty".into(),
                    });
                }
                Ok(LoggedEvent::Rebalance {
                    tenant,
                    budget,
                    work_limit,
                })
            }
            // Read-only requests are never admitted/logged.
            Request::Query { .. } | Request::Lookup { .. } | Request::Stats | Request::Shutdown => {
                Err(Rejection {
                    code: RejectCode::UnknownTenant,
                    retry_after: 0,
                    detail: "not a mutating request".into(),
                })
            }
        }
    }

    /// Apply logged events in order, returning one outcome per event. One
    /// call is one fault-plan epoch.
    pub fn apply_events(&mut self, events: &[LoggedEvent]) -> Vec<ApplyOutcome> {
        self.epoch += 1;
        let outcomes = events.iter().map(|ev| self.apply_one(ev)).collect();
        self.applied += events.len() as u64;
        outcomes
    }

    /// Apply one logged event: the only place a logged event changes
    /// state.
    fn apply_one(&mut self, ev: &LoggedEvent) -> ApplyOutcome {
        match *ev {
            LoggedEvent::Arrive {
                tenant,
                key,
                size,
                cost,
                proc,
            } => {
                if !self.farms.contains_key(&tenant) {
                    match OnlineRebalancer::new(self.cfg.procs.max(1), self.cfg.bank) {
                        Ok(f) => {
                            self.farms.insert(tenant, f);
                        }
                        Err(e) => {
                            return ApplyOutcome::Failed {
                                detail: format!("farm: {e}"),
                            }
                        }
                    }
                }
                let Some(farm) = self.farms.get_mut(&tenant) else {
                    return ApplyOutcome::Failed {
                        detail: "farm vanished".into(),
                    };
                };
                let job = lrb_core::model::Job::with_cost(size, cost);
                match farm.arrive(key, job, usize::try_from(proc).unwrap_or(usize::MAX)) {
                    Ok(()) => ApplyOutcome::Applied,
                    Err(e) => ApplyOutcome::Failed {
                        detail: format!("arrive: {e}"),
                    },
                }
            }
            LoggedEvent::Depart { tenant, key } => match self.farms.get_mut(&tenant) {
                Some(farm) => match farm.depart(key) {
                    Ok(_) => ApplyOutcome::Applied,
                    Err(e) => ApplyOutcome::Failed {
                        detail: format!("depart: {e}"),
                    },
                },
                None => ApplyOutcome::Failed {
                    detail: format!("tenant {tenant} missing at replay"),
                },
            },
            LoggedEvent::Rebalance {
                tenant,
                budget,
                work_limit,
            } => {
                let Some(farm) = self.farms.get_mut(&tenant) else {
                    return ApplyOutcome::Failed {
                        detail: format!("tenant {tenant} missing at replay"),
                    };
                };
                let effective = farm.begin_rebalance(to_budget(budget));
                if farm.num_jobs() == 0 {
                    return ApplyOutcome::Rebalanced {
                        moves: 0,
                        makespan: 0,
                        degraded: false,
                        tier: "empty",
                    };
                }
                let inst = farm.instance();
                let mut ctx = Ctx {
                    work: WorkBudget::new(work_limit),
                    ..Ctx::default()
                };
                let report = FallbackChain::practical().solve(&inst, effective, &mut ctx);
                let degraded = report.degraded();
                match farm.commit_assignment(report.outcome.assignment(), effective) {
                    Ok(commit) => {
                        if degraded {
                            self.counters.degraded += 1;
                        }
                        ApplyOutcome::Rebalanced {
                            moves: commit.moves,
                            makespan: farm.makespan(),
                            degraded,
                            tier: report.tier,
                        }
                    }
                    Err(e) => ApplyOutcome::Failed {
                        detail: format!("commit: {e}"),
                    },
                }
            }
        }
    }

    /// Order-independent digest of one tenant's full state: keys, job
    /// parameters, placements, per-processor loads, and the bank balance.
    /// Two states are bit-identical iff every tenant digest (and the
    /// tenant set) matches — the crash drills' equivalence check.
    pub fn tenant_digest(&self, tenant: u64) -> Option<u64> {
        let farm = self.farms.get(&tenant)?;
        let mut h = splitmix64(farm.num_procs() as u64);
        for &key in farm.keys() {
            let job = farm.job(key)?;
            let proc = farm.proc_of(key)? as u64;
            h = splitmix64(h ^ key);
            h = splitmix64(h ^ job.size);
            h = splitmix64(h ^ job.cost);
            h = splitmix64(h ^ proc);
        }
        for &load in farm.loads() {
            h = splitmix64(h ^ load);
        }
        h = splitmix64(h ^ farm.bank().balance());
        Some(h)
    }

    /// Every tenant's digest, ascending by tenant id.
    pub fn digests(&self) -> Vec<(u64, u64)> {
        self.farms
            .keys()
            .filter_map(|&t| self.tenant_digest(t).map(|d| (t, d)))
            .collect()
    }

    /// Capture a snapshot document of the full state.
    pub fn capture(&self) -> SnapshotDoc {
        SnapshotDoc {
            schema_version: SERVE_SCHEMA_VERSION,
            applied: self.applied,
            tenants: self
                .farms
                .iter()
                .map(|(&t, farm)| snapshot::capture_tenant(t, farm))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::Request;

    fn arrive(tenant: u64, key: u64, size: u64, proc: u64) -> Request {
        Request::Arrive {
            tenant,
            key,
            size,
            cost: 1,
            proc,
        }
    }

    fn admit_apply(state: &mut ServeState, req: &Request) -> ApplyOutcome {
        let ev = state.admit(req).unwrap();
        state.apply_events(&[ev]).remove(0)
    }

    fn cfg() -> ServeConfig {
        ServeConfig {
            procs: 3,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn admission_rejects_without_mutating() {
        let mut state = ServeState::new(cfg());
        admit_apply(&mut state, &arrive(1, 10, 5, 0));
        let digest = state.tenant_digest(1);

        // Duplicate key, bad proc, unknown tenant/key: all rejected, no
        // state change.
        for (req, code) in [
            (arrive(1, 10, 5, 0), RejectCode::DuplicateKey),
            (arrive(1, 11, 5, 99), RejectCode::ProcOutOfRange),
            (
                Request::Depart { tenant: 9, key: 1 },
                RejectCode::UnknownTenant,
            ),
            (
                Request::Depart { tenant: 1, key: 77 },
                RejectCode::UnknownKey,
            ),
            (
                Request::Rebalance {
                    tenant: 9,
                    budget: BudgetSpec::Moves(1),
                },
                RejectCode::UnknownTenant,
            ),
        ] {
            let rej = state.admit(&req).unwrap_err();
            assert_eq!(rej.code, code, "{req:?}");
        }
        assert_eq!(state.tenant_digest(1), digest);
        assert_eq!(state.applied(), 1);
    }

    #[test]
    fn bank_exhaustion_is_rejected_with_retry_after() {
        let mut state = ServeState::new(ServeConfig {
            bank: BankConfig {
                accrual: 0,
                cap: 4,
                initial: 0,
            },
            ..cfg()
        });
        admit_apply(&mut state, &arrive(1, 1, 5, 0));
        let rej = state
            .admit(&Request::Rebalance {
                tenant: 1,
                budget: BudgetSpec::Moves(2),
            })
            .unwrap_err();
        assert_eq!(rej.code, RejectCode::BankExhausted);
        // Zero accrual can never refill: not retryable.
        assert_eq!(rej.retry_after, 0);

        // With accrual the same state admits (the event itself accrues).
        let mut state = ServeState::new(ServeConfig {
            bank: BankConfig {
                accrual: 2,
                cap: 4,
                initial: 0,
            },
            ..cfg()
        });
        admit_apply(&mut state, &arrive(1, 1, 5, 0));
        assert!(state
            .admit(&Request::Rebalance {
                tenant: 1,
                budget: BudgetSpec::Moves(2),
            })
            .is_ok());
    }

    #[test]
    fn work_exhausted_epochs_reject_rebalances() {
        let mut state = ServeState::new(ServeConfig {
            exhaust_rate: 1.0,
            degraded_work: 0,
            seed: 3,
            ..cfg()
        });
        admit_apply(&mut state, &arrive(1, 1, 5, 0));
        let rej = state
            .admit(&Request::Rebalance {
                tenant: 1,
                budget: BudgetSpec::Moves(1),
            })
            .unwrap_err();
        assert_eq!(rej.code, RejectCode::WorkExhausted);
        assert_eq!(rej.retry_after, 1);
        assert!(rej.code.retryable());

        // With a nonzero degraded grant the event is admitted and the
        // work limit is frozen into the log record.
        let state2 = ServeState::new(ServeConfig {
            exhaust_rate: 1.0,
            degraded_work: 777,
            seed: 3,
            ..cfg()
        });
        // (fresh state: tenant 1 does not exist yet, so probe via limit)
        assert_eq!(state2.epoch_work_limit(), 777);
    }

    #[test]
    fn engine_and_chain_paths_reach_identical_states() {
        // The same logged events applied (a) in one batch (engine run)
        // and (b) one-by-one must produce identical digests — the
        // replay-equivalence fact recovery depends on.
        let events: Vec<LoggedEvent> = vec![
            LoggedEvent::Arrive {
                tenant: 1,
                key: 1,
                size: 9,
                cost: 1,
                proc: 0,
            },
            LoggedEvent::Arrive {
                tenant: 1,
                key: 2,
                size: 7,
                cost: 1,
                proc: 0,
            },
            LoggedEvent::Arrive {
                tenant: 2,
                key: 1,
                size: 6,
                cost: 1,
                proc: 1,
            },
            LoggedEvent::Arrive {
                tenant: 2,
                key: 2,
                size: 5,
                cost: 1,
                proc: 1,
            },
            LoggedEvent::Rebalance {
                tenant: 1,
                budget: BudgetSpec::Moves(2),
                work_limit: u64::MAX,
            },
            LoggedEvent::Rebalance {
                tenant: 2,
                budget: BudgetSpec::Moves(2),
                work_limit: u64::MAX,
            },
            LoggedEvent::Depart { tenant: 1, key: 1 },
        ];
        let mut batched = ServeState::new(cfg());
        let outs = batched.apply_events(&events);
        assert!(
            !outs
                .iter()
                .any(|o| matches!(o, ApplyOutcome::Failed { .. })),
            "{outs:?}"
        );

        let mut sequential = ServeState::new(cfg());
        for ev in &events {
            sequential.apply_events(std::slice::from_ref(ev));
        }
        assert_eq!(batched.digests(), sequential.digests());
        assert_eq!(batched.applied(), sequential.applied());
    }

    #[test]
    fn degraded_rebalances_carry_fallback_provenance() {
        let mut state = ServeState::new(cfg());
        for ev in [
            LoggedEvent::Arrive {
                tenant: 1,
                key: 1,
                size: 9,
                cost: 1,
                proc: 0,
            },
            LoggedEvent::Arrive {
                tenant: 1,
                key: 2,
                size: 8,
                cost: 1,
                proc: 0,
            },
        ] {
            state.apply_events(&[ev]);
        }
        // work_limit 0 under the chain: every tier cancels, no-move wins.
        let out = state
            .apply_events(&[LoggedEvent::Rebalance {
                tenant: 1,
                budget: BudgetSpec::Moves(2),
                work_limit: 1,
            }])
            .remove(0);
        match out {
            ApplyOutcome::Rebalanced {
                moves,
                degraded,
                tier,
                ..
            } => {
                assert_eq!(moves, 0);
                assert!(degraded);
                assert_eq!(tier, "no-move");
            }
            other => panic!("expected rebalanced, got {other:?}"),
        }
        assert_eq!(state.counters.degraded, 1);
        // A generous limit answers from the first tier, undegraded.
        let out = state
            .apply_events(&[LoggedEvent::Rebalance {
                tenant: 1,
                budget: BudgetSpec::Moves(2),
                work_limit: u64::MAX - 1,
            }])
            .remove(0);
        match out {
            ApplyOutcome::Rebalanced { degraded, tier, .. } => {
                assert!(!degraded);
                assert_eq!(tier, "m-partition");
            }
            other => panic!("expected rebalanced, got {other:?}"),
        }
    }

    #[test]
    fn snapshot_capture_restore_replay_is_bit_identical() {
        let mut live = ServeState::new(cfg());
        let mut log: Vec<LoggedEvent> = Vec::new();
        for t in 0..3u64 {
            for k in 0..5u64 {
                let ev = LoggedEvent::Arrive {
                    tenant: t,
                    key: k,
                    size: splitmix64(t * 31 + k) % 20 + 1,
                    cost: 1,
                    proc: 0,
                };
                log.push(ev);
            }
            log.push(LoggedEvent::Rebalance {
                tenant: t,
                budget: BudgetSpec::Moves(3),
                work_limit: u64::MAX,
            });
        }
        // Apply the first half, snapshot, apply the rest.
        let half = log.len() / 2;
        live.apply_events(&log[..half]);
        let doc = live.capture();
        assert_eq!(doc.applied, half as u64);
        live.apply_events(&log[half..]);

        // Recover: snapshot + WAL suffix replay.
        let mut recovered = ServeState::from_snapshot(cfg(), &doc).unwrap();
        recovered.apply_events(&log[half..]);
        assert_eq!(recovered.digests(), live.digests());
        assert_eq!(recovered.applied(), live.applied());

        // And a full from-scratch replay of the whole log agrees too
        // (state ≡ replay-of-survivors).
        let mut scratch = ServeState::new(cfg());
        scratch.apply_events(&log);
        assert_eq!(scratch.digests(), live.digests());
    }
}
