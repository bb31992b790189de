//! Online (streaming) farm simulation: arrivals, departures, and banked
//! rebalancing budgets.
//!
//! The batch simulators ([`crate::farm`]) refresh a *fixed* site population
//! each epoch; here the population itself churns. An [`OnlineWorkload`]
//! generates a seeded event stream — Poisson-ish arrivals with heavy-tailed
//! sizes, geometric departure lifetimes — and each epoch an
//! [`OnlineRebalancer`] applies the churn, then issues one rebalance whose
//! effective budget is clamped by the rebalancer's amortized move bank.
//!
//! One driver runs every online farm: [`run_online_fleet_in`] streams a
//! fleet of farms in lockstep epochs through one [`StreamEngine`], each farm
//! under its own `lrb-faults` plan. A single farm is a fleet of one, and a
//! clean run is a fault-free plan ([`run_online_fleet`]). Per-farm traces
//! are bit-identical at any engine thread count and to the farm's run as a
//! fleet of one (the engine changes wall-clock, never answers).
//!
//! Under faults, crashed servers are evacuated (billed to the bank) and
//! solves are projected onto surviving servers. The event stream is
//! authoritative — the online controller knows its own state — so
//! report-corruption faults (stale / dropped / perturbed loads) do not
//! apply; outages and solver exhaustion do.

use std::time::Instant;

use lrb_core::model::{Budget, Job};
use lrb_core::online::{BankConfig, Event, JobKey, OnlineRebalancer, OnlineStats};
use lrb_core::outcome::RebalanceOutcome;
use lrb_engine::{BatchItem, BatchSolver, EngineConfig, StreamEngine};
use lrb_faults::FaultPlan;
use lrb_instances::SizeDistribution;
use lrb_obs::{names, NoopTracer, Tracer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::farm::project;
use crate::metrics::{oracle_regret, EpochMetrics, RunLog, SimReport};

/// Parameters of one online farm: its churn model, budget, and bank.
#[derive(Debug, Clone, Copy)]
pub struct OnlineWorkloadConfig {
    /// Number of servers.
    pub num_procs: usize,
    /// Number of epochs to simulate.
    pub epochs: usize,
    /// Jobs present before the first epoch (arrive on seeded random servers).
    pub initial_jobs: usize,
    /// Mean arrivals per epoch (Poisson-distributed count).
    pub arrival_rate: f64,
    /// Mean job lifetime in epochs (geometric: each live job departs with
    /// probability `1 / mean_lifetime` per epoch). Values `< 1` are treated
    /// as 1.
    pub mean_lifetime: f64,
    /// Job-size distribution (heavy-tailed by default).
    pub sizes: SizeDistribution,
    /// Budget requested at each epoch's rebalance (the bank may grant less).
    pub budget: Budget,
    /// Amortized move-bank policy.
    pub bank: BankConfig,
    /// RNG seed for the event stream.
    pub seed: u64,
}

impl OnlineWorkloadConfig {
    /// A default online farm: Pareto sizes, ~6 arrivals and ~25-epoch
    /// lifetimes, 4 moves requested per epoch against a defaulted bank.
    pub fn default_online(num_procs: usize) -> Self {
        OnlineWorkloadConfig {
            num_procs,
            epochs: 100,
            initial_jobs: 8 * num_procs,
            arrival_rate: 6.0,
            mean_lifetime: 25.0,
            sizes: SizeDistribution::Pareto {
                scale: 4,
                alpha: 1.5,
            },
            budget: Budget::Moves(4),
            bank: BankConfig::default(),
            seed: 0,
        }
    }
}

/// Seeded generator of arrival/departure events.
///
/// Within an epoch, departures are emitted first (in ascending key order
/// over the jobs live at the epoch's start), then arrivals (with fresh,
/// monotonically increasing keys). The epoch's `Rebalance` event is issued
/// by the driver, not the generator, so tests can permute the churn events
/// freely without touching the solve.
///
/// This is the *stochastic* (Poisson churn) end of the arrival spectrum;
/// the worst-case end — random-order and adaptive adversarial streams for
/// the competitive lab — lives in [`crate::adversary`].
#[derive(Debug, Clone)]
pub struct OnlineWorkload {
    cfg: OnlineWorkloadConfig,
    rng: StdRng,
    next_key: JobKey,
    /// Live keys, ascending (kept in lockstep with the rebalancer).
    live: Vec<JobKey>,
}

impl OnlineWorkload {
    /// A generator for `cfg`'s stream.
    pub fn new(cfg: OnlineWorkloadConfig) -> Self {
        OnlineWorkload {
            cfg,
            rng: StdRng::seed_from_u64(cfg.seed),
            next_key: 0,
            live: Vec::new(),
        }
    }

    /// The `initial_jobs` arrivals that populate the farm before epoch 0.
    pub fn initial_events(&mut self) -> Vec<Event> {
        (0..self.cfg.initial_jobs)
            .map(|_| self.one_arrival())
            .collect()
    }

    /// One epoch's churn: departures of the currently live jobs, then fresh
    /// arrivals. Does not include the epoch's `Rebalance` event.
    pub fn epoch_events(&mut self) -> Vec<Event> {
        let mut events = Vec::new();
        let depart_p = 1.0 / self.cfg.mean_lifetime.max(1.0);
        let mut kept = Vec::with_capacity(self.live.len());
        for &key in &std::mem::take(&mut self.live) {
            if self.rng.gen_bool(depart_p) {
                events.push(Event::Depart { key });
            } else {
                kept.push(key);
            }
        }
        self.live = kept;
        let arrivals = poisson(&mut self.rng, self.cfg.arrival_rate);
        for _ in 0..arrivals {
            events.push(self.one_arrival());
        }
        events
    }

    fn one_arrival(&mut self) -> Event {
        let key = self.next_key;
        self.next_key += 1;
        self.live.push(key);
        let size = self.cfg.sizes.sample(&mut self.rng).max(1);
        let proc = self.rng.gen_range(0..self.cfg.num_procs);
        Event::Arrive {
            key,
            job: Job::unit(size),
            proc,
        }
    }
}

/// Knuth's Poisson sampler; fine for the per-epoch rates used here.
fn poisson(rng: &mut StdRng, mean: f64) -> usize {
    if mean <= 0.0 {
        return 0;
    }
    let l = (-mean).exp();
    let mut k = 0usize;
    let mut p = 1.0f64;
    loop {
        p *= rng.gen_range(0.0..1.0);
        if p <= l {
            return k;
        }
        k += 1;
    }
}

/// Trace of one online run: the standard epoch metrics plus the online
/// bookkeeping (event counters, banked balances, churn curve).
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineRunReport {
    /// Epoch metrics, decisions, and (under faults) degradation aggregates.
    pub sim: SimReport,
    /// Event and move counters from the rebalancer.
    pub stats: OnlineStats,
    /// Bank balance after each epoch's rebalance.
    pub banked_per_epoch: Vec<u64>,
    /// Arrivals applied in each epoch.
    pub arrivals_per_epoch: Vec<usize>,
    /// Departures applied in each epoch.
    pub departures_per_epoch: Vec<usize>,
    /// Per-server loads after the final epoch.
    pub final_loads: Vec<u64>,
}

/// Apply a slice of churn events to the rebalancer, counting churn and
/// (when enabled) per-event latencies.
fn apply_churn<T: Tracer>(
    rebalancer: &mut OnlineRebalancer,
    events: &[Event],
    obs: &T,
) -> (usize, usize) {
    let mut arrivals = 0usize;
    let mut departures = 0usize;
    for &event in events {
        let start = T::ENABLED.then(Instant::now);
        rebalancer
            .apply(event)
            .expect("generated event streams are always valid");
        if let Some(start) = start {
            obs.observe(
                names::ONLINE_EVENT_NANOS,
                (start.elapsed().as_nanos() as u64).max(1),
            );
        }
        match event {
            Event::Arrive { .. } => arrivals += 1,
            Event::Depart { .. } => departures += 1,
            Event::Rebalance { .. } => {}
        }
    }
    (arrivals, departures)
}

/// A set of online farms streamed in lockstep through a [`StreamEngine`].
#[derive(Debug, Clone)]
pub struct OnlineFleetConfig {
    /// The farms; they may differ in every parameter (shorter farms simply
    /// finish early).
    pub farms: Vec<OnlineWorkloadConfig>,
    /// Engine worker threads; `0` = available parallelism.
    pub threads: usize,
}

/// Run every online farm fault-free and unobserved:
/// [`run_online_fleet_in`] under [`FaultPlan::none`] plans.
pub fn run_online_fleet(cfg: &OnlineFleetConfig) -> Vec<OnlineRunReport> {
    let plans: Vec<FaultPlan> = cfg
        .farms
        .iter()
        .map(|fc| FaultPlan::none(fc.num_procs))
        .collect();
    run_online_fleet_in(cfg, &plans, &NoopTracer)
}

/// Run every online farm in lockstep epochs through the streaming engine,
/// farm `i` under `plans[i]`.
///
/// Each epoch, every still-running farm applies its churn, evacuates jobs
/// stranded on crashed servers to the least-loaded surviving server (each
/// evacuation billed to the bank in the budget's units), and — unless its
/// plan declares the solver budget exhausted, which skips the rebalance
/// (no event, no accrual) — contributes its snapshot, projected onto the
/// surviving servers, with its bank-clamped effective budget to one engine
/// batch. The engine turns a solver error or an over-budget answer into the
/// unchanged placement, and each answer is billed through
/// `begin_rebalance` / `commit_assignment`. A commit that fails anyway is a
/// policy rejection under faults (the evacuated placement stands) and a
/// panic under a fault-free plan.
///
/// A fault-free plan reports no degradation, no provenance and no regret.
/// `epoch_wall_nanos` and `sim.epoch_nanos` hold the engine's solve time of
/// the farm's item, floored at 1 ns: an epoch whose solve was skipped
/// records that floor. The engine gives every farm the answer its fleet of
/// one would get, at any thread count.
///
/// `obs` sees one `sim.epoch` span per lockstep epoch, an
/// `online.event_nanos` observation per event; per farm-epoch,
/// `sim.epochs`, `sim.rebalanced` or `sim.unchanged`, `sim.epoch_nanos`,
/// `online.banked_balance` and, under faults, the degradation counters;
/// and each farm's `online.*` totals at the end.
pub fn run_online_fleet_in<T: Tracer>(
    cfg: &OnlineFleetConfig,
    plans: &[FaultPlan],
    obs: &T,
) -> Vec<OnlineRunReport> {
    assert_eq!(plans.len(), cfg.farms.len(), "one fault plan per farm");
    let mut farms: Vec<Farm> = cfg
        .farms
        .iter()
        .zip(plans)
        .map(|(fc, plan)| Farm::new(fc, plan, obs))
        .collect();
    let max_epochs = cfg.farms.iter().map(|f| f.epochs).max().unwrap_or(0);
    let mut engine = StreamEngine::new(
        BatchSolver::MPartition,
        &EngineConfig::with_threads(cfg.threads),
    );

    for epoch in 0..max_epochs {
        let _epoch = obs.span(names::SIM_EPOCH);
        let mut items = Vec::new();
        let mut pending = Vec::new();
        for (i, farm) in farms.iter_mut().enumerate() {
            if epoch < farm.cfg.epochs {
                pending.push((i, farm.begin_epoch(epoch, &mut items, obs)));
            }
        }
        let batch = engine.solve_epoch(&items);
        let mut answers = batch.outcomes.iter().zip(&batch.solve_nanos);
        for (i, step) in pending {
            let answer = step.effective.map(|budget| {
                let (outcome, &nanos) = answers.next().expect("one answer per solving farm");
                (outcome, budget, nanos)
            });
            farms[i].end_epoch(epoch, step, answer, obs);
        }
    }

    farms
        .into_iter()
        .map(|farm| {
            let stats = *farm.rebalancer.stats();
            obs.incr(names::ONLINE_EVENTS, stats.events);
            obs.incr(names::ONLINE_ARRIVALS, stats.arrivals);
            obs.incr(names::ONLINE_DEPARTURES, stats.departures);
            obs.incr(names::ONLINE_REBALANCES, stats.rebalances);
            obs.incr(names::ONLINE_MOVES, stats.moves_performed);
            let policy = match farm.cfg.budget {
                Budget::Moves(_) => "online-mpartition",
                Budget::Cost(_) => "online-cost-partition",
            };
            OnlineRunReport {
                sim: farm.log.into_report(policy),
                stats,
                banked_per_epoch: farm.banked,
                arrivals_per_epoch: farm.arrivals,
                departures_per_epoch: farm.departures,
                final_loads: farm.rebalancer.loads().to_vec(),
            }
        })
        .collect()
}

/// One farm of a fleet: its rebalancer, churn stream, fault plan and the
/// per-epoch records of its [`OnlineRunReport`].
struct Farm<'a> {
    cfg: &'a OnlineWorkloadConfig,
    plan: &'a FaultPlan,
    rebalancer: OnlineRebalancer,
    workload: OnlineWorkload,
    log: RunLog,
    banked: Vec<u64>,
    arrivals: Vec<usize>,
    departures: Vec<usize>,
}

/// A farm's epoch between its churn and its commit.
struct EpochStep {
    churn: (usize, usize),
    /// Surviving servers, ascending.
    up: Vec<usize>,
    /// Evacuations off crashed servers and their relocation cost.
    forced: (usize, u64),
    /// The bank-clamped budget of the epoch's solve; `None` when the plan
    /// exhausted the solver and the rebalance was skipped.
    effective: Option<Budget>,
}

impl<'a> Farm<'a> {
    fn new<T: Tracer>(cfg: &'a OnlineWorkloadConfig, plan: &'a FaultPlan, obs: &T) -> Self {
        assert_eq!(
            plan.num_procs(),
            cfg.num_procs,
            "fault plan covers {} processors but the farm has {} servers",
            plan.num_procs(),
            cfg.num_procs
        );
        let mut rebalancer =
            OnlineRebalancer::new(cfg.num_procs, cfg.bank).expect("online farm has servers");
        let mut workload = OnlineWorkload::new(*cfg);
        apply_churn(&mut rebalancer, &workload.initial_events(), obs);
        Farm {
            cfg,
            plan,
            rebalancer,
            workload,
            log: RunLog::new(cfg.epochs, !plan.is_fault_free()),
            banked: Vec::with_capacity(cfg.epochs),
            arrivals: Vec::with_capacity(cfg.epochs),
            departures: Vec::with_capacity(cfg.epochs),
        }
    }

    /// Apply the epoch's churn and evacuations and, unless the plan
    /// exhausted the solver, open the rebalance and push its item.
    fn begin_epoch<T: Tracer>(
        &mut self,
        epoch: usize,
        items: &mut Vec<BatchItem>,
        obs: &T,
    ) -> EpochStep {
        let churn = apply_churn(&mut self.rebalancer, &self.workload.epoch_events(), obs);
        let faults = self.plan.epoch(epoch);
        let up: Vec<usize> = (0..self.cfg.num_procs)
            .filter(|&p| !faults.down[p])
            .collect();

        let r = &mut self.rebalancer;
        let stranded: Vec<JobKey> = r
            .keys()
            .iter()
            .zip(r.assignment())
            .filter(|&(_, &p)| faults.down[p])
            .map(|(&key, _)| key)
            .collect();
        let mut forced_cost = 0u64;
        for &key in &stranded {
            let &to = up
                .iter()
                .min_by_key(|&&p| r.loads()[p])
                .expect("fault plans keep at least one processor up");
            let job = *r.job(key).expect("live key");
            r.force_move(key, to).expect("valid evacuation");
            r.bill(match self.cfg.budget {
                Budget::Moves(_) => 1,
                Budget::Cost(_) => job.cost,
            });
            forced_cost = forced_cost.saturating_add(job.cost);
        }

        let effective = (!faults.solver_exhausted).then(|| {
            let budget = r.begin_rebalance(self.cfg.budget);
            items.push(BatchItem {
                instance: project(r.instance(), &up),
                budget,
            });
            budget
        });
        EpochStep {
            churn,
            up,
            forced: (stranded.len(), forced_cost),
            effective,
        }
    }

    /// Commit the engine's `answer` (its outcome over the projected
    /// snapshot, the budget it billed, and its solve time) and record the
    /// epoch over the true state.
    fn end_epoch<T: Tracer>(
        &mut self,
        epoch: usize,
        step: EpochStep,
        answer: Option<(&RebalanceOutcome, Budget, u64)>,
        obs: &T,
    ) {
        let r = &mut self.rebalancer;
        let log = &mut self.log;
        let committed = answer.map(|(outcome, budget, _)| {
            let mapped: Vec<usize> = outcome.assignment().iter().map(|&q| step.up[q]).collect();
            r.commit_assignment(&mapped, budget)
        });
        let (moves, cost, rejected) = match committed {
            None => (0, 0, false),
            Some(Ok(commit)) => (commit.moves as usize, commit.cost, false),
            Some(Err(e)) => {
                assert!(log.faults.is_some(), "fault-free commit failed: {e}");
                (0, 0, true)
            }
        };

        let makespan = r.makespan();
        let total = r.loads().iter().fold(0u64, |a, &l| a.saturating_add(l));
        if let Some(tally) = log.faults.as_mut() {
            let sizes: Vec<u64> = r.instance().jobs().iter().map(|j| j.size).collect();
            let tier = if rejected { "rejected" } else { "policy" };
            let regret = oracle_regret(makespan, &sizes, step.up.len());
            tally.record_faults(tier, step.forced, step.effective.is_none(), regret, obs);
        }
        let migrations = step.forced.0 + moves;
        let metrics = EpochMetrics {
            epoch,
            makespan,
            avg_load: total.div_ceil(step.up.len() as u64),
            migrations,
            migration_cost: step.forced.1.saturating_add(cost),
        };
        let nanos = answer.map_or(0, |(_, _, nanos)| nanos).max(1);
        log.record_epoch(metrics, nanos, obs);
        let banked = r.bank().balance();
        obs.observe(names::ONLINE_BANKED, banked);
        self.banked.push(banked);
        self.arrivals.push(step.churn.0);
        self.departures.push(step.churn.1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Assert two runs are identical up to wall-clock timings.
    fn assert_same_trace(a: &OnlineRunReport, b: &OnlineRunReport) {
        let strip = |r: &OnlineRunReport| {
            let mut r = r.clone();
            r.sim.epoch_wall_nanos.clear();
            r
        };
        assert_eq!(strip(a), strip(b));
    }

    /// `cfg` run as a fleet of one under `plan`.
    fn solo_under(cfg: &OnlineWorkloadConfig, plan: &FaultPlan) -> OnlineRunReport {
        let fleet = OnlineFleetConfig {
            farms: vec![*cfg],
            threads: 1,
        };
        run_online_fleet_in(&fleet, std::slice::from_ref(plan), &NoopTracer).remove(0)
    }

    /// `cfg` run as a fault-free fleet of one.
    fn solo(cfg: &OnlineWorkloadConfig) -> OnlineRunReport {
        solo_under(cfg, &FaultPlan::none(cfg.num_procs))
    }

    fn cfg() -> OnlineWorkloadConfig {
        let mut c = OnlineWorkloadConfig::default_online(4);
        c.epochs = 30;
        c.initial_jobs = 20;
        c.seed = 11;
        c
    }

    #[test]
    fn workload_is_deterministic_and_keys_never_repeat_while_live() {
        let mut a = OnlineWorkload::new(cfg());
        let mut b = OnlineWorkload::new(cfg());
        assert_eq!(a.initial_events(), b.initial_events());
        for _ in 0..10 {
            assert_eq!(a.epoch_events(), b.epoch_events());
        }
        let mut live = std::collections::HashSet::new();
        let mut w = OnlineWorkload::new(cfg());
        for e in w.initial_events() {
            if let Event::Arrive { key, .. } = e {
                assert!(live.insert(key));
            }
        }
        for _ in 0..10 {
            for e in w.epoch_events() {
                match e {
                    Event::Arrive { key, .. } => assert!(live.insert(key)),
                    Event::Depart { key } => assert!(live.remove(&key)),
                    Event::Rebalance { .. } => unreachable!("generator never emits rebalances"),
                }
            }
        }
    }

    #[test]
    fn online_run_is_deterministic_and_respects_effective_budgets() {
        let c = cfg();
        let a = solo(&c);
        let b = solo(&c);
        assert_eq!(a.sim.epochs, b.sim.epochs);
        assert_eq!(a.banked_per_epoch, b.banked_per_epoch);
        assert_eq!(a.final_loads, b.final_loads);
        assert_eq!(a.sim.epochs.len(), c.epochs);
        // Migrations never exceed the requested budget (the bank can only
        // tighten it).
        for e in &a.sim.epochs {
            assert!(e.migrations <= 4, "epoch {}: {}", e.epoch, e.migrations);
        }
        assert_eq!(a.stats.rebalances, c.epochs as u64);
        assert_eq!(
            a.stats.events,
            a.stats.arrivals + a.stats.departures + a.stats.rebalances
        );
    }

    #[test]
    fn bank_at_cap_with_forced_evacuation_same_epoch() {
        // The exhaustion boundary: a bank sitting exactly at its cap when
        // a crash forces evacuations in the same epoch as a rebalance.
        // Billing must drain below cap, the epoch's accrual must clamp at
        // the cap (forfeiting the excess, never overflowing), and the
        // rebalance's effective budget must equal the post-evacuation,
        // post-accrual balance.
        let bank = BankConfig {
            initial: 3,
            cap: 3,
            accrual: 2,
        };
        let mut farm = OnlineRebalancer::new(3, bank).expect("3 servers");
        for (k, (size, proc)) in [(9u64, 0), (7, 0), (5, 1), (4, 1), (3, 2)]
            .into_iter()
            .enumerate()
        {
            farm.arrive(k as u64, Job::unit(size), proc).unwrap();
        }
        assert_eq!(farm.bank().balance(), farm.bank().cap());

        // "Crash" server 2: evacuate its one job to the least-loaded
        // survivor, billing one move unit — exactly the faulty-run path.
        let stranded: Vec<JobKey> = farm
            .keys()
            .iter()
            .copied()
            .filter(|&k| farm.proc_of(k) == Some(2))
            .collect();
        assert_eq!(stranded.len(), 1);
        for key in &stranded {
            let to = (0..2).min_by_key(|&p| farm.loads()[p]).unwrap();
            farm.force_move(*key, to).unwrap();
            farm.bill(1);
        }
        assert_eq!(farm.bank().balance(), 2, "cap 3 minus one billed move");

        // Same epoch: rebalance. Accrual of 2 would reach 4 but clamps at
        // the cap; the effective budget is the clamped balance, not the
        // requested amount.
        let effective = farm.begin_rebalance(Budget::Moves(10));
        assert_eq!(farm.bank().balance(), farm.bank().cap());
        assert_eq!(effective, Budget::Moves(3));
        // Accrual of 2 from balance 2 would pass the cap of 3: only the
        // 1 credited unit counts; the forfeited remainder is gone.
        assert_eq!(farm.bank().total_accrued(), 1);

        // A full faulty run under heavy crash churn keeps the invariant
        // balance ≤ cap at every epoch, starting exactly at the cap.
        let mut c = cfg();
        c.bank = bank;
        c.epochs = 40;
        let fc = lrb_faults::FaultConfig {
            crash_rate: 0.35,
            recovery_rate: 0.5,
            ..lrb_faults::FaultConfig::none(9)
        };
        let plan = FaultPlan::generate(&fc, c.num_procs, c.epochs);
        let r = solo_under(&c, &plan);
        assert_eq!(r.banked_per_epoch.len(), c.epochs);
        for (e, &b) in r.banked_per_epoch.iter().enumerate() {
            assert!(b <= bank.cap, "epoch {e}: banked {b} above cap");
        }
    }

    #[test]
    fn online_counters_are_emitted() {
        let rec = lrb_obs::AtomicRecorder::new();
        let c = cfg();
        let fleet = OnlineFleetConfig {
            farms: vec![c],
            threads: 1,
        };
        let r = run_online_fleet_in(&fleet, &[FaultPlan::none(c.num_procs)], &rec).remove(0);
        let snap = rec.snapshot();
        assert_eq!(snap.counter(names::ONLINE_EVENTS), Some(r.stats.events));
        assert_eq!(
            snap.counter(names::ONLINE_REBALANCES),
            Some(c.epochs as u64)
        );
        assert_eq!(
            snap.histogram(names::ONLINE_BANKED).unwrap().count,
            c.epochs as u64
        );
        assert!(snap.histogram(names::ONLINE_EVENT_NANOS).unwrap().count > 0);
    }

    #[test]
    fn fault_free_plan_is_bit_identical_to_clean_run() {
        let c = cfg();
        let clean = solo(&c);
        let faulty = solo_under(&c, &FaultPlan::none(c.num_procs));
        assert_same_trace(&clean, &faulty);
    }

    #[test]
    fn crashes_evacuate_and_degrade_gracefully() {
        let c = cfg();
        let plan = FaultPlan::generate(
            &lrb_faults::FaultConfig::crashes(0.25, 0.5, 7),
            c.num_procs,
            c.epochs,
        );
        assert!(!plan.is_fault_free());
        let r = solo_under(&c, &plan);
        assert_eq!(r.sim.epochs.len(), c.epochs);
        assert_eq!(r.sim.provenance.len(), c.epochs);
        assert!(
            r.sim.degradation.forced_migrations > 0,
            "{:?}",
            r.sim.degradation
        );
        assert!(r.sim.degradation.epochs_degraded > 0);
        assert!(r.sim.degradation.mean_oracle_regret.is_finite());
        let deterministic = solo_under(&c, &plan);
        assert_same_trace(&r, &deterministic);
    }

    #[test]
    fn exhausted_epochs_skip_the_solve() {
        let c = cfg();
        let plan = FaultPlan::generate(
            &lrb_faults::FaultConfig {
                exhaust_rate: 1.0,
                ..lrb_faults::FaultConfig::none(5)
            },
            c.num_procs,
            c.epochs,
        );
        let r = solo_under(&c, &plan);
        assert_eq!(r.sim.degradation.budget_exhausted_epochs, c.epochs as u64);
        assert_eq!(r.stats.rebalances, 0);
    }

    #[test]
    fn fleet_traces_match_solo_online_runs() {
        let mut farms = Vec::new();
        for (m, seed) in [(4usize, 1u64), (6, 2), (3, 3)] {
            let mut fc = OnlineWorkloadConfig::default_online(m);
            fc.epochs = 20;
            fc.seed = seed;
            farms.push(fc);
        }
        // A shorter cost-budget farm covers the cost path and early finish.
        let mut fc = OnlineWorkloadConfig::default_online(4);
        fc.epochs = 12;
        fc.budget = Budget::Cost(5);
        fc.seed = 9;
        farms.push(fc);

        let fleet = run_online_fleet(&OnlineFleetConfig {
            farms: farms.clone(),
            threads: 2,
        });
        assert_eq!(fleet.len(), farms.len());
        for (fc, fleet_report) in farms.iter().zip(&fleet) {
            let solo = solo(fc);
            assert_eq!(fleet_report.sim.policy, solo.sim.policy);
            assert_eq!(fleet_report.sim.epochs, solo.sim.epochs);
            assert_eq!(fleet_report.sim.decisions, solo.sim.decisions);
            assert_eq!(fleet_report.banked_per_epoch, solo.banked_per_epoch);
            assert_eq!(fleet_report.arrivals_per_epoch, solo.arrivals_per_epoch);
            assert_eq!(fleet_report.departures_per_epoch, solo.departures_per_epoch);
            assert_eq!(fleet_report.stats, solo.stats);
            assert_eq!(fleet_report.final_loads, solo.final_loads);
        }
    }

    #[test]
    fn faulty_farms_in_a_fleet_match_their_fleets_of_one() {
        let crashes = |m: usize, epochs: usize, seed: u64| {
            FaultPlan::generate(
                &lrb_faults::FaultConfig::crashes(0.25, 0.5, seed),
                m,
                epochs,
            )
        };
        let mut farms = Vec::new();
        let mut plans = Vec::new();
        for (m, seed) in [(4usize, 1u64), (6, 2), (3, 3), (5, 4)] {
            let mut fc = OnlineWorkloadConfig::default_online(m);
            fc.epochs = 20;
            fc.seed = seed;
            farms.push(fc);
        }
        plans.push(crashes(4, 20, 7));
        plans.push(FaultPlan::generate(
            &lrb_faults::FaultConfig {
                exhaust_rate: 0.4,
                ..lrb_faults::FaultConfig::none(8)
            },
            6,
            20,
        ));
        plans.push(FaultPlan::none(3));
        plans.push(FaultPlan::generate(
            &lrb_faults::FaultConfig {
                exhaust_rate: 0.3,
                ..lrb_faults::FaultConfig::crashes(0.2, 0.5, 9)
            },
            5,
            20,
        ));
        // A shorter cost-budget farm under crashes finishes early.
        let mut fc = OnlineWorkloadConfig::default_online(4);
        fc.epochs = 12;
        fc.budget = Budget::Cost(5);
        fc.seed = 9;
        farms.push(fc);
        plans.push(crashes(4, 12, 10));

        let solos: Vec<OnlineRunReport> = farms
            .iter()
            .zip(&plans)
            .map(|(fc, plan)| solo_under(fc, plan))
            .collect();
        assert!(solos[0].sim.degradation.forced_migrations > 0);
        assert!(solos[1].sim.degradation.budget_exhausted_epochs > 0);
        assert!(solos[2].sim.degradation.is_clean() && solos[2].sim.provenance.is_empty());
        assert!(solos[3].sim.degradation.forced_migrations > 0);
        assert!(solos[3].sim.degradation.budget_exhausted_epochs > 0);
        assert!(solos[4].sim.degradation.forced_migrations > 0);
        for threads in [1, 2, 4] {
            let fleet = OnlineFleetConfig {
                farms: farms.clone(),
                threads,
            };
            let reports = run_online_fleet_in(&fleet, &plans, &NoopTracer);
            assert_eq!(reports.len(), solos.len());
            for (report, solo) in reports.iter().zip(&solos) {
                assert_same_trace(report, solo);
            }
        }
    }

    #[test]
    fn online_fleet_is_thread_count_invariant() {
        let farms: Vec<OnlineWorkloadConfig> = (0..3)
            .map(|i| {
                let mut fc = OnlineWorkloadConfig::default_online(4 + i);
                fc.epochs = 15;
                fc.seed = i as u64;
                fc
            })
            .collect();
        let seq = run_online_fleet(&OnlineFleetConfig {
            farms: farms.clone(),
            threads: 1,
        });
        for threads in [2, 4, 8] {
            let par = run_online_fleet(&OnlineFleetConfig {
                farms: farms.clone(),
                threads,
            });
            for (a, b) in seq.iter().zip(&par) {
                assert_same_trace(a, b);
            }
        }
    }

    #[test]
    fn empty_online_fleet() {
        assert!(run_online_fleet(&OnlineFleetConfig {
            farms: Vec::new(),
            threads: 4,
        })
        .is_empty());
    }
}
