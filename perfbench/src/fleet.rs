//! `fleet_small`: many small online farms rebalanced in lockstep epochs.
//!
//! Each epoch the benchmark drives the loop lrb-serve and lrb-sim run:
//! Poisson churn from `lrb_sim::OnlineWorkload` applied to every farm's
//! `OnlineRebalancer`, `begin_rebalance`, `instance()`, one
//! `StreamEngine::solve_epoch` over all farms on two workers, then
//! `commit_assignment`. An operation is one farm solved; its latency is the
//! epoch it is solved in.

use std::time::{Duration, Instant};

use lrb_core::model::{Budget, Job};
use lrb_core::mpartition;
use lrb_core::online::{BankConfig, Event, OnlineRebalancer};
use lrb_engine::{BatchItem, BatchReport, BatchSolver, EngineConfig, StreamEngine};
use lrb_instances::SizeDistribution;
use lrb_obs::{NoopTracer, TraceCollector, Tracer};
use lrb_sim::{OnlineWorkload, OnlineWorkloadConfig};

use crate::batch::WORKERS;
use crate::check::check_answer;
use crate::gen::derive;
use crate::layers::{self, span, Attribution, EngineTally};
use crate::report::{Outcome, Tally};
use crate::stats::{mean, peak_rss_mb, quantile, Spread};

/// Farms in the fleet.
pub const FARMS: usize = 256;
/// Servers per farm.
pub const SERVERS: usize = 8;
/// Live jobs per farm at the start and, on average, thereafter.
pub const LIVE_JOBS: usize = 64;
/// Mean job lifetime in epochs; arrivals per epoch keep `LIVE_JOBS` level.
const LIFETIME: f64 = 25.0;
/// Moves each farm asks for per epoch (its move bank may grant fewer).
const MOVES: usize = 4;
/// Fleet constructions timed for `setup_s`, spread over the run.
const SETUP_REPEATS: usize = 15;

/// The churn model of farm `farm`.
pub fn farm_config(seed: u64, farm: usize) -> OnlineWorkloadConfig {
    OnlineWorkloadConfig {
        num_procs: SERVERS,
        epochs: usize::MAX,
        initial_jobs: LIVE_JOBS,
        arrival_rate: LIVE_JOBS as f64 / LIFETIME,
        mean_lifetime: LIFETIME,
        sizes: SizeDistribution::Pareto {
            scale: 4,
            alpha: 1.5,
        },
        budget: Budget::Moves(MOVES),
        bank: BankConfig::default(),
        seed: derive(seed, 3, farm as u64),
    }
}

/// The fleet: every farm's rebalancer and churn generator, and the engine.
pub struct Fleet {
    farms: Vec<(OnlineRebalancer, OnlineWorkload)>,
    engine: StreamEngine,
}

/// Apply churn events to one farm.
fn apply_churn(farm: &mut OnlineRebalancer, events: &[Event]) -> Result<(), String> {
    for ev in events {
        match *ev {
            Event::Arrive { key, job, proc } => farm.arrive(key, job, proc),
            Event::Depart { key } => farm.depart(key).map(|_: Job| ()),
            Event::Rebalance { .. } => Ok(()),
        }
        .map_err(|e| format!("churn: {e}"))?;
    }
    Ok(())
}

impl Fleet {
    /// Set-up: build every farm and populate it with its initial jobs.
    pub fn new(seed: u64) -> Result<Self, String> {
        let farms = (0..FARMS)
            .map(|f| {
                let cfg = farm_config(seed, f);
                let mut farm =
                    OnlineRebalancer::new(SERVERS, cfg.bank).map_err(|e| e.to_string())?;
                let mut workload = OnlineWorkload::new(cfg);
                apply_churn(&mut farm, &workload.initial_events())?;
                Ok((farm, workload))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let engine = StreamEngine::new(
            BatchSolver::MPartition,
            &EngineConfig::with_threads(WORKERS),
        );
        Ok(Fleet { farms, engine })
    }

    /// One lockstep epoch. Returns the items solved and the engine's report
    /// (for the checks, which run outside the timed epoch) plus the wall
    /// time of the engine call.
    fn epoch<T: Tracer>(
        &mut self,
        epoch: u64,
        tracer: &T,
    ) -> Result<(Vec<BatchItem>, BatchReport, u64), String> {
        let churn: Vec<Vec<Event>> = {
            let _s = tracer.span_with(span::SIM_EPOCH_EVENTS, epoch, false);
            self.farms
                .iter_mut()
                .map(|(_, w)| w.epoch_events())
                .collect()
        };
        {
            let _s = tracer.span_with(span::CORE_ONLINE_CHURN, epoch, false);
            for ((farm, _), events) in self.farms.iter_mut().zip(&churn) {
                apply_churn(farm, events)?;
            }
        }
        let budgets: Vec<Budget> = {
            let _s = tracer.span_with(span::CORE_ONLINE_BEGIN, epoch, false);
            self.farms
                .iter_mut()
                .map(|(farm, _)| farm.begin_rebalance(Budget::Moves(MOVES)))
                .collect()
        };
        let items: Vec<BatchItem> = {
            let _s = tracer.span_with(span::CORE_ONLINE_INSTANCE, epoch, false);
            self.farms
                .iter()
                .zip(&budgets)
                .map(|((farm, _), &budget)| BatchItem {
                    instance: farm.instance(),
                    budget,
                })
                .collect()
        };
        let call = Instant::now();
        let report = {
            let _s = tracer.span_with(span::ENGINE_SOLVE_EPOCH, epoch, false);
            self.engine.solve_epoch(&items)
        };
        let engine_nanos = call.elapsed().as_nanos() as u64;
        {
            let _s = tracer.span_with(span::CORE_ONLINE_COMMIT, epoch, false);
            for (((farm, _), item), out) in self.farms.iter_mut().zip(&items).zip(&report.outcomes)
            {
                farm.commit_assignment(out.assignment(), item.budget)
                    .map_err(|e| format!("commit: {e}"))?;
            }
        }
        Ok((items, report, engine_nanos))
    }
}

/// Check every farm's answer of one epoch.
fn check_epoch(items: &[BatchItem], report: &BatchReport, tally: &mut Tally) {
    for (i, item) in items.iter().enumerate() {
        tally.record(match report.outcomes.get(i) {
            Some(out) => check_answer(
                &item.instance,
                item.budget,
                out.assignment(),
                out.makespan(),
                true,
            )
            .map_err(|e| format!("farm {i}: {e}")),
            None => Err(format!("epoch returned no outcome for farm {i}")),
        });
    }
}

/// What a stretch of epochs measured.
#[derive(Default)]
struct Epochs {
    walls_ms: Vec<f64>,
    solves: u64,
    engine: EngineTally,
    last: Option<(Vec<BatchItem>, BatchReport)>,
}

impl Epochs {
    /// Run and check one epoch, recording it here. Returns `false` when the
    /// epoch failed, which leaves farms half-updated, so the run must stop.
    fn step<T: Tracer>(
        &mut self,
        fleet: &mut Fleet,
        epoch: u64,
        tracer: &T,
        tally: &mut Tally,
    ) -> bool {
        let start = Instant::now();
        let result = fleet.epoch(epoch, tracer);
        let wall = start.elapsed();
        let (items, report, engine_nanos) = match result {
            Ok(r) => r,
            Err(e) => {
                tally.record(Err(e));
                return false;
            }
        };
        self.walls_ms.push(wall.as_secs_f64() * 1e3);
        self.solves += items.len() as u64;
        self.engine.add(&report, engine_nanos);
        check_epoch(&items, &report, tally);
        self.last = Some((items, report));
        true
    }

    fn wall_secs(&self) -> f64 {
        self.walls_ms.iter().sum::<f64>() / 1e3
    }
}

/// The untraced run: end-to-end metrics.
pub fn run(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let budget = Duration::from_secs_f64(seconds);
    let (mut setup, mut fleet) = Spread::new(SETUP_REPEATS, budget, || Fleet::new(seed))?;
    let mut tally = Tally::default();
    let mut epochs = Epochs::default();
    let started = Instant::now();
    let mut epoch = 0u64;
    while (epoch == 0 || started.elapsed() < budget)
        && epochs.step(&mut fleet, epoch, &NoopTracer, &mut tally)
    {
        // Set-up repetitions that fall due are taken between epochs.
        setup.poll(|| Fleet::new(seed))?;
        epoch += 1;
    }
    let walls = &epochs.walls_ms;
    let rate = epochs.solves as f64 / epochs.wall_secs();
    Ok(Outcome {
        metrics: vec![
            ("setup_s", setup.median()),
            ("peak_rss_mb", peak_rss_mb()),
            ("ops_per_s", rate),
            ("op_p50_ms", quantile(walls, 0.5)),
            ("op_p95_ms", quantile(walls, 0.95)),
        ],
        detail: vec![
            ("farm_solves_per_s".into(), rate),
            ("epoch_p50_ms".into(), quantile(walls, 0.5)),
            ("epoch_p95_ms".into(), quantile(walls, 0.95)),
            ("epoch_p99_ms".into(), quantile(walls, 0.99)),
            ("epoch_samples".into(), walls.len() as f64),
        ],
        tally,
    })
}

/// The traced run: per-layer metrics. Epochs alternate between untraced and
/// traced on the same fleet, so drift over the run touches both alike; the
/// difference in mean epoch time is the tracing overhead.
pub fn run_traced(seed: u64, seconds: f64, out_dir: &std::path::Path) -> Result<Outcome, String> {
    let mut fleet = Fleet::new(seed)?;
    let mut tally = Tally::default();
    let budget = Duration::from_secs_f64(seconds);
    let collector = TraceCollector::new(1);
    let (mut plain, mut traced) = (Epochs::default(), Epochs::default());
    let started = Instant::now();
    let mut epoch = 0u64;
    while epoch < 2 || started.elapsed() < budget {
        let ok = if epoch.is_multiple_of(2) {
            plain.step(&mut fleet, epoch, &NoopTracer, &mut tally)
        } else {
            traced.step(&mut fleet, epoch, collector.main(), &mut tally)
        };
        if !ok {
            break;
        }
        epoch += 1;
    }
    let overhead = mean(&traced.walls_ms) / mean(&plain.walls_ms) - 1.0;

    // Outside the timed epochs: the last epoch's farms solved directly by
    // the kernel, and again on a one-worker engine.
    let (items, two) = traced.last.as_ref().ok_or("no epoch ran")?;
    let mut micros = Vec::new();
    let mut probes = Vec::new();
    for item in items {
        let Budget::Moves(k) = item.budget else {
            continue;
        };
        let start = Instant::now();
        let _s = collector.main().span_with(span::CORE_MPARTITION, 0, false);
        let run = mpartition::rebalance(&item.instance, k).map_err(|e| e.to_string())?;
        micros.push(start.elapsed().as_secs_f64() * 1e6);
        probes.push(run.probes as f64);
    }
    let mut single = StreamEngine::new(BatchSolver::MPartition, &EngineConfig::with_threads(1));
    let one = single.solve_epoch(items);
    check_epoch(items, &one, &mut tally);

    let epochs = traced.walls_ms.len().max(1) as f64;
    let mut detail: Vec<(String, f64)> = Vec::new();
    let trace = collector.finish("fleet_small", seed, WORKERS, "perfbench");
    let own = layers::self_nanos(&trace);
    let per_farm_us =
        |name: &str| own.get(name).copied().unwrap_or(0) as f64 / 1e3 / epochs / FARMS as f64;
    detail.push(("core.mpart_solve_us".into(), mean(&micros)));
    detail.push(("core.mpart_probes".into(), mean(&probes)));
    detail.push((
        "core.online_churn_us".into(),
        per_farm_us(span::CORE_ONLINE_CHURN),
    ));
    detail.push((
        "core.online_instance_us".into(),
        per_farm_us(span::CORE_ONLINE_INSTANCE),
    ));
    detail.push((
        "core.online_commit_us".into(),
        per_farm_us(span::CORE_ONLINE_COMMIT),
    ));
    detail.push((
        "sim.epoch_events_us".into(),
        per_farm_us(span::SIM_EPOCH_EVENTS),
    ));
    detail.extend(traced.engine.detail(layers::inflation(two, &one)));
    detail.push((
        "farm_solves_per_s".into(),
        traced.solves as f64 / traced.wall_secs(),
    ));

    let e2e = (traced.wall_secs() * 1e9) as u64;
    let mut attribution = Attribution::from_trace(&trace, e2e, &[span::CORE_MPARTITION]);
    attribution.move_nanos("engine", "core", traced.engine.solve_share_nanos);
    layers::write_outputs(
        out_dir,
        "fleet_small",
        trace,
        attribution.attributed(),
        &detail,
    )?;
    Ok(Outcome {
        metrics: attribution.metrics(overhead, mean(&micros), mean(&probes)),
        tally,
        detail,
    })
}
