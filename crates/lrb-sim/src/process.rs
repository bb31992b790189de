//! Process-migration simulator: the multiprocessor scenario of the paper's
//! introduction (process migration à la Harchol-Balter & Downey \[6\],
//! Rudolph et al. \[13\]).
//!
//! Processes arrive over time on random CPUs, run for heavy-tailed
//! lifetimes, and depart. Without migration, random arrivals plus
//! heavy-tailed lifetimes leave CPUs persistently unbalanced; a bounded
//! per-epoch migration budget (the paper's `k`) lets a policy chase the
//! imbalance. Migration cost is the process's memory footprint, exercising
//! the arbitrary-cost model (§3.2).

use std::time::Instant;

use lrb_core::model::{Budget, Instance, Job};
use lrb_obs::NoopTracer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::metrics::{EpochMetrics, RunLog, SimReport};
use crate::policy::Policy;

/// Parameters of the process-migration simulation.
#[derive(Debug, Clone, Copy)]
pub struct ProcessSimConfig {
    /// Number of CPUs.
    pub num_cpus: usize,
    /// Number of epochs.
    pub epochs: usize,
    /// Expected number of arrivals per epoch.
    pub arrivals_per_epoch: f64,
    /// Pareto shape for lifetimes (smaller = heavier tail); the classic
    /// process-lifetime measurements suggest ≈ 1.
    pub lifetime_alpha: f64,
    /// Minimum lifetime in epochs.
    pub lifetime_min: u64,
    /// CPU demand of a process is uniform in `[1, demand_max]`.
    pub demand_max: u64,
    /// Memory footprint (= migration cost) is uniform in `[1, mem_max]`.
    pub mem_max: u64,
    /// Per-epoch migration budget.
    pub budget: Budget,
    /// RNG seed.
    pub seed: u64,
}

impl ProcessSimConfig {
    /// A default CPU farm: 8 CPUs, moderate churn, heavy-tailed lifetimes.
    pub fn default_cpu_farm() -> Self {
        ProcessSimConfig {
            num_cpus: 8,
            epochs: 150,
            arrivals_per_epoch: 6.0,
            lifetime_alpha: 1.1,
            lifetime_min: 2,
            demand_max: 20,
            mem_max: 10,
            budget: Budget::Cost(20),
            seed: 0,
        }
    }
}

#[derive(Debug, Clone)]
struct Process {
    demand: u64,
    mem: u64,
    remaining: u64,
    cpu: usize,
}

/// Run the process-migration simulation with a policy.
pub fn run(cfg: &ProcessSimConfig, policy: &mut dyn Policy) -> SimReport {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut procs: Vec<Process> = Vec::new();
    let mut log = RunLog::new(cfg.epochs, false);

    for epoch in 0..cfg.epochs {
        let started = Instant::now();
        // Departures.
        for p in &mut procs {
            p.remaining = p.remaining.saturating_sub(1);
        }
        procs.retain(|p| p.remaining > 0);

        // Arrivals (Poisson-ish: floor + Bernoulli on the fraction).
        let whole = cfg.arrivals_per_epoch.floor() as usize;
        let frac = cfg.arrivals_per_epoch - whole as f64;
        let count = whole + usize::from(rng.gen_bool(frac.clamp(0.0, 1.0)));
        for _ in 0..count {
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            let lifetime = ((cfg.lifetime_min as f64) * u.powf(-1.0 / cfg.lifetime_alpha))
                .round()
                .min(1e6) as u64;
            procs.push(Process {
                demand: rng.gen_range(1..=cfg.demand_max),
                mem: rng.gen_range(1..=cfg.mem_max),
                remaining: lifetime.max(cfg.lifetime_min),
                cpu: rng.gen_range(0..cfg.num_cpus),
            });
        }

        // Snapshot as an instance (jobs in `procs` order) and rebalance.
        let jobs: Vec<Job> = procs
            .iter()
            .map(|p| Job::with_cost(p.demand, p.mem))
            .collect();
        let initial = procs.iter().map(|p| p.cpu).collect();
        let inst = Instance::new(jobs, initial, cfg.num_cpus)
            .expect("simulator state is a valid instance");
        let new_assignment = policy.rebalance(&inst, cfg.budget);
        let makespan = inst
            .makespan_of(&new_assignment)
            .expect("policy returned malformed assignment");
        let unlimited = policy.name() == "full-rebalance";
        assert!(
            unlimited || cfg.budget.allows(&inst, &new_assignment),
            "policy {} exceeded the budget",
            policy.name()
        );

        let migrations = inst.move_count(&new_assignment);
        let migration_cost = inst.move_cost(&new_assignment);
        for (p, &cpu) in procs.iter_mut().zip(&new_assignment) {
            p.cpu = cpu;
        }

        let metrics = EpochMetrics {
            epoch,
            makespan,
            avg_load: inst.avg_load_ceil(),
            migrations,
            migration_cost,
        };
        let nanos = (started.elapsed().as_nanos() as u64).max(1);
        log.record_epoch(metrics, nanos, &NoopTracer);
    }
    log.into_report(policy.name())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{MPartitionPolicy, NoRebalance};

    fn cfg() -> ProcessSimConfig {
        let mut c = ProcessSimConfig::default_cpu_farm();
        c.epochs = 60;
        c
    }

    #[test]
    fn deterministic_given_seed() {
        let c = cfg();
        let a = run(&c, &mut MPartitionPolicy);
        let b = run(&c, &mut MPartitionPolicy);
        assert_eq!(a.epochs, b.epochs);
    }

    #[test]
    fn cost_budget_respected() {
        let c = cfg();
        let r = run(&c, &mut MPartitionPolicy);
        for e in &r.epochs {
            assert!(
                e.migration_cost <= 20,
                "epoch {}: cost {}",
                e.epoch,
                e.migration_cost
            );
        }
    }

    #[test]
    fn migration_beats_no_migration() {
        let c = cfg();
        let drift = run(&c, &mut NoRebalance);
        let managed = run(&c, &mut MPartitionPolicy);
        assert!(
            managed.mean_imbalance() <= drift.mean_imbalance(),
            "managed {} vs drift {}",
            managed.mean_imbalance(),
            drift.mean_imbalance()
        );
    }

    #[test]
    fn population_fluctuates_but_sim_stays_valid() {
        let mut c = cfg();
        c.arrivals_per_epoch = 0.4; // sparse arrivals: sometimes zero procs
        let r = run(&c, &mut MPartitionPolicy);
        assert_eq!(r.epochs.len(), c.epochs);
    }
}
