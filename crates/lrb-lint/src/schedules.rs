//! Deterministic concurrency-schedule exploration for `lrb-engine`.
//!
//! The engine promises batch results bit-identical for any thread count and
//! any claim order. This module is the cheap loom-style gate behind that
//! promise: it replays seeded batches under pathological scheduler shims —
//! forced steal storms, single-slot stripe layouts, seeded yield/sleep
//! points — and asserts every adversarial run reproduces the single-thread
//! reference bit for bit.

use std::ops::Range;

use lrb_engine::schedule::AdversarialShim;
use lrb_engine::{solve_batch, solve_batch_shimmed, BatchItem, BatchSolver, EngineConfig};
use lrb_instances::GeneratorConfig;

use lrb_core::model::Budget;

/// The perturbation modes explored per seed.
const MODES: &[(&str, bool, bool, bool)] = &[
    // (name, storm, single_slot, jitter)
    ("storm", true, false, false),
    ("single-slot", false, true, false),
    ("jitter", false, false, true),
    ("storm+single-slot+jitter", true, true, true),
];

const SOLVERS: &[BatchSolver] = &[
    BatchSolver::Greedy,
    BatchSolver::MPartition,
    BatchSolver::CostPartition,
];

/// Summary of one exploration run.
#[derive(Debug)]
pub struct ScheduleReport {
    /// Adversarial schedules executed (seed × mode × thread count × solver).
    pub schedules_run: usize,
    /// Steals observed across all adversarial runs — proof the storm modes
    /// actually exercised the racy path.
    pub total_steals: u64,
    /// Bit-identity violations, empty on success.
    pub failures: Vec<String>,
}

impl ScheduleReport {
    /// True when every schedule reproduced the reference bit for bit and
    /// the exploration was not vacuous.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// A seeded mixed batch: varied multisets, placements, and both budget
/// kinds, so every solver path is exercised.
fn batch(seed: u64) -> Vec<BatchItem> {
    (0..24)
        .map(|i| {
            let cfg = GeneratorConfig::uniform(16 + (i % 3) * 4, 3 + i % 3);
            let instance = cfg.generate(seed ^ (i as u64).wrapping_mul(0x9E37_79B9));
            let budget = if i % 4 == 3 {
                Budget::Cost(2 + i as u64 % 7)
            } else {
                Budget::Moves(2 + i % 5)
            };
            BatchItem { instance, budget }
        })
        .collect()
}

/// Run the exploration for every seed in `seeds` at the given adversarial
/// thread counts. Each (seed, mode, threads, solver) tuple is one schedule;
/// all must match the single-thread reference exactly.
pub fn explore(seeds: Range<u64>, threads: &[usize]) -> ScheduleReport {
    let mut report = ScheduleReport {
        schedules_run: 0,
        total_steals: 0,
        failures: Vec::new(),
    };
    for seed in seeds {
        let items = batch(seed);
        for &solver in SOLVERS {
            let reference = solve_batch(&items, solver, &EngineConfig::with_threads(1));
            for &(mode, storm, single_slot, jitter) in MODES {
                for &t in threads {
                    let shim = AdversarialShim::new(seed, storm, single_slot, jitter);
                    let adv =
                        solve_batch_shimmed(&items, solver, &EngineConfig::with_threads(t), &shim);
                    report.schedules_run += 1;
                    report.total_steals += adv.steals;
                    if adv.outcomes != reference.outcomes {
                        let diverged = reference
                            .outcomes
                            .iter()
                            .zip(&adv.outcomes)
                            .position(|(a, b)| a != b);
                        report.failures.push(format!(
                            "seed {seed} mode {mode} threads {t} solver {solver:?}: \
                             outcomes diverge from the 1-thread reference (first at \
                             item {diverged:?})"
                        ));
                    }
                }
            }
        }
    }
    if report.failures.is_empty() && report.total_steals == 0 {
        report
            .failures
            .push("exploration was vacuous: no schedule produced a single steal".to_string());
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_exploration_passes_and_steals() {
        let report = explore(0..2, &[2]);
        assert!(report.passed(), "{:?}", report.failures);
        assert_eq!(report.schedules_run, 2 * MODES.len() * SOLVERS.len());
        assert!(report.total_steals > 0);
    }
}
