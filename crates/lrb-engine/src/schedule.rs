//! Schedule-injection hooks for adversarial concurrency testing.
//!
//! The batch executor's determinism claim — results bit-identical for any
//! thread count — is only as strong as the schedules it has been run under.
//! This module lets a test harness (`lrb-lint --schedules`) drive the
//! work-stealing loop through pathological interleavings without touching
//! production performance: the executor is generic over [`ScheduleShim`]
//! exactly the way it is generic over its `Tracer`, and the default
//! [`NoopShim`] compiles every hook away behind `ACTIVE = false` branches.
//!
//! [`AdversarialShim`] is the seeded pathological scheduler: forced steal
//! storms (workers ignore their own stripe), single-slot stripe layouts
//! (maximal steal contention), and deterministic-decision yield/sleep points
//! that shake the thread interleaving while keeping the *decision* stream
//! reproducible per seed.

use std::sync::atomic::{AtomicU64, Ordering};

use lrb_obs::splitmix64;

/// Where in the worker loop a yield point sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum YieldPoint {
    /// Before the worker tries to claim from its own stripe.
    BeforeClaim,
    /// After an item index was claimed (own stripe or stolen).
    AfterClaim,
    /// Before scanning victims to steal.
    BeforeSteal,
    /// After an item was solved.
    AfterSolve,
}

/// Injection hook consulted by the batch executor's worker loop.
///
/// All hooks must be cheap and deterministic *in their decisions* (the
/// resulting thread interleaving is the operating system's business). The
/// executor only calls them when `ACTIVE` is true, so [`NoopShim`] costs
/// nothing.
pub trait ScheduleShim: Sync {
    /// `false` compiles every hook call site out of the worker loop.
    const ACTIVE: bool;

    /// Called at each yield point; may yield or sleep to perturb timing.
    fn yield_point(&self, _worker: usize, _point: YieldPoint) {}

    /// When true, the worker skips its own stripe this iteration and goes
    /// straight to stealing — a forced steal storm. Work is never lost:
    /// every stripe remains visible to all other workers, and a worker only
    /// exits once every stripe it can see is drained.
    fn steal_first(&self, _worker: usize) -> bool {
        false
    }

    /// Override the stripe layout: return the per-worker stripe *end*
    /// offsets (monotone, `len() == workers`, last element `== n`). `None`
    /// keeps the balanced default. Invalid layouts are ignored.
    fn stripes(&self, _n: usize, _workers: usize) -> Option<Vec<usize>> {
        None
    }
}

/// The production shim: no hooks, no cost.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopShim;

impl ScheduleShim for NoopShim {
    const ACTIVE: bool = false;
}

/// Maximum workers the adversarial shim tracks (matches the engine's cap).
const MAX_WORKERS: usize = 16;

/// A seeded pathological scheduler.
#[derive(Debug)]
pub struct AdversarialShim {
    seed: u64,
    /// Workers probabilistically skip their own stripe and steal instead.
    pub storm: bool,
    /// Stripe layout degenerates to one item per stripe (rest on the last).
    pub single_slot: bool,
    /// Yield points sleep/yield on seeded coin flips.
    pub jitter: bool,
    ticks: [AtomicU64; MAX_WORKERS],
}

impl AdversarialShim {
    /// A shim with every perturbation enabled.
    pub fn full(seed: u64) -> Self {
        Self::new(seed, true, true, true)
    }

    /// A shim with the given perturbations.
    pub fn new(seed: u64, storm: bool, single_slot: bool, jitter: bool) -> Self {
        AdversarialShim {
            seed,
            storm,
            single_slot,
            jitter,
            ticks: [const { AtomicU64::new(0) }; MAX_WORKERS],
        }
    }

    fn roll(&self, worker: usize, salt: u64) -> u64 {
        let t = self.ticks[worker % MAX_WORKERS].fetch_add(1, Ordering::Relaxed);
        splitmix64(
            self.seed ^ (worker as u64).wrapping_mul(0x1000_0001) ^ salt.wrapping_mul(0x51) ^ t,
        )
    }
}

impl ScheduleShim for AdversarialShim {
    const ACTIVE: bool = true;

    fn yield_point(&self, worker: usize, point: YieldPoint) {
        if !self.jitter {
            return;
        }
        let h = self.roll(worker, point as u64);
        match h % 16 {
            0..=9 => {}
            10..=13 => std::thread::yield_now(),
            // Short seeded sleeps force genuine preemption even on a
            // single-core host; capped so a full exploration stays fast.
            _ => std::thread::sleep(std::time::Duration::from_micros(h % 40)),
        }
    }

    fn steal_first(&self, worker: usize) -> bool {
        // Three in four iterations go straight to stealing: a storm, but not
        // a total starvation of the own-stripe path.
        self.storm && !self.roll(worker, 0xB0).is_multiple_of(4)
    }

    fn stripes(&self, n: usize, workers: usize) -> Option<Vec<usize>> {
        if !self.single_slot || workers == 0 {
            return None;
        }
        // First `workers - 1` stripes hold one item each; the tail of the
        // batch piles onto the last stripe, so nearly every claim by the
        // first workers must be a steal.
        let mut ends: Vec<usize> = (1..workers).map(|w| w.min(n)).collect();
        ends.push(n);
        Some(ends)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The production shim must stay compiled-out.
    const _: () = assert!(!NoopShim::ACTIVE);

    #[test]
    fn noop_shim_is_inert() {
        assert!(!NoopShim.steal_first(0));
        assert_eq!(NoopShim.stripes(10, 4), None);
    }

    #[test]
    fn single_slot_stripes_are_valid() {
        let shim = AdversarialShim::new(1, false, true, false);
        let ends = shim.stripes(13, 4).unwrap();
        assert_eq!(ends, vec![1, 2, 3, 13]);
        assert!(ends.windows(2).all(|w| w[0] <= w[1]));
        // Degenerate shapes stay well-formed.
        assert_eq!(shim.stripes(2, 4).unwrap(), vec![1, 2, 2, 2]);
        assert_eq!(shim.stripes(0, 2).unwrap(), vec![0, 0]);
    }

    #[test]
    fn decisions_are_deterministic_per_seed() {
        let a = AdversarialShim::full(7);
        let b = AdversarialShim::full(7);
        let da: Vec<bool> = (0..64).map(|_| a.steal_first(1)).collect();
        let db: Vec<bool> = (0..64).map(|_| b.steal_first(1)).collect();
        assert_eq!(da, db);
        assert!(da.iter().any(|&x| x) && da.iter().any(|&x| !x));
    }
}
