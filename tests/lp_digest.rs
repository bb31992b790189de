//! Pins the answers of the Shmoys–Tardos pipeline in lrb-lp.
//!
//! * `lrb_lp::rebalance` and `lrb_lp::constrained::rebalance` on seeded
//!   small instances (n ≤ 8, m ≤ 4, unit or 0..=9 costs, budgets 0..=3n,
//!   eligibility density 0.6): each digest folds the guess, the bits of
//!   the LP cost and the assignment of every solve.
//! * `general_gap::solve_at` on the Theorem 6 gadgets of experiment T19
//!   (its four hand cases plus seeded random families) at the separating
//!   makespan `T = 2`, at `T + 1` and at `2T`: the digest folds
//!   `(cost, assignment)` of every solve, and a marker for an infeasible
//!   one.
//!
//! The LP (variable and row order, `f64` costs, support thresholds) and its
//! min-cost rounding decide these answers bit for bit, so a change that
//! keeps the pipeline's behaviour must reproduce the digests.

use load_rebalance::core::constrained::ConstrainedInstance;
use load_rebalance::core::model::{Instance, Job};
use load_rebalance::instances::reductions::{theorem6_gadget, ThreeDm};
use load_rebalance::lp;
use load_rebalance::lp::general_gap::{solve_at, GapInstance};
use rand::{Rng, SeedableRng};

const REBALANCE_SEEDS: u64 = 3000;
const GADGET_SEEDS: u64 = 200;

/// `(unconstrained, constrained)` digests recorded before the change.
const PINNED_REBALANCE: (u64, u64) = (14_581_122_074_218_627_751, 13_195_118_448_320_929_727);
/// Digest of the gadget solves recorded before the change.
const PINNED_GADGETS: u64 = 14_531_982_020_021_177_128;

/// FNV-1a over the little-endian bytes of `word`.
fn fold(hash: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn fold_assignment(hash: &mut u64, assignment: &[usize]) {
    for &p in assignment {
        fold(hash, p as u64);
    }
}

/// A seeded instance, its eligibility lists and a cost budget.
fn seeded(seed: u64) -> (ConstrainedInstance, u64) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let n = rng.gen_range(1..=8usize);
    let m = rng.gen_range(2..=4usize);
    let unit = seed.is_multiple_of(2);
    let jobs: Vec<Job> = (0..n)
        .map(|_| {
            let size = rng.gen_range(1..=9);
            Job::with_cost(size, if unit { 1 } else { rng.gen_range(0..=9) })
        })
        .collect();
    let initial: Vec<usize> = (0..n).map(|_| rng.gen_range(0..m)).collect();
    let allowed: Vec<Vec<usize>> = initial
        .iter()
        .map(|&home| {
            let mut list = vec![home];
            list.extend((0..m).filter(|&p| p != home && rng.gen_bool(0.6)));
            list
        })
        .collect();
    let budget = rng.gen_range(0..=3 * n as u64);
    let base = Instance::new(jobs, initial, m).unwrap();
    (ConstrainedInstance::new(base, allowed).unwrap(), budget)
}

fn rebalance_digests() -> (u64, u64) {
    let (mut free, mut constrained) = (0xcbf2_9ce4_8422_2325, 0xcbf2_9ce4_8422_2325);
    for seed in 0..REBALANCE_SEEDS {
        let (cinst, budget) = seeded(seed);
        let run = lp::rebalance(cinst.base(), budget).unwrap();
        fold(&mut free, run.guess);
        fold(&mut free, run.lp_cost.to_bits());
        fold_assignment(&mut free, run.outcome.assignment());
        let run = lp::constrained::rebalance(&cinst, budget).unwrap();
        fold(&mut constrained, run.guess);
        fold(&mut constrained, run.lp_cost.to_bits());
        fold_assignment(&mut constrained, run.outcome.assignment());
    }
    (free, constrained)
}

/// T19's 3DM cases: the four hand-made ones, then the random families.
fn gadget_cases() -> Vec<ThreeDm> {
    let mut cases = vec![
        ThreeDm::new(2, vec![(0, 0, 0), (1, 1, 1), (0, 1, 0)]),
        ThreeDm::new(2, vec![(0, 0, 0), (1, 0, 1), (1, 0, 0)]),
        ThreeDm::new(3, vec![(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 0, 0)]),
        ThreeDm::new(3, vec![(0, 0, 0), (1, 1, 1), (0, 1, 2)]),
    ];
    for seed in 0..GADGET_SEEDS {
        cases.push(ThreeDm::random_matchable(3, 2, seed));
        cases.push(ThreeDm::random(3, 4, seed));
    }
    cases
}

fn gadget_digest() -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for tdm in gadget_cases() {
        let g = theorem6_gadget(&tdm, 1, 100);
        let costs: Vec<Vec<u64>> = (0..g.num_jobs())
            .map(|j| (0..g.num_machines).map(|p| g.cost(j, p)).collect())
            .collect();
        let inst = GapInstance::new(g.num_machines, g.sizes.clone(), costs);
        let t = g.target_makespan;
        for guess in [t, t + 1, 2 * t] {
            match solve_at(&inst, guess) {
                Some(sol) => {
                    fold(&mut hash, sol.cost);
                    fold_assignment(&mut hash, &sol.assignment);
                }
                None => fold(&mut hash, u64::MAX),
            }
        }
    }
    hash
}

#[test]
fn rebalance_answers_match_the_recorded_digests() {
    assert_eq!(
        rebalance_digests(),
        PINNED_REBALANCE,
        "Shmoys–Tardos rebalancing answers drifted"
    );
}

#[test]
fn gadget_answers_match_the_recorded_digest() {
    assert_eq!(
        gadget_digest(),
        PINNED_GADGETS,
        "general GAP answers on the Theorem 6 gadgets drifted"
    );
}
