//! Pins the answers of lrb-exact's searches on seeded small instances.
//!
//! * `branch_bound::solve` under a move budget and under a cost budget:
//!   the digest folds the makespan, the nodes expanded, `exact` and the
//!   witness of every solve. A second digest of the same solves leaves the
//!   nodes out, so it pins the answers of a search that prunes differently.
//! * The subset oracles: `exhaustive::optimal_makespan`, and
//!   `optimal_scaled_makespan` at one of four speed patterns (all 1, all 3,
//!   alternating 1/2, random in 1..=5).
//! * `constrained::solve` under both budget kinds, each job eligible on
//!   its home and on every other processor with probability 0.6: the
//!   makespan and the witness.
//! * `IncrementalOracle::opt` after every event of seeded churn streams,
//!   on identical machines and at one of the four speed patterns.
//!
//! Instances hold n ≤ 9 jobs of size 1..=12 on m ≤ 4 processors, with unit
//! or 0..=9 costs, move budgets 0..=n and cost budgets 0..=3n. Branch
//! order, pruning and node counting decide the witnesses and node counts
//! bit for bit, so a change that keeps the searches' behaviour must
//! reproduce the digests.

use load_rebalance::core::constrained::ConstrainedInstance;
use load_rebalance::core::hetero::Speeds;
use load_rebalance::core::model::{Budget, Instance, Job};
use load_rebalance::exact::{branch_bound, constrained, exhaustive, hetero, IncrementalOracle};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const INSTANCE_SEEDS: u64 = 4000;
const CHURN_STREAMS: u64 = 300;
const CHURN_EVENTS: usize = 40;
/// Live jobs a churn stream holds at most.
const CHURN_LIVE_MAX: usize = 9;

/// Digests recorded before the searches were folded into one placement
/// search and one branch-and-bound. `PINNED_BRANCH_BOUND` was recorded
/// again when the branch-and-bound began to stop at an incumbent that meets
/// the lower bound: its node counts fell (174,277 → 83,115 over these
/// cells), and `PINNED_BRANCH_BOUND_ANSWERS` shows its answers held.
const PINNED_BRANCH_BOUND: u64 = 17_518_678_799_110_267_957;
/// The same solves without their node counts.
const PINNED_BRANCH_BOUND_ANSWERS: u64 = 747_474_420_574_892_134;
const PINNED_SUBSET: u64 = 16_705_411_096_684_248_963;
const PINNED_CONSTRAINED: u64 = 6_839_821_472_835_884_070;
const PINNED_INCREMENTAL: u64 = 16_123_383_199_838_374_159;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

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

/// One of the four speed patterns, chosen by the stream.
fn seeded_speeds(m: usize, rng: &mut StdRng) -> Speeds {
    let speeds = match rng.gen_range(0..4) {
        0 => vec![1; m],
        1 => vec![3; m],
        2 => (0..m).map(|p| 1 + p as u64 % 2).collect(),
        _ => (0..m).map(|_| rng.gen_range(1..=5)).collect(),
    };
    Speeds::new(speeds).unwrap()
}

/// A seeded instance with eligibility lists, a move budget, a cost budget
/// and processor speeds.
struct Case {
    cinst: ConstrainedInstance,
    moves: usize,
    cost: u64,
    speeds: Speeds,
}

fn seeded(seed: u64) -> Case {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(1..=9usize);
    let m = rng.gen_range(1..=4usize);
    let unit = seed.is_multiple_of(2);
    let jobs: Vec<Job> = (0..n)
        .map(|_| {
            let size = rng.gen_range(1..=12);
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
    let moves = rng.gen_range(0..=n);
    let cost = rng.gen_range(0..=3 * n as u64);
    let speeds = seeded_speeds(m, &mut rng);
    let base = Instance::new(jobs, initial, m).unwrap();
    Case {
        cinst: ConstrainedInstance::new(base, allowed).unwrap(),
        moves,
        cost,
        speeds,
    }
}

fn budgets(case: &Case) -> [Budget; 2] {
    [Budget::Moves(case.moves), Budget::Cost(case.cost)]
}

/// With `nodes`, the digest folds each solve's node count as well.
fn branch_bound_digest(nodes: bool) -> u64 {
    let mut hash = FNV_OFFSET;
    for seed in 0..INSTANCE_SEEDS {
        let case = seeded(seed);
        for budget in budgets(&case) {
            let sol = branch_bound::solve(case.cinst.base(), budget);
            fold(&mut hash, sol.makespan);
            if nodes {
                fold(&mut hash, sol.nodes);
            }
            fold(&mut hash, u64::from(sol.exact));
            fold_assignment(&mut hash, &sol.assignment);
        }
    }
    hash
}

fn subset_digest() -> u64 {
    let mut hash = FNV_OFFSET;
    for seed in 0..INSTANCE_SEEDS {
        let case = seeded(seed);
        let inst = case.cinst.base();
        fold(&mut hash, exhaustive::optimal_makespan(inst, case.moves));
        fold(
            &mut hash,
            hetero::optimal_scaled_makespan(inst, &case.speeds, case.moves),
        );
    }
    hash
}

fn constrained_digest() -> u64 {
    let mut hash = FNV_OFFSET;
    for seed in 0..INSTANCE_SEEDS {
        let case = seeded(seed);
        for budget in budgets(&case) {
            let (makespan, witness) = constrained::solve(&case.cinst, budget);
            fold(&mut hash, makespan);
            fold_assignment(&mut hash, &witness);
        }
    }
    hash
}

fn incremental_digest() -> u64 {
    let mut hash = FNV_OFFSET;
    for stream in 0..CHURN_STREAMS {
        let mut rng = StdRng::seed_from_u64(stream);
        let m = rng.gen_range(1..=4usize);
        let mut identical = IncrementalOracle::new(m);
        let mut scaled = IncrementalOracle::with_speeds(seeded_speeds(m, &mut rng));
        let mut live: Vec<u64> = Vec::new();
        for _ in 0..CHURN_EVENTS {
            let arrive = live.is_empty() || (live.len() < CHURN_LIVE_MAX && rng.gen_bool(0.6));
            if arrive {
                let size = rng.gen_range(1..=12);
                live.push(size);
                identical.arrive(size);
                scaled.arrive(size);
            } else {
                let size = live.swap_remove(rng.gen_range(0..live.len()));
                assert!(identical.depart(size) && scaled.depart(size));
            }
            fold(&mut hash, identical.opt());
            fold(&mut hash, scaled.opt());
        }
    }
    hash
}

#[test]
fn branch_and_bound_answers_match_the_recorded_digest() {
    assert_eq!(
        branch_bound_digest(true),
        PINNED_BRANCH_BOUND,
        "branch-and-bound answers drifted"
    );
}

#[test]
fn branch_and_bound_answers_without_node_counts_match_the_recorded_digest() {
    assert_eq!(
        branch_bound_digest(false),
        PINNED_BRANCH_BOUND_ANSWERS,
        "branch-and-bound answers drifted"
    );
}

#[test]
fn subset_oracle_answers_match_the_recorded_digest() {
    assert_eq!(
        subset_digest(),
        PINNED_SUBSET,
        "subset oracle answers drifted"
    );
}

#[test]
fn constrained_answers_match_the_recorded_digest() {
    assert_eq!(
        constrained_digest(),
        PINNED_CONSTRAINED,
        "constrained oracle answers drifted"
    );
}

#[test]
fn incremental_oracle_answers_match_the_recorded_digest() {
    assert_eq!(
        incremental_digest(),
        PINNED_INCREMENTAL,
        "incremental oracle answers drifted"
    );
}
