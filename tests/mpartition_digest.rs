//! Pins M-PARTITION's answers on seeded farms shaped like the benchmark's.
//!
//! * Batch farms: `n / 8` servers with hot low-numbered ones, migration
//!   costs uniform in 1..=10 (the no-regression clamp compares them), sizes
//!   uniform in 1..=1000, Pareto, or uniform in 1..=8 (ties everywhere), at
//!   n ∈ {1,000, 4,000, 16,000} under move budgets k ∈ {0, 1, n/16, n/4, n}.
//! * Fleet farms: 8 servers holding ~64 live jobs after Poisson churn, each
//!   re-solved every epoch under the move bank's grant, as an online fleet
//!   does.
//!
//! Every farm is solved twice per search, in a fresh context and in one
//! context per digest (so the fleet's solves also reuse a warm scratch).
//! Each digest folds `(threshold, probes, planned_moves, selected,
//! assignment)` of every solve. The `Binary` values were recorded with the
//! plain implementation (a profile sort through id lookups, five small-job
//! searches per processor and probe, a full sort of every ranking and of
//! the whole candidate ladder); the `Scan` and `Incremental` values with a
//! global size sort behind `L_T` and the doubled-size candidates. A faster
//! M-PARTITION that keeps the same answers must reproduce them bit for bit.

use load_rebalance::core::model::{Budget, Instance, Job};
use load_rebalance::core::mpartition::{self, MPartitionRun, ThresholdSearch};
use load_rebalance::core::online::{BankConfig, Event, OnlineRebalancer};
use load_rebalance::core::Ctx;
use load_rebalance::instances::{CostModel, GeneratorConfig, PlacementModel, SizeDistribution};
use load_rebalance::sim::{OnlineWorkload, OnlineWorkloadConfig};

/// `(n, digest)` of the batch farms, recorded before the change.
const BATCH_PINNED: [(usize, u64); 3] = [
    (1_000, 1_965_841_043_884_104_765),
    (4_000, 10_207_894_507_687_673_277),
    (16_000, 12_110_116_637_650_344_441),
];

/// Digest of the fleet farms, recorded before the change.
const FLEET_PINNED: u64 = 3_307_676_280_288_557_205;

/// `(search, n = 1,000 batch digest, fleet digest)` of the two searches
/// the digests above leave out, recorded before `L_T` came from the
/// per-processor profiles. Both walk the same candidates, so they agree.
const SEARCH_PINNED: [(ThresholdSearch, u64, u64); 2] = [
    (
        ThresholdSearch::Scan,
        10_464_863_051_977_675_053,
        5_506_123_467_626_470_853,
    ),
    (
        ThresholdSearch::Incremental,
        10_464_863_051_977_675_053,
        5_506_123_467_626_470_853,
    ),
];

const FLEET_FARMS: u64 = 64;
const FLEET_EPOCHS: usize = 40;
const FLEET_MOVES: usize = 4;

/// FNV-1a over the little-endian bytes of `word`.
fn fold(hash: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn fold_run(hash: &mut u64, run: &MPartitionRun) {
    fold(hash, run.threshold);
    fold(hash, run.probes as u64);
    fold(hash, run.stats.planned_moves as u64);
    fold(hash, run.stats.selected.len() as u64);
    for &p in &run.stats.selected {
        fold(hash, p as u64);
    }
    for &p in run.outcome.assignment() {
        fold(hash, p as u64);
    }
}

/// `run` in a fresh context and in the digest's shared one.
fn fold_both(
    hash: &mut u64,
    ctx: &mut Ctx<'_>,
    search: ThresholdSearch,
    inst: &Instance,
    k: usize,
) -> MPartitionRun {
    let fresh = mpartition::rebalance_in(inst, k, search, &mut Ctx::default()).unwrap();
    let reused = mpartition::rebalance_in(inst, k, search, ctx).unwrap();
    fold_run(hash, &fresh);
    fold_run(hash, &reused);
    reused
}

fn batch_digest(n: usize, search: ThresholdSearch) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325;
    let mut ctx = Ctx::default();
    for (law, sizes) in [
        SizeDistribution::Uniform { lo: 1, hi: 1000 },
        SizeDistribution::Pareto {
            scale: 10,
            alpha: 1.5,
        },
        SizeDistribution::Uniform { lo: 1, hi: 8 },
    ]
    .into_iter()
    .enumerate()
    {
        let inst = GeneratorConfig {
            n,
            m: n / 8,
            sizes,
            placement: PlacementModel::Skewed { skew: 1.0 },
            costs: CostModel::Uniform { lo: 1, hi: 10 },
        }
        .generate(2_000 + n as u64 * 10 + law as u64);
        for k in [0, 1, n / 16, n / 4, n] {
            fold_both(&mut hash, &mut ctx, search, &inst, k);
        }
    }
    hash
}

fn fleet_digest(search: ThresholdSearch) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325;
    let mut ctx = Ctx::default();
    for farm_seed in 0..FLEET_FARMS {
        let cfg = OnlineWorkloadConfig {
            num_procs: 8,
            epochs: usize::MAX,
            initial_jobs: 64,
            arrival_rate: 64.0 / 25.0,
            mean_lifetime: 25.0,
            sizes: SizeDistribution::Pareto {
                scale: 4,
                alpha: 1.5,
            },
            budget: Budget::Moves(FLEET_MOVES),
            bank: BankConfig::default(),
            seed: 5_000 + farm_seed,
        };
        let mut farm = OnlineRebalancer::new(8, cfg.bank).unwrap();
        let mut workload = OnlineWorkload::new(cfg);
        let churn = |farm: &mut OnlineRebalancer, events: Vec<Event>| {
            for ev in events {
                match ev {
                    Event::Arrive { key, job, proc } => farm.arrive(key, job, proc).unwrap(),
                    Event::Depart { key } => {
                        let _: Job = farm.depart(key).unwrap();
                    }
                    Event::Rebalance { .. } => {}
                }
            }
        };
        churn(&mut farm, workload.initial_events());
        for _ in 0..FLEET_EPOCHS {
            churn(&mut farm, workload.epoch_events());
            let budget = farm.begin_rebalance(Budget::Moves(FLEET_MOVES));
            let Budget::Moves(k) = budget else {
                unreachable!("a move bank grants moves")
            };
            let reused = fold_both(&mut hash, &mut ctx, search, &farm.instance(), k);
            farm.commit_assignment(reused.outcome.assignment(), budget)
                .unwrap();
        }
    }
    hash
}

#[test]
fn batch_farm_answers_match_the_recorded_digests() {
    let got: Vec<(usize, u64)> = BATCH_PINNED
        .iter()
        .map(|&(n, _)| (n, batch_digest(n, ThresholdSearch::Binary)))
        .collect();
    assert_eq!(got, BATCH_PINNED, "M-PARTITION batch answers drifted");
}

#[test]
fn fleet_farm_answers_match_the_recorded_digest() {
    assert_eq!(
        fleet_digest(ThresholdSearch::Binary),
        FLEET_PINNED,
        "M-PARTITION fleet answers drifted"
    );
}

#[test]
fn scan_and_incremental_answers_match_the_recorded_digests() {
    let got: Vec<(ThresholdSearch, u64, u64)> = SEARCH_PINNED
        .iter()
        .map(|&(search, _, _)| (search, batch_digest(1_000, search), fleet_digest(search)))
        .collect();
    assert_eq!(got, SEARCH_PINNED, "Scan/Incremental answers drifted");
}
