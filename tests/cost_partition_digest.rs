//! Pins cost-PARTITION's answers on seeded farms shaped like the
//! benchmark's offline farms: `n / 8` servers with hot low-numbered ones,
//! migration costs uniform in 1..=10, sizes uniform in 1..=1000 or Pareto,
//! under budgets of the farm's total migration cost over {1, 2, 4, 8, 32}.
//!
//! Each digest folds `(guess, planned_cost, assignment)` of every solve at
//! one farm size. The values were recorded with a plain branch-and-bound
//! (LP bound rounded up, a fresh ratio sort in every knapsack), whose
//! knapsacks on these farms all finished within the node budget, so a
//! faster search that keeps the same answers must reproduce them bit for
//! bit.

use load_rebalance::core::cost_partition;
use load_rebalance::instances::{CostModel, GeneratorConfig, PlacementModel, SizeDistribution};

/// `(n, digest)` recorded before the change.
const PINNED: [(usize, u64); 5] = [
    (40, 4_035_923_960_313_926_824),
    (120, 130_098_307_288_775_905),
    (400, 15_794_624_308_026_079_518),
    (1000, 8_114_969_290_510_188_871),
    (4000, 14_233_198_797_225_971_324),
];

const BUDGET_DIVISORS: [u64; 5] = [1, 2, 4, 8, 32];

/// FNV-1a over the little-endian bytes of `word`.
fn fold(hash: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn digest(n: usize) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for (law, sizes) in [
        SizeDistribution::Uniform { lo: 1, hi: 1000 },
        SizeDistribution::Pareto {
            scale: 10,
            alpha: 1.5,
        },
    ]
    .into_iter()
    .enumerate()
    {
        let inst = GeneratorConfig {
            n,
            m: (n / 8).max(2),
            sizes,
            placement: PlacementModel::Skewed { skew: 1.0 },
            costs: CostModel::Uniform { lo: 1, hi: 10 },
        }
        .generate(1_000 + n as u64 * 10 + law as u64);
        for div in BUDGET_DIVISORS {
            let run = cost_partition::rebalance(&inst, inst.total_cost() / div).unwrap();
            fold(&mut hash, run.guess);
            fold(&mut hash, run.planned_cost);
            for &p in run.outcome.assignment() {
                fold(&mut hash, p as u64);
            }
        }
    }
    hash
}

#[test]
fn answers_match_the_recorded_digests() {
    let got: Vec<(usize, u64)> = PINNED.iter().map(|&(n, _)| (n, digest(n))).collect();
    assert_eq!(got, PINNED, "cost-PARTITION answers drifted");
}
