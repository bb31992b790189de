//! Seeded input generation. Every input the benchmark feeds the program is
//! a pure function of the `--seed` argument and a position in the stream,
//! so the same seed always yields the same inputs.

use lrb_core::model::Instance;
use lrb_instances::{CostModel, GeneratorConfig, PlacementModel, SizeDistribution};
use lrb_serve::state::splitmix64;

/// Derive an independent sub-seed for item `index` of stream `stream`.
pub fn derive(seed: u64, stream: u64, index: u64) -> u64 {
    splitmix64(splitmix64(seed ^ stream.rotate_left(32)) ^ index)
}

/// A tiny deterministic generator for the benchmark's own choices (request
/// mixes, keys to depart); the program never sees it.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded from `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(splitmix64(seed))
    }

    /// A uniform draw from `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        splitmix64(self.0) % n.max(1)
    }
}

/// One offline farm of `n` jobs on `n / 8` servers with hot low-numbered
/// servers, relocation costs uniform in `1..=10`, and sizes uniform in
/// `1..=1000` or, with `pareto`, heavy-tailed. Distinct `seed`s give
/// distinct job multisets, so the engine's ladder cache misses.
pub fn batch_farm(n: usize, pareto: bool, seed: u64) -> Instance {
    let sizes = if pareto {
        SizeDistribution::Pareto {
            scale: 10,
            alpha: 1.5,
        }
    } else {
        SizeDistribution::Uniform { lo: 1, hi: 1000 }
    };
    GeneratorConfig {
        n,
        m: (n / 8).max(2),
        sizes,
        placement: PlacementModel::Skewed { skew: 1.0 },
        costs: CostModel::Uniform { lo: 1, hi: 10 },
    }
    .generate(seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn farms_are_deterministic_in_the_seed() {
        assert_eq!(batch_farm(64, true, 9), batch_farm(64, true, 9));
        assert_ne!(batch_farm(64, true, 9), batch_farm(64, true, 10));
        assert_eq!(derive(1, 2, 3), derive(1, 2, 3));
        assert_ne!(derive(1, 2, 3), derive(1, 2, 4));
        let draws = |s| {
            let mut r = Rng::new(s);
            (0..8).map(|_| r.below(100)).collect::<Vec<_>>()
        };
        assert_eq!(draws(5), draws(5));
        assert_ne!(draws(5), draws(6));
    }
}
