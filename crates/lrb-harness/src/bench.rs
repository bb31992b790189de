//! Reproducible instance batches for the engine benchmarks.
//!
//! The `engine_scaling` and `noop_overhead` criterion benches and the
//! `lrb trace --scenario smoke_ladder|standard_ladder` timelines all need
//! the *same* work so their numbers are comparable across runs and
//! machines. [`standard_ladder`] builds that work: a ladder of batch rungs
//! of increasing instance size, deterministic in the seed.
//!
//! Within a rung every instance shares one job multiset under different
//! placements — the shape an epoch batch or a placement sweep produces.

use lrb_core::model::{Budget, Instance};
use lrb_instances::GeneratorConfig;

use crate::runner::seed_for;

/// One rung of the bench ladder: a named batch of instances plus the budget
/// each is solved under.
#[derive(Debug, Clone)]
pub struct BenchBatch {
    /// Rung name, e.g. `"n256_m32"`.
    pub name: String,
    /// Per-instance relocation budget.
    pub budget: Budget,
    /// The instances of this rung.
    pub instances: Vec<Instance>,
}

/// The standard bench ladder: rungs of `n ∈ {32, 64, 128, 256}` jobs on
/// `m = n/8` processors, each rung holding `variants` same-multiset
/// instances under distinct placements. Deterministic in `seed`.
pub fn standard_ladder(seed: u64, variants: usize) -> Vec<BenchBatch> {
    [32usize, 64, 128, 256]
        .iter()
        .map(|&n| rung(n, n / 8, variants, seed))
        .collect()
}

/// A cut-down ladder for smoke tests: two small rungs, few variants.
pub fn smoke_ladder(seed: u64) -> Vec<BenchBatch> {
    vec![rung(32, 4, 8, seed), rung(64, 8, 8, seed)]
}

/// Build one rung: generate a base instance, then re-place its jobs
/// `variants` times with a splitmix-derived deterministic placement.
fn rung(n: usize, m: usize, variants: usize, seed: u64) -> BenchBatch {
    let base = GeneratorConfig::uniform(n, m).generate(seed_for(seed, n as u64));
    let instances = (0..variants)
        .map(|v| {
            let placement: Vec<usize> = (0..n)
                .map(|j| (seed_for(seed ^ 0xB1A5, (v * n + j) as u64) % m as u64) as usize)
                .collect();
            Instance::new(base.jobs().to_vec(), placement, m)
                .expect("derived placements are well-formed")
        })
        .collect();
    BenchBatch {
        name: format!("n{n}_m{m}"),
        budget: Budget::Moves((n / 8).max(1)),
        instances,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_is_deterministic_in_the_seed() {
        let a = standard_ladder(7, 4);
        let b = standard_ladder(7, 4);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.instances.len(), y.instances.len());
            for (ia, ib) in x.instances.iter().zip(&y.instances) {
                assert_eq!(ia.initial(), ib.initial());
                assert_eq!(
                    ia.jobs().iter().map(|j| j.size).collect::<Vec<_>>(),
                    ib.jobs().iter().map(|j| j.size).collect::<Vec<_>>()
                );
            }
        }
    }

    #[test]
    fn rungs_share_a_multiset_but_not_placements() {
        for batch in standard_ladder(3, 6) {
            let first = &batch.instances[0];
            let sizes = |i: &Instance| {
                let mut s: Vec<u64> = i.jobs().iter().map(|j| j.size).collect();
                s.sort_unstable();
                s
            };
            let base_sizes = sizes(first);
            let mut distinct_placements = 0;
            for inst in &batch.instances {
                assert_eq!(sizes(inst), base_sizes, "{}", batch.name);
                if inst.initial() != first.initial() {
                    distinct_placements += 1;
                }
            }
            assert!(distinct_placements > 0, "{}", batch.name);
        }
    }

    #[test]
    fn smoke_ladder_is_small() {
        let rungs = smoke_ladder(1);
        assert_eq!(rungs.len(), 2);
        assert!(rungs.iter().all(|r| r.instances.len() <= 8));
        assert!(rungs.iter().all(|r| r.instances[0].num_jobs() <= 64));
    }
}
