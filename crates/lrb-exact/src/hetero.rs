//! Subset-enumeration exact oracle for the *uniform-machine* (speed-scaled)
//! move-budget problem: [`crate::exhaustive`]'s subset search with
//! makespans scaled through [`lrb_core::hetero::scaled_load`]. Its
//! placement search keys processor symmetry on the `(load, speed)` pair:
//! two processors are interchangeable for a homeless job only when both
//! their residual load *and* their speed match.
//!
//! This is the certification oracle for `tests/differential_hetero.rs`.

use lrb_core::hetero::Speeds;
use lrb_core::model::{Instance, Size};

/// Optimal speed-scaled makespan over all rebalancings moving at most `k`
/// jobs. Speeds must match the instance (debug-asserted; the public CLI and
/// test callers validate via [`Speeds::matches`] first).
pub fn optimal_scaled_makespan(inst: &Instance, speeds: &Speeds, k: usize) -> Size {
    debug_assert_eq!(speeds.len(), inst.num_procs());
    crate::exhaustive::optimal(inst, Some(speeds), k)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inst(sizes: &[u64], placement: &[usize], m: usize) -> Instance {
        Instance::from_sizes(sizes, placement.to_vec(), m).unwrap()
    }

    #[test]
    fn unit_speeds_match_identical_machine_oracle() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        for trial in 0..40 {
            let n = rng.gen_range(1..=7);
            let m = rng.gen_range(1..=3);
            let sizes: Vec<u64> = (0..n).map(|_| rng.gen_range(1..=9)).collect();
            let initial: Vec<usize> = (0..n).map(|_| rng.gen_range(0..m)).collect();
            let i = inst(&sizes, &initial, m);
            let k = rng.gen_range(0..=n);
            let speeds = Speeds::unit(m).unwrap();
            assert_eq!(
                optimal_scaled_makespan(&i, &speeds, k),
                crate::exhaustive::optimal_makespan(&i, k),
                "trial {trial}"
            );
        }
    }

    #[test]
    fn uniform_speed_c_is_ceil_of_raw_optimum() {
        // With every speed equal to c, max_p ceil(L_p / c) = ceil(max_p L_p / c),
        // and min/ceil commute (both monotone), so the scaled optimum is the
        // ceiled raw optimum.
        let i = inst(&[7, 5, 3, 2], &[0, 0, 1, 1], 2);
        for c in 1..=4u64 {
            let speeds = Speeds::uniform(2, c).unwrap();
            for k in 0..=4 {
                assert_eq!(
                    optimal_scaled_makespan(&i, &speeds, k),
                    crate::exhaustive::optimal_makespan(&i, k).div_ceil(c),
                    "c={c} k={k}"
                );
            }
        }
    }

    #[test]
    fn fast_machine_changes_the_answer() {
        // Two size-4 jobs on proc 0. Identical machines: OPT(k=1) = 4.
        // Proc 1 at speed 4: move one job there -> max(4/1, ceil(4/4)) = 4;
        // but k=2 moves both -> ceil(8/4) = 2.
        let i = inst(&[4, 4], &[0, 0], 2);
        let speeds = Speeds::new(vec![1, 4]).unwrap();
        assert_eq!(optimal_scaled_makespan(&i, &speeds, 0), 8);
        assert_eq!(optimal_scaled_makespan(&i, &speeds, 1), 4);
        assert_eq!(optimal_scaled_makespan(&i, &speeds, 2), 2);
    }

    #[test]
    fn zero_moves_is_initial_scaled_makespan() {
        let i = inst(&[6, 2, 5], &[0, 0, 1], 2);
        let speeds = Speeds::new(vec![2, 1]).unwrap();
        // Loads (8, 5): max(ceil(8/2), ceil(5/1)) = max(4, 5) = 5.
        assert_eq!(optimal_scaled_makespan(&i, &speeds, 0), 5);
    }

    #[test]
    fn monotone_in_k() {
        let i = inst(&[9, 4, 3, 2, 1], &[0, 0, 0, 1, 1], 3);
        let speeds = Speeds::new(vec![1, 2, 3]).unwrap();
        let mut prev = Size::MAX;
        for k in 0..=5 {
            let opt = optimal_scaled_makespan(&i, &speeds, k);
            assert!(opt <= prev, "k={k}");
            prev = opt;
        }
    }
}
