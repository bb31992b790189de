//! The paper's tightness constructions, as reusable instance builders.
//!
//! These are the inputs that force each algorithm to its worst case, used
//! by experiments T2 and T5 to confirm the approximation ratios are tight.

use lrb_core::model::Instance;

/// A tightness instance together with its move budget and the known optimal
/// makespan.
#[derive(Debug, Clone)]
pub struct TightCase {
    /// The instance.
    pub instance: Instance,
    /// The move budget `k`.
    pub k: usize,
    /// The optimal makespan with that budget.
    pub opt: u64,
    /// The makespan the targeted algorithm is driven to.
    pub worst: u64,
}

/// Theorem 1's tightness construction for `GREEDY` at a given `m ≥ 2`:
/// one job of size `m` plus `m² − m` unit jobs; every processor starts with
/// `m − 1` unit jobs and processor 0 additionally holds the size-`m` job;
/// `k = m − 1`.
///
/// `OPT = m` (relocate `m − 1` unit jobs off processor 0), while GREEDY —
/// which must grab the size-`m` job first — ends at `2m − 1`, ratio
/// `2 − 1/m`.
pub fn greedy_tightness(m: usize) -> TightCase {
    assert!(m >= 2, "construction needs m >= 2");
    let mut sizes = vec![m as u64];
    let mut initial = vec![0usize];
    for p in 0..m {
        for _ in 0..m - 1 {
            sizes.push(1);
            initial.push(p);
        }
    }
    TightCase {
        instance: Instance::from_sizes(&sizes, initial, m).expect("valid construction"),
        k: m - 1,
        opt: m as u64,
        worst: (2 * m - 1) as u64,
    }
}

/// Theorem 2's tightness construction for `PARTITION`, scaled by `scale`:
/// two processors; processor 0 holds jobs of size `scale` and `2·scale`
/// (the paper's ½ and 1), processor 1 holds one job of size `scale`;
/// `k = 1`, `OPT = 2·scale`.
///
/// PARTITION makes no moves and stays at `3·scale = 1.5 · OPT`.
pub fn partition_tightness(scale: u64) -> TightCase {
    assert!(scale >= 1);
    TightCase {
        instance: Instance::from_sizes(&[scale, 2 * scale, scale], vec![0, 0, 1], 2)
            .expect("valid construction"),
        k: 1,
        opt: 2 * scale,
        worst: 3 * scale,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrb_core::model::Budget;

    #[test]
    fn greedy_tightness_shape() {
        for m in 2..=8 {
            let case = greedy_tightness(m);
            assert_eq!(case.instance.num_jobs(), m * m - m + 1);
            assert_eq!(case.instance.num_procs(), m);
            assert_eq!(case.instance.initial_makespan(), (2 * m - 1) as u64);
            // Ratio worst/opt = 2 − 1/m exactly: worst·m = opt·(2m − 1).
            assert_eq!(case.worst * m as u64, case.opt * (2 * m as u64 - 1));
        }
    }

    #[test]
    fn greedy_tightness_opt_is_correct() {
        for m in 2..=4 {
            let case = greedy_tightness(m);
            let opt = lrb_exact::solve(&case.instance, Budget::Moves(case.k)).makespan;
            assert_eq!(opt, case.opt, "m={m}");
        }
    }

    #[test]
    fn greedy_hits_worst_case_with_adversarial_order() {
        use lrb_core::greedy::{rebalance_in, ReinsertOrder};
        for m in 2..=6 {
            let case = greedy_tightness(m);
            let ctx = &mut lrb_core::Ctx::default();
            let run = rebalance_in(&case.instance, case.k, ReinsertOrder::Ascending, ctx).unwrap();
            assert_eq!(run.outcome.makespan(), case.worst, "m={m}");
        }
    }

    #[test]
    fn partition_tightness_opt_is_correct() {
        for scale in [1u64, 3, 10] {
            let case = partition_tightness(scale);
            let opt = lrb_exact::solve(&case.instance, Budget::Moves(case.k)).makespan;
            assert_eq!(opt, case.opt, "scale={scale}");
        }
    }

    #[test]
    fn partition_hits_exactly_1_5() {
        for scale in [1u64, 5, 100] {
            let case = partition_tightness(scale);
            let run = lrb_core::mpartition::rebalance(&case.instance, case.k).unwrap();
            assert_eq!(run.outcome.makespan(), case.worst, "scale={scale}");
            assert_eq!(run.outcome.moves(), 0);
            // worst = 1.5 · opt exactly.
            assert_eq!(2 * case.worst, 3 * case.opt);
        }
    }
}
