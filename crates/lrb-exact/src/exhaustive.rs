//! lrb-exact's one placement search, and the subset-enumeration oracle.
//!
//! The oracle enumerates every set `S` of at most `k` jobs to relocate and
//! places `S` onto the residual loads by a largest-first depth-first
//! search, on identical machines (`speeds = None`) or speed-scaled ones
//! ([`crate::hetero`]); [`crate::incremental`] runs the same search over
//! empty machines. Complexity is `Σ_{i≤k} C(n,i) · m^i` — practical for
//! small `k` even at moderate `n`, which complements [`crate::branch_bound`]
//! (practical for small `n` at any `k`), and cross-checks it.

use lrb_core::hetero::{scaled_makespan_of, Speeds};
use lrb_core::model::{Instance, Size};

/// Optimal makespan over all rebalancings moving at most `k` jobs.
pub fn optimal_makespan(inst: &Instance, k: usize) -> Size {
    optimal(inst, None, k)
}

/// Optimal makespan, speed-scaled when `speeds` is given, over all
/// rebalancings moving at most `k` jobs.
pub(crate) fn optimal(inst: &Instance, speeds: Option<&Speeds>, k: usize) -> Size {
    let k = k.min(inst.num_jobs());
    let mut best = makespan(inst.initial_loads(), speeds);
    let mut subset: Vec<usize> = Vec::with_capacity(k);
    enumerate_subsets(inst, speeds, 0, k, &mut subset, &mut best);
    best
}

/// Lift each subset of at most `slots` more jobs (from `from` on) off its
/// processors and place it back onto the residual loads, against the
/// running `best`. Jobs returning home count as "not moved" for makespan
/// purposes, which only helps.
fn enumerate_subsets(
    inst: &Instance,
    speeds: Option<&Speeds>,
    from: usize,
    slots: usize,
    subset: &mut Vec<usize>,
    best: &mut Size,
) {
    // Place the current subset (including the empty one at the root).
    let mut loads = inst.initial_loads().to_vec();
    for &j in subset.iter() {
        loads[inst.initial_proc(j)] -= inst.size(j);
    }
    let mut sizes: Vec<Size> = subset.iter().map(|&j| inst.size(j)).collect();
    sizes.sort_unstable_by(|a, b| b.cmp(a));
    place(&sizes, &mut loads, speeds, 0, best);
    if slots == 0 {
        return;
    }
    for j in from..inst.num_jobs() {
        subset.push(j);
        enumerate_subsets(inst, speeds, j + 1, slots - 1, subset, best);
        subset.pop();
    }
}

/// Largest-first depth-first search placing `sizes` (descending) onto
/// `loads`: lowers `best` to the least makespan below it that a placement
/// reaches, and stops once `best` reaches the lower bound `lb`.
pub(crate) fn place(
    sizes: &[Size],
    loads: &mut [Size],
    speeds: Option<&Speeds>,
    lb: Size,
    best: &mut Size,
) {
    if *best <= lb {
        return;
    }
    let cur = makespan(loads, speeds);
    if cur >= *best {
        return;
    }
    let Some((&size, rest)) = sizes.split_first() else {
        *best = cur;
        return;
    };
    let mut seen: Vec<(Size, u64)> = Vec::with_capacity(loads.len());
    for p in 0..loads.len() {
        // Processors are interchangeable for the remaining jobs when both
        // their load and their speed agree; deduping on load alone would
        // skip genuinely different finishing times on uniform machines.
        let key = (loads[p], speeds.map_or(1, |s| s.get(p)));
        if seen.contains(&key) {
            continue;
        }
        seen.push(key);
        loads[p] += size;
        place(rest, loads, speeds, lb, best);
        loads[p] -= size;
    }
}

/// The largest load, speed-scaled when `speeds` is given.
fn makespan(loads: &[Size], speeds: Option<&Speeds>) -> Size {
    match speeds {
        None => loads.iter().copied().max().unwrap_or(0),
        Some(speeds) => scaled_makespan_of(loads, speeds),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrb_core::model::Budget;

    #[test]
    fn agrees_with_branch_and_bound() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for trial in 0..40 {
            let n = rng.gen_range(1..=9);
            let m = rng.gen_range(1..=3);
            let sizes: Vec<u64> = (0..n).map(|_| rng.gen_range(1..=15)).collect();
            let initial: Vec<usize> = (0..n).map(|_| rng.gen_range(0..m)).collect();
            let inst = Instance::from_sizes(&sizes, initial, m).unwrap();
            let k = rng.gen_range(0..=4.min(n));
            let a = optimal_makespan(&inst, k);
            let b = crate::branch_bound::solve(&inst, Budget::Moves(k)).makespan;
            assert_eq!(a, b, "trial {trial}: {inst:?} k={k}");
        }
    }

    #[test]
    fn zero_moves_is_initial_makespan() {
        let inst = Instance::from_sizes(&[6, 2, 5], vec![0, 0, 1], 2).unwrap();
        assert_eq!(optimal_makespan(&inst, 0), 8);
    }

    #[test]
    fn k_larger_than_n_saturates() {
        let inst = Instance::from_sizes(&[6, 2, 5], vec![0, 0, 1], 2).unwrap();
        assert_eq!(optimal_makespan(&inst, 10), optimal_makespan(&inst, 3));
    }

    #[test]
    fn single_move_example() {
        let inst = Instance::from_sizes(&[5, 4, 3], vec![0, 0, 0], 2).unwrap();
        assert_eq!(optimal_makespan(&inst, 1), 7);
    }
}
