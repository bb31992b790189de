//! Property tests for the threshold machinery (`profiles`), checking the
//! `O(log n)` prefix-sum implementations against brute-force restatements
//! of the paper's definitions.

use lrb_core::model::Instance;
use lrb_core::profiles::Profiles;
use proptest::collection::vec;
use proptest::prelude::*;

fn instance_and_guess() -> impl Strategy<Value = (Instance, u64)> {
    (1usize..=4).prop_flat_map(|m| {
        (1usize..=10).prop_flat_map(move |n| {
            (vec(1u64..=60, n), vec(0usize..m, n), 1u64..=200).prop_map(
                move |(sizes, initial, t)| (Instance::from_sizes(&sizes, initial, m).unwrap(), t),
            )
        })
    })
}

/// Brute force `a_i`: try every removal count r, removing the r largest
/// small jobs, until the remaining small total fits t/2.
fn brute_a(inst: &Instance, p: usize, t: u64) -> usize {
    let mut smalls: Vec<u64> = (0..inst.num_jobs())
        .filter(|&j| inst.initial_proc(j) == p && 2 * inst.size(j) <= t)
        .map(|j| inst.size(j))
        .collect();
    smalls.sort_unstable();
    for r in 0..=smalls.len() {
        let kept: u64 = smalls[..smalls.len() - r].iter().sum();
        if 2 * kept <= t {
            return r;
        }
    }
    unreachable!("removing everything always fits");
}

/// Brute force `b_i` (forced variant): one removal for a present large job
/// plus largest-first small removals until the small total fits t.
fn brute_b(inst: &Instance, p: usize, t: u64) -> usize {
    let mut smalls: Vec<u64> = Vec::new();
    let mut has_large = false;
    for j in 0..inst.num_jobs() {
        if inst.initial_proc(j) == p {
            if 2 * inst.size(j) > t {
                has_large = true;
            } else {
                smalls.push(inst.size(j));
            }
        }
    }
    smalls.sort_unstable();
    for r in 0..=smalls.len() {
        let kept: u64 = smalls[..smalls.len() - r].iter().sum();
        if kept <= t {
            return r + usize::from(has_large);
        }
    }
    unreachable!("removing everything always fits");
}

/// PARTITION's planned move count restated with a full sort: rank every
/// processor by `(c_i, no large job, p)`, take the first `L_T`, and add
/// `L_E + Σ b_i`.
fn sorted_planned_moves(profiles: &Profiles, t: u64) -> Option<usize> {
    let m = profiles.num_procs();
    let l_t = profiles.l_t(t);
    if l_t > m {
        return None;
    }
    let mut ranked: Vec<(i64, bool, usize)> = (0..m)
        .map(|p| (profiles.c(p, t), !profiles.has_large(p, t), p))
        .collect();
    ranked.sort_unstable();
    let selected: i64 = ranked[..l_t].iter().map(|&(c, _, _)| c).sum();
    let sum_b: usize = (0..m).map(|p| profiles.b(p, t)).sum();
    let l_e = l_t - profiles.m_l(t);
    Some(((l_e + sum_b) as i64 + selected) as usize)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// The probe selects the `L_T` smallest `c_i` instead of sorting them
    /// all; on and between every candidate it must count what a sort does.
    #[test]
    fn selected_planned_moves_match_a_sorted_restatement((inst, t) in instance_and_guess()) {
        use lrb_core::partition::planned_moves;
        let profiles = Profiles::new(&inst);
        let mut guesses = vec![0, t];
        for c in profiles.candidates() {
            guesses.extend([c.saturating_sub(1), c, c + 1]);
        }
        for t in guesses {
            prop_assert_eq!(
                planned_moves(&profiles, t),
                sorted_planned_moves(&profiles, t),
                "t={}", t
            );
        }
    }

    #[test]
    fn a_matches_brute_force((inst, t) in instance_and_guess()) {
        let profiles = Profiles::new(&inst);
        for p in 0..inst.num_procs() {
            prop_assert_eq!(profiles.a(p, t), brute_a(&inst, p, t), "p={} t={}", p, t);
        }
    }

    #[test]
    fn b_matches_brute_force((inst, t) in instance_and_guess()) {
        let profiles = Profiles::new(&inst);
        for p in 0..inst.num_procs() {
            prop_assert_eq!(profiles.b(p, t), brute_b(&inst, p, t), "p={} t={}", p, t);
        }
    }

    #[test]
    fn l_t_counts_large_jobs((inst, t) in instance_and_guess()) {
        let profiles = Profiles::new(&inst);
        let brute = inst.jobs().iter().filter(|j| 2 * j.size > t).count();
        prop_assert_eq!(profiles.l_t(t), brute);
        let m_l_brute = (0..inst.num_procs())
            .filter(|&p| {
                (0..inst.num_jobs())
                    .any(|j| inst.initial_proc(j) == p && 2 * inst.size(j) > t)
            })
            .count();
        prop_assert_eq!(profiles.m_l(t), m_l_brute);
    }

    /// Lemma 5 as a property: between consecutive candidate thresholds,
    /// every quantity is constant.
    #[test]
    fn quantities_constant_between_candidates((inst, _t) in instance_and_guess()) {
        let profiles = Profiles::new(&inst);
        let cands = profiles.candidates();
        for w in cands.windows(2) {
            if w[1] - w[0] >= 2 {
                let (lo, mid) = (w[0], w[0] + (w[1] - w[0]) / 2);
                prop_assert_eq!(profiles.l_t(lo), profiles.l_t(mid));
                for p in 0..inst.num_procs() {
                    prop_assert_eq!(profiles.a(p, lo), profiles.a(p, mid));
                    prop_assert_eq!(profiles.b(p, lo), profiles.b(p, mid));
                }
            }
        }
    }

    /// The per-processor counters are *not* individually monotone in `t`
    /// (a job flipping from large to small adds small volume, which can
    /// push `a_i` up) — but the total planned move count, the quantity the
    /// binary threshold search relies on, is empirically non-increasing
    /// across the candidate grid. This property is that empirical claim.
    #[test]
    fn planned_moves_monotone_over_candidates((inst, _t) in instance_and_guess()) {
        use lrb_core::partition::planned_moves;
        let profiles = Profiles::new(&inst);
        let mut prev = usize::MAX;
        for &t in profiles.candidates().iter() {
            if let Some(moves) = planned_moves(&profiles, t) {
                prop_assert!(
                    moves <= prev,
                    "planned moves rose from {} to {} at t={}",
                    prev, moves, t
                );
                prev = moves;
            }
        }
        // The largest candidate always needs zero moves.
        prop_assert_eq!(prev, 0);
    }
}
