//! The paper's theorems as property-based tests (proptest).
//!
//! Random instances are drawn structurally (sizes, placement, budget) and
//! every claimed invariant is checked against the exact oracle. Instance
//! sizes are kept small enough that the oracle is fast, so hundreds of
//! cases run per property.

use proptest::collection::vec;
use proptest::prelude::*;

use load_rebalance::core::bounds::within_ratio;
use load_rebalance::core::model::{Budget, Instance, Job};
use load_rebalance::core::mpartition::{self, ThresholdSearch};
use load_rebalance::core::{cost_partition, greedy, Ctx};

/// Strategy: a small instance plus a move budget.
fn small_instance() -> impl Strategy<Value = (Instance, usize)> {
    (2usize..=4).prop_flat_map(|m| {
        (1usize..=9).prop_flat_map(move |n| {
            (vec(1u64..=40, n), vec(0usize..m, n), 0usize..=n).prop_map(
                move |(sizes, initial, k)| (Instance::from_sizes(&sizes, initial, m).unwrap(), k),
            )
        })
    })
}

/// Strategy: a small instance with arbitrary costs plus a cost budget.
fn cost_instance() -> impl Strategy<Value = (Instance, u64)> {
    (2usize..=3).prop_flat_map(|m| {
        (1usize..=7).prop_flat_map(move |n| {
            (vec((1u64..=40, 1u64..=9), n), vec(0usize..m, n), 0u64..=30).prop_map(
                move |(jobs, initial, b)| {
                    let jobs = jobs
                        .into_iter()
                        .map(|(s, c)| Job::with_cost(s, c))
                        .collect();
                    (Instance::new(jobs, initial, m).unwrap(), b)
                },
            )
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Theorem 1: GREEDY is a (2 − 1/m)-approximation and respects k.
    #[test]
    fn greedy_theorem_1((inst, k) in small_instance()) {
        let opt = load_rebalance::exact::optimal_makespan_moves(&inst, k);
        let out = greedy::rebalance(&inst, k).unwrap();
        prop_assert!(out.moves() <= k);
        let m = inst.num_procs() as u64;
        prop_assert!(within_ratio(out.makespan(), opt, 2 * m - 1, m),
            "GREEDY {} vs OPT {opt}", out.makespan());
    }

    /// Lemma 1: the removal-phase makespan lower-bounds the optimum.
    #[test]
    fn lemma_1_g1_lower_bound((inst, k) in small_instance()) {
        let opt = load_rebalance::exact::optimal_makespan_moves(&inst, k);
        prop_assert!(greedy::g1_lower_bound(&inst, k) <= opt);
    }

    /// Theorems 2–3: M-PARTITION is a 1.5-approximation, respects k, and
    /// its final threshold never exceeds OPT (Lemma 6).
    #[test]
    fn mpartition_theorems_2_3((inst, k) in small_instance()) {
        let opt = load_rebalance::exact::optimal_makespan_moves(&inst, k);
        let run = mpartition::rebalance(&inst, k).unwrap();
        prop_assert!(run.outcome.moves() <= k);
        prop_assert!(within_ratio(run.outcome.makespan(), opt, 3, 2),
            "M-PARTITION {} vs OPT {opt}", run.outcome.makespan());
    }

    /// The two threshold-search strategies agree (the monotonicity the
    /// binary search relies on; see DESIGN.md section 5).
    #[test]
    fn threshold_searches_agree((inst, k) in small_instance()) {
        let ctx = &mut Ctx::default();
        let scan = mpartition::rebalance_in(&inst, k, ThresholdSearch::Scan, ctx).unwrap();
        let inc = mpartition::rebalance_in(&inst, k, ThresholdSearch::Incremental, ctx).unwrap();
        let bin = mpartition::rebalance_in(&inst, k, ThresholdSearch::Binary, ctx).unwrap();
        prop_assert_eq!(scan.threshold, bin.threshold);
        prop_assert_eq!(scan.threshold, inc.threshold);
        prop_assert_eq!(scan.outcome.makespan(), bin.outcome.makespan());
        prop_assert_eq!(scan.outcome.makespan(), inc.outcome.makespan());
    }

    /// The constrained variant: the LP 2-approximation respects eligibility
    /// lists and its factor-2 guarantee against the constrained oracle.
    #[test]
    fn constrained_factor_two((inst, k) in small_instance()) {
        use load_rebalance::core::constrained::ConstrainedInstance;
        // Derive eligibility deterministically from job ids: job j may use
        // its home plus processors with (j + p) even.
        let m = inst.num_procs();
        let allowed: Vec<Vec<usize>> = (0..inst.num_jobs())
            .map(|j| {
                let mut list = vec![inst.initial_proc(j)];
                list.extend((0..m).filter(|p| (j + p) % 2 == 0));
                list
            })
            .collect();
        let c = ConstrainedInstance::new(inst.clone(), allowed).unwrap();
        let run = load_rebalance::lp::constrained::rebalance(&c, k as u64).unwrap();
        prop_assert!(c.respects(run.outcome.assignment()));
        prop_assert!(run.outcome.cost() <= k as u64);
        let (opt, _) = load_rebalance::exact::constrained::solve(&c, Budget::Moves(k));
        prop_assert!(run.outcome.makespan() <= 2 * opt,
            "constrained LP {} vs OPT {opt}", run.outcome.makespan());
    }

    /// Any algorithm's output is a complete, valid assignment: same job
    /// multiset, loads sum to the total size.
    #[test]
    fn outputs_are_valid_assignments((inst, k) in small_instance()) {
        for out in [
            greedy::rebalance(&inst, k).unwrap(),
            mpartition::rebalance(&inst, k).unwrap().outcome,
        ] {
            let loads = inst.loads_of(out.assignment()).unwrap();
            prop_assert_eq!(loads.iter().sum::<u64>(), inst.total_size());
            prop_assert_eq!(loads.iter().copied().max().unwrap_or(0), out.makespan());
        }
    }

    /// §3.2: the arbitrary-cost algorithm never violates the budget and
    /// stays within 1.55 of the budgeted optimum.
    #[test]
    fn cost_partition_section_3_2((inst, b) in cost_instance()) {
        let opt = load_rebalance::exact::optimal_makespan_cost(&inst, b);
        let run = cost_partition::rebalance(&inst, b).unwrap();
        prop_assert!(run.outcome.cost() <= b);
        prop_assert!(within_ratio(run.outcome.makespan(), opt, 31, 20),
            "cost-PARTITION {} vs OPT {opt}", run.outcome.makespan());
    }

    /// The no-regression clamp: no algorithm ever returns something worse
    /// than the initial assignment.
    #[test]
    fn never_worse_than_initial((inst, k) in small_instance()) {
        let initial = inst.initial_makespan();
        prop_assert!(mpartition::rebalance(&inst, k).unwrap().outcome.makespan() <= initial);
        prop_assert!(cost_partition::rebalance(&inst, k as u64).unwrap().outcome.makespan() <= initial);
    }

    /// OPT is monotone: more budget never increases the optimal makespan,
    /// and the k = n budget reaches the unconstrained LPT-or-better value.
    #[test]
    fn opt_monotone_in_budget((inst, _k) in small_instance()) {
        let mut prev = u64::MAX;
        for k in 0..=inst.num_jobs() {
            let opt = load_rebalance::exact::optimal_makespan_moves(&inst, k);
            prop_assert!(opt <= prev);
            prev = opt;
        }
        let sizes: Vec<u64> = inst.jobs().iter().map(|j| j.size).collect();
        let lpt = load_rebalance::core::lpt::makespan(&sizes, inst.num_procs());
        prop_assert!(prev <= lpt, "full-budget OPT {prev} worse than LPT {lpt}");
    }
}

proptest! {
    // The PTAS is heavier; fewer cases.
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Theorem 4: the PTAS respects the budget and the (1 + 5/q) factor.
    #[test]
    fn ptas_theorem_4((inst, b) in cost_instance()) {
        use load_rebalance::core::ptas::{self, Precision};
        let q = 4u64;
        let opt = load_rebalance::exact::optimal_makespan_cost(&inst, b);
        let run = ptas::rebalance(&inst, b, Precision::from_q(q)).unwrap();
        prop_assert!(run.outcome.cost() <= b);
        let ms = run.outcome.makespan() as u128;
        prop_assert!(ms * q as u128 <= (opt as u128) * (q + 5) as u128 + q as u128,
            "PTAS {} vs OPT {opt}", run.outcome.makespan());
    }
}
