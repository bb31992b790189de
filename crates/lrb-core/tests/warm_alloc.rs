//! A warm solve allocates only its outcome (DESIGN.md §9).
//!
//! The global allocator counts the allocations and reallocations of each
//! thread separately, so the test harness's own threads cannot disturb a
//! count, and this binary holds exactly one test, so no other test runs
//! beside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use lrb_core::cost_partition;
use lrb_core::greedy::{self, ReinsertOrder};
use lrb_core::model::{Instance, Job};
use lrb_core::mpartition::{self, ThresholdSearch};
use lrb_core::outcome::RebalanceOutcome;
use lrb_core::Ctx;
use rand::{Rng, SeedableRng};

thread_local! {
    // Const-initialized and without a destructor, so reading it from inside
    // the allocator never allocates.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn note_allocation() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches only a thread-local.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller's layout goes straight to `System::alloc`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }

    // SAFETY: the caller's layout goes straight to `System::alloc_zeroed`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc_zeroed(layout)
    }

    // SAFETY: `ptr` came from this allocator, hence from `System`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        System.realloc(ptr, layout, new_size)
    }

    // SAFETY: `ptr` came from this allocator, hence from `System`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The value of `f` and the allocations this thread made running it.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let value = f();
    (value, ALLOCATIONS.with(Cell::get) - before)
}

/// `n` jobs with sizes 1–1000 and costs 1–10 on `n/8` processors, skewed
/// towards the low processors so every solver moves jobs.
fn farm(n: usize, seed: u64) -> Instance {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let m = n / 8;
    let jobs: Vec<Job> = (0..n)
        .map(|_| Job::with_cost(rng.gen_range(1..=1000), rng.gen_range(1..=10)))
        .collect();
    let initial = (0..n)
        .map(|_| {
            let u = rng.gen_range(0..m);
            u * u / m
        })
        .collect();
    Instance::new(jobs, initial, m).unwrap()
}

/// What building `out` from scratch allocates: a clone of its assignment
/// and the outcome's bookkeeping.
fn outcome_allocations(inst: &Instance, out: &RebalanceOutcome) -> usize {
    let (rebuilt, allocations) = counted(|| {
        let assignment = out.assignment().clone();
        RebalanceOutcome::from_assignment(inst, assignment).unwrap()
    });
    assert_eq!(&rebuilt, out);
    allocations
}

#[test]
fn warm_solves_allocate_only_their_outcome() {
    let (mut ctx, allocations) = counted(Ctx::default);
    assert_eq!(allocations, 0, "Ctx::default() allocates");

    for n in [72, 1_000, 4_000] {
        for seed in 0..3 {
            let inst = farm(n, seed);
            let (k, b) = (n / 4, inst.total_cost() / 4);
            type Solve<'a> = &'a dyn Fn(&mut Ctx) -> RebalanceOutcome;
            let solvers: [(&str, Solve); 3] = [
                ("greedy", &|ctx| {
                    greedy::rebalance_in(&inst, k, ReinsertOrder::Descending, ctx)
                        .unwrap()
                        .outcome
                }),
                ("m-partition", &|ctx| {
                    mpartition::rebalance_in(&inst, k, ThresholdSearch::Binary, ctx)
                        .unwrap()
                        .outcome
                }),
                ("cost-partition", &|ctx| {
                    cost_partition::rebalance_in(&inst, b, ctx).unwrap().outcome
                }),
            ];
            for (_, solve) in solvers {
                solve(&mut ctx);
            }
            for (name, solve) in solvers {
                let (out, allocations) = counted(|| solve(&mut ctx));
                assert!(out.moves() > 0, "{name} n={n} seed={seed} moved nothing");
                assert_eq!(
                    allocations,
                    outcome_allocations(&inst, &out),
                    "{name} n={n} seed={seed}"
                );
            }
        }
    }
}
