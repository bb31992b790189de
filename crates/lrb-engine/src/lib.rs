//! # lrb-engine — batched multi-core rebalancing
//!
//! Solves many [`Instance`]s concurrently: the calling thread runs worker 0
//! and `std::thread::scope` threads run the others, so one code path serves
//! every thread count and a one-thread batch spawns nothing. Two ideas
//! carry the throughput:
//!
//! * **Scratch reuse.** Every worker owns one [`lrb_core::scratch::Scratch`]
//!   and solves each item through [`DeadlineSolver::solve`] in a
//!   [`lrb_core::Ctx`] holding it, so after warm-up the GREEDY /
//!   M-PARTITION / cost-PARTITION hot paths allocate nothing per solve
//!   beyond the returned outcome. The scratch survives across
//!   [`StreamEngine`] epochs.
//! * **Work stealing.** The batch is split into contiguous per-worker
//!   stripes; a worker drains its own stripe with a single `fetch_add` and,
//!   when empty, steals from the victim with the most remaining items,
//!   absorbing skewed per-item solve times.
//!
//! The same runner backs [`run_all`], the workspace's one compute pool: any
//! closure over any items, outputs in input order, no scratch or observer.
//!
//! One observer serves metrics and timelines alike: [`solve_batch_in`]
//! takes any [`Tracer`], hands each worker its own [`Tracer::fork`] lane,
//! and folds the lanes back after the join. Under an
//! [`lrb_obs::AtomicRecorder`] that yields `engine.*` totals plus every
//! solver's own telemetry; under a [`lrb_obs::ThreadTracer`] lane, one
//! timeline lane per worker.
//!
//! Results are written into input-order slots, and each item's outcome
//! depends only on the item itself (a warm scratch never changes an answer
//! — enforced by tests in `lrb-core`), so a batch result is
//! **bit-identical for any thread count**. That property is what lets
//! `lrb-sim` run epoch batches through the engine without perturbing
//! simulation traces, and it is re-checked here and by the metamorphic
//! suite at the workspace root.

pub mod schedule;

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

use lrb_core::deadline::{DeadlineSolver, SolverKind, WorkBudget};
use lrb_core::hetero::{self, Speeds};
use lrb_core::model::{Budget, Instance};
use lrb_core::mpartition::ThresholdSearch;
use lrb_core::outcome::RebalanceOutcome;
use lrb_core::scratch::Scratch;
use lrb_core::Ctx;
use lrb_obs::{names, NoopTracer, Tracer};

use crate::schedule::{NoopShim, ScheduleShim, YieldPoint};

/// How the engine solves each item of a batch: the [`SolverKind`] whose
/// [`DeadlineSolver`] turns the item's budget into a solver call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BatchSolver {
    /// GREEDY (`2 − 1/m`): fastest, weakest guarantee. A cost budget `b`
    /// becomes the most jobs whose costs fit in `b`, which can spend more
    /// than `b` when GREEDY moves dearer jobs; such an answer is replaced by
    /// the unchanged placement (see [`BatchItem`]).
    Greedy,
    /// M-PARTITION (1.5) for move budgets; cost budgets fall through to the
    /// §3.2 cost algorithm.
    #[default]
    MPartition,
    /// Cost-PARTITION (§3.2) regardless of budget kind. A move budget `k`
    /// becomes the cost budget `k` over the jobs' own costs, which can plan
    /// more than `k` moves when jobs cost less than 1 each; such an answer
    /// is replaced by the unchanged placement (see [`BatchItem`]).
    CostPartition,
}

impl BatchSolver {
    fn kind(self) -> SolverKind {
        match self {
            BatchSolver::Greedy => SolverKind::Greedy,
            BatchSolver::MPartition => SolverKind::MPartition(ThresholdSearch::Binary),
            BatchSolver::CostPartition => SolverKind::CostPartition,
        }
    }
}

/// One unit of work: an instance plus the relocation budget to solve under.
///
/// The engine returns only answers within the item's budget: an answer that
/// moves more jobs (move budget) or spends more (cost budget) than allowed,
/// like a solver error, yields the unchanged placement instead.
///
/// Budgets are *per item*, so one epoch batch may mix `Budget::Moves` and
/// `Budget::Cost` entries freely — under [`BatchSolver::MPartition`] each
/// item dispatches to the solver matching its own budget kind. This is what
/// makes stream batches **policy-generic**: an online fleet whose farms run
/// different [`lrb_core::online::MigrationPolicy`] implementations (a
/// move-billed `MoveBank` lane next to volume-billed migration-factor
/// lanes) still solves each lockstep epoch through a single
/// [`StreamEngine`], with results bit-identical at any thread count.
#[derive(Debug, Clone)]
pub struct BatchItem {
    /// The rebalancing instance.
    pub instance: Instance,
    /// Move or cost budget.
    pub budget: Budget,
}

/// How the engine solves each item of a speed-scaled batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HeteroBatchSolver {
    /// Speed-scaled GREEDY ([`lrb_core::hetero::rebalance_greedy`]).
    Greedy,
    /// Speed-scaled M-PARTITION
    /// ([`lrb_core::hetero::rebalance_mpartition`]).
    #[default]
    MPartition,
}

/// One unit of speed-scaled work: an instance, its per-processor speeds,
/// and a move budget.
#[derive(Debug, Clone)]
pub struct HeteroBatchItem {
    /// The rebalancing instance.
    pub instance: Instance,
    /// Per-processor speeds (must match the instance's processor count).
    pub speeds: Speeds,
    /// Move budget.
    pub moves: usize,
}

/// Engine configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineConfig {
    /// Worker threads, the calling thread included; `0` (the default) means
    /// the host's available parallelism (capped at 16). `1` solves inline on
    /// the calling thread.
    pub threads: usize,
}

impl EngineConfig {
    /// A config with an explicit thread count.
    pub fn with_threads(threads: usize) -> Self {
        EngineConfig { threads }
    }

    fn resolved_threads(&self, items: usize) -> usize {
        let t = if self.threads == 0 {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
                .min(16)
        } else {
            self.threads
        };
        t.clamp(1, items.max(1))
    }
}

/// Result of a batch run: per-item outcomes in input order plus engine
/// telemetry for the bench pipeline.
#[derive(Debug, Clone)]
pub struct BatchReport<O = RebalanceOutcome> {
    /// One outcome per input item, in input order.
    pub outcomes: Vec<O>,
    /// Per-item solve wall time in nanoseconds, in input order.
    pub solve_nanos: Vec<u64>,
    /// Worker threads used.
    pub workers: usize,
    /// Items claimed from another worker's stripe.
    pub steals: u64,
    /// Always 0: the solvers keep no threshold-ladder cache. Kept for
    /// callers that still read it.
    pub ladder_hits: u64,
    /// Always 0, as [`BatchReport::ladder_hits`].
    pub ladder_misses: u64,
}

/// Run `f` on every item across `cfg.threads` workers and return the
/// outputs in input order.
///
/// This is the batch runner with a plain closure for a solve: the calling
/// thread is worker 0, stripes are claimed and stolen as in
/// [`solve_batch`], and each output lands in its item's slot, so the result
/// is the sequential `items.iter().map(f)` at any thread count.
///
/// ```
/// use lrb_engine::{run_all, EngineConfig};
///
/// let squares = run_all(&[1u64, 2, 3], &EngineConfig::with_threads(2), |&x| x * x);
/// assert_eq!(squares, [1, 4, 9]);
/// ```
pub fn run_all<I, O, F>(items: &[I], cfg: &EngineConfig, f: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    let threads = cfg.resolved_threads(items.len());
    let mut scratches: Vec<Scratch> = (0..threads).map(|_| Scratch::new()).collect();
    run_batch_with(
        items,
        threads,
        &mut scratches,
        &NoopShim,
        &NoopTracer,
        |item: &I, _: &mut Ctx<'_, NoopTracer>| f(item),
    )
    .outcomes
}

/// Solve every item with no observer ([`solve_batch_in`] under
/// [`NoopTracer`]).
pub fn solve_batch(items: &[BatchItem], solver: BatchSolver, cfg: &EngineConfig) -> BatchReport {
    solve_batch_in(items, solver, cfg, &NoopTracer)
}

/// [`solve_batch`] observed by `obs`. The batch gets an `engine.batch` span
/// (payload = item count) and the `engine.*` counters and histograms named
/// in [`lrb_obs::names`] (steals, queue depth at steal time, per-item solve
/// latency). Each worker runs in its own
/// [`Tracer::fork`] of `obs`, folded back after the join: claim, steal and
/// queue-wait spans go to the scheduling lane, each item gets an
/// `engine.solve` span, and the solvers' own telemetry lands in the same
/// lane. Outcomes are bit-identical to [`solve_batch`] under any observer.
pub fn solve_batch_in<T: Tracer + Send>(
    items: &[BatchItem],
    solver: BatchSolver,
    cfg: &EngineConfig,
    obs: &T,
) -> BatchReport {
    let threads = cfg.resolved_threads(items.len());
    let mut scratches: Vec<Scratch> = (0..threads).map(|_| Scratch::new()).collect();
    run_batch(items, solver, threads, &mut scratches, obs)
}

/// Solve a speed-scaled batch with no observer.
///
/// Same striping, stealing, scratch reuse, and input-order result slots as
/// [`solve_batch`] — the hetero path runs through the identical generic
/// runner, so its results are likewise **bit-identical for any thread
/// count** (asserted by the metamorphic suite).
pub fn solve_hetero_batch(
    items: &[HeteroBatchItem],
    solver: HeteroBatchSolver,
    cfg: &EngineConfig,
) -> BatchReport {
    solve_hetero_batch_in(items, solver, cfg, &NoopTracer)
}

/// [`solve_hetero_batch`] observed by `obs`, exactly as in
/// [`solve_batch_in`]: `engine.*` plus the solvers' own `hetero.*` names.
pub fn solve_hetero_batch_in<T: Tracer + Send>(
    items: &[HeteroBatchItem],
    solver: HeteroBatchSolver,
    cfg: &EngineConfig,
    obs: &T,
) -> BatchReport {
    let threads = cfg.resolved_threads(items.len());
    let mut scratches: Vec<Scratch> = (0..threads).map(|_| Scratch::new()).collect();
    run_batch_with(
        items,
        threads,
        &mut scratches,
        &NoopShim,
        obs,
        |item: &HeteroBatchItem, ctx| solve_one_hetero(item, solver, ctx),
    )
}

/// [`solve_batch`] under an explicit [`ScheduleShim`] — the entry point for
/// adversarial schedule exploration (`lrb-lint --schedules`). Results must
/// be bit-identical to [`solve_batch`] for *any* shim: outcomes depend only
/// on the item and land in input-order slots, never on claim order.
pub fn solve_batch_shimmed<S: ScheduleShim>(
    items: &[BatchItem],
    solver: BatchSolver,
    cfg: &EngineConfig,
    shim: &S,
) -> BatchReport {
    let threads = cfg.resolved_threads(items.len());
    let mut scratches: Vec<Scratch> = (0..threads).map(|_| Scratch::new()).collect();
    run_batch_with(
        items,
        threads,
        &mut scratches,
        shim,
        &NoopTracer,
        |item: &BatchItem, ctx| solve_one(item, solver, ctx),
    )
}

/// Persistent streaming executor: [`solve_batch`] semantics, epoch after
/// epoch, with per-worker [`Scratch`]es that survive across epochs.
///
/// An online fleet feeds every farm's per-epoch solve through one of these
/// in lockstep: the warm profile and PARTITION buffers amortize allocation
/// across the whole stream, while per-epoch results stay **bit-identical
/// for any thread count** (and to [`solve_batch`]) because a warm scratch
/// never changes an answer, only speed.
#[derive(Debug)]
pub struct StreamEngine {
    solver: BatchSolver,
    threads: usize,
    scratches: Vec<Scratch>,
    epochs: u64,
}

impl StreamEngine {
    /// A streaming executor with `cfg.threads` persistent workers.
    pub fn new(solver: BatchSolver, cfg: &EngineConfig) -> Self {
        let threads = cfg.resolved_threads(usize::MAX);
        StreamEngine {
            solver,
            threads,
            scratches: (0..threads).map(|_| Scratch::new()).collect(),
            epochs: 0,
        }
    }

    /// Solve one epoch's batch.
    pub fn solve_epoch(&mut self, items: &[BatchItem]) -> BatchReport {
        self.epochs += 1;
        let threads = self.threads.clamp(1, items.len().max(1));
        run_batch(
            items,
            self.solver,
            threads,
            &mut self.scratches,
            &NoopTracer,
        )
    }

    /// The solver every epoch runs with.
    pub fn solver(&self) -> BatchSolver {
        self.solver
    }

    /// Persistent worker count.
    pub fn workers(&self) -> usize {
        self.threads
    }

    /// Epochs solved so far.
    pub fn epochs(&self) -> u64 {
        self.epochs
    }
}

/// Shared batch runner: solve `items` on `threads` workers drawing from
/// `scratches` (one per worker; `threads <= scratches.len()`).
fn run_batch<T: Tracer + Send>(
    items: &[BatchItem],
    solver: BatchSolver,
    threads: usize,
    scratches: &mut [Scratch],
    obs: &T,
) -> BatchReport {
    run_batch_with(
        items,
        threads,
        scratches,
        &NoopShim,
        obs,
        |item: &BatchItem, ctx| solve_one(item, solver, ctx),
    )
}

/// [`run_batch`] with schedule-injection hooks; `NoopShim` and
/// [`NoopTracer`] compile them away, so the production path is unchanged.
/// The calling thread runs worker 0 and `threads − 1` scoped threads run
/// the rest, so every thread count takes the same path. Worker `w` owns
/// lane `w + 1` of `obs` ([`Tracer::fork`]) exactly like its [`Scratch`];
/// its [`Ctx`] holds both, so the lane also receives the solvers'
/// telemetry. The lanes fold back into `obs` ([`Tracer::absorb`]) in
/// worker order after the join.
///
/// Generic over the item type, the output type and the per-item solve
/// function so the base and speed-scaled batch paths and [`run_all`] share
/// one runner — striping, stealing, and input-order slots are defined
/// exactly once, and any thread-count bit-identity argument covers all
/// three.
fn run_batch_with<I, O, S, T, F>(
    items: &[I],
    threads: usize,
    scratches: &mut [Scratch],
    shim: &S,
    obs: &T,
    solve: F,
) -> BatchReport<O>
where
    I: Sync,
    O: Send,
    S: ScheduleShim,
    T: Tracer + Send,
    F: Fn(&I, &mut Ctx<'_, T>) -> O + Sync,
{
    let n = items.len();
    let _batch = obs.span_with(names::ENGINE_BATCH, n as u64, false);
    obs.incr(names::ENGINE_ITEMS, n as u64);
    obs.incr(names::ENGINE_WORKERS, threads as u64);
    debug_assert!(threads >= 1 && threads <= scratches.len());

    let queue = match if S::ACTIVE {
        shim.stripes(n, threads)
    } else {
        None
    } {
        Some(ends) => StealQueue::with_ends(n, threads, ends),
        None => StealQueue::new(n, threads),
    };
    let steals = AtomicU64::new(0);

    // One worker's whole run: claim its own stripe, steal once it is empty,
    // and hand back its results and its lane. Every step of the loop runs
    // inside a claim, queue-wait or solve span (the steal bookkeeping, the
    // solve's clock reads, telemetry and result slot included), so the
    // worker span's time stays attributed.
    let work = |w: usize, scratch: &mut Scratch, lane: T| {
        let mut local: Vec<(usize, O, u64)> = Vec::new();
        let mut ctx = worker_ctx(scratch, &lane);
        {
            let _worker = lane.span_with(names::ENGINE_WORKER, w as u64, true);
            loop {
                if S::ACTIVE {
                    shim.yield_point(w, YieldPoint::BeforeClaim);
                }
                let own = if S::ACTIVE && shim.steal_first(w) {
                    None
                } else {
                    let _claim = lane.span_with(names::ENGINE_CLAIM, w as u64, true);
                    queue.claim_own(w)
                };
                let i = match own {
                    Some(i) => i,
                    None => {
                        if S::ACTIVE {
                            shim.yield_point(w, YieldPoint::BeforeSteal);
                        }
                        let stolen = {
                            let _wait = lane.span_with(names::ENGINE_QUEUE_WAIT, w as u64, true);
                            let stolen = queue.steal(w);
                            if let Some((_, depth)) = stolen {
                                steals.fetch_add(1, Ordering::Relaxed);
                                lane.instant(names::ENGINE_STEAL_EVENT, depth as u64, true);
                                lane.incr(names::ENGINE_STEALS, 1);
                                lane.observe(names::ENGINE_QUEUE_DEPTH, depth as u64);
                            }
                            stolen
                        };
                        match stolen {
                            Some((i, _)) => i,
                            None => {
                                // A steal-first worker may still own
                                // unclaimed items; drain them before
                                // exiting so no index is orphaned.
                                let _claim = lane.span_with(names::ENGINE_CLAIM, w as u64, true);
                                match queue.claim_own(w) {
                                    Some(i) => i,
                                    None => break,
                                }
                            }
                        }
                    }
                };
                if S::ACTIVE {
                    shim.yield_point(w, YieldPoint::AfterClaim);
                }
                {
                    let _solve = lane.span_with(names::ENGINE_SOLVE, i as u64, false);
                    // lint: allow(no-nondeterminism, clock feeds solve-latency telemetry only)
                    let start = Instant::now();
                    let out = solve(&items[i], &mut ctx);
                    let nanos = (start.elapsed().as_nanos() as u64).max(1);
                    lane.observe(names::ENGINE_SOLVE_NANOS, nanos);
                    local.push((i, out, nanos));
                }
                if S::ACTIVE {
                    shim.yield_point(w, YieldPoint::AfterSolve);
                }
            }
        }
        *scratch = ctx.scratch;
        (local, lane)
    };

    let done = std::thread::scope(|scope| {
        let work = &work;
        let (own, others) = scratches[..threads].split_at_mut(1);
        let own_lane = obs.fork(1);
        let handles: Vec<_> = others
            .iter_mut()
            .zip(1..)
            .map(|(scratch, w)| {
                let lane = obs.fork(w as u32 + 1);
                scope.spawn(move || work(w, scratch, lane))
            })
            .collect();
        let mut done = vec![work(0, &mut own[0], own_lane)];
        for handle in handles {
            // lint: allow(no-panic-core, a worker panic is already fatal; re-raising on join is the only honest exit)
            done.push(handle.join().expect("engine worker panicked"));
        }
        done
    });

    let mut slots: Vec<Option<(O, u64)>> = (0..n).map(|_| None).collect();
    for (local, lane) in done {
        for (i, out, nanos) in local {
            slots[i] = Some((out, nanos));
        }
        obs.absorb(lane);
    }
    let mut outcomes = Vec::with_capacity(n);
    let mut solve_nanos = Vec::with_capacity(n);
    for slot in slots {
        // lint: allow(no-panic-core, the workers jointly cover every index before join returns)
        let (out, nanos) = slot.expect("every item solved");
        outcomes.push(out);
        solve_nanos.push(nanos);
    }
    BatchReport {
        outcomes,
        solve_nanos,
        workers: threads,
        steals: steals.into_inner(),
        ladder_hits: 0,
        ladder_misses: 0,
    }
}

/// A worker's context: its warm scratch (moved out for the batch and back
/// by the worker) and its observer lane, never cancelling.
fn worker_ctx<'t, T: Tracer>(scratch: &mut Scratch, lane: &'t T) -> Ctx<'t, T> {
    Ctx {
        scratch: std::mem::take(scratch),
        work: WorkBudget::unlimited(),
        rec: lane,
    }
}

/// Solve one item in a worker's context. Errors and answers over the item's
/// budget degrade to "no moves" (the initial assignment), so a pathological
/// item never poisons its batch. The context's observer never changes an
/// answer.
fn solve_one<T: Tracer>(
    item: &BatchItem,
    solver: BatchSolver,
    ctx: &mut Ctx<'_, T>,
) -> RebalanceOutcome {
    DeadlineSolver::new(solver.kind())
        .solve(&item.instance, item.budget, ctx)
        .unwrap_or_else(|_| RebalanceOutcome::unchanged(&item.instance))
}

/// Solve one speed-scaled item in a worker's context. Errors (e.g. a
/// speeds/instance length mismatch) degrade to "no moves", mirroring
/// [`solve_one`], so a pathological item never poisons its batch.
fn solve_one_hetero<T: Tracer>(
    item: &HeteroBatchItem,
    solver: HeteroBatchSolver,
    ctx: &mut Ctx<'_, T>,
) -> RebalanceOutcome {
    let (inst, speeds, k) = (&item.instance, &item.speeds, item.moves);
    let solved = match solver {
        HeteroBatchSolver::Greedy => {
            hetero::rebalance_greedy_in(inst, speeds, k, ctx).map(|run| run.outcome)
        }
        HeteroBatchSolver::MPartition => {
            hetero::rebalance_mpartition_in(inst, speeds, k, ctx).map(|run| run.outcome)
        }
    };
    solved.unwrap_or_else(|_| RebalanceOutcome::unchanged(inst))
}

/// Striped work queue with stealing.
///
/// Item indices `0..n` are split into `workers` contiguous stripes. Each
/// stripe has an atomic head; claiming is one `fetch_add`. A claim whose
/// index lands past the stripe end is a lost race — heads may overshoot
/// their end by at most the number of concurrent claimants, which the
/// remaining-count arithmetic saturates away.
struct StealQueue {
    heads: Vec<AtomicUsize>,
    ends: Vec<usize>,
}

impl StealQueue {
    fn new(n: usize, workers: usize) -> Self {
        let mut heads = Vec::with_capacity(workers);
        let mut ends = Vec::with_capacity(workers);
        // Balanced partition: the first `n % workers` stripes get one extra.
        let base = n / workers;
        let extra = n % workers;
        let mut start = 0;
        for w in 0..workers {
            let len = base + usize::from(w < extra);
            heads.push(AtomicUsize::new(start));
            start += len;
            ends.push(start);
        }
        debug_assert_eq!(start, n);
        StealQueue { heads, ends }
    }

    /// A queue with an explicit stripe layout (`ends[w]` is the exclusive
    /// end of stripe `w`; stripe `w` starts where `w - 1` ends). Used by
    /// schedule exploration to force pathological layouts; an invalid
    /// layout falls back to the balanced default.
    fn with_ends(n: usize, workers: usize, ends: Vec<usize>) -> Self {
        let valid = ends.len() == workers
            && ends.last() == Some(&n)
            && ends.windows(2).all(|w| w[0] <= w[1])
            && ends.first().is_none_or(|&e| e <= n);
        if !valid {
            debug_assert!(false, "invalid stripe layout {ends:?} for n={n}");
            return StealQueue::new(n, workers);
        }
        let heads = (0..workers)
            .map(|w| AtomicUsize::new(if w == 0 { 0 } else { ends[w - 1] }))
            .collect();
        StealQueue { heads, ends }
    }

    /// Claim the next item of worker `w`'s own stripe.
    fn claim_own(&self, w: usize) -> Option<usize> {
        let i = self.heads[w].fetch_add(1, Ordering::Relaxed);
        (i < self.ends[w]).then_some(i)
    }

    /// Steal from the victim with the most remaining items. Returns the
    /// claimed index and the victim's remaining count *before* the steal
    /// (the queue depth observed). Retries while any stripe looks
    /// non-empty; `None` once all work is claimed.
    fn steal(&self, thief: usize) -> Option<(usize, usize)> {
        loop {
            let mut best: Option<(usize, usize)> = None; // (victim, remaining)
            for v in 0..self.heads.len() {
                if v == thief {
                    continue;
                }
                let head = self.heads[v].load(Ordering::Relaxed);
                let remaining = self.ends[v].saturating_sub(head);
                if remaining > 0 && best.is_none_or(|(_, r)| remaining > r) {
                    best = Some((v, remaining));
                }
            }
            let (victim, remaining) = best?;
            let i = self.heads[victim].fetch_add(1, Ordering::Relaxed);
            if i < self.ends[victim] {
                return Some((i, remaining));
            }
            // Lost the race for that stripe's tail; rescan.
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrb_core::model::Job;
    use lrb_core::{cost_partition, mpartition};
    use lrb_instances::GeneratorConfig;
    use lrb_obs::TraceCollector;

    fn batch(n_items: usize, seed: u64) -> Vec<BatchItem> {
        (0..n_items)
            .map(|i| {
                let cfg = GeneratorConfig::uniform(24, 4);
                BatchItem {
                    instance: cfg.generate(seed ^ (i as u64).wrapping_mul(0x9E37)),
                    budget: Budget::Moves(3 + i % 5),
                }
            })
            .collect()
    }

    /// Mixed-budget ("policy-generic") batches: one epoch carrying both
    /// move-billed and cost-billed items — as an online fleet running
    /// different migration policies produces — must match the sequential
    /// per-item solvers exactly and stay thread-count invariant.
    #[test]
    fn mixed_budget_batches_are_policy_generic_and_thread_invariant() {
        let items: Vec<BatchItem> = (0..24)
            .map(|i| {
                let cfg = GeneratorConfig::uniform(18, 3);
                let instance = cfg.generate(100 + i as u64);
                let budget = if i % 2 == 0 {
                    Budget::Moves(2 + i % 4)
                } else {
                    Budget::Cost(3 + (i as u64) % 7)
                };
                BatchItem { instance, budget }
            })
            .collect();
        let seq: Vec<RebalanceOutcome> = items
            .iter()
            .map(|item| match item.budget {
                Budget::Moves(k) => mpartition::rebalance(&item.instance, k).unwrap().outcome,
                Budget::Cost(b) => {
                    cost_partition::rebalance(&item.instance, b)
                        .unwrap()
                        .outcome
                }
            })
            .collect();
        for threads in [1, 2, 4, 8] {
            let mut engine = StreamEngine::new(
                BatchSolver::MPartition,
                &EngineConfig::with_threads(threads),
            );
            // Two epochs over the same items: warm scratches never change
            // answers either.
            for epoch in 0..2 {
                let report = engine.solve_epoch(&items);
                for (i, (a, b)) in seq.iter().zip(&report.outcomes).enumerate() {
                    assert_eq!(a, b, "threads {threads} epoch {epoch} item {i}");
                }
            }
        }
    }

    #[test]
    fn run_all_returns_outputs_in_input_order() {
        // Every third item yields and works longer, so workers finish out of
        // order and steal; the outputs must still come back in input order.
        let f = |&x: &u64| {
            if x % 3 == 0 {
                std::thread::yield_now();
            }
            (0..x % 3 * 500).fold(x, |acc, i| acc.wrapping_mul(31) ^ i)
        };
        // No items, one item, fewer items than threads, and many items.
        for n in [0, 1, 3, 257] {
            let items: Vec<u64> = (0..n).collect();
            let want: Vec<u64> = items.iter().map(f).collect();
            for threads in [1, 2, 4, 8] {
                let got = run_all(&items, &EngineConfig::with_threads(threads), f);
                assert_eq!(got, want, "{n} items at {threads} threads");
            }
        }
    }

    #[test]
    fn results_are_bit_identical_across_thread_counts() {
        let items = batch(40, 7);
        for solver in [
            BatchSolver::Greedy,
            BatchSolver::MPartition,
            BatchSolver::CostPartition,
        ] {
            let seq = solve_batch(&items, solver, &EngineConfig::with_threads(1));
            for threads in [2, 4, 8] {
                let par = solve_batch(&items, solver, &EngineConfig::with_threads(threads));
                assert_eq!(par.outcomes.len(), seq.outcomes.len());
                for (i, (a, b)) in seq.outcomes.iter().zip(&par.outcomes).enumerate() {
                    assert_eq!(
                        a.assignment(),
                        b.assignment(),
                        "{solver:?} item {i} at {threads} threads"
                    );
                    assert_eq!(a.makespan(), b.makespan());
                }
            }
        }
    }

    #[test]
    fn hetero_results_are_bit_identical_across_thread_counts() {
        let items: Vec<HeteroBatchItem> = batch(30, 19)
            .into_iter()
            .enumerate()
            .map(|(i, item)| {
                let m = item.instance.num_procs();
                let speeds: Vec<u64> = (0..m).map(|p| 1 + ((p + i) % 3) as u64).collect();
                HeteroBatchItem {
                    moves: 3 + i % 5,
                    speeds: Speeds::new(speeds).unwrap(),
                    instance: item.instance,
                }
            })
            .collect();
        for solver in [HeteroBatchSolver::Greedy, HeteroBatchSolver::MPartition] {
            let seq = solve_hetero_batch(&items, solver, &EngineConfig::with_threads(1));
            for (item, out) in items.iter().zip(&seq.outcomes) {
                assert!(out.moves() <= item.moves, "{solver:?}");
            }
            for threads in [2, 4, 8] {
                let par = solve_hetero_batch(&items, solver, &EngineConfig::with_threads(threads));
                assert_eq!(
                    par.outcomes, seq.outcomes,
                    "{solver:?} at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn outcomes_respect_budgets() {
        let mut items = batch(20, 99);
        // The same farms under cost budgets, so every solver meets both kinds.
        let costed: Vec<BatchItem> = items
            .iter()
            .map(|item| BatchItem {
                instance: item.instance.clone(),
                budget: Budget::Cost(item.budget.as_cost()),
            })
            .collect();
        items.extend(costed);
        // Four jobs of size 4 piled on one of two processors. Costing 10
        // each, GREEDY given the cost budget 10 as a move budget would move
        // two of them (cost 20); costing 0 each, cost-PARTITION given the
        // move budget 1 as a cost budget would move two of them.
        for cost in [10, 0] {
            for budget in [Budget::Moves(1), Budget::Cost(10)] {
                let jobs = vec![Job::with_cost(4, cost); 4];
                items.push(BatchItem {
                    instance: Instance::new(jobs, vec![0; 4], 2).unwrap(),
                    budget,
                });
            }
        }
        // Two moved jobs costing 2^63 + 1 each cost more than u64 holds; the
        // reported cost saturates instead of wrapping under the budget.
        let huge = (1u64 << 63) + 1;
        for budget in [Budget::Moves(2), Budget::Cost(5)] {
            let jobs = [huge, 0, huge, 0].map(|cost| Job::with_cost(4, cost));
            items.push(BatchItem {
                instance: Instance::new(jobs.to_vec(), vec![0; 4], 2).unwrap(),
                budget,
            });
        }
        for solver in [
            BatchSolver::Greedy,
            BatchSolver::MPartition,
            BatchSolver::CostPartition,
        ] {
            let report = solve_batch(&items, solver, &EngineConfig::default());
            for (i, (item, out)) in items.iter().zip(&report.outcomes).enumerate() {
                match item.budget {
                    Budget::Moves(k) => assert!(out.moves() <= k, "{solver:?} item {i}"),
                    Budget::Cost(b) => assert!(out.cost() <= b, "{solver:?} item {i}"),
                }
                assert!(
                    out.makespan() <= item.instance.initial_makespan(),
                    "{solver:?} item {i}"
                );
            }
            assert_eq!(report.solve_nanos.len(), items.len());
            assert!(report.solve_nanos.iter().all(|&ns| ns > 0));
        }
    }

    #[test]
    fn greedy_spends_a_cost_budget_on_the_jobs_it_can_pay_for() {
        // Four size-4 jobs costing 10 each, piled on one of two processors:
        // a cost budget of 10 pays for one move, which lowers the makespan
        // from 16 to 12.
        let jobs = vec![Job::with_cost(4, 10); 4];
        let items = [BatchItem {
            instance: Instance::new(jobs, vec![0; 4], 2).unwrap(),
            budget: Budget::Cost(10),
        }];
        let report = solve_batch(&items, BatchSolver::Greedy, &EngineConfig::with_threads(1));
        let out = &report.outcomes[0];
        assert_eq!((out.moves(), out.cost(), out.makespan()), (1, 10, 12));
    }

    #[test]
    fn empty_batch() {
        let report = solve_batch(&[], BatchSolver::MPartition, &EngineConfig::default());
        assert!(report.outcomes.is_empty());
        assert_eq!(report.steals, 0);
    }

    #[test]
    fn engine_emits_counters_when_recorded() {
        // A base M-PARTITION batch plus hetero GREEDY and M-PARTITION
        // batches with unequal speeds, all into one recorder per thread
        // count.
        let items = batch(10, 3);
        let hetero_items: Vec<HeteroBatchItem> = batch(12, 5)
            .into_iter()
            .enumerate()
            .map(|(i, item)| HeteroBatchItem {
                speeds: Speeds::new(vec![1, 2, 3, 1 + (i % 4) as u64]).unwrap(),
                moves: 2 + i % 4,
                instance: item.instance,
            })
            .collect();
        // Scheduling facts: how many workers ran and what they stole.
        let scheduling = [
            names::ENGINE_WORKERS,
            names::ENGINE_STEALS,
            names::ENGINE_QUEUE_DEPTH,
        ];
        let mut logical = Vec::new();
        for threads in [1, 2, 4] {
            let cfg = EngineConfig::with_threads(threads);
            let rec = lrb_obs::AtomicRecorder::new();
            solve_batch_in(&items, BatchSolver::MPartition, &cfg, &rec);
            for solver in [HeteroBatchSolver::Greedy, HeteroBatchSolver::MPartition] {
                solve_hetero_batch_in(&hetero_items, solver, &cfg, &rec);
            }
            let snap = rec.snapshot();
            assert_eq!(snap.counter(names::ENGINE_ITEMS), Some(10 + 2 * 12));
            assert_eq!(
                snap.counter(names::ENGINE_WORKERS),
                Some(3 * threads as u64)
            );
            assert_eq!(
                snap.histogram(names::ENGINE_SOLVE_NANOS).unwrap().count,
                10 + 2 * 12
            );
            // The solvers' own telemetry comes back from every worker lane.
            for phase in [
                names::MPARTITION_SEARCH,
                names::HETERO_GREEDY,
                names::HETERO_MPARTITION,
            ] {
                assert!(snap.phase(phase).is_some(), "{phase} at {threads} threads");
            }
            for counter in [
                names::MPARTITION_CANDIDATES_EXAMINED,
                names::HETERO_MOVES,
                names::HETERO_PROBES,
            ] {
                assert!(
                    snap.counter(counter).is_some(),
                    "{counter} at {threads} threads"
                );
            }
            let counts: Vec<(String, u64)> = snap
                .counters
                .iter()
                .map(|c| (c.name.clone(), c.value))
                .chain(snap.histograms.iter().map(|h| (h.name.clone(), h.count)))
                .chain(snap.phases.iter().map(|p| (p.name.clone(), p.calls)))
                .filter(|(name, _)| !scheduling.contains(&name.as_str()))
                .collect();
            logical.push(counts);
        }
        assert_eq!(logical[0], logical[1], "1 vs 2 threads");
        assert_eq!(logical[0], logical[2], "1 vs 4 threads");
    }

    #[test]
    fn stream_engine_matches_solve_batch_each_epoch_at_any_thread_count() {
        let epochs: Vec<Vec<BatchItem>> = (0..4).map(|e| batch(10 + e, 31 + e as u64)).collect();
        let reference: Vec<_> = epochs
            .iter()
            .map(|items| {
                solve_batch(
                    items,
                    BatchSolver::MPartition,
                    &EngineConfig::with_threads(1),
                )
            })
            .collect();
        for threads in [1, 2, 4, 8] {
            let mut stream = StreamEngine::new(
                BatchSolver::MPartition,
                &EngineConfig::with_threads(threads),
            );
            for (items, want) in epochs.iter().zip(&reference) {
                let got = stream.solve_epoch(items);
                assert_eq!(got.outcomes, want.outcomes, "{threads} threads");
            }
            assert_eq!(stream.epochs(), epochs.len() as u64);
        }
    }

    #[test]
    fn stream_engine_handles_empty_and_tiny_epochs() {
        let mut stream = StreamEngine::new(BatchSolver::MPartition, &EngineConfig::with_threads(4));
        assert_eq!(stream.workers(), 4);
        let report = stream.solve_epoch(&[]);
        assert!(report.outcomes.is_empty());
        let items = batch(1, 9);
        let report = stream.solve_epoch(&items);
        assert_eq!(report.outcomes.len(), 1);
        assert_eq!(report.workers, 1); // clamped to the epoch's size
    }

    #[test]
    fn traced_runs_match_untraced_outcomes() {
        let items = batch(24, 13);
        for threads in [1, 4] {
            let plain = solve_batch(
                &items,
                BatchSolver::MPartition,
                &EngineConfig::with_threads(threads),
            );
            let collector = TraceCollector::new(1);
            let traced = solve_batch_in(
                &items,
                BatchSolver::MPartition,
                &EngineConfig::with_threads(threads),
                collector.main(),
            );
            assert_eq!(traced.outcomes, plain.outcomes, "{threads} threads");
            let trace = collector.finish("test", 13, threads, "m-partition");
            // One batch span, one worker span per worker, one solve span
            // per item; solver phases arrive through the worker lanes.
            assert_eq!(trace.events_named(names::ENGINE_BATCH).count(), 1);
            assert_eq!(
                trace.events_named(names::ENGINE_WORKER).count(),
                traced.workers
            );
            assert_eq!(trace.events_named(names::ENGINE_SOLVE).count(), items.len());
            assert!(
                trace.events_named(names::MPARTITION_SEARCH).count() >= items.len(),
                "solver phases must flow through the worker lanes"
            );
        }
    }

    #[test]
    fn hetero_traces_carry_solver_spans_on_the_worker_lanes() {
        let items: Vec<HeteroBatchItem> = batch(9, 23)
            .into_iter()
            .map(|item| HeteroBatchItem {
                speeds: Speeds::new(vec![1, 2, 3, 4]).unwrap(),
                moves: 3,
                instance: item.instance,
            })
            .collect();
        let collector = TraceCollector::new(1);
        solve_hetero_batch_in(
            &items,
            HeteroBatchSolver::Greedy,
            &EngineConfig::with_threads(3),
            collector.main(),
        );
        let trace = collector.finish("test", 23, 3, "hetero-greedy");
        let tids: Vec<u32> = trace
            .events_named(names::HETERO_GREEDY)
            .map(|e| e.tid)
            .collect();
        assert_eq!(tids.len(), items.len());
        assert!(tids.iter().all(|tid| (1..=3).contains(tid)), "{tids:?}");
    }

    #[test]
    fn trace_determinism_hash_is_stable_across_reruns_and_thread_counts() {
        let items = batch(32, 21);
        let hash_at = |threads: usize| {
            let collector = TraceCollector::new(1);
            solve_batch_in(
                &items,
                BatchSolver::MPartition,
                &EngineConfig::with_threads(threads),
                collector.main(),
            );
            collector
                .finish("test", 21, threads, "m-partition")
                .determinism_hash()
        };
        let h1 = hash_at(1);
        assert_eq!(h1, hash_at(1), "rerun at 1 thread");
        assert_eq!(h1, hash_at(2), "2 threads");
        assert_eq!(h1, hash_at(4), "4 threads");
        // A different workload must hash differently.
        let other = batch(31, 21);
        let collector = TraceCollector::new(1);
        solve_batch_in(
            &other,
            BatchSolver::MPartition,
            &EngineConfig::with_threads(1),
            collector.main(),
        );
        assert_ne!(
            h1,
            collector
                .finish("test", 21, 1, "m-partition")
                .determinism_hash()
        );
    }

    #[test]
    fn trace_attributes_worker_time_to_named_spans() {
        let items = batch(48, 17);
        let collector = TraceCollector::new(1);
        solve_batch_in(
            &items,
            BatchSolver::MPartition,
            &EngineConfig::with_threads(4),
            collector.main(),
        );
        let trace = collector.finish("test", 17, 4, "m-partition");
        let frac = trace.attributed_fraction(
            names::ENGINE_WORKER,
            &[
                names::ENGINE_CLAIM,
                names::ENGINE_QUEUE_WAIT,
                names::ENGINE_SOLVE,
            ],
        );
        assert!(
            frac >= 0.95,
            "claim/queue-wait/solve spans cover only {:.1}% of worker wall time",
            frac * 100.0
        );
    }

    #[test]
    fn adversarial_schedules_preserve_bit_identity() {
        use crate::schedule::AdversarialShim;
        let items = batch(24, 11);
        for solver in [BatchSolver::Greedy, BatchSolver::MPartition] {
            let seq = solve_batch(&items, solver, &EngineConfig::with_threads(1));
            for seed in 0..3 {
                let shim = AdversarialShim::full(seed);
                let adv =
                    solve_batch_shimmed(&items, solver, &EngineConfig::with_threads(3), &shim);
                assert_eq!(adv.outcomes, seq.outcomes, "{solver:?} seed {seed}");
            }
        }
    }

    #[test]
    fn steal_storm_forces_steals() {
        use crate::schedule::AdversarialShim;
        let items = batch(32, 5);
        let shim = AdversarialShim::new(1, true, true, false);
        let rep = solve_batch_shimmed(
            &items,
            BatchSolver::MPartition,
            &EngineConfig::with_threads(4),
            &shim,
        );
        assert_eq!(rep.outcomes.len(), items.len());
        assert!(rep.steals > 0, "storm mode must exercise the steal path");
    }

    #[test]
    fn custom_stripe_layouts_hand_out_every_index_exactly_once() {
        let q = StealQueue::with_ends(10, 3, vec![1, 2, 10]);
        let mut seen = [false; 10];
        for w in [0, 1] {
            while let Some(i) = q.claim_own(w) {
                assert!(!seen[i]);
                seen[i] = true;
            }
        }
        while let Some((i, _)) = q.steal(0) {
            assert!(!seen[i]);
            seen[i] = true;
        }
        while let Some(i) = q.claim_own(2) {
            assert!(!seen[i]);
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn steal_queue_hands_out_every_index_exactly_once() {
        let q = StealQueue::new(13, 4);
        let mut seen = [false; 13];
        // Worker 0 drains everything: its own stripe, then steals.
        loop {
            let i = match q.claim_own(0) {
                Some(i) => i,
                None => match q.steal(0) {
                    Some((i, depth)) => {
                        assert!(depth > 0);
                        i
                    }
                    None => break,
                },
            };
            assert!(!seen[i], "index {i} claimed twice");
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn steal_prefers_fullest_victim() {
        let q = StealQueue::new(12, 3); // stripes: 0..4, 4..8, 8..12
                                        // Drain worker 1's stripe fully and half of worker 2's.
        for _ in 0..4 {
            q.claim_own(1);
        }
        for _ in 0..2 {
            q.claim_own(2);
        }
        // Worker 1 steals: victim 0 has 4 remaining, victim 2 has 2.
        let (i, depth) = q.steal(1).unwrap();
        assert_eq!(depth, 4);
        assert!(i < 4, "stole from stripe 0, got {i}");
    }
}
