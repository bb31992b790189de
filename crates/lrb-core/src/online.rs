//! Online rebalancing: arrivals, departures, and budget-banked rebalances.
//!
//! The paper solves a one-shot rebalance, but its motivating web-farm
//! scenario is online: jobs arrive and depart between rebalance rounds, and
//! migration stays scarce. This module maintains a live instance
//! incrementally — sorted job-key index and per-processor loads — and runs
//! the batch solvers at rebalance events under an
//! *amortized* move budget: a [`MoveBank`] accrues a configurable number of
//! budget units per rebalance event up to a cap, and each rebalance may
//! spend at most `min(requested, banked)` units (the amortized-migration
//! lens of Albers & Hellwig and of Westbrook's earlier formulation).
//!
//! ## Equivalence invariant
//!
//! At any point, [`OnlineRebalancer::instance`] is a plain [`Instance`] and
//! a rebalance is *exactly* a batch solve of that snapshot with the
//! effective budget: the rebalancer's warm scratch changes only
//! performance, never the answer. Tests replay event
//! streams and assert checkpoint-by-checkpoint bit-identity against
//! from-scratch batch solves; see DESIGN.md §10.
//!
//! ## Migration policies
//!
//! The budget-accrual rule is abstracted behind [`MigrationPolicy`], with
//! three implementations (see DESIGN.md §15):
//!
//! * [`MoveBank`] — fixed accrual per rebalance event up to a cap; the
//!   workspace default and the rebalancer's default type parameter, so all
//!   pre-trait call sites behave bit-identically.
//! * [`ProportionalBank`] — `⌊β·size⌋` credited per *arrival*: the
//!   migration-factor lens of Albers & Hellwig (arXiv:1111.0773).
//! * [`MaackBank`] — the uniform-machine migration-factor variant after
//!   Maack (arXiv:2209.00565), composing with [`crate::hetero::Speeds`];
//!   on equal speeds it is bit-identical to [`ProportionalBank`].

use crate::ctx::Ctx;
use crate::deadline::{DeadlineSolver, SolverKind};
use crate::error::{Error, Result};
use crate::model::{Budget, Instance, Job, ProcId, Size};
use crate::mpartition::ThresholdSearch;
use crate::outcome::RebalanceOutcome;
use crate::scratch::Scratch;

/// Stable identifier for a live job, chosen by the event source. Keys may be
/// reused after the job departs, but never while it is live.
pub type JobKey = u64;

/// One event in an online stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A new job lands on processor `proc`.
    Arrive { key: JobKey, job: Job, proc: ProcId },
    /// A live job finishes and leaves the system.
    Depart { key: JobKey },
    /// Run the solver with at most `min(budget, banked)` effective budget.
    Rebalance { budget: Budget },
}

/// Accrual policy for the amortized move budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BankConfig {
    /// Units credited at each rebalance event (before spending).
    pub accrual: u64,
    /// Ceiling on the banked balance; accrual beyond it is forfeited.
    pub cap: u64,
    /// Starting balance (clamped to `cap`).
    pub initial: u64,
}

impl Default for BankConfig {
    fn default() -> Self {
        BankConfig {
            accrual: 4,
            cap: 16,
            initial: 4,
        }
    }
}

impl BankConfig {
    /// A bank that never constrains the requested budget.
    pub fn unlimited() -> Self {
        BankConfig {
            accrual: u64::MAX,
            cap: u64::MAX,
            initial: u64::MAX,
        }
    }
}

/// Banked budget units with saturating accrual and audited spending.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MoveBank {
    balance: u64,
    accrual: u64,
    cap: u64,
    total_accrued: u64,
    total_spent: u64,
}

impl MoveBank {
    /// A bank following `cfg`, starting at `cfg.initial` (clamped to cap).
    pub fn new(cfg: BankConfig) -> Self {
        MoveBank {
            balance: cfg.initial.min(cfg.cap),
            accrual: cfg.accrual,
            cap: cfg.cap,
            total_accrued: 0,
            total_spent: 0,
        }
    }

    /// Credit one rebalance event's accrual, forfeiting overflow past cap.
    fn accrue(&mut self) {
        let credited = self.accrual.min(self.cap - self.balance);
        self.balance += credited;
        self.total_accrued = self.total_accrued.saturating_add(credited);
    }

    /// Debit `units`; callers never spend past the balance.
    fn debit(&mut self, units: u64) {
        debug_assert!(units <= self.balance, "bank overdraft");
        self.balance -= units.min(self.balance);
        self.total_spent = self.total_spent.saturating_add(units);
    }

    /// Rebuild a bank from persisted parts (crash recovery). The balance
    /// is clamped to the cap, as `new` would have enforced over any
    /// reachable history.
    pub fn from_parts(
        balance: u64,
        accrual: u64,
        cap: u64,
        total_accrued: u64,
        total_spent: u64,
    ) -> Self {
        MoveBank {
            balance: balance.min(cap),
            accrual,
            cap,
            total_accrued,
            total_spent,
        }
    }

    /// Currently banked units.
    pub fn balance(&self) -> u64 {
        self.balance
    }

    /// Units credited per rebalance event.
    pub fn accrual(&self) -> u64 {
        self.accrual
    }

    /// Ceiling on the banked balance.
    pub fn cap(&self) -> u64 {
        self.cap
    }

    /// Units credited over the bank's lifetime (excluding the initial grant).
    pub fn total_accrued(&self) -> u64 {
        self.total_accrued
    }

    /// Units debited over the bank's lifetime.
    pub fn total_spent(&self) -> u64 {
        self.total_spent
    }
}

/// Budget-accrual policy for online migration: when credit is earned, and
/// how much the rebalancer may spend at a rebalance event.
///
/// Implementations differ only in *when* credit accrues — per rebalance
/// event ([`MoveBank`]) or per arrival, proportional to the arriving job's
/// size ([`ProportionalBank`], [`MaackBank`]). All accounting is
/// integer-only, so every run is exactly reproducible, and the certificate
/// every policy carries is `total_spent ≤ initial grant + total_accrued`
/// (the rebalancer clamps each effective budget to the balance and never
/// overdraws).
pub trait MigrationPolicy: std::fmt::Debug {
    /// Stable policy name for reports and traces.
    fn name(&self) -> &'static str;

    /// Credit earned when a job of `size` arrives. Migration-factor
    /// policies accrue here; [`MoveBank`] does not (a strict no-op, which
    /// keeps the default policy bit-identical to the pre-trait code).
    fn on_arrival(&mut self, size: Size);

    /// Credit earned at a rebalance event, before the requested budget is
    /// clamped. [`MoveBank`] accrues here; migration-factor policies do
    /// not.
    fn on_rebalance(&mut self);

    /// Currently banked budget units.
    fn balance(&self) -> u64;

    /// Debit `units`; the rebalancer never spends past the balance.
    fn spend(&mut self, units: u64);

    /// Units credited over the policy's lifetime (excluding any initial
    /// grant).
    fn total_accrued(&self) -> u64;

    /// Units debited over the policy's lifetime.
    fn total_spent(&self) -> u64;
}

impl MigrationPolicy for MoveBank {
    fn name(&self) -> &'static str {
        "move-bank"
    }

    fn on_arrival(&mut self, _size: Size) {}

    fn on_rebalance(&mut self) {
        self.accrue();
    }

    fn balance(&self) -> u64 {
        self.balance
    }

    fn spend(&mut self, units: u64) {
        self.debit(units);
    }

    fn total_accrued(&self) -> u64 {
        self.total_accrued
    }

    fn total_spent(&self) -> u64 {
        self.total_spent
    }
}

/// Size-proportional migration-factor policy after Albers & Hellwig
/// (arXiv:1111.0773): each arriving job of size `s` credits `⌊β·s⌋` budget
/// units, where `β = beta_num / beta_den` is a rational migration factor.
///
/// Accounting is integer-only (`u128` intermediates, floor division), so
/// the credit schedule is exact and reproducible. There is no cap: the
/// policy's certificate is that lifetime spending never exceeds the credit
/// earned from the sizes that actually arrived.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProportionalBank {
    beta_num: u64,
    beta_den: u64,
    balance: u64,
    total_accrued: u64,
    total_spent: u64,
}

impl ProportionalBank {
    /// A policy with migration factor `beta_num / beta_den`, starting with
    /// an empty balance. A zero denominator is treated as 1.
    pub fn new(beta_num: u64, beta_den: u64) -> Self {
        ProportionalBank {
            beta_num,
            beta_den: beta_den.max(1),
            balance: 0,
            total_accrued: 0,
            total_spent: 0,
        }
    }

    /// The migration factor as a `(numerator, denominator)` pair.
    pub fn beta(&self) -> (u64, u64) {
        (self.beta_num, self.beta_den)
    }

    /// The credit earned by an arrival of `size`: `⌊β·size⌋`.
    fn credit(&self, size: Size) -> u64 {
        let num = u128::from(size).saturating_mul(u128::from(self.beta_num));
        u64::try_from(num / u128::from(self.beta_den)).unwrap_or(u64::MAX)
    }
}

impl MigrationPolicy for ProportionalBank {
    fn name(&self) -> &'static str {
        "proportional"
    }

    fn on_arrival(&mut self, size: Size) {
        let credited = self.credit(size);
        self.balance = self.balance.saturating_add(credited);
        self.total_accrued = self.total_accrued.saturating_add(credited);
    }

    fn on_rebalance(&mut self) {}

    fn balance(&self) -> u64 {
        self.balance
    }

    fn spend(&mut self, units: u64) {
        debug_assert!(units <= self.balance, "policy overdraft");
        self.balance -= units.min(self.balance);
        self.total_spent = self.total_spent.saturating_add(units);
    }

    fn total_accrued(&self) -> u64 {
        self.total_accrued
    }

    fn total_spent(&self) -> u64 {
        self.total_spent
    }
}

/// Uniform-machine migration-factor policy after Maack (arXiv:2209.00565),
/// composing with [`crate::hetero::Speeds`]: an arrival of size `s` credits
/// `⌊β·s·s_max / s_min⌋` units, scaling the size-proportional budget by the
/// fleet's speed spread so that slower machines (which stretch processing
/// times by up to `s_max / s_min`) earn proportionally more migration
/// budget.
///
/// When all speeds are equal the spread is exactly 1 — the numerator and
/// denominator share the common speed factor, so floor division yields
/// `⌊β·s⌋` — and the policy is *bit-identical* to [`ProportionalBank`]
/// with the same β (the same delegation-to-identical idiom the hetero
/// solvers use).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaackBank {
    beta_num: u64,
    beta_den: u64,
    speed_min: u64,
    speed_max: u64,
    balance: u64,
    total_accrued: u64,
    total_spent: u64,
}

impl MaackBank {
    /// A policy with migration factor `beta_num / beta_den` over `speeds`
    /// (which are validated non-empty and nonzero by construction). A zero
    /// denominator is treated as 1.
    pub fn new(beta_num: u64, beta_den: u64, speeds: &crate::hetero::Speeds) -> Self {
        let slice = speeds.as_slice();
        MaackBank {
            beta_num,
            beta_den: beta_den.max(1),
            speed_min: slice.iter().copied().min().unwrap_or(1).max(1),
            speed_max: slice.iter().copied().max().unwrap_or(1).max(1),
            balance: 0,
            total_accrued: 0,
            total_spent: 0,
        }
    }

    /// The migration factor as a `(numerator, denominator)` pair.
    pub fn beta(&self) -> (u64, u64) {
        (self.beta_num, self.beta_den)
    }

    /// The `(s_min, s_max)` speed spread the credit rule scales by.
    pub fn speed_spread(&self) -> (u64, u64) {
        (self.speed_min, self.speed_max)
    }

    /// The credit earned by an arrival of `size`:
    /// `⌊size·β·s_max / s_min⌋`, computed in `u128`.
    fn credit(&self, size: Size) -> u64 {
        let num = u128::from(size)
            .saturating_mul(u128::from(self.beta_num))
            .saturating_mul(u128::from(self.speed_max));
        let den = u128::from(self.beta_den) * u128::from(self.speed_min);
        u64::try_from(num / den).unwrap_or(u64::MAX)
    }
}

impl MigrationPolicy for MaackBank {
    fn name(&self) -> &'static str {
        "maack-uniform"
    }

    fn on_arrival(&mut self, size: Size) {
        let credited = self.credit(size);
        self.balance = self.balance.saturating_add(credited);
        self.total_accrued = self.total_accrued.saturating_add(credited);
    }

    fn on_rebalance(&mut self) {}

    fn balance(&self) -> u64 {
        self.balance
    }

    fn spend(&mut self, units: u64) {
        debug_assert!(units <= self.balance, "policy overdraft");
        self.balance -= units.min(self.balance);
        self.total_spent = self.total_spent.saturating_add(units);
    }

    fn total_accrued(&self) -> u64 {
        self.total_accrued
    }

    fn total_spent(&self) -> u64 {
        self.total_spent
    }
}

/// Event and solver counters maintained by the rebalancer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OnlineStats {
    /// Total events applied (arrivals + departures + rebalances).
    pub events: u64,
    /// Arrive events applied.
    pub arrivals: u64,
    /// Depart events applied.
    pub departures: u64,
    /// Rebalance events applied.
    pub rebalances: u64,
    /// Jobs actually migrated (solver moves plus forced moves).
    pub moves_performed: u64,
}

/// What one rebalance event did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RebalanceStep {
    /// The solver's outcome over the pre-rebalance snapshot.
    pub outcome: RebalanceOutcome,
    /// The budget the event asked for.
    pub requested: Budget,
    /// The budget actually granted: `min(requested, banked)`.
    pub effective: Budget,
    /// Bank balance before this event's accrual.
    pub banked_before: u64,
    /// Bank balance after accrual and spending.
    pub banked_after: u64,
}

/// Result of committing an externally solved assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Commit {
    /// Jobs whose processor changed.
    pub moves: u64,
    /// Total relocation cost of the moved jobs.
    pub cost: u64,
    /// Bank units debited (moves or cost, per the billed budget's kind).
    pub spent: u64,
}

/// Incrementally maintained online instance with banked-budget rebalancing.
///
/// Jobs are addressed by caller-chosen [`JobKey`]s. Internally the
/// rebalancer keeps parallel arrays sorted by key (so snapshots are
/// canonical regardless of event order within an epoch), per-processor
/// loads, and a private [`Scratch`] its own rebalances reuse.
///
/// The rebalancer is generic over its [`MigrationPolicy`], defaulting to
/// [`MoveBank`] so existing call sites need no type annotation and behave
/// bit-identically to the pre-trait code. Use [`Self::with_policy`] to run
/// a migration-factor policy instead.
#[derive(Debug)]
pub struct OnlineRebalancer<P: MigrationPolicy = MoveBank> {
    num_procs: usize,
    /// Live job keys, ascending; `jobs` and `assignment` are parallel.
    keys: Vec<JobKey>,
    jobs: Vec<Job>,
    assignment: Vec<ProcId>,
    loads: Vec<Size>,
    bank: P,
    scratch: Scratch,
    stats: OnlineStats,
}

impl OnlineRebalancer {
    /// An empty online instance over `num_procs` processors with the
    /// default [`MoveBank`] policy following `bank`.
    pub fn new(num_procs: usize, bank: BankConfig) -> Result<Self> {
        Self::with_policy(num_procs, MoveBank::new(bank))
    }

    /// Rebuild a rebalancer from persisted state (crash recovery): the
    /// live jobs with their placements, plus the bank and counters as
    /// snapshotted. Equivalent to arriving every job in order and then
    /// overwriting the audit state — the sorted-key index and loads are
    /// reconstructed exactly, and the scratch starts cold (a buffer pool,
    /// so answers are unaffected).
    pub fn restore(
        num_procs: usize,
        jobs: &[(JobKey, Job, ProcId)],
        bank: MoveBank,
        stats: OnlineStats,
    ) -> Result<Self> {
        let mut r = Self::new(num_procs, BankConfig::default())?;
        for &(key, job, proc) in jobs {
            r.arrive(key, job, proc)?;
        }
        r.bank = bank;
        r.stats = stats;
        Ok(r)
    }
}

impl<P: MigrationPolicy> OnlineRebalancer<P> {
    /// An empty online instance over `num_procs` processors governed by
    /// `policy`.
    pub fn with_policy(num_procs: usize, policy: P) -> Result<Self> {
        if num_procs == 0 {
            return Err(Error::NoProcessors);
        }
        Ok(OnlineRebalancer {
            num_procs,
            keys: Vec::new(),
            jobs: Vec::new(),
            assignment: Vec::new(),
            loads: vec![0; num_procs],
            bank: policy,
            scratch: Scratch::new(),
            stats: OnlineStats::default(),
        })
    }

    /// Apply one event; rebalances return their step, other events `None`.
    pub fn apply(&mut self, event: Event) -> Result<Option<RebalanceStep>> {
        match event {
            Event::Arrive { key, job, proc } => self.arrive(key, job, proc).map(|_| None),
            Event::Depart { key } => self.depart(key).map(|_| None),
            Event::Rebalance { budget } => self.rebalance(budget).map(Some),
        }
    }

    /// Admit a new job onto `proc`.
    pub fn arrive(&mut self, key: JobKey, job: Job, proc: ProcId) -> Result<()> {
        let at = match self.keys.binary_search(&key) {
            Ok(_) => return Err(Error::DuplicateJob { key }),
            Err(at) => at,
        };
        if proc >= self.num_procs {
            return Err(Error::ProcOutOfRange {
                job: at,
                proc,
                num_procs: self.num_procs,
            });
        }
        self.keys.insert(at, key);
        self.jobs.insert(at, job);
        self.assignment.insert(at, proc);
        self.loads[proc] = self.loads[proc].saturating_add(job.size);
        self.bank.on_arrival(job.size);
        self.stats.events += 1;
        self.stats.arrivals += 1;
        Ok(())
    }

    /// Retire the live job with `key`, returning it.
    pub fn depart(&mut self, key: JobKey) -> Result<Job> {
        let at = self
            .keys
            .binary_search(&key)
            .map_err(|_| Error::UnknownJob { key })?;
        self.keys.remove(at);
        let job = self.jobs.remove(at);
        let proc = self.assignment.remove(at);
        self.loads[proc] = self.loads[proc].saturating_sub(job.size);
        self.stats.events += 1;
        self.stats.departures += 1;
        Ok(job)
    }

    /// Accrue the bank and clamp `requested` to the banked balance. Counts
    /// the rebalance event; pair with [`Self::commit_assignment`] when the
    /// solve happens externally (e.g. in the batch engine).
    pub fn begin_rebalance(&mut self, requested: Budget) -> Budget {
        self.stats.events += 1;
        self.stats.rebalances += 1;
        self.bank.on_rebalance();
        match requested {
            Budget::Moves(k) => Budget::Moves((k as u64).min(self.bank.balance()) as usize),
            Budget::Cost(b) => Budget::Cost(b.min(self.bank.balance())),
        }
    }

    /// Install `new_assignment` (solved elsewhere over [`Self::instance`]),
    /// billing the bank in `billing`'s units. Rejects assignments that are
    /// malformed or exceed `billing` without changing any state.
    pub fn commit_assignment(
        &mut self,
        new_assignment: &[ProcId],
        billing: Budget,
    ) -> Result<Commit> {
        if new_assignment.len() != self.keys.len() {
            return Err(Error::AssignmentLength {
                expected: self.keys.len(),
                got: new_assignment.len(),
            });
        }
        let mut moves = 0u64;
        let mut cost = 0u64;
        for (j, (&to, &from)) in new_assignment.iter().zip(&self.assignment).enumerate() {
            if to >= self.num_procs {
                return Err(Error::ProcOutOfRange {
                    job: j,
                    proc: to,
                    num_procs: self.num_procs,
                });
            }
            if to != from {
                moves += 1;
                cost = cost.saturating_add(self.jobs[j].cost);
            }
        }
        let spent = match billing {
            Budget::Moves(k) => {
                if moves > k as u64 {
                    return Err(Error::BudgetExceeded {
                        used: moves,
                        budget: k as u64,
                    });
                }
                moves
            }
            Budget::Cost(b) => {
                if cost > b {
                    return Err(Error::BudgetExceeded {
                        used: cost,
                        budget: b,
                    });
                }
                cost
            }
        };
        for (j, (&to, from)) in new_assignment
            .iter()
            .zip(self.assignment.iter_mut())
            .enumerate()
        {
            if to != *from {
                let size = self.jobs[j].size;
                self.loads[*from] = self.loads[*from].saturating_sub(size);
                self.loads[to] = self.loads[to].saturating_add(size);
                *from = to;
            }
        }
        self.bank.spend(spent);
        self.stats.moves_performed += moves;
        Ok(Commit { moves, cost, spent })
    }

    /// Run a full rebalance event: accrue the bank, solve the current
    /// snapshot with the effective budget, and commit the result.
    ///
    /// The solve is [`SolverKind::MPartition`]'s [`DeadlineSolver`] with a
    /// binary threshold search: `Budget::Moves` solves via
    /// [`crate::mpartition`], `Budget::Cost` via [`crate::cost_partition`],
    /// both in the rebalancer's warm scratch.
    pub fn rebalance(&mut self, requested: Budget) -> Result<RebalanceStep> {
        let banked_before = self.bank.balance();
        let effective = self.begin_rebalance(requested);
        let inst = self.instance();
        if inst.num_jobs() == 0 {
            let outcome = RebalanceOutcome::unchanged(&inst);
            return Ok(RebalanceStep {
                outcome,
                requested,
                effective,
                banked_before,
                banked_after: self.bank.balance(),
            });
        }
        let mut ctx = Ctx {
            scratch: std::mem::take(&mut self.scratch),
            ..Ctx::default()
        };
        let solved = DeadlineSolver::new(SolverKind::MPartition(ThresholdSearch::Binary))
            .solve(&inst, effective, &mut ctx);
        self.scratch = ctx.scratch;
        let outcome = solved?;
        self.commit_assignment(&outcome.assignment().to_vec(), effective)?;
        Ok(RebalanceStep {
            outcome,
            requested,
            effective,
            banked_before,
            banked_after: self.bank.balance(),
        })
    }

    /// Move one live job unconditionally (e.g. evacuating a crashed
    /// processor). Does not touch the bank; bill separately via
    /// [`Self::bill`] if the move should count against the budget.
    pub fn force_move(&mut self, key: JobKey, to: ProcId) -> Result<()> {
        let at = self
            .keys
            .binary_search(&key)
            .map_err(|_| Error::UnknownJob { key })?;
        if to >= self.num_procs {
            return Err(Error::ProcOutOfRange {
                job: at,
                proc: to,
                num_procs: self.num_procs,
            });
        }
        let from = self.assignment[at];
        if from == to {
            return Ok(());
        }
        let size = self.jobs[at].size;
        self.loads[from] = self.loads[from].saturating_sub(size);
        self.loads[to] = self.loads[to].saturating_add(size);
        self.assignment[at] = to;
        self.stats.moves_performed += 1;
        Ok(())
    }

    /// Debit up to `units` from the bank; returns what was actually debited.
    pub fn bill(&mut self, units: u64) -> u64 {
        let debited = units.min(self.bank.balance());
        self.bank.spend(debited);
        debited
    }

    /// A from-scratch [`Instance`] snapshot of the live state, with jobs in
    /// ascending key order (canonical regardless of event arrival order).
    pub fn instance(&self) -> Instance {
        Instance::new(self.jobs.clone(), self.assignment.clone(), self.num_procs)
            // lint: allow(no-panic-core, apply() validates every event, so the state stays well-formed)
            .expect("online state is always a valid instance")
    }

    /// Number of processors.
    pub fn num_procs(&self) -> usize {
        self.num_procs
    }

    /// Number of live jobs.
    pub fn num_jobs(&self) -> usize {
        self.keys.len()
    }

    /// Live job keys, ascending.
    pub fn keys(&self) -> &[JobKey] {
        &self.keys
    }

    /// The live job with `key`, if any.
    pub fn job(&self, key: JobKey) -> Option<&Job> {
        self.keys.binary_search(&key).ok().map(|at| &self.jobs[at])
    }

    /// The processor currently hosting `key`, if live.
    pub fn proc_of(&self, key: JobKey) -> Option<ProcId> {
        self.keys
            .binary_search(&key)
            .ok()
            .map(|at| self.assignment[at])
    }

    /// Current assignment, parallel to [`Self::keys`].
    pub fn assignment(&self) -> &[ProcId] {
        &self.assignment
    }

    /// Current per-processor loads.
    pub fn loads(&self) -> &[Size] {
        &self.loads
    }

    /// Current makespan (0 when no jobs are live).
    pub fn makespan(&self) -> Size {
        self.loads.iter().copied().max().unwrap_or(0)
    }

    /// The migration policy ([`MoveBank`] by default).
    pub fn bank(&self) -> &P {
        &self.bank
    }

    /// Event and solver counters.
    pub fn stats(&self) -> &OnlineStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hetero::Speeds;
    use crate::{cost_partition, mpartition};

    fn arrive(r: &mut OnlineRebalancer, key: JobKey, size: Size, proc: ProcId) {
        r.arrive(key, Job::unit(size), proc).unwrap();
    }

    #[test]
    fn constructor_rejects_zero_processors() {
        assert_eq!(
            OnlineRebalancer::new(0, BankConfig::default()).unwrap_err(),
            Error::NoProcessors
        );
    }

    #[test]
    fn arrivals_and_departures_maintain_loads_and_snapshot() {
        let mut r = OnlineRebalancer::new(2, BankConfig::default()).unwrap();
        arrive(&mut r, 10, 5, 0);
        arrive(&mut r, 3, 4, 1);
        arrive(&mut r, 7, 3, 0);
        assert_eq!(r.loads(), &[8, 4]);
        assert_eq!(r.keys(), &[3, 7, 10]);
        assert_eq!(r.makespan(), 8);

        let inst = r.instance();
        assert_eq!(inst.num_jobs(), 3);
        assert_eq!(inst.initial_loads(), vec![8, 4]);

        let gone = r.depart(7).unwrap();
        assert_eq!(gone.size, 3);
        assert_eq!(r.loads(), &[5, 4]);
        assert_eq!(r.keys(), &[3, 10]);
        assert_eq!(r.stats().events, 4);
        assert_eq!(r.stats().arrivals, 3);
        assert_eq!(r.stats().departures, 1);
    }

    #[test]
    fn duplicate_and_unknown_keys_are_rejected() {
        let mut r = OnlineRebalancer::new(2, BankConfig::default()).unwrap();
        arrive(&mut r, 1, 5, 0);
        assert_eq!(
            r.arrive(1, Job::unit(2), 1).unwrap_err(),
            Error::DuplicateJob { key: 1 }
        );
        assert_eq!(r.depart(99).unwrap_err(), Error::UnknownJob { key: 99 });
        assert!(matches!(
            r.arrive(2, Job::unit(1), 5).unwrap_err(),
            Error::ProcOutOfRange { proc: 5, .. }
        ));
        // Failed events leave state and counters untouched.
        assert_eq!(r.num_jobs(), 1);
        assert_eq!(r.stats().events, 1);
    }

    #[test]
    fn rebalance_matches_batch_solve_of_snapshot() {
        let mut r = OnlineRebalancer::new(2, BankConfig::unlimited()).unwrap();
        for (key, size) in [(0u64, 4u64), (1, 3), (2, 3), (3, 2)] {
            arrive(&mut r, key, size, 0);
        }
        let snapshot = r.instance();
        let step = r.rebalance(Budget::Moves(2)).unwrap();
        let batch = mpartition::rebalance(&snapshot, 2).unwrap();
        assert_eq!(step.outcome, batch.outcome);
        assert_eq!(r.assignment(), batch.outcome.assignment());
        assert_eq!(r.makespan(), batch.outcome.makespan());
        assert_eq!(r.makespan(), 6);
        assert_eq!(r.stats().moves_performed, batch.outcome.moves() as u64);
    }

    #[test]
    fn bank_clamps_requested_budget_and_accrues_over_events() {
        let cfg = BankConfig {
            accrual: 1,
            cap: 3,
            initial: 0,
        };
        let mut r = OnlineRebalancer::new(2, cfg).unwrap();
        for (key, size) in [(0u64, 4u64), (1, 3), (2, 3), (3, 2)] {
            arrive(&mut r, key, size, 0);
        }
        // First rebalance: bank accrues to 1, so only one move is allowed.
        let step = r.rebalance(Budget::Moves(4)).unwrap();
        assert_eq!(step.effective, Budget::Moves(1));
        assert!(step.outcome.moves() <= 1);
        assert_eq!(step.banked_before, 0);
        // Idle rebalances accrue the rest up to the cap.
        let step = r.rebalance(Budget::Moves(0)).unwrap();
        assert_eq!(step.outcome.moves(), 0);
        r.rebalance(Budget::Moves(0)).unwrap();
        let step = r.rebalance(Budget::Moves(0)).unwrap();
        assert_eq!(step.banked_after, 3);
        let step = r.rebalance(Budget::Moves(0)).unwrap();
        assert_eq!(step.banked_after, 3); // capped
        let step = r.rebalance(Budget::Moves(4)).unwrap();
        assert_eq!(step.effective, Budget::Moves(3));
    }

    #[test]
    fn cost_budget_rebalance_matches_batch_solve_of_snapshot() {
        let mut r = OnlineRebalancer::new(2, BankConfig::unlimited()).unwrap();
        for (key, size, cost) in [(0u64, 4u64, 2u64), (1, 3, 1), (2, 3, 1), (3, 2, 5)] {
            r.arrive(key, Job::with_cost(size, cost), 0).unwrap();
        }
        let snapshot = r.instance();
        let step = r.rebalance(Budget::Cost(3)).unwrap();
        let batch = cost_partition::rebalance(&snapshot, 3).unwrap();
        assert_eq!(step.outcome, batch.outcome);
        assert!(snapshot.move_cost(r.assignment()) <= 3);
    }

    #[test]
    fn depart_after_arrive_is_a_no_op_on_snapshot_and_loads() {
        let mut r = OnlineRebalancer::new(3, BankConfig::default()).unwrap();
        arrive(&mut r, 0, 7, 0);
        arrive(&mut r, 1, 2, 1);
        let before_inst = r.instance();
        let before_loads = r.loads().to_vec();
        arrive(&mut r, 50, 9, 2);
        r.depart(50).unwrap();
        assert_eq!(r.instance(), before_inst);
        assert_eq!(r.loads(), &before_loads[..]);
    }

    #[test]
    fn force_move_and_bill_support_evacuations() {
        let cfg = BankConfig {
            accrual: 0,
            cap: 10,
            initial: 5,
        };
        let mut r = OnlineRebalancer::new(2, cfg).unwrap();
        arrive(&mut r, 0, 6, 0);
        r.force_move(0, 1).unwrap();
        assert_eq!(r.loads(), &[0, 6]);
        assert_eq!(r.proc_of(0), Some(1));
        assert_eq!(r.bill(2), 2);
        assert_eq!(r.bank().balance(), 3);
        assert_eq!(r.bill(100), 3); // clamped to balance
        assert_eq!(r.bank().balance(), 0);
        r.force_move(0, 1).unwrap(); // same-proc move is a no-op
        assert_eq!(r.stats().moves_performed, 1);
    }

    #[test]
    fn commit_rejects_malformed_or_over_budget_assignments() {
        let mut r = OnlineRebalancer::new(2, BankConfig::unlimited()).unwrap();
        arrive(&mut r, 0, 4, 0);
        arrive(&mut r, 1, 4, 0);
        assert!(matches!(
            r.commit_assignment(&[1], Budget::Moves(2)).unwrap_err(),
            Error::AssignmentLength { .. }
        ));
        assert!(matches!(
            r.commit_assignment(&[1, 2], Budget::Moves(2)).unwrap_err(),
            Error::ProcOutOfRange { .. }
        ));
        assert!(matches!(
            r.commit_assignment(&[1, 1], Budget::Moves(1)).unwrap_err(),
            Error::BudgetExceeded { .. }
        ));
        // Rejections leave state untouched.
        assert_eq!(r.assignment(), &[0, 0]);
        assert_eq!(r.loads(), &[8, 0]);
        let commit = r.commit_assignment(&[1, 0], Budget::Moves(1)).unwrap();
        assert_eq!((commit.moves, commit.spent), (1, 1));
        assert_eq!(r.loads(), &[4, 4]);
    }

    #[test]
    fn apply_dispatches_all_event_kinds() {
        let mut r = OnlineRebalancer::new(2, BankConfig::unlimited()).unwrap();
        assert!(r
            .apply(Event::Arrive {
                key: 0,
                job: Job::unit(5),
                proc: 0,
            })
            .unwrap()
            .is_none());
        assert!(r
            .apply(Event::Rebalance {
                budget: Budget::Moves(1),
            })
            .unwrap()
            .is_some());
        assert!(r.apply(Event::Depart { key: 0 }).unwrap().is_none());
        assert_eq!(r.stats().events, 3);
    }

    #[test]
    fn restore_round_trips_live_state_bank_and_stats() {
        let cfg = BankConfig {
            accrual: 2,
            cap: 5,
            initial: 1,
        };
        let mut live = OnlineRebalancer::new(3, cfg).unwrap();
        for (key, size, proc) in [(4u64, 7u64, 0), (1, 3, 1), (9, 5, 0), (2, 2, 2)] {
            live.arrive(key, Job::with_cost(size, size / 2), proc)
                .unwrap();
        }
        live.rebalance(Budget::Moves(2)).unwrap();
        live.depart(1).unwrap();

        let persisted: Vec<(JobKey, Job, ProcId)> = live
            .keys()
            .iter()
            .map(|&k| (k, *live.job(k).unwrap(), live.proc_of(k).unwrap()))
            .collect();
        let bank = live.bank().clone();
        let restored =
            OnlineRebalancer::restore(3, &persisted, bank.clone(), *live.stats()).unwrap();

        assert_eq!(restored.instance(), live.instance());
        assert_eq!(restored.loads(), live.loads());
        assert_eq!(restored.keys(), live.keys());
        assert_eq!(restored.bank(), &bank);
        assert_eq!(restored.stats(), live.stats());

        // The restored rebalancer answers future events exactly like the
        // survivor: same rebalance outcome, same bank trajectory.
        let mut a = live;
        let mut b = restored;
        let sa = a.rebalance(Budget::Moves(3)).unwrap();
        let sb = b.rebalance(Budget::Moves(3)).unwrap();
        assert_eq!(sa.outcome, sb.outcome);
        assert_eq!(sa.effective, sb.effective);
        assert_eq!(a.bank(), b.bank());
    }

    #[test]
    fn from_parts_clamps_balance_to_cap() {
        let bank = MoveBank::from_parts(99, 1, 8, 40, 33);
        assert_eq!(bank.balance(), 8);
        assert_eq!(bank.accrual(), 1);
        assert_eq!(bank.cap(), 8);
        assert_eq!(bank.total_accrued(), 40);
        assert_eq!(bank.total_spent(), 33);
    }

    #[test]
    fn empty_rebalance_is_an_unchanged_outcome() {
        let mut r = OnlineRebalancer::new(3, BankConfig::default()).unwrap();
        let step = r.rebalance(Budget::Moves(5)).unwrap();
        assert_eq!(step.outcome.moves(), 0);
        assert_eq!(step.outcome.makespan(), 0);
        assert_eq!(r.stats().rebalances, 1);
    }

    #[test]
    fn with_policy_movebank_is_bit_identical_to_new() {
        let cfg = BankConfig {
            accrual: 1,
            cap: 3,
            initial: 1,
        };
        let mut a = OnlineRebalancer::new(2, cfg).unwrap();
        let mut b = OnlineRebalancer::with_policy(2, MoveBank::new(cfg)).unwrap();
        for (key, size) in [(0u64, 4u64), (1, 3), (2, 3), (3, 2)] {
            arrive(&mut a, key, size, 0);
            arrive(&mut b, key, size, 0);
            let sa = a.rebalance(Budget::Moves(2)).unwrap();
            let sb = b.rebalance(Budget::Moves(2)).unwrap();
            assert_eq!(sa, sb);
            assert_eq!(a.bank(), b.bank());
            assert_eq!(a.assignment(), b.assignment());
            assert_eq!(a.stats(), b.stats());
        }
    }

    #[test]
    fn movebank_trait_view_is_bit_identical_to_inherent_accessors() {
        // Regression for the refactor hazard: the MigrationPolicy surface
        // over MoveBank must agree with the inherent accessors lrb-serve
        // snapshots persist, and arrivals must stay a strict no-op.
        let mut bank = MoveBank::from_parts(99, 3, 8, 40, 33);
        let p: &mut dyn MigrationPolicy = &mut bank;
        assert_eq!(p.name(), "move-bank");
        assert_eq!(p.balance(), 8); // from_parts clamped to cap
        assert_eq!(p.total_accrued(), 40);
        assert_eq!(p.total_spent(), 33);
        p.on_arrival(1_000);
        assert_eq!((p.balance(), p.total_accrued()), (8, 40));
        p.on_rebalance(); // at cap: zero credited
        assert_eq!((p.balance(), p.total_accrued()), (8, 40));
        p.spend(5);
        assert_eq!((p.balance(), p.total_spent()), (3, 38));
        p.on_rebalance(); // accrual 3 fits under the cap again
        assert_eq!((p.balance(), p.total_accrued()), (6, 43));
        assert_eq!(bank.balance(), 6);
        assert_eq!(bank.total_accrued(), 43);
        assert_eq!(bank.total_spent(), 38);
    }

    #[test]
    fn from_parts_restore_round_trip_is_bit_identical_through_the_trait() {
        let cfg = BankConfig {
            accrual: 2,
            cap: 6,
            initial: 3,
        };
        let mut live = OnlineRebalancer::new(2, cfg).unwrap();
        for (key, size) in [(0u64, 5u64), (1, 4), (2, 3), (3, 2)] {
            arrive(&mut live, key, size, 0);
        }
        live.rebalance(Budget::Moves(2)).unwrap();

        // Persist the bank exactly as lrb-serve snapshots do: field by
        // field through the inherent accessors, rebuilt via from_parts.
        let rebuilt = {
            let b = live.bank();
            MoveBank::from_parts(
                b.balance(),
                b.accrual(),
                b.cap(),
                b.total_accrued(),
                b.total_spent(),
            )
        };
        assert_eq!(&rebuilt, live.bank());
        let persisted: Vec<(JobKey, Job, ProcId)> = live
            .keys()
            .iter()
            .map(|&k| (k, *live.job(k).unwrap(), live.proc_of(k).unwrap()))
            .collect();
        let mut restored =
            OnlineRebalancer::restore(2, &persisted, rebuilt, *live.stats()).unwrap();

        // Both twins answer future events identically through the trait.
        let sa = live.rebalance(Budget::Moves(3)).unwrap();
        let sb = restored.rebalance(Budget::Moves(3)).unwrap();
        assert_eq!(sa, sb);
        assert_eq!(live.bank(), restored.bank());
        assert_eq!(live.assignment(), restored.assignment());
    }

    #[test]
    fn proportional_policy_earns_on_arrivals_not_rebalances() {
        let mut p = ProportionalBank::new(3, 2);
        assert_eq!(p.name(), "proportional");
        assert_eq!(p.beta(), (3, 2));
        p.on_arrival(5); // ⌊15/2⌋ = 7
        p.on_arrival(1); // ⌊3/2⌋ = 1
        assert_eq!((p.balance(), p.total_accrued()), (8, 8));
        p.on_rebalance(); // no rebalance accrual
        assert_eq!(p.balance(), 8);
        p.spend(3);
        assert_eq!((p.balance(), p.total_spent()), (5, 3));

        let mut r = OnlineRebalancer::with_policy(2, ProportionalBank::new(1, 1)).unwrap();
        r.arrive(0, Job::with_cost(4, 4), 0).unwrap();
        r.arrive(1, Job::with_cost(3, 3), 0).unwrap();
        assert_eq!(r.bank().balance(), 7);
        let step = r.rebalance(Budget::Cost(u64::MAX)).unwrap();
        assert_eq!(step.effective, Budget::Cost(7));
        assert_eq!(step.banked_before, 7);
        assert!(r.bank().total_spent() <= r.bank().total_accrued());
    }

    #[test]
    fn zero_beta_denominator_is_treated_as_one() {
        let mut p = ProportionalBank::new(2, 0);
        assert_eq!(p.beta(), (2, 1));
        p.on_arrival(3);
        assert_eq!(p.balance(), 6);
        let speeds = Speeds::unit(2).unwrap();
        let m = MaackBank::new(2, 0, &speeds);
        assert_eq!(m.beta(), (2, 1));
    }

    #[test]
    fn maack_on_equal_speeds_is_bit_identical_to_proportional() {
        let speeds = Speeds::uniform(3, 7).unwrap();
        let mut a = OnlineRebalancer::with_policy(3, ProportionalBank::new(3, 2)).unwrap();
        let mut b = OnlineRebalancer::with_policy(3, MaackBank::new(3, 2, &speeds)).unwrap();
        for (key, size, proc) in [(0u64, 9u64, 0), (1, 5, 0), (2, 7, 1), (3, 1, 2), (4, 4, 0)] {
            a.arrive(key, Job::with_cost(size, size), proc).unwrap();
            b.arrive(key, Job::with_cost(size, size), proc).unwrap();
            let sa = a.rebalance(Budget::Cost(u64::MAX)).unwrap();
            let sb = b.rebalance(Budget::Cost(u64::MAX)).unwrap();
            assert_eq!(sa, sb);
            assert_eq!(a.bank().balance(), b.bank().balance());
            assert_eq!(a.bank().total_accrued(), b.bank().total_accrued());
            assert_eq!(a.bank().total_spent(), b.bank().total_spent());
            assert_eq!(a.assignment(), b.assignment());
            assert_eq!(a.loads(), b.loads());
        }
    }

    #[test]
    fn maack_scales_credit_by_the_speed_spread() {
        let speeds = Speeds::new(vec![1, 2, 4]).unwrap();
        let mut m = MaackBank::new(1, 2, &speeds);
        assert_eq!(m.name(), "maack-uniform");
        assert_eq!(m.speed_spread(), (1, 4));
        m.on_arrival(5); // ⌊5·1·4 / (2·1)⌋ = 10
        assert_eq!(m.balance(), 10);
        m.on_rebalance();
        assert_eq!(m.balance(), 10);
        m.spend(4);
        assert_eq!((m.balance(), m.total_spent()), (6, 4));
    }

    #[test]
    fn policies_never_overspend_their_certificate() {
        fn drive<P: MigrationPolicy>(mut r: OnlineRebalancer<P>, initial: u64) {
            for (key, size, proc) in [(0u64, 6u64, 0), (1, 5, 0), (2, 4, 1), (3, 2, 0)] {
                r.arrive(key, Job::with_cost(size, size), proc).unwrap();
                r.rebalance(Budget::Cost(u64::MAX)).unwrap();
            }
            r.bill(3);
            let b = r.bank();
            assert!(
                b.total_spent() <= initial.saturating_add(b.total_accrued()),
                "{} overspent: spent {} > initial {} + accrued {}",
                b.name(),
                b.total_spent(),
                initial,
                b.total_accrued()
            );
        }
        let cfg = BankConfig::default();
        drive(OnlineRebalancer::new(3, cfg).unwrap(), cfg.initial);
        drive(
            OnlineRebalancer::with_policy(3, ProportionalBank::new(1, 1)).unwrap(),
            0,
        );
        let speeds = Speeds::new(vec![2, 3, 5]).unwrap();
        drive(
            OnlineRebalancer::with_policy(3, MaackBank::new(1, 1, &speeds)).unwrap(),
            0,
        );
    }
}
