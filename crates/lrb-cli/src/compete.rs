//! The `compete` report: online migration policies raced against
//! adversarial arrival streams and scored *exactly* (`COMPETE_1.json`).
//!
//! Each cell of the grid pairs one [`MigrationPolicy`] with one
//! [`Adversary`] and replays the stream epoch by epoch: arrivals are fed
//! to both the policy-driven [`OnlineRebalancer`] and the
//! [`IncrementalOracle`], the policy rebalances under whatever budget its
//! bank grants, and the realized makespan is divided by the oracle's
//! *exact* optimum over the live multiset — so the reported ratios are
//! true realized competitive ratios, not lower-bound-relative estimates.
//!
//! Policies under test:
//!
//! * `move-bank` — the paper's amortized per-epoch move bank
//!   (`Budget::Moves`, unchanged semantics);
//! * `proportional` — the Albers–Hellwig-style migration-factor bank:
//!   every arrival of size `s` earns `⌊β·s⌋` of migration *volume*
//!   (`Budget::Cost`, and adversary jobs carry `cost = size`);
//! * `maack-uniform` — the uniform-machine variant, the proportional
//!   credit scaled by the speed spread `s_max/s_min`. On equal speeds it
//!   is bit-identical to `proportional`; the Maack envelope
//!   `worst ratio ≤ 8/3` on uniform speeds is enforced as a hard error.
//!
//! The exact oracle is exponential in the live job count, so the run is
//! validated to stay within [`MAX_ORACLE_JOBS`] live jobs per cell.

use lrb_core::hetero::{self, Speeds};
use lrb_core::model::Budget;
use lrb_core::online::{
    BankConfig, MaackBank, MigrationPolicy, OnlineRebalancer, ProportionalBank,
};
use lrb_exact::IncrementalOracle;
use lrb_instances::generators::SizeDistribution;
use lrb_obs::{names, Recorder};
use lrb_sim::adversary::{AdaptiveAdversary, Adversary, GreedyPunisher, RandomOrderAdversary};
use serde::{Deserialize, Serialize};

/// Version stamp on every [`CompeteReport`]; bump on breaking changes.
pub const COMPETE_SCHEMA_VERSION: u32 = 1;

/// Ceiling on live jobs per cell: the incremental oracle is exponential.
pub const MAX_ORACLE_JOBS: usize = 20;

/// The Maack uniform-speed envelope, `8/3` as a ratio ×1000 (floored).
pub const MAACK_ENVELOPE_X1000: u64 = 2666;

/// Everything the `compete` run is parameterized by.
#[derive(Debug, Clone)]
pub struct CompeteRunConfig {
    /// Servers everywhere.
    pub procs: usize,
    /// Rebalance epochs per cell.
    pub epochs: usize,
    /// Adversary arrivals between consecutive rebalances.
    pub arrivals_per_epoch: usize,
    /// Largest job size the stochastic adversaries may draw.
    pub max_size: u64,
    /// Per-processor speeds (length `procs`); the Maack policy and its
    /// oracle both honor them, the identical-machine policies ignore them.
    pub speeds: Vec<u64>,
    /// Master seed.
    pub seed: u64,
}

/// One policy × adversary cell of the grid.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct CompeteCell {
    /// Policy name ([`MigrationPolicy::name`]).
    pub policy: String,
    /// Adversary name ([`Adversary::name`]).
    pub adversary: String,
    /// Epochs whose post-rebalance ratio was scored (`OPT > 0`).
    pub epochs_scored: usize,
    /// Worst post-rebalance `1000·makespan/OPT` across epochs.
    pub worst_ratio_x1000: u64,
    /// Mean post-rebalance `1000·makespan/OPT` across scored epochs.
    pub mean_ratio_x1000: u64,
    /// Σ jobs migrated across all rebalances.
    pub total_moves: u64,
    /// Σ migration cost (= volume, since arrivals carry `cost = size`).
    pub total_migration_cost: u64,
    /// Makespan after the final rebalance (speed-scaled for Maack).
    pub final_makespan: u64,
    /// Exact optimum of the final live multiset.
    pub final_opt: u64,
    /// Units spent beyond the bank's certificate (always 0).
    pub certificate_overspend: u64,
}

/// The full `COMPETE_1.json` document.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct CompeteReport {
    /// Schema version ([`COMPETE_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Servers.
    pub procs: usize,
    /// Epochs per cell.
    pub epochs: usize,
    /// Arrivals per epoch.
    pub arrivals_per_epoch: usize,
    /// Largest adversary job size.
    pub max_size: u64,
    /// Master seed.
    pub seed: u64,
    /// The speed vector the Maack cells ran with.
    pub speeds: Vec<u64>,
    /// One cell per policy × adversary pair, policies outermost.
    pub grid: Vec<CompeteCell>,
}

/// The migration-factor β used by the factor policies: `β = 1`, i.e. one
/// unit of migration volume earned per unit of arrived size.
pub const BETA: (u64, u64) = (1, 1);

const ADVERSARIES: [&str; 3] = ["random-order", "greedy-punisher", "adaptive"];

fn make_adversary(kind: &str, cfg: &CompeteRunConfig) -> Box<dyn Adversary> {
    let total = cfg.epochs.saturating_mul(cfg.arrivals_per_epoch);
    match kind {
        "random-order" => Box::new(RandomOrderAdversary::new(
            cfg.procs,
            total,
            SizeDistribution::Uniform {
                lo: 1,
                hi: cfg.max_size.max(1),
            },
            cfg.seed,
        )),
        "greedy-punisher" => Box::new(GreedyPunisher::new(cfg.procs, 2)),
        _ => Box::new(AdaptiveAdversary::new(total, cfg.max_size.max(1))),
    }
}

/// Drive one policy against one adversary for `cfg.epochs` epochs,
/// scoring every post-rebalance makespan against the exact incremental
/// oracle. `speeds = Some(..)` scores with the speed-scaled makespan and
/// the speed-aware oracle (the Maack cells); `None` scores identical
/// machines.
fn run_cell<P: MigrationPolicy, R: Recorder + Sync>(
    mut rebalancer: OnlineRebalancer<P>,
    initial_grant: u64,
    requested: Budget,
    adversary: &mut dyn Adversary,
    speeds: Option<&Speeds>,
    cfg: &CompeteRunConfig,
    rec: &R,
) -> Result<CompeteCell, String> {
    let mut oracle = match speeds {
        Some(s) => IncrementalOracle::with_speeds(s.clone()),
        None => IncrementalOracle::new(cfg.procs),
    };
    let policy = rebalancer.bank().name().to_string();
    let mut worst = 0u64;
    let mut ratio_sum = 0u128;
    let mut scored = 0usize;
    let mut total_moves = 0u64;
    let mut total_cost = 0u64;
    let mut final_makespan = 0u64;
    let mut final_opt = 0u64;

    for _ in 0..cfg.epochs {
        for _ in 0..cfg.arrivals_per_epoch {
            let Some(event) = adversary.next(rebalancer.loads()) else {
                break;
            };
            let lrb_core::online::Event::Arrive { key, job, proc } = event else {
                break;
            };
            oracle.arrive(job.size);
            rebalancer
                .arrive(key, job, proc)
                .map_err(|e| format!("{policy}/{}: arrive: {e}", adversary.name()))?;
        }
        if oracle.len() > MAX_ORACLE_JOBS {
            return Err(format!(
                "{policy}/{}: {} live jobs exceed the oracle ceiling of {MAX_ORACLE_JOBS}",
                adversary.name(),
                oracle.len()
            ));
        }
        let step = rebalancer
            .rebalance(requested)
            .map_err(|e| format!("{policy}/{}: rebalance: {e}", adversary.name()))?;
        total_moves = total_moves.saturating_add(step.outcome.moves() as u64);
        total_cost = total_cost.saturating_add(step.outcome.cost());
        rec.incr(names::COMPETE_MOVES, step.outcome.moves() as u64);

        let opt = oracle.opt();
        rec.incr(names::COMPETE_ORACLE_SOLVES, 1);
        let realized = match speeds {
            Some(s) => hetero::scaled_makespan_of(rebalancer.loads(), s),
            None => rebalancer.makespan(),
        };
        final_makespan = realized;
        final_opt = opt;
        if opt > 0 {
            let ratio = (u128::from(realized) * 1000 / u128::from(opt)) as u64;
            worst = worst.max(ratio);
            ratio_sum += u128::from(ratio);
            scored += 1;
            rec.observe(names::COMPETE_RATIO, ratio);
        }
    }
    rec.incr(names::COMPETE_EPOCHS, cfg.epochs as u64);
    rec.incr(names::COMPETE_CELLS, 1);

    let bank = rebalancer.bank();
    let certificate = initial_grant.saturating_add(bank.total_accrued());
    Ok(CompeteCell {
        policy,
        adversary: adversary.name().to_string(),
        epochs_scored: scored,
        worst_ratio_x1000: worst,
        mean_ratio_x1000: if scored == 0 {
            0
        } else {
            (ratio_sum / scored as u128) as u64
        },
        total_moves,
        total_migration_cost: total_cost,
        final_makespan,
        final_opt,
        certificate_overspend: bank.total_spent().saturating_sub(certificate),
    })
}

/// Run the full policy × adversary grid and assemble the report.
/// Deterministic in `cfg`. Fails loudly if any cell overspends its
/// certificate, or if the Maack cells break the `8/3` envelope on
/// uniform speeds.
pub fn run<R: Recorder + Sync>(cfg: &CompeteRunConfig, rec: &R) -> Result<CompeteReport, String> {
    let speeds = Speeds::new(cfg.speeds.clone()).map_err(|e| format!("--speeds: {e}"))?;
    if speeds.len() != cfg.procs {
        return Err(format!(
            "--speeds has {} entries, expected {}",
            speeds.len(),
            cfg.procs
        ));
    }
    let live = cfg.epochs.saturating_mul(cfg.arrivals_per_epoch);
    if live > MAX_ORACLE_JOBS {
        return Err(format!(
            "epochs x arrivals = {live} live jobs exceeds the exact-oracle ceiling \
             of {MAX_ORACLE_JOBS}; lower --epochs or --arrivals"
        ));
    }

    // The move bank matches the online simulator's default pacing: a
    // small starting grant plus per-epoch accrual.
    let bank = BankConfig {
        accrual: 2,
        cap: 8,
        initial: 2,
    };
    let (beta_num, beta_den) = BETA;

    let mut grid = Vec::with_capacity(3 * ADVERSARIES.len());
    for adv_kind in ADVERSARIES {
        let mut adv = make_adversary(adv_kind, cfg);
        grid.push(run_cell(
            OnlineRebalancer::new(cfg.procs, bank).map_err(|e| e.to_string())?,
            bank.initial,
            Budget::Moves(usize::MAX),
            adv.as_mut(),
            None,
            cfg,
            rec,
        )?);
    }
    for adv_kind in ADVERSARIES {
        let mut adv = make_adversary(adv_kind, cfg);
        grid.push(run_cell(
            OnlineRebalancer::with_policy(cfg.procs, ProportionalBank::new(beta_num, beta_den))
                .map_err(|e| e.to_string())?,
            0,
            Budget::Cost(u64::MAX),
            adv.as_mut(),
            None,
            cfg,
            rec,
        )?);
    }
    for adv_kind in ADVERSARIES {
        let mut adv = make_adversary(adv_kind, cfg);
        grid.push(run_cell(
            OnlineRebalancer::with_policy(cfg.procs, MaackBank::new(beta_num, beta_den, &speeds))
                .map_err(|e| e.to_string())?,
            0,
            Budget::Cost(u64::MAX),
            adv.as_mut(),
            Some(&speeds),
            cfg,
            rec,
        )?);
    }

    for cell in &grid {
        if cell.certificate_overspend != 0 {
            return Err(format!(
                "{}/{}: overspent its migration certificate by {}",
                cell.policy, cell.adversary, cell.certificate_overspend
            ));
        }
    }
    let uniform = cfg.speeds.windows(2).all(|w| w[0] == w[1]);
    if uniform {
        for cell in grid.iter().filter(|c| c.policy == "maack-uniform") {
            if cell.worst_ratio_x1000 > MAACK_ENVELOPE_X1000 {
                return Err(format!(
                    "maack-uniform/{}: worst ratio {} x1000 breaks the 8/3 envelope \
                     on uniform speeds",
                    cell.adversary, cell.worst_ratio_x1000
                ));
            }
        }
    }

    Ok(CompeteReport {
        schema_version: COMPETE_SCHEMA_VERSION,
        procs: cfg.procs,
        epochs: cfg.epochs,
        arrivals_per_epoch: cfg.arrivals_per_epoch,
        max_size: cfg.max_size,
        seed: cfg.seed,
        speeds: cfg.speeds.clone(),
        grid,
    })
}
