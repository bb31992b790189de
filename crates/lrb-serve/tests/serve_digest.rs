//! Pins the daemon's answers on seeded event streams.
//!
//! Each stream holds 80 logged events for 4 tenants on 3 processors:
//! arrivals, departures, and rebalances under move or cost budgets, each
//! rebalance with a logged work limit of 1, 60, 600 or unlimited. Streams
//! are applied through `ServeState::apply_events` in seeded chunks of 1–8
//! events, so a chunk can hold several rebalances in a row.
//!
//! The digest folds, for every event, the outcome kind, and for a
//! rebalance its moves, makespan and degraded flag; after every chunk,
//! every tenant digest; at the end, `applied` and `counters.degraded`.
//! Tier names are provenance, not answers, and stay out of the digest: the
//! tiers of work-limited rebalances are pinned as a tally of their own.

use std::collections::BTreeMap;

use lrb_serve::wal::LoggedEvent;
use lrb_serve::wire::BudgetSpec;
use lrb_serve::{ApplyOutcome, ServeConfig, ServeState};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const STREAMS: u64 = 1_200;
const EVENTS: usize = 80;
const TENANTS: usize = 4;
const PROCS: usize = 3;
const MAX_CHUNK: usize = 8;
/// Logged work limits, unlimited weighted three times.
const WORK_LIMITS: [u64; 6] = [1, 60, 600, u64::MAX, u64::MAX, u64::MAX];

/// Recorded while runs of full-work rebalances were still solved together
/// as one `StreamEngine` epoch.
const PINNED_DIGEST: u64 = 10_899_480_348_462_010_490;
/// Tiers of the work-limited rebalances, recorded with the digest.
const PINNED_LIMITED_TIERS: [(&str, u64); 4] = [
    ("empty", 1_329),
    ("greedy", 893),
    ("m-partition", 11_237),
    ("no-move", 4_856),
];

/// Tiers of the full-work rebalances: every one with jobs answers from the
/// chain's first tier, as many as the engine answered before.
const FULL_WORK_TIERS: [(&str, u64); 2] = [("empty", 1_260), ("m-partition", 16_911)];

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over the little-endian bytes of `word`.
fn fold(hash: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// A seeded stream whose every event applies: departures name live keys,
/// and rebalances name tenants that already have a farm.
fn stream(seed: u64) -> Vec<LoggedEvent> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut live: Vec<Vec<u64>> = vec![Vec::new(); TENANTS];
    let mut exists = [false; TENANTS];
    let mut next_key = 0u64;
    let mut events = Vec::with_capacity(EVENTS);
    while events.len() < EVENTS {
        let t = rng.gen_range(0..TENANTS);
        let tenant = t as u64;
        let roll = rng.gen_range(0..10);
        let ev = if roll >= 6 && exists[t] {
            let budget = if rng.gen_bool(0.5) {
                BudgetSpec::Moves(rng.gen_range(0..=4))
            } else {
                BudgetSpec::Cost(rng.gen_range(0..=12))
            };
            LoggedEvent::Rebalance {
                tenant,
                budget,
                work_limit: WORK_LIMITS[rng.gen_range(0..WORK_LIMITS.len())],
            }
        } else if roll >= 4 && !live[t].is_empty() {
            let at = rng.gen_range(0..live[t].len());
            let key = live[t].swap_remove(at);
            LoggedEvent::Depart { tenant, key }
        } else {
            next_key += 1;
            live[t].push(next_key);
            exists[t] = true;
            LoggedEvent::Arrive {
                tenant,
                key: next_key,
                size: rng.gen_range(1..=40),
                cost: rng.gen_range(0..=6),
                proc: rng.gen_range(0..PROCS as u64),
            }
        };
        events.push(ev);
    }
    events
}

/// What every stream folded into: the digest, and the answering tiers of
/// rebalances with a limited and with an unlimited logged work limit.
struct Answers {
    digest: u64,
    limited_tiers: BTreeMap<&'static str, u64>,
    unlimited_tiers: BTreeMap<&'static str, u64>,
}

fn answers() -> Answers {
    let cfg = ServeConfig {
        procs: PROCS,
        ..ServeConfig::default()
    };
    let mut out = Answers {
        digest: FNV_OFFSET,
        limited_tiers: BTreeMap::new(),
        unlimited_tiers: BTreeMap::new(),
    };
    for seed in 0..STREAMS {
        let events = stream(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_c4a1);
        let mut state = ServeState::new(cfg);
        let hash = &mut out.digest;
        let mut at = 0;
        while at < events.len() {
            let end = (at + rng.gen_range(1..=MAX_CHUNK)).min(events.len());
            let chunk = &events[at..end];
            let outcomes = state.apply_events(chunk);
            assert_eq!(outcomes.len(), chunk.len());
            for (ev, outcome) in chunk.iter().zip(outcomes) {
                match outcome {
                    ApplyOutcome::Applied => fold(hash, 0),
                    ApplyOutcome::Rebalanced {
                        moves,
                        makespan,
                        degraded,
                        tier,
                    } => {
                        fold(hash, 1);
                        fold(hash, moves);
                        fold(hash, makespan);
                        fold(hash, u64::from(degraded));
                        let tiers = match *ev {
                            LoggedEvent::Rebalance {
                                work_limit: u64::MAX,
                                ..
                            } => &mut out.unlimited_tiers,
                            _ => &mut out.limited_tiers,
                        };
                        *tiers.entry(tier).or_insert(0) += 1;
                    }
                    ApplyOutcome::Failed { detail } => {
                        panic!("stream {seed}: {ev:?} failed: {detail}")
                    }
                }
            }
            for (tenant, digest) in state.digests() {
                fold(hash, tenant);
                fold(hash, digest);
            }
            at = end;
        }
        fold(hash, state.applied());
        fold(hash, state.counters.degraded);
    }
    out
}

#[test]
fn answers_match_the_recorded_digest() {
    assert_eq!(answers().digest, PINNED_DIGEST, "daemon answers drifted");
}

#[test]
fn work_limited_rebalances_keep_their_tiers() {
    let got = answers();
    let pinned: BTreeMap<&str, u64> = PINNED_LIMITED_TIERS.into_iter().collect();
    assert_eq!(got.limited_tiers, pinned);
}

#[test]
fn full_work_rebalances_answer_from_m_partition() {
    let got = answers();
    let expected: BTreeMap<&str, u64> = FULL_WORK_TIERS.into_iter().collect();
    assert_eq!(got.unlimited_tiers, expected);
}
