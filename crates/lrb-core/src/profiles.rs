//! Per-processor size profiles and the discrete threshold set of §3.1.
//!
//! For a makespan guess `T`, the paper classifies a job as **large** when its
//! size is strictly greater than `T/2`. In integers that is `size > ⌊T/2⌋`,
//! which is how every comparison here is written, so no doubled value can
//! overflow. Sorting each processor's jobs in ascending size order makes the
//! small jobs a *prefix* of the list for every `T`, so all the quantities
//! PARTITION needs are prefix-sum lookups:
//!
//! * `a_i(T)` — the minimum number of small jobs to remove so the remaining
//!   small jobs total at most `T/2`;
//! * `b_i(T)` — the minimum number of removals (counting a mandatory large
//!   job removal) after which the processor is **large-free** with total
//!   load at most `T`;
//! * `L_T`, `m_L`, `L_E` — the global large-job counts of Definition 1;
//!   `L_T` sums the jobs past each processor's small prefix.
//!
//! `b_i` here is the "forced large removal" variant: the paper defines `b_i`
//! without forcing the large job out when the load already fits, and then
//! relies on tie-breaking to ensure such processors are selected. Forcing
//! the removal gives the *exact* minimum cost of the requirement a
//! non-selected processor must meet in a half-optimal configuration
//! (load ≤ T and large-free), so the Lemma 3 lower-bound argument holds
//! verbatim and no fragile tie-break reasoning is needed. See DESIGN.md §5.
//!
//! Lemma 5: all of `L_T`, `a_i`, `b_i` change only when `T` crosses one of
//! the discrete [`candidates`](Profiles::candidates): doubled job sizes
//! (large/small flips), per-processor ascending prefix sums (`b_i` steps),
//! and doubled prefix sums (`a_i` steps). Doubled values and prefix sums
//! saturate at `u64::MAX`, as instance loads do.
//!
//! Cost model (DESIGN.md §9). [`Profiles::rebuild`] sorts each processor's
//! contiguous `(size, id)` keys, which are distinct, so the unstable sort
//! yields the `(size, id)` order without looking sizes up per comparison.
//! `L_T` and the doubled sizes come from these per-processor lists; no
//! global size order is needed. Every per-processor quantity comes from one
//! routine, `Profiles::counts`: one search for the small prefix, then the
//! `a_i` and `b_i` cut points inside it, and no search at all when the
//! whole processor fits in `T/2`. `Profiles::candidates_from` builds only
//! the part of the ladder a search starting at a given guess reads.

use crate::model::{Instance, JobId, ProcId, Size};

/// Size profile of one processor: its jobs in ascending size order plus
/// prefix sums.
#[derive(Debug, Clone, Default)]
pub struct ProcProfile {
    /// Job ids on this processor, ascending by size (ties by id).
    pub jobs_asc: Vec<JobId>,
    /// `prefix[l]` = total size of the `l` smallest jobs (saturating);
    /// `prefix[0] = 0`.
    pub prefix: Vec<Size>,
    /// Sizes of `jobs_asc`, in the same order.
    pub(crate) sizes: Vec<Size>,
}

impl ProcProfile {
    /// Number of jobs on the processor.
    pub fn len(&self) -> usize {
        self.jobs_asc.len()
    }

    /// True if the processor starts empty.
    pub fn is_empty(&self) -> bool {
        self.jobs_asc.is_empty()
    }

    /// Total initial load.
    pub fn load(&self) -> Size {
        *self.prefix.last().unwrap_or(&0)
    }
}

/// One processor's PARTITION quantities at one guess, from
/// [`Profiles::counts`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ProcCounts {
    /// Length of the small prefix of the ascending job list.
    pub small: usize,
    /// `a_i`: largest-first small removals until the smalls fit in `t/2`.
    pub a: usize,
    /// `b_i`: the kept large job, if any, plus largest-first small removals
    /// until the smalls fit in `t`.
    pub b: usize,
    /// Number of large jobs: the jobs past the small prefix.
    pub large: usize,
}

impl ProcCounts {
    /// `c_i = a_i − b_i`.
    pub fn c(&self) -> i64 {
        (self.a as i64).saturating_sub(self.b as i64)
    }

    /// Whether the processor holds a large job.
    pub fn has_large(&self) -> bool {
        self.large > 0
    }
}

/// Precomputed profiles for a whole instance, supporting `O(log n)` queries
/// of every PARTITION quantity at any makespan guess.
#[derive(Debug, Clone, Default)]
pub struct Profiles {
    per_proc: Vec<ProcProfile>,
    /// Sort buffer of one processor's `(size, id)` keys.
    keys: Vec<(Size, JobId)>,
}

impl Profiles {
    /// Build profiles for an instance (`O(n log n)`).
    pub fn new(inst: &Instance) -> Self {
        let mut profiles = Profiles::default();
        profiles.rebuild(inst);
        profiles
    }

    /// Rebuild the profiles for `inst` in place, reusing this value's
    /// buffers (see [`crate::scratch::Scratch`]). Equivalent to
    /// [`Profiles::new`] but allocation-free once the buffers have grown to
    /// the instance shape.
    pub fn rebuild(&mut self, inst: &Instance) {
        let m = inst.num_procs();
        self.per_proc.truncate(m);
        self.per_proc.resize_with(m, ProcProfile::default);
        for prof in &mut self.per_proc {
            prof.jobs_asc.clear();
        }
        for (j, &p) in inst.initial().iter().enumerate() {
            self.per_proc[p].jobs_asc.push(j);
        }
        let keys = &mut self.keys;
        for prof in &mut self.per_proc {
            keys.clear();
            keys.extend(prof.jobs_asc.iter().map(|&j| (inst.size(j), j)));
            keys.sort_unstable();
            prof.jobs_asc.clear();
            prof.sizes.clear();
            prof.prefix.clear();
            prof.prefix.push(0);
            let mut acc: Size = 0;
            for &(size, j) in keys.iter() {
                acc = acc.saturating_add(size);
                prof.jobs_asc.push(j);
                prof.sizes.push(size);
                prof.prefix.push(acc);
            }
        }
    }

    /// Profile of processor `p`.
    pub fn proc(&self, p: ProcId) -> &ProcProfile {
        &self.per_proc[p]
    }

    /// Number of processors.
    pub fn num_procs(&self) -> usize {
        self.per_proc.len()
    }

    /// Global number of large jobs `L_T` at guess `t`: the jobs past every
    /// processor's small prefix.
    pub fn l_t(&self, t: Size) -> usize {
        (0..self.per_proc.len())
            .map(|p| self.counts(p, t).large)
            .sum()
    }

    /// Every PARTITION quantity of processor `p` at guess `t`: one binary
    /// search for the small prefix, then the `a_i` and `b_i` cut points
    /// inside it. A processor whose whole load fits in `t/2` holds only
    /// small jobs and needs no removal, which takes no search.
    pub(crate) fn counts(&self, p: ProcId, t: Size) -> ProcCounts {
        let prof = &self.per_proc[p];
        let half = t / 2;
        if prof.load() <= half {
            return ProcCounts {
                small: prof.len(),
                a: 0,
                b: 0,
                large: 0,
            };
        }
        let small = prof.sizes.partition_point(|&s| s <= half);
        // Prefix sums ascend: keep the longest small prefix within t/2 for
        // `a_i` and within t for `b_i`; prefix[0] = 0 always qualifies.
        let smalls = &prof.prefix[..=small];
        let keep_a = smalls.partition_point(|&s| s <= half).saturating_sub(1);
        let keep_b = smalls[keep_a..]
            .partition_point(|&s| s <= t)
            .saturating_sub(1)
            .saturating_add(keep_a);
        let large = prof.len().saturating_sub(small);
        ProcCounts {
            small,
            a: small.saturating_sub(keep_a),
            b: small
                .saturating_sub(keep_b)
                .saturating_add(usize::from(large > 0)),
            large,
        }
    }

    /// Number of small jobs on processor `p` at guess `t` (they form a
    /// prefix of the ascending job list).
    pub fn small_count(&self, p: ProcId, t: Size) -> usize {
        self.counts(p, t).small
    }

    /// `a_i(t)`: minimum number of small jobs to remove from `p` so the
    /// remaining small jobs total at most `t/2`. Removing largest-first is
    /// optimal for minimizing the count, and the smalls are a prefix, so
    /// this is `small_count − max{l : prefix[l] ≤ t/2}`.
    pub fn a(&self, p: ProcId, t: Size) -> usize {
        self.counts(p, t).a
    }

    /// `b_i(t)` in the forced variant: number of removals after which
    /// processor `p` (in its post-Step-1 state, i.e. at most one large job)
    /// is large-free with total load at most `t`. One removal for the kept
    /// large job if any, plus largest-first small removals until the small
    /// total is at most `t`.
    pub fn b(&self, p: ProcId, t: Size) -> usize {
        self.counts(p, t).b
    }

    /// `c_i(t) = a_i(t) − b_i(t)` (can be −1 for processors with a large
    /// job).
    pub fn c(&self, p: ProcId, t: Size) -> i64 {
        self.counts(p, t).c()
    }

    /// True if processor `p` holds at least one large job at guess `t`.
    pub fn has_large(&self, p: ProcId, t: Size) -> bool {
        self.counts(p, t).has_large()
    }

    /// Number of processors with at least one large job (`m_L`).
    pub fn m_l(&self, t: Size) -> usize {
        (0..self.per_proc.len())
            .filter(|&p| self.has_large(p, t))
            .count()
    }

    /// Sorted, deduplicated candidate thresholds (Lemma 5): between two
    /// consecutive values every `L_T`, `a_i`, `b_i` is constant. Contains
    /// `2·p_j` for every job and `B_l`, `2·B_l` for every per-processor
    /// ascending prefix sum.
    pub fn candidates(&self) -> Vec<Size> {
        let mut cands = Vec::new();
        self.candidates_into(&mut cands);
        cands
    }

    /// [`Profiles::candidates`] into a caller-owned buffer (cleared first),
    /// so batch solvers reuse the allocation across instances.
    pub fn candidates_into(&self, out: &mut Vec<Size>) {
        self.candidates_from(0, out);
    }

    /// The candidates a search starting at guess `lo` reads, into `out`:
    /// every candidate `≥ lo` plus the largest one below `lo`, sorted and
    /// deduplicated. That is `candidates()[start..]` with `start` the index
    /// of the last candidate below `lo` (or 0), built without sorting the
    /// values under it.
    pub(crate) fn candidates_from(&self, lo: Size, out: &mut Vec<Size>) {
        out.clear();
        let mut below: Option<Size> = None;
        let mut push = |v: Size| {
            if v >= lo {
                out.push(v);
            } else {
                below = below.max(Some(v));
            }
        };
        for prof in &self.per_proc {
            for (&size, &b) in prof.sizes.iter().zip(&prof.prefix[1..]) {
                push(size.saturating_mul(2));
                push(b);
                push(b.saturating_mul(2));
            }
        }
        out.extend(below);
        out.sort_unstable();
        out.dedup();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// proc 0: sizes `[2, 3, 7]`; proc 1: sizes `[4]`.
    fn inst() -> Instance {
        Instance::from_sizes(&[7, 2, 3, 4], vec![0, 0, 0, 1], 2).unwrap()
    }

    #[test]
    fn profiles_sorted_with_prefix_sums() {
        let p = Profiles::new(&inst());
        assert_eq!(p.proc(0).prefix, vec![0, 2, 5, 12]);
        assert_eq!(p.proc(1).prefix, vec![0, 4]);
        assert_eq!(p.proc(0).load(), 12);
    }

    #[test]
    fn large_job_counts() {
        let p = Profiles::new(&inst());
        // t=6: large iff 2s > 6 <=> s > 3: sizes 7 and 4 are large.
        assert_eq!(p.l_t(6), 2);
        // t=8: large iff s > 4: only 7.
        assert_eq!(p.l_t(8), 1);
        // t=14: none large (2*7=14 <= 14).
        assert_eq!(p.l_t(14), 0);
        assert_eq!(p.m_l(6), 2);
        assert_eq!(p.m_l(8), 1);
        assert!(p.has_large(0, 8));
        assert!(!p.has_large(1, 8));
    }

    #[test]
    fn small_counts_are_prefixes() {
        let p = Profiles::new(&inst());
        // proc0 ascending sizes [2,3,7]; t=6 -> smalls {2,3}.
        assert_eq!(p.small_count(0, 6), 2);
        assert_eq!(p.small_count(0, 14), 3);
        assert_eq!(p.small_count(1, 8), 1);
    }

    #[test]
    fn small_count_boundary_is_strict() {
        let p = Profiles::new(&inst());
        // size s is small iff 2s <= t. At t = 4, size 2 is small (4<=4),
        // size 3 is large (6>4).
        assert_eq!(p.small_count(0, 4), 1);
        // At t = 3, size 2 is large (4 > 3).
        assert_eq!(p.small_count(0, 3), 0);
    }

    #[test]
    fn a_counts_small_removals_to_half() {
        let p = Profiles::new(&inst());
        // t=10: smalls on proc0 = {2,3} (7 is large), small total 5 <= 5 = t/2: a=0.
        assert_eq!(p.a(0, 10), 0);
        // t=8: smalls {2,3} total 5 > 4; removing 3 leaves 2 <= 4: a=1.
        assert_eq!(p.a(0, 8), 1);
        // t=14: smalls {2,3,7} total 12 > 7; remove 7 -> 5 <= 7: a=1.
        assert_eq!(p.a(0, 14), 1);
    }

    #[test]
    fn b_forces_large_removal() {
        let p = Profiles::new(&inst());
        // t=8: proc0 has large 7 (forced removal) + smalls {2,3} total 5 <= 8: b=1.
        assert_eq!(p.b(0, 8), 1);
        // t=4: smalls {2}, larges {3,7}: post-Step-1 one large kept -> forced 1;
        // small total 2 <= 4: b=1.
        assert_eq!(p.b(0, 4), 1);
        // t=14: no larges; total 12 <= 14: b=0.
        assert_eq!(p.b(0, 14), 0);
        // proc1 t=8: large 4? 2*4=8 <= 8 -> small. total 4 <= 8: b=0.
        assert_eq!(p.b(1, 8), 0);
    }

    #[test]
    fn c_can_be_negative_only_with_large() {
        let p = Profiles::new(&inst());
        // t=10: a(0)=0, b(0)=1 -> c=-1.
        assert_eq!(p.c(0, 10), -1);
        // Large-free processors have a >= b so c >= 0.
        assert!(p.c(1, 10) >= 0);
    }

    #[test]
    fn candidates_cover_changes() {
        let p = Profiles::new(&inst());
        let cands = p.candidates();
        // Sorted and deduped.
        assert!(cands.windows(2).all(|w| w[0] < w[1]));
        // Contains doubled sizes and prefix sums.
        for v in [4, 6, 8, 14, 2, 5, 12, 10, 24] {
            assert!(cands.contains(&v), "missing {v}");
        }
        // Every quantity is constant between consecutive candidates: probe
        // midpoints (here: integer t between candidates) and endpoints.
        for w in cands.windows(2) {
            let (lo, hi) = (w[0], w[1]);
            if hi - lo >= 2 {
                let mid = lo + 1;
                assert_eq!(p.l_t(lo), p.l_t(mid), "L_T changed inside ({lo},{hi})");
                for proc in 0..2 {
                    assert_eq!(
                        p.a(proc, lo),
                        p.a(proc, mid),
                        "a changed inside ({lo},{hi})"
                    );
                    assert_eq!(
                        p.b(proc, lo),
                        p.b(proc, mid),
                        "b changed inside ({lo},{hi})"
                    );
                }
            }
        }
    }

    #[test]
    fn largest_candidate_needs_no_moves() {
        let p = Profiles::new(&inst());
        let t = *p.candidates().last().unwrap();
        assert_eq!(p.l_t(t), 0);
        for proc in 0..2 {
            assert_eq!(p.a(proc, t), 0);
            assert_eq!(p.b(proc, t), 0);
        }
    }

    #[test]
    fn rebuild_reuses_buffers_and_matches_fresh_construction() {
        let mut p = Profiles::default();
        let a = inst();
        // A different placement of the same size multiset, then a different
        // multiset entirely; each rebuild must match a fresh build.
        let b = Instance::from_sizes(&[7, 2, 3, 4], vec![1, 1, 0, 0], 2).unwrap();
        let c = Instance::from_sizes(&[5, 5], vec![0, 1], 3).unwrap();
        for inst in [&a, &b, &c] {
            p.rebuild(inst);
            let fresh = Profiles::new(inst);
            assert_eq!(p.candidates(), fresh.candidates());
            for proc in 0..inst.num_procs() {
                assert_eq!(p.proc(proc).jobs_asc, fresh.proc(proc).jobs_asc);
                assert_eq!(p.proc(proc).prefix, fresh.proc(proc).prefix);
            }
            for t in [0u64, 3, 7, 10, 24] {
                assert_eq!(p.l_t(t), fresh.l_t(t), "t={t}");
            }
        }
    }

    /// Brute-force `(small, a, b, large)` of processor `p` at guess `t`
    /// from the definitions: largest-first small removals until the smalls
    /// fit in `t/2` (for `a`) or `t` (for `b`, plus one for a large job).
    /// Sums saturate, as instance loads do.
    fn brute_counts(inst: &Instance, p: ProcId, t: Size) -> ProcCounts {
        let on_p = || (0..inst.num_jobs()).filter(move |&j| inst.initial_proc(j) == p);
        let mut smalls: Vec<Size> = on_p()
            .map(|j| inst.size(j))
            .filter(|&s| 2 * u128::from(s) <= u128::from(t))
            .collect();
        smalls.sort_unstable();
        let large = on_p().count() - smalls.len();
        let removals = |cap: Size| {
            (0..=smalls.len())
                .find(|&r| {
                    let kept = &smalls[..smalls.len() - r];
                    kept.iter().fold(0, |acc: Size, &s| acc.saturating_add(s)) <= cap
                })
                .unwrap()
        };
        ProcCounts {
            small: smalls.len(),
            a: removals(t / 2),
            b: removals(t) + usize::from(large > 0),
            large,
        }
    }

    fn random_instance(rng: &mut rand::rngs::StdRng) -> Instance {
        use rand::Rng;
        let n = rng.gen_range(0..=14);
        let m = rng.gen_range(1..=4);
        let hi = [1u64, 3, 8, 60][rng.gen_range(0..4usize)];
        let sizes: Vec<u64> = (0..n).map(|_| rng.gen_range(0..=hi)).collect();
        let initial: Vec<usize> = (0..n).map(|_| rng.gen_range(0..m)).collect();
        Instance::from_sizes(&sizes, initial, m).unwrap()
    }

    #[test]
    fn counts_match_the_definitions_on_and_between_candidates() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(53);
        for _ in 0..300 {
            let inst = random_instance(&mut rng);
            let p = Profiles::new(&inst);
            let mut guesses: Vec<Size> = vec![0, 1, rng.gen_range(0..=400), Size::MAX];
            for c in p.candidates() {
                guesses.extend([c.saturating_sub(1), c, c.saturating_add(1)]);
            }
            for t in guesses {
                let large = inst
                    .jobs()
                    .iter()
                    .filter(|j| 2 * u128::from(j.size) > u128::from(t));
                assert_eq!(p.l_t(t), large.count(), "t={t} {inst:?}");
                for proc in 0..inst.num_procs() {
                    let counts = p.counts(proc, t);
                    assert_eq!(
                        counts,
                        brute_counts(&inst, proc, t),
                        "p={proc} t={t} {inst:?}"
                    );
                    assert_eq!(p.small_count(proc, t), counts.small);
                    assert_eq!(p.c(proc, t), counts.a as i64 - counts.b as i64);
                }
            }
        }
    }

    #[test]
    fn windowed_ladder_is_the_tail_of_the_full_ladder() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(59);
        let mut window = Vec::new();
        for _ in 0..300 {
            let inst = random_instance(&mut rng);
            let p = Profiles::new(&inst);
            let full = p.candidates();
            // 0, below the smallest candidate, on and between candidates,
            // and above the largest.
            let mut starts: Vec<Size> = vec![0, rng.gen_range(0..=300), Size::MAX];
            for &c in &full {
                starts.extend([c.saturating_sub(1), c, c.saturating_add(1)]);
            }
            for lo in starts {
                let start = full.partition_point(|&t| t < lo).saturating_sub(1);
                p.candidates_from(lo, &mut window);
                assert_eq!(window, full[start..], "lo={lo} {inst:?}");
            }
        }
    }

    #[test]
    fn huge_sizes_saturate_the_ladder_and_prefix_sums() {
        // Sizes whose doubles, and whose per-processor sum, overflow u64.
        let half = u64::MAX / 2;
        let inst = Instance::from_sizes(&[half, half, 5, 1 << 63], vec![0, 0, 0, 1], 2).unwrap();
        let p = Profiles::new(&inst);
        assert_eq!(p.proc(0).prefix, vec![0, 5, half + 5, u64::MAX]);
        let cands = p.candidates();
        assert_eq!(cands.last(), Some(&u64::MAX));
        assert!(cands.windows(2).all(|w| w[0] < w[1]));
        // 2·2^63 > t for every t: the job is large at every guess.
        assert_eq!(p.l_t(u64::MAX), 1);
        assert!(p.has_large(1, u64::MAX));
        for t in cands {
            for proc in 0..2 {
                assert_eq!(
                    p.counts(proc, t),
                    brute_counts(&inst, proc, t),
                    "p={proc} t={t}"
                );
            }
        }
    }

    #[test]
    fn empty_processor_profile() {
        let inst = Instance::from_sizes(&[5], vec![0], 3).unwrap();
        let p = Profiles::new(&inst);
        assert!(p.proc(1).is_empty());
        assert_eq!(p.a(1, 10), 0);
        assert_eq!(p.b(1, 10), 0);
    }
}
