//! The generalized-assignment LP relaxation and its rounding: the one
//! Shmoys–Tardos pipeline behind every lrb-lp entry point, each of which
//! supplies only its cost function. For sizes `s_j`, costs `c_{jp}` and a
//! makespan guess `T` the relaxation is:
//!
//! ```text
//!   minimize   Σ_{j,p} c_{jp} · x_{jp}
//!   subject to Σ_p x_{jp} = 1                for every job j
//!              Σ_j s_j · x_{jp} ≤ T          for every machine p
//!              x_{jp} ≥ 0, and x_{jp} absent when s_j > T
//! ```
//!
//! The pruning of `s_j > T` variables is the Lenstra–Shmoys–Tardos trick
//! that makes the rounding lose only an additive `max s_j ≤ T`; a pair
//! whose cost is `None` (ineligible in Constrained Load Rebalancing) gets
//! no variable either. Load rebalancing uses the §2 costs: `0` on the job's
//! home processor, `c_j` elsewhere.

use lrb_core::model::{Cost, Instance, ProcId, Size};

use crate::simplex::{LinearProgram, LpResult, Relation};

/// A fractional GAP solution at makespan guess `t`.
#[derive(Debug, Clone)]
pub struct FractionalAssignment {
    /// The makespan guess the LP was built for.
    pub t: Size,
    /// Minimum fractional relocation cost.
    pub cost: f64,
    /// `x[j]` = list of `(processor, fraction)` with positive fraction.
    pub x: Vec<Vec<(usize, f64)>>,
}

/// The §2 cost of placing job `j` on processor `p`: 0 at home, `c_j`
/// elsewhere.
pub(crate) fn relocation_cost(inst: &Instance, j: usize, p: ProcId) -> Cost {
    if p == inst.initial_proc(j) {
        0
    } else {
        inst.cost(j)
    }
}

/// Solve the relaxation at guess `t`; `None` if infeasible (some job larger
/// than `t`, or total volume cannot fit).
pub fn solve_relaxation(inst: &Instance, t: Size) -> Option<FractionalAssignment> {
    solve_relaxation_filtered(inst, t, |_, _| true)
}

/// [`solve_relaxation`] restricted to `(job, processor)` pairs passing the
/// eligibility predicate — the Constrained Load Rebalancing relaxation
/// (§5, Corollary 1). The predicate must admit each job's home processor.
pub fn solve_relaxation_filtered(
    inst: &Instance,
    t: Size,
    eligible: impl Fn(usize, usize) -> bool,
) -> Option<FractionalAssignment> {
    let sizes: Vec<Size> = inst.jobs().iter().map(|job| job.size).collect();
    relax(&sizes, inst.num_procs(), t, |j, p| {
        eligible(j, p).then(|| relocation_cost(inst, j, p))
    })
}

/// Solve the relaxation of jobs `sizes` on `m` machines at guess `t`, with
/// a variable for every pair where `cost(j, p)` is `Some`; `None` if
/// infeasible (a job larger than `t`, a job without a variable, or volume
/// that cannot fit). Variables are job-major; job rows precede machine
/// rows.
// (j, p) index pairs address the 2-d `var` table; indexed loops are the
// clear form.
#[allow(clippy::needless_range_loop)]
pub(crate) fn relax(
    sizes: &[Size],
    m: usize,
    t: Size,
    cost: impl Fn(usize, usize) -> Option<Cost>,
) -> Option<FractionalAssignment> {
    let n = sizes.len();
    if sizes.iter().any(|&s| s > t) {
        return None;
    }

    let mut lp = LinearProgram::new();
    // Variable index (j, p) -> var id; usize::MAX marks a pair without one.
    let mut var = vec![vec![usize::MAX; m]; n];
    for j in 0..n {
        for p in 0..m {
            if let Some(c) = cost(j, p) {
                var[j][p] = lp.add_var(c as f64);
            }
        }
    }
    for j in 0..n {
        let terms: Vec<(usize, f64)> = (0..m)
            .filter(|&p| var[j][p] != usize::MAX)
            .map(|p| (var[j][p], 1.0))
            .collect();
        if terms.is_empty() {
            return None; // a job with no eligible processor cannot schedule
        }
        lp.add_constraint(&terms, Relation::Eq, 1.0);
    }
    for p in 0..m {
        let terms: Vec<(usize, f64)> = (0..n)
            .filter(|&j| var[j][p] != usize::MAX)
            .map(|j| (var[j][p], sizes[j] as f64))
            .collect();
        lp.add_constraint(&terms, Relation::Le, t as f64);
    }

    match lp.solve() {
        LpResult::Optimal { objective, values } => {
            let mut x = vec![Vec::new(); n];
            for j in 0..n {
                for p in 0..m {
                    if var[j][p] == usize::MAX {
                        continue;
                    }
                    let v = values[var[j][p]];
                    if v > 1e-7 {
                        x[j].push((p, v));
                    }
                }
            }
            Some(FractionalAssignment {
                t,
                cost: objective,
                x,
            })
        }
        LpResult::Infeasible => None,
        LpResult::Unbounded => unreachable!("costs are nonnegative"),
    }
}

/// Round a fractional vertex solution on `m` machines: integral jobs stay,
/// fractional jobs are matched to their fractional machines (≤ 1 extra job
/// per machine), cheapest matching under `cost` via successive augmenting
/// paths. The makespan is at most `t + max_j s_j ≤ 2t`; the cost is the
/// integral jobs' plus that of a min-cost matching of the fractional ones,
/// which can exceed the LP value.
pub(crate) fn round(
    frac: &FractionalAssignment,
    m: usize,
    cost: impl Fn(usize, usize) -> Cost,
) -> Vec<ProcId> {
    let n = frac.x.len();
    let mut assignment = vec![0usize; n];
    let mut fractional: Vec<usize> = Vec::new();
    for (j, xs) in frac.x.iter().enumerate() {
        if let Some(&(p, _)) = xs.iter().find(|&&(_, v)| v > 1.0 - 1e-6) {
            assignment[j] = p;
        } else {
            fractional.push(j);
        }
    }

    // Min-cost bipartite matching: fractional jobs -> their fractional
    // processors, one job per processor. Successive shortest augmenting
    // paths with Bellman-Ford (graphs here are tiny: a vertex solution has
    // at most m+1 fractional jobs).
    let mut matched_proc: Vec<Option<usize>> = vec![None; m]; // proc -> job
    let mut job_proc: Vec<Option<usize>> = vec![None; n];

    for &start in &fractional {
        // Bellman-Ford over alternating paths: dist[p] = cheapest way to
        // free processor p for `start` (chain of reassignments).
        let edge_cost = |j: usize, p: usize| -> f64 { cost(j, p) as f64 };
        let mut dist = vec![f64::INFINITY; m];
        // via[p] = (job, prev proc) of the cheapest path to p.
        let mut via: Vec<Option<(usize, Option<usize>)>> = vec![None; m];
        // Initialize with start's own fractional edges.
        for &(p, _) in &frac.x[start] {
            let c = edge_cost(start, p);
            if c < dist[p] {
                dist[p] = c;
                via[p] = Some((start, None));
            }
        }
        // Relax through matched jobs that could move to another of their
        // fractional processors. Successive-shortest-path matchings admit
        // no negative cycles, so m passes suffice; the cap also guards
        // against numerical pathologies.
        for _pass in 0..=m {
            let mut improved = false;
            for p in 0..m {
                if dist[p].is_finite() {
                    if let Some(j2) = matched_proc[p] {
                        for &(p2, _) in &frac.x[j2] {
                            if p2 != p {
                                let nd = dist[p] + edge_cost(j2, p2) - edge_cost(j2, p);
                                if nd < dist[p2] - 1e-12 {
                                    dist[p2] = nd;
                                    via[p2] = Some((j2, Some(p)));
                                    improved = true;
                                }
                            }
                        }
                    }
                }
            }
            if !improved {
                break;
            }
        }
        // Choose the cheapest free processor.
        let target = (0..m)
            .filter(|&p| matched_proc[p].is_none() && dist[p].is_finite())
            .min_by(|&a, &b| dist[a].partial_cmp(&dist[b]).unwrap());
        match target {
            Some(mut p) => {
                // Unwind the alternating path.
                loop {
                    let (j, prev) = via[p].expect("reachable processors have a predecessor");
                    matched_proc[p] = Some(j);
                    job_proc[j] = Some(p);
                    match prev {
                        Some(q) => p = q,
                        None => break,
                    }
                }
            }
            None => {
                // Theoretically unreachable for a vertex solution (a
                // saturating matching exists); fall back to the job's
                // highest-fraction processor to stay total.
                let &(p, _) = frac.x[start]
                    .iter()
                    .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
                    .expect("fractional job has at least two edges");
                job_proc[start] = Some(p);
            }
        }
    }

    for &j in &fractional {
        assignment[j] = job_proc[j].expect("every fractional job was placed");
    }
    assignment
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_instance_has_zero_cost() {
        let inst = Instance::from_sizes(&[5, 5], vec![0, 1], 2).unwrap();
        let f = solve_relaxation(&inst, 5).unwrap();
        assert!(f.cost.abs() < 1e-7);
        // Every job fully on its home processor.
        for (j, xs) in f.x.iter().enumerate() {
            assert_eq!(xs.len(), 1);
            assert_eq!(xs[0].0, inst.initial_proc(j));
        }
    }

    #[test]
    fn pile_needs_fractional_moves() {
        let inst = Instance::from_sizes(&[5, 5], vec![0, 0], 2).unwrap();
        let f = solve_relaxation(&inst, 5).unwrap();
        // One of the two jobs must fully move: cost 1.
        assert!((f.cost - 1.0).abs() < 1e-6, "cost {}", f.cost);
    }

    #[test]
    fn infeasible_when_job_exceeds_t() {
        let inst = Instance::from_sizes(&[8, 2], vec![0, 1], 2).unwrap();
        assert!(solve_relaxation(&inst, 7).is_none());
    }

    #[test]
    fn infeasible_when_volume_exceeds_mt() {
        let inst = Instance::from_sizes(&[5, 5, 5], vec![0, 0, 1], 2).unwrap();
        assert!(solve_relaxation(&inst, 7).is_none());
    }

    #[test]
    fn fractions_sum_to_one() {
        let inst = Instance::from_sizes(&[6, 4, 3, 2], vec![0, 0, 0, 1], 2).unwrap();
        let f = solve_relaxation(&inst, 8).unwrap();
        for xs in &f.x {
            let sum: f64 = xs.iter().map(|&(_, v)| v).sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn lp_cost_lower_bounds_integral_cost() {
        // LP relaxation cost is at most the exact integral optimum's cost.
        let inst = Instance::from_sizes(&[4, 3, 3, 2], vec![0, 0, 0, 0], 2).unwrap();
        let f = solve_relaxation(&inst, 6).unwrap();
        // Exact: 2 moves needed for makespan 6.
        assert!(f.cost <= 2.0 + 1e-6);
    }
}
