//! A dense two-phase primal simplex solver.
//!
//! Built from scratch as the substrate for the Shmoys–Tardos generalized
//! assignment baseline \[14\]. Scope: small dense LPs (hundreds of columns);
//! Bland's rule guards against cycling; two phases handle arbitrary
//! feasibility (equality, `≤`, `≥` rows). Solutions are *basic*, i.e.
//! vertices of the polytope — which is exactly what the Shmoys–Tardos
//! rounding requires.

use crate::matrix::Matrix;

/// Numeric tolerance for zero tests.
pub const EPS: f64 = 1e-9;

/// Constraint sense.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relation {
    /// `Σ a_i x_i ≤ b`
    Le,
    /// `Σ a_i x_i = b`
    Eq,
    /// `Σ a_i x_i ≥ b`
    Ge,
}

/// Outcome of an LP solve.
#[derive(Debug, Clone, PartialEq)]
pub enum LpResult {
    /// Optimum found: minimum objective value and a basic optimal point.
    Optimal { objective: f64, values: Vec<f64> },
    /// No feasible point exists.
    Infeasible,
    /// The objective is unbounded below.
    Unbounded,
}

/// One stored constraint: terms, sense, right-hand side.
type Constraint = (Vec<(usize, f64)>, Relation, f64);

/// A linear program: minimize `c·x` subject to linear constraints and
/// `x ≥ 0`.
#[derive(Debug, Clone, Default)]
pub struct LinearProgram {
    objective: Vec<f64>,
    constraints: Vec<Constraint>,
}

impl LinearProgram {
    /// An empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a variable with the given objective coefficient (minimization);
    /// returns its index.
    pub fn add_var(&mut self, obj: f64) -> usize {
        self.objective.push(obj);
        self.objective.len() - 1
    }

    /// Add a constraint `Σ coeff·x (op) rhs`.
    pub fn add_constraint(&mut self, terms: &[(usize, f64)], op: Relation, rhs: f64) {
        for &(v, _) in terms {
            assert!(
                v < self.objective.len(),
                "constraint references unknown variable"
            );
        }
        self.constraints.push((terms.to_vec(), op, rhs));
    }

    /// Solve with two-phase simplex.
    // Row indices double as basis keys here; indexed loops are clearer
    // than iterator gymnastics over parallel arrays.
    #[allow(clippy::needless_range_loop)]
    pub fn solve(&self) -> LpResult {
        let n = self.objective.len();
        let m = self.constraints.len();

        // Column layout: [structural 0..n | slack/surplus | artificial].
        let mut num_slack = 0;
        for (_, op, _) in &self.constraints {
            if *op != Relation::Eq {
                num_slack += 1;
            }
        }
        let total = n + num_slack + m; // one artificial per row (some unused)
        let rhs_col = total;

        // Tableau: m constraint rows + 1 objective row (phase objective).
        let mut t = Matrix::zeros(m + 1, total + 1);
        let mut basis = vec![usize::MAX; m];
        let mut slack_idx = n;
        let art_base = n + num_slack;

        for (r, (terms, op, rhs)) in self.constraints.iter().enumerate() {
            let mut coeffs = vec![0.0; total];
            for &(v, a) in terms {
                coeffs[v] += a;
            }
            let mut rhs = *rhs;
            let mut sign = 1.0;
            if rhs < 0.0 {
                // Normalize to nonnegative rhs.
                for c in coeffs.iter_mut() {
                    *c = -*c;
                }
                rhs = -rhs;
                sign = -1.0;
            }
            match op {
                Relation::Le => {
                    coeffs[slack_idx] = sign; // slack keeps the original sense
                    if sign > 0.0 {
                        basis[r] = slack_idx; // slack is basic directly
                    }
                    slack_idx += 1;
                }
                Relation::Ge => {
                    coeffs[slack_idx] = -sign;
                    if sign < 0.0 {
                        basis[r] = slack_idx;
                    }
                    slack_idx += 1;
                }
                Relation::Eq => {}
            }
            if basis[r] == usize::MAX {
                // Needs an artificial.
                coeffs[art_base + r] = 1.0;
                basis[r] = art_base + r;
            }
            for (c, &v) in coeffs.iter().enumerate() {
                t.set(r, c, v);
            }
            t.set(r, rhs_col, rhs);
        }

        // ---- Phase 1: minimize sum of artificials. ----
        let has_artificials = basis.iter().any(|&b| b >= art_base);
        if has_artificials {
            // Objective row: +1 for each artificial, then eliminate basics.
            for c in art_base..art_base + m {
                t.set(m, c, 1.0);
            }
            for r in 0..m {
                if basis[r] >= art_base {
                    t.add_scaled_row(m, r, -1.0);
                }
            }
            if !Self::run_simplex(&mut t, &mut basis, art_base + m) {
                // Phase 1 is always bounded; run_simplex false = unbounded,
                // which cannot happen here.
                unreachable!("phase 1 cannot be unbounded");
            }
            if t.get(m, rhs_col) < -EPS {
                return LpResult::Infeasible;
            }
            // Drive remaining artificials out of the basis where possible.
            for r in 0..m {
                if basis[r] >= art_base {
                    if let Some(c) = (0..art_base).find(|&c| t.get(r, c).abs() > EPS) {
                        Self::pivot(&mut t, &mut basis, r, c);
                    }
                    // If the whole row is zero the constraint was redundant;
                    // the artificial stays basic at value 0 (harmless).
                }
            }
        }

        // ---- Phase 2: the real objective (artificials frozen at 0). ----
        for c in 0..=total {
            t.set(m, c, 0.0);
        }
        for (c, &obj) in self.objective.iter().enumerate() {
            t.set(m, c, obj);
        }
        for r in 0..m {
            if basis[r] < art_base {
                let f = -t.get(m, basis[r]);
                if f.abs() > EPS {
                    t.add_scaled_row(m, r, f);
                }
            }
        }
        if !Self::run_simplex(&mut t, &mut basis, art_base) {
            return LpResult::Unbounded;
        }

        let mut values = vec![0.0; n];
        for r in 0..m {
            if basis[r] < n {
                values[basis[r]] = t.get(r, rhs_col);
            }
        }
        // Objective row holds −objective after eliminations.
        let objective = -t.get(m, rhs_col);
        LpResult::Optimal { objective, values }
    }

    /// Run simplex iterations on the tableau with Bland's rule, allowing
    /// entering columns `< allowed_cols`. Returns false on unboundedness.
    #[allow(clippy::needless_range_loop)]
    fn run_simplex(t: &mut Matrix, basis: &mut [usize], allowed_cols: usize) -> bool {
        let m = basis.len();
        let rhs_col = t.cols() - 1;
        loop {
            // Bland: smallest-index column with negative reduced cost.
            let Some(enter) = (0..allowed_cols).find(|&c| t.get(m, c) < -EPS) else {
                return true;
            };
            // Min ratio test; Bland ties by smallest basis index.
            let mut leave: Option<usize> = None;
            let mut best = f64::INFINITY;
            for r in 0..m {
                let a = t.get(r, enter);
                if a > EPS {
                    let ratio = t.get(r, rhs_col) / a;
                    let better = ratio < best - EPS
                        || (ratio < best + EPS && leave.is_some_and(|l| basis[r] < basis[l]));
                    if better {
                        best = ratio;
                        leave = Some(r);
                    }
                }
            }
            let Some(leave) = leave else { return false };
            Self::pivot(t, basis, leave, enter);
        }
    }

    /// Pivot on (row, col): make the column a unit vector.
    fn pivot(t: &mut Matrix, basis: &mut [usize], row: usize, col: usize) {
        let piv = t.get(row, col);
        debug_assert!(piv.abs() > EPS, "pivot on (near-)zero element");
        t.scale_row(row, 1.0 / piv);
        for r in 0..t.rows() {
            if r != row {
                let f = -t.get(r, col);
                if f.abs() > EPS {
                    t.add_scaled_row(r, row, f);
                }
            }
        }
        basis[row] = col;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    #[test]
    fn simple_minimization() {
        // min x + y s.t. x + 2y >= 4, 3x + y >= 6, x,y >= 0.
        // Optimum at intersection: x=1.6, y=1.2, obj=2.8.
        let mut lp = LinearProgram::new();
        let x = lp.add_var(1.0);
        let y = lp.add_var(1.0);
        lp.add_constraint(&[(x, 1.0), (y, 2.0)], Relation::Ge, 4.0);
        lp.add_constraint(&[(x, 3.0), (y, 1.0)], Relation::Ge, 6.0);
        match lp.solve() {
            LpResult::Optimal { objective, values } => {
                assert_close(objective, 2.8);
                assert_close(values[x], 1.6);
                assert_close(values[y], 1.2);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn maximization_via_negation() {
        // max 3x + 2y s.t. x + y <= 4, x <= 2 -> min -(3x+2y); opt x=2,y=2.
        let mut lp = LinearProgram::new();
        let x = lp.add_var(-3.0);
        let y = lp.add_var(-2.0);
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Le, 4.0);
        lp.add_constraint(&[(x, 1.0)], Relation::Le, 2.0);
        match lp.solve() {
            LpResult::Optimal { objective, values } => {
                assert_close(objective, -10.0);
                assert_close(values[x], 2.0);
                assert_close(values[y], 2.0);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn equality_constraints() {
        // min 2x + 3y s.t. x + y = 10, x <= 4 -> x=4, y=6, obj=26.
        let mut lp = LinearProgram::new();
        let x = lp.add_var(2.0);
        let y = lp.add_var(3.0);
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Eq, 10.0);
        lp.add_constraint(&[(x, 1.0)], Relation::Le, 4.0);
        match lp.solve() {
            LpResult::Optimal { objective, values } => {
                assert_close(objective, 26.0);
                assert_close(values[x], 4.0);
                assert_close(values[y], 6.0);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn detects_infeasible() {
        // x <= 1 and x >= 2.
        let mut lp = LinearProgram::new();
        let x = lp.add_var(1.0);
        lp.add_constraint(&[(x, 1.0)], Relation::Le, 1.0);
        lp.add_constraint(&[(x, 1.0)], Relation::Ge, 2.0);
        assert_eq!(lp.solve(), LpResult::Infeasible);
    }

    #[test]
    fn detects_unbounded() {
        // min -x s.t. x >= 0 (no upper bound).
        let mut lp = LinearProgram::new();
        let x = lp.add_var(-1.0);
        lp.add_constraint(&[(x, 1.0)], Relation::Ge, 0.0);
        assert_eq!(lp.solve(), LpResult::Unbounded);
    }

    #[test]
    fn negative_rhs_is_normalized() {
        // min x s.t. -x <= -3  (i.e. x >= 3).
        let mut lp = LinearProgram::new();
        let x = lp.add_var(1.0);
        lp.add_constraint(&[(x, -1.0)], Relation::Le, -3.0);
        match lp.solve() {
            LpResult::Optimal { objective, .. } => assert_close(objective, 3.0),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn degenerate_redundant_rows() {
        // Two copies of the same equality; solver must not report
        // infeasible.
        let mut lp = LinearProgram::new();
        let x = lp.add_var(1.0);
        let y = lp.add_var(1.0);
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Eq, 5.0);
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Eq, 5.0);
        match lp.solve() {
            LpResult::Optimal { objective, .. } => assert_close(objective, 5.0),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn assignment_polytope_vertex_is_integral() {
        // A tiny assignment LP: 2 jobs, 2 machines, costs favoring the
        // diagonal. Basic optimal solutions of assignment polytopes are
        // integral.
        let mut lp = LinearProgram::new();
        let x = [
            [lp.add_var(1.0), lp.add_var(5.0)],
            [lp.add_var(5.0), lp.add_var(1.0)],
        ];
        for j in 0..2 {
            lp.add_constraint(&[(x[j][0], 1.0), (x[j][1], 1.0)], Relation::Eq, 1.0);
        }
        for i in 0..2 {
            lp.add_constraint(&[(x[0][i], 1.0), (x[1][i], 1.0)], Relation::Le, 1.0);
        }
        match lp.solve() {
            LpResult::Optimal { objective, values } => {
                assert_close(objective, 2.0);
                for v in values {
                    assert!(v.abs() < 1e-6 || (v - 1.0).abs() < 1e-6, "fractional {v}");
                }
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn random_lps_match_bruteforce_vertices() {
        // Random small LPs with bounded boxes: compare simplex optimum to a
        // brute-force over all vertices obtained by solving 2x2 systems.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for _ in 0..50 {
            // min c1 x + c2 y s.t. three random <= constraints + box [0,10]^2.
            let c: [f64; 2] = [rng.gen_range(-5..=5) as f64, rng.gen_range(-5..=5) as f64];
            let mut rows: Vec<([f64; 2], f64)> = vec![([1.0, 0.0], 10.0), ([0.0, 1.0], 10.0)];
            for _ in 0..3 {
                let a = [rng.gen_range(-3..=3) as f64, rng.gen_range(-3..=3) as f64];
                let b = rng.gen_range(0..=12) as f64;
                rows.push((a, b));
            }
            let mut lp = LinearProgram::new();
            let x = lp.add_var(c[0]);
            let y = lp.add_var(c[1]);
            for (a, b) in &rows {
                lp.add_constraint(&[(x, a[0]), (y, a[1])], Relation::Le, *b);
            }
            let got = lp.solve();

            // Brute force: enumerate candidate vertices from all pairs of
            // tight constraints (including axes) and take the best feasible.
            let mut cands: Vec<(f64, f64)> = vec![(0.0, 0.0)];
            let mut all = rows.clone();
            all.push(([1.0, 0.0], 0.0)); // x = 0 axis as a tight row
            all.push(([0.0, 1.0], 0.0));
            for i in 0..all.len() {
                for j in i + 1..all.len() {
                    let (a1, b1) = all[i];
                    let (a2, b2) = all[j];
                    let det = a1[0] * a2[1] - a1[1] * a2[0];
                    if det.abs() < 1e-9 {
                        continue;
                    }
                    let px = (b1 * a2[1] - a1[1] * b2) / det;
                    let py = (a1[0] * b2 - b1 * a2[0]) / det;
                    cands.push((px, py));
                }
            }
            let feasible = |px: f64, py: f64| {
                px >= -1e-7
                    && py >= -1e-7
                    && rows.iter().all(|(a, b)| a[0] * px + a[1] * py <= b + 1e-7)
            };
            let best = cands
                .into_iter()
                .filter(|&(px, py)| feasible(px, py))
                .map(|(px, py)| c[0] * px + c[1] * py)
                .fold(f64::INFINITY, f64::min);

            match got {
                LpResult::Optimal { objective, .. } => {
                    assert!((objective - best).abs() < 1e-5, "{objective} vs {best}");
                }
                other => panic!("expected optimal (box-bounded): {other:?}"),
            }
        }
    }
}
