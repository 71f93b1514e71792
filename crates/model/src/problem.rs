//! The constrained binary optimization model (Eq. (1) of the paper):
//!
//! ```text
//! min / max  f(x),   x ∈ {0,1}^n
//! s.t.       C x = c
//! ```
//!
//! `f` is an arbitrary quadratic pseudo-Boolean (QUBO) function; the
//! constraints are integer linear equalities plus first-class `≤`/`≥`
//! rows ([`ProblemBuilder::less_equal`] / [`ProblemBuilder::greater_equal`]).
//! Inequality rows are carried through to the solver layer, which either
//! synthesizes bounded slack registers natively (Choco-Q's generalized
//! driver) or rejects the encoding; problems may also still model
//! inequalities manually with binary slack variables (the FLP/GCP
//! encodings in `choco-problems` do exactly this).

use choco_mathkit::{LinEq, LinSystem};
use choco_qsim::PhasePoly;
use std::fmt;

/// Whether the objective is minimized or maximized.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Sense {
    /// Find the assignment with the smallest objective.
    #[default]
    Minimize,
    /// Find the assignment with the largest objective.
    Maximize,
}

/// Errors from [`ProblemBuilder::build`] and problem-level validation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProblemError {
    /// A term referenced a variable index `>= n_vars`.
    VariableOutOfRange {
        /// The offending index.
        var: usize,
        /// Number of declared variables.
        n_vars: usize,
    },
    /// More than 63 variables (bitstrings are packed in `u64`).
    TooManyVariables(usize),
    /// The constraint system admits no binary solution.
    Infeasible,
}

impl fmt::Display for ProblemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProblemError::VariableOutOfRange { var, n_vars } => {
                write!(f, "variable x{var} out of range (n_vars = {n_vars})")
            }
            ProblemError::TooManyVariables(n) => {
                write!(f, "{n} variables exceed the 63-variable limit")
            }
            ProblemError::Infeasible => write!(f, "constraint system has no binary solution"),
        }
    }
}

impl std::error::Error for ProblemError {}

/// A constrained binary optimization problem.
///
/// # Examples
///
/// ```
/// use choco_model::Problem;
///
/// // The paper's running example (Fig. 2a, 0-indexed):
/// //   max  x0 + 2 x1 + 3 x2 + x3
/// //   s.t. x0 − x2 = 0 ;  x0 + x1 + x3 = 1
/// let p = Problem::builder(4)
///     .maximize()
///     .linear(0, 1.0)
///     .linear(1, 2.0)
///     .linear(2, 3.0)
///     .linear(3, 1.0)
///     .equality([(0, 1), (2, -1)], 0)
///     .equality([(0, 1), (1, 1), (3, 1)], 1)
///     .build()?;
/// assert!(p.is_feasible(0b0101));
/// assert_eq!(p.evaluate(0b0101), 4.0); // x = {1,0,1,0}
/// # Ok::<(), choco_model::ProblemError>(())
/// ```
#[derive(Clone, Debug)]
pub struct Problem {
    n_vars: usize,
    sense: Sense,
    objective: PhasePoly,
    constraints: LinSystem,
    name: String,
}

impl Problem {
    /// Starts building a problem over `n_vars` binary variables.
    pub fn builder(n_vars: usize) -> ProblemBuilder {
        ProblemBuilder {
            n_vars,
            sense: Sense::Minimize,
            objective: PhasePoly::new(n_vars.min(63)),
            equalities: Vec::new(),
            inequalities: Vec::new(),
            name: String::new(),
            // Terms on a too-wide problem are not recorded: `build` fails.
            error: (n_vars > 63).then_some(ProblemError::TooManyVariables(n_vars)),
        }
    }

    /// Number of binary variables.
    #[inline]
    pub fn n_vars(&self) -> usize {
        self.n_vars
    }

    /// Optimization direction.
    #[inline]
    pub fn sense(&self) -> Sense {
        self.sense
    }

    /// The objective as a quadratic pseudo-Boolean function.
    #[inline]
    pub fn objective(&self) -> &PhasePoly {
        &self.objective
    }

    /// The constraint system: equality rows `C x = c` plus any `≤` rows.
    #[inline]
    pub fn constraints(&self) -> &LinSystem {
        &self.constraints
    }

    /// `true` when the problem carries at least one first-class inequality
    /// row (solvers without native inequality support must reject these).
    #[inline]
    pub fn has_inequalities(&self) -> bool {
        self.constraints.has_inequalities()
    }

    /// Human-readable instance name (e.g. `"FLP 2F-1D seed=7"`).
    #[inline]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Objective value of a packed assignment.
    pub fn evaluate(&self, bits: u64) -> f64 {
        self.objective.eval_bits(bits)
    }

    /// Does the assignment satisfy every constraint?
    pub fn is_feasible(&self, bits: u64) -> bool {
        self.constraints.is_satisfied_bits(bits)
    }

    /// Squared constraint violation `‖Cx − c‖²`.
    pub fn violation_sq(&self, bits: u64) -> f64 {
        self.constraints.penalty_bits(bits) as f64
    }

    /// Objective in *minimization convention*: negated for `Maximize`
    /// problems so every solver can uniformly minimize.
    pub fn cost(&self, bits: u64) -> f64 {
        match self.sense {
            Sense::Minimize => self.evaluate(bits),
            Sense::Maximize => -self.evaluate(bits),
        }
    }

    /// The minimization-convention objective as a diagonal Hamiltonian.
    pub fn cost_poly(&self) -> PhasePoly {
        let mut poly = PhasePoly::new(self.n_vars);
        let scale = match self.sense {
            Sense::Minimize => 1.0,
            Sense::Maximize => -1.0,
        };
        poly.add_scaled(&self.objective, scale);
        poly
    }

    /// The penalty-method Hamiltonian
    /// `cost(x) + λ·Σ_j (C_j x − c_j)²` expanded to QUBO form (the soft
    /// constraint encoding of penalty-based QAOA \[44\]).
    ///
    /// Only *equality* rows are expanded — a quadratic penalty for a `≤` row
    /// would need its own slack variables, which this soft encoding does not
    /// introduce. Penalty-family solvers reject problems where
    /// [`Problem::has_inequalities`] is `true`.
    pub fn penalty_poly(&self, lambda: f64) -> PhasePoly {
        let mut poly = self.cost_poly();
        for eq in self.constraints.eqs() {
            // (Σ c_i x_i − c)² = Σ c_i²x_i + 2Σ_{i<j} c_i c_j x_i x_j
            //                    − 2c Σ c_i x_i + c²   (x² = x)
            let c = eq.rhs as f64;
            poly.add_constant(lambda * c * c);
            for (a, &(i, ci)) in eq.terms.iter().enumerate() {
                let ci = ci as f64;
                poly.add_linear(i, lambda * (ci * ci - 2.0 * c * ci));
                for &(j, cj) in eq.terms.iter().skip(a + 1) {
                    poly.add_quadratic(i, j, lambda * 2.0 * ci * cj as f64);
                }
            }
        }
        poly
    }

    /// Up to `cap` feasible assignments.
    pub fn feasible_solutions(&self, cap: usize) -> Vec<u64> {
        if self.constraints.is_empty() && !self.constraints.has_inequalities() {
            let total = 1u64 << self.n_vars;
            return (0..total.min(cap as u64)).collect();
        }
        self.constraints.enumerate_binary_solutions(cap)
    }

    /// One feasible assignment (the Choco-Q initial state), if any exists.
    pub fn first_feasible(&self) -> Option<u64> {
        if self.constraints.is_empty() && !self.constraints.has_inequalities() {
            Some(0)
        } else {
            self.constraints.first_binary_solution()
        }
    }

    /// The per-basis-state cost table (minimization convention), used by the
    /// simulator for fast repeated diagonal evolution.
    pub fn cost_table(&self) -> Vec<f64> {
        self.cost_poly().values_table(1 << self.n_vars)
    }
}

impl fmt::Display for Problem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} [{} vars, {} constraints, {:?}]",
            if self.name.is_empty() {
                "problem"
            } else {
                &self.name
            },
            self.n_vars,
            self.constraints.len() + self.constraints.ineqs().len(),
            self.sense
        )?;
        writeln!(f, "  objective: {}", self.objective)?;
        for eq in self.constraints.eqs() {
            writeln!(f, "  s.t. {eq}")?;
        }
        for le in self.constraints.ineqs() {
            writeln!(f, "  s.t. {} <= {}", le.lhs_display(), le.rhs)?;
        }
        Ok(())
    }
}

/// Incremental builder for [`Problem`]. See [`Problem::builder`].
#[derive(Clone, Debug)]
pub struct ProblemBuilder {
    n_vars: usize,
    sense: Sense,
    objective: PhasePoly,
    equalities: Vec<(Vec<(usize, i64)>, i64)>,
    inequalities: Vec<(Vec<(usize, i64)>, i64)>,
    name: String,
    error: Option<ProblemError>,
}

impl ProblemBuilder {
    /// Switches to maximization.
    pub fn maximize(mut self) -> Self {
        self.sense = Sense::Maximize;
        self
    }

    /// Switches to minimization (the default).
    pub fn minimize(mut self) -> Self {
        self.sense = Sense::Minimize;
        self
    }

    /// Adds a constant to the objective.
    pub fn constant(mut self, w: f64) -> Self {
        self.objective.add_constant(w);
        self
    }

    /// Adds `w · x_i` to the objective.
    pub fn linear(mut self, i: usize, w: f64) -> Self {
        if self.check_term(i, i) {
            self.objective.add_linear(i, w);
        }
        self
    }

    /// Adds `w · x_i · x_j` to the objective.
    pub fn quadratic(mut self, i: usize, j: usize, w: f64) -> Self {
        if self.check_term(i, j) {
            self.objective.add_quadratic(i, j, w);
        }
        self
    }

    /// Whether an objective term on `x_i`, `x_j` may be recorded: no
    /// earlier error and both in range (else the first error is kept).
    fn check_term(&mut self, i: usize, j: usize) -> bool {
        if self.error.is_some() {
            return false;
        }
        if i.max(j) >= self.n_vars {
            let var = if i >= self.n_vars { i } else { j };
            let n_vars = self.n_vars;
            self.error = Some(ProblemError::VariableOutOfRange { var, n_vars });
        }
        self.error.is_none()
    }

    /// Adds an equality constraint `Σ coeff·x_var = rhs`.
    pub fn equality(mut self, terms: impl IntoIterator<Item = (usize, i64)>, rhs: i64) -> Self {
        self.equalities.push((terms.into_iter().collect(), rhs));
        self
    }

    /// Adds a first-class inequality constraint `Σ coeff·x_var ≤ rhs`.
    ///
    /// Unlike a manual binary-slack encoding, the row is kept in `≤` form all
    /// the way to the solver layer, where Choco-Q's generalized driver
    /// synthesizes a bounded slack register for it natively.
    pub fn less_equal(mut self, terms: impl IntoIterator<Item = (usize, i64)>, rhs: i64) -> Self {
        self.inequalities.push((terms.into_iter().collect(), rhs));
        self
    }

    /// Adds `Σ coeff·x_var ≥ rhs`, stored as the equivalent `≤` row with
    /// negated coefficients and right-hand side.
    pub fn greater_equal(
        mut self,
        terms: impl IntoIterator<Item = (usize, i64)>,
        rhs: i64,
    ) -> Self {
        let negated: Vec<(usize, i64)> = terms.into_iter().map(|(v, c)| (v, -c)).collect();
        self.inequalities.push((negated, -rhs));
        self
    }

    /// Sets the instance name.
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Finalizes the problem.
    ///
    /// # Errors
    ///
    /// Returns [`ProblemError`] for out-of-range variables or more than 63
    /// variables. (Feasibility is *not* checked here; solvers report
    /// [`ProblemError::Infeasible`] when relevant.)
    pub fn build(self) -> Result<Problem, ProblemError> {
        if let Some(err) = self.error {
            return Err(err);
        }
        let mut constraints = LinSystem::new(self.n_vars);
        for (terms, rhs) in self.equalities {
            for &(var, _) in &terms {
                if var >= self.n_vars {
                    return Err(ProblemError::VariableOutOfRange {
                        var,
                        n_vars: self.n_vars,
                    });
                }
            }
            constraints.push(LinEq::new(terms, rhs));
        }
        for (terms, rhs) in self.inequalities {
            for &(var, _) in &terms {
                if var >= self.n_vars {
                    return Err(ProblemError::VariableOutOfRange {
                        var,
                        n_vars: self.n_vars,
                    });
                }
            }
            constraints.push_le(LinEq::new(terms, rhs));
        }
        Ok(Problem {
            n_vars: self.n_vars,
            sense: self.sense,
            objective: self.objective,
            constraints,
            name: self.name,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_problem() -> Problem {
        Problem::builder(4)
            .maximize()
            .linear(0, 1.0)
            .linear(1, 2.0)
            .linear(2, 3.0)
            .linear(3, 1.0)
            .equality([(0, 1), (2, -1)], 0)
            .equality([(0, 1), (1, 1), (3, 1)], 1)
            .name("paper example")
            .build()
            .expect("valid")
    }

    #[test]
    fn evaluate_and_feasibility() {
        let p = paper_problem();
        assert!(p.is_feasible(0b0101)); // {1,0,1,0}
        assert!(!p.is_feasible(0b0001)); // x0=1 but x2=0 violates x0-x2=0
        assert_eq!(p.evaluate(0b0101), 4.0);
        assert_eq!(p.cost(0b0101), -4.0); // maximization → negated
    }

    #[test]
    fn feasible_enumeration_matches_brute_force() {
        let p = paper_problem();
        let dfs: std::collections::BTreeSet<u64> = p.feasible_solutions(100).into_iter().collect();
        let brute: std::collections::BTreeSet<u64> =
            (0..16u64).filter(|&b| p.is_feasible(b)).collect();
        assert_eq!(dfs, brute);
        assert!(p.first_feasible().is_some());
    }

    #[test]
    fn penalty_poly_matches_direct_computation() {
        let p = paper_problem();
        let lambda = 10.0;
        let poly = p.penalty_poly(lambda);
        for bits in 0..16u64 {
            let direct = p.cost(bits) + lambda * p.violation_sq(bits);
            let via_poly = poly.eval_bits(bits);
            assert!(
                (direct - via_poly).abs() < 1e-9,
                "bits={bits:04b}: {direct} vs {via_poly}"
            );
        }
    }

    #[test]
    fn penalty_vanishes_on_feasible_points() {
        let p = paper_problem();
        let lam0 = p.penalty_poly(0.0);
        let lam9 = p.penalty_poly(9.0);
        for &bits in &p.feasible_solutions(100) {
            assert!(
                (lam0.eval_bits(bits) - lam9.eval_bits(bits)).abs() < 1e-9,
                "penalty must not shift feasible point {bits:b}"
            );
        }
    }

    #[test]
    fn cost_table_matches_cost() {
        let p = paper_problem();
        let table = p.cost_table();
        for bits in 0..16u64 {
            assert_eq!(table[bits as usize], p.cost(bits));
        }
    }

    #[test]
    fn builder_rejects_out_of_range() {
        let err = Problem::builder(2).linear(5, 1.0).build().unwrap_err();
        assert_eq!(err, ProblemError::VariableOutOfRange { var: 5, n_vars: 2 });
        let err = Problem::builder(2)
            .equality([(3, 1)], 0)
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            ProblemError::VariableOutOfRange { var: 3, .. }
        ));
    }

    #[test]
    fn builder_rejects_too_many_vars() {
        let err = Problem::builder(64).build().unwrap_err();
        assert_eq!(err, ProblemError::TooManyVariables(64));
        // Terms past the 63-bit objective are rejected at `build`, not
        // by an out-of-range panic while the problem is assembled.
        let err = Problem::builder(80)
            .linear(70, 1.0)
            .quadratic(3, 75, 2.0)
            .equality([(79, 1)], 1)
            .build()
            .unwrap_err();
        assert_eq!(err, ProblemError::TooManyVariables(80));
    }

    #[test]
    fn unconstrained_problem_feasible_everywhere() {
        let p = Problem::builder(3).linear(0, 1.0).build().unwrap();
        assert_eq!(p.feasible_solutions(100).len(), 8);
        assert_eq!(p.first_feasible(), Some(0));
        assert!(p.is_feasible(0b111));
    }

    #[test]
    fn less_equal_rows_are_first_class() {
        // max x0 + x1 + x2  s.t.  2*x0 + x1 + 3*x2 ≤ 3
        let p = Problem::builder(3)
            .maximize()
            .linear(0, 1.0)
            .linear(1, 1.0)
            .linear(2, 1.0)
            .less_equal([(0, 2), (1, 1), (2, 3)], 3)
            .build()
            .unwrap();
        assert!(p.has_inequalities());
        assert!(p.is_feasible(0b011)); // 2+1 = 3 ≤ 3
        assert!(!p.is_feasible(0b101)); // 2+3 = 5 > 3
        let feas: std::collections::BTreeSet<u64> = p.feasible_solutions(100).into_iter().collect();
        let brute: std::collections::BTreeSet<u64> =
            (0..8u64).filter(|&b| p.is_feasible(b)).collect();
        assert_eq!(feas, brute);
        assert!(brute.contains(&p.first_feasible().unwrap()));
    }

    #[test]
    fn greater_equal_negates_row() {
        // x0 + x1 ≥ 1  ⟺  -x0 - x1 ≤ -1
        let p = Problem::builder(2)
            .greater_equal([(0, 1), (1, 1)], 1)
            .build()
            .unwrap();
        assert!(p.has_inequalities());
        assert!(!p.is_feasible(0b00));
        assert!(p.is_feasible(0b01));
        assert!(p.is_feasible(0b11));
        let row = &p.constraints().ineqs()[0];
        assert_eq!(row.terms, vec![(0, -1), (1, -1)]);
        assert_eq!(row.rhs, -1);
    }

    #[test]
    fn inequality_only_problem_does_not_claim_full_cube() {
        // x0 + x1 ≤ 0 admits only the all-zeros assignment.
        let p = Problem::builder(2)
            .less_equal([(0, 1), (1, 1)], 0)
            .build()
            .unwrap();
        assert_eq!(p.feasible_solutions(100), vec![0]);
        assert_eq!(p.first_feasible(), Some(0));
    }

    #[test]
    fn builder_rejects_out_of_range_inequality_var() {
        let err = Problem::builder(2)
            .less_equal([(4, 1)], 1)
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            ProblemError::VariableOutOfRange { var: 4, .. }
        ));
    }

    #[test]
    fn display_prints_inequality_rows() {
        let p = Problem::builder(3)
            .equality([(0, 1), (1, 1)], 1)
            .less_equal([(1, 2), (2, 1)], 2)
            .build()
            .unwrap();
        let s = format!("{p}");
        assert!(s.contains("2 constraints"), "display: {s}");
        assert!(s.contains("s.t. x0 + x1 = 1"), "display: {s}");
        assert!(s.contains("s.t. 2*x1 + x2 <= 2"), "display: {s}");
    }

    #[test]
    fn display_includes_name_and_constraints() {
        let p = paper_problem();
        let s = format!("{p}");
        assert!(s.contains("paper example"));
        assert!(s.contains("s.t."));
    }
}
