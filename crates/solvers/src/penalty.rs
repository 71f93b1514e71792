//! Penalty-based QAOA (the soft-constraint baseline \[44\]).
//!
//! Constraints are folded into the objective as `λ·Σ_j (C_j x − c_j)²`,
//! then a vanilla QAOA runs: uniform superposition, alternating diagonal
//! evolution `e^{-iγ_l H_{o+p}}` and transverse-field mixer `RX(2β_l)`.
//!
//! This is the design Figure 1(a) criticizes: a weak penalty lets the state
//! drift out of the constraints, a strong one flattens the objective — both
//! visible in this implementation's metrics.

use crate::shared::{
    check_size, circuit_stats, ramp_initial_params, reject_inequalities, variational_loop,
    CostSpec, QaoaConfig,
};
use choco_model::{Problem, SolveOutcome, Solver, SolverError};
use choco_qsim::SimWorkspace;
use choco_qsim::{Circuit, CircuitTemplate, Gate, PhasePoly};
use std::sync::Arc;
use std::time::Instant;

/// The penalty-based QAOA solver.
///
/// # Examples
///
/// ```
/// use choco_model::{Problem, Solver};
/// use choco_solvers::{PenaltyQaoaSolver, QaoaConfig};
///
/// let p = Problem::builder(2)
///     .minimize()
///     .linear(0, 1.0)
///     .linear(1, 2.0)
///     .equality([(0, 1), (1, 1)], 1)
///     .build()
///     .unwrap();
/// let outcome = PenaltyQaoaSolver::new(QaoaConfig::fast_test()).solve(&p).unwrap();
/// assert_eq!(outcome.counts.shots(), 2000);
/// ```
#[derive(Clone, Debug, Default)]
pub struct PenaltyQaoaSolver {
    config: QaoaConfig,
}

impl PenaltyQaoaSolver {
    /// Creates a solver with the given configuration.
    pub fn new(config: QaoaConfig) -> Self {
        PenaltyQaoaSolver { config }
    }

    /// The configuration.
    pub fn config(&self) -> &QaoaConfig {
        &self.config
    }
}

impl Solver for PenaltyQaoaSolver {
    fn name(&self) -> &str {
        "penalty-qaoa"
    }

    fn solve(&self, problem: &Problem) -> Result<SolveOutcome, SolverError> {
        let mut workspace = SimWorkspace::new(self.config.sim);
        self.solve_with_workspace(problem, &mut workspace)
    }
}

impl PenaltyQaoaSolver {
    /// The circuit over parameters `[γ_1, β_1, …, γ_L, β_L]`: `H` on
    /// every qubit, then per layer `e^{-iγ_l·poly}` and `RX(2β_l)`.
    pub fn template(n: usize, poly: &Arc<PhasePoly>, layers: usize) -> CircuitTemplate {
        let mut base = Circuit::new(n);
        for q in 0..n {
            base.h(q);
        }
        let mut template = CircuitTemplate::new(base);
        for l in 0..layers {
            template.push_slot(Gate::DiagPhase(poly.clone(), 0.0), 2 * l, 1.0);
            for q in 0..n {
                template.push_slot(Gate::Rx(q, 0.0), 2 * l + 1, 2.0);
            }
        }
        template
    }

    /// [`Solver::solve`] with a caller-owned [`SimWorkspace`]: the
    /// amplitude buffer and cached diagonals live in `workspace` and are
    /// reused across optimizer iterations (and across repeated solves when
    /// the caller keeps the workspace around, e.g. the batch runner's
    /// per-worker workspaces).
    pub fn solve_with_workspace(
        &self,
        problem: &Problem,
        workspace: &mut SimWorkspace,
    ) -> Result<SolveOutcome, SolverError> {
        reject_inequalities(problem, "penalty-qaoa")?;
        let n = problem.n_vars();
        check_size(n)?;
        let compile_start = Instant::now();
        // Interned so equal-content polynomials share one `Arc` across
        // solves — keeps compact plans replayable cache-wide.
        let poly = workspace.intern_poly(problem.penalty_poly(self.config.penalty));
        let cost_values = poly.values_table(1 << n);
        let layers = self.config.layers;
        let compile = compile_start.elapsed();

        // Follow the caller-owned workspace's engine config for every
        // kernel of this solve (noisy sampling included).
        let loop_config = QaoaConfig {
            sim: *workspace.config(),
            ..self.config.clone()
        };
        let result = variational_loop(
            &Self::template(n, &poly, layers),
            &CostSpec::Table(&cost_values),
            &ramp_initial_params(layers),
            &loop_config,
            workspace,
        );
        if result.deadline_exceeded {
            return Err(SolverError::Timeout);
        }
        let circuit = circuit_stats(&result.final_circuit, vec![], self.config.transpiled_stats)?;
        let mut timing = result.timing;
        timing.compile = compile;
        Ok(SolveOutcome {
            counts: result.counts,
            cost_history: result.cost_history,
            iterations: result.iterations,
            circuit,
            timing,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use choco_model::solve_exact;

    fn small_problem() -> Problem {
        // max x0 + 2 x1 + 3 x2  s.t. x0 + x1 + x2 = 2 → optimum {0,1,1} = 5
        Problem::builder(3)
            .maximize()
            .linear(0, 1.0)
            .linear(1, 2.0)
            .linear(2, 3.0)
            .equality([(0, 1), (1, 1), (2, 1)], 2)
            .build()
            .unwrap()
    }

    #[test]
    fn native_inequality_instance_is_rejected_not_mis_solved() {
        // A `≤` row is invisible to the penalty Hamiltonian; solving would
        // silently optimize the unconstrained problem.
        let p = Problem::builder(3)
            .maximize()
            .linear(0, 1.0)
            .linear(1, 2.0)
            .less_equal([(0, 1), (1, 2), (2, 2)], 3)
            .build()
            .unwrap();
        let err = PenaltyQaoaSolver::new(QaoaConfig::fast_test())
            .solve(&p)
            .unwrap_err();
        match err {
            SolverError::Unsupported(msg) => {
                assert!(msg.contains("penalty-qaoa"), "{msg}");
                assert!(msg.contains("slack"), "{msg}");
            }
            other => panic!("expected Unsupported, got {other:?}"),
        }
    }

    #[test]
    fn solves_and_reports_metrics() {
        let solver = PenaltyQaoaSolver::new(QaoaConfig::fast_test());
        let outcome = solver.solve(&small_problem()).unwrap();
        let metrics = outcome.metrics(&small_problem()).unwrap();
        // Soft constraints: some probability mass lands in constraints, but
        // (characteristically for the penalty method) not all of it.
        assert!(metrics.in_constraints_rate > 0.0);
        assert!(metrics.in_constraints_rate <= 1.0);
        assert!(outcome.iterations > 0);
        assert!(!outcome.cost_history.is_empty());
    }

    #[test]
    fn cost_history_improves() {
        let solver = PenaltyQaoaSolver::new(QaoaConfig::fast_test());
        let outcome = solver.solve(&small_problem()).unwrap();
        let first = outcome.cost_history.first().unwrap();
        let last = outcome.cost_history.last().unwrap();
        assert!(last <= first, "optimizer made things worse");
    }

    #[test]
    fn optimum_is_reachable_in_distribution() {
        let p = small_problem();
        let opt = solve_exact(&p).unwrap();
        let solver = PenaltyQaoaSolver::new(QaoaConfig {
            layers: 3,
            max_iters: 120,
            ..QaoaConfig::fast_test()
        });
        let outcome = solver.solve(&p).unwrap();
        // The optimal bitstring should appear with non-trivial probability.
        let p_opt: f64 = opt
            .solutions
            .iter()
            .map(|&s| outcome.counts.probability(s))
            .sum();
        assert!(p_opt > 0.01, "p(optimal) = {p_opt}");
    }

    #[test]
    fn transpiled_stats_present_when_requested() {
        let solver = PenaltyQaoaSolver::new(QaoaConfig {
            transpiled_stats: true,
            ..QaoaConfig::fast_test()
        });
        let outcome = solver.solve(&small_problem()).unwrap();
        assert!(outcome.circuit.transpiled_depth.is_some());
        assert!(outcome.circuit.two_qubit_gates.unwrap() > 0);
    }

    #[test]
    fn rejects_oversized_problems() {
        let p = Problem::builder(30).linear(0, 1.0).build().unwrap();
        let err = PenaltyQaoaSolver::default().solve(&p).unwrap_err();
        assert!(matches!(err, SolverError::TooLarge { .. }));
    }
}
