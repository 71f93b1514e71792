//! Hardware-efficient ansatz (HEA) \[28\] — the non-QAOA baseline.
//!
//! The Kandala-style circuit: alternating layers of per-qubit `RY`
//! rotations and a CZ entangling ladder, with one final rotation layer.
//! The circuit structure carries no problem information; constraints are
//! handled softly by the same penalty objective as penalty-QAOA. As the
//! paper notes (§VI-A), this "cannot always converge into an optimal
//! solution since the circuit structure is not specialized".

use crate::shared::{
    check_size, circuit_stats, reject_inequalities, variational_loop, CostSpec, QaoaConfig,
};
use choco_model::{Problem, SolveOutcome, Solver, SolverError};
use choco_qsim::SimWorkspace;
use choco_qsim::{Circuit, CircuitTemplate, Gate};
use std::time::Instant;

/// The hardware-efficient ansatz solver.
#[derive(Clone, Debug, Default)]
pub struct HeaSolver {
    config: QaoaConfig,
}

impl HeaSolver {
    /// Creates a solver with the given configuration.
    pub fn new(config: QaoaConfig) -> Self {
        HeaSolver { config }
    }

    /// The configuration.
    pub fn config(&self) -> &QaoaConfig {
        &self.config
    }

    /// Number of variational parameters: one RY per qubit per rotation
    /// layer, `layers + 1` rotation layers.
    pub fn n_params(n_vars: usize, layers: usize) -> usize {
        n_vars * (layers + 1)
    }

    /// The ansatz over parameters `[θ_{0,0} … θ_{L,n-1}]`: per layer an
    /// `RY` on every qubit and a CZ ladder, then a final `RY` layer.
    pub fn template(n: usize, layers: usize) -> CircuitTemplate {
        let mut template = CircuitTemplate::new(Circuit::new(n));
        for l in 0..=layers {
            for q in 0..n {
                template.push_slot(Gate::Ry(q, 0.0), l * n + q, 1.0);
            }
            if l == layers {
                break; // the final rotation layer has no ladder
            }
            for q in 0..n.saturating_sub(1) {
                template.push(Gate::Cz(q, q + 1));
            }
        }
        template
    }
}

impl Solver for HeaSolver {
    fn name(&self) -> &str {
        "hea"
    }

    fn solve(&self, problem: &Problem) -> Result<SolveOutcome, SolverError> {
        let mut workspace = SimWorkspace::new(self.config.sim);
        self.solve_with_workspace(problem, &mut workspace)
    }
}

impl HeaSolver {
    /// [`Solver::solve`] with a caller-owned [`SimWorkspace`], reused
    /// across optimizer iterations and repeated solves (the batch runner's
    /// per-worker workspaces go through this entry point).
    pub fn solve_with_workspace(
        &self,
        problem: &Problem,
        workspace: &mut SimWorkspace,
    ) -> Result<SolveOutcome, SolverError> {
        reject_inequalities(problem, "hea")?;
        let n = problem.n_vars();
        check_size(n)?;
        let compile_start = Instant::now();
        let poly = problem.penalty_poly(self.config.penalty);
        let cost_values = poly.values_table(1 << n);
        let layers = self.config.layers;
        let compile = compile_start.elapsed();

        // Small nonzero start breaks the RY(0) saddle.
        let x0 = vec![0.3; Self::n_params(n, layers)];
        let loop_config = QaoaConfig {
            sim: *workspace.config(),
            ..self.config.clone()
        };
        let result = variational_loop(
            &Self::template(n, layers),
            &CostSpec::Table(&cost_values),
            &x0,
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

    fn small_problem() -> Problem {
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
    fn solves_small_problem() {
        let outcome = HeaSolver::new(QaoaConfig::fast_test())
            .solve(&small_problem())
            .unwrap();
        assert_eq!(outcome.counts.shots(), 2000);
        let m = outcome.metrics(&small_problem()).unwrap();
        assert!(m.in_constraints_rate >= 0.0);
        assert!(!outcome.cost_history.is_empty());
    }

    #[test]
    fn param_count_formula() {
        assert_eq!(HeaSolver::n_params(4, 3), 16);
        assert_eq!(HeaSolver::n_params(3, 2), 9);
    }

    #[test]
    fn hea_depth_is_shallow_compared_to_qaoa() {
        // The paper notes HEA's shallow depth (Table II's depth column).
        let outcome = HeaSolver::new(QaoaConfig {
            transpiled_stats: true,
            ..QaoaConfig::fast_test()
        })
        .solve(&small_problem())
        .unwrap();
        let depth = outcome.circuit.transpiled_depth.unwrap();
        // 2 layers × (RY + CZ ladder) + final RY on 3 qubits: shallow.
        assert!(depth < 40, "depth = {depth}");
    }

    #[test]
    fn optimizer_reduces_cost() {
        let outcome = HeaSolver::new(QaoaConfig::fast_test())
            .solve(&small_problem())
            .unwrap();
        let first = outcome.cost_history.first().unwrap();
        let last = outcome.cost_history.last().unwrap();
        assert!(last <= first);
    }

    #[test]
    fn rejects_oversized() {
        let p = Problem::builder(28).linear(0, 1.0).build().unwrap();
        assert!(matches!(
            HeaSolver::default().solve(&p).unwrap_err(),
            SolverError::TooLarge { .. }
        ));
    }
}
