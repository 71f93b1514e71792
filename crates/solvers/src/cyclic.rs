//! Cyclic-Hamiltonian QAOA (the hard-constraint baseline \[47\]).
//!
//! Encodes *summation-format* constraints (all coefficients `+1` or all
//! `-1`, e.g. `x1 + x2 + x4 = 1`) into the driver Hamiltonian as an XY ring
//! mixer (Eq. (2) of the paper):
//!
//! ```text
//! H_d = Σ_i X_i X_{i+1} + Y_i Y_{i+1}    over the constraint's variables
//! ```
//!
//! which preserves the Hamming weight of the involved qubits. Limitations
//! faithfully reproduced from the paper's analysis (§III):
//!
//! * only summation-format equations can be encoded;
//! * two encoded equations cannot share variables (both rings would have to
//!   own the qubit) — overlapping ones fall back to penalty terms;
//! * everything unencoded is handled softly, so the in-constraints rate
//!   degrades exactly the way Table II shows.

use crate::shared::{
    check_size, circuit_stats, ramp_initial_params, reject_inequalities, variational_loop,
    CostSpec, QaoaConfig,
};
use choco_mathkit::{LinEq, LinSystem};
use choco_model::{Problem, SolveOutcome, Solver, SolverError};
use choco_qsim::SimWorkspace;
use choco_qsim::{Circuit, CircuitTemplate, Gate, PhasePoly};
use std::sync::Arc;
use std::time::Instant;

/// The cyclic-Hamiltonian QAOA solver.
#[derive(Clone, Debug, Default)]
pub struct CyclicQaoaSolver {
    config: QaoaConfig,
}

/// Which constraints the encoder managed to make *hard*.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CyclicEncoding {
    /// Indices (into `problem.constraints().eqs()`) of ring-encoded
    /// equations.
    pub encoded: Vec<usize>,
    /// Indices of equations left to the penalty term.
    pub soft: Vec<usize>,
}

impl CyclicQaoaSolver {
    /// Creates a solver with the given configuration.
    pub fn new(config: QaoaConfig) -> Self {
        CyclicQaoaSolver { config }
    }

    /// The configuration.
    pub fn config(&self) -> &QaoaConfig {
        &self.config
    }

    /// Greedily selects the constraints the cyclic driver can encode:
    /// summation format, variable-disjoint from previously selected ones.
    pub fn plan_encoding(problem: &Problem) -> CyclicEncoding {
        let mut used = vec![false; problem.n_vars()];
        let mut encoded = Vec::new();
        let mut soft = Vec::new();
        for (idx, eq) in problem.constraints().eqs().iter().enumerate() {
            let disjoint = eq.variables().all(|v| !used[v]);
            if eq.is_summation_format() && disjoint && eq.terms.len() >= 2 {
                for v in eq.variables() {
                    used[v] = true;
                }
                encoded.push(idx);
            } else {
                soft.push(idx);
            }
        }
        CyclicEncoding { encoded, soft }
    }

    /// The circuit over parameters `[γ_1, β_1, …, γ_L, β_L]`: load
    /// `initial`, then per layer `e^{-iγ_l·poly}` and an XY ring mixer
    /// `e^{-iβ_l(XX+YY)}` over consecutive (and closing) pairs of each
    /// ring.
    pub fn template(
        n: usize,
        initial: u64,
        rings: &[Vec<usize>],
        poly: &Arc<PhasePoly>,
        layers: usize,
    ) -> CircuitTemplate {
        let mut base = Circuit::new(n);
        base.load_bits(initial);
        let mut template = CircuitTemplate::new(base);
        for l in 0..layers {
            template.push_slot(Gate::DiagPhase(poly.clone(), 0.0), 2 * l, 1.0);
            for ring in rings {
                for w in ring.windows(2) {
                    template.push_slot(Gate::XyMix(w[0], w[1], 0.0), 2 * l + 1, 1.0);
                }
                if ring.len() > 2 {
                    let (last, first) = (ring[ring.len() - 1], ring[0]);
                    template.push_slot(Gate::XyMix(last, first, 0.0), 2 * l + 1, 1.0);
                }
            }
        }
        template
    }
}

impl Solver for CyclicQaoaSolver {
    fn name(&self) -> &str {
        "cyclic-qaoa"
    }

    fn solve(&self, problem: &Problem) -> Result<SolveOutcome, SolverError> {
        let mut workspace = SimWorkspace::new(self.config.sim);
        self.solve_with_workspace(problem, &mut workspace)
    }
}

impl CyclicQaoaSolver {
    /// [`Solver::solve`] with a caller-owned [`SimWorkspace`], reused
    /// across optimizer iterations and repeated solves (the batch runner's
    /// per-worker workspaces go through this entry point).
    pub fn solve_with_workspace(
        &self,
        problem: &Problem,
        workspace: &mut SimWorkspace,
    ) -> Result<SolveOutcome, SolverError> {
        reject_inequalities(problem, "cyclic-qaoa")?;
        let n = problem.n_vars();
        check_size(n)?;
        let compile_start = Instant::now();

        let encoding = Self::plan_encoding(problem);
        if encoding.encoded.is_empty() {
            return Err(SolverError::Unsupported(
                "no disjoint summation-format constraint for the cyclic driver".into(),
            ));
        }

        // Ring mixers: consecutive pairs + closing pair per encoded equation.
        let mut rings: Vec<Vec<usize>> = Vec::new();
        for &idx in &encoding.encoded {
            let vars: Vec<usize> = problem.constraints().eqs()[idx].variables().collect();
            rings.push(vars);
        }

        // Initial state: a solution of the *encoded* equations (Fig. 2d),
        // extended by zeros elsewhere.
        let mut encoded_sys = LinSystem::new(n);
        for &idx in &encoding.encoded {
            let eq = &problem.constraints().eqs()[idx];
            encoded_sys.push(LinEq::new(eq.terms.to_vec(), eq.rhs));
        }
        let initial = encoded_sys
            .first_binary_solution()
            .ok_or(SolverError::Infeasible)?;

        // Soft part: objective + penalties for the *unencoded* constraints.
        let mut soft_poly = problem.cost_poly();
        {
            let mut soft_sys = Problem::builder(n);
            for &idx in &encoding.soft {
                let eq = &problem.constraints().eqs()[idx];
                soft_sys = soft_sys.equality(eq.terms.to_vec(), eq.rhs);
            }
            let soft_problem = soft_sys.build().map_err(|e| {
                SolverError::Encoding(format!("penalty sub-problem build failed: {e}"))
            })?;
            // The sub-problem has a zero objective, so its penalty_poly is
            // exactly the soft penalty terms.
            soft_poly.add_scaled(&soft_problem.penalty_poly(self.config.penalty), 1.0);
        }
        // Interned so equal-content polynomials share one `Arc` across
        // solves — keeps compact plans replayable cache-wide.
        let poly = workspace.intern_poly(soft_poly);
        let cost_values = poly.values_table(1 << n);
        let layers = self.config.layers;
        let compile = compile_start.elapsed();

        let loop_config = QaoaConfig {
            sim: *workspace.config(),
            ..self.config.clone()
        };
        let result = variational_loop(
            &Self::template(n, initial, &rings, &poly, layers),
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

    /// One summation constraint: the ring driver keeps it *hard*.
    fn summation_problem() -> Problem {
        Problem::builder(3)
            .maximize()
            .linear(0, 1.0)
            .linear(1, 3.0)
            .linear(2, 2.0)
            .equality([(0, 1), (1, 1), (2, 1)], 1)
            .build()
            .unwrap()
    }

    #[test]
    fn encoding_plan_selects_disjoint_summations() {
        // eq0: summation; eq1: shares x1 with eq0 → soft; eq2: mixed signs → soft.
        let p = Problem::builder(5)
            .equality([(0, 1), (1, 1)], 1)
            .equality([(1, 1), (2, 1)], 1)
            .equality([(3, 1), (4, -1)], 0)
            .build()
            .unwrap();
        let plan = CyclicQaoaSolver::plan_encoding(&p);
        assert_eq!(plan.encoded, vec![0]);
        assert_eq!(plan.soft, vec![1, 2]);
    }

    #[test]
    fn hard_constraint_is_never_violated() {
        // The ring mixer preserves Hamming weight exactly, so every sampled
        // state satisfies the encoded constraint: this is the "hard
        // constraint" property of the driver-Hamiltonian approach.
        let p = summation_problem();
        let outcome = CyclicQaoaSolver::new(QaoaConfig::fast_test())
            .solve(&p)
            .unwrap();
        let m = outcome.metrics(&p).unwrap();
        assert!(
            (m.in_constraints_rate - 1.0).abs() < 1e-9,
            "ring driver must keep the summation constraint hard: {}",
            m.in_constraints_rate
        );
    }

    #[test]
    fn finds_good_solutions_on_its_home_turf() {
        let p = summation_problem();
        let opt = solve_exact(&p).unwrap();
        let outcome = CyclicQaoaSolver::new(QaoaConfig {
            layers: 3,
            max_iters: 100,
            ..QaoaConfig::fast_test()
        })
        .solve(&p)
        .unwrap();
        let p_opt: f64 = opt
            .solutions
            .iter()
            .map(|&s| outcome.counts.probability(s))
            .sum();
        assert!(p_opt > 0.2, "p(optimal) = {p_opt}");
    }

    #[test]
    fn mixed_sign_constraints_leak_probability() {
        // max 20·x0 s.t. x0 + x1 = 1 (ring-encodable) and x0 − x2 = 0
        // (mixed signs → soft). x2 has no mixer and freezes at the initial
        // value 0, so the reward pulls probability onto x0 = 1 where the
        // soft equation is violated — the Figure 1(a) leakage.
        let p = Problem::builder(3)
            .maximize()
            .linear(0, 20.0)
            .equality([(0, 1), (1, 1)], 1) // encodable ring
            .equality([(0, 1), (2, -1)], 0) // soft
            .build()
            .unwrap();
        let outcome = CyclicQaoaSolver::new(QaoaConfig {
            layers: 3,
            max_iters: 80,
            ..QaoaConfig::fast_test()
        })
        .solve(&p)
        .unwrap();
        let m = outcome.metrics(&p).unwrap();
        // The soft equation does not hold with certainty (Table II's
        // in-constraints gap) …
        assert!(
            m.in_constraints_rate < 1.0 - 1e-6,
            "in-constraints = {}",
            m.in_constraints_rate
        );
        // … and the true optimum x = (1,0,1) is unreachable because x2 is
        // frozen: success rate collapses.
        assert!(m.success_rate < 1e-9, "success = {}", m.success_rate);
        // But the ring constraint itself is exact:
        let ring_ok = outcome
            .counts
            .mass_where(|bits| (bits & 1) + ((bits >> 1) & 1) == 1);
        assert!((ring_ok - 1.0).abs() < 1e-9);
    }

    #[test]
    fn unencodable_problem_is_rejected() {
        let p = Problem::builder(2)
            .equality([(0, 1), (1, -1)], 0)
            .build()
            .unwrap();
        let err = CyclicQaoaSolver::default().solve(&p).unwrap_err();
        assert!(matches!(err, SolverError::Unsupported(_)));
    }

    #[test]
    fn two_variable_ring_uses_single_pair() {
        let p = Problem::builder(2)
            .maximize()
            .linear(1, 1.0)
            .equality([(0, 1), (1, 1)], 1)
            .build()
            .unwrap();
        let outcome = CyclicQaoaSolver::new(QaoaConfig::fast_test())
            .solve(&p)
            .unwrap();
        let m = outcome.metrics(&p).unwrap();
        assert!((m.in_constraints_rate - 1.0).abs() < 1e-9);
        // optimum: x1 = 1 → bits 0b10
        assert!(outcome.counts.probability(0b10) > 0.3);
    }
}
