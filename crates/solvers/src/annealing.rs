//! Simulated quantum annealing — the pre-QAOA baseline (§VI-A of the
//! paper: "the first quantum approach to this problem is quantum
//! annealing \[40\]").
//!
//! Adiabatic evolution under `H(s) = (1−s)·H_mix + s·H_problem` with
//! `H_mix = −Σ X_i` and `H_problem` the penalty QUBO, discretized with a
//! first-order Trotter schedule:
//!
//! ```text
//! |ψ⟩ = Π_k  e^{-i·dt·(1−s_k)·H_mix} · e^{-i·dt·s_k·H_problem} |+…+⟩
//! ```
//!
//! There is no variational loop — the schedule *is* the algorithm — which
//! reproduces the weakness the paper cites: constraints are only soft
//! (through the penalty) and good success needs long evolution times.

use crate::shared::{
    check_size, circuit_stats, reject_inequalities, sample_transpiled_noisy, QaoaConfig,
};
use choco_model::{Problem, SolveOutcome, Solver, SolverError, TimingBreakdown};
use choco_qsim::{Circuit, StateVector};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

/// Configuration for [`AnnealingSolver`].
#[derive(Clone, Debug)]
pub struct AnnealingConfig {
    /// Total annealing time `T` (in units of 1/energy).
    pub total_time: f64,
    /// Trotter steps along the schedule.
    pub steps: usize,
    /// Measurement shots.
    pub shots: u64,
    /// Penalty weight λ for the constraints.
    pub penalty: f64,
    /// Sampling seed.
    pub seed: u64,
    /// Optional noisy final sampling (as in the other solvers).
    pub noise: Option<choco_qsim::NoiseModel>,
    /// Monte-Carlo trajectories for noisy sampling.
    pub noise_trajectories: u32,
}

impl Default for AnnealingConfig {
    fn default() -> Self {
        AnnealingConfig {
            total_time: 12.0,
            steps: 64,
            shots: 10_000,
            penalty: 10.0,
            seed: 42,
            noise: None,
            noise_trajectories: 30,
        }
    }
}

/// The simulated quantum annealer.
///
/// # Examples
///
/// ```
/// use choco_model::{Problem, Solver};
/// use choco_solvers::{AnnealingConfig, AnnealingSolver};
///
/// let p = Problem::builder(2)
///     .minimize()
///     .linear(0, 1.0)
///     .linear(1, 2.0)
///     .equality([(0, 1), (1, 1)], 1)
///     .build()
///     .unwrap();
/// let outcome = AnnealingSolver::new(AnnealingConfig::default()).solve(&p).unwrap();
/// assert_eq!(outcome.counts.shots(), 10_000);
/// ```
#[derive(Clone, Debug, Default)]
pub struct AnnealingSolver {
    config: AnnealingConfig,
}

impl AnnealingSolver {
    /// Creates a solver with the given configuration.
    pub fn new(config: AnnealingConfig) -> Self {
        AnnealingSolver { config }
    }

    /// The configuration.
    pub fn config(&self) -> &AnnealingConfig {
        &self.config
    }

    /// Builds the full annealing circuit for a problem.
    pub fn build_circuit(&self, problem: &Problem) -> Circuit {
        let n = problem.n_vars();
        let poly = Arc::new(problem.penalty_poly(self.config.penalty));
        let dt = self.config.total_time / self.config.steps as f64;
        let mut c = Circuit::new(n);
        for q in 0..n {
            c.h(q); // ground state of −Σ X_i
        }
        for k in 1..=self.config.steps {
            let s = k as f64 / (self.config.steps + 1) as f64;
            c.diag(poly.clone(), dt * s);
            // e^{-i·dt·(1−s)·(−Σ X_i)} = Π RX(−2·dt·(1−s))
            for q in 0..n {
                c.rx(q, -2.0 * dt * (1.0 - s));
            }
        }
        c
    }
}

impl Solver for AnnealingSolver {
    fn name(&self) -> &str {
        "annealing"
    }

    fn solve(&self, problem: &Problem) -> Result<SolveOutcome, SolverError> {
        reject_inequalities(problem, "annealing")?;
        let n = problem.n_vars();
        check_size(n)?;
        let compile_start = Instant::now();
        let circuit = self.build_circuit(problem);
        let compile = compile_start.elapsed();

        let stats = circuit_stats(&circuit, vec![], false)?;
        let execute_start = Instant::now();
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let counts = match &self.config.noise {
            None => StateVector::run(&circuit).sample(self.config.shots, &mut rng),
            Some(noise) => sample_transpiled_noisy(
                choco_qsim::SimConfig::default(),
                circuit,
                noise,
                self.config.shots,
                self.config.noise_trajectories,
                &mut rng,
            )?,
        };
        let execute = execute_start.elapsed();

        Ok(SolveOutcome {
            counts,
            cost_history: Vec::new(),
            iterations: 0, // schedule-driven: no classical loop
            circuit: stats,
            timing: TimingBreakdown {
                compile,
                execute,
                classical: std::time::Duration::ZERO,
            },
        })
    }
}

/// Convenience: an annealing config derived from a [`QaoaConfig`]'s shot /
/// penalty / seed settings.
impl From<&QaoaConfig> for AnnealingConfig {
    fn from(q: &QaoaConfig) -> Self {
        AnnealingConfig {
            shots: q.shots,
            penalty: q.penalty,
            seed: q.seed,
            noise: q.noise,
            noise_trajectories: q.noise_trajectories,
            ..AnnealingConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use choco_model::solve_exact;

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
    fn anneal_finds_reasonable_solutions() {
        let p = small_problem();
        let opt = solve_exact(&p).unwrap();
        let outcome = AnnealingSolver::new(AnnealingConfig {
            total_time: 20.0,
            steps: 128,
            ..AnnealingConfig::default()
        })
        .solve(&p)
        .unwrap();
        let m = outcome.metrics_with(&p, &opt);
        // Adiabatic evolution toward the penalty ground state: the optimum
        // carries non-trivial probability, but (soft constraints!) the
        // in-constraints rate is below Choco-Q's 100%.
        assert!(m.success_rate > 0.05, "success = {}", m.success_rate);
        assert!(m.in_constraints_rate > m.success_rate - 1e-12);
        assert_eq!(outcome.iterations, 0);
    }

    #[test]
    fn longer_schedules_improve_adiabaticity() {
        let p = small_problem();
        let opt = solve_exact(&p).unwrap();
        let short = AnnealingSolver::new(AnnealingConfig {
            total_time: 1.0,
            steps: 8,
            ..AnnealingConfig::default()
        })
        .solve(&p)
        .unwrap()
        .metrics_with(&p, &opt);
        let long = AnnealingSolver::new(AnnealingConfig {
            total_time: 24.0,
            steps: 192,
            ..AnnealingConfig::default()
        })
        .solve(&p)
        .unwrap()
        .metrics_with(&p, &opt);
        assert!(
            long.success_rate > short.success_rate,
            "long {} vs short {}",
            long.success_rate,
            short.success_rate
        );
    }

    #[test]
    fn circuit_shape_matches_schedule() {
        let p = small_problem();
        let solver = AnnealingSolver::new(AnnealingConfig {
            steps: 10,
            ..AnnealingConfig::default()
        });
        let c = solver.build_circuit(&p);
        let counts = c.gate_counts();
        assert_eq!(counts["h"], 3);
        assert_eq!(counts["diag"], 10);
        assert_eq!(counts["rx"], 30);
    }

    #[test]
    fn config_from_qaoa() {
        let q = QaoaConfig {
            shots: 1234,
            penalty: 5.0,
            ..QaoaConfig::default()
        };
        let a = AnnealingConfig::from(&q);
        assert_eq!(a.shots, 1234);
        assert_eq!(a.penalty, 5.0);
    }
}
