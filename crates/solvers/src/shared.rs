//! Shared machinery for every variational solver: configuration, the
//! optimize-then-sample loop, and transpiled-circuit statistics.

use choco_model::{CircuitStats, SolverError, TimingBreakdown};
use choco_optim::OptimizerKind;
use choco_qsim::{
    transpile, transpile_into, Circuit, CircuitTemplate, Counts, EngineKind, NoiseModel, PhasePoly,
    SimConfig, SimWorkspace, StatsSink, TranspileOptions, MAX_QUBITS,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Maximum register size any solver will simulate on the **dense**
/// engine (a `2^26` amplitude buffer is 1 GiB).
pub const MAX_SIM_QUBITS: usize = 26;

/// Configuration shared by all QAOA-family solvers.
#[derive(Clone, Debug)]
pub struct QaoaConfig {
    /// Number of repeated layers `L` (the paper uses 7 for the baselines
    /// and 1 for Choco-Q in Table II).
    pub layers: usize,
    /// Measurement shots for the final sample.
    pub shots: u64,
    /// Classical optimizer iteration budget.
    pub max_iters: usize,
    /// Which classical optimizer to run.
    pub optimizer: OptimizerKind,
    /// Penalty weight λ for soft-constraint encodings.
    pub penalty: f64,
    /// Seed for measurement sampling.
    pub seed: u64,
    /// Also transpile the final circuit and record basic-gate statistics
    /// (depth / gate counts). Cheap for these circuit sizes.
    pub transpiled_stats: bool,
    /// When set, the *final* sampling runs the transpiled circuit through
    /// this stochastic noise model (parameters are still optimized
    /// noiselessly — "tune on the simulator, deploy on the device"). Used
    /// by the hardware experiments (Fig. 10/13b/14).
    pub noise: Option<NoiseModel>,
    /// Monte-Carlo error trajectories for noisy sampling.
    pub noise_trajectories: u32,
    /// State-vector engine configuration (worker threads, parallel
    /// threshold) used by the variational loop's [`SimWorkspace`].
    pub sim: SimConfig,
    /// Cooperative wall-clock deadline. Checked at the top of every
    /// objective evaluation (before any circuit is built or executed):
    /// once it passes, the remaining optimizer iterations become cheap
    /// no-ops, final sampling is skipped, and the loop reports
    /// [`LoopResult::deadline_exceeded`] — which the solvers surface as
    /// [`SolverError::Timeout`]. `None` (the default) never expires.
    pub deadline: Option<Instant>,
    /// Cooperative cancellation flag, checked at the same point as
    /// [`QaoaConfig::deadline`]: once another thread sets it, the solve
    /// drains exactly like an expired deadline and surfaces
    /// [`SolverError::Timeout`]. This is how a long-lived scheduler (the
    /// serve daemon's `cancel` op) interrupts an in-flight solve without
    /// killing its thread. `None` (the default) never cancels.
    pub cancel: Option<std::sync::Arc<std::sync::atomic::AtomicBool>>,
}

impl Default for QaoaConfig {
    fn default() -> Self {
        QaoaConfig {
            layers: 7,
            shots: 10_000,
            max_iters: 100,
            optimizer: OptimizerKind::default(),
            penalty: 10.0,
            seed: 42,
            transpiled_stats: true,
            noise: None,
            noise_trajectories: 30,
            sim: SimConfig::default(),
            deadline: None,
            cancel: None,
        }
    }
}

impl QaoaConfig {
    /// A cheap configuration for unit tests (fewer shots/iterations).
    pub fn fast_test() -> Self {
        QaoaConfig {
            layers: 2,
            shots: 2_000,
            max_iters: 40,
            transpiled_stats: false,
            ..QaoaConfig::default()
        }
    }
}

/// Rejects instances that would not fit the dense simulator.
pub fn check_size(required_qubits: usize) -> Result<(), SolverError> {
    check_size_for(required_qubits, EngineKind::Dense)
}

/// Rejects native-inequality instances for the soft-constraint baselines.
///
/// Their penalty Hamiltonian ([`choco_model::Problem::penalty_poly`])
/// expands *equality* rows only, so a first-class `≤` row would be
/// silently dropped from the objective — the solve would "succeed" while
/// optimizing a different problem. Solvers whose feasibility handling is
/// exact (Choco-Q's driver-level slack registers, Grover's classical
/// oracle) do not call this.
pub fn reject_inequalities(
    problem: &choco_model::Problem,
    solver: &str,
) -> Result<(), SolverError> {
    if problem.has_inequalities() {
        return Err(SolverError::Unsupported(format!(
            "`{}` has native `<=` rows, which {solver}'s soft penalty cannot encode \
             (it expands equality rows only and would silently ignore the budget); \
             use the choco solver, or re-encode the instance with explicit slack \
             variables (e.g. the knapsack `slack` encoding)",
            problem.name()
        )));
    }
    Ok(())
}

/// Engine-aware size gate: the dense engine stops at [`MAX_SIM_QUBITS`];
/// the compact engine accepts anything the circuit IR can express
/// ([`MAX_QUBITS`]) because a feasible-subspace solve never allocates
/// `2^n` of anything (its storage is `|F|` amplitudes plus its compiled
/// rank tables). A shape that refuses its plan runs dense, which only
/// fits up to [`choco_qsim::MAX_DENSIFY_QUBITS`]; wider refusals panic in
/// the simulator instead of exhausting memory.
pub fn check_size_for(required_qubits: usize, engine: EngineKind) -> Result<(), SolverError> {
    let limit = match engine {
        EngineKind::Dense => MAX_SIM_QUBITS,
        EngineKind::Compact => MAX_QUBITS,
    };
    if required_qubits > limit {
        Err(SolverError::TooLarge {
            required: required_qubits,
            limit,
        })
    } else {
        Ok(())
    }
}

/// The diagonal cost a variational loop minimizes: a materialized `2^n`
/// table (for registers up to [`MAX_SIM_QUBITS`]; Choco-Q tabulates only
/// on the dense engine) or the bare polynomial (table-free). Both give the
/// same bits on every engine. The polynomial is what a compact Choco-Q
/// solve uses — the compact state reads the values its plan baked per
/// feasible-basis rank — and the only option for registers too wide to
/// tabulate.
pub enum CostSpec<'a> {
    /// A per-basis-state value table of length `2^n`.
    Table(&'a [f64]),
    /// The cost polynomial itself.
    Poly(&'a PhasePoly),
}

impl CostSpec<'_> {
    /// The cost of one assignment.
    pub fn value(&self, bits: u64) -> f64 {
        match self {
            CostSpec::Table(values) => values[bits as usize],
            CostSpec::Poly(poly) => poly.eval_bits(bits),
        }
    }

    /// Expectation on an engine state: a serial run or one lane of a
    /// batched replay, which read the same bits.
    pub fn expectation(&self, state: choco_qsim::SimEngine<'_>) -> f64 {
        match self {
            CostSpec::Table(values) => state.expectation_diag_values(values),
            CostSpec::Poly(poly) => state.expectation_diag_poly(poly),
        }
    }
}

/// The variational objective handed to the optimizers: maps a parameter
/// vector to `E[cost]` through one template run, and evaluates groups of
/// independent candidates through [`SimWorkspace::run_template_batch`],
/// one plan traversal per chunk of up to 16 candidates.
///
/// Bit-identity: a serial compact run and every lane of a batched one
/// go through the same plan replay,
/// whose per-lane IEEE expression sequence does not depend on the batch
/// width, so every value this objective returns is identical whether it
/// went through `eval`, a batched chunk, or the serial fallback —
/// optimizer trajectories cannot depend on how a group was chunked.
struct BatchedObjective<'a> {
    template: &'a CircuitTemplate,
    cost: &'a CostSpec<'a>,
    config: &'a QaoaConfig,
    workspace: &'a std::cell::RefCell<&'a mut SimWorkspace>,
    deadline_hit: &'a std::cell::Cell<bool>,
    execute_time: &'a std::cell::Cell<std::time::Duration>,
}

impl BatchedObjective<'_> {
    /// The sticky cooperative-deadline check shared by both evaluation
    /// paths: returns `true` once [`QaoaConfig::deadline`] has passed or
    /// [`QaoaConfig::cancel`] has been set.
    fn deadline_expired(&self) -> bool {
        if self.deadline_hit.get() {
            return true;
        }
        let cancelled = self
            .config
            .cancel
            .as_ref()
            .is_some_and(|flag| flag.load(std::sync::atomic::Ordering::SeqCst));
        if cancelled || self.config.deadline.is_some_and(|d| Instant::now() >= d) {
            self.deadline_hit.set(true);
            return true;
        }
        false
    }
}

impl choco_optim::Objective for BatchedObjective<'_> {
    fn eval(&mut self, params: &[f64]) -> f64 {
        if self.deadline_expired() {
            return f64::INFINITY;
        }
        let t0 = Instant::now();
        let mut ws = self.workspace.borrow_mut();
        let value = self
            .cost
            .expectation(ws.run_template(self.template, params));
        self.execute_time
            .set(self.execute_time.get() + t0.elapsed());
        value
    }

    fn eval_batch(&mut self, xs: &[Vec<f64>], out: &mut Vec<f64>) {
        out.clear();
        let mut rest = xs;
        while !rest.is_empty() {
            // The sticky deadline check fires once per chunk: when it
            // trips, every remaining candidate gets `+inf`.
            if self.deadline_expired() {
                out.extend(std::iter::repeat_n(f64::INFINITY, rest.len()));
                return;
            }
            let t0 = Instant::now();
            let mut ws = self.workspace.borrow_mut();
            let done = match ws.run_template_batch(self.template, rest) {
                Some(batch) => {
                    out.extend((0..batch.lanes()).map(|i| self.cost.expectation(batch.lane(i))));
                    batch.lanes()
                }
                // Batching doesn't apply (dense engine, refused shape,
                // a plan too wide for two lanes): one candidate serially.
                None => {
                    out.push(
                        self.cost
                            .expectation(ws.run_template(self.template, &rest[0])),
                    );
                    1
                }
            };
            rest = &rest[done..];
            self.execute_time
                .set(self.execute_time.get() + t0.elapsed());
        }
    }
}

/// Result of [`variational_loop`].
pub struct LoopResult {
    /// Final measurement histogram (over the full register — callers mask
    /// ancillas out themselves if needed).
    pub counts: Counts,
    /// Best-so-far cost per optimizer iteration.
    pub cost_history: Vec<f64>,
    /// Optimizer iterations executed.
    pub iterations: usize,
    /// The final circuit (at the best parameters).
    pub final_circuit: Circuit,
    /// Timing: `execute` covers state-vector runs, `classical` the
    /// optimizer bookkeeping around them.
    pub timing: TimingBreakdown,
    /// Whether [`QaoaConfig::deadline`] expired mid-loop. When `true` the
    /// final sampling pass was skipped and `counts` is empty — callers
    /// must treat the result as failed ([`SolverError::Timeout`]), never
    /// report its metrics.
    pub deadline_exceeded: bool,
}

/// The optimize-then-sample loop common to all solvers:
/// minimize `E[cost]` over the circuit parameters, then sample the final
/// circuit.
///
/// `template` is the circuit with its angles taken from the parameter
/// vector; `cost` is the diagonal (minimization convention) whose expectation is
/// optimized — a `2^n` table or a bare polynomial (see [`CostSpec`]).
/// Every state execution runs through `workspace` (and therefore through
/// whichever [`choco_qsim::SimEngine`] its configuration selects), so
/// evaluations after the first build no circuit and allocate no state,
/// and re-used `PhasePoly` diagonals are expanded once, not once per
/// iteration. Callers own the workspace and may share it across restarts
/// and elimination branches.
pub fn variational_loop(
    template: &CircuitTemplate,
    cost: &CostSpec<'_>,
    x0: &[f64],
    config: &QaoaConfig,
    workspace: &mut SimWorkspace,
) -> LoopResult {
    if let CostSpec::Table(values) = cost {
        let n_qubits = template.circuit().n_qubits();
        assert_eq!(values.len(), 1 << n_qubits, "cost table size mismatch");
    }
    let loop_start = Instant::now();

    // Cooperative deadline: checked before each objective evaluation so a
    // hung cell can never block longer than one circuit execution. Once
    // tripped, the flag is sticky — every remaining iteration returns
    // `+inf` without touching the engine, so the optimizer drains its
    // budget in microseconds instead of being aborted mid-state.
    let deadline_hit = std::cell::Cell::new(false);
    let execute_cell = std::cell::Cell::new(std::time::Duration::ZERO);
    let result = {
        let workspace = std::cell::RefCell::new(&mut *workspace);
        let objective = BatchedObjective {
            template,
            cost,
            config,
            workspace: &workspace,
            deadline_hit: &deadline_hit,
            execute_time: &execute_cell,
        };
        config
            .optimizer
            .minimize_obj(config.max_iters, objective, x0)
    };
    let mut execute_time = execute_cell.get();

    let final_circuit = template.bind(&result.best_params);
    if deadline_hit.get() {
        let total = loop_start.elapsed();
        return LoopResult {
            counts: Counts::new(),
            cost_history: result.history,
            iterations: result.iterations,
            final_circuit,
            timing: TimingBreakdown {
                compile: std::time::Duration::ZERO,
                execute: execute_time,
                classical: total.saturating_sub(execute_time),
            },
            deadline_exceeded: true,
        };
    }
    let t0 = Instant::now();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let counts = match &config.noise {
        None => {
            workspace.run_template(template, &result.best_params);
            workspace.sample(config.shots, &mut rng)
        }
        Some(noise) => sample_transpiled_noisy(
            config.sim,
            final_circuit.clone(),
            noise,
            config.shots,
            config.noise_trajectories,
            &mut rng,
        )
        .unwrap_or_else(|_| {
            workspace.run(&final_circuit);
            workspace.sample(config.shots, &mut rng)
        }),
    };
    execute_time += t0.elapsed();

    let total = loop_start.elapsed();
    LoopResult {
        counts,
        cost_history: result.history,
        iterations: result.iterations,
        final_circuit,
        timing: TimingBreakdown {
            compile: std::time::Duration::ZERO,
            execute: execute_time,
            classical: total.saturating_sub(execute_time),
        },
        deadline_exceeded: false,
    }
}

/// Samples a structured circuit under noise: widens it by the paper's two
/// clean ancillas (needed by multi-controlled lowering), transpiles, runs
/// Monte-Carlo noisy execution, and masks the ancilla bits out of the
/// outcomes.
///
/// # Errors
///
/// Returns [`SolverError::Transpile`] if lowering fails.
pub fn sample_transpiled_noisy<R: rand::Rng>(
    sim: SimConfig,
    circuit: Circuit,
    noise: &NoiseModel,
    shots: u64,
    trajectories: u32,
    rng: &mut R,
) -> Result<Counts, SolverError> {
    let n = circuit.n_qubits();
    let wide = circuit.widened(n + 2);
    let lowered = transpile(&wide, &TranspileOptions::with_ancillas(vec![n, n + 1]))
        .map_err(|e| SolverError::Transpile(e.to_string()))?;
    let raw = noise.sample_noisy_with(sim, &lowered, shots, trajectories, rng);
    let mask = (1u64 << n) - 1;
    Ok(raw.map_bits(|bits| bits & mask))
}

/// Fills in transpiled statistics for a final circuit when requested.
pub fn circuit_stats(
    circuit: &Circuit,
    ancillas: Vec<usize>,
    want_transpiled: bool,
) -> Result<CircuitStats, SolverError> {
    let mut stats = CircuitStats {
        qubits: circuit.n_qubits(),
        logical_depth: circuit.depth(),
        transpiled_depth: None,
        transpiled_gates: None,
        two_qubit_gates: None,
    };
    if want_transpiled {
        // Counted as the lowering streams out: the lowered circuit (about
        // 400k gates for the largest suite classes) is never stored.
        let mut lowered = StatsSink::new(circuit.n_qubits());
        transpile_into(
            circuit,
            &TranspileOptions::with_ancillas(ancillas),
            &mut lowered,
        )
        .map_err(|e| SolverError::Transpile(e.to_string()))?;
        stats.transpiled_depth = Some(lowered.depth());
        stats.transpiled_gates = Some(lowered.gates());
        stats.two_qubit_gates = Some(lowered.two_qubit_gates());
    }
    Ok(stats)
}

/// A standard linear-ramp initial parameter vector for QAOA:
/// `γ_l` ramps up, `β_l` ramps down — layout `[γ_1, β_1, …, γ_L, β_L]`.
pub fn ramp_initial_params(layers: usize) -> Vec<f64> {
    let mut x0 = Vec::with_capacity(2 * layers);
    for l in 0..layers {
        let t = (l as f64 + 1.0) / layers as f64;
        x0.push(0.4 * t); // γ
        x0.push(0.4 * (1.0 - t) + 0.1); // β
    }
    x0
}

#[cfg(test)]
mod tests {
    use super::*;
    use choco_qsim::Gate;
    use std::sync::Arc;

    #[test]
    fn check_size_boundaries() {
        assert!(check_size(MAX_SIM_QUBITS).is_ok());
        assert!(matches!(
            check_size(MAX_SIM_QUBITS + 1),
            Err(SolverError::TooLarge { .. })
        ));
    }

    #[test]
    fn sparse_engines_lift_the_size_gate() {
        // The dense cap exists because of the 2^n buffer; the compact
        // engine goes to the circuit IR's limit.
        assert!(check_size_for(MAX_SIM_QUBITS + 2, EngineKind::Compact).is_ok());
        assert!(matches!(
            check_size_for(MAX_QUBITS + 1, EngineKind::Compact),
            Err(SolverError::TooLarge { .. })
        ));
        assert!(matches!(
            check_size_for(MAX_SIM_QUBITS + 2, EngineKind::Dense),
            Err(SolverError::TooLarge { .. })
        ));
    }

    #[test]
    fn cost_spec_table_and_poly_agree() {
        let mut poly = PhasePoly::new(3);
        poly.add_linear(0, 2.0);
        poly.add_quadratic(1, 2, -1.0);
        let table: Vec<f64> = (0..8u64).map(|b| poly.eval_bits(b)).collect();
        let spec_t = CostSpec::Table(&table);
        let spec_p = CostSpec::Poly(&poly);
        for bits in 0..8u64 {
            assert_eq!(spec_t.value(bits), spec_p.value(bits));
        }
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).ry(2, 0.7);
        let mut ws = SimWorkspace::new(SimConfig::serial());
        let state = ws.run(&c);
        assert!((spec_t.expectation(state) - spec_p.expectation(state)).abs() < 1e-12);
    }

    #[test]
    fn ramp_params_shape() {
        let x0 = ramp_initial_params(3);
        assert_eq!(x0.len(), 6);
        assert!(x0[0] < x0[2] && x0[2] < x0[4], "γ ramps up");
        assert!(x0[1] > x0[3] && x0[3] > x0[5], "β ramps down");
    }

    /// One `Rx(θ)` on one qubit.
    fn rx_template() -> CircuitTemplate {
        let mut template = CircuitTemplate::new(Circuit::new(1));
        template.push_slot(Gate::Rx(0, 0.0), 0, 1.0);
        template
    }

    #[test]
    fn variational_loop_optimizes_a_single_qubit() {
        // cost = P(|1⟩); circuit = Rx(θ). Optimum: θ = 0 (stay at |0⟩)
        // from a poor start.
        let cost = vec![0.0, 1.0];
        let config = QaoaConfig {
            layers: 1,
            shots: 2000,
            max_iters: 60,
            transpiled_stats: false,
            ..QaoaConfig::default()
        };
        let mut workspace = SimWorkspace::new(SimConfig::serial().with_engine(EngineKind::Dense));
        let result = variational_loop(
            &rx_template(),
            &CostSpec::Table(&cost),
            &[2.0],
            &config,
            &mut workspace,
        );
        assert_eq!(
            workspace.reallocations(),
            1,
            "optimizer iterations must reuse the amplitude buffer"
        );
        assert!(
            *result.cost_history.last().unwrap() < 0.05,
            "history: {:?}",
            result.cost_history
        );
        assert!(result.counts.probability(0) > 0.9);
        assert!(result.iterations > 0);
    }

    /// A 3-qubit loop the compact engine can plan: superpose, then
    /// `layers` rounds of phasing with the cost diagonal and mixing, two
    /// angles per round. Cost favors |000⟩.
    fn run_confined_loop(sim: SimConfig, layers: usize) -> (LoopResult, u64) {
        let mut poly = PhasePoly::new(3);
        poly.add_linear(0, 1.0);
        poly.add_linear(1, 2.0);
        poly.add_quadratic(0, 2, 0.5);
        let table: Vec<f64> = (0..8u64).map(|b| poly.eval_bits(b)).collect();
        let poly = Arc::new(poly);
        let config = QaoaConfig {
            layers,
            shots: 2_000,
            max_iters: 30,
            transpiled_stats: false,
            sim,
            ..QaoaConfig::default()
        };
        let mut workspace = SimWorkspace::new(sim);
        let x0: Vec<f64> = (0..2 * layers)
            .map(|i| 0.3 + 0.2 * (i % 2) as f64)
            .collect();
        let mut base = Circuit::new(3);
        base.h(0).h(1).h(2);
        let mut template = CircuitTemplate::new(base);
        for l in 0..layers {
            template.push_slot(Gate::DiagPhase(poly.clone(), 0.0), 2 * l, 1.0);
            for q in 0..3 {
                template.push_slot(Gate::Rx(q, 0.0), 2 * l + 1, 1.0);
            }
        }
        let result = variational_loop(
            &template,
            &CostSpec::Table(&table),
            &x0,
            &config,
            &mut workspace,
        );
        (result, workspace.plan_compilations())
    }

    #[test]
    fn batched_loop_is_bit_identical_to_serial_and_compiles_once() {
        // The compact engine replays every candidate group batched; the
        // dense engine declines `run_batch` and replays serially. Nine
        // layers give COBYLA a 19-point simplex, split into a full
        // `MAX_BATCH_LANES` chunk and a remainder.
        for layers in [1usize, 9] {
            let (serial, _) =
                run_confined_loop(SimConfig::serial().with_engine(EngineKind::Dense), layers);
            let (batched, compilations) = run_confined_loop(SimConfig::serial(), layers);
            assert_eq!(serial.counts, batched.counts, "{layers} layers");
            assert_eq!(serial.cost_history, batched.cost_history, "{layers} layers");
            assert_eq!(serial.iterations, batched.iterations, "{layers} layers");
            assert_eq!(compilations, 1, "{layers} layers must reuse one plan");
        }
    }

    #[test]
    fn expired_deadline_is_honored_inside_the_batched_loop() {
        let expired = Some(Instant::now() - std::time::Duration::from_secs(1));
        let mut results = Vec::new();
        for engine in [EngineKind::Dense, EngineKind::Compact] {
            let sim = SimConfig::serial().with_engine(engine);
            let config = QaoaConfig {
                layers: 1,
                shots: 2_000,
                max_iters: 25,
                transpiled_stats: false,
                sim,
                deadline: expired,
                ..QaoaConfig::default()
            };
            let mut workspace = SimWorkspace::new(sim);
            let result = variational_loop(
                &rx_template(),
                &CostSpec::Table(&[0.0, 1.0]),
                &[2.0],
                &config,
                &mut workspace,
            );
            assert!(result.deadline_exceeded, "{engine}");
            assert_eq!(result.counts, Counts::new(), "{engine}: sampling skipped");
            assert!(
                result.cost_history.iter().all(|v| v.is_infinite()),
                "{engine}: every evaluation must short-circuit to +inf"
            );
            assert_eq!(workspace.plan_compilations(), 0, "{engine}: compiled");
            results.push(result);
        }
        // The sticky check fires before each chunk on either engine, so
        // the drained trajectories are identical.
        assert_eq!(results[0].cost_history, results[1].cost_history);
        assert_eq!(results[0].iterations, results[1].iterations);
    }

    #[test]
    fn circuit_stats_with_and_without_transpile() {
        let mut poly = choco_qsim::PhasePoly::new(2);
        poly.add_quadratic(0, 1, 1.0);
        let mut c = Circuit::new(2);
        c.h(0).h(1).diag(Arc::new(poly), 0.3);
        let basic = circuit_stats(&c, vec![], false).unwrap();
        assert_eq!(basic.qubits, 2);
        assert!(basic.transpiled_depth.is_none());
        let full = circuit_stats(&c, vec![], true).unwrap();
        assert!(full.transpiled_depth.unwrap() >= full.logical_depth);
        assert!(full.two_qubit_gates.unwrap() > 0);
    }
}
