//! The Choco-Q solver (§III–IV of the paper).
//!
//! Pipeline per solve:
//!
//! 1. **Variable elimination** (optional, §IV-C): drop the `k` most-shared
//!    variables; one sub-circuit per assignment.
//! 2. **Driver construction** (Eq. (5)): Δ = ternary kernel basis of `C`.
//! 3. **Circuit**: load one feasible solution, then `L` layers of
//!    `e^{-iγ_l H_o}` followed by the serialized driver
//!    `Π_{u∈Δ} e^{-iβ_l Hc(u)}` (Lemma 1).
//! 4. **Optimization**: minimize `E[cost]` (COBYLA by default, the
//!    paper's optimizer) — no penalty term; the constraints hold *by
//!    construction*, which is where the 100% in-constraints rate of
//!    Table II comes from. The multistart layer is a deterministic
//!    parallel scheduler: every `(branch × restart)` loop's initial
//!    state, angle jitter, and sampling seed are pre-derived from the
//!    restart's own coordinates ([`restart_loop_seed`]), the loops fan
//!    out over [`ChocoQConfig::restart_workers`] scoped workers (each
//!    owning a [`SimWorkspace`] that shares the caller's compiled-plan
//!    cache), and winners reduce by lowest CVaR with ties broken by
//!    restart coordinate — so results are byte-identical at any worker
//!    count.
//! 5. **Sampling**: merge branch histograms, lifting reduced bitstrings
//!    back to the full variable space.

use crate::driver::{encoded_qubits_for, CommuteDriver, DriverTerm};
use crate::elimination::{plan_elimination, EliminationPlan};
use choco_mathkit::SplitMix64;
use choco_model::{Problem, SolveOutcome, Solver, SolverError, TimingBreakdown};
use choco_optim::OptimizerKind;
use choco_qsim::{
    Circuit, CircuitTemplate, Counts, EngineKind, Gate, PhasePoly, SimConfig, SimWorkspace,
    MAX_QUBITS,
};
use choco_solvers::shared::{
    check_size_for, circuit_stats, variational_loop, CostSpec, QaoaConfig,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Configuration for [`ChocoQSolver`].
#[derive(Clone, Debug)]
pub struct ChocoQConfig {
    /// Repeated layers `L`. The paper uses **1** in Table II (the
    /// serialized driver already covers every search direction; Fig. 7
    /// shows small gains from 2).
    pub layers: usize,
    /// Measurement shots (split across elimination branches).
    pub shots: u64,
    /// Classical optimizer iteration budget.
    pub max_iters: usize,
    /// Classical optimizer.
    pub optimizer: OptimizerKind,
    /// Sampling seed.
    pub seed: u64,
    /// Number of variables to eliminate (0–3 in the paper's Fig. 13).
    pub eliminate: usize,
    /// Record transpiled-circuit statistics (adds the paper's two clean
    /// ancillas and lowers via Lemma 2).
    pub transpiled_stats: bool,
    /// Multistart count: additional optimizer runs from random feasible
    /// initial states with jittered angles; the run with the lowest
    /// achieved expectation wins. Mitigates local minima of the
    /// non-convex landscape (most visible on GCP instances).
    pub restarts: usize,
    /// Worker threads for the multistart scheduler. Every
    /// `(branch × restart)` variational loop is pre-seeded from its own
    /// coordinates, so the loops are independent; with more than one
    /// worker they fan out over a `std::thread::scope` pool where each
    /// worker owns a [`SimWorkspace`] sharing the caller workspace's
    /// compiled-plan cache. `1` (the default) runs the restarts serially
    /// on the caller's workspace; `0` uses one worker per host core.
    /// Solve results are byte-identical at any setting.
    pub restart_workers: usize,
    /// When set, final sampling runs the Lemma-2 transpiled circuit under
    /// this noise model (hardware experiments, Fig. 10/13b/14).
    pub noise: Option<choco_qsim::NoiseModel>,
    /// Monte-Carlo error trajectories for noisy sampling.
    pub noise_trajectories: u32,
    /// Δ policy: include every canonical kernel vector with support up to
    /// this bound (the paper's Eq. (5) sums over *all* solutions of
    /// `C u = 0`). Set to 0 to use only the kernel basis.
    pub delta_max_support: usize,
    /// Hard cap on the number of driver terms.
    pub delta_cap: usize,
    /// State-vector engine configuration (worker threads, parallel
    /// threshold); plumbed into the solver's [`SimWorkspace`].
    pub sim: SimConfig,
    /// Cooperative wall-clock deadline, forwarded to every restart's
    /// variational loop (see [`QaoaConfig::deadline`]). When any loop
    /// trips it, the whole solve returns [`SolverError::Timeout`] — a
    /// partially-budgeted multistart would otherwise silently report a
    /// worse-than-configured solve. `None` (the default) never expires.
    pub deadline: Option<Instant>,
    /// Cooperative cancellation flag, forwarded to every restart's
    /// variational loop (see [`QaoaConfig::cancel`]). Setting it from
    /// another thread makes the solve drain and return
    /// [`SolverError::Timeout`]. `None` (the default) never cancels.
    pub cancel: Option<std::sync::Arc<std::sync::atomic::AtomicBool>>,
}

impl Default for ChocoQConfig {
    fn default() -> Self {
        ChocoQConfig {
            layers: 1,
            shots: 10_000,
            max_iters: 60,
            optimizer: OptimizerKind::default(),
            seed: 42,
            eliminate: 0,
            transpiled_stats: true,
            restarts: 3,
            restart_workers: 1,
            noise: None,
            noise_trajectories: 30,
            delta_max_support: 6,
            delta_cap: 48,
            sim: SimConfig::default(),
            deadline: None,
            cancel: None,
        }
    }
}

impl ChocoQConfig {
    /// Cheap configuration for unit tests.
    pub fn fast_test() -> Self {
        ChocoQConfig {
            shots: 2_000,
            max_iters: 30,
            transpiled_stats: false,
            ..ChocoQConfig::default()
        }
    }
}

/// The Choco-Q solver.
///
/// # Examples
///
/// ```
/// use choco_core::{ChocoQConfig, ChocoQSolver};
/// use choco_model::{Problem, Solver};
///
/// let p = Problem::builder(3)
///     .maximize()
///     .linear(0, 1.0)
///     .linear(1, 2.0)
///     .linear(2, 3.0)
///     .equality([(0, 1), (1, 1), (2, 1)], 2)
///     .build()
///     .unwrap();
/// let outcome = ChocoQSolver::new(ChocoQConfig::fast_test()).solve(&p).unwrap();
/// let m = outcome.metrics(&p).unwrap();
/// assert!((m.in_constraints_rate - 1.0).abs() < 1e-9); // hard constraints
/// ```
#[derive(Clone, Debug, Default)]
pub struct ChocoQSolver {
    config: ChocoQConfig,
}

impl ChocoQSolver {
    /// Creates a solver with the given configuration.
    pub fn new(config: ChocoQConfig) -> Self {
        ChocoQSolver { config }
    }

    /// The configuration.
    pub fn config(&self) -> &ChocoQConfig {
        &self.config
    }

    /// Number of variational parameters: per layer, one γ plus one β per
    /// driver term.
    ///
    /// The paper's Eq. (7) writes a shared β per layer; with the
    /// *serialized* driver (Lemma 1) each block `e^{-iβ_u Hc(u)}` is its
    /// own unitary, so the natural parameterization gives every block its
    /// own angle. This is what makes a single layer expressive enough to
    /// reach the paper's reported success rates: the optimizer can chain
    /// full 2-level transfers along the feasible graph.
    pub fn n_params(layers: usize, n_terms: usize) -> usize {
        layers * (1 + n_terms)
    }

    /// The structured Choco-Q circuit for one (sub-)problem as a
    /// template: `|x*,s*⟩ → Π_l [ e^{-iγ_l H_o} Π_u e^{-iβ_{l,u} Hc(u)} ]`
    /// with the parameter layout `[γ_1, β_{1,1} … β_{1,|Δ|}, γ_2, …]`.
    /// `ordered_terms` should come from [`CommuteDriver::ordered_terms`]
    /// for the same *encoded* `initial` (see
    /// [`CommuteDriver::encode_state`]); the circuit spans the driver's
    /// encoded width (decision variables plus slack registers). The cost
    /// polynomial only reads the decision variables, so it applies
    /// unchanged on the wider register.
    pub fn template(
        driver: &CommuteDriver,
        cost_poly: &Arc<PhasePoly>,
        ordered_terms: &[DriverTerm],
        initial: u64,
        layers: usize,
    ) -> CircuitTemplate {
        let stride = 1 + ordered_terms.len();
        let mut base = Circuit::new(driver.encoded_qubits().max(1));
        base.load_bits(initial);
        let mut template = CircuitTemplate::new(base);
        for l in 0..layers {
            template.push_slot(Gate::DiagPhase(cost_poly.clone(), 0.0), l * stride, 1.0);
            for (t, term) in ordered_terms.iter().enumerate() {
                template.push_slot(driver.gate_of(term, 0.0), l * stride + 1 + t, 1.0);
            }
        }
        template
    }

    /// [`ChocoQSolver::template`] bound at `params`.
    pub fn build_circuit(
        driver: &CommuteDriver,
        cost_poly: &Arc<PhasePoly>,
        ordered_terms: &[DriverTerm],
        initial: u64,
        layers: usize,
        params: &[f64],
    ) -> Circuit {
        debug_assert_eq!(params.len(), Self::n_params(layers, ordered_terms.len()));
        Self::template(driver, cost_poly, ordered_terms, initial, layers).bind(params)
    }

    /// Initial parameters: a small γ ramp and a moderate uniform β.
    pub fn initial_params(layers: usize, n_terms: usize) -> Vec<f64> {
        let mut x0 = Vec::with_capacity(Self::n_params(layers, n_terms));
        for l in 0..layers {
            x0.push(0.1 + 0.2 * (l as f64 + 1.0) / layers as f64); // γ
            x0.extend(std::iter::repeat_n(0.5, n_terms)); // β
        }
        x0
    }
}

/// The surviving pieces of one multistart run.
struct LoopRun {
    counts: Counts,
    cost_history: Vec<f64>,
    final_circuit: Circuit,
}

/// Conditional value at risk: the mean cost of the best `alpha` fraction
/// of sampled shots. The restart-selection criterion — unlike the plain
/// expectation, it rewards distributions that put *some* mass on very good
/// solutions (CVaR-QAOA style), and it only uses measured quantities.
fn cvar(counts: &Counts, cost: &CostSpec<'_>, alpha: f64) -> f64 {
    if counts.is_empty() {
        return f64::INFINITY;
    }
    let mut samples: Vec<(f64, u64)> = counts
        .iter()
        .map(|(bits, c)| (cost.value(bits), c))
        .collect();
    // `total_cmp`, not `partial_cmp().expect()`: a NaN cost (degenerate
    // polynomial, diverged parameters) must yield a NaN CVaR that the
    // winner reduction ranks last — not a panic that kills the solve.
    samples.sort_by(|a, b| a.0.total_cmp(&b.0));
    let take = ((counts.shots() as f64 * alpha).ceil() as u64).max(1);
    let mut remaining = take;
    let mut acc = 0.0;
    for (value, count) in samples {
        let used = count.min(remaining);
        acc += value * used as f64;
        remaining -= used;
        if remaining == 0 {
            break;
        }
    }
    acc / take as f64
}

/// One stateless SplitMix64 scramble.
fn mix(x: u64) -> u64 {
    SplitMix64::new(x).next_u64()
}

/// Mixes a master seed and the `(branch, restart)` coordinates into one
/// well-spread word. Each coordinate passes through its own full scramble
/// round, so `(b+1, r)` and `(b, r + restarts)` never alias the way the
/// old `seed + b·restarts + r` arithmetic did when a branch ran more
/// restarts than `restarts` (extra Δ policies) — adjacent branches then
/// reused loop seeds and their "independent" restarts sampled identical
/// shot streams.
fn mix_coordinates(master: u64, salt: u64, b_idx: usize, r: usize) -> u64 {
    let s = mix(master ^ salt);
    let s = mix(s ^ (b_idx as u64).wrapping_add(0x9E37_79B9_7F4A_7C15));
    mix(s ^ (r as u64).wrapping_add(0xBF58_476D_1CE4_E5B9))
}

/// The variational-loop (sampling) seed of restart `(b_idx, r)` of a
/// solve with master seed `seed`.
///
/// Derived only from the solve seed and the restart's own coordinates —
/// never from execution order, a serially-consumed generator, or a worker
/// id — so any restart is reproducible in isolation, the parallel
/// scheduler can run restarts in any order, and seeds are collision-free
/// across the whole restart grid (hash-mixed, not offset arithmetic).
pub fn restart_loop_seed(seed: u64, b_idx: usize, r: usize) -> u64 {
    mix_coordinates(seed, 0xC0C0_0A5E_ED00_0001, b_idx, r)
}

/// The per-restart SplitMix64 stream that draws a non-fresh restart's
/// random feasible initial state and then its jittered initial angles.
/// Separately salted from [`restart_loop_seed`] so the loop seed and the
/// jitter draws stay independent.
fn restart_stream(seed: u64, b_idx: usize, r: usize) -> SplitMix64 {
    SplitMix64::new(mix_coordinates(seed, 0xC0C0_0A5E_ED00_0002, b_idx, r))
}

/// Restart-selection ordering: does `candidate`'s CVaR displace the
/// incumbent's? Finite scores compare by value; a finite score always
/// beats a non-finite one; and a non-finite candidate never wins — so a
/// NaN CVaR from a diverged restart can neither win a tie (NaN `<` is
/// always false, but so was the old incumbent-displacement test when the
/// *incumbent* was NaN — an undisplaceable poisoned winner) nor block a
/// finite later restart. Ties keep the incumbent, i.e. the lowest restart
/// coordinate, matching the serial scheduler.
fn strictly_better(candidate: f64, incumbent: f64) -> bool {
    match (candidate.is_finite(), incumbent.is_finite()) {
        (true, true) => candidate < incumbent,
        (true, false) => true,
        (false, _) => false,
    }
}

/// The effective multistart worker count for `n_tasks` restarts.
fn effective_restart_workers(requested: usize, n_tasks: usize) -> usize {
    let requested = if requested == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        requested
    };
    requested.clamp(1, n_tasks.max(1))
}

impl Solver for ChocoQSolver {
    fn name(&self) -> &str {
        "choco-q"
    }

    fn solve(&self, problem: &Problem) -> Result<SolveOutcome, SolverError> {
        let mut workspace = SimWorkspace::new(self.config.sim);
        self.solve_with_workspace(problem, &mut workspace)
    }
}

impl ChocoQSolver {
    /// [`Solver::solve`] with a caller-owned [`SimWorkspace`]: the
    /// amplitude buffer, cached diagonals, sampling table, and (under
    /// [`choco_qsim::EngineKind::Compact`]) compiled gate plans live in
    /// `workspace` and are reused across optimizer iterations, multistart
    /// restarts, and elimination branches (and across repeated solves when
    /// the caller keeps the workspace around) — with the compact engine,
    /// the feasible subspace is enumerated once per circuit shape and
    /// every iteration replays the precomputed plan.
    pub fn solve_with_workspace(
        &self,
        problem: &Problem,
        workspace: &mut SimWorkspace,
    ) -> Result<SolveOutcome, SolverError> {
        // Size gate follows the workspace's engine: the compact engine
        // accepts feasible-subspace instances the dense buffer cannot hold.
        // Native-inequality instances are admitted by their *encoded*
        // width — decision variables plus the slack registers the driver
        // layer will synthesize (identical to `n_vars` otherwise).
        let encoded_width = encoded_qubits_for(problem.constraints())
            .map_err(|e| SolverError::Encoding(e.to_string()))?;
        check_size_for(encoded_width, workspace.config().engine)?;
        if problem.has_inequalities() && self.config.eliminate > 0 {
            return Err(SolverError::Encoding(
                "variable elimination is not supported for native-inequality \
                 instances; set eliminate = 0"
                    .into(),
            ));
        }
        let compile_start = Instant::now();

        let plan: EliminationPlan = plan_elimination(problem, self.config.eliminate)
            .map_err(|e| SolverError::Encoding(e.to_string()))?;
        if plan.branches.is_empty() {
            return Err(SolverError::Infeasible);
        }

        // Prepare per-branch drivers, initial-state pools, and cost tables.
        // Two Δ policies are kept: the minimal kernel *basis* and the
        // *extended* set (Eq. (5) sums over all solutions of C u = 0).
        // Which one yields the easier optimization landscape is
        // instance-dependent, so the multistart alternates between them.
        struct Branch {
            assignment: u64,
            /// Encoded circuit width: decision variables + slack registers.
            encoded: usize,
            /// Mask selecting the decision variables out of a sampled
            /// encoded bitstring (identity for equality-only branches).
            decision_mask: u64,
            drivers: Vec<CommuteDriver>,
            feasible: Vec<u64>,
            cost_poly: Arc<PhasePoly>,
            /// Materialized `2^n` cost table, built only on the dense
            /// engine and only for registers it can hold. Compact solves
            /// read the cost at their feasible basis instead (the plan
            /// bakes the polynomial's value per rank), and wider branches
            /// use the polynomial directly; both give the table's bits.
            cost_values: Option<Vec<f64>>,
        }
        impl Branch {
            fn cost_spec(&self) -> CostSpec<'_> {
                match &self.cost_values {
                    Some(values) => CostSpec::Table(values),
                    None => CostSpec::Poly(&self.cost_poly),
                }
            }
        }
        let tabulate = workspace.config().engine == EngineKind::Dense;
        let mut branches = Vec::new();
        for b in &plan.branches {
            // A small pool of feasible points serves as restart seeds.
            let feasible = b.problem.feasible_solutions(256);
            if feasible.is_empty() {
                continue; // infeasible branch: no shots allocated
            }
            let basis = CommuteDriver::build(b.problem.constraints())
                .map_err(|e| SolverError::Encoding(e.to_string()))?;
            let mut drivers = vec![];
            if self.config.delta_max_support > 0 {
                let extended = basis.extended(
                    b.problem.constraints(),
                    self.config.delta_max_support,
                    self.config.delta_cap,
                );
                if extended.len() > basis.len() {
                    drivers.push(extended);
                }
            }
            // Intern through the workspace's plan cache: equal-content
            // polynomials across solves share one `Arc`, so compact
            // plans compiled for this shape survive into later solves
            // (and, under `choco-serve`, later requests).
            let cost_poly = workspace.intern_poly(b.problem.cost_poly());
            let encoded = basis.encoded_qubits();
            let decision_mask = basis.decision_mask();
            drivers.push(basis);
            // The cost table spans the *encoded* register (the polynomial
            // ignores the slack bits, so the table just tiles); sampled
            // encoded bitstrings index it directly. The dense size gate
            // above bounds its width.
            let cost_values = tabulate.then(|| cost_poly.values_table(1 << encoded));
            branches.push(Branch {
                assignment: b.assignment,
                encoded,
                decision_mask,
                drivers,
                feasible,
                cost_poly,
                cost_values,
            });
        }
        if branches.is_empty() {
            return Err(SolverError::Infeasible);
        }
        // The transpiled statistics widen the first branch's final circuit
        // by the two clean ancillas of Lemma 2: that width must fit the
        // circuit IR too, so it is gated here, before any loop runs.
        let widened = branches[0].encoded + 2;
        if self.config.transpiled_stats && widened > MAX_QUBITS {
            return Err(SolverError::TooLarge {
                required: widened,
                limit: MAX_QUBITS,
            });
        }
        let compile = compile_start.elapsed();

        let layers = self.config.layers;
        let restarts = self.config.restarts.max(1);
        let shots_each = (self.config.shots / branches.len() as u64).max(1);
        let mut merged = Counts::new();
        let mut cost_history: Vec<f64> = Vec::new();
        let mut iterations = 0usize;
        let mut timing = TimingBreakdown {
            compile,
            ..TimingBreakdown::default()
        };
        let mut first_final_circuit: Option<(Circuit, usize)> = None;

        // ---- Pre-derivation ----------------------------------------
        // Multistart: the first restarts pair each Δ policy with the
        // lexicographically-first feasible point and nominal angles;
        // later restarts pick random feasible initial states and
        // jittered angles. Every restart's initial state, jitter stream,
        // and loop seed derive from its `(branch, restart)` coordinates
        // alone (per-coordinate SplitMix64 streams), so the loops are
        // fully independent and can execute in any order on any worker —
        // the foundation of the deterministic parallel scheduler below.
        struct Task {
            b_idx: usize,
            fresh: bool,
            driver_idx: usize,
            initial: u64,
            jitter: SplitMix64,
            loop_seed: u64,
        }
        let mut tasks: Vec<Task> = Vec::new();
        for (b_idx, branch) in branches.iter().enumerate() {
            let n_policies = branch.drivers.len();
            for r in 0..restarts.max(n_policies) {
                let mut stream = restart_stream(self.config.seed, b_idx, r);
                let fresh = r < n_policies;
                let initial = if fresh {
                    branch.feasible[0]
                } else {
                    *stream.choose(&branch.feasible).expect("non-empty")
                };
                tasks.push(Task {
                    b_idx,
                    fresh,
                    driver_idx: r % n_policies,
                    initial,
                    jitter: stream,
                    loop_seed: restart_loop_seed(self.config.seed, b_idx, r),
                });
            }
        }

        struct TaskResult {
            /// CVaR of the sampled shots (the restart-selection score).
            achieved: f64,
            run: LoopRun,
            iterations: usize,
            execute: std::time::Duration,
            classical: std::time::Duration,
            /// The restart's loop tripped [`ChocoQConfig::deadline`].
            deadline_exceeded: bool,
        }
        let run_task = |task: &Task, workspace: &mut SimWorkspace| -> TaskResult {
            let branch = &branches[task.b_idx];
            let driver = &branch.drivers[task.driver_idx];
            // Lift the feasible decision point into the encoded space
            // (loads every slack register; identity without registers).
            let initial = driver.encode_state(task.initial);
            let ordered_terms = driver.ordered_terms(initial);
            let mut x0 = Self::initial_params(layers, ordered_terms.len());
            if !task.fresh {
                let mut jitter = task.jitter.clone();
                for x in x0.iter_mut() {
                    *x = jitter.gen_range_f64(0.05, 1.6);
                }
            }
            let loop_config = QaoaConfig {
                layers,
                shots: shots_each,
                max_iters: self.config.max_iters,
                optimizer: self.config.optimizer,
                penalty: 0.0, // constraints are hard: no penalty needed
                seed: task.loop_seed,
                transpiled_stats: false,
                noise: self.config.noise,
                noise_trajectories: self.config.noise_trajectories,
                // Follow the caller-owned workspace, not self.config:
                // every other kernel of this solve runs under the
                // workspace's engine config.
                sim: *workspace.config(),
                deadline: self.config.deadline,
                cancel: self.config.cancel.clone(),
            };
            let template =
                Self::template(driver, &branch.cost_poly, &ordered_terms, initial, layers);
            let result = variational_loop(
                &template,
                &branch.cost_spec(),
                &x0,
                &loop_config,
                &mut *workspace,
            );
            let achieved = cvar(&result.counts, &branch.cost_spec(), 0.05);
            TaskResult {
                achieved,
                iterations: result.iterations,
                execute: result.timing.execute,
                classical: result.timing.classical,
                deadline_exceeded: result.deadline_exceeded,
                run: LoopRun {
                    counts: result.counts,
                    cost_history: result.cost_history,
                    final_circuit: result.final_circuit,
                },
            }
        };

        // ---- Execution ----------------------------------------------
        // One worker: the caller's workspace serves every restart (the
        // zero-allocation serial path). More: a scoped pool where each
        // worker owns a long-lived workspace sharing the caller's
        // compiled-plan cache, so a circuit shape is still compiled once
        // across all restarts × workers. Results land in a slot vector
        // indexed by task position — execution order never leaks. (Same
        // scatter-into-slots scheme as the runner's cell pool in
        // crates/runner/src/serve.rs — a fix to one likely applies to the
        // other.)
        let n_workers = effective_restart_workers(self.config.restart_workers, tasks.len());
        let mut results: Vec<Option<TaskResult>> = if n_workers <= 1 {
            tasks
                .iter()
                .map(|task| Some(run_task(task, &mut *workspace)))
                .collect()
        } else {
            let slots: Mutex<Vec<Option<TaskResult>>> =
                Mutex::new((0..tasks.len()).map(|_| None).collect());
            let next = AtomicUsize::new(0);
            let sim = *workspace.config();
            let plan_cache = workspace.plan_cache();
            std::thread::scope(|scope| {
                for _ in 0..n_workers {
                    let (run_task, tasks, slots, next) = (&run_task, &tasks, &slots, &next);
                    let plan_cache = plan_cache.clone();
                    scope.spawn(move || {
                        let mut worker_ws = SimWorkspace::with_plan_cache(sim, plan_cache);
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(task) = tasks.get(i) else { break };
                            let result = run_task(task, &mut worker_ws);
                            slots.lock().expect("slot lock")[i] = Some(result);
                        }
                    });
                }
            });
            slots.into_inner().expect("slot lock")
        };

        // A tripped deadline in any restart fails the whole solve: the
        // remaining loops may also be truncated, and reporting a
        // partially-budgeted multistart as a normal outcome would
        // silently degrade quality (the runner turns this into a
        // structured `timeout` cell error).
        if results.iter().flatten().any(|r| r.deadline_exceeded) {
            return Err(SolverError::Timeout);
        }

        // ---- Deterministic reduce -----------------------------------
        // Winner per branch: lowest CVaR (non-finite scores rank last,
        // see [`strictly_better`]), ties broken by the lowest restart
        // coordinate (tasks are visited in `(b_idx, r)` order and only a
        // strictly better score displaces the incumbent) — the same
        // selection the serial loop makes, at any worker count.
        let mut winners: Vec<Option<usize>> = vec![None; branches.len()];
        for (i, result) in results.iter().enumerate() {
            let result = result.as_ref().expect("every restart ran");
            timing.execute += result.execute;
            timing.classical += result.classical;
            iterations += result.iterations;
            let b = tasks[i].b_idx;
            let better = match winners[b] {
                None => true,
                Some(w) => strictly_better(
                    result.achieved,
                    results[w].as_ref().expect("winner present").achieved,
                ),
            };
            if better {
                winners[b] = Some(i);
            }
        }
        for (b_idx, branch) in branches.iter().enumerate() {
            let w = winners[b_idx].expect("at least one restart per branch");
            let run = results[w].take().expect("winner ran").run;
            if b_idx == 0 {
                cost_history = run.cost_history;
            }
            // Drop the slack-register bits before lifting: callers see
            // decision-variable bitstrings only (identity when the branch
            // has no registers, so equality-only reports are unchanged).
            let lifted = run
                .counts
                .map_bits(|bits| plan.lift(branch.assignment, bits & branch.decision_mask));
            merged.merge(&lifted);
            if first_final_circuit.is_none() {
                first_final_circuit = Some((run.final_circuit, branch.encoded));
            }
        }

        // Circuit statistics on the first branch's final circuit, rebuilt
        // with the paper's two clean ancillas for Lemma-2 transpilation.
        let (final_circuit, n_reduced) = first_final_circuit.expect("at least one branch ran");

        // Workspace end-state contract: leave the *caller's* workspace
        // holding the first branch winner's final state. Callers that
        // inspect `workspace.state()` after a solve — the experiment
        // runner reports the resolved engine and final-state occupancy —
        // then see the same values at every `restart_workers` setting
        // (with >1 worker the loops ran on worker-owned workspaces and
        // the caller's engine would otherwise be stale or empty).
        workspace.run(&final_circuit);
        let circuit = if self.config.transpiled_stats && n_reduced > 0 {
            let wide = final_circuit.widened(n_reduced + 2);
            circuit_stats(&wide, vec![n_reduced, n_reduced + 1], true)?
        } else {
            circuit_stats(&final_circuit, vec![], false)?
        };

        Ok(SolveOutcome {
            counts: merged,
            cost_history,
            iterations,
            circuit,
            timing,
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
            .build()
            .unwrap()
    }

    #[test]
    fn in_constraints_rate_is_always_one() {
        // The paper's central claim (Table II): commute-driver evolution
        // never leaves the feasible subspace.
        let outcome = ChocoQSolver::new(ChocoQConfig::fast_test())
            .solve(&paper_problem())
            .unwrap();
        let m = outcome.metrics(&paper_problem()).unwrap();
        assert!(
            (m.in_constraints_rate - 1.0).abs() < 1e-12,
            "in-constraints = {}",
            m.in_constraints_rate
        );
    }

    #[test]
    fn success_rate_is_high_on_the_paper_example() {
        let outcome = ChocoQSolver::new(ChocoQConfig::fast_test())
            .solve(&paper_problem())
            .unwrap();
        let m = outcome.metrics(&paper_problem()).unwrap();
        assert!(m.success_rate > 0.3, "success = {}", m.success_rate);
        assert!(m.arg < 0.7, "ARG = {}", m.arg);
    }

    #[test]
    fn cost_history_converges_downward() {
        let outcome = ChocoQSolver::new(ChocoQConfig::fast_test())
            .solve(&paper_problem())
            .unwrap();
        let first = outcome.cost_history.first().unwrap();
        let last = outcome.cost_history.last().unwrap();
        assert!(last <= first);
        assert!(outcome.iterations > 0);
    }

    #[test]
    fn variable_elimination_preserves_hard_constraints() {
        for eliminate in [1usize, 2] {
            let config = ChocoQConfig {
                eliminate,
                ..ChocoQConfig::fast_test()
            };
            let outcome = ChocoQSolver::new(config).solve(&paper_problem()).unwrap();
            let m = outcome.metrics(&paper_problem()).unwrap();
            assert!(
                (m.in_constraints_rate - 1.0).abs() < 1e-12,
                "eliminate={eliminate}: in-constraints = {}",
                m.in_constraints_rate
            );
            assert!(
                m.success_rate > 0.2,
                "eliminate={eliminate}: success = {}",
                m.success_rate
            );
        }
    }

    #[test]
    fn elimination_reduces_transpiled_depth() {
        // Fig. 13(a): dropping the most-shared variable shrinks the
        // deployable circuit.
        let base = ChocoQSolver::new(ChocoQConfig {
            transpiled_stats: true,
            ..ChocoQConfig::fast_test()
        })
        .solve(&paper_problem())
        .unwrap();
        let elim = ChocoQSolver::new(ChocoQConfig {
            transpiled_stats: true,
            eliminate: 1,
            ..ChocoQConfig::fast_test()
        })
        .solve(&paper_problem())
        .unwrap();
        assert!(
            elim.circuit.transpiled_depth.unwrap() < base.circuit.transpiled_depth.unwrap(),
            "elimination did not reduce depth: {:?} vs {:?}",
            elim.circuit.transpiled_depth,
            base.circuit.transpiled_depth
        );
    }

    #[test]
    fn infeasible_problem_is_rejected() {
        let p = Problem::builder(2)
            .equality([(0, 1), (1, 1)], 3)
            .build()
            .unwrap();
        let err = ChocoQSolver::default().solve(&p).unwrap_err();
        assert_eq!(err, SolverError::Infeasible);
    }

    #[test]
    fn unique_feasible_point_collapses_to_it() {
        // Full-rank constraints: Δ empty, the circuit just loads |x*⟩.
        let p = Problem::builder(2)
            .minimize()
            .linear(0, 1.0)
            .equality([(0, 1)], 1)
            .equality([(1, 1)], 0)
            .build()
            .unwrap();
        let outcome = ChocoQSolver::new(ChocoQConfig::fast_test())
            .solve(&p)
            .unwrap();
        assert!((outcome.counts.probability(0b01) - 1.0).abs() < 1e-12);
        let m = outcome.metrics(&p).unwrap();
        assert_eq!(m.success_rate, 1.0);
    }

    #[test]
    fn more_layers_do_not_hurt() {
        // Fig. 7: layer 2 brings a modest gain; deeper layers plateau.
        let one = ChocoQSolver::new(ChocoQConfig::fast_test())
            .solve(&paper_problem())
            .unwrap()
            .metrics(&paper_problem())
            .unwrap();
        let two = ChocoQSolver::new(ChocoQConfig {
            layers: 2,
            ..ChocoQConfig::fast_test()
        })
        .solve(&paper_problem())
        .unwrap()
        .metrics(&paper_problem())
        .unwrap();
        assert!(two.success_rate > one.success_rate * 0.5);
        assert!((two.in_constraints_rate - 1.0).abs() < 1e-12);
    }

    #[test]
    fn solve_performs_zero_amplitude_allocations_after_warmup() {
        // The acceptance criterion of the fast-path rework: one amplitude
        // buffer serves every optimizer iteration, every multistart
        // restart, and the final sampling pass. The workspace counts
        // buffer (re)allocations; exactly one warmup allocation is
        // allowed per register width.
        let problem = paper_problem();
        let solver = ChocoQSolver::new(ChocoQConfig::fast_test());
        let mut workspace = SimWorkspace::new(SimConfig::serial().with_engine(EngineKind::Dense));
        solver
            .solve_with_workspace(&problem, &mut workspace)
            .unwrap();
        assert_eq!(
            workspace.reallocations(),
            1,
            "iterations/restarts must reuse the warmup buffer"
        );
        // A second solve of the same width is fully allocation-free.
        solver
            .solve_with_workspace(&problem, &mut workspace)
            .unwrap();
        assert_eq!(workspace.reallocations(), 1, "second solve reuses warmup");
        // The shared cost polynomial was expanded into a diagonal once per
        // Δ policy, not once per iteration.
        assert!(workspace.cached_diagonals() <= 2);
    }

    #[test]
    fn compact_engine_solve_is_byte_identical_and_compiles_once() {
        use choco_qsim::EngineKind;
        let problem = paper_problem();
        let solver = ChocoQSolver::new(ChocoQConfig::fast_test());
        let mut dense_ws = SimWorkspace::new(SimConfig::serial().with_engine(EngineKind::Dense));
        let dense = solver
            .solve_with_workspace(&problem, &mut dense_ws)
            .unwrap();
        let mut compact_ws =
            SimWorkspace::new(SimConfig::serial().with_engine(EngineKind::Compact));
        let compact = solver
            .solve_with_workspace(&problem, &mut compact_ws)
            .unwrap();
        // Engine selection is a performance decision: identical histogram,
        // identical history, identical iteration count.
        assert_eq!(dense.counts, compact.counts);
        assert_eq!(dense.cost_history, compact.cost_history);
        assert_eq!(dense.iterations, compact.iterations);
        // The whole solve — every restart × iteration — compiled each
        // distinct circuit shape exactly once and reused one amplitude
        // array (zero per-iteration allocations).
        assert_eq!(compact_ws.reallocations(), 1, "one warmup allocation");
        assert_eq!(
            compact_ws.plan_compilations(),
            compact_ws.cached_plans() as u64,
            "every shape compiled exactly once"
        );
        assert!(
            compact_ws.cached_plans() <= 4,
            "Δ policies × initial states bound the shape count, got {}",
            compact_ws.cached_plans()
        );
        // A second solve rebuilds an equal-content cost polynomial from
        // scratch; interning it through the workspace's plan cache maps
        // it onto the same `Arc`, so the cached plans are *replayed*,
        // not recompiled — the invariant `choco-serve` relies on to
        // amortize compilation across requests.
        let shapes_per_solve = compact_ws.plan_compilations();
        solver
            .solve_with_workspace(&problem, &mut compact_ws)
            .unwrap();
        assert_eq!(
            compact_ws.plan_compilations(),
            shapes_per_solve,
            "second solve replays cached plans, zero new compilations"
        );
        assert!(compact_ws.cached_plans() as u64 <= shapes_per_solve);
        assert_eq!(compact_ws.reallocations(), 1, "second solve reuses warmup");
    }

    #[test]
    fn batched_solve_is_byte_identical_and_stays_zero_alloc() {
        use choco_qsim::EngineKind;
        let problem = paper_problem();
        let solver = ChocoQSolver::new(ChocoQConfig::fast_test());
        // The dense engine declines `run_batch` and replays every
        // candidate serially; the compact engine batches every group.
        let mut serial_ws = SimWorkspace::new(SimConfig::serial().with_engine(EngineKind::Dense));
        let serial = solver
            .solve_with_workspace(&problem, &mut serial_ws)
            .unwrap();
        let mut batched_ws = SimWorkspace::new(SimConfig::serial());
        let batched = solver
            .solve_with_workspace(&problem, &mut batched_ws)
            .unwrap();
        assert_eq!(serial.counts, batched.counts);
        assert_eq!(serial.cost_history, batched.cost_history);
        assert_eq!(serial.iterations, batched.iterations);
        assert_eq!(serial_ws.batch_reallocations(), 0, "dense never batches");
        // Batching costs no extra compilations, and the SoA buffer warms
        // up at most once per shape like the serial amplitude array.
        assert_eq!(
            batched_ws.plan_compilations(),
            batched_ws.cached_plans() as u64,
            "every shape compiled exactly once"
        );
        assert_eq!(batched_ws.reallocations(), 1, "serial warmup");
        let warm = batched_ws.batch_reallocations();
        assert!(
            (1..=batched_ws.plan_compilations()).contains(&warm),
            "at most one SoA warmup per shape, got {warm}"
        );
        // A second solve on the warm workspace allocates nothing.
        solver
            .solve_with_workspace(&problem, &mut batched_ws)
            .unwrap();
        assert_eq!(batched_ws.batch_reallocations(), warm);
        assert_eq!(batched_ws.reallocations(), 1);
    }

    #[test]
    fn restart_loop_seeds_are_distinct_across_branches_and_restarts() {
        // Regression for the old `seed + (b_idx · restarts + r)`
        // arithmetic: whenever a branch ran more loops than `restarts`
        // (extra Δ policies), adjacent branches reused loop seeds — e.g.
        // with restarts = 1 and two policies, (b=0, r=1) and (b=1, r=0)
        // collided. The coordinate-hashed derivation must be
        // collision-free across any realistic restart grid.
        let mut seen = std::collections::HashSet::new();
        for seed in [0u64, 42, 0xDEAD_BEEF] {
            seen.clear();
            for b_idx in 0..16 {
                for r in 0..64 {
                    assert!(
                        seen.insert(restart_loop_seed(seed, b_idx, r)),
                        "seed={seed} collides at (b={b_idx}, r={r})"
                    );
                }
            }
        }
        // The exact collision pair of the old formula.
        assert_ne!(restart_loop_seed(42, 0, 1), restart_loop_seed(42, 1, 0));
        // And the derivation depends on the master seed.
        assert_ne!(restart_loop_seed(1, 0, 0), restart_loop_seed(2, 0, 0));
    }

    #[test]
    fn every_loop_seed_of_a_multi_branch_solve_is_distinct() {
        // The in-situ version of the regression: enumerate the loop seeds
        // a 2-branch (eliminate = 1) multi-policy solve actually derives
        // and assert pairwise distinctness.
        let problem = paper_problem();
        let config = ChocoQConfig {
            eliminate: 1,
            restarts: 1, // fewer than the Δ-policy count → old collision
            ..ChocoQConfig::fast_test()
        };
        let plan = plan_elimination(&problem, config.eliminate).unwrap();
        assert!(plan.branches.len() > 1, "need a multi-branch solve");
        let mut seen = std::collections::HashSet::new();
        for (b_idx, branch) in plan.branches.iter().enumerate() {
            let n_policies = 2; // extended + basis, as the solver builds
            for r in 0..config.restarts.max(n_policies) {
                assert!(
                    seen.insert(restart_loop_seed(config.seed, b_idx, r)),
                    "collision at (b={b_idx}, r={r})"
                );
            }
            let _ = branch;
        }
    }

    #[test]
    fn parallel_restart_workers_reproduce_the_serial_solve() {
        // The scheduler's determinism contract: restart pre-seeding plus
        // the slot-indexed reduce make the solve byte-identical at any
        // worker count — including 0 (auto) and counts above the task
        // count — on a multi-branch, multi-restart configuration.
        let problem = paper_problem();
        let base = ChocoQConfig {
            restarts: 4,
            eliminate: 1,
            ..ChocoQConfig::fast_test()
        };
        let serial = ChocoQSolver::new(base.clone()).solve(&problem).unwrap();
        for workers in [2usize, 4, 64, 0] {
            let parallel = ChocoQSolver::new(ChocoQConfig {
                restart_workers: workers,
                ..base.clone()
            })
            .solve(&problem)
            .unwrap();
            assert_eq!(serial.counts, parallel.counts, "workers={workers}");
            assert_eq!(
                serial.cost_history, parallel.cost_history,
                "workers={workers}"
            );
            assert_eq!(serial.iterations, parallel.iterations, "workers={workers}");
            assert_eq!(serial.circuit, parallel.circuit, "workers={workers}");
        }
    }

    #[test]
    fn parallel_compact_solve_compiles_each_shape_once_across_workers() {
        use choco_qsim::EngineKind;
        let problem = paper_problem();
        let config = ChocoQConfig {
            restarts: 6,
            restart_workers: 4,
            ..ChocoQConfig::fast_test()
        };
        let mut ws = SimWorkspace::new(SimConfig::serial().with_engine(EngineKind::Compact));
        let parallel = ChocoQSolver::new(config.clone())
            .solve_with_workspace(&problem, &mut ws)
            .unwrap();
        // Worker workspaces share the caller's plan cache: every distinct
        // circuit shape across all restarts × workers compiled exactly
        // once.
        assert_eq!(
            ws.plan_compilations(),
            ws.cached_plans() as u64,
            "every shape compiled exactly once across the worker pool"
        );
        // And the parallel compact solve, every candidate group batched,
        // matches the serial dense solve.
        let serial = ChocoQSolver::new(ChocoQConfig {
            restart_workers: 1,
            sim: SimConfig::serial().with_engine(EngineKind::Dense),
            ..config
        })
        .solve(&problem)
        .unwrap();
        assert_eq!(serial.counts, parallel.counts);
        assert_eq!(serial.cost_history, parallel.cost_history);
        // The caller workspace ends holding the winner's final state
        // (the runner reads engine/occupancy from it).
        assert!(ws.state().is_some(), "workspace holds the winner's state");
    }

    #[test]
    fn non_finite_cvar_never_wins_the_restart_reduce() {
        // Regression: the old `candidate < incumbent` test made a NaN
        // *incumbent* (first restart) undisplaceable — every comparison
        // against NaN is false — poisoning the whole solve. The explicit
        // ordering ranks non-finite scores last in every combination.
        assert!(strictly_better(0.5, 1.0), "lower finite wins");
        assert!(!strictly_better(1.0, 0.5), "higher finite loses");
        assert!(!strictly_better(1.0, 1.0), "ties keep the incumbent");
        assert!(strictly_better(1.0, f64::NAN), "finite displaces NaN");
        assert!(strictly_better(1.0, f64::INFINITY), "finite displaces inf");
        assert!(!strictly_better(f64::NAN, 1.0), "NaN never wins");
        assert!(!strictly_better(f64::INFINITY, 1.0), "inf never wins");
        assert!(
            !strictly_better(f64::NAN, f64::NAN),
            "NaN tie keeps incumbent"
        );
        assert!(
            !strictly_better(f64::NEG_INFINITY, 1.0),
            "-inf is unordered too"
        );
    }

    #[test]
    fn cvar_tolerates_nan_costs() {
        // A NaN cost must flow through as a NaN score (ranked last by the
        // reduce), not panic the sort.
        let mut counts = Counts::new();
        counts.record_n(0, 10);
        counts.record_n(1, 10);
        let values = vec![f64::NAN, 1.0];
        let score = cvar(&counts, &CostSpec::Table(&values), 0.5);
        assert!(score.is_nan() || score.is_finite(), "no panic");
        // All-finite costs stay exact.
        let finite = vec![2.0, 1.0];
        let score = cvar(&counts, &CostSpec::Table(&finite), 0.5);
        assert!((score - 1.0).abs() < 1e-12, "best half is all cost 1");
    }

    #[test]
    fn expired_deadline_fails_the_solve_with_timeout() {
        let config = ChocoQConfig {
            deadline: Some(Instant::now()),
            ..ChocoQConfig::fast_test()
        };
        let err = ChocoQSolver::new(config)
            .solve(&paper_problem())
            .unwrap_err();
        assert_eq!(err, SolverError::Timeout);
        // Without a deadline the same solve succeeds.
        assert!(ChocoQSolver::new(ChocoQConfig::fast_test())
            .solve(&paper_problem())
            .is_ok());
    }

    /// Bounded knapsack with a *native* capacity row — no hand-rolled
    /// slack register in the problem definition.
    fn knapsack_problem() -> Problem {
        Problem::builder(3)
            .maximize()
            .linear(0, 2.0)
            .linear(1, 3.0)
            .linear(2, 4.0)
            .less_equal([(0, 1), (1, 2), (2, 2)], 3)
            .build()
            .unwrap()
    }

    #[test]
    fn native_inequality_solve_stays_in_constraints() {
        // The tentpole acceptance: a ≤-constrained instance solves through
        // natively synthesized gated drivers and never leaves the feasible
        // subspace — the decision-variable histogram satisfies the row for
        // every sampled shot.
        let p = knapsack_problem();
        let outcome = ChocoQSolver::new(ChocoQConfig::fast_test())
            .solve(&p)
            .unwrap();
        let m = outcome.metrics(&p).unwrap();
        assert!(
            (m.in_constraints_rate - 1.0).abs() < 1e-12,
            "in-constraints = {}",
            m.in_constraints_rate
        );
        assert!(m.success_rate > 0.2, "success = {}", m.success_rate);
        // Sampled bitstrings are pure decision assignments: the slack
        // register bits were truncated before reporting.
        for (bits, _) in outcome.counts.iter() {
            assert!(bits < 1 << p.n_vars(), "slack bits leaked: {bits:b}");
        }
    }

    #[test]
    fn native_inequality_occupancy_is_confined_to_encoded_feasible_set() {
        // Stronger than the histogram check: the *final state* in the
        // caller's workspace puts measurable amplitude only on encoded
        // feasible states (x feasible, s = b − a·x), so its occupancy is
        // bounded by |F|.
        let p = knapsack_problem();
        let solver = ChocoQSolver::new(ChocoQConfig::fast_test());
        let mut ws = SimWorkspace::new(SimConfig::serial().with_engine(EngineKind::Dense));
        solver.solve_with_workspace(&p, &mut ws).unwrap();
        let driver = CommuteDriver::build(p.constraints()).unwrap();
        let feasible: std::collections::HashSet<u64> = p
            .feasible_solutions(1 << p.n_vars())
            .into_iter()
            .map(|x| driver.encode_state(x))
            .collect();
        let state = ws.state().expect("workspace holds the final state");
        let mut occupied = 0usize;
        for bits in 0..(1u64 << driver.encoded_qubits()) {
            if state.probability(bits) > 1e-12 {
                occupied += 1;
                assert!(
                    feasible.contains(&bits),
                    "amplitude on non-feasible encoded state {bits:b}"
                );
            }
        }
        assert!(occupied <= feasible.len(), "occupancy exceeds |F|");
        assert!(occupied > 1, "driver must actually spread amplitude");
    }

    #[test]
    fn native_inequality_solve_is_engine_and_worker_invariant() {
        use choco_qsim::EngineKind;
        let p = knapsack_problem();
        let config = ChocoQConfig {
            sim: SimConfig::serial().with_engine(EngineKind::Dense),
            ..ChocoQConfig::fast_test()
        };
        let dense = ChocoQSolver::new(config.clone()).solve(&p).unwrap();
        let mut ws = SimWorkspace::new(SimConfig::serial().with_engine(EngineKind::Compact));
        let compact = ChocoQSolver::new(config.clone())
            .solve_with_workspace(&p, &mut ws)
            .unwrap();
        assert_eq!(dense.counts, compact.counts);
        assert_eq!(dense.cost_history, compact.cost_history);
        assert_eq!(dense.iterations, compact.iterations);
        for workers in [2usize, 4] {
            let parallel = ChocoQSolver::new(ChocoQConfig {
                restart_workers: workers,
                ..config.clone()
            })
            .solve(&p)
            .unwrap();
            assert_eq!(dense.counts, parallel.counts, "workers={workers}");
            assert_eq!(dense.cost_history, parallel.cost_history);
        }
    }

    #[test]
    fn native_inequality_rejects_elimination() {
        let config = ChocoQConfig {
            eliminate: 1,
            ..ChocoQConfig::fast_test()
        };
        let err = ChocoQSolver::new(config)
            .solve(&knapsack_problem())
            .unwrap_err();
        match err {
            SolverError::Encoding(msg) => {
                assert!(msg.contains("eliminate"), "message: {msg}")
            }
            other => panic!("expected Encoding, got {other:?}"),
        }
    }

    #[test]
    fn infeasible_inequality_is_rejected_with_named_row() {
        let p = Problem::builder(2)
            .less_equal([(0, 1), (1, 1)], -1)
            .build()
            .unwrap();
        let err = ChocoQSolver::default().solve(&p).unwrap_err();
        match err {
            SolverError::Encoding(msg) => {
                assert!(msg.contains("x0 + x1 <= -1"), "message: {msg}");
                assert!(msg.contains("remedies"), "message: {msg}");
            }
            other => panic!("expected Encoding, got {other:?}"),
        }
    }

    #[test]
    fn shots_are_preserved_across_branches() {
        let config = ChocoQConfig {
            eliminate: 1,
            shots: 1000,
            ..ChocoQConfig::fast_test()
        };
        let outcome = ChocoQSolver::new(config).solve(&paper_problem()).unwrap();
        // Two branches × 500 shots each.
        assert_eq!(outcome.counts.shots(), 1000);
    }
}
