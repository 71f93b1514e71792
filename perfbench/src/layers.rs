//! Per-layer measurement: the traced pass over one spec, the isolated
//! per-shape calls into `core`, `qsim` and `optim`, and the journal cost.
//!
//! Every call here goes through the crates' public API, in the order the
//! runner makes it, so the traced pass reproduces the untraced report's
//! cells exactly (checked by iteration counts).

use crate::trace::Tracer;
use crate::util::{median, ms};
use choco_core::{ChocoQConfig, ChocoQSolver, CommuteDriver};
use choco_model::{solve_exact, Optimum, Problem, SolveOutcome, SolverError};
use choco_optim::Objective;
use choco_qsim::{
    transpile, Circuit, EngineKind, PhasePoly, SimConfig, SimWorkspace, TranspileOptions,
};
use choco_runner::{
    execute, scaled_choco, scaled_qaoa, Cell, ExperimentSpec, Field, RunOptions, RunReport,
    SolverKind,
};
use choco_solvers::shared::CostSpec;
use choco_solvers::{CyclicQaoaSolver, HeaSolver, PenaltyQaoaSolver, QaoaConfig, MAX_SIM_QUBITS};
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Solver labels, as the runner prints them.
const SOLVERS: [&str; 4] = ["penalty", "cyclic", "hea", "choco-q"];

/// Every per-layer metric with its unit, in output order. A layer a
/// workload bypasses reads 0 there.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = [
        ("problems.build_ms", "ms"),
        ("model.exact_ms", "ms"),
        ("core.driver_build_ms", "ms"),
        ("core.driver_terms", "count"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for solver in SOLVERS {
        for (part, unit) in [
            ("compile_ms", "ms"),
            ("execute_ms", "ms"),
            ("classical_ms", "ms"),
            ("other_ms", "ms"),
            ("iterations", "count"),
        ] {
            out.push((format!("solve.{solver}.{part}"), unit));
        }
    }
    for (name, unit) in [
        ("qsim.cost_table_ms", "ms"),
        ("qsim.cost_table_mb", "MiB"),
        ("qsim.plan_compile_ms", "ms"),
        ("qsim.replay_us.dense", "us"),
        ("qsim.replay_us.compact", "us"),
        ("qsim.batch_replay_us", "us"),
        ("qsim.sample_ms", "ms"),
        ("qsim.transpile_ms", "ms"),
        ("qsim.transpiled_gates", "count"),
        ("qsim.plan_compilations", "count"),
        ("qsim.plan_cache_hits", "count"),
        ("optim.self_ms", "ms"),
        ("optim.evaluations", "count"),
        ("runner.overhead_ms", "ms"),
        ("runner.report_ms", "ms"),
        ("runner.journal_append_us", "us"),
        ("serve.admit_ms", "ms"),
        ("serve.queue_wait_ms", "ms"),
        ("serve.finalize_ms", "ms"),
        ("serve.job_p90_ms", "ms"),
        ("serve.compiles_per_job", "count"),
        ("serve.plan_cache_hit_ratio", "ratio"),
        ("serve.journal_bytes_per_job", "B"),
        ("trace.overhead_ratio", "ratio"),
        ("trace.coverage", "ratio"),
        ("trace.spans", "count"),
    ] {
        out.push((name.to_string(), unit));
    }
    out
}

/// Per-layer values by metric name.
#[derive(Default)]
pub struct Layers(pub BTreeMap<String, f64>);

impl Layers {
    pub fn add(&mut self, name: &str, value: f64) {
        *self.0.entry(name.to_string()).or_insert(0.0) += value;
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Adds `other` scaled by `factor` (averaging per-unit sums).
    pub fn merge_scaled(&mut self, other: &Layers, factor: f64) {
        for (name, value) in &other.0 {
            self.add(name, value * factor);
        }
    }
}

/// One resolved instance: the problem and its exact optimum.
pub type Instances = BTreeMap<(String, u64), (Problem, Result<Optimum, String>)>;

/// Runs one grid cell with the configuration the runner gives it:
/// budget-scaled defaults, the spec's overrides, the coordinate-derived
/// cell seed.
pub fn solve_cell(
    spec: &ExperimentSpec,
    cell: &Cell,
    problem: &Problem,
    ws: &mut SimWorkspace,
) -> Result<SolveOutcome, SolverError> {
    match cell.solver {
        SolverKind::ChocoQ => {
            ChocoQSolver::new(choco_config(spec, cell, problem)).solve_with_workspace(problem, ws)
        }
        baseline => {
            let config = qaoa_config(spec, cell, problem);
            match baseline {
                SolverKind::Penalty => {
                    PenaltyQaoaSolver::new(config).solve_with_workspace(problem, ws)
                }
                SolverKind::Cyclic => {
                    CyclicQaoaSolver::new(config).solve_with_workspace(problem, ws)
                }
                SolverKind::Hea => HeaSolver::new(config).solve_with_workspace(problem, ws),
                SolverKind::ChocoQ => unreachable!("matched above"),
            }
        }
    }
}

fn choco_config(spec: &ExperimentSpec, cell: &Cell, problem: &Problem) -> ChocoQConfig {
    let base = scaled_choco(problem.n_vars());
    ChocoQConfig {
        layers: cell.layers.unwrap_or(base.layers),
        shots: spec.config.shots.unwrap_or(base.shots),
        max_iters: spec.config.max_iters.unwrap_or(base.max_iters),
        restarts: spec.config.restarts.unwrap_or(base.restarts),
        restart_workers: 1,
        optimizer: spec.optimizer.unwrap_or_default(),
        noise_trajectories: spec
            .config
            .noise_trajectories
            .unwrap_or(base.noise_trajectories),
        transpiled_stats: spec
            .config
            .transpiled_stats
            .unwrap_or(base.transpiled_stats),
        eliminate: cell.eliminate,
        seed: spec.cell_seed(cell),
        noise: noise(spec, cell),
        ..base
    }
}

fn qaoa_config(spec: &ExperimentSpec, cell: &Cell, problem: &Problem) -> QaoaConfig {
    let base = scaled_qaoa(problem.n_vars());
    QaoaConfig {
        layers: cell.layers.unwrap_or(base.layers),
        shots: spec.config.shots.unwrap_or(base.shots),
        max_iters: spec.config.max_iters.unwrap_or(base.max_iters),
        optimizer: spec.optimizer.unwrap_or_default(),
        noise_trajectories: spec
            .config
            .noise_trajectories
            .unwrap_or(base.noise_trajectories),
        transpiled_stats: spec
            .config
            .transpiled_stats
            .unwrap_or(base.transpiled_stats),
        seed: spec.cell_seed(cell),
        noise: noise(spec, cell),
        ..base
    }
}

fn noise(spec: &ExperimentSpec, cell: &Cell) -> Option<choco_qsim::NoiseModel> {
    match (spec.noisy, cell.device) {
        (true, Some(device)) => Some(device.model().noise()),
        _ => None,
    }
}

fn key(cell: &Cell) -> (String, u64) {
    (cell.problem.as_str().to_string(), cell.instance_seed)
}

/// Builds every distinct instance of `cells`, one span per public call.
fn build_instances_traced(
    cells: &[Cell],
    tracer: &mut Tracer,
    unit: u64,
    sums: &mut Layers,
) -> Result<Instances, String> {
    let mut instances = Instances::new();
    for cell in cells {
        if instances.contains_key(&key(cell)) {
            continue;
        }
        let t = Instant::now();
        let problem = tracer.time("problems.build", unit, || {
            cell.problem.build(cell.instance_seed)
        })?;
        sums.add("problems.build_ms", ms(t.elapsed()));
        let t = Instant::now();
        let optimum = tracer.time("model.exact", unit, || solve_exact(&problem));
        sums.add("model.exact_ms", ms(t.elapsed()));
        instances.insert(key(cell), (problem, optimum.map_err(|e| e.to_string())));
    }
    Ok(instances)
}

/// What a traced pass over one spec measured.
pub struct TracedUnit {
    pub spec: ExperimentSpec,
    pub cells: Vec<Cell>,
    pub instances: Instances,
    /// Wall time of the whole pass.
    pub wall_ms: f64,
    /// Parse + setup + cell solves + report, the parts `execute` also runs.
    pub parts_ms: f64,
}

/// The traced pass: parses the spec, builds its instances and solves its
/// cells one public call at a time, then renders `reference` (the
/// untraced report of the same spec) as JSON. Per-unit sums land in
/// `sums`. Fails when a cell's iteration count differs from the
/// reference report's.
pub fn traced_unit(
    spec_text: &str,
    reference: &RunReport,
    opts: &RunOptions,
    tracer: &mut Tracer,
    unit: u64,
    sums: &mut Layers,
) -> Result<TracedUnit, String> {
    let started = Instant::now();
    let root = tracer.begin("unit", unit);
    let spec = tracer.time("runner.parse", unit, || {
        ExperimentSpec::parse_str(spec_text)
    })?;
    let cells = spec.expand_cells(false);
    let setup = tracer.begin("runner.setup", unit);
    let instances = build_instances_traced(&cells, tracer, unit, sums)?;
    tracer.end(setup);
    let mut ws = SimWorkspace::new(opts.effective_sim(&spec));
    for cell in &cells {
        let (problem, optimum) = &instances[&key(cell)];
        optimum
            .as_ref()
            .map_err(|e| format!("exact reference unavailable: {e}"))?;
        let label = cell.solver.label();
        ws.reset_engine();
        let t = Instant::now();
        let outcome = tracer
            .time(&format!("solve.{label}"), unit, || {
                solve_cell(&spec, cell, problem, &mut ws)
            })
            .map_err(|e| format!("cell {} ({}): {e}", cell.index, cell.problem.as_str()))?;
        let wall = t.elapsed();
        let timing = outcome.timing;
        sums.add(&format!("solve.{label}.compile_ms"), ms(timing.compile));
        sums.add(&format!("solve.{label}.execute_ms"), ms(timing.execute));
        sums.add(&format!("solve.{label}.classical_ms"), ms(timing.classical));
        sums.add(
            &format!("solve.{label}.other_ms"),
            ms(wall.saturating_sub(timing.total())),
        );
        sums.add(
            &format!("solve.{label}.iterations"),
            outcome.iterations as f64,
        );
        let expected = reference
            .records
            .get(cell.index)
            .and_then(|r| r.get("iterations"))
            .cloned();
        if expected != Some(Field::UInt(outcome.iterations as u64)) {
            return Err(format!(
                "traced pass diverged from the report at cell {}: {} iterations vs {expected:?}",
                cell.index, outcome.iterations
            ));
        }
    }
    let stats = ws.plan_cache().stats();
    sums.add("qsim.plan_compilations", stats.compilations as f64);
    sums.add("qsim.plan_cache_hits", stats.hits as f64);
    let t = Instant::now();
    std::hint::black_box(tracer.time("runner.report", unit, || reference.to_json()));
    sums.add("runner.report_ms", ms(t.elapsed()));
    tracer.end(root);
    let wall_ms = ms(started.elapsed());
    let parts_ms = tracer
        .spans
        .iter()
        .filter(|s| s.unit == unit && s.parent == Some(root))
        .map(|s| ms(s.end.saturating_duration_since(s.start)))
        .sum();
    Ok(TracedUnit {
        spec,
        cells,
        instances,
        wall_ms,
        parts_ms,
    })
}

/// The per-shape probe of one Choco-Q cell: the first restart's circuit
/// (basis driver, first feasible point, nominal angles).
struct Probe {
    driver_build: Duration,
    driver_terms: usize,
    cost_table: Duration,
    cost_table_bytes: usize,
    plan_compile: Option<Duration>,
    replay: Duration,
    batch_replay: Option<Duration>,
    sample: Duration,
    transpile: Duration,
    transpiled_gates: usize,
    optim_self: Duration,
    optim_evaluations: usize,
}

/// Replays per probe: warm `run`s and `run_batch`es timed per cell.
const REPLAYS: usize = 5;
/// Candidates per batched replay.
const BATCH: usize = 8;

fn probe_choco_cell(
    config: &ChocoQConfig,
    problem: &Problem,
    sim: SimConfig,
) -> Result<Probe, String> {
    let constraints = problem.constraints();
    let t = Instant::now();
    let driver = CommuteDriver::build(constraints).map_err(|e| e.to_string())?;
    let extended =
        CommuteDriver::build_extended(constraints, config.delta_max_support, config.delta_cap)
            .map_err(|e| e.to_string())?;
    let driver_build = t.elapsed();
    let driver_terms = driver.len()
        + if extended.len() > driver.len() {
            extended.len()
        } else {
            0
        };

    // A fresh workspace, so the first run pays the plan compile.
    let mut ws = SimWorkspace::new(sim);
    let poly: Arc<PhasePoly> = ws.intern_poly(problem.cost_poly());
    let encoded = driver.encoded_qubits();
    let t = Instant::now();
    let table = (encoded <= MAX_SIM_QUBITS).then(|| poly.values_table(1 << encoded));
    let cost_table = t.elapsed();
    let cost = match &table {
        Some(values) => CostSpec::Table(values),
        None => CostSpec::Poly(&poly),
    };
    let feasible = problem.first_feasible().ok_or("no feasible point")?;
    let initial = driver.encode_state(feasible);
    let terms = driver.ordered_terms(initial);
    let layers = config.layers;
    let build = |params: &[f64]| {
        ChocoQSolver::build_circuit(&driver, &poly, &terms, initial, layers, params)
    };
    let x0 = ChocoQSolver::initial_params(layers, terms.len());
    let circuit = build(&x0);

    let t = Instant::now();
    ws.run(&circuit);
    let cold = t.elapsed();
    let mut warm = Vec::with_capacity(REPLAYS);
    for _ in 0..REPLAYS {
        let t = Instant::now();
        std::hint::black_box(ws.run(&circuit));
        warm.push(t.elapsed().as_secs_f64());
    }
    let replay = Duration::from_secs_f64(median(&warm));
    let compact = sim.engine == EngineKind::Compact;
    let plan_compile = compact.then(|| cold.saturating_sub(replay));

    let batch_replay = if compact {
        let candidates: Vec<Circuit> = (0..BATCH)
            .map(|k| {
                build(
                    &x0.iter()
                        .map(|x| x * (1.0 + 0.01 * k as f64))
                        .collect::<Vec<_>>(),
                )
            })
            .collect();
        let mut times = Vec::with_capacity(REPLAYS);
        if ws.run_batch(&candidates).is_some() {
            for _ in 0..REPLAYS {
                let t = Instant::now();
                std::hint::black_box(ws.run_batch(&candidates));
                times.push(t.elapsed().as_secs_f64() / BATCH as f64);
            }
        }
        (!times.is_empty()).then(|| Duration::from_secs_f64(median(&times)))
    } else {
        None
    };

    ws.run(&circuit);
    let mut rng = rand::rngs::StdRng::seed_from_u64(config.seed);
    let t = Instant::now();
    std::hint::black_box(ws.sample(config.shots, &mut rng));
    let sample = t.elapsed();

    // Transpiled statistics use the circuit widened by the paper's two
    // clean ancillas, as the solver computes them.
    let n = circuit.n_qubits();
    let mut wide = Circuit::new(n + 2);
    for gate in circuit.gates() {
        wide.push(gate.clone());
    }
    let t = Instant::now();
    let lowered = transpile(&wide, &TranspileOptions::with_ancillas(vec![n, n + 1]))
        .map_err(|e| e.to_string())?;
    let transpile_time = t.elapsed();

    // The optimizer against a timed objective: its self time is the
    // total minus what the objective spent.
    let spent = std::cell::Cell::new(Duration::ZERO);
    let objective = TimedObjective {
        build: &build,
        cost: &cost,
        ws: &mut ws,
        spent: &spent,
    };
    let t = Instant::now();
    let result = config
        .optimizer
        .minimize_obj(config.max_iters, objective, &x0);
    let optim_total = t.elapsed();

    Ok(Probe {
        driver_build,
        driver_terms,
        cost_table,
        cost_table_bytes: table
            .as_ref()
            .map_or(0, |v| v.len() * std::mem::size_of::<f64>()),
        plan_compile,
        replay,
        batch_replay,
        sample,
        transpile: transpile_time,
        transpiled_gates: lowered.len(),
        optim_self: optim_total.saturating_sub(spent.get()),
        optim_evaluations: result.evaluations,
    })
}

/// `E[cost]` through one circuit run, timed.
struct TimedObjective<'a, F: Fn(&[f64]) -> Circuit> {
    build: &'a F,
    cost: &'a CostSpec<'a>,
    ws: &'a mut SimWorkspace,
    spent: &'a std::cell::Cell<Duration>,
}

impl<F: Fn(&[f64]) -> Circuit> Objective for TimedObjective<'_, F> {
    fn eval(&mut self, x: &[f64]) -> f64 {
        let t = Instant::now();
        let circuit = (self.build)(x);
        let value = self.cost.expectation(self.ws.run(&circuit));
        self.spent.set(self.spent.get() + t.elapsed());
        value
    }
}

/// Runs the per-shape probes over every Choco-Q cell of a traced unit and
/// adds them to `layers`: times and counts summed over the unit, replay
/// costs as the median per call over cells.
pub fn probe_unit(unit: &TracedUnit, opts: &RunOptions, layers: &mut Layers) -> Result<(), String> {
    let sim = opts.effective_sim(&unit.spec);
    let (mut replay, mut batch) = (Vec::new(), Vec::new());
    for cell in unit.cells.iter().filter(|c| c.solver == SolverKind::ChocoQ) {
        let (problem, _) = &unit.instances[&key(cell)];
        let config = choco_config(&unit.spec, cell, problem);
        let probe = probe_choco_cell(&config, problem, sim).map_err(|e| {
            format!(
                "probe of cell {} ({}): {e}",
                cell.index,
                cell.problem.as_str()
            )
        })?;
        layers.add("core.driver_build_ms", ms(probe.driver_build));
        layers.add("core.driver_terms", probe.driver_terms as f64);
        layers.add("qsim.cost_table_ms", ms(probe.cost_table));
        let mib = probe.cost_table_bytes as f64 / (1024.0 * 1024.0);
        layers.set(
            "qsim.cost_table_mb",
            layers.get("qsim.cost_table_mb").max(mib),
        );
        if let Some(compile) = probe.plan_compile {
            layers.add("qsim.plan_compile_ms", ms(compile));
        }
        replay.push(probe.replay.as_secs_f64() * 1e6);
        if let Some(b) = probe.batch_replay {
            batch.push(b.as_secs_f64() * 1e6);
        }
        layers.add("qsim.sample_ms", ms(probe.sample));
        layers.add("qsim.transpile_ms", ms(probe.transpile));
        layers.add("qsim.transpiled_gates", probe.transpiled_gates as f64);
        layers.add("optim.self_ms", ms(probe.optim_self));
        layers.add("optim.evaluations", probe.optim_evaluations as f64);
    }
    let engine = match sim.engine {
        EngineKind::Compact => Some("qsim.replay_us.compact"),
        EngineKind::Dense => Some("qsim.replay_us.dense"),
        _ => None,
    };
    if let (Some(name), false) = (engine, replay.is_empty()) {
        layers.set(name, median(&replay));
    }
    if !batch.is_empty() {
        layers.set("qsim.batch_replay_us", median(&batch));
    }
    Ok(())
}

/// Journal cost per cell: `execute` with a checkpoint journal minus
/// without, on the spec at a one-iteration budget (so the difference is
/// not lost in solve time), alternating order over `pairs` pairs; the
/// median difference per cell, in µs.
pub fn journal_append_us(
    spec: &ExperimentSpec,
    opts: &RunOptions,
    out_dir: &Path,
    pairs: usize,
) -> Result<f64, String> {
    let mut reduced = spec.clone();
    reduced.config.max_iters = Some(1);
    reduced.config.restarts = Some(1);
    reduced.config.transpiled_stats = Some(false);
    let cells = reduced.expand_cells(false).len().max(1) as f64;
    let journal = out_dir.join(format!("journal-{}.jsonl", std::process::id()));
    let with_journal = RunOptions {
        checkpoint: Some(journal.display().to_string()),
        ..opts.clone()
    };
    let timed = |opts: &RunOptions| -> Result<f64, String> {
        let _ = std::fs::remove_file(&journal);
        let t = Instant::now();
        execute(&reduced, opts)?;
        let elapsed = t.elapsed().as_secs_f64();
        let _ = std::fs::remove_file(&journal);
        Ok(elapsed)
    };
    let mut diffs = Vec::with_capacity(pairs);
    for pair in 0..pairs {
        let (with, without) = if pair % 2 == 0 {
            let without = timed(opts)?;
            (timed(&with_journal)?, without)
        } else {
            let with = timed(&with_journal)?;
            (with, timed(opts)?)
        };
        diffs.push((with - without) / cells * 1e6);
    }
    Ok(median(&diffs))
}
