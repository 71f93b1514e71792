//! The batch scheduler: expands a spec into cells and fans them out
//! across `std::thread::scope` workers.
//!
//! Each worker owns one [`SimWorkspace`], so after its first cell the
//! zero-allocation solver path is exercised in parallel across the whole
//! batch. Results land in a slot vector indexed by cell position, which
//! makes the report — and its JSON — byte-identical at any worker count.
//!
//! The scheduler is fault-tolerant end to end: a panicking cell is
//! caught and becomes a structured error record (its worker continues
//! on a fresh workspace), cooperative per-cell deadlines turn runaway
//! solves into `timeout` records, transient failures are retried on a
//! bounded budget, and an optional append-only checkpoint journal lets
//! a killed run resume without recomputing finished cells — emitting
//! byte-identical reports at any kill point and worker count.

use crate::checkpoint::{load_journal, CheckpointJournal, JournalHeader};
use crate::fault::{CellError, CellErrorKind, FaultKind, FaultPlan};
use crate::report::{Field, Record, RunReport};
use crate::spec::{Cell, ExperimentSpec, RunKind, SolverKind};
use choco_core::{plan_elimination, ChocoQConfig, ChocoQSolver, CommuteDriver};
use choco_device::LatencyModel;
use choco_model::{solve_exact, Optimum, Problem, SolveOutcome};
use choco_optim::OptimizerKind;
use choco_qsim::{EngineKind, SimConfig, SimWorkspace};
use choco_solvers::{CyclicQaoaSolver, HeaSolver, PenaltyQaoaSolver, QaoaConfig};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Execution options orthogonal to the spec (how to run, not what).
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// Worker threads for the cell scheduler (0 = one per host core).
    pub workers: usize,
    /// Trim the axes to the spec's quick subset.
    pub quick: bool,
    /// State-vector engine configuration for every worker's workspace.
    /// Defaults to serial: with cell-level parallelism outer × inner
    /// thread fan-out oversubscribes the host.
    pub sim: SimConfig,
    /// Engine override from the CLI (`--engine`). `None` defers to the
    /// spec's `[grid] engine` key, which in turn defers to `sim.engine`.
    pub engine: Option<EngineKind>,
    /// Batched-replay width override from the CLI (`--batch`). `None`
    /// defers to the spec's `[grid] batch` key, which in turn defers to
    /// `sim.batch_size`. Like the engine, a pure performance knob:
    /// batched replays are bit-identical to serial ones at any width.
    pub batch: Option<usize>,
    /// Classical-optimizer override from the CLI (`--optimizer`). `None`
    /// defers to the spec's `[grid] optimizer` key, which in turn defers
    /// to the solver default (COBYLA).
    pub optimizer: Option<OptimizerKind>,
    /// Restart-scheduler workers per Choco-Q solve
    /// (`--restart-workers`). Defaults to 1 (serial): cell-level
    /// parallelism already fills the host, and solve results are
    /// byte-identical at any setting — raise it for grids with few
    /// expensive cells.
    pub restart_workers: usize,
    /// Checkpoint journal path (`--checkpoint`). Grid runs append every
    /// completed cell; pair with [`RunOptions::resume`] to skip cells an
    /// earlier (possibly killed) run already finished.
    pub checkpoint: Option<String>,
    /// Resume from an existing checkpoint journal (`--resume`). Requires
    /// `checkpoint`; a missing journal file starts fresh with a warning.
    pub resume: bool,
    /// Per-cell wall-clock budget (`--cell-timeout`). Cooperative: the
    /// deadline is checked at every objective evaluation, so an expired
    /// cell finishes its current simulation step, then fails with a
    /// `timeout` error record instead of running away.
    pub cell_timeout: Option<Duration>,
    /// Retry budget for transient per-cell failures — panics and
    /// timeouts (`--retries`). Deterministic failures (solver
    /// rejections, size gates) are never retried. The retries a cell
    /// consumed are reported in its `retries` field.
    pub retries: u32,
    /// Deterministic fault injection (`CHOCO_FAULT_INJECT`), exercised
    /// by CI to prove the isolation and resume paths. `None` in normal
    /// operation.
    pub faults: Option<Arc<FaultPlan>>,
    /// Cooperative cancellation flag shared by every cell of the run
    /// (the serve daemon's `cancel` op). Once set, queued cells are
    /// skipped and in-flight solves drain through the deadline hook,
    /// landing as `cancelled` error records. `None` in plain batch runs.
    pub cancel: Option<Arc<std::sync::atomic::AtomicBool>>,
    /// Whole-run wall-clock deadline (the serve daemon's per-job
    /// `deadline_secs` knob). Each cell's effective deadline is the
    /// earlier of this and its `cell_timeout`; cells starting after it
    /// has passed fail immediately as `timeout` records, and transient
    /// failures stop retrying once it expires.
    pub job_deadline: Option<Instant>,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            workers: 0,
            quick: false,
            sim: SimConfig::serial(),
            engine: None,
            batch: None,
            optimizer: None,
            restart_workers: 1,
            checkpoint: None,
            resume: false,
            cell_timeout: None,
            retries: 0,
            faults: None,
            cancel: None,
            job_deadline: None,
        }
    }
}

impl RunOptions {
    /// The effective worker count for `n_cells` cells.
    pub fn effective_workers(&self, n_cells: usize) -> usize {
        let requested = if self.workers == 0 {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            self.workers
        };
        requested.clamp(1, n_cells.max(1))
    }

    /// The engine configuration a run of `spec` uses, resolved in
    /// priority order: CLI `--engine` override, then the spec's
    /// `[grid] engine`, then these options' base `sim` configuration.
    /// Because the engines are bit-identical, the resolution changes
    /// wall-clock, never report bytes (asserted by CI's engine matrix).
    pub fn effective_sim(&self, spec: &ExperimentSpec) -> SimConfig {
        let engine = self.engine.or(spec.engine).unwrap_or(self.sim.engine);
        let batch = self.batch.or(spec.batch).unwrap_or(self.sim.batch_size);
        self.sim.with_engine(engine).with_batch(batch)
    }

    /// The classical optimizer a run of `spec` uses, resolved in the same
    /// priority order as the engine: CLI `--optimizer` override, then the
    /// spec's `[grid] optimizer`, then the solver default (COBYLA).
    pub fn effective_optimizer(&self, spec: &ExperimentSpec) -> OptimizerKind {
        self.optimizer.or(spec.optimizer).unwrap_or_default()
    }
}

/// Budget-scaled Choco-Q configuration: big registers get fewer restarts
/// and iterations so a full-suite sweep stays CPU-feasible.
pub fn scaled_choco(n_vars: usize) -> ChocoQConfig {
    let base = ChocoQConfig::default();
    match n_vars {
        0..=12 => ChocoQConfig {
            max_iters: 100,
            ..base
        },
        13..=16 => ChocoQConfig {
            max_iters: 120,
            restarts: 6,
            ..base
        },
        17..=19 => ChocoQConfig {
            max_iters: 60,
            restarts: 4,
            shots: 4_096,
            ..base
        },
        _ => ChocoQConfig {
            max_iters: 25,
            restarts: 1,
            shots: 2_048,
            transpiled_stats: true,
            ..base
        },
    }
}

/// Budget-scaled baseline configuration (the paper runs the baselines
/// with 7 layers; iteration budget shrinks with register size).
pub fn scaled_qaoa(n_vars: usize) -> QaoaConfig {
    let base = QaoaConfig::default();
    match n_vars {
        0..=12 => base,
        13..=16 => QaoaConfig {
            max_iters: 60,
            ..base
        },
        17..=19 => QaoaConfig {
            max_iters: 40,
            shots: 4_096,
            ..base
        },
        _ => QaoaConfig {
            max_iters: 15,
            shots: 2_048,
            ..base
        },
    }
}

/// One resolved problem instance shared by all its cells.
pub struct Instance {
    /// The generated problem.
    pub problem: Problem,
    /// The exact optimum, or why it could not be computed.
    pub optimum: Result<Optimum, String>,
}

/// Resolves every distinct `(problem, seed)` instance a cell list needs.
///
/// # Errors
///
/// Returns generator failures (malformed or oversized families).
pub fn build_instances(cells: &[Cell]) -> Result<BTreeMap<(String, u64), Instance>, String> {
    let mut instances = BTreeMap::new();
    for cell in cells {
        let key = (cell.problem.as_str().to_string(), cell.instance_seed);
        if instances.contains_key(&key) {
            continue;
        }
        let problem = cell.problem.build(cell.instance_seed)?;
        let optimum = solve_exact(&problem).map_err(|e| e.to_string());
        instances.insert(key, Instance { problem, optimum });
    }
    Ok(instances)
}

/// Executes a spec and assembles its report.
///
/// # Errors
///
/// Returns an error for unresolvable specs (bad problem family, failed
/// generators) and for unusable checkpoint journals; per-cell solver
/// failures, panics, and timeouts are recorded in the report instead of
/// aborting the batch.
pub fn execute(spec: &ExperimentSpec, opts: &RunOptions) -> Result<RunReport, String> {
    if !matches!(spec.kind, RunKind::Grid) && (opts.checkpoint.is_some() || opts.resume) {
        return Err(format!(
            "--checkpoint/--resume support only grid runs (this spec is `{}`)",
            spec.kind.label()
        ));
    }
    match spec.kind {
        RunKind::Grid => execute_grid(spec, opts),
        RunKind::Decomposition => crate::special::execute_decomposition(spec, opts),
        RunKind::Ablation => crate::special::execute_ablation(spec, opts),
        RunKind::Support => crate::special::execute_support(spec, opts),
    }
}

/// Expands a grid spec's cells, applying the `--quick` variable cap
/// (dropping oversized instances and reindexing) exactly like the grid
/// executor — shared with `choco-serve`, so a daemon job expands to the
/// same cell list as a plain `choco-cli run` of the same spec.
pub(crate) fn expand_grid_cells(spec: &ExperimentSpec, quick: bool) -> Result<Vec<Cell>, String> {
    let mut cells = spec.expand_cells(quick);

    // `--quick` additionally drops cells above the spec's variable cap —
    // before any exact solve, since generating a Problem is microseconds
    // but the exact optimum of precisely the oversized classes the cap
    // exists to skip is the expensive part.
    if let (true, Some(cap)) = (quick, spec.quick_max_vars) {
        let mut sizes: BTreeMap<(String, u64), usize> = BTreeMap::new();
        for cell in &cells {
            let key = (cell.problem.as_str().to_string(), cell.instance_seed);
            if let std::collections::btree_map::Entry::Vacant(slot) = sizes.entry(key) {
                let n = cell.problem.build(cell.instance_seed)?.n_vars();
                if n > cap {
                    eprintln!(
                        "skip {} seed={} (--quick: {n} vars > {cap})",
                        cell.problem.as_str(),
                        cell.instance_seed
                    );
                }
                slot.insert(n);
            }
        }
        cells.retain(|cell| sizes[&(cell.problem.as_str().to_string(), cell.instance_seed)] <= cap);
        for (index, cell) in cells.iter_mut().enumerate() {
            cell.index = index;
        }
    }
    Ok(cells)
}

fn execute_grid(spec: &ExperimentSpec, opts: &RunOptions) -> Result<RunReport, String> {
    let cells = expand_grid_cells(spec, opts.quick)?;

    // Checkpoint setup: load completed cells from an existing journal
    // (resume) or open a fresh one. The header binds the journal to the
    // spec and to every report-shaping option, so a stale or mismatched
    // journal fails loudly instead of producing a franken-report.
    let header = JournalHeader::for_run(spec, opts, cells.len());
    let (journal, mut completed) = match (&opts.checkpoint, opts.resume) {
        (None, false) => (None, BTreeMap::new()),
        (None, true) => return Err("--resume requires --checkpoint <path>".to_string()),
        (Some(path), resume) => {
            let path = Path::new(path);
            if resume && path.exists() {
                let loaded = load_journal(path, &header)?;
                (Some(CheckpointJournal::append_to(path)?), loaded.completed)
            } else {
                if resume {
                    eprintln!(
                        "checkpoint {}: no journal found; starting fresh",
                        path.display()
                    );
                }
                (
                    Some(CheckpointJournal::create(path, &header)?),
                    BTreeMap::new(),
                )
            }
        }
    };
    let n_resumed = completed.len();
    if n_resumed > 0 {
        eprintln!(
            "checkpoint: resuming — {n_resumed}/{} cells already complete",
            cells.len()
        );
    }
    let pending: Vec<usize> = (0..cells.len())
        .filter(|i| !completed.contains_key(i))
        .collect();
    let pending_cells: Vec<Cell> = pending.iter().map(|&i| cells[i].clone()).collect();
    let instances = build_instances(&pending_cells)?;

    let n_workers = opts.effective_workers(pending.len());
    let sim = opts.effective_sim(spec);
    let done = AtomicUsize::new(0);
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<Record>>> = Mutex::new(vec![None; cells.len()]);
    // First journal-append failure; stops all workers (results already
    // computed stay in their slots, but the run fails — a checkpoint
    // that silently stopped recording would defeat its purpose).
    let journal_error: Mutex<Option<String>> = Mutex::new(None);
    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..n_workers {
            scope.spawn(|| {
                let mut workspace = SimWorkspace::new(sim);
                loop {
                    if journal_error
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .is_some()
                    {
                        break;
                    }
                    let p = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&i) = pending.get(p) else { break };
                    let cell = &cells[i];
                    let key = (cell.problem.as_str().to_string(), cell.instance_seed);
                    let cell_started = Instant::now();
                    let record =
                        run_grid_cell(spec, opts, cell, &instances[&key], &mut workspace, sim);
                    if let Some(journal) = &journal {
                        if let Err(e) = journal.append_cell(i, cell_started.elapsed(), &record) {
                            *journal_error.lock().unwrap_or_else(PoisonError::into_inner) = Some(e);
                        }
                    }
                    slots.lock().unwrap_or_else(PoisonError::into_inner)[i] = Some(record);
                    let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
                    eprintln!(
                        "[{}/{}] {} seed={} {} ({:.1}s elapsed)",
                        finished + n_resumed,
                        cells.len(),
                        cell.problem.as_str(),
                        cell.instance_seed,
                        cell.solver.label(),
                        started.elapsed().as_secs_f64()
                    );
                }
            });
        }
    });
    if let Some(e) = journal_error
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
    {
        return Err(e);
    }
    let mut slot_vec = slots.into_inner().unwrap_or_else(PoisonError::into_inner);
    let records: Vec<Record> = (0..cells.len())
        .map(|i| {
            completed
                .remove(&i)
                .or_else(|| slot_vec[i].take())
                .ok_or_else(|| format!("internal: cell {i} produced no record"))
        })
        .collect::<Result<_, String>>()?;
    let summary = summarize(&records);
    Ok(RunReport {
        name: spec.name.clone(),
        description: spec.description.clone(),
        kind: spec.kind.label(),
        spec_seed: spec.seed,
        quick: opts.quick,
        records,
        summary,
    })
}

/// A cell attempt that ran to completion, plus what the engine selection
/// resolved to.
pub(crate) struct CellSuccess {
    outcome: SolveOutcome,
    engine: Option<String>,
    occupancy: Option<u64>,
}

/// Runs one cell under the retry policy and renders its record. Retries
/// apply only to transient failure kinds (panic, timeout) and are
/// bounded by `opts.retries`; the count a cell consumed is reported in
/// its `retries` field either way.
pub(crate) fn run_grid_cell(
    spec: &ExperimentSpec,
    opts: &RunOptions,
    cell: &Cell,
    instance: &Instance,
    workspace: &mut SimWorkspace,
    sim: SimConfig,
) -> Record {
    let mut retries = 0u32;
    let result = loop {
        let attempt = run_cell_attempt(spec, opts, cell, instance, workspace, sim);
        // Sampled *after* the attempt: a cancellation mid-solve surfaces
        // as a timeout (it drains through the same deadline hook), so
        // relabel it — and never retry, the flag is sticky.
        let cancelled = opts
            .cancel
            .as_ref()
            .is_some_and(|flag| flag.load(Ordering::SeqCst));
        match attempt {
            Ok(success) => break Ok(success),
            Err(e) if cancelled && e.kind == CellErrorKind::Timeout => {
                let mut e = CellError::new(CellErrorKind::Cancelled, "job cancelled");
                e.retries = retries;
                break Err(e);
            }
            Err(e)
                if e.kind.retryable()
                    && retries < opts.retries
                    && opts.job_deadline.is_none_or(|d| Instant::now() < d) =>
            {
                retries += 1;
                eprintln!(
                    "cell {} ({} seed={} {}): attempt failed ({e}); retry {retries}/{}",
                    cell.index,
                    cell.problem.as_str(),
                    cell.instance_seed,
                    cell.solver.label(),
                    opts.retries
                );
            }
            Err(mut e) => {
                e.retries = retries;
                break Err(e);
            }
        }
    };
    grid_record(spec, opts, cell, instance, result, retries)
}

/// One isolated attempt at a cell: injects any scheduled fault, arms the
/// cooperative deadline, and catches panics. After a caught panic the
/// worker's workspace is replaced wholesale — a panic mid-simulation can
/// leave engine caches in an inconsistent state, and a fresh workspace
/// is cheap next to a cell solve.
fn run_cell_attempt(
    spec: &ExperimentSpec,
    opts: &RunOptions,
    cell: &Cell,
    instance: &Instance,
    workspace: &mut SimWorkspace,
    sim: SimConfig,
) -> Result<CellSuccess, CellError> {
    let fault = opts.faults.as_ref().and_then(|plan| plan.draw(cell.index));
    if let Some(FaultKind::Delay(pause)) = fault {
        std::thread::sleep(pause);
    }
    // An injected timeout is an already-expired deadline: it exercises
    // the exact production path (the first objective evaluation trips it)
    // without depending on host speed. Otherwise the effective deadline
    // is the earlier of the per-cell budget and the whole-run deadline.
    let deadline = match fault {
        Some(FaultKind::Timeout) => Some(Instant::now()),
        _ => {
            let cell = opts.cell_timeout.map(|budget| Instant::now() + budget);
            match (cell, opts.job_deadline) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            }
        }
    };
    // The workspace is not unwind-safe (see `SimWorkspace`'s docs); the
    // assertion is sound because the panic arm below discards it.
    let attempt = catch_unwind(AssertUnwindSafe(|| {
        if matches!(fault, Some(FaultKind::Panic)) {
            panic!("injected fault: forced panic (CHOCO_FAULT_INJECT)");
        }
        solve_cell(spec, opts, cell, instance, workspace, deadline)
    }));
    match attempt {
        Ok(Ok(outcome)) => Ok(CellSuccess {
            outcome,
            // What the engine selection actually resolved to, plus the
            // final state's |F| occupancy. The occupancy is
            // engine-invariant (amplitudes are bit-identical across
            // engines); the resolved label is the one field that
            // legitimately differs between engine selections, and the CI
            // engine matrix masks exactly it.
            engine: workspace
                .state()
                .map(|e| e.representation_label().to_string()),
            occupancy: workspace.state().map(|e| e.occupancy() as u64),
        }),
        Ok(Err(error)) => Err(error),
        Err(payload) => {
            // The replacement workspace keeps the (possibly shared) plan
            // cache: it heals its own lock poisoning, and dropping it
            // here would silently cut a daemon worker off from the
            // cross-request cache after one panicking cell.
            *workspace = SimWorkspace::with_plan_cache(sim, workspace.plan_cache());
            Err(CellError::from_panic(payload.as_ref()))
        }
    }
}

/// Dispatches a cell to its solver with the per-cell configuration
/// (budget-scaled, spec-overridden, deadline-armed).
fn solve_cell(
    spec: &ExperimentSpec,
    opts: &RunOptions,
    cell: &Cell,
    instance: &Instance,
    workspace: &mut SimWorkspace,
    deadline: Option<Instant>,
) -> Result<SolveOutcome, CellError> {
    // Fold an unsolvable exact reference into the error channel up
    // front: metrics need the optimum, so solving without one is wasted
    // work.
    if let Err(e) = &instance.optimum {
        return Err(CellError::new(
            CellErrorKind::Solver,
            format!("exact reference unavailable: {e}"),
        ));
    }
    let problem = &instance.problem;
    let cell_seed = spec.cell_seed(cell);
    let optimizer = opts.effective_optimizer(spec);
    let noise = match (spec.noisy, cell.device) {
        (true, Some(device)) => Some(device.model().noise()),
        _ => None,
    };
    match cell.solver {
        SolverKind::ChocoQ => {
            let base = scaled_choco(problem.n_vars());
            let config = ChocoQConfig {
                layers: cell.layers.unwrap_or(base.layers),
                shots: spec.config.shots.unwrap_or(base.shots),
                max_iters: spec.config.max_iters.unwrap_or(base.max_iters),
                restarts: spec.config.restarts.unwrap_or(base.restarts),
                restart_workers: opts.restart_workers,
                optimizer,
                noise_trajectories: spec
                    .config
                    .noise_trajectories
                    .unwrap_or(base.noise_trajectories),
                transpiled_stats: spec
                    .config
                    .transpiled_stats
                    .unwrap_or(base.transpiled_stats),
                eliminate: cell.eliminate,
                seed: cell_seed,
                noise,
                deadline,
                cancel: opts.cancel.clone(),
                ..base
            };
            ChocoQSolver::new(config)
                .solve_with_workspace(problem, workspace)
                .map_err(|e| CellError::from_solver(&e))
        }
        baseline => {
            let base = scaled_qaoa(problem.n_vars());
            let config = QaoaConfig {
                layers: cell.layers.unwrap_or(base.layers),
                shots: spec.config.shots.unwrap_or(base.shots),
                max_iters: spec.config.max_iters.unwrap_or(base.max_iters),
                optimizer,
                noise_trajectories: spec
                    .config
                    .noise_trajectories
                    .unwrap_or(base.noise_trajectories),
                transpiled_stats: spec
                    .config
                    .transpiled_stats
                    .unwrap_or(base.transpiled_stats),
                seed: cell_seed,
                noise,
                deadline,
                cancel: opts.cancel.clone(),
                ..base
            };
            match baseline {
                SolverKind::Penalty => PenaltyQaoaSolver::new(config)
                    .solve_with_workspace(problem, workspace)
                    .map_err(|e| CellError::from_solver(&e)),
                SolverKind::Cyclic => CyclicQaoaSolver::new(config)
                    .solve_with_workspace(problem, workspace)
                    .map_err(|e| CellError::from_solver(&e)),
                SolverKind::Hea => HeaSolver::new(config)
                    .solve_with_workspace(problem, workspace)
                    .map_err(|e| CellError::from_solver(&e)),
                SolverKind::ChocoQ => unreachable!("handled above"),
            }
        }
    }
}

/// Renders one cell result — success or structured failure — as a
/// record. Field order is fixed and shared by both branches (nulls on
/// failure), so every record of a run keeps one schema. Exposed to the
/// serve scheduler for records it produces without a solve attempt
/// (cancelled/expired fast paths, supervisor give-ups).
pub(crate) fn grid_record(
    spec: &ExperimentSpec,
    opts: &RunOptions,
    cell: &Cell,
    instance: &Instance,
    result: Result<CellSuccess, CellError>,
    retries: u32,
) -> Record {
    let problem = &instance.problem;
    let cell_seed = spec.cell_seed(cell);
    let optimizer = opts.effective_optimizer(spec);
    let noisy = spec.noisy && cell.device.is_some();

    let mut record = Record::new();
    record
        .push("index", Field::UInt(cell.index as u64))
        .push("problem", Field::Str(cell.problem.as_str().to_string()))
        .push("instance", Field::Str(problem.name().to_string()))
        .push("instance_seed", Field::UInt(cell.instance_seed))
        .push("cell_seed", Field::UInt(cell_seed))
        .push("solver", Field::Str(cell.solver.label().to_string()))
        .push("optimizer", Field::Str(optimizer.label().to_string()))
        .push("layers", Field::opt_uint(cell.layers.map(|l| l as u64)))
        .push("eliminate", Field::UInt(cell.eliminate as u64))
        .push(
            "device",
            Field::opt_str(cell.device.map(|d| d.model().name.to_string())),
        )
        .push("noisy", Field::Bool(noisy))
        .push("n_vars", Field::UInt(problem.n_vars() as u64))
        .push(
            "n_constraints",
            Field::UInt(problem.constraints().len() as u64),
        );

    // Outcome-dependent fields follow in a fixed order.
    let (status, error, success) = match result {
        Err(e) => ("error", Some(e), None),
        Ok(s) => ("ok", None, Some(s)),
    };
    let outcome = success.as_ref().map(|s| &s.outcome);
    let metrics = outcome.map(|o| {
        let optimum = instance
            .optimum
            .as_ref()
            .expect("solve_cell fails cells without an exact reference");
        o.metrics_with(problem, optimum)
    });
    record
        .push("status", Field::Str(status.into()))
        .push(
            "error",
            Field::opt_str(error.as_ref().map(|e| e.detail.clone())),
        )
        .push(
            "error_kind",
            Field::opt_str(error.as_ref().map(|e| e.kind.label().to_string())),
        )
        .push("retries", Field::UInt(retries as u64))
        .push(
            "engine",
            Field::opt_str(success.as_ref().and_then(|s| s.engine.clone())),
        )
        .push(
            "occupancy",
            Field::opt_uint(success.as_ref().and_then(|s| s.occupancy)),
        )
        .push(
            "optimal_value",
            Field::opt_float(instance.optimum.as_ref().ok().map(|o| o.value)),
        )
        .push(
            "success_rate",
            Field::opt_float(metrics.as_ref().map(|m| m.success_rate)),
        )
        .push(
            "in_constraints_rate",
            Field::opt_float(metrics.as_ref().map(|m| m.in_constraints_rate)),
        )
        .push("arg", Field::opt_float(metrics.as_ref().map(|m| m.arg)))
        .push(
            "expected_objective",
            Field::opt_float(metrics.as_ref().map(|m| m.expected_objective)),
        )
        .push(
            "best_value",
            Field::opt_float(metrics.as_ref().and_then(|m| m.best_found.map(|(_, v)| v))),
        )
        .push(
            "iterations",
            Field::opt_uint(outcome.map(|o| o.iterations as u64)),
        )
        .push(
            "logical_depth",
            Field::opt_uint(outcome.map(|o| o.circuit.logical_depth as u64)),
        )
        .push(
            "transpiled_depth",
            Field::opt_uint(outcome.and_then(|o| o.circuit.transpiled_depth.map(|d| d as u64))),
        )
        .push(
            "transpiled_gates",
            Field::opt_uint(outcome.and_then(|o| o.circuit.transpiled_gates.map(|d| d as u64))),
        )
        .push(
            "two_qubit_gates",
            Field::opt_uint(outcome.and_then(|o| o.circuit.two_qubit_gates.map(|d| d as u64))),
        );

    // Modeled quantum-execution latency on the cell's device. Only the
    // *modeled* component is recorded: the compile/classical parts of the
    // estimate are host-measured wall-clock and would break report
    // determinism.
    let latency = match (cell.device, outcome) {
        (Some(device), Some(o)) => Some(
            LatencyModel::default()
                .estimate_from_outcome(&device.model(), o, o.counts.shots())
                .quantum
                .as_secs_f64(),
        ),
        _ => None,
    };
    record.push("latency_quantum_s", Field::opt_float(latency));

    // Elimination-plan structure for Choco-Q cells (Fig. 13's x-axis).
    let (branches, nonzeros) = if cell.solver == SolverKind::ChocoQ && outcome.is_some() {
        match plan_elimination(problem, cell.eliminate) {
            Ok(plan) => {
                let nonzeros = plan.branches.first().map(|b| {
                    CommuteDriver::build(b.problem.constraints())
                        .map(|d| d.total_nonzeros() as u64)
                        .unwrap_or(0)
                });
                (Some(plan.branches.len() as u64), nonzeros)
            }
            Err(_) => (None, None),
        }
    } else {
        (None, None)
    };
    record
        .push("branches", Field::opt_uint(branches))
        .push("delta_nonzeros", Field::opt_uint(nonzeros));

    if spec.history {
        record.push(
            "cost_history",
            Field::Floats(outcome.map(|o| o.cost_history.clone()).unwrap_or_default()),
        );
    }
    record
}

/// Aggregates a finished grid into the report summary: per-solver mean
/// metrics plus the paper's headline improvement factors. Non-finite
/// metric values (a NaN success rate from a degenerate cell) are
/// excluded from every aggregate rather than poisoning it.
pub(crate) fn summarize(records: &[Record]) -> Record {
    let mut summary = Record::new();
    let errors = records
        .iter()
        .filter(|r| r.get("status").and_then(as_str) == Some("error"))
        .count();
    let retried = records
        .iter()
        .filter_map(|r| match r.get("retries") {
            Some(Field::UInt(n)) => Some(*n),
            _ => None,
        })
        .sum::<u64>();
    summary
        .push("cells", Field::UInt(records.len() as u64))
        .push("errors", Field::UInt(errors as u64))
        .push("retries", Field::UInt(retried));

    for solver in SolverKind::ALL {
        let rows: Vec<&Record> = records
            .iter()
            .filter(|r| r.get("solver").and_then(as_str) == Some(solver.label()))
            .filter(|r| r.get("status").and_then(as_str) == Some("ok"))
            .collect();
        if rows.is_empty() {
            continue;
        }
        let mean = |key: &str| {
            let values: Vec<f64> = rows
                .iter()
                .filter_map(|r| r.get(key).and_then(as_float))
                .filter(|v| v.is_finite())
                .collect();
            values.iter().sum::<f64>() / values.len().max(1) as f64
        };
        match solver {
            SolverKind::Penalty => summary
                .push("penalty_mean_success", Field::Float(mean("success_rate")))
                .push(
                    "penalty_mean_in_constraints",
                    Field::Float(mean("in_constraints_rate")),
                ),
            SolverKind::Cyclic => summary
                .push("cyclic_mean_success", Field::Float(mean("success_rate")))
                .push(
                    "cyclic_mean_in_constraints",
                    Field::Float(mean("in_constraints_rate")),
                ),
            SolverKind::Hea => summary
                .push("hea_mean_success", Field::Float(mean("success_rate")))
                .push(
                    "hea_mean_in_constraints",
                    Field::Float(mean("in_constraints_rate")),
                ),
            SolverKind::ChocoQ => summary
                .push("choco_q_mean_success", Field::Float(mean("success_rate")))
                .push(
                    "choco_q_mean_in_constraints",
                    Field::Float(mean("in_constraints_rate")),
                ),
        };
    }

    // Choco-Q vs the best baseline of the *same cell coordinates* —
    // geometric mean over coordinates where both found the optimum
    // (Table II / Fig. 10 report this factor).
    let mut groups: BTreeMap<String, (Option<f64>, f64)> = BTreeMap::new();
    for r in records {
        let Some(success) = r.get("success_rate").and_then(as_float) else {
            continue;
        };
        if !success.is_finite() {
            continue;
        }
        let key = format!(
            "{}|{}|{}|{}|{}",
            r.get("problem").and_then(as_str).unwrap_or(""),
            r.get("instance_seed").map(field_text).unwrap_or_default(),
            r.get("layers").map(field_text).unwrap_or_default(),
            r.get("eliminate").map(field_text).unwrap_or_default(),
            r.get("device").and_then(as_str).unwrap_or("ideal"),
        );
        let entry = groups.entry(key).or_insert((None, 0.0));
        if r.get("solver").and_then(as_str) == Some(SolverKind::ChocoQ.label()) {
            entry.0 = Some(success);
        } else {
            entry.1 = entry.1.max(success);
        }
    }
    let ratios: Vec<f64> = groups
        .values()
        .filter_map(|&(choco, best_baseline)| match choco {
            Some(c) if c > 0.0 && best_baseline > 0.0 => Some(c / best_baseline),
            _ => None,
        })
        .collect();
    if !ratios.is_empty() {
        summary.push(
            "choco_vs_best_baseline_success_gmean",
            Field::Float(choco_mathkit::geometric_mean(&ratios)),
        );
    }
    summary
}

fn as_str(field: &Field) -> Option<&str> {
    match field {
        Field::Str(s) => Some(s),
        _ => None,
    }
}

fn as_float(field: &Field) -> Option<f64> {
    match field {
        Field::Float(f) => Some(*f),
        Field::UInt(u) => Some(*u as f64),
        _ => None,
    }
}

fn field_text(field: &Field) -> String {
    match field {
        Field::Null => "-".into(),
        Field::Bool(b) => b.to_string(),
        Field::UInt(u) => u.to_string(),
        Field::Float(f) => format!("{f}"),
        Field::Str(s) => s.clone(),
        Field::Floats(_) => "[..]".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ExperimentSpec;

    fn tiny_spec() -> ExperimentSpec {
        ExperimentSpec::parse_str(
            r#"
name = "tiny"
description = "unit-test grid"
[grid]
problems = ["F1"]
solvers = ["choco-q", "cyclic"]
[config]
shots = 1000
max_iters = 10
restarts = 1
transpiled_stats = false
"#,
        )
        .expect("valid spec")
    }

    #[test]
    fn grid_runs_and_orders_records() {
        let report = execute(&tiny_spec(), &RunOptions::default()).unwrap();
        assert_eq!(report.records.len(), 2);
        assert_eq!(
            report.records[0].get("solver").and_then(as_str),
            Some("choco-q")
        );
        assert_eq!(report.records[0].get("status").and_then(as_str), Some("ok"));
        let success = report.records[0]
            .get("success_rate")
            .and_then(as_float)
            .unwrap();
        assert!(success > 0.0, "choco-q should solve F1 sometimes");
        let incons = report.records[0]
            .get("in_constraints_rate")
            .and_then(as_float)
            .unwrap();
        assert!((incons - 1.0).abs() < 1e-9, "hard constraints");
    }

    #[test]
    fn worker_count_does_not_change_the_report() {
        let spec = tiny_spec();
        let one = execute(
            &spec,
            &RunOptions {
                workers: 1,
                ..RunOptions::default()
            },
        )
        .unwrap();
        let two = execute(
            &spec,
            &RunOptions {
                workers: 2,
                ..RunOptions::default()
            },
        )
        .unwrap();
        assert_eq!(one.to_json(), two.to_json());
        assert_eq!(one.to_csv(), two.to_csv());
    }

    #[test]
    fn solver_failures_become_error_records() {
        // Knapsack's budget row is not summation format: cyclic cannot
        // encode it and must fail gracefully, not abort the batch.
        let spec = ExperimentSpec::parse_str(
            r#"
name = "err"
[grid]
problems = ["B1"]
solvers = ["cyclic"]
[config]
shots = 500
max_iters = 5
"#,
        )
        .unwrap();
        let report = execute(&spec, &RunOptions::default()).unwrap();
        assert_eq!(
            report.records[0].get("status").and_then(as_str),
            Some("error")
        );
        assert_eq!(
            report.records[0].get("error_kind").and_then(as_str),
            Some("solver"),
            "deterministic rejection classifies as a solver error"
        );
        assert_eq!(report.records[0].get("retries"), Some(&Field::UInt(0)));
        assert_eq!(report.summary.get("errors"), Some(&Field::UInt(1)));
    }

    #[test]
    fn resume_without_checkpoint_is_rejected() {
        let err = execute(
            &tiny_spec(),
            &RunOptions {
                resume: true,
                ..RunOptions::default()
            },
        )
        .unwrap_err();
        assert!(err.contains("--checkpoint"), "{err}");
    }

    #[test]
    fn quick_cap_drops_cells_and_reindexes() {
        let spec = ExperimentSpec::parse_str(
            r#"
name = "cap"
[grid]
problems = ["F1", "F2"]
solvers = ["hea"]
quick_max_vars = 8
[config]
shots = 200
max_iters = 3
"#,
        )
        .unwrap();
        // F2 has 10 vars: dropped under --quick, kept otherwise.
        let full = execute(&spec, &RunOptions::default()).unwrap();
        assert_eq!(full.records.len(), 2);
        let quick = execute(
            &spec,
            &RunOptions {
                quick: true,
                ..RunOptions::default()
            },
        )
        .unwrap();
        assert_eq!(quick.records.len(), 1);
        assert_eq!(quick.records[0].get("index"), Some(&Field::UInt(0)));
    }

    #[test]
    fn scaled_configs_shrink_with_size() {
        assert!(scaled_choco(8).max_iters > scaled_choco(20).max_iters);
        assert!(scaled_qaoa(8).max_iters > scaled_qaoa(20).max_iters);
    }

    #[test]
    fn engine_resolution_prefers_cli_then_spec_then_default() {
        let mut spec = tiny_spec();
        let opts = RunOptions::default();
        // A spec with no `engine` key runs on the compact default.
        assert_eq!(spec.engine, None);
        assert_eq!(opts.effective_sim(&spec).engine, EngineKind::Compact);
        spec.engine = Some(EngineKind::Dense);
        assert_eq!(opts.effective_sim(&spec).engine, EngineKind::Dense);
        let cli = RunOptions {
            engine: Some(EngineKind::Compact),
            ..RunOptions::default()
        };
        assert_eq!(cli.effective_sim(&spec).engine, EngineKind::Compact);
        // Non-engine fields pass through untouched.
        assert_eq!(cli.effective_sim(&spec).threads, cli.sim.threads);
    }

    #[test]
    fn batch_resolution_prefers_cli_then_spec_then_default() {
        let mut spec = tiny_spec();
        let opts = RunOptions::default();
        assert_eq!(opts.effective_sim(&spec).batch_size, 1);
        spec.batch = Some(4);
        assert_eq!(opts.effective_sim(&spec).batch_size, 4);
        let cli = RunOptions {
            batch: Some(8),
            ..RunOptions::default()
        };
        assert_eq!(cli.effective_sim(&spec).batch_size, 8);
        // Batch and engine resolve independently from their own sources.
        spec.engine = Some(EngineKind::Dense);
        let sim = cli.effective_sim(&spec);
        assert_eq!((sim.engine, sim.batch_size), (EngineKind::Dense, 8));
    }

    #[test]
    fn batched_grid_report_is_byte_identical_to_serial() {
        // The runner-level determinism contract the CI step byte-compares:
        // the compact engine at any batch width produces the same report
        // bytes as batch 1 (and as any other engine, modulo the engine
        // label the matrix masks).
        let spec = tiny_spec();
        let base = RunOptions {
            engine: Some(EngineKind::Compact),
            ..RunOptions::default()
        };
        let serial = execute(&spec, &base).unwrap().to_json();
        for k in [4usize, 8] {
            let batched = execute(
                &spec,
                &RunOptions {
                    batch: Some(k),
                    ..base.clone()
                },
            )
            .unwrap()
            .to_json();
            assert_eq!(serial, batched, "batch {k}");
        }
    }

    #[test]
    fn summaries_exclude_non_finite_metrics() {
        let ok_row = |solver: &str, success: f64| {
            let mut r = Record::new();
            r.push("problem", Field::Str("F1".into()))
                .push("instance_seed", Field::UInt(1))
                .push("layers", Field::Null)
                .push("eliminate", Field::UInt(0))
                .push("device", Field::Null)
                .push("solver", Field::Str(solver.into()))
                .push("status", Field::Str("ok".into()))
                .push("retries", Field::UInt(0))
                .push("success_rate", Field::Float(success))
                .push("in_constraints_rate", Field::Float(success));
            r
        };
        let records = vec![
            ok_row("choco-q", 0.8),
            ok_row("choco-q", f64::NAN),
            ok_row("hea", 0.4),
            ok_row("hea", f64::INFINITY),
        ];
        let summary = summarize(&records);
        match summary.get("choco_q_mean_success") {
            Some(Field::Float(m)) => assert!((m - 0.8).abs() < 1e-12, "NaN excluded: {m}"),
            other => panic!("missing mean: {other:?}"),
        }
        match summary.get("hea_mean_success") {
            Some(Field::Float(m)) => assert!((m - 0.4).abs() < 1e-12, "inf excluded: {m}"),
            other => panic!("missing mean: {other:?}"),
        }
        match summary.get("choco_vs_best_baseline_success_gmean") {
            Some(Field::Float(g)) => {
                assert!(g.is_finite(), "gmean stays finite: {g}");
                assert!((g - 2.0).abs() < 1e-12, "0.8 / 0.4: {g}");
            }
            other => panic!("missing gmean: {other:?}"),
        }
    }

    /// Drops the `"engine"` annotation — the one per-record field that
    /// legitimately differs between engine selections (it reports what
    /// the selection *resolved to*). Everything else, including the
    /// engine-invariant `occupancy`, must stay byte-identical.
    fn mask_engine_field(json: &str) -> String {
        json.lines()
            .filter(|line| !line.trim_start().starts_with("\"engine\":"))
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn grid_reports_are_byte_identical_across_engines() {
        // The whole point of the engine abstraction: selection is a
        // performance decision, not a numerical one. choco-q cells stay
        // subspace-confined (compact-plan executed); the penalty-style
        // baseline forces the dense fallback mid-run — both paths must
        // reproduce the dense report byte-for-byte, up to the
        // resolved-engine annotation itself.
        let spec = ExperimentSpec::parse_str(
            r#"
name = "engines"
[grid]
problems = ["F1"]
solvers = ["choco-q", "hea"]
[config]
shots = 600
max_iters = 6
restarts = 1
transpiled_stats = false
"#,
        )
        .unwrap();
        let run = |engine: EngineKind| {
            let opts = RunOptions {
                engine: Some(engine),
                ..RunOptions::default()
            };
            execute(&spec, &opts).unwrap().to_json()
        };
        let dense = mask_engine_field(&run(EngineKind::Dense));
        let compact = run(EngineKind::Compact);
        assert_eq!(dense, mask_engine_field(&compact), "compact diverged");
        // No selection at all is the compact engine, byte for byte.
        let default = execute(&spec, &RunOptions::default()).unwrap().to_json();
        assert_eq!(default, compact);
    }

    #[test]
    fn records_report_the_resolved_engine_and_occupancy() {
        // You can now tell from a report which engine a selection
        // actually resolved to: a confined choco-q cell executes on the
        // compact plan, while the register-filling HEA baseline falls
        // back to dense — under one `--engine compact` run. (F2's 10
        // variables put the mixer above the compile floor; registers of
        // ≤ 6 qubits compile even when full.)
        let spec = ExperimentSpec::parse_str(
            r#"
name = "resolved"
[grid]
problems = ["F2"]
solvers = ["choco-q", "hea"]
[config]
shots = 400
max_iters = 5
restarts = 1
transpiled_stats = false
"#,
        )
        .unwrap();
        let opts = RunOptions {
            engine: Some(EngineKind::Compact),
            ..RunOptions::default()
        };
        let report = execute(&spec, &opts).unwrap();
        let engine_of = |i: usize| report.records[i].get("engine").and_then(as_str);
        assert_eq!(engine_of(0), Some("compact"), "confined cell");
        assert_eq!(engine_of(1), Some("dense"), "mixer cell falls back");
        for record in &report.records {
            let occupancy = match record.get("occupancy") {
                Some(Field::UInt(u)) => *u,
                other => panic!("occupancy missing: {other:?}"),
            };
            assert!(occupancy >= 1, "final state has support");
        }
        // The CSV schema carries both columns.
        let csv = report.to_csv();
        let header = csv.lines().next().unwrap();
        assert!(header.contains("engine") && header.contains("occupancy"));
    }
}
