//! The one cell pool, and `choco-serve`, the solve-as-a-service daemon
//! behind `choco-cli serve` that keeps it running.
//!
//! Every grid cell runs here, whether it belongs to a `choco-cli run` or
//! to a daemon job. Worker threads pop the cells of admitted jobs from one
//! shared queue. Each worker owns long-lived [`SimWorkspace`]s, one per
//! distinct [`SimConfig`], and all workspaces for a configuration share
//! one [`PlanCache`]. A plain run is a single job on a pool of
//! [`RunOptions::effective_workers`] workers for its pending cells, which
//! stops when the job finishes. The daemon keeps its pool for its
//! lifetime and accepts job submissions over a line-oriented JSON
//! protocol (stdin/stdout or a Unix socket), so the second job with the
//! same circuit shapes replays compiled plans **across requests** instead
//! of recompiling them (observable through the `stats` op).
//!
//! # Protocol
//!
//! Requests are single JSON lines; responses are single JSON event lines.
//!
//! | request | effect |
//! |---|---|
//! | `{"op": "submit", "spec_path": "…"}` | submit a spec file |
//! | `{"op": "submit", "spec_toml": "…"}` | submit inline spec TOML |
//! | `{"op": "submit", "job": {…}}` | submit a minimal JSON job |
//! | `{"op": "cancel", "id": "…"}` | cancel a job (idempotent) |
//! | `{"op": "stats"}` | queue depth, per-job progress, worker restarts, plan-cache statistics |
//! | `{"op": "health"}` | pool/state-dir vitals (workers alive, journal bytes, memory watermark) |
//! | `{"op": "shutdown"}` | drain active jobs, then exit |
//! | `{"op": "shutdown", "mode": "abort"}` | stop after in-flight cells |
//!
//! A `submit` additionally accepts per-job execution overrides:
//! `deadline_secs` (whole-job wall-clock budget), `cell_timeout`
//! (seconds per cell), and `retries` — the job-level counterparts of the
//! daemon-wide CLI knobs. They apply for the submitting daemon's
//! lifetime; a restart resumes the job under the daemon-wide settings.
//!
//! Events: `ready` (session start, lists resumed jobs), `accepted`,
//! `rejected` (with a machine-readable `kind`), `record` (one per
//! completed cell, streamed as it lands), `done` (report written),
//! `cancelled`, `stats`, `health`, `error`, `shutdown`.
//!
//! # Supervision and signals
//!
//! Cells already run under per-attempt `catch_unwind` isolation; the
//! pool adds a supervisor above it, for runs and daemon jobs alike: a
//! panic that escapes a worker (the `kill@` chaos directive, or a defect
//! outside the attempt envelope) replaces that worker's workspaces,
//! counts a restart (surfaced via `stats`/`health`), and requeues the
//! cell — bounded, so a cell that keeps crashing workers becomes a
//! structured `panic` record instead of looping forever. SIGTERM/SIGINT
//! (when the CLI installed handlers) drain active jobs within a bounded
//! window, then fall back to abort: cancelled cells drain cooperatively,
//! journals are kept, and a restart heals the interrupted jobs.
//!
//! # Durability
//!
//! Every daemon job writes an append-only checkpoint journal under the
//! state directory *before* its record is streamed, one atomic line per
//! cell (a plain run journals to `--checkpoint PATH` when given). A
//! killed daemon loses at most one torn trailing line: on restart the
//! daemon re-admits every non-`.done` job from its persisted spec, skips
//! journaled cells, and re-runs the rest. Reports are byte-identical to
//! `choco-cli run` of the same spec at any worker count, with or without
//! an intervening kill, under any injected fault schedule.

use crate::checkpoint::{load_journal, CheckpointJournal, JournalHeader};
use crate::fault::{CellError, CellErrorKind};
use crate::json::{Json, JsonParser};
use crate::report::{write_json_str, Field, Record, RunReport};
use crate::run::{
    build_instances, expand_grid_cells, grid_record, instance_key, run_grid_cell, summarize,
    Instance,
};
use crate::spec::{Cell, ExperimentSpec, RunKind, SolverKind};
use crate::RunOptions;
use choco_qsim::{
    EngineKind, PlanCache, SimConfig, SimWorkspace, BATCH_BUFFER_BYTES, DENSITY_THRESHOLD,
    MAX_BATCH_LANES,
};
use choco_solvers::shared::check_size_for;
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::io::{BufRead, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Daemon configuration: where job state lives, how much work may queue,
/// and the execution options every job runs under.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Directory for per-job state: `<id>.spec.toml`, `<id>.journal`,
    /// `<id>.json` (the report), `<id>.done` (completion marker).
    pub state_dir: PathBuf,
    /// Maximum queued cells across all jobs. A submission whose cells
    /// would push the queue past this cap is rejected (`queue_full`)
    /// instead of admitted — backpressure, not unbounded memory.
    pub queue_cap: usize,
    /// Admission budget in bytes for resident simulator state
    /// (`--mem-budget`). A job whose peak per-cell estimate, multiplied
    /// by the worker count (every worker can hold its high-water
    /// workspace at once), exceeds this is rejected `too_large` before
    /// any file is written. `None` (the default) disables the check.
    pub mem_budget: Option<u64>,
    /// State-dir hygiene (`--gc-done`): prune the spec and journal of
    /// every completed job — at startup and as each job finishes. The
    /// report and `.done` marker are kept, so duplicate detection and
    /// report retrieval survive the pruning.
    pub gc_done: bool,
    /// How long a SIGTERM/SIGINT drain may wait for active jobs before
    /// falling back to abort (`--drain-timeout`; aborted jobs keep their
    /// journals and resume on restart).
    pub drain_timeout: Duration,
    /// Execution options applied to every job (worker count, engine and
    /// optimizer overrides, retries, timeouts). `checkpoint`/`resume`
    /// are ignored: the daemon manages its own journals.
    pub run: RunOptions,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            state_dir: PathBuf::from("serve-state"),
            queue_cap: 4096,
            mem_budget: None,
            gc_done: false,
            drain_timeout: Duration::from_secs(60),
            run: RunOptions::default(),
        }
    }
}

/// One admitted job (a daemon submission or a whole plain run): the
/// spec, its expanded cells, resolved instances, journal, and the slots
/// its records land in.
struct Job {
    id: String,
    spec: ExperimentSpec,
    opts: RunOptions,
    sim: SimConfig,
    cells: Vec<Cell>,
    instances: BTreeMap<(String, u64), Instance>,
    /// `None` for a plain run without `--checkpoint`.
    journal: Option<CheckpointJournal>,
    /// One slot per cell, indexed by `Cell::index`; resumed cells are
    /// prefilled from the journal.
    slots: Mutex<Vec<Option<Record>>>,
    /// Cells not yet finished; the worker that takes it to zero
    /// finalizes the job.
    remaining: AtomicUsize,
    /// The first journal-append failure: remaining cells are skipped and
    /// the job fails instead of producing a report (a checkpoint that
    /// silently stopped recording would defeat its purpose).
    failure: Mutex<Option<String>>,
    /// Cooperative cancel flag (the same `Arc` stored in `opts.cancel`):
    /// set by the `cancel` op or a shutdown drain timeout. Queued cells
    /// drain as `cancelled` records; in-flight solves exit at their next
    /// objective evaluation.
    cancel: Arc<AtomicBool>,
    /// Set when a shutdown abort dropped this job's cells: finalization
    /// must keep the journal and skip the report/`.done` write so a
    /// restart can heal the job.
    aborted: AtomicBool,
    /// Cells that landed as error records (per-job `stats` reporting).
    failed_cells: AtomicUsize,
    /// Where the daemon writes the report (`<id>.json`, with the
    /// `<id>.done` marker beside it). `None` for a plain run, whose
    /// caller builds the report from the slots once the job finishes.
    report_path: Option<PathBuf>,
    /// Cells restored from the journal at admission.
    resumed: usize,
}

/// One schedulable unit: a cell of a job.
struct Task {
    job: Arc<Job>,
    cell: usize,
    /// Worker crashes this cell has caused (supervision requeues); at
    /// [`CELL_CRASH_LIMIT`] the supervisor records a structured failure
    /// instead of requeueing again.
    crashes: u32,
}

/// Mutable daemon state behind one lock.
struct ServeState {
    tasks: VecDeque<Task>,
    active: Vec<Arc<Job>>,
    stop: bool,
}

/// Everything the worker pool and its caller (the daemon's session loop
/// or a plain run) share.
struct Shared<'env> {
    opts: &'env ServeOptions,
    state: Mutex<ServeState>,
    wake: Condvar,
    /// Plan-cache registry keyed by engine configuration: every worker
    /// workspace for the same [`SimConfig`] shares one cache, so plans
    /// compiled for one request replay for every later one.
    caches: Mutex<Vec<(SimConfig, Arc<PlanCache>)>>,
    /// The current session's output. Events emitted between sessions
    /// (e.g. a job finishing after its submitter disconnected) go to the
    /// sink bound at the time; job *state* is on disk either way.
    sink: Mutex<Box<dyn Write + Send + 'env>>,
    /// Per-worker restart counts: a panic escaping the per-cell
    /// isolation costs that worker its workspaces, and the supervisor
    /// counts the replacement here (surfaced via `stats`/`health`).
    restarts: Vec<AtomicUsize>,
    /// Workers currently inside their loop (health reporting).
    workers_alive: AtomicUsize,
    /// Largest admitted per-cell byte estimate: the admission floor,
    /// because worker workspaces keep their high-water buffers alive for
    /// the daemon's lifetime.
    mem_high_water: AtomicU64,
    /// A plain run's start: each committed record prints a `[i/n]`
    /// progress line on stderr instead of a `record` event.
    progress: Option<Instant>,
}

fn lock<'a, T>(mutex: &'a Mutex<T>) -> MutexGuard<'a, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// How a session ended.
enum SessionEnd {
    /// Input exhausted; a socket daemon accepts the next connection, a
    /// stdio daemon drains and exits.
    Eof,
    /// An explicit `shutdown` op.
    Shutdown {
        /// `true` for `"mode": "abort"`: queued cells are dropped
        /// (journals keep them resumable) instead of drained.
        abort: bool,
    },
    /// SIGTERM/SIGINT arrived: drain within
    /// [`ServeOptions::drain_timeout`], then fall back to abort.
    Signal,
}

/// Set by the SIGTERM/SIGINT handler; polled by the session loop, the
/// socket accept loop, and the drain path.
static SHUTDOWN_SIGNAL: AtomicBool = AtomicBool::new(false);

extern "C" fn note_shutdown_signal(_signum: i32) {
    SHUTDOWN_SIGNAL.store(true, Ordering::SeqCst);
}

fn shutdown_requested() -> bool {
    SHUTDOWN_SIGNAL.load(Ordering::SeqCst)
}

/// Installs SIGTERM/SIGINT handlers that request the daemon's graceful
/// drain (bounded by [`ServeOptions::drain_timeout`], then abort).
/// Called by the `choco-cli serve` entry point only — never by the
/// library [`serve`]/[`serve_socket`] functions, so embedding a daemon
/// in-process (tests, benches) leaves the host's signal disposition
/// alone.
pub fn install_signal_handlers() {
    // `signal(2)` straight from the C runtime Rust already links — the
    // repo stays dependency-free. Only an atomic store happens in the
    // handler, which is async-signal-safe.
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    unsafe {
        signal(SIGINT, note_shutdown_signal);
        signal(SIGTERM, note_shutdown_signal);
    }
}

/// Runs the daemon over a single input/output session (the
/// stdin/stdout mode of `choco-cli serve`). End of input drains active
/// jobs and exits, so `echo '…' | choco-cli serve` submits, waits, and
/// terminates cleanly.
///
/// # Errors
///
/// Returns setup failures (unusable state directory). Per-job failures
/// are reported as protocol events, not errors.
pub fn serve<R, W>(opts: &ServeOptions, input: R, output: W) -> Result<(), String>
where
    R: BufRead + Send + 'static,
    W: Write + Send,
{
    let mut session = Some((input, output));
    drive(opts, move || session.take())
}

/// Runs the daemon on a Unix socket: one connection at a time, each a
/// session of the same line protocol as [`serve`]. A stale socket file
/// is removed at bind time; the daemon exits on a `shutdown` op.
///
/// # Errors
///
/// Returns setup failures (bind errors, unusable state directory).
pub fn serve_socket(opts: &ServeOptions, socket_path: &Path) -> Result<(), String> {
    use std::os::unix::net::UnixListener;
    if socket_path.exists() {
        std::fs::remove_file(socket_path)
            .map_err(|e| format!("cannot remove stale socket {}: {e}", socket_path.display()))?;
    }
    if let Some(parent) = socket_path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
        }
    }
    let listener = UnixListener::bind(socket_path)
        .map_err(|e| format!("cannot bind {}: {e}", socket_path.display()))?;
    // Non-blocking accept: a blocking accept would ride out SIGTERM (std
    // retries EINTR), so the loop polls the shutdown flag between
    // attempts instead.
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("cannot configure {}: {e}", socket_path.display()))?;
    eprintln!("choco-serve: listening on {}", socket_path.display());
    drive(opts, move || loop {
        if shutdown_requested() {
            return None;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                if stream.set_nonblocking(false).is_err() {
                    continue;
                }
                let Ok(reader) = stream.try_clone() else {
                    continue;
                };
                return Some((std::io::BufReader::new(reader), stream));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(e) => {
                eprintln!("choco-serve: accept failed: {e}");
                return None;
            }
        }
    })
}

/// The daemon core shared by both transports: starts the worker pool,
/// resumes persisted jobs at the first session, then processes sessions
/// until input ends (stdio) or a `shutdown` op arrives.
fn drive<'env, R, W>(
    opts: &'env ServeOptions,
    mut next_session: impl FnMut() -> Option<(R, W)>,
) -> Result<(), String>
where
    R: BufRead + Send + 'static,
    W: Write + Send + 'env,
{
    std::fs::create_dir_all(&opts.state_dir)
        .map_err(|e| format!("cannot create state dir {}: {e}", opts.state_dir.display()))?;
    if opts.gc_done {
        gc_done_jobs(&opts.state_dir);
    }
    let n_workers = opts.run.effective_workers(usize::MAX);
    with_pool(opts, n_workers, None, |shared| {
        let mut resumed: Option<Vec<String>> = None;
        let mut end = SessionEnd::Eof;
        while let Some((input, output)) = next_session() {
            *lock(&shared.sink) = Box::new(output);
            let ids = match &resumed {
                Some(ids) => ids.clone(),
                None => {
                    let ids = resume_jobs(shared);
                    resumed = Some(ids.clone());
                    ids
                }
            };
            emit_ready(shared, &ids);
            end = session_loop(shared, input);
            if !matches!(end, SessionEnd::Eof) {
                break;
            }
        }
        // A stdio daemon whose input ended *because* a signal arrived
        // (reader thread gone, flag set) drains under signal semantics.
        if matches!(end, SessionEnd::Eof) && shutdown_requested() {
            end = SessionEnd::Signal;
        }
        let mode = drain(shared, &end);
        emit_shutdown(shared, mode);
    });
    // Consume the flag so a later in-process daemon (tests run several
    // sequentially) starts with a clean slate.
    SHUTDOWN_SIGNAL.store(false, Ordering::SeqCst);
    Ok(())
}

/// Runs `body` beside a pool of `workers` cell workers, then stops the
/// pool and joins them. This is the only place cell workers start.
/// `progress` is a plain run's start time (see [`Shared::progress`]).
fn with_pool<'env, T>(
    opts: &'env ServeOptions,
    workers: usize,
    progress: Option<Instant>,
    body: impl FnOnce(&Shared<'env>) -> T,
) -> T {
    let shared = Shared {
        opts,
        state: Mutex::new(ServeState {
            tasks: VecDeque::new(),
            active: Vec::new(),
            stop: false,
        }),
        wake: Condvar::new(),
        caches: Mutex::new(Vec::new()),
        sink: Mutex::new(Box::new(std::io::sink())),
        restarts: (0..workers).map(|_| AtomicUsize::new(0)).collect(),
        workers_alive: AtomicUsize::new(0),
        mem_high_water: AtomicU64::new(0),
        progress,
    };
    std::thread::scope(|scope| {
        for worker in 0..workers {
            let shared = &shared;
            scope.spawn(move || worker_loop(shared, worker));
        }
        let _stop = StopPool(&shared);
        body(&shared)
    })
}

/// Stops [`with_pool`]'s workers when its body returns or unwinds, so the
/// scope's join never waits on idle workers. An unwinding body also drops
/// the queued cells: the panic reaches the caller once the running cells
/// end.
struct StopPool<'a, 'env>(&'a Shared<'env>);

impl Drop for StopPool<'_, '_> {
    fn drop(&mut self) {
        let mut st = lock(&self.0.state);
        st.stop = true;
        if std::thread::panicking() {
            st.tasks.clear();
        }
        drop(st);
        self.0.wake.notify_all();
    }
}

/// Executes a grid spec as one job on its own pool of
/// [`RunOptions::effective_workers`] workers for the pending cells, and
/// assembles the report once the job finishes. The `choco-cli run` path:
/// `--checkpoint PATH` is the job's journal, and `--resume` restores its
/// completed cells.
pub(crate) fn execute_grid(spec: &ExperimentSpec, opts: &RunOptions) -> Result<RunReport, String> {
    let journal = match (&opts.checkpoint, opts.resume) {
        (None, true) => return Err("--resume requires --checkpoint <path>".to_string()),
        (path, _) => path.as_deref().map(Path::new),
    };
    let (job, pending) =
        plan_job(spec.name.clone(), spec.clone(), opts.clone(), journal).map_err(|(_, e)| e)?;
    if let Some(path) = journal.filter(|path| opts.resume && !path.exists()) {
        eprintln!(
            "checkpoint {}: no journal found; starting fresh",
            path.display()
        );
    }
    if job.resumed > 0 {
        eprintln!(
            "checkpoint: resuming — {}/{} cells already complete",
            job.resumed,
            job.cells.len()
        );
    }
    let pool_opts = ServeOptions {
        run: opts.clone(),
        ..ServeOptions::default()
    };
    let workers = opts.effective_workers(pending.len());
    let job = with_pool(&pool_opts, workers, Some(Instant::now()), |shared| {
        let job = enqueue(shared, job, &pending, journal, false).map_err(|(_, e)| e)?;
        // Wait the job out, as a daemon whose input ended would.
        drain(shared, &SessionEnd::Eof);
        Ok::<_, String>(job)
    })?;
    if let Some(e) = lock(&job.failure).take() {
        return Err(e);
    }
    job.report()
}

/// Waits out the active jobs according to how the final session ended
/// (the pool itself stops when [`with_pool`]'s body returns).
/// Returns the shutdown mode actually reached: `drain`/`abort` for
/// protocol-initiated shutdowns, `signal-drain` for a signal drain that
/// completed in time, `signal-abort` when the drain window expired and
/// active jobs were cancelled and aborted (journals kept, resumable).
fn drain(shared: &Shared, end: &SessionEnd) -> &'static str {
    let mut mode = match end {
        SessionEnd::Shutdown { abort: true } => "abort",
        SessionEnd::Shutdown { abort: false } | SessionEnd::Eof => "drain",
        SessionEnd::Signal => "signal-drain",
    };
    {
        let mut st = lock(&shared.state);
        if matches!(end, SessionEnd::Shutdown { abort: true }) {
            st.tasks.clear();
            st.active.clear();
        } else {
            let mut deadline: Option<Instant> = None;
            while !st.active.is_empty() {
                // A signal may arrive mid-drain (e.g. during an Eof
                // drain); from that point the bounded window applies.
                if deadline.is_none() && shutdown_requested() {
                    deadline = Some(Instant::now() + shared.opts.drain_timeout);
                    mode = "signal-drain";
                }
                if deadline.is_some_and(|d| Instant::now() >= d) {
                    for job in &st.active {
                        job.cancel.store(true, Ordering::SeqCst);
                        job.aborted.store(true, Ordering::SeqCst);
                    }
                    st.tasks.clear();
                    st.active.clear();
                    mode = "signal-abort";
                    break;
                }
                let (guard, _) = shared
                    .wake
                    .wait_timeout(st, Duration::from_millis(100))
                    .unwrap_or_else(PoisonError::into_inner);
                st = guard;
            }
        }
    }
    mode
}

/// Reads request lines from one session until EOF, a `shutdown` op, or a
/// shutdown signal. Input is pumped through a channel by a detached
/// reader thread: a blocking `read_line` would ride out SIGTERM (std
/// retries EINTR), so the session loop polls the shutdown flag between
/// bounded waits instead. A line that is not UTF-8 is answered with an
/// `error` event like any other malformed request.
fn session_loop<R: BufRead + Send + 'static>(shared: &Shared, input: R) -> SessionEnd {
    let (tx, rx) = std::sync::mpsc::channel::<std::io::Result<Vec<u8>>>();
    let spawned = std::thread::Builder::new()
        .name("choco-serve-reader".to_string())
        .spawn(move || {
            for line in input.split(b'\n') {
                let failed = line.is_err();
                if tx.send(line).is_err() || failed {
                    break;
                }
            }
        });
    if let Err(e) = spawned {
        emit_error(shared, None, &format!("cannot start session reader: {e}"));
        return SessionEnd::Eof;
    }
    loop {
        if shutdown_requested() {
            return SessionEnd::Signal;
        }
        match rx.recv_timeout(Duration::from_millis(50)) {
            Ok(Ok(bytes)) => {
                let Ok(line) = String::from_utf8(bytes) else {
                    emit_error(shared, None, "bad request line: not valid UTF-8");
                    continue;
                };
                if line.trim().is_empty() {
                    continue;
                }
                if let Some(end) = handle_request(shared, &line) {
                    return end;
                }
            }
            Ok(Err(_)) => return SessionEnd::Eof,
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {}
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => return SessionEnd::Eof,
        }
    }
}

/// Dispatches one request line; `Some` ends the session.
fn handle_request(shared: &Shared, line: &str) -> Option<SessionEnd> {
    let request = match JsonParser::parse(line) {
        Ok(v) => v,
        Err(e) => {
            emit_error(shared, None, &format!("bad request line: {e}"));
            return None;
        }
    };
    match request.get("op").and_then(Json::as_str) {
        Some("submit") => handle_submit(shared, &request),
        Some("cancel") => handle_cancel(shared, &request),
        Some("stats") => emit_stats(shared),
        Some("health") => emit_health(shared),
        Some("shutdown") => {
            let abort = request.get("mode").and_then(Json::as_str) == Some("abort");
            return Some(SessionEnd::Shutdown { abort });
        }
        Some(other) => emit_error(
            shared,
            None,
            &format!("unknown op `{other}` (expected submit, cancel, stats, health, or shutdown)"),
        ),
        None => emit_error(shared, None, "request has no `op` key"),
    }
    None
}

/// Admission control: validates a submission end to end, then either
/// enqueues its cells (emitting `accepted`) or rejects it with a
/// machine-readable kind (emitting `rejected`). Rejections never leave
/// state files behind.
fn handle_submit(shared: &Shared, request: &Json) {
    if let Err((kind, reason)) = admit(shared, request) {
        let id_hint = request.get("id").and_then(Json::as_str).unwrap_or("");
        emit_rejected(shared, id_hint, kind, &reason);
    }
}

/// The `cancel` op: idempotent by design. An active job has its cancel
/// flag set (queued cells drain as `cancelled` records, in-flight solves
/// exit at their next objective evaluation and the job still finalizes
/// with a report); a finished or unknown job is a no-op. The response
/// reports what was found (`active`, `done`, `known`), so a client can
/// tell an in-flight job, a completed one, a known-but-failed one
/// (journal retained, no `.done` marker), and an unknown id apart.
fn handle_cancel(shared: &Shared, request: &Json) {
    let Some(id) = request.get("id").and_then(Json::as_str) else {
        emit_error(shared, None, "cancel needs a string `id`");
        return;
    };
    let active = lock(&shared.state)
        .active
        .iter()
        .find(|j| j.id == id)
        .inspect(|job| job.cancel.store(true, Ordering::SeqCst))
        .is_some();
    // A successful finalize writes `.done` strictly before it drops the
    // job from the active set, so probing the marker after releasing the
    // lock cannot miss a completion that raced this cancel. Jobs that
    // finished failed or aborted never write `.done`; their retained
    // spec/journal files distinguish them from a never-seen id.
    let state_file = |ext: &str| shared.opts.state_dir.join(format!("{id}.{ext}")).exists();
    let done = state_file("done");
    let known = active || done || state_file("spec.toml") || state_file("journal");
    emit_cancelled(shared, id, active, done, known);
}

/// Per-job execution overrides parsed from a `submit` request.
#[derive(Default)]
struct JobKnobs {
    /// Whole-job wall-clock budget (`deadline_secs`).
    deadline: Option<Duration>,
    /// Per-cell timeout override (`cell_timeout`, seconds).
    cell_timeout: Option<Duration>,
    /// Per-cell retry budget override (`retries`).
    retries: Option<u32>,
}

/// Largest second count accepted for time knobs (~31 years). The cap
/// keeps both `Duration` construction and `Instant` deadline arithmetic
/// comfortably in range, so an absurd `deadline_secs` is a `bad_request`
/// rejection instead of a panic on the daemon's control thread.
pub(crate) const MAX_KNOB_SECS: f64 = 1e9;

fn positive_secs(key: &str, value: &Json) -> Result<Duration, String> {
    let secs = value
        .as_f64()
        .filter(|s| s.is_finite() && *s > 0.0 && *s <= MAX_KNOB_SECS)
        .ok_or_else(|| {
            format!(
                "`{key}`: expected a positive number of seconds, at most {MAX_KNOB_SECS:.0} (got {})",
                value.brief()
            )
        })?;
    Duration::try_from_secs_f64(secs).map_err(|e| format!("`{key}`: {e}"))
}

fn job_knobs(request: &Json) -> Result<JobKnobs, String> {
    let mut knobs = JobKnobs::default();
    if let Some(value) = request.get("deadline_secs") {
        knobs.deadline = Some(positive_secs("deadline_secs", value)?);
    }
    if let Some(value) = request.get("cell_timeout") {
        knobs.cell_timeout = Some(positive_secs("cell_timeout", value)?);
    }
    if let Some(value) = request.get("retries") {
        let retries = value
            .as_u64()
            .and_then(|n| u32::try_from(n).ok())
            .ok_or_else(|| {
                format!(
                    "`retries`: expected a small non-negative integer (got {})",
                    value.brief()
                )
            })?;
        knobs.retries = Some(retries);
    }
    Ok(knobs)
}

/// Admission result: either an enqueued job or `(kind, reason)`.
type Admission = Result<Arc<Job>, (&'static str, String)>;

fn admit(shared: &Shared, request: &Json) -> Admission {
    let knobs = job_knobs(request).map_err(|e| ("bad_request", e))?;
    let toml = spec_source(request).map_err(|e| ("bad_request", e))?;
    let spec = ExperimentSpec::parse_str(&toml).map_err(|e| ("spec_error", e))?;
    let id = match request.get("id").and_then(Json::as_str) {
        Some(explicit) => explicit.to_string(),
        None => spec.name.clone(),
    };
    validate_id(&id).map_err(|e| ("bad_request", e))?;
    if !matches!(spec.kind, RunKind::Grid) {
        return Err((
            "bad_request",
            format!(
                "choco-serve accepts grid specs only (this spec is `{}`)",
                spec.kind.label()
            ),
        ));
    }
    if lock(&shared.state).active.iter().any(|j| j.id == id) {
        return Err(("duplicate", format!("job `{id}` is already active")));
    }
    let spec_path = shared.opts.state_dir.join(format!("{id}.spec.toml"));
    let done_path = shared.opts.state_dir.join(format!("{id}.done"));
    if spec_path.exists() || done_path.exists() {
        return Err((
            "duplicate",
            format!(
                "job `{id}` already exists in {} (state is kept for audit; pick a new id)",
                shared.opts.state_dir.display()
            ),
        ));
    }
    prepare_job(shared, id, spec, Some(&toml), false, &knobs)
}

/// Builds, validates, persists, and enqueues a daemon job. `persist_toml`
/// is the spec text to write for a fresh submission (`None` on resume,
/// where it is already on disk); `resume` additionally restores
/// journaled cells. All validation happens before anything is written,
/// so a rejected submission leaves no state behind.
fn prepare_job(
    shared: &Shared,
    id: String,
    spec: ExperimentSpec,
    persist_toml: Option<&str>,
    resume: bool,
    knobs: &JobKnobs,
) -> Admission {
    let mut opts = shared.opts.run.clone();
    opts.checkpoint = None;
    opts.resume = resume;
    if let Some(cell_timeout) = knobs.cell_timeout {
        opts.cell_timeout = Some(cell_timeout);
    }
    if let Some(retries) = knobs.retries {
        opts.retries = retries;
    }
    opts.cancel = Some(Arc::new(AtomicBool::new(false)));
    // `checked_add` cannot fail for knob-capped durations, but a `None`
    // (no deadline) beats a panic if the platform's `Instant` range is
    // narrower than expected.
    opts.job_deadline = knobs.deadline.and_then(|d| Instant::now().checked_add(d));
    let journal_path = shared.opts.state_dir.join(format!("{id}.journal"));
    let report_path = shared.opts.state_dir.join(format!("{id}.json"));
    let (mut job, pending) = plan_job(id, spec, opts, Some(&journal_path))?;
    if job.cells.is_empty() {
        return Err((
            "spec_error",
            "the spec expands to zero cells (empty grid axes?)".to_string(),
        ));
    }
    // Size gate at admission: an instance no engine can hold is rejected
    // with the same guidance `check_size_for` gives the CLI, instead of
    // occupying a worker just to fail. Sized on the *encoded* register —
    // native-inequality instances simulate driver-synthesized slack
    // registers on top of their decision variables.
    for ((family, seed), instance) in &job.instances {
        check_size_for(admission_qubits(&instance.problem), job.sim.engine)
            .map_err(|e| ("too_large", format!("{family} seed={seed}: {e}")))?;
    }
    // Memory-aware admission (`--mem-budget`): every worker can end up
    // holding its high-water workspace at once, so the budget must cover
    // the largest admitted per-cell estimate times the worker count —
    // including the floor set by jobs already admitted (workspaces keep
    // their buffers for the daemon's lifetime).
    let mut job_peak = 0u64;
    if let Some(budget) = shared.opts.mem_budget {
        let mut worst = String::new();
        for cell in pending.iter().map(|&i| &job.cells[i]) {
            let bytes = cell_sim_bytes(cell, &job.instances[&instance_key(cell)], job.sim.engine);
            if bytes > job_peak {
                job_peak = bytes;
                worst = format!("{} seed={}", cell.problem.as_str(), cell.instance_seed);
            }
        }
        if !pending.is_empty() {
            let floor = shared.mem_high_water.load(Ordering::SeqCst).max(job_peak);
            let n_workers = shared.opts.run.effective_workers(usize::MAX);
            let required = floor.saturating_mul(n_workers as u64);
            if budget < required {
                return Err((
                    "too_large",
                    format!(
                        "estimated resident simulator state ~{} ({} per worker x {} workers; \
                         peak cell {worst} needs {}) exceeds --mem-budget {}; raise the budget, \
                         lower --workers, or pick the compact engine (it holds |F| amplitudes \
                         instead of 2^n for Choco-Q cells)",
                        fmt_bytes(required),
                        fmt_bytes(floor),
                        n_workers,
                        fmt_bytes(job_peak),
                        fmt_bytes(budget)
                    ),
                ));
            }
        }
    }
    let queued = lock(&shared.state).tasks.len();
    if queued + pending.len() > shared.opts.queue_cap {
        return Err((
            "queue_full",
            format!(
                "queue is full: {queued} queued + {} new cells exceeds the cap of {}",
                pending.len(),
                shared.opts.queue_cap
            ),
        ));
    }
    shared.mem_high_water.fetch_max(job_peak, Ordering::SeqCst);
    // Commit point: everything below writes state.
    if let Some(toml) = persist_toml {
        let spec_path = shared.opts.state_dir.join(format!("{}.spec.toml", job.id));
        std::fs::write(&spec_path, toml).map_err(|e| {
            (
                "io_error",
                format!("cannot write {}: {e}", spec_path.display()),
            )
        })?;
    }
    job.report_path = Some(report_path);
    let fresh = persist_toml.is_some();
    enqueue(shared, job, &pending, Some(&journal_path), fresh)
}

/// The preparation every job shares, before anything is written: expand
/// the spec's cells, restore those a resumed `journal` already completed
/// (checked against the job's header), and build the instances of the
/// rest. Returns the unregistered job and its pending cells; errors carry
/// a rejection kind.
fn plan_job(
    id: String,
    spec: ExperimentSpec,
    opts: RunOptions,
    journal: Option<&Path>,
) -> Result<(Job, Vec<usize>), (&'static str, String)> {
    let cells = expand_grid_cells(&spec, opts.quick).map_err(|e| ("spec_error", e))?;
    let completed = match journal {
        Some(path) if opts.resume && path.exists() => {
            // The header binds the journal to the spec and to every
            // report-shaping option, so a stale or mismatched journal
            // fails loudly instead of producing a franken-report.
            let header = JournalHeader::for_run(&spec, &opts, cells.len());
            load_journal(path, &header).map_err(|e| ("journal_error", e))?
        }
        _ => BTreeMap::new(),
    };
    let pending: Vec<usize> = (0..cells.len())
        .filter(|i| !completed.contains_key(i))
        .collect();
    let pending_cells: Vec<Cell> = pending.iter().map(|&i| cells[i].clone()).collect();
    let instances = build_instances(&pending_cells).map_err(|e| ("spec_error", e))?;
    let resumed = completed.len();
    let mut slots = vec![None; cells.len()];
    for (index, record) in completed {
        slots[index] = Some(record);
    }
    let job = Job {
        id,
        sim: opts.effective_sim(&spec),
        cancel: opts.cancel.clone().unwrap_or_default(),
        spec,
        opts,
        cells,
        instances,
        journal: None,
        slots: Mutex::new(slots),
        remaining: AtomicUsize::new(pending.len()),
        failure: Mutex::new(None),
        aborted: AtomicBool::new(false),
        failed_cells: AtomicUsize::new(0),
        report_path: None,
        resumed,
    };
    Ok((job, pending))
}

/// Opens a planned job's journal (appending on resume, fresh otherwise),
/// registers the job, and queues its pending cells. A fresh daemon job
/// (`announce`) emits `accepted` before any worker can see its cells, so
/// no `record` precedes it. A job with nothing pending finalizes at once.
fn enqueue(
    shared: &Shared,
    mut job: Job,
    pending: &[usize],
    journal: Option<&Path>,
    announce: bool,
) -> Admission {
    if let Some(path) = journal {
        let opened = if job.opts.resume && path.exists() {
            CheckpointJournal::append_to(path)
        } else {
            let header = JournalHeader::for_run(&job.spec, &job.opts, job.cells.len());
            CheckpointJournal::create(path, &header)
        };
        job.journal = Some(opened.map_err(|e| ("journal_error", e))?);
    }
    if announce {
        emit_accepted(shared, &job);
    }
    let job = Arc::new(job);
    {
        let mut st = lock(&shared.state);
        st.active.push(job.clone());
        for &cell in pending {
            st.tasks.push_back(Task {
                job: job.clone(),
                cell,
                crashes: 0,
            });
        }
    }
    shared.wake.notify_all();
    if pending.is_empty() {
        // Killed after the last journal append but before the report
        // write: nothing to schedule, finalize right away.
        finalize_job(shared, &job);
    }
    Ok(job)
}

/// Re-admits every persisted job without a `.done` marker, restoring
/// journaled cells. Returns the resumed job ids (sorted, so the `ready`
/// event is deterministic). A job whose state is unusable is reported
/// and skipped — one corrupt journal must not take the daemon down.
fn resume_jobs(shared: &Shared) -> Vec<String> {
    let mut ids = Vec::new();
    let Ok(entries) = std::fs::read_dir(&shared.opts.state_dir) else {
        return ids;
    };
    let mut names: Vec<String> = entries
        .filter_map(Result::ok)
        .filter_map(|e| e.file_name().into_string().ok())
        .filter_map(|n| n.strip_suffix(".spec.toml").map(str::to_string))
        .collect();
    names.sort();
    for id in names {
        if shared.opts.state_dir.join(format!("{id}.done")).exists() {
            continue;
        }
        let spec_path = shared.opts.state_dir.join(format!("{id}.spec.toml"));
        let resumed = std::fs::read_to_string(&spec_path)
            .map_err(|e| format!("cannot read {}: {e}", spec_path.display()))
            .and_then(|text| ExperimentSpec::parse_str(&text))
            .map_err(|e| format!("resume failed: {e}"))
            .and_then(|spec| {
                prepare_job(shared, id.clone(), spec, None, true, &JobKnobs::default())
                    .map_err(|(kind, reason)| format!("resume failed ({kind}): {reason}"))
            });
        match resumed {
            Ok(_) => ids.push(id),
            Err(e) => emit_error(shared, Some(&id), &e),
        }
    }
    ids
}

/// The worker loop: pops tasks until the daemon stops. The workspace
/// registry (one per distinct [`SimConfig`]) persists for the worker's
/// lifetime, and every workspace shares the global plan cache for its
/// configuration — the cross-request reuse the daemon exists for.
///
/// The supervisor envelope: a panic that escapes [`run_task`]'s own
/// per-attempt isolation (the `kill@` chaos directive, or a defect
/// outside the attempt region) is caught here, the worker's workspaces
/// are replaced (plan caches survive — they live in [`Shared`]), a
/// restart is counted, and the cell is requeued with its crash count
/// bumped. Completion accounting stays *outside* the unwind region, so
/// a requeued cell is never double-counted.
fn worker_loop(shared: &Shared, worker: usize) {
    shared.workers_alive.fetch_add(1, Ordering::SeqCst);
    let mut workspaces: Vec<(SimConfig, SimWorkspace)> = Vec::new();
    loop {
        let task = {
            let mut st = lock(&shared.state);
            loop {
                if let Some(task) = st.tasks.pop_front() {
                    break Some(task);
                }
                if st.stop {
                    break None;
                }
                st = shared.wake.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
        };
        let Some(task) = task else { break };
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            run_task(shared, &mut workspaces, &task)
        }));
        match outcome {
            Ok(()) => finish_cell(shared, &task.job),
            Err(payload) => {
                shared.restarts[worker].fetch_add(1, Ordering::SeqCst);
                // Poison-healing discipline: anything the panic may have
                // left half-updated is dropped and rebuilt fresh.
                workspaces = Vec::new();
                supervise_crash(shared, task, payload.as_ref());
            }
        }
    }
    shared.workers_alive.fetch_sub(1, Ordering::SeqCst);
}

/// Completion accounting for one scheduled cell: the worker that takes
/// `remaining` to zero finalizes the job. Kept separate from
/// [`run_task`] so the supervisor's crash path (which *requeues* the
/// cell) never decrements the counter.
fn finish_cell(shared: &Shared, job: &Arc<Job>) {
    if job.remaining.fetch_sub(1, Ordering::SeqCst) == 1 {
        finalize_job(shared, job);
    }
}

/// Runs one cell and commits its record; completion accounting lives in
/// [`finish_cell`]. Cancelled or deadline-expired jobs skip the solve and
/// commit a structured terminal record instead — queued cells drain
/// cooperatively rather than executing after the job gave up.
fn run_task(shared: &Shared, workspaces: &mut Vec<(SimConfig, SimWorkspace)>, task: &Task) {
    let job = &task.job;
    if lock(&job.failure).is_some() {
        return;
    }
    let cell = &job.cells[task.cell];
    // Chaos hook: a `kill@` directive panics *outside* the per-attempt
    // isolation in `run_grid_cell`, exercising the worker supervisor the
    // way a real escaped panic would.
    if let Some(plan) = &job.opts.faults {
        if plan.draw_kill(cell.index) {
            panic!("injected fault: worker kill (CHOCO_FAULT_INJECT)");
        }
    }
    let started = Instant::now();
    let record = if job.cancel.load(Ordering::SeqCst) {
        // Same detail as the mid-solve relabel in `run_grid_cell`, so the
        // record is independent of *where* the cancel caught the cell.
        job.error_record(cell, CellErrorKind::Cancelled, "job cancelled".into())
    } else if job.opts.job_deadline.is_some_and(|d| Instant::now() >= d) {
        job.error_record(cell, CellErrorKind::Timeout, "job deadline exceeded".into())
    } else {
        let workspace = workspace_for(workspaces, &shared.caches, job.sim);
        let instance = &job.instances[&instance_key(cell)];
        run_grid_cell(&job.spec, &job.opts, cell, instance, workspace)
    };
    commit_record(shared, job, task.cell, started.elapsed(), record);
}

/// Journals one finished record and hands it to its caller: a `record`
/// event for the daemon, a `[i/n]` progress line for a plain run. The
/// journal append happens first, so a client that saw the record can
/// rely on it surviving a crash.
fn commit_record(shared: &Shared, job: &Arc<Job>, index: usize, elapsed: Duration, record: Record) {
    if matches!(record.get("status"), Some(Field::Str(s)) if s.as_str() == "error") {
        job.failed_cells.fetch_add(1, Ordering::SeqCst);
    }
    if let Some(Err(e)) = job
        .journal
        .as_ref()
        .map(|journal| journal.append_cell(index, elapsed, &record))
    {
        emit_error(shared, Some(&job.id), &e);
        lock(&job.failure).get_or_insert(e);
        return;
    }
    let Some(started) = shared.progress else {
        emit_record(shared, &job.id, index, &record);
        lock(&job.slots)[index] = Some(record);
        return;
    };
    let cell = &job.cells[index];
    let mut slots = lock(&job.slots);
    slots[index] = Some(record);
    eprintln!(
        "[{}/{}] {} seed={} {} ({:.1}s elapsed)",
        slots.iter().flatten().count(),
        slots.len(),
        cell.problem.as_str(),
        cell.instance_seed,
        cell.solver.label(),
        started.elapsed().as_secs_f64()
    );
}

/// Crashes a cell may cause before the supervisor stops requeueing it
/// and records a structured failure instead.
const CELL_CRASH_LIMIT: u32 = 3;

/// Handles a panic that escaped a worker: requeue the cell (bounded by
/// [`CELL_CRASH_LIMIT`]) or, at the limit or under cancellation, commit
/// a terminal `panic` record so the job still finishes with a report.
fn supervise_crash(shared: &Shared, task: Task, payload: &(dyn std::any::Any + Send)) {
    let error = CellError::from_panic(payload);
    let job = task.job.clone();
    if task.crashes + 1 < CELL_CRASH_LIMIT && !job.cancel.load(Ordering::SeqCst) {
        eprintln!(
            "job {} cell {} crashed its worker ({}); requeueing (crash {}/{})",
            job.id,
            task.cell,
            error.detail,
            task.crashes + 1,
            CELL_CRASH_LIMIT
        );
        {
            let mut st = lock(&shared.state);
            st.tasks.push_back(Task {
                crashes: task.crashes + 1,
                ..task
            });
        }
        shared.wake.notify_all();
        return;
    }
    let record = job.error_record(
        &job.cells[task.cell],
        CellErrorKind::Panic,
        format!(
            "cell crashed its worker {} times; last panic: {}",
            task.crashes + 1,
            error.detail
        ),
    );
    commit_record(shared, &job, task.cell, Duration::ZERO, record);
    finish_cell(shared, &job);
}

/// Finds (or creates) this worker's workspace for `sim`, wiring it to
/// the daemon-global plan cache for that configuration.
fn workspace_for<'w>(
    workspaces: &'w mut Vec<(SimConfig, SimWorkspace)>,
    caches: &Mutex<Vec<(SimConfig, Arc<PlanCache>)>>,
    sim: SimConfig,
) -> &'w mut SimWorkspace {
    if let Some(idx) = workspaces.iter().position(|(config, _)| *config == sim) {
        return &mut workspaces[idx].1;
    }
    let cache = {
        let mut caches = lock(caches);
        match caches.iter().find(|(config, _)| *config == sim) {
            Some((_, cache)) => cache.clone(),
            None => {
                let cache = Arc::new(PlanCache::new());
                caches.push((sim, cache.clone()));
                cache
            }
        }
    };
    let idx = workspaces.len();
    workspaces.push((sim, SimWorkspace::with_plan_cache(sim, cache)));
    &mut workspaces[idx].1
}

/// Ends a finished job: for a daemon job, writes its report
/// (byte-identical to `choco-cli run` of the same spec), marks it
/// `.done`, and emits `done` — or `error` if the job failed — and then
/// removes it from the active set, so a drain's `shutdown` follows the
/// job's last event. A plain run's caller builds its report from the
/// slots.
fn finalize_job(shared: &Shared, job: &Arc<Job>) {
    let result = job.report_path.as_ref().map(|path| {
        if job.aborted.load(Ordering::SeqCst) {
            // A shutdown abort dropped some of this job's cells; writing
            // a report now would publish a hole-ridden result. Keep the
            // journal and let a restart heal the job instead.
            return Err(
                "job aborted by shutdown before completing; journal retained — \
                        restart the daemon to resume"
                    .to_string(),
            );
        }
        if lock(&job.failure).is_some() {
            return Err(
                "job failed: checkpoint journal append error (see earlier error event)".to_string(),
            );
        }
        let report = job.report()?;
        std::fs::write(path, report.to_json())
            .and_then(|()| std::fs::write(path.with_extension("done"), b""))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        if shared.opts.gc_done {
            let _ =
                std::fs::remove_file(shared.opts.state_dir.join(format!("{}.spec.toml", job.id)));
            let _ = std::fs::remove_file(shared.opts.state_dir.join(format!("{}.journal", job.id)));
        }
        Ok((path, report))
    });
    match result {
        Some(Ok((path, report))) => emit_done(shared, &job.id, path, &report),
        Some(Err(e)) => emit_error(shared, Some(&job.id), &e),
        None => {}
    }
    lock(&shared.state)
        .active
        .retain(|active| !Arc::ptr_eq(active, job));
    shared.wake.notify_all();
}

impl Job {
    /// The record of a cell that failed without a solve attempt.
    fn error_record(&self, cell: &Cell, kind: CellErrorKind, detail: String) -> Record {
        let instance = &self.instances[&instance_key(cell)];
        let error = CellError::new(kind, detail);
        grid_record(&self.spec, &self.opts, cell, instance, Err(error), 0)
    }

    /// The job's report, from its filled slots.
    fn report(&self) -> Result<RunReport, String> {
        let records = lock(&self.slots)
            .iter_mut()
            .enumerate()
            .map(|(i, slot)| {
                slot.take()
                    .ok_or_else(|| format!("internal: cell {i} produced no record"))
            })
            .collect::<Result<Vec<Record>, String>>()?;
        Ok(RunReport {
            name: self.spec.name.clone(),
            description: self.spec.description.clone(),
            kind: self.spec.kind.label(),
            spec_seed: self.spec.seed,
            quick: self.opts.quick,
            summary: summarize(&records),
            records,
        })
    }
}

// ---------------------------------------------------------------- events

/// One event line: `{"event": "<name>"` and then `, "key": value` pairs,
/// closed and written by [`Event::emit`].
struct Event(String);

impl Event {
    fn new(name: &str) -> Event {
        Event(format!("{{\"event\": \"{name}\""))
    }

    /// Adds a value rendered as is: a number, a bool, `null`, or JSON.
    fn raw(mut self, key: &str, value: impl std::fmt::Display) -> Event {
        let _ = write!(self.0, ", \"{key}\": {value}");
        self
    }

    /// Adds a JSON string.
    fn str(self, key: &str, value: &str) -> Event {
        self.raw(key, json_str(value))
    }

    /// Writes the line to the current session sink. Write failures are
    /// ignored: a disconnected client must not take down jobs that are
    /// already journaling to disk.
    fn emit(mut self, shared: &Shared) {
        self.0.push_str("}\n");
        let mut sink = lock(&shared.sink);
        let _ = sink
            .write_all(self.0.as_bytes())
            .and_then(|()| sink.flush());
    }
}

fn json_str(value: &str) -> String {
    let mut out = String::new();
    write_json_str(&mut out, value);
    out
}

fn json_list(items: impl Iterator<Item = String>) -> String {
    format!("[{}]", items.collect::<Vec<_>>().join(", "))
}

fn emit_ready(shared: &Shared, resumed: &[String]) {
    let ids = json_list(resumed.iter().map(|id| json_str(id)));
    Event::new("ready").raw("resumed", ids).emit(shared);
}

fn emit_accepted(shared: &Shared, job: &Job) {
    Event::new("accepted")
        .str("job", &job.id)
        .raw("cells", job.cells.len())
        .raw("resumed", job.resumed)
        .emit(shared);
}

fn emit_rejected(shared: &Shared, id: &str, kind: &str, reason: &str) {
    Event::new("rejected")
        .str("job", id)
        .str("kind", kind)
        .str("reason", reason)
        .emit(shared);
}

fn emit_record(shared: &Shared, id: &str, index: usize, record: &Record) {
    let mut line = String::new();
    record.write_json_line(&mut line);
    Event::new("record")
        .str("job", id)
        .raw("index", index)
        .raw("record", line)
        .emit(shared);
}

fn emit_done(shared: &Shared, id: &str, path: &Path, report: &RunReport) {
    let errors = match report.summary.get("errors") {
        Some(Field::UInt(n)) => *n,
        _ => 0,
    };
    Event::new("done")
        .str("job", id)
        .raw("cells", report.records.len())
        .raw("errors", errors)
        .str("report", &path.display().to_string())
        .emit(shared);
}

fn emit_stats(shared: &Shared) {
    // Per-job progress is (total, completed-including-resumed, failed,
    // resumed), sorted by id so the event is deterministic.
    let (active, queued, mut jobs) = {
        let st = lock(&shared.state);
        let jobs: Vec<(String, String)> = st
            .active
            .iter()
            .map(|job| {
                let total = job.cells.len();
                let completed = total.saturating_sub(job.remaining.load(Ordering::SeqCst));
                let failed = job.failed_cells.load(Ordering::SeqCst);
                let line = format!(
                    "{{\"id\": {}, \"cells\": {total}, \"completed\": {completed}, \
                     \"failed\": {failed}, \"resumed\": {}}}",
                    json_str(&job.id),
                    job.resumed
                );
                (job.id.clone(), line)
            })
            .collect();
        (st.active.len(), st.tasks.len(), jobs)
    };
    jobs.sort();
    let restarts = json_list(
        shared
            .restarts
            .iter()
            .map(|r| r.load(Ordering::SeqCst).to_string()),
    );
    let caches = json_list(lock(&shared.caches).iter().map(|(sim, cache)| {
        let stats = cache.stats();
        format!(
            "{{\"engine\": \"{}\", \"shapes\": {}, \"compilations\": {}, \
             \"refusals\": {}, \"hits\": {}}}",
            sim.engine.label(),
            stats.shapes,
            stats.compilations,
            stats.refusals,
            stats.hits
        )
    }));
    Event::new("stats")
        .raw("jobs_active", active)
        .raw("cells_queued", queued)
        .raw("worker_restarts", restarts)
        .raw("jobs", json_list(jobs.into_iter().map(|(_, line)| line)))
        .raw("caches", caches)
        .emit(shared);
}

fn emit_cancelled(shared: &Shared, id: &str, active: bool, done: bool, known: bool) {
    Event::new("cancelled")
        .str("job", id)
        .raw("active", active)
        .raw("done", done)
        .raw("known", known)
        .emit(shared);
}

fn emit_health(shared: &Shared) {
    let (active, queued) = {
        let st = lock(&shared.state);
        (st.active.len(), st.tasks.len())
    };
    let restarts: usize = shared
        .restarts
        .iter()
        .map(|r| r.load(Ordering::SeqCst))
        .sum();
    let (mut shapes, mut compilations, mut refusals, mut hits) = (0u64, 0, 0, 0);
    for (_, cache) in lock(&shared.caches).iter() {
        let s = cache.stats();
        shapes += s.shapes as u64;
        compilations += s.compilations;
        refusals += s.refusals;
        hits += s.hits;
    }
    let budget = shared
        .opts
        .mem_budget
        .map_or("null".into(), |b| b.to_string());
    Event::new("health")
        .raw("jobs_active", active)
        .raw("cells_queued", queued)
        .raw("workers", shared.restarts.len())
        .raw("workers_alive", shared.workers_alive.load(Ordering::SeqCst))
        .raw("worker_restarts", restarts)
        .raw("journal_bytes", journal_bytes(&shared.opts.state_dir))
        .raw(
            "mem_high_water",
            shared.mem_high_water.load(Ordering::SeqCst),
        )
        .raw("mem_budget", budget)
        .raw("plan_shapes", shapes)
        .raw("plan_compilations", compilations)
        .raw("plan_refusals", refusals)
        .raw("plan_hits", hits)
        .emit(shared);
}

fn emit_shutdown(shared: &Shared, mode: &str) {
    Event::new("shutdown").str("mode", mode).emit(shared);
}

fn emit_error(shared: &Shared, id: Option<&str>, reason: &str) {
    Event::new("error")
        .raw("job", id.map_or("null".into(), json_str))
        .str("reason", reason)
        .emit(shared);
}

// ------------------------------------------------------------- admission

/// Simulated register width of one instance. For native-inequality
/// instances the Choco-Q engines evolve the driver-encoded register
/// (decision variables plus internally synthesized slack bits), which is
/// wider than `n_vars()` — admission must size against that width, not
/// the problem's. Falls back to `n_vars()` when driver synthesis itself
/// would fail (the worker then reports the precise `DriverError`).
fn admission_qubits(problem: &choco_model::Problem) -> usize {
    choco_core::encoded_qubits_for(problem.constraints()).unwrap_or(problem.n_vars())
}

/// Resident bytes a dense cell holds per basis state: the 16-byte
/// amplitude, the solver's 8-byte cost table, the workspace's 8-byte
/// cached diagonal of the same polynomial and its 8-byte cumulative
/// sampling table. A dense F4 Choco-Q cell (21 qubits) peaks at 84 MiB
/// `VmHWM`: 80 MiB for these four buffers over a ~4 MiB process.
const DENSE_BYTES_PER_AMPLITUDE: u64 = 40;

/// Estimated resident simulator bytes for one cell, by engine and
/// solver. The dense engine holds [`DENSE_BYTES_PER_AMPLITUDE`] per basis
/// state of the full `2^n` register, and so do penalty and HEA cells on
/// the compact engine: their mixers leave the feasible subspace, so their
/// plans refuse, they run dense and the solver tabulates its `2^n` cost.
/// Choco-Q and cyclic cells stay confined on compact at one packed entry
/// (~32 bytes) per amplitude, plus the batched replay's lane buffer
/// ([`batch_buffer_bytes`]). For Choco-Q that is bounded by the
/// enumerated feasible count `|F|` and is the whole footprint: the
/// solver builds no `2^n` cost table on compact and reads the cost at the
/// plan's feasible basis. Cyclic is sized on the full register, its lane
/// buffer on the plan cap `DENSITY_THRESHOLD · 2^n`.
/// Saturating arithmetic: an estimate that overflows `u64` is "infinite"
/// for admission purposes anyway.
fn cell_sim_bytes(cell: &Cell, instance: &Instance, engine: EngineKind) -> u64 {
    let Ok(optimum) = &instance.optimum else {
        return 0;
    };
    let n = admission_qubits(&instance.problem).min(62) as u32;
    let full = 1u64 << n;
    match (engine, cell.solver) {
        (EngineKind::Dense, _) | (_, SolverKind::Penalty | SolverKind::Hea) => {
            full.saturating_mul(DENSE_BYTES_PER_AMPLITUDE)
        }
        (EngineKind::Compact, SolverKind::ChocoQ) => {
            let ranks = (optimum.n_feasible as u64).clamp(1, full);
            ranks
                .saturating_mul(32)
                .saturating_add(batch_buffer_bytes(ranks))
        }
        (EngineKind::Compact, SolverKind::Cyclic) => {
            let cap = (DENSITY_THRESHOLD * full as f64) as u64;
            full.saturating_mul(32)
                .saturating_add(batch_buffer_bytes(cap))
        }
    }
}

/// The batched replay's lane buffer for a plan of at most `ranks` ranks:
/// [`MAX_BATCH_LANES`] lanes of 16 bytes per rank, which
/// `SimWorkspace::run_template_batch` keeps within [`BATCH_BUFFER_BYTES`].
fn batch_buffer_bytes(ranks: u64) -> u64 {
    ranks
        .saturating_mul(MAX_BATCH_LANES as u64 * 16)
        .min(BATCH_BUFFER_BYTES as u64)
}

/// Renders a byte count for admission messages: `512 B`, `64.0 KiB`, …
fn fmt_bytes(bytes: u64) -> String {
    const UNITS: [&str; 4] = ["KiB", "MiB", "GiB", "TiB"];
    if bytes < 1024 {
        return format!("{bytes} B");
    }
    let mut value = bytes as f64 / 1024.0;
    let mut unit = UNITS[0];
    for next in &UNITS[1..] {
        if value < 1024.0 {
            break;
        }
        value /= 1024.0;
        unit = next;
    }
    format!("{value:.1} {unit}")
}

/// State-dir hygiene (`--gc-done`): removes the spec and journal of
/// every job with a `.done` marker. Reports and markers are kept, so
/// duplicate detection and report retrieval still work.
fn gc_done_jobs(state_dir: &Path) {
    let Ok(entries) = std::fs::read_dir(state_dir) else {
        return;
    };
    let ids: Vec<String> = entries
        .filter_map(Result::ok)
        .filter_map(|e| e.file_name().into_string().ok())
        .filter_map(|n| n.strip_suffix(".done").map(str::to_string))
        .collect();
    for id in ids {
        let _ = std::fs::remove_file(state_dir.join(format!("{id}.spec.toml")));
        let _ = std::fs::remove_file(state_dir.join(format!("{id}.journal")));
    }
}

/// Total bytes across all checkpoint journals in the state directory
/// (`health` reporting: unbounded growth here says `--gc-done` is off).
fn journal_bytes(state_dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(state_dir) else {
        return 0;
    };
    entries
        .filter_map(Result::ok)
        .filter(|e| {
            e.file_name()
                .to_str()
                .is_some_and(|n| n.ends_with(".journal"))
        })
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum()
}

/// Job ids become file names under the state directory, so the charset
/// is locked down: `[A-Za-z0-9._-]`, 1–64 characters, no leading dot.
fn validate_id(id: &str) -> Result<(), String> {
    if id.is_empty() || id.len() > 64 {
        return Err(format!("job id must be 1–64 characters (got {})", id.len()));
    }
    if id.starts_with('.') {
        return Err("job id may not start with `.`".to_string());
    }
    if let Some(bad) = id
        .chars()
        .find(|c| !c.is_ascii_alphanumeric() && !matches!(c, '.' | '_' | '-'))
    {
        return Err(format!(
            "job id contains `{bad}` — allowed characters are [A-Za-z0-9._-]"
        ));
    }
    Ok(())
}

/// Resolves a submit request to spec TOML text from exactly one of
/// `spec_path` (a file the daemon reads), `spec_toml` (inline text), or
/// `job` (a minimal JSON job translated by [`job_to_toml`]).
fn spec_source(request: &Json) -> Result<String, String> {
    match (
        request.get("spec_path"),
        request.get("spec_toml"),
        request.get("job"),
    ) {
        (Some(path), None, None) => {
            let path = path
                .as_str()
                .ok_or_else(|| format!("`spec_path`: expected a string (got {})", path.brief()))?;
            std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
        }
        (None, Some(toml), None) => toml
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| format!("`spec_toml`: expected a string (got {})", toml.brief())),
        (None, None, Some(job)) => job_to_toml(job),
        _ => Err(
            "a submit request needs exactly one of `spec_path`, `spec_toml`, or `job`".to_string(),
        ),
    }
}

/// Translates the minimal JSON job format into spec TOML, so a client
/// can submit without authoring TOML. Unknown keys are rejected (a
/// typoed key silently ignored would change the experiment), and range
/// validation comes from the spec parser itself — the same hard errors
/// `choco-cli run` gives.
fn job_to_toml(job: &Json) -> Result<String, String> {
    if !matches!(job, Json::Obj(_)) {
        return Err(format!("`job`: expected an object (got {})", job.brief()));
    }
    let mut top = String::new();
    let mut grid = String::new();
    let mut config = String::new();
    for (key, value) in job.entries() {
        match key.as_str() {
            "name" => {
                let _ = writeln!(top, "name = {}", toml_str(key, value)?);
            }
            "description" => {
                let _ = writeln!(top, "description = {}", toml_str(key, value)?);
            }
            "seed" => {
                let _ = writeln!(top, "seed = {}", toml_int(key, value)?);
            }
            "problems" | "solvers" => {
                let _ = writeln!(grid, "{key} = {}", toml_str_array(key, value)?);
            }
            "seeds" | "layers" | "eliminate" => {
                let _ = writeln!(grid, "{key} = {}", toml_int_array(key, value)?);
            }
            "engine" | "optimizer" => {
                let _ = writeln!(grid, "{key} = {}", toml_str(key, value)?);
            }
            "quick_max_vars" => {
                let _ = writeln!(grid, "{key} = {}", toml_int(key, value)?);
            }
            "shots" | "max_iters" | "restarts" | "noise_trajectories" => {
                let _ = writeln!(config, "{key} = {}", toml_int(key, value)?);
            }
            "transpiled_stats" => {
                let _ = writeln!(config, "{key} = {}", toml_bool(key, value)?);
            }
            other => {
                return Err(format!(
                    "job key `{other}` is not recognized (grid keys: name, description, seed, \
                     problems, solvers, seeds, layers, eliminate, engine, optimizer, \
                     quick_max_vars; config keys: shots, max_iters, restarts, \
                     noise_trajectories, transpiled_stats)"
                ));
            }
        }
    }
    if !top.contains("name = ") {
        return Err("job needs a `name`".to_string());
    }
    if !grid.contains("problems = ") {
        return Err("job needs a `problems` list".to_string());
    }
    let mut toml = top;
    toml.push_str("\n[grid]\n");
    toml.push_str(&grid);
    if !config.is_empty() {
        toml.push_str("\n[config]\n");
        toml.push_str(&config);
    }
    Ok(toml)
}

/// Renders a JSON string as a TOML string literal. The spec parser's
/// TOML dialect has no escape sequences, so characters that would need
/// them are rejected rather than smuggled through.
fn toml_str(key: &str, value: &Json) -> Result<String, String> {
    let s = value
        .as_str()
        .ok_or_else(|| format!("job `{key}`: expected a string (got {})", value.brief()))?;
    if s.chars().any(|c| c == '"' || c == '\\' || c.is_control()) {
        return Err(format!(
            "job `{key}`: strings may not contain quotes, backslashes, or control characters"
        ));
    }
    Ok(format!("\"{s}\""))
}

fn toml_int(key: &str, value: &Json) -> Result<i64, String> {
    value
        .as_i64()
        .ok_or_else(|| format!("job `{key}`: expected an integer (got {})", value.brief()))
}

fn toml_bool(key: &str, value: &Json) -> Result<bool, String> {
    value
        .as_bool()
        .ok_or_else(|| format!("job `{key}`: expected a boolean (got {})", value.brief()))
}

fn toml_str_array(key: &str, value: &Json) -> Result<String, String> {
    let Json::Arr(items) = value else {
        return Err(format!(
            "job `{key}`: expected an array of strings (got {})",
            value.brief()
        ));
    };
    let rendered: Result<Vec<String>, String> =
        items.iter().map(|item| toml_str(key, item)).collect();
    Ok(format!("[{}]", rendered?.join(", ")))
}

fn toml_int_array(key: &str, value: &Json) -> Result<String, String> {
    let Json::Arr(items) = value else {
        return Err(format!(
            "job `{key}`: expected an array of integers (got {})",
            value.brief()
        ));
    };
    let rendered: Result<Vec<String>, String> = items
        .iter()
        .map(|item| toml_int(key, item).map(|v| v.to_string()))
        .collect();
    Ok(format!("[{}]", rendered?.join(", ")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panicking_pool_body_stops_its_workers() {
        // On its own thread, so a pool that never joins fails the test
        // instead of hanging it.
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let opts = ServeOptions::default();
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                with_pool(&opts, 2, None, |_| -> () { panic!("body failed") })
            }));
            done.send(outcome.is_err()).unwrap();
        });
        let propagated = finished.recv_timeout(Duration::from_secs(10));
        assert_eq!(
            propagated,
            Ok(true),
            "the pool joined and the panic propagated"
        );
    }

    #[test]
    fn job_ids_are_safe_file_names() {
        assert!(validate_id("smoke-1").is_ok());
        assert!(validate_id("a.b_c-D9").is_ok());
        assert!(validate_id("").is_err());
        assert!(validate_id(".hidden").is_err());
        assert!(validate_id("a/b").is_err());
        assert!(validate_id("a b").is_err());
        assert!(validate_id(&"x".repeat(65)).is_err());
    }

    #[test]
    fn json_job_translates_to_spec_toml() {
        let job = JsonParser::parse(
            r#"{"name": "t", "seed": 3, "problems": ["F1"], "solvers": ["choco"],
                "seeds": [1, 2], "layers": [1], "shots": 512}"#,
        )
        .unwrap();
        let toml = job_to_toml(&job).unwrap();
        let spec = ExperimentSpec::parse_str(&toml).unwrap();
        assert_eq!(spec.name, "t");
        assert_eq!(spec.seed, 3);
        assert_eq!(spec.seeds, vec![1, 2]);
        let cells = spec.expand_cells(false);
        assert_eq!(cells.len(), 2);
    }

    #[test]
    fn json_job_rejects_unknown_and_unescapable_keys() {
        let typo = JsonParser::parse(r#"{"name": "t", "problems": ["F1"], "shotss": 1}"#).unwrap();
        let err = job_to_toml(&typo).unwrap_err();
        assert!(err.contains("shotss"), "{err}");
        // The retired batch width is rejected like any typo.
        let batch = JsonParser::parse(r#"{"name": "t", "problems": ["F1"], "batch": 8}"#).unwrap();
        let err = job_to_toml(&batch).unwrap_err();
        assert!(err.contains("job key `batch` is not recognized"), "{err}");

        let quote = JsonParser::parse(r#"{"name": "a\"b", "problems": ["F1"]}"#).unwrap();
        let err = job_to_toml(&quote).unwrap_err();
        assert!(err.contains("quotes"), "{err}");

        let nameless = JsonParser::parse(r#"{"problems": ["F1"]}"#).unwrap();
        assert!(job_to_toml(&nameless).unwrap_err().contains("name"));
    }

    #[test]
    fn mem_estimates_scale_by_engine_and_solver() {
        let cells = crate::run::expand_grid_cells(
            &ExperimentSpec::parse_str(
                "name = \"m\"\n[grid]\nproblems = [\"F1\"]\nsolvers = [\"choco\", \"penalty\", \"cyclic\", \"hea\"]\nseeds = [1]\n",
            )
            .unwrap(),
            false,
        )
        .unwrap();
        let instances = build_instances(&cells).unwrap();
        let key = (
            cells[0].problem.as_str().to_string(),
            cells[0].instance_seed,
        );
        let instance = &instances[&key];
        let n = instance.problem.n_vars() as u32;
        let full = 1u64 << n;
        let feasible = instance.optimum.as_ref().unwrap().n_feasible as u64;
        assert!(feasible < full, "F1 must have a non-trivial feasible space");

        let bytes = |solver: SolverKind, engine: EngineKind| {
            let cell = cells.iter().find(|c| c.solver == solver).unwrap();
            cell_sim_bytes(cell, instance, engine)
        };
        // Dense holds the full register regardless of solver: amplitude,
        // cost table, cached diagonal and sampling table.
        for solver in SolverKind::ALL {
            assert_eq!(bytes(solver, EngineKind::Dense), full * 40, "{solver:?}");
        }
        // Penalty and HEA leave the subspace and fall back to dense on
        // compact, cost table included.
        assert_eq!(bytes(SolverKind::Penalty, EngineKind::Compact), full * 40);
        assert_eq!(bytes(SolverKind::Hea, EngineKind::Compact), full * 40);
        // Confined solvers: Choco-Q is |F|-bounded, cyclic stays compact
        // over the full register. Both add the batched replay's lane
        // buffer: 16 lanes of 16 bytes per rank, at most 1 MiB.
        assert_eq!(
            bytes(SolverKind::ChocoQ, EngineKind::Compact),
            feasible * (32 + 256)
        );
        assert_eq!(
            bytes(SolverKind::Cyclic, EngineKind::Compact),
            full * 32 + full / 4 * 256
        );
        assert_eq!(batch_buffer_bytes(1 << 12), 1 << 20);
        assert_eq!(batch_buffer_bytes(1 << 20), 1 << 20);
    }

    #[test]
    fn byte_counts_format_with_binary_units() {
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(65536), "64.0 KiB");
        assert_eq!(fmt_bytes(3 << 20), "3.0 MiB");
        assert_eq!(fmt_bytes(5 << 30), "5.0 GiB");
    }

    #[test]
    fn job_range_errors_surface_through_the_spec_parser() {
        // Out-of-range values are *not* clamped by the translation — the
        // spec parser rejects them with the key and range (satellite #1).
        let job = JsonParser::parse(r#"{"name": "t", "problems": ["F1"], "shots": 0}"#).unwrap();
        let toml = job_to_toml(&job).unwrap();
        let err = ExperimentSpec::parse_str(&toml).unwrap_err();
        assert!(err.contains("shots") && err.contains("at least 1"), "{err}");
    }
}
