//! `choco-serve`: the solve-as-a-service daemon behind `choco-cli serve`.
//!
//! A long-lived process accepts job submissions over a line-oriented JSON
//! protocol (stdin/stdout or a Unix socket), expands each job into grid
//! cells with the *same* expansion as `choco-cli run`, and schedules the
//! cells across a persistent worker pool. Each worker owns long-lived
//! [`SimWorkspace`]s — one per distinct [`SimConfig`] — and all workspaces
//! for a given configuration share one [`PlanCache`] **across requests**:
//! the second job with the same circuit shapes replays compiled plans
//! instead of recompiling them (observable through the `stats` op).
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
//! serve pool adds a supervisor above it: a panic that escapes a worker
//! (the `kill@` chaos directive, or a defect outside the attempt
//! envelope) replaces that worker's workspaces, counts a restart
//! (surfaced via `stats`/`health`), and requeues the cell — bounded, so
//! a cell that keeps crashing workers becomes a structured `panic`
//! record instead of looping forever. SIGTERM/SIGINT (when the CLI
//! installed handlers) drain active jobs within a bounded window, then
//! fall back to abort: cancelled cells drain cooperatively, journals are
//! kept, and a restart heals the interrupted jobs.
//!
//! # Durability
//!
//! Every job writes an append-only checkpoint journal under the state
//! directory *before* its record is streamed, one atomic line per cell. A
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
    build_instances, expand_grid_cells, grid_record, run_grid_cell, summarize, Instance,
};
use crate::spec::{Cell, ExperimentSpec, RunKind, SolverKind};
use crate::RunOptions;
use choco_qsim::{EngineKind, PlanCache, SimConfig, SimWorkspace};
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

/// One admitted job: the spec, its expanded cells, resolved instances,
/// journal, and the slots its records land in.
struct Job {
    id: String,
    spec: ExperimentSpec,
    opts: RunOptions,
    sim: SimConfig,
    cells: Vec<Cell>,
    instances: BTreeMap<(String, u64), Instance>,
    journal: CheckpointJournal,
    /// One slot per cell, indexed by `Cell::index`; resumed cells are
    /// prefilled from the journal.
    slots: Mutex<Vec<Option<Record>>>,
    /// Cells not yet finished; the worker that takes it to zero
    /// finalizes the job.
    remaining: AtomicUsize,
    /// Set on the first journal-append failure: remaining cells are
    /// skipped and the job finishes with an `error` event instead of a
    /// report (a checkpoint that silently stopped recording would
    /// defeat its purpose).
    failed: AtomicBool,
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
    report_path: PathBuf,
    done_path: PathBuf,
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

/// Everything the worker pool and the session loop share.
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
        restarts: (0..n_workers).map(|_| AtomicUsize::new(0)).collect(),
        workers_alive: AtomicUsize::new(0),
        mem_high_water: AtomicU64::new(0),
    };
    std::thread::scope(|scope| {
        for worker in 0..n_workers {
            let shared = &shared;
            scope.spawn(move || worker_loop(shared, worker));
        }
        let mut resumed: Option<Vec<String>> = None;
        let mut end = SessionEnd::Eof;
        while let Some((input, output)) = next_session() {
            *lock(&shared.sink) = Box::new(output);
            let ids = match &resumed {
                Some(ids) => ids.clone(),
                None => {
                    let ids = resume_jobs(&shared);
                    resumed = Some(ids.clone());
                    ids
                }
            };
            emit_ready(&shared, &ids);
            end = session_loop(&shared, input);
            if !matches!(end, SessionEnd::Eof) {
                break;
            }
        }
        // A stdio daemon whose input ended *because* a signal arrived
        // (reader thread gone, flag set) drains under signal semantics.
        if matches!(end, SessionEnd::Eof) && shutdown_requested() {
            end = SessionEnd::Signal;
        }
        let mode = drain(&shared, &end);
        emit_shutdown(&shared, mode);
    });
    // Consume the flag so a later in-process daemon (tests run several
    // sequentially) starts with a clean slate.
    SHUTDOWN_SIGNAL.store(false, Ordering::SeqCst);
    Ok(())
}

/// Winds the pool down according to how the final session ended.
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
        st.stop = true;
    }
    shared.wake.notify_all();
    mode
}

/// Reads request lines from one session until EOF, a `shutdown` op, or a
/// shutdown signal. Input is pumped through a channel by a detached
/// reader thread: a blocking `read_line` would ride out SIGTERM (std
/// retries EINTR), so the session loop polls the shutdown flag between
/// bounded waits instead.
fn session_loop<R: BufRead + Send + 'static>(shared: &Shared, input: R) -> SessionEnd {
    let (tx, rx) = std::sync::mpsc::channel::<std::io::Result<String>>();
    let spawned = std::thread::Builder::new()
        .name("choco-serve-reader".to_string())
        .spawn(move || {
            for line in input.lines() {
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
            Ok(Ok(line)) => {
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
        Some("submit") => {
            handle_submit(shared, &request);
            None
        }
        Some("cancel") => {
            handle_cancel(shared, &request);
            None
        }
        Some("stats") => {
            emit_stats(shared);
            None
        }
        Some("health") => {
            emit_health(shared);
            None
        }
        Some("shutdown") => {
            let abort = request.get("mode").and_then(Json::as_str) == Some("abort");
            Some(SessionEnd::Shutdown { abort })
        }
        Some(other) => {
            emit_error(
                shared,
                None,
                &format!(
                    "unknown op `{other}` (expected submit, cancel, stats, health, or shutdown)"
                ),
            );
            None
        }
        None => {
            emit_error(shared, None, "request has no `op` key");
            None
        }
    }
}

/// Admission control: validates a submission end to end, then either
/// enqueues its cells (emitting `accepted`) or rejects it with a
/// machine-readable kind (emitting `rejected`). Rejections never leave
/// state files behind.
fn handle_submit(shared: &Shared, request: &Json) {
    let id_hint = request
        .get("id")
        .and_then(Json::as_str)
        .unwrap_or("")
        .to_string();
    match admit(shared, request) {
        Ok(job) => emit_accepted(shared, &job),
        Err((kind, reason)) => emit_rejected(shared, &id_hint, kind, &reason),
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
    let active = {
        let st = lock(&shared.state);
        match st.active.iter().find(|j| j.id == id) {
            Some(job) => {
                job.cancel.store(true, Ordering::SeqCst);
                true
            }
            None => false,
        }
    };
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
    {
        let st = lock(&shared.state);
        if st.active.iter().any(|j| j.id == id) {
            return Err(("duplicate", format!("job `{id}` is already active")));
        }
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

/// Builds, validates, persists, and enqueues a job. `persist_toml` is the
/// spec text to write for a fresh submission (`None` on resume, where it
/// is already on disk); `resume` additionally restores journaled cells.
/// All validation happens before anything is written, so a rejected
/// submission leaves no state behind.
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
    opts.resume = false;
    if let Some(cell_timeout) = knobs.cell_timeout {
        opts.cell_timeout = Some(cell_timeout);
    }
    if let Some(retries) = knobs.retries {
        opts.retries = retries;
    }
    let cancel = Arc::new(AtomicBool::new(false));
    opts.cancel = Some(cancel.clone());
    // `checked_add` cannot fail for knob-capped durations, but a `None`
    // (no deadline) beats a panic if the platform's `Instant` range is
    // narrower than expected.
    opts.job_deadline = knobs.deadline.and_then(|d| Instant::now().checked_add(d));
    let sim = opts.effective_sim(&spec);
    let cells = expand_grid_cells(&spec, opts.quick).map_err(|e| ("spec_error", e))?;
    if cells.is_empty() {
        return Err((
            "spec_error",
            "the spec expands to zero cells (empty grid axes?)".to_string(),
        ));
    }
    let header = JournalHeader::for_run(&spec, &opts, cells.len());
    let journal_path = shared.opts.state_dir.join(format!("{id}.journal"));
    let completed = if resume && journal_path.exists() {
        load_journal(&journal_path, &header)
            .map_err(|e| ("journal_error", e))?
            .completed
    } else {
        BTreeMap::new()
    };
    let pending_cells: Vec<Cell> = cells
        .iter()
        .filter(|c| !completed.contains_key(&c.index))
        .cloned()
        .collect();
    let instances = build_instances(&pending_cells).map_err(|e| ("spec_error", e))?;
    // Size gate at admission: an instance no engine can hold is rejected
    // with the same guidance `check_size_for` gives the CLI, instead of
    // occupying a worker just to fail. Sized on the *encoded* register —
    // native-inequality instances simulate driver-synthesized slack
    // registers on top of their decision variables.
    for ((family, seed), instance) in &instances {
        check_size_for(admission_qubits(&instance.problem), sim.engine)
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
        for cell in &pending_cells {
            let key = (cell.problem.as_str().to_string(), cell.instance_seed);
            let bytes = cell_sim_bytes(cell, &instances[&key], sim.engine);
            if bytes > job_peak {
                job_peak = bytes;
                worst = format!("{} seed={}", cell.problem.as_str(), cell.instance_seed);
            }
        }
        if !pending_cells.is_empty() {
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
    {
        let st = lock(&shared.state);
        if st.tasks.len() + pending_cells.len() > shared.opts.queue_cap {
            return Err((
                "queue_full",
                format!(
                    "queue is full: {} queued + {} new cells exceeds the cap of {}",
                    st.tasks.len(),
                    pending_cells.len(),
                    shared.opts.queue_cap
                ),
            ));
        }
    }
    shared.mem_high_water.fetch_max(job_peak, Ordering::SeqCst);
    // Commit point: everything below writes state.
    if let Some(toml) = persist_toml {
        let spec_path = shared.opts.state_dir.join(format!("{id}.spec.toml"));
        std::fs::write(&spec_path, toml).map_err(|e| {
            (
                "io_error",
                format!("cannot write {}: {e}", spec_path.display()),
            )
        })?;
    }
    let journal = if resume && journal_path.exists() {
        CheckpointJournal::append_to(&journal_path).map_err(|e| ("journal_error", e))?
    } else {
        CheckpointJournal::create(&journal_path, &header).map_err(|e| ("journal_error", e))?
    };
    let mut slots: Vec<Option<Record>> = vec![None; cells.len()];
    let mut resumed_count = 0usize;
    for (index, record) in completed {
        slots[index] = Some(record);
        resumed_count += 1;
    }
    let pending: Vec<usize> = (0..cells.len()).filter(|&i| slots[i].is_none()).collect();
    let job = Arc::new(Job {
        report_path: shared.opts.state_dir.join(format!("{id}.json")),
        done_path: shared.opts.state_dir.join(format!("{id}.done")),
        id,
        spec,
        opts,
        sim,
        cells,
        instances,
        journal,
        slots: Mutex::new(slots),
        remaining: AtomicUsize::new(pending.len()),
        failed: AtomicBool::new(false),
        cancel,
        aborted: AtomicBool::new(false),
        failed_cells: AtomicUsize::new(0),
        resumed: resumed_count,
    });
    {
        let mut st = lock(&shared.state);
        st.active.push(job.clone());
        for &i in &pending {
            st.tasks.push_back(Task {
                job: job.clone(),
                cell: i,
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
        let text = match std::fs::read_to_string(&spec_path) {
            Ok(text) => text,
            Err(e) => {
                emit_error(
                    shared,
                    Some(&id),
                    &format!("resume failed: cannot read {}: {e}", spec_path.display()),
                );
                continue;
            }
        };
        let spec = match ExperimentSpec::parse_str(&text) {
            Ok(spec) => spec,
            Err(e) => {
                emit_error(shared, Some(&id), &format!("resume failed: {e}"));
                continue;
            }
        };
        match prepare_job(shared, id.clone(), spec, None, true, &JobKnobs::default()) {
            Ok(_) => ids.push(id),
            Err((kind, reason)) => {
                emit_error(
                    shared,
                    Some(&id),
                    &format!("resume failed ({kind}): {reason}"),
                );
            }
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
    if job.failed.load(Ordering::SeqCst) {
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
    let key = (cell.problem.as_str().to_string(), cell.instance_seed);
    let started = Instant::now();
    let record = if job.cancel.load(Ordering::SeqCst) {
        // Same detail as the mid-solve relabel in `run_grid_cell`, so the
        // record is independent of *where* the cancel caught the cell.
        grid_record(
            &job.spec,
            &job.opts,
            cell,
            &job.instances[&key],
            Err(CellError::new(CellErrorKind::Cancelled, "job cancelled")),
            0,
        )
    } else if job.opts.job_deadline.is_some_and(|d| Instant::now() >= d) {
        grid_record(
            &job.spec,
            &job.opts,
            cell,
            &job.instances[&key],
            Err(CellError::new(
                CellErrorKind::Timeout,
                "job deadline exceeded",
            )),
            0,
        )
    } else {
        let workspace = workspace_for(workspaces, &shared.caches, job.sim);
        run_grid_cell(
            &job.spec,
            &job.opts,
            cell,
            &job.instances[&key],
            workspace,
            job.sim,
        )
    };
    commit_record(shared, job, task.cell, started.elapsed(), record);
}

/// Journals and streams one finished record. The journal append happens
/// *before* the record event, so a client that saw the record can rely
/// on it surviving a crash.
fn commit_record(shared: &Shared, job: &Arc<Job>, index: usize, elapsed: Duration, record: Record) {
    if matches!(record.get("status"), Some(Field::Str(s)) if s.as_str() == "error") {
        job.failed_cells.fetch_add(1, Ordering::SeqCst);
    }
    if let Err(e) = job.journal.append_cell(index, elapsed, &record) {
        job.failed.store(true, Ordering::SeqCst);
        emit_error(shared, Some(&job.id), &e);
    } else {
        emit_record(shared, &job.id, index, &record);
        lock(&job.slots)[index] = Some(record);
    }
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
            "choco-serve: job {} cell {} crashed its worker ({}); requeueing (crash {}/{})",
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
    let cell = &job.cells[task.cell];
    let key = (cell.problem.as_str().to_string(), cell.instance_seed);
    let record = grid_record(
        &job.spec,
        &job.opts,
        cell,
        &job.instances[&key],
        Err(CellError::new(
            CellErrorKind::Panic,
            format!(
                "cell crashed its worker {} times; last panic: {}",
                task.crashes + 1,
                error.detail
            ),
        )),
        0,
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

/// Assembles and writes the job's report (byte-identical to
/// `choco-cli run` of the same spec), marks it `.done`, removes it from
/// the active set, and emits `done` — or `error` if the job failed.
fn finalize_job(shared: &Shared, job: &Arc<Job>) {
    if job.aborted.load(Ordering::SeqCst) {
        // A shutdown abort dropped some of this job's cells; writing a
        // report now would publish a hole-ridden result. Keep the journal
        // and let a restart heal the job instead.
        {
            let mut st = lock(&shared.state);
            st.active.retain(|active| !Arc::ptr_eq(active, job));
        }
        shared.wake.notify_all();
        emit_error(
            shared,
            Some(&job.id),
            "job aborted by shutdown before completing; journal retained — restart the daemon to resume",
        );
        return;
    }
    let result: Result<(usize, u64), String> = if job.failed.load(Ordering::SeqCst) {
        Err("job failed: checkpoint journal append error (see earlier error event)".to_string())
    } else {
        let records: Result<Vec<Record>, String> = {
            let mut slot_vec = lock(&job.slots);
            (0..job.cells.len())
                .map(|i| {
                    slot_vec[i]
                        .take()
                        .ok_or_else(|| format!("internal: cell {i} produced no record"))
                })
                .collect()
        };
        records.and_then(|records| {
            let summary = summarize(&records);
            let errors = match summary.get("errors") {
                Some(Field::UInt(n)) => *n,
                _ => 0,
            };
            let report = RunReport {
                name: job.spec.name.clone(),
                description: job.spec.description.clone(),
                kind: job.spec.kind.label(),
                spec_seed: job.spec.seed,
                quick: job.opts.quick,
                records,
                summary,
            };
            std::fs::write(&job.report_path, report.to_json())
                .and_then(|()| std::fs::write(&job.done_path, b""))
                .map_err(|e| format!("cannot write {}: {e}", job.report_path.display()))
                .map(|()| (job.cells.len(), errors))
        })
    };
    if result.is_ok() && shared.opts.gc_done {
        let _ = std::fs::remove_file(shared.opts.state_dir.join(format!("{}.spec.toml", job.id)));
        let _ = std::fs::remove_file(shared.opts.state_dir.join(format!("{}.journal", job.id)));
    }
    {
        let mut st = lock(&shared.state);
        st.active.retain(|active| !Arc::ptr_eq(active, job));
    }
    shared.wake.notify_all();
    match result {
        Ok((cells, errors)) => emit_done(shared, job, cells, errors),
        Err(e) => emit_error(shared, Some(&job.id), &e),
    }
}

// ---------------------------------------------------------------- events

/// Writes one event line to the current session sink. Write failures are
/// ignored: a disconnected client must not take down jobs that are
/// already journaling to disk.
fn emit(shared: &Shared, line: &str) {
    let mut sink = lock(&shared.sink);
    let _ = sink
        .write_all(line.as_bytes())
        .and_then(|()| sink.write_all(b"\n"))
        .and_then(|()| sink.flush());
}

fn emit_ready(shared: &Shared, resumed: &[String]) {
    let mut line = String::from("{\"event\": \"ready\", \"resumed\": [");
    for (i, id) in resumed.iter().enumerate() {
        if i > 0 {
            line.push_str(", ");
        }
        write_json_str(&mut line, id);
    }
    line.push_str("]}");
    emit(shared, &line);
}

fn emit_accepted(shared: &Shared, job: &Job) {
    let mut line = String::from("{\"event\": \"accepted\", \"job\": ");
    write_json_str(&mut line, &job.id);
    let _ = write!(
        line,
        ", \"cells\": {}, \"resumed\": {}}}",
        job.cells.len(),
        job.resumed
    );
    emit(shared, &line);
}

fn emit_rejected(shared: &Shared, id: &str, kind: &str, reason: &str) {
    let mut line = String::from("{\"event\": \"rejected\", \"job\": ");
    write_json_str(&mut line, id);
    line.push_str(", \"kind\": \"");
    line.push_str(kind);
    line.push_str("\", \"reason\": ");
    write_json_str(&mut line, reason);
    line.push('}');
    emit(shared, &line);
}

fn emit_record(shared: &Shared, id: &str, index: usize, record: &Record) {
    let mut line = String::from("{\"event\": \"record\", \"job\": ");
    write_json_str(&mut line, id);
    let _ = write!(line, ", \"index\": {index}, \"record\": ");
    record.write_json_line(&mut line);
    line.push('}');
    emit(shared, &line);
}

fn emit_done(shared: &Shared, job: &Job, cells: usize, errors: u64) {
    let mut line = String::from("{\"event\": \"done\", \"job\": ");
    write_json_str(&mut line, &job.id);
    let _ = write!(
        line,
        ", \"cells\": {cells}, \"errors\": {errors}, \"report\": "
    );
    write_json_str(&mut line, &job.report_path.display().to_string());
    line.push('}');
    emit(shared, &line);
}

fn emit_stats(shared: &Shared) {
    // Snapshot under the lock, render after: per-job progress is
    // (total, completed-including-resumed, failed, resumed), sorted by
    // id so the event is deterministic.
    let (active, queued, jobs) = {
        let st = lock(&shared.state);
        let mut jobs: Vec<(String, usize, usize, usize, usize)> = st
            .active
            .iter()
            .map(|job| {
                let total = job.cells.len();
                let remaining = job.remaining.load(Ordering::SeqCst);
                (
                    job.id.clone(),
                    total,
                    total.saturating_sub(remaining),
                    job.failed_cells.load(Ordering::SeqCst),
                    job.resumed,
                )
            })
            .collect();
        jobs.sort();
        (st.active.len(), st.tasks.len(), jobs)
    };
    let mut line = format!(
        "{{\"event\": \"stats\", \"jobs_active\": {active}, \"cells_queued\": {queued}, \"worker_restarts\": ["
    );
    for (i, restarts) in shared.restarts.iter().enumerate() {
        if i > 0 {
            line.push_str(", ");
        }
        let _ = write!(line, "{}", restarts.load(Ordering::SeqCst));
    }
    line.push_str("], \"jobs\": [");
    for (i, (id, total, completed, failed, resumed)) in jobs.iter().enumerate() {
        if i > 0 {
            line.push_str(", ");
        }
        line.push_str("{\"id\": ");
        write_json_str(&mut line, id);
        let _ = write!(
            line,
            ", \"cells\": {total}, \"completed\": {completed}, \"failed\": {failed}, \"resumed\": {resumed}}}"
        );
    }
    line.push_str("], \"caches\": [");
    {
        let caches = lock(&shared.caches);
        for (i, (sim, cache)) in caches.iter().enumerate() {
            if i > 0 {
                line.push_str(", ");
            }
            let stats = cache.stats();
            let _ = write!(
                line,
                "{{\"engine\": \"{}\", \"batch\": {}, \"shapes\": {}, \"compilations\": {}, \"refusals\": {}, \"hits\": {}}}",
                sim.engine.label(),
                sim.batch_size,
                stats.shapes,
                stats.compilations,
                stats.refusals,
                stats.hits
            );
        }
    }
    line.push_str("]}");
    emit(shared, &line);
}

fn emit_cancelled(shared: &Shared, id: &str, active: bool, done: bool, known: bool) {
    let mut line = String::from("{\"event\": \"cancelled\", \"job\": ");
    write_json_str(&mut line, id);
    let _ = write!(
        line,
        ", \"active\": {active}, \"done\": {done}, \"known\": {known}}}"
    );
    emit(shared, &line);
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
    let (shapes, compilations, refusals, hits) = {
        let caches = lock(&shared.caches);
        caches
            .iter()
            .fold((0u64, 0u64, 0u64, 0u64), |acc, (_, cache)| {
                let s = cache.stats();
                (
                    acc.0 + s.shapes as u64,
                    acc.1 + s.compilations,
                    acc.2 + s.refusals,
                    acc.3 + s.hits,
                )
            })
    };
    let mut line = format!(
        "{{\"event\": \"health\", \"jobs_active\": {active}, \"cells_queued\": {queued}, \
         \"workers\": {}, \"workers_alive\": {}, \"worker_restarts\": {restarts}, \
         \"journal_bytes\": {}, \"mem_high_water\": {}",
        shared.restarts.len(),
        shared.workers_alive.load(Ordering::SeqCst),
        journal_bytes(&shared.opts.state_dir),
        shared.mem_high_water.load(Ordering::SeqCst),
    );
    match shared.opts.mem_budget {
        Some(budget) => {
            let _ = write!(line, ", \"mem_budget\": {budget}");
        }
        None => line.push_str(", \"mem_budget\": null"),
    }
    let _ = write!(
        line,
        ", \"plan_shapes\": {shapes}, \"plan_compilations\": {compilations}, \
         \"plan_refusals\": {refusals}, \"plan_hits\": {hits}}}"
    );
    emit(shared, &line);
}

fn emit_shutdown(shared: &Shared, mode: &str) {
    emit(
        shared,
        &format!("{{\"event\": \"shutdown\", \"mode\": \"{mode}\"}}"),
    );
}

fn emit_error(shared: &Shared, id: Option<&str>, reason: &str) {
    let mut line = String::from("{\"event\": \"error\", \"job\": ");
    match id {
        Some(id) => write_json_str(&mut line, id),
        None => line.push_str("null"),
    }
    line.push_str(", \"reason\": ");
    write_json_str(&mut line, reason);
    line.push('}');
    emit(shared, &line);
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
/// (~32 bytes) per amplitude. For Choco-Q that is bounded by the
/// enumerated feasible count `|F|` and is the whole footprint: the
/// solver builds no `2^n` cost table on compact and reads the cost at the
/// plan's feasible basis. Cyclic is sized on the full register.
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
        (EngineKind::Compact, SolverKind::ChocoQ) => (optimum.n_feasible as u64)
            .clamp(1, full)
            .saturating_mul(32),
        (EngineKind::Compact, SolverKind::Cyclic) => full.saturating_mul(32),
    }
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
            "batch" | "quick_max_vars" => {
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
                     problems, solvers, seeds, layers, eliminate, engine, optimizer, batch, \
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
        // over the full register.
        assert_eq!(
            bytes(SolverKind::ChocoQ, EngineKind::Compact),
            feasible * 32
        );
        assert_eq!(bytes(SolverKind::Cyclic, EngineKind::Compact), full * 32);
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
