//! # choco-runner
//!
//! The data-driven experiment runner: every table and figure of the
//! Choco-Q evaluation is a checked-in spec under `experiments/`, executed
//! by one engine instead of one hand-written binary per figure.
//!
//! * [`ExperimentSpec`] — a `{problem family × size × seed × solver ×
//!   layers × eliminate × device}` grid (or a special kind:
//!   decomposition / ablation / support), parsed from the TOML subset in
//!   [`minitoml`].
//! * [`execute`] — runs a spec. Grid cells run on the one cell pool in
//!   [`serve`], each worker owning its own [`choco_qsim::SimWorkspace`]
//!   so the zero-allocation solver path runs in parallel. Per-cell seeds
//!   derive from cell *coordinates*, so any cell is reproducible in
//!   isolation and the report is byte-identical at any worker count.
//! * [`RunReport`] — deterministic JSON / CSV emission plus a terminal
//!   table ([`RunReport::to_json`] contains no wall-clock fields).
//! * Fault tolerance — cells run behind `catch_unwind` with a structured
//!   error taxonomy ([`CellError`]), a supervisor that replaces crashed
//!   workers, cooperative deadlines, bounded retries, and an append-only
//!   checkpoint journal (`--checkpoint` / `--resume`) that makes killed
//!   runs resumable with byte-identical reports (`docs/operations.md`).
//! * [`serve`] — `choco-cli serve`: a long-lived daemon that keeps the
//!   pool running, queues submitted jobs on it with one plan cache across
//!   requests, streams records as JSONL, and journals every job.
//! * [`cli::run_command`] — the `choco-cli run <spec>` entry point.
//!
//! ```
//! use choco_runner::{execute, ExperimentSpec, RunOptions};
//!
//! let spec = ExperimentSpec::parse_str(r#"
//! name = "doc-smoke"
//! [grid]
//! problems = ["F1"]
//! solvers = ["choco-q"]
//! [config]
//! shots = 500
//! max_iters = 5
//! restarts = 1
//! transpiled_stats = false
//! "#).unwrap();
//! let report = execute(&spec, &RunOptions::default()).unwrap();
//! assert_eq!(report.records.len(), 1);
//! ```

#![warn(missing_docs)]

mod checkpoint;
pub mod cli;
mod fault;
mod json;
pub mod minitoml;
mod report;
mod run;
pub mod serve;
mod spec;
mod special;

pub use fault::{CellError, CellErrorKind, FaultKind, FaultPlan};
pub use report::{Field, Record, RunReport};
pub use run::{build_instances, execute, scaled_choco, scaled_qaoa, Instance, RunOptions};
pub use serve::ServeOptions;
pub use spec::{
    Cell, ConfigOverrides, DecompositionSpec, ExperimentSpec, ProblemRef, RunKind, SolverKind,
};
