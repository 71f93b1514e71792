//! Per-cell fault handling: the structured error taxonomy that replaces
//! stringly-typed cell failures, the retry policy, and the deterministic
//! fault injector behind `CHOCO_FAULT_INJECT`.
//!
//! A failed cell is a *degraded outcome*, not a dead run: the scheduler
//! catches panics, enforces cooperative deadlines, classifies whatever
//! went wrong into a [`CellError`], optionally retries transient kinds,
//! and records the result as a structured error row — every other cell
//! completes normally.

use choco_model::SolverError;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

/// Classifies a failed cell (the `error_kind` field of grid records).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CellErrorKind {
    /// The cell panicked; the panic was caught and the worker replaced
    /// its possibly-corrupted workspace with a fresh one.
    Panic,
    /// The cell's cooperative wall-clock deadline (`--cell-timeout`)
    /// expired mid-solve.
    Timeout,
    /// Admission control refused the cell before any simulation (e.g.
    /// the register exceeds the engine's qubit limit).
    SizeGate,
    /// The solver rejected the cell: infeasible constraints, an
    /// unsupported encoding, a failed driver construction, or a missing
    /// exact reference.
    Solver,
    /// Reading or writing a run artifact (journal, report) failed.
    Io,
    /// The job owning the cell was cancelled (the daemon's `cancel` op or
    /// a shutdown drain timeout); the cell drained cooperatively through
    /// the same hook as deadlines instead of producing a result.
    Cancelled,
}

impl CellErrorKind {
    /// Stable lowercase label used in reports (`panic`, `timeout`,
    /// `size_gate`, `solver`, `io`, `cancelled`).
    pub fn label(self) -> &'static str {
        match self {
            CellErrorKind::Panic => "panic",
            CellErrorKind::Timeout => "timeout",
            CellErrorKind::SizeGate => "size_gate",
            CellErrorKind::Solver => "solver",
            CellErrorKind::Io => "io",
            CellErrorKind::Cancelled => "cancelled",
        }
    }

    /// Whether a bounded retry may plausibly succeed. Panics and
    /// timeouts can be transient (a corrupted workspace, a host hiccup);
    /// size gates, solver rejections, and cancellations are deliberate,
    /// so retrying them only burns budget.
    pub fn retryable(self) -> bool {
        matches!(self, CellErrorKind::Panic | CellErrorKind::Timeout)
    }
}

/// A structured per-cell failure: what kind, the human-readable detail,
/// and how many retries were spent before giving up.
#[derive(Clone, Debug)]
pub struct CellError {
    /// Failure classification.
    pub kind: CellErrorKind,
    /// Human-readable detail (the `error` field of grid records).
    pub detail: String,
    /// Retries consumed before this error became final (filled in by the
    /// scheduler's retry loop; attempts beyond it were identical).
    pub retries: u32,
}

impl CellError {
    /// A fresh (zero-retry) error of the given kind.
    pub fn new(kind: CellErrorKind, detail: impl Into<String>) -> CellError {
        CellError {
            kind,
            detail: detail.into(),
            retries: 0,
        }
    }

    /// Classifies a [`SolverError`]: size gates and timeouts become their
    /// own kinds; everything else is a deterministic solver rejection.
    pub fn from_solver(err: &SolverError) -> CellError {
        let kind = match err {
            SolverError::TooLarge { .. } => CellErrorKind::SizeGate,
            SolverError::Timeout => CellErrorKind::Timeout,
            _ => CellErrorKind::Solver,
        };
        CellError::new(kind, err.to_string())
    }

    /// Classifies a caught panic payload, extracting the message when the
    /// payload is a string (the overwhelmingly common case).
    pub fn from_panic(payload: &(dyn std::any::Any + Send)) -> CellError {
        let detail = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic with non-string payload".into());
        CellError::new(CellErrorKind::Panic, detail)
    }
}

impl fmt::Display for CellError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind.label(), self.detail)
    }
}

/// What an injected fault does to a cell attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic at the start of the attempt (exercises `catch_unwind`
    /// isolation and workspace replacement).
    Panic,
    /// Start the attempt with an already-expired deadline (a
    /// deterministic timeout, independent of host speed).
    Timeout,
    /// Sleep before the attempt (perturbs worker scheduling without
    /// failing the cell — determinism stress, not an error path).
    Delay(Duration),
    /// Crash the whole *worker thread* running the cell, outside the
    /// per-attempt `catch_unwind` envelope. The cell pool's supervisor
    /// replaces the worker's workspaces and requeues the cell, in plain
    /// runs and daemon jobs alike.
    Kill,
}

/// One parsed injection directive.
#[derive(Clone, Copy, Debug)]
struct Directive {
    index: usize,
    kind: FaultKind,
    /// How many attempts of the cell the fault hits (`None` = all). With
    /// `panic@3:1` and `--retries 1`, cell 3's first attempt panics and
    /// its retry succeeds — an `ok` record with `retries = 1`.
    attempts: Option<u32>,
}

/// A deterministic fault-injection plan, usually parsed from the
/// `CHOCO_FAULT_INJECT` environment variable (tests construct plans
/// directly via [`FaultPlan::parse`] to avoid process-global env races).
///
/// Grammar — comma-separated directives, cells addressed by their stable
/// flat grid index:
///
/// ```text
/// panic@I[:N]      panic in cell I's first N attempts (default: all)
/// timeout@I[:N]    expire cell I's deadline immediately
/// delay@I:MS[:N]   sleep MS milliseconds before cell I's attempt
/// kill@I[:N]       crash the pool worker running cell I
/// ```
#[derive(Debug, Default)]
pub struct FaultPlan {
    directives: Vec<Directive>,
    /// Attempts drawn so far per cell index (shared across workers).
    attempts: Mutex<BTreeMap<usize, u32>>,
    /// Supervision-level attempts drawn per cell by [`FaultPlan::draw_kill`].
    /// Kept separate from `attempts` so kill scheduling never shifts
    /// which solve attempts the other directives hit.
    kill_attempts: Mutex<BTreeMap<usize, u32>>,
}

impl FaultPlan {
    /// Parses a plan from the directive grammar.
    ///
    /// # Errors
    ///
    /// Returns a message naming the malformed directive.
    pub fn parse(text: &str) -> Result<FaultPlan, String> {
        let mut directives = Vec::new();
        for raw in text.split(',') {
            let raw = raw.trim();
            if raw.is_empty() {
                continue;
            }
            let (kind, coords) = raw
                .split_once('@')
                .ok_or_else(|| format!("fault `{raw}`: expected `<kind>@<cell>[...]`"))?;
            let parts: Vec<&str> = coords.split(':').collect();
            let parse_num = |what: &str, s: &str| -> Result<u64, String> {
                s.parse::<u64>()
                    .map_err(|e| format!("fault `{raw}`: bad {what} `{s}`: {e}"))
            };
            let (kind, rest) = match kind {
                "panic" => (FaultKind::Panic, &parts[1..]),
                "timeout" => (FaultKind::Timeout, &parts[1..]),
                "delay" => {
                    let ms = parts
                        .get(1)
                        .ok_or_else(|| format!("fault `{raw}`: delay needs `delay@I:MS`"))?;
                    let ms = parse_num("delay", ms)?;
                    (FaultKind::Delay(Duration::from_millis(ms)), &parts[2..])
                }
                "kill" => (FaultKind::Kill, &parts[1..]),
                other => {
                    return Err(format!(
                        "fault `{raw}`: unknown kind `{other}` (expected panic|timeout|delay|kill)"
                    ))
                }
            };
            let index = parse_num("cell index", parts.first().unwrap_or(&""))? as usize;
            let attempts = match rest {
                [] => None,
                [n] => Some(parse_num("attempt count", n)? as u32),
                _ => return Err(format!("fault `{raw}`: too many `:` fields")),
            };
            directives.push(Directive {
                index,
                kind,
                attempts,
            });
        }
        Ok(FaultPlan {
            directives,
            attempts: Mutex::new(BTreeMap::new()),
            kill_attempts: Mutex::new(BTreeMap::new()),
        })
    }

    /// Reads `CHOCO_FAULT_INJECT` from the environment; unset or blank
    /// means no injection.
    ///
    /// # Errors
    ///
    /// Propagates [`FaultPlan::parse`] failures.
    pub fn from_env() -> Result<Option<FaultPlan>, String> {
        match std::env::var("CHOCO_FAULT_INJECT") {
            Ok(text) if !text.trim().is_empty() => FaultPlan::parse(&text)
                .map(Some)
                .map_err(|e| format!("CHOCO_FAULT_INJECT: {e}")),
            _ => Ok(None),
        }
    }

    /// Draws the fault (if any) for the next attempt of cell `index`,
    /// advancing that cell's attempt counter. Thread-safe; the counter is
    /// per-cell, so worker scheduling cannot change which attempts fail.
    /// `kill@` directives are not drawn here — they act above the attempt
    /// level, through [`FaultPlan::draw_kill`].
    pub fn draw(&self, index: usize) -> Option<FaultKind> {
        let attempt = {
            let mut attempts = self.attempts.lock().unwrap_or_else(PoisonError::into_inner);
            let n = attempts.entry(index).or_insert(0);
            let current = *n;
            *n += 1;
            current
        };
        self.directives
            .iter()
            .find(|d| {
                !matches!(d.kind, FaultKind::Kill)
                    && d.index == index
                    && d.attempts.is_none_or(|k| attempt < k)
            })
            .map(|d| d.kind)
    }

    /// Draws whether the next supervision-level dispatch of cell `index`
    /// should crash its worker thread (`kill@I[:N]` directives), advancing
    /// a counter independent of [`FaultPlan::draw`]'s.
    pub fn draw_kill(&self, index: usize) -> bool {
        let attempt = {
            let mut attempts = self
                .kill_attempts
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            let n = attempts.entry(index).or_insert(0);
            let current = *n;
            *n += 1;
            current
        };
        self.directives.iter().any(|d| {
            matches!(d.kind, FaultKind::Kill)
                && d.index == index
                && d.attempts.is_none_or(|k| attempt < k)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_all_directive_kinds() {
        let plan = FaultPlan::parse("panic@0, timeout@2:1, delay@3:250:2").unwrap();
        assert_eq!(plan.draw(0), Some(FaultKind::Panic));
        assert_eq!(plan.draw(0), Some(FaultKind::Panic), "unbounded repeats");
        assert_eq!(plan.draw(1), None);
        assert_eq!(plan.draw(2), Some(FaultKind::Timeout));
        assert_eq!(plan.draw(2), None, "bounded to one attempt");
        let delay = Duration::from_millis(250);
        assert_eq!(plan.draw(3), Some(FaultKind::Delay(delay)));
        assert_eq!(plan.draw(3), Some(FaultKind::Delay(delay)));
        assert_eq!(plan.draw(3), None, "bounded to two attempts");
    }

    #[test]
    fn kill_directives_draw_on_their_own_counter() {
        let plan = FaultPlan::parse("kill@0:2, panic@0:1").unwrap();
        // `draw` never surfaces kills, and its counter keeps panic@0:1 on
        // the first solve attempt regardless of how many kills were drawn.
        assert!(plan.draw_kill(0));
        assert!(plan.draw_kill(0));
        assert!(!plan.draw_kill(0), "bounded to two dispatches");
        assert!(!plan.draw_kill(1));
        assert_eq!(plan.draw(0), Some(FaultKind::Panic));
        assert_eq!(plan.draw(0), None, "panic bounded to one attempt");

        let unbounded = FaultPlan::parse("kill@3").unwrap();
        for _ in 0..5 {
            assert!(unbounded.draw_kill(3));
        }
        assert_eq!(unbounded.draw(3), None, "kill is invisible to draw");
    }

    #[test]
    fn rejects_malformed_directives() {
        for bad in [
            "panic",
            "panic@x",
            "explode@1",
            "delay@1",
            "panic@1:2:3",
            "delay@1:5:2:9",
            "kill@",
        ] {
            let err = FaultPlan::parse(bad).unwrap_err();
            assert!(err.contains("fault"), "{bad}: {err}");
        }
        // Blank segments and whitespace are tolerated.
        assert!(FaultPlan::parse(" panic@1 , ").is_ok());
        assert!(FaultPlan::parse("").unwrap().draw(0).is_none());
    }

    #[test]
    fn solver_errors_classify_by_kind() {
        let gate = CellError::from_solver(&SolverError::TooLarge {
            required: 30,
            limit: 26,
        });
        assert_eq!(gate.kind, CellErrorKind::SizeGate);
        assert!(gate.detail.contains("30"));
        let timeout = CellError::from_solver(&SolverError::Timeout);
        assert_eq!(timeout.kind, CellErrorKind::Timeout);
        let solver = CellError::from_solver(&SolverError::Infeasible);
        assert_eq!(solver.kind, CellErrorKind::Solver);
        assert!(!solver.kind.retryable() && !gate.kind.retryable());
        assert!(timeout.kind.retryable() && CellErrorKind::Panic.retryable());
        assert!(!CellErrorKind::Cancelled.retryable());
        assert_eq!(CellErrorKind::Cancelled.label(), "cancelled");
    }

    #[test]
    fn panic_payloads_extract_string_messages() {
        let boxed: Box<dyn std::any::Any + Send> = Box::new("static str".to_string());
        let err = CellError::from_panic(boxed.as_ref());
        assert_eq!(err.kind, CellErrorKind::Panic);
        assert_eq!(err.detail, "static str");
        let boxed: Box<dyn std::any::Any + Send> = Box::new(42u32);
        let err = CellError::from_panic(boxed.as_ref());
        assert!(err.detail.contains("non-string"));
    }
}
