//! The `choco-cli run` and `choco-cli serve` subcommands: load a spec,
//! execute it, emit reports — or run the solve-as-a-service daemon.

use crate::fault::FaultPlan;
use crate::run::{execute, RunOptions};
use crate::serve::{serve, serve_socket, ServeOptions};
use crate::spec::ExperimentSpec;
use choco_optim::OptimizerKind;
use choco_qsim::{EngineKind, SimConfig};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Parsed `run` subcommand arguments.
#[derive(Clone, Debug, Default)]
pub struct RunArgs {
    /// Spec file path.
    pub spec_path: String,
    /// Trim to the spec's quick subset.
    pub quick: bool,
    /// JSON output path (`-` = stdout; default from the spec / name).
    pub out: Option<String>,
    /// Also write the flat cells as CSV to this path.
    pub csv: Option<String>,
    /// Suppress the human-readable table on stdout.
    pub no_table: bool,
    /// Checkpoint journal path (`--checkpoint PATH`): append every
    /// completed grid cell as it finishes.
    pub checkpoint: Option<String>,
    /// Resume from the `--checkpoint` journal, skipping completed cells.
    pub resume: bool,
    /// The execution flags shared with `serve`.
    pub exec: ExecArgs,
}

/// The execution flags `run` and `serve` share, parsed and turned into
/// [`RunOptions`] in one place.
#[derive(Clone, Debug)]
pub struct ExecArgs {
    /// Worker threads (0 = one per host core).
    pub workers: usize,
    /// Per-worker simulator threads (default 1: cell-level parallelism
    /// already fills the host).
    pub sim_threads: usize,
    /// Simulation engine override (`--engine dense|compact`); `None`
    /// defers to the spec's `[grid] engine` key.
    pub engine: Option<EngineKind>,
    /// Classical-optimizer override
    /// (`--optimizer cobyla|nelder-mead|spsa`); `None` defers to the
    /// spec's `[grid] optimizer` key.
    pub optimizer: Option<OptimizerKind>,
    /// Restart-scheduler workers per Choco-Q solve
    /// (`--restart-workers N`, 0 = one per host core, default 1).
    pub restart_workers: usize,
    /// Per-cell wall-clock budget in seconds (`--cell-timeout SECS`).
    pub cell_timeout_secs: Option<f64>,
    /// Retry budget for transient per-cell failures (`--retries N`).
    pub retries: u32,
}

impl Default for ExecArgs {
    fn default() -> Self {
        ExecArgs {
            workers: 0,
            sim_threads: 1,
            engine: None,
            optimizer: None,
            restart_workers: 1,
            cell_timeout_secs: None,
            retries: 0,
        }
    }
}

/// Usage text for the `run` subcommand.
pub const RUN_USAGE: &str = "usage: choco-cli run <spec.toml> [--workers N] [--quick] \
     [--out PATH|-] [--csv PATH] [--sim-threads N] [--engine dense|compact] \
     [--optimizer cobyla|nelder-mead|spsa] [--restart-workers N] [--no-table] \
     [--checkpoint PATH] [--resume] [--cell-timeout SECS] [--retries N]";

/// Parses a seconds-valued flag: positive, finite, and bounded by
/// [`crate::serve::MAX_KNOB_SECS`], so downstream `Duration` and
/// `Instant` arithmetic cannot panic however extreme the argument.
fn parse_secs(flag: &str, text: &str) -> Result<f64, String> {
    let secs: f64 = text.parse().map_err(|e| format!("{flag}: {e}"))?;
    if !secs.is_finite() || secs <= 0.0 || secs > crate::serve::MAX_KNOB_SECS {
        return Err(format!(
            "{flag}: expected a positive number of seconds, at most {:.0}, got {secs}",
            crate::serve::MAX_KNOB_SECS
        ));
    }
    Ok(secs)
}

/// Converts a seconds value to a `Duration` without the panic paths of
/// `Duration::from_secs_f64`. `RunArgs`/`ServeArgs` are public structs,
/// so option builders can see values that never went through
/// [`parse_secs`].
fn secs_to_duration(flag: &str, secs: f64) -> Result<Duration, String> {
    Duration::try_from_secs_f64(secs).map_err(|e| format!("{flag}: {e}"))
}

/// The next argument as the value of `flag`.
fn flag_value(args: &mut std::slice::Iter<String>, flag: &str) -> Result<String, String> {
    args.next()
        .cloned()
        .ok_or_else(|| format!("missing value for {flag}"))
}

/// The next argument parsed as the number `flag` takes.
fn flag_number<T>(args: &mut std::slice::Iter<String>, flag: &str) -> Result<T, String>
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    flag_value(args, flag)?
        .parse()
        .map_err(|e| format!("{flag}: {e}"))
}

impl ExecArgs {
    /// Parses `flag` and its value from `args` when it is one of the
    /// shared flags; `Ok(false)` leaves any other flag to the caller.
    fn parse(&mut self, flag: &str, args: &mut std::slice::Iter<String>) -> Result<bool, String> {
        match flag {
            "--workers" => self.workers = flag_number(args, flag)?,
            "--sim-threads" => self.sim_threads = flag_number(args, flag)?,
            "--engine" => {
                self.engine = Some(
                    EngineKind::parse(&flag_value(args, flag)?)
                        .map_err(|e| format!("--engine: {e}"))?,
                )
            }
            "--optimizer" => {
                self.optimizer = Some(
                    OptimizerKind::parse(&flag_value(args, flag)?)
                        .map_err(|e| format!("--optimizer: {e}"))?,
                )
            }
            "--restart-workers" => self.restart_workers = flag_number(args, flag)?,
            "--cell-timeout" => {
                self.cell_timeout_secs = Some(parse_secs(flag, &flag_value(args, flag)?)?);
            }
            "--retries" => self.retries = flag_number(args, flag)?,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// The run options these flags describe, with the fault plan from
    /// `CHOCO_FAULT_INJECT`; run-only options keep their defaults.
    fn run_options(&self) -> Result<RunOptions, String> {
        Ok(RunOptions {
            workers: self.workers,
            sim: if self.sim_threads <= 1 {
                SimConfig::serial()
            } else {
                SimConfig::with_threads(self.sim_threads)
            },
            engine: self.engine,
            optimizer: self.optimizer,
            restart_workers: self.restart_workers,
            cell_timeout: self
                .cell_timeout_secs
                .map(|s| secs_to_duration("--cell-timeout", s))
                .transpose()?,
            retries: self.retries,
            faults: FaultPlan::from_env()?.map(Arc::new),
            ..RunOptions::default()
        })
    }
}

/// Parses `run` subcommand arguments (everything after the literal
/// `run`).
///
/// # Errors
///
/// Returns a user-facing message for unknown flags or missing values.
pub fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if parsed.exec.parse(arg, &mut it)? {
            continue;
        }
        match arg.as_str() {
            "--quick" => parsed.quick = true,
            "--out" => parsed.out = Some(flag_value(&mut it, arg)?),
            "--csv" => parsed.csv = Some(flag_value(&mut it, arg)?),
            "--no-table" => parsed.no_table = true,
            "--checkpoint" => parsed.checkpoint = Some(flag_value(&mut it, arg)?),
            "--resume" => parsed.resume = true,
            other if parsed.spec_path.is_empty() && !other.starts_with('-') => {
                parsed.spec_path = other.to_string();
            }
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    if parsed.spec_path.is_empty() {
        return Err("no spec file given".into());
    }
    Ok(parsed)
}

/// Executes the `run` subcommand end to end: parse the spec, run the
/// batch, write JSON (and optional CSV), print the table.
///
/// # Errors
///
/// Returns a user-facing message on spec, execution, or I/O failure.
pub fn run_command(args: &[String]) -> Result<(), String> {
    let parsed = parse_run_args(args)?;
    let spec = ExperimentSpec::load(&parsed.spec_path)?;
    let options = RunOptions {
        quick: parsed.quick,
        checkpoint: parsed.checkpoint.clone(),
        resume: parsed.resume,
        ..parsed.exec.run_options()?
    };
    let report = execute(&spec, &options)?;

    let json = report.to_json();
    let out_path = parsed
        .out
        .clone()
        .or_else(|| spec.output.clone())
        .unwrap_or_else(|| format!("results/{}.json", spec.name));
    if out_path == "-" {
        print!("{json}");
    } else {
        if let Some(parent) = std::path::Path::new(&out_path).parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)
                    .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
            }
        }
        std::fs::write(&out_path, &json).map_err(|e| format!("cannot write {out_path}: {e}"))?;
        eprintln!("wrote {out_path}");
    }
    if let Some(csv_path) = &parsed.csv {
        let csv = report.to_csv();
        if csv_path == "-" {
            print!("{csv}");
        } else {
            std::fs::write(csv_path, &csv).map_err(|e| format!("cannot write {csv_path}: {e}"))?;
            eprintln!("wrote {csv_path}");
        }
    }
    if !parsed.no_table && out_path != "-" && parsed.csv.as_deref() != Some("-") {
        print!("{}", report.to_table());
    }
    Ok(())
}

/// Parsed `serve` subcommand arguments.
#[derive(Clone, Debug)]
pub struct ServeArgs {
    /// Job-state directory (specs, journals, reports, done markers).
    pub state_dir: String,
    /// Maximum queued cells across all jobs.
    pub queue_cap: usize,
    /// Unix socket path; `None` serves one session on stdin/stdout.
    pub socket: Option<String>,
    /// Admission memory budget in bytes (`--mem-budget BYTES[K|M|G]`,
    /// binary suffixes). `None` disables byte-based admission.
    pub mem_budget: Option<u64>,
    /// Prune completed jobs' spec/journal files (`--gc-done`).
    pub gc_done: bool,
    /// How long a signal-initiated drain may run before falling back to
    /// abort (`--drain-timeout SECS`).
    pub drain_timeout_secs: f64,
    /// The execution flags shared with `run`, applied to every job.
    pub exec: ExecArgs,
}

impl Default for ServeArgs {
    fn default() -> Self {
        ServeArgs {
            state_dir: "serve-state".to_string(),
            queue_cap: 4096,
            socket: None,
            mem_budget: None,
            gc_done: false,
            drain_timeout_secs: 60.0,
            exec: ExecArgs::default(),
        }
    }
}

/// Usage text for the `serve` subcommand.
pub const SERVE_USAGE: &str = "usage: choco-cli serve [--state-dir DIR] [--queue-cap N] \
     [--socket PATH] [--workers N] [--sim-threads N] [--engine dense|compact] \
     [--optimizer cobyla|nelder-mead|spsa] [--restart-workers N] \
     [--cell-timeout SECS] [--retries N] [--mem-budget BYTES[K|M|G]] [--gc-done] \
     [--drain-timeout SECS]";

/// Parses a byte count with an optional binary suffix: `1048576`,
/// `512K`, `64M`, `2G`.
fn parse_bytes(text: &str) -> Result<u64, String> {
    let text = text.trim();
    let (digits, multiplier) = match text.as_bytes().last() {
        Some(b'K' | b'k') => (&text[..text.len() - 1], 1u64 << 10),
        Some(b'M' | b'm') => (&text[..text.len() - 1], 1 << 20),
        Some(b'G' | b'g') => (&text[..text.len() - 1], 1 << 30),
        _ => (text, 1),
    };
    let n: u64 = digits
        .trim()
        .parse()
        .map_err(|e| format!("bad byte count `{text}`: {e}"))?;
    n.checked_mul(multiplier)
        .ok_or_else(|| format!("byte count `{text}` overflows"))
}

/// Parses `serve` subcommand arguments (everything after the literal
/// `serve`).
///
/// # Errors
///
/// Returns a user-facing message for unknown flags or missing values.
pub fn parse_serve_args(args: &[String]) -> Result<ServeArgs, String> {
    let mut parsed = ServeArgs::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if parsed.exec.parse(arg, &mut it)? {
            continue;
        }
        match arg.as_str() {
            "--state-dir" => parsed.state_dir = flag_value(&mut it, arg)?,
            "--queue-cap" => {
                let cap: usize = flag_number(&mut it, arg)?;
                if cap == 0 {
                    return Err("--queue-cap: expected a cap of at least 1".into());
                }
                parsed.queue_cap = cap;
            }
            "--socket" => parsed.socket = Some(flag_value(&mut it, arg)?),
            "--mem-budget" => {
                parsed.mem_budget = Some(
                    parse_bytes(&flag_value(&mut it, arg)?)
                        .map_err(|e| format!("--mem-budget: {e}"))?,
                )
            }
            "--gc-done" => parsed.gc_done = true,
            "--drain-timeout" => {
                parsed.drain_timeout_secs = parse_secs(arg, &flag_value(&mut it, arg)?)?;
            }
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    Ok(parsed)
}

/// Builds the daemon options a [`ServeArgs`] describes (shared by the
/// command entry point and the tests/benches that run the daemon
/// in-process).
///
/// # Errors
///
/// Returns `CHOCO_FAULT_INJECT` parse failures and out-of-range timeout
/// values (possible when a `ServeArgs` is built programmatically rather
/// than via [`parse_serve_args`]).
pub fn serve_options(parsed: &ServeArgs) -> Result<ServeOptions, String> {
    Ok(ServeOptions {
        state_dir: PathBuf::from(&parsed.state_dir),
        queue_cap: parsed.queue_cap,
        mem_budget: parsed.mem_budget,
        gc_done: parsed.gc_done,
        drain_timeout: secs_to_duration("--drain-timeout", parsed.drain_timeout_secs)?,
        run: parsed.exec.run_options()?,
    })
}

/// Executes the `serve` subcommand: runs the daemon on stdin/stdout, or
/// on a Unix socket when `--socket` is given. SIGTERM/SIGINT request the
/// daemon's bounded-drain shutdown instead of killing the process
/// mid-write (journals make even a hard kill safe, but a drain finishes
/// in-flight jobs' reports).
///
/// # Errors
///
/// Returns a user-facing message on argument, setup, or bind failure.
pub fn serve_command(args: &[String]) -> Result<(), String> {
    let parsed = parse_serve_args(args)?;
    let options = serve_options(&parsed)?;
    crate::serve::install_signal_handlers();
    match &parsed.socket {
        Some(path) => serve_socket(&options, std::path::Path::new(path)),
        None => serve(
            &options,
            std::io::BufReader::new(std::io::stdin()),
            std::io::stdout(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_all_flags() {
        let args = parse_run_args(&strings(&[
            "spec.toml",
            "--workers",
            "3",
            "--quick",
            "--out",
            "-",
            "--csv",
            "cells.csv",
            "--sim-threads",
            "2",
            "--engine",
            "dense",
            "--optimizer",
            "nelder-mead",
            "--restart-workers",
            "4",
            "--no-table",
        ]))
        .unwrap();
        assert_eq!(args.spec_path, "spec.toml");
        assert_eq!(args.exec.workers, 3);
        assert!(args.quick);
        assert_eq!(args.out.as_deref(), Some("-"));
        assert_eq!(args.csv.as_deref(), Some("cells.csv"));
        assert_eq!(args.exec.sim_threads, 2);
        assert_eq!(args.exec.engine, Some(EngineKind::Dense));
        assert_eq!(args.exec.optimizer, Some(OptimizerKind::NelderMead));
        assert_eq!(args.exec.restart_workers, 4);
        assert!(args.no_table);
    }

    #[test]
    fn parses_fault_tolerance_flags() {
        let args = parse_run_args(&strings(&[
            "spec.toml",
            "--checkpoint",
            "run.journal",
            "--resume",
            "--cell-timeout",
            "2.5",
            "--retries",
            "3",
        ]))
        .unwrap();
        assert_eq!(args.checkpoint.as_deref(), Some("run.journal"));
        assert!(args.resume);
        assert_eq!(args.exec.cell_timeout_secs, Some(2.5));
        assert_eq!(args.exec.retries, 3);
        // Defaults: no checkpointing, no budget, no retries.
        let args = parse_run_args(&strings(&["s.toml"])).unwrap();
        assert_eq!(args.checkpoint, None);
        assert!(!args.resume);
        assert_eq!(args.exec.cell_timeout_secs, None);
        assert_eq!(args.exec.retries, 0);
        // Non-positive, non-numeric, and Duration-overflowing budgets
        // are all parse errors, never a later `from_secs_f64` panic.
        for bad in ["0", "-1", "forever", "1e300", "inf", "nan"] {
            let err = parse_run_args(&strings(&["s.toml", "--cell-timeout", bad])).unwrap_err();
            assert!(err.contains("--cell-timeout"), "{bad}: {err}");
        }
    }

    #[test]
    fn parses_serve_flags_with_defaults() {
        let args = parse_serve_args(&[]).unwrap();
        assert_eq!(args.state_dir, "serve-state");
        assert_eq!(args.queue_cap, 4096);
        assert_eq!(args.socket, None);
        assert_eq!(args.exec.workers, 0);

        let args = parse_serve_args(&strings(&[
            "--state-dir",
            "/tmp/s",
            "--queue-cap",
            "7",
            "--socket",
            "/tmp/s.sock",
            "--workers",
            "2",
            "--engine",
            "compact",
            "--retries",
            "1",
            "--mem-budget",
            "512M",
            "--gc-done",
            "--drain-timeout",
            "2.5",
        ]))
        .unwrap();
        assert_eq!(args.state_dir, "/tmp/s");
        assert_eq!(args.queue_cap, 7);
        assert_eq!(args.socket.as_deref(), Some("/tmp/s.sock"));
        assert_eq!(args.exec.workers, 2);
        assert_eq!(args.exec.engine, Some(EngineKind::Compact));
        assert_eq!(args.exec.retries, 1);
        assert_eq!(args.mem_budget, Some(512 << 20));
        assert!(args.gc_done);
        assert_eq!(args.drain_timeout_secs, 2.5);

        assert!(parse_serve_args(&strings(&["--queue-cap", "0"]))
            .unwrap_err()
            .contains("--queue-cap"));
        assert!(parse_serve_args(&strings(&["--bogus"]))
            .unwrap_err()
            .contains("--bogus"));
    }

    #[test]
    fn mem_budget_accepts_binary_suffixes() {
        assert_eq!(parse_bytes("1048576"), Ok(1 << 20));
        assert_eq!(parse_bytes("512K"), Ok(512 << 10));
        assert_eq!(parse_bytes("64m"), Ok(64 << 20));
        assert_eq!(parse_bytes("2G"), Ok(2 << 30));
        assert!(parse_bytes("2T").is_err(), "unknown suffix");
        assert!(parse_bytes("").is_err());
        assert!(parse_bytes("-1").is_err());
        assert!(parse_bytes(&format!("{}G", u64::MAX)).is_err(), "overflow");
        for bad in ["0x10", "ten", "K"] {
            assert!(parse_bytes(bad).is_err(), "{bad}");
        }
        assert!(parse_serve_args(&strings(&["--mem-budget", "lots"]))
            .unwrap_err()
            .contains("--mem-budget"));
        for bad in ["-2", "1e30", "inf"] {
            assert!(
                parse_serve_args(&strings(&["--drain-timeout", bad]))
                    .unwrap_err()
                    .contains("--drain-timeout"),
                "{bad}"
            );
        }
        // `serve_options` itself refuses unparseable durations, so a
        // programmatically-built `ServeArgs` cannot panic the daemon.
        let args = ServeArgs {
            drain_timeout_secs: 1e300,
            ..ServeArgs::default()
        };
        assert!(serve_options(&args)
            .unwrap_err()
            .contains("--drain-timeout"));
        let args = ServeArgs {
            exec: ExecArgs {
                cell_timeout_secs: Some(-1.0),
                ..ExecArgs::default()
            },
            ..ServeArgs::default()
        };
        assert!(serve_options(&args).unwrap_err().contains("--cell-timeout"));
    }

    #[test]
    fn rejects_missing_spec_and_unknown_flags() {
        assert!(parse_run_args(&[]).unwrap_err().contains("no spec"));
        assert!(parse_run_args(&strings(&["s.toml", "--bogus"]))
            .unwrap_err()
            .contains("--bogus"));
        assert!(parse_run_args(&strings(&["s.toml", "--workers"]))
            .unwrap_err()
            .contains("--workers"));
        // The retired batch width is an unknown flag in both modes.
        assert!(parse_run_args(&strings(&["s.toml", "--batch", "8"]))
            .unwrap_err()
            .contains("unexpected argument `--batch`"));
        assert!(parse_serve_args(&strings(&["--batch", "8"]))
            .unwrap_err()
            .contains("unexpected argument `--batch`"));
    }

    #[test]
    fn engine_flag_defaults_to_none_and_rejects_unknown() {
        assert_eq!(
            parse_run_args(&strings(&["s.toml"])).unwrap().exec.engine,
            None
        );
        let err = parse_run_args(&strings(&["s.toml", "--engine", "fpga"])).unwrap_err();
        assert!(err.contains("--engine") && err.contains("fpga"), "{err}");
        // The retired selections are rejected in both modes, naming the
        // accepted values.
        for retired in ["sparse", "auto"] {
            let run = parse_run_args(&strings(&["s.toml", "--engine", retired])).unwrap_err();
            let serve = parse_serve_args(&strings(&["--engine", retired])).unwrap_err();
            for err in [run, serve] {
                assert!(
                    err.contains("--engine")
                        && err.contains(retired)
                        && err.contains("dense|compact"),
                    "{err}"
                );
            }
        }
    }

    #[test]
    fn optimizer_flag_defaults_to_none_and_rejects_unknown() {
        let args = parse_run_args(&strings(&["s.toml"])).unwrap();
        assert_eq!(args.exec.optimizer, None);
        assert_eq!(args.exec.restart_workers, 1);
        // Case-insensitive, like the spec key.
        let args = parse_run_args(&strings(&["s.toml", "--optimizer", "COBYLA"])).unwrap();
        assert_eq!(args.exec.optimizer, Some(OptimizerKind::Cobyla));
        let err = parse_run_args(&strings(&["s.toml", "--optimizer", "adam"])).unwrap_err();
        assert!(err.contains("--optimizer") && err.contains("adam"), "{err}");
        assert!(err.contains("cobyla|nelder-mead|spsa"), "{err}");
    }
}
