//! Fault-tolerance integration tests: kill/resume determinism of the
//! checkpoint journal across engines and worker counts, panic isolation,
//! deterministic fault injection, bounded retries, and cooperative
//! per-cell timeouts.

use choco_q::prelude::*;
use choco_q::qsim::EngineKind;
use choco_q::runner::serve::{serve, ServeOptions};
use choco_q::runner::{execute, FaultPlan, Field, RunKind};
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Four fast cells (2 solvers × 2 seeds) — enough to kill mid-run at
/// every prefix without making the matrix slow.
const SPEC: &str = r#"
name = "ft"
description = "fault-tolerance grid"

[grid]
problems = ["F1"]
solvers = ["choco-q", "hea"]
seeds = [1, 2]

[config]
shots = 300
max_iters = 4
restarts = 1
transpiled_stats = false
"#;

fn spec() -> ExperimentSpec {
    ExperimentSpec::parse_str(SPEC).expect("spec")
}

/// A unique scratch path per test (tests run concurrently in one
/// process).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("choco_ft_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn opts() -> RunOptions {
    RunOptions {
        workers: 1,
        ..RunOptions::default()
    }
}

fn status_of(report: &RunReport, i: usize) -> &str {
    match report.records[i].get("status") {
        Some(Field::Str(s)) => s,
        other => panic!("cell {i} has no status: {other:?}"),
    }
}

fn error_kind_of(report: &RunReport, i: usize) -> Option<&str> {
    match report.records[i].get("error_kind") {
        Some(Field::Str(s)) => Some(s),
        _ => None,
    }
}

/// The tentpole acceptance test: kill the run after *every* cell prefix,
/// resume at varying worker counts, and require the final JSON and CSV
/// to be byte-identical to an uninterrupted run — per engine, since the
/// journal header binds the engine selection.
#[test]
fn killed_runs_resume_byte_identically_at_any_prefix() {
    let dir = scratch("resume");
    let spec = spec();
    for engine in [EngineKind::Dense, EngineKind::Compact] {
        let engine_opts = |workers: usize| RunOptions {
            workers,
            engine: Some(engine),
            ..RunOptions::default()
        };
        let clean = execute(&spec, &engine_opts(1)).expect("clean run");
        let (clean_json, clean_csv) = (clean.to_json(), clean.to_csv());

        // One full checkpointed single-worker run gives a journal whose
        // cell lines are in deterministic order — its prefixes are
        // exactly the states a killed run can leave behind.
        let full_path = dir.join(format!("{}_full.jsonl", engine.label()));
        let full_opts = RunOptions {
            checkpoint: Some(full_path.to_string_lossy().into_owned()),
            ..engine_opts(1)
        };
        let full = execute(&spec, &full_opts).expect("checkpointed run");
        assert_eq!(
            full.to_json(),
            clean_json,
            "checkpointing must not change the report"
        );
        let journal = std::fs::read_to_string(&full_path).expect("journal");
        let lines: Vec<&str> = journal.lines().collect();
        assert_eq!(lines.len(), 1 + spec.expand_cells(false).len());

        for prefix in 0..=(lines.len() - 1) {
            let path = dir.join(format!("{}_k{prefix}.jsonl", engine.label()));
            let truncated: String = lines[..=prefix].iter().flat_map(|l| [*l, "\n"]).collect();
            std::fs::write(&path, truncated).expect("truncated journal");
            let workers = [1, 2, 4][prefix % 3];
            let resume_opts = RunOptions {
                checkpoint: Some(path.to_string_lossy().into_owned()),
                resume: true,
                ..engine_opts(workers)
            };
            let resumed = execute(&spec, &resume_opts).expect("resume");
            assert_eq!(
                resumed.to_json(),
                clean_json,
                "{} engine, kill after {prefix} cells, {workers} workers: JSON diverged",
                engine.label()
            );
            assert_eq!(resumed.to_csv(), clean_csv);
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn torn_trailing_line_resumes_cleanly() {
    let dir = scratch("torn");
    let spec = spec();
    let path = dir.join("torn.jsonl");
    let base = RunOptions {
        checkpoint: Some(path.to_string_lossy().into_owned()),
        ..opts()
    };
    let clean = execute(&spec, &base).expect("checkpointed run");
    // Simulate a crash mid-append: chop the final line in half.
    let journal = std::fs::read_to_string(&path).expect("journal");
    let torn = &journal[..journal.len() - journal.lines().last().unwrap().len() / 2 - 1];
    std::fs::write(&path, torn).expect("torn journal");
    let resumed = execute(
        &spec,
        &RunOptions {
            resume: true,
            ..base
        },
    )
    .expect("resume over torn line");
    assert_eq!(resumed.to_json(), clean.to_json());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_with_missing_journal_starts_fresh() {
    let dir = scratch("fresh");
    let spec = spec();
    let path = dir.join("never_written.jsonl");
    let report = execute(
        &spec,
        &RunOptions {
            checkpoint: Some(path.to_string_lossy().into_owned()),
            resume: true,
            ..opts()
        },
    )
    .expect("fresh start");
    assert_eq!(report.to_json(), execute(&spec, &opts()).unwrap().to_json());
    assert!(path.exists(), "fresh journal was written");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn mismatched_journal_is_rejected_with_the_diverging_knob() {
    let dir = scratch("mismatch");
    let spec = spec();
    let path = dir.join("dense.jsonl");
    let base = RunOptions {
        checkpoint: Some(path.to_string_lossy().into_owned()),
        engine: Some(EngineKind::Dense),
        ..opts()
    };
    execute(&spec, &base).expect("dense run");
    // A journal written on dense does not resume under the compact
    // default: the header binds the engine.
    let err = execute(
        &spec,
        &RunOptions {
            engine: None,
            resume: true,
            ..base
        },
    )
    .expect_err("engine mismatch must fail");
    assert!(err.contains("--engine"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpoint_is_grid_only() {
    // Any non-grid kind must refuse checkpointing up front.
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("experiments");
    let non_grid = std::fs::read_dir(&dir)
        .expect("experiments/")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("toml"))
        .filter_map(|p| ExperimentSpec::load(p.to_str().unwrap()).ok())
        .find(|s| s.kind != RunKind::Grid)
        .expect("a non-grid spec is checked in");
    let err = execute(
        &non_grid,
        &RunOptions {
            checkpoint: Some("unused.jsonl".into()),
            ..opts()
        },
    )
    .expect_err("non-grid checkpoint must fail");
    assert!(err.contains("grid"), "{err}");
}

#[test]
fn injected_panic_is_isolated_to_its_cell() {
    let spec = spec();
    let faulty = RunOptions {
        faults: Some(Arc::new(FaultPlan::parse("panic@0").unwrap())),
        ..opts()
    };
    let report = execute(&spec, &faulty).expect("batch survives a panicking cell");
    assert_eq!(status_of(&report, 0), "error");
    assert_eq!(error_kind_of(&report, 0), Some("panic"));
    match report.records[0].get("error") {
        Some(Field::Str(msg)) => assert!(msg.contains("injected fault"), "{msg}"),
        other => panic!("no error detail: {other:?}"),
    }
    for i in 1..report.records.len() {
        assert_eq!(status_of(&report, i), "ok", "cell {i} must complete");
    }
    assert_eq!(report.summary.get("errors"), Some(&Field::UInt(1)));

    // The workspace replacement after the caught panic must not perturb
    // the surviving cells: they match a clean run exactly.
    let clean = execute(&spec, &opts()).expect("clean");
    for i in 1..report.records.len() {
        assert_eq!(
            report.records[i].get("success_rate"),
            clean.records[i].get("success_rate"),
            "cell {i} diverged after a sibling panic"
        );
    }
}

#[test]
fn transient_faults_are_retried_within_budget() {
    let spec = spec();
    // First attempt of cell 0 panics; the retry (attempt 2) is clean.
    let retried = execute(
        &spec,
        &RunOptions {
            faults: Some(Arc::new(FaultPlan::parse("panic@0:1").unwrap())),
            retries: 1,
            ..opts()
        },
    )
    .expect("retried run");
    assert_eq!(status_of(&retried, 0), "ok");
    assert_eq!(retried.records[0].get("retries"), Some(&Field::UInt(1)));
    assert_eq!(retried.summary.get("retries"), Some(&Field::UInt(1)));
    // The retried solve is seeded by cell coordinates, so it reproduces
    // the clean run's result exactly.
    let clean = execute(&spec, &opts()).expect("clean");
    assert_eq!(
        retried.records[0].get("success_rate"),
        clean.records[0].get("success_rate")
    );

    // Without budget the same fault is a final, structured error.
    let exhausted = execute(
        &spec,
        &RunOptions {
            faults: Some(Arc::new(FaultPlan::parse("panic@0:1").unwrap())),
            retries: 0,
            ..opts()
        },
    )
    .expect("unretried run");
    assert_eq!(status_of(&exhausted, 0), "error");
    assert_eq!(exhausted.records[0].get("retries"), Some(&Field::UInt(0)));

    // Deterministic failures never consume retries.
    let solver_fail = ExperimentSpec::parse_str(
        r#"
name = "solver-fail"
[grid]
problems = ["B1"]
solvers = ["cyclic"]
[config]
shots = 200
max_iters = 3
"#,
    )
    .unwrap();
    let report = execute(
        &solver_fail,
        &RunOptions {
            retries: 3,
            ..opts()
        },
    )
    .unwrap();
    assert_eq!(error_kind_of(&report, 0), Some("solver"));
    assert_eq!(report.records[0].get("retries"), Some(&Field::UInt(0)));
}

#[test]
fn injected_timeout_produces_a_structured_timeout_record() {
    let spec = spec();
    let report = execute(
        &spec,
        &RunOptions {
            faults: Some(Arc::new(FaultPlan::parse("timeout@1").unwrap())),
            ..opts()
        },
    )
    .expect("batch survives a timeout");
    assert_eq!(error_kind_of(&report, 1), Some("timeout"));
    for i in [0, 2, 3] {
        assert_eq!(status_of(&report, i), "ok", "cell {i}");
    }
}

#[test]
fn expired_cell_budget_times_every_cell_out_deterministically() {
    let spec = spec();
    let run = |workers: usize| {
        execute(
            &spec,
            &RunOptions {
                workers,
                cell_timeout: Some(Duration::from_nanos(1)),
                ..RunOptions::default()
            },
        )
        .expect("timed-out batch still reports")
    };
    let report = run(1);
    for i in 0..report.records.len() {
        assert_eq!(status_of(&report, i), "error", "cell {i}");
        assert_eq!(error_kind_of(&report, i), Some("timeout"), "cell {i}");
    }
    // The cooperative deadline trips at the first objective evaluation,
    // so even the degraded report is deterministic across worker counts.
    assert_eq!(report.to_json(), run(2).to_json());
}

/// A report's JSON without its `"engine"` lines: the one field that
/// differs between the compact and dense engines.
fn mask_engine(report: &RunReport) -> String {
    report
        .to_json()
        .lines()
        .filter(|line| !line.trim_start().starts_with("\"engine\":"))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn batched_cells_keep_panic_isolation_and_retry_semantics() {
    // The compact engine's batched replay runs inside the same
    // catch_unwind / retry / deadline envelope as the dense engine's
    // serial replay: an injected panic in a batched cell is isolated, a
    // transient one is retried, and the surviving cells land on the
    // serial run's results.
    let spec = spec();
    let batched = |faults: Option<Arc<FaultPlan>>, retries: u32| RunOptions {
        engine: Some(EngineKind::Compact),
        faults,
        retries,
        ..opts()
    };
    let serial = execute(
        &spec,
        &RunOptions {
            engine: Some(EngineKind::Dense),
            ..opts()
        },
    )
    .expect("clean serial run");

    let report = execute(
        &spec,
        &batched(Some(Arc::new(FaultPlan::parse("panic@0").unwrap())), 0),
    )
    .expect("batched run survives a panicking cell");
    assert_eq!(status_of(&report, 0), "error");
    assert_eq!(error_kind_of(&report, 0), Some("panic"));
    for i in 1..report.records.len() {
        assert_eq!(
            status_of(&report, i),
            "ok",
            "batched cell {i} must complete"
        );
        assert_eq!(
            report.records[i].get("success_rate"),
            serial.records[i].get("success_rate"),
            "batched cell {i} diverged after a sibling panic"
        );
    }

    // A transient fault consumes one retry and then reproduces the
    // serial result exactly.
    let retried = execute(
        &spec,
        &batched(Some(Arc::new(FaultPlan::parse("panic@0:1").unwrap())), 1),
    )
    .expect("retried batched run");
    assert_eq!(status_of(&retried, 0), "ok");
    assert_eq!(retried.records[0].get("retries"), Some(&Field::UInt(1)));
    assert_eq!(
        retried.records[0].get("success_rate"),
        serial.records[0].get("success_rate"),
        "retried batched cell must match the serial result"
    );

    // Without faults, the batched report is byte-identical to serial up
    // to the engine label.
    let fault_free = execute(&spec, &batched(None, 0)).expect("fault-free batched run");
    assert_eq!(mask_engine(&fault_free), mask_engine(&serial));
}

#[test]
fn batched_cells_honor_the_cell_timeout_deadline() {
    // An already-expired budget trips inside the batched objective's
    // chunk loop, producing the same degraded-but-deterministic report
    // as the dense engine's serial replay.
    let spec = spec();
    let run = |engine: EngineKind| {
        execute(
            &spec,
            &RunOptions {
                engine: Some(engine),
                cell_timeout: Some(Duration::from_nanos(1)),
                ..opts()
            },
        )
        .expect("timed-out run still reports")
    };
    let batched = run(EngineKind::Compact);
    for i in 0..batched.records.len() {
        assert_eq!(error_kind_of(&batched, i), Some("timeout"), "cell {i}");
    }
    assert_eq!(mask_engine(&batched), mask_engine(&run(EngineKind::Dense)));
}

#[test]
fn faulty_run_with_checkpoint_converges_on_clean_resume() {
    let dir = scratch("converge");
    let spec = spec();
    let path = dir.join("faulty.jsonl");
    let base = RunOptions {
        checkpoint: Some(path.to_string_lossy().into_owned()),
        ..opts()
    };
    let faulty = execute(
        &spec,
        &RunOptions {
            faults: Some(Arc::new(FaultPlan::parse("panic@2").unwrap())),
            ..base.clone()
        },
    )
    .expect("faulty run completes degraded");
    assert_eq!(status_of(&faulty, 2), "error");

    // Error records are not completions: a healthy resume re-executes
    // exactly the failed cell and lands on the clean report bytes.
    let resumed = execute(
        &spec,
        &RunOptions {
            resume: true,
            ..base
        },
    )
    .expect("clean resume");
    let clean = execute(&spec, &opts()).expect("clean");
    assert_eq!(resumed.to_json(), clean.to_json());
    assert_eq!(resumed.to_csv(), clean.to_csv());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn delay_injection_perturbs_scheduling_without_changing_bytes() {
    let spec = spec();
    let clean = execute(&spec, &opts()).expect("clean");
    let delayed = execute(
        &spec,
        &RunOptions {
            workers: 4,
            faults: Some(Arc::new(FaultPlan::parse("delay@0:50").unwrap())),
            ..RunOptions::default()
        },
    )
    .expect("delayed run");
    assert_eq!(clean.to_json(), delayed.to_json());
}

/// A `Write` sink a test can read back after an in-process daemon exits.
#[derive(Clone, Default)]
struct SharedBuf(Arc<std::sync::Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn serve_opts(state_dir: PathBuf, workers: usize, faults: &str) -> ServeOptions {
    ServeOptions {
        state_dir,
        run: RunOptions {
            workers,
            faults: Some(Arc::new(FaultPlan::parse(faults).unwrap())),
            ..RunOptions::default()
        },
        ..ServeOptions::default()
    }
}

/// Chaos-tested supervision: `kill@` panics escape the per-cell
/// isolation (by design — they fire *outside* the attempt envelope), so
/// each one costs a worker its workspaces and exercises the supervisor's
/// replace-and-requeue path. The healed report must be byte-identical to
/// a clean `choco-cli run`, with the restarts visible in `stats`.
#[test]
fn serve_supervisor_heals_killed_workers_byte_identically() {
    let spec = spec();
    let clean = execute(&spec, &opts()).expect("clean run").to_json();
    let serve_opts = serve_opts(
        scratch("serve_kill").join("state"),
        2,
        "kill@0:2,delay@1:50",
    );
    let (req_read, req_write) = std::io::pipe().expect("request pipe");
    let (event_read, event_write) = std::io::pipe().expect("event pipe");
    let stats_line = std::thread::scope(|scope| {
        scope.spawn(|| {
            serve(&serve_opts, BufReader::new(req_read), event_write).expect("serve session");
        });
        let mut requests = req_write;
        let mut events = BufReader::new(event_read).lines();
        let mut next = |kind: &str| -> String {
            let needle = format!("\"event\": \"{kind}\"");
            loop {
                let line = events
                    .next()
                    .expect("daemon closed its event stream")
                    .expect("event line");
                if line.contains(&needle) {
                    return line;
                }
            }
        };
        next("ready");
        let spec_file = serve_opts.state_dir.parent().unwrap().join("spec.toml");
        std::fs::write(&spec_file, SPEC).expect("write spec");
        requests
            .write_all(
                format!(
                    "{{\"op\": \"submit\", \"spec_path\": \"{}\"}}\n",
                    spec_file.display()
                )
                .as_bytes(),
            )
            .expect("submit");
        let done = next("done");
        assert!(done.contains("\"errors\": 0"), "{done}");
        requests.write_all(b"{\"op\": \"stats\"}\n").expect("stats");
        let stats = next("stats");
        requests
            .write_all(b"{\"op\": \"shutdown\"}\n")
            .expect("shutdown");
        next("shutdown");
        drop(requests);
        stats
    });
    // Both scheduled kills consumed exactly one worker restart each.
    let restarts_at = stats_line
        .find("\"worker_restarts\": [")
        .expect("worker_restarts in stats");
    let restarts: u32 = stats_line[restarts_at..]
        .chars()
        .take_while(|c| *c != ']')
        .filter(|c| c.is_ascii_digit())
        .map(|c| c.to_digit(10).unwrap())
        .sum();
    assert_eq!(restarts, 2, "{stats_line}");
    let report =
        std::fs::read_to_string(serve_opts.state_dir.join("ft.json")).expect("healed serve report");
    assert_eq!(
        report, clean,
        "a chaos-killed serve run must heal to the clean report bytes"
    );
    // Requeues after a worker kill are not retries: the records must not
    // carry a retry count (that would break byte-identity, and it would
    // misreport what happened — the attempt never started).
    assert!(!report.contains("\"retries\": 1"), "kill must not retry");
}

/// A cell that kills its worker every time must not loop forever: the
/// supervisor stops requeueing at the crash limit and commits a
/// structured `panic` record, so the job still finishes with a report
/// and the daemon exits cleanly.
#[test]
fn repeatedly_killed_cell_becomes_a_structured_record() {
    let spec_text = SPEC;
    let serve_opts = serve_opts(scratch("serve_crashloop").join("state"), 1, "kill@0");
    let dir = serve_opts.state_dir.parent().unwrap().to_path_buf();
    let spec_file = dir.join("spec.toml");
    std::fs::write(&spec_file, spec_text).expect("write spec");
    let buf = SharedBuf::default();
    serve(
        &serve_opts,
        std::io::Cursor::new(format!(
            "{{\"op\": \"submit\", \"spec_path\": \"{}\"}}\n",
            spec_file.display()
        )),
        buf.clone(),
    )
    .expect("daemon must survive a crash-looping cell");
    let events = String::from_utf8(buf.0.lock().unwrap().clone()).expect("utf-8 events");
    let terminal: Vec<&str> = events
        .lines()
        .filter(|e| e.contains("\"event\": \"record\"") && e.contains("\"error_kind\": \"panic\""))
        .collect();
    assert_eq!(terminal.len(), 1, "{events}");
    assert!(
        terminal[0].contains("crashed its worker 3 times"),
        "{terminal:?}"
    );
    assert!(
        events.contains("\"event\": \"done\"") && events.contains("\"errors\": 1"),
        "{events}"
    );
    // The other three cells match a clean run: crash-looping one cell
    // never perturbs its siblings. The degraded report differs from the
    // clean one only in cell 0's error record and the summary, so each
    // surviving cell's success rate must appear verbatim.
    let report =
        std::fs::read_to_string(serve_opts.state_dir.join("ft.json")).expect("degraded report");
    let clean = execute(&spec(), &opts()).expect("clean");
    for i in 1..clean.records.len() {
        if let Some(Field::Float(rate)) = clean.records[i].get("success_rate") {
            assert!(
                report.contains(&format!("{rate}")),
                "cell {i} success_rate missing from degraded report"
            );
        }
    }
}

/// `kill@` directives reach plain runs too: `execute` schedules its
/// cells on the supervised pool, so a cell killed twice heals to its
/// clean record, and a cell that keeps killing its worker becomes the
/// structured `panic` record the daemon commits at the crash limit. The
/// run's report equals the daemon's for the same spec and directives.
#[test]
fn run_supervisor_heals_kills_like_serve() {
    let faults = "kill@0:2,kill@2:5";
    let spec = spec();
    let clean = execute(&spec, &opts()).expect("clean");
    let run = execute(
        &spec,
        &RunOptions {
            faults: Some(Arc::new(FaultPlan::parse(faults).unwrap())),
            ..opts()
        },
    )
    .expect("a supervised run survives worker kills");
    for i in [0, 1, 3] {
        assert_eq!(
            run.records[i].fields(),
            clean.records[i].fields(),
            "cell {i}"
        );
    }
    assert_eq!(error_kind_of(&run, 2), Some("panic"));
    match run.records[2].get("error") {
        Some(Field::Str(detail)) => {
            assert!(detail.contains("crashed its worker 3 times"), "{detail}")
        }
        other => panic!("cell 2 has no error detail: {other:?}"),
    }

    let serve_opts = serve_opts(scratch("run_kill").join("state"), 1, faults);
    let spec_file = serve_opts.state_dir.parent().unwrap().join("spec.toml");
    std::fs::write(&spec_file, SPEC).expect("write spec");
    serve(
        &serve_opts,
        std::io::Cursor::new(format!(
            "{{\"op\": \"submit\", \"spec_path\": \"{}\"}}\n",
            spec_file.display()
        )),
        SharedBuf::default(),
    )
    .expect("serve session");
    let served =
        std::fs::read_to_string(serve_opts.state_dir.join("ft.json")).expect("serve report");
    assert_eq!(run.to_json(), served);
}
