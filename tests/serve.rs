//! `choco-serve` integration tests: byte-identity with `choco-cli run`
//! at any worker count, kill/abort-and-resume, admission control
//! (oversized jobs, queue caps, duplicates, malformed requests), and
//! cross-request plan-cache sharing observed through the `stats` op.

use choco_q::prelude::*;
use choco_q::qsim::EngineKind;
use choco_q::runner::serve::{serve, ServeOptions};
use choco_q::runner::{build_instances, execute, FaultPlan};
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, OnceLock};

/// Four fast cells (2 solvers × 2 seeds), same shape as the
/// fault-tolerance suite.
const SPEC: &str = r#"
name = "serve-grid"
description = "serve integration grid"

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

/// A unique, empty scratch directory per test.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("choco_serve_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// A `Write` sink the test can read back after the daemon exits.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Runs one stdin/stdout daemon session to completion (EOF drains all
/// jobs) and returns the emitted event lines. The input may hold bytes
/// that are not UTF-8.
fn run_session(opts: &ServeOptions, input: &(impl AsRef<[u8]> + ?Sized)) -> Vec<String> {
    let buf = SharedBuf::default();
    let input = std::io::Cursor::new(input.as_ref().to_vec());
    serve(opts, input, buf.clone()).expect("serve session");
    let bytes = buf.0.lock().unwrap().clone();
    String::from_utf8(bytes)
        .expect("utf-8 events")
        .lines()
        .map(str::to_string)
        .collect()
}

fn serve_opts(state_dir: PathBuf, workers: usize) -> ServeOptions {
    ServeOptions {
        state_dir,
        queue_cap: 256,
        run: RunOptions {
            workers,
            ..RunOptions::default()
        },
        ..ServeOptions::default()
    }
}

fn count_events(events: &[String], kind: &str) -> usize {
    let needle = format!("\"event\": \"{kind}\"");
    events.iter().filter(|e| e.contains(&needle)).count()
}

#[test]
fn serve_report_is_byte_identical_to_run_at_any_worker_count() {
    let spec = ExperimentSpec::parse_str(SPEC).expect("spec");
    let baseline = execute(&spec, &RunOptions::default())
        .expect("baseline run")
        .to_json();
    for workers in [1usize, 2, 4] {
        let dir = scratch(&format!("bytes_w{workers}"));
        let spec_file = dir.join("spec.toml");
        std::fs::write(&spec_file, SPEC).expect("write spec");
        let opts = serve_opts(dir.join("state"), workers);
        let input = format!(
            "{{\"op\": \"submit\", \"spec_path\": \"{}\"}}\n",
            spec_file.display()
        );
        let events = run_session(&opts, &input);
        assert_eq!(count_events(&events, "accepted"), 1, "{events:?}");
        assert_eq!(count_events(&events, "record"), 4, "{events:?}");
        assert_eq!(count_events(&events, "done"), 1, "{events:?}");
        let report =
            std::fs::read_to_string(opts.state_dir.join("serve-grid.json")).expect("daemon report");
        assert_eq!(
            report, baseline,
            "serve report at {workers} workers must be byte-identical to choco-cli run"
        );
        assert!(opts.state_dir.join("serve-grid.done").exists());
    }
}

#[test]
fn resume_completes_a_partial_journal_with_an_identical_report() {
    // Full reference run to harvest a complete journal.
    let full_dir = scratch("resume_full");
    let spec_file = full_dir.join("spec.toml");
    std::fs::write(&spec_file, SPEC).expect("write spec");
    let full_opts = serve_opts(full_dir.join("state"), 1);
    run_session(
        &full_opts,
        &format!(
            "{{\"op\": \"submit\", \"spec_path\": \"{}\"}}\n",
            spec_file.display()
        ),
    );
    let full_report =
        std::fs::read_to_string(full_opts.state_dir.join("serve-grid.json")).expect("full report");
    let journal = std::fs::read_to_string(full_opts.state_dir.join("serve-grid.journal"))
        .expect("full journal");
    let lines: Vec<&str> = journal.lines().collect();
    assert_eq!(lines.len(), 5, "header + 4 cells");

    // A killed daemon's state: the spec, a journal holding the header +
    // 2 completed cells, and a torn trailing line (the ≤1-line loss the
    // journal guarantees).
    let partial_opts = serve_opts(scratch("resume_partial").join("state"), 2);
    std::fs::create_dir_all(&partial_opts.state_dir).expect("state dir");
    std::fs::write(partial_opts.state_dir.join("serve-grid.spec.toml"), SPEC)
        .expect("persist spec");
    let torn = format!(
        "{}\n{}\n{}\n{{\"index\": 2, \"dur",
        lines[0], lines[1], lines[2]
    );
    std::fs::write(partial_opts.state_dir.join("serve-grid.journal"), torn).expect("torn journal");

    // Empty input: the daemon resumes at startup, re-runs the missing
    // cells, drains, and exits.
    let events = run_session(&partial_opts, "");
    assert!(
        events
            .iter()
            .any(|e| e.contains("\"resumed\": [\"serve-grid\"]")),
        "{events:?}"
    );
    assert_eq!(count_events(&events, "record"), 2, "{events:?}");
    assert_eq!(count_events(&events, "done"), 1, "{events:?}");
    let resumed_report = std::fs::read_to_string(partial_opts.state_dir.join("serve-grid.json"))
        .expect("resumed report");
    assert_eq!(
        resumed_report, full_report,
        "resume must reproduce the uninterrupted report byte for byte"
    );
}

#[test]
fn oversized_jobs_are_rejected_at_admission_with_guidance() {
    // flp:4x4 → 36 variables: beyond every engine's register limit, but
    // well within what the generator itself can build.
    let opts = serve_opts(scratch("oversized").join("state"), 1);
    let input = r#"{"op": "submit", "job": {"name": "big", "problems": ["flp:4x4"], "solvers": ["choco-q"], "seeds": [1]}}
"#;
    let events = run_session(&opts, input);
    let rejected: Vec<&String> = events
        .iter()
        .filter(|e| e.contains("\"event\": \"rejected\""))
        .collect();
    assert_eq!(rejected.len(), 1, "{events:?}");
    assert!(
        rejected[0].contains("\"kind\": \"too_large\""),
        "{rejected:?}"
    );
    assert!(rejected[0].contains("flp:4x4"), "{rejected:?}");
    // Rejections leave no state behind.
    assert!(!opts.state_dir.join("big.spec.toml").exists());
    assert!(!opts.state_dir.join("big.journal").exists());
}

/// The position of each event of `kind` for `job` in `events`.
fn positions(events: &[String], kind: &str, job: &str) -> Vec<usize> {
    let (kind, job) = (
        format!("\"event\": \"{kind}\""),
        format!("\"job\": \"{job}\""),
    );
    (events.iter().enumerate())
        .filter(|(_, e)| e.contains(&kind) && e.contains(&job))
        .map(|(i, _)| i)
        .collect()
}

#[test]
fn job_events_arrive_in_order_and_shutdown_comes_last() {
    // A job whose problem is past the 63-variable limit is a spec error,
    // and the session goes on to run the valid jobs beside it.
    let jobs = [
        (
            "f1",
            r#""problems": ["F1"], "solvers": ["choco-q"], "shots": 200, "max_iters": 2"#,
        ),
        (
            "wide",
            r#""problems": ["kpp:40x10x2"], "solvers": ["choco-q"]"#,
        ),
        (
            "cover",
            r#""problems": ["cover:6x28"], "solvers": ["penalty"], "shots": 50, "max_iters": 1"#,
        ),
        (
            "grid",
            r#""problems": ["F1"], "solvers": ["choco-q", "cyclic"], "seeds": [1, 2], "shots": 100, "max_iters": 2"#,
        ),
    ];
    for workers in [1, 2] {
        let opts = serve_opts(scratch(&format!("order_w{workers}")).join("state"), workers);
        let input: String = (jobs.iter())
            .map(|(name, body)| {
                format!("{{\"op\": \"submit\", \"job\": {{\"name\": \"{name}\", {body}, \"restarts\": 1}}}}\n")
            })
            .collect();
        let events = run_session(&opts, &input);
        assert_eq!(count_events(&events, "rejected"), 1, "{events:?}");
        let rejected = events.iter().find(|e| e.contains("rejected")).unwrap();
        assert!(rejected.contains("\"kind\": \"spec_error\""), "{rejected}");
        assert!(rejected.contains("kpp:40x10x2"), "{rejected}");
        for job in ["f1", "cover", "grid"] {
            let accepted = positions(&events, "accepted", job);
            let done = positions(&events, "done", job);
            assert!(accepted.len() == 1 && done.len() == 1, "{job}: {events:?}");
            let records = positions(&events, "record", job);
            assert!(!records.is_empty(), "{job}: {events:?}");
            for record in records {
                assert!(
                    accepted[0] < record && record < done[0],
                    "{job} at {workers} workers: {events:?}"
                );
            }
        }
        let last = events.last().expect("events");
        assert!(last.contains("\"event\": \"shutdown\""), "{events:?}");
        assert_eq!(count_events(&events, "shutdown"), 1, "{events:?}");
    }
}

#[test]
fn admission_rejects_overflow_duplicates_and_malformed_requests() {
    // Queue cap below the job's cell count: structured queue_full.
    let mut opts = serve_opts(scratch("admission").join("state"), 1);
    opts.queue_cap = 2;
    let spec_file = opts.state_dir.parent().unwrap().join("spec.toml");
    std::fs::write(&spec_file, SPEC).expect("write spec");
    let submit = format!(
        "{{\"op\": \"submit\", \"spec_path\": \"{}\"}}\n",
        spec_file.display()
    );
    let events = run_session(&opts, &submit);
    assert!(
        events
            .iter()
            .any(|e| e.contains("\"kind\": \"queue_full\"")),
        "{events:?}"
    );

    // Malformed requests are error events, never crashes (a line that is
    // not UTF-8 too, and the session goes on); a duplicate submission of
    // an accepted job is rejected.
    let opts = serve_opts(scratch("admission2").join("state"), 2);
    let quick_job = r#"{"op": "submit", "job": {"name": "dup", "problems": ["F1"], "solvers": ["choco-q"], "seeds": [1], "shots": 200, "max_iters": 2, "restarts": 1}}"#;
    let text = format!(
        "this is not json\n\
         {{\"op\": \"frobnicate\"}}\n\
         {{\"op\": \"submit\"}}\n\
         {{\"op\": \"submit\", \"id\": \"bad/id\", \"job\": {{\"name\": \"x\", \"problems\": [\"F1\"]}}}}\n\
         {{\"op\": \"submit\", \"job\": {{\"name\": \"t\", \"problems\": [\"F1\"], \"shotss\": 1}}}}\n\
         {quick_job}\n\
         {quick_job}\n"
    );
    let mut input = b"{\"op\": \"submit\", \"id\": \"\xff\"}\n".to_vec();
    input.extend_from_slice(text.as_bytes());
    let events = run_session(&opts, &input);
    assert!(count_events(&events, "error") >= 3, "{events:?}");
    assert!(
        events.iter().any(|e| e.contains("not valid UTF-8")),
        "{events:?}"
    );
    assert!(
        events.iter().any(|e| e.contains("bad request line")),
        "{events:?}"
    );
    assert!(
        events.iter().any(|e| e.contains("unknown op `frobnicate`")),
        "{events:?}"
    );
    assert!(
        events
            .iter()
            .any(|e| e.contains("exactly one of `spec_path`, `spec_toml`, or `job`")),
        "{events:?}"
    );
    assert!(
        events
            .iter()
            .any(|e| e.contains("\"kind\": \"bad_request\"") && e.contains("bad/id")),
        "{events:?}"
    );
    assert!(events.iter().any(|e| e.contains("shotss")), "{events:?}");
    assert_eq!(count_events(&events, "accepted"), 1, "{events:?}");
    assert!(
        events.iter().any(|e| e.contains("\"kind\": \"duplicate\"")),
        "{events:?}"
    );
    assert_eq!(count_events(&events, "done"), 1, "{events:?}");
}

/// Extracts the first `"key": <integer>` occurrence from an event line.
fn int_field(line: &str, key: &str) -> u64 {
    let needle = format!("\"{key}\": ");
    let at = line
        .find(&needle)
        .unwrap_or_else(|| panic!("{key} in {line}"));
    line[at + needle.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("integer field")
}

#[test]
fn plan_cache_is_shared_across_requests() {
    // Interactive session over OS pipes: submit a compact-engine job,
    // wait for it, read the cache stats, then submit a second job of
    // the same shape and assert it compiled nothing new. A third job on
    // the dense engine adds the second and last cache.
    let opts = ServeOptions {
        state_dir: scratch("cache").join("state"),
        queue_cap: 64,
        run: RunOptions {
            workers: 1,
            ..RunOptions::default()
        },
        ..ServeOptions::default()
    };
    let (req_read, req_write) = std::io::pipe().expect("request pipe");
    let (event_read, event_write) = std::io::pipe().expect("event pipe");
    std::thread::scope(|scope| {
        scope.spawn(|| {
            serve(&opts, BufReader::new(req_read), event_write).expect("serve session");
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
        let job = |name: &str, engine: &str| {
            format!(
                "{{\"op\": \"submit\", \"job\": {{\"name\": \"{name}\", \"problems\": [\"F1\"], \
                 \"solvers\": [\"choco-q\"], \"seeds\": [1], \"shots\": 300, \"max_iters\": 4, \
                 \"restarts\": 1, \"engine\": \"{engine}\"}}}}\n"
            )
        };
        next("ready");
        requests
            .write_all(job("cold", "compact").as_bytes())
            .expect("submit cold");
        next("done");
        requests
            .write_all(b"{\"op\": \"stats\"}\n")
            .expect("stats 1");
        let cold = next("stats");
        assert!(cold.contains("\"engine\": \"compact\""), "{cold}");
        let cold_compilations = int_field(&cold, "compilations");
        let cold_hits = int_field(&cold, "hits");
        assert!(cold_compilations > 0, "{cold}");
        assert_eq!(
            int_field(&cold, "refusals"),
            0,
            "choco-q plans compile: {cold}"
        );

        requests
            .write_all(job("warm", "compact").as_bytes())
            .expect("submit warm");
        next("done");
        requests
            .write_all(b"{\"op\": \"stats\"}\n")
            .expect("stats 2");
        let warm = next("stats");
        let warm_compilations = int_field(&warm, "compilations");
        let warm_hits = int_field(&warm, "hits");
        assert_eq!(
            warm_compilations, cold_compilations,
            "an identically-shaped job must compile zero new plans: {warm}"
        );
        assert!(warm_hits > cold_hits, "cold {cold} vs warm {warm}");
        // The caches are keyed by the engine configuration alone: the
        // two jobs share one compact cache, and a dense job adds exactly
        // one more.
        assert_eq!(warm.matches("\"engine\": ").count(), 1, "{warm}");
        requests
            .write_all(job("dense", "dense").as_bytes())
            .expect("submit dense");
        next("done");
        requests
            .write_all(b"{\"op\": \"stats\"}\n")
            .expect("stats 3");
        let both = next("stats");
        for engine in ["compact", "dense"] {
            let label = format!("\"engine\": \"{engine}\"");
            assert_eq!(both.matches(&label).count(), 1, "{both}");
        }

        requests
            .write_all(b"{\"op\": \"shutdown\"}\n")
            .expect("shutdown");
        next("shutdown");
        drop(requests);
    });
    // Both jobs produced identical reports (same grid, different name is
    // only in the header fields).
    let cold_report =
        std::fs::read_to_string(opts.state_dir.join("cold.json")).expect("cold report");
    let warm_report =
        std::fs::read_to_string(opts.state_dir.join("warm.json")).expect("warm report");
    assert_eq!(
        cold_report.replace("\"cold\"", "\"X\""),
        warm_report.replace("\"warm\"", "\"X\""),
        "cache reuse must not change results"
    );
}

#[test]
fn killed_daemon_resumes_and_reproduces_the_report() {
    let exe = env!("CARGO_BIN_EXE_choco-cli");
    let dir = scratch("kill");
    let state = dir.join("state");
    let spec_file = dir.join("spec.toml");
    std::fs::write(&spec_file, SPEC).expect("write spec");
    let baseline = execute(
        &ExperimentSpec::parse_str(SPEC).expect("spec"),
        &RunOptions::default(),
    )
    .expect("baseline run")
    .to_json();

    // Session 1: submit, wait for the first streamed record, SIGKILL.
    let mut child = std::process::Command::new(exe)
        .args(["serve", "--state-dir"])
        .arg(&state)
        .args(["--workers", "1"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn daemon");
    child
        .stdin
        .as_mut()
        .expect("stdin")
        .write_all(
            format!(
                "{{\"op\": \"submit\", \"spec_path\": \"{}\"}}\n",
                spec_file.display()
            )
            .as_bytes(),
        )
        .expect("submit");
    let stdout = BufReader::new(child.stdout.take().expect("stdout"));
    for line in stdout.lines() {
        let line = line.expect("daemon event");
        if line.contains("\"event\": \"record\"") {
            break;
        }
    }
    child.kill().expect("SIGKILL");
    child.wait().expect("reap");

    // Session 2: empty stdin — resume, drain, exit.
    let status = std::process::Command::new(exe)
        .args(["serve", "--state-dir"])
        .arg(&state)
        .args(["--workers", "2"])
        .stdin(std::process::Stdio::null())
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .expect("restart daemon");
    assert!(status.success(), "resume session failed: {status}");
    let report =
        std::fs::read_to_string(state.join("serve-grid.json")).expect("report after resume");
    assert_eq!(
        report, baseline,
        "kill-and-resume must reproduce the uninterrupted report byte for byte"
    );
}

#[test]
fn cancel_drains_cells_cooperatively_and_still_finalizes() {
    // A delay fault pins the single worker on cell 0 long enough for the
    // cancel (the very next request line) to land first: cell 0 exits
    // mid-solve at its next objective evaluation, the queued cells drain
    // via the fast path, and both paths produce the same record.
    let mut opts = serve_opts(scratch("cancel").join("state"), 1);
    opts.run.faults = Some(Arc::new(FaultPlan::parse("delay@0:300").unwrap()));
    let dir = opts.state_dir.parent().unwrap().to_path_buf();
    let spec_file = dir.join("spec.toml");
    std::fs::write(&spec_file, SPEC).expect("write spec");
    let input = format!(
        "{{\"op\": \"submit\", \"spec_path\": \"{}\"}}\n\
         {{\"op\": \"cancel\", \"id\": \"serve-grid\"}}\n\
         {{\"op\": \"cancel\"}}\n",
        spec_file.display()
    );
    let events = run_session(&opts, &input);
    let cancelled: Vec<&String> = events
        .iter()
        .filter(|e| e.contains("\"event\": \"cancelled\""))
        .collect();
    assert_eq!(cancelled.len(), 1, "{events:?}");
    assert!(
        cancelled[0].contains("\"active\": true")
            && cancelled[0].contains("\"done\": false")
            && cancelled[0].contains("\"known\": true"),
        "{cancelled:?}"
    );
    assert!(
        events
            .iter()
            .any(|e| e.contains("cancel needs a string `id`")),
        "{events:?}"
    );
    let records: Vec<&String> = events
        .iter()
        .filter(|e| e.contains("\"event\": \"record\""))
        .collect();
    assert_eq!(records.len(), 4, "{events:?}");
    for record in &records {
        assert!(
            record.contains("\"error_kind\": \"cancelled\"") && record.contains("job cancelled"),
            "cancelled cells must land as structured records: {record}"
        );
    }
    // The job still finalizes: degraded report + `.done`, so the state
    // dir does not accumulate zombies.
    assert_eq!(count_events(&events, "done"), 1, "{events:?}");
    assert!(opts.state_dir.join("serve-grid.done").exists());

    // Cancel after completion (fresh session over the same state dir):
    // idempotent no-op, reported as done.
    let events = run_session(&opts, "{\"op\": \"cancel\", \"id\": \"serve-grid\"}\n");
    assert!(
        events.iter().any(|e| e.contains("\"event\": \"cancelled\"")
            && e.contains("\"active\": false")
            && e.contains("\"done\": true")
            && e.contains("\"known\": true")),
        "{events:?}"
    );

    // Cancel before any submission: unknown id, all three flags false.
    let opts = serve_opts(scratch("cancel_unknown").join("state"), 1);
    let events = run_session(&opts, "{\"op\": \"cancel\", \"id\": \"ghost\"}\n");
    assert!(
        events.iter().any(|e| e.contains("\"event\": \"cancelled\"")
            && e.contains("\"active\": false")
            && e.contains("\"done\": false")
            && e.contains("\"known\": false")),
        "{events:?}"
    );

    // A job that finished failed/aborted never writes `.done` but leaves
    // its journal behind; `known: true` tells it apart from a ghost id.
    // (A journal without a spec is exactly that residue — resume skips
    // it, so it is inert state, not an active job.)
    let opts = serve_opts(scratch("cancel_failed").join("state"), 1);
    std::fs::create_dir_all(&opts.state_dir).expect("state dir");
    std::fs::write(opts.state_dir.join("wrecked.journal"), b"").expect("journal residue");
    let events = run_session(&opts, "{\"op\": \"cancel\", \"id\": \"wrecked\"}\n");
    assert!(
        events.iter().any(|e| e.contains("\"event\": \"cancelled\"")
            && e.contains("\"active\": false")
            && e.contains("\"done\": false")
            && e.contains("\"known\": true")),
        "{events:?}"
    );
}

#[test]
fn per_job_knobs_override_daemon_settings() {
    // An (effectively) already-expired job deadline: every cell lands as
    // a structured timeout, and the job still finalizes with a report.
    let opts = serve_opts(scratch("knob_deadline").join("state"), 2);
    let dir = opts.state_dir.parent().unwrap().to_path_buf();
    let spec_file = dir.join("spec.toml");
    std::fs::write(&spec_file, SPEC).expect("write spec");
    let input = format!(
        "{{\"op\": \"submit\", \"spec_path\": \"{}\", \"deadline_secs\": 0.000001}}\n",
        spec_file.display()
    );
    let events = run_session(&opts, &input);
    let records: Vec<&String> = events
        .iter()
        .filter(|e| e.contains("\"event\": \"record\""))
        .collect();
    assert_eq!(records.len(), 4, "{events:?}");
    for record in &records {
        assert!(
            record.contains("\"error_kind\": \"timeout\""),
            "an expired job deadline must produce timeout records: {record}"
        );
    }
    assert_eq!(count_events(&events, "done"), 1, "{events:?}");

    // A per-job retry budget heals a transient fault the daemon-wide
    // settings (retries = 0) would surface as an error.
    let mut opts = serve_opts(scratch("knob_retries").join("state"), 1);
    opts.run.faults = Some(Arc::new(FaultPlan::parse("panic@0:1").unwrap()));
    let input = format!(
        "{{\"op\": \"submit\", \"spec_path\": \"{}\", \"retries\": 1}}\n",
        spec_file.display()
    );
    let events = run_session(&opts, &input);
    assert_eq!(count_events(&events, "done"), 1, "{events:?}");
    let report =
        std::fs::read_to_string(opts.state_dir.join("serve-grid.json")).expect("healed report");
    assert!(
        !report.contains("\"status\": \"error\""),
        "the per-job retry budget must heal the injected panic"
    );
    assert!(report.contains("\"retries\": 1"), "retry must be counted");

    // A malformed knob is a structured rejection naming the key, and
    // leaves no state behind.
    let opts = serve_opts(scratch("knob_bad").join("state"), 1);
    let input = format!(
        "{{\"op\": \"submit\", \"spec_path\": \"{}\", \"deadline_secs\": \"soon\"}}\n",
        spec_file.display()
    );
    let events = run_session(&opts, &input);
    assert!(
        events
            .iter()
            .any(|e| e.contains("\"kind\": \"bad_request\"") && e.contains("deadline_secs")),
        "{events:?}"
    );
    assert!(!opts.state_dir.join("serve-grid.spec.toml").exists());
    assert!(!opts.state_dir.join("serve-grid.journal").exists());

    // Out-of-range second counts are the same structured rejection:
    // 1e300 would overflow `Duration::from_secs_f64`, 1e19 would
    // overflow `Instant + Duration` — either panic would land on the
    // control thread and wedge the worker pool. The follow-up submit
    // proves the daemon survived and kept serving.
    for (case, key, bad) in [
        ("dur_overflow", "deadline_secs", "1e300"),
        ("instant_overflow", "deadline_secs", "1e19"),
        ("cell_overflow", "cell_timeout", "1e300"),
        ("negative", "cell_timeout", "-4"),
    ] {
        let opts = serve_opts(scratch(&format!("knob_range_{case}")).join("state"), 1);
        let input = format!(
            "{{\"op\": \"submit\", \"spec_path\": \"{spec}\", \"{key}\": {bad}}}\n\
             {{\"op\": \"submit\", \"spec_path\": \"{spec}\"}}\n",
            spec = spec_file.display()
        );
        let events = run_session(&opts, &input);
        assert!(
            events
                .iter()
                .any(|e| e.contains("\"kind\": \"bad_request\"") && e.contains(key)),
            "{key}={bad}: {events:?}"
        );
        assert_eq!(count_events(&events, "done"), 1, "{key}={bad}: {events:?}");
    }
}

#[test]
fn mem_budget_admission_has_an_exact_boundary() {
    // Pinned to the dense engine, the spec's cells are all full-register
    // estimates: 2^n × 40 bytes per worker (amplitude, cost table, cached
    // diagonal and sampling table). Compute the exact requirement and
    // probe one byte below (rejected) and at it (accepted).
    let dense_spec = SPEC.replace("[grid]\n", "[grid]\nengine = \"dense\"\n");
    let spec = ExperimentSpec::parse_str(&dense_spec).expect("spec");
    assert_eq!(spec.engine, Some(EngineKind::Dense));
    let cells = spec.expand_cells(false);
    let instances = build_instances(&cells).expect("instances");
    let n = instances
        .values()
        .next()
        .expect("instance")
        .problem
        .n_vars() as u32;
    let per_worker = 40u64 << n;
    let workers = 2usize;
    let required = per_worker * workers as u64;

    let submit = |opts: &ServeOptions| {
        let dir = opts.state_dir.parent().unwrap().to_path_buf();
        let spec_file = dir.join("spec.toml");
        std::fs::write(&spec_file, &dense_spec).expect("write spec");
        run_session(
            opts,
            &format!(
                "{{\"op\": \"submit\", \"spec_path\": \"{}\"}}\n",
                spec_file.display()
            ),
        )
    };

    let mut tight = serve_opts(scratch("mem_tight").join("state"), workers);
    tight.mem_budget = Some(required - 1);
    let events = submit(&tight);
    let rejected: Vec<&String> = events
        .iter()
        .filter(|e| e.contains("\"event\": \"rejected\""))
        .collect();
    assert_eq!(rejected.len(), 1, "{events:?}");
    assert!(
        rejected[0].contains("\"kind\": \"too_large\"")
            && rejected[0].contains("--mem-budget")
            && rejected[0].contains("workers"),
        "{rejected:?}"
    );
    // Rejections leave no state behind.
    assert!(!tight.state_dir.join("serve-grid.spec.toml").exists());
    assert!(!tight.state_dir.join("serve-grid.journal").exists());

    let mut exact = serve_opts(scratch("mem_exact").join("state"), workers);
    exact.mem_budget = Some(required);
    let events = submit(&exact);
    assert_eq!(count_events(&events, "accepted"), 1, "{events:?}");
    assert_eq!(count_events(&events, "done"), 1, "{events:?}");
    assert!(exact.state_dir.join("serve-grid.done").exists());
}

#[test]
fn jobs_default_to_compact_and_retired_engines_are_rejected() {
    // A job that names no engine runs on the compact default; one that
    // names a retired selection is a structured rejection listing the
    // accepted values, and the daemon keeps serving the next job.
    let opts = serve_opts(scratch("engine_default").join("state"), 1);
    let job = |name: &str, engine: &str| {
        format!(
            "{{\"op\": \"submit\", \"job\": {{\"name\": \"{name}\", \"problems\": [\"F1\"], \
             \"solvers\": [\"choco-q\"], \"seeds\": [1], \"shots\": 200, \"max_iters\": 2, \
             \"restarts\": 1{engine}}}}}\n"
        )
    };
    let input = [
        job("old-sparse", ", \"engine\": \"sparse\""),
        job("old-auto", ", \"engine\": \"auto\""),
        job("default", ""),
    ]
    .concat();
    let events = run_session(&opts, &input);
    for retired in ["sparse", "auto"] {
        assert!(
            events.iter().any(|e| e.contains("\"event\": \"rejected\"")
                && e.contains(&format!("unknown engine `{retired}`"))
                && e.contains("dense|compact")),
            "{retired}: {events:?}"
        );
    }
    assert_eq!(count_events(&events, "rejected"), 2, "{events:?}");
    assert_eq!(count_events(&events, "accepted"), 1, "{events:?}");
    assert_eq!(count_events(&events, "done"), 1, "{events:?}");
    let record = events
        .iter()
        .find(|e| e.contains("\"event\": \"record\""))
        .expect("record event");
    assert!(record.contains("\"engine\": \"compact\""), "{record}");
}

#[test]
fn health_reports_pool_and_state_dir_vitals() {
    let opts = serve_opts(scratch("health").join("state"), 2);
    let dir = opts.state_dir.parent().unwrap().to_path_buf();
    let spec_file = dir.join("spec.toml");
    std::fs::write(&spec_file, SPEC).expect("write spec");
    let input = format!(
        "{{\"op\": \"submit\", \"spec_path\": \"{}\"}}\n\
         {{\"op\": \"health\"}}\n\
         {{\"op\": \"stats\"}}\n",
        spec_file.display()
    );
    let events = run_session(&opts, &input);
    let health: Vec<&String> = events
        .iter()
        .filter(|e| e.contains("\"event\": \"health\""))
        .collect();
    assert_eq!(health.len(), 1, "{events:?}");
    for key in [
        "\"workers\": 2",
        "\"workers_alive\"",
        "\"worker_restarts\"",
        "\"journal_bytes\"",
        "\"mem_high_water\"",
        "\"mem_budget\": null",
        "\"plan_shapes\"",
        "\"plan_refusals\"",
    ] {
        assert!(health[0].contains(key), "missing {key}: {}", health[0]);
    }
    let stats: Vec<&String> = events
        .iter()
        .filter(|e| e.contains("\"event\": \"stats\""))
        .collect();
    assert_eq!(stats.len(), 1, "{events:?}");
    assert!(
        stats[0].contains("\"worker_restarts\": [0, 0]"),
        "{}",
        stats[0]
    );
    assert!(
        stats[0].contains("\"jobs\": [{\"id\": \"serve-grid\", \"cells\": 4,"),
        "{}",
        stats[0]
    );
}

#[test]
fn gc_done_prunes_spec_and_journal_but_keeps_reports() {
    let mut opts = serve_opts(scratch("gc").join("state"), 1);
    opts.gc_done = true;
    let dir = opts.state_dir.parent().unwrap().to_path_buf();
    let spec_file = dir.join("spec.toml");
    std::fs::write(&spec_file, SPEC).expect("write spec");
    let events = run_session(
        &opts,
        &format!(
            "{{\"op\": \"submit\", \"spec_path\": \"{}\"}}\n",
            spec_file.display()
        ),
    );
    assert_eq!(count_events(&events, "done"), 1, "{events:?}");
    assert!(!opts.state_dir.join("serve-grid.spec.toml").exists());
    assert!(!opts.state_dir.join("serve-grid.journal").exists());
    assert!(opts.state_dir.join("serve-grid.json").exists());
    assert!(opts.state_dir.join("serve-grid.done").exists());
    // The kept `.done` marker still blocks an id reuse.
    let events = run_session(
        &opts,
        &format!(
            "{{\"op\": \"submit\", \"spec_path\": \"{}\"}}\n",
            spec_file.display()
        ),
    );
    assert!(
        events.iter().any(|e| e.contains("\"kind\": \"duplicate\"")),
        "{events:?}"
    );
}

#[test]
fn sigterm_drain_and_sigkill_resume_reach_the_same_report() {
    let exe = env!("CARGO_BIN_EXE_choco-cli");
    if !std::path::Path::new("/bin/kill").exists()
        && !std::path::Path::new("/usr/bin/kill").exists()
    {
        eprintln!("skipping: no kill binary for signal delivery");
        return;
    }
    let baseline = execute(
        &ExperimentSpec::parse_str(SPEC).expect("spec"),
        &RunOptions::default(),
    )
    .expect("baseline run")
    .to_json();
    let dir = scratch("signals");
    let spec_file = dir.join("spec.toml");
    std::fs::write(&spec_file, SPEC).expect("write spec");
    let submit = format!(
        "{{\"op\": \"submit\", \"spec_path\": \"{}\"}}\n",
        spec_file.display()
    );
    let spawn = |state: &PathBuf| {
        std::process::Command::new(exe)
            .args(["serve", "--state-dir"])
            .arg(state)
            .args(["--workers", "1"])
            .stdin(std::process::Stdio::piped())
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::null())
            .spawn()
            .expect("spawn daemon")
    };

    // Leg 1: SIGTERM after the first record. The daemon drains the
    // remaining cells within the (default 60 s) window, writes the
    // report, and exits zero.
    let term_state = dir.join("term");
    let mut child = spawn(&term_state);
    child
        .stdin
        .as_mut()
        .expect("stdin")
        .write_all(submit.as_bytes())
        .expect("submit");
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout")).lines();
    for line in stdout.by_ref() {
        if line
            .expect("daemon event")
            .contains("\"event\": \"record\"")
        {
            break;
        }
    }
    let term = std::process::Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(term.success(), "kill -TERM failed");
    let mut saw_shutdown = false;
    for line in stdout {
        let line = line.expect("daemon event");
        if line.contains("\"event\": \"shutdown\"") {
            assert!(
                line.contains("\"mode\": \"signal-drain\""),
                "a drain that finishes in time reports signal-drain: {line}"
            );
            saw_shutdown = true;
        }
    }
    assert!(saw_shutdown, "daemon must announce its shutdown mode");
    let status = child.wait().expect("reap");
    assert!(status.success(), "SIGTERM drain must exit zero: {status}");
    let term_report =
        std::fs::read_to_string(term_state.join("serve-grid.json")).expect("drained report");
    assert_eq!(term_report, baseline, "SIGTERM drain diverged from run");

    // Leg 2: SIGKILL mid-job, then a restart with empty input resumes
    // from the journal and lands on the same bytes.
    let kill_state = dir.join("kill");
    let mut child = spawn(&kill_state);
    child
        .stdin
        .as_mut()
        .expect("stdin")
        .write_all(submit.as_bytes())
        .expect("submit");
    let stdout = BufReader::new(child.stdout.take().expect("stdout"));
    for line in stdout.lines() {
        if line
            .expect("daemon event")
            .contains("\"event\": \"record\"")
        {
            break;
        }
    }
    child.kill().expect("SIGKILL");
    child.wait().expect("reap");
    let status = std::process::Command::new(exe)
        .args(["serve", "--state-dir"])
        .arg(&kill_state)
        .args(["--workers", "2"])
        .stdin(std::process::Stdio::null())
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .expect("restart daemon");
    assert!(status.success(), "resume session failed: {status}");
    let kill_report =
        std::fs::read_to_string(kill_state.join("serve-grid.json")).expect("resumed report");
    assert_eq!(
        kill_report, baseline,
        "SIGKILL-resume diverged from the SIGTERM drain"
    );
}

/// Template state for the journal-fuzz property: a completed one-cell
/// job's spec text, journal bytes, and report (computed once).
fn fuzz_template() -> &'static (String, String, String) {
    static TEMPLATE: OnceLock<(String, String, String)> = OnceLock::new();
    TEMPLATE.get_or_init(|| {
        let spec_text = r#"
name = "fuzz"
[grid]
problems = ["F1"]
solvers = ["choco-q"]
seeds = [1]
[config]
shots = 200
max_iters = 2
restarts = 1
transpiled_stats = false
"#;
        let dir = scratch("fuzz_template");
        let spec_file = dir.join("spec.toml");
        std::fs::write(&spec_file, spec_text).expect("write spec");
        let opts = serve_opts(dir.join("state"), 1);
        run_session(
            &opts,
            &format!(
                "{{\"op\": \"submit\", \"spec_path\": \"{}\"}}\n",
                spec_file.display()
            ),
        );
        let journal =
            std::fs::read_to_string(opts.state_dir.join("fuzz.journal")).expect("journal");
        let report = std::fs::read_to_string(opts.state_dir.join("fuzz.json")).expect("report");
        (spec_text.to_string(), journal, report)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrarily mangled journals never panic the daemon: every case
    /// either finishes the job or surfaces a structured `error` event —
    /// and a *truncation* mangling (the torn-tail case the journal is
    /// designed for) still reproduces the reference report exactly.
    #[test]
    fn mangled_journals_never_panic_the_daemon(
        cut in 0usize..2048,
        flip_at in 0usize..2048,
        flip_bit in 0u32..8,
        mode in 0u32..3,
    ) {
        let (spec_text, journal, report) = fuzz_template();
        let mangled: Vec<u8> = match mode {
            // Truncation: a torn tail (recoverable) or a torn header.
            0 => journal.as_bytes()[..cut.min(journal.len())].to_vec(),
            // Bit flip somewhere in the journal.
            1 => {
                let mut bytes = journal.as_bytes().to_vec();
                if !bytes.is_empty() {
                    let i = flip_at % bytes.len();
                    bytes[i] ^= 1 << flip_bit;
                }
                bytes
            }
            // Garbage appended as an extra line.
            _ => {
                let mut bytes = journal.as_bytes().to_vec();
                bytes.extend_from_slice(b"{\"index\": 99, \"record\": garbage\n");
                bytes
            }
        };
        let dir = scratch(&format!("fuzz_{cut}_{flip_at}_{flip_bit}_{mode}"));
        let state = dir.join("state");
        std::fs::create_dir_all(&state).unwrap();
        std::fs::write(state.join("fuzz.spec.toml"), spec_text).unwrap();
        std::fs::write(state.join("fuzz.journal"), &mangled).unwrap();
        // Must not panic; must either complete the job or emit an error.
        let events = run_session(&serve_opts(state.clone(), 1), "");
        let finished = state.join("fuzz.done").exists();
        let errored = events.iter().any(|e| e.contains("\"event\": \"error\""));
        prop_assert!(finished || errored, "{events:?}");
        // A bit flip can land inside a stored record and yield different
        // but well-formed JSON, so byte-identity is only guaranteed for
        // the crash contract the journal is designed for: truncation
        // after a complete header (a torn *tail*, not a torn header).
        let header_end = journal.find('\n').expect("header line") + 1;
        if mode == 0 && cut.min(journal.len()) >= header_end {
            prop_assert!(finished, "torn tails must stay resumable: {events:?}");
            let resumed = std::fs::read_to_string(state.join("fuzz.json")).unwrap();
            prop_assert_eq!(&resumed, report);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The one-cell job the submit fuzz mangles, as spec TOML and as the
/// equivalent JSON job: small enough that an accepted mangling costs
/// milliseconds.
const FUZZ_SPEC: &str = "name = \"fz\"\ndescription = \"submit fuzz\"\n\n[grid]\n\
    problems = [\"F1\"]\nsolvers = [\"choco-q\"]\n\n[config]\n\
    shots = 50\nmax_iters = 2\nrestarts = 1\ntranspiled_stats = false\n";
const FUZZ_JOB: &str = r#"{"name": "fz", "description": "submit fuzz", "problems": ["F1"], "solvers": ["choco-q"], "shots": 50, "max_iters": 2, "restarts": 1, "transpiled_stats": false}"#;

/// Truncates `text` and/or flips one bit of it, as drawn from `rng`.
fn mangle(text: &str, rng: &mut choco_q::mathkit::SplitMix64) -> Vec<u8> {
    let mut bytes = text.as_bytes().to_vec();
    let mode = rng.gen_range(0, 3);
    if mode != 1 {
        bytes.truncate(rng.gen_range(0, bytes.len() as u64 + 1) as usize);
    }
    if mode != 0 && !bytes.is_empty() {
        let i = rng.gen_range(0, bytes.len() as u64) as usize;
        bytes[i] ^= 1 << rng.gen_range(0, 8);
    }
    bytes
}

/// `text` as a JSON string literal.
fn json_string(text: &str) -> String {
    let mut out = String::from("\"");
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_control() => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Mangled `spec_toml` and `job` submissions never panic the daemon,
    /// and each one is answered by exactly one admission event:
    /// `accepted`, `rejected`, or a request-level `error` (`"job": null`).
    /// Byte-level mangling of the job object can leave invalid JSON or
    /// invalid UTF-8 on the line.
    #[test]
    fn mangled_submissions_get_exactly_one_admission_event(seed in any::<u64>()) {
        let mut rng = choco_q::mathkit::SplitMix64::new(seed);
        let mut input = Vec::new();
        let submits = 8;
        for i in 0..submits {
            let head = format!("{{\"op\": \"submit\", \"id\": \"fz{i}\", ");
            input.extend_from_slice(head.as_bytes());
            if i % 2 == 0 {
                let toml = String::from_utf8_lossy(&mangle(FUZZ_SPEC, &mut rng)).into_owned();
                let tail = format!("\"spec_toml\": {}}}\n", json_string(&toml));
                input.extend_from_slice(tail.as_bytes());
            } else {
                // The protocol is one request per line.
                let job = mangle(FUZZ_JOB, &mut rng);
                input.extend_from_slice(b"\"job\": ");
                input.extend(job.into_iter().map(|b| if b == b'\n' { b' ' } else { b }));
                input.extend_from_slice(b"}\n");
            }
        }
        let dir = scratch(&format!("submit_fuzz_{seed}"));
        let events = run_session(&serve_opts(dir.join("state"), 1), &input);
        let request_errors = events
            .iter()
            .filter(|e| e.contains("\"event\": \"error\"") && e.contains("\"job\": null"))
            .count();
        let answered =
            count_events(&events, "accepted") + count_events(&events, "rejected") + request_errors;
        prop_assert_eq!(answered, submits, "{events:#?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
