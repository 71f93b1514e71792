//! In-process determinism contracts for the experiment runner.
//!
//! The CI smoke specs (`experiments/smoke.toml`, F1 with choco-q and
//! penalty; `experiments/smoke_native.toml`, the native-inequality
//! classes B1n, M1 and A1) must produce byte-identical JSON reports:
//!
//! * at 1, 2 and 4 cell workers;
//! * at 1 and 4 multistart restart workers per Choco-Q solve;
//! * on the dense and compact engines, apart from each record's
//!   `engine` field, with no record resolving to a sparse
//!   representation. The compact engine replays each optimizer
//!   candidate group batched and the dense engine one candidate at a
//!   time, so this also compares batched with serial evaluation. A run
//!   with no engine selected is the compact run, unmasked.
//!
//! Every native-inequality cell must also land fully in constraints.

use choco_q::prelude::*;
use choco_q::qsim::EngineKind;
use choco_q::runner::execute;

fn report(spec: &str, opts: RunOptions) -> String {
    let path = format!("{}/experiments/{spec}.toml", env!("CARGO_MANIFEST_DIR"));
    let spec = ExperimentSpec::load(&path).expect("smoke spec loads");
    execute(&spec, &opts).expect("smoke spec runs").to_json()
}

fn run(spec: &str, workers: usize, restart_workers: usize, engine: Option<EngineKind>) -> String {
    let opts = RunOptions {
        workers,
        restart_workers,
        engine,
        ..RunOptions::default()
    };
    report(spec, opts)
}

/// The report without its `engine` lines, the one field that
/// legitimately differs between engines.
fn engine_masked(json: &str) -> String {
    let kept = json
        .lines()
        .filter(|l| !l.trim_start().starts_with("\"engine\":"));
    kept.collect::<Vec<_>>().join("\n")
}

fn assert_deterministic(spec: &str) -> String {
    let reference = run(spec, 1, 1, None);
    for workers in [2, 4] {
        let got = run(spec, workers, 1, None);
        assert!(got == reference, "{spec}: {workers} workers differ from 1");
    }
    let got = run(spec, 1, 4, None);
    assert!(got == reference, "{spec}: 4 restart workers differ from 1");
    let compact = run(spec, 1, 1, Some(EngineKind::Compact));
    assert!(compact == reference, "{spec}: the default is not compact");
    let dense = run(spec, 1, 1, Some(EngineKind::Dense));
    assert!(
        engine_masked(&dense) == engine_masked(&compact),
        "{spec}: dense and compact reports differ beyond the engine field"
    );
    for json in [&dense, &compact] {
        assert!(!json.contains("\"engine\": \"sparse\""), "{spec}: sparse");
    }
    reference
}

#[test]
fn smoke_reports_are_identical_across_workers_restarts_and_engines() {
    assert_deterministic("smoke");
}

#[test]
fn native_smoke_reports_are_identical_and_in_constraints() {
    let reference = assert_deterministic("smoke_native");
    let in_constraints = reference.matches("\"in_constraints_rate\": 1").count();
    assert_eq!(in_constraints, 3, "every native cell stays in constraints");
}
