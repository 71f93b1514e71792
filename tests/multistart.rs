//! Integration tests for the deterministic parallel multi-start
//! scheduler: every `(branch × restart)` variational loop is pre-seeded
//! from its own coordinates, so a solve must be **byte-identical at any
//! `restart_workers` count** — across all six problem families of the
//! evaluation, across engines, and end-to-end through the experiment
//! runner. Pinned after the restart-seed collision fix (the old
//! serially-consumed restart RNG could not support this guarantee at
//! all, and the old `b·restarts + r` seed arithmetic reused loop seeds
//! across adjacent branches).

use choco_q::prelude::*;
use choco_q::qsim::{SimConfig, SimWorkspace};
use choco_q::runner::{execute, ProblemRef};

/// A small summation-constrained instance from the problem builder — the
/// sixth family of the evaluation (the other five come from the suite
/// generators).
fn random_instance() -> Problem {
    Problem::builder(6)
        .maximize()
        .linear(0, 1.5)
        .linear(1, -2.0)
        .linear(2, 3.0)
        .linear(3, 0.5)
        .linear(4, -1.0)
        .linear(5, 2.5)
        .quadratic(0, 3, -1.2)
        .quadratic(2, 5, 0.8)
        .equality([(0, 1), (1, 1), (2, 1)], 1)
        .equality([(3, 1), (4, 1), (5, 1)], 2)
        .build()
        .expect("valid builder instance")
}

/// One small instance per family: FLP, GCP, KPP, exact cover, knapsack,
/// random builder.
fn family_problems() -> Vec<(&'static str, Problem)> {
    let mut problems: Vec<(&'static str, Problem)> = [
        "flp:2x2",
        "gcp:3x2x2",
        "kpp:4x3x2",
        "cover:4x6",
        "knapsack:4x6",
    ]
    .into_iter()
    .map(|shape| {
        let p = ProblemRef::parse(shape)
            .expect("valid shape")
            .build(1)
            .expect("instance generates");
        (shape, p)
    })
    .collect();
    problems.push(("random-builder", random_instance()));
    problems
}

fn sched_config() -> ChocoQConfig {
    ChocoQConfig {
        restarts: 3,
        shots: 1_500,
        max_iters: 12,
        transpiled_stats: false,
        ..ChocoQConfig::default()
    }
}

#[test]
fn solve_is_identical_across_restart_workers_on_all_six_families() {
    for (name, problem) in family_problems() {
        let serial = ChocoQSolver::new(sched_config())
            .solve(&problem)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        for workers in [2usize, 4] {
            let parallel = ChocoQSolver::new(ChocoQConfig {
                restart_workers: workers,
                ..sched_config()
            })
            .solve(&problem)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(serial.counts, parallel.counts, "{name} workers={workers}");
            assert_eq!(
                serial.cost_history, parallel.cost_history,
                "{name} workers={workers}"
            );
            assert_eq!(
                serial.iterations, parallel.iterations,
                "{name} workers={workers}"
            );
            assert_eq!(serial.circuit, parallel.circuit, "{name} workers={workers}");
        }
    }
}

#[test]
fn parallel_solve_matches_serial_on_every_engine() {
    // Scheduler determinism composes with engine identity: 4 parallel
    // workers on the dense and compact engines must reproduce the serial
    // dense solve bit for bit (worker workspaces share the caller's
    // compiled-plan cache on the compact path).
    use choco_q::qsim::EngineKind;
    let problem = ProblemRef::parse("gcp:3x2x2")
        .unwrap()
        .build(1)
        .expect("instance");
    let dense_serial = {
        let mut ws = SimWorkspace::new(SimConfig::serial().with_engine(EngineKind::Dense));
        ChocoQSolver::new(sched_config())
            .solve_with_workspace(&problem, &mut ws)
            .expect("dense serial")
    };
    for engine in [EngineKind::Dense, EngineKind::Compact] {
        let mut ws = SimWorkspace::new(SimConfig::serial().with_engine(engine));
        let parallel = ChocoQSolver::new(ChocoQConfig {
            restart_workers: 4,
            ..sched_config()
        })
        .solve_with_workspace(&problem, &mut ws)
        .unwrap_or_else(|e| panic!("{engine}: {e}"));
        assert_eq!(dense_serial.counts, parallel.counts, "{engine}");
        assert_eq!(dense_serial.cost_history, parallel.cost_history, "{engine}");
        assert_eq!(dense_serial.iterations, parallel.iterations, "{engine}");
        // The caller's workspace holds the winner's final state in both
        // modes — the runner reads the resolved engine from it.
        assert!(ws.state().is_some(), "{engine}: end-state contract");
    }
}

const RESTART_GRID: &str = r#"
name = "restart-workers"
description = "determinism grid for the multistart scheduler"

[grid]
problems = ["F1", "cover:4x6"]
solvers = ["choco-q"]
seeds = [1, 2]

[config]
shots = 1000
max_iters = 8
restarts = 3
transpiled_stats = false
"#;

#[test]
fn runner_reports_are_byte_identical_across_restart_workers() {
    let spec = ExperimentSpec::parse_str(RESTART_GRID).expect("spec");
    let run = |restart_workers: usize| {
        let report = execute(
            &spec,
            &RunOptions {
                restart_workers,
                ..RunOptions::default()
            },
        )
        .expect("grid runs");
        (report.to_json(), report.to_csv())
    };
    let (json1, csv1) = run(1);
    let (json2, csv2) = run(2);
    let (json4, csv4) = run(4);
    assert_eq!(json1, json2, "1 vs 2 restart workers");
    assert_eq!(json1, json4, "1 vs 4 restart workers");
    assert_eq!(csv1, csv2);
    assert_eq!(csv1, csv4);
}

#[test]
fn runner_optimizer_key_changes_the_solve_and_is_reported() {
    // The optimizer is a real knob (unlike the engine key): selecting
    // nelder-mead must produce a *valid* but generally different report,
    // and each record must carry the resolved optimizer label.
    let spec = ExperimentSpec::parse_str(RESTART_GRID).expect("spec");
    let with_optimizer = |optimizer| {
        execute(
            &spec,
            &RunOptions {
                optimizer,
                ..RunOptions::default()
            },
        )
        .expect("grid runs")
    };
    use choco_q::optim::OptimizerKind;
    let default_report = with_optimizer(None);
    let json = default_report.to_json();
    assert!(
        json.contains("\"optimizer\": \"cobyla\""),
        "default resolves to cobyla"
    );
    let nm_report = with_optimizer(Some(OptimizerKind::NelderMead));
    assert!(nm_report
        .to_json()
        .contains("\"optimizer\": \"nelder-mead\""));
    for record in &nm_report.records {
        assert_eq!(
            record.get("status"),
            Some(&choco_q::runner::Field::Str("ok".into())),
            "nelder-mead cells still solve"
        );
    }
    // CLI > spec precedence mirrors the engine key.
    let mut spec_nm = ExperimentSpec::parse_str(RESTART_GRID).expect("spec");
    spec_nm.optimizer = Some(OptimizerKind::NelderMead);
    let opts = RunOptions {
        optimizer: Some(OptimizerKind::Spsa),
        ..RunOptions::default()
    };
    assert_eq!(opts.effective_optimizer(&spec_nm), OptimizerKind::Spsa);
    assert_eq!(
        RunOptions::default().effective_optimizer(&spec_nm),
        OptimizerKind::NelderMead
    );
}
