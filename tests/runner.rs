//! Integration tests for the batched experiment runner: spec parsing of
//! every checked-in experiment, worker-count determinism of the reports,
//! and the new problem families flowing through the grid.

use choco_q::prelude::*;
use choco_q::runner::{execute, Field, SolverKind};

/// A grid small enough for CI but wide enough to cross problem families,
/// solvers, and an error-producing cell (cyclic on the knapsack's
/// general-coefficient budget row).
const CROSS_FAMILY_SPEC: &str = r#"
name = "cross-family"
description = "integration grid over three families"

[grid]
problems = ["F1", "cover:4x6", "knapsack:4x6"]
solvers = ["choco-q", "cyclic"]
seeds = [1, 2]

[config]
shots = 1000
max_iters = 8
restarts = 1
transpiled_stats = false
"#;

#[test]
fn every_checked_in_spec_parses() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("experiments");
    let mut seen = 0usize;
    for entry in std::fs::read_dir(&dir).expect("experiments/ exists") {
        let path = entry.expect("dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("toml") {
            continue;
        }
        let spec = ExperimentSpec::load(path.to_str().expect("utf-8 path"))
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert!(!spec.name.is_empty(), "{}", path.display());
        assert!(!spec.description.is_empty(), "{}", path.display());
        // Every spec must expand (quick and full) without panicking, and
        // every referenced instance must actually generate.
        for quick in [false, true] {
            for cell in spec.expand_cells(quick) {
                cell.problem
                    .build(cell.instance_seed)
                    .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            }
        }
        seen += 1;
    }
    assert!(seen >= 12, "expected the full spec set, found {seen}");
}

#[test]
fn reports_are_identical_across_worker_counts() {
    let spec = ExperimentSpec::parse_str(CROSS_FAMILY_SPEC).expect("spec");
    let run = |workers: usize| {
        let report = execute(
            &spec,
            &RunOptions {
                workers,
                ..RunOptions::default()
            },
        )
        .expect("grid runs");
        (report.to_json(), report.to_csv())
    };
    let (json1, csv1) = run(1);
    let (json2, csv2) = run(2);
    let (json4, csv4) = run(4);
    assert_eq!(json1, json2, "1-worker vs 2-worker JSON must be identical");
    assert_eq!(json1, json4, "1-worker vs 4-worker JSON must be identical");
    assert_eq!(csv1, csv2);
    assert_eq!(csv1, csv4);
}

#[test]
fn cross_family_grid_exercises_hard_constraints_and_errors() {
    let spec = ExperimentSpec::parse_str(CROSS_FAMILY_SPEC).expect("spec");
    let report = execute(&spec, &RunOptions::default()).expect("grid runs");
    // 3 problems × 2 seeds × 2 solvers.
    assert_eq!(report.records.len(), 12);

    let str_of = |r: &choco_q::runner::Record, key: &str| -> String {
        match r.get(key) {
            Some(Field::Str(s)) => s.clone(),
            other => panic!("{key}: {other:?}"),
        }
    };
    for record in &report.records {
        let solver = str_of(record, "solver");
        let problem = str_of(record, "problem");
        let status = str_of(record, "status");
        match (solver.as_str(), problem.as_str()) {
            // The knapsack budget row is not summation format: cyclic
            // must reject it as an error record, not a panic.
            ("cyclic", "knapsack:4x6") => assert_eq!(status, "error", "{problem}"),
            // Choco-Q encodes every family and never leaves the feasible
            // subspace.
            ("choco-q", _) => {
                assert_eq!(status, "ok", "{problem}");
                match record.get("in_constraints_rate") {
                    Some(Field::Float(rate)) => {
                        assert!((rate - 1.0).abs() < 1e-9, "{problem}: {rate}")
                    }
                    other => panic!("{problem}: {other:?}"),
                }
            }
            _ => {}
        }
    }
    // The JSON round-trips the error count.
    assert!(report.to_json().contains("\"errors\": 2"));
}

#[test]
fn csv_has_one_row_per_cell_and_a_single_header() {
    let spec = ExperimentSpec::parse_str(CROSS_FAMILY_SPEC).expect("spec");
    let report = execute(&spec, &RunOptions::default()).expect("grid runs");
    let csv = report.to_csv();
    let lines: Vec<&str> = csv.lines().collect();
    assert_eq!(lines.len(), 1 + report.records.len());
    assert!(lines[0].starts_with("index,problem,instance,"));
    let columns = lines[0].split(',').count();
    for line in &lines[1..] {
        assert_eq!(line.split(',').count(), columns, "ragged row: {line}");
    }
}

#[test]
fn cell_seeds_reproduce_in_isolation() {
    // Running a sub-grid containing just one coordinate of the big grid
    // must reproduce the big grid's record for that coordinate.
    let full = ExperimentSpec::parse_str(CROSS_FAMILY_SPEC).expect("spec");
    let narrow = ExperimentSpec::parse_str(
        r#"
name = "cross-family"
[grid]
problems = ["cover:4x6"]
solvers = ["choco-q"]
seeds = [2]
[config]
shots = 1000
max_iters = 8
restarts = 1
transpiled_stats = false
"#,
    )
    .expect("spec");
    let full_report = execute(&full, &RunOptions::default()).expect("full");
    let narrow_report = execute(&narrow, &RunOptions::default()).expect("narrow");
    let target = full_report
        .records
        .iter()
        .find(|r| {
            r.get("problem") == Some(&Field::Str("cover:4x6".into()))
                && r.get("solver") == Some(&Field::Str("choco-q".into()))
                && r.get("instance_seed") == Some(&Field::UInt(2))
        })
        .expect("cell present");
    let isolated = &narrow_report.records[0];
    for key in ["cell_seed", "success_rate", "arg", "iterations"] {
        assert_eq!(target.get(key), isolated.get(key), "{key} diverged");
    }
}

#[test]
fn support_reports_identical_across_engines() {
    // The fig09b harness walks support on the selected engine; the
    // compact default (which experiments/scaling_sparse.toml runs on)
    // must not move a single byte of the report on sizes the dense engine
    // can still check.
    let base = r#"
name = "support-engines"
description = "engine-identity regression for the support harness"
kind = "support"
[grid]
problems = ["gcp:3x2x2", "F1"]
"#;
    let spec = ExperimentSpec::parse_str(base).expect("spec");
    let run = |engine| {
        let opts = RunOptions {
            engine: Some(engine),
            ..RunOptions::default()
        };
        execute(&spec, &opts).expect("support runs").to_json()
    };
    use choco_q::qsim::EngineKind;
    let dense = run(EngineKind::Dense);
    assert_eq!(dense, run(EngineKind::Compact));
    // And the spec-level engine key engages without a CLI override.
    let dense_spec = ExperimentSpec::parse_str(&format!("{base}engine = \"dense\"")).expect("spec");
    let from_spec = execute(&dense_spec, &RunOptions::default())
        .expect("support runs")
        .to_json();
    assert_eq!(dense, from_spec);
}

#[test]
fn runner_prelude_types_are_reachable() {
    // The umbrella prelude re-exports the runner surface.
    let spec = ExperimentSpec::parse_str(
        "name = \"p\"\n[grid]\nproblems = [\"F1\"]\nsolvers = [\"hea\"]\n\
         [config]\nshots = 200\nmax_iters = 3",
    )
    .expect("spec");
    let report: RunReport = execute(&spec, &RunOptions::default()).expect("runs");
    assert_eq!(report.records.len(), 1);
    assert_eq!(SolverKind::Hea.label(), "hea");
}

/// Every checked-in experiment spec as `(file name, text)`, sorted.
fn checked_in_specs() -> &'static [(String, String)] {
    static SPECS: std::sync::OnceLock<Vec<(String, String)>> = std::sync::OnceLock::new();
    SPECS.get_or_init(|| {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("experiments");
        let mut specs: Vec<(String, String)> = std::fs::read_dir(&dir)
            .expect("experiments/ exists")
            .map(|entry| entry.expect("dir entry").path())
            .filter(|path| path.extension().and_then(|e| e.to_str()) == Some("toml"))
            .map(|path| {
                let text = std::fs::read_to_string(&path).expect("spec text");
                (path.display().to_string(), text)
            })
            .collect();
        specs.sort();
        specs
    })
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

    /// Truncated and byte-flipped copies of every checked-in spec never
    /// panic the parser: each parses or returns an error message.
    #[test]
    fn mangled_specs_never_panic_the_parser(
        cut in 0usize..4096,
        flip_at in 0usize..4096,
        flip_bit in 0u32..8,
        mode in 0u32..3,
    ) {
        for (path, text) in checked_in_specs() {
            let mut bytes = text.as_bytes().to_vec();
            if mode != 1 {
                bytes.truncate(cut % (bytes.len() + 1));
            }
            if mode != 0 && !bytes.is_empty() {
                let i = flip_at % bytes.len();
                bytes[i] ^= 1 << flip_bit;
            }
            if let Err(e) = ExperimentSpec::parse_str(&String::from_utf8_lossy(&bytes)) {
                proptest::prop_assert!(!e.is_empty(), "{path}: empty error message");
            }
        }
    }
}
