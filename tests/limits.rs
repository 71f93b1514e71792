//! A legal spec never ends in a panic.
//!
//! Problem ids of every family (`flp`, `gcp`, `kpp[:unbal]`, `cover`, the
//! knapsack encodings, `mdknap`, `assigncap`) are drawn at sizes past each
//! size limit, crossed with every solver and both engines at tiny
//! budgets, and run in-process. Each must either be refused as a spec
//! error or produce records, none of them with `error_kind: "panic"`:
//!
//! | band | size | answer |
//! |---|---|---|
//! | 0 | more than 63 variables | spec error |
//! | 1 | more than 26 dense or 30 circuit qubits, few feasible states | `size_gate` (or a compact Choco-Q solve that fits) |
//! | 2 | more than 2²² feasible states | `solver` record |
//! | 3 | a few variables | a real solve |
//!
//! Most cases end at a limit check, so the test stays fast. Sizes between
//! the tiny band and the limits run full simulations (a 26-qubit dense
//! state is 1 GiB) and are left to the experiment specs. Band 2 draws
//! only native knapsacks and `mdknap`, which reach the feasible cap in
//! about a second of a debug build; other families take band 1 there,
//! because enumerating 2²² of their feasible states takes 20 s (one-hot
//! `kpp:unbal`) to minutes (slack-encoded knapsack).

use choco_q::prelude::*;
use choco_q::qsim::EngineKind;
use choco_q::runner::{execute, Field};

const SOLVERS: [&str; 4] = ["choco-q", "penalty", "cyclic", "hea"];

/// The smallest `d` with `f(d) > bound`.
fn first_above(bound: usize, f: impl Fn(usize) -> usize) -> usize {
    (1..).find(|&d| f(d) > bound).expect("grows without bound")
}

/// A problem id of family `family` in size band `band` (see the module
/// docs); `x` and `y` vary the shape within the band.
fn problem_id(family: usize, band: usize, x: usize, y: usize) -> String {
    match (family, band) {
        // flp:FxD has F·(1 + 2D) variables.
        (0, 0) => {
            let f = 1 + x % 8;
            format!("flp:{f}x{}", first_above(63, |d| f * (1 + 2 * d)) + y % 4)
        }
        (0, 3) => format!("flp:{}x{}", 1 + x % 2, 1 + y % 2),
        (0, _) => {
            let f = 2 + x % 3;
            format!("flp:{f}x{}", first_above(26, |d| f * (1 + 2 * d)) + y % 2)
        }
        // gcp:VxExK has (V + E)·K variables.
        (1, 0) => {
            let k = 2 + x % 3;
            let v = first_above(63, |v| v * k) + y % 5;
            format!("gcp:{v}x{}x{k}", 1 + y % v)
        }
        (1, 3) => format!("gcp:{}x1x2", 2 + x % 2),
        (1, _) => {
            let v = 4 + x % 3;
            format!("gcp:{v}x{}x3", (9 - v + y % 3).min(v * (v - 1) / 2))
        }
        // kpp:VxExB has V·B variables; balanced needs B | V.
        (2, 0) => {
            let b = 2 + x % 3;
            let v = b * first_above(63, |m| m * b * b);
            format!("kpp:{v}x{}x{b}", 1 + y % v)
        }
        (2, 3) => format!("kpp:{}x1x2", 2 + 2 * (x % 2)),
        (2, _) => format!("kpp:{}x{}x2", 14 + 2 * (x % 2), 1 + y % 20),
        (3, 0) => {
            let b = 2 + x % 3;
            let v = first_above(63, |v| v * b) + y % 3;
            format!("kpp:{v}x{}x{b}:unbal", 1 + x % v)
        }
        (3, 3) => format!("kpp:{}x1x2:unbal", 2 + x % 3),
        (3, _) => format!("kpp:{}x{}x2:unbal", 14 + x % 2, 1 + y % 20),
        // cover:ExS has S variables.
        (4, 0) => format!("cover:{}x{}", 2 + y % 10, 64 + x % 40),
        (4, 3) => format!("cover:{}x{}", 2 + x % 2, 2 + y % 4),
        (4, _) => format!("cover:{}x{}", 2 + y % 6, 27 + x % 37),
        // knapsack:IxW has I items plus, in the slack encoding, one bit
        // per bit of W.
        (5 | 6, _) => {
            let encoding = if family == 5 { "slack" } else { "native" };
            let (items, capacity) = match band {
                0 if family == 5 => (1 + x % 60, 1u64 << (63 - (1 + x % 60))),
                0 => (64 + x % 20, 1 + y as u64),
                2 if family == 6 => (24 + x % 10, 1000),
                3 => (2 + x % 4, 1 + y as u64 % 10),
                _ => (27 + x % 30, 1 + y as u64 % 3),
            };
            format!("knapsack:{items}x{capacity}:{encoding}")
        }
        // mdknap:IxD has I variables; its capacities admit about half
        // of all subsets, so past 22 items it is past the feasible cap.
        (7, 0) => format!("mdknap:{}x{}", 64 + x % 20, 1 + y % 4),
        (7, 3) => format!("mdknap:{}x{}", 2 + x % 4, 1 + y % 2),
        (7, _) => format!("mdknap:{}x{}", 24 + x % 10, 1 + y % 3),
        // assigncap:AxT has A·T variables.
        (_, 0) => {
            let a = 1 + x % 8;
            format!("assigncap:{a}x{}", first_above(63, |t| a * t) + y % 3)
        }
        (_, 3) => format!("assigncap:{}x{}", 1 + x % 2, 1 + y % 3),
        (_, _) => format!("assigncap:3x{}", 9 + y % 3),
    }
}

fn spec(problem: &str, solver: &str) -> Result<ExperimentSpec, String> {
    ExperimentSpec::parse_str(&format!(
        "name = \"limits\"\n[grid]\nproblems = [\"{problem}\"]\nsolvers = [\"{solver}\"]\n\
         [config]\nshots = 16\nmax_iters = 2\nrestarts = 1"
    ))
}

/// Runs one case: a spec error, or records of which none panicked.
fn check(problem: &str, solver: &str, engine: EngineKind) -> Result<(), String> {
    let spec = match spec(problem, solver) {
        Ok(spec) => spec,
        Err(e) if e.is_empty() => return Err(format!("{problem}: empty spec error")),
        Err(_) => return Ok(()),
    };
    let opts = RunOptions {
        engine: Some(engine),
        ..RunOptions::default()
    };
    let report = execute(&spec, &opts).map_err(|e| format!("{problem}: {e}"))?;
    let panic = Field::Str("panic".into());
    match report
        .records
        .iter()
        .find(|r| r.get("error_kind") == Some(&panic))
    {
        Some(record) => Err(format!("{problem} {solver} {engine:?}: {record:?}")),
        None => Ok(()),
    }
}

#[test]
fn oversized_problem_ids_are_spec_errors() {
    for id in [
        "kpp:40x10x2",
        "cover:4x80",
        "flp:8x9",
        "knapsack:70x10:native",
        "gcp:30x10x3",
    ] {
        let err = spec(id, "choco-q").expect_err(id);
        assert!(err.contains("63-variable limit"), "{id}: {err}");
    }
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

    #[test]
    fn no_problem_size_panics_a_cell(
        family in 0usize..9,
        band in 0usize..8,
        x in 0usize..1000,
        y in 0usize..1000,
        solver in 0usize..4,
        dense in proptest::prelude::any::<bool>(),
    ) {
        // Half the cases past the variable limit, a quarter past a qubit
        // limit, an eighth past the feasible cap, an eighth tiny.
        let band = [0, 0, 0, 0, 1, 1, 2, 3][band];
        let problem = problem_id(family, band, x, y);
        let engine = if dense { EngineKind::Dense } else { EngineKind::Compact };
        let outcome = check(&problem, SOLVERS[solver], engine);
        proptest::prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
    }
}
