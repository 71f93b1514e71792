//! Equivalence of the support-bounded Δ synthesis with its definition.
//!
//! [`CommuteDriver::build_extended`] enumerates only the ternary kernel
//! vectors with support ≤ `max_support`, by ascending support, and stops
//! once the driver holds its cap. Its definition is the enumeration it
//! replaced, kept here as the reference: enumerate every canonical ternary
//! kernel vector (up to 50,000), drop those above `max_support` and those
//! already in the basis, sort stably by support, and append terms until
//! the cap. The two must give the same Δ — the same vectors in the same
//! order, with the same register deltas — on the 20 suite classes, on
//! random small systems, and (release builds) on every distinct instance
//! of `experiments/*.toml` at full size, including the two where the
//! reference enumeration stops at its 50,000-vector cap (`table2_extended`
//! B4 and `scaling_sparse` `cover:9x24`, both at seed 1).

use choco_q::core::{plan_elimination, ChocoQConfig, CommuteDriver, DriverTerm};
use choco_q::mathkit::{LinEq, LinSystem, SplitMix64};
use choco_q::problems::{ALL_CLASSES, NATIVE_CLASSES};
use choco_q::runner::ExperimentSpec;
use std::collections::BTreeSet;

/// The enumerate-filter-sort definition of the extended driver.
fn reference_extended(constraints: &LinSystem, max_support: usize, cap: usize) -> Vec<DriverTerm> {
    let basis = CommuteDriver::build(constraints).expect("basis driver");
    let mut terms = basis.terms().to_vec();
    let cap = cap.min(3 * terms.len().max(1));
    if terms.is_empty() || terms.len() >= cap {
        return terms;
    }
    let support = |u: &[i8]| u.iter().filter(|&&x| x != 0).count();
    let mut extra: Vec<Vec<i8>> = constraints
        .enumerate_ternary_kernel(50_000)
        .into_iter()
        .filter(|u| support(u) <= max_support && !terms.iter().any(|t| &t.u == u))
        .collect();
    extra.sort_by_key(|u| support(u));
    for u in extra {
        if terms.len() >= cap {
            break;
        }
        // A term whose register delta exceeds the register's range could
        // never couple a state: the driver drops it.
        let deltas: Vec<i64> = (basis.registers().iter())
            .map(|r| r.row.terms.iter().map(|&(v, c)| c * u[v] as i64).sum())
            .collect();
        let fits =
            (deltas.iter().zip(basis.registers())).all(|(d, r)| d.unsigned_abs() <= r.max_value);
        if fits {
            terms.push(DriverTerm { u, deltas });
        }
    }
    terms
}

fn assert_same_delta(constraints: &LinSystem, max_support: usize, cap: usize, what: &str) {
    let want = reference_extended(constraints, max_support, cap);
    let got = CommuteDriver::build_extended(constraints, max_support, cap).expect("driver");
    assert_eq!(
        got.terms(),
        want.as_slice(),
        "{what}: max_support {max_support}, cap {cap}"
    );
    let basis = CommuteDriver::build(constraints).expect("basis driver");
    let grown = basis.extended(constraints, max_support, cap);
    assert_eq!(grown, got, "{what}: extending the solver's basis driver");
}

#[test]
fn suite_classes_get_the_reference_delta() {
    let config = ChocoQConfig::default();
    for class in ALL_CLASSES.iter().chain(&NATIVE_CLASSES) {
        for seed in 1..=4 {
            let problem = choco_q::problems::instance(class, seed);
            let what = format!("{class} seed {seed}");
            assert_same_delta(
                problem.constraints(),
                config.delta_max_support,
                config.delta_cap,
                &what,
            );
        }
    }
}

/// A random system of 2–9 variables: up to three equality rows with
/// small signed coefficients (some with no ternary basis) and up to two
/// positive `≤` rows, whose slack registers make some terms too wide.
fn random_system(seed: u64) -> LinSystem {
    let mut rng = SplitMix64::new(seed);
    let n = 2 + rng.gen_range(0, 8) as usize;
    let mut system = LinSystem::new(n);
    for _ in 0..rng.gen_range(0, 4) {
        let mut terms = Vec::new();
        for v in 0..n {
            if rng.gen_bool(0.6) {
                terms.push((v, [-2, -1, -1, 1, 1, 2][rng.gen_range(0, 6) as usize]));
            }
        }
        let mut rhs = 0;
        for &(_, c) in &terms {
            rhs += if rng.gen_bool(0.5) { c } else { 0 };
        }
        system.push(LinEq::new(terms, rhs));
    }
    for _ in 0..rng.gen_range(0, 3) {
        let mut terms = Vec::new();
        for v in 0..n {
            if rng.gen_bool(0.5) {
                terms.push((v, 1 + rng.gen_range(0, 3) as i64));
            }
        }
        let total: i64 = terms.iter().map(|&(_, c)| c).sum();
        system.push_le(LinEq::new(
            terms,
            rng.gen_range(0, total.max(0) as u64 + 1) as i64,
        ));
    }
    system
}

#[test]
fn random_small_systems_get_the_reference_delta() {
    let mut checked = 0;
    for seed in 0..400u64 {
        let system = random_system(seed);
        if CommuteDriver::build(&system).is_err() {
            continue;
        }
        for (max_support, cap) in [(1, 48), (2, 5), (3, 7), (4, 48), (6, 48), (9, 4)] {
            assert_same_delta(&system, max_support, cap, &format!("random system {seed}"));
        }
        checked += 1;
    }
    assert!(
        checked > 200,
        "only {checked} random systems built a driver"
    );
}

/// Every distinct problem instance (and elimination branch) of the
/// experiment specs at full size. About 10 s in a release build, so
/// debug runs skip it; CI runs it with `cargo test --release --test delta`.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "full-size instances: run in a release build"
)]
fn every_experiment_instance_gets_the_reference_delta() {
    let config = ChocoQConfig::default();
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/experiments");
    let mut specs: Vec<_> = std::fs::read_dir(dir)
        .expect("experiments/")
        .flatten()
        .collect();
    specs.sort_by_key(|entry| entry.path());
    let mut seen = BTreeSet::new();
    for entry in specs {
        let spec = ExperimentSpec::load(entry.path().to_str().expect("utf-8 path")).expect("spec");
        let problems = spec
            .problems
            .iter()
            .chain(spec.quick_problems.iter().flatten());
        for problem in problems {
            for (&seed, &eliminate) in spec
                .seeds
                .iter()
                .flat_map(|s| spec.eliminate.iter().map(move |k| (s, k)))
            {
                if !seen.insert((problem.as_str().to_string(), seed, eliminate)) {
                    continue;
                }
                let Ok(instance) = problem.build(seed) else {
                    continue;
                };
                let Ok(plan) = plan_elimination(&instance, eliminate) else {
                    continue;
                };
                for (i, branch) in plan.branches.iter().enumerate() {
                    let constraints = branch.problem.constraints();
                    if CommuteDriver::build(constraints).is_err() {
                        continue;
                    }
                    let what = format!(
                        "{} seed {seed} eliminate {eliminate} branch {i}",
                        problem.as_str()
                    );
                    assert_same_delta(
                        constraints,
                        config.delta_max_support,
                        config.delta_cap,
                        &what,
                    );
                }
            }
        }
    }
    for (problem, seed) in [("B4", 1), ("cover:9x24", 1)] {
        assert!(
            seen.contains(&(problem.to_string(), seed, 0)),
            "{problem} seed {seed} checked"
        );
    }
}
