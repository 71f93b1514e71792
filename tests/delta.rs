//! Equivalence of Δ synthesis with its definitions.
//!
//! Both the kernel basis's greedy fallback and the extended driver take
//! their candidates from [`LinSystem::sparse_ternary_kernel`]. Their
//! definitions are the full depth-first enumeration the search replaced,
//! kept here as the reference:
//!
//! * the basis: enumerate every canonical ternary kernel vector (up to
//!   200,000, the fallback's cap), sort stably by support, and keep each
//!   vector that raises the span until it reaches the kernel dimension;
//! * the extension: enumerate (up to 50,000), drop vectors above
//!   `max_support` and those already in the basis, sort stably by
//!   support, and append terms until the cap.
//!
//! Search and reference must agree — the same vectors in the same order,
//! with the same register deltas, or the same error — on the suite
//! classes, on random small systems, and (release builds) on every
//! distinct instance of `experiments/*.toml` at full size, including the
//! two where the reference extension stops at its 50,000-vector cap
//! (`table2_extended` B4 and `scaling_sparse` `cover:9x24`, both at
//! seed 1).

use choco_q::core::{plan_elimination, ChocoQConfig, CommuteDriver, DriverTerm};
use choco_q::mathkit::{
    ternary_kernel_basis, KernelBasisError, KernelBasisMethod, LinEq, LinSystem, SpanTracker,
    SplitMix64,
};
use choco_q::problems::{ALL_CLASSES, EXTENDED_CLASSES, NATIVE_CLASSES};
use choco_q::runner::ExperimentSpec;
use std::collections::BTreeSet;

/// Every canonical ternary kernel vector of the equality rows (`C u = 0`,
/// `u ≠ 0`, first non-zero entry `+1`), at most `cap`, in depth-first
/// order: each entry tried as `0`, then `+1`, then `−1`. A prefix is
/// pruned when a row's residual exceeds the row's remaining |coefficients|.
fn reference_ternary_kernel(system: &LinSystem, cap: usize) -> Vec<Vec<i8>> {
    struct Search<'a> {
        coeff: &'a [Vec<i64>],
        suffix_abs: Vec<Vec<i64>>,
        residual: Vec<i64>,
        u: Vec<i8>,
        cap: usize,
        out: Vec<Vec<i8>>,
    }
    impl Search<'_> {
        fn dfs(&mut self, i: usize, signed: bool) {
            if self.out.len() >= self.cap {
                return;
            }
            if i == self.u.len() {
                if signed && self.residual.iter().all(|&r| r == 0) {
                    self.out.push(self.u.clone());
                }
                return;
            }
            let pruned = (self.residual.iter().zip(&self.suffix_abs[i])).any(|(r, s)| r.abs() > *s);
            if pruned {
                return;
            }
            // Until the first non-zero entry, only {0, +1} keeps `u` canonical.
            let domain: &[i8] = if signed { &[0, 1, -1] } else { &[0, 1] };
            for &val in domain {
                self.u[i] = val;
                for (r, row) in self.residual.iter_mut().zip(self.coeff) {
                    *r += row[i] * val as i64;
                }
                self.dfs(i + 1, signed || val != 0);
                for (r, row) in self.residual.iter_mut().zip(self.coeff) {
                    *r -= row[i] * val as i64;
                }
                self.u[i] = 0;
            }
        }
    }
    let n = system.n_vars();
    let coeff = system.dense_matrix();
    let mut suffix_abs = vec![vec![0i64; coeff.len()]; n + 1];
    for i in (0..n).rev() {
        for (e, row) in coeff.iter().enumerate() {
            suffix_abs[i][e] = suffix_abs[i + 1][e] + row[i].abs();
        }
    }
    let mut search = Search {
        coeff: &coeff,
        suffix_abs,
        residual: vec![0; coeff.len()],
        u: vec![0; n],
        cap,
        out: Vec::new(),
    };
    search.dfs(0, false);
    search.out
}

fn support(u: &[i8]) -> usize {
    u.iter().filter(|&&x| x != 0).count()
}

/// The enumerate-sort-greedy definition of the kernel basis's fallback.
fn reference_greedy_basis(system: &LinSystem) -> Result<Vec<Vec<i8>>, KernelBasisError> {
    let required = system.n_vars() - system.rank();
    let mut candidates = reference_ternary_kernel(system, 200_000);
    candidates.sort_by_key(|u| support(u));
    let mut tracker = SpanTracker::new();
    let mut chosen = Vec::new();
    for u in candidates {
        let ints: Vec<i64> = u.iter().map(|&x| x as i64).collect();
        if tracker.insert_ints(&ints) {
            chosen.push(u);
            if tracker.dim() == required {
                return Ok(chosen);
            }
        }
    }
    Err(KernelBasisError::NotSpannable {
        reached: tracker.dim(),
        required,
    })
}

/// Checks the kernel basis against the reference when it took the greedy
/// fallback (or found no ternary basis). Returns whether it did.
fn assert_same_basis(system: &LinSystem, what: &str) -> bool {
    let got = ternary_kernel_basis(system);
    let got = match got {
        Ok(basis) if basis.method == KernelBasisMethod::Gaussian => return false,
        Ok(basis) => Ok(basis.vectors),
        Err(e) => Err(e),
    };
    assert_eq!(got, reference_greedy_basis(system), "{what}: kernel basis");
    true
}

/// The enumerate-filter-sort definition of the extended driver.
fn reference_extended(constraints: &LinSystem, max_support: usize, cap: usize) -> Vec<DriverTerm> {
    let basis = CommuteDriver::build(constraints).expect("basis driver");
    let mut terms = basis.terms().to_vec();
    let cap = cap.min(3 * terms.len().max(1));
    if terms.is_empty() || terms.len() >= cap {
        return terms;
    }
    let mut extra: Vec<Vec<i8>> = reference_ternary_kernel(constraints, 50_000)
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

#[test]
fn suite_and_extended_classes_get_the_reference_basis() {
    let mut fallbacks = 0;
    for class in EXTENDED_CLASSES.iter().chain(&NATIVE_CLASSES) {
        for seed in 1..=4 {
            let problem = choco_q::problems::instance(class, seed);
            if assert_same_basis(problem.constraints(), &format!("{class} seed {seed}")) {
                fallbacks += 1;
            }
        }
    }
    // G3, G4, X2–X4 and B1–B4 take the fallback at most seeds.
    assert!(
        fallbacks >= 20,
        "only {fallbacks} instances took the fallback"
    );
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
        assert_same_basis(&system, &format!("random system {seed}"));
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
                    let what = format!(
                        "{} seed {seed} eliminate {eliminate} branch {i}",
                        problem.as_str()
                    );
                    assert_same_basis(constraints, &what);
                    if CommuteDriver::build(constraints).is_err() {
                        continue;
                    }
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
