//! Differential tests for the feasible-subspace engines.
//!
//! Random Choco-Q circuits over all six problem families must agree
//! between four independent executions — the sparse engine
//! ([`SparseStateVector`]), the compact plan-replay engine
//! ([`EngineKind::Compact`] through a [`SimWorkspace`], at 1/2/4 worker
//! threads), the dense strided engine ([`StateVector`], at 1/2/4 worker
//! threads), and the scan-and-mask oracle ([`ScalarStateVector`]) — with
//! **byte-identical** amplitudes/expectations between sparse and compact,
//! 1e-10 agreement against the oracle, and *identical* deterministic
//! sampling streams everywhere. The adversarial half drives circuits
//! that break subspace confinement (penalty/HEA-style mixers,
//! noise-trajectory gate soup) and asserts the compact engine refuses
//! their plans and runs them dense while results stay oracle-exact.

use choco_q::core::{support_profile, support_profile_with, ChocoQSolver, CommuteDriver};
use choco_q::mathkit::SplitMix64;
use choco_q::model::Problem;
use choco_q::qsim::oracle::ScalarStateVector;
use choco_q::qsim::{
    Circuit, EngineKind, NoiseModel, SimConfig, SimWorkspace, SparseStateVector, StateVector,
};
use choco_q::runner::ProblemRef;
use proptest::prelude::*;
use std::sync::Arc;

/// The families of the evaluation: FLP, GCP, KPP, exact cover, knapsack,
/// the native-inequality families (knapsack with a first-class `≤` budget
/// row, multi-dimensional knapsack, assignment with capacities — whose
/// circuits run on the driver-encoded register, wider than `n_vars`),
/// plus random builder instances. Shapes are chosen so every register
/// lands in 4..=14 qubits (dense-comparable sizes).
const FAMILY_SHAPES: [&[&str]; 8] = [
    &["flp:2x1", "flp:2x2"],
    &["gcp:2x1x2", "gcp:3x2x2", "gcp:3x3x2"],
    &["kpp:4x3x2", "kpp:4x4x2", "kpp:6x5x2"],
    &["cover:4x6", "cover:5x8", "cover:6x12"],
    &["knapsack:4x6", "knapsack:5x8", "knapsack:6x10"],
    &[
        "knapsack:4x6:native",
        "knapsack:5x8:native",
        "knapsack:6x10:native",
    ],
    &["mdknap:4x2", "mdknap:5x2"],
    &["assign:2x2", "assign:2x3"],
];

/// A random summation-constrained instance from the problem builder
/// (family index 8), n in 4..=14.
fn random_instance(seed: u64) -> Problem {
    let mut rng = SplitMix64::new(seed ^ 0xFEED);
    let n = 4 + (rng.gen_range(0, 11) as usize); // 4..=14
    let mut b = Problem::builder(n);
    if rng.gen_bool(0.5) {
        b = b.maximize();
    }
    for i in 0..n {
        b = b.linear(i, rng.gen_range_f64(-3.0, 3.0));
    }
    for _ in 0..n / 3 {
        let i = rng.gen_range(0, n as u64) as usize;
        let j = rng.gen_range(0, n as u64) as usize;
        if i != j {
            b = b.quadratic(i, j, rng.gen_range_f64(-2.0, 2.0));
        }
    }
    // One or two disjoint summation equalities keep the kernel ternary.
    let half = n / 2;
    let k1 = 1 + rng.gen_range(0, half as u64 - 1) as i64;
    b = b.equality((0..half).map(|i| (i, 1i64)), k1.min(half as i64));
    if rng.gen_bool(0.6) && n - half >= 2 {
        let k2 = 1 + rng.gen_range(0, (n - half) as u64 - 1) as i64;
        b = b.equality((half..n).map(|i| (i, 1i64)), k2.min((n - half) as i64));
    }
    b.build().expect("valid random instance")
}

/// The instance for (family, seed): families 0..=7 come from the suite
/// generators, 8 from the random builder.
fn family_instance(family: usize, seed: u64) -> Problem {
    if family == 8 {
        return random_instance(seed);
    }
    let shapes = FAMILY_SHAPES[family];
    let shape = shapes[(seed % shapes.len() as u64) as usize];
    ProblemRef::parse(shape)
        .expect("valid shape")
        .build(1 + seed % 5)
        .expect("instance generates")
}

/// A random-parameter Choco-Q circuit for the instance (the production
/// circuit shape: basis load, diagonal cost evolution, serialized
/// commute-driver pass — per layer).
fn choco_circuit(problem: &Problem, seed: u64, layers: usize) -> Option<Circuit> {
    let driver = CommuteDriver::build(problem.constraints()).ok()?;
    let initial = driver.encode_state(problem.first_feasible()?);
    let ordered = driver.ordered_terms(initial);
    let mut rng = SplitMix64::new(seed ^ 0xC1AC);
    let params: Vec<f64> = (0..ChocoQSolver::n_params(layers, ordered.len()))
        .map(|_| rng.gen_range_f64(-1.5, 1.5))
        .collect();
    Some(ChocoQSolver::build_circuit(
        &driver,
        &Arc::new(problem.cost_poly()),
        &ordered,
        initial,
        layers,
        &params,
    ))
}

fn threaded(threads: usize) -> SimConfig {
    SimConfig {
        threads,
        parallel_threshold: 1, // force fan-out even on small states
        ..SimConfig::default()
    }
}

fn compact_threaded(threads: usize) -> SimConfig {
    threaded(threads).with_engine(EngineKind::Compact)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(36))]

    /// The three-way engine matrix on random Choco-Q circuits across
    /// every family: sparse vs compact (1/2/4 threads, replayed twice so
    /// the cached plan is exercised) must be BYTE-identical in amplitudes
    /// and expectations; both vs strided dense (1/2/4 threads) and the
    /// oracle to 1e-10; occupancy bounded by the feasible set (the
    /// commute theorem).
    #[test]
    fn sparse_and_compact_match_strided_and_oracle_on_all_families(
        family in 0usize..9,
        seed in any::<u64>(),
        layers in 1usize..3,
    ) {
        let problem = family_instance(family, seed);
        prop_assert!(problem.n_vars() <= 14);
        let Some(circuit) = choco_circuit(&problem, seed, layers) else {
            // No ternary kernel basis / infeasible: nothing to compare.
            return Ok(());
        };
        // Native-inequality families simulate the driver-encoded register
        // (decision bits + synthesized slack); every comparison below runs
        // at that width.
        let width = circuit.n_qubits();
        prop_assert!(width <= 14);
        let oracle = ScalarStateVector::run(&circuit);
        let sparse = SparseStateVector::run(&circuit);
        for (bits, &expect) in oracle.amplitudes().iter().enumerate() {
            let got = sparse.amplitude(bits as u64);
            prop_assert!(
                got.approx_eq(expect, 1e-10),
                "family={family} n={} bits={bits}: sparse {got} oracle {expect}",
                problem.n_vars()
            );
        }
        for threads in [1usize, 2, 4] {
            let dense = StateVector::run_with(&circuit, threaded(threads));
            for (bits, &expect) in dense.amplitudes().iter().enumerate() {
                prop_assert!(
                    sparse.amplitude(bits as u64).approx_eq(expect, 1e-10),
                    "family={family} threads={threads} bits={bits}"
                );
            }
        }
        // Compact plan replay at every thread count: byte-identity (==,
        // not approx) against the sparse engine, on the compiled run AND
        // on a cached replay.
        let cost = problem.cost_poly();
        let sparse_expectation = sparse.expectation_diag_poly(&cost);
        for threads in [1usize, 2, 4] {
            let mut ws = SimWorkspace::new(compact_threaded(threads));
            for replay in 0..2 {
                let state = ws.run(&circuit);
                for bits in 0..(1u64 << width) {
                    let (a, b) = (state.amplitude(bits), sparse.amplitude(bits));
                    prop_assert!(
                        a.re == b.re && a.im == b.im,
                        "family={family} threads={threads} replay={replay} bits={bits}: \
                         compact {a} sparse {b}"
                    );
                }
                let expectation = state.expectation_diag_poly(&cost);
                if state.is_compact() {
                    // Compact mirrors the sparse term sequence exactly.
                    prop_assert_eq!(
                        expectation,
                        sparse_expectation,
                        "family={} threads={} replay={}: expectation diverged",
                        family, threads, replay
                    );
                } else {
                    // Shapes whose |F| exceeds the occupancy cap fall
                    // back to dense, whose 2^n sum interleaves exact-zero
                    // terms: value-equal, compared with tolerance.
                    prop_assert!(
                        (expectation - sparse_expectation).abs()
                            <= 1e-12 * sparse_expectation.abs().max(1.0),
                        "family={family} threads={threads} replay={replay}: \
                         fallback expectation diverged"
                    );
                }
                prop_assert_eq!(state.occupancy(), sparse.occupancy());
            }
            prop_assert_eq!(ws.plan_compilations(), 1, "replay must hit the plan cache");
        }
        // Subspace confinement: neither feasible-subspace engine occupies
        // more entries than the problem has feasible assignments.
        let n_feasible = problem.feasible_solutions(1 << 15).len();
        prop_assert!(
            sparse.occupancy() <= n_feasible,
            "occupancy {} exceeds |F| = {n_feasible}",
            sparse.occupancy()
        );
    }

    /// One seed, one distribution: the sparse engine, the compact engine,
    /// and the dense engine at every thread count produce *identical*
    /// sample histograms, shot for shot.
    #[test]
    fn sample_streams_identical_across_engines_and_threads(
        family in 0usize..9,
        seed in any::<u64>(),
    ) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let problem = family_instance(family, seed);
        prop_assert!(problem.n_vars() <= 14);
        let Some(circuit) = choco_circuit(&problem, seed, 1) else {
            return Ok(());
        };
        let sparse = SparseStateVector::run(&circuit);
        let reference = {
            let mut rng = StdRng::seed_from_u64(seed);
            sparse.sample(2_000, &mut rng)
        };
        for threads in [1usize, 2, 4] {
            let dense = StateVector::run_with(&circuit, threaded(threads));
            let mut rng = StdRng::seed_from_u64(seed);
            let counts = dense.sample(2_000, &mut rng);
            prop_assert!(
                counts == reference,
                "family={family} threads={threads}: sample stream diverged"
            );
            let mut ws = SimWorkspace::new(compact_threaded(threads));
            ws.run(&circuit);
            let mut rng = StdRng::seed_from_u64(seed);
            let counts = ws.sample(2_000, &mut rng);
            prop_assert!(
                counts == reference,
                "family={family} threads={threads}: compact sample stream diverged"
            );
        }
    }
}

/// A penalty-QAOA-style circuit: uniform superposition, diagonal cost,
/// transverse-field mixers — fills the register immediately.
fn penalty_style_circuit(n: usize, seed: u64) -> Circuit {
    let mut rng = SplitMix64::new(seed);
    let mut poly = choco_q::qsim::PhasePoly::new(n);
    for i in 0..n {
        poly.add_linear(i, rng.gen_range_f64(-2.0, 2.0));
    }
    let poly = Arc::new(poly);
    let mut c = Circuit::new(n);
    for q in 0..n {
        c.h(q);
    }
    for _ in 0..2 {
        c.diag(poly.clone(), rng.gen_range_f64(0.1, 1.0));
        for q in 0..n {
            c.rx(q, rng.gen_range_f64(0.1, 1.0));
        }
    }
    c
}

/// An HEA-style circuit: RY/CZ bricks (no structured gates at all).
fn hea_style_circuit(n: usize, seed: u64) -> Circuit {
    let mut rng = SplitMix64::new(seed);
    let mut c = Circuit::new(n);
    for _ in 0..3 {
        for q in 0..n {
            c.ry(q, rng.gen_range_f64(-1.0, 1.0));
        }
        for q in 0..n - 1 {
            c.cz(q, q + 1);
        }
    }
    c
}

/// A noise-trajectory-style circuit: a confined Choco-Q layer with random
/// Pauli errors injected after gates, plus stray Hadamards (readout-ish
/// basis churn) — the gate soup a stochastic noise channel produces.
fn noisy_trajectory_circuit(n: usize, seed: u64) -> Circuit {
    let mut rng = SplitMix64::new(seed);
    let mut c = Circuit::new(n);
    c.load_bits(1);
    let u: Vec<i8> = (0..n).map(|i| if i % 2 == 0 { 1 } else { -1 }).collect();
    c.ublock(choco_q::qsim::UBlock::from_u_with_angle(&u, 0.6));
    for q in 0..n {
        match rng.gen_range(0, 4) {
            0 => {
                c.push(choco_q::qsim::Gate::X(q));
            }
            1 => {
                c.push(choco_q::qsim::Gate::Y(q));
            }
            2 => {
                c.push(choco_q::qsim::Gate::Z(q));
            }
            _ => {
                c.h(q);
            }
        }
    }
    c
}

#[test]
fn subspace_breaking_circuits_trip_the_auto_fallback() {
    // The compact engine refuses a shape whose structural support
    // crosses a quarter of the register (floored at 64 entries) and runs
    // it dense: the 8-qubit mixers fill the register outright, and the
    // noisy trajectory's readout churn does too.
    let config = SimConfig::serial().with_engine(EngineKind::Compact);
    for (label, circuit) in [
        ("penalty", penalty_style_circuit(8, 11)),
        ("hea", hea_style_circuit(8, 12)),
        ("noisy", noisy_trajectory_circuit(8, 13)),
    ] {
        let mut ws = SimWorkspace::new(config);
        let engine = ws.run(&circuit);
        assert!(
            engine.as_dense().is_some(),
            "{label}: the plan of a register-filling shape must refuse"
        );
        // The dense run is oracle-exact.
        let oracle = ScalarStateVector::run(&circuit);
        let fidelity = oracle.fidelity_against_engine(engine);
        assert!(
            (fidelity - 1.0).abs() < 1e-10,
            "{label}: fidelity {fidelity}"
        );
        assert_eq!(ws.plan_cache().stats().refusals, 1, "{label}");
        // ... and its sample stream matches a dense run's exactly.
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let dense = StateVector::run_with(&circuit, SimConfig::serial());
        let mut ra = StdRng::seed_from_u64(5);
        let mut rb = StdRng::seed_from_u64(5);
        assert_eq!(
            ws.sample(1_500, &mut ra),
            dense.sample(1_500, &mut rb),
            "{label}"
        );
    }
}

#[test]
fn compact_engine_falls_back_cleanly_on_subspace_breaking_circuits() {
    // The compact engine refuses to compile shapes whose structural
    // support crosses the occupancy threshold, and runs them on the dense
    // engine instead — oracle-exact, with dense-identical sample streams,
    // and without re-attempting compilation on later iterations.
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    for (label, circuit) in [
        ("penalty", penalty_style_circuit(10, 11)),
        ("hea", hea_style_circuit(10, 12)),
        ("noisy", noisy_trajectory_circuit(10, 13)),
    ] {
        let mut ws = SimWorkspace::new(SimConfig::serial().with_engine(EngineKind::Compact));
        for replay in 0..2 {
            let state = ws.run(&circuit);
            assert!(
                state.as_dense().is_some(),
                "{label} replay {replay}: register-filling shape did not run dense"
            );
            let oracle = ScalarStateVector::run(&circuit);
            let fidelity = oracle.fidelity_against_engine(state);
            assert!(
                (fidelity - 1.0).abs() < 1e-10,
                "{label} replay {replay}: fidelity {fidelity}"
            );
        }
        assert_eq!(
            ws.plan_compilations(),
            1,
            "{label}: the refusal must be remembered, not recompiled"
        );
        assert_eq!(ws.plan_cache().stats().refusals, 1, "{label}");
        let dense = StateVector::run_with(&circuit, SimConfig::serial());
        let mut ra = StdRng::seed_from_u64(5);
        let mut rb = StdRng::seed_from_u64(5);
        assert_eq!(
            ws.sample(1_500, &mut ra),
            dense.sample(1_500, &mut rb),
            "{label}: fallback sample stream diverged"
        );
    }
}

/// Every Choco-Q shape of the benchmark suite compiles its plan. These
/// four have the largest feasible fraction of their register (structural
/// support 141–144 of 1,024 entries for F2, 70–72 of 512 for A2), so
/// they sit nearest the plan's support cap.
#[test]
fn suite_choco_shapes_compile_without_refusals() {
    use choco_q::core::ChocoQConfig;
    for (class, seed) in [("F2", 1), ("F2", 3), ("F2", 4), ("A2", 2)] {
        let problem = choco_q::problems::instance(class, seed);
        let mut ws = SimWorkspace::new(SimConfig::serial());
        ChocoQSolver::new(ChocoQConfig::fast_test())
            .solve_with_workspace(&problem, &mut ws)
            .unwrap();
        let stats = ws.plan_cache().stats();
        assert!(stats.compilations > 0, "{class} seed {seed}");
        assert_eq!(stats.refusals, 0, "{class} seed {seed}: a plan refused");
        let state = ws.state().expect("the solve leaves its final state");
        assert!(state.is_compact(), "{class} seed {seed}");
    }
}

#[test]
fn forced_sparse_handles_subspace_breaking_circuits_exactly() {
    // The sparse reference walker never changes representation — it must
    // still be correct on a register-filling circuit, merely slower.
    let circuit = penalty_style_circuit(7, 21);
    let sparse = SparseStateVector::run(&circuit);
    assert_eq!(sparse.occupancy(), 1 << 7, "mixers fill the register");
    let oracle = ScalarStateVector::run(&circuit);
    for (bits, &expect) in oracle.amplitudes().iter().enumerate() {
        assert!(
            sparse.amplitude(bits as u64).approx_eq(expect, 1e-10),
            "bits={bits}"
        );
    }
}

#[test]
fn support_profile_consistent_through_the_fallback() {
    // The fig09b metric on a register-filling circuit: the compact
    // profile (the sparse walker) must equal the dense profile gate for
    // gate.
    let circuit = penalty_style_circuit(6, 31);
    let compact = SimConfig::serial().with_engine(EngineKind::Compact);
    assert_eq!(
        support_profile_with(&circuit, 1e-9, compact),
        support_profile(&circuit, 1e-9),
        "post-fallback support counts diverged from the dense fig09b path"
    );
}

#[test]
fn noise_channel_sampling_ignores_engine_selection() {
    // Stochastic noise breaks subspace confinement by construction, so
    // the Monte-Carlo executor always runs dense — a compact-configured
    // SimConfig must not change its histograms.
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut c = Circuit::new(3);
    c.h(0).cx(0, 1).cx(1, 2);
    let noise = NoiseModel::new(0.02, 0.05, 0.01);
    let dense_cfg = SimConfig::serial().with_engine(EngineKind::Dense);
    let compact_cfg = SimConfig::serial().with_engine(EngineKind::Compact);
    let mut ra = StdRng::seed_from_u64(7);
    let mut rb = StdRng::seed_from_u64(7);
    let a = noise.sample_noisy_with(dense_cfg, &c, 2_000, 10, &mut ra);
    let b = noise.sample_noisy_with(compact_cfg, &c, 2_000, 10, &mut rb);
    assert_eq!(a, b);
}

#[test]
fn fig09b_support_numbers_pinned_on_small_gcp() {
    // Regression pin for the execute_support rework (it now counts
    // support through the engine's occupancy counter instead of
    // rebuilding a dense state): the published fig09b-style numbers for
    // GCP G-class shape 3x2x2 at seed 1 must not move, on any engine.
    let problem = ProblemRef::parse("gcp:3x2x2").unwrap().build(1).unwrap();
    let circuit = choco_circuit_for_support(&problem);
    let dense = support_profile(&circuit, 1e-9);
    // Pinned values: initial basis state, then the serialized driver
    // spreads amplitude; re-derived from the dense engine at the time of
    // the rework, asserted verbatim so future engine changes cannot
    // silently shift fig09b.
    assert_eq!(dense.first(), Some(&1), "profile starts at one basis state");
    assert_eq!(dense, PINNED_GCP_3X2X2_PROFILE, "fig09b numbers moved");
    let compact = SimConfig::serial().with_engine(EngineKind::Compact);
    assert_eq!(support_profile_with(&circuit, 1e-9, compact), dense);
}

/// The exact circuit `execute_support` profiles (initial params, one
/// layer).
fn choco_circuit_for_support(problem: &Problem) -> Circuit {
    let driver = CommuteDriver::build(problem.constraints()).unwrap();
    let initial = problem.first_feasible().unwrap();
    let ordered = driver.ordered_terms(initial);
    let params = ChocoQSolver::initial_params(1, ordered.len());
    ChocoQSolver::build_circuit(
        &driver,
        &Arc::new(problem.cost_poly()),
        &ordered,
        initial,
        1,
        &params,
    )
}

/// See `fig09b_support_numbers_pinned_on_small_gcp`: four load-bits
/// gates and the diagonal keep one basis state, then the serialized
/// driver blocks spread the support.
const PINNED_GCP_3X2X2_PROFILE: &[usize] = &[1, 1, 1, 1, 1, 2, 2, 2];

/// Whole Choco-Q solves on the dense and compact engines reach the same
/// bits: the dense solve reads its cost from the `2^n` table, the compact
/// one from the plan's per-rank polynomial values (it builds no table),
/// so equal counts and cost histories pin the two cost paths to each
/// other through every optimizer step, the CVaR restart selection and
/// the final sampling. B2n has a native `≤` row (driver-synthesized slack
/// bits the cost never reads); G1 is a 12-qubit equality instance.
#[test]
fn choco_solves_match_between_dense_and_compact() {
    use choco_q::core::ChocoQConfig;
    use choco_q::model::Solver;
    for (class, min_qubits) in [("B2n", 8), ("G1", 12)] {
        let problem = choco_q::problems::instance(class, 1);
        let encoded = choco_q::core::encoded_qubits_for(problem.constraints()).unwrap();
        assert!(encoded >= min_qubits, "{class}: {encoded} qubits");
        let solve = |engine| {
            let config = ChocoQConfig {
                sim: SimConfig::serial().with_engine(engine),
                ..ChocoQConfig::fast_test()
            };
            ChocoQSolver::new(config).solve(&problem).unwrap()
        };
        let (dense, compact) = (solve(EngineKind::Dense), solve(EngineKind::Compact));
        assert_eq!(dense.counts, compact.counts, "{class}: counts");
        let bits = |h: &[f64]| h.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&dense.cost_history),
            bits(&compact.cost_history),
            "{class}: cost history"
        );
        assert!(!dense.cost_history.is_empty());
    }
}
