//! Property-based tests (proptest) on the core invariants of the paper:
//! commutation, serialization feasibility, decomposition equivalence, the
//! classical substrates, and the benchmark-generator contracts (every
//! emitted instance is feasible and matches its declared family shape).

use choco_q::core::CommuteDriver;
use choco_q::mathkit::{ternary_kernel_basis, LinEq, LinSystem, SplitMix64};
use choco_q::prelude::*;
use choco_q::problems::{cover_random, knapsack_random, KnapsackLayout};
use choco_q::qsim::{
    transpile, transpile_into, PhasePoly, RegisterShift, ShiftBlock, StatsSink, TranspileError,
    TranspileOptions, TwoQubitBasis, UBlock,
};
use proptest::prelude::*;
use std::sync::Arc;

/// A random small constraint system with ±1 coefficients (the shape that
/// FLP/GCP/KPP encodings produce).
fn arb_system() -> impl Strategy<Value = LinSystem> {
    (2usize..6, 1usize..3, any::<u64>()).prop_map(|(n_vars, n_eqs, seed)| {
        let mut rng = choco_q::mathkit::SplitMix64::new(seed);
        let mut sys = LinSystem::new(n_vars);
        for _ in 0..n_eqs {
            let mut terms = Vec::new();
            for v in 0..n_vars {
                match rng.gen_range(0, 3) {
                    0 => terms.push((v, 1i64)),
                    1 => terms.push((v, -1i64)),
                    _ => {}
                }
            }
            if terms.is_empty() {
                terms.push((0, 1));
            }
            let lo: i64 = terms.iter().map(|&(_, c)| c.min(0)).sum();
            let hi: i64 = terms.iter().map(|&(_, c)| c.max(0)).sum();
            let rhs = lo + (rng.gen_range(0, (hi - lo + 1) as u64) as i64);
            sys.push(LinEq::new(terms, rhs));
        }
        sys
    })
}

/// A random mixed integer linear system: ternary equality rows (as
/// [`arb_system`]) plus general positive-coefficient `≤` rows — the shape
/// the generalized driver synthesis must handle with internal slack
/// registers.
fn arb_mixed_system() -> impl Strategy<Value = LinSystem> {
    (2usize..5, 0usize..2, 1usize..3, any::<u64>()).prop_map(|(n_vars, n_eqs, n_ineqs, seed)| {
        let mut rng = choco_q::mathkit::SplitMix64::new(seed);
        let mut sys = LinSystem::new(n_vars);
        for _ in 0..n_eqs {
            let mut terms = Vec::new();
            for v in 0..n_vars {
                match rng.gen_range(0, 3) {
                    0 => terms.push((v, 1i64)),
                    1 => terms.push((v, -1i64)),
                    _ => {}
                }
            }
            if terms.is_empty() {
                terms.push((0, 1));
            }
            let lo: i64 = terms.iter().map(|&(_, c)| c.min(0)).sum();
            let hi: i64 = terms.iter().map(|&(_, c)| c.max(0)).sum();
            let rhs = lo + (rng.gen_range(0, (hi - lo + 1) as u64) as i64);
            sys.push(LinEq::new(terms, rhs));
        }
        for _ in 0..n_ineqs {
            let mut terms = Vec::new();
            for v in 0..n_vars {
                if rng.gen_range(0, 2) == 0 {
                    terms.push((v, rng.gen_range(1, 4) as i64));
                }
            }
            if terms.is_empty() {
                terms.push((0, 1));
            }
            let hi: i64 = terms.iter().map(|&(_, c)| c).sum();
            // rhs in [1, hi]: sometimes binding, sometimes (rhs = hi)
            // vacuous — both register-sizing paths get exercised.
            let rhs = 1 + rng.gen_range(0, hi as u64) as i64;
            sys.push_le(LinEq::new(terms, rhs));
        }
        sys
    })
}

/// [`arb_lowering_case`] played twice, the second time in reverse order
/// after a few Hadamards, so every structured gate repeats at other
/// qubit levels: a counting lowering applies its cached summary there.
fn arb_repeated_lowering_case() -> impl Strategy<Value = (Circuit, TranspileOptions)> {
    (arb_lowering_case(), any::<u64>()).prop_map(|((circuit, opts), seed)| {
        let mut rng = SplitMix64::new(seed);
        let mut repeated = circuit.clone();
        for _ in 0..rng.gen_range(0, 4) {
            repeated.h(rng.gen_range(0, circuit.n_qubits() as u64) as usize);
        }
        for gate in circuit.gates().iter().rev() {
            repeated.push(gate.clone());
        }
        (repeated, opts)
    })
}

/// A random circuit over every gate kind the lowering handles. Gates act
/// on the `n_data` low qubits; the `n_anc` qubits above them are the clean
/// ancillas, and data qubits a gate leaves idle are borrowable. Without
/// ancillas some wide multi-controlled gates cannot lower.
fn arb_lowering_case() -> impl Strategy<Value = (Circuit, TranspileOptions)> {
    (3usize..10, 0usize..3, any::<bool>(), any::<u64>()).prop_map(|(n_data, n_anc, cz, seed)| {
        let mut rng = SplitMix64::new(seed);
        let mut circuit = Circuit::new(n_data + n_anc);
        for _ in 0..1 + rng.gen_range(0, 6) {
            circuit.push(random_gate(&mut rng, n_data));
        }
        let opts = TranspileOptions {
            two_qubit: if cz {
                TwoQubitBasis::Cz
            } else {
                TwoQubitBasis::Cx
            },
            ancillas: (n_data..n_data + n_anc).collect(),
        };
        (circuit, opts)
    })
}

/// One gate of a random kind on distinct qubits below `n_data` (at least 3).
fn random_gate(rng: &mut SplitMix64, n_data: usize) -> Gate {
    let mut qs: Vec<usize> = (0..n_data).collect();
    rng.shuffle(&mut qs);
    let angle = rng.gen_range_f64(-1.5, 1.5);
    let width = 1 + rng.gen_range(0, n_data as u64) as usize;
    let sorted = |qs: &[usize]| {
        let mut qs = qs.to_vec();
        qs.sort_unstable();
        qs
    };
    let (a, b, c) = (qs[0], qs[1], qs[2]);
    match rng.gen_range(0, 13) {
        0 => Gate::Rz(a, angle),
        1 => Gate::Cx(a, b),
        2 => Gate::Cz(a, b),
        3 => Gate::Cp(a, b, angle),
        4 => Gate::Swap(a, b),
        5 => Gate::Ccx(a, b, c),
        6 => Gate::Mcx {
            controls: qs[1..width].to_vec(),
            target: a,
        },
        7 => Gate::McPhase {
            qubits: sorted(&qs[..width]),
            angle,
        },
        8 => Gate::ControlledU {
            controls: qs[1..width].to_vec(),
            target: a,
            matrix: Gate::Ry(0, angle).matrix_1q().unwrap(),
        },
        9 => Gate::UBlock(UBlock {
            support: sorted(&qs[..width]),
            pattern: rng.next_u64() & ((1 << width) - 1),
            angle,
        }),
        10 => {
            // One or two slack registers of 1–2 qubits after the support.
            let k = 1 + rng.gen_range(0, 2) as usize;
            let mut shifts = Vec::new();
            let mut next = k;
            while next < n_data && (shifts.is_empty() || rng.gen_bool(0.5)) {
                let len = (1 + rng.gen_range(0, 2) as usize).min(n_data - next);
                shifts.push(RegisterShift {
                    qubits: sorted(&qs[next..next + len]),
                    delta: [-2, -1, 1, 2][rng.gen_range(0, 4) as usize],
                    max_value: rng.gen_range(1, 1 << len),
                });
                next += len;
            }
            Gate::ShiftBlock(ShiftBlock {
                support: sorted(&qs[..k]),
                pattern: rng.gen_range(0, 1 << k),
                shifts,
                angle,
            })
        }
        11 => {
            let mut poly = PhasePoly::new(n_data);
            poly.add_linear(a, 1.0 + angle);
            poly.add_quadratic(a.min(b), a.max(b), -angle);
            poly.add_constant(0.5);
            Gate::DiagPhase(Arc::new(poly), angle)
        }
        _ => Gate::XyMix(a, b, angle),
    }
}

/// Depth, gate count and 2-qubit count of a lowering, streamed through a
/// [`StatsSink`] or read off the materialized circuit.
fn lowered_stats(
    circuit: &Circuit,
    opts: &TranspileOptions,
    streamed: bool,
) -> Result<(usize, usize, usize), TranspileError> {
    if streamed {
        let mut sink = StatsSink::new(circuit.n_qubits());
        transpile_into(circuit, opts, &mut sink)?;
        Ok((sink.depth(), sink.gates(), sink.two_qubit_gates()))
    } else {
        let lowered = transpile(circuit, opts)?;
        Ok((
            lowered.depth(),
            lowered.len(),
            lowered.multi_qubit_gate_count(),
        ))
    }
}

/// The lowering cases above reach every gate kind, both bases, every
/// ancilla count, and both a successful and a failing lowering.
#[test]
fn lowering_cases_cover_every_kind_and_outcome() {
    let mut rng = proptest::TestRng::new(7);
    let mut kinds = std::collections::BTreeSet::new();
    let mut seen = std::collections::BTreeSet::new();
    for _ in 0..256 {
        let (circuit, opts) = arb_lowering_case().generate(&mut rng);
        kinds.extend(circuit.gates().iter().map(Gate::name));
        let lowered = transpile(&circuit, &opts);
        seen.insert((
            opts.two_qubit == TwoQubitBasis::Cz,
            opts.ancillas.len(),
            lowered.is_ok(),
        ));
    }
    assert_eq!(kinds.len(), 13, "gate kinds drawn: {kinds:?}");
    for cz in [false, true] {
        for n_anc in 0..3 {
            assert!(seen.contains(&(cz, n_anc, true)), "{seen:?}");
        }
        assert!(seen.contains(&(cz, 0, false)), "{seen:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Streaming the lowering into a [`StatsSink`] counts exactly what the
    /// materialized circuit reports, and fails with the same error.
    #[test]
    fn streamed_lowering_stats_equal_materialized((circuit, opts) in arb_lowering_case()) {
        prop_assert_eq!(
            lowered_stats(&circuit, &opts, true),
            lowered_stats(&circuit, &opts, false)
        );
    }

    /// The same with every structured gate repeated: a repeat counts
    /// through the summary the first lowering left, in either basis.
    #[test]
    fn repeated_lowerings_count_as_materialized((circuit, opts) in arb_repeated_lowering_case()) {
        prop_assert_eq!(
            lowered_stats(&circuit, &opts, true),
            lowered_stats(&circuit, &opts, false)
        );
    }
}

/// The statistics Choco-Q reports for every suite class at seeds 1–4:
/// its circuits (basis and extended drivers, one layer) widened by the
/// two clean ancillas of Lemma 2 repeat the same multi-controlled X
/// lowerings hundreds of times, and the counting sink's cached summaries
/// must count them as the materialized lowering does.
#[test]
fn suite_circuit_stats_equal_the_materialized_lowering() {
    use choco_q::core::ChocoQSolver;
    use choco_q::problems::{ALL_CLASSES, NATIVE_CLASSES};
    for class in ALL_CLASSES.iter().chain(&NATIVE_CLASSES) {
        for seed in 1..=4 {
            let problem = choco_q::problems::instance(class, seed);
            let constraints = problem.constraints();
            let basis = CommuteDriver::build(constraints).unwrap();
            let extended = basis.extended(constraints, 6, 48);
            let poly = Arc::new(problem.cost_poly());
            for driver in [&basis, &extended] {
                let initial = driver.encode_state(problem.first_feasible().unwrap());
                let terms = driver.ordered_terms(initial);
                let params = ChocoQSolver::initial_params(1, terms.len());
                let circuit =
                    ChocoQSolver::build_circuit(driver, &poly, &terms, initial, 1, &params);
                let n = circuit.n_qubits();
                let wide = circuit.widened(n + 2);
                let opts = TranspileOptions::with_ancillas(vec![n, n + 1]);
                assert_eq!(
                    lowered_stats(&wide, &opts, true),
                    lowered_stats(&wide, &opts, false),
                    "{class} seed {seed}, {} terms",
                    driver.len()
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Eq. (4) generalized: over the *encoded* register (decision bits
    /// plus synthesized slack registers), every driver term commutes with
    /// every equality-constraint operator and with every extended-row
    /// operator `Σ aᵢxᵢ + s` — the algebraic fact that confines the
    /// evolution of native-inequality instances.
    #[test]
    fn generalized_driver_commutes_with_extended_rows(sys in arb_mixed_system()) {
        let Ok(driver) = CommuteDriver::build(&sys) else { return Ok(()); };
        if driver.encoded_qubits() > 7 { return Ok(()); }
        let encoded = driver.encoded_qubits();
        for term in driver.terms() {
            let hc = driver.term_matrix_encoded(term);
            for eq in sys.eqs() {
                let c_op = choco_q::core::constraint_operator_matrix(&eq.terms, encoded);
                prop_assert!(hc.commutator(&c_op).frobenius_norm() < 1e-10);
            }
            for reg in driver.registers() {
                let row_op = choco_q::core::extended_row_operator_matrix(reg, encoded);
                prop_assert!(hc.commutator(&row_op).frobenius_norm() < 1e-10);
            }
        }
    }

    /// Lemma 1 generalized through the simulator: a serialized pass of
    /// generalized (register-shifting) driver gates keeps every amplitude
    /// on the extended feasible manifold — the decision bits satisfy all
    /// rows (including `≤`), and each slack register holds exactly its
    /// row's residual.
    #[test]
    fn generalized_pass_preserves_feasibility(sys in arb_mixed_system(), beta in 0.05f64..1.5) {
        let Some(initial) = sys.first_binary_solution() else { return Ok(()); };
        let Ok(driver) = CommuteDriver::build(&sys) else { return Ok(()); };
        let encoded = driver.encoded_qubits();
        if encoded > 10 { return Ok(()); }
        let mut circuit = Circuit::new(encoded);
        circuit.load_bits(driver.encode_state(initial));
        for t in driver.ordered_terms(driver.encode_state(initial)) {
            circuit.push(driver.gate_of(&t, beta));
        }
        let state = StateVector::run(&circuit);
        for bits in 0..(1u64 << encoded) {
            if state.probability(bits) > 1e-12 {
                let x = bits & driver.decision_mask();
                prop_assert!(
                    sys.is_satisfied_bits(x),
                    "infeasible decision state {x:b} has probability {}",
                    state.probability(bits)
                );
                for reg in driver.registers() {
                    let mask = (1u64 << reg.bits) - 1;
                    let held = (bits >> reg.offset) & mask;
                    prop_assert_eq!(
                        held as i64, reg.slack_of(x),
                        "register for `{}` off-manifold at {bits:b}", reg.row
                    );
                }
            }
        }
    }

    /// Every enumerated kernel vector annihilates every constraint row.
    #[test]
    fn kernel_vectors_annihilate(sys in arb_system()) {
        for u in sys.enumerate_ternary_kernel(500) {
            for eq in sys.eqs() {
                let dot: i64 = eq.terms.iter().map(|&(v, c)| c * u[v] as i64).sum();
                prop_assert_eq!(dot, 0);
            }
        }
    }

    /// Kernel-basis vectors are independent and of the right count.
    #[test]
    fn kernel_basis_has_kernel_dimension(sys in arb_system()) {
        if let Ok(basis) = ternary_kernel_basis(&sys) {
            prop_assert_eq!(basis.vectors.len(), basis.kernel_dim);
            prop_assert_eq!(basis.kernel_dim, sys.n_vars() - sys.rank());
            let mut tracker = choco_q::mathkit::SpanTracker::new();
            for u in &basis.vectors {
                let ints: Vec<i64> = u.iter().map(|&x| x as i64).collect();
                prop_assert!(tracker.insert_ints(&ints), "dependent basis vector");
            }
        }
    }

    /// The Heisenberg foundation (Eq. (4)): every driver term commutes with
    /// every constraint operator.
    #[test]
    fn driver_commutes_with_constraints(sys in arb_system()) {
        if sys.n_vars() > 5 { return Ok(()); }
        if let Ok(driver) = CommuteDriver::build(&sys) {
            for t in driver.terms() {
                let hc = CommuteDriver::term_matrix(&t.u);
                for eq in sys.eqs() {
                    let c_op = choco_q::core::constraint_operator_matrix(&eq.terms, sys.n_vars());
                    prop_assert!(hc.commutator(&c_op).frobenius_norm() < 1e-10);
                }
            }
        }
    }

    /// Lemma 1 through the simulator: a serialized driver pass maps
    /// feasible basis states to states supported only on feasible points.
    #[test]
    fn serialized_pass_preserves_feasibility(sys in arb_system(), beta in 0.05f64..1.5) {
        let Some(initial) = sys.first_binary_solution() else { return Ok(()); };
        let Ok(driver) = CommuteDriver::build(&sys) else { return Ok(()); };
        let mut circuit = Circuit::new(sys.n_vars());
        circuit.load_bits(initial);
        for t in driver.ordered_terms(initial) {
            circuit.push(choco_q::qsim::Gate::UBlock(UBlock::from_u_with_angle(&t.u, beta)));
        }
        let state = StateVector::run(&circuit);
        for bits in 0..(1u64 << sys.n_vars()) {
            if state.probability(bits) > 1e-12 {
                prop_assert!(
                    sys.is_satisfied_bits(bits),
                    "infeasible state {bits:b} has probability {}",
                    state.probability(bits)
                );
            }
        }
    }

    /// Lemma 2 through the transpiler: lowering a UBlock never changes the
    /// state (up to 1e-9), for arbitrary u patterns and angles.
    #[test]
    fn lemma2_lowering_is_exact(
        pattern in 0u64..8,
        beta in -1.5f64..1.5,
        input in 0u64..8,
    ) {
        let u: Vec<i8> = (0..3)
            .map(|k| if (pattern >> k) & 1 == 1 { 1 } else { -1 })
            .collect();
        let mut c = Circuit::new(5);
        c.push(choco_q::qsim::Gate::UBlock(UBlock::from_u_with_angle(&u, beta)));
        let lowered = transpile(&c, &TranspileOptions::with_ancillas(vec![3, 4])).unwrap();
        let mut a = StateVector::from_bits(5, input);
        a.apply_circuit(&c);
        let mut b = StateVector::from_bits(5, input);
        b.apply_circuit(&lowered);
        prop_assert!((a.fidelity(&b) - 1.0).abs() < 1e-9);
    }

    /// The penalty expansion agrees with direct evaluation on every
    /// assignment (soft-constraint substrate).
    #[test]
    fn penalty_poly_is_exact(sys in arb_system(), lambda in 0.0f64..20.0) {
        let mut builder = Problem::builder(sys.n_vars()).minimize();
        for eq in sys.eqs() {
            builder = builder.equality(eq.terms.to_vec(), eq.rhs);
        }
        let problem = builder.build().unwrap();
        let poly = problem.penalty_poly(lambda);
        for bits in 0..(1u64 << sys.n_vars()) {
            let direct = problem.cost(bits)
                + lambda * sys.penalty_bits(bits) as f64;
            prop_assert!((poly.eval_bits(bits) - direct).abs() < 1e-9);
        }
    }

    /// Diagonal evolution is exactly a per-state phase: probabilities are
    /// untouched for any polynomial and angle.
    #[test]
    fn diagonal_evolution_preserves_probabilities(
        seed in any::<u64>(),
        gamma in -2.0f64..2.0,
    ) {
        let mut rng = choco_q::mathkit::SplitMix64::new(seed);
        let n = 4usize;
        let mut poly = PhasePoly::new(n);
        for i in 0..n {
            poly.add_linear(i, rng.gen_range_f64(-2.0, 2.0));
        }
        poly.add_quadratic(0, 2, rng.gen_range_f64(-2.0, 2.0));
        let mut prep = Circuit::new(n);
        for q in 0..n {
            prep.h(q);
        }
        prep.cx(0, 1).cx(2, 3);
        let before = StateVector::run(&prep);
        let mut after = before.clone();
        after.apply_diag_poly(&poly, gamma);
        for bits in 0..(1u64 << n) {
            prop_assert!((before.probability(bits) - after.probability(bits)).abs() < 1e-12);
        }
    }

    /// Exact-cover generator contract: every emitted instance is feasible
    /// by construction, and its constraint matrix is exactly the declared
    /// family shape — one all-ones summation row per universe element,
    /// rhs 1, over one variable per subset.
    #[test]
    fn cover_instances_are_feasible_with_declared_shape(
        n_elements in 2usize..9,
        extra_subsets in 0usize..8,
        seed in any::<u64>(),
    ) {
        let n_subsets = (n_elements / 2).max(2) + extra_subsets;
        let problem = cover_random(n_elements, n_subsets, seed).expect("generate");
        prop_assert_eq!(problem.n_vars(), n_subsets);
        prop_assert_eq!(problem.constraints().len(), n_elements);
        for eq in problem.constraints().eqs() {
            prop_assert!(eq.is_summation_format(), "non-summation row: {eq}");
            prop_assert_eq!(eq.rhs, 1);
            prop_assert!(!eq.terms.is_empty(), "uncovered element");
        }
        let feasible = problem.first_feasible();
        prop_assert!(feasible.is_some(), "planted cover lost");
        // The feasible point is an exact cover: every element once.
        let bits = feasible.unwrap();
        for eq in problem.constraints().eqs() {
            let covered: i64 = eq.terms.iter().map(|&(v, c)| c * ((bits >> v) & 1) as i64).sum();
            prop_assert_eq!(covered, 1);
        }
    }

    /// Knapsack generator contract: one budget row whose coefficients are
    /// the item weights followed by slack powers of two, rhs = capacity,
    /// and every under-budget selection extends to a feasible assignment.
    #[test]
    fn knapsack_instances_are_feasible_with_declared_shape(
        n_items in 1usize..8,
        capacity in 2u64..14,
        seed in any::<u64>(),
        selection in any::<u64>(),
    ) {
        let problem = knapsack_random(n_items, capacity, seed).expect("generate");
        prop_assert_eq!(problem.constraints().len(), 1);
        let eq = &problem.constraints().eqs()[0];
        prop_assert_eq!(eq.rhs, capacity as i64);

        // Recover the layout from the constraint row itself.
        let slack_bits = (64 - capacity.leading_zeros()) as usize;
        prop_assert_eq!(problem.n_vars(), n_items + slack_bits);
        prop_assert_eq!(eq.terms.len(), problem.n_vars(), "dense budget row");
        let mut weights = vec![0u64; n_items];
        for &(var, coeff) in eq.terms.iter() {
            prop_assert!(coeff > 0);
            if var < n_items {
                prop_assert!((1..=5).contains(&coeff), "weight range");
                weights[var] = coeff as u64;
            } else {
                prop_assert_eq!(coeff, 1i64 << (var - n_items), "slack powers of two");
            }
        }

        let layout = KnapsackLayout { weights, capacity };
        let items = selection & ((1u64 << n_items) - 1);
        match layout.assignment(items) {
            Some(bits) => prop_assert!(problem.is_feasible(bits)),
            None => prop_assert!(layout.weight_of(items) > capacity),
        }
        prop_assert!(problem.first_feasible().is_some(), "x = 0 must extend");
    }

    /// Exact classical solver and branch-and-bound always agree.
    #[test]
    fn classical_solvers_agree(sys in arb_system(), seed in any::<u64>()) {
        let mut rng = choco_q::mathkit::SplitMix64::new(seed);
        let mut builder = Problem::builder(sys.n_vars()).minimize();
        for v in 0..sys.n_vars() {
            builder = builder.linear(v, rng.gen_range_f64(-4.0, 4.0));
        }
        for eq in sys.eqs() {
            builder = builder.equality(eq.terms.to_vec(), eq.rhs);
        }
        let problem = builder.build().unwrap();
        match (solve_exact(&problem), choco_q::model::BranchAndBound::new().solve(&problem)) {
            (Ok(exact), Ok((bits, value))) => {
                prop_assert!((value - exact.value).abs() < 1e-6);
                prop_assert!(problem.is_feasible(bits));
            }
            (Err(_), Err(_)) => {}
            (a, b) => prop_assert!(false, "solver disagreement: {a:?} vs {b:?}"),
        }
    }
}
