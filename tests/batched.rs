//! Differential tests for the batched multi-angle plan replay.
//!
//! A batched replay evaluates K candidate angle sets of one circuit
//! shape in a single pass over the cached gate plan
//! ([`SimWorkspace::run_batch`]). The contract it must keep — proved here
//! across all six problem families, register widths 4..=14, batch widths
//! K ∈ {1, 2, 3, 8, 17} (non-powers of two and K > |F| included), and
//! 1/2/4 worker threads — is **bit-identity**: every lane's amplitudes,
//! expectations, and deterministic sample histograms equal those of a
//! dense-engine run of that lane's circuit, byte for byte. (A serial
//! compact run is the K = 1 replay itself, so the independent reference
//! is the dense engine.) Each lane's amplitudes also equal its circuit's
//! own K = 1 replay to the bit, sign of zero included, so a lane does not
//! depend on its batch width. The second half locks the resource story: one
//! plan compilation across serial runs × batches × workers sharing a
//! cache, and zero SoA allocations after warmup. The last part checks
//! the four solvers' circuit templates: a bound template equals the
//! circuit each solver built per evaluation before templates existed,
//! and template runs read the bits of a run of the bound circuit.

use choco_q::core::{ChocoQSolver, CommuteDriver, DriverTerm};
use choco_q::mathkit::SplitMix64;
use choco_q::model::Problem;
use choco_q::qsim::{
    Circuit, CircuitTemplate, EngineKind, Gate, PhasePoly, PlanCache, SimConfig, SimWorkspace,
    StateVector,
};
use choco_q::runner::ProblemRef;
use choco_q::solvers::{CyclicQaoaSolver, HeaSolver, PenaltyQaoaSolver};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// The family shapes of `tests/engines.rs`, kept in 4..=14 qubits.
const FAMILY_SHAPES: [&[&str]; 5] = [
    &["flp:2x1", "flp:2x2"],
    &["gcp:2x1x2", "gcp:3x2x2", "gcp:3x3x2"],
    &["kpp:4x3x2", "kpp:4x4x2", "kpp:6x5x2"],
    &["cover:4x6", "cover:5x8", "cover:6x12"],
    &["knapsack:4x6", "knapsack:5x8", "knapsack:6x10"],
];

/// A random summation-constrained builder instance (family index 5).
fn random_instance(seed: u64) -> Problem {
    let mut rng = SplitMix64::new(seed ^ 0xFEED);
    let n = 4 + (rng.gen_range(0, 11) as usize); // 4..=14
    let mut b = Problem::builder(n);
    for i in 0..n {
        b = b.linear(i, rng.gen_range_f64(-3.0, 3.0));
    }
    let half = n / 2;
    let k1 = 1 + rng.gen_range(0, half as u64 - 1) as i64;
    b = b.equality((0..half).map(|i| (i, 1i64)), k1.min(half as i64));
    b.build().expect("valid random instance")
}

fn family_instance(family: usize, seed: u64) -> Problem {
    if family == 5 {
        return random_instance(seed);
    }
    let shapes = FAMILY_SHAPES[family];
    let shape = shapes[(seed % shapes.len() as u64) as usize];
    ProblemRef::parse(shape)
        .expect("valid shape")
        .build(1 + seed % 5)
        .expect("instance generates")
}

/// K same-shape Choco-Q circuits differing only in their angle sets —
/// exactly what an optimizer's simplex batch looks like.
fn candidate_circuits(problem: &Problem, seed: u64, k: usize) -> Option<Vec<Circuit>> {
    let driver = CommuteDriver::build(problem.constraints()).ok()?;
    let initial = problem.first_feasible()?;
    let ordered = driver.ordered_terms(initial);
    let poly = Arc::new(problem.cost_poly());
    let circuits = (0..k)
        .map(|lane| {
            let mut rng = SplitMix64::new(seed ^ 0xC1AC ^ (lane as u64) << 32);
            let params: Vec<f64> = (0..ChocoQSolver::n_params(1, ordered.len()))
                .map(|_| rng.gen_range_f64(-1.5, 1.5))
                .collect();
            ChocoQSolver::build_circuit(&driver, &poly, &ordered, initial, 1, &params)
        })
        .collect();
    Some(circuits)
}

fn compact_threaded(threads: usize) -> SimConfig {
    SimConfig {
        threads,
        parallel_threshold: 1, // force fan-out even on small states
        ..SimConfig::default()
    }
    .with_engine(EngineKind::Compact)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(36))]

    /// The batched-vs-dense differential matrix: each lane of a K-wide
    /// replay is byte-identical (==, not approx) to a serial dense run of
    /// its own circuit — amplitudes, expectations, and 2000-shot sample
    /// histograms — and to its own K = 1 compact replay to the bit, at
    /// every batch width and worker count.
    #[test]
    fn batched_lanes_match_serial_replays_bitwise(
        family in 0usize..6,
        seed in any::<u64>(),
        k_idx in 0usize..5,
    ) {
        let k = [1usize, 2, 3, 8, 17][k_idx];
        let problem = family_instance(family, seed);
        prop_assert!(problem.n_vars() <= 14);
        let Some(circuits) = candidate_circuits(&problem, seed, k) else {
            return Ok(());
        };
        let cost = problem.cost_poly();

        if !SimWorkspace::new(compact_threaded(1)).run(&circuits[0]).is_compact() {
            // Shape fell back (|F| over the cap): batching declines it
            // too, and there is nothing lane-wise to compare.
            prop_assert!(
                SimWorkspace::new(compact_threaded(1)).run_batch(&circuits).is_none(),
                "family={family}: batch accepted a shape serial replay refused"
            );
            return Ok(());
        }

        // Dense references, one serial run per lane.
        let reference: Vec<_> = circuits
            .iter()
            .map(|circuit| {
                let dense = StateVector::run(circuit);
                let mut rng = StdRng::seed_from_u64(seed);
                let histogram = dense.sample(2_000, &mut rng);
                (dense.amplitudes().to_vec(), dense.expectation_diag_poly(&cost), histogram)
            })
            .collect();
        // Serial compact runs (K = 1 replays), which a lane must match to
        // the bit, sign of zero included, at any width.
        let mut serial_ws = SimWorkspace::new(compact_threaded(1));
        let serial: Vec<Vec<_>> = circuits
            .iter()
            .map(|circuit| {
                let state = serial_ws.run(circuit);
                (0..(1u64 << circuit.n_qubits())).map(|bits| state.amplitude(bits)).collect()
            })
            .collect();

        for threads in [1usize, 2, 4] {
            let mut ws = SimWorkspace::new(compact_threaded(threads));
            let batch = ws.run_batch(&circuits).expect("compilable batch");
            prop_assert_eq!(batch.lanes(), k);
            for (lane, (amps, expectation, histogram)) in reference.iter().enumerate() {
                for (bits, expect) in amps.iter().enumerate() {
                    let got = batch.lane(lane).amplitude(bits as u64);
                    prop_assert!(
                        got.re == expect.re && got.im == expect.im,
                        "family={family} threads={threads} K={k} lane={lane} \
                         bits={bits}: batched {got} dense {expect}"
                    );
                    let one = serial[lane][bits];
                    prop_assert!(
                        got.re.to_bits() == one.re.to_bits()
                            && got.im.to_bits() == one.im.to_bits(),
                        "family={family} threads={threads} K={k} lane={lane} \
                         bits={bits}: batched {got:?} serial {one:?}"
                    );
                }
                prop_assert_eq!(
                    batch.lane(lane).expectation_diag_poly(&cost),
                    *expectation,
                    "family={} threads={} K={} lane={}: expectation diverged",
                    family, threads, k, lane
                );
                let mut rng = StdRng::seed_from_u64(seed);
                prop_assert!(
                    batch.lane(lane).sample(2_000, &mut rng) == *histogram,
                    "family={family} threads={threads} K={k} lane={lane}: \
                     sample histogram diverged"
                );
            }
            prop_assert_eq!(ws.plan_compilations(), 1, "one compile per workspace");
        }
    }
}

#[test]
fn batch_wider_than_the_feasible_set_is_exact() {
    // K = 17 lanes on a tiny instance whose |F| is far smaller than K:
    // the rank-major SoA layout must not care which side is wider.
    let problem = family_instance(0, 0); // flp:2x1 — a handful of feasible states
    let circuits = candidate_circuits(&problem, 7, 17).expect("circuits build");
    let mut ws = SimWorkspace::new(compact_threaded(1));
    let batch = ws.run_batch(&circuits).expect("compilable batch");
    assert!(
        batch.lanes() > batch.basis().len(),
        "want K = {} > |F| = {} for this edge case",
        batch.lanes(),
        batch.basis().len()
    );
    let mut serial = SimWorkspace::new(compact_threaded(1));
    for (lane, circuit) in circuits.iter().enumerate() {
        let state = serial.run(circuit);
        for bits in 0..(1u64 << problem.n_vars()) {
            let (a, b) = (batch.lane(lane).amplitude(bits), state.amplitude(bits));
            assert!(a.re == b.re && a.im == b.im, "lane={lane} bits={bits}");
        }
    }
}

#[test]
fn shared_cache_compiles_once_across_workers_and_batches() {
    // The PR-5 compile-once guarantee extended to batching: scoped
    // workers sharing one `Arc<PlanCache>`, each interleaving batched and
    // serial replays of the same shape, still compile it exactly once.
    let problem = family_instance(1, 3);
    let n = problem.n_vars();
    let circuits = candidate_circuits(&problem, 11, 4).expect("circuits build");
    let shared = Arc::new(PlanCache::new());
    std::thread::scope(|scope| {
        for w in 0..4 {
            let shared = Arc::clone(&shared);
            let circuits = &circuits;
            scope.spawn(move || {
                let mut ws = SimWorkspace::with_plan_cache(compact_threaded(1), shared);
                for round in 0..3 {
                    // Worker w cross-checks lane w % K against a serial
                    // run through the same shared cache.
                    let lane = w % circuits.len();
                    let probes: Vec<_> = {
                        let batch = ws.run_batch(circuits).expect("compilable batch");
                        (0..(1u64 << n))
                            .map(|bits| batch.lane(lane).amplitude(bits))
                            .collect()
                    };
                    let state = ws.run(&circuits[lane]);
                    for (bits, probe) in probes.iter().enumerate() {
                        let serial = state.amplitude(bits as u64);
                        assert_eq!(probe.re, serial.re, "worker={w} round={round} bits={bits}");
                        assert_eq!(probe.im, serial.im, "worker={w} round={round} bits={bits}");
                    }
                }
            });
        }
    });
    assert_eq!(
        shared.compilations(),
        1,
        "4 workers × 3 rounds × (batched + serial) must share one compile"
    );
}

#[test]
fn batched_iterations_are_zero_alloc_after_warmup() {
    // The batched analog of the serial engine's zero-alloc contract:
    // after the first replay of a (shape, K), iterating never grows the
    // SoA buffer — and a *narrower* batch reuses the wide allocation.
    let problem = family_instance(2, 5);
    let circuits = candidate_circuits(&problem, 13, 8).expect("circuits build");
    let mut ws = SimWorkspace::new(compact_threaded(1));
    for _ in 0..10 {
        ws.run_batch(&circuits).expect("compilable batch");
    }
    assert_eq!(ws.batch_reallocations(), 1, "one warmup allocation");
    for _ in 0..5 {
        ws.run_batch(&circuits[..3]).expect("narrower batch");
    }
    assert_eq!(ws.batch_reallocations(), 1, "narrower K reuses the buffer");
    assert_eq!(ws.plan_compilations(), 1, "iteration never recompiles");
    // The serial engine was never disturbed by any of it.
    assert_eq!(ws.reallocations(), 0, "serial path untouched");
}

// ---- Circuit templates -------------------------------------------------
//
// The per-evaluation builders each solver used before its circuit became
// a template, kept verbatim as the reference.

fn built_choco(
    driver: &CommuteDriver,
    cost_poly: &Arc<PhasePoly>,
    ordered_terms: &[DriverTerm],
    initial: u64,
    layers: usize,
    params: &[f64],
) -> Circuit {
    let stride = 1 + ordered_terms.len();
    let mut c = Circuit::new(driver.encoded_qubits().max(1));
    c.load_bits(initial);
    for l in 0..layers {
        let gamma = params[l * stride];
        c.diag(cost_poly.clone(), gamma);
        for (t, term) in ordered_terms.iter().enumerate() {
            let beta = params[l * stride + 1 + t];
            c.push(driver.gate_of(term, beta));
        }
    }
    c
}

fn built_penalty(n: usize, poly: &Arc<PhasePoly>, layers: usize, params: &[f64]) -> Circuit {
    let mut c = Circuit::new(n);
    for q in 0..n {
        c.h(q);
    }
    for l in 0..layers {
        let gamma = params[2 * l];
        let beta = params[2 * l + 1];
        c.diag(poly.clone(), gamma);
        for q in 0..n {
            c.rx(q, 2.0 * beta);
        }
    }
    c
}

fn built_cyclic(
    n: usize,
    initial: u64,
    rings: &[Vec<usize>],
    poly: &Arc<PhasePoly>,
    layers: usize,
    params: &[f64],
) -> Circuit {
    let mut c = Circuit::new(n);
    c.load_bits(initial);
    for l in 0..layers {
        let gamma = params[2 * l];
        let beta = params[2 * l + 1];
        c.diag(poly.clone(), gamma);
        for ring in rings {
            for w in ring.windows(2) {
                c.xy(w[0], w[1], beta);
            }
            if ring.len() > 2 {
                c.xy(ring[ring.len() - 1], ring[0], beta);
            }
        }
    }
    c
}

fn built_hea(n: usize, layers: usize, params: &[f64]) -> Circuit {
    let mut c = Circuit::new(n);
    for l in 0..layers {
        for q in 0..n {
            c.ry(q, params[l * n + q]);
        }
        for q in 0..n.saturating_sub(1) {
            c.cz(q, q + 1);
        }
    }
    for q in 0..n {
        c.ry(q, params[layers * n + q]);
    }
    c
}

/// A solver's template, its parameter count, and its reference builder.
type TemplateCase = (
    &'static str,
    CircuitTemplate,
    usize,
    Box<dyn Fn(&[f64]) -> Circuit>,
);

/// Templates of all four solvers at two layers: Choco-Q on an equality
/// class (plain `UBlock` terms) and on B1n (`ShiftBlock` terms over
/// slack registers), and the three baselines on F1, whose summation
/// constraint the cyclic ring encodes.
fn template_cases() -> Vec<TemplateCase> {
    const LAYERS: usize = 2;
    let mut cases: Vec<TemplateCase> = Vec::new();
    for class in ["K1", "B1n"] {
        let problem = ProblemRef::parse(class).unwrap().build(1).unwrap();
        let driver = CommuteDriver::build(problem.constraints()).unwrap();
        let initial = driver.encode_state(problem.first_feasible().unwrap());
        let terms = driver.ordered_terms(initial);
        let poly = Arc::new(problem.cost_poly());
        let template = ChocoQSolver::template(&driver, &poly, &terms, initial, LAYERS);
        let shifts = (template.circuit().iter()).any(|g| matches!(g, Gate::ShiftBlock(_)));
        assert_eq!(shifts, class == "B1n", "{class}: ShiftBlock terms");
        let n_params = ChocoQSolver::n_params(LAYERS, terms.len());
        let build = move |x: &[f64]| built_choco(&driver, &poly, &terms, initial, LAYERS, x);
        cases.push((class, template, n_params, Box::new(build)));
    }
    let problem = ProblemRef::parse("F1").unwrap().build(1).unwrap();
    let n = problem.n_vars();
    let poly = Arc::new(problem.penalty_poly(10.0));
    let template = PenaltyQaoaSolver::template(n, &poly, LAYERS);
    let p = poly.clone();
    let build = move |x: &[f64]| built_penalty(n, &p, LAYERS, x);
    cases.push(("penalty", template, 2 * LAYERS, Box::new(build)));
    let encoding = CyclicQaoaSolver::plan_encoding(&problem);
    let rings: Vec<Vec<usize>> = (encoding.encoded.iter())
        .map(|&i| problem.constraints().eqs()[i].variables().collect())
        .collect();
    assert!(!rings.is_empty(), "F1 has a ring-encodable constraint");
    let initial = problem.first_feasible().unwrap();
    let template = CyclicQaoaSolver::template(n, initial, &rings, &poly, LAYERS);
    let build = move |x: &[f64]| built_cyclic(n, initial, &rings, &poly, LAYERS, x);
    cases.push(("cyclic", template, 2 * LAYERS, Box::new(build)));
    let build = move |x: &[f64]| built_hea(n, LAYERS, x);
    let n_params = HeaSolver::n_params(n, LAYERS);
    cases.push((
        "hea",
        HeaSolver::template(n, LAYERS),
        n_params,
        Box::new(build),
    ));
    cases
}

fn random_params(rng: &mut SplitMix64, n: usize) -> Vec<f64> {
    (0..n).map(|_| rng.gen_range_f64(-1.6, 1.6)).collect()
}

/// The `{:?}` form prints every angle as the shortest decimal that
/// parses back to its bits (sign of zero included), so equal strings
/// mean equal gates with equal angle bits.
fn gate_bits(c: &Circuit) -> Vec<String> {
    c.iter().map(|g| format!("{g:?}")).collect()
}

fn amplitude_bits(state: choco_q::qsim::SimEngine<'_>) -> Vec<(u64, u64)> {
    (0..1u64 << state.n_qubits())
        .map(|bits| state.amplitude(bits))
        .map(|a| (a.re.to_bits(), a.im.to_bits()))
        .collect()
}

#[test]
fn bound_templates_equal_the_per_evaluation_builders_bitwise() {
    let mut rng = SplitMix64::new(0x7E3F);
    for (name, template, n_params, build) in template_cases() {
        let mut reused = template.circuit().clone();
        for _ in 0..16 {
            let x = random_params(&mut rng, n_params);
            let built = build(&x);
            assert_eq!(template.bind(&x), built, "{name}");
            assert_eq!(gate_bits(&template.bind(&x)), gate_bits(&built), "{name}");
            template.bind_into(&x, &mut reused);
            assert_eq!(gate_bits(&reused), gate_bits(&built), "{name} in place");
        }
    }
}

#[test]
fn template_runs_match_bound_circuit_runs_bitwise() {
    let mut rng = SplitMix64::new(0xB17);
    for (name, template, n_params, _) in template_cases() {
        for engine in [EngineKind::Dense, EngineKind::Compact] {
            let config = SimConfig::serial().with_engine(engine);
            let mut by_template = SimWorkspace::new(config);
            let mut by_circuit = SimWorkspace::new(config);
            for k in [1usize, 3, 16] {
                let xs: Vec<Vec<f64>> = (0..k).map(|_| random_params(&mut rng, n_params)).collect();
                let want: Vec<_> = (xs.iter())
                    .map(|x| amplitude_bits(by_circuit.run(&template.bind(x))))
                    .collect();
                for (x, want) in xs.iter().zip(&want) {
                    let got = amplitude_bits(by_template.run_template(&template, x));
                    assert!(got == *want, "{name} {engine} K={k}: serial template run");
                }
                let Some(batch) = by_template.run_template_batch(&template, &xs) else {
                    // Only the dense engine and refused shapes decline.
                    let refused = by_circuit.run(&template.bind(&xs[0])).as_dense().is_some();
                    assert!(refused, "{name} {engine} K={k}: compact plan declined");
                    continue;
                };
                assert_eq!(batch.lanes(), k, "{name} {engine}");
                for (lane, want) in want.iter().enumerate() {
                    let got = amplitude_bits(batch.lane(lane));
                    assert!(got == *want, "{name} {engine} K={k} lane={lane}");
                }
            }
        }
    }
}
