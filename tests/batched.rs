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
//! cache, and zero SoA allocations after warmup.

use choco_q::core::{ChocoQSolver, CommuteDriver};
use choco_q::mathkit::SplitMix64;
use choco_q::model::Problem;
use choco_q::qsim::{Circuit, EngineKind, PlanCache, SimConfig, SimWorkspace, StateVector};
use choco_q::runner::ProblemRef;
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
