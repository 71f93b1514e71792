//! Headless simulation microbenchmarks with machine-readable output.
//!
//! Runs the state-vector kernels at n ∈ {10, 14, 18, 20} on three engines
//! (scan-and-mask scalar baseline, strided fast path, workspace-backed
//! solver path) plus per-kernel micro-measurements, an **end-to-end
//! optimizer-iteration group** (`choco_iteration_*`: one warmed
//! `SimWorkspace::run` of a two-layer multi-one-hot Choco-Q stack on the
//! dense and compact engines at n ∈ {18, 22, 24} — the `ns_per_op`
//! behind `compact_speedup_vs_dense`),
//! full compact solves at F3/G2/F4/G4 (`choco_solve_compact`, n = 15,
//! 18, 21, 24), M2's Lemma-2 lowering materialized vs streamed into a
//! `StatsSink` (`transpile_stats_*`), one warmed optimizer evaluation of
//! K3 with a circuit built per evaluation vs a bound template, serial
//! and as a 16-lane chunk (`choco_eval_*`), the phases a Choco-Q cell
//! repeats (`choco_phase_*`: Δ synthesis over the 20 suite classes, a
//! 10k-shot compact sample, a COBYLA-rebuild-shaped K3 group), and writes
//! `BENCH_simulation.json` so the perf trajectory stays comparable
//! across PRs.
//!
//! ```text
//! cargo run --release -p choco-bench --bin bench_json [-- --out PATH] [--quick]
//! ```
//!
//! `--quick` (or `CHOCO_QUICK=1`) caps the register at n = 14.

use choco_bench::{choco_onehot_candidates, choco_onehot_stack, layer_circuit, quick_mode};
use choco_core::{ChocoQConfig, ChocoQSolver, CommuteDriver};
use choco_qsim::oracle::ScalarStateVector;
use choco_qsim::{
    transpile, transpile_into, EngineKind, SimConfig, SimWorkspace, StateVector, StatsSink,
    TranspileOptions, UBlock,
};
use std::fmt::Write as _;
use std::time::Instant;

/// One measured case.
struct Entry {
    group: &'static str,
    n: usize,
    ns_per_op: f64,
}

/// Median ns/op over `samples` timed samples, each sized to ~`budget_ms`.
fn measure<F: FnMut()>(op: F, samples: usize, budget_ms: f64) -> f64 {
    measure_quartiles(op, samples, budget_ms)[1]
}

/// First quartile, median and third quartile of ns/op, as [`measure`].
fn measure_quartiles<F: FnMut()>(mut op: F, samples: usize, budget_ms: f64) -> [f64; 3] {
    // Calibrate.
    let t0 = Instant::now();
    op();
    let per_iter = t0.elapsed().as_secs_f64().max(1e-9);
    let iters = ((budget_ms / 1e3 / samples as f64) / per_iter).clamp(1.0, 1e7) as u64;
    let mut timings: Vec<f64> = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t0 = Instant::now();
        for _ in 0..iters {
            op();
        }
        timings.push(t0.elapsed().as_nanos() as f64 / iters as f64);
    }
    timings.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let at = |q: usize| timings[(timings.len() - 1) * q / 4];
    [at(1), at(2), at(3)]
}

fn main() {
    let mut out_path = String::from("BENCH_simulation.json");
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--out") {
        out_path = args
            .get(i + 1)
            .unwrap_or_else(|| panic!("--out needs a path"))
            .clone();
    }
    let sizes: &[usize] = if quick_mode() {
        &[10, 14]
    } else {
        &[10, 14, 18, 20]
    };
    let samples = 7;
    let budget_ms = 700.0;
    // Groups that name no engine measure the dense one.
    let config = SimConfig::default().with_engine(EngineKind::Dense);
    let mut entries: Vec<Entry> = Vec::new();

    for &n in sizes {
        eprintln!("measuring n = {n} …");
        let layer = layer_circuit(n);

        entries.push(Entry {
            group: "statevector_layer_scalar",
            n,
            ns_per_op: measure(
                || {
                    std::hint::black_box(ScalarStateVector::run(&layer));
                },
                samples,
                budget_ms,
            ),
        });
        entries.push(Entry {
            group: "statevector_layer",
            n,
            ns_per_op: measure(
                || {
                    std::hint::black_box(StateVector::run_with(&layer, config));
                },
                samples,
                budget_ms,
            ),
        });
        let mut ws = SimWorkspace::new(config);
        ws.run(&layer);
        entries.push(Entry {
            group: "statevector_layer_workspace",
            n,
            ns_per_op: measure(
                || {
                    std::hint::black_box(ws.run(&layer));
                },
                samples,
                budget_ms,
            ),
        });

        // Per-kernel micro benches: a gate and its inverse applied to a
        // persistent superposition state (no per-op clone), halved to give
        // per-gate cost.
        let mut fast_state = StateVector::run_with(&layer, config);
        let mut scalar_state = ScalarStateVector::run(&layer);
        let block = {
            let mut u = vec![0i8; n];
            u[0] = 1;
            u[n / 2] = -1;
            u[n - 1] = 1;
            u
        };
        let fwd = UBlock::from_u_with_angle(&block, 0.5);
        let rev = UBlock::from_u_with_angle(&block, -0.5);
        entries.push(Entry {
            group: "ublock_scalar",
            n,
            ns_per_op: measure(
                || {
                    scalar_state.apply_ublock(&fwd);
                    scalar_state.apply_ublock(&rev);
                },
                samples,
                budget_ms / 2.0,
            ) / 2.0,
        });
        entries.push(Entry {
            group: "ublock",
            n,
            ns_per_op: measure(
                || {
                    fast_state.apply_ublock(&fwd);
                    fast_state.apply_ublock(&rev);
                },
                samples,
                budget_ms / 2.0,
            ) / 2.0,
        });
        let mcp = |angle: f64| choco_qsim::Gate::McPhase {
            qubits: vec![0, n / 2, n - 1],
            angle,
        };
        entries.push(Entry {
            group: "mcphase",
            n,
            ns_per_op: measure(
                || {
                    fast_state.apply_gate(&mcp(0.3));
                    fast_state.apply_gate(&mcp(-0.3));
                },
                samples,
                budget_ms / 2.0,
            ) / 2.0,
        });
        entries.push(Entry {
            group: "hadamard",
            n,
            ns_per_op: measure(
                || {
                    fast_state.apply_gate(&choco_qsim::Gate::H(n / 2));
                    fast_state.apply_gate(&choco_qsim::Gate::H(n / 2));
                },
                samples,
                budget_ms / 2.0,
            ) / 2.0,
        });
    }

    // Whole-iteration sizes: registers past the generic group's, where
    // the dense engine pays for the 2^n it does not need.
    let iteration_sizes: &[usize] = if quick_mode() { &[14] } else { &[18, 22, 24] };
    // Whole-iteration cost per engine: what one optimizer evaluation
    // pays, warmed (buffers allocated, plans compiled) — so dense
    // measures buffer-reuse replay and compact measures plan replay.
    for &n in iteration_sizes {
        eprintln!("measuring choco iteration n = {n} (dense vs compact) …");
        let stack = choco_onehot_stack(n, 2);
        // Warm up: allocate buffers, compile the plan.
        let mut dense = SimWorkspace::new(config);
        dense.run(&stack);
        let mut compact = SimWorkspace::new(config.with_engine(EngineKind::Compact));
        compact.run(&stack);
        let groups: [(_, _, &mut dyn FnMut()); 2] = [
            ("choco_iteration_dense", 3, &mut || {
                std::hint::black_box(dense.run(&stack));
            }),
            ("choco_iteration_compact", samples, &mut || {
                std::hint::black_box(compact.run(&stack));
            }),
        ];
        for (group, samples_here, op) in groups {
            let ns_per_op = measure(op, samples_here, budget_ms / 2.0);
            entries.push(Entry {
                group,
                n,
                ns_per_op,
            });
        }
    }

    // Batched replay: K candidate angle sets of the same onehot stack in
    // one pass over the cached plan (`SimWorkspace::run_batch`). Each
    // `choco_iteration_batched_k*` entry reports the per-iteration
    // **per-candidate** cost (batch time / K), compared against
    // `choco_iteration_compact` — a serial run, which is the same replay
    // with K = 1 — in the `batched_speedup_per_candidate` summary.
    let batch_n = if quick_mode() { 14 } else { 18 };
    let batch_widths: [(&str, usize); 3] = [
        ("choco_iteration_batched_k4", 4),
        ("choco_iteration_batched_k8", 8),
        ("choco_iteration_batched_k16", 16),
    ];
    {
        eprintln!("measuring batched choco iteration n = {batch_n} (K = 4, 8, 16) …");
        let candidates = choco_onehot_candidates(batch_n, 2, 16);
        let mut ws = SimWorkspace::new(config.with_engine(EngineKind::Compact));
        for &(group, k) in &batch_widths {
            ws.run_batch(&candidates[..k])
                .expect("onehot stack must stay on the compact engine");
            entries.push(Entry {
                group,
                n: batch_n,
                ns_per_op: measure(
                    || {
                        std::hint::black_box(ws.run_batch(&candidates[..k]));
                    },
                    samples,
                    budget_ms / 2.0,
                ) / k as f64,
            });
        }
        assert_eq!(ws.plan_compilations(), 1, "one compile across all widths");
    }

    // Driver synthesis: the ternary fast path (equality-only constraints —
    // the slack-encoded knapsack budget) vs the generalized path (native
    // `≤` rows: slack-register sizing, kernel extension, delta
    // attachment), plus the cost of one serialized driver pass on each
    // formulation of the *same seeded items* — native runs the wider
    // encoded register with register-shifting couplings, slack runs plain
    // UBlocks over explicit slack variables. The driver passes run on the
    // compact engine, where Choco-Q solves run; on the dense engine they
    // would measure the 2^n register instead of the driver.
    let synth = {
        let (items, cap) = if quick_mode() {
            (4usize, 6u64)
        } else {
            (8, 10)
        };
        eprintln!("measuring driver synthesis ({items} items, ternary vs generalized) …");
        let slack = choco_problems::knapsack_random_with(
            items,
            cap,
            1,
            choco_problems::KnapsackEncoding::Slack,
        )
        .expect("slack instance");
        let native = choco_problems::knapsack_random_with(
            items,
            cap,
            1,
            choco_problems::KnapsackEncoding::Native,
        )
        .expect("native instance");
        let ternary_build_ns = measure(
            || {
                std::hint::black_box(CommuteDriver::build(slack.constraints()).expect("driver"));
            },
            samples,
            budget_ms / 2.0,
        );
        let generalized_build_ns = measure(
            || {
                std::hint::black_box(CommuteDriver::build(native.constraints()).expect("driver"));
            },
            samples,
            budget_ms / 2.0,
        );
        // One serialized driver pass per formulation (load + every term).
        let layer_of = |problem: &choco_model::Problem| {
            let driver = CommuteDriver::build(problem.constraints()).expect("driver");
            let initial = driver.encode_state(problem.first_feasible().expect("feasible"));
            let mut c = choco_qsim::Circuit::new(driver.encoded_qubits().max(1));
            c.load_bits(initial);
            for gate in driver.gates_ordered(0.37, initial) {
                c.push(gate);
            }
            (c, driver.encoded_qubits())
        };
        let (slack_layer, slack_width) = layer_of(&slack);
        let (native_layer, native_width) = layer_of(&native);
        let mut ws = SimWorkspace::new(config.with_engine(EngineKind::Compact));
        for layer in [&slack_layer, &native_layer] {
            // Warm buffers and compile the plan.
            assert!(ws.run(layer).is_compact(), "driver pass must stay compact");
        }
        let slack_layer_ns = measure(
            || {
                std::hint::black_box(ws.run(&slack_layer));
            },
            samples,
            budget_ms / 2.0,
        );
        let native_layer_ns = measure(
            || {
                std::hint::black_box(ws.run(&native_layer));
            },
            samples,
            budget_ms / 2.0,
        );
        for (group, n, ns) in [
            ("driver_synthesis_ternary", slack.n_vars(), ternary_build_ns),
            (
                "driver_synthesis_generalized",
                native_width,
                generalized_build_ns,
            ),
            ("driver_layer_slack_encoding", slack_width, slack_layer_ns),
            (
                "driver_layer_native_encoding",
                native_width,
                native_layer_ns,
            ),
        ] {
            entries.push(Entry {
                group,
                n,
                ns_per_op: ns,
            });
        }
        (
            items,
            slack.n_vars(),
            native.n_vars(),
            native_width,
            ternary_build_ns,
            generalized_build_ns,
            slack_layer_ns,
            native_layer_ns,
        )
    };

    // Multi-start solve scaling: the whole restart scheduler end to end —
    // every `(branch × restart)` variational loop pre-seeded from its
    // coordinates and fanned out over 1/2/4 restart workers, compact
    // engine, worker workspaces sharing one plan cache. One op = one full
    // `ChocoQSolver::solve_with_workspace`. (On a single-core host the
    // worker counts measure scheduler overhead, not speedup; the JSON
    // records `host_parallelism` alongside.)
    let solve_problem = if quick_mode() {
        choco_problems::instance("F1", 1)
    } else {
        choco_problems::instance("G2", 1)
    };
    let solve_restarts = 8usize;
    let solve_config = |workers: usize| ChocoQConfig {
        restarts: solve_restarts,
        restart_workers: workers,
        max_iters: 10,
        shots: 2_048,
        transpiled_stats: false,
        ..ChocoQConfig::default()
    };
    let solve_n = solve_problem.n_vars();
    for (group, workers) in [
        ("choco_solve_w1", 1usize),
        ("choco_solve_w2", 2),
        ("choco_solve_w4", 4),
    ] {
        eprintln!("measuring choco solve n = {solve_n} ({workers} restart workers) …");
        let solver = ChocoQSolver::new(solve_config(workers));
        let mut ws = SimWorkspace::new(config.with_engine(EngineKind::Compact));
        entries.push(Entry {
            group,
            n: solve_n,
            ns_per_op: measure(
                || {
                    std::hint::black_box(
                        solver
                            .solve_with_workspace(&solve_problem, &mut ws)
                            .expect("solve"),
                    );
                },
                3,
                budget_ms,
            ),
        });
    }
    // Compile-once accounting for the summary: on a fresh shared cache,
    // one parallel solve compiles each distinct circuit shape exactly
    // once across all restarts × workers.
    let (solve_plan_compiles, solve_shapes) = {
        let mut ws = SimWorkspace::new(config.with_engine(EngineKind::Compact));
        ChocoQSolver::new(solve_config(4))
            .solve_with_workspace(&solve_problem, &mut ws)
            .expect("solve");
        (ws.plan_compilations(), ws.cached_plans() as u64)
    };
    assert_eq!(
        solve_plan_compiles, solve_shapes,
        "shared plan cache must compile each shape exactly once"
    );

    // Full compact solves at paper scale: one op = one default-budget
    // `ChocoQSolver::solve_with_workspace` on a fresh compact workspace
    // (driver synthesis, plan compile, every restart's variational loop,
    // final sampling; no transpiled statistics). The compact solver reads
    // the cost at the plan's feasible basis, so no op allocates or fills
    // a `2^n` cost table — at G4 (24 qubits) that table alone was 128 MiB.
    let compact_classes: &[&str] = if quick_mode() {
        &["F3", "G2"]
    } else {
        &["F3", "G2", "F4", "G4"]
    };
    for &class in compact_classes {
        let problem = choco_problems::instance(class, 1);
        let n = problem.n_vars();
        eprintln!("measuring compact choco solve {class} n = {n} …");
        let solver = ChocoQSolver::new(ChocoQConfig {
            transpiled_stats: false,
            ..ChocoQConfig::default()
        });
        entries.push(Entry {
            group: "choco_solve_compact",
            n,
            ns_per_op: measure(
                || {
                    let mut ws = SimWorkspace::new(config.with_engine(EngineKind::Compact));
                    std::hint::black_box(
                        solver
                            .solve_with_workspace(&problem, &mut ws)
                            .expect("solve"),
                    );
                },
                5,
                budget_ms,
            ),
        });
    }

    // Transpiled statistics on the suite's largest lowering: M2 seed 1
    // (native multi-dimensional knapsack), the solver's first driver at
    // the initial angles, widened by the paper's two clean ancillas. The
    // lowered gate count does not depend on the angles, so it is the
    // final circuit's. One op = one full Lemma-2 lowering, either
    // materialized (`transpile` then `depth`/`len`/2-qubit reads) or
    // streamed into a `StatsSink`.
    let transpile_stats = {
        let problem = choco_problems::instance("M2", 1);
        let cfg = ChocoQConfig::default();
        let basis = CommuteDriver::build(problem.constraints()).expect("driver");
        let extended = CommuteDriver::build_extended(
            problem.constraints(),
            cfg.delta_max_support,
            cfg.delta_cap,
        )
        .expect("extended driver");
        let driver = if extended.len() > basis.len() {
            extended
        } else {
            basis
        };
        let initial = driver.encode_state(problem.first_feasible().expect("feasible"));
        let terms = driver.ordered_terms(initial);
        let poly = std::sync::Arc::new(problem.cost_poly());
        let params = ChocoQSolver::initial_params(cfg.layers, terms.len());
        let n = driver.encoded_qubits();
        let circuit =
            ChocoQSolver::build_circuit(&driver, &poly, &terms, initial, cfg.layers, &params)
                .widened(n + 2);
        let opts = TranspileOptions::with_ancillas(vec![n, n + 1]);
        eprintln!(
            "measuring transpiled statistics on M2 seed 1 ({} qubits) …",
            n + 2
        );
        let materialized = || {
            let lowered = transpile(&circuit, &opts).expect("lowering");
            (
                lowered.depth(),
                lowered.len(),
                lowered.multi_qubit_gate_count(),
            )
        };
        let streamed = || {
            let mut sink = StatsSink::new(circuit.n_qubits());
            transpile_into(&circuit, &opts, &mut sink).expect("lowering");
            (sink.depth(), sink.gates(), sink.two_qubit_gates())
        };
        let stats = streamed();
        assert_eq!(
            stats,
            materialized(),
            "streamed stats must equal materialized"
        );
        let mut quartiles = Vec::new();
        for (group, op) in [
            (
                "transpile_stats_materialized",
                &materialized as &dyn Fn() -> _,
            ),
            ("transpile_stats_streamed", &streamed),
        ] {
            let q = measure_quartiles(
                || {
                    std::hint::black_box(op());
                },
                samples,
                budget_ms,
            );
            entries.push(Entry {
                group,
                n: n + 2,
                ns_per_op: q[1],
            });
            quartiles.push(q);
        }
        (n + 2, stats, quartiles)
    };

    // One optimizer evaluation of K3 seed 1's first restart (its first
    // Δ policy from the first feasible point, at the initial angles),
    // warmed, on the compact engine: serial (run + expectation) and as a
    // 16-candidate group (COBYLA-style `x0 + 0.1·e_i` points), once by
    // building circuits per evaluation and once by binding a template.
    let choco_eval = {
        let problem = choco_problems::instance("K3", 1);
        let cfg = ChocoQConfig::default();
        let basis = CommuteDriver::build(problem.constraints()).expect("driver");
        let extended = CommuteDriver::build_extended(
            problem.constraints(),
            cfg.delta_max_support,
            cfg.delta_cap,
        )
        .expect("extended driver");
        let driver = if extended.len() > basis.len() {
            extended
        } else {
            basis
        };
        let initial = driver.encode_state(problem.feasible_solutions(256)[0]);
        let terms = driver.ordered_terms(initial);
        let poly = std::sync::Arc::new(problem.cost_poly());
        let x0 = ChocoQSolver::initial_params(cfg.layers, terms.len());
        let xs: Vec<Vec<f64>> = (0..16)
            .map(|i| {
                let mut x = x0.clone();
                x[i % x0.len()] += 0.1;
                x
            })
            .collect();
        let template = ChocoQSolver::template(&driver, &poly, &terms, initial, cfg.layers);
        let build =
            |x: &[f64]| ChocoQSolver::build_circuit(&driver, &poly, &terms, initial, cfg.layers, x);
        eprintln!("measuring one Choco-Q evaluation on K3 seed 1 (built vs template) …");
        let mut ws = SimWorkspace::new(SimConfig::serial().with_engine(EngineKind::Compact));
        let mut quartiles = Vec::new();
        type EvalOp<'a> = &'a mut dyn FnMut(&mut SimWorkspace);
        let ops: [(&str, EvalOp); 4] = [
            ("choco_eval_built", &mut |ws: &mut SimWorkspace| {
                let state = ws.run(&build(&x0));
                std::hint::black_box(state.expectation_diag_poly(&poly));
            }),
            ("choco_eval_built_k16", &mut |ws: &mut SimWorkspace| {
                let circuits: Vec<_> = xs.iter().map(|x| build(x)).collect();
                let batch = ws.run_batch(&circuits).expect("compact batch");
                for lane in 0..batch.lanes() {
                    std::hint::black_box(batch.lane(lane).expectation_diag_poly(&poly));
                }
            }),
            ("choco_eval_template", &mut |ws: &mut SimWorkspace| {
                let state = ws.run_template(&template, &x0);
                std::hint::black_box(state.expectation_diag_poly(&poly));
            }),
            ("choco_eval_template_k16", &mut |ws: &mut SimWorkspace| {
                // In chunks, as the objective does: the group's centre is
                // no candidate, so it leads the first chunk as an extra
                // lane and 15 candidates fit beside it.
                let mut rest = &xs[..];
                while !rest.is_empty() {
                    let batch = ws
                        .run_template_batch(&template, rest)
                        .expect("compact batch");
                    for lane in 0..batch.lanes() {
                        std::hint::black_box(batch.lane(lane).expectation_diag_poly(&poly));
                    }
                    rest = &rest[batch.lanes()..];
                }
            }),
        ];
        for (group, op) in ops {
            op(&mut ws); // warm-up: plan compile, buffers, template lanes
            let q = measure_quartiles(|| op(&mut ws), samples, budget_ms);
            entries.push(Entry {
                group,
                n: driver.encoded_qubits(),
                ns_per_op: q[1],
            });
            quartiles.push(q);
        }
        (driver.encoded_qubits(), quartiles)
    };

    // The phases a Choco-Q cell repeats, measured apart: Δ synthesis (the
    // basis driver extended as the solver does it) over the 20 suite
    // classes at seed 1, one 10k-shot sample of K3's state at its initial
    // angles, and K3's candidate group shaped like a COBYLA geometry
    // rebuild (the centre moved along every axis, the centre itself not a
    // candidate), evaluated in template chunks as the objective does.
    let cell_phases = {
        eprintln!("measuring Choco-Q cell phases (Δ synthesis, sampling, rebuild group) …");
        let cfg = ChocoQConfig::default();
        let classes: Vec<_> = (choco_problems::ALL_CLASSES.iter())
            .chain(&choco_problems::NATIVE_CLASSES)
            .map(|class| choco_problems::instance(class, 1))
            .collect();
        let delta = measure_quartiles(
            || {
                for problem in &classes {
                    let constraints = problem.constraints();
                    let basis = CommuteDriver::build(constraints).expect("driver");
                    let extended =
                        basis.extended(constraints, cfg.delta_max_support, cfg.delta_cap);
                    std::hint::black_box((basis, extended));
                }
            },
            samples,
            budget_ms,
        );
        let problem = choco_problems::instance("K3", 1);
        let basis = CommuteDriver::build(problem.constraints()).expect("driver");
        let driver = basis.extended(problem.constraints(), cfg.delta_max_support, cfg.delta_cap);
        let initial = driver.encode_state(problem.feasible_solutions(256)[0]);
        let terms = driver.ordered_terms(initial);
        let poly = std::sync::Arc::new(problem.cost_poly());
        let template = ChocoQSolver::template(&driver, &poly, &terms, initial, cfg.layers);
        let centre = ChocoQSolver::initial_params(cfg.layers, terms.len());
        let mut ws = SimWorkspace::new(SimConfig::serial().with_engine(EngineKind::Compact));
        ws.run_template(&template, &centre);
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(1);
        let sample = measure_quartiles(
            || {
                std::hint::black_box(ws.sample(10_000, &mut rng));
            },
            samples,
            budget_ms,
        );
        let rebuild: Vec<Vec<f64>> = (0..centre.len())
            .map(|i| {
                let mut x = centre.clone();
                x[i] += 0.1;
                x
            })
            .collect();
        let mut group = || {
            let mut rest = &rebuild[..];
            while !rest.is_empty() {
                let batch = ws
                    .run_template_batch(&template, rest)
                    .expect("compact batch");
                for lane in 0..batch.lanes() {
                    std::hint::black_box(batch.lane(lane).expectation_diag_poly(&poly));
                }
                rest = &rest[batch.lanes()..];
            }
        };
        group(); // warm-up: lane circuits and buffers
        let rebuild_group = measure_quartiles(group, samples, budget_ms);
        for (name, q) in [
            ("choco_phase_delta_suite", delta),
            ("choco_phase_sample_10k", sample),
            ("choco_phase_rebuild_group", rebuild_group),
        ] {
            entries.push(Entry {
                group: name,
                n: driver.encoded_qubits(),
                ns_per_op: q[1],
            });
        }
        (classes.len(), rebuild.len(), [delta, sample, rebuild_group])
    };

    // Solve-as-a-service latency: one in-process `choco-serve` session
    // over OS pipes. The first job pays plan compilation (cold cache);
    // an identically-shaped second job replays the daemon-global plan
    // cache (warm). Measured: submission→first-record latency and mean
    // per-cell latency, each cold vs warm.
    let serve_stats = {
        eprintln!("measuring choco-serve latency (cold vs warm plan cache) …");
        let state_dir =
            std::env::temp_dir().join(format!("choco_bench_serve_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&state_dir);
        let opts = choco_runner::ServeOptions {
            state_dir: state_dir.clone(),
            queue_cap: 256,
            run: choco_runner::RunOptions {
                workers: 1,
                engine: Some(EngineKind::Compact),
                ..choco_runner::RunOptions::default()
            },
            ..choco_runner::ServeOptions::default()
        };
        let serve_cells = 4usize;
        let submit = |name: &str| {
            format!(
                "{{\"op\": \"submit\", \"job\": {{\"name\": \"{name}\", \"problems\": [\"F1\"], \
                 \"solvers\": [\"choco-q\"], \"seeds\": [1, 2, 3, 4], \"shots\": 2048, \
                 \"max_iters\": 10, \"restarts\": 2, \"transpiled_stats\": false}}}}\n"
            )
        };
        let (req_read, req_write) = std::io::pipe().expect("request pipe");
        let (event_read, event_write) = std::io::pipe().expect("event pipe");
        let stats = std::thread::scope(|scope| {
            scope.spawn(|| {
                choco_runner::serve::serve(&opts, std::io::BufReader::new(req_read), event_write)
                    .expect("serve session");
            });
            use std::io::{BufRead, Write as _};
            let mut requests = req_write;
            let mut events = std::io::BufReader::new(event_read).lines();
            // (first_record_ns, total_ns, plan compilations so far).
            let mut run_job = |name: &str| -> (f64, f64, u64) {
                let t0 = Instant::now();
                requests.write_all(submit(name).as_bytes()).expect("submit");
                requests.flush().expect("flush");
                let mut first_record = None;
                loop {
                    let line = events.next().expect("event stream").expect("event line");
                    if line.contains("\"event\": \"record\"") && first_record.is_none() {
                        first_record = Some(t0.elapsed().as_nanos() as f64);
                    }
                    if line.contains("\"event\": \"done\"") {
                        break;
                    }
                    assert!(
                        !line.contains("\"event\": \"rejected\""),
                        "bench job rejected: {line}"
                    );
                }
                let total = t0.elapsed().as_nanos() as f64;
                requests.write_all(b"{\"op\": \"stats\"}\n").expect("stats");
                let compilations = loop {
                    let line = events.next().expect("event stream").expect("stats line");
                    if line.contains("\"event\": \"stats\"") {
                        let at = line.find("\"compilations\": ").expect("compilations field");
                        break line[at + "\"compilations\": ".len()..]
                            .chars()
                            .take_while(char::is_ascii_digit)
                            .collect::<String>()
                            .parse::<u64>()
                            .expect("compilation count");
                    }
                };
                (
                    first_record.expect("at least one record"),
                    total,
                    compilations,
                )
            };
            let (cold_first, cold_total, cold_compilations) = run_job("cold");
            // Two warm passes; keep the faster (one-shot latency is noisy).
            let (warm_first_a, warm_total_a, _) = run_job("warm-a");
            let (warm_first_b, warm_total_b, warm_compilations) = run_job("warm-b");
            assert_eq!(
                warm_compilations, cold_compilations,
                "identically-shaped jobs must compile zero new plans"
            );
            requests
                .write_all(b"{\"op\": \"shutdown\"}\n")
                .expect("shutdown");
            drop(requests);
            (
                cold_first,
                cold_total,
                warm_first_a.min(warm_first_b),
                warm_total_a.min(warm_total_b),
                cold_compilations,
            )
        });
        let _ = std::fs::remove_dir_all(&state_dir);
        let (cold_first, cold_total, warm_first, warm_total, cold_compilations) = stats;
        for (group, ns) in [
            ("choco_serve_first_record_cold", cold_first),
            ("choco_serve_first_record_warm", warm_first),
            ("choco_serve_per_cell_cold", cold_total / serve_cells as f64),
            ("choco_serve_per_cell_warm", warm_total / serve_cells as f64),
        ] {
            entries.push(Entry {
                group,
                n: serve_cells,
                ns_per_op: ns,
            });
        }
        (
            serve_cells,
            cold_first,
            warm_first,
            cold_total,
            warm_total,
            cold_compilations,
        )
    };

    // Assemble JSON by hand (no serde in the workspace).
    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"simulation\",\n");
    let _ = writeln!(
        json,
        "  \"sim_threads\": {},\n  \"host_parallelism\": {},",
        config.threads,
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    );
    json.push_str("  \"unit\": \"ns_per_op\",\n  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"group\": \"{}\", \"n\": {}, \"ns_per_op\": {:.1}}}",
            e.group, e.n, e.ns_per_op
        );
        json.push_str(if i + 1 < entries.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n  \"speedup_vs_scalar\": {\n");
    let mut lines = Vec::new();
    for &n in sizes {
        let find = |g: &str| {
            entries
                .iter()
                .find(|e| e.group == g && e.n == n)
                .map(|e| e.ns_per_op)
        };
        if let (Some(scalar), Some(fast), Some(ws)) = (
            find("statevector_layer_scalar"),
            find("statevector_layer"),
            find("statevector_layer_workspace"),
        ) {
            lines.push(format!(
                "    \"statevector_layer/{n}\": {{\"fast\": {:.2}, \"workspace\": {:.2}}}",
                scalar / fast,
                scalar / ws
            ));
        }
    }
    json.push_str(&lines.join(",\n"));
    json.push_str("\n  },\n  \"compact_speedup_vs_dense\": {\n");
    let mut lines = Vec::new();
    for &n in iteration_sizes {
        let find = |g: &str| {
            entries
                .iter()
                .find(|e| e.group == g && e.n == n)
                .map(|e| e.ns_per_op)
        };
        if let (Some(dense), Some(compact)) = (
            find("choco_iteration_dense"),
            find("choco_iteration_compact"),
        ) {
            lines.push(format!(
                "    \"choco_iteration/{n}\": {:.1}",
                dense / compact
            ));
        }
    }
    json.push_str(&lines.join(",\n"));
    json.push_str("\n  },\n  \"batched_speedup_per_candidate\": {\n");
    {
        let find = |g: &str| {
            entries
                .iter()
                .find(|e| e.group == g && e.n == batch_n)
                .map(|e| e.ns_per_op)
                .expect("batched group measured")
        };
        let serial = find("choco_iteration_compact");
        let mut lines = vec![format!("    \"n\": {batch_n}")];
        for &(group, k) in &batch_widths {
            let per_candidate = find(group);
            lines.push(format!(
                "    \"k{k}\": {{\"ns_per_candidate\": {:.1}, \"vs_serial_compact\": {:.2}}}",
                per_candidate,
                serial / per_candidate
            ));
        }
        json.push_str(&lines.join(",\n"));
    }
    json.push_str("\n  },\n  \"choco_driver_synthesis\": {\n");
    {
        let (
            items,
            slack_vars,
            native_vars,
            encoded_qubits,
            ternary_build_ns,
            generalized_build_ns,
            slack_layer_ns,
            native_layer_ns,
        ) = synth;
        let _ = writeln!(
            json,
            "    \"items\": {items},\n    \"slack_vars\": {slack_vars},\n    \
             \"native_vars\": {native_vars},\n    \"encoded_qubits\": {encoded_qubits},\n    \
             \"ternary_build_ns\": {ternary_build_ns:.1},\n    \
             \"generalized_build_ns\": {generalized_build_ns:.1},\n    \
             \"generalized_build_speedup_vs_ternary\": {:.1},\n    \
             \"slack_layer_ns\": {slack_layer_ns:.1},\n    \
             \"native_layer_ns\": {native_layer_ns:.1},\n    \
             \"native_vs_slack_layer\": {:.2}",
            ternary_build_ns / generalized_build_ns,
            native_layer_ns / slack_layer_ns
        );
    }
    json.push_str("  },\n  \"choco_solve_multistart\": {\n");
    {
        let find = |g: &str| {
            entries
                .iter()
                .find(|e| e.group == g && e.n == solve_n)
                .map(|e| e.ns_per_op)
        };
        let w1 = find("choco_solve_w1").expect("solve group measured");
        let w2 = find("choco_solve_w2").expect("solve group measured");
        let w4 = find("choco_solve_w4").expect("solve group measured");
        let _ = writeln!(
            json,
            "    \"n\": {solve_n},\n    \"restarts\": {solve_restarts},\n    \
             \"speedup_w2\": {:.2},\n    \"speedup_w4\": {:.2},\n    \
             \"plan_compilations_per_solve\": {solve_plan_compiles},\n    \
             \"circuit_shapes\": {solve_shapes}",
            w1 / w2,
            w1 / w4
        );
    }
    json.push_str("  },\n  \"choco_serve_latency\": {\n");
    {
        let (cells, cold_first, warm_first, cold_total, warm_total, compilations) = serve_stats;
        let _ = writeln!(
            json,
            "    \"cells\": {cells},\n    \
             \"first_record_cold_ms\": {:.3},\n    \
             \"first_record_warm_ms\": {:.3},\n    \
             \"per_cell_cold_ms\": {:.3},\n    \
             \"per_cell_warm_ms\": {:.3},\n    \
             \"cold_plan_compilations\": {compilations},\n    \
             \"warm_plan_compilations\": 0,\n    \
             \"first_record_speedup_warm\": {:.2}",
            cold_first / 1e6,
            warm_first / 1e6,
            cold_total / cells as f64 / 1e6,
            warm_total / cells as f64 / 1e6,
            cold_first / warm_first
        );
    }
    json.push_str("  },\n  \"transpile_stats\": {\n");
    {
        let (qubits, (depth, gates, two_qubit), quartiles) = &transpile_stats;
        let spread = |q: &[f64; 3]| {
            format!(
                "{{\"q1\": {:.1}, \"median\": {:.1}, \"q3\": {:.1}}}",
                q[0], q[1], q[2]
            )
        };
        let _ = writeln!(
            json,
            "    \"problem\": \"M2\",\n    \"seed\": 1,\n    \"qubits\": {qubits},\n    \
             \"lowered_gates\": {gates},\n    \"lowered_depth\": {depth},\n    \
             \"two_qubit_gates\": {two_qubit},\n    \
             \"materialized_ns\": {},\n    \"streamed_ns\": {},\n    \
             \"streamed_speedup\": {:.2}",
            spread(&quartiles[0]),
            spread(&quartiles[1]),
            quartiles[0][1] / quartiles[1][1]
        );
    }
    json.push_str("  },\n  \"choco_eval\": {\n");
    {
        let (qubits, quartiles) = &choco_eval;
        let spread = |q: &[f64; 3]| {
            format!(
                "{{\"q1\": {:.1}, \"median\": {:.1}, \"q3\": {:.1}}}",
                q[0], q[1], q[2]
            )
        };
        let _ = writeln!(
            json,
            "    \"problem\": \"K3\",\n    \"seed\": 1,\n    \"qubits\": {qubits},\n    \
             \"built_ns\": {},\n    \"built_k16_ns\": {},\n    \
             \"template_ns\": {},\n    \"template_k16_ns\": {},\n    \
             \"template_speedup\": {:.2},\n    \"template_k16_speedup\": {:.2}",
            spread(&quartiles[0]),
            spread(&quartiles[1]),
            spread(&quartiles[2]),
            spread(&quartiles[3]),
            quartiles[0][1] / quartiles[2][1],
            quartiles[1][1] / quartiles[3][1]
        );
    }
    json.push_str("  },\n  \"choco_cell_phases\": {\n");
    {
        let (classes, candidates, quartiles) = &cell_phases;
        let spread = |q: &[f64; 3]| {
            format!(
                "{{\"q1\": {:.1}, \"median\": {:.1}, \"q3\": {:.1}}}",
                q[0], q[1], q[2]
            )
        };
        let _ = writeln!(
            json,
            "    \"host_parallelism\": {},\n    \"delta_suite_classes\": {classes},\n    \
             \"delta_suite_ns\": {},\n    \"sample_problem\": \"K3\",\n    \
             \"sample_10k_ns\": {},\n    \"rebuild_candidates\": {candidates},\n    \
             \"rebuild_group_ns\": {}",
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            spread(&quartiles[0]),
            spread(&quartiles[1]),
            spread(&quartiles[2])
        );
    }
    json.push_str("  }\n}\n");

    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("write {out_path}: {e}"));
    println!("{json}");
    eprintln!("wrote {out_path}");
}
