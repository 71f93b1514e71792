//! Allocation guard for the optimizer's evaluation path.
//!
//! A counting global allocator records the bytes each thread allocates.
//! After one warm-up evaluation of each kind, evaluating a circuit
//! template — serially with its expectation, or as a batched chunk of
//! candidates — must allocate nothing: no circuit, no gate, no state,
//! no lane buffer. Checked on both engines, for a Choco-Q template that
//! replays its compact plan and a penalty-QAOA template whose compact
//! plan refuses and runs dense. A support walk too wide for any engine
//! must fail before it allocates a dense buffer.

use choco_q::core::{ChocoQSolver, CommuteDriver};
use choco_q::mathkit::SplitMix64;
use choco_q::qsim::{Circuit, CircuitTemplate, EngineKind, SimConfig, SimWorkspace};
use choco_q::runner::ProblemRef;
use choco_q::solvers::shared::CostSpec;
use choco_q::solvers::PenaltyQaoaSolver;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct Counting;

thread_local! {
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATED.try_with(|n| n.set(n.get() + layout.size() as u64));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATED.try_with(|n| n.set(n.get() + new_size as u64));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Bytes this thread allocated while running `f`.
fn allocated_by(f: impl FnOnce()) -> u64 {
    let before = ALLOCATED.with(Cell::get);
    f();
    ALLOCATED.with(Cell::get) - before
}

/// One evaluation of a candidate group, as the optimizer objective runs
/// it: batched chunks where the plan allows, one candidate at a time
/// otherwise.
fn eval_group(ws: &mut SimWorkspace, t: &CircuitTemplate, cost: &CostSpec<'_>, xs: &[Vec<f64>]) {
    let mut rest = xs;
    while !rest.is_empty() {
        let done = match ws.run_template_batch(t, rest) {
            Some(batch) => {
                for lane in 0..batch.lanes() {
                    std::hint::black_box(cost.expectation(batch.lane(lane)));
                }
                batch.lanes()
            }
            None => {
                std::hint::black_box(cost.expectation(ws.run_template(t, &rest[0])));
                1
            }
        };
        rest = &rest[done..];
    }
}

#[test]
fn template_evaluations_allocate_nothing_after_warmup() {
    let problem = ProblemRef::parse("K1").unwrap().build(1).unwrap();
    let driver = CommuteDriver::build(problem.constraints()).unwrap();
    let initial = driver.encode_state(problem.first_feasible().unwrap());
    let terms = driver.ordered_terms(initial);
    let cost_poly = Arc::new(problem.cost_poly());
    let choco = ChocoQSolver::template(&driver, &cost_poly, &terms, initial, 1);
    let choco_params = ChocoQSolver::n_params(1, terms.len());

    let n = problem.n_vars();
    let penalty_poly = Arc::new(problem.penalty_poly(10.0));
    let penalty = PenaltyQaoaSolver::template(n, &penalty_poly, 2);
    let table = penalty_poly.values_table(1 << n);

    let cases = [
        ("choco-q", &choco, choco_params, CostSpec::Poly(&cost_poly)),
        ("penalty", &penalty, 4, CostSpec::Table(&table)),
    ];
    let mut rng = SplitMix64::new(5);
    for (name, template, n_params, cost) in cases {
        let xs: Vec<Vec<f64>> = (0..16)
            .map(|_| {
                (0..n_params)
                    .map(|_| rng.gen_range_f64(-1.5, 1.5))
                    .collect()
            })
            .collect();
        for engine in [EngineKind::Dense, EngineKind::Compact] {
            let mut ws = SimWorkspace::new(SimConfig::serial().with_engine(engine));
            std::hint::black_box(cost.expectation(ws.run_template(template, &xs[0])));
            eval_group(&mut ws, template, &cost, &xs);
            let serial = allocated_by(|| {
                for i in 0..100 {
                    let state = ws.run_template(template, &xs[i % xs.len()]);
                    std::hint::black_box(cost.expectation(state));
                }
            });
            assert_eq!(serial, 0, "{name} {engine}: 100 serial evaluations");
            let batched = allocated_by(|| {
                for _ in 0..100 {
                    eval_group(&mut ws, template, &cost, &xs);
                }
            });
            assert_eq!(batched, 0, "{name} {engine}: 100 batched groups");
        }
    }
}

#[test]
fn a_support_walk_too_wide_to_densify_errs_without_a_dense_buffer() {
    // 27 Hadamards fill a register past the dense fallback: the plan
    // refuses once its support passes the wide-register cap, and the walk
    // must report that instead of allocating the 2^27-amplitude buffer
    // (2 GiB) or panicking.
    let n = 27;
    let mut circuit = Circuit::new(n);
    for q in 0..n {
        circuit.h(q);
    }
    let mut ws = SimWorkspace::new(SimConfig::serial());
    let mut walked = None;
    let bytes = allocated_by(|| walked = Some(ws.support_profile(&circuit, 1e-9)));
    let err = walked.unwrap().expect_err("no engine holds this walk");
    assert!(err.contains("cannot densify a 27-qubit shape"), "{err}");
    assert!(ws.state().is_none(), "nothing ran");
    let dense_buffer = (1u64 << n) * std::mem::size_of::<choco_q::mathkit::Complex64>() as u64;
    assert!(bytes < dense_buffer / 2, "{bytes} bytes allocated");
}
