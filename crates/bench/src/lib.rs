//! # choco-bench
//!
//! Performance measurement for the simulation engine: Criterion benches
//! under `benches/` and the headless `bench_json` binary that writes
//! `BENCH_simulation.json` for cross-PR tracking.
//!
//! The paper's tables and figures are **not** reproduced here any more —
//! they are experiment specs under `experiments/`, executed by the
//! `choco-runner` crate via `choco-cli run <spec>` (one engine instead of
//! one binary per figure; see `docs/reproducing.md` for the full
//! figure-to-spec map).

#![warn(missing_docs)]

use choco_qsim::{Circuit, PhasePoly, UBlock};
use std::sync::Arc;

/// Returns `true` when a bench harness should skip slow cases
/// (`--quick` argument or `CHOCO_QUICK=1`).
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick") || std::env::var_os("CHOCO_QUICK").is_some()
}

/// The objective polynomial both bench layers evolve: a nearest-neighbour
/// chain with per-variable linear terms.
fn bench_poly(n: usize) -> PhasePoly {
    let mut poly = PhasePoly::new(n);
    for i in 0..n {
        poly.add_linear(i, 0.3 * i as f64);
        if i + 1 < n {
            poly.add_quadratic(i, i + 1, -0.2);
        }
    }
    poly
}

/// The generic bench layer: a Hadamard wall, one diagonal evolution, and
/// `n/2` serialized three-qubit commute blocks. Register-filling by
/// design — the workload behind the `statevector_layer` groups. One
/// definition serves the Criterion benches and `bench_json`, so their
/// published numbers always describe the same circuit.
pub fn layer_circuit(n: usize) -> Circuit {
    let mut c = Circuit::new(n);
    for q in 0..n {
        c.h(q);
    }
    finish_layer(c, n)
}

/// The whole-iteration bench workload: `layers` full Choco-Q layers
/// (diagonal cost evolution + serialized commute driver) on a
/// multi-one-hot instance — qubits in groups of four (one trailing
/// smaller group), each group one-hot, each layer chaining pair blocks
/// along every group. The feasible subspace has `|F| = Π group_size`
/// (512 at n=18, 2048 at n=22, 4096 at n=24) and the driver is *closed*
/// over it, exactly like a real multi-constraint Choco-Q circuit: the
/// workload behind the `choco_iteration` groups and
/// `BENCH_simulation.json`'s `compact_speedup_vs_dense`.
pub fn choco_onehot_stack(n: usize, layers: usize) -> Circuit {
    choco_onehot_stack_with_angles(n, layers, 0.4, 0.5)
}

/// [`choco_onehot_stack`] with caller-chosen evolution angles: the gate
/// sequence (and therefore the compiled plan) is identical for any angle
/// pair, so K calls with distinct angles produce exactly the same-shape
/// candidate set a batched replay (`SimWorkspace::run_batch`) evaluates
/// in one pass — the workload behind the `choco_iteration_batched_k*`
/// groups.
pub fn choco_onehot_stack_with_angles(
    n: usize,
    layers: usize,
    diag_angle: f64,
    block_angle: f64,
) -> Circuit {
    onehot_stack_impl(n, layers, Arc::new(bench_poly(n)), diag_angle, block_angle)
}

/// Shared-poly body of the onehot stack. Batch candidates must pass
/// clones of **one** `Arc` — the compact plan's shape key ties diagonal
/// gates to the polynomial instance, so per-lane allocations would make
/// every lane a distinct shape and the batch would decline.
fn onehot_stack_impl(
    n: usize,
    layers: usize,
    poly: Arc<PhasePoly>,
    diag_angle: f64,
    block_angle: f64,
) -> Circuit {
    assert!(n >= 2, "need at least one one-hot pair");
    let mut groups: Vec<(usize, usize)> = Vec::new();
    let mut q = 0;
    while q + 4 <= n {
        groups.push((q, 4));
        q += 4;
    }
    if n - q >= 2 {
        groups.push((q, n - q));
    }
    let mut c = Circuit::new(n);
    let init = groups.iter().fold(0u64, |m, &(s, _)| m | (1 << s));
    c.load_bits(init);
    for _ in 0..layers {
        c.diag(poly.clone(), diag_angle);
        for &(s, w) in &groups {
            for j in 0..w - 1 {
                let mut u = vec![0i8; n];
                u[s + j] = 1;
                u[s + j + 1] = -1;
                c.ublock(UBlock::from_u_with_angle(&u, block_angle));
            }
        }
    }
    c
}

/// The K-lane candidate set for the batched bench groups: one
/// [`choco_onehot_stack_with_angles`] circuit per lane, angles varied per
/// lane so no two candidates are trivially identical.
pub fn choco_onehot_candidates(n: usize, layers: usize, k: usize) -> Vec<Circuit> {
    let poly = Arc::new(bench_poly(n));
    (0..k)
        .map(|lane| {
            onehot_stack_impl(
                n,
                layers,
                poly.clone(),
                0.4 + 0.013 * lane as f64,
                0.5 - 0.009 * lane as f64,
            )
        })
        .collect()
}

fn finish_layer(mut c: Circuit, n: usize) -> Circuit {
    c.diag(Arc::new(bench_poly(n)), 0.4);
    for k in 0..n / 2 {
        let mut u = vec![0i8; n];
        u[k] = 1;
        u[(k + 1) % n] = -1;
        u[(k + 2) % n] = 1;
        c.ublock(UBlock::from_u_with_angle(&u, 0.5));
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn onehot_stack_is_confined_and_closed() {
        use choco_qsim::{SimConfig, SimWorkspace};
        let mut ws = SimWorkspace::new(SimConfig::serial());
        let mut occupancy = |c: &Circuit| ws.run(c).occupancy();
        // |F| = 4^2 at n = 8; a second layer must not grow support (the
        // driver is closed over the feasible subspace).
        assert_eq!(occupancy(&choco_onehot_stack(8, 1)), 16);
        assert_eq!(occupancy(&choco_onehot_stack(8, 2)), 16);
        // Trailing sub-4 group: n = 10 adds a one-hot pair.
        assert_eq!(occupancy(&choco_onehot_stack(10, 1)), 32);
    }

    #[test]
    fn quick_mode_reads_env() {
        // The test binary is never invoked with --quick; the env var is
        // the observable lever.
        std::env::remove_var("CHOCO_QUICK");
        assert!(!quick_mode());
        std::env::set_var("CHOCO_QUICK", "1");
        assert!(quick_mode());
        std::env::remove_var("CHOCO_QUICK");
    }
}
