//! Circuit-level analyses used by the evaluation section.

use crate::driver::CommuteDriver;
use choco_qsim::{
    transpile, Circuit, EngineKind, Gate, SimConfig, SparseStateVector, StateVector,
    TranspileOptions,
};
use std::time::{Duration, Instant};

/// The number of basis states with probability above `eps` after each gate
/// of the circuit — the paper's Figure 9(b) "parallelism" metric
/// (#measured states through the circuit) — on the dense engine.
///
/// Index 0 is the initial state (always 1 for a basis-state start).
pub fn support_profile(circuit: &Circuit, eps: f64) -> Vec<usize> {
    let dense = SimConfig::serial().with_engine(EngineKind::Dense);
    support_profile_with(circuit, eps, dense)
}

/// [`support_profile`] on an explicit engine configuration. The dense
/// engine walks a [`StateVector`]; the compact engine walks a
/// [`SparseStateVector`], whose per-gate count reads its occupied-entry
/// list instead of scanning (or even allocating) the `2^n` register —
/// this is how the fig09b harness profiles Choco-Q circuits at widths the
/// dense engine cannot hold. Both report identical counts where they can
/// run (their amplitudes are bit-identical).
pub fn support_profile_with(circuit: &Circuit, eps: f64, config: SimConfig) -> Vec<usize> {
    let n = circuit.n_qubits();
    match config.engine {
        EngineKind::Dense => walk_support(
            StateVector::new_with(n, config),
            circuit,
            StateVector::apply_gate,
            |s| s.support_size(eps),
        ),
        EngineKind::Compact => walk_support(
            SparseStateVector::new_with(n, config),
            circuit,
            SparseStateVector::apply_gate,
            |s| s.support_size(eps),
        ),
    }
}

/// Applies the circuit gate by gate, recording `support` before the first
/// gate and after every gate.
fn walk_support<S>(
    mut state: S,
    circuit: &Circuit,
    apply: fn(&mut S, &Gate),
    support: impl Fn(&S) -> usize,
) -> Vec<usize> {
    let mut profile = Vec::with_capacity(circuit.len() + 1);
    profile.push(support(&state));
    for gate in circuit.iter() {
        apply(&mut state, gate);
        profile.push(support(&state));
    }
    profile
}

/// Cost of lowering the full serialized driver via Lemma 2 — the Choco-Q
/// side of Figure 12.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Lemma2Stats {
    /// Wall time of the lowering.
    pub time: Duration,
    /// Basic gates emitted.
    pub gates: usize,
    /// Transpiled circuit depth.
    pub depth: usize,
    /// Approximate working memory: the gate list itself (the lowering
    /// never materializes a matrix).
    pub memory_bytes: usize,
}

/// Lowers `Π_u e^{-iβHc(u)}` to basic gates with the paper's two clean
/// ancillas and reports cost.
///
/// # Panics
///
/// Panics if the lowering fails (cannot happen with two clean ancillas).
pub fn lemma2_stats(driver: &CommuteDriver, beta: f64) -> Lemma2Stats {
    let n = driver.n_vars();
    let t0 = Instant::now();
    let mut circuit = Circuit::new(n + 2);
    for block in driver.ublocks(beta) {
        circuit.ublock(block);
    }
    let lowered = transpile(&circuit, &TranspileOptions::with_ancillas(vec![n, n + 1]))
        .expect("two clean ancillas always suffice for Lemma 2");
    let time = t0.elapsed();
    Lemma2Stats {
        time,
        gates: lowered.len(),
        depth: lowered.depth(),
        memory_bytes: lowered.len() * std::mem::size_of::<choco_qsim::Gate>(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use choco_mathkit::{LinEq, LinSystem};

    fn ring_driver(n: usize) -> CommuteDriver {
        let mut sys = LinSystem::new(n);
        sys.push(LinEq::new((0..n).map(|i| (i, 1i64)), 1));
        CommuteDriver::build(&sys).unwrap()
    }

    #[test]
    fn support_profile_tracks_spreading() {
        // H then CX: support 1 → 2 → 2.
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        assert_eq!(support_profile(&c, 1e-9), vec![1, 2, 2]);
    }

    #[test]
    fn support_profile_identical_across_engines() {
        let driver = ring_driver(5);
        let mut c = Circuit::new(5);
        c.load_bits(0b00001);
        for block in driver.ublocks(0.6) {
            c.ublock(block);
        }
        let dense = support_profile(&c, 1e-9);
        let compact = SimConfig::serial().with_engine(EngineKind::Compact);
        assert_eq!(support_profile_with(&c, 1e-9, compact), dense);
    }

    #[test]
    fn choco_circuit_parallelism_grows_from_special_initial_state() {
        // Fig. 9(b): even though Choco-Q starts from one feasible basis
        // state, the serialized driver spreads amplitude exponentially.
        let driver = ring_driver(4);
        let mut c = Circuit::new(4);
        c.load_bits(0b0001);
        for block in driver.ublocks(0.7) {
            c.ublock(block);
        }
        let profile = support_profile(&c, 1e-9);
        assert_eq!(profile[0], 1);
        assert!(*profile.last().unwrap() > 1);
        // monotone non-decreasing for this circuit
        for w in profile.windows(2) {
            assert!(w[1] >= w[0]);
        }
    }

    #[test]
    fn lemma2_is_fast_and_linear() {
        let s4 = lemma2_stats(&ring_driver(4), 0.5);
        let s8 = lemma2_stats(&ring_driver(8), 0.5);
        assert!(s4.gates > 0 && s8.gates > s4.gates);
        // Linear-ish growth: doubling qubits must not square the gates.
        assert!(
            (s8.gates as f64) < (s4.gates as f64) * 8.0,
            "s4={} s8={}",
            s4.gates,
            s8.gates
        );
        assert!(s8.time < Duration::from_secs(1));
    }
}
