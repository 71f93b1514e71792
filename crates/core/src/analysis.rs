//! Circuit-level analyses used by the evaluation section.

use crate::driver::CommuteDriver;
use choco_qsim::{transpile_into, Circuit, StatsSink, TranspileOptions};
use std::time::{Duration, Instant};

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
    /// Approximate working memory: the gate list a materialized lowering
    /// would hold (the lowering never materializes a matrix).
    pub memory_bytes: usize,
}

/// Lowers `Π_u e^{-iβHc(u)}` to basic gates with the paper's two clean
/// ancillas and reports cost, counted by a [`StatsSink`].
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
    let options = TranspileOptions::with_ancillas(vec![n, n + 1]);
    let mut lowered = StatsSink::new(n + 2);
    transpile_into(&circuit, &options, &mut lowered)
        .expect("two clean ancillas always suffice for Lemma 2");
    Lemma2Stats {
        time: t0.elapsed(),
        gates: lowered.gates(),
        depth: lowered.depth(),
        memory_bytes: lowered.gates() * std::mem::size_of::<choco_qsim::Gate>(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use choco_mathkit::{LinEq, LinSystem};
    use choco_qsim::{EngineKind, SimConfig, SimWorkspace};

    /// The Figure 9(b) profile of `c` on one engine.
    fn support_profile(c: &Circuit, engine: EngineKind) -> Vec<usize> {
        let config = SimConfig::serial().with_engine(engine);
        SimWorkspace::new(config).support_profile(c, 1e-9).unwrap()
    }

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
        for engine in [EngineKind::Dense, EngineKind::Compact] {
            assert_eq!(support_profile(&c, engine), vec![1, 2, 2]);
        }
    }

    #[test]
    fn support_profile_identical_across_engines() {
        let driver = ring_driver(5);
        let mut c = Circuit::new(5);
        c.load_bits(0b00001);
        for block in driver.ublocks(0.6) {
            c.ublock(block);
        }
        let dense = support_profile(&c, EngineKind::Dense);
        assert_eq!(support_profile(&c, EngineKind::Compact), dense);
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
        let profile = support_profile(&c, EngineKind::Compact);
        assert_eq!(profile[0], 1);
        assert!(*profile.last().unwrap() > 1);
        // monotone non-decreasing for this circuit
        for w in profile.windows(2) {
            assert!(w[1] >= w[0]);
        }
    }

    #[test]
    fn lemma2_stats_equal_the_materialized_lowering() {
        for n in 2..=16 {
            let driver = ring_driver(n);
            let stats = lemma2_stats(&driver, 0.5);
            let mut circuit = Circuit::new(n + 2);
            for block in driver.ublocks(0.5) {
                circuit.ublock(block);
            }
            let options = choco_qsim::TranspileOptions::with_ancillas(vec![n, n + 1]);
            let lowered = choco_qsim::transpile(&circuit, &options).unwrap();
            assert_eq!(
                (stats.gates, stats.depth),
                (lowered.len(), lowered.depth()),
                "n = {n}"
            );
            let bytes = lowered.len() * std::mem::size_of::<choco_qsim::Gate>();
            assert_eq!(stats.memory_bytes, bytes, "n = {n}");
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
