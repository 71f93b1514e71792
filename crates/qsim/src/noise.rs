//! Stochastic Pauli noise (Monte-Carlo trajectories).
//!
//! NISQ behaviour is modelled the way the paper's hardware runs experience
//! it: depolarizing-style Pauli errors after each gate (rate depending on
//! gate arity) and independent readout bit-flips at measurement. Trajectory
//! sampling keeps the cost at `O(trajectories · circuit)` instead of a
//! density-matrix simulation's `4^n`.

use crate::circuit::Circuit;
use crate::counts::Counts;
use crate::engine::SimEngine;
use crate::gate::Gate;
use crate::simconfig::SimConfig;
use crate::state::StateVector;
use choco_mathkit::GuideTable;
use rand::Rng;

/// Per-gate and readout error rates.
///
/// # Examples
///
/// ```
/// use choco_qsim::{Circuit, NoiseModel};
/// use rand::SeedableRng;
///
/// let mut c = Circuit::new(2);
/// c.h(0).cx(0, 1);
/// let noise = NoiseModel::new(0.001, 0.01, 0.02);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let counts = noise.sample_noisy(&c, 1000, 20, &mut rng);
/// assert_eq!(counts.shots(), 1000);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NoiseModel {
    /// Pauli error probability after each single-qubit gate.
    pub p1: f64,
    /// Pauli error probability (per involved qubit) after each multi-qubit
    /// gate.
    pub p2: f64,
    /// Readout bit-flip probability per qubit.
    pub readout: f64,
}

impl NoiseModel {
    /// Creates a noise model from the three rates.
    ///
    /// # Panics
    ///
    /// Panics if any rate is outside `[0, 1]`.
    pub fn new(p1: f64, p2: f64, readout: f64) -> Self {
        for (name, p) in [("p1", p1), ("p2", p2), ("readout", readout)] {
            assert!((0.0..=1.0).contains(&p), "{name} = {p} out of [0,1]");
        }
        NoiseModel { p1, p2, readout }
    }

    /// The noiseless model.
    pub fn ideal() -> Self {
        NoiseModel {
            p1: 0.0,
            p2: 0.0,
            readout: 0.0,
        }
    }

    /// `true` when all rates are zero.
    pub fn is_ideal(&self) -> bool {
        self.p1 == 0.0 && self.p2 == 0.0 && self.readout == 0.0
    }

    /// Runs `circuit` under this noise model and samples `shots`
    /// measurements, split across `trajectories` independent error
    /// realizations.
    ///
    /// # Panics
    ///
    /// Panics if `trajectories == 0`.
    pub fn sample_noisy<R: Rng>(
        &self,
        circuit: &Circuit,
        shots: u64,
        trajectories: u32,
        rng: &mut R,
    ) -> Counts {
        self.sample_noisy_with(SimConfig::default(), circuit, shots, trajectories, rng)
    }

    /// [`NoiseModel::sample_noisy`] under an explicit engine configuration
    /// (thread count / threshold) — the trajectory loop is the most
    /// expensive simulation path, so callers with a configured
    /// [`SimConfig`] must not silently fall back to the default.
    ///
    /// # Panics
    ///
    /// Panics if `trajectories == 0`.
    pub fn sample_noisy_with<R: Rng>(
        &self,
        config: SimConfig,
        circuit: &Circuit,
        shots: u64,
        trajectories: u32,
        rng: &mut R,
    ) -> Counts {
        assert!(trajectories > 0, "at least one trajectory required");
        if self.is_ideal() {
            let state = StateVector::run_with(circuit, config);
            return state.sample(shots, rng);
        }
        let mut counts = Counts::new();
        let base = shots / trajectories as u64;
        let remainder = shots % trajectories as u64;
        // One amplitude buffer, one cumulative table and one guide serve
        // every trajectory — no per-trajectory allocation.
        let mut state = StateVector::new_with(circuit.n_qubits(), config);
        let (mut cumulative, mut guide) = (Vec::new(), GuideTable::default());
        for t in 0..trajectories {
            let traj_shots = base + if (t as u64) < remainder { 1 } else { 0 };
            if traj_shots == 0 {
                continue;
            }
            self.run_trajectory_into(circuit, &mut state, rng);
            let engine = SimEngine::Dense(&state);
            engine.fill_cumulative(&mut cumulative);
            guide.build(&cumulative);
            let clean = engine.sample_guided(&cumulative, &mut guide, traj_shots, rng);
            if self.readout == 0.0 {
                counts.merge(&clean);
            } else {
                for (bits, c) in clean.iter() {
                    for _ in 0..c {
                        counts.record(self.flip_readout(bits, circuit.n_qubits(), rng));
                    }
                }
            }
        }
        counts
    }

    /// One noisy execution into a caller-owned state: resets `state` to
    /// `|0…0⟩` in place, then applies each gate followed by randomly drawn
    /// Pauli errors on the involved qubits. Trajectory loops reuse one
    /// amplitude buffer.
    ///
    /// # Panics
    ///
    /// Panics if `state` is narrower than the circuit.
    pub fn run_trajectory_into<R: Rng>(
        &self,
        circuit: &Circuit,
        state: &mut StateVector,
        rng: &mut R,
    ) {
        state.reset_zero();
        for gate in circuit.iter() {
            state.apply_gate(gate);
            let qubits = gate.qubits();
            let p = if qubits.len() == 1 { self.p1 } else { self.p2 };
            if p == 0.0 {
                continue;
            }
            for q in qubits {
                if rng.gen::<f64>() < p {
                    match rng.gen_range(0..3) {
                        0 => state.apply_gate(&Gate::X(q)),
                        1 => state.apply_gate(&Gate::Y(q)),
                        _ => state.apply_gate(&Gate::Z(q)),
                    }
                }
            }
        }
    }

    fn flip_readout<R: Rng>(&self, bits: u64, n_qubits: usize, rng: &mut R) -> u64 {
        let mut out = bits;
        for q in 0..n_qubits {
            if rng.gen::<f64>() < self.readout {
                out ^= 1 << q;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn ideal_model_matches_clean_sampling() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let noise = NoiseModel::ideal();
        assert!(noise.is_ideal());
        let mut rng = StdRng::seed_from_u64(3);
        let counts = noise.sample_noisy(&c, 4000, 10, &mut rng);
        // Only the Bell outcomes appear.
        assert_eq!(counts.count(0b01), 0);
        assert_eq!(counts.count(0b10), 0);
        assert_eq!(counts.shots(), 4000);
    }

    #[test]
    fn heavy_noise_pollutes_outcomes() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let noise = NoiseModel::new(0.2, 0.3, 0.1);
        let mut rng = StdRng::seed_from_u64(5);
        let counts = noise.sample_noisy(&c, 4000, 40, &mut rng);
        // With strong noise the forbidden outcomes must leak in.
        assert!(counts.count(0b01) + counts.count(0b10) > 0);
        assert_eq!(counts.shots(), 4000);
    }

    #[test]
    fn readout_only_noise_flips_basis_state() {
        let c = Circuit::new(3); // identity circuit: ideal outcome |000⟩
        let noise = NoiseModel::new(0.0, 0.0, 0.5);
        let mut rng = StdRng::seed_from_u64(7);
        let counts = noise.sample_noisy(&c, 8000, 1, &mut rng);
        // Each bit flips with p=0.5 → near-uniform over 8 outcomes.
        for bits in 0..8u64 {
            let p = counts.probability(bits);
            assert!((p - 0.125).abs() < 0.03, "p({bits:03b}) = {p}");
        }
    }

    #[test]
    fn noise_reduces_success_probability_monotonically() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2).x(0);
        let mut rng = StdRng::seed_from_u64(11);
        let clean = NoiseModel::ideal().sample_noisy(&c, 4000, 1, &mut rng);
        let noisy = NoiseModel::new(0.05, 0.1, 0.05).sample_noisy(&c, 4000, 40, &mut rng);
        let target = clean.most_frequent().unwrap();
        assert!(noisy.probability(target) < clean.probability(target) + 0.02);
        assert!(noisy.distinct() > clean.distinct());
    }

    #[test]
    #[should_panic(expected = "out of [0,1]")]
    fn rejects_invalid_rates() {
        let _ = NoiseModel::new(1.5, 0.0, 0.0);
    }

    /// The per-shot sampler the trajectory loop used before it drew
    /// through a guide table: one uniform draw per shot, looked up in the
    /// cumulative table by [`choco_mathkit::draw_slot`].
    fn reference_sample_noisy(
        noise: &NoiseModel,
        circuit: &Circuit,
        shots: u64,
        trajectories: u32,
        rng: &mut StdRng,
    ) -> Counts {
        let mut counts = Counts::new();
        let mut state = StateVector::new(circuit.n_qubits());
        let mut cumulative = Vec::new();
        for t in 0..trajectories as u64 {
            let traj_shots =
                shots / trajectories as u64 + u64::from(t < shots % trajectories as u64);
            if traj_shots == 0 {
                continue;
            }
            noise.run_trajectory_into(circuit, &mut state, rng);
            state.fill_cumulative(&mut cumulative);
            let total = cumulative[cumulative.len() - 1];
            let mut clean = Counts::new();
            for _ in 0..traj_shots {
                let r = rng.gen::<f64>() * total;
                clean.record(choco_mathkit::draw_slot(&cumulative, r) as u64);
            }
            if noise.readout == 0.0 {
                counts.merge(&clean);
                continue;
            }
            for (bits, c) in clean.iter() {
                for _ in 0..c {
                    counts.record(noise.flip_readout(bits, circuit.n_qubits(), rng));
                }
            }
        }
        counts
    }

    #[test]
    fn guided_trajectory_sampling_matches_per_shot_draws() {
        let mut gen = StdRng::seed_from_u64(17);
        for case in 0..40u64 {
            let n = gen.gen_range(1..7usize);
            let mut c = Circuit::new(n);
            for _ in 0..gen.gen_range(0..12u32) {
                let q = gen.gen_range(0..n);
                let angle = gen.gen::<f64>() * 6.0;
                match gen.gen_range(0..4u32) {
                    0 => c.h(q),
                    1 => c.ry(q, angle),
                    2 if n > 1 => c.cx(q, (q + 1) % n),
                    _ => c.rz(q, angle),
                };
            }
            let rates = [0.0, 0.02, 0.3];
            let noise = NoiseModel::new(
                rates[gen.gen_range(0..3usize)],
                rates[gen.gen_range(0..3usize)],
                if case % 2 == 0 { 0.0 } else { 0.1 },
            );
            let (shots, trajectories) = (gen.gen_range(0..400u64), gen.gen_range(1..6u32));
            let mut a = StdRng::seed_from_u64(case);
            let mut b = StdRng::seed_from_u64(case);
            assert_eq!(
                noise.sample_noisy(&c, shots, trajectories, &mut a),
                reference_sample_noisy(&noise, &c, shots, trajectories, &mut b),
                "case {case}: {noise:?}"
            );
            assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "case {case}: rng streams");
        }
    }

    #[test]
    fn shots_split_exactly_across_trajectories() {
        let c = Circuit::new(1);
        let noise = NoiseModel::new(0.01, 0.01, 0.0);
        let mut rng = StdRng::seed_from_u64(13);
        let counts = noise.sample_noisy(&c, 1003, 10, &mut rng);
        assert_eq!(counts.shots(), 1003);
    }
}
