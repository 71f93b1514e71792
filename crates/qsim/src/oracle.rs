//! The scan-and-mask reference engine.
//!
//! [`ScalarStateVector`] preserves the original single-threaded kernels
//! that iterate all `2^n` indices and filter by mask. It exists for two
//! jobs only:
//!
//! 1. **Test oracle** — property tests drive random circuits through both
//!    engines and require 1e-10 agreement (`tests/kernels.rs` and the
//!    `state` unit tests).
//! 2. **Bench baseline** — the `statevector_layer` Criterion bench and the
//!    `bench_json` emitter measure the fast path against this baseline so
//!    the speedup is tracked across PRs in `BENCH_simulation.json`.
//!
//! Production code paths must use [`crate::StateVector`].

use crate::circuit::{Circuit, MAX_QUBITS};
use crate::gate::{Gate, ShiftBlock, UBlock};
use crate::phasepoly::PhasePoly;
use crate::state::StateVector;
use choco_mathkit::Complex64;

/// A state vector evolved by the original O(2^n)-per-gate scalar kernels.
#[derive(Clone, Debug)]
pub struct ScalarStateVector {
    n_qubits: usize,
    amps: Vec<Complex64>,
}

impl ScalarStateVector {
    /// The all-zeros state `|0…0⟩`.
    pub fn new(n_qubits: usize) -> Self {
        assert!(n_qubits <= MAX_QUBITS, "at most {MAX_QUBITS} qubits");
        let mut amps = vec![Complex64::ZERO; 1 << n_qubits];
        amps[0] = Complex64::ONE;
        ScalarStateVector { n_qubits, amps }
    }

    /// A computational basis state `|bits⟩`.
    pub fn from_bits(n_qubits: usize, bits: u64) -> Self {
        let mut s = ScalarStateVector::new(n_qubits);
        s.amps[0] = Complex64::ZERO;
        s.amps[bits as usize] = Complex64::ONE;
        s
    }

    /// Runs a circuit from `|0…0⟩`.
    pub fn run(circuit: &Circuit) -> Self {
        let mut s = ScalarStateVector::new(circuit.n_qubits());
        s.apply_circuit(circuit);
        s
    }

    /// Number of qubits.
    #[inline]
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Borrow of all amplitudes.
    #[inline]
    pub fn amplitudes(&self) -> &[Complex64] {
        &self.amps
    }

    /// Applies every gate of a circuit in order.
    pub fn apply_circuit(&mut self, circuit: &Circuit) {
        assert!(
            circuit.n_qubits() <= self.n_qubits,
            "circuit wider than state"
        );
        for g in circuit.iter() {
            self.apply_gate(g);
        }
    }

    /// Applies a single gate with the scan-and-mask kernels.
    pub fn apply_gate(&mut self, gate: &Gate) {
        match gate {
            Gate::Cx(c, t) => self.apply_mcx(1u64 << c, *t),
            Gate::Cz(a, b) => self.apply_mcphase((1u64 << a) | (1u64 << b), std::f64::consts::PI),
            Gate::Cp(a, b, theta) => self.apply_mcphase((1u64 << a) | (1u64 << b), *theta),
            Gate::Swap(a, b) => self.apply_swap(*a, *b),
            Gate::Ccx(c1, c2, t) => self.apply_mcx((1u64 << c1) | (1u64 << c2), *t),
            Gate::Mcx { controls, target } => {
                let mask = controls.iter().fold(0u64, |m, &q| m | (1 << q));
                self.apply_mcx(mask, *target);
            }
            Gate::McPhase { qubits, angle } => {
                let mask = qubits.iter().fold(0u64, |m, &q| m | (1 << q));
                self.apply_mcphase(mask, *angle);
            }
            Gate::ControlledU {
                controls,
                target,
                matrix,
            } => {
                let mask = controls.iter().fold(0u64, |m, &q| m | (1 << q));
                self.apply_controlled_1q(mask, *matrix, *target);
            }
            Gate::UBlock(b) => self.apply_ublock(b),
            Gate::ShiftBlock(b) => self.apply_shift_block(b),
            Gate::XyMix(a, b, theta) => {
                let full = (1u64 << a) | (1u64 << b);
                self.apply_block_masks(full, 1u64 << a, 2.0 * theta);
            }
            Gate::DiagPhase(poly, theta) => self.apply_diag_poly(poly, *theta),
            g1q => {
                let m = g1q
                    .matrix_1q()
                    .unwrap_or_else(|| panic!("unhandled gate {g1q}"));
                self.apply_1q(m, g1q.qubits()[0]);
            }
        }
    }

    /// Applies a 2×2 unitary to qubit `q` (stride walk over all pairs).
    pub fn apply_1q(&mut self, m: [[Complex64; 2]; 2], q: usize) {
        let step = 1usize << q;
        let dim = self.amps.len();
        let mut base = 0usize;
        while base < dim {
            for i in base..base + step {
                let j = i + step;
                let a0 = self.amps[i];
                let a1 = self.amps[j];
                self.amps[i] = m[0][0] * a0 + m[0][1] * a1;
                self.amps[j] = m[1][0] * a0 + m[1][1] * a1;
            }
            base += step << 1;
        }
    }

    /// Controlled 2×2 unitary: full scan filtered by the control mask.
    pub fn apply_controlled_1q(&mut self, controls_mask: u64, m: [[Complex64; 2]; 2], q: usize) {
        let t = 1u64 << q;
        for i in 0..self.amps.len() as u64 {
            if i & controls_mask == controls_mask && i & t == 0 {
                let j = (i | t) as usize;
                let i = i as usize;
                let a0 = self.amps[i];
                let a1 = self.amps[j];
                self.amps[i] = m[0][0] * a0 + m[0][1] * a1;
                self.amps[j] = m[1][0] * a0 + m[1][1] * a1;
            }
        }
    }

    fn apply_swap(&mut self, a: usize, b: usize) {
        let (ma, mb) = (1u64 << a, 1u64 << b);
        for i in 0..self.amps.len() as u64 {
            if i & ma == ma && i & mb == 0 {
                let j = (i ^ ma) | mb;
                self.amps.swap(i as usize, j as usize);
            }
        }
    }

    fn apply_mcx(&mut self, controls_mask: u64, target: usize) {
        let t = 1u64 << target;
        for i in 0..self.amps.len() as u64 {
            if i & controls_mask == controls_mask && i & t == 0 {
                self.amps.swap(i as usize, (i | t) as usize);
            }
        }
    }

    fn apply_mcphase(&mut self, mask: u64, angle: f64) {
        let phase = Complex64::cis(angle);
        for i in 0..self.amps.len() as u64 {
            if i & mask == mask {
                self.amps[i as usize] *= phase;
            }
        }
    }

    /// Commute-Hamiltonian block via full scan.
    pub fn apply_ublock(&mut self, block: &UBlock) {
        let mut full_mask = 0u64;
        let mut v_mask = 0u64;
        for (k, &q) in block.support.iter().enumerate() {
            full_mask |= 1 << q;
            if (block.pattern >> k) & 1 == 1 {
                v_mask |= 1 << q;
            }
        }
        self.apply_block_masks(full_mask, v_mask, block.angle);
    }

    fn apply_block_masks(&mut self, full_mask: u64, v_mask: u64, theta: f64) {
        let cos = Complex64::from_re(theta.cos());
        let nisin = Complex64::new(0.0, -theta.sin());
        for i in 0..self.amps.len() as u64 {
            if i & full_mask == v_mask {
                let j = (i ^ full_mask) as usize;
                let i = i as usize;
                let a = self.amps[i];
                let b = self.amps[j];
                self.amps[i] = cos * a + nisin * b;
                self.amps[j] = nisin * a + cos * b;
            }
        }
    }

    /// Generalized commute block with slack-register shifts, via full scan:
    /// every eligible source index rotates with its shifted partner,
    /// ineligible indices are identity.
    pub fn apply_shift_block(&mut self, block: &ShiftBlock) {
        if block.shifts.is_empty() {
            self.apply_block_masks(block.full_mask(), block.pattern_abs(), block.angle);
            return;
        }
        let full_mask = block.full_mask();
        let v_mask = block.pattern_abs();
        let cos = Complex64::from_re(block.angle.cos());
        let nisin = Complex64::new(0.0, -block.angle.sin());
        for i in 0..self.amps.len() as u64 {
            if i & full_mask == v_mask {
                let Some(j) = block.forward(i) else {
                    continue;
                };
                let (i, j) = (i as usize, j as usize);
                let a = self.amps[i];
                let b = self.amps[j];
                self.amps[i] = cos * a + nisin * b;
                self.amps[j] = nisin * a + cos * b;
            }
        }
    }

    /// Diagonal evolution by per-index polynomial evaluation.
    pub fn apply_diag_poly(&mut self, poly: &PhasePoly, theta: f64) {
        for (i, amp) in self.amps.iter_mut().enumerate() {
            let f = poly.eval_bits(i as u64);
            if f != 0.0 {
                *amp *= Complex64::cis(-theta * f);
            }
        }
    }

    /// Per-basis measurement probabilities.
    pub fn probabilities(&self) -> Vec<f64> {
        self.amps.iter().map(|a| a.norm_sqr()).collect()
    }

    /// Fidelity `|⟨self|other⟩|²` against the production engine.
    pub fn fidelity_against(&self, other: &StateVector) -> f64 {
        assert_eq!(self.n_qubits, other.n_qubits(), "dimension mismatch");
        self.amps
            .iter()
            .zip(other.amplitudes().iter())
            .map(|(a, b)| a.conj() * *b)
            .sum::<Complex64>()
            .norm_sqr()
    }

    /// Fidelity `|⟨self|other⟩|²` against either production engine
    /// representation.
    pub fn fidelity_against_engine(&self, other: crate::SimEngine<'_>) -> f64 {
        assert_eq!(self.n_qubits, other.n_qubits(), "dimension mismatch");
        self.amps
            .iter()
            .enumerate()
            .map(|(bits, a)| a.conj() * other.amplitude(bits as u64))
            .sum::<Complex64>()
            .norm_sqr()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn oracle_reproduces_bell_state() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let s = ScalarStateVector::run(&c);
        let p = s.probabilities();
        assert!((p[0b00] - 0.5).abs() < 1e-12);
        assert!((p[0b11] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn oracle_agrees_with_fast_engine_on_mixed_circuit() {
        let mut poly = PhasePoly::new(4);
        poly.add_linear(1, 0.7);
        poly.add_quadratic(0, 3, -0.4);
        let mut c = Circuit::new(4);
        c.h(0)
            .ry(1, 0.3)
            .cx(0, 2)
            .ccx(0, 1, 3)
            .xy(2, 3, 0.8)
            .diag(Arc::new(poly), 0.9)
            .mcphase(vec![0, 1, 3], 1.1)
            .ublock(UBlock::from_u_with_angle(&[1, -1, 0, 1], 0.5));
        let oracle = ScalarStateVector::run(&c);
        let fast = StateVector::run(&c);
        assert!((oracle.fidelity_against(&fast) - 1.0).abs() < 1e-12);
    }
}
