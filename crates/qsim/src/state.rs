//! Full state-vector simulation — the fast path.
//!
//! [`StateVector`] holds `2^n` complex amplitudes and applies every gate of
//! the IR *exactly* — including the structured operations: diagonal
//! evolutions multiply per-amplitude phases, and commute-Hamiltonian blocks
//! rotate the two-dimensional `{|v⟩, |v̄⟩}` subspaces directly. This is what
//! lets the Choco-Q algorithmic experiments run without paying gate-level
//! decomposition cost (the decomposed path is exercised separately by the
//! transpiler + noise experiments, and equivalence of the two paths is
//! checked by tests).
//!
//! Every kernel enumerates exactly the `2^(n-k)` basis indices its gate
//! touches (strided subspace enumeration — see [`crate::kernels`]) instead
//! of scanning all `2^n` and filtering by mask, applies shape-specialized
//! arithmetic (diagonal / anti-diagonal / real / general 2×2), and fans
//! out across worker threads per [`SimConfig`] once the work is large
//! enough. The original scan-and-mask kernels are retained in
//! [`crate::oracle`] as the test oracle and bench baseline.

use crate::circuit::{Circuit, MAX_QUBITS};
use crate::counts::Counts;
use crate::gate::{Gate, ShiftBlock, UBlock};
use crate::kernels;
use crate::phasepoly::PhasePoly;
use crate::simconfig::SimConfig;
use choco_mathkit::Complex64;
use rand::Rng;

/// A pure quantum state over `n` qubits (little-endian basis indexing:
/// qubit `q` is bit `q` of the basis index).
///
/// # Examples
///
/// ```
/// use choco_qsim::{Circuit, StateVector};
///
/// let mut bell = Circuit::new(2);
/// bell.h(0).cx(0, 1);
/// let state = StateVector::run(&bell);
/// let p = state.probabilities();
/// assert!((p[0b00] - 0.5).abs() < 1e-12);
/// assert!((p[0b11] - 0.5).abs() < 1e-12);
/// ```
#[derive(Clone, Debug)]
pub struct StateVector {
    n_qubits: usize,
    amps: Vec<Complex64>,
    config: SimConfig,
    /// Reusable scratch for materializing phase-polynomial diagonals, so
    /// repeated [`StateVector::apply_diag_poly`] calls (e.g. per noise
    /// trajectory) allocate once, not per gate.
    diag_scratch: Vec<f64>,
}

impl StateVector {
    /// The all-zeros state `|0…0⟩` with the default [`SimConfig`].
    pub fn new(n_qubits: usize) -> Self {
        Self::new_with(n_qubits, SimConfig::default())
    }

    /// The all-zeros state with an explicit execution configuration.
    pub fn new_with(n_qubits: usize, config: SimConfig) -> Self {
        assert!(n_qubits <= MAX_QUBITS, "at most {MAX_QUBITS} qubits");
        let mut amps = vec![Complex64::ZERO; 1 << n_qubits];
        amps[0] = Complex64::ONE;
        StateVector {
            n_qubits,
            amps,
            config,
            diag_scratch: Vec::new(),
        }
    }

    /// A computational basis state `|bits⟩`.
    pub fn from_bits(n_qubits: usize, bits: u64) -> Self {
        let mut s = StateVector::new(n_qubits);
        s.amps[0] = Complex64::ZERO;
        s.amps[bits as usize] = Complex64::ONE;
        s
    }

    /// Builds a state from raw amplitudes (must have power-of-two length and
    /// unit norm within 1e-6).
    ///
    /// # Panics
    ///
    /// Panics on a non-power-of-two length or non-normalized vector.
    pub fn from_amplitudes(amps: Vec<Complex64>) -> Self {
        let len = amps.len();
        assert!(len.is_power_of_two(), "length must be a power of two");
        let n_qubits = len.trailing_zeros() as usize;
        let norm: f64 = amps.iter().map(|a| a.norm_sqr()).sum();
        assert!((norm - 1.0).abs() < 1e-6, "state not normalized: {norm}");
        StateVector {
            n_qubits,
            amps,
            config: SimConfig::default(),
            diag_scratch: Vec::new(),
        }
    }

    /// Runs a circuit from `|0…0⟩`.
    pub fn run(circuit: &Circuit) -> Self {
        Self::run_with(circuit, SimConfig::default())
    }

    /// Runs a circuit from `|0…0⟩` under an explicit configuration.
    pub fn run_with(circuit: &Circuit, config: SimConfig) -> Self {
        let mut s = StateVector::new_with(circuit.n_qubits(), config);
        s.apply_circuit(circuit);
        s
    }

    /// The execution configuration.
    #[inline]
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Resets to `|0…0⟩` in place, reusing the amplitude buffer.
    pub fn reset_zero(&mut self) {
        self.amps.fill(Complex64::ZERO);
        self.amps[0] = Complex64::ONE;
    }

    /// Resets to the basis state `|bits⟩` in place.
    pub fn reset_bits(&mut self, bits: u64) {
        self.amps.fill(Complex64::ZERO);
        self.amps[bits as usize] = Complex64::ONE;
    }

    /// Number of qubits.
    #[inline]
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// The amplitude of basis state `bits`.
    #[inline]
    pub fn amplitude(&self, bits: u64) -> Complex64 {
        self.amps[bits as usize]
    }

    /// Borrow of all amplitudes.
    #[inline]
    pub fn amplitudes(&self) -> &[Complex64] {
        &self.amps
    }

    /// Applies every gate of a circuit in order.
    ///
    /// # Panics
    ///
    /// Panics if the circuit is wider than the state.
    pub fn apply_circuit(&mut self, circuit: &Circuit) {
        assert!(
            circuit.n_qubits() <= self.n_qubits,
            "circuit wider than state"
        );
        for g in circuit.iter() {
            self.apply_gate(g);
        }
    }

    /// Applies a single gate.
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
                // XX+YY = 2(|01⟩⟨10| + |10⟩⟨01|): a UBlock with doubled angle.
                let full = (1u64 << a) | (1u64 << b);
                self.apply_block_masks(full, 1u64 << a, 2.0 * theta);
            }
            Gate::DiagPhase(poly, theta) => self.apply_diag_poly(poly, *theta),
            g1q => {
                let m = g1q
                    .matrix_1q()
                    .unwrap_or_else(|| panic!("unhandled gate {g1q}"));
                let mut q = 0;
                g1q.for_each_qubit(|target| q = target);
                self.apply_1q(m, q);
            }
        }
    }

    /// Applies a 2×2 unitary to qubit `q`.
    pub fn apply_1q(&mut self, m: [[Complex64; 2]; 2], q: usize) {
        self.apply_controlled_1q(0, m, q);
    }

    /// Applies a 2×2 unitary to qubit `q` conditioned on all bits of
    /// `controls_mask` being 1, dispatching on the matrix shape so
    /// diagonal and real matrices skip the full complex arithmetic.
    pub fn apply_controlled_1q(&mut self, controls_mask: u64, m: [[Complex64; 2]; 2], q: usize) {
        let t = 1u64 << q;
        if controls_mask & t != 0 {
            // Degenerate gate (target in controls): no-op, as in the oracle.
            return;
        }
        let fixed = controls_mask | t;
        let diagonal = m[0][1] == Complex64::ZERO && m[1][0] == Complex64::ZERO;
        if diagonal {
            // Phase-type gate: two independent subspace passes, each
            // skipped entirely when its diagonal entry is 1.
            for (value, d) in [(controls_mask, m[0][0]), (fixed, m[1][1])] {
                if d != Complex64::ONE {
                    kernels::subspace_map(&mut self.amps, &self.config, fixed, value, |a| a * d);
                }
            }
            return;
        }
        let anti_diagonal = m[0][0] == Complex64::ZERO && m[1][1] == Complex64::ZERO;
        if anti_diagonal {
            let (m01, m10) = (m[0][1], m[1][0]);
            kernels::pair_map(
                &mut self.amps,
                &self.config,
                fixed,
                controls_mask,
                t,
                move |a, b| (m01 * b, m10 * a),
            );
            return;
        }
        let real = m.iter().flatten().all(|c| c.im == 0.0);
        if real {
            let (r00, r01, r10, r11) = (m[0][0].re, m[0][1].re, m[1][0].re, m[1][1].re);
            kernels::pair_map(
                &mut self.amps,
                &self.config,
                fixed,
                controls_mask,
                t,
                move |a, b| (a.scale(r00) + b.scale(r01), a.scale(r10) + b.scale(r11)),
            );
            return;
        }
        kernels::pair_map(
            &mut self.amps,
            &self.config,
            fixed,
            controls_mask,
            t,
            move |a, b| (m[0][0] * a + m[0][1] * b, m[1][0] * a + m[1][1] * b),
        );
    }

    fn apply_swap(&mut self, a: usize, b: usize) {
        if a == b {
            return; // matches the oracle: swap(q, q) never matched its filter
        }
        let (ma, mb) = (1u64 << a, 1u64 << b);
        // Enumerate indices with bit a = 1, bit b = 0; the partner flips
        // both. The two untouched subspaces (00 and 11) are never visited.
        kernels::pair_map(
            &mut self.amps,
            &self.config,
            ma | mb,
            ma,
            ma | mb,
            |x, y| (y, x),
        );
    }

    fn apply_mcx(&mut self, controls_mask: u64, target: usize) {
        let t = 1u64 << target;
        if controls_mask & t != 0 {
            // Degenerate gate (target is one of its own controls): the
            // scan-and-mask filter `i & controls == controls && i & t == 0`
            // never matched, so this was — and stays — a no-op.
            return;
        }
        kernels::pair_map(
            &mut self.amps,
            &self.config,
            controls_mask | t,
            controls_mask,
            t,
            |x, y| (y, x),
        );
    }

    fn apply_mcphase(&mut self, mask: u64, angle: f64) {
        let phase = Complex64::cis(angle);
        kernels::subspace_map(&mut self.amps, &self.config, mask, mask, move |a| a * phase);
    }

    /// Applies `e^{-iθ·Hc(u)}` exactly: a rotation
    /// `[[cos θ, −i sin θ], [−i sin θ, cos θ]]` on every `{|v⟩, |v̄⟩}` pair.
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

    /// Applies a generalized commute block `e^{-iθ·Hc}` with slack-register
    /// shifts: the same exact pair rotation as [`StateVector::apply_ublock`]
    /// on every eligible `|v,r⟩ ↔ |v̄,r+δ⟩` pair; register-ineligible states
    /// (where `Hc` has a zero row) get the identity.
    pub fn apply_shift_block(&mut self, block: &ShiftBlock) {
        if block.shifts.is_empty() {
            self.apply_block_masks(block.full_mask(), block.pattern_abs(), block.angle);
            return;
        }
        let (sin, cos) = block.angle.sin_cos();
        kernels::gated_pair_map(
            &mut self.amps,
            &self.config,
            block.full_mask(),
            block.pattern_abs(),
            |i| block.forward(i),
            move |a, b| {
                (
                    Complex64::new(cos * a.re + sin * b.im, cos * a.im - sin * b.re),
                    Complex64::new(cos * b.re + sin * a.im, cos * b.im - sin * a.re),
                )
            },
        );
    }

    /// Rotation between index patterns `v_mask` and `v_mask ^ full_mask`
    /// within the qubits of `full_mask`: only the `2^(n-k)` pairs of the
    /// block's subspace are enumerated.
    fn apply_block_masks(&mut self, full_mask: u64, v_mask: u64, theta: f64) {
        if full_mask == 0 {
            // Empty support: Hc degenerates to identity and the old scan
            // kernel applied the global phase e^{-iθ} (i paired with
            // itself); keep that instead of tripping the pair kernel's
            // partner assert.
            let phase = Complex64::cis(-theta);
            kernels::subspace_map(&mut self.amps, &self.config, 0, 0, move |a| a * phase);
            return;
        }
        let (sin, cos) = theta.sin_cos();
        kernels::pair_map(
            &mut self.amps,
            &self.config,
            full_mask,
            v_mask,
            full_mask,
            move |a, b| {
                (
                    Complex64::new(cos * a.re + sin * b.im, cos * a.im - sin * b.re),
                    Complex64::new(cos * b.re + sin * a.im, cos * b.im - sin * a.re),
                )
            },
        );
    }

    /// Applies `e^{-iθ·f(x)}` for a phase polynomial: the diagonal is
    /// materialized once by strided term-wise accumulation, then applied in
    /// a single (parallel) phase pass. Reuse [`StateVector::apply_diag_values`]
    /// with a cached diagonal when the same polynomial recurs across
    /// optimizer iterations (see [`crate::SimWorkspace`]).
    pub fn apply_diag_poly(&mut self, poly: &PhasePoly, theta: f64) {
        let mut values = std::mem::take(&mut self.diag_scratch);
        values.resize(self.amps.len(), 0.0);
        kernels::accumulate_poly_diag(&mut values, poly);
        self.apply_diag_values(&values, theta);
        self.diag_scratch = values;
    }

    /// Applies `e^{-iθ·values[x]}` from a precomputed diagonal. Much faster
    /// than [`StateVector::apply_diag_poly`] when the same diagonal is reused
    /// across optimizer iterations.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != 2^n`.
    pub fn apply_diag_values(&mut self, values: &[f64], theta: f64) {
        assert_eq!(values.len(), self.amps.len(), "diagonal length mismatch");
        kernels::zip_map_values(&mut self.amps, &self.config, values, move |a, f| {
            if f != 0.0 {
                *a *= Complex64::cis(-theta * f);
            }
        });
    }

    /// Measurement probabilities for every basis state.
    pub fn probabilities(&self) -> Vec<f64> {
        self.amps.iter().map(|a| a.norm_sqr()).collect()
    }

    /// Probability of measuring the basis state `bits`.
    pub fn probability(&self, bits: u64) -> f64 {
        self.amps[bits as usize].norm_sqr()
    }

    /// Expectation of a diagonal observable given per-basis values.
    pub fn expectation_diag_values(&self, values: &[f64]) -> f64 {
        assert_eq!(values.len(), self.amps.len(), "diagonal length mismatch");
        self.amps
            .iter()
            .zip(values.iter())
            .map(|(a, &v)| a.norm_sqr() * v)
            .sum()
    }

    /// Expectation of a diagonal observable given as a polynomial.
    pub fn expectation_diag_poly(&self, poly: &PhasePoly) -> f64 {
        self.amps
            .iter()
            .enumerate()
            .map(|(i, a)| a.norm_sqr() * poly.eval_bits(i as u64))
            .sum()
    }

    /// Number of basis states with probability above `eps` — the
    /// "parallelism" metric of the paper's Figure 9(b) (#measured states).
    pub fn support_size(&self, eps: f64) -> usize {
        self.amps.iter().filter(|a| a.norm_sqr() > eps).count()
    }

    /// Number of exactly non-zero amplitudes (an `O(2^n)` scan; the
    /// compact engine scans only its plan's ranks).
    pub fn occupancy(&self) -> usize {
        self.amps
            .iter()
            .filter(|a| a.re != 0.0 || a.im != 0.0)
            .count()
    }

    /// Inner product `⟨self|other⟩`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn inner(&self, other: &StateVector) -> Complex64 {
        assert_eq!(self.n_qubits, other.n_qubits, "dimension mismatch");
        self.amps
            .iter()
            .zip(other.amps.iter())
            .map(|(a, b)| a.conj() * *b)
            .sum()
    }

    /// Fidelity `|⟨self|other⟩|²`.
    pub fn fidelity(&self, other: &StateVector) -> f64 {
        self.inner(other).norm_sqr()
    }

    /// Total probability (should be 1 up to rounding).
    pub fn norm_sqr(&self) -> f64 {
        self.amps.iter().map(|a| a.norm_sqr()).sum()
    }

    /// Fills `out` with the cumulative probability table used by inverse-
    /// transform sampling (`out[i] = Σ_{k≤i} |amps[k]|²`).
    pub fn fill_cumulative(&self, out: &mut Vec<f64>) {
        out.clear();
        out.reserve(self.amps.len());
        let mut acc = 0.0f64;
        for a in &self.amps {
            acc += a.norm_sqr();
            out.push(acc);
        }
    }

    /// Samples `shots` measurement outcomes in the computational basis,
    /// building the cumulative table on the fly (one-off calls; use
    /// [`crate::SimWorkspace::sample`] to reuse the table across calls).
    pub fn sample<R: Rng>(&self, shots: u64, rng: &mut R) -> Counts {
        crate::SimEngine::Dense(self).sample(shots, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::ScalarStateVector;
    use choco_mathkit::c64;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    const EPS: f64 = 1e-12;

    #[test]
    fn initial_state_is_zero_ket() {
        let s = StateVector::new(3);
        assert_eq!(s.probability(0), 1.0);
        assert_eq!(s.support_size(1e-12), 1);
    }

    #[test]
    fn x_flips_bit() {
        let mut s = StateVector::new(2);
        s.apply_gate(&Gate::X(1));
        assert!((s.probability(0b10) - 1.0).abs() < EPS);
    }

    #[test]
    fn bell_state_probabilities() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let s = StateVector::run(&c);
        assert!((s.probability(0b00) - 0.5).abs() < EPS);
        assert!((s.probability(0b11) - 0.5).abs() < EPS);
        assert!(s.probability(0b01) < EPS);
    }

    #[test]
    fn ghz_support_size() {
        let mut c = Circuit::new(4);
        c.h(0).cx(0, 1).cx(1, 2).cx(2, 3);
        let s = StateVector::run(&c);
        assert_eq!(s.support_size(1e-9), 2);
    }

    #[test]
    fn cz_and_cp_phases() {
        // |11⟩ picks up -1 under CZ.
        let mut s = StateVector::from_bits(2, 0b11);
        s.apply_gate(&Gate::Cz(0, 1));
        assert!(s.amplitude(0b11).approx_eq(c64(-1.0, 0.0), EPS));
        // CP(θ) adds e^{iθ}.
        let mut s = StateVector::from_bits(2, 0b11);
        s.apply_gate(&Gate::Cp(0, 1, 0.7));
        assert!(s.amplitude(0b11).approx_eq(Complex64::cis(0.7), EPS));
        // No phase on |01⟩.
        let mut s = StateVector::from_bits(2, 0b01);
        s.apply_gate(&Gate::Cp(0, 1, 0.7));
        assert!(s.amplitude(0b01).approx_eq(Complex64::ONE, EPS));
    }

    #[test]
    fn swap_exchanges_amplitudes() {
        let mut s = StateVector::from_bits(3, 0b001);
        s.apply_gate(&Gate::Swap(0, 2));
        assert!((s.probability(0b100) - 1.0).abs() < EPS);
    }

    #[test]
    fn ccx_and_mcx() {
        let mut s = StateVector::from_bits(3, 0b011);
        s.apply_gate(&Gate::Ccx(0, 1, 2));
        assert!((s.probability(0b111) - 1.0).abs() < EPS);

        let mut s = StateVector::from_bits(4, 0b0111);
        s.apply_gate(&Gate::Mcx {
            controls: vec![0, 1, 2],
            target: 3,
        });
        assert!((s.probability(0b1111) - 1.0).abs() < EPS);

        // One control off → no flip.
        let mut s = StateVector::from_bits(4, 0b0101);
        s.apply_gate(&Gate::Mcx {
            controls: vec![0, 1, 2],
            target: 3,
        });
        assert!((s.probability(0b0101) - 1.0).abs() < EPS);
    }

    #[test]
    fn mcphase_only_on_all_ones() {
        let mut s = StateVector::from_bits(3, 0b111);
        s.apply_gate(&Gate::McPhase {
            qubits: vec![0, 1, 2],
            angle: 1.1,
        });
        assert!(s.amplitude(0b111).approx_eq(Complex64::cis(1.1), EPS));

        let mut s = StateVector::from_bits(3, 0b101);
        s.apply_gate(&Gate::McPhase {
            qubits: vec![0, 1, 2],
            angle: 1.1,
        });
        assert!(s.amplitude(0b101).approx_eq(Complex64::ONE, EPS));
    }

    #[test]
    fn rotation_gates_match_matrices() {
        // Rx(π) = -iX: |0⟩ → -i|1⟩.
        let mut s = StateVector::new(1);
        s.apply_gate(&Gate::Rx(0, std::f64::consts::PI));
        assert!(s.amplitude(1).approx_eq(c64(0.0, -1.0), EPS));
        // Rz on |+⟩ keeps probabilities.
        let mut s = StateVector::new(1);
        s.apply_gate(&Gate::H(0));
        s.apply_gate(&Gate::Rz(0, 0.4));
        assert!((s.probability(0) - 0.5).abs() < EPS);
    }

    #[test]
    fn ublock_rotates_pattern_pair() {
        // u = (+1, -1) on 2 qubits: v = |01⟩ (bit0 = 1), v̄ = |10⟩.
        let block = UBlock::from_u_with_angle(&[1, -1], 0.6);
        let mut s = StateVector::from_bits(2, 0b01);
        s.apply_ublock(&block);
        assert!(s.amplitude(0b01).approx_eq(c64(0.6f64.cos(), 0.0), EPS));
        assert!(s.amplitude(0b10).approx_eq(c64(0.0, -(0.6f64.sin())), EPS));
        // An off-pattern state is untouched.
        let mut s = StateVector::from_bits(2, 0b11);
        s.apply_ublock(&block);
        assert!((s.probability(0b11) - 1.0).abs() < EPS);
    }

    #[test]
    fn ublock_preserves_norm_and_constraint_expectation() {
        // Superposition over the feasible pair stays in the subspace.
        let block = UBlock::from_u_with_angle(&[1, -1, 1], 1.3);
        let mut s = StateVector::from_bits(3, 0b101);
        s.apply_ublock(&block);
        assert!((s.norm_sqr() - 1.0).abs() < EPS);
        // Support is {|101⟩, |010⟩}.
        assert!((s.probability(0b101) + s.probability(0b010) - 1.0).abs() < EPS);
    }

    #[test]
    fn xymix_matches_ublock_on_pair_subspace() {
        let theta = 0.47;
        let mut a = StateVector::from_bits(2, 0b01);
        a.apply_gate(&Gate::XyMix(0, 1, theta));
        // exp(-iθ(XX+YY))|01⟩ = cos(2θ)|01⟩ - i sin(2θ)|10⟩
        assert!(a
            .amplitude(0b01)
            .approx_eq(c64((2.0 * theta).cos(), 0.0), EPS));
        assert!(a
            .amplitude(0b10)
            .approx_eq(c64(0.0, -(2.0 * theta).sin()), EPS));
        // |00⟩ and |11⟩ are untouched.
        let mut b = StateVector::from_bits(2, 0b00);
        b.apply_gate(&Gate::XyMix(0, 1, theta));
        assert!((b.probability(0b00) - 1.0).abs() < EPS);
    }

    #[test]
    fn diag_phase_applies_per_state() {
        let mut poly = PhasePoly::new(2);
        poly.add_linear(0, 1.0);
        poly.add_quadratic(0, 1, 2.0);
        let poly = Arc::new(poly);
        // Uniform superposition picks up e^{-iθf(x)} per component.
        let mut c = Circuit::new(2);
        c.h(0).h(1).diag(poly.clone(), 0.5);
        let s = StateVector::run(&c);
        let amp = |bits: u64| Complex64::cis(-0.5 * poly.eval_bits(bits)).scale(0.5);
        for bits in 0..4u64 {
            assert!(s.amplitude(bits).approx_eq(amp(bits), EPS), "bits={bits}");
        }
    }

    #[test]
    fn diag_values_matches_poly_path() {
        let mut poly = PhasePoly::new(3);
        poly.add_linear(2, -1.5);
        poly.add_quadratic(0, 1, 0.7);
        let values: Vec<f64> = (0..8u64).map(|b| poly.eval_bits(b)).collect();
        let mut c = Circuit::new(3);
        c.h(0).h(1).h(2);
        let mut a = StateVector::run(&c);
        let mut b = a.clone();
        a.apply_diag_poly(&poly, 0.9);
        b.apply_diag_values(&values, 0.9);
        assert!((a.fidelity(&b) - 1.0).abs() < 1e-10);
    }

    #[test]
    fn expectation_of_diagonal() {
        let mut poly = PhasePoly::new(2);
        poly.add_linear(0, 1.0);
        poly.add_linear(1, 2.0);
        let mut c = Circuit::new(2);
        c.h(0).h(1);
        let s = StateVector::run(&c);
        // Uniform over {0,1,2,3}: E[f] = (0 + 1 + 2 + 3)/4 = 1.5
        assert!((s.expectation_diag_poly(&poly) - 1.5).abs() < EPS);
        let values: Vec<f64> = (0..4u64).map(|b| poly.eval_bits(b)).collect();
        assert!((s.expectation_diag_values(&values) - 1.5).abs() < EPS);
    }

    #[test]
    fn circuit_inverse_restores_state() {
        let mut poly = PhasePoly::new(3);
        poly.add_quadratic(0, 2, 1.0);
        let mut c = Circuit::new(3);
        c.h(0)
            .cx(0, 1)
            .rz(1, 0.3)
            .xy(1, 2, 0.8)
            .diag(Arc::new(poly), 0.4)
            .mcphase(vec![0, 1, 2], 0.2);
        let mut s = StateVector::run(&c);
        s.apply_circuit(&c.inverse());
        let zero = StateVector::new(3);
        assert!((s.fidelity(&zero) - 1.0).abs() < 1e-10);
    }

    #[test]
    fn sampling_approximates_distribution() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let s = StateVector::run(&c);
        let mut rng = StdRng::seed_from_u64(7);
        let counts = s.sample(20_000, &mut rng);
        assert_eq!(counts.shots(), 20_000);
        let p00 = counts.probability(0b00);
        let p11 = counts.probability(0b11);
        assert!((p00 - 0.5).abs() < 0.02, "p00={p00}");
        assert!((p11 - 0.5).abs() < 0.02, "p11={p11}");
        assert_eq!(counts.probability(0b01), 0.0);
    }

    #[test]
    fn unitarity_norm_preserved_through_random_circuit() {
        let mut c = Circuit::new(4);
        c.h(0)
            .ry(1, 0.7)
            .cx(0, 2)
            .cp(1, 3, 0.9)
            .ccx(0, 1, 2)
            .xy(2, 3, 0.3)
            .mcphase(vec![0, 2, 3], 1.4);
        let s = StateVector::run(&c);
        assert!((s.norm_sqr() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn degenerate_gates_match_oracle_no_op() {
        // Control == target gates were silent no-ops in the scan-and-mask
        // engine (the filter `i & controls == controls && i & t == 0` never
        // matched); the strided path must preserve that.
        let mut c = Circuit::new(2);
        c.h(0).h(1);
        c.push(Gate::Cx(0, 0));
        c.push(Gate::Swap(1, 1));
        c.push(Gate::Ccx(0, 1, 1));
        c.push(Gate::Mcx {
            controls: vec![0, 1],
            target: 0,
        });
        let oracle = ScalarStateVector::run(&c);
        let fast = StateVector::run(&c);
        assert!((oracle.fidelity_against(&fast) - 1.0).abs() < 1e-12);
        // And they really are no-ops, not merely oracle-consistent.
        let mut plus = Circuit::new(2);
        plus.h(0).h(1);
        let reference = StateVector::run(&plus);
        assert!((fast.fidelity(&reference) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_support_ublock_is_a_global_phase() {
        // Public fields allow constructing a support-free block; the old
        // scan kernel applied e^{-iθ} to every amplitude.
        let block = UBlock {
            support: vec![],
            pattern: 0,
            angle: 0.3,
        };
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let mut s = StateVector::run(&c);
        s.apply_ublock(&block);
        let mut oracle = ScalarStateVector::run(&c);
        oracle.apply_ublock(&block);
        for (a, b) in oracle.amplitudes().iter().zip(s.amplitudes()) {
            assert!(a.approx_eq(*b, 1e-12));
        }
        assert!(s.amplitude(0).approx_eq(
            Complex64::cis(-0.3).scale(std::f64::consts::FRAC_1_SQRT_2),
            1e-12
        ));
    }

    #[test]
    fn diag_poly_scratch_is_reused_across_applications() {
        let mut poly = PhasePoly::new(3);
        poly.add_linear(0, 0.4);
        poly.add_quadratic(1, 2, -0.9);
        let mut c = Circuit::new(3);
        c.h(0).h(1).h(2);
        let mut s = StateVector::run(&c);
        s.apply_diag_poly(&poly, 0.3);
        let scratch = s.diag_scratch.as_ptr();
        s.apply_diag_poly(&poly, -0.3);
        assert_eq!(s.diag_scratch.as_ptr(), scratch, "scratch reallocated");
        assert!((s.fidelity(&StateVector::run(&c)) - 1.0).abs() < 1e-10);
    }

    #[test]
    fn reset_reuses_buffer_and_restores_zero_ket() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).ry(2, 1.1);
        let mut s = StateVector::run(&c);
        let buffer = s.amplitudes().as_ptr();
        s.reset_zero();
        assert_eq!(s.amplitudes().as_ptr(), buffer, "no reallocation");
        assert_eq!(s.probability(0), 1.0);
        s.reset_bits(0b101);
        assert_eq!(s.probability(0b101), 1.0);
    }

    /// Every kernel shape vs the retained scan-and-mask oracle, at every
    /// thread count (the threshold is forced to 1 so threading engages even
    /// on these tiny states).
    #[test]
    fn all_kernels_match_oracle_across_thread_counts() {
        let mut poly = PhasePoly::new(5);
        poly.add_constant(0.3);
        poly.add_linear(0, 1.0);
        poly.add_linear(4, -0.8);
        poly.add_quadratic(1, 3, 0.6);
        let poly = Arc::new(poly);
        let mut c = Circuit::new(5);
        c.h(0)
            .h(3)
            .ry(1, 0.7)
            .rx(2, -0.4)
            .rz(0, 1.2)
            .p(4, 0.8)
            .cx(0, 1)
            .cz(1, 2)
            .cp(2, 4, -0.6)
            .ccx(0, 1, 4)
            .mcx(vec![0, 2], 3)
            .mcphase(vec![1, 2, 4], 0.9)
            .xy(1, 4, 0.35)
            .ublock(UBlock::from_u_with_angle(&[1, 0, -1, 1, -1], 0.55))
            .diag(poly, 0.75)
            .push(Gate::Swap(0, 4))
            .push(Gate::Y(2));
        let oracle = ScalarStateVector::run(&c);
        for threads in [1usize, 2, 3, 4] {
            let config = SimConfig {
                threads,
                parallel_threshold: 1,
                ..SimConfig::default()
            };
            let fast = StateVector::run_with(&c, config);
            let f = oracle.fidelity_against(&fast);
            assert!((f - 1.0).abs() < 1e-10, "threads={threads}: fidelity={f}");
        }
    }
}
