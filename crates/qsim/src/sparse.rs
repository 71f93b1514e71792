//! The feasible-subspace sparse engine.
//!
//! Choco-Q's central theorem is that commute-Hamiltonian evolution never
//! leaves the feasible subspace: starting from one feasible basis state,
//! the state's support stays inside the `|F|` feasible assignments, not
//! the full `2^n` register (the quantity Figure 9(b) measures). A dense
//! state vector pays `O(2^(n-k))` per gate regardless; this engine stores
//! only the occupied entries — a **sorted map from basis index to
//! amplitude** — and updates exactly those, so a Choco-Q layer costs
//! `O(|F|·poly)` and registers far beyond dense allocation limits become
//! simulable.
//!
//! Every kernel mirrors the dense engine's floating-point expressions
//! *verbatim* (same shape dispatch, same operand order), and zero
//! amplitudes contribute exact IEEE no-ops to sums, so sparse amplitudes,
//! expectations, and sampling streams are **bit-identical** to the dense
//! engine on any circuit — the property the differential tests in
//! `tests/engines.rs` and the CI engine matrix pin down. Support *grows*
//! on demand: a pair kernel inserts the partner of an occupied entry, a
//! Hadamard doubles the occupied set. Circuits that fill the register
//! (penalty/HEA mixers) are therefore still correct here, just slower
//! than dense — [`crate::SimEngine`] under [`crate::EngineKind::Compact`]
//! densifies at [`crate::DENSITY_THRESHOLD`] instead.

use crate::circuit::Circuit;
use crate::counts::Counts;
use crate::gate::{Gate, ShiftBlock, UBlock};
use crate::phasepoly::PhasePoly;
use crate::simconfig::SimConfig;
use choco_mathkit::Complex64;
use rand::Rng;

/// Maximum register width for the sparse engine: basis indices are `u64`
/// bit patterns and the circuit IR itself stops at 30 qubits... but the
/// sparse representation has no `2^n` buffer, so it accepts the IR's full
/// width. Kept as its own constant so a wider IR lifts this in one place.
pub const MAX_SPARSE_QUBITS: usize = 30;

/// A pure quantum state stored as its occupied basis entries only
/// (sorted by basis index; little-endian qubit indexing as in
/// [`crate::StateVector`]).
///
/// # Examples
///
/// ```
/// use choco_qsim::{Circuit, SparseStateVector, UBlock};
///
/// // A commute block spreads |01⟩ over its pattern pair only: the sparse
/// // state tracks 2 entries, never the 2^2 register.
/// let mut c = Circuit::new(2);
/// c.load_bits(0b01);
/// c.ublock(UBlock::from_u_with_angle(&[1, -1], 0.6));
/// let s = SparseStateVector::run(&c);
/// assert_eq!(s.occupancy(), 2);
/// assert!((s.probability(0b01) - 0.6f64.cos().powi(2)).abs() < 1e-12);
/// ```
#[derive(Clone, Debug)]
pub struct SparseStateVector {
    n_qubits: usize,
    /// Occupied entries, strictly sorted by basis index. Exact complex
    /// zeros are pruned so `occupancy` tracks true support.
    entries: Vec<(u64, Complex64)>,
    config: SimConfig,
    /// Lazily-built cumulative probability table over the occupied
    /// entries, reused across repeated [`SparseStateVector::sample`]
    /// calls on an unchanged state (the sparse counterpart of the dense
    /// prefix-table cache in [`crate::SimWorkspace`]). Invalidated by
    /// every mutating kernel.
    cumulative: std::cell::RefCell<Vec<f64>>,
    cumulative_valid: std::cell::Cell<bool>,
}

impl SparseStateVector {
    /// The all-zeros state `|0…0⟩` with the default [`SimConfig`].
    pub fn new(n_qubits: usize) -> Self {
        Self::new_with(n_qubits, SimConfig::default())
    }

    /// The all-zeros state with an explicit execution configuration.
    pub fn new_with(n_qubits: usize, config: SimConfig) -> Self {
        assert!(
            n_qubits <= MAX_SPARSE_QUBITS,
            "sparse state vector limited to {MAX_SPARSE_QUBITS} qubits"
        );
        SparseStateVector {
            n_qubits,
            entries: vec![(0, Complex64::ONE)],
            config,
            cumulative: std::cell::RefCell::new(Vec::new()),
            cumulative_valid: std::cell::Cell::new(false),
        }
    }

    /// Builds a sparse state from an already-sorted non-zero entry list
    /// (the compact engine's degrade path for incremental mutation).
    pub(crate) fn from_sorted_entries(
        n_qubits: usize,
        entries: Vec<(u64, Complex64)>,
        config: SimConfig,
    ) -> Self {
        debug_assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
        let mut s = SparseStateVector::new_with(n_qubits, config);
        s.entries = entries;
        s
    }

    /// Marks the cached sampling table stale (every mutation funnels
    /// through one of the callers of this).
    #[inline]
    fn touch(&mut self) {
        self.cumulative_valid.set(false);
    }

    /// A computational basis state `|bits⟩`.
    pub fn from_bits(n_qubits: usize, bits: u64) -> Self {
        let mut s = SparseStateVector::new(n_qubits);
        s.entries[0] = (bits, Complex64::ONE);
        s
    }

    /// Runs a circuit from `|0…0⟩`.
    pub fn run(circuit: &Circuit) -> Self {
        Self::run_with(circuit, SimConfig::default())
    }

    /// Runs a circuit from `|0…0⟩` under an explicit configuration.
    pub fn run_with(circuit: &Circuit, config: SimConfig) -> Self {
        let mut s = SparseStateVector::new_with(circuit.n_qubits(), config);
        s.apply_circuit(circuit);
        s
    }

    /// The execution configuration.
    #[inline]
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Resets to `|0…0⟩` in place, reusing the entry buffer.
    pub fn reset_zero(&mut self) {
        self.touch();
        self.entries.clear();
        self.entries.push((0, Complex64::ONE));
    }

    /// Resets to the basis state `|bits⟩` in place.
    pub fn reset_bits(&mut self, bits: u64) {
        self.touch();
        self.entries.clear();
        self.entries.push((bits, Complex64::ONE));
    }

    /// Number of qubits.
    #[inline]
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Number of occupied (non-zero) basis entries — the sparse engine's
    /// support counter, and the quantity the compact engine's densify
    /// threshold watches.
    #[inline]
    pub fn occupancy(&self) -> usize {
        self.entries.len()
    }

    /// Occupied fraction of the `2^n` register.
    pub fn density(&self) -> f64 {
        self.entries.len() as f64 / (1u64 << self.n_qubits) as f64
    }

    /// The occupied entries `(basis index, amplitude)`, sorted by index.
    #[inline]
    pub fn entries(&self) -> &[(u64, Complex64)] {
        &self.entries
    }

    /// The amplitude of basis state `bits` (zero when unoccupied).
    pub fn amplitude(&self, bits: u64) -> Complex64 {
        match self.entries.binary_search_by_key(&bits, |e| e.0) {
            Ok(pos) => self.entries[pos].1,
            Err(_) => Complex64::ZERO,
        }
    }

    /// Probability of measuring the basis state `bits`.
    pub fn probability(&self, bits: u64) -> f64 {
        self.amplitude(bits).norm_sqr()
    }

    /// Number of basis states with probability above `eps` — the paper's
    /// Figure 9(b) "parallelism" metric, counted over occupied entries
    /// only (no `2^n` scan).
    pub fn support_size(&self, eps: f64) -> usize {
        self.entries
            .iter()
            .filter(|(_, a)| a.norm_sqr() > eps)
            .count()
    }

    /// Total probability (should be 1 up to rounding).
    pub fn norm_sqr(&self) -> f64 {
        self.entries.iter().map(|(_, a)| a.norm_sqr()).sum()
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

    /// Applies a single gate (same dispatch table as the dense engine).
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

    /// Applies a 2×2 unitary to qubit `q`.
    pub fn apply_1q(&mut self, m: [[Complex64; 2]; 2], q: usize) {
        self.apply_controlled_1q(0, m, q);
    }

    /// Applies a 2×2 unitary to qubit `q` conditioned on all bits of
    /// `controls_mask` being 1. The shape dispatch (diagonal /
    /// anti-diagonal / real / general) mirrors the dense engine
    /// expression-for-expression so results stay bit-identical.
    pub fn apply_controlled_1q(&mut self, controls_mask: u64, m: [[Complex64; 2]; 2], q: usize) {
        let t = 1u64 << q;
        if controls_mask & t != 0 {
            // Degenerate gate (target in controls): no-op, as in the
            // dense engine and the oracle.
            return;
        }
        let fixed = controls_mask | t;
        let diagonal = m[0][1] == Complex64::ZERO && m[1][0] == Complex64::ZERO;
        if diagonal {
            for (value, d) in [(controls_mask, m[0][0]), (fixed, m[1][1])] {
                if d != Complex64::ONE {
                    self.subspace_map(fixed, value, |a| a * d);
                }
            }
            return;
        }
        let anti_diagonal = m[0][0] == Complex64::ZERO && m[1][1] == Complex64::ZERO;
        if anti_diagonal {
            let (m01, m10) = (m[0][1], m[1][0]);
            self.pair_map(fixed, controls_mask, t, move |a, b| (m01 * b, m10 * a));
            return;
        }
        let real = m.iter().flatten().all(|c| c.im == 0.0);
        if real {
            let (r00, r01, r10, r11) = (m[0][0].re, m[0][1].re, m[1][0].re, m[1][1].re);
            self.pair_map(fixed, controls_mask, t, move |a, b| {
                (a.scale(r00) + b.scale(r01), a.scale(r10) + b.scale(r11))
            });
            return;
        }
        self.pair_map(fixed, controls_mask, t, move |a, b| {
            (m[0][0] * a + m[0][1] * b, m[1][0] * a + m[1][1] * b)
        });
    }

    fn apply_swap(&mut self, a: usize, b: usize) {
        if a == b {
            return; // matches the dense engine / oracle no-op
        }
        let (ma, mb) = (1u64 << a, 1u64 << b);
        self.pair_map(ma | mb, ma, ma | mb, |x, y| (y, x));
    }

    fn apply_mcx(&mut self, controls_mask: u64, target: usize) {
        let t = 1u64 << target;
        if controls_mask & t != 0 {
            return; // degenerate: target is one of its own controls
        }
        self.pair_map(controls_mask | t, controls_mask, t, |x, y| (y, x));
    }

    fn apply_mcphase(&mut self, mask: u64, angle: f64) {
        let phase = Complex64::cis(angle);
        self.subspace_map(mask, mask, move |a| a * phase);
    }

    /// Applies `e^{-iθ·Hc(u)}` exactly on the occupied entries and their
    /// pattern partners.
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

    /// Applies a generalized commute block with slack-register shifts on the
    /// occupied entries: the same exact pair rotation as
    /// [`SparseStateVector::apply_ublock`], with pairs gated on register
    /// eligibility via [`ShiftBlock::source_of`]. Ineligible occupied
    /// entries are left untouched (identity rows of `Hc`).
    pub fn apply_shift_block(&mut self, block: &ShiftBlock) {
        if block.shifts.is_empty() {
            self.apply_block_masks(block.full_mask(), block.pattern_abs(), block.angle);
            return;
        }
        // Canonical source index of every eligible touched pair; both pair
        // members canonicalize to the same source, so sort + dedup gives
        // each pair exactly once — same scheme as `pair_map`.
        let mut pairs: Vec<u64> = self
            .entries
            .iter()
            .filter_map(|&(bits, _)| block.source_of(bits))
            .collect();
        pairs.sort_unstable();
        pairs.dedup();
        if pairs.is_empty() {
            return;
        }
        let (sin, cos) = block.angle.sin_cos();
        let mut updates: Vec<(u64, Complex64)> = Vec::with_capacity(pairs.len() * 2);
        for &i in &pairs {
            let j = block.forward(i).expect("canonical source is eligible");
            let (a, b) = (self.amplitude(i), self.amplitude(j));
            updates.push((
                i,
                Complex64::new(cos * a.re + sin * b.im, cos * a.im - sin * b.re),
            ));
            updates.push((
                j,
                Complex64::new(cos * b.re + sin * a.im, cos * b.im - sin * a.re),
            ));
        }
        updates.sort_unstable_by_key(|e| e.0);
        self.merge_updates(updates);
    }

    fn apply_block_masks(&mut self, full_mask: u64, v_mask: u64, theta: f64) {
        if full_mask == 0 {
            // Empty support: global phase e^{-iθ}, as in the dense engine.
            let phase = Complex64::cis(-theta);
            self.subspace_map(0, 0, move |a| a * phase);
            return;
        }
        let (sin, cos) = theta.sin_cos();
        self.pair_map(full_mask, v_mask, full_mask, move |a, b| {
            (
                Complex64::new(cos * a.re + sin * b.im, cos * a.im - sin * b.re),
                Complex64::new(cos * b.re + sin * a.im, cos * b.im - sin * a.re),
            )
        });
    }

    /// Applies `e^{-iθ·f(x)}`: the polynomial is evaluated per occupied
    /// entry ([`PhasePoly::eval_bits`] accumulates terms in the same order
    /// as the dense engine's strided diagonal materialization, so the
    /// phases are bit-identical) — `O(occupancy · terms)` instead of the
    /// dense path's `O(2^n)` diagonal buffer.
    pub fn apply_diag_poly(&mut self, poly: &PhasePoly, theta: f64) {
        self.touch();
        for (bits, a) in self.entries.iter_mut() {
            let f = poly.eval_bits(*bits);
            if f != 0.0 {
                *a *= Complex64::cis(-theta * f);
            }
        }
    }

    /// Applies `e^{-iθ·values[x]}` from a precomputed `2^n` diagonal
    /// (dense-table compatibility path; the sparse engine only reads the
    /// occupied slots).
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != 2^n`.
    pub fn apply_diag_values(&mut self, values: &[f64], theta: f64) {
        assert_eq!(
            values.len(),
            1usize << self.n_qubits,
            "diagonal length mismatch"
        );
        self.touch();
        for (bits, a) in self.entries.iter_mut() {
            let f = values[*bits as usize];
            if f != 0.0 {
                *a *= Complex64::cis(-theta * f);
            }
        }
    }

    /// Expectation of a diagonal observable given a `2^n` value table.
    /// Bit-identical to the dense engine's full-register sum: unoccupied
    /// entries contribute exact IEEE zeros there.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != 2^n`.
    pub fn expectation_diag_values(&self, values: &[f64]) -> f64 {
        assert_eq!(
            values.len(),
            1usize << self.n_qubits,
            "diagonal length mismatch"
        );
        self.entries
            .iter()
            .map(|(bits, a)| a.norm_sqr() * values[*bits as usize])
            .sum()
    }

    /// Expectation of a diagonal observable given as a polynomial —
    /// `O(occupancy · terms)`, no table required (how large-register
    /// solves evaluate their objective).
    pub fn expectation_diag_poly(&self, poly: &PhasePoly) -> f64 {
        self.entries
            .iter()
            .map(|(bits, a)| a.norm_sqr() * poly.eval_bits(*bits))
            .sum()
    }

    /// Fills `out` with the cumulative probability over the *occupied*
    /// entries (ascending basis index). Because skipped entries add exact
    /// zeros, the values at occupied slots match the dense engine's
    /// `2^n` table bit-for-bit — which is what keeps sample streams
    /// identical across engines.
    pub fn fill_cumulative(&self, out: &mut Vec<f64>) {
        out.clear();
        out.reserve(self.entries.len());
        let mut acc = 0.0f64;
        for (_, a) in &self.entries {
            acc += a.norm_sqr();
            out.push(acc);
        }
    }

    /// Samples `shots` outcomes using a prebuilt occupied-entry cumulative
    /// table (see [`SparseStateVector::fill_cumulative`]). Consumes one
    /// `rng.gen::<f64>()` per shot and resolves ties exactly like the
    /// dense engine, so a shared seed yields identical histograms.
    ///
    /// # Panics
    ///
    /// Panics if the table length does not match the occupancy.
    pub fn sample_with_cumulative<R: Rng>(
        &self,
        cumulative: &[f64],
        shots: u64,
        rng: &mut R,
    ) -> Counts {
        assert_eq!(
            cumulative.len(),
            self.entries.len(),
            "table length mismatch"
        );
        let total = *cumulative.last().expect("non-empty state");
        let mut counts = Counts::new();
        for _ in 0..shots {
            let r: f64 = rng.gen::<f64>() * total;
            let bits = if r == 0.0 {
                // The dense table's partition_point lands on basis index 0
                // for r = 0 (its cumulative starts at index 0 regardless
                // of occupancy); mirror that endpoint exactly.
                0
            } else {
                let slot = cumulative.partition_point(|&c| c < r);
                self.entries[slot.min(self.entries.len() - 1)].0
            };
            counts.record(bits);
        }
        counts
    }

    /// Samples `shots` measurement outcomes. The cumulative-weight table
    /// is built at most once per state mutation: repeated `sample` calls
    /// within one evaluation reuse it, matching the dense engine's
    /// prefix-table cache in [`crate::SimWorkspace`].
    pub fn sample<R: Rng>(&self, shots: u64, rng: &mut R) -> Counts {
        if !self.cumulative_valid.get() {
            self.fill_cumulative(&mut self.cumulative.borrow_mut());
            self.cumulative_valid.set(true);
        }
        let cumulative = self.cumulative.borrow();
        self.sample_with_cumulative(&cumulative, shots, rng)
    }

    /// Applies `op` to the amplitude of every occupied index matching
    /// `index & fixed_mask == fixed_value` (phase-type kernels: the
    /// occupied set never changes, zeros stay zero).
    fn subspace_map<Op>(&mut self, fixed_mask: u64, fixed_value: u64, op: Op)
    where
        Op: Fn(Complex64) -> Complex64,
    {
        self.touch();
        for (bits, a) in self.entries.iter_mut() {
            if *bits & fixed_mask == fixed_value {
                *a = op(*a);
            }
        }
    }

    /// Applies `op` to every amplitude pair `(i, j)` with
    /// `i & fixed_mask == fixed_value`, `j = i ^ partner_xor`, where at
    /// least one member is occupied — the partner is materialized on
    /// demand (support growth) and exact-zero results are pruned.
    fn pair_map<Op>(&mut self, fixed_mask: u64, fixed_value: u64, partner_xor: u64, op: Op)
    where
        Op: Fn(Complex64, Complex64) -> (Complex64, Complex64),
    {
        debug_assert_ne!(partner_xor, 0, "pair kernel needs a partner");
        debug_assert_eq!(partner_xor & !fixed_mask, 0, "partner bits must be fixed");
        // Canonical (enumerated) index of every touched pair. Both pair
        // members canonicalize to the same value, so sort + dedup gives
        // each pair exactly once.
        let mut pairs: Vec<u64> = self
            .entries
            .iter()
            .filter_map(|&(bits, _)| {
                let f = bits & fixed_mask;
                if f == fixed_value {
                    Some(bits)
                } else if f == fixed_value ^ partner_xor {
                    Some(bits ^ partner_xor)
                } else {
                    None
                }
            })
            .collect();
        pairs.sort_unstable();
        pairs.dedup();
        if pairs.is_empty() {
            return;
        }
        let mut updates: Vec<(u64, Complex64)> = Vec::with_capacity(pairs.len() * 2);
        for &i in &pairs {
            let j = i ^ partner_xor;
            let (na, nb) = op(self.amplitude(i), self.amplitude(j));
            updates.push((i, na));
            updates.push((j, nb));
        }
        updates.sort_unstable_by_key(|e| e.0);
        self.merge_updates(updates);
    }

    /// Replaces/inserts the given sorted, index-unique updates into the
    /// sorted entry list, pruning exact complex zeros.
    fn merge_updates(&mut self, updates: Vec<(u64, Complex64)>) {
        debug_assert!(updates.windows(2).all(|w| w[0].0 < w[1].0));
        self.touch();
        let old = std::mem::take(&mut self.entries);
        let mut out = Vec::with_capacity(old.len() + updates.len());
        let push_nonzero = |out: &mut Vec<(u64, Complex64)>, bits: u64, a: Complex64| {
            if a.re != 0.0 || a.im != 0.0 {
                out.push((bits, a));
            }
        };
        let mut it = updates.into_iter().peekable();
        for (bits, a) in old {
            while let Some(&(ubits, ua)) = it.peek() {
                if ubits < bits {
                    push_nonzero(&mut out, ubits, ua);
                    it.next();
                } else {
                    break;
                }
            }
            if it.peek().is_some_and(|&(ubits, _)| ubits == bits) {
                let (ubits, ua) = it.next().expect("peeked");
                push_nonzero(&mut out, ubits, ua);
            } else {
                out.push((bits, a));
            }
        }
        for (ubits, ua) in it {
            push_nonzero(&mut out, ubits, ua);
        }
        self.entries = out;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::ScalarStateVector;
    use crate::state::StateVector;
    use choco_mathkit::c64;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    const EPS: f64 = 1e-12;

    fn assert_matches_dense(c: &Circuit) {
        let sparse = SparseStateVector::run(c);
        let dense = StateVector::run(c);
        for bits in 0..(1u64 << c.n_qubits()) {
            let (a, b) = (sparse.amplitude(bits), dense.amplitude(bits));
            assert!(a.approx_eq(b, 1e-12), "bits={bits}: sparse {a} dense {b}");
        }
    }

    #[test]
    fn initial_state_is_one_entry() {
        let s = SparseStateVector::new(4);
        assert_eq!(s.occupancy(), 1);
        assert_eq!(s.probability(0), 1.0);
        assert!((s.density() - 1.0 / 16.0).abs() < EPS);
    }

    #[test]
    fn basis_permutations_keep_occupancy_one() {
        let mut s = SparseStateVector::from_bits(3, 0b011);
        s.apply_gate(&Gate::X(2));
        s.apply_gate(&Gate::Cx(0, 1));
        s.apply_gate(&Gate::Swap(0, 2));
        assert_eq!(s.occupancy(), 1, "permutations never grow support");
        assert!((s.norm_sqr() - 1.0).abs() < EPS);
    }

    #[test]
    fn hadamard_grows_support_on_demand() {
        let mut s = SparseStateVector::new(3);
        s.apply_gate(&Gate::H(0));
        assert_eq!(s.occupancy(), 2);
        s.apply_gate(&Gate::H(1));
        assert_eq!(s.occupancy(), 4);
        // Interference back down: H is its own inverse.
        s.apply_gate(&Gate::H(1));
        s.apply_gate(&Gate::H(0));
        assert_eq!(s.occupancy(), 1, "exact zeros are pruned");
        assert!((s.probability(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ublock_stays_in_pattern_pair() {
        let block = UBlock::from_u_with_angle(&[1, -1, 1], 1.3);
        let mut s = SparseStateVector::from_bits(3, 0b101);
        s.apply_ublock(&block);
        assert_eq!(s.occupancy(), 2);
        assert!((s.probability(0b101) + s.probability(0b010) - 1.0).abs() < EPS);
        // Off-pattern states are untouched.
        let mut s = SparseStateVector::from_bits(3, 0b111);
        s.apply_ublock(&block);
        assert_eq!(s.occupancy(), 1);
        assert!((s.probability(0b111) - 1.0).abs() < EPS);
    }

    #[test]
    fn empty_support_ublock_is_a_global_phase() {
        let block = UBlock {
            support: vec![],
            pattern: 0,
            angle: 0.3,
        };
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let mut s = SparseStateVector::run(&c);
        s.apply_ublock(&block);
        assert!(s.amplitude(0).approx_eq(
            Complex64::cis(-0.3).scale(std::f64::consts::FRAC_1_SQRT_2),
            EPS
        ));
    }

    #[test]
    fn mixed_circuit_matches_dense_engine() {
        let mut poly = PhasePoly::new(5);
        poly.add_constant(0.3);
        poly.add_linear(0, 1.0);
        poly.add_linear(4, -0.8);
        poly.add_quadratic(1, 3, 0.6);
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
            .diag(Arc::new(poly), 0.75)
            .push(Gate::Swap(0, 4))
            .push(Gate::Y(2));
        assert_matches_dense(&c);
    }

    #[test]
    fn amplitudes_are_bit_identical_to_dense_not_just_close() {
        // Bit-identity (==, not approx) is what makes the CI engine
        // matrix's byte-identical-report check possible.
        let mut poly = PhasePoly::new(4);
        poly.add_linear(1, 0.7);
        poly.add_quadratic(0, 3, -0.4);
        let mut c = Circuit::new(4);
        c.load_bits(0b0101);
        c.diag(Arc::new(poly), 0.9);
        c.ublock(UBlock::from_u_with_angle(&[1, -1, 0, 1], 0.5));
        c.ublock(UBlock::from_u_with_angle(&[0, 1, -1, -1], -0.8));
        let sparse = SparseStateVector::run(&c);
        let dense = StateVector::run(&c);
        for &(bits, a) in sparse.entries() {
            let d = dense.amplitude(bits);
            assert!(a.re == d.re && a.im == d.im, "bits={bits}: {a} vs {d}");
        }
    }

    #[test]
    fn degenerate_gates_are_no_ops() {
        let mut c = Circuit::new(2);
        c.h(0).h(1);
        c.push(Gate::Cx(0, 0));
        c.push(Gate::Swap(1, 1));
        c.push(Gate::Ccx(0, 1, 1));
        assert_matches_dense(&c);
    }

    #[test]
    fn controlled_u_and_all_1q_shapes_match_oracle() {
        let mut c = Circuit::new(3);
        c.h(0).h(2);
        c.push(Gate::S(0)); // diagonal
        c.push(Gate::X(1)); // anti-diagonal
        c.push(Gate::Ry(2, 0.9)); // real
        c.push(Gate::ControlledU {
            controls: vec![0],
            target: 2,
            matrix: Gate::Rx(2, 0.4).matrix_1q().unwrap(), // general complex
        });
        let sparse = SparseStateVector::run(&c);
        let oracle = ScalarStateVector::run(&c);
        for (bits, &a) in oracle.amplitudes().iter().enumerate() {
            assert!(sparse.amplitude(bits as u64).approx_eq(a, 1e-12));
        }
    }

    #[test]
    fn diag_values_matches_diag_poly() {
        let mut poly = PhasePoly::new(3);
        poly.add_linear(2, -1.5);
        poly.add_quadratic(0, 1, 0.7);
        let values: Vec<f64> = (0..8u64).map(|b| poly.eval_bits(b)).collect();
        let mut c = Circuit::new(3);
        c.h(0).h(1).h(2);
        let mut a = SparseStateVector::run(&c);
        let mut b = a.clone();
        a.apply_diag_poly(&poly, 0.9);
        b.apply_diag_values(&values, 0.9);
        for bits in 0..8u64 {
            assert!(a.amplitude(bits).approx_eq(b.amplitude(bits), EPS));
        }
    }

    #[test]
    fn expectations_match_dense() {
        let mut poly = PhasePoly::new(3);
        poly.add_linear(0, 1.0);
        poly.add_linear(1, 2.0);
        poly.add_quadratic(0, 2, -0.5);
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).ry(2, 0.8);
        let sparse = SparseStateVector::run(&c);
        let dense = StateVector::run(&c);
        let table: Vec<f64> = (0..8u64).map(|b| poly.eval_bits(b)).collect();
        assert_eq!(
            sparse.expectation_diag_values(&table),
            dense.expectation_diag_values(&table),
            "table expectation must be bit-identical"
        );
        assert!(
            (sparse.expectation_diag_poly(&poly) - dense.expectation_diag_poly(&poly)).abs()
                < 1e-12
        );
    }

    #[test]
    fn sampling_stream_is_identical_to_dense() {
        let mut c = Circuit::new(4);
        c.load_bits(0b0011);
        c.ublock(UBlock::from_u_with_angle(&[1, -1, 1, 0], 0.8));
        c.ublock(UBlock::from_u_with_angle(&[0, 1, -1, 1], 0.4));
        let sparse = SparseStateVector::run(&c);
        let dense = StateVector::run(&c);
        let mut rng_a = StdRng::seed_from_u64(17);
        let mut rng_b = StdRng::seed_from_u64(17);
        let a = sparse.sample(5_000, &mut rng_a);
        let b = dense.sample(5_000, &mut rng_b);
        assert_eq!(a, b, "same seed must give identical histograms");
    }

    #[test]
    fn reset_reuses_buffer() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1);
        let mut s = SparseStateVector::run(&c);
        assert!(s.occupancy() > 1);
        s.reset_zero();
        assert_eq!(s.occupancy(), 1);
        assert_eq!(s.probability(0), 1.0);
        s.reset_bits(0b101);
        assert_eq!(s.probability(0b101), 1.0);
    }

    #[test]
    fn wide_register_beyond_dense_allocation_runs() {
        // 30 qubits: a dense buffer would be 2^30 × 16 B = 16 GiB. The
        // sparse engine tracks two entries. Start on the block's |v⟩
        // pattern (even bits set) so the rotation engages.
        let u: Vec<i8> = (0..30).map(|i| if i % 2 == 0 { 1 } else { -1 }).collect();
        let v_bits = (0..30)
            .filter(|i| i % 2 == 0)
            .fold(0u64, |m, i| m | (1 << i));
        let mut s = SparseStateVector::from_bits(30, v_bits);
        s.apply_ublock(&UBlock::from_u_with_angle(&u, 0.7));
        assert_eq!(s.occupancy(), 2);
        assert!((s.norm_sqr() - 1.0).abs() < 1e-12);
        assert!((s.probability(v_bits) - 0.7f64.cos().powi(2)).abs() < 1e-12);
    }

    #[test]
    fn repeated_sampling_reuses_the_cumulative_table() {
        let mut c = Circuit::new(4);
        c.load_bits(0b0011);
        c.ublock(UBlock::from_u_with_angle(&[1, -1, 1, 0], 0.8));
        let mut s = SparseStateVector::run(&c);
        assert!(!s.cumulative_valid.get(), "fresh state has no table");
        let mut rng = StdRng::seed_from_u64(3);
        let a = s.sample(1_000, &mut rng);
        assert!(s.cumulative_valid.get(), "first sample builds the table");
        let table_ptr = s.cumulative.borrow().as_ptr();
        let b = s.sample(1_000, &mut rng);
        assert_eq!(s.cumulative.borrow().as_ptr(), table_ptr, "table rebuilt");
        assert_eq!(a.shots() + b.shots(), 2_000);
        // The cached path must sample the same stream as a fresh table.
        let mut fresh = Vec::new();
        s.fill_cumulative(&mut fresh);
        let mut ra = StdRng::seed_from_u64(9);
        let mut rb = StdRng::seed_from_u64(9);
        assert_eq!(
            s.sample(2_000, &mut ra),
            s.sample_with_cumulative(&fresh, 2_000, &mut rb)
        );
        // Any mutation invalidates the cache.
        s.apply_gate(&Gate::X(0));
        assert!(!s.cumulative_valid.get(), "mutation must invalidate");
        let mut rc = StdRng::seed_from_u64(5);
        let mut rd = StdRng::seed_from_u64(5);
        let cached = s.sample(2_000, &mut rc);
        let direct = {
            let mut fresh = Vec::new();
            s.fill_cumulative(&mut fresh);
            s.sample_with_cumulative(&fresh, 2_000, &mut rd)
        };
        assert_eq!(cached, direct, "post-mutation table must be rebuilt");
    }

    #[test]
    fn rotation_transfers_amplitude_to_inserted_partner() {
        let mut s = SparseStateVector::from_bits(2, 0b01);
        // Quarter turn: all amplitude transfers to the partner |10⟩.
        let block = UBlock::from_u_with_angle(&[1, -1], std::f64::consts::FRAC_PI_2);
        s.apply_ublock(&block);
        assert!((s.probability(0b10) - 1.0).abs() < 1e-12);
        assert!(s.amplitude(0b10).approx_eq(c64(0.0, -1.0), 1e-12));
    }
}
