//! The engine abstraction: one solver-facing state type over the dense
//! strided [`StateVector`], the feasible-subspace [`SparseStateVector`],
//! or the rank-indexed [`CompactStateVector`], selected by
//! [`SimConfig::engine`].
//!
//! Everything above the kernels — [`crate::SimWorkspace`], the solvers'
//! variational loop, the experiment runner, and the CLI — drives a
//! [`SimEngine`] and never names a concrete representation. The engines
//! produce bit-identical amplitudes, expectations, and sampling streams
//! (see [`crate::sparse`] and [`crate::compact`]), so engine selection is
//! purely a performance decision:
//!
//! * [`EngineKind::Dense`] — always the `2^n` buffer.
//! * [`EngineKind::Compact`] (the default) — the plan-replay engine. Its
//!   fast path lives in [`crate::SimWorkspace::run`] (whole-circuit
//!   replay against a compiled gate plan); in the *incremental* per-gate
//!   API here it starts sparse and **densifies automatically** once
//!   occupancy exceeds [`DENSITY_THRESHOLD`]` · 2^n` (subspace
//!   confinement broken — penalty/HEA mixers, uniform superpositions),
//!   provided the register is small enough to allocate densely. That is
//!   the clean fallback for circuits whose shape did not compile.

use crate::circuit::Circuit;
use crate::compact::CompactStateVector;
use crate::counts::Counts;
use crate::gate::Gate;
use crate::phasepoly::PhasePoly;
use crate::simconfig::{EngineKind, SimConfig, DENSITY_THRESHOLD};
use crate::sparse::SparseStateVector;
use crate::state::StateVector;
use choco_mathkit::Complex64;
use rand::Rng;

/// Largest register the compact engine's fallback will densify: beyond
/// this the dense buffer itself is the bottleneck (2^26 amplitudes =
/// 1 GiB), so a wider sparse state stays sparse even above the threshold.
pub const MAX_DENSIFY_QUBITS: usize = 26;

/// A quantum state behind one of the two amplitude representations.
///
/// # Examples
///
/// ```
/// use choco_qsim::{Circuit, EngineKind, SimConfig, SimEngine, UBlock};
///
/// // The per-gate API of the default (compact) engine starts sparse.
/// let config = SimConfig::serial();
/// assert_eq!(config.engine, EngineKind::Compact);
/// let mut engine = SimEngine::new_with(5, config);
/// let mut c = Circuit::new(5);
/// c.load_bits(0b00001);
/// c.ublock(UBlock::from_u_with_angle(&[1, -1, -1, 0, 0], 0.8));
/// engine.apply_circuit(&c);
/// assert!(engine.is_sparse());
/// assert_eq!(engine.occupancy(), 2); // |F|-confined, not 2^5
/// ```
#[derive(Clone, Debug)]
pub enum SimEngine {
    /// The dense strided engine.
    Dense(StateVector),
    /// The feasible-subspace sparse engine.
    Sparse(SparseStateVector),
    /// The rank-indexed compact engine (built by
    /// [`crate::SimWorkspace`]'s plan replay; the per-gate API degrades
    /// it to sparse on first mutation).
    Compact(CompactStateVector),
}

impl SimEngine {
    /// The all-zeros state `|0…0⟩`, represented per `config.engine`
    /// ([`EngineKind::Compact`] starts sparse — the compact
    /// representation only materializes through
    /// [`crate::SimWorkspace`]'s whole-circuit plan replay).
    pub fn new_with(n_qubits: usize, config: SimConfig) -> Self {
        match config.engine {
            EngineKind::Dense => SimEngine::Dense(StateVector::new_with(n_qubits, config)),
            EngineKind::Compact => SimEngine::Sparse(SparseStateVector::new_with(n_qubits, config)),
        }
    }

    /// Runs a circuit from `|0…0⟩` under an explicit configuration.
    pub fn run_with(circuit: &Circuit, config: SimConfig) -> Self {
        let mut e = SimEngine::new_with(circuit.n_qubits(), config);
        e.apply_circuit(circuit);
        e
    }

    /// The execution configuration.
    pub fn config(&self) -> &SimConfig {
        match self {
            SimEngine::Dense(s) => s.config(),
            SimEngine::Sparse(s) => s.config(),
            SimEngine::Compact(s) => s.config(),
        }
    }

    /// Number of qubits.
    pub fn n_qubits(&self) -> usize {
        match self {
            SimEngine::Dense(s) => s.n_qubits(),
            SimEngine::Sparse(s) => s.n_qubits(),
            SimEngine::Compact(s) => s.n_qubits(),
        }
    }

    /// `true` while the state is held in the sparse representation.
    pub fn is_sparse(&self) -> bool {
        matches!(self, SimEngine::Sparse(_))
    }

    /// `true` while the state is held in the compact (rank-indexed)
    /// representation.
    pub fn is_compact(&self) -> bool {
        matches!(self, SimEngine::Compact(_))
    }

    /// Short label of the current representation (`"dense"`, `"sparse"`,
    /// `"compact"`) — what [`EngineKind::Compact`] actually resolved to,
    /// as opposed to what was configured.
    pub fn representation_label(&self) -> &'static str {
        match self {
            SimEngine::Dense(_) => "dense",
            SimEngine::Sparse(_) => "sparse",
            SimEngine::Compact(_) => "compact",
        }
    }

    /// The dense state, if that is the current representation.
    pub fn as_dense(&self) -> Option<&StateVector> {
        match self {
            SimEngine::Dense(s) => Some(s),
            _ => None,
        }
    }

    /// Mutable dense state, if that is the current representation.
    pub fn as_dense_mut(&mut self) -> Option<&mut StateVector> {
        match self {
            SimEngine::Dense(s) => Some(s),
            _ => None,
        }
    }

    /// Number of occupied (exactly non-zero) basis entries. For the
    /// sparse engine this is the stored entry count; the dense and
    /// compact engines scan their buffers. Engine-invariant: amplitudes
    /// are bit-identical across representations, so the count is too.
    pub fn occupancy(&self) -> usize {
        match self {
            SimEngine::Dense(s) => s.occupancy(),
            SimEngine::Sparse(s) => s.occupancy(),
            SimEngine::Compact(s) => s.occupancy(),
        }
    }

    /// Resets to `|0…0⟩` in place. The representation is **sticky**: a
    /// compact run that fell back to dense stays dense for subsequent runs —
    /// the workload has shown its support fills the register, and
    /// re-starting sparse would re-pay the occupancy ramp plus a fresh
    /// `2^n` densify allocation on every variational iteration. (A dense
    /// reset reuses the buffer in place, preserving the workspace's
    /// zero-alloc-per-iteration invariant; fresh engines — new width, new
    /// workspace — still start sparse per the configuration.)
    pub fn reset_zero(&mut self) {
        match self {
            SimEngine::Dense(s) => s.reset_zero(),
            SimEngine::Sparse(s) => s.reset_zero(),
            SimEngine::Compact(s) => s.reset_zero(),
        }
    }

    /// Applies a single gate, then densifies a sparse state whose
    /// occupancy crossed [`DENSITY_THRESHOLD`]. A compact state degrades
    /// to sparse first: the rank tables that drove it belong to a
    /// whole-circuit plan, not to incremental mutation.
    pub fn apply_gate(&mut self, gate: &Gate) {
        if self.is_compact() {
            self.sparsify();
        }
        match self {
            SimEngine::Dense(s) => s.apply_gate(gate),
            SimEngine::Sparse(s) => {
                s.apply_gate(gate);
                self.maybe_densify();
            }
            SimEngine::Compact(_) => unreachable!("compact states sparsify before mutation"),
        }
    }

    /// Converts a compact state into the sparse representation in place
    /// (exact: the non-zero entries become the sparse entry list).
    fn sparsify(&mut self) {
        if let SimEngine::Compact(c) = self {
            let sparse =
                SparseStateVector::from_sorted_entries(c.n_qubits(), c.entries(), *c.config());
            *self = SimEngine::Sparse(sparse);
        }
    }

    /// Applies every gate of a circuit in order (with per-gate fallback
    /// checks on the sparse representation).
    pub fn apply_circuit(&mut self, circuit: &Circuit) {
        for g in circuit.iter() {
            self.apply_gate(g);
        }
    }

    /// Converts a sparse state into the dense representation in place
    /// (exact: occupied entries are scattered into a fresh `2^n` buffer).
    ///
    /// # Panics
    ///
    /// Panics above [`MAX_DENSIFY_QUBITS`]: those registers exist
    /// precisely because their dense buffer (4 GiB at 28 qubits) cannot
    /// be allocated, and an explicit panic beats an OOM abort.
    pub fn densify(&mut self) {
        if self.is_compact() {
            self.sparsify();
        }
        if let SimEngine::Sparse(s) = self {
            assert!(
                s.n_qubits() <= MAX_DENSIFY_QUBITS,
                "cannot densify a {}-qubit sparse state (limit {MAX_DENSIFY_QUBITS}: \
                 the dense buffer would not fit in memory)",
                s.n_qubits()
            );
            let dense = StateVector::from_sparse_entries(s.n_qubits(), s.entries(), *s.config());
            *self = SimEngine::Dense(dense);
        }
    }

    /// The compact engine's incremental fallback: densify once occupancy
    /// exceeds [`DENSITY_THRESHOLD`]` · 2^n`, unless the register is too
    /// wide to allocate densely ([`MAX_DENSIFY_QUBITS`]).
    fn maybe_densify(&mut self) {
        let SimEngine::Sparse(s) = self else { return };
        if s.n_qubits() <= MAX_DENSIFY_QUBITS && s.density() > DENSITY_THRESHOLD {
            self.densify();
        }
    }

    /// The amplitude of basis state `bits`.
    pub fn amplitude(&self, bits: u64) -> Complex64 {
        match self {
            SimEngine::Dense(s) => s.amplitude(bits),
            SimEngine::Sparse(s) => s.amplitude(bits),
            SimEngine::Compact(s) => s.amplitude(bits),
        }
    }

    /// Probability of measuring the basis state `bits`.
    pub fn probability(&self, bits: u64) -> f64 {
        match self {
            SimEngine::Dense(s) => s.probability(bits),
            SimEngine::Sparse(s) => s.probability(bits),
            SimEngine::Compact(s) => s.probability(bits),
        }
    }

    /// Number of basis states with probability above `eps`.
    pub fn support_size(&self, eps: f64) -> usize {
        match self {
            SimEngine::Dense(s) => s.support_size(eps),
            SimEngine::Sparse(s) => s.support_size(eps),
            SimEngine::Compact(s) => s.support_size(eps),
        }
    }

    /// Total probability (should be 1 up to rounding).
    pub fn norm_sqr(&self) -> f64 {
        match self {
            SimEngine::Dense(s) => s.norm_sqr(),
            SimEngine::Sparse(s) => s.norm_sqr(),
            SimEngine::Compact(s) => s.norm_sqr(),
        }
    }

    /// Fidelity `|⟨self|other⟩|²` against a dense reference state.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn fidelity_against_dense(&self, other: &StateVector) -> f64 {
        assert_eq!(self.n_qubits(), other.n_qubits(), "dimension mismatch");
        let over_entries = |entries: &[(u64, Complex64)]| {
            entries
                .iter()
                .map(|&(bits, a)| a.conj() * other.amplitude(bits))
                .sum::<Complex64>()
                .norm_sqr()
        };
        match self {
            SimEngine::Dense(s) => s.fidelity(other),
            SimEngine::Sparse(s) => over_entries(s.entries()),
            SimEngine::Compact(s) => over_entries(&s.entries()),
        }
    }

    /// Expectation of a diagonal observable given a `2^n` value table.
    ///
    /// # Panics
    ///
    /// Panics on table length mismatch.
    pub fn expectation_diag_values(&self, values: &[f64]) -> f64 {
        match self {
            SimEngine::Dense(s) => s.expectation_diag_values(values),
            SimEngine::Sparse(s) => s.expectation_diag_values(values),
            SimEngine::Compact(s) => s.expectation_diag_values(values),
        }
    }

    /// Expectation of a diagonal observable given as a polynomial — the
    /// table-free path large sparse registers rely on.
    pub fn expectation_diag_poly(&self, poly: &PhasePoly) -> f64 {
        match self {
            SimEngine::Dense(s) => s.expectation_diag_poly(poly),
            SimEngine::Sparse(s) => s.expectation_diag_poly(poly),
            SimEngine::Compact(s) => s.expectation_diag_poly(poly),
        }
    }

    /// Fills `out` with this engine's cumulative probability table
    /// (length `2^n` dense, occupancy sparse, `|F|` compact — pass it
    /// back to [`SimEngine::sample_with_cumulative`] on the *same*
    /// state).
    pub fn fill_cumulative(&self, out: &mut Vec<f64>) {
        match self {
            SimEngine::Dense(s) => s.fill_cumulative(out),
            SimEngine::Sparse(s) => s.fill_cumulative(out),
            SimEngine::Compact(s) => s.fill_cumulative(out),
        }
    }

    /// Samples `shots` outcomes using a table from
    /// [`SimEngine::fill_cumulative`]. Identical histograms across
    /// engines for a shared seed.
    ///
    /// # Panics
    ///
    /// Panics if the table does not match this engine's state.
    pub fn sample_with_cumulative<R: Rng>(
        &self,
        cumulative: &[f64],
        shots: u64,
        rng: &mut R,
    ) -> Counts {
        match self {
            SimEngine::Dense(s) => s.sample_with_cumulative(cumulative, shots, rng),
            SimEngine::Sparse(s) => s.sample_with_cumulative(cumulative, shots, rng),
            SimEngine::Compact(s) => s.sample_with_cumulative(cumulative, shots, rng),
        }
    }

    /// Samples `shots` measurement outcomes in the computational basis.
    pub fn sample<R: Rng>(&self, shots: u64, rng: &mut R) -> Counts {
        match self {
            SimEngine::Dense(s) => s.sample(shots, rng),
            SimEngine::Sparse(s) => s.sample(shots, rng),
            SimEngine::Compact(s) => s.sample(shots, rng),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::UBlock;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn dense_cfg() -> SimConfig {
        SimConfig::serial().with_engine(EngineKind::Dense)
    }

    fn compact_cfg() -> SimConfig {
        SimConfig::serial().with_engine(EngineKind::Compact)
    }

    #[test]
    fn engine_kind_selects_representation() {
        assert!(!SimEngine::new_with(3, dense_cfg()).is_sparse());
        assert!(SimEngine::new_with(3, compact_cfg()).is_sparse());
        assert!(SimEngine::new_with(3, SimConfig::serial()).is_sparse());
    }

    #[test]
    fn auto_densifies_when_threshold_crossed() {
        // 4 qubits at the 1/8 threshold: densify once occupancy > 2.
        let mut e = SimEngine::new_with(4, compact_cfg());
        e.apply_gate(&Gate::H(0));
        assert!(e.is_sparse(), "2 entries = threshold, not above");
        e.apply_gate(&Gate::H(1));
        assert!(!e.is_sparse(), "4 entries > 2: fallback must trip");
        // Post-fallback evolution continues on the dense engine.
        e.apply_gate(&Gate::H(2));
        e.apply_gate(&Gate::H(3));
        assert!((e.norm_sqr() - 1.0).abs() < 1e-12);
        assert_eq!(e.occupancy(), 16);
    }

    #[test]
    fn densify_is_exact() {
        let mut c = Circuit::new(5);
        c.load_bits(0b00010);
        c.ublock(UBlock::from_u_with_angle(&[-1, 1, -1, 0, 0], 0.9));
        let mut e = SimEngine::run_with(&c, compact_cfg());
        assert!(e.is_sparse(), "2 of 32 entries stays below the threshold");
        let reference = StateVector::run(&c);
        e.densify();
        assert!(!e.is_sparse());
        for bits in 0..32u64 {
            let (a, b) = (e.amplitude(bits), reference.amplitude(bits));
            assert!(a.re == b.re && a.im == b.im, "bits={bits}");
        }
    }

    #[test]
    fn reset_after_fallback_stays_dense() {
        // Sticky representation: once a run has shown its support fills
        // the register, later same-width runs reuse the dense buffer in
        // place instead of re-paying the sparse ramp + densify per run.
        let mut e = SimEngine::new_with(3, compact_cfg());
        let mut c = Circuit::new(3);
        c.h(0).h(1);
        e.apply_circuit(&c);
        assert!(!e.is_sparse(), "fallback tripped");
        e.reset_zero();
        assert!(!e.is_sparse(), "fallback is sticky across resets");
        assert_eq!(e.occupancy(), 1);
        assert_eq!(e.probability(0), 1.0);
    }

    #[test]
    fn densify_refuses_registers_beyond_the_dense_cap() {
        let mut e = SimEngine::new_with(30, compact_cfg());
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| e.densify()))
            .expect_err("must panic, not OOM");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("cannot densify"), "{msg}");
    }

    #[test]
    fn sample_streams_agree_across_engines() {
        let mut c = Circuit::new(5);
        c.load_bits(0b00001);
        c.ublock(UBlock::from_u_with_angle(&[1, -1, -1, 0, 0], 0.7));
        let dense = SimEngine::run_with(&c, dense_cfg());
        let sparse = SimEngine::run_with(&c, compact_cfg());
        assert!(!dense.is_sparse() && sparse.is_sparse());
        let mut ra = StdRng::seed_from_u64(9);
        let mut rb = StdRng::seed_from_u64(9);
        assert_eq!(dense.sample(3_000, &mut ra), sparse.sample(3_000, &mut rb));
    }

    #[test]
    fn fidelity_against_dense_spans_representations() {
        let mut c = Circuit::new(6);
        c.h(0).cx(0, 1).ry(2, 0.4);
        let reference = StateVector::run(&c);
        for (config, sparse) in [(dense_cfg(), false), (compact_cfg(), true)] {
            let e = SimEngine::run_with(&c, config);
            assert_eq!(e.is_sparse(), sparse, "4 of 64 entries stays sparse");
            assert!((e.fidelity_against_dense(&reference) - 1.0).abs() < 1e-12);
        }
    }
}
