//! The engine abstraction: one solver-facing, read-only view of a state
//! held by the dense strided [`StateVector`] or by one lane of the
//! rank-indexed [`crate::CompactStateVector`], selected by
//! [`SimConfig::engine`].
//!
//! Everything above the kernels — [`crate::SimWorkspace`], the solvers'
//! variational loop, the experiment runner, and the CLI — reads a
//! [`SimEngine`] and never names a concrete representation. A serial run
//! and every lane of a batched run are read through the same view. The
//! engines produce bit-identical amplitudes, expectations, and sampling
//! streams (see [`crate::compact`]), so engine selection is purely a
//! performance decision:
//!
//! * [`EngineKind::Dense`] — always the `2^n` buffer.
//! * [`EngineKind::Compact`] (the default) — plan replay:
//!   [`crate::SimWorkspace::run`] compiles each circuit shape once and
//!   replays it over the feasible basis. A shape whose structural support
//!   exceeds [`DENSITY_THRESHOLD`]` · 2^n` (penalty/HEA mixers, uniform
//!   superpositions) refuses its plan and runs on the dense engine
//!   instead, so the representation is a function of the circuit shape
//!   alone.
//!
//! [`DENSITY_THRESHOLD`]: crate::DENSITY_THRESHOLD

use crate::compact::CompactLane;
use crate::counts::Counts;
use crate::phasepoly::PhasePoly;
#[cfg(doc)]
use crate::simconfig::{EngineKind, SimConfig};
use crate::state::StateVector;
use choco_mathkit::Complex64;
use rand::Rng;

/// Largest register a refused plan falls back to dense on: beyond this
/// the dense buffer itself is the bottleneck (2^26 amplitudes = 1 GiB).
pub const MAX_DENSIFY_QUBITS: usize = 26;

/// The guard in front of the dense fallback: an error when a shape whose
/// plan refused at `support` entries (over `cap`) is too wide to run
/// densely. Those registers exist precisely because their dense buffer
/// (4 GiB at 28 qubits) cannot be allocated, and an explicit error beats
/// an OOM abort.
pub(crate) fn check_dense_fallback(
    n_qubits: usize,
    support: usize,
    cap: usize,
) -> Result<(), String> {
    if n_qubits <= MAX_DENSIFY_QUBITS {
        return Ok(());
    }
    Err(format!(
        "cannot densify a {n_qubits}-qubit shape whose plan refused at support {support} \
         (cap {cap}): the dense buffer would not fit in memory (limit {MAX_DENSIFY_QUBITS} qubits)"
    ))
}

/// A borrowed view of a quantum state behind one of the two amplitude
/// representations. `Copy`: pass it by value.
///
/// # Examples
///
/// ```
/// use choco_qsim::{Circuit, EngineKind, SimConfig, SimWorkspace, UBlock};
///
/// // The default (compact) engine replays a confined shape over |F|.
/// let config = SimConfig::serial();
/// assert_eq!(config.engine, EngineKind::Compact);
/// let mut ws = SimWorkspace::new(config);
/// let mut c = Circuit::new(5);
/// c.load_bits(0b00001);
/// c.ublock(UBlock::from_u_with_angle(&[1, -1, -1, 0, 0], 0.8));
/// let state = ws.run(&c);
/// assert!(state.is_compact());
/// assert_eq!(state.occupancy(), 2); // |F|-confined, not 2^5
/// ```
#[derive(Clone, Copy, Debug)]
pub enum SimEngine<'a> {
    /// The dense strided engine.
    Dense(&'a StateVector),
    /// One lane of the rank-indexed compact engine (built by
    /// [`crate::SimWorkspace`]'s plan replay).
    Compact(CompactLane<'a>),
}

impl<'a> SimEngine<'a> {
    /// Number of qubits.
    pub fn n_qubits(self) -> usize {
        match self {
            SimEngine::Dense(s) => s.n_qubits(),
            SimEngine::Compact(l) => l.n_qubits(),
        }
    }

    /// `true` while the state is held in the compact (rank-indexed)
    /// representation.
    pub fn is_compact(self) -> bool {
        matches!(self, SimEngine::Compact(_))
    }

    /// Short label of the current representation (`"dense"` or
    /// `"compact"`) — what [`EngineKind::Compact`] actually resolved to
    /// for this circuit shape, as opposed to what was configured.
    pub fn representation_label(self) -> &'static str {
        match self {
            SimEngine::Dense(_) => "dense",
            SimEngine::Compact(_) => "compact",
        }
    }

    /// The dense state, if that is the current representation.
    pub fn as_dense(self) -> Option<&'a StateVector> {
        match self {
            SimEngine::Dense(s) => Some(s),
            SimEngine::Compact(_) => None,
        }
    }

    /// Number of occupied (exactly non-zero) basis entries. Both engines
    /// scan their buffers. Engine-invariant: amplitudes are bit-identical
    /// across representations, so the count is too.
    pub fn occupancy(self) -> usize {
        match self {
            SimEngine::Dense(s) => s.occupancy(),
            SimEngine::Compact(l) => l.occupancy(),
        }
    }

    /// The amplitude of basis state `bits` (zero off a compact state's
    /// feasible basis).
    pub fn amplitude(self, bits: u64) -> Complex64 {
        match self {
            SimEngine::Dense(s) => s.amplitude(bits),
            SimEngine::Compact(l) => l.amplitude(bits),
        }
    }

    /// Probability of measuring the basis state `bits`.
    pub fn probability(self, bits: u64) -> f64 {
        self.amplitude(bits).norm_sqr()
    }

    /// Number of basis states with probability above `eps` (the fig. 9(b)
    /// support metric).
    pub fn support_size(self, eps: f64) -> usize {
        match self {
            SimEngine::Dense(s) => s.support_size(eps),
            SimEngine::Compact(l) => l.support_size(eps),
        }
    }

    /// Total probability (should be 1 up to rounding).
    pub fn norm_sqr(self) -> f64 {
        match self {
            SimEngine::Dense(s) => s.norm_sqr(),
            SimEngine::Compact(l) => l.norm_sqr(),
        }
    }

    /// Fidelity `|⟨self|other⟩|²` against a dense reference state.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn fidelity_against_dense(self, other: &StateVector) -> f64 {
        assert_eq!(self.n_qubits(), other.n_qubits(), "dimension mismatch");
        match self {
            SimEngine::Dense(s) => s.fidelity(other),
            SimEngine::Compact(l) => l.fidelity_against_dense(other),
        }
    }

    /// Expectation of a diagonal observable given a `2^n` value table.
    ///
    /// # Panics
    ///
    /// Panics on table length mismatch.
    pub fn expectation_diag_values(self, values: &[f64]) -> f64 {
        match self {
            SimEngine::Dense(s) => s.expectation_diag_values(values),
            SimEngine::Compact(l) => l.expectation_diag_values(values),
        }
    }

    /// Expectation of a diagonal observable given as a polynomial — the
    /// table-free path compact solves rely on: `O(|F|)` for a polynomial
    /// the replayed circuit evolves under (its values were baked per rank
    /// when the plan was compiled). Same bits as
    /// [`SimEngine::expectation_diag_values`] on the polynomial's table.
    pub fn expectation_diag_poly(self, poly: &PhasePoly) -> f64 {
        match self {
            SimEngine::Dense(s) => s.expectation_diag_poly(poly),
            SimEngine::Compact(l) => l.expectation_diag_poly(poly),
        }
    }

    /// Fills `out` with this engine's cumulative probability table
    /// (length `2^n` dense, `|F|` compact — pass it back to
    /// [`SimEngine::sample_with_cumulative`] on the *same* state).
    pub fn fill_cumulative(self, out: &mut Vec<f64>) {
        match self {
            SimEngine::Dense(s) => s.fill_cumulative(out),
            SimEngine::Compact(l) => l.fill_cumulative(out),
        }
    }

    /// Samples `shots` outcomes using a table from
    /// [`SimEngine::fill_cumulative`]: one `rng.gen::<f64>()` per shot,
    /// so a shared seed yields identical histograms across engines.
    ///
    /// # Panics
    ///
    /// Panics if the table does not match this engine's state.
    pub fn sample_with_cumulative<R: Rng>(
        self,
        cumulative: &[f64],
        shots: u64,
        rng: &mut R,
    ) -> Counts {
        match self {
            SimEngine::Dense(s) => s.sample_with_cumulative(cumulative, shots, rng),
            SimEngine::Compact(l) => l.sample_with_cumulative(cumulative, shots, rng),
        }
    }

    /// Samples `shots` measurement outcomes in the computational basis,
    /// building the cumulative table on the fly
    /// ([`crate::SimWorkspace::sample`] caches it across calls).
    pub fn sample<R: Rng>(self, shots: u64, rng: &mut R) -> Counts {
        let mut cumulative = Vec::new();
        self.fill_cumulative(&mut cumulative);
        self.sample_with_cumulative(&cumulative, shots, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Circuit;
    use crate::gate::UBlock;
    use crate::simconfig::{EngineKind, SimConfig};
    use crate::workspace::SimWorkspace;
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
        // Dense always runs dense; compact replays a confined shape and
        // runs a register-filling one (its plan refused) on dense.
        let mut confined = Circuit::new(10);
        confined.load_bits(0b01);
        confined.ublock(UBlock::from_u_with_angle(&[1, -1], 0.4));
        let mut filling = Circuit::new(10);
        for q in 0..10 {
            filling.h(q);
        }
        let label = |config, c: &Circuit| SimWorkspace::new(config).run(c).representation_label();
        assert_eq!(label(dense_cfg(), &confined), "dense");
        assert_eq!(label(compact_cfg(), &confined), "compact");
        assert_eq!(label(SimConfig::serial(), &confined), "compact");
        assert_eq!(label(compact_cfg(), &filling), "dense");
    }

    #[test]
    fn auto_densifies_when_threshold_crossed() {
        // 10 qubits: the plan cap is a quarter of the register (256). A
        // Hadamard wall over 8 qubits still compiles; a ninth Hadamard
        // crosses the cap and the shape runs dense.
        let wall = |k: usize| {
            let mut c = Circuit::new(10);
            for q in 0..k {
                c.h(q);
            }
            c
        };
        let mut ws = SimWorkspace::new(compact_cfg());
        assert!(
            ws.run(&wall(8)).is_compact(),
            "support 256 = cap, not above"
        );
        let state = ws.run(&wall(9));
        assert!(
            state.as_dense().is_some(),
            "support 512 > 256: plan refused"
        );
        assert!((state.norm_sqr() - 1.0).abs() < 1e-12);
        assert_eq!(state.occupancy(), 512);
        assert_eq!(ws.plan_cache().stats().refusals, 1);
    }

    #[test]
    fn densify_is_exact() {
        // A refused shape's dense run is bit-identical to a bare dense run.
        let mut poly = PhasePoly::new(10);
        poly.add_linear(1, 0.6);
        poly.add_quadratic(0, 9, -0.3);
        let mut c = Circuit::new(10);
        c.load_bits(0b00010);
        c.ublock(UBlock::from_u_with_angle(&[-1, 1, -1, 0, 0], 0.9));
        c.diag(std::sync::Arc::new(poly), 0.7);
        for q in 2..10 {
            c.ry(q, 0.1 * q as f64);
        }
        let mut ws = SimWorkspace::new(compact_cfg());
        let e = ws.run(&c);
        assert!(e.as_dense().is_some(), "2 · 2^8 of 1024 entries refuses");
        let reference = StateVector::run(&c);
        for bits in 0..1024u64 {
            let (a, b) = (e.amplitude(bits), reference.amplitude(bits));
            assert!(a.re == b.re && a.im == b.im, "bits={bits}");
        }
    }

    #[test]
    fn densify_refuses_registers_beyond_the_dense_cap() {
        // Within the cap the guard passes; beyond it a refused shape is
        // an error (naming its support and the cap), not an OOM.
        assert!(check_dense_fallback(MAX_DENSIFY_QUBITS, 1 << 25, 1 << 24).is_ok());
        let msg = check_dense_fallback(30, (1 << 22) + 1, 1 << 22).unwrap_err();
        assert!(msg.contains("cannot densify"), "{msg}");
        assert!(
            msg.contains("support 4194305") && msg.contains("cap 4194304"),
            "{msg}"
        );
    }

    #[test]
    fn sample_streams_agree_across_engines() {
        let mut c = Circuit::new(5);
        c.load_bits(0b00001);
        c.ublock(UBlock::from_u_with_angle(&[1, -1, -1, 0, 0], 0.7));
        let mut dense_ws = SimWorkspace::new(dense_cfg());
        let mut compact_ws = SimWorkspace::new(compact_cfg());
        let (dense, compact) = (dense_ws.run(&c), compact_ws.run(&c));
        assert!(!dense.is_compact() && compact.is_compact());
        let mut ra = StdRng::seed_from_u64(9);
        let mut rb = StdRng::seed_from_u64(9);
        assert_eq!(dense.sample(3_000, &mut ra), compact.sample(3_000, &mut rb));
    }

    #[test]
    fn fidelity_against_dense_spans_representations() {
        let mut c = Circuit::new(6);
        c.h(0).cx(0, 1).ry(2, 0.4);
        let reference = StateVector::run(&c);
        for (config, compact) in [(dense_cfg(), false), (compact_cfg(), true)] {
            let mut ws = SimWorkspace::new(config);
            let e = ws.run(&c);
            assert_eq!(e.is_compact(), compact, "4 of 64 entries compiles");
            assert!((e.fidelity_against_dense(&reference) - 1.0).abs() < 1e-12);
        }
    }
}
