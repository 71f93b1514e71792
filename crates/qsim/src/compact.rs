//! The rank-indexed compact engine's state representation.
//!
//! Where the sparse engine stores `(basis index, amplitude)` entries and
//! pays lookup/insert churn per gate, the compact engine stores a dense
//! `Vec<Complex64>` of length `|F|`, indexed by the *rank* of each
//! feasible basis state in the sorted feasible basis `F` that
//! the gate-plan compiler enumerated at compile time. All per-gate work happens
//! through the plan's precomputed rank tables; this type only owns the
//! amplitude array and exposes the solver-facing read operations
//! (amplitudes, expectations, sampling, support counting).
//!
//! That array is a one-lane batch: replay writes it with the same
//! `GatePlan::execute` call that fills a K-lane
//! [`crate::BatchWorkspace`], and both types read through one `Lane`
//! implementation of the rank-strided reads.
//!
//! Structural slots the sparse engine pruned hold exact complex zeros
//! here. Every read operation either skips them (mirroring the sparse
//! engine's entry iteration term for term, so sums stay bit-identical) or
//! lets them contribute exact IEEE zeros (the cumulative sampling table),
//! which keeps amplitudes, expectations, and sample streams bit-identical
//! across all three engines.

use crate::counts::Counts;
use crate::phasepoly::PhasePoly;
use crate::plan::PlanBasis;
use crate::simconfig::SimConfig;
use choco_mathkit::Complex64;
use rand::Rng;
use std::sync::Arc;

/// A pure quantum state over the feasible basis `F`, stored as one dense
/// amplitude per feasible-state rank.
///
/// Built and driven by [`crate::SimWorkspace`] when
/// [`crate::EngineKind::Compact`] is selected; the basis is shared
/// (`Arc`) with the compiled gate plan that produced it.
#[derive(Clone, Debug)]
pub struct CompactStateVector {
    n_qubits: usize,
    /// The sorted feasible basis `F`: `basis.bits[rank]` is the
    /// basis-state bit pattern of `amps[rank]`.
    basis: Arc<PlanBasis>,
    amps: Vec<Complex64>,
    config: SimConfig,
}

impl CompactStateVector {
    /// An unallocated state over the given feasible basis; replay starts
    /// with [`CompactStateVector::reset_for_basis`].
    pub(crate) fn new(n_qubits: usize, basis: &Arc<PlanBasis>, config: SimConfig) -> Self {
        CompactStateVector {
            n_qubits,
            basis: basis.clone(),
            amps: Vec::new(),
            config,
        }
    }

    /// Re-targets this state at another plan's basis and resets to
    /// `|0…0⟩`, reusing the amplitude allocation (capacity permitting) —
    /// the workspace's zero-alloc-per-iteration path when one solve
    /// alternates between circuit shapes.
    pub(crate) fn reset_for_basis(&mut self, basis: &Arc<PlanBasis>) {
        reset_lanes(&mut self.basis, &mut self.amps, basis, 1);
    }

    /// Resets to `|0…0⟩` in place.
    pub fn reset_zero(&mut self) {
        self.amps.fill(Complex64::ZERO);
        self.amps[0] = Complex64::ONE;
    }

    /// The execution configuration.
    #[inline]
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Number of qubits.
    #[inline]
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// The sorted feasible basis this state is ranked over.
    #[inline]
    pub fn basis(&self) -> &[u64] {
        &self.basis.bits
    }

    /// Mutable amplitude array for plan replay (rank-indexed).
    #[inline]
    pub(crate) fn amps_mut(&mut self) -> &mut [Complex64] {
        &mut self.amps
    }

    /// Size of the feasible basis `|F|` — the engine's storage footprint,
    /// as opposed to [`CompactStateVector::occupancy`] which counts only
    /// numerically non-zero amplitudes.
    #[inline]
    pub fn basis_len(&self) -> usize {
        self.basis.bits.len()
    }

    /// The amplitude array as the one lane of a K = 1 batch, which is
    /// how every read below is implemented.
    fn lane(&self) -> Lane<'_> {
        Lane {
            n_qubits: self.n_qubits,
            basis: &self.basis,
            amps: &self.amps,
            lanes: 1,
            lane: 0,
        }
    }

    /// Number of exactly non-zero amplitudes. Equals the sparse engine's
    /// occupancy (amplitudes are bit-identical across engines; the sparse
    /// engine prunes exact zeros).
    pub fn occupancy(&self) -> usize {
        self.lane().occupancy()
    }

    /// The non-zero entries `(basis index, amplitude)` in basis order —
    /// exactly the sparse engine's entry list for the same state.
    pub fn entries(&self) -> Vec<(u64, Complex64)> {
        self.lane().occupied().collect()
    }

    /// The amplitude of basis state `bits` (zero off the feasible basis).
    pub fn amplitude(&self, bits: u64) -> Complex64 {
        self.lane().amplitude(bits)
    }

    /// Probability of measuring the basis state `bits`.
    pub fn probability(&self, bits: u64) -> f64 {
        self.amplitude(bits).norm_sqr()
    }

    /// Number of basis states with probability above `eps` (the fig. 9(b)
    /// support metric).
    pub fn support_size(&self, eps: f64) -> usize {
        self.amps.iter().filter(|a| a.norm_sqr() > eps).count()
    }

    /// Total probability (should be 1 up to rounding). Skips exact zeros
    /// so the sum has the same term sequence as the sparse engine's.
    pub fn norm_sqr(&self) -> f64 {
        self.lane().norm_sqr()
    }

    /// Expectation of a diagonal observable given a `2^n` value table.
    /// Bit-identical to the other engines: the term sequence equals the
    /// sparse engine's occupied-entry iteration.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != 2^n`.
    pub fn expectation_diag_values(&self, values: &[f64]) -> f64 {
        self.lane().expectation_diag_values(values)
    }

    /// Expectation of a diagonal observable given as a polynomial, no
    /// table required: `O(|F|)` for a polynomial the replayed circuit
    /// evolves under (its values were baked per rank when the plan was
    /// compiled), `O(|F| · terms)` for any other. Both give the same
    /// bits as [`CompactStateVector::expectation_diag_values`] on the
    /// polynomial's table.
    pub fn expectation_diag_poly(&self, poly: &PhasePoly) -> f64 {
        self.lane().expectation_diag_poly(poly)
    }

    /// Fills `out` with the cumulative probability over all `|F|` ranks
    /// (ascending basis index). Zero slots add exact IEEE zeros, so the
    /// values at occupied slots match the other engines' tables
    /// bit-for-bit — which keeps sample streams identical.
    pub fn fill_cumulative(&self, out: &mut Vec<f64>) {
        self.lane().fill_cumulative(out);
    }

    /// Samples `shots` outcomes using a prebuilt rank-cumulative table
    /// (see [`CompactStateVector::fill_cumulative`]). One
    /// `rng.gen::<f64>()` per shot; tie handling mirrors the dense
    /// engine's `partition_point` endpoint exactly, so a shared seed
    /// yields identical histograms across engines.
    ///
    /// # Panics
    ///
    /// Panics if the table length does not match `|F|`.
    pub fn sample_with_cumulative<R: Rng>(
        &self,
        cumulative: &[f64],
        shots: u64,
        rng: &mut R,
    ) -> Counts {
        self.lane().sample_with_cumulative(cumulative, shots, rng)
    }

    /// Samples `shots` measurement outcomes, building the cumulative
    /// table on the fly (one-off calls; [`crate::SimWorkspace::sample`]
    /// caches the table across calls).
    pub fn sample<R: Rng>(&self, shots: u64, rng: &mut R) -> Counts {
        self.lane().sample(shots, rng)
    }
}

/// Points `held` at `basis` and resets every lane of a rank-major buffer
/// to `|0…0⟩` (rank 0 — every plan's basis starts there), reusing the
/// allocation when its capacity suffices. Returns whether it had to grow.
pub(crate) fn reset_lanes(
    held: &mut Arc<PlanBasis>,
    amps: &mut Vec<Complex64>,
    basis: &Arc<PlanBasis>,
    lanes: usize,
) -> bool {
    assert_eq!(
        basis.bits.first(),
        Some(&0),
        "feasible basis must contain |0…0⟩"
    );
    if !Arc::ptr_eq(held, basis) {
        *held = basis.clone();
    }
    let needed = lanes * basis.bits.len();
    let grew = amps.capacity() < needed;
    amps.clear();
    amps.resize(needed, Complex64::ZERO);
    amps[..lanes].fill(Complex64::ONE); // rank 0 of every lane
    grew
}

/// One lane of a rank-major amplitude buffer `amps[rank * lanes + lane]`
/// over the feasible basis: the single implementation of the compact
/// reads. A [`CompactStateVector`] is the `lanes = 1` case and
/// [`crate::BatchWorkspace`] reads each of its lanes through one, so a
/// lane reads exactly what a serial run of its circuit would.
#[derive(Clone, Copy)]
pub(crate) struct Lane<'a> {
    pub(crate) n_qubits: usize,
    pub(crate) basis: &'a PlanBasis,
    pub(crate) amps: &'a [Complex64],
    pub(crate) lanes: usize,
    pub(crate) lane: usize,
}

impl<'a> Lane<'a> {
    /// The lane's amplitudes in rank order.
    fn iter(self) -> impl Iterator<Item = Complex64> + 'a {
        self.amps[self.lane..].iter().step_by(self.lanes).copied()
    }

    /// The lane's `(rank, amplitude)` entries with exact zeros skipped
    /// — the sparse engine's entry iteration, term for term.
    fn occupied_ranks(self) -> impl Iterator<Item = (usize, Complex64)> + 'a {
        self.iter()
            .enumerate()
            .filter(|(_, a)| a.re != 0.0 || a.im != 0.0)
    }

    /// [`Lane::occupied_ranks`] with each rank's basis index.
    fn occupied(self) -> impl Iterator<Item = (u64, Complex64)> + 'a {
        let bits = &self.basis.bits;
        self.occupied_ranks().map(move |(rank, a)| (bits[rank], a))
    }

    pub(crate) fn amplitude(self, bits: u64) -> Complex64 {
        match self.basis.bits.binary_search(&bits) {
            Ok(rank) => self.amps[rank * self.lanes + self.lane],
            Err(_) => Complex64::ZERO,
        }
    }

    pub(crate) fn occupancy(self) -> usize {
        self.occupied().count()
    }

    pub(crate) fn norm_sqr(self) -> f64 {
        self.occupied().map(|(_, a)| a.norm_sqr()).sum()
    }

    pub(crate) fn expectation_diag_values(self, values: &[f64]) -> f64 {
        assert_eq!(
            values.len(),
            1usize << self.n_qubits,
            "diagonal length mismatch"
        );
        self.occupied()
            .map(|(bits, a)| a.norm_sqr() * values[bits as usize])
            .sum()
    }

    pub(crate) fn expectation_diag_poly(self, poly: &PhasePoly) -> f64 {
        match self.basis.values_of(poly) {
            // The plan's own polynomial: the same `eval_bits` values,
            // baked per rank, over the same occupied terms in the same
            // order as the fallback below.
            Some(values) => self
                .occupied_ranks()
                .map(|(rank, a)| a.norm_sqr() * values[rank])
                .sum(),
            None => self
                .occupied()
                .map(|(bits, a)| a.norm_sqr() * poly.eval_bits(bits))
                .sum(),
        }
    }

    pub(crate) fn fill_cumulative(self, out: &mut Vec<f64>) {
        out.clear();
        out.reserve(self.basis.bits.len());
        let mut acc = 0.0f64;
        for a in self.iter() {
            acc += a.norm_sqr();
            out.push(acc);
        }
    }

    pub(crate) fn sample_with_cumulative<R: Rng>(
        self,
        cumulative: &[f64],
        shots: u64,
        rng: &mut R,
    ) -> Counts {
        let basis = &self.basis.bits;
        assert_eq!(cumulative.len(), basis.len(), "table length mismatch");
        let total = *cumulative.last().expect("non-empty state");
        let mut counts = Counts::new();
        for _ in 0..shots {
            let r: f64 = rng.gen::<f64>() * total;
            let bits = if r == 0.0 {
                // The dense table's partition_point lands on basis index 0
                // for r = 0; mirror that endpoint exactly (as the sparse
                // engine does).
                0
            } else {
                let slot = cumulative.partition_point(|&c| c < r);
                basis[slot.min(basis.len() - 1)]
            };
            counts.record(bits);
        }
        counts
    }

    pub(crate) fn sample<R: Rng>(self, shots: u64, rng: &mut R) -> Counts {
        let mut cumulative = Vec::new();
        self.fill_cumulative(&mut cumulative);
        self.sample_with_cumulative(&cumulative, shots, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Circuit;
    use crate::engine::SimEngine;
    use crate::gate::UBlock;
    use crate::plan::{BatchScratch, GatePlan};
    use crate::sparse::SparseStateVector;
    use crate::state::StateVector;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Replays `circuit` on the compact engine, checked bit for bit
    /// against a dense run before any read is exercised.
    fn run_compact(circuit: &Circuit) -> CompactStateVector {
        let plan = GatePlan::compile(circuit, 1 << 12).unwrap();
        let config = SimConfig::serial();
        let mut state = CompactStateVector::new(circuit.n_qubits(), plan.basis(), config);
        state.reset_for_basis(plan.basis());
        let circuits = std::slice::from_ref(circuit);
        plan.execute(
            circuits,
            state.amps_mut(),
            &mut BatchScratch::default(),
            &config,
        );
        let dense = StateVector::run(circuit);
        for (bits, d) in dense.amplitudes().iter().enumerate() {
            let a = state.amplitude(bits as u64);
            assert!(
                a.re == d.re && a.im == d.im,
                "bits={bits}: compact {a} vs dense {d}"
            );
        }
        state
    }

    fn confined() -> Circuit {
        let mut poly = PhasePoly::new(4);
        poly.add_linear(0, 1.2);
        poly.add_quadratic(1, 3, -0.6);
        let poly = Arc::new(poly);
        let mut c = Circuit::new(4);
        c.load_bits(0b0011);
        c.diag(poly.clone(), 0.8);
        c.ublock(UBlock::from_u_with_angle(&[1, 0, -1, 0], 0.8));
        c.ublock(UBlock::from_u_with_angle(&[0, 1, 0, -1], 0.4));
        c.diag(poly, 0.5);
        c.ublock(UBlock::from_u_with_angle(&[1, 0, -1, 0], 0.3));
        c
    }

    #[test]
    fn reads_match_sparse_bitwise() {
        let circuit = confined();
        let compact = run_compact(&circuit);
        let sparse = SparseStateVector::run(&circuit);
        for bits in 0..16u64 {
            let (a, b) = (compact.amplitude(bits), sparse.amplitude(bits));
            assert!(a.re == b.re && a.im == b.im, "bits={bits}");
        }
        assert_eq!(compact.occupancy(), sparse.occupancy());
        assert_eq!(compact.entries(), sparse.entries().to_vec());
        assert_eq!(compact.support_size(1e-9), sparse.support_size(1e-9));
        assert!((compact.norm_sqr() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn expectations_are_bit_identical_to_sparse() {
        let circuit = confined();
        let compact = run_compact(&circuit);
        let sparse = SparseStateVector::run(&circuit);
        let mut poly = PhasePoly::new(4);
        poly.add_linear(2, -1.5);
        poly.add_quadratic(0, 1, 0.7);
        let table: Vec<f64> = (0..16u64).map(|b| poly.eval_bits(b)).collect();
        assert_eq!(
            compact.expectation_diag_values(&table),
            sparse.expectation_diag_values(&table)
        );
        assert_eq!(
            compact.expectation_diag_poly(&poly),
            sparse.expectation_diag_poly(&poly)
        );
    }

    #[test]
    fn plan_rank_values_match_the_cost_table_bitwise() {
        // The cost spans decision bits 0–2; qubits 3–4 play slack
        // registers the polynomial never reads. The circuit evolves under
        // `cost`, so its plan bakes `cost`'s rank values; `other` is not
        // the plan's and takes the per-entry `eval_bits` fallback.
        let n = 5;
        let mut cost = PhasePoly::new(3);
        cost.add_constant(0.25);
        cost.add_linear(0, 1.5);
        cost.add_linear(2, -0.75);
        cost.add_quadratic(0, 1, 0.6);
        let cost = Arc::new(cost);
        let mut other = PhasePoly::new(n);
        other.add_linear(4, -1.1);
        other.add_quadratic(1, 3, 0.35);
        let build = |theta: f64| {
            let mut c = Circuit::new(n);
            c.load_bits(0b00101);
            c.diag(cost.clone(), theta);
            c.ublock(UBlock::from_u_with_angle(&[1, 0, 0, -1, 0], theta));
            c.ublock(UBlock::from_u_with_angle(&[0, 1, -1, 0, 1], 0.6 * theta));
            c.diag(cost.clone(), 0.5 * theta);
            c.ublock(UBlock::from_u_with_angle(&[0, 0, 1, 0, -1], theta));
            c
        };
        let tables = [cost.values_table(1 << n), other.values_table(1 << n)];
        let check = |label: &str, by_poly: f64, by_table: f64| {
            assert_eq!(
                by_poly.to_bits(),
                by_table.to_bits(),
                "{label}: poly {by_poly} vs table {by_table}"
            );
        };
        let config = SimConfig::serial().with_engine(crate::EngineKind::Compact);
        let mut ws = crate::SimWorkspace::new(config);
        let SimEngine::Compact(state) = ws.run(&build(0.8)) else {
            panic!("a confined shape stays compact");
        };
        assert!(state.basis.values_of(&cost).is_some(), "plan's own poly");
        assert!(state.basis.values_of(&other).is_none(), "fallback poly");
        assert!(state.occupancy() > 4, "the test needs a spread state");
        for (poly, table) in [&*cost, &other].into_iter().zip(&tables) {
            let (by_poly, by_table) = (
                state.expectation_diag_poly(poly),
                state.expectation_diag_values(table),
            );
            check("serial", by_poly, by_table);
        }
        for k in [1usize, 3, 8] {
            let circuits: Vec<Circuit> = (0..k).map(|i| build(0.3 + 0.4 * i as f64)).collect();
            let batch = ws.run_batch(&circuits).expect("compact batch runs");
            for lane in 0..k {
                for (poly, table) in [&*cost, &other].into_iter().zip(&tables) {
                    let (by_poly, by_table) = (
                        batch.expectation_diag_poly(lane, poly),
                        batch.expectation_diag_values(lane, table),
                    );
                    check(&format!("K={k} lane={lane}"), by_poly, by_table);
                }
            }
        }
    }

    #[test]
    fn sample_stream_is_identical_to_sparse() {
        let circuit = confined();
        let compact = run_compact(&circuit);
        let sparse = SparseStateVector::run(&circuit);
        let mut ra = StdRng::seed_from_u64(17);
        let mut rb = StdRng::seed_from_u64(17);
        assert_eq!(
            compact.sample(5_000, &mut ra),
            sparse.sample(5_000, &mut rb)
        );
    }

    #[test]
    fn reset_reuses_the_allocation() {
        let circuit = confined();
        let mut compact = run_compact(&circuit);
        let ptr = compact.amps.as_ptr();
        compact.reset_zero();
        assert_eq!(compact.amps.as_ptr(), ptr);
        assert_eq!(compact.probability(0), 1.0);
        assert_eq!(compact.occupancy(), 1);
        // Re-targeting at the same basis keeps the allocation too.
        let basis = compact.basis.clone();
        compact.reset_for_basis(&basis);
        assert_eq!(compact.amps.as_ptr(), ptr);
    }
}
