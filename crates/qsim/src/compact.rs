//! The compact engine's state: one amplitude per rank of the feasible
//! basis `F` that the gate-plan compiler enumerated, for K candidate
//! circuits at once.
//!
//! A Choco-Q state never leaves the feasible subspace, so the compact
//! engine stores a dense `Vec<Complex64>` of `K·|F|` amplitudes in
//! **rank-major** order, `amps[rank·K + lane]`: all K candidates of one
//! basis rank sit next to each other. All per-gate work happens through
//! the plan's precomputed rank tables (`GatePlan::execute`);
//! a serial run is the K = 1 case of the same replay. This module owns
//! that buffer ([`CompactStateVector`]) and the one implementation of the
//! solver-facing reads over a lane of it ([`CompactLane`]), which
//! [`SimEngine::Compact`] exposes.
//!
//! Bit-identity contract: every lane evaluates the same IEEE expression
//! sequence at any K and any thread count, so a lane reads exactly what
//! a serial run of its circuit does. Slots of `F` that hold an exact zero
//! are skipped by every sum, so the term sequence is the occupied entries
//! in basis order — the dense engine's sequence with its exact zeros
//! dropped — and they add exact IEEE zeros to the cumulative sampling
//! table. Amplitudes and sample streams therefore match the dense engine
//! bit for bit, and an expectation is the dense engine's sum with its
//! exact-zero terms skipped.

use crate::circuit::Circuit;
use crate::counts::Counts;
use crate::engine::SimEngine;
use crate::phasepoly::PhasePoly;
use crate::plan::{BatchScratch, GatePlan, PlanBasis};
use crate::simconfig::SimConfig;
use crate::state::StateVector;
use choco_mathkit::Complex64;
use rand::Rng;
use std::sync::Arc;

/// The most lanes [`crate::SimWorkspace::run_template_batch`] replays: the
/// fastest width per candidate in the batched replay benchmark.
pub const MAX_BATCH_LANES: usize = 16;

/// The lane buffer size [`crate::SimWorkspace::run_template_batch`] keeps a
/// batch within. Every lane read strides across all lanes, and past
/// about this size batching stops paying: 16 lanes over a plan of about
/// 570k ranks made a whole Choco-Q cell three times slower than serial
/// replays.
pub const BATCH_BUFFER_BYTES: usize = 1 << 20;

/// K pure quantum states over one feasible basis `F`, stored rank-major
/// as `amps[rank·K + lane]` and read one lane at a time through
/// [`CompactStateVector::lane`].
///
/// Owned and reused across iterations by [`crate::SimWorkspace`]: its
/// serial state is a one-lane buffer, and
/// [`crate::SimWorkspace::run_batch`] returns a K-lane one. The basis is
/// shared (`Arc`) with the compiled gate plan that produced it.
#[derive(Debug, Default)]
pub struct CompactStateVector {
    n_qubits: usize,
    /// The sorted feasible basis `F`: `basis.bits[rank]` is the
    /// basis-state bit pattern of the amplitudes at `rank`.
    basis: Arc<PlanBasis>,
    amps: Vec<Complex64>,
    lanes: usize,
    reallocations: u64,
}

impl CompactStateVector {
    /// Resets one lane per circuit to the plan's start state (the basis
    /// state the circuits' leading `X` gates load), reusing the allocation
    /// when its capacity suffices, and replays `plan` over them; `on_step`
    /// observes the amplitudes as [`GatePlan::execute`] describes. The
    /// caller has verified every circuit matches the plan's shape.
    pub(crate) fn replay(
        &mut self,
        plan: &GatePlan,
        circuits: &[Circuit],
        scratch: &mut BatchScratch,
        config: &SimConfig,
        on_step: impl FnMut(&[Complex64]),
    ) {
        let basis = plan.basis();
        if !Arc::ptr_eq(&self.basis, basis) {
            self.basis = basis.clone();
        }
        let lanes = circuits.len();
        let needed = lanes * basis.bits.len();
        if self.amps.capacity() < needed {
            self.reallocations += 1;
        }
        self.amps.clear();
        self.amps.resize(needed, Complex64::ZERO);
        let start = basis.start * lanes;
        self.amps[start..start + lanes].fill(Complex64::ONE);
        self.n_qubits = circuits[0].n_qubits();
        self.lanes = lanes;
        plan.execute(circuits, &mut self.amps, scratch, config, on_step);
    }

    /// Number of qubits of the replayed circuits.
    #[inline]
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Number of lanes (K) held by the last replay.
    #[inline]
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// The sorted feasible basis the lanes are ranked over.
    #[inline]
    pub fn basis(&self) -> &[u64] {
        &self.basis.bits
    }

    /// How many times the lane buffer had to grow. Stays flat once the
    /// buffer has warmed up on a shape and lane count.
    #[inline]
    pub fn reallocations(&self) -> u64 {
        self.reallocations
    }

    /// One lane's state, read exactly as a serial run of its circuit.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn lane(&self, lane: usize) -> SimEngine<'_> {
        assert!(lane < self.lanes, "lane out of range");
        SimEngine::Compact(CompactLane {
            n_qubits: self.n_qubits,
            basis: &self.basis,
            amps: &self.amps,
            lanes: self.lanes,
            lane,
        })
    }
}

/// One lane of a [`CompactStateVector`]: the single implementation of
/// the compact reads, reached through [`SimEngine::Compact`].
#[derive(Clone, Copy, Debug)]
pub struct CompactLane<'a> {
    n_qubits: usize,
    basis: &'a PlanBasis,
    amps: &'a [Complex64],
    lanes: usize,
    lane: usize,
}

impl<'a> CompactLane<'a> {
    pub(crate) fn n_qubits(self) -> usize {
        self.n_qubits
    }

    /// The lane's amplitudes in rank order.
    fn iter(self) -> impl Iterator<Item = Complex64> + 'a {
        self.amps[self.lane..].iter().step_by(self.lanes).copied()
    }

    /// The lane's `(rank, amplitude)` entries with exact zeros skipped,
    /// in basis order.
    fn occupied_ranks(self) -> impl Iterator<Item = (usize, Complex64)> + 'a {
        self.iter()
            .enumerate()
            .filter(|(_, a)| a.re != 0.0 || a.im != 0.0)
    }

    /// [`CompactLane::occupied_ranks`] with each rank's basis index.
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

    pub(crate) fn support_size(self, eps: f64) -> usize {
        self.iter().filter(|a| a.norm_sqr() > eps).count()
    }

    pub(crate) fn norm_sqr(self) -> f64 {
        self.occupied().map(|(_, a)| a.norm_sqr()).sum()
    }

    pub(crate) fn fidelity_against_dense(self, other: &StateVector) -> f64 {
        self.occupied()
            .map(|(bits, a)| a.conj() * other.amplitude(bits))
            .sum::<Complex64>()
            .norm_sqr()
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
                // for r = 0; mirror that endpoint exactly.
                0
            } else {
                let slot = cumulative.partition_point(|&c| c < r);
                basis[slot.min(basis.len() - 1)]
            };
            counts.record(bits);
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Circuit;
    use crate::engine::SimEngine;
    use crate::gate::{Gate, UBlock};
    use crate::plan::{BatchScratch, GatePlan};
    use crate::state::StateVector;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Replays `circuit` on the compact engine, checked bit for bit
    /// against a dense run before any read is exercised.
    fn run_compact(circuit: &Circuit) -> CompactStateVector {
        let plan = GatePlan::compile(circuit, 1 << 12).unwrap();
        let mut state = CompactStateVector::default();
        let circuits = std::slice::from_ref(circuit);
        let mut scratch = BatchScratch::default();
        state.replay(&plan, circuits, &mut scratch, &SimConfig::serial(), |_| {});
        let dense = StateVector::run(circuit);
        for (bits, d) in dense.amplitudes().iter().enumerate() {
            let a = state.lane(0).amplitude(bits as u64);
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

    /// The dense state's exactly non-zero entries, in basis order.
    fn dense_occupied(dense: &StateVector) -> Vec<(u64, Complex64)> {
        let amps = dense.amplitudes().iter().copied();
        (0u64..)
            .zip(amps)
            .filter(|(_, a)| a.re != 0.0 || a.im != 0.0)
            .collect()
    }

    #[test]
    fn reads_match_dense_bitwise() {
        let circuit = confined();
        let state = run_compact(&circuit);
        let compact = state.lane(0);
        let dense = StateVector::run(&circuit);
        assert_eq!(compact.occupancy(), dense.occupancy());
        let SimEngine::Compact(lane) = compact else {
            unreachable!("a compact lane")
        };
        assert_eq!(lane.occupied().collect::<Vec<_>>(), dense_occupied(&dense));
        assert_eq!(compact.support_size(1e-9), dense.support_size(1e-9));
        assert!((compact.norm_sqr() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn expectations_are_bit_identical_to_dense() {
        // The reference sums the dense amplitudes' occupied terms in
        // basis order: the dense engine's own sum with its exact-zero
        // terms skipped.
        let circuit = confined();
        let state = run_compact(&circuit);
        let compact = state.lane(0);
        let occupied = dense_occupied(&StateVector::run(&circuit));
        let reference = |value: &dyn Fn(u64) -> f64| -> f64 {
            occupied.iter().map(|&(b, a)| a.norm_sqr() * value(b)).sum()
        };
        let mut poly = PhasePoly::new(4);
        poly.add_linear(2, -1.5);
        poly.add_quadratic(0, 1, 0.7);
        let table: Vec<f64> = (0..16u64).map(|b| poly.eval_bits(b)).collect();
        assert_eq!(
            compact.expectation_diag_values(&table).to_bits(),
            reference(&|b| table[b as usize]).to_bits()
        );
        assert_eq!(
            compact.expectation_diag_poly(&poly).to_bits(),
            reference(&|b| poly.eval_bits(b)).to_bits()
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
                        batch.lane(lane).expectation_diag_poly(poly),
                        batch.lane(lane).expectation_diag_values(table),
                    );
                    check(&format!("K={k} lane={lane}"), by_poly, by_table);
                }
            }
        }
    }

    #[test]
    fn sample_stream_is_identical_to_dense() {
        let circuit = confined();
        let compact = run_compact(&circuit);
        let dense = StateVector::run(&circuit);
        let compact = compact.lane(0);
        let mut ra = StdRng::seed_from_u64(17);
        let mut rb = StdRng::seed_from_u64(17);
        assert_eq!(compact.sample(5_000, &mut ra), dense.sample(5_000, &mut rb));
    }

    #[test]
    fn reset_reuses_the_allocation() {
        let circuit = confined();
        let plan = GatePlan::compile(&circuit, 1 << 12).unwrap();
        let mut state = run_compact(&circuit);
        let ptr = state.amps.as_ptr();
        let mut scratch = BatchScratch::default();
        let config = SimConfig::serial();
        // Replaying the first gate alone resets to |0011⟩ in place.
        let mut load = Circuit::new(4);
        load.load_bits(0b0011);
        let load_plan = GatePlan::compile(&load, 1 << 12).unwrap();
        state.replay(&load_plan, &[load], &mut scratch, &config, |_| {});
        assert_eq!(state.amps.as_ptr(), ptr);
        assert_eq!(state.lane(0).probability(0b0011), 1.0);
        assert_eq!(state.lane(0).occupancy(), 1);
        // Replaying the original plan again keeps the allocation too.
        state.replay(
            &plan,
            std::slice::from_ref(&circuit),
            &mut scratch,
            &config,
            |_| {},
        );
        assert_eq!(state.amps.as_ptr(), ptr);
        assert_eq!(state.reallocations(), 1);
    }

    // Gate-by-gate cases: every one replays through `run_compact`, which
    // checks each amplitude against the dense engine bit for bit.

    #[test]
    fn initial_state_is_one_entry() {
        let state = run_compact(&Circuit::new(4));
        assert_eq!(state.basis(), &[0]);
        assert_eq!(state.lane(0).probability(0), 1.0);
    }

    #[test]
    fn basis_permutations_keep_occupancy_one() {
        let mut c = Circuit::new(3);
        c.load_bits(0b011);
        c.x(2).cx(0, 1);
        c.push(Gate::Swap(0, 2));
        let state = run_compact(&c);
        assert_eq!(state.lane(0).occupancy(), 1, "permutations never spread");
        assert_eq!(state.lane(0).probability(0b101), 1.0);
    }

    #[test]
    fn ublock_stays_in_pattern_pair() {
        let block = UBlock::from_u_with_angle(&[1, -1, 1], 1.3);
        let mut c = Circuit::new(3);
        c.load_bits(0b101);
        c.ublock(block.clone());
        let state = run_compact(&c);
        assert_eq!(state.basis(), &[0b010, 0b101]);
        let lane = state.lane(0);
        assert!((lane.probability(0b101) + lane.probability(0b010) - 1.0).abs() < 1e-12);
        // An off-pattern start is untouched: the plan has one rank.
        let mut c = Circuit::new(3);
        c.load_bits(0b111);
        c.ublock(block);
        let state = run_compact(&c);
        assert_eq!(state.basis(), &[0b111]);
        assert_eq!(state.lane(0).probability(0b111), 1.0);
    }

    #[test]
    fn empty_support_ublock_is_a_global_phase() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        c.ublock(UBlock {
            support: vec![],
            pattern: 0,
            angle: 0.3,
        });
        let state = run_compact(&c);
        let expected = Complex64::cis(-0.3).scale(std::f64::consts::FRAC_1_SQRT_2);
        assert!(state.lane(0).amplitude(0).approx_eq(expected, 1e-12));
    }

    #[test]
    fn rotation_transfers_amplitude_to_inserted_partner() {
        // Quarter turn: all amplitude moves from |01⟩ to its partner |10⟩.
        let mut c = Circuit::new(2);
        c.load_bits(0b01);
        c.ublock(UBlock::from_u_with_angle(
            &[1, -1],
            std::f64::consts::FRAC_PI_2,
        ));
        let lane_amp = run_compact(&c).lane(0).amplitude(0b10);
        assert!(lane_amp.approx_eq(Complex64::new(0.0, -1.0), 1e-12));
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
        run_compact(&c);
    }

    #[test]
    fn degenerate_gates_are_no_ops() {
        let mut c = Circuit::new(2);
        c.h(0).h(1);
        c.push(Gate::Cx(0, 0));
        c.push(Gate::Swap(1, 1));
        c.push(Gate::Ccx(0, 1, 1));
        run_compact(&c);
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
        let state = run_compact(&c);
        let oracle = crate::oracle::ScalarStateVector::run(&c);
        for (bits, &a) in oracle.amplitudes().iter().enumerate() {
            assert!(state.lane(0).amplitude(bits as u64).approx_eq(a, 1e-12));
        }
    }
}
