//! Batched multi-angle plan replay: K candidate angle sets, one pass.
//!
//! A variational optimizer routinely holds K parameter vectors for the
//! *same* circuit shape — an initial simplex, a geometry rebuild, a
//! shrink step. Replaying the cached [`crate::plan::GatePlan`] K separate
//! times pays the rank-table traversal, kernel dispatch, and cache refill
//! per candidate. [`BatchWorkspace`] instead holds a structure-of-arrays
//! amplitude buffer of length `K·|F|` in **rank-major** order —
//! `amps[rank·K + lane]`, all K candidates of one basis rank contiguous —
//! and replays the plan once, with the inner diagonal/2×2 loops running
//! over the K lanes ([`crate::plan::GatePlan::execute`], the same replay
//! a serial compact run makes with K = 1).
//!
//! Bit-identity contract: every lane evaluates the same IEEE expression
//! sequence at any K, so amplitudes, expectations, and sample streams
//! read from a lane are bit-identical to a [`crate::CompactStateVector`]
//! run of that lane's circuit — at any batch size and any thread count.
//! The reads below are the compact engine's own, applied to one lane.

use crate::compact::{reset_lanes, Lane};
use crate::counts::Counts;
use crate::phasepoly::PhasePoly;
use crate::plan::{BatchScratch, GatePlan, PlanBasis};
use crate::simconfig::SimConfig;
use choco_mathkit::Complex64;
use rand::Rng;
use std::sync::Arc;

/// The most lanes [`crate::SimWorkspace::batch_lanes`] picks: the
/// fastest width per candidate in the batched replay benchmark.
pub const MAX_BATCH_LANES: usize = 16;

/// The SoA buffer size [`crate::SimWorkspace::batch_lanes`] keeps a
/// batch within. Every lane read strides across all lanes, and past
/// about this size batching stops paying: 16 lanes over a plan of about
/// 570k ranks made a whole Choco-Q cell three times slower than serial
/// replays.
pub const BATCH_BUFFER_BYTES: usize = 1 << 20;

/// The SoA amplitude buffer for batched compact replay, plus per-lane
/// read operations. Owned (and reused across iterations) by
/// [`crate::SimWorkspace`]; obtained through
/// [`crate::SimWorkspace::run_batch`].
#[derive(Debug, Default)]
pub struct BatchWorkspace {
    n_qubits: usize,
    /// The sorted feasible basis `F` shared with the plan that replayed
    /// into this buffer.
    basis: Arc<PlanBasis>,
    /// Rank-major lanes: `amps[rank * lanes + lane]`.
    amps: Vec<Complex64>,
    lanes: usize,
    reallocations: u64,
}

impl BatchWorkspace {
    /// Replays `plan` over one lane per circuit. The caller has verified
    /// every circuit matches the plan's shape.
    pub(crate) fn replay(
        &mut self,
        plan: &GatePlan,
        circuits: &[crate::Circuit],
        scratch: &mut BatchScratch,
        config: &SimConfig,
    ) {
        let lanes = circuits.len();
        if reset_lanes(&mut self.basis, &mut self.amps, plan.basis(), lanes) {
            self.reallocations += 1;
        }
        self.n_qubits = circuits[0].n_qubits();
        self.lanes = lanes;
        plan.execute(circuits, &mut self.amps, scratch, config);
    }

    /// Number of lanes (K) held by the last replay.
    #[inline]
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Number of qubits of the batched circuits.
    #[inline]
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// The sorted feasible basis the lanes are ranked over.
    #[inline]
    pub fn basis(&self) -> &[u64] {
        &self.basis.bits
    }

    /// How many times the SoA buffer had to grow. Stays flat once the
    /// workspace has warmed up on a shape/batch size — the batched analog
    /// of [`crate::SimWorkspace::reallocations`].
    #[inline]
    pub fn reallocations(&self) -> u64 {
        self.reallocations
    }

    fn lane(&self, lane: usize) -> Lane<'_> {
        assert!(lane < self.lanes, "lane out of range");
        Lane {
            n_qubits: self.n_qubits,
            basis: &self.basis,
            amps: &self.amps,
            lanes: self.lanes,
            lane,
        }
    }

    /// The amplitude of basis state `bits` on one lane (zero off the
    /// feasible basis) — see [`crate::CompactStateVector::amplitude`].
    pub fn amplitude(&self, lane: usize, bits: u64) -> Complex64 {
        self.lane(lane).amplitude(bits)
    }

    /// Number of exactly non-zero amplitudes on one lane.
    pub fn occupancy(&self, lane: usize) -> usize {
        self.lane(lane).occupancy()
    }

    /// One lane's total probability — see
    /// [`crate::CompactStateVector::norm_sqr`].
    pub fn norm_sqr(&self, lane: usize) -> f64 {
        self.lane(lane).norm_sqr()
    }

    /// One lane's expectation of a diagonal observable given a `2^n`
    /// value table — see
    /// [`crate::CompactStateVector::expectation_diag_values`].
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != 2^n` or the lane is out of range.
    pub fn expectation_diag_values(&self, lane: usize, values: &[f64]) -> f64 {
        self.lane(lane).expectation_diag_values(values)
    }

    /// One lane's expectation of a diagonal polynomial observable — see
    /// [`crate::CompactStateVector::expectation_diag_poly`].
    pub fn expectation_diag_poly(&self, lane: usize, poly: &PhasePoly) -> f64 {
        self.lane(lane).expectation_diag_poly(poly)
    }

    /// Fills `out` with one lane's cumulative probability over all `|F|`
    /// ranks — see [`crate::CompactStateVector::fill_cumulative`].
    pub fn fill_cumulative(&self, lane: usize, out: &mut Vec<f64>) {
        self.lane(lane).fill_cumulative(out);
    }

    /// Samples `shots` outcomes from one lane, building the cumulative
    /// table on the fly — see [`crate::CompactStateVector::sample`]. A
    /// shared seed yields the histogram every engine produces for that
    /// lane's circuit.
    pub fn sample<R: Rng>(&self, lane: usize, shots: u64, rng: &mut R) -> Counts {
        self.lane(lane).sample(shots, rng)
    }
}
