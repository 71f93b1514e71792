//! # choco-qsim
//!
//! A self-contained quantum circuit simulator built for the Choco-Q
//! reproduction:
//!
//! * [`Circuit`] / [`Gate`] — an IR whose structured operations match the
//!   paper's building blocks: diagonal evolutions `e^{-iγH_o}`
//!   ([`Gate::DiagPhase`]), commute-Hamiltonian blocks `e^{-iβHc(u)}`
//!   ([`Gate::UBlock`]), and XY-mixer pairs ([`Gate::XyMix`]).
//! * [`StateVector`] — exact state-vector execution of every gate,
//!   including the structured ones (no Trotter error anywhere).
//! * [`transpile`] — lowering to deployable basic gates; implements the
//!   paper's Lemma 2 (`G† P(β) X₁ P(−β) X₁ G`) with linear circuit depth and
//!   two clean ancillas, plus ancilla-based MCX/MCPhase constructions.
//! * [`NoiseModel`] — Monte-Carlo Pauli + readout noise for the hardware
//!   experiments.
//! * [`two_level_decompose`] — the *conventional* exponential-cost unitary
//!   synthesis used by the Trotter baseline of Figure 12.
//!
//! ## Example
//!
//! ```
//! use choco_qsim::{transpile, Circuit, StateVector, TranspileOptions, UBlock};
//!
//! // One commute block on 3 qubits (+2 ancillas), both execution paths.
//! let mut c = Circuit::new(5);
//! c.load_bits(0b010);
//! c.ublock(UBlock::from_u_with_angle(&[-1, 1, -1], 0.8));
//!
//! let exact = StateVector::run(&c);
//! let lowered = transpile(&c, &TranspileOptions::with_ancillas(vec![3, 4]))?;
//! let gate_level = StateVector::run(&lowered);
//! assert!((exact.fidelity(&gate_level) - 1.0).abs() < 1e-9);
//! # Ok::<(), choco_qsim::TranspileError>(())
//! ```

#![warn(missing_docs)]

mod circuit;
pub mod compact;
mod counts;
mod draw;
mod engine;
mod gate;
mod kernels;
mod noise;
pub mod oracle;
mod phasepoly;
mod plan;
mod simconfig;
mod state;
mod synth;
mod template;
mod transpile;
mod workspace;

pub use circuit::{Circuit, MAX_QUBITS};
pub use compact::{CompactLane, CompactStateVector, BATCH_BUFFER_BYTES, MAX_BATCH_LANES};
pub use counts::Counts;
pub use draw::draw;
pub use engine::{SimEngine, MAX_DENSIFY_QUBITS};
pub use gate::{Gate, RegisterShift, ShiftBlock, UBlock};
pub use noise::NoiseModel;
pub use phasepoly::PhasePoly;
pub use simconfig::{EngineKind, SimConfig, DEFAULT_PARALLEL_THRESHOLD, DENSITY_THRESHOLD};
pub use state::StateVector;
pub use synth::{
    circuit_unitary, two_level_decompose, SynthCost, TwoLevelDecomposition, TwoLevelOp,
};
pub use template::CircuitTemplate;
pub use transpile::{
    transpile, transpile_into, zyz_decompose, GateSink, StatsSink, TranspileError,
    TranspileOptions, TwoQubitBasis,
};
pub use workspace::{PlanCache, PlanCacheStats, SimWorkspace};
