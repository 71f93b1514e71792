//! # choco-core
//!
//! The Choco-Q algorithm — commute Hamiltonian-based QAOA for constrained
//! binary optimization (HPCA 2025) — and its three optimization passes:
//!
//! * [`CommuteDriver`] — Δ construction from `C u = 0` (Eq. (5)) with the
//!   commutation property `[Hc(u), Ĉ] = 0` verified in tests;
//! * **serialization** (Lemma 1) — the driver is executed as
//!   `Π_u e^{-iβHc(u)}`, one shallow block per term;
//! * **equivalent decomposition** (Lemma 2) — each block lowers to
//!   `G† P(β) X₁ P(−β) X₁ G` in linear time/depth (implemented in
//!   `choco-qsim`, measured by [`lemma2_stats`]);
//! * **variable elimination** (§IV-C) — [`plan_elimination`] drops the
//!   most-shared variables and enumerates sub-circuits.
//!
//! [`ChocoQSolver`] glues these into a `choco_model::Solver`; the
//! [`trotter`] module is the conventional exponential-cost baseline of
//! Figure 12.

#![warn(missing_docs)]

mod analysis;
mod driver;
mod elimination;
mod solver;
pub mod trotter;

pub use analysis::{lemma2_stats, Lemma2Stats};
pub use driver::{
    constraint_operator_matrix, encoded_qubits_for, extended_row_operator_matrix, slack_registers,
    CommuteDriver, DriverError, DriverTerm, SlackRegister,
};
pub use elimination::{plan_elimination, EliminationBranch, EliminationPlan};
pub use solver::{restart_loop_seed, ChocoQConfig, ChocoQSolver};
pub use trotter::{
    exact_driver_unitary, trotter_decompose, trotter_slice_circuit, TrotterConfig, TrotterReport,
};
