//! # choco-mathkit
//!
//! Math foundations for the Choco-Q reproduction: complex arithmetic, dense
//! complex matrices with a matrix exponential, exact rational linear algebra,
//! integer linear systems with binary/ternary enumeration (the Δ machinery of
//! the paper's Eq. (5)), statistics helpers, and a deterministic PRNG for
//! instance generation.
//!
//! Everything here is self-contained: no external linear-algebra or
//! complex-number crates are used.
//!
//! ## Example: the paper's Δ derivation
//!
//! ```
//! use choco_mathkit::{LinEq, LinSystem, ternary_kernel_basis};
//!
//! // Constraints of the paper's running example (Fig. 2/3, 0-indexed):
//! //   x0 - x2 = 0
//! //   x0 + x1 + x3 = 1
//! let mut sys = LinSystem::new(4);
//! sys.push(LinEq::new([(0, 1), (2, -1)], 0));
//! sys.push(LinEq::new([(0, 1), (1, 1), (3, 1)], 1));
//!
//! // The paper's u1/u2 up to the Hc(u) = Hc(-u) sign symmetry:
//! let delta = ternary_kernel_basis(&sys).expect("ternary basis");
//! assert_eq!(delta.vectors, vec![vec![1, -1, 1, 0], vec![0, 1, 0, -1]]);
//! ```

#![warn(missing_docs)]

mod complex;
mod expm;
mod intlin;
mod matrix;
mod rational;
mod rng;
mod stats;

pub use complex::{c64, Complex64};
pub use expm::{expm, expm_hermitian};
pub use intlin::{
    canonicalize_sign, integer_kernel_basis, ternary_kernel_basis, IntegerKernelBasis,
    KernelBasisError, KernelBasisMethod, LinEq, LinSystem, TernaryKernelBasis,
};
pub use matrix::CMatrix;
pub use rational::{kernel_basis, rank, row_echelon, Rational, RowEchelon, SpanTracker};
pub use rng::SplitMix64;
pub use stats::{
    draw_slot, geometric_mean, mean, percentile, std_dev, strict_majority, GuideTable, OnlineStats,
};
