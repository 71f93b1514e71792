//! Quantum circuit IR.
//!
//! A [`Circuit`] is an ordered list of [`Gate`]s over a fixed number of
//! qubits, with builder-style append helpers, ASAP depth computation (the
//! paper's "circuit depth" metric), gate counting, composition, and exact
//! inversion.

use crate::gate::{Gate, UBlock};
use crate::phasepoly::PhasePoly;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// The widest register a [`Circuit`] holds, and so the widest any engine
/// simulates (the dense engine stops earlier, at its buffer size).
pub const MAX_QUBITS: usize = 30;

/// An ordered sequence of gates over `n_qubits` qubits.
///
/// # Examples
///
/// ```
/// use choco_qsim::Circuit;
///
/// let mut bell = Circuit::new(2);
/// bell.h(0).cx(0, 1);
/// assert_eq!(bell.depth(), 2);
/// assert_eq!(bell.len(), 2);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Circuit {
    n_qubits: usize,
    gates: Vec<Gate>,
}

impl Circuit {
    /// An empty circuit over `n_qubits` qubits.
    pub fn new(n_qubits: usize) -> Self {
        assert!(
            n_qubits <= MAX_QUBITS,
            "simulator practical limit is {MAX_QUBITS} qubits"
        );
        Circuit {
            n_qubits,
            gates: Vec::new(),
        }
    }

    /// Number of qubits.
    #[inline]
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Number of gates.
    #[inline]
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// `true` if the circuit has no gates.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// The gate list.
    #[inline]
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Gate `i`, for a template binding its angles in place.
    pub(crate) fn gate_mut(&mut self, i: usize) -> &mut Gate {
        &mut self.gates[i]
    }

    /// Iterates over the gates.
    pub fn iter(&self) -> std::slice::Iter<'_, Gate> {
        self.gates.iter()
    }

    /// Appends a gate.
    ///
    /// # Panics
    ///
    /// Panics if the gate references a qubit `>= n_qubits`.
    pub fn push(&mut self, gate: Gate) -> &mut Self {
        gate.for_each_qubit(|q| {
            assert!(
                q < self.n_qubits,
                "gate {gate} references qubit q{q} outside the {}-qubit circuit",
                self.n_qubits
            );
        });
        self.gates.push(gate);
        self
    }

    /// The same gates over `n_qubits` qubits; the added qubits start idle
    /// (as the clean ancillas of [`crate::TranspileOptions`]).
    ///
    /// # Panics
    ///
    /// Panics if `n_qubits` is below the current width or above
    /// [`MAX_QUBITS`].
    pub fn widened(mut self, n_qubits: usize) -> Circuit {
        assert!(n_qubits >= self.n_qubits, "cannot narrow a circuit");
        assert!(
            n_qubits <= MAX_QUBITS,
            "simulator practical limit is {MAX_QUBITS} qubits"
        );
        self.n_qubits = n_qubits;
        self
    }

    /// Appends every gate of `other`.
    ///
    /// # Panics
    ///
    /// Panics if `other` uses more qubits than this circuit has.
    pub fn append(&mut self, other: &Circuit) -> &mut Self {
        assert!(
            other.n_qubits <= self.n_qubits,
            "cannot append a wider circuit"
        );
        for g in &other.gates {
            self.gates.push(g.clone());
        }
        self
    }

    /// The exact inverse circuit (gates reversed and inverted).
    pub fn inverse(&self) -> Circuit {
        Circuit {
            n_qubits: self.n_qubits,
            gates: self.gates.iter().rev().map(Gate::inverse).collect(),
        }
    }

    /// ASAP-scheduled depth: the number of layers when every gate starts as
    /// soon as all its qubits are free. Structured gates count as one layer
    /// on their support (call [`Circuit::depth`] on the *transpiled* circuit
    /// for deployable-depth numbers).
    pub fn depth(&self) -> usize {
        let mut level = vec![0usize; self.n_qubits];
        self.gates
            .iter()
            .map(|g| asap_layer(&mut level, g))
            .max()
            .unwrap_or(0)
    }

    /// Gate histogram keyed by mnemonic.
    pub fn gate_counts(&self) -> BTreeMap<&'static str, usize> {
        let mut counts = BTreeMap::new();
        for g in &self.gates {
            *counts.entry(g.name()).or_insert(0) += 1;
        }
        counts
    }

    /// Number of gates acting on two or more qubits.
    pub fn multi_qubit_gate_count(&self) -> usize {
        self.gates.iter().filter(|g| g.arity() >= 2).count()
    }

    /// `true` when every gate is in the deployable basic set.
    pub fn is_basic(&self) -> bool {
        self.gates.iter().all(Gate::is_basic)
    }

    /// `true` if any structured (UBlock / XyMix / DiagPhase) op remains.
    pub fn has_structured(&self) -> bool {
        self.gates.iter().any(Gate::is_structured)
    }

    // ---- builder-style helpers -------------------------------------------

    /// Appends a Hadamard.
    pub fn h(&mut self, q: usize) -> &mut Self {
        self.push(Gate::H(q))
    }

    /// Appends an X.
    pub fn x(&mut self, q: usize) -> &mut Self {
        self.push(Gate::X(q))
    }

    /// Appends a Y.
    pub fn y(&mut self, q: usize) -> &mut Self {
        self.push(Gate::Y(q))
    }

    /// Appends a Z.
    pub fn z(&mut self, q: usize) -> &mut Self {
        self.push(Gate::Z(q))
    }

    /// Appends an X-rotation.
    pub fn rx(&mut self, q: usize, theta: f64) -> &mut Self {
        self.push(Gate::Rx(q, theta))
    }

    /// Appends a Y-rotation.
    pub fn ry(&mut self, q: usize, theta: f64) -> &mut Self {
        self.push(Gate::Ry(q, theta))
    }

    /// Appends a Z-rotation.
    pub fn rz(&mut self, q: usize, theta: f64) -> &mut Self {
        self.push(Gate::Rz(q, theta))
    }

    /// Appends a phase gate.
    pub fn p(&mut self, q: usize, theta: f64) -> &mut Self {
        self.push(Gate::Phase(q, theta))
    }

    /// Appends a CX.
    pub fn cx(&mut self, control: usize, target: usize) -> &mut Self {
        self.push(Gate::Cx(control, target))
    }

    /// Appends a CZ.
    pub fn cz(&mut self, a: usize, b: usize) -> &mut Self {
        self.push(Gate::Cz(a, b))
    }

    /// Appends a controlled phase.
    pub fn cp(&mut self, control: usize, target: usize, theta: f64) -> &mut Self {
        self.push(Gate::Cp(control, target, theta))
    }

    /// Appends a Toffoli.
    pub fn ccx(&mut self, c1: usize, c2: usize, target: usize) -> &mut Self {
        self.push(Gate::Ccx(c1, c2, target))
    }

    /// Appends a multi-controlled X.
    pub fn mcx(&mut self, controls: Vec<usize>, target: usize) -> &mut Self {
        self.push(Gate::Mcx { controls, target })
    }

    /// Appends a multi-controlled phase on the all-ones state of `qubits`.
    pub fn mcphase(&mut self, qubits: Vec<usize>, angle: f64) -> &mut Self {
        self.push(Gate::McPhase { qubits, angle })
    }

    /// Appends a commute-Hamiltonian block `e^{-iθHc(u)}`.
    pub fn ublock(&mut self, block: UBlock) -> &mut Self {
        self.push(Gate::UBlock(block))
    }

    /// Appends an XY-mixer pair term.
    pub fn xy(&mut self, a: usize, b: usize, theta: f64) -> &mut Self {
        self.push(Gate::XyMix(a, b, theta))
    }

    /// Appends a diagonal evolution `e^{-iθ·f(x)}`.
    pub fn diag(&mut self, poly: Arc<PhasePoly>, theta: f64) -> &mut Self {
        self.push(Gate::DiagPhase(poly, theta))
    }

    /// Loads a computational basis state: applies X on every qubit whose bit
    /// is set in `bits` (used to prepare the feasible initial state).
    pub fn load_bits(&mut self, bits: u64) -> &mut Self {
        for q in 0..self.n_qubits {
            if (bits >> q) & 1 == 1 {
                self.x(q);
            }
        }
        self
    }
}

/// The ASAP step behind [`Circuit::depth`]: `g` starts once all its qubits
/// are free, i.e. on the layer after the latest `level` among them, and
/// occupies that layer. Returns the layer (1-based).
pub(crate) fn asap_layer(level: &mut [usize], g: &Gate) -> usize {
    let mut start = 0;
    g.for_each_qubit(|q| start = start.max(level[q]));
    g.for_each_qubit(|q| level[q] = start + 1);
    start + 1
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "circuit[{} qubits, {} gates, depth {}]",
            self.n_qubits,
            self.gates.len(),
            self.depth()
        )?;
        for g in &self.gates {
            writeln!(f, "  {g}")?;
        }
        Ok(())
    }
}

impl<'a> IntoIterator for &'a Circuit {
    type Item = &'a Gate;
    type IntoIter = std::slice::Iter<'a, Gate>;
    fn into_iter(self) -> Self::IntoIter {
        self.gates.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depth_sequential_vs_parallel() {
        let mut c = Circuit::new(3);
        c.h(0).h(1).h(2);
        assert_eq!(c.depth(), 1, "parallel 1q gates share a layer");
        c.cx(0, 1);
        assert_eq!(c.depth(), 2);
        c.cx(1, 2);
        assert_eq!(c.depth(), 3, "chained CX serializes");
    }

    #[test]
    fn depth_empty_is_zero() {
        assert_eq!(Circuit::new(4).depth(), 0);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn push_validates_qubits() {
        let mut c = Circuit::new(2);
        c.h(2);
    }

    #[test]
    fn gate_counts_histogram() {
        let mut c = Circuit::new(2);
        c.h(0).h(1).cx(0, 1).rz(1, 0.5);
        let counts = c.gate_counts();
        assert_eq!(counts["h"], 2);
        assert_eq!(counts["cx"], 1);
        assert_eq!(counts["rz"], 1);
        assert_eq!(c.multi_qubit_gate_count(), 1);
    }

    #[test]
    fn inverse_reverses_order_and_angles() {
        let mut c = Circuit::new(2);
        c.h(0).rz(0, 0.3).cx(0, 1);
        let inv = c.inverse();
        assert_eq!(inv.gates()[0], Gate::Cx(0, 1));
        assert_eq!(inv.gates()[1], Gate::Rz(0, -0.3));
        assert_eq!(inv.gates()[2], Gate::H(0));
    }

    #[test]
    fn append_concatenates() {
        let mut a = Circuit::new(2);
        a.h(0);
        let mut b = Circuit::new(2);
        b.cx(0, 1);
        a.append(&b);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn load_bits_places_x_gates() {
        let mut c = Circuit::new(4);
        c.load_bits(0b1010);
        let counts = c.gate_counts();
        assert_eq!(counts["x"], 2);
        assert_eq!(c.gates()[0], Gate::X(1));
        assert_eq!(c.gates()[1], Gate::X(3));
    }

    #[test]
    fn basic_and_structured_flags() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1);
        assert!(c.is_basic());
        assert!(!c.has_structured());
        c.xy(1, 2, 0.4);
        assert!(!c.is_basic());
        assert!(c.has_structured());
    }

    #[test]
    fn display_contains_header() {
        let mut c = Circuit::new(2);
        c.h(0);
        let s = format!("{c}");
        assert!(s.contains("circuit[2 qubits, 1 gates, depth 1]"));
        assert!(s.contains("h q0"));
    }
}
