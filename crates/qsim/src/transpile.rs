//! Lowering structured operations to deployable basic gates.
//!
//! The deployable basis is {1-qubit gates} ∪ {CX or CZ}. The passes here
//! implement:
//!
//! * **Lemma 2 of the paper** — each commute block `e^{-iβHc(u)}` becomes
//!   `G† · P(β) · X₁ · P(−β) · X₁ · G`, where `G` is the converting circuit
//!   of Algorithm 1 (a CX chain with X fix-ups and one H) and `P` is a
//!   multi-controlled phase. Linear time, linear depth.
//! * **Multi-controlled phase** via one clean ancilla:
//!   `MCX(q₁…q_{k−1} → a); CP(a, q_k); MCX undo` (the paper's reformulation
//!   of `P(β)` as an ancilla-assisted controlled-RZ).
//! * **Multi-controlled X** via a clean-ancilla Toffoli chain when enough
//!   ancillas are free, else the Barenco borrowed-qubit split
//!   (`C^m X = A·B·A·B` with `A = C^{⌈m/2⌉}X` onto a borrowed qubit): works
//!   even when the borrowed qubit carries data.
//! * Diagonal evolutions `e^{-iθf(x)}` into `Phase` / `CP` gates (one per
//!   non-zero term of `f`).
//!
//! Every lowering is exact (no Trotter error); equivalence against the
//! structured simulator path is enforced by tests.

use crate::circuit::{asap_layer, Circuit};
use crate::gate::{Gate, ShiftBlock};
use choco_mathkit::{c64, Complex64};
use std::fmt;

/// Which entangling gate the target device supports natively.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TwoQubitBasis {
    /// CX (ECR-style devices: Osaka, Sherbrooke).
    #[default]
    Cx,
    /// CZ (IBM Heron devices: Fez).
    Cz,
}

/// Transpilation options.
#[derive(Clone, Debug, Default)]
pub struct TranspileOptions {
    /// Native two-qubit gate.
    pub two_qubit: TwoQubitBasis,
    /// Clean (|0⟩, restored-after-use) ancilla qubits available to the
    /// lowering passes. Choco-Q circuits allocate two, following the paper.
    pub ancillas: Vec<usize>,
}

impl TranspileOptions {
    /// Options with a CX basis and the given clean ancillas.
    pub fn with_ancillas(ancillas: Vec<usize>) -> Self {
        TranspileOptions {
            two_qubit: TwoQubitBasis::Cx,
            ancillas,
        }
    }
}

/// Errors from [`transpile`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TranspileError {
    /// A multi-controlled gate could not be lowered because no spare qubit
    /// (clean or borrowed) exists.
    NeedsAncilla {
        /// Display form of the gate that failed.
        gate: String,
    },
}

impl fmt::Display for TranspileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TranspileError::NeedsAncilla { gate } => {
                write!(f, "gate `{gate}` needs a spare ancilla qubit to lower")
            }
        }
    }
}

impl std::error::Error for TranspileError {}

/// Lowers a circuit to the deployable basis.
///
/// # Errors
///
/// Returns [`TranspileError::NeedsAncilla`] if a multi-controlled gate
/// covers every qubit of the circuit and no ancilla was provided.
///
/// # Examples
///
/// ```
/// use choco_qsim::{transpile, Circuit, TranspileOptions, UBlock};
///
/// // 3-qubit commute block + 2 clean ancillas (the paper's layout).
/// let mut c = Circuit::new(5);
/// c.ublock(UBlock::from_u_with_angle(&[-1, 1, -1], 0.8));
/// let lowered = transpile(&c, &TranspileOptions::with_ancillas(vec![3, 4])).unwrap();
/// assert!(lowered.is_basic());
/// ```
pub fn transpile(circuit: &Circuit, opts: &TranspileOptions) -> Result<Circuit, TranspileError> {
    let mut out = Circuit::new(circuit.n_qubits());
    transpile_into(circuit, opts, &mut out)?;
    Ok(out)
}

/// Lowers a circuit to the deployable basis gate by gate into `sink`, in
/// the order [`transpile`] returns them, without building the circuit.
///
/// # Errors
///
/// As [`transpile`]; the sink then holds the gates lowered before the
/// failing one.
///
/// # Examples
///
/// ```
/// use choco_qsim::{transpile, transpile_into, Circuit, StatsSink, TranspileOptions, UBlock};
///
/// let mut c = Circuit::new(5);
/// c.ublock(UBlock::from_u_with_angle(&[-1, 1, -1], 0.8));
/// let opts = TranspileOptions::with_ancillas(vec![3, 4]);
/// let mut stats = StatsSink::new(c.n_qubits());
/// transpile_into(&c, &opts, &mut stats).unwrap();
/// let lowered = transpile(&c, &opts).unwrap();
/// assert_eq!((stats.depth(), stats.gates()), (lowered.depth(), lowered.len()));
/// ```
pub fn transpile_into<S: GateSink>(
    circuit: &Circuit,
    opts: &TranspileOptions,
    sink: &mut S,
) -> Result<(), TranspileError> {
    let mut lowering = Lowering {
        n_qubits: circuit.n_qubits(),
        opts,
        sink,
    };
    circuit.iter().try_for_each(|g| lowering.gate(g))
}

/// Receives the basic gates of a lowering, in circuit order.
pub trait GateSink {
    /// Takes the next basic gate.
    fn push(&mut self, g: Gate);
}

impl GateSink for Circuit {
    fn push(&mut self, g: Gate) {
        Circuit::push(self, g);
    }
}

/// Counts a lowering instead of storing it: the `depth()`, `len()` and
/// `multi_qubit_gate_count()` of the circuit [`transpile`] would return,
/// from one level per qubit and no work on the heap per gate.
#[derive(Clone, Debug)]
pub struct StatsSink {
    level: Vec<usize>,
    depth: usize,
    gates: usize,
    two_qubit_gates: usize,
}

impl StatsSink {
    /// An empty count over `n_qubits` qubits.
    pub fn new(n_qubits: usize) -> Self {
        StatsSink {
            level: vec![0; n_qubits],
            depth: 0,
            gates: 0,
            two_qubit_gates: 0,
        }
    }

    /// ASAP depth of the gates pushed so far.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Number of gates pushed so far.
    pub fn gates(&self) -> usize {
        self.gates
    }

    /// Number of CX and CZ gates pushed so far: the only multi-qubit
    /// gates a lowering emits.
    pub fn two_qubit_gates(&self) -> usize {
        self.two_qubit_gates
    }
}

impl GateSink for StatsSink {
    fn push(&mut self, g: Gate) {
        self.gates += 1;
        self.two_qubit_gates += usize::from(matches!(g, Gate::Cx(..) | Gate::Cz(..)));
        self.depth = self.depth.max(asap_layer(&mut self.level, &g));
    }
}

/// One lowering pass. Every method writes its gates straight into the
/// sink and lowers the non-basic gates it produces on the spot, so the
/// output is the depth-first expansion of the input, in order.
struct Lowering<'a, S> {
    n_qubits: usize,
    opts: &'a TranspileOptions,
    sink: &'a mut S,
}

/// The qubits of `qs` as a bit mask (circuits have at most 30 qubits).
fn mask(qs: &[usize]) -> u64 {
    qs.iter().fold(0, |m, &q| m | 1 << q)
}

impl<S: GateSink> Lowering<'_, S> {
    fn emit(&mut self, g: Gate) {
        self.sink.push(g);
    }

    fn gate(&mut self, g: &Gate) -> Result<(), TranspileError> {
        match g {
            Gate::Cx(c, t) => self.cx(*c, *t),
            Gate::Cz(a, b) => self.cz(*a, *b),
            Gate::Cp(a, b, theta) => self.cp(*a, *b, *theta),
            Gate::Swap(a, b) => {
                self.cx(*a, *b);
                self.cx(*b, *a);
                self.cx(*a, *b);
            }
            Gate::Ccx(c1, c2, t) => self.ccx(*c1, *c2, *t),
            Gate::Mcx { controls, target } => self.mcx(controls, *target)?,
            Gate::McPhase { qubits, angle } => self.mcphase(qubits, *angle)?,
            Gate::ControlledU {
                controls,
                target,
                matrix,
            } => self.controlled_u(controls, *target, *matrix)?,
            Gate::UBlock(b) => self.ublock(&b.support, b.pattern, b.angle)?,
            Gate::ShiftBlock(b) => self.shiftblock(b)?,
            Gate::XyMix(a, b, theta) => {
                // XX+YY pair term = UBlock on {|01⟩,|10⟩} with doubled angle.
                let (lo, hi) = if a < b { (*a, *b) } else { (*b, *a) };
                self.ublock(&[lo, hi], 0b01, 2.0 * theta)?;
            }
            Gate::DiagPhase(poly, theta) => {
                for (i, &w) in poly.linear().iter().enumerate() {
                    if w != 0.0 {
                        self.emit(Gate::Phase(i, -theta * w));
                    }
                }
                for &(i, j, w) in poly.quadratic() {
                    if w != 0.0 {
                        self.cp(i, j, -theta * w);
                    }
                }
                // The constant term is a global phase: dropped.
            }
            basic => self.emit(basic.clone()),
        }
        Ok(())
    }

    /// CX in the device basis (CZ basis: `CX = H(t) · CZ · H(t)`).
    fn cx(&mut self, c: usize, t: usize) {
        if self.opts.two_qubit == TwoQubitBasis::Cz {
            self.emit(Gate::H(t));
            self.emit(Gate::Cz(c, t));
            self.emit(Gate::H(t));
        } else {
            self.emit(Gate::Cx(c, t));
        }
    }

    /// CZ in the device basis (CX basis: `CZ = H(b) · CX · H(b)`).
    fn cz(&mut self, a: usize, b: usize) {
        if self.opts.two_qubit == TwoQubitBasis::Cx {
            self.emit(Gate::H(b));
            self.emit(Gate::Cx(a, b));
            self.emit(Gate::H(b));
        } else {
            self.emit(Gate::Cz(a, b));
        }
    }

    fn cp(&mut self, a: usize, b: usize, theta: f64) {
        self.emit(Gate::Phase(a, theta / 2.0));
        self.cx(a, b);
        self.emit(Gate::Phase(b, -theta / 2.0));
        self.cx(a, b);
        self.emit(Gate::Phase(b, theta / 2.0));
    }

    /// Lemma 2: `e^{-iβHc(u)} = G† P(β) X₁ P(−β) X₁ G` with `G` from
    /// Algorithm 1. Single-qubit blocks reduce to `Rx(2β)` since `Hc = X`.
    fn ublock(
        &mut self,
        support: &[usize],
        pattern: u64,
        angle: f64,
    ) -> Result<(), TranspileError> {
        let k = support.len();
        if k == 1 {
            self.emit(Gate::Rx(support[0], 2.0 * angle));
            return Ok(());
        }
        // --- G (Algorithm 1): walk i = k-1 .. 1, CX(s[i-1] → s[i]), X fix-up
        // when v_i == v_{i-1}; finish with H on the first support qubit.
        let fix_up = |i: usize| (pattern >> i) & 1 == (pattern >> (i - 1)) & 1;
        for i in (1..k).rev() {
            self.cx(support[i - 1], support[i]);
            if fix_up(i) {
                self.emit(Gate::X(support[i]));
            }
        }
        self.emit(Gate::H(support[0]));
        // --- core: X₁ P(−β) X₁ P(β)  (applied left-to-right).
        self.emit(Gate::X(support[0]));
        self.mcphase(support, -angle)?;
        self.emit(Gate::X(support[0]));
        self.mcphase(support, angle)?;
        // --- G†: every gate of G is self-inverse, so walk G backwards.
        self.emit(Gate::H(support[0]));
        for i in 1..k {
            if fix_up(i) {
                self.emit(Gate::X(support[i]));
            }
            self.cx(support[i - 1], support[i]);
        }
        Ok(())
    }

    /// Generalized commute block with slack registers: one exact two-level
    /// rotation per eligible register source-value combination. The coupled
    /// `{|p⟩, |q⟩}` pairs are disjoint across combinations, so the two-level
    /// rotations commute and their sequential product equals `e^{-iθHc}`
    /// exactly (no Trotter error).
    fn shiftblock(&mut self, b: &ShiftBlock) -> Result<(), TranspileError> {
        if b.shifts.is_empty() {
            return self.ublock(&b.support, b.pattern, b.angle);
        }
        let mut footprint: Vec<usize> = b.support.clone();
        for s in &b.shifts {
            footprint.extend_from_slice(&s.qubits);
        }
        footprint.sort_unstable();
        let full = b.full_mask();
        let v_abs = b.pattern_abs();
        // Expand the (source, target) pattern per register value combination.
        let mut combos: Vec<(u64, u64)> = vec![(v_abs, v_abs ^ full)];
        for s in &b.shifts {
            let mut next = Vec::new();
            for &(p, q) in &combos {
                for r in 0..=s.max_value {
                    let shifted = r as i64 + s.delta;
                    if shifted < 0 || shifted as u64 > s.max_value {
                        continue;
                    }
                    next.push((s.write(p, r), s.write(q, shifted as u64)));
                }
            }
            combos = next;
        }
        let (sin, cos) = b.angle.sin_cos();
        let matrix = [
            [c64(cos, 0.0), c64(0.0, -sin)],
            [c64(0.0, -sin), c64(cos, 0.0)],
        ];
        for (p, q) in combos {
            self.two_level(&footprint, p, q, matrix)?;
        }
        Ok(())
    }

    /// An exact two-level unitary acting as `matrix` on `span{|p⟩, |q⟩}`
    /// over the `footprint` qubits (absolute bit patterns, `p ≠ q`) and as
    /// identity on every other footprint pattern: a CX-conjugation aligns
    /// the pair onto a single differing qubit, X-conjugation fixes
    /// zero-valued controls, and one controlled-U applies the 2×2. Requires
    /// a symmetric `matrix` (the rotation used here), since the conjugation
    /// does not track the pair's orientation.
    fn two_level(
        &mut self,
        footprint: &[usize],
        p: u64,
        q: u64,
        matrix: [[Complex64; 2]; 2],
    ) -> Result<(), TranspileError> {
        let diff = p ^ q;
        debug_assert_ne!(diff, 0, "two-level states must differ");
        let t = diff.trailing_zeros() as usize;
        let p_t = (p >> t) & 1;
        // After CX(t → d) on every other differing bit d, the images of p and
        // q agree everywhere except on t; differing bits then carry
        // `p_d ^ p_t`, common bits keep `p_d`. Controls reading 0 get an X.
        let differs = |d: usize| d != t && (diff >> d) & 1 == 1;
        let flipped = |d: usize| d != t && ((p >> d) & 1) ^ ((diff >> d) & p_t & 1) == 0;
        let controls: Vec<usize> = footprint.iter().copied().filter(|&d| d != t).collect();
        for &d in footprint.iter().filter(|&&d| differs(d)) {
            self.cx(t, d);
        }
        for &d in footprint.iter().filter(|&&d| flipped(d)) {
            self.emit(Gate::X(d));
        }
        self.controlled_u(&controls, t, matrix)?;
        for &d in footprint.iter().rev().filter(|&&d| flipped(d)) {
            self.emit(Gate::X(d));
        }
        for &d in footprint.iter().rev().filter(|&&d| differs(d)) {
            self.cx(t, d);
        }
        Ok(())
    }

    /// Standard exact Toffoli: 6 CX + 9 single-qubit T/H gates.
    fn ccx(&mut self, c1: usize, c2: usize, t: usize) {
        self.emit(Gate::H(t));
        self.cx(c2, t);
        self.emit(Gate::Tdg(t));
        self.cx(c1, t);
        self.emit(Gate::T(t));
        self.cx(c2, t);
        self.emit(Gate::Tdg(t));
        self.cx(c1, t);
        self.emit(Gate::T(c2));
        self.emit(Gate::T(t));
        self.emit(Gate::H(t));
        self.cx(c1, c2);
        self.emit(Gate::T(c1));
        self.emit(Gate::Tdg(c2));
        self.cx(c1, c2);
    }

    /// The clean ancillas outside `used` (a bit mask), in option order.
    fn clean_ancillas(&self, used: u64) -> impl Iterator<Item = usize> + '_ {
        let n = self.n_qubits;
        let ancillas = self.opts.ancillas.iter().copied();
        ancillas.filter(move |&a| a < n && (used >> a) & 1 == 0)
    }

    /// Qubits outside `used`: the clean ancillas in option order, then the
    /// borrowable idle qubits ascending. Also returns the clean count.
    fn spare_qubits(&self, used: u64) -> (Vec<usize>, usize) {
        let mut spare: Vec<usize> = self.clean_ancillas(used).collect();
        let clean = spare.len();
        let taken = used | mask(&spare);
        spare.extend((0..self.n_qubits).filter(|&q| (taken >> q) & 1 == 0));
        (spare, clean)
    }

    /// Multi-controlled X. Chooses between the clean-ancilla Toffoli chain
    /// (`2(m−2)+1` CCX) and the Barenco borrowed-qubit split (recursive,
    /// correct for arbitrary borrowed-qubit state).
    fn mcx(&mut self, controls: &[usize], target: usize) -> Result<(), TranspileError> {
        let m = controls.len();
        match m {
            0 => {
                self.emit(Gate::X(target));
                return Ok(());
            }
            1 => {
                self.cx(controls[0], target);
                return Ok(());
            }
            2 => {
                self.ccx(controls[0], controls[1], target);
                return Ok(());
            }
            _ => {}
        }
        let (spare, clean) = self.spare_qubits(mask(controls) | 1 << target);
        if clean >= m - 2 {
            // Toffoli chain with clean ancillas: compute the AND cascade,
            // flip the target, uncompute. 2(m−2)+1 CCX.
            let anc = &spare[..m - 2];
            self.ccx(controls[0], controls[1], anc[0]);
            for i in 2..m - 1 {
                self.ccx(controls[i], anc[i - 2], anc[i - 1]);
            }
            self.ccx(controls[m - 1], anc[m - 3], target);
            for i in (2..m - 1).rev() {
                self.ccx(controls[i], anc[i - 2], anc[i - 1]);
            }
            self.ccx(controls[0], controls[1], anc[0]);
            Ok(())
        } else if spare.len() >= m - 2 {
            // V-chain with *borrowed* ancillas (arbitrary state, restored):
            // the doubled-wedge network, 4(m−2) CCX — this is what keeps the
            // commute-block decomposition linear even with only the paper's two
            // clean ancillas, by borrowing idle problem qubits.
            self.mcx_dirty_vchain(controls, target, &spare[..m - 2]);
            Ok(())
        } else if let Some(&borrow) = spare.first() {
            // Barenco split: C^m X = A·B·A·B with A = C^{m1}X(first half → borrow)
            // and B = C^{m2+1}X(second half + borrow → target). Works for any
            // state of `borrow` and restores it.
            let m1 = m.div_ceil(2);
            let mut second: Vec<usize> = controls[m1..].to_vec();
            second.push(borrow);
            for _ in 0..2 {
                self.mcx(&controls[..m1], borrow)?;
                self.mcx(&second, target)?;
            }
            Ok(())
        } else {
            Err(TranspileError::NeedsAncilla {
                gate: format!("mcx {controls:?} -> q{target}"),
            })
        }
    }

    /// The borrowed-ancilla V-chain (`m ≥ 3` controls, `m−2` ancillas in
    /// arbitrary states, all restored): a doubled wedge of `4(m−2)` Toffolis.
    fn mcx_dirty_vchain(&mut self, controls: &[usize], target: usize, anc: &[usize]) {
        let m = controls.len();
        debug_assert!(m >= 3 && anc.len() == m - 2);
        // network = top wedge top wedge, with wedge = down · bottom · up.
        for _ in 0..2 {
            self.ccx(controls[m - 1], anc[m - 3], target);
            for i in (2..m - 1).rev() {
                self.ccx(controls[i], anc[i - 2], anc[i - 1]);
            }
            self.ccx(controls[0], controls[1], anc[0]);
            for i in 2..m - 1 {
                self.ccx(controls[i], anc[i - 2], anc[i - 1]);
            }
        }
    }

    /// Multi-controlled phase on the all-ones state of `qubits`.
    ///
    /// Small arities use the ancilla-free recursion
    /// `C^k P(θ) = CP(c_k, t, θ/2) · C^{k−1}X · CP(c_k, t, −θ/2) · C^{k−1}X ·
    /// C^{k−1}P(θ/2)` (the k = 2 base case is the textbook CCP identity);
    /// large arities collapse the controls onto a clean ancilla first.
    fn mcphase(&mut self, qubits: &[usize], angle: f64) -> Result<(), TranspileError> {
        let k = qubits.len();
        match k {
            0 => return Ok(()), // global phase
            1 => {
                self.emit(Gate::Phase(qubits[0], angle));
                return Ok(());
            }
            2 => {
                self.cp(qubits[0], qubits[1], angle);
                return Ok(());
            }
            _ => {}
        }
        if k <= MCPHASE_RECURSION_LIMIT {
            // Recursive, ancilla-free: phase fires iff *all* qubits are |1⟩.
            // C^{k−1}P(c…, pivot → t) = CP(pivot,t,θ/2) · MCX(c→pivot) ·
            // CP(pivot,t,−θ/2) · MCX(c→pivot) · C^{k−2}P(c… → t, θ/2).
            let t = qubits[k - 1];
            let pivot = qubits[k - 2];
            let rest = &qubits[..k - 2];
            self.cp(pivot, t, angle / 2.0);
            self.mcx(rest, pivot)?;
            self.cp(pivot, t, -angle / 2.0);
            self.mcx(rest, pivot)?;
            let mut recursive = [0; MCPHASE_RECURSION_LIMIT];
            recursive[..k - 2].copy_from_slice(rest);
            recursive[k - 2] = t;
            return self.mcphase(&recursive[..k - 1], angle / 2.0);
        }
        let Some(a) = self.clean_ancillas(mask(qubits)).next() else {
            return Err(TranspileError::NeedsAncilla {
                gate: format!("mcp({angle:.4}) {qubits:?}"),
            });
        };
        let (controls, last) = (&qubits[..k - 1], qubits[k - 1]);
        self.mcx(controls, a)?;
        self.cp(a, last, angle);
        self.mcx(controls, a)
    }

    /// Controlled arbitrary single-qubit unitary.
    ///
    /// A single control uses the textbook ABC construction
    /// (`U = e^{iα} A X B X C`, `ABC = I`); more controls first collapse to
    /// one clean ancilla via MCX.
    fn controlled_u(
        &mut self,
        controls: &[usize],
        target: usize,
        matrix: [[Complex64; 2]; 2],
    ) -> Result<(), TranspileError> {
        match controls.len() {
            0 => {
                // The global phase e^{iα} is dropped.
                let (_, beta, gamma, delta) = zyz_decompose(matrix);
                self.emit(Gate::Rz(target, delta));
                self.emit(Gate::Ry(target, gamma));
                self.emit(Gate::Rz(target, beta));
                Ok(())
            }
            1 => {
                let c = controls[0];
                let (alpha, beta, gamma, delta) = zyz_decompose(matrix);
                // C: Rz((δ-β)/2)   B: Rz(-(δ+β)/2) Ry(-γ/2)   A: Ry(γ/2) Rz(β)
                self.emit(Gate::Phase(c, alpha));
                self.emit(Gate::Rz(target, (delta - beta) / 2.0));
                self.cx(c, target);
                self.emit(Gate::Rz(target, -(delta + beta) / 2.0));
                self.emit(Gate::Ry(target, -gamma / 2.0));
                self.cx(c, target);
                self.emit(Gate::Ry(target, gamma / 2.0));
                self.emit(Gate::Rz(target, beta));
                Ok(())
            }
            _ => {
                let Some(a) = self.clean_ancillas(mask(controls) | 1 << target).next() else {
                    return Err(TranspileError::NeedsAncilla {
                        gate: format!("cu {controls:?} -> q{target}"),
                    });
                };
                self.mcx(controls, a)?;
                self.controlled_u(&[a], target, matrix)?;
                self.mcx(controls, a)
            }
        }
    }
}

/// Beyond this arity the recursive CP construction's quadratic growth
/// loses to the ancilla route.
const MCPHASE_RECURSION_LIMIT: usize = 6;

/// ZYZ Euler angles of a 2×2 unitary: `U = e^{iα} Rz(β) Ry(γ) Rz(δ)`.
pub fn zyz_decompose(m: [[Complex64; 2]; 2]) -> (f64, f64, f64, f64) {
    let det = m[0][0] * m[1][1] - m[0][1] * m[1][0];
    let alpha = det.arg() / 2.0;
    let inv_phase = Complex64::cis(-alpha);
    let v00 = m[0][0] * inv_phase;
    let v10 = m[1][0] * inv_phase;
    let v11 = m[1][1] * inv_phase;
    let gamma = 2.0 * v10.abs().atan2(v00.abs());
    // V00 = cos(γ/2) e^{-i(β+δ)/2}; V10 = sin(γ/2) e^{i(β-δ)/2}
    let sum = if v00.abs() > 1e-12 {
        -2.0 * v00.arg()
    } else {
        0.0
    };
    let sum = if v11.abs() > 1e-12 {
        2.0 * v11.arg()
    } else {
        sum
    };
    let diff = if v10.abs() > 1e-12 {
        2.0 * v10.arg()
    } else {
        0.0
    };
    let beta = (sum + diff) / 2.0;
    let delta = (sum - diff) / 2.0;
    (alpha, beta, gamma, delta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::UBlock;
    use crate::phasepoly::PhasePoly;
    use crate::state::StateVector;
    use choco_mathkit::c64;
    use std::sync::Arc;

    /// Checks that `circuit` and its transpiled form act identically on all
    /// basis states of the *first* `data_qubits` qubits (ancillas stay |0⟩)
    /// AND on a uniform superposition of them. The superposition input is
    /// essential: basis-state fidelity is blind to relative *diagonal*
    /// phase errors.
    fn assert_equivalent(circuit: &Circuit, opts: &TranspileOptions, data_qubits: usize) {
        let lowered = transpile(circuit, opts).expect("transpile");
        assert!(lowered.is_basic(), "not fully lowered:\n{lowered}");
        for bits in 0..(1u64 << data_qubits) {
            let mut a = StateVector::from_bits(circuit.n_qubits(), bits);
            a.apply_circuit(circuit);
            let mut b = StateVector::from_bits(circuit.n_qubits(), bits);
            b.apply_circuit(&lowered);
            let fid = a.fidelity(&b);
            assert!(
                (fid - 1.0).abs() < 1e-9,
                "fidelity {fid} on input {bits:b}\noriginal:\n{circuit}\nlowered:\n{lowered}"
            );
        }
        // Phase-sensitive check on |+…+⟩ over the data qubits.
        let mut prep = Circuit::new(circuit.n_qubits());
        for q in 0..data_qubits {
            prep.h(q);
        }
        let mut a = StateVector::run(&prep);
        a.apply_circuit(circuit);
        let mut b = StateVector::run(&prep);
        b.apply_circuit(&lowered);
        let fid = a.fidelity(&b);
        assert!(
            (fid - 1.0).abs() < 1e-9,
            "superposition fidelity {fid}\noriginal:\n{circuit}\nlowered:\n{lowered}"
        );
    }

    #[test]
    fn cp_lowering_equivalent() {
        let mut c = Circuit::new(2);
        c.cp(0, 1, 0.9);
        assert_equivalent(&c, &TranspileOptions::default(), 2);
    }

    #[test]
    fn swap_lowering_equivalent() {
        let mut circuit = Circuit::new(2);
        circuit.h(0).push(Gate::Swap(0, 1));
        assert_equivalent(&circuit, &TranspileOptions::default(), 2);
    }

    #[test]
    fn ccx_lowering_equivalent() {
        let mut c = Circuit::new(3);
        c.ccx(0, 1, 2);
        assert_equivalent(&c, &TranspileOptions::default(), 3);
    }

    #[test]
    fn shiftblock_lowering_equivalent() {
        use crate::gate::{RegisterShift, ShiftBlock};
        // 2 support qubits + a 2-bit slack register (values 0..=2), with
        // two clean ancillas for the multi-controlled lowering.
        let mut c = Circuit::new(6);
        c.push(Gate::ShiftBlock(ShiftBlock {
            support: vec![0, 1],
            pattern: 0b01,
            shifts: vec![RegisterShift {
                qubits: vec![2, 3],
                delta: 1,
                max_value: 2,
            }],
            angle: 0.7,
        }));
        assert_equivalent(&c, &TranspileOptions::with_ancillas(vec![4, 5]), 4);
    }

    #[test]
    fn shiftblock_without_registers_lowers_like_ublock() {
        use crate::gate::ShiftBlock;
        let mut c = Circuit::new(5);
        c.push(Gate::ShiftBlock(ShiftBlock {
            support: vec![0, 1, 2],
            pattern: 0b010,
            shifts: vec![],
            angle: -0.4,
        }));
        assert_equivalent(&c, &TranspileOptions::with_ancillas(vec![3, 4]), 3);
    }

    #[test]
    fn cz_basis_round_trip() {
        let mut c = Circuit::new(2);
        c.cx(0, 1);
        let opts = TranspileOptions {
            two_qubit: TwoQubitBasis::Cz,
            ancillas: vec![],
        };
        let lowered = transpile(&c, &opts).unwrap();
        assert!(lowered.gates().iter().all(|g| !matches!(g, Gate::Cx(..))));
        assert_equivalent(&c, &opts, 2);
    }

    #[test]
    fn mcx_clean_chain_equivalent() {
        // 4 controls + target + 2 clean ancillas = 7 qubits.
        let mut c = Circuit::new(7);
        c.mcx(vec![0, 1, 2, 3], 4);
        let opts = TranspileOptions::with_ancillas(vec![5, 6]);
        assert_equivalent(&c, &opts, 5);
    }

    #[test]
    fn mcx_dirty_vchain_equivalent() {
        // 4 controls + target + two spare dirty qubits: uses the V-chain.
        // data_qubits = 7 exercises every borrowed-ancilla state.
        let mut c = Circuit::new(7);
        c.mcx(vec![0, 1, 2, 3], 4);
        let opts = TranspileOptions::with_ancillas(vec![]);
        assert_equivalent(&c, &opts, 7);
    }

    #[test]
    fn mcx_dirty_vchain_larger_control_counts() {
        for m in 3..=5usize {
            let n = 2 * m - 1; // m controls + target + (m-2) dirty spares
            let mut c = Circuit::new(n);
            c.mcx((0..m).collect(), m);
            let opts = TranspileOptions::with_ancillas(vec![]);
            assert_equivalent(&c, &opts, n);
        }
    }

    #[test]
    fn mcx_borrowed_split_equivalent() {
        // 4 controls + target + only ONE spare qubit: forces the Barenco
        // A·B·A·B split. data_qubits = 6 exercises the borrowed qubit in
        // |1⟩ too.
        let mut c = Circuit::new(6);
        c.mcx(vec![0, 1, 2, 3], 4);
        let opts = TranspileOptions::with_ancillas(vec![]);
        assert_equivalent(&c, &opts, 6);
    }

    #[test]
    fn mcx_without_spare_fails() {
        let mut c = Circuit::new(4);
        c.mcx(vec![0, 1, 2], 3);
        let err = transpile(&c, &TranspileOptions::default()).unwrap_err();
        assert!(matches!(err, TranspileError::NeedsAncilla { .. }));
    }

    #[test]
    fn mcphase_with_ancilla_equivalent() {
        let mut c = Circuit::new(5);
        c.mcphase(vec![0, 1, 2], 0.77);
        let opts = TranspileOptions::with_ancillas(vec![3, 4]);
        assert_equivalent(&c, &opts, 3);
    }

    #[test]
    fn mcphase_small_cases_no_ancilla() {
        let mut c = Circuit::new(2);
        c.mcphase(vec![0], 0.4).mcphase(vec![0, 1], -0.9);
        assert_equivalent(&c, &TranspileOptions::default(), 2);
    }

    #[test]
    fn ublock_lemma2_equivalent() {
        // The paper's Fig. 5 example: u = (-1, +1, -1) plus 2 ancillas.
        let mut c = Circuit::new(5);
        c.ublock(UBlock::from_u_with_angle(&[-1, 1, -1], 0.8));
        let opts = TranspileOptions::with_ancillas(vec![3, 4]);
        assert_equivalent(&c, &opts, 3);
    }

    #[test]
    fn ublock_all_patterns_equivalent() {
        // Every v-pattern on a 3-qubit support must decompose correctly.
        for pattern_bits in 0..8i32 {
            let u: Vec<i8> = (0..3)
                .map(|k| if (pattern_bits >> k) & 1 == 1 { 1 } else { -1 })
                .collect();
            let mut c = Circuit::new(5);
            c.ublock(UBlock::from_u_with_angle(&u, 0.61));
            let opts = TranspileOptions::with_ancillas(vec![3, 4]);
            assert_equivalent(&c, &opts, 3);
        }
    }

    #[test]
    fn ublock_single_qubit_is_rx() {
        let mut c = Circuit::new(1);
        c.ublock(UBlock::from_u_with_angle(&[1], 0.5));
        let lowered = transpile(&c, &TranspileOptions::default()).unwrap();
        assert_eq!(lowered.gates(), &[Gate::Rx(0, 1.0)]);
    }

    #[test]
    fn ublock_two_qubit_and_xymix_equivalent() {
        let mut c = Circuit::new(3);
        c.xy(0, 1, 0.35)
            .ublock(UBlock::from_u_with_angle(&[1, -1], 0.2));
        // 2-qubit MCPhase needs no ancilla.
        assert_equivalent(&c, &TranspileOptions::default(), 2);
    }

    #[test]
    fn diag_phase_lowering_equivalent() {
        let mut poly = PhasePoly::new(3);
        poly.add_linear(0, 1.5);
        poly.add_linear(2, -0.5);
        poly.add_quadratic(0, 1, 2.0);
        poly.add_quadratic(1, 2, -1.0);
        let mut c = Circuit::new(3);
        c.h(0).h(1).h(2).diag(Arc::new(poly), 0.37);
        assert_equivalent(&c, &TranspileOptions::default(), 3);
    }

    #[test]
    fn diag_constant_is_dropped() {
        let mut poly = PhasePoly::new(1);
        poly.add_constant(42.0);
        let mut c = Circuit::new(1);
        c.diag(Arc::new(poly), 1.0);
        let lowered = transpile(&c, &TranspileOptions::default()).unwrap();
        assert!(lowered.is_empty());
    }

    #[test]
    fn zyz_reconstructs_unitaries() {
        let cases = [
            Gate::H(0).matrix_1q().unwrap(),
            Gate::T(0).matrix_1q().unwrap(),
            Gate::Rx(0, 1.234).matrix_1q().unwrap(),
            Gate::Ry(0, -0.7).matrix_1q().unwrap(),
            [
                [c64(0.6, 0.0), c64(0.0, 0.8)],
                [c64(0.0, 0.8), c64(0.6, 0.0)],
            ],
        ];
        for m in cases {
            let (alpha, beta, gamma, delta) = zyz_decompose(m);
            // Rebuild e^{iα} Rz(β) Ry(γ) Rz(δ) and compare.
            let rz = |t: f64| {
                [
                    [Complex64::cis(-t / 2.0), Complex64::ZERO],
                    [Complex64::ZERO, Complex64::cis(t / 2.0)],
                ]
            };
            let ry = |t: f64| {
                [
                    [c64((t / 2.0).cos(), 0.0), c64(-(t / 2.0).sin(), 0.0)],
                    [c64((t / 2.0).sin(), 0.0), c64((t / 2.0).cos(), 0.0)],
                ]
            };
            let mul = |a: [[Complex64; 2]; 2], b: [[Complex64; 2]; 2]| {
                let mut r = [[Complex64::ZERO; 2]; 2];
                for i in 0..2 {
                    for j in 0..2 {
                        for (k, bk) in b.iter().enumerate() {
                            r[i][j] += a[i][k] * bk[j];
                        }
                    }
                }
                r
            };
            let mut rebuilt = mul(rz(beta), mul(ry(gamma), rz(delta)));
            let phase = Complex64::cis(alpha);
            for row in rebuilt.iter_mut() {
                for entry in row.iter_mut() {
                    *entry *= phase;
                }
            }
            for i in 0..2 {
                for j in 0..2 {
                    assert!(
                        rebuilt[i][j].approx_eq(m[i][j], 1e-9),
                        "mismatch at ({i},{j}): {} vs {}",
                        rebuilt[i][j],
                        m[i][j]
                    );
                }
            }
        }
    }

    #[test]
    fn controlled_u_single_control_equivalent() {
        let m = Gate::Ry(0, 0.9).matrix_1q().unwrap();
        let mut c = Circuit::new(2);
        c.push(Gate::ControlledU {
            controls: vec![0],
            target: 1,
            matrix: m,
        });
        assert_equivalent(&c, &TranspileOptions::default(), 2);
    }

    #[test]
    fn controlled_u_multi_control_equivalent() {
        let m = Gate::T(0).matrix_1q().unwrap();
        let mut c = Circuit::new(6);
        c.push(Gate::ControlledU {
            controls: vec![0, 1, 2],
            target: 3,
            matrix: m,
        });
        let opts = TranspileOptions::with_ancillas(vec![4, 5]);
        assert_equivalent(&c, &opts, 4);
    }

    #[test]
    fn transpiled_depth_is_linear_in_support() {
        // The headline claim of Lemma 2: UBlock depth grows *linearly* with
        // the support size once the construction settles (small supports use
        // cheaper special cases). Measured on a wide register so borrowed
        // ancillas are plentiful, as in real problem circuits.
        let depths: Vec<usize> = (5..=9)
            .map(|k| {
                let u: Vec<i8> = (0..k).map(|i| if i % 2 == 0 { 1 } else { -1 }).collect();
                let mut c = Circuit::new(16);
                c.ublock(UBlock::from_u_with_angle(&u, 0.4));
                let opts = TranspileOptions::with_ancillas(vec![14, 15]);
                transpile(&c, &opts).unwrap().depth()
            })
            .collect();
        let increments: Vec<i64> = depths
            .windows(2)
            .map(|w| w[1] as i64 - w[0] as i64)
            .collect();
        for &inc in &increments {
            assert!(inc > 0, "depth must grow: {depths:?}");
        }
        // Linearity: per-qubit increments stay within 2× of each other
        // (an exponential construction would double them every step).
        let min = *increments.iter().min().unwrap() as f64;
        let max = *increments.iter().max().unwrap() as f64;
        assert!(
            max <= 2.0 * min,
            "increments not linear: {increments:?} from depths {depths:?}"
        );
    }
}
