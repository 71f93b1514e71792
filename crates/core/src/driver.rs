//! The commute driver Hamiltonian (Eq. (5) of the paper), generalized to
//! arbitrary integer linear constraint systems.
//!
//! For equality rows `C x = c`, the driver is `H_d = Σ_{u∈Δ} Hc(u)` with
//! `Hc(u) = σ^{u_1}⊗…⊗σ^{u_n} + h.c.` over solutions `u` of `C u = 0`.
//! Each term couples the basis patterns `|v⟩ ↔ |v̄⟩` on the support of `u`
//! (`v_i = (1+u_i)/2`), so it commutes with every constraint operator
//! `Ĉ = Σ_i c_i σ_z^i` — the Heisenberg argument of §III that keeps the
//! evolution inside the feasible subspace.
//!
//! First-class inequality rows `a_k·x ≤ b_k` are handled *inside* the
//! driver layer: each binding row gets a bounded [`SlackRegister`] holding
//! `s_k = b_k − a_k·x ∈ [0, b_k − min(a_k·x)]`, turning the row into the
//! extended equality `a_k·x + s_k = b_k`. Because every slack variable
//! appears in exactly one extended row, the extended kernel is
//! `{(u, −A_≤·u) : u ∈ ker(C_eq)}`: synthesis still reduces to the kernel
//! basis of the *equality* rows, with each term carrying the register
//! deltas `δ_k = a_k·u` ([`DriverTerm::deltas`], forward-coupling
//! convention). Terms with all-zero
//! deltas lower to plain [`UBlock`]s (byte-identical to the
//! equality-only pipeline); terms that move a register lower to gated
//! [`ShiftBlock`]s whose ineligible endpoints are left untouched.
//!
//! Δ is computed exactly in `choco-mathkit`: Gaussian/greedy ternary
//! extraction first (matching the paper's Fig. 3 example), with a
//! lattice-reduction fallback for systems whose kernel has no obvious
//! ternary basis ([`choco_mathkit::integer_kernel_basis`]).

use choco_mathkit::{integer_kernel_basis, CMatrix, KernelBasisMethod, LinEq, LinSystem};
use choco_qsim::{Gate, RegisterShift, ShiftBlock, UBlock};
use std::fmt;

/// A bounded slack register synthesized for one binding inequality row.
#[derive(Clone, Debug, PartialEq)]
pub struct SlackRegister {
    /// The `≤` row this register encodes (`row.lhs ≤ row.rhs`).
    pub row: LinEq,
    /// Index of the row among the system's inequality rows.
    pub index: usize,
    /// First qubit of the register (≥ the decision-variable count).
    pub offset: usize,
    /// Register width in qubits (`0` when the slack is pinned to zero).
    pub bits: usize,
    /// Largest admissible slack value (inclusive): `row.rhs − min(lhs)`.
    pub max_value: u64,
}

impl SlackRegister {
    /// The register's qubit indices (strictly increasing, little-endian).
    pub fn qubits(&self) -> Vec<usize> {
        (self.offset..self.offset + self.bits).collect()
    }

    /// The slack value this register holds for decision assignment `x`
    /// (`b − a·x`; negative iff `x` violates the row).
    pub fn slack_of(&self, x: u64) -> i64 {
        self.row.rhs - self.row.lhs_bits(x)
    }
}

/// One generalized driver term: a ternary pattern over the decision
/// variables plus the register delta it imparts on each slack register.
#[derive(Clone, Debug, PartialEq)]
pub struct DriverTerm {
    /// The ternary kernel vector `u` over the decision variables.
    pub u: Vec<i8>,
    /// Per-register value shift on the *forward* coupling `|v⟩ → |v̄⟩`
    /// (empty iff no registers). Crossing forward changes the decision
    /// bits by `−u` on the support, so preserving `a_k·x + s_k` needs
    /// `δ_k = +a_k·u`.
    pub deltas: Vec<i64>,
}

impl DriverTerm {
    /// Number of non-zero entries of `u`.
    pub fn support_size(&self) -> usize {
        self.u.iter().filter(|&&x| x != 0).count()
    }

    /// `true` when the term moves no register (lowers to a plain
    /// [`UBlock`]).
    pub fn is_plain(&self) -> bool {
        self.deltas.iter().all(|&d| d == 0)
    }
}

/// The commute driver: generalized terms plus the slack-register layout.
#[derive(Clone, Debug, PartialEq)]
pub struct CommuteDriver {
    n_vars: usize,
    registers: Vec<SlackRegister>,
    terms: Vec<DriverTerm>,
    method: KernelBasisMethod,
}

/// Errors from driver construction. Each message names the offending
/// constraint row and suggests concrete remedies, mirroring the admission
/// rejections of `choco-cli serve`.
#[derive(Clone, Debug, PartialEq)]
pub enum DriverError {
    /// The equality kernel has no `{-1,0,1}` basis, even after the
    /// lattice-reduction fallback shortened the vectors.
    NotTernary {
        /// The suspect equality row (largest coefficient magnitude).
        row: String,
        /// The shortest non-ternary basis vector the reduction produced.
        vector: Vec<i64>,
    },
    /// An inequality row is unsatisfiable over binary variables.
    InfeasibleInequality {
        /// The offending `≤` row.
        row: String,
        /// Minimum achievable left-hand side.
        min_lhs: i64,
    },
    /// The slack registers push the encoding past the 63-qubit packing.
    EncodingTooWide {
        /// The row whose register crossed the limit.
        row: String,
        /// Total encoded qubits required.
        needed: usize,
    },
    /// Variable elimination was requested on a system with first-class
    /// inequality rows.
    EliminationWithInequalities {
        /// Number of inequality rows in the system.
        rows: usize,
    },
}

impl fmt::Display for DriverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DriverError::NotTernary { row, vector } => write!(
                f,
                "constraint row `{row}` admits no ternary commute basis \
                 (shortest reduced kernel vector {vector:?}); remedies: \
                 rescale or split the row's large coefficients, eliminate a \
                 variable (eliminate >= 1), or fall back to a penalty-based \
                 solver for this instance"
            ),
            DriverError::InfeasibleInequality { row, min_lhs } => write!(
                f,
                "inequality row `{row}` can never be satisfied over binary \
                 variables (minimum left-hand side {min_lhs} already exceeds \
                 the bound); remedies: correct the right-hand side or drop \
                 the row"
            ),
            DriverError::EncodingTooWide { row, needed } => write!(
                f,
                "slack register for inequality row `{row}` pushes the \
                 encoding to {needed} qubits, past the 63-qubit packing \
                 limit; remedies: tighten the row's bound, or model the row \
                 with explicit binary slack variables sized to the instance"
            ),
            DriverError::EliminationWithInequalities { rows } => write!(
                f,
                "variable elimination is not supported on systems with \
                 first-class inequality rows ({rows} present); remedies: \
                 set eliminate = 0, or model the rows with explicit binary \
                 slack variables and equality constraints"
            ),
        }
    }
}

impl std::error::Error for DriverError {}

/// Plans the slack-register layout for a constraint system: one bounded
/// register per *binding* inequality row (rows satisfied by every binary
/// assignment need no slack and are skipped).
///
/// # Errors
///
/// [`DriverError::InfeasibleInequality`] for a row no assignment satisfies;
/// [`DriverError::EncodingTooWide`] when the registers cross 63 qubits.
pub fn slack_registers(constraints: &LinSystem) -> Result<Vec<SlackRegister>, DriverError> {
    let mut registers = Vec::new();
    let mut offset = constraints.n_vars();
    for (index, row) in constraints.ineqs().iter().enumerate() {
        let min_lhs = row.min_lhs();
        if min_lhs > row.rhs {
            return Err(DriverError::InfeasibleInequality {
                row: format!("{} <= {}", row.lhs_display(), row.rhs),
                min_lhs,
            });
        }
        if row.max_lhs() <= row.rhs {
            continue; // vacuous row: every assignment satisfies it
        }
        let max_value = (row.rhs - min_lhs) as u64;
        let bits = if max_value == 0 {
            0
        } else {
            (64 - max_value.leading_zeros()) as usize
        };
        if offset + bits > 63 {
            return Err(DriverError::EncodingTooWide {
                row: format!("{} <= {}", row.lhs_display(), row.rhs),
                needed: offset + bits,
            });
        }
        registers.push(SlackRegister {
            row: row.clone(),
            index,
            offset,
            bits,
            max_value,
        });
        offset += bits;
    }
    Ok(registers)
}

/// Total encoded qubits a Choco-Q circuit for `constraints` needs:
/// decision variables plus every slack register. This is the width the
/// size-admission checks must use for native-inequality instances.
pub fn encoded_qubits_for(constraints: &LinSystem) -> Result<usize, DriverError> {
    let registers = slack_registers(constraints)?;
    Ok(constraints.n_vars() + registers.iter().map(|r| r.bits).sum::<usize>())
}

impl CommuteDriver {
    /// Builds the driver for a constraint system from a kernel *basis*
    /// (the minimal Δ) of the equality rows, with register deltas for
    /// every binding inequality row.
    ///
    /// # Errors
    ///
    /// [`DriverError::NotTernary`] when the equality kernel cannot be
    /// spanned by `{-1,0,1}` vectors even after lattice reduction;
    /// [`DriverError::InfeasibleInequality`] /
    /// [`DriverError::EncodingTooWide`] from the register layout.
    pub fn build(constraints: &LinSystem) -> Result<Self, DriverError> {
        let registers = slack_registers(constraints)?;
        let basis = integer_kernel_basis(constraints);
        let mut terms = Vec::with_capacity(basis.vectors.len());
        for v in &basis.vectors {
            let Some(u) = ternary_of(v) else {
                return Err(not_ternary_error(constraints, &basis.vectors));
            };
            if let Some(term) = make_term(u, &registers) {
                terms.push(term);
            }
        }
        Ok(CommuteDriver {
            n_vars: constraints.n_vars(),
            registers,
            terms,
            method: basis.method,
        })
    }

    /// Builds an *extended* driver: the kernel basis plus every further
    /// canonical ternary kernel vector with support ≤ `max_support`, up to
    /// `cap` terms total, in [`LinSystem::sparse_ternary_kernel`]'s order
    /// (by support, then lexicographically).
    ///
    /// The paper's Eq. (5) sums over *all* solutions of `C u = 0`; the
    /// extra terms are redundant for spanning the feasible graph but give
    /// the serialized single pass many more transfer paths, which makes
    /// the optimization landscape dramatically easier (and grows circuit
    /// depth, matching the paper's depth figures).
    ///
    /// # Errors
    ///
    /// As in [`CommuteDriver::build`].
    pub fn build_extended(
        constraints: &LinSystem,
        max_support: usize,
        cap: usize,
    ) -> Result<Self, DriverError> {
        let mut driver = Self::build(constraints)?;
        driver.extend(constraints, max_support, cap);
        Ok(driver)
    }

    /// [`CommuteDriver::build_extended`] grown from this basis driver,
    /// which must have been built from `constraints`, instead of
    /// building the basis again.
    pub fn extended(&self, constraints: &LinSystem, max_support: usize, cap: usize) -> Self {
        let mut driver = self.clone();
        driver.extend(constraints, max_support, cap);
        driver
    }

    /// Appends the extra terms of [`CommuteDriver::build_extended`] to a
    /// basis driver. Only kernel vectors with support ≤ `max_support`
    /// are enumerated ([`LinSystem::sparse_ternary_kernel`]).
    fn extend(&mut self, constraints: &LinSystem, max_support: usize, cap: usize) {
        // Keep the term count proportional to the kernel dimension: every
        // term adds a variational parameter, and a derivative-free
        // optimizer over ≫3·dim parameters stalls. (The absolute `cap`
        // still bounds pathological cases.)
        let basis = self.terms.len();
        let cap = cap.min(3 * basis.max(1));
        if basis == 0 || basis >= cap {
            return;
        }
        let extra = constraints.sparse_ternary_kernel(max_support, cap - basis, |u| {
            if self.terms.iter().any(|t| t.u == u) {
                return None;
            }
            make_term(u.to_vec(), &self.registers)
        });
        self.terms.extend(extra);
    }

    /// Number of decision variables (excluding slack registers).
    #[inline]
    pub fn n_vars(&self) -> usize {
        self.n_vars
    }

    /// Total circuit width: decision variables plus slack registers.
    #[inline]
    pub fn encoded_qubits(&self) -> usize {
        self.n_vars + self.registers.iter().map(|r| r.bits).sum::<usize>()
    }

    /// The slack registers, one per binding inequality row.
    #[inline]
    pub fn registers(&self) -> &[SlackRegister] {
        &self.registers
    }

    /// `true` when the driver carries at least one slack register.
    #[inline]
    pub fn has_registers(&self) -> bool {
        !self.registers.is_empty()
    }

    /// The generalized driver terms (canonical sign).
    #[inline]
    pub fn terms(&self) -> &[DriverTerm] {
        &self.terms
    }

    /// How the basis was obtained.
    #[inline]
    pub fn method(&self) -> KernelBasisMethod {
        self.method
    }

    /// Number of driver terms `|Δ|`.
    #[inline]
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// `true` when the constraints pin down a unique point (empty driver).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Lifts a feasible decision assignment into the encoded space by
    /// loading every slack register with `s_k = b_k − a_k·x`.
    ///
    /// # Panics
    ///
    /// Debug-panics when `x` violates a register's row (the slack would
    /// leave `[0, max_value]`).
    pub fn encode_state(&self, x: u64) -> u64 {
        let mut bits = x;
        for r in &self.registers {
            let s = r.slack_of(x);
            debug_assert!(
                s >= 0 && s as u64 <= r.max_value,
                "assignment {x:b} violates row {}",
                r.row
            );
            bits |= (s as u64) << r.offset;
        }
        bits
    }

    /// Truncation mask selecting the decision variables out of an encoded
    /// basis index (drop the slack registers from sampled bitstrings).
    pub fn decision_mask(&self) -> u64 {
        if self.n_vars >= 64 {
            u64::MAX
        } else {
            (1u64 << self.n_vars) - 1
        }
    }

    /// The gated coupling of one term as a [`ShiftBlock`] (empty `shifts`
    /// for plain terms — byte-identical to the corresponding [`UBlock`]).
    pub fn shift_block_of(&self, term: &DriverTerm, angle: f64) -> ShiftBlock {
        let ub = UBlock::from_u(&term.u);
        let shifts = self
            .registers
            .iter()
            .zip(&term.deltas)
            .filter(|&(_, &d)| d != 0)
            .map(|(r, &d)| RegisterShift {
                qubits: r.qubits(),
                delta: d,
                max_value: r.max_value,
            })
            .collect();
        ShiftBlock {
            support: ub.support,
            pattern: ub.pattern,
            shifts,
            angle,
        }
    }

    /// One gate per term, all with angle β: a plain [`UBlock`] for terms
    /// that move no register, a gated [`ShiftBlock`] otherwise. (Lemma 1
    /// justifies the serialization.)
    pub fn gates(&self, beta: f64) -> Vec<Gate> {
        self.terms.iter().map(|t| self.gate_of(t, beta)).collect()
    }

    /// The gate of a single term (see [`CommuteDriver::gates`]).
    pub fn gate_of(&self, term: &DriverTerm, beta: f64) -> Gate {
        if term.is_plain() {
            Gate::UBlock(UBlock::from_u_with_angle(&term.u, beta))
        } else {
            Gate::ShiftBlock(self.shift_block_of(term, beta))
        }
    }

    /// Per-variable count of non-zero entries across Δ — the quantity that
    /// drives circuit depth (§IV-C) and guides variable elimination.
    pub fn nonzero_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.n_vars];
        for t in &self.terms {
            for (i, &ui) in t.u.iter().enumerate() {
                if ui != 0 {
                    counts[i] += 1;
                }
            }
        }
        counts
    }

    /// Total non-zeros over all terms (the depth proxy of Fig. 6).
    pub fn total_nonzeros(&self) -> usize {
        self.nonzero_counts().iter().sum()
    }

    /// The serialized driver as one `UBlock` per term, all with angle β.
    ///
    /// # Panics
    ///
    /// Panics when the driver carries slack registers — those terms need
    /// gated couplings; use [`CommuteDriver::gates`] instead.
    pub fn ublocks(&self, beta: f64) -> Vec<UBlock> {
        assert!(
            self.registers.is_empty(),
            "ublocks() requires an equality-only driver; use gates()"
        );
        self.terms
            .iter()
            .map(|t| UBlock::from_u_with_angle(&t.u, beta))
            .collect()
    }

    /// Reorders Δ so that a *single* serialized pass starting from the
    /// encoded basis state `initial` spreads amplitude as far as possible.
    ///
    /// Each block only acts on states whose support bits match `v` or `v̄`
    /// *and* whose registers stay in range; a block scheduled before any
    /// amplitude reaches its subspace is inert. This greedy schedule
    /// repeatedly picks a term that connects the currently-reachable set
    /// to new feasible states — the single-pass analogue of breadth-first
    /// search over the feasible graph. Terms that never connect anything
    /// are appended at the end (they still matter for layers ≥ 2).
    pub fn ordered_terms(&self, initial: u64) -> Vec<DriverTerm> {
        use std::collections::HashSet;
        let mut reachable: HashSet<u64> = HashSet::from([initial]);
        let mut remaining: Vec<DriverTerm> = self.terms.clone();
        let mut ordered: Vec<DriverTerm> = Vec::with_capacity(self.terms.len());
        let partner = |block: &ShiftBlock, x: u64| -> Option<u64> {
            let src = block.source_of(x)?;
            if src == x {
                block.forward(x)
            } else {
                Some(src)
            }
        };
        while !remaining.is_empty() {
            let mut picked = None;
            'search: for (idx, t) in remaining.iter().enumerate() {
                let block = self.shift_block_of(t, 0.0);
                for &x in &reachable {
                    if let Some(j) = partner(&block, x) {
                        if !reachable.contains(&j) {
                            picked = Some(idx);
                            break 'search;
                        }
                    }
                }
            }
            let Some(idx) = picked else {
                // Nothing connects: append the rest in original order.
                ordered.append(&mut remaining);
                break;
            };
            let t = remaining.remove(idx);
            let block = self.shift_block_of(&t, 0.0);
            // Applying the block once maps every matching reachable state.
            let additions: Vec<u64> = reachable
                .iter()
                .filter_map(|&x| partner(&block, x))
                .collect();
            reachable.extend(additions);
            ordered.push(t);
        }
        ordered
    }

    /// [`CommuteDriver::gates`] in the reachability order of
    /// [`CommuteDriver::ordered_terms`].
    pub fn gates_ordered(&self, beta: f64, initial: u64) -> Vec<Gate> {
        self.ordered_terms(initial)
            .iter()
            .map(|t| self.gate_of(t, beta))
            .collect()
    }

    /// Dense matrix of one plain term `Hc(u)` over `n_vars` qubits
    /// (test/baseline use; exponential).
    pub fn term_matrix(u: &[i8]) -> CMatrix {
        let n = u.len();
        let dim = 1usize << n;
        let mut v_mask = 0u64;
        let mut full_mask = 0u64;
        for (i, &ui) in u.iter().enumerate() {
            if ui != 0 {
                full_mask |= 1 << i;
                if ui > 0 {
                    v_mask |= 1 << i;
                }
            }
        }
        let mut m = CMatrix::zeros(dim, dim);
        for row in 0..dim as u64 {
            if row & full_mask == v_mask {
                let col = row ^ full_mask;
                m[(row as usize, col as usize)] = choco_mathkit::Complex64::ONE;
                m[(col as usize, row as usize)] = choco_mathkit::Complex64::ONE;
            }
        }
        m
    }

    /// Dense matrix of one generalized term over the *encoded* space
    /// (decision variables + registers): `|src⟩⟨tgt| + h.c.` for every
    /// eligible pair, zero rows elsewhere (test use; exponential).
    pub fn term_matrix_encoded(&self, term: &DriverTerm) -> CMatrix {
        let block = self.shift_block_of(term, 0.0);
        let dim = 1usize << self.encoded_qubits();
        let v_abs = block.pattern_abs();
        let full = block.full_mask();
        let mut m = CMatrix::zeros(dim, dim);
        for i in 0..dim as u64 {
            if i & full == v_abs {
                if let Some(j) = block.forward(i) {
                    m[(i as usize, j as usize)] = choco_mathkit::Complex64::ONE;
                    m[(j as usize, i as usize)] = choco_mathkit::Complex64::ONE;
                }
            }
        }
        m
    }

    /// Dense `H_d = Σ_u Hc(u)` over the decision variables (equality-only
    /// drivers; test/baseline use; exponential in `n_vars`).
    pub fn hamiltonian_matrix(&self) -> CMatrix {
        assert!(
            self.registers.is_empty(),
            "hamiltonian_matrix() requires an equality-only driver"
        );
        let dim = 1usize << self.n_vars;
        let mut h = CMatrix::zeros(dim, dim);
        for t in &self.terms {
            h = &h + &Self::term_matrix(&t.u);
        }
        h
    }
}

/// Converts an integer kernel vector to ternary, or `None` if any entry
/// falls outside `{-1, 0, 1}`.
fn ternary_of(v: &[i64]) -> Option<Vec<i8>> {
    v.iter()
        .map(|&x| match x {
            -1..=1 => Some(x as i8),
            _ => None,
        })
        .collect()
}

/// Builds the [`DriverError::NotTernary`] diagnosis: the suspect equality
/// row (largest coefficient magnitude — outsized coefficients are what
/// breaks ternary spanning) and the shortest non-ternary basis vector.
fn not_ternary_error(constraints: &LinSystem, vectors: &[Vec<i64>]) -> DriverError {
    let row = constraints
        .eqs()
        .iter()
        .max_by_key(|eq| eq.terms.iter().map(|&(_, c)| c.abs()).max().unwrap_or(0))
        .map(|eq| eq.to_string())
        .unwrap_or_else(|| "<empty system>".to_string());
    let vector = vectors
        .iter()
        .filter(|v| ternary_of(v).is_none())
        .min_by_key(|v| v.iter().map(|&x| x * x).sum::<i64>())
        .cloned()
        .unwrap_or_default();
    DriverError::NotTernary { row, vector }
}

/// Attaches register deltas to a ternary kernel vector; `None` when some
/// delta exceeds its register's full range (the term could never couple
/// any encoded state — keeping it would only burn a variational
/// parameter on an identity gate).
fn make_term(u: Vec<i8>, registers: &[SlackRegister]) -> Option<DriverTerm> {
    let deltas: Vec<i64> = registers
        .iter()
        .map(|r| {
            r.row
                .terms
                .iter()
                .map(|&(v, c)| c * u[v] as i64)
                .sum::<i64>()
        })
        .collect();
    if deltas
        .iter()
        .zip(registers)
        .any(|(&d, r)| d.unsigned_abs() > r.max_value)
    {
        return None;
    }
    Some(DriverTerm { u, deltas })
}

/// Dense matrix of the constraint operator `Ĉ = Σ_i c_i σ_z^i` of one
/// equation (Eq. (3)); diagonal, used by the commutation tests.
pub fn constraint_operator_matrix(coeffs: &[(usize, i64)], n_vars: usize) -> CMatrix {
    let dim = 1usize << n_vars;
    let mut m = CMatrix::zeros(dim, dim);
    for idx in 0..dim as u64 {
        // σ_z |0⟩ = +|0⟩, σ_z |1⟩ = −|1⟩.
        let mut val = 0.0;
        for &(var, c) in coeffs {
            let bit = (idx >> var) & 1;
            val += c as f64 * if bit == 0 { 1.0 } else { -1.0 };
        }
        m[(idx as usize, idx as usize)] = choco_mathkit::c64(val, 0.0);
    }
    m
}

/// Dense diagonal operator of an *extended* inequality row over the
/// encoded space: `D|x,s⟩ = (a·x + s)|x,s⟩` for the register of `reg` —
/// the operator every generalized term must commute with (test use).
pub fn extended_row_operator_matrix(reg: &SlackRegister, encoded_qubits: usize) -> CMatrix {
    let dim = 1usize << encoded_qubits;
    let mut m = CMatrix::zeros(dim, dim);
    for idx in 0..dim as u64 {
        let x = idx; // decision bits read in place; register bits masked below
        let mut lhs = reg.row.lhs_bits(x) as f64;
        for (k, q) in reg.qubits().into_iter().enumerate() {
            lhs += (((idx >> q) & 1) << k) as f64;
        }
        m[(idx as usize, idx as usize)] = choco_mathkit::c64(lhs, 0.0);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_system() -> LinSystem {
        let mut sys = LinSystem::new(4);
        sys.push(LinEq::new([(0, 1), (2, -1)], 0));
        sys.push(LinEq::new([(0, 1), (1, 1), (3, 1)], 1));
        sys
    }

    #[test]
    fn driver_matches_paper_delta() {
        let driver = CommuteDriver::build(&paper_system()).unwrap();
        assert_eq!(driver.len(), 2);
        assert_eq!(driver.terms()[0].u, vec![1, -1, 1, 0]);
        assert_eq!(driver.terms()[1].u, vec![0, 1, 0, -1]);
        assert!(driver.terms().iter().all(DriverTerm::is_plain));
        assert_eq!(driver.method(), KernelBasisMethod::Gaussian);
        assert!(!driver.has_registers());
        assert_eq!(driver.encoded_qubits(), 4);
    }

    #[test]
    fn every_term_commutes_with_every_constraint_operator() {
        // The foundation of the whole paper: [Hc(u), Ĉ] = 0.
        let sys = paper_system();
        let driver = CommuteDriver::build(&sys).unwrap();
        for t in driver.terms() {
            let hc = CommuteDriver::term_matrix(&t.u);
            for eq in sys.eqs() {
                let c_op = constraint_operator_matrix(&eq.terms, 4);
                let comm = hc.commutator(&c_op);
                assert!(
                    comm.frobenius_norm() < 1e-12,
                    "term {:?} does not commute with {eq}",
                    t.u
                );
            }
        }
    }

    #[test]
    fn full_driver_commutes_too() {
        let sys = paper_system();
        let driver = CommuteDriver::build(&sys).unwrap();
        let hd = driver.hamiltonian_matrix();
        assert!(hd.is_hermitian(1e-12));
        for eq in sys.eqs() {
            let c_op = constraint_operator_matrix(&eq.terms, 4);
            assert!(hd.commutator(&c_op).frobenius_norm() < 1e-12);
        }
    }

    #[test]
    fn a_noncommuting_operator_is_detected() {
        // Sanity check of the test oracle itself: a single σ⁺-like flip on
        // one qubit does NOT commute with x0's constraint operator.
        let not_in_kernel = CommuteDriver::term_matrix(&[1, 0, 0, 0]);
        let c_op = constraint_operator_matrix(&[(0, 1), (2, -1)], 4);
        assert!(not_in_kernel.commutator(&c_op).frobenius_norm() > 0.1);
    }

    #[test]
    fn nonzero_counts_match_paper_example() {
        // u1 = (1,-1,1,0), u2 = (0,1,0,-1): x1 appears in both (count 2) —
        // the variable Fig. 6 eliminates.
        let driver = CommuteDriver::build(&paper_system()).unwrap();
        assert_eq!(driver.nonzero_counts(), vec![1, 2, 1, 1]);
        assert_eq!(driver.total_nonzeros(), 5);
    }

    #[test]
    fn ublocks_carry_angle_and_pattern() {
        let driver = CommuteDriver::build(&paper_system()).unwrap();
        let blocks = driver.ublocks(0.7);
        assert_eq!(blocks.len(), 2);
        assert!(blocks.iter().all(|b| b.angle == 0.7));
        assert_eq!(blocks[0].support, vec![0, 1, 2]);
    }

    #[test]
    fn empty_driver_for_full_rank_constraints() {
        let mut sys = LinSystem::new(2);
        sys.push(LinEq::new([(0, 1)], 1));
        sys.push(LinEq::new([(1, 1)], 0));
        let driver = CommuteDriver::build(&sys).unwrap();
        assert!(driver.is_empty());
        assert_eq!(driver.total_nonzeros(), 0);
    }

    #[test]
    fn unconstrained_driver_is_all_single_flips() {
        let sys = LinSystem::new(3);
        let driver = CommuteDriver::build(&sys).unwrap();
        assert_eq!(driver.len(), 3);
        // Hc(e_i) = X_i: the driver degenerates to the transverse field.
        for (i, t) in driver.terms().iter().enumerate() {
            assert_eq!(t.support_size(), 1);
            assert_eq!(t.u[i], 1);
        }
    }
}

#[cfg(test)]
mod inequality_tests {
    use super::*;

    /// One knapsack-style row: x0 + 2 x1 + x2 ≤ 2 over 3 vars.
    fn knapsack_row_system() -> LinSystem {
        let mut sys = LinSystem::new(3);
        sys.push_le(LinEq::new([(0, 1), (1, 2), (2, 1)], 2));
        sys
    }

    #[test]
    fn slack_register_layout_matches_row_range() {
        let sys = knapsack_row_system();
        let regs = slack_registers(&sys).unwrap();
        assert_eq!(regs.len(), 1);
        let r = &regs[0];
        assert_eq!(r.offset, 3);
        assert_eq!(r.max_value, 2); // s ∈ [0, 2 − 0]
        assert_eq!(r.bits, 2);
        assert_eq!(encoded_qubits_for(&sys).unwrap(), 5);
    }

    #[test]
    fn vacuous_rows_get_no_register() {
        let mut sys = LinSystem::new(2);
        sys.push_le(LinEq::new([(0, 1), (1, 1)], 5)); // max lhs 2 ≤ 5
        assert!(slack_registers(&sys).unwrap().is_empty());
        assert_eq!(encoded_qubits_for(&sys).unwrap(), 2);
    }

    #[test]
    fn infeasible_row_is_rejected_with_named_row() {
        let mut sys = LinSystem::new(2);
        sys.push_le(LinEq::new([(0, 1), (1, 1)], -1));
        let err = slack_registers(&sys).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("x0 + x1 <= -1"), "message: {msg}");
        assert!(msg.contains("remedies"), "message: {msg}");
    }

    #[test]
    fn driver_terms_carry_register_deltas() {
        // No equality rows: Δ = unit vectors e_i; forward drops x_i
        // (1 → 0), so the slack grows back by a_i: δ = +a_i.
        let sys = knapsack_row_system();
        let driver = CommuteDriver::build(&sys).unwrap();
        assert!(driver.has_registers());
        assert_eq!(driver.len(), 3);
        assert_eq!(driver.terms()[0].deltas, vec![1]);
        assert_eq!(driver.terms()[1].deltas, vec![2]);
        assert_eq!(driver.terms()[2].deltas, vec![1]);
        assert!(driver.terms().iter().all(|t| !t.is_plain()));
    }

    #[test]
    fn oversized_deltas_drop_the_term() {
        // x0 + 5 x1 ≤ 1: slack range [0,1], x1's δ = −5 can never fit.
        let mut sys = LinSystem::new(2);
        sys.push_le(LinEq::new([(0, 1), (1, 5)], 1));
        let driver = CommuteDriver::build(&sys).unwrap();
        assert_eq!(driver.len(), 1, "x1's term must be dropped");
        assert_eq!(driver.terms()[0].u, vec![1, 0]);
    }

    #[test]
    fn encode_state_loads_slack() {
        let sys = knapsack_row_system();
        let driver = CommuteDriver::build(&sys).unwrap();
        // x = 000 → s = 2 → encoded 10_000.
        assert_eq!(driver.encode_state(0b000), 0b10_000);
        // x = 101 (x0, x2) → lhs 2 → s = 0 → encoded 00_101.
        assert_eq!(driver.encode_state(0b101), 0b00_101);
        // x = 010 (x1) → lhs 2 → s = 0.
        assert_eq!(driver.encode_state(0b010), 0b00_010);
        assert_eq!(driver.decision_mask(), 0b111);
    }

    #[test]
    fn mixed_system_kernel_comes_from_equalities_only() {
        // x0 + x1 + x2 = 2 (equality) and 2 x0 + x1 ≤ 2 (inequality):
        // Δ = ternary kernel of the equality row, deltas from the ≤ row.
        let mut sys = LinSystem::new(3);
        sys.push(LinEq::new([(0, 1), (1, 1), (2, 1)], 2));
        sys.push_le(LinEq::new([(0, 2), (1, 1)], 2));
        let driver = CommuteDriver::build(&sys).unwrap();
        assert!(driver.len() >= 2);
        for t in driver.terms() {
            // In the equality kernel…
            let dot: i64 = [1i64, 1, 1]
                .iter()
                .zip(&t.u)
                .map(|(&c, &u)| c * u as i64)
                .sum();
            assert_eq!(dot, 0, "{:?} not in the equality kernel", t.u);
            // …and the delta tracks a·u of the ≤ row.
            let a_dot: i64 = 2 * t.u[0] as i64 + t.u[1] as i64;
            assert_eq!(t.deltas, vec![a_dot]);
        }
    }

    #[test]
    fn generalized_terms_commute_with_extended_row_operator() {
        // Heisenberg check in the encoded space: every gated coupling
        // preserves a·x + s, so it commutes with the extended diagonal.
        let sys = knapsack_row_system();
        let driver = CommuteDriver::build(&sys).unwrap();
        let enc = driver.encoded_qubits();
        for t in driver.terms() {
            let hc = driver.term_matrix_encoded(t);
            for reg in driver.registers() {
                let d_op = extended_row_operator_matrix(reg, enc);
                assert!(
                    hc.commutator(&d_op).frobenius_norm() < 1e-12,
                    "term {:?} moves a·x + s",
                    t.u
                );
            }
        }
    }

    #[test]
    fn ordered_terms_respects_register_gating() {
        // From encoded initial (x=000, s=2), every unit-flip term is
        // applicable; the BFS must connect the whole feasible set
        // {x : x0 + 2 x1 + x2 ≤ 2} and only that set.
        let sys = knapsack_row_system();
        let driver = CommuteDriver::build(&sys).unwrap();
        let initial = driver.encode_state(0);
        let ordered = driver.ordered_terms(initial);
        assert_eq!(ordered.len(), driver.len());
        // Replay the closure.
        let mut reach = std::collections::HashSet::from([initial]);
        for _pass in 0..driver.len() {
            for t in &ordered {
                let block = driver.shift_block_of(t, 0.0);
                let adds: Vec<u64> = reach
                    .iter()
                    .filter_map(|&x| {
                        let src = block.source_of(x)?;
                        if src == x {
                            block.forward(x)
                        } else {
                            Some(src)
                        }
                    })
                    .collect();
                reach.extend(adds);
            }
        }
        let feasible: std::collections::HashSet<u64> = sys
            .enumerate_binary_solutions(100)
            .into_iter()
            .map(|x| driver.encode_state(x))
            .collect();
        assert_eq!(
            reach, feasible,
            "closure must be exactly the encoded feasible set"
        );
    }

    #[test]
    fn plain_terms_emit_ublocks_and_shifted_terms_emit_shiftblocks() {
        let mut sys = LinSystem::new(3);
        sys.push(LinEq::new([(0, 1), (1, -1)], 0)); // x0 = x1
        sys.push_le(LinEq::new([(2, 1)], 0)); // x2 ≤ 0 (slack pinned to 0)
        let driver = CommuteDriver::build(&sys).unwrap();
        // x2 ≤ 0 has max_value 0 → zero-width register; the (x0,x1) swap
        // term has δ = 0 and stays a plain UBlock.
        for g in driver.gates(0.4) {
            match g {
                Gate::UBlock(b) => assert_eq!(b.angle, 0.4),
                other => panic!("expected UBlock, got {other}"),
            }
        }
    }
}
