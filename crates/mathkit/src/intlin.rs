//! Integer linear systems over binary and ternary variables.
//!
//! Choco-Q revolves around two enumeration questions about the constraint
//! system `C x = c`:
//!
//! 1. **Feasible assignments** — binary solutions `x ∈ {0,1}^n` of
//!    `C x = c`. One of them seeds the initial state; the full set defines
//!    the feasible subspace the algorithm is confined to.
//! 2. **Driver directions Δ** — ternary vectors `u ∈ {-1,0,1}^n` with
//!    `C u = 0` (Eq. (5) of the paper). Each `u` becomes one commute
//!    Hamiltonian term `Hc(u)`.
//!
//! Both are answered by a depth-first search with per-equation residual
//! interval pruning, which is exact and fast for the sparse, small-integer
//! constraint matrices that arise from FLP / GCP / KPP encodings.
//!
//! Systems may also carry **inequality rows** `a·x ≤ b` ([`LinSystem::push_le`]).
//! Feasibility, penalties and binary enumeration account for them; the kernel
//! machinery ([`ternary_kernel_basis`], [`integer_kernel_basis`]) deliberately
//! operates on the *equality rows only* — the driver layer absorbs inequality
//! rows through bounded slack registers, whose shifts are determined by the
//! equality-kernel directions (`δ_k = −a_k·u`).

use crate::rational::{kernel_basis, rank, Rational, SpanTracker};
use std::fmt;

/// One linear equation `Σ coeff·x_var = rhs` with sparse integer terms.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LinEq {
    /// `(variable index, coefficient)` pairs; each variable appears at most once.
    pub terms: Vec<(usize, i64)>,
    /// Right-hand side.
    pub rhs: i64,
}

impl LinEq {
    /// Creates an equation, dropping zero coefficients and merging duplicates.
    pub fn new(terms: impl IntoIterator<Item = (usize, i64)>, rhs: i64) -> Self {
        let mut merged: Vec<(usize, i64)> = Vec::new();
        for (var, coeff) in terms {
            if coeff == 0 {
                continue;
            }
            if let Some(entry) = merged.iter_mut().find(|(v, _)| *v == var) {
                entry.1 += coeff;
            } else {
                merged.push((var, coeff));
            }
        }
        merged.retain(|&(_, c)| c != 0);
        merged.sort_by_key(|&(v, _)| v);
        LinEq { terms: merged, rhs }
    }

    /// Evaluates the left-hand side on a binary assignment packed as bits
    /// (`x_i = (bits >> i) & 1`).
    pub fn lhs_bits(&self, bits: u64) -> i64 {
        self.terms
            .iter()
            .map(|&(v, c)| c * ((bits >> v) & 1) as i64)
            .sum()
    }

    /// Residual `lhs − rhs` on a binary assignment.
    pub fn residual_bits(&self, bits: u64) -> i64 {
        self.lhs_bits(bits) - self.rhs
    }

    /// Is the equation satisfied by the given binary assignment?
    pub fn is_satisfied_bits(&self, bits: u64) -> bool {
        self.residual_bits(bits) == 0
    }

    /// Variables with non-zero coefficients.
    pub fn variables(&self) -> impl Iterator<Item = usize> + '_ {
        self.terms.iter().map(|&(v, _)| v)
    }

    /// `true` if every coefficient is `+1` or every coefficient is `-1` —
    /// the "summation format" that the cyclic-Hamiltonian baseline \[47\]
    /// requires (e.g. `x1 + x2 + x4 = 1`).
    pub fn is_summation_format(&self) -> bool {
        !self.terms.is_empty()
            && (self.terms.iter().all(|&(_, c)| c == 1) || self.terms.iter().all(|&(_, c)| c == -1))
    }

    /// Minimum of the left-hand side over the binary cube
    /// (sum of the negative coefficients).
    pub fn min_lhs(&self) -> i64 {
        self.terms.iter().map(|&(_, c)| c.min(0)).sum()
    }

    /// Maximum of the left-hand side over the binary cube
    /// (sum of the positive coefficients).
    pub fn max_lhs(&self) -> i64 {
        self.terms.iter().map(|&(_, c)| c.max(0)).sum()
    }

    /// The left-hand side rendered as a string (`x0 - 2*x3`), without the
    /// `= rhs` tail — used to print inequality rows as `lhs ≤ rhs`.
    pub fn lhs_display(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        for (i, &(v, c)) in self.terms.iter().enumerate() {
            if i == 0 {
                if c == 1 {
                    let _ = write!(s, "x{v}");
                } else if c == -1 {
                    let _ = write!(s, "-x{v}");
                } else {
                    let _ = write!(s, "{c}*x{v}");
                }
            } else if c >= 0 {
                if c == 1 {
                    let _ = write!(s, " + x{v}");
                } else {
                    let _ = write!(s, " + {c}*x{v}");
                }
            } else if c == -1 {
                let _ = write!(s, " - x{v}");
            } else {
                let _ = write!(s, " - {}*x{v}", -c);
            }
        }
        if self.terms.is_empty() {
            s.push('0');
        }
        s
    }
}

impl fmt::Display for LinEq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} = {}", self.lhs_display(), self.rhs)
    }
}

/// A system of linear equations over `n_vars` variables.
///
/// # Examples
///
/// ```
/// use choco_mathkit::{LinEq, LinSystem};
///
/// // x1 - x3 = 0 ; x1 + x2 + x4 = 1  (the paper's running example, 0-indexed)
/// let mut sys = LinSystem::new(4);
/// sys.push(LinEq::new([(0, 1), (2, -1)], 0));
/// sys.push(LinEq::new([(0, 1), (1, 1), (3, 1)], 1));
///
/// let feasible = sys.enumerate_binary_solutions(100);
/// assert!(feasible.contains(&0b0101)); // x = {1,0,1,0}: the paper's optimum
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct LinSystem {
    n_vars: usize,
    eqs: Vec<LinEq>,
    /// Inequality rows, each meaning `Σ coeff·x_var ≤ rhs`.
    ineqs: Vec<LinEq>,
}

impl LinSystem {
    /// Creates an empty system over `n_vars` variables.
    pub fn new(n_vars: usize) -> Self {
        assert!(n_vars <= 63, "at most 63 variables are supported");
        LinSystem {
            n_vars,
            eqs: Vec::new(),
            ineqs: Vec::new(),
        }
    }

    /// Adds one equation.
    ///
    /// # Panics
    ///
    /// Panics if the equation references a variable `>= n_vars`.
    pub fn push(&mut self, eq: LinEq) {
        for &(v, _) in &eq.terms {
            assert!(v < self.n_vars, "equation references unknown variable x{v}");
        }
        self.eqs.push(eq);
    }

    /// Adds one inequality row `Σ coeff·x_var ≤ rhs`.
    ///
    /// # Panics
    ///
    /// Panics if the row references a variable `>= n_vars`.
    pub fn push_le(&mut self, row: LinEq) {
        for &(v, _) in &row.terms {
            assert!(
                v < self.n_vars,
                "inequality references unknown variable x{v}"
            );
        }
        self.ineqs.push(row);
    }

    /// Number of variables.
    #[inline]
    pub fn n_vars(&self) -> usize {
        self.n_vars
    }

    /// The equations.
    #[inline]
    pub fn eqs(&self) -> &[LinEq] {
        &self.eqs
    }

    /// The inequality rows (each meaning `lhs ≤ rhs`).
    #[inline]
    pub fn ineqs(&self) -> &[LinEq] {
        &self.ineqs
    }

    /// `true` if the system carries at least one inequality row.
    #[inline]
    pub fn has_inequalities(&self) -> bool {
        !self.ineqs.is_empty()
    }

    /// Number of equations (inequality rows are counted by [`Self::ineqs`]).
    #[inline]
    pub fn len(&self) -> usize {
        self.eqs.len()
    }

    /// `true` if there are no equations (there may still be inequality rows).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.eqs.is_empty()
    }

    /// Are all equations and inequality rows satisfied by a packed binary
    /// assignment?
    pub fn is_satisfied_bits(&self, bits: u64) -> bool {
        self.eqs.iter().all(|eq| eq.is_satisfied_bits(bits))
            && self.ineqs.iter().all(|row| row.residual_bits(bits) <= 0)
    }

    /// Sum of squared residuals (the penalty term `‖Cx − c‖²`); inequality
    /// rows contribute `max(0, lhs − rhs)²` (only overshoot is penalized).
    pub fn penalty_bits(&self, bits: u64) -> i64 {
        let eq_pen: i64 = self
            .eqs
            .iter()
            .map(|eq| {
                let r = eq.residual_bits(bits);
                r * r
            })
            .sum();
        let ineq_pen: i64 = self
            .ineqs
            .iter()
            .map(|row| {
                let over = row.residual_bits(bits).max(0);
                over * over
            })
            .sum();
        eq_pen + ineq_pen
    }

    /// The dense coefficient matrix `C` (rows = equations; inequality rows
    /// are excluded — the kernel machinery works on equalities only).
    pub fn dense_matrix(&self) -> Vec<Vec<i64>> {
        self.eqs
            .iter()
            .map(|eq| {
                let mut row = vec![0i64; self.n_vars];
                for &(v, c) in &eq.terms {
                    row[v] = c;
                }
                row
            })
            .collect()
    }

    /// Exact rank of `C` over `ℚ`.
    pub fn rank(&self) -> usize {
        if self.eqs.is_empty() {
            0
        } else {
            rank(&self.dense_matrix())
        }
    }

    /// Enumerates binary solutions of `C x = c`, up to `cap` results.
    ///
    /// DFS over variables with per-equation residual-interval pruning:
    /// a partial assignment is abandoned as soon as the remaining variables
    /// cannot possibly bring some equation's residual back to zero.
    pub fn enumerate_binary_solutions(&self, cap: usize) -> Vec<u64> {
        let mut out = Vec::new();
        self.dfs_binary(cap, &mut out);
        out
    }

    /// The first binary solution found, if any (used for state preparation).
    pub fn first_binary_solution(&self) -> Option<u64> {
        let mut out = Vec::new();
        self.dfs_binary(1, &mut out);
        out.into_iter().next()
    }

    fn dfs_binary(&self, cap: usize, out: &mut Vec<u64>) {
        if cap == 0 {
            return;
        }
        let n = self.n_vars;
        // Rows: equalities first, then inequality rows (`lhs ≤ rhs`).
        let n_eq = self.eqs.len();
        let rows: Vec<&LinEq> = self.eqs.iter().chain(self.ineqs.iter()).collect();
        let m = rows.len();
        let mut coeff = vec![vec![0i64; n]; m];
        for (e, row) in rows.iter().enumerate() {
            for &(v, c) in &row.terms {
                coeff[e][v] = c;
            }
        }
        // Suffix bounds: contribution of variables i..n to row e.
        let mut suf_min = vec![vec![0i64; m]; n + 1];
        let mut suf_max = vec![vec![0i64; m]; n + 1];
        for i in (0..n).rev() {
            for e in 0..m {
                let c = coeff[e][i];
                suf_min[i][e] = suf_min[i + 1][e] + c.min(0);
                suf_max[i][e] = suf_max[i + 1][e] + c.max(0);
            }
        }
        let mut residual: Vec<i64> = rows.iter().map(|row| row.rhs).collect();
        let mut bits = 0u64;
        self.dfs_binary_rec(
            0,
            n_eq,
            &coeff,
            &suf_min,
            &suf_max,
            &mut residual,
            &mut bits,
            cap,
            out,
        );
    }

    #[allow(clippy::too_many_arguments)]
    fn dfs_binary_rec(
        &self,
        i: usize,
        n_eq: usize,
        coeff: &[Vec<i64>],
        suf_min: &[Vec<i64>],
        suf_max: &[Vec<i64>],
        residual: &mut Vec<i64>,
        bits: &mut u64,
        cap: usize,
        out: &mut Vec<u64>,
    ) {
        if out.len() >= cap {
            return;
        }
        let m = coeff.len();
        if i == self.n_vars {
            let eq_ok = residual[..n_eq].iter().all(|&r| r == 0);
            let ineq_ok = residual[n_eq..].iter().all(|&r| r >= 0);
            if eq_ok && ineq_ok {
                out.push(*bits);
            }
            return;
        }
        // Prune: remaining contributions must be able to cover the residual.
        // Equality rows need the residual to be reachable exactly; inequality
        // rows only need the suffix to be able to stay at or below it.
        for e in 0..m {
            if residual[e] < suf_min[i][e] || (e < n_eq && residual[e] > suf_max[i][e]) {
                return;
            }
        }
        for val in [0i64, 1] {
            if val == 1 {
                for e in 0..m {
                    residual[e] -= coeff[e][i];
                }
                *bits |= 1 << i;
            }
            self.dfs_binary_rec(
                i + 1,
                n_eq,
                coeff,
                suf_min,
                suf_max,
                residual,
                bits,
                cap,
                out,
            );
            if val == 1 {
                for e in 0..m {
                    residual[e] += coeff[e][i];
                }
                *bits &= !(1 << i);
            }
        }
    }

    /// Canonical ternary kernel vectors — `u ∈ {-1,0,1}^n`, `C u = 0`,
    /// `u ≠ 0`, first non-zero entry `+1` (which also removes the `u ↔ -u`
    /// duplicates: `Hc(u) = Hc(-u)`) — with at most `max_support` non-zero
    /// entries: the first `count` of them that `keep` maps to `Some`.
    ///
    /// Order: by support, and within one support lexicographically with
    /// `0 < +1 < −1` per entry, first variable most significant (the order
    /// a depth-first search meets them when it tries each entry as `0`,
    /// then `+1`, then `−1`).
    ///
    /// Only the equality rows participate: inequality rows are absorbed by
    /// slack registers at the driver layer, whose shifts follow from these
    /// same kernel directions.
    ///
    /// One depth-first pass collects the kept vectors with their supports
    /// and stably sorts them by support at the end. Once the supports up
    /// to `s` hold `count` of them, no vector of support `s` or more can
    /// make the cut, so the pass lowers its support budget to `s − 1`. A
    /// prefix is pruned once the non-zeros its budget leaves cannot cancel
    /// the residual: per row, and summed over rows, the residual must not
    /// exceed the largest such entries of the remaining columns. Pruning
    /// drops only subtrees without a vector the result needs, so the
    /// result does not depend on it.
    pub fn sparse_ternary_kernel<T>(
        &self,
        max_support: usize,
        count: usize,
        mut keep: impl FnMut(&[i8]) -> Option<T>,
    ) -> Vec<T> {
        let n = self.n_vars;
        let m = self.eqs.len();
        let depth = max_support.min(n);
        if count == 0 || depth == 0 {
            return Vec::new();
        }
        // One buffer holds `cols[i·m + e]`, the coefficient of variable i
        // in row e; `reach[(i·(m+1) + e)·(depth+1) + k]`, the k largest
        // |c[e][j]| over columns j ≥ i, summed (row e = m holds column L1
        // norms); `top`, each row's `depth` largest so far, in descending
        // order; the residual; and the count of kept vectors per support.
        let width = depth + 1;
        let sizes = [n * m, (n + 1) * (m + 1) * width, (m + 1) * depth, m];
        let mut buffer = vec![0i64; sizes.iter().sum::<usize>() + width];
        let (cols, rest) = buffer.split_at_mut(sizes[0]);
        let (reach, rest) = rest.split_at_mut(sizes[1]);
        let (top, rest) = rest.split_at_mut(sizes[2]);
        let (residual, held) = rest.split_at_mut(sizes[3]);
        for (e, eq) in self.eqs.iter().enumerate() {
            for &(v, c) in &eq.terms {
                cols[v * m + e] = c;
            }
        }
        for i in (0..n).rev() {
            let col = &cols[i * m..(i + 1) * m];
            for e in 0..=m {
                let mut size = match col.get(e) {
                    Some(c) => c.abs(),
                    None => col.iter().map(|c| c.abs()).sum(),
                };
                let base = (i * (m + 1) + e) * width;
                if size == 0 {
                    // Nothing new for row `e`: column `i + 1`'s sums hold.
                    let next = base + (m + 1) * width;
                    reach.copy_within(next..next + width, base);
                    continue;
                }
                for k in 0..depth {
                    let slot = &mut top[e * depth + k];
                    if size > *slot {
                        std::mem::swap(&mut size, slot);
                    }
                    reach[base + k + 1] = reach[base + k] + *slot;
                }
            }
        }
        let mut search = SparseKernelSearch {
            n,
            width,
            budget: depth,
            cols,
            reach,
            residual,
            u: vec![0; n],
        };
        let mut found = Vec::new();
        search.dfs(0, 0, false, &mut |u, support| {
            if let Some(t) = keep(u) {
                found.push((support, t));
                held[support] += 1;
            }
            let mut kept = 0;
            for (s, &k) in held.iter().enumerate() {
                kept += k as usize;
                if kept >= count {
                    return s - 1;
                }
            }
            depth
        });
        found.sort_by_key(|&(support, _)| support);
        found.into_iter().take(count).map(|(_, t)| t).collect()
    }
}

/// The depth-first state of [`LinSystem::sparse_ternary_kernel`].
struct SparseKernelSearch<'a> {
    n: usize,
    /// `depth + 1`: the stride of one `reach` entry.
    width: usize,
    /// The largest support still worth finding.
    budget: usize,
    /// `cols[i·m + e]`: the coefficient of variable `i` in row `e`.
    cols: &'a [i64],
    reach: &'a [i64],
    residual: &'a mut [i64],
    u: Vec<i8>,
}

impl SparseKernelSearch<'_> {
    /// Extends the prefix `u[..i]`, which holds `used` non-zeros. `emit`
    /// takes each solution with its support and returns the new budget.
    fn dfs(
        &mut self,
        i: usize,
        used: usize,
        signed: bool,
        emit: &mut impl FnMut(&[i8], usize) -> usize,
    ) {
        let Some(left) = self.budget.checked_sub(used) else {
            return;
        };
        let m = self.residual.len();
        let reach = |e: usize| self.reach[(i * (m + 1) + e) * self.width + left];
        let mut total = 0;
        for (e, &r) in self.residual.iter().enumerate() {
            if r.abs() > reach(e) {
                return;
            }
            total += r.abs();
        }
        if total > reach(m) {
            return;
        }
        if left == 0 || i == self.n {
            // The residual is zero here: the all-zero completion is the
            // subtree's only solution.
            if signed {
                self.budget = self.budget.min(emit(&self.u, used));
            }
            return;
        }
        self.dfs(i + 1, used, signed, emit);
        // Until the first non-zero entry, only +1 keeps `u` canonical.
        for val in if signed { [1, -1].as_slice() } else { &[1] } {
            self.shift(i, *val);
            self.u[i] = *val;
            self.dfs(i + 1, used + 1, true, emit);
            self.u[i] = 0;
            self.shift(i, -*val);
        }
    }

    fn shift(&mut self, i: usize, val: i8) {
        let m = self.residual.len();
        for (r, &c) in self.residual.iter_mut().zip(&self.cols[i * m..]) {
            *r += c * val as i64;
        }
    }
}

/// How [`ternary_kernel_basis`] / [`integer_kernel_basis`] obtained the basis.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelBasisMethod {
    /// Gaussian elimination produced one-hot free-variable vectors whose
    /// entries were already in `{-1,0,1}` (the common case for FLP/GCP/KPP
    /// encodings; matches the paper's Fig. 3 example).
    Gaussian,
    /// Elimination left `{-1,0,1}`, so small-support kernel vectors were
    /// enumerated and greedily selected until they spanned the kernel.
    GreedyEnumeration,
    /// No ternary spanning set exists (or enumeration could not find one):
    /// the rational kernel was scaled to primitive integer vectors and
    /// pairwise size-reduced (LLL-style) to keep coefficients small.
    LatticeReduced,
}

/// A set of ternary vectors spanning the kernel of `C`, plus how it was found.
#[derive(Clone, Debug)]
pub struct TernaryKernelBasis {
    /// The basis vectors (canonical sign: first non-zero entry `+1`).
    pub vectors: Vec<Vec<i8>>,
    /// Dimension of the kernel (`n − rank(C)`).
    pub kernel_dim: usize,
    /// Which strategy produced the basis.
    pub method: KernelBasisMethod,
}

/// Errors from [`ternary_kernel_basis`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KernelBasisError {
    /// Even exhaustive enumeration (up to the cap) could not span the kernel
    /// with `{-1,0,1}` vectors.
    NotSpannable {
        /// Dimension reached by the greedy selection.
        reached: usize,
        /// Required kernel dimension.
        required: usize,
    },
}

impl fmt::Display for KernelBasisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelBasisError::NotSpannable { reached, required } => write!(
                f,
                "ternary vectors span only {reached} of the {required} kernel dimensions"
            ),
        }
    }
}

impl std::error::Error for KernelBasisError {}

/// Cap on the candidates of [`ternary_kernel_basis`]'s fallback path (the
/// smallest supports are kept).
const KERNEL_ENUM_CAP: usize = 200_000;

/// Computes a `{-1,0,1}` basis of the kernel of `C` — the Δ set that defines
/// the commute driver Hamiltonian (Eq. (5) of the paper).
///
/// Strategy: first try exact Gaussian elimination with one-hot free
/// variables (this reproduces the paper's example Δ exactly). If some basis
/// vector falls outside `{-1,0,1}`, fall back to enumerating ternary kernel
/// vectors ordered by support size and greedily selecting a spanning subset.
///
/// # Errors
///
/// Returns [`KernelBasisError::NotSpannable`] when no ternary spanning set
/// exists (possible for constraint matrices with large coefficients).
pub fn ternary_kernel_basis(system: &LinSystem) -> Result<TernaryKernelBasis, KernelBasisError> {
    let n = system.n_vars();
    let kernel_dim = n - system.rank();
    if kernel_dim == 0 {
        return Ok(TernaryKernelBasis {
            vectors: Vec::new(),
            kernel_dim: 0,
            method: KernelBasisMethod::Gaussian,
        });
    }
    if system.is_empty() {
        // No constraints: the driver directions are the unit vectors.
        let vectors = (0..n)
            .map(|i| {
                let mut v = vec![0i8; n];
                v[i] = 1;
                v
            })
            .collect();
        return Ok(TernaryKernelBasis {
            vectors,
            kernel_dim,
            method: KernelBasisMethod::Gaussian,
        });
    }

    let rational = kernel_basis(&system.dense_matrix());
    let mut vectors = Vec::with_capacity(rational.len());
    let mut all_ternary = true;
    'outer: for v in &rational {
        let mut iv = Vec::with_capacity(n);
        for r in v {
            if !r.is_integer() || r.numer().abs() > 1 {
                all_ternary = false;
                break 'outer;
            }
            iv.push(r.numer() as i8);
        }
        vectors.push(canonicalize_sign(iv));
    }
    if all_ternary && vectors.len() == kernel_dim {
        return Ok(TernaryKernelBasis {
            vectors,
            kernel_dim,
            method: KernelBasisMethod::Gaussian,
        });
    }

    // Fallback: enumerate and greedily span, smallest support first.
    let candidates = system.sparse_ternary_kernel(n, KERNEL_ENUM_CAP, |u| Some(u.to_vec()));
    let mut tracker = SpanTracker::new();
    let mut chosen = Vec::new();
    for u in candidates {
        let ints: Vec<i64> = u.iter().map(|&x| x as i64).collect();
        if tracker.insert_ints(&ints) {
            chosen.push(u);
            if tracker.dim() == kernel_dim {
                return Ok(TernaryKernelBasis {
                    vectors: chosen,
                    kernel_dim,
                    method: KernelBasisMethod::GreedyEnumeration,
                });
            }
        }
    }
    Err(KernelBasisError::NotSpannable {
        reached: tracker.dim(),
        required: kernel_dim,
    })
}

/// A set of integer vectors spanning the kernel of `C`, plus how it was found.
///
/// Unlike [`TernaryKernelBasis`] the coefficients are not restricted to
/// `{-1,0,1}`: when no ternary spanning set exists the basis falls back to
/// primitive integer kernel vectors, pairwise size-reduced to keep the
/// coefficients (and hence the driver-term supports) small.
#[derive(Clone, Debug)]
pub struct IntegerKernelBasis {
    /// The basis vectors (canonical sign: first non-zero entry positive).
    pub vectors: Vec<Vec<i64>>,
    /// Dimension of the kernel (`n − rank(C)`).
    pub kernel_dim: usize,
    /// Which strategy produced the basis.
    pub method: KernelBasisMethod,
}

/// Computes an integer basis of the kernel of the *equality rows* of `C` —
/// the generalized Δ set for commute-driver synthesis.
///
/// Strategy, in order (so that every system with a ternary basis reproduces
/// [`ternary_kernel_basis`] exactly):
///
/// 1. Gaussian one-hot free-variable vectors, if already ternary.
/// 2. Greedy ternary enumeration spanning the kernel.
/// 3. Lattice-style fallback: scale each rational kernel vector to a
///    primitive integer vector, then pairwise size-reduce
///    (`u_i ← u_i − round(⟨u_i,u_j⟩/⟨u_j,u_j⟩)·u_j` until stable).
///
/// Step 3 always succeeds, so — unlike the ternary path — this function is
/// total: every consistent integer linear system gets a driver basis.
pub fn integer_kernel_basis(system: &LinSystem) -> IntegerKernelBasis {
    match ternary_kernel_basis(system) {
        Ok(ternary) => IntegerKernelBasis {
            vectors: ternary
                .vectors
                .iter()
                .map(|u| u.iter().map(|&x| x as i64).collect())
                .collect(),
            kernel_dim: ternary.kernel_dim,
            method: ternary.method,
        },
        Err(KernelBasisError::NotSpannable { required, .. }) => {
            let rational = kernel_basis(&system.dense_matrix());
            let mut vectors: Vec<Vec<i64>> =
                rational.iter().map(|v| integer_primitive(v)).collect();
            size_reduce(&mut vectors);
            vectors = vectors.into_iter().map(canonicalize_sign_ints).collect();
            // Deterministic ordering: small support first, then small norm,
            // then lexicographic.
            vectors.sort_by(|a, b| {
                let sa = a.iter().filter(|&&x| x != 0).count();
                let sb = b.iter().filter(|&&x| x != 0).count();
                let na: i64 = a.iter().map(|&x| x * x).sum();
                let nb: i64 = b.iter().map(|&x| x * x).sum();
                (sa, na, a).cmp(&(sb, nb, b))
            });
            IntegerKernelBasis {
                vectors,
                kernel_dim: required,
                method: KernelBasisMethod::LatticeReduced,
            }
        }
    }
}

/// Scales a rational vector to the shortest parallel integer vector
/// (multiply by the LCM of denominators, divide by the GCD of numerators).
fn integer_primitive(v: &[Rational]) -> Vec<i64> {
    let mut lcm: i128 = 1;
    for r in v {
        let d = r.denom();
        lcm = lcm / gcd_i128(lcm, d) * d;
    }
    let scaled: Vec<i128> = v.iter().map(|r| r.numer() * (lcm / r.denom())).collect();
    let g = scaled.iter().fold(0i128, |acc, &x| gcd_i128(acc, x));
    let g = if g == 0 { 1 } else { g };
    scaled
        .iter()
        .map(|&x| {
            let q = x / g;
            i64::try_from(q).expect("primitive kernel coefficient exceeds i64")
        })
        .collect()
}

fn gcd_i128(mut a: i128, mut b: i128) -> i128 {
    a = a.abs();
    b = b.abs();
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Pairwise LLL-style size reduction: repeatedly replace `u_i` by
/// `u_i − round(⟨u_i,u_j⟩/⟨u_j,u_j⟩)·u_j` while that shortens it. Each
/// replacement strictly decreases `‖u_i‖²`, so the loop terminates; a pass
/// cap guards against pathological inputs anyway.
fn size_reduce(vectors: &mut [Vec<i64>]) {
    const MAX_PASSES: usize = 64;
    for _ in 0..MAX_PASSES {
        let mut changed = false;
        for i in 0..vectors.len() {
            for j in 0..vectors.len() {
                if i == j {
                    continue;
                }
                let dot: i64 = vectors[i]
                    .iter()
                    .zip(vectors[j].iter())
                    .map(|(&a, &b)| a * b)
                    .sum();
                let norm_sq: i64 = vectors[j].iter().map(|&x| x * x).sum();
                if norm_sq == 0 {
                    continue;
                }
                // Nearest integer to dot/norm_sq (round half up; the explicit
                // norm check below keeps the reduction strictly decreasing).
                let mu = (2 * dot + norm_sq).div_euclid(2 * norm_sq);
                if mu != 0 {
                    let old_norm: i64 = vectors[i].iter().map(|&x| x * x).sum();
                    let candidate: Vec<i64> = vectors[i]
                        .iter()
                        .zip(vectors[j].iter())
                        .map(|(&a, &b)| a - mu * b)
                        .collect();
                    let new_norm: i64 = candidate.iter().map(|&x| x * x).sum();
                    if new_norm < old_norm {
                        vectors[i] = candidate;
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
}

/// Flips an integer vector so its first non-zero entry is positive.
fn canonicalize_sign_ints(mut u: Vec<i64>) -> Vec<i64> {
    if let Some(&first) = u.iter().find(|&&x| x != 0) {
        if first < 0 {
            for x in u.iter_mut() {
                *x = -*x;
            }
        }
    }
    u
}

/// Flips `u` so its first non-zero entry is `+1` (`Hc(u) = Hc(−u)`).
pub fn canonicalize_sign(mut u: Vec<i8>) -> Vec<i8> {
    if let Some(&first) = u.iter().find(|&&x| x != 0) {
        if first < 0 {
            for x in u.iter_mut() {
                *x = -*x;
            }
        }
    }
    u
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The running example from the paper: x1 - x3 = 0, x1 + x2 + x4 = 1.
    fn paper_system() -> LinSystem {
        let mut sys = LinSystem::new(4);
        sys.push(LinEq::new([(0, 1), (2, -1)], 0));
        sys.push(LinEq::new([(0, 1), (1, 1), (3, 1)], 1));
        sys
    }

    #[test]
    fn lineq_merges_and_drops_terms() {
        let eq = LinEq::new([(2, 1), (0, 3), (2, -1), (1, 0)], 5);
        assert_eq!(eq.terms, vec![(0, 3)]);
        assert_eq!(eq.rhs, 5);
    }

    #[test]
    fn lineq_eval_and_display() {
        let eq = LinEq::new([(0, 1), (1, -2)], 1);
        assert_eq!(eq.lhs_bits(0b01), 1);
        assert_eq!(eq.lhs_bits(0b11), -1);
        assert!(eq.is_satisfied_bits(0b01));
        assert_eq!(format!("{eq}"), "x0 - 2*x1 = 1");
    }

    #[test]
    fn summation_format_detection() {
        assert!(LinEq::new([(0, 1), (1, 1)], 1).is_summation_format());
        assert!(LinEq::new([(0, -1), (1, -1)], -1).is_summation_format());
        assert!(!LinEq::new([(0, 1), (1, -1)], 0).is_summation_format());
        assert!(!LinEq::new([(0, 2)], 2).is_summation_format());
    }

    #[test]
    fn binary_enumeration_matches_exhaustive() {
        let sys = paper_system();
        let dfs: std::collections::BTreeSet<u64> =
            sys.enumerate_binary_solutions(1000).into_iter().collect();
        let brute: std::collections::BTreeSet<u64> =
            (0u64..16).filter(|&b| sys.is_satisfied_bits(b)).collect();
        assert_eq!(dfs, brute);
        assert!(!dfs.is_empty());
    }

    #[test]
    fn binary_enumeration_respects_cap() {
        let sys = LinSystem::new(6); // no constraints: 64 solutions
        assert_eq!(sys.enumerate_binary_solutions(10).len(), 10);
        assert_eq!(sys.enumerate_binary_solutions(100).len(), 64);
    }

    #[test]
    fn first_solution_is_feasible() {
        let sys = paper_system();
        let x = sys.first_binary_solution().expect("feasible");
        assert!(sys.is_satisfied_bits(x));
    }

    #[test]
    fn infeasible_system_has_no_solution() {
        let mut sys = LinSystem::new(2);
        sys.push(LinEq::new([(0, 1), (1, 1)], 5));
        assert!(sys.first_binary_solution().is_none());
        assert!(sys.enumerate_binary_solutions(10).is_empty());
    }

    #[test]
    fn ternary_kernel_solutions_annihilate() {
        let sys = paper_system();
        let kernel = sys.sparse_ternary_kernel(4, 1000, |u| Some(u.to_vec()));
        assert!(!kernel.is_empty());
        for u in &kernel {
            for eq in sys.eqs() {
                let dot: i64 = eq.terms.iter().map(|&(v, c)| c * u[v] as i64).sum();
                assert_eq!(dot, 0);
            }
            assert_eq!(*u.iter().find(|&&x| x != 0).unwrap(), 1, "canonical sign");
        }
    }

    #[test]
    fn ternary_kernel_counts_paper_example() {
        // Kernel dim = 2; ternary points in the kernel (canonical):
        // (1,-1,1,0), (0,-1,0,1)  [basis]  and (1,0,1,-1) [their sum].
        let sys = paper_system();
        let kernel = sys.sparse_ternary_kernel(4, 1000, |u| Some(u.to_vec()));
        assert_eq!(kernel.len(), 3);
        assert!(kernel.contains(&vec![1, -1, 1, 0]));
        // canonical form of the paper's u2 = (0,-1,0,1):
        assert!(kernel.contains(&vec![0, 1, 0, -1]));
        assert!(kernel.contains(&vec![1, 0, 1, -1]));
    }

    #[test]
    fn kernel_basis_reproduces_paper_delta() {
        let sys = paper_system();
        let basis = ternary_kernel_basis(&sys).expect("basis");
        assert_eq!(basis.kernel_dim, 2);
        assert_eq!(basis.method, KernelBasisMethod::Gaussian);
        // The paper's Δ up to the Hc(u)=Hc(-u) sign symmetry:
        // u1 = (-1,1,-1,0) ~ (1,-1,1,0) and u2 = (0,-1,0,1) ~ (0,1,0,-1).
        assert_eq!(basis.vectors[0], vec![1, -1, 1, 0]);
        assert_eq!(basis.vectors[1], vec![0, 1, 0, -1]);
    }

    #[test]
    fn kernel_basis_no_constraints_is_unit_vectors() {
        let sys = LinSystem::new(3);
        let basis = ternary_kernel_basis(&sys).expect("basis");
        assert_eq!(basis.kernel_dim, 3);
        assert_eq!(basis.vectors.len(), 3);
        assert_eq!(basis.vectors[0], vec![1, 0, 0]);
    }

    #[test]
    fn kernel_basis_full_rank_is_empty() {
        let mut sys = LinSystem::new(2);
        sys.push(LinEq::new([(0, 1)], 0));
        sys.push(LinEq::new([(1, 1)], 1));
        let basis = ternary_kernel_basis(&sys).expect("basis");
        assert_eq!(basis.kernel_dim, 0);
        assert!(basis.vectors.is_empty());
    }

    #[test]
    fn kernel_basis_greedy_fallback() {
        // x0 + x1 - 2*x2 = 0: Gaussian one-hot gives (2,0,1)-style vectors
        // outside {-1,0,1}; the spanning fallback must find e.g. (1,-1,0).
        let mut sys = LinSystem::new(3);
        sys.push(LinEq::new([(0, 1), (1, 1), (2, -2)], 0));
        let basis = ternary_kernel_basis(&sys).expect("basis");
        assert_eq!(basis.kernel_dim, 2);
        assert_eq!(basis.method, KernelBasisMethod::GreedyEnumeration);
        assert_eq!(basis.vectors.len(), 2);
        for u in &basis.vectors {
            let dot: i64 = u[0] as i64 + u[1] as i64 - 2 * u[2] as i64;
            assert_eq!(dot, 0);
        }
    }

    #[test]
    fn kernel_basis_unspannable_reports_error() {
        // x0 + 3*x1 = 0 over {-1,0,1} has only the zero solution, but the
        // kernel has dimension 1.
        let mut sys = LinSystem::new(2);
        sys.push(LinEq::new([(0, 1), (1, 3)], 0));
        let err = ternary_kernel_basis(&sys).unwrap_err();
        assert_eq!(
            err,
            KernelBasisError::NotSpannable {
                reached: 0,
                required: 1
            }
        );
    }

    #[test]
    fn canonicalize_flips_leading_negative() {
        assert_eq!(canonicalize_sign(vec![0, -1, 1]), vec![0, 1, -1]);
        assert_eq!(canonicalize_sign(vec![1, -1]), vec![1, -1]);
        assert_eq!(canonicalize_sign(vec![0, 0]), vec![0, 0]);
    }

    #[test]
    fn inequality_rows_gate_satisfaction_and_penalty() {
        // x0 + 2*x1 ≤ 2 over 3 vars (x2 free).
        let mut sys = LinSystem::new(3);
        sys.push_le(LinEq::new([(0, 1), (1, 2)], 2));
        assert!(sys.has_inequalities());
        assert!(sys.is_satisfied_bits(0b000));
        assert!(sys.is_satisfied_bits(0b010)); // x1=1: lhs 2 ≤ 2
        assert!(!sys.is_satisfied_bits(0b011)); // lhs 3 > 2
        assert_eq!(sys.penalty_bits(0b011), 1); // overshoot 1 → 1
        assert_eq!(sys.penalty_bits(0b010), 0); // slack is free
    }

    #[test]
    fn inequality_enumeration_matches_exhaustive() {
        // Mixed system: x0 + x1 + x2 = 2 and 2*x0 + 3*x1 ≤ 4.
        let mut sys = LinSystem::new(3);
        sys.push(LinEq::new([(0, 1), (1, 1), (2, 1)], 2));
        sys.push_le(LinEq::new([(0, 2), (1, 3)], 4));
        let dfs: std::collections::BTreeSet<u64> =
            sys.enumerate_binary_solutions(1000).into_iter().collect();
        let brute: std::collections::BTreeSet<u64> =
            (0u64..8).filter(|&b| sys.is_satisfied_bits(b)).collect();
        assert_eq!(dfs, brute);
        assert!(!dfs.is_empty());
    }

    #[test]
    fn inequality_only_system_keeps_full_kernel() {
        // Pure capacity row: the equality system is empty, so the driver
        // basis is the unit vectors (slack shifts absorb the row).
        let mut sys = LinSystem::new(3);
        sys.push_le(LinEq::new([(0, 2), (1, 3), (2, 4)], 5));
        let basis = ternary_kernel_basis(&sys).expect("basis");
        assert_eq!(basis.kernel_dim, 3);
        assert_eq!(basis.vectors.len(), 3);
    }

    #[test]
    fn lineq_lhs_bounds() {
        let eq = LinEq::new([(0, 2), (1, -3), (2, 4)], 0);
        assert_eq!(eq.min_lhs(), -3);
        assert_eq!(eq.max_lhs(), 6);
    }

    #[test]
    fn integer_kernel_matches_ternary_when_available() {
        let sys = paper_system();
        let basis = integer_kernel_basis(&sys);
        assert_eq!(basis.method, KernelBasisMethod::Gaussian);
        assert_eq!(basis.vectors, vec![vec![1, -1, 1, 0], vec![0, 1, 0, -1]]);
    }

    #[test]
    fn integer_kernel_lattice_fallback() {
        // x0 + 3*x1 = 0: no ternary spanning set; the lattice path must
        // produce the primitive direction (3, -1).
        let mut sys = LinSystem::new(2);
        sys.push(LinEq::new([(0, 1), (1, 3)], 0));
        let basis = integer_kernel_basis(&sys);
        assert_eq!(basis.method, KernelBasisMethod::LatticeReduced);
        assert_eq!(basis.kernel_dim, 1);
        assert_eq!(basis.vectors, vec![vec![3, -1]]);
    }

    #[test]
    fn integer_kernel_vectors_annihilate_and_span() {
        // 2*x0 + 3*x1 - 5*x2 + 7*x3 = 0 — general coefficients.
        let mut sys = LinSystem::new(4);
        sys.push(LinEq::new([(0, 2), (1, 3), (2, -5), (3, 7)], 0));
        let basis = integer_kernel_basis(&sys);
        assert_eq!(basis.vectors.len(), basis.kernel_dim);
        assert_eq!(basis.kernel_dim, 3);
        let mut tracker = SpanTracker::new();
        for u in &basis.vectors {
            let dot: i64 = 2 * u[0] + 3 * u[1] - 5 * u[2] + 7 * u[3];
            assert_eq!(dot, 0, "kernel vector {u:?} must annihilate the row");
            assert!(tracker.insert_ints(u), "basis vectors must be independent");
            let first = u.iter().find(|&&x| x != 0).unwrap();
            assert!(*first > 0, "canonical sign");
        }
    }

    #[test]
    fn size_reduction_shrinks_coefficients() {
        let mut vs = vec![vec![7, 0, 1], vec![5, 1, 0]];
        size_reduce(&mut vs);
        let max_norm: i64 = vs
            .iter()
            .map(|v| v.iter().map(|&x| x * x).sum())
            .max()
            .unwrap();
        assert!(max_norm < 50, "reduced basis should be shorter: {vs:?}");
    }

    #[test]
    fn penalty_counts_squared_residuals() {
        let sys = paper_system();
        // x = 0b0000: eq1 residual 0, eq2 residual -1 → penalty 1.
        assert_eq!(sys.penalty_bits(0), 1);
        // x = {1,1,1,1}: eq1 0, eq2 3-1=2 → 4.
        assert_eq!(sys.penalty_bits(0b1111), 4);
        assert_eq!(sys.penalty_bits(0b0101), 0);
    }
}
