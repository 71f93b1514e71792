//! Reusable simulation workspace for iteration-heavy callers.
//!
//! Every variational solver replays a structured circuit hundreds of times
//! with different parameters. A bare [`StateVector::run`] pays three
//! avoidable costs per iteration: allocating a fresh `2^n` amplitude
//! buffer, re-evaluating each [`PhasePoly`] diagonal per basis state, and
//! (for sampling) rebuilding the `O(2^n)` cumulative-probability table per
//! call. [`SimWorkspace`] owns all three buffers across iterations,
//! restarts, and elimination branches:
//!
//! * the amplitude state is an engine ([`SimEngine`]) reset in place
//!   (`reallocations()` counts how often the engine had to be rebuilt —
//!   the zero-alloc-per-iteration invariant the solvers assert in their
//!   tests),
//! * diagonals are cached per `Arc<PhasePoly>` identity **on dense
//!   runs**, so a polynomial shared across iterations is expanded exactly
//!   once per register width; compact plans bake their diagonals per
//!   feasible rank instead and need no `2^n` table at all,
//! * the sampling prefix table is built lazily per final state and reused
//!   across repeated `sample` calls (its meaning follows the engine:
//!   `2^n` slots dense, `|F|` slots compact),
//! * compiled **gate plans** (the compact engine's rank-table
//!   compiler) are cached per circuit
//!   *shape* when [`crate::EngineKind::Compact`] is selected: the
//!   feasible subspace is enumerated and lowered to rank tables once, and
//!   every subsequent iteration replays the plan with that iteration's
//!   angles as flat-array loops — no support rediscovery, no map churn.
//!   [`SimWorkspace::run`] and [`SimWorkspace::run_batch`] share that one
//!   replay and its scratch buffers: a serial run is a one-lane batch.
//!   Shapes that refuse compilation (structural support above
//!   [`DENSITY_THRESHOLD`]` · 2^n`) are remembered as refusals and run on
//!   the dense engine, so each shape has exactly one representation.
//!
//! Which engine runs is [`SimConfig::engine`]'s choice — the workspace is
//! where that selection takes effect for every solver.

use crate::batch::BatchWorkspace;
use crate::circuit::Circuit;
use crate::compact::CompactStateVector;
use crate::counts::Counts;
use crate::engine::{assert_dense_fallback, SimEngine, MAX_DENSIFY_QUBITS};
use crate::gate::Gate;
use crate::kernels;
use crate::phasepoly::PhasePoly;
use crate::plan::{BatchScratch, CircuitShape, GatePlan, PlanError};
use crate::simconfig::{EngineKind, SimConfig, DENSITY_THRESHOLD};
use crate::state::StateVector;
use rand::Rng;
use std::sync::{Arc, Mutex, Weak};

/// One cached diagonal: the polynomial it came from (kept weakly so cache
/// identity can be verified against live `Arc`s) and its per-basis values.
struct CachedDiag {
    poly: Weak<PhasePoly>,
    values: Vec<f64>,
}

/// Most plans a workspace keeps: enough for a solve's Δ policies and
/// elimination branch widths, bounded so a long-lived worker workspace
/// cannot accumulate rank tables across unrelated cells.
const PLAN_CACHE_CAP: usize = 8;

/// One cached compilation outcome for a circuit shape.
enum PlanEntry {
    /// The shape compiled: replay it.
    Compiled(Arc<GatePlan>),
    /// The shape refused compilation at this structural support:
    /// remember that, so iterations skip the recompile attempt and go
    /// straight to the dense engine.
    Refused(CircuitShape, usize),
}

impl PlanEntry {
    fn shape(&self) -> &CircuitShape {
        match self {
            PlanEntry::Compiled(plan) => plan.shape(),
            PlanEntry::Refused(shape, _) => shape,
        }
    }

    /// The plan to replay, or the support the shape refused at.
    fn outcome(&self) -> Result<Arc<GatePlan>, usize> {
        match self {
            PlanEntry::Compiled(plan) => Ok(plan.clone()),
            PlanEntry::Refused(_, support) => Err(*support),
        }
    }
}

/// A shareable cache of compiled gate plans, keyed by circuit *shape*
/// (see [`crate::EngineKind::Compact`]).
///
/// Every [`SimWorkspace`] owns one behind an `Arc`; workspaces built with
/// [`SimWorkspace::with_plan_cache`] share it, so a multi-start scheduler
/// whose workers each own a workspace still compiles **each circuit shape
/// exactly once** — the first worker to reach a shape compiles it (under
/// the cache lock, so concurrent workers on the same shape wait instead
/// of duplicating the work) and every other worker replays the shared
/// plan. Replays only take the lock for the shape lookup; the plan itself
/// is handed out as an `Arc` and executed lock-free.
#[derive(Default)]
pub struct PlanCache {
    inner: Mutex<PlanCacheInner>,
}

#[derive(Default)]
struct PlanCacheInner {
    /// Compilation outcomes, most recently used last.
    entries: Vec<PlanEntry>,
    /// Total compilations (successful or refused) ever run.
    compilations: u64,
    /// Of those, the compilations that refused.
    refusals: u64,
    /// Total shape lookups served from a cached entry.
    hits: u64,
    /// Content-interned diagonal polynomials, most recently used last.
    /// Circuit shapes hold their `PhasePoly` weakly and match by `Arc`
    /// pointer identity, so a caller that rebuilds an equal polynomial
    /// per solve would never hit the cache across solves; interning
    /// through here gives equal-content polynomials one canonical `Arc`
    /// (and keeps it alive, so the shape stays matchable).
    interned: Vec<Arc<PhasePoly>>,
}

/// Most canonical polynomials [`PlanCache::intern_poly`] keeps alive:
/// enough for the distinct cost/penalty polynomials of the shapes a
/// bounded plan cache can hold, without letting a long-lived daemon
/// accumulate dead problems' polynomials.
const INTERN_CAP: usize = 2 * PLAN_CACHE_CAP;

/// A point-in-time snapshot of a [`PlanCache`]'s counters — the stats
/// hook `choco-serve` reports so cross-request plan reuse is observable
/// (a second same-shape job must add `hits`, not `compilations`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Circuit shapes with a cached compilation outcome right now.
    pub shapes: usize,
    /// Plan compilations (successful or refused) ever run.
    pub compilations: u64,
    /// Of those, the compilations that refused (their shapes run dense).
    pub refusals: u64,
    /// Shape lookups served from a cached entry.
    pub hits: u64,
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> Self {
        PlanCache::default()
    }

    /// Locks the cache, recovering from a poisoned mutex. A worker that
    /// panics while holding the lock (the experiment runner isolates
    /// per-cell panics with `catch_unwind` and keeps its siblings alive)
    /// would otherwise take every workspace sharing this cache down on
    /// their next lookup. Compilation happens *before* the entry insert,
    /// so a poisoned cache holds no partially-built plan — but it may
    /// have missed LRU/eviction bookkeeping mid-update, so recovery
    /// conservatively drops the cached entries (they recompile on demand;
    /// the compilation counter survives) and clears the poison flag.
    fn lock_inner(&self) -> std::sync::MutexGuard<'_, PlanCacheInner> {
        match self.inner.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                self.inner.clear_poison();
                let mut guard = poisoned.into_inner();
                guard.entries.clear();
                guard
            }
        }
    }

    /// Number of circuit shapes with a cached compilation outcome
    /// (compiled plan or remembered refusal).
    pub fn len(&self) -> usize {
        self.lock_inner().entries.len()
    }

    /// `true` when no shape has been compiled yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How many plan compilations (successful or refused) have run across
    /// every workspace sharing this cache. Stays at the number of
    /// distinct circuit shapes across any number of iterations, restarts,
    /// and workers — the compile-once invariant of the compact engine.
    pub fn compilations(&self) -> u64 {
        self.lock_inner().compilations
    }

    /// A snapshot of the cache counters (shape count, compilations,
    /// refusals, hits) — the observability hook behind `choco-serve`'s
    /// `stats` and `health` requests.
    pub fn stats(&self) -> PlanCacheStats {
        let inner = self.lock_inner();
        PlanCacheStats {
            shapes: inner.entries.len(),
            compilations: inner.compilations,
            refusals: inner.refusals,
            hits: inner.hits,
        }
    }

    /// Returns the canonical `Arc` for a polynomial with `poly`'s
    /// content, registering it if none exists yet (bounded, LRU).
    ///
    /// Circuit shapes ([`crate::EngineKind::Compact`]) identify their
    /// diagonal polynomials by `Arc` pointer, so two solves that each
    /// build an equal `PhasePoly` from scratch produce shapes that never
    /// match. Callers that want plan reuse **across** solves — the
    /// `choco-serve` daemon sharing one cache over all requests — intern
    /// their cost/penalty polynomials here so equal content maps to one
    /// pointer and the compiled plan is replayed instead of recompiled.
    pub fn intern_poly(&self, poly: PhasePoly) -> Arc<PhasePoly> {
        let mut inner = self.lock_inner();
        if let Some(idx) = inner.interned.iter().position(|p| **p == poly) {
            // LRU promotion, same policy as the plan entries.
            let found = inner.interned.remove(idx);
            inner.interned.push(found.clone());
            return found;
        }
        if inner.interned.len() >= INTERN_CAP {
            inner.interned.remove(0);
        }
        let canonical = Arc::new(poly);
        inner.interned.push(canonical.clone());
        canonical
    }

    /// Finds the plan for `circuit`'s shape, compiling it on a miss.
    /// Returns the structural support instead when the shape (freshly or
    /// previously) refused: the caller then runs it dense.
    pub(crate) fn lookup_or_compile(
        &self,
        circuit: &Circuit,
        max_support: usize,
    ) -> Result<Arc<GatePlan>, usize> {
        let mut inner = self.lock_inner();
        if let Some(idx) = inner
            .entries
            .iter()
            .position(|e| e.shape().matches(circuit))
        {
            // LRU promotion: eviction drops the front, so a hit must
            // refresh recency or a rotation over more shapes than the
            // cache holds would thrash into per-iteration recompiles.
            inner.hits += 1;
            let entry = inner.entries.remove(idx);
            let found = entry.outcome();
            inner.entries.push(entry);
            return found;
        }
        // Miss: compile while holding the lock — a concurrent worker on
        // the same shape blocks here and then *hits*, which is exactly
        // the compile-once guarantee a shared cache exists to give.
        inner.compilations += 1;
        let entry = match GatePlan::compile(circuit, max_support) {
            Ok(plan) => PlanEntry::Compiled(Arc::new(plan)),
            Err(PlanError::TooDense { support }) => {
                inner.refusals += 1;
                PlanEntry::Refused(CircuitShape::of(circuit), support)
            }
        };
        // Entries whose diagonal polynomials died can never match again;
        // drop them first, then bound the cache.
        inner.entries.retain(|e| e.shape().is_live());
        if inner.entries.len() >= PLAN_CACHE_CAP {
            inner.entries.remove(0);
        }
        let found = entry.outcome();
        inner.entries.push(entry);
        found
    }
}

/// The structural-support cap above which plan compilation gives up and
/// the shape runs dense: [`DENSITY_THRESHOLD`] of the register (floored
/// so tiny registers always compile), or a hard table-size cap where no
/// dense fallback exists.
fn plan_support_cap(n_qubits: usize) -> usize {
    if n_qubits <= MAX_DENSIFY_QUBITS {
        let dim = (1u64 << n_qubits) as f64;
        ((DENSITY_THRESHOLD * dim) as usize).max(64)
    } else {
        1 << 22
    }
}

/// Reusable buffers for repeated circuit execution (see module docs).
///
/// # Examples
///
/// ```
/// use choco_qsim::{Circuit, SimConfig, SimWorkspace};
///
/// let mut ws = SimWorkspace::new(SimConfig::serial());
/// let mut bell = Circuit::new(2);
/// bell.h(0).cx(0, 1);
/// for _ in 0..10 {
///     let state = ws.run(&bell);
///     assert!((state.probability(0b00) - 0.5).abs() < 1e-12);
/// }
/// assert_eq!(ws.reallocations(), 1, "buffer allocated once, reused 9×");
/// ```
///
/// # Unwind safety
///
/// A workspace is **not** unwind-safe in the logical sense: a panic
/// mid-`run` can leave the engine state, diagonal cache, or sampling
/// table inconsistent with each other (never memory-unsafe). Callers
/// that isolate panics with
/// `catch_unwind(AssertUnwindSafe(..))` — the experiment runner's
/// per-cell fault isolation — must **discard the workspace afterwards**
/// and build a fresh one rather than reuse it. The shared [`PlanCache`]
/// is the exception: it recovers from lock poisoning on its own (entries
/// are rebuilt on demand), so sibling workspaces sharing the cache of a
/// panicked worker keep working.
pub struct SimWorkspace {
    config: SimConfig,
    engine: Option<SimEngine>,
    diag_cache: Vec<CachedDiag>,
    /// Compiled gate plans (and refusal markers), keyed by circuit shape
    /// ([`crate::EngineKind::Compact`] only). Shareable: workspaces built
    /// with [`SimWorkspace::with_plan_cache`] compile each shape once
    /// between them.
    plans: Arc<PlanCache>,
    cumulative: Vec<f64>,
    /// Monotone run counter; `cumulative_for` marks which run (if any) the
    /// sampling table was built from.
    run_stamp: u64,
    cumulative_for: u64,
    reallocations: u64,
    /// The SoA buffer for batched compact replay ([`SimWorkspace::run_batch`]),
    /// allocated on first use and reused across iterations.
    batch: BatchWorkspace,
    /// Lane-parameter buffers of the compact replay, shared by
    /// [`SimWorkspace::run`] (one lane) and [`SimWorkspace::run_batch`].
    scratch: BatchScratch,
}

impl SimWorkspace {
    /// An empty workspace; buffers are sized on first use.
    pub fn new(config: SimConfig) -> Self {
        Self::with_plan_cache(config, Arc::new(PlanCache::new()))
    }

    /// An empty workspace that shares `plans` with other workspaces: a
    /// circuit shape compiled by any of them serves all of them. This is
    /// how a parallel multi-start scheduler keeps the compile-once
    /// invariant across worker-owned workspaces.
    ///
    /// Share a cache only between workspaces running the **same
    /// `SimConfig`**: cached outcomes are keyed by circuit shape alone,
    /// so the compile-or-refuse decision is made by whichever
    /// workspace reaches a shape first and then inherited by every
    /// sharer.
    pub fn with_plan_cache(config: SimConfig, plans: Arc<PlanCache>) -> Self {
        SimWorkspace {
            config,
            engine: None,
            diag_cache: Vec::new(),
            plans,
            cumulative: Vec::new(),
            run_stamp: 0,
            cumulative_for: u64::MAX,
            reallocations: 0,
            batch: BatchWorkspace::default(),
            scratch: BatchScratch::default(),
        }
    }

    /// The plan cache this workspace compiles into — pass it to
    /// [`SimWorkspace::with_plan_cache`] to share compiled shapes with
    /// another workspace.
    pub fn plan_cache(&self) -> Arc<PlanCache> {
        self.plans.clone()
    }

    /// Interns `poly` in this workspace's (possibly shared) plan cache —
    /// see [`PlanCache::intern_poly`]. Solvers route every freshly built
    /// cost/penalty polynomial through this so equal-content polynomials
    /// share one `Arc` and compiled plans survive across solves (and, in
    /// `choco-serve`, across requests).
    pub fn intern_poly(&self, poly: PhasePoly) -> Arc<PhasePoly> {
        self.plans.intern_poly(poly)
    }

    /// The execution configuration used for kernels run through this
    /// workspace.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// How many times the engine state was (re)allocated. Stays at 1
    /// across any number of same-width runs — the solvers' zero-alloc
    /// invariant.
    pub fn reallocations(&self) -> u64 {
        self.reallocations
    }

    /// Number of distinct diagonals currently cached (dense runs only;
    /// compact plans never materialize a `2^n` diagonal).
    pub fn cached_diagonals(&self) -> usize {
        self.diag_cache.len()
    }

    /// Number of circuit shapes with a cached compilation outcome
    /// (compiled plan or remembered refusal; compact engine only).
    /// Counted on the (possibly shared) plan cache.
    pub fn cached_plans(&self) -> usize {
        self.plans.len()
    }

    /// How many plan compilations (successful or refused) have run on
    /// this workspace's (possibly shared) plan cache. Stays at the number
    /// of distinct circuit shapes across any number of iterations,
    /// restarts, and sharing workers — the compile-once invariant of the
    /// compact engine.
    pub fn plan_compilations(&self) -> u64 {
        self.plans.compilations()
    }

    /// Drops the engine state and its amplitude buffer, so the next run
    /// allocates afresh (a measurement harness uses this to time each
    /// task from the same cold start). Plan and diagonal caches survive.
    pub fn reset_engine(&mut self) {
        self.engine = None;
    }

    /// Runs `circuit` from `|0…0⟩` reusing the workspace buffers, and
    /// returns the resulting engine state (borrowed — it stays inside the
    /// workspace for sampling / expectation calls).
    ///
    /// # Panics
    ///
    /// Panics when a compact shape refuses its plan on a register wider
    /// than [`MAX_DENSIFY_QUBITS`], where no dense fallback fits.
    pub fn run(&mut self, circuit: &Circuit) -> &SimEngine {
        self.run_stamp += 1;
        if self.config.engine == EngineKind::Compact {
            let n_qubits = circuit.n_qubits();
            let cap = plan_support_cap(n_qubits);
            match self.plans.lookup_or_compile(circuit, cap) {
                Ok(plan) => return self.run_compact(&plan, circuit),
                Err(support) => assert_dense_fallback(n_qubits, support, cap),
            }
        }
        self.run_dense(circuit)
    }

    /// The dense path: reset the `2^n` buffer in place (allocating it on
    /// a width or representation change) and apply the gates, reading
    /// diagonals from the per-`Arc` cache.
    fn run_dense(&mut self, circuit: &Circuit) -> &SimEngine {
        let n_qubits = circuit.n_qubits();
        if !matches!(&self.engine, Some(SimEngine::Dense(s)) if s.n_qubits() == n_qubits) {
            if self.engine.as_ref().map(SimEngine::n_qubits) != Some(n_qubits) {
                // Cached diagonals are per-width; drop stale ones.
                self.diag_cache.clear();
            }
            self.engine = Some(SimEngine::Dense(StateVector::new_with(
                n_qubits,
                self.config,
            )));
            self.reallocations += 1;
        }
        let Some(SimEngine::Dense(state)) = &mut self.engine else {
            unreachable!("engine set to dense above");
        };
        state.reset_zero();
        for gate in circuit.iter() {
            match gate {
                Gate::DiagPhase(poly, theta) => {
                    let values = cached_diag(&mut self.diag_cache, poly, n_qubits);
                    state.apply_diag_values(values, *theta);
                }
                g => state.apply_gate(g),
            }
        }
        self.engine.as_ref().expect("engine set to dense above")
    }

    /// The state left by the last [`SimWorkspace::run`], if any.
    pub fn state(&self) -> Option<&SimEngine> {
        self.engine.as_ref()
    }

    /// Samples from the last run's state, building the cumulative table at
    /// most once per run (repeat calls reuse it).
    ///
    /// # Panics
    ///
    /// Panics if nothing has been run yet.
    pub fn sample<R: Rng>(&mut self, shots: u64, rng: &mut R) -> Counts {
        let engine = self.engine.as_ref().expect("run a circuit before sampling");
        if self.cumulative_for != self.run_stamp {
            engine.fill_cumulative(&mut self.cumulative);
            self.cumulative_for = self.run_stamp;
        }
        engine.sample_with_cumulative(&self.cumulative, shots, rng)
    }

    /// Expectation of a diagonal observable on the last run's state.
    ///
    /// # Panics
    ///
    /// Panics if nothing has been run yet.
    pub fn expectation_diag_values(&self, values: &[f64]) -> f64 {
        self.engine
            .as_ref()
            .expect("run a circuit before measuring")
            .expectation_diag_values(values)
    }

    /// Replays K same-shape circuits in one pass over the cached gate
    /// plan — the batched compact fast path (see [`BatchWorkspace`]).
    /// Returns the lane-addressable batch state, or `None` when batching
    /// does not apply and the caller should fall back to K sequential
    /// [`SimWorkspace::run`] calls: a non-compact engine selection, an
    /// empty batch, a shape that refused compilation (it runs dense), or
    /// circuits of differing shapes.
    ///
    /// The serial engine state ([`SimWorkspace::state`], sampling caches)
    /// is untouched — a batched evaluation never disturbs what a
    /// subsequent serial run and `sample` will see.
    ///
    /// Bit-identity contract: lane `i` of the result reads exactly what
    /// `self.run(&circuits[i])` would produce, at any batch size and
    /// thread count.
    pub fn run_batch(&mut self, circuits: &[Circuit]) -> Option<&BatchWorkspace> {
        if circuits.is_empty() || self.config.engine != EngineKind::Compact {
            return None;
        }
        let cap = plan_support_cap(circuits[0].n_qubits());
        let plan = self.plans.lookup_or_compile(&circuits[0], cap).ok()?;
        if !circuits.iter().all(|c| plan.shape().matches(c)) {
            return None;
        }
        self.batch
            .replay(&plan, circuits, &mut self.scratch, &self.config);
        Some(&self.batch)
    }

    /// How many times the batched SoA buffer had to grow (see
    /// [`BatchWorkspace::reallocations`]); 0 before the first
    /// [`SimWorkspace::run_batch`].
    pub fn batch_reallocations(&self) -> u64 {
        self.batch.reallocations()
    }

    /// The compact fast path: replay the shape's gate plan into the
    /// (reused) rank-indexed amplitude array — a one-lane batch, through
    /// the same lane kernels as [`SimWorkspace::run_batch`].
    fn run_compact(&mut self, plan: &GatePlan, circuit: &Circuit) -> &SimEngine {
        let n_qubits = circuit.n_qubits();
        if !matches!(&self.engine, Some(SimEngine::Compact(c)) if c.n_qubits() == n_qubits) {
            let state = CompactStateVector::new(n_qubits, plan.basis(), self.config);
            self.engine = Some(SimEngine::Compact(state));
            self.reallocations += 1;
        }
        let Some(SimEngine::Compact(state)) = &mut self.engine else {
            unreachable!("engine set to compact above");
        };
        state.reset_for_basis(plan.basis());
        let circuits = std::slice::from_ref(circuit);
        plan.execute(circuits, state.amps_mut(), &mut self.scratch, &self.config);
        self.engine.as_ref().expect("engine set to compact above")
    }
}

/// The `2^n` diagonal of `poly` from the per-`Arc` cache, expanding (and
/// caching) it on a miss.
fn cached_diag<'a>(
    cache: &'a mut Vec<CachedDiag>,
    poly: &Arc<PhasePoly>,
    n_qubits: usize,
) -> &'a [f64] {
    let dim = 1usize << n_qubits;
    let hit = cache.iter().position(|entry| {
        entry.values.len() == dim
            && entry
                .poly
                .upgrade()
                .is_some_and(|live| Arc::ptr_eq(&live, poly))
    });
    let idx = match hit {
        Some(idx) => idx,
        None => {
            // Drop entries whose polynomial is gone: they can never
            // match again, and each holds a 2^n-element Vec — a
            // long-lived workspace would otherwise grow per solve.
            cache.retain(|e| e.poly.strong_count() > 0);
            let mut values = vec![0.0f64; dim];
            kernels::accumulate_poly_diag(&mut values, poly);
            cache.push(CachedDiag {
                poly: Arc::downgrade(poly),
                values,
            });
            cache.len() - 1
        }
    };
    &cache[idx].values
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simconfig::EngineKind;
    use crate::state::StateVector;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn layer_circuit(n: usize, poly: &Arc<PhasePoly>, theta: f64) -> Circuit {
        let mut c = Circuit::new(n);
        for q in 0..n {
            c.h(q);
        }
        c.diag(poly.clone(), theta);
        c.cx(0, 1);
        c
    }

    /// The dense reference configuration.
    fn dense() -> SimConfig {
        SimConfig::serial().with_engine(EngineKind::Dense)
    }

    /// A shape that refuses plan compilation yet stays numerically
    /// confined: each zero-angle `ry` doubles the structural support (to
    /// `2^(n-1)`, twice the threshold) while acting as the identity.
    fn zero_angle_spread(n: usize, poly: &Arc<PhasePoly>, theta: f64) -> Circuit {
        let mut c = Circuit::new(n);
        c.load_bits(0b0101);
        for q in 0..n - 1 {
            c.ry(q, 0.0);
        }
        c.diag(poly.clone(), theta);
        let mut u = vec![0i8; n];
        u[..4].copy_from_slice(&[1, -1, 1, -1]);
        c.ublock(crate::gate::UBlock::from_u_with_angle(&u, 0.5));
        c
    }

    fn test_poly(n: usize) -> Arc<PhasePoly> {
        let mut poly = PhasePoly::new(n);
        for i in 0..n {
            poly.add_linear(i, 0.2 * (i + 1) as f64);
        }
        poly.add_quadratic(0, n - 1, -0.4);
        Arc::new(poly)
    }

    #[test]
    fn run_matches_bare_statevector() {
        let poly = test_poly(4);
        let mut ws = SimWorkspace::new(dense());
        for theta in [0.2, 0.9, 1.7] {
            let circuit = layer_circuit(4, &poly, theta);
            let expected = StateVector::run(&circuit);
            let got = ws.run(&circuit);
            assert!(
                (got.fidelity_against_dense(&expected) - 1.0).abs() < 1e-12,
                "theta={theta}"
            );
        }
    }

    #[test]
    fn amplitude_buffer_allocated_once_across_iterations() {
        let poly = test_poly(5);
        let mut ws = SimWorkspace::new(dense());
        for i in 0..50 {
            let circuit = layer_circuit(5, &poly, 0.1 * i as f64);
            ws.run(&circuit);
        }
        assert_eq!(ws.reallocations(), 1);
        assert_eq!(ws.cached_diagonals(), 1, "shared poly expanded once");
    }

    #[test]
    fn width_change_reallocates_and_clears_diag_cache() {
        let p4 = test_poly(4);
        let p6 = test_poly(6);
        let mut ws = SimWorkspace::new(dense());
        ws.run(&layer_circuit(4, &p4, 0.3));
        ws.run(&layer_circuit(6, &p6, 0.3));
        assert_eq!(ws.reallocations(), 2);
        ws.run(&layer_circuit(6, &p6, 0.7));
        assert_eq!(ws.reallocations(), 2, "same width reuses the buffer");
    }

    #[test]
    fn distinct_polys_cache_separately() {
        let a = test_poly(4);
        let b = test_poly(4);
        let mut ws = SimWorkspace::new(dense());
        let mut c = Circuit::new(4);
        c.diag(a.clone(), 0.5)
            .diag(b.clone(), 0.25)
            .diag(a.clone(), 0.1);
        ws.run(&c);
        assert_eq!(ws.cached_diagonals(), 2);
        // Equivalence against the uncached engine.
        let expected = StateVector::run(&c);
        assert!((ws.state().unwrap().fidelity_against_dense(&expected) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sampling_reuses_the_cumulative_table_per_run() {
        let poly = test_poly(4);
        let circuit = layer_circuit(4, &poly, 0.8);
        let mut ws = SimWorkspace::new(dense());
        ws.run(&circuit);
        let mut rng = StdRng::seed_from_u64(9);
        let a = ws.sample(2_000, &mut rng);
        let table_ptr = ws.cumulative.as_ptr();
        let b = ws.sample(2_000, &mut rng);
        assert_eq!(ws.cumulative.as_ptr(), table_ptr, "table not rebuilt");
        assert_eq!(a.shots() + b.shots(), 4_000);
        // A fresh run invalidates the table.
        ws.run(&circuit);
        let stamp = ws.run_stamp;
        ws.sample(100, &mut rng);
        assert_eq!(ws.cumulative_for, stamp);
    }

    #[test]
    fn workspace_sampling_matches_direct_sampling() {
        let poly = test_poly(4);
        let circuit = layer_circuit(4, &poly, 0.8);
        let mut ws = SimWorkspace::new(dense());
        ws.run(&circuit);
        let direct = {
            let mut rng = StdRng::seed_from_u64(33);
            StateVector::run(&circuit).sample(3_000, &mut rng)
        };
        let mut rng = StdRng::seed_from_u64(33);
        let cached = ws.sample(3_000, &mut rng);
        assert_eq!(direct, cached);
    }

    #[test]
    fn refused_shape_matches_dense_and_uses_the_diag_cache() {
        let poly = test_poly(10);
        let mut compact_ws = SimWorkspace::new(SimConfig::serial());
        let mut dense_ws = SimWorkspace::new(dense());
        for theta in [0.3, 1.1] {
            let c = zero_angle_spread(10, &poly, theta);
            let dense_amps: Vec<_> = {
                let e = dense_ws.run(&c);
                (0..1024u64).map(|b| e.amplitude(b)).collect()
            };
            let state = compact_ws.run(&c);
            assert!(state.as_dense().is_some(), "a refused shape runs dense");
            assert_eq!(state.occupancy(), 2);
            for (bits, d) in dense_amps.iter().enumerate() {
                let a = state.amplitude(bits as u64);
                assert!(a.re == d.re && a.im == d.im, "theta={theta} bits={bits}");
            }
        }
        let stats = compact_ws.plan_cache().stats();
        assert_eq!(
            (stats.compilations, stats.refusals),
            (1, 1),
            "refusal remembered"
        );
        assert_eq!(compact_ws.reallocations(), 1);
        assert_eq!(
            compact_ws.cached_diagonals(),
            1,
            "dense runs expand the shared diagonal once"
        );
    }

    #[test]
    fn refused_shape_sampling_matches_dense_stream() {
        let c = zero_angle_spread(10, &test_poly(10), 0.8);
        let mut compact_ws = SimWorkspace::new(SimConfig::serial());
        let mut dense_ws = SimWorkspace::new(dense());
        assert!(!compact_ws.run(&c).is_compact());
        dense_ws.run(&c);
        let mut ra = StdRng::seed_from_u64(21);
        let mut rb = StdRng::seed_from_u64(21);
        assert_eq!(
            compact_ws.sample(4_000, &mut ra),
            dense_ws.sample(4_000, &mut rb)
        );
    }

    #[test]
    fn compact_workspace_compiles_once_and_matches_dense_bitwise() {
        let poly = test_poly(4);
        let confined = |theta: f64| {
            let mut c = Circuit::new(4);
            c.load_bits(0b0110);
            c.diag(poly.clone(), theta);
            c.ublock(crate::gate::UBlock::from_u_with_angle(&[1, -1, 1, -1], 0.5));
            c.ublock(crate::gate::UBlock::from_u_with_angle(
                &[0, 1, -1, 1],
                theta,
            ));
            c
        };
        let mut compact_ws =
            SimWorkspace::new(SimConfig::serial().with_engine(EngineKind::Compact));
        let mut dense_ws = SimWorkspace::new(dense());
        for (i, theta) in [0.3, 1.1, -0.7, 0.0, 2.2].into_iter().enumerate() {
            let c = confined(theta);
            let dense_amps: Vec<_> = {
                let e = dense_ws.run(&c);
                (0..16u64).map(|b| e.amplitude(b)).collect()
            };
            let state = compact_ws.run(&c);
            assert!(state.is_compact(), "iteration {i} lost the compact path");
            for (bits, d) in dense_amps.iter().enumerate() {
                let a = state.amplitude(bits as u64);
                assert!(
                    a.re == d.re && a.im == d.im,
                    "theta={theta} bits={bits}: {a} vs {d}"
                );
            }
        }
        assert_eq!(compact_ws.cached_plans(), 1, "one shape, one plan");
        assert_eq!(compact_ws.plan_compilations(), 1, "compiled exactly once");
        assert_eq!(compact_ws.reallocations(), 1, "iterations reuse the array");
        assert_eq!(
            compact_ws.cached_diagonals(),
            0,
            "the compact path bakes diagonals into the plan"
        );
    }

    #[test]
    fn compact_workspace_sampling_matches_dense_stream() {
        let mut c = Circuit::new(4);
        c.load_bits(0b0011);
        c.ublock(crate::gate::UBlock::from_u_with_angle(&[1, -1, 1, 0], 0.8));
        let mut compact_ws =
            SimWorkspace::new(SimConfig::serial().with_engine(EngineKind::Compact));
        let mut dense_ws = SimWorkspace::new(dense());
        assert!(compact_ws.run(&c).is_compact());
        dense_ws.run(&c);
        let mut ra = StdRng::seed_from_u64(21);
        let mut rb = StdRng::seed_from_u64(21);
        assert_eq!(
            compact_ws.sample(4_000, &mut ra),
            dense_ws.sample(4_000, &mut rb)
        );
    }

    #[test]
    fn compact_workspace_falls_back_cleanly_on_dense_shapes() {
        // A register-filling mixer: compilation refuses the shape, the
        // run goes to the dense engine, and the refusal is remembered (no
        // recompile attempts).
        let mut mixer = Circuit::new(10);
        for q in 0..10 {
            mixer.h(q);
        }
        let mut ws = SimWorkspace::new(SimConfig::serial().with_engine(EngineKind::Compact));
        for _ in 0..3 {
            let state = ws.run(&mixer);
            assert!(state.as_dense().is_some(), "a refused shape runs dense");
            let expected = StateVector::run(&mixer);
            assert!((state.fidelity_against_dense(&expected) - 1.0).abs() < 1e-12);
        }
        assert_eq!(ws.cached_plans(), 1, "fallback shape cached");
        assert_eq!(ws.plan_compilations(), 1, "refusal remembered");
        assert_eq!(ws.plan_cache().stats().refusals, 1);
        // A confined shape afterwards still gets the compact fast path.
        let mut confined = Circuit::new(10);
        confined.load_bits(0b101);
        let u: Vec<i8> = (0..10).map(|i| if i % 2 == 0 { 1 } else { -1 }).collect();
        confined.ublock(crate::gate::UBlock::from_u_with_angle(&u, 0.4));
        assert!(ws.run(&confined).is_compact());
        assert_eq!(ws.cached_plans(), 2);
    }

    #[test]
    fn compact_plan_cache_holds_multiple_shapes_without_reallocating() {
        // Alternating Δ policies (two circuit shapes over one register)
        // must each keep their compiled plan and share the amplitude
        // allocation.
        let poly = test_poly(4);
        let shape_a = |theta: f64| {
            let mut c = Circuit::new(4);
            c.load_bits(0b0011);
            c.diag(poly.clone(), theta);
            c.ublock(crate::gate::UBlock::from_u_with_angle(&[1, -1, 0, 0], 0.5));
            c
        };
        let shape_b = |theta: f64| {
            let mut c = Circuit::new(4);
            c.load_bits(0b0011);
            c.diag(poly.clone(), theta);
            c.ublock(crate::gate::UBlock::from_u_with_angle(&[1, -1, 0, 0], 0.5));
            c.ublock(crate::gate::UBlock::from_u_with_angle(&[0, 0, 1, -1], 0.2));
            c
        };
        let mut ws = SimWorkspace::new(SimConfig::serial().with_engine(EngineKind::Compact));
        for i in 0..6 {
            let theta = 0.1 * i as f64;
            assert!(ws.run(&shape_a(theta)).is_compact());
            assert!(ws.run(&shape_b(theta)).is_compact());
        }
        assert_eq!(ws.cached_plans(), 2);
        assert_eq!(ws.plan_compilations(), 2, "one compile per shape");
        assert_eq!(ws.reallocations(), 1, "shapes share the amplitude array");
    }

    #[test]
    fn compact_plan_cache_promotes_hits_over_fifo_eviction() {
        // Fill the cache to capacity, touch the oldest shape, then force
        // one eviction: the promoted shape must survive (LRU), so
        // re-running it is a cache hit, not a recompile.
        let shape = |k: usize, theta: f64| {
            let mut c = Circuit::new(4);
            c.load_bits(0b0001);
            for _ in 0..k + 1 {
                c.ublock(crate::gate::UBlock::from_u_with_angle(
                    &[1, -1, 0, 0],
                    theta,
                ));
            }
            c
        };
        let mut ws = SimWorkspace::new(SimConfig::serial().with_engine(EngineKind::Compact));
        for k in 0..8 {
            ws.run(&shape(k, 0.3));
        }
        assert_eq!(ws.plan_compilations(), 8);
        ws.run(&shape(0, 0.7)); // hit on the oldest shape → promoted
        assert_eq!(ws.plan_compilations(), 8, "hit must not recompile");
        ws.run(&shape(8, 0.3)); // ninth shape → one eviction
        assert_eq!(ws.plan_compilations(), 9);
        assert_eq!(ws.cached_plans(), 8, "cache stays at capacity");
        ws.run(&shape(0, 1.1)); // the promoted shape must still be cached
        assert_eq!(
            ws.plan_compilations(),
            9,
            "promoted shape was evicted: cache is FIFO, not LRU"
        );
    }

    #[test]
    fn shared_plan_cache_compiles_each_shape_once_across_workspaces() {
        // The parallel multi-start contract: worker-owned workspaces
        // sharing one PlanCache must compile a shape exactly once between
        // them, and every worker's replay must be bit-identical to a
        // private-cache run.
        let poly = test_poly(4);
        let confined = |theta: f64| {
            let mut c = Circuit::new(4);
            c.load_bits(0b0110);
            c.diag(poly.clone(), theta);
            c.ublock(crate::gate::UBlock::from_u_with_angle(&[1, -1, 1, -1], 0.5));
            c
        };
        let config = SimConfig::serial().with_engine(EngineKind::Compact);
        let mut reference = SimWorkspace::new(config);
        let expected: Vec<_> = {
            let e = reference.run(&confined(0.8));
            (0..16u64).map(|b| e.amplitude(b)).collect()
        };

        let shared = Arc::new(PlanCache::new());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let shared = shared.clone();
                let expected = &expected;
                let confined = &confined;
                scope.spawn(move || {
                    let mut ws = SimWorkspace::with_plan_cache(config, shared);
                    for _ in 0..8 {
                        let state = ws.run(&confined(0.8));
                        assert!(state.is_compact());
                        for (bits, want) in expected.iter().enumerate() {
                            let got = state.amplitude(bits as u64);
                            assert!(got.re == want.re && got.im == want.im);
                        }
                    }
                });
            }
        });
        assert_eq!(shared.compilations(), 1, "one compile serves all workers");
        assert_eq!(shared.len(), 1);
        // A workspace joining afterwards hits the shared plan too.
        let mut late = SimWorkspace::with_plan_cache(config, shared.clone());
        late.run(&confined(1.3));
        assert_eq!(late.plan_compilations(), 1, "late joiner reuses the plan");
        assert_eq!(shared.compilations(), 1);
    }

    fn confined_4q(poly: &Arc<PhasePoly>, theta: f64) -> Circuit {
        let mut c = Circuit::new(4);
        c.load_bits(0b0110);
        c.diag(poly.clone(), theta);
        c.ublock(crate::gate::UBlock::from_u_with_angle(&[1, -1, 1, -1], 0.5));
        c.ublock(crate::gate::UBlock::from_u_with_angle(
            &[0, 1, -1, 1],
            theta,
        ));
        c
    }

    #[test]
    fn run_batch_lanes_match_serial_runs_bitwise() {
        let poly = test_poly(4);
        let thetas = [0.3, 1.1, -0.7, 0.0, 2.2];
        let circuits: Vec<Circuit> = thetas.iter().map(|&t| confined_4q(&poly, t)).collect();
        let config = SimConfig::serial().with_engine(EngineKind::Compact);
        let mut batch_ws = SimWorkspace::new(config);
        let mut serial_ws = SimWorkspace::new(config);
        let batch = batch_ws.run_batch(&circuits).expect("compact batch runs");
        assert_eq!(batch.lanes(), circuits.len());
        let table: Vec<f64> = (0..16u64).map(|b| poly.eval_bits(b)).collect();
        for (lane, circuit) in circuits.iter().enumerate() {
            let state = serial_ws.run(circuit);
            assert!(state.is_compact());
            for bits in 0..16u64 {
                let (a, b) = (batch.amplitude(lane, bits), state.amplitude(bits));
                assert!(
                    a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
                    "lane={lane} bits={bits}: {a} vs {b}"
                );
            }
            assert_eq!(
                batch.expectation_diag_values(lane, &table),
                serial_ws.expectation_diag_values(&table),
                "lane={lane} expectation"
            );
            let mut ra = StdRng::seed_from_u64(19);
            let mut rb = StdRng::seed_from_u64(19);
            assert_eq!(
                batch.sample(lane, 2_000, &mut ra),
                serial_ws.sample(2_000, &mut rb),
                "lane={lane} histogram"
            );
        }
        // The batch and the serial runs share one plan per workspace; the
        // batched path keeps the compile-once invariant.
        assert_eq!(batch_ws.plan_compilations(), 1);
        assert_eq!(serial_ws.plan_compilations(), 1);
    }

    #[test]
    fn run_batch_declines_when_batching_does_not_apply() {
        let poly = test_poly(4);
        let circuits = vec![confined_4q(&poly, 0.3), confined_4q(&poly, 0.9)];
        // Non-compact engine selection.
        let mut dense_ws = SimWorkspace::new(dense());
        assert!(dense_ws.run_batch(&circuits).is_none());
        // Empty batch.
        let config = SimConfig::serial().with_engine(EngineKind::Compact);
        let mut ws = SimWorkspace::new(config);
        assert!(ws.run_batch(&[]).is_none());
        // Mixed shapes.
        let mut longer = confined_4q(&poly, 0.3);
        longer.x(0);
        let mixed = vec![confined_4q(&poly, 0.3), longer];
        assert!(ws.run_batch(&mixed).is_none());
        // Fallback shape (refuses compilation).
        let mut mixer = Circuit::new(10);
        for q in 0..10 {
            mixer.h(q);
        }
        assert!(ws.run_batch(&[mixer.clone(), mixer]).is_none());
        // A well-formed batch afterwards still works.
        assert!(ws.run_batch(&circuits).is_some());
    }

    #[test]
    fn batched_iterations_are_zero_alloc_after_warmup() {
        let poly = test_poly(4);
        let config = SimConfig::serial().with_engine(EngineKind::Compact);
        let mut ws = SimWorkspace::new(config);
        assert_eq!(ws.batch_reallocations(), 0);
        for i in 0..20 {
            let circuits: Vec<Circuit> = (0..4)
                .map(|k| confined_4q(&poly, 0.05 * (i * 4 + k) as f64))
                .collect();
            ws.run_batch(&circuits).expect("compact batch runs");
        }
        assert_eq!(ws.batch_reallocations(), 1, "SoA buffer allocated once");
        // A narrower batch fits the existing capacity; a wider one grows.
        let narrow: Vec<Circuit> = (0..2).map(|k| confined_4q(&poly, 0.1 * k as f64)).collect();
        ws.run_batch(&narrow).unwrap();
        assert_eq!(ws.batch_reallocations(), 1);
        let wide: Vec<Circuit> = (0..16)
            .map(|k| confined_4q(&poly, 0.1 * k as f64))
            .collect();
        ws.run_batch(&wide).unwrap();
        assert_eq!(ws.batch_reallocations(), 2);
        // The serial engine state was never touched by batched runs.
        assert!(ws.state().is_none());
        assert_eq!(ws.reallocations(), 0);
    }

    #[test]
    fn shared_plan_cache_compiles_once_across_workers_and_batches() {
        // The PR-5 compile-once invariant extended over the batched path:
        // worker-owned workspaces sharing one PlanCache, each mixing
        // serial runs and batched replays of the same shape, still compile
        // it exactly once between them.
        let poly = test_poly(4);
        let config = SimConfig::serial().with_engine(EngineKind::Compact);
        let shared = Arc::new(PlanCache::new());
        std::thread::scope(|scope| {
            for w in 0..4 {
                let shared = shared.clone();
                let poly = poly.clone();
                scope.spawn(move || {
                    let mut ws = SimWorkspace::with_plan_cache(config, shared);
                    for i in 0..4 {
                        let circuits: Vec<Circuit> = (0..3)
                            .map(|k| confined_4q(&poly, 0.1 * (w * 16 + i * 3 + k) as f64))
                            .collect();
                        let batch = ws.run_batch(&circuits).expect("compact batch runs");
                        let want: Vec<_> = (0..16u64).map(|b| batch.amplitude(0, b)).collect();
                        let state = ws.run(&circuits[0]);
                        for (bits, w) in want.iter().enumerate() {
                            let got = state.amplitude(bits as u64);
                            assert!(got.re == w.re && got.im == w.im);
                        }
                    }
                });
            }
        });
        assert_eq!(
            shared.compilations(),
            1,
            "one compile across workers × batches"
        );
        assert_eq!(shared.len(), 1);
    }

    /// A register-filling mixer: it refuses compilation and runs dense.
    fn mixer(n: usize) -> Circuit {
        let mut c = Circuit::new(n);
        for q in 0..n {
            c.h(q);
        }
        c
    }

    #[test]
    fn reset_engine_redoes_representation_resolution() {
        let mut ws = SimWorkspace::new(SimConfig::serial());
        assert!(ws.run(&mixer(10)).as_dense().is_some(), "plan refused");
        ws.reset_engine();
        assert!(ws.state().is_none(), "reset drops the engine state");
        let mut confined = Circuit::new(10);
        confined.load_bits(0b01);
        confined.ublock(crate::gate::UBlock::from_u_with_angle(&[1, -1], 0.4));
        assert!(ws.run(&confined).is_compact(), "fresh resolution per shape");
        assert_eq!(ws.reallocations(), 2);
    }

    #[test]
    fn auto_workspace_fallback_is_sticky_and_allocation_free() {
        let mut ws = SimWorkspace::new(SimConfig::serial());
        // A mixer circuit fills the register: its plan refuses.
        let mixer = mixer(10);
        assert!(ws.run(&mixer).as_dense().is_some(), "plan refused");
        // Iterating the same workload stays on the retained dense buffer:
        // no fresh 2^n allocation — and the results still match a dense
        // run exactly.
        let buffer = ws
            .state()
            .and_then(|e| e.as_dense())
            .expect("dense after the refusal")
            .amplitudes()
            .as_ptr();
        for _ in 0..3 {
            let state = ws.run(&mixer);
            let expected = StateVector::run(&mixer);
            assert!((state.fidelity_against_dense(&expected) - 1.0).abs() < 1e-12);
        }
        assert_eq!(
            ws.state()
                .and_then(|e| e.as_dense())
                .expect("still dense")
                .amplitudes()
                .as_ptr(),
            buffer,
            "iterations reuse the dense buffer in place"
        );
        assert_eq!(ws.reallocations(), 1);
        assert_eq!(ws.plan_compilations(), 1, "refusal remembered");
        // A width change reallocates.
        let wider = zero_angle_spread(11, &test_poly(11), 0.4);
        assert!(ws.run(&wider).as_dense().is_some());
        assert_eq!(ws.reallocations(), 2);
    }

    /// The cross-request reuse scenario behind `choco-serve`: two "solves"
    /// each rebuild an equal-content polynomial from scratch. Without
    /// interning the second shape can never match (shapes hold their poly
    /// by `Arc` pointer); with interning the second solve replays the
    /// compiled plan — zero new compilations, observable via `stats()`.
    #[test]
    fn interning_keeps_plans_replayable_across_rebuilt_polys() {
        let cache = Arc::new(PlanCache::new());
        let config = SimConfig::serial().with_engine(EngineKind::Compact);
        let solve = |cache: &Arc<PlanCache>| {
            // A fresh workspace per solve, like a fresh request; only the
            // plan cache is shared.
            let mut ws = SimWorkspace::with_plan_cache(config, cache.clone());
            let rebuilt = PhasePoly::clone(&test_poly(4));
            let poly = ws.intern_poly(rebuilt);
            let mut c = Circuit::new(4);
            c.load_bits(0b0011);
            c.diag(poly, 0.8);
            c.ublock(crate::gate::UBlock::from_u_with_angle(&[1, -1, 1, 0], 0.8));
            assert!(ws.run(&c).is_compact());
        };
        solve(&cache);
        let cold = cache.stats();
        assert_eq!(cold.compilations, 1);
        solve(&cache);
        let warm = cache.stats();
        assert_eq!(warm.compilations, 1, "second solve must not recompile");
        assert!(warm.hits > cold.hits, "second solve hits the cached plan");
        assert_eq!(warm.shapes, 1);
        // Interning is content-keyed: equal polynomials share one Arc.
        let a = cache.intern_poly(PhasePoly::clone(&test_poly(4)));
        let b = cache.intern_poly(PhasePoly::clone(&test_poly(4)));
        assert!(Arc::ptr_eq(&a, &b));
    }
}
