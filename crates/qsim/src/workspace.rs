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
//! * the amplitude state (dense or compact) is reset in place and read
//!   through a borrowed [`SimEngine`] view (`reallocations()` counts how
//!   often the state had to be rebuilt — the zero-alloc-per-iteration
//!   invariant the solvers assert in their tests),
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
//!   Optimizer loops use [`SimWorkspace::run_template`] and its batched
//!   variant: they bind a [`CircuitTemplate`]'s angles into reused
//!   circuits and resolve its plan once per template, not per run.
//!   Shapes that refuse compilation (structural support above
//!   [`DENSITY_THRESHOLD`]` · 2^n`) are remembered as refusals and run on
//!   the dense engine, so each shape has exactly one representation.
//!
//! Which engine runs is [`SimConfig::engine`]'s choice — the workspace is
//! where that selection takes effect for every solver.

use crate::circuit::Circuit;
use crate::compact::{CompactStateVector, BATCH_BUFFER_BYTES, MAX_BATCH_LANES};
use crate::counts::Counts;
use crate::engine::{check_dense_fallback, SimEngine, MAX_DENSIFY_QUBITS};
use crate::gate::Gate;
use crate::kernels;
use crate::phasepoly::PhasePoly;
use crate::plan::{BatchScratch, CircuitShape, GatePlan, PlanError};
use crate::simconfig::{EngineKind, SimConfig, DENSITY_THRESHOLD};
use crate::state::StateVector;
use crate::template::CircuitTemplate;
use choco_mathkit::{strict_majority, Complex64, GuideTable};
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
    /// Shape lookups served from a cached entry: one per template
    /// resolution (once per optimizer loop, whatever its evaluation
    /// count) plus one per [`SimWorkspace::run`] or
    /// [`SimWorkspace::run_batch`] of a circuit.
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

/// The serial state a workspace holds between runs.
enum Held {
    Dense(StateVector),
    /// A one-lane buffer.
    Compact(CompactStateVector),
}

impl Held {
    fn view(&self) -> SimEngine<'_> {
        match self {
            Held::Dense(s) => SimEngine::Dense(s),
            Held::Compact(c) => c.lane(0),
        }
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
    engine: Option<Held>,
    diag_cache: Vec<CachedDiag>,
    /// Compiled gate plans (and refusal markers), keyed by circuit shape
    /// ([`crate::EngineKind::Compact`] only). Shareable: workspaces built
    /// with [`SimWorkspace::with_plan_cache`] compile each shape once
    /// between them.
    plans: Arc<PlanCache>,
    cumulative: Vec<f64>,
    /// The guide over `cumulative`.
    guide: GuideTable,
    /// Monotone run counter; `cumulative_for` marks which run (if any) the
    /// sampling table was built from.
    run_stamp: u64,
    cumulative_for: u64,
    reallocations: u64,
    /// The lane buffer for batched compact replay
    /// ([`SimWorkspace::run_batch`]), kept apart from the serial state
    /// and reused across iterations.
    batch: CompactStateVector,
    /// Lane-parameter buffers of the compact replay, shared by
    /// [`SimWorkspace::run`] (one lane) and [`SimWorkspace::run_batch`].
    scratch: BatchScratch,
    /// How the last template batch shares its candidates' prefix.
    prefix: SharedPrefix,
    /// Lane circuits of the template with id `bound_id` (0: none), and
    /// the plan or refusal it resolved to on its first compact run.
    bound: Vec<Circuit>,
    bound_id: u64,
    resolved: Option<Result<Arc<GatePlan>, usize>>,
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
            guide: GuideTable::default(),
            run_stamp: 0,
            cumulative_for: u64::MAX,
            reallocations: 0,
            batch: CompactStateVector::default(),
            scratch: BatchScratch::default(),
            prefix: SharedPrefix::default(),
            bound: Vec::new(),
            bound_id: 0,
            resolved: None,
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
    /// returns a view of the resulting state (it stays inside the
    /// workspace for sampling / expectation calls).
    ///
    /// # Panics
    ///
    /// Panics when a compact shape refuses its plan on a register wider
    /// than [`MAX_DENSIFY_QUBITS`], where no dense fallback fits.
    pub fn run(&mut self, circuit: &Circuit) -> SimEngine<'_> {
        let plan = self.plan_for(circuit);
        self.execute(plan, circuit, |_| {})
            .unwrap_or_else(|e| panic!("{e}"));
        self.state().expect("a run leaves a state")
    }

    /// The Figure 9(b) "parallelism" profile of `circuit`: how many basis
    /// states hold probability above `eps` before the first gate and
    /// after every gate. It walks the same run as [`SimWorkspace::run`]:
    /// a one-lane plan replay on the compact engine, whose count scans the
    /// plan's ranks and never a `2^n` buffer, and the dense engine gate by
    /// gate otherwise. The engines' amplitudes are bit-identical, so their
    /// counts are too. The final state stays in the workspace.
    ///
    /// # Errors
    ///
    /// Errs, running nothing, when a compact shape refuses its plan on a
    /// register wider than [`MAX_DENSIFY_QUBITS`].
    pub fn support_profile(&mut self, circuit: &Circuit, eps: f64) -> Result<Vec<usize>, String> {
        let plan = self.plan_for(circuit);
        let mut profile = Vec::with_capacity(circuit.len() + 1);
        let count = |amps: &[Complex64]| amps.iter().filter(|a| a.norm_sqr() > eps).count();
        self.execute(plan, circuit, |amps| profile.push(count(amps)))?;
        Ok(profile)
    }

    /// The compact engine's plan (or refusal) for `circuit`'s shape, from
    /// the cache; `None` on the dense engine.
    fn plan_for(&self, circuit: &Circuit) -> Option<Result<Arc<GatePlan>, usize>> {
        (self.config.engine == EngineKind::Compact).then(|| {
            let cap = plan_support_cap(circuit.n_qubits());
            self.plans.lookup_or_compile(circuit, cap)
        })
    }

    /// [`SimWorkspace::run`] of `template.bind(params)`, bound into a
    /// reused circuit. The plan (or refusal) is resolved on the
    /// template's first compact run and kept, so later runs skip the
    /// cache lookup and shape match and allocate nothing.
    pub fn run_template(&mut self, template: &CircuitTemplate, params: &[f64]) -> SimEngine<'_> {
        self.bind(template, std::iter::once(params));
        let plan = (self.config.engine == EngineKind::Compact).then(|| self.resolve());
        let bound = std::mem::take(&mut self.bound);
        let ran = self.execute(plan, &bound[0], |_| {});
        self.bound = bound;
        ran.unwrap_or_else(|e| panic!("{e}"));
        self.state().expect("a run leaves a state")
    }

    /// Replays `template` at the first candidates of `xs` in one plan
    /// pass: as many as fit [`BATCH_BUFFER_BYTES`], at most
    /// [`MAX_BATCH_LANES`] lanes (the result's `lanes()` counts
    /// candidates). Lane `i` reads exactly what `run_template` of `xs[i]`
    /// would. `None` when batching does not apply: a dense engine, no
    /// candidates, a refused shape, or a plan too wide for two lanes. The
    /// serial state is untouched.
    ///
    /// Lanes share a prefix. Each parameter's strict-majority value (an
    /// optimizer's simplex or rebuild centre) makes the reference, which
    /// leads: as the candidate equal to it, else as an extra lane when a
    /// candidate shares a prefix with it. The others join at their first
    /// changed slot with the lead's amplitudes ([`GatePlan::execute`]).
    pub fn run_template_batch<P: AsRef<[f64]>>(
        &mut self,
        template: &CircuitTemplate,
        xs: &[P],
    ) -> Option<&CompactStateVector> {
        if xs.is_empty() || self.config.engine != EngineKind::Compact {
            return None;
        }
        self.bind(template, std::iter::once(xs[0].as_ref()));
        let plan = self.resolve().ok()?;
        let lanes = BATCH_BUFFER_BYTES / (plan.basis().bits.len() * 16).max(1);
        if lanes < 2 {
            return None;
        }
        let mut prefix = std::mem::take(&mut self.prefix);
        let taken = prefix.arrange(template, xs, lanes.min(MAX_BATCH_LANES));
        let chunk = &xs[..taken];
        let lane_x = |&(_, c): &(usize, Option<usize>)| {
            c.map_or(&prefix.reference[..], |c| chunk[c].as_ref())
        };
        self.bind(template, prefix.lanes.iter().map(lane_x));
        let bound = &self.bound[..prefix.lanes.len()];
        let (scratch, config) = (&mut self.scratch, &self.config);
        self.batch
            .replay(&plan, bound, &prefix.starts, scratch, config, |_| {});
        self.batch.order.clone_from(&prefix.order);
        self.prefix = prefix;
        Some(&self.batch)
    }

    /// Binds `xs` into the lane circuits, cloned once per template.
    fn bind<'x>(&mut self, t: &CircuitTemplate, xs: impl ExactSizeIterator<Item = &'x [f64]>) {
        if self.bound_id != t.id {
            self.bound.clear();
            self.bound_id = t.id;
            self.resolved = None;
        }
        while self.bound.len() < xs.len() {
            self.bound.push(t.circuit().clone());
        }
        for (circuit, x) in self.bound.iter_mut().zip(xs) {
            t.bind_into(x, circuit);
        }
    }

    /// The bound template's plan or refusal, resolved through the cache
    /// from lane 0 on the first call after a template change.
    fn resolve(&mut self) -> Result<Arc<GatePlan>, usize> {
        let (plans, c) = (&self.plans, &self.bound[0]);
        let cap = plan_support_cap(c.n_qubits());
        let found = self
            .resolved
            .get_or_insert_with(|| plans.lookup_or_compile(c, cap));
        found.clone()
    }

    /// Runs `circuit` on its plan, or dense (no plan asked, or refused);
    /// `on_step` sees the amplitudes before the first gate and after
    /// each. Errs, running nothing, when a refused shape is too wide to
    /// run dense.
    fn execute(
        &mut self,
        plan: Option<Result<Arc<GatePlan>, usize>>,
        circuit: &Circuit,
        on_step: impl FnMut(&[Complex64]),
    ) -> Result<(), String> {
        if let Some(Err(support)) = plan {
            let n = circuit.n_qubits();
            check_dense_fallback(n, support, plan_support_cap(n))?;
        }
        self.run_stamp += 1;
        match plan {
            Some(Ok(plan)) => self.run_compact(&plan, circuit, on_step),
            _ => self.run_dense(circuit, on_step),
        }
        Ok(())
    }

    /// The dense path: reset the `2^n` buffer in place (allocating it on
    /// a width or representation change) and apply the gates, reading
    /// diagonals from the per-`Arc` cache.
    fn run_dense(&mut self, circuit: &Circuit, mut on_step: impl FnMut(&[Complex64])) {
        let n_qubits = circuit.n_qubits();
        if !matches!(&self.engine, Some(Held::Dense(s)) if s.n_qubits() == n_qubits) {
            if self.state().map(SimEngine::n_qubits) != Some(n_qubits) {
                // Cached diagonals are per-width; drop stale ones.
                self.diag_cache.clear();
            }
            self.engine = Some(Held::Dense(StateVector::new_with(n_qubits, self.config)));
            self.reallocations += 1;
        }
        let Some(Held::Dense(state)) = &mut self.engine else {
            unreachable!("engine set to dense above");
        };
        state.reset_zero();
        on_step(state.amplitudes());
        for gate in circuit.iter() {
            match gate {
                Gate::DiagPhase(poly, theta) => {
                    let values = cached_diag(&mut self.diag_cache, poly, n_qubits);
                    state.apply_diag_values(values, *theta);
                }
                g => state.apply_gate(g),
            }
            on_step(state.amplitudes());
        }
    }

    /// The state left by the last [`SimWorkspace::run`], if any.
    pub fn state(&self) -> Option<SimEngine<'_>> {
        self.engine.as_ref().map(Held::view)
    }

    /// Samples from the last run's state, building the cumulative table
    /// and its guide at most once per run (repeat calls reuse them).
    ///
    /// # Panics
    ///
    /// Panics if nothing has been run yet.
    pub fn sample<R: Rng>(&mut self, shots: u64, rng: &mut R) -> Counts {
        let held = self.engine.as_ref().expect("run a circuit before sampling");
        let engine = held.view();
        if self.cumulative_for != self.run_stamp {
            engine.fill_cumulative(&mut self.cumulative);
            self.guide.build(&self.cumulative);
            self.cumulative_for = self.run_stamp;
        }
        engine.sample_guided(&self.cumulative, &mut self.guide, shots, rng)
    }

    /// Replays K same-shape circuits in one pass over the cached gate
    /// plan — the batched compact fast path (see [`crate::compact`]).
    /// Returns the K-lane state, or `None` when batching
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
    pub fn run_batch(&mut self, circuits: &[Circuit]) -> Option<&CompactStateVector> {
        if circuits.is_empty() || self.config.engine != EngineKind::Compact {
            return None;
        }
        let cap = plan_support_cap(circuits[0].n_qubits());
        let plan = self.plans.lookup_or_compile(&circuits[0], cap).ok()?;
        if !circuits.iter().all(|c| plan.shape().matches(c)) {
            return None;
        }
        let (scratch, config) = (&mut self.scratch, &self.config);
        self.batch
            .replay(&plan, circuits, &[], scratch, config, |_| {});
        Some(&self.batch)
    }

    /// How many times the batched lane buffer had to grow (see
    /// [`CompactStateVector::reallocations`]); 0 before the first
    /// [`SimWorkspace::run_batch`].
    pub fn batch_reallocations(&self) -> u64 {
        self.batch.reallocations()
    }

    /// The compact fast path: replay the shape's gate plan into the
    /// (reused) rank-indexed amplitude array — a one-lane batch, through
    /// the same lane kernels as [`SimWorkspace::run_batch`].
    fn run_compact(
        &mut self,
        plan: &GatePlan,
        circuit: &Circuit,
        on_step: impl FnMut(&[Complex64]),
    ) {
        let n_qubits = circuit.n_qubits();
        if !matches!(&self.engine, Some(Held::Compact(c)) if c.n_qubits() == n_qubits) {
            self.engine = Some(Held::Compact(CompactStateVector::default()));
            self.reallocations += 1;
        }
        let Some(Held::Compact(state)) = &mut self.engine else {
            unreachable!("engine set to compact above");
        };
        let circuits = std::slice::from_ref(circuit);
        let (scratch, config) = (&mut self.scratch, &self.config);
        state.replay(plan, circuits, &[], scratch, config, on_step);
    }
}

/// A template batch's layout: the reference, each lane's `(step,
/// candidate)` (lead first; `None`: the reference), the steps alone, and
/// each candidate's lane. Buffers are kept across batches.
#[derive(Debug, Default)]
struct SharedPrefix {
    reference: Vec<f64>,
    lanes: Vec<(usize, Option<usize>)>,
    starts: Vec<usize>,
    order: Vec<usize>,
}

impl SharedPrefix {
    /// Lays out the lanes for the first candidates of `xs` that fit
    /// `cap` lanes and returns how many it took.
    fn arrange<P: AsRef<[f64]>>(&mut self, t: &CircuitTemplate, xs: &[P], cap: usize) -> usize {
        let chunk = &xs[..xs.len().min(cap)];
        let x = |c: usize| chunk[c].as_ref();
        let majority = |j: usize| {
            let bits = (0..chunk.len()).map(|c| x(c)[j].to_bits());
            strict_majority(bits).map_or(x(0)[j], f64::from_bits)
        };
        self.reference.clear();
        self.reference.extend((0..x(0).len()).map(majority));
        // A candidate that shares a prefix with the reference joins at the
        // gate of its first changed slot, after the last gate when it
        // changes none; the others replay from the top.
        let steps = t.circuit().len();
        let join = |c: usize| match t.first_change(x(c), &self.reference) {
            None => steps,
            Some((0, _)) => 0,
            Some((_, gate)) => gate,
        };
        self.lanes.clear();
        self.lanes
            .extend((0..chunk.len()).map(|c| (join(c), Some(c))));
        let lead = match self.lanes.iter().find(|j| j.0 == steps) {
            Some(&(_, c)) => c,
            None if self.lanes.iter().any(|j| j.0 > 0) => None,
            // Nothing shared: an ordinary batch.
            None => Some(0),
        };
        let taken = lead.map_or(chunk.len().min(cap - 1), |_| chunk.len());
        self.lanes.truncate(taken);
        self.lanes.retain(|j| j.1 != lead);
        self.lanes.sort_unstable();
        self.lanes.insert(0, (0, lead));
        self.starts.clear();
        self.starts.extend(self.lanes.iter().map(|j| j.0));
        self.order.clear();
        self.order.resize(taken, 0);
        for (lane, &(_, c)) in self.lanes.iter().enumerate() {
            if let Some(c) = c {
                self.order[c] = lane;
            }
        }
        taken
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
    use crate::template::CircuitTemplate;
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

    /// A draw of exactly zero records the first outcome of positive
    /// probability on both engines and on every sampling route, never
    /// `|0…0⟩` when it has probability zero.
    #[test]
    fn a_zero_draw_records_a_possible_outcome() {
        struct ZeroRng;
        impl Rng for ZeroRng {
            fn next_u64(&mut self) -> u64 {
                0
            }
        }
        let mut circuit = Circuit::new(3);
        circuit.load_bits(0b110).ry(0, 0.7);
        let want: Counts = [0b110; 5].into_iter().collect();
        for engine in [EngineKind::Dense, EngineKind::Compact] {
            let mut ws = SimWorkspace::new(SimConfig::serial().with_engine(engine));
            assert_eq!(ws.run(&circuit).sample(5, &mut ZeroRng), want, "{engine}");
            assert_eq!(ws.sample(5, &mut ZeroRng), want, "{engine} workspace");
        }
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
        let same = |what: &str, lane: usize, a: f64, b: f64| {
            assert_eq!(a.to_bits(), b.to_bits(), "lane={lane} {what}: {a} vs {b}");
        };
        for (lane, circuit) in circuits.iter().enumerate() {
            let got = batch.lane(lane);
            let state = serial_ws.run(circuit);
            assert!(got.is_compact() && state.is_compact());
            for bits in 0..16u64 {
                let (a, b) = (got.amplitude(bits), state.amplitude(bits));
                same("amplitude.re", lane, a.re, b.re);
                same("amplitude.im", lane, a.im, b.im);
                same(
                    "probability",
                    lane,
                    got.probability(bits),
                    state.probability(bits),
                );
            }
            assert_eq!(got.occupancy(), state.occupancy(), "lane={lane}");
            for eps in [0.0, 1e-3, 0.1] {
                assert_eq!(
                    got.support_size(eps),
                    state.support_size(eps),
                    "lane={lane}"
                );
            }
            same("norm_sqr", lane, got.norm_sqr(), state.norm_sqr());
            let reference = StateVector::run(circuit);
            same(
                "fidelity",
                lane,
                got.fidelity_against_dense(&reference),
                state.fidelity_against_dense(&reference),
            );
            same(
                "expectation_diag_values",
                lane,
                got.expectation_diag_values(&table),
                state.expectation_diag_values(&table),
            );
            same(
                "expectation_diag_poly",
                lane,
                got.expectation_diag_poly(&poly),
                state.expectation_diag_poly(&poly),
            );
            let cumulative = |engine: SimEngine<'_>| {
                let mut table = Vec::new();
                match engine {
                    SimEngine::Dense(s) => s.fill_cumulative(&mut table),
                    SimEngine::Compact(l) => l.fill_cumulative(&mut table),
                }
                table
            };
            let (ca, cb) = (cumulative(got), cumulative(state));
            let bits = |c: &[f64]| c.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&ca), bits(&cb), "lane={lane} cumulative table");
            let mut ra = StdRng::seed_from_u64(19);
            let mut rb = StdRng::seed_from_u64(19);
            assert_eq!(
                got.sample(2_000, &mut ra),
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
    fn template_batches_keep_the_lane_buffer_within_budget() {
        // `k` bound `ry`s on an `n`-qubit register: a plan of 2^k ranks.
        let spread = |n: usize, k: usize| {
            let mut t = CircuitTemplate::new(Circuit::new(n));
            for q in 0..k {
                t.push_slot(Gate::Ry(q, 0.0), 0, 1.0);
            }
            t
        };
        let xs = vec![vec![0.5]; 20];
        let mut ws = SimWorkspace::new(SimConfig::serial());
        let width = |ws: &mut SimWorkspace, t: &CircuitTemplate| {
            ws.run_template_batch(t, &xs).map(|b| b.lanes())
        };
        assert_eq!(width(&mut ws, &spread(4, 3)), Some(MAX_BATCH_LANES));
        assert_eq!(
            ws.run_template_batch(&spread(4, 3), &xs[..3])
                .map(|b| b.lanes()),
            Some(3)
        );
        // 2^15 ranks × 16 B is half the budget; 2^16 ranks fill it.
        assert_eq!(width(&mut ws, &spread(18, 15)), Some(2));
        assert_eq!(width(&mut ws, &spread(20, 16)), None);
        // Shapes that do not batch: a refused plan, the dense engine.
        assert_eq!(width(&mut ws, &spread(10, 10)), None);
        let mut dense_ws = SimWorkspace::new(dense());
        assert_eq!(width(&mut dense_ws, &spread(4, 3)), None);
    }

    /// [`confined_4q`] as a template over one parameter.
    fn confined_4q_template(poly: &Arc<PhasePoly>) -> CircuitTemplate {
        let mut base = Circuit::new(4);
        base.load_bits(0b0110);
        let mut t = CircuitTemplate::new(base);
        t.push_slot(Gate::DiagPhase(poly.clone(), 0.0), 0, 1.0);
        t.push(Gate::UBlock(crate::gate::UBlock::from_u_with_angle(
            &[1, -1, 1, -1],
            0.5,
        )));
        t.push_slot(
            Gate::UBlock(crate::gate::UBlock::from_u(&[0, 1, -1, 1])),
            0,
            1.0,
        );
        t
    }

    #[test]
    fn template_runs_match_bound_runs_and_resolve_once() {
        let poly = test_poly(4);
        let template = confined_4q_template(&poly);
        let thetas = [0.3, 1.1, -0.7, 0.0, 2.2];
        assert_eq!(template.bind(&[0.3]), confined_4q(&poly, 0.3));
        let config = SimConfig::serial().with_engine(EngineKind::Compact);
        let (mut by_template, mut by_circuit) =
            (SimWorkspace::new(config), SimWorkspace::new(config));
        for theta in thetas {
            let want: Vec<_> = {
                let e = by_circuit.run(&template.bind(&[theta]));
                (0..16u64).map(|b| e.amplitude(b)).collect()
            };
            let got = by_template.run_template(&template, &[theta]);
            for (bits, w) in want.iter().enumerate() {
                let a = got.amplitude(bits as u64);
                assert_eq!(
                    (a.re.to_bits(), a.im.to_bits()),
                    (w.re.to_bits(), w.im.to_bits())
                );
            }
        }
        let xs: Vec<Vec<f64>> = thetas.iter().map(|&t| vec![t]).collect();
        let batch = by_template.run_template_batch(&template, &xs).unwrap();
        for (lane, theta) in thetas.into_iter().enumerate() {
            let e = by_circuit.run(&template.bind(&[theta]));
            for bits in 0..16u64 {
                let (a, w) = (batch.lane(lane).amplitude(bits), e.amplitude(bits));
                assert_eq!(
                    (a.re.to_bits(), a.im.to_bits()),
                    (w.re.to_bits(), w.im.to_bits())
                );
            }
        }
        // One resolution (a compile) served every run and the batch.
        let stats = by_template.plan_cache().stats();
        assert_eq!((stats.compilations, stats.hits), (1, 0));
        assert_eq!(by_circuit.plan_cache().stats().hits, 9);
        // A rebuilt template of the same shape resolves with one hit.
        for theta in thetas {
            by_template.run_template(&confined_4q_template(&poly), &[theta]);
        }
        let stats = by_template.plan_cache().stats();
        assert_eq!((stats.compilations, stats.hits), (1, 5));
        assert_eq!(by_template.reallocations(), 1);
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
                        let want: Vec<_> = (0..16u64).map(|b| batch.lane(0).amplitude(b)).collect();
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

    #[test]
    fn hadamard_grows_support_on_demand() {
        // The support walk counts exact zeros out: H is its own inverse,
        // so the profile climbs and interferes back down on both engines.
        let mut c = Circuit::new(3);
        c.h(0).h(1).h(1).h(0);
        for engine in [EngineKind::Dense, EngineKind::Compact] {
            let mut ws = SimWorkspace::new(SimConfig::serial().with_engine(engine));
            let profile = ws.support_profile(&c, 1e-9).unwrap();
            assert_eq!(profile, vec![1, 2, 4, 2, 1], "{engine}");
            let p0 = ws.state().unwrap().probability(0);
            assert!((p0 - 1.0).abs() < 1e-12, "{engine}: {p0}");
        }
    }

    #[test]
    fn wide_register_beyond_dense_allocation_runs() {
        // 30 qubits: a dense buffer would be 2^30 × 16 B = 16 GiB. The
        // plan starts at the loaded |v⟩ pattern (even bits set), so it
        // ranks the block's two states, not the 2^15 subsets of the
        // loaded bits.
        let n = 30;
        let u: Vec<i8> = (0..n).map(|i| if i % 2 == 0 { 1 } else { -1 }).collect();
        let v_bits = (0..n)
            .filter(|i| i % 2 == 0)
            .fold(0u64, |m, i| m | (1 << i));
        let mut c = Circuit::new(n);
        c.load_bits(v_bits);
        c.ublock(crate::gate::UBlock::from_u_with_angle(&u, 0.7));
        let mut ws = SimWorkspace::new(SimConfig::serial());
        let state = ws.run(&c);
        assert!(state.is_compact());
        assert_eq!(state.occupancy(), 2);
        assert!((state.norm_sqr() - 1.0).abs() < 1e-12);
        assert!((state.probability(v_bits) - 0.7f64.cos().powi(2)).abs() < 1e-12);
        let batch = ws.run_batch(&[c.clone(), c.clone()]).unwrap();
        assert_eq!(batch.basis().len(), 2);
        let profile = ws.support_profile(&c, 1e-9).unwrap();
        assert_eq!(profile[..=n / 2], [1; 16]);
        assert_eq!(profile[n / 2 + 1], 2);
    }
}
