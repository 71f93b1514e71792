//! Execution configuration for the state-vector engines.

use std::num::NonZeroUsize;
use std::sync::OnceLock;

/// Which amplitude representation executes a circuit.
///
/// Choco-Q circuits never leave the feasible subspace (the commute
/// Hamiltonian's central property), so their state has `|F| ≪ 2^n`
/// occupied basis states. The sparse engine exploits that; the dense
/// strided engine is the general-purpose fallback.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EngineKind {
    /// The dense strided engine ([`crate::StateVector`]): `2^n`
    /// amplitudes, every gate enumerated over its `2^(n-k)` subspace.
    #[default]
    Dense,
    /// The feasible-subspace sparse engine
    /// ([`crate::SparseStateVector`]): only occupied basis states are
    /// stored and updated. Never converts back to dense — the caller has
    /// opted in, even for circuits that fill the register.
    Sparse,
    /// The rank-indexed compact engine ([`crate::CompactStateVector`]):
    /// [`crate::SimWorkspace`] enumerates the feasible subspace once per
    /// circuit shape, compiles a gate plan of precomputed rank tables,
    /// and replays it as flat-array loops on every optimizer iteration.
    /// Circuits that break subspace confinement fall back to the dense
    /// engine exactly like [`EngineKind::Auto`].
    Compact,
    /// Start sparse, densify automatically once the occupied fraction of
    /// the register crosses [`SimConfig::density_threshold`] (and the
    /// register is small enough to allocate densely).
    Auto,
}

impl EngineKind {
    /// Short label (`"dense"`, `"sparse"`, `"compact"`, `"auto"`).
    pub fn label(&self) -> &'static str {
        match self {
            EngineKind::Dense => "dense",
            EngineKind::Sparse => "sparse",
            EngineKind::Compact => "compact",
            EngineKind::Auto => "auto",
        }
    }

    /// Parses a label (case-insensitive, surrounding whitespace ignored).
    ///
    /// # Errors
    ///
    /// Returns a message listing the accepted values.
    pub fn parse(text: &str) -> Result<EngineKind, String> {
        match text.trim().to_ascii_lowercase().as_str() {
            "dense" => Ok(EngineKind::Dense),
            "sparse" => Ok(EngineKind::Sparse),
            "compact" => Ok(EngineKind::Compact),
            "auto" => Ok(EngineKind::Auto),
            _ => Err(format!(
                "unknown engine `{text}` (expected dense|sparse|compact|auto)"
            )),
        }
    }
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// How the state-vector kernels execute: engine selection, worker-thread
/// count, and the subspace size below which updates stay serial (thread
/// spawn overhead dwarfs the work on small states).
///
/// The default thread count comes from `CHOCO_SIM_THREADS` when set,
/// otherwise from [`std::thread::available_parallelism`].
///
/// # Examples
///
/// ```
/// use choco_qsim::{EngineKind, SimConfig};
///
/// let serial = SimConfig::serial();
/// assert_eq!(serial.threads, 1);
/// assert_eq!(serial.engine, EngineKind::Dense);
/// let sparse = SimConfig::serial().with_engine(EngineKind::Sparse);
/// assert_eq!(sparse.engine, EngineKind::Sparse);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimConfig {
    /// Maximum worker threads for amplitude updates (1 = serial).
    pub threads: usize,
    /// Minimum number of work items (subspace indices or pairs) before the
    /// update fans out to threads.
    pub parallel_threshold: usize,
    /// Which amplitude representation to run circuits on.
    pub engine: EngineKind,
    /// Occupied fraction of the register above which an [`EngineKind::Auto`]
    /// run converts from the sparse to the dense engine. Ignored by the
    /// other engine kinds.
    pub density_threshold: f64,
    /// How many candidate angle sets a compact replay evaluates per plan
    /// traversal (`1`, the default, replays candidates one at a time
    /// through the same lane kernels). Consumers with independent
    /// evaluations ready — a simplex construction, a geometry rebuild —
    /// hand up to this many circuits of one shape to
    /// [`crate::SimWorkspace::run_batch`] at once. Purely a performance
    /// knob: batched results are bit-identical to sequential replays at
    /// every setting.
    pub batch_size: usize,
}

/// Default threshold: below 2^15 items a scoped-thread fan-out costs more
/// than it saves on typical hardware.
pub const DEFAULT_PARALLEL_THRESHOLD: usize = 1 << 15;

/// Default auto-densify point: once an eighth of the register is occupied
/// the sorted-map overhead of the sparse engine outweighs the dense
/// engine's contiguous strides.
pub const DEFAULT_DENSITY_THRESHOLD: f64 = 0.125;

fn default_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        if let Ok(value) = std::env::var("CHOCO_SIM_THREADS") {
            if let Ok(n) = value.trim().parse::<usize>() {
                return n.max(1);
            }
        }
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    })
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            threads: default_threads(),
            parallel_threshold: DEFAULT_PARALLEL_THRESHOLD,
            engine: EngineKind::Dense,
            density_threshold: DEFAULT_DENSITY_THRESHOLD,
            batch_size: 1,
        }
    }
}

impl SimConfig {
    /// Strictly serial execution (dense engine).
    pub fn serial() -> Self {
        SimConfig {
            threads: 1,
            ..SimConfig::default()
        }
    }

    /// A configuration with an explicit thread count (0 means "default").
    pub fn with_threads(threads: usize) -> Self {
        SimConfig {
            threads: if threads == 0 {
                default_threads()
            } else {
                threads
            },
            ..SimConfig::default()
        }
    }

    /// The same configuration with a different engine selection.
    pub fn with_engine(self, engine: EngineKind) -> Self {
        SimConfig { engine, ..self }
    }

    /// The same configuration with a different batch size (0 is clamped
    /// to 1).
    pub fn with_batch(self, batch_size: usize) -> Self {
        SimConfig {
            batch_size: batch_size.max(1),
            ..self
        }
    }

    /// The worker count to use for `work_items` units of work: 1 below the
    /// threshold, otherwise capped so every worker gets at least a
    /// threshold's worth of items.
    pub fn effective_threads(&self, work_items: usize) -> usize {
        if self.threads <= 1 || work_items < self.parallel_threshold.max(2) {
            return 1;
        }
        let max_useful = work_items / self.parallel_threshold.max(1);
        self.threads.min(max_useful.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_never_fans_out() {
        let c = SimConfig::serial();
        assert_eq!(c.effective_threads(1 << 20), 1);
    }

    #[test]
    fn small_work_stays_serial() {
        let c = SimConfig {
            threads: 8,
            parallel_threshold: 1 << 10,
            ..SimConfig::default()
        };
        assert_eq!(c.effective_threads(512), 1);
        assert!(c.effective_threads(1 << 20) > 1);
    }

    #[test]
    fn workers_capped_by_work_per_thread() {
        let c = SimConfig {
            threads: 16,
            parallel_threshold: 1 << 10,
            ..SimConfig::default()
        };
        // 2^12 items / 2^10 threshold → at most 4 useful workers.
        assert_eq!(c.effective_threads(1 << 12), 4);
    }

    #[test]
    fn with_threads_zero_falls_back_to_default() {
        assert!(SimConfig::with_threads(0).threads >= 1);
        assert_eq!(SimConfig::with_threads(3).threads, 3);
    }

    #[test]
    fn default_engine_is_dense() {
        assert_eq!(SimConfig::default().engine, EngineKind::Dense);
        assert_eq!(SimConfig::serial().engine, EngineKind::Dense);
        assert!(SimConfig::default().density_threshold > 0.0);
    }

    #[test]
    fn engine_kind_parse_round_trips() {
        for kind in [
            EngineKind::Dense,
            EngineKind::Sparse,
            EngineKind::Compact,
            EngineKind::Auto,
        ] {
            assert_eq!(EngineKind::parse(kind.label()), Ok(kind));
            assert_eq!(format!("{kind}"), kind.label());
        }
        let err = EngineKind::parse("gpu").unwrap_err();
        assert!(
            err.contains("gpu") && err.contains("dense|sparse|compact|auto"),
            "{err}"
        );
    }

    #[test]
    fn engine_kind_parse_is_case_insensitive() {
        for (text, kind) in [
            ("Dense", EngineKind::Dense),
            ("SPARSE", EngineKind::Sparse),
            ("Compact", EngineKind::Compact),
            (" auto ", EngineKind::Auto),
            ("COMPACT", EngineKind::Compact),
        ] {
            assert_eq!(EngineKind::parse(text), Ok(kind), "{text}");
        }
    }

    #[test]
    fn with_engine_preserves_other_fields() {
        let c = SimConfig::with_threads(3).with_engine(EngineKind::Auto);
        assert_eq!(c.threads, 3);
        assert_eq!(c.engine, EngineKind::Auto);
    }

    #[test]
    fn batch_size_defaults_to_serial_and_clamps_zero() {
        assert_eq!(SimConfig::default().batch_size, 1);
        assert_eq!(SimConfig::serial().batch_size, 1);
        let c = SimConfig::serial().with_batch(8);
        assert_eq!(c.batch_size, 8);
        assert_eq!(c.threads, 1);
        assert_eq!(SimConfig::serial().with_batch(0).batch_size, 1);
        // Engine and batch builders compose in either order.
        let c = SimConfig::serial()
            .with_batch(4)
            .with_engine(EngineKind::Compact);
        assert_eq!((c.batch_size, c.engine), (4, EngineKind::Compact));
    }
}
