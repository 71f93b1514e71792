//! Execution configuration for the state-vector engines.

use std::num::NonZeroUsize;
use std::sync::OnceLock;

/// Which amplitude representation executes a circuit.
///
/// Choco-Q circuits never leave the feasible subspace (the commute
/// Hamiltonian's central property), so their state has `|F| ≪ 2^n`
/// occupied basis states. The compact engine exploits that and runs
/// circuits that fill the register on the dense engine; the dense
/// strided engine is the general-purpose reference.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EngineKind {
    /// The dense strided engine ([`crate::StateVector`]): `2^n`
    /// amplitudes, every gate enumerated over its `2^(n-k)` subspace.
    Dense,
    /// The rank-indexed compact engine ([`crate::CompactStateVector`]):
    /// [`crate::SimWorkspace`] enumerates the feasible subspace once per
    /// circuit shape, compiles a gate plan of precomputed rank tables,
    /// and replays it as flat-array loops on every optimizer iteration.
    /// A shape whose structural support exceeds [`DENSITY_THRESHOLD`] of
    /// the register (penalty/HEA mixers) refuses its plan and runs on the
    /// dense engine, up to [`crate::MAX_DENSIFY_QUBITS`].
    #[default]
    Compact,
}

impl EngineKind {
    /// Short label (`"dense"`, `"compact"`).
    pub fn label(&self) -> &'static str {
        match self {
            EngineKind::Dense => "dense",
            EngineKind::Compact => "compact",
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
            "compact" => Ok(EngineKind::Compact),
            _ => Err(format!("unknown engine `{text}` (expected dense|compact)")),
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
/// assert_eq!(serial.engine, EngineKind::Compact);
/// let dense = SimConfig::serial().with_engine(EngineKind::Dense);
/// assert_eq!(dense.engine, EngineKind::Dense);
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
}

/// Default threshold: below 2^15 items a scoped-thread fan-out costs more
/// than it saves on typical hardware.
pub const DEFAULT_PARALLEL_THRESHOLD: usize = 1 << 15;

/// The compact engine's plan cap, as a fraction of the `2^n` register: a
/// circuit shape whose structural support exceeds it (floored at 64
/// entries) refuses plan compilation and runs on the dense engine, whose
/// contiguous strides win once the support is that large. A quarter keeps
/// every Choco-Q shape of the paper's benchmarks on its plan (the largest
/// feasible fractions, about 14%, sit at 9–10 qubits), while register-
/// filling penalty and HEA mixers refuse from 7 qubits up.
pub const DENSITY_THRESHOLD: f64 = 0.25;

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
            engine: EngineKind::default(),
        }
    }
}

impl SimConfig {
    /// Strictly serial execution (compact engine).
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
    fn default_engine_is_compact() {
        assert_eq!(SimConfig::default().engine, EngineKind::Compact);
        assert_eq!(SimConfig::serial().engine, EngineKind::Compact);
        assert_eq!(SimConfig::with_threads(2).engine, EngineKind::Compact);
    }

    #[test]
    fn engine_kind_parse_round_trips() {
        for kind in [EngineKind::Dense, EngineKind::Compact] {
            assert_eq!(EngineKind::parse(kind.label()), Ok(kind));
            assert_eq!(format!("{kind}"), kind.label());
        }
        // Unknown and retired selections name the accepted values.
        for text in ["gpu", "sparse", "auto"] {
            let err = EngineKind::parse(text).unwrap_err();
            assert!(
                err.contains(&format!("`{text}`")) && err.contains("dense|compact"),
                "{err}"
            );
        }
    }

    #[test]
    fn engine_kind_parse_is_case_insensitive() {
        for (text, kind) in [
            ("Dense", EngineKind::Dense),
            (" dense ", EngineKind::Dense),
            ("Compact", EngineKind::Compact),
            ("COMPACT", EngineKind::Compact),
        ] {
            assert_eq!(EngineKind::parse(text), Ok(kind), "{text}");
        }
    }

    #[test]
    fn with_engine_preserves_other_fields() {
        let c = SimConfig::with_threads(3).with_engine(EngineKind::Dense);
        assert_eq!(c.threads, 3);
        assert_eq!(c.engine, EngineKind::Dense);
    }
}
