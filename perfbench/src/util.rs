//! Small helpers: order statistics, digests, process memory, run facts.

use std::path::Path;
use std::time::Duration;

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Minimum timed work per set-up sample, in seconds.
const SETUP_SAMPLE_SECS: f64 = 0.05;

/// Samples of the time one call of `setup` takes; `setup` returns the
/// time its own measured part took. A short set-up is repeated within
/// each sample until the sample holds at least `SETUP_SAMPLE_SECS` of
/// measured time, and the sample is the mean, so timer and scheduling
/// noise average out; the first call only sizes the samples. Callers
/// take samples at points spread over the run: the host's speed drifts
/// for seconds at a time, and samples taken in one burst see only one
/// moment of it.
pub struct SetupSampler<F> {
    setup: F,
    reps: usize,
    pub samples: Vec<f64>,
}

impl<F: FnMut() -> Result<f64, String>> SetupSampler<F> {
    pub fn new(mut setup: F) -> Result<Self, String> {
        let first = setup()?.max(1e-9);
        Ok(SetupSampler {
            setup,
            reps: ((SETUP_SAMPLE_SECS / first).ceil() as usize).clamp(1, 1000),
            samples: Vec::new(),
        })
    }

    /// Takes `n` samples.
    pub fn sample(&mut self, n: usize) -> Result<(), String> {
        for _ in 0..n {
            let mut total = 0.0;
            for _ in 0..self.reps {
                total += (self.setup)()?;
            }
            self.samples.push(total / self.reps as f64);
        }
        Ok(())
    }
}

/// Time of a fixed CPU-bound loop (2^24 SplitMix64 steps), in ms: a
/// yardstick of host speed printed next to the results, so runs on a
/// busy host can be told apart. It allocates nothing, so it leaves
/// `peak_rss_mb` alone.
pub fn calibration_ms() -> f64 {
    let t = std::time::Instant::now();
    let mut rng = crate::workloads::SplitMix64(std::hint::black_box(1));
    let mut acc = 0u64;
    for _ in 0..1u32 << 24 {
        acc ^= rng.next();
    }
    std::hint::black_box(acc);
    ms(t.elapsed())
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linearly interpolated quantile `q` in `[0, 1]`.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// FNV-1a over bytes (the same digest the runner uses for spec
/// fingerprints).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Pins this process to the first CPU it may run on and returns that
/// CPU, or `None` if the affinity calls fail. Threads spawned afterwards
/// inherit the mask, so the serve client and daemon threads share one
/// core: on a virtualized host a cross-CPU wake-up costs tens of µs and
/// which threads the scheduler happens to split would otherwise decide
/// the serve latencies.
pub fn pin_to_one_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    // A `cpu_set_t`: 1024 bits.
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of exactly `size` bytes, the
    // layout the kernel expects for a `cpu_set_t`; pid 0 is this thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..1024).find(|&bit| mask[bit / 64] & (1 << (bit % 64)) != 0)?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable `cpu_set_t`-sized buffer naming one CPU
    // that the current mask allows.
    (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(cpu)
}

/// Host parallelism as the standard library reports it.
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The checked-out commit, read from `.git` without spawning `git`;
/// `unknown` when the tree is not a git checkout.
pub fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(head) => head.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(hash) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return hash.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (hash, name) = line.split_once(' ')?;
                (name == reference).then(|| hash.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// FNV-1a over the paths and bytes of every file under the source
/// directories, in sorted order: identifies the measured code when the
/// checkout carries no git metadata.
pub fn source_digest() -> u64 {
    let mut files = Vec::new();
    for root in ["crates", "vendor", "src", "Cargo.toml", "Cargo.lock"] {
        collect_files(Path::new(root), &mut files);
    }
    files.sort();
    let mut bytes = Vec::new();
    for file in files {
        bytes.extend_from_slice(file.to_string_lossy().as_bytes());
        bytes.extend_from_slice(&std::fs::read(&file).unwrap_or_default());
    }
    fnv1a(&bytes)
}

fn collect_files(path: &Path, out: &mut Vec<std::path::PathBuf>) {
    if path.is_file() {
        out.push(path.to_path_buf());
    } else if let Ok(entries) = std::fs::read_dir(path) {
        for entry in entries.flatten() {
            collect_files(&entry.path(), out);
        }
    }
}

/// Appends `s` as a JSON string literal.
pub fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}
