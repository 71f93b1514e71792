//! End-to-end and per-layer benchmark of the Choco-Q workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <choco_suite|serve_stream> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object with `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`); the line before it records the run facts, report
//! digests and, when traced, self time per span name. Traced runs write
//! their spans to `perfbench/out/`. See `perfbench/README.md`.

mod json;
mod layers;
mod runwl;
mod servewl;
mod trace;
mod util;
mod workloads;

use layers::{per_layer_metrics, Layers};
use std::path::Path;
use trace::Tracer;
use util::push_json_str;
use workloads::Workload;

/// Where runs write spans, journals and daemon state (inside the
/// checkout, ignored by git).
const OUT_DIR: &str = "perfbench/out";

/// The result of one run.
#[derive(Default)]
pub struct Outcome {
    problems: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
    info: Vec<(String, String)>,
}

impl Outcome {
    /// Records a failed output check.
    pub fn fail(&mut self, problem: String) {
        eprintln!("perfbench: check failed: {problem}");
        self.problems.push(problem);
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Adds a key to the facts line; `value` is raw JSON.
    pub fn info(&mut self, key: &str, value: String) {
        self.info.push((key.to_string(), value));
    }

    /// The quality metrics: share of attempts that succeeded, and the
    /// paper's success rate and ARG over ok cells.
    pub fn quality_metrics(&mut self, quality: &Quality) {
        let ok = 1.0 - self.failed as f64 / self.attempted.max(1) as f64;
        self.metric("ok_rate", ok, "ratio");
        self.metric(
            "success_rate_mean",
            quality.success_sum / quality.cells.max(1) as f64,
            "ratio",
        );
        self.metric(
            "arg_mean",
            quality.arg_sum / quality.cells.max(1) as f64,
            "ratio",
        );
    }

    /// Emits every per-layer metric from `layers` (0 where the workload
    /// bypasses the layer), writes the spans, and adds self times per
    /// span name to the facts line.
    pub fn traced(
        &mut self,
        workload: Workload,
        seed: u64,
        tracer: &Tracer,
        layers: Layers,
        out_dir: &Path,
    ) -> Result<(), String> {
        for (name, unit) in per_layer_metrics() {
            let value = layers.get(&name);
            self.metric(&name, value, unit);
        }
        let path = out_dir.join(format!("spans-{}-seed{seed}.jsonl", workload.name()));
        tracer.write_jsonl(&path)?;
        let mut self_ms = String::from("{");
        for (i, (name, value)) in tracer.self_times_ms().iter().enumerate() {
            if i > 0 {
                self_ms.push_str(", ");
            }
            push_json_str(&mut self_ms, name);
            self_ms.push_str(&format!(": {value}"));
        }
        self_ms.push('}');
        self.info("span_self_ms", self_ms);
        let mut file = String::new();
        push_json_str(&mut file, &path.display().to_string());
        self.info("spans_file", file);
        Ok(())
    }
}

/// Paper quality metrics accumulated over ok cells.
#[derive(Default)]
pub struct Quality {
    cells: u64,
    success_sum: f64,
    arg_sum: f64,
}

impl Quality {
    pub fn add(&mut self, success_rate: Option<f64>, arg: Option<f64>) {
        if let (Some(success), Some(arg)) = (success_rate, arg) {
            self.cells += 1;
            self.success_sum += success;
            self.arg_sum += arg;
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value)?),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds.is_finite() && seconds > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    let out_dir = Path::new(OUT_DIR);
    std::fs::create_dir_all(out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    match args.workload {
        Workload::ServeStream => servewl::run(args.seed, args.seconds, args.trace, out_dir),
        run_workload => runwl::run(run_workload, args.seed, args.seconds, args.trace, out_dir),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // Read before pinning: the affinity mask narrows what it reports.
    let host_parallelism = util::host_parallelism();
    let pinned_cpu = util::pin_to_one_cpu();
    let calibration_before = util::calibration_ms();
    let mut outcome = match run(&args) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    for (name, value, _) in &outcome.metrics {
        if !value.is_finite() {
            outcome
                .problems
                .push(format!("metric {name} is not finite"));
        }
    }

    let calibration_after = util::calibration_ms();

    let mut facts = String::from("{\"perfbench\": {\"workload\": ");
    push_json_str(&mut facts, args.workload.name());
    facts.push_str(&format!(
        ", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host_parallelism\": {host_parallelism}, \
         \"pinned_cpu\": {}, \"workers\": 1, \"commit\": ",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        pinned_cpu.map_or("null".to_string(), |cpu| cpu.to_string())
    ));
    push_json_str(&mut facts, &util::commit());
    facts.push_str(&format!(
        ", \"source_fnv1a\": \"{:016x}\", \"profile\": \"{}\", \
         \"calibration_ms\": [{calibration_before}, {calibration_after}]",
        util::source_digest(),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }
    ));
    for (key, value) in &outcome.info {
        facts.push_str(", ");
        push_json_str(&mut facts, key);
        facts.push_str(": ");
        facts.push_str(value);
    }
    facts.push_str(", \"check_failures\": [");
    for (i, problem) in outcome.problems.iter().enumerate() {
        if i > 0 {
            facts.push_str(", ");
        }
        push_json_str(&mut facts, problem);
    }
    facts.push_str("]}}");
    println!("{facts}");

    let mut result = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.problems.is_empty(),
        outcome.attempted.max(1),
        outcome.failed
    );
    for (i, (name, value, unit)) in outcome.metrics.iter().enumerate() {
        if i > 0 {
            result.push_str(", ");
        }
        let value = if value.is_finite() { *value } else { 0.0 };
        push_json_str(&mut result, name);
        result.push_str(&format!(": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
    }
    result.push_str("}}");
    println!("{result}");
}
