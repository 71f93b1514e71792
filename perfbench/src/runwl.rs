//! The run workload (`choco_suite`): one `execute` of the generated spec
//! plus its JSON report is one unit of work.

use crate::layers::{probe_unit, traced_unit, Layers};
use crate::trace::Tracer;
use crate::util::{fnv1a, median, peak_rss_mib, SetupSampler};
use crate::workloads::{spec_text, Workload};
use crate::{Outcome, Quality};
use choco_runner::{build_instances, execute, ExperimentSpec, Field, RunOptions, RunReport};
use std::collections::BTreeSet;
use std::path::Path;
use std::time::{Duration, Instant};

/// Units measured at least, whatever `--seconds` says.
const MIN_UNITS: usize = 5;
/// Set-up samples taken before the units and again after them; one more
/// follows every unit.
const SETUP_EDGE_SAMPLES: usize = 3;

/// Every workload's run configuration: one cell worker, serial simulator.
pub fn run_options() -> RunOptions {
    RunOptions {
        workers: 1,
        ..RunOptions::default()
    }
}

/// Checks one report: it parses, has no error records, and every Choco-Q
/// cell stays in the constraints. Adds its cells to `quality`.
fn check_report(report: &RunReport, json: &str, outcome: &mut Outcome, quality: &mut Quality) {
    if let Err(e) = crate::json::Json::parse(json) {
        outcome.fail(format!("report does not parse: {e}"));
    }
    let number = |field: Option<&Field>| match field {
        Some(Field::Float(x)) => Some(*x),
        Some(Field::UInt(n)) => Some(*n as f64),
        _ => None,
    };
    for record in &report.records {
        outcome.attempted += 1;
        let ok = matches!(record.get("status"), Some(Field::Str(s)) if s == "ok");
        if !ok {
            outcome.failed += 1;
            outcome.fail(format!(
                "cell {:?} ({:?}) is an error record: {:?}",
                record.get("index"),
                record.get("problem"),
                record.get("error")
            ));
            continue;
        }
        let choco = matches!(record.get("solver"), Some(Field::Str(s)) if s == "choco-q");
        let in_constraints = number(record.get("in_constraints_rate"));
        if choco && in_constraints != Some(1.0) {
            outcome.fail(format!(
                "a Choco-Q cell left the constraints: {in_constraints:?}"
            ));
        }
        quality.add(
            number(record.get("success_rate")),
            number(record.get("arg")),
        );
    }
}

/// Runs units until `budget` has passed (and at least `min` ran),
/// checking each report and calling `between` after each. Returns the
/// unit walls, the last report, and the peak RSS after the first unit.
fn measure_units(
    spec: &ExperimentSpec,
    budget: Duration,
    min: usize,
    outcome: &mut Outcome,
    quality: &mut Quality,
    digests: &mut BTreeSet<u64>,
    between: &mut dyn FnMut() -> Result<(), String>,
) -> Result<(Vec<f64>, RunReport, f64), String> {
    let opts = run_options();
    let started = Instant::now();
    let mut walls = Vec::new();
    let (mut last, mut first_peak) = (None, 0.0);
    while walls.len() < min || started.elapsed() < budget {
        let t = Instant::now();
        let report = execute(spec, &opts)?;
        let json = report.to_json();
        walls.push(t.elapsed().as_secs_f64());
        digests.insert(fnv1a(json.as_bytes()));
        check_report(&report, &json, outcome, quality);
        last = Some(report);
        if walls.len() == 1 {
            first_peak = peak_rss_mib();
        }
        between()?;
    }
    Ok((walls, last.expect("at least one unit ran"), first_peak))
}

pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: &Path,
) -> Result<Outcome, String> {
    let text = spec_text(workload, seed);
    let mut outcome = Outcome::default();
    let mut quality = Quality::default();
    let mut digests = BTreeSet::new();

    if !trace {
        let mut setup = SetupSampler::new(|| {
            let t = Instant::now();
            let spec = ExperimentSpec::parse_str(&text)?;
            std::hint::black_box(build_instances(&spec.expand_cells(false))?);
            Ok(t.elapsed().as_secs_f64())
        })?;
        // Set-up is sampled before, between and after the units, so its
        // median sees the host at the pace the units saw it.
        setup.sample(SETUP_EDGE_SAMPLES)?;
        let spec = ExperimentSpec::parse_str(&text)?;
        let budget = Duration::from_secs_f64(seconds);
        let (walls, _, peak) = measure_units(
            &spec,
            budget,
            MIN_UNITS,
            &mut outcome,
            &mut quality,
            &mut digests,
            &mut || setup.sample(1),
        )?;
        setup.sample(SETUP_EDGE_SAMPLES)?;
        let wall = median(&walls);
        outcome.metric("wall_s", wall, "s");
        outcome.metric("setup_s", median(&setup.samples), "s");
        // Every end-to-end metric is reported on every workload. A unit
        // here is one job whose records arrive with its report, so these
        // three restate `wall_s`; they are measured on `serve_stream`.
        outcome.metric("jobs_per_s", 1.0 / wall, "jobs/s");
        outcome.metric("job_p50_ms", wall * 1e3, "ms");
        outcome.metric("first_record_p50_ms", wall * 1e3, "ms");
        // Read after the first unit: later units reuse freed memory in a
        // timing-dependent pattern.
        outcome.metric("peak_rss_mb", peak, "MiB");
        outcome.quality_metrics(&quality);
        outcome.info("units", walls.len().to_string());
        outcome.info("unit_walls_s", format!("{walls:?}"));
        outcome.info("setup_samples_s", format!("{:?}", setup.samples));
    } else {
        // A warm-up unit gives the reference report; then untraced and
        // traced units alternate, so their ratio is the tracing overhead.
        let spec = ExperimentSpec::parse_str(&text)?;
        let (_, reference, _) = measure_units(
            &spec,
            Duration::ZERO,
            1,
            &mut outcome,
            &mut quality,
            &mut digests,
            &mut || Ok(()),
        )?;
        let opts = run_options();
        let mut tracer = Tracer::new();
        let mut sums = Layers::default();
        let started = Instant::now();
        let (mut walls, mut traced_ms, mut parts_ms, mut last) =
            (Vec::new(), Vec::new(), Vec::new(), None);
        while traced_ms.is_empty() || started.elapsed().as_secs_f64() < seconds {
            let (untraced, _, _) = measure_units(
                &spec,
                Duration::ZERO,
                1,
                &mut outcome,
                &mut quality,
                &mut digests,
                &mut || Ok(()),
            )?;
            walls.extend(untraced);
            let unit = traced_ms.len() as u64;
            match traced_unit(&text, &reference, &opts, &mut tracer, unit, &mut sums) {
                Ok(traced) => {
                    traced_ms.push(traced.wall_ms);
                    parts_ms.push(traced.parts_ms);
                    last = Some(traced);
                }
                Err(e) => {
                    outcome.fail(e);
                    break;
                }
            }
        }
        let mut layers = Layers::default();
        if let Some(unit) = &last {
            layers.merge_scaled(&sums, 1.0 / traced_ms.len() as f64);
            probe_unit(unit, &opts, &mut layers)?;
            let untraced_ms = median(&walls) * 1e3;
            layers.set("runner.overhead_ms", untraced_ms - median(&parts_ms));
            layers.set("trace.overhead_ratio", median(&traced_ms) / untraced_ms);
        }
        layers.set("trace.coverage", tracer.coverage());
        layers.set("trace.spans", tracer.spans.len() as f64);
        outcome.traced(workload, seed, &tracer, layers, out_dir)?;
        outcome.info(
            "units",
            format!(
                "{{\"untraced\": {}, \"traced\": {}}}",
                walls.len(),
                traced_ms.len()
            ),
        );
    }
    if digests.len() != 1 {
        outcome.fail(format!(
            "reports of one spec differ: {} distinct digests",
            digests.len()
        ));
    }
    let list: Vec<String> = digests.iter().map(|d| format!("\"{d:016x}\"")).collect();
    outcome.info("report_fnv1a", format!("[{}]", list.join(", ")));
    Ok(outcome)
}
