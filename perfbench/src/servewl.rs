//! The `serve_stream` workload: one in-process `serve` session over
//! pipes, driven by one closed-loop client that submits the next job only
//! after the previous one is `done`.

use crate::json::Json;
use crate::layers::{journal_append_us, probe_unit, traced_unit, Layers};
use crate::runwl::run_options;
use crate::trace::Tracer;
use crate::util::{fnv1a, median, ms, peak_rss_mib, quantile, SetupSampler};
use crate::workloads::{job_line, JobSeeds, Workload};
use crate::{Outcome, Quality};
use choco_runner::serve::serve;
use choco_runner::{execute, ExperimentSpec, ServeOptions};
use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, BufReader, Lines, PipeReader, PipeWriter, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Jobs measured at least, whatever `--seconds` says.
const MIN_JOBS: usize = 64;
/// Jobs run before measuring, so the state directory's file system and
/// the daemon's plan cache are past their cold start.
const WARMUP: Duration = Duration::from_secs(1);
/// Jobs per block, the unit `wall_s` times.
const BLOCK: usize = 32;
/// Share of the blocks, the fastest, whose jobs set the end-to-end
/// metrics. The host's speed swings up to 2x within a run, for seconds at
/// a time, and a 0.35 s block sees a swing whole; the fastest tenth is
/// where the program rather than the host sets the pace. Over six
/// 40-second runs the spread of the block-wall median was 41% and that of
/// its lower decile 19%.
const FAST_SHARE: f64 = 0.1;
/// Set-up samples taken before the jobs and again after them.
const SETUP_EDGE_SAMPLES: usize = 3;
/// Blocks between set-up samples taken during the jobs.
const SETUP_EVERY_BLOCKS: usize = 4;
/// Jobs whose report is re-derived with `execute` and compared byte for
/// byte: the first of each instance seed, then every `SAMPLE_EVERY`-th.
const SAMPLE_EVERY: usize = 257;
/// Journal measurement pairs per distinct job spec in a traced run.
const JOURNAL_PAIRS: usize = 5;
/// `execute` runs per distinct job spec whose median wall sets
/// `runner.overhead_ms`.
const EXECUTES: usize = 5;

/// The client end of a daemon session.
struct Client {
    requests: Option<PipeWriter>,
    events: Lines<BufReader<PipeReader>>,
}

impl Client {
    fn send(&mut self, line: &str) -> Result<(), String> {
        let requests = self.requests.as_mut().ok_or("request pipe closed")?;
        requests
            .write_all(line.as_bytes())
            .and_then(|()| requests.flush())
            .map_err(|e| format!("cannot write to the daemon: {e}"))
    }

    fn next_event(&mut self) -> Result<String, String> {
        match self.events.next() {
            Some(Ok(line)) => Ok(line),
            Some(Err(e)) => Err(format!("cannot read daemon events: {e}")),
            None => Err("the daemon closed its event stream".to_string()),
        }
    }

    /// Reads events until one of type `event` arrives.
    fn wait_for(&mut self, event: &str) -> Result<String, String> {
        let tag = format!("\"event\": \"{event}\"");
        loop {
            let line = self.next_event()?;
            if line.contains(&tag) {
                return Ok(line);
            }
        }
    }
}

/// Starts a daemon on `state_dir` (one worker), runs `f` against it,
/// then shuts it down and waits for it to exit.
fn with_daemon<R>(
    state_dir: &Path,
    f: impl FnOnce(&mut Client) -> Result<R, String>,
) -> Result<R, String> {
    let opts = ServeOptions {
        state_dir: state_dir.to_path_buf(),
        run: run_options(),
        ..ServeOptions::default()
    };
    let (req_read, req_write) = std::io::pipe().map_err(|e| format!("request pipe: {e}"))?;
    let (event_read, event_write) = std::io::pipe().map_err(|e| format!("event pipe: {e}"))?;
    std::thread::scope(|scope| {
        let opts = &opts;
        let daemon = scope.spawn(move || serve(opts, BufReader::new(req_read), event_write));
        let mut client = Client {
            requests: Some(req_write),
            events: BufReader::new(event_read).lines(),
        };
        let result = f(&mut client);
        let _ = client.send("{\"op\": \"shutdown\"}\n");
        client.requests = None;
        while let Some(Ok(_)) = client.events.next() {}
        let served = daemon
            .join()
            .map_err(|_| "the daemon thread panicked".to_string())?;
        served?;
        result
    })
}

/// Client-side event times of one job.
struct Job {
    id: String,
    seed: u64,
    submit: Instant,
    accepted: Instant,
    first_record: Instant,
    last_record: Instant,
    done: Instant,
    ok: bool,
}

fn run_job(client: &mut Client, id: String, seed: u64) -> Result<Job, String> {
    let submit = Instant::now();
    client.send(&job_line(&id, seed))?;
    let (mut accepted, mut first, mut last) = (None, None, None);
    loop {
        let line = client.next_event()?;
        let at = Instant::now();
        if line.contains("\"event\": \"accepted\"") {
            accepted = Some(at);
        } else if line.contains("\"event\": \"record\"") {
            first.get_or_insert(at);
            last = Some(at);
        } else if line.contains("\"event\": \"done\"")
            || line.contains("\"event\": \"rejected\"")
            || line.contains("\"event\": \"error\"")
        {
            let ok = line.contains("\"event\": \"done\"") && line.contains("\"errors\": 0,");
            if !ok {
                eprintln!("perfbench: job {id} failed: {line}");
            }
            return Ok(Job {
                id,
                seed,
                submit,
                accepted: accepted.unwrap_or(at),
                first_record: first.unwrap_or(at),
                last_record: last.unwrap_or(at),
                done: at,
                ok,
            });
        }
    }
}

/// Submits jobs one after another until `budget` has passed (and at least
/// `min` ran), calling `between` after each whole block of `BLOCK` jobs,
/// outside every block wall.
fn stream(
    client: &mut Client,
    seeds: &mut JobSeeds,
    next_id: &mut usize,
    budget: Duration,
    min: usize,
    between: &mut dyn FnMut() -> Result<(), String>,
) -> Result<Vec<Job>, String> {
    let started = Instant::now();
    let mut jobs = Vec::new();
    while jobs.len() < min || started.elapsed() < budget {
        let id = format!("j{next_id}");
        *next_id += 1;
        jobs.push(run_job(client, id, seeds.next_seed())?);
        if jobs.len() % BLOCK == 0 {
            between()?;
        }
    }
    Ok(jobs)
}

/// `health` event counters: plan compilations, plan-cache hits, journal
/// bytes.
fn health(client: &mut Client) -> Result<(f64, f64, f64), String> {
    client.send("{\"op\": \"health\"}\n")?;
    let event = Json::parse(&client.wait_for("health")?)?;
    let field = |name: &str| {
        event
            .get(name)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("health event lacks `{name}`"))
    };
    Ok((
        field("plan_compilations")?,
        field("plan_hits")?,
        field("journal_bytes")?,
    ))
}

fn secs(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64()
}

/// Wall time of each whole block of `BLOCK` consecutive jobs, in s.
fn block_walls(jobs: &[Job]) -> Vec<f64> {
    jobs.chunks_exact(BLOCK)
        .map(|b| secs(b[0].submit, b[BLOCK - 1].done))
        .collect()
}

/// Checks every job's report file and re-derives a sample of them with
/// `execute`. Returns, per instance seed, one job id (for the traced
/// pass's per-layer calls).
fn check_jobs(
    dir: &Path,
    jobs: &[Job],
    outcome: &mut Outcome,
    quality: &mut Quality,
) -> Result<BTreeMap<u64, String>, String> {
    let mut digests: BTreeMap<u64, BTreeSet<u64>> = BTreeMap::new();
    let mut first_of_seed: BTreeMap<u64, String> = BTreeMap::new();
    let mut sampled = 0usize;
    for (n, job) in jobs.iter().enumerate() {
        outcome.attempted += 1;
        if !job.ok {
            outcome.failed += 1;
            outcome.fail(format!("job {} was rejected or has error records", job.id));
            continue;
        }
        let path = dir.join(format!("{}.json", job.id));
        let bytes = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        digests
            .entry(job.seed)
            .or_default()
            .insert(fnv1a(bytes.as_bytes()));
        let report = match Json::parse(&bytes) {
            Ok(report) => report,
            Err(e) => {
                outcome.fail(format!("report {} does not parse: {e}", job.id));
                continue;
            }
        };
        for cell in report
            .get("cells")
            .and_then(Json::as_arr)
            .unwrap_or_default()
        {
            if cell.get("status").and_then(Json::as_str) != Some("ok") {
                outcome.fail(format!("job {} has an error record", job.id));
                continue;
            }
            let in_constraints = cell.get("in_constraints_rate").and_then(Json::as_f64);
            if in_constraints != Some(1.0) {
                outcome.fail(format!(
                    "job {} left the constraints: {in_constraints:?}",
                    job.id
                ));
            }
            quality.add(
                cell.get("success_rate").and_then(Json::as_f64),
                cell.get("arg").and_then(Json::as_f64),
            );
        }
        let first = !first_of_seed.contains_key(&job.seed);
        if first || n % SAMPLE_EVERY == 0 {
            let spec_path = dir.join(format!("{}.spec.toml", job.id));
            let text = std::fs::read_to_string(&spec_path)
                .map_err(|e| format!("cannot read {}: {e}", spec_path.display()))?;
            let direct = execute(&ExperimentSpec::parse_str(&text)?, &run_options())?.to_json();
            if direct != bytes {
                outcome.fail(format!(
                    "job {} report differs from `execute` of its spec",
                    job.id
                ));
            }
            sampled += 1;
            first_of_seed
                .entry(job.seed)
                .or_insert_with(|| job.id.clone());
        }
    }
    let mut listed = Vec::new();
    for (seed, set) in &digests {
        if set.len() != 1 {
            outcome.fail(format!(
                "jobs at instance seed {seed} have {} distinct reports",
                set.len()
            ));
        }
        let hex: Vec<String> = set.iter().map(|d| format!("\"{d:016x}\"")).collect();
        listed.push(format!("\"seed{seed}\": [{}]", hex.join(", ")));
    }
    outcome.info("report_fnv1a", format!("{{{}}}", listed.join(", ")));
    outcome.info("execute_checked_jobs", sampled.to_string());
    Ok(first_of_seed)
}

/// Per-layer calls on one job's spec, outside the traced wall time:
/// the traced pass over the spec, the per-shape probes, and the journal
/// cost. Returns the layers and the `execute` wall of the spec.
fn job_layers(dir: &Path, id: &str, out_dir: &Path) -> Result<Layers, String> {
    let text = std::fs::read_to_string(dir.join(format!("{id}.spec.toml")))
        .map_err(|e| format!("cannot read the spec of job {id}: {e}"))?;
    let spec = ExperimentSpec::parse_str(&text)?;
    let opts = run_options();
    let mut walls = Vec::with_capacity(EXECUTES);
    let mut reference = None;
    for _ in 0..EXECUTES {
        let t = Instant::now();
        reference = Some(execute(&spec, &opts)?);
        walls.push(ms(t.elapsed()));
    }
    let reference = reference.expect("EXECUTES is positive");
    let mut layers = Layers::default();
    let unit = traced_unit(&text, &reference, &opts, &mut Tracer::new(), 0, &mut layers)?;
    probe_unit(&unit, &opts, &mut layers)?;
    layers.set(
        "runner.journal_append_us",
        journal_append_us(&spec, &opts, out_dir, JOURNAL_PAIRS)?,
    );
    layers.set("runner.overhead_ms", median(&walls) - unit.parts_ms);
    Ok(layers)
}

fn fresh_dir(path: PathBuf) -> PathBuf {
    let _ = std::fs::remove_dir_all(&path);
    path
}

pub fn run(seed: u64, seconds: f64, trace: bool, out_dir: &Path) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let mut quality = Quality::default();
    let pid = std::process::id();
    let dir = fresh_dir(out_dir.join(format!("serve-{pid}")));
    let mut seeds = JobSeeds::new(seed);
    let mut next_id = 0usize;

    if !trace {
        // Set-up is a daemon start on an existing, empty state directory
        // (a restart): start → `ready`, shutdown untimed.
        let setup_dir = fresh_dir(out_dir.join(format!("serve-setup-{pid}")));
        std::fs::create_dir_all(&setup_dir)
            .map_err(|e| format!("cannot create {}: {e}", setup_dir.display()))?;
        let mut setup = SetupSampler::new(|| {
            let t = Instant::now();
            with_daemon(&setup_dir, |client| {
                client.wait_for("ready")?;
                Ok(t.elapsed().as_secs_f64())
            })
        })?;
        // Sampled before, between and after the blocks, so the median sees
        // the host at the pace the jobs saw it. The idle main daemon waits
        // on its request pipe meanwhile.
        setup.sample(SETUP_EDGE_SAMPLES)?;
        let budget = Duration::from_secs_f64(seconds);
        let mut blocks_done = 0usize;
        let (warmup, jobs) = with_daemon(&dir, |client| {
            client.wait_for("ready")?;
            let warmup = stream(client, &mut seeds, &mut next_id, WARMUP, 1, &mut || Ok(()))?;
            let jobs = stream(client, &mut seeds, &mut next_id, budget, MIN_JOBS, &mut || {
                blocks_done += 1;
                if blocks_done % SETUP_EVERY_BLOCKS == 0 {
                    setup.sample(1)?;
                }
                Ok(())
            })?;
            Ok((warmup, jobs))
        })?;
        setup.sample(SETUP_EDGE_SAMPLES)?;
        let setup_s = setup.samples;
        let _ = std::fs::remove_dir_all(&setup_dir);
        let blocks = block_walls(&jobs);
        let wall = quantile(&blocks, FAST_SHARE);
        let fast: Vec<&Job> = jobs
            .chunks_exact(BLOCK)
            .zip(&blocks)
            .filter(|&(_, &block)| block <= wall)
            .flat_map(|(block, _)| block)
            .collect();
        let latency: Vec<f64> = fast.iter().map(|j| secs(j.submit, j.done)).collect();
        let first: Vec<f64> = fast
            .iter()
            .map(|j| secs(j.submit, j.first_record))
            .collect();
        outcome.info("block_walls_s", format!("{blocks:?}"));
        outcome.info("setup_samples_s", format!("{setup_s:?}"));
        outcome.metric("wall_s", wall, "s");
        outcome.metric("setup_s", median(&setup_s), "s");
        outcome.metric("jobs_per_s", BLOCK as f64 / wall, "jobs/s");
        outcome.metric("job_p50_ms", median(&latency) * 1e3, "ms");
        outcome.metric("first_record_p50_ms", median(&first) * 1e3, "ms");
        outcome.metric("peak_rss_mb", peak_rss_mib(), "MiB");
        let measured = jobs.len();
        let all: Vec<Job> = warmup.into_iter().chain(jobs).collect();
        check_jobs(&dir, &all, &mut outcome, &mut quality)?;
        outcome.quality_metrics(&quality);
        outcome.info(
            "units",
            format!(
                "{{\"warmup\": {}, \"measured\": {measured}}}",
                all.len() - measured
            ),
        );
    } else {
        let half = Duration::from_secs_f64(seconds / 2.0);
        let mut tracer = Tracer::new();
        let (warmup, untraced, traced, before, after) = with_daemon(&dir, |client| {
            client.wait_for("ready")?;
            let warmup = stream(client, &mut seeds, &mut next_id, WARMUP, 1, &mut || Ok(()))?;
            let untraced = stream(
                client,
                &mut seeds,
                &mut next_id,
                half,
                MIN_JOBS,
                &mut || Ok(()),
            )?;
            let before = health(client)?;
            let started = Instant::now();
            let mut traced = Vec::new();
            while traced.len() < MIN_JOBS || started.elapsed() < half {
                let unit = next_id as u64;
                let id = format!("j{next_id}");
                next_id += 1;
                let job = run_job(client, id, seeds.next_seed())?;
                let root = tracer.record(None, "serve.job", unit, job.submit, job.done);
                for (name, from, to) in [
                    ("serve.admit", job.submit, job.accepted),
                    ("serve.queue_wait", job.accepted, job.first_record),
                    ("serve.cells", job.first_record, job.last_record),
                    ("serve.finalize", job.last_record, job.done),
                ] {
                    tracer.record(Some(root), name, unit, from, to);
                }
                traced.push(job);
            }
            let after = health(client)?;
            Ok((warmup, untraced, traced, before, after))
        })?;
        let rate = |jobs: &[Job]| BLOCK as f64 / quantile(&block_walls(jobs), FAST_SHARE);
        let n = traced.len() as f64;
        let gap_ms =
            |f: &dyn Fn(&Job) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>()) * 1e3;
        let mut layers = Layers::default();
        layers.set("serve.admit_ms", gap_ms(&|j| secs(j.submit, j.accepted)));
        layers.set(
            "serve.queue_wait_ms",
            gap_ms(&|j| secs(j.accepted, j.first_record)),
        );
        layers.set(
            "serve.finalize_ms",
            gap_ms(&|j| secs(j.last_record, j.done)),
        );
        let latency: Vec<f64> = traced.iter().map(|j| secs(j.submit, j.done)).collect();
        layers.set("serve.job_p90_ms", quantile(&latency, 0.9) * 1e3);
        let (compiles, hits) = (after.0 - before.0, after.1 - before.1);
        layers.set("serve.compiles_per_job", compiles / n);
        if compiles + hits > 0.0 {
            layers.set("serve.plan_cache_hit_ratio", hits / (compiles + hits));
        }
        layers.set("serve.journal_bytes_per_job", (after.2 - before.2) / n);
        layers.set("trace.overhead_ratio", rate(&untraced) / rate(&traced));
        layers.set("trace.coverage", tracer.coverage());
        layers.set("trace.spans", tracer.spans.len() as f64);

        let all: Vec<Job> = warmup.into_iter().chain(untraced).chain(traced).collect();
        let representatives = check_jobs(&dir, &all, &mut outcome, &mut quality)?;
        // Per-job layer costs: the mean over the distinct job specs.
        let share = 1.0 / representatives.len().max(1) as f64;
        for id in representatives.values() {
            layers.merge_scaled(&job_layers(&dir, id, out_dir)?, share);
        }
        outcome.traced(Workload::ServeStream, seed, &tracer, layers, out_dir)?;
        outcome.info("units", format!("{{\"jobs\": {}}}", all.len()));
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(outcome)
}
