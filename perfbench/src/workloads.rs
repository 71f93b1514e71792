//! The workload generator: turns `--workload` and `--seed` into the spec
//! text and job lines the program receives. Nothing else about a
//! workload reaches the program.

/// The benchmark's workloads (see `perfbench/README.md` for why each
/// exists).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Choco-Q over the Table II and native-inequality classes, compact.
    ChocoSuite,
    /// Closed-loop stream of three-cell JSON jobs into one serve session.
    ServeStream,
}

impl Workload {
    pub fn parse(name: &str) -> Result<Workload, String> {
        match name {
            "choco_suite" => Ok(Workload::ChocoSuite),
            "serve_stream" => Ok(Workload::ServeStream),
            other => Err(format!(
                "unknown workload `{other}` (expected choco_suite or serve_stream)"
            )),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ChocoSuite => "choco_suite",
            Workload::ServeStream => "serve_stream",
        }
    }
}

/// The 12 Table II classes followed by the 8 native-inequality classes.
const SUITE_CLASSES: [&str; 20] = [
    "F1", "F2", "F3", "F4", "G1", "G2", "G3", "G4", "K1", "K2", "K3", "K4", "B1n", "B2n", "B3n",
    "B4n", "M1", "M2", "A1", "A2",
];

/// Spec text of a run workload. For `choco_suite` the workload seed
/// shuffles the order of the instance seeds 1–4 within each class: cell
/// seeds derive from cell coordinates, so every workload seed solves the
/// same 80 cells with the same results, in another execution and report
/// order. (Shuffling across classes would move the peak memory, which
/// depends on which cell follows the 128 MiB G4 cost tables.)
pub fn spec_text(workload: Workload, seed: u64) -> String {
    match workload {
        Workload::ChocoSuite => {
            let problems: Vec<String> = SUITE_CLASSES.iter().map(|c| format!("\"{c}\"")).collect();
            let seeds: Vec<String> = seed_order(seed).iter().map(u64::to_string).collect();
            format!(
                "name = \"choco_suite\"\n\
                 description = \"Choco-Q over the Table II and native-inequality classes\"\n\n\
                 [grid]\n\
                 problems = [{}]\n\
                 solvers = [\"choco-q\"]\n\
                 seeds = [{}]\n\
                 engine = \"compact\"\n",
                problems.join(", "),
                seeds.join(", ")
            )
        }
        Workload::ServeStream => unreachable!("serve_stream is a job stream, not a spec"),
    }
}

/// SplitMix64, the generator behind every seeded choice here.
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The instance seeds 1–4 in an order drawn from the workload seed.
pub fn seed_order(seed: u64) -> [u64; 4] {
    let mut seeds = [1, 2, 3, 4];
    let mut rng = SplitMix64(seed);
    for i in (1..seeds.len()).rev() {
        seeds.swap(i, (rng.next() % (i as u64 + 1)) as usize);
    }
    seeds
}

/// The instance seeds of `serve_stream`'s jobs: [`seed_order`], repeated.
/// A fixed cycle keeps each seed's share of the jobs exact, so the
/// latency mix does not move with the luck of the draw.
pub struct JobSeeds {
    order: [u64; 4],
    next: usize,
}

impl JobSeeds {
    pub fn new(seed: u64) -> Self {
        JobSeeds {
            order: seed_order(seed),
            next: 0,
        }
    }

    pub fn next_seed(&mut self) -> u64 {
        let seed = self.order[self.next % self.order.len()];
        self.next += 1;
        seed
    }
}

/// One `submit` request line: a three-cell Choco-Q job (F1, G1, K1) at
/// one instance seed, on the compact engine with the size-scaled paper
/// budgets. Every job shares the spec name, so jobs with the same
/// instance seed have byte-identical reports.
pub fn job_line(id: &str, instance_seed: u64) -> String {
    format!(
        "{{\"op\": \"submit\", \"id\": \"{id}\", \"job\": {{\"name\": \"serve_stream\", \
         \"problems\": [\"F1\", \"G1\", \"K1\"], \"solvers\": [\"choco-q\"], \"seeds\": [{instance_seed}], \
         \"engine\": \"compact\"}}}}\n"
    )
}
