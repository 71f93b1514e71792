//! Hardware-style execution: transpile a Choco-Q circuit to basic gates
//! with the paper's two clean ancillas (Lemma 2), then run it under the
//! calibrated noise models of the three IBM devices — the Figure 10 setup.
//!
//! Run with: `cargo run --release --example noisy_hardware`

use choco_q::core::CommuteDriver;
use choco_q::prelude::*;
use choco_q::qsim::{transpile, TranspileOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // K1-class partition problem (8 variables).
    let problem = instance("K1", 1);
    let optimum = solve_exact(&problem)?;
    let n = problem.n_vars();

    // Build the structured circuit at hand-tuned angles, then lower it.
    let driver = CommuteDriver::build(problem.constraints())?;
    let initial = problem.first_feasible().expect("feasible");
    let ordered = driver.ordered_terms(initial);
    let poly = Arc::new(problem.cost_poly());
    let params = ChocoQSolver::initial_params(1, ordered.len());
    let circuit = ChocoQSolver::build_circuit(&driver, &poly, &ordered, initial, 1, &params);

    let structured_depth = circuit.depth();
    let wide = circuit.widened(n + 2);
    let lowered = transpile(&wide, &TranspileOptions::with_ancillas(vec![n, n + 1]))?;
    println!(
        "structured depth {} → transpiled depth {} ({} basic gates)\n",
        structured_depth,
        lowered.depth(),
        lowered.len()
    );

    println!(
        "{:<16} {:>14} {:>18}",
        "device", "in-constraints", "vs noiseless"
    );
    let mut rng = StdRng::seed_from_u64(11);
    let clean = NoiseModel::ideal().sample_noisy(&lowered, 4000, 1, &mut rng);
    let clean_feasible = clean.mass_where(|bits| problem.is_feasible(bits & ((1 << n) - 1)));
    for device in Device::ALL {
        let model = device.model();
        let counts = model.noise().sample_noisy(&lowered, 4000, 40, &mut rng);
        // Mask out the two ancilla qubits before checking feasibility.
        let feasible = counts.mass_where(|bits| problem.is_feasible(bits & ((1 << n) - 1)));
        println!(
            "{:<16} {:>13.1}% {:>17.1}%",
            model.name,
            feasible * 100.0,
            100.0 * feasible / clean_feasible
        );
    }
    println!(
        "\n(noiseless in-constraints rate: {:.1}%; optimum value {})",
        clean_feasible * 100.0,
        optimum.value
    );
    Ok(())
}
