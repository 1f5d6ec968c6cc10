//! Post-silicon process compensation, end to end (paper §3.1): sample a
//! slow-corner die, sense its slowdown with a critical-path monitor,
//! allocate clustered FBB, and verify the tuned die against the per-gate
//! (not uniform) degradation.
//!
//! ```text
//! cargo run --release --example process_compensation
//! ```

use fbb::core::{single_bb, FbbProblem, TunedDie, TwoPassHeuristic};
use fbb::device::{BiasLadder, BodyBiasModel, Library};
use fbb::netlist::generators;
use fbb::placement::{Placer, PlacerOptions};
use fbb::variation::{CriticalPathSensor, ProcessVariation};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let netlist = generators::alu("alu32", 32)?;
    let library = Library::date09_45nm();
    let characterization =
        library.characterize(&BodyBiasModel::date09_45nm(), &BiasLadder::date09()?);
    let placement =
        Placer::new(PlacerOptions::with_target_rows(15)).place(&netlist, &library)?;

    // Nominal timing sign-off, on the delay model the optimizer uses.
    let tuned_die = TunedDie::new(&netlist, &placement, &characterization)?;
    let (graph, nominal) = (tuned_die.graph(), tuned_die.nominal_delays());
    let clock_ps = graph.analyze(nominal).dcrit_ps();
    println!("nominal Dcrit (= clock): {clock_ps:.1} ps");

    // Fabricate a die from a slow-corner population.
    let variation = ProcessVariation::slow_corner_45nm();
    let die = variation.sample_placed(42, &placement);
    let degraded = die.apply(nominal);
    let observed = graph.analyze(&degraded).dcrit_ps();
    println!(
        "fabricated die: Dcrit = {observed:.1} ps ({:+.1}% vs nominal) — {}",
        100.0 * (observed / clock_ps - 1.0),
        if observed > clock_ps { "FAILS timing" } else { "meets timing" }
    );

    // The on-chip monitor measures beta (quantized, guard-banded).
    let sensor = CriticalPathSensor::default();
    let beta = sensor.measure_beta(clock_ps, observed);
    println!("sensor reads beta = {:.1}%", beta * 100.0);

    // Allocate clustered FBB for the sensed slowdown.
    let pre = FbbProblem::new(&netlist, &placement, &characterization, beta, 3)?.preprocess()?;
    let baseline = single_bb(&pre)?;
    let solution = TwoPassHeuristic::default().solve(&pre)?;
    println!(
        "allocation: {} clusters, leakage {:.1} nW ({:.1}% below block-level FBB)",
        solution.clusters,
        solution.leakage_nw,
        solution.savings_vs(&baseline)
    );

    // Apply the biases to the real (per-gate) degraded silicon and re-check.
    let verdict = tuned_die.judge(&degraded, clock_ps, &solution.assignment);
    println!(
        "tuned die: Dcrit = {:.1} ps — {}",
        verdict.tuned_dcrit_ps,
        if verdict.met() { "meets timing (rescued)" } else { "still violating" }
    );
    Ok(())
}
