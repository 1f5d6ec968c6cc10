//! Extension: bidirectional ABB over a die population, as in Tschanz et al.
//! (the paper's prior-art baseline, Tschanz et al. JSSC 2002). Slow dies get the paper's
//! *clustered FBB*; fast dies get uniform RBB up to their timing slack,
//! recovering leakage that the FBB-only flow leaves on the table — bounded
//! by the BTBT-limited optimum of §3.2.
//!
//! ```text
//! cargo run -p fbb-bench --release --bin abb_bidirectional [-- --design c3540 --dies 60]
//! ```

use fbb_bench::{prepare_design, Args};
use fbb_core::{TunedDie, TwoPassHeuristic};
use fbb_device::rbb::RbbModel;
use fbb_netlist::suite::PaperStats;
use fbb_variation::{CriticalPathSensor, ProcessVariation};

fn main() {
    let (name, dies): (&str, usize) = Args::parse_env(|a| {
        Ok((a.value("--design")?.map_or("c3540", |d: PaperStats| d.name), a.value("--dies")?.unwrap_or(60)))
    });

    let design = prepare_design(name);
    let tuned_die = TunedDie::new(&design.netlist, &design.placement, &design.characterization)
        .expect("placed suite design");
    let (graph, nominal) = (tuned_die.graph(), tuned_die.nominal_delays());
    let nominal_leak: f64 = design
        .netlist
        .gates()
        .iter()
        .map(|g| design.characterization.leakage_nw(g.cell, 0))
        .sum();
    let clock = graph.analyze(nominal).dcrit_ps();

    // A centred population: roughly half the dies are fast, half slow.
    let pv = ProcessVariation::typical_45nm();
    let sensor = CriticalPathSensor::default();
    let rbb = RbbModel::date09_45nm();

    let mut slow = 0usize;
    let mut rescued = 0usize;
    let mut fast = 0usize;
    let mut fbb_leak = 0.0f64;
    let mut rbb_leak = 0.0f64;
    let mut untouched_leak = 0.0f64;
    for die_idx in 0..dies {
        let die = pv.sample_placed(0xABB0 + die_idx as u64, &design.placement);
        let degraded = die.apply(nominal);
        let observed = graph.analyze(&degraded).dcrit_ps();
        if observed > clock {
            // Slow die: clustered FBB.
            slow += 1;
            let beta = sensor.measure_beta(clock, observed).min(0.10);
            let pre = design.preprocess(beta, 3);
            if let Ok(sol) = TwoPassHeuristic::default().solve(&pre) {
                if tuned_die.judge(&degraded, clock, &sol.assignment).met() {
                    rescued += 1;
                }
                fbb_leak += sol.leakage_nw;
            } else {
                fbb_leak += nominal_leak; // beyond the envelope: ship at NBB
            }
        } else {
            // Fast die: uniform RBB inside the slack, capped at the
            // BTBT-limited optimum.
            fast += 1;
            let slack_fraction = clock / observed - 1.0;
            let within_slack = rbb.max_bias_within_slack(slack_fraction, 50);
            let optimal = rbb.optimal_bias(50);
            let v = within_slack.min(optimal);
            rbb_leak += nominal_leak * rbb.leakage_multiplier(v);
            untouched_leak += nominal_leak;
        }
    }

    println!("{name}: {dies} dies from a centred population, clock = nominal Dcrit");
    println!("  slow dies tuned with clustered FBB:   {slow} ({rescued} re-time within the clock)");
    println!("  fast dies reverse-biased:             {fast}");
    if slow > 0 {
        println!("  mean FBB-tuned leakage:  {:.1} nW/die", fbb_leak / slow as f64);
    }
    if fast > 0 {
        println!(
            "  fast-die leakage: {:.1} nW/die with RBB vs {:.1} nW/die without ({:.1}% recovered)",
            rbb_leak / fast as f64,
            untouched_leak / fast as f64,
            100.0 * (untouched_leak - rbb_leak) / untouched_leak
        );
    }
    println!(
        "\nRBB is capped at its BTBT optimum ({}): past it, reverse bias leaks MORE (paper section 3.2)",
        rbb.optimal_bias(50)
    );
}
