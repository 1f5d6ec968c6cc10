//! Extension experiment: Monte-Carlo parametric timing yield before and
//! after clustered-FBB compensation. This quantifies the paper's motivating
//! claim — FBB tuning "brings the slow dies back to within the range of
//! acceptable specs" — end to end: sample dies from a slow-corner process,
//! sense each die's β with a critical-path monitor, allocate row biases, and
//! re-check timing with the per-gate (not uniform!) degraded delays.
//!
//! ```text
//! cargo run -p fbb-bench --release --bin yield_mc [-- --design c3540 --dies 40]
//! ```

use fbb_bench::{prepare_design, Args};
use fbb_core::{TunedDie, TwoPassHeuristic};
use fbb_netlist::suite::PaperStats;
use fbb_variation::{CriticalPathSensor, ProcessVariation};

fn main() {
    let (name, dies, seed): (&str, usize, u64) = Args::parse_env(|a| {
        Ok((
            a.value("--design")?.map_or("c3540", |d: PaperStats| d.name),
            a.value("--dies")?.unwrap_or(40),
            a.value("--seed")?.unwrap_or(0xD1E5),
        ))
    });

    let design = prepare_design(name);
    let tuned_die = TunedDie::new(&design.netlist, &design.placement, &design.characterization)
        .expect("placed suite design");
    let (graph, nominal) = (tuned_die.graph(), tuned_die.nominal_delays());
    let clock = graph.analyze(nominal).dcrit_ps(); // sign off at the nominal Dcrit

    let pv = ProcessVariation::slow_corner_45nm();
    let sensor = CriticalPathSensor::default();

    let mut pass_raw = 0usize;
    let mut pass_comp = 0usize;
    let mut leak_comp = 0.0f64;
    let mut leak_single = 0.0f64;
    let mut uncompensable = 0usize;
    for die_idx in 0..dies {
        let die = pv.sample_placed(seed.wrapping_add(die_idx as u64), &design.placement);
        let degraded = die.apply(nominal);
        let observed = graph.analyze(&degraded).dcrit_ps();
        if observed <= clock {
            pass_raw += 1;
            pass_comp += 1;
            continue;
        }
        // Post-silicon calibration: sense beta, allocate, apply, re-check
        // against the *actual* per-gate degradation.
        let beta = sensor.measure_beta(clock, observed);
        let pre = design.preprocess(beta.min(0.12), 3);
        let (Ok(sol), Ok(baseline)) =
            (TwoPassHeuristic::default().solve(&pre), fbb_core::single_bb(&pre))
        else {
            uncompensable += 1;
            continue;
        };
        // True silicon check: speed up each gate by its row's bias level.
        if tuned_die.judge(&degraded, clock, &sol.assignment).met() {
            pass_comp += 1;
            leak_comp += sol.leakage_nw;
            leak_single += baseline.leakage_nw;
        }
    }

    println!("{name}: {dies} dies, slow-corner population, clock = nominal Dcrit");
    println!("  raw yield (no tuning):         {:5.1}%", 100.0 * pass_raw as f64 / dies as f64);
    println!("  yield with clustered FBB:      {:5.1}%", 100.0 * pass_comp as f64 / dies as f64);
    if uncompensable > 0 {
        println!("  dies beyond the FBB envelope:  {uncompensable}");
    }
    if leak_single > 0.0 {
        println!(
            "  tuning leakage, clustered vs block-level FBB: {:.1} vs {:.1} nW ({:.1}% saved)",
            leak_comp,
            leak_single,
            100.0 * (leak_single - leak_comp) / leak_single
        );
    }
}
