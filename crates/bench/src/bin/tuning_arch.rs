//! Demonstrates the paper's **Fig. 2** tuning architecture: four circuit
//! blocks served by one central body-bias generator. Each block senses its
//! own slowdown (`Tc` flag), gets a clustered allocation, and receives at
//! most two bias voltages from the generator.
//!
//! ```text
//! cargo run -p fbb-bench --release --bin tuning_arch
//! ```

use fbb_bench::Args;
use fbb_core::tuning::{tune_blocks, tune_blocks_shared, BlockRequest};
use fbb_core::FbbProblem;
use fbb_device::{BiasLadder, BodyBiasModel, Library};
use fbb_netlist::generators;
use fbb_placement::{Placer, PlacerOptions};

fn main() {
    Args::parse_env(|_| Ok(()));
    let library = Library::date09_45nm();
    let chara = library.characterize(
        &BodyBiasModel::date09_45nm(),
        &BiasLadder::date09().expect("valid ladder"),
    );

    // Four blocks with different sensed slowdowns (e.g. a hot corner, an
    // aged block, a typical block, and a fast one with no violation).
    let specs: [(&str, f64, bool); 4] = [
        ("block1_hot", 0.08, true),
        ("block2_aged", 0.05, true),
        ("block3_typ", 0.03, true),
        ("block4_fast", 0.00, false),
    ];

    let mut requests = Vec::new();
    let mut netlists = Vec::new();
    for (i, &(name, _, _)) in specs.iter().enumerate() {
        let nl = generators::alu(name, 12 + 2 * i as u32).expect("valid generator");
        netlists.push(nl);
    }
    let placements: Vec<_> = netlists
        .iter()
        .map(|nl| {
            Placer::new(PlacerOptions::with_target_rows(8))
                .place(nl, &library)
                .expect("placeable")
        })
        .collect();
    for (i, &(name, beta, tc)) in specs.iter().enumerate() {
        let pre = FbbProblem::new(&netlists[i], &placements[i], &chara, beta, 3)
            .expect("valid parameters")
            .preprocess()
            .expect("acyclic");
        requests.push(BlockRequest { name: name.to_owned(), pre, tc_flag: tc });
    }

    println!("central body-bias generator: 50 mV resolution, 0..0.5 V\n");
    let tuned = tune_blocks(&requests).expect("all blocks compensable");
    for t in &tuned {
        let voltages: Vec<String> = t
            .bias_levels
            .iter()
            .map(|&l| chara.ladder().level(l).to_string())
            .collect();
        println!(
            "{:<12}  Tc={}  clusters={}  vbs={{{}}}  leakage={:.1} nW  timing {}",
            t.name,
            u8::from(!t.bias_levels.is_empty()),
            t.solution.clusters,
            voltages.join(", "),
            t.solution.leakage_nw,
            if t.solution.meets_timing { "met" } else { "VIOLATED" },
        );
    }
    println!("\n(blocks without a timing alarm stay at NBB and draw no extra leakage)");

    // Extension: the central generator usually has a fixed number of output
    // channels shared by the whole chip. Restrict it to two global voltages.
    let shared = tune_blocks_shared(&requests, 2).expect("all blocks compensable");
    let menu: Vec<String> =
        shared.global_levels.iter().map(|&l| chara.ladder().level(l).to_string()).collect();
    println!("\nshared generator with 2 channels: global menu {{{}}}", menu.join(", "));
    for t in &shared.blocks {
        let voltages: Vec<String> =
            t.bias_levels.iter().map(|&l| chara.ladder().level(l).to_string()).collect();
        println!(
            "{:<12}  vbs={{{}}}  leakage={:.1} nW  timing {}",
            t.name,
            voltages.join(", "),
            t.solution.leakage_nw,
            if t.solution.meets_timing { "met" } else { "VIOLATED" },
        );
    }
    let independent: f64 = tuned.iter().map(|t| t.solution.leakage_nw).sum();
    println!(
        "total leakage: {:.1} nW shared menu vs {:.1} nW per-block menus ({:+.1}% for sharing)",
        shared.total_leakage_nw,
        independent,
        100.0 * (shared.total_leakage_nw - independent) / independent
    );
}
