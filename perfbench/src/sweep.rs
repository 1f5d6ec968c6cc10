//! `sweep_200k`: the default `fbb sweep` grid β {3 %, 5 %} × C {2, 3} ×
//! P {6, 11} run warm by `run_sweep` over a composed 200k-gate design
//! tiled at 64 rows.

use std::time::Instant;

use fbb::core::{
    run_sweep, single_bb, FbbProblem, IlpAllocator, SweepCell, SweepGrid, SweepOptions, SweepStatus,
};
use fbb::device::{BiasLadder, BodyBiasModel, Characterization, Library};
use fbb::netlist::{compose, ComposeOptions, Netlist};
use fbb::placement::{tile, Placement};
use fbb::sta::TimingGraph;

use crate::oracle::{Die, Oracle};
use crate::report::{peak_rss_mb, Layers, Outcome};
use crate::{counters, stats, Config, LayerMetrics};

/// Gate target of the composed design.
pub const TARGET_GATES: usize = 200_000;
/// Rows of the tiled placement.
pub const ROWS: u32 = 64;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Expected cells, recorded at the seed by `--record`.
const EXPECTED: &str = include_str!("../expected/sweep_200k.tsv");

/// The default `fbb sweep` grid.
pub fn grid() -> SweepGrid {
    SweepGrid {
        betas: vec![0.03, 0.05],
        clusters: vec![2, 3],
        levels: vec![6, 11],
    }
}

struct Design {
    netlist: Netlist,
    placement: Placement,
    chara: Characterization,
    compose_s: f64,
    tile_ms: f64,
    characterize_ms: f64,
}

fn setup() -> Design {
    let t = Instant::now();
    let composed =
        compose("soc200k", &ComposeOptions::with_target(TARGET_GATES)).expect("palette composes");
    let compose_s = t.elapsed().as_secs_f64();
    let library = Library::date09_45nm();
    let t = Instant::now();
    let placement = tile(&composed.netlist, &library, ROWS).expect("composed design tiles");
    let tile_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let chara = library.characterize(
        &BodyBiasModel::date09_45nm(),
        &BiasLadder::date09().expect("ladder"),
    );
    let characterize_ms = t.elapsed().as_secs_f64() * 1e3;
    Design {
        netlist: composed.netlist,
        placement,
        chara,
        compose_s,
        tile_ms,
        characterize_ms,
    }
}

/// One warm grid: the cells and the time from the start of the grid to
/// each cell's arrival.
fn pass(d: &Design) -> (Vec<SweepCell>, Vec<f64>, f64, fbb::core::SweepReport) {
    let mut cells = Vec::new();
    let mut latencies_ms = Vec::new();
    let start = Instant::now();
    let mut last = start;
    let report = run_sweep(
        &d.netlist,
        &d.placement,
        &d.chara,
        &grid(),
        &SweepOptions::default(),
        |c| {
            cells.push(c.clone());
            latencies_ms.push(last.elapsed().as_secs_f64() * 1e3);
            last = Instant::now();
        },
    )
    .expect("the default grid sweeps");
    (cells, latencies_ms, start.elapsed().as_secs_f64(), report)
}

/// Runs the workload.
pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut design = None;
    for _ in 0..SETUPS {
        // Drop the previous set-up first, so peak RSS holds one design.
        drop(design.take());
        let t = Instant::now();
        design = Some(setup());
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let d = design.expect("at least one set-up");
    out.note(format!(
        "design: {} gates, {} rows; compose {:.3} s, tile {:.1} ms, characterize {:.3} ms",
        d.netlist.gate_count(),
        d.placement.row_count(),
        d.compose_s,
        d.tile_ms,
        d.characterize_ms
    ));

    // The benchmark's own reference: Dcrit and the single-voltage baseline
    // at every (β, P), outside every timed window.
    let mut oracle = Oracle::new(Die::new(&d.netlist, &d.placement, &d.chara));
    let g = grid();
    let mut reference = Vec::new();
    for &beta in &g.betas {
        let pre = FbbProblem::new(&d.netlist, &d.placement, &d.chara, beta, 3)
            .and_then(|p| p.preprocess())
            .expect("composed design pre-processes");
        for &p in &g.levels {
            let base = single_bb(&pre.restrict_levels(p).expect("level count in range"))
                .expect("compensable");
            reference.push((beta, p, pre.dcrit_ps, base.leakage_nw));
        }
    }
    let reference_of = |c: &SweepCell| {
        *reference
            .iter()
            .find(|r| r.0 == c.beta && r.1 == c.levels)
            .expect("every grid cell has a reference")
    };

    let expected: Vec<Vec<&str>> = EXPECTED
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| l.split('\t').collect())
        .collect();
    let mut pass_s = Vec::new();
    let mut traced_pass_s = Vec::new();
    let mut latencies_ms = Vec::new();
    let mut runs: Vec<(f64, counters::Delta)> = Vec::new();
    let mut first: Option<Vec<SweepCell>> = None;
    let mut savings = 0.0;
    for traced in crate::pass_schedule(cfg) {
        let before = counters::Delta::start(traced);
        let (cells, lat, wall, report) = pass(&d);
        let delta = before.finish();
        if traced {
            traced_pass_s.push(wall);
            let solve_ms: f64 = report
                .cells
                .iter()
                .map(|c| c.runtime.as_secs_f64() * 1e3)
                .sum();
            runs.push((solve_ms, delta));
        } else {
            pass_s.push(wall);
            latencies_ms.extend(lat);
        }
        savings = 0.0;
        for c in &cells {
            let label = format!("b{} C{} P{}", c.beta, c.clusters, c.levels);
            let (_, _, dcrit, base) = reference_of(c);
            out.attempted += 1;
            match &c.assignment {
                Some(a) => {
                    let v = oracle.verify(c.beta, dcrit, a);
                    if !v.ok() {
                        out.failed += 1;
                        if first.is_none() {
                            out.note(format!(
                                "oracle miss: {label}: tuned Dcrit {:.4} ps > {:.4} ps (+{:.4} ps)",
                                v.tuned_dcrit_ps,
                                v.target_ps,
                                v.excess_ps()
                            ));
                        }
                    }
                }
                None => {
                    out.failed += 1;
                    out.mismatch(format!("{label}: no assignment ({:?})", c.status));
                }
            }
            savings += (1.0 - c.leakage_nw / base) * 100.0 / cells.len() as f64;
            if cfg.record {
                println!(
                    "{}\t{}\t{}\t{:?}\t{:016x}",
                    c.beta,
                    c.clusters,
                    c.levels,
                    c.status,
                    c.leakage_nw.to_bits()
                );
                continue;
            }
            let e = expected.iter().find(|e| {
                e[0].parse::<f64>() == Ok(c.beta)
                    && e[1].parse::<usize>() == Ok(c.clusters)
                    && e[2].parse::<usize>() == Ok(c.levels)
            });
            match e {
                None => out.mismatch(format!("{label}: no recorded expectation")),
                Some(e) => {
                    let want = f64::from_bits(u64::from_str_radix(e[4], 16).expect("hex bits"));
                    let rel = (c.leakage_nw - want).abs() / want.abs().max(1e-300);
                    if format!("{:?}", c.status) != e[3] || rel > 1e-9 {
                        out.mismatch(format!(
                            "{label}: {:?} {} vs recorded {} {want}",
                            c.status, c.leakage_nw, e[3]
                        ));
                    }
                }
            }
        }
        if let Some(f) = &first {
            let same = f.len() == cells.len()
                && f.iter()
                    .zip(&cells)
                    .all(|(a, b)| a.leakage_nw.to_bits() == b.leakage_nw.to_bits());
            if !same {
                out.mismatch("a grid differs from the first grid of this run".to_owned());
            }
        } else {
            first = Some(cells);
        }
    }

    let pass_med = stats::median(&pass_s);
    let cells = first.expect("at least one grid");
    let proven = cells
        .iter()
        .filter(|c| c.status == SweepStatus::Optimal)
        .count();
    out.set("setup_s", stats::median(&setup_s), "s");
    out.set("pass_s", pass_med, "s");
    out.set("op_ms", pass_med / cells.len() as f64 * 1e3, "ms");
    out.set("op_tail_ms", stats::top_mean(&latencies_ms, 0.01), "ms");
    out.set("max_rate_per_s", cells.len() as f64 / pass_med, "1/s");
    out.set("savings_pct", savings, "%");
    out.set("verified_frac", 1.0 - out.fail_frac(), "ratio");
    out.set("peak_rss_mb", peak_rss_mb("self"), "MB");
    out.note(format!("sweep_grid_s: {} s", stats::summary(&pass_s)));
    out.note(format!(
        "cell latency: {} ms",
        stats::summary(&latencies_ms)
    ));
    out.note(format!("setup_s: {} s", stats::summary(&setup_s)));
    out.note(format!(
        "{} cells, {proven} proven optimal, {} B&B nodes per grid, mean ILP saving {savings:.4} % vs single_bb",
        cells.len(),
        cells.iter().map(|c| c.nodes).sum::<usize>()
    ));
    out.note(format!(
        "oracle: {} full STA runs, {:.1} ms",
        oracle.sta_runs,
        oracle.sta_s * 1e3
    ));

    if cfg.trace {
        let mut l = LayerMetrics::default();
        let med = |f: &dyn Fn(&(f64, counters::Delta)) -> f64| {
            stats::median(&runs.iter().map(f).collect::<Vec<_>>())
        };
        let traced_med = stats::median(&traced_pass_s);
        // The layers run_sweep reaches internally, timed by calling them
        // the way one warm grid does: one pre-process and STA per β, one
        // model build per (β, P).
        let mut side = Layers::new(true);
        for &beta in &g.betas {
            let problem =
                FbbProblem::new(&d.netlist, &d.placement, &d.chara, beta, 3).expect("valid β");
            let pre = side
                .span("core.preprocess_ms", || problem.preprocess())
                .expect("acyclic");
            let delays = problem.nominal_delays();
            let graph = TimingGraph::new(&d.netlist).expect("acyclic");
            let analysis = side.span("sta.analyze_ms", || graph.analyze(&delays));
            side.span("sta.path_set_ms", || analysis.critical_path_set());
            for &p in &g.levels {
                let restricted = pre.restrict_levels(p).expect("level count in range");
                side.span("core.ilp_build_ms", || {
                    IlpAllocator::default().build_model(&restricted)
                })
                .expect("model builds");
            }
        }
        for name in [
            "core.preprocess_ms",
            "sta.analyze_ms",
            "sta.path_set_ms",
            "core.ilp_build_ms",
        ] {
            l.set(name, side.ms(name));
        }
        l.set("lp.ilp_solve_ms", med(&|r| r.0));
        counters::lp_layers(&mut l, runs.iter().map(|r| &r.1));
        l.set(
            "lp.nodes_per_s",
            l.get("lp.bnb_nodes") / (l.get("lp.ilp_solve_ms") / 1e3),
        );
        l.set(
            "lp.budget_expired_cells",
            cells
                .iter()
                .filter(|c| matches!(c.status, SweepStatus::Feasible | SweepStatus::Unknown))
                .count() as f64,
        );
        l.set(
            "sweep.preprocess_count",
            med(&|r| r.1.get("core_sweep_preprocesses")),
        );
        l.set(
            "sweep.model_builds",
            med(&|r| r.1.get("core_sweep_model_builds")),
        );
        l.set("netlist.compose_s", d.compose_s);
        l.set("placement.tile_ms", d.tile_ms);
        l.set("device.characterize_ms", d.characterize_ms);
        l.set("verify.oracle_ms", oracle.sta_s * 1e3);
        let covered =
            l.get("core.preprocess_ms") + l.get("core.ilp_build_ms") + l.get("lp.ilp_solve_ms");
        l.set("trace.coverage_frac", covered / (traced_med * 1e3));
        l.set("trace.overhead_frac", (traced_med - pass_med) / pass_med);
        l.into_outcome(&mut out);
    }
    out
}
