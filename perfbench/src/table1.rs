//! `table1_ilp`: the paper's evaluation grid over the seven ILP-tractable
//! Table 1 designs × β {5 %, 10 %} × C {2, 3}. Each cell runs
//! pre-process → `single_bb` → two-pass heuristic → budgeted ILP.

use std::time::{Duration, Instant};

use fbb::bench::{prepare_design, PreparedDesign};
use fbb::core::{
    single_bb, ClusterSolution, FbbProblem, IlpAllocator, IlpOutcome, TwoPassHeuristic,
};
use fbb::netlist::suite;
use fbb::sta::TimingGraph;

use crate::oracle::{Die, Oracle};
use crate::report::{peak_rss_mb, Layers, Outcome};
use crate::{counters, stats, Config, SplitMix};

/// Slowdown coefficients of the grid.
pub const BETAS: [f64; 2] = [0.05, 0.10];
/// Cluster budgets of the grid.
pub const CLUSTERS: [usize; 2] = [2, 3];
/// Deterministic B&B node budget per ILP.
pub const NODE_BUDGET: usize = 500;
/// Wall budget per ILP: well above the slowest node-capped cell, so only
/// the stalled c6288 root LP reaches it.
pub const WALL_BUDGET: Duration = Duration::from_secs(8);
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;

/// Expected answers, recorded at the seed by `--record`.
const EXPECTED: &str = include_str!("../expected/table1.tsv");

/// One grid cell.
#[derive(Debug, Clone, Copy)]
struct Cell {
    design: usize,
    beta: f64,
    clusters: usize,
}

/// What one cell produced.
struct Answer {
    cell: Cell,
    single: ClusterSolution,
    heur: ClusterSolution,
    ilp: IlpOutcome,
    dcrit_ps: f64,
    latency_s: f64,
}

/// The recorded answer of one cell.
struct Expected {
    name: String,
    beta: f64,
    clusters: usize,
    single_bits: u64,
    heur_bits: u64,
    ilp_proven: bool,
    ilp_leakage: f64,
}

fn parse_expected() -> Vec<Expected> {
    EXPECTED
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| {
            let f: Vec<&str> = l.split('\t').collect();
            let bits = |s: &str| u64::from_str_radix(s, 16).expect("hex bits in expected table");
            Expected {
                name: f[0].to_owned(),
                beta: f[1].parse().expect("beta"),
                clusters: f[2].parse().expect("C"),
                single_bits: bits(f[3]),
                heur_bits: bits(f[4]),
                ilp_proven: f[5] == "proven",
                ilp_leakage: f64::from_bits(bits(f[6])),
            }
        })
        .collect()
}

fn setup() -> Vec<PreparedDesign> {
    suite::ilp_tractable_names()
        .iter()
        .map(|name| prepare_design(name))
        .collect()
}

/// Runs one pass over every cell in `order`.
fn pass(designs: &[PreparedDesign], order: &[Cell], layers: &mut Layers) -> (Vec<Answer>, f64) {
    let allocator = IlpAllocator {
        time_limit: Some(WALL_BUDGET),
        node_limit: Some(NODE_BUDGET),
        cold_start: false,
    };
    let start = Instant::now();
    let mut answers = Vec::with_capacity(order.len());
    for &cell in order {
        let t = Instant::now();
        let d = &designs[cell.design];
        let pre = layers.span("core.preprocess_ms", || {
            FbbProblem::new(
                &d.netlist,
                &d.placement,
                &d.characterization,
                cell.beta,
                cell.clusters,
            )
            .and_then(|p| p.preprocess())
        });
        let pre = pre.expect("Table 1 designs pre-process");
        let single = layers
            .span("core.single_bb_ms", || single_bb(&pre))
            .expect("compensable");
        let heur = layers
            .span("core.heuristic_ms", || {
                TwoPassHeuristic::default().solve(&pre)
            })
            .expect("compensable");
        let ilp = layers
            .span("lp.ilp_solve_ms", || allocator.solve(&pre))
            .expect("ILP runs");
        answers.push(Answer {
            cell,
            single,
            heur,
            ilp,
            dcrit_ps: pre.dcrit_ps,
            latency_s: t.elapsed().as_secs_f64(),
        });
    }
    (answers, start.elapsed().as_secs_f64())
}

/// Calls the layers that the pass reaches only inside other calls, so the
/// traced run can time them from outside: model build and full STA with
/// path-set extraction, once per cell as the pass does.
fn side_calls(designs: &[PreparedDesign], order: &[Cell], layers: &mut Layers) {
    for &cell in order {
        let d = &designs[cell.design];
        let problem = FbbProblem::new(
            &d.netlist,
            &d.placement,
            &d.characterization,
            cell.beta,
            cell.clusters,
        )
        .expect("valid cell");
        let pre = problem.preprocess().expect("acyclic");
        layers
            .span("core.ilp_build_ms", || {
                IlpAllocator::default().build_model(&pre)
            })
            .expect("model");
        let delays = problem.nominal_delays();
        let graph = TimingGraph::new(&d.netlist).expect("acyclic");
        let analysis = layers.span("sta.analyze_ms", || graph.analyze(&delays));
        layers.span("sta.path_set_ms", || analysis.critical_path_set());
    }
}

/// Runs the workload.
pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut designs = Vec::new();
    for _ in 0..SETUPS {
        // Drop the previous set-up first, so peak RSS holds one copy.
        designs.clear();
        let t = Instant::now();
        designs = setup();
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut oracles: Vec<Oracle> = designs
        .iter()
        .map(|d| Oracle::new(Die::new(&d.netlist, &d.placement, &d.characterization)))
        .collect();

    let mut cells = Vec::new();
    for design in 0..designs.len() {
        for beta in BETAS {
            for clusters in CLUSTERS {
                cells.push(Cell {
                    design,
                    beta,
                    clusters,
                });
            }
        }
    }
    SplitMix::new(cfg.seed).shuffle(&mut cells);

    let expected = parse_expected();
    let mut first: Option<Vec<Answer>> = None;
    let mut pass_s = Vec::new();
    let mut traced_pass_s = Vec::new();
    let mut latencies_ms = Vec::new();
    let mut layer_runs: Vec<(Layers, counters::Delta)> = Vec::new();
    for traced in crate::pass_schedule(cfg) {
        let mut layers = Layers::new(traced);
        let before = counters::Delta::start(traced);
        let (answers, wall) = pass(&designs, &cells, &mut layers);
        let delta = before.finish();
        if traced {
            traced_pass_s.push(wall);
            layer_runs.push((layers, delta));
        } else {
            pass_s.push(wall);
            latencies_ms.extend(answers.iter().map(|a| a.latency_s * 1e3));
        }
        check(
            &designs,
            &mut oracles,
            &expected,
            &answers,
            first.as_deref(),
            &mut out,
            cfg.record,
        );
        if first.is_none() {
            first = Some(answers);
        }
    }

    let answers = first.expect("at least one pass");
    let n = answers.len() as f64;
    let mean = |f: &dyn Fn(&Answer) -> f64| answers.iter().map(f).sum::<f64>() / n;
    let ilp_savings = mean(&|a| {
        a.ilp
            .solution
            .as_ref()
            .map_or(0.0, |s| s.savings_vs(&a.single))
    });
    let heur_savings = mean(&|a| a.heur.savings_vs(&a.single));
    let proven = answers.iter().filter(|a| a.ilp.proven_optimal).count();
    let nodes: usize = answers.iter().map(|a| a.ilp.nodes).sum();
    let pass_med = stats::median(&pass_s);

    out.set("setup_s", stats::median(&setup_s), "s");
    out.set("pass_s", pass_med, "s");
    out.set("op_ms", pass_med / n * 1e3, "ms");
    out.set("op_tail_ms", stats::top_mean(&latencies_ms, 0.01), "ms");
    out.set("max_rate_per_s", n / pass_med, "1/s");
    out.set("savings_pct", ilp_savings, "%");
    out.set("verified_frac", 1.0 - out.fail_frac(), "ratio");
    out.set("peak_rss_mb", peak_rss_mb("self"), "MB");

    out.note(format!("alloc_s: {} s", stats::summary(&pass_s)));
    out.note(format!(
        "cell latency: {} ms",
        stats::summary(&latencies_ms)
    ));
    out.note(format!("setup_s: {} s", stats::summary(&setup_s)));
    out.note(format!(
        "ilp_proven_frac {:.4} ({proven}/{}), ilp_savings_pct {ilp_savings:.4}, heur_savings_pct {heur_savings:.4}, bnb nodes per pass {nodes}",
        proven as f64 / n,
        answers.len()
    ));
    out.note(format!(
        "budgets: {NODE_BUDGET} nodes and {} s wall per ILP; capped cells: {}",
        WALL_BUDGET.as_secs_f64(),
        answers
            .iter()
            .filter(|a| !a.ilp.proven_optimal)
            .map(|a| format!(
                "{} b{} C{} ({} nodes, {:.2} s)",
                suite::ilp_tractable_names()[a.cell.design],
                a.cell.beta,
                a.cell.clusters,
                a.ilp.nodes,
                a.ilp.runtime.as_secs_f64()
            ))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    let oracle_s: f64 = oracles.iter().map(|o| o.sta_s).sum();
    let oracle_runs: u64 = oracles.iter().map(|o| o.sta_runs).sum();
    out.note(format!(
        "oracle: {oracle_runs} full STA runs, {:.1} ms",
        oracle_s * 1e3
    ));

    if cfg.trace {
        let mut l = crate::LayerMetrics::default();
        let traced_med = stats::median(&traced_pass_s);
        let med = |f: &dyn Fn(&(Layers, counters::Delta)) -> f64| {
            stats::median(&layer_runs.iter().map(f).collect::<Vec<_>>())
        };
        let mut side = Layers::new(true);
        side_calls(&designs, &cells, &mut side);
        for name in [
            "core.preprocess_ms",
            "core.single_bb_ms",
            "core.heuristic_ms",
            "lp.ilp_solve_ms",
        ] {
            l.set(name, med(&|r| r.0.ms(name)));
        }
        for name in ["core.ilp_build_ms", "sta.analyze_ms", "sta.path_set_ms"] {
            l.set(name, side.ms(name));
        }
        counters::lp_layers(&mut l, layer_runs.iter().map(|r| &r.1));
        l.set(
            "lp.nodes_per_s",
            l.get("lp.bnb_nodes") / (l.get("lp.ilp_solve_ms") / 1e3),
        );
        l.set(
            "lp.budget_expired_cells",
            answers.iter().filter(|a| !a.ilp.proven_optimal).count() as f64,
        );
        l.set("verify.oracle_ms", oracle_s * 1e3);
        let covered = [
            "core.preprocess_ms",
            "core.single_bb_ms",
            "core.heuristic_ms",
            "lp.ilp_solve_ms",
        ]
        .iter()
        .map(|n| l.get(n))
        .sum::<f64>();
        l.set("trace.coverage_frac", covered / (traced_med * 1e3));
        l.set("trace.overhead_frac", (traced_med - pass_med) / pass_med);
        l.into_outcome(&mut out);
    }
    out
}

/// Checks one pass's answers against the oracle, the recorded
/// expectations and the first pass of this run.
fn check(
    designs: &[PreparedDesign],
    oracles: &mut [Oracle],
    expected: &[Expected],
    answers: &[Answer],
    first: Option<&[Answer]>,
    out: &mut Outcome,
    record: bool,
) {
    for a in answers {
        let name = designs[a.cell.design].stats.name;
        let label = format!("{name} b{} C{}", a.cell.beta, a.cell.clusters);
        let oracle = &mut oracles[a.cell.design];
        let ilp = a.ilp.solution.as_ref();
        let mut judged = vec![("heuristic", &a.heur)];
        judged.extend(ilp.map(|s| ("ilp", s)));
        for (who, sol) in &judged {
            out.attempted += 1;
            let v = oracle.verify(a.cell.beta, a.dcrit_ps, &sol.assignment);
            if !v.ok() {
                out.failed += 1;
                if first.is_none() {
                    out.note(format!(
                        "oracle miss: {label} {who}: tuned Dcrit {:.4} ps > {:.4} ps (+{:.4} ps)",
                        v.tuned_dcrit_ps,
                        v.target_ps,
                        v.excess_ps()
                    ));
                }
            }
        }
        if ilp.is_none() {
            out.attempted += 1;
            out.failed += 1;
            out.mismatch(format!("{label}: ILP returned no solution"));
        }
        if record {
            let ilp = ilp.expect("every cell has an ILP answer");
            println!(
                "{name}\t{}\t{}\t{:016x}\t{:016x}\t{}\t{:016x}",
                a.cell.beta,
                a.cell.clusters,
                a.single.leakage_nw.to_bits(),
                a.heur.leakage_nw.to_bits(),
                if a.ilp.proven_optimal {
                    "proven"
                } else {
                    "capped"
                },
                ilp.leakage_nw.to_bits()
            );
            continue;
        }
        let Some(e) = expected
            .iter()
            .find(|e| e.name == name && e.beta == a.cell.beta && e.clusters == a.cell.clusters)
        else {
            out.mismatch(format!("{label}: no recorded expectation"));
            continue;
        };
        if a.single.leakage_nw.to_bits() != e.single_bits {
            out.mismatch(format!(
                "{label}: single_bb leakage {} differs",
                a.single.leakage_nw
            ));
        }
        if a.heur.leakage_nw.to_bits() != e.heur_bits {
            out.mismatch(format!(
                "{label}: heuristic leakage {} differs",
                a.heur.leakage_nw
            ));
        }
        if let Some(sol) = ilp {
            if e.ilp_proven {
                let rel = (sol.leakage_nw - e.ilp_leakage).abs() / e.ilp_leakage.abs().max(1e-300);
                if !a.ilp.proven_optimal || rel > 1e-9 {
                    out.mismatch(format!(
                        "{label}: ILP {} (proven {}) vs recorded optimum {}",
                        sol.leakage_nw, a.ilp.proven_optimal, e.ilp_leakage
                    ));
                }
            } else {
                // A budget-capped incumbent must be verified and no worse
                // than the heuristic it was warm-started from.
                let v = oracle.verify(a.cell.beta, a.dcrit_ps, &sol.assignment);
                if sol.leakage_nw > a.heur.leakage_nw || !v.ok() {
                    out.mismatch(format!(
                        "{label}: capped ILP incumbent {} (verified {}) vs heuristic {}",
                        sol.leakage_nw,
                        v.ok(),
                        a.heur.leakage_nw
                    ));
                }
            }
        }
        if let Some(f) = first.and_then(|f| {
            f.iter().find(|b| {
                b.cell.design == a.cell.design
                    && b.cell.beta == a.cell.beta
                    && b.cell.clusters == a.cell.clusters
            })
        }) {
            let bits = |o: &IlpOutcome| o.solution.as_ref().map(|s| s.leakage_nw.to_bits());
            if bits(&f.ilp) != bits(&a.ilp) || f.heur.assignment != a.heur.assignment {
                out.mismatch(format!(
                    "{label}: answer differs from the first pass of this run"
                ));
            }
        }
    }
}
