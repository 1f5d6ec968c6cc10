//! End-to-end and per-layer benchmark of the clustered-FBB stack:
//! `perfbench --workload NAME --seed N --seconds S --trace 0|1
//! --fbb-bin PATH [--record]`.
//!
//! Four workloads (see `README.md`): the paper's Table 1 ILP grid, a warm
//! β×C×P sweep over a composed 200k-gate design, and hot and churning
//! traffic against an `fbb serve` daemon. Every answer is re-timed by the
//! independent full-STA [`oracle`]; the benchmark times the program only
//! from outside, around its calls into public functions. Prints a host
//! fingerprint and detail lines, then as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`.

mod oracle;
mod report;
mod serve;
mod stats;
mod sweep;
mod table1;

use std::collections::BTreeMap;

use report::Outcome;

/// Parsed command line of one run.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workload name.
    pub workload: String,
    /// Workload seed: cell order and request draws.
    pub seed: u64,
    /// Measurement time, seconds.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Print the expected-answer table instead of checking it.
    pub record: bool,
    /// Path of the release `fbb` binary (serve workloads).
    pub fbb_bin: String,
}

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["table1_ilp", "sweep_200k", "serve_hot", "serve_churn"];

/// Runs the configured workload.
///
/// # Errors
///
/// Returns a message for an unknown workload or a failure to set up.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    match cfg.workload.as_str() {
        "table1_ilp" => Ok(table1::run(cfg)),
        "sweep_200k" => Ok(sweep::run(cfg)),
        "serve_hot" => serve::run(cfg, serve::Mode::Hot),
        "serve_churn" => serve::run(cfg, serve::Mode::Churn),
        other => Err(format!(
            "unknown workload {other:?}; expected one of {WORKLOADS:?}"
        )),
    }
}

/// The passes of one run, as `traced` flags: untraced passes for the whole
/// measurement time (half of it in a traced run), then traced passes for
/// the other half; at least one of each kind, and one pass in total when
/// recording expectations.
pub fn pass_schedule(cfg: &Config) -> impl Iterator<Item = bool> {
    let clock = std::time::Instant::now();
    let budget = cfg.seconds;
    let untraced_budget = if cfg.trace { budget / 2.0 } else { budget };
    let (trace, record) = (cfg.trace, cfg.record);
    let mut done = (0usize, 0usize);
    std::iter::from_fn(move || {
        let t = clock.elapsed().as_secs_f64();
        let next = if done.0 == 0 || (t < untraced_budget && !record) {
            Some(false)
        } else if trace && (done.1 == 0 || t < budget) {
            Some(true)
        } else {
            None
        };
        match next {
            Some(false) => done.0 += 1,
            Some(true) => done.1 += 1,
            None => {}
        }
        next
    })
}

/// SplitMix64: a tiny seeded generator for cell orders and request draws.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// Generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed ^ 0x5EED_F0B0_C0DE_1234)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform index below `n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Every per-layer metric with its unit, in `BENCHMARK.json` order. A
/// traced run reports all of them; a layer the workload does not reach
/// reads 0.
pub const LAYER_METRICS: [(&str, &str); 40] = [
    ("lp.ilp_solve_ms", "ms"),
    ("lp.bnb_nodes", "count"),
    ("lp.nodes_per_s", "1/s"),
    ("lp.simplex_iterations", "count"),
    ("lp.refactorizations", "count"),
    ("lp.bland_activations", "count"),
    ("lp.strong_branch_probes", "count"),
    ("lp.cuts_added", "count"),
    ("lp.presolve_rows_dropped", "count"),
    ("lp.budget_expired_cells", "count"),
    ("core.ilp_build_ms", "ms"),
    ("core.preprocess_ms", "ms"),
    ("core.single_bb_ms", "ms"),
    ("core.heuristic_ms", "ms"),
    ("sta.analyze_ms", "ms"),
    ("sta.path_set_ms", "ms"),
    ("sweep.preprocess_count", "count"),
    ("sweep.model_builds", "count"),
    ("bench.prepare_design_ms", "ms"),
    ("netlist.compose_s", "s"),
    ("placement.tile_ms", "ms"),
    ("device.characterize_ms", "ms"),
    ("db.build_ms", "ms"),
    ("db.encode_ms", "ms"),
    ("db.decode_verified_ms", "ms"),
    ("db.bytes", "B"),
    ("serve.overhead_ms", "ms"),
    ("serve.load_ms", "ms"),
    ("serve.reload_frac", "ratio"),
    ("serve.cache_evictions", "count"),
    ("serve.cache_hits", "count"),
    ("serve.cache_misses", "count"),
    ("serve.generator_lag_ms", "ms"),
    ("serve.backlog_end", "count"),
    ("serve.traffic_rss_mb", "MB"),
    ("serve.p50_ms", "ms"),
    ("serve.p99_ms", "ms"),
    ("verify.oracle_ms", "ms"),
    ("trace.coverage_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// Per-layer values gathered by a traced run.
#[derive(Debug, Default)]
pub struct LayerMetrics(BTreeMap<&'static str, f64>);

impl LayerMetrics {
    /// Sets one layer metric.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from [`LAYER_METRICS`].
    pub fn set(&mut self, name: &str, value: f64) {
        let (key, _) = LAYER_METRICS
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not a declared layer metric"));
        self.0.insert(key, value);
    }

    /// A metric set earlier, or 0.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Replaces the outcome's metrics with every declared layer metric.
    pub fn into_outcome(self, out: &mut Outcome) {
        out.metrics.clear();
        for (name, unit) in LAYER_METRICS {
            out.set(name, self.get(name), unit);
        }
    }
}

/// Deltas of the program's own `fbb_telemetry` counters over a traced
/// stretch of work.
pub mod counters {
    use std::collections::BTreeMap;

    use crate::LayerMetrics;

    /// Counter totals recorded between [`Delta::start`] and
    /// [`Pending::finish`].
    #[derive(Debug, Default, Clone)]
    pub struct Delta(BTreeMap<String, u64>);

    /// A started counter window.
    pub struct Pending(bool);

    impl Delta {
        /// Resets and enables telemetry when `traced`; otherwise inert.
        pub fn start(traced: bool) -> Pending {
            if traced {
                fbb::telemetry::reset();
                fbb::telemetry::enable();
            }
            Pending(traced)
        }

        /// Total of one counter (0 when it never ticked).
        pub fn get(&self, name: &str) -> f64 {
            self.0.get(name).copied().unwrap_or(0) as f64
        }
    }

    impl Pending {
        /// Stops recording and returns the totals.
        pub fn finish(self) -> Delta {
            if !self.0 {
                return Delta::default();
            }
            fbb::telemetry::disable();
            let snap = fbb::telemetry::snapshot();
            let names = [
                "bnb_nodes_explored",
                "lp_simplex_iterations",
                "lp_dense_simplex_iterations",
                "lp_refactorizations",
                "lp_simplex_bland_activations",
                "lp_dense_simplex_bland_activations",
                "bnb_strong_branch_probes",
                "bnb_cuts_clique_added",
                "bnb_cuts_cover_added",
                "lp_presolve_rows_dropped",
                "core_sweep_preprocesses",
                "core_sweep_model_builds",
            ];
            Delta(
                names
                    .iter()
                    .map(|&n| (n.to_owned(), snap.counter(n).unwrap_or(0)))
                    .collect(),
            )
        }
    }

    /// Fills the `lp.*` counter metrics, each the median over the traced
    /// passes' counter totals.
    pub fn lp_layers<'a>(l: &mut LayerMetrics, passes: impl Iterator<Item = &'a Delta> + Clone) {
        let reduce = |f: &dyn Fn(&Delta) -> f64| {
            crate::stats::median(&passes.clone().map(f).collect::<Vec<_>>())
        };
        l.set("lp.bnb_nodes", reduce(&|d| d.get("bnb_nodes_explored")));
        l.set(
            "lp.simplex_iterations",
            reduce(&|d| d.get("lp_simplex_iterations") + d.get("lp_dense_simplex_iterations")),
        );
        l.set(
            "lp.refactorizations",
            reduce(&|d| d.get("lp_refactorizations")),
        );
        l.set(
            "lp.bland_activations",
            reduce(&|d| {
                d.get("lp_simplex_bland_activations") + d.get("lp_dense_simplex_bland_activations")
            }),
        );
        l.set(
            "lp.strong_branch_probes",
            reduce(&|d| d.get("bnb_strong_branch_probes")),
        );
        l.set(
            "lp.cuts_added",
            reduce(&|d| d.get("bnb_cuts_clique_added") + d.get("bnb_cuts_cover_added")),
        );
        l.set(
            "lp.presolve_rows_dropped",
            reduce(&|d| d.get("lp_presolve_rows_dropped")),
        );
    }
}

/// Host fingerprint: `nproc`, `rustc -V` and the CPU model.
pub fn host_fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    format!("nproc {nproc}; {rustc}; cpu {cpu}")
}

fn value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn parse(args: &[String]) -> Result<Config, String> {
    let need = |flag: &str| value(args, flag).ok_or(format!("missing {flag}"));
    Ok(Config {
        workload: need("--workload")?,
        seed: need("--seed")?.parse().map_err(|_| "bad --seed")?,
        seconds: need("--seconds")?.parse().map_err(|_| "bad --seconds")?,
        trace: match need("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("bad --trace {other}")),
        },
        record: args.iter().any(|a| a == "--record"),
        fbb_bin: value(args, "--fbb-bin").unwrap_or_default(),
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if !cfg.record {
        println!("host: {}", host_fingerprint());
        println!(
            "workload {} seed {} seconds {} trace {}",
            cfg.workload, cfg.seed, cfg.seconds, cfg.trace
        );
    }
    let out = match run(&cfg) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    if cfg.record {
        return;
    }
    for line in &out.detail {
        println!("{line}");
    }
    println!(
        "fail_frac {:.6} ({} of {} operations)",
        out.fail_frac(),
        out.failed,
        out.attempted
    );
    for m in &out.mismatches {
        println!("mismatch: {m}");
    }
    println!("{}", out.to_json());
}
