//! What one benchmark run reports, and the per-layer span accumulator.

use std::collections::BTreeMap;
use std::time::Instant;

/// A metric value with its unit.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// The measured value.
    pub value: f64,
    /// Unit string, as declared in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The result of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (answers produced or requests sent).
    pub attempted: u64,
    /// Operations that errored, were refused, or failed the oracle.
    pub failed: u64,
    /// Why the run's answers are not the expected ones; empty when correct.
    pub mismatches: Vec<String>,
    /// Reported metrics, in output order.
    pub metrics: BTreeMap<String, Metric>,
    /// Human-readable detail lines printed before the result line.
    pub detail: Vec<String>,
}

impl Outcome {
    /// Records a metric.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(name.to_owned(), Metric { value, unit });
    }

    /// Records one answer that does not match its expectation. Only the
    /// first few are kept verbatim.
    pub fn mismatch(&mut self, what: String) {
        if self.mismatches.len() < 20 {
            self.mismatches.push(what);
        } else if self.mismatches.len() == 20 {
            self.mismatches
                .push("further mismatches omitted".to_owned());
        }
    }

    /// Adds one detail line.
    pub fn note(&mut self, line: String) {
        self.detail.push(line);
    }

    /// `failed / attempted`.
    pub fn fail_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, m)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.mismatches.is_empty(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite JSON number with all its digits (`NaN`/infinities become 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_owned()
    }
}

/// Wall time per named layer, accumulated by spans the benchmark puts
/// around its own calls into the program. Inert when tracing is off.
#[derive(Debug, Default)]
pub struct Layers {
    on: bool,
    ms: BTreeMap<&'static str, f64>,
}

impl Layers {
    /// An accumulator that records only when `on`.
    pub fn new(on: bool) -> Self {
        Layers {
            on,
            ms: BTreeMap::new(),
        }
    }

    /// Runs `f`, adding its wall time to layer `name` when tracing.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let t = Instant::now();
        let r = f();
        *self.ms.entry(name).or_default() += t.elapsed().as_secs_f64() * 1e3;
        r
    }

    /// Total milliseconds recorded under `name`.
    pub fn ms(&self, name: &str) -> f64 {
        self.ms.get(name).copied().unwrap_or(0.0)
    }
}

/// Peak resident set size of process `pid` (`"self"` for this one), MB,
/// from the `VmHWM` line of `/proc/<pid>/status`.
pub fn peak_rss_mb(pid: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
