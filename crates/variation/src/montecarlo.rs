//! Monte-Carlo timing-yield estimation.

use fbb_netlist::Netlist;
use fbb_placement::Placement;
use fbb_sta::TimingGraph;

use crate::ProcessVariation;

/// Monte-Carlo estimator of parametric timing yield: the fraction of
/// sampled dies whose critical delay meets the clock period.
///
/// This quantifies the *problem* the paper solves — uncompensated slow-corner
/// dies fail timing — and, run again after compensation, the benefit.
#[derive(Debug, Clone)]
pub struct MonteCarloYield<'a> {
    netlist: &'a Netlist,
    placement: &'a Placement,
    nominal_delays: &'a [f64],
}

/// Aggregate result of a yield run.
#[derive(Debug, Clone, PartialEq)]
pub struct YieldEstimate {
    /// Dies sampled.
    pub samples: usize,
    /// Fraction of dies meeting the clock.
    pub yield_fraction: f64,
    /// Mean effective slowdown β across dies.
    pub beta_mean: f64,
    /// Maximum observed β.
    pub beta_max: f64,
    /// β needed to cover 95 % of dies (sorted 95th percentile).
    pub beta_p95: f64,
}

impl<'a> MonteCarloYield<'a> {
    /// Creates an estimator over a placed design with nominal per-gate
    /// delays.
    pub fn new(netlist: &'a Netlist, placement: &'a Placement, nominal_delays: &'a [f64]) -> Self {
        MonteCarloYield { netlist, placement, nominal_delays }
    }

    /// Samples `samples` dies from `variation` and checks each against
    /// `clock_ps`.
    ///
    /// # Errors
    ///
    /// Propagates [`fbb_netlist::NetlistError`] from timing-graph
    /// construction.
    pub fn estimate(
        &self,
        variation: &ProcessVariation,
        clock_ps: f64,
        samples: usize,
        seed: u64,
    ) -> Result<YieldEstimate, fbb_netlist::NetlistError> {
        let graph = TimingGraph::new(self.netlist)?;
        let nominal_dcrit = graph.analyze(self.nominal_delays).dcrit_ps();

        // Each die is seeded from its own sample index, so the samples are
        // independent and evaluated across the worker pool; results come
        // back in sample order, keeping the estimate bit-identical to the
        // serial loop for a given seed.
        let _mc_span = fbb_telemetry::span("mc_estimate");
        let dcrits = fbb_sta::par::parallel_gen(samples, |s| {
            let die = variation.sample_placed(seed.wrapping_add(s as u64), self.placement);
            let delays = die.apply(self.nominal_delays);
            graph.analyze(&delays).dcrit_ps()
        });
        let mut betas = Vec::with_capacity(samples);
        let mut pass = 0usize;
        let telemetry = fbb_telemetry::is_enabled();
        if telemetry {
            fbb_telemetry::counter("mc_runs", 1);
            fbb_telemetry::counter("mc_samples", samples as u64);
        }
        for dcrit in dcrits {
            if dcrit <= clock_ps {
                pass += 1;
            }
            if telemetry {
                // Per-die observations happen here, after the parallel
                // collect returned results in sample order, so the
                // distributions are deterministic for a fixed seed.
                fbb_telemetry::record("mc_die_dcrit_ps", dcrit);
                fbb_telemetry::record("mc_die_beta", (dcrit / nominal_dcrit - 1.0).max(0.0));
            }
            betas.push((dcrit / nominal_dcrit - 1.0).max(0.0));
        }
        betas.sort_by(|a, b| a.partial_cmp(b).expect("betas are finite"));
        let beta_mean = betas.iter().sum::<f64>() / samples.max(1) as f64;
        let beta_max = betas.last().copied().unwrap_or(0.0);
        let p95_idx = ((samples as f64) * 0.95).ceil() as usize;
        let beta_p95 = betas.get(p95_idx.saturating_sub(1).min(samples.saturating_sub(1)))
            .copied()
            .unwrap_or(0.0);
        Ok(YieldEstimate {
            samples,
            yield_fraction: pass as f64 / samples.max(1) as f64,
            beta_mean,
            beta_max,
            beta_p95,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbb_device::Library;
    use fbb_netlist::generators;
    use fbb_placement::{Placer, PlacerOptions};

    fn setup() -> (Netlist, Placement, Vec<f64>) {
        let nl = generators::ripple_adder("a16", 16, false).unwrap();
        let p = Placer::new(PlacerOptions::with_target_rows(6))
            .place(&nl, &Library::date09_45nm())
            .unwrap();
        let delays = vec![10.0; nl.gate_count()];
        (nl, p, delays)
    }

    #[test]
    fn tight_clock_fails_slow_population() {
        let (nl, p, delays) = setup();
        let mc = MonteCarloYield::new(&nl, &p, &delays);
        let graph = TimingGraph::new(&nl).unwrap();
        let dcrit = graph.analyze(&delays).dcrit_ps();
        let pv = ProcessVariation::slow_corner_45nm();

        // Clock exactly at nominal: the slow-corner population mostly fails.
        let est = mc.estimate(&pv, dcrit, 60, 11).unwrap();
        assert!(est.yield_fraction < 0.5, "yield {}", est.yield_fraction);
        assert!(est.beta_mean > 0.02);
        assert!(est.beta_p95 >= est.beta_mean);
        assert!(est.beta_max >= est.beta_p95);

        // A 20% relaxed clock passes nearly everything.
        let est = mc.estimate(&pv, dcrit * 1.2, 60, 11).unwrap();
        assert!(est.yield_fraction > 0.95, "yield {}", est.yield_fraction);
    }

    #[test]
    fn deterministic_in_seed() {
        let (nl, p, delays) = setup();
        let mc = MonteCarloYield::new(&nl, &p, &delays);
        let pv = ProcessVariation::typical_45nm();
        let a = mc.estimate(&pv, 1000.0, 25, 5).unwrap();
        let b = mc.estimate(&pv, 1000.0, 25, 5).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn typical_population_beats_slow_corner() {
        let (nl, p, delays) = setup();
        let mc = MonteCarloYield::new(&nl, &p, &delays);
        let graph = TimingGraph::new(&nl).unwrap();
        let clock = graph.analyze(&delays).dcrit_ps() * 1.04;
        let slow = mc.estimate(&ProcessVariation::slow_corner_45nm(), clock, 50, 9).unwrap();
        let typical = mc.estimate(&ProcessVariation::typical_45nm(), clock, 50, 9).unwrap();
        assert!(typical.yield_fraction >= slow.yield_fraction);
    }
}
