//! Reverse body bias (RBB) — the other half of bidirectional ABB.
//!
//! The paper applies FBB to slow dies; prior art ([Tschanz et al., JSSC'02])
//! uses *bidirectional* ABB, reverse-biasing fast dies to cut their leakage.
//! §3.2 explains why RBB is the weaker knob in scaled nodes: it worsens
//! short-channel effects and Vth variation, and band-to-band tunnelling
//! (BTBT) grows with reverse bias, so the net leakage reduction saturates
//! and then *reverses* — "its effectiveness diminishes as technology is
//! scaled". This module models that trade so fast-die recovery experiments
//! can quantify it.

use std::fmt;

/// A reverse body-bias voltage magnitude, quantized to millivolts
/// (`vbsn = −v`, `vbsp = Vdd + v`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ReverseBiasVoltage(u32);

impl ReverseBiasVoltage {
    /// No reverse bias.
    pub const ZERO: ReverseBiasVoltage = ReverseBiasVoltage(0);

    /// Creates a reverse bias from a magnitude in millivolts.
    pub const fn from_millivolts(mv: u32) -> Self {
        ReverseBiasVoltage(mv)
    }

    /// Magnitude in millivolts.
    pub const fn millivolts(self) -> u32 {
        self.0
    }

    /// Magnitude in volts.
    pub fn volts(self) -> f64 {
        f64::from(self.0) * 1e-3
    }
}

impl fmt::Display for ReverseBiasVoltage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "-{}mV", self.0)
    }
}

/// Reverse-body-bias response model for a scaled (45 nm) node.
///
/// Subthreshold leakage falls exponentially with reverse bias while the
/// BTBT junction component rises, producing a shallow optimum; delay grows
/// linearly (Vth increases).
///
/// ```
/// use fbb_device::rbb::{RbbModel, ReverseBiasVoltage};
///
/// let m = RbbModel::date09_45nm();
/// let v = ReverseBiasVoltage::from_millivolts(300);
/// assert!(m.leakage_multiplier(v) < 1.0); // leaks less
/// assert!(m.delay_factor(v) > 1.0);       // but runs slower
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RbbModel {
    /// Subthreshold attenuation exponent per volt.
    pub subvt_alpha: f64,
    /// BTBT component weight (fraction of nominal leakage at 1 V-equivalent).
    pub btbt_weight: f64,
    /// BTBT growth exponent per volt.
    pub btbt_gamma: f64,
    /// Fractional delay increase per volt of reverse bias.
    pub slowdown_per_volt: f64,
    /// Maximum reverse bias the generator produces.
    pub max_bias: ReverseBiasVoltage,
}

impl RbbModel {
    /// A 45 nm-class calibration: ~2.4× leakage reduction at the optimum,
    /// with BTBT reclaiming the gains beyond ~0.5 V.
    pub fn date09_45nm() -> Self {
        RbbModel {
            subvt_alpha: 2.2,
            btbt_weight: 0.06,
            btbt_gamma: 2.4,
            slowdown_per_volt: 0.18,
            max_bias: ReverseBiasVoltage::from_millivolts(1000),
        }
    }

    /// Total leakage multiplier at reverse bias `v` (subthreshold decay plus
    /// the growing BTBT component).
    pub fn leakage_multiplier(&self, v: ReverseBiasVoltage) -> f64 {
        let vv = v.volts();
        (-self.subvt_alpha * vv).exp() + self.btbt_weight * ((self.btbt_gamma * vv).exp() - 1.0)
    }

    /// Delay multiplier at reverse bias `v` (`>= 1`).
    pub fn delay_factor(&self, v: ReverseBiasVoltage) -> f64 {
        1.0 + self.slowdown_per_volt * v.volts()
    }

    /// The reverse bias minimizing total leakage, scanned at the generator
    /// resolution (the classic [Neau & Roy, ISLPED'03] "optimal body bias").
    pub fn optimal_bias(&self, resolution_mv: u32) -> ReverseBiasVoltage {
        assert!(resolution_mv > 0, "resolution must be nonzero");
        let mut best = ReverseBiasVoltage::ZERO;
        let mut best_leak = self.leakage_multiplier(best);
        let mut mv = resolution_mv;
        while mv <= self.max_bias.millivolts() {
            let v = ReverseBiasVoltage::from_millivolts(mv);
            let leak = self.leakage_multiplier(v);
            if leak < best_leak {
                best_leak = leak;
                best = v;
            }
            mv += resolution_mv;
        }
        best
    }

    /// The largest reverse bias whose slowdown still fits within a timing
    /// slack fraction (e.g. a die measured 6 % fast can afford
    /// `slack_fraction = 0.06`), at the generator resolution.
    pub fn max_bias_within_slack(&self, slack_fraction: f64, resolution_mv: u32) -> ReverseBiasVoltage {
        assert!(resolution_mv > 0, "resolution must be nonzero");
        let mut best = ReverseBiasVoltage::ZERO;
        let mut mv = resolution_mv;
        while mv <= self.max_bias.millivolts() {
            let v = ReverseBiasVoltage::from_millivolts(mv);
            if self.delay_factor(v) <= 1.0 + slack_fraction {
                best = v;
            } else {
                break;
            }
            mv += resolution_mv;
        }
        best
    }
}

impl Default for RbbModel {
    fn default() -> Self {
        Self::date09_45nm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m() -> RbbModel {
        RbbModel::date09_45nm()
    }

    #[test]
    fn leakage_has_an_interior_optimum() {
        let model = m();
        let opt = model.optimal_bias(50);
        assert!(opt > ReverseBiasVoltage::ZERO, "some reverse bias helps");
        assert!(opt < model.max_bias, "BTBT reclaims the gains before max bias");
        // The optimum beats both endpoints.
        let at_opt = model.leakage_multiplier(opt);
        assert!(at_opt < 1.0);
        assert!(at_opt < model.leakage_multiplier(model.max_bias));
    }

    #[test]
    fn btbt_dominates_at_deep_reverse_bias() {
        // The paper's scaling argument: past the optimum, more RBB leaks MORE.
        let model = m();
        let opt = model.optimal_bias(50);
        let deeper = ReverseBiasVoltage::from_millivolts(opt.millivolts() + 300);
        assert!(model.leakage_multiplier(deeper) > model.leakage_multiplier(opt));
    }

    #[test]
    fn delay_penalty_is_monotone() {
        let model = m();
        let mut prev = 1.0;
        for mv in (100..=1000).step_by(100) {
            let f = model.delay_factor(ReverseBiasVoltage::from_millivolts(mv));
            assert!(f > prev);
            prev = f;
        }
    }

    #[test]
    fn slack_limited_bias_respects_timing() {
        let model = m();
        let v = model.max_bias_within_slack(0.05, 50);
        assert!(model.delay_factor(v) <= 1.05);
        // The next step would violate.
        let next = ReverseBiasVoltage::from_millivolts(v.millivolts() + 50);
        assert!(model.delay_factor(next) > 1.05);
    }

    #[test]
    fn zero_slack_means_no_bias() {
        assert_eq!(m().max_bias_within_slack(0.0, 50), ReverseBiasVoltage::ZERO);
    }

    #[test]
    fn display() {
        assert_eq!(ReverseBiasVoltage::from_millivolts(250).to_string(), "-250mV");
    }
}
