//! NBTI transistor-aging model.

/// Negative-bias temperature instability: PMOS threshold voltage drifts as a
/// fractional power of stress time, slowing logic over the product lifetime
/// (the paper's aging citation, Mitra IRPS'08, predicts failures from this
/// drift; the clustered-FBB knob compensates it in the field).
///
/// `ΔVth(t) = a · t^n` with `t` in years; delay slowdown is linear in the
/// Vth shift at these magnitudes.
///
/// ```
/// use fbb_variation::NbtiAging;
///
/// let nbti = NbtiAging::typical_45nm();
/// let fresh = nbti.delay_multiplier(0.0);
/// let worn = nbti.delay_multiplier(7.0);
/// assert_eq!(fresh, 1.0);
/// assert!(worn > 1.03 && worn < 1.15);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NbtiAging {
    /// Vth drift amplitude in millivolts at t = 1 year.
    pub a_mv_per_yearn: f64,
    /// Time exponent (classically ~1/6).
    pub n: f64,
    /// Delay sensitivity per millivolt of Vth shift.
    pub delay_per_mv: f64,
}

impl NbtiAging {
    /// Typical high-stress 45 nm parameters: ~25 mV drift in the first year,
    /// `n = 0.16`, ~0.15 %/mV delay sensitivity.
    pub fn typical_45nm() -> Self {
        NbtiAging { a_mv_per_yearn: 25.0, n: 0.16, delay_per_mv: 0.0015 }
    }

    /// Vth drift (millivolts) after `years` of stress.
    ///
    /// # Panics
    ///
    /// Panics if `years` is negative.
    pub fn vth_shift_mv(&self, years: f64) -> f64 {
        assert!(years >= 0.0, "stress time must be non-negative");
        if years == 0.0 {
            return 0.0;
        }
        self.a_mv_per_yearn * years.powf(self.n)
    }

    /// Delay multiplier after `years` of stress.
    ///
    /// # Panics
    ///
    /// Panics if `years` is negative.
    pub fn delay_multiplier(&self, years: f64) -> f64 {
        1.0 + self.delay_per_mv * self.vth_shift_mv(years)
    }

    /// The slowdown coefficient β the tuning loop must compensate after
    /// `years` (equals `delay_multiplier − 1`).
    ///
    /// # Panics
    ///
    /// Panics if `years` is negative.
    pub fn beta(&self, years: f64) -> f64 {
        self.delay_multiplier(years) - 1.0
    }
}

impl Default for NbtiAging {
    fn default() -> Self {
        Self::typical_45nm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drift_grows_sublinearly() {
        let nbti = NbtiAging::typical_45nm();
        let y1 = nbti.vth_shift_mv(1.0);
        let y8 = nbti.vth_shift_mv(8.0);
        assert!(y8 > y1);
        assert!(y8 < 8.0 * y1, "t^0.16 is strongly sublinear");
    }

    #[test]
    fn fresh_device_unaffected() {
        let nbti = NbtiAging::typical_45nm();
        assert_eq!(nbti.vth_shift_mv(0.0), 0.0);
        assert_eq!(nbti.delay_multiplier(0.0), 1.0);
        assert_eq!(nbti.beta(0.0), 0.0);
    }

    #[test]
    fn ten_year_slowdown_in_compensable_range() {
        // The paper compensates up to beta = 10%; a decade of NBTI should
        // land within that envelope.
        let nbti = NbtiAging::typical_45nm();
        let beta = nbti.beta(10.0);
        assert!((0.02..=0.10).contains(&beta), "{beta}");
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_time_panics() {
        let _ = NbtiAging::typical_45nm().vth_shift_mv(-1.0);
    }
}
