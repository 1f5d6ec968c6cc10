//! Post-silicon timing sensing.

/// A critical-path-replica timing monitor (paper §3.1).
///
/// On silicon, replicas of the critical path (or flip-flop shadow monitors)
/// flag when signal transitions land beyond a threshold. The controller
/// converts the observation into a slowdown coefficient β with finite
/// resolution and adds a guard band so the compensation never undershoots.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPathSensor {
    /// Measurement quantization step for β (e.g. 0.01 = 1 % steps).
    pub resolution: f64,
    /// Additive guard band applied on top of the measured β.
    pub guard_band: f64,
}

impl CriticalPathSensor {
    /// A 1 %-resolution sensor with a 0.5 % guard band.
    pub fn new(resolution: f64, guard_band: f64) -> Self {
        CriticalPathSensor { resolution, guard_band }
    }

    /// Measures β from the nominal and observed critical delays, rounding
    /// *up* to the sensor resolution and adding the guard band. A die faster
    /// than nominal measures β = 0 (FBB is never used to slow down).
    ///
    /// # Panics
    ///
    /// Panics if `nominal_ps` is not positive.
    pub fn measure_beta(&self, nominal_ps: f64, observed_ps: f64) -> f64 {
        assert!(nominal_ps > 0.0, "nominal delay must be positive");
        let raw = (observed_ps / nominal_ps - 1.0).max(0.0);
        if raw == 0.0 {
            return 0.0;
        }
        let quantized = if self.resolution > 0.0 {
            // Epsilon guards against float dust pushing an exact multiple of
            // the resolution (e.g. 103/100 - 1) up a whole step.
            ((raw - 1e-9) / self.resolution).ceil() * self.resolution
        } else {
            raw
        };
        quantized + self.guard_band
    }
}

impl Default for CriticalPathSensor {
    fn default() -> Self {
        CriticalPathSensor::new(0.01, 0.005)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_die_reads_zero() {
        let s = CriticalPathSensor::default();
        assert_eq!(s.measure_beta(100.0, 95.0), 0.0);
        assert_eq!(s.measure_beta(100.0, 100.0), 0.0);
    }

    #[test]
    fn quantizes_up() {
        let s = CriticalPathSensor::new(0.01, 0.0);
        // 3.2% slow reads as 4%.
        assert!((s.measure_beta(100.0, 103.2) - 0.04).abs() < 1e-12);
        // Exactly 3% reads as 3%.
        assert!((s.measure_beta(100.0, 103.0) - 0.03).abs() < 1e-9);
    }

    #[test]
    fn guard_band_added() {
        let s = CriticalPathSensor::new(0.01, 0.005);
        assert!((s.measure_beta(100.0, 104.1) - 0.055).abs() < 1e-12);
    }

    #[test]
    fn measured_beta_always_covers_true_slowdown() {
        let s = CriticalPathSensor::default();
        for pct in 1..15 {
            let observed = 100.0 * (1.0 + f64::from(pct) / 100.0);
            let beta = s.measure_beta(100.0, observed);
            assert!(beta >= f64::from(pct) / 100.0, "beta {beta} below actual {pct}%");
        }
    }

    #[test]
    fn zero_resolution_passthrough() {
        let s = CriticalPathSensor::new(0.0, 0.0);
        assert!((s.measure_beta(200.0, 210.0) - 0.05).abs() < 1e-12);
    }
}
