//! Process-variation sampling.

use fbb_placement::Placement;
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// Standard-normal draw via the Box–Muller transform (avoids a `rand_distr`
/// dependency).
fn gauss(rng: &mut ChaCha8Rng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// A die-to-die + within-die process-variation model producing per-gate
/// delay multipliers.
///
/// Within-die variation has a **systematic** spatially correlated component
/// (modelled by bilinear interpolation over a coarse Gaussian grid — nearby
/// gates see similar shifts, which is what makes *physically clustered*
/// compensation effective) and an independent **random** component.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessVariation {
    /// Sigma of the global (die-to-die) delay shift.
    pub d2d_sigma: f64,
    /// Mean of the global shift (positive = slow-corner population).
    pub d2d_mean: f64,
    /// Sigma of the spatially correlated within-die component.
    pub wid_systematic_sigma: f64,
    /// Sigma of the independent per-gate component.
    pub wid_random_sigma: f64,
    /// Correlation grid resolution (cells per die edge).
    pub grid: usize,
}

impl ProcessVariation {
    /// A slow-corner 45 nm population: dies average ~5 % slow with ±3 %
    /// systematic and ±1.5 % random within-die spread — the kind of part the
    /// paper's FBB tuning rescues.
    pub fn slow_corner_45nm() -> Self {
        ProcessVariation {
            d2d_sigma: 0.025,
            d2d_mean: 0.05,
            wid_systematic_sigma: 0.03,
            wid_random_sigma: 0.015,
            grid: 8,
        }
    }

    /// A typical (centered) population.
    pub fn typical_45nm() -> Self {
        ProcessVariation { d2d_mean: 0.0, ..Self::slow_corner_45nm() }
    }

    /// Samples one die of a placed design: [`ProcessVariation::sample`] at
    /// every gate's centre, over the placement's die.
    pub fn sample_placed(&self, seed: u64, placement: &Placement) -> DieSample {
        let die = placement.die();
        self.sample(seed, &placement.positions_um(), (die.width_um(), die.height_um()))
    }

    /// Samples one die: `positions[i]` is gate `i`'s (x, y) in micrometres,
    /// `extent` the die (width, height).
    ///
    /// Deterministic in `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `grid == 0` or any sigma is negative.
    pub fn sample(&self, seed: u64, positions: &[(f64, f64)], extent: (f64, f64)) -> DieSample {
        assert!(self.grid >= 1, "correlation grid must be at least 1x1");
        assert!(
            self.d2d_sigma >= 0.0 && self.wid_systematic_sigma >= 0.0 && self.wid_random_sigma >= 0.0,
            "sigmas must be non-negative"
        );
        let mut rng = ChaCha8Rng::seed_from_u64(seed);

        let d2d = self.d2d_mean + self.d2d_sigma * gauss(&mut rng);

        // Gaussian grid with (grid + 1)^2 corners for bilinear interpolation.
        let corners = self.grid + 1;
        let grid_vals: Vec<f64> = (0..corners * corners)
            .map(|_| self.wid_systematic_sigma * gauss(&mut rng))
            .collect();
        let (w, h) = extent;
        let systematic = |x: f64, y: f64| -> f64 {
            let gx = (x / w.max(1e-9)).clamp(0.0, 1.0) * self.grid as f64;
            let gy = (y / h.max(1e-9)).clamp(0.0, 1.0) * self.grid as f64;
            let ix = (gx as usize).min(corners - 2);
            let iy = (gy as usize).min(corners - 2);
            let fx = gx - ix as f64;
            let fy = gy - iy as f64;
            let v00 = grid_vals[iy * corners + ix];
            let v10 = grid_vals[iy * corners + ix + 1];
            let v01 = grid_vals[(iy + 1) * corners + ix];
            let v11 = grid_vals[(iy + 1) * corners + ix + 1];
            v00 * (1.0 - fx) * (1.0 - fy)
                + v10 * fx * (1.0 - fy)
                + v01 * (1.0 - fx) * fy
                + v11 * fx * fy
        };

        let multipliers = positions
            .iter()
            .map(|&(x, y)| {
                let m = 1.0 + d2d + systematic(x, y) + self.wid_random_sigma * gauss(&mut rng);
                m.max(0.5)
            })
            .collect();
        DieSample { d2d, multipliers }
    }
}

/// One sampled die: per-gate delay multipliers.
#[derive(Debug, Clone, PartialEq)]
pub struct DieSample {
    /// The global die-to-die shift drawn for this die.
    pub d2d: f64,
    /// Per-gate delay multipliers (indexed like the netlist's gates).
    pub multipliers: Vec<f64>,
}

impl DieSample {
    /// Applies the multipliers to nominal delays.
    ///
    /// # Panics
    ///
    /// Panics if `nominal.len() != self.multipliers.len()`.
    pub fn apply(&self, nominal: &[f64]) -> Vec<f64> {
        assert_eq!(nominal.len(), self.multipliers.len(), "one multiplier per gate");
        nominal.iter().zip(&self.multipliers).map(|(&d, &m)| d * m).collect()
    }

    /// Mean multiplier across gates.
    pub fn mean(&self) -> f64 {
        if self.multipliers.is_empty() {
            return 1.0;
        }
        self.multipliers.iter().sum::<f64>() / self.multipliers.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_positions(n: usize, w: f64, h: f64) -> Vec<(f64, f64)> {
        (0..n).map(|i| (w * (i % 10) as f64 / 10.0, h * (i / 10) as f64 / (n as f64 / 10.0))).collect()
    }

    #[test]
    fn deterministic_per_seed() {
        let pv = ProcessVariation::slow_corner_45nm();
        let pos = grid_positions(200, 100.0, 100.0);
        let a = pv.sample(1, &pos, (100.0, 100.0));
        let b = pv.sample(1, &pos, (100.0, 100.0));
        assert_eq!(a, b);
        let c = pv.sample(2, &pos, (100.0, 100.0));
        assert_ne!(a, c);
    }

    #[test]
    fn slow_corner_is_slow_on_average() {
        let pv = ProcessVariation::slow_corner_45nm();
        let pos = grid_positions(500, 100.0, 100.0);
        let mean: f64 =
            (0..40).map(|s| pv.sample(s, &pos, (100.0, 100.0)).mean()).sum::<f64>() / 40.0;
        assert!((0.02..=0.09).contains(&(mean - 1.0)), "population mean {mean}");
    }

    #[test]
    fn nearby_gates_are_correlated() {
        // Correlation of neighbours' systematic shift should exceed the
        // correlation of far-apart gates.
        let pv = ProcessVariation {
            wid_random_sigma: 0.0,
            d2d_sigma: 0.0,
            d2d_mean: 0.0,
            ..ProcessVariation::slow_corner_45nm()
        };
        let mut near_diff = 0.0;
        let mut far_diff = 0.0;
        for seed in 0..30 {
            let pos = vec![(10.0, 10.0), (12.0, 10.0), (90.0, 90.0)];
            let die = pv.sample(seed, &pos, (100.0, 100.0));
            near_diff += (die.multipliers[0] - die.multipliers[1]).abs();
            far_diff += (die.multipliers[0] - die.multipliers[2]).abs();
        }
        assert!(near_diff < far_diff, "near {near_diff} vs far {far_diff}");
    }

    #[test]
    fn apply_scales_delays() {
        let die = DieSample { d2d: 0.0, multipliers: vec![1.0, 2.0, 0.5] };
        assert_eq!(die.apply(&[10.0, 10.0, 10.0]), vec![10.0, 20.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "one multiplier per gate")]
    fn apply_checks_length() {
        let die = DieSample { d2d: 0.0, multipliers: vec![1.0] };
        let _ = die.apply(&[1.0, 2.0]);
    }

    #[test]
    fn multipliers_are_floored() {
        let pv = ProcessVariation {
            d2d_mean: -2.0, // absurdly fast corner
            ..ProcessVariation::slow_corner_45nm()
        };
        let die = pv.sample(3, &grid_positions(50, 10.0, 10.0), (10.0, 10.0));
        assert!(die.multipliers.iter().all(|&m| m >= 0.5));
    }
}
