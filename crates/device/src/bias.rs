//! Body-bias voltages and the quantized ladder a bias generator can produce.

use std::fmt;

use crate::DeviceError;

/// A body-bias voltage, quantized to millivolts.
///
/// Following the paper's convention (§3.2), a single value `vbs` describes
/// both wells: the NMOS body sees `vbsn = vbs` and the PMOS body sees
/// `vbsp = Vdd − vbs`. `vbs = 0` means **no body bias** (NBB).
///
/// ```
/// use fbb_device::BiasVoltage;
///
/// let v = BiasVoltage::from_millivolts(250);
/// assert_eq!(v.millivolts(), 250);
/// assert!((v.volts() - 0.25).abs() < 1e-12);
/// assert!(BiasVoltage::ZERO < v);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BiasVoltage(u32);

impl BiasVoltage {
    /// No body bias (NBB): `vbs = 0`.
    pub const ZERO: BiasVoltage = BiasVoltage(0);

    /// Creates a bias voltage from a value in millivolts.
    pub const fn from_millivolts(mv: u32) -> Self {
        BiasVoltage(mv)
    }

    /// The voltage in millivolts.
    pub const fn millivolts(self) -> u32 {
        self.0
    }

    /// The voltage in volts.
    pub fn volts(self) -> f64 {
        f64::from(self.0) * 1e-3
    }

    /// Whether this is the no-body-bias level.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for BiasVoltage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}mV", self.0)
    }
}

/// The ordered set of bias voltages a body-bias generator can distribute.
///
/// The paper assumes a generator with 50 mV resolution and a usable range of
/// 0–0.5 V, i.e. `P = 11` levels (§3.2). Level index `0` is always NBB
/// (`vbs = 0`), and indices increase with voltage, hence with speed-up and
/// leakage.
///
/// ```
/// use fbb_device::{BiasLadder, BiasVoltage};
///
/// # fn main() -> Result<(), fbb_device::DeviceError> {
/// let ladder = BiasLadder::date09()?;
/// assert_eq!(ladder.len(), 11);
/// assert_eq!(ladder.level(0), BiasVoltage::ZERO);
/// assert_eq!(ladder.level(10), BiasVoltage::from_millivolts(500));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BiasLadder {
    levels: Vec<BiasVoltage>,
}

impl BiasLadder {
    /// The ladder used throughout the paper: 0 → 500 mV in 50 mV steps.
    ///
    /// # Errors
    ///
    /// Never fails for these built-in parameters; the `Result` mirrors
    /// [`BiasLadder::with_resolution`].
    pub fn date09() -> Result<Self, DeviceError> {
        Self::with_resolution(50, 500)
    }

    /// Builds a ladder from `0` to `max_mv` inclusive in steps of
    /// `resolution_mv` (the generator resolution; [Tschanz et al., JSSC'02]
    /// achieved 32 mV, the paper assumes 50 mV).
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InvalidLadder`] if the resolution is zero or
    /// does not divide `max_mv`.
    pub fn with_resolution(resolution_mv: u32, max_mv: u32) -> Result<Self, DeviceError> {
        if resolution_mv == 0 {
            return Err(DeviceError::InvalidLadder(
                "bias generator resolution must be nonzero".into(),
            ));
        }
        if !max_mv.is_multiple_of(resolution_mv) {
            return Err(DeviceError::InvalidLadder(format!(
                "resolution {resolution_mv} mV does not divide the maximum bias {max_mv} mV"
            )));
        }
        let levels = (0..=max_mv / resolution_mv)
            .map(|i| BiasVoltage::from_millivolts(i * resolution_mv))
            .collect();
        Ok(BiasLadder { levels })
    }

    /// Builds a ladder from an explicit, strictly increasing list of levels
    /// starting at 0 mV.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InvalidLadder`] if the list is empty, does not
    /// start at 0 mV, or is not strictly increasing.
    pub fn from_levels(levels: Vec<BiasVoltage>) -> Result<Self, DeviceError> {
        if levels.is_empty() {
            return Err(DeviceError::InvalidLadder("ladder has no levels".into()));
        }
        if levels[0] != BiasVoltage::ZERO {
            return Err(DeviceError::InvalidLadder(
                "ladder must start at the no-body-bias level (0 mV)".into(),
            ));
        }
        if levels.windows(2).any(|w| w[0] >= w[1]) {
            return Err(DeviceError::InvalidLadder(
                "ladder levels must be strictly increasing".into(),
            ));
        }
        Ok(BiasLadder { levels })
    }

    /// Number of levels `P` (the paper's number of candidate clusters).
    pub fn len(&self) -> usize {
        self.levels.len()
    }

    /// Whether the ladder has no levels. Always `false` for a constructed
    /// ladder, provided for `len`/`is_empty` symmetry.
    pub fn is_empty(&self) -> bool {
        self.levels.is_empty()
    }

    /// The voltage at `index` (0 = NBB).
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn level(&self, index: usize) -> BiasVoltage {
        self.levels[index]
    }

    /// The voltage at `index`, or `None` when out of range.
    pub fn get(&self, index: usize) -> Option<BiasVoltage> {
        self.levels.get(index).copied()
    }

    /// All levels in ascending order.
    pub fn levels(&self) -> &[BiasVoltage] {
        &self.levels
    }

    /// The highest voltage the generator can produce.
    pub fn max(&self) -> BiasVoltage {
        *self.levels.last().expect("ladder is never empty")
    }

    /// Index of the given voltage, if it is exactly on the ladder.
    pub fn index_of(&self, v: BiasVoltage) -> Option<usize> {
        self.levels.binary_search(&v).ok()
    }

    /// Iterates over `(index, voltage)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, BiasVoltage)> + '_ {
        self.levels.iter().copied().enumerate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn date09_ladder_matches_paper() {
        let l = BiasLadder::date09().unwrap();
        assert_eq!(l.len(), 11);
        assert_eq!(l.level(0), BiasVoltage::ZERO);
        assert_eq!(l.level(5), BiasVoltage::from_millivolts(250));
        assert_eq!(l.max(), BiasVoltage::from_millivolts(500));
    }

    #[test]
    fn ladder_rejects_zero_resolution() {
        assert!(matches!(
            BiasLadder::with_resolution(0, 500),
            Err(DeviceError::InvalidLadder(_))
        ));
    }

    #[test]
    fn ladder_rejects_nondividing_resolution() {
        assert!(BiasLadder::with_resolution(32, 500).is_err());
        assert!(BiasLadder::with_resolution(32, 512).is_ok());
    }

    #[test]
    fn explicit_ladder_validation() {
        let ok = BiasLadder::from_levels(vec![
            BiasVoltage::ZERO,
            BiasVoltage::from_millivolts(100),
            BiasVoltage::from_millivolts(300),
        ]);
        assert_eq!(ok.unwrap().len(), 3);

        assert!(BiasLadder::from_levels(vec![]).is_err());
        assert!(BiasLadder::from_levels(vec![BiasVoltage::from_millivolts(50)]).is_err());
        assert!(BiasLadder::from_levels(vec![BiasVoltage::ZERO, BiasVoltage::ZERO]).is_err());
    }

    #[test]
    fn index_of_roundtrips() {
        let l = BiasLadder::date09().unwrap();
        for (i, v) in l.iter() {
            assert_eq!(l.index_of(v), Some(i));
        }
        assert_eq!(l.index_of(BiasVoltage::from_millivolts(42)), None);
    }

    #[test]
    fn voltage_display_and_units() {
        let v = BiasVoltage::from_millivolts(450);
        assert_eq!(v.to_string(), "450mV");
        assert!((v.volts() - 0.45).abs() < 1e-12);
        assert!(!v.is_zero());
        assert!(BiasVoltage::ZERO.is_zero());
    }
}
