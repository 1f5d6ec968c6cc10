//! Nominal cell data and per-bias-level characterization tables.

use crate::{BiasLadder, BodyBiasModel, Cell, CellKind, DeviceError, DriveStrength};

/// Nominal (no-body-bias, typical corner) data for one cell kind at X1 drive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellData {
    /// Propagation delay in picoseconds.
    pub delay_ps: f64,
    /// Subthreshold leakage power in nanowatts.
    pub leakage_nw: f64,
    /// Cell width in placement sites.
    pub width_sites: u32,
}

/// A standard-cell library: nominal delay/leakage/width per cell.
///
/// The paper uses a reduced 45 nm STMicroelectronics library. We provide an
/// equivalent synthetic library with typical 45 nm magnitudes; the FBB
/// allocator only depends on relative delays and the bias response shape.
///
/// ```
/// use fbb_device::{Cell, CellKind, DriveStrength, Library};
///
/// let lib = Library::date09_45nm();
/// let inv = Cell::new(CellKind::Inv, DriveStrength::X1);
/// let inv4 = Cell::new(CellKind::Inv, DriveStrength::X4);
/// assert!(lib.nbb_delay_ps(inv4) < lib.nbb_delay_ps(inv));
/// assert!(lib.nbb_leakage_nw(inv4) > lib.nbb_leakage_nw(inv));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Library {
    base: Vec<CellData>, // indexed by CellKind::index()
}

impl Library {
    /// A synthetic 45 nm library with magnitudes typical of the paper's setup.
    pub fn date09_45nm() -> Self {
        let mut base = vec![
            CellData { delay_ps: 0.0, leakage_nw: 0.0, width_sites: 0 };
            CellKind::ALL.len()
        ];
        let mut set = |k: CellKind, delay_ps: f64, leakage_nw: f64, width_sites: u32| {
            base[k.index()] = CellData { delay_ps, leakage_nw, width_sites };
        };
        set(CellKind::Inv, 12.0, 0.09, 2);
        set(CellKind::Buf, 20.0, 0.13, 3);
        set(CellKind::Nand2, 16.0, 0.16, 3);
        set(CellKind::Nand3, 20.0, 0.20, 4);
        set(CellKind::Nand4, 24.0, 0.27, 5);
        set(CellKind::Nor2, 18.0, 0.18, 3);
        set(CellKind::Nor3, 24.0, 0.25, 4);
        set(CellKind::And2, 22.0, 0.19, 4);
        set(CellKind::Or2, 24.0, 0.21, 4);
        set(CellKind::Xor2, 30.0, 0.28, 5);
        set(CellKind::Xnor2, 30.0, 0.28, 5);
        set(CellKind::Dff, 60.0, 0.55, 8);
        Library { base }
    }

    /// Nominal data of the X1 variant of `kind`.
    pub fn cell_data(&self, kind: CellKind) -> CellData {
        self.base[kind.index()]
    }

    /// The full nominal table, indexed by [`CellKind::index`], for
    /// serialization ([`Library::from_cell_table`] rebuilds from it).
    pub fn cell_table(&self) -> &[CellData] {
        &self.base
    }

    /// Rebuilds a library from a [`Library::cell_table`] snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InvalidModel`] if the table does not cover
    /// exactly [`CellKind::ALL`] or contains non-finite / negative entries.
    pub fn from_cell_table(base: Vec<CellData>) -> Result<Self, DeviceError> {
        if base.len() != CellKind::ALL.len() {
            return Err(DeviceError::InvalidModel(format!(
                "cell table has {} entries, library defines {}",
                base.len(),
                CellKind::ALL.len()
            )));
        }
        for (i, data) in base.iter().enumerate() {
            let ok = data.delay_ps.is_finite()
                && data.delay_ps > 0.0
                && data.leakage_nw.is_finite()
                && data.leakage_nw > 0.0
                && data.width_sites > 0;
            if !ok {
                return Err(DeviceError::InvalidModel(format!(
                    "cell table entry {} ({}) is not physical",
                    i,
                    CellKind::ALL[i]
                )));
            }
        }
        Ok(Library { base })
    }

    /// Nominal (no body bias) delay of `cell` in picoseconds.
    pub fn nbb_delay_ps(&self, cell: Cell) -> f64 {
        self.base[cell.kind.index()].delay_ps * cell.drive.delay_factor()
    }

    /// Nominal (no body bias) leakage of `cell` in nanowatts.
    pub fn nbb_leakage_nw(&self, cell: Cell) -> f64 {
        self.base[cell.kind.index()].leakage_nw * cell.drive.leakage_factor()
    }

    /// Width of `cell` in placement sites.
    pub fn width_sites(&self, cell: Cell) -> u32 {
        let w = f64::from(self.base[cell.kind.index()].width_sites) * cell.drive.width_factor();
        w.ceil() as u32
    }

    /// Runs the "SPICE characterization" step of the paper's flow: tabulates
    /// delay and leakage of every library cell at every bias level.
    pub fn characterize(&self, model: &BodyBiasModel, ladder: &BiasLadder) -> Characterization {
        let levels = ladder.len();
        let cells = Cell::count();
        let mut delay = vec![0.0; cells * levels];
        let mut leakage = vec![0.0; cells * levels];
        for kind in CellKind::ALL {
            for drive in DriveStrength::ALL {
                let cell = Cell::new(kind, drive);
                let d0 = self.nbb_delay_ps(cell);
                let l0 = self.nbb_leakage_nw(cell);
                for (j, v) in ladder.iter() {
                    delay[cell.index() * levels + j] = d0 * model.delay_factor(v);
                    leakage[cell.index() * levels + j] = l0 * model.leakage_multiplier(v);
                }
            }
        }
        let speedup = ladder.iter().map(|(_, v)| model.speedup_fraction(v)).collect();
        Characterization {
            ladder: ladder.clone(),
            model: model.clone(),
            library: self.clone(),
            levels,
            delay,
            leakage,
            speedup,
        }
    }
}

impl Default for Library {
    fn default() -> Self {
        Self::date09_45nm()
    }
}

/// Per-bias-level delay and leakage tables for every library cell.
///
/// This is the artifact the paper builds in its pre-processing phase:
/// *"For each of the gates in the library, we characterized its delay
/// increase and average leakage power for different body bias voltages."*
#[derive(Debug, Clone, PartialEq)]
pub struct Characterization {
    ladder: BiasLadder,
    model: BodyBiasModel,
    library: Library,
    levels: usize,
    delay: Vec<f64>,   // [cell.index() * levels + level]
    leakage: Vec<f64>, // [cell.index() * levels + level]
    speedup: Vec<f64>, // [level]
}

impl Characterization {
    /// The bias ladder this table was built for.
    pub fn ladder(&self) -> &BiasLadder {
        &self.ladder
    }

    /// The body-bias model this table was built from.
    pub fn model(&self) -> &BodyBiasModel {
        &self.model
    }

    /// The nominal library this table was built from.
    pub fn library(&self) -> &Library {
        &self.library
    }

    /// Number of bias levels `P`.
    pub fn level_count(&self) -> usize {
        self.levels
    }

    /// Delay of `cell` at bias-ladder index `level`, in picoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `level >= self.level_count()`.
    pub fn delay_ps(&self, cell: Cell, level: usize) -> f64 {
        assert!(level < self.levels, "bias level {level} out of range");
        self.delay[cell.index() * self.levels + level]
    }

    /// Leakage of `cell` at bias-ladder index `level`, in nanowatts.
    ///
    /// # Panics
    ///
    /// Panics if `level >= self.level_count()`.
    pub fn leakage_nw(&self, cell: Cell, level: usize) -> f64 {
        assert!(level < self.levels, "bias level {level} out of range");
        self.leakage[cell.index() * self.levels + level]
    }

    /// Fractional delay reduction at ladder index `level` relative to NBB.
    pub fn speedup_fraction(&self, level: usize) -> f64 {
        self.speedup[level]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BiasVoltage;

    fn chara() -> Characterization {
        Library::date09_45nm()
            .characterize(&BodyBiasModel::date09_45nm(), &BiasLadder::date09().unwrap())
    }

    #[test]
    fn characterization_level0_is_nominal() {
        let lib = Library::date09_45nm();
        let c = chara();
        for kind in CellKind::ALL {
            for drive in DriveStrength::ALL {
                let cell = Cell::new(kind, drive);
                assert!((c.delay_ps(cell, 0) - lib.nbb_delay_ps(cell)).abs() < 1e-12);
                assert!((c.leakage_nw(cell, 0) - lib.nbb_leakage_nw(cell)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn delay_monotonically_decreases_with_level() {
        let c = chara();
        for kind in CellKind::ALL {
            let cell = Cell::new(kind, DriveStrength::X1);
            for j in 1..c.level_count() {
                assert!(c.delay_ps(cell, j) < c.delay_ps(cell, j - 1));
            }
        }
    }

    #[test]
    fn leakage_monotonically_increases_with_level() {
        let c = chara();
        for kind in CellKind::ALL {
            let cell = Cell::new(kind, DriveStrength::X1);
            for j in 1..c.level_count() {
                assert!(c.leakage_nw(cell, j) > c.leakage_nw(cell, j - 1));
            }
        }
    }

    #[test]
    fn speedup_fraction_matches_model() {
        let c = chara();
        let m = BodyBiasModel::date09_45nm();
        assert_eq!(c.speedup_fraction(0), 0.0);
        let v = BiasVoltage::from_millivolts(500);
        assert!((c.speedup_fraction(10) - m.speedup_fraction(v)).abs() < 1e-12);
    }

    #[test]
    fn delay_reduction_is_consistent() {
        let c = chara();
        let cell = Cell::new(CellKind::Nand2, DriveStrength::X1);
        assert!(c.delay_ps(cell, 10) < c.delay_ps(cell, 0));
    }

    #[test]
    fn widths_grow_with_drive() {
        let lib = Library::date09_45nm();
        for kind in CellKind::ALL {
            let w1 = lib.width_sites(Cell::new(kind, DriveStrength::X1));
            let w4 = lib.width_sites(Cell::new(kind, DriveStrength::X4));
            assert!(w4 > w1, "{kind}: X4 width {w4} <= X1 width {w1}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_level_panics() {
        let c = chara();
        let _ = c.delay_ps(Cell::new(CellKind::Inv, DriveStrength::X1), 11);
    }
}
