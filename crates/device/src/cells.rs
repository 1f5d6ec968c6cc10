//! The reduced standard-cell library of the paper's experimental setup.

use std::fmt;
use std::str::FromStr;

use crate::DeviceError;

/// Logic function of a standard cell.
///
/// The paper synthesizes its benchmarks with "a reduced library of gates
/// consisting of inverters, and, or, nor, nand and D-flip-flops of different
/// drive strength" (§5). We add buffers and XOR/XNOR, which the arithmetic
/// generators use; they behave identically under body bias.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CellKind {
    /// Inverter.
    Inv,
    /// Non-inverting buffer.
    Buf,
    /// 2-input NAND.
    Nand2,
    /// 3-input NAND.
    Nand3,
    /// 4-input NAND.
    Nand4,
    /// 2-input NOR.
    Nor2,
    /// 3-input NOR.
    Nor3,
    /// 2-input AND.
    And2,
    /// 2-input OR.
    Or2,
    /// 2-input XOR.
    Xor2,
    /// 2-input XNOR.
    Xnor2,
    /// Positive-edge D flip-flop.
    Dff,
}

impl CellKind {
    /// All cell kinds, in a stable order (useful for table indexing).
    pub const ALL: [CellKind; 12] = [
        CellKind::Inv,
        CellKind::Buf,
        CellKind::Nand2,
        CellKind::Nand3,
        CellKind::Nand4,
        CellKind::Nor2,
        CellKind::Nor3,
        CellKind::And2,
        CellKind::Or2,
        CellKind::Xor2,
        CellKind::Xnor2,
        CellKind::Dff,
    ];

    /// Number of logic data inputs (the DFF counts its D pin only; clock is
    /// implicit).
    pub const fn input_count(self) -> usize {
        match self {
            CellKind::Inv | CellKind::Buf | CellKind::Dff => 1,
            CellKind::Nand2
            | CellKind::Nor2
            | CellKind::And2
            | CellKind::Or2
            | CellKind::Xor2
            | CellKind::Xnor2 => 2,
            CellKind::Nand3 | CellKind::Nor3 => 3,
            CellKind::Nand4 => 4,
        }
    }

    /// Whether this cell is a sequential element (a timing start/end point).
    pub const fn is_sequential(self) -> bool {
        matches!(self, CellKind::Dff)
    }

    /// Dense index into [`CellKind::ALL`] (the discriminant; `ALL` lists the
    /// variants in declaration order, which `all_matches_declaration_order`
    /// pins down).
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Canonical upper-case name, as used by the netlist text format.
    pub const fn name(self) -> &'static str {
        match self {
            CellKind::Inv => "INV",
            CellKind::Buf => "BUF",
            CellKind::Nand2 => "NAND2",
            CellKind::Nand3 => "NAND3",
            CellKind::Nand4 => "NAND4",
            CellKind::Nor2 => "NOR2",
            CellKind::Nor3 => "NOR3",
            CellKind::And2 => "AND2",
            CellKind::Or2 => "OR2",
            CellKind::Xor2 => "XOR2",
            CellKind::Xnor2 => "XNOR2",
            CellKind::Dff => "DFF",
        }
    }

    /// Evaluates the cell's boolean function (combinational kinds only).
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != self.input_count()` or if called on a
    /// [`CellKind::Dff`], whose output is state, not a function of inputs.
    pub fn eval(self, inputs: &[bool]) -> bool {
        assert_eq!(
            inputs.len(),
            self.input_count(),
            "{} expects {} inputs",
            self.name(),
            self.input_count()
        );
        match self {
            CellKind::Inv => !inputs[0],
            CellKind::Buf => inputs[0],
            CellKind::Nand2 | CellKind::Nand3 | CellKind::Nand4 => !inputs.iter().all(|&b| b),
            CellKind::Nor2 | CellKind::Nor3 => !inputs.iter().any(|&b| b),
            CellKind::And2 => inputs.iter().all(|&b| b),
            CellKind::Or2 => inputs.iter().any(|&b| b),
            CellKind::Xor2 => inputs[0] ^ inputs[1],
            CellKind::Xnor2 => !(inputs[0] ^ inputs[1]),
            CellKind::Dff => panic!("DFF output is sequential state, not a boolean function"),
        }
    }
}

impl fmt::Display for CellKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for CellKind {
    type Err = DeviceError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        CellKind::ALL
            .iter()
            .copied()
            .find(|k| k.name() == s)
            .ok_or_else(|| DeviceError::UnknownCell(s.to_owned()))
    }
}

/// Drive strength variant of a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum DriveStrength {
    /// Unit drive.
    #[default]
    X1,
    /// Double drive: faster, leakier, wider.
    X2,
    /// Quadruple drive.
    X4,
}

impl DriveStrength {
    /// All drive strengths in ascending order.
    pub const ALL: [DriveStrength; 3] = [DriveStrength::X1, DriveStrength::X2, DriveStrength::X4];

    /// Dense index into [`DriveStrength::ALL`].
    pub const fn index(self) -> usize {
        match self {
            DriveStrength::X1 => 0,
            DriveStrength::X2 => 1,
            DriveStrength::X4 => 2,
        }
    }

    /// Multiplier on nominal delay (larger drives are faster into the same load).
    pub const fn delay_factor(self) -> f64 {
        match self {
            DriveStrength::X1 => 1.0,
            DriveStrength::X2 => 0.85,
            DriveStrength::X4 => 0.72,
        }
    }

    /// Multiplier on nominal leakage (wider devices leak more).
    pub const fn leakage_factor(self) -> f64 {
        match self {
            DriveStrength::X1 => 1.0,
            DriveStrength::X2 => 1.9,
            DriveStrength::X4 => 3.6,
        }
    }

    /// Multiplier on nominal cell width.
    pub const fn width_factor(self) -> f64 {
        match self {
            DriveStrength::X1 => 1.0,
            DriveStrength::X2 => 1.5,
            DriveStrength::X4 => 2.5,
        }
    }

    /// Canonical name (`X1`, `X2`, `X4`).
    pub const fn name(self) -> &'static str {
        match self {
            DriveStrength::X1 => "X1",
            DriveStrength::X2 => "X2",
            DriveStrength::X4 => "X4",
        }
    }
}

impl fmt::Display for DriveStrength {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for DriveStrength {
    type Err = DeviceError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        DriveStrength::ALL
            .iter()
            .copied()
            .find(|d| d.name() == s)
            .ok_or_else(|| DeviceError::UnknownCell(format!("drive strength {s}")))
    }
}

/// A concrete library cell: a logic function at a drive strength.
///
/// ```
/// use fbb_device::{Cell, CellKind, DriveStrength};
///
/// let c = Cell::new(CellKind::Nand2, DriveStrength::X2);
/// assert_eq!(c.to_string(), "NAND2_X2");
/// assert_eq!(c.kind.input_count(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Cell {
    /// Logic function.
    pub kind: CellKind,
    /// Drive strength.
    pub drive: DriveStrength,
}

impl Cell {
    /// Creates a cell reference.
    pub const fn new(kind: CellKind, drive: DriveStrength) -> Self {
        Cell { kind, drive }
    }

    /// Dense index over all `(kind, drive)` pairs.
    pub fn index(self) -> usize {
        self.kind.index() * DriveStrength::ALL.len() + self.drive.index()
    }

    /// Total number of distinct cells in the library.
    pub const fn count() -> usize {
        CellKind::ALL.len() * DriveStrength::ALL.len()
    }
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}_{}", self.kind, self.drive)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_roundtrip() {
        for k in CellKind::ALL {
            assert_eq!(k.name().parse::<CellKind>().unwrap(), k);
        }
        assert!("FOO".parse::<CellKind>().is_err());
    }

    #[test]
    fn drive_names_roundtrip() {
        for d in DriveStrength::ALL {
            assert_eq!(d.name().parse::<DriveStrength>().unwrap(), d);
        }
        assert!("X8".parse::<DriveStrength>().is_err());
    }

    #[test]
    fn input_counts() {
        assert_eq!(CellKind::Inv.input_count(), 1);
        assert_eq!(CellKind::Nand2.input_count(), 2);
        assert_eq!(CellKind::Nand3.input_count(), 3);
        assert_eq!(CellKind::Nand4.input_count(), 4);
        assert_eq!(CellKind::Dff.input_count(), 1);
    }

    #[test]
    fn boolean_functions() {
        assert!(CellKind::Inv.eval(&[false]));
        assert!(!CellKind::Nand2.eval(&[true, true]));
        assert!(CellKind::Nand2.eval(&[true, false]));
        assert!(CellKind::Nor2.eval(&[false, false]));
        assert!(!CellKind::Nor3.eval(&[false, true, false]));
        assert!(CellKind::Xor2.eval(&[true, false]));
        assert!(CellKind::Xnor2.eval(&[true, true]));
        assert!(CellKind::And2.eval(&[true, true]));
        assert!(CellKind::Or2.eval(&[false, true]));
        assert!(CellKind::Buf.eval(&[true]));
    }

    #[test]
    #[should_panic(expected = "sequential state")]
    fn dff_eval_panics() {
        let _ = CellKind::Dff.eval(&[true]);
    }

    #[test]
    fn all_matches_declaration_order() {
        // `CellKind::index` is the discriminant, so `ALL` must list the
        // variants in declaration order for table lookups to line up.
        for (i, k) in CellKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i, "ALL[{i}] = {k:?} is out of declaration order");
        }
    }

    #[test]
    fn cell_indices_are_dense_and_unique() {
        let mut seen = vec![false; Cell::count()];
        for k in CellKind::ALL {
            for d in DriveStrength::ALL {
                let i = Cell::new(k, d).index();
                assert!(!seen[i], "duplicate index {i}");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn bigger_drives_are_faster_and_leakier() {
        let mut prev_delay = f64::INFINITY;
        let mut prev_leak = 0.0;
        for d in DriveStrength::ALL {
            assert!(d.delay_factor() < prev_delay);
            assert!(d.leakage_factor() > prev_leak);
            prev_delay = d.delay_factor();
            prev_leak = d.leakage_factor();
        }
    }

    #[test]
    fn only_dff_is_sequential() {
        for k in CellKind::ALL {
            assert_eq!(k.is_sequential(), k == CellKind::Dff);
        }
    }
}
