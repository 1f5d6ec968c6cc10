//! The nine-design benchmark suite of the paper's Table 1.
//!
//! Each entry pairs a generated circuit with the paper's reported statistics
//! so the experiment harness can print paper-vs-measured columns.

use crate::generators::{
    adder_comparator, alu, alu_selector, array_multiplier, carry_select_adder, ecc_corrector,
    random_logic, RandomLogicOptions,
};
use crate::{merge, Netlist};

/// Paper-reported statistics for one Table 1 design.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperStats {
    /// Design name as printed in Table 1.
    pub name: &'static str,
    /// Gate count reported in the paper.
    pub gates: usize,
    /// Row count reported in the paper.
    pub rows: usize,
    /// Single-BB leakage (µW) at β = 5% and β = 10%.
    pub single_bb_uw: [f64; 2],
    /// Timing-constraint counts (`No.Constr`) at β = 5% and β = 10%.
    pub constraints: [usize; 2],
    /// ILP savings % for (β=5,C=2), (β=5,C=3), (β=10,C=2), (β=10,C=3);
    /// `None` where the paper's ILP did not converge.
    pub ilp_savings: Option<[f64; 4]>,
    /// Heuristic savings % in the same order.
    pub heuristic_savings: [f64; 4],
}

impl std::str::FromStr for PaperStats {
    type Err = String;

    /// Looks up a Table 1 design by name; the error names it and lists the
    /// valid names, so a `--design` flag rejects a typo before any work.
    fn from_str(name: &str) -> Result<Self, String> {
        PAPER_TABLE1.iter().find(|s| s.name == name).copied().ok_or_else(|| {
            let names: Vec<&str> = PAPER_TABLE1.iter().map(|s| s.name).collect();
            format!("{name} is not a Table 1 design; use one of {}", names.join(", "))
        })
    }
}

/// The Table 1 rows exactly as published.
pub const PAPER_TABLE1: [PaperStats; 9] = [
    PaperStats {
        name: "c1355",
        gates: 439,
        rows: 13,
        single_bb_uw: [0.17, 0.33],
        constraints: [32, 72],
        ilp_savings: Some([11.76, 17.65, 30.30, 33.33]),
        heuristic_savings: [11.76, 11.76, 27.27, 30.30],
    },
    PaperStats {
        name: "c3540",
        gates: 842,
        rows: 15,
        single_bb_uw: [0.42, 0.82],
        constraints: [31, 70],
        ilp_savings: Some([23.08, 23.08, 40.82, 44.90]),
        heuristic_savings: [11.54, 19.23, 30.61, 34.69],
    },
    PaperStats {
        name: "c5315",
        gates: 1308,
        rows: 23,
        single_bb_uw: [0.26, 0.49],
        constraints: [11, 33],
        ilp_savings: Some([21.43, 21.43, 46.34, 47.56]),
        heuristic_savings: [16.67, 16.67, 31.71, 36.59],
    },
    PaperStats {
        name: "c7552",
        gates: 1666,
        rows: 26,
        single_bb_uw: [0.63, 1.23],
        constraints: [5, 11],
        ilp_savings: Some([19.05, 20.63, 44.72, 47.15]),
        heuristic_savings: [17.46, 17.46, 30.89, 36.59],
    },
    PaperStats {
        name: "adder_128bits",
        gates: 2026,
        rows: 28,
        single_bb_uw: [1.43, 2.26],
        constraints: [26, 55],
        ilp_savings: Some([26.57, 30.07, 28.76, 33.63]),
        heuristic_savings: [23.08, 25.17, 20.80, 25.22],
    },
    PaperStats {
        name: "c6288",
        gates: 2740,
        rows: 33,
        single_bb_uw: [1.74, 3.38],
        constraints: [773, 810],
        ilp_savings: Some([4.60, 5.17, 22.78, 23.96]),
        heuristic_savings: [3.45, 3.45, 18.64, 18.64],
    },
    PaperStats {
        name: "Industrial1",
        gates: 4219,
        rows: 41,
        single_bb_uw: [3.07, 6.13],
        constraints: [136, 237],
        ilp_savings: Some([20.85, 24.76, 33.77, 36.22]),
        heuristic_savings: [16.94, 18.57, 22.51, 24.63],
    },
    PaperStats {
        name: "Industrial2",
        gates: 10464,
        rows: 63,
        single_bb_uw: [5.83, 11.36],
        constraints: [489, 1502],
        ilp_savings: None,
        heuristic_savings: [8.58, 8.58, 24.74, 24.74],
    },
    PaperStats {
        name: "Industrial3",
        gates: 23898,
        rows: 94,
        single_bb_uw: [12.25, 23.88],
        constraints: [1012, 2867],
        ilp_savings: None,
        heuristic_savings: [15.67, 16.41, 25.21, 25.21],
    },
];

/// Generates the circuit standing in for the named Table 1 design.
///
/// Returns `None` for names not in the suite.
pub fn generate(name: &str) -> Option<Netlist> {
    let nl = match name {
        // Hamming SEC network, NAND-mapped correctors (c1355 is a 32-bit
        // single-error-correcting circuit).
        "c1355" => ecc_corrector("c1355", 32, true).expect("generator is valid"),
        // Bank of small ALUs (c3540 is an 8-bit ALU; several timing
        // islands of slightly different width give the design a realistic
        // slack distribution across rows).
        "c3540" => merge(
            "c3540",
            &[9u32, 9, 8, 8]
                .iter()
                .map(|&w| alu("alu", w).expect("generator is valid"))
                .collect::<Vec<_>>(),
        ),
        // Bank of compare/select ALUs (c5315 is a 9-bit ALU with selection).
        "c5315" => merge(
            "c5315",
            &[9u32, 9, 9]
                .iter()
                .map(|&w| alu_selector("sel", w).expect("generator is valid"))
                .collect::<Vec<_>>(),
        ),
        // Bank of 34-bit adder/comparators with parity (c7552 is a 34-bit
        // adder/comparator).
        "c7552" => merge(
            "c7552",
            &[34u32, 34, 33]
                .iter()
                .map(|&w| adder_comparator("ac", w).expect("generator is valid"))
                .collect::<Vec<_>>(),
        ),
        "adder_128bits" => {
            carry_select_adder("adder_128bits", 128, 8).expect("generator is valid")
        }
        // 16x16 NOR-cell array multiplier.
        "c6288" => array_multiplier("c6288", 16).expect("generator is valid"),
        "Industrial1" => random_logic(
            "Industrial1",
            &RandomLogicOptions::industrial(4219, 256, 0xEDA1),
        )
        .expect("generator is valid"),
        "Industrial2" => random_logic(
            "Industrial2",
            &RandomLogicOptions::industrial(10464, 512, 0xEDA2),
        )
        .expect("generator is valid"),
        "Industrial3" => random_logic(
            "Industrial3",
            &RandomLogicOptions::industrial(23898, 1024, 0xEDA3),
        )
        .expect("generator is valid"),
        _ => return None,
    };
    Some(nl)
}

/// Generates the full nine-design suite paired with paper statistics.
pub fn table1_designs() -> Vec<(PaperStats, Netlist)> {
    PAPER_TABLE1
        .iter()
        .map(|stats| {
            (
                *stats,
                generate(stats.name).expect("every PAPER_TABLE1 name is generatable"),
            )
        })
        .collect()
}

/// The subset of the suite small enough for exhaustive/exact experiments
/// (the designs where the paper reports ILP results).
pub fn ilp_tractable_names() -> &'static [&'static str] {
    &["c1355", "c3540", "c5315", "c7552", "adder_128bits", "c6288", "Industrial1"]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_design_generates_and_validates() {
        // Industrial2/3 are exercised in release-mode experiments; keep the
        // unit test quick with the seven smaller designs.
        for name in ilp_tractable_names() {
            let nl = generate(name).unwrap();
            nl.validate().unwrap();
            assert!(nl.gate_count() > 300, "{name} too small");
        }
    }

    #[test]
    fn gate_counts_match_paper_size_class() {
        for stats in &PAPER_TABLE1[..7] {
            let nl = generate(stats.name).unwrap();
            let got = nl.gate_count() as f64;
            let want = stats.gates as f64;
            let ratio = got / want;
            assert!(
                (0.65..=1.35).contains(&ratio),
                "{}: generated {} vs paper {} (ratio {ratio:.2})",
                stats.name,
                nl.gate_count(),
                stats.gates
            );
        }
    }

    #[test]
    fn industrial_designs_hit_exact_counts() {
        let nl = generate("Industrial2").unwrap();
        assert_eq!(nl.gate_count(), 10464);
    }

    #[test]
    fn unknown_design_is_none() {
        assert!(generate("c17").is_none());
        assert_eq!("c6288".parse::<PaperStats>().map(|s| s.name), Ok("c6288"));
        let err = "adder:16".parse::<PaperStats>().unwrap_err();
        assert!(err.starts_with("adder:16 is not a Table 1 design; use one of c1355,"), "{err}");
    }
}
