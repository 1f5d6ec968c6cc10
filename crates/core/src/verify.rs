//! The delay model and the one timing verifier every reported answer goes
//! through. The allocators certify an assignment only against the pruned
//! path set Π; an answer is trusted once full STA of the die the optimizer
//! saw, tuned by the answer's row biases, meets the target, strictly.

use fbb_device::Characterization;
use fbb_netlist::{GateId, Netlist};
use fbb_placement::Placement;
use fbb_sta::TimingGraph;

use crate::FbbError;

/// Amplitude of the per-instance delay jitter (±5 %). Library
/// characterization gives every instance of a cell the same delay; a
/// deterministic perturbation per gate id (a stand-in for fanout and wire
/// loading) restores the path-delay diversity real designs have.
pub const INSTANCE_JITTER: f64 = 0.05;

/// The nominal (NBB) per-gate delays: level-0 library delays, each jittered
/// by up to ±[`INSTANCE_JITTER`]. This is the STA input of the
/// pre-processing, the delays a design database stores, and the die
/// [`TunedDie`] re-times.
pub fn nominal_delays(netlist: &Netlist, chara: &Characterization) -> Vec<f64> {
    netlist
        .gates()
        .iter()
        .enumerate()
        .map(|(i, g)| {
            // Weyl-sequence hash in [-1, 1).
            let h = ((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11) as f64
                / (1u64 << 53) as f64;
            chara.delay_ps(g.cell, 0) * (1.0 + INSTANCE_JITTER * (2.0 * h - 1.0))
        })
        .collect()
}

/// A placed, characterized die ready to be re-timed under row biases.
#[derive(Debug)]
pub struct TunedDie<'a> {
    graph: TimingGraph<'a>,
    row_of: Vec<usize>,
    speedup: Vec<f64>,
    nominal: Vec<f64>,
}

impl<'a> TunedDie<'a> {
    /// Captures the timing graph, gate→row map, per-level speed-ups and
    /// nominal delays of a placed, characterized design.
    ///
    /// # Errors
    ///
    /// Returns [`FbbError::Placement`] if the placement does not cover the
    /// netlist and [`FbbError::Netlist`] if it has combinational cycles.
    pub fn new(
        netlist: &'a Netlist,
        placement: &Placement,
        chara: &Characterization,
    ) -> Result<Self, FbbError> {
        placement.validate(netlist)?;
        Ok(TunedDie {
            graph: TimingGraph::new(netlist)?,
            row_of: (0..netlist.gate_count())
                .map(|i| placement.row_of(GateId::from_index(i)).index())
                .collect(),
            speedup: (0..chara.level_count()).map(|j| chara.speedup_fraction(j)).collect(),
            nominal: nominal_delays(netlist, chara),
        })
    }

    /// The die's nominal per-gate delays (see [`nominal_delays`]).
    pub fn nominal_delays(&self) -> &[f64] {
        &self.nominal
    }

    /// The die's timing graph, for analyses of untuned delay vectors.
    pub fn graph(&self) -> &TimingGraph<'a> {
        &self.graph
    }

    /// Critical delay by one full STA of the die `base` tuned by
    /// `assignment`: gate `g` gets `base[g] × (1 − s[level of g's row])`.
    ///
    /// # Panics
    ///
    /// Panics if `base` is not one delay per gate, or `assignment` misses a
    /// row or names a level the characterization does not have.
    pub fn tuned_dcrit_ps(&self, base: &[f64], assignment: &[usize]) -> f64 {
        let tuned: Vec<f64> = base
            .iter()
            .zip(&self.row_of)
            .map(|(&d, &row)| d * (1.0 - self.speedup[assignment[row]]))
            .collect();
        self.graph.analyze(&tuned).dcrit_ps()
    }

    /// Judges `assignment` on the die `base` (a sampled die, say) against
    /// `target_ps`. Panics as [`TunedDie::tuned_dcrit_ps`] does.
    pub fn judge(&self, base: &[f64], target_ps: f64, assignment: &[usize]) -> Verdict {
        Verdict { tuned_dcrit_ps: self.tuned_dcrit_ps(base, assignment), target_ps }
    }

    /// Judges `assignment` on the die the optimizer saw at slowdown `beta`:
    /// gate `g` gets `nominal[g] × (1 + β) × (1 − s[level])`, multiplied in
    /// that order. Panics as [`TunedDie::tuned_dcrit_ps`] does.
    pub fn verify(&self, beta: f64, target_ps: f64, assignment: &[usize]) -> Verdict {
        let degraded: Vec<f64> = self.nominal.iter().map(|d| d * (1.0 + beta)).collect();
        self.judge(&degraded, target_ps, assignment)
    }
}

/// The verifier's judgement of one answer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Verdict {
    /// Critical delay of the tuned die, ps.
    pub tuned_dcrit_ps: f64,
    /// The critical delay the answer must meet, ps.
    pub target_ps: f64,
}

impl Verdict {
    /// Whether the tuned die meets the target: strictly, with no margin.
    pub fn met(&self) -> bool {
        self.tuned_dcrit_ps <= self.target_ps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FbbProblem;
    use fbb_device::{BiasLadder, BodyBiasModel, Library};
    use fbb_netlist::generators;
    use fbb_placement::{Placer, PlacerOptions};

    fn setup() -> (Netlist, Placement, Characterization) {
        let nl = generators::alu("alu16", 16).unwrap();
        let lib = Library::date09_45nm();
        let placement = Placer::new(PlacerOptions::with_target_rows(9)).place(&nl, &lib).unwrap();
        let chara = lib.characterize(&BodyBiasModel::date09_45nm(), &BiasLadder::date09().unwrap());
        (nl, placement, chara)
    }

    #[test]
    fn all_nbb_at_beta_zero_is_the_preprocessed_die() {
        let (nl, p, c) = setup();
        let pre = FbbProblem::new(&nl, &p, &c, 0.05, 3).unwrap().preprocess().unwrap();
        let die = TunedDie::new(&nl, &p, &c).unwrap();
        let nbb = vec![0; pre.n_rows];
        assert_eq!(die.tuned_dcrit_ps(die.nominal_delays(), &nbb).to_bits(), pre.dcrit_ps.to_bits());
        let v = die.verify(0.0, pre.dcrit_ps, &nbb);
        assert_eq!(v.tuned_dcrit_ps.to_bits(), pre.dcrit_ps.to_bits());
        assert!(v.met());
    }

    #[test]
    fn an_unbiased_slow_die_is_flagged() {
        let (nl, p, c) = setup();
        let pre = FbbProblem::new(&nl, &p, &c, 0.05, 3).unwrap().preprocess().unwrap();
        let v = TunedDie::new(&nl, &p, &c).unwrap().verify(0.05, pre.dcrit_ps, &vec![0; pre.n_rows]);
        assert!(!v.met());
        assert!(v.tuned_dcrit_ps > 1.04 * pre.dcrit_ps, "{v:?}");
    }

    #[test]
    fn tuned_dcrit_follows_the_explicit_formula() {
        let (nl, p, c) = setup();
        let die = TunedDie::new(&nl, &p, &c).unwrap();
        let assignment: Vec<usize> = (0..p.row_count()).map(|r| (3 * r) % c.level_count()).collect();
        let beta = 0.07;
        let tuned: Vec<f64> = nominal_delays(&nl, &c)
            .iter()
            .enumerate()
            .map(|(i, &d)| {
                let row = p.row_of(GateId::from_index(i)).index();
                d * (1.0 + beta) * (1.0 - c.speedup_fraction(assignment[row]))
            })
            .collect();
        let expected = TimingGraph::new(&nl).unwrap().analyze(&tuned).dcrit_ps();
        let v = die.verify(beta, 0.0, &assignment);
        assert_eq!(v.tuned_dcrit_ps.to_bits(), expected.to_bits());
        assert!(!v.met(), "no die meets a zero target");
    }
}
