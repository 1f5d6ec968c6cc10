//! Seeded random-instance generators for the differential harness.
//!
//! Everything here is a pure function of the seed: no wall-clock, no global
//! state. The per-case RNG is derived with a splitmix64 mix of
//! `(suite seed, case index)` so that any failing case can be replayed in
//! isolation from its `(seed, case)` pair alone.

use fbb_core::{PathConstraint, Preprocessed};
use fbb_lp::{Model, Sense};
use fbb_netlist::{generators, Netlist};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// Derives the deterministic per-case RNG for `(seed, case)`.
pub fn case_rng(seed: u64, case: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(splitmix64(seed ^ splitmix64(case)))
}

/// The splitmix64 finalizer — a cheap, well-mixed u64→u64 permutation.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Row sense of an [`LpInstance`] constraint. Deliberately *not*
/// [`fbb_lp::Sense`]: the oracle formulation shares no types with the engine
/// and the conversions happen in exactly one place ([`LpInstance::to_model`]
/// and [`LpInstance::from_model`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowSense {
    /// `Σ a·x ≤ rhs`.
    Le,
    /// `Σ a·x = rhs`.
    Eq,
    /// `Σ a·x ≥ rhs`.
    Ge,
}

/// One linear constraint row.
#[derive(Debug, Clone, PartialEq)]
pub struct LpRow {
    /// Sparse `(variable, coefficient)` terms; variable indices are distinct.
    pub terms: Vec<(usize, f64)>,
    /// Row sense.
    pub sense: RowSense,
    /// Right-hand side.
    pub rhs: f64,
}

/// A neutral LP description: minimize `objective · x` subject to `rows` and
/// finite box bounds `lower ≤ x ≤ upper`.
///
/// Finite bounds keep every instance provably bounded, so the dense oracle
/// never has to certify unboundedness and every engine/oracle disagreement
/// is a real defect rather than a representation gap.
#[derive(Debug, Clone, PartialEq)]
pub struct LpInstance {
    /// Objective coefficients (to minimize), one per variable.
    pub objective: Vec<f64>,
    /// Finite lower bounds.
    pub lower: Vec<f64>,
    /// Finite upper bounds (`upper[j] >= lower[j]`; equality = fixed var).
    pub upper: Vec<f64>,
    /// Constraint rows.
    pub rows: Vec<LpRow>,
}

impl LpInstance {
    /// Number of variables.
    pub fn var_count(&self) -> usize {
        self.objective.len()
    }

    /// Converts the instance into an `fbb_lp::Model` (the only place the
    /// oracle world touches engine types).
    pub fn to_model(&self) -> Model {
        let mut model = Model::new();
        for j in 0..self.var_count() {
            model.add_continuous(self.lower[j], self.upper[j], self.objective[j]);
        }
        for row in &self.rows {
            let sense = match row.sense {
                RowSense::Le => Sense::Le,
                RowSense::Eq => Sense::Eq,
                RowSense::Ge => Sense::Ge,
            };
            model
                .add_constraint(row.terms.clone(), sense, row.rhs)
                .expect("generated rows reference valid variables with finite data");
        }
        model
    }

    /// Reads the LP relaxation of an `fbb_lp::Model` (integrality dropped)
    /// into the neutral form — the inverse of [`LpInstance::to_model`].
    /// The dense oracle only accepts finite bounds; that is checked when it
    /// solves, not here.
    pub fn from_model(model: &Model) -> LpInstance {
        let n = model.var_count();
        let (lower, upper) = (0..n).filter_map(|j| model.var_bounds(j)).unzip();
        LpInstance {
            objective: (0..n).filter_map(|j| model.var_objective(j)).collect(),
            lower,
            upper,
            rows: model
                .rows()
                .map(|row| LpRow {
                    terms: row.terms.to_vec(),
                    sense: match row.sense {
                        Sense::Le => RowSense::Le,
                        Sense::Eq => RowSense::Eq,
                        Sense::Ge => RowSense::Ge,
                    },
                    rhs: row.rhs,
                })
                .collect(),
        }
    }
}

/// Generates a random box-bounded LP with 1–5 variables and 0–5 rows.
///
/// Rows are anchored at a random interior reference point: each row is
/// satisfied there with high probability (feasible-leaning mix), violated by
/// a margin of at least 0.1 otherwise — large enough that the engine's and
/// the oracle's feasibility tolerances cannot disagree about the verdict.
/// About one instance in ten also duplicates a row (primal degeneracy) and
/// one variable in ten is fixed (`lower == upper`, a zero-width box).
pub fn random_lp(rng: &mut ChaCha8Rng) -> LpInstance {
    let n = rng.gen_range(1..=5usize);
    let mut lower = Vec::with_capacity(n);
    let mut upper = Vec::with_capacity(n);
    let mut objective = Vec::with_capacity(n);
    let mut reference = Vec::with_capacity(n);
    for _ in 0..n {
        let lo: f64 = rng.gen_range(-4.0..4.0);
        let width: f64 = if rng.gen_bool(0.1) { 0.0 } else { rng.gen_range(0.5..8.0) };
        lower.push(lo);
        upper.push(lo + width);
        objective.push(rng.gen_range(-10.0..10.0));
        reference.push(lo + width * rng.gen_range(0.0..1.0));
    }

    let m = rng.gen_range(0..=5usize);
    let mut rows = Vec::with_capacity(m + 1);
    for _ in 0..m {
        let k = rng.gen_range(1..=n);
        let start = rng.gen_range(0..n);
        let mut terms = Vec::with_capacity(k);
        for off in 0..k {
            // k consecutive indices mod n: distinct by construction.
            let var = (start + off) % n;
            terms.push((var, rng.gen_range(-5.0..5.0)));
        }
        let lhs: f64 = terms.iter().map(|&(v, c)| c * reference[v]).sum();
        let sense = match rng.gen_range(0..3u8) {
            0 => RowSense::Le,
            1 => RowSense::Eq,
            _ => RowSense::Ge,
        };
        let violate = rng.gen_bool(0.15);
        let margin: f64 =
            if violate { -rng.gen_range::<f64, _>(0.1..3.0) } else { rng.gen_range(0.0..4.0) };
        let rhs = match sense {
            RowSense::Le => lhs + margin,
            RowSense::Ge => lhs - margin,
            // An equality is satisfied at the reference point or shifted off it.
            RowSense::Eq => lhs + if violate { margin } else { 0.0 },
        };
        rows.push(LpRow { terms, sense, rhs });
    }
    if !rows.is_empty() && rng.gen_bool(0.1) {
        let dup = rows[rng.gen_range(0..rows.len())].clone();
        rows.push(dup);
    }

    LpInstance { objective, lower, upper, rows }
}

/// Generates a random small cluster instance (1–5 rows, 2–4 levels).
///
/// Construction mirrors the engines' model conventions: per-row leakage is
/// strictly increasing in the level, and per-path reductions are
/// `delay_sum · s_j` for a shared strictly-increasing speedup ladder
/// (`s_0 = 0`), so the all-top assignment dominates every other one. Under
/// that monotonicity, an instance is uncompensable iff a path needs more
/// than the all-top reduction — roughly one path in ten is built that way,
/// so both the feasible and the infeasible verdicts get differential
/// coverage.
pub fn random_cluster(rng: &mut ChaCha8Rng) -> Preprocessed {
    let n_rows = rng.gen_range(1..=5usize);
    let levels = rng.gen_range(2..=4usize);
    let max_clusters = rng.gen_range(1..=3usize);

    // Shared speedup ladder s_0 = 0 < s_1 < ... (fraction of path delay
    // recovered at each level).
    let mut speedups = vec![0.0f64];
    for _ in 1..levels {
        let prev = *speedups.last().expect("non-empty");
        speedups.push(prev + rng.gen_range(0.02..0.08));
    }

    let mut row_leakage_nw = Vec::with_capacity(n_rows);
    for _ in 0..n_rows {
        let mut ladder = vec![rng.gen_range(1.0..10.0)];
        for _ in 1..levels {
            let prev = *ladder.last().expect("non-empty");
            ladder.push(prev + rng.gen_range(0.5..4.0));
        }
        row_leakage_nw.push(ladder);
    }

    let dcrit_ps = 100.0;
    let n_paths = rng.gen_range(1..=4usize);
    let mut paths = Vec::with_capacity(n_paths);
    let mut row_criticality = vec![0.0f64; n_rows];
    for _ in 0..n_paths {
        let mut members: Vec<usize> = (0..n_rows).filter(|_| rng.gen_bool(0.6)).collect();
        if members.is_empty() {
            members.push(rng.gen_range(0..n_rows));
        }
        let rows: Vec<(usize, Vec<f64>)> = members
            .iter()
            .map(|&row| {
                let delay_sum: f64 = rng.gen_range(5.0..40.0);
                (row, speedups.iter().map(|&s| delay_sum * s).collect())
            })
            .collect();
        let max_reduction: f64 = rows.iter().map(|(_, reds)| reds[levels - 1]).sum();
        let required_reduction_ps = if rng.gen_bool(0.1) {
            max_reduction * rng.gen_range(1.05..1.5) // uncompensable path
        } else {
            max_reduction * rng.gen_range(0.15..0.95)
        };
        for &row in &members {
            row_criticality[row] += 1.0;
        }
        paths.push(PathConstraint {
            degraded_delay_ps: dcrit_ps + required_reduction_ps,
            required_reduction_ps,
            nominal_delay_ps: (dcrit_ps + required_reduction_ps) / 1.05,
            rows,
        });
    }

    Preprocessed {
        n_rows,
        levels,
        beta: 0.05,
        max_clusters,
        dcrit_ps,
        row_leakage_nw,
        row_criticality,
        paths,
    }
}

/// A random STA workload: a netlist, its initial per-gate delays, and a
/// sequence of single-gate delay changes to replay incrementally.
#[derive(Debug, Clone)]
pub struct StaCase {
    /// The generated (acyclic, possibly registered) netlist.
    pub netlist: Netlist,
    /// Initial delay per gate, ps.
    pub delays_ps: Vec<f64>,
    /// `(gate index, new delay)` flips, applied in order.
    pub flips: Vec<(usize, f64)>,
}

/// Generates a random STA case: 20–50 gates of random logic (30% of cases
/// registered) plus 1–4 delay flips. The gate floor keeps `target_gates >
/// n_inputs + 8`, which `random_logic` demands for registered designs.
pub fn random_sta(rng: &mut ChaCha8Rng) -> StaCase {
    let netlist = generators::random_logic(
        "difftest",
        &generators::RandomLogicOptions {
            target_gates: rng.gen_range(20..=50usize),
            n_inputs: rng.gen_range(4..=8usize),
            seed: rng.next_u64(),
            registered: rng.gen_bool(0.3),
            locality_window: 8,
        },
    )
    .expect("random_logic options are in-range");
    let n = netlist.gate_count();
    let delays_ps: Vec<f64> = (0..n).map(|_| rng.gen_range(1.0..20.0)).collect();
    let n_flips = rng.gen_range(1..=4usize);
    let flips: Vec<(usize, f64)> =
        (0..n_flips).map(|_| (rng.gen_range(0..n), rng.gen_range(1.0..20.0))).collect();
    StaCase { netlist, delays_ps, flips }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic_per_seed() {
        let a = random_lp(&mut case_rng(7, 3));
        let b = random_lp(&mut case_rng(7, 3));
        assert_eq!(a, b);
        let c = random_cluster(&mut case_rng(7, 3));
        let d = random_cluster(&mut case_rng(7, 3));
        assert_eq!(c, d);
        let e = random_sta(&mut case_rng(7, 3));
        let f = random_sta(&mut case_rng(7, 3));
        assert_eq!(e.delays_ps, f.delays_ps);
        assert_eq!(e.flips, f.flips);
        assert_eq!(e.netlist.gate_count(), f.netlist.gate_count());
    }

    #[test]
    fn different_cases_differ() {
        let a = random_lp(&mut case_rng(7, 3));
        let b = random_lp(&mut case_rng(7, 4));
        assert_ne!(a, b);
    }

    #[test]
    fn cluster_instances_are_monotone() {
        for case in 0..50 {
            let pre = random_cluster(&mut case_rng(11, case));
            for ladder in &pre.row_leakage_nw {
                assert!(ladder.windows(2).all(|w| w[1] > w[0]));
            }
            for path in &pre.paths {
                for (_, reds) in &path.rows {
                    assert_eq!(reds[0], 0.0);
                    assert!(reds.windows(2).all(|w| w[1] > w[0]));
                }
            }
        }
    }

    #[test]
    fn lp_bounds_are_finite_and_ordered() {
        for case in 0..100 {
            let inst = random_lp(&mut case_rng(13, case));
            for j in 0..inst.var_count() {
                assert!(inst.lower[j].is_finite() && inst.upper[j].is_finite());
                assert!(inst.upper[j] >= inst.lower[j]);
            }
            // The model conversion must accept every generated instance
            // and round-trip it exactly.
            assert_eq!(inst.to_model().var_count(), inst.var_count());
            assert_eq!(LpInstance::from_model(&inst.to_model()), inst);
        }
    }
}
