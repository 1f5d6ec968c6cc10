//! The two-pass linear-time heuristic (paper Fig. 5).

use fbb_lp::deadline::Stopwatch;

use fbb_sta::par;

use crate::{check_timing, CheckState, ClusterSolution, FbbError, Preprocessed};

/// `PassOne`: find the lowest uniform bias level `jopt` at which every
/// constraint holds with *all* rows biased to it.
///
/// With more than one worker available, all ladder levels are checked
/// speculatively in parallel (the ladder is short, each check is a full
/// constraint sweep, and feasibility is monotone in the level, so wall-clock
/// collapses to one check). On a single worker the scan stays lazy and
/// stops at the first feasible level, exactly as the paper's pseudocode.
///
/// Returns `None` when even the top of the ladder cannot compensate β —
/// the paper's `FALSE` outcome.
pub fn pass_one(pre: &Preprocessed) -> Option<usize> {
    fbb_telemetry::counter("core_pass_one_scans", 1);
    let check = |j: usize| {
        // NOTE: probe counts legitimately differ between the lazy serial
        // scan and the eager parallel scan, so `core_pass_one_probes` is
        // excluded from cross-`FBB_THREADS` determinism comparisons.
        fbb_telemetry::counter("core_pass_one_probes", 1);
        let assignment = vec![j; pre.n_rows];
        check_timing(pre, &assignment).is_ok()
    };
    if par::worker_count(pre.levels) <= 1 {
        return (0..pre.levels).find(|&j| check(j));
    }
    let feasible = par::parallel_gen(pre.levels, check);
    feasible.iter().position(|&ok| ok)
}

/// `PassOne` restricted to a subset of ladder levels (ascending order not
/// required): the lowest *allowed* uniform level meeting timing. Used when a
/// shared central generator offers only some voltages to this block.
pub fn pass_one_restricted(pre: &Preprocessed, allowed: &[usize]) -> Option<usize> {
    let mut levels: Vec<usize> = allowed.iter().copied().filter(|&l| l < pre.levels).collect();
    levels.sort_unstable();
    let check = |j: usize| {
        let assignment = vec![j; pre.n_rows];
        check_timing(pre, &assignment).is_ok()
    };
    if par::worker_count(levels.len()) <= 1 {
        return levels.into_iter().find(|&j| check(j));
    }
    let feasible = par::parallel_map(&levels, |_, &j| check(j));
    levels.iter().zip(&feasible).find(|&(_, &ok)| ok).map(|(&j, _)| j)
}

/// How `PassTwo` moves rows below `jopt`.
///
/// The paper's pseudocode (Fig. 5) is ambiguous about how far a row
/// descends before the next row is tried; all three readings are provided
/// (and compared in the `ablations` bench):
///
/// * [`DescentPolicy::MaxDrop`] — each row, in ascending criticality,
///   descends to the *lowest* timing-feasible level, restricted to levels
///   that keep the cluster count within `C`. Strongest, and the only
///   reading that reproduces the paper's C = 2 savings magnitudes.
/// * [`DescentPolicy::BlockSynchronous`] — rows descend one level per
///   round; once the cluster budget is exhausted the remaining rows move
///   only en bloc.
/// * [`DescentPolicy::Literal`] — like `BlockSynchronous` but stops
///   outright when the budget is exhausted, exactly as the pseudocode's
///   `break` does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DescentPolicy {
    /// Per-row maximal descent under the cluster budget (default).
    #[default]
    MaxDrop,
    /// Level-synchronous rounds with final-block descent.
    BlockSynchronous,
    /// Level-synchronous rounds, stopping when the budget is exhausted.
    Literal,
}

/// The two-pass greedy FBB allocator.
///
/// `PassOne` finds the timing-feasible uniform voltage `jopt` (this is also
/// the block-level single-BB baseline). `PassTwo` ranks rows by the timing
/// criticality `ct_i = Σ_k Q_{i,k}/slack_k` and moves non-critical rows to
/// lower bias voltages under the cluster budget `C`, per the configured
/// [`DescentPolicy`]. Runtime is `O(P · N)` timing-check updates — linear in
/// the number of rows, as the paper reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TwoPassHeuristic {
    /// Descent policy for `PassTwo`.
    pub policy: DescentPolicy,
}

impl TwoPassHeuristic {
    /// Heuristic with the given descent policy.
    pub fn with_policy(policy: DescentPolicy) -> Self {
        TwoPassHeuristic { policy }
    }

    /// The strictly literal pseudocode variant.
    pub fn literal_paper() -> Self {
        Self::with_policy(DescentPolicy::Literal)
    }

    /// Runs both passes. `PassOne`'s level scan and `PassTwo`'s per-budget
    /// candidate ranking run on the [`fbb_sta::par`] worker pool when more
    /// than one thread is available; the result is identical either way.
    ///
    /// # Example
    ///
    /// ```
    /// use fbb_core::{FbbProblem, TwoPassHeuristic};
    /// use fbb_device::{BiasLadder, BodyBiasModel, Library};
    /// use fbb_netlist::generators;
    /// use fbb_placement::{Placer, PlacerOptions};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let netlist = generators::ripple_adder("add16", 16, false)?;
    /// let library = Library::date09_45nm();
    /// let placement =
    ///     Placer::new(PlacerOptions::with_target_rows(6)).place(&netlist, &library)?;
    /// let chara = library.characterize(&BodyBiasModel::date09_45nm(), &BiasLadder::date09()?);
    /// let pre = FbbProblem::new(&netlist, &placement, &chara, 0.05, 2)?.preprocess()?;
    ///
    /// let solution = TwoPassHeuristic::default().solve(&pre)?;
    /// assert!(solution.meets_timing);
    /// assert!(solution.clusters <= 2);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`FbbError::Uncompensable`] when `PassOne` fails.
    pub fn solve(&self, pre: &Preprocessed) -> Result<ClusterSolution, FbbError> {
        let clock = Stopwatch::start();
        let jopt = pass_one(pre).ok_or_else(|| FbbError::uncompensable(pre))?;
        let assignment = self.pass_two(pre, jopt);
        let algorithm = match self.policy {
            DescentPolicy::MaxDrop => "heuristic",
            DescentPolicy::BlockSynchronous => "heuristic-block",
            DescentPolicy::Literal => "heuristic-literal",
        };
        Ok(ClusterSolution::from_assignment(pre, assignment, algorithm, clock.runtime()))
    }

    /// Like [`TwoPassHeuristic::solve`], but only levels in `allowed` (plus
    /// level 0 if present in `allowed`) may be assigned — the shared-ladder
    /// scenario where a central generator distributes a fixed voltage menu
    /// to many blocks. Uses the `MaxDrop` policy regardless of
    /// `self.policy` (the synchronous variants assume a contiguous ladder).
    ///
    /// # Errors
    ///
    /// Returns [`FbbError::Uncompensable`] when no allowed level compensates
    /// β uniformly.
    pub fn solve_restricted(
        &self,
        pre: &Preprocessed,
        allowed: &[usize],
    ) -> Result<ClusterSolution, FbbError> {
        let clock = Stopwatch::start();
        let jopt = pass_one_restricted(pre, allowed)
            .ok_or_else(|| FbbError::uncompensable(pre))?;
        let assignment =
            par::parallel_gen(pre.max_clusters, |k| max_drop_restricted(pre, jopt, k + 1, Some(allowed)))
                .into_iter()
                .min_by(|a, b| {
                    pre.leakage_nw(a).partial_cmp(&pre.leakage_nw(b)).expect("leakage is finite")
                })
                .expect("at least one budget");
        Ok(ClusterSolution::from_assignment(
            pre,
            assignment,
            "heuristic-restricted",
            clock.runtime(),
        ))
    }

    /// `PassTwo` from a given `jopt` (exposed for the cluster-sweep
    /// experiments).
    pub fn pass_two(&self, pre: &Preprocessed, jopt: usize) -> Vec<usize> {
        if jopt == 0 || pre.n_rows == 0 {
            return vec![jopt; pre.n_rows];
        }
        match self.policy {
            DescentPolicy::MaxDrop => {
                // A larger budget can tempt the greedy into opening an
                // intermediate level early that a smaller budget would have
                // skipped, so the result is not monotone in C by
                // construction; running every budget up to C and keeping the
                // best restores monotonicity at O(C) extra linear passes.
                // Each budget's descent is independent, so the candidates are
                // ranked concurrently; the min-fold stays in budget order, so
                // the winner matches the serial sweep exactly.
                par::parallel_gen(pre.max_clusters, |k| max_drop(pre, jopt, k + 1))
                    .into_iter()
                    .min_by(|a, b| {
                        pre.leakage_nw(a)
                            .partial_cmp(&pre.leakage_nw(b))
                            .expect("leakage is finite")
                    })
                    .expect("at least one budget")
            }
            DescentPolicy::BlockSynchronous => synchronous(pre, jopt, true),
            DescentPolicy::Literal => synchronous(pre, jopt, false),
        }
    }
}

/// Rows in increasing timing criticality (least critical first), ties broken
/// by index for determinism.
fn ranked_rows(pre: &Preprocessed) -> Vec<usize> {
    let mut ranked: Vec<usize> = (0..pre.n_rows).collect();
    ranked.sort_by(|&a, &b| {
        pre.row_criticality[a]
            .partial_cmp(&pre.row_criticality[b])
            .expect("criticalities are finite")
            .then(a.cmp(&b))
    });
    ranked
}

fn max_drop(pre: &Preprocessed, jopt: usize, c_max: usize) -> Vec<usize> {
    max_drop_restricted(pre, jopt, c_max, None)
}

fn max_drop_restricted(
    pre: &Preprocessed,
    jopt: usize,
    c_max: usize,
    allowed: Option<&[usize]>,
) -> Vec<usize> {
    let mut state = CheckState::new(pre, vec![jopt; pre.n_rows]);
    debug_assert!(state.feasible(), "PassOne must hand over a feasible start");

    // Levels currently in use; jopt is always occupied by the most critical
    // rows, which never move.
    let mut open_levels: Vec<usize> = vec![jopt];
    for &row in &ranked_rows(pre) {
        // Find the lowest feasible level for this row (feasibility is
        // monotone in the level because reductions are).
        let mut target = None;
        for level in 0..jopt {
            if let Some(allowed) = allowed {
                if !allowed.contains(&level) {
                    continue;
                }
            }
            if state.try_set_level(row, level) {
                target = Some(level);
                break;
            }
        }
        let Some(level) = target else { continue };
        if !open_levels.contains(&level) {
            if open_levels.len() < c_max {
                open_levels.push(level);
            } else {
                // Budget exhausted: settle for the lowest feasible *open*
                // level instead (jopt itself always works).
                let mut candidates: Vec<usize> =
                    open_levels.iter().copied().filter(|&l| l > level).collect();
                candidates.sort_unstable();
                state.set_level(row, jopt);
                for l in candidates {
                    if state.try_set_level(row, l) {
                        break;
                    }
                }
            }
        }
    }
    state.assignment().to_vec()
}

fn synchronous(pre: &Preprocessed, jopt: usize, block_descent: bool) -> Vec<usize> {
    let c_max = pre.max_clusters;
    let mut state = CheckState::new(pre, vec![jopt; pre.n_rows]);
    debug_assert!(state.feasible(), "PassOne must hand over a feasible start");
    let ranked = ranked_rows(pre);
    let mut locked = vec![false; pre.n_rows];
    let mut clusters = 1usize;

    // Descend one level per round: unlocked rows at level j try j-1.
    let mut j = jopt;
    while j >= 1 {
        let unlocked: Vec<usize> = ranked
            .iter()
            .copied()
            .filter(|&r| !locked[r] && state.assignment()[r] == j)
            .collect();
        if unlocked.is_empty() {
            break;
        }
        if clusters < c_max {
            // Row-by-row descent; a failing row locks itself and every
            // more-critical row at level j, closing a cluster.
            let mut moved_any = false;
            let mut violated_at = None;
            for (pos, &row) in unlocked.iter().enumerate() {
                if state.try_set_level(row, j - 1) {
                    moved_any = true;
                } else {
                    violated_at = Some(pos);
                    break;
                }
            }
            if let Some(pos) = violated_at {
                if !moved_any {
                    break; // even the least critical row cannot descend
                }
                for &row in &unlocked[pos..] {
                    locked[row] = true;
                }
                clusters += 1;
            }
        } else {
            // Budget exhausted: all-or-nothing block move.
            if !block_descent {
                break;
            }
            for &row in &unlocked {
                state.set_level(row, j - 1);
            }
            if !state.feasible() {
                for &row in &unlocked {
                    state.set_level(row, j);
                }
                break;
            }
        }
        j -= 1;
    }
    state.assignment().to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FbbProblem;
    use fbb_device::{BiasLadder, BodyBiasModel, Library};
    use fbb_netlist::{generators, Netlist};
    use fbb_placement::{Placement, Placer, PlacerOptions};

    fn setup(beta: f64, c: usize) -> Preprocessed {
        let nl = generators::ripple_adder("a32", 32, false).unwrap();
        let lib = Library::date09_45nm();
        let p = Placer::new(PlacerOptions::with_target_rows(8)).place(&nl, &lib).unwrap();
        let chara = lib.characterize(&BodyBiasModel::date09_45nm(), &BiasLadder::date09().unwrap());
        FbbProblem::new(&nl, &p, &chara, beta, c).unwrap().preprocess().unwrap()
    }

    fn setup_design(nl: &Netlist, p: &Placement, beta: f64, c: usize) -> Preprocessed {
        let lib = Library::date09_45nm();
        let chara = lib.characterize(&BodyBiasModel::date09_45nm(), &BiasLadder::date09().unwrap());
        FbbProblem::new(nl, p, &chara, beta, c).unwrap().preprocess().unwrap()
    }

    #[test]
    fn pass_one_finds_minimal_uniform_level() {
        let pre = setup(0.05, 3);
        let jopt = pass_one(&pre).unwrap();
        assert!(jopt >= 1, "5% slowdown needs some bias");
        // jopt is minimal: one level below must fail.
        let below = vec![jopt - 1; pre.n_rows];
        assert!(check_timing(&pre, &below).is_err());
    }

    #[test]
    fn pass_one_beta_zero_is_nbb() {
        let pre = setup(0.0, 3);
        assert_eq!(pass_one(&pre), Some(0));
    }

    #[test]
    fn uncompensable_beta_reported() {
        // 20% slowdown is beyond the ~11% speed-up of the 0.5 V ladder.
        let pre = setup(0.20, 3);
        assert_eq!(pass_one(&pre), None);
        assert!(matches!(
            TwoPassHeuristic::default().solve(&pre),
            Err(FbbError::Uncompensable { .. })
        ));
    }

    #[test]
    fn all_policies_meet_timing_and_budget() {
        for policy in
            [DescentPolicy::MaxDrop, DescentPolicy::BlockSynchronous, DescentPolicy::Literal]
        {
            for beta in [0.05, 0.10] {
                for c in [1, 2, 3] {
                    let pre = setup(beta, c);
                    let sol = TwoPassHeuristic::with_policy(policy).solve(&pre).unwrap();
                    assert!(sol.meets_timing, "{policy:?} beta={beta} C={c}");
                    assert!(
                        sol.clusters <= c,
                        "{policy:?} beta={beta} C={c}: {} clusters",
                        sol.clusters
                    );
                }
            }
        }
    }

    #[test]
    fn heuristic_saves_leakage_vs_uniform() {
        let pre = setup(0.05, 3);
        let jopt = pass_one(&pre).unwrap();
        let uniform = pre.leakage_nw(&vec![jopt; pre.n_rows]);
        let sol = TwoPassHeuristic::default().solve(&pre).unwrap();
        assert!(sol.leakage_nw < uniform, "{} !< {uniform}", sol.leakage_nw);
    }

    #[test]
    fn every_policy_beats_or_matches_single_bb() {
        for (beta, c) in [(0.05, 2), (0.10, 2), (0.10, 3)] {
            let pre = setup(beta, c);
            let uniform = pre.leakage_nw(&vec![pass_one(&pre).unwrap(); pre.n_rows]);
            for policy in
                [DescentPolicy::MaxDrop, DescentPolicy::BlockSynchronous, DescentPolicy::Literal]
            {
                let sol = TwoPassHeuristic::with_policy(policy).solve(&pre).unwrap();
                assert!(
                    sol.leakage_nw <= uniform + 1e-9,
                    "{policy:?} beta={beta} C={c}: {} > uniform {uniform}",
                    sol.leakage_nw
                );
            }
        }
    }

    #[test]
    fn more_clusters_never_hurt() {
        let nl = generators::alu("alu24", 24).unwrap();
        let lib = Library::date09_45nm();
        let p = Placer::new(PlacerOptions::with_target_rows(10)).place(&nl, &lib).unwrap();
        let mut last = f64::INFINITY;
        for c in 1..=4 {
            let pre = setup_design(&nl, &p, 0.05, c);
            let sol = TwoPassHeuristic::default().solve(&pre).unwrap();
            assert!(sol.leakage_nw <= last + 1e-9, "C={c}");
            last = sol.leakage_nw;
        }
    }

    #[test]
    fn deterministic() {
        let pre = setup(0.05, 3);
        let a = TwoPassHeuristic::default().solve(&pre).unwrap();
        let b = TwoPassHeuristic::default().solve(&pre).unwrap();
        assert_eq!(a.assignment, b.assignment);
    }

    #[test]
    fn max_drop_sends_unconstrained_rows_to_nbb() {
        let pre = setup(0.05, 3);
        let sol = TwoPassHeuristic::default().solve(&pre).unwrap();
        for (row, &ct) in pre.row_criticality.iter().enumerate() {
            if ct == 0.0 {
                assert_eq!(sol.assignment[row], 0, "unconstrained row {row} should be at NBB");
            }
        }
    }

    #[test]
    fn c_equals_one_is_single_bb() {
        let pre = setup(0.10, 1);
        let sol = TwoPassHeuristic::default().solve(&pre).unwrap();
        assert_eq!(sol.clusters, 1);
        let jopt = pass_one(&pre).unwrap();
        assert!(sol.assignment.iter().all(|&l| l == jopt));
    }
}
