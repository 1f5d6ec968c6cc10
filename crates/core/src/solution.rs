//! Allocation results.

use std::time::Duration;

use crate::{check_timing, Preprocessed};

/// A row→bias-level assignment with its bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSolution {
    /// Bias-ladder level per row (0 = NBB).
    pub assignment: Vec<usize>,
    /// Total leakage in nanowatts.
    pub leakage_nw: f64,
    /// Whether every constraint of Π is satisfied.
    pub meets_timing: bool,
    /// Distinct levels used (cluster count, including NBB).
    pub clusters: usize,
    /// Which algorithm produced the solution.
    pub algorithm: String,
    /// Wall-clock solve time.
    pub runtime: Duration,
}

impl ClusterSolution {
    /// Builds a solution record from an assignment.
    pub fn from_assignment(
        pre: &Preprocessed,
        assignment: Vec<usize>,
        algorithm: impl Into<String>,
        runtime: Duration,
    ) -> Self {
        let leakage_nw = pre.leakage_nw(&assignment);
        let meets_timing = check_timing(pre, &assignment).is_ok();
        let clusters = Preprocessed::cluster_count(&assignment);
        ClusterSolution {
            assignment,
            leakage_nw,
            meets_timing,
            clusters,
            algorithm: algorithm.into(),
            runtime,
        }
    }

    /// Leakage savings relative to a baseline, in percent (positive = this
    /// solution leaks less).
    pub fn savings_vs(&self, baseline: &ClusterSolution) -> f64 {
        if baseline.leakage_nw <= 0.0 {
            return 0.0;
        }
        100.0 * (baseline.leakage_nw - self.leakage_nw) / baseline.leakage_nw
    }

    /// Area-aware cleanup (extension beyond the paper): rows sandwiched
    /// between two neighbours that share a *higher* level are raised to that
    /// level, removing two well-separation strips each, as long as the total
    /// leakage increase stays within `max_increase_pct` percent. Raising a
    /// row's bias never breaks timing and never opens a new cluster, so the
    /// solution stays feasible and within budget.
    ///
    /// Returns the number of rows raised.
    pub fn reduce_well_separations(&mut self, pre: &Preprocessed, max_increase_pct: f64) -> usize {
        let budget = self.leakage_nw * max_increase_pct / 100.0;
        let mut spent = 0.0;
        let mut raised = 0;
        loop {
            // Cheapest sandwiched row first.
            let mut best: Option<(usize, usize, f64)> = None; // (row, level, cost)
            for r in 1..self.assignment.len().saturating_sub(1) {
                let (lo, own, hi) =
                    (self.assignment[r - 1], self.assignment[r], self.assignment[r + 1]);
                if lo == hi && lo > own {
                    let cost = pre.row_leakage_nw[r][lo] - pre.row_leakage_nw[r][own];
                    if spent + cost <= budget
                        && best.is_none_or(|(_, _, c)| cost < c)
                    {
                        best = Some((r, lo, cost));
                    }
                }
            }
            let Some((row, level, cost)) = best else { break };
            self.assignment[row] = level;
            self.leakage_nw += cost;
            spent += cost;
            raised += 1;
        }
        if raised > 0 {
            self.clusters = Preprocessed::cluster_count(&self.assignment);
            self.meets_timing = check_timing(pre, &self.assignment).is_ok();
        }
        raised
    }

    /// Number of vertically adjacent row pairs in different clusters (the
    /// well-separation count of this assignment).
    pub fn well_separation_count(&self) -> usize {
        self.assignment.windows(2).filter(|w| w[0] != w[1]).count()
    }

    /// The clusters as `(level, rows)` groups, ascending by level.
    pub fn clusters_by_level(&self) -> Vec<(usize, Vec<usize>)> {
        let mut levels: Vec<usize> = self.assignment.to_vec();
        levels.sort_unstable();
        levels.dedup();
        levels
            .into_iter()
            .map(|level| {
                let rows = self
                    .assignment
                    .iter()
                    .enumerate()
                    .filter(|&(_, &l)| l == level)
                    .map(|(r, _)| r)
                    .collect();
                (level, rows)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_pre() -> Preprocessed {
        Preprocessed {
            n_rows: 3,
            levels: 3,
            beta: 0.05,
            max_clusters: 3,
            dcrit_ps: 100.0,
            row_leakage_nw: vec![
                vec![1.0, 2.0, 4.0],
                vec![1.0, 2.0, 4.0],
                vec![1.0, 2.0, 4.0],
            ],
            row_criticality: vec![0.0, 1.0, 2.0],
            paths: vec![],
        }
    }

    #[test]
    fn bookkeeping() {
        let pre = dummy_pre();
        let s = ClusterSolution::from_assignment(&pre, vec![0, 2, 2], "test", Duration::ZERO);
        assert_eq!(s.leakage_nw, 9.0);
        assert!(s.meets_timing);
        assert_eq!(s.clusters, 2);
        let groups = s.clusters_by_level();
        assert_eq!(groups, vec![(0, vec![0]), (2, vec![1, 2])]);
    }

    #[test]
    fn well_separation_cleanup() {
        let pre = dummy_pre();
        // Row 1 sandwiched between two level-2 rows.
        let mut s = ClusterSolution::from_assignment(&pre, vec![2, 0, 2], "t", Duration::ZERO);
        assert_eq!(s.well_separation_count(), 2);
        // Raising row 1 costs 4 - 1 = 3 nW; allow up to 50% increase (3.5).
        let raised = s.reduce_well_separations(&pre, 50.0);
        assert_eq!(raised, 1);
        assert_eq!(s.assignment, vec![2, 2, 2]);
        assert_eq!(s.well_separation_count(), 0);
        assert_eq!(s.leakage_nw, 12.0);
        assert!(s.meets_timing);

        // With a tight budget nothing moves.
        let mut s = ClusterSolution::from_assignment(&pre, vec![2, 0, 2], "t", Duration::ZERO);
        assert_eq!(s.reduce_well_separations(&pre, 10.0), 0);
        assert_eq!(s.assignment, vec![2, 0, 2]);
    }

    #[test]
    fn cleanup_never_lowers_a_row() {
        let pre = dummy_pre();
        // Row 1 is *above* its neighbours: lowering would risk timing, so
        // the cleanup must not touch it.
        let mut s = ClusterSolution::from_assignment(&pre, vec![0, 2, 0], "t", Duration::ZERO);
        assert_eq!(s.reduce_well_separations(&pre, 100.0), 0);
        assert_eq!(s.assignment, vec![0, 2, 0]);
    }

    #[test]
    fn savings_math() {
        let pre = dummy_pre();
        let base = ClusterSolution::from_assignment(&pre, vec![2, 2, 2], "base", Duration::ZERO);
        let better = ClusterSolution::from_assignment(&pre, vec![0, 0, 2], "opt", Duration::ZERO);
        // base 12, better 6 -> 50%.
        assert!((better.savings_vs(&base) - 50.0).abs() < 1e-9);
        assert!((base.savings_vs(&base)).abs() < 1e-12);
    }
}
