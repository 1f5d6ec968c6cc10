//! Layer-2 model auditor: a report-only reading of presolve's analysis.
//!
//! [`Model::audit`] inspects a model *without solving it* and reports
//! structural defects the solver would otherwise only surface as a
//! confusing `Infeasible`/`Unbounded` verdict deep in phase 1. Row and
//! column defects come from the tests [`presolve`](mod@crate::presolve)
//! acts on, run over the model's own bounds; only invalid or inverted
//! column data, the unbounded free column and coefficient dynamic range
//! are checked here. The split:
//!
//! * **errors** — the model is statically broken: a row no point can
//!   satisfy given the variable bounds, invalid bounds, a free column that
//!   makes the objective unbounded. Solving cannot succeed.
//! * **warnings** — the model solves but is suspicious: vacuous, redundant
//!   or duplicate rows, columns no row touches, fixed columns, coefficient
//!   dynamic range beyond `1e8`.
//!
//! `solve_lp`/`solve_mip` run the audit automatically when telemetry is
//! enabled and publish `audit_model_*` counters; they never change the
//! solve result — the audit observes, the solver decides. Generators (the
//! FBB ILP builder in `fbb-core`) call [`Model::audit`] directly and can
//! fail fast on `errors`.

use crate::model::Sense;
use crate::presolve::{classify_row, live_terms, scan_columns, Activity, DuplicateRows, RowClass};
use crate::Model;

/// How bad a defect is (errors order first).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// The model cannot be solved meaningfully.
    Error,
    /// The model solves, but something is off.
    Warning,
}

/// One defect found by [`Model::audit`].
#[derive(Debug, Clone)]
pub struct ModelDefect {
    /// Defect class.
    pub severity: Severity,
    /// Stable machine-readable code (`empty_row`, `bound_infeasible_row`, …).
    pub code: &'static str,
    /// Row index for row defects, column index for column defects.
    pub index: usize,
    /// Human-readable description.
    pub message: String,
}

/// Everything [`Model::audit`] found, in deterministic order.
#[derive(Debug, Clone, Default)]
pub struct ModelAudit {
    /// All defects, errors first, then by code and index.
    pub defects: Vec<ModelDefect>,
}

/// Coefficient magnitudes spanning more than this ratio get flagged: the
/// simplex tolerances (`1e-7`/`1e-9`) stop being meaningful when row
/// coefficients differ by more than ~8 orders of magnitude.
pub const DYNAMIC_RANGE_LIMIT: f64 = 1e8;

impl ModelAudit {
    /// Defects that make the model unsolvable.
    pub fn errors(&self) -> impl Iterator<Item = &ModelDefect> {
        self.defects.iter().filter(|d| d.severity == Severity::Error)
    }

    /// Defects the model survives.
    pub fn warnings(&self) -> impl Iterator<Item = &ModelDefect> {
        self.defects.iter().filter(|d| d.severity == Severity::Warning)
    }

    /// No errors (warnings allowed).
    pub fn is_sound(&self) -> bool {
        self.errors().next().is_none()
    }

    /// No defects at all.
    pub fn is_clean(&self) -> bool {
        self.defects.is_empty()
    }

    /// Publishes `audit_model_*` telemetry counters for this audit.
    pub fn emit_telemetry(&self) {
        fbb_telemetry::counter("audit_model_runs", 1);
        fbb_telemetry::counter("audit_model_errors", self.errors().count() as u64);
        fbb_telemetry::counter("audit_model_warnings", self.warnings().count() as u64);
        for d in &self.defects {
            fbb_telemetry::counter(defect_counter(d.code), 1);
        }
    }

    /// One line per defect, errors first.
    pub fn summary(&self) -> String {
        let mut s = String::new();
        for d in &self.defects {
            let tag = match d.severity {
                Severity::Error => "error",
                Severity::Warning => "warning",
            };
            s.push_str(&format!("{tag}[{}] #{}: {}\n", d.code, d.index, d.message));
        }
        s
    }

    fn error(&mut self, code: &'static str, index: usize, message: String) {
        self.defects.push(ModelDefect { severity: Severity::Error, code, index, message });
    }

    fn warn(&mut self, code: &'static str, index: usize, message: String) {
        self.defects.push(ModelDefect { severity: Severity::Warning, code, index, message });
    }

    fn finish(mut self) -> Self {
        self.defects.sort_by_key(|d| (d.severity, d.code, d.index));
        self
    }
}

impl Model {
    /// Audits the model for structural defects. See the [module docs]
    /// (self) for the error/warning split. Deterministic: same model, same
    /// defect list.
    #[must_use]
    pub fn audit(&self) -> ModelAudit {
        let lower: Vec<f64> = self.vars.iter().map(|v| v.lower).collect();
        let upper: Vec<f64> = self.vars.iter().map(|v| v.upper).collect();
        let mut audit = ModelAudit::default();
        self.audit_columns(&mut audit, &lower, &upper);
        self.audit_rows(&mut audit, &lower, &upper);
        self.audit_dynamic_range(&mut audit);
        audit.finish()
    }

    fn audit_columns(&self, audit: &mut ModelAudit, lower: &[f64], upper: &[f64]) {
        let no_drops = vec![false; self.constraints.len()];
        let (fixed, coupled) = scan_columns(self, lower, upper, &no_drops);
        for (j, v) in self.vars.iter().enumerate() {
            let (lo, up, obj) = (v.lower, v.upper, v.objective);
            if lo.is_nan() || up.is_nan() || !obj.is_finite() {
                let msg = format!(
                    "column {j} has non-finite data (bounds [{lo}, {up}], objective {obj})"
                );
                audit.error("invalid_column", j, msg);
            } else if lo > up {
                let msg = format!("column {j} bounds are inverted: [{lo}, {up}]");
                audit.error("inverted_bounds", j, msg);
            } else if !coupled[j] {
                if (obj < 0.0 && up == f64::INFINITY) || (obj > 0.0 && lo == f64::NEG_INFINITY) {
                    let msg = format!(
                        "column {j} appears in no row and its objective {obj} can decrease \
                         without limit"
                    );
                    audit.error("unbounded_free_column", j, msg);
                } else {
                    let msg = format!("column {j} appears in no constraint row");
                    audit.warn("free_column", j, msg);
                }
            } else if fixed[j] {
                audit.warn("fixed_column", j, format!("column {j} is fixed at {lo} by its bounds"));
            }
        }
    }

    fn audit_rows(&self, audit: &mut ModelAudit, lower: &[f64], upper: &[f64]) {
        let mut duplicates = DuplicateRows::default();
        for (i, c) in self.constraints.iter().enumerate() {
            let live = live_terms(&c.terms);
            let act = Activity::of(&live, lower, upper);
            let (lo, hi) = (act.row_lo(), act.row_hi());
            let class = classify_row(c.sense, c.rhs, lo, hi);
            let need = || format!("{} {}", sense_str(c.sense), c.rhs);
            if live.is_empty() {
                if class == RowClass::Infeasible {
                    let msg =
                        format!("row {i} has no nonzero coefficients but requires {}", need());
                    audit.error("empty_row_infeasible", i, msg);
                } else {
                    let msg = format!("row {i} has no nonzero coefficients (vacuously satisfied)");
                    audit.warn("empty_row", i, msg);
                }
                continue;
            }
            if let Some(first) = duplicates.first_of(i, c.sense, c.rhs, &live) {
                audit.warn("duplicate_row", i, format!("row {i} duplicates row {first}"));
            }
            match class {
                RowClass::Infeasible => {
                    let msg =
                        format!("row {i} activity range [{lo}, {hi}] cannot satisfy {}", need());
                    audit.error("bound_infeasible_row", i, msg);
                }
                RowClass::Redundant => {
                    let msg = format!(
                        "row {i} is satisfied by every point in the variable boxes \
                         (activity range [{lo}, {hi}], requirement {})",
                        need()
                    );
                    audit.warn("redundant_row", i, msg);
                }
                RowClass::Active => {}
            }
        }
    }

    fn audit_dynamic_range(&self, audit: &mut ModelAudit) {
        let mut min_mag = f64::INFINITY;
        let mut max_mag = 0.0f64;
        let mut min_at = 0;
        let mut max_at = 0;
        for (i, c) in self.constraints.iter().enumerate() {
            for &(_, a) in &c.terms {
                let mag = a.abs();
                if crate::approx::is_zero(mag) {
                    continue;
                }
                if mag < min_mag {
                    min_mag = mag;
                    min_at = i;
                }
                if mag > max_mag {
                    max_mag = mag;
                    max_at = i;
                }
            }
        }
        if max_mag > 0.0 && min_mag.is_finite() && max_mag / min_mag > DYNAMIC_RANGE_LIMIT {
            let msg = format!(
                "coefficient magnitudes span [{min_mag:e}, {max_mag:e}] \
                 (rows {min_at} and {max_at}): ratio exceeds {DYNAMIC_RANGE_LIMIT:e} \
                 and will erode simplex tolerances"
            );
            audit.warn("dynamic_range", max_at, msg);
        }
    }
}

/// Per-code counter name (telemetry counters are `&'static str`-keyed, so
/// the mapping is a static table rather than string concatenation).
fn defect_counter(code: &str) -> &'static str {
    match code {
        "invalid_column" => "audit_defect_invalid_column",
        "inverted_bounds" => "audit_defect_inverted_bounds",
        "unbounded_free_column" => "audit_defect_unbounded_free_column",
        "free_column" => "audit_defect_free_column",
        "fixed_column" => "audit_defect_fixed_column",
        "empty_row" => "audit_defect_empty_row",
        "empty_row_infeasible" => "audit_defect_empty_row_infeasible",
        "duplicate_row" => "audit_defect_duplicate_row",
        "bound_infeasible_row" => "audit_defect_bound_infeasible_row",
        "redundant_row" => "audit_defect_redundant_row",
        "dynamic_range" => "audit_defect_dynamic_range",
        _ => "audit_defect_other",
    }
}

fn sense_str(sense: Sense) -> &'static str {
    match sense {
        Sense::Le => "<=",
        Sense::Eq => "=",
        Sense::Ge => ">=",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(audit: &ModelAudit) -> Vec<&'static str> {
        audit.defects.iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_model_audits_clean() {
        let mut m = Model::new();
        let x = m.add_continuous(0.0, 10.0, 1.0);
        let y = m.add_continuous(0.0, 10.0, 2.0);
        m.add_constraint(vec![(x, 1.0), (y, 1.0)], Sense::Ge, 3.0).unwrap();
        let audit = m.audit();
        assert!(audit.is_clean(), "{}", audit.summary());
    }

    #[test]
    fn empty_row_severity_depends_on_rhs() {
        let mut m = Model::new();
        let x = m.add_continuous(0.0, 1.0, 1.0);
        m.add_constraint(vec![(x, 1.0)], Sense::Le, 0.5).unwrap();
        m.add_constraint(vec![], Sense::Le, 0.0).unwrap(); // 0 <= 0: vacuous
        m.add_constraint(vec![], Sense::Ge, 2.0).unwrap(); // 0 >= 2: impossible
        m.add_constraint(vec![(x, 0.0)], Sense::Eq, 1.0).unwrap(); // 0 = 1: impossible
        let audit = m.audit();
        assert_eq!(codes(&audit), vec!["empty_row_infeasible", "empty_row_infeasible", "empty_row"]);
        assert!(!audit.is_sound());
    }

    #[test]
    fn duplicate_rows_warn_but_stay_sound() {
        let mut m = Model::new();
        let x = m.add_continuous(0.0, 5.0, 1.0);
        let y = m.add_continuous(0.0, 5.0, 1.0);
        m.add_constraint(vec![(x, 1.0), (y, 2.0)], Sense::Le, 4.0).unwrap();
        m.add_constraint(vec![(x, 1.0), (y, 2.0)], Sense::Le, 4.0).unwrap();
        // Same terms, different rhs: not a duplicate.
        m.add_constraint(vec![(x, 1.0), (y, 2.0)], Sense::Le, 5.0).unwrap();
        let audit = m.audit();
        assert_eq!(codes(&audit), vec!["duplicate_row"]);
        assert_eq!(audit.defects[0].index, 1);
        assert!(audit.is_sound());
    }

    #[test]
    fn bound_infeasible_row_is_an_error() {
        let mut m = Model::new();
        let x = m.add_binary(1.0);
        let y = m.add_binary(1.0);
        // x + y >= 3 with x,y in [0,1]: max activity is 2.
        m.add_constraint(vec![(x, 1.0), (y, 1.0)], Sense::Ge, 3.0).unwrap();
        let audit = m.audit();
        assert_eq!(codes(&audit), vec!["bound_infeasible_row"]);
        assert!(!audit.is_sound());
    }

    #[test]
    fn redundant_row_is_a_warning() {
        let mut m = Model::new();
        let x = m.add_binary(1.0);
        m.add_constraint(vec![(x, 1.0)], Sense::Le, 2.0).unwrap(); // x <= 2 always holds
        let audit = m.audit();
        assert_eq!(codes(&audit), vec!["redundant_row"]);
        assert!(audit.is_sound());
    }

    #[test]
    fn free_and_fixed_columns_are_flagged() {
        let mut m = Model::new();
        let x = m.add_continuous(0.0, 1.0, 1.0);
        let free = m.add_continuous(0.0, 1.0, 0.0);
        let fixed = m.add_continuous(2.0, 2.0, 1.0);
        m.add_constraint(vec![(x, 1.0), (fixed, 1.0)], Sense::Le, 2.5).unwrap();
        let audit = m.audit();
        assert_eq!(codes(&audit), vec!["fixed_column", "free_column"]);
        assert_eq!(audit.defects.iter().map(|d| d.index).collect::<Vec<_>>(), vec![fixed, free]);
        assert!(audit.is_sound());
    }

    #[test]
    fn unreferenced_column_that_unbounds_the_objective_is_an_error() {
        let mut m = Model::new();
        let x = m.add_continuous(0.0, f64::INFINITY, -1.0);
        let y = m.add_continuous(0.0, 1.0, 1.0);
        m.add_constraint(vec![(y, 1.0)], Sense::Ge, 1.0).unwrap();
        let audit = m.audit();
        assert!(codes(&audit).contains(&"unbounded_free_column"));
        assert_eq!(audit.errors().next().map(|d| d.index), Some(x));
    }

    #[test]
    fn inverted_bounds_are_an_error() {
        let mut m = Model::new();
        m.add_continuous(3.0, 1.0, 0.0);
        let audit = m.audit();
        assert_eq!(codes(&audit), vec!["inverted_bounds"]);
    }

    #[test]
    fn wide_dynamic_range_warns() {
        let mut m = Model::new();
        let x = m.add_continuous(0.0, 1.0, 1.0);
        let y = m.add_continuous(0.0, 1.0, 1.0);
        m.add_constraint(vec![(x, 1e-6)], Sense::Le, 1.0).unwrap();
        m.add_constraint(vec![(y, 1e6)], Sense::Le, 1.0).unwrap();
        let audit = m.audit();
        assert!(codes(&audit).contains(&"dynamic_range"), "{}", audit.summary());
    }

    #[test]
    fn zero_coefficient_rows_do_not_hide_infeasibility() {
        let mut m = Model::new();
        let x = m.add_binary(1.0);
        // The zero term is dead weight; the live part (0 >= 1) is impossible,
        // and the zero coefficient also leaves `x` effectively unreferenced.
        m.add_constraint(vec![(x, 0.0)], Sense::Ge, 1.0).unwrap();
        let audit = m.audit();
        assert_eq!(codes(&audit), vec!["empty_row_infeasible", "free_column"]);
    }
}
