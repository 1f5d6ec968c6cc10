//! Property tests: `Model::audit` and `presolve` share one analysis.
//!
//! The audit reports what presolve's row and column tests find on the model
//! as written, so the two must agree: a row the audit calls infeasible makes
//! presolve give up, and a row it calls redundant or duplicate never
//! survives into the reduced model. Random models mix integer and
//! continuous columns (some fixed, some unbounded above) and plant
//! duplicate, empty, redundant, nearly redundant and infeasible rows among
//! random ones.

use fbb_lp::approx::is_nonzero;
use fbb_lp::presolve::{presolve, Presolved};
use fbb_lp::{Model, Sense};
use proptest::collection::vec;
use proptest::prelude::*;

/// How a row is generated.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Plant {
    /// As drawn.
    Random,
    /// A copy of an earlier row.
    Duplicate,
    /// All coefficients zero.
    Empty,
    /// `Σ a·x <= max activity + slack`: every point of the boxes satisfies it.
    Redundant,
    /// `Σ a·x <= max activity - 1e-8`: redundant only within tolerance.
    NearlyRedundant,
    /// `Σ a·x >= max activity + 1 + slack`: no point of the boxes reaches it.
    Infeasible,
}

use self::Plant::*;

/// Maps a draw in `0..10`: four in ten rows random, two duplicates, one of
/// each other kind.
fn plant(draw: usize) -> Plant {
    match draw {
        0..=3 => Random,
        4 | 5 => Duplicate,
        6 => Empty,
        7 => Redundant,
        8 => NearlyRedundant,
        _ => Infeasible,
    }
}

/// Columns `(integer, lo, width, open, cost)` — an open continuous column
/// is `[lo, +inf)` — and rows `(coefficients, sense, rhs, plant)`.
type Program = (Vec<(bool, i32, i32, bool, i32)>, Vec<(Vec<i32>, Sense, i32, usize)>);

fn program() -> impl Strategy<Value = Program> {
    (2usize..=6).prop_flat_map(|n| {
        let column = (any::<bool>(), -2i32..=2, 0i32..=3, any::<bool>(), -4i32..=4);
        let sense = prop_oneof![Just(Sense::Le), Just(Sense::Ge), Just(Sense::Eq)];
        (vec(column, n), vec((vec(-3i32..=3, n), sense, -6i32..=8, 0usize..10), 1..=7))
    })
}

/// Builds the model; returns it with the plant of every row.
fn build((columns, rows): &Program) -> (Model, Vec<Plant>) {
    let mut m = Model::new();
    let open = |j: usize| columns[j].3 && !columns[j].0;
    for (j, &(integer, lo, width, _, cost)) in columns.iter().enumerate() {
        let up = if open(j) { f64::INFINITY } else { f64::from(lo + width) };
        if integer {
            m.add_integer(f64::from(lo), up, f64::from(cost));
        } else {
            m.add_continuous(f64::from(lo), up, f64::from(cost));
        }
    }
    let mut plants = Vec::new();
    for (coeffs, sense, rhs, draw) in rows {
        let mut terms: Vec<(usize, f64)> =
            coeffs.iter().enumerate().map(|(j, &a)| (j, f64::from(a))).collect();
        let plant = match plant(*draw) {
            Duplicate if m.constraint_count() == 0 => Random,
            plant => plant,
        };
        let (terms, sense, rhs) = match plant {
            Random => (terms, *sense, f64::from(*rhs)),
            Duplicate => {
                let src = m.row(rhs.unsigned_abs() as usize % m.constraint_count()).expect("row");
                (src.terms.to_vec(), src.sense, src.rhs)
            }
            Empty => (terms.iter().map(|&(j, _)| (j, 0.0)).collect(), *sense, f64::from(*rhs)),
            Redundant | NearlyRedundant | Infeasible => {
                // A live row over bounded columns only, so its maximum
                // activity is finite (empty when every column is open).
                terms.retain(|&(j, a)| is_nonzero(a) && !open(j));
                if terms.is_empty() {
                    terms.extend((0..columns.len()).find(|&j| !open(j)).map(|j| (j, 1.0)));
                }
                let max: f64 = terms
                    .iter()
                    .map(|&(j, a)| {
                        let (_, lo, width, _, _) = columns[j];
                        (a * f64::from(lo)).max(a * f64::from(lo + width))
                    })
                    .sum();
                let slack = f64::from(rhs.rem_euclid(3));
                match plant {
                    Redundant => (terms, Sense::Le, max + slack),
                    NearlyRedundant => (terms, Sense::Le, max - 1e-8),
                    _ => (terms, Sense::Ge, max + 1.0 + slack),
                }
            }
        };
        m.add_constraint(terms, sense, rhs).expect("valid row");
        plants.push(plant);
    }
    (m, plants)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Rows the audit calls infeasible end presolve; rows it calls redundant
    /// or duplicate are dropped by it.
    #[test]
    fn audit_findings_are_presolve_reductions(p in program()) {
        let (model, _) = build(&p);
        let outcome = presolve(&model);
        for d in &model.audit().defects {
            match (d.code, &outcome) {
                ("bound_infeasible_row" | "empty_row_infeasible", Presolved::Reduced { .. }) => {
                    prop_assert!(false, "audit: {}; presolve reduced the model", d.message);
                }
                ("redundant_row" | "duplicate_row", Presolved::Reduced { map, .. }) => {
                    prop_assert!(
                        map.reduced_row_of(d.index).is_none(),
                        "audit: {}; presolve kept row {}", d.message, d.index
                    );
                }
                _ => {}
            }
        }
    }

    /// The audit reports the planted defects, so the property above is
    /// exercised on every kind of row.
    #[test]
    fn planted_rows_are_flagged(p in program()) {
        let (model, plants) = build(&p);
        let audit = model.audit();
        let flagged = |code: &str, i: usize| {
            audit.defects.iter().any(|d| d.code == code && d.index == i)
        };
        for (i, plant) in plants.iter().enumerate() {
            let live = model.row(i).expect("row").terms.iter().any(|&(_, a)| is_nonzero(a));
            match plant {
                Empty => {
                    prop_assert!(flagged("empty_row", i) || flagged("empty_row_infeasible", i));
                }
                Duplicate if live => prop_assert!(flagged("duplicate_row", i)),
                Redundant if live => prop_assert!(flagged("redundant_row", i)),
                NearlyRedundant if live => prop_assert!(!flagged("redundant_row", i)),
                Infeasible if live => prop_assert!(flagged("bound_infeasible_row", i)),
                _ => {}
            }
        }
    }
}
