//! Property tests: physical-model invariants over arbitrary ladders, cells,
//! and bias points.

use fbb_device::rbb::{RbbModel, ReverseBiasVoltage};
use fbb_device::{BiasLadder, BiasVoltage, BodyBiasModel, Cell, CellKind, DriveStrength, Library};
use proptest::prelude::*;

fn any_cell() -> impl Strategy<Value = Cell> {
    (0..CellKind::ALL.len(), 0..DriveStrength::ALL.len())
        .prop_map(|(k, d)| Cell::new(CellKind::ALL[k], DriveStrength::ALL[d]))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn delay_and_leakage_are_monotone_in_bias(mv1 in 0u32..950, mv2 in 0u32..950) {
        let model = BodyBiasModel::date09_45nm();
        let (lo, hi) = (mv1.min(mv2), mv1.max(mv2));
        let (vlo, vhi) = (BiasVoltage::from_millivolts(lo), BiasVoltage::from_millivolts(hi));
        prop_assert!(model.delay_factor(vhi) <= model.delay_factor(vlo));
        prop_assert!(model.leakage_multiplier(vhi) >= model.leakage_multiplier(vlo));
        prop_assert!(model.total_leakage_multiplier(vhi) >= model.total_leakage_multiplier(vlo));
        // Delay factor stays physical across the sweep range.
        prop_assert!(model.delay_factor(vhi) > 0.0);
    }

    #[test]
    fn characterization_matches_model_for_every_cell(cell in any_cell(), level in 0usize..11) {
        let model = BodyBiasModel::date09_45nm();
        let ladder = BiasLadder::date09().expect("valid ladder");
        let library = Library::date09_45nm();
        let chara = library.characterize(&model, &ladder);
        let v = ladder.level(level);
        let expect_delay = library.nbb_delay_ps(cell) * model.delay_factor(v);
        let expect_leak = library.nbb_leakage_nw(cell) * model.leakage_multiplier(v);
        prop_assert!((chara.delay_ps(cell, level) - expect_delay).abs() < 1e-9);
        prop_assert!((chara.leakage_nw(cell, level) - expect_leak).abs() < 1e-9);
        prop_assert!(chara.delay_ps(cell, 0) - chara.delay_ps(cell, level) >= -1e-12);
    }

    #[test]
    fn arbitrary_ladders_keep_their_invariants(
        resolution in 1u32..200,
        steps in 1u32..24,
    ) {
        let max = resolution * steps;
        let ladder = BiasLadder::with_resolution(resolution, max).expect("divides evenly");
        prop_assert_eq!(ladder.len(), steps as usize + 1);
        prop_assert_eq!(ladder.level(0), BiasVoltage::ZERO);
        prop_assert_eq!(ladder.max(), BiasVoltage::from_millivolts(max));
        for (i, v) in ladder.iter() {
            prop_assert_eq!(ladder.index_of(v), Some(i));
            if i > 0 {
                prop_assert!(v > ladder.level(i - 1));
            }
        }
    }

    #[test]
    fn rbb_leakage_is_continuous_and_bounded(mv in 0u32..1000) {
        let m = RbbModel::date09_45nm();
        let v = ReverseBiasVoltage::from_millivolts(mv);
        let leak = m.leakage_multiplier(v);
        prop_assert!(leak > 0.0);
        // Never better than the subthreshold floor alone.
        prop_assert!(leak >= (-m.subvt_alpha * v.volts()).exp() - 1e-12);
        // Optimum found by scan really is no worse than this point.
        let opt = m.optimal_bias(25);
        if mv % 25 == 0 {
            prop_assert!(m.leakage_multiplier(opt) <= leak + 1e-12);
        }
        prop_assert!(m.delay_factor(v) >= 1.0);
    }

    #[test]
    fn custom_models_respect_their_anchors(
        speedup_pct in 1.0f64..20.0,
        alpha in 0.1f64..4.0,
    ) {
        let vdd = 0.95;
        let usable = BiasVoltage::from_millivolts(500);
        let model = BodyBiasModel::new(speedup_pct / 100.0, alpha, vdd, usable)
            .expect("parameters are in the valid range");
        let v = BiasVoltage::from_millivolts(500);
        prop_assert!((model.speedup_fraction(v) - speedup_pct / 100.0 * 0.5).abs() < 1e-12);
        prop_assert!((model.leakage_multiplier(v) - (alpha * 0.5).exp()).abs() < 1e-9);
        prop_assert!(model.is_usable(v));
        prop_assert!(!model.is_usable(BiasVoltage::from_millivolts(501)));
    }
}
