//! Regenerates the paper's **Fig. 1**: delay and leakage of a 45 nm
//! inverter versus forward body-bias voltage, swept 0 → 0.95 V in 50 mV
//! steps (the measurement that motivates capping the usable range at 0.5 V).
//!
//! ```text
//! cargo run -p fbb-bench --bin fig1
//! ```

use fbb_bench::{format_row, Args};
use fbb_device::{BiasLadder, BiasVoltage, BodyBiasModel, Cell, CellKind, DriveStrength, Library};

fn main() {
    Args::parse_env(|_| Ok(()));
    let model = BodyBiasModel::date09_45nm();
    let library = Library::date09_45nm();
    let full_sweep = BiasLadder::with_resolution(50, 950).expect("valid sweep ladder");
    let chara = library.characterize(&model, &full_sweep);
    let inv = Cell::new(CellKind::Inv, DriveStrength::X1);

    let widths = [8usize, 10, 10, 11, 12, 13];
    println!(
        "{}",
        format_row(
            &[
                "vbs[mV]".into(),
                "delay[ps]".into(),
                "speedup%".into(),
                "leak[x NBB]".into(),
                "junction[x]".into(),
                "total off[x]".into(),
            ],
            &widths,
        )
    );
    for (j, v) in full_sweep.iter() {
        let cells = vec![
            v.millivolts().to_string(),
            format!("{:.2}", chara.delay_ps(inv, j)),
            format!("{:.1}", chara.model().speedup_fraction(v) * 100.0),
            format!("{:.2}", chara.model().leakage_multiplier(v)),
            format!("{:.3}", chara.model().junction_multiplier(v)),
            format!("{:.2}", chara.model().total_leakage_multiplier(v)),
        ];
        let marker = if v == BiasVoltage::from_millivolts(500) { "  <= usable cap" } else { "" };
        println!("{}{marker}", format_row(&cells, &widths));
    }

    let max = BiasVoltage::from_millivolts(950);
    println!(
        "\nanchors: {:.0}% speed-up and {:.2}x leakage at vbs = 0.95 V (paper: 21%, 12.74x)",
        model.speedup_fraction(max) * 100.0,
        model.leakage_multiplier(max)
    );
}
