//! Every experiment binary rejects a design outside Table 1 at parse time:
//! exit 1 with a message naming the design, never a panic.

use std::process::Command;

#[test]
fn unknown_design_exits_1_naming_it() {
    for (bin, flag) in [
        (env!("CARGO_BIN_EXE_abb_bidirectional"), "--design"),
        (env!("CARGO_BIN_EXE_area_overhead"), "--design"),
        (env!("CARGO_BIN_EXE_cluster_sweep"), "--design"),
        (env!("CARGO_BIN_EXE_debug_paths"), "--design"),
        (env!("CARGO_BIN_EXE_granularity"), "--design"),
        (env!("CARGO_BIN_EXE_leakage_sensitivity"), "--design"),
        (env!("CARGO_BIN_EXE_ssta_vs_tuning"), "--design"),
        (env!("CARGO_BIN_EXE_yield_mc"), "--design"),
        (env!("CARGO_BIN_EXE_runtime"), "--designs"),
        (env!("CARGO_BIN_EXE_table1"), "--designs"),
    ] {
        let out = Command::new(bin).args([flag, "nosuch"]).output().expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{bin}: stderr: {stderr}");
        assert!(stderr.contains("nosuch is not a Table 1 design"), "{bin}: stderr: {stderr}");
    }
}
