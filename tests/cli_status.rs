//! The CLI exit-code and status-wording contract, exercised through the real
//! `fbb` binary.
//!
//! Exit codes: 0 ok, 1 usage/internal error, 2 infeasible instance,
//! 3 budget expired without an optimality proof, 4 difftest mismatch,
//! 5 lint violations.
//! Wording: "optimal" appears in solve output if and only if the branch &
//! bound *proved* optimality.

use std::path::PathBuf;
use std::process::{Command, Output};

fn fbb(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fbb"))
        .args(args)
        .output()
        .expect("fbb binary runs")
}

fn code(out: &Output) -> i32 {
    out.status.code().expect("no signal")
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

/// A 48-bit ripple adder written to a per-test temp file.
fn adder_netlist(tag: &str) -> PathBuf {
    design_netlist("adder:48", tag)
}

/// The generated design `spec` written to a per-test temp file.
fn design_netlist(spec: &str, tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("fbb_cli_status_{tag}_{}.nl", std::process::id()));
    let out = fbb(&["generate", "--design", spec, "--out", path.to_str().expect("utf8")]);
    assert_eq!(code(&out), 0, "generate failed: {}", text(&out.stderr));
    path
}

#[test]
fn unknown_subcommand_exits_1_with_usage() {
    let out = fbb(&["frobnicate"]);
    assert_eq!(code(&out), 1);
    assert!(text(&out.stderr).contains("usage:"), "stderr: {}", text(&out.stderr));
}

#[test]
fn uncompensable_instance_exits_2_and_names_the_path() {
    let nl = adder_netlist("infeasible");
    let out = fbb(&[
        "solve",
        "--netlist",
        nl.to_str().expect("utf8"),
        "--beta",
        "0.25",
        "--rows",
        "9",
    ]);
    let stderr = text(&out.stderr);
    assert_eq!(code(&out), 2, "stderr: {stderr}");
    assert!(stderr.contains("infeasible"), "stderr: {stderr}");
    // The diagnosis must carry the *reason*: which path misses and by how much.
    assert!(stderr.contains("path"), "stderr: {stderr}");
    assert!(stderr.contains("misses Dcrit by"), "stderr: {stderr}");
    let _ = std::fs::remove_file(nl);
}

#[test]
fn expired_ilp_budget_exits_3_and_never_claims_optimality() {
    let nl = adder_netlist("budget");
    let out = fbb(&[
        "solve",
        "--netlist",
        nl.to_str().expect("utf8"),
        "--rows",
        "9",
        "--ilp",
        "--ilp-time-limit",
        "0",
        "--require-optimal",
    ]);
    let stdout = text(&out.stdout);
    let stderr = text(&out.stderr);
    assert_eq!(code(&out), 3, "stdout: {stdout}\nstderr: {stderr}");
    assert!(stderr.contains("deadline"), "stderr: {stderr}");
    assert!(
        !stdout.contains("optimal"),
        "a limited solve must not print 'optimal': {stdout}"
    );
    let _ = std::fs::remove_file(nl);
}

#[test]
fn proven_ilp_solve_exits_0_and_says_proven() {
    let nl = adder_netlist("proven");
    let out = fbb(&["solve", "--netlist", nl.to_str().expect("utf8"), "--rows", "9", "--ilp"]);
    let stdout = text(&out.stdout);
    assert_eq!(code(&out), 0, "stderr: {}", text(&out.stderr));
    assert!(stdout.contains("optimal (proven)"), "stdout: {stdout}");
    let _ = std::fs::remove_file(nl);
}

#[test]
fn clean_difftest_exits_0() {
    let out = fbb(&["difftest", "--cases", "4", "--seed", "9"]);
    let stdout = text(&out.stdout);
    assert_eq!(code(&out), 0, "stderr: {}", text(&out.stderr));
    assert!(stdout.contains("0 mismatches"), "stdout: {stdout}");
}

#[test]
fn injected_pivot_bug_exits_4_with_mismatch_details() {
    let out = fbb(&["difftest", "--cases", "48", "--seed", "3", "--inject-pivot-bug"]);
    let stderr = text(&out.stderr);
    assert_eq!(code(&out), 4, "stdout: {}", text(&out.stdout));
    assert!(stderr.contains("mismatch"), "stderr: {stderr}");
}

#[test]
fn lint_on_clean_workspace_exits_0() {
    let out = fbb(&["lint"]);
    let stdout = text(&out.stdout);
    assert_eq!(code(&out), 0, "stdout: {stdout}\nstderr: {}", text(&out.stderr));
    assert!(stdout.contains("0 violation(s)"), "stdout: {stdout}");
}

#[test]
fn lint_fixtures_exits_5_with_planted_violations() {
    let out = fbb(&["lint", "--fixtures"]);
    let stdout = text(&out.stdout);
    let stderr = text(&out.stderr);
    assert_eq!(code(&out), 5, "stdout: {stdout}\nstderr: {stderr}");
    // Every rule must appear in the armed run's output.
    for id in ["FA000", "FA001", "FA002", "FA003", "FA004", "FA005", "FA006"] {
        assert!(stdout.contains(id), "rule {id} missing from: {stdout}");
    }
    assert!(stderr.contains("violation"), "stderr: {stderr}");
}

#[test]
fn lint_json_is_machine_parsable_shape() {
    let out = fbb(&["lint", "--json"]);
    let stdout = text(&out.stdout);
    assert_eq!(code(&out), 0, "stderr: {}", text(&out.stderr));
    assert!(stdout.contains("\"violation_count\": 0"), "stdout: {stdout}");
    assert!(stdout.contains("\"rule_counts\""), "stdout: {stdout}");
}

// ---------------------------------------------------------------------------
// Design-load failures: one normalized error path, always exit 1 with a
// `cannot load design PATH: reason` diagnostic — for a missing file, a
// directory, or any other filesystem refusal, across every subcommand that
// reads a design.

#[test]
fn solve_on_missing_design_exits_1_with_reason() {
    let out = fbb(&["solve", "--netlist", "/nonexistent/没有/x.fbb"]);
    let stderr = text(&out.stderr);
    assert_eq!(code(&out), 1, "stderr: {stderr}");
    assert!(stderr.contains("cannot load design"), "stderr: {stderr}");
    assert!(stderr.contains("/nonexistent/没有/x.fbb"), "stderr: {stderr}");
}

#[test]
fn solve_on_directory_exits_1_with_reason() {
    let dir = std::env::temp_dir().join(format!("fbb_cli_dir_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out = fbb(&["solve", "--netlist", dir.to_str().expect("utf8")]);
    let stderr = text(&out.stderr);
    let _ = std::fs::remove_dir(&dir);
    assert_eq!(code(&out), 1, "stderr: {stderr}");
    assert!(stderr.contains("cannot load design"), "stderr: {stderr}");
}

#[test]
fn sta_and_difftest_share_the_load_error_path() {
    for args in [
        vec!["sta", "--netlist", "/nonexistent/y.fbb"],
        vec!["difftest", "--db", "/nonexistent/y.fbb"],
        vec!["bench-serve", "--netlist", "/nonexistent/y.fbb"],
    ] {
        let out = fbb(&args);
        let stderr = text(&out.stderr);
        assert_eq!(code(&out), 1, "args {args:?}: stderr: {stderr}");
        assert!(
            stderr.contains("cannot load design"),
            "args {args:?}: stderr: {stderr}"
        );
    }
}

#[test]
fn difftest_db_rejects_corruption_that_solve_would_trust() {
    // A compiled database with a flipped byte inside a section payload:
    // both decoders reject it (the container CRC catches it), and the
    // diagnostic still goes through the normalized load-error path.
    let nl = adder_netlist("corrupt");
    let db_path = std::env::temp_dir()
        .join(format!("fbb_cli_status_corrupt_{}.fbb", std::process::id()));
    let out = fbb(&[
        "compile",
        "--netlist",
        nl.to_str().expect("utf8"),
        "-o",
        db_path.to_str().expect("utf8"),
    ]);
    assert_eq!(code(&out), 0, "compile failed: {}", text(&out.stderr));
    let mut bytes = std::fs::read(&db_path).expect("compiled db readable");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&db_path, &bytes).expect("rewrite");
    for sub in [vec!["solve", "--netlist"], vec!["difftest", "--db"]] {
        let mut args = sub.clone();
        args.push(db_path.to_str().expect("utf8"));
        let out = fbb(&args);
        let stderr = text(&out.stderr);
        assert_eq!(code(&out), 1, "args {args:?}: stderr: {stderr}");
        assert!(
            stderr.contains("cannot load design") || stderr.contains("checksum"),
            "args {args:?}: stderr: {stderr}"
        );
    }
    let _ = std::fs::remove_file(&db_path);
    let _ = std::fs::remove_file(&nl);
}

// ---------------------------------------------------------------------------
// Strict flag parsing: every malformed invocation exits 1 (never a panic's
// 101, never a silent default) before doing any work, and stderr names the
// offending flag.

#[test]
fn malformed_flags_exit_1_and_name_the_flag() {
    for (args, flag) in [
        (&["solve", "--betta", "0.10"][..], "--betta"),
        (&["solve", "--beta", "abc"][..], "--beta"),
        (&["solve", "--beta", "0.05", "--beta", "0.10"][..], "--beta"),
        (&["solve", "--netlist"][..], "--netlist"),
        (&["sta", "--frobnicate"][..], "--frobnicate"),
        // An unbindable address: parsing must fail first, never bind and serve.
        (&["serve", "--addr", "256.0.0.1:0", "--workers", "abc"][..], "--workers"),
        (&["solve", "--ilp", "--ilp-time-limit", "-1"][..], "--ilp-time-limit"),
        (&["sweep", "--time-limit", "inf"][..], "--time-limit"),
        (&["bench-serve", "--connections", "0"][..], "--connections"),
        (&["compile", "--design", "adder:16", "-o", "/nonexistent/x.fbb", "--betas", "0.05,x"][..], "--betas"),
    ] {
        let out = fbb(args);
        let stderr = text(&out.stderr);
        assert_eq!(code(&out), 1, "args {args:?}: stderr: {stderr}");
        assert!(stderr.contains(flag), "args {args:?}: stderr should name {flag}: {stderr}");
    }
}

#[test]
fn solve_verifies_on_the_optimizers_die_strictly() {
    let nl = adder_netlist("verify");
    let out = fbb(&["solve", "--netlist", nl.to_str().expect("utf8"), "--rows", "9"]);
    let stdout = text(&out.stdout);
    assert_eq!(code(&out), 0, "stderr: {}", text(&out.stderr));
    let line = stdout.lines().find(|l| l.starts_with("verification:")).expect("verification line");
    assert!(line.contains("(met)"), "line: {line}");
    let _ = std::fs::remove_file(nl);
}

#[test]
fn solve_verifies_the_ilp_answer_and_exits_1_on_a_miss() {
    // The proven-optimal ILP answer certifies only the pruned path set Π;
    // on this die full STA shows it misses Dcrit, while the heuristic
    // answer meets it.
    let nl = design_netlist("adder_128bits", "ilp_miss");
    let out = fbb(&[
        "solve",
        "--netlist",
        nl.to_str().expect("utf8"),
        "--beta",
        "0.05",
        "--clusters",
        "2",
        "--ilp",
    ]);
    let stdout = text(&out.stdout);
    let _ = std::fs::remove_file(nl);
    assert_eq!(code(&out), 1, "stdout: {stdout}");
    assert!(stdout.contains("optimal (proven)"), "stdout: {stdout}");
    let verdict = |answer: &str| {
        stdout
            .lines()
            .find(|l| l.starts_with(&format!("verification: {answer} answer")))
            .unwrap_or_else(|| panic!("no verification line for {answer}: {stdout}"))
            .to_owned()
    };
    assert!(verdict("heuristic").ends_with("(met)"), "stdout: {stdout}");
    assert!(verdict("ilp").ends_with("(VIOLATED)"), "stdout: {stdout}");
    assert!(text(&out.stderr).contains("missing Dcrit"), "stderr: {}", text(&out.stderr));
}

#[test]
fn sta_and_solve_agree_on_a_text_netlist() {
    let nl = design_netlist("c1355", "sta_agree");
    let path = nl.to_str().expect("utf8");
    let sta = fbb(&["sta", "--netlist", path, "--beta", "0.05"]);
    let solve = fbb(&["solve", "--netlist", path, "--beta", "0.05"]);
    let _ = std::fs::remove_file(&nl);
    assert_eq!(code(&sta), 0, "stderr: {}", text(&sta.stderr));
    assert_eq!(code(&solve), 0, "stderr: {}", text(&solve.stderr));
    let (sta, solve) = (text(&sta.stdout), text(&solve.stdout));
    let field = |out: &str, prefix: &str, suffix: &str| -> String {
        let line = out.lines().find(|l| l.contains(prefix)).unwrap_or_else(|| panic!("{prefix}: {out}"));
        let rest = &line[line.find(prefix).expect("found") + prefix.len()..];
        rest[..rest.find(suffix).unwrap_or_else(|| panic!("{suffix}: {line}"))].to_owned()
    };
    assert_eq!(field(&sta, "Dcrit = ", " ps"), field(&solve, "Dcrit = ", " ps"));
    assert_eq!(field(&sta, "5.0%: ", " paths violate"), field(&solve, "ps, beta = 5.0%, ", " constraints"));
}

#[test]
fn unknown_table1_design_exits_1_naming_it() {
    for (args, design) in [
        (&["lint", "--models", "--designs", "foo"][..], "foo"),
        (&["lint", "--models", "--designs", "c1355,nosuch"][..], "nosuch"),
        (&["bench-serve", "--design", "adder:16"][..], "adder:16"),
    ] {
        let out = fbb(args);
        let stderr = text(&out.stderr);
        assert_eq!(code(&out), 1, "args {args:?}: stderr: {stderr}");
        assert!(
            stderr.contains(&format!("{design} is not a Table 1 design")),
            "args {args:?}: stderr: {stderr}"
        );
    }
}
