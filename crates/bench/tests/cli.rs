//! Drives the built `pomc` binary: the audit table, the shared flag
//! parser and the fail-fast contract, observed from outside the process,
//! plus the emit modes that sign a design off.

use std::process::{Command, Output};

fn pomc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pomc"))
        .args(args)
        .output()
        .expect("pomc runs")
}

/// Asserts a usage failure: exit 2, `why` and the usage text on stderr,
/// nothing on stdout.
fn assert_usage_error(args: &[&str], why: &str) {
    let out = pomc(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.starts_with(why), "{args:?}: {stderr}");
    assert!(
        stderr.contains("usage: pomc <kernel>"),
        "{args:?}: {stderr}"
    );
    assert!(out.stdout.is_empty(), "{args:?} printed before failing");
}

/// The audit subcommands, as the usage text (generated from `AUDITS`)
/// lists them: `       pomc <name> [flags...]`.
fn audits_in_usage() -> Vec<String> {
    let out = pomc(&[]);
    assert_eq!(out.status.code(), Some(2), "no arguments is a usage error");
    String::from_utf8_lossy(&out.stderr)
        .lines()
        .filter_map(|l| l.strip_prefix("       pomc "))
        .map(|l| l.split(' ').next().expect("a name").to_string())
        .collect()
}

#[test]
fn every_audit_is_dispatched_and_rejects_bad_flags_with_usage() {
    let audits = audits_in_usage();
    assert_eq!(
        audits,
        [
            "bench-dse",
            "bench-poly",
            "bench-sim",
            "bench-dataflow",
            "bench-live",
            "bench-serve",
            "verify-all"
        ]
    );
    for audit in &audits {
        // "unknown flag", not "unknown kernel": the name reached its
        // table entry and that entry's flag list.
        assert_usage_error(&[audit, "--bogus"], "unknown flag --bogus\n");
        assert_usage_error(&[audit, "--out"], "--out PATH expects a value\n");
        // Every audit but bench-poly sizes its suite; bench-poly iterates.
        let (flag, metavar) = match audit.as_str() {
            "bench-poly" => ("--iters", "N"),
            _ => ("--size", "N"),
        };
        let why = format!("{flag} {metavar} expects a non-negative integer\n");
        assert_usage_error(&[audit, flag], &why);
        assert_usage_error(&[audit, flag, "many"], &why);
        // The usage text carries the audit's default output path.
        let usage = String::from_utf8_lossy(&pomc(&[]).stderr).into_owned();
        assert!(
            usage.contains(&format!("\n{audit}: ")) && usage.contains("default --out "),
            "{usage}"
        );
    }
    // One audit's flag is not another's.
    assert_usage_error(&["bench-sim", "--beam"], "unknown flag --beam\n");
    assert_usage_error(
        &["bench-dse", "--ceiling", "soon"],
        "--ceiling SECS expects",
    );
}

#[test]
fn compile_usage_errors_fail_before_compiling() {
    // A default-size gemm DSE takes seconds in this profile; each of
    // these must return at once with exit 2.
    let start = std::time::Instant::now();
    assert_usage_error(&[], "expected a kernel or an audit name\n");
    assert_usage_error(&["--emit", "c"], "expected a kernel or an audit name\n");
    assert_usage_error(
        &["gemm", "--emit", "bitstream"],
        "unknown --emit bitstream\n",
    );
    assert_usage_error(&["gemm", "--emit"], "--emit dsl|graph|");
    assert_usage_error(&["gemm", "--search", "dfs"], "unknown --search dfs\n");
    assert_usage_error(&["gemm", "--size", "big"], "--size N expects");
    assert_usage_error(&["gemm", "--bogus"], "unknown flag --bogus\n");
    assert_usage_error(&["no-such-kernel"], "unknown kernel no-such-kernel\n");
    assert_usage_error(
        &["gemm", "--no-dse", "--emit", "cache"],
        "--emit cache reports",
    );
    assert_usage_error(&["gemm", "--search", "beam"], "unknown --search beam\n");
    assert_usage_error(&["gemm", "--budget-ms", "5"], "unknown flag --budget-ms\n");
    assert!(
        start.elapsed() < std::time::Duration::from_secs(10),
        "usage errors took {:?}: something compiled first",
        start.elapsed()
    );
}

#[test]
fn dataflow_signs_off_the_returned_design() {
    // jacobi2d@64's winner has its IIs retargeted after the search: the
    // DSE's dataflow figure must still be the returned design's.
    let out = pomc(&[
        "jacobi2d",
        "--size",
        "64",
        "--dataflow",
        "--emit",
        "dataflow",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(stdout.contains("DSE dataflow: "), "{stdout}");
    assert!(stdout.contains("sequential cycles: "), "{stdout}");
    // The DSE line's cycle count is the co-simulation printed above it.
    let cosim = stdout
        .lines()
        .find_map(|l| l.strip_prefix("total cycles:"))
        .and_then(|rest| rest.split_whitespace().next())
        .expect("co-simulated cycle count");
    let dse = stdout
        .lines()
        .find_map(|l| l.strip_prefix("DSE dataflow: "))
        .and_then(|rest| rest.split(" dataflow cycle(s)").next())
        .and_then(|head| head.split_whitespace().last())
        .expect("the DSE line's dataflow cycle count");
    assert_eq!(dse, cosim, "{stdout}");
}

#[test]
fn signoff_emits_pass_on_gemm() {
    for emit in ["sim", "dataflow", "live"] {
        let out = pomc(&["gemm", "--size", "32", "--emit", emit]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "--emit {emit}: {stderr}");
        if emit != "live" {
            assert!(
                stdout.contains("memory vs interpreter: bit-identical"),
                "--emit {emit}:\n{stdout}"
            );
        }
        assert!(
            !stdout.contains("FAILED") && !stderr.contains("FAILED"),
            "--emit {emit}:\n{stdout}{stderr}"
        );
    }
}
