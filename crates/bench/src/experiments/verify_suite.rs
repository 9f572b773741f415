//! Certificate sweep over the DSE candidate corpus (`pomc verify-all`).
//!
//! Replays the Table III + Table V suite through `auto_dse` with winner
//! validation *and* sampled candidate validation enabled, then replays
//! each winning schedule once more through `pom-verify` to record the
//! per-obligation certificate chain. The result is a machine-readable
//! summary (`VERIFY_certificates.json`) consumed by the
//! `verify-all-kernels` CI job, which fails when any kernel's winning
//! schedule is rejected.

use crate::experiments::bench_dse::suite;
use pom::verify;
use pom::{auto_dse_with, CompileOptions, DseConfig};
use std::fmt::Write;

/// One kernel's certificate summary.
#[derive(Clone, Debug)]
pub struct VerifyRow {
    /// Kernel name (suite order).
    pub kernel: &'static str,
    /// Primitives the winning schedule carries.
    pub primitives: usize,
    /// Obligations discharged on the winning schedule.
    pub obligations: usize,
    /// Certificates checked across the search (winner + sampled).
    pub certificates_checked: usize,
    /// Certificates that passed.
    pub certificates_passed: usize,
    /// Candidate schedules picked up by sampled validation.
    pub certificates_sampled: usize,
    /// Fixpoint iterations of the value-range analysis on the winner.
    pub range_iterations: usize,
    /// Rendered rejection report, when the winner failed validation.
    pub rejection: Option<String>,
}

/// The whole sweep.
#[derive(Clone, Debug)]
pub struct VerifyReport {
    /// Per-kernel rows, in suite order.
    pub rows: Vec<VerifyRow>,
}

impl VerifyReport {
    /// True when every kernel's winning schedule carries a passing
    /// certificate chain.
    pub fn all_passed(&self) -> bool {
        self.rows.iter().all(|r| r.rejection.is_none())
    }
}

/// Runs the sweep over the full Table III + Table V suite.
/// `sample_every` enables sampled candidate validation inside the
/// stage-2 search (0 disables it; the winner is always validated).
pub fn run_suite(size: usize, sample_every: usize) -> VerifyReport {
    run_on(suite(size), sample_every)
}

/// [`run_suite`] over an explicit kernel list.
pub fn run_on(kernels: Vec<(&'static str, pom::Function)>, sample_every: usize) -> VerifyReport {
    let opts = CompileOptions::default();
    let cfg = DseConfig {
        validate_sample_every: sample_every,
        ..DseConfig::default()
    };
    let mut rows = Vec::new();
    for (name, f) in kernels {
        let row = match auto_dse_with(&f, &opts, &cfg) {
            Ok(r) => {
                // Replay the winner once more to count its obligations.
                let report = verify::validate(&r.function);
                VerifyRow {
                    kernel: name,
                    primitives: r.function.schedule().len(),
                    obligations: report
                        .certificates
                        .iter()
                        .map(|c| c.obligations.len())
                        .sum(),
                    certificates_checked: r.stats.certificates_checked,
                    certificates_passed: r.stats.certificates_passed,
                    certificates_sampled: r.stats.certificates_sampled,
                    range_iterations: r.stats.range_iterations,
                    rejection: None,
                }
            }
            Err(pom::CompileError::Rejected(report)) => VerifyRow {
                kernel: name,
                primitives: 0,
                obligations: 0,
                certificates_checked: 0,
                certificates_passed: 0,
                certificates_sampled: 0,
                range_iterations: 0,
                rejection: Some(report),
            },
            Err(e) => VerifyRow {
                kernel: name,
                primitives: 0,
                obligations: 0,
                certificates_checked: 0,
                certificates_passed: 0,
                certificates_sampled: 0,
                range_iterations: 0,
                rejection: Some(format!("compile error: {e}")),
            },
        };
        rows.push(row);
    }
    VerifyReport { rows }
}

/// Human-readable table.
pub fn render(r: &VerifyReport) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<12} {:>5} {:>6} {:>8} {:>7} {:>8} {:>6}  status",
        "kernel", "prims", "oblig", "checked", "passed", "sampled", "iters"
    );
    for row in &r.rows {
        let status = if row.rejection.is_none() {
            "ok"
        } else {
            "REJECTED"
        };
        let _ = writeln!(
            s,
            "{:<12} {:>5} {:>6} {:>8} {:>7} {:>8} {:>6}  {status}",
            row.kernel,
            row.primitives,
            row.obligations,
            row.certificates_checked,
            row.certificates_passed,
            row.certificates_sampled,
            row.range_iterations,
        );
    }
    for row in &r.rows {
        if let Some(rej) = &row.rejection {
            let _ = writeln!(s, "\n--- {} ---\n{rej}", row.kernel);
        }
    }
    s
}

/// Serializes the sweep as `VERIFY_certificates.json` (hand-rolled, no
/// external deps — same convention as `bench_dse::to_json`).
pub fn to_json(r: &VerifyReport) -> String {
    let mut s = String::from("{\n  \"kernels\": [\n");
    for (i, row) in r.rows.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"kernel\": \"{}\", \"primitives\": {}, \"obligations\": {}, \
             \"certificates_checked\": {}, \"certificates_passed\": {}, \
             \"certificates_sampled\": {}, \"range_iterations\": {}, \"passed\": {}}}",
            row.kernel,
            row.primitives,
            row.obligations,
            row.certificates_checked,
            row.certificates_passed,
            row.certificates_sampled,
            row.range_iterations,
            row.rejection.is_none(),
        );
        s.push_str(if i + 1 < r.rows.len() { ",\n" } else { "\n" });
    }
    let _ = write!(s, "  ],\n  \"all_passed\": {}\n}}\n", r.all_passed());
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_sweep_passes_and_serializes() {
        // A two-kernel subset keeps this fast in debug builds; the full
        // suite runs in CI via `pomc verify-all` (release profile).
        let r = run_on(
            vec![
                ("gemm", crate::kernels::gemm(8)),
                ("gesummv", crate::kernels::gesummv(8)),
            ],
            2,
        );
        assert!(r.all_passed(), "{}", render(&r));
        assert!(r.rows.iter().all(|k| k.certificates_checked > 0));
        assert!(r.rows.iter().any(|k| k.certificates_sampled > 0));
        let json = to_json(&r);
        assert!(json.contains("\"all_passed\": true"));
        assert!(json.contains("\"kernel\": \"gemm\""));
    }
}
