//! Certificate sweep over the DSE candidate corpus (`pomc verify-all`).
//!
//! Replays the Table III + Table V suite through `auto_dse` with winner
//! validation *and* sampled candidate validation enabled, then replays
//! each winning schedule once more through `pom-verify` to record the
//! per-obligation certificate chain. The result is a machine-readable
//! summary (`VERIFY_certificates.json`) consumed by the
//! `audit` CI matrix, which fails when any kernel's winning
//! schedule is rejected.

use crate::experiments::bench_dse::suite;
use crate::experiments::common::{col, Column, Report};
use pom::verify;
use pom::{auto_dse_with, CompileOptions, DseConfig};

/// One kernel's certificate summary.
#[derive(Clone, Debug, Default)]
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
            Err(e) => VerifyRow {
                kernel: name,
                rejection: Some(match e {
                    pom::CompileError::Rejected(report) => report,
                    e => format!("compile error: {e}"),
                }),
                ..Default::default()
            },
        };
        rows.push(row);
    }
    VerifyReport { rows }
}

/// The gate: every kernel's winning schedule must carry a passing
/// certificate chain. A failure carries the rendered rejection report.
pub fn gate(r: &VerifyReport) -> Vec<String> {
    let rejected = r.rows.iter().filter_map(|row| {
        let rejection = row.rejection.as_ref()?;
        Some(format!("{}: schedule rejected\n{rejection}", row.kernel))
    });
    rejected.collect()
}

const COLUMNS: &[Column<VerifyRow>] = &[
    col("kernel", "Kernel", |r| r.kernel.into()),
    col("primitives", "Prims", |r| r.primitives.into()),
    col("obligations", "Oblig", |r| r.obligations.into()),
    col("certificates_checked", "Checked", |r| {
        r.certificates_checked.into()
    }),
    col("certificates_passed", "Passed", |r| {
        r.certificates_passed.into()
    }),
    col("certificates_sampled", "Sampled", |r| {
        r.certificates_sampled.into()
    }),
    col("range_iterations", "Iters", |r| r.range_iterations.into()),
    col("passed", "Ok", |r| r.rejection.is_none().into()),
];

/// The table and `VERIFY_certificates.json` of a sweep, gated by
/// [`gate`].
pub fn report(r: &VerifyReport) -> Report {
    let mut out = Report::new(
        "Certificate sweep — DSE winners + sampled candidates",
        "kernels",
        COLUMNS,
        &r.rows,
    );
    out.fails = gate(r);
    out
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
        assert_eq!(gate(&r), Vec::<String>::new());
        assert!(r.rows.iter().all(|k| k.certificates_checked > 0));
        assert!(r.rows.iter().any(|k| k.certificates_sampled > 0));
        let json = report(&r).to_json();
        assert!(json.contains("\"all_passed\": true"));
        assert!(json.contains("\"kernel\": \"gemm\""));
    }
}
