//! `bench-live` — the liveness/contraction differential audit harness.
//!
//! Runs the full 14-kernel suite (Table III + image + DNN) twice per
//! kernel — seed schedule and auto-DSE winner — through `pom-live`'s
//! whole-function liveness analysis, and audits every claim against the
//! simulator:
//!
//! 1. **High-water cross-check** — for every array, the static bound on
//!    simultaneously-live elements (`∏ windows`, or the declared size
//!    when the analysis degrades to inexact) must be ≥ the simulator's
//!    measured per-array live high-water
//!    ([`SimReport::occupancy`](pom::SimReport::occupancy)). The two derive liveness independently (FM
//!    projection vs per-element last-read intervals), so a violation
//!    means one of them is wrong.
//! 2. **Certificate replay** — every array the analysis claims
//!    contractible must pass [`pom::replay_contraction`]: the whole
//!    store stream replayed through the folded buffer bit-identically.
//! 3. **Dead stores** — POM008 findings are reported per kernel; the
//!    suite's kernels are expected to have none.
//!
//! Results render as a table and serialize as `LIVE_report.json` so the
//! contraction coverage trajectory is tracked across PRs.

use crate::experiments::bench_sim::{run_over_suite, seed_and_dse, SuiteRun, SIM_SEED};
use crate::experiments::common::{col, Column, Report};
use pom::{replay_contraction, CompileOptions, Compiled, Function, Signoff};

/// One (kernel, schedule) liveness audit.
#[derive(Clone, Debug, Default)]
pub struct KernelLive {
    /// Kernel name.
    pub kernel: &'static str,
    /// Which schedule ran: `"seed"` (recorded) or `"dse"` (auto winner).
    pub schedule: &'static str,
    /// Arrays analyzed.
    pub arrays: usize,
    /// Arrays with an exact (claim-backing) analysis.
    pub exact: usize,
    /// Arrays whose live window strictly beats their declared size.
    pub contracted: usize,
    /// Total declared storage bits across all arrays.
    pub declared_bits: u64,
    /// Total storage bits at contracted footprints (equal to
    /// `declared_bits` when nothing contracts).
    pub contracted_bits: u64,
    /// Inter-statement flow edges (POM009 rows).
    pub flow_edges: usize,
    /// Dead stores found (POM008 rows) — expected 0 on the suite.
    pub dead_stores: usize,
    /// Arrays whose simulated live high-water exceeded the static bound
    /// (must be 0 — the cross-check gate).
    pub bound_violations: usize,
    /// Contraction certificates whose replay failed (must be 0).
    pub cert_failures: usize,
    /// Contraction certificates replayed.
    pub certs_replayed: usize,
}

/// Audits one compiled design's liveness claims against the simulator.
pub fn measure(
    kernel: &'static str,
    schedule: &'static str,
    f: &Function,
    compiled: &Compiled,
    opts: &CompileOptions,
) -> KernelLive {
    let signoff = Signoff::new(f, compiled, opts, SIM_SEED);
    let (live, report) = (signoff.live(), &signoff.sim().0);
    let sim_hw = |array: &str| {
        report
            .occupancy
            .iter()
            .find(|o| o.array == array)
            .map(|o| o.high_water)
            .unwrap_or(0)
    };
    let mut row = KernelLive {
        kernel,
        schedule,
        arrays: live.arrays.len(),
        exact: live.arrays.iter().filter(|a| a.exact).count(),
        contracted: live.arrays.iter().filter(|a| a.contracted()).count(),
        declared_bits: live.arrays.iter().map(|a| a.declared_bits()).sum(),
        contracted_bits: live.arrays.iter().map(|a| a.contracted_bits()).sum(),
        flow_edges: live.depths.len(),
        dead_stores: live.dead_stores.len(),
        bound_violations: 0,
        cert_failures: 0,
        certs_replayed: 0,
    };
    // The static bound is ∏ windows (== declared cells when the
    // analysis degrades to inexact or the array is write-only).
    row.bound_violations = live
        .arrays
        .iter()
        .filter(|al| sim_hw(&al.array) > al.high_water_cells)
        .count();
    for al in live.arrays.iter().filter(|a| a.contracted()) {
        row.certs_replayed += 1;
        if replay_contraction(&compiled.affine, signoff.memory(), &al.array, &al.windows).is_err() {
            row.cert_failures += 1;
        }
    }
    row
}

/// Runs the suite at `size`: two rows per kernel (seed, dse).
pub fn run_suite(size: usize) -> SuiteRun<KernelLive> {
    run_over_suite(size, |kernel, f, opts| {
        seed_and_dse(kernel, f, opts, measure)
    })
}

/// The gate: no array's simulated high-water may exceed its static
/// bound, and every claimed contraction must replay. Returns
/// human-readable failures (empty = pass).
pub fn gate(r: &SuiteRun<KernelLive>) -> Vec<String> {
    let mut fails = Vec::new();
    for k in &r.rows {
        if k.bound_violations > 0 {
            fails.push(format!(
                "{} ({}): {} array(s) simulated more live elements than the static bound",
                k.kernel, k.schedule, k.bound_violations
            ));
        }
        if k.cert_failures > 0 {
            fails.push(format!(
                "{} ({}): {} contraction certificate(s) failed replay",
                k.kernel, k.schedule, k.cert_failures
            ));
        }
    }
    fails
}

const COLUMNS: &[Column<KernelLive>] = &[
    col("kernel", "Kernel", |k| k.kernel.into()),
    col("schedule", "Schedule", |k| k.schedule.into()),
    col("arrays", "Arrays", |k| k.arrays.into()),
    col("exact", "Exact", |k| k.exact.into()),
    col("contracted", "Contracted", |k| k.contracted.into()),
    col("declared_bits", "DeclaredBits", |k| k.declared_bits.into()),
    col("contracted_bits", "ContractedBits", |k| {
        k.contracted_bits.into()
    }),
    col("flow_edges", "Flows", |k| k.flow_edges.into()),
    col("dead_stores", "Dead", |k| k.dead_stores.into()),
    col("bound_violations", "Violations", |k| {
        k.bound_violations.into()
    }),
    col("certs_replayed", "Certs", |k| k.certs_replayed.into()),
    col("cert_failures", "Failed", |k| k.cert_failures.into()),
];

/// The table and `LIVE_report.json` of a run, gated by [`gate`].
pub fn report(r: &SuiteRun<KernelLive>) -> Report {
    let mut out = r.report(
        "Liveness audit — static windows vs simulated high-water",
        COLUMNS,
    );
    let total = |bits: fn(&KernelLive) -> u64| r.rows.iter().map(bits).sum::<u64>();
    let declared = total(|k| k.declared_bits);
    let contracted = total(|k| k.contracted_bits);
    out.summary.push(("suite_declared_bits", declared.into()));
    out.summary
        .push(("suite_contracted_bits", contracted.into()));
    out.fails = gate(r);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::common::paper_options;
    use crate::kernels;
    use pom::compile;

    #[test]
    fn jacobi1d_seed_row_contracts_and_passes_the_cross_check() {
        // One stencil kernel keeps the debug-mode test fast; the full
        // suite runs in release via `pomc bench-live`.
        let opts = paper_options();
        let f = kernels::jacobi1d(4, 18);
        let compiled = compile(&f, &opts).expect("compiles");
        let row = measure("jacobi1d", "seed", &f, &compiled, &opts);
        assert_eq!(row.bound_violations, 0, "static bound below simulated");
        assert_eq!(row.cert_failures, 0, "contraction failed replay");
        assert!(
            row.contracted >= 1,
            "the time-expanded stencil buffer should contract"
        );
        assert!(row.contracted_bits < row.declared_bits);
        assert_eq!(row.dead_stores, 0);
        let report = SuiteRun {
            rows: vec![row],
            size: 18,
            pool_workers: 1,
        };
        assert!(gate(&report).is_empty());
        let report = super::report(&report);
        let json = report.to_json();
        assert!(json.contains("\"kernel\": \"jacobi1d\""));
        assert!(json.contains("\"all_passed\": true"));
        let text = report.render();
        assert!(text.contains("jacobi1d"));
        assert!(text.contains("Contracted"));
    }
}
