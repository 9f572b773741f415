//! `bench-sim` — the differential simulation audit harness.
//!
//! Runs the full 14-kernel suite twice per kernel — once with the seed
//! (recorded) schedule and once with the auto-DSE winner — through the
//! cycle-approximate simulator (`pom-sim`). Each run is checked two
//! ways:
//!
//! 1. **Functional equivalence** — the simulator's final memory state
//!    must be bit-identical to the affine interpreter's
//!    ([`pom::execute_func`]) on the same seeded inputs. The simulator
//!    executes the program in interpreter order, so any divergence is a
//!    bug, not a tolerance.
//! 2. **Model audit** — the analytical QoR latency is compared against
//!    the simulated cycle count. On the Table III and image kernels the
//!    ratio must stay within ±15%; the remaining kernels are reported
//!    but not gated (their sequential outer structure is where the
//!    analytical model is deliberately coarser — see DESIGN.md §11).
//! 3. **Conflict-freedom cross-check** — every pipelined loop that
//!    pom-bank certifies conflict-free (`pom_verify::bank_report`) must
//!    show *zero* simulated port-stall cycles. A violation means either
//!    the static bank analysis or the simulator's port calendars model
//!    partitioning wrongly — the two derive bank mappings independently
//!    from the same declarations.
//!
//! Results render as a table and serialize as `BENCH_sim.json` so the
//! estimator-vs-measurement trajectory is tracked across PRs.

use crate::experiments::common::{col, paper_options, Column, Report};
use crate::serve::{kernel_by_name, SUITE};
use pom::hls::WriteTiming;
use pom::{
    auto_dse_with, bank_report_timed, compile, AffineFunc, CompileOptions, Compiled, DseConfig,
    Function, Signoff,
};
use pom_dse::run_indexed;
use pom_ir::AffineOp;
use std::collections::{BTreeMap, BTreeSet};

/// Seed for the deterministic pseudo-random array contents.
pub const SIM_SEED: u64 = 42;

/// Relative tolerance of the analytical model on the gated kernels.
pub const TOLERANCE: f64 = 0.15;

/// Kernels whose estimate-vs-simulation ratio is gated: the Table III
/// typical-HLS set plus the image pipelines (gated since pom-bank's
/// port-slide model closed their stencil-conflict undershoot — see
/// DESIGN.md §12). The DNN apps are audited but reported only.
pub const GATED: &[&str] = &[
    "gemm",
    "bicg",
    "gesummv",
    "2mm",
    "3mm",
    "jacobi1d",
    "jacobi2d",
    "heat1d",
    "seidel",
    "edge_detect",
    "gaussian",
    "blur",
];

/// The full 14-kernel [`SUITE`] under `pomc`'s per-kernel size
/// conventions ([`kernel_by_name`]: derived extents are clamped, so any
/// `size` builds).
pub fn suite(size: usize) -> Vec<(&'static str, Function)> {
    SUITE
        .iter()
        .map(|name| (*name, kernel_by_name(name, size).expect("suite kernel")))
        .collect()
}

/// One (kernel, schedule) measurement.
#[derive(Clone, Debug, Default)]
pub struct KernelSim {
    /// Kernel name.
    pub kernel: &'static str,
    /// Which schedule ran: `"seed"` (recorded) or `"dse"` (auto winner).
    pub schedule: &'static str,
    /// Analytical latency from the QoR estimator.
    pub est_cycles: u64,
    /// Measured latency from the simulator.
    pub sim_cycles: u64,
    /// `est_cycles / sim_cycles`.
    pub ratio: f64,
    /// Simulator memory state is bit-identical to the interpreter's.
    pub identical: bool,
    /// Issue cycles lost to loop-carried dependences.
    pub stall_dep: u64,
    /// Issue cycles lost to memory-port contention.
    pub stall_port: u64,
    /// Pipeline drain cycles.
    pub stall_drain: u64,
    /// Memory accesses whose port grant slid past the requested cycle.
    pub port_conflicts: u64,
    /// Pipeline iterations issued.
    pub pipeline_iterations: u64,
    /// This row participates in the ±15% tolerance gate.
    pub gated: bool,
    /// Pipelined loops pom-bank certified conflict-free.
    pub certified_free: usize,
    /// Simulated port-stall cycles inside those certified loops (must be
    /// zero — the cross-check gate).
    pub certified_stall_port: u64,
    /// Simulator wall seconds.
    pub sim_s: f64,
}

/// What one whole-suite audit (`bench-sim`, `bench-live`,
/// `bench-dataflow`) measured.
#[derive(Clone, Debug)]
pub struct SuiteRun<R> {
    /// The audit's rows, in suite order.
    pub rows: Vec<R>,
    /// Problem size the suite ran at.
    pub size: usize,
    /// Worker threads used by the cross-kernel pool.
    pub pool_workers: usize,
}

impl<R> SuiteRun<R> {
    /// The run's rows under `columns` (JSON key `"rows"`), with `size`
    /// and `pool_workers` leading the summary.
    pub fn report(&self, title: &str, columns: &[Column<R>]) -> Report {
        let mut out = Report::new(title, "rows", columns, &self.rows);
        out.summary = vec![
            ("size", self.size.into()),
            ("pool_workers", self.pool_workers.into()),
        ];
        out
    }
}

/// Runs `per_kernel` over [`suite`]`(size)` on the cross-kernel pool.
pub fn run_over_suite<R: Send>(
    size: usize,
    per_kernel: impl Fn(&'static str, &Function, &CompileOptions) -> Vec<R> + Sync,
) -> SuiteRun<R> {
    let opts = paper_options();
    let suite = suite(size);
    let pool_workers = DseConfig::default().effective_workers();
    let rows = run_indexed(suite.len(), pool_workers, |i| {
        per_kernel(suite[i].0, &suite[i].1, &opts)
    });
    SuiteRun {
        rows: rows.into_iter().flatten().collect(),
        size,
        pool_workers,
    }
}

/// `measure` on a kernel's seed (recorded) schedule and on its auto-DSE
/// winner: the two rows `bench-sim` and `bench-live` report per kernel.
pub fn seed_and_dse<R>(
    kernel: &'static str,
    f: &Function,
    opts: &CompileOptions,
    measure: fn(&'static str, &'static str, &Function, &Compiled, &CompileOptions) -> R,
) -> Vec<R> {
    let seed = compile(f, opts).expect("seed schedule compiles");
    let dse = auto_dse_with(f, opts, &DseConfig::default()).expect("DSE compiles");
    vec![
        measure(kernel, "seed", f, &seed, opts),
        measure(kernel, "dse", &dse.function, &dse.compiled, opts),
    ]
}

/// Simulates one compiled design and checks it against the interpreter.
pub fn measure(
    kernel: &'static str,
    schedule: &'static str,
    f: &Function,
    compiled: &Compiled,
    opts: &CompileOptions,
) -> KernelSim {
    let signoff = Signoff::new(f, compiled, opts, SIM_SEED);
    let (report, sim_mem) = signoff.sim();
    let est = compiled.qor.latency;
    // Conflict-freedom cross-check: loops the static analysis certifies
    // conflict-free must simulate with zero port stalls.
    let timing = WriteTiming {
        model: &opts.model,
        deps: &compiled.deps,
    };
    let free_ivs = certified_free_ivs(&compiled.affine, opts.model.ports_per_bank, &timing);
    let certified_stall_port = report
        .loops
        .iter()
        .filter(|l| free_ivs.contains(&l.iv))
        .map(|l| l.stall_port)
        .sum();
    KernelSim {
        kernel,
        schedule,
        est_cycles: est,
        sim_cycles: report.cycles,
        ratio: est as f64 / report.cycles.max(1) as f64,
        identical: sim_mem == signoff.interpreted(),
        stall_dep: report.stall_dep,
        stall_port: report.stall_port,
        stall_drain: report.stall_drain,
        port_conflicts: report.port_conflicts,
        pipeline_iterations: report.pipeline_iterations,
        gated: GATED.contains(&kernel),
        certified_free: free_ivs.len(),
        certified_stall_port,
        sim_s: report.sim_time.as_secs_f64(),
    }
}

/// The ivs whose simulated port stalls count against pom-bank's
/// certificates. The simulator aggregates its loop rows per iv and
/// sibling nests reuse iv names, so an iv counts only when *every*
/// outermost pipelined loop of that name holds a passing certificate —
/// a loop pom-bank cannot enumerate exactly gets no certificate at all,
/// and its stalls must not be charged to a certified sibling.
fn certified_free_ivs(
    func: &AffineFunc,
    ports_per_bank: u64,
    timing: &WriteTiming,
) -> BTreeSet<String> {
    fn pipelined<'a>(ops: &'a [AffineOp], out: &mut BTreeMap<&'a str, usize>) {
        for op in ops {
            match op {
                AffineOp::For(l) if l.attrs.pipeline_ii.is_some() => {
                    *out.entry(l.iv.as_str()).or_default() += 1;
                }
                AffineOp::For(l) => pipelined(&l.body, out),
                AffineOp::If(i) => pipelined(&i.body, out),
                AffineOp::Store(_) => {}
            }
        }
    }
    let mut loops = BTreeMap::new();
    pipelined(&func.body, &mut loops);
    let mut passed: BTreeMap<&str, usize> = BTreeMap::new();
    let certs = bank_report_timed(func, ports_per_bank, timing);
    for c in certs.certificates.iter().filter(|c| c.passed()) {
        *passed.entry(c.stmt.as_str()).or_default() += 1;
    }
    loops
        .into_iter()
        .filter(|(iv, n)| passed.get(iv) == Some(n))
        .map(|(iv, _)| iv.to_string())
        .collect()
}

/// Runs the suite at `size`: two rows per kernel (seed, dse).
pub fn run_suite(size: usize) -> SuiteRun<KernelSim> {
    run_over_suite(size, |kernel, f, opts| {
        seed_and_dse(kernel, f, opts, measure)
    })
}

/// The gate: every row must be functionally identical; gated rows must
/// additionally keep the analytical estimate within ±15% of the
/// simulated cycles. Returns human-readable failures (empty = pass).
pub fn gate(r: &SuiteRun<KernelSim>) -> Vec<String> {
    let mut fails = Vec::new();
    for k in &r.rows {
        if !k.identical {
            fails.push(format!(
                "{} ({}): simulator memory diverged from the interpreter",
                k.kernel, k.schedule
            ));
        }
        if k.gated && (k.ratio - 1.0).abs() > TOLERANCE {
            fails.push(format!(
                "{} ({}): estimate {} vs simulated {} cycles (ratio {:.3} outside ±{:.0}%)",
                k.kernel,
                k.schedule,
                k.est_cycles,
                k.sim_cycles,
                k.ratio,
                100.0 * TOLERANCE
            ));
        }
        if k.certified_stall_port > 0 {
            fails.push(format!(
                "{} ({}): {} port-stall cycle(s) inside {} loop(s) certified conflict-free",
                k.kernel, k.schedule, k.certified_stall_port, k.certified_free
            ));
        }
    }
    fails
}

const COLUMNS: &[Column<KernelSim>] = &[
    col("kernel", "Kernel", |k| k.kernel.into()),
    col("schedule", "Schedule", |k| k.schedule.into()),
    col("est_cycles", "Estimated", |k| k.est_cycles.into()),
    col("sim_cycles", "Simulated", |k| k.sim_cycles.into()),
    col("ratio", "Est/Sim", |k| k.ratio.into()),
    col("identical", "Identical", |k| k.identical.into()),
    col("stall_dep", "Dep", |k| k.stall_dep.into()),
    col("stall_port", "Port", |k| k.stall_port.into()),
    col("stall_drain", "Drain", |k| k.stall_drain.into()),
    col("port_conflicts", "", |k| k.port_conflicts.into()),
    col("pipeline_iterations", "", |k| k.pipeline_iterations.into()),
    col("gated", "Gated", |k| k.gated.into()),
    col("certified_free", "CertFree", |k| k.certified_free.into()),
    col("certified_stall_port", "", |k| {
        k.certified_stall_port.into()
    }),
    col("sim_s", "", |k| k.sim_s.into()),
];

/// The table and `BENCH_sim.json` of a run, gated by [`gate`].
pub fn report(r: &SuiteRun<KernelSim>) -> Report {
    let mut out = r.report(
        "Simulated vs estimated cycles — seed and DSE schedules",
        COLUMNS,
    );
    let worst = r
        .rows
        .iter()
        .filter(|k| k.gated)
        .map(|k| (k.ratio - 1.0).abs())
        .fold(0.0f64, f64::max);
    out.summary.push(("worst_gated_deviation", worst.into()));
    out.summary.push(("tolerance", TOLERANCE.into()));
    out.fails = gate(r);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels;
    use pom::DataType;
    use pom_ir::{ForOp, HlsAttrs, MemRefDecl, StoreOp};
    use pom_poly::{AccessFn, Bound, LinearExpr};

    /// `for i in 0..=ub (pipelined) { for j in 0..=inner_ub { dst[j] = src[j] } }`.
    fn copy_nest(src: &str, dst: &str, ub: i64, inner_ub: LinearExpr) -> AffineOp {
        let cb = |v: i64| Bound::new(LinearExpr::constant_expr(v), 1);
        let j = LinearExpr::var("j");
        AffineOp::For(ForOp {
            extra: Vec::new(),
            iv: "i".into(),
            lbs: vec![cb(0)],
            ubs: vec![cb(ub)],
            attrs: HlsAttrs {
                pipeline_ii: Some(1),
                ..Default::default()
            },
            body: vec![AffineOp::For(ForOp {
                extra: Vec::new(),
                iv: "j".into(),
                lbs: vec![cb(0)],
                ubs: vec![Bound::new(inner_ub, 1)],
                attrs: HlsAttrs::none(),
                body: vec![AffineOp::Store(StoreOp {
                    stmt: format!("{dst}_s"),
                    dest: AccessFn::new(dst, vec![j.clone()]),
                    value: pom::Expr::Load(AccessFn::new(src, vec![j])),
                })],
            })],
        })
    }

    #[test]
    fn an_uncertified_sibling_keeps_its_iv_out_of_the_cross_check() {
        // Two sibling nests pipeline an `i`. The first copies one element
        // per iteration and is certified conflict-free; the second's
        // inner bound takes 128 values, more than pom-bank enumerates, so
        // it gets no certificate. The simulator charges both loops'
        // stalls to `i`, so `i` must not count as certified.
        let mut f = AffineFunc::new("siblings");
        for a in ["a", "b", "x", "y"] {
            f.memrefs.push(MemRefDecl::new(a, &[128], DataType::F32));
        }
        f.body
            .push(copy_nest("a", "b", 7, LinearExpr::constant_expr(0)));
        let opts = paper_options();
        let ports = opts.model.ports_per_bank;
        let deps = pom::hls::DepSummary::new();
        let timing = WriteTiming {
            model: &opts.model,
            deps: &deps,
        };
        let certs = bank_report_timed(&f, ports, &timing);
        assert_eq!(certs.certificates.len(), 1);
        assert!(certs.certificates[0].passed());
        assert_eq!(
            certified_free_ivs(&f, ports, &timing),
            BTreeSet::from(["i".to_string()])
        );

        f.body.push(copy_nest("x", "y", 127, LinearExpr::var("i")));
        assert_eq!(
            bank_report_timed(&f, ports, &timing).certificates.len(),
            1,
            "inexact: no certificate"
        );
        assert!(certified_free_ivs(&f, ports, &timing).is_empty());
    }

    #[test]
    fn seed_gemm_row_is_identical_and_json_well_formed() {
        // One tiny kernel keeps the debug-mode test fast; the full suite
        // runs in release via `pomc bench-sim`.
        let opts = paper_options();
        let f = kernels::gemm(8);
        let compiled = compile(&f, &opts).expect("compiles");
        let row = measure("gemm", "seed", &f, &compiled, &opts);
        assert!(row.identical, "sim diverged from interpreter");
        assert!(row.sim_cycles > 0);
        assert!(row.gated);
        assert_eq!(row.certified_stall_port, 0, "certified loops stalled");
        let report = SuiteRun {
            rows: vec![row],
            size: 8,
            pool_workers: 1,
        };
        let report = super::report(&report);
        let json = report.to_json();
        assert!(json.contains("\"kernel\": \"gemm\""));
        assert!(json.contains("\"identical\": true"));
        assert!(json.trim_start().starts_with('{') && json.trim_end().ends_with('}'));
        let text = report.render();
        assert!(text.contains("gemm"));
        assert!(text.contains("Est/Sim"));
    }
}
