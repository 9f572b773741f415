//! `bench-dse` — the machine-readable DSE performance harness.
//!
//! Runs the Table III + Table V kernel suite twice: once with the seed's
//! serial, uncached cost profile (`DseConfig::serial_uncached`) and once
//! with the performance layer on (compile/estimate cache + a
//! cross-kernel worker pool). [`gate`] fails the run when the two
//! disagree on a schedule or QoR, or when a fast search exceeds the
//! `--ceiling`; [`report`] is the table and `BENCH_dse.json`, so the
//! DSE-time trajectory (the paper's "DSE Time(s)" column) is tracked
//! across PRs. `--beam` adds the greedy-vs-portfolio comparison
//! ([`run_beam_suite`]) as the `"beam"` section, gated on: no simulated
//! regression, both winners inside the device, strictly decreasing
//! anytime curves, and at least one strict win.

use crate::experiments::bench_sim;
use crate::experiments::common::{col, paper_options, Cell, Column, Report};
use pom::{auto_dse_with, DseConfig, DseResult, Function, MemoryState, SearchMode};
use pom_dse::run_indexed;
use std::time::Instant;

/// One kernel's before/after measurements.
#[derive(Clone, Debug, Default)]
pub struct KernelBench {
    /// Kernel name.
    pub kernel: &'static str,
    /// Wall seconds of the serial, uncached search (seed profile).
    pub serial_s: f64,
    /// Wall seconds of the memoized search (run on the cross-kernel pool).
    pub fast_s: f64,
    /// `serial_s / fast_s`.
    pub speedup: f64,
    /// Schedules, groups, and QoR of both searches are byte-identical.
    pub identical: bool,
    /// Candidates fully estimated by the fast search.
    pub estimated: usize,
    /// Candidates discarded by the lint prescreen.
    pub lint_pruned: usize,
    /// Cache lookups answered from memory.
    pub cache_hits: usize,
    /// Cache lookups that computed their value.
    pub cache_misses: usize,
    /// Candidates evaluated inside concurrent beam waves (0 for greedy).
    pub parallel_evaluated: usize,
    /// Fast-search phase breakdown, in seconds.
    pub stage1_s: f64,
    /// Stage-2 search wall seconds.
    pub stage2_s: f64,
    /// Seconds inside schedule replay + dependence analysis + lowering.
    pub lowering_s: f64,
    /// Seconds inside QoR estimation.
    pub estimation_s: f64,
}

/// The whole suite's measurements.
#[derive(Clone, Debug, Default)]
pub struct BenchReport {
    /// Per-kernel rows, in suite order.
    pub rows: Vec<KernelBench>,
    /// Sum of the serial runs' wall seconds.
    pub serial_total_s: f64,
    /// Wall seconds of the fast runs dispatched across the worker pool.
    pub fast_wall_s: f64,
    /// `serial_total_s / fast_wall_s` — the headline number.
    pub total_speedup: f64,
    /// Worker threads used by the cross-kernel pool.
    pub pool_workers: usize,
}

/// The Table III (typical HLS) + Table V (image + DNN) kernel suite:
/// the shared 14-kernel suite ([`bench_sim::suite`]) without its four
/// stencils. `size` scales the polyhedral problem sizes; the DNN models
/// always run at scale 1 (their cost is in statement count, not extents).
pub fn suite(size: usize) -> Vec<(&'static str, Function)> {
    const STENCILS: &[&str] = &["jacobi1d", "jacobi2d", "heat1d", "seidel"];
    let mut suite = bench_sim::suite(size);
    suite.retain(|(name, _)| !STENCILS.contains(name));
    suite
}

/// True when two DSE results are byte-identical where it matters: the
/// emitted schedule, the group configurations, and the QoR.
pub fn results_identical(a: &DseResult, b: &DseResult) -> bool {
    a.function.to_string() == b.function.to_string()
        && a.groups == b.groups
        && a.compiled.qor == b.compiled.qor
}

/// Runs the suite at `size` and returns the full report.
pub fn run_suite(size: usize) -> BenchReport {
    let opts = paper_options();
    let suite = suite(size);
    let serial_cfg = DseConfig::serial_uncached();
    let fast_cfg = DseConfig::default();
    let pool_workers = fast_cfg.effective_workers();

    // Serial baseline: one kernel at a time, seed cost profile.
    let serial: Vec<(f64, DseResult)> = suite
        .iter()
        .map(|(_, f)| {
            let t = Instant::now();
            let r = auto_dse_with(f, &opts, &serial_cfg).expect("DSE compiles");
            (t.elapsed().as_secs_f64(), r)
        })
        .collect();

    // Fast mode: per-kernel DSE dispatched across the worker pool, each
    // search memoized.
    let t_pool = Instant::now();
    let fast: Vec<(f64, DseResult)> = run_indexed(suite.len(), pool_workers, |i| {
        let t = Instant::now();
        let r = auto_dse_with(&suite[i].1, &opts, &fast_cfg).expect("DSE compiles");
        (t.elapsed().as_secs_f64(), r)
    });
    let fast_wall_s = t_pool.elapsed().as_secs_f64();

    let rows: Vec<KernelBench> = suite
        .iter()
        .zip(serial.iter())
        .zip(fast.iter())
        .map(|(((name, _), (ss, sr)), (fs, fr))| KernelBench {
            kernel: name,
            serial_s: *ss,
            fast_s: *fs,
            speedup: ss / fs.max(1e-9),
            identical: results_identical(sr, fr),
            estimated: fr.stats.estimated,
            lint_pruned: fr.stats.lint_pruned,
            cache_hits: fr.stats.cache_hits,
            cache_misses: fr.stats.cache_misses,
            parallel_evaluated: fr.stats.parallel_evaluated,
            stage1_s: fr.stats.stage1_time.as_secs_f64(),
            stage2_s: fr.stats.stage2_time.as_secs_f64(),
            lowering_s: fr.stats.lowering_time.as_secs_f64(),
            estimation_s: fr.stats.estimation_time.as_secs_f64(),
        })
        .collect();

    let serial_total_s: f64 = rows.iter().map(|r| r.serial_s).sum();
    BenchReport {
        total_speedup: serial_total_s / fast_wall_s.max(1e-9),
        rows,
        serial_total_s,
        fast_wall_s,
        pool_workers,
    }
}

/// One kernel's greedy-vs-portfolio comparison: both winners simulated
/// with identically seeded memory, so the cycle counts are the same
/// metric the beam's sim-admission loop optimizes.
#[derive(Clone, Debug, Default)]
pub struct BeamBench {
    /// Kernel name.
    pub kernel: &'static str,
    /// Simulated cycles of the greedy winner's final design.
    pub greedy_cycles: u64,
    /// Simulated cycles of the portfolio winner's final design.
    pub beam_cycles: u64,
    /// Analytical latency estimates of the two final designs.
    pub greedy_est: u64,
    /// Portfolio winner's analytical latency estimate.
    pub beam_est: u64,
    /// Both final designs fit the device (equal resource envelope).
    pub both_fit: bool,
    /// `beam_cycles < greedy_cycles` — a strict simulated-cycles win.
    pub strict_win: bool,
    /// `beam_cycles > greedy_cycles` — a QoR regression (the portfolio
    /// guarantee makes this structurally impossible; the gate checks it
    /// anyway).
    pub regression: bool,
    /// Wall seconds of the greedy search.
    pub greedy_s: f64,
    /// Wall seconds of the portfolio search.
    pub beam_s: f64,
    /// The anytime incumbent curve: `(elapsed_s, sim_cycles)` per strict
    /// improvement, in time order.
    pub anytime: Vec<(f64, u64)>,
    /// The curve's cycle counts are strictly decreasing (the anytime
    /// contract).
    pub anytime_monotonic: bool,
    /// Frontier states the portfolio search simulated.
    pub sim_admitted: usize,
    /// Frontier survivors pruned by the sim-admission band.
    pub sim_pruned: usize,
    /// Successor states expanded across all beam waves.
    pub beam_expanded: usize,
}

/// The whole beam-vs-greedy comparison.
#[derive(Clone, Debug, Default)]
pub struct BeamReport {
    /// Per-kernel rows, in suite order.
    pub rows: Vec<BeamBench>,
    /// Kernels where the portfolio strictly beat greedy (simulated).
    pub strict_wins: usize,
    /// Kernels where the portfolio regressed vs greedy (simulated).
    pub regressions: usize,
    /// Every kernel's anytime curve was strictly decreasing.
    pub all_monotonic: bool,
}

/// The deterministic seed both measurements share — the same one the
/// searches themselves use, so the harness's counts match the DSE's.
const SIM_SEED: u64 = 0x5EED;

/// Simulated cycles of a DSE winner's final compiled design.
fn measure(f: &Function, r: &DseResult, opts: &pom::CompileOptions) -> u64 {
    let mut mem = MemoryState::for_function_seeded(f, SIM_SEED);
    pom::simulate(&r.compiled.affine, &r.compiled.deps, &mut mem, &opts.model).cycles
}

/// Runs the greedy-vs-portfolio comparison over the suite at `size`.
pub fn run_beam_suite(size: usize) -> BeamReport {
    let opts = paper_options();
    let suite = suite(size);
    let greedy_cfg = DseConfig::default();
    let beam_cfg = DseConfig {
        search: SearchMode::Portfolio,
        ..DseConfig::default()
    };
    let device = &opts.device;
    let rows: Vec<BeamBench> = suite
        .iter()
        .map(|(name, f)| {
            let t = Instant::now();
            let greedy = auto_dse_with(f, &opts, &greedy_cfg).expect("DSE compiles");
            let greedy_s = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let beam = auto_dse_with(f, &opts, &beam_cfg).expect("DSE compiles");
            let beam_s = t.elapsed().as_secs_f64();
            let greedy_cycles = measure(f, &greedy, &opts);
            let beam_cycles = measure(f, &beam, &opts);
            let fits = |r: &DseResult| {
                let u = &r.compiled.qor.resources;
                u.dsp <= device.dsp && u.ff <= device.ff && u.lut <= device.lut
            };
            let anytime: Vec<(f64, u64)> = beam
                .anytime
                .iter()
                .map(|p| (p.elapsed.as_secs_f64(), p.sim_cycles))
                .collect();
            BeamBench {
                kernel: name,
                greedy_cycles,
                beam_cycles,
                greedy_est: greedy.compiled.qor.latency,
                beam_est: beam.compiled.qor.latency,
                both_fit: fits(&greedy) && fits(&beam),
                strict_win: beam_cycles < greedy_cycles,
                regression: beam_cycles > greedy_cycles,
                greedy_s,
                beam_s,
                anytime_monotonic: anytime.windows(2).all(|w| w[1].1 < w[0].1),
                anytime,
                sim_admitted: beam.stats.sim_admitted,
                sim_pruned: beam.stats.sim_pruned,
                beam_expanded: beam.stats.beam_expanded,
            }
        })
        .collect();
    BeamReport {
        strict_wins: rows.iter().filter(|r| r.strict_win).count(),
        regressions: rows.iter().filter(|r| r.regression).count(),
        all_monotonic: rows.iter().all(|r| r.anytime_monotonic),
        rows,
    }
}

const COLUMNS: &[Column<KernelBench>] = &[
    col("kernel", "Kernel", |k| k.kernel.into()),
    col("serial_s", "Serial (s)", |k| k.serial_s.into()),
    col("fast_s", "Fast (s)", |k| k.fast_s.into()),
    col("speedup", "Speedup", |k| k.speedup.into()),
    col("identical", "Identical", |k| k.identical.into()),
    col("estimated", "Estimated", |k| k.estimated.into()),
    col("lint_pruned", "Pruned", |k| k.lint_pruned.into()),
    col("cache_hits", "Hits", |k| k.cache_hits.into()),
    col("cache_misses", "Misses", |k| k.cache_misses.into()),
    col("parallel_evaluated", "", |k| k.parallel_evaluated.into()),
    col("stage1_s", "", |k| k.stage1_s.into()),
    col("stage2_s", "", |k| k.stage2_s.into()),
    col("lowering_s", "", |k| k.lowering_s.into()),
    col("estimation_s", "", |k| k.estimation_s.into()),
];

const BEAM_COLUMNS: &[Column<BeamBench>] = &[
    col("kernel", "Kernel", |k| k.kernel.into()),
    col("greedy_cycles", "Greedy", |k| k.greedy_cycles.into()),
    col("beam_cycles", "Beam", |k| k.beam_cycles.into()),
    col("greedy_est", "", |k| k.greedy_est.into()),
    col("beam_est", "", |k| k.beam_est.into()),
    col("both_fit", "Fit", |k| k.both_fit.into()),
    col("strict_win", "Win", |k| k.strict_win.into()),
    col("regression", "Regressed", |k| k.regression.into()),
    col("greedy_s", "Greedy (s)", |k| k.greedy_s.into()),
    col("beam_s", "Beam (s)", |k| k.beam_s.into()),
    col("sim_admitted", "Simmed", |k| k.sim_admitted.into()),
    col("sim_pruned", "Pruned", |k| k.sim_pruned.into()),
    col("beam_expanded", "", |k| k.beam_expanded.into()),
    col("anytime_monotonic", "Monotonic", |k| {
        k.anytime_monotonic.into()
    }),
    col("anytime", "", |k| {
        let point = |(t, c): &(f64, u64)| Cell::List(vec![(*t).into(), (*c).into()]);
        Cell::List(k.anytime.iter().map(point).collect())
    }),
];

/// The gates. Every kernel's fast search must agree with the serial one
/// and finish inside `ceiling` seconds; with `--beam`, the portfolio
/// never regresses a kernel's simulated cycles, both winners fit the
/// device, every anytime curve is strictly decreasing, and the portfolio
/// strictly beats greedy somewhere. Returns human-readable failures
/// (empty = pass).
pub fn gate(r: &BenchReport, beam: Option<&BeamReport>, ceiling: f64) -> Vec<String> {
    let mut fails = Vec::new();
    for k in &r.rows {
        if !k.identical {
            fails.push(format!("{} parallel search diverged from serial", k.kernel));
        }
        if k.fast_s > ceiling {
            fails.push(format!(
                "{} DSE took {:.3} s (> ceiling {:.3} s)",
                k.kernel, k.fast_s, ceiling
            ));
        }
    }
    for k in beam.iter().flat_map(|b| &b.rows) {
        if k.regression {
            fails.push(format!(
                "{} portfolio regressed vs greedy ({} > {} simulated cycles)",
                k.kernel, k.beam_cycles, k.greedy_cycles
            ));
        }
        if !k.both_fit {
            fails.push(format!("{} winner exceeds the device envelope", k.kernel));
        }
        if !k.anytime_monotonic {
            fails.push(format!(
                "{} anytime curve is not strictly decreasing",
                k.kernel
            ));
        }
    }
    if beam.is_some_and(|b| b.strict_wins == 0) {
        fails.push("portfolio strictly beat greedy on no kernel".to_string());
    }
    fails
}

/// The table and `BENCH_dse.json` of a run (`beam`: the `--beam`
/// comparison as the `"beam"` section), gated under `ceiling`. Beside
/// the headline `total_speedup` the summary names the kernel with the
/// worst `fast_s / serial_s`, so a per-kernel loss cannot hide behind
/// the DNNs' win.
pub fn report(r: &BenchReport, beam: Option<&BeamReport>, ceiling: f64) -> Report {
    let mut out = Report::new(
        "DSE performance — serial seed vs memoized",
        "kernels",
        COLUMNS,
        &r.rows,
    );
    let fast_over_serial = |k: &KernelBench| k.fast_s / k.serial_s.max(1e-9);
    let worst = r
        .rows
        .iter()
        .max_by(|a, b| fast_over_serial(a).total_cmp(&fast_over_serial(b)));
    out.summary = vec![
        ("serial_total_s", r.serial_total_s.into()),
        ("fast_wall_s", r.fast_wall_s.into()),
        ("total_speedup", r.total_speedup.into()),
        ("pool_workers", r.pool_workers.into()),
        (
            "worst_fast_over_serial",
            worst.map_or(0.0, fast_over_serial).into(),
        ),
        (
            "worst_fast_over_serial_kernel",
            worst.map_or("", |k| k.kernel).into(),
        ),
    ];
    if let Some(b) = beam {
        let mut section = Report::new(
            "DSE search QoR — greedy vs portfolio beam (simulated cycles)",
            "kernels",
            BEAM_COLUMNS,
            &b.rows,
        );
        section.summary = vec![
            ("strict_wins", b.strict_wins.into()),
            ("regressions", b.regressions.into()),
            ("all_monotonic", b.all_monotonic.into()),
        ];
        out.sections.push(("beam", section));
    }
    out.fails = gate(r, beam, ceiling);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels;

    #[test]
    fn small_suite_is_identical_and_json_well_formed() {
        // A 2-kernel slice of the suite at a tiny size keeps this fast.
        let opts = paper_options();
        let serial_cfg = DseConfig::serial_uncached();
        let fast_cfg = DseConfig::default();
        for f in [kernels::gemm(32), kernels::bicg(32)] {
            let a = auto_dse_with(&f, &opts, &serial_cfg).expect("DSE compiles");
            let b = auto_dse_with(&f, &opts, &fast_cfg).expect("DSE compiles");
            assert!(results_identical(&a, &b), "{} diverged", f.name());
            assert!(b.stats.cache_hits > 0, "cache never hit");
            assert_eq!(b.stats.parallel_evaluated, 0, "greedy steps are serial");
        }
        let report = BenchReport {
            rows: vec![],
            serial_total_s: 1.0,
            fast_wall_s: 0.5,
            total_speedup: 2.0,
            pool_workers: 4,
        };
        let json = super::report(&report, None, f64::INFINITY).to_json();
        assert!(json.contains("\"total_speedup\": 2.000000"));
        assert!(json.trim_start().starts_with('{') && json.trim_end().ends_with('}'));
    }

    fn good() -> (BenchReport, BeamReport) {
        let row = |kernel, serial_s, fast_s| KernelBench {
            kernel,
            serial_s,
            fast_s,
            identical: true,
            ..Default::default()
        };
        let beam_row = |kernel, beam_cycles| BeamBench {
            kernel,
            greedy_cycles: 100,
            beam_cycles,
            both_fit: true,
            strict_win: beam_cycles < 100,
            anytime: vec![(0.1, 100), (0.2, beam_cycles)],
            anytime_monotonic: true,
            ..Default::default()
        };
        let bench = BenchReport {
            rows: vec![row("gemm", 0.004, 0.012), row("vgg16", 5.0, 0.25)],
            ..Default::default()
        };
        let beam = BeamReport {
            rows: vec![beam_row("gemm", 100), beam_row("vgg16", 95)],
            strict_wins: 1,
            regressions: 0,
            all_monotonic: true,
        };
        (bench, beam)
    }

    #[test]
    fn gate_fires_on_each_breach_and_only_then() {
        let (bench, beam) = good();
        assert!(gate(&bench, None, 120.0).is_empty());
        assert!(gate(&bench, Some(&beam), 120.0).is_empty());

        let mut diverged = bench.clone();
        diverged.rows[0].identical = false;
        let fails = gate(&diverged, None, 120.0);
        assert_eq!(fails, ["gemm parallel search diverged from serial"]);

        let fails = gate(&bench, None, 0.1);
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(fails[0].starts_with("vgg16 DSE took 0.250 s (> ceiling"));
        assert_eq!(gate(&bench, None, 0.0).len(), 2, "--ceiling 0 fails all");

        let mut regressed = beam.clone();
        regressed.rows[0].beam_cycles = 101;
        regressed.rows[0].regression = true;
        let fails = gate(&bench, Some(&regressed), 120.0);
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(fails[0].contains("gemm portfolio regressed vs greedy (101 > 100"));

        let mut unfit = beam.clone();
        unfit.rows[1].both_fit = false;
        let fails = gate(&bench, Some(&unfit), 120.0);
        assert_eq!(fails, ["vgg16 winner exceeds the device envelope"]);

        let mut bumpy = beam.clone();
        bumpy.rows[1].anytime_monotonic = false;
        let fails = gate(&bench, Some(&bumpy), 120.0);
        assert_eq!(fails, ["vgg16 anytime curve is not strictly decreasing"]);

        let mut no_win = beam.clone();
        no_win.strict_wins = 0;
        let fails = gate(&bench, Some(&no_win), 120.0);
        assert_eq!(fails, ["portfolio strictly beat greedy on no kernel"]);
    }

    #[test]
    fn summary_names_the_worst_per_kernel_ratio() {
        let (bench, _) = good();
        let json = super::report(&bench, None, f64::INFINITY).to_json();
        assert!(
            json.contains("\"worst_fast_over_serial\": 3.000000"),
            "{json}"
        );
        assert!(json.contains("\"worst_fast_over_serial_kernel\": \"gemm\""));
    }
}
