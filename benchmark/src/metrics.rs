//! The names, units and directions of every metric the ledger prints.
//! `BENCHMARK.json` lists the same names (a unit test keeps the two in
//! step); `README.md` defines each one.

/// How two measurements of the same code may differ (`--repeat-check`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Repeat {
    /// A count or a cycle number: must repeat exactly.
    Exact,
    /// A host time or memory reading: within the metric's bound.
    Timing,
    /// Not held to anything: a per-layer host time (no bound), or a count
    /// that depends on how the worker threads interleave.
    Free,
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when a larger value is better.
    pub higher: bool,
    /// Share of the baseline by which the metric may get worse before a
    /// change counts as a regression (end-to-end metrics only).
    pub bound: f64,
    pub repeat: Repeat,
}

const fn e(
    name: &'static str,
    unit: &'static str,
    higher: bool,
    bound: f64,
    repeat: Repeat,
) -> Metric {
    Metric {
        name,
        unit,
        higher,
        bound,
        repeat,
    }
}

/// A per-layer count, cycle number or ratio of those: repeats exactly.
const fn m(name: &'static str, unit: &'static str, higher: bool) -> Metric {
    e(name, unit, higher, 0.0, Repeat::Exact)
}

/// A per-layer host time, a value derived from one, or a count that
/// moves with how the search's worker threads interleave: which worker's
/// thread-local projection memo a job finds warm (`poly.fm_*`), which of
/// two workers fills a cache entry or writes an artifact first.
const fn f(name: &'static str, unit: &'static str, higher: bool) -> Metric {
    e(name, unit, higher, 0.0, Repeat::Free)
}

/// Whether two runs of the same code agree on `metric`.
pub fn agree(metric: &Metric, x: f64, y: f64) -> Result<(), String> {
    match metric.repeat {
        Repeat::Free => Ok(()),
        Repeat::Exact if x == y => Ok(()),
        Repeat::Exact => Err("must repeat exactly".into()),
        Repeat::Timing => {
            let worse = (x - y).abs() / x.abs().min(y.abs()).max(f64::MIN_POSITIVE);
            if worse <= metric.bound {
                Ok(())
            } else {
                Err(format!(
                    "{:.1} % apart, bound {:.0} %",
                    worse * 100.0,
                    metric.bound * 100.0
                ))
            }
        }
    }
}

/// What a user of the compiler sees. Measured by untraced passes (the
/// timings) and the verify child (the design-quality means).
pub const END_TO_END: [Metric; 7] = [
    e("pass_wall_s", "s", false, 0.15, Repeat::Timing),
    e("pass_cpu_s", "s", false, 0.15, Repeat::Timing),
    e("sim_cycles_geomean", "cycles", false, 0.01, Repeat::Exact),
    e(
        "dataflow_cycles_geomean",
        "cycles",
        false,
        0.01,
        Repeat::Exact,
    ),
    e("est_speedup_geomean", "ratio", true, 0.01, Repeat::Exact),
    e("peak_rss_mb", "MB", false, 0.10, Repeat::Timing),
    e("setup_s", "s", false, 0.25, Repeat::Timing),
];

/// One layer each, from the traced child: `_s` metrics are span self
/// times summed over that child, the rest are counts and ratios.
pub const PER_LAYER: [Metric; 94] = [
    f("dsl.build_s", "s", false),
    f("dsl.reference_exec_s", "s", false),
    f("graph.build_s", "s", false),
    m("graph.nodes", "count", false),
    m("graph.edges", "count", false),
    f("poly.apply_schedule_s", "s", false),
    f("poly.dep_summary_s", "s", false),
    f("poly.astbuild_s", "s", false),
    f("poly.fm_eliminations", "count", false),
    f("poly.fm_combinations", "count", false),
    f("poly.memo_hit_ratio", "ratio", true),
    m("poly.peak_constraints", "count", false),
    f("ir.lower_s", "s", false),
    m("ir.text_lines", "count", false),
    f("ir.interp_s", "s", false),
    f("hls.estimate_s", "s", false),
    f("hls.emit_s", "s", false),
    m("hls.c_bytes", "count", false),
    m("hls.est_sim_dev_max", "ratio", false),
    m("hls.dsp_util_max", "ratio", false),
    m("hls.lut_util_max", "ratio", false),
    m("hls.bram18k_total", "count", false),
    f("bank.analyze_s", "s", false),
    m("bank.exact_ratio", "ratio", true),
    m("bank.conflict_free_loops", "count", true),
    f("live.analyze_s", "s", false),
    m("live.contractions", "count", true),
    m("live.exact_ratio", "ratio", true),
    f("sim.simulate_s", "s", false),
    f("sim.cycles_per_host_s", "1/s", true),
    m("sim.stall_dep_cycles", "cycles", false),
    m("sim.stall_port_cycles", "cycles", false),
    m("sim.stall_drain_cycles", "cycles", false),
    f("sim.dataflow_s", "s", false),
    m("sim.channel_stall_pop_cycles", "cycles", false),
    m("sim.channel_stall_push_cycles", "cycles", false),
    f("dataflow.partition_s", "s", false),
    f("dataflow.certify_s", "s", false),
    m("dataflow.stages", "count", true),
    m("dataflow.channels", "count", true),
    m("dataflow.fifo_ratio", "ratio", true),
    m("dataflow.overlap_ratio", "ratio", true),
    f("lint.report_s", "s", false),
    m("lint.errors", "count", false),
    m("lint.warnings", "count", false),
    f("verify.validate_s", "s", false),
    f("verify.bank_report_s", "s", false),
    f("verify.live_report_s", "s", false),
    m("verify.obligations", "count", true),
    m("verify.passed_ratio", "ratio", true),
    f("dse.auto_dse_s", "s", false),
    f("dse.stage1_s", "s", false),
    f("dse.serial_uncached_s", "s", false),
    f("dse.fast_over_serial_min", "ratio", true),
    f("dse.stage2_reported_s", "s", false),
    f("dse.lowering_reported_s", "s", false),
    f("dse.estimation_reported_s", "s", false),
    f("dse.sim_reported_s", "s", false),
    f("dse.dataflow_reported_s", "s", false),
    f("dse.unattributed_share", "ratio", false),
    m("dse.candidates_estimated", "count", false),
    m("dse.lint_pruned", "count", true),
    m("dse.bank_repaired", "count", false),
    f("dse.pipelines_run", "count", false),
    m("dse.parallel_evaluated", "count", true),
    m("dse.certificates_checked", "count", false),
    m("dse.beam_waves", "count", false),
    m("dse.beam_expanded", "count", false),
    m("dse.sim_admitted", "count", false),
    m("dse.sim_pruned", "count", true),
    f("dse.portfolio_time_ratio", "ratio", false),
    m("dse.portfolio_cycle_gain", "ratio", true),
    f("cache.hits", "count", true),
    f("cache.misses", "count", false),
    f("cache.hit_ratio", "ratio", true),
    m("cache.entries", "count", false),
    m("cache.evictions", "count", false),
    f("store.open_s", "s", false),
    f("store.cold_s", "s", false),
    f("store.warm_s", "s", false),
    f("store.writes", "count", false),
    f("store.hits", "count", true),
    f("store.misses", "count", false),
    f("store.bytes_written", "count", false),
    m("store.artifacts", "count", false),
    m("store.load_errors", "count", false),
    m("store.write_errors", "count", false),
    f("store.cold_over_storeless", "ratio", false),
    f("store.warm_over_storeless", "ratio", false),
    f("bench.trace_overhead", "ratio", false),
    f("bench.pass_wall_raw_s", "s", false),
    f("bench.machine_speed", "ratio", true),
    f("bench.passes", "count", true),
    m("bench.requests", "count", true),
];

/// Spans whose metric is their whole duration, not their self time:
/// they wrap the store open and the search they are about.
pub const TOTAL_DURATION_SPANS: [&str; 2] = ["store.cold", "store.warm"];

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is written by hand; every metric in it must be one
    /// the harness prints, with the same unit and direction.
    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let json = include_str!("../../BENCHMARK.json");
        let mut expected = 0;
        for metric in END_TO_END.iter().chain(&PER_LAYER) {
            let better = if metric.higher { "higher" } else { "lower" };
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                metric.name, metric.unit, better
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
            expected += 1;
        }
        assert_eq!(json.matches("\"better\":").count(), expected);
        for w in &crate::workloads::WORKLOADS {
            assert!(json.contains(&format!("{{\"name\": \"{}\", \"why\":", w.name)));
        }
        assert_eq!(
            json.matches("\"why\":").count(),
            crate::workloads::WORKLOADS.len()
        );
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for metric in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(metric.name), "duplicate {}", metric.name);
            assert!(metric.name.len() <= 64 && metric.unit.len() <= 16);
        }
    }
}
