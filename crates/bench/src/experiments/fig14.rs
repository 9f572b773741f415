//! Fig. 14 — impact analysis of scheduling primitives: incremental
//! configurations from bare pipelining to the full POM schedule, on the
//! representative benchmarks (EdgeDetect, Seidel, 2MM).
//!
//! Legend (paper): LP = loop pipelining, LU = loop unrolling, LT = loop
//! tiling, AP = array partitioning, LI/LS/LF/LSK = interchange / split /
//! fusion / skewing (the stage-1 dependence-aware transformations).

use crate::experiments::common::{fmt_speedup, paper_options, Table};
use crate::kernels;
use pom::dse::search::bottleneck_optimize;
use pom::dse::search::ladder::{plan_groups, schedule_for};
use pom::{auto_dse, baselines, compile, Function, Primitive};

/// One ablation measurement.
#[derive(Clone, Debug)]
pub struct Point {
    /// Benchmark name.
    pub benchmark: &'static str,
    /// Configuration label.
    pub config: &'static str,
    /// Speedup over the unoptimized baseline.
    pub speedup: f64,
    /// DSP usage.
    pub dsp: u64,
}

/// The configuration ladder.
pub const CONFIGS: [&str; 4] = ["LP", "LP+LT/LU", "LP+LT/LU+AP", "full POM (+LI/LS/LF/LSK)"];

fn strip_partitions(f: &Function) -> Function {
    let mut g = baselines::unoptimized(f);
    for p in f.schedule() {
        if !matches!(p, Primitive::Partition { .. }) {
            g.record(p.clone());
        }
    }
    g
}

/// Evaluates the ladder on one kernel.
pub fn ablate(name: &'static str, f: &Function) -> Vec<Point> {
    let opts = paper_options();
    let base = baselines::baseline_compiled(f, &opts);
    let mut out = Vec::new();
    let mut push = |config, q: &pom::QoR| {
        out.push(Point {
            benchmark: name,
            config,
            speedup: q.speedup_over(&base.qor),
            dsp: q.resources.dsp,
        });
    };

    // LP: pipeline the innermost loops only (tiles = 1 everywhere).
    let groups = plan_groups(f);
    let lp = schedule_for(f, &groups);
    push(
        "LP",
        &compile(&lp, &opts).expect("LP schedule compiles").qor,
    );

    // LP+LT/LU: stage-2 tiling DSE without array partitioning.
    let tiled = bottleneck_optimize(f, &opts).function;
    let no_ap = strip_partitions(&tiled);
    push(
        "LP+LT/LU",
        &compile(&no_ap, &opts)
            .expect("unpartitioned schedule compiles")
            .qor,
    );

    // LP+LT/LU+AP: full stage 2 (no dependence-aware restructuring).
    push(
        "LP+LT/LU+AP",
        &compile(&tiled, &opts).expect("tiled schedule compiles").qor,
    );

    // Full POM: stage 1 + stage 2.
    let full = auto_dse(f, &opts).expect("DSE compiles");
    push("full POM (+LI/LS/LF/LSK)", &full.compiled.qor);
    out
}

/// Runs the ablation on the representative benchmarks.
pub fn results(size: usize) -> Vec<Point> {
    let mut out = Vec::new();
    out.extend(ablate("EdgeDetect", &kernels::edge_detect(size)));
    out.extend(ablate("Seidel", &kernels::seidel(size)));
    out.extend(ablate("2MM", &kernels::mm2(size)));
    out
}

/// Renders the Fig. 14 reproduction.
pub fn run() -> String {
    let mut t = Table::new(
        "Fig. 14 — Impact analysis of scheduling primitives",
        &["Benchmark", "Configuration", "Speedup", "DSP"],
    );
    for p in results(1024) {
        t.row(&[
            p.benchmark.to_string(),
            p.config.to_string(),
            fmt_speedup(p.speedup),
            p.dsp.to_string(),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn speedup(pts: &[Point], b: &str, c: &str) -> f64 {
        pts.iter()
            .find(|p| p.benchmark == b && p.config == c)
            .unwrap_or_else(|| panic!("missing {b}/{c}"))
            .speedup
    }

    #[test]
    fn ladder_is_monotone_enough() {
        let pts = results(128);
        for b in ["EdgeDetect", "Seidel", "2MM"] {
            let lp = speedup(&pts, b, "LP");
            let full = speedup(&pts, b, "full POM (+LI/LS/LF/LSK)");
            assert!(full >= lp, "{b}: full {full} >= LP {lp}");
        }
    }

    #[test]
    fn seidel_needs_skewing() {
        // Paper: Seidel's improvement from pipelining alone is limited —
        // the overall performance jumps only once skewing is applied.
        let pts = results(128);
        let without = speedup(&pts, "Seidel", "LP+LT/LU+AP");
        let with = speedup(&pts, "Seidel", "full POM (+LI/LS/LF/LSK)");
        assert!(
            with > 1.5 * without,
            "skewing must unlock Seidel: {with} vs {without}"
        );
    }

    #[test]
    fn partitioning_matters_for_2mm() {
        let pts = results(128);
        let without = speedup(&pts, "2MM", "LP+LT/LU");
        let with = speedup(&pts, "2MM", "LP+LT/LU+AP");
        assert!(
            with > without,
            "array partitioning must help 2MM: {with} vs {without}"
        );
    }
}
