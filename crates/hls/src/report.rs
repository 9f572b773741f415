//! Vitis-style synthesis report generation.
//!
//! The paper collects "performance and resource statistics … from HLS
//! synthesis reports" — this module renders our QoR estimate in the same
//! shape: a performance summary, a loop-hierarchy table with trip counts,
//! initiation intervals and latencies, and a resource-utilization table
//! against the target device.

use crate::cost::CostModel;
use crate::device::DeviceSpec;
use crate::estimate::{estimate, DepSummary, Sharing};
use crate::QoR;
use pom_ir::{AffineFunc, AffineOp, ForOp};
use std::collections::HashMap;
use std::fmt::Write as _;

/// One row of the loop-hierarchy table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LoopRow {
    /// Indented loop label, e.g. `"- loop_i"` / `"  - loop_j"`.
    pub label: String,
    /// Trip count (midpoint estimate for non-rectangular loops).
    pub trip: u64,
    /// Pipelined?
    pub pipelined: bool,
    /// Achieved II (pipelined loops only).
    pub ii: Option<u64>,
    /// Unroll factor, when requested.
    pub unroll: Option<i64>,
}

/// A complete synthesis report.
#[derive(Clone, Debug)]
pub struct SynthesisReport {
    /// Function name.
    pub function: String,
    /// Target device.
    pub device: DeviceSpec,
    /// The QoR estimate backing the report.
    pub qor: QoR,
    /// Loop hierarchy rows.
    pub loops: Vec<LoopRow>,
}

impl SynthesisReport {
    /// Builds a report by estimating `func` against `device`.
    pub fn generate(
        func: &AffineFunc,
        deps: &DepSummary,
        model: &CostModel,
        device: &DeviceSpec,
        sharing: Sharing,
    ) -> SynthesisReport {
        let qor = estimate(func, deps, model, sharing);
        let ii_by_iv: HashMap<&str, u64> = qor
            .loops
            .iter()
            .map(|l| (l.iv.as_str(), l.achieved_ii))
            .collect();
        let mut loops = Vec::new();
        let mut env = HashMap::new();
        collect_rows(&func.body, 0, &ii_by_iv, &mut env, &mut loops);
        SynthesisReport {
            function: func.name.clone(),
            device: device.clone(),
            qor,
            loops,
        }
    }

    /// Estimated kernel time in microseconds at the device's clock.
    pub fn time_us(&self) -> f64 {
        self.qor.latency as f64 * self.device.clock_ns / 1000.0
    }

    /// Renders the textual report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== Synthesis report: {} ==", self.function);
        let _ = writeln!(out, "Target device : {}", self.device);
        let _ = writeln!(out);
        let _ = writeln!(out, "-- Performance estimate --");
        let _ = writeln!(out, "Latency (cycles) : {}", self.qor.latency);
        let _ = writeln!(out, "Latency (time)   : {:.3} us", self.time_us());
        let _ = writeln!(out, "Power (proxy)    : {:.3} W", self.qor.power);
        let _ = writeln!(out);
        let _ = writeln!(out, "-- Loop hierarchy --");
        let _ = writeln!(
            out,
            "{:<28} {:>10} {:>10} {:>8} {:>8}",
            "Loop", "Trip", "Pipelined", "II", "Unroll"
        );
        for l in &self.loops {
            let _ = writeln!(
                out,
                "{:<28} {:>10} {:>10} {:>8} {:>8}",
                l.label,
                l.trip,
                if l.pipelined { "yes" } else { "no" },
                l.ii.map(|x| x.to_string()).unwrap_or_else(|| "-".into()),
                l.unroll
                    .map(|x| x.to_string())
                    .unwrap_or_else(|| "-".into()),
            );
        }
        let _ = writeln!(out);
        let _ = writeln!(out, "-- Utilization estimate --");
        let r = &self.qor.resources;
        let (dsp, ff, lut, bram) = r.utilization(&self.device);
        let _ = writeln!(
            out,
            "{:<10} {:>10} {:>12} {:>8}",
            "Resource", "Used", "Available", "Util%"
        );
        let _ = writeln!(
            out,
            "{:<10} {:>10} {:>12} {:>7.0}%",
            "DSP48", r.dsp, self.device.dsp, dsp
        );
        let _ = writeln!(
            out,
            "{:<10} {:>10} {:>12} {:>7.0}%",
            "FF", r.ff, self.device.ff, ff
        );
        let _ = writeln!(
            out,
            "{:<10} {:>10} {:>12} {:>7.0}%",
            "LUT", r.lut, self.device.lut, lut
        );
        let _ = writeln!(
            out,
            "{:<10} {:>10} {:>12} {:>7.0}%",
            "BRAM18K", r.bram18k, self.device.bram18k, bram
        );
        out
    }
}

fn collect_rows(
    ops: &[AffineOp],
    depth: usize,
    ii_by_iv: &HashMap<&str, u64>,
    env: &mut HashMap<String, i64>,
    out: &mut Vec<LoopRow>,
) {
    for op in ops {
        match op {
            AffineOp::For(l) => {
                let trip = loop_trip(l, env);
                out.push(LoopRow {
                    label: format!("{}- loop_{}", "  ".repeat(depth), l.iv),
                    trip,
                    pipelined: l.attrs.pipeline_ii.is_some(),
                    ii: ii_by_iv.get(l.iv.as_str()).copied(),
                    unroll: l.attrs.unroll_factor,
                });
                let (lb, ub) = bounds(l, env);
                env.insert(l.iv.clone(), pom_poly::midpoint(lb, ub));
                collect_rows(&l.body, depth + 1, ii_by_iv, env, out);
                env.remove(&l.iv);
            }
            AffineOp::If(i) => collect_rows(&i.body, depth, ii_by_iv, env, out),
            AffineOp::Store(_) => {}
        }
    }
}

fn bounds(l: &ForOp, env: &HashMap<String, i64>) -> (i64, i64) {
    let lb = l.lbs.iter().map(|b| b.eval_lower(env)).max().unwrap_or(0);
    let ub = l.ubs.iter().map(|b| b.eval_upper(env)).min().unwrap_or(lb);
    (lb, ub.max(lb))
}

fn loop_trip(l: &ForOp, env: &HashMap<String, i64>) -> u64 {
    let (lb, ub) = bounds(l, env);
    (ub - lb + 1).max(1) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use pom_dsl::DataType;
    use pom_ir::{HlsAttrs, MemRefDecl, StoreOp};
    use pom_poly::{AccessFn, Bound, LinearExpr};

    fn sample_func() -> AffineFunc {
        let cb = |v: i64| Bound::new(LinearExpr::constant_expr(v), 1);
        let mut f = AffineFunc::new("kernel");
        f.memrefs.push(MemRefDecl::new("A", &[64], DataType::F32));
        let store = StoreOp {
            stmt: "S".into(),
            dest: AccessFn::new("A", vec![LinearExpr::var("j")]),
            value: pom_dsl::Expr::Load(AccessFn::new("A", vec![LinearExpr::var("j")])) * 2.0,
        };
        let inner = ForOp {
            extra: Vec::new(),
            iv: "j".into(),
            lbs: vec![cb(0)],
            ubs: vec![cb(63)],
            attrs: HlsAttrs {
                pipeline_ii: Some(1),
                ..Default::default()
            },
            body: vec![AffineOp::Store(store)],
        };
        let outer = ForOp {
            extra: Vec::new(),
            iv: "i".into(),
            lbs: vec![cb(0)],
            ubs: vec![cb(9)],
            attrs: HlsAttrs::none(),
            body: vec![AffineOp::For(inner)],
        };
        f.body.push(AffineOp::For(outer));
        f
    }

    #[test]
    fn report_contains_hierarchy_and_utilization() {
        let f = sample_func();
        let report = SynthesisReport::generate(
            &f,
            &DepSummary::new(),
            &CostModel::vitis_f32(),
            &DeviceSpec::xc7z020(),
            Sharing::Reuse,
        );
        assert_eq!(report.loops.len(), 2);
        assert_eq!(report.loops[0].trip, 10);
        assert_eq!(report.loops[1].trip, 64);
        assert!(report.loops[1].pipelined);
        assert_eq!(report.loops[1].ii, Some(1));
        let text = report.render();
        assert!(text.contains("loop_i"), "{text}");
        assert!(text.contains("  - loop_j"), "{text}");
        assert!(text.contains("DSP48"), "{text}");
        assert!(text.contains("Latency (cycles)"), "{text}");
    }

    #[test]
    fn time_scales_with_clock() {
        let f = sample_func();
        let model = CostModel::vitis_f32();
        let deps = DepSummary::new();
        let d100 = DeviceSpec::xc7z020();
        let mut d200 = DeviceSpec::xc7z020();
        d200.clock_ns = 5.0;
        let r100 = SynthesisReport::generate(&f, &deps, &model, &d100, Sharing::Reuse);
        let r200 = SynthesisReport::generate(&f, &deps, &model, &d200, Sharing::Reuse);
        assert!((r100.time_us() - 2.0 * r200.time_us()).abs() < 1e-9);
    }
}
