//! Vitis-style synthesis report generation.
//!
//! The paper collects "performance and resource statistics … from HLS
//! synthesis reports" — this module renders our QoR estimate in the same
//! shape: a performance summary, a loop-hierarchy table with trip counts,
//! initiation intervals and latencies, and a resource-utilization table
//! against the target device.

use crate::device::DeviceSpec;
use crate::estimate::{loop_trip, LoopQoR};
use crate::QoR;
use pom_ir::{AffineFunc, AffineOp};
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
    /// The report of `func` against `device`, from `qor`, the
    /// estimate of `func` its compilation made: nothing is estimated
    /// again. Trips are the estimator's ([`loop_trip`], enclosing loops
    /// at their midpoints); a pipelined row's II is the one of the next
    /// unmatched `QoR::loops` entry, which the estimator records in this
    /// walk's order.
    pub fn generate(func: &AffineFunc, qor: QoR, device: &DeviceSpec) -> SynthesisReport {
        let mut rows = Rows {
            pipelines: &qor.loops,
            next: 0,
            env: HashMap::new(),
            out: Vec::new(),
        };
        rows.collect(&func.body, 0, false);
        let loops = rows.out;
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

/// The loop-table walk, in program order.
struct Rows<'q> {
    /// The estimate's pipelines; `next` is the first unmatched one.
    pipelines: &'q [LoopQoR],
    next: usize,
    /// The enclosing loops' ivs at their midpoints, as the estimator
    /// binds them.
    env: HashMap<String, i64>,
    out: Vec<LoopRow>,
}

impl Rows<'_> {
    /// Rows for `ops` at nesting `depth`; inside a pipeline
    /// (`in_pipeline`) loops are unrolled into its body and have no
    /// entry of their own.
    fn collect(&mut self, ops: &[AffineOp], depth: usize, in_pipeline: bool) {
        for op in ops {
            match op {
                AffineOp::For(l) => {
                    let (lb, ub, trip) = loop_trip(l, &self.env);
                    let pipelined = l.attrs.pipeline_ii.is_some();
                    let ii = if pipelined && !in_pipeline {
                        self.pipelines[self.next..]
                            .iter()
                            .position(|q| q.iv == l.iv)
                            .map(|i| {
                                self.next += i + 1;
                                self.pipelines[self.next - 1].achieved_ii
                            })
                    } else {
                        None
                    };
                    self.out.push(LoopRow {
                        label: format!("{}- loop_{}", "  ".repeat(depth), l.iv),
                        trip,
                        pipelined,
                        ii,
                        unroll: l.attrs.unroll_factor,
                    });
                    self.env.insert(l.iv.clone(), pom_poly::midpoint(lb, ub));
                    self.collect(&l.body, depth + 1, in_pipeline || pipelined);
                    self.env.remove(&l.iv);
                }
                AffineOp::If(i) => self.collect(&i.body, depth, in_pipeline),
                AffineOp::Store(_) => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::{estimate, DepSummary, Sharing};
    use crate::CostModel;
    use pom_dsl::DataType;
    use pom_ir::{ForOp, HlsAttrs, MemRefDecl, StoreOp};
    use pom_poly::{AccessFn, Bound, LinearExpr};

    fn cb(v: i64) -> Bound {
        Bound::new(LinearExpr::constant_expr(v), 1)
    }

    /// `for iv in lb..=ub` (pipelined at II 1 when asked) around `body`.
    fn for_op(iv: &str, lb: i64, ub: i64, pipeline: bool, body: Vec<AffineOp>) -> AffineOp {
        AffineOp::For(ForOp {
            extra: Vec::new(),
            iv: iv.into(),
            lbs: vec![cb(lb)],
            ubs: vec![cb(ub)],
            attrs: HlsAttrs {
                pipeline_ii: pipeline.then_some(1),
                ..Default::default()
            },
            body,
        })
    }

    /// `stmt: dst[iv] = src[iv] * 2`.
    fn scale(stmt: &str, dst: &str, src: &str, iv: &str) -> AffineOp {
        AffineOp::Store(StoreOp {
            stmt: stmt.into(),
            dest: AccessFn::new(dst, vec![LinearExpr::var(iv)]),
            value: pom_dsl::Expr::Load(AccessFn::new(src, vec![LinearExpr::var(iv)])) * 2.0,
        })
    }

    fn sample_func() -> AffineFunc {
        let mut f = AffineFunc::new("kernel");
        f.memrefs.push(MemRefDecl::new("A", &[64], DataType::F32));
        let inner = for_op("j", 0, 63, true, vec![scale("S", "A", "A", "j")]);
        f.body.push(for_op("i", 0, 9, false, vec![inner]));
        f
    }

    /// The report of `f` from its estimate.
    fn report(f: &AffineFunc, device: &DeviceSpec) -> SynthesisReport {
        let qor = estimate(
            f,
            &DepSummary::new(),
            &CostModel::vitis_f32(),
            Sharing::Reuse,
        );
        SynthesisReport::generate(f, qor, device)
    }

    #[test]
    fn report_contains_hierarchy_and_utilization() {
        let f = sample_func();
        let report = report(&f, &DeviceSpec::xc7z020());
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
        let d100 = DeviceSpec::xc7z020();
        let mut d200 = DeviceSpec::xc7z020();
        d200.clock_ns = 5.0;
        let (r100, r200) = (report(&f, &d100), report(&f, &d200));
        assert!((r100.time_us() - 2.0 * r200.time_us()).abs() < 1e-9);
    }

    #[test]
    fn sibling_pipelines_sharing_an_iv_show_their_own_ii() {
        // Both nests pipeline an `i`. The first feeds 32 unrolled reads
        // of the unpartitioned `x` through 2 ports (II 16), the second
        // one read per iteration (II 1).
        let mut f = AffineFunc::new("siblings");
        for (name, shape) in [("x", 1024), ("y", 1024), ("z", 64)] {
            f.memrefs
                .push(MemRefDecl::new(name, &[shape], DataType::F32));
        }
        let unrolled = for_op("j", 0, 31, false, vec![scale("S1", "y", "x", "j")]);
        f.body.push(for_op("i", 0, 31, true, vec![unrolled]));
        f.body
            .push(for_op("i", 0, 63, true, vec![scale("S2", "z", "z", "i")]));
        let report = report(&f, &DeviceSpec::xc7z020());
        let iis: Vec<_> = report.qor.loops.iter().map(|l| l.achieved_ii).collect();
        assert_eq!(iis, [16, 1]);
        let rows: Vec<_> = report
            .loops
            .iter()
            .map(|r| (r.label.trim(), r.ii))
            .collect();
        assert_eq!(
            rows,
            [
                ("- loop_i", Some(16)),
                ("- loop_j", None),
                ("- loop_i", Some(1))
            ]
        );
    }

    #[test]
    fn a_constant_empty_loop_reads_the_trip_the_estimate_costs() {
        let mut f = AffineFunc::new("empty");
        f.memrefs.push(MemRefDecl::new("A", &[8], DataType::F32));
        f.body
            .push(for_op("i", 0, -1, false, vec![scale("S", "A", "A", "i")]));
        let report = report(&f, &DeviceSpec::xc7z020());
        assert_eq!(report.qor.latency, 0);
        assert_eq!(report.loops[0].trip, 0);
    }
}
