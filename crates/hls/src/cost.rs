//! Per-operation cost tables for the QoR model.
//!
//! Values approximate Vitis HLS characterization of 32-bit floating-point
//! operators on 7-series fabric at a 10 ns clock; the DSE only needs their
//! *relative* magnitudes to reproduce the paper's comparisons.

use crate::device::ResourceUsage;
use pom_dsl::expr::OpCounts;

/// Latency and resource cost of one hardware operator instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpCost {
    /// Latency in cycles.
    pub latency: u64,
    /// Resources of one instance.
    pub resources: ResourceUsage,
}

impl OpCost {
    /// Creates a cost entry.
    pub const fn new(latency: u64, dsp: u64, ff: u64, lut: u64) -> Self {
        OpCost {
            latency,
            resources: ResourceUsage {
                dsp,
                ff,
                lut,
                bram18k: 0,
            },
        }
    }
}

/// The operator cost model.
#[derive(Clone, Debug, PartialEq)]
pub struct CostModel {
    /// Floating add/sub.
    pub fadd: OpCost,
    /// Floating multiply.
    pub fmul: OpCost,
    /// Floating divide.
    pub fdiv: OpCost,
    /// Floating compare (max/min).
    pub fcmp: OpCost,
    /// BRAM read latency (cycles).
    pub load_latency: u64,
    /// BRAM write latency (cycles).
    pub store_latency: u64,
    /// Read/write ports per BRAM bank (true dual-port).
    pub ports_per_bank: u64,
    /// Loop control overhead in cycles per non-pipelined iteration.
    pub loop_overhead: u64,
    /// Control FF/LUT per loop in the design.
    pub loop_control: ResourceUsage,
    /// Power proxy coefficients: `base + c_dsp*DSP + c_ff*FF + c_lut*LUT`.
    pub power_base: f64,
    /// Watts per DSP.
    pub power_per_dsp: f64,
    /// Watts per FF.
    pub power_per_ff: f64,
    /// Watts per LUT.
    pub power_per_lut: f64,
}

impl CostModel {
    /// Vitis-flavoured defaults for 32-bit float at 100 MHz.
    pub fn vitis_f32() -> Self {
        CostModel {
            fadd: OpCost::new(4, 2, 205, 390),
            fmul: OpCost::new(3, 3, 143, 321),
            fdiv: OpCost::new(14, 0, 761, 994),
            fcmp: OpCost::new(1, 0, 66, 239),
            load_latency: 2,
            store_latency: 1,
            ports_per_bank: 2,
            loop_overhead: 2,
            loop_control: ResourceUsage {
                dsp: 0,
                ff: 64,
                lut: 96,
                bram18k: 0,
            },
            power_base: 0.04,
            power_per_dsp: 1.5e-3,
            power_per_ff: 2.0e-6,
            power_per_lut: 4.0e-6,
        }
    }

    /// Critical-path latency of a statement body given its operator
    /// counts are chained as `depth` levels plus one load and one store.
    /// (A coarse chain model: the expression-tree depth times the mean
    /// operator latency; exact chaining is computed in `estimate` from the
    /// expression itself.)
    pub fn op_latency(&self, op: pom_dsl::BinOp) -> u64 {
        match op {
            pom_dsl::BinOp::Add | pom_dsl::BinOp::Sub => self.fadd.latency,
            pom_dsl::BinOp::Mul => self.fmul.latency,
            pom_dsl::BinOp::Div => self.fdiv.latency,
            pom_dsl::BinOp::Max | pom_dsl::BinOp::Min => self.fcmp.latency,
        }
    }

    /// Resources of the operator instances for one copy of a statement
    /// body with the given operator counts.
    pub fn body_resources(&self, c: &OpCounts) -> ResourceUsage {
        let mut r = ResourceUsage::zero();
        for _ in 0..c.add + c.sub {
            r = r.plus(&self.fadd.resources);
        }
        for _ in 0..c.mul {
            r = r.plus(&self.fmul.resources);
        }
        for _ in 0..c.div {
            r = r.plus(&self.fdiv.resources);
        }
        for _ in 0..c.cmp {
            r = r.plus(&self.fcmp.resources);
        }
        r
    }

    /// The power proxy.
    pub fn power(&self, r: &ResourceUsage) -> f64 {
        self.power_base
            + self.power_per_dsp * r.dsp as f64
            + self.power_per_ff * r.ff as f64
            + self.power_per_lut * r.lut as f64
    }
}

impl CostModel {
    /// A cost model for a given element type — the backbone of the DSL's
    /// data-type customization (Table I): integers are cheap single-cycle
    /// adders and DSP multipliers; doubles roughly double every float
    /// cost.
    pub fn for_dtype(dtype: pom_dsl::DataType) -> Self {
        use pom_dsl::DataType as D;
        let mut m = Self::vitis_f32();
        match dtype {
            D::F32 => {}
            D::F64 => {
                m.fadd = OpCost::new(7, 3, 445, 790);
                m.fmul = OpCost::new(6, 11, 299, 654);
                m.fdiv = OpCost::new(30, 0, 1710, 3291);
                m.fcmp = OpCost::new(2, 0, 107, 301);
            }
            D::I32 | D::U32 => {
                m.fadd = OpCost::new(1, 0, 32, 39);
                m.fmul = OpCost::new(3, 3, 90, 20);
                m.fdiv = OpCost::new(18, 0, 450, 520);
                m.fcmp = OpCost::new(1, 0, 0, 39);
            }
            D::I16 | D::U16 => {
                m.fadd = OpCost::new(1, 0, 16, 20);
                m.fmul = OpCost::new(1, 1, 40, 10);
                m.fdiv = OpCost::new(10, 0, 230, 270);
                m.fcmp = OpCost::new(1, 0, 0, 20);
            }
            D::I8 | D::U8 => {
                m.fadd = OpCost::new(1, 0, 8, 11);
                m.fmul = OpCost::new(1, 0, 24, 40);
                m.fdiv = OpCost::new(6, 0, 120, 140);
                m.fcmp = OpCost::new(1, 0, 0, 11);
            }
            D::I64 | D::U64 => {
                m.fadd = OpCost::new(1, 0, 64, 78);
                m.fmul = OpCost::new(5, 10, 190, 60);
                m.fdiv = OpCost::new(36, 0, 900, 1040);
                m.fcmp = OpCost::new(1, 0, 0, 78);
            }
        }
        m
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::vitis_f32()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_vitis_f32() {
        let m = CostModel::default();
        assert_eq!(m.fadd.latency, 4);
        assert_eq!(m.fmul.resources.dsp, 3);
        assert_eq!(m.ports_per_bank, 2);
    }

    #[test]
    fn body_resources_accumulate() {
        let m = CostModel::vitis_f32();
        let c = OpCounts {
            add: 1,
            mul: 1,
            ..Default::default()
        };
        let r = m.body_resources(&c);
        assert_eq!(r.dsp, 2 + 3);
        assert_eq!(r.ff, 205 + 143);
    }

    #[test]
    fn power_scales_with_resources() {
        let m = CostModel::vitis_f32();
        let small = m.power(&ResourceUsage::zero());
        let big = m.power(&ResourceUsage {
            dsp: 166,
            ff: 23_067,
            lut: 30_966,
            bram18k: 0,
        });
        assert!(small < 0.1);
        // POM GEMM in Table III reports 0.459 W.
        assert!((big - 0.459).abs() < 0.1, "power proxy {big}");
    }

    #[test]
    fn op_latencies() {
        let m = CostModel::vitis_f32();
        assert_eq!(m.op_latency(pom_dsl::BinOp::Add), 4);
        assert_eq!(m.op_latency(pom_dsl::BinOp::Div), 14);
        assert_eq!(m.op_latency(pom_dsl::BinOp::Max), 1);
    }

    #[test]
    fn dtype_cost_ordering() {
        use pom_dsl::{BinOp, DataType};
        let i8_ = CostModel::for_dtype(DataType::I8);
        let i16 = CostModel::for_dtype(DataType::I16);
        let f32 = CostModel::for_dtype(DataType::F32);
        let f64 = CostModel::for_dtype(DataType::F64);
        // Narrow integers are cheapest, doubles the most expensive.
        assert!(i8_.op_latency(BinOp::Add) <= i16.op_latency(BinOp::Add));
        assert!(i16.op_latency(BinOp::Add) < f32.op_latency(BinOp::Add));
        assert!(f32.op_latency(BinOp::Add) < f64.op_latency(BinOp::Add));
        assert!(i16.fmul.resources.dsp < f64.fmul.resources.dsp);
        assert_eq!(
            CostModel::for_dtype(DataType::F32).fadd,
            CostModel::vitis_f32().fadd
        );
    }
}
