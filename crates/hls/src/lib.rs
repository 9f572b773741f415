//! # pom-hls — HLS backend: code generation and QoR estimation
//!
//! The reproduction's substitute for Xilinx Vitis HLS / Vivado:
//!
//! * [`codegen`] translates an annotated [`pom_ir::AffineFunc`] into
//!   synthesizable HLS C, turning every attribute into its `#pragma HLS`
//!   spelling (pipeline II, unroll factor, array_partition) — the final
//!   step of the paper's flow (Fig. 7, right).
//! * [`mod@estimate`] is the analytical QoR model in the spirit of the
//!   "in-house model from \[35\]\[38\]" (ScaleHLS / COMBA) that the paper's
//!   DSE engine itself uses: initiation interval `II = max(RecMII,
//!   ResMII)`, pipeline-depth-aware loop latency composition, and
//!   DSP/FF/LUT/BRAM accounting with a power proxy, against the
//!   [`DeviceSpec`] of the paper's Xilinx XC7Z020 target.
//!
//! Absolute cycle counts are a model, not silicon; the comparative shape
//! (who wins, achieved II, resource ceilings) is governed by the same
//! recurrence/port/resource arithmetic the vendor tools implement.

pub mod codegen;
pub mod cost;
pub mod device;
pub mod estimate;
pub mod report;
pub mod testbench;

pub use codegen::{emit_hls_c, hls_c_loc};
pub use cost::{CostModel, OpCost};
pub use device::{DeviceSpec, ResourceUsage};
pub use estimate::{
    bank_mux, bram18k_units, estimate, port_demand, CarriedDep, DepSummary, LoopQoR, QoR,
};
pub use report::SynthesisReport;
pub use testbench::emit_testbench;
