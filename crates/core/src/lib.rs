//! # POM — an optimizing framework for FPGA-based accelerator generation
//!
//! A from-scratch Rust reproduction of **"An Optimizing Framework on MLIR
//! for Efficient FPGA-based Accelerator Generation"** (HPCA 2024). POM
//! compiles a decoupled DSL (algorithm + schedule) through three explicit
//! IR layers — *dependence graph IR*, *polyhedral IR*, and an *annotated
//! affine dialect* — into synthesizable HLS C, with an automatic
//! two-stage design-space-exploration engine.
//!
//! The crate re-exports the whole workspace and offers [`Pom`], the
//! end-to-end driver:
//!
//! ```
//! use pom::{DataType, Function, Pom};
//!
//! // Fig. 4: matrix multiplication in the POM DSL.
//! let mut f = Function::new("gemm");
//! let (k, i, j) = (f.var("k", 0, 32), f.var("i", 0, 32), f.var("j", 0, 32));
//! let a = f.placeholder("A", &[32, 32], DataType::F32);
//! let b = f.placeholder("B", &[32, 32], DataType::F32);
//! let c = f.placeholder("C", &[32, 32], DataType::F32);
//! f.compute(
//!     "s",
//!     &[k.clone(), i.clone(), j.clone()],
//!     a.at(&[&i, &j]) + b.at(&[&i, &k]) * c.at(&[&k, &j]),
//!     a.access(&[&i, &j]),
//! );
//! f.auto_dse();
//!
//! let pom = Pom::new();
//! let result = pom.codegen(&f)?;
//! assert!(result.hls_c.contains("#pragma HLS pipeline"));
//! assert!(result.speedup_over_baseline > 10.0);
//! # Ok::<(), pom::CompileError>(())
//! ```
//!
//! ## Layer map (paper Fig. 3/7)
//!
//! | Layer | Crate | Purpose |
//! |---|---|---|
//! | POM DSL | [`pom_dsl`] | vars, placeholders, computes, Table II primitives |
//! | Dependence graph IR | [`pom_graph`] | coarse/fine-grained dependence analysis |
//! | Polyhedral IR | [`pom_poly`] | integer sets/maps, transformations, AST build |
//! | Affine dialect + HLS attrs | [`pom_ir`] | loops/ops with pragma attributes |
//! | HLS backend | [`pom_hls`] | HLS C emission + QoR estimation |
//! | Simulator | [`pom_sim`] | cycle-approximate schedule simulation |
//! | DSE engine | [`pom_dse`] | two-stage automatic scheduling + baselines |
//! | Validation | [`pom_verify`] | translation validation + dataflow analyses |
//! | Bank analysis | [`pom_bank`] | polyhedral bank-conflict analysis |
//! | Liveness analysis | [`pom_live`] | buffer liveness, contraction, flow depths |
//! | Dataflow pipelining | [`pom_dataflow`] | stage partitioning, channel sizing |

pub use pom_bank as bank;
pub use pom_dataflow as dataflow;
pub use pom_dse as dse;
pub use pom_dsl as dsl;
pub use pom_graph as graph;
pub use pom_hls as hls;
pub use pom_ir as ir;
pub use pom_lint as lint;
pub use pom_live as live;
pub use pom_poly as poly;
pub use pom_sim as sim;
pub use pom_verify as verify;

pub use pom_dataflow::{channel_certificates, partition as partition_dataflow, DataflowPlan};
pub use pom_dse::{
    auto_dse, auto_dse_with, auto_dse_with_cache, baselines, compile, fingerprint, lint_report,
    AnytimePoint, ArtifactStore, CompileError, CompileOptions, Compiled, DseCache, DseConfig,
    DseResult, DseStats, GroupConfig, SearchMode, Signoff,
};
pub use pom_dsl::{
    reference_execute, ArrayData, Compute, DataType, Expr, Function, MemoryState, PartitionStyle,
    Placeholder, Primitive, Var,
};
pub use pom_graph::DepGraph;
pub use pom_hls::{
    emit_hls_c, emit_testbench, CostModel, DeviceSpec, QoR, ResourceUsage, SynthesisReport,
};
pub use pom_ir::{execute_func, AffineFunc, PassManager};
pub use pom_lint::{Diagnostic, LintCode, LintReport, Linter, Severity};
pub use pom_live::{
    analyze_func as analyze_liveness, replay_contraction, seeded_memory, ArrayLiveness, LiveReport,
};
pub use pom_sim::{
    simulate, simulate_dataflow, ArrayOccupancy, DataflowReport, LoopSim, SimReport,
};
pub use pom_verify::{analyze_ranges, bank_report, live_report, validate, ValidationReport};

/// The end-to-end POM driver: analysis, scheduling (user-specified or
/// automatic), lowering, and HLS C generation.
#[derive(Clone, Debug, Default)]
pub struct Pom {
    /// Compilation options: cost model, sharing policy, target device.
    pub options: CompileOptions,
}

/// The artefacts of a full `codegen()` run.
#[derive(Clone, Debug)]
pub struct CodegenResult {
    /// The scheduled function (with DSE-chosen primitives when auto).
    pub function: Function,
    /// The compiled design: affine IR, QoR, dependence summary.
    pub compiled: Compiled,
    /// The synthesizable HLS C.
    pub hls_c: String,
    /// Speedup over the unoptimized baseline (cycle ratio).
    pub speedup_over_baseline: f64,
    /// DSE wall-clock time (zero for user-specified schedules).
    pub dse_time: std::time::Duration,
}

impl Pom {
    /// A driver with default options (XC7Z020, 32-bit float cost model,
    /// resource reuse).
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds the dependence graph IR of a function (layer 1).
    pub fn analyze(&self, f: &Function) -> DepGraph {
        DepGraph::build(f)
    }

    /// Compiles a function with its *recorded* schedule (no DSE).
    ///
    /// # Errors
    ///
    /// Returns a [`CompileError`] when the schedule does not replay
    /// (e.g. it splits an already-split loop) or does not lower to valid
    /// affine IR.
    pub fn compile(&self, f: &Function) -> Result<Compiled, CompileError> {
        pom_dse::compile(f, &self.options)
    }

    /// Generates a Vitis-style synthesis report for the compiled design.
    ///
    /// # Errors
    ///
    /// Same as [`Pom::compile`].
    pub fn report(&self, f: &Function) -> Result<SynthesisReport, CompileError> {
        let compiled = self.compile(f)?;
        Ok(SynthesisReport::generate(
            &compiled.affine,
            &compiled.deps,
            &self.options.model,
            &self.options.device,
            self.options.sharing,
        ))
    }

    /// Emits a self-checking C simulation testbench for the compiled
    /// kernel (companion to [`CodegenResult::hls_c`]).
    ///
    /// # Errors
    ///
    /// Same as [`Pom::compile`].
    pub fn testbench(&self, f: &Function, seed: u64) -> Result<String, CompileError> {
        Ok(emit_testbench(&self.compile(f)?.affine, seed))
    }

    /// The paper's `codegen()`: runs auto-DSE when the schedule asks for
    /// it (`f.auto_DSE()`), otherwise replays the user schedule; emits
    /// HLS C and reports the speedup over the unoptimized baseline.
    ///
    /// # Errors
    ///
    /// Returns a [`CompileError`] when the recorded schedule does not
    /// compile, or the search's winner fails validation.
    pub fn codegen(&self, f: &Function) -> Result<CodegenResult, CompileError> {
        let (function, compiled, dse_time) = if f.wants_auto_dse() {
            let r = pom_dse::auto_dse(f, &self.options)?;
            (r.function, r.compiled, r.dse_time)
        } else {
            (f.clone(), self.compile(f)?, Default::default())
        };
        let baseline = pom_dse::baselines::baseline_compiled(f, &self.options);
        let hls_c = compiled.hls_c();
        let speedup = compiled.qor.speedup_over(&baseline.qor);
        Ok(CodegenResult {
            function,
            compiled,
            hls_c,
            speedup_over_baseline: speedup,
            dse_time,
        })
    }
}
