//! The end-to-end lowering pipeline: DSL function + recorded schedule →
//! polyhedral statements → polyhedral AST → annotated affine dialect →
//! QoR estimate (Fig. 7 of the paper).

use pom_dsl::{Compute, Function, Primitive, ReplayError};
use pom_hls::estimate::{dep_chain_latency, Sharing};
use pom_hls::{estimate_ops, CarriedDep, CostModel, DepSummary, DeviceSpec, QoR};
use pom_ir::{
    lower_to_affine, AffineFunc, MemRefDecl, PartitionInfo, PassIssue, StmtBody, VerifyError,
};
use pom_lint::LintReport;
use pom_poly::{build_ast, DepKind, Dependence, PolyError, StmtPoly};
use std::collections::HashMap;
use std::fmt;

/// Why compilation failed.
#[derive(Debug)]
pub enum CompileError {
    /// Lowering produced structurally invalid IR.
    InvalidIr(VerifyError),
    /// An IR pass broke an invariant.
    PassFailed {
        /// The offending pass.
        pass: String,
        /// What went wrong.
        issue: PassIssue,
    },
    /// Translation validation rejected the schedule: a rewrite failed a
    /// certificate obligation (rendered [`pom_verify::ValidationReport`]).
    Rejected(String),
    /// A rewrite, the polyhedral AST or its lowering left `i64`.
    Poly(PolyError),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::InvalidIr(e) => write!(f, "lowering produced invalid IR: {e}"),
            CompileError::PassFailed { pass, issue } => {
                write!(f, "pass {pass} broke the IR: {issue}")
            }
            CompileError::Rejected(report) => {
                write!(f, "translation validation rejected the schedule:\n{report}")
            }
            CompileError::Poly(e) => write!(f, "lowering failed: {e}"),
        }
    }
}

impl std::error::Error for CompileError {}

/// Options for compilation and estimation.
#[derive(Clone, Debug)]
pub struct CompileOptions {
    /// Operator cost model.
    pub model: CostModel,
    /// Resource-composition policy across sequential nests.
    pub sharing: Sharing,
    /// Target device (used by DSE; estimation itself is device-free).
    pub device: DeviceSpec,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            model: CostModel::vitis_f32(),
            sharing: Sharing::Reuse,
            device: DeviceSpec::xc7z020(),
        }
    }
}

impl CompileOptions {
    /// Options whose operator cost model matches the function's dominant
    /// data type — the DSL's data-type customization made effective
    /// (kernels in `i16` synthesize to much cheaper arithmetic than
    /// `f64`).
    pub fn for_function(f: &Function) -> Self {
        let dtype = f
            .placeholders()
            .iter()
            .map(|p| p.dtype())
            .max_by_key(|d| (d.is_float(), d.bits()))
            .unwrap_or_default();
        CompileOptions {
            model: CostModel::for_dtype(dtype),
            ..Default::default()
        }
    }
}

/// The result of compiling a scheduled function.
#[derive(Clone, Debug)]
pub struct Compiled {
    /// The lowered, annotated affine function.
    pub affine: AffineFunc,
    /// The QoR estimate.
    pub qor: QoR,
    /// The latency of each top-level op of `affine`, as the estimate
    /// summed them into `qor.latency` ([`pom_hls::estimate_ops`]).
    pub op_latency: Vec<u64>,
    /// The per-loop dependence summary used for estimation.
    pub deps: DepSummary,
    /// The transformed polyhedral statements, in compute order.
    pub stmts: Vec<StmtPoly>,
}

impl Compiled {
    /// Emits the synthesizable HLS C for the compiled function.
    pub fn hls_c(&self) -> String {
        pom_hls::emit_hls_c(&self.affine)
    }
}

/// Applies the loop-transformation primitives of the recorded schedule,
/// producing one transformed [`StmtPoly`] per compute (program order
/// sequencing by default).
///
/// # Panics
///
/// Panics if a primitive references an unknown compute or iterator — the
/// DSL layer validates compute names, so this indicates a malformed
/// schedule (e.g. splitting an already-split loop by its old name).
/// [`compile`] and `auto_dse` reject such a schedule up front
/// (`CompileError::Rejected`); this entry point serves callers replaying
/// schedules already known to be well formed.
pub fn apply_schedule(f: &Function) -> Vec<StmtPoly> {
    try_apply_schedule(f).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible [`apply_schedule`].
///
/// # Errors
///
/// Returns [`CompileError::Rejected`] carrying the validator's rendered
/// report when a primitive names an iterator its statement does not have,
/// and [`CompileError::Poly`] when a rewrite's arithmetic leaves `i64`.
pub(crate) fn try_apply_schedule(f: &Function) -> Result<Vec<StmtPoly>, CompileError> {
    let stmts: Vec<StmtPoly> = f
        .computes()
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let mut s = c.to_stmt_poly();
            s.set_order(i as i64);
            s
        })
        .collect();
    replay_from(f, stmts, 0)
}

/// Replays `f.schedule()[done..]` onto `stmts`, which must be `f`'s
/// statements with the first `done` primitives already replayed — the
/// DSE search replays a stage-1 prefix once and extends it per candidate
/// by the candidate's own suffix.
///
/// # Errors
///
/// Same as [`try_apply_schedule`].
pub(crate) fn replay_from(
    f: &Function,
    mut stmts: Vec<StmtPoly>,
    done: usize,
) -> Result<Vec<StmtPoly>, CompileError> {
    let index: HashMap<String, usize> = f
        .computes()
        .iter()
        .enumerate()
        .map(|(i, c)| (c.name().to_string(), i))
        .collect();
    for p in &f.schedule()[done..] {
        match p.replay(&mut stmts, &index) {
            Ok(()) => {}
            Err(ReplayError::Poly(e)) => return Err(CompileError::Poly(e)),
            Err(ReplayError::UnknownIterator { .. }) => {
                return Err(CompileError::Rejected(pom_verify::validate(f).render()))
            }
        }
    }
    Ok(stmts)
}

/// The self-dependences of compute `c` analysed in the *transformed*
/// space of its statement `s`: flow per load of the stored array, and
/// output when there is such a load. What stage 1 profiles and the
/// estimator's dependence summary records.
pub(crate) fn self_dependences(c: &Compute, s: &StmtPoly) -> Vec<Dependence> {
    let store = c.store();
    let mut deps = Vec::new();
    for l in c.loads() {
        if l.array == store.array {
            deps.extend(s.analyze_dependence(store, l, DepKind::Flow));
        }
    }
    if c.loads().iter().any(|l| l.array == store.array) {
        deps.extend(s.analyze_dependence(store, store, DepKind::Output));
    }
    deps
}

/// The levels `deps` carry in a `depth`-deep nest: per level, the
/// smallest distance of a uniform dependence carried there, `Some(1)` for
/// a level only non-uniform dependences carry, `None` for a parallel
/// level. Stage 1's profile and the stage-2 ladder's parallel levels read
/// it over [`self_dependences`].
pub(crate) fn carried_levels(deps: &[Dependence], depth: usize) -> Vec<Option<i64>> {
    let mut carried = vec![None; depth];
    for d in deps {
        match (&d.distance, d.carried_level) {
            (Some(v), Some(l)) => {
                carried[l] = Some(carried[l].map_or(v.0[l], |c: i64| c.min(v.0[l])))
            }
            (None, Some(l)) => carried[l] = Some(carried[l].unwrap_or(1)),
            _ => {}
        }
    }
    carried
}

/// Builds the per-loop dependence summary for estimation: every
/// self-dependence of every compute, analyzed in the *transformed* space,
/// keyed by the transformed loop name that carries it.
pub fn build_dep_summary(f: &Function, stmts: &[StmtPoly], model: &CostModel) -> DepSummary {
    let mut out = DepSummary::new();
    for (c, s) in f.computes().iter().zip(stmts) {
        for d in self_dependences(c, s) {
            let Some(level) = d.carried_level else {
                continue;
            };
            let distance = d
                .distance
                .as_ref()
                .map(|v| v.0[level].unsigned_abs())
                .unwrap_or(1)
                .max(1);
            let chain = dep_chain_latency(c.body(), &d.array, model)
                .unwrap_or(model.fadd.latency)
                .max(1);
            out.insert(
                s.dims()[level].clone(),
                CarriedDep {
                    array: d.array.clone(),
                    distance,
                    chain_latency: chain,
                },
            );
        }
    }
    out
}

/// Lowers a scheduled function to the annotated affine dialect.
///
/// # Errors
///
/// Returns [`CompileError::InvalidIr`] when lowering breaks a structural
/// invariant, [`CompileError::PassFailed`] when a cleanup pass does, and
/// [`CompileError::Poly`] when a loop bound or a substituted index leaves
/// `i64`.
pub fn lower(f: &Function, stmts: &[StmtPoly]) -> Result<AffineFunc, CompileError> {
    let ast = build_ast(stmts).map_err(CompileError::Poly)?;

    let bodies: HashMap<String, StmtBody> = f
        .computes()
        .iter()
        .map(|c| {
            (
                c.name().to_string(),
                StmtBody {
                    name: c.name().to_string(),
                    orig_dims: c.iter_names(),
                    body: c.body().clone(),
                    store: c.store().clone(),
                },
            )
        })
        .collect();

    let mut memrefs: Vec<MemRefDecl> = f
        .placeholders()
        .iter()
        .map(|p| MemRefDecl::new(p.name(), p.shape(), p.dtype()))
        .collect();
    for prim in f.schedule() {
        if let Primitive::Partition {
            array,
            factors,
            style,
        } = prim
        {
            if let Some(m) = memrefs.iter_mut().find(|m| &m.name == array) {
                m.partition = Some(PartitionInfo {
                    factors: factors.clone(),
                    style: *style,
                });
            }
        }
    }

    let mut func = lower_to_affine(f.name(), memrefs, &ast, &bodies).map_err(CompileError::Poly)?;
    for prim in f.schedule() {
        match prim {
            Primitive::Pipeline { stmt, loop_iv, ii } => {
                func.set_pipeline_for_stmt(loop_iv, stmt, *ii);
            }
            Primitive::Unroll {
                stmt,
                loop_iv,
                factor,
            } => {
                func.set_unroll_for_stmt(loop_iv, stmt, *factor);
            }
            _ => {}
        }
    }
    pom_ir::verify(&func).map_err(CompileError::InvalidIr)?;
    pom_ir::PassManager::standard()
        .run(&mut func)
        .map_err(|(pass, issue)| CompileError::PassFailed { pass, issue })?;
    Ok(func)
}

/// Runs the standard lint registry over a compiled function with its full
/// polyhedral context (dependences, schedule source, device, liveness
/// and, for a dataflow pipeline, the plan's stages and channels):
/// [`Signoff::lint`](crate::signoff::Signoff::lint) with seed 42.
pub fn lint_report(f: &Function, c: &Compiled, opts: &CompileOptions) -> LintReport {
    crate::signoff::Signoff::new(f, c, opts, 42).lint().clone()
}

/// Wall-clock breakdown of one [`compile_timed`] call: schedule
/// application + dependence analysis + lowering on one side, estimation
/// on the other — the per-phase times surfaced through `DseStats`.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseTimes {
    /// Schedule replay, dependence analysis, and affine lowering.
    pub lowering: std::time::Duration,
    /// QoR estimation.
    pub estimation: std::time::Duration,
}

/// Full pipeline: schedule application, dependence analysis, lowering,
/// estimation.
///
/// # Errors
///
/// Returns a [`CompileError`] when the schedule does not replay
/// ([`CompileError::Rejected`]), lowering produces invalid IR, or a pass
/// breaks it.
pub fn compile(f: &Function, opts: &CompileOptions) -> Result<Compiled, CompileError> {
    compile_timed(f, opts).map(|(c, _)| c)
}

/// [`compile`] that also reports where the wall time went, so DSE can
/// attribute its cost to lowering vs estimation.
///
/// # Errors
///
/// Same failure modes as [`compile`].
pub fn compile_timed(
    f: &Function,
    opts: &CompileOptions,
) -> Result<(Compiled, PhaseTimes), CompileError> {
    let t0 = std::time::Instant::now();
    let stmts = try_apply_schedule(f)?;
    let deps = build_dep_summary(f, &stmts, &opts.model);
    let analysis = t0.elapsed();
    let (c, mut times) = compile_prepared(f, stmts, deps, opts)?;
    times.lowering += analysis;
    Ok((c, times))
}

/// The tail of [`compile_timed`] for callers that already hold the
/// transformed statements and dependence summary (the DSE cache computes
/// them once per candidate and shares them between the lint prescreen and
/// the estimate).
pub(crate) fn compile_prepared(
    f: &Function,
    stmts: Vec<StmtPoly>,
    deps: DepSummary,
    opts: &CompileOptions,
) -> Result<(Compiled, PhaseTimes), CompileError> {
    let t0 = std::time::Instant::now();
    let affine = lower(f, &stmts)?;
    let lowering = t0.elapsed();
    let t1 = std::time::Instant::now();
    let (qor, op_latency) = estimate_ops(&affine, &deps, &opts.model, opts.sharing);
    let estimation = t1.elapsed();
    Ok((
        Compiled {
            affine,
            qor,
            op_latency,
            deps,
            stmts,
        },
        PhaseTimes {
            lowering,
            estimation,
        },
    ))
}

/// Extracts a sub-function containing only the named computes (with their
/// placeholders and the schedule primitives that target them) — used to
/// attribute latency to individual nodes/paths during DSE.
pub fn sub_function(f: &Function, names: &[&str]) -> Function {
    let mut g = Function::new(f.name());
    for p in f.placeholders() {
        g.placeholder(p.name(), p.shape(), p.dtype());
    }
    for c in f.computes() {
        if names.contains(&c.name()) {
            g.compute(c.name(), c.iters(), c.body().clone(), c.store().clone());
        }
    }
    for prim in f.schedule() {
        let keep = match prim {
            Primitive::After { stmt, other, .. } => {
                names.contains(&stmt.as_str()) && names.contains(&other.as_str())
            }
            Primitive::Partition { .. } => true,
            Primitive::AutoDse => false,
            other_prim => other_prim
                .stmt()
                .map(|s| names.contains(&s))
                .unwrap_or(false),
        };
        if keep {
            g.record(prim.clone());
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use pom_dsl::{DataType, PartitionStyle};

    fn gemm(n: usize) -> Function {
        let mut f = Function::new("gemm");
        let k = f.var("k", 0, n as i64);
        let i = f.var("i", 0, n as i64);
        let j = f.var("j", 0, n as i64);
        let a = f.placeholder("A", &[n, n], DataType::F32);
        let b = f.placeholder("B", &[n, n], DataType::F32);
        let c = f.placeholder("C", &[n, n], DataType::F32);
        f.compute(
            "s",
            &[k.clone(), i.clone(), j.clone()],
            a.at(&[&i, &j]) + b.at(&[&i, &k]) * c.at(&[&k, &j]),
            a.access(&[&i, &j]),
        );
        f
    }

    #[test]
    fn unscheduled_compile_is_sequential() {
        let f = gemm(8);
        let c = compile(&f, &CompileOptions::default()).expect("compiles");
        assert!(c.qor.loops.is_empty(), "no pipelined loops");
        // 512 iterations, each costing body latency + overheads.
        assert!(c.qor.latency > 512 * 5);
        assert!(c.affine.to_string().contains("affine.for"));
    }

    #[test]
    fn fig456_schedule_compiles_and_speeds_up() {
        // The paper's Fig. 4/5/6 schedule: tile i, j by 4x4, pipeline j0,
        // unroll intra-tile loops, partition A.
        let mut f = gemm(32);
        f.tile("s", "i", "j", 4, 4, "i0", "j0", "i1", "j1");
        f.pipeline("s", "j0", 1);
        f.unroll("s", "i1", 4);
        f.unroll("s", "j1", 4);
        f.partition("A", &[4, 4], PartitionStyle::Cyclic);
        f.partition("B", &[1, 4], PartitionStyle::Cyclic);
        f.partition("C", &[4, 4], PartitionStyle::Cyclic);
        let opts = CompileOptions::default();
        let optimized = compile(&f, &opts).expect("compiles");
        let baseline = compile(&gemm(32), &opts).expect("compiles");
        assert!(!optimized.qor.loops.is_empty());
        let speedup = optimized.qor.speedup_over(&baseline.qor);
        assert!(speedup > 4.0, "speedup {speedup}");
        let c_code = optimized.hls_c();
        assert!(c_code.contains("#pragma HLS pipeline"));
        assert!(c_code.contains("array_partition"));
    }

    #[test]
    fn dep_summary_maps_transformed_levels() {
        // GEMM (k, i, j): reduction carried at k. After splitting j the
        // carried loop is still named k.
        let mut f = gemm(16);
        f.split("s", "j", 4, "j0", "j1");
        let stmts = apply_schedule(&f);
        let deps = build_dep_summary(&f, &stmts, &CostModel::vitis_f32());
        let d = deps.carried_at("k").expect("k carries the reduction");
        assert_eq!(d.array, "A");
        assert_eq!(d.distance, 1);
        assert_eq!(d.chain_latency, 4, "one fadd on the recurrence");
        assert!(deps.carried_at("j0").is_none());
    }

    #[test]
    fn after_primitive_sequences_nests() {
        let n = 8usize;
        let mut f = Function::new("two");
        let i = f.var("i", 0, n as i64);
        let x = f.placeholder("X", &[n], DataType::F32);
        let y = f.placeholder("Y", &[n], DataType::F32);
        let z = f.placeholder("Z", &[n], DataType::F32);
        f.compute(
            "S1",
            std::slice::from_ref(&i),
            x.at(&[&i]) * 2.0,
            y.access(&[&i]),
        );
        f.compute(
            "S2",
            std::slice::from_ref(&i),
            y.at(&[&i]) + 1.0,
            z.access(&[&i]),
        );
        let c = compile(&f, &CompileOptions::default()).expect("compiles");
        assert_eq!(c.affine.body.len(), 2, "two sequential nests");
    }

    #[test]
    fn fusion_via_after_shares_loop() {
        let n = 8usize;
        let mut f = Function::new("fused");
        let i = f.var("i", 0, n as i64);
        let x = f.placeholder("X", &[n], DataType::F32);
        let y = f.placeholder("Y", &[n], DataType::F32);
        let z = f.placeholder("Z", &[n], DataType::F32);
        f.compute(
            "S1",
            std::slice::from_ref(&i),
            x.at(&[&i]) * 2.0,
            y.access(&[&i]),
        );
        f.compute(
            "S2",
            std::slice::from_ref(&i),
            x.at(&[&i]) + 1.0,
            z.access(&[&i]),
        );
        f.after("S2", "S1", "i");
        let c = compile(&f, &CompileOptions::default()).expect("compiles");
        assert_eq!(c.affine.body.len(), 1, "one fused nest");
        assert_eq!(c.affine.stores().len(), 2);
    }

    #[test]
    fn sub_function_extracts_named_computes() {
        let n = 8usize;
        let mut f = Function::new("two");
        let i = f.var("i", 0, n as i64);
        let x = f.placeholder("X", &[n], DataType::F32);
        let y = f.placeholder("Y", &[n], DataType::F32);
        let z = f.placeholder("Z", &[n], DataType::F32);
        f.compute(
            "S1",
            std::slice::from_ref(&i),
            x.at(&[&i]) * 2.0,
            y.access(&[&i]),
        );
        f.compute(
            "S2",
            std::slice::from_ref(&i),
            y.at(&[&i]) + 1.0,
            z.access(&[&i]),
        );
        f.pipeline("S1", "i", 1);
        f.pipeline("S2", "i", 1);
        let g = sub_function(&f, &["S2"]);
        assert_eq!(g.computes().len(), 1);
        assert_eq!(g.schedule().len(), 1);
    }

    #[test]
    fn hls_c_roundtrip_contains_kernel() {
        let f = gemm(8);
        let c = compile(&f, &CompileOptions::default()).expect("compiles");
        let code = c.hls_c();
        assert!(code.contains("void gemm"));
        assert!(code.contains("for (int"));
    }
}
