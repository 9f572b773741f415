//! One sign-off of a finished design: the facts `pomc --emit
//! lint|sim|dataflow|live`, [`lint_report`](crate::compile::lint_report),
//! the DSE's dataflow sign-off ([`DseConfig::dataflow`](crate::DseConfig::dataflow))
//! and the audits read about a compiled design, each computed at most
//! once.
//!
//! The facts depend on each other — seeded memory → dataflow plan →
//! co-simulation → channel certificates, and liveness and the plan →
//! lint — so a consumer that assembled the chain itself would recompute
//! the shared prefix. The plan and everything built on it never compute
//! liveness: the DSE's dataflow sign-off reads only them. Lint never
//! simulates: it reads the plan and the per-op latencies the compile's
//! estimate recorded.
//! A [`Signoff`] computes every fact lazily on first use and hands out
//! references afterwards, the way an MLIR analysis manager caches an
//! analysis per operation.

use crate::compile::{CompileOptions, Compiled};
use pom_dataflow::DataflowPlan;
use pom_dsl::{Function, MemoryState};
use pom_hls::estimate::loop_trip;
use pom_ir::{AffineFunc, AffineOp};
use pom_lint::{ChannelShape, DataflowShape, LintContext, LintReport, Linter, StageShape};
use pom_live::LiveReport;
use pom_sim::{DataflowReport, SimReport};
use pom_verify::Certificate;
use std::cell::OnceCell;
use std::collections::HashMap;

/// The sign-off facts of one scheduled function and its compilation,
/// each computed on first use from memory seeded with `seed`.
pub struct Signoff<'a> {
    function: &'a Function,
    compiled: &'a Compiled,
    opts: &'a CompileOptions,
    seed: u64,
    memory: OnceCell<MemoryState>,
    live: OnceCell<LiveReport>,
    plan: OnceCell<DataflowPlan>,
    cosim: OnceCell<(DataflowReport, MemoryState)>,
    sim: OnceCell<(SimReport, MemoryState)>,
    interpreted: OnceCell<MemoryState>,
    channel_certificates: OnceCell<Vec<Certificate>>,
    lint: OnceCell<LintReport>,
}

impl<'a> Signoff<'a> {
    /// Signs off `c`, the compilation of the scheduled function `f`.
    pub fn new(f: &'a Function, c: &'a Compiled, opts: &'a CompileOptions, seed: u64) -> Self {
        Signoff {
            function: f,
            compiled: c,
            opts,
            seed,
            memory: OnceCell::new(),
            live: OnceCell::new(),
            plan: OnceCell::new(),
            cosim: OnceCell::new(),
            sim: OnceCell::new(),
            interpreted: OnceCell::new(),
            channel_certificates: OnceCell::new(),
            lint: OnceCell::new(),
        }
    }

    /// The scheduled function.
    pub fn function(&self) -> &'a Function {
        self.function
    }

    /// Its compilation.
    pub fn compiled(&self) -> &'a Compiled {
        self.compiled
    }

    /// The initial memory every execution below starts from
    /// ([`pom_live::seeded_memory`] with the sign-off's seed).
    pub fn memory(&self) -> &MemoryState {
        self.memory
            .get_or_init(|| pom_live::seeded_memory(&self.compiled.affine, self.seed))
    }

    /// `pom-live`'s liveness report.
    pub fn live(&self) -> &LiveReport {
        self.live
            .get_or_init(|| pom_live::analyze_func(&self.compiled.affine))
    }

    /// The dataflow plan: stage partition and channels sized from the
    /// recorded element streams (no liveness analysis).
    pub fn plan(&self) -> &DataflowPlan {
        self.plan
            .get_or_init(|| pom_dataflow::partition(&self.compiled.affine))
    }

    /// The channel-accurate co-simulation of [`Signoff::plan`] and the
    /// memory it leaves.
    pub fn cosim(&self) -> &(DataflowReport, MemoryState) {
        self.cosim.get_or_init(|| {
            let (c, plan) = (self.compiled, self.plan());
            let mut mem = self.memory().clone();
            let report = pom_sim::simulate_dataflow(
                &c.affine,
                &c.deps,
                &plan.stages,
                &plan.channel_specs(),
                &mut mem,
                &self.opts.model,
            );
            (report, mem)
        })
    }

    /// The sequential cycle-approximate simulation and the memory it
    /// leaves.
    pub fn sim(&self) -> &(SimReport, MemoryState) {
        self.sim.get_or_init(|| {
            let c = self.compiled;
            let mut mem = self.memory().clone();
            let report = pom_sim::simulate(&c.affine, &c.deps, &mut mem, &self.opts.model);
            (report, mem)
        })
    }

    /// The memory the affine interpreter leaves: the reference both
    /// simulations must match bit for bit.
    pub fn interpreted(&self) -> &MemoryState {
        self.interpreted.get_or_init(|| {
            let mut mem = self.memory().clone();
            pom_ir::execute_func(&self.compiled.affine, &mut mem);
            mem
        })
    }

    /// The plan's replayed `ChannelSized` certificates.
    pub fn channel_certificates(&self) -> &[Certificate] {
        self.channel_certificates.get_or_init(|| {
            pom_dataflow::channel_certificates(&self.compiled.affine, self.plan(), self.memory())
        })
    }

    /// The standard lint registry over the design with its source, its
    /// liveness report and — when the plan is a real pipeline — the
    /// plan's stages and channels behind POM010. Lint reads the plan,
    /// never a simulation: POM010 predicts channel stalls statically
    /// from the stage latencies the compile's estimate recorded, so
    /// neither [`Signoff::cosim`] nor [`Signoff::sim`] runs here.
    pub fn lint(&self) -> &LintReport {
        self.lint.get_or_init(|| {
            let (c, plan) = (self.compiled, self.plan());
            let shape = plan.is_pipeline().then(|| dataflow_shape(plan, c));
            let mut cx = LintContext::new(&c.affine, &c.deps, &self.opts.model, &self.opts.device)
                .with_source(self.function, &c.stmts)
                .with_live(self.live());
            if let Some(shape) = &shape {
                cx = cx.with_dataflow(shape);
            }
            Linter::standard().run(&cx)
        })
    }
}

/// `plan` as POM010 reads it: each stage's latency, summed from the
/// estimate's own per-op latencies (`Compiled::op_latency`), and each
/// channel's sizing with the window of its producer's timeline in which
/// the channel's final values are written.
fn dataflow_shape(plan: &DataflowPlan, c: &Compiled) -> DataflowShape {
    let op_latency = &c.op_latency;
    let stages = plan
        .stages
        .iter()
        .map(|st| StageShape {
            name: st.name.clone(),
            latency: st
                .ops
                .iter()
                .map(|&o| op_latency[o])
                .fold(0, u64::saturating_add),
        })
        .collect();
    let channels = plan
        .channels
        .iter()
        .map(|ch| {
            let spec = &ch.spec;
            ChannelShape {
                array: spec.array.clone(),
                producer: spec.producer,
                consumers: spec.consumers.clone(),
                capacity: spec.capacity,
                pingpong: spec.pingpong,
                min_depth: ch.min_depth,
                footprint: ch.footprint,
                written: written_window(
                    &c.affine,
                    &plan.stages[spec.producer].ops,
                    op_latency,
                    &spec.array,
                ),
            }
        })
        .collect();
    DataflowShape { stages, channels }
}

/// The cycles `[from, to]` of a stage running `ops` in which it writes the
/// final values of `array`: the span of the last op storing to it,
/// narrowed to its last `1/R` when loops of `R` iterations around every
/// loop indexing `array` rewrite each element once per iteration (an
/// outer reduction loop).
fn written_window(func: &AffineFunc, ops: &[usize], op_latency: &[u64], array: &str) -> (u64, u64) {
    let (mut offset, mut window) = (0u64, (0, 0));
    for &o in ops {
        let lat = op_latency[o];
        let mut env = HashMap::new();
        if let Some(rewrites) =
            rewrites_per_element(&func.body[o], array, &mut Vec::new(), &mut env)
        {
            let end = offset.saturating_add(lat);
            window = (end - lat / rewrites.max(1), end);
        }
        offset = offset.saturating_add(lat);
    }
    window
}

/// For the last store to `array` under `op` (`None` if there is none):
/// the product of the trips of its enclosing loops outside the outermost
/// loop whose induction variable indexes `array`. `outer` holds the trips
/// of the loops around `op`, outermost first.
fn rewrites_per_element(
    op: &AffineOp,
    array: &str,
    outer: &mut Vec<(String, u64)>,
    env: &mut HashMap<String, i64>,
) -> Option<u64> {
    match op {
        AffineOp::Store(s) if s.dest.array == array => Some(
            outer
                .iter()
                .take_while(|(iv, _)| !s.dest.indices.iter().any(|e| e.uses(iv)))
                .map(|&(_, trip)| trip)
                .product(),
        ),
        AffineOp::Store(_) => None,
        AffineOp::If(i) => i
            .body
            .iter()
            .filter_map(|op| rewrites_per_element(op, array, outer, env))
            .last(),
        AffineOp::For(l) => {
            let (lb, ub, trip) = loop_trip(l, env);
            env.insert(l.iv.clone(), pom_poly::midpoint(lb, ub));
            outer.push((l.iv.clone(), trip));
            let found = l
                .body
                .iter()
                .filter_map(|op| rewrites_per_element(op, array, outer, env))
                .last();
            outer.pop();
            env.remove(&l.iv);
            found
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pom_dsl::DataType;
    use pom_poly::LinearExpr;

    /// A two-stage chain: S1 fills `t`, S2 consumes it — in order, or
    /// last element first.
    fn chain(n: usize, reversed: bool) -> Function {
        let mut f = Function::new("chain");
        let i = f.var("i", 0, n as i64);
        let a = f.placeholder("A", &[n], DataType::F32);
        let t = f.placeholder("t", &[n], DataType::F32);
        let b = f.placeholder("B", &[n], DataType::F32);
        f.compute(
            "S1",
            std::slice::from_ref(&i),
            a.at(&[&i]) * 2.0,
            t.access(&[&i]),
        );
        let read = if reversed {
            LinearExpr::constant_expr(n as i64 - 1) - LinearExpr::from(&i)
        } else {
            LinearExpr::from(&i)
        };
        f.compute(
            "S2",
            std::slice::from_ref(&i),
            t.at(&[read]) + 1.0,
            b.access(&[&i]),
        );
        f
    }

    #[test]
    fn the_plan_and_what_reads_it_never_compute_liveness() {
        let f = chain(16, false);
        let opts = CompileOptions::default();
        let c = crate::compile::compile(&f, &opts).expect("compiles");
        let s = Signoff::new(&f, &c, &opts, 7);
        assert!(s.plan().is_pipeline());
        assert!(!s.cosim().0.deadlock);
        assert!(s.channel_certificates().iter().all(|c| c.passed()));
        assert!(s.live.get().is_none(), "the plan computed liveness");
    }

    #[test]
    fn lint_never_simulates() {
        // S2 reads `t` last element first, so it waits for all of S1:
        // POM010 fires, predicted from the plan alone.
        let f = chain(16, true);
        let opts = CompileOptions::default();
        let c = crate::compile::compile(&f, &opts).expect("compiles");
        let s = Signoff::new(&f, &c, &opts, 7);
        let found = s.lint().with_code(pom_lint::LintCode::ChannelPressure);
        assert_eq!(found.len(), 1, "{}", s.lint().render("chain"));
        assert!(found[0].message.contains("`t`"), "{}", found[0].message);
        assert!(s.cosim.get().is_none(), "lint co-simulated the plan");
        assert!(s.sim.get().is_none(), "lint simulated the design");
    }

    #[test]
    fn stage_latencies_sum_to_the_estimate() {
        let mut pipelined = chain(16, false);
        pipelined
            .split("S1", "i", 4, "i0", "i1")
            .pipeline("S1", "i1", 1)
            .pipeline("S2", "i", 2);
        for f in [chain(16, false), chain(16, true), pipelined] {
            let opts = CompileOptions::default();
            let c = crate::compile::compile(&f, &opts).expect("compiles");
            let plan = pom_dataflow::partition(&c.affine);
            let shape = dataflow_shape(&plan, &c);
            assert_eq!(c.op_latency.len(), c.affine.body.len());
            let total: u64 = shape.stages.iter().map(|st| st.latency).sum();
            assert_eq!(total, c.qor.latency);
            assert_eq!(shape.channels[0].written, (0, shape.stages[0].latency));
        }
    }

    #[test]
    fn an_outer_reduction_writes_final_values_last() {
        // S1 accumulates `t[i]` over an outer `k`: every element is final
        // only in the last of the 4 passes.
        let n = 16usize;
        let mut f = Function::new("reduce");
        let k = f.var("k", 0, 4);
        let i = f.var("i", 0, n as i64);
        let a = f.placeholder("A", &[4, n], DataType::F32);
        let t = f.placeholder("t", &[n], DataType::F32);
        let b = f.placeholder("B", &[n], DataType::F32);
        f.compute(
            "S1",
            &[k.clone(), i.clone()],
            t.at(&[&i]) + a.at(&[&k, &i]),
            t.access(&[&i]),
        );
        f.compute(
            "S2",
            std::slice::from_ref(&i),
            t.at(&[&i]) * 2.0,
            b.access(&[&i]),
        );
        let opts = CompileOptions::default();
        let c = crate::compile::compile(&f, &opts).expect("compiles");
        let plan = pom_dataflow::partition(&c.affine);
        let shape = dataflow_shape(&plan, &c);
        let lat = shape.stages[0].latency;
        assert_eq!(shape.channels[0].written, (lat - lat / 4, lat));
    }
}
