//! One sign-off of a finished design: the facts `pomc --emit
//! lint|sim|dataflow|live`, [`lint_report`](crate::compile::lint_report),
//! the dataflow refinement and the audits read about a compiled design,
//! each computed at most once.
//!
//! The facts depend on each other — seeded memory → liveness → dataflow
//! plan → co-simulation → channel certificates → lint — so a consumer
//! that assembled the chain itself would recompute the shared prefix.
//! A [`Signoff`] computes every fact lazily on first use and hands out
//! references afterwards, the way an MLIR analysis manager caches an
//! analysis per operation.

use crate::compile::{CompileOptions, Compiled};
use pom_dataflow::DataflowPlan;
use pom_dsl::{Function, MemoryState};
use pom_lint::{ChannelObservation, LintContext, LintReport, Linter};
use pom_live::LiveReport;
use pom_sim::{DataflowReport, SimReport};
use pom_verify::Certificate;
use std::borrow::Cow;
use std::cell::OnceCell;

/// The sign-off facts of one scheduled function and its compilation,
/// each computed on first use from memory seeded with `seed`.
pub struct Signoff<'a> {
    function: Cow<'a, Function>,
    compiled: Cow<'a, Compiled>,
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
        Self::from_parts(Cow::Borrowed(f), Cow::Borrowed(c), opts, seed)
    }

    /// [`Signoff::new`] over a design the sign-off owns; a caller that
    /// keeps the design takes it back with [`Signoff::into_design`].
    pub fn owned(f: Function, c: Compiled, opts: &'a CompileOptions, seed: u64) -> Self {
        Self::from_parts(Cow::Owned(f), Cow::Owned(c), opts, seed)
    }

    fn from_parts(
        function: Cow<'a, Function>,
        compiled: Cow<'a, Compiled>,
        opts: &'a CompileOptions,
        seed: u64,
    ) -> Self {
        Signoff {
            function,
            compiled,
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
    pub fn function(&self) -> &Function {
        &self.function
    }

    /// Its compilation.
    pub fn compiled(&self) -> &Compiled {
        &self.compiled
    }

    /// The scheduled function and its compilation, dropping the facts.
    pub fn into_design(self) -> (Function, Compiled) {
        (self.function.into_owned(), self.compiled.into_owned())
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

    /// The dataflow plan: stage partition and sized channels.
    pub fn plan(&self) -> &DataflowPlan {
        self.plan.get_or_init(|| {
            pom_dataflow::partition(&self.function, &self.compiled.affine, self.live())
        })
    }

    /// The channel-accurate co-simulation of [`Signoff::plan`] and the
    /// memory it leaves.
    pub fn cosim(&self) -> &(DataflowReport, MemoryState) {
        self.cosim.get_or_init(|| {
            let (c, plan) = (&*self.compiled, self.plan());
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
            let c = &*self.compiled;
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
    /// co-simulated channels behind POM010. A single-stage plan skips
    /// the co-simulation, so the common lint path stays static.
    pub fn lint(&self) -> &LintReport {
        self.lint.get_or_init(|| {
            let (c, plan) = (&*self.compiled, self.plan());
            let channels: Vec<ChannelObservation> = if plan.is_pipeline() {
                let report = &self.cosim().0;
                report
                    .channels
                    .iter()
                    .map(|ch| ChannelObservation {
                        array: ch.array.clone(),
                        producer: ch.producer.clone(),
                        consumers: ch.consumers.clone(),
                        capacity: ch.capacity,
                        pingpong: ch.pingpong,
                        stall_pop: ch.stall_pop,
                        stall_push: ch.stall_push,
                        total_cycles: report.cycles,
                        min_depth: plan
                            .channels
                            .iter()
                            .find(|pc| pc.spec.array == ch.array)
                            .map_or(0, |pc| pc.min_depth),
                    })
                    .collect()
            } else {
                Vec::new()
            };
            let cx = LintContext::new(&c.affine, &c.deps, &self.opts.model, &self.opts.device)
                .with_source(&self.function, &c.stmts)
                .with_channels(&channels)
                .with_live(self.live());
            Linter::standard().run(&cx)
        })
    }
}
