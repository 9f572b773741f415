//! The complete two-stage DSE engine (`f.auto_DSE()`).

use crate::cache::{CacheSnapshot, DseCache, PhaseAccum};
use crate::compile::{CompileError, CompileOptions, Compiled};
use crate::search::beam::portfolio_optimize_impl;
use crate::search::ladder::SearchBase;
use crate::search::stage2::{
    bottleneck_optimize_impl, full_compile, full_dep_template, retarget_iis,
};
use crate::search::{DseConfig, DseStats, GroupConfig, SearchMode};
use crate::signoff::Signoff;
use crate::stage1::dependence_aware_transform_on;
use pom_dsl::Function;
use pom_graph::DepGraph;
use std::time::{Duration, Instant};

/// The result of automatic design space exploration.
#[derive(Clone, Debug)]
pub struct DseResult {
    /// The fully scheduled function (stage-1 + stage-2 primitives).
    pub function: Function,
    /// The compiled/estimated design.
    pub compiled: Compiled,
    /// Final per-node configurations.
    pub groups: Vec<GroupConfig>,
    /// Stage-2 search counters (estimated and lint-pruned candidates).
    pub stats: DseStats,
    /// Wall-clock DSE time (the paper's "DSE Time(s)" column — the
    /// toolchain's runtime, since MLIR→HLS C code generation is <0.1 s).
    pub dse_time: Duration,
    /// The anytime incumbent trajectory of a beam/portfolio search (one
    /// point per strict simulated-cycles improvement, in time order).
    /// Empty under greedy search.
    pub anytime: Vec<crate::search::beam::AnytimePoint>,
}

impl DseResult {
    /// The achieved II of the pipelined loops, in order.
    pub fn achieved_iis(&self) -> Vec<u64> {
        self.compiled
            .qor
            .loops
            .iter()
            .map(|l| l.achieved_ii)
            .collect()
    }

    /// The paper's *parallelism* metric: product of tile sizes divided by
    /// the achieved II (per group, using the matching pipelined loop when
    /// available).
    pub fn parallelism(&self) -> f64 {
        let total_tiles: i64 = self
            .groups
            .iter()
            .map(GroupConfig::parallelism)
            .max()
            .unwrap_or(1);
        let ii = self
            .compiled
            .qor
            .loops
            .iter()
            .map(|l| l.achieved_ii)
            .max()
            .unwrap_or(1);
        total_tiles as f64 / ii as f64
    }
}

/// Runs the two-stage DSE: dependence-aware code transformation followed
/// by bottleneck-oriented code optimization (Section VI).
///
/// # Errors
///
/// Returns the [`CompileError`] of the first candidate or final schedule
/// that fails to compile (consistent with [`crate::compile::compile`]).
pub fn auto_dse(f: &Function, opts: &CompileOptions) -> Result<DseResult, CompileError> {
    auto_dse_with(f, opts, &DseConfig::default())
}

/// [`auto_dse`] under user-specified strategy parameters (Section VI-B
/// lets designers pre-define the groups of strategies and parameters the
/// search may use).
///
/// When `cfg.store` names a directory, the per-search cache is backed by
/// the persistent [`ArtifactStore`](crate::store::ArtifactStore) shard
/// for `opts`, so structurally repeated work hits across processes. A
/// store that fails to open degrades to memory-only caching — the store
/// is an accelerator, never a correctness dependency.
///
/// # Errors
///
/// Same failure modes as [`auto_dse`].
pub fn auto_dse_with(
    f: &Function,
    opts: &CompileOptions,
    cfg: &DseConfig,
) -> Result<DseResult, CompileError> {
    let cache = cfg
        .cache
        .then(|| DseCache::open(cfg.store.as_deref(), cfg.store_max_bytes, opts));
    auto_dse_impl(f, opts, cfg, cache.as_ref())
}

/// [`auto_dse_with`] over a caller-owned cache: the daemon keeps one
/// store-backed [`DseCache`] alive across requests, so repeated kernels
/// hit in memory without ever reopening the store shard. The cache must
/// have been created for (a store shard pinned to) the same `opts`.
///
/// # Errors
///
/// Same failure modes as [`auto_dse`].
pub fn auto_dse_with_cache(
    f: &Function,
    opts: &CompileOptions,
    cfg: &DseConfig,
    cache: &DseCache,
) -> Result<DseResult, CompileError> {
    auto_dse_impl(f, opts, cfg, Some(cache))
}

fn auto_dse_impl(
    f: &Function,
    opts: &CompileOptions,
    cfg: &DseConfig,
    cache: Option<&DseCache>,
) -> Result<DseResult, CompileError> {
    // Counter snapshots: a daemon-shared cache accumulates across
    // requests, so this search's stats are deltas, not absolutes.
    let snap = CacheSnapshot::take(cache);
    let acc = PhaseAccum::default();
    let result = run_search(f, opts, cfg, cache, &acc);
    // The search's spills reach disk as one pack, on every exit — before
    // the deltas, so `store_writes` counts what this search published.
    if let Some(s) = cache.and_then(DseCache::store) {
        s.flush();
    }
    let mut r = result?;
    snap.record(cache, &acc, &mut r.stats);
    Ok(r)
}

/// The search itself: stage 1, stage 2, the final compiles, the dataflow
/// sign-off and winner validation, its compile phases timed into `acc`.
fn run_search(
    f: &Function,
    opts: &CompileOptions,
    cfg: &DseConfig,
    cache: Option<&DseCache>,
    acc: &PhaseAccum,
) -> Result<DseResult, CompileError> {
    let start = Instant::now();
    let poly_before = pom_poly::PolyStats::snapshot();
    // Everything below replays `f`'s own schedule as a prefix of every
    // candidate's; reject one that does not replay before searching.
    crate::compile::try_apply_schedule(f)?;
    let t1 = Instant::now();
    // One dependence graph per search: stage 1 changes no compute.
    let graph = DepGraph::build(f);
    let stage1 = dependence_aware_transform_on(f, cfg.stage1_max_iters, &graph);
    let stage1_time = t1.elapsed();
    // The one replay of the stage-1 schedule this search pays; every
    // stage-2 consumer below reads it.
    let base = acc.time_lowering(|| SearchBase::with_graph(&stage1, graph));
    let s2 = match cfg.search {
        SearchMode::Greedy => bottleneck_optimize_impl(&base, opts, cfg, cache, acc)?,
        SearchMode::Portfolio => portfolio_optimize_impl(&base, opts, cfg, cache, acc)?,
    };
    let mut scheduled = s2.function;
    let groups = s2.groups;
    let mut stats = s2.stats;
    let anytime = s2.anytime;
    // The final compiles can reuse the search's full-function dependence
    // template: a pipeline-II retarget never changes the dependences.
    let full_template = cache.and_then(|c| full_dep_template(&base, &groups, c, opts, acc));
    let template = full_template.as_deref();
    // The repair loop's fitting compile is still in the cache, so this
    // lookup answers without recompiling the same schedule.
    let mut compiled = (*full_compile(&base, &scheduled, template, opts, cache, acc)?).clone();
    // Declared IIs follow what the recurrences allow.
    if let Some(c) = retarget_iis(&base, &mut scheduled, &compiled, template, opts, cache, acc)? {
        compiled = (*c).clone();
    }
    // Dataflow sign-off (`DseConfig::dataflow`): cut the returned design
    // into dataflow stages, discharge its channel-sizing certificates and
    // co-simulate the plan, so the figures describe the design that ships.
    if cfg.dataflow {
        let t_df = Instant::now();
        let signoff = Signoff::new(&scheduled, &compiled, opts, 0x5EED);
        let certs = signoff.channel_certificates();
        stats.certificates_checked += certs.len();
        stats.certificates_passed += certs.iter().filter(|c| c.passed()).count();
        if let Some(bad) = certs.iter().find(|c| !c.passed()) {
            let mut report = pom_verify::ValidationReport {
                func: compiled.affine.name.clone(),
                certificates: vec![bad.clone()],
            };
            report
                .certificates
                .extend(certs.iter().filter(|c| c.passed()).cloned());
            return Err(CompileError::Rejected(report.render()));
        }
        let plan = signoff.plan();
        stats.dataflow_stages = plan.stages.len();
        stats.dataflow_channels = plan.channels.len();
        stats.dataflow_cycles = signoff.cosim().0.cycles;
        stats.dataflow_time = t_df.elapsed();
    }
    // Winner validation: the returned schedule always carries a full
    // certificate chain — every transformation primitive is replayed
    // through the polyhedral layer and its obligations discharged. The
    // value-range analysis runs over the winning design alongside it.
    let report = pom_verify::validate(&scheduled);
    stats.certificates_checked += report.checked();
    stats.certificates_passed += report.checked() - report.rejected().len();
    if !report.passed() {
        return Err(CompileError::Rejected(report.render()));
    }
    stats.range_iterations = pom_verify::analyze_ranges(&compiled.affine).iterations;
    let dse_time: Duration = start.elapsed();
    // The counters are process-global, so under parallel evaluation this
    // delta includes the worker threads' kernel activity too — exactly the
    // whole-search total the perf triage wants.
    stats.poly = pom_poly::PolyStats::snapshot().delta(&poly_before);
    stats.stage1_time = stage1_time;
    Ok(DseResult {
        function: scheduled,
        compiled,
        groups,
        stats,
        dse_time,
        anytime,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pom_dsl::DataType;

    #[test]
    fn auto_dse_end_to_end_on_gesummv_shape() {
        // Two fused-able matrix-vector statements (GESUMMV-like).
        let n = 32usize;
        let mut f = Function::new("gesummv");
        let i = f.var("i", 0, n as i64);
        let j = f.var("j", 0, n as i64);
        let a = f.placeholder("A", &[n, n], DataType::F32);
        let b = f.placeholder("B", &[n, n], DataType::F32);
        let x = f.placeholder("x", &[n], DataType::F32);
        let tmp = f.placeholder("tmp", &[n], DataType::F32);
        let y = f.placeholder("y", &[n], DataType::F32);
        f.compute(
            "S1",
            &[i.clone(), j.clone()],
            tmp.at(&[&i]) + a.at(&[&i, &j]) * x.at(&[&j]),
            tmp.access(&[&i]),
        );
        f.compute(
            "S2",
            &[i.clone(), j.clone()],
            y.at(&[&i]) + b.at(&[&i, &j]) * x.at(&[&j]),
            y.access(&[&i]),
        );
        let opts = CompileOptions::default();
        let r = auto_dse(&f, &opts).expect("DSE compiles");
        let base = crate::compile::compile(&crate::baselines::unoptimized(&f), &opts)
            .expect("compiles")
            .qor;
        let speedup = r.compiled.qor.speedup_over(&base);
        assert!(speedup > 10.0, "speedup {speedup}");
        assert!(r.compiled.qor.resources.dsp <= 220);
        assert!(r.parallelism() >= 4.0, "parallelism {}", r.parallelism());
        assert!(!r.achieved_iis().is_empty());
        // Winner validation ran and every certificate passed.
        assert!(r.stats.certificates_checked > 0);
        assert_eq!(r.stats.certificates_checked, r.stats.certificates_passed);
        assert!(r.stats.range_iterations > 0);
    }

    #[test]
    fn dataflow_mode_overlaps_stages_within_envelope() {
        // 2MM-like chain: S1 fills tmp, S2 consumes it — a genuine
        // producer→consumer cut for the dataflow partitioner.
        let n = 16usize;
        let mut f = Function::new("mm2");
        let i = f.var("i", 0, n as i64);
        let j = f.var("j", 0, n as i64);
        let k = f.var("k", 0, n as i64);
        let a = f.placeholder("A", &[n, n], DataType::F32);
        let b = f.placeholder("B", &[n, n], DataType::F32);
        let c = f.placeholder("C", &[n, n], DataType::F32);
        let d = f.placeholder("D", &[n, n], DataType::F32);
        let tmp = f.placeholder("tmp", &[n, n], DataType::F32);
        f.compute(
            "S1",
            &[i.clone(), j.clone(), k.clone()],
            tmp.at(&[&i, &j]) + a.at(&[&i, &k]) * b.at(&[&k, &j]),
            tmp.access(&[&i, &j]),
        );
        f.compute(
            "S2",
            &[i.clone(), j.clone(), k.clone()],
            d.at(&[&i, &j]) + tmp.at(&[&i, &k]) * c.at(&[&k, &j]),
            d.access(&[&i, &j]),
        );
        let opts = CompileOptions::default();
        let seq = auto_dse(&f, &opts).expect("sequential DSE compiles");
        let cfg = DseConfig {
            dataflow: true,
            ..DseConfig::default()
        };
        let r = auto_dse_with(&f, &opts, &cfg).expect("dataflow DSE compiles");
        assert_eq!(r.stats.dataflow_stages, 2, "two dataflow stages");
        assert_eq!(r.stats.dataflow_channels, 1, "one channel on tmp");
        assert!(r.stats.dataflow_cycles > 0);
        // One sign-off of the returned design co-simulates its plan and
        // simulates it sequentially from the same memory.
        let signoff = Signoff::new(&r.function, &r.compiled, &opts, 0x5EED);
        let (df, in_order) = (signoff.cosim().0.cycles, signoff.sim().0.cycles);
        assert!(
            df < in_order,
            "overlap must win: dataflow {df} vs sequential {in_order}"
        );
        // The dataflow mode signs the greedy winner off; it returns that
        // design itself.
        assert_eq!(r.function.to_string(), seq.function.to_string());
        assert_eq!(r.groups, seq.groups);
        assert_eq!(r.compiled.qor, seq.compiled.qor);
        // Winner validation plus every channel-sizing certificate passed.
        assert!(r.stats.certificates_checked > seq.stats.certificates_checked);
        assert_eq!(r.stats.certificates_checked, r.stats.certificates_passed);
        // Determinism: a second run reproduces the plan and measurement.
        let r2 = auto_dse_with(&f, &opts, &cfg).expect("dataflow DSE compiles");
        assert_eq!(r.groups, r2.groups);
        assert_eq!(r.stats.dataflow_cycles, r2.stats.dataflow_cycles);
    }

    #[test]
    fn illegal_user_schedule_is_caught_by_winner_validation() {
        // The mutation-test scenario end to end: a schedule carrying an
        // illegal interchange (the (1, -1) stencil dependence flips to
        // (-1, 1)) must be rejected by pom-verify's certificate check,
        // not surface as silent output divergence downstream.
        let n = 16usize;
        let mut f = Function::new("stencil");
        let t = f.var("t", 1, n as i64);
        let i = f.var("i", 0, (n - 1) as i64);
        let a = f.placeholder("A", &[n, n], DataType::F32);
        let tm1 = t.expr() - 1;
        let ip1 = i.expr() + 1;
        f.compute(
            "s",
            &[t.clone(), i.clone()],
            a.at(&[tm1, ip1]) * 0.5,
            a.access(&[&t, &i]),
        );
        f.interchange("s", "t", "i");
        let err = auto_dse(&f, &CompileOptions::default()).unwrap_err();
        let CompileError::Rejected(report) = err else {
            panic!("expected Rejected, got {err}");
        };
        assert!(report.contains("dependences-preserved"), "{report}");
        assert!(report.contains("error[VERIFY]"), "{report}");
    }
}
