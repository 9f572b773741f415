//! DSE stage 2: bottleneck-oriented code optimization (Section VI-B).
//!
//! After stage 1 has alleviated tight loop-carried dependences, this stage
//! explores tiling + HLS optimizations: it estimates the latency of every
//! node (group of fused computes), orders data paths by latency, and
//! repeatedly escalates the *parallelism degree* of the bottleneck node on
//! the critical path — splitting parallel loops, unrolling the intra-tile
//! loops, pipelining the innermost tile loop, and cyclically partitioning
//! the accessed arrays to feed the unrolled units. A node exits the
//! optimization list when it reaches maximum parallelism or the next step
//! would exceed the device's resources (the paper's exit mechanism).

use super::config::DseConfig;
use super::ladder::{schedule_for, GroupConfig, GroupSlice, SearchBase};
use super::stats::DseStats;
use crate::cache::{CacheSnapshot, DseCache, PhaseAccum};
use crate::compile::{
    apply_schedule, build_dep_summary, compile_timed, sub_function, CompileError, CompileOptions,
    Compiled,
};
use pom_dsl::{Function, PartitionStyle, Primitive};
use pom_hls::estimate::Sharing;
use pom_poly::StmtPoly;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use std::time::Instant;

/// The outcome of [`try_bottleneck_optimize`]: the fully scheduled
/// function, the final group configurations, and search statistics.
#[derive(Clone, Debug)]
pub struct Stage2Result {
    /// The stage-1 function with stage-2 primitives applied.
    pub function: Function,
    /// Final per-group configurations.
    pub groups: Vec<GroupConfig>,
    /// Search counters (lint-pruned candidates etc.).
    pub stats: DseStats,
    /// The anytime incumbent trajectory of a portfolio search: one point
    /// per strict incumbent improvement, in time order. Empty
    /// under greedy search (see [`crate::search::beam::AnytimePoint`]).
    pub anytime: Vec<crate::search::beam::AnytimePoint>,
}

/// The bottleneck-oriented optimization loop. Returns the fully scheduled
/// function and the final group configurations.
///
/// Latency and resources are tracked per group (each group compiled as a
/// sub-function) so every escalation step costs one incremental compile;
/// the total latency is the sum over groups (sequential execution) and
/// resources compose per the sharing policy (`max` under reuse, `+` under
/// dataflow).
///
/// # Panics
///
/// Panics when a DSE-generated schedule fails to compile — use
/// [`try_bottleneck_optimize`] to handle the error instead.
pub fn bottleneck_optimize(stage1_fn: &Function, opts: &CompileOptions) -> Stage2Result {
    try_bottleneck_optimize(stage1_fn, opts, &DseConfig::default())
        .expect("stage-2 schedule compiles")
}

/// [`bottleneck_optimize`] under explicit strategy parameters,
/// propagating compile failures.
///
/// # Errors
///
/// Returns the first [`CompileError`] (in deterministic candidate order)
/// hit while estimating a candidate or the repaired full design.
pub fn try_bottleneck_optimize(
    stage1_fn: &Function,
    opts: &CompileOptions,
    cfg: &DseConfig,
) -> Result<Stage2Result, CompileError> {
    let cache = cfg.cache.then(DseCache::new);
    let acc = PhaseAccum::default();
    let snap = CacheSnapshot::take(cache.as_ref());
    let base = acc.time_lowering(|| SearchBase::new(stage1_fn));
    let mut r = bottleneck_optimize_impl(&base, opts, cfg, cache.as_ref(), &acc)?;
    snap.record(cache.as_ref(), &acc, &mut r.stats);
    Ok(r)
}

/// One candidate's evaluation outcome.
pub(crate) enum CandidateEval {
    /// Discarded by the lint prescreen before estimation.
    Pruned,
    /// Fully estimated: `(latency, resources)`.
    Estimated(u64, pom_hls::ResourceUsage),
}

/// The resources of a design whose groups, with per-group `(latency,
/// resources)`, run one after the other under `opts.sharing`.
pub(crate) fn composed_resources(
    qor: &[(u64, pom_hls::ResourceUsage)],
    opts: &CompileOptions,
) -> pom_hls::ResourceUsage {
    qor.iter()
        .fold(pom_hls::ResourceUsage::zero(), |total, (_, r)| {
            opts.sharing.compose(&total, r)
        })
}

/// Evaluates `0..n` with `f` on up to `workers` scoped threads, returning
/// results in index order — the caller's selection logic is therefore
/// independent of completion order. The workspace's one indexed pool:
/// the beam's waves and the `pom-bench` audit suites both run on it.
pub fn run_indexed<T: Send>(n: usize, workers: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    if workers <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..workers.min(n) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let v = f(i);
                *slots[i].lock().expect("result slot") = Some(v);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot")
                .expect("worker filled slot")
        })
        .collect()
}

/// Evaluates one escalation candidate of the group behind `slice`,
/// currently configured as `cur`: lint prescreen (relative to `cur`),
/// then estimation. The cached path names the candidate by
/// [`GroupSlice::key`] — a hit builds nothing — and on a miss builds the
/// scheduled sub-function, its statements and its dependence summary once
/// and shares them between the feasibility check and the estimate; the
/// uncached path replays the seed's cost profile (`lint_screen` and
/// `group_compile` apart, each paying schedule replay and dependence
/// analysis).
pub(crate) fn eval_candidate(
    slice: &GroupSlice,
    cur: &GroupConfig,
    cand: &GroupConfig,
    cur_infeasible: bool,
    opts: &CompileOptions,
    cache: Option<&DseCache>,
    acc: &PhaseAccum,
) -> Result<CandidateEval, CompileError> {
    let Some(cache) = cache else {
        // Seed-profile path: every check re-derives everything.
        let sub = slice.sub().function();
        if lint_screen(sub, cur, cand, opts) {
            return Ok(CandidateEval::Pruned);
        }
        let (l, r) = group_compile(sub, cand, opts, acc)?;
        return Ok(CandidateEval::Estimated(l, r));
    };

    // Memoized path: dependence analysis and estimation happen at most
    // once per *canonical* scheduled sub-function — structurally identical
    // candidates (repeated DNN layers, symmetric nests) share entries.
    let key = slice.key(cand);
    let mut prepared: Option<PreparedGroup> = None;
    let cand_infeasible = cache.memo_infeasible(key, || {
        prepared
            .get_or_insert_with(|| prepare_candidate(slice, cand, cache, opts, acc))
            .infeasible()
    });
    if !cur_infeasible && cand_infeasible {
        return Ok(CandidateEval::Pruned);
    }
    let (l, r) = cache.memo_group_qor(key, || {
        prepared
            .take()
            .unwrap_or_else(|| prepare_candidate(slice, cand, cache, opts, acc))
            .estimate(opts, acc)
    })?;
    Ok(CandidateEval::Estimated(l, r))
}

/// POM001 verdict of a group's *current* configuration — the context of
/// the relative lint prescreen, memoized when a cache is active.
pub(crate) fn group_infeasible(
    slice: &GroupSlice,
    g: &GroupConfig,
    opts: &CompileOptions,
    cache: Option<&DseCache>,
    acc: &PhaseAccum,
) -> bool {
    match cache {
        Some(c) => c.memo_infeasible(slice.key(g), || {
            prepare_candidate(slice, g, c, opts, acc).infeasible()
        }),
        None => pipeline_infeasible(slice.sub().function(), g, opts),
    }
}

/// Per-group `(latency, resources)` of a configuration not reached by
/// escalation (initial groups, beam seeds, walk-back steps), through the
/// cache when one is active — greedy and beam share the memoized entries,
/// and a miss uses the group's dependence-summary template like any
/// candidate.
pub(crate) fn group_qor(
    slice: &GroupSlice,
    g: &GroupConfig,
    opts: &CompileOptions,
    cache: Option<&DseCache>,
    acc: &PhaseAccum,
) -> Result<(u64, pom_hls::ResourceUsage), CompileError> {
    match cache {
        Some(c) => c.memo_group_qor(slice.key(g), || {
            prepare_candidate(slice, g, c, opts, acc).estimate(opts, acc)
        }),
        None => group_compile(slice.sub().function(), g, opts, acc),
    }
}

/// A group's scheduled sub-function with its transformed statements and
/// dependence summary — the shared intermediates of the feasibility check
/// and the estimate.
struct PreparedGroup {
    scheduled: Function,
    stmts: Vec<StmtPoly>,
    deps: pom_hls::DepSummary,
}

/// Builds configuration `g` of `slice`'s group: records its primitives on
/// the slice's sub-function, extends the slice's statements by a replay of
/// those primitives only, and takes the dependence summary from
/// `template` when one is given — the polyhedral dependence analysis is
/// the dominant cost of a candidate evaluation.
fn prepare(
    slice: &GroupSlice,
    g: &GroupConfig,
    template: Option<Arc<pom_hls::DepSummary>>,
    opts: &CompileOptions,
    acc: &PhaseAccum,
) -> PreparedGroup {
    acc.time_lowering(|| {
        let scheduled = slice.sub().schedule(std::slice::from_ref(g));
        let stmts = slice.sub().stmts_of(&scheduled);
        let deps = match template {
            Some(deps) => (*deps).clone(),
            None => build_dep_summary(&scheduled, &stmts, &opts.model),
        };
        PreparedGroup {
            scheduled,
            stmts,
            deps,
        }
    })
}

/// [`prepare`] under the group's dependence-summary template, when the
/// candidate may use one.
fn prepare_candidate(
    slice: &GroupSlice,
    cand: &GroupConfig,
    cache: &DseCache,
    opts: &CompileOptions,
    acc: &PhaseAccum,
) -> PreparedGroup {
    let template = dep_template(slice, cand, cache, opts, acc);
    prepare(slice, cand, template, opts, acc)
}

/// True when `g` tiles a level [`plan_groups`] did not prove parallel —
/// such a configuration gets no dependence-summary template.
///
/// [`plan_groups`]: super::ladder::plan_groups
fn tiles_carried_level(g: &GroupConfig) -> bool {
    (0..g.tiles.len()).any(|l| g.tiles[l] > 1 && !g.parallel.contains(&l))
}

/// The memoized dependence-summary *template* of a candidate's group: the
/// summary of the group's untiled scheduled sub-function (a constant of
/// the slice, like its key), reusable for every tiled escalation of that
/// group.
///
/// Soundness: stage 2 only tiles `parallel` levels, which `plan_groups`
/// verified carry no dependence in any member. A carried dependence's
/// level is therefore a non-parallel, never-tiled dim; those dims keep
/// their names, relative order (they precede all tile loops in
/// `schedule_for`'s loop order), and per-dim distance components under
/// any tiling of the parallel dims — so the summary entries `(loop name,
/// distance, chain latency)` are identical across all of the group's
/// candidates. Two guards make this unconditional: a candidate that tiles
/// a non-parallel level gets no template, and a template whose own
/// analysis carries a dependence at *any* parallel dim is rejected
/// (`None`) — both fall back to full per-candidate dependence analysis.
fn dep_template(
    slice: &GroupSlice,
    cand: &GroupConfig,
    cache: &DseCache,
    opts: &CompileOptions,
    acc: &PhaseAccum,
) -> Option<Arc<pom_hls::DepSummary>> {
    if tiles_carried_level(cand) {
        return None;
    }
    let (reference, key) = slice.reference();
    cache.memo_dep_template(key, || {
        acc.time_lowering(|| {
            let stmts = slice.sub().stmts_of(reference);
            let deps = build_dep_summary(reference, &stmts, &opts.model);
            let parallel_carries_dep = deps
                .loops()
                .any(|name| cand.parallel.iter().any(|&l| cand.dims[l] == name));
            (!parallel_carries_dep).then_some(deps)
        })
    })
}

/// [`dep_template`] for the *complete* function under `groups`: the
/// dependence summary of the all-tiles-1 full schedule, reusable by every
/// full-function compile of the search whose groups differ from it only
/// in parallel-level tile factors (the repair walk-back halves tiles, the
/// II retarget touches only pipeline directives — both preserve it). The
/// same soundness argument and guards as [`dep_template`] apply, per
/// group.
pub(crate) fn full_dep_template(
    base: &SearchBase,
    groups: &[GroupConfig],
    cache: &DseCache,
    opts: &CompileOptions,
    acc: &PhaseAccum,
) -> Option<Arc<pom_hls::DepSummary>> {
    if groups.iter().any(tiles_carried_level) {
        return None;
    }
    let (reference, key) = base.reference();
    acc.time_lowering(|| {
        cache.memo_dep_template(key, || {
            let stmts = base.full().stmts_of(reference);
            let deps = build_dep_summary(reference, &stmts, &opts.model);
            let parallel_carries_dep = deps.loops().any(|name| {
                groups
                    .iter()
                    .any(|g| g.parallel.iter().any(|&l| g.dims[l] == name))
            });
            // Runtime guard on template reuse: the reference schedule the
            // template is derived from must itself carry a passing
            // certificate chain — a rejected rewrite would make every reuse
            // of its dependence summary unsound. Memoized with the template.
            (!parallel_carries_dep && pom_verify::validate(reference).passed()).then_some(deps)
        })
    })
}

/// Compiles a full schedule recorded on `base` — through the cache when
/// one is active, where a miss extends the base's statements instead of
/// replaying the stage-1 prefix again. `deps`, when given, stands in for
/// the dependence analysis (see [`full_dep_template`]).
pub(crate) fn full_compile(
    base: &SearchBase,
    scheduled: &Function,
    deps: Option<&pom_hls::DepSummary>,
    opts: &CompileOptions,
    cache: Option<&DseCache>,
    acc: &PhaseAccum,
) -> Result<Arc<Compiled>, CompileError> {
    match cache {
        Some(c) => c.compile_full(scheduled, opts, acc, || {
            let stmts = base.full().stmts_of(scheduled);
            let deps = match deps {
                Some(d) => d.clone(),
                None => build_dep_summary(scheduled, &stmts, &opts.model),
            };
            (stmts, deps)
        }),
        None => {
            let (c, times) = compile_timed(scheduled, opts)?;
            acc.add(&times);
            Ok(Arc::new(c))
        }
    }
}

/// Aligns `scheduled`'s declared pipeline IIs with the issue IIs
/// (`achieved_ii - port_slide`) of its compile `compiled`: the estimator
/// reports the achieved II regardless of the declared one, but the
/// emitted pragmas (and POM001) should not promise II targets the
/// dependences forbid. Returns the recompile when any loop moved, else
/// `None`; a genuine retarget changes the schedule's fingerprint, so this
/// compiles at most once, and a warm cache answers it. The one retarget
/// of a finished design: `auto_dse_with`'s winner and every state the
/// portfolio measures take it, so the portfolio measures exactly what
/// the search returns.
///
/// # Errors
///
/// The recompile's [`CompileError`].
pub(crate) fn retarget_iis(
    base: &SearchBase,
    scheduled: &mut Function,
    compiled: &Compiled,
    template: Option<&pom_hls::DepSummary>,
    opts: &CompileOptions,
    cache: Option<&DseCache>,
    acc: &PhaseAccum,
) -> Result<Option<Arc<Compiled>>, CompileError> {
    let mut retargeted = false;
    for l in &compiled.qor.loops {
        let issue_ii = l.achieved_ii.saturating_sub(l.port_slide);
        retargeted |= scheduled.retarget_pipeline_ii(&l.stmts, &l.iv, issue_ii as i64);
    }
    if !retargeted {
        return Ok(None);
    }
    full_compile(base, scheduled, template, opts, cache, acc).map(Some)
}

impl PreparedGroup {
    /// POM001 verdict on the already-analyzed schedule.
    fn infeasible(&self) -> bool {
        schedule_carries_infeasible_ii(&self.scheduled, &self.deps)
    }

    /// Lowers + estimates, reusing the prepared statements and deps.
    fn estimate(
        self,
        opts: &CompileOptions,
        acc: &PhaseAccum,
    ) -> Result<(u64, pom_hls::ResourceUsage), CompileError> {
        let (c, times) =
            crate::compile::compile_prepared(&self.scheduled, self.stmts, self.deps, opts)?;
        acc.add(&times);
        Ok((c.qor.latency, c.qor.resources))
    }
}

/// Where the greedy descent stops, before the resource walk-back.
#[derive(Clone, Debug)]
pub struct Descent {
    /// The final per-group configurations.
    pub groups: Vec<GroupConfig>,
    /// Each group's `(latency, resources)` under its configuration.
    pub qor: Vec<(u64, pom_hls::ResourceUsage)>,
    /// The search counters so far.
    pub stats: DseStats,
}

/// The greedy descent, shared by the cached/uncached and serial/parallel
/// modes: escalate the bottleneck group on the critical path while the
/// composed design fits, until every group has left the optimization
/// list.
///
/// # Errors
///
/// Returns the first [`CompileError`] hit while estimating a candidate,
/// or a rejected certificate of a sampled candidate.
pub fn descend(
    base: &SearchBase,
    opts: &CompileOptions,
    cfg: &DseConfig,
    cache: Option<&DseCache>,
    acc: &PhaseAccum,
) -> Result<Descent, CompileError> {
    let mut dse_stats = DseStats::default();
    let mut groups = base.groups().to_vec();

    // Initial per-group stats: the one batch of the greedy descent with
    // real width (one job per group), and the one kept on the pool — see
    // DESIGN.md §8, "Greedy steps are serial", for why it stays for now.
    let initial = run_indexed(groups.len(), cfg.effective_workers(), |i| {
        group_qor(base.slice(i), &groups[i], opts, cache, acc)
    });
    let mut stats: Vec<(u64, pom_hls::ResourceUsage)> =
        initial.into_iter().collect::<Result<_, _>>()?;

    // Data paths over groups, from the dependence graph.
    let graph = base.graph();
    let compute_group: HashMap<String, usize> = groups
        .iter()
        .enumerate()
        .flat_map(|(gi, g)| g.members.iter().map(move |m| (m.clone(), gi)))
        .collect();
    let group_paths: Vec<Vec<usize>> = graph
        .data_paths()
        .iter()
        .map(|p| {
            let mut gp: Vec<usize> = p
                .iter()
                .map(|&n| compute_group[&graph.nodes()[n].name])
                .collect();
            gp.dedup();
            gp
        })
        .collect();

    let mut active: BTreeSet<usize> = (0..groups.len()).collect();
    while !active.is_empty() {
        // Critical path by latency; bottleneck = max-latency active group.
        let bottleneck = {
            let critical = group_paths
                .iter()
                .max_by_key(|p| p.iter().map(|&g| stats[g].0).sum::<u64>());
            let on_path = critical.and_then(|p| {
                p.iter()
                    .copied()
                    .filter(|g| active.contains(g))
                    .max_by_key(|&g| stats[g].0)
            });
            match on_path.or_else(|| active.iter().copied().max_by_key(|&g| stats[g].0)) {
                Some(b) => b,
                None => break,
            }
        };

        let cands = groups[bottleneck].escalation_candidates_preferred(cfg);
        if cands.is_empty() {
            active.remove(&bottleneck);
            continue;
        }

        // Context for the relative lint prescreen: a candidate is pruned
        // only when it *introduces* a violation the current configuration
        // does not have.
        let slice = base.slice(bottleneck);
        let cur_infeasible = group_infeasible(slice, &groups[bottleneck], opts, cache, acc);

        // Evaluate every single-step escalation of the bottleneck, one
        // after the other: a step offers at most three candidates (1.8 on
        // average), too few to repay a batch of fresh threads — see
        // DESIGN.md §8, "Greedy steps are serial".
        let cur = &groups[bottleneck];
        let evals = cands
            .iter()
            .map(|cand| eval_candidate(slice, cur, cand, cur_infeasible, opts, cache, acc));

        // Best candidate by (fits, latency), ties broken by index.
        let mut best: Option<(u64, pom_hls::ResourceUsage, usize)> = None;
        for (i, ev) in evals.enumerate() {
            match ev? {
                CandidateEval::Pruned => dse_stats.lint_pruned += 1,
                CandidateEval::Estimated(l2, r2) => {
                    dse_stats.estimated += 1;
                    // Sampled translation validation: every n-th estimated
                    // candidate has its full certificate chain checked.
                    // Deterministic (counter-based), so serial and parallel
                    // searches sample the same candidates.
                    if cfg.validate_sample_every > 0
                        && dse_stats.estimated % cfg.validate_sample_every == 0
                    {
                        // A candidate only reschedules the bottleneck
                        // group, so validating the group's sub-function
                        // covers every rewrite the candidate introduces
                        // without replaying the untouched groups.
                        let report = pom_verify::validate(
                            &slice.sub().schedule(std::slice::from_ref(&cands[i])),
                        );
                        dse_stats.certificates_sampled += report.checked();
                        dse_stats.certificates_checked += report.checked();
                        dse_stats.certificates_passed += report.checked() - report.rejected().len();
                        if !report.passed() {
                            return Err(CompileError::Rejected(report.render()));
                        }
                    }
                    let mut cand_stats = stats.clone();
                    cand_stats[bottleneck] = (l2, r2);
                    if composed_resources(&cand_stats, opts).fits_logic(&opts.device)
                        && l2 <= stats[bottleneck].0
                        && best.as_ref().map(|&(bl, _, _)| l2 < bl).unwrap_or(true)
                    {
                        best = Some((l2, r2, i));
                    }
                }
            }
        }
        match best {
            Some((l2, r2, i)) => {
                groups[bottleneck] = cands[i].clone();
                stats[bottleneck] = (l2, r2);
            }
            None => {
                active.remove(&bottleneck);
            }
        }
    }

    Ok(Descent {
        groups,
        qor: stats,
        stats: dse_stats,
    })
}

/// The search loop proper: the greedy [`descend`], then the shared
/// finalization. `cache`, when present, is shared with the caller so
/// `auto_dse_with` can reuse the walk-back's final compile.
pub(crate) fn bottleneck_optimize_impl(
    base: &SearchBase,
    opts: &CompileOptions,
    cfg: &DseConfig,
    cache: Option<&DseCache>,
    acc: &PhaseAccum,
) -> Result<Stage2Result, CompileError> {
    let t_stage2 = Instant::now();
    let Descent {
        mut groups,
        qor,
        stats: mut dse_stats,
    } = descend(base, opts, cfg, cache, acc)?;
    let function = repair_and_finalize(base, &mut groups, &qor, opts, cache, acc, &mut dse_stats)?;
    dse_stats.stage2_time = t_stage2.elapsed();
    Ok(Stage2Result {
        function,
        groups,
        stats: dse_stats,
        anytime: Vec::new(),
    })
}

/// The shared tail of every stage-2 search: the resource walk-back, bank
/// repair, and the final schedule build. Factored out so the beam winner
/// is repaired, repartitioned, and materialized by exactly the code the
/// greedy descent uses — a mode switch can never change how a winner
/// becomes a function. `qor` is each group's `(latency, resources)`
/// under `groups`, as the search holds it.
pub(crate) fn repair_and_finalize(
    base: &SearchBase,
    groups: &mut [GroupConfig],
    qor: &[(u64, pom_hls::ResourceUsage)],
    opts: &CompileOptions,
    cache: Option<&DseCache>,
    acc: &PhaseAccum,
    dse_stats: &mut DseStats,
) -> Result<Function, CompileError> {
    // The walk-back's final compile stays in the cache, so `auto_dse_with`
    // reuses it instead of recompiling the same schedule.
    let (mut function, fitting) = walk_back(base, groups, qor, opts, cache, acc)?;
    // Bank repair: where pom-bank proves the final design's pipelined
    // accesses overload a bank's ports, raise the offending arrays'
    // partition factors to the minimal conflict-free values. The
    // override is appended to the schedule, so it supersedes the
    // tile-derived partitioning on lowering (last directive wins). The
    // design analysed is the lowering the loop above just compiled.
    let func = &fitting.affine;
    let mut bank_overrides: Vec<(String, Vec<i64>)> = Vec::new();
    let ports = opts.model.ports_per_bank.max(1);
    let mut seen: BTreeSet<String> = BTreeSet::new();
    for rep in pom_bank::analyze_func(func) {
        // Any exact over-demand is worth repairing: the port
        // calendars slide the issue past the *declared* II on
        // every iteration, so no II choice absorbs a conflict —
        // only repartitioning removes it.
        if !rep.analysis.exact || rep.analysis.conflict_free(ports) {
            continue;
        }
        for p in rep
            .analysis
            .profiles
            .iter()
            .filter(|p| p.exact && p.max_demand > ports)
        {
            if !seen.insert(p.array.clone()) {
                continue;
            }
            if let Some(factors) = pom_bank::minimal_conflict_free_factors(func, &p.array, ports) {
                bank_overrides.push((p.array.clone(), factors));
            }
        }
    }
    dse_stats.bank_repaired = bank_overrides.len();
    for (array, factors) in &bank_overrides {
        function.partition(array, factors, PartitionStyle::Cyclic);
    }
    Ok(function)
}

/// The resource walk-back: while the full design's logic exceeds the
/// device, [`step_back`]. Steps on the [`ComposedLogic`] of `qor` (each
/// group's `(latency, resources)` under `groups`), updating only the
/// victim's entry — a memo hit or one sub-function compile per step —
/// and pays one full compile, at the first step whose composition fits
/// or when nothing is left to shrink. Guard: when that compile's logic
/// differs from the composition, the walk restarts from the given
/// `groups` with one full compile per step. Returns the final full
/// schedule and its compile; `groups` is left at the final configuration.
///
/// # Errors
///
/// Returns the first [`CompileError`] of a group or full compile.
pub fn walk_back(
    base: &SearchBase,
    groups: &mut [GroupConfig],
    qor: &[(u64, pom_hls::ResourceUsage)],
    opts: &CompileOptions,
    cache: Option<&DseCache>,
    acc: &PhaseAccum,
) -> Result<(Function, Arc<Compiled>), CompileError> {
    // Halving parallel-level tiles preserves the full dependence template.
    let template = cache.and_then(|c| full_dep_template(base, groups, c, opts, acc));
    let template = template.as_deref();
    let start = groups.to_vec();
    let mut logic = ComposedLogic::new(base, groups, qor);
    loop {
        let scheduled = acc.time_lowering(|| base.full().schedule(groups));
        let composed = logic.of(&scheduled, opts.sharing);
        if !composed.fits_logic(&opts.device) {
            if let Some(v) = step_back(groups) {
                let (_, r) = group_qor(base.slice(v), &groups[v], opts, cache, acc)?;
                logic.set(v, &groups[v], &r);
                continue;
            }
        }
        let full = full_compile(base, &scheduled, template, opts, cache, acc)?;
        if same_logic(&full.qor.resources, &composed) {
            return Ok((scheduled, full));
        }
        break;
    }
    // The composition missed a term: walk again, compiling every step.
    groups.clone_from_slice(&start);
    loop {
        let scheduled = acc.time_lowering(|| base.full().schedule(groups));
        let full = full_compile(base, &scheduled, template, opts, cache, acc)?;
        if full.qor.resources.fits_logic(&opts.device) || step_back(groups).is_none() {
            return Ok((scheduled, full));
        }
    }
}

/// One walk-back step: halves the widest tile (the last on ties) of the
/// most parallel group (the last on ties) and returns that group's index,
/// or `None` when every group is at parallelism 1.
pub fn step_back(groups: &mut [GroupConfig]) -> Option<usize> {
    let victim = groups
        .iter()
        .enumerate()
        .filter(|(_, g)| g.parallelism() > 1)
        .max_by_key(|(_, g)| g.parallelism())
        .map(|(i, _)| i)?;
    let g = &mut groups[victim];
    let widest = (0..g.tiles.len()).max_by_key(|&l| g.tiles[l])?;
    g.tiles[widest] = (g.tiles[widest] / 2).max(1);
    Some(victim)
}

/// DSP, FF and LUT agree — what
/// [`pom_hls::ResourceUsage::fits_logic`] reads.
fn same_logic(a: &pom_hls::ResourceUsage, b: &pom_hls::ResourceUsage) -> bool {
    (a.dsp, a.ff, a.lut) == (b.dsp, b.ff, b.lut)
}

/// A full design's DSP/FF/LUT composed from per-group QoR, without
/// lowering the full function. [`pom_hls::estimate()`] builds a design's
/// logic as the [`Sharing`] composition of its top-level nests — whose
/// resources depend only on operator counts, unroll factors and loop
/// control — plus one [`pom_hls::bank_mux`] per partitioned array. So a
/// group's QoR less the muxing of its own sub-schedule is its nests'
/// share, and the full design's logic is the composition of those shares
/// plus the muxing of the full schedule (DESIGN.md §8, "The walk-back
/// composes").
#[derive(Debug)]
pub struct ComposedLogic<'a> {
    base: &'a SearchBase,
    nests: Vec<pom_hls::ResourceUsage>,
}

impl<'a> ComposedLogic<'a> {
    /// The composition of `groups`, with `qor` each group's `(latency,
    /// resources)`.
    pub fn new(
        base: &'a SearchBase,
        groups: &[GroupConfig],
        qor: &[(u64, pom_hls::ResourceUsage)],
    ) -> Self {
        let mut logic = ComposedLogic {
            base,
            nests: vec![pom_hls::ResourceUsage::zero(); groups.len()],
        };
        for (gi, (g, (_, r))) in groups.iter().zip(qor).enumerate() {
            logic.set(gi, g, r);
        }
        logic
    }

    /// Sets group `gi` to configuration `g`, whose QoR has resources `r`.
    pub fn set(&mut self, gi: usize, g: &GroupConfig, r: &pom_hls::ResourceUsage) {
        let sub = self.base.slice(gi).sub().schedule(std::slice::from_ref(g));
        let mux = partition_mux(&sub);
        self.nests[gi] = pom_hls::ResourceUsage {
            dsp: r.dsp.saturating_sub(mux.dsp),
            ff: r.ff.saturating_sub(mux.ff),
            lut: r.lut.saturating_sub(mux.lut),
            bram18k: 0,
        };
    }

    /// The logic of `scheduled`, the full schedule of the held
    /// configurations, under `sharing` (BRAM is not composed).
    pub fn of(&self, scheduled: &Function, sharing: Sharing) -> pom_hls::ResourceUsage {
        self.nests
            .iter()
            .fold(pom_hls::ResourceUsage::zero(), |total, r| {
                sharing.compose(&total, r)
            })
            .plus(&partition_mux(scheduled))
    }
}

/// The bank muxing [`pom_hls::estimate()`] charges `f`'s lowering: one
/// [`pom_hls::bank_mux`] per array, by the banks of its last `partition`
/// directive (the one lowering keeps).
fn partition_mux(f: &Function) -> pom_hls::ResourceUsage {
    let mut banks: HashMap<&str, u64> = HashMap::new();
    for p in f.schedule() {
        if let Primitive::Partition { array, factors, .. } = p {
            banks.insert(array, factors.iter().product::<i64>().max(1) as u64);
        }
    }
    banks
        .values()
        .fold(pom_hls::ResourceUsage::zero(), |total, &b| {
            total.plus(&pom_hls::bank_mux(b))
        })
}

/// True when replacing a group's current configuration `cur` with `cand`
/// would introduce a lint Error the current configuration does not have
/// (POM001: the candidate's pipelined loop carries a dependence its
/// declared II cannot honour). Runs on the *schedule* alone — no lowering
/// or estimation. Shared with the baseline strategies: legality screening
/// is part of the substrate, not of any one search.
pub(crate) fn lint_screen(
    stage1_fn: &Function,
    cur: &GroupConfig,
    cand: &GroupConfig,
    opts: &CompileOptions,
) -> bool {
    !pipeline_infeasible(stage1_fn, cur, opts) && pipeline_infeasible(stage1_fn, cand, opts)
}

/// True when `scheduled` declares a pipeline II below the recurrence MII
/// of a dependence carried at the pipelined loop, per `deps`.
fn schedule_carries_infeasible_ii(scheduled: &Function, deps: &pom_hls::DepSummary) -> bool {
    scheduled.schedule().iter().any(|p| {
        if let Primitive::Pipeline { loop_iv, ii, .. } = p {
            deps.carried_at(loop_iv)
                .is_some_and(|d| d.rec_mii(0) > (*ii).max(1) as u64)
        } else {
            false
        }
    })
}

/// True when the group's schedule declares a pipeline II below the
/// recurrence MII of a dependence carried at the pipelined loop.
fn pipeline_infeasible(base: &Function, group: &GroupConfig, opts: &CompileOptions) -> bool {
    let members: Vec<&str> = group.members.iter().map(String::as_str).collect();
    let sub = sub_function(base, &members);
    let scheduled = schedule_for(&sub, std::slice::from_ref(group));
    let stmts = apply_schedule(&scheduled);
    let deps = build_dep_summary(&scheduled, &stmts, &opts.model);
    schedule_carries_infeasible_ii(&scheduled, &deps)
}

/// Compiles one group as a sub-function of `base` with its configuration
/// applied, adding the phase times to `acc`; returns its `(latency,
/// resources)`.
///
/// # Errors
///
/// Returns the [`CompileError`] of the group's schedule.
pub fn group_compile(
    base: &Function,
    group: &GroupConfig,
    opts: &CompileOptions,
    acc: &PhaseAccum,
) -> Result<(u64, pom_hls::ResourceUsage), CompileError> {
    let members: Vec<&str> = group.members.iter().map(String::as_str).collect();
    let sub = sub_function(base, &members);
    let scheduled = schedule_for(&sub, std::slice::from_ref(group));
    let (c, times) = compile_timed(&scheduled, opts)?;
    acc.add(&times);
    Ok((c.qor.latency, c.qor.resources))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile, lower};
    use crate::search::ladder::plan_groups;
    use crate::stage1::dependence_aware_transform;
    use pom_dsl::DataType;

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
    fn plan_groups_identifies_parallel_levels() {
        let f = gemm(64);
        let groups = plan_groups(&f);
        assert_eq!(groups.len(), 1);
        let g = &groups[0];
        assert_eq!(g.dims, vec!["k", "i", "j"]);
        assert_eq!(g.parallel, vec![1, 2], "i and j are parallel, k carried");
        assert_eq!(g.extents, vec![64, 64, 64]);
    }

    #[test]
    fn escalation_ladder_prefers_innermost() {
        let mut g = GroupConfig {
            members: vec!["s".into()],
            dims: vec!["k".into(), "i".into(), "j".into()],
            parallel: vec![1, 2],
            extents: vec![64, 64, 64],
            tiles: vec![1, 1, 1],
        };
        let cfg = DseConfig::default();
        for _ in 0..4 {
            g = g.escalation_candidates_preferred(&cfg).remove(0);
        }
        assert_eq!(g.tiles, vec![1, 1, 16], "j first, up to 16");
        g = g.escalation_candidates_preferred(&cfg).remove(0);
        assert_eq!(g.tiles, vec![1, 2, 16], "then i");
    }

    #[test]
    fn schedule_for_emits_expected_primitives() {
        let f = gemm(64);
        let mut groups = plan_groups(&f);
        groups[0].tiles = vec![1, 2, 16];
        let g = schedule_for(&f, &groups);
        let s: Vec<String> = g.schedule().iter().map(|p| p.to_string()).collect();
        let text = s.join("\n");
        assert!(text.contains("s.split(i, 2, i_g0o, i_g0u)"), "{text}");
        assert!(text.contains("s.split(j, 16, j_g0o, j_g0u)"), "{text}");
        assert!(text.contains("s.pipeline(j_g0o, 1)"), "{text}");
        assert!(text.contains("s.unroll(j_g0u, 16)"), "{text}");
        // A[i][j] partitioned (2, 16); B[i][k] partitioned (2, 1);
        // C[k][j] partitioned (1, 16).
        assert!(text.contains("A.partition({2, 16}"), "{text}");
        assert!(text.contains("B.partition({2, 1}"), "{text}");
        assert!(text.contains("C.partition({1, 16}"), "{text}");
    }

    #[test]
    fn gemm_dse_reaches_paper_like_design() {
        // At N = 64 the DSP budget (220) caps the escalation at 32 copies
        // (32 x 5 DSP = 160), like the paper's [1, 2, 16] with
        // parallelism 32.
        let f = gemm(64);
        let stage1 = dependence_aware_transform(&f, 8);
        let opts = CompileOptions::default();
        let r = bottleneck_optimize(&stage1, &opts);
        let (optimized, groups) = (r.function, r.groups);
        let para: i64 = groups[0].parallelism();
        assert_eq!(para, 32, "tiles {:?}", groups[0].tiles);
        let q = compile(&optimized, &opts).expect("compiles").qor;
        assert!(q.resources.dsp <= 220);
        assert!(q.resources.dsp >= 120, "got {}", q.resources.dsp);
        // Pipelined loop achieves a small II.
        assert!(!q.loops.is_empty());
        assert!(
            q.loops[0].achieved_ii <= 2,
            "II = {}",
            q.loops[0].achieved_ii
        );
        // And it crushes the baseline.
        let base = compile(&f, &opts).expect("compiles").qor;
        assert!(
            q.speedup_over(&base) > 50.0,
            "speedup {}",
            q.speedup_over(&base)
        );
    }

    #[test]
    fn dse_respects_tighter_resource_constraints() {
        let f = gemm(64);
        let stage1 = dependence_aware_transform(&f, 8);
        let mut opts = CompileOptions::default();
        opts.device = opts.device.scaled_to(50); // 110 DSPs
        let r = bottleneck_optimize(&stage1, &opts);
        let (optimized, groups) = (r.function, r.groups);
        let q = compile(&optimized, &opts).expect("compiles").qor;
        assert!(q.resources.dsp <= 110);
        assert!(groups[0].parallelism() <= 16);
    }

    /// Lowers a scheduled function and asks pom-bank whether any
    /// pipelined loop's declared II is provably infeasible (POM006).
    fn has_bank_conflict(f: &Function, opts: &CompileOptions) -> bool {
        let stmts = apply_schedule(f);
        let func = lower(f, &stmts).expect("lowers");
        let ports = opts.model.ports_per_bank.max(1);
        pom_bank::analyze_func(&func).iter().any(|r| {
            r.analysis
                .min_feasible_ii(ports)
                .is_some_and(|m| m > r.declared_ii)
        })
    }

    #[test]
    fn bank_defaults_leave_a_conflict_free_search_untouched() {
        let f = gemm(32);
        let stage1 = dependence_aware_transform(&f, 8);
        let opts = CompileOptions::default();
        let r = bottleneck_optimize(&stage1, &opts);
        assert_eq!(r.stats.bank_repaired, 0);
    }

    #[test]
    fn bank_repair_raises_partitioning_to_conflict_freedom() {
        // An unescalated stencil: b[i] = a[i] + a[i+1] + a[i+2] pipelined
        // at II = 1 with no partitioning — 3 same-cycle reads of one
        // 2-port bank, a provable POM006 conflict. `max_parallelism: 1`
        // pins the search there; repair must partition `a` cyclically by
        // the minimal conflict-free factor (2: the window then spans two
        // banks, max 2 accesses each).
        let n = 64usize;
        let mut f = Function::new("sten");
        let i = f.var("i", 0, n as i64 - 2);
        let a = f.placeholder("a", &[n], DataType::F32);
        let b = f.placeholder("b", &[n], DataType::F32);
        f.compute(
            "s",
            std::slice::from_ref(&i),
            a.at(&[i.expr()]) + a.at(&[i.expr() + 1]) + a.at(&[i.expr() + 2]),
            b.access(&[&i]),
        );
        let opts = CompileOptions::default();
        let cfg = DseConfig {
            max_parallelism: 1,
            ..DseConfig::default()
        };
        let r = try_bottleneck_optimize(&f, &opts, &cfg).expect("compiles");
        assert_eq!(r.stats.bank_repaired, 1, "stats {:?}", r.stats);
        let text: Vec<String> = r
            .function
            .schedule()
            .iter()
            .map(|p| p.to_string())
            .collect();
        assert!(
            text.iter().any(|p| p.contains("a.partition({2}")),
            "{text:?}"
        );
        assert!(!has_bank_conflict(&r.function, &opts));
    }

    #[test]
    fn multi_nest_balanced_optimization() {
        // Two chained GEMM-like nests (2MM shape): the bottleneck switcher
        // must optimize both, not spend everything on the first.
        let n = 32usize;
        let mut f = Function::new("twomm");
        let k = f.var("k", 0, n as i64);
        let i = f.var("i", 0, n as i64);
        let j = f.var("j", 0, n as i64);
        let a = f.placeholder("A", &[n, n], DataType::F32);
        let b = f.placeholder("B", &[n, n], DataType::F32);
        let tmp = f.placeholder("tmp", &[n, n], DataType::F32);
        let d = f.placeholder("D", &[n, n], DataType::F32);
        f.compute(
            "mm1",
            &[k.clone(), i.clone(), j.clone()],
            tmp.at(&[&i, &j]) + a.at(&[&i, &k]) * b.at(&[&k, &j]),
            tmp.access(&[&i, &j]),
        );
        f.compute(
            "mm2",
            &[k.clone(), i.clone(), j.clone()],
            d.at(&[&i, &j]) + tmp.at(&[&i, &k]) * b.at(&[&k, &j]),
            d.access(&[&i, &j]),
        );
        let stage1 = dependence_aware_transform(&f, 8);
        let opts = CompileOptions::default();
        let groups = bottleneck_optimize(&stage1, &opts).groups;
        assert_eq!(groups.len(), 2);
        assert!(
            groups[0].parallelism() >= 8 && groups[1].parallelism() >= 8,
            "both nests optimized: {:?} / {:?}",
            groups[0].tiles,
            groups[1].tiles
        );
    }
}
