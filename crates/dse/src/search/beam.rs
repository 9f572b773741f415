//! Anytime parallel beam search with sim-in-the-loop pruning.
//!
//! The greedy descent of [`super::stage2`] follows a single trajectory:
//! escalate the bottleneck group's preferred step, accept on estimated
//! improvement. Its blind spot is exactly where the analytical estimator
//! is coarse — two tile shapes with equal parallelism and near-equal
//! estimates can differ measurably in drain and port behavior, and the
//! greedy ladder commits to one shape without ever measuring the other.
//!
//! The beam search explores the same [`GroupConfig`] space wave by wave:
//! every frontier state expands all single-step escalations of all its
//! groups, candidates are evaluated through the shared memoized compile
//! cache on the scoped worker pool, and the top `BEAM_WIDTH` survivors
//! (by estimated total latency) form the next frontier. Survivors whose
//! estimate lands within the sim-admission band of the best estimate
//! seen are *measured*: their full schedule is compiled (cached) and run
//! through `pom-sim` over a reusable interpreter arena. The incumbent —
//! the measured state with the fewest simulated cycles whose full design
//! fits the device — is the search's answer, and it only ever improves,
//! which makes the search **anytime**: when [`DseConfig::budget_ms`]
//! expires the incumbent-so-far is finalized and returned (with
//! [`DseStats::budget_expired`] set) through the exact repair/validation
//! tail the greedy winner takes.
//!
//! **Portfolio mode** seeds the first frontier from diverse basins: the
//! greedy winner itself, the untiled locality schedule (the pluto-like
//! basin), a polsca-like innermost-strip seed, and the balanced tile
//! ladder a ScaleHLS-style dependence-unaware DSE walks. The greedy
//! winner bypasses the admission band — it is always measured — so the
//! portfolio result is never worse than greedy under the simulator's
//! metric, and strictly better whenever any explored shape measures
//! faster.
//!
//! Determinism: candidate jobs are indexed, [`run_indexed`] returns
//! results in index order, ranking sorts are stable with index
//! tie-breaks, and simulation runs in frontier order — so searches are
//! byte-identical across worker counts. A budgeted run truncates that
//! deterministic trajectory at a wall-clock point and is therefore only
//! as reproducible as the clock; the determinism guarantee applies to
//! `budget_ms: None`.

use super::config::{DseConfig, SearchMode};
use super::ladder::{GroupConfig, SearchBase};
use super::stage2::{
    bottleneck_optimize_impl, composed_resources, eval_candidate, full_compile, full_dep_template,
    group_infeasible, group_qor, repair_and_finalize, run_indexed, CandidateEval, Stage2Result,
};
use super::stats::DseStats;
use crate::cache::{fingerprint, stable_hash, DseCache, PhaseAccum};
use crate::compile::{CompileError, CompileOptions, Compiled};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The deterministic simulation seed of every in-search measurement.
const SIM_SEED: u64 = 0x5EED;

/// Frontier width: each expansion wave keeps this many states, ranked by
/// the analytical estimate.
const BEAM_WIDTH: usize = 4;

/// Sim-admission band, in percent: a frontier survivor is simulated only
/// when its analytical estimate is within this fraction above the best
/// estimate seen so far (`est <= best * (100 + pct) / 100`). Bounds
/// full-schedule simulation cost to the states that could plausibly win;
/// survivors outside the band are counted in [`DseStats::sim_pruned`] and
/// keep their estimate ranking.
const SIM_ADMIT_PCT: u128 = 15;

/// One point of a beam search's anytime incumbent trajectory: recorded
/// each time a measured state strictly improves on the incumbent, so
/// `sim_cycles` is strictly decreasing across a run's points.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AnytimePoint {
    /// Wall-clock offset from stage-2 search start.
    pub elapsed: Duration,
    /// The new incumbent's simulated cycles.
    pub sim_cycles: u64,
    /// The new incumbent's analytical estimate (sum of group latencies).
    pub est_latency: u64,
}

/// One frontier state: a full per-group configuration with its memoized
/// per-group QoR and estimated total latency (sequential composition,
/// matching the greedy search's critical-path arithmetic). Only states
/// whose composed resources fit the device enter a frontier.
#[derive(Clone)]
struct BeamState {
    groups: Vec<GroupConfig>,
    qor: Vec<(u64, pom_hls::ResourceUsage)>,
    est: u64,
}

/// The best *measured* state so far: fewest simulated cycles among
/// states whose full compiled design fits the device.
struct Incumbent {
    state: BeamState,
    cycles: u64,
    /// Fingerprint of the winning full schedule — its report's key.
    key: u64,
}

/// Everything the sim-admission pass mutates, bundled so the per-wave
/// call borrows one context instead of a parameter list.
struct SimLoop {
    arena: pom_sim::SimArena,
    reports: HashMap<u64, pom_sim::SimReport>,
    /// States already offered to simulation (measured or band-pruned) —
    /// admission is per state, not per wave, since a state can survive
    /// several waves.
    simmed: HashSet<u64>,
    incumbent: Option<Incumbent>,
    best_est: u64,
    /// Hash of the state that bypasses the admission band (the greedy
    /// winner under portfolio seeding).
    force: Option<u64>,
}

/// The beam/portfolio search loop. Mirrors
/// [`bottleneck_optimize_impl`]'s contract: same inputs, same
/// [`Stage2Result`], same finalization (resource walk-back, bank
/// repair) — so the downstream II retarget and winner validation in
/// `auto_dse_with` run identically on the beam winner.
pub(crate) fn beam_optimize_impl(
    search_base: &SearchBase,
    opts: &CompileOptions,
    cfg: &DseConfig,
    cache: Option<&DseCache>,
    acc: &PhaseAccum,
) -> Result<Stage2Result, CompileError> {
    let t0 = Instant::now();
    let deadline = cfg
        .budget_ms
        .map(|ms| t0 + Duration::from_millis(ms.max(1)));
    let expired = move || deadline.is_some_and(|d| Instant::now() >= d);
    let workers = cfg.effective_workers();
    let mut stats = DseStats::default();
    let mut anytime: Vec<AnytimePoint> = Vec::new();
    let fits = |qor: &[(u64, pom_hls::ResourceUsage)]| {
        composed_resources(qor, opts).fits_logic(&opts.device)
    };

    // --- Seeds -----------------------------------------------------------
    let base = search_base.groups().to_vec();
    let mut seed_groups: Vec<Vec<GroupConfig>> = vec![base.clone()];
    let mut force: Option<u64> = None;
    if cfg.search == SearchMode::Portfolio {
        // The greedy winner anchors the portfolio: it bypasses the
        // admission band below, so the portfolio never returns a
        // measurably worse schedule than greedy.
        let greedy = bottleneck_optimize_impl(search_base, opts, cfg, cache, acc)?;
        stats.lint_pruned += greedy.stats.lint_pruned;
        stats.estimated += greedy.stats.estimated;
        stats.parallel_evaluated += greedy.stats.parallel_evaluated;
        stats.certificates_checked += greedy.stats.certificates_checked;
        stats.certificates_passed += greedy.stats.certificates_passed;
        stats.certificates_sampled += greedy.stats.certificates_sampled;
        force = Some(stable_hash(&greedy.groups));
        seed_groups.push(greedy.groups);
        seed_groups.push(polsca_seed(&base, cfg));
        seed_groups.extend(balanced_ladder(&base, cfg));
    }
    let mut visited: HashSet<u64> = HashSet::new();
    seed_groups.retain(|g| visited.insert(stable_hash(g)));

    // Evaluate every (seed, group) pair concurrently through the memoized
    // compile cache; results return in index order.
    let jobs: Vec<(usize, usize)> = seed_groups
        .iter()
        .enumerate()
        .flat_map(|(si, s)| (0..s.len()).map(move |gi| (si, gi)))
        .collect();
    let evals = run_indexed(jobs.len(), workers, |k| {
        let (si, gi) = jobs[k];
        group_qor(
            search_base.slice(gi),
            &seed_groups[si][gi],
            opts,
            cache,
            acc,
        )
    });
    if workers > 1 && jobs.len() > 1 {
        stats.parallel_evaluated += jobs.len();
    }
    let mut qors = evals.into_iter();
    let mut seeds: Vec<BeamState> = Vec::new();
    let mut base_state: Option<BeamState> = None;
    for groups in seed_groups {
        let qor: Vec<(u64, pom_hls::ResourceUsage)> = (0..groups.len())
            .map(|_| qors.next().expect("one QoR per (seed, group) job"))
            .collect::<Result<_, _>>()?;
        let est = qor.iter().map(|q| q.0).sum();
        let state = BeamState { groups, qor, est };
        if base_state.is_none() {
            base_state = Some(state.clone());
        }
        if fits(&state.qor) {
            seeds.push(state);
        }
    }
    let base_state = base_state.expect("base seed always present");
    if seeds.is_empty() {
        // Even the untiled design misses the device; there is nothing to
        // search and the finalize walk-back owns that verdict.
        seeds.push(base_state.clone());
    }
    seeds.sort_by_key(|s| s.est); // stable: seed order breaks ties

    let mut sim = SimLoop {
        arena: pom_sim::SimArena::new(),
        reports: HashMap::new(),
        simmed: HashSet::new(),
        incumbent: None,
        best_est: u64::MAX,
        force,
    };
    // Every fitting seed is offered to simulation *before* the beam
    // truncates to width — the portfolio guarantee must not depend on the
    // greedy seed's estimate rank.
    stats.budget_expired = admit_frontier(
        &seeds,
        search_base,
        opts,
        cache,
        acc,
        &expired,
        t0,
        &mut sim,
        &mut stats,
        &mut anytime,
    )?;
    let mut frontier = seeds;
    frontier.truncate(BEAM_WIDTH);
    stats.beam_width = frontier.len();

    // --- Expansion waves -------------------------------------------------
    while !stats.budget_expired {
        if expired() {
            stats.budget_expired = true;
            break;
        }
        // One job per unvisited single-step escalation of any group of
        // any frontier state, in (state, group, candidate) order.
        let mut expansions: Vec<(usize, usize, GroupConfig)> = Vec::new();
        for (pi, st) in frontier.iter().enumerate() {
            for gi in 0..st.groups.len() {
                for cand in st.groups[gi].escalation_candidates_preferred(cfg) {
                    let mut succ = st.groups.clone();
                    succ[gi] = cand.clone();
                    if visited.insert(stable_hash(&succ)) {
                        expansions.push((pi, gi, cand));
                    }
                }
            }
        }
        if expansions.is_empty() {
            break;
        }
        stats.beam_depth += 1;
        stats.beam_expanded += expansions.len();

        let frontier_ref = &frontier;
        let evals = run_indexed(expansions.len(), workers, |k| {
            if expired() {
                return Ok(None);
            }
            let (pi, gi, cand) = &expansions[k];
            let parent = &frontier_ref[*pi];
            // Context for the relative prescreen, memoized per parent —
            // identical to the greedy loop's current-configuration
            // context, computed in-worker (it is deterministic).
            let slice = search_base.slice(*gi);
            let cur_infeasible = group_infeasible(slice, &parent.groups[*gi], opts, cache, acc);
            eval_candidate(
                slice,
                &parent.groups[*gi],
                cand,
                cur_infeasible,
                opts,
                cache,
                acc,
            )
            .map(Some)
        });
        if workers > 1 && expansions.len() > 1 {
            stats.parallel_evaluated += expansions.len();
        }

        let mut successors: Vec<BeamState> = Vec::new();
        for (k, ev) in evals.into_iter().enumerate() {
            match ev? {
                None => stats.budget_expired = true,
                Some(CandidateEval::Pruned) => stats.lint_pruned += 1,
                Some(CandidateEval::Estimated(l, r)) => {
                    stats.estimated += 1;
                    let (pi, gi, cand) = &expansions[k];
                    let parent = &frontier[*pi];
                    let mut groups = parent.groups.clone();
                    groups[*gi] = cand.clone();
                    let mut qor = parent.qor.clone();
                    qor[*gi] = (l, r);
                    let est = qor.iter().map(|q| q.0).sum();
                    // Escalation only grows resources, so a state whose
                    // composed figure already misses the device has no
                    // viable descendants — drop it here.
                    if fits(&qor) {
                        successors.push(BeamState { groups, qor, est });
                    }
                }
            }
        }
        if successors.is_empty() {
            break;
        }
        successors.sort_by_key(|s| s.est); // stable: expansion order breaks ties
        successors.truncate(BEAM_WIDTH);
        frontier = successors;
        stats.beam_width = stats.beam_width.max(frontier.len());

        if admit_frontier(
            &frontier,
            search_base,
            opts,
            cache,
            acc,
            &expired,
            t0,
            &mut sim,
            &mut stats,
            &mut anytime,
        )? {
            stats.budget_expired = true;
        }
    }

    // --- Winner ----------------------------------------------------------
    let BeamState {
        mut groups, qor, ..
    } = match &sim.incumbent {
        Some(inc) => inc.state.clone(),
        // Budget expired before the first measurement: the best estimated
        // seed (the greedy winner under portfolio) stands in.
        None => base_state,
    };
    let function =
        repair_and_finalize(search_base, &mut groups, &qor, opts, cache, acc, &mut stats)?;
    if let Some(inc) = &sim.incumbent {
        let report = match sim.reports.remove(&inc.key) {
            Some(r) => r,
            // The winner's cycle count was a memo hit from an earlier
            // search over a shared cache, so no report was produced here
            // — re-measure once (deterministic seed, same count).
            None => {
                let (_, compiled) = measure_final(search_base, &inc.state, opts, cache, acc)?;
                let t_sim = Instant::now();
                let r = sim.arena.simulate(
                    search_base.full().function(),
                    SIM_SEED,
                    &compiled.affine,
                    &compiled.deps,
                    &opts.model,
                );
                stats.sim_time += t_sim.elapsed();
                r
            }
        };
        stats.sim_cycles = report.cycles;
        stats.sim_stall_dep = report.stall_dep;
        stats.sim_stall_port = report.stall_port;
        stats.sim_stall_drain = report.stall_drain;
        stats.sim_port_conflicts = report.port_conflicts;
    }
    stats.stage2_time = t0.elapsed();
    if let Some(c) = cache {
        stats.cache_hits = c.hits();
        stats.cache_misses = c.misses();
        stats.cache_evictions = c.evictions();
        stats.cache_entries = c.entries();
        if let Some(s) = c.store() {
            stats.store_hits = s.hits();
            stats.store_misses = s.misses();
            stats.store_writes = s.writes();
        }
    }
    stats.lowering_time = acc.lowering();
    stats.estimation_time = acc.estimation();
    Ok(Stage2Result {
        function,
        groups,
        stats,
        anytime,
    })
}

/// Offers every state of `frontier` to simulation, in order: states
/// inside the admission band (or force-admitted) get a full cached
/// compile and a `pom-sim` run over the shared arena; the incumbent
/// updates on strict cycle improvement, recording an [`AnytimePoint`].
/// Returns `Ok(true)` when the budget expired mid-admission.
#[allow(clippy::too_many_arguments)]
fn admit_frontier(
    frontier: &[BeamState],
    base: &SearchBase,
    opts: &CompileOptions,
    cache: Option<&DseCache>,
    acc: &PhaseAccum,
    expired: &dyn Fn() -> bool,
    t0: Instant,
    sim: &mut SimLoop,
    stats: &mut DseStats,
    anytime: &mut Vec<AnytimePoint>,
) -> Result<bool, CompileError> {
    for st in frontier {
        sim.best_est = sim.best_est.min(st.est);
    }
    for st in frontier {
        let h = stable_hash(&st.groups);
        if !sim.simmed.insert(h) {
            continue;
        }
        if expired() {
            return Ok(true);
        }
        // Admission band: only states whose estimate could plausibly beat
        // the best-estimated state's neighborhood are worth a full
        // compile and simulation.
        let in_band = (st.est as u128) * 100 <= (sim.best_est as u128) * (100 + SIM_ADMIT_PCT);
        if !in_band && sim.force != Some(h) {
            stats.sim_pruned += 1;
            continue;
        }
        let (key, compiled) = measure_final(base, st, opts, cache, acc)?;
        if !compiled.qor.resources.fits_logic(&opts.device) {
            // The walk-back ran out of tiles to shrink; the design is
            // over budget, so it cannot win at the device envelope.
            stats.sim_pruned += 1;
            continue;
        }
        let t_sim = Instant::now();
        let arena = &mut sim.arena;
        let reports = &mut sim.reports;
        let mut run = || {
            let r = arena.simulate(
                base.full().function(),
                SIM_SEED,
                &compiled.affine,
                &compiled.deps,
                &opts.model,
            );
            let cycles = r.cycles;
            reports.insert(key, r);
            cycles
        };
        let cycles = match cache {
            Some(c) => c.memo_sim(key, &mut run),
            None => run(),
        };
        stats.sim_time += t_sim.elapsed();
        stats.sim_admitted += 1;
        if sim
            .incumbent
            .as_ref()
            .map(|i| cycles < i.cycles)
            .unwrap_or(true)
        {
            sim.incumbent = Some(Incumbent {
                state: st.clone(),
                cycles,
                key,
            });
            anytime.push(AnytimePoint {
                elapsed: t0.elapsed(),
                sim_cycles: cycles,
                est_latency: st.est,
            });
        }
    }
    Ok(false)
}

/// Compiles a state the way `auto_dse_with` compiles the returned
/// winner: resource walk-back + bank repair ([`repair_and_finalize`]),
/// full cached compile, pipeline-II retarget to the achieved issue IIs,
/// and a recompile when anything retargeted. Returns the *final*
/// design's fingerprint and compiled form — so the cycle counts the
/// admission loop compares are exactly the metric the finished designs
/// exhibit, and in-search ordering cannot flip after finalization
/// (which is what makes the portfolio ≥ greedy guarantee hold).
///
/// The repair walk-back re-runs per measured state over a scratch stats
/// block (its group QoR and final compile are memoized, so repeated
/// finalization of the same state costs cache lookups); the winner's own
/// finalization at search end records the real counters.
fn measure_final(
    base: &SearchBase,
    state: &BeamState,
    opts: &CompileOptions,
    cache: Option<&DseCache>,
    acc: &PhaseAccum,
) -> Result<(u64, Arc<Compiled>), CompileError> {
    let mut g = state.groups.clone();
    let mut scratch = DseStats::default();
    let mut scheduled =
        repair_and_finalize(base, &mut g, &state.qor, opts, cache, acc, &mut scratch)?;
    let template = cache.and_then(|c| full_dep_template(base, &g, c, opts, acc));
    let mut compiled = full_compile(base, &scheduled, template.as_deref(), opts, cache, acc)?;
    let mut retargeted = false;
    for l in &compiled.qor.loops {
        let issue_ii = l.achieved_ii.saturating_sub(l.port_slide);
        retargeted |= scheduled.retarget_pipeline_ii(&l.stmts, &l.iv, issue_ii as i64);
    }
    if retargeted {
        compiled = full_compile(base, &scheduled, template.as_deref(), opts, cache, acc)?;
    }
    Ok((fingerprint(&scheduled), compiled))
}

/// The POLSCA-like portfolio seed: strip the innermost parallel level of
/// every group toward the baseline's fixed 32-wide strip, power-of-two
/// so the beam's doubling escalations extend it.
fn polsca_seed(base: &[GroupConfig], cfg: &DseConfig) -> Vec<GroupConfig> {
    base.iter()
        .map(|g| {
            let mut g = g.clone();
            if let Some(&l) = g.parallel.last() {
                let cap = g.extents[l].min(32).min(cfg.max_parallelism).max(1);
                let mut t = 1i64;
                while t * 2 <= cap {
                    t *= 2;
                }
                g.tiles[l] = t;
            }
            g
        })
        .collect()
}

/// The ScaleHLS-like portfolio seeds: the balanced tile ladder a
/// dependence-unaware per-nest DSE walks — each step doubles the
/// globally smallest parallel-level tile (ties: group order, then
/// innermost level), yielding square-ish shapes the greedy ladder's
/// cap-first preference never visits.
fn balanced_ladder(base: &[GroupConfig], cfg: &DseConfig) -> Vec<Vec<GroupConfig>> {
    let mut out = Vec::new();
    let mut cur: Vec<GroupConfig> = base.to_vec();
    loop {
        let mut pick: Option<(usize, usize)> = None;
        for (gi, g) in cur.iter().enumerate() {
            if g.parallelism() * 2 > cfg.max_parallelism {
                continue;
            }
            for &l in g.parallel.iter().rev() {
                if g.tiles[l] * 2 > g.extents[l] {
                    continue;
                }
                let better = match pick {
                    None => true,
                    Some((pgi, pl)) => g.tiles[l] < cur[pgi].tiles[pl],
                };
                if better {
                    pick = Some((gi, l));
                }
            }
        }
        let Some((gi, l)) = pick else { break };
        cur[gi].tiles[l] *= 2;
        out.push(cur.clone());
    }
    out
}
