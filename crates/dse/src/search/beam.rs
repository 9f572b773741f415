//! Portfolio search: a parallel beam with sim-in-the-loop pruning.
//!
//! The greedy descent of [`super::stage2`] follows a single trajectory:
//! escalate the bottleneck group's preferred step, accept on estimated
//! improvement. Its blind spot is exactly where the analytical estimator
//! is coarse — two tile shapes with equal parallelism and near-equal
//! estimates can differ measurably in drain and port behavior, and the
//! greedy ladder commits to one shape without ever measuring the other.
//!
//! The portfolio explores the same [`GroupConfig`] space wave by wave:
//! every frontier state expands all single-step escalations of all its
//! groups, candidates are evaluated through the shared memoized compile
//! cache on the scoped worker pool, and the top `BEAM_WIDTH` survivors
//! (by estimated total latency) form the next frontier. Survivors whose
//! estimate lands within the sim-admission band of the best estimate
//! seen are *measured*: their full schedule is compiled (cached) and run
//! through `pom-sim` over a reusable interpreter arena. The incumbent —
//! the measured state with the fewest simulated cycles whose full design
//! fits the device — is the search's answer. It only ever improves, and
//! each improvement is one [`AnytimePoint`] of the result's anytime
//! curve. The search runs until no frontier state has an unvisited
//! successor, then finalizes the incumbent through the exact
//! repair/validation tail the greedy winner takes.
//!
//! The first frontier is seeded from diverse basins: the greedy winner
//! itself, the untiled locality schedule (the pluto-like basin), a
//! polsca-like innermost-strip seed, and the balanced tile ladder a
//! ScaleHLS-style dependence-unaware DSE walks. The greedy winner
//! bypasses the admission band — it is always measured — and every
//! measured state is compiled by `measure_final` with the II retarget
//! `auto_dse_with` applies to the winner (`stage2::retarget_iis`), so the
//! portfolio result is never worse than greedy under the simulator's
//! metric, and strictly better whenever any explored shape measures
//! faster.
//!
//! Determinism: candidate jobs are indexed, [`run_indexed`] returns
//! results in index order, ranking sorts are stable with index
//! tie-breaks, and simulation runs in frontier order — so searches are
//! byte-identical across worker counts.

use super::config::DseConfig;
use super::ladder::{GroupConfig, SearchBase};
use super::stage2::{
    bottleneck_optimize_impl, composed_resources, eval_candidate, full_compile, full_dep_template,
    group_infeasible, group_qor, repair_and_finalize, retarget_iis, run_indexed, CandidateEval,
    Stage2Result,
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

/// One point of a portfolio search's anytime incumbent trajectory: recorded
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
    /// Hash of the greedy winner's state, which bypasses the admission
    /// band.
    anchor: u64,
    /// Stage-2 search start, the origin of the anytime curve.
    t0: Instant,
    anytime: Vec<AnytimePoint>,
}

/// The portfolio search loop. Mirrors [`bottleneck_optimize_impl`]'s
/// contract: same inputs, same [`Stage2Result`], same finalization
/// (resource walk-back, bank repair) — so the downstream II retarget and
/// winner validation in `auto_dse_with` run identically on its winner.
pub(crate) fn portfolio_optimize_impl(
    search_base: &SearchBase,
    opts: &CompileOptions,
    cfg: &DseConfig,
    cache: Option<&DseCache>,
    acc: &PhaseAccum,
) -> Result<Stage2Result, CompileError> {
    let t0 = Instant::now();
    let workers = cfg.effective_workers();
    let fits = |qor: &[(u64, pom_hls::ResourceUsage)]| {
        composed_resources(qor, opts).fits_logic(&opts.device)
    };

    // --- Seeds -----------------------------------------------------------
    // The greedy winner anchors the portfolio: it bypasses the admission
    // band below, so the portfolio never returns a measurably worse
    // schedule than greedy.
    let greedy = bottleneck_optimize_impl(search_base, opts, cfg, cache, acc)?;
    let mut stats = DseStats {
        lint_pruned: greedy.stats.lint_pruned,
        estimated: greedy.stats.estimated,
        parallel_evaluated: greedy.stats.parallel_evaluated,
        certificates_checked: greedy.stats.certificates_checked,
        certificates_passed: greedy.stats.certificates_passed,
        certificates_sampled: greedy.stats.certificates_sampled,
        ..DseStats::default()
    };
    let anchor = stable_hash(&greedy.groups);
    let base = search_base.groups().to_vec();
    let mut seed_groups: Vec<Vec<GroupConfig>> = vec![base.clone(), greedy.groups];
    seed_groups.push(polsca_seed(&base, cfg));
    seed_groups.extend(balanced_ladder(&base, cfg));
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
    let mut greedy_state: Option<BeamState> = None;
    for groups in seed_groups {
        let qor: Vec<(u64, pom_hls::ResourceUsage)> = (0..groups.len())
            .map(|_| qors.next().expect("one QoR per (seed, group) job"))
            .collect::<Result<_, _>>()?;
        let est = qor.iter().map(|q| q.0).sum();
        let state = BeamState { groups, qor, est };
        if stable_hash(&state.groups) == anchor {
            greedy_state = Some(state.clone());
        }
        if fits(&state.qor) {
            seeds.push(state);
        }
    }
    let greedy_state = greedy_state.expect("the greedy winner is a seed");
    if seeds.is_empty() {
        // Even the greedy winner misses the device (its walk-back ran out
        // of tiles); there is nothing to search and the finalize
        // walk-back owns that verdict.
        seeds.push(greedy_state.clone());
    }
    seeds.sort_by_key(|s| s.est); // stable: seed order breaks ties

    let mut sim = SimLoop {
        arena: pom_sim::SimArena::new(),
        reports: HashMap::new(),
        simmed: HashSet::new(),
        incumbent: None,
        best_est: u64::MAX,
        anchor,
        t0,
        anytime: Vec::new(),
    };
    // Every fitting seed is offered to simulation *before* the beam
    // truncates to width — the portfolio guarantee must not depend on the
    // greedy seed's estimate rank.
    sim.admit(&seeds, search_base, opts, cache, acc, &mut stats)?;
    let mut frontier = seeds;
    frontier.truncate(BEAM_WIDTH);
    stats.beam_width = frontier.len();

    // --- Expansion waves -------------------------------------------------
    loop {
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
        });
        if workers > 1 && expansions.len() > 1 {
            stats.parallel_evaluated += expansions.len();
        }

        let mut successors: Vec<BeamState> = Vec::new();
        for (k, ev) in evals.into_iter().enumerate() {
            match ev? {
                CandidateEval::Pruned => stats.lint_pruned += 1,
                CandidateEval::Estimated(l, r) => {
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

        sim.admit(&frontier, search_base, opts, cache, acc, &mut stats)?;
    }

    // --- Winner ----------------------------------------------------------
    let BeamState {
        mut groups, qor, ..
    } = match &sim.incumbent {
        Some(inc) => inc.state.clone(),
        // No measured design fits the device: the greedy winner stands
        // in, and the finalize walk-back owns that verdict.
        None => greedy_state,
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
    Ok(Stage2Result {
        function,
        groups,
        stats,
        anytime: sim.anytime,
    })
}

impl SimLoop {
    /// Offers every state of `frontier` to simulation, in order: states
    /// inside the admission band (or the greedy anchor) get a full cached
    /// compile and a `pom-sim` run over the shared arena; the incumbent
    /// updates on strict cycle improvement, recording an [`AnytimePoint`].
    fn admit(
        &mut self,
        frontier: &[BeamState],
        base: &SearchBase,
        opts: &CompileOptions,
        cache: Option<&DseCache>,
        acc: &PhaseAccum,
        stats: &mut DseStats,
    ) -> Result<(), CompileError> {
        for st in frontier {
            self.best_est = self.best_est.min(st.est);
        }
        for st in frontier {
            let h = stable_hash(&st.groups);
            if !self.simmed.insert(h) {
                continue;
            }
            // Admission band: only states whose estimate could plausibly beat
            // the best-estimated state's neighborhood are worth a full
            // compile and simulation.
            let in_band = (st.est as u128) * 100 <= (self.best_est as u128) * (100 + SIM_ADMIT_PCT);
            if !in_band && self.anchor != h {
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
            let arena = &mut self.arena;
            let reports = &mut self.reports;
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
            if self.incumbent.as_ref().is_none_or(|i| cycles < i.cycles) {
                self.incumbent = Some(Incumbent {
                    state: st.clone(),
                    cycles,
                    key,
                });
                self.anytime.push(AnytimePoint {
                    elapsed: self.t0.elapsed(),
                    sim_cycles: cycles,
                    est_latency: st.est,
                });
            }
        }
        Ok(())
    }
}

/// Compiles a state the way `auto_dse_with` compiles the returned
/// winner: resource walk-back + bank repair ([`repair_and_finalize`]),
/// full cached compile, and the pipeline-II retarget ([`retarget_iis`]).
/// Returns the *final* design's fingerprint and compiled form — so the
/// cycle counts the admission loop compares are exactly the metric the
/// finished designs exhibit, and in-search ordering cannot flip after
/// finalization (which is what makes the portfolio ≥ greedy guarantee
/// hold).
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
    let template = template.as_deref();
    let compiled = full_compile(base, &scheduled, template, opts, cache, acc)?;
    let compiled = retarget_iis(base, &mut scheduled, &compiled, template, opts, cache, acc)?
        .unwrap_or(compiled);
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
