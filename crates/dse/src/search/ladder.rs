//! The stage-2 configuration space: per-group tile vectors, the
//! escalation ladder that walks them, the schedule each point of the
//! space materializes to, and the [`SearchBase`] a search derives once
//! so that materializing a point replays only the point's own primitives.

use super::config::DseConfig;
use crate::cache::{canonical_fingerprint, fingerprint, stable_hash};
use crate::compile::{
    apply_schedule, carried_levels, replay_from, self_dependences, sub_function, CompileError,
};
use pom_dsl::{Function, PartitionStyle};
use pom_graph::DepGraph;
use pom_poly::{AccessFn, Bound, StmtPoly};
use std::collections::{BTreeMap, HashMap};

/// The tiling/unrolling configuration of one node (fusion group).
#[derive(Clone, Debug, Hash, PartialEq, Eq)]
pub struct GroupConfig {
    /// Compute names in the group (program order).
    pub members: Vec<String>,
    /// Loop dims of the group's representative statement, outermost first.
    pub dims: Vec<String>,
    /// Indices of levels that are parallel for *every* member.
    pub parallel: Vec<usize>,
    /// Trip count per level.
    pub extents: Vec<i64>,
    /// Current tile (unroll factor) per level; 1 = not unrolled.
    pub tiles: Vec<i64>,
}

/// Preferred per-level unroll cap before the ladder spills to other
/// levels.
const LEVEL_CAP: i64 = 16;

impl GroupConfig {
    /// The parallelism degree: product of tiles (the paper divides this by
    /// the achieved II to report *parallelism*).
    pub fn parallelism(&self) -> i64 {
        self.tiles.iter().product()
    }

    /// All single-step escalations (doubling one parallel level within its
    /// extent), innermost first, under the default parallelism cap — the
    /// order-agnostic sampling the ScaleHLS-like baseline walks.
    pub fn escalation_candidates(&self) -> Vec<GroupConfig> {
        let mut out = Vec::new();
        if self.parallelism() * 2 > DseConfig::default().max_parallelism {
            return out;
        }
        for &l in self.parallel.iter().rev() {
            if self.tiles[l] * 2 <= self.extents[l] {
                let mut c = self.clone();
                c.tiles[l] *= 2;
                out.push(c);
            }
        }
        out
    }

    /// All single-step escalations under `cfg`'s parallelism cap, in the
    /// greedy ladder's preference order: levels still under
    /// `LEVEL_CAP` first (innermost first), then the over-cap spills —
    /// so index 0 is the paper's preferred step, and index-ordered
    /// tie-breaking reproduces the serial greedy trajectory whenever
    /// candidates tie on latency.
    pub fn escalation_candidates_preferred(&self, cfg: &DseConfig) -> Vec<GroupConfig> {
        let mut out = Vec::new();
        if self.parallelism() * 2 > cfg.max_parallelism {
            return out;
        }
        let mut taken: Vec<usize> = Vec::new();
        for &l in self.parallel.iter().rev() {
            if self.tiles[l] * 2 <= self.extents[l].min(LEVEL_CAP) {
                let mut c = self.clone();
                c.tiles[l] *= 2;
                out.push(c);
                taken.push(l);
            }
        }
        for &l in self.parallel.iter().rev() {
            if !taken.contains(&l) && self.tiles[l] * 2 <= self.extents[l] {
                let mut c = self.clone();
                c.tiles[l] *= 2;
                out.push(c);
            }
        }
        out
    }
}

/// Derives the groups (fusion classes) of a stage-1-transformed function.
pub fn plan_groups(f: &Function) -> Vec<GroupConfig> {
    plan_groups_on(f, &apply_schedule(f))
}

/// [`plan_groups`] over `f`'s already replayed statements.
fn plan_groups_on(f: &Function, stmts: &[StmtPoly]) -> Vec<GroupConfig> {
    // Group statements by their outermost static (fused statements share it).
    let mut by_order: BTreeMap<i64, Vec<usize>> = BTreeMap::new();
    for (i, s) in stmts.iter().enumerate() {
        by_order.entry(s.statics()[0]).or_default().push(i);
    }
    let mut groups = Vec::new();
    for (_, members) in by_order {
        // Representative: the *deepest* member (first on ties). Partially
        // fused groups (statements sharing only an outer loop, e.g. a
        // stencil's boundary-propagation statements riding the time loop)
        // must be configured over the full nest, not the shallow member's.
        let mut rep_idx = members[0];
        for &m in &members[1..] {
            if stmts[m].dims().len() > stmts[rep_idx].dims().len() {
                rep_idx = m;
            }
        }
        let rep = &stmts[rep_idx];
        let dims = rep.dims().to_vec();
        // Average extents with outer dims fixed at their midpoints, which
        // handles the non-rectangular domains produced by skewing.
        let mut env: HashMap<String, i64> = HashMap::new();
        let mut extents: Vec<i64> = Vec::with_capacity(dims.len());
        for d in &dims {
            let (lb, ub) = extent_range(rep, d, &env);
            env.insert(d.clone(), pom_poly::midpoint(lb, ub));
            extents.push(ub.saturating_sub(lb).saturating_add(1).max(1));
        }
        // Parallel levels: parallel in every member that *has* the level
        // (a shallower fused member does not iterate the deeper levels,
        // so it cannot constrain them).
        let mut parallel: Vec<usize> = (0..dims.len()).collect();
        for &m in &members {
            let depth = stmts[m].dims().len();
            let carried = carried_levels(&self_dependences(&f.computes()[m], &stmts[m]), depth);
            parallel.retain(|&l| l >= depth || carried[l].is_none());
        }
        groups.push(GroupConfig {
            members: members
                .iter()
                .map(|&m| f.computes()[m].name().to_string())
                .collect(),
            tiles: vec![1; dims.len()],
            dims,
            parallel,
            extents,
        });
    }
    groups
}

fn extent_range(s: &StmtPoly, dim: &str, env: &HashMap<String, i64>) -> (i64, i64) {
    // A level whose bounds leave `i64` counts as one iteration: it is
    // never tiled.
    let Ok((lbs, ubs)) = s.domain().bounds_of(dim) else {
        return (0, 0);
    };
    // Bounds past the `i64` edge read as the edge.
    let at = |(e, d): &(pom_poly::LinearExpr, i64)| Bound::new(e.clone(), *d);
    let lb = lbs.iter().map(|b| at(b).eval_lower(env)).max().unwrap_or(0);
    let ub = ubs
        .iter()
        .map(|b| at(b).eval_upper(env))
        .min()
        .unwrap_or(lb);
    (lb, ub.max(lb))
}

/// Materializes stage-2 primitives for the given group configurations on
/// top of the stage-1-transformed function: splits + reorders, pipeline of
/// the innermost tile loop, full unroll of intra-tile loops, and cyclic
/// array partitioning matched to the unroll factors. Replays `base`'s
/// schedule once; a search holds the replay in its [`SearchBase`] instead.
pub fn schedule_for(base: &Function, groups: &[GroupConfig]) -> Function {
    schedule_on(base, &apply_schedule(base), groups)
}

/// [`schedule_for`] over `base`'s already replayed statements. Everything
/// a stage-2 schedule depends on is read from them — which loops a member
/// has, and which array dimensions a tiled loop indexes — so recording a
/// configuration replays nothing.
fn schedule_on(base: &Function, base_stmts: &[StmtPoly], groups: &[GroupConfig]) -> Function {
    let mut g = base.clone();
    let mut partition_factors: BTreeMap<String, Vec<i64>> = BTreeMap::new();
    for p in g.placeholders() {
        partition_factors.insert(p.name().to_string(), vec![1; p.shape().len()]);
    }
    // Per-member transformed dims: partially fused members may be
    // shallower than the group's representative nest, and must only
    // receive primitives for loops they actually have.
    let index: HashMap<&str, usize> = base
        .computes()
        .iter()
        .enumerate()
        .map(|(i, c)| (c.name(), i))
        .collect();
    let member_dims = |member: &str| base_stmts[index[member]].dims();

    for (gi, group) in groups.iter().enumerate() {
        // Names: outer part "{dim}_g{gi}o", inner "{dim}_g{gi}u" — the
        // group index keeps names unique when nests share iterator names.
        let outer_name = |d: &str| format!("{d}_g{gi}o");
        let inner_name = |d: &str| format!("{d}_g{gi}u");
        let tiled: Vec<usize> = (0..group.dims.len())
            .filter(|&l| group.tiles[l] > 1)
            .collect();
        // Loop order: carried/untiled-non-parallel dims stay outermost,
        // then the tile loops, then untiled *parallel* dims (so the
        // pipelined loop is a full-length parallel loop rather than a
        // short tile loop whose pipeline would flush constantly), then
        // the unrolled intra-tile loops.
        let mut final_order: Vec<String> = Vec::new();
        for (l, d) in group.dims.iter().enumerate() {
            if !tiled.contains(&l) && !group.parallel.contains(&l) {
                final_order.push(d.clone());
            }
        }
        for &l in &tiled {
            final_order.push(outer_name(&group.dims[l]));
        }
        for (l, d) in group.dims.iter().enumerate() {
            if !tiled.contains(&l) && group.parallel.contains(&l) {
                final_order.push(d.clone());
            }
        }
        for &l in &tiled {
            final_order.push(inner_name(&group.dims[l]));
        }

        for member in &group.members {
            let mine = member_dims(member);
            let has = |d: &str| mine.iter().any(|x| x == d);
            // Splits (only of loops this member has).
            for &l in &tiled {
                let d = &group.dims[l];
                if has(d) {
                    g.split(member, d, group.tiles[l], &outer_name(d), &inner_name(d));
                }
            }
            // Reorder to final order by recording bubble-sort interchanges
            // over the simulated current order, restricted to this
            // member's loops.
            let mut cur: Vec<String> = Vec::new();
            for (l, d) in group.dims.iter().enumerate() {
                if !has(d) {
                    continue;
                }
                if tiled.contains(&l) {
                    cur.push(outer_name(d));
                    cur.push(inner_name(d));
                } else {
                    cur.push(d.clone());
                }
            }
            let targets: Vec<&String> = final_order.iter().filter(|n| cur.contains(n)).collect();
            for (target_pos, target) in targets.into_iter().enumerate() {
                let from_pos = cur.iter().position(|x| x == target).expect("name tracked");
                let mut p = from_pos;
                while p > target_pos {
                    g.interchange(member, &cur[p - 1].clone(), &cur[p].clone());
                    cur.swap(p - 1, p);
                    p -= 1;
                }
            }
        }

        // Pipeline the innermost non-unrolled loop and unroll intra-tile
        // loops — on the *deepest* member (first on ties): a shallow fused
        // member's innermost loop is a loop it shares with deeper members,
        // and pipelining that shared loop would flatten everything below
        // it in every fused statement.
        let mut deepest = &group.members[0];
        for member in &group.members[1..] {
            if member_dims(member).len() > member_dims(deepest).len() {
                deepest = member;
            }
        }
        let pipeline_iv = final_order[group.dims.len() - 1].clone();
        g.pipeline(deepest, &pipeline_iv, 1);
        for &l in &tiled {
            g.unroll(deepest, &inner_name(&group.dims[l]), group.tiles[l]);
        }

        // Partition factors: for every member access, each array dimension
        // gets the product of tiles of the levels indexing it. A split
        // rewrites `d` to `t*d_o + d_u` wherever `d` occurs, so an index
        // uses the unrolled `d_u` exactly when it uses `d` before the
        // split — the stage-1 statements answer without a replay.
        for member in &group.members {
            let c = &base.computes()[index[member.as_str()]];
            let s = &base_stmts[index[member.as_str()]];
            // A member that reads its array a fixed step back along a
            // dimension (`B[t-1][..]` into `B[t][..]`) gets the rows it
            // reads and the rows it writes back in different banks there,
            // so no write-back in flight lands on a bank a later iteration
            // reads.
            if let Some(factors) = partition_factors.get_mut(&c.store().array) {
                let shape = base
                    .find_placeholder(&c.store().array)
                    .expect("declared array")
                    .shape();
                for (d, f) in factors.iter_mut().enumerate() {
                    if let Some(sep) = row_separation(c.store(), &c.loads(), d) {
                        *f = (*f).max(sep.min(shape[d] as i64));
                    }
                }
            }
            for acc in std::iter::once(c.store()).chain(c.loads()) {
                let Some(factors) = partition_factors.get_mut(&acc.array) else {
                    continue;
                };
                let shape = base
                    .find_placeholder(&acc.array)
                    .expect("declared array")
                    .shape();
                // An index whose rewrite leaves `i64` asks for no banks.
                let Ok(cur) = s.access_to_current(acc) else {
                    continue;
                };
                for (d, e) in cur.indices.iter().enumerate() {
                    let mut f = 1i64;
                    for (l, dim) in group.dims.iter().enumerate() {
                        if group.tiles[l] > 1 && e.uses(dim) {
                            f *= group.tiles[l];
                        }
                    }
                    let f = f.min(shape[d] as i64).max(1);
                    factors[d] = factors[d].max(f);
                }
            }
        }
    }

    for (array, factors) in partition_factors {
        if factors.iter().any(|&f| f > 1) {
            g.partition(&array, &factors, PartitionStyle::Cyclic);
        }
    }
    g
}

/// The cyclic factor along dimension `d` that puts every load of
/// `store`'s array in other banks than the store: when each such load's
/// index there is the store's plus one nonzero step `k`, the least power
/// of two that does not divide `k`. `None` when there is no such load or
/// the steps differ.
fn row_separation(store: &AccessFn, loads: &[&AccessFn], d: usize) -> Option<i64> {
    let mut steps = loads.iter().filter(|l| l.array == store.array).map(|l| {
        let mut diff = l.indices.get(d)?.clone();
        diff.add_scaled(store.indices.get(d)?, -1).ok()?;
        diff.is_constant().then(|| diff.constant())
    });
    let k = steps.next()??;
    if k == 0 || !steps.all(|s| s == Some(k)) {
        return None;
    }
    2i64.checked_shl(k.unsigned_abs().trailing_zeros())
}

/// A function with its recorded schedule replayed once: what stage-2
/// schedules are recorded on and their statements extended from.
#[derive(Debug)]
pub struct Replayed {
    function: Function,
    stmts: Vec<StmtPoly>,
}

impl Replayed {
    fn new(function: Function) -> Self {
        let stmts = apply_schedule(&function);
        Replayed { function, stmts }
    }

    /// The function the replay belongs to.
    pub fn function(&self) -> &Function {
        &self.function
    }

    /// [`schedule_for`] on the held function, replaying nothing.
    pub fn schedule(&self, groups: &[GroupConfig]) -> Function {
        schedule_on(&self.function, &self.stmts, groups)
    }

    /// The transformed statements of `scheduled`, which must extend the
    /// held function's schedule (as [`Replayed::schedule`]'s results do,
    /// also after bank overrides and II retargets): the held statements
    /// plus a replay of the appended primitives only.
    ///
    /// # Errors
    ///
    /// [`CompileError::Rejected`] when an appended primitive names a loop
    /// its statement does not have, [`CompileError::Poly`] when its
    /// arithmetic leaves `i64`.
    pub fn stmts_of(&self, scheduled: &Function) -> Result<Vec<StmtPoly>, CompileError> {
        let done = self.function.schedule().len();
        debug_assert!(
            scheduled.schedule()[..done]
                .iter()
                .zip(self.function.schedule())
                .all(|(a, b)| a == b || !b.is_loop_transformation()),
            "schedule does not extend the replayed prefix"
        );
        replay_from(scheduled, self.stmts.clone(), done)
    }
}

/// What one group contributes to every candidate of a search: its
/// sub-function of the stage-1 function (replayed), that sub-function's
/// alpha-renamed fingerprint, and the untiled schedule the group's
/// dependence-summary template is analysed on.
#[derive(Debug)]
pub struct GroupSlice {
    sub: Replayed,
    sub_key: u64,
    reference: Function,
    reference_key: u64,
}

impl GroupSlice {
    fn new(stage1: &Function, untiled: &GroupConfig) -> Self {
        let members: Vec<&str> = untiled.members.iter().map(String::as_str).collect();
        let sub = Replayed::new(sub_function(stage1, &members));
        let reference = sub.schedule(std::slice::from_ref(untiled));
        GroupSlice {
            sub_key: canonical_fingerprint(sub.function()),
            reference_key: fingerprint(&reference),
            sub,
            reference,
        }
    }

    /// The replayed sub-function candidates are recorded on.
    pub fn sub(&self) -> &Replayed {
        &self.sub
    }

    /// The group's untiled scheduled sub-function and its plain
    /// [`fingerprint`] — the dependence-template reference and its key,
    /// both constants of the group.
    pub(crate) fn reference(&self) -> (&Function, u64) {
        (&self.reference, self.reference_key)
    }

    /// The memo key of configuration `g` of this group, computed without
    /// building `g`'s scheduled sub-function.
    ///
    /// Soundness: `schedule_for(sub, g)` is a function of `(sub,
    /// g.members, g.dims, g.parallel, g.tiles)`, and `members`, `dims`
    /// and `parallel` are themselves functions of `sub` ([`plan_groups`]
    /// reads only the members' statements and self-dependences). Equal
    /// `(canonical_fingerprint(sub), tiles, parallel)` therefore implies
    /// alpha-equivalent scheduled sub-functions — the property the
    /// infeasibility and group-QoR memos rely on. The key merges slightly
    /// *more* than `canonical_fingerprint` of the scheduled sub-function
    /// did: `schedule_for` emits `partition` primitives in array-name
    /// order, so two alpha-equivalent groups whose arrays sort
    /// differently (gaussian's `img, tmp` vs `out, tmp`) render
    /// differently although they lower to the same design.
    pub fn key(&self, g: &GroupConfig) -> u64 {
        stable_hash(&(self.sub_key, &g.tiles, &g.parallel, g.dims.len()))
    }
}

/// Everything a stage-2 search derives from the stage-1 function alone,
/// derived once: the function with its schedule replayed, its dependence
/// graph, the untiled groups, one [`GroupSlice`] per group, and the
/// untiled full schedule the full-function dependence template is
/// analysed on. Lives for one search and is dropped with it.
#[derive(Debug)]
pub struct SearchBase {
    full: Replayed,
    graph: DepGraph,
    groups: Vec<GroupConfig>,
    slices: Vec<GroupSlice>,
    reference: Function,
    reference_key: u64,
}

impl SearchBase {
    /// Replays `stage1`'s schedule once, builds its dependence graph,
    /// plans its groups, and cuts one slice per group.
    pub fn new(stage1: &Function) -> Self {
        Self::with_graph(stage1, DepGraph::build(stage1))
    }

    /// [`SearchBase::new`] over a dependence graph of `stage1`'s computes
    /// built by the caller — the one stage 1 already used.
    pub(crate) fn with_graph(stage1: &Function, graph: DepGraph) -> Self {
        let full = Replayed::new(stage1.clone());
        let groups = plan_groups_on(&full.function, &full.stmts);
        let slices = groups.iter().map(|g| GroupSlice::new(stage1, g)).collect();
        let reference = full.schedule(&groups);
        SearchBase {
            reference_key: fingerprint(&reference),
            full,
            graph,
            groups,
            slices,
            reference,
        }
    }

    /// The replayed stage-1 function full schedules are recorded on.
    pub fn full(&self) -> &Replayed {
        &self.full
    }

    /// The dependence graph of the stage-1 function's computes.
    pub(crate) fn graph(&self) -> &DepGraph {
        &self.graph
    }

    /// [`plan_groups`] of the stage-1 function (every tile 1). Every
    /// configuration a search visits differs from these in `tiles` only.
    pub fn groups(&self) -> &[GroupConfig] {
        &self.groups
    }

    /// The slice of group `gi`.
    pub fn slice(&self, gi: usize) -> &GroupSlice {
        &self.slices[gi]
    }

    /// The untiled full schedule and its plain [`fingerprint`] — the
    /// full-function dependence-template reference and its key.
    pub(crate) fn reference(&self) -> (&Function, u64) {
        (&self.reference, self.reference_key)
    }
}
