//! # pom-live — polyhedral liveness & array-contraction analysis
//!
//! The DSE layers above treat every declared array as a fixed BRAM cost,
//! but on-chip buffers are where graph-level scaling is won or lost: a
//! time-expanded stencil declares `B[tsteps][n]` yet only ever keeps two
//! rows alive, and every producer→consumer pair needs only a bounded
//! buffer depth once the schedules are known. This crate computes, per
//! array, a whole-function liveness summary over the affine dialect:
//!
//! * **live windows** — for every array dimension `d`, a window `W_d`
//!   such that any two simultaneously-live elements differ by less than
//!   `W_d` in dimension `d`. The element remap `e_d ↦ e_d mod W_d` is
//!   then injective on every instantaneously-live set, so the array can
//!   be **contracted** to `∏ min(W_d, extent_d)` cells;
//! * **high-water bound** — `∏ min(W_d, extent_d)`, an upper bound on
//!   the number of simultaneously-live elements (cross-checked against
//!   the simulator's occupancy counter by `pomc bench-live`);
//! * **flow depths** — for every inter-statement flow edge
//!   (producer stmt, consumer stmt, array), the minimal buffer depth
//!   that preserves all in-flight values (POM009);
//! * **dead stores** — statements whose writes are provably never
//!   observed and are fully overwritten by a later statement (POM008).
//!
//! The analysis follows the same exactness doctrine as `pom-bank`: it
//! degrades to *inexact* and claims nothing rather than approximate in
//! an unsound direction. Concretely, execution-order conditions are
//! relaxed in the direction that **over-approximates conflicts** (sound
//! for windows) while write-covers-read conditions use an **exact**
//! projection and under-approximate coverage when that projection is
//! unavailable (sound for live-in sets). Initial array contents are
//! observable: an element read before it is ever written is *live-in*
//! and counts as live from the start of the function, which is exactly
//! the semantics of the seeded differential interpreters.
//!
//! Every claimed contraction can be machine-checked by
//! [`replay_contraction`], which executes the function twice — once
//! against declared storage, once against the contracted buffer with
//! the modulo remap — and requires bit-identical store value streams.
//! `pom-verify` packages that check as a certificate obligation.

mod replay;
mod report;

pub use replay::{replay_contraction, seeded_memory};
pub use report::render;

use pom_ir::{AffineFunc, AffineOp};
use pom_poly::{ceil_div, floor_div, fm, Constraint, ConstraintKind, LinearExpr};
use std::collections::{BTreeMap, BTreeSet};

/// Maximum number of access sites per array before the analysis degrades
/// to inexact (windows = declared extents, no claims).
pub const SITE_CAP: usize = 128;

/// Maximum number of disjoint pieces tracked while computing live-in
/// (uncovered-read) sets before degrading to inexact.
pub const PIECE_CAP: usize = 64;

const DELTA: &str = "~d";

fn rn(name: &str, sfx: &str) -> String {
    if sfx.is_empty() {
        name.to_string()
    } else {
        format!("{name}{sfx}")
    }
}

/// One structural step on the path from the function body to an op:
/// the op's position in its parent body, plus the induction variable
/// when the op is an `affine.for`.
#[derive(Clone, Debug)]
struct Step {
    pos: usize,
    iv: Option<String>,
}

/// A static access site: one array reference (the store destination or
/// one load leaf) of one statement, with its iteration domain.
#[derive(Clone, Debug)]
struct Site {
    stmt: String,
    idx: Vec<LinearExpr>,
    dom: Vec<Constraint>,
    ivs: Vec<String>,
    steps: Vec<Step>,
}

impl Site {
    /// Domain, index expressions and iv names with every iv suffixed.
    fn renamed(&self, sfx: &str) -> (Vec<Constraint>, Vec<LinearExpr>, Vec<String>) {
        let mut dom = self.dom.clone();
        let mut idx = self.idx.clone();
        for iv in &self.ivs {
            let to = rn(iv, sfx);
            dom = dom.iter().map(|c| c.renamed(iv, &to)).collect();
            idx = idx.iter().map(|e| e.renamed(iv, &to)).collect();
        }
        (dom, idx, self.ivs.iter().map(|v| rn(v, sfx)).collect())
    }

    /// Position of the enclosing top-level op.
    fn top_pos(&self) -> usize {
        self.steps.first().map_or(0, |s| s.pos)
    }
}

/// All write and read sites of a function, keyed by array.
fn collect_sites(func: &AffineFunc) -> BTreeMap<String, (Vec<Site>, Vec<Site>)> {
    fn go(
        ops: &[AffineOp],
        steps: &mut Vec<Step>,
        dom: &mut Vec<Constraint>,
        ivs: &mut Vec<String>,
        out: &mut BTreeMap<String, (Vec<Site>, Vec<Site>)>,
    ) {
        for (pos, op) in ops.iter().enumerate() {
            match op {
                AffineOp::For(l) => {
                    steps.push(Step {
                        pos,
                        iv: Some(l.iv.clone()),
                    });
                    let mark = dom.len();
                    for b in &l.lbs {
                        dom.push(Constraint::ge(
                            LinearExpr::term(l.iv.clone(), b.div),
                            b.expr.clone(),
                        ));
                    }
                    for b in &l.ubs {
                        dom.push(Constraint::le(
                            LinearExpr::term(l.iv.clone(), b.div),
                            b.expr.clone(),
                        ));
                    }
                    ivs.push(l.iv.clone());
                    go(&l.body, steps, dom, ivs, out);
                    ivs.pop();
                    dom.truncate(mark);
                    steps.pop();
                }
                AffineOp::If(i) => {
                    steps.push(Step { pos, iv: None });
                    let mark = dom.len();
                    dom.extend(i.conds.iter().cloned());
                    go(&i.body, steps, dom, ivs, out);
                    dom.truncate(mark);
                    steps.pop();
                }
                AffineOp::Store(s) => {
                    steps.push(Step { pos, iv: None });
                    let mk = |idx: &[LinearExpr]| Site {
                        stmt: s.stmt.clone(),
                        idx: idx.to_vec(),
                        dom: dom.clone(),
                        ivs: ivs.clone(),
                        steps: steps.clone(),
                    };
                    out.entry(s.dest.array.clone())
                        .or_default()
                        .0
                        .push(mk(&s.dest.indices));
                    for a in s.value.loads() {
                        out.entry(a.array.clone())
                            .or_default()
                            .1
                            .push(mk(&a.indices));
                    }
                    steps.pop();
                }
            }
        }
    }
    let mut out = BTreeMap::new();
    go(
        &func.body,
        &mut Vec::new(),
        &mut Vec::new(),
        &mut Vec::new(),
        &mut out,
    );
    out
}

/// Exact disjoint decomposition of "instance of `x` executes strictly
/// before instance of `y`", as a union of conjunctions over the suffixed
/// iv names. Sites from the same store op never execute one before the
/// other at equal instances in the direction write→read (loads evaluate
/// before the store), so no all-equal case is emitted.
fn before_cases(x: &Site, y: &Site, sx: &str, sy: &str) -> Vec<Vec<Constraint>> {
    let mut cases = Vec::new();
    let mut acc: Vec<Constraint> = Vec::new();
    let n = x.steps.len().min(y.steps.len());
    for k in 0..n {
        let (a, b) = (&x.steps[k], &y.steps[k]);
        if a.pos != b.pos {
            if a.pos < b.pos {
                cases.push(acc);
            }
            return cases;
        }
        if let (Some(ix), Some(iy)) = (&a.iv, &b.iv) {
            let vx = LinearExpr::var(rn(ix, sx));
            let vy = LinearExpr::var(rn(iy, sy));
            let mut lt = acc.clone();
            lt.push(Constraint::lt(vx.clone(), vy.clone()));
            cases.push(lt);
            acc.push(Constraint::eq(vx, vy));
        }
    }
    cases
}

/// A *necessary* (over-approximate) convex condition for "instance of
/// `x` executes at or before instance of `y`". Returns `None` when the
/// order is statically impossible. Over-approximating execution order
/// here only grows the conflict polyhedron, which is the sound
/// direction for window computation.
fn relaxed_before(x: &Site, y: &Site, sx: &str, sy: &str) -> Option<Vec<Constraint>> {
    let mut first_iv: Option<Constraint> = None;
    let n = x.steps.len().min(y.steps.len());
    for k in 0..n {
        let (a, b) = (&x.steps[k], &y.steps[k]);
        if a.pos != b.pos {
            return if a.pos < b.pos {
                Some(first_iv.into_iter().collect())
            } else {
                // x's op comes statically after y's: x can still run
                // before y only on an earlier iteration of a shared loop.
                first_iv.map(|c| vec![c])
            };
        }
        if let (Some(ix), Some(iy)) = (&a.iv, &b.iv) {
            if first_iv.is_none() {
                first_iv = Some(Constraint::le(
                    LinearExpr::var(rn(ix, sx)),
                    LinearExpr::var(rn(iy, sy)),
                ));
            }
        }
    }
    Some(first_iv.into_iter().collect())
}

/// Merges one "tiled pair" of kill variables into a single fresh
/// variable. Loop tiling lowers an iteration variable `i` into
/// `k*o + u` with `u` spanning a full residue range of size `k`; the
/// map `(o, u) -> w = k*o + u` is then a bijection from the box
/// `[lo_o, hi_o] x [lo_u, lo_u + k - 1]` onto the gap-free interval
/// `[k*lo_o + lo_u, k*hi_o + lo_u + k - 1]`, so replacing the pair by
/// `w` is integrally exact. A pair qualifies only when every
/// occurrence of either variable outside its own constant bounds is
/// in the combination `k*o + u` (coefficient ratio exactly `k`).
/// Returns `true` when a merge happened.
fn merge_tiled_pair(cons: &mut Vec<Constraint>, kill: &mut Vec<String>) -> bool {
    // Constant bounds of `v` from its single-variable GeZero
    // constraints; `None` when any such constraint is not `±v + c`.
    let pure_bounds = |cons: &[Constraint], v: &str| -> Option<(i64, i64, Vec<usize>)> {
        let (mut lo, mut hi): (Option<i64>, Option<i64>) = (None, None);
        let mut at = Vec::new();
        for (ci, c) in cons.iter().enumerate() {
            if !c.uses(v) || c.expr.vars().any(|n| n != v) {
                continue;
            }
            let (a, k0) = (c.expr.coeff(v), c.expr.constant());
            if c.kind != ConstraintKind::GeZero {
                return None;
            }
            match a {
                1 => lo = Some(lo.map_or(-k0, |x: i64| x.max(-k0))),
                -1 => hi = Some(hi.map_or(k0, |x: i64| x.min(k0))),
                _ => return None,
            }
            at.push(ci);
        }
        Some((lo?, hi?, at))
    };
    for oi in 0..kill.len() {
        'pair: for ui in 0..kill.len() {
            if oi == ui {
                continue;
            }
            let (o, u) = (kill[oi].clone(), kill[ui].clone());
            let Some((lo_o, hi_o, o_bounds)) = pure_bounds(cons, &o) else {
                continue;
            };
            let Some((lo_u, hi_u, u_bounds)) = pure_bounds(cons, &u) else {
                continue;
            };
            let k = hi_u - lo_u + 1;
            if k < 2 || hi_o < lo_o {
                continue;
            }
            // Every remaining occurrence must be `cu * (k*o + u)`.
            let bound_set: BTreeSet<usize> = o_bounds.iter().chain(&u_bounds).copied().collect();
            for (ci, c) in cons.iter().enumerate() {
                if bound_set.contains(&ci) || (!c.uses(&o) && !c.uses(&u)) {
                    continue;
                }
                let (co, cu) = (c.expr.coeff(&o), c.expr.coeff(&u));
                if cu == 0 || co != k * cu {
                    continue 'pair;
                }
            }
            let w = format!("~merge~{o}~{u}");
            if kill.contains(&w) || cons.iter().any(|c| c.uses(&w)) {
                continue;
            }
            let mut next = Vec::with_capacity(cons.len());
            for (ci, c) in cons.iter().enumerate() {
                if bound_set.contains(&ci) {
                    continue;
                }
                let mut c = c.clone();
                let cu = c.expr.coeff(&u);
                if cu != 0 {
                    c.expr.set_coeff(o.clone(), 0);
                    c.expr.set_coeff(u.clone(), 0);
                    c.expr.set_coeff(w.clone(), cu);
                }
                next.push(c);
            }
            let lo_w = k * lo_o + lo_u;
            let hi_w = k * hi_o + lo_u + k - 1;
            next.push(Constraint::ge(
                LinearExpr::var(w.clone()),
                LinearExpr::constant_expr(lo_w),
            ));
            next.push(Constraint::ge(
                LinearExpr::constant_expr(hi_w),
                LinearExpr::var(w.clone()),
            ));
            *cons = next;
            let (first, second) = (oi.max(ui), oi.min(ui));
            kill.remove(first);
            kill.remove(second);
            kill.push(w);
            return true;
        }
    }
    false
}

/// Exact integer projection: eliminates `kill` from `cons`, requiring
/// every elimination step to be integrally exact (substitution through a
/// unit-coefficient equality, Fourier–Motzkin over unit-coefficient
/// inequalities, or a tiled-pair merge). Returns `None` when exactness
/// cannot be guaranteed — callers must then degrade conservatively.
fn exact_project(cons: &[Constraint], kill: &[String]) -> Option<Vec<Constraint>> {
    let mut cons = cons.to_vec();
    let mut kill: Vec<String> = kill.to_vec();
    'outer: while !kill.is_empty() {
        // Tiled pairs first: unit-equality substitution through an index
        // expression like `~e1 = k*o + u` would smear `k` over `o`'s
        // bound constraints and destroy the pair structure.
        if merge_tiled_pair(&mut cons, &mut kill) {
            continue 'outer;
        }
        // Substitution through a unit-coefficient equality is exact.
        for vi in 0..kill.len() {
            let v = kill[vi].clone();
            if let Some(ci) = cons
                .iter()
                .position(|c| c.kind == ConstraintKind::Eq && c.expr.coeff(&v).abs() == 1)
            {
                let c = cons.remove(ci);
                let a = c.expr.coeff(&v);
                let mut rest = c.expr.clone();
                rest.set_coeff(v.clone(), 0);
                let rep = if a == 1 {
                    LinearExpr::zero() - rest
                } else {
                    rest
                };
                cons = cons.iter().map(|c| c.substituted(&v, &rep)).collect();
                kill.remove(vi);
                continue 'outer;
            }
        }
        // FM elimination of a variable occurring only with coefficient
        // ±1 in inequalities is exact over the integers.
        for vi in 0..kill.len() {
            let v = kill[vi].clone();
            let unit = cons.iter().all(|c| {
                !c.uses(&v) || (c.kind == ConstraintKind::GeZero && c.expr.coeff(&v).abs() == 1)
            });
            if !unit {
                continue;
            }
            let mut lowers = Vec::new();
            let mut uppers = Vec::new();
            let mut rest = Vec::new();
            for c in &cons {
                if !c.uses(&v) {
                    rest.push(c.clone());
                    continue;
                }
                let a = c.expr.coeff(&v);
                let mut r = c.expr.clone();
                r.set_coeff(v.clone(), 0);
                if a == 1 {
                    // v + r >= 0  =>  v >= -r
                    lowers.push(LinearExpr::zero() - r);
                } else {
                    // -v + r >= 0  =>  v <= r
                    uppers.push(r);
                }
            }
            for lo in &lowers {
                for up in &uppers {
                    rest.push(Constraint::ge(up.clone(), lo.clone()));
                }
            }
            cons = rest;
            kill.remove(vi);
            continue 'outer;
        }
        return None;
    }
    Some(cons)
}

/// The negation of a constraint as a union of constraints
/// (`¬(e >= 0)` is `-e - 1 >= 0`; `¬(e == 0)` is two inequalities).
fn negations(c: &Constraint) -> Vec<Constraint> {
    match c.kind {
        ConstraintKind::GeZero => {
            vec![Constraint::ge_zero(LinearExpr::zero() - c.expr.clone() - 1)]
        }
        ConstraintKind::Eq => vec![
            Constraint::ge_zero(c.expr.clone() - 1),
            Constraint::ge_zero(LinearExpr::zero() - c.expr.clone() - 1),
        ],
    }
}

/// Subtracts the conjunction `p` from every piece, producing a disjoint
/// union (`piece ∧ ¬p` decomposed by negating one constraint at a
/// time). `None` when the piece count exceeds [`PIECE_CAP`]. Rational
/// feasibility filtering keeps only possibly-nonempty pieces, which
/// over-approximates the uncovered set — the sound direction.
fn subtract(pieces: Vec<Vec<Constraint>>, p: &[Constraint]) -> Option<Vec<Vec<Constraint>>> {
    let mut out = Vec::new();
    for piece in pieces {
        for j in 0..p.len() {
            for neg in negations(&p[j]) {
                let mut np = piece.clone();
                np.extend_from_slice(&p[..j]);
                np.push(neg);
                if fm::feasible(&np) {
                    out.push(np);
                    if out.len() > PIECE_CAP {
                        return None;
                    }
                }
            }
        }
    }
    Some(out)
}

/// Live-in pieces of a read site: the sub-domain whose reads observe the
/// initial array contents (no write executes earlier and hits the same
/// element). Pieces are conjunctions over the site's own iv names.
/// `None` when the computation is not provably exact.
fn uncovered_pieces(writes: &[Site], r: &Site) -> Option<Vec<Vec<Constraint>>> {
    const W_SFX: &str = "~w";
    let mut pieces = vec![r.dom.clone()];
    for w in writes {
        if w.idx.len() != r.idx.len() {
            return None;
        }
        let (wdom, widx, wivs) = w.renamed(W_SFX);
        for case in before_cases(w, r, W_SFX, "") {
            let mut sys = wdom.clone();
            sys.extend(r.dom.iter().cloned());
            sys.extend(case);
            for (a, b) in widx.iter().zip(&r.idx) {
                sys.push(Constraint::eq(a.clone(), b.clone()));
            }
            if !fm::feasible(&sys) {
                continue;
            }
            let covered = exact_project(&sys, &wivs)?;
            pieces = subtract(pieces, &covered)?;
            if pieces.is_empty() {
                return Some(pieces);
            }
        }
    }
    Some(pieces)
}

/// Result of bounding a conflict-difference coordinate.
enum DeltaBound {
    Empty,
    Range(i64),
    Unbounded,
}

/// Bounds `|delta|` over the (rationally relaxed) system `sys`. The FM
/// relaxation can only loosen the bounds, which grows windows — sound.
fn delta_bound(sys: &[Constraint], delta: &LinearExpr) -> DeltaBound {
    if !fm::feasible(sys) {
        return DeltaBound::Empty;
    }
    let mut cons = sys.to_vec();
    cons.push(Constraint::eq(LinearExpr::var(DELTA), delta.clone()));
    let vars: BTreeSet<String> = cons
        .iter()
        .flat_map(|c| c.expr.vars().map(str::to_string).collect::<Vec<_>>())
        .filter(|v| v != DELTA)
        .collect();
    let names: Vec<&str> = vars.iter().map(String::as_str).collect();
    let proj = match fm::try_eliminate_all(&cons, &names) {
        Ok(p) => p.into_constraints(),
        Err(_) => return DeltaBound::Unbounded,
    };
    let (mut lb, mut ub): (Option<i64>, Option<i64>) = (None, None);
    for c in &proj {
        if c.expr.terms().any(|(n, _)| n != DELTA) {
            continue; // ignoring a constraint only loosens the bound
        }
        let a = c.expr.coeff(DELTA);
        let k = c.expr.constant();
        if a == 0 {
            let ok = match c.kind {
                ConstraintKind::Eq => k == 0,
                ConstraintKind::GeZero => k >= 0,
            };
            if !ok {
                return DeltaBound::Empty;
            }
            continue;
        }
        match c.kind {
            ConstraintKind::Eq => {
                if k % a != 0 {
                    return DeltaBound::Empty;
                }
                let v = -k / a;
                lb = Some(lb.map_or(v, |x: i64| x.max(v)));
                ub = Some(ub.map_or(v, |x: i64| x.min(v)));
            }
            ConstraintKind::GeZero => {
                if a > 0 {
                    let v = ceil_div(-k, a);
                    lb = Some(lb.map_or(v, |x: i64| x.max(v)));
                } else {
                    let v = floor_div(k, -a);
                    ub = Some(ub.map_or(v, |x: i64| x.min(v)));
                }
            }
        }
    }
    match (lb, ub) {
        (Some(l), Some(u)) if l > u => DeltaBound::Empty,
        (Some(l), Some(u)) => DeltaBound::Range(l.abs().max(u.abs())),
        _ => DeltaBound::Unbounded,
    }
}

/// Accumulates per-dimension windows from conflict systems.
struct Windows {
    w: Vec<i64>,
    extents: Vec<i64>,
}

impl Windows {
    fn new(extents: &[i64]) -> Self {
        Windows {
            w: vec![1; extents.len()],
            extents: extents.to_vec(),
        }
    }

    fn saturate(&mut self) {
        self.w = self.extents.clone();
    }

    /// Feeds one conflict system: `cell1 - cell2` per dimension.
    fn feed(&mut self, sys: &[Constraint], idx1: &[LinearExpr], idx2: &[LinearExpr]) {
        for d in 0..self.w.len() {
            if self.w[d] >= self.extents[d] {
                continue;
            }
            let delta = idx1[d].clone() - idx2[d].clone();
            match delta_bound(sys, &delta) {
                DeltaBound::Empty => return, // system empty for every dim
                DeltaBound::Unbounded => self.w[d] = self.extents[d],
                DeltaBound::Range(m) => {
                    self.w[d] = self.w[d].max((m + 1).min(self.extents[d]));
                }
            }
        }
    }
}

fn cells(windows: &[i64]) -> u64 {
    let p = windows
        .iter()
        .fold(1u128, |acc, &w| acc.saturating_mul(w.max(0) as u128));
    u64::try_from(p).unwrap_or(u64::MAX)
}

/// Per-array liveness summary.
#[derive(Clone, Debug)]
pub struct ArrayLiveness {
    /// Array name.
    pub array: String,
    /// Declared extents.
    pub extents: Vec<i64>,
    /// Element width in bits.
    pub elem_bits: u64,
    /// Number of static write sites.
    pub write_sites: usize,
    /// Number of static read sites.
    pub read_sites: usize,
    /// Per-dimension live windows (`W_d <= extent_d`); equal to the
    /// extents when the analysis is inexact or the array is write-only.
    pub windows: Vec<i64>,
    /// True when every window claim is backed by an exact derivation.
    pub exact: bool,
    /// Upper bound on simultaneously-live elements (`∏ windows`).
    pub high_water_cells: u64,
}

impl ArrayLiveness {
    /// Declared element count.
    pub fn declared_cells(&self) -> u64 {
        cells(&self.extents)
    }

    /// Contracted element count under the modulo remap.
    pub fn contracted_cells(&self) -> u64 {
        cells(&self.windows)
    }

    /// Declared storage bits.
    pub fn declared_bits(&self) -> u64 {
        self.declared_cells().saturating_mul(self.elem_bits)
    }

    /// Contracted storage bits.
    pub fn contracted_bits(&self) -> u64 {
        self.contracted_cells().saturating_mul(self.elem_bits)
    }

    /// True when a strictly smaller, certificate-checkable contraction
    /// is claimed. Write-only arrays are treated as live-out and never
    /// contracted; contraction of read arrays preserves the full store
    /// value stream but folds the array's final layout, so it applies
    /// to internal buffers (see DESIGN.md §14).
    pub fn contracted(&self) -> bool {
        self.exact && self.read_sites > 0 && self.contracted_cells() < self.declared_cells()
    }
}

/// A producer→consumer minimal buffer depth (POM009).
#[derive(Clone, Debug)]
pub struct FlowDepth {
    /// Producer statement.
    pub producer: String,
    /// Consumer statement.
    pub consumer: String,
    /// Array carrying the flow.
    pub array: String,
    /// Per-dimension windows of the in-flight value set.
    pub windows: Vec<i64>,
    /// Minimal buffer depth in elements (`∏ windows`).
    pub depth: u64,
}

/// A provably dead store (POM008).
#[derive(Clone, Debug)]
pub struct DeadStore {
    /// The statement whose stores are never observed.
    pub stmt: String,
    /// The array written.
    pub array: String,
    /// The later statement whose writes cover the dead footprint.
    pub killer: String,
}

/// Whole-function liveness report.
#[derive(Clone, Debug, Default)]
pub struct LiveReport {
    /// Function name.
    pub func: String,
    /// Per-array summaries, sorted by array name.
    pub arrays: Vec<ArrayLiveness>,
    /// Inter-statement flow depths.
    pub depths: Vec<FlowDepth>,
    /// Provably dead stores.
    pub dead_stores: Vec<DeadStore>,
}

impl LiveReport {
    /// Summary for one array.
    pub fn array(&self, name: &str) -> Option<&ArrayLiveness> {
        self.arrays.iter().find(|a| a.array == name)
    }
}

/// A precomputed feasible flow pair (write site, read site) with its
/// constraint system over suffixes `~a` (write) and `~b` (read).
struct FlowPair {
    wi: usize,
    ri: usize,
    sys: Vec<Constraint>,
}

fn flow_pairs(writes: &[Site], reads: &[Site]) -> Vec<FlowPair> {
    let mut out = Vec::new();
    for (wi, w) in writes.iter().enumerate() {
        let (wdom, widx, _) = w.renamed("~a");
        for (ri, r) in reads.iter().enumerate() {
            if w.idx.len() != r.idx.len() {
                continue;
            }
            let Some(order) = relaxed_before(w, r, "~a", "~b") else {
                continue;
            };
            let (rdom, ridx, _) = r.renamed("~b");
            let mut sys = wdom.clone();
            sys.extend(rdom);
            sys.extend(order);
            for (a, b) in widx.iter().zip(&ridx) {
                sys.push(Constraint::eq(a.clone(), b.clone()));
            }
            if fm::feasible(&sys) {
                out.push(FlowPair { wi, ri, sys });
            }
        }
    }
    out
}

/// Analyzes every array of `func`.
pub fn analyze_func(func: &AffineFunc) -> LiveReport {
    let sites = collect_sites(func);
    let mut report = LiveReport {
        func: func.name.clone(),
        ..Default::default()
    };
    for m in &func.memrefs {
        let extents: Vec<i64> = m.shape.iter().map(|&s| s as i64).collect();
        let elem_bits = u64::from(m.dtype.bits());
        let empty = (Vec::new(), Vec::new());
        let (writes, reads) = sites.get(&m.name).unwrap_or(&empty);
        let mut al = ArrayLiveness {
            array: m.name.clone(),
            extents: extents.clone(),
            elem_bits,
            write_sites: writes.len(),
            read_sites: reads.len(),
            windows: extents.clone(),
            exact: true,
            high_water_cells: 0,
        };
        if reads.is_empty() {
            // Write-only: live-out by assumption; bound by footprint.
            al.high_water_cells = al.declared_cells();
            report.arrays.push(al);
            continue;
        }
        if writes.len() + reads.len() > SITE_CAP
            || reads.iter().any(|r| r.idx.len() != extents.len())
            || writes.iter().any(|w| w.idx.len() != extents.len())
        {
            al.exact = false;
            al.high_water_cells = al.declared_cells();
            report.arrays.push(al);
            continue;
        }
        // Live-in pieces per read site (exact or bust).
        let mut liveins: Vec<(usize, Vec<Vec<Constraint>>)> = Vec::new();
        let mut exact = true;
        for (ri, r) in reads.iter().enumerate() {
            match uncovered_pieces(writes, r) {
                Some(pieces) => {
                    if !pieces.is_empty() {
                        liveins.push((ri, pieces));
                    }
                }
                None => {
                    exact = false;
                    break;
                }
            }
        }
        if !exact {
            al.exact = false;
            al.high_water_cells = al.declared_cells();
            report.arrays.push(al);
            continue;
        }
        let pairs = flow_pairs(writes, reads);
        let mut win = Windows::new(&extents);
        // Category A: value in flight (w1 -> r1) clobber-conflicts with
        // any write w2 scheduled inside the interval.
        'outer: for p in &pairs {
            let (_, widx1, _) = writes[p.wi].renamed("~a");
            for w2 in writes {
                let Some(o1) = relaxed_before(&writes[p.wi], w2, "~a", "~c") else {
                    continue;
                };
                let Some(o2) = relaxed_before(w2, &reads[p.ri], "~c", "~b") else {
                    continue;
                };
                let (w2dom, w2idx, _) = w2.renamed("~c");
                let mut sys = p.sys.clone();
                sys.extend(w2dom);
                sys.extend(o1);
                sys.extend(o2);
                win.feed(&sys, &widx1, &w2idx);
                if win.w == win.extents {
                    break 'outer;
                }
            }
        }
        // Category B: a live-in element (live from function start until
        // its read) conflicts with every write executed before the read.
        'outer_b: for (ri, pieces) in &liveins {
            let r = &reads[*ri];
            let (_, ridx, _) = r.renamed("~b");
            for piece in pieces {
                let piece_b: Vec<Constraint> = r.ivs.iter().fold(piece.clone(), |cs, iv| {
                    cs.iter().map(|c| c.renamed(iv, &rn(iv, "~b"))).collect()
                });
                for w2 in writes {
                    let Some(order) = relaxed_before(w2, r, "~c", "~b") else {
                        continue;
                    };
                    let (w2dom, w2idx, _) = w2.renamed("~c");
                    let mut sys = piece_b.clone();
                    sys.extend(w2dom);
                    sys.extend(order);
                    win.feed(&sys, &ridx, &w2idx);
                    if win.w == win.extents {
                        break 'outer_b;
                    }
                }
            }
        }
        // Category C: two live-in elements are simultaneously live from
        // the start, so distinct live-in cells may never share a slot.
        'outer_c: for (ri, pieces) in &liveins {
            let r1 = &reads[*ri];
            let (_, r1idx, _) = r1.renamed("~a");
            for piece in pieces {
                let piece_a: Vec<Constraint> = r1.ivs.iter().fold(piece.clone(), |cs, iv| {
                    cs.iter().map(|c| c.renamed(iv, &rn(iv, "~a"))).collect()
                });
                for (rj, pieces2) in &liveins {
                    let r2 = &reads[*rj];
                    let (_, r2idx, _) = r2.renamed("~b");
                    for piece2 in pieces2 {
                        let piece_b: Vec<Constraint> =
                            r2.ivs.iter().fold(piece2.clone(), |cs, iv| {
                                cs.iter().map(|c| c.renamed(iv, &rn(iv, "~b"))).collect()
                            });
                        let mut sys = piece_a.clone();
                        sys.extend(piece_b);
                        win.feed(&sys, &r1idx, &r2idx);
                        if win.w == win.extents {
                            break 'outer_c;
                        }
                    }
                }
            }
        }
        al.windows = win.w.clone();
        al.high_water_cells = cells(&al.windows);
        let al_exact = al.exact;
        report.arrays.push(al);

        // POM009: per inter-statement flow edge, the in-flight window.
        let mut edges: BTreeSet<(String, String)> = BTreeSet::new();
        for p in &pairs {
            let (ps, cs) = (&writes[p.wi].stmt, &reads[p.ri].stmt);
            if ps != cs {
                edges.insert((ps.clone(), cs.clone()));
            }
        }
        for (ps, cs) in edges {
            let mut ewin = Windows::new(&extents);
            if !al_exact {
                ewin.saturate();
            } else {
                for p in &pairs {
                    if writes[p.wi].stmt != ps || reads[p.ri].stmt != cs {
                        continue;
                    }
                    let (_, widx1, _) = writes[p.wi].renamed("~a");
                    for w2 in writes.iter().filter(|w| w.stmt == ps) {
                        let Some(o1) = relaxed_before(&writes[p.wi], w2, "~a", "~c") else {
                            continue;
                        };
                        let Some(o2) = relaxed_before(w2, &reads[p.ri], "~c", "~b") else {
                            continue;
                        };
                        let (w2dom, w2idx, _) = w2.renamed("~c");
                        let mut sys = p.sys.clone();
                        sys.extend(w2dom);
                        sys.extend(o1);
                        sys.extend(o2);
                        ewin.feed(&sys, &widx1, &w2idx);
                    }
                }
            }
            report.depths.push(FlowDepth {
                producer: ps,
                consumer: cs,
                array: m.name.clone(),
                depth: cells(&ewin.w),
                windows: ewin.w,
            });
        }

        // POM008: a store is dead when a strictly later top-level nest
        // provably overwrites its whole footprint and no read in between
        // can observe it.
        for (si, s) in writes.iter().enumerate() {
            let Some(es) = element_set(s) else { continue };
            let killer = writes.iter().enumerate().find(|(ki, k)| {
                *ki != si
                    && k.top_pos() > s.top_pos()
                    && element_set(k).is_some_and(|ek| covered_by(&es, &ek))
                    && reads
                        .iter()
                        .all(|r| r.top_pos() > k.top_pos() || !observable(s, r))
            });
            if let Some((_, k)) = killer {
                report.dead_stores.push(DeadStore {
                    stmt: s.stmt.clone(),
                    array: m.name.clone(),
                    killer: k.stmt.clone(),
                });
            }
        }
    }
    report
}

/// The element footprint of a site as an exact set over `~e{d}` dims.
fn element_set(s: &Site) -> Option<Vec<Constraint>> {
    let mut sys = s.dom.clone();
    for (d, e) in s.idx.iter().enumerate() {
        sys.push(Constraint::eq(LinearExpr::var(format!("~e{d}")), e.clone()));
    }
    exact_project(&sys, &s.ivs)
}

/// True when `a ⊆ b`, both exact element sets over `~e{d}` dims.
fn covered_by(a: &[Constraint], b: &[Constraint]) -> bool {
    matches!(subtract(vec![a.to_vec()], b), Some(pieces) if pieces.is_empty())
}

/// True when some read instance of `r` may observe a write of `s`.
fn observable(s: &Site, r: &Site) -> bool {
    if s.idx.len() != r.idx.len() {
        return true;
    }
    let Some(order) = relaxed_before(s, r, "~a", "~b") else {
        return false;
    };
    let (sdom, sidx, _) = s.renamed("~a");
    let (rdom, ridx, _) = r.renamed("~b");
    let mut sys = sdom;
    sys.extend(rdom);
    sys.extend(order);
    for (a, b) in sidx.iter().zip(&ridx) {
        sys.push(Constraint::eq(a.clone(), b.clone()));
    }
    fm::feasible(&sys)
}

/// Contracted storage bits for every array with a claimed contraction.
pub fn contracted_footprints(func: &AffineFunc) -> BTreeMap<String, u64> {
    analyze_func(func)
        .arrays
        .iter()
        .filter(|a| a.contracted())
        .map(|a| (a.array.clone(), a.contracted_bits()))
        .collect()
}

#[cfg(test)]
mod tests;
