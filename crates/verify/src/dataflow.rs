//! A reusable monotone dataflow framework over the annotated affine IR.
//!
//! The framework runs a forward or backward walk over the structured op
//! tree of an [`AffineFunc`], propagating an abstract environment (one
//! abstract value per induction variable) to a fixpoint. Two abstract
//! domains ship with it — [`Interval`]s and [`KnownBits`] — powering
//! three client analyses:
//!
//! * **value-range analysis** ([`analyze_ranges`]): the interval of every
//!   induction variable at every store site, with `affine.if` guard
//!   narrowing; consumed by `pom-lint`'s POM002 out-of-bounds check to
//!   discharge accesses that are clamped by guards or divided bounds;
//! * **uninitialized-read detection** ([`uninit_reads`]): loads from an
//!   intermediate memref whose index box is not covered by the store
//!   hull accumulated so far;
//! * **bitwidth-narrowing hints** ([`narrowing_hints`]): the minimal
//!   counter width per loop, consumed by the HLS cost model
//!   (`CostModel::loop_control_for_bits`) to price narrowed loop
//!   control.
//!
//! Every entry point reports the number of fixpoint iterations it took,
//! which the DSE surfaces in `DseStats::range_iterations`.

use pom_ir::{AffineFunc, AffineOp, ForOp, StoreOp};
use pom_poly::{ceil_div, floor_div, Constraint, ConstraintKind, LinearExpr};
use std::collections::BTreeMap;

/// A lattice value for the generic fixpoint engine.
pub trait AbstractValue: Clone + PartialEq + std::fmt::Debug {
    /// The least element (unreachable / contradiction).
    fn bottom() -> Self;
    /// The greatest element (no information).
    fn top() -> Self;
    /// Least upper bound.
    fn join(&self, other: &Self) -> Self;
    /// True for the least element.
    fn is_bottom(&self) -> bool;
}

// ---------------------------------------------------------------------
// Interval domain
// ---------------------------------------------------------------------

/// A (possibly unbounded) integer interval `[lo, hi]`. `lo > hi` encodes
/// bottom; `i64::MIN`/`i64::MAX` encode the missing bound.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interval {
    /// Inclusive lower bound (`i64::MIN` = unbounded below).
    pub lo: i64,
    /// Inclusive upper bound (`i64::MAX` = unbounded above).
    pub hi: i64,
}

impl Interval {
    /// The interval `[lo, hi]`.
    pub fn new(lo: i64, hi: i64) -> Self {
        Interval { lo, hi }
    }

    /// The singleton `[c, c]`.
    pub fn constant(c: i64) -> Self {
        Interval { lo: c, hi: c }
    }

    /// True when the interval contains `x`.
    pub fn contains(&self, x: i64) -> bool {
        self.lo <= x && x <= self.hi
    }

    /// Greatest lower bound (intersection).
    pub fn meet(&self, other: &Self) -> Self {
        Interval {
            lo: self.lo.max(other.lo),
            hi: self.hi.min(other.hi),
        }
    }

    /// Saturating scale by a (possibly negative) constant.
    pub fn scaled(&self, c: i64) -> Self {
        if self.is_bottom() {
            return Self::bottom();
        }
        let a = self.lo.saturating_mul(c);
        let b = self.hi.saturating_mul(c);
        Interval {
            lo: a.min(b),
            hi: a.max(b),
        }
    }

    /// Saturating sum of two intervals.
    pub fn plus(&self, other: &Self) -> Self {
        if self.is_bottom() || other.is_bottom() {
            return Self::bottom();
        }
        Interval {
            lo: self.lo.saturating_add(other.lo),
            hi: self.hi.saturating_add(other.hi),
        }
    }

    /// `floor(self / d)` (d > 0), exact on the endpoints; the
    /// `i64::MIN`/`i64::MAX` unbounded sentinels are preserved.
    pub fn floor_divided(&self, d: i64) -> Self {
        if self.is_bottom() {
            return Self::bottom();
        }
        let div = |x: i64| {
            if x == i64::MIN || x == i64::MAX {
                x
            } else {
                floor_div(x, d)
            }
        };
        Interval {
            lo: div(self.lo),
            hi: div(self.hi),
        }
    }

    /// `ceil(self / d)` (d > 0), exact on the endpoints; the
    /// `i64::MIN`/`i64::MAX` unbounded sentinels are preserved.
    pub fn ceil_divided(&self, d: i64) -> Self {
        if self.is_bottom() {
            return Self::bottom();
        }
        let div = |x: i64| {
            if x == i64::MIN || x == i64::MAX {
                x
            } else {
                ceil_div(x, d)
            }
        };
        Interval {
            lo: div(self.lo),
            hi: div(self.hi),
        }
    }

    /// Number of bits needed for an unsigned counter covering the
    /// interval, or `None` when the range is unbounded or negative.
    pub fn unsigned_bits(&self) -> Option<u32> {
        if self.is_bottom() || self.lo < 0 || self.hi == i64::MAX {
            return None;
        }
        Some((64 - (self.hi as u64).leading_zeros()).max(1))
    }
}

impl AbstractValue for Interval {
    fn bottom() -> Self {
        Interval {
            lo: i64::MAX,
            hi: i64::MIN,
        }
    }

    fn top() -> Self {
        Interval {
            lo: i64::MIN,
            hi: i64::MAX,
        }
    }

    fn join(&self, other: &Self) -> Self {
        if self.is_bottom() {
            return *other;
        }
        if other.is_bottom() {
            return *self;
        }
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    fn is_bottom(&self) -> bool {
        self.lo > self.hi
    }
}

// ---------------------------------------------------------------------
// Known-bits domain
// ---------------------------------------------------------------------

/// Two's-complement known-bits over 64-bit values: bit `i` of `zeros`
/// set means the value's bit `i` is provably 0; `ones` likewise for 1.
/// A bit set in both encodes bottom (contradiction).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KnownBits {
    /// Bits known to be zero.
    pub zeros: u64,
    /// Bits known to be one.
    pub ones: u64,
}

impl KnownBits {
    /// All 64 bits of a constant are known.
    pub fn constant(c: i64) -> Self {
        KnownBits {
            zeros: !(c as u64),
            ones: c as u64,
        }
    }

    /// Known bits of a non-negative interval: every bit above the
    /// highest bit of `hi` is known zero.
    pub fn from_interval(iv: &Interval) -> Self {
        match iv.unsigned_bits() {
            Some(bits) if bits < 64 => KnownBits {
                zeros: !0u64 << bits,
                ones: 0,
            },
            _ => Self::top(),
        }
    }

    /// Known bits after multiplying by `c`: a power-of-two factor shifts
    /// known-zero low bits in; anything else only preserves the sign of
    /// knowledge about trailing zeros.
    pub fn scaled(&self, c: i64) -> Self {
        if c == 0 {
            return Self::constant(0);
        }
        let tz = c.trailing_zeros();
        if c.unsigned_abs().is_power_of_two() && c > 0 {
            KnownBits {
                zeros: (self.zeros << tz) | ((1u64 << tz) - 1),
                ones: self.ones << tz,
            }
        } else {
            // Trailing zeros of the product are at least tz plus the
            // value's own known trailing zeros.
            let vtz = (self.zeros.trailing_ones()).min(63);
            let total = (tz + vtz).min(63);
            KnownBits {
                zeros: (1u64 << total) - 1,
                ones: 0,
            }
        }
    }

    /// Known bits of a sum: only trailing zeros common to both operands
    /// survive addition (no carries can enter below them).
    pub fn plus(&self, other: &Self) -> Self {
        let tz = self
            .zeros
            .trailing_ones()
            .min(other.zeros.trailing_ones())
            .min(63);
        KnownBits {
            zeros: (1u64 << tz) - 1,
            ones: 0,
        }
    }

    /// Number of provably-zero trailing bits (the access-stride fact
    /// partitioning analyses care about).
    pub fn trailing_zeros(&self) -> u32 {
        self.zeros.trailing_ones()
    }
}

impl AbstractValue for KnownBits {
    fn bottom() -> Self {
        KnownBits {
            zeros: !0,
            ones: !0,
        }
    }

    fn top() -> Self {
        KnownBits { zeros: 0, ones: 0 }
    }

    fn join(&self, other: &Self) -> Self {
        KnownBits {
            zeros: self.zeros & other.zeros,
            ones: self.ones & other.ones,
        }
    }

    fn is_bottom(&self) -> bool {
        self.zeros & self.ones != 0
    }
}

// ---------------------------------------------------------------------
// The fixpoint engine
// ---------------------------------------------------------------------

/// An abstract environment: one value per induction variable.
pub type Env<V> = BTreeMap<String, V>;

/// Walk direction of the fixpoint engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Program order (loop bounds feed inner scopes).
    Forward,
    /// Reverse program order (demands feed outer scopes).
    Backward,
}

/// Transfer functions of one analysis over the affine op tree.
pub trait Transfer {
    /// The abstract value propagated per induction variable.
    type Value: AbstractValue;

    /// Abstract value of a loop's induction variable given the
    /// environment of the enclosing scope.
    fn iv_entry(&self, op: &ForOp, env: &Env<Self::Value>) -> Self::Value;

    /// Refines the environment under one `affine.if` condition.
    fn refine(&self, _cond: &Constraint, _env: &mut Env<Self::Value>) {}

    /// Visits a store site with the environment in effect there.
    fn store(&mut self, _op: &StoreOp, _env: &Env<Self::Value>) {}
}

/// Runs `t` over the function in the given direction until the per-loop
/// environments stabilize. Returns the number of fixpoint iterations
/// (re-walks of the op tree); the structured affine IR converges in one
/// pass plus the stabilization check, but bounds that reference outer
/// ivs (skewed/triangular nests) are re-evaluated until stable.
pub fn run<T: Transfer>(f: &AffineFunc, dir: Direction, t: &mut T) -> usize {
    let mut iv_state: BTreeMap<String, T::Value> = BTreeMap::new();
    let mut iterations = 0;
    loop {
        iterations += 1;
        let mut changed = false;
        let mut env: Env<T::Value> = Env::new();
        walk_ops(&f.body, dir, t, &mut env, &mut iv_state, &mut changed);
        if !changed || iterations >= 64 {
            return iterations;
        }
    }
}

fn walk_ops<T: Transfer>(
    ops: &[AffineOp],
    dir: Direction,
    t: &mut T,
    env: &mut Env<T::Value>,
    iv_state: &mut BTreeMap<String, T::Value>,
    changed: &mut bool,
) {
    let order: Vec<&AffineOp> = match dir {
        Direction::Forward => ops.iter().collect(),
        Direction::Backward => ops.iter().rev().collect(),
    };
    for op in order {
        match op {
            AffineOp::For(l) => {
                let v = t.iv_entry(l, env);
                let merged = match iv_state.get(&l.iv) {
                    Some(prev) => prev.join(&v),
                    None => v,
                };
                if iv_state.get(&l.iv) != Some(&merged) {
                    iv_state.insert(l.iv.clone(), merged.clone());
                    *changed = true;
                }
                let saved = env.insert(l.iv.clone(), merged);
                walk_ops(&l.body, dir, t, env, iv_state, changed);
                match saved {
                    Some(s) => {
                        env.insert(l.iv.clone(), s);
                    }
                    None => {
                        env.remove(&l.iv);
                    }
                }
            }
            AffineOp::If(i) => {
                let mut guarded = env.clone();
                for c in &i.conds {
                    t.refine(c, &mut guarded);
                }
                walk_ops(&i.body, dir, t, &mut guarded, iv_state, changed);
            }
            AffineOp::Store(s) => t.store(s, env),
        }
    }
}

// ---------------------------------------------------------------------
// Value-range analysis
// ---------------------------------------------------------------------

/// Evaluates an affine expression over an interval environment.
/// Variables absent from `env` are unbounded.
pub fn expr_interval(e: &LinearExpr, env: &Env<Interval>) -> Interval {
    let mut acc = Interval::constant(e.constant());
    for (v, c) in e.terms() {
        let r = env.get(v).copied().unwrap_or_else(Interval::top);
        acc = acc.plus(&r.scaled(c));
    }
    acc
}

/// Known bits of an affine expression over an interval environment.
pub fn expr_known_bits(e: &LinearExpr, env: &Env<Interval>) -> KnownBits {
    let mut acc = KnownBits::constant(e.constant());
    for (v, c) in e.terms() {
        let r = env.get(v).copied().unwrap_or_else(Interval::top);
        acc = acc.plus(&KnownBits::from_interval(&r).scaled(c));
    }
    acc
}

/// The results of the forward interval analysis.
#[derive(Clone, Debug, Default)]
pub struct ValueRanges {
    /// Interval of every induction variable (joined over all paths).
    pub iv_ranges: BTreeMap<String, Interval>,
    /// Environment in effect at each store, keyed by
    /// `(statement, occurrence index)`.
    pub at_store: BTreeMap<(String, usize), Env<Interval>>,
    /// Fixpoint iterations the walk took.
    pub iterations: usize,
}

struct RangeTransfer {
    at_store: BTreeMap<(String, usize), Env<Interval>>,
    seen: BTreeMap<String, usize>,
}

impl Transfer for RangeTransfer {
    type Value = Interval;

    fn iv_entry(&self, op: &ForOp, env: &Env<Interval>) -> Interval {
        // lb = max over candidates of ceil(e/d); ub = min of floor(e/d).
        let lo = op
            .lbs
            .iter()
            .map(|b| expr_interval(&b.expr, env).ceil_divided(b.div).lo)
            .max()
            .unwrap_or(i64::MIN);
        let hi = op
            .ubs
            .iter()
            .map(|b| expr_interval(&b.expr, env).floor_divided(b.div).hi)
            .min()
            .unwrap_or(i64::MAX);
        Interval { lo, hi }
    }

    fn refine(&self, cond: &Constraint, env: &mut Env<Interval>) {
        // A guard `e >= 0` (or `e == 0`) with a single variable term
        // `c·x + k` narrows x: c·x >= -k.
        let e = &cond.expr;
        let vars: Vec<&str> = e.vars().collect();
        if vars.len() != 1 {
            return;
        }
        let x = vars[0].to_string();
        let c = e.coeff(&x);
        let k = e.constant();
        if c == 0 {
            return;
        }
        let cur = env.get(&x).copied().unwrap_or_else(Interval::top);
        // c·x + k >= 0  ⟺  x >= ceil(-k/c) (c>0) or x <= floor(-k/-c)·…
        let bound = if c > 0 {
            Interval {
                lo: ceil_div(-k, c),
                hi: i64::MAX,
            }
        } else {
            Interval {
                lo: i64::MIN,
                hi: floor_div(k, -c),
            }
        };
        let mut narrowed = cur.meet(&bound);
        if cond.kind == ConstraintKind::Eq {
            // e == 0 additionally bounds from the other side.
            let other = if c > 0 {
                Interval {
                    lo: i64::MIN,
                    hi: floor_div(-k, c),
                }
            } else {
                Interval {
                    lo: ceil_div(k, -c),
                    hi: i64::MAX,
                }
            };
            narrowed = narrowed.meet(&other);
        }
        env.insert(x, narrowed);
    }

    fn store(&mut self, op: &StoreOp, env: &Env<Interval>) {
        let n = self.seen.entry(op.stmt.clone()).or_insert(0);
        self.at_store
            .entry((op.stmt.clone(), *n))
            .and_modify(|prev| {
                for (k, v) in env {
                    let merged = prev.get(k).map(|p| p.join(v)).unwrap_or(*v);
                    prev.insert(k.clone(), merged);
                }
            })
            .or_insert_with(|| env.clone());
        *n += 1;
    }
}

/// Forward interval analysis over the whole function.
pub fn analyze_ranges(f: &AffineFunc) -> ValueRanges {
    let mut t = RangeTransfer {
        at_store: BTreeMap::new(),
        seen: BTreeMap::new(),
    };
    // Reset per-iteration occurrence counters via a wrapper walk: the
    // engine may re-walk the tree, so counters restart each pass.
    let mut iv_state: BTreeMap<String, Interval> = BTreeMap::new();
    let mut iterations = 0;
    loop {
        iterations += 1;
        t.seen.clear();
        let mut changed = false;
        let mut env: Env<Interval> = Env::new();
        walk_ops(
            &f.body,
            Direction::Forward,
            &mut t,
            &mut env,
            &mut iv_state,
            &mut changed,
        );
        if !changed || iterations >= 64 {
            break;
        }
    }
    ValueRanges {
        iv_ranges: iv_state,
        at_store: t.at_store,
        iterations,
    }
}

impl ValueRanges {
    /// Interval constraints (`lo <= iv <= hi`) for every analyzed iv,
    /// ready to conjoin onto a Fourier–Motzkin system.
    pub fn constraints(&self) -> Vec<Constraint> {
        let mut out = Vec::new();
        for (iv, r) in &self.iv_ranges {
            if r.is_bottom() {
                continue;
            }
            if r.lo != i64::MIN {
                out.push(Constraint::ge(
                    LinearExpr::var(iv),
                    LinearExpr::constant_expr(r.lo),
                ));
            }
            if r.hi != i64::MAX {
                out.push(Constraint::le(
                    LinearExpr::var(iv),
                    LinearExpr::constant_expr(r.hi),
                ));
            }
        }
        out
    }
}

// ---------------------------------------------------------------------
// Uninitialized-read detection
// ---------------------------------------------------------------------

/// A load that may observe memory no store of this function produced.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UninitRead {
    /// Reading statement.
    pub stmt: String,
    /// Array read.
    pub array: String,
    /// Rendering of the offending access.
    pub access: String,
    /// Why the read is suspicious.
    pub detail: String,
}

/// Per-array box hull of stored cells, grown as the forward walk
/// completes store sites.
type Hull = BTreeMap<String, Vec<Interval>>;

fn access_box(idx: &[LinearExpr], env: &Env<Interval>) -> Vec<Interval> {
    idx.iter().map(|e| expr_interval(e, env)).collect()
}

fn box_covers(hull: &[Interval], b: &[Interval]) -> bool {
    hull.len() == b.len()
        && hull
            .iter()
            .zip(b)
            .all(|(h, x)| !x.is_bottom() && h.lo <= x.lo && x.hi <= h.hi)
}

/// Detects loads of *intermediate* arrays (arrays some statement of the
/// function stores) whose index box is not covered by the store hull
/// accumulated before the reading statement — a read of possibly
/// uninitialized cells.
///
/// Self-accumulations (`tmp[i] = tmp[i] + …` — the store's own array
/// re-read at the same indices) read the array's *initial* contents by
/// design and are not reported. The check is a warning-level
/// approximation: hulls are per-array bounding boxes joined over all
/// stores seen so far, so partially-initialized interiors can escape it,
/// but every report points at a load no prior store can have produced.
pub fn uninit_reads(f: &AffineFunc) -> (Vec<UninitRead>, usize) {
    let ranges = analyze_ranges(f);
    let written: std::collections::BTreeSet<String> =
        f.stores().iter().map(|s| s.dest.array.clone()).collect();
    let mut hull: Hull = Hull::new();
    let mut out = Vec::new();
    let mut occ: BTreeMap<String, usize> = BTreeMap::new();
    visit_uninit(&f.body, &ranges, &written, &mut hull, &mut occ, &mut out);
    (out, ranges.iterations)
}

fn visit_uninit(
    ops: &[AffineOp],
    ranges: &ValueRanges,
    written: &std::collections::BTreeSet<String>,
    hull: &mut Hull,
    occ: &mut BTreeMap<String, usize>,
    out: &mut Vec<UninitRead>,
) {
    for op in ops {
        match op {
            AffineOp::For(l) => visit_uninit(&l.body, ranges, written, hull, occ, out),
            AffineOp::If(i) => visit_uninit(&i.body, ranges, written, hull, occ, out),
            AffineOp::Store(s) => {
                let n = occ.entry(s.stmt.clone()).or_insert(0);
                let env = ranges
                    .at_store
                    .get(&(s.stmt.clone(), *n))
                    .cloned()
                    .unwrap_or_default();
                *n += 1;
                for load in s.value.loads() {
                    if !written.contains(&load.array) {
                        continue; // input placeholder: initialized by caller
                    }
                    if load.array == s.dest.array && load.indices == s.dest.indices {
                        continue; // accumulator pattern reads its own initial value
                    }
                    let b = access_box(&load.indices, &env);
                    let covered = hull
                        .get(&load.array)
                        .map(|h| box_covers(h, &b))
                        .unwrap_or(false);
                    if !covered {
                        out.push(UninitRead {
                            stmt: s.stmt.clone(),
                            array: load.array.clone(),
                            access: load.to_string(),
                            detail: format!(
                                "no prior store covers the index box {:?}",
                                b.iter().map(|i| (i.lo, i.hi)).collect::<Vec<_>>()
                            ),
                        });
                    }
                }
                // Grow the hull with this store.
                let b = access_box(&s.dest.indices, &env);
                hull.entry(s.dest.array.clone())
                    .and_modify(|h| {
                        for (hd, bd) in h.iter_mut().zip(&b) {
                            *hd = hd.join(bd);
                        }
                    })
                    .or_insert(b);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Bitwidth-narrowing hints
// ---------------------------------------------------------------------

/// A loop counter that provably fits a narrower integer type.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BitwidthHint {
    /// Induction variable.
    pub iv: String,
    /// Proven value range.
    pub range: (i64, i64),
    /// Minimal unsigned counter width in bits.
    pub bits: u32,
    /// Provably-zero trailing bits of the iv (stride alignment).
    pub trailing_zero_bits: u32,
}

/// Derives per-loop counter-narrowing hints from the interval and
/// known-bits analyses. Only bounded, non-negative ranges produce hints.
pub fn narrowing_hints(f: &AffineFunc) -> (Vec<BitwidthHint>, usize) {
    let ranges = analyze_ranges(f);
    let mut out = Vec::new();
    for (iv, r) in &ranges.iv_ranges {
        if let Some(bits) = r.unsigned_bits() {
            let kb = KnownBits::from_interval(r);
            out.push(BitwidthHint {
                iv: iv.clone(),
                range: (r.lo, r.hi),
                bits,
                trailing_zero_bits: kb.trailing_zeros().min(bits - 1),
            });
        }
    }
    (out, ranges.iterations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pom_dsl::DataType;
    use pom_ir::{ForOp, IfOp, MemRefDecl, StoreOp};
    use pom_poly::{AccessFn, Bound};

    fn for_loop(iv: &str, lb: i64, ub: i64, body: Vec<AffineOp>) -> AffineOp {
        AffineOp::For(ForOp {
            extra: Vec::new(),
            iv: iv.into(),
            lbs: vec![Bound::new(LinearExpr::constant_expr(lb), 1)],
            ubs: vec![Bound::new(LinearExpr::constant_expr(ub), 1)],
            attrs: pom_ir::HlsAttrs::none(),
            body,
        })
    }

    fn store(stmt: &str, array: &str, idx: LinearExpr, value: pom_dsl::Expr) -> AffineOp {
        AffineOp::Store(StoreOp {
            stmt: stmt.into(),
            dest: AccessFn::new(array, vec![idx]),
            value,
        })
    }

    #[test]
    fn interval_lattice_laws() {
        let a = Interval::new(0, 7);
        let b = Interval::new(4, 15);
        assert_eq!(a.join(&b), Interval::new(0, 15));
        assert_eq!(a.meet(&b), Interval::new(4, 7));
        assert!(Interval::bottom().is_bottom());
        assert_eq!(a.join(&Interval::bottom()), a);
        assert_eq!(a.scaled(-2), Interval::new(-14, 0));
        assert_eq!(Interval::new(0, 31).unsigned_bits(), Some(5));
        assert_eq!(Interval::new(-1, 3).unsigned_bits(), None);
    }

    #[test]
    fn known_bits_scaling_and_sum() {
        let i = KnownBits::from_interval(&Interval::new(0, 15)); // 4 bits
        assert_eq!(i.zeros, !0u64 << 4);
        let scaled = i.scaled(4); // 4*i: two trailing zeros
        assert_eq!(scaled.trailing_zeros(), 2);
        let sum = scaled.plus(&KnownBits::constant(0));
        assert!(sum.trailing_zeros() >= 2);
        assert!(KnownBits::bottom().is_bottom());
    }

    #[test]
    fn ranges_track_nested_and_guarded_ivs() {
        // for i in 0..31 { if (i <= 15) { A[i] = 1.0 } }
        let guard = Constraint::ge_zero(LinearExpr::constant_expr(15) - LinearExpr::var("i"));
        let f = {
            let mut f = AffineFunc::new("t");
            f.memrefs.push(MemRefDecl::new("A", &[16], DataType::F32));
            f.body.push(for_loop(
                "i",
                0,
                31,
                vec![AffineOp::If(IfOp {
                    conds: vec![guard],
                    body: vec![store(
                        "S",
                        "A",
                        LinearExpr::var("i"),
                        pom_dsl::Expr::Const(1.0),
                    )],
                })],
            ));
            f
        };
        let r = analyze_ranges(&f);
        assert_eq!(r.iv_ranges["i"], Interval::new(0, 31));
        let env = &r.at_store[&("S".to_string(), 0)];
        assert_eq!(env["i"], Interval::new(0, 15), "guard narrows the env");
        assert!(r.iterations <= 3);
    }

    #[test]
    fn triangular_bounds_converge() {
        // for i in 0..7 { for j in i..7 { A[j] = 1.0 } }
        let inner = AffineOp::For(ForOp {
            extra: Vec::new(),
            iv: "j".into(),
            lbs: vec![Bound::new(LinearExpr::var("i"), 1)],
            ubs: vec![Bound::new(LinearExpr::constant_expr(7), 1)],
            attrs: pom_ir::HlsAttrs::none(),
            body: vec![store(
                "S",
                "A",
                LinearExpr::var("j"),
                pom_dsl::Expr::Const(0.0),
            )],
        });
        let mut f = AffineFunc::new("t");
        f.memrefs.push(MemRefDecl::new("A", &[8], DataType::F32));
        f.body.push(for_loop("i", 0, 7, vec![inner]));
        let r = analyze_ranges(&f);
        assert_eq!(r.iv_ranges["j"], Interval::new(0, 7));
    }

    #[test]
    fn uninit_read_flags_gap_and_accepts_covered() {
        // S1 writes T[0..7]; S2 reads T[i] over 0..7 (covered), S3 reads
        // T[i+8] over 0..7 (uncovered).
        let mut f = AffineFunc::new("t");
        f.memrefs.push(MemRefDecl::new("T", &[16], DataType::F32));
        f.memrefs.push(MemRefDecl::new("Y", &[16], DataType::F32));
        let load = |e: LinearExpr| pom_dsl::Expr::Load(AccessFn::new("T", vec![e]));
        f.body.push(for_loop(
            "i",
            0,
            7,
            vec![store(
                "S1",
                "T",
                LinearExpr::var("i"),
                pom_dsl::Expr::Const(1.0),
            )],
        ));
        f.body.push(for_loop(
            "j",
            0,
            7,
            vec![store(
                "S2",
                "Y",
                LinearExpr::var("j"),
                load(LinearExpr::var("j")),
            )],
        ));
        f.body.push(for_loop(
            "k",
            0,
            7,
            vec![store(
                "S3",
                "Y",
                LinearExpr::var("k"),
                load(LinearExpr::var("k") + 8),
            )],
        ));
        let (reads, _) = uninit_reads(&f);
        assert_eq!(reads.len(), 1, "{reads:?}");
        assert_eq!(reads[0].stmt, "S3");
        assert_eq!(reads[0].array, "T");
    }

    #[test]
    fn accumulator_self_read_is_not_flagged() {
        let mut f = AffineFunc::new("t");
        f.memrefs.push(MemRefDecl::new("q", &[8], DataType::F32));
        let body = store(
            "S",
            "q",
            LinearExpr::var("i"),
            pom_dsl::Expr::Load(AccessFn::new("q", vec![LinearExpr::var("i")]))
                + pom_dsl::Expr::Const(1.0),
        );
        f.body.push(for_loop("i", 0, 7, vec![body]));
        let (reads, _) = uninit_reads(&f);
        assert!(reads.is_empty(), "{reads:?}");
    }

    #[test]
    fn narrowing_hints_report_counter_widths() {
        let mut f = AffineFunc::new("t");
        f.memrefs.push(MemRefDecl::new("A", &[64], DataType::F32));
        f.body.push(for_loop(
            "i",
            0,
            63,
            vec![store(
                "S",
                "A",
                LinearExpr::var("i"),
                pom_dsl::Expr::Const(0.0),
            )],
        ));
        let (hints, iters) = narrowing_hints(&f);
        assert_eq!(hints.len(), 1);
        assert_eq!(hints[0].bits, 6);
        assert_eq!(hints[0].range, (0, 63));
        assert!(iters >= 1);
    }
}
