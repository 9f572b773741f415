//! Value-range analysis over the annotated affine IR.
//!
//! A forward walk over the structured op tree of an [`AffineFunc`]
//! propagates one integer [`Interval`] per induction variable — loop
//! bounds feed inner scopes, `affine.if` guards narrow the variables
//! they constrain — to a fixpoint ([`analyze_ranges`]). `pom-lint`'s
//! POM002 out-of-bounds check conjoins the resulting ranges to discharge
//! accesses clamped by guards or divided bounds, and the DSE surfaces
//! the fixpoint iteration count in `DseStats::range_iterations`.

use pom_ir::{AffineFunc, AffineOp, ForOp};
use pom_poly::{ceil_div, floor_div, Constraint, ConstraintKind, LinearExpr};
use std::collections::BTreeMap;

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

    /// The least element (unreachable / contradiction).
    pub fn bottom() -> Self {
        Interval::new(i64::MAX, i64::MIN)
    }

    /// The greatest element (no information).
    pub fn top() -> Self {
        Interval::new(i64::MIN, i64::MAX)
    }

    /// True for the least element.
    pub fn is_bottom(&self) -> bool {
        self.lo > self.hi
    }

    /// Least upper bound.
    pub fn join(&self, other: &Self) -> Self {
        if self.is_bottom() {
            return *other;
        }
        if other.is_bottom() {
            return *self;
        }
        Interval::new(self.lo.min(other.lo), self.hi.max(other.hi))
    }

    /// Greatest lower bound (intersection).
    pub fn meet(&self, other: &Self) -> Self {
        Interval::new(self.lo.max(other.lo), self.hi.min(other.hi))
    }

    /// Saturating scale by a (possibly negative) constant.
    pub fn scaled(&self, c: i64) -> Self {
        if self.is_bottom() {
            return Self::bottom();
        }
        let a = self.lo.saturating_mul(c);
        let b = self.hi.saturating_mul(c);
        Interval::new(a.min(b), a.max(b))
    }

    /// Saturating sum of two intervals.
    pub fn plus(&self, other: &Self) -> Self {
        if self.is_bottom() || other.is_bottom() {
            return Self::bottom();
        }
        Interval::new(
            self.lo.saturating_add(other.lo),
            self.hi.saturating_add(other.hi),
        )
    }

    /// `floor(self / d)` (d > 0), exact on the endpoints; the
    /// `i64::MIN`/`i64::MAX` unbounded sentinels are preserved.
    pub fn floor_divided(&self, d: i64) -> Self {
        self.endpoints(|x| floor_div(x, d))
    }

    /// `ceil(self / d)` (d > 0), exact on the endpoints; the
    /// `i64::MIN`/`i64::MAX` unbounded sentinels are preserved.
    pub fn ceil_divided(&self, d: i64) -> Self {
        self.endpoints(|x| ceil_div(x, d))
    }

    /// `f` applied to both finite endpoints of a non-bottom interval.
    fn endpoints(&self, f: impl Fn(i64) -> i64) -> Self {
        if self.is_bottom() {
            return Self::bottom();
        }
        let g = |x: i64| {
            if x == i64::MIN || x == i64::MAX {
                x
            } else {
                f(x)
            }
        };
        Interval::new(g(self.lo), g(self.hi))
    }
}

/// An interval environment: one interval per induction variable.
type Env = BTreeMap<String, Interval>;

/// Evaluates an affine expression over an interval environment.
/// Variables absent from `env` are unbounded.
pub fn expr_interval(e: &LinearExpr, env: &BTreeMap<String, Interval>) -> Interval {
    let mut acc = Interval::constant(e.constant());
    for (v, c) in e.terms() {
        let r = env.get(v).copied().unwrap_or_else(Interval::top);
        acc = acc.plus(&r.scaled(c));
    }
    acc
}

/// The results of the forward interval analysis.
#[derive(Clone, Debug, Default)]
pub struct ValueRanges {
    /// Interval of every induction variable (joined over all paths).
    pub iv_ranges: BTreeMap<String, Interval>,
    /// Fixpoint iterations the walk took.
    pub iterations: usize,
}

/// Forward interval analysis over the whole function: re-walks the op
/// tree until the per-loop intervals stabilize (at most 64 walks). The
/// structured affine IR converges in one pass plus the stabilization
/// check, but bounds that reference outer ivs (skewed/triangular nests)
/// are re-evaluated until stable.
pub fn analyze_ranges(f: &AffineFunc) -> ValueRanges {
    let mut iv_ranges = Env::new();
    let mut iterations = 0;
    loop {
        iterations += 1;
        let mut changed = false;
        walk(&f.body, &mut Env::new(), &mut iv_ranges, &mut changed);
        if !changed || iterations >= 64 {
            return ValueRanges {
                iv_ranges,
                iterations,
            };
        }
    }
}

/// One forward walk of `ops` in environment `env`, joining every loop's
/// entry interval into `iv_ranges` and setting `changed` when one grows.
fn walk(ops: &[AffineOp], env: &mut Env, iv_ranges: &mut Env, changed: &mut bool) {
    for op in ops {
        match op {
            AffineOp::For(l) => {
                let v = iv_entry(l, env);
                let merged = match iv_ranges.get(&l.iv) {
                    Some(prev) => prev.join(&v),
                    None => v,
                };
                if iv_ranges.get(&l.iv) != Some(&merged) {
                    iv_ranges.insert(l.iv.clone(), merged);
                    *changed = true;
                }
                let saved = env.insert(l.iv.clone(), merged);
                walk(&l.body, env, iv_ranges, changed);
                match saved {
                    Some(s) => env.insert(l.iv.clone(), s),
                    None => env.remove(&l.iv),
                };
            }
            AffineOp::If(i) => {
                let mut guarded = env.clone();
                for c in &i.conds {
                    refine(c, &mut guarded);
                }
                walk(&i.body, &mut guarded, iv_ranges, changed);
            }
            AffineOp::Store(_) => {}
        }
    }
}

/// The interval of a loop's induction variable in the enclosing scope's
/// environment: `lb = max` over candidates of `ceil(e/d)`, `ub = min` of
/// `floor(e/d)`.
fn iv_entry(op: &ForOp, env: &Env) -> Interval {
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
    Interval::new(lo, hi)
}

/// Narrows `env` under one `affine.if` condition: a guard `e >= 0` (or
/// `e == 0`) with a single variable term `c·x + k` bounds `x`.
fn refine(cond: &Constraint, env: &mut Env) {
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
    // c·x + k >= 0  ⟺  x >= ceil(-k/c) (c > 0) or x <= floor(k/-c) (c < 0).
    let bound = if c > 0 {
        Interval::new(ceil_div(-k, c), i64::MAX)
    } else {
        Interval::new(i64::MIN, floor_div(k, -c))
    };
    let mut narrowed = cur.meet(&bound);
    if cond.kind == ConstraintKind::Eq {
        // e == 0 additionally bounds from the other side.
        let other = if c > 0 {
            Interval::new(i64::MIN, floor_div(-k, c))
        } else {
            Interval::new(ceil_div(k, -c), i64::MAX)
        };
        narrowed = narrowed.meet(&other);
    }
    env.insert(x, narrowed);
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
    }

    #[test]
    fn ranges_track_nested_and_guarded_ivs() {
        // for i in 0..31 { if (i <= 15) { for j in 0..i { A[j] = 1.0 } } }
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
                    body: vec![AffineOp::For(ForOp {
                        extra: Vec::new(),
                        iv: "j".into(),
                        lbs: vec![Bound::new(LinearExpr::constant_expr(0), 1)],
                        ubs: vec![Bound::new(LinearExpr::var("i"), 1)],
                        attrs: pom_ir::HlsAttrs::none(),
                        body: vec![store(
                            "S",
                            "A",
                            LinearExpr::var("j"),
                            pom_dsl::Expr::Const(1.0),
                        )],
                    })],
                })],
            ));
            f
        };
        let r = analyze_ranges(&f);
        assert_eq!(r.iv_ranges["i"], Interval::new(0, 31));
        assert_eq!(
            r.iv_ranges["j"],
            Interval::new(0, 15),
            "the guard narrows the loop nested under it"
        );
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
}
