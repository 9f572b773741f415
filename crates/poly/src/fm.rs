//! Fourier–Motzkin elimination with integer tightening.
//!
//! The projection engine behind loop-bound derivation and feasibility
//! checks. Equalities are eliminated by substitution whenever a unit (or
//! divisible) coefficient is available, which keeps the projection exact
//! for the constraint systems produced by the transformations in Table II
//! of the paper (tiling, splitting, skewing and interchange all introduce
//! only unit-coefficient occurrences of the dimension being eliminated).
//!
//! This is the innermost hot loop of the toolchain, so the kernel works
//! over the dense interned representation end to end:
//!
//! * `simplify` dedups through a hash set of constraint rows instead of a
//!   `BTreeSet` (no ordered-tree comparisons of string-keyed maps);
//! * parallel constraint rows (identical coefficient vectors) are reduced
//!   to their tightest representative *before* the lower×upper fan-out,
//!   shrinking the quadratic combination step;
//! * lower/upper bound rows and the output system live in reusable
//!   scratch buffers across a multi-dimension elimination;
//! * repeated projections are answered from a per-thread memo keyed by
//!   the exact (simplified system, eliminated dim) pair — exact keys, not
//!   fingerprints, so a hash collision can never change a result;
//! * all coefficient arithmetic is overflow-checked and surfaces
//!   [`PolyError::Overflow`] through the `try_*` entry points.
//!
//! Every step is instrumented through [`crate::stats`].

use crate::constraint::{Constraint, ConstraintKind};
use crate::expr::LinearExpr;
use crate::space::{DimId, PolyError};
use crate::stats;
use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};

/// Result of projecting a dimension out of a constraint system.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Projection {
    /// The projected system.
    Feasible(Vec<Constraint>),
    /// The system was proven infeasible during elimination.
    Infeasible,
}

impl Projection {
    /// Unwraps the constraints, mapping infeasibility to an empty marker
    /// constraint `-1 >= 0`.
    pub fn into_constraints(self) -> Vec<Constraint> {
        match self {
            Projection::Feasible(cs) => cs,
            Projection::Infeasible => vec![Constraint::ge_zero(LinearExpr::constant_expr(-1))],
        }
    }
}

/// Normalizes, deduplicates, and drops trivially-true constraints.
/// Returns `None` when a constraint is discovered to be unsatisfiable.
///
/// Deduplication preserves first-occurrence order, exactly like the
/// original `BTreeSet`-membership implementation.
pub fn simplify(constraints: &[Constraint]) -> Option<Vec<Constraint>> {
    let mut seen: HashSet<Constraint> = HashSet::with_capacity(constraints.len());
    let mut out = Vec::with_capacity(constraints.len());
    for c in constraints {
        let n = c.normalized()?;
        if n.is_trivially_false() {
            return None;
        }
        if n.is_trivially_true() {
            continue;
        }
        if seen.insert(n.clone()) {
            out.push(n);
        }
    }
    Some(out)
}

/// Collapses parallel constraint rows in place.
///
/// Two `GeZero` rows with identical coefficient vectors differ only in
/// how tight their shared bound is — the smaller constant is the tighter
/// `coeffs·x >= -c`, and the weaker row is dropped (it would survive to
/// the output and multiply the FM fan-out without adding information).
/// Two parallel `Eq` rows with different constants are contradictory.
/// Returns `false` when the system is proven infeasible.
fn drop_parallel_redundant(cs: &mut Vec<Constraint>) -> bool {
    if cs.len() < 2 {
        return true;
    }
    // Coefficient-vector signatures (FNV-1a over kind + terms). Signature
    // collisions are disambiguated by comparing the actual term slices, so
    // hashing can only group, never merge, distinct rows. `sig` doubles as
    // the keep mask: a dropped row's signature is zeroed out of matching.
    let mut sigs: Vec<u64> = Vec::with_capacity(cs.len());
    let mut dropped = 0u64;
    for i in 0..cs.len() {
        let mut h = crate::fnv::OFFSET_BASIS;
        let mut mix = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(crate::fnv::PRIME);
        };
        mix(cs[i].kind as u64 + 1);
        for &(id, coeff) in cs[i].expr.terms_ids() {
            mix(id.index() as u64 + 1);
            mix(coeff as u64);
        }
        let h = if h == 0 { 1 } else { h };
        let mut keep_i = true;
        for j in 0..i {
            if sigs[j] == h
                && cs[j].kind == cs[i].kind
                && cs[j].expr.terms_ids() == cs[i].expr.terms_ids()
            {
                match cs[i].kind {
                    ConstraintKind::Eq => {
                        // simplify() already removed exact duplicates, so a
                        // parallel equality pair has conflicting constants.
                        return false;
                    }
                    ConstraintKind::GeZero => {
                        // The smaller constant is the tighter bound
                        // `coeffs·x >= -c`; the weaker row is redundant.
                        if cs[i].expr.constant() < cs[j].expr.constant() {
                            sigs[j] = 0;
                        } else {
                            keep_i = false;
                        }
                        dropped += 1;
                    }
                }
                break;
            }
        }
        sigs.push(if keep_i { h } else { 0 });
    }
    if dropped > 0 {
        stats::count_dropped(dropped);
        let mut it = sigs.iter();
        cs.retain(|_| *it.next().expect("sig mask matches length") != 0);
    }
    true
}

/// Reusable buffers for a multi-dimension elimination; avoids
/// re-allocating the lower/upper/rest vectors and the memo key encoding
/// on every projection step.
#[derive(Default)]
struct Scratch {
    lowers: Vec<(i64, LinearExpr)>,
    uppers: Vec<(i64, LinearExpr)>,
    rest: Vec<Constraint>,
    key: Vec<u64>,
}

/// Encodes `(cs, var)` into an exact, injective `u64` sequence: the var
/// id, then one self-delimiting record per constraint (kind + term count
/// header, the `(id, coeff)` pairs, the constant). The memo is keyed on
/// the full encoding — never a hash of it — so a hash collision inside
/// the map can only cost a probe, not substitute a wrong projection.
fn encode_key(cs: &[Constraint], var: DimId, buf: &mut Vec<u64>) {
    buf.clear();
    buf.push(var.index() as u64);
    for c in cs {
        let kind_bit = match c.kind {
            ConstraintKind::Eq => 1u64 << 63,
            ConstraintKind::GeZero => 0,
        };
        buf.push(kind_bit | c.expr.terms_ids().len() as u64);
        for &(id, coeff) in c.expr.terms_ids() {
            buf.push(id.index() as u64);
            buf.push(coeff as u64);
        }
        buf.push(c.expr.constant() as u64);
    }
}

const MEMO_CAPACITY: usize = 4096;

thread_local! {
    static PROJECTION_MEMO: RefCell<HashMap<Vec<u64>, Projection>> =
        RefCell::new(HashMap::new());
}

/// Eliminates `var` (already simplified and redundancy-collapsed input)
/// using the scratch buffers. The caller guarantees `cs` came out of
/// `simplify` + `drop_parallel_redundant`.
fn eliminate_prepared(
    cs: &[Constraint],
    var: DimId,
    scratch: &mut Scratch,
) -> Result<Projection, PolyError> {
    encode_key(cs, var, &mut scratch.key);
    let hit = PROJECTION_MEMO.with(|m| m.borrow().get(scratch.key.as_slice()).cloned());
    if let Some(hit) = hit {
        stats::count_memo_hit();
        return Ok(hit);
    }
    stats::count_memo_miss();
    stats::note_constraint_count(cs.len() as u64);
    stats::count_elimination();

    let result = eliminate_uncached(cs, var, scratch)?;

    PROJECTION_MEMO.with(|m| {
        let mut m = m.borrow_mut();
        if m.len() >= MEMO_CAPACITY {
            m.clear();
        }
        m.insert(scratch.key.clone(), result.clone());
    });
    Ok(result)
}

fn eliminate_uncached(
    cs: &[Constraint],
    var: DimId,
    scratch: &mut Scratch,
) -> Result<Projection, PolyError> {
    // 1. Try equality substitution: find an equality a*var + rest == 0.
    if let Some(cs) = try_equality_substitution(cs, var)? {
        return Ok(match simplify(&cs) {
            Some(cs) => Projection::Feasible(cs),
            None => Projection::Infeasible,
        });
    }

    // 2. Classic Fourier–Motzkin on inequalities. Equalities mentioning
    //    `var` with non-unit, non-divisible coefficients are expanded into
    //    two inequalities first.
    let lowers = &mut scratch.lowers; // a*var >= -rest, a > 0
    let uppers = &mut scratch.uppers; // b*var <= rest', b > 0
    let rest = &mut scratch.rest;
    lowers.clear();
    uppers.clear();
    rest.clear();

    fn push_ineq(
        expr: &LinearExpr,
        var: DimId,
        lowers: &mut Vec<(i64, LinearExpr)>,
        uppers: &mut Vec<(i64, LinearExpr)>,
        rest: &mut Vec<Constraint>,
    ) -> Result<(), PolyError> {
        let a = expr.coeff_id(var);
        if a == 0 {
            rest.push(Constraint::ge_zero(expr.clone()));
        } else {
            let mut others = expr.clone();
            others.set_coeff_id(var, 0);
            if a > 0 {
                // a*var + others >= 0  =>  a*var >= -others
                others.try_mul_assign(-1)?;
                lowers.push((a, others));
            } else {
                // a*var + others >= 0  =>  (-a)*var <= others
                uppers.push((a.checked_neg().ok_or(PolyError::Overflow)?, others));
            }
        }
        Ok(())
    }

    for c in cs {
        match c.kind {
            ConstraintKind::GeZero => push_ineq(&c.expr, var, lowers, uppers, rest)?,
            ConstraintKind::Eq => {
                if c.expr.uses_id(var) {
                    push_ineq(&c.expr, var, lowers, uppers, rest)?;
                    let mut neg = c.expr.clone();
                    neg.try_mul_assign(-1)?;
                    push_ineq(&neg, var, lowers, uppers, rest)?;
                } else {
                    rest.push(c.clone());
                }
            }
        }
    }

    // Combine every lower bound with every upper bound:
    //   a*var >= lo  and  b*var <= hi   =>   b*lo <= a*b*var <= a*hi
    //   => a*hi - b*lo >= 0
    stats::count_combinations((lowers.len() * uppers.len()) as u64);
    for (a, lo) in lowers.iter() {
        for (b, hi) in uppers.iter() {
            let mut combined = hi.clone();
            combined.try_mul_assign(*a)?;
            combined.try_add_scaled(lo, b.checked_neg().ok_or(PolyError::Overflow)?)?;
            rest.push(Constraint::ge_zero(combined));
        }
    }

    Ok(match simplify(rest) {
        Some(cs) => Projection::Feasible(cs),
        None => Projection::Infeasible,
    })
}

fn prepare(constraints: &[Constraint]) -> Option<Vec<Constraint>> {
    let mut cs = simplify(constraints)?;
    if !drop_parallel_redundant(&mut cs) {
        return None;
    }
    Some(cs)
}

/// Eliminates `var` from the system, returning constraints that describe
/// the (integer-tightened) shadow of the original system.
///
/// # Errors
///
/// Returns [`PolyError::Overflow`] when a combination coefficient leaves
/// `i64` range.
pub fn try_eliminate(constraints: &[Constraint], var: &str) -> Result<Projection, PolyError> {
    let Some(cs) = prepare(constraints) else {
        return Ok(Projection::Infeasible);
    };
    eliminate_prepared(&cs, DimId::intern(var), &mut Scratch::default())
}

/// Infallible [`try_eliminate`].
///
/// # Panics
///
/// Panics on `i64` overflow.
pub fn eliminate(constraints: &[Constraint], var: &str) -> Projection {
    try_eliminate(constraints, var).unwrap_or_else(|e| panic!("{e}"))
}

/// Eliminates several variables in order.
///
/// # Errors
///
/// Returns [`PolyError::Overflow`] when a combination coefficient leaves
/// `i64` range.
pub fn try_eliminate_all(
    constraints: &[Constraint],
    vars: &[&str],
) -> Result<Projection, PolyError> {
    let Some(cs) = prepare(constraints) else {
        return Ok(Projection::Infeasible);
    };
    let ids: Vec<DimId> = vars.iter().map(|v| DimId::intern(v)).collect();
    Ok(match Prepared(cs).eliminate_all(&ids)? {
        Some(cs) => Projection::Feasible(cs.into_owned()),
        None => Projection::Infeasible,
    })
}

/// A system after `simplify` and parallel-row collapsing: the common
/// start of several projections of one system (the per-level bounds of
/// a set), prepared once instead of once per projection.
pub(crate) struct Prepared(Vec<Constraint>);

impl Prepared {
    /// Prepares `constraints`; `None` when they are proven infeasible.
    pub(crate) fn new(constraints: &[Constraint]) -> Option<Prepared> {
        prepare(constraints).map(Prepared)
    }

    /// [`try_eliminate_all`] of the prepared system, in `vars` order:
    /// `None` when infeasible. Eliminating nothing borrows the rows.
    pub(crate) fn eliminate_all(
        &self,
        vars: &[DimId],
    ) -> Result<Option<Cow<'_, [Constraint]>>, PolyError> {
        let mut scratch = Scratch::default();
        let mut cur = Cow::Borrowed(self.0.as_slice());
        for &v in vars {
            match eliminate_prepared(&cur, v, &mut scratch)? {
                Projection::Feasible(mut cs) => {
                    if !drop_parallel_redundant(&mut cs) {
                        return Ok(None);
                    }
                    cur = Cow::Owned(cs);
                }
                Projection::Infeasible => return Ok(None),
            }
        }
        Ok(Some(cur))
    }

    /// The innermost-first projection chain of a system over `dims`:
    /// hands `visit` the level-`k` system (every dimension after `k`
    /// projected out) for `k` from the innermost level down to `stop`,
    /// eliminating one dimension per step. The chain goes on only while
    /// each step is [exact](exact_step) and feasible, so every system it
    /// hands out has exactly the integer projection of the set as its
    /// integer points. Returns the lowest level visited (`dims.len()`
    /// when none was); the levels below it are the caller's to project
    /// some other way.
    pub(crate) fn exact_chain(
        &self,
        dims: &[DimId],
        stop: usize,
        mut visit: impl FnMut(usize, &[Constraint]),
    ) -> usize {
        let mut scratch = Scratch::default();
        let mut cur = Cow::Borrowed(self.0.as_slice());
        for k in (stop..dims.len()).rev() {
            visit(k, &cur);
            if k == stop || !exact_step(&cur, dims[k]) {
                return k;
            }
            let Ok(Projection::Feasible(mut cs)) = eliminate_prepared(&cur, dims[k], &mut scratch)
            else {
                return k;
            };
            if !drop_parallel_redundant(&mut cs) {
                return k;
            }
            cur = Cow::Owned(cs);
        }
        dims.len()
    }
}

/// Whether eliminating `var` from `cs` keeps exactly the integer
/// projection (Pugh's exact-shadow condition, in the two forms the
/// kernel meets): an equality with a `±1` coefficient on `var` (which
/// [`eliminate_uncached`] substitutes), or every lower-bound row on
/// `var` with coefficient `+1`, or every upper-bound row with `-1`. An
/// equality with a larger coefficient counts on both sides, as it is
/// split into a lower and an upper row.
fn exact_step(cs: &[Constraint], var: DimId) -> bool {
    let (mut unit_lowers, mut unit_uppers) = (true, true);
    for c in cs {
        let a = c.expr.coeff_id(var);
        match c.kind {
            ConstraintKind::Eq if a == 1 || a == -1 => return true,
            ConstraintKind::Eq if a != 0 => (unit_lowers, unit_uppers) = (false, false),
            ConstraintKind::GeZero if a > 1 => unit_lowers = false,
            ConstraintKind::GeZero if a < -1 => unit_uppers = false,
            _ => {}
        }
    }
    unit_lowers || unit_uppers
}

/// Infallible [`try_eliminate_all`].
///
/// # Panics
///
/// Panics on `i64` overflow.
pub fn eliminate_all(constraints: &[Constraint], vars: &[&str]) -> Projection {
    try_eliminate_all(constraints, vars).unwrap_or_else(|e| panic!("{e}"))
}

/// Rational + GCD feasibility check: eliminates every variable and checks
/// the residual constant constraints. Sound for "infeasible" answers;
/// "feasible" is exact whenever every elimination had a unit coefficient
/// available (true for all constraint systems POM generates). Coefficient
/// overflow during elimination also answers "feasible" — the conservative
/// direction (the system was not *proven* empty).
pub fn feasible(constraints: &[Constraint]) -> bool {
    let Some(cs) = prepare(constraints) else {
        return false;
    };
    // Eliminate in name order, matching the original BTreeSet<String>
    // iteration — FM integer tightening can be order-sensitive, and the
    // interned-id order varies with interning history.
    let mut vars: Vec<DimId> = Vec::new();
    for c in &cs {
        for &(id, _) in c.expr.terms_ids() {
            if !vars.contains(&id) {
                vars.push(id);
            }
        }
    }
    vars.sort_unstable_by_key(|id| id.name());
    let mut scratch = Scratch::default();
    let mut cur = cs;
    for v in vars {
        match eliminate_prepared(&cur, v, &mut scratch) {
            Ok(Projection::Feasible(cs)) => cur = cs,
            Ok(Projection::Infeasible) => return false,
            Err(PolyError::Overflow) => return true,
        }
    }
    cur.iter().all(|c| !c.is_trivially_false())
}

fn try_equality_substitution(
    cs: &[Constraint],
    var: DimId,
) -> Result<Option<Vec<Constraint>>, PolyError> {
    // Prefer an equality where |coeff(var)| == 1 for an exact substitution.
    let Some(pos) = cs
        .iter()
        .position(|c| c.kind == ConstraintKind::Eq && matches!(c.expr.coeff_id(var), 1 | -1))
    else {
        return Ok(None);
    };
    let eqc = &cs[pos];
    let a = eqc.expr.coeff_id(var);
    // a*var + rest == 0 => var = -rest / a; with |a| == 1: var = -a * rest.
    let mut replacement = eqc.expr.clone();
    replacement.set_coeff_id(var, 0);
    replacement.try_mul_assign(-a)?; // a is ±1 so this is exact
    let mut out = Vec::with_capacity(cs.len() - 1);
    for (i, c) in cs.iter().enumerate() {
        if i == pos {
            continue;
        }
        out.push(c.try_substituted_id(var, &replacement)?);
    }
    Ok(Some(out))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn var(n: &str) -> LinearExpr {
        LinearExpr::var(n)
    }

    fn cst(c: i64) -> LinearExpr {
        LinearExpr::constant_expr(c)
    }

    #[test]
    fn eliminate_middle_variable() {
        // 0 <= i <= 10, j == i + 2, 0 <= j <= 5  => after eliminating j:
        // 0 <= i <= 10 and 0 <= i+2 <= 5 => 0 <= i <= 3
        let cs = vec![
            Constraint::ge(var("i"), cst(0)),
            Constraint::le(var("i"), cst(10)),
            Constraint::eq(var("j"), var("i") + 2),
            Constraint::ge(var("j"), cst(0)),
            Constraint::le(var("j"), cst(5)),
        ];
        let Projection::Feasible(out) = eliminate(&cs, "j") else {
            panic!("expected feasible");
        };
        // The resulting system must admit i in 0..=3 and nothing else.
        for i in -2..=12 {
            let pt: std::collections::HashMap<String, i64> =
                [("i".to_string(), i)].into_iter().collect();
            let ok = out.iter().all(|c| c.satisfied(&pt));
            assert_eq!(ok, (0..=3).contains(&i), "i = {i}");
        }
    }

    #[test]
    fn eliminate_via_inequalities_only() {
        // 2x >= i  and  x <= 3  => shadow over x: i <= 6
        let cs = vec![
            Constraint::ge(var("x") * 2, var("i")),
            Constraint::le(var("x"), cst(3)),
        ];
        let Projection::Feasible(out) = eliminate(&cs, "x") else {
            panic!("expected feasible");
        };
        let pt_ok: std::collections::HashMap<String, i64> =
            [("i".to_string(), 6)].into_iter().collect();
        let pt_bad: std::collections::HashMap<String, i64> =
            [("i".to_string(), 7)].into_iter().collect();
        assert!(out.iter().all(|c| c.satisfied(&pt_ok)));
        assert!(!out.iter().all(|c| c.satisfied(&pt_bad)));
    }

    #[test]
    fn infeasible_system_detected() {
        let cs = vec![
            Constraint::ge(var("i"), cst(5)),
            Constraint::le(var("i"), cst(3)),
        ];
        assert!(!feasible(&cs));
    }

    #[test]
    fn feasible_system_detected() {
        let cs = vec![
            Constraint::ge(var("i"), cst(0)),
            Constraint::le(var("i"), cst(3)),
            Constraint::eq(var("j"), var("i") * 2),
        ];
        assert!(feasible(&cs));
    }

    #[test]
    fn gcd_infeasibility() {
        // 2i == 1 has no integer solution.
        let cs = vec![Constraint::eq_zero(var("i") * 2 - 1)];
        assert!(!feasible(&cs));
    }

    #[test]
    fn tiling_projection_is_exact() {
        // i = 8*i0 + i1, 0 <= i1 < 8, 0 <= i <= 31. Eliminating i and i1
        // must leave exactly 0 <= i0 <= 3.
        let cs = vec![
            Constraint::eq(var("i"), var("i0") * 8 + var("i1")),
            Constraint::ge(var("i1"), cst(0)),
            Constraint::lt(var("i1"), cst(8)),
            Constraint::ge(var("i"), cst(0)),
            Constraint::le(var("i"), cst(31)),
        ];
        let out = eliminate_all(&cs, &["i", "i1"]).into_constraints();
        for i0 in -2..=6 {
            let pt: std::collections::HashMap<String, i64> =
                [("i0".to_string(), i0)].into_iter().collect();
            let ok = out.iter().all(|c| c.satisfied(&pt));
            assert_eq!(ok, (0..=3).contains(&i0), "i0 = {i0}");
        }
    }

    #[test]
    fn non_rectangular_skew_projection() {
        // Skewed domain: 0 <= t <= 3, t <= s <= t + 5 (s = t + i).
        // Eliminating s leaves 0 <= t <= 3.
        let cs = vec![
            Constraint::ge(var("t"), cst(0)),
            Constraint::le(var("t"), cst(3)),
            Constraint::ge(var("s"), var("t")),
            Constraint::le(var("s"), var("t") + 5),
        ];
        let out = eliminate(&cs, "s").into_constraints();
        for t in -1..=5 {
            let pt: std::collections::HashMap<String, i64> =
                [("t".to_string(), t)].into_iter().collect();
            let ok = out.iter().all(|c| c.satisfied(&pt));
            assert_eq!(ok, (0..=3).contains(&t), "t = {t}");
        }
    }

    #[test]
    fn simplify_dedupes_and_drops_trivial() {
        let cs = vec![
            Constraint::ge(var("i"), cst(0)),
            Constraint::ge(var("i"), cst(0)),
            Constraint::ge_zero(cst(5)),
        ];
        let s = simplify(&cs).expect("feasible");
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn parallel_redundancy_keeps_tightest_bound() {
        // i >= 0 and i >= 3 are parallel; only the tighter i >= 3 survives.
        let mut cs = simplify(&[
            Constraint::ge(var("i"), cst(0)),
            Constraint::ge(var("i"), cst(3)),
        ])
        .expect("feasible");
        assert!(drop_parallel_redundant(&mut cs));
        assert_eq!(cs.len(), 1);
        assert_eq!(cs[0].expr.constant(), -3);
    }

    #[test]
    fn parallel_conflicting_equalities_are_infeasible() {
        let mut cs = simplify(&[
            Constraint::eq(var("i"), cst(1)),
            Constraint::eq(var("i"), cst(2)),
        ])
        .expect("normalizes fine");
        assert!(!drop_parallel_redundant(&mut cs));
    }

    #[test]
    fn projection_memo_round_trip() {
        let before = crate::PolyStats::snapshot();
        let cs = vec![
            Constraint::ge(var("memo_i"), cst(0)),
            Constraint::le(var("memo_i"), cst(7)),
            Constraint::ge(var("memo_j"), var("memo_i")),
            Constraint::le(var("memo_j"), cst(9)),
        ];
        let first = eliminate(&cs, "memo_j");
        let second = eliminate(&cs, "memo_j");
        assert_eq!(first, second);
        let delta = crate::PolyStats::snapshot().delta(&before);
        assert!(delta.memo_hits >= 1, "second projection should hit memo");
    }

    #[test]
    fn exact_step_conditions() {
        let id = DimId::intern("ex_v");
        let rows = |specs: &[(bool, i64)]| -> Vec<Constraint> {
            specs
                .iter()
                .map(|&(eq, a)| {
                    let e = var("ex_v") * a + var("ex_w") - 3;
                    if eq {
                        Constraint::eq_zero(e)
                    } else {
                        Constraint::ge_zero(e)
                    }
                })
                .collect()
        };
        // A unit equality is substituted, whatever else bounds the dim.
        assert!(exact_step(
            &rows(&[(false, 3), (false, -2), (true, -1)]),
            id
        ));
        // All lowers unit, or all uppers unit.
        assert!(exact_step(
            &rows(&[(false, 1), (false, 1), (false, -5)]),
            id
        ));
        assert!(exact_step(&rows(&[(false, 4), (false, -1)]), id));
        // Rows not on the dim, or a side with no rows at all.
        assert!(exact_step(&rows(&[(false, 0), (false, 7)]), id));
        // Non-unit on both sides; a non-unit equality counts on both.
        assert!(!exact_step(&rows(&[(false, 3), (false, -2)]), id));
        assert!(!exact_step(&rows(&[(true, 2), (false, 1)]), id));
    }

    #[test]
    fn overflow_in_combination_is_reported() {
        // Lower and upper bounds with coprime coefficient vectors (so
        // normalization cannot shrink them) and near-i64::MAX constants:
        // the a*hi - b*lo combination leaves i64 range.
        let big = i64::MAX / 2;
        let cs = vec![
            Constraint::ge_zero(var("ovf_x") * 3 - var("ovf_y") - cst(big)),
            Constraint::ge_zero(var("ovf_x") * -2 + var("ovf_y") + cst(big)),
        ];
        assert_eq!(try_eliminate(&cs, "ovf_x"), Err(PolyError::Overflow));
        // feasible() answers conservatively instead of panicking.
        assert!(feasible(&cs));
    }
}
