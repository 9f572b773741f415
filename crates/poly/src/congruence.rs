//! A congruence (modular-arithmetic) domain over [`LinearExpr`], layered
//! on the Fourier–Motzkin core.
//!
//! Array partitioning maps an index expression `e` to a bank through
//! `e mod f` (cyclic) or `e div ceil(N/f)` (block). Reasoning about which
//! accesses can collide in a bank is therefore reasoning about residue
//! classes of affine expressions — a congruence domain. Two layers:
//!
//! 1. **Syntactic congruence** ([`congruent_coeffs`]): when two index
//!    expressions have pairwise-congruent coefficients mod `f` for every
//!    dimension, their difference is a constant mod `f` *at every point
//!    of the iteration space*, so whether they share a bank is decided by
//!    a single residue ([`may_share_class`] takes the fast path).
//! 2. **FM refinement** ([`range_over`]): when the coefficients differ,
//!    the difference still has a bounded range over the iteration domain.
//!    Projecting the difference onto a fresh dimension with the dense FM
//!    core bounds it, and if no multiple of `f` lies in the range the two
//!    expressions provably never share a residue class. Rational FM
//!    over-approximates the integer range, which keeps the "never"
//!    verdict sound (the range can only be too wide, never too narrow).

use crate::constraint::{Constraint, ConstraintKind};
use crate::expr::LinearExpr;
use crate::fm;
use crate::{ceil_div, floor_div};
use std::collections::BTreeSet;

/// The canonical residue of `v` modulo `m > 0`, in `0..m`.
pub fn residue(v: i64, m: i64) -> i64 {
    debug_assert!(m > 0, "residue expects a positive modulus");
    v.rem_euclid(m)
}

/// True when `a` and `b` have congruent coefficients mod `m` for every
/// dimension — equivalently, `a - b` is constant modulo `m` over the
/// whole space.
pub fn congruent_coeffs(a: &LinearExpr, b: &LinearExpr, m: i64) -> bool {
    if m <= 1 {
        return true;
    }
    // Residues compared term by term: forming `a - b` could overflow.
    a.terms_ids()
        .iter()
        .all(|&(id, c)| residue(c, m) == residue(b.coeff_id(id), m))
        && b.terms_ids()
            .iter()
            .all(|&(id, c)| a.uses_id(id) || residue(c, m) == 0)
}

/// Bounds of `e` over `domain`, by Fourier–Motzkin projection onto a
/// fresh dimension. Returns `(lower, upper)` with `None` for an
/// unbounded side; `None` overall when the domain itself is infeasible
/// or the projection overflows.
pub fn range_over(e: &LinearExpr, domain: &[Constraint]) -> Option<(Option<i64>, Option<i64>)> {
    if e.is_constant() {
        return Some((Some(e.constant()), Some(e.constant())));
    }
    // t = e, then eliminate every dimension but t.
    const T: &str = "__pom_range";
    let mut cs: Vec<Constraint> = domain.to_vec();
    cs.push(Constraint::eq(LinearExpr::var(T), e.clone()));
    let vars: BTreeSet<&str> = cs
        .iter()
        .flat_map(|c| c.expr.vars())
        .filter(|v| *v != T)
        .collect();
    let vars: Vec<&str> = vars.into_iter().collect();
    let projected = match fm::try_eliminate_all(&cs, &vars) {
        Ok(fm::Projection::Feasible(p)) => p,
        Ok(fm::Projection::Infeasible) | Err(_) => return None,
    };
    let (mut lo, mut hi): (Option<i64>, Option<i64>) = (None, None);
    for c in &projected {
        let k = c.expr.coeff(T);
        let rest = c.expr.constant();
        // c*t + rest (>= | ==) 0.
        let (l, u) = match (c.kind, k.cmp(&0)) {
            (_, std::cmp::Ordering::Equal) => continue,
            (ConstraintKind::Eq, _) => {
                if rest % k != 0 {
                    return None; // no integer point
                }
                let v = -rest / k;
                (Some(v), Some(v))
            }
            (ConstraintKind::GeZero, std::cmp::Ordering::Greater) => {
                (Some(ceil_div(-rest, k)), None)
            }
            (ConstraintKind::GeZero, std::cmp::Ordering::Less) => (None, Some(floor_div(rest, -k))),
        };
        if let Some(l) = l {
            lo = Some(lo.map_or(l, |cur: i64| cur.max(l)));
        }
        if let Some(u) = u {
            hi = Some(hi.map_or(u, |cur: i64| cur.min(u)));
        }
    }
    Some((lo, hi))
}

/// May `a` and `b` take the same value somewhere in `domain`?
///
/// `false` is a proof of disjointness; `true` means "equal somewhere or
/// undecided" (rational FM feasibility over-approximates the integers).
pub fn may_equal(a: &LinearExpr, b: &LinearExpr, domain: &[Constraint]) -> bool {
    let delta = a.clone() - b.clone();
    if delta.is_constant() {
        return delta.constant() == 0;
    }
    let mut cs: Vec<Constraint> = domain.to_vec();
    cs.push(Constraint::eq_zero(delta));
    fm::feasible(&cs)
}

/// May `a` and `b` fall into the same residue class mod `m` somewhere in
/// `domain`? This is the bank-sharing query for cyclic partitioning:
/// `a ≡ b (mod f)` means the two indices map to the same bank.
///
/// `false` is a proof they never share a class. The decision is exact
/// when the coefficients are congruent mod `m`; otherwise the FM layer
/// bounds `a - b` over `domain` and answers "never" only when no
/// multiple of `m` lies in that range.
pub fn may_share_class(a: &LinearExpr, b: &LinearExpr, m: i64, domain: &[Constraint]) -> bool {
    if m <= 1 {
        return true; // one bank: everything shares it
    }
    if congruent_coeffs(a, b, m) {
        let delta = a.clone() - b.clone();
        return residue(delta.constant(), m) == 0;
    }
    let delta = a.clone() - b.clone();
    match range_over(&delta, domain) {
        Some((Some(lo), Some(hi))) => {
            // A multiple of m exists in [lo, hi] iff ceil(lo/m)*m <= hi.
            ceil_div(lo, m).saturating_mul(m) <= hi
        }
        Some((_, _)) => true, // unbounded difference: undecided
        None => false,        // empty domain: nothing ever shares
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(name: &str) -> LinearExpr {
        LinearExpr::var(name)
    }

    fn c(k: i64) -> LinearExpr {
        LinearExpr::constant_expr(k)
    }

    #[test]
    fn residues_are_canonical() {
        assert_eq!(residue(7, 4), 3);
        assert_eq!(residue(-1, 4), 3);
        assert_eq!(residue(-8, 4), 0);
    }

    #[test]
    fn congruent_coefficients_mod_factor() {
        // 16*i + j and j are congruent mod 16 and mod 2, not mod 3.
        let a = v("i") * 16 + v("j");
        let b = v("j");
        assert!(congruent_coeffs(&a, &b, 16));
        assert!(congruent_coeffs(&a, &b, 2));
        assert!(!congruent_coeffs(&a, &b, 3));
    }

    #[test]
    fn constant_delta_decides_class_sharing() {
        // i and i+4 share a class mod 4 but never mod 8.
        let a = v("i");
        let b = v("i") + 4;
        assert!(may_share_class(&a, &b, 4, &[]));
        assert!(!may_share_class(&a, &b, 8, &[]));
        // Factor 1 is a single bank: always shared.
        assert!(may_share_class(&a, &b, 1, &[]));
    }

    #[test]
    fn fm_range_bounds_expression_over_domain() {
        // 0 <= i <= 3, 0 <= j <= 2: range of 2i - j is [-2, 6].
        let domain = vec![
            Constraint::ge(v("i"), c(0)),
            Constraint::le(v("i"), c(3)),
            Constraint::ge(v("j"), c(0)),
            Constraint::le(v("j"), c(2)),
        ];
        let e = v("i") * 2 - v("j");
        assert_eq!(range_over(&e, &domain), Some((Some(-2), Some(6))));
    }

    #[test]
    fn fm_layer_refutes_class_sharing_on_narrow_ranges() {
        // i in [0, 2], j in [4, 6]: i - j ranges over [-6, -2], which
        // contains no multiple of 8 — i and j never share a class mod 8,
        // even though their coefficients are not congruent.
        let domain = vec![
            Constraint::ge(v("i"), c(0)),
            Constraint::le(v("i"), c(2)),
            Constraint::ge(v("j"), c(4)),
            Constraint::le(v("j"), c(6)),
        ];
        assert!(!may_share_class(&v("i"), &v("j"), 8, &domain));
        // Mod 4 a multiple (-4) is in range: sharing is possible.
        assert!(may_share_class(&v("i"), &v("j"), 4, &domain));
    }

    #[test]
    fn may_equal_uses_fm_feasibility() {
        let domain = vec![
            Constraint::ge(v("i"), c(0)),
            Constraint::le(v("i"), c(7)),
            Constraint::ge(v("j"), c(0)),
            Constraint::le(v("j"), c(7)),
        ];
        assert!(may_equal(&v("i"), &v("j"), &domain));
        assert!(!may_equal(&v("i"), &(v("j") + 100), &domain));
        assert!(!may_equal(&v("i"), &(v("i") + 1), &domain));
        assert!(may_equal(&v("i"), &(v("i") + 0), &domain));
    }
}
