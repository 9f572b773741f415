//! Affine constraints: equalities and inequalities over named dimensions.

use crate::expr::LinearExpr;
use crate::space::{DimId, PolyError};
use std::collections::HashMap;
use std::fmt;

/// Whether a constraint is an equality or a `>= 0` inequality.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ConstraintKind {
    /// `expr == 0`
    Eq,
    /// `expr >= 0`
    GeZero,
}

/// A single affine constraint: `expr == 0` or `expr >= 0`.
///
/// ```
/// use pom_poly::{Constraint, LinearExpr};
///
/// // i <= 31  <=>  31 - i >= 0
/// let c = Constraint::le(LinearExpr::var("i"), LinearExpr::constant_expr(31));
/// assert_eq!(c.to_string(), "-i + 31 >= 0");
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Constraint {
    /// The affine expression constrained against zero.
    pub expr: LinearExpr,
    /// Equality or inequality.
    pub kind: ConstraintKind,
}

impl Constraint {
    /// `expr == 0`.
    pub fn eq_zero(expr: LinearExpr) -> Self {
        Constraint {
            expr,
            kind: ConstraintKind::Eq,
        }
    }

    /// `expr >= 0`.
    pub fn ge_zero(expr: LinearExpr) -> Self {
        Constraint {
            expr,
            kind: ConstraintKind::GeZero,
        }
    }

    /// `lhs == rhs`.
    pub fn eq(lhs: LinearExpr, rhs: LinearExpr) -> Self {
        Constraint::eq_zero(lhs - rhs)
    }

    /// `lhs >= rhs`.
    pub fn ge(lhs: LinearExpr, rhs: LinearExpr) -> Self {
        Constraint::ge_zero(lhs - rhs)
    }

    /// `lhs <= rhs`.
    pub fn le(lhs: LinearExpr, rhs: LinearExpr) -> Self {
        Constraint::ge_zero(rhs - lhs)
    }

    /// `lhs < rhs` over the integers (`rhs - lhs - 1 >= 0`).
    pub fn lt(lhs: LinearExpr, rhs: LinearExpr) -> Self {
        Constraint::ge_zero(rhs - lhs - 1)
    }

    /// `lhs > rhs` over the integers.
    pub fn gt(lhs: LinearExpr, rhs: LinearExpr) -> Self {
        Constraint::ge_zero(lhs - rhs - 1)
    }

    /// True when the constraint holds at `point`.
    pub fn satisfied(&self, point: &HashMap<String, i64>) -> bool {
        let v = self.expr.eval(point);
        match self.kind {
            ConstraintKind::Eq => v == 0,
            ConstraintKind::GeZero => v >= 0,
        }
    }

    /// True when the constraint mentions `name`.
    pub fn uses(&self, name: &str) -> bool {
        self.expr.uses(name)
    }

    /// True when the constraint mentions the interned dimension.
    #[inline]
    pub fn uses_id(&self, id: DimId) -> bool {
        self.expr.uses_id(id)
    }

    /// Substitutes `name := replacement`.
    ///
    /// # Errors
    ///
    /// Returns [`PolyError::Overflow`] on `i64` overflow.
    pub fn substituted(
        &self,
        name: &str,
        replacement: &LinearExpr,
    ) -> Result<Constraint, PolyError> {
        Ok(Constraint {
            expr: self.expr.substituted(name, replacement)?,
            kind: self.kind,
        })
    }

    /// Renames dimension `from` to `to`.
    pub fn renamed(&self, from: &str, to: &str) -> Constraint {
        Constraint {
            expr: self.expr.renamed(from, to),
            kind: self.kind,
        }
    }

    /// Normalizes the constraint over the integers.
    ///
    /// Divides by the gcd of the variable coefficients; for inequalities the
    /// constant is floor-divided, which *tightens* the constraint without
    /// excluding any integer point. Returns `None` when normalization proves
    /// the constraint unsatisfiable (e.g. `2x + 1 == 0`).
    pub fn normalized(&self) -> Option<Constraint> {
        let g = self.expr.coeff_gcd();
        if g == 0 {
            // Constant-only constraint: keep, feasibility checked elsewhere.
            return Some(self.clone());
        }
        if g == 1 {
            return Some(self.clone());
        }
        let mut expr = self.expr.clone();
        for (_, c) in expr.terms_ids_mut() {
            *c /= g;
        }
        match self.kind {
            ConstraintKind::Eq => {
                if self.expr.constant() % g != 0 {
                    return None; // no integer solutions
                }
                expr.set_constant(self.expr.constant() / g);
            }
            ConstraintKind::GeZero => {
                expr.set_constant(crate::floor_div(self.expr.constant(), g));
            }
        }
        Some(Constraint {
            expr,
            kind: self.kind,
        })
    }

    /// True for a constant constraint that always holds.
    pub fn is_trivially_true(&self) -> bool {
        self.expr.is_constant()
            && match self.kind {
                ConstraintKind::Eq => self.expr.constant() == 0,
                ConstraintKind::GeZero => self.expr.constant() >= 0,
            }
    }

    /// True for a constant constraint that can never hold.
    pub fn is_trivially_false(&self) -> bool {
        self.expr.is_constant() && !self.is_trivially_true()
    }
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            ConstraintKind::Eq => write!(f, "{} == 0", self.expr),
            ConstraintKind::GeZero => write!(f, "{} >= 0", self.expr),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(pairs: &[(&str, i64)]) -> HashMap<String, i64> {
        pairs.iter().map(|&(n, v)| (n.to_string(), v)).collect()
    }

    #[test]
    fn comparison_constructors() {
        let i = LinearExpr::var("i");
        let c = Constraint::lt(i.clone(), LinearExpr::constant_expr(4));
        assert!(c.satisfied(&pt(&[("i", 3)])));
        assert!(!c.satisfied(&pt(&[("i", 4)])));

        let c = Constraint::gt(i.clone(), LinearExpr::constant_expr(0));
        assert!(c.satisfied(&pt(&[("i", 1)])));
        assert!(!c.satisfied(&pt(&[("i", 0)])));

        let c = Constraint::eq(i, LinearExpr::var("j"));
        assert!(c.satisfied(&pt(&[("i", 2), ("j", 2)])));
        assert!(!c.satisfied(&pt(&[("i", 2), ("j", 3)])));
    }

    #[test]
    fn normalization_tightens_inequality() {
        // 2i - 3 >= 0  =>  i - 2 >= 0 (i >= 1.5 tightens to i >= 2)
        let c = Constraint::ge_zero(LinearExpr::var("i") * 2 - 3);
        let n = c.normalized().expect("feasible");
        assert_eq!(n.expr.coeff("i"), 1);
        assert_eq!(n.expr.constant(), -2);
    }

    #[test]
    fn normalization_detects_infeasible_equality() {
        // 2i + 1 == 0 has no integer solutions
        let c = Constraint::eq_zero(LinearExpr::var("i") * 2 + 1);
        assert!(c.normalized().is_none());
    }

    #[test]
    fn normalization_divides_equality() {
        let c = Constraint::eq_zero(LinearExpr::var("i") * 4 - 8);
        let n = c.normalized().expect("feasible");
        assert_eq!(n.expr.coeff("i"), 1);
        assert_eq!(n.expr.constant(), -2);
    }

    #[test]
    fn trivial_detection() {
        assert!(Constraint::ge_zero(LinearExpr::constant_expr(0)).is_trivially_true());
        assert!(Constraint::ge_zero(LinearExpr::constant_expr(-1)).is_trivially_false());
        assert!(Constraint::eq_zero(LinearExpr::constant_expr(0)).is_trivially_true());
        assert!(Constraint::eq_zero(LinearExpr::constant_expr(2)).is_trivially_false());
        assert!(!Constraint::ge_zero(LinearExpr::var("i")).is_trivially_true());
    }

    #[test]
    fn display() {
        let c = Constraint::ge(LinearExpr::var("i"), LinearExpr::constant_expr(1));
        assert_eq!(c.to_string(), "i - 1 >= 0");
    }
}
