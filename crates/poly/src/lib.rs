//! # pom-poly — the polyhedral engine underneath POM
//!
//! This crate is the reproduction's substitute for the Integer Set Library
//! (isl) that the paper builds its *polyhedral IR* on. It provides:
//!
//! * [`LinearExpr`] — quasi-affine expressions over named dimensions,
//! * [`Constraint`] / [`BasicSet`] — integer sets described by affine
//!   equalities and inequalities (iteration domains),
//! * [`Map`] — affine relations (schedules, access relations),
//! * Fourier–Motzkin projection with integer tightening ([`fm`]),
//! * exact dependence analysis producing distance/direction vectors
//!   ([`dependence`], Fig. 1 of the paper),
//! * the statement-level polyhedral representation and every loop
//!   transformation of Table II ([`transform`]),
//! * an `ast_build`-style polyhedral AST generator emitting
//!   for/if/block/user nodes ([`astbuild`], Section V-B).
//!
//! The *API* is name-keyed — an expression such as `2*i + j - 1` is
//! addressed by its iterator names, which makes loop interchange a pure
//! reordering of the dimension list and keeps every transformation
//! compositional — but the *storage* is dense: names are interned once
//! into the process-wide [`space`] table and expressions hold sorted
//! `(DimId, i64)` coefficient rows, so the Fourier–Motzkin and dependence
//! hot paths never touch a `String`. The original `BTreeMap`-backed
//! kernel survives as [`reference`](mod@reference), the oracle for the differential
//! proptest suite and the baseline for `pomc bench-poly`.
//!
//! ```
//! use pom_poly::{BasicSet, LinearExpr};
//!
//! // { S(i, j) : 0 <= i < 4 and 0 <= j <= i }
//! let set = BasicSet::from_bounds(&[("i", 0, 3), ("j", 0, 3)])
//!     .with_le(LinearExpr::var("j"), LinearExpr::var("i"));
//! assert_eq!(set.count_points(), 10);
//! ```

pub mod astbuild;
pub mod congruence;
pub mod constraint;
pub mod dependence;
pub mod expr;
pub mod fm;
pub mod fnv;
pub mod map;
pub mod parse;
pub mod reference;
pub mod schedule;
pub mod set;
pub mod space;
pub mod stats;
pub mod transform;
pub mod vector;

pub use astbuild::{AstBuilder, AstNode, Bound, BoundKind};
pub use congruence::{congruent_coeffs, may_equal, may_share_class, range_over, residue};
pub use constraint::{Constraint, ConstraintKind};
pub use dependence::{AccessFn, DepKind, Dependence, DependenceAnalysis};
pub use expr::LinearExpr;
pub use fnv::fnv1a64;
pub use map::Map;
pub use parse::{parse_set, ParseError};
pub use schedule::{schedule_map, timestamp, UnionMap};
pub use set::BasicSet;
pub use space::{DimId, PolyError};
pub use stats::PolyStats;
pub use transform::StmtPoly;
pub use vector::{Direction, DirectionVector, DistanceVector};

/// Greatest common divisor of two non-negative integers.
///
/// `gcd(0, 0)` is defined as `0`.
pub(crate) fn gcd(a: i64, b: i64) -> i64 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Floor division that rounds toward negative infinity.
pub fn floor_div(a: i64, b: i64) -> i64 {
    debug_assert!(b > 0, "floor_div expects a positive divisor");
    a.div_euclid(b)
}

/// Ceiling division that rounds toward positive infinity.
pub fn ceil_div(a: i64, b: i64) -> i64 {
    debug_assert!(b > 0, "ceil_div expects a positive divisor");
    -((-a).div_euclid(b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gcd_basics() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(0, 5), 5);
        assert_eq!(gcd(5, 0), 5);
        assert_eq!(gcd(0, 0), 0);
        assert_eq!(gcd(-12, 18), 6);
        assert_eq!(gcd(7, 13), 1);
    }

    #[test]
    fn floor_and_ceil_division() {
        assert_eq!(floor_div(7, 2), 3);
        assert_eq!(floor_div(-7, 2), -4);
        assert_eq!(floor_div(8, 4), 2);
        assert_eq!(ceil_div(7, 2), 4);
        assert_eq!(ceil_div(-7, 2), -3);
        assert_eq!(ceil_div(8, 4), 2);
    }
}
