//! Affine relations between named spaces (schedules and access relations).
//!
//! A [`Map`] is `{ (in0, ..) -> (out0, ..) : constraints }`. POM uses maps
//! for schedules and for the access relations that drive dependence
//! analysis; the heavyweight manipulation happens on the statement-level
//! representation in [`crate::transform`], so this type provides the core
//! relational algebra only.

use crate::constraint::Constraint;
use crate::expr::LinearExpr;
use crate::set::BasicSet;
use crate::space::PolyError;
use std::collections::HashMap;
use std::fmt;

/// An affine relation between an input space and an output space.
///
/// ```
/// use pom_poly::{BasicSet, LinearExpr, Map};
///
/// // The schedule (i, j) -> (j, i): loop interchange as a map.
/// let m = Map::from_exprs(
///     &["i", "j"],
///     &["o0", "o1"],
///     vec![LinearExpr::var("j"), LinearExpr::var("i")],
/// );
/// let dom = BasicSet::from_bounds(&[("i", 0, 2), ("j", 0, 4)]);
/// let img = m.apply(&dom).unwrap();
/// assert_eq!(img.count_points(), Ok(15));
/// assert_eq!(img.contains(&[4, 2]), Ok(true));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Map {
    in_dims: Vec<String>,
    out_dims: Vec<String>,
    constraints: Vec<Constraint>,
}

impl Map {
    /// Builds a map from explicit output expressions over the input dims.
    ///
    /// # Panics
    ///
    /// Panics if `exprs.len() != out_dims.len()`.
    pub fn from_exprs(in_dims: &[&str], out_dims: &[&str], exprs: Vec<LinearExpr>) -> Self {
        assert_eq!(
            exprs.len(),
            out_dims.len(),
            "one expression required per output dimension"
        );
        let constraints = out_dims
            .iter()
            .zip(exprs)
            .map(|(o, e)| Constraint::eq(LinearExpr::var(*o), e))
            .collect();
        Map {
            in_dims: in_dims.iter().map(|s| s.to_string()).collect(),
            out_dims: out_dims.iter().map(|s| s.to_string()).collect(),
            constraints,
        }
    }

    /// The identity map over `dims` (outputs named `{dim}'`).
    pub fn identity(dims: &[&str]) -> Self {
        let out_names: Vec<String> = dims.iter().map(|d| format!("{d}'")).collect();
        let out_refs: Vec<&str> = out_names.iter().map(String::as_str).collect();
        Map::from_exprs(
            dims,
            &out_refs,
            dims.iter().map(|d| LinearExpr::var(*d)).collect(),
        )
    }

    /// Input dimension names.
    pub fn in_dims(&self) -> &[String] {
        &self.in_dims
    }

    /// Output dimension names.
    pub fn out_dims(&self) -> &[String] {
        &self.out_dims
    }

    /// The constraints relating inputs and outputs.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Adds an extra constraint (e.g. restricting the domain).
    pub fn with_constraint(mut self, c: Constraint) -> Self {
        self.constraints.push(c);
        self
    }

    /// Applies the map to a set over the input dims, producing the image
    /// set over the output dims.
    ///
    /// Exact for unimodular relations (every transformation POM performs);
    /// for non-unimodular maps the result is the rational shadow, which may
    /// over-approximate the integer image (e.g. lose parity constraints).
    ///
    /// # Errors
    ///
    /// Returns [`PolyError::Overflow`] when the projection leaves `i64`.
    pub fn apply(&self, set: &BasicSet) -> Result<BasicSet, PolyError> {
        let mut combined = set.clone();
        for o in &self.out_dims {
            combined = combined.intersect(&BasicSet::universe(&[o.as_str()]));
        }
        for c in &self.constraints {
            combined.add_constraint(c.clone());
        }
        let ins: Vec<&str> = self.in_dims.iter().map(String::as_str).collect();
        let mut result = combined.project_out(&ins)?;
        // Reorder to out_dims order.
        let order: Vec<&str> = self.out_dims.iter().map(String::as_str).collect();
        result.reorder_dims(&order);
        Ok(result)
    }

    /// Composes `self` with `after`: `(after ∘ self)(x) = after(self(x))`.
    ///
    /// # Errors
    ///
    /// Returns [`PolyError::Overflow`] when the projection leaves `i64`.
    ///
    /// # Panics
    ///
    /// Panics if `self.out_dims != after.in_dims`.
    pub fn compose(&self, after: &Map) -> Result<Map, PolyError> {
        assert_eq!(
            self.out_dims, after.in_dims,
            "composition requires matching intermediate space"
        );
        let mut constraints = self.constraints.clone();
        constraints.extend(after.constraints.iter().cloned());
        let mids: Vec<&str> = self.out_dims.iter().map(String::as_str).collect();
        let cs = crate::fm::eliminate_all(&constraints, &mids)?.into_constraints();
        Ok(Map {
            in_dims: self.in_dims.clone(),
            out_dims: after.out_dims.clone(),
            constraints: cs,
        })
    }

    /// Evaluates the map at a concrete input point, assuming the map is a
    /// function given by `out == expr` equalities. Returns `None` when an
    /// output is not uniquely determined.
    pub fn eval(&self, point: &[i64]) -> Option<Vec<i64>> {
        assert_eq!(point.len(), self.in_dims.len(), "input arity mismatch");
        let assignment: HashMap<String, i64> = self
            .in_dims
            .iter()
            .cloned()
            .zip(point.iter().copied())
            .collect();
        let mut out = Vec::with_capacity(self.out_dims.len());
        for o in &self.out_dims {
            let mut val = None;
            for c in &self.constraints {
                if c.kind != crate::constraint::ConstraintKind::Eq {
                    continue;
                }
                let a = c.expr.coeff(o);
                if a.abs() != 1 {
                    continue;
                }
                // a*o + rest == 0 with rest only over inputs.
                let mut rest = c.expr.clone();
                rest.set_coeff(o, 0);
                if rest.vars().any(|v| !assignment.contains_key(v)) {
                    continue;
                }
                let r = rest.eval(&assignment);
                val = Some(-a * r);
                break;
            }
            out.push(val?);
        }
        Some(out)
    }
}

impl fmt::Display for Map {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{{ ({}) -> ({}) : ",
            self.in_dims.join(", "),
            self.out_dims.join(", ")
        )?;
        for (i, c) in self.constraints.iter().enumerate() {
            if i > 0 {
                write!(f, " and ")?;
            }
            write!(f, "{c}")?;
        }
        if self.constraints.is_empty() {
            write!(f, "true")?;
        }
        write!(f, " }}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_interchange() {
        let m = Map::from_exprs(
            &["i", "j"],
            &["a", "b"],
            vec![LinearExpr::var("j"), LinearExpr::var("i")],
        );
        let dom = BasicSet::from_bounds(&[("i", 0, 1), ("j", 0, 2)]);
        let img = m.apply(&dom).unwrap();
        assert_eq!(img.dims(), &["a".to_string(), "b".to_string()]);
        assert_eq!(img.count_points(), Ok(6));
        assert_eq!(img.contains(&[2, 1]), Ok(true));
        assert_eq!(img.contains(&[3, 0]), Ok(false));
    }

    #[test]
    fn apply_skew() {
        // (i, j) -> (i, i + j) over 0<=i<=2, 0<=j<=2.
        let m = Map::from_exprs(
            &["i", "j"],
            &["a", "b"],
            vec![
                LinearExpr::var("i"),
                LinearExpr::var("i") + LinearExpr::var("j"),
            ],
        );
        let dom = BasicSet::from_bounds(&[("i", 0, 2), ("j", 0, 2)]);
        let img = m.apply(&dom).unwrap();
        assert_eq!(img.count_points(), Ok(9));
        assert_eq!(img.contains(&[2, 4]), Ok(true));
        assert_eq!(img.contains(&[0, 3]), Ok(false));
    }

    #[test]
    fn eval_function_map() {
        let m = Map::from_exprs(
            &["i", "j"],
            &["a", "b"],
            vec![
                LinearExpr::var("j") * 2 + 1,
                LinearExpr::var("i") - LinearExpr::var("j"),
            ],
        );
        assert_eq!(m.eval(&[5, 3]), Some(vec![7, 2]));
    }

    #[test]
    fn compose_maps() {
        // f: i -> i + 1; g: x -> x + 2. g∘f : i -> i + 3 (unimodular, exact).
        let f = Map::from_exprs(&["i"], &["x"], vec![LinearExpr::var("i") + 1]);
        let g = Map::from_exprs(&["x"], &["y"], vec![LinearExpr::var("x") + 2]);
        let gf = f.compose(&g).unwrap();
        let dom = BasicSet::from_bounds(&[("i", 0, 3)]);
        let img = gf.apply(&dom).unwrap();
        assert_eq!(img.contains(&[3]), Ok(true));
        assert_eq!(img.contains(&[6]), Ok(true));
        assert_eq!(img.contains(&[7]), Ok(false));
        assert_eq!(img.count_points(), Ok(4));
    }

    #[test]
    fn apply_non_unimodular_is_rational_shadow() {
        // i -> 2i over 0..=3: the integer image is {0,2,4,6}; the rational
        // shadow spans [0, 6]. Documented over-approximation.
        let m = Map::from_exprs(&["i"], &["y"], vec![LinearExpr::var("i") * 2]);
        let dom = BasicSet::from_bounds(&[("i", 0, 3)]);
        let img = m.apply(&dom).unwrap();
        assert_eq!(img.contains(&[0]), Ok(true));
        assert_eq!(img.contains(&[6]), Ok(true));
        assert_eq!(img.contains(&[7]), Ok(false));
    }

    #[test]
    fn identity_map() {
        let m = Map::identity(&["i", "j"]);
        assert_eq!(m.eval(&[4, 5]), Some(vec![4, 5]));
    }
}
