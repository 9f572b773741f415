//! Integer sets: iteration domains as conjunctions of affine constraints.

use super::constraint::{Constraint, ConstraintKind};
use super::expr::LinearExpr;
use super::fm::{self, Projection};
use crate::{ceil_div, floor_div};
use std::collections::HashMap;
use std::fmt;

/// An integer set `{ (d0, ..., dn) : constraints }` over *named*, ordered
/// dimensions — the iteration-domain representation of the paper's
/// polyhedral IR (Section V-B).
///
/// ```
/// use pom_poly::reference::BasicSet;
///
/// let dom = BasicSet::from_bounds(&[("i", 0, 31), ("j", 0, 31)]);
/// assert_eq!(dom.count_points(), 1024);
/// assert!(dom.contains(&[5, 7]));
/// assert!(!dom.contains(&[32, 0]));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BasicSet {
    dims: Vec<String>,
    constraints: Vec<Constraint>,
}

impl BasicSet {
    /// The universe set over the given dimensions.
    pub fn universe(dims: &[&str]) -> Self {
        BasicSet {
            dims: dims.iter().map(|s| s.to_string()).collect(),
            constraints: Vec::new(),
        }
    }

    /// A rectangular domain: each `(name, lb, ub)` adds `lb <= name <= ub`
    /// (inclusive bounds, as in the paper's `var i("i", 0, 32)` which spans
    /// `[0, 32)` — callers pass `ub - 1`).
    pub fn from_bounds(bounds: &[(&str, i64, i64)]) -> Self {
        let mut set = BasicSet {
            dims: bounds.iter().map(|(n, _, _)| n.to_string()).collect(),
            constraints: Vec::new(),
        };
        for &(name, lb, ub) in bounds {
            set.constraints.push(Constraint::ge(
                LinearExpr::var(name),
                LinearExpr::constant_expr(lb),
            ));
            set.constraints.push(Constraint::le(
                LinearExpr::var(name),
                LinearExpr::constant_expr(ub),
            ));
        }
        set
    }

    /// Dimension names, outermost first.
    pub fn dims(&self) -> &[String] {
        &self.dims
    }

    /// Number of dimensions.
    pub fn dim_count(&self) -> usize {
        self.dims.len()
    }

    /// Index of a dimension by name.
    pub fn dim_index(&self, name: &str) -> Option<usize> {
        self.dims.iter().position(|d| d == name)
    }

    /// The constraint list.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Adds a constraint in place.
    pub fn add_constraint(&mut self, c: Constraint) {
        self.constraints.push(c);
    }

    /// Builder-style: adds a constraint.
    pub fn with_constraint(mut self, c: Constraint) -> Self {
        self.add_constraint(c);
        self
    }

    /// Builder-style: adds `lhs <= rhs`.
    pub fn with_le(self, lhs: LinearExpr, rhs: LinearExpr) -> Self {
        self.with_constraint(Constraint::le(lhs, rhs))
    }

    /// Builder-style: adds `lhs >= rhs`.
    pub fn with_ge(self, lhs: LinearExpr, rhs: LinearExpr) -> Self {
        self.with_constraint(Constraint::ge(lhs, rhs))
    }

    /// Builder-style: adds `lhs == rhs`.
    pub fn with_eq(self, lhs: LinearExpr, rhs: LinearExpr) -> Self {
        self.with_constraint(Constraint::eq(lhs, rhs))
    }

    /// Intersects two sets over the union of their dimension lists
    /// (dimensions of `self` first, then any new dimensions of `other`).
    pub fn intersect(&self, other: &BasicSet) -> BasicSet {
        let mut dims = self.dims.clone();
        for d in &other.dims {
            if !dims.contains(d) {
                dims.push(d.clone());
            }
        }
        let mut constraints = self.constraints.clone();
        constraints.extend(other.constraints.iter().cloned());
        BasicSet { dims, constraints }
    }

    /// Membership test for a point given in dimension order.
    ///
    /// # Panics
    ///
    /// Panics if `point.len() != self.dim_count()`.
    pub fn contains(&self, point: &[i64]) -> bool {
        assert_eq!(
            point.len(),
            self.dims.len(),
            "point arity {} does not match set arity {}",
            point.len(),
            self.dims.len()
        );
        let assignment: HashMap<String, i64> = self
            .dims
            .iter()
            .cloned()
            .zip(point.iter().copied())
            .collect();
        self.constraints.iter().all(|c| c.satisfied(&assignment))
    }

    /// Membership test with a named assignment.
    pub fn contains_assignment(&self, point: &HashMap<String, i64>) -> bool {
        self.constraints.iter().all(|c| c.satisfied(point))
    }

    /// Projects out the named dimensions (Fourier–Motzkin), returning a set
    /// over the remaining dimensions.
    pub fn project_out(&self, names: &[&str]) -> BasicSet {
        let cs = fm::eliminate_all(&self.constraints, names).into_constraints();
        BasicSet {
            dims: self
                .dims
                .iter()
                .filter(|d| !names.contains(&d.as_str()))
                .cloned()
                .collect(),
            constraints: cs,
        }
    }

    /// Emptiness check (exact for the unit-coefficient systems POM builds;
    /// conservative — never claims empty for a non-empty set).
    pub fn is_empty(&self) -> bool {
        !fm::feasible(&self.constraints)
    }

    /// Substitutes `name := replacement` in every constraint. The dimension
    /// list is unchanged; use [`BasicSet::remove_dim`] or
    /// [`BasicSet::replace_dim`] to adjust arity.
    pub fn substitute(&mut self, name: &str, replacement: &LinearExpr) {
        for c in &mut self.constraints {
            *c = c.substituted(name, replacement);
        }
    }

    /// Renames a dimension in both the dimension list and all constraints.
    pub fn rename_dim(&mut self, from: &str, to: &str) {
        if let Some(i) = self.dim_index(from) {
            self.dims[i] = to.to_string();
        }
        for c in &mut self.constraints {
            *c = c.renamed(from, to);
        }
    }

    /// Removes a dimension from the dimension list (constraints must no
    /// longer mention it).
    pub fn remove_dim(&mut self, name: &str) {
        debug_assert!(
            self.constraints.iter().all(|c| !c.uses(name)),
            "removing dimension {name} still referenced by constraints"
        );
        self.dims.retain(|d| d != name);
    }

    /// Replaces dimension `name` with new dimensions inserted at its
    /// position (used by split/tile which turn `i` into `(i0, i1)`).
    pub fn replace_dim(&mut self, name: &str, with: &[&str]) {
        let idx = self
            .dim_index(name)
            .unwrap_or_else(|| panic!("dimension {name} not found"));
        self.dims
            .splice(idx..=idx, with.iter().map(|s| s.to_string()));
    }

    /// Reorders dimensions to the given permutation of names.
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of the current dimensions.
    pub fn reorder_dims(&mut self, order: &[&str]) {
        assert_eq!(order.len(), self.dims.len(), "arity mismatch in reorder");
        for d in order {
            assert!(
                self.dims.iter().any(|x| x == d),
                "unknown dimension {d} in reorder"
            );
        }
        self.dims = order.iter().map(|s| s.to_string()).collect();
    }

    /// Lower/upper bound candidates for `dim` as affine expressions over the
    /// dimensions that precede it, after projecting out all later
    /// dimensions. Each bound is `(expr, divisor)`:
    /// lower bounds mean `dim >= ceil(expr / divisor)`,
    /// upper bounds mean `dim <= floor(expr / divisor)`.
    pub fn bounds_of(&self, dim: &str) -> (Vec<(LinearExpr, i64)>, Vec<(LinearExpr, i64)>) {
        let idx = self
            .dim_index(dim)
            .unwrap_or_else(|| panic!("dimension {dim} not found"));
        let later: Vec<&str> = self.dims[idx + 1..].iter().map(String::as_str).collect();
        let cs = match fm::eliminate_all(&self.constraints, &later) {
            Projection::Feasible(cs) => cs,
            Projection::Infeasible => {
                return (
                    vec![(LinearExpr::constant_expr(0), 1)],
                    vec![(LinearExpr::constant_expr(-1), 1)],
                )
            }
        };
        let mut lbs = Vec::new();
        let mut ubs = Vec::new();
        for c in &cs {
            let a = c.expr.coeff(dim);
            if a == 0 {
                continue;
            }
            let mut rest = c.expr.clone();
            rest.set_coeff(dim, 0);
            match c.kind {
                ConstraintKind::GeZero => {
                    if a > 0 {
                        // a*dim + rest >= 0 => dim >= ceil(-rest / a)
                        lbs.push((-rest, a));
                    } else {
                        // dim <= floor(rest / -a)
                        ubs.push((rest, -a));
                    }
                }
                ConstraintKind::Eq => {
                    if a > 0 {
                        lbs.push((-rest.clone(), a));
                        ubs.push((-rest, a));
                    } else {
                        lbs.push((rest.clone(), -a));
                        ubs.push((rest, -a));
                    }
                }
            }
        }
        (lbs, ubs)
    }

    /// When the set is a constant rectangle (every constraint bounds a
    /// single dimension by a constant), returns the `(lb, ub)` range per
    /// dimension in dimension order. `None` for non-rectangular sets.
    pub fn rectangular_bounds(&self) -> Option<Vec<(i64, i64)>> {
        let mut lo = vec![i64::MIN; self.dims.len()];
        let mut hi = vec![i64::MAX; self.dims.len()];
        for c in &self.constraints {
            let mut vars = c.expr.vars();
            let (Some(v), None) = (vars.next(), vars.next()) else {
                return None; // constant-only or multi-var constraint
            };
            let idx = self.dim_index(v)?;
            let a = c.expr.coeff(v);
            let k = c.expr.constant();
            match c.kind {
                ConstraintKind::Eq => {
                    if k % a != 0 {
                        return None;
                    }
                    let val = -k / a;
                    lo[idx] = lo[idx].max(val);
                    hi[idx] = hi[idx].min(val);
                }
                ConstraintKind::GeZero => {
                    // a*x + k >= 0
                    if a > 0 {
                        lo[idx] = lo[idx].max(ceil_div(-k, a));
                    } else {
                        hi[idx] = hi[idx].min(floor_div(k, -a));
                    }
                }
            }
        }
        if lo.iter().any(|&x| x == i64::MIN) || hi.iter().any(|&x| x == i64::MAX) {
            return None;
        }
        Some(lo.into_iter().zip(hi).collect())
    }

    /// Enumerates all integer points of a bounded set, in lexicographic
    /// order of the dimension list. Intended for testing and small domains.
    ///
    /// # Panics
    ///
    /// Panics if a dimension is unbounded or the enumeration exceeds
    /// `limit` points.
    pub fn enumerate_points(&self, limit: usize) -> Vec<Vec<i64>> {
        let mut out = Vec::new();
        let mut prefix: HashMap<String, i64> = HashMap::new();
        let mut point = Vec::new();
        self.enumerate_rec(0, &mut prefix, &mut point, &mut out, limit);
        out
    }

    /// Counts the integer points of a bounded set (testing helper).
    pub fn count_points(&self) -> usize {
        self.enumerate_points(10_000_000).len()
    }

    fn enumerate_rec(
        &self,
        level: usize,
        prefix: &mut HashMap<String, i64>,
        point: &mut Vec<i64>,
        out: &mut Vec<Vec<i64>>,
        limit: usize,
    ) {
        if level == self.dims.len() {
            if self.contains_assignment(prefix) {
                assert!(
                    out.len() < limit,
                    "point enumeration exceeded limit {limit}"
                );
                out.push(point.clone());
            }
            return;
        }
        let dim = self.dims[level].clone();
        let (lbs, ubs) = self.bounds_of(&dim);
        let lb = lbs
            .iter()
            .map(|(e, d)| ceil_div(e.eval_partial(prefix), *d))
            .max()
            .unwrap_or_else(|| panic!("dimension {dim} has no lower bound"));
        let ub = ubs
            .iter()
            .map(|(e, d)| floor_div(e.eval_partial(prefix), *d))
            .min()
            .unwrap_or_else(|| panic!("dimension {dim} has no upper bound"));
        for v in lb..=ub {
            prefix.insert(dim.clone(), v);
            point.push(v);
            self.enumerate_rec(level + 1, prefix, point, out, limit);
            point.pop();
        }
        prefix.remove(&dim);
    }
}

impl fmt::Display for BasicSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{ ({}) : ", self.dims.join(", "))?;
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
