//! Integer sets: iteration domains as conjunctions of affine constraints.

use crate::constraint::{Constraint, ConstraintKind};
use crate::expr::LinearExpr;
use crate::fm;
use crate::space::{DimId, PolyError};
use crate::{ceil_div, floor_div};
use std::fmt;

/// A linear expression compiled against a dimension list: `(position,
/// coeff)` pairs and the constant, so evaluating it at a point given in
/// that order is a dot product. A variable the list does not name
/// evaluates as zero, like [`LinearExpr::eval_partial`] (enumeration
/// compiles a level's bounds against the levels above it, so the point's
/// un-assigned suffix is never read); [`DenseRow::eval_strict`] panics on
/// it instead, like [`LinearExpr::eval`]. Evaluation is checked: a value
/// outside `i64` is [`PolyError::Overflow`].
struct DenseRow {
    terms: Vec<(usize, i64)>,
    constant: i64,
    /// The first variable of the expression the list does not name.
    unknown: Option<DimId>,
}

impl DenseRow {
    fn compile(expr: &LinearExpr, dim_ids: &[DimId]) -> DenseRow {
        let mut terms = Vec::with_capacity(expr.terms_ids().len());
        let mut unknown = None;
        for &(id, coeff) in expr.terms_ids() {
            match dim_ids.iter().position(|&d| d == id) {
                Some(pos) => terms.push((pos, coeff)),
                None => {
                    unknown.get_or_insert(id);
                }
            }
        }
        DenseRow {
            terms,
            constant: expr.constant(),
            unknown,
        }
    }

    fn eval(&self, point: &[i64]) -> Result<i64, PolyError> {
        let term = |v: i64, &(pos, c): &(usize, i64)| v.checked_add(c.checked_mul(point[pos])?);
        self.terms
            .iter()
            .try_fold(self.constant, term)
            .ok_or(PolyError::Overflow)
    }

    fn eval_strict(&self, point: &[i64]) -> Result<i64, PolyError> {
        if let Some(id) = self.unknown {
            panic!("missing value for variable {}", id.name());
        }
        self.eval(point)
    }

    /// The coefficient on the dimension at `pos`.
    fn coeff_at(&self, pos: usize) -> i64 {
        self.terms
            .iter()
            .filter(|&&(p, _)| p == pos)
            .map(|&(_, c)| c)
            .sum()
    }
}

/// A constraint compiled to a [`DenseRow`]; `holds` evaluates strictly.
struct DenseConstraint(DenseRow, ConstraintKind);

impl DenseConstraint {
    fn compile(c: &Constraint, dim_ids: &[DimId]) -> Self {
        DenseConstraint(DenseRow::compile(&c.expr, dim_ids), c.kind)
    }

    fn holds(&self, point: &[i64]) -> Result<bool, PolyError> {
        let v = self.0.eval_strict(point)?;
        Ok(match self.1 {
            ConstraintKind::Eq => v == 0,
            ConstraintKind::GeZero => v >= 0,
        })
    }
}

/// One bound candidate: `(expr, divisor)` — see [`BasicSet::bounds_of`].
pub type BoundTerm = (LinearExpr, i64);

/// One level's `(lower, upper)` bound candidates — see
/// [`BasicSet::bounds_of`] and [`BasicSet::level_bounds`].
pub type LevelBounds = (Vec<BoundTerm>, Vec<BoundTerm>);

/// An integer set `{ (d0, ..., dn) : constraints }` over *named*, ordered
/// dimensions — the iteration-domain representation of the paper's
/// polyhedral IR (Section V-B).
///
/// ```
/// use pom_poly::BasicSet;
///
/// let dom = BasicSet::from_bounds(&[("i", 0, 31), ("j", 0, 31)]);
/// assert_eq!(dom.count_points(), Ok(1024));
/// assert_eq!(dom.contains(&[5, 7]), Ok(true));
/// assert_eq!(dom.contains(&[32, 0]), Ok(false));
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
    /// # Errors
    ///
    /// Returns [`PolyError::Overflow`] when a constraint's value at the
    /// point leaves `i64`.
    ///
    /// # Panics
    ///
    /// Panics if `point.len() != self.dim_count()`.
    pub fn contains(&self, point: &[i64]) -> Result<bool, PolyError> {
        assert_eq!(
            point.len(),
            self.dims.len(),
            "point arity {} does not match set arity {}",
            point.len(),
            self.dims.len()
        );
        let dim_ids = self.dim_ids();
        for c in &self.constraints {
            if !DenseConstraint::compile(c, &dim_ids).holds(point)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// The interned ids of the dimension list, in dimension order.
    fn dim_ids(&self) -> Vec<DimId> {
        self.dims.iter().map(|d| DimId::intern(d)).collect()
    }

    /// Projects out the named dimensions (Fourier–Motzkin), returning a set
    /// over the remaining dimensions.
    ///
    /// # Errors
    ///
    /// Returns [`PolyError::Overflow`] when a Fourier–Motzkin combination
    /// coefficient leaves `i64` range.
    pub fn project_out(&self, names: &[&str]) -> Result<BasicSet, PolyError> {
        let cs = fm::eliminate_all(&self.constraints, names)?.into_constraints();
        Ok(BasicSet {
            dims: self
                .dims
                .iter()
                .filter(|d| !names.contains(&d.as_str()))
                .cloned()
                .collect(),
            constraints: cs,
        })
    }

    /// Emptiness check (exact for the unit-coefficient systems POM builds;
    /// conservative — never claims empty for a non-empty set).
    pub fn is_empty(&self) -> bool {
        !fm::feasible(&self.constraints)
    }

    /// Substitutes `name := replacement` in every constraint. The dimension
    /// list is unchanged; use [`BasicSet::replace_dim`] to adjust arity.
    ///
    /// # Errors
    ///
    /// Returns [`PolyError::Overflow`] on `i64` overflow, leaving the
    /// set unchanged.
    pub fn substitute(&mut self, name: &str, replacement: &LinearExpr) -> Result<(), PolyError> {
        self.constraints = self
            .constraints
            .iter()
            .map(|c| c.substituted(name, replacement))
            .collect::<Result<_, _>>()?;
        Ok(())
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
    ///
    /// The later dimensions are projected out innermost first, one
    /// Fourier–Motzkin step each, while every step is exact (see
    /// [`BasicSet::level_bounds`]); past an inexact step they are
    /// projected out outermost first.
    ///
    /// # Errors
    ///
    /// Returns [`PolyError::Overflow`] when a projection or a bound's
    /// negation leaves `i64`.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is not a dimension of the set.
    pub fn bounds_of(&self, dim: &str) -> Result<LevelBounds, PolyError> {
        let idx = self
            .dim_index(dim)
            .unwrap_or_else(|| panic!("dimension {dim} not found"));
        let dim_ids = self.dim_ids();
        let prepared = fm::Prepared::new(&self.constraints);
        let mut chained = None;
        if let Some(p) = &prepared {
            p.exact_chain(&dim_ids, idx, |k, cs| {
                if k == idx {
                    chained = Some(Self::read_bounds(cs, dim_ids[k]));
                }
            });
        }
        chained.unwrap_or_else(|| Self::bounds_at(prepared.as_ref(), &dim_ids, idx))
    }

    /// [`BasicSet::bounds_of`] of every dimension, outermost first:
    /// `level_bounds()?[k] == bounds_of(&dims()[k])?`.
    ///
    /// One projection chain serves all levels: starting from the
    /// simplified system, level `n-1` reads its bounds, dimension `n-1`
    /// is eliminated, level `n-2` reads its bounds, and so on — `n-1`
    /// eliminations instead of one projection per level. The chain is
    /// taken only while each step is exact (an equality with a `±1`
    /// coefficient on the eliminated dimension, or all its lower-bound
    /// rows with coefficient `+1`, or all its upper-bound rows with
    /// `-1`): then every level's system has exactly the integer
    /// projection of the set as its integer points. Below the first step
    /// that is not exact, or that proves the set empty or overflows,
    /// each level projects out its later dimensions outermost first.
    ///
    /// # Errors
    ///
    /// Returns [`PolyError::Overflow`] when a Fourier–Motzkin combination
    /// coefficient of some level's projection, or a bound's negation,
    /// leaves `i64` range.
    pub fn level_bounds(&self) -> Result<Vec<LevelBounds>, PolyError> {
        let prepared = fm::Prepared::new(&self.constraints);
        let dim_ids = self.dim_ids();
        let mut chained = Vec::with_capacity(dim_ids.len());
        let reached = match &prepared {
            Some(p) => p.exact_chain(&dim_ids, 0, |k, cs| {
                chained.push(Self::read_bounds(cs, dim_ids[k]));
            }),
            None => dim_ids.len(),
        };
        let mut levels = (0..reached)
            .map(|k| Self::bounds_at(prepared.as_ref(), &dim_ids, k))
            .collect::<Result<Vec<_>, _>>()?;
        for bounds in chained.into_iter().rev() {
            levels.push(bounds?);
        }
        Ok(levels)
    }

    /// The bounds of level `idx`, projecting out the later dimensions
    /// outermost first from the prepared system (`None`: proven
    /// infeasible).
    fn bounds_at(
        prepared: Option<&fm::Prepared>,
        dim_ids: &[DimId],
        idx: usize,
    ) -> Result<LevelBounds, PolyError> {
        let projected = match prepared {
            Some(p) => p.eliminate_all(&dim_ids[idx + 1..])?,
            None => None,
        };
        match projected {
            Some(cs) => Self::read_bounds(&cs, dim_ids[idx]),
            None => Ok((
                vec![(LinearExpr::constant_expr(0), 1)],
                vec![(LinearExpr::constant_expr(-1), 1)],
            )),
        }
    }

    /// The bound candidates on `dim_id` of a system whose later
    /// dimensions are projected out.
    fn read_bounds(cs: &[Constraint], dim_id: DimId) -> Result<LevelBounds, PolyError> {
        let mut lbs = Vec::new();
        let mut ubs = Vec::new();
        for c in cs {
            let a = c.expr.coeff_id(dim_id);
            if a == 0 {
                continue;
            }
            // a*dim + rest >= 0 (or == 0): dim >= ceil(-rest / a) when
            // a > 0, dim <= floor(rest / -a) when a < 0.
            let mut rest = c.expr.clone();
            rest.set_coeff_id(dim_id, 0);
            let bound = if a > 0 {
                rest.mul_assign(-1)?;
                (rest, a)
            } else {
                (rest, a.checked_neg().ok_or(PolyError::Overflow)?)
            };
            match (c.kind, a > 0) {
                (ConstraintKind::Eq, _) => {
                    lbs.push(bound.clone());
                    ubs.push(bound);
                }
                (ConstraintKind::GeZero, true) => lbs.push(bound),
                (ConstraintKind::GeZero, false) => ubs.push(bound),
            }
        }
        Ok((lbs, ubs))
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
            // A bound whose arithmetic leaves `i64` makes the set count
            // as non-rectangular.
            match c.kind {
                ConstraintKind::Eq => {
                    if k.checked_rem(a)? != 0 {
                        return None;
                    }
                    let val = k.checked_neg()?.checked_div(a)?;
                    lo[idx] = lo[idx].max(val);
                    hi[idx] = hi[idx].min(val);
                }
                ConstraintKind::GeZero => {
                    // a*x + k >= 0
                    if a > 0 {
                        lo[idx] = lo[idx].max(ceil_div(k.checked_neg()?, a));
                    } else {
                        hi[idx] = hi[idx].min(floor_div(k, a.checked_neg()?));
                    }
                }
            }
        }
        if lo.contains(&i64::MIN) || hi.contains(&i64::MAX) {
            return None;
        }
        Some(lo.into_iter().zip(hi).collect())
    }

    /// Enumerates the integer points of a bounded set, in lexicographic
    /// order of the dimension list, walking the bound table `levels`:
    /// this set's [`BasicSet::level_bounds`], or bounds that every point
    /// of the set satisfies (the walk checks every constraint at every
    /// point it reaches, so a looser table only costs more points to
    /// reject).
    ///
    /// # Errors
    ///
    /// [`PolyError::Limit`] when the set holds more than `limit` points,
    /// [`PolyError::Unbounded`] when the walk reaches a dimension without
    /// a lower or upper bound, and [`PolyError::Overflow`] when a bound
    /// or a constraint's value leaves `i64`.
    ///
    /// # Panics
    ///
    /// Panics if `levels` does not hold one entry per dimension, or a
    /// constraint names a variable the set does not have.
    pub fn enumerate_points(
        &self,
        levels: &[LevelBounds],
        limit: usize,
    ) -> Result<Points, PolyError> {
        assert_eq!(levels.len(), self.dims.len(), "one bounds entry per level");
        // Bound candidates per level only depend on the dimension, not the
        // prefix values, so the walk reads one table of them; every row
        // is compiled once against the dimension list. A level's bound
        // rows see only the levels above it.
        let dim_ids = self.dim_ids();
        let compile_bounds = |terms: &[BoundTerm], level: usize| -> Vec<DenseBound> {
            terms
                .iter()
                .map(|(e, d)| (DenseRow::compile(e, &dim_ids[..level]), *d))
                .collect()
        };
        let constraints: Vec<DenseConstraint> = self
            .constraints
            .iter()
            .map(|c| DenseConstraint::compile(c, &dim_ids))
            .collect();
        let innermost = self.dims.len().saturating_sub(1);
        let walk = Walk {
            steps: constraints
                .iter()
                .map(|c| c.0.coeff_at(innermost))
                .collect(),
            eq_masks: constraints
                .iter()
                .map(|c| -i64::from(c.1 == ConstraintKind::Eq))
                .collect(),
            constraints,
            levels: levels
                .iter()
                .enumerate()
                .map(|(k, (lbs, ubs))| (compile_bounds(lbs, k), compile_bounds(ubs, k)))
                .collect(),
            limit,
        };
        let mut out = Points::empty(self.dims.len());
        let mut point = Vec::with_capacity(self.dims.len());
        let mut values = Vec::with_capacity(walk.constraints.len());
        walk.rec(&mut point, &mut values, &mut out)?;
        Ok(out)
    }

    /// Counts the integer points of a bounded set (testing helper): the
    /// [`BasicSet::enumerate_points`] walk of its own bound table, with a
    /// limit of ten million points.
    ///
    /// # Errors
    ///
    /// As [`BasicSet::level_bounds`] and [`BasicSet::enumerate_points`].
    pub fn count_points(&self) -> Result<usize, PolyError> {
        let points = self.enumerate_points(&self.level_bounds()?, 10_000_000)?;
        Ok(points.len())
    }
}

/// Enumerated integer points, held flat: [`Points::arity`] coordinates
/// per point, one point after another, in enumeration order. A
/// zero-dimension set's points are a count with no coordinates.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Points {
    arity: usize,
    len: usize,
    coords: Vec<i64>,
}

impl Points {
    /// No points of `arity` coordinates.
    pub fn empty(arity: usize) -> Points {
        Points {
            arity,
            len: 0,
            coords: Vec::new(),
        }
    }

    /// Coordinates per point.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether there are no points.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The points in order, each a slice of [`Points::arity`] coordinates.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[i64]> + Clone + '_ {
        (0..self.len).map(move |k| &self.coords[k * self.arity..(k + 1) * self.arity])
    }

    /// One vector per point.
    pub fn to_vecs(&self) -> Vec<Vec<i64>> {
        self.iter().map(<[i64]>::to_vec).collect()
    }
}

/// A compiled bound candidate: the row and its divisor.
type DenseBound = (DenseRow, i64);

/// The compiled enumeration walk: every constraint row, and each level's
/// lower and upper bound candidates.
struct Walk {
    constraints: Vec<DenseConstraint>,
    /// Each constraint's coefficient on the innermost dimension: how far
    /// its value moves from one innermost point to the next.
    steps: Vec<i64>,
    /// All ones for an equality, zero for an inequality, per constraint.
    eq_masks: Vec<i64>,
    levels: Vec<(Vec<DenseBound>, Vec<DenseBound>)>,
    limit: usize,
}

impl Walk {
    /// Walks the levels below `point`'s prefix; `values` is the
    /// innermost level's scratch buffer.
    fn rec(
        &self,
        point: &mut Vec<i64>,
        values: &mut Vec<i64>,
        out: &mut Points,
    ) -> Result<(), PolyError> {
        let level = point.len();
        let Some((lbs, ubs)) = self.levels.get(level) else {
            // Only a zero-dimension set has its leaf above every level.
            for c in &self.constraints {
                if !c.holds(point)? {
                    return Ok(());
                }
            }
            return self.emit(point, out);
        };
        let tightest =
            |bounds: &[DenseBound], round: fn(i64, i64) -> i64, pick: fn(i64, i64) -> i64| {
                let at = |b: Option<i64>, (e, d): &DenseBound| {
                    let v = round(e.eval(point)?, *d);
                    Ok::<_, PolyError>(Some(b.map_or(v, |b| pick(b, v))))
                };
                bounds
                    .iter()
                    .try_fold(None, at)?
                    .ok_or(PolyError::Unbounded(level))
            };
        let lb = tightest(lbs, ceil_div, i64::max)?;
        let ub = tightest(ubs, floor_div, i64::min)?;
        if level + 1 == self.levels.len() {
            return self.innermost(point, values, lb, ub, out);
        }
        for v in lb..=ub {
            point.push(v);
            self.rec(point, values, out)?;
            point.pop();
        }
        Ok(())
    }

    /// The innermost level as a counted loop over `lb..=ub`: each
    /// constraint's value at `lb` is one dot product, and each later
    /// point adds the constraint's step to it. Every constraint is still
    /// checked at every point: a value fails its constraint exactly when
    /// its sign bit is set — for an equality, the sign bit of `x | -x` —
    /// so one OR over the values decides the point. A constraint that
    /// mentions a variable the dimension list does not name panics at the
    /// first point, like [`DenseConstraint::holds`]. Each value is checked
    /// at both ends of the range; it moves monotonically between them, so
    /// the steps in between cannot leave `i64`.
    fn innermost(
        &self,
        point: &mut Vec<i64>,
        values: &mut Vec<i64>,
        lb: i64,
        ub: i64,
        out: &mut Points,
    ) -> Result<(), PolyError> {
        if lb > ub {
            return Ok(());
        }
        let level = point.len();
        let span = ub.checked_sub(lb).ok_or(PolyError::Overflow)?;
        point.push(lb);
        values.clear();
        for (c, &step) in self.constraints.iter().zip(&self.steps) {
            let v = c.0.eval_strict(point)?;
            let last = step
                .checked_mul(span)
                .and_then(|moved| v.checked_add(moved));
            last.ok_or(PolyError::Overflow)?;
            values.push(v);
        }
        let mut v = lb;
        loop {
            let signs = values
                .iter()
                .zip(&self.eq_masks)
                .fold(0, |acc, (&x, &eq)| acc | x | (x.wrapping_neg() & eq));
            if signs >= 0 {
                point[level] = v;
                self.emit(point, out)?;
            }
            if v == ub {
                break;
            }
            v += 1;
            for (x, &step) in values.iter_mut().zip(&self.steps) {
                *x += step;
            }
        }
        point.pop();
        Ok(())
    }

    /// Appends a point that satisfies every constraint.
    fn emit(&self, point: &[i64], out: &mut Points) -> Result<(), PolyError> {
        if out.len >= self.limit {
            return Err(PolyError::Limit(self.limit));
        }
        out.coords.extend_from_slice(point);
        out.len += 1;
        Ok(())
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    #[should_panic(expected = "missing value for variable j")]
    fn enumerating_a_constraint_on_an_unknown_variable_panics() {
        let s = BasicSet::from_bounds(&[("i", 0, 3)])
            .with_constraint(Constraint::ge_zero(LinearExpr::var("j")));
        let _ = s.enumerate_points(&s.level_bounds().unwrap(), 100);
    }

    #[test]
    fn rectangular_domain_enumeration() {
        let s = BasicSet::from_bounds(&[("i", 0, 3), ("j", 1, 2)]);
        let pts = s
            .enumerate_points(&s.level_bounds().unwrap(), 1000)
            .unwrap()
            .to_vecs();
        assert_eq!(pts.len(), 8);
        assert_eq!(pts[0], vec![0, 1]);
        assert_eq!(pts[7], vec![3, 2]);
    }

    #[test]
    fn triangular_domain() {
        // { (i, j) : 0 <= i <= 3, 0 <= j <= i }
        let s = BasicSet::from_bounds(&[("i", 0, 3), ("j", 0, 3)])
            .with_le(LinearExpr::var("j"), LinearExpr::var("i"));
        assert_eq!(s.count_points(), Ok(1 + 2 + 3 + 4));
        assert_eq!(s.contains(&[2, 2]), Ok(true));
        assert_eq!(s.contains(&[2, 3]), Ok(false));
    }

    #[test]
    fn projection_removes_dimension() {
        let s = BasicSet::from_bounds(&[("i", 0, 3), ("j", 0, 5)]);
        let p = s.project_out(&["j"]).unwrap();
        assert_eq!(p.dims(), &["i".to_string()]);
        assert_eq!(p.count_points(), Ok(4));
    }

    #[test]
    fn emptiness() {
        let s = BasicSet::from_bounds(&[("i", 5, 3)]);
        assert!(s.is_empty());
        let s = BasicSet::from_bounds(&[("i", 0, 3)]);
        assert!(!s.is_empty());
    }

    #[test]
    fn intersect_merges_dims_and_constraints() {
        let a = BasicSet::from_bounds(&[("i", 0, 9)]);
        let b = BasicSet::from_bounds(&[("i", 5, 20), ("j", 0, 1)]);
        let c = a.intersect(&b);
        assert_eq!(c.dims(), &["i".to_string(), "j".to_string()]);
        assert_eq!(c.count_points(), Ok(5 * 2));
    }

    #[test]
    fn bounds_of_inner_dim_depend_on_outer() {
        // j in [i, 7]
        let s = BasicSet::from_bounds(&[("i", 0, 3), ("j", 0, 7)])
            .with_ge(LinearExpr::var("j"), LinearExpr::var("i"));
        let (lbs, ubs) = s.bounds_of("j").unwrap();
        // Max lower bound at i = 2 must be 2.
        let prefix: HashMap<String, i64> = [("i".to_string(), 2)].into_iter().collect();
        let lb = lbs
            .iter()
            .map(|(e, d)| ceil_div(e.eval_partial(&prefix), *d))
            .max()
            .unwrap();
        let ub = ubs
            .iter()
            .map(|(e, d)| floor_div(e.eval_partial(&prefix), *d))
            .min()
            .unwrap();
        assert_eq!((lb, ub), (2, 7));
    }

    #[test]
    fn bounds_of_outer_dim_project_inner() {
        // Skewed: t in [0,3], s in [t, t+5]. Bounds of t must be [0,3]
        // after projecting s.
        let s = BasicSet::from_bounds(&[("t", 0, 3)])
            .intersect(&BasicSet::universe(&["s"]))
            .with_ge(LinearExpr::var("s"), LinearExpr::var("t"))
            .with_le(LinearExpr::var("s"), LinearExpr::var("t") + 5);
        let (lbs, ubs) = s.bounds_of("t").unwrap();
        let prefix = HashMap::new();
        let lb = lbs
            .iter()
            .map(|(e, d)| ceil_div(e.eval_partial(&prefix), *d))
            .max()
            .unwrap();
        let ub = ubs
            .iter()
            .map(|(e, d)| floor_div(e.eval_partial(&prefix), *d))
            .min()
            .unwrap();
        assert_eq!((lb, ub), (0, 3));
    }

    #[test]
    fn tiled_domain_has_same_cardinality() {
        // Tiling { i : 0 <= i <= 31 } by 8: constraints over (i0, i1).
        let mut s = BasicSet::from_bounds(&[("i", 0, 31)]);
        s = s.intersect(&BasicSet::universe(&["i0", "i1"]));
        s.add_constraint(Constraint::eq(
            LinearExpr::var("i"),
            LinearExpr::term("i0", 8) + LinearExpr::var("i1"),
        ));
        s.add_constraint(Constraint::ge(
            LinearExpr::var("i1"),
            LinearExpr::constant_expr(0),
        ));
        s.add_constraint(Constraint::lt(
            LinearExpr::var("i1"),
            LinearExpr::constant_expr(8),
        ));
        let tiled = s.project_out(&["i"]).unwrap();
        assert_eq!(tiled.count_points(), Ok(32));
    }

    #[test]
    fn rename_and_replace_dims() {
        let mut s = BasicSet::from_bounds(&[("i", 0, 3)]);
        s.rename_dim("i", "t");
        assert_eq!(s.dims(), &["t".to_string()]);
        assert_eq!(s.count_points(), Ok(4));

        let mut s = BasicSet::from_bounds(&[("i", 0, 3), ("j", 0, 1)]);
        s.replace_dim("i", &["i0", "i1"]);
        assert_eq!(
            s.dims(),
            &["i0".to_string(), "i1".to_string(), "j".to_string()]
        );
    }

    #[test]
    fn reorder_dims_keeps_membership_semantics() {
        let mut s = BasicSet::from_bounds(&[("i", 0, 2), ("j", 0, 5)]);
        s.reorder_dims(&["j", "i"]);
        // Point order now (j, i).
        assert_eq!(s.contains(&[5, 2]), Ok(true));
        assert_eq!(s.contains(&[2, 5]), Ok(false));
        assert_eq!(s.count_points(), Ok(18));
    }

    #[test]
    fn flat_points_hold_each_point_once_in_order() {
        let s = BasicSet::from_bounds(&[("i", 0, 2), ("j", 0, 2)])
            .with_le(LinearExpr::var("j"), LinearExpr::var("i"));
        let levels = s.level_bounds().unwrap();
        let points = s.enumerate_points(&levels, 100).unwrap();
        assert_eq!((points.arity(), points.len()), (2, 6));
        let seen: Vec<&[i64]> = points.iter().collect();
        assert_eq!(seen[0], &[0, 0]);
        assert_eq!(seen[5], &[2, 2]);
        assert_eq!(s.enumerate_points(&levels, 5), Err(PolyError::Limit(5)));
        // A zero-dimension set: one point, no coordinates.
        let unit = BasicSet::universe(&[]).enumerate_points(&[], 1).unwrap();
        assert_eq!((unit.arity(), unit.len()), (0, 1));
        assert_eq!(unit.to_vecs(), vec![Vec::<i64>::new()]);
    }

    #[test]
    fn level_bounds_of_a_tiled_skewed_nest_come_from_one_chain() {
        // i = 4*i0 + i1 over [0, 13], j skewed by i1: every step has a
        // unit coefficient on one side, so the chain serves all levels.
        let s = BasicSet::universe(&["i0", "i1", "j"])
            .with_ge(
                LinearExpr::term("i0", 4) + LinearExpr::var("i1"),
                LinearExpr::constant_expr(0),
            )
            .with_le(
                LinearExpr::term("i0", 4) + LinearExpr::var("i1"),
                LinearExpr::constant_expr(13),
            )
            .with_ge(LinearExpr::var("i1"), LinearExpr::constant_expr(0))
            .with_le(LinearExpr::var("i1"), LinearExpr::constant_expr(3))
            .with_ge(LinearExpr::var("j"), LinearExpr::var("i1"))
            .with_le(LinearExpr::var("j"), LinearExpr::var("i1") + 2);
        let levels = s.level_bounds().unwrap();
        for (k, d) in s.dims().iter().enumerate() {
            assert_eq!(levels[k], s.bounds_of(d).unwrap(), "level {k}");
        }
        // i0's range is the exact projection [0, 3]; the last tile
        // holds i1 in [0, 1] only.
        let env = |pairs: &[(&str, i64)]| -> HashMap<String, i64> {
            pairs.iter().map(|&(n, v)| (n.to_string(), v)).collect()
        };
        let range = |(lbs, ubs): &LevelBounds, at: &HashMap<String, i64>| {
            let lb = lbs
                .iter()
                .map(|(e, d)| ceil_div(e.eval_partial(at), *d))
                .max();
            let ub = ubs
                .iter()
                .map(|(e, d)| floor_div(e.eval_partial(at), *d))
                .min();
            (lb, ub)
        };
        assert_eq!(range(&levels[0], &env(&[])), (Some(0), Some(3)));
        assert_eq!(range(&levels[1], &env(&[("i0", 3)])), (Some(0), Some(1)));
        assert_eq!(s.count_points(), Ok(14 * 3));
    }

    /// Enumeration reports what stops it: a level without a bound, and
    /// bound or constraint values that leave `i64`, whose unchecked
    /// evaluation panicked (dev profile) or wrapped (release).
    #[test]
    fn enumeration_reports_unbounded_levels_and_overflow() {
        let open =
            BasicSet::universe(&["ov_i"]).with_ge(LinearExpr::var("ov_i"), LinearExpr::zero());
        assert_eq!(
            open.enumerate_points(&open.level_bounds().unwrap(), 10),
            Err(PolyError::Unbounded(0))
        );
        // ov_j's upper bound 2^62·ov_i leaves i64 at ov_i = 2.
        let wide = BasicSet::from_bounds(&[("ov_i", 1, 2), ("ov_j", 0, 3)])
            .with_le(LinearExpr::var("ov_j"), LinearExpr::term("ov_i", 1 << 62));
        assert_eq!(
            wide.enumerate_points(&wide.level_bounds().unwrap(), 100),
            Err(PolyError::Overflow)
        );
        // Near the edge, bounds and the innermost steps stay exact.
        let edge = BasicSet::from_bounds(&[("ov_i", i64::MAX - 2, i64::MAX)]);
        assert_eq!(edge.count_points(), Ok(3));
        assert_eq!(edge.contains(&[i64::MAX]), Ok(true));
    }

    #[test]
    fn display_roundtrips_meaning() {
        let s = BasicSet::from_bounds(&[("i", 0, 3)]);
        let str = s.to_string();
        assert!(str.contains("(i)"));
        assert!(str.contains(">= 0"));
    }
}
