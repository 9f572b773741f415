//! Integer sets: iteration domains as conjunctions of affine constraints.

use crate::constraint::{Constraint, ConstraintKind};
use crate::expr::LinearExpr;
use crate::fm;
use crate::space::{DimId, PolyError};
use crate::{ceil_div, floor_div};
use std::collections::HashMap;
use std::fmt;

/// A linear expression compiled against a dimension list: `(position,
/// coeff)` pairs and the constant, so evaluating it at a point given in
/// that order is a dot product. A variable the list does not name
/// evaluates as zero, like [`LinearExpr::eval_partial`] (enumeration
/// compiles a level's bounds against the levels above it, so the point's
/// un-assigned suffix is never read); [`DenseRow::eval_strict`] panics on
/// it instead, like [`LinearExpr::eval`].
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

    fn eval(&self, point: &[i64]) -> i64 {
        self.terms
            .iter()
            .fold(self.constant, |v, &(pos, c)| v + c * point[pos])
    }

    fn eval_strict(&self, point: &[i64]) -> i64 {
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

    fn holds(&self, point: &[i64]) -> bool {
        let v = self.0.eval_strict(point);
        match self.1 {
            ConstraintKind::Eq => v == 0,
            ConstraintKind::GeZero => v >= 0,
        }
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
        let dim_ids = self.dim_ids();
        self.constraints
            .iter()
            .all(|c| DenseConstraint::compile(c, &dim_ids).holds(point))
    }

    /// The interned ids of the dimension list, in dimension order.
    fn dim_ids(&self) -> Vec<DimId> {
        self.dims.iter().map(|d| DimId::intern(d)).collect()
    }

    /// Membership test with a named assignment.
    pub fn contains_assignment(&self, point: &HashMap<String, i64>) -> bool {
        self.constraints.iter().all(|c| c.satisfied(point))
    }

    /// Projects out the named dimensions (Fourier–Motzkin), returning a set
    /// over the remaining dimensions.
    ///
    /// # Panics
    ///
    /// Panics on `i64` coefficient overflow; use
    /// [`BasicSet::try_project_out`] to handle [`PolyError::Overflow`].
    pub fn project_out(&self, names: &[&str]) -> BasicSet {
        self.try_project_out(names)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Overflow-checked [`BasicSet::project_out`].
    ///
    /// # Errors
    ///
    /// Returns [`PolyError::Overflow`] when a Fourier–Motzkin combination
    /// coefficient leaves `i64` range.
    pub fn try_project_out(&self, names: &[&str]) -> Result<BasicSet, PolyError> {
        let cs = fm::try_eliminate_all(&self.constraints, names)?.into_constraints();
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
    ///
    /// The later dimensions are projected out innermost first, one
    /// Fourier–Motzkin step each, while every step is exact (see
    /// [`BasicSet::level_bounds`]); past an inexact step they are
    /// projected out outermost first.
    pub fn bounds_of(&self, dim: &str) -> LevelBounds {
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
        chained.unwrap_or_else(|| {
            Self::bounds_at(prepared.as_ref(), &dim_ids, idx).unwrap_or_else(|e| panic!("{e}"))
        })
    }

    /// [`BasicSet::bounds_of`] of every dimension, outermost first:
    /// `level_bounds()[k] == bounds_of(&dims()[k])`.
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
    /// # Panics
    ///
    /// Panics on `i64` coefficient overflow, like `bounds_of`; use
    /// [`BasicSet::try_level_bounds`] to handle [`PolyError::Overflow`].
    pub fn level_bounds(&self) -> Vec<LevelBounds> {
        self.try_level_bounds().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Overflow-checked [`BasicSet::level_bounds`].
    ///
    /// # Errors
    ///
    /// Returns [`PolyError::Overflow`] when a Fourier–Motzkin combination
    /// coefficient of some level's projection leaves `i64` range.
    pub fn try_level_bounds(&self) -> Result<Vec<LevelBounds>, PolyError> {
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
        levels.extend(chained.into_iter().rev());
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
        Ok(match projected {
            Some(cs) => Self::read_bounds(&cs, dim_ids[idx]),
            None => (
                vec![(LinearExpr::constant_expr(0), 1)],
                vec![(LinearExpr::constant_expr(-1), 1)],
            ),
        })
    }

    /// The bound candidates on `dim_id` of a system whose later
    /// dimensions are projected out.
    fn read_bounds(cs: &[Constraint], dim_id: DimId) -> LevelBounds {
        let mut lbs = Vec::new();
        let mut ubs = Vec::new();
        for c in cs {
            let a = c.expr.coeff_id(dim_id);
            if a == 0 {
                continue;
            }
            let mut rest = c.expr.clone();
            rest.set_coeff_id(dim_id, 0);
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
        if lo.contains(&i64::MIN) || hi.contains(&i64::MAX) {
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
    /// `limit` points; [`BasicSet::try_enumerate_points`] returns `None`
    /// instead.
    pub fn enumerate_points(&self, limit: usize) -> Vec<Vec<i64>> {
        self.enumerate_flat(limit).to_vecs()
    }

    /// [`BasicSet::enumerate_points`] into one flat buffer.
    ///
    /// # Panics
    ///
    /// As [`BasicSet::enumerate_points`].
    pub fn enumerate_flat(&self, limit: usize) -> Points {
        self.enumerate(&self.level_bounds(), limit)
            .unwrap_or_else(|stop| match stop {
                EnumStop::Limit => panic!("point enumeration exceeded limit {limit}"),
                EnumStop::Unbounded(level, side) => {
                    panic!("dimension {} has no {side} bound", self.dims[level])
                }
            })
    }

    /// [`BasicSet::enumerate_points`] for callers with a fallback: `None`
    /// when the walk reaches a dimension without a lower or upper bound,
    /// or when the set holds more than `limit` points.
    pub fn try_enumerate_points(&self, limit: usize) -> Option<Vec<Vec<i64>>> {
        self.try_enumerate_points_with(&self.level_bounds(), limit)
    }

    /// [`BasicSet::try_enumerate_points`] walking bounds the caller already
    /// holds; `levels` must be this set's [`BasicSet::level_bounds`], or
    /// bounds that every point of the set satisfies (the walk checks every
    /// constraint at every point it reaches, so a looser table only costs
    /// more points to reject).
    pub fn try_enumerate_points_with(
        &self,
        levels: &[LevelBounds],
        limit: usize,
    ) -> Option<Vec<Vec<i64>>> {
        self.try_enumerate_flat(levels, limit).map(|p| p.to_vecs())
    }

    /// [`BasicSet::try_enumerate_points_with`] into one flat buffer: the
    /// same points in the same order, without a vector per point.
    pub fn try_enumerate_flat(&self, levels: &[LevelBounds], limit: usize) -> Option<Points> {
        self.enumerate(levels, limit).ok()
    }

    /// Counts the integer points of a bounded set (testing helper).
    pub fn count_points(&self) -> usize {
        self.enumerate_flat(10_000_000).len()
    }

    fn enumerate(&self, levels: &[LevelBounds], limit: usize) -> Result<Points, EnumStop> {
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
    ) -> Result<(), EnumStop> {
        let level = point.len();
        let Some((lbs, ubs)) = self.levels.get(level) else {
            // Only a zero-dimension set has its leaf above every level.
            if self.constraints.iter().all(|c| c.holds(point)) {
                self.emit(point, out)?;
            }
            return Ok(());
        };
        let lb = lbs
            .iter()
            .map(|(e, d)| ceil_div(e.eval(point), *d))
            .max()
            .ok_or(EnumStop::Unbounded(level, "lower"))?;
        let ub = ubs
            .iter()
            .map(|(e, d)| floor_div(e.eval(point), *d))
            .min()
            .ok_or(EnumStop::Unbounded(level, "upper"))?;
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
    /// first point, like [`DenseConstraint::holds`].
    fn innermost(
        &self,
        point: &mut Vec<i64>,
        values: &mut Vec<i64>,
        lb: i64,
        ub: i64,
        out: &mut Points,
    ) -> Result<(), EnumStop> {
        if lb > ub {
            return Ok(());
        }
        let level = point.len();
        point.push(lb);
        values.clear();
        values.extend(self.constraints.iter().map(|c| c.0.eval_strict(point)));
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
    fn emit(&self, point: &[i64], out: &mut Points) -> Result<(), EnumStop> {
        if out.len >= self.limit {
            return Err(EnumStop::Limit);
        }
        out.coords.extend_from_slice(point);
        out.len += 1;
        Ok(())
    }
}

/// Why a point enumeration gave up (the walk is lazy: a missing bound
/// only counts once some prefix actually reaches that dimension).
enum EnumStop {
    Limit,
    /// The level, and which bound (`"lower"` / `"upper"`) it lacks.
    Unbounded(usize, &'static str),
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

    #[test]
    #[should_panic(expected = "missing value for variable j")]
    fn enumerating_a_constraint_on_an_unknown_variable_panics() {
        BasicSet::from_bounds(&[("i", 0, 3)])
            .with_constraint(Constraint::ge_zero(LinearExpr::var("j")))
            .enumerate_points(100);
    }

    #[test]
    fn rectangular_domain_enumeration() {
        let s = BasicSet::from_bounds(&[("i", 0, 3), ("j", 1, 2)]);
        let pts = s.enumerate_points(1000);
        assert_eq!(pts.len(), 8);
        assert_eq!(pts[0], vec![0, 1]);
        assert_eq!(pts[7], vec![3, 2]);
    }

    #[test]
    fn triangular_domain() {
        // { (i, j) : 0 <= i <= 3, 0 <= j <= i }
        let s = BasicSet::from_bounds(&[("i", 0, 3), ("j", 0, 3)])
            .with_le(LinearExpr::var("j"), LinearExpr::var("i"));
        assert_eq!(s.count_points(), 1 + 2 + 3 + 4);
        assert!(s.contains(&[2, 2]));
        assert!(!s.contains(&[2, 3]));
    }

    #[test]
    fn projection_removes_dimension() {
        let s = BasicSet::from_bounds(&[("i", 0, 3), ("j", 0, 5)]);
        let p = s.project_out(&["j"]);
        assert_eq!(p.dims(), &["i".to_string()]);
        assert_eq!(p.count_points(), 4);
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
        assert_eq!(c.count_points(), 5 * 2);
    }

    #[test]
    fn bounds_of_inner_dim_depend_on_outer() {
        // j in [i, 7]
        let s = BasicSet::from_bounds(&[("i", 0, 3), ("j", 0, 7)])
            .with_ge(LinearExpr::var("j"), LinearExpr::var("i"));
        let (lbs, ubs) = s.bounds_of("j");
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
        let (lbs, ubs) = s.bounds_of("t");
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
        let tiled = s.project_out(&["i"]);
        assert_eq!(tiled.count_points(), 32);
    }

    #[test]
    fn rename_and_replace_dims() {
        let mut s = BasicSet::from_bounds(&[("i", 0, 3)]);
        s.rename_dim("i", "t");
        assert_eq!(s.dims(), &["t".to_string()]);
        assert_eq!(s.count_points(), 4);

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
        assert!(s.contains(&[5, 2]));
        assert!(!s.contains(&[2, 5]));
        assert_eq!(s.count_points(), 18);
    }

    #[test]
    fn flat_points_hold_each_point_once_in_order() {
        let s = BasicSet::from_bounds(&[("i", 0, 2), ("j", 0, 2)])
            .with_le(LinearExpr::var("j"), LinearExpr::var("i"));
        let points = s.enumerate_flat(100);
        assert_eq!((points.arity(), points.len()), (2, 6));
        let seen: Vec<&[i64]> = points.iter().collect();
        assert_eq!(seen[0], &[0, 0]);
        assert_eq!(seen[5], &[2, 2]);
        assert_eq!(points.to_vecs(), s.enumerate_points(100));
        assert_eq!(s.try_enumerate_flat(&s.level_bounds(), 5), None);
        // A zero-dimension set: one point, no coordinates.
        let unit = BasicSet::universe(&[]).enumerate_flat(1);
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
        let levels = s.level_bounds();
        for (k, d) in s.dims().iter().enumerate() {
            assert_eq!(levels[k], s.bounds_of(d), "level {k}");
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
        assert_eq!(s.count_points(), 14 * 3);
    }

    #[test]
    fn display_roundtrips_meaning() {
        let s = BasicSet::from_bounds(&[("i", 0, 3)]);
        let str = s.to_string();
        assert!(str.contains("(i)"));
        assert!(str.contains(">= 0"));
    }
}
