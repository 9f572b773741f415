//! Exact dependence analysis: distance and direction vectors between
//! dependent statement instances (Section II-A / Fig. 1 of the paper).
//!
//! For a pair of affine accesses to the same array inside an iteration
//! domain, the analysis solves the integer system
//! `acc_src(s) == acc_dst(s + d)` for constant distance vectors `d`. When
//! the access matrices agree (uniform dependences — the case for every
//! kernel in the paper's evaluation) the system reduces to `A·d = Δc`,
//! which is solved exactly via fraction-free Gaussian elimination yielding
//! a particular solution plus a nullspace basis. Free nullspace directions
//! correspond to reuse carried by a loop (e.g. `q[i]` re-read along `j` in
//! BICG), giving a minimal carried distance of one at that level.

use crate::astbuild::{lower_at, upper_at};
use crate::constraint::Constraint;
use crate::expr::LinearExpr;
use crate::fm;
use crate::set::BasicSet;
use crate::space::PolyError;
use crate::vector::{Direction, DirectionVector, DistanceVector};
use std::collections::HashMap;
use std::fmt;

/// An affine array access: `array[e0][e1]...` with each index an affine
/// expression over the iteration dimensions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AccessFn {
    /// Name of the accessed array.
    pub array: String,
    /// One affine index expression per array dimension.
    pub indices: Vec<LinearExpr>,
}

impl AccessFn {
    /// Creates an access function.
    pub fn new(array: impl Into<String>, indices: Vec<LinearExpr>) -> Self {
        AccessFn {
            array: array.into(),
            indices,
        }
    }

    /// The iteration dimensions (by index into `dims`) that do **not**
    /// appear in any index expression — the paper's *reduction dimensions*
    /// (Fig. 8③): a store whose pattern omits `k` accumulates along `k`.
    pub fn reduction_dims(&self, dims: &[String]) -> Vec<usize> {
        dims.iter()
            .enumerate()
            .filter(|(_, d)| !self.indices.iter().any(|e| e.uses(d)))
            .map(|(i, _)| i)
            .collect()
    }
}

impl fmt::Display for AccessFn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.array)?;
        for e in &self.indices {
            write!(f, "[{e}]")?;
        }
        Ok(())
    }
}

/// The classic dependence classification.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DepKind {
    /// Read-after-write (true dependence).
    Flow,
    /// Write-after-read.
    Anti,
    /// Write-after-write.
    Output,
}

impl fmt::Display for DepKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DepKind::Flow => "flow",
            DepKind::Anti => "anti",
            DepKind::Output => "output",
        };
        write!(f, "{s}")
    }
}

/// One dependence between two accesses, with its distance/direction
/// vectors when the dependence is uniform.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Dependence {
    /// Flow / anti / output.
    pub kind: DepKind,
    /// Array through which the dependence flows.
    pub array: String,
    /// Constant distance vector (`None` for non-uniform dependences).
    pub distance: Option<DistanceVector>,
    /// Direction vector (entries `Unknown` when non-uniform).
    pub direction: DirectionVector,
    /// Loop level carrying the dependence (0 = outermost); `None` for
    /// loop-independent (intra-iteration) dependences.
    pub carried_level: Option<usize>,
}

impl Dependence {
    /// The conservative "may depend" answer for an analysis that could
    /// not decide (its arithmetic left `i64`): a non-uniform dependence
    /// of unknown direction carried at the outermost of `depth` levels
    /// (loop-independent when there is no level).
    pub fn unknown(kind: DepKind, array: &str, depth: usize) -> Dependence {
        Dependence {
            kind,
            array: array.to_string(),
            distance: None,
            direction: DirectionVector(vec![Direction::Unknown; depth]),
            carried_level: (depth > 0).then_some(0),
        }
    }

    /// True when the dependence is carried by some loop level.
    pub fn is_loop_carried(&self) -> bool {
        self.carried_level.is_some()
    }

    /// The carried distance, when constant.
    pub fn carried_distance(&self) -> Option<i64> {
        let level = self.carried_level?;
        self.distance.as_ref().map(|d| d.0[level])
    }
}

impl fmt::Display for Dependence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} dep on {}: ", self.kind, self.array)?;
        match &self.distance {
            Some(d) => write!(f, "d = {d}, D = {}", self.direction)?,
            None => write!(f, "non-uniform, D = {}", self.direction)?,
        }
        match self.carried_level {
            Some(l) => write!(f, ", carried at level {l}"),
            None => write!(f, ", loop-independent"),
        }
    }
}

/// Entry point for pairwise dependence analysis.
#[derive(Clone, Copy, Debug, Default)]
pub struct DependenceAnalysis {
    /// Search radius for nullspace coefficients when enumerating candidate
    /// distance vectors (default 3; ample for the uniform dependences of
    /// affine kernels).
    pub search_radius: i64,
}

impl DependenceAnalysis {
    /// Creates an analysis with the default search radius.
    pub fn new() -> Self {
        DependenceAnalysis { search_radius: 3 }
    }

    /// Analyzes the dependences from `src` (earlier access) to `dst`
    /// (later access) over the iteration `dims` bounded by `domain`.
    ///
    /// Returns one [`Dependence`] per *minimal* carried distance vector per
    /// carrying level, plus at most one loop-independent dependence.
    ///
    /// # Errors
    ///
    /// Returns [`PolyError::Overflow`] when the access constants, a
    /// candidate distance or the domain's projection leave `i64`. The
    /// analysis then cannot tell, and callers must read the pair as
    /// dependent ([`Dependence::unknown`]), never as independent.
    pub fn analyze_pair(
        &self,
        src: &AccessFn,
        dst: &AccessFn,
        kind: DepKind,
        dims: &[String],
        domain: &BasicSet,
    ) -> Result<Vec<Dependence>, PolyError> {
        if src.array != dst.array {
            return Ok(Vec::new());
        }
        debug_assert_eq!(
            src.indices.len(),
            dst.indices.len(),
            "rank mismatch accessing {}",
            src.array
        );

        let n = dims.len();
        // Build A_src, A_dst and the constant difference per array dim.
        let mut uniform = true;
        let mut a = Vec::with_capacity(src.indices.len());
        let mut b = Vec::with_capacity(src.indices.len());
        for (es, ed) in src.indices.iter().zip(&dst.indices) {
            let mut row = Vec::with_capacity(n);
            for d in dims {
                let cs = es.coeff(d);
                let cd = ed.coeff(d);
                if cs != cd {
                    uniform = false;
                }
                row.push(cd); // A_dst row; used when uniform (A_src == A_dst)
            }
            a.push(row);
            // A·d = c_src - c_dst
            let delta = es.constant().checked_sub(ed.constant());
            b.push(delta.ok_or(PolyError::Overflow)?);
        }

        if !uniform {
            return self.non_uniform_dependence(src, dst, kind, dims, domain);
        }

        let Some((particular, nullspace)) = solve_integer_system(&a, &b)? else {
            return Ok(Vec::new()); // no integer solution: independent
        };

        // Keep lexicographically non-negative vectors that actually connect
        // two points of the domain; group by carrying level, keeping the
        // minimal carried distance. Rectangular domains get a constant-time
        // realizability check; others fall back to Fourier–Motzkin.
        let rect = domain.rectangular_bounds();
        let ranges = rect.map_or_else(|| midpoint_extents(dims, domain), Ok)?;
        let realizable = |d: &[i64]| -> bool {
            d.iter().zip(&ranges).all(|(&delta, &(lb, ub))| {
                // i128: the extent of a domain near the i64 edges does
                // not fit an i64.
                i128::from(delta).abs() <= i128::from(ub) - i128::from(lb)
            })
        };
        let mut best_per_level: Vec<Option<DistanceVector>> = vec![None; n];
        let mut loop_independent = false;
        let mut consider = |d: &[i64]| {
            let Some(level) = d.iter().position(|&x| x != 0) else {
                loop_independent |= realizable(d);
                return;
            };
            // Lexicographically positive, realizable, and a strictly
            // shorter carried distance than the level's best so far.
            if d[level] < 0 || !realizable(d) {
                return;
            }
            let better = match &best_per_level[level] {
                None => true,
                Some(cur) => d[level] < cur.0[level],
            };
            if better {
                best_per_level[level] = Some(DistanceVector(d.to_vec()));
            }
        };

        // Candidate distance vectors within the search radius, in odometer
        // order, each written into one reused buffer.
        let r = self.search_radius.max(1);
        // Every candidate is `particular + Σ λ·v` with `|λ| <= r`: bound
        // its components once, so the odometer adds unchecked.
        let wide = |v: &[i64]| v.iter().map(|&x| i128::from(x).abs()).sum::<i128>();
        let free = nullspace.iter().map(|v| wide(v)).sum::<i128>();
        if wide(&particular) + i128::from(r) * free > i128::from(i64::MAX) {
            return Err(PolyError::Overflow);
        }
        if nullspace.is_empty() {
            consider(&particular);
        } else {
            let mut lambdas = vec![-r; nullspace.len()];
            let mut d = particular.clone();
            loop {
                d.copy_from_slice(&particular);
                for (l, v) in lambdas.iter().zip(&nullspace) {
                    for (di, vi) in d.iter_mut().zip(v) {
                        *di += l * vi;
                    }
                }
                consider(&d);
                // Advance the odometer.
                let mut i = 0;
                while i < lambdas.len() && lambdas[i] == r {
                    lambdas[i] = -r;
                    i += 1;
                }
                if i == lambdas.len() {
                    break;
                }
                lambdas[i] += 1;
            }
        }

        let mut out = Vec::new();
        if loop_independent {
            out.push(Dependence {
                kind,
                array: src.array.clone(),
                distance: Some(DistanceVector(vec![0; n])),
                direction: DistanceVector(vec![0; n]).direction(),
                carried_level: None,
            });
        }
        for (level, best) in best_per_level.into_iter().enumerate() {
            if let Some(dv) = best {
                out.push(Dependence {
                    kind,
                    array: src.array.clone(),
                    direction: dv.direction(),
                    carried_level: Some(level),
                    distance: Some(dv),
                });
            }
        }
        Ok(out)
    }

    /// Exact check of `∃ s : s ∈ D and s + d ∈ D` for a concrete distance
    /// vector (Fourier–Motzkin feasibility). The analysis itself uses the
    /// cheaper per-dimension extent test; this is exposed for callers that
    /// need exactness on coupled domains.
    ///
    /// # Errors
    ///
    /// Returns [`PolyError::Overflow`] when a shifted constraint's
    /// constant leaves `i64`: the distance may be realizable.
    pub fn distance_realizable(
        &self,
        d: &[i64],
        dims: &[String],
        domain: &BasicSet,
    ) -> Result<bool, PolyError> {
        let dim_ids: Vec<crate::DimId> = dims.iter().map(|s| crate::DimId::intern(s)).collect();
        let mut cs: Vec<Constraint> = domain.constraints().to_vec();
        for c in domain.constraints() {
            // Shift: substitute each dim x with (x + d_x). Shifting an
            // affine constraint only moves its constant, by coeff(x)*d_x.
            let mut shifted = c.clone();
            for (&id, &delta) in dim_ids.iter().zip(d) {
                let moved = shifted.expr.coeff_id(id).checked_mul(delta);
                shifted
                    .expr
                    .add_constant(moved.ok_or(PolyError::Overflow)?)?;
            }
            cs.push(shifted);
        }
        Ok(fm::feasible(&cs))
    }

    fn non_uniform_dependence(
        &self,
        src: &AccessFn,
        dst: &AccessFn,
        kind: DepKind,
        dims: &[String],
        domain: &BasicSet,
    ) -> Result<Vec<Dependence>, PolyError> {
        // Conservative: check whether *any* pair of instances can touch the
        // same element; if so report an unknown-direction dependence
        // carried at the outermost level whose access rows differ.
        let primed: Vec<String> = dims.iter().map(|d| format!("{d}__snk")).collect();
        let mut cs: Vec<Constraint> = domain.constraints().to_vec();
        for c in domain.constraints() {
            let mut shifted = c.clone();
            for (d, p) in dims.iter().zip(&primed) {
                shifted = shifted.substituted(d, &LinearExpr::var(p))?;
            }
            cs.push(shifted);
        }
        for (es, ed) in src.indices.iter().zip(&dst.indices) {
            let mut ed_primed = ed.clone();
            for (d, p) in dims.iter().zip(&primed) {
                ed_primed = ed_primed.substituted(d, &LinearExpr::var(p))?;
            }
            // es == ed_primed
            let mut same = es.clone();
            same.add_scaled(&ed_primed, -1)?;
            cs.push(Constraint::eq_zero(same));
        }
        if !fm::feasible(&cs) {
            return Ok(Vec::new());
        }
        let level = (0..dims.len())
            .find(|&j| {
                src.indices
                    .iter()
                    .zip(&dst.indices)
                    .any(|(es, ed)| es.coeff(&dims[j]) != ed.coeff(&dims[j]))
            })
            .unwrap_or(0);
        let mut dep = Dependence::unknown(kind, &src.array, dims.len());
        dep.carried_level = Some(level);
        Ok(vec![dep])
    }
}

/// Per-dimension extents of a non-rectangular (split/skewed) domain,
/// approximated once by reading each dimension's bounds with the outer
/// dimensions at their midpoints. Over-approximating realizability only
/// adds conservative dependences, which is safe for both legality
/// checking and II estimation. Bounds are evaluated in `i128` and
/// clamped to `i64`, so a domain near the `i64` edges widens rather than
/// overflows.
fn midpoint_extents(dims: &[String], domain: &BasicSet) -> Result<Vec<(i64, i64)>, PolyError> {
    // One projection chain for all levels:
    // `level_bounds()?[dim_index(d)] == bounds_of(d)?`.
    let table = domain.level_bounds()?;
    let mut env: HashMap<String, i64> = HashMap::new();
    let mut out = Vec::with_capacity(dims.len());
    for d in dims {
        let idx = domain
            .dim_index(d)
            .unwrap_or_else(|| panic!("dimension {d} not found"));
        let (lbs, ubs) = &table[idx];
        let lb = lbs
            .iter()
            .map(|(e, dv)| lower_at(e, *dv, &env))
            .max()
            .unwrap_or(0);
        let ub = ubs
            .iter()
            .map(|(e, dv)| upper_at(e, *dv, &env))
            .min()
            .unwrap_or(lb)
            .max(lb);
        env.insert(d.clone(), crate::midpoint(lb, ub));
        out.push((lb, ub));
    }
    Ok(out)
}

/// An integer system's solutions: a particular solution and an integral
/// nullspace basis.
pub type IntegerSolution = (Vec<i64>, Vec<Vec<i64>>);

/// Solves `A x = b` over the integers via rational Gaussian elimination.
///
/// Returns `(particular_solution, nullspace_basis)`, or `None` when no
/// integer solution exists. The nullspace basis vectors are integral.
///
/// # Errors
///
/// Returns [`PolyError::Overflow`] when the elimination's `i128`
/// rationals, or a solution component, leave their range: the system's
/// solvability is then unknown.
pub fn solve_integer_system(
    a: &[Vec<i64>],
    b: &[i64],
) -> Result<Option<IntegerSolution>, PolyError> {
    let m = a.len();
    let n = if m == 0 { 0 } else { a[0].len() };
    // Augmented rational matrix (num, den) with den > 0.
    let mut mat: Vec<Vec<(i128, i128)>> = a
        .iter()
        .zip(b)
        .map(|(row, &bi)| {
            row.iter()
                .map(|&x| (x as i128, 1))
                .chain(std::iter::once((bi as i128, 1)))
                .collect()
        })
        .collect();

    fn reduce((num, den): (i128, i128)) -> Result<(i128, i128), PolyError> {
        let (num, den) = (mul(num, den.signum())?, mul(den, den.signum())?);
        if num == 0 {
            return Ok((0, 1));
        }
        let g = gcd128(mul(num, num.signum())?, den);
        Ok((num / g, den / g))
    }
    fn sub_scaled(
        row: &mut [(i128, i128)],
        pivot_row: &[(i128, i128)],
        factor: (i128, i128),
    ) -> Result<(), PolyError> {
        for (x, p) in row.iter_mut().zip(pivot_row) {
            // x -= factor * p
            let num = sub(
                mul(mul(x.0, factor.1)?, p.1)?,
                mul(mul(factor.0, p.0)?, x.1)?,
            )?;
            *x = reduce((num, mul(mul(x.1, factor.1)?, p.1)?))?;
        }
        Ok(())
    }

    // Pick pivots preferring |entry| == 1 (then the smallest magnitude):
    // unit pivots keep the zero-free-variable particular solution integral
    // for the column structure produced by loop splitting/tiling, where a
    // dimension contributes both a large-coefficient (tile) and a unit
    // (intra-tile) column.
    let mut pivot_cols: Vec<usize> = Vec::new();
    let mut row = 0;
    while row < m {
        let mut best: Option<(usize, usize, u128)> = None; // (row, col, |num/den| rank)
        #[allow(clippy::needless_range_loop)] // pivot search reads (r, col) pairs
        for col in 0..n {
            if pivot_cols.contains(&col) {
                continue;
            }
            for r in row..m {
                let (num, den) = mat[r][col];
                if num == 0 {
                    continue;
                }
                let (num, den) = (num.unsigned_abs(), den.unsigned_abs());
                let rank = if num == den { 0 } else { num.max(den) };
                if best.map(|(_, _, b)| rank < b).unwrap_or(true) {
                    best = Some((r, col, rank));
                }
            }
        }
        let Some((pr, col, _)) = best else {
            break; // remaining rows are all zero
        };
        mat.swap(row, pr);
        // Normalize pivot row so pivot == 1.
        let pivot = mat[row][col];
        for x in &mut mat[row] {
            let num = mul(x.0, pivot.1)?;
            let den = mul(x.1, pivot.0)?;
            *x = reduce((num, den))?;
        }
        // Eliminate in all other rows.
        for r in 0..m {
            if r == row {
                continue;
            }
            let f = mat[r][col];
            if f.0 != 0 {
                let pivot_row = mat[row].clone();
                sub_scaled(&mut mat[r], &pivot_row, f)?;
            }
        }
        pivot_cols.push(col);
        row += 1;
    }

    // Inconsistency check: zero row with non-zero rhs.
    for mrow in mat.iter().take(m).skip(row) {
        if mrow[..n].iter().all(|x| x.0 == 0) && mrow[n].0 != 0 {
            return Ok(None);
        }
    }

    let free_cols: Vec<usize> = (0..n).filter(|c| !pivot_cols.contains(c)).collect();

    // Particular solution: start with free vars = 0; if a pivot value is
    // fractional, search small integer assignments of the free variables
    // (an integer solution with small components exists for every uniform
    // dependence we care about, and the transformed domain bounds keep
    // interesting distances small).
    let pivot_value = |r: usize, frees: &[i64]| -> Result<Option<i64>, PolyError> {
        // x_pc = rhs - sum_fc mat[r][fc] * t_fc, all over den.
        let (bn, bd) = mat[r][n];
        let mut num = bn;
        let mut den = bd;
        for (&fc, &t) in free_cols.iter().zip(frees) {
            let (fn_, fd) = mat[r][fc];
            // num/den -= fn_/fd * t
            let keep = mul(num, fd)?;
            let take = mul(mul(fn_, t as i128)?, den)?;
            num = sub(keep, take)?;
            den = mul(den, fd)?;
        }
        if den < 0 {
            num = mul(num, -1)?;
            den = mul(den, -1)?;
        }
        if num % den != 0 {
            return Ok(None);
        }
        i64::try_from(num / den)
            .map(Some)
            .map_err(|_| PolyError::Overflow)
    };
    let assignment = |frees: &[i64]| -> Result<Option<Vec<i64>>, PolyError> {
        let mut x = vec![0i64; n];
        for (&fc, &t) in free_cols.iter().zip(frees) {
            x[fc] = t;
        }
        for (r, &pc) in pivot_cols.iter().enumerate() {
            let Some(v) = pivot_value(r, frees)? else {
                return Ok(None);
            };
            x[pc] = v;
        }
        Ok(Some(x))
    };
    let mut particular = assignment(&vec![0; free_cols.len()])?;
    if particular.is_none() && !free_cols.is_empty() {
        const RADIUS: i64 = 4;
        let k = free_cols.len();
        let mut t = vec![-RADIUS; k];
        'search: loop {
            if let Some(x) = assignment(&t)? {
                particular = Some(x);
                break;
            }
            let mut i = 0;
            loop {
                if i == k {
                    break 'search;
                }
                t[i] += 1;
                if t[i] <= RADIUS {
                    break;
                }
                t[i] = -RADIUS;
                i += 1;
            }
        }
    }
    let Some(particular) = particular else {
        return Ok(None);
    };

    // Nullspace basis: one vector per free column, scaled to integers.
    let mut basis = Vec::with_capacity(free_cols.len());
    let narrow = |v: i128| i64::try_from(v).map_err(|_| PolyError::Overflow);
    for &fc in &free_cols {
        // x_fc = t; pivots: x_pc = -mat[r][fc] * t.
        let mut denom_lcm: i128 = 1;
        for (r, _) in pivot_cols.iter().enumerate() {
            let (_, den) = mat[r][fc];
            denom_lcm = mul(denom_lcm / gcd128(denom_lcm, den), den)?;
        }
        let mut v = vec![0i64; n];
        v[fc] = narrow(denom_lcm)?;
        for (r, &pc) in pivot_cols.iter().enumerate() {
            let (num, den) = mat[r][fc];
            v[pc] = narrow(mul(mul(num, -1)?, denom_lcm / den)?)?;
        }
        basis.push(v);
    }
    Ok(Some((particular, basis)))
}

fn mul(a: i128, b: i128) -> Result<i128, PolyError> {
    // Two factors in `i64` range cannot overflow, and skip the checked
    // `i128` multiply (a call).
    if i64::try_from(a).is_ok() && i64::try_from(b).is_ok() {
        return Ok(a * b);
    }
    a.checked_mul(b).ok_or(PolyError::Overflow)
}

fn sub(a: i128, b: i128) -> Result<i128, PolyError> {
    a.checked_sub(b).ok_or(PolyError::Overflow)
}

fn gcd128(mut a: i128, mut b: i128) -> i128 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dims(names: &[&str]) -> Vec<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn solve_unique_system() {
        // d1 = 1, d2 = 1 (Fig. 1: A[i][j] vs A[i-1][j-1]).
        let a = vec![vec![1, 0], vec![0, 1]];
        let b = vec![1, 1];
        let (p, ns) = solve_integer_system(&a, &b).unwrap().expect("solvable");
        assert_eq!(p, vec![1, 1]);
        assert!(ns.is_empty());
    }

    #[test]
    fn solve_underdetermined_system() {
        // GEMM store C(i,j) vs read C(i,j) under dims (i,j,k): A has a zero
        // k column -> nullspace e_k.
        let a = vec![vec![1, 0, 0], vec![0, 1, 0]];
        let b = vec![0, 0];
        let (p, ns) = solve_integer_system(&a, &b).unwrap().expect("solvable");
        assert_eq!(p, vec![0, 0, 0]);
        assert_eq!(ns, vec![vec![0, 0, 1]]);
    }

    #[test]
    fn solve_inconsistent_system() {
        let a = vec![vec![1, 0], vec![1, 0]];
        let b = vec![0, 1];
        assert_eq!(solve_integer_system(&a, &b), Ok(None));
    }

    #[test]
    fn solve_fractional_is_rejected() {
        // 2d = 1 has no integer solution.
        let a = vec![vec![2]];
        let b = vec![1];
        assert_eq!(solve_integer_system(&a, &b), Ok(None));
    }

    #[test]
    fn fig1_dependence() {
        // S: A[i][j] = A[i-1][j-1] * 2 + 3 over 1 <= i, j <= 4.
        let d = dims(&["i", "j"]);
        let domain = BasicSet::from_bounds(&[("i", 1, 4), ("j", 1, 4)]);
        let write = AccessFn::new("A", vec![LinearExpr::var("i"), LinearExpr::var("j")]);
        let read = AccessFn::new(
            "A",
            vec![LinearExpr::var("i") - 1, LinearExpr::var("j") - 1],
        );
        let deps = DependenceAnalysis::new()
            .analyze_pair(&write, &read, DepKind::Flow, &d, &domain)
            .unwrap();
        assert_eq!(deps.len(), 1);
        let dep = &deps[0];
        assert_eq!(dep.distance, Some(DistanceVector(vec![1, 1])));
        assert_eq!(dep.direction.to_string(), "(<, <)");
        assert_eq!(dep.carried_level, Some(0));
    }

    #[test]
    fn gemm_reduction_dependence() {
        // C[i][j] += ... : write C(i,j), read C(i,j), dims (i,j,k).
        let d = dims(&["i", "j", "k"]);
        let domain = BasicSet::from_bounds(&[("i", 0, 31), ("j", 0, 31), ("k", 0, 31)]);
        let acc = AccessFn::new("C", vec![LinearExpr::var("i"), LinearExpr::var("j")]);
        let deps = DependenceAnalysis::new()
            .analyze_pair(&acc, &acc, DepKind::Flow, &d, &domain)
            .unwrap();
        // Loop-independent (same iteration) + carried at k with distance 1.
        assert!(deps
            .iter()
            .any(|x| x.carried_level == Some(2) && x.carried_distance() == Some(1)));
        assert!(deps.iter().any(|x| x.carried_level.is_none()));
        // Paper Fig. 8: distance vector (0, 0, 1).
        let carried = deps.iter().find(|x| x.carried_level == Some(2)).unwrap();
        assert_eq!(carried.distance, Some(DistanceVector(vec![0, 0, 1])));
    }

    #[test]
    fn bicg_q_dependence_carried_at_inner_loop() {
        // q[i] = q[i] + A[i][j] * p[j], dims (i, j): dependence carried at
        // level 1 (j) with distance (0, 1).
        let d = dims(&["i", "j"]);
        let domain = BasicSet::from_bounds(&[("i", 0, 31), ("j", 0, 31)]);
        let acc = AccessFn::new("q", vec![LinearExpr::var("i")]);
        let deps = DependenceAnalysis::new()
            .analyze_pair(&acc, &acc, DepKind::Flow, &d, &domain)
            .unwrap();
        let carried: Vec<_> = deps.iter().filter(|x| x.is_loop_carried()).collect();
        assert!(carried
            .iter()
            .any(|x| x.carried_level == Some(1) && x.carried_distance() == Some(1)));
    }

    #[test]
    fn seidel_multi_direction_dependences() {
        // A[i][j] reads A[i-1][j], A[i][j-1]: two uniform flow deps.
        let d = dims(&["i", "j"]);
        let domain = BasicSet::from_bounds(&[("i", 1, 30), ("j", 1, 30)]);
        let write = AccessFn::new("A", vec![LinearExpr::var("i"), LinearExpr::var("j")]);
        let read_n = AccessFn::new("A", vec![LinearExpr::var("i") - 1, LinearExpr::var("j")]);
        let read_w = AccessFn::new("A", vec![LinearExpr::var("i"), LinearExpr::var("j") - 1]);
        let an = DependenceAnalysis::new();
        let dn = an
            .analyze_pair(&write, &read_n, DepKind::Flow, &d, &domain)
            .unwrap();
        let dw = an
            .analyze_pair(&write, &read_w, DepKind::Flow, &d, &domain)
            .unwrap();
        assert!(dn
            .iter()
            .any(|x| x.distance == Some(DistanceVector(vec![1, 0]))));
        assert!(dw
            .iter()
            .any(|x| x.distance == Some(DistanceVector(vec![0, 1]))));
    }

    #[test]
    fn unrealizable_distance_is_dropped() {
        // Domain of width 1 along i cannot carry distance 2 deps:
        // A[i] vs A[i-2] over 0 <= i <= 1 overlaps only i=2.. which is
        // outside the domain.
        let d = dims(&["i"]);
        let domain = BasicSet::from_bounds(&[("i", 0, 1)]);
        let write = AccessFn::new("A", vec![LinearExpr::var("i")]);
        let read = AccessFn::new("A", vec![LinearExpr::var("i") - 2]);
        let deps = DependenceAnalysis::new()
            .analyze_pair(&write, &read, DepKind::Flow, &d, &domain)
            .unwrap();
        assert!(deps.is_empty());
    }

    #[test]
    fn different_arrays_never_depend() {
        let d = dims(&["i"]);
        let domain = BasicSet::from_bounds(&[("i", 0, 9)]);
        let a = AccessFn::new("A", vec![LinearExpr::var("i")]);
        let b = AccessFn::new("B", vec![LinearExpr::var("i")]);
        assert!(DependenceAnalysis::new()
            .analyze_pair(&a, &b, DepKind::Flow, &d, &domain)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn non_uniform_is_conservative() {
        // Write A[i][j], read A[j][i] (transpose): non-uniform.
        let d = dims(&["i", "j"]);
        let domain = BasicSet::from_bounds(&[("i", 0, 7), ("j", 0, 7)]);
        let w = AccessFn::new("A", vec![LinearExpr::var("i"), LinearExpr::var("j")]);
        let r = AccessFn::new("A", vec![LinearExpr::var("j"), LinearExpr::var("i")]);
        let deps = DependenceAnalysis::new()
            .analyze_pair(&w, &r, DepKind::Flow, &d, &domain)
            .unwrap();
        assert_eq!(deps.len(), 1);
        assert!(deps[0].distance.is_none());
        assert_eq!(deps[0].direction.0[0], Direction::Unknown);
    }

    /// A skewed domain near the `i64` edge: reading the outer
    /// dimension's midpoint once summed its bounds in `i64` (a debug
    /// overflow panic, a wrapped negative midpoint in release). The
    /// answer must be the one the same nest gets at the origin.
    #[test]
    fn skewed_domain_near_i64_edge_matches_the_origin() {
        let d = dims(&["mi", "mj"]);
        let analyze = |base: i64| {
            let domain = BasicSet::from_bounds(&[("mi", base, base + 4)])
                .intersect(&BasicSet::universe(&["mj"]))
                .with_ge(LinearExpr::var("mj"), LinearExpr::var("mi"))
                .with_le(LinearExpr::var("mj"), LinearExpr::var("mi") + 4);
            assert!(domain.rectangular_bounds().is_none());
            let store = AccessFn::new("A", vec![LinearExpr::var("mj")]);
            let load = AccessFn::new("A", vec![LinearExpr::var("mj") - 1]);
            DependenceAnalysis::new()
                .analyze_pair(&store, &load, DepKind::Flow, &d, &domain)
                .unwrap()
        };
        let edge = analyze(1 << 62);
        assert_eq!(edge, analyze(0));
        assert!(edge
            .iter()
            .any(|x| x.distance == Some(DistanceVector(vec![0, 1]))));
    }

    /// Access constants whose difference leaves `i64`: the analysis
    /// reports the overflow, where unchecked arithmetic panicked (dev
    /// profile) or wrapped into a right-hand side whose empty solution
    /// read as "independent" (release). `distance_realizable` likewise.
    #[test]
    fn overflowing_access_constants_are_an_error_not_independence() {
        let d = dims(&["oi"]);
        let domain = BasicSet::from_bounds(&[("oi", 0, 7)]);
        let store = AccessFn::new("A", vec![LinearExpr::var("oi") + i64::MAX]);
        let load = AccessFn::new("A", vec![LinearExpr::var("oi") - 2]);
        let an = DependenceAnalysis::new();
        assert_eq!(
            an.analyze_pair(&store, &load, DepKind::Flow, &d, &domain),
            Err(PolyError::Overflow)
        );
        let wide = BasicSet::from_bounds(&[("oi", 0, 7)]).with_le(
            LinearExpr::term("oi", i64::MAX / 2),
            LinearExpr::constant_expr(0),
        );
        assert_eq!(
            an.distance_realizable(&[4], &d, &wide),
            Err(PolyError::Overflow)
        );
        assert_eq!(an.distance_realizable(&[1], &d, &domain), Ok(true));
        let unknown = Dependence::unknown(DepKind::Flow, "A", 1);
        assert_eq!((unknown.distance, unknown.carried_level), (None, Some(0)));
    }

    #[test]
    fn reduction_dim_detection() {
        let d = dims(&["i", "j", "k"]);
        let store = AccessFn::new("D", vec![LinearExpr::var("i"), LinearExpr::var("j")]);
        assert_eq!(store.reduction_dims(&d), vec![2]);
        let store2 = AccessFn::new("x", vec![LinearExpr::var("k")]);
        assert_eq!(store2.reduction_dims(&d), vec![0, 1]);
    }
}
