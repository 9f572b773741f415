//! Translation validation of schedule rewrites.
//!
//! [`validate`] replays a function's recorded schedule primitive by
//! primitive — exactly as `apply_schedule` does before lowering — and
//! discharges, for each rewrite, the proof obligations of DESIGN.md §9:
//!
//! * **dependences-preserved** — every uniform dependence computed in the
//!   *original* iteration space keeps a lexicographically non-negative
//!   distance under the transformed schedule (Fourier–Motzkin over the
//!   source/sink instance pair, mirroring the paper's stage-1 invariant);
//! * **domain-preserved** — the transformed domain maps onto exactly the
//!   declared statement instances (exact enumeration on small domains, a
//!   symbolic FM inclusion proof beyond the enumeration bound);
//! * **footprint-preserved** — read/write access footprints are equal
//!   (enumerated when bounded; otherwise discharged by composition with
//!   the domain obligation, since transformed accesses are the original
//!   access functions composed with the iterator-reconstruction map);
//! * **order-preserved** — after re-sequencing (`after`/`after_all`),
//!   every producer still executes before the consumers that read it.
//!
//! Attribute-only directives (pipeline, unroll, partition) get an
//! `attribute-only` certificate: they never touch the schedule map.

use crate::cert::{Certificate, Obligation, ObligationKind, ValidationReport};
use pom_dsl::{Compute, Function, Primitive};
use pom_poly::{
    ceil_div, floor_div, fm, AccessFn, BasicSet, Constraint, ConstraintKind, DepKind,
    DependenceAnalysis, LinearExpr, StmtPoly,
};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Tuning knobs of the validator.
#[derive(Clone, Copy, Debug)]
pub struct ValidateOptions {
    /// Maximum number of iteration points enumerated for the exact
    /// domain/footprint set comparisons; larger domains fall back to the
    /// symbolic Fourier–Motzkin inclusion proof.
    pub enumerate_limit: usize,
}

impl Default for ValidateOptions {
    fn default() -> Self {
        ValidateOptions {
            enumerate_limit: 4096,
        }
    }
}

/// One uniform dependence in the original iteration space.
#[derive(Clone, Debug)]
struct DepRecord {
    kind: DepKind,
    array: String,
    dist: Vec<i64>,
}

/// Validates every rewrite of the function's recorded schedule,
/// producing one certificate per primitive.
pub fn validate(f: &Function) -> ValidationReport {
    validate_with(f, &ValidateOptions::default())
}

/// [`validate`] with explicit options.
pub fn validate_with(f: &Function, opts: &ValidateOptions) -> ValidationReport {
    let computes = f.computes();
    let mut stmts: Vec<StmtPoly> = computes
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let mut s = c.to_stmt_poly();
            s.set_order(i as i64);
            s
        })
        .collect();
    let index: HashMap<String, usize> = computes
        .iter()
        .enumerate()
        .map(|(i, c)| (c.name().to_string(), i))
        .collect();
    // Original-space dependences do not depend on the schedule: compute
    // them once and re-check them after every rewrite.
    let deps: Vec<Vec<DepRecord>> = computes.iter().map(original_deps).collect();

    let mut report = ValidationReport {
        func: f.name().to_string(),
        certificates: Vec::new(),
    };

    for (step, p) in f.schedule().iter().enumerate() {
        let (stmt_label, obligations) = match p {
            Primitive::Interchange { stmt, .. }
            | Primitive::Split { stmt, .. }
            | Primitive::Tile { stmt, .. }
            | Primitive::Skew { stmt, .. } => {
                let si = index[stmt];
                apply_one(p, &mut stmts, &index);
                let c = &computes[si];
                let s = &stmts[si];
                let obs = vec![
                    dependences_obligation(c, s, &deps[si]),
                    domain_obligation(c, s, opts.enumerate_limit),
                    footprint_obligation(c, s, opts.enumerate_limit),
                ];
                (stmt.clone(), obs)
            }
            Primitive::After { stmt, .. } => {
                let si = index[stmt];
                apply_one(p, &mut stmts, &index);
                let c = &computes[si];
                let s = &stmts[si];
                let obs = vec![
                    domain_obligation(c, s, opts.enumerate_limit),
                    order_obligation(f, &stmts),
                ];
                (stmt.clone(), obs)
            }
            Primitive::Pipeline { stmt, .. } | Primitive::Unroll { stmt, .. } => (
                stmt.clone(),
                vec![Obligation::passed(
                    ObligationKind::AttributeOnly,
                    "attaches HLS pragma attributes only; the schedule map is unchanged",
                )],
            ),
            Primitive::Partition { array, .. } => (
                array.clone(),
                vec![Obligation::passed(
                    ObligationKind::AttributeOnly,
                    "array partitioning changes banking, not iteration order",
                )],
            ),
            Primitive::AutoDse => (
                f.name().to_string(),
                vec![Obligation::passed(
                    ObligationKind::AttributeOnly,
                    "delegates scheduling to the DSE; the chosen schedule is validated after search",
                )],
            ),
        };
        report.certificates.push(Certificate {
            step,
            rewrite: p.to_string(),
            stmt: stmt_label,
            obligations,
        });
    }
    report
}

/// Replays one loop-transformation primitive on the statement list,
/// duplicating `pom_dse::compile::apply_schedule` semantics.
fn apply_one(p: &Primitive, stmts: &mut [StmtPoly], index: &HashMap<String, usize>) {
    match p {
        Primitive::Interchange { stmt, i, j } => stmts[index[stmt]].interchange(i, j),
        Primitive::Split {
            stmt,
            i,
            factor,
            i0,
            i1,
        } => stmts[index[stmt]].split(i, *factor, i0, i1),
        Primitive::Tile {
            stmt,
            i,
            j,
            t1,
            t2,
            i0,
            j0,
            i1,
            j1,
        } => stmts[index[stmt]].tile(i, j, *t1, *t2, i0, j0, i1, j1),
        Primitive::Skew {
            stmt,
            i,
            j,
            factor,
            i2,
            j2,
        } => stmts[index[stmt]].skew(i, j, *factor, i2, j2),
        Primitive::After { stmt, other, level } => {
            let snapshot = stmts[index[other]].clone();
            let s = &mut stmts[index[stmt]];
            match level {
                Some(l) => s.after(&snapshot, l),
                None => s.after_all(&snapshot),
            }
        }
        Primitive::Pipeline { .. }
        | Primitive::Unroll { .. }
        | Primitive::Partition { .. }
        | Primitive::AutoDse => {}
    }
}

/// Uniform self-dependences of a compute in its original iteration
/// space, exactly as the stage-1 legality analysis collects them.
fn original_deps(c: &Compute) -> Vec<DepRecord> {
    let analysis = DependenceAnalysis::new();
    let store = c.store();
    let dims = c.iter_names();
    let domain = c.domain();
    let mut deps = Vec::new();
    for l in c.loads() {
        if l.array == store.array {
            deps.extend(analysis.analyze_pair(store, l, DepKind::Flow, &dims, &domain));
            deps.extend(analysis.analyze_pair(l, store, DepKind::Anti, &dims, &domain));
        }
    }
    if c.loads().iter().any(|l| l.array == store.array) {
        deps.extend(analysis.analyze_pair(store, store, DepKind::Output, &dims, &domain));
    }
    deps.into_iter()
        .filter_map(|d| {
            let dist = d.distance?;
            if dist.0.iter().all(|&x| x == 0) {
                return None;
            }
            Some(DepRecord {
                kind: d.kind,
                array: d.array,
                dist: dist.0,
            })
        })
        .collect()
}

/// Checks that every recorded dependence stays lexicographically
/// non-negative under the statement's current schedule.
fn dependences_obligation(c: &Compute, s: &StmtPoly, deps: &[DepRecord]) -> Obligation {
    let dims = c.iter_names();
    for d in deps {
        if let Some(level) = violated_level(s, &dims, &d.dist) {
            return Obligation::failed(
                ObligationKind::DependencesPreserved,
                format!(
                    "the {:?} dependence on `{}` with original distance {:?} executes in \
                     reversed order at transformed loop %{}",
                    d.kind,
                    d.array,
                    d.dist,
                    s.dims()[level]
                ),
            );
        }
    }
    Obligation::passed(
        ObligationKind::DependencesPreserved,
        format!(
            "{} uniform dependence(s) lexicographically non-negative under the transformed \
             schedule (Fourier–Motzkin)",
            deps.len()
        ),
    )
}

/// Finds the first transformed loop level at which some instance pair
/// related by original-space distance `dist` executes in reversed
/// order; `None` means the schedule preserves the dependence.
///
/// Levels are first screened through [`displacement_safe_levels`] — an
/// interval argument over the per-level displacement of the instance
/// pair that discharges almost every level of a legal schedule in a few
/// integer operations. Only levels the screen cannot decide pay for the
/// exact Fourier–Motzkin check on the doubled instance system, so the
/// result is identical to running FM everywhere.
fn violated_level(s: &StmtPoly, orig_dims: &[String], dist: &[i64]) -> Option<usize> {
    let cur_dims: Vec<String> = s.dims().to_vec();
    let screened = displacement_safe_levels(s, orig_dims, dist, &cur_dims);
    if screened
        .as_ref()
        .is_some_and(|safe| safe.iter().all(|&b| b))
    {
        return None;
    }
    let prime = |n: &str| format!("{n}__snk");
    let rename_all = |mut e: LinearExpr| -> LinearExpr {
        for d in &cur_dims {
            e = e.renamed(d, &prime(d));
        }
        e
    };

    // Source and sink instances both range over the transformed domain.
    let mut sys: Vec<Constraint> = s.domain().constraints().to_vec();
    for con in s.domain().constraints() {
        sys.push(Constraint {
            expr: rename_all(con.expr.clone()),
            kind: con.kind,
        });
    }
    // The sink's original coordinates are the source's displaced by dist.
    for (k, od) in orig_dims.iter().enumerate() {
        let e = s.orig_expr(od)?;
        sys.push(Constraint::eq(
            rename_all(e.clone()) - e.clone(),
            LinearExpr::constant_expr(dist[k]),
        ));
    }

    // Violation at level l: equal above l, sink strictly earlier at l.
    for (l, dim) in cur_dims.iter().enumerate() {
        if screened.as_ref().is_some_and(|safe| safe[l]) {
            continue;
        }
        let mut cs = sys.clone();
        for above in &cur_dims[..l] {
            cs.push(Constraint::eq(
                LinearExpr::var(prime(above)),
                LinearExpr::var(above),
            ));
        }
        cs.push(Constraint::lt(
            LinearExpr::var(prime(dim)),
            LinearExpr::var(dim),
        ));
        if fm::feasible(&cs) {
            return Some(l);
        }
    }
    None
}

/// A (possibly half-open) integer interval; `None` means unbounded.
type DeltaIv = (Option<i64>, Option<i64>);

/// Sound per-level screen for [`violated_level`]: `safe[l] == true`
/// proves no instance pair related by `dist` executes in reversed order
/// at transformed level `l`; `false` means "undecided, run FM".
///
/// In displacement space the doubled instance system collapses: writing
/// `δ_cd` for the sink-minus-source displacement along current dim `cd`,
/// each original dim's reconstruction expression `e_od` (linear in the
/// current dims) yields one equation `Σ coeff(e_od, cd) · δ_cd =
/// dist[od]` — the constant parts cancel. Each `δ_cd` starts bounded by
/// the spread of `cd`'s constant domain bounds, and interval narrowing
/// over the equations (with integer rounding) tightens the rest: for a
/// tiled dim, `T·δ_out + δ_inn = 0` with `δ_inn ∈ (-T, T)` pins both to
/// zero. Level `l` is safe when, after also pinning every outer `δ` to
/// zero, `δ_l` cannot be negative — or the pinned system is empty.
///
/// Returns `None` when the screen cannot be built (a reconstruction
/// expression is missing or mentions an unknown dim).
fn displacement_safe_levels(
    s: &StmtPoly,
    orig_dims: &[String],
    dist: &[i64],
    cur_dims: &[String],
) -> Option<Vec<bool>> {
    let n = cur_dims.len();
    let pos: HashMap<&str, usize> = cur_dims
        .iter()
        .enumerate()
        .map(|(i, d)| (d.as_str(), i))
        .collect();
    let mut eqs: Vec<(Vec<(usize, i64)>, i64)> = Vec::new();
    for (k, od) in orig_dims.iter().enumerate() {
        let e = s.orig_expr(od)?;
        let mut coeffs = Vec::new();
        for (v, c) in e.terms() {
            if c != 0 {
                coeffs.push((*pos.get(v)?, c));
            }
        }
        eqs.push((coeffs, dist[k]));
    }

    // δ_cd ∈ [lo - hi, hi - lo] whenever cd has constant bounds.
    let dom = s.domain();
    let mut base: Vec<DeltaIv> = vec![(None, None); n];
    for (i, d) in cur_dims.iter().enumerate() {
        let (lbs, ubs) = dom.bounds_of(d);
        let lo = lbs
            .iter()
            .filter(|(e, _)| e.is_constant())
            .map(|(e, dv)| ceil_div(e.constant(), *dv))
            .max();
        let hi = ubs
            .iter()
            .filter(|(e, _)| e.is_constant())
            .map(|(e, dv)| floor_div(e.constant(), *dv))
            .min();
        if let (Some(lo), Some(hi)) = (lo, hi) {
            base[i] = (Some(lo - hi), Some(hi - lo));
        }
    }
    let base_empty = !narrow_deltas(&mut base, &eqs);

    let mut safe = vec![false; n];
    for l in 0..n {
        if base_empty {
            safe[l] = true; // no instance pair exists at all
            continue;
        }
        let mut iv = base.clone();
        let mut empty = false;
        for v in iv.iter_mut().take(l) {
            let lo = v.0.map_or(0, |x| x.max(0));
            let hi = v.1.map_or(0, |x| x.min(0));
            if lo > hi {
                empty = true;
                break;
            }
            *v = (Some(0), Some(0));
        }
        if empty || !narrow_deltas(&mut iv, &eqs) {
            safe[l] = true; // equal-prefix pairs cannot exist
            continue;
        }
        safe[l] = iv[l].0.is_some_and(|lo| lo >= 0);
    }
    Some(safe)
}

/// Interval narrowing of `Σ coeffs·δ = rhs` equations to a fixpoint.
/// Returns `false` when some interval becomes empty (no solution).
fn narrow_deltas(iv: &mut [DeltaIv], eqs: &[(Vec<(usize, i64)>, i64)]) -> bool {
    let rounds = 2 * iv.len().max(1);
    for _ in 0..rounds {
        let mut changed = false;
        for (coeffs, rhs) in eqs {
            for &(vi, c) in coeffs {
                // c·δ_vi = rhs - Σ_{j≠i} c_j·δ_j; bound the remainder.
                let mut rest_lo = Some(0i64);
                let mut rest_hi = Some(0i64);
                for &(vj, cj) in coeffs {
                    if vj == vi {
                        continue;
                    }
                    let (lo, hi) = iv[vj];
                    let (tlo, thi) = if cj >= 0 {
                        (lo.map(|v| v * cj), hi.map(|v| v * cj))
                    } else {
                        (hi.map(|v| v * cj), lo.map(|v| v * cj))
                    };
                    rest_lo = rest_lo.zip(tlo).map(|(a, b)| a + b);
                    rest_hi = rest_hi.zip(thi).map(|(a, b)| a + b);
                }
                let num_lo = rest_hi.map(|r| rhs - r);
                let num_hi = rest_lo.map(|r| rhs - r);
                // Solve c·δ = num for num in [num_lo, num_hi]; a negative
                // c flips the range (multiply the equation by -1).
                let (num_lo, num_hi, c) = if c > 0 {
                    (num_lo, num_hi, c)
                } else {
                    (num_hi.map(|v| -v), num_lo.map(|v| -v), -c)
                };
                let nlo = num_lo.map(|v| ceil_div(v, c));
                let nhi = num_hi.map(|v| floor_div(v, c));
                let merged_lo = match (iv[vi].0, nlo) {
                    (Some(a), Some(b)) => Some(a.max(b)),
                    (a, b) => a.or(b),
                };
                let merged_hi = match (iv[vi].1, nhi) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (a, b) => a.or(b),
                };
                if let (Some(lo), Some(hi)) = (merged_lo, merged_hi) {
                    if lo > hi {
                        return false;
                    }
                }
                if (merged_lo, merged_hi) != iv[vi] {
                    iv[vi] = (merged_lo, merged_hi);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    true
}

/// Constant lower/upper bounds per dimension of a set (its bounding
/// box), ignoring bounds that mention other dims.
fn box_bounds(set: &BasicSet) -> HashMap<String, DeltaIv> {
    let mut out = HashMap::new();
    for d in set.dims() {
        let (lbs, ubs) = set.bounds_of(d);
        let lo = lbs
            .iter()
            .filter(|(e, _)| e.is_constant())
            .map(|(e, dv)| ceil_div(e.constant(), *dv))
            .max();
        let hi = ubs
            .iter()
            .filter(|(e, _)| e.is_constant())
            .map(|(e, dv)| floor_div(e.constant(), *dv))
            .min();
        out.insert(d.clone(), (lo, hi));
    }
    out
}

/// Range of a linear expression over a bounding box.
fn expr_range(e: &LinearExpr, bx: &HashMap<String, DeltaIv>) -> DeltaIv {
    let mut lo = Some(e.constant());
    let mut hi = Some(e.constant());
    for (v, c) in e.terms() {
        if c == 0 {
            continue;
        }
        let (blo, bhi) = bx.get(v).copied().unwrap_or((None, None));
        let (tlo, thi) = if c > 0 {
            (blo.map(|x| x * c), bhi.map(|x| x * c))
        } else {
            (bhi.map(|x| x * c), blo.map(|x| x * c))
        };
        lo = lo.zip(tlo).map(|(a, b)| a + b);
        hi = hi.zip(thi).map(|(a, b)| a + b);
    }
    (lo, hi)
}

/// Enumerates up to `limit` integer points of a bounded set, returning
/// `None` when the set has more points than the limit or a dimension is
/// unbounded — a graceful fallback, unlike `BasicSet::enumerate_points`,
/// which panics past its limit.
fn bounded_points(set: &BasicSet, limit: usize) -> Option<Vec<Vec<i64>>> {
    // Cheap cardinality screen: when every dim has constant bounds,
    // compare the box volume against the limit before paying for the
    // enumeration walk. A box past the limit may still contain a small
    // set (non-divisible splits overshoot slightly), so bailing here
    // only trades the exact comparison for the symbolic fallback the
    // callers already handle — never an unsound answer.
    let bx = box_bounds(set);
    let mut volume: Option<u128> = Some(1);
    for d in set.dims() {
        match bx.get(d) {
            Some(&(Some(lo), Some(hi))) => {
                if lo > hi {
                    return Some(Vec::new()); // contradictory constant bounds
                }
                volume = volume.map(|v| v.saturating_mul((hi - lo + 1) as u128));
            }
            _ => volume = None,
        }
    }
    if volume.is_some_and(|v| v > limit as u128) {
        return None;
    }
    fn rec(
        set: &BasicSet,
        dims: &[String],
        level: usize,
        prefix: &mut HashMap<String, i64>,
        point: &mut Vec<i64>,
        out: &mut Vec<Vec<i64>>,
        limit: usize,
    ) -> bool {
        if level == dims.len() {
            if set.contains(point) {
                if out.len() >= limit {
                    return false;
                }
                out.push(point.clone());
            }
            return true;
        }
        let (lbs, ubs) = set.bounds_of(&dims[level]);
        let lb = lbs
            .iter()
            .map(|(e, d)| ceil_div(e.eval_partial(prefix), *d))
            .max();
        let ub = ubs
            .iter()
            .map(|(e, d)| floor_div(e.eval_partial(prefix), *d))
            .min();
        let (Some(lb), Some(ub)) = (lb, ub) else {
            return false; // unbounded dimension: not enumerable
        };
        for v in lb..=ub {
            prefix.insert(dims[level].clone(), v);
            point.push(v);
            let ok = rec(set, dims, level + 1, prefix, point, out, limit);
            point.pop();
            prefix.remove(&dims[level]);
            if !ok {
                return false;
            }
        }
        true
    }

    let dims = set.dims().to_vec();
    let mut out = Vec::new();
    rec(
        set,
        &dims,
        0,
        &mut HashMap::new(),
        &mut Vec::new(),
        &mut out,
        limit,
    )
    .then_some(out)
}

/// Checks that the transformed domain maps onto exactly the declared
/// statement instances.
fn domain_obligation(c: &Compute, s: &StmtPoly, limit: usize) -> Obligation {
    let orig = c.domain();
    // Symbolic direction (always checked, exact): the image of every
    // transformed point satisfies every original-domain constraint.
    if let Some(witness) = domain_inclusion_violation(&orig, s) {
        return Obligation::failed(ObligationKind::DomainPreserved, witness);
    }
    // Exact cardinality + set equality when the domain is enumerable.
    let before = bounded_points(&orig, limit);
    let after_cur = bounded_points(s.domain(), limit);
    if let (Some(before), Some(after_cur)) = (before, after_cur) {
        let orig_dims = c.iter_names();
        let cur_dims = s.dims().to_vec();
        let after: Vec<Vec<i64>> = after_cur
            .iter()
            .map(|p| {
                let env: HashMap<String, i64> =
                    cur_dims.iter().cloned().zip(p.iter().copied()).collect();
                orig_dims
                    .iter()
                    .map(|od| {
                        s.orig_expr(od)
                            .map(|e| e.eval_partial(&env))
                            .unwrap_or(i64::MIN)
                    })
                    .collect()
            })
            .collect();
        let before_set: BTreeSet<&Vec<i64>> = before.iter().collect();
        let after_set: BTreeSet<&Vec<i64>> = after.iter().collect();
        if after.len() != before.len() || before_set != after_set {
            return Obligation::failed(
                ObligationKind::DomainPreserved,
                format!(
                    "transformed domain covers {} of {} original instances ({} points \
                     enumerated)",
                    after_set.intersection(&before_set).count(),
                    before_set.len(),
                    after.len()
                ),
            );
        }
        return Obligation::passed(
            ObligationKind::DomainPreserved,
            format!(
                "{} instances enumerated on both sides; sets identical",
                before.len()
            ),
        );
    }
    Obligation::passed(
        ObligationKind::DomainPreserved,
        format!(
            "image inclusion proven symbolically (Fourier–Motzkin); exact enumeration \
             skipped beyond {limit} points"
        ),
    )
}

/// Returns a description of an original-domain constraint the
/// transformed statement can violate, or `None` when the image of the
/// transformed domain is included in the original domain.
fn domain_inclusion_violation(orig: &BasicSet, s: &StmtPoly) -> Option<String> {
    let dom = s.domain().constraints().to_vec();
    // Box screen: the range of the pulled-back constraint over the
    // transformed domain's bounding box decides most constraints in a
    // few integer ops; only box-undecided ones pay for Fourier–Motzkin.
    let bx = box_bounds(s.domain());
    for c in orig.constraints() {
        let cur = s.to_current(&c.expr);
        let (lo, hi) = expr_range(&cur, &bx);
        let box_safe = match c.kind {
            ConstraintKind::GeZero => lo.is_some_and(|l| l >= 0),
            ConstraintKind::Eq => lo == Some(0) && hi == Some(0),
        };
        if box_safe {
            continue;
        }
        let violated = match c.kind {
            ConstraintKind::GeZero => {
                let mut sys = dom.clone();
                sys.push(Constraint::ge_zero(-cur.clone() - 1));
                fm::feasible(&sys)
            }
            ConstraintKind::Eq => {
                let mut above = dom.clone();
                above.push(Constraint::ge_zero(cur.clone() - 1));
                let mut below = dom.clone();
                below.push(Constraint::ge_zero(-cur.clone() - 1));
                fm::feasible(&above) || fm::feasible(&below)
            }
        };
        if violated {
            return Some(format!(
                "some transformed instance maps outside the original domain: constraint \
                 `{c}` can be violated"
            ));
        }
    }
    None
}

/// Checks that per-array read/write footprints are unchanged.
fn footprint_obligation(c: &Compute, s: &StmtPoly, limit: usize) -> Obligation {
    let accesses: Vec<&AccessFn> = std::iter::once(c.store()).chain(c.loads()).collect();
    let orig = c.domain();
    let orig_dims = c.iter_names();
    let (Some(before_pts), Some(after_pts)) = (
        bounded_points(&orig, limit),
        bounded_points(s.domain(), limit),
    ) else {
        return Obligation::passed(
            ObligationKind::FootprintPreserved,
            "follows from domain preservation: transformed accesses are the original access \
             functions composed with the iterator-reconstruction map",
        );
    };
    let mut before: BTreeMap<&str, BTreeSet<Vec<i64>>> = BTreeMap::new();
    for p in &before_pts {
        let env: HashMap<String, i64> = orig_dims.iter().cloned().zip(p.iter().copied()).collect();
        for a in &accesses {
            before
                .entry(a.array.as_str())
                .or_default()
                .insert(a.indices.iter().map(|e| e.eval_partial(&env)).collect());
        }
    }
    let cur_dims = s.dims().to_vec();
    let cur_accesses: Vec<AccessFn> = accesses.iter().map(|a| s.access_to_current(a)).collect();
    let mut after: BTreeMap<&str, BTreeSet<Vec<i64>>> = BTreeMap::new();
    for p in &after_pts {
        let env: HashMap<String, i64> = cur_dims.iter().cloned().zip(p.iter().copied()).collect();
        for a in &cur_accesses {
            after
                .entry(a.array.as_str())
                .or_default()
                .insert(a.indices.iter().map(|e| e.eval_partial(&env)).collect());
        }
    }
    for (array, cells) in &before {
        if after.get(array) != Some(cells) {
            let after_n = after.get(array).map(BTreeSet::len).unwrap_or(0);
            return Obligation::failed(
                ObligationKind::FootprintPreserved,
                format!(
                    "access footprint of `{array}` changed: {} cells before, {after_n} after",
                    cells.len()
                ),
            );
        }
    }
    Obligation::passed(
        ObligationKind::FootprintPreserved,
        format!(
            "footprints of {} array(s) enumerated on both sides; cell sets identical",
            before.len()
        ),
    )
}

/// Checks that every producer still executes before the consumers that
/// read it (outermost sequence constants after re-sequencing).
fn order_obligation(f: &Function, stmts: &[StmtPoly]) -> Obligation {
    let computes = f.computes();
    for (pi, p) in computes.iter().enumerate() {
        for (ci, c) in computes.iter().enumerate().skip(pi + 1) {
            let pa = p.store();
            let Some(ca) = c.loads().into_iter().find(|l| l.array == pa.array) else {
                continue;
            };
            if stmts[ci].statics()[0] >= stmts[pi].statics()[0] {
                continue;
            }
            if cells_overlap(p, pa, c, ca) {
                return Obligation::failed(
                    ObligationKind::OrderPreserved,
                    format!(
                        "statement `{}` reads `{}` produced by `{}` but is now scheduled \
                         before it",
                        c.name(),
                        pa.array,
                        p.name()
                    ),
                );
            }
        }
    }
    Obligation::passed(
        ObligationKind::OrderPreserved,
        "every producer precedes its consumers under the new sequence constants",
    )
}

/// True when a producer access and a consumer access can touch the same
/// array cell for some pair of points in their (original) domains.
fn cells_overlap(p: &Compute, pa: &AccessFn, c: &Compute, ca: &AccessFn) -> bool {
    let prime = |n: &str| format!("{n}__c");
    let cdims = c.iter_names();
    let rename_all = |mut e: LinearExpr| -> LinearExpr {
        for d in &cdims {
            e = e.renamed(d, &prime(d));
        }
        e
    };
    let mut sys: Vec<Constraint> = p.domain().constraints().to_vec();
    for con in c.domain().constraints() {
        sys.push(Constraint {
            expr: rename_all(con.expr.clone()),
            kind: con.kind,
        });
    }
    for (ep, ec) in pa.indices.iter().zip(&ca.indices) {
        sys.push(Constraint::eq(ep.clone(), rename_all(ec.clone())));
    }
    fm::feasible(&sys)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pom_dsl::DataType;

    /// Jacobi-style stencil: A[t][i] = A[t-1][i+1] has dependence
    /// distance (1, -1) — legal as written, illegal when interchanged.
    fn stencil(n: usize) -> Function {
        let mut f = Function::new("stencil");
        let t = f.var("t", 1, n as i64);
        let i = f.var("i", 0, (n - 1) as i64);
        let a = f.placeholder("A", &[n, n], DataType::F32);
        let tm1 = t.expr() - 1;
        let ip1 = i.expr() + 1;
        f.compute(
            "s",
            &[t.clone(), i.clone()],
            a.at(&[tm1, ip1]) * 0.5,
            a.access(&[&t, &i]),
        );
        f
    }

    fn gemm(n: usize) -> Function {
        let mut f = Function::new("gemm");
        let i = f.var("i", 0, n as i64);
        let j = f.var("j", 0, n as i64);
        let k = f.var("k", 0, n as i64);
        let a = f.placeholder("A", &[n, n], DataType::F32);
        let b = f.placeholder("B", &[n, n], DataType::F32);
        let c = f.placeholder("C", &[n, n], DataType::F32);
        f.compute(
            "s",
            &[i.clone(), j.clone(), k.clone()],
            c.at(&[&i, &j]) + a.at(&[&i, &k]) * b.at(&[&k, &j]),
            c.access(&[&i, &j]),
        );
        f
    }

    #[test]
    fn legal_tiling_certifies() {
        let mut f = gemm(16);
        f.tile("s", "i", "j", 4, 4, "i0", "j0", "i1", "j1");
        f.pipeline("s", "j1", 1);
        let r = validate(&f);
        assert!(r.passed(), "{}", r.render());
        assert_eq!(r.checked(), 2);
        let tile = &r.certificates[0];
        assert!(tile
            .obligations
            .iter()
            .any(|o| o.kind == ObligationKind::DependencesPreserved));
        assert!(tile
            .obligations
            .iter()
            .any(|o| o.kind == ObligationKind::DomainPreserved));
        assert!(tile
            .obligations
            .iter()
            .any(|o| o.kind == ObligationKind::FootprintPreserved));
    }

    #[test]
    fn illegal_interchange_is_rejected() {
        // The mutation-test scenario: a rewrite that a broken stage-1
        // legality check would emit. pom-verify must catch it here, not
        // downstream via output divergence.
        let mut f = stencil(16);
        f.interchange("s", "t", "i");
        let r = validate(&f);
        assert!(!r.passed());
        let cert = &r.certificates[0];
        let failure = cert.failures().next().expect("a failed obligation");
        assert_eq!(failure.kind, ObligationKind::DependencesPreserved);
        assert!(failure.detail.contains("distance [1, -1]"), "{failure:?}");
        assert!(r.render().contains("error[VERIFY]"));
    }

    #[test]
    fn illegal_tiling_of_stencil_is_rejected() {
        // Tiling a (1, -1)-dependence nest is illegal without skewing:
        // the intra-tile `t` loop runs after crossing an `i`-tile
        // boundary backwards. The displacement-interval screen must
        // leave these levels to the exact FM check, which rejects them.
        let mut f = stencil(16);
        f.tile("s", "t", "i", 4, 4, "t0", "i0", "t1", "i1");
        let r = validate(&f);
        assert!(!r.passed(), "{}", r.render());
        assert_eq!(
            r.certificates[0].failures().next().expect("failure").kind,
            ObligationKind::DependencesPreserved
        );
    }

    #[test]
    fn legal_skew_then_interchange_certifies() {
        // Skewing by +1 makes the (1, -1) stencil dependence (1, 0);
        // interchanging afterwards keeps it non-negative at (0, 1).
        let mut f = stencil(16);
        f.skew("s", "t", "i", 1, "t2", "i2");
        f.interchange("s", "t2", "i2");
        let r = validate(&f);
        assert!(r.passed(), "{}", r.render());
    }

    #[test]
    fn split_preserves_domain_and_footprint() {
        let mut f = gemm(8);
        f.split("s", "k", 4, "k0", "k1");
        let r = validate(&f);
        assert!(r.passed(), "{}", r.render());
        let detail = &r.certificates[0].obligations[1].detail;
        assert!(detail.contains("enumerated"), "{detail}");
    }

    #[test]
    fn large_domain_uses_symbolic_inclusion() {
        let mut f = gemm(64); // 262144 points >> default limit
        f.split("s", "k", 8, "k0", "k1");
        let r = validate(&f);
        assert!(r.passed(), "{}", r.render());
        let detail = &r.certificates[0].obligations[1].detail;
        assert!(detail.contains("symbolically"), "{detail}");
    }

    #[test]
    fn reversed_producer_consumer_order_is_rejected() {
        let n = 8usize;
        let mut f = Function::new("chain");
        let i = f.var("i", 0, n as i64);
        let x = f.placeholder("X", &[n], DataType::F32);
        let y = f.placeholder("Y", &[n], DataType::F32);
        let z = f.placeholder("Z", &[n], DataType::F32);
        let iv = std::slice::from_ref(&i);
        f.compute("S1", iv, x.at(&[&i]) * 2.0, y.access(&[&i]));
        f.compute("S2", iv, y.at(&[&i]) + 1.0, z.access(&[&i]));
        // Schedule the producer after the consumer: S1 after S2.
        f.after_all("S1", "S2");
        let r = validate(&f);
        assert!(!r.passed(), "{}", r.render());
        let cert = &r.certificates[0];
        assert_eq!(
            cert.failures().next().expect("failure").kind,
            ObligationKind::OrderPreserved
        );
    }
}
