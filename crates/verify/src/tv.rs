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
    DependenceAnalysis, DimId, LevelBounds, LinearExpr, Points, StmtPoly,
};
use std::cmp::Ordering;
use std::collections::{BTreeSet, HashMap};

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

/// One uniform self-dependence of a compute in its original iteration
/// space.
#[derive(Clone, Debug)]
pub struct SelfDependence {
    /// Flow, anti or output.
    pub kind: DepKind,
    /// The array the dependence flows through.
    pub array: String,
    /// Sink minus source, one entry per original loop (never all zero).
    pub dist: Vec<i64>,
}

impl SelfDependence {
    /// "the {kind} dependence on `{array}` with original distance {dist}
    /// executes in reversed order at transformed loop %{loop_iv}" — the
    /// finding the validator and lint's POM004 both report.
    pub fn reversed_at(&self, loop_iv: &str) -> String {
        format!(
            "the {:?} dependence on `{}` with original distance {:?} executes in reversed \
             order at transformed loop %{loop_iv}",
            self.kind, self.array, self.dist
        )
    }
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
    let deps: Vec<Vec<SelfDependence>> = computes.iter().map(self_dependences).collect();
    // Neither does a statement's original side of the domain and
    // footprint comparisons: it is built at the statement's first loop
    // transformation and dropped after its last, so a long schedule holds
    // the enumerations of the statements in flight, not of all of them.
    let mut originals: Vec<Option<Original>> = computes.iter().map(|_| None).collect();
    let mut last_rewrite = vec![0; computes.len()];
    for (step, p) in f.schedule().iter().enumerate() {
        if p.is_loop_transformation() {
            last_rewrite[index[p.stmt().expect("loop transformations name a statement")]] = step;
        }
    }

    let mut report = ValidationReport {
        func: f.name().to_string(),
        certificates: Vec::new(),
    };

    for (step, p) in f.schedule().iter().enumerate() {
        let (stmt_label, obligations) = match p {
            Primitive::Interchange { stmt, .. }
            | Primitive::Split { stmt, .. }
            | Primitive::Tile { stmt, .. }
            | Primitive::Skew { stmt, .. }
            | Primitive::After { stmt, .. } => {
                let si = index[stmt];
                let obs = match p.replay(&mut stmts, &index) {
                    Ok(()) => {
                        let c = &computes[si];
                        let s = &stmts[si];
                        let orig = originals[si]
                            .get_or_insert_with(|| Original::of(c, opts.enumerate_limit));
                        let cur = Transformed::of(s, orig, opts.enumerate_limit);
                        if matches!(p, Primitive::After { .. }) {
                            vec![
                                domain_obligation(orig, s, &cur, opts.enumerate_limit),
                                order_obligation(f, &stmts),
                            ]
                        } else {
                            vec![
                                dependences_obligation(c, s, &deps[si], &cur),
                                domain_obligation(orig, s, &cur, opts.enumerate_limit),
                                footprint_obligation(orig, s, &cur),
                            ]
                        }
                    }
                    // Nothing was replayed, so there is no transformed
                    // domain to compare; later steps see the statement as
                    // it was before this one.
                    Err(unknown) => vec![Obligation::failed(
                        ObligationKind::DomainPreserved,
                        format!("the rewrite cannot be replayed: {unknown}"),
                    )],
                };
                if last_rewrite[si] == step {
                    originals[si] = None;
                }
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

/// Uniform self-dependences of a compute in its original iteration
/// space: flow and anti per load of the stored array, and output when
/// there is such a load. Loop-independent (all-zero) and non-uniform
/// dependences are left out; no schedule can reverse the former, and the
/// latter have no distance to re-express.
pub fn self_dependences(c: &Compute) -> Vec<SelfDependence> {
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
            Some(SelfDependence {
                kind: d.kind,
                array: d.array,
                dist: dist.0,
            })
        })
        .collect()
}

// ---------------------------------------------------------------------
// Shared facts: what a rewrite step does not change, and what all of a
// step's obligations read
// ---------------------------------------------------------------------

/// A (possibly half-open) integer interval; `None` means unbounded.
type DeltaIv = (Option<i64>, Option<i64>);

/// A linear expression compiled against a dimension list: evaluating it
/// at a point given in that order is a dot product. Variables the list
/// does not name evaluate as zero, like `LinearExpr::eval_partial`.
struct Row {
    terms: Vec<(usize, i64)>,
    constant: i64,
}

impl Row {
    fn compile(e: &LinearExpr, dims: &[DimId]) -> Row {
        Row {
            terms: e
                .terms_ids()
                .iter()
                .filter_map(|&(id, c)| Some((dims.iter().rposition(|&d| d == id)?, c)))
                .collect(),
            constant: e.constant(),
        }
    }

    fn eval(&self, point: &[i64]) -> i64 {
        self.terms
            .iter()
            .fold(self.constant, |v, &(pos, c)| v + c * point[pos])
    }
}

/// Mixed-radix packing of integer vectors that lie inside a box: one
/// `(low, extent)` pair per coordinate, and the box's cell count (the
/// extents' product, within `u64`).
struct Packer {
    dims: Vec<(i64, u64)>,
    cells: u64,
}

impl Packer {
    /// Packs inside the tight box of the `arity`-vectors `walk` feeds to
    /// its callback. A box too large to index with a `u64` — or around
    /// nothing — packs no vector at all, like a vector of another arity;
    /// [`PointSet`] then compares the vectors themselves.
    fn around(arity: usize, walk: impl FnOnce(&mut dyn FnMut(&[i64]))) -> Packer {
        let mut lo = vec![i64::MAX; arity];
        let mut hi = vec![i64::MIN; arity];
        walk(&mut |v| {
            if v.len() == arity {
                for (k, &x) in v.iter().enumerate() {
                    lo[k] = lo[k].min(x);
                    hi[k] = hi[k].max(x);
                }
            }
        });
        let mut volume = Some(1u64);
        let dims: Vec<(i64, u64)> = lo
            .iter()
            .zip(&hi)
            .map(|(&l, &h)| {
                let extent = u64::try_from(h as i128 - l as i128 + 1).ok();
                volume = volume.zip(extent).and_then(|(v, e)| v.checked_mul(e));
                (l, extent.unwrap_or(0))
            })
            .collect();
        match volume {
            Some(cells) => Packer { dims, cells },
            None => Packer {
                dims: vec![(0, 0); arity],
                cells: 0,
            },
        }
    }

    fn pack(&self, v: &[i64]) -> Option<u64> {
        if v.len() != self.dims.len() {
            return None;
        }
        let mut key = 0u64;
        for (&x, &(lo, extent)) in v.iter().zip(&self.dims) {
            let off = u64::try_from(x as i128 - lo as i128).ok()?;
            if off >= extent {
                return None;
            }
            key = key * extent + off;
        }
        Some(key)
    }
}

/// The largest box (in cells) whose [`PointSet`]s are bitsets: 2^20 bits
/// are 128 KiB per set.
const BITSET_CELLS: u64 = 1 << 20;

/// A finite set of integer vectors: those inside a [`Packer`]'s box as
/// keys — a bitset over the box when it has at most [`BITSET_CELLS`]
/// cells, sorted keys above that — the rest verbatim. The representation
/// follows from the packer alone, so two sets built with one packer are
/// equal exactly when they hold the same vectors.
#[derive(PartialEq, Eq)]
struct PointSet {
    keys: Keys,
    outside: BTreeSet<Vec<i64>>,
}

#[derive(PartialEq, Eq)]
enum Keys {
    /// One bit per cell of the box, and the number of bits set.
    Bits(Vec<u64>, usize),
    /// Sorted, deduplicated.
    Sorted(Vec<u64>),
}

impl Keys {
    fn len(&self) -> usize {
        match self {
            Keys::Bits(_, n) => *n,
            Keys::Sorted(keys) => keys.len(),
        }
    }

    fn contains(&self, key: u64) -> bool {
        match self {
            Keys::Bits(words, _) => words
                .get((key / 64) as usize)
                .is_some_and(|w| w >> (key % 64) & 1 == 1),
            Keys::Sorted(keys) => keys.binary_search(&key).is_ok(),
        }
    }

    /// Number of keys the two share (only failure messages ask).
    fn common(&self, other: &Keys) -> usize {
        match (self, other) {
            (Keys::Bits(a, _), Keys::Bits(b, _)) => a
                .iter()
                .zip(b)
                .map(|(x, y)| (x & y).count_ones() as usize)
                .sum(),
            (Keys::Sorted(keys), other) | (other, Keys::Sorted(keys)) => {
                keys.iter().filter(|&&k| other.contains(k)).count()
            }
        }
    }
}

impl PointSet {
    /// The set of the vectors `walk` feeds to its callback.
    fn collect(packer: &Packer, walk: impl FnOnce(&mut dyn FnMut(&[i64]))) -> PointSet {
        Self::collect_capped(packer, BITSET_CELLS, walk)
    }

    /// [`PointSet::collect`], with bitsets up to `cap` cells.
    fn collect_capped(
        packer: &Packer,
        cap: u64,
        walk: impl FnOnce(&mut dyn FnMut(&[i64])),
    ) -> PointSet {
        let mut outside = BTreeSet::new();
        let keys = if packer.cells <= cap {
            let mut words = vec![0u64; packer.cells.div_ceil(64) as usize];
            let mut n = 0;
            walk(&mut |v| match packer.pack(v) {
                Some(key) => {
                    let (word, bit) = ((key / 64) as usize, 1u64 << (key % 64));
                    n += usize::from(words[word] & bit == 0);
                    words[word] |= bit;
                }
                None => {
                    outside.insert(v.to_vec());
                }
            });
            Keys::Bits(words, n)
        } else {
            let mut keys = Vec::new();
            walk(&mut |v| match packer.pack(v) {
                Some(key) => keys.push(key),
                None => {
                    outside.insert(v.to_vec());
                }
            });
            keys.sort_unstable();
            keys.dedup();
            keys.shrink_to_fit();
            Keys::Sorted(keys)
        };
        PointSet { keys, outside }
    }

    /// The same, packed in the tight box of the vectors themselves.
    /// `walk` runs twice (the box, then the keys) so that the vectors are
    /// never all held at once.
    fn tight(arity: usize, walk: impl Fn(&mut dyn FnMut(&[i64]))) -> (Packer, PointSet) {
        let packer = Packer::around(arity, &walk);
        let set = PointSet::collect(&packer, &walk);
        (packer, set)
    }

    fn len(&self) -> usize {
        self.keys.len() + self.outside.len()
    }

    /// Number of vectors the two sets share.
    fn common(&self, other: &PointSet) -> usize {
        self.keys.common(&other.keys) + self.outside.intersection(&other.outside).count()
    }
}

/// The original side of a statement's domain and footprint comparisons.
struct Original<'a> {
    dims: Vec<String>,
    domain: BasicSet,
    /// The store, then the loads in body order.
    accesses: Vec<&'a AccessFn>,
    /// `None` when the domain is not enumerable within the limit.
    enumerated: Option<Enumerated<'a>>,
}

/// The enumerated original domain, in comparison form.
struct Enumerated<'a> {
    instances: (Packer, PointSet),
    /// Per accessed array, in name order: which of `accesses` touch it,
    /// and the cells they touch.
    footprint: Vec<Footprint<'a>>,
}

struct Footprint<'a> {
    array: &'a str,
    accesses: Vec<usize>,
    cells: (Packer, PointSet),
}

impl<'a> Enumerated<'a> {
    fn of(points: &Points, dims: &[String], accesses: &[&'a AccessFn]) -> Self {
        let instances = PointSet::tight(dims.len(), |see| points.iter().for_each(see));
        let dim_ids: Vec<DimId> = dims.iter().map(|d| DimId::intern(d)).collect();
        let rows: Vec<Vec<Row>> = accesses
            .iter()
            .map(|a| {
                a.indices
                    .iter()
                    .map(|e| Row::compile(e, &dim_ids))
                    .collect()
            })
            .collect();
        let mut arrays: Vec<&str> = accesses.iter().map(|a| a.array.as_str()).collect();
        arrays.sort_unstable();
        arrays.dedup();
        if points.is_empty() {
            arrays.clear(); // no instance touches any array
        }
        let footprint = arrays
            .into_iter()
            .map(|array| {
                let touching: Vec<usize> = (0..accesses.len())
                    .filter(|&k| accesses[k].array == array)
                    .collect();
                let cells = PointSet::tight(rows[touching[0]].len(), |see| {
                    for &k in &touching {
                        each_image(&rows[k], points, see);
                    }
                });
                Footprint {
                    array,
                    accesses: touching,
                    cells,
                }
            })
            .collect();
        Enumerated {
            instances,
            footprint,
        }
    }
}

/// Feeds `see` the image of every point under `rows`.
fn each_image(rows: &[Row], points: &Points, see: &mut dyn FnMut(&[i64])) {
    let mut image = Vec::with_capacity(rows.len());
    for p in points.iter() {
        image.clear();
        image.extend(rows.iter().map(|r| r.eval(p)));
        see(&image);
    }
}

impl<'a> Original<'a> {
    fn of(c: &'a Compute, limit: usize) -> Self {
        let dims = c.iter_names();
        let domain = c.domain();
        let accesses: Vec<&AccessFn> = std::iter::once(c.store()).chain(c.loads()).collect();
        let (levels, bx) = level_table(&domain);
        let enumerated = levels
            .and_then(|levels| bounded_points(&domain, &levels, &bx, limit))
            .map(|points| Enumerated::of(&points, &dims, &accesses));
        Original {
            dims,
            domain,
            accesses,
            enumerated,
        }
    }
}

/// What one rewrite step's obligations all read of the transformed
/// statement: its dimension ids, its domain's constant box, and (when the
/// original side is enumerated too) its points.
struct Transformed {
    dims: Vec<DimId>,
    bx: Vec<DeltaIv>,
    points: Option<Points>,
}

impl Transformed {
    fn of(s: &StmtPoly, orig: &Original, limit: usize) -> Self {
        let (levels, bx) = level_table(s.domain());
        // Without an enumerated original there is nothing to compare the
        // points against; both comparisons go symbolic either way.
        let points = orig
            .enumerated
            .as_ref()
            .and(levels)
            .and_then(|levels| bounded_points(s.domain(), &levels, &bx, limit));
        Transformed {
            dims: s.dims().iter().map(|d| DimId::intern(d)).collect(),
            bx,
            points,
        }
    }
}

/// A set's level-bounds table — `None` when a projection leaves `i64`
/// — and its bounding box: the constant lower/upper bounds per dimension,
/// in dimension order, ignoring bounds that mention other dims (every
/// dimension unbounded without a table).
fn level_table(set: &BasicSet) -> (Option<Vec<LevelBounds>>, Vec<DeltaIv>) {
    let Ok(levels) = set.try_level_bounds() else {
        return (None, vec![(None, None); set.dim_count()]);
    };
    let bx = levels
        .iter()
        .map(|(lbs, ubs)| {
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
            (lo, hi)
        })
        .collect();
    (Some(levels), bx)
}

/// Range of a linear expression over the box `bx` of `dims`. A bound
/// whose value leaves `i64` is dropped (unbounded), which only widens
/// the range.
fn expr_range(e: &LinearExpr, dims: &[DimId], bx: &[DeltaIv]) -> DeltaIv {
    let mut lo = Some(e.constant());
    let mut hi = Some(e.constant());
    for &(id, c) in e.terms_ids() {
        let (blo, bhi) = dims
            .iter()
            .rposition(|&d| d == id)
            .map_or((None, None), |pos| bx[pos]);
        let (tlo, thi) = if c > 0 { (blo, bhi) } else { (bhi, blo) };
        lo = add_scaled(lo, tlo, c);
        hi = add_scaled(hi, thi, c);
    }
    (lo, hi)
}

/// `acc + x·c`, `None` when either side is unbounded or the value leaves
/// `i64`.
fn add_scaled(acc: Option<i64>, x: Option<i64>, c: i64) -> Option<i64> {
    acc?.checked_add(x?.checked_mul(c)?)
}

/// Enumerates up to `limit` integer points of a set whose level-bounds
/// table is `levels` and constant box is `bx`; `None` when the set has
/// more points than the limit or a dimension is unbounded.
fn bounded_points(
    set: &BasicSet,
    levels: &[LevelBounds],
    bx: &[DeltaIv],
    limit: usize,
) -> Option<Points> {
    // Cheap cardinality screen: when every dim has constant bounds,
    // compare the box volume against the limit before paying for the
    // enumeration walk. A box past the limit may still contain a small
    // set (non-divisible splits overshoot slightly), so bailing here
    // only trades the exact comparison for the symbolic fallback the
    // callers already handle — never an unsound answer.
    let mut volume: Option<u128> = Some(1);
    for b in bx {
        match *b {
            (Some(lo), Some(hi)) => {
                if lo > hi {
                    return Some(Points::empty(set.dim_count())); // contradictory constant bounds
                }
                let extent = (hi as i128 - lo as i128 + 1) as u128;
                volume = volume.map(|v| v.saturating_mul(extent));
            }
            _ => volume = None,
        }
    }
    if volume.is_some_and(|v| v > limit as u128) {
        return None;
    }
    set.try_enumerate_flat(levels, limit)
}

// ---------------------------------------------------------------------
// Obligations
// ---------------------------------------------------------------------

/// Checks that every recorded dependence stays lexicographically
/// non-negative under the statement's current schedule.
fn dependences_obligation(
    c: &Compute,
    s: &StmtPoly,
    deps: &[SelfDependence],
    cur: &Transformed,
) -> Obligation {
    if let Some((d, level)) = first_reversal(c, s, deps, &cur.bx) {
        return Obligation::failed(
            ObligationKind::DependencesPreserved,
            d.reversed_at(&s.dims()[level]),
        );
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

/// The first of `deps` (the [`self_dependences`] of `c`) that the
/// schedule of `s`, `c`'s transformed statement, runs in reversed order,
/// with the transformed loop level at which it does; `None` when the
/// schedule preserves them all.
pub fn reversed_dependence<'d>(
    c: &Compute,
    s: &StmtPoly,
    deps: &'d [SelfDependence],
) -> Option<(&'d SelfDependence, usize)> {
    first_reversal(c, s, deps, &level_table(s.domain()).1)
}

/// [`reversed_dependence`] over the transformed domain's box `bx`.
fn first_reversal<'d>(
    c: &Compute,
    s: &StmtPoly,
    deps: &'d [SelfDependence],
    bx: &[DeltaIv],
) -> Option<(&'d SelfDependence, usize)> {
    let dims = c.iter_names();
    deps.iter()
        .find_map(|d| Some((d, violated_level(s, &dims, &d.dist, bx)?)))
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
fn violated_level(
    s: &StmtPoly,
    orig_dims: &[String],
    dist: &[i64],
    bx: &[DeltaIv],
) -> Option<usize> {
    let cur_dims: Vec<String> = s.dims().to_vec();
    let screened = displacement_safe_levels(s, orig_dims, dist, &cur_dims, bx);
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

/// Sound per-level screen for [`violated_level`]: `safe[l] == true`
/// proves no instance pair related by `dist` executes in reversed order
/// at transformed level `l`; `false` means "undecided, run FM".
///
/// In displacement space the doubled instance system collapses: writing
/// `δ_cd` for the sink-minus-source displacement along current dim `cd`,
/// each original dim's reconstruction expression `e_od` (linear in the
/// current dims) yields one equation `Σ coeff(e_od, cd) · δ_cd =
/// dist[od]` — the constant parts cancel. Each `δ_cd` starts bounded by
/// the spread of `cd`'s constant domain bounds (`bx`, the transformed
/// domain's box), and interval narrowing over the equations (with
/// integer rounding) tightens the rest: for a tiled dim, `T·δ_out +
/// δ_inn = 0` with `δ_inn ∈ (-T, T)` pins both to zero. Level `l` is
/// safe when, after also pinning every outer `δ` to zero, `δ_l` cannot
/// be negative — or the pinned system is empty.
///
/// Returns `None` when the screen cannot be built (a reconstruction
/// expression is missing or mentions an unknown dim).
fn displacement_safe_levels(
    s: &StmtPoly,
    orig_dims: &[String],
    dist: &[i64],
    cur_dims: &[String],
    bx: &[DeltaIv],
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

    // δ_cd ∈ [lo - hi, hi - lo] whenever cd has constant bounds (and the
    // spread fits `i64`; otherwise δ_cd is left unbounded).
    let mut base: Vec<DeltaIv> = bx
        .iter()
        .map(|b| match *b {
            (Some(lo), Some(hi)) => (lo.checked_sub(hi), hi.checked_sub(lo)),
            _ => (None, None),
        })
        .collect();
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
                    let (tlo, thi) = if cj >= 0 { (lo, hi) } else { (hi, lo) };
                    rest_lo = add_scaled(rest_lo, tlo, cj);
                    rest_hi = add_scaled(rest_hi, thi, cj);
                }
                let num_lo = rest_hi.and_then(|r| rhs.checked_sub(r));
                let num_hi = rest_lo.and_then(|r| rhs.checked_sub(r));
                // Solve c·δ = num for num in [num_lo, num_hi]; a negative
                // c flips the range (multiply the equation by -1).
                let (num_lo, num_hi, c) = if c > 0 {
                    (num_lo, num_hi, c)
                } else {
                    (
                        num_hi.and_then(i64::checked_neg),
                        num_lo.and_then(i64::checked_neg),
                        -c,
                    )
                };
                // ceil(v / c) = -floor(-v / c); `-i64::MIN` leaves i64.
                let nlo = num_lo.and_then(|v| Some(-floor_div(v.checked_neg()?, c)));
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

/// Checks that the transformed domain maps onto exactly the declared
/// statement instances.
fn domain_obligation(orig: &Original, s: &StmtPoly, cur: &Transformed, limit: usize) -> Obligation {
    // Symbolic direction (always checked, exact): the image of every
    // transformed point satisfies every original-domain constraint.
    if let Some(witness) = domain_inclusion_violation(&orig.domain, s, cur) {
        return Obligation::failed(ObligationKind::DomainPreserved, witness);
    }
    // Exact cardinality + set equality when the domain is enumerable.
    if let (Some(before), Some(points)) = (&orig.enumerated, &cur.points) {
        let (packer, before) = &before.instances;
        // A reconstruction expression the statement lost maps every
        // point outside any original domain.
        let rows: Vec<Row> = orig
            .dims
            .iter()
            .map(|od| match s.orig_expr(od) {
                Some(e) => Row::compile(e, &cur.dims),
                None => Row {
                    terms: Vec::new(),
                    constant: i64::MIN,
                },
            })
            .collect();
        let after = PointSet::collect(packer, |see| each_image(&rows, points, see));
        if points.len() != before.len() || *before != after {
            return Obligation::failed(
                ObligationKind::DomainPreserved,
                format!(
                    "transformed domain covers {} of {} original instances ({} points \
                     enumerated)",
                    after.common(before),
                    before.len(),
                    points.len()
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
fn domain_inclusion_violation(orig: &BasicSet, s: &StmtPoly, cur: &Transformed) -> Option<String> {
    let dom = s.domain().constraints().to_vec();
    // Box screen: the range of the pulled-back constraint over the
    // transformed domain's bounding box decides most constraints in a
    // few integer ops; only box-undecided ones pay for Fourier–Motzkin.
    for c in orig.constraints() {
        let pulled = s.to_current(&c.expr);
        let (lo, hi) = expr_range(&pulled, &cur.dims, &cur.bx);
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
                sys.push(Constraint::ge_zero(-pulled.clone() - 1));
                fm::feasible(&sys)
            }
            ConstraintKind::Eq => {
                let mut above = dom.clone();
                above.push(Constraint::ge_zero(pulled.clone() - 1));
                let mut below = dom.clone();
                below.push(Constraint::ge_zero(-pulled.clone() - 1));
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
fn footprint_obligation(orig: &Original, s: &StmtPoly, cur: &Transformed) -> Obligation {
    let (Some(before), Some(points)) = (&orig.enumerated, &cur.points) else {
        return Obligation::passed(
            ObligationKind::FootprintPreserved,
            "follows from domain preservation: transformed accesses are the original access \
             functions composed with the iterator-reconstruction map",
        );
    };
    let rows: Vec<Vec<Row>> = orig
        .accesses
        .iter()
        .map(|a| {
            a.indices
                .iter()
                .map(|e| Row::compile(&s.to_current(e), &cur.dims))
                .collect()
        })
        .collect();
    for fp in &before.footprint {
        let (packer, cells) = &fp.cells;
        let after = PointSet::collect(packer, |see| {
            for &k in &fp.accesses {
                each_image(&rows[k], points, see);
            }
        });
        if after != *cells {
            return Obligation::failed(
                ObligationKind::FootprintPreserved,
                format!(
                    "access footprint of `{}` changed: {} cells before, {} after",
                    fp.array,
                    cells.len(),
                    after.len()
                ),
            );
        }
    }
    Obligation::passed(
        ObligationKind::FootprintPreserved,
        format!(
            "footprints of {} array(s) enumerated on both sides; cell sets identical",
            before.footprint.len()
        ),
    )
}

/// Checks that every producer still executes before the consumers that
/// read it (see [`order_violations`]).
fn order_obligation(f: &Function, stmts: &[StmtPoly]) -> Obligation {
    let computes = f.computes();
    if let Some((pi, ci)) = order_violations(f, stmts).next() {
        return Obligation::failed(
            ObligationKind::OrderPreserved,
            format!(
                "statement `{}` reads `{}` produced by `{}` but is now scheduled before it",
                computes[ci].name(),
                computes[pi].store().array,
                computes[pi].name()
            ),
        );
    }
    Obligation::passed(
        ObligationKind::OrderPreserved,
        "every producer precedes its consumers under the new sequence constants",
    )
}

/// Every producer/consumer pair `(p, c)` of compute indices, `p < c` and
/// `c` loading the array `p` stores to, in which the schedule `stmts` (the
/// transformed statements, in compute order) lets an instance of `c` read
/// a cell of that array before the instance of `p` that writes it; in
/// `(p, c)` order.
///
/// The statements' `[s0, d0, s1, d1, …]` schedules are compared position
/// by position. Distinct outermost constants `s0` decide every instance
/// pair at once: a consumer sequenced first violates when any of its loads
/// can touch a produced cell within the original domains. Tied constants
/// walk on through the loops the two share: at each shared loop a
/// consumer instance with the smaller value, and at each later constant a
/// consumer with the smaller one, comes first among the pairs equal on
/// the shared loops above, which Fourier–Motzkin tests for a read of a
/// produced cell. A loop the two do not share (another iterator name, or
/// one statement ends) runs in compute order, as `build_ast` emits it, so
/// the producer comes first.
pub fn order_violations<'a>(
    f: &'a Function,
    stmts: &'a [StmtPoly],
) -> impl Iterator<Item = (usize, usize)> + 'a {
    let computes = f.computes();
    (0..computes.len())
        .flat_map(move |pi| (pi + 1..computes.len()).map(move |ci| (pi, ci)))
        .filter(move |&(pi, ci)| {
            let (p, c) = (&computes[pi], &computes[ci]);
            let pa = p.store();
            let mut loads = c.loads().into_iter().filter(|l| l.array == pa.array);
            let (sp, sc) = (&stmts[pi], &stmts[ci]);
            match sc.statics()[0].cmp(&sp.statics()[0]) {
                Ordering::Greater => false,
                Ordering::Less => loads.any(|ca| {
                    fm::feasible(&shared_cell(
                        &p.domain(),
                        pa.indices.iter().cloned(),
                        &c.domain(),
                        &c.iter_names(),
                        ca.indices.iter().cloned(),
                    ))
                }),
                Ordering::Equal => loads.any(|ca| reads_first(sp, pa, sc, ca)),
            }
        })
}

/// The instance pairs of a producer and a consumer that touch one cell:
/// producer points of `pdom`, consumer points of `cdom` with each of its
/// dims `cdims` primed, and the producer's cell `pa` equal to the
/// consumer's `ca` (index expressions over the unprimed dims).
fn shared_cell(
    pdom: &BasicSet,
    pa: impl Iterator<Item = LinearExpr>,
    cdom: &BasicSet,
    cdims: &[String],
    ca: impl Iterator<Item = LinearExpr>,
) -> Vec<Constraint> {
    let rename_all = |mut e: LinearExpr| -> LinearExpr {
        for d in cdims {
            e = e.renamed(d, &primed(d));
        }
        e
    };
    let mut sys: Vec<Constraint> = pdom.constraints().to_vec();
    for con in cdom.constraints() {
        sys.push(Constraint {
            expr: rename_all(con.expr.clone()),
            kind: con.kind,
        });
    }
    sys.extend(
        pa.zip(ca)
            .map(|(ep, ec)| Constraint::eq(ep, rename_all(ec))),
    );
    sys
}

/// A consumer dim's name in [`shared_cell`]'s system.
fn primed(d: &str) -> String {
    format!("{d}__c")
}

/// The walk of [`order_violations`] past tied outermost constants: true
/// when some instance of consumer `sc` reads, through `ca`, a cell the
/// producer `sp` writes through `pa` before that write executes.
fn reads_first(sp: &StmtPoly, pa: &AccessFn, sc: &StmtPoly, ca: &AccessFn) -> bool {
    let mut sys = shared_cell(
        sp.domain(),
        pa.indices.iter().map(|e| sp.to_current(e)),
        sc.domain(),
        sc.dims(),
        ca.indices.iter().map(|e| sc.to_current(e)),
    );
    for k in 0..=sp.dims().len().min(sc.dims().len()) {
        if k > 0 {
            match sc.statics()[k].cmp(&sp.statics()[k]) {
                Ordering::Greater => return false,
                Ordering::Less => return fm::feasible(&sys),
                Ordering::Equal => {}
            }
        }
        let (Some(pd), Some(cd)) = (sp.dims().get(k), sc.dims().get(k)) else {
            return false;
        };
        if pd != cd {
            return false;
        }
        let (at_p, at_c) = (LinearExpr::var(pd), LinearExpr::var(primed(cd)));
        let mut earlier = sys.clone();
        earlier.push(Constraint::lt(at_c.clone(), at_p.clone()));
        if fm::feasible(&earlier) {
            return true;
        }
        sys.push(Constraint::eq(at_c, at_p));
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cert::ObligationStatus;
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

    /// The two enumeration obligations of `f`'s only compute against a
    /// hand-built transformed statement, as `validate_with` discharges
    /// them. The DSL's own primitives cannot break either, so the failing
    /// paths are only reachable this way.
    fn enumeration_obligations(f: &Function, s: &StmtPoly) -> (Obligation, Obligation) {
        let limit = ValidateOptions::default().enumerate_limit;
        let orig = Original::of(&f.computes()[0], limit);
        let cur = Transformed::of(s, &orig, limit);
        (
            domain_obligation(&orig, s, &cur, limit),
            footprint_obligation(&orig, s, &cur),
        )
    }

    #[test]
    fn domain_with_a_row_cut_off_fails_both_enumerations() {
        // i stops one short: the image stays inside the original domain
        // (the symbolic direction holds) but misses 64 of 512 instances,
        // and with them one row of A and of C.
        let f = gemm(8);
        let s = StmtPoly::new("s", &[("i", 0, 6), ("j", 0, 7), ("k", 0, 7)]);
        let (domain, footprint) = enumeration_obligations(&f, &s);
        assert_eq!(
            domain,
            Obligation::failed(
                ObligationKind::DomainPreserved,
                "transformed domain covers 448 of 512 original instances (448 points enumerated)"
            )
        );
        assert_eq!(
            footprint,
            Obligation::failed(
                ObligationKind::FootprintPreserved,
                "access footprint of `A` changed: 64 cells before, 56 after"
            )
        );
    }

    #[test]
    fn domain_over_a_shifted_rectangle_moves_the_footprint() {
        // Same cardinality, one row down: the cell counts agree and only
        // the set comparison tells the footprints apart (row 8 lies
        // outside the original cells' bounding box).
        let f = gemm(8);
        let s = StmtPoly::new("s", &[("i", 1, 8), ("j", 0, 7), ("k", 0, 7)]);
        let (domain, footprint) = enumeration_obligations(&f, &s);
        assert_eq!(
            domain,
            Obligation::failed(
                ObligationKind::DomainPreserved,
                "some transformed instance maps outside the original domain: constraint \
                 `-i + 7 >= 0` can be violated"
            )
        );
        assert_eq!(
            footprint,
            Obligation::failed(
                ObligationKind::FootprintPreserved,
                "access footprint of `A` changed: 64 cells before, 64 after"
            )
        );
    }

    #[test]
    fn enumeration_is_exact_up_to_the_limit_and_symbolic_one_past_it() {
        let limit = ValidateOptions::default().enumerate_limit;
        let details = |n: usize| {
            let mut f = Function::new("scale");
            let i = f.var("i", 0, n as i64);
            let x = f.placeholder("X", &[n], DataType::F32);
            let y = f.placeholder("Y", &[n], DataType::F32);
            f.compute(
                "s",
                std::slice::from_ref(&i),
                x.at(&[&i]) * 2.0,
                y.access(&[&i]),
            );
            f.split("s", "i", 4, "i0", "i1");
            let r = validate(&f);
            assert!(r.passed(), "{}", r.render());
            let obs = &r.certificates[0].obligations;
            (obs[1].detail.clone(), obs[2].detail.clone())
        };
        assert_eq!(
            details(limit),
            (
                "4096 instances enumerated on both sides; sets identical".to_string(),
                "footprints of 2 array(s) enumerated on both sides; cell sets identical"
                    .to_string()
            )
        );
        assert_eq!(
            details(limit + 1),
            (
                "image inclusion proven symbolically (Fourier–Motzkin); exact enumeration \
                 skipped beyond 4096 points"
                    .to_string(),
                "follows from domain preservation: transformed accesses are the original \
                 access functions composed with the iterator-reconstruction map"
                    .to_string()
            )
        );
    }

    /// `A[j][j] = 2·A[j][j] + A[j-1][j]` over `i ∈ [-2^62, 2^62]` and
    /// `j ∈ [0, 7]`, with the loops declared in `order`, interchanged.
    /// The extent of `i`, its displacement spread and the box range of
    /// every expression over it leave `i64`; each screen must give up on
    /// that bound ("undecided") instead of overflowing.
    fn wide_interchange(order: [&str; 2]) -> ValidationReport {
        let w = 1i64 << 62;
        let mut f = Function::new("wide");
        let i = f.var("i", -w, w + 1);
        let j = f.var("j", 0, 8);
        let a = f.placeholder("A", &[8, 8], DataType::F32);
        let loops = order.map(|n| if n == "i" { i.clone() } else { j.clone() });
        f.compute(
            "s",
            &loops,
            a.at(&[&j, &j]) * 2.0 + a.at(&[j.expr() - 1, j.expr()]),
            a.access(&[&j, &j]),
        );
        f.interchange("s", order[0], order[1]);
        validate(&f)
    }

    #[test]
    fn wide_domain_interchange_does_not_overflow() {
        // (i, j) becomes (j, i): projecting i out of the transformed
        // domain leaves i64, so there is no box and no enumeration, and
        // the inclusion proof's own Fourier–Motzkin step overflows too —
        // which `fm::feasible` answers conservatively ("may be violated").
        let r = wide_interchange(["i", "j"]);
        let obs = &r.certificates[0].obligations;
        assert_eq!(obs.len(), 3, "{}", r.render());
        assert_eq!(obs[0].status, ObligationStatus::Passed, "{}", r.render());
        assert!(!obs[1].detail.contains("enumerated"), "{}", r.render());
        // (j, i) becomes (i, j): now the original domain is the one that
        // cannot be projected, the transformed one projects fine, and its
        // box screens prove every obligation without FM.
        let r = wide_interchange(["j", "i"]);
        assert!(r.passed(), "{}", r.render());
        assert!(
            r.certificates[0].obligations[1]
                .detail
                .contains("symbolically"),
            "{}",
            r.render()
        );
    }

    /// The packer around `vs` and their set, with bitsets up to `cap`.
    fn packed(packer: Option<&Packer>, vs: &[Vec<i64>], cap: u64) -> (Packer, PointSet) {
        let walk = |see: &mut dyn FnMut(&[i64])| vs.iter().for_each(|v| see(v));
        let own = Packer::around(2, walk);
        let set = PointSet::collect_capped(packer.unwrap_or(&own), cap, walk);
        (own, set)
    }

    /// `==`, `len` and `common` of two [`PointSet`]s of `a` and `b` built
    /// with the packer around `a`, with bitsets up to `cap` cells, next to
    /// the same facts of the vectors themselves.
    fn set_facts(a: &[Vec<i64>], b: &[Vec<i64>], cap: u64) -> [(bool, usize, usize, usize); 2] {
        let (packer, pa) = packed(None, a, cap);
        let (_, pb) = packed(Some(&packer), b, cap);
        let (ta, tb): (BTreeSet<_>, BTreeSet<_>) = (a.iter().collect(), b.iter().collect());
        [
            (pa == pb, pa.len(), pb.len(), pa.common(&pb)),
            (ta == tb, ta.len(), tb.len(), ta.intersection(&tb).count()),
        ]
    }

    #[test]
    fn bitset_and_sorted_point_sets_agree() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |n: i64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as i64
        };
        for trial in 0..300 {
            // `b` reaches past `a`'s box on every side, and every fifth
            // `b` is a reordered copy of `a` (the sets are equal).
            let a: Vec<Vec<i64>> = (0..next(40)).map(|_| vec![next(6), next(9) - 4]).collect();
            let b: Vec<Vec<i64>> = if trial % 5 == 0 {
                a.iter().rev().cloned().collect()
            } else {
                (0..next(40))
                    .map(|_| vec![next(8) - 1, next(11) - 5])
                    .collect()
            };
            let [bits, oracle] = set_facts(&a, &b, u64::MAX);
            let [sorted, _] = set_facts(&a, &b, 0);
            assert_eq!(bits, oracle, "bitset, trial {trial}");
            assert_eq!(sorted, oracle, "sorted keys, trial {trial}");
        }
        // A box of 2^22 cells, above the cap: sorted keys by default, and
        // a forced bitset over it answers the same.
        let a: Vec<Vec<i64>> = (0..2048).map(|k| vec![k, (k * 7) % 2048]).collect();
        let b: Vec<Vec<i64>> = (0..2048).map(|k| vec![k, (k * 5) % 2049]).collect();
        let (packer, sorted) = packed(None, &a, BITSET_CELLS);
        assert!(packer.cells > BITSET_CELLS);
        let [capped, oracle] = set_facts(&a, &b, BITSET_CELLS);
        assert_eq!(capped, oracle);
        assert_eq!(set_facts(&a, &b, u64::MAX)[0], oracle);
        assert!(matches!(sorted.keys, Keys::Sorted(_)));
    }

    /// `P: A[i] = B[i] + B[i]` then `C: D[i] = A[i + s0] + A[i + s1]` over
    /// `i ∈ [0, 8)`, `A` with 16 cells: `C` reads what `P` writes through
    /// whichever of its loads has shift 0.
    fn producer_consumer([s0, s1]: [i64; 2]) -> Function {
        let mut f = Function::new("pc");
        let i = f.var("i", 0, 8);
        let a = f.placeholder("A", &[16], DataType::F32);
        let b = f.placeholder("B", &[8], DataType::F32);
        let d = f.placeholder("D", &[8], DataType::F32);
        let iv = std::slice::from_ref(&i);
        f.compute("P", iv, b.at(&[&i]) + b.at(&[&i]), a.access(&[&i]));
        f.compute(
            "C",
            iv,
            a.at(&[i.expr() + s0]) + a.at(&[i.expr() + s1]),
            d.access(&[&i]),
        );
        f
    }

    /// The kind of the first failed obligation of `f`'s last certificate.
    fn last_failure(f: &Function) -> Option<ObligationKind> {
        let r = validate(f);
        let last = r.certificates.last().expect("a certificate per primitive");
        let kind = last.failures().next().map(|o| o.kind);
        kind
    }

    #[test]
    fn order_check_tests_every_load_of_the_produced_array() {
        // Only `A[i]` reads a produced cell; the check must not stop at
        // the first load of `A`, whichever of the two comes first.
        for shifts in [[8, 0], [0, 8]] {
            let mut f = producer_consumer(shifts);
            f.after_all("P", "C");
            assert_eq!(
                last_failure(&f),
                Some(ObligationKind::OrderPreserved),
                "{shifts:?}"
            );
        }
        let mut f = producer_consumer([8, 9]);
        f.after_all("P", "C");
        assert_eq!(last_failure(&f), None, "no load reads a produced cell");
    }

    #[test]
    fn order_check_walks_tied_sequence_constants() {
        // Fused under `i`, `P` after `C`: `C` reads `A[i]` before `P`
        // writes it in the same iteration.
        let mut f = producer_consumer([0, 0]);
        f.after("P", "C", "i");
        assert_eq!(last_failure(&f), Some(ObligationKind::OrderPreserved));
        // `C` after `P` under `i` is the legal fusion.
        let mut f = producer_consumer([0, 0]);
        f.after("C", "P", "i");
        assert_eq!(last_failure(&f), None);
        // `C` reading `A[i + 1]` there would read a cell `P` writes in
        // the next iteration: reversed at the shared loop itself.
        let mut f = producer_consumer([1, 0]);
        f.after("C", "P", "i");
        assert_eq!(last_failure(&f), Some(ObligationKind::OrderPreserved));
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
