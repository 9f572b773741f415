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
    DependenceAnalysis, DimId, LevelBounds, LinearExpr, Points, PolyError, StmtPoly,
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
    let deps: Vec<Result<Vec<SelfDependence>, PolyError>> =
        computes.iter().map(self_dependences).collect();
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
                                footprint_obligation(orig, &cur),
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
///
/// # Errors
///
/// Returns [`PolyError::Overflow`] when an analysis leaves `i64`: the
/// dependences are then unknown, and no schedule can be proven to keep
/// them.
pub fn self_dependences(c: &Compute) -> Result<Vec<SelfDependence>, PolyError> {
    let analysis = DependenceAnalysis::new();
    let store = c.store();
    let dims = c.iter_names();
    let domain = c.domain();
    let mut deps = Vec::new();
    for l in c.loads() {
        if l.array == store.array {
            deps.extend(analysis.analyze_pair(store, l, DepKind::Flow, &dims, &domain)?);
            deps.extend(analysis.analyze_pair(l, store, DepKind::Anti, &dims, &domain)?);
        }
    }
    if c.loads().iter().any(|l| l.array == store.array) {
        deps.extend(analysis.analyze_pair(store, store, DepKind::Output, &dims, &domain)?);
    }
    Ok(deps
        .into_iter()
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
        .collect())
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

    /// The rows of the identity map on `arity` coordinates.
    fn identity(arity: usize) -> Vec<Row> {
        (0..arity)
            .map(|k| Row {
                terms: vec![(k, 1)],
                constant: 0,
            })
            .collect()
    }

    /// The value at `point`; `None` when a product or partial sum leaves
    /// `i64`.
    fn eval(&self, point: &[i64]) -> Option<i64> {
        self.terms.iter().try_fold(self.constant, |v, &(pos, c)| {
            v.checked_add(c.checked_mul(point[pos])?)
        })
    }

    /// The value range over the box `bx` (one interval per position),
    /// by interval arithmetic in `i128`; `None` when it leaves `i64`.
    fn range(&self, bx: &[(i64, i64)]) -> Option<(i64, i64)> {
        let (mut lo, mut hi) = (self.constant as i128, self.constant as i128);
        for &(pos, c) in &self.terms {
            let (blo, bhi) = bx[pos];
            let (a, b) = (c as i128 * blo as i128, c as i128 * bhi as i128);
            lo = lo.checked_add(a.min(b))?;
            hi = hi.checked_add(a.max(b))?;
        }
        Some((i64::try_from(lo).ok()?, i64::try_from(hi).ok()?))
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
    /// Packs inside the box `bx` (inclusive `(low, high)` per
    /// coordinate). A box too large to index with a `u64` — or an empty
    /// one — packs no vector at all, like a vector of another arity;
    /// [`PointSet`] then compares the vectors themselves.
    fn of_box(bx: &[(i64, i64)]) -> Packer {
        let mut volume = Some(1u64);
        let dims: Vec<(i64, u64)> = bx
            .iter()
            .map(|&(l, h)| {
                let extent = u64::try_from(h as i128 - l as i128 + 1).ok();
                volume = volume.zip(extent).and_then(|(v, e)| v.checked_mul(e));
                (l, extent.unwrap_or(0))
            })
            .collect();
        match volume {
            Some(cells) => Packer { dims, cells },
            None => Packer {
                dims: vec![(0, 0); bx.len()],
                cells: 0,
            },
        }
    }

    /// Packs inside the tight box of the images of `points` under the
    /// `arity`-coordinate maps among `maps` — the fallback for a box the
    /// level table does not give. `None` when an image leaves `i64`.
    fn around<'p>(
        arity: usize,
        maps: &[&[Row]],
        points: impl Iterator<Item = &'p [i64]> + Clone,
    ) -> Option<Packer> {
        let mut bx = vec![(i64::MAX, i64::MIN); arity];
        for rows in maps.iter().filter(|rows| rows.len() == arity) {
            for p in points.clone() {
                for (b, r) in bx.iter_mut().zip(rows.iter()) {
                    let x = r.eval(p)?;
                    *b = (b.0.min(x), b.1.max(x));
                }
            }
        }
        Some(Packer::of_box(&bx))
    }

    /// The box of the images of points in the box `bx` under `maps` (all
    /// of `arity` coordinates), by interval arithmetic over their rows;
    /// `None` when a range leaves `i64`.
    fn image_box(arity: usize, maps: &[&[Row]], bx: &[(i64, i64)]) -> Option<Vec<(i64, i64)>> {
        let mut out = vec![(i64::MAX, i64::MIN); arity];
        for rows in maps.iter().filter(|rows| rows.len() == arity) {
            for (b, r) in out.iter_mut().zip(rows.iter()) {
                let (lo, hi) = r.range(bx)?;
                *b = (b.0.min(lo), b.1.max(hi));
            }
        }
        Some(out)
    }

    /// Feeds `key` the key of the image of every point under `rows` that
    /// lies in the box, and puts every other image into `outside`;
    /// `None` when an image leaves `i64`. Every coordinate of every image
    /// is evaluated with overflow checks.
    fn each_key<'p>(
        &self,
        rows: &[Row],
        points: impl Iterator<Item = &'p [i64]>,
        outside: &mut BTreeSet<Vec<i64>>,
        mut key: impl FnMut(u64),
    ) -> Option<()> {
        let packs = rows.len() == self.dims.len();
        'points: for p in points {
            if packs {
                let mut k = 0u64;
                for (r, &(lo, extent)) in rows.iter().zip(&self.dims) {
                    let v = r.eval(p)?;
                    // Exact: `v - lo` fits `u64` whenever `v >= lo`.
                    let off = v.wrapping_sub(lo) as u64;
                    if v < lo || off >= extent {
                        outside.insert(image_of(rows, p)?);
                        continue 'points;
                    }
                    k = k * extent + off;
                }
                key(k);
            } else {
                outside.insert(image_of(rows, p)?);
            }
        }
        Some(())
    }
}

/// The image of `point` under `rows`; `None` when it leaves `i64`.
fn image_of(rows: &[Row], point: &[i64]) -> Option<Vec<i64>> {
    rows.iter().map(|r| r.eval(point)).collect()
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
    /// The set of the images of `points` under each of `maps` (one
    /// [`Row`] per image coordinate); `None` when an image leaves `i64`.
    fn images<'p>(
        packer: &Packer,
        maps: &[&[Row]],
        points: impl Iterator<Item = &'p [i64]> + Clone,
    ) -> Option<PointSet> {
        Self::images_capped(packer, BITSET_CELLS, maps, points)
    }

    /// [`PointSet::images`], with bitsets up to `cap` cells.
    fn images_capped<'p>(
        packer: &Packer,
        cap: u64,
        maps: &[&[Row]],
        points: impl Iterator<Item = &'p [i64]> + Clone,
    ) -> Option<PointSet> {
        let mut outside = BTreeSet::new();
        let keys = if packer.cells <= cap {
            let mut words = vec![0u64; packer.cells.div_ceil(64) as usize];
            for rows in maps {
                packer.each_key(rows, points.clone(), &mut outside, |key| {
                    words[(key / 64) as usize] |= 1 << (key % 64);
                })?;
            }
            let n = words.iter().map(|w| w.count_ones() as usize).sum();
            Keys::Bits(words, n)
        } else {
            let mut keys = Vec::new();
            for rows in maps {
                packer.each_key(rows, points.clone(), &mut outside, |key| keys.push(key))?;
            }
            keys.sort_unstable();
            keys.dedup();
            keys.shrink_to_fit();
            Keys::Sorted(keys)
        };
        Some(PointSet { keys, outside })
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
    /// and the cells they touch; `None` when an access image leaves
    /// `i64`.
    footprint: Option<Vec<Footprint<'a>>>,
}

struct Footprint<'a> {
    array: &'a str,
    accesses: Vec<usize>,
    cells: (Packer, PointSet),
}

impl<'a> Enumerated<'a> {
    /// The instances `points` and their footprint, each set built in one
    /// pass over the points per map. The boxes come from `bx`, the
    /// domain's constant box: the instances' box is `bx` itself, and each
    /// footprint's is its access rows' range over it. Only when a
    /// dimension lacks a constant bound or a range leaves `i64` does a
    /// set walk its images once more for their tight box.
    fn of(points: &Points, bx: &[DeltaIv], dims: &[String], accesses: &[&'a AccessFn]) -> Self {
        let boxed = closed_box(bx);
        let tight = |arity: usize, maps: &[&[Row]]| -> Option<(Packer, PointSet)> {
            let packer = match boxed
                .as_deref()
                .and_then(|b| Packer::image_box(arity, maps, b))
            {
                Some(b) => Packer::of_box(&b),
                None => Packer::around(arity, maps, points.iter())?,
            };
            let set = PointSet::images(&packer, maps, points.iter())?;
            Some((packer, set))
        };
        // An identity image is the point itself, which fits `i64`.
        let instances = tight(dims.len(), &[&Row::identity(dims.len())]).expect("points fit i64");
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
                let maps: Vec<&[Row]> = touching.iter().map(|&k| rows[k].as_slice()).collect();
                Some(Footprint {
                    array,
                    cells: tight(maps[0].len(), &maps)?,
                    accesses: touching,
                })
            })
            .collect();
        Enumerated {
            instances,
            footprint,
        }
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
            .map(|points| Enumerated::of(&points, &bx, &dims, &accesses));
        Original {
            dims,
            domain,
            accesses,
            enumerated,
        }
    }
}

/// What one rewrite step's obligations all read of the transformed
/// statement: its dimension ids, its domain's constant box, (when the
/// original side is enumerated too) its points, and its reconstruction.
struct Transformed<'s> {
    dims: Vec<DimId>,
    bx: Vec<DeltaIv>,
    points: Option<Points>,
    /// The statement's [`StmtPoly::reconstruction`], which pulls original
    /// expressions back into the transformed dims.
    pullback: Vec<(DimId, &'s LinearExpr)>,
}

impl<'s> Transformed<'s> {
    fn of(s: &'s StmtPoly, orig: &Original, limit: usize) -> Self {
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
            pullback: s.reconstruction(),
        }
    }
}

/// `bx` as closed intervals, when every dimension has both bounds.
fn closed_box(bx: &[DeltaIv]) -> Option<Vec<(i64, i64)>> {
    bx.iter().map(|&(lo, hi)| Some((lo?, hi?))).collect()
}

/// A set's level-bounds table — `None` when a projection leaves `i64`
/// — and its bounding box: the constant lower/upper bounds per dimension,
/// in dimension order, ignoring bounds that mention other dims (every
/// dimension unbounded without a table).
fn level_table(set: &BasicSet) -> (Option<Vec<LevelBounds>>, Vec<DeltaIv>) {
    let Ok(levels) = set.level_bounds() else {
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
    set.enumerate_points(levels, limit).ok()
}

// ---------------------------------------------------------------------
// Obligations
// ---------------------------------------------------------------------

/// Checks that every recorded dependence stays lexicographically
/// non-negative under the statement's current schedule.
fn dependences_obligation(
    c: &Compute,
    s: &StmtPoly,
    deps: &Result<Vec<SelfDependence>, PolyError>,
    cur: &Transformed,
) -> Obligation {
    let deps = match deps {
        Ok(deps) => deps,
        Err(e) => {
            return Obligation::failed(
                ObligationKind::DependencesPreserved,
                format!("the original dependences cannot be analysed ({e}): may be violated"),
            )
        }
    };
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
    if deps.is_empty() {
        return None;
    }
    let orig_dims = c.iter_names();
    let step = Displacement::of(s, &orig_dims, bx);
    // The verdict depends on the distance alone: one already found
    // preserved (flow and anti often share it) is not checked again.
    let mut preserved: Vec<&[i64]> = Vec::with_capacity(deps.len());
    deps.iter().find_map(|d| {
        if preserved.contains(&d.dist.as_slice()) {
            return None;
        }
        preserved.push(&d.dist);
        Some((d, step.violated_level(&d.dist)?))
    })
}

/// The displacement system of one rewrite step, shared by every
/// dependence checked at that step (see [`Displacement::safe_levels`]).
struct Displacement<'s> {
    s: &'s StmtPoly,
    orig_dims: &'s [String],
    /// Per original dim, the `(current position, coeff)` terms of its
    /// reconstruction expression; `None` when one is missing or mentions
    /// a dim the statement does not have.
    eqs: Option<Vec<Vec<(usize, i64)>>>,
    /// Each current dim's displacement interval before narrowing.
    base: Vec<DeltaIv>,
}

impl<'s> Displacement<'s> {
    /// The system of `s` over its domain's box `bx`; `orig_dims` are the
    /// original loops the dependence distances are given in.
    fn of(s: &'s StmtPoly, orig_dims: &'s [String], bx: &[DeltaIv]) -> Self {
        let cur: Vec<DimId> = s.dims().iter().map(|d| DimId::intern(d)).collect();
        let eqs = orig_dims
            .iter()
            .map(|od| {
                s.orig_expr(od)?
                    .terms_ids()
                    .iter()
                    .filter(|&&(_, c)| c != 0)
                    .map(|&(id, c)| Some((cur.iter().rposition(|&d| d == id)?, c)))
                    .collect()
            })
            .collect();
        // δ_cd ∈ [lo - hi, hi - lo] whenever cd has constant bounds (and
        // the spread fits `i64`; otherwise δ_cd is left unbounded).
        let base = bx
            .iter()
            .map(|b| match *b {
                (Some(lo), Some(hi)) => (lo.checked_sub(hi), hi.checked_sub(lo)),
                _ => (None, None),
            })
            .collect();
        Displacement {
            s,
            orig_dims,
            eqs,
            base,
        }
    }

    /// Finds the first transformed loop level at which some instance
    /// pair related by original-space distance `dist` executes in
    /// reversed order; `None` means the schedule preserves the
    /// dependence.
    ///
    /// Levels are first screened through [`Displacement::safe_levels`] —
    /// an interval argument over the per-level displacement of the
    /// instance pair that discharges almost every level of a legal
    /// schedule in a few integer operations. Only levels the screen
    /// cannot decide pay for the exact Fourier–Motzkin check on the
    /// doubled instance system, so the result is identical to running FM
    /// everywhere.
    fn violated_level(&self, dist: &[i64]) -> Option<usize> {
        let screened = self.safe_levels(dist);
        if screened
            .as_ref()
            .is_some_and(|safe| safe.iter().all(|&b| b))
        {
            return None;
        }
        let sys = self.doubled(dist)?;
        let cur_dims = self.s.dims();
        // Violation at level l: equal above l, sink strictly earlier at l.
        for (l, dim) in cur_dims.iter().enumerate() {
            if screened.as_ref().is_some_and(|safe| safe[l]) {
                continue;
            }
            let mut cs = sys.clone();
            for above in &cur_dims[..l] {
                cs.push(Constraint::eq(
                    LinearExpr::var(sink(above)),
                    LinearExpr::var(above),
                ));
            }
            cs.push(Constraint::lt(
                LinearExpr::var(sink(dim)),
                LinearExpr::var(dim),
            ));
            if fm::feasible(&cs) {
                return Some(l);
            }
        }
        None
    }

    /// The doubled instance system of `dist`: source and sink instances
    /// both range over the transformed domain (the sink's dims renamed by
    /// [`sink`]), and the sink's original coordinates are the source's
    /// displaced by `dist`. `None` when an original dim has no
    /// reconstruction expression.
    fn doubled(&self, dist: &[i64]) -> Option<Vec<Constraint>> {
        let cur_dims = self.s.dims();
        let rename_all = |mut e: LinearExpr| -> LinearExpr {
            for d in cur_dims {
                e = e.renamed(d, &sink(d));
            }
            e
        };
        let domain = self.s.domain().constraints();
        let mut sys = domain.to_vec();
        for con in domain {
            sys.push(Constraint {
                expr: rename_all(con.expr.clone()),
                kind: con.kind,
            });
        }
        for (od, &d) in self.orig_dims.iter().zip(dist) {
            let e = self.s.orig_expr(od)?;
            sys.push(Constraint::eq(
                rename_all(e.clone()) - e.clone(),
                LinearExpr::constant_expr(d),
            ));
        }
        Some(sys)
    }

    /// Sound per-level screen for [`Displacement::violated_level`]:
    /// `safe[l] == true` proves no instance pair related by `dist`
    /// executes in reversed order at transformed level `l`; `false`
    /// means "undecided, run FM".
    ///
    /// In displacement space the doubled instance system collapses:
    /// writing `δ_cd` for the sink-minus-source displacement along
    /// current dim `cd`, each original dim's reconstruction expression
    /// `e_od` (linear in the current dims) yields one equation `Σ
    /// coeff(e_od, cd) · δ_cd = dist[od]` — the constant parts cancel.
    /// Each `δ_cd` starts bounded by the spread of `cd`'s constant domain
    /// bounds (the transformed domain's box), and interval narrowing
    /// over the equations (with integer rounding) tightens the rest: for
    /// a tiled dim, `T·δ_out + δ_inn = 0` with `δ_inn ∈ (-T, T)` pins
    /// both to zero. Level `l` is safe when, after also pinning every
    /// outer `δ` to zero, `δ_l` cannot be negative — or the pinned system
    /// is empty.
    ///
    /// Returns `None` when the screen cannot be built (a reconstruction
    /// expression is missing or mentions an unknown dim).
    fn safe_levels(&self, dist: &[i64]) -> Option<Vec<bool>> {
        let eqs = self.eqs.as_deref()?;
        let n = self.base.len();
        let mut base = self.base.clone();
        let Some(fixpoint) = narrow_deltas(&mut base, eqs, dist) else {
            return Some(vec![true; n]); // no instance pair exists at all
        };
        let mut safe = vec![false; n];
        for l in 0..n {
            // Pinning and narrowing only raise lower bounds: a level whose
            // displacement is already non-negative stays safe.
            if base[l].0.is_some_and(|lo| lo >= 0) {
                safe[l] = true;
                continue;
            }
            let mut iv = base.clone();
            let mut empty = false;
            let mut pinned = false;
            for v in iv.iter_mut().take(l) {
                let lo = v.0.map_or(0, |x| x.max(0));
                let hi = v.1.map_or(0, |x| x.min(0));
                if lo > hi {
                    empty = true;
                    break;
                }
                pinned |= *v != (Some(0), Some(0));
                *v = (Some(0), Some(0));
            }
            // Pins that change nothing leave a fixpoint as it is, with
            // `δ_l` possibly negative.
            if !empty && !pinned && fixpoint {
                continue;
            }
            if empty || narrow_deltas(&mut iv, eqs, dist).is_none() {
                safe[l] = true; // equal-prefix pairs cannot exist
                continue;
            }
            safe[l] = iv[l].0.is_some_and(|lo| lo >= 0);
        }
        Some(safe)
    }
}

/// A current dim's name for the sink instance in
/// [`Displacement::doubled`]'s system.
fn sink(d: &str) -> String {
    format!("{d}__snk")
}

/// Interval narrowing of the equations `Σ eqs[k]·δ = rhs[k]`, for at
/// most `2·len` rounds. Returns `None` when some interval becomes empty
/// (no solution), else whether the last round changed nothing (a
/// fixpoint).
fn narrow_deltas(iv: &mut [DeltaIv], eqs: &[Vec<(usize, i64)>], rhs: &[i64]) -> Option<bool> {
    let rounds = 2 * iv.len().max(1);
    for _ in 0..rounds {
        let mut changed = false;
        for (coeffs, &rhs) in eqs.iter().zip(rhs) {
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
                        return None;
                    }
                }
                if (merged_lo, merged_hi) != iv[vi] {
                    iv[vi] = (merged_lo, merged_hi);
                    changed = true;
                }
            }
        }
        if !changed {
            return Some(true);
        }
    }
    Some(false)
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
        // A reconstruction that leaves `i64` has no set to compare.
        let Some(after) = PointSet::images(packer, &[&rows], points.iter()) else {
            return Obligation::passed(
                ObligationKind::DomainPreserved,
                "image inclusion proven symbolically (Fourier–Motzkin); exact comparison \
                 skipped: an instance's image leaves i64",
            );
        };
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
    symbolic_domain(limit)
}

/// The domain obligation discharged by the inclusion proof alone.
fn symbolic_domain(limit: usize) -> Obligation {
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
        // A constraint whose pull-back leaves `i64` is not proven, like an
        // overflowing Fourier–Motzkin step ("may be violated").
        let Ok(pulled) = c.expr.substituted_many(&cur.pullback) else {
            return Some(format!(
                "some transformed instance may map outside the original domain: constraint \
                 `{c}` leaves i64 when pulled back"
            ));
        };
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
fn footprint_obligation(orig: &Original, cur: &Transformed) -> Obligation {
    let symbolic = || {
        Obligation::passed(
            ObligationKind::FootprintPreserved,
            "follows from domain preservation: transformed accesses are the original access \
             functions composed with the iterator-reconstruction map",
        )
    };
    let (
        Some(Enumerated {
            footprint: Some(footprint),
            ..
        }),
        Some(points),
    ) = (&orig.enumerated, &cur.points)
    else {
        return symbolic();
    };
    // An access whose pull-back or image leaves `i64` has no cell set to
    // compare; the composition argument still holds for its array.
    let rows: Vec<Option<Vec<Row>>> = orig
        .accesses
        .iter()
        .map(|a| {
            a.indices
                .iter()
                .map(|e| {
                    let pulled = e.substituted_many(&cur.pullback).ok()?;
                    Some(Row::compile(&pulled, &cur.dims))
                })
                .collect()
        })
        .collect();
    let mut unrepresentable = false;
    for fp in footprint {
        let (packer, cells) = &fp.cells;
        let maps: Option<Vec<&[Row]>> = fp.accesses.iter().map(|&k| rows[k].as_deref()).collect();
        let Some(after) = maps.and_then(|maps| PointSet::images(packer, &maps, points.iter()))
        else {
            unrepresentable = true;
            continue;
        };
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
    if unrepresentable {
        return symbolic();
    }
    Obligation::passed(
        ObligationKind::FootprintPreserved,
        format!(
            "footprints of {} array(s) enumerated on both sides; cell sets identical",
            footprint.len()
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
/// An access whose pull-back leaves `i64` may read first.
fn reads_first(sp: &StmtPoly, pa: &AccessFn, sc: &StmtPoly, ca: &AccessFn) -> bool {
    let current = |s: &StmtPoly, a: &AccessFn| -> Option<Vec<LinearExpr>> {
        let back = s.reconstruction();
        a.indices
            .iter()
            .map(|e| e.substituted_many(&back).ok())
            .collect()
    };
    let (Some(pa), Some(ca)) = (current(sp, pa), current(sc, ca)) else {
        return true;
    };
    let mut sys = shared_cell(
        sp.domain(),
        pa.into_iter(),
        sc.domain(),
        sc.dims(),
        ca.into_iter(),
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
    use proptest::collection::vec;
    use proptest::prelude::*;

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
            footprint_obligation(&orig, &cur),
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
        let identity = Row::identity(2);
        let maps: [&[Row]; 1] = [&identity];
        let points = || vs.iter().map(Vec::as_slice);
        let own = Packer::around(2, &maps, points()).expect("small vectors");
        let set = PointSet::images_capped(packer.unwrap_or(&own), cap, &maps, points())
            .expect("small vectors");
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

    /// One random map for [`image_sets_match_a_vector_oracle`]: per image
    /// coordinate, `(position, coeff)` terms (positions taken modulo the
    /// points' arity) and a constant.
    type MapSpec = Vec<(Vec<(usize, i64)>, i64)>;

    fn map_strategy() -> impl Strategy<Value = MapSpec> {
        vec((vec((0usize..3, -3i64..4), 0..3), -5i64..6), 1..4)
    }

    fn map_rows(spec: &MapSpec, arity: usize) -> Vec<Row> {
        spec.iter()
            .map(|(terms, constant)| Row {
                terms: terms.iter().map(|&(p, c)| (p % arity, c)).collect(),
                constant: *constant,
            })
            .collect()
    }

    /// The images of `points` under `maps`, as the vectors themselves.
    fn oracle(points: &[Vec<i64>], maps: &[Vec<Row>]) -> BTreeSet<Vec<i64>> {
        let dot = |r: &Row, p: &[i64]| r.terms.iter().map(|&(k, c)| c * p[k]).sum::<i64>();
        maps.iter()
            .flat_map(|rows| {
                points
                    .iter()
                    .map(move |p| rows.iter().map(|r| r.constant + dot(r, p)).collect())
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Image sets built by [`PointSet::images_capped`] answer `==`,
        /// `len` and `common` like sets of the image vectors: over maps of
        /// the packer's arity and of others, images inside and outside the
        /// packer's box, bitsets and sorted keys (by the cap, and by a box
        /// past [`BITSET_CELLS`]), and the empty point set.
        #[test]
        fn image_sets_match_a_vector_oracle(
            (arity, coords) in (1usize..4, vec(-6i64..7, 0..100)),
            (maps_a, maps_b) in (vec(map_strategy(), 1..4), vec(map_strategy(), 1..4)),
            packing in 0u8..4,
        ) {
            let points: Vec<Vec<i64>> = coords.chunks_exact(arity).map(<[i64]>::to_vec).collect();
            let rows_a: Vec<Vec<Row>> = maps_a.iter().map(|m| map_rows(m, arity)).collect();
            let rows_b: Vec<Vec<Row>> = maps_b.iter().map(|m| map_rows(m, arity)).collect();
            let a: Vec<&[Row]> = rows_a.iter().map(Vec::as_slice).collect();
            let b: Vec<&[Row]> = rows_b.iter().map(Vec::as_slice).collect();
            let bx: Option<Vec<(i64, i64)>> = (0..arity)
                .map(|k| {
                    let (lo, hi) = (points.iter().map(|p| p[k]).min()?, points.iter().map(|p| p[k]).max()?);
                    Some((lo, hi))
                })
                .collect();
            let out_arity = a[0].len();
            let packer = match (packing, &bx) {
                (1, Some(bx)) => Packer::of_box(&Packer::image_box(out_arity, &a, bx).expect("small")),
                (2, _) => Packer::of_box(&vec![(-(1 << 20), 1 << 20); out_arity]),
                _ => Packer::around(out_arity, &a, points.iter().map(Vec::as_slice)).expect("small"),
            };
            let cap = if packing == 3 { 0 } else { BITSET_CELLS };
            let set = |maps: &[&[Row]]| {
                PointSet::images_capped(&packer, cap, maps, points.iter().map(Vec::as_slice))
                    .expect("small")
            };
            let (pa, pb) = (set(&a), set(&b));
            let (ta, tb) = (oracle(&points, &rows_a), oracle(&points, &rows_b));
            prop_assert_eq!(
                (pa == pb, pa.len(), pb.len(), pa.common(&pb)),
                (ta == tb, ta.len(), tb.len(), ta.intersection(&tb).count()),
                "arity {} packing {} points {:?}", arity, packing, points
            );
            prop_assert_eq!(matches!(pa.keys, Keys::Sorted(_)), packer.cells > cap);
        }
    }

    /// `B[i][j] = Σ A[i + di][j + dj]` over `i, j ∈ [1, 8]`, `di, dj ∈
    /// {-1, 0, 1}`: a rectangular domain under stencil offsets.
    fn conv3x3() -> Function {
        let mut f = Function::new("conv");
        let i = f.var("i", 1, 9);
        let j = f.var("j", 1, 9);
        let a = f.placeholder("A", &[10, 10], DataType::F32);
        let b = f.placeholder("B", &[10, 10], DataType::F32);
        let mut body = a.at(&[i.expr() - 1, j.expr() - 1]);
        for (di, dj) in (-1..=1)
            .flat_map(|di| (-1..=1).map(move |dj| (di, dj)))
            .skip(1)
        {
            body = body + a.at(&[i.expr() + di, j.expr() + dj]);
        }
        f.compute("s", &[i.clone(), j.clone()], body, b.access(&[&i, &j]));
        f
    }

    #[test]
    fn level_table_boxes_are_the_walked_boxes() {
        // On a rectangular domain the level table's constant box is the
        // instances' tight box, and interval arithmetic over it gives each
        // footprint's tight box: the boxes `Packer::around` walks for.
        for f in [conv3x3(), stencil(16)] {
            let c = &f.computes()[0];
            let orig = Original::of(c, ValidateOptions::default().enumerate_limit);
            let e = orig.enumerated.as_ref().expect("enumerable");
            let domain = c.domain();
            let points = domain
                .enumerate_points(&domain.level_bounds().unwrap(), 4096)
                .unwrap();
            let ids: Vec<DimId> = orig.dims.iter().map(|d| DimId::intern(d)).collect();
            let same = |a: &Packer, b: &Packer| a.dims == b.dims && a.cells == b.cells;
            let identity = Row::identity(orig.dims.len());
            let walked = Packer::around(orig.dims.len(), &[&identity], points.iter());
            assert!(
                same(&e.instances.0, &walked.expect("small")),
                "{}",
                f.name()
            );
            for fp in e.footprint.as_ref().expect("small images") {
                let rows: Vec<Vec<Row>> = fp
                    .accesses
                    .iter()
                    .map(|&k| {
                        let index = &orig.accesses[k].indices;
                        index.iter().map(|x| Row::compile(x, &ids)).collect()
                    })
                    .collect();
                let maps: Vec<&[Row]> = rows.iter().map(Vec::as_slice).collect();
                let walked = Packer::around(maps[0].len(), &maps, points.iter());
                assert!(
                    same(&fp.cells.0, &walked.expect("small")),
                    "{} {}",
                    f.name(),
                    fp.array
                );
            }
        }
    }

    /// `P: A[i·2^62] = X[i] * 2` over `i ∈ [0, 4)`, split by 2 into
    /// `(i0, i1)`: the images of `i = 2, 3` leave `i64`, and so does the
    /// pulled-back coefficient of `i0` (2^63).
    fn huge_access() -> Function {
        let mut f = Function::new("huge");
        let i = f.var("i", 0, 4);
        let x = f.placeholder("X", &[4], DataType::F32);
        let a = f.placeholder("A", &[4], DataType::F32);
        let y = f.placeholder("Y", &[4], DataType::F32);
        let iv = std::slice::from_ref(&i);
        let huge = || LinearExpr::term("i", 1 << 62);
        f.compute("P", iv, x.at(&[&i]) * 2.0, a.access(&[huge()]));
        f.compute("C", iv, a.at(&[huge()]) + 1.0, y.access(&[&i]));
        f.split("P", "i", 2, "i0", "i1");
        f
    }

    #[test]
    fn huge_access_coefficient_does_not_panic() {
        // The instances still compare exactly; no cell set of `A` can be
        // built on either side, so the footprint takes the symbolic
        // route — never wrapped values.
        let r = validate(&huge_access());
        assert!(r.passed(), "{}", r.render());
        let obs = &r.certificates[0].obligations;
        assert_eq!(
            obs[1].detail,
            "4 instances enumerated on both sides; sets identical",
            "{}",
            r.render()
        );
        assert!(
            obs[2]
                .detail
                .starts_with("follows from domain preservation"),
            "{}",
            r.render()
        );
        // Fusing `C` into `P`'s outer loop ties their sequence constants,
        // so the order check pulls `P`'s store back into `(i0, i1)`: that
        // leaves `i64`, and the order is not proven.
        let mut f = huge_access();
        f.after("C", "P", "i0");
        assert_eq!(last_failure(&f), Some(ObligationKind::OrderPreserved));
    }

    #[test]
    fn overflowing_domain_pullback_is_not_proven() {
        // `2^62·i ≥ 0` pulled back through `i = 4·i0 + i1` needs 2^64.
        let f = huge_access();
        let c = &f.computes()[0];
        let orig = Original::of(c, 4096);
        let mut s = StmtPoly::new("P", &[("i", 0, 3)]);
        s.split("i", 4, "i0", "i1").unwrap();
        let cur = Transformed::of(&s, &orig, 4096);
        let wide = BasicSet::from_bounds(&[("i", 0, 3)])
            .with_constraint(Constraint::ge_zero(LinearExpr::term("i", 1 << 62)));
        let witness = domain_inclusion_violation(&wide, &s, &cur).expect("not proven");
        assert!(witness.contains("leaves i64"), "{witness}");
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
