//! # pom-bank — polyhedral bank-conflict analysis
//!
//! Array partitioning (`hls.array_partition`) splits an array over
//! memory banks; each bank grants `ports_per_bank` accesses per cycle.
//! Whether a pipelined loop can actually sustain its initiation interval
//! therefore depends on *which banks* its per-iteration accesses land in,
//! not just on how many accesses there are. pom-sim measures this
//! dynamically through its port calendars; this crate derives the same
//! quantity *statically*:
//!
//! 1. Every access of one pipeline iteration is enumerated in program
//!    order — unrolled inner loops are expanded with concrete iterator
//!    values, while the pipeline iterator and enclosing sequential
//!    iterators stay symbolic ([`analyze_pipeline`]). The body is
//!    compiled once: each index expression splits into an interned
//!    symbolic part and an integer form over the pinned iterators, so an
//!    access instance is a shape id plus one `i64` per dimension.
//! 2. Accesses are classified exactly as the simulator's `time_iteration`
//!    does: a load forwarded from an earlier same-iteration store costs no
//!    port, repeated reads of one element cost one port, and only the last
//!    writer of an element writes back. Two accesses of one shape alias
//!    exactly when their constants agree, which a hashed lookup answers;
//!    the remaining aliasing questions go to Fourier–Motzkin feasibility
//!    over the free iterators' domain — `false` answers are proofs.
//! 3. Surviving accesses are grouped into *bank classes*: residues of the
//!    index expressions modulo the cyclic partition factors (mixed-radix
//!    across dimensions, same combine as the simulator's `bank_of`). When
//!    every pair of accesses has congruent coefficients, class
//!    cardinalities are iteration-invariant and the per-bank demand is
//!    exact ([`BankProfile::max_demand`]).
//!
//! Steps 1–2 do not depend on the partitioning and step 3 does, so the
//! partition search ([`minimal_conflict_free_factors`]) runs 1–2 once per
//! loop and only step 3 per trial.
//!
//! From the profile follow an exact bank-aware ResMII
//! ([`BankAnalysis::exact_res_mii`]), a conflict-freedom predicate
//! backing POM006 certificates ([`BankAnalysis::conflict_free`]), and a
//! minimal conflict-free partition search for DSE repair
//! ([`minimal_conflict_free_factors`]).
//!
//! Whenever the structure is not analyzable — guards inside the pipeline
//! body, non-constant inner-loop bounds, undecidable aliasing, index
//! constants that overflow `i64`, or more than [`INSTANCE_CAP`]
//! instances — the analysis degrades to *inexact* and claims nothing, so
//! every exact verdict it does emit is sound.

#![warn(missing_docs)]

use pom_dsl::PartitionStyle;
use pom_ir::{AffineFunc, AffineOp, ForOp, MemRefDecl};
use pom_poly::{congruent_coeffs, fm, AccessFn, Bound, Constraint, DimId, LinearExpr};
use std::collections::{BTreeSet, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

/// Upper bound on enumerated access instances per pipeline iteration;
/// beyond it the analysis reports inexact instead of grinding.
pub const INSTANCE_CAP: usize = 4096;

/// Upper bound on enumerated outer-iterator cases when inner-loop bounds
/// depend on enclosing iterators (non-rectangular tails from splits whose
/// factor does not divide the trip count).
pub const CASE_CAP: usize = 64;

/// Upper bound on Fourier–Motzkin feasibility queries per pipeline; the
/// quadratic aliasing pass falls back to inexact when it is exhausted.
const FM_BUDGET: usize = 20_000;

// ---------------------------------------------------------------------
// Bank mapping (shared semantics with pom-sim's port calendars)
// ---------------------------------------------------------------------

/// Bank mapping of one array dimension.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BankDim {
    /// Partition factor along this dimension (1 = unpartitioned).
    pub factor: i64,
    /// Elements per bank along this dimension (block style).
    pub chunk: i64,
    /// Cyclic (`i % factor`) vs. block (`i / chunk`) mapping.
    pub cyclic: bool,
}

impl BankDim {
    /// The bank coordinate of index `c` along this dimension.
    fn bank(&self, c: i64) -> u64 {
        if self.factor <= 1 {
            0
        } else if self.cyclic {
            c.rem_euclid(self.factor) as u64
        } else {
            (c / self.chunk).min(self.factor - 1) as u64
        }
    }
}

/// The complete bank mapping of one array: per-dimension mappings
/// combined mixed-radix, exactly as the simulator's `bank_of`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArrayBanks {
    /// Array shape (row-major).
    pub shape: Vec<usize>,
    /// One mapping per dimension.
    pub dims: Vec<BankDim>,
}

impl ArrayBanks {
    /// Derives the bank mapping from a memref declaration. Complete
    /// partitioning is modeled as cyclic with the same factor; factors
    /// are clamped to `[1, dim size]`.
    pub fn of(m: &MemRefDecl) -> Self {
        let dims = match &m.partition {
            Some(p) => p
                .factors
                .iter()
                .zip(&m.shape)
                .map(|(&f, &n)| {
                    let f = f.max(1).min(n.max(1) as i64);
                    BankDim {
                        factor: f,
                        chunk: ((n as i64 + f - 1) / f).max(1),
                        cyclic: !matches!(p.style, PartitionStyle::Block),
                    }
                })
                .collect(),
            None => m
                .shape
                .iter()
                .map(|_| BankDim {
                    factor: 1,
                    chunk: 1,
                    cyclic: true,
                })
                .collect(),
        };
        ArrayBanks {
            shape: m.shape.clone(),
            dims,
        }
    }

    /// Total number of banks.
    pub fn banks(&self) -> u64 {
        self.dims
            .iter()
            .map(|d| d.factor as u64)
            .product::<u64>()
            .max(1)
    }

    /// The bank a per-dimension coordinate vector lives in.
    pub fn bank_of_coords(&self, coords: &[i64]) -> u32 {
        let mut bank = 0u64;
        for (bd, &c) in self.dims.iter().zip(coords) {
            bank = bank * bd.factor as u64 + bd.bank(c);
        }
        bank as u32
    }

    /// The bank a row-major flat element index lives in: one pass from
    /// the innermost dimension out, peeling each coordinate off `flat` and
    /// weighting its bank by the factors of the dimensions inside it.
    pub fn bank_of_flat(&self, flat: usize) -> u32 {
        let (mut rem, mut bank, mut weight) = (flat, 0u64, 1u64);
        for (d, &n) in self.shape.iter().enumerate().rev() {
            let n = n.max(1);
            let c = (rem % n) as i64;
            rem /= n;
            // Like `bank_of_coords`, dimensions without a mapping do not
            // contribute.
            if let Some(bd) = self.dims.get(d) {
                bank = bank.wrapping_add(bd.bank(c).wrapping_mul(weight));
                weight = weight.wrapping_mul(bd.factor as u64);
            }
        }
        bank as u32
    }
}

// ---------------------------------------------------------------------
// Compiled access sites
// ---------------------------------------------------------------------
//
// A pipeline iteration pins some iterators to concrete values — a case
// assignment (outermost) and the unrolled in-pipeline loops — and leaves
// the rest (the pipeline iterator, enclosing sequential loops) symbolic.
// Compiling a body splits each index expression into its symbolic free
// part, interned once per body, and an integer form over the pinned
// slots. Enumerating an iteration then only evaluates integer forms.

/// An integer form over the pinned slots: `base + Σ coeff · vals[slot]`.
struct Pinned {
    base: i64,
    terms: Vec<(usize, i64)>,
}

impl Pinned {
    /// Splits `e` over the pinned `stack` (slot = position) into its free
    /// terms and its pinned form. An iterator pinned twice binds to its
    /// innermost slot.
    fn split(e: &LinearExpr, stack: &[DimId]) -> (Vec<(DimId, i64)>, Pinned) {
        let mut free = Vec::new();
        let mut terms = Vec::new();
        for &(id, c) in e.terms_ids() {
            match stack.iter().rposition(|&s| s == id) {
                Some(slot) => terms.push((slot, c)),
                None => free.push((id, c)),
            }
        }
        let pinned = Pinned {
            base: e.constant(),
            terms,
        };
        (free, pinned)
    }

    /// The value under `vals`; `None` on `i64` overflow.
    fn eval(&self, vals: &[i64]) -> Option<i64> {
        self.terms.iter().try_fold(self.base, |acc, &(slot, c)| {
            acc.checked_add(c.checked_mul(vals[slot])?)
        })
    }
}

/// FNV-1a as a [`Hasher`]. The crate's maps key on interned ids and on
/// instance-constant hashes; a collision costs an ordered scan, never a
/// wrong verdict.
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(pom_poly::fnv::OFFSET_BASIS)
    }
}

impl Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        self.0 = pom_poly::fnv::extend(self.0, bytes);
    }
}

type FnvMap<K, V> = HashMap<K, V, BuildHasherDefault<Fnv>>;

/// The interned free parts of one compiled body.
#[derive(Default)]
struct Shapes {
    lin_ids: FnvMap<Vec<(DimId, i64)>, usize>,
    /// Free part of one index expression, by id (constant zero).
    lins: Vec<LinearExpr>,
    shape_ids: FnvMap<Vec<usize>, usize>,
    /// Free-part ids of one access, one per dimension, by shape id.
    shapes: Vec<Vec<usize>>,
}

impl Shapes {
    fn lin(&mut self, free: Vec<(DimId, i64)>) -> usize {
        if let Some(&id) = self.lin_ids.get(&free) {
            return id;
        }
        let mut e = LinearExpr::zero();
        for &(d, c) in &free {
            e.set_coeff_id(d, c);
        }
        self.lins.push(e);
        self.lin_ids.insert(free, self.lins.len() - 1);
        self.lins.len() - 1
    }

    fn shape(&mut self, lins: Vec<usize>) -> usize {
        if let Some(&id) = self.shape_ids.get(&lins) {
            return id;
        }
        self.shapes.push(lins.clone());
        self.shape_ids.insert(lins, self.shapes.len() - 1);
        self.shapes.len() - 1
    }
}

/// One access, compiled: its array, its shape and one pinned form per
/// dimension.
struct Site {
    array: usize,
    shape: usize,
    idx: Vec<Pinned>,
}

/// One op of a compiled pipelined body.
enum Op {
    Store {
        loads: Vec<Site>,
        dest: Site,
    },
    /// An in-pipeline loop, unrolled into `slot`. `bounds` (lower, upper;
    /// each with its divisor) is `None` when a bound mentions a free
    /// iterator or a side has no bound.
    For {
        slot: usize,
        bounds: Option<[Vec<(Pinned, i64)>; 2]>,
        body: Vec<Op>,
    },
    /// A guard inside the pipeline: the instance set varies per iteration.
    If,
}

/// A pipelined body compiled against a prefix of pinned case iterators.
struct Body<'a> {
    ops: Vec<Op>,
    /// Pinned slots: the case prefix plus the deepest in-pipeline nest.
    slots: usize,
    /// Accessed array names; a site's `array` indexes this.
    arrays: Vec<&'a str>,
    shapes: Shapes,
}

impl<'a> Body<'a> {
    fn compile(pipe: &'a ForOp, cases: &[DimId]) -> Self {
        let mut body = Body {
            ops: Vec::new(),
            slots: cases.len(),
            arrays: Vec::new(),
            shapes: Shapes::default(),
        };
        body.ops = body.compile_ops(&pipe.body, &mut cases.to_vec());
        body
    }

    fn compile_ops(&mut self, ops: &'a [AffineOp], stack: &mut Vec<DimId>) -> Vec<Op> {
        ops.iter()
            .map(|op| match op {
                AffineOp::Store(s) => Op::Store {
                    loads: s
                        .value
                        .loads()
                        .into_iter()
                        .map(|a| self.site(a, stack))
                        .collect(),
                    dest: self.site(&s.dest, stack),
                },
                AffineOp::If(_) => Op::If,
                AffineOp::For(l) => {
                    let side = |bs: &[Bound]| -> Option<Vec<(Pinned, i64)>> {
                        if bs.is_empty() {
                            return None;
                        }
                        bs.iter()
                            .map(|b| {
                                let (free, pinned) = Pinned::split(&b.expr, stack);
                                free.is_empty().then_some((pinned, b.div))
                            })
                            .collect()
                    };
                    let bounds = side(&l.lbs).zip(side(&l.ubs)).map(|(lo, hi)| [lo, hi]);
                    let slot = stack.len();
                    stack.push(DimId::intern(&l.iv));
                    self.slots = self.slots.max(stack.len());
                    let body = self.compile_ops(&l.body, stack);
                    stack.pop();
                    Op::For { slot, bounds, body }
                }
            })
            .collect()
    }

    fn site(&mut self, a: &'a AccessFn, stack: &[DimId]) -> Site {
        let array = match self.arrays.iter().position(|&n| n == a.array) {
            Some(i) => i,
            None => {
                self.arrays.push(&a.array);
                self.arrays.len() - 1
            }
        };
        let mut lins = Vec::with_capacity(a.indices.len());
        let mut idx = Vec::with_capacity(a.indices.len());
        for e in &a.indices {
            let (free, pinned) = Pinned::split(e, stack);
            lins.push(self.shapes.lin(free));
            idx.push(pinned);
        }
        Site {
            array,
            shape: self.shapes.shape(lins),
            idx,
        }
    }

    /// The store instances of the iteration whose case iterators take the
    /// values `case`.
    fn instances(&self, case: &[i64]) -> Result<Insts, Stop> {
        let mut vals = vec![0; self.slots];
        vals[..case.len()].copy_from_slice(case);
        let mut insts = Insts::default();
        insts.collect(&self.ops, &mut vals)?;
        Ok(insts)
    }
}

/// Why an iteration's instances could not be enumerated.
enum Stop {
    /// An in-pipeline loop bound mentions a free iterator — the one
    /// failure case enumeration repairs.
    SymbolicBounds,
    /// A guard, the instance cap, or an `i64` overflow.
    Inexact,
}

/// One access instance: its site's array and shape, where its index
/// constants start in the iteration's arena, and their hash.
#[derive(Clone, Copy)]
struct Acc {
    array: usize,
    shape: usize,
    at: usize,
    hash: u64,
}

/// The store instances of one pipeline iteration, in program order.
#[derive(Default)]
struct Insts {
    /// Index constants of every instance, back to back.
    consts: Vec<i64>,
    loads: Vec<Acc>,
    /// Store `i` reads `loads[load_ends[i - 1]..load_ends[i]]`.
    load_ends: Vec<usize>,
    dests: Vec<Acc>,
}

impl Insts {
    fn push(&mut self, site: &Site, vals: &[i64]) -> Result<Acc, Stop> {
        let at = self.consts.len();
        let mut hash = 0u64;
        for p in &site.idx {
            let c = p.eval(vals).ok_or(Stop::Inexact)?;
            // One FxHash step: the key of the buckets' hashed sets.
            hash = (hash.rotate_left(5) ^ c as u64).wrapping_mul(0x517c_c1b7_2722_0a95);
            self.consts.push(c);
        }
        Ok(Acc {
            array: site.array,
            shape: site.shape,
            at,
            hash,
        })
    }

    fn collect(&mut self, ops: &[Op], vals: &mut [i64]) -> Result<(), Stop> {
        for op in ops {
            match op {
                Op::Store { loads, dest } => {
                    if self.dests.len() >= INSTANCE_CAP {
                        return Err(Stop::Inexact);
                    }
                    for site in loads {
                        let a = self.push(site, vals)?;
                        self.loads.push(a);
                    }
                    self.load_ends.push(self.loads.len());
                    let d = self.push(dest, vals)?;
                    self.dests.push(d);
                }
                Op::If => return Err(Stop::Inexact),
                Op::For { bounds: None, .. } => return Err(Stop::SymbolicBounds),
                Op::For {
                    slot,
                    bounds: Some([lbs, ubs]),
                    body,
                } => {
                    let (Some(lb), Some(ub)) = (bound(lbs, vals, true), bound(ubs, vals, false))
                    else {
                        return Err(Stop::Inexact);
                    };
                    for v in lb..=ub {
                        vals[*slot] = v;
                        self.collect(body, vals)?;
                    }
                }
            }
        }
        Ok(())
    }
}

/// A compiled loop bound under `vals`: the `max` of the lower sides'
/// ceilings or the `min` of the upper sides' floors. `None` on overflow.
fn bound(sides: &[(Pinned, i64)], vals: &[i64], lower: bool) -> Option<i64> {
    let mut out: Option<i64> = None;
    for (p, div) in sides {
        let v = p.eval(vals)?;
        let q = v.checked_div_euclid(*div)?;
        let b = if lower && v.checked_rem_euclid(*div)? != 0 {
            q + 1
        } else {
            q
        };
        out = Some(out.map_or(b, |o| if lower { o.max(b) } else { o.min(b) }));
    }
    out
}

// ---------------------------------------------------------------------
// Classification (partition-independent)
// ---------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq)]
enum Alias {
    /// Provably the same element at every iteration.
    Same,
    /// Provably never the same element.
    Never,
    /// Undecidable — the analysis must degrade to inexact.
    Unknown,
}

/// What classifying one iteration's instances reads.
struct Cx<'s> {
    shapes: &'s Shapes,
    consts: &'s [i64],
    /// The free iterators' domain.
    domain: &'s [Constraint],
}

impl Cx<'_> {
    fn consts(&self, a: Acc) -> &[i64] {
        &self.consts[a.at..a.at + self.shapes.shapes[a.shape].len()]
    }

    /// Decides whether two accesses of the same array refer to the same
    /// element over the domain.
    fn alias(&self, a: Acc, b: Acc, fm_budget: &mut usize) -> Alias {
        let (la, lb) = (&self.shapes.shapes[a.shape], &self.shapes.shapes[b.shape]);
        if la.len() != lb.len() {
            return Alias::Unknown;
        }
        // Dimensions with one free part differ by a constant everywhere.
        let (ca, cb) = (self.consts(a), self.consts(b));
        let mut symbolic = false;
        for d in 0..la.len() {
            if la[d] != lb[d] {
                symbolic = true;
            } else if ca[d] != cb[d] {
                return Alias::Never;
            }
        }
        if !symbolic {
            return Alias::Same;
        }
        // Some dimension differs symbolically: equal only where the
        // equality system is feasible. Rational FM over-approximates the
        // integers, so `Never` is sound and `Unknown` is the honest
        // remainder.
        if *fm_budget == 0 {
            return Alias::Unknown;
        }
        *fm_budget -= 1;
        let mut cs = self.domain.to_vec();
        for d in (0..la.len()).filter(|&d| la[d] != lb[d]) {
            let mut diff = self.shapes.lins[la[d]].clone();
            let Some(k) = ca[d].checked_sub(cb[d]) else {
                return Alias::Unknown;
            };
            if diff.try_add_scaled(&self.shapes.lins[lb[d]], -1).is_err() {
                return Alias::Unknown;
            }
            diff.set_constant(k);
            cs.push(Constraint::eq_zero(diff));
        }
        if fm::feasible(&cs) {
            Alias::Unknown
        } else {
            Alias::Never
        }
    }

    /// The first verdict other than `Never` of `q` against `earlier`, in
    /// order — the scan stops there, so a later pair is never evaluated.
    fn scan(&self, q: Acc, earlier: impl IntoIterator<Item = Acc>, fm_budget: &mut usize) -> Alias {
        for e in earlier {
            match self.alias(q, e, fm_budget) {
                Alias::Never => {}
                verdict => return verdict,
            }
        }
        Alias::Never
    }
}

/// The earlier accesses of one array that an access is compared with.
struct Bucket {
    entries: Vec<Acc>,
    /// The shape of every entry, while the bucket is non-empty and they
    /// all agree.
    uniform: Option<usize>,
    /// Constants hash → an entry with those constants, while `uniform`.
    set: FnvMap<u64, usize>,
}

impl Bucket {
    fn with_capacity(n: usize) -> Self {
        Bucket {
            entries: Vec::with_capacity(n),
            uniform: None,
            set: FnvMap::with_capacity_and_hasher(n, Default::default()),
        }
    }

    /// The scan's verdict for `q` when constants alone decide it: when
    /// every entry has `q`'s shape, `alias` is constant equality, so the
    /// scan meets `Same` exactly when some entry has `q`'s constants and
    /// never reaches FM. `None` when the ordered scan has to run.
    fn fast(&self, q: Acc, cx: &Cx) -> Option<Alias> {
        if self.entries.is_empty() {
            return Some(Alias::Never);
        }
        if self.uniform != Some(q.shape) {
            return None;
        }
        match self.set.get(&q.hash) {
            None => Some(Alias::Never),
            Some(&e) if cx.consts(self.entries[e]) == cx.consts(q) => Some(Alias::Same),
            Some(_) => None, // a hash collision: the scan decides
        }
    }

    fn find(&self, q: Acc, cx: &Cx, fm_budget: &mut usize) -> Alias {
        self.fast(q, cx)
            .unwrap_or_else(|| cx.scan(q, self.entries.iter().copied(), fm_budget))
    }

    fn insert(&mut self, a: Acc) {
        if self.entries.is_empty() {
            self.uniform = Some(a.shape);
        } else if self.uniform != Some(a.shape) {
            self.uniform = None;
            self.set.clear();
        }
        if self.uniform.is_some() {
            self.set.entry(a.hash).or_insert(self.entries.len());
        }
        self.entries.push(a);
    }
}

/// The memory reads and write-backs of one pipeline iteration, per array.
struct Case {
    consts: Vec<i64>,
    reads: Vec<Vec<Acc>>,
    writes: Vec<Vec<Acc>>,
}

impl Case {
    /// Classifies `insts` with the simulator's rules; `None` when some
    /// aliasing question the rules pose is undecidable.
    fn classify(
        insts: Insts,
        arrays: usize,
        shapes: &Shapes,
        domain: &[Constraint],
    ) -> Option<Case> {
        let cx = Cx {
            shapes,
            consts: &insts.consts,
            domain,
        };
        let mut fm_budget = FM_BUDGET;
        let (mut loads, mut dests) = (vec![0; arrays], vec![0; arrays]);
        insts.loads.iter().for_each(|a| loads[a.array] += 1);
        insts.dests.iter().for_each(|a| dests[a.array] += 1);
        let buckets =
            |n: &[usize]| -> Vec<Bucket> { n.iter().map(|&n| Bucket::with_capacity(n)).collect() };

        // Memory reads: an element read before any same-iteration write
        // comes from memory; repeated reads of one element cost one port.
        // A load is compared with the earlier writes, then the earlier
        // memory reads, and the first verdict other than `Never` decides.
        let (mut written, mut read) = (buckets(&dests), buckets(&loads));
        let mut start = 0;
        for (&dest, &end) in insts.dests.iter().zip(&insts.load_ends) {
            'load: for &q in &insts.loads[start..end] {
                for earlier in [&written[q.array], &read[q.array]] {
                    match earlier.find(q, &cx, &mut fm_budget) {
                        Alias::Same => continue 'load,
                        Alias::Never => {}
                        Alias::Unknown => return None,
                    }
                }
                read[q.array].insert(q);
            }
            start = end;
            written[dest.array].insert(dest);
        }

        // Write-backs: only the last writer of each element touches
        // memory. A reverse pass decides the stores whose later writes
        // all share their shape; the rest scan their later writes in
        // program order, so FM sees the pairs it always saw, in order.
        let mut later = buckets(&dests);
        let mut fast = vec![None; insts.dests.len()];
        for (i, &d) in insts.dests.iter().enumerate().rev() {
            fast[i] = later[d.array].fast(d, &cx);
            later[d.array].insert(d);
        }
        let mut writes = vec![Vec::new(); arrays];
        for (i, &d) in insts.dests.iter().enumerate() {
            let verdict = fast[i].unwrap_or_else(|| {
                let rest = insts.dests[i + 1..].iter().copied();
                cx.scan(d, rest.filter(|l| l.array == d.array), &mut fm_budget)
            });
            match verdict {
                Alias::Same => {}
                Alias::Never => writes[d.array].push(d),
                Alias::Unknown => return None,
            }
        }
        Some(Case {
            reads: read.into_iter().map(|b| b.entries).collect(),
            writes,
            consts: insts.consts,
        })
    }
}

/// The partition-independent half of one pipeline's analysis: the
/// compiled body and the classified accesses of each iteration case.
struct Classified<'a> {
    body: Body<'a>,
    cases: Vec<Case>,
    /// Whether `cases` enumerate outer-iterator assignments (merged as
    /// the worst case) rather than being the one symbolic iteration.
    enumerated: bool,
}

/// Steps 1–2 of [`analyze_pipeline`]; `None` when inexact.
fn classify<'a>(
    pipe: &'a ForOp,
    outer: &[(String, i64, i64)],
    guarded: bool,
) -> Option<Classified<'a>> {
    let mut dom = Vec::new();
    let mut range = |iv: &str, lb: i64, ub: i64| {
        dom.push(Constraint::ge(
            LinearExpr::var(iv),
            LinearExpr::constant_expr(lb),
        ));
        dom.push(Constraint::le(
            LinearExpr::var(iv),
            LinearExpr::constant_expr(ub),
        ));
    };
    for (iv, lb, ub) in outer {
        range(iv, *lb, *ub);
    }
    if let Some((lb, ub)) = const_range(pipe) {
        range(&pipe.iv, lb, ub);
    }

    let body = Body::compile(pipe, &[]);
    match body.instances(&[]) {
        Ok(insts) => {
            let case = Case::classify(insts, body.arrays.len(), &body.shapes, &dom)?;
            return Some(Classified {
                body,
                cases: vec![case],
                enumerated: false,
            });
        }
        Err(Stop::SymbolicBounds) if !guarded => {}
        Err(_) => return None,
    }

    // Ranges of the iterators a case assignment may pin: the enclosing
    // sequential iterators plus the pipeline's own (all executed in full).
    let mut ranges: HashMap<&str, (i64, i64)> = outer
        .iter()
        .map(|(iv, lb, ub)| (iv.as_str(), (*lb, *ub)))
        .collect();
    if let Some((lb, ub)) = const_range(pipe) {
        ranges.insert(&pipe.iv, (lb, ub));
    }
    let mut inner = Vec::new();
    let mut mentioned = BTreeSet::new();
    bound_vars(&pipe.body, &mut inner, &mut mentioned);
    let case_vars: Vec<&str> = mentioned
        .iter()
        .map(String::as_str)
        .filter(|v| !inner.iter().any(|iv| iv == v))
        .collect();
    let mut cases = 1usize;
    for v in &case_vars {
        let (lb, ub) = ranges.get(v)?;
        let n = ub.checked_sub(*lb)?.checked_add(1)?.max(0) as usize;
        cases = cases.saturating_mul(n);
        if cases == 0 || cases > CASE_CAP {
            return None;
        }
    }

    // One assignment per case, the first iterator varying slowest.
    let mut envs: Vec<Vec<i64>> = vec![Vec::new()];
    for v in &case_vars {
        let (lb, ub) = ranges[v];
        envs = envs
            .into_iter()
            .flat_map(|e| {
                (lb..=ub).map(move |val| {
                    let mut e = e.clone();
                    e.push(val);
                    e
                })
            })
            .collect();
    }
    let ids: Vec<DimId> = case_vars.iter().map(|v| DimId::intern(v)).collect();
    let body = Body::compile(pipe, &ids);
    let cases = envs
        .iter()
        .map(|env| {
            let insts = body.instances(env).ok()?;
            Case::classify(insts, body.arrays.len(), &body.shapes, &dom)
        })
        .collect::<Option<Vec<Case>>>()?;
    Some(Classified {
        body,
        cases,
        enumerated: true,
    })
}

// ---------------------------------------------------------------------
// Profiles (partition-dependent)
// ---------------------------------------------------------------------

/// Per-array access-multiplicity profile of one pipeline iteration.
#[derive(Clone, Debug)]
pub struct BankProfile {
    /// Array name.
    pub array: String,
    /// Total number of banks the array is split into.
    pub banks: u64,
    /// Memory reads per iteration (forwarding- and dedup-aware).
    pub reads: u64,
    /// Write-backs per iteration (last-writer per element).
    pub writes: u64,
    /// Whether the bank-class decomposition below is exact.
    pub exact: bool,
    /// Number of distinct occupied bank classes (when exact).
    pub classes: u64,
    /// Largest per-bank demand, reads + writes (when exact).
    pub max_demand: u64,
    /// Largest per-bank *read* demand (when exact). The simulator's
    /// calendars grant all of an iteration's memory reads at the issue
    /// cycle, so reads alone determine the per-iteration issue slide;
    /// write-backs land at result time and only lengthen the drain.
    pub max_read_demand: u64,
}

/// The bank analysis of one pipelined loop.
#[derive(Clone, Debug, Default)]
pub struct BankAnalysis {
    /// Whether instance enumeration and read/write classification were
    /// exact. When `false`, `profiles` is empty and nothing is claimed.
    pub exact: bool,
    /// One profile per accessed array.
    pub profiles: Vec<BankProfile>,
}

impl BankAnalysis {
    /// An inexact analysis claiming nothing.
    fn inexact() -> Self {
        BankAnalysis::default()
    }

    /// The exact bank-aware ResMII contribution: the largest
    /// `ceil(demand / ports)` over exactly-profiled arrays. `None` when
    /// the analysis has no exact profile to offer.
    pub fn exact_res_mii(&self, ports_per_bank: u64) -> Option<u64> {
        if !self.exact {
            return None;
        }
        self.profiles
            .iter()
            .filter(|p| p.exact)
            .map(|p| p.max_demand.div_ceil(ports_per_bank.max(1)).max(1))
            .max()
    }

    /// True when the loop is provably conflict-free: every array's
    /// per-bank demand fits in one cycle's ports, so the simulator's
    /// calendars never slide a request and the loop sustains any II its
    /// dependences allow. Requires full exactness.
    pub fn conflict_free(&self, ports_per_bank: u64) -> bool {
        self.exact
            && self
                .profiles
                .iter()
                .all(|p| p.exact && p.max_demand <= ports_per_bank.max(1))
    }

    /// The per-iteration issue slide the port calendars impose (`None`
    /// when inexact): the simulator grants every memory read of an
    /// iteration at its issue cycle, so a bank with read demand `d`
    /// pushes the issue `ceil(d / ports) - 1` cycles past the declared
    /// II — on *every* iteration, independent of the II itself.
    pub fn port_slide(&self, ports_per_bank: u64) -> Option<u64> {
        if !self.exact || self.profiles.iter().any(|p| !p.exact) {
            return None;
        }
        Some(
            self.profiles
                .iter()
                .map(|p| {
                    p.max_read_demand
                        .div_ceil(ports_per_bank.max(1))
                        .saturating_sub(1)
                })
                .max()
                .unwrap_or(0),
        )
    }

    /// The smallest II the bank demand admits (`None` when inexact):
    /// `max(1, max_b ceil(demand_b / ports))` over all arrays. A declared
    /// II below this provably incurs port stalls — the POM006 condition.
    /// This is the charitable window model (demand spread over II
    /// cycles); the simulator's cycle-accurate figure is
    /// [`BankAnalysis::port_slide`], which no II absorbs.
    pub fn min_feasible_ii(&self, ports_per_bank: u64) -> Option<u64> {
        if !self.exact || self.profiles.iter().any(|p| !p.exact) {
            return None;
        }
        Some(
            self.profiles
                .iter()
                .map(|p| p.max_demand.div_ceil(ports_per_bank.max(1)))
                .max()
                .unwrap_or(1)
                .max(1),
        )
    }
}

impl Classified<'_> {
    /// Step 3: groups the classified accesses into bank classes under the
    /// partitioning `memrefs` declares.
    fn group(&self, memrefs: &[MemRefDecl]) -> BankAnalysis {
        let profiles = |case: &Case| -> Vec<BankProfile> {
            memrefs
                .iter()
                .filter_map(|m| {
                    let a = self.body.arrays.iter().position(|&n| n == m.name)?;
                    let (reads, writes) = (&case.reads[a], &case.writes[a]);
                    (!reads.is_empty() || !writes.is_empty())
                        .then(|| self.profile(m, case, reads, writes))
                })
                .collect()
        };
        if !self.enumerated {
            return BankAnalysis {
                exact: true,
                profiles: profiles(&self.cases[0]),
            };
        }
        // Every case is executed, so the worst case per array is exact.
        let mut merged: Vec<BankProfile> = Vec::new();
        for p in self.cases.iter().flat_map(profiles) {
            match merged.iter_mut().find(|m| m.array == p.array) {
                Some(m) => {
                    m.exact &= p.exact;
                    if p.max_demand > m.max_demand {
                        m.classes = p.classes;
                    }
                    m.reads = m.reads.max(p.reads);
                    m.writes = m.writes.max(p.writes);
                    m.max_demand = m.max_demand.max(p.max_demand);
                    m.max_read_demand = m.max_read_demand.max(p.max_read_demand);
                }
                None => merged.push(p),
            }
        }
        BankAnalysis {
            exact: true,
            profiles: merged,
        }
    }

    fn profile(&self, m: &MemRefDecl, case: &Case, reads: &[Acc], writes: &[Acc]) -> BankProfile {
        let ab = ArrayBanks::of(m);
        let shapes = &self.body.shapes;
        let reference = reads.first().or(writes.first()).expect("non-empty");
        // Classes are iteration-invariant exactly when every access is
        // congruent (mod factor) to the reference along each cyclic
        // dimension; block mapping is exact only for constant indices.
        // Both depend on the shape alone, so each shape is checked once.
        let classifiable = |shape: usize| {
            let (s, r) = (&shapes.shapes[shape], &shapes.shapes[reference.shape]);
            s.len() == ab.dims.len()
                && ab.dims.iter().enumerate().all(|(d, bd)| {
                    bd.factor <= 1
                        || if bd.cyclic {
                            s[d] == r[d]
                                || congruent_coeffs(
                                    &shapes.lins[s[d]],
                                    &shapes.lins[r[d]],
                                    bd.factor,
                                )
                        } else {
                            shapes.lins[s[d]].is_constant()
                        }
                })
        };
        let mut seen: Vec<usize> = Vec::new();
        // The mixed-radix class key must also fit a `u64`.
        let exact = ab
            .dims
            .iter()
            .try_fold(1u64, |p, bd| p.checked_mul(bd.factor.max(1) as u64))
            .is_some()
            && reads.iter().chain(writes).all(|a| {
                seen.contains(&a.shape) || {
                    seen.push(a.shape);
                    classifiable(a.shape)
                }
            });
        let (mut classes, mut max_demand, mut max_read_demand) = (0, 0, 0);
        if exact {
            // A cyclic key is the residue itself, not its difference from
            // the reference's: shifting every residue by one constant is a
            // bijection, so the class counts are the same.
            let key = |a: &Acc| {
                let consts = &case.consts[a.at..a.at + ab.dims.len()];
                ab.dims.iter().zip(consts).fold(0u64, |key, (bd, &c)| {
                    let c = if bd.cyclic { c } else { c.max(0) };
                    key * bd.factor.max(1) as u64 + bd.bank(c)
                })
            };
            let mut keys: Vec<(u64, bool)> = reads
                .iter()
                .map(|a| (key(a), false))
                .chain(writes.iter().map(|a| (key(a), true)))
                .collect();
            keys.sort_unstable();
            for class in keys.chunk_by(|x, y| x.0 == y.0) {
                let r = class.iter().filter(|k| !k.1).count() as u64;
                classes += 1;
                max_demand = max_demand.max(class.len() as u64);
                max_read_demand = max_read_demand.max(r);
            }
        }
        BankProfile {
            array: m.name.clone(),
            banks: ab.banks(),
            reads: reads.len() as u64,
            writes: writes.len() as u64,
            exact,
            classes,
            max_demand,
            max_read_demand,
        }
    }
}

/// Analyzes one pipelined loop body.
///
/// `pipe` is the pipelined loop; `outer` lists the enclosing sequential
/// iterators with constant bounds `(iv, lb, ub)` — they constrain the
/// aliasing domain and bound the case enumeration below. The pipeline's
/// own iterator is added to the domain when its bounds are constant.
///
/// When an inner loop's bounds mention an enclosing iterator (the
/// non-rectangular tail a split with a non-dividing factor leaves), the
/// per-iteration instance set varies, and the analysis enumerates one
/// *case* per assignment of the mentioned iterators (capped at
/// [`CASE_CAP`]), merging per-bank demand as the maximum over cases.
/// Every assignment within the bounds is executed, so the merged figures
/// stay exact worst-iteration values — unless the pipeline sits under a
/// sequential guard (`guarded`), which may skip assignments; then the
/// analysis claims nothing.
pub fn analyze_pipeline(
    memrefs: &[MemRefDecl],
    pipe: &ForOp,
    outer: &[(String, i64, i64)],
    guarded: bool,
) -> BankAnalysis {
    classify(pipe, outer, guarded).map_or_else(BankAnalysis::inexact, |c| c.group(memrefs))
}

/// Constant bounds of a loop, when both sides are constant.
fn const_range(l: &ForOp) -> Option<(i64, i64)> {
    let env = HashMap::new();
    if !l.lbs.iter().all(|b| b.expr.is_constant()) || !l.ubs.iter().all(|b| b.expr.is_constant()) {
        return None;
    }
    Some((
        l.lbs.iter().map(|b| b.eval_lower(&env)).max()?,
        l.ubs.iter().map(|b| b.eval_upper(&env)).min()?,
    ))
}

/// Collects every iterator mentioned by an in-pipeline loop bound
/// (`mentioned`) and every in-pipeline loop iv (`inner`).
fn bound_vars(ops: &[AffineOp], inner: &mut Vec<String>, mentioned: &mut BTreeSet<String>) {
    for op in ops {
        match op {
            AffineOp::For(l) => {
                for b in l.lbs.iter().chain(l.ubs.iter()) {
                    for v in b.expr.vars() {
                        mentioned.insert(v.to_string());
                    }
                }
                inner.push(l.iv.clone());
                bound_vars(&l.body, inner, mentioned);
            }
            AffineOp::If(i) => bound_vars(&i.body, inner, mentioned),
            AffineOp::Store(_) => {}
        }
    }
}

// ---------------------------------------------------------------------
// Whole-function walk
// ---------------------------------------------------------------------

/// The analysis of one pipelined loop found in a function.
#[derive(Clone, Debug)]
pub struct LoopBankReport {
    /// Induction variable of the pipelined loop.
    pub iv: String,
    /// Statements stored inside the loop body, in program order. Sibling
    /// nests reuse iv names (every stage of a fused image pipeline
    /// pipelines an `i`), so per-loop consumers key on these.
    pub stmts: Vec<String>,
    /// Declared initiation interval (`hls.pipeline_ii`, min 1).
    pub declared_ii: u64,
    /// The bank analysis of the loop body.
    pub analysis: BankAnalysis,
}

/// Analyzes every outermost pipelined loop of `func`. Enclosing
/// sequential loops contribute symbolic free iterators (with constant
/// bounds as domain constraints when available); loops inside a pipeline
/// are fully unrolled into it, mirroring both the estimator and the
/// simulator.
pub fn analyze_func(func: &AffineFunc) -> Vec<LoopBankReport> {
    pipelines(func)
        .into_iter()
        .map(|site| {
            let mut stmts = Vec::new();
            stored_stmts(&site.pipe.body, &mut stmts);
            LoopBankReport {
                iv: site.pipe.iv.clone(),
                stmts,
                declared_ii: site.pipe.attrs.pipeline_ii.unwrap_or(1).max(1) as u64,
                analysis: analyze_pipeline(&func.memrefs, site.pipe, &site.outer, site.guarded),
            }
        })
        .collect()
}

/// One outermost pipelined loop with what [`analyze_pipeline`] needs of
/// its surroundings.
struct PipelineSite<'a> {
    pipe: &'a ForOp,
    /// Enclosing sequential iterators with constant bounds.
    outer: Vec<(String, i64, i64)>,
    /// Whether a sequential-level guard encloses the pipeline.
    guarded: bool,
}

/// The outermost pipelined loops of `func`, in program order.
fn pipelines(func: &AffineFunc) -> Vec<PipelineSite<'_>> {
    let mut out = Vec::new();
    walk(&func.body, &mut Vec::new(), false, &mut out);
    out
}

fn walk<'a>(
    ops: &'a [AffineOp],
    outer: &mut Vec<(String, i64, i64)>,
    guarded: bool,
    out: &mut Vec<PipelineSite<'a>>,
) {
    for op in ops {
        match op {
            AffineOp::For(l) if l.attrs.pipeline_ii.is_some() => out.push(PipelineSite {
                pipe: l,
                outer: outer.clone(),
                guarded,
            }),
            AffineOp::For(l) => {
                let pushed = const_range(l).map(|(lb, ub)| {
                    outer.push((l.iv.clone(), lb, ub));
                });
                walk(&l.body, outer, guarded, out);
                if pushed.is_some() {
                    outer.pop();
                }
            }
            // A sequential-level guard selects whole pipeline executions;
            // it does not make the per-iteration instance set vary, but it
            // may skip outer-iterator cases — remember it.
            AffineOp::If(i) => walk(&i.body, outer, true, out),
            AffineOp::Store(_) => {}
        }
    }
}

/// True when some store under `ops` writes or reads `array`.
fn touches(ops: &[AffineOp], array: &str) -> bool {
    ops.iter().any(|op| match op {
        AffineOp::Store(s) => {
            s.dest.array == array || s.value.loads().iter().any(|a| a.array == array)
        }
        AffineOp::For(l) => touches(&l.body, array),
        AffineOp::If(i) => touches(&i.body, array),
    })
}

/// Statement names stored anywhere under `ops`, in program order.
fn stored_stmts(ops: &[AffineOp], out: &mut Vec<String>) {
    for op in ops {
        match op {
            AffineOp::Store(s) => {
                if !out.contains(&s.stmt) {
                    out.push(s.stmt.clone());
                }
            }
            AffineOp::For(l) => stored_stmts(&l.body, out),
            AffineOp::If(i) => stored_stmts(&i.body, out),
        }
    }
}

// ---------------------------------------------------------------------
// Minimal conflict-free partitioning (DSE repair)
// ---------------------------------------------------------------------

/// Searches the smallest factor vector (by doubling, clamped to the
/// shape) that makes every *exactly analyzed* pipelined loop of `func`
/// conflict-free on `array` — loops the analysis cannot enumerate carry
/// no certificate and are left out of the demand measure. Returns
/// `None` when the array is already conflict-free or no factor
/// assignment helps (e.g. the demand comes from repeated same-bank
/// accesses no split separates).
pub fn minimal_conflict_free_factors(
    func: &AffineFunc,
    array: &str,
    ports_per_bank: u64,
) -> Option<Vec<i64>> {
    // A trial changes nothing but `array`'s declaration, so only its
    // profiles are regrouped, and only in the loops that touch it (a loop
    // that never does has no profile for it under any partitioning).
    // Classification does not depend on the partitioning: once per loop.
    let mut cur: Vec<MemRefDecl> = func
        .memrefs
        .iter()
        .filter(|m| m.name == array)
        .cloned()
        .collect();
    if cur.is_empty() {
        return None;
    }
    let loops: Vec<Classified> = pipelines(func)
        .into_iter()
        .filter(|site| touches(&site.pipe.body, array))
        .filter_map(|site| classify(site.pipe, &site.outer, site.guarded))
        .collect();
    let worst = |memrefs: &[MemRefDecl]| -> u64 {
        loops
            .iter()
            .flat_map(|l| l.group(memrefs).profiles)
            .filter(|p| p.exact)
            .map(|p| p.max_demand)
            .max()
            .unwrap_or(0)
    };
    let mut demand = worst(&cur);
    if demand <= ports_per_bank.max(1) {
        return None; // already conflict-free: nothing to repair
    }
    loop {
        // Try doubling each dimension's factor; keep the best reducer.
        let shape = cur[0].shape.clone();
        let base: Vec<i64> = match &cur[0].partition {
            Some(p) => p.factors.clone(),
            None => vec![1; shape.len()],
        };
        let mut best: Option<(u64, Vec<i64>)> = None;
        for d in 0..shape.len() {
            let cap = shape[d].max(1) as i64;
            let f = (base[d].max(1) * 2).min(cap);
            if f <= base[d].max(1) {
                continue;
            }
            let mut factors = base.clone();
            factors[d] = f;
            let kept = cur[0].partition.clone();
            set_partition(&mut cur[0], &factors);
            let w = worst(&cur);
            cur[0].partition = kept;
            if best.as_ref().is_none_or(|(bw, _)| w < *bw) {
                best = Some((w, factors));
            }
        }
        let (w, factors) = best?;
        if w >= demand {
            return None; // no dimension split reduces the demand
        }
        set_partition(&mut cur[0], &factors);
        demand = w;
        if demand <= ports_per_bank.max(1) {
            return Some(factors);
        }
    }
}

fn set_partition(m: &mut MemRefDecl, factors: &[i64]) {
    let style = m
        .partition
        .as_ref()
        .map_or(PartitionStyle::Cyclic, |p| p.style);
    m.partition = Some(pom_ir::PartitionInfo {
        factors: factors.to_vec(),
        style,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use pom_dsl::{DataType, Expr};
    use pom_ir::{HlsAttrs, PartitionInfo, StoreOp};
    use pom_poly::{AccessFn, Bound};

    fn cb(v: i64) -> Bound {
        Bound::new(LinearExpr::constant_expr(v), 1)
    }

    fn load(array: &str, idx: Vec<LinearExpr>) -> Expr {
        Expr::Load(AccessFn::new(array, idx))
    }

    fn store(dest: &str, idx: Vec<LinearExpr>, value: Expr) -> AffineOp {
        AffineOp::Store(StoreOp {
            stmt: "S".into(),
            dest: AccessFn::new(dest, idx),
            value,
        })
    }

    fn pipe_loop(iv: &str, n: i64, ii: i64, body: Vec<AffineOp>) -> ForOp {
        ForOp {
            iv: iv.into(),
            lbs: vec![cb(0)],
            ubs: vec![cb(n - 1)],
            attrs: HlsAttrs {
                pipeline_ii: Some(ii),
                ..Default::default()
            },
            extra: Vec::new(),
            body,
        }
    }

    fn memref(name: &str, shape: &[usize], factors: Option<&[i64]>) -> MemRefDecl {
        let mut m = MemRefDecl::new(name, shape, DataType::F32);
        if let Some(f) = factors {
            m.partition = Some(PartitionInfo {
                factors: f.to_vec(),
                style: pom_dsl::PartitionStyle::Cyclic,
            });
        }
        m
    }

    #[test]
    fn bank_mapping_matches_cyclic_and_block_semantics() {
        let mut m = memref("a", &[8], Some(&[4]));
        let ab = ArrayBanks::of(&m);
        assert_eq!(ab.banks(), 4);
        assert_eq!(ab.bank_of_flat(5), 1);
        assert_eq!(ab.bank_of_flat(7), 3);
        m.partition.as_mut().unwrap().style = pom_dsl::PartitionStyle::Block;
        let ab = ArrayBanks::of(&m);
        assert_eq!(ab.bank_of_flat(0), 0);
        assert_eq!(ab.bank_of_flat(1), 0);
        assert_eq!(ab.bank_of_flat(7), 3);
        // Mixed-radix combine over two dimensions.
        let m = memref("b", &[4, 4], Some(&[2, 2]));
        let ab = ArrayBanks::of(&m);
        assert_eq!(ab.banks(), 4);
        // element (1, 3): bank = (1 % 2) * 2 + (3 % 2) = 3.
        assert_eq!(ab.bank_of_flat(7), 3);
    }

    #[test]
    fn stencil_window_collides_in_one_bank_without_partitioning() {
        // b[i] = a[i] + a[i+1] + a[i+2], a unpartitioned: three reads,
        // one bank, demand 3.
        let v = LinearExpr::var("i");
        let body = load("a", vec![v.clone()])
            + load("a", vec![v.clone() + 1])
            + load("a", vec![v.clone() + 2]);
        let l = pipe_loop("i", 16, 1, vec![store("b", vec![v.clone()], body)]);
        let mem = vec![memref("a", &[32], None), memref("b", &[32], None)];
        let an = analyze_pipeline(&mem, &l, &[], false);
        assert!(an.exact);
        let a = an.profiles.iter().find(|p| p.array == "a").unwrap();
        assert!(a.exact);
        assert_eq!((a.reads, a.writes, a.max_demand), (3, 0, 3));
        assert_eq!(an.exact_res_mii(2), Some(2));
        assert!(!an.conflict_free(2));
        assert_eq!(an.min_feasible_ii(2), Some(2));
    }

    #[test]
    fn cyclic_partition_separates_the_window() {
        // Same stencil, a partitioned cyclic factor 3: the three reads
        // land in distinct residue classes, demand 1 each.
        let v = LinearExpr::var("i");
        let body = load("a", vec![v.clone()])
            + load("a", vec![v.clone() + 1])
            + load("a", vec![v.clone() + 2]);
        let l = pipe_loop("i", 16, 1, vec![store("b", vec![v.clone()], body)]);
        let mem = vec![memref("a", &[32], Some(&[3])), memref("b", &[32], None)];
        let an = analyze_pipeline(&mem, &l, &[], false);
        let a = an.profiles.iter().find(|p| p.array == "a").unwrap();
        assert_eq!((a.classes, a.max_demand), (3, 1));
        assert!(an.conflict_free(2));
        assert_eq!(an.min_feasible_ii(2), Some(1));
    }

    #[test]
    fn forwarded_reads_and_dead_writes_cost_no_ports() {
        // acc[0] read+written by 4 unrolled instances: first read comes
        // from memory, the rest are forwarded; only the last write lands.
        let acc = || vec![LinearExpr::zero()];
        let inner = ForOp {
            iv: "k".into(),
            lbs: vec![cb(0)],
            ubs: vec![cb(3)],
            attrs: HlsAttrs::default(),
            extra: Vec::new(),
            body: vec![store(
                "acc",
                acc(),
                load("acc", acc()) + load("x", vec![LinearExpr::var("k")]),
            )],
        };
        let l = pipe_loop("i", 16, 1, vec![AffineOp::For(inner)]);
        let mem = vec![memref("acc", &[1], None), memref("x", &[4], Some(&[4]))];
        let an = analyze_pipeline(&mem, &l, &[], false);
        assert!(an.exact);
        let a = an.profiles.iter().find(|p| p.array == "acc").unwrap();
        assert_eq!((a.reads, a.writes, a.max_demand), (1, 1, 2));
        let x = an.profiles.iter().find(|p| p.array == "x").unwrap();
        assert_eq!((x.reads, x.max_demand), (4, 1));
        assert!(an.conflict_free(2));
    }

    #[test]
    fn an_unknown_pair_counts_only_when_met_before_the_same_match() {
        // A load is compared with the earlier writes, then with the
        // earlier memory reads, and the scan stops at the first `Same`.
        // `a[i]` against `a[i]` is `Same`; against `a[2i]` it is `Unknown`
        // (equal at i = 0 only). Which of the two the first store writes
        // decides whether the second store's load of `a[i]` meets the
        // `Unknown` pair at all.
        let i = || LinearExpr::var("i");
        let analyze = |written: LinearExpr, read: LinearExpr| {
            let l = pipe_loop(
                "i",
                4,
                1,
                vec![
                    store("a", vec![written], load("a", vec![read])),
                    store("b", vec![i()], load("a", vec![i()])),
                ],
            );
            let mem = vec![memref("a", &[8], None), memref("b", &[4], None)];
            analyze_pipeline(&mem, &l, &[], false)
        };
        // `Same` first: forwarded from the write, `a[2i]` never consulted.
        let an = analyze(i(), i() * 2);
        assert!(an.exact);
        let a = an.profiles.iter().find(|p| p.array == "a").unwrap();
        assert_eq!((a.reads, a.writes), (1, 1));
        // `Unknown` first: the matching earlier read is right behind it,
        // and the loop is inexact all the same.
        assert!(!analyze(i() * 2, i()).exact);
    }

    #[test]
    fn guards_and_symbolic_inner_bounds_degrade_to_inexact() {
        let v = LinearExpr::var("i");
        let guarded = AffineOp::If(pom_ir::IfOp {
            conds: vec![Constraint::ge(v.clone(), LinearExpr::zero())],
            body: vec![store("b", vec![v.clone()], load("a", vec![v.clone()]))],
        });
        let l = pipe_loop("i", 16, 1, vec![guarded]);
        let mem = vec![memref("a", &[32], None), memref("b", &[32], None)];
        let an = analyze_pipeline(&mem, &l, &[], false);
        assert!(!an.exact);
        assert!(!an.conflict_free(2));
        assert_eq!(an.exact_res_mii(2), None);
    }

    #[test]
    fn congruence_failure_marks_only_that_array_inexact() {
        // a[2i+1] and a[i] never alias over i in [0, 3] (their difference
        // i+1 is strictly positive), but coefficients 2 and 1 are not
        // congruent mod 2 — the class decomposition for `a` is not
        // iteration-invariant.
        let v = LinearExpr::var("i");
        let body = load("a", vec![v.clone() * 2 + 1]) + load("a", vec![v.clone()]);
        let l = pipe_loop("i", 4, 1, vec![store("b", vec![v.clone()], body)]);
        let mem = vec![memref("a", &[32], Some(&[2])), memref("b", &[32], None)];
        let an = analyze_pipeline(&mem, &l, &[], false);
        assert!(an.exact);
        let a = an.profiles.iter().find(|p| p.array == "a").unwrap();
        assert!(!a.exact);
        let b = an.profiles.iter().find(|p| p.array == "b").unwrap();
        assert!(b.exact);
        assert!(!an.conflict_free(2));
        assert_eq!(an.min_feasible_ii(2), None);
    }

    #[test]
    fn analyze_func_walks_nests_and_reports_declared_ii() {
        // for j (seq) { for i (pipe II=1) { b[j][i] = a[j][i] + a[j][i+1] } }
        let (i, j) = (LinearExpr::var("i"), LinearExpr::var("j"));
        let body =
            load("a", vec![j.clone(), i.clone()]) + load("a", vec![j.clone(), i.clone() + 1]);
        let pipe = pipe_loop(
            "i",
            8,
            1,
            vec![store("b", vec![j.clone(), i.clone()], body)],
        );
        let outer = ForOp {
            iv: "j".into(),
            lbs: vec![cb(0)],
            ubs: vec![cb(7)],
            attrs: HlsAttrs::default(),
            extra: Vec::new(),
            body: vec![AffineOp::For(pipe)],
        };
        let mut f = AffineFunc::new("st");
        f.memrefs.push(memref("a", &[8, 16], Some(&[1, 2])));
        f.memrefs.push(memref("b", &[8, 16], None));
        f.body.push(AffineOp::For(outer));
        let reps = analyze_func(&f);
        assert_eq!(reps.len(), 1);
        assert_eq!(reps[0].iv, "i");
        assert_eq!(reps[0].declared_ii, 1);
        let a = reps[0]
            .analysis
            .profiles
            .iter()
            .find(|p| p.array == "a")
            .unwrap();
        // i and i+1 fall in distinct classes mod 2.
        assert_eq!((a.classes, a.max_demand), (2, 1));
        assert!(reps[0].analysis.conflict_free(2));
    }

    #[test]
    fn repair_finds_minimal_conflict_free_factor() {
        // b[i] = a[i] + a[i+1] + a[i+2] + a[i+3], ports = 2: factor 2
        // (demand 2) is the minimal conflict-free cyclic split.
        let v = LinearExpr::var("i");
        let body = load("a", vec![v.clone()])
            + load("a", vec![v.clone() + 1])
            + load("a", vec![v.clone() + 2])
            + load("a", vec![v.clone() + 3]);
        let l = pipe_loop("i", 16, 1, vec![store("b", vec![v.clone()], body)]);
        let mut f = AffineFunc::new("st");
        f.memrefs.push(memref("a", &[32], None));
        f.memrefs.push(memref("b", &[32], None));
        f.body.push(AffineOp::For(l));
        assert_eq!(minimal_conflict_free_factors(&f, "a", 2), Some(vec![2]));
        assert_eq!(minimal_conflict_free_factors(&f, "a", 1), Some(vec![4]));
        // b has demand 1: already conflict-free, nothing to repair.
        assert_eq!(minimal_conflict_free_factors(&f, "b", 2), None);
        // acc-style same-element demand is not separable by splitting.
        let acc = || vec![LinearExpr::zero()];
        let l2 = pipe_loop(
            "i",
            16,
            1,
            vec![
                store("c", acc(), load("c", acc()) + load("a", vec![v.clone()])),
                store("c", vec![LinearExpr::zero() + 0], load("c", acc())),
            ],
        );
        let mut g = AffineFunc::new("acc");
        g.memrefs.push(memref("a", &[32], None));
        g.memrefs.push(memref("c", &[1], None));
        g.body.push(AffineOp::For(l2));
        assert_eq!(minimal_conflict_free_factors(&g, "c", 1), None);
    }

    fn unrolled(iv: &str, lb: i64, ubs: Vec<Bound>, body: Vec<AffineOp>) -> AffineOp {
        AffineOp::For(ForOp {
            iv: iv.into(),
            lbs: vec![cb(lb)],
            ubs,
            attrs: HlsAttrs::default(),
            extra: Vec::new(),
            body,
        })
    }

    #[test]
    fn index_constants_near_i64_max_never_panic() {
        // a[c*k + i] with k unrolled over 0..=2: the k = 2 copy overflows
        // i64, so the loop claims nothing.
        let (i, k) = (LinearExpr::var("i"), LinearExpr::var("k"));
        let c = i64::MAX / 2 + 1;
        let body = vec![store(
            "b",
            vec![i.clone()],
            load("a", vec![k * c + i.clone()]),
        )];
        let l = pipe_loop("i", 4, 1, vec![unrolled("k", 0, vec![cb(2)], body)]);
        let mem = vec![memref("a", &[8], Some(&[3])), memref("b", &[4], None)];
        assert!(!analyze_pipeline(&mem, &l, &[], false).exact);
        // a[i - 2] beside a[i + MAX - 1]: the constants' difference
        // overflows, their classes mod 3 (1 and 0) do not.
        let body = load("a", vec![i.clone() - 2]) + load("a", vec![i.clone() + (i64::MAX - 1)]);
        let l = pipe_loop("i", 4, 1, vec![store("b", vec![i.clone()], body)]);
        let an = analyze_pipeline(&mem, &l, &[], false);
        let a = an.profiles.iter().find(|p| p.array == "a").unwrap();
        assert!(an.exact && a.exact);
        assert_eq!((a.reads, a.classes, a.max_demand), (2, 2, 1));
    }

    #[test]
    fn mixed_shapes_fall_back_to_the_ordered_scan_and_fm() {
        // Loads a[i+8], a[2i], a[i+7]: once a[2i] joins the memory reads
        // they no longer share one shape, so a[i+7] is scanned in order.
        // It differs from a[i+8] by a constant, and FM decides the pair
        // with a[2i]: equal at i = 7 only.
        let i = || LinearExpr::var("i");
        let analyze = |n: i64| {
            let body =
                load("a", vec![i() + 8]) + load("a", vec![i() * 2]) + load("a", vec![i() + 7]);
            let l = pipe_loop("i", n, 1, vec![store("b", vec![i()], body)]);
            let mem = vec![memref("a", &[32], None), memref("b", &[8], None)];
            analyze_pipeline(&mem, &l, &[], false)
        };
        // i in [0, 6]: every pair is `Never`, three memory reads.
        let an = analyze(7);
        let a = an.profiles.iter().find(|p| p.array == "a").unwrap();
        assert!(an.exact);
        assert_eq!((a.reads, a.max_demand), (3, 3));
        // i in [0, 7]: a[i+7] may be a[2i]; a hashed lookup would have
        // missed it.
        assert!(!analyze(8).exact);
    }

    #[test]
    fn one_site_compiled_under_two_case_prefixes() {
        // for io (pipe, 0..=2) { for ii in 0..=min(3, 9 - 4*io) {
        //   b[4io + ii] = a[4io + ii] + c[io] } }
        // The tail bound mentions io, so the body is compiled first with
        // no prefix (c[io] symbolic; enumeration stops at the bound) and
        // then under the case prefix io, where each site folds io away:
        // c[io] becomes a constant, which its block partition requires.
        let (io, ii) = (LinearExpr::var("io"), LinearExpr::var("ii"));
        let idx = io.clone() * 4 + ii.clone();
        let tail = Bound::new(LinearExpr::constant_expr(9) - io.clone() * 4, 1);
        let body = vec![store(
            "b",
            vec![idx.clone()],
            load("a", vec![idx.clone()]) + load("c", vec![io.clone()]),
        )];
        let l = pipe_loop("io", 3, 1, vec![unrolled("ii", 0, vec![cb(3), tail], body)]);
        let mut c = memref("c", &[3], Some(&[3]));
        c.partition.as_mut().unwrap().style = pom_dsl::PartitionStyle::Block;
        let mem = vec![memref("a", &[12], Some(&[2])), memref("b", &[12], None), c];
        let an = analyze_pipeline(&mem, &l, &[], false);
        assert!(an.exact);
        let p = |name: &str| an.profiles.iter().find(|p| p.array == name).unwrap();
        // Cases io = 0, 1 read four elements of a (two per bank), io = 2
        // reads two: the merge keeps the worst case.
        assert_eq!((p("a").reads, p("a").classes, p("a").max_demand), (4, 2, 2));
        // c[io] is read once per case (four times per instance set, deduped).
        assert!(p("c").exact);
        assert_eq!((p("c").reads, p("c").classes, p("c").max_demand), (1, 1, 1));
        assert_eq!((p("b").writes, p("b").max_demand), (4, 4));
    }

    #[test]
    fn write_backs_with_mixed_later_shapes_scan_in_order() {
        // Stores a[i+8], a[2i], a[i+8]. The first store's later writes
        // have two shapes, so it scans them in order: a[2i] first (FM),
        // then the `Same` a[i+8] that makes it dead.
        let i = || LinearExpr::var("i");
        let analyze = |n: i64| {
            let x = || load("x", vec![i()]);
            let l = pipe_loop(
                "i",
                n,
                1,
                vec![
                    store("a", vec![i() + 8], x()),
                    store("a", vec![i() * 2], x()),
                    store("a", vec![i() + 8], x()),
                ],
            );
            let mem = vec![memref("a", &[32], None), memref("x", &[16], None)];
            analyze_pipeline(&mem, &l, &[], false)
        };
        // i in [0, 6]: a[2i] never meets a[i+8]; two write-backs.
        let an = analyze(7);
        let a = an.profiles.iter().find(|p| p.array == "a").unwrap();
        assert!(an.exact);
        assert_eq!((a.writes, a.max_demand), (2, 2));
        // i in [0, 8]: they meet at i = 8, before the `Same`.
        assert!(!analyze(9).exact);
    }

    #[test]
    fn bank_of_flat_agrees_with_bank_of_coords_at_every_rank() {
        const SIZES: [usize; 10] = [2, 3, 1, 2, 3, 1, 2, 3, 1, 2];
        for rank in 1..=10 {
            let shape = &SIZES[..rank];
            let factors: Vec<i64> = (0..rank).map(|d| d as i64 % 3 + 1).collect();
            for style in [
                pom_dsl::PartitionStyle::Cyclic,
                pom_dsl::PartitionStyle::Block,
            ] {
                // Full factor vectors and one that maps only the first
                // dimension.
                for f in [&factors[..], &factors[..1]] {
                    let mut m = memref("t", shape, Some(f));
                    m.partition.as_mut().unwrap().style = style;
                    let ab = ArrayBanks::of(&m);
                    for flat in 0..shape.iter().product::<usize>() {
                        let mut coords = vec![0i64; rank];
                        let mut rem = flat;
                        for d in (0..rank).rev() {
                            coords[d] = (rem % shape[d]) as i64;
                            rem /= shape[d];
                        }
                        assert_eq!(ab.bank_of_flat(flat), ab.bank_of_coords(&coords));
                    }
                }
            }
        }
    }
}
