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
//!    access instance is a shape id plus one `i64` per dimension. Where
//!    inner bounds mention enclosing iterators (a split tail), those are
//!    pinned too, one *case* per assignment, and the body is compiled
//!    under that case prefix.
//! 2. Accesses are classified exactly as the simulator's `time_iteration`
//!    does: a load forwarded from an earlier same-iteration store costs no
//!    port, repeated reads of one element cost one port, and only the last
//!    writer of an element writes back. Two accesses of one shape alias
//!    exactly when their constants agree, which a hashed lookup answers;
//!    the remaining aliasing questions go to Fourier–Motzkin feasibility
//!    over the free iterators' domain — `false` answers are proofs. Cases
//!    whose inner loops take the same bounds are classified once: where
//!    every access of an array moves by the same amount from one case to
//!    the next and constants decided every verdict, the other cases reuse
//!    the first's classification with their constants shifted.
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
//! One iteration's profile does not see a write-back that lands while a
//! later iteration reads: the simulator grants it at its result cycle.
//! Given a [`Timing`] (when each statement's write lands, which loops
//! flatten into the pipeline), step 4 places those write-backs:
//!
//! 4. For an array both read and written back, and a candidate II, every
//!    cycle offset `o` in `[0, II)` of the modulo schedule counts, per
//!    bank, the issuing iteration's reads (offset 0) plus every write-back
//!    landing on `o`: statement `s`, landing `r_s` cycles after its
//!    iteration issues, writes back on `o = r_s mod II` the elements of
//!    the iteration `⌊r_s / II⌋` earlier — the pipeline iterator's (and a
//!    flattened outer loop's) coefficients shift its residues, and a case
//!    iterator of that earlier iteration takes its own value
//!    ([`InFlight`]).
//!
//! From the profile follow a conflict-freedom predicate backing POM006
//! certificates ([`BankAnalysis::conflict_free`]), the least II the ports
//! admit ([`BankAnalysis::feasible_ii`]), and a minimal conflict-free
//! partition search for DSE repair ([`minimal_conflict_free_factors`]).
//!
//! Whenever the structure is not analyzable — guards inside the pipeline
//! body, non-constant inner-loop bounds, undecidable aliasing, index
//! constants that overflow `i64`, or more than [`INSTANCE_CAP`]
//! instances — the analysis degrades to *inexact* and claims nothing, so
//! every exact verdict it does emit is sound.

#![warn(missing_docs)]

use pom_dsl::PartitionStyle;
use pom_ir::{AffineFunc, AffineOp, ForOp, MemRefDecl, StoreOp};
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

/// When a pipeline's write-backs take their ports — what placing them in
/// flight needs of the latency model, which lives above this crate.
pub trait Timing {
    /// Cycles from an iteration's issue to the cycle the store `s` writes
    /// its result back, when none of the iteration's reads slid.
    fn landing(&self, s: &StoreOp) -> u64;
    /// Whether the loop of iterator `iv` carries a dependence; such a loop
    /// is not flattened into a pipeline it encloses.
    fn carried(&self, iv: &str) -> bool;
    /// The ports each bank grants per cycle.
    fn ports_per_bank(&self) -> u64;
}

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
    /// A store; its write-back lands `landing` cycles after the issue.
    Store {
        loads: Vec<Site>,
        dest: Site,
        landing: u64,
    },
    /// An in-pipeline loop, unrolled into `slot`. `bounds` (lower, upper;
    /// each with its divisor) is `None` when a bound mentions a free
    /// iterator or a side has no bound; `cased` when a bound mentions a
    /// case iterator.
    For {
        slot: usize,
        bounds: Option<[Vec<(Pinned, i64)>; 2]>,
        cased: bool,
        body: Vec<Op>,
    },
    /// A guard inside the pipeline: the instance set varies per iteration.
    If,
}

/// Calls `f` on every site under `ops`, in program order.
fn each_site<'o>(ops: &'o [Op], f: &mut impl FnMut(&'o Site)) {
    for op in ops {
        match op {
            Op::Store { loads, dest, .. } => loads.iter().chain([dest]).for_each(&mut *f),
            Op::For { body, .. } => each_site(body, f),
            Op::If => {}
        }
    }
}

/// A pipelined body compiled against a prefix of pinned case iterators.
struct Body<'a> {
    ops: Vec<Op>,
    /// Pinned slots: the case prefix plus the deepest in-pipeline nest.
    slots: usize,
    /// Length of the case prefix: slots `0..cases`.
    cases: usize,
    /// Accessed array names; a site's `array` indexes this.
    arrays: Vec<&'a str>,
    shapes: Shapes,
}

impl<'a> Body<'a> {
    fn compile(pipe: &'a ForOp, cases: &[DimId], timing: Option<&dyn Timing>) -> Self {
        let mut body = Body {
            ops: Vec::new(),
            slots: cases.len(),
            cases: cases.len(),
            arrays: Vec::new(),
            shapes: Shapes::default(),
        };
        body.ops = body.compile_ops(&pipe.body, &mut cases.to_vec(), timing);
        body
    }

    fn compile_ops(
        &mut self,
        ops: &'a [AffineOp],
        stack: &mut Vec<DimId>,
        timing: Option<&dyn Timing>,
    ) -> Vec<Op> {
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
                    landing: timing.map_or(0, |t| t.landing(s)),
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
                    let cased = bounds
                        .iter()
                        .flatten()
                        .flatten()
                        .any(|(p, _)| p.terms.iter().any(|&(slot, _)| slot < self.cases));
                    let slot = stack.len();
                    stack.push(DimId::intern(&l.iv));
                    self.slots = self.slots.max(stack.len());
                    let body = self.compile_ops(&l.body, stack, timing);
                    stack.pop();
                    Op::For {
                        slot,
                        bounds,
                        cased,
                        body,
                    }
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
        insts.collect(&self.ops, &mut vals, false)?;
        Ok(insts)
    }

    /// What enumerating the body with its case iterators left symbolic
    /// meets first: `SymbolicBounds` at the first loop a case iterator
    /// bounds, `Ok` when no such loop is reached. With the case slots at
    /// zero every other bound and index evaluates as it would compiled
    /// without the prefix, overflow included (a zero term leaves every
    /// partial sum as it was), so this is that compile's outcome.
    fn probe(&self) -> Result<(), Stop> {
        let mut vals = vec![0; self.slots];
        Insts::default().collect(&self.ops, &mut vals, true)
    }

    /// The loop skeleton of the iteration whose case iterators take
    /// `case`: the bounds of every in-pipeline loop it visits, in visit
    /// order (an empty range as `(1, 0)`), and per slot the largest
    /// magnitude its iterator takes. Two cases with one skeleton enumerate
    /// the same sites in the same order with the same unrolled values.
    /// `None` where enumerating the case fails: a guard, a symbolic or
    /// overflowing bound, or more than [`INSTANCE_CAP`] stores.
    fn skeleton(&self, case: &[i64]) -> Option<(Vec<i64>, Vec<u64>)> {
        let mut vals = vec![0; self.slots];
        vals[..case.len()].copy_from_slice(case);
        let mut reach = vec![0; self.slots];
        for (r, v) in reach.iter_mut().zip(case) {
            *r = v.unsigned_abs();
        }
        let (mut key, mut stores) = (Vec::new(), 0);
        walk_loops(&self.ops, &mut vals, &mut key, &mut reach, &mut stores)?;
        Some((key, reach))
    }

    /// Per array, each dimension's coefficients on the case slots
    /// (`dims × cases`, row-major), when every site of the array carries
    /// the same ones; `None` when some array's sites disagree.
    fn case_coeffs(&self) -> Option<Vec<Vec<i64>>> {
        let mut coeffs: Vec<Option<Vec<i64>>> = vec![None; self.arrays.len()];
        let mut uniform = true;
        each_site(&self.ops, &mut |s| {
            let mut row = vec![0; s.idx.len() * self.cases];
            for (d, p) in s.idx.iter().enumerate() {
                for &(slot, c) in p.terms.iter().filter(|t| t.0 < self.cases) {
                    row[d * self.cases + slot] = c;
                }
            }
            match &coeffs[s.array] {
                None => coeffs[s.array] = Some(row),
                Some(r) => uniform &= *r == row,
            }
        });
        uniform.then(|| coeffs.into_iter().map(Option::unwrap_or_default).collect())
    }

    /// Whether no index form can leave `i64` while each slot's value
    /// stays within `reach` in magnitude: `|base| + Σ |coeff| · reach`,
    /// in `i128`, bounds every partial sum the checked evaluation forms.
    fn fits(&self, reach: &[u64]) -> bool {
        let mut fits = true;
        each_site(&self.ops, &mut |s| {
            fits &= s.idx.iter().all(|p| {
                p.terms
                    .iter()
                    .try_fold(i128::from(p.base).abs(), |acc, &(slot, c)| {
                        acc.checked_add(i128::from(c).checked_mul(i128::from(reach[slot]))?.abs())
                    })
                    .is_some_and(|b| b <= i128::from(i64::MAX))
            });
        });
        fits
    }
}

/// The loop walk of [`Body::skeleton`]; `stores` counts the stores
/// visited, so a walk that enumeration would stop at the cap stops too.
fn walk_loops(
    ops: &[Op],
    vals: &mut [i64],
    key: &mut Vec<i64>,
    reach: &mut [u64],
    stores: &mut usize,
) -> Option<()> {
    for op in ops {
        match op {
            Op::Store { .. } => {
                *stores += 1;
                if *stores > INSTANCE_CAP {
                    return None;
                }
            }
            Op::If | Op::For { bounds: None, .. } => return None,
            Op::For {
                slot,
                bounds: Some([lbs, ubs]),
                body,
                ..
            } => {
                let (lb, ub) = (bound(lbs, vals, true)?, bound(ubs, vals, false)?);
                if lb > ub {
                    key.extend([1, 0]);
                    continue;
                }
                key.extend([lb, ub]);
                reach[*slot] = reach[*slot].max(lb.unsigned_abs()).max(ub.unsigned_abs());
                for v in lb..=ub {
                    vals[*slot] = v;
                    walk_loops(body, vals, key, reach, stores)?;
                }
            }
        }
    }
    Some(())
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
    /// Store `i`'s write-back lands `landings[i]` cycles after the issue.
    landings: Vec<u64>,
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

    /// Enumerates `ops` under `vals`; a `probe` stops with
    /// `SymbolicBounds` at the first loop a case iterator bounds.
    fn collect(&mut self, ops: &[Op], vals: &mut [i64], probe: bool) -> Result<(), Stop> {
        for op in ops {
            match op {
                Op::Store {
                    loads,
                    dest,
                    landing,
                } => {
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
                    self.landings.push(*landing);
                }
                Op::If => return Err(Stop::Inexact),
                Op::For { bounds: None, .. } => return Err(Stop::SymbolicBounds),
                Op::For { cased: true, .. } if probe => return Err(Stop::SymbolicBounds),
                Op::For {
                    slot,
                    bounds: Some([lbs, ubs]),
                    body,
                    ..
                } => {
                    let (Some(lb), Some(ub)) = (bound(lbs, vals, true), bound(ubs, vals, false))
                    else {
                        return Err(Stop::Inexact);
                    };
                    for v in lb..=ub {
                        vals[*slot] = v;
                        self.collect(body, vals, probe)?;
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
            if diff.add_scaled(&self.shapes.lins[lb[d]], -1).is_err() {
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
    /// The case assignment this iteration was classified under (an index
    /// into [`Classified::envs`]).
    env: usize,
    consts: Vec<i64>,
    reads: Vec<Vec<Acc>>,
    writes: Vec<Vec<Acc>>,
    /// Per array, when each write-back lands after the issue (parallel to
    /// `writes`).
    landings: Vec<Vec<u64>>,
    /// Whether a load takes its value from an earlier store of the same
    /// iteration: the simulator then times that store's result from the
    /// forwarded value, not from a read.
    forwarded: bool,
}

impl Case {
    /// Classifies `insts` with the simulator's rules, and tells whether
    /// that asked Fourier–Motzkin anything; `None` when some aliasing
    /// question the rules pose is undecidable.
    fn classify(
        insts: Insts,
        env: usize,
        arrays: usize,
        shapes: &Shapes,
        domain: &[Constraint],
    ) -> Option<(Case, bool)> {
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
        let (mut start, mut forwarded) = (0, false);
        for (&dest, &end) in insts.dests.iter().zip(&insts.load_ends) {
            'load: for &q in &insts.loads[start..end] {
                for (from_store, earlier) in [(true, &written[q.array]), (false, &read[q.array])] {
                    match earlier.find(q, &cx, &mut fm_budget) {
                        Alias::Same => {
                            forwarded |= from_store;
                            continue 'load;
                        }
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
        let (mut writes, mut landings) = (vec![Vec::new(); arrays], vec![Vec::new(); arrays]);
        for (i, &d) in insts.dests.iter().enumerate() {
            let verdict = fast[i].unwrap_or_else(|| {
                let rest = insts.dests[i + 1..].iter().copied();
                cx.scan(d, rest.filter(|l| l.array == d.array), &mut fm_budget)
            });
            match verdict {
                Alias::Same => {}
                Alias::Never => {
                    writes[d.array].push(d);
                    landings[d.array].push(insts.landings[i]);
                }
                Alias::Unknown => return None,
            }
        }
        let case = Case {
            env,
            reads: read.into_iter().map(|b| b.entries).collect(),
            writes,
            landings,
            forwarded,
            consts: insts.consts,
        };
        Some((case, fm_budget < FM_BUDGET))
    }
}

/// The partition-independent half of one pipeline's analysis: the
/// compiled body and the classified accesses of each iteration case.
struct Classified<'a> {
    body: Body<'a>,
    /// The case iterators' values of each case, in enumeration order (one
    /// empty assignment for the symbolic iteration).
    envs: Vec<Vec<i64>>,
    /// The classified iterations.
    cases: Vec<Case>,
    /// Case `i` classifies as `cases[of[i]]`; when that iteration was
    /// classified under another assignment, with each array's constants
    /// shifted by the case iterators' change times `coeffs`.
    of: Vec<usize>,
    /// [`Body::case_coeffs`]; empty where no case is shared.
    coeffs: Vec<Vec<i64>>,
    /// Whether `envs` enumerate outer-iterator assignments (merged as the
    /// worst case) rather than being the one symbolic iteration.
    enumerated: bool,
    /// The case iterators, in the order each of `envs` gives their values
    /// (empty for the symbolic iteration).
    vars: Vec<DimId>,
    /// The pipeline's declared II.
    ii: u64,
    /// Given a [`Timing`]: the pipeline's region and the ports per bank.
    region: Option<(Region, u64)>,
}

/// The iterators of a pipeline's region — the loops flattened into it,
/// outermost first, then its own — with their constant ranges.
type Region = Vec<(DimId, Option<(i64, i64)>)>;

/// Candidate earlier iterations: the assignment each is classified under
/// and how far each free region iterator moved.
type Earlier = Vec<(usize, Vec<i64>)>;

impl<'a> Classified<'a> {
    /// The one symbolic iteration of `body`, compiled without a prefix.
    fn symbolic(body: Body<'a>, domain: &[Constraint]) -> Option<Self> {
        let insts = body.instances(&[]).ok()?;
        let (case, _) = Case::classify(insts, 0, body.arrays.len(), &body.shapes, domain)?;
        Some(Classified {
            body,
            envs: vec![Vec::new()],
            cases: vec![case],
            of: vec![0],
            coeffs: Vec::new(),
            enumerated: false,
            vars: Vec::new(),
            ii: 1,
            region: None,
        })
    }
}

/// Steps 1–2 of [`analyze_pipeline`]; `None` when inexact.
///
/// A non-rectangular tail enumerates one case per assignment of its case
/// iterators, but cases with one loop skeleton ([`Body::skeleton`]) form
/// a class, and only its first case is enumerated and classified. Every
/// other case of the class reuses that classification, its constants
/// shifted per array and dimension by `Σ_v Δv · coeff_v`, when
///
/// * every site of an array carries the same coefficient on each case
///   iterator ([`Body::case_coeffs`]): one skeleton then gives every
///   same-array pair of instances the same constant difference in every
///   case, so each aliasing verdict that constants decide is the same;
/// * the representative asked Fourier–Motzkin nothing, so constants
///   decided every verdict;
/// * no shifted constant can leave `i64` ([`Body::fits`]), so no case
///   would have overflowed where the representative did not.
///
/// A class that misses one is classified case by case. Either way the
/// merge in [`Classified::group`] visits the cases in enumeration order.
fn classify<'a>(site: &PipelineSite<'a>, timing: Option<&dyn Timing>) -> Option<Classified<'a>> {
    classify_cases(site.pipe, &site.outer, site.guarded, timing).map(|c| c.at(site, timing))
}

impl<'a> Classified<'a> {
    /// Attaches the pipeline's declared II and, given a timing, its region.
    fn at(mut self, site: &PipelineSite<'a>, timing: Option<&dyn Timing>) -> Self {
        self.ii = site.pipe.attrs.pipeline_ii.unwrap_or(1).max(1) as u64;
        self.region = timing.map(|t| {
            // The simulator flattens the innermost run of perfect,
            // unroll-free loops that carry no dependence into the pipeline.
            let flat = site
                .chain
                .iter()
                .rev()
                .take_while(|l| l.attrs.unroll_factor.is_none() && !t.carried(&l.iv))
                .count();
            let region = site.chain[site.chain.len() - flat..]
                .iter()
                .chain([&site.pipe])
                .map(|l| (DimId::intern(&l.iv), const_range(l)))
                .collect();
            (region, t.ports_per_bank().max(1))
        });
        self
    }
}

/// [`classify`] before the region is attached.
fn classify_cases<'a>(
    pipe: &'a ForOp,
    outer: &[(String, i64, i64)],
    guarded: bool,
    timing: Option<&dyn Timing>,
) -> Option<Classified<'a>> {
    let dom = domain(pipe, outer);
    let vars = case_vars(pipe);
    if vars.is_empty() {
        return Classified::symbolic(Body::compile(pipe, &[], timing), &dom);
    }
    let ids: Vec<DimId> = vars.iter().map(|v| DimId::intern(v)).collect();
    let body = Body::compile(pipe, &ids, timing);
    match body.probe() {
        // No loop the case iterators bound is ever reached: one symbolic
        // iteration after all.
        Ok(()) => return Classified::symbolic(Body::compile(pipe, &[], timing), &dom),
        Err(Stop::SymbolicBounds) if !guarded => {}
        Err(_) => return None,
    }
    let envs = case_envs(pipe, outer, &vars)?;

    // Classes: the cases of one skeleton, with the largest magnitude each
    // slot takes over them.
    let mut class_of: FnvMap<Vec<i64>, usize> = FnvMap::default();
    let mut classes: Vec<(Vec<usize>, Vec<u64>)> = Vec::new();
    for (i, env) in envs.iter().enumerate() {
        let (key, reach) = body.skeleton(env)?;
        match class_of.get(&key) {
            Some(&c) => {
                let (members, r) = &mut classes[c];
                members.push(i);
                r.iter_mut()
                    .zip(&reach)
                    .for_each(|(r, &x)| *r = (*r).max(x));
            }
            None => {
                class_of.insert(key, classes.len());
                classes.push((vec![i], reach));
            }
        }
    }
    let coeffs = classes
        .iter()
        .any(|(members, _)| members.len() > 1)
        .then(|| body.case_coeffs())
        .flatten();
    let arrays = body.arrays.len();
    let classify = |i: usize| {
        let insts = body.instances(&envs[i]).ok()?;
        Case::classify(insts, i, arrays, &body.shapes, &dom)
    };
    let (mut cases, mut of) = (Vec::with_capacity(classes.len()), vec![0; envs.len()]);
    for (members, reach) in &classes {
        let (rep, asked_fm) = classify(members[0])?;
        let share = members.len() > 1 && coeffs.is_some() && !asked_fm && body.fits(reach);
        of[members[0]] = cases.len();
        cases.push(rep);
        for &i in &members[1..] {
            if share {
                of[i] = of[members[0]];
            } else {
                of[i] = cases.len();
                cases.push(classify(i)?.0);
            }
        }
    }
    Some(Classified {
        body,
        envs,
        cases,
        of,
        coeffs: coeffs.unwrap_or_default(),
        enumerated: true,
        vars: ids,
        ii: 1,
        region: None,
    })
}

/// The free iterators' domain: the enclosing sequential iterators' ranges
/// and the pipeline's own, when constant.
fn domain(pipe: &ForOp, outer: &[(String, i64, i64)]) -> Vec<Constraint> {
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
    dom
}

/// The iterators a case assignment pins: those an in-pipeline loop bound
/// mentions and no in-pipeline loop binds, ordered by name.
fn case_vars(pipe: &ForOp) -> Vec<&str> {
    let (mut inner, mut mentioned) = (Vec::new(), BTreeSet::new());
    bound_vars(&pipe.body, &mut inner, &mut mentioned);
    mentioned
        .into_iter()
        .filter(|v| !inner.contains(v))
        .collect()
}

/// Every assignment of `vars` within their ranges — the enclosing
/// sequential iterators' and the pipeline's own, all executed in full —
/// the first iterator varying slowest. `None` when one has no constant
/// range or there are none or more than [`CASE_CAP`] assignments.
fn case_envs(pipe: &ForOp, outer: &[(String, i64, i64)], vars: &[&str]) -> Option<Vec<Vec<i64>>> {
    let mut ranges: HashMap<&str, (i64, i64)> = outer
        .iter()
        .map(|(iv, lb, ub)| (iv.as_str(), (*lb, *ub)))
        .collect();
    if let Some((lb, ub)) = const_range(pipe) {
        ranges.insert(&pipe.iv, (lb, ub));
    }
    let mut cases = 1usize;
    for v in vars {
        let (lb, ub) = ranges.get(v)?;
        let n = ub.checked_sub(*lb)?.checked_add(1)?.max(0) as usize;
        cases = cases.saturating_mul(n);
        if cases == 0 || cases > CASE_CAP {
            return None;
        }
    }
    let mut envs: Vec<Vec<i64>> = vec![Vec::new()];
    for v in vars {
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
    Some(envs)
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
    /// cycle, so reads alone determine the per-iteration issue slide.
    /// Write-backs land at result time, where they compete with a later
    /// iteration's reads ([`InFlight`]).
    pub max_read_demand: u64,
}

/// The busiest bank-cycle of one array's modulo schedule at one II.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Peak {
    /// Accesses the bank serves in that cycle: the issuing iteration's
    /// reads (offset 0) plus the write-backs landing then.
    pub demand: u64,
    /// The cycle's offset in `[0, II)` from the issue.
    pub offset: u64,
    /// The bank, numbered as [`ArrayBanks::bank_of_coords`] does.
    pub bank: u64,
}

/// The write-backs of an array a pipeline both reads and writes back,
/// each placed in the cycle it lands (step 4 of the crate docs).
///
/// Every iteration's issue is taken at its modulo slot: iterations near a
/// flush see a subset of the write-backs counted, the drain after the last
/// issue sees no reads, and an iteration across a flattened outer loop's
/// step is counted with every borrow its position allows. A dependence
/// stall inside the region moves the slots; the estimator's recurrence
/// bound keeps the shipped IIs clear of those.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InFlight {
    /// Array name.
    pub array: String,
    /// The loop's declared II.
    pub ii: u64,
    /// Per II from 1, the busiest bank-cycle. The last entry holds for
    /// every larger II: there no write-back lands a whole II late. Where
    /// the reads' busiest bank plus every landing's busiest fits the
    /// [`Timing`]'s ports, no II overloads a bank, and the one entry holds
    /// that bound.
    pub peaks: Vec<Peak>,
}

impl InFlight {
    /// The busiest bank-cycle at `ii`.
    pub fn peak(&self, ii: u64) -> &Peak {
        let i = usize::try_from(ii.max(1)).unwrap_or(usize::MAX);
        &self.peaks[i.min(self.peaks.len()) - 1]
    }

    /// Whether every bank serves every cycle of the schedule at `ii`.
    pub fn fits(&self, ii: u64, ports_per_bank: u64) -> bool {
        self.peak(ii).demand <= ports_per_bank.max(1)
    }
}

/// The bank analysis of one pipelined loop.
#[derive(Clone, Debug, Default)]
pub struct BankAnalysis {
    /// Whether instance enumeration and read/write classification were
    /// exact. When `false`, `profiles` is empty and nothing is claimed.
    pub exact: bool,
    /// One profile per accessed array.
    pub profiles: Vec<BankProfile>,
    /// One entry per array both read and written back, when a [`Timing`]
    /// placed every such array's write-backs; empty otherwise, and then
    /// those arrays are judged by their one-iteration profile. The
    /// analysis without a timing, a load forwarded from a same-iteration
    /// store (which moves a result off its statement's latency), a region
    /// whose borrows need a range that is not constant, and residues that
    /// no one reference classifies all leave it empty.
    pub in_flight: Vec<InFlight>,
}

impl BankAnalysis {
    /// An inexact analysis claiming nothing.
    fn inexact() -> Self {
        BankAnalysis::default()
    }

    /// Whether every profile is exact.
    fn all_exact(&self) -> bool {
        self.exact && self.profiles.iter().all(|p| p.exact)
    }

    /// The placed write-backs of `array`, if any.
    pub fn flight(&self, array: &str) -> Option<&InFlight> {
        self.in_flight.iter().find(|f| f.array == array)
    }

    /// Whether every array both read and written back has its write-backs
    /// placed in flight.
    pub fn placed(&self) -> bool {
        self.profiles
            .iter()
            .all(|p| p.reads == 0 || p.writes == 0 || self.flight(&p.array).is_some())
    }

    /// The per-bank demand of `p`'s array at the declared II: the busiest
    /// bank-cycle where its write-backs are placed, else the largest
    /// one-iteration demand.
    pub fn demand(&self, p: &BankProfile) -> u64 {
        self.flight(&p.array)
            .map_or(p.max_demand, |f| f.peak(f.ii).demand)
    }

    /// True when the loop is provably conflict-free at its declared II:
    /// every array's per-bank demand ([`BankAnalysis::demand`]) fits one
    /// cycle's ports, so the simulator's calendars never slide a request.
    /// Requires full exactness.
    pub fn conflict_free(&self, ports_per_bank: u64) -> bool {
        self.all_exact()
            && self
                .profiles
                .iter()
                .all(|p| self.demand(p) <= ports_per_bank.max(1))
    }

    /// The per-iteration issue slide the port calendars impose (`None`
    /// when inexact): the simulator grants every memory read of an
    /// iteration at its issue cycle, so a bank with read demand `d`
    /// pushes the issue `ceil(d / ports) - 1` cycles past the declared
    /// II — on *every* iteration, independent of the II itself.
    pub fn port_slide(&self, ports_per_bank: u64) -> Option<u64> {
        if !self.all_exact() {
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

    /// The least II at or above `from` that the ports admit (`None` when
    /// inexact). An array whose write-backs are placed admits the IIs at
    /// which every cycle of its schedule fits ([`InFlight::fits`]); every
    /// other array admits `II >= ceil(demand / ports)`, the charitable
    /// window model (its demand spread over II cycles), whose
    /// cycle-accurate figure is [`BankAnalysis::port_slide`]. Where no II
    /// fits the placed arrays, they fall back to the window model too.
    /// A declared II below `feasible_ii(declared)` provably incurs port
    /// stalls — the POM006 condition.
    pub fn feasible_ii(&self, from: u64, ports_per_bank: u64) -> Option<u64> {
        if !self.all_exact() {
            return None;
        }
        let ports = ports_per_bank.max(1);
        let window = |placed: bool| {
            self.profiles
                .iter()
                .filter(|p| placed || self.flight(&p.array).is_none())
                .map(|p| p.max_demand.div_ceil(ports))
                .fold(from.max(1), u64::max)
        };
        Some(
            self.fit_from(window(false), ports)
                .unwrap_or_else(|| window(true)),
        )
    }

    /// The least II at or above `lo` where every placed array fits; `lo`
    /// itself when none is placed, `None` when no II fits.
    pub fn fit_from(&self, lo: u64, ports_per_bank: u64) -> Option<u64> {
        let last = self.in_flight.iter().map(|f| f.peaks.len() as u64).max();
        (lo..=last.unwrap_or(lo).max(lo))
            .find(|&ii| self.in_flight.iter().all(|f| f.fits(ii, ports_per_bank)))
    }

    /// [`BankAnalysis::feasible_ii`] from 1.
    pub fn min_feasible_ii(&self, ports_per_bank: u64) -> Option<u64> {
        self.feasible_ii(1, ports_per_bank)
    }
}

/// The class key of an access with per-dimension index constants
/// `consts`: its bank as [`ArrayBanks::bank_of_coords`] numbers it.
fn class_key(ab: &ArrayBanks, consts: impl IntoIterator<Item = i64>) -> u64 {
    ab.dims.iter().zip(consts).fold(0u64, |key, (bd, c)| {
        let c = if bd.cyclic { c } else { c.max(0) };
        key * bd.factor.max(1) as u64 + bd.bank(c)
    })
}

/// The largest multiplicity among `keys` (sorted in place) and its key,
/// the lowest on ties.
fn busiest(keys: &mut [u64]) -> (u64, u64) {
    keys.sort_unstable();
    keys.chunk_by(|x, y| x == y)
        .map(|c| (c.len() as u64, c[0]))
        .fold((0, 0), |best, c| if c.0 > best.0 { c } else { best })
}

impl Classified<'_> {
    /// Step 3: groups the classified accesses into bank classes under the
    /// partitioning `memrefs` declares.
    fn group(&self, memrefs: &[MemRefDecl]) -> BankAnalysis {
        let arrays: Vec<(usize, &MemRefDecl, ArrayBanks)> = memrefs
            .iter()
            .filter_map(|m| {
                let a = self.body.arrays.iter().position(|&n| n == m.name)?;
                Some((a, m, ArrayBanks::of(m)))
            })
            .collect();
        // One profile per classified iteration and accessed array.
        let profiles: Vec<Vec<Option<BankProfile>>> = self
            .cases
            .iter()
            .map(|case| {
                arrays
                    .iter()
                    .map(|(a, m, ab)| self.profile(*a, m, ab, case, &[]))
                    .collect()
            })
            .collect();
        if !self.enumerated {
            let profiles: Vec<BankProfile> = profiles.into_iter().flatten().flatten().collect();
            return self.with_flights(&arrays, profiles);
        }
        // Every case is executed, so the worst case per array is exact.
        // A shared case's profile holds where its array's constants moved
        // only along cyclic dimensions, whose residues a uniform shift
        // permutes; one whose block-partitioned constants moved is
        // regrouped under the shift.
        let mut merged: Vec<BankProfile> = Vec::new();
        let mut shift = Vec::new();
        for (i, env) in self.envs.iter().enumerate() {
            let case = &self.cases[self.of[i]];
            for ((a, m, ab), p) in arrays.iter().zip(&profiles[self.of[i]]) {
                let Some(p) = p else { continue };
                if case.env != i && self.moves(*a, ab, &self.envs[case.env], env, &mut shift) {
                    let moved = self.profile(*a, m, ab, case, &shift);
                    merge(&mut merged, moved.as_ref().unwrap_or(p));
                } else {
                    merge(&mut merged, p);
                }
            }
        }
        self.with_flights(&arrays, merged)
    }

    /// The exact analysis of `profiles`, with the write-backs of every
    /// array both read and written back placed in flight where step 4
    /// applies — all of them or none.
    fn with_flights(
        &self,
        arrays: &[(usize, &MemRefDecl, ArrayBanks)],
        profiles: Vec<BankProfile>,
    ) -> BankAnalysis {
        let in_flight = match &self.region {
            Some((region, ports)) if !self.cases.iter().any(|c| c.forwarded) => arrays
                .iter()
                .filter(|(_, m, _)| {
                    profiles
                        .iter()
                        .any(|p| p.array == m.name && p.exact && p.reads > 0 && p.writes > 0)
                })
                .map(|(a, m, ab)| self.place(*a, m, ab, region, *ports))
                .collect::<Option<Vec<_>>>()
                .unwrap_or_default(),
            _ => Vec::new(),
        };
        BankAnalysis {
            exact: true,
            profiles,
            in_flight,
        }
    }

    /// Whether moving array `a`'s constants from the assignment `from` to
    /// `to` moves a block-partitioned dimension; if so, `shift` holds the
    /// move per dimension. Both assignments lie in one class that passed
    /// [`Body::fits`], which bounds each `Σ coeff · value` by `i64::MAX`,
    /// so the `i128` sums cannot overflow.
    fn moves(
        &self,
        a: usize,
        ab: &ArrayBanks,
        from: &[i64],
        to: &[i64],
        shift: &mut Vec<i128>,
    ) -> bool {
        let n = self.body.cases;
        let coeffs = &self.coeffs[a];
        shift.clear();
        shift.extend(coeffs.chunks(n.max(1)).map(|row| {
            row.iter()
                .zip(from.iter().zip(to))
                .map(|(&c, (&f, &t))| i128::from(c) * (i128::from(t) - i128::from(f)))
                .sum::<i128>()
        }));
        ab.dims
            .iter()
            .zip(shift.iter())
            .any(|(bd, &s)| bd.factor > 1 && !bd.cyclic && s != 0)
    }

    /// The profile of array `a` in `case`, its constants moved by `shift`
    /// (per dimension; empty for none). `None` when the case neither reads
    /// nor writes the array back.
    fn profile(
        &self,
        a: usize,
        m: &MemRefDecl,
        ab: &ArrayBanks,
        case: &Case,
        shift: &[i128],
    ) -> Option<BankProfile> {
        let (reads, writes) = (&case.reads[a], &case.writes[a]);
        let reference = reads.first().or(writes.first())?;
        let exact = self.classifiable(ab, reference.shape, reads.iter().chain(writes));
        let (mut classes, mut max_demand, mut max_read_demand) = (0, 0, 0);
        if exact {
            // A cyclic key is the residue itself, not its difference from
            // the reference's: shifting every residue by one constant is a
            // bijection, so the class counts are the same.
            let key = |a: &Acc| {
                let consts = &case.consts[a.at..a.at + ab.dims.len()];
                class_key(
                    ab,
                    consts.iter().enumerate().map(|(d, &c)| {
                        shift.get(d).map_or(c, |&s| {
                            i64::try_from(i128::from(c) + s)
                                .expect("`Body::fits` bounds every constant of a shared case")
                        })
                    }),
                )
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
        Some(BankProfile {
            array: m.name.clone(),
            banks: ab.banks(),
            reads: reads.len() as u64,
            writes: writes.len() as u64,
            exact,
            classes,
            max_demand,
            max_read_demand,
        })
    }
}

impl Classified<'_> {
    /// Whether the bank classes of `accesses` are iteration-invariant: every
    /// access congruent (mod factor) to the `reference` shape along each
    /// cyclic dimension, and constant along each block one, with the
    /// mixed-radix class key fitting a `u64`. Both depend on the shape
    /// alone, so each shape is checked once.
    fn classifiable<'x>(
        &self,
        ab: &ArrayBanks,
        reference: usize,
        accesses: impl IntoIterator<Item = &'x Acc>,
    ) -> bool {
        let shapes = &self.body.shapes;
        let classifiable = |shape: usize| {
            let (s, r) = (&shapes.shapes[shape], &shapes.shapes[reference]);
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
        ab.dims
            .iter()
            .try_fold(1u64, |p, bd| p.checked_mul(bd.factor.max(1) as u64))
            .is_some()
            && accesses.into_iter().all(|a| {
                seen.contains(&a.shape) || {
                    seen.push(a.shape);
                    classifiable(a.shape)
                }
            })
    }

    /// The index constants of access `acc` of array `a` in the iteration of
    /// case assignment `i`: its classified case's constants, moved by the
    /// case iterators' change where that case was classified under another
    /// assignment. `None` when a constant leaves `i64`.
    fn consts_in(&self, i: usize, a: usize, acc: &Acc, out: &mut Vec<i64>) -> Option<()> {
        let case = &self.cases[self.of[i]];
        let n = self.body.shapes.shapes[acc.shape].len();
        let base = &case.consts[acc.at..acc.at + n];
        if case.env == i {
            out.extend_from_slice(base);
            return Some(());
        }
        let (from, to, k) = (&self.envs[case.env], &self.envs[i], self.body.cases);
        for (d, &c) in base.iter().enumerate() {
            let moved = self.coeffs[a][d * k..(d + 1) * k]
                .iter()
                .zip(from.iter().zip(to))
                .map(|(&c, (&f, &t))| i128::from(c) * (i128::from(t) - i128::from(f)))
                .sum::<i128>();
            out.push(i64::try_from(i128::from(c) + moved).ok()?);
        }
        Some(())
    }

    /// Step 4 for array `a`: the busiest bank-cycle of its modulo schedule
    /// at every II that can differ, over the iterations of `region`.
    /// `None` where the placement does not apply (see
    /// [`BankAnalysis::in_flight`]).
    fn place(
        &self,
        a: usize,
        m: &MemRefDecl,
        ab: &ArrayBanks,
        region: &[(DimId, Option<(i64, i64)>)],
        ports: u64,
    ) -> Option<InFlight> {
        let n = ab.dims.len();
        let accesses = || {
            self.cases
                .iter()
                .flat_map(move |c| c.reads[a].iter().chain(&c.writes[a]))
        };
        let reference = accesses().next()?.shape;
        if !self.classifiable(ab, reference, accesses()) {
            return None;
        }
        // Each region iterator is pinned by a case assignment or free; the
        // borrows of a free one below the outermost need its trip count.
        let pinned: Vec<Option<usize>> = region
            .iter()
            .map(|(iv, _)| self.vars.iter().position(|v| v == iv))
            .collect();
        let needs_range = |k: usize| pinned[k].is_some() || k > 0;
        let trip = |k: usize| {
            region[k]
                .1
                .and_then(|(lb, ub)| ub.checked_sub(lb)?.checked_add(1))
        };
        if (0..region.len()).any(|k| needs_range(k) && trip(k).is_none_or(|t| t < 1)) {
            return None;
        }
        // Per iteration: the reads' constants, and the write-backs'
        // constants with their shapes and landings — per assignment, moved
        // to it, or per classified case in its own frame. Along cyclic
        // dimensions an assignment that reuses a case's classification
        // shifts every constant of the array by one amount per dimension,
        // which permutes residues: a case's busiest banks stand for every
        // assignment it classifies, and so do its residues along a
        // dimension the case iterators do not move.
        struct Iter {
            reads: Vec<i64>,
            writes: Vec<i64>,
            shapes: Vec<usize>,
            landings: Vec<u64>,
        }
        let build = |per_case: bool| -> Option<Vec<Iter>> {
            let count = if per_case {
                self.cases.len()
            } else {
                self.envs.len()
            };
            (0..count)
                .map(|i| {
                    let case = &self.cases[if per_case { i } else { self.of[i] }];
                    let mut it = Iter {
                        reads: Vec::new(),
                        writes: Vec::new(),
                        shapes: case.writes[a].iter().map(|w| w.shape).collect(),
                        landings: case.landings[a].clone(),
                    };
                    for (accs, out) in [
                        (&case.reads[a], &mut it.reads),
                        (&case.writes[a], &mut it.writes),
                    ] {
                        for acc in accs {
                            if per_case {
                                out.extend_from_slice(&case.consts[acc.at..acc.at + n]);
                            } else {
                                self.consts_in(i, a, acc, out)?;
                            }
                        }
                    }
                    Some(it)
                })
                .collect()
        };
        let keyed = |iters: &[Iter]| -> [Vec<Vec<u64>>; 2] {
            let keys = |consts: &[i64]| -> Vec<u64> {
                consts
                    .chunks(n.max(1))
                    .map(|c| class_key(ab, c.iter().copied()))
                    .collect()
            };
            [
                iters.iter().map(|it| keys(&it.reads)).collect(),
                iters.iter().map(|it| keys(&it.writes)).collect(),
            ]
        };
        let per_case = self.cases.len() < self.envs.len()
            && ab.dims.iter().all(|bd| bd.cyclic || bd.factor <= 1);
        let mut iters = build(per_case)?;
        let [mut reads, mut writes] = keyed(&iters);
        let mut landings: Vec<u64> = iters
            .iter()
            .flat_map(|it| it.landings.iter().copied())
            .collect();
        landings.sort_unstable();
        landings.dedup();
        let last = *landings.last()?;
        let mut keys: Vec<u64> = Vec::new();
        let most = |a: (u64, u64), b: (u64, u64)| if b.0 > a.0 { b } else { a };
        // A cycle without reads holds write-backs alone — the drain after
        // the last issue, and every offset but the issue's: each landing
        // contributes at most its busiest bank over all iterations, and
        // the drain reaches that sum. Its bank is the first landing's.
        let alone: Vec<(u64, u64)> = landings
            .iter()
            .map(|&r| {
                (0..iters.len())
                    .map(|j| {
                        keys.clear();
                        let at = iters[j].landings.iter().zip(&writes[j]);
                        keys.extend(at.filter(|(l, _)| **l == r).map(|(_, &k)| k));
                        busiest(&mut keys)
                    })
                    .fold((0, 0), most)
            })
            .collect();
        // The issue cycle without a landing: the reads alone.
        let (read_demand, read_bank) = reads
            .iter()
            .map(|r| {
                keys.clear();
                keys.extend_from_slice(r);
                busiest(&mut keys)
            })
            .fold((0, 0), most);
        // Where even every landing's busiest bank on the reads' busiest
        // fits the ports, no II overloads a bank: that bound is the one
        // entry.
        let bound = read_demand + alone.iter().map(|w| w.0).sum::<u64>();
        if bound <= ports {
            return Some(InFlight {
                array: m.name.clone(),
                ii: self.ii,
                peaks: vec![Peak {
                    demand: bound,
                    offset: 0,
                    bank: read_bank,
                }],
            });
        }
        // Where the partitioning already puts the reads and the write-backs
        // in different banks, the issue cycle never holds both.
        let unmoved = |k: usize| {
            let c = self.body.cases;
            !per_case || self.coeffs[a][k * c..(k + 1) * c].iter().all(|&x| x == 0)
        };
        let apart = {
            let h: Vec<(&[i64], &[i64])> = iters
                .iter()
                .map(|it| (&it.reads[..], &it.writes[..]))
                .collect();
            (0..n).any(|k| {
                let bd = ab.dims[k];
                bd.cyclic && unmoved(k) && self.apart(a, ab, region, &h, k, bd.factor)
            })
        };
        if per_case && !apart {
            iters = build(false)?;
            [reads, writes] = keyed(&iters);
        }
        // How far each write shape's index moves per unit step of each
        // free region iterator, per dimension.
        let shapes = &self.body.shapes;
        let steps = |shape: usize| -> Vec<i64> {
            region
                .iter()
                .zip(&pinned)
                .flat_map(|((iv, _), p)| {
                    shapes.shapes[shape].iter().map(move |&l| {
                        if p.is_some() {
                            0
                        } else {
                            shapes.lins[l].coeff_id(*iv)
                        }
                    })
                })
                .collect()
        };
        let mut step_of: FnvMap<usize, Vec<i64>> = FnvMap::default();
        for it in &iters {
            for &sh in &it.shapes {
                step_of.entry(sh).or_insert_with(|| steps(sh));
            }
        }
        let index: FnvMap<&[i64], usize> = self
            .envs
            .iter()
            .enumerate()
            .map(|(i, e)| (e.as_slice(), i))
            .collect();
        // The region's iterations, where every range is constant.
        let reach = region
            .iter()
            .try_fold(1u64, |n, (_, r)| {
                let (lb, ub) = (*r)?;
                n.checked_mul(u64::try_from(ub.checked_sub(lb)?.checked_add(1)?).ok()?)
            })
            .unwrap_or(u64::MAX);
        let (mut landed, mut worst, mut moved) = (Vec::new(), Vec::new(), Vec::with_capacity(n));
        let mut peaks = Vec::new();
        let mut preds: FnvMap<(usize, u64), Earlier> = FnvMap::default();
        for ii in 1..=last + 1 {
            let mut peak = Peak {
                demand: read_demand,
                offset: 0,
                bank: read_bank,
            };
            for (&r, &(_, bank)) in landings.iter().zip(&alone) {
                let o = r % ii;
                let demand = landings
                    .iter()
                    .zip(&alone)
                    .filter(|(q, _)| *q % ii == o)
                    .map(|(_, w)| w.0)
                    .sum();
                if demand > peak.demand {
                    peak = Peak {
                        demand,
                        offset: o,
                        bank,
                    };
                }
            }
            // The issue cycle with landings: each iteration's reads beside
            // the write-backs of the iterations whole IIs before it — none
            // where that is further back than the region reaches.
            if apart || !landings.iter().any(|r| r % ii == 0 && r / ii < reach) {
                peaks.push(peak);
                continue;
            }
            for (i, read_keys) in reads.iter().enumerate() {
                keys.clear();
                keys.extend_from_slice(read_keys);
                for &r in landings.iter().filter(|r| *r % ii == 0) {
                    let d = r / ii;
                    let from = preds
                        .entry((i, d))
                        .or_insert_with(|| self.predecessors(region, &pinned, &index, i, d));
                    if from.is_empty() {
                        continue;
                    }
                    // Where the earlier iteration's position is not known,
                    // each bank takes its worst borrow.
                    worst.clear();
                    for (j, deltas) in from.iter() {
                        let it = &iters[*j];
                        landed.clear();
                        for w in (0..it.landings.len()).filter(|&w| it.landings[w] == r) {
                            landed.push(if deltas.iter().all(|&d| d == 0) {
                                writes[*j][w]
                            } else {
                                let step = &step_of[&it.shapes[w]];
                                moved.clear();
                                for dim in 0..n {
                                    let c = deltas.iter().enumerate().fold(
                                        i128::from(it.writes[w * n + dim]),
                                        |c, (k, &dk)| {
                                            c + i128::from(step[k * n + dim]) * i128::from(dk)
                                        },
                                    );
                                    moved.push(i64::try_from(c).ok()?);
                                }
                                class_key(ab, moved.iter().copied())
                            });
                        }
                        if from.len() == 1 {
                            keys.extend_from_slice(&landed);
                        } else {
                            landed.sort_unstable();
                            let counts = landed.chunk_by(|x, y| x == y);
                            worst.extend(counts.map(|c| (c[0], c.len())));
                        }
                    }
                    // Sorted by bank, then count: each run's last is its
                    // worst borrow.
                    worst.sort_unstable();
                    for c in worst.chunk_by(|x, y| x.0 == y.0) {
                        let (bank, times) = c[c.len() - 1];
                        keys.extend(std::iter::repeat_n(bank, times));
                    }
                }
                if keys.len() == read_keys.len() {
                    continue; // no write-back lands: the reads alone
                }
                let (demand, bank) = busiest(&mut keys);
                if demand > peak.demand {
                    peak = Peak {
                        demand,
                        offset: 0,
                        bank,
                    };
                }
            }
            peaks.push(peak);
        }
        Some(InFlight {
            array: m.name.clone(),
            ii: self.ii,
            peaks,
        })
    }

    /// The iterations `d` steps before the one of assignment `i`, as the
    /// assignment each is classified under and how far each free region
    /// iterator moved (zero for a pinned one). Subtracting `d` from the
    /// region's mixed-radix position borrows from the outer iterators; a
    /// free iterator's position is unknown, so each borrow it allows is
    /// one candidate. None when the position precedes the region.
    fn predecessors(
        &self,
        region: &[(DimId, Option<(i64, i64)>)],
        pinned: &[Option<usize>],
        index: &FnvMap<&[i64], usize>,
        i: usize,
        d: u64,
    ) -> Earlier {
        let Ok(d) = i64::try_from(d) else {
            return Vec::new();
        };
        // (borrow into the next iterator out, assignment, moves)
        let mut states = vec![(-d, self.envs[i].clone(), vec![0i64; region.len()])];
        for k in (0..region.len()).rev() {
            let range = region[k].1;
            let trip = range.and_then(|(lb, ub)| ub.checked_sub(lb)?.checked_add(1));
            let mut next = Vec::new();
            for (carry, mut env, moves) in states {
                match (pinned[k], range, trip) {
                    (Some(v), Some((lb, _)), Some(t)) => {
                        let Some(y) = env[v].checked_sub(lb).and_then(|y| y.checked_add(carry))
                        else {
                            continue;
                        };
                        env[v] = lb + y.rem_euclid(t);
                        next.push((y.div_euclid(t), env, moves));
                    }
                    // The outermost free iterator takes the whole move,
                    // unless no two of its values are that far apart.
                    (None, _, _) if k == 0 && trip.is_none_or(|t| carry > -t) => {
                        let mut moves = moves;
                        moves[k] = carry;
                        next.push((0, env, moves));
                    }
                    (None, _, _) if k == 0 => {}
                    (None, _, Some(t)) => {
                        for borrow in carry.div_euclid(t)..=(t - 1 + carry).div_euclid(t) {
                            let mut moves = moves.clone();
                            moves[k] = carry - borrow * t;
                            next.push((borrow, env.clone(), moves));
                        }
                    }
                    // `place` checked every range this needs.
                    _ => {}
                }
            }
            states = next;
        }
        states
            .into_iter()
            .filter(|(carry, ..)| *carry == 0)
            .filter_map(|(_, env, moves)| Some((*index.get(env.as_slice())?, moves)))
            .collect()
    }

    /// Whether, along dimension `k` under cyclic factor `f`, no read of
    /// array `a` shares a bank residue with a write-back: all its accesses
    /// share one symbolic part there that no region iterator moves, and
    /// the reads' constants (`halves`' first halves, per assignment) take
    /// residues the write-backs' (second halves) never take.
    fn apart(
        &self,
        a: usize,
        ab: &ArrayBanks,
        region: &[(DimId, Option<(i64, i64)>)],
        halves: &[(&[i64], &[i64])],
        k: usize,
        f: i64,
    ) -> bool {
        let shapes = &self.body.shapes;
        let n = ab.dims.len();
        let mut lins = self
            .cases
            .iter()
            .flat_map(|c| c.reads[a].iter().chain(&c.writes[a]))
            .map(|acc| shapes.shapes[acc.shape][k]);
        let Some(lin) = lins.next() else {
            return false;
        };
        if f < 2
            || lins.any(|l| l != lin)
            || region.iter().any(|(iv, _)| shapes.lins[lin].uses_id(*iv))
        {
            return false;
        }
        let Some(mut read) = usize::try_from(f)
            .ok()
            .filter(|&f| f <= 1 << 16)
            .map(|f| vec![false; f])
        else {
            return false;
        };
        let column = |half: &[i64]| {
            let residues = half.iter().skip(k).step_by(n.max(1));
            residues
                .map(|c| c.rem_euclid(f) as usize)
                .collect::<Vec<_>>()
        };
        for (r, _) in halves {
            column(r).into_iter().for_each(|c| read[c] = true);
        }
        !halves
            .iter()
            .any(|(_, w)| column(w).into_iter().any(|c| read[c]))
    }
}

/// Folds one case's profile of an array into the worst case over the
/// cases so far: counts and demands take the maximum, `classes` those of
/// the first case with the largest demand.
fn merge(merged: &mut Vec<BankProfile>, p: &BankProfile) {
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
        None => merged.push(p.clone()),
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
/// [`CASE_CAP`]), merging per-bank demand as the maximum over cases in
/// enumeration order. Cases whose inner loops take the same bounds share
/// one classification wherever shifting its constants reproduces theirs
/// exactly, so the result is that of classifying every case. Every
/// assignment within the bounds is executed, so the merged figures
/// stay exact worst-iteration values — unless the pipeline sits under a
/// sequential guard (`guarded`), which may skip assignments; then the
/// analysis claims nothing.
pub fn analyze_pipeline(
    memrefs: &[MemRefDecl],
    pipe: &ForOp,
    outer: &[(String, i64, i64)],
    guarded: bool,
) -> BankAnalysis {
    let site = PipelineSite {
        pipe,
        outer: outer.to_vec(),
        guarded,
        chain: Vec::new(),
    };
    analyze_site(memrefs, &site, None)
}

fn analyze_site(
    memrefs: &[MemRefDecl],
    site: &PipelineSite,
    timing: Option<&dyn Timing>,
) -> BankAnalysis {
    classify(site, timing).map_or_else(BankAnalysis::inexact, |c| c.group(memrefs))
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
fn bound_vars<'a>(
    ops: &'a [AffineOp],
    inner: &mut Vec<&'a str>,
    mentioned: &mut BTreeSet<&'a str>,
) {
    for op in ops {
        match op {
            AffineOp::For(l) => {
                for b in l.lbs.iter().chain(l.ubs.iter()) {
                    mentioned.extend(b.expr.vars());
                }
                inner.push(&l.iv);
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
/// simulator. Without a [`Timing`], write-backs are not placed in flight
/// ([`BankAnalysis::in_flight`]); [`analyze_timed`] places them.
pub fn analyze_func(func: &AffineFunc) -> Vec<LoopBankReport> {
    analyze(func, None)
}

/// [`analyze_func`], with every write-back of an array a pipeline both
/// reads and writes back placed in the cycle `timing` lands it.
pub fn analyze_timed(func: &AffineFunc, timing: &dyn Timing) -> Vec<LoopBankReport> {
    analyze(func, Some(timing))
}

fn analyze(func: &AffineFunc, timing: Option<&dyn Timing>) -> Vec<LoopBankReport> {
    pipelines(func)
        .into_iter()
        .map(|site| {
            let mut stmts = Vec::new();
            stored_stmts(&site.pipe.body, &mut stmts);
            LoopBankReport {
                iv: site.pipe.iv.clone(),
                stmts,
                declared_ii: site.pipe.attrs.pipeline_ii.unwrap_or(1).max(1) as u64,
                analysis: analyze_site(&func.memrefs, &site, timing),
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
    /// The enclosing loops each of whose bodies is only the next one,
    /// outermost first, down to the pipeline: the loops the simulator may
    /// flatten into it.
    chain: Vec<&'a ForOp>,
}

/// The outermost pipelined loops of `func`, in program order.
fn pipelines(func: &AffineFunc) -> Vec<PipelineSite<'_>> {
    let mut out = Vec::new();
    walk(&func.body, &mut Vec::new(), false, &[], &mut out);
    out
}

/// Collects the pipelines under `ops`; `chain` is the perfect nest that
/// `ops` ends, when `ops` is a single loop's whole body.
fn walk<'a>(
    ops: &'a [AffineOp],
    outer: &mut Vec<(String, i64, i64)>,
    guarded: bool,
    chain: &[&'a ForOp],
    out: &mut Vec<PipelineSite<'a>>,
) {
    for op in ops {
        match op {
            AffineOp::For(l) if l.attrs.pipeline_ii.is_some() => out.push(PipelineSite {
                pipe: l,
                outer: outer.clone(),
                guarded,
                chain: chain.to_vec(),
            }),
            AffineOp::For(l) => {
                let pushed = const_range(l).map(|(lb, ub)| {
                    outer.push((l.iv.clone(), lb, ub));
                });
                let inner: Vec<&ForOp> = if l.body.len() == 1 {
                    chain.iter().copied().chain([l]).collect()
                } else {
                    Vec::new()
                };
                walk(&l.body, outer, guarded, &inner, out);
                if pushed.is_some() {
                    outer.pop();
                }
            }
            // A sequential-level guard selects whole pipeline executions;
            // it does not make the per-iteration instance set vary, but it
            // may skip outer-iterator cases — remember it.
            AffineOp::If(i) => walk(&i.body, outer, true, &[], out),
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
/// conflict-free on `array` at its declared II — loops the analysis
/// cannot enumerate carry no certificate and are left out of the demand
/// measure, which is [`BankAnalysis::demand`] (write-backs placed in
/// flight where `timing` places them). Returns `None` when the array is
/// already conflict-free or no factor assignment helps (e.g. the demand
/// comes from repeated same-bank accesses no split separates).
pub fn minimal_conflict_free_factors(
    func: &AffineFunc,
    array: &str,
    ports_per_bank: u64,
    timing: Option<&dyn Timing>,
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
        .filter_map(|site| classify(&site, timing))
        .collect();
    let worst = |memrefs: &[MemRefDecl]| -> u64 {
        loops
            .iter()
            .map(|l| l.group(memrefs))
            .flat_map(|an| {
                an.profiles
                    .iter()
                    .filter(|p| p.exact)
                    .map(|p| an.demand(p))
                    .collect::<Vec<_>>()
            })
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
#[path = "../tests/common/mod.rs"]
mod generated;

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

    /// `l` as a pipeline with no enclosing loop.
    fn bare(l: &ForOp, guarded: bool) -> PipelineSite<'_> {
        PipelineSite {
            pipe: l,
            outer: Vec::new(),
            guarded,
            chain: Vec::new(),
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
        assert_eq!(an.min_feasible_ii(2), None);
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
        assert_eq!(
            minimal_conflict_free_factors(&f, "a", 2, None),
            Some(vec![2])
        );
        assert_eq!(
            minimal_conflict_free_factors(&f, "a", 1, None),
            Some(vec![4])
        );
        // b has demand 1: already conflict-free, nothing to repair.
        assert_eq!(minimal_conflict_free_factors(&f, "b", 2, None), None);
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
        assert_eq!(minimal_conflict_free_factors(&g, "c", 1, None), None);
    }

    /// Lands every write-back `0` cycles after the issue; `1` names the
    /// loops that carry a dependence; two ports per bank.
    struct Landing(u64, &'static [&'static str]);

    impl Timing for Landing {
        fn landing(&self, _: &StoreOp) -> u64 {
            self.0
        }

        fn carried(&self, iv: &str) -> bool {
            self.1.contains(&iv)
        }

        fn ports_per_bank(&self) -> u64 {
            2
        }
    }

    /// `B[t][i] = B[t-1][i-1] + B[t-1][i] + B[t-1][i+1]`, `i` pipelined at
    /// `ii` under a sequential `t` that carries the dependence, `B`
    /// partitioned cyclically by `factors`.
    fn stencil_1d(ii: i64, factors: &[i64]) -> AffineFunc {
        let (t, i) = (LinearExpr::var("t"), LinearExpr::var("i"));
        let row = |di: i64| vec![t.clone() - 1, i.clone() + di];
        let body = load("B", row(-1)) + load("B", row(0)) + load("B", row(1));
        let mut pipe = pipe_loop(
            "i",
            15,
            ii,
            vec![store("B", vec![t.clone(), i.clone()], body)],
        );
        pipe.lbs = vec![cb(1)];
        let mut f = AffineFunc::new("stencil");
        f.memrefs.push(memref("B", &[8, 16], Some(factors)));
        f.body.push(AffineOp::For(ForOp {
            iv: "t".into(),
            lbs: vec![cb(1)],
            ubs: vec![cb(7)],
            attrs: HlsAttrs::default(),
            extra: Vec::new(),
            body: vec![AffineOp::For(pipe)],
        }));
        f
    }

    #[test]
    fn a_write_back_in_flight_meets_the_reads_it_lands_beside() {
        // Factor 2 along `i`: the reads of iteration i put two ports' worth
        // on bank (i+1) % 2 and one on bank i % 2. One iteration's profile
        // fits 2 ports (the write-back's bank holds one read), but landing
        // 3 cycles after the issue, the write-back of iteration i-3 shares
        // bank (i-3) % 2 = (i+1) % 2 with two reads at II 1.
        let timing = Landing(3, &["t"]);
        let f = stencil_1d(1, &[1, 2]);
        let untimed = &analyze_func(&f)[0].analysis;
        assert!(untimed.in_flight.is_empty());
        assert!(untimed.conflict_free(2), "one iteration's profile fits");
        let an = &analyze_timed(&f, &timing)[0].analysis;
        let b = an.flight("B").expect("placed");
        assert_eq!(b.ii, 1);
        assert_eq!(
            *b.peak(1),
            Peak {
                demand: 3,
                offset: 0,
                bank: 1,
            }
        );
        assert!(!an.conflict_free(2));
        // At II 2 it lands at offset 1 of the iteration one II later, apart
        // from every read; an even landing lands beside the single read.
        assert_eq!(b.peak(2).demand, 2);
        assert_eq!(an.feasible_ii(1, 2), Some(2));
        assert!(analyze_timed(&stencil_1d(2, &[1, 2]), &timing)[0]
            .analysis
            .conflict_free(2));
        assert!(analyze_timed(&f, &Landing(4, &["t"]))[0]
            .analysis
            .conflict_free(2));
        // Doubling the time dimension's factor puts rows t-1 and t in
        // different banks, and II 1 fits.
        let apart = &analyze_timed(&stencil_1d(1, &[2, 2]), &timing)[0].analysis;
        assert!(apart.conflict_free(2));
        assert_eq!(apart.feasible_ii(1, 2), Some(1));
        // The repair finds that factor.
        assert_eq!(
            minimal_conflict_free_factors(&f, "B", 2, Some(&timing)),
            Some(vec![2, 2])
        );
        // Flattened into the pipeline, `t`'s step borrows: the write-back
        // of row t-1's last iterations lands beside row t's first reads,
        // which the time factor no longer separates.
        let flat = &analyze_timed(&stencil_1d(1, &[2, 2]), &Landing(3, &[]))[0].analysis;
        assert!(!flat.conflict_free(2));
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
        // The tail bound mentions io, so the body is compiled under the
        // case prefix io rather than with none (which leaves c[io]
        // symbolic): each site folds io away, and c[io] becomes a
        // constant, which its block partition requires.
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

    /// The reference for the class path: every case enumerated and
    /// classified on its own, after a symbolic attempt compiled without
    /// the case prefix.
    fn classify_per_case<'a>(
        pipe: &'a ForOp,
        outer: &[(String, i64, i64)],
        guarded: bool,
    ) -> Option<Classified<'a>> {
        let dom = domain(pipe, outer);
        let body = Body::compile(pipe, &[], Some(&Lands));
        match body.instances(&[]) {
            Ok(_) => return Classified::symbolic(body, &dom),
            Err(Stop::SymbolicBounds) if !guarded => {}
            Err(_) => return None,
        }
        let vars = case_vars(pipe);
        let envs = case_envs(pipe, outer, &vars)?;
        let ids: Vec<DimId> = vars.iter().map(|v| DimId::intern(v)).collect();
        let body = Body::compile(pipe, &ids, Some(&Lands));
        let cases = (0..envs.len())
            .map(|i| {
                let insts = body.instances(&envs[i]).ok()?;
                Some(Case::classify(insts, i, body.arrays.len(), &body.shapes, &dom)?.0)
            })
            .collect::<Option<Vec<Case>>>()?;
        Some(Classified {
            body,
            of: (0..envs.len()).collect(),
            envs,
            cases,
            coeffs: Vec::new(),
            enumerated: true,
            vars: ids,
            ii: 1,
            region: None,
        })
    }

    /// Lands every write-back five cycles after the issue; no loop
    /// carries a dependence; one port per bank, so few placements fit
    /// without their table.
    struct Lands;

    impl Timing for Lands {
        fn landing(&self, _: &StoreOp) -> u64 {
            5
        }

        fn carried(&self, _: &str) -> bool {
            false
        }

        fn ports_per_bank(&self) -> u64 {
            1
        }
    }

    /// How the class path classified the pipelines it was compared on.
    #[derive(Debug, Default)]
    struct PathCounts {
        /// Cases that reused another case's classification.
        shared: usize,
        /// Pipelines with a class of two cases or more classified case by
        /// case.
        per_case: usize,
        /// Shared cases regrouped because a block-partitioned dimension's
        /// constants moved.
        block_moved: usize,
    }

    /// Asserts that the class path and the per-case reference give every
    /// pipeline of `f` the same analysis under each of `partitions`, and
    /// returns the largest number of iterations a pipeline classified.
    fn assert_same_as_per_case(
        f: &AffineFunc,
        partitions: &[Vec<MemRefDecl>],
        counts: &mut PathCounts,
    ) -> usize {
        let mut most = 0;
        for site in pipelines(f) {
            // Timed, so the write-backs each path places are compared too.
            let fast = classify(&site, Some(&Lands));
            let slow = classify_per_case(site.pipe, &site.outer, site.guarded)
                .map(|c| c.at(&site, Some(&Lands)));
            let (fast, slow) = match (fast, slow) {
                (None, None) => continue,
                (Some(fast), Some(slow)) => (fast, slow),
                (fast, _) => panic!("class path exact: {}", fast.is_some()),
            };
            for memrefs in partitions {
                assert_eq!(
                    format!("{:#?}", fast.group(memrefs)),
                    format!("{:#?}", slow.group(memrefs)),
                    "under {memrefs:?}"
                );
            }
            most = most.max(fast.cases.len());
            let keys: BTreeSet<Vec<i64>> = fast
                .envs
                .iter()
                .map(|env| fast.body.skeleton(env).expect("exact").0)
                .collect();
            counts.per_case += usize::from(fast.cases.len() > keys.len());
            let mut shift = Vec::new();
            for (i, env) in fast.envs.iter().enumerate() {
                let rep = fast.cases[fast.of[i]].env;
                if rep == i {
                    continue;
                }
                counts.shared += 1;
                counts.block_moved += usize::from(partitions.iter().any(|memrefs| {
                    memrefs.iter().any(|m| {
                        let Some(a) = fast.body.arrays.iter().position(|&n| n == m.name) else {
                            return false;
                        };
                        fast.moves(a, &ArrayBanks::of(m), &fast.envs[rep], env, &mut shift)
                    })
                }));
            }
        }
        most
    }

    fn with_partition(
        memrefs: &[MemRefDecl],
        factors: impl Fn(usize) -> i64,
        block: bool,
    ) -> Vec<MemRefDecl> {
        memrefs
            .iter()
            .map(|m| {
                let mut m = m.clone();
                m.partition = Some(PartitionInfo {
                    factors: (0..m.shape.len()).map(&factors).collect(),
                    style: if block {
                        pom_dsl::PartitionStyle::Block
                    } else {
                        pom_dsl::PartitionStyle::Cyclic
                    },
                });
                m
            })
            .collect()
    }

    #[test]
    fn class_path_matches_per_case_classification_on_generated_bodies() {
        let mut rng = proptest::test_runner::TestRng::deterministic(
            "class_path_matches_per_case_classification_on_generated_bodies",
        );
        let mut counts = PathCounts::default();
        for _ in 0..512 {
            let f = crate::generated::build(&crate::generated::gen_body(&mut rng));
            let partitions = [
                f.memrefs.clone(),
                with_partition(&f.memrefs, |_| 1, false),
                with_partition(&f.memrefs, |_| 2, true),
                with_partition(&f.memrefs, |d| d as i64 + 2, false),
            ];
            assert_same_as_per_case(&f, &partitions, &mut counts);
        }
        // Each path of the class classification runs.
        assert!(counts.shared >= 50, "{counts:?}");
        assert!(counts.per_case >= 50, "{counts:?}");
        assert!(counts.block_moved >= 40, "{counts:?}");
    }

    /// `lo ≤ f·jo + ju ≤ hi` split by `f`: `ju` from `max(lo - f·jo, 0)`
    /// to `min(hi - f·jo, f - 1)`, with `col = f·jo + ju`.
    fn tile(f: i64, lo: i64, hi: i64, body: Vec<AffineOp>) -> AffineOp {
        let jo = LinearExpr::var("jo");
        unrolled_between(
            "ju",
            vec![
                Bound::new(LinearExpr::constant_expr(lo) - jo.clone() * f, 1),
                cb(0),
            ],
            vec![
                Bound::new(LinearExpr::constant_expr(hi) - jo * f, 1),
                cb(f - 1),
            ],
            body,
        )
    }

    fn unrolled_between(
        iv: &str,
        lbs: Vec<Bound>,
        ubs: Vec<Bound>,
        body: Vec<AffineOp>,
    ) -> AffineOp {
        AffineOp::For(ForOp {
            iv: iv.into(),
            lbs,
            ubs,
            attrs: HlsAttrs::default(),
            extra: Vec::new(),
            body,
        })
    }

    fn sequential(iv: &str, lb: i64, ub: i64, body: Vec<AffineOp>) -> AffineOp {
        unrolled_between(iv, vec![cb(lb)], vec![cb(ub)], body)
    }

    fn pipelined(iv: &str, lb: i64, ub: i64, body: Vec<AffineOp>) -> AffineOp {
        let AffineOp::For(mut l) = sequential(iv, lb, ub, body) else {
            unreachable!()
        };
        l.attrs.pipeline_ii = Some(1);
        AffineOp::For(l)
    }

    /// The split-`j` tails of three kernels at tile factor `f`, as the
    /// DSE lowers them: blur's two stages (`j` in `1..=62`, the pipeline
    /// on `i` under the sequential `jo`), gemm (`j` in `0..=29` under
    /// `i` and `jo`, the pipeline on the reduction `k`) and jacobi2d (`j`
    /// in `1..=28`, the pipeline on `jo` itself).
    fn split_tails(f: i64) -> Vec<AffineFunc> {
        let (i, k) = (|| LinearExpr::var("i"), || LinearExpr::var("k"));
        let col = || LinearExpr::var("jo") * f + LinearExpr::var("ju");
        let ld = |a: &str, r: LinearExpr, c: LinearExpr| load(a, vec![r, c]);
        let func = |name: &str, arrays: &[(&str, usize)], body: Vec<AffineOp>| {
            let mut func = AffineFunc::new(name);
            for &(a, n) in arrays {
                func.memrefs.push(memref(a, &[n, n], None));
            }
            func.body = body;
            func
        };
        let row = |a: &str, r: LinearExpr| {
            ld(a, r.clone(), col() - 1) + ld(a, r.clone(), col()) + ld(a, r, col() + 1)
        };
        let blur_x = store("bx", vec![i(), col()], row("img", i()));
        let blur_y = store(
            "by",
            vec![i(), col()],
            ld("bx", i() - 1, col()) + ld("bx", i(), col()) + ld("bx", i() + 1, col()),
        );
        let blur = func(
            "blur",
            &[("img", 64), ("bx", 64), ("by", 64)],
            [blur_x, blur_y]
                .into_iter()
                .map(|s| {
                    sequential(
                        "jo",
                        0,
                        62 / f,
                        vec![pipelined("i", 1, 62, vec![tile(f, 1, 62, vec![s])])],
                    )
                })
                .collect(),
        );
        let mac = store(
            "c",
            vec![i(), col()],
            ld("c", i(), col()) + ld("a", i(), k()) * ld("b", k(), col()),
        );
        let gemm = func(
            "gemm",
            &[("a", 30), ("b", 30), ("c", 30)],
            vec![sequential(
                "i",
                0,
                29,
                vec![sequential(
                    "jo",
                    0,
                    29 / f,
                    vec![pipelined("k", 0, 29, vec![tile(f, 0, 29, vec![mac])])],
                )],
            )],
        );
        let cross = row("a", i()) + ld("a", i() - 1, col()) + ld("a", i() + 1, col());
        let jacobi = func(
            "jacobi2d",
            &[("a", 30), ("b", 30)],
            vec![sequential(
                "i",
                1,
                28,
                vec![pipelined(
                    "jo",
                    0,
                    28 / f,
                    vec![tile(f, 1, 28, vec![store("b", vec![i(), col()], cross)])],
                )],
            )],
        );
        vec![blur, gemm, jacobi]
    }

    #[test]
    fn class_path_matches_per_case_classification_on_kernel_tails() {
        let mut counts = PathCounts::default();
        for f in 2..=16 {
            for func in split_tails(f) {
                let partitions = [
                    func.memrefs.clone(),
                    with_partition(&func.memrefs, |d| if d == 1 { f } else { 1 }, false),
                    with_partition(&func.memrefs, |d| if d == 1 { f } else { 2 }, false),
                    with_partition(&func.memrefs, |d| if d == 1 { f } else { 1 }, true),
                    with_partition(&func.memrefs, |_| 2, true),
                    with_partition(&func.memrefs, |_| 3, false),
                ];
                let most = assert_same_as_per_case(&func, &partitions, &mut counts);
                // One case iterator: a head case, the interior cases and a
                // tail case.
                assert!(most <= 3, "{} at factor {f}: {most} classified", func.name);
            }
        }
        assert!(counts.shared > 0 && counts.block_moved > 0, "{counts:?}");
    }

    #[test]
    fn a_tail_never_reached_is_one_symbolic_iteration() {
        // for i (pipe) { b[i] = a[i]; for k in 0..=-1 { for m in 0..=i {
        //   b[m] = a[m] } } }: the loop i bounds is never entered, so the
        // iteration set does not vary and one symbolic iteration is exact.
        let (i, m) = (|| LinearExpr::var("i"), || LinearExpr::var("m"));
        let inner = unrolled_between(
            "m",
            vec![cb(0)],
            vec![Bound::new(i(), 1)],
            vec![store("b", vec![m()], load("a", vec![m()]))],
        );
        let l = pipe_loop(
            "i",
            8,
            1,
            vec![
                store("b", vec![i()], load("a", vec![i()])),
                sequential("k", 0, -1, vec![inner]),
            ],
        );
        let mem = vec![memref("a", &[8], Some(&[2])), memref("b", &[8], None)];
        let fast = classify(&bare(&l, false), None).expect("exact");
        assert!(!fast.enumerated);
        let slow = classify_per_case(&l, &[], false).expect("exact");
        assert_eq!(
            format!("{:?}", fast.group(&mem)),
            format!("{:?}", slow.group(&mem))
        );
        // Under a guard a reached tail claims nothing, an unreached one
        // still does.
        assert!(classify(&bare(&l, true), None).is_some());
        let reached = pipe_loop(
            "i",
            8,
            1,
            vec![sequential(
                "k",
                0,
                0,
                vec![unrolled_between(
                    "m",
                    vec![cb(0)],
                    vec![Bound::new(i(), 1)],
                    vec![store("b", vec![m()], load("a", vec![m()]))],
                )],
            )],
        );
        assert!(classify(&bare(&reached, true), None).is_none());
        assert!(classify(&bare(&reached, false), None).is_some());
    }
}
