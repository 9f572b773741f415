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
//!    iterators stay symbolic ([`analyze_pipeline`]).
//! 2. Accesses are classified exactly as the simulator's `time_iteration`
//!    does: a load forwarded from an earlier same-iteration store costs no
//!    port, repeated reads of one element cost one port, and only the last
//!    writer of an element writes back. The aliasing questions this poses
//!    for symbolic iterators are answered by the congruence/FM layer in
//!    `pom_poly::congruence` — `false` answers are proofs.
//! 3. Surviving accesses are grouped into *bank classes*: residues of the
//!    index expressions modulo the cyclic partition factors (mixed-radix
//!    across dimensions, same combine as the simulator's `bank_of`). When
//!    every pair of accesses has congruent coefficients, class
//!    cardinalities are iteration-invariant and the per-bank demand is
//!    exact ([`BankProfile::max_demand`]).
//!
//! From the profile follow an exact bank-aware ResMII
//! ([`BankAnalysis::exact_res_mii`]), a conflict-freedom predicate
//! backing POM006 certificates ([`BankAnalysis::conflict_free`]), and a
//! minimal conflict-free partition search for DSE repair
//! ([`minimal_conflict_free_factors`]).
//!
//! Whenever the structure is not analyzable — guards inside the pipeline
//! body, non-constant inner-loop bounds, undecidable aliasing, or more
//! than [`INSTANCE_CAP`] instances — the analysis degrades to *inexact*
//! and claims nothing, so every exact verdict it does emit is sound.

#![warn(missing_docs)]

use pom_dsl::PartitionStyle;
use pom_ir::{AffineFunc, AffineOp, ForOp, MemRefDecl};
use pom_poly::{ceil_div, congruent_coeffs, floor_div, fm, residue, Constraint, DimId, LinearExpr};
use std::collections::HashMap;

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
            let b = if bd.factor <= 1 {
                0
            } else if bd.cyclic {
                c.rem_euclid(bd.factor)
            } else {
                (c / bd.chunk).min(bd.factor - 1)
            };
            bank = bank * bd.factor as u64 + b as u64;
        }
        bank as u32
    }

    /// The bank a row-major flat element index lives in.
    ///
    /// # Panics
    ///
    /// Panics on arrays of rank > 8 (never produced by the DSL).
    pub fn bank_of_flat(&self, flat: usize) -> u32 {
        assert!(self.shape.len() <= 8, "arrays of rank > 8 are not banked");
        let mut coords = [0i64; 8];
        let mut rem = flat;
        for d in (0..self.shape.len()).rev() {
            let n = self.shape[d].max(1);
            coords[d] = (rem % n) as i64;
            rem /= n;
        }
        self.bank_of_coords(&coords[..self.shape.len()])
    }
}

// ---------------------------------------------------------------------
// Access instances of one pipeline iteration
// ---------------------------------------------------------------------

/// One access instance: array name plus index expressions in which
/// unrolled iterators have been replaced by their concrete values and
/// free iterators (pipeline + enclosing sequential) remain symbolic.
#[derive(Clone, Debug)]
struct Access<'a> {
    array: &'a str,
    idx: Vec<LinearExpr>,
}

/// One store instance of a pipeline iteration, in program order.
struct Inst<'a> {
    loads: Vec<Access<'a>>,
    dest: Access<'a>,
}

/// Enumerates the store instances of one pipeline iteration.
struct Collector<'a> {
    /// Concrete values of the pinned iterators: a case assignment, then
    /// the unrolled (in-pipeline) loops entered so far, innermost last.
    env: Vec<(DimId, i64)>,
    insts: Vec<Inst<'a>>,
    exact: bool,
    /// Set when inexactness came from an inner loop whose bounds mention
    /// a symbolic iterator — the one failure case enumeration repairs.
    symbolic_bounds: bool,
}

impl<'a> Collector<'a> {
    fn new(env: Vec<(DimId, i64)>) -> Self {
        Collector {
            env,
            insts: Vec::new(),
            exact: true,
            symbolic_bounds: false,
        }
    }

    /// `e` with every pinned iterator folded into the constant.
    fn fold(&self, e: &LinearExpr) -> LinearExpr {
        let mut e = e.clone();
        for &(iv, v) in self.env.iter().rev() {
            let c = e.coeff_id(iv);
            if c != 0 {
                e.set_coeff_id(iv, 0);
                e.add_constant(c.checked_mul(v).expect("index constant overflows i64"));
            }
        }
        e
    }

    fn subst(&self, a: &'a pom_poly::AccessFn) -> Access<'a> {
        Access {
            array: &a.array,
            idx: a.indices.iter().map(|e| self.fold(e)).collect(),
        }
    }

    /// Bounds of an in-pipeline loop; `None` when they depend on a
    /// symbolic (free) iterator and the instance set varies per iteration.
    fn const_bounds(&self, l: &ForOp) -> Option<(i64, i64)> {
        let closed = |e: &LinearExpr| {
            let e = self.fold(e);
            e.is_constant().then(|| e.constant())
        };
        let lbs: Option<Vec<i64>> = l
            .lbs
            .iter()
            .map(|b| Some(ceil_div(closed(&b.expr)?, b.div)))
            .collect();
        let ubs: Option<Vec<i64>> = l
            .ubs
            .iter()
            .map(|b| Some(floor_div(closed(&b.expr)?, b.div)))
            .collect();
        Some((lbs?.into_iter().max()?, ubs?.into_iter().min()?))
    }

    fn collect(&mut self, ops: &'a [AffineOp]) {
        for op in ops {
            if !self.exact {
                return;
            }
            match op {
                AffineOp::Store(s) => {
                    if self.insts.len() >= INSTANCE_CAP {
                        self.exact = false;
                        return;
                    }
                    let loads = s.value.loads().iter().map(|a| self.subst(a)).collect();
                    let dest = self.subst(&s.dest);
                    self.insts.push(Inst { loads, dest });
                }
                // A guard over symbolic iterators makes the instance set
                // iteration-dependent; claim nothing.
                AffineOp::If(_) => {
                    self.exact = false;
                    return;
                }
                AffineOp::For(l) => {
                    let Some((lb, ub)) = self.const_bounds(l) else {
                        self.exact = false;
                        self.symbolic_bounds = true;
                        return;
                    };
                    let iv = DimId::intern(&l.iv);
                    for v in lb..=ub {
                        self.env.push((iv, v));
                        self.collect(&l.body);
                        self.env.pop();
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Symbolic aliasing
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

/// Decides whether two accesses of the same array refer to the same
/// element, over the free-iterator `domain`.
fn alias(a: &Access, b: &Access, domain: &[Constraint], fm_budget: &mut usize) -> Alias {
    if a.idx.len() != b.idx.len() {
        return Alias::Unknown;
    }
    // Index pairs with one linear part differ by a constant everywhere:
    // unrolled copies of one access, the common case, are decided here
    // without building a difference.
    let same_linear = |x: &LinearExpr, y: &LinearExpr| x.terms_ids() == y.terms_ids();
    let mut symbolic = false;
    for (x, y) in a.idx.iter().zip(&b.idx) {
        if !same_linear(x, y) {
            symbolic = true;
        } else if x.constant() != y.constant() {
            return Alias::Never;
        }
    }
    if !symbolic {
        return Alias::Same;
    }
    // Some dimension differs symbolically: equal only where the equality
    // system is feasible. Rational FM over-approximates the integers, so
    // `Never` is sound and `Unknown` is the honest remainder.
    if *fm_budget == 0 {
        return Alias::Unknown;
    }
    *fm_budget -= 1;
    let mut cs = domain.to_vec();
    for (x, y) in a.idx.iter().zip(&b.idx) {
        if !same_linear(x, y) {
            cs.push(Constraint::eq_zero(x.clone() - y.clone()));
        }
    }
    if fm::feasible(&cs) {
        Alias::Unknown
    } else {
        Alias::Never
    }
}

// ---------------------------------------------------------------------
// Profiles
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
    let mut dom = Vec::new();
    for (iv, lb, ub) in outer {
        dom.push(Constraint::ge(
            LinearExpr::var(iv),
            LinearExpr::constant_expr(*lb),
        ));
        dom.push(Constraint::le(
            LinearExpr::var(iv),
            LinearExpr::constant_expr(*ub),
        ));
    }
    push_iv_bounds(&mut dom, pipe);

    let mut col = Collector::new(Vec::new());
    col.collect(&pipe.body);
    if col.exact {
        return profiles_of(memrefs, &col.insts, &dom);
    }
    if !col.symbolic_bounds || guarded {
        return BankAnalysis::inexact();
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
    let mut mentioned = std::collections::BTreeSet::new();
    bound_vars(&pipe.body, &mut inner, &mut mentioned);
    let case_vars: Vec<&str> = mentioned
        .iter()
        .map(String::as_str)
        .filter(|v| !inner.iter().any(|iv| iv == v))
        .collect();
    let mut cases = 1usize;
    for v in &case_vars {
        let Some((lb, ub)) = ranges.get(v) else {
            return BankAnalysis::inexact();
        };
        let n = (ub - lb + 1).max(0) as usize;
        cases = cases.saturating_mul(n);
        if cases == 0 || cases > CASE_CAP {
            return BankAnalysis::inexact();
        }
    }

    let mut envs: Vec<Vec<(DimId, i64)>> = vec![Vec::new()];
    for v in &case_vars {
        let (lb, ub) = ranges[v];
        let iv = DimId::intern(v);
        envs = envs
            .into_iter()
            .flat_map(|e| {
                (lb..=ub).map(move |val| {
                    let mut e = e.clone();
                    e.push((iv, val));
                    e
                })
            })
            .collect();
    }

    let mut merged: Vec<BankProfile> = Vec::new();
    for env in envs {
        let mut col = Collector::new(env);
        col.collect(&pipe.body);
        if !col.exact {
            return BankAnalysis::inexact();
        }
        let an = profiles_of(memrefs, &col.insts, &dom);
        if !an.exact {
            return BankAnalysis::inexact();
        }
        for p in an.profiles {
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
    }
    BankAnalysis {
        exact: true,
        profiles: merged,
    }
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
fn bound_vars(
    ops: &[AffineOp],
    inner: &mut Vec<String>,
    mentioned: &mut std::collections::BTreeSet<String>,
) {
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

/// Adds `lb <= iv <= ub` to `dom` when the loop's bounds are constant.
fn push_iv_bounds(dom: &mut Vec<Constraint>, l: &ForOp) {
    let env = HashMap::new();
    if l.lbs.iter().all(|b| b.expr.is_constant()) && l.ubs.iter().all(|b| b.expr.is_constant()) {
        if let (Some(lb), Some(ub)) = (
            l.lbs.iter().map(|b| b.eval_lower(&env)).max(),
            l.ubs.iter().map(|b| b.eval_upper(&env)).min(),
        ) {
            dom.push(Constraint::ge(
                LinearExpr::var(&l.iv),
                LinearExpr::constant_expr(lb),
            ));
            dom.push(Constraint::le(
                LinearExpr::var(&l.iv),
                LinearExpr::constant_expr(ub),
            ));
        }
    }
}

/// Classifies the collected instances (simulator semantics: forwarding,
/// read dedupe, last-writer write-back) and groups the surviving
/// accesses into bank classes.
fn profiles_of(memrefs: &[MemRefDecl], insts: &[Inst], domain: &[Constraint]) -> BankAnalysis {
    let mut fm_budget = FM_BUDGET;

    // Memory reads: an element read before any same-iteration write comes
    // from memory; repeated reads of one element cost one port.
    let mut written: Vec<&Access> = Vec::new();
    let mut mem_reads: Vec<&Access> = Vec::new();
    for inst in insts {
        'load: for a in &inst.loads {
            for w in written.iter().filter(|w| w.array == a.array) {
                match alias(a, w, domain, &mut fm_budget) {
                    Alias::Same => continue 'load,
                    Alias::Never => {}
                    Alias::Unknown => return BankAnalysis::inexact(),
                }
            }
            for r in mem_reads.iter().filter(|r| r.array == a.array) {
                match alias(a, r, domain, &mut fm_budget) {
                    Alias::Same => continue 'load,
                    Alias::Never => {}
                    Alias::Unknown => return BankAnalysis::inexact(),
                }
            }
            mem_reads.push(a);
        }
        written.push(&inst.dest);
    }

    // Write-backs: only the last writer of each element touches memory.
    let mut writes: Vec<&Access> = Vec::new();
    for (i, inst) in insts.iter().enumerate() {
        let mut dead = false;
        for later in &insts[i + 1..] {
            if later.dest.array != inst.dest.array {
                continue;
            }
            match alias(&inst.dest, &later.dest, domain, &mut fm_budget) {
                Alias::Same => {
                    dead = true;
                    break;
                }
                Alias::Never => {}
                Alias::Unknown => return BankAnalysis::inexact(),
            }
        }
        if !dead {
            writes.push(&inst.dest);
        }
    }

    let mut profiles = Vec::new();
    for m in memrefs {
        let reads: Vec<&&Access> = mem_reads.iter().filter(|a| a.array == m.name).collect();
        let wr: Vec<&&Access> = writes.iter().filter(|a| a.array == m.name).collect();
        if reads.is_empty() && wr.is_empty() {
            continue;
        }
        let ab = ArrayBanks::of(m);
        let mut demand: HashMap<Vec<i64>, (u64, u64)> = HashMap::new();
        let mut key_ok = true;
        let reference = reads.first().or(wr.first()).expect("non-empty");
        'acc: for (a, is_write) in reads
            .iter()
            .map(|a| (**a, false))
            .chain(wr.iter().map(|a| (**a, true)))
        {
            if a.idx.len() != ab.dims.len() {
                key_ok = false;
                break;
            }
            let mut key = Vec::with_capacity(ab.dims.len());
            for (d, bd) in ab.dims.iter().enumerate() {
                if bd.factor <= 1 {
                    key.push(0);
                    continue;
                }
                let e = &a.idx[d];
                if bd.cyclic {
                    // Classes are iteration-invariant exactly when every
                    // access is congruent (mod factor) to the reference.
                    let r = &reference.idx[d];
                    if !congruent_coeffs(e, r, bd.factor) {
                        key_ok = false;
                        break 'acc;
                    }
                    key.push(residue(e.constant() - r.constant(), bd.factor));
                } else {
                    // Block mapping: exact only for constant indices.
                    if !e.is_constant() {
                        key_ok = false;
                        break 'acc;
                    }
                    key.push((e.constant().max(0) / bd.chunk).min(bd.factor - 1));
                }
            }
            let slot = demand.entry(key).or_insert((0, 0));
            if is_write {
                slot.1 += 1;
            } else {
                slot.0 += 1;
            }
        }
        let max_demand = demand.values().map(|&(r, w)| r + w).max().unwrap_or(0);
        let max_read_demand = demand.values().map(|&(r, _)| r).max().unwrap_or(0);
        profiles.push(BankProfile {
            array: m.name.clone(),
            banks: ab.banks(),
            reads: reads.len() as u64,
            writes: wr.len() as u64,
            exact: key_ok,
            classes: if key_ok { demand.len() as u64 } else { 0 },
            max_demand: if key_ok { max_demand } else { 0 },
            max_read_demand: if key_ok { max_read_demand } else { 0 },
        });
    }
    BankAnalysis {
        exact: true,
        profiles,
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
                analysis: site.analyze(&func.memrefs),
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

impl PipelineSite<'_> {
    fn analyze(&self, memrefs: &[MemRefDecl]) -> BankAnalysis {
        analyze_pipeline(memrefs, self.pipe, &self.outer, self.guarded)
    }
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
    let mid = func.memrefs.iter().position(|m| m.name == array)?;
    // A loop that never touches `array` has no profile for it under any
    // partitioning, and a trial changes nothing but `array`'s declaration.
    let sites: Vec<PipelineSite> = pipelines(func)
        .into_iter()
        .filter(|site| touches(&site.pipe.body, array))
        .collect();
    let worst = |memrefs: &[MemRefDecl]| -> u64 {
        let mut worst = 0u64;
        for site in &sites {
            let analysis = site.analyze(memrefs);
            if !analysis.exact {
                continue;
            }
            for p in &analysis.profiles {
                if p.array == array && p.exact {
                    worst = worst.max(p.max_demand);
                }
            }
        }
        worst
    };
    let mut cur = func.memrefs.clone();
    let mut demand = worst(&cur);
    if demand <= ports_per_bank.max(1) {
        return None; // already conflict-free: nothing to repair
    }
    loop {
        // Try doubling each dimension's factor; keep the best reducer.
        let shape = cur[mid].shape.clone();
        let base: Vec<i64> = match &cur[mid].partition {
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
            let kept = cur[mid].partition.clone();
            set_partition(&mut cur[mid], &factors);
            let w = worst(&cur);
            cur[mid].partition = kept;
            if best.as_ref().is_none_or(|(bw, _)| w < *bw) {
                best = Some((w, factors));
            }
        }
        let (w, factors) = best?;
        if w >= demand {
            return None; // no dimension split reduces the demand
        }
        set_partition(&mut cur[mid], &factors);
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
}
