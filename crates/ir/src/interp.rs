//! The compiled executor of affine semantics.
//!
//! [`Program`] compiles an [`AffineFunc`] once per call: induction
//! variables become slots of a frame, arrays become indices, and every
//! bound, guard and subscript becomes a row of `(slot, coeff)` terms plus
//! a constant. [`Machine::walk`] visits the store instances of a slice of
//! the program's ops in execution order and hands each one to a callback
//! with its destination and loads resolved to `(array id, flat)`
//! elements. The interpreter ([`execute_func`]), the simulator, the
//! contraction replay and the dataflow stream recorder all run on it; the
//! test suite proves the *fully transformed* program (after any chain of
//! polyhedral transformations and lowering) computes exactly what the
//! reference DSL semantics compute.
//!
//! Semantics, shared by every consumer: a loop runs
//! `max(ceil(lbs))..=min(floor(ubs))`, an `affine.if` body runs only when
//! every guard holds, a term whose variable no enclosing loop binds reads
//! 0 in bounds, subscripts and `Expr::Affine` values (guards instead
//! fault), and an access to an array the memory lacks faults only when it
//! is reached.

use crate::ops::{AffineFunc, AffineOp, ForOp, StoreOp};
use pom_dsl::{ArrayData, BinOp, Expr, MemoryState, UnOp};
use pom_poly::{ceil_div, floor_div, AccessFn, Bound, ConstraintKind, LinearExpr};
use std::fmt;

/// `(array id, flat element index)`: one element of a [`Program`]'s
/// arrays, flattened row-major.
pub type Elem = (usize, usize);

/// Executes a function, mutating `mem`.
///
/// # Panics
///
/// Panics on out-of-bounds accesses or references to missing arrays —
/// those are compiler bugs the tests are designed to surface.
pub fn execute_func(func: &AffineFunc, mem: &mut MemoryState) {
    let prog = Program::new(func);
    let mut m = prog.bind(mem);
    let r = m.walk(prog.ops(), &mut |inst, arrays| {
        arrays.exec(inst);
        Ok::<(), Fault>(())
    });
    m.restore(mem);
    if let Err(fault) = r {
        panic!("{fault}");
    }
}

/// Why an execution stopped.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Fault {
    /// An access to an array the memory does not hold.
    Missing(String),
    /// A subscript outside its dimension.
    OutOfBounds {
        /// The accessed array.
        array: String,
        /// The offending dimension.
        dim: usize,
        /// The subscript's value.
        index: i64,
        /// The dimension's extent.
        size: usize,
    },
    /// An access whose subscript count differs from the array's rank.
    Rank(String),
    /// A guard naming a variable that no enclosing loop binds.
    Unbound(String),
    /// A loop lacking a lower (`true`) or an upper (`false`) bound.
    NoBound(bool),
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::Missing(a) => write!(f, "unknown array {a}"),
            Fault::OutOfBounds {
                dim, index, size, ..
            } => write!(f, "index {index} out of bounds for dim {dim} (size {size})"),
            Fault::Rank(a) => write!(f, "index rank mismatch on {a}"),
            Fault::Unbound(v) => write!(f, "missing value for variable {v}"),
            Fault::NoBound(true) => write!(f, "loop without lower bound"),
            Fault::NoBound(false) => write!(f, "loop without upper bound"),
        }
    }
}

/// `constant + Σ coeff · frame[slot]`.
#[derive(Clone, Debug, Default)]
struct Row {
    terms: Vec<(usize, i64)>,
    constant: i64,
}

impl Row {
    #[inline]
    fn eval(&self, ivs: &[i64]) -> i64 {
        let mut v = self.constant;
        for &(slot, c) in &self.terms {
            v += c * ivs[slot];
        }
        v
    }
}

/// The loops in scope while compiling, innermost last.
struct Scope<'a> {
    bound: Vec<(&'a str, usize)>,
    depth: usize,
}

impl Scope<'_> {
    fn slot(&self, name: &str) -> Option<usize> {
        self.bound
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|&(_, s)| s)
    }

    /// Terms in the expression's own order; unbound ones are dropped, so
    /// they read 0. The first unbound name is returned beside the row.
    fn row<'e>(&self, e: &'e LinearExpr) -> (Row, Option<&'e str>) {
        let mut row = Row {
            terms: Vec::new(),
            constant: e.constant(),
        };
        let mut unbound = None;
        for (name, c) in e.terms() {
            match self.slot(name) {
                Some(s) => row.terms.push((s, c)),
                None => {
                    unbound.get_or_insert(name);
                }
            }
        }
        (row, unbound)
    }
}

/// A compiled subscript list.
#[derive(Clone, Debug)]
struct Access {
    array: usize,
    dims: Vec<Row>,
}

/// A compiled store value; `Load(k)` is the `k`-th load of
/// `Expr::loads` (DFS order).
#[derive(Clone, Debug)]
enum Value {
    Load(usize),
    Affine(Row),
    Const(f64),
    Binary(BinOp, Box<Value>, Box<Value>),
    Neg(Box<Value>),
}

impl Value {
    fn eval(&self, ivs: &[i64], load: &mut impl FnMut(usize) -> f64) -> f64 {
        match self {
            Value::Load(k) => load(*k),
            Value::Affine(r) => r.eval(ivs) as f64,
            Value::Const(v) => *v,
            Value::Binary(op, l, r) => {
                let a = l.eval(ivs, load);
                let b = r.eval(ivs, load);
                match op {
                    BinOp::Add => a + b,
                    BinOp::Sub => a - b,
                    BinOp::Mul => a * b,
                    BinOp::Div => a / b,
                    BinOp::Max => a.max(b),
                    BinOp::Min => a.min(b),
                }
            }
            Value::Neg(e) => -e.eval(ivs, load),
        }
    }
}

/// A compiled `affine.for`.
#[derive(Clone, Debug)]
pub struct Loop<'a> {
    /// The source op (attributes, induction-variable name).
    pub op: &'a ForOp,
    /// The frame slot holding the induction variable (its depth).
    slot: usize,
    lbs: Vec<(Row, i64)>,
    ubs: Vec<(Row, i64)>,
    /// The compiled body.
    pub body: Vec<Op<'a>>,
}

impl Loop<'_> {
    /// The inclusive trip range under the frame `ivs`: the largest lower
    /// bound and the smallest upper bound (empty when the second is below
    /// the first).
    ///
    /// # Errors
    ///
    /// [`Fault::NoBound`] when the loop lacks a lower or an upper bound.
    #[inline]
    pub fn bounds(&self, ivs: &[i64]) -> Result<(i64, i64), Fault> {
        let lb = self
            .lbs
            .iter()
            .map(|(r, d)| ceil_div(r.eval(ivs), *d))
            .max()
            .ok_or(Fault::NoBound(true))?;
        let ub = self
            .ubs
            .iter()
            .map(|(r, d)| floor_div(r.eval(ivs), *d))
            .min()
            .ok_or(Fault::NoBound(false))?;
        Ok((lb, ub))
    }
}

/// One compiled guard condition.
#[derive(Clone, Debug)]
struct Cond<'a> {
    row: Row,
    eq: bool,
    unbound: Option<&'a str>,
}

/// A compiled `affine.if`.
#[derive(Clone, Debug)]
pub struct Guard<'a> {
    conds: Vec<Cond<'a>>,
    /// The compiled body.
    pub body: Vec<Op<'a>>,
}

impl Guard<'_> {
    /// True when every condition holds under `ivs`, checked in order.
    ///
    /// # Errors
    ///
    /// [`Fault::Unbound`] when a checked condition names a variable no
    /// enclosing loop binds.
    #[inline]
    pub fn holds(&self, ivs: &[i64]) -> Result<bool, Fault> {
        for c in &self.conds {
            if let Some(v) = c.unbound {
                return Err(Fault::Unbound(v.to_string()));
            }
            let v = c.row.eval(ivs);
            if !(if c.eq { v == 0 } else { v >= 0 }) {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

/// A compiled `affine.store`.
#[derive(Clone, Debug)]
pub struct Store<'a> {
    /// The source op.
    pub op: &'a StoreOp,
    dest: Access,
    loads: Vec<Access>,
    value: Value,
}

/// A compiled op.
#[derive(Clone, Debug)]
pub enum Op<'a> {
    /// `affine.for`.
    For(Loop<'a>),
    /// `affine.if`.
    If(Guard<'a>),
    /// `affine.store`.
    Store(Store<'a>),
}

/// An [`AffineFunc`] compiled for execution.
#[derive(Clone, Debug)]
pub struct Program<'a> {
    /// Array names by id: the declared memrefs in order, then any array
    /// an access names without a declaration.
    arrays: Vec<&'a str>,
    /// Declared shapes by id (`None` past the memrefs).
    declared: Vec<Option<&'a [usize]>>,
    ops: Vec<Op<'a>>,
    depth: usize,
}

impl<'a> Program<'a> {
    /// Compiles `func`. Nothing is checked here: a malformed op faults
    /// when (and only when) execution reaches it.
    pub fn new(func: &'a AffineFunc) -> Self {
        let mut p = Program {
            arrays: func.memrefs.iter().map(|m| m.name.as_str()).collect(),
            declared: func.memrefs.iter().map(|m| Some(&m.shape[..])).collect(),
            ops: Vec::new(),
            depth: 0,
        };
        let mut scope = Scope {
            bound: Vec::new(),
            depth: 0,
        };
        p.ops = p.compile(&func.body, &mut scope);
        p
    }

    /// The top-level ops, one per op of the function's body.
    pub fn ops(&self) -> &[Op<'a>] {
        &self.ops
    }

    /// Array names by id.
    pub fn arrays(&self) -> &[&'a str] {
        &self.arrays
    }

    /// The id of array `name`.
    pub fn array_id(&self, name: &str) -> Option<usize> {
        self.arrays.iter().position(|&a| a == name)
    }

    fn compile(&mut self, ops: &'a [AffineOp], scope: &mut Scope<'a>) -> Vec<Op<'a>> {
        ops.iter()
            .map(|op| match op {
                AffineOp::For(l) => {
                    let bound = |b: &Bound, scope: &Scope<'a>| (scope.row(&b.expr).0, b.div);
                    let lbs = l.lbs.iter().map(|b| bound(b, scope)).collect();
                    let ubs = l.ubs.iter().map(|b| bound(b, scope)).collect();
                    let slot = scope.depth;
                    scope.depth += 1;
                    self.depth = self.depth.max(scope.depth);
                    scope.bound.push((l.iv.as_str(), slot));
                    let body = self.compile(&l.body, scope);
                    // Leaving a loop unbinds its name, even one an outer
                    // loop of the same name had bound.
                    scope.bound.retain(|(n, _)| *n != l.iv);
                    scope.depth -= 1;
                    Op::For(Loop {
                        op: l,
                        slot,
                        lbs,
                        ubs,
                        body,
                    })
                }
                AffineOp::If(i) => Op::If(Guard {
                    conds: i
                        .conds
                        .iter()
                        .map(|c| {
                            let (row, unbound) = scope.row(&c.expr);
                            Cond {
                                row,
                                eq: c.kind == ConstraintKind::Eq,
                                unbound,
                            }
                        })
                        .collect(),
                    body: self.compile(&i.body, scope),
                }),
                AffineOp::Store(s) => {
                    let loads = s
                        .value
                        .loads()
                        .into_iter()
                        .map(|a| self.access(a, scope))
                        .collect();
                    let mut next = 0;
                    Op::Store(Store {
                        op: s,
                        dest: self.access(&s.dest, scope),
                        loads,
                        value: value(&s.value, scope, &mut next),
                    })
                }
            })
            .collect()
    }

    fn access(&mut self, a: &'a AccessFn, scope: &Scope<'a>) -> Access {
        let array = self.array_id(&a.array).unwrap_or_else(|| {
            self.arrays.push(&a.array);
            self.declared.push(None);
            self.arrays.len() - 1
        });
        Access {
            array,
            dims: a.indices.iter().map(|e| scope.row(e).0).collect(),
        }
    }

    /// A machine over `mem`'s arrays, moved out of it (no copy) until
    /// [`Machine::restore`] puts them back. An array `mem` lacks faults
    /// when an access reaches it.
    pub fn bind(&self, mem: &mut MemoryState) -> Machine<'a> {
        let mut m = self.machine();
        for (id, name) in self.arrays.iter().enumerate() {
            if let Some((key, data)) = mem.take_entry(name) {
                m.arrays.layouts[id] = Some(Layout::of(data.shape()));
                m.arrays.data[id] = data;
                m.arrays.keys[id] = Some(key);
            }
        }
        m
    }

    /// A machine without memory: declared arrays have their declared
    /// layout, for walks that only resolve elements.
    pub fn layout_only(&self) -> Machine<'a> {
        let mut m = self.machine();
        for (id, shape) in self.declared.iter().enumerate() {
            m.arrays.layouts[id] = shape.map(Layout::of);
        }
        m
    }

    fn machine(&self) -> Machine<'a> {
        let n = self.arrays.len();
        Machine {
            ivs: vec![0; self.depth],
            loads: Vec::new(),
            arrays: Arrays {
                names: self.arrays.clone(),
                layouts: vec![None; n],
                data: (0..n).map(|_| ArrayData::zeros(&[0])).collect(),
                keys: vec![None; n],
            },
        }
    }
}

fn value(e: &Expr, scope: &Scope<'_>, next: &mut usize) -> Value {
    match e {
        Expr::Load(_) => {
            *next += 1;
            Value::Load(*next - 1)
        }
        Expr::Affine(a) => Value::Affine(scope.row(a).0),
        Expr::Const(v) => Value::Const(*v),
        Expr::Binary(op, l, r) => {
            let l = value(l, scope, next);
            let r = value(r, scope, next);
            Value::Binary(*op, Box::new(l), Box::new(r))
        }
        Expr::Unary(UnOp::Neg, e) => Value::Neg(Box::new(value(e, scope, next))),
    }
}

/// Row-major extents and strides of one bound array.
#[derive(Clone, Debug)]
struct Layout {
    shape: Vec<usize>,
    strides: Vec<usize>,
}

impl Layout {
    fn of(shape: &[usize]) -> Layout {
        let mut strides = vec![1; shape.len()];
        for d in (0..shape.len().saturating_sub(1)).rev() {
            strides[d] = strides[d + 1] * shape[d + 1];
        }
        Layout {
            shape: shape.to_vec(),
            strides,
        }
    }
}

/// The arrays of one execution, by id.
#[derive(Debug)]
pub struct Arrays<'a> {
    names: Vec<&'a str>,
    /// `None`: an access faults with [`Fault::Missing`].
    layouts: Vec<Option<Layout>>,
    data: Vec<ArrayData>,
    /// The memory key each array was moved out under.
    keys: Vec<Option<String>>,
}

impl Arrays<'_> {
    /// The extents of array `id`, when it is bound.
    pub fn shape(&self, id: usize) -> Option<&[usize]> {
        self.layouts[id].as_ref().map(|l| &l.shape[..])
    }

    /// Reads one element.
    #[inline]
    pub fn get(&self, (a, flat): Elem) -> f64 {
        self.data[a].data()[flat]
    }

    /// Writes one element.
    #[inline]
    pub fn set(&mut self, (a, flat): Elem, v: f64) {
        self.data[a].data_mut()[flat] = v;
    }

    /// Executes one store instance: evaluates its value over the current
    /// contents, writes the destination and returns the value.
    #[inline]
    pub fn exec(&mut self, inst: &Inst<'_, '_, '_>) -> f64 {
        let v = inst.value(|k| self.get(inst.loads[k]));
        self.set(inst.dest, v);
        v
    }

    #[inline]
    fn resolve(&self, a: &Access, ivs: &[i64]) -> Result<Elem, Fault> {
        let Some(lay) = &self.layouts[a.array] else {
            return Err(Fault::Missing(self.names[a.array].to_string()));
        };
        if a.dims.len() != lay.shape.len() {
            return Err(Fault::Rank(self.names[a.array].to_string()));
        }
        let mut flat = 0usize;
        for (dim, row) in a.dims.iter().enumerate() {
            let index = row.eval(ivs);
            let size = lay.shape[dim];
            if index < 0 || index as usize >= size {
                return Err(Fault::OutOfBounds {
                    array: self.names[a.array].to_string(),
                    dim,
                    index,
                    size,
                });
            }
            flat += index as usize * lay.strides[dim];
        }
        Ok((a.array, flat))
    }
}

/// One store instance, resolved: the compiled store (borrowed for
/// `'p`), and the machine's scratch for this instance (borrowed for `'i`).
#[derive(Debug)]
pub struct Inst<'i, 'p, 'a> {
    /// The compiled store.
    pub store: &'p Store<'a>,
    /// The element written.
    pub dest: Elem,
    /// The elements read, in `Expr::loads` order.
    pub loads: &'i [Elem],
    /// The frame: induction-variable values by slot.
    pub ivs: &'i [i64],
}

impl Inst<'_, '_, '_> {
    /// The stored value, with `load(k)` supplying the `k`-th load's value.
    #[inline]
    pub fn value(&self, mut load: impl FnMut(usize) -> f64) -> f64 {
        self.store.value.eval(self.ivs, &mut load)
    }
}

/// The state of one execution of a [`Program`]: the frame and the
/// arrays.
#[derive(Debug)]
pub struct Machine<'a> {
    ivs: Vec<i64>,
    loads: Vec<Elem>,
    /// The arrays, by id.
    pub arrays: Arrays<'a>,
}

impl<'a> Machine<'a> {
    /// The frame: induction-variable values by slot.
    pub fn ivs(&self) -> &[i64] {
        &self.ivs
    }

    /// Sets the induction variable of `l` for a walk of its body.
    #[inline]
    pub fn set_iv(&mut self, l: &Loop<'_>, v: i64) {
        self.ivs[l.slot] = v;
    }

    /// Puts every array moved out by [`Program::bind`] back into `mem`.
    pub fn restore(self, mem: &mut MemoryState) {
        let Arrays { data, keys, .. } = self.arrays;
        for (data, key) in data.into_iter().zip(keys) {
            if let Some(key) = key {
                mem.insert(key, data);
            }
        }
    }

    /// The one walker of affine semantics: visits every store instance of
    /// `ops` in execution order — loops over [`Loop::bounds`], `affine.if`
    /// bodies only when [`Guard::holds`] — calling `on_store` with the
    /// resolved instance and the arrays. The frame carries the enclosing
    /// loops' values in. The first error stops the walk and is returned.
    ///
    /// # Errors
    ///
    /// A [`Fault`] of the walk itself, or `on_store`'s error.
    pub fn walk<'p, E, F>(&mut self, ops: &'p [Op<'a>], on_store: &mut F) -> Result<(), E>
    where
        E: From<Fault>,
        F: FnMut(&Inst<'_, 'p, 'a>, &mut Arrays<'a>) -> Result<(), E>,
    {
        for op in ops {
            match op {
                Op::For(l) => {
                    let (lb, ub) = l.bounds(&self.ivs)?;
                    for v in lb..=ub {
                        self.ivs[l.slot] = v;
                        self.walk(&l.body, on_store)?;
                    }
                }
                Op::If(g) => {
                    if g.holds(&self.ivs)? {
                        self.walk(&g.body, on_store)?;
                    }
                }
                Op::Store(s) => {
                    self.loads.clear();
                    for a in &s.loads {
                        let e = self.arrays.resolve(a, &self.ivs)?;
                        self.loads.push(e);
                    }
                    let dest = self.arrays.resolve(&s.dest, &self.ivs)?;
                    let inst = Inst {
                        store: s,
                        dest,
                        loads: &self.loads,
                        ivs: &self.ivs,
                    };
                    on_store(&inst, &mut self.arrays)?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::MemRefDecl;
    use crate::lower::{lower_to_affine, StmtBody};
    use pom_dsl::{reference_execute, DataType, Function};
    use pom_poly::AstBuilder;
    use std::collections::HashMap;

    /// End-to-end semantic equivalence: GEMM through split+interchange vs
    /// the reference interpreter.
    #[test]
    fn transformed_gemm_matches_reference() {
        let n = 6usize;
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
            a.at(&[&i, &j]) + b.at(&[&i, &k]) * c.at(&[&k, &j]),
            a.access(&[&i, &j]),
        );

        // Reference execution.
        let mut ref_mem = MemoryState::for_function_seeded(&f, 7);
        reference_execute(&f, &mut ref_mem);

        // Transformed execution: tile i,j by 2x3 then interchange intra-
        // tile loops; note GEMM is fully permutable in i and j, and k stays
        // innermost per statement instance ordering... k must keep relative
        // order w.r.t. itself only, which any reordering of (i, j) respects.
        let comp = f.find_compute("s").unwrap();
        let mut sp = comp.to_stmt_poly();
        sp.tile("i", "j", 2, 3, "i0", "j0", "i1", "j1");
        sp.interchange("i1", "j1");
        let mut builder = AstBuilder::new();
        builder.add_stmt(sp);
        let ast = builder.build();

        let bodies: HashMap<String, StmtBody> = [(
            "s".to_string(),
            StmtBody {
                name: "s".into(),
                orig_dims: comp.iter_names(),
                body: comp.body().clone(),
                store: comp.store().clone(),
            },
        )]
        .into();
        let memrefs = f
            .placeholders()
            .iter()
            .map(|p| MemRefDecl::new(p.name(), p.shape(), p.dtype()))
            .collect();
        let func = lower_to_affine("gemm", memrefs, &ast, &bodies);
        crate::verify::verify(&func).expect("valid IR");

        let mut ir_mem = MemoryState::for_function_seeded(&f, 7);
        execute_func(&func, &mut ir_mem);

        assert_eq!(
            ref_mem.array("A").unwrap().data(),
            ir_mem.array("A").unwrap().data()
        );
    }

    /// Skewing a Jacobi-style time stencil must preserve semantics.
    #[test]
    fn skewed_stencil_matches_reference() {
        let steps = 4i64;
        let width = 10i64;
        let mut f = Function::new("jacobi");
        let t = f.var("t", 1, steps);
        let i = f.var("i", 1, width - 1);
        let b = f.placeholder("B", &[steps as usize, width as usize], DataType::F32);
        let tm1 = t.expr() - 1;
        let im1 = i.expr() - 1;
        let ip1 = i.expr() + 1;
        f.compute(
            "s",
            &[t.clone(), i.clone()],
            (b.at(&[tm1.clone(), im1.clone()])
                + b.at(&[tm1.clone(), i.expr()])
                + b.at(&[tm1.clone(), ip1.clone()]))
                / 3.0,
            b.access(&[&t, &i]),
        );

        let mut ref_mem = MemoryState::for_function_seeded(&f, 3);
        reference_execute(&f, &mut ref_mem);

        let comp = f.find_compute("s").unwrap();
        let mut sp = comp.to_stmt_poly();
        sp.skew("t", "i", 1, "t2", "i2");
        let mut builder = AstBuilder::new();
        builder.add_stmt(sp);
        let bodies: HashMap<String, StmtBody> = [(
            "s".to_string(),
            StmtBody {
                name: "s".into(),
                orig_dims: comp.iter_names(),
                body: comp.body().clone(),
                store: comp.store().clone(),
            },
        )]
        .into();
        let memrefs = f
            .placeholders()
            .iter()
            .map(|p| MemRefDecl::new(p.name(), p.shape(), p.dtype()))
            .collect();
        let func = lower_to_affine("jacobi", memrefs, &builder.build(), &bodies);
        crate::verify::verify(&func).expect("valid IR");

        let mut ir_mem = MemoryState::for_function_seeded(&f, 3);
        execute_func(&func, &mut ir_mem);
        assert_eq!(
            ref_mem.array("B").unwrap().data(),
            ir_mem.array("B").unwrap().data()
        );
    }
}
