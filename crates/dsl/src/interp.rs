//! Reference interpreter: the sequential semantics of a [`Function`],
//! against which every transformed/generated program is checked.

use crate::expr::{BinOp, Expr, UnOp};
use crate::function::Function;
use crate::types::Placeholder;
use pom_poly::AccessFn;
use std::collections::HashMap;
use std::fmt;

/// A dense n-dimensional `f64` array.
#[derive(Clone, Debug, PartialEq)]
pub struct ArrayData {
    shape: Vec<usize>,
    data: Vec<f64>,
}

impl ArrayData {
    /// Creates a zero-filled array.
    pub fn zeros(shape: &[usize]) -> Self {
        ArrayData {
            shape: shape.to_vec(),
            data: vec![0.0; shape.iter().product()],
        }
    }

    /// Creates an array for a placeholder, filled by `f(flat_index)`.
    pub fn from_fn(shape: &[usize], f: impl Fn(usize) -> f64) -> Self {
        ArrayData {
            shape: shape.to_vec(),
            data: (0..shape.iter().product()).map(f).collect(),
        }
    }

    /// The shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// The raw data, row-major.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// The raw data, row-major, mutably (the shape is fixed).
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    fn flat_index(&self, idx: &[i64]) -> usize {
        assert_eq!(idx.len(), self.shape.len(), "index rank mismatch");
        let mut flat = 0usize;
        for (d, (&i, &n)) in idx.iter().zip(&self.shape).enumerate() {
            assert!(
                i >= 0 && (i as usize) < n,
                "index {i} out of bounds for dim {d} (size {n})"
            );
            flat = flat * n + i as usize;
        }
        flat
    }

    /// Reads one element.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds access.
    pub fn get(&self, idx: &[i64]) -> f64 {
        self.data[self.flat_index(idx)]
    }

    /// Writes one element.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds access.
    pub fn set(&mut self, idx: &[i64], value: f64) {
        let f = self.flat_index(idx);
        self.data[f] = value;
    }

    /// Overwrites every element with `f(flat_index)` in place, reusing
    /// the existing allocation (the shape is unchanged).
    pub fn refill(&mut self, f: impl Fn(usize) -> f64) {
        for (i, v) in self.data.iter_mut().enumerate() {
            *v = f(i);
        }
    }
}

impl fmt::Display for ArrayData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "array{:?} ({} elems)", self.shape, self.data.len())
    }
}

/// The seeded contents of array `name`, as a function of the flat element
/// index: the one mixing function behind every seeded [`MemoryState`], so
/// a state seeded from a DSL function and one seeded from its lowered
/// form hold identical values.
pub fn seeded_fill(name: &str, seed: u64) -> impl Fn(usize) -> f64 {
    let name_salt: u64 = name.bytes().map(u64::from).sum();
    move |i| {
        let mut x = (i as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(seed ^ name_salt);
        x ^= x >> 29;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 32;
        ((x % 1000) as f64) / 100.0 - 5.0
    }
}

/// Named array storage shared by the reference interpreter and the IR
/// interpreter in `pom-ir`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MemoryState {
    arrays: HashMap<String, ArrayData>,
}

impl MemoryState {
    /// Empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates zero-filled arrays for all placeholders of a function.
    pub fn for_function(f: &Function) -> Self {
        let mut s = Self::new();
        for p in f.placeholders() {
            s.insert_zeros(p);
        }
        s
    }

    /// Allocates deterministic pseudo-random contents for all placeholders
    /// (a fixed mixing function of the flat index), so reference and
    /// optimized executions start identical.
    pub fn for_function_seeded(f: &Function, seed: u64) -> Self {
        let mut s = Self::new();
        s.reseed_for_function(f, seed);
        s
    }

    /// Resets this state to exactly [`MemoryState::for_function_seeded`]
    /// contents, reusing the existing allocation of every array whose
    /// shape is unchanged. Arrays not among `f`'s placeholders are
    /// dropped, so back-to-back simulations through one reused state see
    /// identical initial memory. This is the allocation-free path batch
    /// simulation (`pom-sim`'s arena) leans on.
    pub fn reseed_for_function(&mut self, f: &Function, seed: u64) {
        self.arrays
            .retain(|name, _| f.placeholders().iter().any(|p| p.name() == name));
        for p in f.placeholders() {
            let fill = seeded_fill(p.name(), seed);
            match self.arrays.get_mut(p.name()) {
                Some(a) if a.shape() == p.shape() => a.refill(fill),
                _ => {
                    self.arrays
                        .insert(p.name().to_string(), ArrayData::from_fn(p.shape(), fill));
                }
            }
        }
    }

    /// Inserts a zero-filled array for a placeholder.
    pub fn insert_zeros(&mut self, p: &Placeholder) {
        self.arrays
            .insert(p.name().to_string(), ArrayData::zeros(p.shape()));
    }

    /// Inserts an explicit array.
    pub fn insert(&mut self, name: impl Into<String>, a: ArrayData) {
        self.arrays.insert(name.into(), a);
    }

    /// Immutable array lookup.
    pub fn array(&self, name: &str) -> Option<&ArrayData> {
        self.arrays.get(name)
    }

    /// Mutable array lookup.
    pub fn array_mut(&mut self, name: &str) -> Option<&mut ArrayData> {
        self.arrays.get_mut(name)
    }

    /// Removes an array together with its key, so that [`Self::insert`]
    /// can put it back without copying either.
    pub fn take_entry(&mut self, name: &str) -> Option<(String, ArrayData)> {
        self.arrays.remove_entry(name)
    }

    /// Reads through an access function under an iterator environment.
    pub fn load(&self, access: &AccessFn, env: &HashMap<String, i64>) -> f64 {
        let idx: Vec<i64> = access.indices.iter().map(|e| e.eval_partial(env)).collect();
        self.arrays
            .get(&access.array)
            .unwrap_or_else(|| panic!("unknown array {}", access.array))
            .get(&idx)
    }

    /// Writes through an access function under an iterator environment.
    pub fn store(&mut self, access: &AccessFn, env: &HashMap<String, i64>, value: f64) {
        let idx: Vec<i64> = access.indices.iter().map(|e| e.eval_partial(env)).collect();
        self.arrays
            .get_mut(&access.array)
            .unwrap_or_else(|| panic!("unknown array {}", access.array))
            .set(&idx, value);
    }
}

/// Evaluates a compute-body expression.
pub fn eval_expr(expr: &Expr, env: &HashMap<String, i64>, mem: &MemoryState) -> f64 {
    match expr {
        Expr::Load(a) => mem.load(a, env),
        Expr::Affine(e) => e.eval_partial(env) as f64,
        Expr::Const(v) => *v,
        Expr::Binary(op, l, r) => {
            let a = eval_expr(l, env, mem);
            let b = eval_expr(r, env, mem);
            match op {
                BinOp::Add => a + b,
                BinOp::Sub => a - b,
                BinOp::Mul => a * b,
                BinOp::Div => a / b,
                BinOp::Max => a.max(b),
                BinOp::Min => a.min(b),
            }
        }
        Expr::Unary(UnOp::Neg, e) => -eval_expr(e, env, mem),
    }
}

/// Executes a function with the *reference* (unoptimized, sequential)
/// semantics: computes in declaration order, loops in declared iterator
/// order.
pub fn reference_execute(f: &Function, mem: &mut MemoryState) {
    for c in f.computes() {
        let iters = c.iters().to_vec();
        let mut env: HashMap<String, i64> = HashMap::new();
        exec_loops(&iters, 0, &mut env, &mut |env| {
            let v = eval_expr(c.body(), env, mem);
            mem.store(c.store(), env, v);
        });
    }
}

fn exec_loops(
    iters: &[crate::types::Var],
    level: usize,
    env: &mut HashMap<String, i64>,
    body: &mut impl FnMut(&HashMap<String, i64>),
) {
    if level == iters.len() {
        body(env);
        return;
    }
    let v = &iters[level];
    for x in v.lb()..v.ub() {
        env.insert(v.name().to_string(), x);
        exec_loops(iters, level + 1, env, body);
    }
    env.remove(v.name());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{DataType, Var};

    #[test]
    fn array_indexing_row_major() {
        let mut a = ArrayData::zeros(&[2, 3]);
        a.set(&[1, 2], 7.5);
        assert_eq!(a.get(&[1, 2]), 7.5);
        assert_eq!(a.data()[5], 7.5);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_access_panics() {
        ArrayData::zeros(&[2, 3]).get(&[2, 0]);
    }

    #[test]
    fn gemm_reference_matches_manual() {
        let n = 4usize;
        let mut f = Function::new("gemm");
        let i = f.var("i", 0, n as i64);
        let j = f.var("j", 0, n as i64);
        let k = f.var("k", 0, n as i64);
        let a = f.placeholder("A", &[n, n], DataType::F32);
        let b = f.placeholder("B", &[n, n], DataType::F32);
        let c = f.placeholder("C", &[n, n], DataType::F32);
        f.compute(
            "s",
            &[k.clone(), i.clone(), j.clone()],
            a.at(&[&i, &j]) + b.at(&[&i, &k]) * c.at(&[&k, &j]),
            a.access(&[&i, &j]),
        );

        let mut mem = MemoryState::new();
        mem.insert("A", ArrayData::zeros(&[n, n]));
        mem.insert("B", ArrayData::from_fn(&[n, n], |x| x as f64));
        mem.insert("C", ArrayData::from_fn(&[n, n], |x| (x % 3) as f64));
        let b_copy = mem.array("B").unwrap().clone();
        let c_copy = mem.array("C").unwrap().clone();

        reference_execute(&f, &mut mem);

        for ii in 0..n as i64 {
            for jj in 0..n as i64 {
                let mut acc = 0.0;
                for kk in 0..n as i64 {
                    acc += b_copy.get(&[ii, kk]) * c_copy.get(&[kk, jj]);
                }
                assert_eq!(mem.array("A").unwrap().get(&[ii, jj]), acc);
            }
        }
    }

    #[test]
    fn stencil_reference_semantics() {
        // B[i] = (A[i-1] + A[i] + A[i+1]) / 3 over i in [1, 6].
        let mut f = Function::new("jacobi");
        let i = Var::new("i", 1, 7);
        let a = f.placeholder("A", &[8], DataType::F32);
        let b = f.placeholder("B", &[8], DataType::F32);
        let im1 = i.expr() - 1;
        let ip1 = i.expr() + 1;
        f.compute(
            "s",
            std::slice::from_ref(&i),
            (a.at(std::slice::from_ref(&im1)) + a.at(&[&i]) + a.at(std::slice::from_ref(&ip1)))
                / 3.0,
            b.access(&[&i]),
        );
        let mut mem = MemoryState::new();
        mem.insert("A", ArrayData::from_fn(&[8], |x| x as f64));
        mem.insert("B", ArrayData::zeros(&[8]));
        reference_execute(&f, &mut mem);
        // Average of consecutive integers is the middle one.
        for ii in 1..7 {
            assert!((mem.array("B").unwrap().get(&[ii]) - ii as f64).abs() < 1e-9);
        }
        assert_eq!(mem.array("B").unwrap().get(&[0]), 0.0);
    }

    #[test]
    fn seeded_state_is_deterministic() {
        let mut f = Function::new("f");
        let i = f.var("i", 0, 4);
        let a = f.placeholder("A", &[4], DataType::F32);
        f.compute(
            "s",
            std::slice::from_ref(&i),
            a.at(&[&i]) * 2.0,
            a.access(&[&i]),
        );
        let m1 = MemoryState::for_function_seeded(&f, 42);
        let m2 = MemoryState::for_function_seeded(&f, 42);
        let m3 = MemoryState::for_function_seeded(&f, 43);
        assert_eq!(m1, m2);
        assert_ne!(m1, m3);
    }

    #[test]
    fn eval_expr_ops() {
        let mem = MemoryState::new();
        let env = HashMap::new();
        let e = Expr::max(Expr::constant(-2.0), Expr::constant(1.0)) + 3.0;
        assert_eq!(eval_expr(&e, &env, &mem), 4.0);
        let e = -(Expr::constant(5.0) / 2.0);
        assert_eq!(eval_expr(&e, &env, &mem), -2.5);
        let e = Expr::min(Expr::constant(-2.0), Expr::constant(1.0));
        assert_eq!(eval_expr(&e, &env, &mem), -2.0);
    }
}
