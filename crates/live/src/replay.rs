//! Differential replay of a claimed contraction.
//!
//! Executes a function twice — once with declared storage for every
//! array, once with the candidate array backed by a contracted buffer
//! of shape `windows` under the remap `e_d ↦ e_d mod W_d` — and
//! requires bit-identical store value streams. Reads of a contracted
//! slot that was never written return the initial value of the *one*
//! original element that first claimed the slot; a second live-in
//! element landing on the same slot is an immediate failure. This makes
//! the check strict: a contraction that merely happens to read two
//! coincidentally-equal seeded values still fails when their cells
//! alias.

use pom_dsl::interp::{seeded_fill, ArrayData};
use pom_dsl::{BinOp, Expr, MemoryState, UnOp};
use pom_ir::interp::walk_stores;
use pom_ir::{AffineFunc, StoreOp};
use pom_poly::AccessFn;
use std::collections::HashMap;

/// Seeds a [`MemoryState`] for an affine function exactly as
/// `MemoryState::for_function_seeded` seeds one for the DSL function it
/// was lowered from, so replay certificates observe the memory the
/// differential test harnesses use.
pub fn seeded_memory(func: &AffineFunc, seed: u64) -> MemoryState {
    let mut mem = MemoryState::new();
    for m in &func.memrefs {
        mem.insert(
            m.name.clone(),
            ArrayData::from_fn(&m.shape, seeded_fill(&m.name, seed)),
        );
    }
    mem
}

/// The contracted (or identity, when `windows == extents`) storage of
/// the array under test.
struct Folded {
    array: String,
    extents: Vec<usize>,
    windows: Vec<i64>,
    data: Vec<f64>,
    written: Vec<bool>,
    /// Flat original index of the element that seeded each slot.
    init_cell: Vec<Option<usize>>,
    initial: Vec<f64>,
}

impl Folded {
    fn new(array: &str, extents: &[usize], windows: &[i64], initial: &[f64]) -> Self {
        let slots: usize = windows.iter().map(|&w| w.max(1) as usize).product();
        Folded {
            array: array.to_string(),
            extents: extents.to_vec(),
            windows: windows.to_vec(),
            data: vec![0.0; slots],
            written: vec![false; slots],
            init_cell: vec![None; slots],
            initial: initial.to_vec(),
        }
    }

    fn flat_orig(&self, idx: &[i64]) -> Result<usize, String> {
        let mut flat = 0usize;
        for (d, &i) in idx.iter().enumerate() {
            let ext = self.extents[d] as i64;
            if i < 0 || i >= ext {
                return Err(format!(
                    "index {i} out of bounds (dim {d}, extent {ext}) on {}",
                    self.array
                ));
            }
            flat = flat * self.extents[d] + i as usize;
        }
        Ok(flat)
    }

    fn slot(&self, idx: &[i64]) -> usize {
        let mut s = 0usize;
        for (d, &i) in idx.iter().enumerate() {
            let w = self.windows[d].max(1);
            s = s * w as usize + i.rem_euclid(w) as usize;
        }
        s
    }

    fn load(&mut self, idx: &[i64]) -> Result<f64, String> {
        let flat = self.flat_orig(idx)?;
        let s = self.slot(idx);
        if self.written[s] {
            return Ok(self.data[s]);
        }
        match self.init_cell[s] {
            None => {
                self.init_cell[s] = Some(flat);
                Ok(self.initial[flat])
            }
            Some(owner) if owner == flat => Ok(self.initial[flat]),
            Some(owner) => Err(format!(
                "two live-in elements of {} alias contracted slot {s} (flat {owner} and {flat})",
                self.array
            )),
        }
    }

    fn store(&mut self, idx: &[i64], v: f64) -> Result<(), String> {
        self.flat_orig(idx)?;
        let s = self.slot(idx);
        self.written[s] = true;
        self.data[s] = v;
        Ok(())
    }
}

struct Exec {
    mem: MemoryState,
    folded: Folded,
    stream: Vec<u64>,
}

impl Exec {
    fn eval(&mut self, e: &Expr, env: &HashMap<String, i64>) -> Result<f64, String> {
        Ok(match e {
            Expr::Load(a) => {
                if a.array == self.folded.array {
                    self.folded.load(&eval_idx(a, env))?
                } else {
                    self.mem.load(a, env)
                }
            }
            Expr::Affine(e) => e.eval_partial(env) as f64,
            Expr::Const(v) => *v,
            Expr::Binary(op, l, r) => {
                let a = self.eval(l, env)?;
                let b = self.eval(r, env)?;
                match op {
                    BinOp::Add => a + b,
                    BinOp::Sub => a - b,
                    BinOp::Mul => a * b,
                    BinOp::Div => a / b,
                    BinOp::Max => a.max(b),
                    BinOp::Min => a.min(b),
                }
            }
            Expr::Unary(UnOp::Neg, e) => -self.eval(e, env)?,
        })
    }

    fn store(&mut self, s: &StoreOp, env: &HashMap<String, i64>) -> Result<(), String> {
        let v = self.eval(&s.value, env)?;
        self.stream.push(v.to_bits());
        if s.dest.array == self.folded.array {
            self.folded.store(&eval_idx(&s.dest, env), v)
        } else {
            self.mem.store(&s.dest, env, v);
            Ok(())
        }
    }
}

fn eval_idx(a: &AccessFn, env: &HashMap<String, i64>) -> Vec<i64> {
    a.indices.iter().map(|e| e.eval_partial(env)).collect()
}

fn run_one(
    func: &AffineFunc,
    mem0: &MemoryState,
    array: &str,
    windows: &[i64],
) -> Result<(Vec<u64>, MemoryState), String> {
    let m = func
        .memref(array)
        .ok_or_else(|| format!("unknown array {array}"))?;
    if windows.len() != m.shape.len() {
        return Err(format!(
            "window rank {} does not match array rank {}",
            windows.len(),
            m.shape.len()
        ));
    }
    let initial = mem0
        .array(array)
        .ok_or_else(|| format!("memory lacks array {array}"))?
        .data()
        .to_vec();
    let mut exec = Exec {
        mem: mem0.clone(),
        folded: Folded::new(array, &m.shape, windows, &initial),
        stream: Vec::new(),
    };
    walk_stores(&func.body, &mut HashMap::new(), &mut |s, env| {
        exec.store(s, env)
    })?;
    Ok((exec.stream, exec.mem))
}

/// Replays `func` with `array` contracted to `windows` and compares the
/// full store value stream (and the final contents of every *other*
/// array) against the uncontracted execution. Returns the number of
/// compared stores on success.
pub fn replay_contraction(
    func: &AffineFunc,
    mem0: &MemoryState,
    array: &str,
    windows: &[i64],
) -> Result<u64, String> {
    // The walker panics on malformed IR (a loop lacking a bound); a
    // certificate check must reject it instead.
    pom_ir::verify(func).map_err(|e| e.to_string())?;
    let m = func
        .memref(array)
        .ok_or_else(|| format!("unknown array {array}"))?;
    let extents: Vec<i64> = m.shape.iter().map(|&s| s as i64).collect();
    let (ref_stream, ref_mem) = run_one(func, mem0, array, &extents)?;
    let (con_stream, con_mem) = run_one(func, mem0, array, windows)?;
    if ref_stream.len() != con_stream.len() {
        return Err(format!(
            "store counts diverge: {} vs {}",
            ref_stream.len(),
            con_stream.len()
        ));
    }
    if let Some(pos) = ref_stream.iter().zip(&con_stream).position(|(a, b)| a != b) {
        return Err(format!(
            "store value stream diverges at store #{pos} on array {array}"
        ));
    }
    for other in &func.memrefs {
        if other.name == array {
            continue;
        }
        let a = ref_mem.array(&other.name).map(ArrayData::data);
        let b = con_mem.array(&other.name).map(ArrayData::data);
        if a != b {
            return Err(format!("final contents of {} diverge", other.name));
        }
    }
    Ok(ref_stream.len() as u64)
}
