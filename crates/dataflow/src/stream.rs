//! Interpreter-order access-stream extraction.
//!
//! Channel sizing and certificate replay both need the *order* in which
//! a stage touches each array's elements — the producer's store stream
//! defines the push order (its last write of an element is the push),
//! the consumer's load stream defines the pop order. This module walks
//! a stage's top-level ops with the interpreter's own walker
//! (`pom_ir::interp::walk_stores`) and records every access as a flat
//! element index, optionally executing the stores so that downstream
//! stages observe produced values.

use pom_dsl::{interp::eval_expr, MemoryState};
use pom_ir::interp::walk_stores;
use pom_ir::AffineFunc;
use pom_poly::AccessFn;
use std::collections::HashMap;
use std::convert::Infallible;

/// Ordered per-array access streams of one stage.
///
/// Values are the loaded/stored `f64`s when the walk executed against a
/// [`MemoryState`], and `0.0` placeholders for a shape-only walk.
#[derive(Clone, Debug, Default)]
pub(crate) struct StageStreams {
    /// Every store, per array, in interpreter order: `(flat, value)`.
    pub writes: HashMap<String, Vec<(usize, f64)>>,
    /// Every load, per array, in interpreter order: `(flat, value)`.
    pub reads: HashMap<String, Vec<(usize, f64)>>,
}

impl StageStreams {
    /// The push stream of `array`: its stores filtered to each element's
    /// *last* write, preserving the order in which those last writes
    /// occur. This matches the channel semantics of
    /// `pom_sim::simulate_dataflow`, where a push is the producer's
    /// final write of an element.
    pub fn pushes(&self, array: &str) -> Vec<(usize, f64)> {
        let Some(ws) = self.writes.get(array) else {
            return Vec::new();
        };
        let mut last: HashMap<usize, usize> = HashMap::new();
        for (i, (e, _)) in ws.iter().enumerate() {
            last.insert(*e, i);
        }
        ws.iter()
            .enumerate()
            .filter(|(i, (e, _))| last[e] == *i)
            .map(|(_, &ev)| ev)
            .collect()
    }
}

/// Declared shapes by array name.
pub(crate) fn shapes_of(func: &AffineFunc) -> HashMap<String, Vec<usize>> {
    func.memrefs
        .iter()
        .map(|m| (m.name.clone(), m.shape.clone()))
        .collect()
}

/// Flattens an access under `env` with the same row-major convention as
/// `ArrayData::flat_index` and the simulator's element ids.
fn flat_of(a: &AccessFn, shape: &[usize], env: &HashMap<String, i64>) -> usize {
    assert_eq!(a.indices.len(), shape.len(), "index rank mismatch");
    let mut flat = 0usize;
    for (d, (e, &n)) in a.indices.iter().zip(shape).enumerate() {
        let i = e.eval_partial(env);
        assert!(
            i >= 0 && (i as usize) < n,
            "index {i} out of bounds for dim {d} (size {n}) of {}",
            a.array
        );
        flat = flat * n + i as usize;
    }
    flat
}

/// Walks the stage made of `func.body[ops]` in interpreter order and
/// returns its access streams. With `mem`, every store is executed
/// (loads read the current memory, the stored value is recorded), so
/// walking stages sequentially reproduces `execute_func` exactly.
pub(crate) fn stage_streams(
    func: &AffineFunc,
    ops: &[usize],
    mut mem: Option<&mut MemoryState>,
) -> StageStreams {
    let shapes = shapes_of(func);
    let mut st = StageStreams::default();
    let mut env = HashMap::new();
    for &i in ops {
        let op = std::slice::from_ref(&func.body[i]);
        let Ok(()) = walk_stores(op, &mut env, &mut |s, env| {
            for a in s.value.loads() {
                let flat = flat_of(a, &shapes[&a.array], env);
                let v = mem.as_deref().map_or(0.0, |m| m.load(a, env));
                st.reads.entry(a.array.clone()).or_default().push((flat, v));
            }
            let flat = flat_of(&s.dest, &shapes[&s.dest.array], env);
            let v = if let Some(m) = mem.as_deref_mut() {
                let v = eval_expr(&s.value, env, m);
                m.store(&s.dest, env, v);
                v
            } else {
                0.0
            };
            st.writes
                .entry(s.dest.array.clone())
                .or_default()
                .push((flat, v));
            Ok::<(), Infallible>(())
        });
    }
    st
}
