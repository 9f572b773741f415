//! Interpreter-order access-stream extraction.
//!
//! Channel sizing and certificate replay both need the *order* in which
//! a stage touches each channel array's elements — the producer's store
//! stream defines the push order (its last write of an element is the
//! push), the consumer's load stream defines the pop order. This module
//! walks a stage's top-level ops with the interpreter's own walker
//! (`pom_ir::interp::Machine::walk`) and records the accesses to the
//! arrays asked for — only channel arrays are ever recorded — as flat
//! element indices, optionally executing every store so that downstream
//! stages observe produced values.

use pom_ir::interp::{Fault, Machine, Program};

/// Ordered access streams of one stage, by array id (empty for an array
/// that was not recorded).
///
/// Values are the loaded/stored `f64`s when the walk executed against
/// memory, and `0.0` placeholders for a shape-only walk.
#[derive(Clone, Debug, Default)]
pub(crate) struct StageStreams {
    /// Every recorded store, in interpreter order: `(flat, value)`.
    pub writes: Vec<Vec<(usize, f64)>>,
    /// Every recorded load, in interpreter order: `(flat, value)`.
    pub reads: Vec<Vec<(usize, f64)>>,
}

impl StageStreams {
    /// The loads of array `id`.
    pub fn reads(&self, id: Option<usize>) -> &[(usize, f64)] {
        id.and_then(|id| self.reads.get(id)).map_or(&[], |r| &r[..])
    }

    /// The push stream of array `id`: its stores filtered to each
    /// element's *last* write, preserving the order in which those last
    /// writes occur. This matches the channel semantics of
    /// `pom_sim::simulate_dataflow`, where a push is the producer's
    /// final write of an element.
    pub fn pushes(&self, id: Option<usize>) -> Vec<(usize, f64)> {
        let Some(ws) = id.and_then(|id| self.writes.get(id)) else {
            return Vec::new();
        };
        let cells = ws.iter().map(|&(e, _)| e + 1).max().unwrap_or(0);
        let mut last = vec![usize::MAX; cells];
        for (i, &(e, _)) in ws.iter().enumerate() {
            last[e] = i;
        }
        ws.iter()
            .enumerate()
            .filter(|&(i, &(e, _))| last[e] == i)
            .map(|(_, &ev)| ev)
            .collect()
    }
}

/// Walks the top-level ops `ops` of `prog` in interpreter order on `m`
/// and records the accesses to every array `id` with `record[id]`. With
/// `exec`, every store is executed (loads read the current memory, the
/// stored value is recorded), so walking stages sequentially on one
/// bound machine reproduces `execute_func` exactly; without it the walk
/// only resolves elements (`m` may then be a layout-only machine).
///
/// # Errors
///
/// The walk's [`Fault`] (an out-of-bounds access, an array `m` lacks).
pub(crate) fn stage_streams<'a>(
    prog: &Program<'a>,
    m: &mut Machine<'a>,
    ops: &[usize],
    record: &[bool],
    exec: bool,
) -> Result<StageStreams, Fault> {
    let mut st = StageStreams {
        writes: vec![Vec::new(); record.len()],
        reads: vec![Vec::new(); record.len()],
    };
    for &i in ops {
        m.walk(std::slice::from_ref(&prog.ops()[i]), &mut |inst, arrays| {
            for &e in inst.loads {
                if record[e.0] {
                    let v = if exec { arrays.get(e) } else { 0.0 };
                    st.reads[e.0].push((e.1, v));
                }
            }
            let v = if exec { arrays.exec(inst) } else { 0.0 };
            if record[inst.dest.0] {
                st.writes[inst.dest.0].push((inst.dest.1, v));
            }
            Ok::<(), Fault>(())
        })?;
    }
    Ok(st)
}
