//! Interpreter-order access-stream extraction.
//!
//! Channel sizing and certificate replay both need the *order* in which
//! a stage touches each channel array's elements — the producer's store
//! stream defines the push order (its last write of an element is the
//! push), the consumer's load stream defines the pop order; [`ring`]
//! turns them into the channel's `pom_sim::Ring`. This module
//! walks a stage's top-level ops with the interpreter's own walker
//! (`pom_ir::interp::Machine::walk`) and records the accesses to the
//! arrays asked for — only channel arrays are ever recorded — as flat
//! element indices, optionally executing every store so that downstream
//! stages observe produced values.

use pom_ir::interp::{Fault, Machine, Program};
use pom_sim::Ring;

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

    /// The stores of array `id`.
    pub fn writes(&self, id: Option<usize>) -> &[(usize, f64)] {
        id.and_then(|id| self.writes.get(id))
            .map_or(&[], |w| &w[..])
    }
}

/// The [`Ring`] of a channel whose producer stores `writes` and whose
/// consumers load `reads`, each stream positioned by its index. The
/// ring's push order is each element's last write, in the order those
/// last writes occur — the semantics of `pom_sim::simulate_dataflow`.
pub(crate) fn ring<'s>(
    writes: &'s [(usize, f64)],
    reads: impl IntoIterator<Item = &'s [(usize, f64)]>,
) -> Ring {
    let positioned = |s: &'s [(usize, f64)]| s.iter().enumerate().map(|(i, &(e, _))| (i, e));
    Ring::new(positioned(writes), reads.into_iter().map(positioned))
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
