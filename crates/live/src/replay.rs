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
use pom_dsl::MemoryState;
use pom_ir::interp::{Fault, Program};
use pom_ir::AffineFunc;

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
struct Folded<'m> {
    array: &'m str,
    /// The contracted slot of every original element (flat index).
    slot_of: Vec<usize>,
    data: Vec<f64>,
    written: Vec<bool>,
    /// Flat original index of the element that seeded each slot.
    init_cell: Vec<Option<usize>>,
    initial: &'m [f64],
}

impl<'m> Folded<'m> {
    fn new(array: &'m str, extents: &[usize], windows: &[i64], initial: &'m [f64]) -> Self {
        let slots: usize = windows.iter().map(|&w| w.max(1) as usize).product();
        let cells: usize = extents.iter().product();
        let slot_of = (0..cells)
            .map(|flat| {
                // Peel the coordinates off innermost-first; each folds to
                // `e_d mod W_d`, combined row-major over the windows.
                let (mut rest, mut slot, mut weight) = (flat, 0usize, 1usize);
                for (&n, &w) in extents.iter().zip(windows).rev() {
                    let w = w.max(1) as usize;
                    slot += (rest % n) % w * weight;
                    rest /= n;
                    weight *= w;
                }
                slot
            })
            .collect();
        Folded {
            array,
            slot_of,
            data: vec![0.0; slots],
            written: vec![false; slots],
            init_cell: vec![None; slots],
            initial,
        }
    }

    fn load(&mut self, flat: usize) -> Result<f64, String> {
        let s = self.slot_of[flat];
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

    fn store(&mut self, flat: usize, v: f64) {
        let s = self.slot_of[flat];
        self.written[s] = true;
        self.data[s] = v;
    }
}

/// Why a replay run stopped.
enum Stop {
    Fault(Fault),
    Diverged(String),
}

impl From<Fault> for Stop {
    fn from(f: Fault) -> Stop {
        Stop::Fault(f)
    }
}

impl From<Stop> for String {
    fn from(s: Stop) -> String {
        match s {
            Stop::Fault(Fault::Missing(a)) => format!("memory lacks array {a}"),
            Stop::Fault(Fault::OutOfBounds {
                array,
                dim,
                index,
                size,
            }) => format!("index {index} out of bounds (dim {dim}, extent {size}) on {array}"),
            Stop::Fault(f) => f.to_string(),
            Stop::Diverged(why) => why,
        }
    }
}

/// Executes `prog` over a copy of `mem0` with array `id` backed by a
/// [`Folded`] buffer of shape `windows`; returns the store value stream
/// and the final memory.
fn run_one(
    prog: &Program<'_>,
    mem0: &MemoryState,
    id: usize,
    windows: &[i64],
) -> Result<(Vec<u64>, MemoryState), String> {
    let array = prog.arrays()[id];
    let initial = mem0
        .array(array)
        .ok_or_else(|| format!("memory lacks array {array}"))?;
    let mut folded = Folded::new(array, initial.shape(), windows, initial.data());
    let mut mem = mem0.clone();
    let mut m = prog.bind(&mut mem);
    let mut stream = Vec::new();
    let mut vals = Vec::new();
    let run = m.walk(prog.ops(), &mut |inst, arrays| {
        vals.clear();
        for &e in inst.loads {
            vals.push(if e.0 == id {
                folded.load(e.1).map_err(Stop::Diverged)?
            } else {
                arrays.get(e)
            });
        }
        let v = inst.value(|k| vals[k]);
        stream.push(v.to_bits());
        if inst.dest.0 == id {
            folded.store(inst.dest.1, v);
        } else {
            arrays.set(inst.dest, v);
        }
        Ok::<(), Stop>(())
    });
    m.restore(&mut mem);
    run?;
    Ok((stream, mem))
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
    // Malformed IR (a loop lacking a bound, an undeclared array) is
    // rejected before anything runs.
    pom_ir::verify(func).map_err(|e| e.to_string())?;
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
    if let Some(held) = mem0.array(array).filter(|a| a.shape() != m.shape) {
        return Err(format!(
            "memory holds {array} as {:?}, declared {:?}",
            held.shape(),
            m.shape
        ));
    }
    let prog = Program::new(func);
    let id = prog.array_id(array).expect("declared above");
    let extents: Vec<i64> = m.shape.iter().map(|&s| s as i64).collect();
    let (ref_stream, ref_mem) = run_one(&prog, mem0, id, &extents)?;
    let (con_stream, con_mem) = run_one(&prog, mem0, id, windows)?;
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
