//! The bounded channel ring: the one definition of in-order FIFO
//! admission shared by the channel certificates, the partitioner's
//! channel sizing and the dataflow co-simulation (DESIGN.md §16).
//!
//! A channel carries one array from a producing stage to its consumers.
//! A *push* is the producer's last write of a cell, in the order those
//! last writes occur; a *pop* is a consumer's read of a pushed cell.
//! Admitting push `m ≥ capacity` reuses the slot of push `m − capacity`,
//! so that element's final read must already have retired at every
//! consumer ([`Ring::admit`]). Cells the producer never writes are
//! live-ins and never enter the ring; pushes nobody reads release at
//! push time.
//!
//! Each caller derives the streams the ring is built from on its own —
//! the certificates from the interpreter's valued loads and stores, the
//! co-simulation from the engine's [`crate::TraceEvent`]s — and states
//! *positions* in its own units: any numbering that orders a stream.

/// Marks a cell without an event.
const NONE: usize = usize::MAX;

/// One channel's push order and final reads, dense over the channel
/// array's cells.
#[derive(Clone, Debug)]
pub struct Ring {
    /// Cells in push order (each cell's last write, in last-write order).
    pushes: Vec<usize>,
    /// Cell → push index (or [`NONE`]).
    push_index: Vec<usize>,
    /// Cell → position of the producer's last write (or [`NONE`]).
    last_write: Vec<usize>,
    /// Per consumer: pushed cell → position of its final read (or
    /// [`NONE`] when that consumer never reads it).
    last_read: Vec<Vec<usize>>,
    /// The positional minimal deadlock-free capacity ([`Ring::depth`]).
    depth: u64,
}

impl Ring {
    /// Builds the ring from the producer's write stream and one read
    /// stream per consumer, each a sequence of `(position, cell)` in
    /// stream order with non-decreasing positions.
    pub fn new<W, R>(writes: W, reads: impl IntoIterator<Item = R>) -> Ring
    where
        W: IntoIterator<Item = (usize, usize)>,
        W::IntoIter: Clone,
        R: IntoIterator<Item = (usize, usize)>,
    {
        let writes = writes.into_iter();
        // Stream index and position of each cell's last write.
        let mut last_at: Vec<usize> = Vec::new();
        let mut last_write: Vec<usize> = Vec::new();
        for (i, (pos, cell)) in writes.clone().enumerate() {
            if cell >= last_at.len() {
                last_at.resize(cell + 1, NONE);
                last_write.resize(cell + 1, NONE);
            }
            last_at[cell] = i;
            last_write[cell] = pos;
        }
        let mut pushes = Vec::new();
        let mut push_index = vec![NONE; last_at.len()];
        for (i, (_, cell)) in writes.enumerate() {
            if last_at[cell] == i {
                push_index[cell] = pushes.len();
                pushes.push(cell);
            }
        }
        // Per consumer, `need[cell]` is K(lr): the highest push index any
        // pop up to the cell's final read requires. Push `j` then keeps
        // its slot until push K(lr_j) is admitted, so the ring needs
        // `K(lr_j) − j + 1` slots.
        let mut depth = 1u64;
        let mut last_read = Vec::new();
        for stream in reads {
            let mut last = vec![NONE; push_index.len()];
            let mut need = vec![0usize; push_index.len()];
            let mut k = 0usize;
            for (pos, cell) in stream {
                let Some(&p) = push_index.get(cell).filter(|&&p| p != NONE) else {
                    continue;
                };
                k = k.max(p);
                last[cell] = pos;
                need[cell] = k;
            }
            for (j, &cell) in pushes.iter().enumerate() {
                if last[cell] != NONE {
                    depth = depth.max((need[cell] - j) as u64 + 1);
                }
            }
            last_read.push(last);
        }
        Ring {
            pushes,
            push_index,
            last_write,
            last_read,
            depth,
        }
    }

    /// The pushed cells, in push order.
    pub fn pushes(&self) -> &[usize] {
        &self.pushes
    }

    /// The push index of `cell`, or `None` for a live-in.
    pub fn push_index(&self, cell: usize) -> Option<usize> {
        dense(&self.push_index, cell)
    }

    /// Position of the producer's last write of `cell` (where its value
    /// becomes final), or `None` for a live-in.
    pub fn last_write(&self, cell: usize) -> Option<usize> {
        dense(&self.last_write, cell)
    }

    /// The positional minimal deadlock-free capacity over all consumers:
    /// `D = 1 + max_j (K(lr_j) − j)`, where `lr_j` is the final read of
    /// push `j` and `K(i)` the highest push index any pop up to position
    /// `i` requires. Pushes nobody reads impose nothing.
    pub fn depth(&self) -> u64 {
        self.depth
    }

    /// The cell whose slot push `k` reuses in a ring of `capacity`
    /// slots, or `None` while the ring still has a free slot.
    pub fn evictee(&self, k: usize, capacity: u64) -> Option<usize> {
        let d = capacity.max(1) as usize;
        (k >= d).then(|| self.pushes[k - d])
    }

    /// The final read of `cell` by each consumer that reads it, as
    /// `(consumer, position)`.
    pub fn final_reads(&self, cell: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.last_read
            .iter()
            .enumerate()
            .filter_map(move |(j, last)| dense(last, cell).map(|pos| (j, pos)))
    }

    /// The eviction rule: push `k` may enter a ring of `capacity` slots
    /// once the element it evicts has had its final read retired at
    /// every consumer, where consumer `j` has retired every read at a
    /// position below `retired(j)`. `Err` carries the evicted cell that
    /// still holds the slot.
    pub fn admit(
        &self,
        k: usize,
        capacity: u64,
        retired: impl Fn(usize) -> usize,
    ) -> Result<(), usize> {
        match self.evictee(k, capacity) {
            Some(cell) if self.final_reads(cell).any(|(j, pos)| pos >= retired(j)) => Err(cell),
            _ => Ok(()),
        }
    }
}

/// `table[cell]`, with [`NONE`] and cells past the table read as `None`.
fn dense(table: &[usize], cell: usize) -> Option<usize> {
    table.get(cell).copied().filter(|&v| v != NONE)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(cells: &[usize]) -> Vec<(usize, usize)> {
        cells.iter().copied().enumerate().collect()
    }

    #[test]
    fn push_order_is_last_write_order() {
        // Cell 0 is rewritten after cell 1, so it is pushed second.
        let ring = Ring::new(stream(&[0, 1, 0, 2]), [stream(&[1, 0, 2])]);
        assert_eq!(ring.pushes(), &[1, 0, 2]);
        assert_eq!(ring.push_index(0), Some(1));
        assert_eq!(ring.last_write(0), Some(2));
        assert_eq!(ring.push_index(7), None);
        assert_eq!(ring.depth(), 1);
    }

    #[test]
    fn admission_waits_for_the_evictees_final_read() {
        // Pushes a,b popped as b,a: push b evicts a in a one-slot ring,
        // but a is read after b.
        let ring = Ring::new(stream(&[0, 1]), [stream(&[1, 0])]);
        assert_eq!(ring.depth(), 2);
        assert_eq!(ring.admit(0, 1, |_| 0), Ok(()));
        assert_eq!(ring.admit(1, 1, |_| 0), Err(0));
        assert_eq!(ring.admit(1, 1, |_| 2), Ok(()));
        assert_eq!(ring.admit(1, 2, |_| 0), Ok(()));
    }

    #[test]
    fn every_consumer_must_release() {
        let ring = Ring::new(stream(&[0, 1]), [stream(&[0, 1]), stream(&[1, 0])]);
        assert_eq!(
            ring.final_reads(0).collect::<Vec<_>>(),
            vec![(0, 0), (1, 1)]
        );
        assert_eq!(ring.admit(1, 1, |j| [1, 1][j]), Err(0));
        assert_eq!(ring.admit(1, 1, |j| [1, 2][j]), Ok(()));
        assert_eq!(ring.depth(), 2);
    }
}
