//! The machine's speed, sampled inside every child between its requests,
//! and the scaling of host times to a reference speed.
//!
//! The sandbox this benchmark runs in executes the same code up to 2x
//! slower or faster from one second to the next (CPU time moves with
//! wall time, so it is the processor that slows, not the scheduler that
//! steals). Over 140 alternating readings a compile pass and this loop
//! moved together (correlation 0.90): medians of ten raw pass times
//! spread by 32 % of their median, medians of ten scaled ones by 3 %.
//! Every child therefore runs slices of the loop between requests, one
//! per 100 ms gone by, and its host times are scaled by the mean slice.
//! Scaling a whole run by one factor was tried and left 11 %; readings
//! taken by the parent around each child left 5 to 18 %, because the
//! speed moves by 8 % (median) across a one-second pass.
//!
//! The loop is the harness's own code and shares nothing with the
//! compiler, so a change to the compiler cannot move it.

use crate::stats::{fnv1a, Rng};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Host times are reported as on a machine that runs one slice of the
/// reference loop in this many seconds.
pub const REFERENCE_SLICE_S: f64 = 0.02;

const SLICE_ROUNDS: u64 = 200;

/// One slice is due for every this much time since the last tick.
const SLICE_EVERY: Duration = Duration::from_millis(100);

const MAX_SLICES: u128 = 5;

/// One round of work shaped like the compiler's: Fourier–Motzkin-style
/// elimination over small integer rows, text rendering and hashing,
/// ordered-map traffic, many short-lived allocations.
fn round(seed: u64) -> u64 {
    let mut rng = Rng::new(seed);
    let mut rows: Vec<Vec<i64>> = (0..24)
        .map(|_| (0..8).map(|_| (rng.next_u64() % 7) as i64 - 3).collect())
        .collect();
    for var in 0..4 {
        let (pos, rest): (Vec<_>, Vec<_>) = rows.into_iter().partition(|r| r[var] > 0);
        let (neg, mut next): (Vec<_>, Vec<_>) = rest.into_iter().partition(|r| r[var] < 0);
        for p in &pos {
            for n in &neg {
                let (a, b) = (p[var], -n[var]);
                next.push(
                    p.iter()
                        .zip(n)
                        .map(|(x, y)| (b * x + a * y) % 1009)
                        .collect(),
                );
            }
        }
        next.truncate(40);
        rows = next;
    }
    let mut acc = 0u64;
    let mut text = String::new();
    let mut seen: BTreeMap<String, u64> = BTreeMap::new();
    for (i, row) in rows.iter().enumerate() {
        text.clear();
        for c in row {
            let _ = write!(text, "{c}*i{i} + ");
        }
        acc ^= fnv1a(text.as_bytes());
        *seen.entry(text.clone()).or_insert(0) += acc;
    }
    acc ^ seen.values().fold(0, |a, b| a ^ b)
}

/// One slice of the reference loop: fixed work, returned as a checksum.
fn slice() -> u64 {
    (0..SLICE_ROUNDS).fold(0, |acc, i| acc ^ round(black_box(i)))
}

/// Samples the machine's speed between a child's requests.
pub struct SliceMeter {
    last: Option<Instant>,
    slices: u32,
    /// Seconds the counted slices took.
    seconds: f64,
    /// Seconds all slices took, the uncounted first one included.
    spent: f64,
}

impl SliceMeter {
    pub fn new() -> Self {
        SliceMeter {
            last: None,
            slices: 0,
            seconds: 0.0,
            spent: 0.0,
        }
    }

    /// Runs the slices that are due: one per [`SLICE_EVERY`] since the
    /// last tick, at most [`MAX_SLICES`], so a child of two long requests
    /// is sampled about as densely as one of seventy short ones (with
    /// three slices per child, scaling `store_rw` added more spread than
    /// it removed). Call between requests only: a slice takes about
    /// 20 ms and must stay out of every request's time.
    pub fn tick(&mut self) {
        let due = match self.last {
            Some(at) => (at.elapsed().as_millis() / SLICE_EVERY.as_millis()).min(MAX_SLICES),
            None => {
                // The first slice of a process pays for cold caches and
                // fresh heap pages: it is run, not counted.
                self.timed_slice();
                1
            }
        };
        for _ in 0..due {
            self.seconds += self.timed_slice();
            self.slices += 1;
            self.last = Some(Instant::now());
        }
    }

    fn timed_slice(&mut self) -> f64 {
        let start = Instant::now();
        black_box(slice());
        let seconds = start.elapsed().as_secs_f64();
        self.spent += seconds;
        seconds
    }

    /// Seconds spent in slices so far. They are single-threaded and
    /// never wait, so this is also their CPU time.
    pub fn spent(&self) -> f64 {
        self.spent
    }

    /// What this child's host times are multiplied by to read as on the
    /// reference machine: the reference slice time over the mean slice.
    pub fn scale(&self) -> f64 {
        scale(self.slices, self.seconds)
    }
}

fn scale(slices: u32, seconds: f64) -> f64 {
    if seconds > 0.0 {
        f64::from(slices) * REFERENCE_SLICE_S / seconds
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The loop is the yardstick of every timing in the ledger: changing
    /// its work rescales them all, so its checksum is pinned.
    #[test]
    fn a_slice_is_fixed_work() {
        assert_eq!(slice(), slice());
        assert_eq!(slice(), 0xa966_685a_3c3e_1d3e);
    }

    #[test]
    fn scale_is_one_at_reference_speed_and_shrinks_a_slow_machines_times() {
        assert_eq!(scale(3, 3.0 * REFERENCE_SLICE_S), 1.0);
        // The slices took twice as long: the machine is half as fast, and
        // a time measured on it counts half.
        assert_eq!(scale(4, 8.0 * REFERENCE_SLICE_S), 0.5);
        assert_eq!(scale(0, 0.0), 1.0, "no slice, no scaling");
    }

    #[test]
    fn the_first_tick_takes_a_slice_and_the_next_one_waits() {
        let mut m = SliceMeter::new();
        m.tick();
        let after_one = m.spent();
        assert!(after_one > 0.0 && m.scale() > 0.0);
        assert_eq!(m.slices, 1, "the warm-up slice is not counted");
        m.tick();
        assert_eq!(m.spent(), after_one, "well inside SLICE_EVERY");
    }
}
