//! Channel-sizing certificates: bounded-ring replay of the element
//! streams (DESIGN.md §16.3).
//!
//! A [`crate::Channel`]'s capacity is *certified* by replaying the
//! producer's push stream and every consumer's pop stream through a
//! ring of exactly the certified capacity, under the same blocking
//! rules the co-simulation uses: a pop of element `e` requires the push
//! of `e`, and the `k`-th push requires the element of push
//! `k − capacity` to be fully released (its last pop committed). The
//! replay discharges one [`ObligationKind::ChannelSized`] obligation
//! per consumer: no deadlock, and every popped value bit-identical to
//! the pushed one.

use crate::stream::stage_streams;
use crate::DataflowPlan;
use pom_dsl::MemoryState;
use pom_ir::interp::{Fault, Program};
use pom_ir::AffineFunc;
use pom_verify::{Certificate, Obligation, ObligationKind};
use std::collections::HashMap;

/// Outcome of replaying one consumer's stream through a bounded ring.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Replay {
    /// The stream flowed through: `pushes` forwarded, `reads` served
    /// (of which `live_ins` bypassed the channel), values identical.
    Ok {
        /// Pushes forwarded through the ring.
        pushes: usize,
        /// Reads served.
        reads: usize,
        /// Reads of elements the producer never writes (seeded live-ins).
        live_ins: usize,
    },
    /// Serving read `read` requires a push whose ring slot is still
    /// occupied by element `holds` (its last read has not happened yet).
    Deadlock {
        /// Read position that wedged.
        read: usize,
        /// Flat element index still occupying the needed slot.
        holds: usize,
    },
    /// Read `read` of element `elem` popped `got` but the producer
    /// pushed `want`.
    Mismatch {
        /// Read position that diverged.
        read: usize,
        /// Flat element index.
        elem: usize,
        /// Value observed by the consumer.
        got: f64,
        /// Value pushed by the producer.
        want: f64,
    },
}

/// Replays one consumer's pop stream against the producer's push stream
/// through a ring of `capacity` slots. Streams carry `(flat, value)`
/// pairs; a shape-only replay (all values `0.0`) degrades to a pure
/// deadlock check.
pub(crate) fn replay_channel(
    pushes: &[(usize, f64)],
    reads: &[(usize, f64)],
    capacity: u64,
) -> Replay {
    let d = capacity.max(1) as usize;
    let push_index: HashMap<usize, usize> = pushes
        .iter()
        .enumerate()
        .map(|(k, (e, _))| (*e, k))
        .collect();
    let mut last_read: HashMap<usize, usize> = HashMap::new();
    for (i, (e, _)) in reads.iter().enumerate() {
        if push_index.contains_key(e) {
            last_read.insert(*e, i);
        }
    }
    let mut ring: HashMap<usize, f64> = HashMap::new();
    let mut next_push = 0usize;
    let mut live_ins = 0usize;
    for (i, (e, want)) in reads.iter().enumerate() {
        let Some(&k) = push_index.get(e) else {
            live_ins += 1;
            continue;
        };
        while next_push <= k {
            if next_push >= d {
                let (pe, _) = pushes[next_push - d];
                if last_read.get(&pe).is_some_and(|&lr| lr >= i) {
                    return Replay::Deadlock { read: i, holds: pe };
                }
            }
            let (pe, pv) = pushes[next_push];
            ring.insert(pe, pv);
            next_push += 1;
        }
        let got = ring[e];
        if got.to_bits() != want.to_bits() {
            return Replay::Mismatch {
                read: i,
                elem: *e,
                got,
                want: *want,
            };
        }
    }
    Replay::Ok {
        pushes: pushes.len(),
        reads: reads.len(),
        live_ins,
    }
}

/// The minimal deadlock-free FIFO depth for one consumer, computed
/// positionally: with a ring, push `k` reuses the slot of push
/// `k − depth`, so depth must exceed `K(lr_j) − j` for every push `j`,
/// where `lr_j` is the position of `j`'s last pop and `K(i)` is the
/// highest push index any pop up to `i` requires. Elements never popped
/// release at push time and impose nothing.
pub(crate) fn min_fifo_depth(pushes: &[usize], reads: &[usize]) -> u64 {
    let push_index: HashMap<usize, usize> =
        pushes.iter().enumerate().map(|(k, &e)| (e, k)).collect();
    let mut last_read: HashMap<usize, usize> = HashMap::new();
    let mut k_run = Vec::with_capacity(reads.len());
    let mut k = 0usize;
    let mut any = false;
    for (i, e) in reads.iter().enumerate() {
        if let Some(&p) = push_index.get(e) {
            last_read.insert(*e, i);
            k = if any { k.max(p) } else { p };
            any = true;
        }
        k_run.push(if any { Some(k) } else { None });
    }
    let mut depth = 1u64;
    for (j, e) in pushes.iter().enumerate() {
        if let Some(&lr) = last_read.get(e) {
            if let Some(kk) = k_run[lr] {
                depth = depth.max((kk - j) as u64 + 1);
            }
        }
    }
    depth
}

/// Replays every channel of `plan` over a copy of `mem0` and returns
/// one [`Certificate`] per channel, each carrying one
/// [`ObligationKind::ChannelSized`] obligation per consumer.
///
/// The stages are executed sequentially (interpreter order) against the
/// copied memory while the channel arrays' valued access streams are
/// captured, so the pushed and popped values compared by the replay are
/// exactly the values the sequential semantics produce. Execution stops
/// after the last stage a channel touches; a plan without channels
/// executes nothing. When the execution faults (say `mem0` lacks an
/// array), every certificate carries one failed obligation saying why.
pub fn channel_certificates(
    func: &AffineFunc,
    plan: &DataflowPlan,
    mem0: &MemoryState,
) -> Vec<Certificate> {
    let Some(last) = plan
        .channels
        .iter()
        .flat_map(|ch| std::iter::once(ch.spec.producer).chain(ch.spec.consumers.iter().copied()))
        .max()
    else {
        return Vec::new();
    };
    let prog = Program::new(func);
    let mut record = vec![false; prog.arrays().len()];
    for ch in &plan.channels {
        if let Some(id) = prog.array_id(&ch.spec.array) {
            record[id] = true;
        }
    }
    let mut mem = mem0.clone();
    let mut m = prog.bind(&mut mem);
    let streams: Result<Vec<_>, Fault> = plan.stages[..=last]
        .iter()
        .map(|st| stage_streams(&prog, &mut m, &st.ops, &record, true))
        .collect();
    let mut certs = Vec::new();
    for (ci, ch) in plan.channels.iter().enumerate() {
        let s = &ch.spec;
        let kind = if s.pingpong { "ping-pong" } else { "fifo" };
        let mut obligations = Vec::new();
        let streams = match &streams {
            Ok(streams) => streams,
            Err(fault) => {
                let why = match fault {
                    Fault::Missing(a) => format!("memory lacks array `{a}`"),
                    f => f.to_string(),
                };
                obligations.push(Obligation::failed(
                    ObligationKind::ChannelSized,
                    format!("`{}`: the stage replay stopped: {why}", s.array),
                ));
                certs.push(channel_certificate(plan, ci, kind, obligations));
                continue;
            }
        };
        let id = prog.array_id(&s.array);
        let pushes = streams[s.producer].pushes(id);
        for &c in &s.consumers {
            let reads = streams[c].reads(id);
            if s.consumers.len() > 1 && !s.pingpong {
                obligations.push(Obligation::failed(
                    ObligationKind::ChannelSized,
                    format!(
                        "`{}`: fifo with {} consumers is not replayable \
                         (multi-consumer channels must be ping-pong)",
                        s.array,
                        s.consumers.len()
                    ),
                ));
                continue;
            }
            let who = &plan.stages[c].name;
            obligations.push(match replay_channel(&pushes, reads, s.capacity) {
                Replay::Ok {
                    pushes,
                    reads,
                    live_ins,
                } => Obligation::passed(
                    ObligationKind::ChannelSized,
                    format!(
                        "`{}` -> `{who}`: {kind} depth {} replayed {pushes} push(es) / \
                         {reads} pop(s) ({live_ins} live-in), values bit-identical, \
                         no deadlock",
                        s.array, s.capacity
                    ),
                ),
                Replay::Deadlock { read, holds } => Obligation::failed(
                    ObligationKind::ChannelSized,
                    format!(
                        "`{}` -> `{who}`: {kind} depth {} deadlocks at pop #{read} \
                         (slot still held by element {holds})",
                        s.array, s.capacity
                    ),
                ),
                Replay::Mismatch {
                    read,
                    elem,
                    got,
                    want,
                } => Obligation::failed(
                    ObligationKind::ChannelSized,
                    format!(
                        "`{}` -> `{who}`: pop #{read} of element {elem} observed \
                         {got:?} but the producer pushed {want:?}",
                        s.array
                    ),
                ),
            });
        }
        certs.push(channel_certificate(plan, ci, kind, obligations));
    }
    certs
}

/// The certificate of channel `ci` of `plan`, carrying `obligations`.
fn channel_certificate(
    plan: &DataflowPlan,
    ci: usize,
    kind: &str,
    obligations: Vec<Obligation>,
) -> Certificate {
    let s = &plan.channels[ci].spec;
    Certificate {
        step: ci,
        rewrite: format!("channel {}: {kind} depth {}", s.array, s.capacity),
        stmt: format!(
            "{} -> {}",
            plan.stages[s.producer].name,
            s.consumers
                .iter()
                .map(|&c| plan.stages[c].name.as_str())
                .collect::<Vec<_>>()
                .join(", ")
        ),
        obligations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_passes_in_order_stream() {
        let pushes: Vec<(usize, f64)> = (0..8).map(|i| (i, i as f64)).collect();
        let reads = pushes.clone();
        assert_eq!(
            replay_channel(&pushes, &reads, 1),
            Replay::Ok {
                pushes: 8,
                reads: 8,
                live_ins: 0
            }
        );
    }

    #[test]
    fn replay_detects_deadlock_and_min_depth_fixes_it() {
        // Pushes a,b,c,d popped as b,c,d,a: `a` occupies its slot until
        // the very last pop, so the ring needs all four slots.
        let pushes: Vec<(usize, f64)> = vec![(0, 0.5), (1, 1.5), (2, 2.5), (3, 3.5)];
        let reads: Vec<(usize, f64)> = vec![(1, 1.5), (2, 2.5), (3, 3.5), (0, 0.5)];
        let pe: Vec<usize> = pushes.iter().map(|p| p.0).collect();
        let re: Vec<usize> = reads.iter().map(|r| r.0).collect();
        assert_eq!(min_fifo_depth(&pe, &re), 4);
        assert!(matches!(
            replay_channel(&pushes, &reads, 3),
            Replay::Deadlock { read: 2, holds: 0 }
        ));
        assert!(matches!(
            replay_channel(&pushes, &reads, 4),
            Replay::Ok { .. }
        ));
    }

    #[test]
    fn replay_flags_value_divergence() {
        let pushes = vec![(0usize, 1.0), (1, 2.0)];
        let reads = vec![(0usize, 1.0), (1, 2.25)];
        assert!(matches!(
            replay_channel(&pushes, &reads, 2),
            Replay::Mismatch {
                read: 1,
                elem: 1,
                ..
            }
        ));
    }

    #[test]
    fn live_in_reads_bypass_the_ring() {
        let pushes = vec![(0usize, 1.0)];
        // Element 7 is never pushed: a seeded live-in, served without
        // blocking and without value comparison against the ring.
        let reads = vec![(7usize, 0.25), (0, 1.0)];
        assert_eq!(
            replay_channel(&pushes, &reads, 1),
            Replay::Ok {
                pushes: 1,
                reads: 2,
                live_ins: 1
            }
        );
    }

    #[test]
    fn never_popped_pushes_release_at_push_time() {
        // Push 0 is never popped; with depth 1 it must not block push 1.
        let pushes = vec![(0usize, 1.0), (1, 2.0)];
        let reads = vec![(1usize, 2.0)];
        assert!(matches!(
            replay_channel(&pushes, &reads, 1),
            Replay::Ok { .. }
        ));
        let pe = [0usize, 1];
        let re = [1usize];
        assert_eq!(min_fifo_depth(&pe, &re), 1);
    }
}
