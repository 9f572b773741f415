//! Channel-sizing certificates: bounded-ring replay of the element
//! streams (DESIGN.md §16.3).
//!
//! A [`crate::Channel`]'s capacity is *certified* by replaying the
//! producer's push stream and every consumer's pop stream through a
//! ring of exactly the certified capacity, under the blocking rule the
//! co-simulation uses too (`pom_sim::Ring`): a pop of element `e`
//! requires the push of `e`, and the `k`-th push requires the element of
//! push `k − capacity` to be fully released (its last pop committed). The
//! replay discharges one [`ObligationKind::ChannelSized`] obligation
//! per consumer: no deadlock, and every popped value bit-identical to
//! the pushed one.

use crate::stream::{ring, stage_streams};
use crate::DataflowPlan;
use pom_dsl::MemoryState;
use pom_ir::interp::{Fault, Program};
use pom_ir::AffineFunc;
use pom_verify::{Certificate, Obligation, ObligationKind};

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

/// Replays one consumer's pop stream `reads` against the producer's
/// store stream `writes` through a ring of `capacity` slots: a pop of a
/// pushed element first admits every push up to its own
/// ([`pom_sim::Ring::admit`]), and is served the value of the
/// producer's final write of it. Streams carry `(flat, value)` pairs; a
/// shape-only replay (all values `0.0`) degrades to a pure deadlock
/// check.
pub(crate) fn replay_channel(
    writes: &[(usize, f64)],
    reads: &[(usize, f64)],
    capacity: u64,
) -> Replay {
    let ring = ring(writes, [reads]);
    let mut admitted = 0usize;
    let mut live_ins = 0usize;
    for (i, &(e, want)) in reads.iter().enumerate() {
        let (Some(k), Some(w)) = (ring.push_index(e), ring.last_write(e)) else {
            live_ins += 1;
            continue;
        };
        while admitted <= k {
            if let Err(holds) = ring.admit(admitted, capacity, |_| i) {
                return Replay::Deadlock { read: i, holds };
            }
            admitted += 1;
        }
        let got = writes[w].1;
        if got.to_bits() != want.to_bits() {
            return Replay::Mismatch {
                read: i,
                elem: e,
                got,
                want,
            };
        }
    }
    Replay::Ok {
        pushes: ring.pushes().len(),
        reads: reads.len(),
        live_ins,
    }
}

/// The minimal deadlock-free FIFO depth of one consumer's pop stream
/// (`Ring::depth`).
#[cfg(test)]
pub(crate) fn min_fifo_depth(pushes: &[usize], reads: &[usize]) -> u64 {
    pom_sim::Ring::new(
        pushes.iter().copied().enumerate(),
        [reads.iter().copied().enumerate()],
    )
    .depth()
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
        let writes = streams[s.producer].writes(id);
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
            obligations.push(match replay_channel(writes, reads, s.capacity) {
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
    use proptest::prelude::*;

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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The minimal-depth lemma: whatever the push order and the pop
        /// order — repeated pops, pops of live-ins never pushed, pushes
        /// nobody pops — a replay at `min_fifo_depth` passes and, when
        /// that depth exceeds one, a replay one slot shallower deadlocks.
        #[test]
        fn replay_at_min_depth_passes_and_one_less_deadlocks(
            keys in proptest::collection::vec(0u32..1000, 1..13),
            pops in proptest::collection::vec(0usize..16, 0..40),
        ) {
            // Push order: elements `0..n` sorted by a random key; pops of
            // `n..n + 3` are live-ins.
            let n = keys.len();
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by_key(|&e| keys[e]);
            let pops: Vec<usize> = pops.into_iter().map(|e| e % (n + 3)).collect();
            let valued = |es: &[usize]| -> Vec<(usize, f64)> {
                es.iter().map(|&e| (e, e as f64 + 0.5)).collect()
            };
            let (pushes, reads) = (valued(&order), valued(&pops));
            let depth = min_fifo_depth(&order, &pops);
            let at_depth = replay_channel(&pushes, &reads, depth);
            prop_assert!(
                matches!(at_depth, Replay::Ok { .. }),
                "{order:?} / {pops:?} at depth {depth}: {at_depth:?}"
            );
            if depth > 1 {
                let shallower = replay_channel(&pushes, &reads, depth - 1);
                prop_assert!(
                    matches!(shallower, Replay::Deadlock { .. }),
                    "{order:?} / {pops:?} at depth {}: {shallower:?}",
                    depth - 1
                );
            }
        }
    }
}
