//! Concurrent-process dataflow simulation over bounded channels.
//!
//! A dataflow plan cuts an [`AffineFunc`]'s top-level ops into stages
//! that run as concurrent processes, communicating through bounded
//! channels (one per single-writer array that crosses a stage
//! boundary). This module simulates that execution in two passes:
//!
//! 1. **Functional pass** — every stage is executed *sequentially in
//!    program order* through the event engine (as
//!    [`crate::simulate_traced`] does), each on its slice of the
//!    function's top-level ops of one compiled program and on one shared
//!    memory, so the final
//!    [`MemoryState`] is bit-identical to `ir::interp::execute_func` by
//!    construction. Each stage yields a local [`SimReport`] plus a
//!    [`TraceEvent`] stream: per store event, the elements read and
//!    written and the local issue/finish cycles.
//! 2. **Timing pass** — the traces are co-simulated as concurrent
//!    processes with element-granular channel semantics enforced on
//!    the *pop* side: a consumer's read of element `e` blocks until
//!    the producer's *last* write of `e` has committed (consumers
//!    observe final accumulated values, matching sequential
//!    semantics), and — for a bounded FIFO — until the in-order FIFO
//!    discipline could have delivered it: a pop of the `k`-th pushed
//!    element first *admits* pushes `0..=k`, and admitting push `m ≥
//!    capacity` requires the evicted element `m − capacity` to have
//!    been fully released (its final read retired) by every consumer.
//!    Producers themselves never block — capacity is accounted where
//!    it bites, at the admission of the pop. That admission is
//!    [`Ring::admit`], the rule the partitioner's channel certificates
//!    replay, so a plan whose per-channel replays pass cannot deadlock
//!    here. It is purely structural (slots free at the
//!    consumer's *issue* of the evicting read, which never postdates
//!    its own frontier), so only availability delays add timing: every
//!    slip increase is attributed as pop-side channel stall. Push-side
//!    back-pressure is reported separately as the producer's would-be
//!    block time under a blocking-push discipline, replayed from the
//!    final timeline. A full round over all stages that commits
//!    nothing while events remain is a deadlock.
//!
//! Reads of elements the producer never writes (e.g. padding rows of a
//! re-padded feature map) are live-ins from seeded memory and never
//! block. Ping-pong channels carry a capacity of twice their footprint,
//! which the admission rule can never exhaust — they guarantee progress.
//!
//! Total latency is the maximum global stage finish; the sequential
//! schedule costs roughly the *sum*, which is where the dataflow win
//! comes from. Intra-stage timing (dependence, port, drain stalls) is
//! untouched; cross-stage value timing moves from the engine's `ready`
//! plane into channel commit times.

use crate::engine::run_stage;
use crate::report::SimReport;
use crate::ring::Ring;
use pom_dsl::MemoryState;
use pom_hls::{CostModel, DepSummary};
use pom_ir::interp::Program;
use pom_ir::AffineFunc;

/// `(array id, flat element index)` — an element of a declared memref,
/// with the array id being its position in [`AffineFunc::memrefs`].
pub type Elem = (usize, usize);

/// One store event recorded by [`crate::simulate_traced`]: a sequential
/// store, or one pipeline iteration (inner loops fully unrolled).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceEvent {
    /// Local issue cycle (within the stage's own timeline).
    pub issue: u64,
    /// Local finish cycle (write-back committed).
    pub finish: u64,
    /// Memory elements read (forwarded in-register values excluded).
    pub reads: Vec<Elem>,
    /// Elements written back, in write-back order.
    pub writes: Vec<Elem>,
}

/// One dataflow stage: a contiguous run of top-level ops of the source
/// function, executed as one concurrent process.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StageSpec {
    /// Stage name (diagnostics).
    pub name: String,
    /// Indices into [`AffineFunc::body`] (contiguous, program order).
    pub ops: Vec<usize>,
}

/// One inter-stage channel: a single-writer array crossing a stage
/// boundary, buffered to `capacity` elements.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChannelSpec {
    /// The communicated array.
    pub array: String,
    /// Producing stage (index into the stage list).
    pub producer: usize,
    /// Consuming stages (indices into the stage list).
    pub consumers: Vec<usize>,
    /// Buffer capacity in elements.
    pub capacity: u64,
    /// True for a ping-pong buffer (2× footprint, never back-pressures);
    /// false for a streaming FIFO sized from the live window.
    pub pingpong: bool,
}

/// Simulated outcome of one stage as a concurrent process.
#[derive(Clone, Debug, PartialEq)]
pub struct StageSim {
    /// Stage name.
    pub name: String,
    /// The stage's local simulation (its `stall_channel` is filled in by
    /// the co-simulation; all other figures are stage-local).
    pub report: SimReport,
    /// Global finish cycle in the co-simulated timeline.
    pub finish: u64,
    /// Store events the stage executed.
    pub events: u64,
    /// Events left uncommitted by a deadlock (zero otherwise).
    pub blocked_events: u64,
}

/// Simulated traffic and back-pressure of one channel.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChannelSim {
    /// The communicated array.
    pub array: String,
    /// Producing stage name.
    pub producer: String,
    /// Consuming stage names.
    pub consumers: Vec<String>,
    /// Buffer capacity in elements.
    pub capacity: u64,
    /// Ping-pong (true) or streaming FIFO (false).
    pub pingpong: bool,
    /// Distinct elements pushed through the channel.
    pub pushes: u64,
    /// Consumer issue cycles lost waiting for a producer push.
    pub stall_pop: u64,
    /// Back-pressure: cycles the producer *would have been* blocked
    /// waiting for buffer space under a blocking-push discipline,
    /// replayed from the final timeline. Purely diagnostic — a large
    /// value says the buffer is undersized for the consumer's pace —
    /// it does not delay the co-simulated timeline (the total already
    /// reflects the slower endpoint's rate).
    pub stall_push: u64,
}

/// The result of a dataflow co-simulation.
#[derive(Clone, Debug, PartialEq)]
pub struct DataflowReport {
    /// Total latency: the maximum global stage finish.
    pub cycles: u64,
    /// Per-stage outcomes, in stage order.
    pub stages: Vec<StageSim>,
    /// Per-channel traffic and stalls, in channel order.
    pub channels: Vec<ChannelSim>,
    /// Total channel-stall cycles across all stages.
    pub stall_channel: u64,
    /// True when the co-simulation wedged: a full round over all stages
    /// committed nothing while events remained.
    pub deadlock: bool,
}

impl DataflowReport {
    /// Plain-text rendering (the `--emit dataflow` view).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "== pom-dataflow co-simulation ==");
        let _ = writeln!(
            s,
            "total cycles:     {}{}",
            self.cycles,
            if self.deadlock { "  (DEADLOCK)" } else { "" }
        );
        let _ = writeln!(s, "channel stalls:   {}", self.stall_channel);
        let _ = writeln!(
            s,
            "{:<16} {:>9} {:>11} {:>9} {:>9}",
            "stage", "events", "local", "finish", "channel"
        );
        for st in &self.stages {
            let _ = writeln!(
                s,
                "{:<16} {:>9} {:>11} {:>9} {:>9}{}",
                st.name,
                st.events,
                st.report.cycles,
                st.finish,
                st.report.stall_channel,
                if st.blocked_events > 0 {
                    format!("  ({} blocked)", st.blocked_events)
                } else {
                    String::new()
                }
            );
        }
        if !self.channels.is_empty() {
            let _ = writeln!(
                s,
                "{:<12} {:<10} {:>9} {:>8} {:>9} {:>10}",
                "channel", "kind", "capacity", "pushes", "pop-stall", "push-stall"
            );
            for c in &self.channels {
                let _ = writeln!(
                    s,
                    "{:<12} {:<10} {:>9} {:>8} {:>9} {:>10}",
                    c.array,
                    if c.pingpong { "ping-pong" } else { "fifo" },
                    c.capacity,
                    c.pushes,
                    c.stall_pop,
                    c.stall_push
                );
            }
        }
        s
    }
}

/// Simulates `func` as a dataflow pipeline of `stages` communicating
/// over `channels`, mutating `mem` exactly as the sequential
/// interpreter would (the functional pass runs stages in program
/// order). Returns the co-simulated timing.
///
/// # Panics
///
/// Panics when a stage op index is out of range, a channel names an
/// unknown array or stage, or the underlying engine panics (same
/// conditions as [`crate::simulate`]).
pub fn simulate_dataflow(
    func: &AffineFunc,
    deps: &DepSummary,
    stages: &[StageSpec],
    channels: &[ChannelSpec],
    mem: &mut MemoryState,
    model: &CostModel,
) -> DataflowReport {
    // ---- functional pass: per-stage sequential execution + traces ----
    let prog = Program::new(func);
    let mut m = prog.bind(mem);
    let mut reports = Vec::with_capacity(stages.len());
    let mut traces = Vec::with_capacity(stages.len());
    let mut fault = None;
    for st in stages {
        match run_stage(func, &prog, &st.ops, &mut m, deps, model, true) {
            Ok((report, trace)) => {
                reports.push(report);
                traces.push(trace);
            }
            Err(f) => {
                fault = Some(f);
                break;
            }
        }
    }
    m.restore(mem);
    if let Some(f) = fault {
        panic!("{f}");
    }

    // ---- one ring per channel, from the traces ----
    //
    // Write positions are producer event indices: an element's value is
    // final once its last-write event commits. Read positions number a
    // consumer's reads across its whole trace (`read_base[s][e]` reads
    // precede event `e` of stage `s`), so consumer `cs` has retired
    // exactly the reads below `read_base[cs][cursor[cs]] + head_reads[cs]`.
    let aid_of = |name: &str| {
        func.memrefs
            .iter()
            .position(|m| m.name == name)
            .unwrap_or_else(|| panic!("channel names unknown array {name}"))
    };
    let read_base: Vec<Vec<usize>> = traces
        .iter()
        .map(|t| {
            std::iter::once(0)
                .chain(t.iter().scan(0, |n, ev| {
                    *n += ev.reads.len();
                    Some(*n)
                }))
                .collect()
        })
        .collect();
    let event_of = |s: usize, pos: usize| read_base[s].partition_point(|&b| b <= pos) - 1;
    let mut chan_by_aid: Vec<Option<usize>> = vec![None; prog.arrays().len()];
    let mut rings = Vec::with_capacity(channels.len());
    for (ci, ch) in channels.iter().enumerate() {
        let aid = aid_of(&ch.array);
        chan_by_aid[aid] = Some(ci);
        let writes = traces[ch.producer]
            .iter()
            .enumerate()
            .flat_map(move |(e, ev)| {
                ev.writes
                    .iter()
                    .filter(move |w| w.0 == aid)
                    .map(move |w| (e, w.1))
            });
        let reads = ch.consumers.iter().map(|&cs| {
            traces[cs]
                .iter()
                .zip(&read_base[cs])
                .flat_map(move |(ev, &base)| {
                    ev.reads
                        .iter()
                        .enumerate()
                        .filter(move |(_, r)| r.0 == aid)
                        .map(move |(ri, r)| (base + ri, r.1))
                })
        });
        rings.push(Ring::new(writes, reads));
    }

    // ---- timing pass: round-robin in-order commit ----
    //
    // Events commit in program order per stage, but the reads *inside*
    // the head event retire element-granularly, in list order: a
    // blocked read halts its walk, while the already-retired prefix
    // keeps releasing channel slots. A channel read blocks on two
    // conditions: *availability* (the producer's final write of the
    // element must have committed) and — for a bounded FIFO —
    // *admission* (the in-order discipline must have been able to
    // deliver it: admitting push `m ≥ capacity` requires the evicted
    // element's final read to be retired by every consumer).
    // Producers never block; capacity is charged at the pop. This is
    // the certificate replay's ring (`Ring::admit`), so a plan
    // whose per-channel replays pass cannot deadlock here — while a
    // reversed reader on an undersized FIFO still wedges (its first
    // pop demands an admission whose evictee is only read later).
    //
    // Admission carries no timing of its own: a slot frees at the
    // consumer's *issue* of the evicting read, which never postdates
    // the consumer's own frontier, so a feasible FIFO cannot throttle
    // the pop stream. Only availability (the producer's write-back)
    // binds issue times.
    let n = stages.len();
    let mut cursor = vec![0usize; n];
    let mut head_reads = vec![0usize; n]; // retired reads of the head event
    let mut head_bind: Vec<Option<(u64, usize)>> = vec![None; n];
    let mut slip = vec![0u64; n];
    let mut last_g_issue = vec![0u64; n];
    let mut stall = vec![0u64; n];
    let mut ev_finish: Vec<Vec<u64>> = traces.iter().map(|t| vec![0u64; t.len()]).collect();
    let mut ev_gissue: Vec<Vec<u64>> = traces.iter().map(|t| vec![0u64; t.len()]).collect();
    let mut admitted: Vec<usize> = channels.iter().map(|c| c.capacity as usize).collect();
    let mut chan_stats: Vec<(u64, u64)> = vec![(0, 0); channels.len()]; // (pop, push)
    let mut deadlock = false;
    loop {
        let mut progressed = false;
        let mut remaining = false;
        for s in 0..n {
            // Drain this stage's head events while they can commit.
            while cursor[s] < traces[s].len() {
                let ev = &traces[s][cursor[s]];
                // (constraint time, channel index) of the latest-binding
                // satisfied availability constraint, or None if blocked.
                // Persisted across rounds while the head event is blocked
                // so already-retired reads keep their binding times.
                let mut bind: Option<(u64, usize)> = head_bind[s];
                let mut blocked = false;
                while head_reads[s] < ev.reads.len() {
                    let (a, flat) = ev.reads[head_reads[s]];
                    let Some(ci) = chan_by_aid[a] else {
                        head_reads[s] += 1;
                        continue;
                    };
                    if channels[ci].producer == s {
                        head_reads[s] += 1; // own output (accumulator re-reads)
                        continue;
                    }
                    if !channels[ci].consumers.contains(&s) {
                        head_reads[s] += 1; // not a declared consumer: live-in
                        continue;
                    }
                    let ring = &rings[ci];
                    let (Some(pev), Some(k)) = (ring.last_write(flat), ring.push_index(flat))
                    else {
                        head_reads[s] += 1; // never written by producer: live-in
                        continue;
                    };
                    // Availability: the element's value is final once
                    // the producer's last-write event has committed.
                    let ch = &channels[ci];
                    if pev >= cursor[ch.producer] {
                        blocked = true;
                        break;
                    }
                    let t = ev_finish[ch.producer][pev];
                    // Admission: pops observe the bounded in-order FIFO
                    // discipline — pushes up to `k` must enter the ring,
                    // each evicting an element whose final read has
                    // retired (a committed consumer event, or an
                    // already-retired read inside a blocked head event).
                    let mut stuck = false;
                    while admitted[ci] <= k {
                        let retired = |j: usize| {
                            let cs = ch.consumers[j];
                            read_base[cs][cursor[cs]] + head_reads[cs]
                        };
                        if ring.admit(admitted[ci], ch.capacity, retired).is_err() {
                            stuck = true;
                            break;
                        }
                        admitted[ci] += 1;
                        progressed = true;
                    }
                    if stuck {
                        blocked = true;
                        break;
                    }
                    if bind.is_none_or(|b| t > b.0) {
                        bind = Some((t, ci));
                    }
                    head_reads[s] += 1;
                    progressed = true;
                }
                if blocked {
                    head_bind[s] = bind;
                    break;
                }
                // Commit: base respects the stage's own schedule (slip
                // only grows, issues stay monotone); channel constraints
                // can push the issue later, and that delta is channel
                // stall attributed to the binding channel.
                let base = (ev.issue + slip[s]).max(last_g_issue[s]);
                let mut g_issue = base;
                if let Some((t, ci)) = bind {
                    if t > g_issue {
                        let delta = t - g_issue;
                        stall[s] += delta;
                        chan_stats[ci].0 += delta;
                        g_issue = t;
                    }
                }
                slip[s] = slip[s].max(g_issue - ev.issue);
                last_g_issue[s] = g_issue;
                ev_gissue[s][cursor[s]] = g_issue;
                ev_finish[s][cursor[s]] = ev.finish - ev.issue + g_issue;
                cursor[s] += 1;
                head_reads[s] = 0;
                head_bind[s] = None;
                progressed = true;
            }
            if cursor[s] < traces[s].len() {
                remaining = true;
            }
        }
        if !remaining {
            break;
        }
        if !progressed {
            deadlock = true;
            break;
        }
    }

    // ---- back-pressure replay (diagnostic) ----
    //
    // The timeline above never blocks producers, so it carries no
    // push-side stall. Replay each channel's push stream against the
    // final timeline under a blocking-push discipline: push `m` waits
    // for its value (producer write-back), for the previous push
    // (in-order), and — once the ring is full — for the evicted
    // element's final read to issue at every consumer. The accumulated
    // wait is the back-pressure the producer would have absorbed; it
    // diagnoses undersized buffers without distorting the total (which
    // already reflects the slower endpoint's rate).
    if !deadlock {
        for (ci, ch) in channels.iter().enumerate() {
            let ring = &rings[ci];
            let mut prev = 0u64;
            let mut vstall = 0u64;
            for (m, &flat) in ring.pushes().iter().enumerate() {
                let avail = ring
                    .last_write(flat)
                    .map_or(0, |e| ev_finish[ch.producer][e]);
                let mut t = avail.max(prev);
                let rel = ring.evictee(m, ch.capacity).map_or(0, |evicted| {
                    ring.final_reads(evicted)
                        .map(|(j, pos)| {
                            let cs = ch.consumers[j];
                            ev_gissue[cs][event_of(cs, pos)]
                        })
                        .max()
                        .unwrap_or(0)
                });
                if rel > t {
                    vstall += rel - t;
                    t = rel;
                }
                prev = t;
            }
            chan_stats[ci].1 = vstall;
        }
    }

    // ---- assemble the report ----
    let mut stage_sims = Vec::with_capacity(n);
    let mut total = 0u64;
    let mut stall_total = 0u64;
    for (s, st) in stages.iter().enumerate() {
        let mut report = reports[s].clone();
        report.stall_channel = stall[s];
        stall_total += stall[s];
        let finish = report.cycles + slip[s];
        total = total.max(finish);
        stage_sims.push(StageSim {
            name: st.name.clone(),
            report,
            finish,
            events: traces[s].len() as u64,
            blocked_events: (traces[s].len() - cursor[s]) as u64,
        });
    }
    let channel_sims = channels
        .iter()
        .enumerate()
        .map(|(ci, ch)| ChannelSim {
            array: ch.array.clone(),
            producer: stages[ch.producer].name.clone(),
            consumers: ch
                .consumers
                .iter()
                .map(|&c| stages[c].name.clone())
                .collect(),
            capacity: ch.capacity,
            pingpong: ch.pingpong,
            pushes: rings[ci].pushes().len() as u64,
            stall_pop: chan_stats[ci].0,
            stall_push: chan_stats[ci].1,
        })
        .collect();
    DataflowReport {
        cycles: total,
        stages: stage_sims,
        channels: channel_sims,
        stall_channel: stall_total,
        deadlock,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate;
    use pom_dsl::{BinOp, DataType, Expr};
    use pom_hls::CostModel;
    use pom_ir::interp::execute_func;
    use pom_ir::{AffineOp, ForOp, HlsAttrs, MemRefDecl, StoreOp};
    use pom_poly::{AccessFn, Bound, LinearExpr};

    fn cb(v: i64) -> Bound {
        Bound::new(LinearExpr::constant_expr(v), 1)
    }

    fn pipe_for(iv: &str, lb: i64, ub: i64, body: Vec<AffineOp>) -> AffineOp {
        AffineOp::For(ForOp {
            iv: iv.into(),
            lbs: vec![cb(lb)],
            ubs: vec![cb(ub)],
            attrs: HlsAttrs {
                pipeline_ii: Some(1),
                ..HlsAttrs::none()
            },
            extra: Vec::new(),
            body,
        })
    }

    fn st(stmt: &str, array: &str, idx: LinearExpr, value: Expr) -> AffineOp {
        AffineOp::Store(StoreOp {
            stmt: stmt.into(),
            dest: AccessFn::new(array, vec![idx]),
            value,
        })
    }

    fn ld(array: &str, idx: LinearExpr) -> Expr {
        Expr::Load(AccessFn::new(array, vec![idx]))
    }

    fn seeded(f: &AffineFunc, seed: u64) -> MemoryState {
        let mut mem = MemoryState::new();
        for m in &f.memrefs {
            let salt: u64 = m.name.bytes().map(u64::from).sum();
            mem.insert(
                m.name.clone(),
                pom_dsl::ArrayData::from_fn(&m.shape, |i| {
                    ((i as u64).wrapping_mul(0x9E37) ^ (seed ^ salt)) as i64 as f64 % 97.0 / 7.0
                }),
            );
        }
        mem
    }

    /// Producer fills T forward; consumer reads T forward into B. The
    /// reverse variant reads T backward, which deadlocks a depth-1 FIFO.
    fn chain(n: i64, reverse: bool) -> AffineFunc {
        let mut f = AffineFunc::new("chain");
        for name in ["A", "T", "B"] {
            f.memrefs
                .push(MemRefDecl::new(name, &[n as usize], DataType::F32));
        }
        let add1 = Expr::Binary(
            BinOp::Add,
            Box::new(ld("A", LinearExpr::var("i"))),
            Box::new(Expr::Const(1.0)),
        );
        f.body.push(pipe_for(
            "i",
            0,
            n - 1,
            vec![st("p", "T", LinearExpr::var("i"), add1)],
        ));
        let read_idx = if reverse {
            let mut e = LinearExpr::term("j", -1);
            e.add_constant(n - 1);
            e
        } else {
            LinearExpr::var("j")
        };
        let mul = Expr::Binary(
            BinOp::Mul,
            Box::new(ld("T", read_idx)),
            Box::new(Expr::Const(2.0)),
        );
        f.body.push(pipe_for(
            "j",
            0,
            n - 1,
            vec![st("c", "B", LinearExpr::var("j"), mul)],
        ));
        f
    }

    fn specs(cap: u64, pingpong: bool) -> (Vec<StageSpec>, Vec<ChannelSpec>) {
        (
            vec![
                StageSpec {
                    name: "s0".into(),
                    ops: vec![0],
                },
                StageSpec {
                    name: "s1".into(),
                    ops: vec![1],
                },
            ],
            vec![ChannelSpec {
                array: "T".into(),
                producer: 0,
                consumers: vec![1],
                capacity: cap,
                pingpong,
            }],
        )
    }

    #[test]
    fn forward_chain_overlaps_and_matches_interpreter() {
        let f = chain(32, false);
        let deps = DepSummary::new();
        let model = CostModel::vitis_f32();
        let mut seq_mem = seeded(&f, 7);
        let seq = simulate(&f, &deps, &mut seq_mem, &model);
        let mut ref_mem = seeded(&f, 7);
        execute_func(&f, &mut ref_mem);
        assert_eq!(seq_mem, ref_mem, "sequential sim diverged");

        let (stages, channels) = specs(16, false);
        let mut df_mem = seeded(&f, 7);
        let r = simulate_dataflow(&f, &deps, &stages, &channels, &mut df_mem, &model);
        assert_eq!(df_mem, ref_mem, "dataflow memory diverged");
        assert!(!r.deadlock);
        assert!(
            r.cycles < seq.cycles,
            "expected overlap: dataflow {} vs sequential {}",
            r.cycles,
            seq.cycles
        );
        assert_eq!(r.channels[0].pushes, 32);
        // The consumer must wait for at least the first push.
        assert!(r.stages[1].finish > r.stages[1].report.cycles);

        // A shallower-but-feasible FIFO does not throttle a rate-matched
        // stream: slots free at the consumer's own pace, so the total is
        // unchanged (capacity only gates feasibility, cf. the reverse
        // reader below).
        let (stages, channels) = specs(4, false);
        let mut mem4 = seeded(&f, 7);
        let r4 = simulate_dataflow(&f, &deps, &stages, &channels, &mut mem4, &model);
        assert_eq!(mem4, ref_mem);
        assert!(!r4.deadlock);
        assert_eq!(r4.cycles, r.cycles);
    }

    #[test]
    fn slow_consumer_reports_backpressure_without_distorting_total() {
        let mut f = chain(32, false);
        // Throttle the consumer to II=3: the producer outpaces it, so a
        // blocking push into the shallow FIFO would sit on a full buffer.
        let AffineOp::For(op) = &mut f.body[1] else {
            panic!("chain builds loops")
        };
        op.attrs.pipeline_ii = Some(3);
        let deps = DepSummary::new();
        let model = CostModel::vitis_f32();
        let (stages, channels) = specs(4, false);
        let mut mem = seeded(&f, 7);
        let r = simulate_dataflow(&f, &deps, &stages, &channels, &mut mem, &model);
        let mut ref_mem = seeded(&f, 7);
        execute_func(&f, &mut ref_mem);
        assert_eq!(mem, ref_mem);
        assert!(!r.deadlock);
        // The would-be producer block is reported on the push side...
        assert!(r.channels[0].stall_push > 0, "expected back-pressure");
        // ...but the total runs at the consumer's rate: the consumer
        // itself never waits once the stream is primed, so its finish is
        // its own local schedule plus at most the initial fill.
        assert_eq!(r.cycles, r.stages[1].finish);
        assert!(r.stages[1].report.stall_channel < r.channels[0].stall_push);
    }

    #[test]
    fn reverse_reader_deadlocks_shallow_fifo() {
        let f = chain(16, true);
        let deps = DepSummary::new();
        let model = CostModel::vitis_f32();
        let (stages, channels) = specs(1, false);
        let mut mem = seeded(&f, 7);
        let r = simulate_dataflow(&f, &deps, &stages, &channels, &mut mem, &model);
        assert!(r.deadlock, "depth-1 FIFO with a reversed reader must wedge");
        assert!(r.stages.iter().any(|s| s.blocked_events > 0));
        // Memory is still bit-identical: the functional pass is sequential.
        let mut ref_mem = seeded(&f, 7);
        execute_func(&f, &mut ref_mem);
        assert_eq!(mem, ref_mem);
    }

    #[test]
    fn pingpong_capacity_never_wedges_the_reverse_reader() {
        let f = chain(16, true);
        let deps = DepSummary::new();
        let model = CostModel::vitis_f32();
        let (stages, channels) = specs(32, true); // 2x footprint
        let mut mem = seeded(&f, 7);
        let r = simulate_dataflow(&f, &deps, &stages, &channels, &mut mem, &model);
        assert!(!r.deadlock);
        assert_eq!(r.stages[1].blocked_events, 0);
    }

    #[test]
    fn single_stage_equals_sequential_simulation() {
        let f = chain(16, false);
        let deps = DepSummary::new();
        let model = CostModel::vitis_f32();
        let mut seq_mem = seeded(&f, 3);
        let seq = simulate(&f, &deps, &mut seq_mem, &model);
        let stages = vec![StageSpec {
            name: "all".into(),
            ops: vec![0, 1],
        }];
        let mut mem = seeded(&f, 3);
        let r = simulate_dataflow(&f, &deps, &stages, &[], &mut mem, &model);
        assert!(!r.deadlock);
        assert_eq!(r.cycles, seq.cycles);
        assert_eq!(r.stall_channel, 0);
        assert_eq!(mem, seq_mem);
    }
}
