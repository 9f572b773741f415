//! `pom-dataflow`: whole-model dataflow pipelining (DESIGN.md §16).
//!
//! ScaleHLS-style graph-level optimization: a multi-nest function (a
//! DNN layer stream like vgg16/resnet18, or a multi-kernel chain like
//! 2mm/3mm) is cut into *dataflow stages* that execute as concurrent
//! processes communicating through bounded channels, instead of one
//! nest after another. The crate provides:
//!
//! - **Partitioning** ([`partition`]): cuts the function's top-level
//!   ops into stages from their exact access sets, merging any units
//!   whose concurrent execution would violate an anti or output
//!   dependence. The resulting inter-stage communication is provably
//!   forward-only and single-writer.
//! - **Channel sizing**: read only from the recorded element streams.
//!   A streaming-compatible single-consumer flow gets a FIFO of its
//!   exact positional minimal depth, floored at the round-trip latency;
//!   an incompatible or multi-consumer flow falls back to a ping-pong
//!   buffer of twice the communicated footprint, which never
//!   back-pressures.
//! - **Certificates** ([`channel_certificates`]): every sizing is
//!   discharged by replaying the valued element streams through a ring
//!   of the certified capacity (`pom-verify`'s `ChannelSized`
//!   obligation) — no deadlock, bit-identical values.
//!
//! The plan feeds `pom_sim::simulate_dataflow` for channel-accurate
//! co-simulation and the DSE's dataflow mode for rate-matching.

#![warn(missing_docs)]

mod certify;
mod stream;

pub use certify::channel_certificates;

use pom_ir::interp::Program;
use pom_ir::{AffineFunc, AffineOp};
use pom_sim::{ChannelSpec, StageSpec};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// FIFO capacity floor, in elements. A FIFO shallower than the
/// producer→consumer round-trip latency throttles the stream even when
/// the minimal depth is tiny (the k-th push waits for the release of push
/// `k − capacity`, whose pop finishes a full memory round-trip after
/// its push), so capacities are floored well above the ~12-cycle
/// round-trip of the cost model at II = 1.
pub const FIFO_LATENCY_FLOOR: u64 = 16;

/// One sized inter-stage channel of a [`DataflowPlan`].
#[derive(Clone, Debug, PartialEq)]
pub struct Channel {
    /// The simulator-facing spec (array, endpoints, capacity, kind).
    pub spec: ChannelSpec,
    /// Exact positional minimal deadlock-free depth of the element
    /// streams (maximum over consumers).
    pub min_depth: u64,
    /// Distinct elements the producer pushes (the communicated
    /// footprint).
    pub footprint: u64,
}

/// A whole-function dataflow plan: stages, their statements, and sized
/// channels.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DataflowPlan {
    /// Function name.
    pub func: String,
    /// The stages, each a contiguous run of top-level ops.
    pub stages: Vec<StageSpec>,
    /// Statement (compute) names per stage, in program order.
    pub stage_stmts: Vec<Vec<String>>,
    /// Sized inter-stage channels.
    pub channels: Vec<Channel>,
}

impl DataflowPlan {
    /// True when the plan has more than one stage — i.e. dataflow
    /// execution can overlap anything at all.
    pub fn is_pipeline(&self) -> bool {
        self.stages.len() > 1
    }

    /// The channel specs, ready for `pom_sim::simulate_dataflow`.
    pub fn channel_specs(&self) -> Vec<ChannelSpec> {
        self.channels.iter().map(|c| c.spec.clone()).collect()
    }

    /// The stage a statement belongs to.
    pub fn stage_of_stmt(&self, stmt: &str) -> Option<usize> {
        self.stage_stmts
            .iter()
            .position(|ss| ss.iter().any(|s| s == stmt))
    }

    /// Plain-text rendering (part of the `--emit dataflow` view).
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "== pom-dataflow plan ({}) ==", self.func);
        let _ = writeln!(
            s,
            "stages: {} ({})",
            self.stages.len(),
            if self.is_pipeline() {
                "dataflow pipeline"
            } else {
                "single stage, no overlap"
            }
        );
        for (i, st) in self.stages.iter().enumerate() {
            let _ = writeln!(
                s,
                "  {:<16} ops {:?}  stmts [{}]",
                st.name,
                st.ops,
                self.stage_stmts[i].join(", ")
            );
        }
        if !self.channels.is_empty() {
            let _ = writeln!(s, "channels: {}", self.channels.len());
            for c in &self.channels {
                let spec = &c.spec;
                let _ = writeln!(
                    s,
                    "  {:<12} {} -> {}  {} depth {} (min {}, footprint {})",
                    spec.array,
                    self.stages[spec.producer].name,
                    spec.consumers
                        .iter()
                        .map(|&i| self.stages[i].name.as_str())
                        .collect::<Vec<_>>()
                        .join(", "),
                    if spec.pingpong { "ping-pong" } else { "fifo" },
                    spec.capacity,
                    c.min_depth,
                    c.footprint,
                );
            }
        }
        s
    }
}

/// Per-unit (top-level op) access summary used by the partitioner.
struct Unit {
    writes: BTreeSet<String>,
    reads: BTreeSet<String>,
    stmts: Vec<String>,
}

fn unit_of(op: &AffineOp) -> Unit {
    let mut u = Unit {
        writes: BTreeSet::new(),
        reads: BTreeSet::new(),
        stmts: Vec::new(),
    };
    op.walk(&mut |o| {
        if let AffineOp::Store(s) = o {
            u.writes.insert(s.dest.array.clone());
            for a in s.value.loads() {
                u.reads.insert(a.array.clone());
            }
            if !u.stmts.iter().any(|n| n == &s.stmt) {
                u.stmts.push(s.stmt.clone());
            }
        }
    });
    u
}

/// Partitions `affine` into dataflow stages, deriving every dependence
/// constraint from the exact access sets of its top-level ops.
pub fn partition(affine: &AffineFunc) -> DataflowPlan {
    let units: Vec<Unit> = affine.body.iter().map(unit_of).collect();
    let n = units.len();

    // A dataflow stage boundary after unit `i` is legal only when no
    // anti or output dependence crosses it backwards: concurrent stages
    // reorder execution across the cut, which is safe for forward flow
    // (the channel blocks the consumer) but not for a later unit that
    // overwrites what an earlier unit reads or writes. Each such pair
    // forbids every boundary between the two units.
    let mut cut_ok = vec![true; n.saturating_sub(1)];
    for u in 0..n {
        for w in (u + 1)..n {
            let output = units[u].writes.intersection(&units[w].writes).count() > 0;
            let anti = units[u]
                .reads
                .iter()
                .any(|a| units[w].writes.contains(a) && !units[u].writes.contains(a));
            if output || anti {
                for c in &mut cut_ok[u..w] {
                    *c = false;
                }
            }
        }
    }

    // Stages = maximal runs between legal boundaries.
    let mut stage_units: Vec<Vec<usize>> = Vec::new();
    let mut run = Vec::new();
    // `cut_ok[i]` is the boundary after unit `i`; the final unit always
    // closes the last run.
    for (i, ok) in cut_ok
        .iter()
        .copied()
        .chain(std::iter::once(true))
        .enumerate()
    {
        run.push(i);
        if ok {
            stage_units.push(std::mem::take(&mut run));
        }
    }

    let mut stages = Vec::new();
    let mut stage_stmts = Vec::new();
    let mut seen = BTreeSet::new();
    for (si, us) in stage_units.iter().enumerate() {
        let stmts: Vec<String> = us
            .iter()
            .flat_map(|&u| units[u].stmts.iter().cloned())
            .collect();
        let mut name = stmts.first().cloned().unwrap_or_else(|| format!("s{si}"));
        if !seen.insert(name.clone()) {
            name = format!("{name}#{si}");
            seen.insert(name.clone());
        }
        stages.push(StageSpec {
            name,
            ops: us.clone(),
        });
        stage_stmts.push(stmts);
    }

    // Channels: single-writer arrays crossing a stage boundary. After
    // the merges above every array has at most one writing stage and
    // every reader of it sits strictly later — assert exactly that
    // (the partitioner's forward-only legality invariant).
    let mut writer: BTreeMap<&str, usize> = BTreeMap::new();
    let mut readers: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (si, us) in stage_units.iter().enumerate() {
        for &u in us {
            for a in &units[u].writes {
                let prev = writer.insert(a.as_str(), si);
                assert!(
                    prev.is_none_or(|p| p == si),
                    "partitioner invariant: `{a}` written by two stages"
                );
            }
            for a in &units[u].reads {
                let rs = readers.entry(a.as_str()).or_default();
                if rs.last() != Some(&si) {
                    rs.push(si);
                }
            }
        }
    }
    let flows: Vec<(&str, usize, Vec<usize>)> = writer
        .iter()
        .filter_map(|(&array, &p)| {
            let consumers: Vec<usize> = readers
                .get(array)
                .map(|rs| rs.iter().copied().filter(|&c| c != p).collect())
                .unwrap_or_default();
            assert!(
                consumers.iter().all(|&c| c > p),
                "partitioner invariant: `{array}` read by a stage before its writer"
            );
            (!consumers.is_empty()).then_some((array, p, consumers))
        })
        .collect();

    // Element streams of the channel arrays only, walked shape-only in
    // the stages that produce or consume one, and there only through the
    // units that touch one.
    let prog = Program::new(affine);
    let mut record = vec![false; prog.arrays().len()];
    let mut walked = vec![false; stages.len()];
    for (array, p, consumers) in &flows {
        if let Some(id) = prog.array_id(array) {
            record[id] = true;
        }
        for &s in std::iter::once(p).chain(consumers) {
            walked[s] = true;
        }
    }
    let mut m = prog.layout_only();
    let recorded = |a: &String| prog.array_id(a).is_some_and(|id| record[id]);
    let streams: Vec<_> = stage_units
        .iter()
        .zip(&walked)
        .map(|(us, &walk)| {
            let touching: Vec<usize> = us
                .iter()
                .copied()
                .filter(|&u| walk && units[u].reads.iter().chain(&units[u].writes).any(recorded))
                .collect();
            stream::stage_streams(&prog, &mut m, &touching, &record, false)
                .unwrap_or_else(|fault| panic!("{fault}"))
        })
        .collect();

    let mut channels = Vec::new();
    for (array, p, consumers) in flows {
        let id = prog.array_id(array);
        let ring = stream::ring(
            streams[p].writes(id),
            consumers.iter().map(|&c| streams[c].reads(id)),
        );
        let footprint = ring.pushes().len() as u64;
        let min_depth = ring.depth();
        // Streaming-compatible single-consumer flows get a FIFO sized
        // from the exact positional minimal depth (floored against the
        // round-trip latency). A static liveness window would saturate
        // to the full array for cross-nest flows (it describes the
        // sequential order), so streaming compatibility is judged on the
        // streams alone: a consumption order keeping more than half the
        // footprint in flight (e.g. a transposed or reversed reader), or
        // multiple consumers, falls back to ping-pong — 2× footprint,
        // which the push rule can never exhaust. A FIFO's capacity is at
        // least the ring depth, at which the replay of the same streams
        // cannot deadlock (the lemma `certify`'s property test pins).
        let streamable = min_depth <= (footprint / 2).max(FIFO_LATENCY_FLOOR);
        let fifo = consumers.len() == 1 && streamable;
        let (capacity, pingpong) = if fifo {
            (min_depth.max(FIFO_LATENCY_FLOOR), false)
        } else {
            (footprint.max(1) * 2, true)
        };
        channels.push(Channel {
            spec: ChannelSpec {
                array: array.to_string(),
                producer: p,
                consumers,
                capacity,
                pingpong,
            },
            min_depth,
            footprint,
        });
    }

    DataflowPlan {
        func: affine.name.clone(),
        stages,
        stage_stmts,
        channels,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pom_dsl::{BinOp, DataType, Expr, MemoryState};
    use pom_hls::{CostModel, DepSummary};
    use pom_ir::interp::execute_func;
    use pom_ir::{ForOp, HlsAttrs, MemRefDecl, StoreOp};
    use pom_poly::{AccessFn, Bound, LinearExpr};
    use pom_sim::{simulate, simulate_dataflow};

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

    /// A -> T -> U -> B elementwise chain; `reverse` makes the last
    /// consumer read its input backwards (streaming-incompatible).
    fn chain3(n: i64, reverse: bool) -> AffineFunc {
        let mut f = AffineFunc::new("chain3");
        for name in ["A", "T", "U", "B"] {
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
        let dbl = Expr::Binary(
            BinOp::Mul,
            Box::new(ld("T", LinearExpr::var("j"))),
            Box::new(Expr::Const(2.0)),
        );
        f.body.push(pipe_for(
            "j",
            0,
            n - 1,
            vec![st("q", "U", LinearExpr::var("j"), dbl)],
        ));
        let read_idx = if reverse {
            let mut e = LinearExpr::term("k", -1);
            e.add_constant(n - 1).unwrap();
            e
        } else {
            LinearExpr::var("k")
        };
        let dec = Expr::Binary(
            BinOp::Sub,
            Box::new(ld("U", read_idx)),
            Box::new(Expr::Const(3.0)),
        );
        f.body.push(pipe_for(
            "k",
            0,
            n - 1,
            vec![st("r", "B", LinearExpr::var("k"), dec)],
        ));
        f
    }

    #[test]
    fn forward_chain_partitions_into_streaming_fifos() {
        let f = chain3(64, false);
        let plan = partition(&f);
        assert_eq!(plan.stages.len(), 3);
        assert!(plan.is_pipeline());
        assert_eq!(plan.stage_stmts, vec![vec!["p"], vec!["q"], vec!["r"]]);
        assert_eq!(plan.channels.len(), 2);
        for c in &plan.channels {
            assert!(!c.spec.pingpong, "in-order flow should stream");
            assert_eq!(c.min_depth, 1);
            assert_eq!(c.spec.capacity, FIFO_LATENCY_FLOOR);
            assert!(c.spec.consumers.iter().all(|&s| s > c.spec.producer));
        }
        let text = plan.render();
        assert!(text.contains("dataflow pipeline"));
        assert!(text.contains("fifo depth 16"));
    }

    #[test]
    fn reversed_consumer_falls_back_to_pingpong() {
        let f = chain3(64, true);
        let plan = partition(&f);
        let u = plan
            .channels
            .iter()
            .find(|c| c.spec.array == "U")
            .expect("channel on U");
        assert!(u.spec.pingpong, "reversed reads cannot stream");
        assert_eq!(u.min_depth, 64, "whole array in flight");
        assert_eq!(u.spec.capacity, 128, "2x footprint");
        let t = plan
            .channels
            .iter()
            .find(|c| c.spec.array == "T")
            .expect("channel on T");
        assert!(!t.spec.pingpong, "upstream flow still streams");
    }

    #[test]
    fn anti_dependence_merges_stages() {
        // Unit 0 reads A into T; unit 1 overwrites A. Concurrent
        // execution would race, so they must share a stage.
        let n = 16i64;
        let mut f = AffineFunc::new("anti");
        for name in ["A", "T"] {
            f.memrefs
                .push(MemRefDecl::new(name, &[n as usize], DataType::F32));
        }
        f.body.push(pipe_for(
            "i",
            0,
            n - 1,
            vec![st(
                "p",
                "T",
                LinearExpr::var("i"),
                ld("A", LinearExpr::var("i")),
            )],
        ));
        f.body.push(pipe_for(
            "j",
            0,
            n - 1,
            vec![st("q", "A", LinearExpr::var("j"), Expr::Const(0.0))],
        ));
        let plan = partition(&f);
        assert_eq!(plan.stages.len(), 1, "anti dependence forbids the cut");
        assert!(plan.channels.is_empty());
        assert!(!plan.is_pipeline());
    }

    #[test]
    fn plan_certifies_and_cosimulates_bit_identically() {
        let f = chain3(64, false);
        let plan = partition(&f);
        let mem0 = seeded(&f, 7);

        // Every channel sizing certificate replays.
        let certs = channel_certificates(&f, &plan, &mem0);
        assert_eq!(certs.len(), 2);
        for c in &certs {
            assert!(c.passed(), "certificate failed: {:?}", c);
        }

        // Co-simulation: bit-identical memory, strictly fewer cycles
        // than the sequential schedule.
        let deps = DepSummary::new();
        let model = CostModel::vitis_f32();
        let mut df_mem = mem0.clone();
        let report = simulate_dataflow(
            &f,
            &deps,
            &plan.stages,
            &plan.channel_specs(),
            &mut df_mem,
            &model,
        );
        assert!(!report.deadlock);
        let mut seq_mem = mem0.clone();
        let seq = simulate(&f, &deps, &mut seq_mem, &model);
        assert!(
            report.cycles < seq.cycles,
            "dataflow {} vs sequential {}",
            report.cycles,
            seq.cycles
        );
        let mut ref_mem = mem0.clone();
        execute_func(&f, &mut ref_mem);
        for m in &f.memrefs {
            let got = df_mem.array(&m.name).unwrap().data();
            let want = ref_mem.array(&m.name).unwrap().data();
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(want) {
                assert_eq!(g.to_bits(), w.to_bits(), "{} diverged", m.name);
            }
        }
    }

    #[test]
    fn memory_lacking_an_array_fails_the_certificate_naming_it() {
        let f = chain3(16, false);
        let plan = partition(&f);
        let mut mem0 = seeded(&f, 7);
        mem0.take_entry("A");
        let certs = channel_certificates(&f, &plan, &mem0);
        assert_eq!(certs.len(), plan.channels.len());
        for c in &certs {
            assert!(!c.passed());
            let detail = &c.failures().next().unwrap().detail;
            assert!(detail.contains("memory lacks array `A`"), "got: {detail}");
        }
    }

    #[test]
    fn a_plan_without_channels_certifies_against_empty_memory() {
        // One stage (an anti dependence merges both units): nothing to
        // certify, so nothing executes — not even against memory that
        // holds no array at all.
        let mut f = chain3(16, false);
        f.body.push(pipe_for(
            "m",
            0,
            15,
            vec![st("w", "A", LinearExpr::var("m"), Expr::Const(0.0))],
        ));
        let plan = partition(&f);
        assert!(plan.channels.is_empty());
        assert!(channel_certificates(&f, &plan, &MemoryState::new()).is_empty());
    }

    #[test]
    fn undersized_channel_fails_its_certificate() {
        let f = chain3(64, true);
        let mut plan = partition(&f);
        // Tamper: force the reversed-read channel into a too-shallow
        // FIFO. The replay must refuse to certify it.
        let u = plan
            .channels
            .iter_mut()
            .find(|c| c.spec.array == "U")
            .unwrap();
        u.spec.pingpong = false;
        u.spec.capacity = 8;
        let mem0 = seeded(&f, 7);
        let certs = channel_certificates(&f, &plan, &mem0);
        let bad = certs
            .iter()
            .find(|c| c.rewrite.contains("channel U"))
            .unwrap();
        assert!(!bad.passed());
        let detail = &bad.failures().next().unwrap().detail;
        assert!(detail.contains("deadlocks"), "got: {detail}");
    }
}
