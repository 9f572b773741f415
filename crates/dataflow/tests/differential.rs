//! Differential property: on randomized 2–4 stage producer/consumer
//! chains — shifted consumer windows, a single-cell reduction stage,
//! a reversed (ping-pong-forcing) reader, an empty-extent tail nest —
//! the concurrent-process dataflow simulation must leave memory
//! bit-identical to the sequential affine interpreter, never deadlock,
//! and every `ChannelSized` certificate the partitioner emits must
//! replay. The two sides execute independently — per-stage processes
//! over bounded blocking channels vs one in-order interpreter walk — so
//! a divergence means the partitioner cut an illegal boundary, sized a
//! channel too shallow, or the channel model leaks.
//!
//! The vendored proptest has no shrinking, so failures are minimized by
//! a greedy pass here and persisted as named corpus kernels under the
//! repo-root `tests/corpus/`; `corpus_regressions_replay` re-runs every
//! persisted kernel on each test run.

use pom_dataflow::{channel_certificates, partition, DataflowPlan, FIFO_LATENCY_FLOOR};
use pom_dsl::{BinOp, DataType, Expr};
use pom_hls::{CostModel, DepSummary};
use pom_ir::{execute_func, AffineFunc, AffineOp, ForOp, HlsAttrs, MemRefDecl, StoreOp};
use pom_live::seeded_memory;
use pom_poly::{AccessFn, Bound, LinearExpr};
use pom_sim::simulate_dataflow;
use pom_verify::ObligationStatus;
use proptest::prelude::*;
use std::path::PathBuf;

const SEED: u64 = 42;

/// One randomized dataflow chain `A -> T1 -> ... -> B (-> Z)`.
#[derive(Clone, Debug, PartialEq, Eq)]
struct ChainSpec {
    /// Compute stages in the chain (2..=4).
    stages: usize,
    /// Trip count of every nest (1..=40, so footprints straddle the
    /// sizing rule's thresholds at `FIFO_LATENCY_FLOOR` and twice it).
    extent: i64,
    /// Stage 1 reads `T1[i - shift]` over `i in shift..extent-1` (a
    /// shifted window; cells below `shift` stay unwritten live-ins).
    shift: i64,
    /// The last stage reads its input reversed (`[extent-1-i]`), which
    /// keeps the whole footprint in flight: a ping-pong once that exceeds
    /// `FIFO_LATENCY_FLOOR`, a floor-sized FIFO holding it all below.
    reverse: bool,
    /// Stage 1 reduces its input into a single cell (`T2[0] += T1[i]`)
    /// instead of mapping element-wise.
    reduce: bool,
    /// A trailing nest with an empty extent (`0..=-1`) reads the chain
    /// output — a stage that statically consumes but never executes.
    tail_empty: bool,
}

impl ChainSpec {
    /// Effective shift, clamped so the shifted nest is never empty.
    fn eff_shift(&self) -> i64 {
        self.shift.min(self.extent - 1).max(0)
    }

    /// One-line corpus serialization (the format `parse` reads back).
    fn serialize(&self) -> String {
        format!(
            "stages={} extent={} shift={} reverse={} reduce={} tail={}",
            self.stages,
            self.extent,
            self.shift,
            self.reverse as u8,
            self.reduce as u8,
            self.tail_empty as u8
        )
    }

    /// Parses [`ChainSpec::serialize`]'s format. Unknown keys are
    /// rejected so a stale corpus file fails loudly instead of testing
    /// nothing.
    fn parse(line: &str) -> Result<ChainSpec, String> {
        let mut spec = ChainSpec {
            stages: 2,
            extent: 2,
            shift: 0,
            reverse: false,
            reduce: false,
            tail_empty: false,
        };
        for field in line.split_whitespace() {
            let (key, value) = field
                .split_once('=')
                .ok_or_else(|| format!("bad field `{field}`"))?;
            let v: i64 = value.parse().map_err(|_| format!("bad value `{field}`"))?;
            match key {
                "stages" => spec.stages = v as usize,
                "extent" => spec.extent = v,
                "shift" => spec.shift = v,
                "reverse" => spec.reverse = v != 0,
                "reduce" => spec.reduce = v != 0,
                "tail" => spec.tail_empty = v != 0,
                other => return Err(format!("unknown key `{other}`")),
            }
        }
        if !(2..=4).contains(&spec.stages) || spec.extent < 1 {
            return Err(format!("out-of-range spec `{line}`"));
        }
        Ok(spec)
    }
}

fn cb(v: i64) -> Bound {
    Bound::new(LinearExpr::constant_expr(v), 1)
}

fn fl(iv: &str, lb: i64, ub: i64, body: Vec<AffineOp>) -> AffineOp {
    AffineOp::For(ForOp {
        iv: iv.to_string(),
        lbs: vec![cb(lb)],
        ubs: vec![cb(ub)],
        attrs: HlsAttrs::default(),
        extra: Vec::new(),
        body,
    })
}

fn ld(array: &str, idx: LinearExpr) -> Expr {
    Expr::Load(AccessFn::new(array, vec![idx]))
}

fn st(stmt: &str, array: &str, idx: LinearExpr, value: Expr) -> AffineOp {
    AffineOp::Store(StoreOp {
        stmt: stmt.to_string(),
        dest: AccessFn::new(array, vec![idx]),
        value,
    })
}

fn add(a: Expr, b: Expr) -> Expr {
    Expr::Binary(BinOp::Add, Box::new(a), Box::new(b))
}

/// `i + off` / `extent-1 - i` index helpers.
fn fwd(off: i64) -> LinearExpr {
    let mut e = LinearExpr::var("i");
    e.add_constant(off).unwrap();
    e
}

fn rev(extent: i64) -> LinearExpr {
    let mut e = LinearExpr::term("i", -1);
    e.add_constant(extent - 1).unwrap();
    e
}

/// The chain's array names: `A`, `T1..`, `B` — stage `k` reads index
/// `k`, writes index `k+1`.
fn arrays(spec: &ChainSpec) -> Vec<String> {
    let mut v = vec!["A".to_string()];
    for t in 1..spec.stages {
        v.push(format!("T{t}"));
    }
    v.push("B".to_string());
    v
}

/// Builds the chain kernel described by the spec.
fn build(spec: &ChainSpec) -> AffineFunc {
    let mut f = AffineFunc::new("df_rand");
    let names = arrays(spec);
    let shape = [spec.extent as usize];
    for name in &names {
        f.memrefs.push(MemRefDecl::new(name, &shape, DataType::F32));
    }
    let e = spec.extent;
    let last_k = spec.stages - 1;

    // Stage 0: T1[i] = A[i] + 1.
    f.body.push(fl(
        "i",
        0,
        e - 1,
        vec![st(
            "s0",
            &names[1],
            fwd(0),
            add(ld(&names[0], fwd(0)), Expr::Const(1.0)),
        )],
    ));
    // Stages 1..: each reads the previous array, writes the next.
    for k in 1..spec.stages {
        let stmt = format!("s{k}");
        let (src, dst) = (&names[k], &names[k + 1]);
        let op = if spec.reduce && k == 1 {
            // Reduction: every iteration accumulates into dst[0]; the
            // consumer blocks on element 0 until the last write lands.
            fl(
                "i",
                0,
                e - 1,
                vec![st(
                    &stmt,
                    dst,
                    LinearExpr::constant_expr(0),
                    add(ld(dst, LinearExpr::constant_expr(0)), ld(src, fwd(0))),
                )],
            )
        } else if spec.reverse && k == last_k {
            fl(
                "i",
                0,
                e - 1,
                vec![st(
                    &stmt,
                    dst,
                    fwd(0),
                    add(ld(src, rev(e)), Expr::Const(2.0)),
                )],
            )
        } else if k == 1 {
            let s = spec.eff_shift();
            fl(
                "i",
                s,
                e - 1,
                vec![st(
                    &stmt,
                    dst,
                    fwd(0),
                    add(ld(src, fwd(-s)), Expr::Const(2.0)),
                )],
            )
        } else {
            fl(
                "i",
                0,
                e - 1,
                vec![st(
                    &stmt,
                    dst,
                    fwd(0),
                    add(ld(src, fwd(0)), Expr::Const(2.0)),
                )],
            )
        };
        f.body.push(op);
    }
    if spec.tail_empty {
        // A nest whose domain is empty: it statically reads B but never
        // runs — the channel into it sees pushes and zero pops.
        f.memrefs.push(MemRefDecl::new("Z", &shape, DataType::F32));
        f.body.push(fl(
            "i",
            0,
            -1,
            vec![st(
                "tail",
                "Z",
                fwd(0),
                add(ld(&names[spec.stages], fwd(0)), Expr::Const(0.5)),
            )],
        ));
    }
    f
}

/// The differential check: partition, co-simulate, compare memory bit
/// for bit against the interpreter, and replay every channel-sizing
/// certificate.
fn check(spec: &ChainSpec) -> Result<(), String> {
    let f = build(spec);
    let plan = partition(&f);
    let want_stages = spec.stages + spec.tail_empty as usize;
    if plan.stages.len() != want_stages {
        return Err(format!(
            "partitioner cut {} stage(s), expected {want_stages}, for {spec:?}",
            plan.stages.len()
        ));
    }
    check_sizing(&plan).map_err(|e| format!("{e} for {spec:?}"))?;
    let deps = DepSummary::new();
    let mut df_mem = seeded_memory(&f, SEED);
    let report = simulate_dataflow(
        &f,
        &deps,
        &plan.stages,
        &plan.channel_specs(),
        &mut df_mem,
        &CostModel::vitis_f32(),
    );
    if report.deadlock {
        return Err(format!("dataflow execution deadlocked for {spec:?}"));
    }
    let mut interp_mem = seeded_memory(&f, SEED);
    execute_func(&f, &mut interp_mem);
    if df_mem != interp_mem {
        return Err(format!(
            "dataflow memory diverged from the interpreter for {spec:?}"
        ));
    }
    let mem0 = seeded_memory(&f, SEED);
    for c in channel_certificates(&f, &plan, &mem0) {
        for o in &c.obligations {
            if o.status != ObligationStatus::Passed {
                return Err(format!(
                    "certificate `{}` failed replay ({}) for {spec:?}",
                    c.rewrite, o.detail
                ));
            }
        }
    }
    Ok(())
}

/// The sizing rule, read from the recorded streams alone: a channel is
/// a FIFO exactly when it has one consumer and its minimal depth keeps
/// at most half the footprint (or the latency floor) in flight, and
/// then holds `max(min_depth, FIFO_LATENCY_FLOOR)`; every other channel
/// is a ping-pong of twice the footprint.
fn check_sizing(plan: &DataflowPlan) -> Result<(), String> {
    for c in &plan.channels {
        let (spec, min, fp) = (&c.spec, c.min_depth, c.footprint);
        let streamable = min <= (fp / 2).max(FIFO_LATENCY_FLOOR);
        let want = if spec.consumers.len() == 1 && streamable {
            (min.max(FIFO_LATENCY_FLOOR), false)
        } else {
            (2 * fp.max(1), true)
        };
        if (spec.capacity, spec.pingpong) != want {
            return Err(format!(
                "channel {} (min {min}, footprint {fp}, {} consumer(s)) sized \
                 (capacity {}, ping-pong {}), the rule says {want:?}",
                spec.array,
                spec.consumers.len(),
                spec.capacity,
                spec.pingpong
            ));
        }
    }
    Ok(())
}

// ---- corpus persistence -------------------------------------------------

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus")
}

/// Greedy minimization: repeatedly try the simplifications below and
/// keep any that still fails `run`, until none does.
fn minimize(mut spec: ChainSpec, run: impl Fn(&ChainSpec) -> Result<(), String>) -> ChainSpec {
    loop {
        let mut candidates = Vec::new();
        for flag in [
            ChainSpec {
                tail_empty: false,
                ..spec.clone()
            },
            ChainSpec {
                reverse: false,
                ..spec.clone()
            },
            ChainSpec {
                reduce: false,
                ..spec.clone()
            },
        ] {
            if flag != spec {
                candidates.push(flag);
            }
        }
        if spec.shift > 0 {
            candidates.push(ChainSpec {
                shift: 0,
                ..spec.clone()
            });
        }
        if spec.stages > 2 {
            candidates.push(ChainSpec {
                stages: spec.stages - 1,
                ..spec.clone()
            });
        }
        if spec.extent > 1 {
            candidates.push(ChainSpec {
                extent: spec.extent - 1,
                ..spec.clone()
            });
        }
        match candidates.into_iter().find(|c| run(c).is_err()) {
            Some(smaller) => spec = smaller,
            None => return spec,
        }
    }
}

/// Persists a minimized failing spec as a named corpus kernel and
/// returns its path. Replayed by `corpus_regressions_replay`.
fn persist(spec: &ChainSpec, property: &str) -> PathBuf {
    let line = spec.serialize();
    let h = pom_poly::fnv1a64(line.as_bytes());
    let dir = corpus_dir();
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join(format!("dataflow-diff-{:08x}.kernel", h as u32));
    let _ = std::fs::write(
        &path,
        format!(
            "# minimized failure of `{property}` (crates/dataflow/tests/differential.rs)\n\
             # replayed on every run by corpus_regressions_replay\n{line}\n"
        ),
    );
    path
}

fn fail(
    spec: ChainSpec,
    property: &str,
    err: String,
    run: impl Fn(&ChainSpec) -> Result<(), String>,
) -> ! {
    let min = minimize(spec, &run);
    let min_err = run(&min).err().unwrap_or_else(|| err.clone());
    let path = persist(&min, property);
    panic!(
        "{min_err}\nminimized kernel persisted at {}",
        path.display()
    );
}

// ---- the properties -----------------------------------------------------

fn arb_spec() -> impl Strategy<Value = ChainSpec> {
    (
        (2usize..=4, 1i64..=40, 0i64..=2),
        (0u8..=1, 0u8..=1, 0u8..=1),
    )
        .prop_map(
            |((stages, extent, shift), (reverse, reduce, tail))| ChainSpec {
                stages,
                extent,
                shift,
                reverse: reverse == 1,
                reduce: reduce == 1,
                tail_empty: tail == 1,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Dataflow execution is bit-identical to the interpreter, never
    /// deadlocks, and every channel certificate replays, whatever the
    /// chain shape.
    #[test]
    fn dataflow_matches_interpreter_and_certificates_replay(spec in arb_spec()) {
        if let Err(e) = check(&spec) {
            fail(spec, "dataflow_matches_interpreter_and_certificates_replay", e, check);
        }
    }
}

/// Replays every persisted corpus kernel — past minimized failures stay
/// fixed forever.
#[test]
fn corpus_regressions_replay() {
    let dir = corpus_dir();
    let Ok(entries) = std::fs::read_dir(&dir) else {
        return; // no corpus yet
    };
    for entry in entries {
        let path = entry.expect("corpus entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if !name.starts_with("dataflow-diff-")
            || path.extension().and_then(|e| e.to_str()) != Some("kernel")
        {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("corpus file readable");
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let spec = ChainSpec::parse(line).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            check(&spec)
                .unwrap_or_else(|e| panic!("corpus kernel {} regressed: {e}", path.display()));
        }
    }
}

#[test]
fn corpus_format_roundtrips() {
    let spec = ChainSpec {
        stages: 3,
        extent: 5,
        shift: 2,
        reverse: true,
        reduce: true,
        tail_empty: true,
    };
    assert_eq!(ChainSpec::parse(&spec.serialize()), Ok(spec));
    assert!(ChainSpec::parse("stages=1").is_err());
    assert!(ChainSpec::parse("wat=1").is_err());
}
