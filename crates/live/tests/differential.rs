//! Differential property: on randomized producer/consumer nests with a
//! temporary array, `pom-live`'s static bound on simultaneously-live
//! elements must dominate the simulator's measured per-array high-water
//! occupancy, and every claimed contraction must replay bit-identically.
//! The two sides derive liveness independently — FM projection over the
//! iteration polyhedron vs per-element last-read intervals in the
//! cycle-approximate simulator — so a violation means one of them is
//! wrong.
//!
//! On constant-bound rectangular full-coverage nests (sequential
//! produce-then-consume, identity access) the bound is additionally
//! required to be *tight*: every temporary cell is live at the nest
//! boundary, so static == simulated.
//!
//! The vendored proptest has no shrinking, so failures are minimized by
//! a greedy pass here and persisted as named corpus kernels under the
//! repo-root `tests/corpus/`; `corpus_regressions_replay` re-runs every
//! persisted kernel on each test run.

use pom_dsl::{BinOp, DataType, Expr};
use pom_hls::{CostModel, DepSummary};
use pom_ir::{AffineFunc, AffineOp, ForOp, HlsAttrs, MemRefDecl, StoreOp};
use pom_live::{analyze_func, replay_contraction, seeded_memory};
use pom_poly::{AccessFn, Bound, LinearExpr};
use pom_sim::simulate;
use proptest::prelude::*;
use std::path::PathBuf;

const SEED: u64 = 42;

/// One randomized producer/consumer kernel over a temporary `T`.
#[derive(Clone, Debug, PartialEq, Eq)]
struct LiveSpec {
    /// Producer and consumer share one nest (true) or run as separate
    /// sequential nests (false — the no-contraction shape).
    fused: bool,
    /// Nest depth: 1 or 2.
    depth: usize,
    /// Trip count per level.
    extents: [i64; 2],
    /// The consumer reads `T[i - shift]` along the outer axis.
    shift: i64,
    /// A trailing extra consumer nest re-reads all of `T` (extends the
    /// temporary's liveness to the end of the function).
    tail: bool,
}

impl LiveSpec {
    /// Effective shift, clamped so the consumer loop is never empty and
    /// never indexes below zero.
    fn eff_shift(&self) -> i64 {
        self.shift.min(self.extents[0] - 1).max(0)
    }

    fn shape(&self) -> Vec<usize> {
        self.extents[..self.depth]
            .iter()
            .map(|&e| e as usize)
            .collect()
    }

    /// One-line corpus serialization (the format `parse` reads back).
    fn serialize(&self) -> String {
        format!(
            "fused={} depth={} e0={} e1={} shift={} tail={}",
            self.fused as u8,
            self.depth,
            self.extents[0],
            self.extents[1],
            self.shift,
            self.tail as u8
        )
    }

    /// Parses [`serialize`]'s format. Unknown keys are rejected so a
    /// stale corpus file fails loudly instead of testing nothing.
    fn parse(line: &str) -> Result<LiveSpec, String> {
        let mut spec = LiveSpec {
            fused: false,
            depth: 1,
            extents: [2, 2],
            shift: 0,
            tail: false,
        };
        for field in line.split_whitespace() {
            let (key, value) = field
                .split_once('=')
                .ok_or_else(|| format!("bad field `{field}`"))?;
            let v: i64 = value.parse().map_err(|_| format!("bad value `{field}`"))?;
            match key {
                "fused" => spec.fused = v != 0,
                "depth" => spec.depth = v as usize,
                "e0" => spec.extents[0] = v,
                "e1" => spec.extents[1] = v,
                "shift" => spec.shift = v,
                "tail" => spec.tail = v != 0,
                other => return Err(format!("unknown key `{other}`")),
            }
        }
        if !(1..=2).contains(&spec.depth) || spec.extents.iter().any(|&e| e < 1) {
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

fn ld(array: &str, idx: Vec<LinearExpr>) -> Expr {
    Expr::Load(AccessFn::new(array, idx))
}

fn st(stmt: &str, array: &str, idx: Vec<LinearExpr>, value: Expr) -> AffineOp {
    AffineOp::Store(StoreOp {
        stmt: stmt.to_string(),
        dest: AccessFn::new(array, idx),
        value,
    })
}

fn add(a: Expr, b: Expr) -> Expr {
    Expr::Binary(BinOp::Add, Box::new(a), Box::new(b))
}

/// Index vector `[outer (, inner)]` with a constant offset on the outer
/// axis.
fn idx(spec: &LiveSpec, outer_off: i64) -> Vec<LinearExpr> {
    let mut outer = LinearExpr::var("i");
    outer.add_constant(outer_off);
    let mut v = vec![outer];
    if spec.depth == 2 {
        v.push(LinearExpr::var("j"));
    }
    v
}

/// Wraps `body` in the inner `j` loop when the spec is 2-D.
fn nest(spec: &LiveSpec, body: Vec<AffineOp>) -> Vec<AffineOp> {
    if spec.depth == 2 {
        vec![fl("j", 0, spec.extents[1] - 1, body)]
    } else {
        body
    }
}

/// Builds the kernel: `p` writes `T` from input `A`, `c` reads
/// `T[i]`/`T[i-shift]` into output `B`, and `tail` optionally re-reads
/// all of `T` into `C` in a trailing nest.
fn build(spec: &LiveSpec) -> AffineFunc {
    let mut f = AffineFunc::new("live_rand");
    let shape = spec.shape();
    for name in ["A", "T", "B", "C"] {
        f.memrefs.push(MemRefDecl::new(name, &shape, DataType::F32));
    }
    let s = spec.eff_shift();
    let producer = st(
        "p",
        "T",
        idx(spec, 0),
        add(ld("A", idx(spec, 0)), Expr::Const(1.0)),
    );
    let consumer = st(
        "c",
        "B",
        idx(spec, 0),
        add(ld("T", idx(spec, 0)), ld("T", idx(spec, -s))),
    );
    if spec.fused {
        // One nest from `s` so `T[i-shift]` reads the cell written
        // `shift` iterations ago (cells below `s` are read unwritten —
        // legal, the seeded memory defines them).
        f.body.push(fl(
            "i",
            s,
            spec.extents[0] - 1,
            nest(spec, vec![producer, consumer]),
        ));
    } else {
        f.body
            .push(fl("i", 0, spec.extents[0] - 1, nest(spec, vec![producer])));
        f.body
            .push(fl("i", s, spec.extents[0] - 1, nest(spec, vec![consumer])));
    }
    if spec.tail {
        let extra = st(
            "t",
            "C",
            idx(spec, 0),
            add(ld("T", idx(spec, 0)), Expr::Const(0.5)),
        );
        f.body
            .push(fl("i", 0, spec.extents[0] - 1, nest(spec, vec![extra])));
    }
    f
}

/// The soundness check: static bound ≥ simulated high-water for every
/// array, and every claimed contraction replays.
fn check(spec: &LiveSpec) -> Result<(), String> {
    let f = build(spec);
    let live = analyze_func(&f);
    let mut mem = seeded_memory(&f, SEED);
    let report = simulate(&f, &DepSummary::new(), &mut mem, &CostModel::vitis_f32());
    for al in &live.arrays {
        let hw = report
            .occupancy
            .iter()
            .find(|o| o.array == al.array)
            .map(|o| o.high_water)
            .unwrap_or(0);
        if hw > al.high_water_cells {
            return Err(format!(
                "array {}: simulated high-water {hw} exceeds static bound {} for {spec:?}",
                al.array, al.high_water_cells
            ));
        }
    }
    for al in live.arrays.iter().filter(|a| a.contracted()) {
        let mem0 = seeded_memory(&f, SEED);
        replay_contraction(&f, &mem0, &al.array, &al.windows).map_err(|e| {
            format!(
                "array {}: contraction to {:?} failed replay ({e}) for {spec:?}",
                al.array, al.windows
            )
        })?;
    }
    Ok(())
}

/// The tightness check for sequential identity full-coverage specs:
/// every `T` cell is live at the produce/consume boundary, so the
/// static bound must equal the simulated high-water exactly.
fn check_tight(spec: &LiveSpec) -> Result<(), String> {
    check(spec)?;
    let f = build(spec);
    let live = analyze_func(&f);
    let mut mem = seeded_memory(&f, SEED);
    let report = simulate(&f, &DepSummary::new(), &mut mem, &CostModel::vitis_f32());
    let al = live
        .arrays
        .iter()
        .find(|a| a.array == "T")
        .ok_or("no liveness row for T")?;
    let hw = report
        .occupancy
        .iter()
        .find(|o| o.array == "T")
        .map(|o| o.high_water)
        .unwrap_or(0);
    if hw != al.high_water_cells {
        return Err(format!(
            "T: static bound {} is not tight (simulated {hw}) for {spec:?}",
            al.high_water_cells
        ));
    }
    Ok(())
}

// ---- corpus persistence -------------------------------------------------

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus")
}

/// Greedy minimization: repeatedly try the simplifications below and
/// keep any that still fails `run`, until none does.
fn minimize(mut spec: LiveSpec, run: impl Fn(&LiveSpec) -> Result<(), String>) -> LiveSpec {
    loop {
        let mut candidates = Vec::new();
        if spec.tail {
            candidates.push(LiveSpec {
                tail: false,
                ..spec.clone()
            });
        }
        if spec.shift > 0 {
            candidates.push(LiveSpec {
                shift: 0,
                ..spec.clone()
            });
        }
        if spec.depth == 2 {
            candidates.push(LiveSpec {
                depth: 1,
                ..spec.clone()
            });
            if spec.extents[1] > 1 {
                let mut c = spec.clone();
                c.extents[1] -= 1;
                candidates.push(c);
            }
        }
        if spec.extents[0] > 1 {
            let mut c = spec.clone();
            c.extents[0] -= 1;
            candidates.push(c);
        }
        match candidates.into_iter().find(|c| run(c).is_err()) {
            Some(smaller) => spec = smaller,
            None => return spec,
        }
    }
}

/// Persists a minimized failing spec as a named corpus kernel and
/// returns its path. Replayed by `corpus_regressions_replay`.
fn persist(spec: &LiveSpec, property: &str) -> PathBuf {
    let line = spec.serialize();
    let h = pom_poly::fnv1a64(line.as_bytes());
    let dir = corpus_dir();
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join(format!("live-diff-{:08x}.kernel", h as u32));
    let _ = std::fs::write(
        &path,
        format!(
            "# minimized failure of `{property}` (crates/live/tests/differential.rs)\n\
             # replayed on every run by corpus_regressions_replay\n{line}\n"
        ),
    );
    path
}

fn fail(
    spec: LiveSpec,
    property: &str,
    err: String,
    run: impl Fn(&LiveSpec) -> Result<(), String>,
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

fn arb_spec() -> impl Strategy<Value = LiveSpec> {
    (
        (0u8..=1, 1usize..=2, 0u8..=1),
        (1i64..=6, 1i64..=4, 0i64..=2),
    )
        .prop_map(|((fused, depth, tail), (e0, e1, shift))| LiveSpec {
            fused: fused == 1,
            depth,
            extents: [e0, e1],
            shift,
            tail: tail == 1,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The static live bound dominates the simulated high-water and all
    /// contraction certificates replay, whatever the nest shape.
    #[test]
    fn static_bound_dominates_simulated_high_water(spec in arb_spec()) {
        if let Err(e) = check(&spec) {
            fail(spec, "static_bound_dominates_simulated_high_water", e, check);
        }
    }

    /// On sequential identity full-coverage nests the bound is exact:
    /// the whole temporary is live at the nest boundary.
    #[test]
    fn static_bound_is_tight_on_rectangular_full_coverage(spec in arb_spec()) {
        let spec = LiveSpec { fused: false, shift: 0, ..spec };
        if let Err(e) = check_tight(&spec) {
            fail(spec, "static_bound_is_tight_on_rectangular_full_coverage", e, check_tight);
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
        if path.extension().and_then(|e| e.to_str()) != Some("kernel") {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("corpus file readable");
        let tight = text.contains("tight");
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let spec = LiveSpec::parse(line).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            let result = if tight {
                check_tight(&spec)
            } else {
                check(&spec)
            };
            result.unwrap_or_else(|e| panic!("corpus kernel {} regressed: {e}", path.display()));
        }
    }
}

#[test]
fn corpus_format_roundtrips() {
    let spec = LiveSpec {
        fused: true,
        depth: 2,
        extents: [5, 3],
        shift: 2,
        tail: true,
    };
    assert_eq!(LiveSpec::parse(&spec.serialize()), Ok(spec));
    assert!(LiveSpec::parse("depth=0").is_err());
    assert!(LiveSpec::parse("wat=1").is_err());
}
