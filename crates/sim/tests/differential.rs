//! Differential property: on randomized annotated affine nests, the
//! simulator's final memory state is bit-identical to the IR
//! interpreter's. HLS annotations (pipeline, unroll, partitioning) and
//! dependence summaries change *timing* only — never semantics — so
//! every combination must leave the functional result untouched.

use pom_dsl::{ArrayData, DataType, Expr, MemoryState, PartitionStyle};
use pom_hls::{CarriedDep, CostModel, DepSummary};
use pom_ir::interp::execute_func;
use pom_ir::{AffineFunc, AffineOp, ForOp, HlsAttrs, IfOp, MemRefDecl, PartitionInfo, StoreOp};
use pom_poly::{AccessFn, Bound, Constraint, LinearExpr};
use pom_sim::simulate;
use proptest::prelude::*;

/// Array extent per dimension; loop extents stay within it so every
/// access is in bounds by construction.
const N: i64 = 6;

/// One randomized nest configuration.
#[derive(Clone, Debug)]
struct NestSpec {
    /// Nest depth (1..=3).
    depth: usize,
    /// Trip count per level, 0 permitted (an empty loop).
    extents: [i64; 3],
    /// Constant offset of the `b` read at each level.
    offsets: [i64; 3],
    /// Reverse the `b` read index at each level ((extent-1) - iv).
    flips: [bool; 3],
    /// Pipeline the innermost loop at this target II.
    pipeline: Option<i64>,
    /// Unroll the outermost loop by this factor.
    unroll: Option<i64>,
    /// Guard the store with `i0 >= 1`.
    guard: bool,
    /// Partitioning applied to both arrays: 0 none, 1 cyclic(2),
    /// 2 block(2), 3 complete.
    partition: u8,
    /// Drop the innermost index of the destination (a reduction — the
    /// same element is rewritten every innermost iteration).
    reduce: bool,
    /// Record a carried dependence on the innermost loop.
    carried: bool,
}

fn arb_spec() -> impl Strategy<Value = NestSpec> {
    // The vendored proptest caps tuples at arity 4, so the knobs pack
    // into nested tuples and small integer selectors.
    (
        (1usize..=3, 0i64..=N, 0i64..=N, 0i64..=N),
        (0u8..=1, 0u8..=1, 0u8..=1, 0u8..=1),
        (0u8..=2, 0u8..=2, 0u8..=3),
        (0u8..=1, 0u8..=1),
    )
        .prop_map(
            |((depth, e0, e1, e2), (f0, f1, f2, guard), (pipe, unroll, partition), (red, car))| {
                let extents = [e0, e1, e2];
                // Offsets keep `iv + offset` inside the array.
                let offsets = [(N - e0).max(0) % 3, (N - e1).max(0) % 2, 0];
                NestSpec {
                    depth,
                    extents,
                    offsets,
                    flips: [f0 == 1, f1 == 1, f2 == 1],
                    pipeline: match pipe {
                        0 => None,
                        1 => Some(1),
                        _ => Some(2),
                    },
                    unroll: match unroll {
                        0 => None,
                        1 => Some(2),
                        _ => Some(3),
                    },
                    guard: guard == 1,
                    partition,
                    reduce: red == 1,
                    carried: car == 1,
                }
            },
        )
}

fn iv(level: usize) -> String {
    format!("i{level}")
}

/// The read index of level `level`: `iv + offset` or `(extent-1) - iv`,
/// both within `[0, N)` by construction.
fn read_index(spec: &NestSpec, level: usize) -> LinearExpr {
    if spec.flips[level] {
        let mut e = LinearExpr::term(iv(level), -1);
        e.add_constant((spec.extents[level] - 1).max(0)).unwrap();
        e
    } else {
        let mut e = LinearExpr::var(iv(level));
        e.add_constant(spec.offsets[level]).unwrap();
        e
    }
}

fn build(spec: &NestSpec) -> AffineFunc {
    let shape: Vec<usize> = vec![N as usize; spec.depth];
    let mut f = AffineFunc::new("rand");
    let partition = match spec.partition {
        0 => None,
        1 => Some(PartitionInfo {
            factors: vec![2; spec.depth],
            style: PartitionStyle::Cyclic,
        }),
        2 => Some(PartitionInfo {
            factors: vec![2; spec.depth],
            style: PartitionStyle::Block,
        }),
        _ => Some(PartitionInfo {
            factors: vec![N; spec.depth],
            style: PartitionStyle::Complete,
        }),
    };
    for name in ["a", "b"] {
        let mut m = MemRefDecl::new(name, &shape, DataType::F32);
        m.partition = partition.clone();
        f.memrefs.push(m);
    }

    // dest: a[i0, .., iK] with the innermost index dropped to 0 under
    // `reduce` (every innermost iteration rewrites the same element).
    let mut dest_idx: Vec<LinearExpr> = (0..spec.depth).map(|l| LinearExpr::var(iv(l))).collect();
    if spec.reduce {
        dest_idx[spec.depth - 1] = LinearExpr::zero();
    }
    let read_idx: Vec<LinearExpr> = (0..spec.depth).map(|l| read_index(spec, l)).collect();
    let value = Expr::Load(AccessFn::new("a", dest_idx.clone()))
        + Expr::Load(AccessFn::new("b", read_idx)) * Expr::Const(0.5)
        + Expr::Const(1.0);
    let store = AffineOp::Store(StoreOp {
        stmt: "S".into(),
        dest: AccessFn::new("a", dest_idx),
        value,
    });
    let mut body = if spec.guard {
        let mut cond = LinearExpr::var(iv(0));
        cond.add_constant(-1).unwrap();
        vec![AffineOp::If(IfOp {
            conds: vec![Constraint::ge_zero(cond)],
            body: vec![store],
        })]
    } else {
        vec![store]
    };
    for level in (0..spec.depth).rev() {
        let mut l = ForOp {
            extra: Vec::new(),
            iv: iv(level),
            lbs: vec![Bound::new(LinearExpr::zero(), 1)],
            ubs: vec![Bound::new(
                LinearExpr::constant_expr(spec.extents[level] - 1),
                1,
            )],
            attrs: HlsAttrs::none(),
            body,
        };
        if level == spec.depth - 1 {
            l.attrs.pipeline_ii = spec.pipeline;
        }
        if level == 0 && spec.depth > 1 {
            l.attrs.unroll_factor = spec.unroll;
        }
        body = vec![AffineOp::For(l)];
    }
    f.body = body;
    f
}

fn deps_for(spec: &NestSpec) -> DepSummary {
    let mut deps = DepSummary::new();
    if spec.carried {
        deps.insert(
            iv(spec.depth - 1),
            CarriedDep {
                array: "a".into(),
                distance: 1,
                chain_latency: 8,
            },
        );
    }
    deps
}

fn seeded(f: &AffineFunc, seed: u64) -> MemoryState {
    let mut mem = MemoryState::new();
    for m in &f.memrefs {
        let salt: u64 = m.name.bytes().map(u64::from).sum();
        mem.insert(
            m.name.clone(),
            ArrayData::from_fn(&m.shape, |i| {
                ((i as u64).wrapping_mul(0x9E37).wrapping_add(seed ^ salt) % 97) as f64 / 7.0
            }),
        );
    }
    mem
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever the annotations, simulation computes exactly what the
    /// interpreter computes.
    #[test]
    fn simulation_is_functionally_equivalent_to_the_interpreter(spec in arb_spec()) {
        let f = build(&spec);
        let deps = deps_for(&spec);
        let model = CostModel::vitis_f32();
        let mut interp_mem = seeded(&f, 7);
        execute_func(&f, &mut interp_mem);
        let mut sim_mem = seeded(&f, 7);
        let report = simulate(&f, &deps, &mut sim_mem, &model);
        prop_assert_eq!(&interp_mem, &sim_mem, "memory diverged for {:?}", &spec);
        // Timing sanity: an empty outermost loop costs nothing (inner
        // empty loops still pay the enclosing loops' control overhead),
        // and stalls never exceed total cycles.
        let trips: i64 = spec.extents[..spec.depth].iter().product();
        if spec.extents[0] == 0 {
            prop_assert_eq!(report.cycles, 0, "empty nest cost cycles for {:?}", &spec);
        }
        if trips > 0 && spec.pipeline.is_some() {
            prop_assert!(report.pipeline_iterations > 0);
        }
        prop_assert!(report.stall_dep + report.stall_port <= report.cycles);
    }
}
