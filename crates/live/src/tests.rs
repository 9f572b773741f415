use super::*;
use pom_dsl::{BinOp, DataType, Expr};
use pom_ir::{AffineFunc, AffineOp, ForOp, HlsAttrs, MemRefDecl, StoreOp};
use pom_poly::{AccessFn, Bound};

fn cb(v: i64) -> Bound {
    Bound::new(LinearExpr::constant_expr(v), 1)
}

fn v(n: &str) -> LinearExpr {
    LinearExpr::var(n)
}

fn k(c: i64) -> LinearExpr {
    LinearExpr::constant_expr(c)
}

/// `for iv = lb ..= ub { body }` with constant bounds.
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

/// Time-expanded 1-D stencil with boundary propagation fused into the
/// time loop — the canonical contraction target. `B[tsteps][n]`, but
/// only two consecutive rows are ever live.
fn jacobi_fused(tsteps: i64, n: i64) -> AffineFunc {
    let mut f = AffineFunc::new("jacobi_fused");
    f.memrefs.push(MemRefDecl::new(
        "B",
        &[tsteps as usize, n as usize],
        DataType::F32,
    ));
    let tm1 = v("t") - k(1);
    f.body.push(fl(
        "t",
        1,
        tsteps - 1,
        vec![
            st(
                "sb0",
                "B",
                vec![v("t"), k(0)],
                ld("B", vec![tm1.clone(), k(0)]),
            ),
            st(
                "sb1",
                "B",
                vec![v("t"), k(n - 1)],
                ld("B", vec![tm1.clone(), k(n - 1)]),
            ),
            fl(
                "i",
                1,
                n - 2,
                vec![st(
                    "s",
                    "B",
                    vec![v("t"), v("i")],
                    add(
                        add(
                            ld("B", vec![tm1.clone(), v("i") - k(1)]),
                            ld("B", vec![tm1.clone(), v("i")]),
                        ),
                        ld("B", vec![tm1.clone(), v("i") + k(1)]),
                    ),
                )],
            ),
        ],
    ));
    f
}

#[test]
fn jacobi_fused_two_row_window() {
    let f = jacobi_fused(6, 10);
    let rep = analyze_func(&f);
    let b = rep.array("B").unwrap();
    assert!(b.exact, "jacobi analysis should stay exact");
    assert_eq!(b.windows, vec![2, 10], "two live rows");
    assert_eq!(b.high_water_cells, 20);
    assert!(b.contracted());
    assert_eq!(b.declared_cells(), 60);
    assert_eq!(b.contracted_cells(), 20);
    assert!(rep.dead_stores.is_empty());
}

#[test]
fn jacobi_fused_replay_certificate() {
    let f = jacobi_fused(6, 10);
    let mem = seeded_memory(&f, 42);
    let stores = replay_contraction(&f, &mem, "B", &[2, 10]).unwrap();
    assert_eq!(stores, 5 * 2 + 5 * 8, "every dynamic store compared");
    // A one-row window is illegal: row t clobbers row t-1 mid-sweep.
    assert!(replay_contraction(&f, &mem, "B", &[1, 10]).is_err());
}

#[test]
fn jacobi_sequential_nests_do_not_contract() {
    // The same three statements as separate sequential t-nests: the
    // boundary columns of *every* timestep are written before the
    // interior sweep starts, so the whole time axis is live and the
    // analysis must keep the full window.
    let tsteps = 6i64;
    let n = 10i64;
    let mut f = AffineFunc::new("jacobi_seq");
    f.memrefs.push(MemRefDecl::new(
        "B",
        &[tsteps as usize, n as usize],
        DataType::F32,
    ));
    let tm1 = v("t") - k(1);
    f.body.push(fl(
        "t",
        1,
        tsteps - 1,
        vec![st(
            "sb0",
            "B",
            vec![v("t"), k(0)],
            ld("B", vec![tm1.clone(), k(0)]),
        )],
    ));
    f.body.push(fl(
        "t",
        1,
        tsteps - 1,
        vec![st(
            "sb1",
            "B",
            vec![v("t"), k(n - 1)],
            ld("B", vec![tm1.clone(), k(n - 1)]),
        )],
    ));
    f.body.push(fl(
        "t",
        1,
        tsteps - 1,
        vec![fl(
            "i",
            1,
            n - 2,
            vec![st(
                "s",
                "B",
                vec![v("t"), v("i")],
                add(
                    add(
                        ld("B", vec![tm1.clone(), v("i") - k(1)]),
                        ld("B", vec![tm1.clone(), v("i")]),
                    ),
                    ld("B", vec![tm1.clone(), v("i") + k(1)]),
                ),
            )],
        )],
    ));
    let rep = analyze_func(&f);
    let b = rep.array("B").unwrap();
    assert_eq!(b.windows[0], tsteps, "whole time axis live across nests");
    assert!(!b.contracted());
}

#[test]
fn accumulator_keeps_full_window() {
    // C[i][j] += A[i][k]: every C cell is read before its first write,
    // so all of C is live-in and nothing may be contracted.
    let mut f = AffineFunc::new("acc");
    f.memrefs.push(MemRefDecl::new("C", &[4, 4], DataType::F32));
    f.memrefs.push(MemRefDecl::new("A", &[4, 4], DataType::F32));
    f.body.push(fl(
        "i",
        0,
        3,
        vec![fl(
            "j",
            0,
            3,
            vec![fl(
                "kk",
                0,
                3,
                vec![st(
                    "s",
                    "C",
                    vec![v("i"), v("j")],
                    add(
                        ld("C", vec![v("i"), v("j")]),
                        ld("A", vec![v("i"), v("kk")]),
                    ),
                )],
            )],
        )],
    ));
    let rep = analyze_func(&f);
    let c = rep.array("C").unwrap();
    assert!(c.exact);
    assert_eq!(c.windows, vec![4, 4]);
    assert!(!c.contracted());
    // Read-only inputs are all live-in: full window, never contracted.
    let a = rep.array("A").unwrap();
    assert_eq!(a.windows, vec![4, 4]);
    assert!(!a.contracted());
}

#[test]
fn copy_chain_flow_depth() {
    // s1 fills T, s2 drains it from a separate nest: all n elements are
    // in flight at the nest boundary, so the minimal depth is n.
    let n = 8i64;
    let mut f = AffineFunc::new("chain");
    f.memrefs
        .push(MemRefDecl::new("A", &[n as usize], DataType::F32));
    f.memrefs
        .push(MemRefDecl::new("T", &[n as usize], DataType::F32));
    f.memrefs
        .push(MemRefDecl::new("Y", &[n as usize], DataType::F32));
    f.body.push(fl(
        "i",
        0,
        n - 1,
        vec![st("s1", "T", vec![v("i")], ld("A", vec![v("i")]))],
    ));
    f.body.push(fl(
        "i",
        0,
        n - 1,
        vec![st("s2", "Y", vec![v("i")], ld("T", vec![v("i")]))],
    ));
    let rep = analyze_func(&f);
    let t = rep.array("T").unwrap();
    assert!(t.exact);
    assert_eq!(t.windows, vec![n], "whole array live at the nest boundary");
    assert!(!t.contracted());
    let d = rep
        .depths
        .iter()
        .find(|d| d.producer == "s1" && d.consumer == "s2" && d.array == "T")
        .expect("flow edge s1 -> s2 via T");
    assert_eq!(d.depth, n as u64);
    assert!(rep.dead_stores.is_empty());
}

#[test]
fn fused_copy_chain_depth_one() {
    // Same chain fused into one loop: each value is consumed in the
    // iteration that produced it, so the edge needs depth 1.
    let n = 8i64;
    let mut f = AffineFunc::new("chain_fused");
    f.memrefs
        .push(MemRefDecl::new("A", &[n as usize], DataType::F32));
    f.memrefs
        .push(MemRefDecl::new("T", &[n as usize], DataType::F32));
    f.memrefs
        .push(MemRefDecl::new("Y", &[n as usize], DataType::F32));
    f.body.push(fl(
        "i",
        0,
        n - 1,
        vec![
            st("s1", "T", vec![v("i")], ld("A", vec![v("i")])),
            st("s2", "Y", vec![v("i")], ld("T", vec![v("i")])),
        ],
    ));
    let rep = analyze_func(&f);
    let t = rep.array("T").unwrap();
    assert_eq!(t.windows, vec![1], "one element live at a time");
    assert!(t.contracted());
    let d = rep
        .depths
        .iter()
        .find(|d| d.producer == "s1" && d.consumer == "s2")
        .expect("flow edge");
    assert_eq!(d.depth, 1);
    let mem = seeded_memory(&f, 7);
    replay_contraction(&f, &mem, "T", &[1]).unwrap();
}

#[test]
fn dead_store_detected() {
    // s1's writes to T are fully overwritten by s2 before s3 reads.
    let n = 6i64;
    let mut f = AffineFunc::new("dead");
    f.memrefs
        .push(MemRefDecl::new("A", &[n as usize], DataType::F32));
    f.memrefs
        .push(MemRefDecl::new("A2", &[n as usize], DataType::F32));
    f.memrefs
        .push(MemRefDecl::new("T", &[n as usize], DataType::F32));
    f.memrefs
        .push(MemRefDecl::new("Y", &[n as usize], DataType::F32));
    f.body.push(fl(
        "i",
        0,
        n - 1,
        vec![st("s1", "T", vec![v("i")], ld("A", vec![v("i")]))],
    ));
    f.body.push(fl(
        "i",
        0,
        n - 1,
        vec![st("s2", "T", vec![v("i")], ld("A2", vec![v("i")]))],
    ));
    f.body.push(fl(
        "i",
        0,
        n - 1,
        vec![st("s3", "Y", vec![v("i")], ld("T", vec![v("i")]))],
    ));
    let rep = analyze_func(&f);
    assert_eq!(rep.dead_stores.len(), 1);
    let ds = &rep.dead_stores[0];
    assert_eq!(ds.stmt, "s1");
    assert_eq!(ds.array, "T");
    assert_eq!(ds.killer, "s2");
}

#[test]
fn read_between_blocks_dead_store() {
    // Same shape, but a read of T sits between the two writers: s1 is
    // observed and must not be flagged.
    let n = 6i64;
    let mut f = AffineFunc::new("not_dead");
    f.memrefs
        .push(MemRefDecl::new("A", &[n as usize], DataType::F32));
    f.memrefs
        .push(MemRefDecl::new("A2", &[n as usize], DataType::F32));
    f.memrefs
        .push(MemRefDecl::new("T", &[n as usize], DataType::F32));
    f.memrefs
        .push(MemRefDecl::new("Y", &[n as usize], DataType::F32));
    f.memrefs
        .push(MemRefDecl::new("Z", &[n as usize], DataType::F32));
    f.body.push(fl(
        "i",
        0,
        n - 1,
        vec![st("s1", "T", vec![v("i")], ld("A", vec![v("i")]))],
    ));
    f.body.push(fl(
        "i",
        0,
        n - 1,
        vec![st("sr", "Z", vec![v("i")], ld("T", vec![v("i")]))],
    ));
    f.body.push(fl(
        "i",
        0,
        n - 1,
        vec![st("s2", "T", vec![v("i")], ld("A2", vec![v("i")]))],
    ));
    f.body.push(fl(
        "i",
        0,
        n - 1,
        vec![st("s3", "Y", vec![v("i")], ld("T", vec![v("i")]))],
    ));
    let rep = analyze_func(&f);
    assert!(rep.dead_stores.is_empty(), "{:?}", rep.dead_stores);
}

#[test]
fn interior_only_bounding_contraction() {
    // A temporary touched only on the (n-2)^2 interior contracts to the
    // interior bounding box even though the whole array stays live
    // between the two nests.
    let n = 8i64;
    let mut f = AffineFunc::new("interior");
    f.memrefs.push(MemRefDecl::new(
        "A",
        &[n as usize, n as usize],
        DataType::F32,
    ));
    f.memrefs.push(MemRefDecl::new(
        "T",
        &[n as usize, n as usize],
        DataType::F32,
    ));
    f.memrefs.push(MemRefDecl::new(
        "Y",
        &[n as usize, n as usize],
        DataType::F32,
    ));
    f.body.push(fl(
        "i",
        1,
        n - 2,
        vec![fl(
            "j",
            1,
            n - 2,
            vec![st(
                "s1",
                "T",
                vec![v("i"), v("j")],
                ld("A", vec![v("i"), v("j")]),
            )],
        )],
    ));
    f.body.push(fl(
        "i",
        1,
        n - 2,
        vec![fl(
            "j",
            1,
            n - 2,
            vec![st(
                "s2",
                "Y",
                vec![v("i"), v("j")],
                ld("T", vec![v("i"), v("j")]),
            )],
        )],
    ));
    let rep = analyze_func(&f);
    let t = rep.array("T").unwrap();
    assert!(t.exact);
    assert_eq!(t.windows, vec![n - 2, n - 2]);
    assert!(t.contracted());
    let mem = seeded_memory(&f, 42);
    replay_contraction(&f, &mem, "T", &[n - 2, n - 2]).unwrap();
    assert!(replay_contraction(&f, &mem, "T", &[n - 3, n - 2]).is_err());
}

#[test]
fn write_only_array_is_live_out() {
    let mut f = AffineFunc::new("wo");
    f.memrefs.push(MemRefDecl::new("Y", &[16], DataType::F32));
    f.body.push(fl(
        "i",
        0,
        15,
        vec![st("s", "Y", vec![v("i")], Expr::Const(1.0))],
    ));
    let rep = analyze_func(&f);
    let y = rep.array("Y").unwrap();
    assert_eq!(y.windows, vec![16]);
    assert!(!y.contracted(), "write-only arrays are live-out");
    assert!(contracted_footprints(&f).is_empty());
}

#[test]
fn contracted_footprints_map() {
    let f = jacobi_fused(6, 10);
    let m = contracted_footprints(&f);
    assert_eq!(m.get("B"), Some(&(20 * 32)));
}

#[test]
fn exact_project_unit_cases() {
    // Substitution through a unit equality.
    let cons = vec![
        Constraint::ge(v("w"), k(0)),
        Constraint::le(v("w"), k(9)),
        Constraint::eq(v("e"), v("w")),
    ];
    let p = exact_project(&cons, &["w".to_string()]).unwrap();
    let env0: std::collections::HashMap<String, i64> =
        [("e".to_string(), 0i64)].into_iter().collect();
    let env10: std::collections::HashMap<String, i64> =
        [("e".to_string(), 10i64)].into_iter().collect();
    assert!(p.iter().all(|c| c.satisfied(&env0)));
    assert!(!p.iter().all(|c| c.satisfied(&env10)));
    // A non-unit coefficient defeats exactness.
    let cons = vec![Constraint::eq(v("e"), LinearExpr::term("w", 2))];
    assert!(exact_project(&cons, &["w".to_string()]).is_none());
}

#[test]
fn delta_bound_ranges() {
    let sys = vec![
        Constraint::ge(v("a"), k(0)),
        Constraint::le(v("a"), k(5)),
        Constraint::ge(v("b"), k(0)),
        Constraint::le(v("b"), k(5)),
        Constraint::le(v("a"), v("b")),
    ];
    match delta_bound(&sys, &(v("a") - v("b"))) {
        DeltaBound::Range(m) => assert_eq!(m, 5),
        _ => panic!("expected a finite range"),
    }
    let empty = vec![Constraint::ge(v("a"), k(1)), Constraint::le(v("a"), k(0))];
    assert!(matches!(delta_bound(&empty, &v("a")), DeltaBound::Empty));
}

#[test]
fn seeded_memory_matches_dsl_seeding() {
    use pom_dsl::Function;
    let mut df = Function::new("m");
    df.placeholder("B", &[4, 4], DataType::F32);
    let dsl_mem = pom_dsl::MemoryState::for_function_seeded(&df, 42);
    let mut f = AffineFunc::new("m");
    f.memrefs.push(MemRefDecl::new("B", &[4, 4], DataType::F32));
    let live_mem = seeded_memory(&f, 42);
    assert_eq!(
        dsl_mem.array("B").unwrap().data(),
        live_mem.array("B").unwrap().data()
    );
}

#[test]
fn render_smoke() {
    let f = jacobi_fused(6, 10);
    let rep = analyze_func(&f);
    let text = render(&rep);
    assert!(text.contains("jacobi_fused"));
    assert!(text.contains("2x10"));
}

#[test]
fn tiled_pair_merge_keeps_tiled_nests_exact() {
    // The DSE winner's shape: the spatial loop split into a tile pair
    // `16*o + u` with `u` spanning a full residue range. The merge rule
    // re-fuses the pair inside exact_project, so the two-row window
    // survives tiling.
    let tsteps = 6i64;
    let mut f = AffineFunc::new("jacobi_tiled");
    f.memrefs
        .push(MemRefDecl::new("B", &[tsteps as usize, 34], DataType::F32));
    let tm1 = v("t") - k(1);
    let ix = v("o") * 16 + v("u") + k(1);
    f.body.push(fl(
        "t",
        1,
        tsteps - 1,
        vec![
            st(
                "sb0",
                "B",
                vec![v("t"), k(0)],
                ld("B", vec![tm1.clone(), k(0)]),
            ),
            st(
                "sb1",
                "B",
                vec![v("t"), k(33)],
                ld("B", vec![tm1.clone(), k(33)]),
            ),
            fl(
                "o",
                0,
                1,
                vec![fl(
                    "u",
                    0,
                    15,
                    vec![st(
                        "s",
                        "B",
                        vec![v("t"), ix.clone()],
                        add(
                            add(
                                ld("B", vec![tm1.clone(), ix.clone() - k(1)]),
                                ld("B", vec![tm1.clone(), ix.clone()]),
                            ),
                            ld("B", vec![tm1.clone(), ix.clone() + k(1)]),
                        ),
                    )],
                )],
            ),
        ],
    ));
    let rep = analyze_func(&f);
    let b = rep.array("B").unwrap();
    assert!(b.exact, "tiled pair must merge, not degrade to inexact");
    assert_eq!(b.windows, vec![2, 34], "two live rows survive tiling");
    assert!(b.contracted());
    // The certificate replays: fold to the two-row window.
    let mem = seeded_memory(&f, 7);
    replay_contraction(&f, &mem, "B", &[2, 34]).expect("contraction replays");
}

#[test]
fn partial_tile_pair_is_not_merged() {
    // `u` spans only [0, 9] under coefficient 16: the image of
    // `16*o + u` has gaps, so the merge must refuse and the analysis
    // degrade to inexact full windows rather than claim a contraction.
    let mut f = AffineFunc::new("gappy");
    f.memrefs
        .push(MemRefDecl::new("B", &[4, 32], DataType::F32));
    let tm1 = v("t") - k(1);
    let ix = v("o") * 16 + v("u");
    f.body.push(fl(
        "t",
        1,
        3,
        vec![fl(
            "o",
            0,
            1,
            vec![fl(
                "u",
                0,
                9,
                vec![st(
                    "s",
                    "B",
                    vec![v("t"), ix.clone()],
                    ld("B", vec![tm1.clone(), ix.clone()]),
                )],
            )],
        )],
    ));
    let rep = analyze_func(&f);
    let b = rep.array("B").unwrap();
    assert!(!b.exact, "gappy tile image must not be claimed exact");
    assert_eq!(b.windows, vec![4, 32]);
    assert!(!b.contracted());
}

#[test]
fn replay_against_memory_lacking_an_array_fails_naming_it() {
    // for t { T[t] = A[t] + 1; B[t] = T[t] } with T contracted to one
    // cell, replayed over memory that holds T and B but not A.
    let mut f = AffineFunc::new("chain");
    for name in ["A", "T", "B"] {
        f.memrefs.push(MemRefDecl::new(name, &[8], DataType::F32));
    }
    f.body.push(fl(
        "t",
        0,
        7,
        vec![
            st(
                "s1",
                "T",
                vec![v("t")],
                add(ld("A", vec![v("t")]), Expr::Const(1.0)),
            ),
            st("s2", "B", vec![v("t")], ld("T", vec![v("t")])),
        ],
    ));
    let full = seeded_memory(&f, 3);
    assert!(replay_contraction(&f, &full, "T", &[1]).is_ok());
    let mut mem = pom_dsl::MemoryState::new();
    for name in ["T", "B"] {
        mem.insert(name, full.array(name).unwrap().clone());
    }
    let err = replay_contraction(&f, &mem, "T", &[1]).unwrap_err();
    assert_eq!(err, "memory lacks array A");
    // The contracted array itself missing is reported the same way.
    let err = replay_contraction(&f, &pom_dsl::MemoryState::new(), "T", &[1]).unwrap_err();
    assert_eq!(err, "memory lacks array T");
}
