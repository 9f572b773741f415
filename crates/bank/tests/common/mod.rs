//! Random small pipelined bodies for the bank analysis's oracles:
//! unrolled inner loops, shifted windows, reductions, mixed shapes such as
//! `a[i]` beside `a[2i]`, and non-dividing split tails whose bounds force
//! case enumeration — one with a `max(…)` head, as splitting a range that
//! starts past zero leaves — under random cyclic and block partitions.
//!
//! Shared by `brute_force.rs`, which executes every iteration, and by
//! `pom-bank`'s unit tests, which compare the class path of case
//! enumeration against classifying every case.

#![allow(dead_code)]

use pom_dsl::{DataType, Expr, PartitionStyle};
use pom_ir::{AffineFunc, AffineOp, ForOp, HlsAttrs, MemRefDecl, PartitionInfo, StoreOp};
use pom_poly::{AccessFn, Bound, LinearExpr};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

/// Array names and shapes: a 1-D window source, a 2-D array for the
/// mixed-radix combine, and a small reduction target.
pub const ARRAYS: [(&str, &[usize]); 3] = [("a", &[64]), ("m", &[4, 32]), ("s", &[8])];

/// How a statement's unrolled inner loop `k` is bounded.
#[derive(Clone, Copy, Debug)]
pub enum Unroll {
    /// No inner loop.
    None,
    /// `k` in `0..=n-1`.
    Const(i64),
    /// `k` in `0..=min(n-1, t-1 - n*i)`: the tail of splitting a trip
    /// count `t` that `n` does not divide.
    TailI(i64, i64),
    /// `k` in `max(0, h - n*i)..=min(n-1, t-1 - n*i)`: the split of the
    /// range `h..t` with `0 < h < n`, whose first case starts late, whose
    /// last may end early, and whose interior cases run in full.
    Window(i64, i64, i64),
    /// `k` in `0..=n-1-j`: a triangle over the sequential iterator.
    TailJ(i64),
}

impl Unroll {
    /// Whether the bounds mention an enclosing iterator, so the analysis
    /// enumerates cases.
    pub fn tail(self) -> bool {
        matches!(
            self,
            Unroll::TailI(..) | Unroll::Window(..) | Unroll::TailJ(_)
        )
    }
}

/// An access: array index plus, per dimension, the coefficients of
/// `i`, `k`, `j` and the constant.
#[derive(Clone, Debug)]
pub struct Access {
    pub array: usize,
    pub dims: Vec<[i64; 4]>,
}

#[derive(Clone, Debug)]
pub struct Stmt {
    pub unroll: Unroll,
    pub dest: Access,
    pub loads: Vec<Access>,
}

#[derive(Clone, Debug)]
pub struct Body {
    pub j_trip: i64,
    pub i_trip: i64,
    pub stmts: Vec<Stmt>,
    /// Per array: `None`, or factors with cyclic (`true`) or block style.
    pub parts: Vec<Option<(Vec<i64>, bool)>>,
}

pub fn pick(rng: &mut TestRng, lo: i64, hi: i64) -> i64 {
    (lo..=hi).generate(rng)
}

fn gen_access(rng: &mut TestRng, unrolled: bool) -> Access {
    let array = pick(rng, 0, 2) as usize;
    let ck = |rng: &mut TestRng| if unrolled { pick(rng, 0, 1) } else { 0 };
    // i's coefficient is 1 most of the time, 2 or 4 (mixed shapes, and
    // one array under two coefficients on a tail's case iterator) or 0
    // (loop-invariant) otherwise.
    let ci = |rng: &mut TestRng| [0, 1, 1, 1, 2, 4][pick(rng, 0, 5) as usize];
    let dims = match array {
        0 => vec![[ci(rng), ck(rng), pick(rng, 0, 1), pick(rng, 0, 3)]],
        1 => vec![
            [0, 0, pick(rng, 0, 1), pick(rng, 0, 1)],
            [ci(rng).max(1), ck(rng), 0, pick(rng, 0, 3)],
        ],
        _ => vec![[0, ck(rng), pick(rng, 0, 1), pick(rng, 0, 2)]],
    };
    Access { array, dims }
}

pub fn gen_body(rng: &mut TestRng) -> Body {
    let j_trip = pick(rng, 1, 2);
    let i_trip = pick(rng, 2, 6);
    let stmts: Vec<Stmt> = (0..pick(rng, 1, 3))
        .map(|_| {
            let n = pick(rng, 2, 3);
            let unroll = match pick(rng, 0, 6) {
                0 | 1 => Unroll::None,
                2 | 3 => Unroll::Const(n),
                4 => Unroll::TailI(n, pick(rng, n * (i_trip - 1) + 1, n * i_trip - 1)),
                // Two interior cases or more need four cases.
                5 if i_trip >= 4 => Unroll::Window(
                    n,
                    pick(rng, 1, n - 1),
                    pick(rng, n * (i_trip - 1) + 1, n * i_trip),
                ),
                _ => Unroll::TailJ(n),
            };
            let unrolled = !matches!(unroll, Unroll::None);
            let dest = gen_access(rng, unrolled);
            let mut loads: Vec<Access> = (0..pick(rng, 1, 3))
                .map(|_| gen_access(rng, unrolled))
                .collect();
            // A read-modify-write of the destination: a reduction.
            if pick(rng, 0, 2) == 0 {
                loads[0] = dest.clone();
            }
            Stmt {
                unroll,
                dest,
                loads,
            }
        })
        .collect();
    // Under a tail, the dimension the unrolled `k` indexes is often block
    // partitioned: the case iterator then moves block bank coordinates.
    let tail = stmts.iter().any(|s| s.unroll.tail());
    let parts = ARRAYS
        .iter()
        .map(|(_, shape)| match pick(rng, 0, 3) {
            0 => None,
            3 if tail => {
                let mut f = vec![1; shape.len()];
                f[shape.len() - 1] = pick(rng, 2, 4);
                Some((f, false))
            }
            style => Some((shape.iter().map(|_| pick(rng, 1, 4)).collect(), style == 1)),
        })
        .collect();
    Body {
        j_trip,
        i_trip,
        stmts,
        parts,
    }
}

pub fn cb(v: i64) -> Bound {
    Bound::new(LinearExpr::constant_expr(v), 1)
}

pub fn seq(iv: &str, lbs: Vec<Bound>, ubs: Vec<Bound>, body: Vec<AffineOp>) -> ForOp {
    ForOp {
        iv: iv.into(),
        lbs,
        ubs,
        attrs: HlsAttrs::default(),
        extra: Vec::new(),
        body,
    }
}

fn access_fn(a: &Access) -> AccessFn {
    let idx = a
        .dims
        .iter()
        .map(|&[ci, ck, cj, c]| {
            LinearExpr::term("i", ci) + LinearExpr::term("k", ck) + LinearExpr::term("j", cj) + c
        })
        .collect();
    AccessFn::new(ARRAYS[a.array].0, idx)
}

/// `for j (seq) { for i (pipelined, II 1) { <stmts> } }` over the
/// generated arrays and partitions.
pub fn build(b: &Body) -> AffineFunc {
    let (i, j) = (LinearExpr::var("i"), LinearExpr::var("j"));
    let stmts = b
        .stmts
        .iter()
        .map(|s| {
            let value = s
                .loads
                .iter()
                .map(|a| Expr::Load(access_fn(a)))
                .reduce(|x, y| x + y)
                .expect("at least one load");
            let store = AffineOp::Store(StoreOp {
                stmt: "S".into(),
                dest: access_fn(&s.dest),
                value,
            });
            let tail_ub =
                |n: i64, t: i64| Bound::new(LinearExpr::constant_expr(t - 1) - i.clone() * n, 1);
            let (lbs, ubs) = match s.unroll {
                Unroll::None => return store,
                Unroll::Const(n) => (vec![cb(0)], vec![cb(n - 1)]),
                Unroll::TailI(n, t) => (vec![cb(0)], vec![cb(n - 1), tail_ub(n, t)]),
                Unroll::Window(n, h, t) => (
                    vec![
                        Bound::new(LinearExpr::constant_expr(h) - i.clone() * n, 1),
                        cb(0),
                    ],
                    vec![tail_ub(n, t), cb(n - 1)],
                ),
                Unroll::TailJ(n) => (
                    vec![cb(0)],
                    vec![Bound::new(LinearExpr::constant_expr(n - 1) - j.clone(), 1)],
                ),
            };
            AffineOp::For(seq("k", lbs, ubs, vec![store]))
        })
        .collect();
    let mut pipe = seq("i", vec![cb(0)], vec![cb(b.i_trip - 1)], stmts);
    pipe.attrs.pipeline_ii = Some(1);
    let outer = seq(
        "j",
        vec![cb(0)],
        vec![cb(b.j_trip - 1)],
        vec![AffineOp::For(pipe)],
    );
    let mut f = AffineFunc::new("brute");
    for ((name, shape), part) in ARRAYS.iter().zip(&b.parts) {
        let mut m = MemRefDecl::new(*name, shape, DataType::F32);
        m.partition = part.as_ref().map(|(factors, cyclic)| PartitionInfo {
            factors: factors.clone(),
            style: if *cyclic {
                PartitionStyle::Cyclic
            } else {
                PartitionStyle::Block
            },
        });
        f.memrefs.push(m);
    }
    f.body.push(AffineOp::For(outer));
    f
}
