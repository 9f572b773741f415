//! A brute-force oracle for the bank analysis.
//!
//! Random small pipelined bodies — unrolled inner loops, shifted windows,
//! reductions, mixed shapes such as `a[i]` beside `a[2i]`, and
//! non-dividing split tails whose bounds force case enumeration — under
//! random cyclic and block partitions. Every free iterator (the enclosing
//! sequential `j` and the pipeline's `i`) is pinned to each value of its
//! box, and the iteration is executed on concrete elements with the
//! simulator's rules: a load of an element an earlier store of the
//! iteration wrote is forwarded, repeated reads of one element cost one
//! port, and only the last writer of an element writes back. Each
//! surviving access is mapped through `ArrayBanks::bank_of_coords`.
//!
//! Whatever the analysis claims must match: when a loop is exact, its
//! read and write counts, and for exact profiles its classes and
//! demands, equal those of every iteration — or, when case enumeration
//! was needed, those of the worst iteration.

use pom_bank::{analyze_func, ArrayBanks};
use pom_dsl::{DataType, Expr, PartitionStyle};
use pom_ir::{AffineFunc, AffineOp, ForOp, HlsAttrs, MemRefDecl, PartitionInfo, StoreOp};
use pom_poly::{AccessFn, Bound, LinearExpr};
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use std::collections::{BTreeMap, BTreeSet, HashMap};

const CASES: usize = 192;

/// Array names and shapes: a 1-D window source, a 2-D array for the
/// mixed-radix combine, and a small reduction target.
const ARRAYS: [(&str, &[usize]); 3] = [("a", &[64]), ("m", &[4, 32]), ("s", &[8])];

/// How a statement's unrolled inner loop `k` is bounded.
#[derive(Clone, Copy, Debug)]
enum Unroll {
    /// No inner loop.
    None,
    /// `k` in `0..=n-1`.
    Const(i64),
    /// `k` in `0..=min(n-1, t-1 - n*i)`: the tail of splitting a trip
    /// count `t` that `n` does not divide.
    TailI(i64, i64),
    /// `k` in `0..=n-1-j`: a triangle over the sequential iterator.
    TailJ(i64),
}

/// An access: array index plus, per dimension, the coefficients of
/// `i`, `k`, `j` and the constant.
#[derive(Clone, Debug)]
struct Access {
    array: usize,
    dims: Vec<[i64; 4]>,
}

#[derive(Clone, Debug)]
struct Stmt {
    unroll: Unroll,
    dest: Access,
    loads: Vec<Access>,
}

#[derive(Clone, Debug)]
struct Body {
    j_trip: i64,
    i_trip: i64,
    stmts: Vec<Stmt>,
    /// Per array: `None`, or factors with cyclic (`true`) or block style.
    parts: Vec<Option<(Vec<i64>, bool)>>,
}

fn pick(rng: &mut TestRng, lo: i64, hi: i64) -> i64 {
    (lo..=hi).generate(rng)
}

fn gen_access(rng: &mut TestRng, unrolled: bool) -> Access {
    let array = pick(rng, 0, 2) as usize;
    let ck = |rng: &mut TestRng| if unrolled { pick(rng, 0, 1) } else { 0 };
    // i's coefficient is 1 most of the time, 2 (mixed shapes) or 0
    // (loop-invariant) otherwise.
    let ci = |rng: &mut TestRng| [0, 1, 1, 2][pick(rng, 0, 3) as usize];
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

fn gen_body(rng: &mut TestRng) -> Body {
    let j_trip = pick(rng, 1, 2);
    let i_trip = pick(rng, 2, 6);
    let stmts = (0..pick(rng, 1, 3))
        .map(|_| {
            let n = pick(rng, 2, 3);
            let unroll = match pick(rng, 0, 5) {
                0 | 1 => Unroll::None,
                2 | 3 => Unroll::Const(n),
                4 => Unroll::TailI(n, pick(rng, n * (i_trip - 1) + 1, n * i_trip - 1)),
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
    let parts = ARRAYS
        .iter()
        .map(|(_, shape)| match pick(rng, 0, 2) {
            0 => None,
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

fn cb(v: i64) -> Bound {
    Bound::new(LinearExpr::constant_expr(v), 1)
}

fn seq(iv: &str, lbs: Vec<Bound>, ubs: Vec<Bound>, body: Vec<AffineOp>) -> ForOp {
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

fn build(b: &Body) -> AffineFunc {
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
            let ubs = match s.unroll {
                Unroll::None => return store,
                Unroll::Const(n) => vec![cb(n - 1)],
                Unroll::TailI(n, t) => vec![
                    cb(n - 1),
                    Bound::new(LinearExpr::constant_expr(t - 1) - i.clone() * n, 1),
                ],
                Unroll::TailJ(n) => {
                    vec![Bound::new(LinearExpr::constant_expr(n - 1) - j.clone(), 1)]
                }
            };
            AffineOp::For(seq("k", vec![cb(0)], ubs, vec![store]))
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

/// What one concrete iteration costs one array.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Stats {
    reads: u64,
    writes: u64,
    classes: u64,
    max_demand: u64,
    max_read_demand: u64,
}

type Elem = (String, Vec<i64>);

/// The elements one iteration reads from memory and writes back.
#[derive(Default)]
struct Iteration {
    written: BTreeSet<Elem>,
    read: BTreeSet<Elem>,
}

impl Iteration {
    fn run(&mut self, ops: &[AffineOp], env: &mut HashMap<String, i64>) {
        let elem = |a: &AccessFn, env: &HashMap<String, i64>| -> Elem {
            (
                a.array.clone(),
                a.indices.iter().map(|e| e.eval(env)).collect(),
            )
        };
        for op in ops {
            match op {
                AffineOp::Store(s) => {
                    for a in s.value.loads() {
                        let e = elem(a, env);
                        if !self.written.contains(&e) {
                            self.read.insert(e);
                        }
                    }
                    self.written.insert(elem(&s.dest, env));
                }
                AffineOp::For(l) => {
                    let lb = l.lbs.iter().map(|b| b.eval_lower(env)).max().unwrap();
                    let ub = l.ubs.iter().map(|b| b.eval_upper(env)).min().unwrap();
                    for v in lb..=ub {
                        env.insert(l.iv.clone(), v);
                        self.run(&l.body, env);
                    }
                    env.remove(&l.iv);
                }
                AffineOp::If(_) => unreachable!("the generator emits no guards"),
            }
        }
    }

    fn stats(&self, m: &MemRefDecl) -> Stats {
        let ab = ArrayBanks::of(m);
        let mut banks: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
        let mine = |set: &BTreeSet<Elem>| -> Vec<Vec<i64>> {
            set.iter()
                .filter(|(a, _)| *a == m.name)
                .map(|(_, c)| c.clone())
                .collect()
        };
        let (reads, writes) = (mine(&self.read), mine(&self.written));
        for c in &reads {
            banks.entry(ab.bank_of_coords(c)).or_default().0 += 1;
        }
        for c in &writes {
            banks.entry(ab.bank_of_coords(c)).or_default().1 += 1;
        }
        Stats {
            reads: reads.len() as u64,
            writes: writes.len() as u64,
            classes: banks.len() as u64,
            max_demand: banks.values().map(|(r, w)| r + w).max().unwrap_or(0),
            max_read_demand: banks.values().map(|(r, _)| *r).max().unwrap_or(0),
        }
    }
}

/// Checks one body; returns (loop exact, case-enumerated, exact profiles
/// with more than one bank).
fn check(b: &Body) -> (bool, bool, usize) {
    let f = build(b);
    let reports = analyze_func(&f);
    assert_eq!(reports.len(), 1, "one pipelined loop");
    let an = &reports[0].analysis;
    if !an.exact {
        return (false, false, 0);
    }
    let AffineOp::For(outer) = &f.body[0] else {
        unreachable!()
    };
    let mut iterations = Vec::new();
    for j in 0..b.j_trip {
        for i in 0..b.i_trip {
            let mut env = HashMap::from([("j".to_string(), j), ("i".to_string(), i)]);
            let mut it = Iteration::default();
            let AffineOp::For(pipe) = &outer.body[0] else {
                unreachable!()
            };
            it.run(&pipe.body, &mut env);
            iterations.push(it);
        }
    }
    let enumerated = b
        .stmts
        .iter()
        .any(|s| matches!(s.unroll, Unroll::TailI(..) | Unroll::TailJ(_)));
    let accessed: BTreeSet<&str> = iterations
        .iter()
        .flat_map(|it| it.read.iter().chain(&it.written).map(|(a, _)| a.as_str()))
        .collect();
    let profiled: BTreeSet<&str> = an.profiles.iter().map(|p| p.array.as_str()).collect();
    assert_eq!(profiled, accessed, "{b:?}");
    let mut banked = 0;
    for p in &an.profiles {
        let m = f.memrefs.iter().find(|m| m.name == p.array).unwrap();
        let stats: Vec<Stats> = iterations.iter().map(|it| it.stats(m)).collect();
        let ctx = || {
            format!(
                "array {} of {b:?}: claimed {p:?}, measured {stats:?}",
                p.array
            )
        };
        if p.exact && p.banks > 1 {
            banked += 1;
        }
        if !enumerated {
            for s in &stats {
                assert_eq!((p.reads, p.writes), (s.reads, s.writes), "{}", ctx());
                if p.exact {
                    let claimed = (p.classes, p.max_demand, p.max_read_demand);
                    assert_eq!(
                        claimed,
                        (s.classes, s.max_demand, s.max_read_demand),
                        "{}",
                        ctx()
                    );
                }
            }
            continue;
        }
        let worst = |f: fn(&Stats) -> u64| stats.iter().map(f).max().unwrap();
        assert_eq!(p.reads, worst(|s| s.reads), "{}", ctx());
        assert_eq!(p.writes, worst(|s| s.writes), "{}", ctx());
        if p.exact {
            assert_eq!(p.max_demand, worst(|s| s.max_demand), "{}", ctx());
            assert_eq!(p.max_read_demand, worst(|s| s.max_read_demand), "{}", ctx());
            assert!(
                stats
                    .iter()
                    .any(|s| s.max_demand == p.max_demand && s.classes == p.classes),
                "{}",
                ctx()
            );
        }
    }
    (true, enumerated, banked)
}

#[test]
fn exact_claims_match_every_concrete_iteration() {
    let mut rng = TestRng::deterministic("exact_claims_match_every_concrete_iteration");
    let (mut exact, mut enumerated, mut banked) = (0, 0, 0);
    for _ in 0..CASES {
        let (e, en, bk) = check(&gen_body(&mut rng));
        exact += usize::from(e);
        enumerated += usize::from(e && en);
        banked += bk;
    }
    // The oracle only bites where the analysis claims something: keep
    // the generator producing exact loops of every kind.
    assert!(exact >= CASES / 3, "{exact} exact loops of {CASES}");
    assert!(
        enumerated >= CASES / 10,
        "{enumerated} exact case-enumerated loops"
    );
    assert!(
        banked >= CASES / 4,
        "{banked} exact profiles over partitioned arrays"
    );
}
