//! Differential property: the compiled executor (`interp::Program`)
//! against a name-keyed walker that evaluates every bound, guard and
//! subscript with `LinearExpr` over a `HashMap<String, i64>` environment
//! — the executor's semantics spelled out directly. On random verified
//! nests (several lower and upper bounds with divisors, skewed and tiled
//! subscripts, nested `Eq`/`GeZero` guards, empty and negative extents,
//! `Expr::Affine` values) both must visit the same store instances in the
//! same order and leave bit-identical memory.

use pom_dsl::interp::{eval_expr, seeded_fill};
use pom_dsl::{ArrayData, BinOp, DataType, Expr, MemoryState, UnOp};
use pom_ir::interp::{execute_func, Fault, Program};
use pom_ir::{AffineFunc, AffineOp, ForOp, HlsAttrs, IfOp, MemRefDecl, StoreOp};
use pom_poly::{AccessFn, Bound, Constraint, LinearExpr};
use proptest::prelude::*;
use std::collections::HashMap;

/// One visited store instance: statement, destination `(array, flat)`,
/// loaded `(array, flat)`s.
type Record = (String, (String, usize), Vec<(String, usize)>);

// ---------------------------------------------------------------------
// The name-keyed oracle
// ---------------------------------------------------------------------

fn oracle_bounds(l: &ForOp, env: &HashMap<String, i64>) -> (i64, i64) {
    let lb = l.lbs.iter().map(|b| b.eval_lower(env)).max().unwrap();
    let ub = l.ubs.iter().map(|b| b.eval_upper(env)).min().unwrap();
    (lb, ub)
}

fn oracle_walk(
    ops: &[AffineOp],
    env: &mut HashMap<String, i64>,
    on_store: &mut impl FnMut(&StoreOp, &HashMap<String, i64>),
) {
    for op in ops {
        match op {
            AffineOp::For(l) => {
                let (lb, ub) = oracle_bounds(l, env);
                for v in lb..=ub {
                    env.insert(l.iv.clone(), v);
                    oracle_walk(&l.body, env, on_store);
                }
                env.remove(&l.iv);
            }
            AffineOp::If(i) => {
                if i.conds.iter().all(|c| c.satisfied(env)) {
                    oracle_walk(&i.body, env, on_store);
                }
            }
            AffineOp::Store(s) => on_store(s, env),
        }
    }
}

fn oracle_flat(a: &AccessFn, env: &HashMap<String, i64>, mem: &MemoryState) -> usize {
    let shape = mem.array(&a.array).unwrap().shape();
    a.indices
        .iter()
        .zip(shape)
        .fold(0, |flat, (e, &n)| flat * n + e.eval_partial(env) as usize)
}

fn oracle_execute(func: &AffineFunc, mem: &mut MemoryState) -> Vec<Record> {
    let mut records = Vec::new();
    oracle_walk(&func.body, &mut HashMap::new(), &mut |s, env| {
        let loads = s
            .value
            .loads()
            .iter()
            .map(|a| (a.array.clone(), oracle_flat(a, env, mem)))
            .collect();
        let dest = (s.dest.array.clone(), oracle_flat(&s.dest, env, mem));
        records.push((s.stmt.clone(), dest, loads));
        let v = eval_expr(&s.value, env, mem);
        mem.store(&s.dest, env, v);
    });
    records
}

fn compiled_execute(func: &AffineFunc, mem: &mut MemoryState) -> Vec<Record> {
    let prog = Program::new(func);
    let names = prog.arrays().to_vec();
    let mut m = prog.bind(mem);
    let mut records = Vec::new();
    let run = m.walk(prog.ops(), &mut |inst, arrays| {
        let named = |&(a, flat): &(usize, usize)| (names[a].to_string(), flat);
        records.push((
            inst.store.op.stmt.clone(),
            named(&inst.dest),
            inst.loads.iter().map(named).collect(),
        ));
        arrays.exec(inst);
        Ok::<(), Fault>(())
    });
    m.restore(mem);
    run.expect("in-bounds nest");
    records
}

fn bits(mem: &MemoryState, func: &AffineFunc) -> Vec<Vec<u64>> {
    func.memrefs
        .iter()
        .map(|m| {
            let a = mem.array(&m.name).unwrap();
            a.data().iter().map(|v| v.to_bits()).collect()
        })
        .collect()
}

// ---------------------------------------------------------------------
// Random verified nests
// ---------------------------------------------------------------------

/// Every array is `EXT x EXT`; subscripts are `OFF ± 2` plus at most
/// three terms of magnitude `4 · 5`, so they stay in `[2, 126]`.
const EXT: usize = 130;
const OFF: i64 = 64;
const ARRAYS: [&str; 3] = ["A", "B", "C"];

/// A small xorshift stream: one nest per proptest seed.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next() % (hi - lo + 1) as u64) as i64
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.next() % 100 < percent
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[(self.next() % xs.len() as u64) as usize]
    }
}

struct Nest {
    g: Gen,
    /// Induction variables in scope, outermost first.
    scope: Vec<String>,
    loops: usize,
    stmts: usize,
    guards: usize,
}

impl Nest {
    /// A random combination of in-scope induction variables; tiled and
    /// skewed shapes arise from coefficients such as `4·i0 + i1` and
    /// `i + j`.
    fn affine(&mut self, constant: i64) -> LinearExpr {
        let mut e = LinearExpr::constant_expr(constant);
        for iv in self.scope.clone().iter().rev().take(3) {
            let c = self.g.pick(&[-2, -1, 0, 0, 1, 1, 2, 4]);
            if c != 0 {
                e = e + LinearExpr::term(iv.clone(), c);
            }
        }
        e
    }

    fn access(&mut self, array: &str) -> AccessFn {
        let dims = (0..2)
            .map(|_| {
                let k = self.g.range(-2, 2);
                self.affine(OFF + k)
            })
            .collect();
        AccessFn::new(array, dims)
    }

    fn value(&mut self, depth: usize) -> Expr {
        let leaf = depth == 0 || self.g.chance(30);
        if leaf {
            return match self.g.range(0, 3) {
                0 | 1 => {
                    let a = self.g.pick(&ARRAYS);
                    Expr::Load(self.access(a))
                }
                2 => {
                    let k = self.g.range(-3, 3);
                    Expr::Affine(self.affine(k))
                }
                _ => Expr::Const(self.g.range(-4, 4) as f64 * 0.5),
            };
        }
        if self.g.chance(10) {
            return Expr::Unary(UnOp::Neg, Box::new(self.value(depth - 1)));
        }
        let op = self.g.pick(&[
            BinOp::Add,
            BinOp::Sub,
            BinOp::Mul,
            BinOp::Div,
            BinOp::Max,
            BinOp::Min,
        ]);
        let l = self.value(depth - 1);
        let r = self.value(depth - 1);
        Expr::Binary(op, Box::new(l), Box::new(r))
    }

    /// A bound through `div`: `constant` itself, or `a·outer + c` over an
    /// enclosing loop (tightening only: the constant bound stays).
    fn bounds(&mut self, constant: i64, lower: bool) -> Vec<Bound> {
        let div = self.g.pick(&[1, 2, 3]);
        let mut bs = vec![Bound::new(LinearExpr::constant_expr(constant * div), div)];
        if !self.scope.is_empty() && self.g.chance(50) {
            let k = self.g.range(0, self.scope.len() as i64 - 1) as usize;
            let outer = self.scope[k].clone();
            let a = self.g.pick(&[-1, 1, 2]);
            let c = if lower {
                self.g.range(-6, 2)
            } else {
                self.g.range(0, 10)
            };
            let e = LinearExpr::term(outer, a) + LinearExpr::constant_expr(c);
            bs.push(Bound::new(e, self.g.pick(&[2, 3])));
        }
        bs
    }

    fn ops(&mut self, depth: usize) -> Vec<AffineOp> {
        let n = self.g.range(1, 2);
        (0..n).map(|_| self.op(depth)).collect()
    }

    fn op(&mut self, depth: usize) -> AffineOp {
        if depth < 3 && self.g.chance(55) {
            // Extents from -1 to 5: empty and negative trip counts too.
            let lo = self.g.range(-2, 1);
            let hi = lo + self.g.range(-2, 4);
            let iv = format!("i{}", self.loops);
            self.loops += 1;
            let lbs = self.bounds(lo, true);
            let ubs = self.bounds(hi, false);
            self.scope.push(iv.clone());
            let body = self.ops(depth + 1);
            self.scope.pop();
            return AffineOp::For(ForOp {
                iv,
                lbs,
                ubs,
                attrs: HlsAttrs::none(),
                extra: Vec::new(),
                body,
            });
        }
        if !self.scope.is_empty() && self.guards < 3 && self.g.chance(35) {
            self.guards += 1;
            let conds = (0..self.g.range(1, 2))
                .map(|_| {
                    let k = self.g.range(-3, 3);
                    let e = self.affine(k);
                    if self.g.chance(30) {
                        Constraint::eq_zero(e)
                    } else {
                        Constraint::ge_zero(e)
                    }
                })
                .collect();
            let body = self.ops(depth);
            return AffineOp::If(IfOp { conds, body });
        }
        let stmt = format!("S{}", self.stmts);
        self.stmts += 1;
        let dest = self.g.pick(&ARRAYS);
        AffineOp::Store(StoreOp {
            stmt,
            dest: self.access(dest),
            value: self.value(2),
        })
    }
}

fn random_nest(seed: u64) -> AffineFunc {
    let mut nest = Nest {
        g: Gen(seed | 1),
        scope: Vec::new(),
        loops: 0,
        stmts: 0,
        guards: 0,
    };
    let mut f = AffineFunc::new("rand");
    for a in ARRAYS {
        f.memrefs
            .push(MemRefDecl::new(a, &[EXT, EXT], DataType::F32));
    }
    f.body = nest.ops(0);
    f
}

fn seeded(f: &AffineFunc, seed: u64) -> MemoryState {
    let mut mem = MemoryState::new();
    for m in &f.memrefs {
        let data = ArrayData::from_fn(&m.shape, seeded_fill(&m.name, seed));
        mem.insert(m.name.clone(), data);
    }
    mem
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// Same instances, same order, same loads, same final bits.
    #[test]
    fn compiled_executor_matches_the_name_keyed_walker(seed in 0u64..u64::MAX) {
        let f = random_nest(seed);
        prop_assert!(pom_ir::verify(&f).is_ok(), "generated nest must verify:\n{f}");
        let mut want_mem = seeded(&f, seed);
        let want = oracle_execute(&f, &mut want_mem);
        let mut got_mem = seeded(&f, seed);
        let got = compiled_execute(&f, &mut got_mem);
        prop_assert_eq!(&got, &want, "store instances diverge on\n{}", f);
        prop_assert!(bits(&got_mem, &f) == bits(&want_mem, &f), "memory diverges on\n{}", f);

        // The interpreter entry point leaves the same bits, and a walk
        // without memory resolves the same elements.
        let mut interp_mem = seeded(&f, seed);
        execute_func(&f, &mut interp_mem);
        prop_assert!(bits(&interp_mem, &f) == bits(&want_mem, &f));
        let prog = Program::new(&f);
        let mut shape_only = prog.layout_only();
        let mut dests = Vec::new();
        shape_only
            .walk(prog.ops(), &mut |inst, _| {
                dests.push(inst.dest.1);
                Ok::<(), Fault>(())
            })
            .unwrap();
        let want_dests: Vec<usize> = want.iter().map(|r| r.1 .1).collect();
        prop_assert_eq!(dests, want_dests);
    }
}

/// The generator reaches every shape the property is meant to cover.
#[test]
fn generator_covers_the_shapes() {
    let (mut executed, mut divided, mut eq_guards, mut empty_loops, mut affine_values) =
        (0, 0, 0, 0, 0);
    for seed in 0..200u64 {
        let f = random_nest(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut mem = seeded(&f, seed);
        executed += usize::from(!oracle_execute(&f, &mut mem).is_empty());
        let text = f.to_string();
        divided += usize::from(text.contains("ceildiv") && text.contains("max("));
        eq_guards += usize::from(text.contains("== 0"));
        affine_values += usize::from(f.stores().iter().any(|s| {
            fn has_affine(e: &Expr) -> bool {
                match e {
                    Expr::Affine(_) => true,
                    Expr::Binary(_, l, r) => has_affine(l) || has_affine(r),
                    Expr::Unary(_, e) => has_affine(e),
                    _ => false,
                }
            }
            has_affine(&s.value)
        }));
        f.walk(&mut |op| {
            if let AffineOp::For(l) = op {
                if l.const_trip_count() == Some(0) {
                    empty_loops += 1;
                }
            }
        });
    }
    for (what, n) in [
        ("executed", executed),
        ("divided multi-bound", divided),
        ("Eq guards", eq_guards),
        ("empty loops", empty_loops),
        ("affine values", affine_values),
    ] {
        assert!(n >= 10, "only {n} of 200 nests have {what}");
    }
}

/// `for i in 0..=lim: A[i] = 1` over an 8-element `A`.
fn fill(lim: i64) -> AffineFunc {
    let mut f = AffineFunc::new("fill");
    f.memrefs.push(MemRefDecl::new("A", &[8], DataType::F32));
    f.body.push(AffineOp::For(ForOp {
        iv: "i".into(),
        lbs: vec![Bound::new(LinearExpr::constant_expr(0), 1)],
        ubs: vec![Bound::new(LinearExpr::constant_expr(lim), 1)],
        attrs: HlsAttrs::none(),
        extra: Vec::new(),
        body: vec![AffineOp::Store(StoreOp {
            stmt: "S".into(),
            dest: AccessFn::new("A", vec![LinearExpr::var("i")]),
            value: Expr::Const(1.0),
        })],
    }));
    f
}

#[test]
#[should_panic(expected = "out of bounds")]
fn out_of_bounds_store_panics() {
    let f = fill(8);
    let mut mem = seeded(&f, 1);
    execute_func(&f, &mut mem);
}

#[test]
fn faults_name_what_failed_and_memory_is_put_back() {
    let f = fill(8);
    let prog = Program::new(&f);
    let mut mem = seeded(&f, 1);
    let mut m = prog.bind(&mut mem);
    let run = m.walk(prog.ops(), &mut |inst, arrays| {
        arrays.exec(inst);
        Ok::<(), Fault>(())
    });
    m.restore(&mut mem);
    assert_eq!(
        run,
        Err(Fault::OutOfBounds {
            array: "A".into(),
            dim: 0,
            index: 8,
            size: 8
        })
    );
    assert_eq!(
        run.unwrap_err().to_string(),
        "index 8 out of bounds for dim 0 (size 8)"
    );
    assert_eq!(mem.array("A").unwrap().data(), &[1.0; 8]);

    // An array the memory lacks faults only when an access reaches it.
    let mut empty = MemoryState::new();
    let f = fill(-1);
    let prog = Program::new(&f);
    let mut m = prog.bind(&mut empty);
    assert_eq!(m.walk(prog.ops(), &mut |_, _| Ok::<(), Fault>(())), Ok(()));
    let f = fill(3);
    let prog = Program::new(&f);
    let mut m = prog.bind(&mut empty);
    let run = m.walk(prog.ops(), &mut |_, _| Ok::<(), Fault>(()));
    assert_eq!(run, Err(Fault::Missing("A".into())));
}
