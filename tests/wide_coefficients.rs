//! Near-`i64::MAX` coefficients and bounds through the whole pipeline:
//! generated DSL nests whose loop bounds sit at the `i64` edges, whose
//! accesses carry coefficients within a factor of 4 of `i64::MAX` (on
//! single-iteration loops, so every access stays in bounds), and whose
//! schedule may skew or split by such factors, go through lint, the
//! validated DSE and the certificate chain. Nothing may panic: a
//! polyhedral computation that leaves `i64` answers "cannot tell", which
//! rejects the move or the schedule. And nothing the DSE returns — its
//! winner is certified — may compute other memory than the DSL
//! reference interpreter.

use pom::poly::LinearExpr;
use pom::{
    auto_dse_with, compile, execute_func, lint_report, reference_execute, validate, CompileOptions,
    DataType, DseConfig, Function, MemoryState,
};
use proptest::prelude::*;

/// A value within a factor of 4 of `i64::MAX`, either sign.
fn wide() -> impl Strategy<Value = i64> {
    prop_oneof![(i64::MAX / 4)..=i64::MAX, -i64::MAX..=-(i64::MAX / 4)]
}

/// One loop: `kind` 0 sits at the `i64` edge (`lb` near `±i64::MAX`,
/// indexed as `i - lb`), 1 is a single iteration indexed with a wide
/// coefficient, 2 is a plain `0..extent` loop. `value` is the edge bound
/// or the coefficient.
type Level = (u8, i64, i64);

fn level() -> impl Strategy<Value = Level> {
    (0u8..3, wide(), 1i64..4)
}

/// An optional schedule primitive on the generated compute: 0 none,
/// 1 skew of the outermost loop into the innermost by `factor`, 2 split
/// of the outermost loop by `|factor|`, 3 interchange of the outermost
/// two loops.
type Rewrite = (u8, i64);

fn rewrite() -> impl Strategy<Value = Rewrite> {
    (0u8..4, prop_oneof![1i64..4, wide()])
}

/// `B[kept] = B[kept] + A[all]` over the generated loops, `kept` all of
/// them or all but the innermost (a reduction).
fn nest(levels: &[Level], reduce: bool, (primitive, factor): Rewrite) -> Function {
    let mut f = Function::new("wide");
    let n = levels.len();
    let mut vars = Vec::new();
    let mut index = Vec::new();
    let mut shape = Vec::new();
    for (d, &(kind, value, extent)) in levels.iter().enumerate() {
        let name = format!("d{d}");
        let (lb, extent, idx) = match kind {
            0 => {
                let lb = value.min(i64::MAX - extent);
                (lb, extent, LinearExpr::var(&name) - lb)
            }
            1 => (0, 1, LinearExpr::term(&name, value)),
            _ => (0, extent, LinearExpr::var(&name)),
        };
        vars.push(f.var(&name, lb, lb + extent));
        index.push(idx);
        shape.push(extent as usize);
    }
    // Couple each index of A with the next loop's wide coefficient: the
    // term is zero at run time but the polyhedral kernel must carry it.
    let coupled: Vec<LinearExpr> = (0..n)
        .map(|d| {
            let next = (d + 1) % n;
            match levels[next] {
                (1, value, _) if next != d => {
                    index[d].clone() + LinearExpr::term(format!("d{next}"), value)
                }
                _ => index[d].clone(),
            }
        })
        .collect();
    let kept = if reduce && n > 1 { n - 1 } else { n };
    let a = f.placeholder("A", &shape, DataType::F32);
    let b = f.placeholder("B", &shape[..kept], DataType::F32);
    f.compute(
        "S",
        &vars,
        b.at(&index[..kept]) + a.at(&coupled),
        b.access(&index[..kept]),
    );
    match primitive {
        1 if n >= 2 && factor != 0 => {
            f.skew("S", "d0", &format!("d{}", n - 1), factor, "w0", "w1");
        }
        2 => {
            f.split(
                "S",
                "d0",
                factor.unsigned_abs().min(i64::MAX as u64) as i64,
                "p0",
                "p1",
            );
        }
        3 if n >= 2 => {
            f.interchange("S", "d0", "d1");
        }
        _ => {}
    }
    f
}

/// Lint, validated DSE and certificates on `f`: none may panic, and a
/// design the DSE returns must be certified and compute the reference
/// interpreter's memory.
fn check(f: &Function, seed: u64) {
    let opts = CompileOptions::default();
    if let Ok(c) = compile(f, &opts) {
        lint_report(f, &c, &opts);
    }
    let cfg = DseConfig {
        validate_sample_every: 2,
        ..DseConfig::default()
    };
    let Ok(r) = auto_dse_with(f, &opts, &cfg) else {
        return;
    };
    let report = validate(&r.function);
    assert!(
        report.passed(),
        "returned an uncertified design:\n{}",
        report.render()
    );
    let mut reference = MemoryState::for_function_seeded(f, seed);
    reference_execute(f, &mut reference);
    let mut lowered = MemoryState::for_function_seeded(f, seed);
    execute_func(&r.compiled.affine, &mut lowered);
    assert_eq!(
        reference.array("B").unwrap().data(),
        lowered.array("B").unwrap().data(),
        "certified design computes other memory:\n{}",
        r.compiled.affine
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn wide_nests_never_panic_and_never_certify_wrong_memory(
        levels in proptest::collection::vec(level(), 1..4),
        reduce in 0u8..2,
        rewrite in rewrite(),
        seed in 0u64..1000,
    ) {
        check(&nest(&levels, reduce == 1, rewrite), seed);
    }
}
