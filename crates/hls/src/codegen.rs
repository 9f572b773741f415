//! Synthesizable HLS C emission from the annotated affine dialect.
//!
//! Every HLS attribute becomes its `#pragma HLS` spelling, matching the
//! equivalent code the paper shows in Fig. 6.

use pom_dsl::{Expr, UnOp};
use pom_ir::{AffineFunc, AffineOp};
use pom_poly::{Bound, ConstraintKind, LinearExpr};
use std::fmt::Write as _;

/// Emits HLS C for a function.
pub fn emit_hls_c(func: &AffineFunc) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "#include <math.h>");
    let _ = writeln!(out, "#include <stdint.h>");
    let _ = writeln!(out);
    // Top-level function signature: arrays as reference parameters.
    let params: Vec<String> = func
        .memrefs
        .iter()
        .map(|m| {
            let dims: Vec<String> = m.shape.iter().map(|d| format!("[{d}]")).collect();
            format!("{} {}{}", m.dtype.c_name(), m.name, dims.join(""))
        })
        .collect();
    let _ = writeln!(out, "void {}({}) {{", func.name, params.join(", "));
    for m in &func.memrefs {
        if let Some(p) = &m.partition {
            for (dim, f) in p.factors.iter().enumerate() {
                if *f > 1 {
                    let _ = writeln!(
                        out,
                        "#pragma HLS array_partition variable={} {} factor={} dim={}",
                        m.name,
                        p.style.pragma_name(),
                        f,
                        dim + 1
                    );
                }
            }
        }
    }
    emit_ops(&func.body, &mut out, 1);
    let _ = writeln!(out, "}}");
    out
}

/// Lines of code of the emitted HLS C (non-empty lines) — the Fig. 15
/// metric for generated code.
pub fn hls_c_loc(func: &AffineFunc) -> usize {
    emit_hls_c(func)
        .lines()
        .filter(|l| !l.trim().is_empty())
        .count()
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn emit_ops(ops: &[AffineOp], out: &mut String, depth: usize) {
    for op in ops {
        match op {
            AffineOp::For(l) => {
                indent(out, depth);
                let _ = writeln!(
                    out,
                    "for (int {iv} = {lb}; {iv} <= {ub}; ++{iv}) {{",
                    iv = l.iv,
                    lb = bounds_c(&l.lbs, true),
                    ub = bounds_c(&l.ubs, false)
                );
                if let Some(ii) = l.attrs.pipeline_ii {
                    indent(out, depth);
                    let _ = writeln!(out, "#pragma HLS pipeline II={ii}");
                }
                if let Some(u) = l.attrs.unroll_factor {
                    indent(out, depth);
                    let _ = writeln!(out, "#pragma HLS unroll factor={u}");
                }
                if l.attrs.dependence_free {
                    indent(out, depth);
                    let _ = writeln!(out, "#pragma HLS dependence variable=auto type=inter false");
                }
                emit_ops(&l.body, out, depth + 1);
                indent(out, depth);
                out.push_str("}\n");
            }
            AffineOp::If(i) => {
                let conds: Vec<String> = i
                    .conds
                    .iter()
                    .map(|c| match c.kind {
                        ConstraintKind::Eq => format!("({}) == 0", expr_c(&c.expr)),
                        ConstraintKind::GeZero => format!("({}) >= 0", expr_c(&c.expr)),
                    })
                    .collect();
                indent(out, depth);
                let _ = writeln!(out, "if ({}) {{", conds.join(" && "));
                emit_ops(&i.body, out, depth + 1);
                indent(out, depth);
                out.push_str("}\n");
            }
            AffineOp::Store(s) => {
                indent(out, depth);
                let idx: Vec<String> = s
                    .dest
                    .indices
                    .iter()
                    .map(|e| format!("[{}]", expr_c(e)))
                    .collect();
                let _ = writeln!(
                    out,
                    "{}{} = {};",
                    s.dest.array,
                    idx.join(""),
                    value_c(&s.value)
                );
            }
        }
    }
}

fn bounds_c(bs: &[Bound], lower: bool) -> String {
    let one = |b: &Bound| -> String {
        if b.div == 1 {
            expr_c(&b.expr)
        } else if lower {
            // ceil(e / d) for integers with d > 0: floor((e + d - 1) / d);
            // correct for negative e too when written with floor division,
            // but loop bounds here are non-negative by construction.
            format!("(({} + {}) / {})", expr_c(&b.expr), b.div - 1, b.div)
        } else {
            format!("(({}) / {})", expr_c(&b.expr), b.div)
        }
    };
    match bs.len() {
        0 => "0".to_string(),
        1 => one(&bs[0]),
        _ => {
            let parts: Vec<String> = bs.iter().map(one).collect();
            let f = if lower { "max" } else { "min" };
            let mut it = parts.into_iter();
            let first = it.next().expect("non-empty");
            it.fold(first, |acc, p| format!("{f}({acc}, {p})"))
        }
    }
}

fn expr_c(e: &LinearExpr) -> String {
    e.to_string()
}

fn value_c(e: &Expr) -> String {
    match e {
        Expr::Load(a) => {
            let idx: Vec<String> = a
                .indices
                .iter()
                .map(|x| format!("[{}]", expr_c(x)))
                .collect();
            format!("{}{}", a.array, idx.join(""))
        }
        Expr::Affine(x) => format!("({})", expr_c(x)),
        Expr::Const(v) => {
            if v.fract() == 0.0 {
                format!("{v}.0f")
            } else {
                format!("{v}f")
            }
        }
        Expr::Binary(op, l, r) => {
            if op.is_call() {
                format!("{}({}, {})", op.c_spelling(), value_c(l), value_c(r))
            } else {
                format!("({} {} {})", value_c(l), op.c_spelling(), value_c(r))
            }
        }
        Expr::Unary(UnOp::Neg, x) => format!("(-{})", value_c(x)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pom_dsl::{DataType, PartitionStyle};
    use pom_ir::{ForOp, HlsAttrs, MemRefDecl, PartitionInfo, StoreOp};
    use pom_poly::AccessFn;

    fn cb(v: i64) -> Bound {
        Bound::new(LinearExpr::constant_expr(v), 1)
    }

    fn fig6_like_func() -> AffineFunc {
        let mut f = AffineFunc::new("gemm");
        let mut a = MemRefDecl::new("A", &[32, 32], DataType::F32);
        a.partition = Some(PartitionInfo {
            factors: vec![4, 4],
            style: PartitionStyle::Cyclic,
        });
        f.memrefs.push(a);
        let store = StoreOp {
            stmt: "s".into(),
            dest: AccessFn::new(
                "A",
                vec![
                    LinearExpr::term("i0", 4) + LinearExpr::var("i1"),
                    LinearExpr::term("j0", 4) + LinearExpr::var("j1"),
                ],
            ),
            value: Expr::Load(AccessFn::new(
                "A",
                vec![
                    LinearExpr::term("i0", 4) + LinearExpr::var("i1"),
                    LinearExpr::term("j0", 4) + LinearExpr::var("j1"),
                ],
            )) * 2.0,
        };
        let j1 = ForOp {
            extra: Vec::new(),
            iv: "j1".into(),
            lbs: vec![cb(0)],
            ubs: vec![cb(3)],
            attrs: HlsAttrs {
                unroll_factor: Some(4),
                ..Default::default()
            },
            body: vec![AffineOp::Store(store)],
        };
        let i1 = ForOp {
            extra: Vec::new(),
            iv: "i1".into(),
            lbs: vec![cb(0)],
            ubs: vec![cb(3)],
            attrs: HlsAttrs {
                unroll_factor: Some(4),
                ..Default::default()
            },
            body: vec![AffineOp::For(j1)],
        };
        let j0 = ForOp {
            extra: Vec::new(),
            iv: "j0".into(),
            lbs: vec![cb(0)],
            ubs: vec![cb(7)],
            attrs: HlsAttrs {
                pipeline_ii: Some(1),
                ..Default::default()
            },
            body: vec![AffineOp::For(i1)],
        };
        let i0 = ForOp {
            extra: Vec::new(),
            iv: "i0".into(),
            lbs: vec![cb(0)],
            ubs: vec![cb(7)],
            attrs: HlsAttrs::none(),
            body: vec![AffineOp::For(j0)],
        };
        f.body.push(AffineOp::For(i0));
        f
    }

    #[test]
    fn emits_pragmas_like_fig6() {
        let c = emit_hls_c(&fig6_like_func());
        assert!(c.contains("#pragma HLS array_partition variable=A cyclic factor=4 dim=1"));
        assert!(c.contains("#pragma HLS array_partition variable=A cyclic factor=4 dim=2"));
        assert!(c.contains("#pragma HLS pipeline II=1"));
        assert!(c.contains("#pragma HLS unroll factor=4"));
        assert!(c.contains("for (int i0 = 0; i0 <= 7; ++i0)"));
        assert!(c.contains("A[4*i0 + i1][4*j0 + j1]"));
    }

    #[test]
    fn emits_function_signature() {
        let c = emit_hls_c(&fig6_like_func());
        assert!(c.contains("void gemm(float A[32][32])"), "got:\n{c}");
    }

    #[test]
    fn loc_counts_nonempty_lines() {
        let f = fig6_like_func();
        let loc = hls_c_loc(&f);
        assert!(loc >= 15, "expected substantial C, got {loc} lines");
    }

    #[test]
    fn max_min_bounds() {
        let lbs = vec![cb(0), Bound::new(LinearExpr::var("t") - 3, 1)];
        let s = bounds_c(&lbs, true);
        assert_eq!(s, "max(0, t - 3)");
        let ubs = vec![cb(9), Bound::new(LinearExpr::var("t"), 2)];
        let s = bounds_c(&ubs, false);
        assert_eq!(s, "min(9, ((t) / 2))");
    }

    #[test]
    fn constants_render_as_floats() {
        assert_eq!(value_c(&Expr::Const(3.0)), "3.0f");
        assert_eq!(value_c(&Expr::Const(0.5)), "0.5f");
    }
}
