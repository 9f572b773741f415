//! Buffer-contraction certificates: replaying pom-live's liveness
//! analysis through the certificate pipeline.
//!
//! For every array pom-live claims contractible (exact windows strictly
//! smaller than the declared extents), [`live_report`] emits one
//! [`Certificate`] carrying a [`ObligationKind::BufferContracted`]
//! obligation, discharged by *executing* the function twice over seeded
//! initial memory — once with full storage, once with the array folded
//! to its windows (`e_d mod W_d`) — and comparing the complete store
//! value stream plus the final contents of every other array
//! bit-for-bit (`pom_live::replay_contraction`).
//!
//! Arrays the analysis cannot contract (inexact windows, write-only,
//! already minimal) get no certificate: nothing is claimed, nothing is
//! checked. A failed obligation means the static windows were unsound
//! for this input — a bug in the analysis that the certificate pipeline
//! surfaces instead of silently shrinking a live buffer.

use crate::cert::{Certificate, Obligation, ObligationKind, ValidationReport};
use pom_ir::AffineFunc;
use pom_live::{analyze_func, replay_contraction, seeded_memory};

/// Builds the buffer-contraction report for every contractible array of
/// `func`, replaying each claim over memory seeded with `seed`.
pub fn live_report(func: &AffineFunc, seed: u64) -> ValidationReport {
    let mem0 = seeded_memory(func, seed);
    let report = analyze_func(func);
    let mut certificates = Vec::new();
    for al in report.arrays.iter().filter(|a| a.contracted()) {
        let step = certificates.len();
        certificates.push(certify(func, &mem0, &al.array, &al.windows, step));
    }
    ValidationReport {
        func: func.name.clone(),
        certificates,
    }
}

/// Replays one contraction claim and wraps the outcome as a
/// certificate. Public within the crate for targeted failure tests.
fn certify(
    func: &AffineFunc,
    mem0: &pom_dsl::MemoryState,
    array: &str,
    windows: &[i64],
    step: usize,
) -> Certificate {
    let spelled = windows
        .iter()
        .map(|w| w.to_string())
        .collect::<Vec<_>>()
        .join("x");
    let rewrite = format!("contract({array}, [{spelled}])");
    let obligation = match replay_contraction(func, mem0, array, windows) {
        Ok(stores) => Obligation::passed(
            ObligationKind::BufferContracted,
            format!(
                "{stores} store(s) bit-identical with `{array}` folded to [{spelled}]; \
                 all other arrays' final contents preserved"
            ),
        ),
        Err(why) => Obligation::failed(
            ObligationKind::BufferContracted,
            format!("folding `{array}` to [{spelled}] diverges: {why}"),
        ),
    };
    Certificate {
        step,
        rewrite,
        stmt: array.to_string(),
        obligations: vec![obligation],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pom_dsl::{DataType, Expr};
    use pom_ir::{AffineOp, ForOp, HlsAttrs, MemRefDecl, StoreOp};
    use pom_poly::{AccessFn, Bound, LinearExpr};

    fn cb(v: i64) -> Bound {
        Bound::new(LinearExpr::constant_expr(v), 1)
    }

    /// for i { T[i] = A[i] * 2; B[i] = T[i] + 1 } — T is consumed in the
    /// same iteration it is produced, so it folds to a single cell.
    fn fused_chain(n: i64) -> AffineFunc {
        let mut f = AffineFunc::new("chain");
        let n_us = n as usize;
        f.memrefs.push(MemRefDecl::new("A", &[n_us], DataType::F32));
        f.memrefs.push(MemRefDecl::new("T", &[n_us], DataType::F32));
        f.memrefs.push(MemRefDecl::new("B", &[n_us], DataType::F32));
        let i = LinearExpr::var("i");
        let s1 = StoreOp {
            stmt: "s1".into(),
            dest: AccessFn::new("T", vec![i.clone()]),
            value: Expr::Load(AccessFn::new("A", vec![i.clone()])) * 2.0,
        };
        let s2 = StoreOp {
            stmt: "s2".into(),
            dest: AccessFn::new("B", vec![i.clone()]),
            value: Expr::Load(AccessFn::new("T", vec![i.clone()])) + 1.0,
        };
        f.body.push(AffineOp::For(ForOp {
            iv: "i".into(),
            lbs: vec![cb(0)],
            ubs: vec![cb(n - 1)],
            attrs: HlsAttrs::none(),
            extra: Vec::new(),
            body: vec![AffineOp::Store(s1), AffineOp::Store(s2)],
        }));
        f
    }

    #[test]
    fn contractible_temporary_earns_a_certificate() {
        let f = fused_chain(16);
        let r = live_report(&f, 7);
        assert!(r.passed());
        assert_eq!(r.checked(), 1, "only T is claimed contractible");
        let c = &r.certificates[0];
        assert_eq!(c.stmt, "T");
        assert_eq!(c.rewrite, "contract(T, [1])");
        assert_eq!(c.obligations[0].kind, ObligationKind::BufferContracted);
        assert!(c.obligations[0].detail.contains("bit-identical"));
    }

    #[test]
    fn unsound_window_fails_the_obligation() {
        // T genuinely needs window [n] when s2 reads T[n-1-i]: claim [1]
        // by hand and watch the replay refute it.
        let mut f = fused_chain(16);
        let AffineOp::For(l) = &mut f.body[0] else {
            panic!("loop expected")
        };
        let AffineOp::Store(s2) = &mut l.body[1] else {
            panic!("store expected")
        };
        s2.value = Expr::Load(AccessFn::new(
            "T",
            vec![LinearExpr::constant_expr(15) - LinearExpr::var("i")],
        )) + 1.0;
        let mem0 = seeded_memory(&f, 7);
        let cert = certify(&f, &mem0, "T", &[1], 0);
        assert!(!cert.passed());
        let r = ValidationReport {
            func: f.name.clone(),
            certificates: vec![cert],
        };
        assert!(r.render().contains("buffer-contracted: FAILED"));
    }

    #[test]
    fn nothing_contractible_nothing_claimed() {
        // An accumulator reads its own history; pom-live keeps the full
        // window and the certificate pipeline stays silent.
        let mut f = AffineFunc::new("acc");
        f.memrefs.push(MemRefDecl::new("x", &[8], DataType::F32));
        f.memrefs.push(MemRefDecl::new("c", &[1], DataType::F32));
        let s = StoreOp {
            stmt: "s".into(),
            dest: AccessFn::new("c", vec![LinearExpr::zero()]),
            value: Expr::Load(AccessFn::new("c", vec![LinearExpr::zero()]))
                + Expr::Load(AccessFn::new("x", vec![LinearExpr::var("i")])),
        };
        f.body.push(AffineOp::For(ForOp {
            iv: "i".into(),
            lbs: vec![cb(0)],
            ubs: vec![cb(7)],
            attrs: HlsAttrs::none(),
            extra: Vec::new(),
            body: vec![AffineOp::Store(s)],
        }));
        let r = live_report(&f, 3);
        assert_eq!(r.checked(), 0);
        assert!(r.passed());
    }
}
