//! Conflict-freedom certificates: replaying pom-bank's static
//! bank-conflict analysis through the certificate pipeline.
//!
//! For every outermost pipelined loop whose per-iteration accesses
//! pom-bank can enumerate *exactly*, [`bank_report`] emits one
//! [`Certificate`] carrying a [`ObligationKind::BankConflictFree`]
//! obligation:
//!
//! * **passed** — every array's per-bank demand fits one cycle's ports.
//!   The simulator's port calendars then never slide a grant, so the
//!   loop shows zero simulated port stalls at *any* declared II; the
//!   `pomc bench-sim` differential audit enforces exactly this.
//! * **failed** — some bank needs more port-cycles than the declared II
//!   provides (`ceil(demand / ports) > II`): the declared II is provably
//!   infeasible. This is the same condition pom-lint reports as POM006.
//!
//! Loops in the middle band (conflicting but still feasible at their
//! declared II) and loops the analysis cannot enumerate exactly get no
//! certificate: the analysis claims nothing it cannot prove.

use crate::cert::{Certificate, Obligation, ObligationKind, ValidationReport};
use pom_bank::{analyze_func, LoopBankReport};
use pom_ir::AffineFunc;

/// Builds the conflict-freedom report for every outermost pipelined
/// loop of `func`, given the target's `ports_per_bank`.
pub fn bank_report(func: &AffineFunc, ports_per_bank: u64) -> ValidationReport {
    let ports = ports_per_bank.max(1);
    let mut certificates = Vec::new();
    for rep in analyze_func(func) {
        let Some(cert) = certify(&rep, ports, certificates.len()) else {
            continue;
        };
        certificates.push(cert);
    }
    ValidationReport {
        func: func.name.clone(),
        certificates,
    }
}

fn certify(rep: &LoopBankReport, ports: u64, step: usize) -> Option<Certificate> {
    let an = &rep.analysis;
    let rewrite = format!("pipeline({}, II={})", rep.iv, rep.declared_ii);
    if an.conflict_free(ports) {
        let detail = if an.profiles.is_empty() {
            "no memory accesses in the pipeline body".to_string()
        } else {
            let worst = an
                .profiles
                .iter()
                .max_by_key(|p| p.max_demand)
                .expect("non-empty");
            format!(
                "worst per-bank demand {} (array `{}`, {} bank(s)) fits {} port(s)/cycle",
                worst.max_demand, worst.array, worst.banks, ports
            )
        };
        return Some(Certificate {
            step,
            rewrite,
            stmt: rep.iv.clone(),
            obligations: vec![Obligation::passed(ObligationKind::BankConflictFree, detail)],
        });
    }
    // Not conflict-free: certify the *failure* only when the declared II
    // is provably infeasible — the middle band stays silent.
    let min_ii = an.min_feasible_ii(ports)?;
    if min_ii <= rep.declared_ii {
        return None;
    }
    let worst = an
        .profiles
        .iter()
        .filter(|p| p.exact)
        .max_by_key(|p| p.max_demand)?;
    Some(Certificate {
        step,
        rewrite,
        stmt: rep.iv.clone(),
        obligations: vec![Obligation::failed(
            ObligationKind::BankConflictFree,
            format!(
                "array `{}`: per-bank demand {} needs II >= {} through {} port(s)/cycle, declared II is {}",
                worst.array, worst.max_demand, min_ii, ports, rep.declared_ii
            ),
        )],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pom_dsl::{DataType, Expr, PartitionStyle};
    use pom_ir::{AffineOp, ForOp, HlsAttrs, MemRefDecl, PartitionInfo, StoreOp};
    use pom_poly::{AccessFn, Bound, LinearExpr};

    fn cb(v: i64) -> Bound {
        Bound::new(LinearExpr::constant_expr(v), 1)
    }

    /// b[i] = a[i] + a[i+1] + a[i+2], pipelined at `ii`, with `a`
    /// partitioned cyclically by `factor` (0 = unpartitioned).
    fn stencil(factor: i64, ii: i64) -> AffineFunc {
        let mut f = AffineFunc::new("st");
        f.memrefs.push(MemRefDecl::new("a", &[64], DataType::F32));
        f.memrefs.push(MemRefDecl::new("b", &[64], DataType::F32));
        if factor > 0 {
            f.memref_mut("a").unwrap().partition = Some(PartitionInfo {
                factors: vec![factor],
                style: PartitionStyle::Cyclic,
            });
        }
        let v = LinearExpr::var("i");
        let body = Expr::Load(AccessFn::new("a", vec![v.clone()]))
            + Expr::Load(AccessFn::new("a", vec![v.clone() + 1]))
            + Expr::Load(AccessFn::new("a", vec![v.clone() + 2]));
        f.body.push(AffineOp::For(ForOp {
            iv: "i".into(),
            lbs: vec![cb(0)],
            ubs: vec![cb(31)],
            attrs: HlsAttrs {
                pipeline_ii: Some(ii),
                ..Default::default()
            },
            extra: Vec::new(),
            body: vec![AffineOp::Store(StoreOp {
                stmt: "S".into(),
                dest: AccessFn::new("b", vec![v.clone()]),
                value: body,
            })],
        }));
        f
    }

    #[test]
    fn partitioned_stencil_earns_a_conflict_freedom_certificate() {
        let r = bank_report(&stencil(3, 1), 2);
        assert!(r.passed());
        assert_eq!(r.checked(), 1);
        let c = &r.certificates[0];
        assert_eq!(c.stmt, "i");
        assert_eq!(c.obligations[0].kind, ObligationKind::BankConflictFree);
        assert!(c.obligations[0].detail.contains("fits 2 port(s)/cycle"));
    }

    #[test]
    fn infeasible_declared_ii_fails_the_certificate() {
        // Unpartitioned: 3 reads of one bank through 2 ports needs
        // II >= 2, but II=1 is declared.
        let r = bank_report(&stencil(0, 1), 2);
        assert!(!r.passed());
        let text = r.render();
        assert!(text.contains("bank-conflict-free: FAILED"));
        assert!(text.contains("needs II >= 2"));
        assert!(text.contains("pipeline(i, II=1)"));
    }

    #[test]
    fn feasible_middle_band_stays_silent() {
        // Same conflict, but the declared II=2 absorbs it: neither a
        // freedom claim nor a violation — no certificate.
        let r = bank_report(&stencil(0, 2), 2);
        assert_eq!(r.checked(), 0);
        assert!(r.passed());
    }
}
