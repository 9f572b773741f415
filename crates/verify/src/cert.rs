//! Machine-checkable certificates for schedule rewrites.
//!
//! Each rewrite the pipeline applies (interchange, split, tile, skew,
//! after, and the attribute-only directives) produces one
//! [`Certificate`] listing its proof [`Obligation`]s and their outcome.
//! A [`ValidationReport`] aggregates the certificates of a whole
//! schedule and renders failures rustc-style, or serializes the lot as
//! JSON for the CI artifact.

use std::fmt;

/// The proof obligations a rewrite certificate can carry.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ObligationKind {
    /// Every (uniform) dependence keeps a lexicographically non-negative
    /// distance under the transformed schedule.
    DependencesPreserved,
    /// The transformed iteration domain maps onto exactly the original
    /// statement instances.
    DomainPreserved,
    /// Read/write access footprints are unchanged.
    FootprintPreserved,
    /// Cross-statement program order still executes producers before
    /// the consumers that read them.
    OrderPreserved,
    /// The directive only attaches attributes; iteration order is
    /// untouched by construction.
    AttributeOnly,
    /// All same-cycle accesses of a pipelined loop land in distinct
    /// memory banks (or fit one bank's ports): the declared II incurs no
    /// port stalls. Discharged by pom-bank's congruence analysis.
    BankConflictFree,
    /// An array's storage can be folded to its live window (modulo
    /// remapping) without changing observable behaviour: the full store
    /// value stream and every other array's final contents are
    /// bit-identical under the contraction. Discharged by pom-live's
    /// replay over seeded initial memory.
    BufferContracted,
    /// An inter-stage dataflow channel is sized so the producer's store
    /// stream and every consumer's load stream flow through the bounded
    /// buffer without deadlock and with bit-identical values. Discharged
    /// by pom-dataflow's replay of both element streams through a ring
    /// of the certified capacity.
    ChannelSized,
}

impl ObligationKind {
    /// Kebab-case label used in renders.
    pub fn label(&self) -> &'static str {
        match self {
            ObligationKind::DependencesPreserved => "dependences-preserved",
            ObligationKind::DomainPreserved => "domain-preserved",
            ObligationKind::FootprintPreserved => "footprint-preserved",
            ObligationKind::OrderPreserved => "order-preserved",
            ObligationKind::AttributeOnly => "attribute-only",
            ObligationKind::BankConflictFree => "bank-conflict-free",
            ObligationKind::BufferContracted => "buffer-contracted",
            ObligationKind::ChannelSized => "channel-sized",
        }
    }
}

/// Outcome of checking one obligation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ObligationStatus {
    /// The obligation was discharged.
    Passed,
    /// The obligation is violated; the rewrite must be rejected.
    Failed,
}

/// One discharged (or violated) proof obligation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Obligation {
    /// What the obligation asserts.
    pub kind: ObligationKind,
    /// Whether the check discharged it.
    pub status: ObligationStatus,
    /// Human-readable evidence: which dependence/constraint was checked
    /// and how (exact enumeration, Fourier–Motzkin, by construction).
    pub detail: String,
}

impl Obligation {
    /// A discharged obligation.
    pub fn passed(kind: ObligationKind, detail: impl Into<String>) -> Self {
        Obligation {
            kind,
            status: ObligationStatus::Passed,
            detail: detail.into(),
        }
    }

    /// A violated obligation.
    pub fn failed(kind: ObligationKind, detail: impl Into<String>) -> Self {
        Obligation {
            kind,
            status: ObligationStatus::Failed,
            detail: detail.into(),
        }
    }
}

/// The certificate of one applied rewrite.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Certificate {
    /// Zero-based position of the rewrite in the schedule.
    pub step: usize,
    /// The rewrite as recorded in the schedule (DSL spelling).
    pub rewrite: String,
    /// The statement (compute) the rewrite targets, or the function
    /// name for function-level directives.
    pub stmt: String,
    /// The obligations checked for this rewrite.
    pub obligations: Vec<Obligation>,
}

impl Certificate {
    /// True when every obligation passed.
    pub fn passed(&self) -> bool {
        self.obligations
            .iter()
            .all(|o| o.status == ObligationStatus::Passed)
    }

    /// The violated obligations.
    pub fn failures(&self) -> impl Iterator<Item = &Obligation> + '_ {
        self.obligations
            .iter()
            .filter(|o| o.status == ObligationStatus::Failed)
    }
}

/// Aggregated validation result of one function's schedule.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ValidationReport {
    /// Function the schedule belongs to.
    pub func: String,
    /// One certificate per schedule primitive, in application order.
    pub certificates: Vec<Certificate>,
}

impl ValidationReport {
    /// True when every certificate passed.
    pub fn passed(&self) -> bool {
        self.certificates.iter().all(Certificate::passed)
    }

    /// Number of certificates checked.
    pub fn checked(&self) -> usize {
        self.certificates.len()
    }

    /// The rejected certificates.
    pub fn rejected(&self) -> Vec<&Certificate> {
        self.certificates.iter().filter(|c| !c.passed()).collect()
    }

    /// Renders the report rustc-style: one `error[VERIFY]` block per
    /// rejected certificate, then a one-line summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for c in self.certificates.iter().filter(|c| !c.passed()) {
            out.push_str(&format!(
                "error[VERIFY]: rewrite `{}` rejected\n  --> {}/{} (schedule step {})\n",
                c.rewrite, self.func, c.stmt, c.step
            ));
            for o in &c.obligations {
                let status = match o.status {
                    ObligationStatus::Passed => "passed",
                    ObligationStatus::Failed => "FAILED",
                };
                out.push_str(&format!(
                    "  = {}: {} — {}\n",
                    o.kind.label(),
                    status,
                    o.detail
                ));
            }
        }
        let rejected = self.rejected().len();
        out.push_str(&format!(
            "verify: {}/{} certificates passed for `{}`{}\n",
            self.checked() - rejected,
            self.checked(),
            self.func,
            if rejected == 0 {
                String::new()
            } else {
                format!(" ({rejected} rejected)")
            }
        ));
        out
    }
}

impl fmt::Display for ValidationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> ValidationReport {
        ValidationReport {
            func: "gemm".into(),
            certificates: vec![
                Certificate {
                    step: 0,
                    rewrite: "s.split(i, 8, i0, i1)".into(),
                    stmt: "s".into(),
                    obligations: vec![Obligation::passed(
                        ObligationKind::DomainPreserved,
                        "1024 instances enumerated on both sides",
                    )],
                },
                Certificate {
                    step: 1,
                    rewrite: "s.interchange(i, j)".into(),
                    stmt: "s".into(),
                    obligations: vec![Obligation::failed(
                        ObligationKind::DependencesPreserved,
                        "Flow dependence on `A` with distance [1, -1] reverses at %j",
                    )],
                },
            ],
        }
    }

    #[test]
    fn pass_fail_accounting() {
        let r = report();
        assert!(!r.passed());
        assert_eq!(r.checked(), 2);
        assert_eq!(r.rejected().len(), 1);
        assert!(r.certificates[0].passed());
        assert_eq!(r.certificates[1].failures().count(), 1);
    }

    #[test]
    fn render_is_rustc_style() {
        let text = report().render();
        assert!(text.contains("error[VERIFY]: rewrite `s.interchange(i, j)` rejected"));
        assert!(text.contains("--> gemm/s (schedule step 1)"));
        assert!(text.contains("dependences-preserved: FAILED"));
        assert!(text.contains("1/2 certificates passed"));
        assert!(!text.contains("s.split"), "passing certs are not rendered");
    }
}
