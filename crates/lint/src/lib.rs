//! # pom-lint — polyhedral-backed diagnostics for the annotated affine IR
//!
//! The paper's dependence-aware framework (Section IV) keeps every
//! transformation and pragma *legal by construction*; this crate makes
//! that property checkable on demand. A [`Linter`] runs a registry of
//! [`Analysis`] passes over a lowered [`pom_ir::AffineFunc`] plus its
//! polyhedral context — the transformed statement domains
//! ([`pom_poly::StmtPoly`]) and the dependence summary
//! ([`pom_hls::DepSummary`]) — and produces structured, POM-coded
//! [`Diagnostic`]s with rustc-style rendering.
//!
//! Shipped analyses:
//!
//! | code | analysis | severity | paper section |
//! |---|---|---|---|
//! | `POM001` | declared pipeline II below the recurrence MII | Error | VI-A |
//! | `POM002` | affine access out of memref bounds (Fourier–Motzkin) | Error | V-B |
//! | `POM003` | unroll/partition port pressure & BRAM budget | Warning | VI-B |
//! | `POM004` | dependence not lexicographically preserved | Error | VI-A |
//! | `POM005` | dead stores / never-accessed memrefs | Warning | IV |
//! | `POM006` | declared II infeasible under provable bank conflicts | Warning | VI-B |
//! | `POM007` | buffer provably oversized for its live window | Warning | IV |
//! | `POM008` | array store overwritten before any read observes it | Error | IV |
//! | `POM009` | minimal producer→consumer buffer depth | Note | IV |
//! | `POM010` | predicted dataflow channel stall above threshold | Warning | IV |
//!
//! The linter is wired into two places: `dse::search` (candidate
//! configurations are lint-screened before paying estimation cost) and
//! the sign-off of a finished design (`pom_dse::signoff::Signoff::lint`,
//! which attaches the sign-off's liveness report and its dataflow
//! plan's stages and channels; `pom_dse::lint_report` and `pomc --emit
//! lint` read it).

pub mod analyses;
pub mod context;

pub use context::{ChannelShape, DataflowShape, LintContext, SourceInfo, StageShape};

use std::fmt;

/// Diagnostic severity, ordered from most to least severe.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// The design is illegal or will not behave as written.
    Error,
    /// The design is legal but wasteful or suspicious.
    Warning,
    /// Informational context attached to another finding.
    Note,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Error => write!(f, "error"),
            Severity::Warning => write!(f, "warning"),
            Severity::Note => write!(f, "note"),
        }
    }
}

/// The POM lint codes. Each code is enforced by one analysis.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LintCode {
    /// POM001: declared `pipeline_ii` below the recurrence MII of a
    /// loop-carried dependence.
    IiInfeasible,
    /// POM002: an affine access can leave its memref's bounds.
    OutOfBounds,
    /// POM003: concurrent accesses exceed the memory ports the partition
    /// provides, or partitioning exceeds the device BRAM budget.
    PortPressure,
    /// POM004: a dependence is not lexicographically non-negative under
    /// the current schedule.
    IllegalSchedule,
    /// POM005: a store never observed by any load, or a memref never
    /// accessed at all.
    DeadCode,
    /// POM006: the declared pipeline II is provably infeasible because
    /// same-cycle accesses collide in a memory bank — pom-bank's exact
    /// congruence analysis (which, unlike POM003, discounts forwarded
    /// reads and proves per-bank residue classes) found a bank whose
    /// demand cannot be served within the declared II.
    BankConflict,
    /// POM007: an array is declared strictly larger than its live window
    /// — pom-live's exact liveness analysis proves a smaller modulo-folded
    /// buffer (`e_d mod W_d`) preserves the full store value stream, and
    /// the claim carries a machine-checked replay certificate.
    OversizedBuffer,
    /// POM008: every store of a statement to an array is overwritten by a
    /// later statement before any read can observe it — unlike POM005
    /// (which needs a never-read array or an iv-invariant rewrite), this
    /// is the polyhedral covered-kill argument across statements.
    DeadStoreToArray,
    /// POM009: the minimal buffer depth a producer→consumer flow needs if
    /// the carrying array were replaced by a FIFO/stream — informational
    /// sizing guidance for dataflow-style refactoring.
    BufferDepth,
    /// POM010: a dataflow channel is predicted to hold its stages back
    /// for more than a threshold fraction of the makespan — the channel
    /// is under-sized (FIFO too shallow) or the stages around it are
    /// rate-mismatched (ping-pong). Predicted statically from the
    /// dataflow plan the caller attaches via
    /// [`LintContext::with_dataflow`]; no simulation runs.
    ChannelPressure,
}

impl LintCode {
    /// The stable code string (`POM001` …).
    pub fn as_str(&self) -> &'static str {
        match self {
            LintCode::IiInfeasible => "POM001",
            LintCode::OutOfBounds => "POM002",
            LintCode::PortPressure => "POM003",
            LintCode::IllegalSchedule => "POM004",
            LintCode::DeadCode => "POM005",
            LintCode::BankConflict => "POM006",
            LintCode::OversizedBuffer => "POM007",
            LintCode::DeadStoreToArray => "POM008",
            LintCode::BufferDepth => "POM009",
            LintCode::ChannelPressure => "POM010",
        }
    }

    /// The default severity of findings with this code.
    pub fn default_severity(&self) -> Severity {
        match self {
            LintCode::IiInfeasible
            | LintCode::OutOfBounds
            | LintCode::IllegalSchedule
            | LintCode::DeadStoreToArray => Severity::Error,
            LintCode::PortPressure
            | LintCode::DeadCode
            | LintCode::BankConflict
            | LintCode::OversizedBuffer
            | LintCode::ChannelPressure => Severity::Warning,
            LintCode::BufferDepth => Severity::Note,
        }
    }
}

impl fmt::Display for LintCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Where a diagnostic points: the function, the loop path from the
/// outermost loop down to the offending op, and the statement name.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Location {
    /// Function name.
    pub func: String,
    /// Induction variables of the enclosing loops, outermost first.
    pub loop_path: Vec<String>,
    /// Originating statement, when known.
    pub stmt: Option<String>,
}

impl Location {
    /// A location at function scope.
    pub fn func_scope(func: impl Into<String>) -> Self {
        Location {
            func: func.into(),
            ..Default::default()
        }
    }

    /// A location inside a loop nest.
    pub fn in_loops(func: impl Into<String>, path: &[String]) -> Self {
        Location {
            func: func.into(),
            loop_path: path.to_vec(),
            stmt: None,
        }
    }

    /// Attaches the originating statement name.
    pub fn with_stmt(mut self, stmt: impl Into<String>) -> Self {
        self.stmt = Some(stmt.into());
        self
    }
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.func)?;
        for iv in &self.loop_path {
            write!(f, "/%{iv}")?;
        }
        if let Some(s) = &self.stmt {
            write!(f, " (stmt {s})")?;
        }
        Ok(())
    }
}

/// One structured finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable lint code.
    pub code: LintCode,
    /// Severity of this particular finding.
    pub severity: Severity,
    /// Where it points.
    pub location: Location,
    /// What is wrong.
    pub message: String,
    /// How to fix it, when the analysis can tell.
    pub suggestion: Option<String>,
}

impl Diagnostic {
    /// A finding at the code's default severity.
    pub fn new(code: LintCode, location: Location, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: code.default_severity(),
            location,
            message: message.into(),
            suggestion: None,
        }
    }

    /// Attaches a fix suggestion.
    pub fn with_suggestion(mut self, s: impl Into<String>) -> Self {
        self.suggestion = Some(s.into());
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}[{}]: {}", self.severity, self.code, self.message)?;
        write!(f, "  --> {}", self.location)?;
        if let Some(s) = &self.suggestion {
            write!(f, "\n  = help: {s}")?;
        }
        Ok(())
    }
}

/// One lint analysis over a function and its polyhedral context.
pub trait Analysis {
    /// Analysis name (for `-A`/`-W`-style selection and reporting).
    fn name(&self) -> &'static str;

    /// Appends findings to `out`.
    fn run(&self, cx: &LintContext<'_>, out: &mut Vec<Diagnostic>);
}

/// The result of a [`Linter`] run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LintReport {
    /// All findings, most severe first.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// Number of Error-severity findings.
    pub fn error_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of Warning-severity findings.
    pub fn warning_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count()
    }

    /// True when at least one Error-severity finding exists.
    pub fn has_errors(&self) -> bool {
        self.error_count() > 0
    }

    /// True when nothing at all was found.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Findings with a given code.
    pub fn with_code(&self, code: LintCode) -> Vec<&Diagnostic> {
        self.diagnostics.iter().filter(|d| d.code == code).collect()
    }

    /// The rustc-style rendered report (ends with a summary line).
    pub fn render(&self, func_name: &str) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.to_string());
            out.push_str("\n\n");
        }
        let (e, w) = (self.error_count(), self.warning_count());
        if self.is_clean() {
            out.push_str(&format!(
                "{func_name}: no diagnostics — design is lint-clean\n"
            ));
        } else {
            let plural = |n: usize, s: &str| {
                if n == 1 {
                    format!("1 {s}")
                } else {
                    format!("{n} {s}s")
                }
            };
            out.push_str(&format!(
                "{func_name}: {} and {} emitted\n",
                plural(e, "error"),
                plural(w, "warning"),
            ));
        }
        out
    }
}

/// Runs a registry of analyses and collects their findings.
#[derive(Default)]
pub struct Linter {
    analyses: Vec<Box<dyn Analysis>>,
}

impl Linter {
    /// An empty linter (no analyses registered).
    pub fn new() -> Self {
        Self::default()
    }

    /// The standard registry: all shipped analyses (POM001–POM010).
    pub fn standard() -> Self {
        Linter::new()
            .register(analyses::IiFeasibility)
            .register(analyses::BoundsCheck)
            .register(analyses::PortPressure)
            .register(analyses::ScheduleLegality)
            .register(analyses::DeadCode)
            .register(analyses::BankConflict)
            .register(analyses::Liveness)
            .register(analyses::ChannelPressure)
    }

    /// Registers one analysis.
    pub fn register(mut self, a: impl Analysis + 'static) -> Self {
        self.analyses.push(Box::new(a));
        self
    }

    /// Runs every registered analysis; findings come back sorted by
    /// severity, then code.
    pub fn run(&self, cx: &LintContext<'_>) -> LintReport {
        let mut diagnostics = Vec::new();
        for a in &self.analyses {
            a.run(cx, &mut diagnostics);
        }
        diagnostics.sort_by(|a, b| {
            (a.severity, a.code, a.location.loop_path.len()).cmp(&(
                b.severity,
                b.code,
                b.location.loop_path.len(),
            ))
        });
        LintReport { diagnostics }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_and_severities() {
        assert_eq!(LintCode::IiInfeasible.as_str(), "POM001");
        assert_eq!(LintCode::DeadCode.as_str(), "POM005");
        assert_eq!(LintCode::BankConflict.as_str(), "POM006");
        assert_eq!(LintCode::OversizedBuffer.as_str(), "POM007");
        assert_eq!(LintCode::DeadStoreToArray.as_str(), "POM008");
        assert_eq!(LintCode::BufferDepth.as_str(), "POM009");
        assert_eq!(LintCode::ChannelPressure.as_str(), "POM010");
        assert_eq!(LintCode::BankConflict.default_severity(), Severity::Warning);
        assert_eq!(
            LintCode::OversizedBuffer.default_severity(),
            Severity::Warning
        );
        assert_eq!(
            LintCode::DeadStoreToArray.default_severity(),
            Severity::Error
        );
        assert_eq!(LintCode::BufferDepth.default_severity(), Severity::Note);
        assert_eq!(
            LintCode::ChannelPressure.default_severity(),
            Severity::Warning
        );
        assert_eq!(LintCode::OutOfBounds.default_severity(), Severity::Error);
        assert_eq!(LintCode::PortPressure.default_severity(), Severity::Warning);
        assert!(Severity::Error < Severity::Warning);
    }

    #[test]
    fn diagnostic_renders_rustc_style() {
        let d = Diagnostic::new(
            LintCode::IiInfeasible,
            Location::in_loops("gemm", &["k".into(), "i".into(), "j".into()]).with_stmt("s"),
            "loop %j declares pipeline II = 1, but a carried dependence forces II >= 4",
        )
        .with_suggestion("pipeline %j with II >= 4");
        let text = d.to_string();
        assert!(text.starts_with("error[POM001]: loop %j"), "{text}");
        assert!(text.contains("--> gemm/%k/%i/%j (stmt s)"), "{text}");
        assert!(text.contains("= help: pipeline %j with II >= 4"), "{text}");
    }

    #[test]
    fn report_counts_and_summary() {
        let mut r = LintReport::default();
        assert!(r.is_clean() && !r.has_errors());
        assert!(r.render("f").contains("lint-clean"));
        r.diagnostics.push(Diagnostic::new(
            LintCode::DeadCode,
            Location::func_scope("f"),
            "memref `T` is never accessed",
        ));
        r.diagnostics.push(Diagnostic::new(
            LintCode::OutOfBounds,
            Location::func_scope("f"),
            "index out of bounds",
        ));
        assert_eq!(r.error_count(), 1);
        assert_eq!(r.warning_count(), 1);
        assert!(r.has_errors());
        assert!(r.render("f").contains("f: 1 error and 1 warning emitted"));
        assert_eq!(r.with_code(LintCode::DeadCode).len(), 1);
    }
}
