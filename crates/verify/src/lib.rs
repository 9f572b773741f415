//! # pom-verify — translation validation + abstract interpretation
//!
//! The pipeline's correctness layer (DESIGN.md §9). Two pillars:
//!
//! 1. **Translation validation** ([`tv`]): every rewrite the
//!    PassManager or the two-stage DSE applies is replayed through the
//!    polyhedral layer and certified — dependences stay
//!    lexicographically non-negative under the new schedule, iteration
//!    domains and access footprints are preserved, and producers still
//!    execute before consumers. Failing candidates are rejected with a
//!    rustc-style diagnostic ([`ValidationReport::render`]) instead of
//!    silently miscompiling.
//!
//! 2. **Value-range analysis** ([`dataflow`]): a forward interval walk
//!    over the annotated affine IR with `affine.if` guard narrowing,
//!    consumed by pom-lint's bounds check.
//!
//! The crate sits below `pom-dse`, `pom-lint`, and `pom-hls` in the
//! dependency graph and depends only on `pom-poly`, `pom-dsl`, and
//! `pom-ir`.

pub mod bank;
pub mod cert;
pub mod dataflow;
pub mod live;
pub mod passes;
pub mod tv;

pub use bank::{bank_report, bank_report_timed};
pub use cert::{Certificate, Obligation, ObligationKind, ObligationStatus, ValidationReport};
pub use dataflow::{analyze_ranges, expr_interval, Interval, ValueRanges};
pub use live::live_report;
pub use passes::{check_hook, check_pass};
pub use tv::{
    order_violations, reversed_dependence, self_dependences, validate, validate_with,
    SelfDependence, ValidateOptions,
};
