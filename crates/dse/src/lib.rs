//! # pom-dse — schedule application, the two-stage DSE engine, and
//! baseline strategies (Section VI of the paper)
//!
//! * [`mod@compile`] replays a recorded DSL schedule through all three IR
//!   layers — dependence graph IR → polyhedral IR → annotated affine
//!   dialect — and returns the lowered function with its QoR estimate.
//! * [`stage1`] is *dependence-aware code transformation*: per-node
//!   interchange/skew moves whose dependences are re-checked after every
//!   move on the transformed distance vectors, plus conservative fusion
//!   of independent compatible nests (Fig. 10).
//! * [`search`] is *bottleneck-oriented code optimization*: latency-ordered
//!   critical paths, parallelism escalation of the bottleneck node, a
//!   resource-constraint exit mechanism, and an optimization list.
//! * [`signoff`] computes what signing a finished design off needs —
//!   seeded memory, liveness, dataflow plan, co-simulation, sequential
//!   simulation, interpretation, channel certificates, lint — once each.
//! * [`baselines`] re-implements the comparison frameworks' *strategies*
//!   on the same substrate: unoptimized, Pluto-like, POLSCA-like, and
//!   ScaleHLS-like (see DESIGN.md for the substitution argument).

pub mod baselines;
pub mod cache;
pub mod compile;
pub mod dse;
pub mod search;
pub mod signoff;
pub mod stage1;
pub mod store;

pub use baselines::{pluto_like, polsca_like, scalehls_like, unoptimized, BaselineResult};
pub use cache::{
    canonical_fingerprint, fingerprint, stable_hash, DseCache, PhaseAccum, StableHasher,
};
pub use compile::{compile, compile_timed, lint_report, CompileError, CompileOptions, Compiled};
pub use dse::{auto_dse, auto_dse_with, auto_dse_with_cache, DseResult};
pub use search::{
    bottleneck_optimize, run_indexed, try_bottleneck_optimize, AnytimePoint, DseConfig, DseStats,
    GroupConfig, SearchMode, Stage2Result,
};
pub use signoff::Signoff;
pub use stage1::dependence_aware_transform;
pub use store::ArtifactStore;
