//! # pom-ir — the annotated affine dialect (layer 3, Section V-C)
//!
//! The reproduction's stand-in for MLIR's affine/arith/memref dialects,
//! extended with HLS pragma *attributes*. The polyhedral AST of layer 2
//! lowers onto this IR (`affine.for` / `affine.if` / `affine.store` ops
//! with `arith` expression bodies over `memref` declarations); hardware
//! optimizations then attach [`HlsAttrs`] (pipeline II, unroll factors)
//! to loops and [`PartitionInfo`] to memrefs, exactly where the paper
//! inserts its pragma-type operations (Fig. 9(d)).
//!
//! The crate also provides:
//!
//! * a verifier ([`mod@verify`]) enforcing structural invariants,
//! * an MLIR-flavoured printer (`Display` on [`AffineFunc`]),
//! * an interpreter ([`interp`]) executing the IR against a
//!   [`pom_dsl::MemoryState`], which powers the semantic-equivalence
//!   tests between reference DSL execution and fully transformed IR.

pub mod attrs;
pub mod interp;
pub mod lower;
pub mod ops;
pub mod passes;
pub mod verify;

pub use attrs::{HlsAttrs, MemRefDecl, PartitionInfo, RawAttr};
pub use interp::execute_func;
pub use lower::{lower_to_affine, StmtBody};
pub use ops::{AffineFunc, AffineOp, ForOp, IfOp, StoreOp};
pub use passes::{CheckHook, CollapseUnitLoops, Pass, PassIssue, PassManager, SimplifyBounds};
pub use verify::{verify, VerifyError};
