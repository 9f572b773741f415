//! # pom-dsl — the POM programming model (Section IV of the paper)
//!
//! A declarative DSL, embedded in Rust instead of C++, that decouples the
//! *algorithm specification* from the *schedule*:
//!
//! * [`Var`] — loop iterators with ranges (`var i("i", 0, 32)`),
//! * [`Placeholder`] — multi-dimensional arrays with a [`DataType`],
//! * [`Compute`] — a statement defined over an iteration domain
//!   (`compute s("s", [k,i,j], A(i,j)+B(i,k)*C(k,j), A(i,j))`),
//! * [`Function`] — a collection of computes plus the recorded
//!   [`Primitive`] schedule (Table II): `interchange`, `split`, `tile`,
//!   `skew`, `after`, `pipeline`, `unroll`, `partition`, and `auto_dse`.
//!
//! The matrix-multiplication example of Fig. 4/5/6:
//!
//! ```
//! use pom_dsl::{Function, DataType, PartitionStyle};
//!
//! let mut f = Function::new("gemm");
//! let (i, j, k) = (f.var("i", 0, 32), f.var("j", 0, 32), f.var("k", 0, 32));
//! let a = f.placeholder("A", &[32, 32], DataType::F32);
//! let b = f.placeholder("B", &[32, 32], DataType::F32);
//! let c = f.placeholder("C", &[32, 32], DataType::F32);
//! f.compute(
//!     "s",
//!     &[k.clone(), i.clone(), j.clone()],
//!     a.at(&[&i, &j]) + b.at(&[&i, &k]) * c.at(&[&k, &j]),
//!     a.access(&[&i, &j]),
//! );
//! // Schedule: tile i, j by 4x4; pipeline j0; unroll the intra-tile loops.
//! f.tile("s", "i", "j", 4, 4, "i0", "j0", "i1", "j1");
//! f.pipeline("s", "j0", 1);
//! f.unroll("s", "i1", 4);
//! f.unroll("s", "j1", 4);
//! f.partition("A", &[4, 4], PartitionStyle::Cyclic);
//! assert_eq!(f.computes().len(), 1);
//! ```

pub mod compute;
pub mod expr;
pub mod function;
pub mod interp;
pub mod schedule;
pub mod types;

pub use compute::Compute;
pub use expr::{BinOp, Expr, UnOp};
pub use function::Function;
pub use interp::{reference_execute, ArrayData, MemoryState};
pub use schedule::{PartitionStyle, Primitive, UnknownIterator};
pub use types::{DataType, Placeholder, Var};

pub use pom_poly::AccessFn;
