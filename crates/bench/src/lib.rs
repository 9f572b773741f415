//! # pom-bench — benchmark kernels and the experiment harness
//!
//! Everything needed to regenerate the paper's evaluation (Section VII):
//! the benchmark suites expressed in the POM DSL ([`kernels`]) and one
//! harness module per table/figure ([`experiments`]). Each experiment is
//! exposed both as a binary (`cargo run -p pom-bench --bin tab03_typical`)
//! and as a Criterion bench target (`cargo bench -p pom-bench`). The
//! `pomc` and `pomd` binaries parse their flags with [`cli`] and name
//! kernels through [`serve::kernel_by_name`].

pub mod cli;
pub mod experiments;
pub mod kernels;
pub mod serve;
