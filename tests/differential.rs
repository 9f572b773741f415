//! Differential testing of the transformation pipeline (DESIGN.md §9):
//! the DSL reference interpreter and the affine-IR interpreter must
//! produce bit-identical memory on the Table III kernels, both on the
//! untransformed lowering and after `auto_dse_with` running with winner
//! *and* sampled candidate validation. A divergence here means a rewrite
//! escaped `pom-verify`'s certificates; the suite is the oracle the
//! translation-validation layer is measured against.

use pom::ir::{lower_to_affine, MemRefDecl, StmtBody};
use pom::{
    auto_dse_with, compile, execute_func, reference_execute, CompileOptions, DseConfig, Function,
    MemoryState, PassManager,
};
use pom_bench::kernels;
use std::collections::HashMap;

/// Every placeholder any compute of `f` stores to.
fn output_arrays(f: &Function) -> Vec<String> {
    let mut out: Vec<String> = f
        .computes()
        .iter()
        .map(|c| c.store().array.clone())
        .collect();
    out.sort();
    out.dedup();
    out
}

/// Runs the reference semantics and the affine interpreter on identically
/// seeded memory, requiring bit-identical output arrays.
fn assert_identical(f: &Function, affine: &pom::AffineFunc, seed: u64, stage: &str) {
    let mut reference = MemoryState::for_function_seeded(f, seed);
    reference_execute(f, &mut reference);
    let mut lowered = MemoryState::for_function_seeded(f, seed);
    execute_func(affine, &mut lowered);
    for a in output_arrays(f) {
        assert_eq!(
            reference.array(&a).unwrap().data(),
            lowered.array(&a).unwrap().data(),
            "array {a} differs between DSL reference and IR interpreter ({stage}) of {}",
            f.name()
        );
    }
}

/// Lowers the recorded schedule of `f` (loop rewrites only: none of the
/// suite kernels records an HLS attribute) and runs the standard cleanup
/// passes with `pom-verify`'s footprint hook checking each one.
fn checked_lowering(f: &Function) -> pom::AffineFunc {
    let ast = pom::poly::build_ast(&pom::dse::compile::apply_schedule(f));
    let bodies: HashMap<String, StmtBody> = f
        .computes()
        .iter()
        .map(|c| {
            let body = StmtBody {
                name: c.name().to_string(),
                orig_dims: c.iter_names(),
                body: c.body().clone(),
                store: c.store().clone(),
            };
            (c.name().to_string(), body)
        })
        .collect();
    let memrefs = f
        .placeholders()
        .iter()
        .map(|p| MemRefDecl::new(p.name(), p.shape(), p.dtype()))
        .collect();
    let mut func = lower_to_affine(f.name(), memrefs, &ast, &bodies);
    PassManager::standard()
        .check_each(pom::verify::check_hook())
        .run(&mut func)
        .unwrap_or_else(|(pass, issue)| panic!("pass {pass} of {}: {issue}", f.name()));
    func
}

/// The differential harness for one kernel: before DSE (untransformed
/// lowering, with the footprint check hook installed) and after
/// `auto_dse_with` under full validation.
fn differential(f: &Function, seed: u64) {
    // The recorded (possibly empty) schedule, every pass checked by the
    // pom-verify footprint hook, is what `compile` produces.
    let before = compile(f, &CompileOptions::default()).expect("compile of the input schedule");
    assert_eq!(before.affine, checked_lowering(f), "{}", f.name());
    assert_identical(f, &before.affine, seed, "before DSE");

    // Full-validation DSE: winner certificates plus every 2nd estimated
    // candidate replayed through the certificate checker.
    let cfg = DseConfig {
        validate_sample_every: 2,
        ..DseConfig::default()
    };
    let r = auto_dse_with(f, &CompileOptions::default(), &cfg).expect("validated DSE compiles");
    assert!(r.stats.certificates_checked > 0);
    assert_eq!(r.stats.certificates_checked, r.stats.certificates_passed);
    assert_identical(f, &r.compiled.affine, seed, "after DSE");
}

#[test]
fn gemm_differential() {
    differential(&kernels::gemm(10), 11);
}

#[test]
fn bicg_differential() {
    differential(&kernels::bicg(12), 12);
}

#[test]
fn gesummv_differential() {
    differential(&kernels::gesummv(10), 13);
}

#[test]
fn mm2_differential() {
    differential(&kernels::mm2(8), 14);
}

#[test]
fn mm3_differential() {
    differential(&kernels::mm3(6), 15);
}

#[test]
fn jacobi1d_differential() {
    differential(&kernels::jacobi1d(5, 16), 16);
}

#[test]
fn jacobi2d_differential() {
    differential(&kernels::jacobi2d(3, 8), 17);
}

#[test]
fn heat1d_differential() {
    differential(&kernels::heat1d(5, 16), 18);
}

#[test]
fn seidel_differential() {
    differential(&kernels::seidel(12), 19);
}
