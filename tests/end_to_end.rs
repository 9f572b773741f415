//! Integration tests spanning the whole stack: DSL → dependence graph →
//! polyhedral transformation → affine dialect → HLS C / QoR, with
//! semantic-equivalence checks against the reference interpreter and the
//! framework orderings the paper reports.

use pom::{
    auto_dse, baselines, compile, execute_func, reference_execute, CompileError, CompileOptions,
    MemoryState, Pom,
};
use pom_bench::kernels;

/// Executes `f`'s auto-DSE design and the reference semantics on the same
/// seeded memory and asserts bit-identical results for `arrays`.
fn assert_dse_preserves_semantics(f: &pom::Function, arrays: &[&str], seed: u64) {
    let opts = CompileOptions::default();
    let r = auto_dse(f, &opts).expect("DSE compiles");
    let compiled = compile(&r.function, &opts).expect("DSE schedule compiles");
    pom::ir::verify(&compiled.affine).expect("DSE output must verify");

    let mut reference = MemoryState::for_function_seeded(f, seed);
    reference_execute(f, &mut reference);
    let mut optimized = MemoryState::for_function_seeded(f, seed);
    execute_func(&compiled.affine, &mut optimized);
    for a in arrays {
        assert_eq!(
            reference.array(a).unwrap().data(),
            optimized.array(a).unwrap().data(),
            "array {a} differs between reference and DSE-optimized execution of {}",
            f.name()
        );
    }
}

#[test]
fn gemm_dse_is_semantics_preserving() {
    assert_dse_preserves_semantics(&kernels::gemm(10), &["A"], 1);
}

#[test]
fn bicg_dse_is_semantics_preserving() {
    assert_dse_preserves_semantics(&kernels::bicg(12), &["s", "q"], 2);
}

#[test]
fn gesummv_dse_is_semantics_preserving() {
    assert_dse_preserves_semantics(&kernels::gesummv(10), &["tmp", "y"], 3);
}

#[test]
fn mm2_dse_is_semantics_preserving() {
    assert_dse_preserves_semantics(&kernels::mm2(8), &["tmp", "D"], 4);
}

#[test]
fn mm3_dse_is_semantics_preserving() {
    assert_dse_preserves_semantics(&kernels::mm3(6), &["E", "Fm", "G"], 5);
}

#[test]
fn jacobi1d_dse_is_semantics_preserving() {
    assert_dse_preserves_semantics(&kernels::jacobi1d(5, 16), &["B"], 6);
}

#[test]
fn heat1d_dse_is_semantics_preserving() {
    assert_dse_preserves_semantics(&kernels::heat1d(5, 16), &["B"], 7);
}

#[test]
fn seidel_dse_is_semantics_preserving() {
    assert_dse_preserves_semantics(&kernels::seidel(12), &["A"], 8);
}

#[test]
fn blur_dse_is_semantics_preserving() {
    assert_dse_preserves_semantics(&kernels::blur(14), &["blurx", "blury"], 9);
}

#[test]
fn edge_detect_dse_is_semantics_preserving() {
    assert_dse_preserves_semantics(&kernels::edge_detect(12), &["edges"], 10);
}

#[test]
fn framework_ordering_on_bicg() {
    // The paper's Fig. 2 ordering: POM > ScaleHLS > POLSCA >= Pluto ~ 1.
    let n = 512;
    let f = kernels::bicg(n);
    let opts = CompileOptions::default();
    let base = baselines::baseline_compiled(&f, &opts);
    let pluto = baselines::pluto_like(&f, &opts);
    let polsca = baselines::polsca_like(&f, &opts);
    let scalehls = baselines::scalehls_like(&f, &opts, n);
    let pom = auto_dse(&f, &opts).expect("DSE compiles");

    let s = |q: &pom::QoR| q.speedup_over(&base.qor);
    assert!(s(&pom.compiled.qor) > s(&scalehls.compiled.qor));
    assert!(s(&scalehls.compiled.qor) > s(&polsca.compiled.qor));
    assert!(s(&polsca.compiled.qor) > s(&pluto.compiled.qor));
    assert!(s(&pluto.compiled.qor) < 2.0, "Pluto on FPGA stays near 1x");
}

#[test]
fn generated_hls_c_is_synthesizable_shaped() {
    let f = kernels::gemm(64);
    let pom_driver = Pom::new();
    let mut g = f.clone();
    g.auto_dse();
    let result = pom_driver.codegen(&g).expect("DSE compiles");
    let c = &result.hls_c;
    assert!(c.contains("void gemm(float A[64][64]"));
    assert!(c.contains("#pragma HLS pipeline II=1"));
    assert!(c.contains("#pragma HLS unroll factor="));
    assert!(c.contains("#pragma HLS array_partition"));
    // Braces balance.
    let open = c.matches('{').count();
    let close = c.matches('}').count();
    assert_eq!(open, close, "unbalanced braces in generated C:\n{c}");
}

#[test]
fn pipeline_layers_are_consistent() {
    // Dependence graph IR -> polyhedral IR -> affine dialect agree on the
    // structure of 3MM: three nests, two source->sink paths, three stores.
    let f = kernels::mm3(8);
    let pom_driver = Pom::new();
    let graph = pom_driver.analyze(&f);
    assert_eq!(graph.nodes().len(), 3);
    let paths = graph.data_paths();
    assert_eq!(paths.len(), 2, "mm1->mm3 and mm2->mm3");
    let compiled = pom_driver.compile(&f).expect("compiles");
    assert_eq!(compiled.affine.stores().len(), 3);
    assert_eq!(compiled.stmts.len(), 3);
}

#[test]
fn user_schedule_and_auto_dse_both_work_through_facade() {
    let mut manual = kernels::gemm(32);
    manual.split("s", "j", 8, "j0", "j1");
    manual.pipeline("s", "j0", 1);
    manual.unroll("s", "j1", 8);
    let pom_driver = Pom::new();
    let manual_result = pom_driver.codegen(&manual).expect("schedule compiles");
    assert!(manual_result.speedup_over_baseline > 2.0);
    assert_eq!(
        manual_result.dse_time.as_nanos(),
        0,
        "no DSE for user schedules"
    );

    let mut auto = kernels::gemm(32);
    auto.auto_dse();
    let auto_result = pom_driver.codegen(&auto).expect("DSE compiles");
    assert!(auto_result.speedup_over_baseline >= manual_result.speedup_over_baseline);
}

#[test]
fn malformed_user_schedule_is_an_error_not_a_panic() {
    // The second split names `j`, which the first split already replaced.
    let mut f = kernels::gemm(32);
    f.split("s", "j", 8, "j0", "j1");
    f.split("s", "j", 4, "ja", "jb");
    let pom_driver = Pom::new();
    let manual = pom_driver.codegen(&f);
    assert!(
        matches!(manual, Err(CompileError::Rejected(_))),
        "{manual:?}"
    );
    f.auto_dse();
    let auto = pom_driver.codegen(&f);
    assert!(matches!(auto, Err(CompileError::Rejected(_))), "{auto:?}");
}

#[test]
fn resource_constrained_dse_respects_smaller_devices() {
    let f = kernels::mm2(128);
    for pct in [25, 50, 100] {
        let device = pom::DeviceSpec::xc7z020().scaled_to(pct);
        let opts = CompileOptions {
            device: device.clone(),
            ..Default::default()
        };
        let r = auto_dse(&f, &opts).expect("DSE compiles");
        assert!(
            r.compiled.qor.resources.dsp <= device.dsp,
            "{pct}%: {} DSPs over budget {}",
            r.compiled.qor.resources.dsp,
            device.dsp
        );
    }
}

#[test]
fn dnn_networks_compile_and_fit() {
    let opts = CompileOptions::default();
    for f in [kernels::vgg16(1), kernels::resnet18(1)] {
        let r = auto_dse(&f, &opts).expect("DSE compiles");
        assert!(r.compiled.qor.resources.dsp <= 220, "{}", f.name());
        let base = baselines::baseline_compiled(&f, &opts);
        assert!(
            r.compiled.qor.speedup_over(&base.qor) > 5.0,
            "{} speedup too low",
            f.name()
        );
    }
}

#[test]
fn synthesis_report_and_testbench_generation() {
    let mut f = kernels::gemm(32);
    f.split("s", "j", 8, "j0", "j1");
    f.pipeline("s", "j0", 1);
    f.unroll("s", "j1", 8);
    let pom_driver = Pom::new();
    let report = pom_driver.report(&f).expect("compiles");
    let text = report.render();
    assert!(text.contains("Synthesis report: gemm"));
    assert!(text.contains("loop_k"));
    assert!(text.contains("DSP48"));
    assert!(report.time_us() > 0.0);

    let tb = pom_driver.testbench(&f, 7).expect("compiles");
    assert!(tb.contains("int main(void)"));
    assert!(tb.contains("gemm(A, B, C);"));
}

#[test]
fn dse_config_knobs_shape_the_search() {
    let f = kernels::gemm(128);
    let opts = CompileOptions::default();
    let tight = pom::DseConfig {
        max_parallelism: 4,
        ..Default::default()
    };
    let constrained = pom::auto_dse_with(&f, &opts, &tight).expect("DSE compiles");
    assert!(
        constrained.groups[0].parallelism() <= 4,
        "got {:?}",
        constrained.groups[0].tiles
    );
    let free = auto_dse(&f, &opts).expect("DSE compiles");
    assert!(free.groups[0].parallelism() > 4);
    assert!(free.compiled.qor.latency <= constrained.compiled.qor.latency);
}

#[test]
fn schedule_naming_an_unknown_iterator_is_rejected_not_a_panic() {
    // One malformed primitive per loop transformation; each names `zz`,
    // which no statement of 2mm has, after one well-formed split.
    type Malform = fn(&mut pom::Function);
    let cases: [(&str, Malform); 5] = [
        ("split", |f| {
            f.split("mm1", "zz", 4, "a", "b");
        }),
        ("tile", |f| {
            f.tile("mm1", "i", "zz", 4, 4, "a", "b", "c", "d");
        }),
        ("interchange", |f| {
            f.interchange("mm1", "zz", "j");
        }),
        ("skew", |f| {
            f.skew("mm1", "zz", "j", 1, "a", "b");
        }),
        ("after", |f| {
            f.after("mm2", "mm1", "zz");
        }),
    ];
    for (what, malform) in cases {
        let mut f = kernels::mm2(16);
        f.split("mm1", "k", 4, "k0", "k1");
        malform(&mut f);
        f.pipeline("mm1", "j", 1);

        let report = pom::validate(&f);
        assert!(!report.passed(), "{what}: {}", report.render());
        assert_eq!(report.checked(), 3, "{what}: one certificate per step");
        assert!(report.certificates[0].passed(), "{what}");
        let failure = report.certificates[1]
            .failures()
            .next()
            .unwrap_or_else(|| panic!("{what}: step 1 must carry a failed obligation"));
        assert_eq!(
            failure.detail,
            "the rewrite cannot be replayed: iterator `zz` is not a loop of statement `mm1`",
            "{what}"
        );

        let opts = CompileOptions::default();
        for (entry, err) in [
            ("compile", compile(&f, &opts).map(|_| ()).unwrap_err()),
            ("auto_dse", auto_dse(&f, &opts).map(|_| ()).unwrap_err()),
        ] {
            let pom::CompileError::Rejected(text) = err else {
                panic!("{what}/{entry}: expected Rejected, got {err}");
            };
            assert!(
                text.contains("iterator `zz` is not a loop of statement `mm1`"),
                "{what}/{entry}: {text}"
            );
        }
    }
}
