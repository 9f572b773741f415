//! Determinism guarantees of the parallel, memoized DSE (DESIGN.md §8).
//!
//! The performance layer must be invisible in the results: parallel
//! candidate evaluation and the compile/estimate cache may only change
//! *when* work happens, never *what* the search returns. These tests pin
//! that down across the representative kernel shapes — dense linear
//! algebra (GEMM, 2MM), split-reduction (BICG), and loop-carried
//! stencils (Jacobi-2d, Seidel).

use pom::{auto_dse_with, CompileOptions, DseConfig, DseResult, Function};
use pom_bench::kernels;
use proptest::prelude::*;

fn paper_options() -> CompileOptions {
    CompileOptions::default()
}

/// Everything the search is judged on, rendered to comparable form.
fn observable(r: &DseResult) -> (String, Vec<pom::GroupConfig>, u64, String) {
    (
        r.function.to_string(),
        r.groups.clone(),
        r.compiled.qor.latency,
        format!("{:?}", r.compiled.qor.resources),
    )
}

fn kernel_suite() -> Vec<Function> {
    vec![
        kernels::gemm(32),
        kernels::bicg(32),
        kernels::mm2(24),
        kernels::jacobi2d(4, 24),
        kernels::seidel(16),
    ]
}

#[test]
fn parallel_search_equals_serial_search() {
    let opts = paper_options();
    let serial = DseConfig {
        workers: 1,
        ..Default::default()
    };
    let parallel = DseConfig {
        workers: 4,
        ..Default::default()
    };
    for f in kernel_suite() {
        let a = auto_dse_with(&f, &opts, &serial).expect("serial DSE compiles");
        let b = auto_dse_with(&f, &opts, &parallel).expect("parallel DSE compiles");
        assert_eq!(
            observable(&a),
            observable(&b),
            "{}: parallel workers changed the search outcome",
            f.name()
        );
    }
}

#[test]
fn cached_search_equals_uncached_search() {
    let opts = paper_options();
    let uncached = DseConfig::serial_uncached();
    let cached = DseConfig {
        cache: true,
        workers: 1,
        ..Default::default()
    };
    for f in kernel_suite() {
        let a = auto_dse_with(&f, &opts, &uncached).expect("uncached DSE compiles");
        let b = auto_dse_with(&f, &opts, &cached).expect("cached DSE compiles");
        assert_eq!(
            observable(&a),
            observable(&b),
            "{}: the cache changed the search outcome",
            f.name()
        );
        assert_eq!(a.stats.estimated, b.stats.estimated, "{}", f.name());
        assert_eq!(a.stats.lint_pruned, b.stats.lint_pruned, "{}", f.name());
    }
}

#[test]
fn fast_mode_reports_cache_traffic_and_phase_times() {
    let opts = paper_options();
    let cfg = DseConfig::default();
    let r = auto_dse_with(&kernels::gemm(32), &opts, &cfg).expect("DSE compiles");
    assert!(r.stats.cache_hits > 0, "repeated compiles never hit cache");
    assert!(r.stats.cache_misses > 0, "cache cannot be all hits");
    // `PhaseAccum` sums every worker's time, so under parallel evaluation
    // the phases are bounded by wall time x workers, not by wall time.
    let workers = u32::try_from(cfg.effective_workers()).expect("worker count fits u32");
    assert!(
        r.stats.lowering_time + r.stats.estimation_time <= r.dse_time * workers,
        "phase times exceed total DSE worker time"
    );
    assert!(r.stats.stage2_time <= r.dse_time);

    let one = DseConfig {
        workers: 1,
        ..DseConfig::default()
    };
    let r = auto_dse_with(&kernels::gemm(32), &opts, &one).expect("DSE compiles");
    assert!(
        r.stats.lowering_time + r.stats.estimation_time <= r.dse_time,
        "single-worker phase times exceed total DSE wall time"
    );
}

/// The persistent artifact store is the third performance knob: a search
/// answered from a cold store, a search that populated it, and a search
/// with no store at all must agree on every observable — across separate
/// store handles, as separate daemon-style processes would use them.
#[test]
fn store_backed_search_equals_storeless_search() {
    let root = std::env::temp_dir().join(format!("pom-dse-store-det-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let opts = paper_options();
    let storeless = DseConfig::default();
    let stored = DseConfig {
        store: Some(root.clone()),
        ..Default::default()
    };
    for f in kernel_suite() {
        let a = auto_dse_with(&f, &opts, &storeless).expect("storeless DSE compiles");
        let b = auto_dse_with(&f, &opts, &stored).expect("store-populating DSE compiles");
        let c = auto_dse_with(&f, &opts, &stored).expect("store-warmed DSE compiles");
        assert_eq!(
            observable(&a),
            observable(&b),
            "{}: populating the store changed the search outcome",
            f.name()
        );
        assert_eq!(
            observable(&b),
            observable(&c),
            "{}: reading the store back changed the search outcome",
            f.name()
        );
        assert!(
            b.stats.store_writes > 0,
            "{}: the first stored run spilled nothing",
            f.name()
        );
        assert!(
            c.stats.store_hits > 0,
            "{}: the second stored run reloaded nothing",
            f.name()
        );
    }
    let _ = std::fs::remove_dir_all(&root);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Cache and workers are pure performance knobs for any problem size.
    #[test]
    fn dse_observables_invariant_under_perf_knobs(
        n in 8usize..40,
        workers in 1usize..5,
    ) {
        let opts = paper_options();
        let f = kernels::gemm(n);
        let base = auto_dse_with(&f, &opts, &DseConfig::serial_uncached())
            .expect("DSE compiles");
        let tuned_cfg = DseConfig { workers, ..Default::default() };
        let tuned = auto_dse_with(&f, &opts, &tuned_cfg).expect("DSE compiles");
        prop_assert_eq!(observable(&base), observable(&tuned));
    }
}
