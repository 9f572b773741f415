//! Search-mode contracts for the DSE front door.
//!
//! * The default configuration dispatches to the greedy search, which
//!   on the full 14-kernel suite leaves the anytime curve empty and the
//!   beam/sim counters at zero.
//! * `DseConfig` is destructured exhaustively, so a new field is a
//!   compile error in the test that says what a field must earn.
//! * The portfolio search is worker-count deterministic: runs at 1, 2,
//!   and 8 workers emit byte-identical designs, identical anytime curves
//!   and the same simulated winner.
//! * The portfolio never loses to greedy under the final-design
//!   simulation metric (the greedy winner is force-admitted past the
//!   sim-admission band), and its winner carries checked certificates.

use pom::{auto_dse_with, DseConfig, DseResult, Function, MemoryState, SearchMode};
use pom_bench::experiments::bench_dse::results_identical;
use pom_bench::experiments::{bench_sim, common::paper_options};
use pom_bench::kernels;

/// Same deterministic seed the searches and the bench harness use.
const SIM_SEED: u64 = 0x5EED;

fn simulated_cycles(f: &Function, r: &DseResult, opts: &pom::CompileOptions) -> u64 {
    let mut mem = MemoryState::for_function_seeded(f, SIM_SEED);
    pom::simulate(&r.compiled.affine, &r.compiled.deps, &mut mem, &opts.model).cycles
}

/// The deterministic part of an anytime curve: wall-clock stamps vary
/// run to run, the visited (cycles, estimate) sequence must not.
fn curve(r: &DseResult) -> Vec<(u64, u64)> {
    r.anytime
        .iter()
        .map(|p| (p.sim_cycles, p.est_latency))
        .collect()
}

#[test]
fn greedy_dispatch_reproduces_default_on_all_14_kernels() {
    let opts = paper_options();
    let cfg = DseConfig::default();
    assert_eq!(cfg.search, SearchMode::Greedy, "greedy is the default");
    for (name, f) in bench_sim::suite(32) {
        let a = auto_dse_with(&f, &opts, &cfg).expect("default DSE compiles");
        assert!(
            a.anytime.is_empty(),
            "{name}: greedy must not record anytime points"
        );
        assert_eq!(
            a.stats.beam_expanded, 0,
            "{name}: greedy expanded beam states"
        );
        assert_eq!(a.stats.sim_admitted, 0, "{name}: greedy ran sim admission");
    }
}

/// `DseConfig` has nine fields, each set by a tool, a benchmark workload
/// or a tier-1 reference path (README, "`DseConfig` field → who sets
/// it"). Adding one fails to compile here: a new search knob needs a
/// caller outside unit tests that sets it to a second value, and
/// otherwise belongs in a `const` next to its use.
#[test]
fn dse_config_has_exactly_the_nine_fields_in_use() {
    let DseConfig {
        stage1_max_iters,
        max_parallelism,
        cache,
        workers,
        store,
        store_max_bytes,
        validate_sample_every,
        search,
        dataflow,
    } = DseConfig::default();
    assert_eq!((stage1_max_iters, max_parallelism), (8, 256));
    assert!(cache && workers == 0, "memoized, one worker per core");
    assert!(store.is_none() && store_max_bytes.is_none());
    assert_eq!(validate_sample_every, 0);
    assert_eq!((search, dataflow), (SearchMode::Greedy, false));
}

#[test]
fn portfolio_is_worker_count_deterministic() {
    let opts = paper_options();
    for (name, f) in [
        ("gesummv", kernels::gesummv(32)),
        ("gemm", kernels::gemm(32)),
        ("blur", kernels::blur(32)),
    ] {
        let runs: Vec<DseResult> = [1usize, 2, 8]
            .iter()
            .map(|&w| {
                let cfg = DseConfig {
                    search: SearchMode::Portfolio,
                    workers: w,
                    ..DseConfig::default()
                };
                auto_dse_with(&f, &opts, &cfg).expect("portfolio DSE compiles")
            })
            .collect();
        for (i, r) in runs.iter().enumerate().skip(1) {
            let workers = [1, 2, 8][i];
            assert!(
                results_identical(&runs[0], r),
                "{name}: portfolio diverged between 1 worker and {workers} workers"
            );
            assert_eq!(
                curve(&runs[0]),
                curve(r),
                "{name}: anytime curve diverged between 1 worker and {workers} workers"
            );
            assert_eq!(
                runs[0].stats.sim_cycles, r.stats.sim_cycles,
                "{name}: winner sim cycles diverged between 1 worker and {workers} workers"
            );
        }
    }
}

#[test]
fn portfolio_never_loses_to_greedy_and_validates_winner() {
    let opts = paper_options();
    let greedy_cfg = DseConfig::default();
    let beam_cfg = DseConfig {
        search: SearchMode::Portfolio,
        ..DseConfig::default()
    };
    for (name, f) in [
        ("gemm", kernels::gemm(32)),
        ("blur", kernels::blur(32)),
        ("gaussian", kernels::gaussian(32)),
    ] {
        let greedy = auto_dse_with(&f, &opts, &greedy_cfg).expect("greedy DSE compiles");
        let beam = auto_dse_with(&f, &opts, &beam_cfg).expect("portfolio DSE compiles");
        let gc = simulated_cycles(&f, &greedy, &opts);
        let bc = simulated_cycles(&f, &beam, &opts);
        assert!(
            bc <= gc,
            "{name}: portfolio ({bc} cycles) lost to its own greedy seed ({gc} cycles)"
        );
        assert!(
            beam.stats.certificates_checked > 0,
            "{name}: portfolio winner shipped without checked certificates"
        );
        assert!(
            beam.anytime
                .windows(2)
                .all(|w| w[1].sim_cycles < w[0].sim_cycles),
            "{name}: anytime curve is not strictly improving"
        );
        let u = &beam.compiled.qor.resources;
        let d = &opts.device;
        assert!(
            u.dsp <= d.dsp && u.ff <= d.ff && u.lut <= d.lut,
            "{name}: portfolio winner does not fit the device"
        );
    }
}
