//! The estimator's port model on the shipped image pipelines.
//!
//! The estimator prices a pipeline's memory ports by pom-bank's exact
//! per-bank demand where pom-bank analyses it exactly and no array is
//! both read and written back (`pom_hls::port_res_mii`). The image
//! kernels' windowed reads name each element from several unrolled
//! copies; the simulator reads it once, so their winners declare and
//! sustain II 1 — the even-spread count of every copy's read made them
//! declare II 2. A stencil that reads and writes one array keeps the
//! even-spread bound, and its design does not move.

use pom::dse::{auto_dse_with, DseConfig, DseResult};
use pom::{CompileOptions, Signoff};
use pom_bench::experiments::common::paper_options;
use pom_bench::serve::kernel_by_name;

/// The memory seed of the sign-off executions.
const SEED: u64 = 7;

fn dse(kernel: &str, size: usize, cfg: &DseConfig, opts: &CompileOptions) -> DseResult {
    let f = kernel_by_name(kernel, size).expect("suite kernel");
    auto_dse_with(&f, opts, cfg).expect("DSE compiles")
}

#[test]
fn gaussian_ships_at_ii_1_and_runs_at_its_estimate() {
    let opts = paper_options();
    let r = dse("gaussian", 64, &DseConfig::default(), &opts);
    let declared: Vec<u64> = pom::bank::analyze_func(&r.compiled.affine)
        .iter()
        .map(|l| l.declared_ii)
        .collect();
    assert_eq!(declared, [1, 1], "both pipelines declare II 1");
    let signoff = Signoff::new(&r.function, &r.compiled, &opts, SEED);
    let sim = &signoff.sim().0;
    assert_eq!(r.compiled.qor.latency, 2062);
    assert_eq!(sim.cycles, 2062);
    assert_eq!(sim.stall_port, 0);
}

#[test]
fn dataflow_cycles_are_the_returned_designs() {
    // The dataflow sign-off measures the design after the declared-II
    // retarget: jacobi2d's and heat1d's winners are retargeted, the
    // image pipelines' are not, and each figure is the returned design's
    // co-simulation.
    let opts = paper_options();
    let cfg = DseConfig {
        dataflow: true,
        ..DseConfig::default()
    };
    for (kernel, cycles) in [
        ("gaussian", 1132),
        ("blur", 453),
        ("edge_detect", 2060),
        ("jacobi2d", 96),
        ("heat1d", 93),
    ] {
        let r = dse(kernel, 64, &cfg, &opts);
        let signoff = Signoff::new(&r.function, &r.compiled, &opts, SEED);
        assert_eq!(r.stats.dataflow_cycles, cycles, "{kernel}");
        assert_eq!(signoff.cosim().0.cycles, cycles, "{kernel}");
    }
}

#[test]
fn a_read_and_written_stencil_keeps_the_even_spread_bound() {
    // jacobi2d's winner reads and writes one array in its pipeline: the
    // exact per-iteration demand would ship it at II 1, where its
    // write-backs stall later iterations' reads.
    let opts = paper_options();
    let r = dse("jacobi2d", 256, &DseConfig::default(), &opts);
    let signoff = Signoff::new(&r.function, &r.compiled, &opts, SEED);
    assert_eq!(signoff.sim().0.cycles, 2160);
}
