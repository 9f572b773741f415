//! The estimator's port model on the shipped image pipelines and stencils.
//!
//! The estimator prices a pipeline's memory ports by pom-bank's exact
//! per-bank demand where pom-bank analyses it exactly
//! (`pom_hls::port_res_mii`). The image kernels' windowed reads name each
//! element from several unrolled copies; the simulator reads it once, so
//! their winners declare and sustain II 1 — the even-spread count of every
//! copy's read made them declare II 2. A stencil reads and writes back one
//! array: each write-back takes its port in the cycle it lands, beside the
//! reads of a later iteration, and pom-bank places it there, so the
//! stencils' winners declare II 1 wherever those cycles fit the ports.

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
    // retarget, which moves none of these winners: each figure is the
    // returned design's co-simulation.
    let opts = paper_options();
    let cfg = DseConfig {
        dataflow: true,
        ..DseConfig::default()
    };
    for (kernel, cycles) in [
        ("gaussian", 1132),
        ("blur", 453),
        ("edge_detect", 2060),
        ("jacobi2d", 87),
        ("heat1d", 84),
    ] {
        let r = dse(kernel, 64, &cfg, &opts);
        let signoff = Signoff::new(&r.function, &r.compiled, &opts, SEED);
        assert_eq!(r.stats.dataflow_cycles, cycles, "{kernel}");
        assert_eq!(signoff.cosim().0.cycles, cycles, "{kernel}");
    }
}

#[test]
fn stencil_winners_ship_at_ii_1_and_run_at_their_estimates() {
    // heat1d's and jacobi2d's write-backs land on the banks of the rows
    // they write, apart from the rows the later iterations read: II 1
    // fits, and the simulator runs it without a port stall.
    let opts = paper_options();
    for (kernel, size, cycles) in [("heat1d", 256, 600), ("jacobi2d", 64, 87)] {
        let r = dse(kernel, size, &DseConfig::default(), &opts);
        let declared: Vec<u64> = pom::bank::analyze_func(&r.compiled.affine)
            .iter()
            .map(|l| l.declared_ii)
            .collect();
        assert_eq!(declared, [1], "{kernel}");
        let signoff = Signoff::new(&r.function, &r.compiled, &opts, SEED);
        let sim = &signoff.sim().0;
        assert_eq!(r.compiled.qor.latency, cycles, "{kernel}");
        assert_eq!(sim.cycles, cycles, "{kernel}");
        assert_eq!(sim.stall_port, 0, "{kernel}");
    }
}

#[test]
fn a_read_and_written_stencil_runs_at_its_estimate() {
    // jacobi2d@256 at II 1 with one bank row for both time steps would
    // land row i's write-backs beside a later iteration's reads of the
    // same row parity. Its winner keeps its estimate and, where pom-bank
    // certifies the loop, never stalls on a port.
    let opts = paper_options();
    let r = dse("jacobi2d", 256, &DseConfig::default(), &opts);
    let signoff = Signoff::new(&r.function, &r.compiled, &opts, SEED);
    let sim = &signoff.sim().0;
    assert!(sim.cycles <= 2160, "{} cycles", sim.cycles);
    let ratio = r.compiled.qor.latency as f64 / sim.cycles as f64;
    assert!((0.85..=1.15).contains(&ratio), "estimate/simulated {ratio}");
    let timing = pom::hls::WriteTiming {
        model: &opts.model,
        deps: &r.compiled.deps,
    };
    let certs = pom::bank_report_timed(&r.compiled.affine, opts.model.ports_per_bank, &timing);
    if certs.certificates.iter().any(|c| c.passed()) {
        assert_eq!(sim.stall_port, 0);
    }
}
