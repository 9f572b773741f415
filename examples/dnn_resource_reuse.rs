//! DNN mapping strategies (Section VII-E, Fig. 13): POM executes layers
//! sequentially and *reuses* resources between them, so every layer gets
//! high parallelism; a dataflow mapping (ScaleHLS-style) instantiates
//! every layer's hardware simultaneously and starves each of them.
//!
//! Run with: `cargo run --release --example dnn_resource_reuse`

use pom::dse::search::stage2::group_compile;
use pom::dse::PhaseAccum;
use pom::{auto_dse, baselines, CompileOptions};
use pom_bench::kernels;

fn main() {
    let opts = CompileOptions::default();
    let f = kernels::resnet18(1);
    let critical = kernels::dnn::critical_loop_count(&f);
    println!(
        "ResNet-18: {} computes, {} critical loops (17 conv + 3 residual)",
        f.computes().len(),
        critical
    );

    let base = baselines::baseline_compiled(&f, &opts);

    // POM: sequential layers, resource reuse (accumulated usage = max).
    let pom = auto_dse(&f, &opts).expect("DSE compiles");
    let stage1 = pom::dse::stage1::dependence_aware_transform(&f, 8);
    println!("\n=== POM (resource reuse) per-layer designs ===");
    println!(
        "{:<10} {:>18} {:>8} {:>12}",
        "group", "tiles", "DSP", "parallelism"
    );
    let mut max_dsp = 0;
    for g in &pom.groups {
        let (_, r) = group_compile(&stage1, g, &opts, &PhaseAccum::default())
            .expect("group schedule compiles");
        max_dsp = max_dsp.max(r.dsp);
        let tiles: Vec<String> = g.tiles.iter().map(|t| t.to_string()).collect();
        println!(
            "{:<10} {:>18} {:>8} {:>12}",
            g.members[0],
            format!("[{}]", tiles.join(",")),
            r.dsp,
            g.parallelism()
        );
    }
    println!(
        "accumulated DSP under reuse: {} (= max over layers; device has 220)",
        max_dsp
    );
    println!(
        "POM total latency: {} cycles ({:.1}x speedup)",
        pom.compiled.qor.latency,
        pom.compiled.qor.speedup_over(&base.qor)
    );

    // ScaleHLS: dataflow — resources add up across layers.
    let sh = baselines::scalehls_like(&f, &opts, 512);
    let sum_dsp = sh.compiled.qor.resources.dsp;
    println!("\n=== ScaleHLS (dataflow) ===");
    println!(
        "accumulated DSP under dataflow: {} (sum over layers; each layer starved)",
        sum_dsp
    );
    println!(
        "ScaleHLS total latency: {} cycles ({:.1}x speedup)",
        sh.compiled.qor.latency,
        sh.compiled.qor.speedup_over(&base.qor)
    );

    let ratio = pom.compiled.qor.speedup_over(&base.qor)
        / sh.compiled.qor.speedup_over(&base.qor).max(1e-9);
    println!("\nPOM / ScaleHLS speedup ratio: {ratio:.2}x");
}
