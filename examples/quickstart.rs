//! Quickstart — the paper's running example (Figs. 4, 5, 6).
//!
//! Describes matrix multiplication in the POM DSL, applies the schedule
//! of Fig. 5/6 (tile 4×4, pipeline, unroll, partition), and prints the
//! generated HLS C plus the QoR estimate.
//!
//! Run with: `cargo run --example quickstart`

use pom::{DataType, Function, PartitionStyle, Pom};

fn main() {
    // Fig. 4: declare iterators, placeholders, and the compute.
    let mut f = Function::new("gemm");
    let i = f.var("i", 0, 32);
    let j = f.var("j", 0, 32);
    let k = f.var("k", 0, 32);
    let a = f.placeholder("A", &[32, 32], DataType::F32);
    let b = f.placeholder("B", &[32, 32], DataType::F32);
    let c = f.placeholder("C", &[32, 32], DataType::F32);
    f.compute(
        "s",
        &[k.clone(), i.clone(), j.clone()],
        a.at(&[&i, &j]) + b.at(&[&i, &k]) * c.at(&[&k, &j]),
        a.access(&[&i, &j]),
    );

    // Fig. 5: loop tiling. Fig. 6: hardware scheduling primitives.
    f.tile("s", "i", "j", 4, 4, "i0", "j0", "i1", "j1");
    f.pipeline("s", "j0", 1);
    f.unroll("s", "i1", 4);
    f.unroll("s", "j1", 4);
    f.partition("A", &[4, 4], PartitionStyle::Cyclic);
    f.partition("B", &[4, 1], PartitionStyle::Cyclic);
    f.partition("C", &[1, 4], PartitionStyle::Cyclic);

    println!("=== POM DSL ===\n{f}\n");

    let pom = Pom::new();
    let graph = pom.analyze(&f);
    println!("=== Dependence graph IR ===\n{graph}");

    let result = pom.codegen(&f).expect("the schedule compiles");
    println!(
        "=== Annotated affine dialect ===\n{}\n",
        result.compiled.affine
    );
    println!("=== Generated HLS C ===\n{}", result.hls_c);
    let q = &result.compiled.qor;
    println!("=== QoR estimate ===");
    println!("latency:  {} cycles", q.latency);
    println!(
        "speedup:  {:.1}x over the unoptimized baseline",
        result.speedup_over_baseline
    );
    println!("resources: {}", q.resources);
    println!("power:    {:.3} W", q.power);
    for l in &q.loops {
        println!(
            "pipelined loop %{}: II = {}, depth = {}, trip = {}",
            l.iv, l.achieved_ii, l.depth, l.trip
        );
    }
}
