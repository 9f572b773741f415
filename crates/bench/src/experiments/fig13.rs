//! Fig. 13 — accumulated resource usage for the DNN workloads' critical
//! loops: POM executes layers sequentially with *resource reuse* (the
//! accumulated usage is a running max, and each layer gets high
//! parallelism), while ScaleHLS maps layers to a *dataflow* pipeline
//! whose resources add up, starving each layer.

use crate::experiments::common::{paper_options, Table};
use crate::kernels;
use pom::dse::search::stage2::group_compile;
use pom::dse::PhaseAccum;
use pom::{auto_dse, baselines, CompileOptions, Function};

/// Per-layer accumulated statistics.
#[derive(Clone, Debug)]
pub struct LayerPoint {
    /// Framework.
    pub framework: &'static str,
    /// Layer (critical-loop) index.
    pub layer: usize,
    /// This layer's DSP usage.
    pub layer_dsp: u64,
    /// Accumulated DSP usage up to this layer (max for POM's reuse, sum
    /// for ScaleHLS's dataflow).
    pub accumulated_dsp: u64,
    /// The layer's parallelism degree (tile product).
    pub parallelism: i64,
    /// Loop depth of the nest (6 for convolutions).
    pub depth: usize,
}

fn layer_points(
    f: &Function,
    opts: &CompileOptions,
    network_size: usize,
) -> (Vec<LayerPoint>, Vec<LayerPoint>) {
    // POM: auto-DSE, reuse composition. Per-layer resources are
    // recomputed on the stage-1-transformed function the groups were
    // planned on.
    let pom = auto_dse(f, opts).expect("DSE compiles");
    let stage1 = pom::dse::stage1::dependence_aware_transform(f, 8);
    let mut pom_points = Vec::new();
    let mut acc = 0u64;
    for (i, g) in pom.groups.iter().enumerate() {
        let (_, r) = group_compile(&stage1, g, opts, &PhaseAccum::default())
            .expect("group schedule compiles");
        acc = acc.max(r.dsp);
        pom_points.push(LayerPoint {
            framework: "POM",
            layer: i,
            layer_dsp: r.dsp,
            accumulated_dsp: acc,
            parallelism: g.parallelism(),
            depth: g.dims.len(),
        });
    }

    // ScaleHLS: dataflow composition.
    let sh = baselines::scalehls_like(f, opts, network_size);
    let mut sh_points = Vec::new();
    let mut acc = 0u64;
    for (i, g) in sh.groups.iter().enumerate() {
        let mut sh_opts = opts.clone();
        sh_opts.sharing = pom::hls::estimate::Sharing::Dataflow;
        // ScaleHLS's groups are planned on its fused/reordered function.
        let (_, r) = group_compile(&sh.prepared, g, &sh_opts, &PhaseAccum::default())
            .expect("group schedule compiles");
        acc += r.dsp;
        sh_points.push(LayerPoint {
            framework: "ScaleHLS",
            layer: i,
            layer_dsp: r.dsp,
            accumulated_dsp: acc,
            parallelism: g.parallelism(),
            depth: g.dims.len(),
        });
    }
    (pom_points, sh_points)
}

/// Runs both networks at the given scale.
pub fn results(scale: usize) -> Vec<(&'static str, Vec<LayerPoint>, Vec<LayerPoint>)> {
    let opts = paper_options();
    let mut out = Vec::new();
    for (name, f) in [
        ("VGG-16", kernels::vgg16(scale)),
        ("ResNet-18", kernels::resnet18(scale)),
    ] {
        let (p, s) = layer_points(&f, &opts, 512);
        out.push((name, p, s));
    }
    out
}

/// Renders the Fig. 13 reproduction.
pub fn run() -> String {
    let mut out = String::new();
    for (net, pom_pts, sh_pts) in results(1) {
        let mut t = Table::new(
            &format!("Fig. 13 — Accumulated DSP usage, {net} critical loops"),
            &[
                "Layer",
                "POM DSP",
                "POM accum (reuse)",
                "POM parallelism",
                "ScaleHLS DSP",
                "ScaleHLS accum (dataflow)",
                "ScaleHLS parallelism",
            ],
        );
        let n = pom_pts.len().max(sh_pts.len());
        for i in 0..n {
            let p = pom_pts.get(i);
            let s = sh_pts.get(i);
            t.row(&[
                i.to_string(),
                p.map(|x| x.layer_dsp.to_string()).unwrap_or_default(),
                p.map(|x| x.accumulated_dsp.to_string()).unwrap_or_default(),
                p.map(|x| x.parallelism.to_string()).unwrap_or_default(),
                s.map(|x| x.layer_dsp.to_string()).unwrap_or_default(),
                s.map(|x| x.accumulated_dsp.to_string()).unwrap_or_default(),
                s.map(|x| x.parallelism.to_string()).unwrap_or_default(),
            ]);
        }
        out.push_str(&t.render());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reuse_accumulates_flat_dataflow_accumulates_linearly() {
        let rows = results(1);
        for (net, pom_pts, sh_pts) in rows {
            let pom_final = pom_pts.last().unwrap().accumulated_dsp;
            let pom_max_layer = pom_pts.iter().map(|p| p.layer_dsp).max().unwrap();
            assert_eq!(
                pom_final, pom_max_layer,
                "{net}: POM accumulated = max layer (reuse)"
            );
            let sh_final = sh_pts.last().unwrap().accumulated_dsp;
            let sh_sum: u64 = sh_pts.iter().map(|p| p.layer_dsp).sum();
            assert_eq!(sh_final, sh_sum, "{net}: ScaleHLS accumulated = sum");
            // POM gives each conv layer more parallelism than ScaleHLS
            // could afford for its convs (copy/pool nests are excluded:
            // they consume no DSPs, so their unrolling is not the point).
            let pom_conv_par = pom_pts
                .iter()
                .filter(|p| p.depth >= 6)
                .map(|p| p.parallelism)
                .max()
                .unwrap();
            let sh_conv_par = sh_pts
                .iter()
                .filter(|p| p.depth >= 6)
                .map(|p| p.parallelism)
                .max()
                .unwrap();
            assert!(
                pom_conv_par >= sh_conv_par,
                "{net}: POM parallelism {pom_conv_par} vs ScaleHLS {sh_conv_par}"
            );
        }
    }
}
