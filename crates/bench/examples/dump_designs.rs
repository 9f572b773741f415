//! Dumps every design of the ledger's search workloads as text, one file
//! per input: schedule, groups, QoR, search counters, the winner's bank
//! verdicts (every loop's analysis and each array's minimal conflict-free
//! factors), its translation-validation certificates (every obligation's
//! text, passed ones included) and HLS C. The `signoff` mode dumps what
//! signing a finished design off computes instead, plus the same
//! certificates. A change that must not move a design
//! builds this in a parent checkout and in the working tree and
//! `diff -rq`s the two output directories; CI runs it twice and diffs
//! the runs (run-to-run and worker-interleaving determinism).
//!
//! ```text
//! cargo run --release -p pom-bench --example dump_designs -- <out-dir> greedy|portfolio|signoff
//! ```
//!
//! `greedy` is `table3_greedy` + `dnn_greedy` + resnet18 (77 inputs);
//! `portfolio` is `portfolio_sim` (5 inputs, `SearchMode::Portfolio` with
//! the dataflow sign-off); `signoff` is the six `signoff` inputs plus
//! the 14-kernel suite at size 32, each greedy-compiled and then signed
//! off: `{:#?}` of the simulation report (host time zeroed), the
//! dataflow plan, its co-simulation, the channel certificates, the
//! liveness report and certificates, the lint report, the memory checks
//! and the winner's certificates.

use pom::bank;
use pom::dse::{auto_dse_with, DseConfig, DseResult, SearchMode};
use pom::{CompileOptions, MemoryState};
use std::io::Write;

const TABLE3: [&str; 9] = [
    "gemm", "bicg", "gesummv", "2mm", "3mm", "jacobi1d", "jacobi2d", "heat1d", "seidel",
];
const SIZES: [usize; 8] = [32, 256, 40, 48, 56, 72, 80, 96];
const SIGNOFF: [(&str, usize); 6] = [
    ("gemm", 32),
    ("heat1d", 256),
    ("gaussian", 64),
    ("blur", 64),
    ("bicg", 96),
    ("heat1d", 48),
];
/// The memory seed of the sign-off executions.
const SEED: u64 = 7;

fn main() {
    let mut args = std::env::args().skip(1);
    let (Some(out), Some(mode)) = (args.next(), args.next()) else {
        eprintln!("usage: dump_designs <out-dir> greedy|portfolio|signoff");
        std::process::exit(2);
    };
    let mut cfg = DseConfig::default();
    let inputs: Vec<(&str, usize)> = match mode.as_str() {
        "greedy" => TABLE3
            .iter()
            .flat_map(|&k| SIZES.iter().map(move |&s| (k, s)))
            .chain([
                ("edge_detect", 64),
                ("gaussian", 64),
                ("blur", 64),
                ("vgg16", 64),
                ("resnet18", 64),
            ])
            .collect(),
        "portfolio" => {
            cfg.search = SearchMode::Portfolio;
            cfg.dataflow = true;
            vec![
                ("gemm", 24),
                ("bicg", 64),
                ("jacobi2d", 64),
                ("heat1d", 256),
                ("blur", 64),
            ]
        }
        "signoff" => {
            let mut inputs = SIGNOFF.to_vec();
            for &k in &pom_bench::serve::SUITE {
                if !inputs.contains(&(k, 32)) {
                    inputs.push((k, 32));
                }
            }
            inputs
        }
        _ => {
            eprintln!("unknown mode `{mode}` (greedy|portfolio|signoff)");
            std::process::exit(2);
        }
    };
    std::fs::create_dir_all(&out).expect("create the output directory");
    for (k, s) in inputs {
        let f = pom_bench::serve::kernel_by_name(k, s).expect("known kernel");
        let opts = CompileOptions::for_function(&f);
        let r = auto_dse_with(&f, &opts, &cfg).expect("DSE compiles");
        let mut w =
            std::fs::File::create(format!("{out}/{k}@{s}.{mode}.txt")).expect("create the dump");
        let text = if mode == "signoff" {
            signoff(&f, &r, &opts)
        } else {
            design(&r, &opts)
        };
        w.write_all(text.as_bytes()).expect("write the dump");
    }
}

/// The design: schedule, groups, QoR, counters, bank verdicts,
/// certificates, HLS C.
fn design(r: &DseResult, opts: &CompileOptions) -> String {
    let st = &r.stats;
    let affine = &r.compiled.affine;
    let timing = pom::hls::WriteTiming {
        model: &opts.model,
        deps: &r.compiled.deps,
    };
    let repairs: Vec<(&str, Option<Vec<i64>>)> = affine
        .memrefs
        .iter()
        .map(|m| {
            let ports = opts.model.ports_per_bank;
            let factors =
                bank::minimal_conflict_free_factors(affine, &m.name, ports, Some(&timing));
            (m.name.as_str(), factors)
        })
        .collect();
    format!(
        "== function\n{}\n== groups\n{:#?}\n== qor\n{:#?}\n== counts\ncerts {} passed {} estimated {} pruned {} repaired {}\n== bank\n{:#?}\n{:#?}\n== certificates\n{:#?}\n== hls_c\n{}\n",
        r.function,
        r.groups,
        r.compiled.qor,
        st.certificates_checked,
        st.certificates_passed,
        st.estimated,
        st.lint_pruned,
        st.bank_repaired,
        bank::analyze_timed(affine, &timing),
        repairs,
        pom::validate(&r.function),
        r.compiled.hls_c()
    )
}

/// What signing the design off computes, in the order the ledger's
/// sign-off sequence computes it.
fn signoff(src: &pom::Function, r: &DseResult, opts: &CompileOptions) -> String {
    let (f, c) = (&r.function, &r.compiled);
    let lint = pom::lint_report(f, c, opts);
    let live_certs = pom::live_report(&c.affine, SEED);
    let mut sim_memory = MemoryState::for_function_seeded(src, SEED);
    let mut sim = pom::simulate(&c.affine, &c.deps, &mut sim_memory, &opts.model);
    sim.sim_time = Default::default();
    let live = pom::analyze_liveness(&c.affine);
    let plan = pom::dataflow::partition(&c.affine);
    let initial = MemoryState::for_function_seeded(src, SEED);
    let channel_certs = pom::channel_certificates(&c.affine, &plan, &initial);
    let mut df_memory = MemoryState::for_function_seeded(src, SEED);
    let mut df = pom::simulate_dataflow(
        &c.affine,
        &c.deps,
        &plan.stages,
        &plan.channel_specs(),
        &mut df_memory,
        &opts.model,
    );
    for st in &mut df.stages {
        st.report.sim_time = Default::default();
    }
    let mut interpreted = MemoryState::for_function_seeded(src, SEED);
    pom::execute_func(&c.affine, &mut interpreted);
    format!(
        "== sim\n{sim:#?}\n== plan\n{plan:#?}\n== dataflow\n{df:#?}\n== channel_certs\n{channel_certs:#?}\n== live\n{live:#?}\n== live_certs\n{live_certs:#?}\n== lint\n{lint:#?}\n== memory\nsim {} dataflow {}\n== certificates\n{:#?}\n",
        sim_memory == interpreted,
        df_memory == interpreted,
        pom::validate(f),
    )
}
