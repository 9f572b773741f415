//! Dumps every design of the ledger's search workloads as text, one file
//! per input: schedule, groups, QoR, search counters, the winner's bank
//! verdicts (every loop's analysis and each array's minimal conflict-free
//! factors) and HLS C. A change that must not move a design builds this
//! in a parent checkout and in the working tree and `diff -rq`s the two
//! output directories; CI runs it twice and diffs the runs (run-to-run
//! and worker-interleaving determinism).
//!
//! ```text
//! cargo run --release -p pom-bench --example dump_designs -- <out-dir> greedy|portfolio
//! ```
//!
//! `greedy` is `table3_greedy` + `dnn_greedy` + resnet18 (77 inputs);
//! `portfolio` is `portfolio_sim` (5 inputs, `SearchMode::Portfolio` with
//! the dataflow refinement).

use pom::bank;
use pom::dse::{auto_dse_with, DseConfig, SearchMode};
use pom::CompileOptions;
use std::io::Write;

const TABLE3: [&str; 9] = [
    "gemm", "bicg", "gesummv", "2mm", "3mm", "jacobi1d", "jacobi2d", "heat1d", "seidel",
];
const SIZES: [usize; 8] = [32, 256, 40, 48, 56, 72, 80, 96];

fn main() {
    let mut args = std::env::args().skip(1);
    let (Some(out), Some(mode)) = (args.next(), args.next()) else {
        eprintln!("usage: dump_designs <out-dir> greedy|portfolio");
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
        _ => {
            eprintln!("unknown mode `{mode}` (greedy|portfolio)");
            std::process::exit(2);
        }
    };
    std::fs::create_dir_all(&out).expect("create the output directory");
    for (k, s) in inputs {
        let f = pom_bench::serve::kernel_by_name(k, s).expect("known kernel");
        let opts = CompileOptions::for_function(&f);
        let r = auto_dse_with(&f, &opts, &cfg).expect("DSE compiles");
        let st = &r.stats;
        let affine = &r.compiled.affine;
        let repairs: Vec<(&str, Option<Vec<i64>>)> = affine
            .memrefs
            .iter()
            .map(|m| {
                let ports = opts.model.ports_per_bank;
                let factors = bank::minimal_conflict_free_factors(affine, &m.name, ports);
                (m.name.as_str(), factors)
            })
            .collect();
        let mut w =
            std::fs::File::create(format!("{out}/{k}@{s}.{mode}.txt")).expect("create the dump");
        writeln!(
            w,
            "== function\n{}\n== groups\n{:#?}\n== qor\n{:#?}\n== counts\ncerts {} passed {} estimated {} pruned {} repaired {}\n== bank\n{:#?}\n{:#?}\n== hls_c\n{}",
            r.function,
            r.groups,
            r.compiled.qor,
            st.certificates_checked,
            st.certificates_passed,
            st.estimated,
            st.lint_pruned,
            st.bank_repaired,
            bank::analyze_func(affine),
            repairs,
            r.compiled.hls_c()
        )
        .expect("write the dump");
    }
}
