//! `pomc` — the POM command-line driver.
//!
//! Compiles a built-in benchmark kernel through the full flow and prints
//! the requested artefact:
//!
//! ```text
//! pomc <kernel> [--size N] [--emit dsl|graph|ir|c|tb|report|schedule|lint|verify|sim|live|dataflow|cache]
//!               [--no-dse] [--dataflow] [--store DIR] [--store-max-bytes BYTES] [--daemon SOCKET]
//! pomc bench-dse [--size N] [--out PATH] [--ceiling SECS]
//! pomc bench-sim [--size N] [--out PATH]
//! pomc bench-dataflow [--size N] [--out PATH]
//! pomc bench-live [--size N] [--out PATH]
//! pomc bench-serve [--size N] [--repeat N] [--clients N] [--out PATH]
//! pomc verify-all [--size N] [--sample-every K] [--out PATH]
//! ```
//!
//! `--store DIR` backs the DSE cache with the persistent artifact store
//! rooted at `DIR` (shared across processes; see `pom_dse::store`), and
//! `--emit cache` prints the cache + store statistics of the run.
//! `--store-max-bytes BYTES` sweeps the store's shard down to the given
//! disk budget on open, oldest artifacts first (skipped when another
//! process holds the store open).
//! `--daemon SOCKET` sends the request to a running `pomd` instead of
//! compiling locally and prints the daemon's serving payload (schedule +
//! QoR + HLS C); other emit modes don't apply over the daemon.
//!
//! `bench-serve` replays the duplicate-heavy serving traffic mix against
//! cold-process, warm-store, and daemon configurations, writes
//! `BENCH_serve.json`, and exits nonzero when the warm-vs-cold speedup,
//! cross-process hit rate, or byte-identity gates fail.
//!
//! `--emit lint` runs the `pom-lint` diagnostics suite (POM001–POM010)
//! over the compiled design and exits nonzero when any error-severity
//! diagnostic fires. On multi-nest kernels the run includes a dataflow
//! co-simulation so the measured channel-pressure check (POM010) has
//! per-channel stall figures to judge.
//!
//! `--emit dataflow` partitions the compiled design into dataflow
//! stages (`pom-dataflow`), replays every channel-sizing certificate,
//! co-simulates the stage processes over bounded channels, and prints
//! the dataflow-vs-sequential cycle comparison. Exits nonzero on memory
//! divergence, deadlock, or a failed certificate. `--dataflow` turns on
//! the rate-matching DSE refinement (beam searches only) so the winner
//! is picked by simulated dataflow cycles. `bench-dataflow` runs the
//! audit over the whole 14-kernel suite and writes
//! `BENCH_dataflow.json`; it fails unless memory is bit-identical and
//! deadlock-free everywhere, every certificate replays, and the
//! dataflow winner strictly beats the sequential winner's simulated
//! cycles on vgg16 and resnet18 at an equal resource envelope.
//!
//! `--emit live` runs `pom-live`'s whole-function liveness analysis over
//! the compiled design: per-array live windows, contraction candidates
//! (each replayed through its certificate on the spot), flow-depth rows,
//! and dead stores. Exits nonzero on any dead store (POM008 is an error)
//! or failed contraction replay. `bench-live` runs the liveness audit
//! over the whole 14-kernel suite (seed + DSE schedules): every array's
//! static live bound must dominate the simulator's measured per-array
//! high-water occupancy, and every claimed contraction must replay
//! bit-identically; measurements are written to `LIVE_report.json`.
//!
//! `--emit verify` replays the schedule through `pom-verify`'s
//! translation validation and exits nonzero when any certificate is
//! rejected. `verify-all` runs the certificate sweep over the Table
//! III + Table V suite (winner + sampled candidate validation), writes
//! `VERIFY_certificates.json`, and exits nonzero on any rejection.
//!
//! `bench-dse` runs the Table III + Table V suite with the serial seed
//! profile and with the parallel + memoized search, checks the outputs
//! are identical, writes `BENCH_dse.json`, and exits nonzero when any
//! kernel's fast-mode DSE exceeds `--ceiling` seconds or diverges from
//! the serial search.
//!
//! `--emit sim` runs the cycle-approximate simulator (`pom-sim`) over
//! the compiled design and prints the measured cycle report next to the
//! analytical estimate. `bench-sim` runs the differential audit over
//! the whole 14-kernel suite (seed + DSE schedules): simulator memory
//! must match the affine interpreter bit for bit on every kernel, the
//! analytical latency must stay within ±15% of the simulated cycles on
//! the Table III and image kernels, every loop pom-bank certifies
//! conflict-free must simulate with zero port stalls, and the
//! measurements are written to `BENCH_sim.json`.
//!
//! Kernels: gemm, bicg, gesummv, 2mm, 3mm, jacobi1d, jacobi2d, heat1d,
//! seidel, edge_detect, gaussian, blur, vgg16, resnet18.

use pom::{
    auto_dse_with, baselines, ArtifactStore, CompileOptions, DseConfig, MemoryState, Pom,
    SearchMode,
};
use pom_bench::experiments::{
    bench_dataflow, bench_dse, bench_live, bench_poly, bench_serve, bench_sim, verify_suite,
};
use pom_bench::serve::kernel_by_name;

/// The artefacts `--emit` can produce, validated before any compilation.
const EMIT_MODES: &[&str] = &[
    "dsl", "graph", "ir", "c", "tb", "report", "schedule", "lint", "verify", "sim", "live",
    "dataflow", "cache",
];

const USAGE: &str = "usage: pomc <kernel> [--size N] [--emit dsl|graph|ir|c|tb|report|schedule|lint|verify|sim|live|dataflow|cache] [--search greedy|beam|portfolio] [--budget-ms MS] [--no-dse] [--dataflow] [--store DIR] [--store-max-bytes BYTES] [--daemon SOCKET]\n       pomc bench-dse [--size N] [--out PATH] [--ceiling SECS] [--beam]\n       pomc bench-poly [--iters N] [--out PATH] [--baseline PATH]\n       pomc bench-sim [--size N] [--out PATH]\n       pomc bench-dataflow [--size N] [--out PATH]\n       pomc bench-live [--size N] [--out PATH]\n       pomc bench-serve [--size N] [--repeat N] [--clients N] [--out PATH]\n       pomc verify-all [--size N] [--sample-every K] [--out PATH]";

fn bench_poly_main(args: &[String]) -> ! {
    let mut iters = 200usize;
    let mut out = "BENCH_poly.json".to_string();
    let mut baseline_path = "BENCH_poly_baseline.json".to_string();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--iters" => {
                iters = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| {
                        eprintln!("--iters expects a number");
                        std::process::exit(2);
                    });
                i += 2;
            }
            "--out" => {
                out = args.get(i + 1).cloned().unwrap_or_else(|| {
                    eprintln!("--out expects a path");
                    std::process::exit(2);
                });
                i += 2;
            }
            "--baseline" => {
                baseline_path = args.get(i + 1).cloned().unwrap_or_else(|| {
                    eprintln!("--baseline expects a path");
                    std::process::exit(2);
                });
                i += 2;
            }
            other => {
                eprintln!("unknown flag {other}\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    let report = bench_poly::run_suite(iters);
    print!("{}", bench_poly::render(&report));
    if let Err(e) = std::fs::write(&out, bench_poly::to_json(&report)) {
        eprintln!("failed to write {out}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out}");
    let baseline = match std::fs::read_to_string(&baseline_path) {
        Ok(text) => match bench_poly::parse_baseline(&text) {
            Some(b) => Some(b),
            None => {
                eprintln!("FAIL: {baseline_path} exists but does not parse");
                std::process::exit(1);
            }
        },
        Err(_) => {
            println!("no baseline at {baseline_path}; gating on floors only");
            None
        }
    };
    let fails = bench_poly::gate(&report, baseline.as_ref());
    for f in &fails {
        eprintln!("FAIL: {f}");
    }
    std::process::exit(if fails.is_empty() { 0 } else { 1 });
}

fn verify_all_main(args: &[String]) -> ! {
    let mut size = 32usize;
    let mut sample_every = 4usize;
    let mut out = "VERIFY_certificates.json".to_string();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--size" => {
                size = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| {
                        eprintln!("--size expects a number");
                        std::process::exit(2);
                    });
                i += 2;
            }
            "--sample-every" => {
                sample_every = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| {
                        eprintln!("--sample-every expects a number (0 disables sampling)");
                        std::process::exit(2);
                    });
                i += 2;
            }
            "--out" => {
                out = args.get(i + 1).cloned().unwrap_or_else(|| {
                    eprintln!("--out expects a path");
                    std::process::exit(2);
                });
                i += 2;
            }
            other => {
                eprintln!("unknown flag {other}\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    let report = verify_suite::run_suite(size, sample_every);
    print!("{}", verify_suite::render(&report));
    if let Err(e) = std::fs::write(&out, verify_suite::to_json(&report)) {
        eprintln!("failed to write {out}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out}");
    std::process::exit(if report.all_passed() { 0 } else { 1 });
}

fn bench_dse_main(args: &[String]) -> ! {
    let mut size = 64usize;
    let mut out = "BENCH_dse.json".to_string();
    let mut ceiling = f64::INFINITY;
    let mut beam = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--size" => {
                size = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| {
                        eprintln!("--size expects a number");
                        std::process::exit(2);
                    });
                i += 2;
            }
            "--out" => {
                out = args.get(i + 1).cloned().unwrap_or_else(|| {
                    eprintln!("--out expects a path");
                    std::process::exit(2);
                });
                i += 2;
            }
            "--ceiling" => {
                ceiling = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| {
                        eprintln!("--ceiling expects seconds");
                        std::process::exit(2);
                    });
                i += 2;
            }
            "--beam" => {
                beam = true;
                i += 1;
            }
            other => {
                eprintln!("unknown flag {other}\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    let report = bench_dse::run_suite(size);
    print!("{}", bench_dse::render(&report));
    let beam_report = beam.then(|| bench_dse::run_beam_suite(size));
    if let Some(b) = &beam_report {
        print!("{}", bench_dse::render_beam(b));
    }
    if let Err(e) = std::fs::write(
        &out,
        bench_dse::to_json_with_beam(&report, beam_report.as_ref()),
    ) {
        eprintln!("failed to write {out}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out}");
    let mut failed = false;
    for k in &report.rows {
        if !k.identical {
            eprintln!("FAIL: {} parallel search diverged from serial", k.kernel);
            failed = true;
        }
        if k.fast_s > ceiling {
            eprintln!(
                "FAIL: {} DSE took {:.3} s (> ceiling {:.3} s)",
                k.kernel, k.fast_s, ceiling
            );
            failed = true;
        }
    }
    if let Some(b) = &beam_report {
        // Beam gates: (a) the portfolio never regresses any kernel's
        // simulated QoR, (b) it strictly beats greedy somewhere, (c) the
        // anytime curves honor their strictly-decreasing contract.
        for k in &b.rows {
            if k.regression {
                eprintln!(
                    "FAIL: {} portfolio regressed vs greedy ({} > {} simulated cycles)",
                    k.kernel, k.beam_cycles, k.greedy_cycles
                );
                failed = true;
            }
            if !k.both_fit {
                eprintln!("FAIL: {} winner exceeds the device envelope", k.kernel);
                failed = true;
            }
            if !k.anytime_monotonic {
                eprintln!(
                    "FAIL: {} anytime curve is not strictly decreasing",
                    k.kernel
                );
                failed = true;
            }
        }
        if b.strict_wins == 0 {
            eprintln!("FAIL: portfolio strictly beat greedy on no kernel");
            failed = true;
        }
    }
    std::process::exit(if failed { 1 } else { 0 });
}

fn bench_serve_main(args: &[String]) -> ! {
    let mut size = 32usize;
    let mut repeat = 2usize;
    let mut clients = 4usize;
    let mut out = "BENCH_serve.json".to_string();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--size" => {
                size = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| {
                        eprintln!("--size expects a number");
                        std::process::exit(2);
                    });
                i += 2;
            }
            "--repeat" => {
                repeat = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| {
                        eprintln!("--repeat expects a number");
                        std::process::exit(2);
                    });
                i += 2;
            }
            "--clients" => {
                clients = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| {
                        eprintln!("--clients expects a number");
                        std::process::exit(2);
                    });
                i += 2;
            }
            "--out" => {
                out = args.get(i + 1).cloned().unwrap_or_else(|| {
                    eprintln!("--out expects a path");
                    std::process::exit(2);
                });
                i += 2;
            }
            other => {
                eprintln!("unknown flag {other}\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    let report = bench_serve::run(&bench_serve::traffic(size, repeat), clients);
    print!("{}", bench_serve::render(&report));
    if let Err(e) = std::fs::write(&out, bench_serve::to_json(&report)) {
        eprintln!("failed to write {out}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out}");
    let fails = bench_serve::gate(&report);
    for f in &fails {
        eprintln!("FAIL: {f}");
    }
    std::process::exit(if fails.is_empty() { 0 } else { 1 });
}

fn bench_sim_main(args: &[String]) -> ! {
    let mut size = 32usize;
    let mut out = "BENCH_sim.json".to_string();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--size" => {
                size = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| {
                        eprintln!("--size expects a number");
                        std::process::exit(2);
                    });
                i += 2;
            }
            "--out" => {
                out = args.get(i + 1).cloned().unwrap_or_else(|| {
                    eprintln!("--out expects a path");
                    std::process::exit(2);
                });
                i += 2;
            }
            other => {
                eprintln!("unknown flag {other}\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    let report = bench_sim::run_suite(size);
    print!("{}", bench_sim::render(&report));
    if let Err(e) = std::fs::write(&out, bench_sim::to_json(&report)) {
        eprintln!("failed to write {out}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out}");
    let fails = bench_sim::gate(&report);
    for f in &fails {
        eprintln!("FAIL: {f}");
    }
    std::process::exit(if fails.is_empty() { 0 } else { 1 });
}

fn bench_dataflow_main(args: &[String]) -> ! {
    let mut size = 64usize;
    let mut out = "BENCH_dataflow.json".to_string();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--size" => {
                size = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| {
                        eprintln!("--size expects a number");
                        std::process::exit(2);
                    });
                i += 2;
            }
            "--out" => {
                out = args.get(i + 1).cloned().unwrap_or_else(|| {
                    eprintln!("--out expects a path");
                    std::process::exit(2);
                });
                i += 2;
            }
            other => {
                eprintln!("unknown flag {other}\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    let report = bench_dataflow::run_suite(size);
    print!("{}", bench_dataflow::render(&report));
    if let Err(e) = std::fs::write(&out, bench_dataflow::to_json(&report)) {
        eprintln!("failed to write {out}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out}");
    let fails = bench_dataflow::gate(&report);
    for f in &fails {
        eprintln!("FAIL: {f}");
    }
    std::process::exit(if fails.is_empty() { 0 } else { 1 });
}

fn bench_live_main(args: &[String]) -> ! {
    let mut size = 32usize;
    let mut out = "LIVE_report.json".to_string();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--size" => {
                size = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| {
                        eprintln!("--size expects a number");
                        std::process::exit(2);
                    });
                i += 2;
            }
            "--out" => {
                out = args.get(i + 1).cloned().unwrap_or_else(|| {
                    eprintln!("--out expects a path");
                    std::process::exit(2);
                });
                i += 2;
            }
            other => {
                eprintln!("unknown flag {other}\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    let report = bench_live::run_suite(size);
    print!("{}", bench_live::render(&report));
    if let Err(e) = std::fs::write(&out, bench_live::to_json(&report)) {
        eprintln!("failed to write {out}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out}");
    let fails = bench_live::gate(&report);
    for f in &fails {
        eprintln!("FAIL: {f}");
    }
    std::process::exit(if fails.is_empty() { 0 } else { 1 });
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(kernel) = args.first().filter(|a| !a.starts_with("--")) else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    if kernel == "bench-dse" {
        bench_dse_main(&args[1..]);
    }
    if kernel == "bench-live" {
        bench_live_main(&args[1..]);
    }
    if kernel == "bench-poly" {
        bench_poly_main(&args[1..]);
    }
    if kernel == "bench-sim" {
        bench_sim_main(&args[1..]);
    }
    if kernel == "bench-dataflow" {
        bench_dataflow_main(&args[1..]);
    }
    if kernel == "bench-serve" {
        bench_serve_main(&args[1..]);
    }
    if kernel == "verify-all" {
        verify_all_main(&args[1..]);
    }
    let mut size = 256usize;
    let mut emit = "report".to_string();
    let mut use_dse = true;
    let mut dataflow = false;
    let mut search = "greedy".to_string();
    let mut budget_ms: Option<u64> = None;
    let mut store: Option<std::path::PathBuf> = None;
    let mut store_max_bytes: Option<u64> = None;
    let mut daemon: Option<std::path::PathBuf> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--size" => {
                size = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| {
                        eprintln!("--size expects a number");
                        std::process::exit(2);
                    });
                i += 2;
            }
            "--emit" => {
                emit = args.get(i + 1).cloned().unwrap_or_else(|| {
                    eprintln!("--emit expects a mode: {}", EMIT_MODES.join("|"));
                    std::process::exit(2);
                });
                i += 2;
            }
            "--no-dse" => {
                use_dse = false;
                i += 1;
            }
            "--dataflow" => {
                dataflow = true;
                i += 1;
            }
            "--search" => {
                search = args.get(i + 1).cloned().unwrap_or_else(|| {
                    eprintln!("--search expects a mode: {}", SearchMode::MODES.join("|"));
                    std::process::exit(2);
                });
                i += 2;
            }
            "--budget-ms" => {
                budget_ms = args.get(i + 1).and_then(|v| v.parse().ok());
                if budget_ms.is_none() {
                    eprintln!("--budget-ms expects a millisecond count");
                    std::process::exit(2);
                }
                i += 2;
            }
            "--store" => {
                store = args.get(i + 1).map(std::path::PathBuf::from);
                if store.is_none() {
                    eprintln!("--store expects a directory");
                    std::process::exit(2);
                }
                i += 2;
            }
            "--store-max-bytes" => {
                store_max_bytes = args.get(i + 1).and_then(|v| v.parse().ok());
                if store_max_bytes.is_none() {
                    eprintln!("--store-max-bytes expects a byte count");
                    std::process::exit(2);
                }
                i += 2;
            }
            "--daemon" => {
                daemon = args.get(i + 1).map(std::path::PathBuf::from);
                if daemon.is_none() {
                    eprintln!("--daemon expects a socket path");
                    std::process::exit(2);
                }
                i += 2;
            }
            other => {
                eprintln!("unknown flag {other}\n{USAGE}");
                std::process::exit(2);
            }
        }
    }

    // Daemon mode: hand the request to a running pomd and print its
    // serving payload (schedule + QoR + HLS C) — no local compile.
    if let Some(socket) = daemon {
        match pom_bench::serve::client_request(&socket, &format!("compile {kernel} {size}")) {
            Ok(Ok(payload)) => {
                print!("{payload}");
                std::process::exit(0);
            }
            Ok(Err(msg)) => {
                eprintln!("pomd: {msg}");
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("cannot reach pomd at {}: {e}", socket.display());
                std::process::exit(1);
            }
        }
    }

    // Validate the emit mode *before* compiling anything: a typo should
    // fail fast, not after a full DSE run.
    if !EMIT_MODES.contains(&emit.as_str()) {
        eprintln!(
            "unknown --emit {emit}; valid modes: {}\n{USAGE}",
            EMIT_MODES.join(", ")
        );
        std::process::exit(2);
    }

    if emit == "cache" && !use_dse {
        eprintln!("--emit cache reports the DSE cache; it cannot be combined with --no-dse");
        std::process::exit(2);
    }

    // Same fail-fast contract for the search flags: a bad mode name or a
    // meaningless budget is a usage error, caught before any compilation.
    let Some(search) = SearchMode::parse(&search) else {
        eprintln!(
            "unknown --search {search}; valid modes: {}\n{USAGE}",
            SearchMode::MODES.join(", ")
        );
        std::process::exit(2);
    };
    if budget_ms == Some(0) {
        eprintln!("--budget-ms expects a positive budget (0 would return the untuned seed)");
        std::process::exit(2);
    }
    if budget_ms.is_some() && search == SearchMode::Greedy {
        eprintln!("--budget-ms only applies to the beam searches; pass --search beam|portfolio");
        std::process::exit(2);
    }
    if search != SearchMode::Greedy && !use_dse {
        eprintln!("--search {search} runs inside the DSE; it cannot be combined with --no-dse");
        std::process::exit(2);
    }
    if dataflow && !use_dse {
        eprintln!("--dataflow runs inside the DSE; it cannot be combined with --no-dse");
        std::process::exit(2);
    }
    if dataflow && search == SearchMode::Greedy {
        eprintln!(
            "--dataflow rate-matching rides on the bounded searches; pass --search beam|portfolio"
        );
        std::process::exit(2);
    }

    let Some(f) = kernel_by_name(kernel, size) else {
        eprintln!("unknown kernel {kernel}\n{USAGE}");
        std::process::exit(2);
    };

    let driver = Pom::new();
    let opts = CompileOptions::default();
    let cfg = DseConfig {
        store: store.clone(),
        store_max_bytes,
        search,
        budget_ms,
        dataflow,
        ..DseConfig::default()
    };
    let dse = if use_dse {
        match auto_dse_with(&f, &opts, &cfg) {
            Ok(r) => Some(r),
            Err(e) => {
                eprintln!("DSE failed: {e}");
                std::process::exit(1);
            }
        }
    } else {
        None
    };
    let scheduled = dse
        .as_ref()
        .map(|r| r.function.clone())
        .unwrap_or_else(|| f.clone());

    match emit.as_str() {
        "dsl" => println!("{f}"),
        "schedule" => {
            for p in scheduled.schedule() {
                println!("{p};");
            }
        }
        "graph" => println!("{}", driver.analyze(&f)),
        "ir" => println!("{}", driver.compile(&scheduled).affine),
        "c" => println!("{}", driver.compile(&scheduled).hls_c()),
        "tb" => println!("{}", driver.testbench(&scheduled, 42)),
        "report" => {
            let base = baselines::baseline_compiled(&f, &opts);
            let report = driver.report(&scheduled);
            println!("{}", report.render());
            println!(
                "Speedup over unoptimized baseline: {:.1}x",
                report.qor.speedup_over(&base.qor)
            );
            if let Some(r) = &dse {
                if search != SearchMode::Greedy {
                    println!(
                        "Search ({search}): {} wave(s), {} expanded, {} simulated \
                         ({} band-pruned), winner {} simulated cycle(s){}",
                        r.stats.beam_depth,
                        r.stats.beam_expanded,
                        r.stats.sim_admitted,
                        r.stats.sim_pruned,
                        r.stats.sim_cycles,
                        if r.stats.budget_expired {
                            "; budget expired (anytime best-so-far)"
                        } else {
                            ""
                        }
                    );
                }
            }
        }
        "lint" => {
            let report = driver.lint(&scheduled);
            println!("{}", report.render(scheduled.name()));
            if let Some(r) = &dse {
                println!(
                    "DSE: {} candidate(s) estimated, {} lint-pruned before estimation",
                    r.stats.estimated, r.stats.lint_pruned
                );
                println!(
                    "DSE cache: {} hit(s), {} miss(es); {} candidate(s) evaluated in parallel",
                    r.stats.cache_hits, r.stats.cache_misses, r.stats.parallel_evaluated
                );
                println!(
                    "DSE phases: stage1 {:.3} s, stage2 {:.3} s (lowering {:.3} s, estimation {:.3} s)",
                    r.stats.stage1_time.as_secs_f64(),
                    r.stats.stage2_time.as_secs_f64(),
                    r.stats.lowering_time.as_secs_f64(),
                    r.stats.estimation_time.as_secs_f64()
                );
                println!("DSE poly kernel: {}", r.stats.poly);
            }
            if report.has_errors() {
                std::process::exit(1);
            }
        }
        "verify" => {
            let report = driver.verify(&scheduled);
            print!("{}", report.render());
            if let Some(r) = &dse {
                println!(
                    "DSE validation: {} certificate(s) checked ({} passed, {} sampled \
                     candidates), {} value-range fixpoint iteration(s)",
                    r.stats.certificates_checked,
                    r.stats.certificates_passed,
                    r.stats.certificates_sampled,
                    r.stats.range_iterations
                );
            }
            if !report.passed() {
                std::process::exit(1);
            }
        }
        "sim" => {
            let compiled = driver.compile(&scheduled);
            let mut interp_mem = MemoryState::for_function_seeded(&scheduled, 42);
            pom::execute_func(&compiled.affine, &mut interp_mem);
            let mut sim_mem = MemoryState::for_function_seeded(&scheduled, 42);
            let report = pom::simulate(
                &compiled.affine,
                &compiled.deps,
                &mut sim_mem,
                &driver.options.model,
            );
            print!("{}", report.render());
            println!(
                "estimated cycles: {} ({:.3}x the simulated {})",
                compiled.qor.latency,
                compiled.qor.latency as f64 / report.cycles.max(1) as f64,
                report.cycles
            );
            println!(
                "memory vs interpreter: {}",
                if sim_mem == interp_mem {
                    "bit-identical"
                } else {
                    "DIVERGED"
                }
            );
            if let Some(r) = &dse {
                if search != SearchMode::Greedy {
                    println!(
                        "DSE {search} search: {} wave(s), width {}, {} state(s) expanded",
                        r.stats.beam_depth, r.stats.beam_width, r.stats.beam_expanded
                    );
                    println!(
                        "DSE sim admission: {} state(s) simulated, {} pruned by the \
                         admission band, {:.3} s in the simulator{}",
                        r.stats.sim_admitted,
                        r.stats.sim_pruned,
                        r.stats.sim_time.as_secs_f64(),
                        if r.stats.budget_expired {
                            " (budget expired: anytime best-so-far)"
                        } else {
                            ""
                        }
                    );
                    println!(
                        "DSE winner (simulated): {} cycle(s) (dep {}, port {}, drain {}; \
                         {} port conflict(s))",
                        r.stats.sim_cycles,
                        r.stats.sim_stall_dep,
                        r.stats.sim_stall_port,
                        r.stats.sim_stall_drain,
                        r.stats.sim_port_conflicts
                    );
                }
            }
            if sim_mem != interp_mem {
                std::process::exit(1);
            }
        }
        "dataflow" => {
            let compiled = driver.compile(&scheduled);
            let live = pom::live::analyze_func(&compiled.affine);
            let plan = pom::partition_dataflow(&scheduled, &compiled.affine, &live);
            print!("{}", plan.render());
            // Replay every channel-sizing certificate on the spot: the
            // printed depths are never a static-only claim.
            let mem0 = pom::seeded_memory(&compiled.affine, 42);
            let certs = pom::channel_certificates(&compiled.affine, &plan, &mem0);
            let mut cert_failed = false;
            for c in &certs {
                for o in &c.obligations {
                    let ok = o.status == pom::verify::ObligationStatus::Passed;
                    cert_failed |= !ok;
                    println!(
                        "certificate {}: {} — {}",
                        if ok { "passed" } else { "FAILED" },
                        c.rewrite,
                        o.detail
                    );
                }
            }
            let mut df_mem = pom::seeded_memory(&compiled.affine, 42);
            let report = pom::simulate_dataflow(
                &compiled.affine,
                &compiled.deps,
                &plan.stages,
                &plan.channel_specs(),
                &mut df_mem,
                &driver.options.model,
            );
            print!("{}", report.render());
            let mut seq_mem = pom::seeded_memory(&compiled.affine, 42);
            let seq = pom::simulate(
                &compiled.affine,
                &compiled.deps,
                &mut seq_mem,
                &driver.options.model,
            );
            println!(
                "sequential cycles: {} ({:.3}x the dataflow {})",
                seq.cycles,
                seq.cycles as f64 / report.cycles.max(1) as f64,
                report.cycles
            );
            let mut interp_mem = pom::seeded_memory(&compiled.affine, 42);
            pom::execute_func(&compiled.affine, &mut interp_mem);
            println!(
                "memory vs interpreter: {}",
                if df_mem == interp_mem {
                    "bit-identical"
                } else {
                    "DIVERGED"
                }
            );
            if let Some(r) = &dse {
                if dataflow {
                    println!(
                        "DSE dataflow: {} rate-matching round(s) over {} stage(s) and \
                         {} channel(s), winner {} dataflow cycle(s) vs {} sequential, \
                         {:.3} s refining",
                        r.stats.dataflow_rounds,
                        r.stats.dataflow_stages,
                        r.stats.dataflow_channels,
                        r.stats.dataflow_cycles,
                        r.stats.dataflow_seq_cycles,
                        r.stats.dataflow_time.as_secs_f64()
                    );
                }
            }
            if df_mem != interp_mem || report.deadlock || cert_failed {
                std::process::exit(1);
            }
        }
        "live" => {
            let compiled = driver.compile(&scheduled);
            let report = pom::live::analyze_func(&compiled.affine);
            print!("{}", pom::live::render(&report));
            // Replay every claimed contraction's certificate on the spot:
            // the printed windows are never a static-only claim.
            let contractible: Vec<_> = report.arrays.iter().filter(|a| a.contracted()).collect();
            if !contractible.is_empty() {
                let mem0 = pom::seeded_memory(&compiled.affine, 42);
                for al in contractible {
                    match pom::replay_contraction(&compiled.affine, &mem0, &al.array, &al.windows)
                    {
                        Ok(stores) => println!(
                            "contraction `{}` -> [{}]: certificate passed ({stores} store(s) replayed)",
                            al.array,
                            al.windows
                                .iter()
                                .map(i64::to_string)
                                .collect::<Vec<_>>()
                                .join("x"),
                        ),
                        Err(e) => {
                            eprintln!("contraction `{}` FAILED replay: {e}", al.array);
                            std::process::exit(1);
                        }
                    }
                }
            }
            if !report.dead_stores.is_empty() {
                eprintln!(
                    "{} dead store(s) found (POM008 is error-severity)",
                    report.dead_stores.len()
                );
                std::process::exit(1);
            }
        }
        "cache" => {
            let r = dse.as_ref().expect("--emit cache implies DSE");
            let s = &r.stats;
            let looked_up = s.cache_hits + s.cache_misses;
            let rate = if looked_up > 0 {
                s.cache_hits as f64 / looked_up as f64 * 100.0
            } else {
                0.0
            };
            println!(
                "cache: {} hit(s), {} miss(es) ({rate:.0}% hit rate), {} eviction(s), {} live entr(ies)",
                s.cache_hits, s.cache_misses, s.cache_evictions, s.cache_entries
            );
            match &store {
                Some(root) => {
                    println!(
                        "store: {} hit(s), {} miss(es), {} write(s) this run",
                        s.store_hits, s.store_misses, s.store_writes
                    );
                    // Re-open the shard to walk what is on disk now (the
                    // search's own handle is gone with its cache).
                    match ArtifactStore::open(root, &opts) {
                        Ok(st) => {
                            let usage = st.disk_usage();
                            let entries: usize = usage.values().map(|v| v.0).sum();
                            let bytes: u64 = usage.values().map(|v| v.1).sum();
                            println!(
                                "store-disk: {entries} artifact(s), {bytes} byte(s) in {}",
                                st.shard_dir().display()
                            );
                            for (kind, (count, kbytes)) in usage {
                                println!(
                                    "store-kind {kind}: {count} artifact(s), {kbytes} byte(s)"
                                );
                            }
                        }
                        Err(e) => println!("store-disk: unavailable ({e})"),
                    }
                }
                None => println!("store: none (pass --store DIR to persist the cache)"),
            }
        }
        other => unreachable!("--emit {other} was validated against EMIT_MODES"),
    }
}
