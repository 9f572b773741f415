//! `pomc` — the POM command-line driver.
//!
//! `pomc <kernel>` compiles a built-in benchmark kernel (see
//! [`pom_bench::serve::SUITE`]) through the full flow and prints the
//! artefact `--emit` names; `pomc <audit>` runs one whole-suite audit of
//! the [`AUDITS`] table, prints its table, writes its JSON report and
//! exits 1 when its gate fails. Run `pomc` without arguments for the
//! usage text, which is generated from the same tables that parse the
//! flags. Bad usage exits 2 before anything is compiled.
//!
//! `--store DIR` backs the DSE cache with the persistent artifact store
//! rooted at `DIR` (shared across processes; see `pom_dse::store`);
//! `--store-max-bytes BYTES` sweeps its shard down to a disk budget on
//! open, oldest artifacts first. `--daemon SOCKET` sends the request to
//! a running `pomd` instead of compiling locally and prints the daemon's
//! serving payload (schedule + QoR + HLS C); other emit modes don't apply
//! over the daemon. `--search portfolio` runs the portfolio beam search
//! instead of the greedy descent. `--dataflow` turns on the
//! rate-matching DSE refinement under either search, so the winner is
//! picked by simulated dataflow cycles. The `lint`, `verify`, `sim`,
//! `live` and `dataflow` emit modes exit 1 on an error-severity
//! diagnostic, a rejected certificate, a memory divergence from the
//! interpreter, a dead store or failed contraction replay, and a
//! deadlock or failed channel certificate, respectively.

use pom::{
    auto_dse_with, baselines, ArtifactStore, CompileOptions, DepGraph, DseConfig, DseResult,
    Function, SearchMode, Signoff, SynthesisReport,
};
use pom_bench::cli::{self, FlagSpec, Flags, Kind};
use pom_bench::experiments::common::Report;
use pom_bench::experiments::{
    bench_dataflow, bench_dse, bench_live, bench_poly, bench_serve, bench_sim, verify_suite,
};
use pom_bench::serve::kernel_by_name;

/// The artefacts `--emit` can produce, validated before any compilation.
const EMIT_MODES: &str = "dsl|graph|ir|c|tb|report|schedule|lint|verify|sim|live|dataflow|cache";

/// The flags of `pomc <kernel>`.
const COMPILE_FLAGS: &[FlagSpec] = &[
    SIZE,
    FlagSpec::new("--emit", EMIT_MODES, Kind::Text),
    FlagSpec::new("--search", "greedy|portfolio", Kind::Text),
    FlagSpec::switch("--no-dse"),
    FlagSpec::switch("--dataflow"),
    FlagSpec::new("--store", "DIR", Kind::Text),
    FlagSpec::new("--store-max-bytes", "BYTES", Kind::Int),
    FlagSpec::new("--daemon", "SOCKET", Kind::Text),
];

const SIZE: FlagSpec = FlagSpec::new("--size", "N", Kind::Int);
const OUT: FlagSpec = FlagSpec::new("--out", "PATH", Kind::Text);

/// One whole-suite audit subcommand. Each audit's contract — what it
/// measures and what its gate means — is its module's `//!` header.
struct Audit {
    /// The subcommand.
    name: &'static str,
    /// One sentence for the usage text.
    about: &'static str,
    /// Where the JSON report goes without `--out`.
    out: &'static str,
    /// Accepted flags besides `--out`.
    flags: &'static [FlagSpec],
    /// Runs the audit and gates it: `Report::fails` decides the exit code.
    run: fn(&Flags) -> Report,
}

impl Audit {
    /// Every flag the audit accepts: its own, then `--out`.
    fn all_flags(&self) -> Vec<FlagSpec> {
        [self.flags, &[OUT]].concat()
    }
}

const AUDITS: &[Audit] = &[
    Audit {
        name: "bench-dse",
        about: "serial seed vs memoized DSE over the Table III + V suite; fails on a diverged or \
                over-ceiling search, with --beam also on a portfolio that regresses or never wins \
                (bench_dse)",
        out: "BENCH_dse.json",
        flags: &[
            SIZE,
            FlagSpec::new("--ceiling", "SECS", Kind::Float),
            FlagSpec::switch("--beam"),
        ],
        run: |f| {
            let size = f.int("--size").unwrap_or(64);
            let report = bench_dse::run_suite(size);
            let beam = f.has("--beam").then(|| bench_dse::run_beam_suite(size));
            let ceiling = f.float("--ceiling").unwrap_or(f64::INFINITY);
            bench_dse::report(&report, beam.as_ref(), ceiling)
        },
    },
    Audit {
        name: "bench-poly",
        about: "dense vs reference polyhedral kernel; fails under the 5x floors or off the \
                committed baseline's ratios and DSE fingerprints (bench_poly)",
        out: "BENCH_poly.json",
        flags: &[
            FlagSpec::new("--iters", "N", Kind::Int),
            FlagSpec::new("--baseline", "PATH", Kind::Text),
        ],
        run: |f| {
            let report = bench_poly::run_suite(f.int("--iters").unwrap_or(200));
            let path = f.text("--baseline").unwrap_or("BENCH_poly_baseline.json");
            let Ok(text) = std::fs::read_to_string(path) else {
                println!("no baseline at {path}; gating on floors only");
                return bench_poly::report(&report, None);
            };
            let baseline = bench_poly::parse_baseline(&text);
            let mut out = bench_poly::report(&report, baseline.as_ref());
            if baseline.is_none() {
                out.fails.push(format!("{path} exists but does not parse"));
            }
            out
        },
    },
    Audit {
        name: "bench-sim",
        about: "seed + DSE schedules of all 14 kernels through the simulator; fails on a memory \
                divergence, a gated estimate outside ±15%, or port stalls in a certified loop \
                (bench_sim)",
        out: "BENCH_sim.json",
        flags: &[SIZE],
        run: |f| bench_sim::report(&bench_sim::run_suite(f.int("--size").unwrap_or(32))),
    },
    Audit {
        name: "bench-dataflow",
        about: "dataflow vs sequential winners of all 14 kernels; fails on a divergence, deadlock \
                or failed channel certificate, or a DNN that does not win in-envelope \
                (bench_dataflow)",
        out: "BENCH_dataflow.json",
        flags: &[SIZE],
        run: |f| bench_dataflow::report(&bench_dataflow::run_suite(f.int("--size").unwrap_or(64))),
    },
    Audit {
        name: "bench-live",
        about: "static live windows vs simulated high-water on all 14 kernels; fails on a bound \
                below the measurement or a contraction that does not replay (bench_live)",
        out: "LIVE_report.json",
        flags: &[SIZE],
        run: |f| bench_live::report(&bench_live::run_suite(f.int("--size").unwrap_or(32))),
    },
    Audit {
        name: "bench-serve",
        about: "duplicate-heavy traffic against cold processes, a warm store and a daemon; fails \
                under 5x warm speedup, under 50% warm hits, or on diverging payloads (bench_serve)",
        out: "BENCH_serve.json",
        flags: &[
            SIZE,
            FlagSpec::new("--repeat", "N", Kind::Int),
            FlagSpec::new("--clients", "N", Kind::Int),
        ],
        run: |f| {
            bench_serve::report(&bench_serve::run_suite(
                f.int("--size").unwrap_or(32),
                f.int("--repeat").unwrap_or(2),
                f.int("--clients").unwrap_or(4),
            ))
        },
    },
    Audit {
        name: "verify-all",
        about: "certificate sweep over the Table III + V suite, winners plus every K-th \
                candidate (0 = winners only); fails on any rejection (verify_suite)",
        out: "VERIFY_certificates.json",
        flags: &[SIZE, FlagSpec::new("--sample-every", "K", Kind::Int)],
        run: |f| {
            verify_suite::report(&verify_suite::run_suite(
                f.int("--size").unwrap_or(32),
                f.int("--sample-every").unwrap_or(4),
            ))
        },
    },
];

/// The usage text: one line per command from the tables that parse
/// them, one sentence per audit.
fn usage() -> String {
    let mut text = cli::usage_line("usage: pomc <kernel>", COMPILE_FLAGS);
    for a in AUDITS {
        let head = format!("\n       pomc {}", a.name);
        text.push_str(&cli::usage_line(&head, &a.all_flags()));
    }
    for a in AUDITS {
        text.push_str(&format!(
            "\n{}: {}; default --out {}",
            a.name, a.about, a.out
        ));
    }
    text
}

/// Prints `why` and the usage text, exits 2.
fn usage_error(why: &str) -> ! {
    eprintln!("{why}\n{}", usage());
    std::process::exit(2);
}

/// Runs one audit: table to stdout, JSON to `--out`, one `FAIL:` line
/// per gate failure, exit 1 iff there is one.
fn run_audit(audit: &Audit, args: &[String]) -> ! {
    let specs = audit.all_flags();
    let flags = cli::parse(args, &specs).unwrap_or_else(|why| usage_error(&why));
    let report = (audit.run)(&flags);
    print!("{}", report.render());
    let out = flags.text("--out").unwrap_or(audit.out);
    if let Err(e) = std::fs::write(out, report.to_json()) {
        eprintln!("failed to write {out}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out}");
    for f in &report.fails {
        eprintln!("FAIL: {f}");
    }
    std::process::exit(if report.fails.is_empty() { 0 } else { 1 });
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(kernel) = args.first().filter(|a| !a.starts_with("--")) else {
        usage_error("expected a kernel or an audit name");
    };
    if let Some(audit) = AUDITS.iter().find(|a| a.name == kernel) {
        run_audit(audit, &args[1..]);
    }
    let flags = cli::parse(&args[1..], COMPILE_FLAGS).unwrap_or_else(|why| usage_error(&why));
    let size = flags.int("--size").unwrap_or(256);
    let emit = flags.text("--emit").unwrap_or("report");
    let use_dse = !flags.has("--no-dse");
    let dataflow = flags.has("--dataflow");
    let search = flags.text("--search").unwrap_or("greedy");
    let store = flags.text("--store").map(std::path::PathBuf::from);
    let store_max_bytes = flags.int("--store-max-bytes").map(|b| b as u64);
    let daemon = flags.text("--daemon").map(std::path::PathBuf::from);

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

    // Validate everything *before* compiling anything: a typo or a
    // meaningless combination should fail fast, not after a full DSE run.
    if !EMIT_MODES.split('|').any(|m| m == emit) {
        usage_error(&format!("unknown --emit {emit}"));
    }
    let Some(search) = SearchMode::parse(search) else {
        usage_error(&format!("unknown --search {search}"));
    };
    let greedy = search == SearchMode::Greedy;
    let misuse = [
        (
            emit == "cache" && !use_dse,
            "--emit cache reports the DSE cache; it cannot be combined with --no-dse",
        ),
        (
            !greedy && !use_dse,
            "--search portfolio runs inside the DSE; it cannot be combined with --no-dse",
        ),
        (
            dataflow && !use_dse,
            "--dataflow runs inside the DSE; it cannot be combined with --no-dse",
        ),
    ];
    if let Some((_, why)) = misuse.iter().find(|(bad, _)| *bad) {
        usage_error(why);
    }
    let Some(f) = kernel_by_name(kernel, size) else {
        usage_error(&format!("unknown kernel {kernel}"));
    };

    let opts = CompileOptions::default();
    let cfg = DseConfig {
        store: store.clone(),
        store_max_bytes,
        search,
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
    let scheduled = dse.as_ref().map_or(&f, |r| &r.function);

    match emit {
        "dsl" => println!("{f}"),
        "schedule" => {
            for p in scheduled.schedule() {
                println!("{p};");
            }
        }
        "graph" => println!("{}", DepGraph::build(&f)),
        "verify" => {
            let report = pom::validate(scheduled);
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
        _ => emit_design(emit, &f, dse.as_ref(), &opts, &cfg),
    }
}

/// The `--emit` modes that show the compiled design, all read from one
/// [`Signoff`] over the DSE winner's compilation (with `--no-dse`, the
/// one compile of the recorded schedule). Exits 1 when the design fails
/// the mode's check.
fn emit_design(
    emit: &str,
    f: &Function,
    dse: Option<&DseResult>,
    opts: &CompileOptions,
    cfg: &DseConfig,
) {
    let compiled;
    let signoff = match dse {
        Some(r) => Signoff::new(&r.function, &r.compiled, opts, 42),
        None => {
            compiled = pom::compile(f, opts).unwrap_or_else(|e| {
                eprintln!("compile failed: {e}");
                std::process::exit(1);
            });
            Signoff::new(f, &compiled, opts, 42)
        }
    };
    let c = signoff.compiled();
    let search = cfg.search;
    match emit {
        "ir" => println!("{}", c.affine),
        "c" => println!("{}", c.hls_c()),
        "tb" => println!("{}", pom::emit_testbench(&c.affine, 42)),
        "report" => {
            let base = baselines::baseline_compiled(f, opts);
            let report = SynthesisReport::generate(
                &c.affine,
                &c.deps,
                &opts.model,
                &opts.device,
                opts.sharing,
            );
            println!("{}", report.render());
            println!(
                "Speedup over unoptimized baseline: {:.1}x",
                report.qor.speedup_over(&base.qor)
            );
            if let Some(r) = dse {
                if search != SearchMode::Greedy {
                    println!(
                        "Search ({search}): {} wave(s), {} expanded, {} simulated \
                         ({} band-pruned), winner {} simulated cycle(s)",
                        r.stats.beam_depth,
                        r.stats.beam_expanded,
                        r.stats.sim_admitted,
                        r.stats.sim_pruned,
                        r.stats.sim_cycles
                    );
                }
            }
        }
        "lint" => {
            let report = signoff.lint();
            println!("{}", report.render(signoff.function().name()));
            if let Some(r) = dse {
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
        "sim" => {
            let (report, sim_mem) = signoff.sim();
            let identical = sim_mem == signoff.interpreted();
            print!("{}", report.render());
            println!(
                "estimated cycles: {} ({:.3}x the simulated {})",
                c.qor.latency,
                c.qor.latency as f64 / report.cycles.max(1) as f64,
                report.cycles
            );
            println!("memory vs interpreter: {}", verdict(identical));
            if let Some(r) = dse {
                if search != SearchMode::Greedy {
                    println!(
                        "DSE {search} search: {} wave(s), width {}, {} state(s) expanded",
                        r.stats.beam_depth, r.stats.beam_width, r.stats.beam_expanded
                    );
                    println!(
                        "DSE sim admission: {} state(s) simulated, {} pruned by the \
                         admission band, {:.3} s in the simulator",
                        r.stats.sim_admitted,
                        r.stats.sim_pruned,
                        r.stats.sim_time.as_secs_f64()
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
            if !identical {
                std::process::exit(1);
            }
        }
        "dataflow" => {
            print!("{}", signoff.plan().render());
            // Replay every channel-sizing certificate on the spot: the
            // printed depths are never a static-only claim.
            let mut cert_failed = false;
            for cert in signoff.channel_certificates() {
                for o in &cert.obligations {
                    let ok = o.status == pom::verify::ObligationStatus::Passed;
                    cert_failed |= !ok;
                    println!(
                        "certificate {}: {} — {}",
                        if ok { "passed" } else { "FAILED" },
                        cert.rewrite,
                        o.detail
                    );
                }
            }
            let (report, df_mem) = signoff.cosim();
            print!("{}", report.render());
            let seq = &signoff.sim().0;
            println!(
                "sequential cycles: {} ({:.3}x the dataflow {})",
                seq.cycles,
                seq.cycles as f64 / report.cycles.max(1) as f64,
                report.cycles
            );
            let identical = df_mem == signoff.interpreted();
            println!("memory vs interpreter: {}", verdict(identical));
            if let Some(r) = dse {
                if cfg.dataflow {
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
            if !identical || report.deadlock || cert_failed {
                std::process::exit(1);
            }
        }
        "live" => {
            let report = signoff.live();
            print!("{}", pom::live::render(report));
            // Replay every claimed contraction's certificate on the spot:
            // the printed windows are never a static-only claim.
            for al in report.arrays.iter().filter(|a| a.contracted()) {
                match pom::replay_contraction(&c.affine, signoff.memory(), &al.array, &al.windows) {
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
            if !report.dead_stores.is_empty() {
                eprintln!(
                    "{} dead store(s) found (POM008 is error-severity)",
                    report.dead_stores.len()
                );
                std::process::exit(1);
            }
        }
        other => unreachable!("--emit {other} was validated against EMIT_MODES"),
    }
}

/// How a simulation's final memory compares with the interpreter's.
fn verdict(identical: bool) -> &'static str {
    if identical {
        "bit-identical"
    } else {
        "DIVERGED"
    }
}
