//! `pom-benchmark`: one ledger for compile time and design quality.
//! See `README.md` for the workloads, the metrics and how to read them;
//! `run.sh` builds this binary and passes its arguments through.

mod child;
mod metrics;
mod parent;
mod procfs;
mod protocol;
mod speed;
mod stats;
mod trace;
mod verify;
mod workloads;

use metrics::{END_TO_END, PER_LAYER};
use parent::{contract_json, render_table, run_workload, Mode, WorkloadResult};
use std::path::PathBuf;
use std::time::Instant;
use workloads::{workload, Workload, WORKLOADS};

const USAGE: &str = "\
usage: run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--quick]
       run.sh --repeat-check [--seed N] [--seconds S]
       run.sh --relock

  --workload NAME  one of table3_greedy, dnn_greedy, portfolio_sim, signoff,
                   store_rw (default: all five)
  --seed N         sets the request order and the initial memory of every
                   executed design (default 1)
  --seconds S      how long the timed passes of each workload run (default 15)
  --trace 0|1      print only the end-to-end (0) or only the per-layer (1)
                   metrics; 1 also writes benchmark/out/trace_<workload>.json.
                   With --workload, the last line is the result as JSON.
  --quick          one timed pass per workload and nothing else: no output
                   checks, design-quality or per-layer numbers
  --repeat-check   run everything twice; exit 1 if a timing moved by more than
                   its bound or a count or cycle value moved at all
  --relock         rewrite benchmark/inputs.lock from the current kernels";

/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 15.0;

struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    quick: bool,
    repeat_check: bool,
    relock: bool,
    /// `--child PHASE`: this process is one pass.
    child: Option<String>,
    dir: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: None,
        quick: false,
        repeat_check: false,
        relock: false,
        child: None,
        dir: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} expects a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                a.workload = Some(workload(name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => {
                a.seed = value()?
                    .parse()
                    .map_err(|_| "--seed expects a whole number")?
            }
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|_| "--seconds expects a number")?;
                if !(a.seconds >= 0.0 && a.seconds <= 150.0) {
                    return Err("--seconds must lie in 0..=150".into());
                }
            }
            "--trace" => {
                a.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace expects 0 or 1".into()),
                })
            }
            "--quick" => a.quick = true,
            "--repeat-check" => a.repeat_check = true,
            "--relock" => a.relock = true,
            "--child" => a.child = Some(value()?.clone()),
            "--dir" => a.dir = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

fn main() {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Some(phase) = &args.child {
        run_child(&args, phase, started);
        return;
    }
    if args.relock {
        let path = "benchmark/inputs.lock";
        match std::fs::write(path, workloads::render_lock()) {
            Ok(()) => println!("wrote {path}; rebuild to compile it in"),
            Err(e) => {
                eprintln!("cannot write {path}: {e} (run from the repository root)");
                std::process::exit(1);
            }
        }
        return;
    }
    if args.repeat_check {
        std::process::exit(repeat_check(&args));
    }

    let results = run_all(&args);
    let failed: usize = results.iter().map(|r| r.failed).sum();
    if let (Some(traced), [only]) = (args.trace, results.as_slice()) {
        // The driver's contract: the result line comes last.
        println!("{}", contract_json(only, traced));
    } else if failed > 0 {
        std::process::exit(1);
    }
}

fn run_child(args: &Args, phase: &str, started: Instant) {
    let Some(w) = args.workload else {
        eprintln!("--child needs --workload");
        std::process::exit(2);
    };
    let dir = args.dir.clone();
    let phase = match (phase, dir) {
        ("timed", _) => child::Phase::Timed,
        ("store", Some(d)) => child::Phase::Store(d),
        ("verify", Some(d)) => child::Phase::Verify(d),
        _ => {
            eprintln!("unknown child phase {phase}, or --dir missing");
            std::process::exit(2);
        }
    };
    child::run(w, args.seed, phase, started);
}

/// Runs the selected workloads and prints each one's part of the ledger.
fn run_all(args: &Args) -> Vec<WorkloadResult> {
    let selected: Vec<&'static Workload> = match args.workload {
        Some(w) => vec![w],
        None => WORKLOADS.iter().collect(),
    };
    let trace = if args.quick { Some(false) } else { args.trace };
    let mode = if args.quick {
        Mode::Quick
    } else {
        Mode::Full {
            seconds: args.seconds,
            trace_file: trace != Some(false),
        }
    };
    let mut results = Vec::new();
    for w in selected {
        let r = run_workload(w, args.seed, mode);
        print!("{}", r.report);
        if trace != Some(true) {
            println!("-- end-to-end --");
            print!("{}", render_table(&r, &END_TO_END));
        }
        if trace != Some(false) {
            println!("-- per layer (traced child) --");
            print!("{}", render_table(&r, &PER_LAYER));
        }
        println!();
        results.push(r);
    }
    results
}

/// `--repeat-check`: the same code measured twice must agree — timings
/// within their bound, everything counted exactly.
fn repeat_check(args: &Args) -> i32 {
    let (first, second) = (run_all(args), run_all(args));
    let mut bad = 0;
    for (a, b) in first.iter().zip(&second) {
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            let (x, y) = (a.metrics.get(m.name), b.metrics.get(m.name));
            let (x, y) = (x.copied().unwrap_or(0.0), y.copied().unwrap_or(0.0));
            let verdict = metrics::agree(m, x, y);
            if let Err(why) = &verdict {
                bad += 1;
                println!("DIFFERS {} {}: {x} vs {y} ({why})", a.name, m.name);
            }
        }
        if a.failed + b.failed > 0 {
            bad += 1;
            println!(
                "FAILED {}: {} and {} failure(s)",
                a.name, a.failed, b.failed
            );
        }
    }
    println!("repeat-check: {bad} disagreement(s)");
    i32::from(bad > 0)
}
