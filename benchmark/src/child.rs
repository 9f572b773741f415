//! One pass, run in a fresh child process: build the inputs, run every
//! request of the workload once in seeded order, print what happened as
//! `key value` lines for the parent (`protocol.rs` reads them back).
//!
//! A *timed* pass records nothing but per-request wall time, CPU time
//! and peak memory. The *verify* pass is the traced one: it wraps every
//! call into a layer in a span, replays each winner layer by layer, and
//! checks the outputs against references that are not the compiler.

use crate::procfs;
use crate::speed::SliceMeter;
use crate::trace::{self, Tracer};
use crate::verify::{self, Ledger};
use crate::workloads::{check_lock, requests, Input, Kind, Workload};
use pom::{
    auto_dse_with, auto_dse_with_cache, ArtifactStore, CompileOptions, DseCache, DseConfig,
    DseResult, DseStats, Function, SearchMode,
};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Which pass this child runs.
pub enum Phase {
    Timed,
    /// `store_rw`: a timed pass against the artifact store at this path —
    /// empty for the pass's first child, filled by it for the second.
    Store(PathBuf),
    /// Traced pass with layer replay and output checks; the path is a
    /// scratch directory for `store_rw`'s store.
    Verify(PathBuf),
}

/// A compiled design: the search result and the HLS C it emits.
pub struct Design {
    pub result: DseResult,
    pub hls_c: String,
}

pub fn dse_config(kind: Kind, store: Option<&Path>) -> DseConfig {
    match kind {
        Kind::Portfolio => DseConfig {
            search: SearchMode::Portfolio,
            dataflow: true,
            ..DseConfig::default()
        },
        Kind::Greedy | Kind::Signoff | Kind::StoreRw => DseConfig {
            store: store.map(Path::to_path_buf),
            ..DseConfig::default()
        },
    }
}

/// DSL → two-stage DSE → HLS C: what `pomc <kernel> --emit c` does.
pub fn compile(f: &Function, opts: &CompileOptions, cfg: &DseConfig) -> Result<Design, String> {
    finish(auto_dse_with(f, opts, cfg))
}

fn finish(result: Result<DseResult, pom::CompileError>) -> Result<Design, String> {
    let result = result.map_err(|e| e.to_string())?;
    let hls_c = result.compiled.hls_c();
    if hls_c.is_empty() {
        return Err("empty HLS C".into());
    }
    Ok(Design { result, hls_c })
}

/// Builds the pass's inputs and checks each against the lock; an input
/// that fails either is carried as the error its request will report.
fn build_inputs(w: &Workload, seed: u64, t: &mut Tracer) -> Vec<(Input, Result<Function, String>)> {
    requests(w, seed)
        .into_iter()
        .enumerate()
        .map(|(i, input)| {
            t.set_request(i);
            let built = t
                .span("dsl.build", |_| input.build())
                .ok_or_else(|| format!("unknown kernel {}", input.kernel))
                .and_then(|f| check_lock(&input, &f).map(|()| f));
            (input, built)
        })
        .collect()
}

fn print_request(input: &Input, wall_s: f64, outcome: &Result<(), String>) {
    match outcome {
        Ok(()) => println!("req {} ok {wall_s:.9}", input.label()),
        Err(e) => println!("req {} fail {wall_s:.9} {}", input.label(), one_line(e)),
    }
}

pub fn one_line(s: &str) -> String {
    s.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// Runs the pass; `started` is when this process entered `main`.
pub fn run(w: &Workload, seed: u64, phase: Phase, started: Instant) {
    match phase {
        Phase::Timed => timed_pass(w, seed, None, started),
        Phase::Store(dir) => timed_pass(w, seed, Some(&dir), started),
        Phase::Verify(scratch) => verify_pass(w, seed, &scratch),
    }
    println!("rss_kb {}", procfs::peak_rss_kb());
    println!("done");
}

fn timed_pass(w: &Workload, seed: u64, store: Option<&Path>, started: Instant) {
    let mut t = Tracer::new(false);
    let opts = CompileOptions::default();
    let inputs = build_inputs(w, seed, &mut t);
    let cfg = dse_config(w.kind, store);
    // Sign-off requests start from a finished design; producing it is
    // preparation, so it lands in `setup_s`, not in the timed region.
    let designs: Vec<Option<Design>> = inputs
        .iter()
        .map(|(_, f)| match (w.kind, f) {
            (Kind::Signoff, Ok(f)) => compile(f, &opts, &cfg).ok(),
            _ => None,
        })
        .collect();
    println!("setup_s {:.9}", started.elapsed().as_secs_f64());

    let mut speed = SliceMeter::new();
    let cpu_before = procfs::cpu_seconds();
    for ((input, source), design) in inputs.iter().zip(&designs) {
        speed.tick();
        let start = Instant::now();
        // What the request made outlives the clock reading: freeing it is
        // not part of the request (the traced pass keeps its winners, too).
        let (mut compiled, mut signed_off) = (None, None);
        let outcome = match (source, w.kind, design) {
            (Err(e), _, _) => Err(e.clone()),
            (Ok(f), Kind::Signoff, Some(d)) => {
                let s = signed_off.insert(verify::signoff(f, d, &opts, seed, &mut t));
                s.verdict()
            }
            (Ok(_), Kind::Signoff, None) => Err("the design did not compile".into()),
            (Ok(f), _, _) => compile(f, &opts, &cfg).map(|d| compiled = Some(d)),
        };
        print_request(input, start.elapsed().as_secs_f64(), &outcome);
        black_box((compiled, signed_off));
    }
    speed.tick();
    // The slices ran inside the region the CPU clock covered.
    println!(
        "cpu_s {:.4}",
        procfs::cpu_seconds() - cpu_before - speed.spent()
    );
    println!("speed {:.9}", speed.scale());
}

/// One input's way through the traced pass.
struct Slot {
    input: Input,
    source: Result<Function, String>,
    /// The winner phase B replays (for `store_rw`, the warm one).
    design: Option<Design>,
    /// `store_rw`: the winner of the cold compile.
    cold: Option<Design>,
    /// `signoff`: the request's own reports, which phase B then reuses.
    signoff: Option<verify::Signoff>,
}

/// `store_rw`'s request with the store handle kept: `auto_dse_with` opens
/// the store itself and drops it; doing its two steps here keeps the
/// handle, whose counters the ledger reports.
fn store_request(
    f: &Function,
    opts: &CompileOptions,
    root: &Path,
    t: &mut Tracer,
) -> (Result<Design, String>, Option<Arc<ArtifactStore>>) {
    let store = t
        .span("store.open", |_| ArtifactStore::open(root, opts))
        .map(Arc::new);
    let cache = match &store {
        Ok(s) => DseCache::with_store(Arc::clone(s)),
        Err(_) => DseCache::new(),
    };
    let cfg = dse_config(Kind::StoreRw, None);
    let design = t.span("dse.auto_dse", |_| {
        finish(auto_dse_with_cache(f, opts, &cfg, &cache))
    });
    (design, store.ok())
}

/// The traced pass. Phase A runs the workload's requests exactly as a
/// timed pass does, under spans; phase B replays every winner through
/// the layers one call at a time and checks it. All of phase A comes
/// first so that B's replays cannot warm the process-wide memos A's
/// requests would otherwise have paid for.
fn verify_pass(w: &Workload, seed: u64, scratch: &Path) {
    let mut t = Tracer::new(true);
    let mut ledger = Ledger::default();
    let opts = CompileOptions::default();
    let cfg = dse_config(w.kind, None);
    let mut slots: Vec<Slot> = build_inputs(w, seed, &mut t)
        .into_iter()
        .map(|(input, source)| Slot {
            input,
            source,
            design: None,
            cold: None,
            signoff: None,
        })
        .collect();
    let n = slots.len();
    if w.kind == Kind::Signoff {
        for (i, slot) in slots.iter_mut().enumerate() {
            t.set_request(i);
            if let Ok(f) = &slot.source {
                slot.design = t.span("setup.dse", |_| compile(f, &opts, &cfg)).ok();
            }
        }
    }

    let mut stores: Vec<Arc<ArtifactStore>> = Vec::new();
    let mut speed = SliceMeter::new();
    let poly_before = pom::poly::PolyStats::snapshot();
    let phases: &[&str] = match w.kind {
        Kind::StoreRw => &["store.cold", "store.warm"],
        _ => &["request"],
    };
    for (p, phase) in phases.iter().enumerate() {
        for (i, slot) in slots.iter_mut().enumerate() {
            t.set_request(p * n + i);
            speed.tick();
            let start = Instant::now();
            let outcome = match &slot.source {
                Err(e) => Err(e.clone()),
                Ok(f) => t.span("request", |t| match w.kind {
                    Kind::Greedy | Kind::Portfolio => {
                        let d = t.span("dse.auto_dse", |_| compile(f, &opts, &cfg))?;
                        add_dse_stats(&mut ledger, &d.result.stats);
                        slot.design = Some(d);
                        Ok(())
                    }
                    Kind::Signoff => {
                        let d = slot.design.as_ref().ok_or("the design did not compile")?;
                        let s = verify::signoff(f, d, &opts, seed, t);
                        let verdict = s.verdict();
                        slot.signoff = Some(s);
                        verdict
                    }
                    Kind::StoreRw => {
                        let (d, store) = t.span(phase, |t| store_request(f, &opts, scratch, t));
                        stores.extend(store);
                        let d = d?;
                        add_dse_stats(&mut ledger, &d.result.stats);
                        *(if p == 0 {
                            &mut slot.cold
                        } else {
                            &mut slot.design
                        }) = Some(d);
                        Ok(())
                    }
                }),
            };
            print_request(&slot.input, start.elapsed().as_secs_f64(), &outcome);
        }
    }
    let poly = pom::poly::PolyStats::snapshot().delta(&poly_before);
    ledger.add("poly.fm_eliminations", poly.eliminations as f64);
    ledger.add("poly.fm_combinations", poly.combinations_generated as f64);
    ledger.add("poly.memo_hits", poly.memo_hits as f64);
    ledger.add(
        "poly.memo_lookups",
        (poly.memo_hits + poly.memo_misses) as f64,
    );
    ledger.max("poly.peak_constraints", poly.peak_constraints as f64);
    ledger.add(
        "bench.traced_request_s",
        trace::total_by_name(&t.spans, "request"),
    );
    if let Some(last) = stores.last() {
        let usage = last.disk_usage();
        ledger.add("store.artifacts", usage.values().map(|v| v.0 as f64).sum());
    }
    for s in stores.drain(..) {
        ledger.add("store.bytes_written", s.bytes_written() as f64);
        ledger.add("store.load_errors", s.load_errors() as f64);
        ledger.add("store.write_errors", s.write_errors() as f64);
    }

    for (i, slot) in slots.iter_mut().enumerate() {
        t.set_request(i);
        speed.tick();
        let (Ok(f), Some(d)) = (&slot.source, &slot.design) else {
            let why = slot
                .source
                .as_ref()
                .err()
                .map_or("did not compile", String::as_str);
            ledger.check(&slot.input.label(), "compiles", false, why);
            continue;
        };
        t.span("replay", |t| {
            let prior = slot.signoff.take();
            verify::replay(w, &slot.input, f, d, prior, &opts, seed, t, &mut ledger);
            if w.kind == Kind::StoreRw {
                verify::store_agreement(
                    &slot.input,
                    f,
                    d,
                    slot.cold.as_ref(),
                    &opts,
                    t,
                    &mut ledger,
                );
            }
        });
    }
    ledger.finish(&t.spans);
    ledger.print();
    println!("speed {:.9}", speed.scale());
    for s in &t.spans {
        let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
        println!(
            "span {} {parent} {} {} {} {}",
            s.id, s.request, s.name, s.start_ns, s.end_ns
        );
    }
}

/// Sums the counters and reported phase times one search returned.
fn add_dse_stats(ledger: &mut Ledger, s: &DseStats) {
    ledger.add("dse.stage1_reported_s", s.stage1_time.as_secs_f64());
    ledger.add("dse.stage2_reported_s", s.stage2_time.as_secs_f64());
    ledger.add("dse.lowering_reported_s", s.lowering_time.as_secs_f64());
    ledger.add("dse.estimation_reported_s", s.estimation_time.as_secs_f64());
    ledger.add("dse.sim_reported_s", s.sim_time.as_secs_f64());
    ledger.add("dse.dataflow_reported_s", s.dataflow_time.as_secs_f64());
    ledger.add("dse.candidates_estimated", s.estimated as f64);
    ledger.add("dse.lint_pruned", s.lint_pruned as f64);
    ledger.add("dse.bank_repaired", s.bank_repaired as f64);
    ledger.add("dse.pipelines_run", s.cache_misses as f64);
    ledger.add("dse.parallel_evaluated", s.parallel_evaluated as f64);
    ledger.add("dse.certificates_checked", s.certificates_checked as f64);
    ledger.add("dse.beam_waves", s.beam_depth as f64);
    ledger.add("dse.beam_expanded", s.beam_expanded as f64);
    ledger.add("dse.sim_admitted", s.sim_admitted as f64);
    ledger.add("dse.sim_pruned", s.sim_pruned as f64);
    ledger.add("cache.hits", s.cache_hits as f64);
    ledger.add("cache.misses", s.cache_misses as f64);
    ledger.add("cache.entries", s.cache_entries as f64);
    ledger.add("cache.evictions", s.cache_evictions as f64);
    ledger.add("store.writes", s.store_writes as f64);
    ledger.add("store.hits", s.store_hits as f64);
    ledger.add("store.misses", s.store_misses as f64);
}
