//! `bench-serve` — the heavy-traffic serving benchmark.
//!
//! Replays a synthetic duplicate-heavy request mix — every built-in
//! kernel plus the VGG-16 and ResNet-18 layer streams as standalone
//! `conv<ci>x<co>x<size>` kernels, repeated and deterministically
//! shuffled — against three serving configurations:
//!
//! * **cold** — a fresh, store-less engine per request: the per-process
//!   `pomc` status quo. Every duplicate pays the full DSE again.
//! * **warm** — a fresh engine per request, all sharing one persistent
//!   artifact store primed by an unmeasured pass: the `pomc --store`
//!   cross-process story. Every hit travels through the filesystem.
//! * **daemon** — a real `pomd` server on a Unix domain socket with its
//!   own cold store, hammered by concurrent clients: in-memory response
//!   cache + batch admission + store spill, end to end.
//!
//! Reports kernels/sec, end-to-end latency percentiles, and cache hit
//! rates per configuration into `BENCH_serve.json`, and gates on the
//! ISSUE floors: warm throughput ≥ 5x cold, warm cross-process hit rate
//! ≥ 50%, and byte-identical payloads for every unique request across
//! all three configurations.

use crate::experiments::common::{col, Column, Report};
use crate::kernels;
use crate::serve::{client_request, run_server, ServeEngine, SUITE};
use pom::{CompileOptions, DseConfig};
use pom_dse::run_indexed;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// One serving configuration's measurements.
#[derive(Clone, Debug, Default)]
pub struct ConfigStats {
    /// Configuration name: `cold`, `warm`, or `daemon`.
    pub config: &'static str,
    /// Requests replayed.
    pub requests: usize,
    /// Wall seconds for the whole replay.
    pub wall_s: f64,
    /// Throughput: `requests / wall_s`.
    pub kernels_per_s: f64,
    /// End-to-end latency percentiles, milliseconds.
    pub p50_ms: f64,
    /// 95th percentile latency.
    pub p95_ms: f64,
    /// 99th percentile latency.
    pub p99_ms: f64,
    /// Requests that ran a full DSE compile.
    pub compiles: usize,
    /// Requests answered from the persistent store (cross-process hits).
    pub store_hits: usize,
    /// Requests answered from an engine's in-memory response cache.
    pub memory_hits: usize,
    /// Requests that coalesced into another request's in-flight compile.
    pub batch_merged: usize,
    /// Fraction of requests answered without a fresh compile.
    pub hit_rate: f64,
}

/// The whole benchmark's measurements.
#[derive(Clone, Debug, Default)]
pub struct ServeReport {
    /// Per-configuration rows: cold, warm, daemon.
    pub rows: Vec<ConfigStats>,
    /// Distinct request fingerprints in the stream.
    pub unique_requests: usize,
    /// Total requests in the stream.
    pub total_requests: usize,
    /// `1 - unique/total` — how duplicate-heavy the traffic is.
    pub duplicate_fraction: f64,
    /// Warm throughput over cold throughput — the headline number.
    pub warm_speedup: f64,
    /// Daemon throughput over cold throughput.
    pub daemon_speedup: f64,
    /// Wall seconds of the unmeasured store-priming pass.
    pub prime_s: f64,
    /// Every unique request's payload is byte-identical across cold,
    /// warm, and daemon.
    pub identical: bool,
    /// Concurrent client threads used against the daemon.
    pub clients: usize,
}

/// The synthetic traffic mix: all 14 built-in kernels at `size` plus the
/// VGG-16 and ResNet-18 convolution layer streams (scale 1), the whole
/// set repeated `repeat` times and shuffled by a fixed-seed LCG — so the
/// stream is duplicate-heavy, interleaved, and identical on every run.
pub fn traffic(size: usize, repeat: usize) -> Vec<(String, usize)> {
    let mut stream = Vec::new();
    for _ in 0..repeat.max(1) {
        for k in SUITE {
            stream.push((k.to_string(), size));
        }
        for (ci, co, sz) in kernels::vgg16_layer_shapes(1) {
            stream.push((format!("conv{ci}x{co}x{sz}"), sz));
        }
        for (ci, co, sz) in kernels::resnet18_layer_shapes(1) {
            stream.push((format!("conv{ci}x{co}x{sz}"), sz));
        }
    }
    // Fisher–Yates with a fixed-seed LCG: deterministic, dependency-free.
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        state >> 33
    };
    for i in (1..stream.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        stream.swap(i, j);
    }
    stream
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((p / 100.0) * (sorted_ms.len() - 1) as f64).round() as usize;
    sorted_ms[idx.min(sorted_ms.len() - 1)]
}

fn stats_row(
    config: &'static str,
    wall_s: f64,
    mut latencies_ms: Vec<f64>,
    compiles: usize,
    store_hits: usize,
    memory_hits: usize,
    batch_merged: usize,
) -> ConfigStats {
    latencies_ms.sort_by(|a, b| a.total_cmp(b));
    let requests = latencies_ms.len();
    ConfigStats {
        config,
        requests,
        wall_s,
        kernels_per_s: requests as f64 / wall_s.max(1e-9),
        p50_ms: percentile(&latencies_ms, 50.0),
        p95_ms: percentile(&latencies_ms, 95.0),
        p99_ms: percentile(&latencies_ms, 99.0),
        compiles,
        store_hits,
        memory_hits,
        batch_merged,
        hit_rate: (requests.saturating_sub(compiles)) as f64 / requests.max(1) as f64,
    }
}

/// Runs one replay with a fresh engine per request (cold when `store` is
/// `None`, warm-store otherwise), returning the row and each unique
/// request's first payload.
fn replay_per_process(
    config: &'static str,
    stream: &[(String, usize)],
    store: Option<&Path>,
) -> (ConfigStats, BTreeMap<String, String>) {
    let mut latencies = Vec::with_capacity(stream.len());
    let mut payloads = BTreeMap::new();
    let (mut compiles, mut store_hits, mut memory_hits, mut merged) = (0, 0, 0, 0);
    let t0 = Instant::now();
    for (name, size) in stream {
        let t = Instant::now();
        // A fresh engine per request simulates one process per request —
        // nothing survives in memory, only the store carries state over.
        let engine = ServeEngine::new(CompileOptions::default(), DseConfig::default(), store);
        let payload = engine.submit(name, *size).expect("kernel compiles");
        latencies.push(t.elapsed().as_secs_f64() * 1e3);
        compiles += engine.compiles();
        store_hits += engine.store_hits();
        memory_hits += engine.memory_hits();
        merged += engine.batch_merged();
        payloads
            .entry(format!("{name}@{size}"))
            .or_insert_with(|| payload.as_ref().clone());
    }
    let wall = t0.elapsed().as_secs_f64();
    (
        stats_row(
            config,
            wall,
            latencies,
            compiles,
            store_hits,
            memory_hits,
            merged,
        ),
        payloads,
    )
}

/// Runs the replay against a real `pomd` server over a Unix socket with
/// `clients` concurrent client threads and a cold store of its own.
fn replay_daemon(
    stream: &[(String, usize)],
    store: &Path,
    socket: &Path,
    clients: usize,
) -> (ConfigStats, BTreeMap<String, String>) {
    let engine = Arc::new(ServeEngine::new(
        CompileOptions::default(),
        DseConfig::default(),
        Some(store),
    ));
    let server = {
        let engine = Arc::clone(&engine);
        let socket = socket.to_path_buf();
        std::thread::spawn(move || run_server(engine, &socket))
    };
    for _ in 0..500 {
        if socket.exists() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let t0 = Instant::now();
    let results: Vec<(f64, String, String)> = run_indexed(stream.len(), clients.max(1), |i| {
        let (name, size) = &stream[i];
        let t = Instant::now();
        let payload = client_request(socket, &format!("compile {name} {size}"))
            .expect("daemon reachable")
            .expect("kernel compiles");
        (
            t.elapsed().as_secs_f64() * 1e3,
            format!("{name}@{size}"),
            payload,
        )
    });
    let wall = t0.elapsed().as_secs_f64();
    client_request(socket, "shutdown")
        .expect("daemon reachable")
        .expect("shuts down");
    server.join().expect("server thread").expect("clean exit");
    let mut latencies = Vec::with_capacity(results.len());
    let mut payloads = BTreeMap::new();
    for (ms, key, payload) in results {
        latencies.push(ms);
        payloads.entry(key).or_insert(payload);
    }
    (
        stats_row(
            "daemon",
            wall,
            latencies,
            engine.compiles(),
            engine.store_hits(),
            engine.memory_hits(),
            engine.batch_merged(),
        ),
        payloads,
    )
}

/// Removes the scratch directory on every exit path — normal return,
/// a gate failure that makes the caller `exit(1)`, or a panic partway
/// through a replay. Without it a failed run leaves store directories
/// behind under the system temp dir.
struct ScratchGuard(std::path::PathBuf);

impl Drop for ScratchGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Replays `stream` through all three configurations and assembles the
/// report. Temp store directories and the daemon socket live under the
/// system temp dir, keyed by PID, and are removed afterwards.
pub fn run(stream: &[(String, usize)], clients: usize) -> ServeReport {
    let scratch = std::env::temp_dir().join(format!("pom-bench-serve-{}", std::process::id()));
    run_in(&scratch, stream, clients)
}

/// [`run`] with an explicit scratch directory (tests give each replay
/// its own so parallel tests never sweep each other's stores).
fn run_in(scratch: &Path, stream: &[(String, usize)], clients: usize) -> ServeReport {
    let _ = std::fs::remove_dir_all(scratch);
    std::fs::create_dir_all(scratch).expect("scratch dir");
    let _guard = ScratchGuard(scratch.to_path_buf());
    let warm_store = scratch.join("warm-store");
    let daemon_store = scratch.join("daemon-store");
    let socket = scratch.join("pomd.sock");

    let mut unique: Vec<&(String, usize)> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for req in stream {
        if seen.insert(req.clone()) {
            unique.push(req);
        }
    }

    // Cold: the per-process status quo.
    let (cold, cold_payloads) = replay_per_process("cold", stream, None);

    // Prime the warm store (unmeasured): one pass over the unique
    // requests populates every artifact the measured replay will hit.
    let t_prime = Instant::now();
    for (name, size) in unique.iter().map(|r| (&r.0, r.1)) {
        let engine = ServeEngine::new(
            CompileOptions::default(),
            DseConfig::default(),
            Some(&warm_store),
        );
        engine.submit(name, size).expect("kernel compiles");
    }
    let prime_s = t_prime.elapsed().as_secs_f64();

    // Warm: fresh process per request, shared persistent store.
    let (warm, warm_payloads) = replay_per_process("warm", stream, Some(&warm_store));

    // Daemon: real server, concurrent clients, its own cold store.
    let (daemon, daemon_payloads) = replay_daemon(stream, &daemon_store, &socket, clients);

    let identical = cold_payloads == warm_payloads && cold_payloads == daemon_payloads;
    ServeReport {
        unique_requests: unique.len(),
        total_requests: stream.len(),
        duplicate_fraction: 1.0 - unique.len() as f64 / stream.len().max(1) as f64,
        warm_speedup: warm.kernels_per_s / cold.kernels_per_s.max(1e-9),
        daemon_speedup: daemon.kernels_per_s / cold.kernels_per_s.max(1e-9),
        prime_s,
        identical,
        clients,
        rows: vec![cold, warm, daemon],
    }
}

/// Runs the standard traffic mix at `size`, repeated `repeat` times,
/// with `clients` concurrent daemon clients.
pub fn run_suite(size: usize, repeat: usize, clients: usize) -> ServeReport {
    run(&traffic(size, repeat), clients)
}

const COLUMNS: &[Column<ConfigStats>] = &[
    col("config", "Config", |c| c.config.into()),
    col("requests", "Requests", |c| c.requests.into()),
    col("wall_s", "Wall (s)", |c| c.wall_s.into()),
    col("kernels_per_s", "Kernels/s", |c| c.kernels_per_s.into()),
    col("p50_ms", "p50 (ms)", |c| c.p50_ms.into()),
    col("p95_ms", "p95 (ms)", |c| c.p95_ms.into()),
    col("p99_ms", "p99 (ms)", |c| c.p99_ms.into()),
    col("compiles", "Compiles", |c| c.compiles.into()),
    col("store_hits", "", |c| c.store_hits.into()),
    col("memory_hits", "", |c| c.memory_hits.into()),
    col("batch_merged", "", |c| c.batch_merged.into()),
    col("hit_rate", "Hit rate", |c| c.hit_rate.into()),
];

/// The table and `BENCH_serve.json` of a run, gated by [`gate`].
pub fn report(r: &ServeReport) -> Report {
    let mut out = Report::new(
        "Serving throughput — cold process vs warm store vs daemon",
        "configs",
        COLUMNS,
        &r.rows,
    );
    out.summary = vec![
        ("unique_requests", r.unique_requests.into()),
        ("total_requests", r.total_requests.into()),
        ("duplicate_fraction", r.duplicate_fraction.into()),
        ("warm_speedup", r.warm_speedup.into()),
        ("daemon_speedup", r.daemon_speedup.into()),
        ("prime_s", r.prime_s.into()),
        ("identical", r.identical.into()),
        ("clients", r.clients.into()),
    ];
    out.fails = gate(r);
    out
}

/// The ISSUE's acceptance floors. Empty = pass.
pub fn gate(r: &ServeReport) -> Vec<String> {
    let mut fails = Vec::new();
    if r.warm_speedup < 5.0 {
        fails.push(format!(
            "warm-store throughput is {:.2}x cold (floor: 5x)",
            r.warm_speedup
        ));
    }
    if let Some(warm) = r.rows.iter().find(|c| c.config == "warm") {
        if warm.hit_rate < 0.5 {
            fails.push(format!(
                "warm cross-process hit rate is {:.0}% (floor: 50%)",
                warm.hit_rate * 100.0
            ));
        }
    }
    if !r.identical {
        fails.push("payloads diverge across cold/warm/daemon".to_string());
    }
    fails
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traffic_is_deterministic_and_duplicate_heavy() {
        let a = traffic(24, 2);
        let b = traffic(24, 2);
        assert_eq!(a, b, "fixed-seed shuffle is deterministic");
        assert_eq!(a.len(), 2 * (14 + 13 + 17));
        let unique: std::collections::HashSet<_> = a.iter().collect();
        assert!(
            (unique.len() as f64) < 0.5 * a.len() as f64,
            "{} unique of {} — the stream must be duplicate-heavy",
            unique.len(),
            a.len()
        );
    }

    #[test]
    fn tiny_replay_gates_identical_and_warm_hits() {
        // A 6-request stream with duplicates keeps this fast while still
        // exercising all three configurations end to end.
        let stream: Vec<(String, usize)> = [
            ("gemm", 16),
            ("bicg", 16),
            ("gemm", 16),
            ("conv2x2x4", 4),
            ("conv2x2x4", 4),
            ("gemm", 16),
        ]
        .iter()
        .map(|(n, s)| (n.to_string(), *s))
        .collect();
        let report = run(&stream, 2);
        assert!(report.identical, "payloads must match across configs");
        let warm = &report.rows[1];
        assert_eq!(warm.config, "warm");
        assert_eq!(warm.compiles, 0, "a primed store answers everything");
        assert!(warm.hit_rate >= 0.99);
        assert!(report.warm_speedup > 1.0, "warm beats cold");
        let daemon = &report.rows[2];
        assert!(
            daemon.compiles <= report.unique_requests,
            "daemon compiles each unique kernel at most once"
        );
        let report = super::report(&report);
        let json = report.to_json();
        assert!(json.contains("\"config\": \"daemon\""));
        assert!(json.trim_start().starts_with('{') && json.trim_end().ends_with('}'));
        assert!(report.render().contains("Kernels/s"));
    }

    #[test]
    fn scratch_dir_is_removed_even_when_a_replay_panics() {
        // An unknown kernel makes the cold replay panic mid-stream; the
        // drop guard must still sweep the scratch directory so a failed
        // `pomc bench-serve` never leaves store dirs behind.
        let scratch =
            std::env::temp_dir().join(format!("pom-bench-serve-panic-test-{}", std::process::id()));
        let stream = vec![("no-such-kernel".to_string(), 8)];
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_in(&scratch, &stream, 1)
        }));
        assert!(result.is_err(), "the unknown kernel must panic the replay");
        assert!(
            !scratch.exists(),
            "scratch dir {} survived the panic",
            scratch.display()
        );
    }

    #[test]
    fn gate_fires_on_misses() {
        let row = |config, kps, hit_rate| ConfigStats {
            config,
            requests: 10,
            wall_s: 1.0,
            kernels_per_s: kps,
            p50_ms: 1.0,
            p95_ms: 2.0,
            p99_ms: 3.0,
            compiles: 5,
            store_hits: 0,
            memory_hits: 0,
            batch_merged: 0,
            hit_rate,
        };
        let bad = ServeReport {
            rows: vec![row("cold", 10.0, 0.0), row("warm", 20.0, 0.2)],
            unique_requests: 5,
            total_requests: 10,
            duplicate_fraction: 0.5,
            warm_speedup: 2.0,
            daemon_speedup: 1.0,
            prime_s: 0.1,
            identical: false,
            clients: 2,
        };
        let fails = gate(&bad);
        assert_eq!(fails.len(), 3, "{fails:?}");
        let good = ServeReport {
            rows: vec![row("cold", 10.0, 0.0), row("warm", 100.0, 1.0)],
            warm_speedup: 10.0,
            identical: true,
            ..bad
        };
        assert!(gate(&good).is_empty());
    }
}
