//! The POM compile service: a long-lived engine that answers
//! compile+DSE requests from a persistent, shared cache, plus the Unix
//! domain socket server `pomd` wraps around it.
//!
//! ## Why a service
//!
//! Every `pomc` invocation is a cold process: the `DseCache` memos die at
//! exit, so repeated layers across runs and users pay full price again.
//! The [`ServeEngine`] keeps one store-backed [`DseCache`] alive across
//! requests and adds two layers on top:
//!
//! 1. **Response cache** — the fully rendered response text of each
//!    compiled kernel, keyed by the input function's plain fingerprint,
//!    held in a bounded in-memory map and persisted through the store's
//!    `full` artifacts. A duplicate request is answered with zero
//!    compiles, byte-identical to the original *by construction* (it is
//!    the same bytes).
//! 2. **Batch admission** — concurrent requests that share a fingerprint
//!    coalesce: the first becomes the *leader* and compiles, the rest
//!    become *followers* that park on a channel and receive the leader's
//!    response when it fans out. A queue of 50 identical VGG-16 layers
//!    compiles once.
//!
//! The engine itself is transport-free; [`run_server`] binds it to a
//! local socket with a line protocol (see below), and `bench-serve`
//! drives it in-process for the cold/warm configurations.
//!
//! ## Wire protocol
//!
//! One request per line; length-framed responses so payloads can contain
//! anything:
//!
//! ```text
//! -> compile <kernel> <size>\n
//! <- ok <byte-len>\n<payload>          | err <message>\n
//! -> stats\n
//! <- ok <byte-len>\n<stats text>
//! -> shutdown\n
//! <- ok 0\n                            (server exits after replying)
//! ```
//!
//! `<kernel>` is any built-in kernel name ([`kernel_by_name`]) or a
//! standalone convolution layer `conv<ci>x<co>x<size>` (the DNN layer
//! streams' vocabulary); for `conv...` kernels the shape in the name
//! wins and `<size>` is ignored.

use pom_dse::cache::Bounded;
use pom_dse::{auto_dse_with_cache, fingerprint, CompileOptions, DseCache, DseConfig, DseResult};
use pom_dsl::Function;
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::kernels as k;

/// The 14 built-in kernels, in suite order: Table III's typical HLS
/// benchmarks, Table VII's stencils, Table V's image pipelines and DNNs.
/// Every whole-suite audit (`bench-sim`, `bench-live`, `bench-dataflow`,
/// the `bench-serve` traffic mix, and `bench-dse`/`verify-all` minus the
/// stencils) builds its inputs from this list through
/// [`kernel_by_name`], so `pomc <kernel>`, `pomd` and the audits agree on
/// what a name and a size mean.
pub const SUITE: [&str; 14] = [
    "gemm",
    "bicg",
    "gesummv",
    "2mm",
    "3mm",
    "jacobi1d",
    "jacobi2d",
    "heat1d",
    "seidel",
    "edge_detect",
    "gaussian",
    "blur",
    "vgg16",
    "resnet18",
];

/// Maps a kernel name (+ default size) to its DSL function — the same
/// vocabulary `pomc` exposes, plus the `conv<ci>x<co>x<size>` layer
/// pattern. Size transforms mirror `pomc`: time-iterated stencils take
/// fewer timesteps than their spatial extent, seidel shrinks, and the
/// DNNs ignore `size` (scale 1). `size` itself (0 → 1; the 3×3 image
/// stencils need 3) and the extents derived from it are clamped to
/// their smallest non-degenerate values, so an arbitrary wire-supplied
/// size can never build an empty iteration space (which would panic a
/// daemon worker).
pub fn kernel_by_name(name: &str, size: usize) -> Option<Function> {
    if let Some(shape) = name.strip_prefix("conv") {
        if let Some((ci, co, sz)) = parse_conv_shape(shape) {
            return Some(k::conv_layer_kernel(ci, co, sz));
        }
    }
    let size = size.max(1);
    let tsteps = (size / 16).max(2);
    Some(match name {
        "gemm" => k::gemm(size),
        "bicg" => k::bicg(size),
        "gesummv" => k::gesummv(size),
        "2mm" | "mm2" => k::mm2(size),
        "3mm" | "mm3" => k::mm3(size),
        "jacobi1d" => k::jacobi1d(tsteps, size.max(4)),
        "jacobi2d" => k::jacobi2d(tsteps, (size / 8).max(4)),
        "heat1d" => k::heat1d(tsteps, size.max(4)),
        "seidel" => k::seidel((size / 4).max(4)),
        "edge_detect" => k::edge_detect(size.max(3)),
        "gaussian" => k::gaussian(size.max(3)),
        "blur" => k::blur(size.max(3)),
        "vgg16" => k::vgg16(1),
        "resnet18" => k::resnet18(1),
        _ => return None,
    })
}

/// Parses `<ci>x<co>x<size>` (the tail of a `conv...` kernel name).
fn parse_conv_shape(s: &str) -> Option<(usize, usize, usize)> {
    let mut it = s.split('x');
    let (a, b, c) = (it.next()?, it.next()?, it.next()?);
    if it.next().is_some() {
        return None;
    }
    let (ci, co, sz) = (a.parse().ok()?, b.parse().ok()?, c.parse().ok()?);
    if ci == 0 || co == 0 || sz == 0 {
        return None;
    }
    Some((ci, co, sz))
}

/// Renders a DSE result as the canonical serving payload: schedule,
/// QoR, and the emitted HLS C. Deterministic — no wall-clock times — so
/// cold, warm, and daemon paths can be gated byte-for-byte.
pub fn render_response(kernel: &str, size: usize, r: &DseResult) -> String {
    let mut out = String::new();
    out.push_str(&format!("pom-serve kernel {kernel} size {size}\n"));
    out.push_str("schedule:\n");
    for p in r.function.schedule() {
        out.push_str(&format!("  {p};\n"));
    }
    let q = &r.compiled.qor;
    out.push_str(&format!(
        "qor: latency {} dsp {} ff {} lut {} bram18k {}\n",
        q.latency, q.resources.dsp, q.resources.ff, q.resources.lut, q.resources.bram18k
    ));
    let iis: Vec<String> = q.loops.iter().map(|l| l.achieved_ii.to_string()).collect();
    out.push_str(&format!("iis: {}\n", iis.join(" ")));
    out.push_str("---- hls c ----\n");
    out.push_str(&r.compiled.hls_c());
    out
}

fn locked<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

type Outcome = Result<Arc<String>, String>;

/// What a request found when it reached batch admission.
enum Role {
    /// First request for this fingerprint: compile and fan out.
    Leader,
    /// A leader is already compiling this fingerprint: park here.
    Follower(mpsc::Receiver<Outcome>),
}

/// The long-lived serving engine: one store-backed [`DseCache`], a
/// bounded response cache, and batch admission (see module docs).
/// Shareable across threads behind an `Arc`.
pub struct ServeEngine {
    opts: CompileOptions,
    cfg: DseConfig,
    cache: DseCache,
    responses: Mutex<Bounded<u64, Arc<String>>>,
    /// In-flight compiles: fingerprint → the followers waiting on it.
    pending: Mutex<HashMap<u64, Vec<mpsc::Sender<Outcome>>>>,
    requests: AtomicUsize,
    /// Requests answered from the in-memory response cache.
    memory_hits: AtomicUsize,
    /// Requests answered from the store's persisted response artifact.
    store_hits: AtomicUsize,
    /// Requests answered by another request's in-flight compile.
    batch_merged: AtomicUsize,
    /// Requests that ran a full DSE compile.
    compiles: AtomicUsize,
    errors: AtomicUsize,
}

impl ServeEngine {
    /// An engine over `opts`/`cfg`, optionally backed by the persistent
    /// store rooted at `store`. A store that fails to open degrades to
    /// memory-only serving (the store accelerates, it never gates).
    /// When `cfg.store_max_bytes` is set, the store is swept down to
    /// that budget (oldest artifacts first) right after opening, so
    /// `stats` reports post-GC disk usage.
    pub fn new(opts: CompileOptions, cfg: DseConfig, store: Option<&Path>) -> ServeEngine {
        let cache = DseCache::open(store, cfg.store_max_bytes, &opts);
        ServeEngine {
            opts,
            cfg,
            cache,
            responses: Mutex::new(Bounded::new(pom_dse::cache::DEFAULT_CAPACITY)),
            pending: Mutex::new(HashMap::new()),
            requests: AtomicUsize::new(0),
            memory_hits: AtomicUsize::new(0),
            store_hits: AtomicUsize::new(0),
            batch_merged: AtomicUsize::new(0),
            compiles: AtomicUsize::new(0),
            errors: AtomicUsize::new(0),
        }
    }

    /// Total requests submitted.
    pub fn requests(&self) -> usize {
        self.requests.load(Ordering::Relaxed)
    }

    /// Requests answered from the in-memory response cache.
    pub fn memory_hits(&self) -> usize {
        self.memory_hits.load(Ordering::Relaxed)
    }

    /// Requests answered from a persisted response artifact — the
    /// cross-process hits.
    pub fn store_hits(&self) -> usize {
        self.store_hits.load(Ordering::Relaxed)
    }

    /// Requests that attached to another request's in-flight compile.
    pub fn batch_merged(&self) -> usize {
        self.batch_merged.load(Ordering::Relaxed)
    }

    /// Requests that paid for a full DSE compile.
    pub fn compiles(&self) -> usize {
        self.compiles.load(Ordering::Relaxed)
    }

    /// Requests that failed (unknown kernel or compile error).
    pub fn errors(&self) -> usize {
        self.errors.load(Ordering::Relaxed)
    }

    /// The engine's DSE cache (for stats rendering).
    pub fn cache(&self) -> &DseCache {
        &self.cache
    }

    /// Compiles `kernel` at `size` (or returns the cached/coalesced
    /// response — see module docs for the admission order).
    ///
    /// # Errors
    ///
    /// A human-readable message for unknown kernels and compile failures.
    /// Errors are never cached and never fan out as successes.
    pub fn submit(&self, kernel: &str, size: usize) -> Outcome {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let Some(f) = kernel_by_name(kernel, size) else {
            self.errors.fetch_add(1, Ordering::Relaxed);
            return Err(format!("unknown kernel {kernel}"));
        };
        let fp = fingerprint(&f);
        if let Some(r) = locked(&self.responses).get(&fp).cloned() {
            self.memory_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(r);
        }
        if let Some(text) = self.cache.store().and_then(|s| s.load_full(fp)) {
            self.store_hits.fetch_add(1, Ordering::Relaxed);
            let r = Arc::new(text);
            locked(&self.responses).insert(fp, Arc::clone(&r));
            return Ok(r);
        }
        // Batch admission: exactly one leader per in-flight fingerprint.
        let role = {
            let mut pending = locked(&self.pending);
            match pending.get_mut(&fp) {
                Some(waiters) => {
                    let (tx, rx) = mpsc::channel();
                    waiters.push(tx);
                    Role::Follower(rx)
                }
                None => {
                    pending.insert(fp, Vec::new());
                    Role::Leader
                }
            }
        };
        match role {
            Role::Follower(rx) => {
                self.batch_merged.fetch_add(1, Ordering::Relaxed);
                match rx.recv() {
                    Ok(outcome) => outcome,
                    // The leader died without fanning out (panicked
                    // worker); recompute rather than wedge.
                    Err(_) => self.compile_as_leader(kernel, size, &f, fp),
                }
            }
            Role::Leader => self.compile_as_leader(kernel, size, &f, fp),
        }
    }

    fn compile_as_leader(&self, kernel: &str, size: usize, f: &Function, fp: u64) -> Outcome {
        self.compiles.fetch_add(1, Ordering::Relaxed);
        let outcome = match auto_dse_with_cache(f, &self.opts, &self.cfg, &self.cache) {
            Ok(r) => {
                let text = Arc::new(render_response(kernel, size, &r));
                // Publish to the response cache *before* draining the
                // pending entry: a request that misses `pending` right
                // after the drain must still hit the response cache.
                locked(&self.responses).insert(fp, Arc::clone(&text));
                if let Some(s) = self.cache.store() {
                    // Published at once: another engine (or process)
                    // over the same store sees the response next.
                    s.save_full(fp, &text);
                    s.flush();
                }
                Ok(text)
            }
            Err(e) => {
                self.errors.fetch_add(1, Ordering::Relaxed);
                Err(format!("DSE failed: {e}"))
            }
        };
        let waiters = locked(&self.pending).remove(&fp).unwrap_or_default();
        for w in waiters {
            // A follower that gave up (disconnected client) is fine.
            let _ = w.send(outcome.clone());
        }
        outcome
    }

    /// Human-readable engine + cache + store statistics (`stats` verb,
    /// `pomc --emit cache`).
    pub fn stats_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "requests {}\nmemory-hits {}\nstore-hits {}\nbatch-merged {}\ncompiles {}\nerrors {}\n",
            self.requests(),
            self.memory_hits(),
            self.store_hits(),
            self.batch_merged(),
            self.compiles(),
            self.errors()
        ));
        out.push_str(&format!(
            "dse-cache: hits {} misses {} evictions {} entries {}\n",
            self.cache.hits(),
            self.cache.misses(),
            self.cache.evictions(),
            self.cache.entries()
        ));
        if let Some(s) = self.cache.store() {
            out.push_str(&format!(
                "store: hits {} misses {} writes {} load-errors {} write-errors {}\n",
                s.hits(),
                s.misses(),
                s.writes(),
                s.load_errors(),
                s.write_errors()
            ));
            let usage = s.disk_usage();
            let total_bytes: u64 = usage.values().map(|v| v.1).sum();
            let total_entries: usize = usage.values().map(|v| v.0).sum();
            out.push_str(&format!(
                "store-disk: {total_entries} artifact(s), {total_bytes} byte(s) in {}\n",
                s.shard_dir().display()
            ));
            for (kind, (count, bytes)) in usage {
                out.push_str(&format!(
                    "store-kind {kind}: {count} artifact(s), {bytes} byte(s)\n"
                ));
            }
        } else {
            out.push_str("store: none\n");
        }
        out
    }
}

// ---- socket server ------------------------------------------------------

/// Runs the serving loop on a Unix domain socket until a client sends
/// `shutdown`. Each connection gets its own thread; batch admission in
/// the shared engine keeps concurrent duplicate kernels to one compile.
///
/// # Errors
///
/// Propagates socket bind/accept failures. A stale socket file at
/// `socket` is removed before binding.
pub fn run_server(engine: Arc<ServeEngine>, socket: &Path) -> io::Result<()> {
    let _ = std::fs::remove_file(socket);
    let listener = UnixListener::bind(socket)?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let mut handlers = Vec::new();
    for stream in listener.incoming() {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        let stream = stream?;
        let engine = Arc::clone(&engine);
        let shutdown = Arc::clone(&shutdown);
        let socket = socket.to_path_buf();
        handlers.push(std::thread::spawn(move || {
            // Connection errors only end this client's session.
            let _ = handle_connection(&engine, stream, &shutdown);
            if shutdown.load(Ordering::SeqCst) {
                // Unblock the accept loop so the server can exit.
                let _ = UnixStream::connect(&socket);
            }
        }));
    }
    for h in handlers {
        let _ = h.join();
    }
    let _ = std::fs::remove_file(socket);
    Ok(())
}

fn handle_connection(
    engine: &ServeEngine,
    stream: UnixStream,
    shutdown: &AtomicBool,
) -> io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Ok(()); // client closed
        }
        let mut parts = line.split_whitespace();
        match parts.next() {
            Some("compile") => {
                let kernel = parts.next().unwrap_or("");
                let size: usize = parts.next().and_then(|s| s.parse().ok()).unwrap_or(32);
                match engine.submit(kernel, size) {
                    Ok(payload) => {
                        writeln!(writer, "ok {}", payload.len())?;
                        writer.write_all(payload.as_bytes())?;
                    }
                    Err(msg) => writeln!(writer, "err {}", msg.replace('\n', " "))?,
                }
                writer.flush()?;
            }
            Some("stats") => {
                let text = engine.stats_text();
                writeln!(writer, "ok {}", text.len())?;
                writer.write_all(text.as_bytes())?;
                writer.flush()?;
            }
            Some("shutdown") => {
                shutdown.store(true, Ordering::SeqCst);
                writeln!(writer, "ok 0")?;
                writer.flush()?;
                return Ok(());
            }
            Some(other) => {
                writeln!(writer, "err unknown request {other}")?;
                writer.flush()?;
            }
            None => {
                writeln!(writer, "err empty request")?;
                writer.flush()?;
            }
        }
    }
}

/// Sends one request line to a running daemon and returns the response:
/// `Ok(Ok(payload))` for `ok`, `Ok(Err(message))` for `err`.
///
/// # Errors
///
/// I/O errors on the socket, or a malformed response frame.
pub fn client_request(socket: &Path, request: &str) -> io::Result<Result<String, String>> {
    let mut stream = UnixStream::connect(socket)?;
    writeln!(stream, "{request}")?;
    stream.flush()?;
    let mut reader = BufReader::new(stream);
    let mut header = String::new();
    reader.read_line(&mut header)?;
    let header = header.trim_end_matches('\n');
    if let Some(msg) = header.strip_prefix("err ") {
        return Ok(Err(msg.to_string()));
    }
    let Some(len) = header
        .strip_prefix("ok ")
        .and_then(|n| n.parse::<usize>().ok())
    else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("malformed response header: {header:?}"),
        ));
    };
    let mut payload = vec![0u8; len];
    reader.read_exact(&mut payload)?;
    String::from_utf8(payload)
        .map(Ok)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let p = std::env::temp_dir().join(format!("pom-serve-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).expect("mkdir");
        p
    }

    fn small_cfg() -> DseConfig {
        DseConfig::default()
    }

    #[test]
    fn conv_shape_parses() {
        assert_eq!(parse_conv_shape("4x16x8"), Some((4, 16, 8)));
        assert_eq!(parse_conv_shape("4x16"), None);
        assert_eq!(parse_conv_shape("4x16x8x2"), None);
        assert_eq!(parse_conv_shape("0x16x8"), None);
        assert!(kernel_by_name("conv4x16x4", 0).is_some());
        assert!(kernel_by_name("convx", 32).is_none());
        assert!(kernel_by_name("nope", 32).is_none());
    }

    #[test]
    fn suite_sizes_are_unchanged_at_the_ci_sizes_and_clamped_below() {
        // What `bench_sim::suite` built before it became a map over
        // `SUITE`: unclamped `size / 16` timesteps, which is an empty
        // `t` range below 16 (`pomc bench-sim --size 8` panicked in
        // `Var::new`). At the sizes CI runs, clamped and unclamped agree
        // byte for byte.
        for size in [32, 64] {
            let old = [
                k::gemm(size),
                k::bicg(size),
                k::gesummv(size),
                k::mm2(size),
                k::mm3(size),
                k::jacobi1d(size / 16, size),
                k::jacobi2d(size / 16, size / 8),
                k::heat1d(size / 16, size),
                k::seidel(size / 4),
                k::edge_detect(size),
                k::gaussian(size),
                k::blur(size),
                k::vgg16(1),
                k::resnet18(1),
            ];
            for (name, want) in SUITE.iter().zip(&old) {
                let got = kernel_by_name(name, size).expect("suite kernel");
                assert_eq!(got.to_string(), want.to_string(), "{name}@{size}");
            }
        }
        for size in [0, 1, 2, 8, 15] {
            for name in SUITE {
                assert!(kernel_by_name(name, size).is_some(), "{name}@{size}");
            }
        }
    }

    #[test]
    fn duplicate_requests_hit_the_response_cache() {
        let engine = ServeEngine::new(CompileOptions::default(), small_cfg(), None);
        let a = engine.submit("gemm", 16).expect("compiles");
        let b = engine.submit("gemm", 16).expect("compiles");
        assert_eq!(a, b, "byte-identical");
        assert_eq!(engine.compiles(), 1);
        assert_eq!(engine.memory_hits(), 1);
        assert!(a.contains("pom-serve kernel gemm size 16"));
        assert!(a.contains("---- hls c ----"));
    }

    #[test]
    fn unknown_kernel_is_an_error_and_not_cached() {
        let engine = ServeEngine::new(CompileOptions::default(), small_cfg(), None);
        assert!(engine.submit("nope", 16).is_err());
        assert!(engine.submit("nope", 16).is_err());
        assert_eq!(engine.errors(), 2);
        assert_eq!(engine.compiles(), 0);
    }

    #[test]
    fn fresh_engine_hits_the_shared_store() {
        let root = tmp_dir("store");
        let a = ServeEngine::new(CompileOptions::default(), small_cfg(), Some(&root));
        let first = a.submit("bicg", 16).expect("compiles");
        // A fresh engine over the same store simulates a new process.
        let b = ServeEngine::new(CompileOptions::default(), small_cfg(), Some(&root));
        let second = b.submit("bicg", 16).expect("served");
        assert_eq!(first, second, "byte-identical across engines");
        assert_eq!(b.compiles(), 0);
        assert_eq!(b.store_hits(), 1);
        let stats = b.stats_text();
        assert!(stats.contains("store-hits 1"), "{stats}");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn concurrent_duplicates_batch_to_one_compile() {
        let engine = Arc::new(ServeEngine::new(
            CompileOptions::default(),
            small_cfg(),
            None,
        ));
        let results: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let e = Arc::clone(&engine);
                    s.spawn(move || e.submit("gesummv", 16))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("joins"))
                .collect()
        });
        let first = results[0].as_ref().expect("compiles");
        for r in &results {
            assert_eq!(r.as_ref().expect("compiles"), first);
        }
        // Every request was answered by exactly one compile; the others
        // merged into its batch or hit the response cache behind it.
        assert_eq!(engine.compiles(), 1);
        assert_eq!(
            engine.batch_merged() + engine.memory_hits(),
            3,
            "3 duplicates coalesced"
        );
    }

    #[test]
    fn daemon_round_trip_over_unix_socket() {
        let dir = tmp_dir("uds");
        let socket = dir.join("pomd.sock");
        let engine = Arc::new(ServeEngine::new(
            CompileOptions::default(),
            small_cfg(),
            None,
        ));
        let server = {
            let engine = Arc::clone(&engine);
            let socket = socket.clone();
            std::thread::spawn(move || run_server(engine, &socket))
        };
        // Wait for the socket to appear.
        for _ in 0..200 {
            if socket.exists() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        let r1 = client_request(&socket, "compile gemm 16")
            .expect("io")
            .expect("compiles");
        let r2 = client_request(&socket, "compile gemm 16")
            .expect("io")
            .expect("serves");
        assert_eq!(r1, r2);
        let stats = client_request(&socket, "stats").expect("io").expect("ok");
        assert!(stats.contains("requests 2"), "{stats}");
        let err = client_request(&socket, "compile nope 16").expect("io");
        assert!(err.is_err());
        client_request(&socket, "shutdown")
            .expect("io")
            .expect("ok");
        server.join().expect("joins").expect("server exits cleanly");
        assert!(!socket.exists(), "socket file cleaned up");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
