//! Memoization for the DSE hot path: per-group compile/estimate results
//! keyed by the group's canonical fingerprint and tile vector
//! ([`GroupSlice::key`](crate::search::ladder::GroupSlice::key)), plus a
//! full-function compile cache that lets the final-repair walk-back
//! loop, the post-retarget recompile in `auto_dse_with`, and repeated
//! emissions reuse prior results instead of recompiling.
//!
//! Thread-safety: every map sits behind its own `Mutex` and the counters
//! are atomics, so one [`DseCache`] can be shared by the scoped worker
//! threads of the parallel candidate evaluation. Entries are pure
//! functions of their key (every key covers placeholders, computes, the
//! recorded schedule *and* the configuration applied on top of it), so a
//! racing double-compute writes the
//! same value twice — correctness never depends on who wins. Locks use
//! poisoned-lock recovery (`PoisonError::into_inner`): a panicked worker
//! can at worst leave a *missing* entry behind, never a wrong one, so
//! the daemon keeps serving instead of wedging.
//!
//! Capacity: each map is FIFO-bounded (default [`DEFAULT_CAPACITY`] per
//! map) so a long-running daemon's memory stays flat under unbounded
//! traffic; evictions are counted and surfaced through `DseStats`.
//!
//! A cache must not outlive the `CompileOptions` it was populated under:
//! cached values depend on the cost model, device, and sharing policy.
//! `auto_dse_with` therefore creates one cache per search, and the
//! daemon's long-lived cache is pinned to one options set. Entries may
//! outlive the *process*, though: fingerprints hash extents, dtypes, and
//! the schedule via the platform-independent [`StableHasher`], and a
//! cache opened with [`DseCache::with_store`] transparently spills and
//! reloads entries through a shared on-disk
//! [`ArtifactStore`] whose shard hash pins
//! the same options set.

use crate::compile::{CompileError, CompileOptions, Compiled};
use crate::search::DseStats;
use crate::store::ArtifactStore;
use pom_dsl::Function;
use pom_hls::{DepSummary, ResourceUsage};
use pom_poly::StmtPoly;
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Default per-map capacity of a [`DseCache`] — large enough that a
/// single search never evicts, small enough that a daemon's five maps
/// stay bounded.
pub const DEFAULT_CAPACITY: usize = 1 << 15;

/// A 64-bit FNV-1a hasher: process-independent, platform-independent
/// (for the byte streams we feed it), and stable across runs — unlike
/// `DefaultHasher`, whose SipHash keys are unspecified and may change
/// between executions. Cache keys that reach the persistent
/// [`ArtifactStore`] must mean the same thing in every process that
/// shares the store, so all fingerprints are computed with this.
#[derive(Clone, Debug)]
pub struct StableHasher(u64);

impl Default for StableHasher {
    fn default() -> Self {
        StableHasher(pom_poly::fnv::OFFSET_BASIS)
    }
}

impl Hasher for StableHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        self.0 = pom_poly::fnv::extend(self.0, bytes);
    }
}

/// FNV-1a hash of any `Hash` value, for composite store keys.
pub fn stable_hash<T: Hash + ?Sized>(v: &T) -> u64 {
    let mut h = StableHasher::default();
    v.hash(&mut h);
    h.finish()
}

/// Structural fingerprint of a function: placeholders, computes, and the
/// recorded schedule, as rendered by the DSL's canonical `Display` form.
/// Two functions with equal fingerprints lower to the same design. Stable
/// across processes (see [`StableHasher`]), so fingerprints double as
/// persistent store keys.
pub fn fingerprint(f: &Function) -> u64 {
    let mut h = StableHasher::default();
    f.to_string().hash(&mut h);
    h.finish()
}

/// Alpha-renamed structural fingerprint: like [`fingerprint`], but
/// declared names (the function, placeholders, computes, iterators, and
/// schedule-generated loops) are replaced by indices in order of first
/// appearance in the compute/schedule section, so two sub-functions that
/// differ only in naming — e.g. the repeated convolution layers of a DNN,
/// or the symmetric matmuls of 3MM — share one fingerprint.
///
/// Soundness: QoR estimation consumes names only through lookups that are
/// internal to the function (memref banks, dependence chains), so a
/// consistent renaming cannot change `(latency, resources)` or the
/// pipeline-II verdict. Placeholder declarations keep their extents and
/// element types verbatim (a renamed layer with different extents still
/// misses), and only *declared* names are renamed — an unrecognized token
/// stays literal, which can only cause a cache miss, never a false merge.
/// Because extents and dtypes are hashed verbatim, keys remain comparable
/// across placeholder environments, processes, and store-sharing users —
/// two layers merge only if their declarations agree byte-for-byte after
/// renaming.
pub fn canonical_fingerprint(f: &Function) -> u64 {
    let mut declared: std::collections::HashSet<&str> = std::collections::HashSet::new();
    declared.insert(f.name());
    for p in f.placeholders() {
        declared.insert(p.name());
    }
    for c in f.computes() {
        declared.insert(c.name());
        for v in c.iters() {
            declared.insert(v.name());
        }
    }
    use pom_dsl::Primitive as P;
    for p in f.schedule() {
        match p {
            P::Interchange { stmt, i, j } => declared.extend([stmt.as_str(), i, j]),
            P::Split {
                stmt, i, i0, i1, ..
            } => declared.extend([stmt.as_str(), i, i0, i1]),
            P::Tile {
                stmt,
                i,
                j,
                i0,
                j0,
                i1,
                j1,
                ..
            } => declared.extend([stmt.as_str(), i, j, i0, j0, i1, j1]),
            P::Skew {
                stmt, i, j, i2, j2, ..
            } => declared.extend([stmt.as_str(), i, j, i2, j2]),
            P::After { stmt, other, level } => {
                declared.extend([stmt.as_str(), other]);
                if let Some(l) = level {
                    declared.insert(l);
                }
            }
            P::Pipeline { stmt, loop_iv, .. } | P::Unroll { stmt, loop_iv, .. } => {
                declared.extend([stmt.as_str(), loop_iv]);
            }
            P::Partition { array, .. } => {
                declared.insert(array);
            }
            P::AutoDse => {}
        }
    }

    let text = f.to_string();
    let mut idx: HashMap<String, usize> = HashMap::new();
    let mut h = StableHasher::default();
    // Pass 1 — compute + schedule lines assign canonical indices.
    // Pass 2 — placeholder declarations: referenced ones carry their
    // index, unreferenced ones keep extents/dtype but drop the name.
    let mut decls: Vec<&str> = Vec::new();
    for line in text.lines() {
        let t = line.trim();
        if t.is_empty() || t == "}" || t.starts_with("function ") {
            continue;
        }
        if t.ends_with("];") && !t.contains('(') && !t.contains('=') {
            decls.push(line);
            continue;
        }
        hash_canon_line(line, &declared, true, &mut idx, &mut h);
    }
    // Declarations are a set, not a sequence: hash each line separately
    // and combine the sorted multiset, so the relative order of referenced
    // vs. anonymous declarations cannot split alpha-equivalent functions.
    let mut decl_hashes: Vec<u64> = decls
        .into_iter()
        .map(|line| {
            let mut dh = StableHasher::default();
            hash_canon_line(line, &declared, false, &mut idx, &mut dh);
            dh.finish()
        })
        .collect();
    decl_hashes.sort_unstable();
    decl_hashes.hash(&mut h);
    h.finish()
}

/// Hashes one display line with declared names replaced by canonical
/// indices. `assign` controls whether unseen declared names get a fresh
/// index (compute/schedule pass) or an anonymous marker (declaration
/// pass — an unreferenced placeholder's name is irrelevant).
fn hash_canon_line(
    line: &str,
    declared: &std::collections::HashSet<&str>,
    assign: bool,
    idx: &mut HashMap<String, usize>,
    h: &mut StableHasher,
) {
    let bytes = line.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        if c.is_ascii_alphabetic() || c == '_' {
            let start = i;
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            let tok = &line[start..i];
            if declared.contains(tok) {
                if let Some(&n) = idx.get(tok) {
                    (1u8, n).hash(h);
                } else if assign {
                    let n = idx.len();
                    idx.insert(tok.to_string(), n);
                    (1u8, n).hash(h);
                } else {
                    2u8.hash(h);
                }
            } else {
                (3u8, tok).hash(h);
            }
        } else {
            (4u8, c).hash(h);
            i += 1;
        }
    }
    5u8.hash(h);
}

/// Thread-safe accumulator for the per-phase wall time spent inside
/// `compile` calls, shared across the search and its worker threads.
#[derive(Debug, Default)]
pub struct PhaseAccum {
    lowering_ns: AtomicU64,
    estimation_ns: AtomicU64,
}

impl PhaseAccum {
    /// Adds one compile's phase breakdown.
    pub fn add(&self, t: &crate::compile::PhaseTimes) {
        self.lowering_ns
            .fetch_add(t.lowering.as_nanos() as u64, Ordering::Relaxed);
        self.estimation_ns
            .fetch_add(t.estimation.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Runs `f`, adding its wall time to the lowering phase. Calls must
    /// not nest, or the inner time is counted twice.
    pub fn time_lowering<T>(&self, f: impl FnOnce() -> T) -> T {
        let t0 = std::time::Instant::now();
        let out = f();
        self.lowering_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }

    /// Total time spent in schedule replay + dependence analysis +
    /// lowering.
    pub fn lowering(&self) -> Duration {
        Duration::from_nanos(self.lowering_ns.load(Ordering::Relaxed))
    }

    /// Total time spent in QoR estimation.
    pub fn estimation(&self) -> Duration {
        Duration::from_nanos(self.estimation_ns.load(Ordering::Relaxed))
    }
}

/// Counter baseline taken at search start, so a long-lived shared cache
/// reports per-search deltas in [`DseStats`]. [`CacheSnapshot::record`]
/// is the one writer of a search's cache, store and compile-phase
/// counters.
pub(crate) struct CacheSnapshot {
    hits: usize,
    misses: usize,
    evictions: usize,
    store_hits: usize,
    store_misses: usize,
    store_writes: usize,
}

impl CacheSnapshot {
    /// The counters of `cache` now (zeros without a cache).
    pub(crate) fn take(cache: Option<&DseCache>) -> CacheSnapshot {
        let store = cache.and_then(DseCache::store);
        CacheSnapshot {
            hits: cache.map_or(0, DseCache::hits),
            misses: cache.map_or(0, DseCache::misses),
            evictions: cache.map_or(0, DseCache::evictions),
            store_hits: store.map_or(0, |s| s.hits()),
            store_misses: store.map_or(0, |s| s.misses()),
            store_writes: store.map_or(0, |s| s.writes()),
        }
    }

    /// Writes into `stats` what the search since [`CacheSnapshot::take`]
    /// added to `cache`'s counters, the live entries left, and the
    /// compile phases `acc` timed.
    pub(crate) fn record(&self, cache: Option<&DseCache>, acc: &PhaseAccum, stats: &mut DseStats) {
        if let Some(c) = cache {
            stats.cache_hits = c.hits() - self.hits;
            stats.cache_misses = c.misses() - self.misses;
            stats.cache_evictions = c.evictions() - self.evictions;
            stats.cache_entries = c.entries();
            if let Some(s) = c.store() {
                stats.store_hits = s.hits() - self.store_hits;
                stats.store_misses = s.misses() - self.store_misses;
                stats.store_writes = s.writes() - self.store_writes;
            }
        }
        stats.lowering_time = acc.lowering();
        stats.estimation_time = acc.estimation();
    }
}

/// Locks a mutex, recovering the data from a poisoned lock: cache values
/// are pure functions of their keys and every insert is a single
/// statement, so a panicking holder cannot leave a torn entry behind —
/// at worst an absent one, which only costs a recompute.
fn locked<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A FIFO-bounded map: insertion-ordered eviction once `cap` is reached.
/// FIFO (rather than LRU) keeps `get` contention-free — no order
/// mutation on reads — and is good enough here because entries are
/// equally cheap to recompute and traffic within one search is bursty,
/// not scan-resistant. The DSE cache's maps and `pomd`'s response cache
/// are both one.
#[derive(Debug)]
pub struct Bounded<K, V> {
    map: HashMap<K, V>,
    order: VecDeque<K>,
    cap: usize,
}

impl<K: Eq + Hash + Clone, V> Bounded<K, V> {
    /// An empty map holding at most `cap` (at least 1) entries.
    pub fn new(cap: usize) -> Self {
        Bounded {
            map: HashMap::new(),
            order: VecDeque::new(),
            cap: cap.max(1),
        }
    }

    /// The value under `k`.
    pub fn get(&self, k: &K) -> Option<&V> {
        self.map.get(k)
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    /// Inserts, returning how many old entries were evicted (0 or 1; a
    /// re-insert of a live key never grows the map, so never evicts).
    pub fn insert(&mut self, k: K, v: V) -> usize {
        if self.map.insert(k.clone(), v).is_none() {
            self.order.push_back(k);
        }
        let mut evicted = 0;
        while self.map.len() > self.cap {
            match self.order.pop_front() {
                Some(old) => {
                    if self.map.remove(&old).is_some() {
                        evicted += 1;
                    }
                }
                None => break,
            }
        }
        evicted
    }
}

/// The DSE compile/estimate cache (see module docs).
#[derive(Debug)]
pub struct DseCache {
    /// `pipeline_infeasible` verdicts per group configuration, keyed by
    /// [`GroupSlice::key`](crate::search::ladder::GroupSlice::key).
    infeasible: Mutex<Bounded<u64, bool>>,
    /// `(latency, resources)` of a group configuration compiled as a
    /// sub-function, under the same key — structurally identical groups
    /// (repeated DNN layers, symmetric matmuls) share entries.
    group_qor: Mutex<Bounded<u64, (u64, ResourceUsage)>>,
    /// Dependence-summary templates of a group, or of the whole
    /// function, keyed by the *untiled* schedule's plain [`fingerprint`]
    /// (names must match exactly, so no alpha-renaming here). `None`
    /// marks a template that is unsafe to reuse — the candidates fall
    /// back to full per-candidate dependence analysis.
    dep_templates: Mutex<Bounded<u64, Option<Arc<DepSummary>>>>,
    /// Full-function compiles keyed by the *scheduled* fingerprint.
    /// Memory-only: `Compiled` holds lowered IR with no parser, so it
    /// cannot round-trip through the store — the serving layer persists
    /// its *rendered* responses instead (`Kind::Full`).
    full: Mutex<Bounded<u64, Arc<Compiled>>>,
    /// Simulated cycle counts of full schedules, keyed by the scheduled
    /// fingerprint — the beam search's frontier states. Memory-only: the
    /// count is only meaningful under this process's fixed seed/model,
    /// and a shared (daemon) cache re-serves it across beam searches of
    /// structurally repeated kernels.
    sim: Mutex<Bounded<u64, u64>>,
    /// Optional persistent spill/reload backing (see module docs).
    store: Option<Arc<ArtifactStore>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
    evictions: AtomicUsize,
}

impl Default for DseCache {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }
}

impl DseCache {
    /// A fresh, empty, memory-only cache with the default capacity.
    pub fn new() -> Self {
        Self::default()
    }

    /// A fresh cache bounded to `cap` entries per map.
    pub fn with_capacity(cap: usize) -> Self {
        DseCache {
            infeasible: Mutex::new(Bounded::new(cap)),
            group_qor: Mutex::new(Bounded::new(cap)),
            dep_templates: Mutex::new(Bounded::new(cap)),
            full: Mutex::new(Bounded::new(cap)),
            sim: Mutex::new(Bounded::new(cap)),
            store: None,
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            evictions: AtomicUsize::new(0),
        }
    }

    /// A cache backed by a persistent store: misses consult the store
    /// before computing, and computed values are spilled to it. The store
    /// shard must have been opened for the same `CompileOptions` this
    /// cache serves (the shard hash enforces it).
    pub fn with_store(store: Arc<ArtifactStore>) -> Self {
        DseCache {
            store: Some(store),
            ..Self::default()
        }
    }

    /// A cache backed by the store shard for `opts` under `root`, swept
    /// down to `max_bytes` on open when given (oldest artifacts first; a
    /// contended sweep — the store is open elsewhere — skips this time).
    /// No `root`, or a store that fails to open, gives a memory-only
    /// cache: the store is an accelerator, never a correctness
    /// dependency.
    pub fn open(root: Option<&Path>, max_bytes: Option<u64>, opts: &CompileOptions) -> Self {
        let Some(Ok(store)) = root.map(|r| ArtifactStore::open(r, opts)) else {
            return Self::new();
        };
        if let Some(max) = max_bytes {
            let _ = store.gc(max);
        }
        Self::with_store(Arc::new(store))
    }

    /// The persistent backing store, if any.
    pub fn store(&self) -> Option<&Arc<ArtifactStore>> {
        self.store.as_ref()
    }

    /// Lookups answered without computing — from memory or the store.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to compute their value.
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries dropped by capacity eviction, across all maps.
    pub fn evictions(&self) -> usize {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Live in-memory entries, across all maps.
    pub fn entries(&self) -> usize {
        locked(&self.infeasible).len()
            + locked(&self.group_qor).len()
            + locked(&self.dep_templates).len()
            + locked(&self.full).len()
            + locked(&self.sim).len()
    }

    /// Memoized simulated-cycle count of one full schedule, keyed by its
    /// scheduled [`fingerprint`]. Memory-only (see the field docs); the
    /// traffic counts toward `hits`/`misses` like any candidate-level
    /// lookup. The caller owns seeding discipline: every count cached
    /// here must come from the same deterministic seed and cost model.
    pub fn memo_sim(&self, key: u64, compute: impl FnOnce() -> u64) -> u64 {
        if let Some(&v) = locked(&self.sim).get(&key) {
            self.record(true);
            return v;
        }
        let v = compute();
        self.record(false);
        let n = locked(&self.sim).insert(key, v);
        self.evicted(n);
        v
    }

    fn record(&self, hit: bool) {
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn evicted(&self, n: usize) {
        if n > 0 {
            self.evictions.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Memoized pipeline-II feasibility verdict for one group
    /// configuration, keyed by
    /// [`GroupSlice::key`](crate::search::ladder::GroupSlice::key).
    pub fn memo_infeasible(&self, key: u64, compute: impl FnOnce() -> bool) -> bool {
        if let Some(&v) = locked(&self.infeasible).get(&key) {
            self.record(true);
            return v;
        }
        if let Some(v) = self.store.as_deref().and_then(|s| s.load_infeasible(key)) {
            self.record(true);
            let n = locked(&self.infeasible).insert(key, v);
            self.evicted(n);
            return v;
        }
        let v = compute();
        self.record(false);
        let n = locked(&self.infeasible).insert(key, v);
        self.evicted(n);
        if let Some(s) = self.store.as_deref() {
            s.save_infeasible(key, v);
        }
        v
    }

    /// Memoized `(latency, resources)` of one group configuration's
    /// sub-function compile, under the same key as
    /// [`DseCache::memo_infeasible`]. Errors are never cached — they
    /// abort the search anyway.
    pub fn memo_group_qor(
        &self,
        key: u64,
        compute: impl FnOnce() -> Result<(u64, ResourceUsage), CompileError>,
    ) -> Result<(u64, ResourceUsage), CompileError> {
        if let Some(&v) = locked(&self.group_qor).get(&key) {
            self.record(true);
            return Ok(v);
        }
        if let Some(v) = self.store.as_deref().and_then(|s| s.load_group_qor(key)) {
            self.record(true);
            let n = locked(&self.group_qor).insert(key, v);
            self.evicted(n);
            return Ok(v);
        }
        let v = compute()?;
        self.record(false);
        let n = locked(&self.group_qor).insert(key, v);
        self.evicted(n);
        if let Some(s) = self.store.as_deref() {
            s.save_group_qor(key, v.0, &v.1);
        }
        Ok(v)
    }

    /// Memoized dependence-summary template for one group (or the whole
    /// function), keyed by the plain [`fingerprint`] of its *untiled*
    /// schedule.
    /// `compute` returns `None` when the template cannot soundly stand in
    /// for the tiled candidates' summaries (see `dep_template` in
    /// `search::stage2`); the verdict itself is memoized either way — including
    /// through the store, where the persisted `none` saves the failed
    /// reuse probe, not just the successful analysis. Template traffic is
    /// deliberately not counted in `hits`/`misses` — those report
    /// candidate-level memoization only.
    pub fn memo_dep_template(
        &self,
        key: u64,
        compute: impl FnOnce() -> Option<DepSummary>,
    ) -> Option<Arc<DepSummary>> {
        if let Some(t) = locked(&self.dep_templates).get(&key) {
            return t.clone();
        }
        if let Some(t) = self.store.as_deref().and_then(|s| s.load_dep_template(key)) {
            let t = t.map(Arc::new);
            let n = locked(&self.dep_templates).insert(key, t.clone());
            self.evicted(n);
            return t;
        }
        let t = compute().map(Arc::new);
        let n = locked(&self.dep_templates).insert(key, t.clone());
        self.evicted(n);
        if let Some(s) = self.store.as_deref() {
            s.save_dep_template(key, t.as_deref());
        }
        t
    }

    /// Compiles a fully scheduled function through the cache: the repair
    /// walk-back loop, `auto_dse_with`'s final compile, and any repeated
    /// emission of the same schedule share one compile. `prepare` runs on
    /// a miss only and supplies `f`'s transformed statements and
    /// dependence summary — the search extends statements it already holds
    /// and, when a repair/retarget step only changed tile factors or
    /// pipeline IIs, reuses a dependence-summary template.
    ///
    /// # Errors
    ///
    /// Propagates the underlying [`CompileError`] (uncached).
    pub fn compile_full(
        &self,
        f: &Function,
        opts: &CompileOptions,
        acc: &PhaseAccum,
        prepare: impl FnOnce() -> Result<(Vec<StmtPoly>, DepSummary), CompileError>,
    ) -> Result<Arc<Compiled>, CompileError> {
        let fp = fingerprint(f);
        if let Some(c) = locked(&self.full).get(&fp) {
            self.record(true);
            return Ok(Arc::clone(c));
        }
        let (stmts, deps) = acc.time_lowering(prepare)?;
        let (c, times) = crate::compile::compile_prepared(f, stmts, deps, opts)?;
        acc.add(&times);
        self.record(false);
        let c = Arc::new(c);
        let n = locked(&self.full).insert(fp, Arc::clone(&c));
        self.evicted(n);
        Ok(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pom_dsl::DataType;

    fn tiny() -> Function {
        let mut f = Function::new("tiny");
        let i = f.var("i", 0, 8);
        let x = f.placeholder("X", &[8], DataType::F32);
        let y = f.placeholder("Y", &[8], DataType::F32);
        f.compute(
            "S",
            std::slice::from_ref(&i),
            x.at(&[&i]) * 2.0,
            y.access(&[&i]),
        );
        f
    }

    #[test]
    fn fingerprint_tracks_schedule_changes() {
        let f = tiny();
        let a = fingerprint(&f);
        let mut g = f.clone();
        assert_eq!(a, fingerprint(&g), "clone preserves the fingerprint");
        g.pipeline("S", "i", 1);
        assert_ne!(a, fingerprint(&g), "schedule edits change it");
    }

    #[test]
    fn stable_hasher_is_process_independent() {
        // FNV-1a reference vectors — if these hold, keys persisted by one
        // process mean the same thing in every other.
        let mut h = StableHasher::default();
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325, "offset basis");
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let f = tiny();
        assert_eq!(fingerprint(&f), fingerprint(&f.clone()));
    }

    #[test]
    fn full_compile_is_memoized() {
        let cache = DseCache::new();
        let acc = PhaseAccum::default();
        let f = tiny();
        let opts = CompileOptions::default();
        let prepare = || {
            let stmts = crate::compile::apply_schedule(&f);
            let deps = crate::compile::build_dep_summary(&f, &stmts, &opts.model);
            Ok((stmts, deps))
        };
        let a = cache
            .compile_full(&f, &opts, &acc, prepare)
            .expect("compiles");
        assert_eq!(cache.misses(), 1);
        let b = cache
            .compile_full(&f, &opts, &acc, || panic!("served from the cache"))
            .expect("compiles");
        assert_eq!(cache.hits(), 1);
        assert_eq!(a.qor, b.qor);
        assert!(acc.lowering() > Duration::ZERO);
    }

    #[test]
    fn group_memo_computes_once() {
        let cache = DseCache::new();
        let mut calls = 0;
        for _ in 0..3 {
            let v = cache.memo_infeasible(7, || {
                calls += 1;
                false
            });
            assert!(!v);
        }
        assert_eq!(calls, 1);
        assert_eq!(cache.hits(), 2);
    }

    #[test]
    fn bounded_cache_evicts_fifo() {
        let cache = DseCache::with_capacity(2);
        for key in 0..3u64 {
            cache.memo_infeasible(key, || false);
        }
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.entries(), 2);
        // Key 0 was evicted (oldest); recomputing it is a miss.
        let mut recomputed = false;
        cache.memo_infeasible(0, || {
            recomputed = true;
            false
        });
        assert!(recomputed, "FIFO evicts the oldest entry");
        // Key 2 survived.
        cache.memo_infeasible(2, || panic!("key 2 must still be cached"));
    }

    #[test]
    fn reinsert_does_not_evict() {
        let mut b: Bounded<u64, u64> = Bounded::new(2);
        assert_eq!(b.insert(1, 10), 0);
        assert_eq!(b.insert(2, 20), 0);
        assert_eq!(b.insert(1, 11), 0, "re-insert of a live key is free");
        assert_eq!(b.len(), 2);
        assert_eq!(b.get(&1), Some(&11));
    }

    #[test]
    fn poisoned_lock_recovers() {
        let cache = Arc::new(DseCache::new());
        let c2 = Arc::clone(&cache);
        // Poison the infeasible map's mutex by panicking while holding it.
        let _ = std::thread::spawn(move || {
            let _guard = c2.infeasible.lock().expect("first lock");
            panic!("poison the lock");
        })
        .join();
        // The cache must keep serving: this is the daemon-survival path.
        let v = cache.memo_infeasible(3, || true);
        assert!(v);
        assert!(cache.memo_infeasible(3, || panic!("must be cached")));
    }

    #[test]
    fn store_backed_cache_reloads_across_instances() {
        let root = std::env::temp_dir().join(format!("pom-cache-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let opts = CompileOptions::default();
        let store = Arc::new(ArtifactStore::open(&root, &opts).expect("opens"));
        let a = DseCache::with_store(Arc::clone(&store));
        a.memo_infeasible(1, || true);
        assert_eq!(
            a.memo_group_qor(2, || Ok((9, ResourceUsage::default())))
                .expect("qor")
                .0,
            9
        );
        // A *fresh* cache over the same store answers without computing.
        let b = DseCache::with_store(store);
        assert!(b.memo_infeasible(1, || panic!("served from store")));
        assert_eq!(
            b.memo_group_qor(2, || panic!("served from store"))
                .expect("qor")
                .0,
            9
        );
        assert_eq!(b.hits(), 2);
        assert_eq!(b.misses(), 0);
        let _ = std::fs::remove_dir_all(&root);
    }

    /// Builds a 2-statement function; `first` selects which statement is
    /// kept, mimicking two alpha-equivalent sub-functions.
    fn twin(first: bool) -> Function {
        let mut f = Function::new("twin");
        let n = 16usize;
        let a = f.placeholder("A", &[n, n], DataType::F32);
        let b = f.placeholder("B", &[n, n], DataType::F32);
        let (name, arr) = if first { ("S1", &a) } else { ("S2", &b) };
        let i = f.var(&format!("{name}_i"), 0, n as i64);
        let j = f.var(&format!("{name}_j"), 0, n as i64);
        f.compute(
            name,
            &[i.clone(), j.clone()],
            arr.at(&[&i, &j]) * 2.0,
            arr.access(&[&i, &j]),
        );
        f.pipeline(name, &format!("{name}_j"), 1);
        f
    }

    #[test]
    fn canonical_fingerprint_merges_alpha_equivalent_functions() {
        let a = twin(true);
        let b = twin(false);
        assert_ne!(fingerprint(&a), fingerprint(&b), "names differ verbatim");
        assert_eq!(
            canonical_fingerprint(&a),
            canonical_fingerprint(&b),
            "alpha-equivalent functions share the canonical fingerprint"
        );
        // A structural difference (extents) must still separate them.
        let mut c = Function::new("twin");
        let m = 8usize;
        let x = c.placeholder("A", &[m, m], DataType::F32);
        let _ = c.placeholder("B", &[16, 16], DataType::F32);
        let i = c.var("S1_i", 0, m as i64);
        let j = c.var("S1_j", 0, m as i64);
        c.compute(
            "S1",
            &[i.clone(), j.clone()],
            x.at(&[&i, &j]) * 2.0,
            x.access(&[&i, &j]),
        );
        c.pipeline("S1", "S1_j", 1);
        assert_ne!(
            canonical_fingerprint(&a),
            canonical_fingerprint(&c),
            "different extents must not merge"
        );
    }
}
