//! Persistent content-addressed artifact store: the on-disk half of the
//! [`DseCache`](crate::cache::DseCache).
//!
//! Every `pomc` invocation used to be a cold process — the in-memory
//! memos (candidate QoR, infeasibility verdicts, dependence-summary
//! templates) died at exit, so structurally repeated layers paid full
//! price again in the next run. This store spills those entries to a
//! shared directory keyed by the cache's stable fingerprints, so repeated
//! work hits across *processes and users*, not just within one search.
//!
//! ## Layout and invalidation
//!
//! ```text
//! <root>/<config-hash>/          one shard per compile configuration
//!   header                       schema version + the hashed config text
//!   lock                         advisory lock file (see below)
//!   entries/<fnv>.pack           one pack per flush, named by the FNV-1a
//!                                hash of its contents
//! ```
//!
//! A pack is the line `pom-pack` followed by records, sorted by kind and
//! key. Each record is a header line `<kind> <key> <len> <fnv>` and then
//! `len` body bytes; the FNV-1a checksum covers kind, key and body.
//!
//! Cached values are pure functions of `(key, CompileOptions)`: the same
//! fingerprint means a different QoR under a different cost model, device,
//! sharing policy, or verify setting. The shard directory name is a
//! stable hash of all of those plus [`SCHEMA_VERSION`], so an artifact
//! written under a stale cost model, an older schema, or a different
//! device is *never even looked at* — stale artifacts are ignored, not
//! migrated, and certainly never misused. The `header` file records the
//! hashed text verbatim; [`ArtifactStore::open`] re-derives and compares
//! it, refusing the shard on any mismatch (which can only mean
//! corruption, since the directory name commits to the same hash).
//!
//! ## Buffering, flushing and loading
//!
//! A handle keeps an in-memory index `(kind, key) → body` of every record
//! it has read or saved. [`ArtifactStore::open`] reads every pack into
//! it; a save only inserts into it and queues the record;
//! [`ArtifactStore::flush`] publishes the queued records as one pack (a
//! search flushes once, on every exit, and `Drop` flushes the rest). A
//! load answers from the index. On a miss the handle rescans `entries/`
//! — reading only packs it has not seen — if the directory's mtime has
//! moved since the last scan, or if that scan was too recent for a later
//! change to be sure to move it (coarse filesystem timestamps). So a
//! long-lived handle still sees packs other processes publish.
//!
//! A flush that would leave more than [`MAX_PACKS`] packs indexed writes
//! the union of the indexed packs and its queued records as one pack, and
//! only after that pack is renamed into place unlinks exactly the packs it
//! merged: no content is ever absent from the directory, so compaction
//! needs no exclusive lock, and the cost of `open` stays bounded.
//!
//! ## Concurrency discipline
//!
//! Writers serialize each pack to a unique tempfile in `entries/`,
//! `sync_all` it and `rename(2)` it over the final name. Renames are
//! atomic on POSIX, so a reader observes a whole, fsynced pack or none —
//! never a torn one. Pack names are content hashes and records are
//! sorted, so racing writers of the same records publish one file.
//!
//! On top of that, every open store holds a *shared* advisory lock on the
//! shard's `lock` file for its lifetime, and destructive maintenance
//! ([`ArtifactStore::clear`], [`ArtifactStore::gc`]) requires the
//! *exclusive* lock — so a GC can never delete packs out from under a
//! live reader, and readers never block each other. The locks are
//! advisory: they coordinate POM processes, not arbitrary tools.
//!
//! A record whose header, length or checksum does not verify (disk
//! corruption, a truncated file) is counted in
//! [`ArtifactStore::load_errors`]; it and the rest of its pack are never
//! trusted, so their keys load as misses.

use crate::cache::StableHasher;
use crate::compile::CompileOptions;
use pom_hls::{CarriedDep, DepSummary, ResourceUsage};
use pom_poly::fnv;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::ffi::OsString;
use std::fs::{self, File, OpenOptions};
use std::hash::{Hash, Hasher};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, SystemTime};

/// Version of the on-disk artifact schema. Bump on any change to the
/// format or to what a key means: the version participates in the shard
/// hash, so old shards become unreachable rather than misread.
pub const SCHEMA_VERSION: u32 = 4;

/// Most packs a flush leaves indexed; one more and it merges them all.
pub const MAX_PACKS: usize = 16;

/// First line of every pack.
const PACK_MAGIC: &[u8] = b"pom-pack\n";

/// Prefix of the tempfiles [`write_atomic`] renames into place.
const TMP_PREFIX: &str = ".tmp-";

/// How long after a scan a change to `entries/` might still leave the
/// directory's mtime where the scan saw it. Filesystem timestamps come
/// from a coarse clock (a scheduler tick on Linux); a second covers it.
const RACY: Duration = Duration::from_secs(1);

/// The kinds of artifact the store holds, mirroring the [`DseCache`]
/// maps plus the serving layer's full-compile responses.
///
/// [`DseCache`]: crate::cache::DseCache
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Kind {
    /// `pipeline_infeasible` verdict of one configuration of a group,
    /// keyed by [`GroupSlice::key`]: the stable hash of the group's
    /// *unscheduled* sub-function's canonical fingerprint, the tile
    /// vector, the parallel levels and the nest depth.
    ///
    /// [`GroupSlice::key`]: crate::search::ladder::GroupSlice::key
    Infeasible,
    /// `(latency, resources)` of one configuration of a group compiled as
    /// a sub-function (same key as [`Kind::Infeasible`]).
    GroupQor,
    /// Dependence-summary template of a group, or of the whole function,
    /// keyed by the plain fingerprint of its *untiled* schedule; `none`
    /// marks a template proven unsafe to reuse.
    DepTemplate,
    /// A full compile's rendered serving artifact — schedule, QoR, and
    /// emitted HLS C — keyed by the input function's plain fingerprint.
    Full,
}

impl Kind {
    /// Record header tag.
    pub fn tag(self) -> &'static str {
        match self {
            Kind::Infeasible => "inf",
            Kind::GroupQor => "qor",
            Kind::DepTemplate => "dep",
            Kind::Full => "full",
        }
    }

    /// Every kind, for directory accounting.
    pub fn all() -> [Kind; 4] {
        [
            Kind::Infeasible,
            Kind::GroupQor,
            Kind::DepTemplate,
            Kind::Full,
        ]
    }

    fn from_tag(tag: &str) -> Option<Kind> {
        Kind::all().into_iter().find(|k| k.tag() == tag)
    }
}

/// What one handle knows of its shard.
#[derive(Debug, Default)]
struct Index {
    /// Every trusted record: those of the indexed packs plus this
    /// handle's unflushed saves.
    records: HashMap<(Kind, u64), Arc<str>>,
    /// Saves not yet published, in save order.
    pending: Vec<(Kind, u64)>,
    /// Packs in `entries/` whose records are in `records` (or were
    /// rejected), by file name.
    packs: HashSet<OsString>,
    /// `entries/` mtime when it was last scanned.
    stamp: Option<SystemTime>,
    /// The last scan was within [`RACY`] of `stamp`: a change since may
    /// not have moved the mtime, so the next miss rescans anyway.
    racy: bool,
}

/// A shared on-disk artifact store (one shard of one store directory —
/// the shard for this process's `CompileOptions`). Share it behind an
/// `Arc`; every handle holds the shard's shared advisory lock.
#[derive(Debug)]
pub struct ArtifactStore {
    shard: PathBuf,
    entries: PathBuf,
    /// Holds the shared advisory lock for the store's lifetime.
    lock: File,
    index: Mutex<Index>,
    hits: AtomicUsize,
    misses: AtomicUsize,
    writes: AtomicUsize,
    load_errors: AtomicUsize,
    write_errors: AtomicUsize,
    bytes_written: AtomicU64,
}

/// Stable hash of everything a cached value depends on besides its key.
pub fn config_hash(opts: &CompileOptions) -> u64 {
    let mut h = StableHasher::default();
    SCHEMA_VERSION.hash(&mut h);
    // Debug renderings are single-line and cover every field; a cost-model
    // or device edit lands in a fresh shard automatically.
    format!("{:?}", opts.model).hash(&mut h);
    format!("{:?}", opts.device).hash(&mut h);
    format!("{:?}", opts.sharing).hash(&mut h);
    h.finish()
}

/// The header text committed to a shard (also what `open` validates).
fn header_text(opts: &CompileOptions) -> String {
    format!(
        "pom-store v{}\nconfig {:016x}\nmodel {:?}\ndevice {:?}\nsharing {:?}\n",
        SCHEMA_VERSION,
        config_hash(opts),
        opts.model,
        opts.device,
        opts.sharing,
    )
}

/// Locks the index, recovering it from a poisoned lock: every update is
/// a whole insert or a whole swap, so a panicking holder leaves at worst
/// a record unpublished, which only costs a recompute.
fn locked(m: &Mutex<Index>) -> MutexGuard<'_, Index> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl ArtifactStore {
    /// Opens (creating if needed) the shard of `root` matching `opts`,
    /// takes the shared advisory lock and reads every pack.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; returns `InvalidData` when the shard
    /// header exists but does not match `opts` (corruption — the shard
    /// name commits to the same hash). Callers degrade to memory-only
    /// caching on error.
    pub fn open(root: &Path, opts: &CompileOptions) -> io::Result<ArtifactStore> {
        let shard = root.join(format!("{:016x}", config_hash(opts)));
        let entries = shard.join("entries");
        fs::create_dir_all(&entries)?;
        let lock = OpenOptions::new()
            .create(true)
            .truncate(false)
            .read(true)
            .write(true)
            .open(shard.join("lock"))?;
        lock.lock_shared()?;
        let header_path = shard.join("header");
        let expected = header_text(opts);
        match fs::read_to_string(&header_path) {
            Ok(found) if found == expected => {}
            Ok(_) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "store shard header does not match this configuration",
                ));
            }
            Err(_) => {
                // First process to open the shard publishes the header
                // atomically; a racing writer publishes identical bytes.
                write_atomic(&shard, &header_path, expected.as_bytes())?;
            }
        }
        let store = ArtifactStore {
            shard,
            entries,
            lock,
            index: Mutex::default(),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            writes: AtomicUsize::new(0),
            load_errors: AtomicUsize::new(0),
            write_errors: AtomicUsize::new(0),
            bytes_written: AtomicU64::new(0),
        };
        store.scan(&mut locked(&store.index));
        Ok(store)
    }

    /// The shard directory this handle reads and writes.
    pub fn shard_dir(&self) -> &Path {
        &self.shard
    }

    /// Loads answered with a valid value.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Loads that found no (valid) artifact.
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    /// Records this handle has published.
    pub fn writes(&self) -> usize {
        self.writes.load(Ordering::Relaxed)
    }

    /// Records that failed validation — a pack record whose length or
    /// checksum does not verify, or a body that does not decode as its
    /// kind — treated as misses, never trusted.
    pub fn load_errors(&self) -> usize {
        self.load_errors.load(Ordering::Relaxed)
    }

    /// Records whose pack failed to publish with an I/O error (the store
    /// is best-effort: a full disk degrades to memory-only caching, it
    /// does not abort the search).
    pub fn write_errors(&self) -> usize {
        self.write_errors.load(Ordering::Relaxed)
    }

    /// Bytes of the packs this handle published.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written.load(Ordering::Relaxed)
    }

    /// `(distinct records, body bytes)` per kind, read from the packs on
    /// disk now — the whole shard, not just this handle's writes.
    pub fn disk_usage(&self) -> BTreeMap<&'static str, (usize, u64)> {
        let mut seen: HashMap<(Kind, u64), usize> = HashMap::new();
        for (_, path) in self.listing(is_pack) {
            if let Ok(bytes) = fs::read(&path) {
                for (kind, key, body) in decode_pack(&bytes).0 {
                    seen.insert((kind, key), body.len());
                }
            }
        }
        let mut out: BTreeMap<&'static str, (usize, u64)> =
            Kind::all().iter().map(|k| (k.tag(), (0, 0))).collect();
        for ((kind, _), len) in seen {
            if let Some(slot) = out.get_mut(kind.tag()) {
                slot.0 += 1;
                slot.1 += len as u64;
            }
        }
        out
    }

    /// Deletes every pack in the shard, any tempfile a killed writer
    /// left behind, and this handle's unflushed records. Returns the
    /// number of packs removed. Requires the *exclusive* advisory lock,
    /// so it cannot race a live reader or writer.
    ///
    /// # Errors
    ///
    /// `WouldBlock` when another process holds the store open; other
    /// filesystem errors verbatim.
    pub fn clear(&self) -> io::Result<usize> {
        self.exclusive(|| {
            self.remove_tempfiles();
            let mut removed = 0usize;
            for (_, path) in self.listing(is_pack) {
                if fs::remove_file(path).is_ok() {
                    removed += 1;
                }
            }
            *locked(&self.index) = Index::default();
            Ok(removed)
        })
    }

    /// Sweeps the shard down to at most `max_bytes` of packs, deleting
    /// oldest-modified packs first (packs are written once and never
    /// touched on load, so mtime orders by write recency), and removes
    /// any tempfile a killed writer left behind. Returns the number of
    /// packs removed; their records leave this handle's index too.
    ///
    /// Like [`ArtifactStore::clear`], this requires the *exclusive*
    /// advisory lock, so a sweep can never delete packs out from under a
    /// live reader in another process.
    ///
    /// # Errors
    ///
    /// `WouldBlock` when another handle holds the store open — callers
    /// treat a contended GC as "skip this time", never as fatal; other
    /// filesystem errors verbatim.
    pub fn gc(&self, max_bytes: u64) -> io::Result<usize> {
        self.exclusive(|| {
            self.remove_tempfiles();
            let mut packs: Vec<(SystemTime, u64, PathBuf)> = Vec::new();
            for (_, path) in self.listing(is_pack) {
                let Ok(meta) = fs::metadata(&path) else {
                    continue;
                };
                let mtime = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
                packs.push((mtime, meta.len(), path));
            }
            let mut total: u64 = packs.iter().map(|p| p.1).sum();
            // Oldest first; path tiebreak keeps the sweep deterministic
            // on filesystems with coarse mtime granularity.
            packs.sort();
            let mut removed = 0usize;
            for (_, len, path) in packs {
                if total <= max_bytes {
                    break;
                }
                if fs::remove_file(&path).is_ok() {
                    total = total.saturating_sub(len);
                    removed += 1;
                }
            }
            if removed > 0 {
                // Forget the swept records: keep the unflushed ones and
                // re-read what is left.
                let mut idx = locked(&self.index);
                let pending: HashSet<(Kind, u64)> = idx.pending.iter().copied().collect();
                idx.records.retain(|k, _| pending.contains(k));
                idx.packs.clear();
                self.scan(&mut idx);
            }
            Ok(removed)
        })
    }

    /// Publishes every record saved since the last flush as one pack
    /// (merging all indexed packs into it when they would number more
    /// than [`MAX_PACKS`]). Best-effort: an I/O error is counted in
    /// [`ArtifactStore::write_errors`], the records stay in memory.
    pub fn flush(&self) {
        let (fresh, records, merged) = {
            let mut idx = locked(&self.index);
            if idx.pending.is_empty() {
                return;
            }
            self.refresh(&mut idx);
            let mut keys = std::mem::take(&mut idx.pending);
            keys.sort_unstable();
            keys.dedup();
            let fresh = keys.len();
            let merged: Vec<OsString> = if idx.packs.len() >= MAX_PACKS {
                keys = idx.records.keys().copied().collect();
                keys.sort_unstable();
                idx.packs.iter().cloned().collect()
            } else {
                Vec::new()
            };
            let records: Vec<(Kind, u64, Arc<str>)> = keys
                .into_iter()
                .filter_map(|k| idx.records.get(&k).map(|b| (k.0, k.1, Arc::clone(b))))
                .collect();
            (fresh, records, merged)
        };
        // Encode and fsync outside the lock: loads go on meanwhile.
        let bytes = encode_pack(&records);
        let name = OsString::from(format!("{:016x}.pack", fnv::fnv1a64(&bytes)));
        match write_atomic(&self.entries, &self.entries.join(&name), &bytes) {
            Ok(()) => {
                self.writes.fetch_add(fresh, Ordering::Relaxed);
                self.bytes_written
                    .fetch_add(bytes.len() as u64, Ordering::Relaxed);
                let mut idx = locked(&self.index);
                for old in merged.iter().filter(|&old| *old != name) {
                    let _ = fs::remove_file(self.entries.join(old));
                    idx.packs.remove(old);
                }
                idx.packs.insert(name);
            }
            Err(_) => {
                self.write_errors.fetch_add(fresh, Ordering::Relaxed);
            }
        }
    }

    // ---- index maintenance ---------------------------------------------

    /// Runs `f` under the exclusive lock. This handle's own shared lock
    /// upgrades in place — flock converts on the same descriptor — so
    /// the upgrade fails with `WouldBlock` while *any other* handle (this
    /// process or another) holds the store open; it is downgraded back
    /// afterwards so the handle keeps protecting readers.
    fn exclusive<R>(&self, f: impl FnOnce() -> io::Result<R>) -> io::Result<R> {
        self.lock.try_lock().map_err(|e| match e {
            fs::TryLockError::WouldBlock => io::Error::new(
                io::ErrorKind::WouldBlock,
                "store is open elsewhere (shared lock held)",
            ),
            fs::TryLockError::Error(e) => e,
        })?;
        let result = f();
        let _ = self.lock.lock_shared();
        result
    }

    /// `(file name, path)` of the entries whose name passes `keep`.
    fn listing(&self, keep: impl Fn(&OsString) -> bool) -> Vec<(OsString, PathBuf)> {
        let Ok(dir) = fs::read_dir(&self.entries) else {
            return Vec::new();
        };
        dir.flatten()
            .map(|e| (e.file_name(), e.path()))
            .filter(|(n, _)| keep(n))
            .collect()
    }

    /// Removes stray tempfiles of killed writers, in `entries/` and in
    /// the shard (where the header is published). Only sound under the
    /// exclusive lock: no live handle can be mid-write.
    fn remove_tempfiles(&self) {
        for dir in [&self.entries, &self.shard] {
            for e in fs::read_dir(dir).into_iter().flatten().flatten() {
                if e.file_name().to_string_lossy().starts_with(TMP_PREFIX) {
                    let _ = fs::remove_file(e.path());
                }
            }
        }
    }

    /// Rescans `entries/` if something may have changed since the last
    /// scan.
    fn refresh(&self, idx: &mut Index) {
        if idx.racy || dir_mtime(&self.entries) != idx.stamp {
            self.scan(idx);
        }
    }

    /// Reads every pack in `entries/` the index has not seen and forgets
    /// the names of packs that are gone (merged or swept).
    fn scan(&self, idx: &mut Index) {
        // Stamp before listing: a change during the listing moves the
        // mtime past the stamp, so the next miss looks again.
        let stamp = dir_mtime(&self.entries);
        let mut present = HashSet::new();
        for (name, path) in self.listing(is_pack) {
            if !idx.packs.contains(&name) {
                // A pack merged away since the listing is simply gone;
                // its records are in the pack that replaced it.
                let Ok(bytes) = fs::read(&path) else { continue };
                let (records, bad) = decode_pack(&bytes);
                if bad {
                    self.load_errors.fetch_add(1, Ordering::Relaxed);
                }
                for (kind, key, body) in records {
                    idx.records
                        .entry((kind, key))
                        .or_insert_with(|| body.into());
                }
            }
            present.insert(name);
        }
        idx.packs = present;
        idx.racy = stamp.is_none_or(|m| {
            SystemTime::now()
                .duration_since(m)
                .is_ok_and(|age| age < RACY)
        });
        idx.stamp = stamp;
    }

    // ---- raw load/save ---------------------------------------------------

    /// Queues one record for the next flush; it loads from this handle at
    /// once. Values are pure functions of their keys, so an equal record
    /// already known is not queued again.
    fn save(&self, kind: Kind, key: u64, body: &str) {
        let mut idx = locked(&self.index);
        if idx.records.get(&(kind, key)).is_some_and(|b| **b == *body) {
            return;
        }
        idx.records.insert((kind, key), body.into());
        idx.pending.push((kind, key));
    }

    /// Loads one record and decodes it. A hit is a record that decodes;
    /// a record that does not is one miss and one load error.
    fn load<T>(&self, kind: Kind, key: u64, decode: impl FnOnce(&str) -> Option<T>) -> Option<T> {
        let body = {
            let mut idx = locked(&self.index);
            if !idx.records.contains_key(&(kind, key)) {
                self.refresh(&mut idx);
            }
            idx.records.get(&(kind, key)).cloned()
        };
        let value = body.and_then(|b| {
            let v = decode(&b);
            if v.is_none() {
                self.load_errors.fetch_add(1, Ordering::Relaxed);
            }
            v
        });
        let counter = if value.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        value
    }

    // ---- typed artifacts -------------------------------------------------

    /// Spills an infeasibility verdict.
    pub fn save_infeasible(&self, key: u64, v: bool) {
        self.save(Kind::Infeasible, key, if v { "true\n" } else { "false\n" });
    }

    /// Loads an infeasibility verdict.
    pub fn load_infeasible(&self, key: u64) -> Option<bool> {
        self.load(Kind::Infeasible, key, |body| match body.trim() {
            "true" => Some(true),
            "false" => Some(false),
            _ => None,
        })
    }

    /// Spills a group's `(latency, resources)`.
    pub fn save_group_qor(&self, key: u64, latency: u64, r: &ResourceUsage) {
        self.save(
            Kind::GroupQor,
            key,
            &format!(
                "latency {latency}\ndsp {}\nff {}\nlut {}\nbram18k {}\n",
                r.dsp, r.ff, r.lut, r.bram18k
            ),
        );
    }

    /// Loads a group's `(latency, resources)`.
    pub fn load_group_qor(&self, key: u64) -> Option<(u64, ResourceUsage)> {
        self.load(Kind::GroupQor, key, |body| {
            let mut vals = [0u64; 5];
            let names = ["latency", "dsp", "ff", "lut", "bram18k"];
            let mut lines = body.lines();
            for (slot, name) in vals.iter_mut().zip(names) {
                let (k, v) = lines.next()?.split_once(' ')?;
                if k != name {
                    return None;
                }
                *slot = v.parse().ok()?;
            }
            Some((
                vals[0],
                ResourceUsage {
                    dsp: vals[1],
                    ff: vals[2],
                    lut: vals[3],
                    bram18k: vals[4],
                },
            ))
        })
    }

    /// Spills a dependence-summary template (`None` = template proven
    /// unsafe to reuse; that verdict is itself worth persisting).
    pub fn save_dep_template(&self, key: u64, t: Option<&DepSummary>) {
        let body = match t {
            None => "none\n".to_string(),
            Some(d) => {
                // Sort for deterministic bytes: racing writers must
                // produce identical records.
                let mut rows: Vec<String> = d
                    .loops()
                    .filter_map(|iv| {
                        let c = d.carried_at(iv)?;
                        Some(format!(
                            "carried {iv} {} {} {}\n",
                            c.array, c.distance, c.chain_latency
                        ))
                    })
                    .collect();
                rows.sort();
                format!("some\n{}", rows.concat())
            }
        };
        self.save(Kind::DepTemplate, key, &body);
    }

    /// Loads a dependence-summary template. Outer `None` = no artifact;
    /// inner `None` = the memoized "unsafe to reuse" verdict.
    #[allow(clippy::option_option)]
    pub fn load_dep_template(&self, key: u64) -> Option<Option<DepSummary>> {
        self.load(Kind::DepTemplate, key, |body| {
            let mut lines = body.lines();
            match lines.next()? {
                "none" => Some(None),
                "some" => {
                    let mut d = DepSummary::new();
                    for line in lines {
                        let mut it = line.split(' ');
                        let (Some("carried"), Some(iv), Some(array), Some(dist), Some(chain)) =
                            (it.next(), it.next(), it.next(), it.next(), it.next())
                        else {
                            return None;
                        };
                        d.insert(
                            iv,
                            CarriedDep {
                                array: array.to_string(),
                                distance: dist.parse().ok()?,
                                chain_latency: chain.parse().ok()?,
                            },
                        );
                    }
                    Some(Some(d))
                }
                _ => None,
            }
        })
    }

    /// Spills a full-compile serving artifact: the payload is stored
    /// verbatim, so a warm response is byte-identical to the cold one
    /// that produced it *by construction*.
    pub fn save_full(&self, key: u64, payload: &str) {
        self.save(Kind::Full, key, payload);
    }

    /// Loads a full-compile serving artifact.
    pub fn load_full(&self, key: u64) -> Option<String> {
        self.load(Kind::Full, key, |body| Some(body.to_string()))
    }
}

impl Drop for ArtifactStore {
    /// Publishes whatever is still unflushed.
    fn drop(&mut self) {
        self.flush();
    }
}

fn is_pack(name: &OsString) -> bool {
    Path::new(name).extension().is_some_and(|x| x == "pack")
}

fn dir_mtime(dir: &Path) -> Option<SystemTime> {
    fs::metadata(dir).and_then(|m| m.modified()).ok()
}

/// FNV-1a over a record's kind, key and body.
fn checksum(kind: Kind, key: u64, body: &[u8]) -> u64 {
    let h = fnv::fnv1a64(kind.tag().as_bytes());
    fnv::extend(fnv::extend(h, &key.to_le_bytes()), body)
}

/// The bytes of a pack holding `records`, in the order given.
fn encode_pack(records: &[(Kind, u64, Arc<str>)]) -> Vec<u8> {
    let mut out = PACK_MAGIC.to_vec();
    for (kind, key, body) in records {
        let sum = checksum(*kind, *key, body.as_bytes());
        out.extend_from_slice(
            format!("{} {key:016x} {} {sum:016x}\n", kind.tag(), body.len()).as_bytes(),
        );
        out.extend_from_slice(body.as_bytes());
    }
    out
}

/// One decoded record: kind, key and body.
type Record<'a> = (Kind, u64, &'a str);

/// The records of a pack up to the first that does not verify, and
/// whether one did not (a bad first line rejects the whole pack).
fn decode_pack(bytes: &[u8]) -> (Vec<Record<'_>>, bool) {
    let Some(mut rest) = bytes.strip_prefix(PACK_MAGIC) else {
        return (Vec::new(), true);
    };
    let mut records = Vec::new();
    while !rest.is_empty() {
        match decode_record(rest) {
            Some((record, tail)) => {
                records.push(record);
                rest = tail;
            }
            None => return (records, true),
        }
    }
    (records, false)
}

/// One record off the front of `rest`, and what follows it.
fn decode_record(rest: &[u8]) -> Option<(Record<'_>, &[u8])> {
    let nl = rest.iter().position(|&b| b == b'\n')?;
    let header = std::str::from_utf8(&rest[..nl]).ok()?;
    let mut fields = header.split(' ');
    let (Some(tag), Some(key), Some(len), Some(sum), None) = (
        fields.next(),
        fields.next(),
        fields.next(),
        fields.next(),
        fields.next(),
    ) else {
        return None;
    };
    let kind = Kind::from_tag(tag)?;
    let key = u64::from_str_radix(key, 16).ok()?;
    let sum = u64::from_str_radix(sum, 16).ok()?;
    let end = (nl + 1).checked_add(len.parse().ok()?)?;
    let body = rest.get(nl + 1..end)?;
    if checksum(kind, key, body) != sum {
        return None;
    }
    Some(((kind, key, std::str::from_utf8(body).ok()?), &rest[end..]))
}

/// Writes `bytes` to `final_path` via a unique tempfile in `dir` plus an
/// atomic rename. The tempfile name includes the PID and a per-call
/// counter, so concurrent processes (and threads) never collide.
fn write_atomic(dir: &Path, final_path: &Path, bytes: &[u8]) -> io::Result<()> {
    static CTR: AtomicU64 = AtomicU64::new(0);
    let tmp = dir.join(format!(
        "{TMP_PREFIX}{}-{}",
        std::process::id(),
        CTR.fetch_add(1, Ordering::Relaxed)
    ));
    let mut f = File::create(&tmp)?;
    f.write_all(bytes)?;
    // Flush file contents before the rename publishes the name; a crash
    // between write and rename leaves only a tempfile, which readers
    // ignore and `clear`/`gc` remove.
    f.sync_all()?;
    drop(f);
    match fs::rename(&tmp, final_path) {
        Ok(()) => Ok(()),
        Err(e) => {
            let _ = fs::remove_file(&tmp);
            Err(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_root(tag: &str) -> PathBuf {
        let p = std::env::temp_dir().join(format!("pom-store-unit-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&p);
        p
    }

    /// The pack files in the shard, sorted by name.
    fn packs(s: &ArtifactStore) -> Vec<PathBuf> {
        let mut v: Vec<PathBuf> = s.listing(is_pack).into_iter().map(|p| p.1).collect();
        v.sort();
        v
    }

    #[test]
    fn typed_artifacts_round_trip() {
        let root = tmp_root("roundtrip");
        let opts = CompileOptions::default();
        let s = ArtifactStore::open(&root, &opts).expect("opens");
        s.save_infeasible(7, true);
        let r = ResourceUsage {
            dsp: 1,
            ff: 22,
            lut: 333,
            bram18k: 4,
        };
        s.save_group_qor(9, 12345, &r);
        let mut d = DepSummary::new();
        d.insert(
            "k",
            CarriedDep {
                array: "A".into(),
                distance: 1,
                chain_latency: 4,
            },
        );
        s.save_dep_template(13, Some(&d));
        s.save_dep_template(14, None);
        s.save_full(15, "payload\nwith lines\n");
        s.flush();
        assert_eq!(packs(&s).len(), 1, "one flush, one pack");
        assert_eq!(s.writes(), 5);
        assert!(s.bytes_written() > 0);
        // The saving handle and a fresh one (reading the pack) agree.
        let fresh = ArtifactStore::open(&root, &opts).expect("opens");
        for h in [&s, &fresh] {
            assert_eq!(h.load_infeasible(7), Some(true));
            assert_eq!(h.load_group_qor(9), Some((12345, r)));
            assert_eq!(h.load_dep_template(13), Some(Some(d.clone())));
            assert_eq!(h.load_dep_template(14), Some(None));
            assert_eq!(h.load_full(15).as_deref(), Some("payload\nwith lines\n"));
            assert_eq!((h.hits(), h.load_errors()), (5, 0));
        }
        drop((s, fresh));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn absent_and_corrupt_artifacts_are_misses() {
        let root = tmp_root("corrupt");
        let opts = CompileOptions::default();
        let s = ArtifactStore::open(&root, &opts).expect("opens");
        assert_eq!(s.load_infeasible(99), None);
        assert_eq!(s.misses(), 1);
        // A torn/garbage pack must never be trusted; the miss rescans and
        // finds it.
        fs::write(s.entries.join("garbage.pack"), "garbage").expect("write");
        assert_eq!(s.load_infeasible(99), None);
        assert_eq!(s.load_errors(), 1);
        // A verified record answers only for its own key: 0x63 != 100.
        let record = [(Kind::Infeasible, 0x63, Arc::from("true\n"))];
        fs::write(s.entries.join("key63.pack"), encode_pack(&record)).expect("write");
        assert_eq!(s.load_infeasible(100), None, "key 0x63 != 100 is rejected");
        assert_eq!(s.load_infeasible(0x63), Some(true));
        // A wrong checksum rejects the record and the rest of its pack.
        let mut bytes = encode_pack(&[
            (Kind::Infeasible, 100, Arc::from("true\n")),
            (Kind::Infeasible, 101, Arc::from("true\n")),
        ]);
        let sum = PACK_MAGIC.len() + "inf 0000000000000064 5 ".len();
        bytes[sum] = if bytes[sum] == b'0' { b'1' } else { b'0' };
        fs::write(s.entries.join("badsum.pack"), bytes).expect("write");
        assert_eq!(s.load_infeasible(100), None);
        assert_eq!(
            s.load_infeasible(101),
            None,
            "the rest of the pack is untrusted"
        );
        assert_eq!(s.load_errors(), 2);
        drop(s);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn rejected_bodies_are_one_miss_and_one_load_error() {
        let root = tmp_root("short");
        let s = ArtifactStore::open(&root, &CompileOptions::default()).expect("opens");
        // Too short to hold five fields, and a line without a value.
        s.save(Kind::GroupQor, 5, "latency 5\n");
        s.save(Kind::GroupQor, 6, "latency 5\ndsp\n");
        s.save(Kind::Infeasible, 7, "maybe\n");
        s.save(Kind::DepTemplate, 8, "some\ncarried i A x 1\n");
        assert_eq!(s.load_group_qor(5), None);
        assert_eq!(s.load_group_qor(6), None);
        assert_eq!(s.load_infeasible(7), None);
        assert_eq!(s.load_dep_template(8), None);
        assert_eq!((s.hits(), s.misses(), s.load_errors()), (0, 4, 4));
        drop(s);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn different_configs_use_disjoint_shards() {
        let root = tmp_root("shards");
        let a_opts = CompileOptions::default();
        let mut b_opts = CompileOptions::default();
        b_opts.model.ports_per_bank += 1;
        let a = ArtifactStore::open(&root, &a_opts).expect("opens");
        let b = ArtifactStore::open(&root, &b_opts).expect("opens");
        assert_ne!(a.shard_dir(), b.shard_dir());
        a.save_infeasible(1, true);
        assert_eq!(
            b.load_infeasible(1),
            None,
            "stale-config artifact is invisible"
        );
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn clear_requires_exclusive_lock_and_empties_shard() {
        let root = tmp_root("clear");
        let opts = CompileOptions::default();
        let s = ArtifactStore::open(&root, &opts).expect("opens");
        s.save_infeasible(1, true);
        s.flush();
        s.save_infeasible(2, false);
        s.flush();
        s.save_infeasible(3, false);
        // A handle's own shared lock upgrades in place; a *second* open
        // handle would block the upgrade (exercised cross-process in
        // tests/store_concurrent.rs).
        let removed = s.clear().expect("clears");
        let s2 = ArtifactStore::open(&root, &opts).expect("opens");
        assert_eq!(
            s.clear().map_err(|e| e.kind()),
            Err(io::ErrorKind::WouldBlock),
            "another live handle blocks clear"
        );
        drop(s2);
        assert_eq!(removed, 2, "both packs");
        assert_eq!(s.load_infeasible(1), None);
        assert_eq!(s.load_infeasible(3), None, "unflushed records go too");
        assert!(packs(&s).is_empty());
        assert!(s.disk_usage().values().all(|v| *v == (0, 0)));
        drop(s);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn clear_and_gc_remove_orphaned_tempfiles() {
        let root = tmp_root("tmpfiles");
        let s = ArtifactStore::open(&root, &CompileOptions::default()).expect("opens");
        s.save_infeasible(1, true);
        s.flush();
        // What a writer killed between create and rename leaves behind.
        let strays = [s.entries.join(".tmp-1-1"), s.shard.join(".tmp-1-2")];
        let sweeps: [fn(&ArtifactStore) -> io::Result<usize>; 2] =
            [ArtifactStore::clear, |s| s.gc(u64::MAX)];
        for sweep in sweeps {
            for stray in &strays {
                fs::write(stray, "half a pack").expect("plant");
            }
            sweep(&s).expect("sweeps");
            assert!(strays.iter().all(|p| !p.exists()), "tempfiles reclaimed");
        }
        drop(s);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn gc_sweeps_oldest_first_down_to_budget() {
        let root = tmp_root("gc");
        let opts = CompileOptions::default();
        let s = ArtifactStore::open(&root, &opts).expect("opens");
        // Three packs of one record each, with strictly increasing mtimes.
        for (i, key) in [1u64, 2, 3].iter().enumerate() {
            let before = packs(&s);
            s.save_infeasible(*key, true);
            s.flush();
            let new = packs(&s).into_iter().find(|p| !before.contains(p));
            let t = SystemTime::UNIX_EPOCH + Duration::from_secs(1_000_000 + i as u64);
            let f = File::options()
                .write(true)
                .open(new.expect("flush wrote a pack"))
                .expect("opens pack");
            f.set_modified(t).expect("sets mtime");
        }
        let sizes: Vec<u64> = packs(&s)
            .iter()
            .map(|p| fs::metadata(p).expect("stat").len())
            .collect();
        assert!(sizes.iter().all(|&n| n == sizes[0]), "same-size packs");
        let one = sizes[0];
        // Budget for two packs: the oldest (key 1) goes, 2 and 3 stay.
        let removed = s.gc(2 * one + 1).expect("sweeps");
        assert_eq!(removed, 1);
        assert_eq!(s.load_infeasible(1), None, "oldest pack swept");
        assert_eq!(s.load_infeasible(2), Some(true));
        assert_eq!(s.load_infeasible(3), Some(true));
        // Already within budget: a second sweep is a no-op.
        assert_eq!(s.gc(2 * one + 1).expect("sweeps"), 0);
        // A zero budget empties the shard.
        assert_eq!(s.gc(0).expect("sweeps"), 2);
        assert_eq!(s.load_infeasible(3), None);
        // A second live handle blocks the sweep, like clear().
        s.save_infeasible(9, true);
        s.flush();
        let s2 = ArtifactStore::open(&root, &opts).expect("opens");
        assert_eq!(
            s.gc(0).map_err(|e| e.kind()),
            Err(io::ErrorKind::WouldBlock),
            "another live handle blocks gc"
        );
        drop(s2);
        assert_eq!(
            s.load_infeasible(9),
            Some(true),
            "contended sweep removed nothing"
        );
        let fresh = ArtifactStore::open(&root, &opts).expect("opens");
        assert_eq!(fresh.load_infeasible(9), Some(true), "still on disk");
        drop((s, fresh));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn disk_usage_counts_by_kind() {
        let root = tmp_root("usage");
        let opts = CompileOptions::default();
        let s = ArtifactStore::open(&root, &opts).expect("opens");
        s.save_dep_template(1, None);
        s.save_infeasible(2, false);
        s.save_infeasible(3, true);
        assert_eq!(s.disk_usage()["inf"].0, 0, "nothing on disk before a flush");
        s.flush();
        // The same record published again in a second pack counts once.
        let t = ArtifactStore::open(&root, &opts).expect("opens");
        t.save_infeasible(4, true);
        t.save_infeasible(2, false);
        t.flush();
        let usage = s.disk_usage();
        assert_eq!(usage["dep"].0, 1);
        assert_eq!(usage["inf"].0, 3);
        assert_eq!(
            usage["inf"].1,
            ("false\n".len() + 2 * "true\n".len()) as u64
        );
        assert_eq!(usage["qor"].0, 0);
        drop((s, t));
        let _ = fs::remove_dir_all(&root);
    }
}
