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
//!   entries/<kind>-<key>.art     one artifact per file
//! ```
//!
//! Cached values are pure functions of `(key, CompileOptions)`: the same
//! fingerprint means a different QoR under a different cost model, device,
//! sharing policy, or lint/verify setting. The shard directory name is a
//! stable hash of all of those plus [`SCHEMA_VERSION`], so an artifact
//! written under a stale cost model, an older schema, or a different
//! device is *never even looked at* — stale artifacts are ignored, not
//! migrated, and certainly never misused. The `header` file records the
//! hashed text verbatim; [`ArtifactStore::open`] re-derives and compares
//! it, refusing the shard on any mismatch (which can only mean
//! corruption, since the directory name commits to the same hash).
//!
//! ## Concurrency discipline
//!
//! Writers serialize each artifact to a unique tempfile in `entries/` and
//! `rename(2)` it over the final name. Renames are atomic on POSIX, so a
//! reader observes either no file or a complete artifact — never a torn
//! one. Racing writers for the same key write identical bytes (values are
//! pure functions of the key), so last-rename-wins is harmless.
//!
//! On top of that, every open store holds a *shared* advisory lock on the
//! shard's `lock` file for its lifetime, and destructive maintenance
//! ([`ArtifactStore::clear`]) requires the *exclusive* lock — so a GC can
//! never delete entries out from under a live reader, and readers never
//! block each other. The locks are advisory: they coordinate POM
//! processes, not arbitrary tools.
//!
//! Artifacts additionally carry a self-describing header line
//! (`pom-artifact v1 <kind> <key>`) validated on load; any artifact that
//! fails validation (wrong kind, wrong key, unparseable body — e.g. a
//! file truncated by a crashed writer *before* its rename, which cannot
//! happen, or plain disk corruption) is treated as a miss and counted in
//! [`ArtifactStore::load_errors`], never trusted.

use crate::cache::StableHasher;
use crate::compile::CompileOptions;
use pom_hls::{CarriedDep, DepSummary, ResourceUsage};
use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::hash::{Hash, Hasher};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Version of the on-disk artifact schema. Bump on any change to the
/// format or to what a key means: the version participates in the shard
/// hash, so old shards become unreachable rather than misread.
pub const SCHEMA_VERSION: u32 = 3;

/// The kinds of artifact the store holds, mirroring the [`DseCache`]
/// maps plus the serving layer's full-compile responses.
///
/// [`DseCache`]: crate::cache::DseCache
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
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
    /// Filename / header tag.
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
}

/// A shared on-disk artifact store (one shard of one store directory —
/// the shard for this process's `CompileOptions`). Cheap to clone behind
/// an `Arc`; every handle holds the shard's shared advisory lock.
#[derive(Debug)]
pub struct ArtifactStore {
    shard: PathBuf,
    entries: PathBuf,
    /// Holds the shared advisory lock for the store's lifetime.
    _lock: File,
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
    opts.lint.hash(&mut h);
    opts.verify.hash(&mut h);
    h.finish()
}

/// The header text committed to a shard (also what `open` validates).
fn header_text(opts: &CompileOptions) -> String {
    format!(
        "pom-store v{}\nconfig {:016x}\nmodel {:?}\ndevice {:?}\nsharing {:?}\nlint {} verify {}\n",
        SCHEMA_VERSION,
        config_hash(opts),
        opts.model,
        opts.device,
        opts.sharing,
        opts.lint,
        opts.verify,
    )
}

impl ArtifactStore {
    /// Opens (creating if needed) the shard of `root` matching `opts` and
    /// takes the shared advisory lock.
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
        Ok(ArtifactStore {
            shard,
            entries,
            _lock: lock,
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            writes: AtomicUsize::new(0),
            load_errors: AtomicUsize::new(0),
            write_errors: AtomicUsize::new(0),
            bytes_written: AtomicU64::new(0),
        })
    }

    /// The shard directory this handle reads and writes.
    pub fn shard_dir(&self) -> &Path {
        &self.shard
    }

    /// Loads answered from disk.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Loads that found no (valid) artifact.
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    /// Artifacts written by this handle.
    pub fn writes(&self) -> usize {
        self.writes.load(Ordering::Relaxed)
    }

    /// Artifacts that existed but failed validation (wrong header,
    /// unparseable body) — treated as misses, never trusted.
    pub fn load_errors(&self) -> usize {
        self.load_errors.load(Ordering::Relaxed)
    }

    /// Spills that failed with an I/O error (the store is best-effort:
    /// a full disk degrades to memory-only caching, it does not abort
    /// the search).
    pub fn write_errors(&self) -> usize {
        self.write_errors.load(Ordering::Relaxed)
    }

    /// Bytes written by this handle (tempfile payloads that renamed
    /// successfully).
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written.load(Ordering::Relaxed)
    }

    /// `(artifact count, payload bytes)` per kind, from a directory walk
    /// — the whole shard, not just this handle's writes.
    pub fn disk_usage(&self) -> BTreeMap<&'static str, (usize, u64)> {
        let mut out: BTreeMap<&'static str, (usize, u64)> =
            Kind::all().iter().map(|k| (k.tag(), (0, 0))).collect();
        let Ok(dir) = fs::read_dir(&self.entries) else {
            return out;
        };
        for e in dir.flatten() {
            let name = e.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some((tag, rest)) = name.split_once('-') else {
                continue;
            };
            if !rest.ends_with(".art") {
                continue;
            }
            if let Some(slot) = Kind::all()
                .iter()
                .find(|k| k.tag() == tag)
                .and_then(|k| out.get_mut(k.tag()))
            {
                slot.0 += 1;
                slot.1 += e.metadata().map(|m| m.len()).unwrap_or(0);
            }
        }
        out
    }

    /// Deletes every artifact in the shard. Requires the *exclusive*
    /// advisory lock, so it cannot race a live reader or writer.
    ///
    /// # Errors
    ///
    /// `WouldBlock` when another process holds the store open; other
    /// filesystem errors verbatim.
    pub fn clear(&self) -> io::Result<usize> {
        // Upgrade this handle's own shared lock to exclusive — flock
        // converts in place on the same descriptor — so the upgrade fails
        // with `WouldBlock` while *any other* handle (this process or
        // another) holds the store open. Downgrade back afterwards so the
        // handle keeps protecting readers for the rest of its lifetime.
        self._lock.try_lock().map_err(|e| match e {
            std::fs::TryLockError::WouldBlock => io::Error::new(
                io::ErrorKind::WouldBlock,
                "store is open elsewhere (shared lock held)",
            ),
            std::fs::TryLockError::Error(e) => e,
        })?;
        let result = (|| {
            let mut removed = 0usize;
            for e in fs::read_dir(&self.entries)?.flatten() {
                if e.path().extension().is_some_and(|x| x == "art")
                    && fs::remove_file(e.path()).is_ok()
                {
                    removed += 1;
                }
            }
            Ok(removed)
        })();
        let _ = self._lock.lock_shared();
        result
    }

    /// Sweeps the shard down to at most `max_bytes` of artifact payload,
    /// deleting oldest-modified artifacts first (the cache's natural
    /// notion of "least recently useful": artifacts are rewritten on
    /// save, never touched on load, so mtime orders by write recency).
    /// Returns the number of artifacts removed.
    ///
    /// Like [`ArtifactStore::clear`], this requires the *exclusive*
    /// advisory lock, so a sweep can never delete entries out from under
    /// a live reader in another process.
    ///
    /// # Errors
    ///
    /// `WouldBlock` when another handle holds the store open — callers
    /// treat a contended GC as "skip this time", never as fatal; other
    /// filesystem errors verbatim.
    pub fn gc(&self, max_bytes: u64) -> io::Result<usize> {
        self._lock.try_lock().map_err(|e| match e {
            std::fs::TryLockError::WouldBlock => io::Error::new(
                io::ErrorKind::WouldBlock,
                "store is open elsewhere (shared lock held)",
            ),
            std::fs::TryLockError::Error(e) => e,
        })?;
        let result = (|| {
            let mut arts: Vec<(std::time::SystemTime, u64, PathBuf)> = Vec::new();
            for e in fs::read_dir(&self.entries)?.flatten() {
                if e.path().extension().is_none_or(|x| x != "art") {
                    continue;
                }
                let Ok(meta) = e.metadata() else { continue };
                let mtime = meta.modified().unwrap_or(std::time::UNIX_EPOCH);
                arts.push((mtime, meta.len(), e.path()));
            }
            let mut total: u64 = arts.iter().map(|a| a.1).sum();
            // Oldest first; path tiebreak keeps the sweep deterministic
            // on filesystems with coarse mtime granularity.
            arts.sort();
            let mut removed = 0usize;
            for (_, len, path) in arts {
                if total <= max_bytes {
                    break;
                }
                if fs::remove_file(&path).is_ok() {
                    total = total.saturating_sub(len);
                    removed += 1;
                }
            }
            Ok(removed)
        })();
        let _ = self._lock.lock_shared();
        result
    }

    // ---- raw load/save ---------------------------------------------------

    fn entry_path(&self, kind: Kind, key: u64) -> PathBuf {
        self.entries.join(format!("{}-{key:016x}.art", kind.tag()))
    }

    /// Writes one artifact atomically (best-effort; errors are counted,
    /// not propagated — a failed spill only costs a future recompute).
    fn save(&self, kind: Kind, key: u64, body: &str) {
        let text = format!("pom-artifact v1 {} {key:016x}\n{body}", kind.tag());
        match write_atomic(&self.entries, &self.entry_path(kind, key), text.as_bytes()) {
            Ok(()) => {
                self.writes.fetch_add(1, Ordering::Relaxed);
                self.bytes_written
                    .fetch_add(text.len() as u64, Ordering::Relaxed);
            }
            Err(_) => {
                self.write_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Loads and validates one artifact's body, `None` on absence or any
    /// validation failure.
    fn load(&self, kind: Kind, key: u64) -> Option<String> {
        let text = match fs::read_to_string(self.entry_path(kind, key)) {
            Ok(t) => t,
            Err(_) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        let expected = format!("pom-artifact v1 {} {key:016x}", kind.tag());
        match text.split_once('\n') {
            Some((header, body)) if header == expected => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(body.to_string())
            }
            _ => {
                self.load_errors.fetch_add(1, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    // ---- typed artifacts -------------------------------------------------

    /// Spills an infeasibility verdict.
    pub fn save_infeasible(&self, key: u64, v: bool) {
        self.save(Kind::Infeasible, key, if v { "true\n" } else { "false\n" });
    }

    /// Loads an infeasibility verdict.
    pub fn load_infeasible(&self, key: u64) -> Option<bool> {
        match self.load(Kind::Infeasible, key)?.trim() {
            "true" => Some(true),
            "false" => Some(false),
            _ => {
                self.load_errors.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
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
        let body = self.load(Kind::GroupQor, key)?;
        let mut vals = [0u64; 5];
        let names = ["latency", "dsp", "ff", "lut", "bram18k"];
        let mut lines = body.lines();
        for (slot, name) in vals.iter_mut().zip(names) {
            let line = lines.next()?;
            let (k, v) = line.split_once(' ')?;
            if k != name {
                self.load_errors.fetch_add(1, Ordering::Relaxed);
                return None;
            }
            *slot = match v.parse() {
                Ok(n) => n,
                Err(_) => {
                    self.load_errors.fetch_add(1, Ordering::Relaxed);
                    return None;
                }
            };
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
    }

    /// Spills a dependence-summary template (`None` = template proven
    /// unsafe to reuse; that verdict is itself worth persisting).
    pub fn save_dep_template(&self, key: u64, t: Option<&DepSummary>) {
        let body = match t {
            None => "none\n".to_string(),
            Some(d) => {
                // Sort for deterministic bytes: racing writers must
                // produce identical artifacts.
                let mut rows: Vec<String> = d
                    .loops()
                    .map(|iv| {
                        let c = d.carried_at(iv).expect("loops() yields carried keys");
                        format!(
                            "carried {iv} {} {} {}\n",
                            c.array, c.distance, c.chain_latency
                        )
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
        let body = self.load(Kind::DepTemplate, key)?;
        let mut lines = body.lines();
        match lines.next() {
            Some("none") => Some(None),
            Some("some") => {
                let mut d = DepSummary::new();
                for line in lines {
                    let mut it = line.split(' ');
                    let (tag, iv, array, dist, chain) =
                        (it.next(), it.next(), it.next(), it.next(), it.next());
                    let (Some("carried"), Some(iv), Some(array), Some(dist), Some(chain)) =
                        (tag, iv, array, dist, chain)
                    else {
                        self.load_errors.fetch_add(1, Ordering::Relaxed);
                        return None;
                    };
                    let (Ok(distance), Ok(chain_latency)) = (dist.parse(), chain.parse()) else {
                        self.load_errors.fetch_add(1, Ordering::Relaxed);
                        return None;
                    };
                    d.insert(
                        iv,
                        CarriedDep {
                            array: array.to_string(),
                            distance,
                            chain_latency,
                        },
                    );
                }
                Some(Some(d))
            }
            _ => {
                self.load_errors.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Spills a full-compile serving artifact: the payload is stored
    /// verbatim, so a warm response is byte-identical to the cold one
    /// that produced it *by construction*.
    pub fn save_full(&self, key: u64, payload: &str) {
        self.save(Kind::Full, key, payload);
    }

    /// Loads a full-compile serving artifact.
    pub fn load_full(&self, key: u64) -> Option<String> {
        self.load(Kind::Full, key)
    }
}

/// Writes `bytes` to `final_path` via a unique tempfile in `dir` plus an
/// atomic rename. The tempfile name includes the PID and a per-call
/// counter, so concurrent processes (and threads) never collide.
fn write_atomic(dir: &Path, final_path: &Path, bytes: &[u8]) -> io::Result<()> {
    use std::sync::atomic::AtomicU64 as Ctr;
    static CTR: Ctr = Ctr::new(0);
    let tmp = dir.join(format!(
        ".tmp-{}-{}",
        std::process::id(),
        CTR.fetch_add(1, Ordering::Relaxed)
    ));
    let mut f = File::create(&tmp)?;
    f.write_all(bytes)?;
    // Flush file contents before the rename publishes the name; a crash
    // between write and rename leaves only an ignored tempfile behind.
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

    #[test]
    fn typed_artifacts_round_trip() {
        let root = tmp_root("roundtrip");
        let opts = CompileOptions::default();
        let s = ArtifactStore::open(&root, &opts).expect("opens");
        s.save_infeasible(7, true);
        assert_eq!(s.load_infeasible(7), Some(true));
        let r = ResourceUsage {
            dsp: 1,
            ff: 22,
            lut: 333,
            bram18k: 4,
        };
        s.save_group_qor(9, 12345, &r);
        assert_eq!(s.load_group_qor(9), Some((12345, r)));
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
        assert_eq!(s.load_dep_template(13), Some(Some(d)));
        s.save_dep_template(14, None);
        assert_eq!(s.load_dep_template(14), Some(None));
        s.save_full(15, "payload\nwith lines\n");
        assert_eq!(s.load_full(15).as_deref(), Some("payload\nwith lines\n"));
        assert_eq!(s.load_errors(), 0);
        assert!(s.bytes_written() > 0);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn absent_and_corrupt_artifacts_are_misses() {
        let root = tmp_root("corrupt");
        let opts = CompileOptions::default();
        let s = ArtifactStore::open(&root, &opts).expect("opens");
        assert_eq!(s.load_infeasible(99), None);
        assert_eq!(s.misses(), 1);
        // A torn/garbage artifact must never be trusted.
        fs::write(s.entry_path(Kind::Infeasible, 99), "garbage").expect("write");
        assert_eq!(s.load_infeasible(99), None);
        assert_eq!(s.load_errors(), 1);
        // Wrong-key content under the right name fails the header check.
        fs::write(
            s.entry_path(Kind::Infeasible, 100),
            "pom-artifact v1 inf 0000000000000063\ntrue\n",
        )
        .expect("write");
        assert_eq!(s.load_infeasible(100), None, "key 0x63 != 100 is rejected");
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
        s.save_infeasible(2, false);
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
        assert_eq!(removed, 2);
        assert_eq!(s.load_infeasible(1), None);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn gc_sweeps_oldest_first_down_to_budget() {
        let root = tmp_root("gc");
        let opts = CompileOptions::default();
        let s = ArtifactStore::open(&root, &opts).expect("opens");
        // Three artifacts with strictly increasing mtimes.
        for (i, key) in [1u64, 2, 3].iter().enumerate() {
            s.save_infeasible(*key, true);
            let t = std::time::SystemTime::UNIX_EPOCH
                + std::time::Duration::from_secs(1_000_000 + i as u64);
            let f = File::options()
                .write(true)
                .open(s.entry_path(Kind::Infeasible, *key))
                .expect("opens artifact");
            f.set_modified(t).expect("sets mtime");
        }
        let total: u64 = s.disk_usage().values().map(|v| v.1).sum();
        let one = total / 3;
        // Budget for two artifacts: the oldest (key 1) goes, 2 and 3 stay.
        let removed = s.gc(2 * one + 1).expect("sweeps");
        assert_eq!(removed, 1);
        assert_eq!(s.load_infeasible(1), None, "oldest artifact swept");
        assert_eq!(s.load_infeasible(2), Some(true));
        assert_eq!(s.load_infeasible(3), Some(true));
        // Already within budget: a second sweep is a no-op.
        assert_eq!(s.gc(2 * one + 1).expect("sweeps"), 0);
        // A zero budget empties the shard.
        assert_eq!(s.gc(0).expect("sweeps"), 2);
        // A second live handle blocks the sweep, like clear().
        s.save_infeasible(9, true);
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
        let usage = s.disk_usage();
        assert_eq!(usage["dep"].0, 1);
        assert_eq!(usage["inf"].0, 2);
        assert!(usage["inf"].1 > 0);
        assert_eq!(usage["qor"].0, 0);
        let _ = fs::remove_dir_all(&root);
    }
}
