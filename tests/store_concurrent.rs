//! Concurrency guarantees of the on-disk artifact store (DESIGN.md §13).
//!
//! The store's contract is lock-free reads against atomically published
//! packs: a reader sees a whole, fsynced pack or none — never a torn one.
//! Values are pure functions of their key, so racing writers agree on
//! every record. These tests hammer one store directory from many threads
//! and from two real OS processes and assert no reader ever observes
//! corruption, and check that a live handle sees packs published after
//! it opened and that compaction keeps every record.

use pom::hls::ResourceUsage;
use pom::{ArtifactStore, CompileOptions};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const KEYS: u64 = 64;
const ROUNDS: usize = 6;

/// The canonical value for a key — every writer derives artifacts from
/// this, so any two writers racing on one key write identical bytes.
fn expected_qor(key: u64) -> (u64, ResourceUsage) {
    (
        key.wrapping_mul(0x9e37_79b9),
        ResourceUsage {
            dsp: key + 1,
            ff: key * 3,
            lut: key * 5,
            bram18k: key % 7,
        },
    )
}

fn expected_payload(key: u64) -> String {
    format!("payload for {key}\nline two {key}\n")
}

/// One worker's share of the hammering: interleave writes and reads over
/// the whole key space, asserting every successful read is exact.
fn hammer(store: &ArtifactStore, salt: u64) {
    for round in 0..ROUNDS {
        for key in 0..KEYS {
            // Stagger which keys each worker writes first so readers race
            // writers on keys they have not written themselves.
            let k = (key + salt * 17 + round as u64 * 31) % KEYS;
            let (latency, usage) = expected_qor(k);
            store.save_group_qor(k, latency, &usage);
            store.save_infeasible(k, k.is_multiple_of(3));
            store.save_full(k, &expected_payload(k));
            for p in 0..8u64 {
                let probe = (k + p * 11 + salt) % KEYS;
                if let Some(got) = store.load_group_qor(probe) {
                    assert_eq!(got, expected_qor(probe), "torn qor artifact");
                }
                if let Some(got) = store.load_infeasible(probe) {
                    assert_eq!(got, probe.is_multiple_of(3), "torn infeasibility artifact");
                }
                if let Some(got) = store.load_full(probe) {
                    assert_eq!(got, expected_payload(probe), "torn full artifact");
                }
            }
        }
    }
    assert_eq!(store.load_errors(), 0, "a reader observed a torn artifact");
}

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pom-store-conc-{tag}-{}", std::process::id()))
}

/// Every artifact on disk must parse and match its key's canonical value.
fn audit_disk(root: &Path) {
    let store = ArtifactStore::open(root, &CompileOptions::default()).unwrap();
    let mut seen = 0;
    for key in 0..KEYS {
        if let Some(got) = store.load_group_qor(key) {
            assert_eq!(got, expected_qor(key));
            seen += 1;
        }
        if let Some(got) = store.load_infeasible(key) {
            assert_eq!(got, key.is_multiple_of(3));
        }
        if let Some(got) = store.load_full(key) {
            assert_eq!(got, expected_payload(key));
        }
    }
    assert_eq!(store.load_errors(), 0, "disk audit found a torn artifact");
    assert!(seen > 0, "the hammer wrote nothing");
}

#[test]
fn threads_hammering_one_store_never_tear_artifacts() {
    let root = scratch("threads");
    let store =
        Arc::new(ArtifactStore::open(&root, &CompileOptions::default()).expect("store opens"));
    std::thread::scope(|s| {
        for salt in 0..4u64 {
            let store = Arc::clone(&store);
            s.spawn(move || hammer(&store, salt));
        }
    });
    drop(store);
    audit_disk(&root);
    let _ = std::fs::remove_dir_all(&root);
}

/// When re-invoked as a child (env-gated), this "test" is the subprocess
/// body for [`two_processes_hammering_one_store_never_corrupt_it`]; in a
/// normal run it is a no-op.
#[test]
fn store_hammer_child() {
    let Ok(dir) = std::env::var("POM_STORE_HAMMER_DIR") else {
        return;
    };
    let salt: u64 = std::env::var("POM_STORE_HAMMER_SALT")
        .expect("salt set with dir")
        .parse()
        .expect("salt is numeric");
    let store =
        ArtifactStore::open(Path::new(&dir), &CompileOptions::default()).expect("store opens");
    hammer(&store, salt);
}

#[test]
fn two_processes_hammering_one_store_never_corrupt_it() {
    let root = scratch("procs");
    let exe = std::env::current_exe().expect("test binary path");
    let children: Vec<std::process::Child> = (0..2)
        .map(|salt| {
            std::process::Command::new(&exe)
                .args(["store_hammer_child", "--exact", "--nocapture"])
                .env("POM_STORE_HAMMER_DIR", &root)
                .env("POM_STORE_HAMMER_SALT", salt.to_string())
                .stdout(std::process::Stdio::null())
                .stderr(std::process::Stdio::piped())
                .spawn()
                .expect("spawn child hammer process")
        })
        .collect();
    for child in children {
        let out = child.wait_with_output().expect("child completes");
        assert!(
            out.status.success(),
            "child hammer failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    audit_disk(&root);
    let _ = std::fs::remove_dir_all(&root);
}

/// The pack files in a store root's default shard.
fn pack_count(store: &ArtifactStore) -> usize {
    std::fs::read_dir(store.shard_dir().join("entries"))
        .expect("entries dir")
        .flatten()
        .filter(|e| e.path().extension().is_some_and(|x| x == "pack"))
        .count()
}

#[test]
fn a_live_handle_sees_packs_published_after_it_opened() {
    let root = scratch("rescan");
    let opts = CompileOptions::default();
    let a = ArtifactStore::open(&root, &opts).expect("store opens");
    assert_eq!(a.load_full(5), None);
    let b = ArtifactStore::open(&root, &opts).expect("store opens");
    b.save_full(5, &expected_payload(5));
    b.flush();
    assert_eq!(
        a.load_full(5),
        Some(expected_payload(5)),
        "the miss rescans"
    );
    assert_eq!((a.hits(), a.misses(), a.load_errors()), (1, 1, 0));
    drop((a, b));
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn seventeen_flushes_compact_to_one_pack() {
    let root = scratch("compact");
    let opts = CompileOptions::default();
    let flushes = pom::dse::store::MAX_PACKS as u64 + 1;
    for key in 0..flushes {
        let s = ArtifactStore::open(&root, &opts).expect("store opens");
        let (latency, usage) = expected_qor(key);
        s.save_group_qor(key, latency, &usage);
        s.flush();
        let packs = pack_count(&s);
        assert_eq!(
            packs,
            if key + 1 < flushes {
                key as usize + 1
            } else {
                1
            }
        );
    }
    let s = ArtifactStore::open(&root, &opts).expect("store opens");
    for key in 0..flushes {
        assert_eq!(s.load_group_qor(key), Some(expected_qor(key)));
    }
    assert_eq!(s.load_errors(), 0);
    assert_eq!(s.disk_usage()["qor"].0, flushes as usize);
    drop(s);
    let _ = std::fs::remove_dir_all(&root);
}
