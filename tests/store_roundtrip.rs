//! Persistence guarantees of the on-disk artifact store (DESIGN.md §13).
//!
//! Every artifact kind must survive a save/load round trip byte-for-byte
//! equivalent to the value that was saved, for arbitrary keys and values —
//! and anything that is *not* a well-formed artifact (truncation, bit
//! flips, a different compile configuration) must be rejected as a miss,
//! never surfaced as a wrong answer.

use pom::hls::estimate::Sharing;
use pom::hls::{CarriedDep, DepSummary, ResourceUsage};
use pom::{ArtifactStore, CompileOptions};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A unique scratch directory per call; cleaned up by the caller.
fn scratch(tag: &str) -> PathBuf {
    static CTR: AtomicUsize = AtomicUsize::new(0);
    let n = CTR.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("pom-store-rt-{tag}-{}-{n}", std::process::id()))
}

fn with_store<R>(tag: &str, f: impl FnOnce(&ArtifactStore, &PathBuf) -> R) -> R {
    let root = scratch(tag);
    let store = ArtifactStore::open(&root, &CompileOptions::default()).expect("store opens");
    let r = f(&store, &root);
    drop(store);
    let _ = std::fs::remove_dir_all(&root);
    r
}

fn dep_summary(entries: &[(String, String, u64, u64)]) -> DepSummary {
    let mut d = DepSummary::new();
    for (iv, array, distance, chain) in entries {
        d.insert(
            iv.clone(),
            CarriedDep {
                array: array.clone(),
                distance: *distance,
                chain_latency: *chain,
            },
        );
    }
    d
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn infeasible_round_trips(key in 0u64..u64::MAX, flag in 0u8..2) {
        let v = flag == 1;
        with_store("inf", |store, _| {
            store.save_infeasible(key, v);
            assert_eq!(store.load_infeasible(key), Some(v));
        });
    }

    #[test]
    fn group_qor_round_trips(
        key in 0u64..u64::MAX,
        latency in 0u64..u64::MAX,
        dsp in 0u64..u64::MAX,
        ff in 0u64..u64::MAX,
        lut in 0u64..u64::MAX,
        bram18k in 0u64..u64::MAX,
    ) {
        with_store("qor", |store, _| {
            let r = ResourceUsage { dsp, ff, lut, bram18k };
            store.save_group_qor(key, latency, &r);
            assert_eq!(store.load_group_qor(key), Some((latency, r)));
        });
    }

    #[test]
    fn dep_template_round_trips(
        key in 0u64..u64::MAX,
        raw in proptest::collection::vec(
            (0usize..16, 0usize..16, 1u64..1000, 0u64..1000),
            0..6,
        ),
    ) {
        let entries: Vec<(String, String, u64, u64)> = raw
            .into_iter()
            .map(|(iv, arr, dist, chain)| {
                (format!("iv{iv}"), format!("A{arr}"), dist, chain)
            })
            .collect();
        with_store("dep", |store, _| {
            let d = dep_summary(&entries);
            store.save_dep_template(key, Some(&d));
            assert_eq!(store.load_dep_template(key), Some(Some(d)));
        });
    }

    #[test]
    fn none_dep_template_round_trips(key in 0u64..u64::MAX) {
        with_store("depnone", |store, _| {
            store.save_dep_template(key, None);
            assert_eq!(store.load_dep_template(key), Some(None));
        });
    }

    #[test]
    fn full_payload_round_trips(
        key in 0u64..u64::MAX,
        raw in proptest::collection::vec(31u8..127, 0..400),
    ) {
        // Printable ASCII with embedded newlines (31 maps to '\n') — the
        // shape of a rendered serve response.
        let payload: String = raw
            .into_iter()
            .map(|b| if b == 31 { '\n' } else { b as char })
            .collect();
        with_store("full", |store, _| {
            store.save_full(key, &payload);
            assert_eq!(store.load_full(key), Some(payload.clone()));
        });
    }

    /// Flipping any byte of a pack makes a fresh handle's load a miss
    /// (counted as one load error) or the exact saved value — never
    /// another value, and never a panic.
    #[test]
    fn corrupted_artifacts_never_panic(
        key in 0u64..u64::MAX,
        latency in 0u64..u64::MAX,
        byte_pos in 0usize..4096,
        new_byte in 0u8..255,
    ) {
        with_store("corrupt", |store, root| {
            let r = ResourceUsage { dsp: 1, ff: 2, lut: 3, bram18k: 4 };
            store.save_group_qor(key, latency, &r);
            store.flush();
            let path = only_pack(store);
            let mut bytes = std::fs::read(&path).expect("pack exists");
            let i = byte_pos % bytes.len();
            bytes[i] = new_byte;
            std::fs::write(&path, &bytes).expect("rewrite");
            let fresh = ArtifactStore::open(root, &CompileOptions::default()).expect("opens");
            match fresh.load_group_qor(key) {
                Some(got) => assert_eq!(got, (latency, r), "a flip yielded another value"),
                None => assert_eq!(fresh.load_errors(), 1, "a miss is a counted rejection"),
            }
            assert!(fresh.load_errors() <= 1);
        });
    }
}

/// The one pack in the store's shard.
fn only_pack(store: &ArtifactStore) -> PathBuf {
    let packs: Vec<PathBuf> = std::fs::read_dir(store.shard_dir().join("entries"))
        .expect("entries dir")
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "pack"))
        .collect();
    assert_eq!(packs.len(), 1, "one flush, one pack");
    packs[0].clone()
}

#[test]
fn truncated_artifact_is_a_miss() {
    with_store("trunc", |store, root| {
        store.save_full(7, "a response body\nwith two lines\n");
        store.flush();
        let path = only_pack(store);
        let text = std::fs::read_to_string(&path).unwrap();
        // Cut inside the record's header line so it cannot be validated.
        let record = text.find('\n').unwrap() + 1;
        std::fs::write(&path, &text[..record + 10]).unwrap();
        let fresh = ArtifactStore::open(root, &CompileOptions::default()).unwrap();
        assert_eq!(fresh.load_full(7), None);
        assert_eq!(fresh.load_errors(), 1);
        // A cut inside the body fails the length check just the same.
        std::fs::write(&path, &text[..text.len() - 3]).unwrap();
        let fresh = ArtifactStore::open(root, &CompileOptions::default()).unwrap();
        assert_eq!(fresh.load_full(7), None);
        assert_eq!(fresh.load_errors(), 1);
    });
}

#[test]
fn different_compile_options_use_disjoint_shards() {
    let root = scratch("shards");
    let a = ArtifactStore::open(&root, &CompileOptions::default()).unwrap();
    let opts = CompileOptions {
        sharing: Sharing::Dataflow,
        ..CompileOptions::default()
    };
    let b = ArtifactStore::open(&root, &opts).unwrap();
    assert_ne!(a.shard_dir(), b.shard_dir(), "config must key the shard");
    a.save_infeasible(1, true);
    assert_eq!(
        b.load_infeasible(1),
        None,
        "artifacts must not cross configs"
    );
    drop((a, b));
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn reopened_store_serves_previous_process_writes() {
    let root = scratch("reopen");
    let opts = CompileOptions::default();
    {
        let store = ArtifactStore::open(&root, &opts).unwrap();
        store.save_infeasible(3, true);
        store.save_full(9, "payload survives reopen");
    }
    let store = ArtifactStore::open(&root, &opts).unwrap();
    assert_eq!(store.load_infeasible(3), Some(true));
    assert_eq!(store.load_full(9), Some("payload survives reopen".into()));
    assert_eq!(store.hits(), 2);
    drop(store);
    let _ = std::fs::remove_dir_all(&root);
}
