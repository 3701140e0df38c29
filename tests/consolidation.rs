//! Differential merge-equivalence battery for structural consolidation.
//!
//! The acceptance criteria of the re-encryption-free level merges: a
//! manager consolidating **structurally** (merged levels assembled by
//! copying the input instances' ciphertext verbatim) must answer every
//! query identically to one consolidating via the paper's baseline
//! **rebuild** (merge, filter, re-encrypt under a fresh key) — across
//! seeds, storage backends and shard layouts — while performing **zero**
//! payload decrypt/encrypt calls on the merge path, and while its
//! compacted owner sidecars stay bounded by the live-id population rather
//! than growing with the raw update log.

use rand::SeedableRng;
use rand_chacha::ChaCha20Rng;
use rsse::core::schemes::log_brc_urc::LogScheme;
use rsse::crypto::{decrypt_call_count, encrypt_call_count};
use rsse::prelude::*;
use rsse::sse::test_support::TempDir;
use rsse::updates::manifest::OWNER_META_FILE;
use rsse::updates::OwnerKey;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

type LogManager = UpdateManager<LogScheme>;

const DOMAIN: u64 = 1 << 10;

/// The cipher-call counters are process-global; every test in this binary
/// serializes on this lock so the counter-delta assertions below are not
/// polluted by a concurrently running build.
static CIPHER_LOCK: Mutex<()> = Mutex::new(());

fn owner_key() -> OwnerKey {
    OwnerKey::from_bytes([77u8; 32])
}

/// One storage configuration of the battery's backend axis.
#[derive(Clone, Copy)]
enum Backend {
    InMemory,
    /// On disk with a deliberately tight block-cache budget, so merged
    /// shards are exercised through paged reads and cache eviction.
    OnDiskBudgeted,
}

fn config(backend: Backend, root: &Path, shard_bits: u32, mode: ConsolidationMode) -> UpdateConfig {
    UpdateConfig {
        consolidation_step: 3,
        shard_bits,
        storage_root: match backend {
            Backend::InMemory => None,
            Backend::OnDiskBudgeted => Some(root.to_path_buf()),
        },
        cache_budget: match backend {
            Backend::InMemory => None,
            Backend::OnDiskBudgeted => Some(32 << 10),
        },
        build_budget: None,
        consolidation_mode: mode,
    }
}

/// Deterministic churn for batch `b`: fresh inserts plus modifications and
/// deletions against earlier batches, so consolidations carry live tuples,
/// superseded versions and tombstones all at once.
fn batch_entries(seed: u64, b: u64) -> Vec<UpdateEntry> {
    let mut entries: Vec<UpdateEntry> = (0..10u64)
        .map(|i| UpdateEntry::insert(b * 20 + i, (seed * 71 + b * 97 + i * 13) % DOMAIN))
        .collect();
    if b > 0 {
        entries.push(UpdateEntry::modify(
            (b - 1) * 20 + (b % 7),
            (seed * 31 + b * 53) % DOMAIN,
        ));
        entries.push(UpdateEntry::delete(
            (b - 1) * 20 + 1,
            (seed * 71 + (b - 1) * 97 + 13) % DOMAIN,
        ));
    }
    entries
}

fn drive(manager: &mut LogManager, seed: u64, batches: u64) {
    for b in 0..batches {
        let mut rng = ChaCha20Rng::seed_from_u64(seed * 10_000 + b);
        manager.ingest_batch(batch_entries(seed, b), &mut rng);
    }
}

fn query_mix() -> Vec<Range> {
    vec![
        Range::new(0, DOMAIN - 1),
        Range::new(0, 127),
        Range::new(200, 500),
        Range::new(700, DOMAIN - 1),
    ]
}

fn sorted(mut ids: Vec<DocId>) -> Vec<DocId> {
    ids.sort_unstable();
    ids
}

/// Sorted per-range answers: the cross-mode comparison key. (Structural
/// and rebuild instances emit ids in different internal orders, so answer
/// equivalence is set equality; the full `QueryOutcome` including stats is
/// compared *within* a mode across backends, below.)
fn answers(manager: &LogManager) -> Vec<Vec<DocId>> {
    query_mix()
        .into_iter()
        .map(|range| sorted(manager.query(range).ids))
        .collect()
}

/// The tentpole differential: structural vs rebuild consolidation over
/// identical batch streams must produce identical answers — checked after
/// every single batch so a divergence pins the exact consolidation that
/// introduced it — across seeds × backends × shard layouts.
#[test]
fn structural_answers_match_rebuild_across_seeds_backends_and_layouts() {
    let _guard = CIPHER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for seed in [3u64, 17] {
        for shard_bits in [0u32, 3] {
            for backend in [Backend::InMemory, Backend::OnDiskBudgeted] {
                let root_s = TempDir::new("diff-structural");
                let root_r = TempDir::new("diff-rebuild");
                let mut structural = LogManager::with_key(
                    owner_key(),
                    Domain::new(DOMAIN),
                    config(
                        backend,
                        root_s.path(),
                        shard_bits,
                        ConsolidationMode::Structural,
                    ),
                );
                let mut rebuild = LogManager::with_key(
                    owner_key(),
                    Domain::new(DOMAIN),
                    config(
                        backend,
                        root_r.path(),
                        shard_bits,
                        ConsolidationMode::Rebuild,
                    ),
                );
                for b in 0..10u64 {
                    let mut rng_s = ChaCha20Rng::seed_from_u64(seed * 10_000 + b);
                    let mut rng_r = ChaCha20Rng::seed_from_u64(seed * 10_000 + b);
                    structural.ingest_batch(batch_entries(seed, b), &mut rng_s);
                    rebuild.ingest_batch(batch_entries(seed, b), &mut rng_r);
                    assert_eq!(
                        answers(&structural),
                        answers(&rebuild),
                        "modes diverged after batch {b} (seed {seed}, shard_bits {shard_bits})"
                    );
                }
                // Both telescoped the same way; only the strategy differs.
                assert_eq!(structural.consolidations(), rebuild.consolidations());
                assert!(structural.consolidations() > 0);
                assert_eq!(structural.rebuild_consolidations(), 0);
                assert_eq!(rebuild.structural_consolidations(), 0);
                assert!(structural.structural_instances() > 0);
                // And both agree with the owner's plaintext bookkeeping.
                for range in query_mix() {
                    assert_eq!(
                        sorted(structural.query(range).ids),
                        sorted(structural.ground_truth(range))
                    );
                }
            }
        }
    }
}

/// Within the structural mode, the full query outcome — ids in emission
/// order plus every `QueryStats` counter — and the index statistics must
/// be identical whichever backend serves the merged shards: the on-disk
/// merge writes byte-identical entries to what the in-memory merge holds
/// in RAM.
#[test]
fn structural_outcomes_are_backend_invariant() {
    let _guard = CIPHER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let seed = 9u64;
    for shard_bits in [0u32, 2] {
        let root = TempDir::new("backend-inv");
        let mut in_memory = LogManager::with_key(
            owner_key(),
            Domain::new(DOMAIN),
            config(
                Backend::InMemory,
                root.path(),
                shard_bits,
                ConsolidationMode::Structural,
            ),
        );
        let mut on_disk = LogManager::with_key(
            owner_key(),
            Domain::new(DOMAIN),
            config(
                Backend::OnDiskBudgeted,
                root.path(),
                shard_bits,
                ConsolidationMode::Structural,
            ),
        );
        drive(&mut in_memory, seed, 9);
        drive(&mut on_disk, seed, 9);
        assert!(on_disk.structural_consolidations() > 0);
        for range in query_mix() {
            assert_eq!(
                in_memory.try_query(range).unwrap(),
                on_disk.try_query(range).unwrap(),
                "backends diverged on {range:?} (shard_bits {shard_bits})"
            );
        }
        assert_eq!(in_memory.index_stats(), on_disk.index_stats());
    }
}

/// A structurally consolidated root reopens — structurally — and answers
/// byte-identically, including after further ingests: the compacted owner
/// sidecar (deduped latest-per-id log + part seeds) carries the complete
/// owner state.
#[test]
fn structural_root_reopens_byte_identically_and_keeps_ingesting() {
    let _guard = CIPHER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let seed = 21u64;
    let root = TempDir::new("structural-reopen");
    let cfg = config(
        Backend::OnDiskBudgeted,
        root.path(),
        2,
        ConsolidationMode::Structural,
    );
    let mut manager = LogManager::with_key(owner_key(), Domain::new(DOMAIN), cfg.clone());
    drive(&mut manager, seed, 10);
    assert!(manager.structural_consolidations() > 0);
    let reference: Vec<QueryOutcome> = query_mix()
        .into_iter()
        .map(|range| manager.try_query(range).unwrap())
        .collect();
    let counters = (
        manager.structural_consolidations(),
        manager.rebuild_consolidations(),
        manager.structural_instances(),
    );
    drop(manager);

    let mut reopened = LogManager::open_root(owner_key(), root.path(), cfg).unwrap();
    let replayed: Vec<QueryOutcome> = query_mix()
        .into_iter()
        .map(|range| reopened.try_query(range).unwrap())
        .collect();
    assert_eq!(replayed, reference);
    assert_eq!(
        (
            reopened.structural_consolidations(),
            reopened.rebuild_consolidations(),
            reopened.structural_instances(),
        ),
        counters,
        "the manifest carries the split consolidation counters"
    );

    // The reopened manager keeps consolidating structurally.
    for b in 10..14u64 {
        let mut rng = ChaCha20Rng::seed_from_u64(seed * 10_000 + b);
        reopened.ingest_batch(batch_entries(seed, b), &mut rng);
    }
    assert!(reopened.structural_consolidations() > counters.0);
    for range in query_mix() {
        assert_eq!(
            sorted(reopened.query(range).ids),
            sorted(reopened.ground_truth(range))
        );
    }
}

/// The re-encryption-free claim, asserted mechanically via the global
/// cipher-call counters: driving the same batch stream through
///
/// * a manager that never consolidates,
/// * a structurally consolidating manager, and
/// * a rebuild-consolidating manager
///
/// must show (a) the structural manager's extra encrypt calls over the
/// never-consolidating one are only the per-merge sidecar seals — not one
/// per payload entry, (b) the rebuild manager re-encrypts entire levels,
/// and (c) **zero** decrypt calls on any ingest path.
#[test]
fn structural_merges_neither_decrypt_nor_reencrypt_payloads() {
    let _guard = CIPHER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let seed = 5u64;
    let batches = 9u64;
    let mut deltas: Vec<(u64, u64)> = Vec::new(); // (encrypts, decrypts)
    for (mode, step) in [
        (ConsolidationMode::Rebuild, 0usize), // never consolidates
        (ConsolidationMode::Structural, 3),
        (ConsolidationMode::Rebuild, 3),
    ] {
        let root = TempDir::new("cipher-count");
        let cfg = UpdateConfig {
            consolidation_step: step,
            ..config(Backend::OnDiskBudgeted, root.path(), 2, mode)
        };
        let mut manager = LogManager::with_key(owner_key(), Domain::new(DOMAIN), cfg);
        let (enc0, dec0) = (encrypt_call_count(), decrypt_call_count());
        drive(&mut manager, seed, batches);
        deltas.push((encrypt_call_count() - enc0, decrypt_call_count() - dec0));
        if step > 0 {
            assert!(manager.consolidations() > 0);
        }
    }
    let (flat, structural, rebuild) = (deltas[0], deltas[1], deltas[2]);

    // (c) No ingest path — batch builds, structural merges, rebuilds —
    // ever decrypts a payload.
    assert_eq!(flat.1, 0, "batch builds must not decrypt");
    assert_eq!(structural.1, 0, "structural merges must not decrypt");
    assert_eq!(rebuild.1, 0, "rebuild merges must not decrypt");

    // (a) Structural consolidation adds at most a constant number of
    // encrypt calls per merge (the compacted sidecar seal) on top of the
    // batch builds themselves — with batches of ~12 entries each, even a
    // single re-encrypted level would blow this bound.
    let merges = 4u64; // 9 batches at s = 3: three level-0 merges + one level-1
    assert!(
        structural.0 <= flat.0 + merges,
        "structural ingest made {} encrypt calls vs {} without consolidation — \
         the merge path must not re-encrypt payloads",
        structural.0,
        flat.0
    );

    // (b) The rebuild strategy re-encrypts whole merged levels.
    assert!(
        rebuild.0 > structural.0 + merges,
        "rebuild ({}) should far exceed structural ({})",
        rebuild.0,
        structural.0
    );
}

/// Every `owner.meta` sidecar under the root, as `(path, size)`.
fn sidecar_sizes(root: &Path) -> Vec<(PathBuf, u64)> {
    let mut sizes: Vec<(PathBuf, u64)> = std::fs::read_dir(root)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.is_dir())
        .filter_map(|dir| {
            let meta = dir.join(OWNER_META_FILE);
            meta.metadata().ok().map(|m| (meta, m.len()))
        })
        .collect();
    sizes.sort();
    sizes
}

/// Owner-log compaction: across many consolidation rounds of a churning
/// workload (every batch deletes most of what the previous one inserted),
/// the consolidated sidecars hold the deduped latest-per-id state, so
/// their total size tracks the live-id population — not the
/// ever-growing raw update log.
#[test]
fn compacted_sidecars_stay_bounded_by_live_ids_across_rounds() {
    let _guard = CIPHER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let root = TempDir::new("sidecar-bound");
    let cfg = UpdateConfig {
        consolidation_step: 2,
        ..config(
            Backend::OnDiskBudgeted,
            root.path(),
            0,
            ConsolidationMode::Structural,
        )
    };
    let mut manager = LogManager::with_key(owner_key(), Domain::new(DOMAIN), cfg);
    let per_batch = 8u64;
    let mut raw_log_entries = 0u64;
    let mut max_total_sidecar = 0u64;
    let mut rng = ChaCha20Rng::seed_from_u64(8);
    for b in 0..24u64 {
        let mut entries: Vec<UpdateEntry> = (0..per_batch)
            .map(|i| UpdateEntry::insert(b * per_batch + i, (b * 89 + i * 7) % DOMAIN))
            .collect();
        if b > 0 {
            // Delete all but one of the previous batch's inserts: the live
            // population stays ~`per_batch + b`, the raw log grows ~2× that
            // per batch.
            for i in 1..per_batch {
                entries.push(UpdateEntry::delete(
                    (b - 1) * per_batch + i,
                    ((b - 1) * 89 + i * 7) % DOMAIN,
                ));
            }
        }
        raw_log_entries += entries.len() as u64;
        manager.ingest_batch(entries, &mut rng);
        max_total_sidecar =
            max_total_sidecar.max(sidecar_sizes(root.path()).iter().map(|(_, s)| s).sum());
    }
    assert!(
        manager.consolidations() >= 10,
        "the workload must exercise at least 10 consolidation rounds, ran {}",
        manager.consolidations()
    );
    assert!(manager.structural_consolidations() >= 10);

    // The raw log (17 bytes per entry, accumulated forever) would dominate
    // the compacted sidecars many times over. Generous constants: headers,
    // MACs, part seeds and the live tail all fit well inside half the raw
    // log's payload bytes.
    let raw_log_bytes = raw_log_entries * 17;
    assert!(
        max_total_sidecar < raw_log_bytes / 2,
        "sidecars reached {max_total_sidecar} bytes — not compacted \
         (raw log would be {raw_log_bytes})"
    );

    // And the compacted state is complete: the manager reopens from those
    // sidecars alone and agrees with the plaintext ground truth.
    let reference: Vec<Vec<DocId>> = query_mix()
        .into_iter()
        .map(|range| sorted(manager.try_query(range).unwrap().ids))
        .collect();
    for (range, expected) in query_mix().into_iter().zip(&reference) {
        assert_eq!(&sorted(manager.ground_truth(range)), expected);
    }
    let cfg = UpdateConfig {
        consolidation_step: 2,
        ..config(
            Backend::OnDiskBudgeted,
            root.path(),
            0,
            ConsolidationMode::Structural,
        )
    };
    drop(manager);
    let reopened = LogManager::open_root(owner_key(), root.path(), cfg).unwrap();
    let replayed: Vec<Vec<DocId>> = query_mix()
        .into_iter()
        .map(|range| sorted(reopened.try_query(range).unwrap().ids))
        .collect();
    assert_eq!(replayed, reference);
}

/// FNV-1a (64-bit) over every path and byte under `root`, in path order:
/// a directory hashes its relative path, a file its relative path, its
/// length and its bytes.
fn tree_digest(root: &Path) -> u64 {
    fn walk(root: &Path, dir: &Path, out: &mut Vec<(PathBuf, Option<Vec<u8>>)>) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            let name = path.strip_prefix(root).unwrap().to_path_buf();
            if path.is_dir() {
                out.push((name, None));
                walk(root, &path, out);
            } else {
                out.push((name, Some(std::fs::read(&path).unwrap())));
            }
        }
    }
    let mut files = Vec::new();
    walk(root, root, &mut files);
    files.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &byte in bytes {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for (name, bytes) in &files {
        eat(name.to_str().unwrap().as_bytes());
        if let Some(bytes) = bytes {
            eat(&(bytes.len() as u64).to_le_bytes());
            eat(bytes);
        }
    }
    hash
}

/// Batch `b` of the deep-cascade script: fresh inserts, a modify of the
/// previous batch's tuple, a delete of a tuple two batches back (by then
/// merged a level up, so its tombstone survives a level-0 merge and meets
/// the insert in a cascade), a delete three batches back, and a re-insert
/// of the id deleted four batches back.
fn cascade_batch(b: u64, values: &mut std::collections::BTreeMap<DocId, u64>) -> Vec<UpdateEntry> {
    let mut entries: Vec<UpdateEntry> = (0..5u64)
        .map(|i| UpdateEntry::insert(b * 10 + i, (b * 97 + i * 13) % DOMAIN))
        .collect();
    if b >= 1 {
        entries.push(UpdateEntry::modify((b - 1) * 10 + 1, (b * 53 + 7) % DOMAIN));
    }
    if b >= 2 {
        let id = (b - 2) * 10 + 2;
        entries.push(UpdateEntry::delete(id, values[&id]));
    }
    if b >= 3 {
        let id = (b - 3) * 10 + 3;
        entries.push(UpdateEntry::delete(id, values[&id]));
    }
    if b >= 4 {
        entries.push(UpdateEntry::insert((b - 4) * 10 + 2, (b * 31 + 5) % DOMAIN));
    }
    for entry in &entries {
        values.insert(entry.record.id, entry.record.value);
    }
    entries
}

/// The bytes of a deep consolidation schedule are pinned: nine batches at
/// s = 2 cascade through two levels (batch 3) and three (batch 7), and
/// every file name and byte under the root after every ingest folds into
/// one digest per mode. A change to the order in which an ingest draws its
/// seeds and build numbers, to which tombstones a merge purges, or to how
/// a merge lays out its inputs moves it.
#[test]
fn deep_cascades_write_the_pinned_bytes() {
    let _guard = CIPHER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let pinned = [
        (ConsolidationMode::Rebuild, 0xcc32_10a9_75ad_8dbd),
        (ConsolidationMode::Structural, 0xaf6a_ad66_4404_fbbd),
    ];
    let mut read = Vec::new();
    for (mode, _) in pinned {
        let root = TempDir::new("deep-cascade");
        let cfg = UpdateConfig {
            consolidation_step: 2,
            ..config(Backend::OnDiskBudgeted, root.path(), 1, mode)
        };
        let mut manager = LogManager::with_key(owner_key(), Domain::new(DOMAIN), cfg);
        let mut values = std::collections::BTreeMap::new();
        let mut digests = Vec::new();
        for b in 0..9u64 {
            let mut rng = ChaCha20Rng::seed_from_u64(40_000 + b);
            manager.ingest_batch(cascade_batch(b, &mut values), &mut rng);
            digests.push(tree_digest(root.path()));
        }
        assert_eq!(manager.consolidations(), 7, "{mode:?}");
        for range in query_mix() {
            assert_eq!(
                sorted(manager.query(range).ids),
                sorted(manager.ground_truth(range))
            );
        }
        let digest = digests.iter().fold(0u64, |acc, d| acc.rotate_left(7) ^ d);
        read.push((mode, digest));
    }
    assert_eq!(read, pinned, "a byte under the root moved");
}
