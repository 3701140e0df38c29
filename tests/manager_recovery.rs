//! Crash-recovery integration tests for the durable update manager.
//!
//! The acceptance criteria of the reopen-from-root work: build → ingest
//! batches → drop (including a crash, armed on the codec kit's gate, at
//! each formerly named window of ingest/consolidation) →
//! `UpdateManager::open_root` → query results **byte-identical** to the
//! uninterrupted manager, on both the on-disk (budgeted and unbudgeted)
//! and the in-memory-restore reopen paths — plus a corruption battery
//! pinning that every malformed `manager.meta` / instance state is
//! rejected with a typed `StorageError` rather than misread.

use rand::SeedableRng;
use rand_chacha::ChaCha20Rng;
use rsse::core::schemes::log_brc_urc::LogScheme;
use rsse::core::schemes::log_src_i::LogSrcIScheme;
use rsse::core::StorageError;
use rsse::prelude::*;
use rsse::sse::formats::{arm_crash, Crash};
use rsse::sse::test_support::TempDir;
use rsse::updates::manifest::{
    open_manager_root, read_manager_manifest, write_manager_manifest, ManagerManifest,
    MANAGER_MANIFEST_FILE, OWNER_META_FILE,
};
use rsse::updates::OwnerKey;
use std::fs;
use std::path::{Path, PathBuf};

type LogManager = UpdateManager<LogScheme>;

const DOMAIN: u64 = 1 << 10;

fn owner_key() -> OwnerKey {
    OwnerKey::from_bytes([41u8; 32])
}

/// Both consolidation strategies: every recovery guarantee must hold
/// identically whether a merge is a rebuild or a re-encryption-free
/// structural merge, so each test below runs its whole body once per mode.
const MODES: [ConsolidationMode; 2] = [ConsolidationMode::Rebuild, ConsolidationMode::Structural];

fn config(root: &Path, mode: ConsolidationMode) -> UpdateConfig {
    UpdateConfig {
        consolidation_step: 3,
        shard_bits: 2,
        storage_root: Some(root.to_path_buf()),
        cache_budget: None,
        build_budget: None,
        consolidation_mode: mode,
    }
}

/// A deterministic mixed batch (inserts, a modify, a delete) for batch `b`.
fn batch_entries(b: u64) -> Vec<UpdateEntry> {
    let mut entries: Vec<UpdateEntry> = (0..8u64)
        .map(|i| UpdateEntry::insert(b * 10 + i, (b * 97 + i * 13) % DOMAIN))
        .collect();
    if b > 0 {
        // Touch the previous batch: supersede one tuple, delete another.
        entries.push(UpdateEntry::modify((b - 1) * 10, (b * 53) % DOMAIN));
        entries.push(UpdateEntry::delete(
            (b - 1) * 10 + 1,
            ((b - 1) * 97 + 13) % DOMAIN,
        ));
    }
    entries
}

/// Per-batch RNG streams are independent of history, so an interrupted and
/// re-driven manager draws the same seeds as an uninterrupted one.
fn batch_rng(b: u64) -> ChaCha20Rng {
    ChaCha20Rng::seed_from_u64(1_000 + b)
}

fn ingest(manager: &mut LogManager, batches: std::ops::Range<u64>) {
    for b in batches {
        manager.ingest_batch(batch_entries(b), &mut batch_rng(b));
    }
}

fn query_mix() -> Vec<Range> {
    vec![
        Range::new(0, DOMAIN - 1),
        Range::new(10, 200),
        Range::new(500, 800),
        Range::new(900, DOMAIN - 1),
    ]
}

/// The full owner-visible fingerprint of a manager: per-range outcomes
/// (ids in iteration order + stats) plus the bookkeeping counters.
fn fingerprint(manager: &LogManager) -> (Vec<QueryOutcome>, usize, usize, usize) {
    (
        query_mix()
            .into_iter()
            .map(|range| manager.try_query(range).expect("query serves"))
            .collect(),
        manager.active_instances(),
        manager.batches_ingested(),
        manager.consolidations(),
    )
}

/// Entries directly under the root that are instance directories.
fn instance_dirs(root: &Path) -> usize {
    fs::read_dir(root)
        .unwrap()
        .filter(|e| e.as_ref().unwrap().path().is_dir())
        .count()
}

#[test]
fn reopen_answers_byte_identically_on_every_backend() {
    for mode in MODES {
        let root = TempDir::new("reopen-eq");
        let cfg = config(root.path(), mode);
        let mut manager = LogManager::with_key(owner_key(), Domain::new(DOMAIN), cfg.clone());
        ingest(&mut manager, 0..7); // 7 batches at s = 3: consolidations ran
        assert!(manager.consolidations() > 0);
        let reference = fingerprint(&manager);
        drop(manager); // the process "dies" cleanly

        // On-disk reopen, unbudgeted: instances cold-open via paged reads.
        let reopened = LogManager::open_root(owner_key(), root.path(), cfg.clone()).unwrap();
        assert_eq!(fingerprint(&reopened), reference);

        // On-disk reopen under a tight block-cache budget.
        let budgeted_cfg = UpdateConfig {
            cache_budget: Some(32 << 10),
            ..cfg.clone()
        };
        let budgeted = LogManager::open_root(owner_key(), root.path(), budgeted_cfg).unwrap();
        assert_eq!(fingerprint(&budgeted), reference);

        // In-memory restore: every instance rebuilds in RAM from the persisted
        // owner state; outcomes stay byte-identical and the root is untouched.
        let before: Vec<_> = {
            let mut names: Vec<String> = fs::read_dir(root.path())
                .unwrap()
                .map(|e| e.unwrap().file_name().into_string().unwrap())
                .collect();
            names.sort();
            names
        };
        let in_memory_cfg = UpdateConfig {
            storage_root: None,
            ..cfg
        };
        let restored = LogManager::open_root(owner_key(), root.path(), in_memory_cfg).unwrap();
        assert_eq!(fingerprint(&restored), reference);
        let after: Vec<_> = {
            let mut names: Vec<String> = fs::read_dir(root.path())
                .unwrap()
                .map(|e| e.unwrap().file_name().into_string().unwrap())
                .collect();
            names.sort();
            names
        };
        assert_eq!(
            before, after,
            "an in-memory restore must not touch the root"
        );
    }
}

#[test]
fn reopened_manager_keeps_ingesting_like_the_uninterrupted_one() {
    for mode in MODES {
        let root = TempDir::new("reopen-continue");
        let cfg = config(root.path(), mode);
        let mut reference = LogManager::with_key(owner_key(), Domain::new(DOMAIN), cfg.clone());
        ingest(&mut reference, 0..9);

        let other_root = TempDir::new("reopen-continue-b");
        let other_cfg = config(other_root.path(), mode);
        let mut victim = LogManager::with_key(owner_key(), Domain::new(DOMAIN), other_cfg.clone());
        ingest(&mut victim, 0..5);
        drop(victim);
        let mut reopened =
            LogManager::open_root(owner_key(), other_root.path(), other_cfg).unwrap();
        ingest(&mut reopened, 5..9);

        assert_eq!(fingerprint(&reopened), fingerprint(&reference));
        // The healed root stays reopenable after the post-restart ingests.
        drop(reopened);
        let again = LogManager::open_root(
            owner_key(),
            other_root.path(),
            config(other_root.path(), mode),
        )
        .unwrap();
        assert_eq!(fingerprint(&again), fingerprint(&reference));
    }
}

/// The op log of the ingest that trips the s = 3 consolidation (batch 2 on
/// a two-batch root), recorded by the gate on an uninterrupted run.
fn third_ingest_log(mode: ConsolidationMode) -> Vec<(&'static str, PathBuf)> {
    let root = TempDir::new("kill-log");
    let mut manager =
        LogManager::with_key(owner_key(), Domain::new(DOMAIN), config(root.path(), mode));
    ingest(&mut manager, 0..2);
    let recording = arm_crash(root.path(), None);
    ingest(&mut manager, 2..3);
    recording.trace()
}

/// The index of the last `op` in `log` whose path ends with `suffix`: each
/// formerly named kill window is "right after" or "inside" one such op, so
/// the window is shown to be an index the replay battery also covers.
fn op_index(log: &[(&'static str, PathBuf)], op: &str, suffix: &str) -> usize {
    log.iter()
        .rposition(|(o, path)| *o == op && path.to_str().unwrap().ends_with(suffix))
        .unwrap_or_else(|| panic!("no `{op}` of …{suffix} in {log:?}"))
}

/// A two-batch root whose third ingest dies at `crash`; the victim manager
/// is dropped like the dead process it stands for.
fn crashed_third_ingest(mode: ConsolidationMode, crash: Crash) -> TempDir {
    let root = TempDir::new("kill-point");
    let mut victim =
        LogManager::with_key(owner_key(), Domain::new(DOMAIN), config(root.path(), mode));
    ingest(&mut victim, 0..2);
    let armed = arm_crash(root.path(), Some(crash));
    victim
        .try_ingest_batch(batch_entries(2), &mut batch_rng(2))
        .expect_err("the crash fails the ingest");
    drop(armed);
    root
}

/// The headline kill-point battery: a crash between the index commit and
/// the manifest commit, at each stage of ingest/consolidation.
/// Batch 2 (0-indexed) is the one that trips the s = 3 consolidation.
#[test]
fn kill_between_index_and_manifest_commit_heals_on_reopen() {
    for mode in MODES {
        // Reference states: after 2 batches (the crashed ingest rolled back)
        // and after 3 batches (the crashed ingest rolled forward).
        let ref_root_a = TempDir::new("kill-ref-a");
        let mut ref_a = LogManager::with_key(
            owner_key(),
            Domain::new(DOMAIN),
            config(ref_root_a.path(), mode),
        );
        ingest(&mut ref_a, 0..2);
        let rolled_back = fingerprint(&ref_a);

        let ref_root_b = TempDir::new("kill-ref-b");
        let mut ref_b = LogManager::with_key(
            owner_key(),
            Domain::new(DOMAIN),
            config(ref_root_b.path(), mode),
        );
        ingest(&mut ref_b, 0..3);
        assert_eq!(ref_b.consolidations(), 1, "batch 2 trips the merge");
        let rolled_forward = fingerprint(&ref_b);

        let log = third_ingest_log(mode);
        for (after, expected, label) in [
            // The batch's index committed but neither consolidation nor
            // manifest did: the ingest never returned, so it rolls back.
            (
                op_index(&log, "write", "instance-00000002/owner.meta"),
                &rolled_back,
                "after-batch-build",
            ),
            // The merged instance committed (inputs still on disk): the
            // committed consolidation rolls forward.
            (
                op_index(&log, "write", "instance-00000003/owner.meta"),
                &rolled_forward,
                "after-merge-build",
            ),
            // The merged instance committed and the inputs were GC'd, but the
            // stale manifest still references them: recovery resolves the
            // GC'd directories via the committed consolidation.
            (
                op_index(&log, "remove_dir_all", ""),
                &rolled_forward,
                "after-gc",
            ),
        ] {
            let crash = Crash {
                at: after + 1,
                torn: None,
            };
            let root = crashed_third_ingest(mode, crash);
            let cfg = config(root.path(), mode);
            let reopened = LogManager::open_root(owner_key(), root.path(), cfg).unwrap();
            assert_eq!(&fingerprint(&reopened), expected, "kill point {label}");
            // The healed root is clean: one directory per active instance.
            assert_eq!(
                instance_dirs(root.path()),
                reopened.active_instances(),
                "kill point {label} must leave no stray directories"
            );

            // Rolled back: re-driving the interrupted batch converges with the
            // uninterrupted manager, byte for byte.
            if label == "after-batch-build" {
                let mut reopened = reopened;
                ingest(&mut reopened, 2..3);
                assert_eq!(&fingerprint(&reopened), &rolled_forward);
            }
        }
    }
}

/// The consolidation-commit kill windows introduced with structural
/// merges: a kill while the merged shards are still being copied (a merged
/// shard's `.tmp` written, never renamed) and a kill while the owner
/// sidecar is being written (`owner.meta.tmp` written, never renamed). In
/// both, the merged directory never gained its `owner.meta` commit record,
/// so recovery must roll the whole interrupted ingest back and sweep the
/// debris — under either consolidation mode.
#[test]
fn kill_inside_the_consolidation_commit_rolls_back_and_sweeps_debris() {
    for mode in MODES {
        let ref_root = TempDir::new("ckill-ref");
        let mut reference = LogManager::with_key(
            owner_key(),
            Domain::new(DOMAIN),
            config(ref_root.path(), mode),
        );
        ingest(&mut reference, 0..2);
        let rolled_back = fingerprint(&reference);
        ingest(&mut reference, 2..3);
        let rolled_forward = fingerprint(&reference);

        let log = third_ingest_log(mode);
        for (at, label) in [
            (
                op_index(&log, "write", "instance-00000003/shard-00001.shd"),
                "mid-merge-copy",
            ),
            (
                op_index(&log, "write", "instance-00000003/owner.meta"),
                "mid-sidecar-compaction",
            ),
        ] {
            let crash = Crash {
                at,
                torn: Some(|_| true),
            };
            let root = crashed_third_ingest(mode, crash);
            let cfg = config(root.path(), mode);

            // The kill left a merged directory without its commit record —
            // and, for these windows, in-flight `.tmp` debris inside it.
            let debris: Vec<String> = fs::read_dir(root.path())
                .unwrap()
                .map(|e| e.unwrap().path())
                .filter(|p| p.is_dir())
                .flat_map(|p| fs::read_dir(p).unwrap())
                .map(|e| e.unwrap().file_name().into_string().unwrap())
                .filter(|name| name.ends_with(".tmp"))
                .collect();
            assert!(
                !debris.is_empty(),
                "kill point {label} must leave in-flight debris to sweep"
            );

            // A file that is NOT the manager's must survive the sweep.
            let foreign = root.path().join("keep.txt");
            fs::write(&foreign, b"not yours").unwrap();

            let reopened = LogManager::open_root(owner_key(), root.path(), cfg).unwrap();
            assert_eq!(&fingerprint(&reopened), &rolled_back, "kill point {label}");
            assert_eq!(
                instance_dirs(root.path()),
                reopened.active_instances(),
                "kill point {label} must sweep the uncommitted merge directory"
            );
            assert!(foreign.exists(), "recovery must not touch foreign files");

            // Re-driving the interrupted batch converges with the
            // uninterrupted manager, byte for byte.
            let mut reopened = reopened;
            ingest(&mut reopened, 2..3);
            assert_eq!(&fingerprint(&reopened), &rolled_forward, "{label} re-drive");
        }
    }
}

/// Copies the directory tree at `from` to `to`.
fn copy_tree(from: &Path, to: &Path) {
    fs::create_dir_all(to).unwrap();
    for entry in fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let target = to.join(entry.file_name());
        if entry.path().is_dir() {
            copy_tree(&entry.path(), &target);
        } else {
            fs::copy(entry.path(), target).unwrap();
        }
    }
}

/// Regression: a consolidation committed, the crash came while its inputs
/// were being removed, and the removal had taken a referenced input's
/// `owner.meta` first. The stale manifest still references that input, but
/// the committed consolidation supersedes it, so `open_root` must roll the
/// ingest forward and sweep the half-removed directory — exactly as it does
/// when the input is intact or gone. (The open used to fail on the
/// unreadable sidecar before adoption had decided anything.) Built from
/// plain file operations so it states the on-disk shape, not a mechanism.
#[test]
fn half_removed_superseded_input_rolls_forward() {
    for mode in MODES {
        // The crashed root: two batches and their manifest…
        let root = TempDir::new("half-gc");
        let cfg = config(root.path(), mode);
        let mut manager = LogManager::with_key(owner_key(), Domain::new(DOMAIN), cfg.clone());
        ingest(&mut manager, 0..2);
        drop(manager);
        // …plus the merged instance the third ingest committed (builds are
        // deterministic, so an uninterrupted twin's copy is that instance)…
        let twin_root = TempDir::new("half-gc-twin");
        let mut twin = LogManager::with_key(
            owner_key(),
            Domain::new(DOMAIN),
            config(twin_root.path(), mode),
        );
        ingest(&mut twin, 0..3);
        let rolled_forward = fingerprint(&twin);
        let merged = "instance-00000003";
        copy_tree(&twin_root.path().join(merged), &root.path().join(merged));
        // …and the first input half-removed: its commit record went first.
        fs::remove_file(root.path().join("instance-00000000").join(OWNER_META_FILE)).unwrap();

        let reopened = LogManager::open_root(owner_key(), root.path(), cfg.clone()).unwrap();
        assert_eq!(fingerprint(&reopened), rolled_forward);
        assert_eq!(instance_dirs(root.path()), reopened.active_instances());

        // A live instance with an unreadable sidecar is still damage.
        drop(reopened);
        fs::remove_file(root.path().join(merged).join(OWNER_META_FILE)).unwrap();
        assert!(matches!(
            LogManager::open_root(owner_key(), root.path(), cfg),
            Err(StorageError::Io { .. })
        ));
    }
}

/// A merge that fails mid-cascade keeps its inputs active while the merges
/// before it stand: the manager keeps answering and ingesting, and the
/// next ingest retries the failed level. The directories the standing
/// merges superseded are not removed (the stale manifest still references
/// them); once a later manifest has dropped them, `open_root` sweeps them —
/// a committed consolidation that supersedes nothing is never adopted.
#[test]
fn failed_cascade_merge_keeps_every_level_answering() {
    for mode in MODES {
        // s = 2, three batches in: {level 0: [b2], level 1: [b0 + b1]}.
        // Batch 3 merges level 0, then level 1 — whose commit record fails.
        let cascading = |root: &Path| UpdateConfig {
            consolidation_step: 2,
            ..config(root, mode)
        };
        let twin_root = TempDir::new("undo-twin");
        let mut twin = LogManager::with_key(
            owner_key(),
            Domain::new(DOMAIN),
            cascading(twin_root.path()),
        );
        ingest(&mut twin, 0..3);
        let recording = arm_crash(twin_root.path(), None);
        ingest(&mut twin, 3..4);
        let last_commit = op_index(&recording.trace(), "write", OWNER_META_FILE);
        drop(recording);

        let root = TempDir::new("undo");
        let cfg = cascading(root.path());
        let mut manager = LogManager::with_key(owner_key(), Domain::new(DOMAIN), cfg.clone());
        ingest(&mut manager, 0..3);
        let failing = Crash {
            at: last_commit,
            torn: None,
        };
        let armed = arm_crash(root.path(), Some(failing));
        manager
            .try_ingest_batch(batch_entries(3), &mut batch_rng(3))
            .expect_err("the second merge fails");
        drop(armed);
        assert_eq!(manager.active_instances(), 2, "b0+b1 and b2+b3");
        assert_eq!(manager.consolidations(), 2, "the first merge stands");
        assert_eq!(manager.batches_ingested(), 4);
        let answers = |manager: &LogManager| -> Vec<Vec<DocId>> {
            let sorted = |range| {
                let mut ids = manager.try_query(range).unwrap().ids;
                ids.sort_unstable();
                ids
            };
            query_mix().into_iter().map(sorted).collect()
        };
        assert_eq!(answers(&manager), answers(&twin));

        // The next ingest retries the failed level and lands on the layout
        // of the manager that never failed; a reopen then sweeps b2 and b3
        // (level 0, dropped from the manifest) instead of keeping them.
        ingest(&mut manager, 4..5);
        ingest(&mut twin, 4..5);
        assert_eq!(manager.active_instances(), twin.active_instances());
        assert_eq!(manager.consolidations(), twin.consolidations());
        assert_eq!(answers(&manager), answers(&twin));
        let state = fingerprint(&manager);
        drop(manager);
        assert!(
            instance_dirs(root.path()) > 2,
            "superseded inputs were kept"
        );
        let reopened = LogManager::open_root(owner_key(), root.path(), cfg).unwrap();
        assert_eq!(fingerprint(&reopened), state);
        assert_eq!(instance_dirs(root.path()), reopened.active_instances());
    }
}

/// A committed consolidation that nothing references and that supersedes
/// nothing is a leftover (a superseded input whose best-effort removal
/// failed), not a crashed ingest's merge: adopting it would let the stale
/// versions it holds shadow purged tombstones. It is swept.
#[test]
fn stale_consolidation_leftover_is_swept_not_adopted() {
    for mode in MODES {
        let root = TempDir::new("stale-merge");
        let cfg = config(root.path(), mode);
        let mut manager = LogManager::with_key(owner_key(), Domain::new(DOMAIN), cfg.clone());
        ingest(&mut manager, 0..3); // one level-1 instance
        let stale = "instance-00000003";
        let kept = TempDir::new("stale-merge-kept");
        copy_tree(&root.path().join(stale), kept.path());
        ingest(&mut manager, 3..9); // …merged into level 2 and removed
        assert!(!root.path().join(stale).exists());
        let reference = fingerprint(&manager);
        drop(manager);
        copy_tree(kept.path(), &root.path().join(stale));

        let reopened = LogManager::open_root(owner_key(), root.path(), cfg).unwrap();
        assert_eq!(fingerprint(&reopened), reference);
        assert!(!root.path().join(stale).exists(), "the leftover is swept");
    }
}

#[test]
fn half_built_instance_directories_are_swept_on_reopen() {
    for mode in MODES {
        let root = TempDir::new("half-built");
        let cfg = config(root.path(), mode);
        let mut manager = LogManager::with_key(owner_key(), Domain::new(DOMAIN), cfg.clone());
        ingest(&mut manager, 0..2);
        let reference = fingerprint(&manager);
        drop(manager);

        // A directory a killed build left behind: canonical name, no owner
        // sidecar (the commit record is written last, so none exists).
        let junk = root.path().join("instance-00000017");
        fs::create_dir_all(&junk).unwrap();
        fs::write(junk.join("shard-00000.shd"), b"partial garbage").unwrap();

        let reopened = LogManager::open_root(owner_key(), root.path(), cfg).unwrap();
        assert_eq!(fingerprint(&reopened), reference);
        assert!(!junk.exists(), "the half-built directory must be swept");
    }
}

#[test]
fn manifest_corruption_battery_rejects_typed() {
    for mode in MODES {
        let root = TempDir::new("manifest-corrupt");
        let cfg = config(root.path(), mode);
        let mut manager = LogManager::with_key(owner_key(), Domain::new(DOMAIN), cfg.clone());
        ingest(&mut manager, 0..2);
        drop(manager);
        let manifest_path = root.path().join(MANAGER_MANIFEST_FILE);
        let valid = fs::read(&manifest_path).unwrap();

        let open = |root: &Path| LogManager::open_root(owner_key(), root, config(root, mode));

        // Truncated: both inside the fixed header and inside the level table.
        for cut in [10, valid.len() - 5] {
            fs::write(&manifest_path, &valid[..cut]).unwrap();
            assert!(
                matches!(open(root.path()), Err(StorageError::Truncated { .. })),
                "cut at {cut} must be rejected as truncated"
            );
        }

        // Foreign magic.
        let mut bad_magic = valid.clone();
        bad_magic[..8].copy_from_slice(b"NOTAMGRF");
        fs::write(&manifest_path, &bad_magic).unwrap();
        assert!(matches!(
            open(root.path()),
            Err(StorageError::BadMagic { .. })
        ));

        // Unsupported format version.
        let mut bad_version = valid.clone();
        bad_version[8..12].copy_from_slice(&9u32.to_le_bytes());
        fs::write(&manifest_path, &bad_version).unwrap();
        assert!(matches!(
            open(root.path()),
            Err(StorageError::UnsupportedVersion { version: 9, .. })
        ));

        // Trailing bytes after the level table.
        let mut trailing = valid.clone();
        trailing.extend_from_slice(b"junk");
        fs::write(&manifest_path, &trailing).unwrap();
        assert!(matches!(
            open(root.path()),
            Err(StorageError::CorruptDirectory { .. })
        ));

        // Level mismatch: the manifest's per-instance bookkeeping disagrees
        // with the (authenticated) instance state on disk.
        fs::write(&manifest_path, &valid).unwrap();
        let mut manifest = read_manager_manifest(root.path()).unwrap();
        manifest.levels[0][0].entry_count += 1;
        manifest.levels[0][0].inserts += 1; // keep the op sum consistent
        write_manager_manifest(root.path(), &manifest).unwrap();
        match open(root.path()) {
            Err(StorageError::CorruptDirectory { detail, .. }) => {
                assert!(detail.contains("manifest"), "unexpected detail: {detail}")
            }
            other => panic!("expected CorruptDirectory, got {:?}", other.err()),
        }

        // Scheme-kind mismatch: the same root reopened as a different scheme.
        fs::write(&manifest_path, &valid).unwrap();
        match UpdateManager::<LogSrcIScheme>::open_root(
            owner_key(),
            root.path(),
            config(root.path(), mode),
        ) {
            Err(StorageError::CorruptDirectory { detail, .. }) => {
                assert!(detail.contains("scheme"), "unexpected detail: {detail}")
            }
            other => panic!("expected CorruptDirectory, got {:?}", other.err()),
        }

        // Wrong owner key: the sidecars fail authentication, nothing opens,
        // nothing is deleted.
        let dirs_before = instance_dirs(root.path());
        match LogManager::open_root(OwnerKey::from_bytes([9u8; 32]), root.path(), cfg.clone()) {
            Err(StorageError::CorruptDirectory { detail, .. }) => {
                assert!(
                    detail.contains("authentication"),
                    "unexpected detail: {detail}"
                )
            }
            other => panic!("expected CorruptDirectory, got {:?}", other.err()),
        }
        assert_eq!(
            instance_dirs(root.path()),
            dirs_before,
            "a wrong key must never delete anything"
        );

        // The untampered root still opens after all of the above.
        assert!(open(root.path()).is_ok());
    }
}

#[test]
fn missing_instance_dir_without_superseding_merge_fails_typed() {
    for mode in MODES {
        let root = TempDir::new("missing-instance");
        let cfg = config(root.path(), mode);
        let mut manager = LogManager::with_key(owner_key(), Domain::new(DOMAIN), cfg.clone());
        ingest(&mut manager, 0..2);
        drop(manager);

        // Remove a referenced instance directory outright: no committed
        // consolidation covers it, so this is genuine damage.
        let manifest = read_manager_manifest(root.path()).unwrap();
        let victim = manifest.levels[0][0].build_id;
        fs::remove_dir_all(root.path().join(ManagerManifest::instance_dir_name(victim))).unwrap();
        match LogManager::open_root(owner_key(), root.path(), cfg) {
            Err(StorageError::CorruptDirectory { detail, .. }) => {
                assert!(detail.contains("missing"), "unexpected detail: {detail}")
            }
            other => panic!("expected CorruptDirectory, got {:?}", other.err()),
        }
    }
}

#[test]
fn foreign_or_stale_sidecars_are_rejected_typed() {
    for mode in MODES {
        let root = TempDir::new("foreign-sidecar");
        let cfg = config(root.path(), mode);
        let mut manager = LogManager::with_key(owner_key(), Domain::new(DOMAIN), cfg.clone());
        ingest(&mut manager, 0..2);
        drop(manager);

        // Swap the two instances' owner sidecars: each directory now carries a
        // commit record naming the *other* build — a foreign instance.
        let manifest = read_manager_manifest(root.path()).unwrap();
        let a = root.path().join(ManagerManifest::instance_dir_name(
            manifest.levels[0][0].build_id,
        ));
        let b = root.path().join(ManagerManifest::instance_dir_name(
            manifest.levels[0][1].build_id,
        ));
        let tmp = root.path().join("swap.meta");
        fs::rename(a.join(OWNER_META_FILE), &tmp).unwrap();
        fs::rename(b.join(OWNER_META_FILE), a.join(OWNER_META_FILE)).unwrap();
        fs::rename(&tmp, b.join(OWNER_META_FILE)).unwrap();

        match LogManager::open_root(owner_key(), root.path(), cfg) {
            Err(StorageError::CorruptDirectory { detail, .. }) => {
                assert!(detail.contains("foreign"), "unexpected detail: {detail}")
            }
            other => panic!("expected CorruptDirectory, got {:?}", other.err()),
        }
    }
}

#[test]
fn open_manager_root_stands_up_one_server_per_instance() {
    for mode in MODES {
        let root = TempDir::new("server-restart");
        let cfg = UpdateConfig {
            consolidation_step: 0, // keep every batch a separate instance
            ..config(root.path(), mode)
        };
        let mut manager = LogManager::with_key(owner_key(), Domain::new(DOMAIN), cfg);
        ingest(&mut manager, 0..3);
        let total_entries = manager.index_stats().entries;
        drop(manager);

        // The serving side restarts from disk alone — no owner key needed.
        let servers = open_manager_root(root.path()).unwrap();
        assert_eq!(servers.len(), 3, "one endpoint per active instance");
        assert_eq!(
            servers.iter().map(|s| s.index().len()).sum::<usize>(),
            total_entries,
            "the reopened endpoints serve exactly the persisted entries"
        );
        for server in &servers {
            assert!(server.index().is_file_backed());
        }
    }
}

#[test]
fn src_i_manager_reopens_through_its_two_index_layout() {
    for mode in MODES {
        // The SRC-i override of open_stored: both sub-indexes cold-open from
        // their subdirectories, the client re-derives from the seed.
        let root = TempDir::new("srci-reopen");
        let cfg = UpdateConfig {
            consolidation_step: 2,
            shard_bits: 0,
            storage_root: Some(root.path().to_path_buf()),
            cache_budget: None,
            build_budget: None,
            consolidation_mode: mode,
        };
        let mut manager: UpdateManager<LogSrcIScheme> =
            UpdateManager::with_key(owner_key(), Domain::new(128), cfg.clone());
        let mut rng = ChaCha20Rng::seed_from_u64(3);
        manager.ingest_batch(
            (0..20)
                .map(|i| UpdateEntry::insert(i, (i * 13) % 128))
                .collect(),
            &mut rng,
        );
        manager.ingest_batch(
            vec![UpdateEntry::delete(3, 39), UpdateEntry::insert(100, 64)],
            &mut rng,
        );
        let range = Range::new(0, 127);
        let reference = manager.try_query(range).unwrap();
        drop(manager);

        let reopened: UpdateManager<LogSrcIScheme> =
            UpdateManager::open_root(owner_key(), root.path(), cfg).unwrap();
        assert_eq!(reopened.try_query(range).unwrap(), reference);
    }
}
