//! Crash replay: every filesystem mutation in the workspace is one *op* of
//! the codec kit (`rsse::sse::formats`) and passes its gate, so a crash
//! test needs no named windows. Each scenario below
//!
//! 1. runs once uninterrupted with the gate recording — the op log and the
//!    reference state;
//! 2. re-runs once per op index with the gate armed to kill the process
//!    there (op `i` does not happen and every later mutation under the
//!    scenario's root is refused, from any thread), plus once per *torn*
//!    variant of a tearable op: a `write` whose `.tmp` is written and
//!    never renamed, a `remove_dir_all` that removed only the commit
//!    records (`*.meta`) or everything but the directory itself;
//! 3. drops the victim, reopens (or restarts the build), and asserts the
//!    recovery property: the state is the pre- or the post-run reference
//!    and nothing else, no debris survives, and re-driving the interrupted
//!    run converges byte for byte with the uninterrupted one.
//!
//! Parallel shard writers make the log a multiset — index `i` of a re-run
//! may be a sibling shard's write — so the battery asserts the recovery
//! property, never a debris layout. A failure prints the scenario, the
//! crash and the op log of the failing run; to replay just that crash,
//! filter `crashes(..)` in the scenario to the printed index.

use rand::SeedableRng;
use rand_chacha::ChaCha20Rng;
use rsse::core::schemes::log_brc_urc::LogScheme;
use rsse::core::{BuildBudget, StorageConfig};
use rsse::prelude::*;
use rsse::sse::formats::{arm_crash, Crash};
use rsse::sse::test_support::TempDir;
use rsse::updates::OwnerKey;
use std::collections::BTreeMap;
use std::ffi::OsStr;
use std::fs;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

type Log = Vec<(&'static str, PathBuf)>;
type LogManager = UpdateManager<LogScheme>;

const DOMAIN: u64 = 1 << 10;

/// Every crash the recorded `log` calls for: a clean one at each op, plus
/// the torn variants of each tearable op.
fn crashes(log: &Log) -> Vec<Crash> {
    fn commit_record(name: &OsStr) -> bool {
        name.to_str().is_some_and(|name| name.ends_with(".meta"))
    }
    let mut crashes = Vec::new();
    for (at, (op, _)) in log.iter().enumerate() {
        let torn: &[fn(&OsStr) -> bool] = match *op {
            "write" => &[|_| true],
            "remove_dir_all" => &[commit_record, |_| true],
            _ => &[],
        };
        crashes.push(Crash { at, torn: None });
        crashes.extend(torn.iter().map(|&torn| Crash {
            at,
            torn: Some(torn),
        }));
    }
    crashes
}

/// Runs `check`; if it panics, prints what is needed to replay the crash
/// before propagating the panic.
fn checked(scenario: &str, crash: Crash, trace: &Log, check: impl FnOnce()) {
    if let Err(panic) = catch_unwind(AssertUnwindSafe(check)) {
        eprintln!(
            "crash_replay: `{scenario}` failed after a {} crash at op {}; op log of the failing run:",
            if crash.torn.is_some() { "torn" } else { "clean" },
            crash.at
        );
        for (index, (op, path)) in trace.iter().enumerate() {
            eprintln!("  {index:3} {op:<15} {}", path.display());
        }
        resume_unwind(panic);
    }
}

/// Every file under `dir`, by relative path — `diff -r` as a value.
fn tree(dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    fn walk(root: &Path, dir: &Path, out: &mut BTreeMap<PathBuf, Vec<u8>>) {
        for entry in fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                out.insert(path.strip_prefix(root).unwrap().to_path_buf(), Vec::new());
                walk(root, &path, out);
            } else {
                let bytes = fs::read(&path).unwrap();
                out.insert(path.strip_prefix(root).unwrap().to_path_buf(), bytes);
            }
        }
    }
    let mut out = BTreeMap::new();
    if dir.exists() {
        walk(dir, dir, &mut out);
    }
    out
}

fn copy_tree(from: &Path, to: &Path) {
    fs::create_dir_all(to).unwrap();
    for (path, bytes) in tree(from) {
        if from.join(&path).is_dir() {
            fs::create_dir_all(to.join(path)).unwrap();
        } else {
            fs::write(to.join(path), bytes).unwrap();
        }
    }
}

/// No in-flight temporary, spill directory or save scratch survives.
fn assert_no_debris(dir: &Path) {
    for path in tree(dir).keys() {
        let name = path.file_name().unwrap().to_str().unwrap();
        let scratch = [".tmp", ".staging", ".old"];
        assert!(
            !scratch.iter().any(|suffix| name.ends_with(suffix)),
            "debris survived: {}",
            path.display()
        );
    }
}

// ---------------------------------------------------------------------------
// Update-manager ingests
// ---------------------------------------------------------------------------

fn owner_key() -> OwnerKey {
    OwnerKey::from_bytes([41u8; 32])
}

fn config(root: &Path, step: usize, mode: ConsolidationMode) -> UpdateConfig {
    UpdateConfig {
        consolidation_step: step,
        shard_bits: 2,
        storage_root: Some(root.to_path_buf()),
        cache_budget: None,
        build_budget: None,
        consolidation_mode: mode,
    }
}

/// A deterministic mixed batch (inserts, a modify, a delete) for batch `b`,
/// with its own RNG stream so a re-driven ingest draws the same seeds.
fn ingest(manager: &mut LogManager, b: u64) -> Result<(), rsse::core::StorageError> {
    let mut entries: Vec<UpdateEntry> = (0..8u64)
        .map(|i| UpdateEntry::insert(b * 10 + i, (b * 97 + i * 13) % DOMAIN))
        .collect();
    if b > 0 {
        entries.push(UpdateEntry::modify((b - 1) * 10, (b * 53) % DOMAIN));
        entries.push(UpdateEntry::delete(
            (b - 1) * 10 + 1,
            ((b - 1) * 97 + 13) % DOMAIN,
        ));
    }
    manager.try_ingest_batch(entries, &mut ChaCha20Rng::seed_from_u64(1_000 + b))
}

/// The full owner-visible fingerprint of a manager: per-range outcomes
/// (ids in iteration order + stats) plus the bookkeeping counters.
fn fingerprint(manager: &LogManager) -> (Vec<QueryOutcome>, [usize; 5]) {
    let ranges = [
        Range::new(0, DOMAIN - 1),
        Range::new(10, 200),
        Range::new(500, 800),
        Range::new(900, DOMAIN - 1),
    ];
    (
        ranges.map(|range| manager.try_query(range).unwrap()).into(),
        [
            manager.active_instances(),
            manager.batches_ingested(),
            manager.consolidations(),
            manager.structural_consolidations(),
            manager.rebuild_consolidations(),
        ],
    )
}

/// Replays a crash at every op of ingesting batch `prior` into a root that
/// already holds batches `0..prior`. Returns the number of ops.
fn replay_ingest(scenario: &str, step: usize, mode: ConsolidationMode, prior: u64) -> usize {
    let open = |root: &Path| LogManager::open_root(owner_key(), root, config(root, step, mode));

    // The pre-ingest root, built once and copied for every run.
    let pre_root = TempDir::new("replay-pre");
    let mut manager = LogManager::with_key(
        owner_key(),
        Domain::new(DOMAIN),
        config(pre_root.path(), step, mode),
    );
    for b in 0..prior {
        ingest(&mut manager, b).unwrap();
    }
    let pre = fingerprint(&manager);
    drop(manager);

    // The uninterrupted run: op log, post-ingest fingerprint and root.
    let post_root = TempDir::new("replay-post");
    copy_tree(pre_root.path(), post_root.path());
    let mut manager = open(post_root.path()).unwrap();
    let recording = arm_crash(post_root.path(), None);
    ingest(&mut manager, prior).unwrap();
    let log = recording.trace();
    drop(recording);
    let post = fingerprint(&manager);
    drop(manager);
    assert_ne!(pre, post);

    let all = crashes(&log);
    for &crash in &all {
        let root = TempDir::new("replay-victim");
        copy_tree(pre_root.path(), root.path());
        let mut victim = open(root.path()).unwrap();
        let armed = arm_crash(root.path(), Some(crash));
        let _ = ingest(&mut victim, prior);
        let trace = armed.trace();
        drop(armed);
        drop(victim); // the dead process

        checked(scenario, crash, &trace, || {
            let mut reopened = open(root.path()).expect("open_root heals every crash");
            let state = fingerprint(&reopened);
            assert!(
                state == pre || state == post,
                "neither the pre- nor the post-ingest state: {:?}",
                state.1
            );
            let instances = tree(root.path())
                .keys()
                .filter(|path| path.components().count() == 1 && root.path().join(path).is_dir())
                .count();
            assert_eq!(instances, reopened.active_instances(), "stray instance dir");
            assert_no_debris(root.path());
            if state == pre {
                ingest(&mut reopened, prior).expect("the re-driven ingest succeeds");
                assert_eq!(fingerprint(&reopened), post);
            }
            assert!(
                tree(root.path()) == tree(post_root.path()),
                "the healed root differs from the uninterrupted one"
            );
        });
    }
    eprintln!(
        "crash_replay: {scenario}: {} ops, {} crashes replayed",
        log.len(),
        all.len()
    );
    log.len()
}

#[test]
fn plain_batch_ingest_heals_after_every_op() {
    let ops = replay_ingest("plain ingest", 3, ConsolidationMode::Rebuild, 1);
    assert!(ops > 1, "one named window (after-batch-build) before");
}

#[test]
fn rebuild_consolidation_heals_after_every_op() {
    let ops = replay_ingest("rebuild consolidation", 3, ConsolidationMode::Rebuild, 2);
    assert!(ops > 5, "five named windows before");
}

#[test]
fn structural_consolidation_heals_after_every_op() {
    let mode = ConsolidationMode::Structural;
    let ops = replay_ingest("structural consolidation", 3, mode, 2);
    assert!(ops > 5, "five named windows before");
}

#[test]
fn two_level_cascade_heals_after_every_op() {
    // s = 2, three batches in: {level 0: [b2], level 1: [b0 + b1]}. Batch 3
    // merges level 0, which makes level 1 due, which merges into level 2.
    for mode in [ConsolidationMode::Rebuild, ConsolidationMode::Structural] {
        let ops = replay_ingest(&format!("two-level cascade, {mode:?}"), 2, mode, 3);
        assert!(ops > 5, "no named window reached the second merge before");
    }
}

// ---------------------------------------------------------------------------
// Static builds and saves
// ---------------------------------------------------------------------------

fn dataset() -> Dataset {
    let records = (0..90u64)
        .map(|i| Record::new(i, (i * 37 + 5) % DOMAIN))
        .collect();
    Dataset::new(Domain::new(DOMAIN), records).unwrap()
}

fn answers(client: &LogScheme, server: &QueryServer) -> Vec<QueryOutcome> {
    [
        Range::new(0, DOMAIN - 1),
        Range::new(40, 300),
        Range::point(42),
    ]
    .map(|range| client.try_query(server, range).unwrap())
    .into()
}

/// A budget small enough that the 990-entry build spills two runs.
fn tiny_budget() -> BuildBudget {
    BuildBudget::with_memory(1)
}

#[test]
fn spilling_on_disk_build_restarts_after_every_op() {
    let build = |dir: &Path| {
        LogScheme::build_stored(
            &dataset(),
            &StorageConfig::on_disk(2, dir).with_build_budget(tiny_budget()),
            &mut ChaCha20Rng::seed_from_u64(7),
        )
    };
    let reference = TempDir::new("replay-build-ref");
    let recording = arm_crash(reference.path(), None);
    let (client, server) = build(reference.path()).unwrap();
    let log = recording.trace();
    drop(recording);
    let expected = answers(&client, &server);
    assert!(
        log.iter().any(|(op, _)| *op == "append"),
        "the build must spill"
    );

    let all = crashes(&log);
    for &crash in &all {
        let dir = TempDir::new("replay-build");
        let armed = arm_crash(dir.path(), Some(crash));
        let _ = build(dir.path());
        let trace = armed.trace();
        drop(armed);

        checked("spilling on-disk build", crash, &trace, || {
            let (client, server) = build(dir.path()).expect("the restarted build succeeds");
            assert_eq!(answers(&client, &server), expected);
            assert_no_debris(dir.path());
            assert!(tree(dir.path()) == tree(reference.path()));
        });
    }
    eprintln!(
        "crash_replay: spilling on-disk build: {} ops, {} crashes replayed",
        log.len(),
        all.len()
    );
    assert!(log.len() > 3, "three named windows before");
}

#[test]
fn spilling_in_memory_build_restarts_after_every_op() {
    let build = |spill_root: &Path| {
        let budget = tiny_budget().with_spill_root(spill_root);
        LogScheme::build_stored(
            &dataset(),
            &StorageConfig::in_memory(2).with_build_budget(budget),
            &mut ChaCha20Rng::seed_from_u64(7),
        )
    };
    let reference = TempDir::new("replay-mem-ref");
    let recording = arm_crash(reference.path(), None);
    let (client, server) = build(reference.path()).unwrap();
    let log = recording.trace();
    drop(recording);
    let expected = answers(&client, &server);
    assert_eq!(reference.subdir_count(), 0, "the spill directory is swept");

    let all = crashes(&log);
    for &crash in &all {
        let spill_root = TempDir::new("replay-mem");
        let armed = arm_crash(spill_root.path(), Some(crash));
        let _ = build(spill_root.path());
        let trace = armed.trace();
        drop(armed);

        checked("spilling in-memory build", crash, &trace, || {
            // The dead process's private spill directory (named by pid and
            // a counter) stays under the caller's spill root, as its temp
            // files would; nothing reopens it. It holds spill files only.
            let debris = tree(spill_root.path());
            for path in debris.keys().filter(|path| path.components().count() > 1) {
                let name = path.file_name().unwrap().to_str().unwrap();
                assert!(
                    ["run-", "stage-"].iter().any(|p| name.starts_with(p)),
                    "not a spill file: {}",
                    path.display()
                );
            }
            let (client, server) = build(spill_root.path()).expect("the restarted build succeeds");
            assert_eq!(answers(&client, &server), expected);
            assert!(
                tree(spill_root.path()) == debris,
                "the restart leaves nothing new"
            );
        });
    }
    eprintln!(
        "crash_replay: spilling in-memory build: {} ops, {} crashes replayed",
        log.len(),
        all.len()
    );
    assert!(log.len() > 3, "three named windows before");
}

#[test]
fn save_into_the_served_directory_heals_after_every_op() {
    // Two cases: the served index re-saved into its own directory (the
    // serializer reads the very files it replaces), and a different index
    // saved over it (so a mix of old and new files could not hide).
    let build = |seed: u64, config: &StorageConfig| {
        LogScheme::build_stored(&dataset(), config, &mut ChaCha20Rng::seed_from_u64(seed)).unwrap()
    };
    for other in [false, true] {
        let scenario = if other {
            "save over a served directory"
        } else {
            "re-save into the served directory"
        };
        // `root/index` is served from disk; the save stages in siblings of
        // it, so the gate is armed for `root`.
        let prepare = |root: &Path| {
            let (client, served) = build(7, &StorageConfig::on_disk(2, root.join("index")));
            let old = answers(&client, &served);
            if other {
                let (client, saved) = build(8, &StorageConfig::in_memory(2));
                (client, saved, old)
            } else {
                (client, served, old)
            }
        };
        let open = |root: &Path| QueryServer::open_dir(root.join("index"));

        let reference = TempDir::new("replay-save-ref");
        let (client, saved, old) = prepare(reference.path());
        let recording = arm_crash(reference.path(), None);
        saved.save_to_dir(reference.path().join("index")).unwrap();
        let log = recording.trace();
        drop(recording);
        let new = answers(&client, &open(reference.path()).unwrap());

        // The served index's client (same seed, same keys) asks for the old
        // snapshot's answers.
        let (old_client, _) = build(7, &StorageConfig::in_memory(2));
        let all = crashes(&log);
        for &crash in &all {
            let root = TempDir::new("replay-save");
            let (client, saved, _) = prepare(root.path());
            let armed = arm_crash(root.path(), Some(crash));
            let _ = saved.save_to_dir(root.path().join("index"));
            let trace = armed.trace();
            drop(armed);

            checked(scenario, crash, &trace, || {
                let reopened = open(root.path()).expect("open_dir heals every crash");
                let state = (answers(&old_client, &reopened), answers(&client, &reopened));
                assert!(
                    state.0 == old || state.1 == new,
                    "neither the old nor the new snapshot"
                );
                // A crashed save's scratch siblings are cleared by the next
                // save, which must converge with the uninterrupted one.
                saved
                    .save_to_dir(root.path().join("index"))
                    .expect("the re-driven save succeeds");
                assert_no_debris(root.path());
                assert!(tree(root.path()) == tree(reference.path()));
            });
        }
        eprintln!(
            "crash_replay: {scenario}: {} ops, {} crashes replayed",
            log.len(),
            all.len()
        );
        assert!(log.len() > 1, "one hand-built leftover-staging test before");
    }
}
