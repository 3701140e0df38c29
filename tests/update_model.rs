//! Model test of the update manager (the manager-level slice of ROADMAP
//! E(1)): random op scripts over a **small** id space, so that every batch
//! collides with ids living in older instances at every level — inserts,
//! modifies of tuples two levels down, deletes, re-inserts after the
//! tombstone was purged — against a plaintext map this test maintains
//! itself.
//!
//! Each script runs under `consolidation_step ∈ {0, 2, 3}` × both
//! [`ConsolidationMode`]s × {in memory, on disk with a drop + `open_root`
//! at a random point}, and a few more times with the commit record of a
//! merge that drains two levels made to fail (a directory planted where it
//! goes, found through the codec kit's recording gate). After **every** ingest and for
//! every range of [`RANGES`]: sorted `try_query` ids == `ground_truth` ==
//! the model (`LogScheme` has no false positives: exact equality).
//!
//! In debug builds every ingest and every reopen below also runs the
//! manager's own oracle (`debug_assert!` that the incrementally maintained
//! authority index equals a from-scratch pass), so this file is the main
//! battery for the index's update rules. A failing run prints its
//! [`Scenario`] — configuration and op script — for `run` to replay (paste
//! it with `Op::*`, `Storage::*` and `ConsolidationMode::*` in scope, the
//! script's `[` as `vec![`).

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha20Rng;
use rsse::core::schemes::log_brc_urc::LogScheme;
use rsse::prelude::*;
use rsse::sse::formats::arm_crash;
use rsse::sse::test_support::TempDir;
use rsse::updates::manifest::OWNER_META_FILE;
use std::collections::BTreeMap;
use std::ffi::OsString;
use std::path::Path;

type LogManager = UpdateManager<LogScheme>;
/// The test's own database: `Some(value)` live, `None` deleted.
type Model = BTreeMap<DocId, Option<u64>>;

const DOMAIN: u64 = 256;
const IDS: u64 = 48;
const BATCHES: usize = 14;
const SEEDS: u64 = 32;
const RANGES: [(u64, u64); 5] = [(0, DOMAIN - 1), (0, 63), (64, 191), (100, 140), (200, 255)];
const MODES: [ConsolidationMode; 2] = [ConsolidationMode::Rebuild, ConsolidationMode::Structural];

#[derive(Clone, Copy, Debug)]
enum Op {
    Insert(DocId, u64),
    /// Carries the new value.
    Modify(DocId, u64),
    /// Carries the value the tuple has, as `UpdateEntry::delete` wants it.
    Delete(DocId, u64),
}

#[derive(Clone, Copy, Debug)]
enum Storage {
    InMemory,
    /// On disk; the manager is dropped and `open_root`ed before this batch.
    OnDiskReopenedBefore(usize),
    /// On disk; the commit record of this batch's consolidation — the one
    /// merge of its chain — fails.
    OnDiskFailingMergeAt(usize),
}

/// Everything a run depends on, printed when the run fails.
#[derive(Clone, Debug)]
struct Scenario {
    step: usize,
    mode: ConsolidationMode,
    storage: Storage,
    /// One inner vector per batch.
    script: Vec<Vec<Op>>,
}

struct PrintOnPanic<'a>(&'a Scenario);

impl Drop for PrintOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("update_model: replay with `run(&{:?})`", self.0);
        }
    }
}

/// A random script: per op a random id, inserted if the script so far left
/// it absent or deleted, otherwise modified or deleted with equal odds.
fn random_script(rng: &mut ChaCha20Rng) -> Vec<Vec<Op>> {
    let mut live: BTreeMap<DocId, u64> = BTreeMap::new();
    let mut batch = |rng: &mut ChaCha20Rng| -> Vec<Op> {
        (0..rng.gen_range(1..9usize))
            .map(|_| {
                let id = rng.gen_range(0..IDS);
                let value = rng.gen_range(0..DOMAIN);
                match live.get(&id).copied() {
                    Some(current) if rng.gen_bool(0.5) => {
                        live.remove(&id);
                        Op::Delete(id, current)
                    }
                    Some(_) => {
                        live.insert(id, value);
                        Op::Modify(id, value)
                    }
                    None => {
                        live.insert(id, value);
                        Op::Insert(id, value)
                    }
                }
            })
            .collect()
    };
    (0..BATCHES).map(|_| batch(rng)).collect()
}

/// The cases the random scripts only meet by chance, spelled out against
/// the s = 2 schedule (the other steps run it too, on their own schedules).
fn directed_script() -> Vec<Vec<Op>> {
    use Op::*;
    vec![
        vec![Insert(1, 10), Insert(2, 20), Insert(3, 30)],
        vec![Insert(4, 40)], // A = {1, 2, 3, 4} at level 1
        vec![Delete(1, 10)],
        // The tombstone survives the level-0 merge (A holds 1), meets the
        // insert in the level-1 merge, and both are purged: C at level 2.
        vec![Insert(5, 50)],
        vec![Insert(1, 200)], // re-insert after the purge
        vec![Insert(6, 60)],
        vec![Modify(2, 222)], // 2 lives two levels down, in C
        vec![Delete(3, 30)],  // cascades through all three levels
        // One batch touching one id three times: the last op wins.
        vec![
            Insert(3, 33),
            Modify(3, 133),
            Delete(3, 133),
            Modify(1, 201),
        ],
        vec![Insert(3, 34), Delete(6, 60)],
        vec![Delete(2, 222), Insert(7, 70)],
        vec![Insert(2, 21)],
    ]
}

fn owner_key() -> OwnerKey {
    OwnerKey::from_bytes([20u8; 32])
}

fn config(scenario: &Scenario, root: &Path) -> UpdateConfig {
    UpdateConfig {
        consolidation_step: scenario.step,
        consolidation_mode: scenario.mode,
        storage_root: match scenario.storage {
            Storage::InMemory => None,
            _ => Some(root.to_path_buf()),
        },
        ..UpdateConfig::default()
    }
}

/// Applies batch `b` of the script to the model and ingests it.
fn ingest(
    manager: &mut LogManager,
    model: &mut Model,
    scenario: &Scenario,
    b: usize,
) -> Result<(), rsse::core::StorageError> {
    let entries = (scenario.script[b].iter())
        .map(|&op| match op {
            Op::Insert(id, value) => {
                model.insert(id, Some(value));
                UpdateEntry::insert(id, value)
            }
            Op::Modify(id, value) => {
                model.insert(id, Some(value));
                UpdateEntry::modify(id, value)
            }
            Op::Delete(id, value) => {
                model.insert(id, None);
                UpdateEntry::delete(id, value)
            }
        })
        .collect();
    manager.try_ingest_batch(entries, &mut ChaCha20Rng::seed_from_u64(b as u64))
}

fn check(manager: &LogManager, model: &Model, when: &str) {
    for (lo, hi) in RANGES {
        let range = Range::new(lo, hi);
        let expected: Vec<DocId> = (model.iter())
            .filter(|(_, value)| value.is_some_and(|value| range.contains(value)))
            .map(|(&id, _)| id)
            .collect();
        let mut answered = manager.try_query(range).expect("query serves").ids;
        answered.sort_unstable();
        assert_eq!(answered, expected, "try_query vs model, {when}, {range:?}");
        let mut truth = manager.ground_truth(range);
        truth.sort_unstable();
        assert_eq!(truth, expected, "ground_truth vs model, {when}, {range:?}");
    }
}

/// The instance directory whose commit record batch `b`'s ingest writes
/// last — its consolidation's merged instance — taken from a twin that
/// runs the same script with the gate only recording.
fn last_commit_dir(scenario: &Scenario, b: usize) -> OsString {
    let root = TempDir::new("model-twin");
    let mut twin = LogManager::with_key(
        owner_key(),
        Domain::new(DOMAIN),
        config(scenario, root.path()),
    );
    let mut model = Model::new();
    for earlier in 0..b {
        ingest(&mut twin, &mut model, scenario, earlier).expect("twin ingests");
    }
    let consolidations = twin.consolidations();
    let recording = arm_crash(root.path(), None);
    ingest(&mut twin, &mut model, scenario, b).expect("twin ingests");
    assert!(
        twin.consolidations() > consolidations,
        "batch {b} must run a consolidation"
    );
    let log = recording.trace();
    let (_, last) = (log.iter().rev())
        .find(|(op, path)| *op == "write" && path.ends_with(OWNER_META_FILE))
        .expect("an ingest writes a commit record");
    last.parent().unwrap().file_name().unwrap().to_owned()
}

fn run(scenario: &Scenario) {
    let _replay = PrintOnPanic(scenario);
    let root = TempDir::new("model");
    let config = config(scenario, root.path());
    let mut manager = LogManager::with_key(owner_key(), Domain::new(DOMAIN), config.clone());
    let mut model = Model::new();
    for b in 0..scenario.script.len() {
        match scenario.storage {
            Storage::OnDiskReopenedBefore(at) if at == b => {
                drop(manager);
                manager = LogManager::open_root(owner_key(), root.path(), config.clone())
                    .expect("the root reopens");
                check(&manager, &model, &format!("reopened before batch {b}"));
            }
            Storage::OnDiskFailingMergeAt(at) if at == b => {
                // A directory where the merge's commit record goes fails
                // that one write.
                let merged = root.path().join(last_commit_dir(scenario, b));
                std::fs::create_dir_all(merged.join(OWNER_META_FILE)).unwrap();
                // The merge rolls back; the batch itself stays ingested.
                ingest(&mut manager, &mut model, scenario, b).expect_err("the merge fails");
                check(
                    &manager,
                    &model,
                    &format!("after the failed merge of batch {b}"),
                );
                continue;
            }
            _ => {}
        }
        ingest(&mut manager, &mut model, scenario, b).expect("ingest commits");
        check(&manager, &model, &format!("after batch {b}"));
    }
}

/// Every `consolidation_step` × [`ConsolidationMode`] the scripts run under.
fn schedules() -> Vec<(usize, ConsolidationMode)> {
    let steps = [0, 2, 3];
    (steps.iter())
        .flat_map(|&step| MODES.map(|mode| (step, mode)))
        .collect()
}

#[test]
fn random_scripts_match_the_model_in_memory() {
    for seed in 0..SEEDS {
        let script = random_script(&mut ChaCha20Rng::seed_from_u64(seed));
        for (step, mode) in schedules() {
            run(&Scenario {
                step,
                mode,
                storage: Storage::InMemory,
                script: script.clone(),
            });
        }
    }
}

/// On disk an ingest costs file creates and renames (the kit writes each
/// file whole and renames it into place — it flushes, it never syncs) and
/// the scenario a reopen of the root, so each seed takes one schedule (in
/// rotation: five or six seeds each) rather than all six.
#[test]
fn random_scripts_match_the_model_on_disk_across_a_reopen() {
    let schedules = schedules();
    for seed in 0..SEEDS {
        let mut rng = ChaCha20Rng::seed_from_u64(seed);
        let script = random_script(&mut rng);
        let (step, mode) = schedules[seed as usize % schedules.len()];
        run(&Scenario {
            step,
            mode,
            storage: Storage::OnDiskReopenedBefore(rng.gen_range(1..BATCHES)),
            script,
        });
    }
}

#[test]
fn directed_script_matches_the_model() {
    for (step, mode) in schedules() {
        for storage in [
            Storage::InMemory,
            Storage::OnDiskReopenedBefore(4),
            Storage::OnDiskReopenedBefore(8),
        ] {
            run(&Scenario {
                step,
                mode,
                storage,
                script: directed_script(),
            });
        }
    }
}

/// A chain merge failing: its inputs roll back and keep answering, the
/// batch stands alone at level 0, the next ingest completes the chain
/// before it places its own batch — and every answer stays the model's.
#[test]
fn scripts_match_the_model_around_a_failed_merge() {
    // (step, the batch whose cascade reaches level 2)
    for (step, failing) in [(2, 3), (3, 8)] {
        for mode in MODES {
            let scripts = (0..4).map(|seed| random_script(&mut ChaCha20Rng::seed_from_u64(seed)));
            for script in scripts.chain([directed_script()]) {
                run(&Scenario {
                    step,
                    mode,
                    storage: Storage::OnDiskFailingMergeAt(failing),
                    script,
                });
            }
        }
    }
}
