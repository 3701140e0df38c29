//! Scheme-level guarantees of the external-memory build pipeline.
//!
//! The byte-level property (any budget, any backend → bit-identical shard
//! files) is proved per-entry-stream inside `rsse-sse`; this battery checks
//! the contract end to end through the range schemes and the update
//! manager:
//!
//! * every budget-honoring scheme, built externally on disk, produces an
//!   index directory byte-identical to its in-RAM build;
//! * the Logarithmic scheme's build — the fixed-stride pipeline, with or
//!   without a budget — writes the bytes of the sequential reference build
//!   over an `SseDatabase` filled the way the paper's BuildIndex reads;
//! * the in-memory backend answers queries identically either way — the
//!   budget is just a `StorageConfig` field, at a deliberately tiny value
//!   and at `BuildBudget::default()`;
//! * a build killed inside a spill crash window leaves debris that the
//!   restarted build heals — without touching foreign files — and
//!   converges byte-identically;
//! * an update manager with a `build_budget` consolidates through the
//!   external path and stays byte-identical to an unbudgeted manager.

use rand::SeedableRng;
use rand_chacha::ChaCha20Rng;
use rsse::core::{BuildBudget, StorageConfig};
use rsse::prelude::*;
use rsse::sse::external::{run_file_name, SPILL_DIR};
use rsse::sse::formats::{arm_crash, Crash};
use rsse::sse::storage::shard_file_name;
use rsse::sse::test_support::TempDir;
use std::fs;
use std::path::Path;

/// The schemes whose stored builds honor `StorageConfig::build_budget`
/// (PB's filter tree is built in RAM; Quadratic honors it too, but its
/// `O(n·m²)` index is far too large for these corpora).
const BUDGETED: [SchemeKind; 7] = [
    SchemeKind::ConstantBrc,
    SchemeKind::ConstantUrc,
    SchemeKind::LogarithmicBrc,
    SchemeKind::LogarithmicUrc,
    SchemeKind::LogarithmicSrc,
    SchemeKind::LogarithmicSrcI,
    SchemeKind::PlainSse,
];

/// A budget small enough that every test build spills multiple runs
/// (the run size floors at `BuildBudget`'s minimum of 512 entries).
fn tiny_budget() -> BuildBudget {
    BuildBudget::with_memory(1)
}

/// Byte compare of two directory trees (SRC-i nests its two indexes in
/// `i1`/`i2` subdirectories).
fn trees_equal(a: &Path, b: &Path) -> bool {
    let list = |dir: &Path| -> Vec<(String, bool)> {
        let mut names: Vec<(String, bool)> = fs::read_dir(dir)
            .unwrap()
            .map(|e| {
                let e = e.unwrap();
                (
                    e.file_name().into_string().unwrap(),
                    e.file_type().unwrap().is_dir(),
                )
            })
            .collect();
        names.sort();
        names
    };
    let names = list(a);
    if names != list(b) {
        return false;
    }
    names.iter().all(|(name, is_dir)| {
        if *is_dir {
            trees_equal(&a.join(name), &b.join(name))
        } else {
            fs::read(a.join(name)).unwrap() == fs::read(b.join(name)).unwrap()
        }
    })
}

/// For every budget-honoring scheme and several seeds: the budgeted build
/// — at a tiny budget that spills many runs and at the default budget —
/// writes an on-disk index directory byte-identical to the in-RAM build.
#[test]
fn external_disk_builds_are_byte_identical_across_schemes() {
    for seed in [1u64, 7] {
        let mut data_rng = ChaCha20Rng::seed_from_u64(seed);
        let dataset = gowalla_like(700, 1 << 10, &mut data_rng);
        for kind in BUDGETED {
            let ref_dir = TempDir::new("ext-ref");
            AnyScheme::build_stored(
                kind,
                &dataset,
                &StorageConfig::on_disk(2, ref_dir.path()),
                &mut ChaCha20Rng::seed_from_u64(seed ^ 0xb17),
            )
            .unwrap();
            // Spilling many runs; fitting with room to spare; fitting the
            // sort but not the shard buffers (stage files without runs).
            for budget in [
                tiny_budget(),
                BuildBudget::default(),
                BuildBudget::with_memory(1 << 20),
            ] {
                let ext_dir = TempDir::new("ext-new");
                AnyScheme::build_stored(
                    kind,
                    &dataset,
                    &StorageConfig::on_disk(2, ext_dir.path()).with_build_budget(budget.clone()),
                    &mut ChaCha20Rng::seed_from_u64(seed ^ 0xb17),
                )
                .unwrap();
                assert!(
                    trees_equal(ref_dir.path(), ext_dir.path()),
                    "{} build under {budget:?} diverged from the in-RAM bytes (seed {seed})",
                    kind.name()
                );
            }
        }
    }
}

/// The scheme-level differential, against code the pipeline shares nothing
/// with: Logarithmic-BRC's stored build writes, byte for byte, what the
/// sequential reference build writes over an `SseDatabase` holding every
/// record id under each node of its root path, lists shuffled — for every
/// shard count, without a budget, under one the build fits, and under one
/// that spills.
#[test]
fn log_scheme_build_equals_the_reference_build() {
    use rsse::core::schemes::log_brc_urc::LogScheme;
    use rsse::cover::Node;
    use rsse::crypto::KeyChain;
    use rsse::sse::pibas::reference;
    use rsse::sse::{SseDatabase, SseScheme};

    let seed = 23u64;
    let dataset = gowalla_like(700, 1 << 10, &mut ChaCha20Rng::seed_from_u64(seed));
    for shard_bits in [0u32, 2, 4] {
        let ref_dir = TempDir::new("ext-db-ref");
        let mut rng = ChaCha20Rng::seed_from_u64(seed ^ 0xb17);
        let chain = KeyChain::generate(&mut rng);
        let key = SseScheme::key_from(chain.derive(b"sse"));
        // Each keyword's list goes in sorted by payload: the order the
        // keyed shuffle of the grouped build starts from.
        let mut entries: Vec<([u8; 13], [u8; 8])> = Vec::new();
        for record in dataset.records() {
            for node in Node::path_to_root(dataset.domain(), record.value) {
                entries.push((node.keyword(), record.id.to_le_bytes()));
            }
        }
        entries.sort_unstable();
        let mut database: SseDatabase = entries.into_iter().collect();
        database.shuffle_lists(&chain.derive(b"shuffle"));
        let config = StorageConfig::on_disk(shard_bits, ref_dir.path());
        reference::build_stored(&key, &database, &config, &mut rng).unwrap();

        for budget in [None, Some(BuildBudget::default()), Some(tiny_budget())] {
            let dir = TempDir::new("ext-db-new");
            let mut config = StorageConfig::on_disk(shard_bits, dir.path());
            config.build_budget = budget.clone();
            let mut scheme_rng = ChaCha20Rng::seed_from_u64(seed ^ 0xb17);
            LogScheme::build_stored(&dataset, &config, &mut scheme_rng).unwrap();
            assert!(
                trees_equal(ref_dir.path(), dir.path()),
                "{shard_bits} shard bits, {budget:?}: the pipeline diverged from the reference"
            );
            use rand::RngCore;
            assert_eq!(
                scheme_rng.next_u64(),
                rng.clone().next_u64(),
                "{shard_bits} shard bits, {budget:?}: the build drew differently from the RNG"
            );
        }
    }
}

/// The in-memory backend: external and in-RAM builds answer every query
/// identically, including false-positive sets (same index bytes ⇒ same
/// server walk).
#[test]
fn external_in_memory_builds_answer_identically() {
    let mut data_rng = ChaCha20Rng::seed_from_u64(5);
    let dataset = gowalla_like(600, 1 << 10, &mut data_rng);
    let spill_root = TempDir::new("ext-mem-spill");
    let queries = [
        Range::new(0, (1 << 10) - 1),
        Range::new(100, 400),
        Range::point(777),
    ];
    for kind in BUDGETED {
        let reference = AnyScheme::build_stored(
            kind,
            &dataset,
            &StorageConfig::in_memory(1),
            &mut ChaCha20Rng::seed_from_u64(13),
        )
        .unwrap();
        let external = AnyScheme::build_stored(
            kind,
            &dataset,
            &StorageConfig::in_memory(1)
                .with_build_budget(tiny_budget().with_spill_root(spill_root.path())),
            &mut ChaCha20Rng::seed_from_u64(13),
        )
        .unwrap();
        for query in queries {
            assert_eq!(
                reference.query(query).ids,
                external.query(query).ids,
                "{} diverged on {query}",
                kind.name()
            );
        }
    }
    // Every spill directory was swept on success.
    assert_eq!(spill_root.subdir_count(), 0);
}

/// A scheme build killed in each spill crash window — right after the op
/// that commits the first sorted run, the last one, the first final shard
/// file, each looked up in the gate's log of the uninterrupted build:
/// the debris never includes foreign files being deleted, and the restarted
/// build converges byte-identically to an uninterrupted one.
#[test]
fn killed_scheme_build_heals_and_converges() {
    let mut data_rng = ChaCha20Rng::seed_from_u64(17);
    let dataset = gowalla_like(700, 1 << 10, &mut data_rng);
    let build = |dir: &Path| {
        AnyScheme::build_stored(
            SchemeKind::LogarithmicBrc,
            &dataset,
            &StorageConfig::on_disk(2, dir).with_build_budget(tiny_budget()),
            &mut ChaCha20Rng::seed_from_u64(2),
        )
    };
    let reference = TempDir::new("ext-kill-ref");
    let recording = arm_crash(reference.path(), None);
    build(reference.path()).unwrap();
    let log = recording.trace();
    drop(recording);

    let last_run = log
        .iter()
        .rev()
        .filter(|(op, _)| *op == "write")
        .find_map(|(_, path)| {
            let name = path.file_name()?.to_str()?;
            name.ends_with(".spl").then(|| name.to_string())
        })
        .expect("the build spills");
    assert_ne!(last_run, run_file_name(0), "the build spills several runs");

    for committed in [run_file_name(0), last_run, shard_file_name(0)] {
        let after = log
            .iter()
            .position(|(op, path)| *op == "write" && path.ends_with(&committed))
            .unwrap_or_else(|| panic!("no op commits {committed}"));
        let dir = TempDir::new("ext-kill");
        let spill = dir.path().join(SPILL_DIR);
        fs::create_dir_all(&spill).unwrap();
        let foreign = spill.join("operator-notes.txt");
        fs::write(&foreign, b"keep me").unwrap();

        let crash = Crash {
            at: after + 1,
            torn: None,
        };
        let armed = arm_crash(dir.path(), Some(crash));
        assert!(
            build(dir.path()).is_err(),
            "{committed}: the armed crash must abort the build"
        );
        drop(armed);
        assert!(spill.exists(), "{committed}: crash must leave debris");
        assert_eq!(fs::read(&foreign).unwrap(), b"keep me");

        build(dir.path()).unwrap();
        assert_eq!(fs::read(&foreign).unwrap(), b"keep me");
        fs::remove_file(&foreign).unwrap();
        fs::remove_dir(&spill).unwrap();
        assert!(
            trees_equal(reference.path(), dir.path()),
            "{committed}: restarted build diverged"
        );
    }
}

/// Update managers with and without a `build_budget`, fed the same batches
/// from the same seed: consolidation rebuilds route through the external
/// pipeline on the budgeted manager, and every persisted instance directory
/// stays byte-identical to the unbudgeted manager's.
#[test]
fn budgeted_manager_consolidations_stay_byte_identical() {
    use rsse::core::schemes::log_brc_urc::LogScheme;
    let domain = Domain::new(1 << 10);
    let key = OwnerKey::from_bytes([3u8; 32]);
    let root_plain = TempDir::new("mgr-plain");
    let root_budget = TempDir::new("mgr-budget");
    let config = |root: &Path, budget: Option<BuildBudget>| UpdateConfig {
        consolidation_step: 2,
        shard_bits: 1,
        storage_root: Some(root.to_path_buf()),
        cache_budget: None,
        build_budget: budget,
        consolidation_mode: rsse::updates::ConsolidationMode::default(),
    };
    let drive = |cfg: UpdateConfig| -> UpdateManager<LogScheme> {
        let mut manager = UpdateManager::with_key(key.clone(), domain, cfg);
        let mut rng = ChaCha20Rng::seed_from_u64(31);
        for batch in 0..6u64 {
            let entries: Vec<UpdateEntry> = (0..40u64)
                .map(|i| UpdateEntry::insert(batch * 100 + i, (batch * 131 + i * 7) % (1 << 10)))
                .collect();
            manager.ingest_batch(entries, &mut rng);
        }
        manager
    };
    let plain = drive(config(root_plain.path(), None));
    // memory_bytes = 1 makes every consolidation's estimated working set
    // exceed the budget, so each rebuild goes through the external path.
    let budgeted = drive(config(root_budget.path(), Some(tiny_budget())));

    for query in [Range::new(0, 1023), Range::new(50, 300)] {
        assert_eq!(plain.query(query).ids, budgeted.query(query).ids);
    }
    assert!(
        trees_equal(root_plain.path(), root_budget.path()),
        "budgeted manager's persisted instances diverged"
    );
}
