//! No byte on disk moves: every on-disk format against golden files.
//!
//! `tests/golden/` holds one small instance of every persisted format,
//! generated from the fixed seeds below at the commit *before* the codecs
//! were re-expressed on the `rsse_sse::formats` kit (e133c4c):
//!
//! ```text
//! log/        2-shard Logarithmic-BRC index   RSSE-IDX, RSSE-SHD
//! constant/   Constant-BRC index              … plus constant.meta (RSSE-CMD)
//! pb/         PB filter tree                  pb-tree.bin (RSSE-PBT)
//! manager/    a manager root after 7 ingests  manager.meta (RSSE-MGR) and three
//!             at step 3                       owner.meta (RSSE-OWN): a raw batch,
//!                                             a rebuild-consolidated instance
//!                                             (payload kind 0) and a structurally
//!                                             merged one (payload kind 1)
//! spill/      the spill.tmp/ of an external   spill.meta (RSSE-SPM) and
//!             build stopped after pass 1      run-NNNNN.spl (RSSE-SPL)
//! digests.txt one line per directory: the digest of its fixed query set
//! ```
//!
//! The one test below (a) opens every golden directory with the current
//! decoders and answers its query set with the recorded digest, (b)
//! re-encodes what it decoded and compares bytes, and (c) rebuilds
//! everything from the same seeds and compares the fresh tree to the golden
//! one byte for byte. Nothing here embeds a fresh nonce — owner keys, build
//! seeds and payload nonces all derive from the fixed seeds — so (c) is a
//! plain byte comparison of every file, `owner.meta` payloads included.
//!
//! A deliberate format change regenerates the files with
//! `cargo test --test golden_formats -- --ignored regenerate`.

use rand::SeedableRng;
use rand_chacha::ChaCha20Rng;
use rsse::core::schemes::constant::{ConstantScheme, ConstantServer};
use rsse::core::schemes::log_brc_urc::{LogScheme, LogServer};
use rsse::core::schemes::pb::{PbScheme, PbServer};
use rsse::core::{StorageConfig, StorageError};
use rsse::crypto::Key;
use rsse::prelude::*;
use rsse::sse::external::{recode_spill_dir, SPILL_DIR, SPILL_MANIFEST_FILE};
use rsse::sse::formats::{arm_crash, Crash};
use rsse::sse::test_support::TempDir;
use rsse::sse::{build_index_fixed_external, BuildBudget, SpillOrder, SseScheme};
use rsse::updates::manifest::{
    open_manager_root, read_manager_manifest, read_owner_meta, write_manager_manifest,
    write_owner_meta, MANAGER_MANIFEST_FILE, OWNER_META_FILE,
};
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

const DOMAIN: u64 = 1 << 8;

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn dataset() -> Dataset {
    let records = (0..24u64)
        .map(|i| Record::new(i, (i * 37 + 5) % DOMAIN))
        .collect();
    Dataset::new(Domain::new(DOMAIN), records).unwrap()
}

fn queries() -> [Range; 4] {
    [
        Range::new(0, DOMAIN - 1),
        Range::new(10, 90),
        Range::point(42),
        Range::new(200, DOMAIN - 1),
    ]
}

/// FNV-1a over the ids (in answer order) of every query's outcome.
fn digest(outcomes: impl IntoIterator<Item = QueryOutcome>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for outcome in outcomes {
        for byte in (outcome.ids.len() as u64)
            .to_le_bytes()
            .into_iter()
            .chain(outcome.ids.iter().flat_map(|id| id.to_le_bytes()))
        {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

fn answers<S: RangeScheme>(client: &S, server: &S::Server) -> u64 {
    digest(
        queries()
            .into_iter()
            .map(|range| client.try_query(server, range).unwrap()),
    )
}

fn owner_key() -> OwnerKey {
    OwnerKey::from_bytes([23u8; 32])
}

fn manager_config(root: &Path, mode: ConsolidationMode) -> UpdateConfig {
    UpdateConfig {
        consolidation_step: 3,
        shard_bits: 1,
        storage_root: Some(root.to_path_buf()),
        cache_budget: None,
        build_budget: None,
        consolidation_mode: mode,
    }
}

fn batch(b: u64) -> Vec<UpdateEntry> {
    let mut entries: Vec<UpdateEntry> = (0..6u64)
        .map(|i| UpdateEntry::insert(b * 10 + i, (b * 41 + i * 17) % DOMAIN))
        .collect();
    if b > 0 {
        entries.push(UpdateEntry::modify((b - 1) * 10, (b * 29) % DOMAIN));
        entries.push(UpdateEntry::delete(
            (b - 1) * 10 + 1,
            ((b - 1) * 41 + 17) % DOMAIN,
        ));
    }
    entries
}

/// Seven ingests at step 3: batches 0–2 consolidate by rebuild, the root
/// is reopened in structural mode, batches 3–5 merge structurally, batch 6
/// stays a raw level-0 instance.
fn build_manager(root: &Path) -> UpdateManager<LogScheme> {
    let ingest = |manager: &mut UpdateManager<LogScheme>, batches: std::ops::Range<u64>| {
        for b in batches {
            manager.ingest_batch(batch(b), &mut ChaCha20Rng::seed_from_u64(500 + b));
        }
    };
    let rebuild = manager_config(root, ConsolidationMode::Rebuild);
    let mut manager = UpdateManager::with_key(owner_key(), Domain::new(DOMAIN), rebuild);
    ingest(&mut manager, 0..3);
    drop(manager);
    let structural = manager_config(root, ConsolidationMode::Structural);
    let mut manager = UpdateManager::open_root(owner_key(), root, structural).unwrap();
    ingest(&mut manager, 3..7);
    assert_eq!(manager.rebuild_consolidations(), 1);
    assert_eq!(manager.structural_consolidations(), 1);
    assert_eq!(manager.active_instances(), 3);
    manager
}

fn manager_answers(manager: &UpdateManager<LogScheme>) -> u64 {
    digest(
        queries()
            .into_iter()
            .map(|range| manager.try_query(range).unwrap()),
    )
}

fn spill_entries() -> Vec<([u8; 13], [u8; 8])> {
    (0..1300u64)
        .map(|i| {
            let mut keyword = [0u8; 13];
            keyword[0] = b'B';
            keyword[1..5].copy_from_slice(&((i % 3) as u32).to_le_bytes());
            keyword[5..13].copy_from_slice(&(i % 7).to_le_bytes());
            (keyword, i.to_le_bytes())
        })
        .collect()
}

/// An on-disk external build at a one-byte budget (512-entry runs), killed
/// right after the op that commits `spill.meta` — looked up in the gate's
/// log of an uninterrupted build; returns the index directory holding the
/// debris.
fn build_spill() -> TempDir {
    let build = |dir: &Path| {
        let mut rng = ChaCha20Rng::seed_from_u64(77);
        let key = SseScheme::setup(&mut rng);
        let shuffle_key = Key::generate(&mut rng);
        build_index_fixed_external(
            &key,
            &shuffle_key,
            spill_entries(),
            &StorageConfig::on_disk(1, dir).with_build_budget(BuildBudget::with_memory(1)),
            &mut rng,
        )
    };
    let whole = TempDir::new("golden-spill-whole");
    let recording = arm_crash(whole.path(), None);
    build(whole.path()).unwrap();
    let committed = recording
        .trace()
        .iter()
        .position(|(op, path)| *op == "write" && path.ends_with(SPILL_MANIFEST_FILE))
        .expect("an op commits spill.meta");
    drop(recording);

    let dir = TempDir::new("golden-spill");
    let crash = Crash {
        at: committed + 1,
        torn: None,
    };
    let armed = arm_crash(dir.path(), Some(crash));
    assert!(build(dir.path()).is_err(), "the armed crash must fire");
    drop(armed);
    dir
}

/// Everything built from the fixed seeds under `out`, plus the digest of
/// each directory's query set.
fn build_all(out: &Path) -> BTreeMap<&'static str, u64> {
    let mut digests = BTreeMap::new();
    let on_disk = |name: &str| StorageConfig::on_disk(1, out.join(name));

    let (client, server) = LogScheme::build_stored(
        &dataset(),
        &on_disk("log"),
        &mut ChaCha20Rng::seed_from_u64(11),
    )
    .unwrap();
    digests.insert("log", answers(&client, &server));

    let (client, server) = ConstantScheme::build_stored(
        &dataset(),
        &on_disk("constant"),
        &mut ChaCha20Rng::seed_from_u64(12),
    )
    .unwrap();
    digests.insert("constant", answers(&client, &server));

    let (client, server) = PbScheme::build_stored(
        &dataset(),
        &on_disk("pb"),
        &mut ChaCha20Rng::seed_from_u64(13),
    )
    .unwrap();
    digests.insert("pb", answers(&client, &server));

    fs::create_dir_all(out.join("manager")).unwrap();
    digests.insert(
        "manager",
        manager_answers(&build_manager(&out.join("manager"))),
    );

    let killed = build_spill();
    copy_tree(&killed.path().join(SPILL_DIR), &out.join("spill"));
    digests
}

fn render(digests: &BTreeMap<&'static str, u64>) -> String {
    digests
        .iter()
        .map(|(name, digest)| format!("{name} {digest:016x}\n"))
        .collect()
}

/// Every file under `dir`, as (path relative to `dir`, bytes), sorted.
fn tree(dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    fn walk(root: &Path, dir: &Path, out: &mut BTreeMap<PathBuf, Vec<u8>>) {
        for entry in fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                walk(root, &path, out);
            } else {
                let rel = path.strip_prefix(root).unwrap().to_path_buf();
                out.insert(rel, fs::read(&path).unwrap());
            }
        }
    }
    let mut out = BTreeMap::new();
    walk(dir, dir, &mut out);
    out
}

fn copy_tree(from: &Path, to: &Path) {
    for (rel, bytes) in tree(from) {
        let target = to.join(rel);
        fs::create_dir_all(target.parent().unwrap()).unwrap();
        fs::write(target, bytes).unwrap();
    }
}

fn assert_same_tree(golden: &Path, other: &Path, what: &str) {
    let (golden, other) = (tree(golden), tree(other));
    assert_eq!(
        golden.keys().collect::<Vec<_>>(),
        other.keys().collect::<Vec<_>>(),
        "{what}: file sets differ"
    );
    for (rel, bytes) in &golden {
        assert!(
            bytes == &other[rel],
            "{what}: {} differs from the golden file",
            rel.display()
        );
    }
}

/// (a) + (b) for one scheme directory: the golden files open with the
/// current decoder and answer with the recorded digest (the client
/// re-derives from the seed — a golden directory holds only what a server
/// stores), and saving what was opened reproduces them.
fn reopened<S: RangeScheme>(
    name: &str,
    seed: u64,
    expected: u64,
    open: impl Fn(&Path) -> Result<S::Server, StorageError>,
    save: impl Fn(&S::Server, &Path) -> Result<(), StorageError>,
) {
    let golden = golden_dir().join(name);
    let scratch = TempDir::new("golden-recode");
    let mut rng = ChaCha20Rng::seed_from_u64(seed);
    let (client, _) = S::build_stored(&dataset(), &StorageConfig::in_memory(1), &mut rng).unwrap();
    let server = open(&golden).unwrap();
    assert_eq!(answers(&client, &server), expected, "{name}");
    save(&server, scratch.path()).unwrap();
    assert_same_tree(&golden, scratch.path(), name);
}

#[test]
fn every_format_matches_its_golden_files() {
    let golden = golden_dir();
    let recorded = fs::read_to_string(golden.join("digests.txt")).unwrap();

    // (c) A fresh build from the same seeds is the golden tree, byte for
    // byte, and answers with the recorded digests.
    let fresh = TempDir::new("golden-fresh");
    let digests = build_all(fresh.path());
    assert_eq!(
        render(&digests),
        recorded,
        "fresh builds answer differently"
    );
    fs::write(fresh.path().join("digests.txt"), &recorded).unwrap();
    assert_same_tree(&golden, fresh.path(), "fresh build");

    // (a) + (b), per scheme directory.
    let scratch = TempDir::new("golden-recode");
    reopened::<LogScheme>(
        "log",
        11,
        digests["log"],
        |dir| LogServer::open_dir(dir),
        |server, dir| server.save_to_dir(dir),
    );
    reopened::<ConstantScheme>(
        "constant",
        12,
        digests["constant"],
        |dir| ConstantServer::open_dir(dir),
        |server, dir| server.save_to_dir(dir),
    );
    reopened::<PbScheme>(
        "pb",
        13,
        digests["pb"],
        |dir| PbServer::open_dir(dir),
        |server, dir| server.save_to_dir(dir),
    );

    // The manager root: `open_root` re-commits the manifest it read, so it
    // runs on a copy; the copy must come out byte-identical. The framing of
    // both metadata files round-trips through their codecs here; the
    // payload interiors (kinds 0 and 1) are decoded by `open_root` and
    // their encoder is pinned by (c).
    let root = scratch.path().join("manager");
    copy_tree(&golden.join("manager"), &root);
    let config = manager_config(&root, ConsolidationMode::Structural);
    let manager: UpdateManager<LogScheme> =
        UpdateManager::open_root(owner_key(), &root, config).unwrap();
    assert_eq!(manager_answers(&manager), digests["manager"]);
    assert_eq!(manager.structural_instances(), 1);
    drop(manager);
    assert_same_tree(&golden.join("manager"), &root, "reopened manager root");
    assert_eq!(open_manager_root(golden.join("manager")).unwrap().len(), 3);
    let recoded = scratch.path().join("manager-recoded");
    let manifest = read_manager_manifest(&golden.join("manager")).unwrap();
    fs::create_dir_all(&recoded).unwrap();
    write_manager_manifest(&recoded, &manifest).unwrap();
    let same_file = |rel: &Path| {
        assert!(
            fs::read(golden.join("manager").join(rel)).unwrap()
                == fs::read(recoded.join(rel)).unwrap(),
            "{} does not re-encode to its golden bytes",
            rel.display()
        )
    };
    same_file(Path::new(MANAGER_MANIFEST_FILE));
    for instance in manifest.levels.iter().flatten() {
        let name = rsse::updates::manifest::ManagerManifest::instance_dir_name(instance.build_id);
        let meta = read_owner_meta(&golden.join("manager").join(&name)).unwrap();
        fs::create_dir_all(recoded.join(&name)).unwrap();
        write_owner_meta(&recoded.join(&name), &meta).unwrap();
        same_file(&Path::new(&name).join(OWNER_META_FILE));
    }

    // The spill directory has no reader outside the build that wrote it;
    // the hook decodes the manifest and every run header and hands back
    // their re-encoding.
    let spill = golden.join("spill");
    let recoded = recode_spill_dir::<13, 8>(&spill, SpillOrder::ByKeywordAndPayload).unwrap();
    let files = tree(&spill);
    assert_eq!(
        recoded.len(),
        files.len(),
        "one manifest plus one header per run"
    );
    assert!(recoded[0] == files[Path::new("spill.meta")]);
    for (run, header) in recoded[1..].iter().enumerate() {
        let file = &files[Path::new(&rsse::sse::external::run_file_name(run))];
        assert!(header[..] == file[..header.len()], "run {run} header");
    }
}

/// Rewrites `tests/golden/` from the fixed seeds. Only for a deliberate,
/// versioned format change: the committed files are the record of what
/// existing deployments have on disk.
#[test]
#[ignore = "rewrites the committed golden files"]
fn regenerate() {
    let golden = golden_dir();
    let _ = fs::remove_dir_all(&golden);
    fs::create_dir_all(&golden).unwrap();
    let digests = build_all(&golden);
    fs::write(golden.join("digests.txt"), render(&digests)).unwrap();
}
