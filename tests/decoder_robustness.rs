//! One mutation battery over every on-disk decoder.
//!
//! Each of the five formats (`RSSE-SHD`, `RSSE-IDX`, `RSSE-MGR`,
//! `RSSE-OWN` framing, `RSSE-PBT`) and both `owner.meta` payload bodies is
//! a [`Format`]: a valid file written by the real encoder, and a `recode`
//! function that decodes a candidate byte string in that file's place and
//! re-encodes what it decoded. The same
//! four mutations run against all of them:
//!
//! 1. truncation at every length;
//! 2. one flipped bit at a random position (the proptest runner);
//! 3. every 4- and 8-byte window in the first [`FIELD_WINDOW`] bytes — which
//!    covers every count and length field of every format's header and
//!    first row — overwritten with `0`, `1`, `u32::MAX`, `1 << 60`,
//!    `u64::MAX`;
//! 4. arbitrary bytes behind a valid header (the proptest runner).
//!
//! Every case must end in a typed `Err(StorageError)` or in an `Ok` whose
//! re-encoding is exactly the candidate bytes (a decoder that tolerates a
//! byte string its encoder would never write has silently changed a value).
//! Never a panic — and never a single allocation beyond a small multiple of
//! the bytes on disk, checked with a recording global allocator: a crafted
//! count must be rejected before it sizes anything.
//!
//! Beside the battery, the two formats that hold payload ciphertext
//! (`RSSE-SHD`, `RSSE-OWN`) must refuse a file of version 1 — written under
//! the HMAC keystream, which would decrypt to wrong ids under AES-256-CTR —
//! with a typed error.

use proptest::prelude::*;
use proptest::test_runner::TestRunner;
use rand::SeedableRng;
use rand_chacha::ChaCha20Rng;
use rsse::core::schemes::log_brc_urc::LogScheme;
use rsse::core::schemes::pb::{PbScheme, PbServer};
use rsse::core::{StorageConfig, StorageError};
use rsse::prelude::*;
use rsse::sse::formats::CIPHERTEXT_FORMAT_VERSION;
use rsse::sse::storage::{shard_file_name, MANIFEST_FILE};
use rsse::sse::test_support::TempDir;
use rsse::updates::manifest::{
    read_manager_manifest, read_owner_meta, write_manager_manifest, write_owner_meta,
    ManagerManifest, MANAGER_MANIFEST_FILE, OWNER_META_FILE,
};
use rsse::updates::persist::OwnerPayload;
use std::alloc::{GlobalAlloc, Layout, System};
use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Size of the largest single allocation requested since it was last reset.
static LARGEST_ALLOCATION: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, recording the largest request.
struct Recording;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is a relaxed atomic
// store of the requested size, which allocates nothing.
unsafe impl GlobalAlloc for Recording {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST_ALLOCATION.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST_ALLOCATION.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST_ALLOCATION.fetch_max(new_size, Ordering::Relaxed);
        // SAFETY: `ptr` and `layout` are the caller's, for a block this
        // allocator handed out, i.e. one `System` allocated.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Recording = Recording;

/// The tests of this binary share [`LARGEST_ALLOCATION`]; each holds this
/// for its whole body so another test's allocations are never attributed
/// to a decoder.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// A decoder may allocate this many times the bytes it was given …
const ALLOCATION_FACTOR: usize = 8;

/// … plus this much that does not depend on them (the 64 KiB region copy
/// buffer and the `BufWriter`s of the re-encoding save, path strings,
/// error text).
const ALLOCATION_SLACK: usize = 128 << 10;

/// Mutation 3 overwrites every window that starts in the first this-many
/// bytes: past every format's fixed header and the count fields of its
/// first row (`manager.meta`'s first `instance_count` sits at byte 115).
const FIELD_WINDOW: usize = 160;

/// Decodes a candidate byte string as one format and re-encodes what it
/// decoded.
type Recode = Box<dyn Fn(&[u8]) -> Result<Vec<u8>, StorageError>>;

/// One decoder under test.
struct Format {
    name: &'static str,
    /// A valid file, as the real encoder wrote it.
    valid: Vec<u8>,
    /// Bytes of the other files the decoder reads alongside (the allocation
    /// bound is relative to everything on disk).
    beside: usize,
    /// Leading bytes mutation 4 keeps: magic + version, or a payload
    /// body's kind byte.
    header_len: usize,
    /// Decodes `candidate` in the valid file's place and re-encodes what it
    /// decoded.
    recode: Recode,
}

impl Format {
    /// Runs one candidate through the decoder and checks the three
    /// obligations: no panic, bounded allocation, `Err` or a faithful `Ok`.
    /// Returns whether the candidate decoded.
    fn check(&self, candidate: &[u8], what: &str) -> bool {
        LARGEST_ALLOCATION.store(0, Ordering::Relaxed);
        let outcome = catch_unwind(AssertUnwindSafe(|| (self.recode)(candidate)));
        let largest = LARGEST_ALLOCATION.load(Ordering::Relaxed);
        let name = self.name;
        let Ok(result) = outcome else {
            panic!("{name}: decoder panicked on {what}");
        };
        let on_disk = self.beside + self.valid.len().max(candidate.len());
        assert!(
            largest <= ALLOCATION_FACTOR * on_disk + ALLOCATION_SLACK,
            "{name}: a {largest}-byte allocation for {on_disk} bytes on disk, on {what}"
        );
        if let Ok(recoded) = &result {
            assert!(
                recoded == candidate,
                "{name}: accepted {what}, which its encoder does not write"
            );
        }
        result.is_ok()
    }
}

fn dir_bytes(dir: &Path) -> usize {
    fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().metadata().unwrap().len() as usize)
        .sum()
}

/// A format living at `dir/file` whose decoder is "open `dir`" (with the
/// candidate written in the file's place) and whose encoder is "save into
/// a scratch directory" (prepared only for what decoded).
fn in_dir<T>(
    name: &'static str,
    dir: PathBuf,
    file: String,
    open: impl Fn(&Path) -> Result<T, StorageError> + 'static,
    save: impl Fn(&T, &Path) -> Result<(), StorageError> + 'static,
) -> Format {
    let valid = fs::read(dir.join(&file)).unwrap();
    Format {
        name,
        beside: dir_bytes(&dir) - valid.len(),
        valid,
        header_len: 12,
        recode: Box::new(move |candidate| {
            fs::write(dir.join(&file), candidate).unwrap();
            let decoded = open(&dir)?;
            let out = dir.join("recoded");
            let _ = fs::remove_dir_all(&out);
            fs::create_dir_all(&out).unwrap();
            save(&decoded, &out)?;
            Ok(fs::read(out.join(&file)).unwrap())
        }),
    }
}

fn dataset() -> Dataset {
    let records = (0..8u64)
        .map(|i| Record::new(i, (i * 11 + 3) % 64))
        .collect();
    Dataset::new(Domain::new(64), records).unwrap()
}

fn payload_format(name: &'static str, payload: OwnerPayload) -> Format {
    Format {
        name,
        valid: payload.to_plaintext(),
        beside: 0,
        header_len: 1,
        recode: Box::new(|candidate| {
            OwnerPayload::from_plaintext(Path::new("owner.meta"), candidate)
                .map(|payload| payload.to_plaintext())
        }),
    }
}

/// Builds a valid instance of everything under `scratch`. Every format
/// gets a directory of its own, so one format's candidates never sit
/// beside another's decoder.
fn formats(scratch: &Path) -> Vec<Format> {
    let rng = || ChaCha20Rng::seed_from_u64(5);
    let mut formats = Vec::new();

    for (name, file) in [
        ("RSSE-SHD", shard_file_name(0)),
        ("RSSE-IDX", MANIFEST_FILE.to_string()),
    ] {
        let dir = scratch.join(name);
        LogScheme::build_stored(&dataset(), &StorageConfig::on_disk(0, &dir), &mut rng()).unwrap();
        formats.push(in_dir(
            name,
            dir,
            file,
            |dir| ShardedIndex::open_dir(dir),
            |index, out| index.save_to_dir(out),
        ));
    }

    let dir = scratch.join("RSSE-PBT");
    PbScheme::build_stored(&dataset(), &StorageConfig::on_disk(0, &dir), &mut rng()).unwrap();
    formats.push(in_dir(
        "RSSE-PBT",
        dir,
        "pb-tree.bin".to_string(),
        |dir| PbServer::open_dir(dir),
        |server, out| server.save_to_dir(out),
    ));

    // A manager root after four ingests at step 3: a two-level table in
    // `manager.meta`, and a structurally merged instance.
    let root = scratch.join("manager");
    fs::create_dir_all(&root).unwrap();
    let mut manager: UpdateManager<LogScheme> = UpdateManager::with_key(
        OwnerKey::from_bytes([3u8; 32]),
        Domain::new(64),
        UpdateConfig {
            consolidation_step: 3,
            storage_root: Some(root.clone()),
            consolidation_mode: ConsolidationMode::Structural,
            ..UpdateConfig::default()
        },
    );
    for b in 0..4u64 {
        let batch = (0..4).map(|i| UpdateEntry::insert(b * 4 + i, (b * 7 + i) % 64));
        manager.ingest_batch(batch.collect(), &mut ChaCha20Rng::seed_from_u64(50 + b));
    }
    assert_eq!(manager.structural_instances(), 1);
    drop(manager);
    let manifest = read_manager_manifest(&root).unwrap();
    let merged = ManagerManifest::instance_dir_name(manifest.levels[1][0].build_id);
    // The decoders under test read only the one metadata file: isolate it.
    let isolated = |name: &str, from: &Path, file: &str| {
        let dir = scratch.join(name);
        fs::create_dir_all(&dir).unwrap();
        fs::copy(from.join(file), dir.join(file)).unwrap();
        dir
    };
    formats.push(in_dir(
        "RSSE-MGR",
        isolated("RSSE-MGR", &root, MANAGER_MANIFEST_FILE),
        MANAGER_MANIFEST_FILE.to_string(),
        read_manager_manifest,
        |manifest, out| write_manager_manifest(out, manifest),
    ));
    formats.push(in_dir(
        "RSSE-OWN",
        isolated("RSSE-OWN", &root.join(merged), OWNER_META_FILE),
        OWNER_META_FILE.to_string(),
        read_owner_meta,
        |meta, out| write_owner_meta(out, meta),
    ));

    formats.push(payload_format(
        "RSSE-OWN payload, kind 0",
        OwnerPayload::Plain {
            seed: [7u8; 32],
            entries: vec![
                UpdateEntry::insert(1, 10),
                UpdateEntry::modify(2, 20),
                UpdateEntry::delete(3, 30),
            ],
        },
    ));
    formats.push(payload_format(
        "RSSE-OWN payload, kind 1",
        OwnerPayload::Structural {
            seeds: vec![[1u8; 32], [2u8; 32]],
            entries: vec![
                (UpdateEntry::insert(1, 10), 0),
                (UpdateEntry::modify(2, 20), 1),
                (UpdateEntry::delete(3, 30), 1),
            ],
        },
    ));

    formats
}

/// Builds the formats once and hands them to `battery`, holding
/// [`ONE_AT_A_TIME`] throughout.
fn with_formats(tag: &str, battery: impl FnOnce(&[Format])) {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let scratch = TempDir::new(tag);
    battery(&formats(scratch.path()));
}

#[test]
fn truncation_at_every_length_is_rejected_typed() {
    with_formats("decoders-truncate", |formats| {
        for format in formats {
            assert!(
                format.check(&format.valid, "the valid file"),
                "{}: the valid file does not decode",
                format.name
            );
            for len in 0..format.valid.len() {
                let accepted = format.check(&format.valid[..len], &format!("a cut at {len}"));
                assert!(!accepted, "{}: accepted a cut at {len}", format.name);
            }
        }
    });
}

#[test]
fn overwritten_count_and_length_fields_never_size_an_allocation() {
    let values = [0, 1, u64::from(u32::MAX), 1 << 60, u64::MAX];
    with_formats("decoders-counts", |formats| {
        for format in formats {
            for at in 0..format.valid.len().min(FIELD_WINDOW) {
                for (value, width) in values.into_iter().flat_map(|v| [(v, 4), (v, 8)]) {
                    let Some(window) = format.valid.get(at..at + width) else {
                        continue;
                    };
                    let field = &value.to_le_bytes()[..width];
                    if window == field || (width == 4 && value > u64::from(u32::MAX)) {
                        continue;
                    }
                    let mut candidate = format.valid.clone();
                    candidate[at..at + width].copy_from_slice(field);
                    format.check(&candidate, &format!("{value:#x} as u{} at {at}", width * 8));
                }
            }
        }
    });
}

#[test]
fn one_flipped_bit_is_an_error_or_a_faithful_decode() {
    with_formats("decoders-flip", |formats| {
        TestRunner::new(ProptestConfig::with_cases(256)).run(|rng| {
            let (position, bit) = (any::<u64>(), 0u32..8).new_value(rng);
            for format in formats {
                let at = (position % format.valid.len() as u64) as usize;
                let mut candidate = format.valid.clone();
                candidate[at] ^= 1 << bit;
                format.check(&candidate, &format!("bit {bit} of byte {at} flipped"));
            }
            Ok(())
        });
    });
}

#[test]
fn arbitrary_bytes_behind_a_valid_header_are_an_error_or_a_faithful_decode() {
    with_formats("decoders-arbitrary", |formats| {
        TestRunner::new(ProptestConfig::with_cases(128)).run(|rng| {
            let body = proptest::collection::vec(any::<u8>(), 0..512).new_value(rng);
            for format in formats {
                let mut candidate = format.valid[..format.header_len].to_vec();
                candidate.extend_from_slice(&body);
                format.check(
                    &candidate,
                    &format!("{} arbitrary bytes behind the header", body.len()),
                );
            }
            Ok(())
        });
    });
}

/// Version 1 of a shard file or an owner sidecar is ciphertext under the
/// HMAC keystream: the decoder must refuse it as `UnsupportedVersion`
/// instead of decrypting it to wrong ids.
#[test]
fn a_version_1_shard_or_owner_sidecar_is_refused_typed() {
    with_formats("decoders-version-1", |formats| {
        for name in ["RSSE-SHD", "RSSE-OWN"] {
            let format = formats.iter().find(|f| f.name == name).unwrap();
            let version = CIPHERTEXT_FORMAT_VERSION.to_le_bytes();
            assert_eq!(
                format.valid[8..12],
                version,
                "{name} is written at version 2"
            );
            let mut candidate = format.valid.clone();
            candidate[8..12].copy_from_slice(&1u32.to_le_bytes());
            match (format.recode)(&candidate) {
                Err(StorageError::UnsupportedVersion {
                    version: 1,
                    expected: 2,
                    ..
                }) => {}
                other => panic!("{name}: a version-1 file decoded to {other:?}"),
            }
        }
    });
}

/// The same refusal one level up: a manager root whose owner sidecars are
/// version 1 does not reopen — and reopening it deletes nothing — and an
/// index directory with a version-1 shard does not open for serving.
#[test]
fn a_version_1_manager_root_or_index_does_not_open() {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let scratch = TempDir::new("decoders-version-1-roots");
    let root = scratch.path().join("manager");
    let config = UpdateConfig {
        consolidation_step: 3,
        storage_root: Some(root.clone()),
        ..UpdateConfig::default()
    };
    let key = || OwnerKey::from_bytes([3u8; 32]);
    let mut manager: UpdateManager<LogScheme> =
        UpdateManager::with_key(key(), Domain::new(64), config.clone());
    for b in 0..2u64 {
        let batch = (0..4).map(|i| UpdateEntry::insert(b * 4 + i, (b * 7 + i) % 64));
        manager.ingest_batch(batch.collect(), &mut ChaCha20Rng::seed_from_u64(60 + b));
    }
    drop(manager);
    let mut sidecars = 0;
    for entry in fs::read_dir(&root).unwrap() {
        let sidecar = entry.unwrap().path().join(OWNER_META_FILE);
        if let Ok(mut bytes) = fs::read(&sidecar) {
            bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
            fs::write(&sidecar, bytes).unwrap();
            sidecars += 1;
        }
    }
    assert_eq!(sidecars, 2, "one sidecar per ingested batch");
    let before = dir_tree(&root);
    match UpdateManager::<LogScheme>::open_root(key(), &root, config) {
        Err(StorageError::UnsupportedVersion { version: 1, .. }) => {}
        other => panic!("a version-1 root reopened: {:?}", other.err()),
    }
    assert_eq!(dir_tree(&root), before, "the refused open removed a file");

    let dir = scratch.path().join("index");
    LogScheme::build_stored(
        &dataset(),
        &StorageConfig::on_disk(1, &dir),
        &mut ChaCha20Rng::seed_from_u64(5),
    )
    .unwrap();
    let shard = dir.join(shard_file_name(1));
    let mut bytes = fs::read(&shard).unwrap();
    bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
    fs::write(&shard, bytes).unwrap();
    match QueryServer::open_dir(&dir) {
        Err(StorageError::UnsupportedVersion { version: 1, .. }) => {}
        other => panic!("an index with a version-1 shard opened: {:?}", other.err()),
    }
}

/// Every file under `dir`, by path, with its bytes.
fn dir_tree(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut files = Vec::new();
    for entry in fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            files.extend(dir_tree(&path));
        } else {
            files.push((path.clone(), fs::read(&path).unwrap()));
        }
    }
    files.sort();
    files
}
