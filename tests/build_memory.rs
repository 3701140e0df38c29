//! Peak-heap regression test of `BuildIndex`, in plain `cargo test`.
//!
//! The paper's Logarithmic schemes pay for their search time with an
//! `O(n log m)`-entry BuildIndex, so how much memory a build holds *beyond*
//! the index it produces is a first-class bound. This binary installs a
//! peak-tracking global allocator (its own binary, so no other test pays
//! for it) and holds `LogScheme::build_stored` to a multiple of the index's
//! own storage accounting. A build that keeps the whole transformed corpus
//! alive as per-keyword lists and chunks beside the sorted entries measures
//! ≈ 4.4 × here; the batch pipeline (sorted buffer + pre-sized sinks + one
//! bounded batch) ≈ 2.2–2.4 ×.
//!
//! Because everything in this process is serialized behind one lock, it is
//! also where the process-global counts are exact: the cipher-call delta of
//! a build equals its entry count, and the crash gate can be armed for the
//! whole temp directory to show that a build which does not spill performs
//! no filesystem mutation at all.

use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha20Rng;
use rsse::core::schemes::log_brc_urc::LogScheme;
use rsse::core::{BuildBudget, StorageConfig};
use rsse::crypto::encrypt_call_count;
use rsse::prelude::*;
use rsse::sse::formats::arm_crash;
use rsse::sse::test_support::TempDir;
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Bytes currently allocated, and the highest that has been since
/// [`measure`] last lowered it.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

/// The system allocator, tracking live and peak bytes. A reallocation
/// counts as the new block appearing before the old one goes — what a
/// moving `realloc` holds at its worst.
struct PeakTracking;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only additions are relaxed atomic
// updates of two counters, which allocate nothing.
unsafe impl GlobalAlloc for PeakTracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grew(new_size);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` and `layout` are the caller's, for a block this
        // allocator handed out, i.e. one `System` allocated.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: PeakTracking = PeakTracking;

/// The tests of this binary share the allocator's counters, the cipher
/// counters and the crash gate; each holds this for its whole body.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Runs `work` and returns its result with the peak of live heap bytes
/// during the call, over what was live when it began.
fn measure<T>(work: impl FnOnce() -> T) -> (T, usize) {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let out = work();
    (out, PEAK.load(Ordering::Relaxed).saturating_sub(before))
}

const RECORDS: usize = 20_000;
const SHARD_BITS: u32 = 4;

/// A build may hold this many times the bytes `index_stats` accounts for.
const PEAK_FACTOR: f64 = 3.5;

fn dataset() -> Dataset {
    gowalla_like(RECORDS, 1 << 20, &mut ChaCha20Rng::seed_from_u64(1))
}

/// One measured build: the peak, the index's own accounting, the encrypt
/// calls it made and where it left the caller's RNG.
struct Built {
    peak: usize,
    stats: IndexStats,
    encrypt_calls: u64,
    next_draw: u64,
}

fn build(dataset: &Dataset, config: &StorageConfig) -> Built {
    let mut rng = ChaCha20Rng::seed_from_u64(9);
    let encrypted = encrypt_call_count();
    let ((_, server), peak) =
        measure(|| LogScheme::build_stored(dataset, config, &mut rng).unwrap());
    Built {
        peak,
        stats: LogScheme::index_stats(&server),
        encrypt_calls: encrypt_call_count() - encrypted,
        next_draw: rng.next_u64(),
    }
}

fn assert_within_bound(what: &str, built: &Built) {
    let factor = built.peak as f64 / built.stats.storage_bytes as f64;
    eprintln!(
        "build_memory: {what}: peak {} B over an index of {} B = {factor:.2} x",
        built.peak, built.stats.storage_bytes
    );
    assert!(
        factor <= PEAK_FACTOR,
        "{what}: the build held {factor:.2} x its index ({} B over {} B)",
        built.peak,
        built.stats.storage_bytes
    );
    assert_eq!(
        built.encrypt_calls, built.stats.entries as u64,
        "{what}: one encryption per entry, no more"
    );
}

#[test]
fn an_in_memory_build_holds_a_bounded_multiple_of_its_index() {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let dataset = dataset();

    // Unbudgeted, with the gate armed for the whole temp directory — where
    // an unbudgeted in-memory build would spill if it ever did. Nothing
    // else in this process is running, so the log is this build's alone.
    let recording = arm_crash(&std::env::temp_dir(), None);
    let plain = build(&dataset, &StorageConfig::in_memory(SHARD_BITS));
    assert_eq!(
        recording.trace(),
        Vec::new(),
        "an in-memory build mutated the filesystem"
    );
    drop(recording);
    assert_within_bound("in memory", &plain);

    // A budget the corpus fits changes nothing: not the peak, not the
    // draws, and it never creates the spill directory it was given.
    let spill_root = TempDir::new("build-mem-spill");
    let budget = BuildBudget::with_memory(1 << 30).with_spill_root(spill_root.path());
    let recording = arm_crash(spill_root.path(), None);
    let budgeted = build(
        &dataset,
        &StorageConfig::in_memory(SHARD_BITS).with_build_budget(budget),
    );
    assert_eq!(recording.trace(), Vec::new());
    drop(recording);
    assert_eq!(spill_root.subdir_count(), 0);
    assert_within_bound("in memory, roomy budget", &budgeted);
    assert_same_build(&plain, &budgeted);
}

#[test]
fn an_on_disk_build_holds_a_bounded_multiple_of_its_index() {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let dataset = dataset();
    let root = TempDir::new("build-mem-disk");
    let run = |name: &str, budget: Option<BuildBudget>| {
        let mut config = StorageConfig::on_disk(SHARD_BITS, root.path().join(name));
        config.build_budget = budget;
        let recording = arm_crash(&root.path().join(name), None);
        let built = build(&dataset, &config);
        // Shard writers run in parallel: compare the ops as a multiset of
        // names relative to the index directory.
        let mut ops: Vec<(&str, PathBuf)> = recording
            .trace()
            .into_iter()
            .map(|(op, path)| {
                (
                    op,
                    path.strip_prefix(root.path().join(name)).unwrap().into(),
                )
            })
            .collect();
        ops.sort();
        (built, ops)
    };

    let (plain, plain_ops) = run("plain", None);
    assert_within_bound("on disk", &plain);
    // The directory, the manifest, one atomic write per shard.
    assert_eq!(plain_ops.len(), 2 + (1 << SHARD_BITS), "{plain_ops:?}");

    let (budgeted, budgeted_ops) = run("budgeted", Some(BuildBudget::with_memory(1 << 30)));
    assert_within_bound("on disk, roomy budget", &budgeted);
    assert_same_build(&plain, &budgeted);
    assert_eq!(
        plain_ops, budgeted_ops,
        "the budget changed the files touched"
    );
}

/// Two builds of the same corpus from the same seed: same index, same RNG
/// draws, and — give or take what thread spawns and path strings allocate
/// — the same peak.
fn assert_same_build(a: &Built, b: &Built) {
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.next_draw, b.next_draw, "the builds drew differently");
    assert!(
        a.peak.abs_diff(b.peak) <= a.peak / 50,
        "a budget the corpus fits moved the peak: {} B vs {} B",
        a.peak,
        b.peak
    );
}
