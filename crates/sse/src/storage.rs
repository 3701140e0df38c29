//! Shard I/O for the encrypted dictionary: the storage backends, the block
//! cache, and the index-directory save/open protocol.
//!
//! The query algorithms are generic over
//! [`IndexLookup`](crate::IndexLookup) and never see which backend holds a
//! shard:
//!
//! * [`ShardStorage`] — the per-shard read interface every backend
//!   implements: a bucket directory (`label → (offset, len)`), a ciphertext
//!   region resolving those spans, and a fallible point probe.
//! * [`EncryptedIndex`] — the in-memory arena backend.
//! * [`FileShard`] — the on-disk backend: a serialized shard file
//!   (`RSSE-SHD`) whose label directory is loaded at open time while the
//!   ciphertext region stays on disk and is served through paged reads.
//!   The region is cut into blocks along entry boundaries (~64 KiB resident
//!   blocks, or ~4 KiB blocks under a cache budget); a probe faults in only
//!   the block holding its span, through the index-wide clock block cache
//!   when a budget is set.
//! * [`StorageConfig`] / [`StorageBackend`] / [`BuildBudget`] — the knob
//!   threaded through `BuildIndex` (and, in `rsse-core`, through
//!   `RangeScheme::build_stored` and the update manager) selecting where an
//!   index's shards live and how much memory building them may take.
//! * [`StorageError`] — the typed error every persistence path returns.
//! * the directory protocol — `index.meta` (`RSSE-IDX`) plus one
//!   `shard-NNNNN.shd` per shard, first saves, staged atomic re-saves, and
//!   the recovery of an interrupted re-save.
//!
//! This module owns exactly two formats, `RSSE-SHD` and `RSSE-IDX`, and
//! reads and writes their headers through the codec kit in
//! [`formats`]. Every other format lives beside its owner
//! (`docs/FORMATS.md` has the table); in particular the update manager's
//! `manager.meta`/`owner.meta` belong to `rsse-updates`.
//!
//! # Shard file format (version 1)
//!
//! ```text
//! offset  size  field
//! 0       8     magic  "RSSE-SHD"
//! 8       4     format version (LE u32, = 1)
//! 12      4     reserved (0)
//! 16      8     entry count n (LE u64)
//! 24      8     ciphertext-region length (LE u64, < 4 GiB)
//! 32      24·n  directory: n × (16-byte label, LE u32 offset, LE u32 len),
//!               sorted by offset; the spans tile [0, region_len) exactly
//! 32+24·n ...   ciphertext region (concatenated spans, in directory order)
//! ```
//!
//! The directory order is deterministic (ascending offset), so serializing
//! the same logical shard always produces the same bytes —
//! `save_to_dir` → `open_dir` → `save_to_dir` round-trips byte-identically.
//!
//! [`FileShard::open`] **rejects** malformed files with typed
//! [`StorageError`]s — truncated files, foreign magic, unsupported
//! versions, and directories whose spans fall outside (or fail to tile)
//! the ciphertext region — instead of panicking at query time.

use crate::formats::{
    self, io_err, tmp_path, write_file_atomic, MetaReader, MetaWriter, FORMAT_VERSION,
};
use crate::pibas::{CipherSpan, EncryptedIndex, KeywordChunk, Label, LabelTable, LABEL_LEN};
use rayon::prelude::*;
use std::collections::HashMap;
use std::fmt;
use std::fs::{self, File};
use std::hash::BuildHasherDefault;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Positioned read into `buf` at `offset`, without touching any shared
/// cursor — this is what keeps concurrent paged reads lock-free. Thin
/// per-platform shim over `pread`-style APIs so the crate stays portable.
#[cfg(unix)]
fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> io::Result<()> {
    std::os::unix::fs::FileExt::read_exact_at(file, buf, offset)
}

/// Windows variant of [`read_exact_at`], built on `seek_read` (which takes
/// an explicit offset and leaves no cursor state the reads could race on).
#[cfg(windows)]
fn read_exact_at(file: &File, mut buf: &mut [u8], mut offset: u64) -> io::Result<()> {
    use std::os::windows::fs::FileExt;
    while !buf.is_empty() {
        match file.seek_read(buf, offset) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "failed to fill whole buffer",
                ))
            }
            Ok(n) => {
                buf = &mut buf[n..];
                offset += n as u64;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Magic bytes opening every serialized shard file.
pub const SHARD_MAGIC: [u8; 8] = *b"RSSE-SHD";

/// Magic bytes opening the index manifest (`index.meta`).
pub const MANIFEST_MAGIC: [u8; 8] = *b"RSSE-IDX";

/// Fixed shard-file header length in bytes.
const SHARD_HEADER_LEN: u64 = 32;

/// Bytes per directory entry: 16-byte label + u32 offset + u32 len.
const DIR_ENTRY_LEN: u64 = 24;

/// Manifest file length in bytes.
const MANIFEST_LEN: u64 = 24;

/// Target paged-read block size of a **budgeted** shard: one page. A probe
/// wants one entry of a few dozen bytes, so the block is what a miss
/// over-reads and what the cache budget is spent on — larger blocks fill a
/// budget with bytes no probe asked for. Blocks are cut along entry
/// boundaries, so a block is at least this large only when its last entry
/// crosses the threshold; a single entry larger than the target gets its
/// own block. The cut is made at [`FileShard::open`] and is no part of the
/// file format.
const CACHED_BLOCK_TARGET: usize = 4 << 10;

/// Target block size of an **unbudgeted** shard, cut the same way. A
/// resident block is loaded once and never evicted, so over-reading costs
/// nothing later, and fewer, larger reads warm a cold handle sooner — the
/// update manager opens every fresh instance cold.
const RESIDENT_BLOCK_TARGET: usize = 64 << 10;

/// Copy-buffer size for streaming a whole ciphertext region verbatim
/// (`save_to_dir`, structural merges): sequential bulk I/O, sized for few
/// large reads whatever the cache's paging unit is.
const STREAM_CHUNK: usize = 64 << 10;

/// File name of the per-index manifest inside a saved index directory.
pub const MANIFEST_FILE: &str = "index.meta";

/// File name of shard `i` inside a saved index directory.
pub fn shard_file_name(shard: usize) -> String {
    format!("shard-{shard:05}.shd")
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Typed error surfaced by the persistence layer.
///
/// Every way a stored index can be unusable — I/O failures, foreign or
/// truncated files, corrupt directories — maps to a distinct variant, so
/// callers can distinguish "disk is gone" from "this is not one of ours"
/// without string matching, and nothing in the open path panics.
#[derive(Debug)]
pub enum StorageError {
    /// An underlying I/O operation failed.
    Io {
        /// The file or directory the operation touched.
        path: PathBuf,
        /// The originating I/O error.
        error: io::Error,
    },
    /// The file does not start with the expected magic bytes.
    BadMagic {
        /// The offending file.
        path: PathBuf,
        /// The bytes actually found where the magic was expected.
        found: [u8; 8],
    },
    /// The file's format version is not supported by this build.
    UnsupportedVersion {
        /// The offending file.
        path: PathBuf,
        /// The version recorded in the file.
        version: u32,
    },
    /// The file is shorter than its header/directory claims.
    Truncated {
        /// The offending file.
        path: PathBuf,
        /// Length the header implies.
        expected: u64,
        /// Length actually on disk.
        actual: u64,
    },
    /// The label directory is internally inconsistent (out-of-bounds or
    /// non-tiling spans, duplicate labels, trailing bytes, …).
    CorruptDirectory {
        /// The offending file.
        path: PathBuf,
        /// Human-readable description of the inconsistency.
        detail: String,
    },
    /// The selected backend is not supported by this scheme or operation.
    Unsupported(&'static str),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io { path, error } => {
                write!(f, "storage I/O error on {}: {error}", path.display())
            }
            StorageError::BadMagic { path, found } => write!(
                f,
                "{} is not a serialized index file (magic {found:02x?})",
                path.display()
            ),
            StorageError::UnsupportedVersion { path, version } => write!(
                f,
                "{} uses unsupported format version {version} (this build reads {FORMAT_VERSION})",
                path.display()
            ),
            StorageError::Truncated {
                path,
                expected,
                actual,
            } => write!(
                f,
                "{} is truncated: header implies {expected} bytes, file has {actual}",
                path.display()
            ),
            StorageError::CorruptDirectory { path, detail } => {
                write!(
                    f,
                    "{} has a corrupt label directory: {detail}",
                    path.display()
                )
            }
            StorageError::Unsupported(what) => {
                write!(f, "storage backend not supported: {what}")
            }
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io { error, .. } => Some(error),
            _ => None,
        }
    }
}

impl From<std::convert::Infallible> for StorageError {
    fn from(infallible: std::convert::Infallible) -> Self {
        match infallible {}
    }
}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Where an encrypted index's shards live.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StorageBackend {
    /// Every shard is an in-memory ciphertext arena (the PR 2 layout,
    /// byte-identical).
    InMemory,
    /// Shards are serialized into the given directory during `BuildIndex`
    /// and served from disk via paged reads.
    OnDisk(PathBuf),
}

/// Memory budget for the fixed-stride `BuildIndex` (see the
/// [`external`](crate::external) module).
///
/// The budget only matters once the corpus exceeds it; a smaller build
/// never touches disk for it. Builds that honor it (the range schemes'
/// grouped paths and every build of the update manager) collect their
/// `(keyword, payload)` entries in a buffer of at most ~`memory_bytes / 2`
/// bytes. A corpus that fits is sorted right there. One that does not is
/// written out as sorted `RSSE-SPL` spill runs, the runs are k-way merged,
/// and — on an on-disk backend — shard buffers past their share of the
/// budget overflow to stage files, so peak RSS is bounded by the budget
/// (run buffer + merge scratch + one encrypt batch + write buffers), not
/// by corpus size, at ~2 I/O passes over the entries.
///
/// The budget is a *target*, not a hard allocator limit. Two floors apply
/// regardless of how small it is set: the largest single posting list must
/// fit in RAM (the keyed shuffle and its encrypted batch need the whole
/// list), and each spill run holds at least a minimum number of entries so
/// a pathological budget cannot explode the run count (and with it the
/// merge's file handles). See `docs/OPERATIONS.md` for sizing guidance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BuildBudget {
    /// Target peak working-set size of the build, in bytes.
    pub memory_bytes: usize,
    /// Where spill files for **in-memory** indexes go (an on-disk build
    /// spills into `spill.tmp` inside its own index directory and ignores
    /// this). `None` uses a uniquely named directory under
    /// [`std::env::temp_dir`].
    pub spill_root: Option<PathBuf>,
}

impl BuildBudget {
    /// Floor on entries per spill run: keeps the run count — and the open
    /// readers of the merge phase — bounded even under absurdly small
    /// budgets.
    pub(crate) const MIN_RUN_ENTRIES: usize = 512;

    /// A budget targeting `memory_bytes` of peak build working set.
    pub fn with_memory(memory_bytes: usize) -> Self {
        Self {
            memory_bytes,
            spill_root: None,
        }
    }

    /// Sets the directory spill files of in-memory builds are created
    /// under (each build still gets its own uniquely named subdirectory).
    pub fn with_spill_root(mut self, dir: impl Into<PathBuf>) -> Self {
        self.spill_root = Some(dir.into());
        self
    }

    /// Entries per sorted spill run for `entry_bytes`-sized entries: half
    /// the budget (the other half is merge + encrypt + write scratch),
    /// floored at [`Self::MIN_RUN_ENTRIES`].
    pub(crate) fn run_entry_limit(&self, entry_bytes: usize) -> usize {
        let per_entry = entry_bytes.max(1);
        (self.memory_bytes / 2 / per_entry).max(Self::MIN_RUN_ENTRIES)
    }

    /// Ciphertext bytes a merge-phase encrypt batch may accumulate before
    /// it is flushed through the shard writers (a quarter of the budget;
    /// batching is what keeps the per-group encryption parallel).
    pub(crate) fn encrypt_batch_bytes(&self) -> usize {
        (self.memory_bytes / 4).max(64 << 10)
    }
}

impl Default for BuildBudget {
    /// 256 MiB of build working set, spilling under the OS temp directory.
    fn default() -> Self {
        Self::with_memory(256 << 20)
    }
}

/// Storage configuration threaded through `BuildIndex`: how many
/// label-prefix shards to cut the dictionary into, and which
/// [`StorageBackend`] holds them.
///
/// # Examples
///
/// ```
/// use rsse_sse::{StorageBackend, StorageConfig};
///
/// let in_ram = StorageConfig::in_memory(4);
/// assert_eq!(in_ram.backend, StorageBackend::InMemory);
///
/// let on_disk = StorageConfig::on_disk(4, "/tmp/rsse-index");
/// assert!(matches!(on_disk.backend, StorageBackend::OnDisk(_)));
/// // Multi-index schemes (Logarithmic-SRC-i) place each sub-index in its
/// // own subdirectory; in-memory configs pass through unchanged.
/// assert!(matches!(on_disk.subdir("i1").backend, StorageBackend::OnDisk(p) if p.ends_with("i1")));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StorageConfig {
    /// Number of label-prefix bits selecting a shard (`2^bits` shards).
    pub shard_bits: u32,
    /// Backend holding the shards.
    pub backend: StorageBackend,
    /// Memory budget, in bytes, for the paged-read block cache of a
    /// file-backed index (`None` = unlimited: blocks stay resident once
    /// touched, exactly the pre-budget behavior). The budget covers the
    /// ciphertext blocks of **one** index — the bucket directories are
    /// always resident — and is enforced by a sharded clock cache shared
    /// by all of the index's shards; see
    /// [`ShardedIndex::cache_stats`](crate::ShardedIndex::cache_stats).
    /// In-memory backends ignore it.
    pub cache_budget: Option<usize>,
    /// Memory budget for the build itself. `None` (the default) never
    /// spills: the transformed corpus is sorted in RAM. `Some` bounds the
    /// peak working set of budget-aware builds (the range schemes' grouped
    /// paths, `RangeScheme::build_stored` in `rsse-core`, and every build
    /// of the update manager): entries past the budget are sorted through
    /// spill runs on disk (the [`external`](crate::external) module) —
    /// **byte-identical output** either way, and a corpus that fits the
    /// budget builds exactly as it does without one.
    pub build_budget: Option<BuildBudget>,
}

impl StorageConfig {
    /// An in-memory configuration with `2^shard_bits` shards.
    pub fn in_memory(shard_bits: u32) -> Self {
        Self {
            shard_bits,
            backend: StorageBackend::InMemory,
            cache_budget: None,
            build_budget: None,
        }
    }

    /// An on-disk configuration writing `2^shard_bits` shard files into
    /// `dir` (created if missing).
    pub fn on_disk(shard_bits: u32, dir: impl Into<PathBuf>) -> Self {
        Self {
            shard_bits,
            backend: StorageBackend::OnDisk(dir.into()),
            cache_budget: None,
            build_budget: None,
        }
    }

    /// Caps the resident ciphertext blocks of a file-backed index at
    /// `bytes` (a per-index budget, enforced by clock eviction).
    pub fn with_cache_budget(mut self, bytes: usize) -> Self {
        self.cache_budget = Some(bytes);
        self
    }

    /// Bounds the peak working set of the build itself: budget-aware build
    /// paths spill what exceeds it (see [`BuildBudget`] and the
    /// [`external`](crate::external) module).
    pub fn with_build_budget(mut self, budget: BuildBudget) -> Self {
        self.build_budget = Some(budget);
        self
    }

    /// Derives the configuration for a named sub-index: on-disk backends
    /// descend into `dir/name`, in-memory configs are returned unchanged.
    /// The cache and build budgets carry over (each sub-index gets its own
    /// cache, and spills into its own directory).
    pub fn subdir(&self, name: &str) -> Self {
        match &self.backend {
            StorageBackend::InMemory => self.clone(),
            StorageBackend::OnDisk(dir) => Self {
                shard_bits: self.shard_bits,
                backend: StorageBackend::OnDisk(dir.join(name)),
                cache_budget: self.cache_budget,
                build_budget: self.build_budget.clone(),
            },
        }
    }

    /// Whether this configuration persists the index to disk.
    pub fn is_on_disk(&self) -> bool {
        matches!(self.backend, StorageBackend::OnDisk(_))
    }
}

impl Default for StorageConfig {
    /// A single in-memory arena (`shard_bits = 0`).
    fn default() -> Self {
        Self::in_memory(0)
    }
}

// ---------------------------------------------------------------------------
// The ShardStorage trait
// ---------------------------------------------------------------------------

/// Read interface of one dictionary shard, whatever holds its bytes.
///
/// A shard is a **bucket directory** (`label → (offset, len)`) over a
/// **ciphertext region**; the trait exposes the only operation the search
/// algorithms need — a fallible point probe — so the sharded index can mix
/// backends without the query layer noticing. `Ok(None)` means the label
/// is genuinely absent; `Err` means the backing storage failed to resolve
/// the probe (in-memory arenas never take that branch).
pub trait ShardStorage {
    /// Looks up the ciphertext stored under `label`.
    fn try_get(&self, label: &Label) -> Result<Option<CipherSpan<'_>>, StorageError>;

    /// Number of entries in the bucket directory.
    fn len(&self) -> usize;

    /// Whether the shard holds no entries.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Server-side storage footprint in bytes (labels + ciphertext region).
    fn storage_bytes(&self) -> usize;
}

impl ShardStorage for EncryptedIndex {
    fn try_get(&self, label: &Label) -> Result<Option<CipherSpan<'_>>, StorageError> {
        Ok(EncryptedIndex::get(self, label).map(CipherSpan::borrowed))
    }

    fn len(&self) -> usize {
        EncryptedIndex::len(self)
    }

    fn storage_bytes(&self) -> usize {
        EncryptedIndex::storage_bytes(self)
    }
}

// ---------------------------------------------------------------------------
// The budgeted block cache
// ---------------------------------------------------------------------------

/// Aggregated block-cache observability counters of one index.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Probes served from an already-loaded block.
    pub hits: u64,
    /// Probes that had to read their block from disk.
    pub misses: u64,
    /// Blocks evicted to keep the cache inside its budget (always 0
    /// without a [`StorageConfig::cache_budget`]).
    pub evictions: u64,
    /// Ciphertext-block bytes currently resident in memory.
    pub resident_bytes: usize,
}

/// Number of independently locked cache segments. Keys spread over the
/// segments by block hash, so concurrent probes rarely contend on one
/// lock; the byte budget is split evenly across segments.
const CACHE_SEGMENTS: usize = 8;

/// A cached region block and its clock "referenced" bit.
struct CacheSlot {
    data: Arc<[u8]>,
    referenced: bool,
}

/// One locked segment of the cache: the block map plus the clock ring the
/// eviction hand walks.
#[derive(Default)]
struct CacheSegment {
    slots: HashMap<(u32, u32), CacheSlot>,
    ring: Vec<(u32, u32)>,
    hand: usize,
}

impl CacheSegment {
    /// Evicts one block (second-chance clock: a referenced block gets its
    /// bit cleared and the hand moves on; the first unreferenced block
    /// goes). The ring is non-empty when this is called.
    fn evict_one(&mut self) -> usize {
        loop {
            if self.hand >= self.ring.len() {
                self.hand = 0;
            }
            let key = self.ring[self.hand];
            let slot = self.slots.get_mut(&key).expect("ring keys are cached");
            if slot.referenced {
                slot.referenced = false;
                self.hand += 1;
                continue;
            }
            let freed = slot.data.len();
            self.slots.remove(&key);
            self.ring.swap_remove(self.hand);
            return freed;
        }
    }
}

/// A sharded clock block cache bounding the resident ciphertext bytes of
/// one file-backed index.
///
/// All shards of an index share one cache; keys are
/// `(shard index, block index)`. Lookups set the block's clock bit;
/// inserts evict unreferenced blocks — walking the segments round-robin,
/// one lock at a time — until the **whole cache** is back inside the
/// budget. Blocks are handed out as `Arc<[u8]>`, so a probe that is still
/// decrypting a span keeps the bytes alive even if the block is evicted
/// concurrently — eviction only drops the cache's reference.
pub(crate) struct BlockCache {
    /// Total byte budget across all segments.
    budget: usize,
    segments: Vec<Mutex<CacheSegment>>,
    /// Round-robin segment rotor the evictor walks.
    evict_from: AtomicUsize,
    evictions: AtomicU64,
    resident: AtomicUsize,
}

impl BlockCache {
    /// A cache enforcing `budget` bytes across all segments.
    pub(crate) fn new(budget: usize) -> Self {
        Self {
            budget,
            segments: (0..CACHE_SEGMENTS).map(|_| Mutex::default()).collect(),
            evict_from: AtomicUsize::new(0),
            evictions: AtomicU64::new(0),
            resident: AtomicUsize::new(0),
        }
    }

    fn segment(&self, key: (u32, u32)) -> &Mutex<CacheSegment> {
        let mix = (key.0 as usize).wrapping_mul(0x9E37_79B9) ^ (key.1 as usize);
        &self.segments[mix % CACHE_SEGMENTS]
    }

    /// Looks up a block, marking it recently used.
    fn get(&self, key: (u32, u32)) -> Option<Arc<[u8]>> {
        let mut segment = self.segment(key).lock().expect("cache lock poisoned");
        let slot = segment.slots.get_mut(&key)?;
        slot.referenced = true;
        Some(Arc::clone(&slot.data))
    }

    /// Evicts blocks — walking the segments round-robin, one lock at a
    /// time, never nested — until `incoming` more bytes would fit the
    /// budget. `attempts` bounds the walk in the rare case every segment
    /// is empty while `resident` is still being settled by concurrent
    /// inserts.
    fn evict_to_fit(&self, incoming: usize) {
        let mut attempts = 0usize;
        while self.resident.load(Ordering::Relaxed) + incoming > self.budget
            && attempts < 4 * CACHE_SEGMENTS
        {
            let at = self.evict_from.fetch_add(1, Ordering::Relaxed) % CACHE_SEGMENTS;
            let mut segment = self.segments[at].lock().expect("cache lock poisoned");
            if segment.ring.is_empty() {
                attempts += 1;
                continue;
            }
            let freed = segment.evict_one();
            drop(segment);
            self.resident.fetch_sub(freed, Ordering::Relaxed);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Inserts a freshly read block, evicting as needed. A block larger
    /// than the whole budget is served but never cached, so the budget
    /// holds even for pathological block sizes.
    ///
    /// Concurrency note: the budget check and the insert are not one
    /// atomic step, so N threads missing on cold blocks simultaneously
    /// can overshoot the budget transiently (by at most one in-flight
    /// block each). The trailing `evict_to_fit(0)` restores the bound
    /// before the insert returns, so the cache is back inside the budget
    /// whenever no insert is mid-flight.
    fn insert(&self, key: (u32, u32), data: Arc<[u8]>) {
        let len = data.len();
        if len > self.budget {
            return;
        }
        // Make room first, then insert.
        self.evict_to_fit(len);
        let mut segment = self.segment(key).lock().expect("cache lock poisoned");
        if segment.slots.contains_key(&key) {
            // A concurrent probe of the same cold block won the race.
            return;
        }
        segment.slots.insert(
            key,
            CacheSlot {
                data,
                referenced: false,
            },
        );
        segment.ring.push(key);
        // Counted before the lock goes: once it is released another thread
        // may evict this very block, and its subtraction must find the
        // addition already made or `resident` wraps below zero.
        self.resident.fetch_add(len, Ordering::Relaxed);
        drop(segment);
        // Self-correct any racy overshoot: whoever finishes last leaves
        // the cache inside the budget.
        self.evict_to_fit(0);
    }

    /// Total block bytes currently cached.
    pub(crate) fn resident_bytes(&self) -> usize {
        self.resident.load(Ordering::Relaxed)
    }

    /// Blocks evicted since the cache was created.
    pub(crate) fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Cached bytes attributable to one shard (observability only — walks
    /// every segment under its lock).
    fn shard_resident_bytes(&self, shard: u32) -> usize {
        self.segments
            .iter()
            .map(|segment| {
                let segment = segment.lock().expect("cache lock poisoned");
                segment
                    .slots
                    .iter()
                    .filter(|((s, _), _)| *s == shard)
                    .map(|(_, slot)| slot.data.len())
                    .sum::<usize>()
            })
            .sum()
    }
}

// ---------------------------------------------------------------------------
// The file-backed shard
// ---------------------------------------------------------------------------

/// One paged-read block of the ciphertext region in the **resident**
/// (unbudgeted) store: loaded at most once, then kept for the life of the
/// shard handle.
struct ResidentBlock {
    /// Offset of the block within the region.
    start: u32,
    /// Block length in bytes (whole entries only).
    len: u32,
    /// Lazily loaded block bytes. A failed read stores nothing, so the
    /// next probe retries — a transient I/O blip never poisons the block
    /// permanently (the probe itself surfaces the failure as a typed
    /// error).
    data: OnceLock<Box<[u8]>>,
}

/// Where a shard's region blocks live once faulted in.
enum BlockStore {
    /// No cache budget: every touched block stays resident behind a
    /// `OnceLock` — loaded once, lock-free afterwards (the pre-budget
    /// behavior, and the default).
    Resident(Vec<ResidentBlock>),
    /// Budgeted: blocks live in the index-wide clock [`BlockCache`] and
    /// can be evicted; probes pin the block they need via `Arc`.
    Cached {
        cache: Arc<BlockCache>,
        /// This shard's index within the cache key space.
        shard: u32,
        /// `(start, len)` of each block, ascending by start.
        blocks: Vec<(u32, u32)>,
    },
}

struct FileShardInner {
    /// Path the shard was opened from (error reporting, re-serialization).
    path: PathBuf,
    /// The open shard file; all reads go through positioned `read_at`.
    file: File,
    /// The in-memory bucket directory: label → (region offset, len).
    table: LabelTable,
    /// File offset where the ciphertext region starts.
    region_offset: u64,
    /// Ciphertext-region length (< 4 GiB, the per-shard arena bound).
    region_len: u32,
    /// Region blocks, resident or cache-backed.
    store: BlockStore,
    /// Probes served from an already-loaded block.
    hits: AtomicU64,
    /// Probes that had to read their block from disk.
    misses: AtomicU64,
    /// Number of block reads that failed since open. Failed reads now
    /// surface as typed [`StorageError`]s from the probe itself; the
    /// counter remains as the aggregate operator-side view of how often
    /// the backing storage misbehaved.
    read_errors: AtomicU64,
}

/// A disk-resident dictionary shard: in-memory bucket directory, on-disk
/// ciphertext region served via paged reads.
///
/// Cloning is cheap (the file handle, directory, and block cache are
/// shared), and probes from any number of threads are lock-free after a
/// block's one-time load — the [`OnceLock`] per block is the only
/// synchronization.
#[derive(Clone)]
pub struct FileShard {
    inner: Arc<FileShardInner>,
}

impl fmt::Debug for FileShard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (blocks, budgeted) = match &self.inner.store {
            BlockStore::Resident(blocks) => (blocks.len(), false),
            BlockStore::Cached { blocks, .. } => (blocks.len(), true),
        };
        f.debug_struct("FileShard")
            .field("path", &self.inner.path)
            .field("entries", &self.inner.table.len())
            .field("region_len", &self.inner.region_len)
            .field("blocks", &blocks)
            .field("budgeted", &budgeted)
            .field("resident_bytes", &self.resident_bytes())
            .finish()
    }
}

/// Reads a little-endian `u32` out of a directory entry (the bulk
/// directory pass; its length is validated before the loop).
fn read_u32(bytes: &[u8]) -> u32 {
    u32::from_le_bytes(bytes[..4].try_into().expect("4 bytes"))
}

impl FileShard {
    /// Opens a serialized shard file: validates the header, loads the label
    /// directory into memory, and prepares the paged-read block table. The
    /// ciphertext region itself stays on disk, and touched blocks stay
    /// resident for the life of the handle (no budget).
    ///
    /// # Errors
    ///
    /// Returns a typed [`StorageError`] for every malformed input —
    /// truncated files, wrong magic, unsupported versions, and directories
    /// whose spans do not exactly tile the ciphertext region.
    pub fn open(path: &Path) -> Result<Self, StorageError> {
        Self::open_inner(path, None)
    }

    /// Opens a shard whose region blocks are served through the index-wide
    /// budgeted [`BlockCache`] under shard key `shard`.
    pub(crate) fn open_cached(
        path: &Path,
        shard: u32,
        cache: Arc<BlockCache>,
    ) -> Result<Self, StorageError> {
        Self::open_inner(path, Some((shard, cache)))
    }

    fn open_inner(
        path: &Path,
        cache: Option<(u32, Arc<BlockCache>)>,
    ) -> Result<Self, StorageError> {
        let file = File::open(path).map_err(|e| io_err(path, e))?;
        let file_len = file.metadata().map_err(|e| io_err(path, e))?.len();
        if file_len < SHARD_HEADER_LEN {
            return Err(StorageError::Truncated {
                path: path.to_path_buf(),
                expected: SHARD_HEADER_LEN,
                actual: file_len,
            });
        }
        let mut header = [0u8; SHARD_HEADER_LEN as usize];
        read_exact_at(&file, &mut header, 0).map_err(|e| io_err(path, e))?;
        let mut fields = MetaReader::open(path, &header, &SHARD_MAGIC, SHARD_HEADER_LEN)?;
        fields.reserved()?;
        let entry_count = fields.u64()?;
        let region_len = fields.u64()?;
        if region_len > u32::MAX as u64 {
            return Err(StorageError::CorruptDirectory {
                path: path.to_path_buf(),
                detail: format!("region length {region_len} exceeds the 4 GiB shard bound"),
            });
        }
        let expected_len = SHARD_HEADER_LEN
            .checked_add(entry_count.checked_mul(DIR_ENTRY_LEN).ok_or_else(|| {
                StorageError::CorruptDirectory {
                    path: path.to_path_buf(),
                    detail: format!("entry count {entry_count} overflows the directory size"),
                }
            })?)
            .and_then(|d| d.checked_add(region_len))
            .ok_or_else(|| StorageError::CorruptDirectory {
                path: path.to_path_buf(),
                detail: "header sizes overflow".to_string(),
            })?;
        if file_len < expected_len {
            return Err(StorageError::Truncated {
                path: path.to_path_buf(),
                expected: expected_len,
                actual: file_len,
            });
        }
        if file_len > expected_len {
            return Err(StorageError::CorruptDirectory {
                path: path.to_path_buf(),
                detail: format!(
                    "{} trailing bytes after the ciphertext region",
                    file_len - expected_len
                ),
            });
        }

        // Directory pass: read all entries, verify the spans tile
        // [0, region_len) in ascending offset order (which also proves every
        // span in bounds), and build the lookup table and block cuts.
        let entry_count = entry_count as usize;
        let mut directory = vec![0u8; entry_count * DIR_ENTRY_LEN as usize];
        read_exact_at(&file, &mut directory, SHARD_HEADER_LEN).map_err(|e| io_err(path, e))?;
        let mut table =
            LabelTable::with_capacity_and_hasher(entry_count, BuildHasherDefault::default());
        let block_target = match cache {
            Some(_) => CACHED_BLOCK_TARGET,
            None => RESIDENT_BLOCK_TARGET,
        } as u64;
        let mut blocks: Vec<(u32, u32)> = Vec::new();
        let mut running = 0u64;
        let mut block_start = 0u64;
        for (i, entry) in directory.chunks_exact(DIR_ENTRY_LEN as usize).enumerate() {
            let mut label = [0u8; LABEL_LEN];
            label.copy_from_slice(&entry[..LABEL_LEN]);
            let offset = read_u32(&entry[LABEL_LEN..]);
            let len = read_u32(&entry[LABEL_LEN + 4..]);
            if u64::from(offset) != running {
                return Err(StorageError::CorruptDirectory {
                    path: path.to_path_buf(),
                    detail: format!(
                        "entry {i} starts at offset {offset}, expected {running} \
                         (spans must tile the region)"
                    ),
                });
            }
            running += u64::from(len);
            if running > region_len {
                return Err(StorageError::CorruptDirectory {
                    path: path.to_path_buf(),
                    detail: format!(
                        "entry {i} (offset {offset}, len {len}) overruns the \
                         {region_len}-byte ciphertext region"
                    ),
                });
            }
            if table.insert(label, (offset, len)).is_some() {
                return Err(StorageError::CorruptDirectory {
                    path: path.to_path_buf(),
                    detail: format!("duplicate label at entry {i}"),
                });
            }
            if running - block_start >= block_target {
                blocks.push((block_start as u32, (running - block_start) as u32));
                block_start = running;
            }
        }
        if running != region_len {
            return Err(StorageError::CorruptDirectory {
                path: path.to_path_buf(),
                detail: format!(
                    "directory spans cover {running} bytes of a {region_len}-byte region"
                ),
            });
        }
        if running > block_start {
            blocks.push((block_start as u32, (running - block_start) as u32));
        }
        let store = match cache {
            Some((shard, cache)) => BlockStore::Cached {
                cache,
                shard,
                blocks,
            },
            None => BlockStore::Resident(
                blocks
                    .into_iter()
                    .map(|(start, len)| ResidentBlock {
                        start,
                        len,
                        data: OnceLock::new(),
                    })
                    .collect(),
            ),
        };
        Ok(Self {
            inner: Arc::new(FileShardInner {
                path: path.to_path_buf(),
                file,
                table,
                region_offset: SHARD_HEADER_LEN + (entry_count as u64) * DIR_ENTRY_LEN,
                region_len: region_len as u32,
                store,
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
                read_errors: AtomicU64::new(0),
            }),
        })
    }

    /// The file this shard is served from.
    pub fn path(&self) -> &Path {
        &self.inner.path
    }

    /// Number of block reads that have failed since this shard was opened.
    ///
    /// Since the fallible-probe refactor a failed block read surfaces as a
    /// typed [`StorageError`] from the probing search itself; this counter
    /// remains as the aggregate operator-side signal of how often the
    /// backing storage misbehaved. Failed blocks are never cached, so the
    /// next probe retries.
    pub fn read_errors(&self) -> u64 {
        self.inner.read_errors.load(Ordering::Relaxed)
    }

    /// Hit/miss/eviction counters and residency of this shard's region
    /// blocks. In cached mode, evictions are reported index-wide (0 here)
    /// — aggregate through `ShardedIndex::cache_stats` instead.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.inner.hits.load(Ordering::Relaxed),
            misses: self.inner.misses.load(Ordering::Relaxed),
            evictions: 0,
            resident_bytes: self.resident_bytes(),
        }
    }

    /// Bytes of the ciphertext region currently faulted into memory (the
    /// bucket directory itself is always resident). In cached mode this
    /// walks the shared cache and counts only this shard's blocks.
    pub fn resident_bytes(&self) -> usize {
        match &self.inner.store {
            BlockStore::Resident(blocks) => blocks
                .iter()
                .filter(|block| block.data.get().is_some())
                .map(|block| block.len as usize)
                .sum(),
            BlockStore::Cached { cache, shard, .. } => cache.shard_resident_bytes(*shard),
        }
    }

    /// The index-wide block cache this shard probes through, if budgeted.
    pub(crate) fn block_cache(&self) -> Option<&Arc<BlockCache>> {
        match &self.inner.store {
            BlockStore::Resident(_) => None,
            BlockStore::Cached { cache, .. } => Some(cache),
        }
    }

    /// Reads the whole region block starting at `start` from disk into
    /// `block` (the buffer the block store keeps — no intermediate copy).
    fn read_block(&self, start: u32, block: &mut [u8]) -> Result<(), StorageError> {
        let inner = &*self.inner;
        read_exact_at(&inner.file, block, inner.region_offset + u64::from(start)).map_err(|error| {
            // Record the failure for the aggregate counter; the probe
            // itself carries the typed error to the caller. The block
            // stays uncached, so the next probe retries.
            inner.read_errors.fetch_add(1, Ordering::Relaxed);
            io_err(&inner.path, error)
        })
    }

    /// Resolves the span at `(offset, len)` through the paged block store.
    ///
    /// `Ok(None)` never occurs here — the caller already resolved the
    /// label to a span — so the result is the span or a typed read error.
    fn span(&self, offset: u32, len: u32) -> Result<CipherSpan<'_>, StorageError> {
        if len == 0 {
            return Ok(CipherSpan::borrowed(&[]));
        }
        let inner = &*self.inner;
        match &inner.store {
            BlockStore::Resident(blocks) => {
                let index = blocks.partition_point(|b| b.start <= offset) - 1;
                let block = &blocks[index];
                let data = match block.data.get() {
                    Some(data) => {
                        inner.hits.fetch_add(1, Ordering::Relaxed);
                        data
                    }
                    None => {
                        inner.misses.fetch_add(1, Ordering::Relaxed);
                        let mut buf = vec![0u8; block.len as usize].into_boxed_slice();
                        self.read_block(block.start, &mut buf)?;
                        // A concurrent probe may have won the race; either
                        // way the lock now holds a fully read copy.
                        let _ = block.data.set(buf);
                        block.data.get().expect("block was just populated")
                    }
                };
                let rel = (offset - block.start) as usize;
                Ok(CipherSpan::borrowed(&data[rel..rel + len as usize]))
            }
            BlockStore::Cached {
                cache,
                shard,
                blocks,
            } => {
                let index = blocks.partition_point(|&(start, _)| start <= offset) - 1;
                let (start, block_len) = blocks[index];
                let key = (*shard, index as u32);
                let data = match cache.get(key) {
                    Some(data) => {
                        inner.hits.fetch_add(1, Ordering::Relaxed);
                        data
                    }
                    None => {
                        inner.misses.fetch_add(1, Ordering::Relaxed);
                        // One allocation, read straight into the `Arc`
                        // the cache keeps (a `TrustedLen` collect).
                        let mut data: Arc<[u8]> =
                            std::iter::repeat_n(0u8, block_len as usize).collect();
                        let block = Arc::get_mut(&mut data).expect("a fresh Arc is unshared");
                        self.read_block(start, block)?;
                        cache.insert(key, Arc::clone(&data));
                        data
                    }
                };
                let rel = (offset - start) as usize;
                Ok(CipherSpan::pinned(data, rel, len as usize))
            }
        }
    }

    /// Returns the stored ciphertexts in region order, faulting blocks in
    /// as needed (used by leakage-oriented tests and tooling; copies each
    /// span out so cached blocks are not pinned past the call).
    pub fn ciphertexts(&self) -> Result<Vec<Vec<u8>>, StorageError> {
        let mut spans: Vec<(u32, u32)> = self.inner.table.values().copied().collect();
        spans.sort_unstable_by_key(|&(offset, _)| offset);
        spans
            .into_iter()
            .map(|(offset, len)| self.span(offset, len).map(|span| span.to_vec()))
            .collect()
    }

    /// Serializes this shard back into `writer` (byte-identical to the file
    /// it was opened from).
    fn write_to<W: Write>(&self, writer: &mut W) -> io::Result<()> {
        let entries = self.entries_by_offset();
        write_shard_header(
            writer,
            entries.len() as u64,
            u64::from(self.inner.region_len),
        )?;
        write_shard_directory(writer, entries.iter().map(|&(label, _, len)| (label, len)))?;
        self.stream_region_to(writer)
    }

    /// The directory entries sorted by region offset — the deterministic
    /// serialization order (and the physical arena order: spans tile the
    /// region ascending).
    pub(crate) fn entries_by_offset(&self) -> Vec<(Label, u32, u32)> {
        let mut entries: Vec<(Label, u32, u32)> = self
            .inner
            .table
            .iter()
            .map(|(label, &(offset, len))| (*label, offset, len))
            .collect();
        entries.sort_unstable_by_key(|&(_, offset, _)| offset);
        entries
    }

    /// Ciphertext-region length in bytes.
    pub(crate) fn region_len(&self) -> u32 {
        self.inner.region_len
    }

    /// The labels stored in this shard, in table order.
    pub(crate) fn labels(&self) -> impl Iterator<Item = &Label> {
        self.inner.table.keys()
    }

    /// Streams the raw ciphertext region into `writer` in bounded chunks,
    /// straight off disk (block cache bypassed). The bytes are copied
    /// verbatim — nothing is decrypted.
    fn stream_region_to<W: Write>(&self, writer: &mut W) -> io::Result<()> {
        let inner = &*self.inner;
        let mut remaining = u64::from(inner.region_len);
        let mut at = inner.region_offset;
        let mut buf = vec![0u8; STREAM_CHUNK];
        while remaining > 0 {
            let take = remaining.min(STREAM_CHUNK as u64) as usize;
            read_exact_at(&inner.file, &mut buf[..take], at)?;
            writer.write_all(&buf[..take])?;
            at += take as u64;
            remaining -= take as u64;
        }
        Ok(())
    }

    /// Loads this shard fully into an in-memory arena, **byte-identical**
    /// to the arena the shard file serializes: same entry order (ascending
    /// offset), same ciphertext bytes, same offset table.
    pub(crate) fn to_memory(&self) -> Result<EncryptedIndex, StorageError> {
        let inner = &*self.inner;
        let mut region = vec![0u8; inner.region_len as usize];
        read_exact_at(&inner.file, &mut region, inner.region_offset)
            .map_err(|e| io_err(&inner.path, e))?;
        let entries = self.entries_by_offset();
        let mut index = EncryptedIndex::with_capacity(entries.len(), region.len());
        for (label, offset, len) in entries {
            index.append_entry(
                label,
                &region[offset as usize..(offset as usize + len as usize)],
            );
        }
        Ok(index)
    }
}

impl ShardStorage for FileShard {
    fn try_get(&self, label: &Label) -> Result<Option<CipherSpan<'_>>, StorageError> {
        match self.inner.table.get(label) {
            Some(&(offset, len)) => self.span(offset, len).map(Some),
            None => Ok(None),
        }
    }

    fn len(&self) -> usize {
        self.inner.table.len()
    }

    fn storage_bytes(&self) -> usize {
        self.inner.table.len() * LABEL_LEN + self.inner.region_len as usize
    }
}

// ---------------------------------------------------------------------------
// Serialization helpers
// ---------------------------------------------------------------------------

/// Writes the fixed 32-byte shard-file header.
pub(crate) fn write_shard_header<W: Write>(
    writer: &mut W,
    entries: u64,
    region_len: u64,
) -> io::Result<()> {
    let mut header = MetaWriter::new(&SHARD_MAGIC);
    header.u32(0).u64(entries).u64(region_len);
    writer.write_all(&header.into_bytes())
}

/// Writes the label directory; offsets are the running sum of the lengths,
/// which is exactly the arena layout (spans tile the region).
fn write_shard_directory<W: Write>(
    writer: &mut W,
    entries: impl Iterator<Item = (Label, u32)>,
) -> io::Result<()> {
    let mut running = 0u32;
    for (label, len) in entries {
        writer.write_all(&label)?;
        writer.write_all(&running.to_le_bytes())?;
        writer.write_all(&len.to_le_bytes())?;
        running += len;
    }
    Ok(())
}

/// Serializes one in-memory shard into `path` (directory sorted by offset,
/// region = raw arena bytes).
fn write_memory_shard(path: &Path, shard: &EncryptedIndex) -> Result<(), StorageError> {
    let entries = shard.entries_by_offset();
    write_file_atomic(path, |writer| {
        write_shard_header(writer, entries.len() as u64, shard.arena_raw().len() as u64)?;
        write_shard_directory(writer, entries.iter().map(|&(label, _, len)| (label, len)))?;
        writer.write_all(shard.arena_raw())
    })
}

/// Serializes a file-backed shard into `path` (which may be the very file
/// the shard is served from — see [`write_file_atomic`]).
fn write_file_shard(path: &Path, shard: &FileShard) -> Result<(), StorageError> {
    write_file_atomic(path, |writer| shard.write_to(writer))
}

/// Streams one shard's serialized file directly from the per-keyword build
/// chunks — the on-disk BuildIndex path: no intermediate arena is ever
/// materialized, and the bytes written are exactly what `save_to_dir` of
/// the equivalent in-memory shard would produce (same entry order, offsets
/// as the running length sum).
pub(crate) fn write_chunk_shard(
    path: &Path,
    chunks: &[KeywordChunk],
    members: &[(u32, u32)],
    region_len: usize,
) -> Result<(), StorageError> {
    assert!(
        region_len <= u32::MAX as usize,
        "arena limited to 4 GiB per index; shard the dataset first"
    );
    write_file_atomic(path, |writer| {
        write_shard_header(writer, members.len() as u64, region_len as u64)?;
        write_shard_directory(
            writer,
            members.iter().map(|&(c, e)| {
                let chunk = &chunks[c as usize];
                (chunk.labels[e as usize], chunk.spans[e as usize].1)
            }),
        )?;
        for &(c, e) in members {
            let chunk = &chunks[c as usize];
            let (offset, len) = chunk.spans[e as usize];
            writer.write_all(&chunk.buf[offset as usize..(offset + len) as usize])?;
        }
        Ok(())
    })
}

/// Structurally merges already-encrypted shard files into one shard file
/// at `path`: the inputs' ciphertext regions are concatenated **verbatim**
/// in input order, and the offset-sorted label directory is re-emitted
/// with every offset rebased by the running region sum — the merged spans
/// tile the merged region by construction. No ciphertext byte is
/// decrypted or re-encrypted on this path; the inputs' bytes are streamed
/// straight through.
///
/// Returns [`StorageError::Unsupported`] — the caller's signal to fall
/// back to a rebuild — if the merged region would exceed the 4 GiB
/// per-shard bound, or if two inputs store the same 16-byte label (only
/// possible by PRF-output collision across independently keyed parts, so
/// astronomically rare; a rebuild handles it correctly).
pub(crate) fn merge_shard_files(inputs: &[FileShard], path: &Path) -> Result<(), StorageError> {
    let total_entries: u64 = inputs.iter().map(|s| ShardStorage::len(s) as u64).sum();
    let total_region: u64 = inputs.iter().map(|s| u64::from(s.region_len())).sum();
    if total_region > u64::from(u32::MAX) {
        return Err(StorageError::Unsupported(
            "structural shard merge past the 4 GiB region bound",
        ));
    }
    let mut seen =
        LabelTable::with_capacity_and_hasher(total_entries as usize, BuildHasherDefault::default());
    for shard in inputs {
        for label in shard.labels() {
            if seen.insert(*label, (0, 0)).is_some() {
                return Err(StorageError::Unsupported(
                    "structural shard merge with a cross-part label collision",
                ));
            }
        }
    }
    write_file_atomic(path, |writer| {
        write_shard_header(writer, total_entries, total_region)?;
        write_shard_directory(
            writer,
            inputs.iter().flat_map(|shard| {
                shard
                    .entries_by_offset()
                    .into_iter()
                    .map(|(label, _, len)| (label, len))
            }),
        )?;
        for shard in inputs {
            shard.stream_region_to(writer)?;
        }
        Ok(())
    })
}

/// Best-effort removal of the files a failed on-disk build wrote — the
/// manifest and every shard file — followed by the directory itself *only
/// if that leaves it empty*. Never recursive: the target directory may
/// have pre-existed with unrelated content that must survive.
/// (Internal to the workspace: multi-artifact scheme builds — SRC-i's two
/// indexes, Constant's depth sidecar — reuse it to unwind their own
/// partial failures.)
#[doc(hidden)]
pub fn cleanup_partial_index(dir: &Path, shard_count: usize) {
    let manifest = dir.join(MANIFEST_FILE);
    let _ = formats::remove_file(&tmp_path(&manifest));
    let _ = formats::remove_file(&manifest);
    for i in 0..shard_count {
        let shard = dir.join(shard_file_name(i));
        let _ = formats::remove_file(&tmp_path(&shard));
        let _ = formats::remove_file(&shard);
    }
    // An interrupted external-memory build may also have left a spill
    // directory behind; sweep its recognized files the same way (foreign
    // files are never touched, so the remove_dir below only succeeds once
    // everything left in `dir` is ours).
    crate::external::sweep_spill_dir(&dir.join(crate::external::SPILL_DIR));
    let _ = formats::remove_dir(dir);
}

/// Writes the index manifest (`index.meta`).
pub(crate) fn write_manifest(dir: &Path, shard_bits: u32) -> Result<(), StorageError> {
    MetaWriter::new(&MANIFEST_MAGIC)
        .u32(shard_bits)
        .u64(1u64 << shard_bits)
        .commit(&dir.join(MANIFEST_FILE))
}

/// Reads and validates the index manifest, returning the shard bits.
pub(crate) fn read_manifest(dir: &Path) -> Result<u32, StorageError> {
    let path = dir.join(MANIFEST_FILE);
    let bytes = fs::read(&path).map_err(|e| io_err(&path, e))?;
    let mut fields = MetaReader::open(&path, &bytes, &MANIFEST_MAGIC, MANIFEST_LEN)?;
    let shard_bits = fields.u32()?;
    let shard_count = fields.u64()?;
    if shard_bits > crate::sharded::MAX_SHARD_BITS || shard_count != 1u64 << shard_bits {
        return Err(fields.corrupt(format!(
            "manifest claims {shard_count} shards at {shard_bits} shard bits"
        )));
    }
    fields.finish()?;
    Ok(shard_bits)
}

/// Serializes every shard of `shards` (plus the manifest) into `dir`,
/// creating it if needed. Shard files are written in parallel.
///
/// A **first** save into a directory writes the files directly (each one
/// tmp+renamed, manifest last — there is no old index a crash could mix
/// with). A **re-save over an existing index** is directory-level atomic:
/// everything is written into a fresh staging directory which is then
/// renamed into place, so a crash at any point leaves either the complete
/// old snapshot or the complete new one — never a cleanly-opening mix of
/// old and new same-shard-count files (see [`staged_resave`]).
pub(crate) fn save_shards_to_dir(
    dir: &Path,
    shard_bits: u32,
    shards: &[crate::sharded::Shard],
) -> Result<(), StorageError> {
    recover_displaced_snapshot(dir);
    if dir.join(MANIFEST_FILE).exists() {
        return staged_resave(dir, shard_bits, shards);
    }
    formats::create_dir_all(dir)?;
    write_shard_files(dir, shard_bits, shards)?;
    remove_stale_shard_files(dir, shards.len());
    Ok(())
}

/// Completes the rollback of a re-save commit that died between its two
/// renames: if `dir` is missing but a complete old snapshot is parked at
/// `<dir>.old`, restore it. Called by both the open and the save path, so
/// the crash window between "old parked" and "staging renamed in" heals
/// at the next access instead of requiring operator surgery.
pub(crate) fn recover_displaced_snapshot(dir: &Path) {
    if dir.exists() {
        return;
    }
    let displaced = displaced_path(dir);
    if displaced.join(MANIFEST_FILE).exists() {
        let _ = formats::rename(&displaced, dir);
    }
}

/// Writes every shard file (in parallel) and then the manifest into `dir`.
/// The manifest is written LAST: it is the commit record of a save into a
/// fresh directory.
fn write_shard_files(
    dir: &Path,
    shard_bits: u32,
    shards: &[crate::sharded::Shard],
) -> Result<(), StorageError> {
    let jobs: Vec<(usize, &crate::sharded::Shard)> = shards.iter().enumerate().collect();
    let results: Vec<Result<(), StorageError>> = jobs
        .into_par_iter()
        .map(|(i, shard)| {
            let path = dir.join(shard_file_name(i));
            match shard.unwrap_faults() {
                crate::sharded::Shard::Memory(index) => write_memory_shard(&path, index),
                crate::sharded::Shard::File(file) => write_file_shard(&path, file),
                crate::sharded::Shard::Fault(_) => {
                    unreachable!("unwrap_faults removes fault wrappers")
                }
            }
        })
        .collect();
    results.into_iter().collect::<Result<(), StorageError>>()?;
    write_manifest(dir, shard_bits)
}

/// The staging sibling a re-save writes into before committing.
fn staging_path(dir: &Path) -> PathBuf {
    let mut name = dir.file_name().unwrap_or_default().to_os_string();
    name.push(".staging");
    dir.with_file_name(name)
}

/// The sibling the old snapshot is parked at during the commit swap.
fn displaced_path(dir: &Path) -> PathBuf {
    let mut name = dir.file_name().unwrap_or_default().to_os_string();
    name.push(".old");
    dir.with_file_name(name)
}

/// Removes a leftover `<dir>.staging` / `<dir>.old` scratch directory from
/// a previously crashed save — but only if it plausibly *is* one: empty,
/// or containing at least one index file (manifest or shard file; a
/// crashed staging always does, since sidecar copies happen after the
/// shard writes). Anything else at the scratch path is foreign data and
/// aborts the save with a typed error instead of being deleted.
fn clear_save_leftover(path: &Path) -> Result<(), StorageError> {
    let Ok(metadata) = fs::symlink_metadata(path) else {
        return Ok(()); // nothing there
    };
    let refuse = |detail: String| {
        Err(StorageError::CorruptDirectory {
            path: path.to_path_buf(),
            detail,
        })
    };
    if !metadata.is_dir() {
        return refuse(
            "the save's scratch path is occupied by a non-directory; move it away".to_string(),
        );
    }
    let entries = fs::read_dir(path).map_err(|e| io_err(path, e))?;
    let mut saw_entry = false;
    let mut saw_index_file = false;
    for entry in entries {
        let entry = entry.map_err(|e| io_err(path, e))?;
        saw_entry = true;
        if entry.file_name().to_str().is_some_and(is_index_file) {
            saw_index_file = true;
            break;
        }
    }
    if saw_entry && !saw_index_file {
        return refuse(
            "the save's scratch path holds a directory with no index files — not a \
             crashed save's leftover; refusing to delete it"
                .to_string(),
        );
    }
    formats::remove_dir_all(path)
}

/// Whether `name` is one of the files a save itself writes (shard files,
/// the manifest, or their tmp scratch siblings) — as opposed to scheme
/// sidecars like `constant.meta` that must survive a re-save.
fn is_index_file(name: &str) -> bool {
    if name == MANIFEST_FILE || name == "index.meta.tmp" {
        return true;
    }
    let stem = name
        .strip_suffix(".shd.tmp")
        .or_else(|| name.strip_suffix(".shd"));
    matches!(stem.and_then(|s| s.strip_prefix("shard-")), Some(digits) if digits.chars().all(|c| c.is_ascii_digit()))
}

/// Directory-level atomic re-save: the whole new snapshot (shard files,
/// manifest, and copies of any non-index sidecar files such as
/// `constant.meta`) is written into a `<dir>.staging` sibling, then
/// committed by renaming it into place — the old directory is moved aside
/// first and removed after. A crash while staging leaves the old snapshot
/// untouched (stale staging directories are cleaned up at the next save);
/// a crash after the commit rename leaves the complete new snapshot. At no
/// point does `dir` hold a mix of old and new files.
fn staged_resave(
    dir: &Path,
    shard_bits: u32,
    shards: &[crate::sharded::Shard],
) -> Result<(), StorageError> {
    let staging = staging_path(dir);
    let displaced = displaced_path(dir);
    // Clean up leftovers of a previous crashed save — refusing, with a
    // typed error, to delete sibling directories that were clearly not
    // produced by a save (a user's unrelated data at `<dir>.staging` or
    // `<dir>.old` must never be silently destroyed).
    clear_save_leftover(&staging)?;
    clear_save_leftover(&displaced)?;
    formats::create_dir_all(&staging)?;
    let staged = (|| {
        write_shard_files(&staging, shard_bits, shards)?;
        // Preserve everything the save itself does not own (scheme
        // sidecars, user files) so the committed directory is a strict
        // replacement of the index files only.
        let entries = fs::read_dir(dir).map_err(|e| io_err(dir, e))?;
        for entry in entries {
            let entry = entry.map_err(|e| io_err(dir, e))?;
            let name = entry.file_name();
            let is_sidecar = name
                .to_str()
                .map(|name| !is_index_file(name))
                .unwrap_or(true);
            if is_sidecar && entry.path().is_file() {
                formats::copy(&entry.path(), &staging.join(&name))?;
            }
        }
        Ok(())
    })();
    if let Err(error) = staged {
        let _ = formats::remove_dir_all(&staging);
        return Err(error);
    }
    // Commit: park the old snapshot, rename the staging directory into
    // place, then drop the old one. Open file handles into the old
    // snapshot keep reading their (now unlinked) inodes.
    formats::rename(dir, &displaced)?;
    if let Err(error) = formats::rename(&staging, dir) {
        // Roll the old snapshot back so the target never stays missing.
        let _ = formats::rename(&displaced, dir);
        let _ = formats::remove_dir_all(&staging);
        return Err(error);
    }
    let _ = formats::remove_dir_all(&displaced);
    Ok(())
}

/// Removes leftover `shard-NNNNN.shd` files (and their `.tmp` scratch
/// siblings) with indices past the just-saved shard count — stale remnants
/// of a previous, more-sharded index saved into the same directory, which
/// would otherwise linger next to the new files. Best effort: a file that
/// cannot be removed never affects correctness (`open_dir` is
/// manifest-driven), only directory hygiene.
fn remove_stale_shard_files(dir: &Path, shard_count: usize) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let stem = name
            .strip_suffix(".shd.tmp")
            .or_else(|| name.strip_suffix(".shd"));
        let Some(index) = stem
            .and_then(|stem| stem.strip_prefix("shard-"))
            .and_then(|digits| digits.parse::<usize>().ok())
        else {
            continue;
        };
        if index >= shard_count {
            let _ = formats::remove_file(&entry.path());
        }
    }
}

/// Opens every shard file under `dir` (in parallel) after validating the
/// manifest. With a cache budget, all shards share one index-wide
/// [`BlockCache`] bounding their resident region blocks.
pub(crate) fn open_shards_from_dir(
    dir: &Path,
    cache_budget: Option<usize>,
) -> Result<(u32, Vec<FileShard>), StorageError> {
    recover_displaced_snapshot(dir);
    let shard_bits = read_manifest(dir)?;
    let shard_count = 1usize << shard_bits;
    let cache = cache_budget.map(|budget| Arc::new(BlockCache::new(budget)));
    let indices: Vec<usize> = (0..shard_count).collect();
    let results: Vec<Result<FileShard, StorageError>> = indices
        .into_par_iter()
        .map(|i| {
            let path = dir.join(shard_file_name(i));
            let shard = match &cache {
                Some(cache) => FileShard::open_cached(&path, i as u32, Arc::clone(cache))?,
                None => FileShard::open(&path)?,
            };
            // Label-prefix routing check: every label in shard i must carry
            // prefix i at the manifest's shard-bit width, or probes routed
            // by shard_of(label) would silently miss. This rejects swapped
            // or foreign shard files — individually valid, collectively
            // wrong — with a typed error instead of empty query results.
            if shard_bits > 0 {
                for label in shard.inner.table.keys() {
                    let prefix =
                        u64::from_be_bytes(label[..8].try_into().expect("labels are 16 bytes"))
                            >> (64 - shard_bits);
                    if prefix != i as u64 {
                        return Err(StorageError::CorruptDirectory {
                            path,
                            detail: format!(
                                "label with shard prefix {prefix} stored in shard {i} \
                                 (at {shard_bits} shard bits) — shard files swapped or \
                                 from a different index layout"
                            ),
                        });
                    }
                }
            }
            Ok(shard)
        })
        .collect();
    let shards = results
        .into_iter()
        .collect::<Result<Vec<FileShard>, StorageError>>()?;
    Ok((shard_bits, shards))
}

pub mod test_support {
    //! Unique scratch directories for persistence tests.
    //!
    //! Not part of the crate's API contract — exposed (`#[doc(hidden)]` at
    //! the re-export) so the downstream crates' persistence tests share one
    //! helper instead of three copies.

    use std::path::{Path, PathBuf};
    use std::sync::atomic::{AtomicU64, Ordering};

    static COUNTER: AtomicU64 = AtomicU64::new(0);

    /// A unique scratch directory under the system temp dir, removed on
    /// drop (best effort).
    pub struct TempDir(PathBuf);

    impl TempDir {
        /// Creates a fresh directory tagged with `tag`.
        pub fn new(tag: &str) -> Self {
            let n = COUNTER.fetch_add(1, Ordering::Relaxed);
            let path =
                std::env::temp_dir().join(format!("rsse-test-{}-{tag}-{n}", std::process::id()));
            std::fs::create_dir_all(&path).expect("create temp dir");
            TempDir(path)
        }

        /// The directory path.
        pub fn path(&self) -> &Path {
            &self.0
        }

        /// Number of entries directly under the directory (0 if unreadable).
        pub fn subdir_count(&self) -> usize {
            std::fs::read_dir(&self.0).map(|it| it.count()).unwrap_or(0)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::TempDir;
    use super::*;
    use crate::database::SseDatabase;
    use crate::pibas::SseScheme;
    use crate::sharded::ShardedIndex;
    use rand::SeedableRng;
    use rand_chacha::ChaCha20Rng;

    /// Builds a small saved index directory and returns (tempdir, shard-0
    /// file path, valid shard-0 bytes).
    fn saved_index(bits: u32) -> (TempDir, PathBuf, Vec<u8>) {
        let mut rng = ChaCha20Rng::seed_from_u64(1);
        let key = SseScheme::setup(&mut rng);
        let mut db = SseDatabase::new();
        for i in 0..32u64 {
            db.add(
                format!("kw{}", i % 4).into_bytes(),
                i.to_le_bytes().to_vec(),
            );
        }
        let index =
            SseScheme::build_index_stored(&key, &db, &StorageConfig::in_memory(bits), &mut rng)
                .unwrap();
        let dir = TempDir::new("robust");
        index.save_to_dir(dir.path()).unwrap();
        let shard0 = dir.path().join(shard_file_name(0));
        let bytes = fs::read(&shard0).unwrap();
        (dir, shard0, bytes)
    }

    #[test]
    fn open_rejects_header_truncated_file() {
        let (_dir, shard0, bytes) = saved_index(0);
        fs::write(&shard0, &bytes[..16]).unwrap();
        match FileShard::open(&shard0) {
            Err(StorageError::Truncated {
                expected, actual, ..
            }) => {
                assert_eq!(expected, 32);
                assert_eq!(actual, 16);
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn open_rejects_body_truncated_file() {
        let (_dir, shard0, bytes) = saved_index(0);
        fs::write(&shard0, &bytes[..bytes.len() - 7]).unwrap();
        match FileShard::open(&shard0) {
            Err(StorageError::Truncated {
                expected, actual, ..
            }) => {
                assert_eq!(expected, bytes.len() as u64);
                assert_eq!(actual, bytes.len() as u64 - 7);
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn open_rejects_bad_magic() {
        let (_dir, shard0, mut bytes) = saved_index(0);
        bytes[..8].copy_from_slice(b"NOTANIDX");
        fs::write(&shard0, &bytes).unwrap();
        match FileShard::open(&shard0) {
            Err(StorageError::BadMagic { found, .. }) => assert_eq!(&found, b"NOTANIDX"),
            other => panic!("expected BadMagic, got {other:?}"),
        }
    }

    #[test]
    fn open_rejects_unsupported_version() {
        let (_dir, shard0, mut bytes) = saved_index(0);
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        fs::write(&shard0, &bytes).unwrap();
        match FileShard::open(&shard0) {
            Err(StorageError::UnsupportedVersion { version, .. }) => assert_eq!(version, 99),
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }

    #[test]
    fn open_rejects_out_of_bounds_directory_span() {
        let (_dir, shard0, mut bytes) = saved_index(0);
        // Inflate the last directory entry's length so its span overruns
        // the region (the header's sizes are untouched, so the length
        // checks pass and the span check itself must fire).
        let entry_count = u64::from_le_bytes(bytes[16..24].try_into().unwrap()) as usize;
        let last_len_at = 32 + (entry_count - 1) * 24 + 20;
        let old_len = u32::from_le_bytes(bytes[last_len_at..last_len_at + 4].try_into().unwrap());
        bytes[last_len_at..last_len_at + 4].copy_from_slice(&(old_len + 1000).to_le_bytes());
        fs::write(&shard0, &bytes).unwrap();
        match FileShard::open(&shard0) {
            Err(StorageError::CorruptDirectory { detail, .. }) => {
                assert!(detail.contains("overruns"), "unexpected detail: {detail}")
            }
            other => panic!("expected CorruptDirectory, got {other:?}"),
        }
    }

    #[test]
    fn open_rejects_non_tiling_directory_offsets() {
        let (_dir, shard0, mut bytes) = saved_index(0);
        // Shift the second entry's offset forward: spans no longer tile.
        let offset_at = 32 + 24 + 16;
        let old = u32::from_le_bytes(bytes[offset_at..offset_at + 4].try_into().unwrap());
        bytes[offset_at..offset_at + 4].copy_from_slice(&(old + 1).to_le_bytes());
        fs::write(&shard0, &bytes).unwrap();
        match FileShard::open(&shard0) {
            Err(StorageError::CorruptDirectory { detail, .. }) => {
                assert!(detail.contains("tile"), "unexpected detail: {detail}")
            }
            other => panic!("expected CorruptDirectory, got {other:?}"),
        }
    }

    #[test]
    fn open_rejects_trailing_bytes() {
        let (_dir, shard0, mut bytes) = saved_index(0);
        bytes.extend_from_slice(b"junk");
        fs::write(&shard0, &bytes).unwrap();
        match FileShard::open(&shard0) {
            Err(StorageError::CorruptDirectory { detail, .. }) => {
                assert!(detail.contains("trailing"), "unexpected detail: {detail}")
            }
            other => panic!("expected CorruptDirectory, got {other:?}"),
        }
    }

    #[test]
    fn open_dir_rejects_corrupt_manifest() {
        let (dir, _, _) = saved_index(2);
        let manifest = dir.path().join(MANIFEST_FILE);

        let valid = fs::read(&manifest).unwrap();
        fs::write(&manifest, &valid[..10]).unwrap();
        assert!(matches!(
            ShardedIndex::open_dir(dir.path()),
            Err(StorageError::Truncated { .. })
        ));

        let mut bad_magic = valid.clone();
        bad_magic[0] ^= 0xFF;
        fs::write(&manifest, &bad_magic).unwrap();
        assert!(matches!(
            ShardedIndex::open_dir(dir.path()),
            Err(StorageError::BadMagic { .. })
        ));

        let mut bad_version = valid.clone();
        bad_version[8..12].copy_from_slice(&7u32.to_le_bytes());
        fs::write(&manifest, &bad_version).unwrap();
        assert!(matches!(
            ShardedIndex::open_dir(dir.path()),
            Err(StorageError::UnsupportedVersion { version: 7, .. })
        ));

        let mut bad_count = valid.clone();
        bad_count[16..24].copy_from_slice(&3u64.to_le_bytes());
        fs::write(&manifest, &bad_count).unwrap();
        assert!(matches!(
            ShardedIndex::open_dir(dir.path()),
            Err(StorageError::CorruptDirectory { .. })
        ));
    }

    #[test]
    fn open_dir_rejects_swapped_shard_files() {
        // Each shard file is internally valid, but routing goes by label
        // prefix: swapping two files must be rejected typed, not opened
        // into an index that silently answers everything empty.
        let (dir, _, _) = saved_index(2);
        let a = dir.path().join(shard_file_name(0));
        let b = dir.path().join(shard_file_name(1));
        let tmp = dir.path().join("swap");
        fs::rename(&a, &tmp).unwrap();
        fs::rename(&b, &a).unwrap();
        fs::rename(&tmp, &b).unwrap();
        match ShardedIndex::open_dir(dir.path()) {
            Err(StorageError::CorruptDirectory { detail, .. }) => {
                assert!(detail.contains("prefix"), "unexpected detail: {detail}")
            }
            other => panic!("expected CorruptDirectory, got {other:?}"),
        }
    }

    #[test]
    fn open_dir_rejects_missing_shard_file() {
        let (dir, shard0, _) = saved_index(1);
        fs::remove_file(&shard0).unwrap();
        assert!(matches!(
            ShardedIndex::open_dir(dir.path()),
            Err(StorageError::Io { .. })
        ));
    }

    #[test]
    fn open_dir_rejects_missing_directory() {
        let missing = std::env::temp_dir().join("rsse-definitely-missing-index");
        assert!(matches!(
            ShardedIndex::open_dir(&missing),
            Err(StorageError::Io { .. })
        ));
    }

    #[test]
    fn errors_render_their_context() {
        let (dir, shard0, mut bytes) = saved_index(0);
        bytes[..8].copy_from_slice(b"XXXXXXXX");
        fs::write(&shard0, &bytes).unwrap();
        let err = ShardedIndex::open_dir(dir.path());
        // The manifest is fine, so the error comes from the shard file and
        // names it.
        let rendered = format!("{}", err.expect_err("must fail"));
        assert!(rendered.contains("shard-00000.shd"), "got: {rendered}");
    }

    #[test]
    fn failed_on_disk_build_cleans_up_its_files() {
        // Occupy the last shard file's path with a directory: the manifest
        // write (and, with two shards, shard 0's) succeeds, the occupied
        // shard's write fails, and the cleanup must remove what the build
        // wrote without touching the (pre-existing) occupant — through the
        // chunk build and through the fixed-stride pipeline.
        type Build = fn(&StorageConfig) -> Result<ShardedIndex, StorageError>;
        let chunk_build: Build = |config| {
            let mut rng = ChaCha20Rng::seed_from_u64(2);
            let key = SseScheme::setup(&mut rng);
            let mut db = SseDatabase::new();
            db.add(b"w".to_vec(), b"payload".to_vec());
            SseScheme::build_index_stored(&key, &db, config, &mut rng)
        };
        let pipeline: Build = |config| {
            let mut rng = ChaCha20Rng::seed_from_u64(2);
            let key = SseScheme::setup(&mut rng);
            let shuffle_key = rsse_crypto::Key::generate(&mut rng);
            let entries = (0..64u64).map(|i| ((i % 5).to_le_bytes(), i.to_le_bytes()));
            crate::build_index_fixed_external(&key, &shuffle_key, entries, config, &mut rng)
        };
        for (build, shard_bits) in [(chunk_build, 0), (pipeline, 0), (pipeline, 1)] {
            let dir = TempDir::new("partial-clean");
            let occupant = dir.path().join(shard_file_name((1 << shard_bits) - 1));
            fs::create_dir_all(&occupant).unwrap();
            let err = build(&StorageConfig::on_disk(shard_bits, dir.path()))
                .expect_err("occupied shard path must fail");
            assert!(matches!(err, StorageError::Io { .. }));
            let left: Vec<_> = fs::read_dir(dir.path())
                .unwrap()
                .map(|entry| entry.unwrap().file_name())
                .collect();
            assert_eq!(
                left,
                vec![occupant.file_name().unwrap().to_os_string()],
                "only the pre-existing occupant may survive the failed build"
            );
        }
    }

    #[test]
    fn resaving_into_the_directory_being_served_is_safe() {
        // Regression: save_to_dir used to truncate each shard file before
        // the file-backed serializer read it back, destroying the index it
        // was serializing. The atomic tmp+rename write must keep in-place
        // re-saves byte-identical and the open handles valid throughout.
        let mut rng = ChaCha20Rng::seed_from_u64(3);
        let key = SseScheme::setup(&mut rng);
        let mut db = SseDatabase::new();
        for i in 0..32u64 {
            db.add(
                format!("kw{}", i % 4).into_bytes(),
                i.to_le_bytes().to_vec(),
            );
        }
        let index =
            SseScheme::build_index_stored(&key, &db, &StorageConfig::in_memory(2), &mut rng)
                .unwrap();
        let dir = TempDir::new("inplace-resave");
        index.save_to_dir(dir.path()).unwrap();
        let before = fs::read(dir.path().join(shard_file_name(0))).unwrap();

        let reopened = ShardedIndex::open_dir(dir.path()).unwrap();
        reopened
            .save_to_dir(dir.path())
            .expect("re-saving into the serving directory must succeed");
        assert_eq!(
            fs::read(dir.path().join(shard_file_name(0))).unwrap(),
            before,
            "in-place re-save must be byte-identical"
        );
        // Both the still-open handle and a fresh open keep answering.
        let token = SseScheme::trapdoor(&key, b"kw1");
        assert_eq!(SseScheme::search(&reopened, &token).unwrap().len(), 8);
        let fresh = ShardedIndex::open_dir(dir.path()).unwrap();
        assert_eq!(SseScheme::search(&fresh, &token).unwrap().len(), 8);
    }

    #[test]
    fn resave_removes_stale_higher_numbered_shard_files() {
        // Saving a less-sharded index over a more-sharded one must not
        // leave the old index's extra shard files interleaved.
        let mut rng = ChaCha20Rng::seed_from_u64(4);
        let key = SseScheme::setup(&mut rng);
        let mut db = SseDatabase::new();
        db.add(b"w".to_vec(), b"payload".to_vec());
        let dir = TempDir::new("stale-shards");
        SseScheme::build_index_stored(&key, &db, &StorageConfig::in_memory(3), &mut rng)
            .unwrap()
            .save_to_dir(dir.path())
            .unwrap();
        SseScheme::build_index_stored(&key, &db, &StorageConfig::in_memory(0), &mut rng)
            .unwrap()
            .save_to_dir(dir.path())
            .unwrap();
        let names: Vec<String> = fs::read_dir(dir.path())
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert!(
            !names.iter().any(|n| n == &shard_file_name(1)),
            "stale shard files must be removed, got {names:?}"
        );
        assert_eq!(names.len(), 2, "manifest + one shard file: {names:?}");
    }

    #[test]
    fn resave_preserves_sidecar_files() {
        // Scheme sidecars (Constant's depth meta, PB's tree) live next to
        // the shard files; the staged re-save must carry them into the
        // committed snapshot.
        let (dir, _, _) = saved_index(1);
        let sidecar = dir.path().join("constant.meta");
        fs::write(&sidecar, b"sidecar-bytes").unwrap();
        let index = ShardedIndex::open_dir(dir.path()).unwrap();
        index.save_to_dir(dir.path()).unwrap();
        assert_eq!(
            fs::read(&sidecar).unwrap(),
            b"sidecar-bytes",
            "re-save must preserve non-index files"
        );
        assert!(ShardedIndex::open_dir(dir.path()).is_ok());
    }

    #[test]
    fn failed_resave_never_mixes_old_and_new() {
        // The ROADMAP's save-atomicity item: a save that dies midway over
        // an existing same-shard-count index must leave the old snapshot
        // byte-identical and openable — never a cleanly-opening mix of
        // old and new files. The kill is simulated by occupying the
        // staging path with a plain file, so the staged write fails
        // before the commit rename.
        let (dir, _, _) = saved_index(1);
        let before: Vec<(String, Vec<u8>)> = {
            let mut files: Vec<(String, Vec<u8>)> = fs::read_dir(dir.path())
                .unwrap()
                .map(|e| {
                    let e = e.unwrap();
                    (
                        e.file_name().into_string().unwrap(),
                        fs::read(e.path()).unwrap(),
                    )
                })
                .collect();
            files.sort();
            files
        };

        // A different index with the same shard count, whose save must
        // not commit.
        let mut rng = ChaCha20Rng::seed_from_u64(77);
        let key = SseScheme::setup(&mut rng);
        let mut db = SseDatabase::new();
        for i in 0..16u64 {
            db.add(format!("other{i}").into_bytes(), i.to_le_bytes().to_vec());
        }
        let other =
            SseScheme::build_index_stored(&key, &db, &StorageConfig::in_memory(1), &mut rng)
                .unwrap();
        fs::write(staging_path(dir.path()), b"occupied").unwrap();
        let err = other
            .save_to_dir(dir.path())
            .expect_err("occupied staging path must fail the save");
        assert!(matches!(err, StorageError::CorruptDirectory { .. }));

        fs::remove_file(staging_path(dir.path())).unwrap();
        let after: Vec<(String, Vec<u8>)> = {
            let mut files: Vec<(String, Vec<u8>)> = fs::read_dir(dir.path())
                .unwrap()
                .map(|e| {
                    let e = e.unwrap();
                    (
                        e.file_name().into_string().unwrap(),
                        fs::read(e.path()).unwrap(),
                    )
                })
                .collect();
            files.sort();
            files
        };
        assert_eq!(
            before, after,
            "a failed re-save must not touch the old snapshot"
        );
        let reopened = ShardedIndex::open_dir(dir.path()).unwrap();
        assert_eq!(reopened.shard_bits(), 1, "old snapshot stays openable");
    }

    #[test]
    fn leftover_staging_from_a_killed_save_is_ignored_and_cleaned() {
        // Simulate a save killed while staging: the old snapshot opens
        // untouched, and the next save clears the leftovers and commits.
        let (dir, _, bytes) = saved_index(1);
        let staging = staging_path(dir.path());
        fs::create_dir_all(&staging).unwrap();
        fs::write(staging.join(shard_file_name(0)), &bytes[..bytes.len() / 2]).unwrap();

        let reopened = ShardedIndex::open_dir(dir.path()).unwrap();
        assert_eq!(reopened.shard_bits(), 1);
        reopened
            .save_to_dir(dir.path())
            .expect("save over leftover staging must succeed");
        assert!(
            !staging.exists(),
            "committed save must clean the staging dir"
        );
        assert!(
            !displaced_path(dir.path()).exists(),
            "no parked old snapshot left"
        );
        assert!(ShardedIndex::open_dir(dir.path()).is_ok());
    }

    #[test]
    fn interrupted_commit_swap_heals_on_next_open_or_save() {
        // Simulate a save killed between the two commit renames: the old
        // snapshot sits at <dir>.old and <dir> is missing. Both open_dir
        // and a subsequent save must restore and use the old snapshot.
        let (dir, _, _) = saved_index(1);
        fs::rename(dir.path(), displaced_path(dir.path())).unwrap();
        assert!(!dir.path().exists());
        let reopened = ShardedIndex::open_dir(dir.path())
            .expect("open must complete the interrupted commit's rollback");
        assert_eq!(reopened.shard_bits(), 1);
        assert!(!displaced_path(dir.path()).exists());

        // Same through the save path.
        fs::rename(dir.path(), displaced_path(dir.path())).unwrap();
        reopened
            .save_to_dir(dir.path())
            .expect("save must recover and re-commit");
        assert!(ShardedIndex::open_dir(dir.path()).is_ok());
    }

    #[test]
    fn resave_refuses_to_delete_foreign_sibling_directories() {
        // A user directory that merely *happens* to sit at <dir>.old must
        // never be destroyed as a "crashed save leftover".
        let (dir, _, _) = saved_index(0);
        let foreign = displaced_path(dir.path());
        fs::create_dir_all(&foreign).unwrap();
        fs::write(foreign.join("precious.txt"), b"user data").unwrap();
        let index = ShardedIndex::open_dir(dir.path()).unwrap();
        let err = index
            .save_to_dir(dir.path())
            .expect_err("foreign sibling must abort the save");
        assert!(matches!(err, StorageError::CorruptDirectory { .. }));
        assert_eq!(
            fs::read(foreign.join("precious.txt")).unwrap(),
            b"user data",
            "the foreign directory must survive untouched"
        );
        // The index itself is also untouched and still serves.
        assert!(ShardedIndex::open_dir(dir.path()).is_ok());
        fs::remove_dir_all(&foreign).unwrap();
    }

    #[test]
    fn empty_index_round_trips() {
        let dir = TempDir::new("empty");
        let index = ShardedIndex::default();
        index.save_to_dir(dir.path()).unwrap();
        let reopened = ShardedIndex::open_dir(dir.path()).unwrap();
        assert_eq!(reopened.len(), 0);
        assert!(reopened.is_empty());
        assert!(reopened.is_file_backed());
        assert!(reopened.try_get(&[0u8; LABEL_LEN]).unwrap().is_none());
    }

    /// The documented `BlockCache` concurrency contract under adversarial
    /// mixed hit/miss/eviction traffic: with N threads inserting
    /// fixed-size blocks, mid-flight residency never exceeds
    /// `budget + N × block` (each in-flight insert may overshoot by its
    /// own block, nothing more), the eviction counter is monotone, and
    /// once every insert returns the cache is back inside the budget with
    /// the resident counter exactly matching the bytes actually held.
    #[test]
    fn block_cache_stats_stay_consistent_under_concurrent_traffic() {
        use std::sync::atomic::AtomicBool;

        const THREADS: usize = 8;
        const BLOCK: usize = 1 << 10;
        const BLOCKS_IN_BUDGET: usize = 24;
        const KEY_SPACE: u32 = 192; // 8× the budget: constant eviction churn
        let budget = BLOCKS_IN_BUDGET * BLOCK;
        let cache = BlockCache::new(budget);
        let stop = AtomicBool::new(false);

        std::thread::scope(|scope| {
            for thread in 0..THREADS as u32 {
                let cache = &cache;
                let stop = &stop;
                scope.spawn(move || {
                    // Overlapping key windows: some keys are shared across
                    // threads (hits + insert races), some private (misses).
                    for round in 0..400u32 {
                        let key = (thread % 4, (round * 13 + thread * 29) % KEY_SPACE);
                        if cache.get(key).is_none() {
                            cache.insert(key, vec![0u8; BLOCK].into());
                        }
                        // Every thread validates the mid-flight bound on
                        // every step, not just at a sampling cadence.
                        let resident = cache.resident_bytes();
                        assert!(
                            resident <= budget + THREADS * BLOCK,
                            "mid-flight resident {resident} exceeds budget {budget} \
                             plus one in-flight block per thread"
                        );
                    }
                    stop.store(true, Ordering::Relaxed);
                });
            }
            // A dedicated sampler races the workers: counters must be
            // monotone and residency bounded at every observation.
            let cache = &cache;
            let stop = &stop;
            scope.spawn(move || {
                let mut last_evictions = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let evictions = cache.evictions();
                    assert!(
                        evictions >= last_evictions,
                        "eviction counter went backwards: {last_evictions} -> {evictions}"
                    );
                    last_evictions = evictions;
                    assert!(cache.resident_bytes() <= budget + THREADS * BLOCK);
                    std::thread::yield_now();
                }
            });
        });

        // Quiescent: no insert mid-flight, so the budget holds exactly and
        // the resident counter agrees byte-for-byte with the slots held.
        let resident = cache.resident_bytes();
        assert!(
            resident <= budget,
            "quiescent resident {resident} exceeds budget {budget}"
        );
        let held: usize = (0..4).map(|s| cache.shard_resident_bytes(s)).sum();
        assert_eq!(
            resident, held,
            "resident counter must match the bytes actually cached"
        );
        assert!(
            cache.evictions() > 0,
            "a working set 8× the budget must evict"
        );
    }
}
