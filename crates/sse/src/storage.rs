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
//!   The directory is held in the same flat tagged label table as an
//!   in-memory arena's, sized once from the header's entry count; the one
//!   pass that fills it also checks the spans' tiling, duplicate labels
//!   and each label's shard routing. The region is cut into blocks along
//!   entry boundaries (~64 KiB resident blocks, or ~512-byte blocks under
//!   a cache budget); a probe faults in only the block holding its span,
//!   through the index-wide clock block cache when a budget is set. A
//!   span's block is found by arithmetic — a page → block index, one entry
//!   per 512 bytes of region — and under a budget the shard's block →
//!   frame map names the cache frame to copy the span out of, without a
//!   lock. Every probe first passes the probe gate of [`formats`], where a
//!   test can arm a fault plan.
//! * [`StorageConfig`] / [`StorageBackend`] / [`BuildBudget`] — the knob
//!   threaded through `BuildIndex` (and, in `rsse-core`, through
//!   `RangeScheme::build_stored` and the update manager) selecting where an
//!   index's shards live and how much memory building them may take.
//! * [`StorageError`] — the typed error every persistence path returns.
//! * the directory protocol — one `shard-NNNNN.shd` per shard, then
//!   `index.meta` (`RSSE-IDX`) as the directory's commit record; a
//!   directory is written once.
//!
//! This module owns exactly two formats, `RSSE-SHD` and `RSSE-IDX`, and
//! reads and writes their headers through the codec kit in
//! [`formats`]. Every other format lives beside its owner
//! (`docs/FORMATS.md` has the table); in particular the update manager's
//! `manager.meta`/`owner.meta` belong to `rsse-updates`.
//!
//! # Shard file format (version 2)
//!
//! ```text
//! offset  size  field
//! 0       8     magic  "RSSE-SHD"
//! 8       4     format version (LE u32, = 2: CIPHERTEXT_FORMAT_VERSION)
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
    self, io_err, tmp_path, write_file_atomic, MetaReader, MetaWriter, CIPHERTEXT_FORMAT_VERSION,
    FORMAT_VERSION,
};
use crate::pibas::{CipherSpan, EncryptedIndex, Label, LABEL_LEN};
use crate::sharded::shard_of_label;
use crate::table::LabelTable;
use rayon::prelude::*;
use std::fmt;
use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{fence, AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
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
pub(crate) const DIR_ENTRY_LEN: u64 = 24;

/// Manifest file length in bytes.
const MANIFEST_LEN: u64 = 24;

/// Target paged-read block size of a **budgeted** shard. A probe wants one
/// entry of a few dozen bytes, so the block is what a miss over-reads and
/// what the cache budget is spent on — larger blocks fill a budget with
/// bytes no probe asked for. Blocks are cut along entry boundaries, so a
/// block is at least this large only when its last entry crosses the
/// threshold; a single entry larger than the target gets its own block.
/// The cut is made at [`FileShard::open`] and is no part of the file
/// format.
///
/// Measured, not a knob: traced `perf` `disk_hot` (2.1 M entries of ~24
/// bytes, hot tenant ranges, budget = region / 10), seeds 1 and 7, on this
/// frame cache —
///
/// | target | `sse.cache_hit_rate` | misses / query | resident |
/// |--------|----------------------|----------------|----------|
/// | 4 KiB  | 0.961, 0.954         | 3.75, 4.54     | 4.8 MB   |
/// | 1 KiB  | 1.000, 1.000         | 0, 0           | 4.3 MB   |
/// | 512 B  | 1.000, 1.000         | 0, 0           | 2.4 MB   |
///
/// 512 bytes holds the same hot set in half the memory of 1 KiB.
const CACHED_BLOCK_TARGET: usize = 512;

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
        /// The version this build reads for that format.
        expected: u32,
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
            StorageError::UnsupportedVersion {
                path,
                version,
                expected,
            } => write!(
                f,
                "{} uses unsupported format version {version} (this build reads {expected})",
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
/// written out as sorted spill runs and the runs are k-way merged, so
/// peak RSS is bounded by the budget (run buffer + merge scratch + one
/// encrypt batch), not by corpus size, at ~2 I/O passes over the entries.
/// An on-disk sink holds one batch whatever the budget: every earlier
/// batch is in its stage files.
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
    /// always resident — and is enforced by one clock cache of fixed-size
    /// frames shared by all of the index's shards, which never holds more
    /// than the budget; see
    /// [`ShardedIndex::cache_stats`](crate::ShardedIndex::cache_stats).
    /// A budget below one frame (the index's largest block) caches
    /// nothing. In-memory backends ignore it.
    pub cache_budget: Option<usize>,
    /// Memory budget for the build itself. `None` (the default) never
    /// spills: the transformed corpus is sorted in RAM. `Some` bounds the
    /// peak working set of every build (each scheme's
    /// `RangeScheme::build_stored` in `rsse-core`, and every build of the
    /// update manager): entries past the budget are sorted through
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

/// Key of a block in its index's cache: shard number above block number.
fn block_key(shard: u32, block: usize) -> u64 {
    (u64::from(shard) << 32) | block as u64
}

/// Key of a frame that has never held a block (no shard reaches
/// `u32::MAX`).
const EMPTY_FRAME: u64 = u64::MAX;

/// A shard's block → frame entry before the block is first cached (no
/// index reaches `u32::MAX` frames).
const NO_FRAME: u32 = u32::MAX;

/// The header of one cache frame; the frame's bytes are its words in
/// [`BlockCache::words`].
struct Frame {
    /// Seqlock version: odd while a fill rewrites the frame. A reader that
    /// sees the same even version before and after its copy copied one
    /// block whole.
    version: AtomicU64,
    /// The [`block_key`] held, or [`EMPTY_FRAME`].
    key: AtomicU64,
    /// Length in bytes of the block held.
    len: AtomicU32,
    /// The clock's second-chance bit, set by hits.
    referenced: AtomicBool,
}

/// The clock block cache bounding the resident ciphertext bytes of one
/// file-backed index: a fixed array of frames, each the size of the
/// index's largest block.
///
/// All shards of an index share one cache. A shard maps each of its blocks
/// to the frame that last held it (an `AtomicU32` per block, kept by the
/// shard); the frame's key tells a current entry from a stale one, so
/// eviction never writes another shard's map. A **hit** takes no lock and
/// writes nothing in the cache beyond setting a clear referenced bit: it
/// copies its span's words out of the frame between two reads of the
/// frame's seqlock version, and a version that moved makes it a miss,
/// never torn bytes. A **miss** reads its block outside any lock; one fill mutex then
/// covers picking the victim (second-chance clock), rewriting the frame
/// under an odd version and publishing the shard's map entry.
///
/// The frame count is `min(budget / frame size, blocks in the index)`, so
/// resident bytes never exceed the budget — at any instant, not only at
/// rest — and a budget larger than the region allocates only what the
/// region needs. A budget smaller than one frame caches nothing.
pub(crate) struct BlockCache {
    frames: Box<[Frame]>,
    /// The frames' bytes, `frame_words` little-endian words per frame.
    words: Box<[AtomicU64]>,
    frame_words: usize,
    /// The clock hand; its lock is the fill mutex.
    hand: Mutex<usize>,
    evictions: AtomicU64,
    resident: AtomicUsize,
}

impl BlockCache {
    /// A cache of `budget` bytes for an index of `blocks` blocks whose
    /// largest is `largest_block` bytes.
    pub(crate) fn new(budget: usize, largest_block: usize, blocks: usize) -> Self {
        let frame_words = largest_block.div_ceil(8).max(1);
        let count = (budget / (frame_words * 8))
            .min(blocks)
            .min(NO_FRAME as usize);
        Self {
            frames: (0..count)
                .map(|_| Frame {
                    version: AtomicU64::new(0),
                    key: AtomicU64::new(EMPTY_FRAME),
                    len: AtomicU32::new(0),
                    referenced: AtomicBool::new(false),
                })
                .collect(),
            words: (0..count * frame_words)
                .map(|_| AtomicU64::new(0))
                .collect(),
            frame_words,
            hand: Mutex::new(0),
            evictions: AtomicU64::new(0),
            resident: AtomicUsize::new(0),
        }
    }

    /// The words of frame `at`.
    fn frame_words(&self, at: usize) -> &[AtomicU64] {
        &self.words[at * self.frame_words..(at + 1) * self.frame_words]
    }

    /// Copies bytes `rel..rel + len` of the block `key` out of frame `at`
    /// (the block's map entry), or `None` — a miss — if the frame holds
    /// another block or a fill rewrote it during the copy.
    fn read(&self, at: u32, key: u64, rel: usize, len: usize) -> Option<CipherSpan<'static>> {
        let frame = self.frames.get(at as usize)?;
        // Seqlock read. This Acquire pairs with the fill's closing Release
        // store of the version, so an even version shows that fill's key,
        // length and words. The Acquire fence after the copy pairs with the
        // Release fence after a later fill's odd store: a copy that read
        // any word that fill wrote re-reads a version that moved.
        let version = frame.version.load(Ordering::Acquire);
        if version & 1 == 1 || frame.key.load(Ordering::Relaxed) != key {
            return None;
        }
        let words = &self.frame_words(at as usize)[rel / 8..(rel + len).div_ceil(8)];
        let span = CipherSpan::copied(len, |out| {
            // The first word starts `rel % 8` bytes before the span; every
            // later word is copied from its first byte.
            let mut skip = rel % 8;
            let mut written = 0;
            for word in words {
                let bytes = word.load(Ordering::Relaxed).to_le_bytes();
                let take = (8 - skip).min(len - written);
                out[written..written + take].copy_from_slice(&bytes[skip..skip + take]);
                written += take;
                skip = 0;
            }
        });
        fence(Ordering::Acquire);
        if frame.version.load(Ordering::Relaxed) != version {
            return None;
        }
        if !frame.referenced.load(Ordering::Relaxed) {
            frame.referenced.store(true, Ordering::Relaxed);
        }
        Some(span)
    }

    /// Caches the freshly read `block` under `key` and points the shard's
    /// map entry `slot` at its frame, evicting the first unreferenced frame
    /// the clock hand finds. A block another miss published first is
    /// discarded; with no frames nothing is cached.
    fn fill(&self, slot: &AtomicU32, key: u64, block: &[u8]) {
        if self.frames.is_empty() {
            return;
        }
        let mut hand = self.hand.lock().expect("cache lock poisoned");
        let published = slot.load(Ordering::Relaxed) as usize;
        if self
            .frames
            .get(published)
            .is_some_and(|frame| frame.key.load(Ordering::Relaxed) == key)
        {
            return;
        }
        let at = loop {
            let at = *hand;
            *hand = (at + 1) % self.frames.len();
            let frame = &self.frames[at];
            if !frame.referenced.load(Ordering::Relaxed) {
                break at;
            }
            frame.referenced.store(false, Ordering::Relaxed);
        };
        let frame = &self.frames[at];
        if frame.key.load(Ordering::Relaxed) != EMPTY_FRAME {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        // Seqlock write; the fill lock makes this the frame's only writer.
        let version = frame.version.load(Ordering::Relaxed);
        frame.version.store(version + 1, Ordering::Relaxed);
        fence(Ordering::Release);
        let old_len = frame.len.swap(block.len() as u32, Ordering::Relaxed) as usize;
        frame.key.store(key, Ordering::Relaxed);
        for (word, bytes) in self.frame_words(at).iter().zip(block.chunks(8)) {
            let mut le = [0u8; 8];
            le[..bytes.len()].copy_from_slice(bytes);
            word.store(u64::from_le_bytes(le), Ordering::Relaxed);
        }
        frame.version.store(version + 2, Ordering::Release);
        // One store under the fill lock: an observer sees the total before
        // or after this fill, both inside the budget.
        let resident = self.resident.load(Ordering::Relaxed);
        self.resident
            .store(resident - old_len + block.len(), Ordering::Relaxed);
        // Published last (Release, paired with the Acquire load in
        // `FileShard::span`); a reader still checks the entry by key and
        // version, so a stale entry costs a miss, never bytes.
        slot.store(at as u32, Ordering::Release);
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
    /// every frame under the fill lock).
    fn shard_resident_bytes(&self, shard: u32) -> usize {
        let _fills = self.hand.lock().expect("cache lock poisoned");
        self.frames
            .iter()
            .filter(|frame| {
                let key = frame.key.load(Ordering::Relaxed);
                key != EMPTY_FRAME && key >> 32 == u64::from(shard)
            })
            .map(|frame| frame.len.load(Ordering::Relaxed) as usize)
            .sum()
    }
}

// ---------------------------------------------------------------------------
// The file-backed shard
// ---------------------------------------------------------------------------

/// Log2 of the region bytes one entry of a shard's page → block index
/// covers: 512 bytes, no longer than any block target, so at most one
/// block starts inside a page after its first byte.
const PAGE_SHIFT: u32 = 9;

/// Where a shard's region blocks live once faulted in.
enum BlockStore {
    /// No cache budget: every touched block stays resident behind its
    /// `OnceLock`, one per block — loaded once, lock-free afterwards (the
    /// pre-budget behavior, and the default). A failed read stores
    /// nothing, so the next probe retries — a transient I/O blip never
    /// poisons a block permanently (the probe itself surfaces the failure
    /// as a typed error).
    Resident(Vec<OnceLock<Box<[u8]>>>),
    /// Budgeted: blocks live in the frames of the index-wide clock
    /// [`BlockCache`] and can be evicted; probes copy their span out.
    Cached {
        cache: Arc<BlockCache>,
        /// Per block, the cache frame that last held it ([`NO_FRAME`]
        /// before its first fill). An entry whose frame has since been
        /// refilled is stale; the frame's key tells.
        frames: Box<[AtomicU32]>,
    },
}

/// A shard file opened up to its block store: header checked, label
/// directory loaded and validated, region cut into blocks. The block store
/// comes last because a budgeted index sizes its cache frames by the
/// largest block of all its shards.
pub(crate) struct ShardLayout {
    /// Path the shard was opened from (error reporting, re-serialization,
    /// the probe gate).
    path: PathBuf,
    /// This shard's number in its index: the probe gate's shard and the
    /// block cache's key space.
    shard: u32,
    /// The open shard file; all reads go through positioned `read_at`.
    file: File,
    /// The resident bucket directory: label → (region offset, len).
    table: LabelTable,
    /// File offset where the ciphertext region starts.
    region_offset: u64,
    /// Ciphertext-region length (< 4 GiB, the per-shard arena bound).
    region_len: u32,
    /// `(start, len)` of each region block, ascending by start; the blocks
    /// tile the region.
    blocks: Vec<(u32, u32)>,
    /// Page → block index: entry `p` is the block holding region byte
    /// `p << PAGE_SHIFT`. A span's block is that entry or a later one —
    /// the next, since every block but the last is at least a page long.
    pages: Box<[u32]>,
}

struct FileShardInner {
    layout: ShardLayout,
    /// Where the blocks live once read, resident or cache-backed.
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
/// shared), and probes from any number of threads take no lock once their
/// block is loaded: without a budget a block's [`OnceLock`] is the only
/// synchronization; under one a hit copies its span out of a cache frame
/// between two reads of the frame's seqlock version, and only a miss takes
/// the cache's fill lock.
#[derive(Clone)]
pub struct FileShard {
    inner: Arc<FileShardInner>,
}

impl fmt::Debug for FileShard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FileShard")
            .field("path", &self.inner.layout.path)
            .field("entries", &self.inner.layout.table.len())
            .field("region_len", &self.inner.layout.region_len)
            .field("blocks", &self.inner.layout.blocks.len())
            .field(
                "budgeted",
                &matches!(self.inner.store, BlockStore::Cached { .. }),
            )
            .field("resident_bytes", &self.resident_bytes())
            .finish()
    }
}

/// Reads a little-endian `u32` out of a directory entry (the bulk
/// directory pass; its length is validated before the loop).
fn read_u32(bytes: &[u8]) -> u32 {
    u32::from_le_bytes(bytes[..4].try_into().expect("4 bytes"))
}

/// The page → block index of `blocks` (ascending, tiling the region) over
/// a `region_len`-byte region: per page, the last block starting at or
/// before the page's first byte.
fn page_index(blocks: &[(u32, u32)], region_len: u32) -> Box<[u32]> {
    let mut block = 0usize;
    (0..u64::from(region_len).div_ceil(1 << PAGE_SHIFT))
        .map(|page| {
            let first_byte = page << PAGE_SHIFT;
            while blocks
                .get(block + 1)
                .is_some_and(|&(start, _)| u64::from(start) <= first_byte)
            {
                block += 1;
            }
            block as u32
        })
        .collect()
}

/// The block holding region byte `offset`, by its page → block index
/// `pages`: the page's entry, stepped past the block (at most one) that
/// starts later in the same page.
#[inline]
fn block_of(blocks: &[(u32, u32)], pages: &[u32], offset: u32) -> usize {
    let mut block = pages[(offset >> PAGE_SHIFT) as usize] as usize;
    while blocks
        .get(block + 1)
        .is_some_and(|&(start, _)| start <= offset)
    {
        block += 1;
    }
    block
}

impl ShardLayout {
    /// Opens the file of shard `shard` of a `2^shard_bits`-shard index:
    /// [`FileShard::open`], plus the routing check — every label must
    /// carry prefix `shard` at `shard_bits` bits, or probes routed by
    /// label prefix would silently miss, so swapped or foreign shard files
    /// (each valid on its own) are rejected typed instead of answering
    /// empty. A `budgeted` shard's region is cut into
    /// [`CACHED_BLOCK_TARGET`]-sized blocks, an unbudgeted one's into
    /// [`RESIDENT_BLOCK_TARGET`]-sized ones.
    pub(crate) fn open(
        path: &Path,
        shard: u32,
        shard_bits: u32,
        budgeted: bool,
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
        let mut fields = MetaReader::open(
            path,
            &header,
            &SHARD_MAGIC,
            CIPHERTEXT_FORMAT_VERSION,
            SHARD_HEADER_LEN,
        )?;
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
        // span in bounds) and each label's routing, and build the lookup
        // table and block cuts.
        let entry_count = entry_count as usize;
        let mut directory = vec![0u8; entry_count * DIR_ENTRY_LEN as usize];
        read_exact_at(&file, &mut directory, SHARD_HEADER_LEN).map_err(|e| io_err(path, e))?;
        let mut table = LabelTable::with_capacity(entry_count);
        let block_target = if budgeted {
            CACHED_BLOCK_TARGET
        } else {
            RESIDENT_BLOCK_TARGET
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
            let prefix = shard_of_label(&label, shard_bits);
            if prefix != shard as usize {
                return Err(StorageError::CorruptDirectory {
                    path: path.to_path_buf(),
                    detail: format!(
                        "label with shard prefix {prefix} stored in shard {shard} \
                         (at {shard_bits} shard bits) — shard files swapped or \
                         from a different index layout"
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
        Ok(Self {
            path: path.to_path_buf(),
            shard,
            file,
            table,
            region_offset: SHARD_HEADER_LEN + (entry_count as u64) * DIR_ENTRY_LEN,
            region_len: region_len as u32,
            pages: page_index(&blocks, region_len as u32),
            blocks,
        })
    }

    /// Length of the shard's largest block (0 for an empty region).
    fn largest_block(&self) -> usize {
        self.blocks
            .iter()
            .map(|&(_, len)| len as usize)
            .max()
            .unwrap_or(0)
    }
}

/// Serves opened shard layouts as one index's [`FileShard`]s: with a
/// `cache_budget`, every shard shares one [`BlockCache`] whose frames fit
/// the largest block of any of them; without one, each keeps its blocks
/// resident.
pub(crate) fn serve_shards(
    layouts: Vec<ShardLayout>,
    cache_budget: Option<usize>,
) -> Vec<FileShard> {
    let cache = cache_budget.map(|budget| {
        let largest = layouts.iter().map(ShardLayout::largest_block).max();
        let blocks = layouts.iter().map(|layout| layout.blocks.len()).sum();
        Arc::new(BlockCache::new(budget, largest.unwrap_or(0), blocks))
    });
    layouts
        .into_iter()
        .map(|layout| FileShard::serve(layout, cache.clone()))
        .collect()
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
        ShardLayout::open(path, 0, 0, false).map(|layout| Self::serve(layout, None))
    }

    /// A shard served from `layout`: its blocks resident once read, or,
    /// with a `cache`, held in the frames of that index-wide budgeted
    /// [`BlockCache`] under shard key `layout.shard`.
    fn serve(layout: ShardLayout, cache: Option<Arc<BlockCache>>) -> Self {
        let store = match cache {
            Some(cache) => BlockStore::Cached {
                cache,
                frames: layout
                    .blocks
                    .iter()
                    .map(|_| AtomicU32::new(NO_FRAME))
                    .collect(),
            },
            None => BlockStore::Resident(layout.blocks.iter().map(|_| OnceLock::new()).collect()),
        };
        Self {
            inner: Arc::new(FileShardInner {
                layout,
                store,
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
                read_errors: AtomicU64::new(0),
            }),
        }
    }

    /// The file this shard is served from.
    pub fn path(&self) -> &Path {
        &self.inner.layout.path
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
        let (hits, misses) = self.probe_counts();
        CacheStats {
            hits,
            misses,
            evictions: 0,
            resident_bytes: self.resident_bytes(),
        }
    }

    /// This shard's probe hits and misses.
    pub(crate) fn probe_counts(&self) -> (u64, u64) {
        (
            self.inner.hits.load(Ordering::Relaxed),
            self.inner.misses.load(Ordering::Relaxed),
        )
    }

    /// Bytes of the ciphertext region currently faulted into memory (the
    /// bucket directory itself is always resident). In cached mode this
    /// walks the shared cache's frames and counts only this shard's blocks.
    pub fn resident_bytes(&self) -> usize {
        match &self.inner.store {
            BlockStore::Resident(blocks) => blocks
                .iter()
                .filter_map(OnceLock::get)
                .map(|data| data.len())
                .sum(),
            BlockStore::Cached { cache, .. } => cache.shard_resident_bytes(self.inner.layout.shard),
        }
    }

    /// Bytes of the resident bucket directory: its label table as
    /// allocated — a tag and a 24-byte slot for each of its `⌈4n/3⌉`
    /// slots, the least count at a load of at most 3/4, so ≈ 33 B an
    /// entry.
    pub(crate) fn directory_bytes(&self) -> usize {
        self.inner.layout.table.allocated_bytes()
    }

    /// Loads `label`'s directory slot ahead of its probe — the
    /// [`IndexLookup::prefetch`](crate::IndexLookup::prefetch) hint for
    /// one shard. The region block is not touched.
    pub(crate) fn prefetch(&self, label: &Label) {
        self.inner.layout.table.prefetch(label);
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
        read_exact_at(
            &inner.layout.file,
            block,
            inner.layout.region_offset + u64::from(start),
        )
        .map_err(|error| {
            // Record the failure for the aggregate counter; the probe
            // itself carries the typed error to the caller. The block
            // stays uncached, so the next probe retries.
            inner.read_errors.fetch_add(1, Ordering::Relaxed);
            io_err(&inner.layout.path, error)
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
        let index = block_of(&inner.layout.blocks, &inner.layout.pages, offset);
        let (start, block_len) = inner.layout.blocks[index];
        let rel = (offset - start) as usize;
        match &inner.store {
            BlockStore::Resident(blocks) => {
                let block = &blocks[index];
                let data = match block.get() {
                    Some(data) => {
                        inner.hits.fetch_add(1, Ordering::Relaxed);
                        data
                    }
                    None => {
                        inner.misses.fetch_add(1, Ordering::Relaxed);
                        let mut buf = vec![0u8; block_len as usize].into_boxed_slice();
                        self.read_block(start, &mut buf)?;
                        // A concurrent probe may have won the race; either
                        // way the lock now holds a fully read copy.
                        let _ = block.set(buf);
                        block.get().expect("block was just populated")
                    }
                };
                Ok(CipherSpan::borrowed(&data[rel..rel + len as usize]))
            }
            BlockStore::Cached { cache, frames } => {
                let slot = &frames[index];
                let key = block_key(inner.layout.shard, index);
                let len = len as usize;
                if let Some(span) = cache.read(slot.load(Ordering::Acquire), key, rel, len) {
                    inner.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(span);
                }
                inner.misses.fetch_add(1, Ordering::Relaxed);
                let mut block = vec![0u8; block_len as usize];
                self.read_block(start, &mut block)?;
                cache.fill(slot, key, &block);
                Ok(CipherSpan::copied(len, |out| {
                    out.copy_from_slice(&block[rel..rel + len])
                }))
            }
        }
    }

    /// Returns the stored ciphertexts in region order, faulting blocks in
    /// as needed (used by leakage-oriented tests and tooling; copies each
    /// span out so resident blocks are not borrowed past the call).
    pub fn ciphertexts(&self) -> Result<Vec<Vec<u8>>, StorageError> {
        let mut spans: Vec<(u32, u32)> = self.inner.layout.table.values().copied().collect();
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
            u64::from(self.inner.layout.region_len),
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
            .layout
            .table
            .iter()
            .map(|(label, &(offset, len))| (*label, offset, len))
            .collect();
        entries.sort_unstable_by_key(|&(_, offset, _)| offset);
        entries
    }

    /// Ciphertext-region length in bytes.
    pub(crate) fn region_len(&self) -> u32 {
        self.inner.layout.region_len
    }

    /// The labels stored in this shard, in table order.
    pub(crate) fn labels(&self) -> impl Iterator<Item = &Label> {
        self.inner.layout.table.keys()
    }

    /// Streams the raw ciphertext region into `writer` in bounded chunks,
    /// straight off disk (block cache bypassed). The bytes are copied
    /// verbatim — nothing is decrypted.
    fn stream_region_to<W: Write>(&self, writer: &mut W) -> io::Result<()> {
        let inner = &*self.inner;
        let mut remaining = u64::from(inner.layout.region_len);
        let mut at = inner.layout.region_offset;
        let mut buf = vec![0u8; STREAM_CHUNK];
        while remaining > 0 {
            let take = remaining.min(STREAM_CHUNK as u64) as usize;
            read_exact_at(&inner.layout.file, &mut buf[..take], at)?;
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
        let mut region = vec![0u8; inner.layout.region_len as usize];
        read_exact_at(&inner.layout.file, &mut region, inner.layout.region_offset)
            .map_err(|e| io_err(&inner.layout.path, e))?;
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
        formats::probe_gate(&self.inner.layout.path, self.inner.layout.shard)?;
        match self.inner.layout.table.get(label) {
            Some(&(offset, len)) => self.span(offset, len).map(Some),
            None => Ok(None),
        }
    }

    fn len(&self) -> usize {
        self.inner.layout.table.len()
    }

    fn storage_bytes(&self) -> usize {
        self.inner.layout.table.len() * LABEL_LEN + self.inner.layout.region_len as usize
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
    let mut header = MetaWriter::new(&SHARD_MAGIC, CIPHERTEXT_FORMAT_VERSION);
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

/// Serializes a file-backed shard into `path`.
fn write_file_shard(path: &Path, shard: &FileShard) -> Result<(), StorageError> {
    write_file_atomic(path, |writer| shard.write_to(writer))
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
    let mut seen = LabelTable::with_capacity(total_entries as usize);
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
    MetaWriter::new(&MANIFEST_MAGIC, FORMAT_VERSION)
        .u32(shard_bits)
        .u64(1u64 << shard_bits)
        .commit(&dir.join(MANIFEST_FILE))
}

/// Reads and validates the index manifest, returning the shard bits.
pub(crate) fn read_manifest(dir: &Path) -> Result<u32, StorageError> {
    let path = dir.join(MANIFEST_FILE);
    let bytes = fs::read(&path).map_err(|e| io_err(&path, e))?;
    let mut fields =
        MetaReader::open(&path, &bytes, &MANIFEST_MAGIC, FORMAT_VERSION, MANIFEST_LEN)?;
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

/// Serializes every shard of `shards` into `dir`, creating it if needed,
/// and then the manifest. Shard files are written in parallel, each
/// tmp + renamed; `index.meta` is written last and is the directory's
/// commit record, so a crash at any point leaves either no manifest (a
/// typed refusal on open) or the complete index. A directory is written
/// once: one that already holds a manifest is refused before anything in
/// it changes.
pub(crate) fn save_shards_to_dir(
    dir: &Path,
    shard_bits: u32,
    shards: &[crate::sharded::Shard],
) -> Result<(), StorageError> {
    let manifest = dir.join(MANIFEST_FILE);
    if manifest.exists() {
        return Err(io_err(
            &manifest,
            io::Error::new(
                io::ErrorKind::AlreadyExists,
                "the directory already holds an index; save into a fresh directory",
            ),
        ));
    }
    formats::create_dir_all(dir)?;
    let jobs: Vec<(usize, &crate::sharded::Shard)> = shards.iter().enumerate().collect();
    let results: Vec<Result<(), StorageError>> = jobs
        .into_par_iter()
        .map(|(i, shard)| {
            let path = dir.join(shard_file_name(i));
            match shard {
                crate::sharded::Shard::Memory(index) => write_memory_shard(&path, index),
                crate::sharded::Shard::File(file) => write_file_shard(&path, file),
            }
        })
        .collect();
    results.into_iter().collect::<Result<(), StorageError>>()?;
    write_manifest(dir, shard_bits)
}

/// Opens every shard file under `dir` (in parallel) after validating the
/// manifest, checking each label's routing as its directory loads. With a
/// cache budget, all shards share one index-wide [`BlockCache`] bounding
/// their resident region blocks.
pub(crate) fn open_shards_from_dir(
    dir: &Path,
    cache_budget: Option<usize>,
) -> Result<(u32, Vec<FileShard>), StorageError> {
    let shard_bits = read_manifest(dir)?;
    let shard_count = 1usize << shard_bits;
    let results: Vec<Result<ShardLayout, StorageError>> = (0..shard_count)
        .into_par_iter()
        .map(|i| {
            ShardLayout::open(
                &dir.join(shard_file_name(i)),
                i as u32,
                shard_bits,
                cache_budget.is_some(),
            )
        })
        .collect();
    let layouts = results
        .into_iter()
        .collect::<Result<Vec<ShardLayout>, StorageError>>()?;
    Ok((shard_bits, serve_shards(layouts, cache_budget)))
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
    use crate::pibas::reference::{build_stored, search};
    use crate::pibas::SseScheme;
    use crate::sharded::ShardedIndex;
    use rand::SeedableRng;
    use rand_chacha::ChaCha20Rng;

    impl BlockCache {
        /// Number of frames the cache allocated.
        pub(crate) fn frame_count(&self) -> usize {
            self.frames.len()
        }
    }

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
        let index = build_stored(&key, &db, &StorageConfig::in_memory(bits), &mut rng).unwrap();
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
    fn open_rejects_duplicate_labels() {
        let (_dir, shard0, mut bytes) = saved_index(0);
        // Give entry 5 the label of entry 2; the spans still tile.
        let label_at = |entry: usize| 32 + entry * 24;
        let copied = bytes[label_at(2)..label_at(2) + 16].to_vec();
        bytes[label_at(5)..label_at(5) + 16].copy_from_slice(&copied);
        fs::write(&shard0, &bytes).unwrap();
        match FileShard::open(&shard0) {
            Err(StorageError::CorruptDirectory { detail, .. }) => {
                assert_eq!(detail, "duplicate label at entry 5")
            }
            other => panic!("expected CorruptDirectory, got {other:?}"),
        }
    }

    #[test]
    fn page_index_finds_the_block_of_every_offset() {
        // Block cuts as `FileShard::open` makes them: whole entries, every
        // block but the last at least the target — for 24-byte entries,
        // entries larger than a page, mixed sizes, and a short last block.
        let cut = |lens: &[u32], target: u32| {
            let mut blocks = Vec::new();
            let (mut start, mut running) = (0u32, 0u32);
            for &len in lens {
                running += len;
                if running - start >= target {
                    blocks.push((start, running - start));
                    start = running;
                }
            }
            if running > start {
                blocks.push((start, running - start));
            }
            (blocks, running)
        };
        let layouts: [(Vec<u32>, u32); 6] = [
            (vec![24; 2000], 512),
            (vec![24; 2000], 4 << 10),
            (vec![6000; 9], 4 << 10),
            ((0..700).map(|i| 1 + i * 37 % 9000).collect(), 4 << 10),
            (vec![24; 9000], 64 << 10),
            (vec![4096; 5], 4 << 10),
        ];
        for (lens, target) in layouts {
            let (blocks, region_len) = cut(&lens, target);
            let pages = page_index(&blocks, region_len);
            assert_eq!(pages.len(), region_len.div_ceil(1 << PAGE_SHIFT) as usize);
            for offset in 0..region_len {
                let expected = blocks.partition_point(|&(start, _)| start <= offset) - 1;
                assert_eq!(
                    block_of(&blocks, &pages, offset),
                    expected,
                    "offset {offset}"
                );
            }
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
        // Occupy the last shard file's path with a directory: with two
        // shards, shard 0's write succeeds, the occupied shard's write
        // fails, the manifest is never written, and the cleanup must remove
        // what the build wrote without touching the (pre-existing) occupant.
        let build = |config: &StorageConfig| {
            let mut rng = ChaCha20Rng::seed_from_u64(2);
            let key = SseScheme::setup(&mut rng);
            let entries = (0..64u64).map(|i| ((i % 5).to_le_bytes(), i.to_le_bytes()));
            crate::build_index_external_with(
                entries,
                crate::SpillOrder::ByKeywordAndPayload,
                |keyword: &[u8; 8], _: &mut Vec<[u8; 8]>| SseScheme::trapdoor(&key, keyword),
                config,
                &mut rng,
            )
        };
        for shard_bits in [0, 1] {
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
    fn save_over_a_committed_index_is_refused_and_changes_nothing() {
        // A directory is written once: a second save — of another index
        // with the same shard count, or of the index served from it — is
        // refused typed, naming the manifest, before any file moves.
        let (dir, _, _) = saved_index(1);
        fs::write(dir.path().join("owner.meta"), b"sidecar-bytes").unwrap();
        let snapshot = || {
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
        let before = snapshot();

        let mut rng = ChaCha20Rng::seed_from_u64(77);
        let key = SseScheme::setup(&mut rng);
        let mut db = SseDatabase::new();
        for i in 0..16u64 {
            db.add(format!("other{i}").into_bytes(), i.to_le_bytes().to_vec());
        }
        let other = build_stored(&key, &db, &StorageConfig::in_memory(1), &mut rng).unwrap();
        let served = ShardedIndex::open_dir(dir.path()).unwrap();
        for index in [&other, &served] {
            match index.save_to_dir(dir.path()) {
                Err(StorageError::Io { path, error }) => {
                    assert_eq!(path, dir.path().join(MANIFEST_FILE));
                    assert_eq!(error.kind(), io::ErrorKind::AlreadyExists);
                }
                other => panic!("expected Io(AlreadyExists), got {other:?}"),
            }
            assert_eq!(
                snapshot(),
                before,
                "a refused save must not touch the directory"
            );
        }
        let reopened = ShardedIndex::open_dir(dir.path()).unwrap();
        assert_eq!(
            reopened.ciphertexts().unwrap(),
            served.ciphertexts().unwrap(),
            "the committed index still serves"
        );
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

    /// An opened shard keeps its directory at the table's load bound: a
    /// tag and a 24-byte slot for each of the least slot count that holds
    /// its `n` entries at a load of at most 3/4, `⌈4n/3⌉`.
    #[test]
    fn an_opened_directory_is_sized_to_its_entries() {
        let mut rng = ChaCha20Rng::seed_from_u64(5);
        let key = SseScheme::setup(&mut rng);
        for entries in [1usize, 40, 100, 700] {
            let mut db = SseDatabase::new();
            for i in 0..entries as u64 {
                db.add(
                    format!("kw{}", i % 7).into_bytes(),
                    i.to_le_bytes().to_vec(),
                );
            }
            let index = build_stored(&key, &db, &StorageConfig::in_memory(0), &mut rng).unwrap();
            let dir = TempDir::new("directory-bytes");
            index.save_to_dir(dir.path()).unwrap();
            let shard = FileShard::open(&dir.path().join(shard_file_name(0))).unwrap();
            assert_eq!(ShardStorage::len(&shard), entries);
            let bound = 25 * (entries * 4).div_ceil(3);
            assert!(
                shard.directory_bytes() <= bound,
                "{entries} entries: a {} B directory over the {bound} B bound",
                shard.directory_bytes()
            );
        }
    }

    /// The `BlockCache` concurrency contract under adversarial mixed
    /// hit/miss/eviction traffic: with N threads reading and filling
    /// blocks of varying length, residency never exceeds the budget at any
    /// observation — no per-thread slack — every hit copies exactly the
    /// bytes its block holds (never a torn mix of two fills), the eviction
    /// counter is monotone, and once every fill returns the resident
    /// counter matches the bytes the frames hold.
    #[test]
    fn block_cache_stats_stay_consistent_under_concurrent_traffic() {
        const THREADS: u32 = 8;
        const SHARDS: u32 = 4;
        const BLOCK: usize = 1 << 10;
        const BLOCKS_IN_BUDGET: usize = 24;
        const KEY_SPACE: u32 = 192; // 8× the budget: constant eviction churn
        let budget = BLOCKS_IN_BUDGET * BLOCK;
        let cache = BlockCache::new(budget, BLOCK, (SHARDS * KEY_SPACE) as usize);
        assert_eq!(cache.frame_count(), BLOCKS_IN_BUDGET);
        let maps: Vec<Vec<AtomicU32>> = (0..SHARDS)
            .map(|_| (0..KEY_SPACE).map(|_| AtomicU32::new(NO_FRAME)).collect())
            .collect();
        // Each block's bytes are a function of its key, and its length
        // varies with it, so a torn read or a wrong length shows.
        let block_of_key = |key: u64| -> Vec<u8> {
            let len = BLOCK - (key % 61) as usize;
            (0..len).map(|i| (key as usize * 31 + i) as u8).collect()
        };

        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..THREADS)
                .map(|thread| {
                    let (cache, maps) = (&cache, &maps);
                    scope.spawn(move || {
                        // Overlapping key windows: some keys are shared
                        // across threads (hits + fill races), some private
                        // (misses).
                        for round in 0..400u32 {
                            let (shard, block) =
                                (thread % SHARDS, (round * 13 + thread * 29) % KEY_SPACE);
                            let key = block_key(shard, block as usize);
                            let slot = &maps[shard as usize][block as usize];
                            let bytes = block_of_key(key);
                            let (rel, len) = ((round as usize * 7) % 900, 1 + round as usize % 100);
                            match cache.read(slot.load(Ordering::Acquire), key, rel, len) {
                                Some(span) => assert_eq!(&*span, &bytes[rel..rel + len]),
                                None => cache.fill(slot, key, &bytes),
                            }
                            let resident = cache.resident_bytes();
                            assert!(
                                resident <= budget,
                                "mid-flight resident {resident} exceeds budget {budget}"
                            );
                        }
                    })
                })
                .collect();
            // The scope's own thread samples while the workers run:
            // counters must be monotone and residency bounded at every
            // observation.
            let mut last_evictions = 0u64;
            while !workers.iter().all(|worker| worker.is_finished()) {
                let evictions = cache.evictions();
                assert!(
                    evictions >= last_evictions,
                    "eviction counter went backwards: {last_evictions} -> {evictions}"
                );
                last_evictions = evictions;
                assert!(cache.resident_bytes() <= budget);
                std::thread::yield_now();
            }
        });

        // Quiescent: the resident counter agrees byte-for-byte with the
        // blocks the frames hold.
        let held: usize = (0..SHARDS).map(|s| cache.shard_resident_bytes(s)).sum();
        assert_eq!(
            cache.resident_bytes(),
            held,
            "resident counter must match the bytes actually cached"
        );
        assert!(
            cache.evictions() > 0,
            "a working set 8× the budget must evict"
        );
    }

    /// The seqlock under the race it exists for: one frame, refilled with
    /// two blocks in turn for as long as a reader copies whole blocks out
    /// of it. Every copy a read returns is one block's bytes — never half
    /// of each.
    #[test]
    fn a_hit_never_returns_bytes_torn_by_a_concurrent_fill() {
        const BLOCK: usize = 4 << 10;
        const READS: usize = 20_000;
        const FILLS: usize = 10_000;
        let cache = BlockCache::new(BLOCK, BLOCK, 2);
        assert_eq!(cache.frame_count(), 1);
        let blocks = [vec![0xAAu8; BLOCK], vec![0x55u8; BLOCK]];
        let slots = [AtomicU32::new(NO_FRAME), AtomicU32::new(NO_FRAME)];
        let read = |block: usize| {
            let at = slots[block].load(Ordering::Acquire);
            let span = cache.read(at, block_key(0, block), 0, BLOCK)?;
            assert!(
                &*span == blocks[block].as_slice(),
                "torn read of block {block}"
            );
            Some(())
        };
        let fills = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            // The reader keeps reading until the refills below have run
            // their course too, so the two overlap however the threads
            // are scheduled. It runs on its own thread, so a failed
            // assertion ends it and with it the refill loop.
            let reader = scope.spawn(|| {
                let mut reads = 0;
                while reads < READS || fills.load(Ordering::Relaxed) < FILLS {
                    read(0);
                    read(1);
                    reads += 1;
                }
            });
            while !reader.is_finished() {
                let fill = fills.load(Ordering::Relaxed);
                cache.fill(&slots[fill % 2], block_key(0, fill % 2), &blocks[fill % 2]);
                fills.store(fill + 1, Ordering::Relaxed);
            }
        });
        // At rest the frame holds the last block filled, whole.
        let last = (fills.into_inner() - 1) % 2;
        assert_eq!(read(last), Some(()));
        assert_eq!(read(1 - last), None);
    }

    /// Eight threads query a budgeted index whose budget holds a handful of
    /// frames — fewer than one query's blocks, so every query evicts: each
    /// answer must equal the unbudgeted index's, and a sampler checks the
    /// budget and the counters' monotonicity meanwhile.
    #[test]
    fn a_few_frames_under_eight_threads_answer_like_no_budget() {
        const THREADS: usize = 8;
        const KEYWORDS: u64 = 48;
        let mut rng = ChaCha20Rng::seed_from_u64(9);
        let key = SseScheme::setup(&mut rng);
        let mut db = SseDatabase::new();
        for i in 0..3_000u64 {
            db.add(
                format!("kw{}", i % KEYWORDS).into_bytes(),
                i.to_le_bytes().to_vec(),
            );
        }
        let dir = TempDir::new("few-frames");
        build_stored(&key, &db, &StorageConfig::on_disk(2, dir.path()), &mut rng).unwrap();
        let unbudgeted = ShardedIndex::open_dir(dir.path()).unwrap();
        let budget = 5 * CACHED_BLOCK_TARGET;
        let budgeted = ShardedIndex::open_dir_with_budget(dir.path(), Some(budget)).unwrap();
        let frames = budgeted.block_cache().expect("budgeted").frame_count();
        assert!((2..=5).contains(&frames), "{frames} frames");
        let tokens: Vec<_> = (0..KEYWORDS)
            .map(|kw| SseScheme::trapdoor(&key, format!("kw{kw}").as_bytes()))
            .collect();
        let expected: Vec<_> = tokens
            .iter()
            .map(|token| search(&unbudgeted, token).unwrap())
            .collect();
        // Alone, once the frames are full, every query evicts.
        search(&budgeted, &tokens[0]).unwrap();
        for (kw, token) in tokens.iter().enumerate().skip(1) {
            let before = budgeted.cache_stats().evictions;
            assert_eq!(search(&budgeted, token).unwrap(), expected[kw]);
            assert!(budgeted.cache_stats().evictions > before, "kw{kw}");
        }

        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..THREADS)
                .map(|thread| {
                    let (budgeted, tokens, expected) = (&budgeted, &tokens, &expected);
                    scope.spawn(move || {
                        for round in 0..2 {
                            for at in 0..tokens.len() {
                                let kw = (at * 7 + thread * 5 + round) % tokens.len();
                                assert_eq!(
                                    search(budgeted, &tokens[kw]).unwrap(),
                                    expected[kw],
                                    "thread {thread}, kw{kw}"
                                );
                            }
                        }
                    })
                })
                .collect();
            let mut last = budgeted.cache_stats();
            while !workers.iter().all(|worker| worker.is_finished()) {
                let stats = budgeted.cache_stats();
                assert!(stats.resident_bytes <= budget, "{stats:?}");
                assert!(
                    stats.hits >= last.hits
                        && stats.misses >= last.misses
                        && stats.evictions >= last.evictions,
                    "{last:?} -> {stats:?}"
                );
                last = stats;
                std::thread::yield_now();
            }
        });
        let stats = budgeted.cache_stats();
        assert!(stats.resident_bytes <= budget);
        assert!(stats.misses > 0 && stats.evictions > 0, "{stats:?}");
    }
}
