//! External-memory `BuildIndex`: sorted-run spilling plus a streaming
//! merge-encrypt-scatter pass, bounded by a [`BuildBudget`].
//!
//! The in-RAM grouped build (`sort_unstable` over every `(keyword,
//! payload)` entry, then one encrypted chunk per keyword, then the shard
//! scatter) holds the whole transformed corpus in memory at once — fine up
//! to tens of millions of entries, a hard wall past that. This module
//! replaces the *sort* and the *scatter staging* with disk, keeping the
//! cryptographic pipeline — and therefore every output byte — identical:
//!
//! ```text
//!              pass 1: spill                      pass 2: merge + encrypt
//!  entries ──▶ budget-sized buffer ──sort──▶ run-00000.spl ─┐
//!  (streamed)  budget-sized buffer ──sort──▶ run-00001.spl ─┤  k-way merge
//!              …                                 …          ├─▶ keyword groups
//!              spill.meta (RSSE-SPM, committed last) ───────┘      │
//!                                                    shuffle + trapdoor + nonce seed
//!                                                                  │
//!                                                     batched parallel encryption
//!                                                                  │
//!                                              label-prefix scatter into shard sinks
//!                                                   │                    │
//!                                            in-memory arenas    staged shard files
//!                                                              (stage-*.tmp ─▶ shard-*.shd)
//! ```
//!
//! **Byte identity.** The merge yields keywords in exactly the order the
//! in-RAM sort would produce, so the per-keyword nonce seeds are drawn from
//! the caller's RNG in the same sequence, the keyed shuffle sees the same
//! payload order, and `encrypt_payloads` is a pure function of (token,
//! payloads, seed). Entries then reach each shard in the same global
//! (keyword, counter) order the in-RAM scatter uses. The property tests at
//! the bottom of this module (and `tests/external_build.rs` at the scheme
//! level) pin `build_external ≡ build_stored` byte for byte, for any
//! budget, on both backends.
//!
//! **Crash safety.** Spill artifacts live in a dedicated directory
//! ([`SPILL_DIR`] inside the index directory for on-disk builds, a unique
//! temp directory otherwise) and follow the workspace's `.tmp` + rename
//! commit protocol; `spill.meta` is written last, as pass 1's commit
//! record. Cleanup — before a restarted build, after success, after a
//! failure, and from
//! [`cleanup_partial_index`](crate::storage::cleanup_partial_index) — only
//! ever removes *recognized* spill file names and then the directory if
//! that left it empty, so foreign files can never be collateral damage.
//! The final index directory itself keeps the exact commit discipline of
//! the in-RAM on-disk build (manifest first, every shard file atomic).
//! The build has no crash hooks: every file it creates, appends to or
//! removes goes through [`formats`], whose gate
//! `tests/crash_replay.rs` arms to kill a spilling build at every op and
//! require the restarted build to converge byte for byte.

use crate::formats::{self, io_err, write_file_atomic, MetaReader, MetaWriter};
use crate::pibas::{
    encrypt_payloads, EncryptedIndex, Label, SearchToken, SseKey, SseScheme, LABEL_LEN,
};
use crate::sharded::{shard_of_label, Shard, ShardedIndex, MAX_SHARD_BITS};
use crate::storage::{
    shard_file_name, write_manifest, write_shard_header, BlockCache, BuildBudget, FileShard,
    StorageBackend, StorageConfig, StorageError,
};
use rand::{CryptoRng, RngCore};
use rayon::prelude::*;
use rsse_crypto::{StreamCipher, KEY_LEN};
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use std::fs::{self, File};
use std::io::{self, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};

/// Name of the spill directory an on-disk external build creates inside
/// its index directory. The `.tmp` suffix marks it as never part of a
/// committed index: reopen paths ignore it and cleanup may sweep it.
pub const SPILL_DIR: &str = "spill.tmp";

/// Magic bytes opening every spill run file (`run-NNNNN.spl`).
pub const SPILL_RUN_MAGIC: [u8; 8] = *b"RSSE-SPL";

/// Magic bytes opening the spill manifest (`spill.meta`).
pub const SPILL_MANIFEST_MAGIC: [u8; 8] = *b"RSSE-SPM";

/// File name of the spill manifest inside a spill directory.
pub const SPILL_MANIFEST_FILE: &str = "spill.meta";

/// Fixed spill-run header length in bytes.
const RUN_HEADER_LEN: u64 = 32;

/// Fixed-length prefix of the spill manifest, before the run table.
const SPILL_MANIFEST_HEADER_LEN: u64 = 40;

/// Bytes per run-table row in the spill manifest.
const RUN_TABLE_ROW_LEN: usize = 16;

/// One fixed-stride spill entry: keyword plus payload.
type SpillEntry<const K: usize, const P: usize> = ([u8; K], [u8; P]);

/// Keyword groups staged for one parallel encrypt batch: per group, the
/// search token, the shuffled payloads, and the nonce seed drawn for it.
type EncryptBatch<const P: usize> = Vec<(SearchToken, Vec<[u8; P]>, [u8; KEY_LEN])>;

/// File name of spill run `i` inside a spill directory.
pub fn run_file_name(run: usize) -> String {
    format!("run-{run:05}.spl")
}

/// File name of the staged label/length frames of shard `i` during the
/// scatter phase.
fn stage_dir_name(shard: usize) -> String {
    format!("stage-{shard:05}.dir.tmp")
}

/// File name of the staged ciphertext region of shard `i` during the
/// scatter phase.
fn stage_region_name(shard: usize) -> String {
    format!("stage-{shard:05}.region.tmp")
}

/// Whether `name` is a file the external build may have created inside a
/// spill directory (including the `.tmp` siblings of its atomic writes).
/// Cleanup removes exactly these and nothing else.
fn is_spill_file(name: &str) -> bool {
    let base = name.strip_suffix(".tmp").unwrap_or(name);
    if base == SPILL_MANIFEST_FILE {
        return true;
    }
    if let Some(rest) = base.strip_prefix("run-") {
        if let Some(digits) = rest.strip_suffix(".spl") {
            return !digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit());
        }
    }
    if let Some(rest) = name.strip_prefix("stage-") {
        if let Some(digits) = rest
            .strip_suffix(".dir.tmp")
            .or_else(|| rest.strip_suffix(".region.tmp"))
        {
            return !digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit());
        }
    }
    false
}

/// Best-effort removal of every *recognized* spill file under `dir`,
/// followed by the directory itself only if that left it empty. Foreign
/// files — anything whose name the external build would not have written —
/// are never touched, mirroring the refusal discipline of the index
/// save/cleanup paths. A missing directory is a no-op.
pub(crate) fn sweep_spill_dir(dir: &Path) {
    sweep_stale_spill_files(dir);
    let _ = formats::remove_dir(dir);
}

// ---------------------------------------------------------------------------
// Spill order
// ---------------------------------------------------------------------------

/// How the spill pass orders entries — i.e. which in-RAM grouping the
/// external build must reproduce exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpillOrder {
    /// Full lexicographic order on `(keyword, payload)` — the external
    /// equivalent of the grouped build's `sort_unstable` over entry pairs
    /// (Logarithmic-BRC/URC/SRC and SRC-i).
    ByKeywordAndPayload,
    /// Stable order on the keyword alone: payloads of equal keywords keep
    /// their arrival order (each run sorts stably, the merge breaks ties
    /// by run index). The external equivalent of grouping via an ordered
    /// map keyed by keyword with insertion-order lists (Constant-BRC/URC).
    ByKeyword,
}

impl SpillOrder {
    /// On-disk encoding in the spill manifest.
    fn code(self) -> u32 {
        match self {
            SpillOrder::ByKeywordAndPayload => 0,
            SpillOrder::ByKeyword => 1,
        }
    }

    /// Decodes the manifest encoding.
    fn from_code(code: u32) -> Option<Self> {
        match code {
            0 => Some(SpillOrder::ByKeywordAndPayload),
            1 => Some(SpillOrder::ByKeyword),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Pass 1: sorted-run spilling
// ---------------------------------------------------------------------------

/// Per-run row of the spill manifest.
struct RunInfo {
    /// Entries in the run.
    entries: u64,
    /// Total file length in bytes (header + entries).
    bytes: u64,
}

/// Streams entries into sorted, budget-sized run files.
struct Spiller<'a, const K: usize, const P: usize> {
    dir: &'a Path,
    order: SpillOrder,
    /// Entries per run (the bounded write buffer).
    limit: usize,
    buf: Vec<([u8; K], [u8; P])>,
    runs: Vec<RunInfo>,
}

impl<'a, const K: usize, const P: usize> Spiller<'a, K, P> {
    fn new(dir: &'a Path, order: SpillOrder, limit: usize) -> Self {
        Self {
            dir,
            order,
            limit,
            buf: Vec::new(),
            runs: Vec::new(),
        }
    }

    fn push(&mut self, entry: ([u8; K], [u8; P])) -> Result<(), StorageError> {
        self.buf.push(entry);
        if self.buf.len() >= self.limit {
            self.flush()?;
        }
        Ok(())
    }

    /// Sorts the buffered entries and commits them as the next run file.
    fn flush(&mut self) -> Result<(), StorageError> {
        if self.buf.is_empty() {
            return Ok(());
        }
        match self.order {
            // Unstable is fine: equal (keyword, payload) pairs are
            // interchangeable.
            SpillOrder::ByKeywordAndPayload => self.buf.sort_unstable(),
            // Stable by keyword: arrival order within a keyword survives
            // the run sort, and the merge's run-index tie-break preserves
            // it globally.
            SpillOrder::ByKeyword => self.buf.sort_by_key(|entry| entry.0),
        }
        let path = self.dir.join(run_file_name(self.runs.len()));
        let entries = self.buf.len() as u64;
        let bytes = RUN_HEADER_LEN + entries * (K + P) as u64;
        let buf = &self.buf;
        write_file_atomic(&path, |writer| {
            writer.write_all(&run_header::<K, P>(entries).into_bytes())?;
            for (keyword, payload) in buf {
                writer.write_all(keyword)?;
                writer.write_all(payload)?;
            }
            Ok(())
        })?;
        self.runs.push(RunInfo { entries, bytes });
        self.buf.clear();
        Ok(())
    }

    /// Flushes the final partial run and commits the spill manifest —
    /// pass 1's atomic commit record, written last.
    fn finish(mut self) -> Result<(), StorageError> {
        self.flush()?;
        spill_meta::<K, P>(self.order, &self.runs).commit(&self.dir.join(SPILL_MANIFEST_FILE))
    }
}

/// The 32-byte header of a spill run of `entries` entries.
fn run_header<const K: usize, const P: usize>(entries: u64) -> MetaWriter {
    let mut header = MetaWriter::new(&SPILL_RUN_MAGIC);
    header.u32(0).u64(entries).u32(K as u32).u32(P as u32);
    header
}

/// The spill manifest over `runs`.
fn spill_meta<const K: usize, const P: usize>(order: SpillOrder, runs: &[RunInfo]) -> MetaWriter {
    let mut meta = MetaWriter::new(&SPILL_MANIFEST_MAGIC);
    meta.u32(order.code())
        .u32(K as u32)
        .u32(P as u32)
        .u64(runs.len() as u64)
        .u64(runs.iter().map(|r| r.entries).sum());
    for run in runs {
        meta.u64(run.entries).u64(run.bytes);
    }
    meta
}

/// The decoded spill manifest pass 2 rebuilds its state from.
struct SpillMeta {
    order: SpillOrder,
    total_entries: u64,
    runs: Vec<RunInfo>,
}

/// Reads and validates the spill manifest against the build's expected
/// entry geometry.
fn read_spill_meta<const K: usize, const P: usize>(
    dir: &Path,
    order: SpillOrder,
) -> Result<SpillMeta, StorageError> {
    let path = dir.join(SPILL_MANIFEST_FILE);
    let bytes = fs::read(&path).map_err(|e| io_err(&path, e))?;
    let mut fields = MetaReader::open(
        &path,
        &bytes,
        &SPILL_MANIFEST_MAGIC,
        SPILL_MANIFEST_HEADER_LEN,
    )?;
    let code = fields.u32()?;
    let got_order = SpillOrder::from_code(code)
        .ok_or_else(|| fields.corrupt(format!("unknown spill sort mode {code}")))?;
    if got_order != order {
        return Err(fields.corrupt(format!(
            "spill sort mode {got_order:?} does not match this build ({order:?})"
        )));
    }
    let (keyword_len, payload_len) = (fields.u32()?, fields.u32()?);
    if keyword_len != K as u32 || payload_len != P as u32 {
        return Err(fields.corrupt(format!(
            "spill entry geometry ({keyword_len}, {payload_len}) does not match this build ({K}, {P})"
        )));
    }
    let run_count = fields.u64()?;
    let total_entries = fields.u64()?;
    let runs = (0..fields.rows(run_count, RUN_TABLE_ROW_LEN)?)
        .map(|_| {
            Ok(RunInfo {
                entries: fields.u64()?,
                bytes: fields.u64()?,
            })
        })
        .collect::<Result<Vec<RunInfo>, StorageError>>()?;
    let summed = runs
        .iter()
        .try_fold(0u64, |sum, run| sum.checked_add(run.entries));
    if summed != Some(total_entries) {
        return Err(
            fields.corrupt("run table entry counts do not sum to the recorded total".to_string())
        );
    }
    fields.finish()?;
    Ok(SpillMeta {
        order,
        total_entries,
        runs,
    })
}

// ---------------------------------------------------------------------------
// Pass 2: k-way merge
// ---------------------------------------------------------------------------

/// Sequential reader over one committed spill run.
struct RunReader<const K: usize, const P: usize> {
    path: PathBuf,
    reader: BufReader<File>,
    remaining: u64,
}

impl<const K: usize, const P: usize> RunReader<K, P> {
    /// Opens run `run`, validating its header and length against the
    /// manifest row.
    fn open(dir: &Path, run: usize, info: &RunInfo, buffer: usize) -> Result<Self, StorageError> {
        let path = dir.join(run_file_name(run));
        let io = |error| io_err(&path, error);
        let file = File::open(&path).map_err(io)?;
        let actual = file.metadata().map_err(io)?.len();
        if actual != info.bytes {
            return Err(StorageError::Truncated {
                path,
                expected: info.bytes,
                actual,
            });
        }
        let mut reader = BufReader::with_capacity(buffer, file);
        let mut header = [0u8; RUN_HEADER_LEN as usize];
        reader.read_exact(&mut header).map_err(io)?;
        let mut fields = MetaReader::open(&path, &header, &SPILL_RUN_MAGIC, RUN_HEADER_LEN)?;
        fields.reserved()?;
        let entries = fields.u64()?;
        let (keyword_len, payload_len) = (fields.u32()?, fields.u32()?);
        if entries != info.entries || keyword_len != K as u32 || payload_len != P as u32 {
            return Err(StorageError::CorruptDirectory {
                path,
                detail: format!(
                    "run header ({entries} entries, geometry ({keyword_len}, {payload_len})) \
                     disagrees with the spill manifest ({} entries, ({K}, {P}))",
                    info.entries
                ),
            });
        }
        Ok(Self {
            path,
            reader,
            remaining: entries,
        })
    }

    /// The next entry, or `None` once the run is exhausted.
    fn next_entry(&mut self) -> Result<Option<SpillEntry<K, P>>, StorageError> {
        if self.remaining == 0 {
            return Ok(None);
        }
        let mut keyword = [0u8; K];
        let mut payload = [0u8; P];
        self.reader
            .read_exact(&mut keyword)
            .and_then(|()| self.reader.read_exact(&mut payload))
            .map_err(|e| io_err(&self.path, e))?;
        self.remaining -= 1;
        Ok(Some((keyword, payload)))
    }
}

/// Decoder-robustness hook (`tests/decoder_robustness.rs`,
/// `tests/golden_formats.rs`): decodes `dir`'s spill manifest and the
/// header of every run it lists, and returns what the encoders map the
/// decoded values back to — the manifest first, then one header per run.
#[doc(hidden)]
pub fn recode_spill_dir<const K: usize, const P: usize>(
    dir: &Path,
    order: SpillOrder,
) -> Result<Vec<Vec<u8>>, StorageError> {
    let meta = read_spill_meta::<K, P>(dir, order)?;
    let mut files = vec![spill_meta::<K, P>(meta.order, &meta.runs).into_bytes()];
    for (run, info) in meta.runs.iter().enumerate() {
        let reader = RunReader::<K, P>::open(dir, run, info, 4 << 10)?;
        files.push(run_header::<K, P>(reader.remaining).into_bytes());
    }
    Ok(files)
}

/// One head-of-run entry in the merge heap.
struct HeapEntry<const K: usize, const P: usize> {
    keyword: [u8; K],
    payload: [u8; P],
    run: usize,
    /// Whether the payload participates in the order (see [`SpillOrder`]).
    full: bool,
}

impl<const K: usize, const P: usize> Ord for HeapEntry<K, P> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.keyword
            .cmp(&other.keyword)
            .then_with(|| {
                if self.full {
                    self.payload.cmp(&other.payload)
                } else {
                    Ordering::Equal
                }
            })
            // The run-index tie-break is what makes the ByKeyword merge
            // stable (runs are numbered in arrival order).
            .then_with(|| self.run.cmp(&other.run))
    }
}

impl<const K: usize, const P: usize> PartialOrd for HeapEntry<K, P> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<const K: usize, const P: usize> PartialEq for HeapEntry<K, P> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl<const K: usize, const P: usize> Eq for HeapEntry<K, P> {}

// ---------------------------------------------------------------------------
// Shard sinks
// ---------------------------------------------------------------------------

/// One shard's scatter state during pass 2 of an on-disk build: bounded
/// in-memory frames, overflowing into append-only stage files.
struct StageShard {
    entries: u64,
    region_len: u64,
    /// Buffered 20-byte `(label, ciphertext length)` frames.
    dir_buf: Vec<u8>,
    /// Buffered ciphertext bytes, parallel to `dir_buf`.
    region_buf: Vec<u8>,
    /// Whether any frames have already overflowed to the stage files.
    staged: bool,
}

/// Where merged, encrypted entries land: in-memory arenas or staged shard
/// files that finalize into the exact serialized shard format.
enum Sink<'a> {
    /// In-memory backend: one growing arena per shard.
    Memory { shards: Vec<EncryptedIndex> },
    /// On-disk backend: per-shard bounded buffers spilling to stage files
    /// in the spill directory, finalized into `shard-NNNNN.shd`.
    Disk {
        dir: &'a Path,
        spill: &'a Path,
        flush_bytes: usize,
        shards: Vec<StageShard>,
    },
}

impl<'a> Sink<'a> {
    fn new(
        config: &'a StorageConfig,
        spill: &'a Path,
        budget: &BuildBudget,
    ) -> Result<Self, StorageError> {
        let count = 1usize << config.shard_bits;
        match &config.backend {
            StorageBackend::InMemory => Ok(Sink::Memory {
                shards: (0..count).map(|_| EncryptedIndex::default()).collect(),
            }),
            StorageBackend::OnDisk(dir) => {
                // Same commit discipline as the in-RAM on-disk build: the
                // index manifest goes in first, shard files follow.
                write_manifest(dir, config.shard_bits)?;
                // A quarter of the budget across all shard buffers, floored
                // so very high shard counts degrade to more frequent
                // appends rather than per-byte syscalls.
                let flush_bytes = (budget.memory_bytes / 4 / count).clamp(4 << 10, 1 << 20);
                Ok(Sink::Disk {
                    dir,
                    spill,
                    flush_bytes,
                    shards: (0..count)
                        .map(|_| StageShard {
                            entries: 0,
                            region_len: 0,
                            dir_buf: Vec::new(),
                            region_buf: Vec::new(),
                            staged: false,
                        })
                        .collect(),
                })
            }
        }
    }

    /// Accepts the next entry in global (keyword, counter) order.
    fn accept(&mut self, bits: u32, label: Label, ciphertext: &[u8]) -> Result<(), StorageError> {
        let shard = shard_of_label(&label, bits);
        match self {
            Sink::Memory { shards } => {
                shards[shard].append_entry(label, ciphertext);
                Ok(())
            }
            Sink::Disk {
                spill,
                flush_bytes,
                shards,
                ..
            } => {
                let stage = &mut shards[shard];
                stage.dir_buf.extend_from_slice(&label);
                stage
                    .dir_buf
                    .extend_from_slice(&(ciphertext.len() as u32).to_le_bytes());
                stage.region_buf.extend_from_slice(ciphertext);
                stage.entries += 1;
                stage.region_len += ciphertext.len() as u64;
                if stage.dir_buf.len() + stage.region_buf.len() >= *flush_bytes {
                    stage_overflow(spill, shard, stage)?;
                }
                Ok(())
            }
        }
    }

    /// Finalizes every shard and assembles the index.
    fn finish(self, bits: u32, cache_budget: Option<usize>) -> Result<ShardedIndex, StorageError> {
        match self {
            Sink::Memory { shards } => Ok(ShardedIndex::from_parts(
                bits,
                shards.into_iter().map(Shard::Memory).collect(),
            )),
            Sink::Disk {
                dir, spill, shards, ..
            } => {
                let cache = cache_budget.map(|budget| std::sync::Arc::new(BlockCache::new(budget)));
                let mut out = Vec::with_capacity(shards.len());
                for (i, stage) in shards.into_iter().enumerate() {
                    let path = dir.join(shard_file_name(i));
                    finalize_shard(&path, spill, i, stage)?;
                    let shard = match &cache {
                        Some(cache) => {
                            FileShard::open_cached(&path, i as u32, std::sync::Arc::clone(cache))?
                        }
                        None => FileShard::open(&path)?,
                    };
                    out.push(Shard::File(shard));
                }
                Ok(ShardedIndex::from_parts(bits, out))
            }
        }
    }
}

/// Appends a shard's buffered frames to its stage files and clears the
/// buffers.
fn stage_overflow(spill: &Path, shard: usize, stage: &mut StageShard) -> Result<(), StorageError> {
    formats::append(&spill.join(stage_dir_name(shard)), &stage.dir_buf)?;
    formats::append(&spill.join(stage_region_name(shard)), &stage.region_buf)?;
    stage.dir_buf.clear();
    stage.region_buf.clear();
    stage.staged = true;
    Ok(())
}

/// Emits the 24-byte directory entries of `entries` staged 20-byte
/// `(label, ciphertext length)` frames: offsets are the running length
/// sum, exactly the in-RAM layout.
fn write_directory(
    frames: &mut impl Read,
    entries: u64,
    writer: &mut impl Write,
) -> io::Result<()> {
    let mut running = 0u32;
    let mut label = [0u8; LABEL_LEN];
    let mut len = [0u8; 4];
    for _ in 0..entries {
        frames.read_exact(&mut label)?;
        frames.read_exact(&mut len)?;
        writer.write_all(&label)?;
        writer.write_all(&running.to_le_bytes())?;
        writer.write_all(&len)?;
        running += u32::from_le_bytes(len);
    }
    Ok(())
}

/// Writes shard `shard`'s final serialized file from its staged frames —
/// header, label directory (offsets as the running length sum, exactly the
/// in-RAM layout), then the ciphertext region — and removes the stage
/// files. Small shards that never overflowed serialize straight from
/// their buffers.
fn finalize_shard(
    path: &Path,
    spill: &Path,
    shard: usize,
    mut stage: StageShard,
) -> Result<(), StorageError> {
    assert!(
        stage.region_len <= u32::MAX as u64,
        "arena limited to 4 GiB per index; shard the dataset first"
    );
    if stage.staged {
        // Flush the tail so the stage files hold everything.
        stage_overflow(spill, shard, &mut stage)?;
    }
    let dir_tmp = spill.join(stage_dir_name(shard));
    let region_tmp = spill.join(stage_region_name(shard));
    write_file_atomic(path, |writer| {
        write_shard_header(writer, stage.entries, stage.region_len)?;
        if stage.staged {
            let mut frames = BufReader::new(File::open(&dir_tmp)?);
            write_directory(&mut frames, stage.entries, writer)?;
            io::copy(&mut BufReader::new(File::open(&region_tmp)?), writer)?;
        } else {
            write_directory(&mut stage.dir_buf.as_slice(), stage.entries, writer)?;
            writer.write_all(&stage.region_buf)?;
        }
        Ok(())
    })?;
    let _ = formats::remove_file(&dir_tmp);
    let _ = formats::remove_file(&region_tmp);
    Ok(())
}

// ---------------------------------------------------------------------------
// The build driver
// ---------------------------------------------------------------------------

/// Monotonic counter naming the spill directories of in-memory builds.
static SPILL_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Where this build spills: inside the index directory for on-disk
/// backends, under the budget's spill root (or the OS temp dir) otherwise.
fn spill_dir_for(config: &StorageConfig, budget: &BuildBudget) -> PathBuf {
    match &config.backend {
        StorageBackend::OnDisk(dir) => dir.join(SPILL_DIR),
        StorageBackend::InMemory => {
            let root = budget.spill_root.clone().unwrap_or_else(std::env::temp_dir);
            let n = SPILL_COUNTER.fetch_add(1, AtomicOrdering::Relaxed);
            root.join(format!("rsse-spill-{}-{n}", std::process::id()))
        }
    }
}

/// External-memory equivalent of the grouped fixed-stride build
/// (`grouped_fixed_index_stored` in `rsse-core`): sorts `(keyword,
/// payload)` entries on disk, then per keyword group applies the keyed
/// shuffle, derives the trapdoor from `key`, and encrypts — byte-identical
/// output to the in-RAM path at bounded peak RSS.
pub fn build_index_fixed_external<const K: usize, const P: usize, R: RngCore + CryptoRng>(
    key: &SseKey,
    shuffle_key: &rsse_crypto::Key,
    entries: impl IntoIterator<Item = ([u8; K], [u8; P])>,
    config: &StorageConfig,
    rng: &mut R,
) -> Result<ShardedIndex, StorageError> {
    let shuffle = rsse_crypto::Prf::new(shuffle_key);
    build_index_external_with(
        entries,
        SpillOrder::ByKeywordAndPayload,
        |keyword: &[u8; K], payloads: &mut Vec<[u8; P]>| {
            rsse_crypto::permute::keyed_shuffle(&shuffle, keyword, payloads);
            SseScheme::trapdoor(key, keyword)
        },
        config,
        rng,
    )
}

/// The generic external-memory `BuildIndex`: spill, merge, and hand each
/// keyword group to `group_token`, which may reorder the payloads (keyed
/// shuffle) and must return the group's [`SearchToken`]. Schemes whose
/// tokens come from a delegatable PRF rather than the SSE master key
/// (Constant-BRC/URC) use this directly.
///
/// RNG consumption is one 32-byte nonce seed per keyword group, drawn in
/// merged keyword order — exactly the in-RAM build's sequence, which is
/// what makes the output bit-identical for the same `rng` stream.
pub fn build_index_external_with<const K: usize, const P: usize, R, F>(
    entries: impl IntoIterator<Item = ([u8; K], [u8; P])>,
    order: SpillOrder,
    mut group_token: F,
    config: &StorageConfig,
    rng: &mut R,
) -> Result<ShardedIndex, StorageError>
where
    R: RngCore + CryptoRng,
    F: FnMut(&[u8; K], &mut Vec<[u8; P]>) -> SearchToken,
{
    let bits = config.shard_bits;
    assert!(
        bits <= MAX_SHARD_BITS,
        "shard bits {bits} exceeds MAX_SHARD_BITS ({MAX_SHARD_BITS})"
    );
    let budget = config.build_budget.clone().unwrap_or_default();
    let spill = spill_dir_for(config, &budget);
    formats::create_dir_all(&spill)?;
    // Heal leftovers of a previously crashed build before reusing the
    // directory: stale runs would shadow this build's manifest, and stale
    // stage files would corrupt the append-only scatter. Foreign files
    // survive the sweep (and the directory, therefore, survives too).
    sweep_stale_spill_files(&spill);

    let built = (|| {
        // Pass 1: stream entries into sorted runs.
        let mut spiller = Spiller::<K, P>::new(&spill, order, budget.run_entry_limit(K + P));
        for entry in entries {
            spiller.push(entry)?;
        }
        spiller.finish()?;

        // Pass 2: k-way merge the runs back, group, encrypt, scatter.
        let meta = read_spill_meta::<K, P>(&spill, order)?;
        let run_buffer =
            (budget.memory_bytes / 4 / meta.runs.len().max(1)).clamp(16 << 10, 1 << 20);
        let mut readers: Vec<RunReader<K, P>> = meta
            .runs
            .iter()
            .enumerate()
            .map(|(i, info)| RunReader::open(&spill, i, info, run_buffer))
            .collect::<Result<_, _>>()?;
        let full = meta.order == SpillOrder::ByKeywordAndPayload;
        let mut heap = BinaryHeap::with_capacity(readers.len());
        for (run, reader) in readers.iter_mut().enumerate() {
            if let Some((keyword, payload)) = reader.next_entry()? {
                heap.push(Reverse(HeapEntry {
                    keyword,
                    payload,
                    run,
                    full,
                }));
            }
        }

        let mut sink = Sink::new(config, &spill, &budget)?;
        let batch_bytes_limit = budget.encrypt_batch_bytes();
        let mut batch: EncryptBatch<P> = Vec::new();
        let mut batch_bytes = 0usize;
        let mut group: Option<([u8; K], Vec<[u8; P]>)> = None;
        let mut merged = 0u64;

        // Closes the current keyword group: shuffle + token + nonce seed
        // (drawn here, sequentially, in merged keyword order).
        let mut close_group = |group: ([u8; K], Vec<[u8; P]>),
                               batch: &mut EncryptBatch<P>,
                               batch_bytes: &mut usize,
                               rng: &mut R| {
            let (keyword, mut payloads) = group;
            let token = group_token(&keyword, &mut payloads);
            let mut seed = [0u8; KEY_LEN];
            rng.fill_bytes(&mut seed);
            *batch_bytes += payloads.len() * StreamCipher::ciphertext_len(P);
            batch.push((token, payloads, seed));
        };
        // Encrypts a full batch in parallel and scatters the chunks in
        // order — entries reach each shard in global (keyword, counter)
        // order, same as the in-RAM scatter.
        let flush_batch = |batch: &mut EncryptBatch<P>,
                           batch_bytes: &mut usize,
                           sink: &mut Sink<'_>|
         -> Result<(), StorageError> {
            let chunks: Vec<_> = std::mem::take(batch)
                .into_par_iter()
                .map(|(token, payloads, seed)| {
                    encrypt_payloads(
                        &token,
                        payloads.iter().map(|p| p.as_slice()),
                        payloads.len(),
                        payloads.len() * StreamCipher::ciphertext_len(P),
                        seed,
                    )
                })
                .collect();
            *batch_bytes = 0;
            for chunk in chunks {
                for (label, (offset, len)) in chunk.labels.iter().zip(&chunk.spans) {
                    let span = &chunk.buf[*offset as usize..(*offset + *len) as usize];
                    sink.accept(bits, *label, span)?;
                }
            }
            Ok(())
        };

        while let Some(Reverse(head)) = heap.pop() {
            if let Some((keyword, payload)) = readers[head.run].next_entry()? {
                heap.push(Reverse(HeapEntry {
                    keyword,
                    payload,
                    run: head.run,
                    full,
                }));
            }
            merged += 1;
            match &mut group {
                Some((keyword, payloads)) if *keyword == head.keyword => {
                    payloads.push(head.payload);
                }
                _ => {
                    if let Some(done) = group.take() {
                        close_group(done, &mut batch, &mut batch_bytes, rng);
                        if batch_bytes >= batch_bytes_limit {
                            flush_batch(&mut batch, &mut batch_bytes, &mut sink)?;
                        }
                    }
                    group = Some((head.keyword, vec![head.payload]));
                }
            }
        }
        if let Some(done) = group.take() {
            close_group(done, &mut batch, &mut batch_bytes, rng);
        }
        flush_batch(&mut batch, &mut batch_bytes, &mut sink)?;
        if merged != meta.total_entries {
            return Err(StorageError::CorruptDirectory {
                path: spill.join(SPILL_MANIFEST_FILE),
                detail: format!(
                    "merged {merged} entries but the spill manifest records {}",
                    meta.total_entries
                ),
            });
        }
        sink.finish(bits, config.cache_budget)
    })();

    match (&built, &config.backend) {
        // cleanup_partial_index sweeps the embedded spill directory.
        (Err(_), StorageBackend::OnDisk(dir)) => {
            crate::storage::cleanup_partial_index(dir, 1usize << bits)
        }
        _ => sweep_spill_dir(&spill),
    }
    built
}

/// Start-of-build variant of [`sweep_spill_dir`]: removes stale recognized
/// files but keeps the directory (this build is about to use it).
fn sweep_stale_spill_files(dir: &Path) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if is_spill_file(name) {
            let _ = formats::remove_file(&entry.path());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pibas::SseScheme;
    use crate::storage::test_support::TempDir;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha20Rng;
    use rsse_crypto::Key;
    use std::cell::RefCell;

    /// The 13-byte `[tag, level, index]` keyword layout the range schemes
    /// feed the grouped build, so the tests sort exactly what they sort.
    fn keyword(level: u32, index: u64) -> [u8; 13] {
        let mut k = [0u8; 13];
        k[0] = b'B';
        k[1..5].copy_from_slice(&level.to_le_bytes());
        k[5..13].copy_from_slice(&index.to_le_bytes());
        k
    }

    /// The in-RAM reference: `grouped_lists` from `rsse-core` replicated
    /// inline (sort, group, keyed shuffle), then the streaming stored build.
    fn in_ram_reference(
        key: &SseKey,
        shuffle_key: &Key,
        mut entries: Vec<([u8; 13], [u8; 8])>,
        config: &StorageConfig,
        rng: &mut ChaCha20Rng,
    ) -> ShardedIndex {
        entries.sort_unstable();
        let mut lists: Vec<(Vec<u8>, Vec<[u8; 8]>)> = Vec::new();
        for (keyword, payload) in entries {
            match lists.last_mut() {
                Some((last, payloads)) if last.as_slice() == keyword.as_slice() => {
                    payloads.push(payload);
                }
                _ => lists.push((keyword.to_vec(), vec![payload])),
            }
        }
        let shuffle = rsse_crypto::Prf::new(shuffle_key);
        for (keyword, payloads) in lists.iter_mut() {
            rsse_crypto::permute::keyed_shuffle(&shuffle, keyword, payloads);
        }
        SseScheme::build_index_fixed_stored(key, &lists, config, rng).unwrap()
    }

    fn dirs_equal(a: &Path, b: &Path) -> bool {
        let list = |dir: &Path| -> Vec<String> {
            let mut names: Vec<String> = fs::read_dir(dir)
                .unwrap()
                .map(|e| e.unwrap().file_name().into_string().unwrap())
                .collect();
            names.sort();
            names
        };
        let names = list(a);
        if names != list(b) {
            return false;
        }
        names
            .iter()
            .all(|name| fs::read(a.join(name)).unwrap() == fs::read(b.join(name)).unwrap())
    }

    /// Converts raw generated triples to entries over a small keyword
    /// space (collisions guaranteed); the generated vectors are long enough
    /// to spill several runs at the minimum run size.
    fn to_entries(raw: Vec<(u32, u64, u64)>) -> Vec<([u8; 13], [u8; 8])> {
        raw.into_iter()
            .map(|(level, index, payload)| (keyword(level, index), payload.to_le_bytes()))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// The byte-identity contract: for any entries, seed, budget, and
        /// shard count, the external build produces bit-identical shard
        /// files to the in-RAM build — on both backends.
        #[test]
        fn external_build_is_byte_identical(
            raw in proptest::collection::vec((0u32..5, 0u64..4, any::<u64>()), 0..1400),
            seed in any::<u64>(),
            shard_bits in 0u32..3,
            budget_bytes in 1usize..(64 << 10),
        ) {
            let entries = to_entries(raw);
            let mut key_rng = ChaCha20Rng::seed_from_u64(seed ^ 0x5eed);
            let key = SseScheme::setup(&mut key_rng);
            let shuffle_key = Key::generate(&mut key_rng);
            let spill_root = TempDir::new("ext-prop-spill");
            let budget = BuildBudget::with_memory(budget_bytes)
                .with_spill_root(spill_root.path());

            // In-memory backend: build both ways, serialize, compare bytes.
            let ref_idx = in_ram_reference(
                &key,
                &shuffle_key,
                entries.clone(),
                &StorageConfig::in_memory(shard_bits),
                &mut ChaCha20Rng::seed_from_u64(seed),
            );
            let ext_idx = build_index_fixed_external(
                &key,
                &shuffle_key,
                entries.iter().copied(),
                &StorageConfig::in_memory(shard_bits).with_build_budget(budget.clone()),
                &mut ChaCha20Rng::seed_from_u64(seed),
            )
            .unwrap();
            let ref_dir = TempDir::new("ext-prop-ref");
            let ext_dir = TempDir::new("ext-prop-ext");
            ref_idx.save_to_dir(ref_dir.path()).unwrap();
            ext_idx.save_to_dir(ext_dir.path()).unwrap();
            prop_assert!(dirs_equal(ref_dir.path(), ext_dir.path()));
            // The in-memory spill directory is swept away on success.
            prop_assert_eq!(spill_root.subdir_count(), 0);

            // On-disk backend: both streaming builds write directly; the
            // index directories must match file for file.
            let disk_ref = TempDir::new("ext-prop-dref");
            let disk_ext = TempDir::new("ext-prop-dext");
            in_ram_reference(
                &key,
                &shuffle_key,
                entries.clone(),
                &StorageConfig::on_disk(shard_bits, disk_ref.path()),
                &mut ChaCha20Rng::seed_from_u64(seed),
            );
            build_index_fixed_external(
                &key,
                &shuffle_key,
                entries.iter().copied(),
                &StorageConfig::on_disk(shard_bits, disk_ext.path())
                    .with_build_budget(budget),
                &mut ChaCha20Rng::seed_from_u64(seed),
            )
            .unwrap();
            prop_assert!(dirs_equal(disk_ref.path(), disk_ext.path()));
        }
    }

    /// `ByKeyword` must preserve arrival order across run boundaries: the
    /// stable per-run sort plus the merge's run-index tie-break reproduce
    /// the insertion-order lists of an ordered-map grouping.
    #[test]
    fn by_keyword_merge_preserves_arrival_order() {
        let mut rng = ChaCha20Rng::seed_from_u64(3);
        let key = SseScheme::setup(&mut rng);
        // Two interleaved keywords, payloads in a deliberately non-sorted
        // arrival order, enough entries for three runs at the minimum size.
        let entries: Vec<([u8; 8], [u8; 8])> = (0..1300u64)
            .map(|i| {
                let kw = (i % 2).to_be_bytes();
                ((kw), (1300 - i).to_le_bytes())
            })
            .collect();
        let spill_root = TempDir::new("ext-stable-spill");
        let config = StorageConfig::in_memory(0)
            .with_build_budget(BuildBudget::with_memory(1).with_spill_root(spill_root.path()));
        let seen: RefCell<Vec<(u64, Vec<u64>)>> = RefCell::new(Vec::new());
        build_index_external_with(
            entries.iter().copied(),
            SpillOrder::ByKeyword,
            |keyword: &[u8; 8], payloads: &mut Vec<[u8; 8]>| {
                seen.borrow_mut().push((
                    u64::from_be_bytes(*keyword),
                    payloads.iter().map(|p| u64::from_le_bytes(*p)).collect(),
                ));
                SseScheme::trapdoor(&key, keyword)
            },
            &config,
            &mut rng,
        )
        .unwrap();
        let seen = seen.into_inner();
        assert_eq!(seen.len(), 2, "one group per keyword");
        for (kw, payloads) in seen {
            // Arrival order for keyword kw: 1300-kw, 1298-kw, … descending.
            let expected: Vec<u64> = (0..1300u64)
                .filter(|i| i % 2 == kw)
                .map(|i| 1300 - i)
                .collect();
            assert_eq!(payloads, expected, "keyword {kw} lost arrival order");
        }
    }

    /// Empty input is a valid build: no runs, an empty manifest, and an
    /// index with the requested shard count, identical to the in-RAM one.
    #[test]
    fn empty_entry_stream_builds_empty_index() {
        let mut rng = ChaCha20Rng::seed_from_u64(9);
        let key = SseScheme::setup(&mut rng);
        let shuffle_key = Key::generate(&mut rng);
        let spill_root = TempDir::new("ext-empty-spill");
        let config = StorageConfig::in_memory(2)
            .with_build_budget(BuildBudget::with_memory(1).with_spill_root(spill_root.path()));
        let idx = build_index_fixed_external::<13, 8, _>(
            &key,
            &shuffle_key,
            std::iter::empty(),
            &config,
            &mut ChaCha20Rng::seed_from_u64(1),
        )
        .unwrap();
        assert_eq!(idx.len(), 0);
        assert_eq!(idx.shard_count(), 4);
        let reference = in_ram_reference(
            &key,
            &shuffle_key,
            Vec::new(),
            &StorageConfig::in_memory(2),
            &mut ChaCha20Rng::seed_from_u64(1),
        );
        let a = TempDir::new("ext-empty-a");
        let b = TempDir::new("ext-empty-b");
        idx.save_to_dir(a.path()).unwrap();
        reference.save_to_dir(b.path()).unwrap();
        assert!(dirs_equal(a.path(), b.path()));
        assert_eq!(spill_root.subdir_count(), 0);
    }

    /// Shared scaffolding of the crash tests: build once uninterrupted
    /// with the gate recording (the reference bytes and the op log), then
    /// once crashing right after the op that commits `committed` — which
    /// must be an op in the log — assert debris + foreign-file survival,
    /// then build again and require byte convergence with the reference.
    fn crash_and_converge(committed: String) {
        let mut rng = ChaCha20Rng::seed_from_u64(11);
        let key = SseScheme::setup(&mut rng);
        let shuffle_key = Key::generate(&mut rng);
        let entries: Vec<([u8; 13], [u8; 8])> = (0..1400u64)
            .map(|i| (keyword((i % 3) as u32, i % 7), i.to_le_bytes()))
            .collect();
        let budget = BuildBudget::with_memory(1);
        let build = |dir: &Path, seed: u64| {
            build_index_fixed_external(
                &key,
                &shuffle_key,
                entries.iter().copied(),
                &StorageConfig::on_disk(2, dir).with_build_budget(budget.clone()),
                &mut ChaCha20Rng::seed_from_u64(seed),
            )
        };

        let reference = TempDir::new("ext-kill-ref");
        let recording = formats::arm_crash(reference.path(), None);
        build(reference.path(), 42).unwrap();
        let log = recording.trace();
        drop(recording);
        let at = log
            .iter()
            .position(|(op, path)| *op == "write" && path.ends_with(&committed))
            .unwrap_or_else(|| panic!("no op commits {committed}: {log:?}"))
            + 1;

        let dir = TempDir::new("ext-kill");
        // A foreign file inside the spill directory: neither the crashed
        // build's skipped cleanup nor the restart's sweep may touch it.
        let spill = dir.path().join(SPILL_DIR);
        fs::create_dir_all(&spill).unwrap();
        let foreign = spill.join("operator-notes.txt");
        fs::write(&foreign, b"do not delete").unwrap();

        let crash = formats::arm_crash(dir.path(), Some(formats::Crash { at, torn: None }));
        let err = build(dir.path(), 42).unwrap_err();
        assert!(matches!(err, StorageError::Io { .. }), "{err:?}");
        drop(crash);
        // The crash leaves debris behind (spill dir and, for the later
        // windows, partial index files).
        assert!(spill.exists(), "crash must not clean up");
        if committed == run_file_name(0) {
            assert!(spill.join(run_file_name(0)).exists());
            assert!(!spill.join(SPILL_MANIFEST_FILE).exists());
        } else if committed == SPILL_MANIFEST_FILE {
            assert!(spill.join(SPILL_MANIFEST_FILE).exists());
        } else {
            assert!(dir.path().join(crate::storage::shard_file_name(0)).exists());
        }
        assert_eq!(fs::read(&foreign).unwrap(), b"do not delete");

        // The restarted build heals the debris and converges byte-for-byte.
        build(dir.path(), 42).unwrap();
        assert_eq!(fs::read(&foreign).unwrap(), b"do not delete");
        // Only the foreign file keeps the spill directory alive.
        let leftover: Vec<String> = fs::read_dir(&spill)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(leftover, vec!["operator-notes.txt".to_string()]);
        fs::remove_file(&foreign).unwrap();
        fs::remove_dir(&spill).unwrap();
        assert!(dirs_equal(reference.path(), dir.path()));
    }

    /// A `spill.meta` whose `run_count` is far past what the file holds
    /// must fail typed: the count is validated against the bytes left
    /// before it sizes anything (it used to overflow the length check and
    /// panic).
    #[test]
    fn spill_meta_with_an_absurd_run_count_is_rejected_typed() {
        let dir = TempDir::new("ext-spm-count");
        // Header only: magic, version, order 0, geometry (13, 8),
        // run_count = 2^60, total_entries = 0 — and no run table.
        let mut meta = Vec::new();
        meta.extend_from_slice(&SPILL_MANIFEST_MAGIC);
        meta.extend_from_slice(&1u32.to_le_bytes());
        meta.extend_from_slice(&0u32.to_le_bytes());
        meta.extend_from_slice(&13u32.to_le_bytes());
        meta.extend_from_slice(&8u32.to_le_bytes());
        meta.extend_from_slice(&(1u64 << 60).to_le_bytes());
        meta.extend_from_slice(&0u64.to_le_bytes());
        assert_eq!(meta.len() as u64, SPILL_MANIFEST_HEADER_LEN);
        fs::write(dir.path().join(SPILL_MANIFEST_FILE), &meta).unwrap();
        let result = read_spill_meta::<13, 8>(dir.path(), SpillOrder::ByKeywordAndPayload);
        assert!(
            matches!(result, Err(StorageError::Truncated { .. })),
            "{:?}",
            result.err()
        );
    }

    /// A run file whose own header claims more entries than its manifest
    /// row fails typed before a single entry is read.
    #[test]
    fn run_header_disagreeing_with_its_manifest_row_is_rejected_typed() {
        let dir = TempDir::new("ext-spl-count");
        let mut spiller = Spiller::<13, 8>::new(dir.path(), SpillOrder::ByKeywordAndPayload, 4);
        for i in 0..4u64 {
            spiller.push((keyword(0, i), i.to_le_bytes())).unwrap();
        }
        spiller.finish().unwrap();
        let meta = read_spill_meta::<13, 8>(dir.path(), SpillOrder::ByKeywordAndPayload).unwrap();
        assert_eq!(meta.runs.len(), 1);
        assert!(RunReader::<13, 8>::open(dir.path(), 0, &meta.runs[0], 4 << 10).is_ok());

        let path = dir.path().join(run_file_name(0));
        let mut run = fs::read(&path).unwrap();
        run[16..24].copy_from_slice(&(1u64 << 60).to_le_bytes());
        fs::write(&path, &run).unwrap();
        let result = RunReader::<13, 8>::open(dir.path(), 0, &meta.runs[0], 4 << 10);
        assert!(
            matches!(result, Err(StorageError::CorruptDirectory { .. })),
            "{:?}",
            result.err()
        );
    }

    #[test]
    fn killed_mid_spill_restart_converges() {
        crash_and_converge(run_file_name(0));
    }

    #[test]
    fn killed_after_spill_restart_converges() {
        crash_and_converge(SPILL_MANIFEST_FILE.to_string());
    }

    #[test]
    fn killed_mid_shard_write_restart_converges() {
        crash_and_converge(crate::storage::shard_file_name(0));
    }
}
