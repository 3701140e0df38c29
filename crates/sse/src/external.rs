//! The fixed-stride `BuildIndex`: one pipeline from a stream of `(keyword,
//! payload)` entries to the shards of an encrypted index, in RAM while the
//! entries fit a [`BuildBudget`](crate::storage::BuildBudget) (or there is
//! none), through sorted runs on disk once they do not.
//!
//! ```text
//!  1 source        entries ──▶ buffer ──sort──▶ the sorted stream          (sequential)
//!                    │ buffer reached the budget's run limit?
//!                    └─▶ run-NNNNN.spl … ──k-way merge──┘
//!  2 group + seed  walk a batch of the stream: close each keyword group
//!                  as a range, draw its 32-byte nonce seed from the
//!                  caller's RNG, in keyword order                          (sequential)
//!  3 batch         ≈ 64 Ki entries of whole groups, cut into parts;
//!                  per part: keyed shuffle → trapdoor → label expansion
//!                  → list encryption, appended to the part's two flat
//!                  buffers; then the labels bucketed by shard              (parallel by part)
//!  4 sink          per shard: append the batch's entries in (part, index)
//!                  order to a pre-sized arena + label table, or to frame
//!                  buffers that finalize into shard-NNNNN.shd (overflowing
//!                  to stage-*.tmp under a budget)                          (parallel by shard)
//! ```
//!
//! **What is sequential, and why.** The sort is one `sort_unstable` (or a
//! stable sort by keyword, see [`SpillOrder`]) of flat arrays. The seed
//! draws are sequential because they are the build's only use of the
//! caller's RNG: drawing them in keyword order is what makes the output a
//! function of (keys, RNG stream) alone — the same bytes for every budget,
//! backend, batch size and thread count. Everything between a seed and a
//! shard is a pure function of (keys, group, seed) and runs on all cores.
//!
//! **Memory.** Nothing is allocated per keyword: a part's groups share two
//! flat buffers (labels, fixed-stride ciphertexts) and one index vector,
//! and a batch is dropped as soon as the sinks have copied it. What is
//! alive at the peak is the sorted buffer (or, when spilling, one run
//! buffer of at most half the budget), one batch, and the sinks — which are
//! sized once, from the stream's entry count: labels are PRF outputs, so
//! each of `2^bits` shards gets `total / 2^bits` entries plus a few percent
//! (`shard_capacity`), and neither an arena nor a label table regrows.
//! `tests/build_memory.rs` holds a build to 3.5 × its index under a
//! peak-tracking allocator.
//!
//! **Byte identity.** Sorted in RAM or merged from runs, the stream has the
//! same order, so the seeds are drawn in the same sequence, the keyed
//! shuffle sees the same payload order, and entries reach each shard in the
//! global (keyword, counter) order. The sequential oracle over an
//! [`SseDatabase`](crate::SseDatabase) of the same lists
//! ([`pibas::reference::build_stored`](crate::pibas::reference::build_stored))
//! shares none of this code: the batteries at the bottom of this module
//! (and `tests/external_build.rs` at the scheme level) pin the two byte for
//! byte — tables, arenas, shard files and RNG state — for no budget,
//! budgets the corpus fits, and budgets forcing one, two and many runs, on
//! both backends, with corpora on every batch edge.
//!
//! **Filesystem and crash safety.** A build that fits does no filesystem
//! work beyond its index files (an in-memory one: none). The spill
//! directory ([`SPILL_DIR`] inside the index directory for on-disk builds,
//! a unique temp directory otherwise) is created at the first run flush or
//! the first stage overflow, and swept of a crashed build's leftovers right
//! then. Its files follow the workspace's `.tmp` + rename commit protocol.
//! A run is raw sorted `(keyword, payload)` rows with no header: only the
//! process that wrote it reads it back, against the run table it holds in
//! memory, so a run outlives its build only as debris. Cleanup —
//! at first use, after success, after a failure, and from
//! [`cleanup_partial_index`](crate::storage::cleanup_partial_index) — only
//! ever removes *recognized* spill file names and then the directory if
//! that left it empty, so foreign files can never be collateral damage.
//! The index directory keeps the commit discipline of a save (manifest
//! first, every shard file atomic). The build has no crash hooks: every
//! file it creates, appends to or removes goes through [`formats`], whose
//! gate `tests/crash_replay.rs` arms to kill a spilling build at every op
//! and require the restarted build to converge byte for byte. Stage
//! overflows happen after a batch's parallel step, in shard order, and a
//! build that staged finalizes its shards in order too, so a spilling
//! build's op log is deterministic; shards still in their buffers are
//! written and reopened in parallel.

use crate::formats::{self, io_err, write_file_atomic};
use crate::pibas::{encrypt_list_into, EncryptedIndex, Label, SearchToken, LABEL_LEN};
use crate::sharded::{shard_of_label, Shard, ShardedIndex, MAX_SHARD_BITS};
use crate::storage::{
    serve_shards, shard_file_name, write_manifest, write_shard_header, ShardLayout, StorageBackend,
    StorageConfig, StorageError,
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

/// One fixed-stride spill entry: keyword plus payload.
type SpillEntry<const K: usize, const P: usize> = ([u8; K], [u8; P]);

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
/// Cleanup removes exactly these and nothing else. `spill.meta` is the run
/// manifest earlier builds committed; a crashed one may have left it.
fn is_spill_file(name: &str) -> bool {
    let base = name.strip_suffix(".tmp").unwrap_or(name);
    if base == "spill.meta" {
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

// ---------------------------------------------------------------------------
// Stage 1 — source: a sorted buffer, spilled to runs only past the run limit
// ---------------------------------------------------------------------------

/// Monotonic counter naming the spill directories of in-memory builds.
static SPILL_COUNTER: AtomicU64 = AtomicU64::new(0);

/// The spill directory of one build: inside the index directory for
/// on-disk backends, under the budget's spill root (or the OS temp dir)
/// otherwise. Nothing exists on disk until [`create`](Self::create) runs —
/// at the first run flush or the first stage overflow — so a build that
/// fits its budget never touches it.
struct SpillDir {
    path: PathBuf,
    created: bool,
}

impl SpillDir {
    fn of(config: &StorageConfig) -> Self {
        let path = match &config.backend {
            StorageBackend::OnDisk(dir) => dir.join(SPILL_DIR),
            StorageBackend::InMemory => {
                let root = config.build_budget.as_ref();
                let root = root.and_then(|budget| budget.spill_root.clone());
                let n = SPILL_COUNTER.fetch_add(1, AtomicOrdering::Relaxed);
                root.unwrap_or_else(std::env::temp_dir)
                    .join(format!("rsse-spill-{}-{n}", std::process::id()))
            }
        };
        Self {
            path,
            created: false,
        }
    }

    /// The directory, created on first use. Leftovers of a previously
    /// crashed build are healed before it is reused: stale stage files
    /// would corrupt the append-only scatter, and stale runs are debris no
    /// run table names. Foreign files survive the sweep (and the
    /// directory, therefore, survives too).
    fn create(&mut self) -> Result<&Path, StorageError> {
        if !self.created {
            formats::create_dir_all(&self.path)?;
            sweep_stale_spill_files(&self.path);
            self.created = true;
        }
        Ok(&self.path)
    }
}

/// Collects the entry stream into a buffer that is sorted in RAM and, only
/// when it reaches `limit` entries, committed as a sorted run file.
struct Spiller<'a, const K: usize, const P: usize> {
    dir: &'a mut SpillDir,
    order: SpillOrder,
    /// Entries per run (the bounded write buffer).
    limit: usize,
    buf: Vec<SpillEntry<K, P>>,
    /// Entries in each committed run, in run order: the run table the
    /// merge reads the runs back against.
    runs: Vec<u64>,
}

impl<'a, const K: usize, const P: usize> Spiller<'a, K, P> {
    fn new(dir: &'a mut SpillDir, order: SpillOrder, limit: usize) -> Self {
        Self {
            dir,
            order,
            limit,
            buf: Vec::new(),
            runs: Vec::new(),
        }
    }

    fn push(&mut self, entry: SpillEntry<K, P>) -> Result<(), StorageError> {
        self.buf.push(entry);
        if self.buf.len() >= self.limit {
            self.flush()?;
        }
        Ok(())
    }

    fn sort(&mut self) {
        match self.order {
            // Unstable is fine: equal (keyword, payload) pairs are
            // interchangeable.
            SpillOrder::ByKeywordAndPayload => self.buf.sort_unstable(),
            // Stable by keyword: arrival order within a keyword survives
            // the run sort, and the merge's run-index tie-break preserves
            // it globally.
            SpillOrder::ByKeyword => self.buf.sort_by_key(|entry| entry.0),
        }
    }

    /// Sorts the buffered entries and commits them as the next run file.
    fn flush(&mut self) -> Result<(), StorageError> {
        if self.buf.is_empty() {
            return Ok(());
        }
        self.sort();
        let path = self.dir.create()?.join(run_file_name(self.runs.len()));
        let buf = &self.buf;
        write_file_atomic(&path, |writer| {
            for (keyword, payload) in buf {
                writer.write_all(keyword)?;
                writer.write_all(payload)?;
            }
            Ok(())
        })?;
        self.runs.push(self.buf.len() as u64);
        self.buf.clear();
        Ok(())
    }

    /// Ends the stream. With no run on disk the sorted buffer *is* the
    /// source; once one exists the tail is flushed too, and the source is
    /// the k-way merge of the runs, its read buffers sized from the
    /// budget's `memory` bytes.
    fn finish(mut self, memory: usize) -> Result<Source<K, P>, StorageError> {
        if self.runs.is_empty() {
            self.sort();
            return Ok(Source::Sorted {
                entries: self.buf,
                at: 0,
            });
        }
        self.flush()?;
        Source::merge(self.dir.create()?, self.order, &self.runs, memory)
    }
}

/// Sequential reader over one committed spill run.
struct RunReader<const K: usize, const P: usize> {
    path: PathBuf,
    reader: BufReader<File>,
    remaining: u64,
}

impl<const K: usize, const P: usize> RunReader<K, P> {
    /// Opens run `run` of `entries` entries, checking its length against
    /// that row of the run table.
    fn open(dir: &Path, run: usize, entries: u64, buffer: usize) -> Result<Self, StorageError> {
        let path = dir.join(run_file_name(run));
        let io = |error| io_err(&path, error);
        let file = File::open(&path).map_err(io)?;
        let expected = entries * (K + P) as u64;
        let actual = file.metadata().map_err(io)?.len();
        if actual != expected {
            return Err(StorageError::Truncated {
                path,
                expected,
                actual,
            });
        }
        Ok(Self {
            path,
            reader: BufReader::with_capacity(buffer, file),
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

/// The sorted entry stream the later stages read, one batch at a time.
enum Source<const K: usize, const P: usize> {
    /// Nothing was spilled: the sorted buffer itself, batches are slices
    /// of it.
    Sorted {
        entries: Vec<SpillEntry<K, P>>,
        at: usize,
    },
    /// The k-way merge of the committed runs; a batch is merged into
    /// `batch` and handed out from there.
    Merge {
        /// The spill directory, named by the entry-count check.
        dir: PathBuf,
        readers: Vec<RunReader<K, P>>,
        heap: BinaryHeap<Reverse<HeapEntry<K, P>>>,
        full: bool,
        batch: Vec<SpillEntry<K, P>>,
        merged: u64,
        total: u64,
    },
}

impl<const K: usize, const P: usize> Source<K, P> {
    /// Opens the merge over the runs in `dir`, whose entry counts are
    /// `runs`, with a quarter of `memory` split across the run read
    /// buffers.
    fn merge(
        dir: &Path,
        order: SpillOrder,
        runs: &[u64],
        memory: usize,
    ) -> Result<Self, StorageError> {
        let run_buffer = (memory / 4 / runs.len().max(1)).clamp(16 << 10, 1 << 20);
        let mut readers: Vec<RunReader<K, P>> = runs
            .iter()
            .enumerate()
            .map(|(i, &entries)| RunReader::open(dir, i, entries, run_buffer))
            .collect::<Result<_, _>>()?;
        let full = order == SpillOrder::ByKeywordAndPayload;
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
        Ok(Source::Merge {
            dir: dir.to_path_buf(),
            readers,
            heap,
            full,
            batch: Vec::new(),
            merged: 0,
            total: runs.iter().sum(),
        })
    }

    /// Entries the whole stream holds — what the sinks are sized from.
    fn total_entries(&self) -> u64 {
        match self {
            Source::Sorted { entries, .. } => entries.len() as u64,
            Source::Merge { total, .. } => *total,
        }
    }

    /// The next batch: at least `limit` entries (fewer only at the end of
    /// the stream, none once it is exhausted), extended to the end of the
    /// keyword group the limit falls in, so a batch holds whole groups.
    fn next_batch(&mut self, limit: usize) -> Result<&[SpillEntry<K, P>], StorageError> {
        match self {
            Source::Sorted { entries, at } => {
                let start = *at;
                let mut end = start.saturating_add(limit).min(entries.len());
                while end > start && end < entries.len() && entries[end].0 == entries[end - 1].0 {
                    end += 1;
                }
                *at = end;
                Ok(&entries[start..end])
            }
            Source::Merge {
                dir,
                readers,
                heap,
                full,
                batch,
                merged,
                total,
            } => {
                batch.clear();
                while let Some(Reverse(head)) = heap.peek() {
                    if batch.len() >= limit && batch.last().map(|e| e.0) != Some(head.keyword) {
                        break;
                    }
                    let Reverse(head) = heap.pop().expect("peeked");
                    if let Some((keyword, payload)) = readers[head.run].next_entry()? {
                        heap.push(Reverse(HeapEntry {
                            keyword,
                            payload,
                            run: head.run,
                            full: *full,
                        }));
                    }
                    batch.push((head.keyword, head.payload));
                }
                *merged += batch.len() as u64;
                if heap.is_empty() && merged != total {
                    return Err(StorageError::CorruptDirectory {
                        path: dir.clone(),
                        detail: format!("merged {merged} entries but the runs hold {total}"),
                    });
                }
                Ok(batch.as_slice())
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Stages 2 and 3 — group + seed, then bounded flat encrypt batches
// ---------------------------------------------------------------------------

/// Entries a batch accumulates before it is encrypted and scattered
/// (whole keyword groups, so a batch ends on the group the limit falls
/// in). Large enough that the per-batch fork and the per-part buffers
/// amortize to nothing, small enough that a batch's plaintext, labels and
/// ciphertexts (~4 MiB at this size) stay cache-resident from the keyed
/// shuffle through the scatter. Under a `BuildBudget` the budget's
/// encrypt-batch share lowers it.
const BATCH_ENTRIES: usize = 64 << 10;

/// Parts a batch is cut into per worker thread: the workers pull parts
/// dynamically, and a part of singleton keywords costs several times a
/// part of the same entry count under one keyword.
const PARTS_PER_THREAD: usize = 4;

/// One keyword group of a batch: its entry range and the nonce seed drawn
/// for it.
struct Group {
    start: usize,
    end: usize,
    seed: [u8; KEY_LEN],
}

/// Stage 2: one sequential walk over a batch of the sorted stream closes
/// the keyword groups as ranges and draws each group's nonce seed, in
/// keyword order — the only consumer of the caller's RNG, and the reason
/// this walk is not parallel.
fn close_groups<const K: usize, const P: usize, R: RngCore + CryptoRng>(
    batch: &[SpillEntry<K, P>],
    rng: &mut R,
) -> Vec<Group> {
    let mut groups = Vec::new();
    let mut start = 0;
    while start < batch.len() {
        let keyword = &batch[start].0;
        let len = batch[start..]
            .iter()
            .take_while(|e| e.0 == *keyword)
            .count();
        let mut seed = [0u8; KEY_LEN];
        rng.fill_bytes(&mut seed);
        groups.push(Group {
            start,
            end: start + len,
            seed,
        });
        start += len;
    }
    groups
}

/// Cuts a batch's groups into at most `parts` contiguous runs of roughly
/// equal entry count (a group is never split).
fn cut_parts(groups: &[Group], parts: usize) -> Vec<&[Group]> {
    let entries = groups.last().map_or(0, |group| group.end);
    let target = entries.div_ceil(parts.max(1)).max(1);
    let mut cut = Vec::with_capacity(parts);
    let (mut from, mut size) = (0, 0);
    for (i, group) in groups.iter().enumerate() {
        size += group.end - group.start;
        if size >= target {
            cut.push(&groups[from..=i]);
            (from, size) = (i + 1, 0);
        }
    }
    if from < groups.len() {
        cut.push(&groups[from..]);
    }
    cut
}

/// The encrypted entries of one part of a batch, in (keyword, counter)
/// order: two flat buffers shared by all of the part's groups, plus the
/// entries' indices bucketed by the shard their label selects.
struct Part {
    labels: Vec<Label>,
    /// Ciphertexts of `stride` bytes each, parallel to `labels`.
    ciphertexts: Vec<u8>,
    stride: usize,
    /// Entry indices ordered by shard, ascending within a shard (a
    /// counting sort of the labels' shard prefixes).
    by_shard: Vec<u32>,
    /// Shard `s` owns `by_shard[shard_starts[s]..shard_starts[s + 1]]`.
    shard_starts: Vec<u32>,
}

/// Stage 3, one part: keyed shuffle → trapdoor (both inside `group_token`)
/// → label expansion → list encryption for each group, appended to the
/// part's flat buffers; then the shard bucketing of the labels.
fn encrypt_part<const K: usize, const P: usize, F>(
    batch: &[SpillEntry<K, P>],
    groups: &[Group],
    group_token: &F,
    bits: u32,
) -> Part
where
    F: Fn(&[u8; K], &mut Vec<[u8; P]>) -> SearchToken,
{
    let entries = groups.last().map_or(0, |g| g.end) - groups.first().map_or(0, |g| g.start);
    let stride = StreamCipher::ciphertext_len(P);
    let mut labels = Vec::with_capacity(entries);
    let mut ciphertexts = Vec::with_capacity(entries * stride);
    let mut payloads: Vec<[u8; P]> = Vec::new();
    for group in groups {
        let members = &batch[group.start..group.end];
        payloads.clear();
        payloads.extend(members.iter().map(|(_, payload)| *payload));
        let token = group_token(&members[0].0, &mut payloads);
        encrypt_list_into(
            &token,
            payloads.iter().map(|p| p.as_slice()),
            group.seed,
            &mut labels,
            &mut ciphertexts,
        );
    }
    let mut shard_starts = vec![0u32; (1 << bits) + 1];
    for label in &labels {
        shard_starts[shard_of_label(label, bits) + 1] += 1;
    }
    for shard in 0..1 << bits {
        shard_starts[shard + 1] += shard_starts[shard];
    }
    let mut next = shard_starts.clone();
    let mut by_shard = vec![0u32; labels.len()];
    for (i, label) in labels.iter().enumerate() {
        let slot = &mut next[shard_of_label(label, bits)];
        by_shard[*slot as usize] = i as u32;
        *slot += 1;
    }
    Part {
        labels,
        ciphertexts,
        stride,
        by_shard,
        shard_starts,
    }
}

impl Part {
    /// The part's entries that belong to `shard`, in (keyword, counter)
    /// order.
    fn shard_entries(&self, shard: usize) -> impl ExactSizeIterator<Item = (&Label, &[u8])> {
        let stride = self.stride;
        let (from, to) = (self.shard_starts[shard], self.shard_starts[shard + 1]);
        self.by_shard[from as usize..to as usize]
            .iter()
            .map(move |&i| {
                let i = i as usize;
                (
                    &self.labels[i],
                    &self.ciphertexts[i * stride..(i + 1) * stride],
                )
            })
    }
}

// ---------------------------------------------------------------------------
// Stage 4 — shard sinks
// ---------------------------------------------------------------------------

/// One shard's scatter state during an on-disk build: in-memory frames,
/// overflowing into append-only stage files once a budget bounds them.
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

/// Bytes of one staged `(label, ciphertext length)` frame.
const FRAME_LEN: usize = LABEL_LEN + 4;

/// Where the encrypted entries land: in-memory arenas or staged shard
/// files that finalize into the exact serialized shard format. A sink
/// takes a whole batch at a time ([`accept`](Self::accept)), one job per
/// shard, each appending the batch's entries of its shard in (part,
/// index) order — the global (keyword, counter) order, whatever the
/// scheduling.
enum Sink {
    /// In-memory backend: one arena and label table per shard, sized once
    /// from the stream's entry count.
    Memory { shards: Vec<EncryptedIndex> },
    /// On-disk backend: per-shard frame buffers, finalized into
    /// `shard-NNNNN.shd`. Unbudgeted they hold the shard until then;
    /// under a budget a buffer past `flush_bytes` overflows to stage files
    /// in the spill directory.
    Disk {
        dir: PathBuf,
        flush_bytes: usize,
        shards: Vec<StageShard>,
    },
}

/// Capacity reserved per shard for `total` entries over `shards` shards:
/// labels are PRF outputs, so a shard holds `total / shards` give or take
/// a binomial deviation — the mean plus 1/32 (plus a constant that covers
/// tiny indexes) is past it for every shard of any index large enough for
/// a regrowth to cost something. A shard that does exceed it just grows.
fn shard_capacity(total: u64, shards: usize) -> usize {
    let mean = total as usize / shards;
    mean + mean / 32 + 16
}

/// Runs `job(shard number, shard)` for every shard, in parallel.
fn for_each_shard<T: Send>(shards: &mut [T], job: impl Fn(usize, &mut T) + Sync) {
    let jobs: Vec<(usize, &mut T)> = shards.iter_mut().enumerate().collect();
    let _: Vec<()> = jobs
        .into_par_iter()
        .map(|(i, shard)| job(i, shard))
        .collect();
}

impl Sink {
    fn new(
        config: &StorageConfig,
        total_entries: u64,
        stride: usize,
    ) -> Result<Self, StorageError> {
        let count = 1usize << config.shard_bits;
        let capacity = shard_capacity(total_entries, count);
        match &config.backend {
            StorageBackend::InMemory => Ok(Sink::Memory {
                shards: (0..count)
                    .map(|_| EncryptedIndex::with_capacity(capacity, capacity * stride))
                    .collect(),
            }),
            StorageBackend::OnDisk(dir) => {
                // Same commit discipline as a save: the index manifest
                // goes in first, shard files follow.
                formats::create_dir_all(dir)?;
                write_manifest(dir, config.shard_bits)?;
                // A quarter of the budget across all shard buffers, floored
                // so very high shard counts degrade to more frequent
                // appends rather than per-byte syscalls. Without a budget
                // the buffers hold the whole shard. Either way they are
                // sized up front for what they will hold.
                let flush_bytes = config.build_budget.as_ref().map_or(usize::MAX, |budget| {
                    (budget.memory_bytes / 4 / count).max(4 << 10)
                });
                let reserve =
                    |per_entry: usize| Vec::with_capacity((capacity * per_entry).min(flush_bytes));
                Ok(Sink::Disk {
                    dir: dir.clone(),
                    flush_bytes,
                    shards: (0..count)
                        .map(|_| StageShard {
                            entries: 0,
                            region_len: 0,
                            dir_buf: reserve(FRAME_LEN),
                            region_buf: reserve(stride),
                            staged: false,
                        })
                        .collect(),
                })
            }
        }
    }

    /// Appends one encrypted batch, every shard in parallel.
    fn accept(&mut self, parts: &[Part], spill: &mut SpillDir) -> Result<(), StorageError> {
        match self {
            Sink::Memory { shards } => {
                for_each_shard(shards, |i, shard| {
                    for part in parts {
                        for (label, ciphertext) in part.shard_entries(i) {
                            shard.append_entry(*label, ciphertext);
                        }
                    }
                });
                Ok(())
            }
            Sink::Disk {
                flush_bytes,
                shards,
                ..
            } => {
                for_each_shard(shards, |i, stage| {
                    for part in parts {
                        let entries = part.shard_entries(i);
                        stage.entries += entries.len() as u64;
                        stage.region_len += (entries.len() * part.stride) as u64;
                        for (label, ciphertext) in entries {
                            stage.dir_buf.extend_from_slice(label);
                            stage
                                .dir_buf
                                .extend_from_slice(&(part.stride as u32).to_le_bytes());
                            stage.region_buf.extend_from_slice(ciphertext);
                        }
                    }
                });
                // Overflow after the parallel step, in shard order, so the
                // gated op log of a build is deterministic.
                for (i, stage) in shards.iter_mut().enumerate() {
                    if stage.dir_buf.len() + stage.region_buf.len() >= *flush_bytes {
                        stage_overflow(spill.create()?, i, stage)?;
                    }
                }
                Ok(())
            }
        }
    }

    /// Finalizes every shard and assembles the index.
    fn finish(
        self,
        bits: u32,
        cache_budget: Option<usize>,
        spill: &SpillDir,
    ) -> Result<ShardedIndex, StorageError> {
        match self {
            Sink::Memory { shards } => Ok(ShardedIndex::from_parts(
                bits,
                shards.into_iter().map(Shard::Memory).collect(),
            )),
            Sink::Disk { dir, shards, .. } => {
                let finalize =
                    |(i, stage): (usize, StageShard)| -> Result<ShardLayout, StorageError> {
                        let path = dir.join(shard_file_name(i));
                        finalize_shard(&path, &spill.path, i, stage)?;
                        ShardLayout::open(&path, i as u32, bits, cache_budget.is_some())
                    };
                // Shards held in their buffers serialize and reopen in
                // parallel. A build that overflowed to stage files is bound
                // by the disk either way; it finalizes in shard order,
                // which keeps its gated op log deterministic.
                let jobs: Vec<(usize, StageShard)> = shards.into_iter().enumerate().collect();
                let results: Vec<Result<ShardLayout, StorageError>> =
                    if jobs.iter().any(|(_, stage)| stage.staged) {
                        jobs.into_iter().map(finalize).collect()
                    } else {
                        jobs.into_par_iter().map(finalize).collect()
                    };
                let layouts = results.into_iter().collect::<Result<_, _>>()?;
                let shards = serve_shards(layouts, cache_budget);
                Ok(ShardedIndex::from_parts(
                    bits,
                    shards.into_iter().map(Shard::File).collect(),
                ))
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

/// Writes shard `shard`'s final serialized file from its frames — header,
/// label directory (offsets as the running length sum, exactly the in-RAM
/// layout), then the ciphertext region. A shard that never overflowed
/// serializes straight from its buffers and touches nothing else; a staged
/// one flushes its tail, streams the stage files back and removes them.
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
    if !stage.staged {
        return write_file_atomic(path, |writer| {
            write_shard_header(writer, stage.entries, stage.region_len)?;
            write_directory(&mut stage.dir_buf.as_slice(), stage.entries, writer)?;
            writer.write_all(&stage.region_buf)
        });
    }
    // Flush the tail so the stage files hold everything.
    stage_overflow(spill, shard, &mut stage)?;
    let dir_tmp = spill.join(stage_dir_name(shard));
    let region_tmp = spill.join(stage_region_name(shard));
    write_file_atomic(path, |writer| {
        write_shard_header(writer, stage.entries, stage.region_len)?;
        let mut frames = BufReader::new(File::open(&dir_tmp)?);
        write_directory(&mut frames, stage.entries, writer)?;
        io::copy(&mut BufReader::new(File::open(&region_tmp)?), writer)?;
        Ok(())
    })?;
    let _ = formats::remove_file(&dir_tmp);
    let _ = formats::remove_file(&region_tmp);
    Ok(())
}

// ---------------------------------------------------------------------------
// The build driver
// ---------------------------------------------------------------------------

/// The one `BuildIndex`, in four stages (module docs):
/// **source** — `entries` sorted by `order`, in RAM unless
/// `config.build_budget` is set and exceeded (`None` never spills);
/// **group + seed** — sequential, one 32-byte nonce seed per keyword group
/// drawn from `rng` in keyword order; **batch** — bounded batches cut into
/// parts that run in parallel, each handing its groups to `group_token`,
/// which may reorder the payloads (keyed shuffle) and must return the
/// group's [`SearchToken`], then expanding labels and encrypting into the
/// part's flat buffers; **sink** — one parallel job per shard. Every
/// scheme builds through it: the replication-based ones through
/// `grouped_fixed_index_stored` in `rsse-core` (keyed shuffle, then the
/// trapdoor under the SSE master key), Constant-BRC/URC with tokens derived
/// from DPRF values, Quadratic with the bare trapdoor.
///
/// `group_token` runs on worker threads, once per group, in no particular
/// order; it must be a pure function of the keyword and the payloads. The
/// RNG draws are what make the output a function of (keys, `rng` stream):
/// the same bytes for every budget, backend, batch size and thread count.
pub fn build_index_external_with<const K: usize, const P: usize, R, F>(
    entries: impl IntoIterator<Item = ([u8; K], [u8; P])>,
    order: SpillOrder,
    group_token: F,
    config: &StorageConfig,
    rng: &mut R,
) -> Result<ShardedIndex, StorageError>
where
    R: RngCore + CryptoRng,
    F: Fn(&[u8; K], &mut Vec<[u8; P]>) -> SearchToken + Sync,
{
    let bits = config.shard_bits;
    assert!(
        bits <= MAX_SHARD_BITS,
        "shard bits {bits} exceeds MAX_SHARD_BITS ({MAX_SHARD_BITS})"
    );
    let budget = config.build_budget.as_ref();
    let stride = StreamCipher::ciphertext_len(P);
    let run_limit = budget.map_or(usize::MAX, |budget| budget.run_entry_limit(K + P));
    let batch_limit = budget.map_or(BATCH_ENTRIES, |budget| {
        BATCH_ENTRIES
            .min(budget.encrypt_batch_bytes() / stride)
            .max(1)
    });
    let mut spill = SpillDir::of(config);

    let built = (|| {
        let mut spiller = Spiller::<K, P>::new(&mut spill, order, run_limit);
        for entry in entries {
            spiller.push(entry)?;
        }
        let mut source = spiller.finish(budget.map_or(0, |budget| budget.memory_bytes))?;
        let mut sink = Sink::new(config, source.total_entries(), stride)?;
        let part_count = rayon::current_num_threads() * PARTS_PER_THREAD;
        loop {
            let batch = source.next_batch(batch_limit)?;
            if batch.is_empty() {
                break;
            }
            let groups = close_groups(batch, rng);
            let parts: Vec<Part> = cut_parts(&groups, part_count)
                .into_par_iter()
                .map(|groups| encrypt_part(batch, groups, &group_token, bits))
                .collect();
            sink.accept(&parts, &mut spill)?;
        }
        // The sorted stream is spent; free it before the shards are
        // serialized and reopened.
        drop(source);
        sink.finish(bits, config.cache_budget, &spill)
    })();

    match (&built, &config.backend) {
        // cleanup_partial_index sweeps the embedded spill directory.
        (Err(_), StorageBackend::OnDisk(dir)) => {
            crate::storage::cleanup_partial_index(dir, 1usize << bits)
        }
        // Ours, or a crashed earlier build's that this one never needed.
        _ if spill.path.is_dir() => sweep_spill_dir(&spill.path),
        _ => {}
    }
    built
}

/// Start-of-spill variant of [`sweep_spill_dir`]: removes stale recognized
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
    use crate::pibas::{SseKey, SseScheme};
    use crate::storage::test_support::TempDir;
    use crate::storage::BuildBudget;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha20Rng;
    use rsse_crypto::Key;
    use std::sync::Mutex;

    /// The 13-byte `[tag, level, index]` keyword layout the range schemes
    /// feed the grouped build, so the tests sort exactly what they sort.
    fn keyword(level: u32, index: u64) -> [u8; 13] {
        let mut k = [0u8; 13];
        k[0] = b'B';
        k[1..5].copy_from_slice(&level.to_le_bytes());
        k[5..13].copy_from_slice(&index.to_le_bytes());
        k
    }

    /// The oracle: the reference build over an [`SseDatabase`] of the
    /// sorted entries with every list pre-shuffled — the same keyword
    /// order and the same one-seed-per-keyword draw as the pipeline, and
    /// none of its code.
    ///
    /// [`SseDatabase`]: crate::SseDatabase
    fn in_ram_reference(
        key: &SseKey,
        shuffle_key: &Key,
        mut entries: Vec<([u8; 13], [u8; 8])>,
        config: &StorageConfig,
        rng: &mut ChaCha20Rng,
    ) -> ShardedIndex {
        entries.sort_unstable();
        database_reference(key, shuffle_key, entries, config, rng)
    }

    /// [`in_ram_reference`] over entries taken in the order given: the
    /// database groups by keyword and keeps each list in arrival order,
    /// which is exactly what [`SpillOrder::ByKeyword`] promises.
    fn database_reference(
        key: &SseKey,
        shuffle_key: &Key,
        entries: Vec<([u8; 13], [u8; 8])>,
        config: &StorageConfig,
        rng: &mut ChaCha20Rng,
    ) -> ShardedIndex {
        let mut database: crate::SseDatabase = entries.into_iter().collect();
        database.shuffle_lists(shuffle_key);
        crate::pibas::reference::build_stored(key, &database, config, rng).unwrap()
    }

    /// The pipeline under `order`, keyed like the reference: each group's
    /// list permuted by the keyed shuffle, then encrypted under the
    /// keyword's trapdoor.
    fn pipeline<const K: usize>(
        key: &SseKey,
        shuffle_key: &Key,
        entries: impl IntoIterator<Item = ([u8; K], [u8; 8])>,
        order: SpillOrder,
        config: &StorageConfig,
        rng: &mut ChaCha20Rng,
    ) -> Result<ShardedIndex, StorageError> {
        let shuffle = rsse_crypto::Prf::new(shuffle_key);
        build_index_external_with(
            entries,
            order,
            |keyword: &[u8; K], payloads: &mut Vec<[u8; 8]>| {
                rsse_crypto::permute::keyed_shuffle(&shuffle, keyword, payloads);
                SseScheme::trapdoor(key, keyword)
            },
            config,
            rng,
        )
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

    /// Table-and-arena equality of two in-memory indexes.
    fn arenas_equal(a: &ShardedIndex, b: &ShardedIndex) -> bool {
        a.shard_count() == b.shard_count()
            && a.shards().iter().zip(b.shards()).all(|(a, b)| {
                let (a, b) = (a.as_memory().unwrap(), b.as_memory().unwrap());
                a.table_raw() == b.table_raw() && a.arena_bytes_raw() == b.arena_bytes_raw()
            })
    }

    /// The byte-identity contract for one corpus: under every budget given,
    /// on both backends, the pipeline's tables, arenas and files equal the
    /// reference's, it leaves the caller's RNG where the reference leaves
    /// it, and no spill directory survives.
    fn assert_identical(
        entries: &[([u8; 13], [u8; 8])],
        order: SpillOrder,
        seed: u64,
        shard_bits: u32,
        budgets: &[Option<BuildBudget>],
    ) {
        let mut key_rng = ChaCha20Rng::seed_from_u64(seed ^ 0x5eed);
        let key = SseScheme::setup(&mut key_rng);
        let shuffle_key = Key::generate(&mut key_rng);
        let reference = |config: &StorageConfig| {
            let mut rng = ChaCha20Rng::seed_from_u64(seed);
            let entries = entries.to_vec();
            let index = match order {
                SpillOrder::ByKeywordAndPayload => {
                    in_ram_reference(&key, &shuffle_key, entries, config, &mut rng)
                }
                SpillOrder::ByKeyword => {
                    database_reference(&key, &shuffle_key, entries, config, &mut rng)
                }
            };
            (index, rng.next_u64())
        };
        let (ref_idx, ref_draw) = reference(&StorageConfig::in_memory(shard_bits));
        let ref_dir = TempDir::new("ext-id-ref");
        reference(&StorageConfig::on_disk(shard_bits, ref_dir.path()));

        for budget in budgets {
            let context = format!(
                "{} entries, {order:?}, {shard_bits} shard bits, budget {:?}",
                entries.len(),
                budget.as_ref().map(|b| b.memory_bytes)
            );
            let spill_root = TempDir::new("ext-id-spill");
            let configure = |mut config: StorageConfig| {
                config.build_budget = budget
                    .clone()
                    .map(|budget| budget.with_spill_root(spill_root.path()));
                config
            };
            let mut rng = ChaCha20Rng::seed_from_u64(seed);
            let config = configure(StorageConfig::in_memory(shard_bits));
            let index = pipeline(
                &key,
                &shuffle_key,
                entries.iter().copied(),
                order,
                &config,
                &mut rng,
            )
            .unwrap();
            assert!(arenas_equal(&ref_idx, &index), "arenas differ: {context}");
            assert_eq!(rng.next_u64(), ref_draw, "RNG state differs: {context}");
            assert_eq!(spill_root.subdir_count(), 0, "spill left: {context}");

            let dir = TempDir::new("ext-id-disk");
            let config = configure(StorageConfig::on_disk(shard_bits, dir.path()));
            let mut rng = ChaCha20Rng::seed_from_u64(seed);
            pipeline(
                &key,
                &shuffle_key,
                entries.iter().copied(),
                order,
                &config,
                &mut rng,
            )
            .unwrap();
            assert!(
                dirs_equal(ref_dir.path(), dir.path()),
                "files differ: {context}"
            );
            assert_eq!(rng.next_u64(), ref_draw, "RNG state differs: {context}");
        }
    }

    /// The budget whose run limit is exactly `entries` 21-byte entries
    /// (or the run floor, for fewer).
    fn budget_for_run_limit(entries: usize) -> BuildBudget {
        let budget = BuildBudget::with_memory(entries * 2 * 21);
        let limit = entries.max(BuildBudget::MIN_RUN_ENTRIES);
        assert_eq!(budget.run_entry_limit(21), limit);
        budget
    }

    /// The budgets that matter for a corpus of `n` entries: none; one the
    /// corpus fits (the buffer never reaches the run limit); the ones that
    /// make it spill exactly one run, two runs, and as many as the run
    /// floor allows. Every budget here also bounds a batch at
    /// [`BUDGET_BATCH`] entries.
    fn budgets_around(n: usize) -> Vec<Option<BuildBudget>> {
        let mut budgets = vec![None, Some(budget_for_run_limit(n + 1))];
        if n > BuildBudget::MIN_RUN_ENTRIES {
            budgets.push(Some(budget_for_run_limit(n)));
            budgets.push(Some(budget_for_run_limit(n - 1)));
            budgets.push(Some(BuildBudget::with_memory(1)));
        }
        budgets
    }

    /// Entries per batch under any budget of at most 256 KiB: the 64 KiB
    /// floor of the encrypt-batch share over 24-byte ciphertexts.
    const BUDGET_BATCH: usize = (64 << 10) / 24;

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
        /// shard count, the pipeline produces bit-identical tables, arenas
        /// and shard files to the reference build — on both backends, whether
        /// the budget is absent, fits the corpus, or forces several runs.
        #[test]
        fn external_build_is_byte_identical(
            raw in proptest::collection::vec((0u32..5, 0u64..4, any::<u64>()), 0..1400),
            seed in any::<u64>(),
            shard_pick in 0usize..3,
            budget_bytes in 1usize..(64 << 10),
        ) {
            let entries = to_entries(raw);
            assert_identical(
                &entries,
                SpillOrder::ByKeywordAndPayload,
                seed,
                [0, 2, 4][shard_pick],
                &[None, Some(BuildBudget::with_memory(budget_bytes))],
            );
        }
    }

    /// `count` entries under keyword `(level, index)`, payloads descending
    /// from `base` so arrival order is never sorted order.
    fn group(level: u32, index: u64, count: usize, base: u64) -> Vec<([u8; 13], [u8; 8])> {
        (0..count as u64)
            .map(|i| (keyword(level, index), (base - i).to_le_bytes()))
            .collect()
    }

    /// Corpora that put something on every edge of a [`BUDGET_BATCH`]-entry
    /// batch: a keyword longer than a batch (a batch of one group, hence of
    /// one part), a group ending exactly on the boundary, the boundary
    /// falling just inside and just past a group, nothing but singleton
    /// keywords, and the degenerate 0 / 1 / 2 entries.
    fn batch_edge_shapes() -> Vec<Vec<([u8; 13], [u8; 8])>> {
        let b = BUDGET_BATCH;
        let singletons = |count: usize| -> Vec<([u8; 13], [u8; 8])> {
            (0..count as u64)
                .map(|i| (keyword((i % 7) as u32, i), (i * 31).to_le_bytes()))
                .collect()
        };
        vec![
            Vec::new(),
            group(0, 0, 1, 9),
            group(0, 0, 2, 9),
            [group(1, 1, 1, 9), group(0, 5, 1, 9)].concat(),
            [
                group(0, 0, 3, 50),
                group(0, 1, b + 270, 1 << 20),
                singletons(40),
            ]
            .concat(),
            [group(0, 0, b, 1 << 20), group(0, 1, 10, 99)].concat(),
            [
                group(0, 0, b - 1, 1 << 20),
                group(0, 1, 1, 7),
                group(0, 2, 5, 99),
            ]
            .concat(),
            [
                group(0, 0, b - 1, 1 << 20),
                group(0, 1, 2, 7),
                singletons(b),
            ]
            .concat(),
            singletons(2 * b + 17),
        ]
    }

    #[test]
    fn every_batch_edge_is_byte_identical_under_every_budget() {
        for (shape, entries) in batch_edge_shapes().into_iter().enumerate() {
            // Every layout on the small shapes; on the multi-batch ones the
            // shard count changes nothing the edges depend on.
            let layouts: &[u32] = if entries.len() < 100 {
                &[0, 2, 4]
            } else {
                &[2]
            };
            for &shard_bits in layouts {
                assert_identical(
                    &entries,
                    SpillOrder::ByKeywordAndPayload,
                    shape as u64,
                    shard_bits,
                    &budgets_around(entries.len()),
                );
            }
        }
    }

    /// Constant's ordering: groups in keyword order, each list in arrival
    /// order — across batches and across spill runs — equals the database
    /// build of the same arrival order.
    #[test]
    fn by_keyword_order_is_byte_identical_under_every_budget() {
        // Three interleaved keywords, arrival order deliberately unsorted,
        // and a fourth that arrives last but sorts first.
        let mut entries: Vec<([u8; 13], [u8; 8])> = (0..2 * BUDGET_BATCH as u64 + 100)
            .map(|i| (keyword(2, i % 3), ((1u64 << 30) - i * 7).to_le_bytes()))
            .collect();
        entries.extend(group(1, 0, 20, 500));
        for shard_bits in [0, 4] {
            assert_identical(
                &entries,
                SpillOrder::ByKeyword,
                3,
                shard_bits,
                &budgets_around(entries.len()),
            );
        }
    }

    /// A build that never spills does no filesystem work beyond its index
    /// files: an in-memory build under a budget it fits records no gated op
    /// (nothing under its spill root), and an on-disk build — unbudgeted or
    /// within its budget — records the directory, the manifest and one
    /// atomic write per shard, nothing else.
    #[test]
    fn a_build_that_fits_touches_only_its_index_files() {
        let mut rng = ChaCha20Rng::seed_from_u64(21);
        let key = SseScheme::setup(&mut rng);
        let shuffle_key = Key::generate(&mut rng);
        let entries: Vec<([u8; 13], [u8; 8])> = (0..3000u64)
            .map(|i| (keyword((i % 5) as u32, i % 11), i.to_le_bytes()))
            .collect();
        let roomy = BuildBudget::with_memory(64 << 20);
        let build = |config: &StorageConfig| {
            let mut rng = ChaCha20Rng::seed_from_u64(4);
            let order = SpillOrder::ByKeywordAndPayload;
            pipeline(
                &key,
                &shuffle_key,
                entries.iter().copied(),
                order,
                config,
                &mut rng,
            )
            .unwrap();
        };

        let spill_root = TempDir::new("ext-fits-spill");
        let recording = formats::arm_crash(spill_root.path(), None);
        let budget = roomy.clone().with_spill_root(spill_root.path());
        build(&StorageConfig::in_memory(2).with_build_budget(budget));
        assert_eq!(recording.trace(), Vec::new());
        drop(recording);
        assert_eq!(spill_root.subdir_count(), 0);

        for budget in [None, Some(roomy)] {
            let dir = TempDir::new("ext-fits-disk");
            let index_dir = dir.path().join("index");
            let mut config = StorageConfig::on_disk(2, &index_dir);
            config.build_budget = budget;
            let recording = formats::arm_crash(dir.path(), None);
            build(&config);
            let mut log = recording.trace();
            drop(recording);
            // The shard writers run in parallel: their four ops come in
            // any order, after the first two.
            log[2..].sort();
            let mut expected = vec![
                ("create_dir_all", index_dir.clone()),
                ("write", index_dir.join(crate::storage::MANIFEST_FILE)),
            ];
            expected.extend((0..4).map(|i| ("write", index_dir.join(shard_file_name(i)))));
            assert_eq!(log, expected);
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
        let seen: Mutex<Vec<(u64, Vec<u64>)>> = Mutex::new(Vec::new());
        build_index_external_with(
            entries.iter().copied(),
            SpillOrder::ByKeyword,
            |keyword: &[u8; 8], payloads: &mut Vec<[u8; 8]>| {
                seen.lock().unwrap().push((
                    u64::from_be_bytes(*keyword),
                    payloads.iter().map(|p| u64::from_le_bytes(*p)).collect(),
                ));
                SseScheme::trapdoor(&key, keyword)
            },
            &config,
            &mut rng,
        )
        .unwrap();
        let seen = seen.into_inner().unwrap();
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
        let idx = pipeline::<13>(
            &key,
            &shuffle_key,
            std::iter::empty(),
            SpillOrder::ByKeywordAndPayload,
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
    /// once crashing right after the last op that commits a file named as
    /// `commits` accepts — which must be an op in the log — assert that
    /// debris and a foreign file survive, then build again and require
    /// byte convergence with the reference.
    fn crash_and_converge(commits: impl Fn(&str) -> bool) {
        let mut rng = ChaCha20Rng::seed_from_u64(11);
        let key = SseScheme::setup(&mut rng);
        let shuffle_key = Key::generate(&mut rng);
        let entries: Vec<([u8; 13], [u8; 8])> = (0..1400u64)
            .map(|i| (keyword((i % 3) as u32, i % 7), i.to_le_bytes()))
            .collect();
        let budget = BuildBudget::with_memory(1);
        let build = |dir: &Path, seed: u64| {
            pipeline(
                &key,
                &shuffle_key,
                entries.iter().copied(),
                SpillOrder::ByKeywordAndPayload,
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
            .rposition(|(op, path)| {
                *op == "write"
                    && path
                        .file_name()
                        .and_then(|n| n.to_str())
                        .is_some_and(&commits)
            })
            .unwrap_or_else(|| panic!("no op commits the file: {log:?}"))
            + 1;
        let committed = log[at - 1].1.strip_prefix(reference.path()).unwrap();

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
        // The crash leaves debris behind: the spill dir and the file the
        // killed op committed (a run, or a partial index's shard).
        assert!(spill.exists(), "crash must not clean up");
        assert!(dir.path().join(committed).exists(), "{committed:?}");
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

    /// A run file one row short of the in-process run table is refused
    /// typed before a single entry is read.
    #[test]
    fn run_one_row_short_of_its_table_is_rejected_typed() {
        let dir = TempDir::new("ext-spl-short");
        let mut spill = SpillDir {
            path: dir.path().to_path_buf(),
            created: false,
        };
        let mut spiller = Spiller::<13, 8>::new(&mut spill, SpillOrder::ByKeywordAndPayload, 4);
        for i in 0..4u64 {
            spiller.push((keyword(0, i), i.to_le_bytes())).unwrap();
        }
        assert_eq!(spiller.runs, vec![4]);
        let path = dir.path().join(run_file_name(0));
        let run = fs::read(&path).unwrap();
        assert_eq!(run.len(), 4 * (13 + 8));
        fs::write(&path, &run[..3 * (13 + 8)]).unwrap();
        let result = spiller.finish(0);
        assert!(
            matches!(
                result,
                Err(StorageError::Truncated {
                    expected: 84,
                    actual: 63,
                    ..
                })
            ),
            "{:?}",
            result.err()
        );
    }

    #[test]
    fn killed_mid_spill_restart_converges() {
        crash_and_converge(|name| name == run_file_name(0));
    }

    /// Killed after the last run's commit, before the merge starts.
    #[test]
    fn killed_after_spill_restart_converges() {
        crash_and_converge(|name| name.ends_with(".spl"));
    }

    #[test]
    fn killed_mid_shard_write_restart_converges() {
        crash_and_converge(|name| name == crate::storage::shard_file_name(0));
    }
}
