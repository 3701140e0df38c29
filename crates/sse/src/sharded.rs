//! Label-prefix sharding of the encrypted dictionary.
//!
//! [`ShardedIndex`] splits the flat dictionary of
//! [`EncryptedIndex`] into `2^k` **shards keyed by
//! the top `k` bits of the label**: shard `s` owns every entry whose label
//! prefix is `s`, with its own ciphertext region and bucket directory.
//! Because labels are owner-side PRF outputs (computationally
//! indistinguishable from uniform — see the [`pibas`](crate::pibas) module
//! docs), the prefix partition is automatically balanced, and revealing
//! which shard an entry lives in reveals exactly the label prefix the
//! server could read off the flat dictionary anyway: sharding changes the
//! storage layout, not the leakage profile.
//!
//! What sharding buys:
//!
//! * **Fully parallel BuildIndex assembly.** The single-arena build ends in
//!   one sequential "append every chunk to the arena" pass; the sharded
//!   build replaces it with one *independent* assembly job per shard (after
//!   a cheap index-scatter pass), so the byte-copying and table insertion
//!   fan out across cores with no final single-threaded append.
//! * **Lock-free concurrent reads.** Shards are plain immutable structs
//!   behind `&self`; any number of query threads can probe any shards
//!   simultaneously with no synchronization whatsoever.
//! * **Bounded arenas.** Each shard has its own 4 GiB arena limit, so
//!   `k` shard bits raise the per-index ciphertext capacity `2^k`-fold.
//! * **Probe locality for batched search.** [`IndexLookup::try_get_many`]
//!   groups a probe vector by shard, so consecutive lookups hit the same
//!   (much smaller) table.
//! * **Pluggable residency.** Since PR 3 each shard is a
//!   [`ShardStorage`] backend behind the [`Shard`] enum: the in-memory
//!   arena (byte-identical to the PR 2 layout) or an on-disk
//!   [`FileShard`] serialized during BuildIndex and
//!   served via paged reads — see [`StorageConfig`] and the
//!   [`storage`](crate::storage) module. [`ShardedIndex::save_to_dir`] and
//!   [`ShardedIndex::open_dir`] persist an index across processes.
//!
//! With `k = 0` the in-memory index is a single shard whose arena and table
//! are **byte-identical** to the unsharded [`EncryptedIndex`] build — the
//! property test `unsharded_is_byte_identical_to_plain_arena` pins this, so
//! the sharded type is a strict generalization, not a fork.

use crate::database::SseDatabase;
use crate::formats;
use crate::pibas::{
    merge_chunks, CipherSpan, EncryptedIndex, IndexLookup, KeywordChunk, Label, SearchToken,
    SseKey, SseScheme,
};
use crate::storage::{
    merge_shard_files, open_shards_from_dir, read_manifest, save_shards_to_dir, shard_file_name,
    write_chunk_shard, write_manifest, BlockCache, CacheStats, FileShard, ShardStorage,
    StorageBackend, StorageConfig, StorageError,
};
use rand::{CryptoRng, RngCore};
use rayon::prelude::*;
use std::path::Path;
use std::sync::Arc;

/// Maximum supported shard bits (`2^16` shards). Past this point per-shard
/// bookkeeping dominates any conceivable parallelism win.
pub const MAX_SHARD_BITS: u32 = 16;

/// Returns the shard (top `bits` bits of the label, read big-endian) an
/// entry with this label belongs to. `bits == 0` maps everything to shard 0.
pub(crate) fn shard_of_label(label: &Label, bits: u32) -> usize {
    if bits == 0 {
        return 0;
    }
    let prefix = u64::from_be_bytes(label[..8].try_into().expect("labels are 16 bytes"));
    (prefix >> (64 - bits)) as usize
}

/// One shard of the dictionary behind a concrete [`ShardStorage`] backend.
///
/// The query algorithms never see this enum (they are generic over
/// [`IndexLookup`] on the whole index); it exists so one [`ShardedIndex`]
/// type can hold either representation without infecting every server
/// struct with a type parameter.
#[derive(Clone, Debug)]
pub enum Shard {
    /// The in-memory ciphertext arena (PR 2 layout, byte-identical).
    Memory(EncryptedIndex),
    /// A disk-resident shard served via paged reads.
    File(FileShard),
    /// A fault-injection wrapper around another shard (test support; see
    /// the [`fault`](crate::fault) module).
    Fault(FaultShard),
}

impl Shard {
    /// The in-memory backend of this shard, if that is what it is.
    pub fn as_memory(&self) -> Option<&EncryptedIndex> {
        match self {
            Shard::Memory(index) => Some(index),
            Shard::File(_) | Shard::Fault(_) => None,
        }
    }

    /// The file backend of this shard, if that is what it is.
    pub fn as_file(&self) -> Option<&FileShard> {
        match self {
            Shard::Memory(_) | Shard::Fault(_) => None,
            Shard::File(shard) => Some(shard),
        }
    }

    /// The shard underneath any fault-injection wrappers.
    pub(crate) fn unwrap_faults(&self) -> &Shard {
        let mut shard = self;
        while let Shard::Fault(fault) = shard {
            shard = &fault.inner;
        }
        shard
    }

    /// Returns this shard's stored ciphertexts (copied out; used by
    /// leakage-oriented tests and tooling).
    pub fn ciphertexts(&self) -> Result<Vec<Vec<u8>>, StorageError> {
        match self.unwrap_faults() {
            Shard::Memory(index) => Ok(index.ciphertexts().map(<[u8]>::to_vec).collect()),
            Shard::File(shard) => shard.ciphertexts(),
            Shard::Fault(_) => unreachable!("unwrap_faults removes fault wrappers"),
        }
    }
}

impl ShardStorage for Shard {
    fn try_get(&self, label: &Label) -> Result<Option<CipherSpan<'_>>, StorageError> {
        match self {
            Shard::Memory(index) => Ok(index.get(label).map(CipherSpan::borrowed)),
            Shard::File(shard) => ShardStorage::try_get(shard, label),
            Shard::Fault(fault) => ShardStorage::try_get(fault, label),
        }
    }

    fn len(&self) -> usize {
        match self {
            Shard::Memory(index) => index.len(),
            Shard::File(shard) => ShardStorage::len(shard),
            Shard::Fault(fault) => ShardStorage::len(fault),
        }
    }

    fn storage_bytes(&self) -> usize {
        match self {
            Shard::Memory(index) => index.storage_bytes(),
            Shard::File(shard) => ShardStorage::storage_bytes(shard),
            Shard::Fault(fault) => ShardStorage::storage_bytes(fault),
        }
    }
}

/// A [`ShardStorage`] wrapper that routes every probe through a shared
/// [`FaultInjector`](crate::fault::FaultInjector) before delegating to the
/// wrapped shard — failing probes surface as typed [`StorageError::Io`]s,
/// exactly what a real failed block read produces.
///
/// The injector is shared across every shard wrapped in one
/// [`FaultInjectable`](crate::fault::FaultInjectable) injection call (and
/// across clones), so probe counting is global: "the N-th block read of the
/// index fails" holds regardless of which shard the N-th probe lands in.
/// Used by the fault-injection tests and the chaos harness; a production
/// index never contains fault wrappers.
#[derive(Clone, Debug)]
pub struct FaultShard {
    inner: Box<Shard>,
    /// The wrapped shard's id (label-prefix value) — the unit of per-shard
    /// fault targeting.
    shard_id: u32,
    /// The shared fault-decision state (see the [`fault`](crate::fault)
    /// module).
    injector: Arc<crate::fault::FaultInjector>,
}

impl FaultShard {
    /// The synthetic path reported by injected failures.
    pub const FAULT_PATH: &'static str = "<injected-fault>";
}

impl ShardStorage for FaultShard {
    fn try_get(&self, label: &Label) -> Result<Option<CipherSpan<'_>>, StorageError> {
        self.injector.decide(self.shard_id)?;
        ShardStorage::try_get(&*self.inner, label)
    }

    fn len(&self) -> usize {
        ShardStorage::len(&*self.inner)
    }

    fn storage_bytes(&self) -> usize {
        ShardStorage::storage_bytes(&*self.inner)
    }
}

/// An encrypted dictionary split into `2^k` label-prefix-keyed shards, each
/// an independent ciphertext region plus bucket directory behind a
/// [`ShardStorage`] backend.
///
/// Searched with the exact same tokens and algorithms as the flat
/// [`EncryptedIndex`] — every search entry point is generic over
/// [`IndexLookup`] — and guaranteed to hold the same `(label, ciphertext)`
/// pairs for the same build inputs, whatever `k` or the backend is.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use rsse_sse::{SseDatabase, SseScheme, StorageConfig};
///
/// let mut rng = rand_chacha::ChaCha20Rng::seed_from_u64(1);
/// let key = SseScheme::setup(&mut rng);
/// let mut db = SseDatabase::new();
/// for i in 0..100u64 {
///     db.add(b"w".to_vec(), i.to_le_bytes().to_vec());
/// }
///
/// // 2^4 = 16 shards; entries distribute by label prefix.
/// let config = StorageConfig::in_memory(4);
/// let index = SseScheme::build_index_stored(&key, &db, &config, &mut rng).unwrap();
/// assert_eq!(index.shard_count(), 16);
/// assert_eq!(index.len(), 100);
///
/// // Same search API as the unsharded index.
/// let token = SseScheme::trapdoor(&key, b"w");
/// assert_eq!(SseScheme::search(&index, &token).unwrap().len(), 100);
/// ```
///
/// Persistence: an index can be saved to (or built straight into) a
/// directory and cold-opened by a later process:
///
/// ```
/// use rand::SeedableRng;
/// use rsse_sse::{ShardedIndex, SseDatabase, SseScheme, StorageConfig};
///
/// let mut rng = rand_chacha::ChaCha20Rng::seed_from_u64(2);
/// let key = SseScheme::setup(&mut rng);
/// let mut db = SseDatabase::new();
/// db.add(b"w".to_vec(), b"payload".to_vec());
/// let config = StorageConfig::in_memory(2);
/// let index = SseScheme::build_index_stored(&key, &db, &config, &mut rng).unwrap();
///
/// let dir = std::env::temp_dir().join(format!("rsse-doc-{}", std::process::id()));
/// index.save_to_dir(&dir).unwrap();
/// drop(index);
///
/// let reopened = ShardedIndex::open_dir(&dir).unwrap();
/// let token = SseScheme::trapdoor(&key, b"w");
/// assert_eq!(
///     SseScheme::search(&reopened, &token).unwrap(),
///     vec![b"payload".to_vec()]
/// );
/// # std::fs::remove_dir_all(&dir).unwrap();
/// ```
#[derive(Clone, Debug)]
pub struct ShardedIndex {
    /// Number of label-prefix bits selecting the shard (`k`).
    bits: u32,
    /// The `2^k` shards, indexed by label prefix.
    shards: Vec<Shard>,
}

impl Default for ShardedIndex {
    /// An empty unsharded (`k = 0`) in-memory index.
    fn default() -> Self {
        Self {
            bits: 0,
            shards: vec![Shard::Memory(EncryptedIndex::default())],
        }
    }
}

impl ShardedIndex {
    /// Assembles an index from already-built shards (the external-memory
    /// build path constructs its shards incrementally instead of through
    /// [`shard_chunks`]). `shards.len()` must be `2^bits`.
    pub(crate) fn from_parts(bits: u32, shards: Vec<Shard>) -> Self {
        debug_assert_eq!(shards.len(), 1usize << bits);
        Self { bits, shards }
    }

    /// The number of label-prefix bits selecting a shard (`k`).
    pub fn shard_bits(&self) -> u32 {
        self.bits
    }

    /// The number of shards (`2^k`).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shards, indexed by label prefix.
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// Whether the shards are served from disk (paged reads) rather than
    /// from in-memory arenas.
    pub fn is_file_backed(&self) -> bool {
        self.shards
            .iter()
            .any(|s| matches!(s.unwrap_faults(), Shard::File(_)))
    }

    /// The shard an entry with this label would live in.
    pub fn shard_of(&self, label: &Label) -> usize {
        shard_of_label(label, self.bits)
    }

    /// Total number of entries across all shards (the index-size leakage,
    /// identical to the unsharded build's).
    pub fn len(&self) -> usize {
        self.shards.iter().map(ShardStorage::len).sum()
    }

    /// Whether no shard holds any entry.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(ShardStorage::is_empty)
    }

    /// Approximate server-side storage footprint in bytes
    /// (labels + encrypted payloads, summed over shards) — independent of
    /// where the bytes live.
    pub fn storage_bytes(&self) -> usize {
        self.shards.iter().map(ShardStorage::storage_bytes).sum()
    }

    /// Bytes currently resident in memory: in-memory shards count in full,
    /// file-backed shards count their bucket directory plus the region
    /// blocks faulted in so far (bounded by the cache budget when one is
    /// set). This is the number the spill-to-disk backend exists to bound.
    pub fn resident_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| match shard.unwrap_faults() {
                Shard::Memory(index) => index.storage_bytes(),
                Shard::File(file) => {
                    ShardStorage::len(file) * crate::pibas::LABEL_LEN + file.resident_bytes()
                }
                Shard::Fault(_) => unreachable!("unwrap_faults removes fault wrappers"),
            })
            .sum()
    }

    /// Number of paged block reads that have failed across all file-backed
    /// shards since open (always 0 for in-memory shards). Failed reads
    /// surface as typed [`StorageError`]s from the probing search; this is
    /// the aggregate operator-side counter of how often that happened.
    pub fn read_errors(&self) -> u64 {
        self.shards
            .iter()
            .map(|shard| match shard.unwrap_faults() {
                Shard::File(file) => file.read_errors(),
                _ => 0,
            })
            .sum()
    }

    /// Aggregated block-cache counters of all file-backed shards: probe
    /// hits and misses, evictions performed to stay inside the
    /// [`StorageConfig::cache_budget`], and the ciphertext-block bytes
    /// currently resident (always 0 hits/misses/resident for a fully
    /// in-memory index, whose arenas bypass the block layer).
    pub fn cache_stats(&self) -> CacheStats {
        let mut stats = CacheStats::default();
        let mut caches: Vec<*const BlockCache> = Vec::new();
        for shard in &self.shards {
            if let Shard::File(file) = shard.unwrap_faults() {
                let shard_stats = file.cache_stats();
                stats.hits += shard_stats.hits;
                stats.misses += shard_stats.misses;
                match file.block_cache() {
                    Some(cache) => {
                        let ptr = Arc::as_ptr(cache);
                        if !caches.contains(&ptr) {
                            caches.push(ptr);
                            stats.evictions += cache.evictions();
                            stats.resident_bytes += cache.resident_bytes();
                        }
                    }
                    None => stats.resident_bytes += shard_stats.resident_bytes,
                }
            }
        }
        stats
    }

    /// Looks up the ciphertext stored under `label` in its shard.
    ///
    /// `Ok(None)` means the label is absent; `Err` means the storage
    /// backend failed to resolve the probe (never happens for in-memory
    /// shards).
    pub fn try_get(&self, label: &Label) -> Result<Option<CipherSpan<'_>>, StorageError> {
        ShardStorage::try_get(&self.shards[self.shard_of(label)], label)
    }

    /// Returns all stored ciphertexts (shard order, copied out; used by
    /// leakage-oriented tests).
    pub fn ciphertexts(&self) -> Result<Vec<Vec<u8>>, StorageError> {
        let mut out = Vec::new();
        for shard in &self.shards {
            out.extend(shard.ciphertexts()?);
        }
        Ok(out)
    }

    /// Wraps every shard in a [`FaultShard`] consulting the given shared
    /// [`FaultInjector`](crate::fault::FaultInjector) — the primitive
    /// underneath the [`FaultInjectable`](crate::fault::FaultInjectable)
    /// trait, which is the surface tests should use. Test support; a
    /// production index never contains fault wrappers.
    pub fn attach_fault_injector(&mut self, injector: &Arc<crate::fault::FaultInjector>) {
        for (shard_id, shard) in self.shards.iter_mut().enumerate() {
            let inner = Box::new(shard.clone());
            *shard = Shard::Fault(FaultShard {
                inner,
                shard_id: shard_id as u32,
                injector: Arc::clone(injector),
            });
        }
    }

    /// Serializes every shard (plus an `index.meta` manifest) into `dir`,
    /// creating it if needed. Works for both backends; shard files are
    /// written in parallel and the output is deterministic, so saving the
    /// same index twice produces byte-identical directories.
    pub fn save_to_dir(&self, dir: impl AsRef<Path>) -> Result<(), StorageError> {
        save_shards_to_dir(dir.as_ref(), self.bits, &self.shards)
    }

    /// Cold-opens an index previously written by [`save_to_dir`] (or built
    /// straight to disk through a [`StorageConfig::on_disk`] build): loads
    /// each shard's bucket directory, leaves the ciphertext regions on
    /// disk, and serves them through paged reads.
    ///
    /// # Errors
    ///
    /// Every malformed input — missing or truncated files, wrong magic,
    /// unsupported versions, corrupt label directories — surfaces as a
    /// typed [`StorageError`]; nothing in the open path panics.
    ///
    /// [`save_to_dir`]: Self::save_to_dir
    pub fn open_dir(dir: impl AsRef<Path>) -> Result<Self, StorageError> {
        Self::open_dir_with_budget(dir, None)
    }

    /// Like [`open_dir`](Self::open_dir), but bounds the resident
    /// ciphertext blocks of the opened index at `cache_budget` bytes
    /// (`None` = unlimited): all shards share one clock block cache that
    /// evicts cold blocks once the budget is reached, so a long-running
    /// server's residency tracks its working set rather than everything it
    /// ever touched. Query results are identical for every budget; see
    /// [`cache_stats`](Self::cache_stats) for the hit/miss/eviction
    /// counters.
    pub fn open_dir_with_budget(
        dir: impl AsRef<Path>,
        cache_budget: Option<usize>,
    ) -> Result<Self, StorageError> {
        let (bits, shards) = open_shards_from_dir(dir.as_ref(), cache_budget)?;
        Ok(Self {
            bits,
            shards: shards.into_iter().map(Shard::File).collect(),
        })
    }

    /// Opens a saved index directory fully **memory-resident**: every
    /// shard's ciphertext region is loaded into an in-memory arena whose
    /// bytes, entry order and offset table are exactly what the shard file
    /// serializes — so a resident open, a paged open, and the index that
    /// was originally saved all resolve every label to identical bytes.
    ///
    /// This is the restore path for hosts where the index fits in RAM (the
    /// update manager's `storage_root: None` reopen uses it for
    /// structurally merged instances, whose physical layout is not
    /// reproducible from a rebuild).
    pub fn open_dir_resident(dir: impl AsRef<Path>) -> Result<Self, StorageError> {
        let (bits, shards) = open_shards_from_dir(dir.as_ref(), None)?;
        let loaded: Vec<Result<Shard, StorageError>> = shards
            .into_par_iter()
            .map(|shard| shard.to_memory().map(Shard::Memory))
            .collect();
        let shards = loaded
            .into_iter()
            .collect::<Result<Vec<Shard>, StorageError>>()?;
        Ok(Self { bits, shards })
    }

    /// Structurally merges `inputs` into one in-memory index: per shard,
    /// the inputs' ciphertext arenas are concatenated **verbatim** in input
    /// order and the label table is re-emitted over the rebased offsets.
    /// No ciphertext is decrypted or re-encrypted; the merged index stores
    /// exactly the union of the inputs' `(label, ciphertext)` pairs.
    ///
    /// # Errors
    ///
    /// [`StorageError::Unsupported`] — the caller's fall-back-to-rebuild
    /// signal — if the inputs disagree on shard bits, any input shard is
    /// not memory-resident, a merged arena would exceed the 4 GiB bound,
    /// or two inputs store the same label (a cross-part PRF collision).
    pub fn merge_in_memory(inputs: &[&ShardedIndex]) -> Result<Self, StorageError> {
        let bits = match inputs.first() {
            Some(first) => first.bits,
            None => return Err(StorageError::Unsupported("structural merge of zero inputs")),
        };
        if inputs.iter().any(|index| index.bits != bits) {
            return Err(StorageError::Unsupported(
                "structural merge across differing shard layouts",
            ));
        }
        let shards = (0..1usize << bits)
            .map(|s| {
                let parts = inputs
                    .iter()
                    .map(|index| {
                        index.shards[s].as_memory().ok_or(StorageError::Unsupported(
                            "structural in-memory merge of a non-resident shard",
                        ))
                    })
                    .collect::<Result<Vec<_>, StorageError>>()?;
                let entries: usize = parts.iter().map(|part| part.len()).sum();
                let bytes: u64 = parts.iter().map(|part| part.arena_raw().len() as u64).sum();
                if bytes > u64::from(u32::MAX) {
                    return Err(StorageError::Unsupported(
                        "structural shard merge past the 4 GiB region bound",
                    ));
                }
                let mut merged = EncryptedIndex::with_capacity(entries, bytes as usize);
                for part in parts {
                    for (label, offset, len) in part.entries_by_offset() {
                        if merged.get(&label).is_some() {
                            return Err(StorageError::Unsupported(
                                "structural shard merge with a cross-part label collision",
                            ));
                        }
                        merged.append_entry(
                            label,
                            &part.arena_raw()[offset as usize..(offset as usize + len as usize)],
                        );
                    }
                }
                Ok(Shard::Memory(merged))
            })
            .collect::<Result<Vec<Shard>, StorageError>>()?;
        Ok(Self { bits, shards })
    }

    /// Structurally merges saved index directories into a new index
    /// directory at `out`: per shard, the inputs' shard files are merged
    /// by `merge_shard_files` — ciphertext regions concatenated verbatim
    /// in input order, directory re-emitted with rebased offsets — and the
    /// merged files are opened as paged [`FileShard`]s (sharing one
    /// budgeted block cache when `cache_budget` is set).
    ///
    /// The output directory follows the standard commit discipline of the
    /// streamed build: `index.meta` is written first, shard files after
    /// (each tmp+renamed), and any failure sweeps the partial output
    /// before the error propagates. The caller owns the durable commit
    /// record (the update manager writes its `owner.meta` sidecar last).
    ///
    /// # Errors
    ///
    /// [`StorageError::Unsupported`] if the inputs disagree on shard bits,
    /// a merged shard would exceed the 4 GiB region bound, or two inputs
    /// store the same label — the caller's signal to fall back to a
    /// rebuild. All other failures surface as the usual typed errors.
    pub fn merge_dirs(
        inputs: &[&Path],
        out: &Path,
        cache_budget: Option<usize>,
    ) -> Result<Self, StorageError> {
        let opened = inputs
            .iter()
            .map(|dir| open_shards_from_dir(dir, None))
            .collect::<Result<Vec<(u32, Vec<FileShard>)>, StorageError>>()?;
        let bits = match opened.first() {
            Some(&(bits, _)) => bits,
            None => return Err(StorageError::Unsupported("structural merge of zero inputs")),
        };
        if opened.iter().any(|&(b, _)| b != bits) {
            return Err(StorageError::Unsupported(
                "structural merge across differing shard layouts",
            ));
        }
        formats::create_dir_all(out)?;
        let built = (|| {
            write_manifest(out, bits)?;
            let cache = cache_budget.map(|budget| Arc::new(BlockCache::new(budget)));
            let results: Vec<Result<Shard, StorageError>> = (0..1usize << bits)
                .collect::<Vec<_>>()
                .into_par_iter()
                .map(|s| {
                    let parts: Vec<FileShard> =
                        opened.iter().map(|(_, shards)| shards[s].clone()).collect();
                    let path = out.join(shard_file_name(s));
                    merge_shard_files(&parts, &path)?;
                    match &cache {
                        Some(cache) => FileShard::open_cached(&path, s as u32, Arc::clone(cache))
                            .map(Shard::File),
                        None => FileShard::open(&path).map(Shard::File),
                    }
                })
                .collect();
            let shards = results
                .into_iter()
                .collect::<Result<Vec<Shard>, StorageError>>()?;
            Ok(ShardedIndex { bits, shards })
        })();
        if built.is_err() {
            crate::storage::cleanup_partial_index(out, 1usize << bits);
        }
        built
    }

    /// Validates that `dir` holds a saved index with this layout's shard
    /// bits (cheap manifest read — used by merge planning to reject
    /// mismatched inputs before any shard file is touched).
    pub fn dir_shard_bits(dir: impl AsRef<Path>) -> Result<u32, StorageError> {
        read_manifest(dir.as_ref())
    }
}

impl IndexLookup for ShardedIndex {
    type Error = StorageError;

    fn try_get(&self, label: &Label) -> Result<Option<CipherSpan<'_>>, StorageError> {
        ShardedIndex::try_get(self, label)
    }

    /// Shard-grouped probe resolution: large probe vectors are visited in
    /// shard order so consecutive lookups hit the same (small) table, then
    /// results are written back in probe order. Small rounds — where the
    /// grouping bookkeeping would cost more than the locality buys — probe
    /// directly in input order. The first failed probe aborts the batch
    /// with its typed error.
    fn try_get_many<'a>(
        &'a self,
        labels: &[Label],
        out: &mut Vec<Option<CipherSpan<'a>>>,
    ) -> Result<(), StorageError> {
        /// Probe counts below this skip the sort-by-shard pass.
        const GROUP_THRESHOLD: usize = 64;

        out.clear();
        if self.bits == 0 || labels.len() < GROUP_THRESHOLD {
            for label in labels {
                out.push(self.try_get(label)?);
            }
            return Ok(());
        }
        out.resize(labels.len(), None);
        let mut order: Vec<(u32, u32)> = labels
            .iter()
            .enumerate()
            .map(|(slot, label)| (self.shard_of(label) as u32, slot as u32))
            .collect();
        order.sort_unstable();
        for (shard, slot) in order {
            out[slot as usize] =
                ShardStorage::try_get(&self.shards[shard as usize], &labels[slot as usize])?;
        }
        Ok(())
    }
}

/// One shard's assembly job: member entries as (chunk, entry) index pairs
/// in global order, plus the exact ciphertext byte tally.
type ShardJob = (Vec<(u32, u32)>, usize);

/// The per-entry shard scatter shared by the in-memory and on-disk builds:
/// per-shard member lists (chunk, entry index pairs in global order) plus
/// each shard's exact ciphertext byte tally.
fn scatter_members(bits: u32, chunks: &[KeywordChunk]) -> Vec<ShardJob> {
    let shard_count = 1usize << bits;

    // Pass 1: per-entry shard ids (parallel across chunks).
    let shard_ids: Vec<Vec<u16>> = chunks
        .par_iter()
        .map(|chunk| {
            chunk
                .labels
                .iter()
                .map(|label| shard_of_label(label, bits) as u16)
                .collect()
        })
        .collect();

    // Pass 2: index scatter. Only (chunk, entry) index pairs move here —
    // O(entries) u32 writes — not ciphertext bytes; the byte copying in the
    // assembly passes is fully parallel per shard.
    let mut members: Vec<Vec<(u32, u32)>> = (0..shard_count).map(|_| Vec::new()).collect();
    let mut arena_bytes: Vec<usize> = vec![0; shard_count];
    for (c, ids) in shard_ids.iter().enumerate() {
        for (e, &shard) in ids.iter().enumerate() {
            members[shard as usize].push((c as u32, e as u32));
            arena_bytes[shard as usize] += chunks[c].spans[e].1 as usize;
        }
    }
    members.into_iter().zip(arena_bytes).collect()
}

/// Distributes per-keyword chunks over `2^bits` shards and assembles every
/// shard's arena + table **in parallel**.
///
/// Three passes:
/// 1. per-entry shard ids, computed in parallel across chunks;
/// 2. a cheap sequential scatter building each shard's member list (indices
///    only — no ciphertext bytes move here) together with its exact entry
///    and byte tallies;
/// 3. one independent assembly job per shard, in parallel: append the
///    member ciphertexts to the shard arena (pre-sized exactly) and insert
///    the labels.
///
/// Entries keep the global `(keyword, counter)` order within each shard, so
/// the result is deterministic regardless of thread scheduling, and with
/// `bits == 0` the single shard is produced by the exact same
/// [`merge_chunks`] pass as the unsharded build — byte-identical output.
pub(crate) fn shard_chunks(bits: u32, chunks: Vec<KeywordChunk>) -> ShardedIndex {
    assert!(
        bits <= MAX_SHARD_BITS,
        "shard bits {bits} exceeds MAX_SHARD_BITS ({MAX_SHARD_BITS})"
    );
    if bits == 0 {
        return ShardedIndex {
            bits,
            shards: vec![Shard::Memory(merge_chunks(chunks))],
        };
    }

    let jobs = scatter_members(bits, &chunks);

    // Pass 3: per-shard assembly (parallel across shards, lock-free — each
    // job reads the shared chunks and writes only its own shard).
    let shards: Vec<Shard> = jobs
        .into_par_iter()
        .map(|(member_list, bytes)| {
            let mut shard = EncryptedIndex::with_capacity(member_list.len(), bytes);
            for (c, e) in member_list {
                let chunk = &chunks[c as usize];
                let (offset, len) = chunk.spans[e as usize];
                shard.append_entry(
                    chunk.labels[e as usize],
                    &chunk.buf[offset as usize..(offset + len) as usize],
                );
            }
            Shard::Memory(shard)
        })
        .collect();
    ShardedIndex { bits, shards }
}

/// Backend-dispatching variant of [`shard_chunks`]: in-memory configs run
/// the parallel arena assembly; on-disk configs stream every shard straight
/// into its serialized file (same entry order, hence the same bytes a
/// `save_to_dir` of the in-memory build would write) and reopen the files
/// as paged [`FileShard`]s.
pub(crate) fn shard_chunks_stored(
    config: &StorageConfig,
    chunks: Vec<KeywordChunk>,
) -> Result<ShardedIndex, StorageError> {
    match &config.backend {
        StorageBackend::InMemory => Ok(shard_chunks(config.shard_bits, chunks)),
        StorageBackend::OnDisk(dir) => {
            shard_chunks_to_dir(config.shard_bits, chunks, dir, config.cache_budget)
        }
    }
}

/// The on-disk BuildIndex tail: writes each shard's serialized file
/// directly from the per-keyword chunks (no intermediate arena), in
/// parallel across shards, then opens them as paged [`FileShard`]s
/// (sharing one budgeted block cache when `cache_budget` is set).
fn shard_chunks_to_dir(
    bits: u32,
    chunks: Vec<KeywordChunk>,
    dir: &Path,
    cache_budget: Option<usize>,
) -> Result<ShardedIndex, StorageError> {
    assert!(
        bits <= MAX_SHARD_BITS,
        "shard bits {bits} exceeds MAX_SHARD_BITS ({MAX_SHARD_BITS})"
    );
    formats::create_dir_all(dir)?;
    let built = (|| {
        write_manifest(dir, bits)?;
        let cache = cache_budget.map(|budget| Arc::new(BlockCache::new(budget)));
        let jobs: Vec<(usize, ShardJob)> = scatter_members(bits, &chunks)
            .into_iter()
            .enumerate()
            .collect();
        let results: Vec<Result<Shard, StorageError>> =
            jobs.into_par_iter()
                .map(|(i, (member_list, bytes))| {
                    let path = dir.join(shard_file_name(i));
                    write_chunk_shard(&path, &chunks, &member_list, bytes)?;
                    match &cache {
                        Some(cache) => FileShard::open_cached(&path, i as u32, Arc::clone(cache))
                            .map(Shard::File),
                        None => FileShard::open(&path).map(Shard::File),
                    }
                })
                .collect();
        let shards = results
            .into_iter()
            .collect::<Result<Vec<Shard>, StorageError>>()?;
        Ok(ShardedIndex { bits, shards })
    })();
    if built.is_err() {
        // Don't leave a half-written index behind for any caller (the
        // update manager additionally removes the directories it owns).
        crate::storage::cleanup_partial_index(dir, 1usize << bits);
    }
    built
}

impl SseScheme {
    /// [`build_index`](Self::build_index) onto the layout and backend a
    /// [`StorageConfig`] selects: same per-keyword encryption (and the same
    /// RNG consumption — one nonce seed per keyword, so every ciphertext
    /// byte is identical for every `shard_bits` and backend), with the
    /// entries distributed over `2^shard_bits` label-prefix shards that are
    /// assembled in memory or streamed straight to their serialized files.
    pub fn build_index_stored<R: RngCore + CryptoRng>(
        key: &SseKey,
        database: &SseDatabase,
        config: &StorageConfig,
        rng: &mut R,
    ) -> Result<ShardedIndex, StorageError> {
        shard_chunks_stored(config, Self::chunks_from_database(key, database, rng))
    }

    /// [`build_index_stored`](Self::build_index_stored) from pre-derived
    /// per-keyword tokens.
    ///
    /// Used by schemes (Constant-BRC/URC) whose decryption capability must
    /// come from a delegatable PRF rather than from the SSE master key; the
    /// index produced is structurally identical to `build_index_stored`'s
    /// and is searched with the exact same algorithm.
    pub fn build_index_from_token_lists_stored<R: RngCore + CryptoRng>(
        lists: &[(SearchToken, Vec<Vec<u8>>)],
        config: &StorageConfig,
        rng: &mut R,
    ) -> Result<ShardedIndex, StorageError> {
        shard_chunks_stored(config, Self::chunks_from_token_lists(lists, rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultInjectable;
    use crate::pibas::{reference, LABEL_LEN};
    use crate::storage::test_support::TempDir;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha20Rng;
    use rsse_crypto::{Key, KEY_LEN};
    use std::fs;

    /// In-memory build over `2^bits` shards.
    fn in_memory_index(
        key: &SseKey,
        db: &SseDatabase,
        bits: u32,
        rng: &mut ChaCha20Rng,
    ) -> ShardedIndex {
        SseScheme::build_index_stored(key, db, &StorageConfig::in_memory(bits), rng).unwrap()
    }

    /// Every token's decrypted payloads from one counter scan, in token
    /// order (corrupt entries skipped).
    fn scan_payloads<I: IndexLookup>(
        index: &I,
        tokens: &[SearchToken],
    ) -> Result<Vec<Vec<Vec<u8>>>, I::Error> {
        let ciphers: Vec<_> = tokens.iter().map(SearchToken::payload_cipher).collect();
        let mut results = vec![Vec::new(); tokens.len()];
        SseScheme::search_batch_scan(index, tokens, |t, ciphertext| {
            results[t].extend(ciphers[t].decrypt(ciphertext));
        })?;
        Ok(results)
    }

    fn db_from(entries: &[(Vec<u8>, Vec<u8>)]) -> SseDatabase {
        let mut db = SseDatabase::new();
        for (k, v) in entries {
            db.add(k.clone(), v.clone());
        }
        db
    }

    #[test]
    fn shard_of_label_uses_top_bits() {
        let mut label = [0u8; LABEL_LEN];
        label[0] = 0b1010_0000;
        assert_eq!(shard_of_label(&label, 0), 0);
        assert_eq!(shard_of_label(&label, 1), 1);
        assert_eq!(shard_of_label(&label, 3), 0b101);
        assert_eq!(shard_of_label(&label, 8), 0b1010_0000);
    }

    #[test]
    fn default_is_an_empty_unsharded_index() {
        let index = ShardedIndex::default();
        assert_eq!(index.shard_bits(), 0);
        assert_eq!(index.shard_count(), 1);
        assert!(index.is_empty());
        assert!(!index.is_file_backed());
        assert_eq!(index.len(), 0);
        assert!(index.try_get(&[0u8; LABEL_LEN]).unwrap().is_none());
    }

    #[test]
    fn entries_land_in_their_prefix_shard() {
        let mut rng = ChaCha20Rng::seed_from_u64(1);
        let key = SseScheme::setup(&mut rng);
        let db = db_from(
            &(0..64u64)
                .map(|i| {
                    (
                        format!("kw{}", i % 8).into_bytes(),
                        i.to_le_bytes().to_vec(),
                    )
                })
                .collect::<Vec<_>>(),
        );
        let index = in_memory_index(&key, &db, 4, &mut rng);
        assert_eq!(index.shard_count(), 16);
        assert_eq!(index.len(), 64);
        // Every shard's entries carry that shard's label prefix, and every
        // keyword remains fully searchable across the shard split.
        for shard in index.shards() {
            for label in shard
                .as_memory()
                .expect("in-memory build")
                .table_raw()
                .keys()
            {
                assert_eq!(
                    &index.shards()[index.shard_of(label)] as *const _,
                    shard as *const _
                );
            }
        }
        for kw in 0..8u64 {
            let token = SseScheme::trapdoor(&key, format!("kw{kw}").as_bytes());
            assert_eq!(SseScheme::search(&index, &token).unwrap().len(), 8);
        }
    }

    #[test]
    fn search_batch_scan_counts_match_per_token_counts() {
        let mut rng = ChaCha20Rng::seed_from_u64(2);
        let key = SseScheme::setup(&mut rng);
        let db = db_from(
            &(0..40u64)
                .map(|i| {
                    (
                        format!("kw{}", i % 5).into_bytes(),
                        i.to_le_bytes().to_vec(),
                    )
                })
                .collect::<Vec<_>>(),
        );
        let index = in_memory_index(&key, &db, 3, &mut rng);
        let tokens: Vec<SearchToken> = (0..6u64)
            .map(|kw| SseScheme::trapdoor(&key, format!("kw{kw}").as_bytes()))
            .collect();
        let counts = SseScheme::search_batch_scan(&index, &tokens, |_, _| {}).unwrap();
        let expected: Vec<usize> = tokens
            .iter()
            .map(|t| SseScheme::search_count(&index, t).unwrap())
            .collect();
        assert_eq!(counts, expected);
        assert_eq!(counts, vec![8, 8, 8, 8, 8, 0]);
    }

    #[test]
    fn file_backed_build_pages_in_only_probed_blocks() {
        // ~200 KiB of ciphertext in one shard → several 64 KiB blocks; one
        // probed keyword must not fault in the whole region.
        let mut rng = ChaCha20Rng::seed_from_u64(3);
        let key = SseScheme::setup(&mut rng);
        let mut db = SseDatabase::new();
        for kw in 0..50u64 {
            db.add(format!("kw{kw}").into_bytes(), vec![kw as u8; 4096]);
        }
        let dir = TempDir::new("paged");
        let mut rng_build = ChaCha20Rng::seed_from_u64(4);
        let index = SseScheme::build_index_stored(
            &key,
            &db,
            &StorageConfig::on_disk(0, dir.path()),
            &mut rng_build,
        )
        .unwrap();
        assert!(index.is_file_backed());
        let directory_bytes = index.len() * LABEL_LEN;
        assert_eq!(
            index.resident_bytes(),
            directory_bytes,
            "nothing faulted in yet"
        );
        let token = SseScheme::trapdoor(&key, b"kw7");
        assert_eq!(SseScheme::search(&index, &token).unwrap().len(), 1);
        let resident = index.resident_bytes() - directory_bytes;
        assert!(resident > 0, "the probed block must be resident");
        assert!(
            resident < index.storage_bytes() - directory_bytes,
            "a single probe must not fault in the whole region \
             ({resident} of {} region bytes resident)",
            index.storage_bytes() - directory_bytes
        );
    }

    /// A database whose ciphertext region spans many paged-read blocks.
    fn multi_block_db(keywords: u64, payload_len: usize) -> SseDatabase {
        let mut db = SseDatabase::new();
        for kw in 0..keywords {
            db.add(format!("kw{kw}").into_bytes(), vec![kw as u8; payload_len]);
        }
        db
    }

    #[test]
    fn budgeted_cache_bounds_residency_and_answers_identically() {
        // ~800 KiB of ciphertext → 200 cached blocks, one per entry (each
        // is larger than the 4 KiB cut of a budgeted shard). A 25% budget
        // must keep residency bounded while every query answers exactly
        // what the unbounded index answers.
        let mut rng = ChaCha20Rng::seed_from_u64(40);
        let key = SseScheme::setup(&mut rng);
        let db = multi_block_db(200, 4096);
        let dir = TempDir::new("budget");
        let mut rng_build = ChaCha20Rng::seed_from_u64(41);
        SseScheme::build_index_stored(
            &key,
            &db,
            &StorageConfig::on_disk(2, dir.path()),
            &mut rng_build,
        )
        .unwrap();

        let unbounded = ShardedIndex::open_dir(dir.path()).unwrap();
        let region_bytes = unbounded.storage_bytes() - unbounded.len() * LABEL_LEN;
        let budget = region_bytes / 4;
        let budgeted = ShardedIndex::open_dir_with_budget(dir.path(), Some(budget)).unwrap();

        for kw in 0..200u64 {
            let token = SseScheme::trapdoor(&key, format!("kw{kw}").as_bytes());
            assert_eq!(
                SseScheme::search(&budgeted, &token).unwrap(),
                SseScheme::search(&unbounded, &token).unwrap(),
                "budgeted results must be identical to unbounded for kw{kw}"
            );
            let stats = budgeted.cache_stats();
            assert!(
                stats.resident_bytes <= budget,
                "resident {} exceeds budget {budget} after kw{kw}",
                stats.resident_bytes
            );
        }
        let stats = budgeted.cache_stats();
        assert!(stats.misses > 0, "cold blocks must count as misses");
        assert!(
            stats.evictions > 0,
            "a 25% budget over a multi-block region must evict: {stats:?}"
        );
        // The unbounded index keeps everything it touched resident…
        let warm = unbounded.cache_stats();
        assert_eq!(warm.evictions, 0, "no budget, no evictions");
        assert_eq!(
            warm.resident_bytes, region_bytes,
            "everything touched stays"
        );
        // …and repeated probing of one keyword is served from cache.
        let token = SseScheme::trapdoor(&key, b"kw0");
        let before = budgeted.cache_stats();
        for _ in 0..4 {
            SseScheme::search(&budgeted, &token).unwrap();
        }
        let after = budgeted.cache_stats();
        assert!(after.hits > before.hits, "warm probes must hit the cache");
    }

    /// The paging unit: one cold probe of a budgeted index faults in one
    /// block of at most the 4 KiB cut plus the entry that crossed it, and
    /// an entry larger than the cut is a block to itself — a block
    /// boundary never splits an entry.
    #[test]
    fn cold_probe_faults_in_one_page_sized_block() {
        const CUT: usize = 4 << 10;
        for payload_len in [32usize, 6000] {
            let mut rng = ChaCha20Rng::seed_from_u64(46);
            let key = SseScheme::setup(&mut rng);
            let db = multi_block_db(400, payload_len);
            let dir = TempDir::new("page-unit");
            SseScheme::build_index_stored(
                &key,
                &db,
                &StorageConfig::on_disk(0, dir.path()),
                &mut rng,
            )
            .unwrap();
            let index = ShardedIndex::open_dir_with_budget(dir.path(), Some(1 << 20)).unwrap();
            let entry = (index.storage_bytes() - index.len() * LABEL_LEN) / index.len();
            assert!(entry >= payload_len && 400 * entry > 4 * CUT);

            let token = SseScheme::trapdoor(&key, b"kw7");
            assert_eq!(
                SseScheme::search(&index, &token).unwrap(),
                vec![vec![7u8; payload_len]]
            );
            let stats = index.cache_stats();
            assert_eq!(stats.misses, 1, "one hit entry, one block read");
            if entry > CUT {
                assert_eq!(
                    stats.resident_bytes, entry,
                    "an oversized entry is its own block"
                );
            } else {
                assert!(
                    stats.resident_bytes > 0 && stats.resident_bytes < CUT + entry,
                    "resident {} after one cold probe of {entry}-byte entries",
                    stats.resident_bytes
                );
            }
        }
    }

    #[test]
    fn zero_budget_still_answers_with_nothing_resident() {
        let mut rng = ChaCha20Rng::seed_from_u64(42);
        let key = SseScheme::setup(&mut rng);
        let db = multi_block_db(40, 2048);
        let dir = TempDir::new("budget-zero");
        let mut rng_build = ChaCha20Rng::seed_from_u64(43);
        SseScheme::build_index_stored(
            &key,
            &db,
            &StorageConfig::on_disk(0, dir.path()),
            &mut rng_build,
        )
        .unwrap();
        let index = ShardedIndex::open_dir_with_budget(dir.path(), Some(0)).unwrap();
        for kw in 0..40u64 {
            let token = SseScheme::trapdoor(&key, format!("kw{kw}").as_bytes());
            assert_eq!(SseScheme::search(&index, &token).unwrap().len(), 1);
        }
        let stats = index.cache_stats();
        assert_eq!(stats.resident_bytes, 0, "nothing fits a zero budget");
        assert_eq!(stats.hits, 0);
        assert!(stats.misses > 0);
    }

    #[test]
    fn injected_faults_surface_as_storage_errors() {
        let mut rng = ChaCha20Rng::seed_from_u64(44);
        let key = SseScheme::setup(&mut rng);
        let db = db_from(
            &(0..24u64)
                .map(|i| {
                    (
                        format!("kw{}", i % 3).into_bytes(),
                        i.to_le_bytes().to_vec(),
                    )
                })
                .collect::<Vec<_>>(),
        );
        let mut index = in_memory_index(&key, &db, 2, &mut rng);
        let token = SseScheme::trapdoor(&key, b"kw1");
        assert_eq!(SseScheme::search(&index, &token).unwrap().len(), 8);

        // Let the first 3 probes through, then fail everything: the scan
        // (8 hits + 1 terminating miss) must abort with the typed error
        // instead of returning a silently shortened result.
        index.inject_read_faults(3);
        match SseScheme::search(&index, &token) {
            Err(StorageError::Io { path, .. }) => {
                assert_eq!(path, Path::new(FaultShard::FAULT_PATH));
            }
            other => panic!("expected Err(Io), got {other:?}"),
        }
        // The batched scan fails the same way…
        assert!(scan_payloads(&index, std::slice::from_ref(&token)).is_err());
        // …and try_search reports it as a storage failure, not corruption.
        match SseScheme::try_search(&index, &token) {
            Err(crate::pibas::SearchError::Storage(StorageError::Io { .. })) => {}
            other => panic!("expected Storage error, got {other:?}"),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The PR 2 acceptance property, still pinned: a `shard_bits = 0`
        /// in-memory ShardedIndex is **byte-identical** to the PR 1
        /// arena-backed `EncryptedIndex` — same arena bytes, same offset
        /// table — given the same key and RNG stream.
        #[test]
        fn unsharded_is_byte_identical_to_plain_arena(entries in proptest::collection::vec(
            (proptest::collection::vec(any::<u8>(), 1..6),
             proptest::collection::vec(any::<u8>(), 0..32)), 0..60),
            seed in any::<u64>())
        {
            let db = db_from(&entries);
            let key = SseScheme::key_from(Key::from_bytes([0x5A; KEY_LEN]));

            let mut rng_flat = ChaCha20Rng::seed_from_u64(seed);
            let flat = SseScheme::build_index(&key, &db, &mut rng_flat);
            let mut rng_sharded = ChaCha20Rng::seed_from_u64(seed);
            let sharded = in_memory_index(&key, &db, 0, &mut rng_sharded);

            prop_assert_eq!(sharded.shard_count(), 1);
            let shard = sharded.shards()[0].as_memory().expect("in-memory build");
            prop_assert_eq!(shard.arena_bytes_raw(), flat.arena_bytes_raw(),
                "k=0 shard arena must be byte-identical to the flat arena");
            prop_assert_eq!(shard.table_raw(), flat.table_raw(),
                "k=0 shard offset table must equal the flat table");
        }

        /// Sharding is layout-only: for arbitrary multimaps and any k, the
        /// sharded index stores the same (label, ciphertext) pairs as the
        /// k=0 build and answers every keyword search identically.
        #[test]
        fn sharded_search_equals_unsharded_for_random_datasets(entries in proptest::collection::vec(
            (proptest::collection::vec(any::<u8>(), 1..5),
             proptest::collection::vec(any::<u8>(), 0..24)), 0..50),
            bits in 1u32..9,
            seed in any::<u64>())
        {
            let db = db_from(&entries);
            let key = SseScheme::key_from(Key::from_bytes([0xC3; KEY_LEN]));

            let mut rng_flat = ChaCha20Rng::seed_from_u64(seed);
            let flat = in_memory_index(&key, &db, 0, &mut rng_flat);
            let mut rng_sharded = ChaCha20Rng::seed_from_u64(seed);
            let sharded = in_memory_index(&key, &db, bits, &mut rng_sharded);

            prop_assert_eq!(sharded.len(), flat.len());
            prop_assert_eq!(sharded.storage_bytes(), flat.storage_bytes());
            // Entry-level equality: every label resolves to the same bytes.
            for shard in flat.shards() {
                for label in shard.as_memory().expect("in-memory build").table_raw().keys() {
                    prop_assert_eq!(
                        sharded.try_get(label).unwrap().map(|s| s.to_vec()),
                        flat.try_get(label).unwrap().map(|s| s.to_vec())
                    );
                }
            }
            // Search-level equality, per-token and batched.
            let tokens: Vec<SearchToken> = db.iter()
                .map(|(kw, _)| SseScheme::trapdoor(&key, kw))
                .collect();
            for token in &tokens {
                prop_assert_eq!(
                    SseScheme::search(&sharded, token).unwrap(),
                    SseScheme::search(&flat, token).unwrap()
                );
            }
            let batched = scan_payloads(&sharded, &tokens).unwrap();
            let per_token: Vec<Vec<Vec<u8>>> = tokens.iter()
                .map(|t| SseScheme::search(&flat, t).unwrap())
                .collect();
            prop_assert_eq!(batched, per_token);
        }

        /// Regression: the counter scan on a *shuffled* token vector
        /// returns, per token, exactly what the single-token reference walk
        /// (`pibas::reference::search` over the per-entry dictionary — no
        /// code shared with the scan) returns — so the result multiset over
        /// the whole vector is independent of token order and of batching.
        #[test]
        fn search_batch_on_shuffled_tokens_matches_per_token_search(
            entries in proptest::collection::vec(
                (proptest::collection::vec(any::<u8>(), 1..4),
                 proptest::collection::vec(any::<u8>(), 0..16)), 0..40),
            bits in 0u32..7,
            by in 0usize..13,
            seed in any::<u64>())
        {
            let db = db_from(&entries);
            let mut rng = ChaCha20Rng::seed_from_u64(seed);
            let key = SseScheme::setup(&mut rng);
            let oracle = reference::build_index(&key, &db, &mut rng.clone());
            let index = in_memory_index(&key, &db, bits, &mut rng);

            // Tokens for every keyword plus two absent ones, then shuffled
            // (deterministic rotation + reversal keeps proptest shrinking sane).
            let mut tokens: Vec<SearchToken> = db.iter()
                .map(|(kw, _)| SseScheme::trapdoor(&key, kw))
                .collect();
            tokens.push(SseScheme::trapdoor(&key, b"absent-1"));
            tokens.push(SseScheme::trapdoor(&key, b"absent-2"));
            let split = by % tokens.len().max(1);
            tokens.rotate_left(split);
            tokens.reverse();

            let batched = scan_payloads(&index, &tokens).unwrap();
            let per_token: Vec<Vec<Vec<u8>>> = tokens.iter()
                .map(|t| reference::search(&oracle, t))
                .collect();
            prop_assert_eq!(&batched, &per_token, "per-token results must be identical");
            for (token, expected) in tokens.iter().zip(&per_token) {
                prop_assert_eq!(&SseScheme::search(&index, token).unwrap(), expected);
            }

            // Multiset equality over the flattened result vector.
            let mut flat_batched: Vec<Vec<u8>> = batched.into_iter().flatten().collect();
            let mut flat_single: Vec<Vec<u8>> = per_token.into_iter().flatten().collect();
            flat_batched.sort();
            flat_single.sort();
            prop_assert_eq!(flat_batched, flat_single);
        }

        /// PR 3 acceptance property (a): a file-backed build — same key,
        /// same RNG stream — resolves every label to the same bytes and
        /// answers every search identically to the in-memory arena, at
        /// shard_bits ∈ {0, 4}.
        #[test]
        fn file_backed_build_equals_in_memory(entries in proptest::collection::vec(
            (proptest::collection::vec(any::<u8>(), 1..5),
             proptest::collection::vec(any::<u8>(), 0..24)), 0..40),
            four_bits in any::<bool>(),
            seed in any::<u64>())
        {
            let bits = if four_bits { 4 } else { 0 };
            let db = db_from(&entries);
            let key = SseScheme::key_from(Key::from_bytes([0x3C; KEY_LEN]));

            let mut rng_mem = ChaCha20Rng::seed_from_u64(seed);
            let memory = in_memory_index(&key, &db, bits, &mut rng_mem);
            let dir = TempDir::new("prop-eq");
            let mut rng_file = ChaCha20Rng::seed_from_u64(seed);
            let file = SseScheme::build_index_stored(
                &key, &db, &StorageConfig::on_disk(bits, dir.path()), &mut rng_file).unwrap();

            prop_assert!(file.is_file_backed());
            prop_assert_eq!(file.len(), memory.len());
            prop_assert_eq!(file.storage_bytes(), memory.storage_bytes());
            for shard in memory.shards() {
                for label in shard.as_memory().expect("in-memory build").table_raw().keys() {
                    prop_assert_eq!(
                        file.try_get(label).unwrap().map(|s| s.to_vec()),
                        memory.try_get(label).unwrap().map(|s| s.to_vec())
                    );
                }
            }
            let tokens: Vec<SearchToken> = db.iter()
                .map(|(kw, _)| SseScheme::trapdoor(&key, kw))
                .collect();
            for token in &tokens {
                prop_assert_eq!(
                    SseScheme::search(&file, token).unwrap(),
                    SseScheme::search(&memory, token).unwrap()
                );
            }
            let batched = scan_payloads(&file, &tokens).unwrap();
            prop_assert_eq!(batched, scan_payloads(&memory, &tokens).unwrap());
        }

        /// PR 3 acceptance property (b): `save_to_dir` → `open_dir` →
        /// `save_to_dir` round-trips **byte-identically** (every shard file
        /// and the manifest), at shard_bits ∈ {0, 4} — and the streamed
        /// on-disk build writes those exact bytes in the first place.
        #[test]
        fn save_open_save_round_trips_byte_identically(entries in proptest::collection::vec(
            (proptest::collection::vec(any::<u8>(), 1..5),
             proptest::collection::vec(any::<u8>(), 0..24)), 0..40),
            four_bits in any::<bool>(),
            seed in any::<u64>())
        {
            let bits = if four_bits { 4 } else { 0 };
            let db = db_from(&entries);
            let key = SseScheme::key_from(Key::from_bytes([0x77; KEY_LEN]));

            let mut rng = ChaCha20Rng::seed_from_u64(seed);
            let memory = in_memory_index(&key, &db, bits, &mut rng);

            let saved = TempDir::new("prop-rt-a");
            memory.save_to_dir(saved.path()).unwrap();
            let reopened = ShardedIndex::open_dir(saved.path()).unwrap();
            prop_assert_eq!(reopened.shard_bits(), bits);
            prop_assert_eq!(reopened.len(), memory.len());

            let resaved = TempDir::new("prop-rt-b");
            reopened.save_to_dir(resaved.path()).unwrap();
            prop_assert!(dirs_equal(saved.path(), resaved.path()),
                "save → open → save must be byte-identical");

            // The streamed build writes the same bytes as save_to_dir.
            let streamed = TempDir::new("prop-rt-c");
            let mut rng_stream = ChaCha20Rng::seed_from_u64(seed);
            SseScheme::build_index_stored(
                &key, &db, &StorageConfig::on_disk(bits, streamed.path()), &mut rng_stream).unwrap();
            prop_assert!(dirs_equal(saved.path(), streamed.path()),
                "streamed build must write the bytes save_to_dir writes");
        }
    }

    /// Builds one in-memory index per key byte over disjoint keyword sets,
    /// so cross-part labels are distinct (different SSE keys).
    fn merge_parts(bits: u32, key_bytes: &[u8]) -> Vec<(SseKey, ShardedIndex)> {
        key_bytes
            .iter()
            .map(|&byte| {
                let key = SseScheme::key_from(Key::from_bytes([byte; KEY_LEN]));
                let db = db_from(
                    &(0..24u64)
                        .map(|i| {
                            (
                                format!("p{byte}-kw{}", i % 6).into_bytes(),
                                (u64::from(byte) * 1000 + i).to_le_bytes().to_vec(),
                            )
                        })
                        .collect::<Vec<_>>(),
                );
                let mut rng = ChaCha20Rng::seed_from_u64(u64::from(byte));
                let index = in_memory_index(&key, &db, bits, &mut rng);
                (key, index)
            })
            .collect()
    }

    #[test]
    fn in_memory_merge_keeps_every_part_searchable() {
        let parts = merge_parts(2, &[1, 2, 3]);
        let inputs: Vec<&ShardedIndex> = parts.iter().map(|(_, index)| index).collect();
        let merged = ShardedIndex::merge_in_memory(&inputs).unwrap();
        assert_eq!(merged.shard_bits(), 2);
        assert_eq!(
            merged.len(),
            parts.iter().map(|(_, index)| index.len()).sum::<usize>()
        );
        for (key, index) in &parts {
            for kw in 0..7u64 {
                for byte in 1u8..=3 {
                    let token = SseScheme::trapdoor(key, format!("p{byte}-kw{kw}").as_bytes());
                    let merged_hits = SseScheme::search(&merged, &token).unwrap();
                    let part_hits = SseScheme::search(index, &token).unwrap();
                    assert_eq!(
                        merged_hits, part_hits,
                        "part key must see exactly its own entries in the merge"
                    );
                }
            }
        }
    }

    #[test]
    fn dir_merge_answers_like_the_in_memory_merge_and_reopens_resident() {
        let parts = merge_parts(2, &[5, 6, 7]);
        let dirs: Vec<TempDir> = (0..parts.len())
            .map(|i| TempDir::new(&format!("merge-in-{i}")))
            .collect();
        for ((_, index), dir) in parts.iter().zip(&dirs) {
            index.save_to_dir(dir.path()).unwrap();
        }
        let out = TempDir::new("merge-out");
        let input_paths: Vec<&Path> = dirs.iter().map(|d| d.path()).collect();
        let merged_paged = ShardedIndex::merge_dirs(&input_paths, out.path(), None).unwrap();
        assert!(merged_paged.is_file_backed());
        assert_eq!(ShardedIndex::dir_shard_bits(out.path()).unwrap(), 2);

        let inputs: Vec<&ShardedIndex> = parts.iter().map(|(_, index)| index).collect();
        let merged_memory = ShardedIndex::merge_in_memory(&inputs).unwrap();
        assert_eq!(merged_paged.len(), merged_memory.len());

        // A resident reopen of the merged directory is byte-identical to
        // the in-memory merge: same arena bytes, same offset tables.
        let resident = ShardedIndex::open_dir_resident(out.path()).unwrap();
        assert!(!resident.is_file_backed());
        for (a, b) in resident.shards().iter().zip(merged_memory.shards()) {
            let a = a.as_memory().unwrap();
            let b = b.as_memory().unwrap();
            assert_eq!(a.arena_bytes_raw(), b.arena_bytes_raw());
            assert_eq!(a.table_raw(), b.table_raw());
        }

        // And every probe through the paged merge answers like the
        // in-memory one.
        for (key, _) in &parts {
            for kw in 0..6u64 {
                for byte in 5u8..=7 {
                    let token = SseScheme::trapdoor(key, format!("p{byte}-kw{kw}").as_bytes());
                    assert_eq!(
                        SseScheme::search(&merged_paged, &token).unwrap(),
                        SseScheme::search(&merged_memory, &token).unwrap()
                    );
                }
            }
        }
    }

    #[test]
    fn merge_rejects_layout_mismatch_collisions_and_empty_input() {
        let a = merge_parts(2, &[9]).remove(0).1;
        let b = merge_parts(3, &[10]).remove(0).1;
        assert!(matches!(
            ShardedIndex::merge_in_memory(&[&a, &b]),
            Err(StorageError::Unsupported(_))
        ));
        // Merging an index with itself duplicates every label.
        assert!(matches!(
            ShardedIndex::merge_in_memory(&[&a, &a]),
            Err(StorageError::Unsupported(_))
        ));
        assert!(matches!(
            ShardedIndex::merge_in_memory(&[]),
            Err(StorageError::Unsupported(_))
        ));

        let dir_a = TempDir::new("merge-err-a");
        let dir_b = TempDir::new("merge-err-b");
        a.save_to_dir(dir_a.path()).unwrap();
        b.save_to_dir(dir_b.path()).unwrap();
        let out = TempDir::new("merge-err-out");
        assert!(matches!(
            ShardedIndex::merge_dirs(&[dir_a.path(), dir_b.path()], out.path(), None),
            Err(StorageError::Unsupported(_))
        ));
        // The failed merge swept its partial output.
        let leftovers: Vec<_> = fs::read_dir(out.path())
            .map(|it| it.map(|e| e.unwrap().file_name()).collect())
            .unwrap_or_default();
        assert!(leftovers.is_empty(), "failed merge left {leftovers:?}");

        let out_dup = TempDir::new("merge-err-dup");
        assert!(matches!(
            ShardedIndex::merge_dirs(&[dir_a.path(), dir_a.path()], out_dup.path(), None),
            Err(StorageError::Unsupported(_))
        ));
    }

    /// Compares two saved index directories file by file.
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
}
