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
//! * **Fully parallel BuildIndex assembly.** The build appends each batch
//!   with one *independent* job per shard (see the
//!   [`external`](crate::external) module), so the byte-copying and table
//!   insertion fan out across cores with no single-threaded append.
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
//!   served via paged reads — see
//!   [`StorageConfig`](crate::storage::StorageConfig) and the
//!   [`storage`](crate::storage) module. [`ShardedIndex::save_to_dir`] and
//!   [`ShardedIndex::open_dir`] persist an index across processes.
//!
//! With `k = 0` the in-memory index is a single shard whose arena and table
//! are **byte-identical** to the reference build's unsharded
//! [`EncryptedIndex`] — the property test
//! `unsharded_is_byte_identical_to_plain_arena` pins this, so the sharded
//! type is a strict generalization, not a fork.

use crate::formats;
use crate::pibas::{CipherSpan, EncryptedIndex, IndexLookup, Label};
use crate::storage::{
    merge_shard_files, open_shards_from_dir, read_manifest, save_shards_to_dir, shard_file_name,
    write_manifest, BlockCache, CacheStats, FileShard, ShardStorage, StorageError,
};
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
}

impl Shard {
    /// The in-memory backend of this shard, if that is what it is.
    pub fn as_memory(&self) -> Option<&EncryptedIndex> {
        match self {
            Shard::Memory(index) => Some(index),
            Shard::File(_) => None,
        }
    }

    /// Loads `label`'s table slot ahead of its probe (the
    /// [`IndexLookup::prefetch`] hint). A hint is no probe: it passes no
    /// probe gate.
    fn prefetch(&self, label: &Label) {
        match self {
            Shard::Memory(index) => index.table.prefetch(label),
            Shard::File(shard) => shard.prefetch(label),
        }
    }

    /// Returns this shard's stored ciphertexts (copied out; used by
    /// leakage-oriented tests and tooling).
    pub fn ciphertexts(&self) -> Result<Vec<Vec<u8>>, StorageError> {
        match self {
            Shard::Memory(index) => Ok(index.ciphertexts().map(<[u8]>::to_vec).collect()),
            Shard::File(shard) => shard.ciphertexts(),
        }
    }
}

impl ShardStorage for Shard {
    fn try_get(&self, label: &Label) -> Result<Option<CipherSpan<'_>>, StorageError> {
        match self {
            Shard::Memory(index) => Ok(index.get(label).map(CipherSpan::borrowed)),
            Shard::File(shard) => ShardStorage::try_get(shard, label),
        }
    }

    fn len(&self) -> usize {
        match self {
            Shard::Memory(index) => index.len(),
            Shard::File(shard) => ShardStorage::len(shard),
        }
    }

    fn storage_bytes(&self) -> usize {
        match self {
            Shard::Memory(index) => index.storage_bytes(),
            Shard::File(shard) => ShardStorage::storage_bytes(shard),
        }
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
/// use rsse_sse::{build_index_external_with, SpillOrder, SseScheme, StorageConfig};
///
/// let mut rng = rand_chacha::ChaCha20Rng::seed_from_u64(1);
/// let key = SseScheme::setup(&mut rng);
/// let entries = (0..100u64).map(|i| (*b"w", i.to_le_bytes()));
/// let token_of = |keyword: &[u8; 1], _: &mut Vec<[u8; 8]>| SseScheme::trapdoor(&key, keyword);
///
/// // 2^4 = 16 shards; entries distribute by label prefix.
/// let config = StorageConfig::in_memory(4);
/// let index =
///     build_index_external_with(entries, SpillOrder::ByKeyword, token_of, &config, &mut rng)
///         .unwrap();
/// assert_eq!(index.shard_count(), 16);
/// assert_eq!(index.len(), 100);
///
/// // Same search API as the unsharded index.
/// let token = SseScheme::trapdoor(&key, b"w");
/// assert_eq!(SseScheme::search_count(&index, &token).unwrap(), 100);
/// ```
///
/// Persistence: an index can be saved to (or built straight into) a
/// directory and cold-opened by a later process:
///
/// ```
/// use rand::SeedableRng;
/// use rsse_sse::{build_index_external_with, ShardedIndex, SpillOrder, SseScheme, StorageConfig};
///
/// let mut rng = rand_chacha::ChaCha20Rng::seed_from_u64(2);
/// let key = SseScheme::setup(&mut rng);
/// let token_of = |keyword: &[u8; 1], _: &mut Vec<[u8; 7]>| SseScheme::trapdoor(&key, keyword);
/// let config = StorageConfig::in_memory(2);
/// let index = build_index_external_with(
///     [(*b"w", *b"payload")],
///     SpillOrder::ByKeyword,
///     token_of,
///     &config,
///     &mut rng,
/// )
/// .unwrap();
///
/// let dir = std::env::temp_dir().join(format!("rsse-doc-{}", std::process::id()));
/// index.save_to_dir(&dir).unwrap();
/// drop(index);
///
/// let reopened = ShardedIndex::open_dir(&dir).unwrap();
/// let token = SseScheme::trapdoor(&key, b"w");
/// assert_eq!(SseScheme::search_count(&reopened, &token).unwrap(), 1);
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
    /// Assembles an index from already-built shards. `shards.len()` must
    /// be `2^bits`.
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
        self.shards.iter().any(|s| matches!(s, Shard::File(_)))
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

    /// Bytes currently resident in memory: every shard's label table as
    /// allocated (a tag and a 24-byte slot per slot, at a load of at most
    /// 3/4), plus an in-memory shard's whole arena or the region blocks a
    /// file-backed shard has faulted in so far (bounded by the cache budget
    /// when one is set). The blocks are the part the spill-to-disk backend
    /// exists to bound.
    pub fn resident_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| match shard {
                Shard::Memory(index) => index.resident_bytes(),
                Shard::File(file) => file.directory_bytes() + file.resident_bytes(),
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
            .map(|shard| match shard {
                Shard::File(file) => file.read_errors(),
                Shard::Memory(_) => 0,
            })
            .sum()
    }

    /// Aggregated block-cache counters of all file-backed shards: probe
    /// hits and misses, evictions performed to stay inside the
    /// [`StorageConfig::cache_budget`](crate::StorageConfig::cache_budget),
    /// and the ciphertext-block bytes
    /// currently resident (always 0 hits/misses/resident for a fully
    /// in-memory index, whose arenas bypass the block layer).
    pub fn cache_stats(&self) -> CacheStats {
        let mut stats = CacheStats::default();
        let mut caches: Vec<*const BlockCache> = Vec::new();
        for shard in &self.shards {
            if let Shard::File(file) = shard {
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

    /// Serializes every shard (plus an `index.meta` manifest) into `dir`,
    /// creating it if needed. Works for both backends; shard files are
    /// written in parallel and the output is deterministic, so saving the
    /// same index twice produces byte-identical directories.
    pub fn save_to_dir(&self, dir: impl AsRef<Path>) -> Result<(), StorageError> {
        save_shards_to_dir(dir.as_ref(), self.bits, &self.shards)
    }

    /// Cold-opens an index previously written by [`save_to_dir`] (or built
    /// straight to disk through a
    /// [`StorageConfig::on_disk`](crate::StorageConfig::on_disk) build): loads
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
                    FileShard::open_shard(&path, s as u32, bits, cache.clone()).map(Shard::File)
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

    /// Routes each label's hint to its shard.
    fn prefetch(&self, labels: &[Label]) {
        for label in labels {
            self.shards[self.shard_of(label)].prefetch(label);
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::formats::arm_faults;
    use crate::pibas::reference::{self, build_stored, search, search_batch_scan};
    use crate::pibas::{SearchToken, SseKey, SseScheme, LABEL_LEN};
    use crate::storage::test_support::TempDir;
    use crate::storage::StorageConfig;
    use crate::{build_index_external_with, SpillOrder, SseDatabase};
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha20Rng;
    use rsse_crypto::{Key, KEY_LEN};
    use std::collections::BTreeSet;
    use std::fs;

    /// The reference build, in memory over `2^bits` shards.
    fn in_memory_index(
        key: &SseKey,
        db: &SseDatabase,
        bits: u32,
        rng: &mut ChaCha20Rng,
    ) -> ShardedIndex {
        build_stored(key, db, &StorageConfig::in_memory(bits), rng).unwrap()
    }

    /// Every token's decrypted payloads from one counter scan, in token
    /// order (corrupt entries skipped).
    fn scan_payloads<I: IndexLookup>(
        index: &I,
        tokens: &[SearchToken],
    ) -> Result<Vec<Vec<Vec<u8>>>, I::Error> {
        let ciphers: Vec<_> = tokens.iter().map(SearchToken::payload_cipher).collect();
        let mut results = vec![Vec::new(); tokens.len()];
        search_batch_scan(index, tokens, |t, ciphertext| {
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

    /// Fixed-stride entries from generated `(keyword, payload)` numbers.
    fn fixed_entries(raw: &[(u16, u64)]) -> Vec<([u8; 2], [u8; 8])> {
        raw.iter()
            .map(|&(keyword, payload)| (keyword.to_be_bytes(), payload.to_le_bytes()))
            .collect()
    }

    /// The pipeline over `entries`, each keyword's list in arrival order.
    fn pipeline_index(
        key: &SseKey,
        entries: &[([u8; 2], [u8; 8])],
        config: &StorageConfig,
        rng: &mut ChaCha20Rng,
    ) -> ShardedIndex {
        build_index_external_with(
            entries.iter().copied(),
            SpillOrder::ByKeyword,
            |keyword: &[u8; 2], _: &mut Vec<[u8; 8]>| SseScheme::trapdoor(key, keyword),
            config,
            rng,
        )
        .unwrap()
    }

    /// One token per distinct keyword of `entries`.
    fn keyword_tokens(key: &SseKey, entries: &[([u8; 2], [u8; 8])]) -> Vec<SearchToken> {
        let keywords: BTreeSet<[u8; 2]> = entries.iter().map(|(keyword, _)| *keyword).collect();
        keywords
            .iter()
            .map(|keyword| SseScheme::trapdoor(key, keyword))
            .collect()
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
            assert_eq!(search(&index, &token).unwrap().len(), 8);
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
        let counts = search_batch_scan(&index, &tokens, |_, _| {}).unwrap();
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
        let index = build_stored(
            &key,
            &db,
            &StorageConfig::on_disk(0, dir.path()),
            &mut rng_build,
        )
        .unwrap();
        assert!(index.is_file_backed());
        // The resident directory is the label table as allocated: 50
        // entries at a load of at most 3/4 take 128 slots of a tag byte
        // and a 24-byte slot each.
        let directory_bytes = 128 * 25;
        assert_eq!(
            index.resident_bytes(),
            directory_bytes,
            "nothing faulted in yet"
        );
        let token = SseScheme::trapdoor(&key, b"kw7");
        assert_eq!(search(&index, &token).unwrap().len(), 1);
        let resident = index.resident_bytes() - directory_bytes;
        let region_bytes = index.storage_bytes() - index.len() * LABEL_LEN;
        assert!(resident > 0, "the probed block must be resident");
        assert!(
            resident < region_bytes,
            "a single probe must not fault in the whole region \
             ({resident} of {region_bytes} region bytes resident)",
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
        build_stored(
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
                search(&budgeted, &token).unwrap(),
                search(&unbounded, &token).unwrap(),
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
            search(&budgeted, &token).unwrap();
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
            build_stored(&key, &db, &StorageConfig::on_disk(0, dir.path()), &mut rng).unwrap();
            let index = ShardedIndex::open_dir_with_budget(dir.path(), Some(1 << 20)).unwrap();
            let entry = (index.storage_bytes() - index.len() * LABEL_LEN) / index.len();
            assert!(entry >= payload_len && 400 * entry > 4 * CUT);

            let token = SseScheme::trapdoor(&key, b"kw7");
            assert_eq!(
                search(&index, &token).unwrap(),
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
        build_stored(
            &key,
            &db,
            &StorageConfig::on_disk(0, dir.path()),
            &mut rng_build,
        )
        .unwrap();
        let index = ShardedIndex::open_dir_with_budget(dir.path(), Some(0)).unwrap();
        for kw in 0..40u64 {
            let token = SseScheme::trapdoor(&key, format!("kw{kw}").as_bytes());
            assert_eq!(search(&index, &token).unwrap().len(), 1);
        }
        let stats = index.cache_stats();
        assert_eq!(stats.resident_bytes, 0, "nothing fits a zero budget");
        assert_eq!(stats.hits, 0);
        assert!(stats.misses > 0);
    }

    /// `IndexLookup::prefetch` is a hint and nothing else: on a budgeted
    /// on-disk index (budget 0, then one 4 KiB block) under an armed fault
    /// plan, prefetching every label a query will probe — and labels past
    /// its list — reads no block, moves no cache counter and consults no
    /// injector, while the queries between the hints move all of them.
    #[test]
    fn prefetch_reads_no_block_and_consults_no_injector() {
        use crate::pibas::TokenLabeler;

        let mut rng = ChaCha20Rng::seed_from_u64(45);
        let key = SseScheme::setup(&mut rng);
        let db = db_from(
            &(0..96u64)
                .map(|i| {
                    (
                        format!("kw{}", i % 6).into_bytes(),
                        i.to_le_bytes().to_vec(),
                    )
                })
                .collect::<Vec<_>>(),
        );
        let dir = TempDir::new("prefetch");
        build_stored(&key, &db, &StorageConfig::on_disk(2, dir.path()), &mut rng).unwrap();
        for budget in [0, 4 << 10] {
            let index = ShardedIndex::open_dir_with_budget(dir.path(), Some(budget)).unwrap();
            let injector = arm_faults(dir.path(), FaultPlan::seeded(3).fault_rate(0.25), None);
            let counters = |index: &ShardedIndex| {
                (
                    index.cache_stats(),
                    index.read_errors(),
                    injector.probes_issued(),
                    injector.faults_injected(),
                )
            };
            // Keyword 6 is absent: its every label misses.
            for kw in 0..7u64 {
                let token = SseScheme::trapdoor(&key, format!("kw{kw}").as_bytes());
                let labeler = TokenLabeler::new(&token);
                let labels: Vec<Label> = (0..32).map(|c| labeler.label_at(c)).collect();
                let before = counters(&index);
                IndexLookup::prefetch(&index, &labels);
                assert_eq!(counters(&index), before, "budget {budget}, kw{kw}");
                // The query itself probes, reads and draws faults.
                let _ = search(&index, &token);
                assert!(injector.probes_issued() > before.2);
            }
            assert!(injector.faults_injected() > 0);
            assert!(index.cache_stats().misses > 0);
        }
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
        let dir = TempDir::new("injected-faults");
        let index =
            build_stored(&key, &db, &StorageConfig::on_disk(2, dir.path()), &mut rng).unwrap();
        let token = SseScheme::trapdoor(&key, b"kw1");
        assert_eq!(search(&index, &token).unwrap().len(), 8);

        // Let the first 3 probes through, then fail everything: the scan
        // (8 hits + 1 terminating miss) must abort with the typed error
        // instead of returning a silently shortened result. The error names
        // the file the fourth probe (counter 3) was routed to.
        let _faults = arm_faults(dir.path(), FaultPlan::dead_after(3), None);
        let failing = crate::pibas::TokenLabeler::new(&token).label_at(3);
        let failing_file = dir.path().join(shard_file_name(index.shard_of(&failing)));
        match search(&index, &token) {
            Err(StorageError::Io { path, .. }) => {
                assert_eq!(path, failing_file);
            }
            other => panic!("expected Err(Io), got {other:?}"),
        }
        // The batched scan fails the same way…
        assert!(scan_payloads(&index, std::slice::from_ref(&token)).is_err());
        // …and try_search reports it as a storage failure, not corruption.
        match reference::try_search(&index, &token) {
            Err(reference::SearchError::Storage(StorageError::Io { .. })) => {}
            other => panic!("expected Storage error, got {other:?}"),
        }
    }

    /// A fault scope covers its prefix and nothing else: two on-disk
    /// indexes under sibling roots are probed from two threads while one
    /// root is armed to fail every probe. The other answers exactly as it
    /// does fault-free, the scope counts only its own root's probes, the
    /// armed index answers fault-free once the scope drops, and a prefix
    /// with no shard file under it draws no probe at all.
    #[test]
    fn fault_scopes_cover_their_prefix_and_disarm_on_drop() {
        let mut rng = ChaCha20Rng::seed_from_u64(46);
        let key = SseScheme::setup(&mut rng);
        let db = db_from(
            &(0..64u64)
                .map(|i| {
                    (
                        format!("kw{}", i % 4).into_bytes(),
                        i.to_le_bytes().to_vec(),
                    )
                })
                .collect::<Vec<_>>(),
        );
        let (root_a, root_b) = (TempDir::new("scope-a"), TempDir::new("scope-b"));
        let a = build_stored(
            &key,
            &db,
            &StorageConfig::on_disk(2, root_a.path()),
            &mut rng,
        )
        .unwrap();
        let b = build_stored(
            &key,
            &db,
            &StorageConfig::on_disk(1, root_b.path()),
            &mut rng,
        )
        .unwrap();
        let tokens: Vec<SearchToken> = (0..4)
            .map(|kw| SseScheme::trapdoor(&key, format!("kw{kw}").as_bytes()))
            .collect();
        let answers = |index: &ShardedIndex| -> Vec<Vec<Vec<u8>>> {
            tokens.iter().map(|t| search(index, t).unwrap()).collect()
        };
        let (reference_a, reference_b) = (answers(&a), answers(&b));

        let scope = arm_faults(root_a.path(), FaultPlan::seeded(1).fault_rate(1.0), None);
        let rounds = 50;
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|threads| {
            threads.spawn(|| {
                start.wait();
                for _ in 0..rounds {
                    for token in &tokens {
                        assert!(matches!(
                            search(&a, token),
                            Err(StorageError::Io { path, .. }) if path.starts_with(root_a.path())
                        ));
                    }
                }
            });
            threads.spawn(|| {
                start.wait();
                for _ in 0..rounds {
                    assert_eq!(answers(&b), reference_b, "the unarmed root is untouched");
                }
            });
        });
        // Every search of A fails at its first probe; B's probes count nowhere.
        let searches = (rounds * tokens.len()) as u64;
        assert_eq!(scope.probes_issued(), searches);
        assert_eq!(scope.faults_injected(), searches);
        assert_eq!(a.read_errors(), 0, "an injected fault reads nothing");
        drop(scope);
        assert_eq!(answers(&a), reference_a, "disarmed on drop");

        let empty = TempDir::new("scope-empty");
        let scope = arm_faults(empty.path(), FaultPlan::seeded(1).fault_rate(1.0), None);
        assert_eq!((answers(&a), answers(&b)), (reference_a, reference_b));
        assert_eq!(scope.probes_issued(), 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// A `shard_bits = 0` in-memory index from the pipeline is
        /// **byte-identical** to the reference build's single arena — same
        /// arena bytes, same offset table — given the same key and RNG
        /// stream.
        #[test]
        fn unsharded_is_byte_identical_to_plain_arena(raw in proptest::collection::vec(
            (0u16..12, any::<u64>()), 0..60),
            seed in any::<u64>())
        {
            let entries = fixed_entries(&raw);
            let db: SseDatabase = entries.iter().copied().collect();
            let key = SseScheme::key_from(Key::from_bytes([0x5A; KEY_LEN]));

            let mut rng_flat = ChaCha20Rng::seed_from_u64(seed);
            let flat = reference::build_arena(&key, &db, &mut rng_flat);
            let mut rng_sharded = ChaCha20Rng::seed_from_u64(seed);
            let sharded =
                pipeline_index(&key, &entries, &StorageConfig::in_memory(0), &mut rng_sharded);

            prop_assert_eq!(sharded.shard_count(), 1);
            let shard = sharded.shards()[0].as_memory().expect("in-memory build");
            prop_assert_eq!(shard.arena_bytes_raw(), flat.arena_bytes_raw(),
                "k=0 shard arena must be byte-identical to the flat arena");
            prop_assert_eq!(shard.table_raw(), flat.table_raw(),
                "k=0 shard offset table must equal the flat table");
        }

        /// Sharding is layout-only: for arbitrary entries and any k, the
        /// sharded index stores the same (label, ciphertext) pairs as the
        /// k=0 build and answers every keyword search identically.
        #[test]
        fn sharded_search_equals_unsharded_for_random_datasets(raw in proptest::collection::vec(
            (0u16..12, any::<u64>()), 0..50),
            bits in 1u32..9,
            seed in any::<u64>())
        {
            let entries = fixed_entries(&raw);
            let key = SseScheme::key_from(Key::from_bytes([0xC3; KEY_LEN]));

            let mut rng_flat = ChaCha20Rng::seed_from_u64(seed);
            let flat = pipeline_index(&key, &entries, &StorageConfig::in_memory(0), &mut rng_flat);
            let mut rng_sharded = ChaCha20Rng::seed_from_u64(seed);
            let sharded =
                pipeline_index(&key, &entries, &StorageConfig::in_memory(bits), &mut rng_sharded);

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
            let tokens = keyword_tokens(&key, &entries);
            for token in &tokens {
                prop_assert_eq!(
                    search(&sharded, token).unwrap(),
                    search(&flat, token).unwrap()
                );
            }
            let batched = scan_payloads(&sharded, &tokens).unwrap();
            let per_token: Vec<Vec<Vec<u8>>> = tokens.iter()
                .map(|t| search(&flat, t).unwrap())
                .collect();
            prop_assert_eq!(batched, per_token);
        }

        /// Regression: the counter scan on a *shuffled* token vector
        /// returns, per token, exactly what the single-token reference walk
        /// (`ReferenceIndex::search` over the per-entry dictionary — no
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
                .map(|t| oracle.search(t))
                .collect();
            prop_assert_eq!(&batched, &per_token, "per-token results must be identical");
            for (token, expected) in tokens.iter().zip(&per_token) {
                prop_assert_eq!(&search(&index, token).unwrap(), expected);
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
        fn file_backed_build_equals_in_memory(raw in proptest::collection::vec(
            (0u16..12, any::<u64>()), 0..40),
            four_bits in any::<bool>(),
            seed in any::<u64>())
        {
            let bits = if four_bits { 4 } else { 0 };
            let entries = fixed_entries(&raw);
            let key = SseScheme::key_from(Key::from_bytes([0x3C; KEY_LEN]));

            let mut rng_mem = ChaCha20Rng::seed_from_u64(seed);
            let memory =
                pipeline_index(&key, &entries, &StorageConfig::in_memory(bits), &mut rng_mem);
            let dir = TempDir::new("prop-eq");
            let mut rng_file = ChaCha20Rng::seed_from_u64(seed);
            let file = pipeline_index(
                &key, &entries, &StorageConfig::on_disk(bits, dir.path()), &mut rng_file);

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
            let tokens = keyword_tokens(&key, &entries);
            for token in &tokens {
                prop_assert_eq!(
                    search(&file, token).unwrap(),
                    search(&memory, token).unwrap()
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
        fn save_open_save_round_trips_byte_identically(raw in proptest::collection::vec(
            (0u16..12, any::<u64>()), 0..40),
            four_bits in any::<bool>(),
            seed in any::<u64>())
        {
            let bits = if four_bits { 4 } else { 0 };
            let entries = fixed_entries(&raw);
            let key = SseScheme::key_from(Key::from_bytes([0x77; KEY_LEN]));

            let mut rng = ChaCha20Rng::seed_from_u64(seed);
            let memory = pipeline_index(&key, &entries, &StorageConfig::in_memory(bits), &mut rng);

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
            pipeline_index(
                &key, &entries, &StorageConfig::on_disk(bits, streamed.path()), &mut rng_stream);
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
                    let merged_hits = search(&merged, &token).unwrap();
                    let part_hits = search(index, &token).unwrap();
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
                        search(&merged_paged, &token).unwrap(),
                        search(&merged_memory, &token).unwrap()
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
