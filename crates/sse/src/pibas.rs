//! The Π_bas-style encrypted multimap (Cash et al., NDSS 2014).
//!
//! `BuildIndex` turns the plaintext multimap into a flat dictionary: the
//! `c`-th payload of keyword `w` is stored under label `F(K1_w, c)` with
//! value `Enc(K2_w, payload)`, where `K1_w, K2_w` are two per-keyword keys
//! derived from the master key. A search token for `w` is just `(K1_w,
//! K2_w)`: the server recomputes labels for `c = 0, 1, 2, …` until it misses,
//! decrypting each hit. The server therefore learns the access pattern (how
//! many and which dictionary entries matched) and the search pattern (token
//! equality), and nothing else — the leakage profile the paper assumes of
//! its underlying SSE.
//!
//! # Storage and build layout (hot path)
//!
//! [`EncryptedIndex`] is **arena-backed**: all ciphertexts live in one
//! contiguous byte buffer, and a `label → (offset, len)` table resolves
//! lookups — one allocation for the whole index instead of one `Vec<u8>`
//! per entry, and cache-friendly sequential writes during build.
//!
//! The lookup table uses [`LabelHasher`], a trivial hasher that folds the
//! label bytes into a `u64` instead of running SipHash. That is safe *in
//! this trust model* because labels are not attacker-chosen: every label is
//! a truncated PRF output produced owner-side under a secret key, so label
//! distribution is computationally indistinguishable from uniform and no
//! party in the protocol can craft colliding inputs. (An adversarial
//! *client* inserting chosen labels is outside the paper's model — the
//! owner is the only writer.) HashDoS-resistant hashing would only re-hash
//! already-pseudorandom bytes.
//!
//! `BuildIndex` parallelizes across keywords with rayon: per-keyword nonce
//! seeds are drawn from the caller's RNG *sequentially* (keeping the build
//! a deterministic function of key + RNG stream), the per-keyword label
//! PRF + encryption work runs on all cores, and the chunks are merged into
//! the arena in keyword order, so the resulting index is deterministic
//! regardless of thread scheduling.

use crate::database::SseDatabase;
use rand::{CryptoRng, RngCore, SeedableRng};
use rand_chacha::ChaCha20Rng;
use rayon::prelude::*;
use rsse_crypto::{Key, Prf, StreamCipher, KEY_LEN};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// Byte length of dictionary labels (128-bit truncated PRF outputs).
pub const LABEL_LEN: usize = 16;

/// Dictionary label type.
pub type Label = [u8; LABEL_LEN];

/// Trivial hasher for PRF-output labels: folds the written bytes into a
/// `u64` with an xor/rotate, i.e. essentially "use the first 8 label bytes".
///
/// See the module docs for why dropping SipHash is sound here: labels are
/// owner-side PRF outputs (uniform, non-adversarial), so the first 8 bytes
/// are already an ideal hash value.
#[derive(Clone, Copy, Debug, Default)]
pub struct LabelHasher(u64);

impl Hasher for LabelHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.0 = self.0.rotate_left(1) ^ u64::from_le_bytes(word);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

pub(crate) type LabelTable = HashMap<Label, (u32, u32), BuildHasherDefault<LabelHasher>>;

/// Owner-side secret key of the SSE scheme: the keyed PRF state on the
/// master key, cached so every trapdoor derivation shares one key schedule.
#[derive(Clone, Debug)]
pub struct SseKey {
    prf: Prf,
}

/// Search token for one keyword: the two per-keyword keys.
///
/// Tokens are deterministic, so equality (and `Hash`) identifies the
/// keyword's whole label schedule and payload key — batch planners key on
/// it to serve a repeated token once.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct SearchToken {
    label_key: Key,
    payload_key: Key,
}

impl SearchToken {
    /// Serialized size of a token in bytes (used for query-size accounting).
    pub const SIZE_BYTES: usize = 2 * KEY_LEN;

    /// Derives a token from an externally supplied 32-byte seed.
    ///
    /// This is the hook the Constant-BRC/URC schemes use: instead of letting
    /// the SSE scheme derive the per-keyword keys from its own master key,
    /// the per-keyword keys are derived from the *DPRF value* of the
    /// keyword, so that the server — after expanding a delegated GGM token
    /// into leaf DPRF values — can reconstruct exactly the tokens for the
    /// delegated sub-range and nothing else.
    pub fn derive_from_seed(seed: &[u8; KEY_LEN]) -> Self {
        let prf = Prf::new(&Key::from_bytes(*seed));
        let (mut label_key, mut payload_key) = ([0u8; KEY_LEN], [0u8; KEY_LEN]);
        Prf::eval_pair_into(
            (&prf, b"label"),
            (&prf, b"payload"),
            &mut label_key,
            &mut payload_key,
        );
        Self {
            label_key: Key::from_bytes(label_key),
            payload_key: Key::from_bytes(payload_key),
        }
    }

    /// The keyed cipher decrypting this token's payloads — what `Search`
    /// instantiates server-side. Exposed so batched callers can decrypt
    /// hits from [`SseScheme::search_batch_scan`] themselves (e.g. into one
    /// reused scratch buffer instead of a fresh allocation per payload).
    pub fn payload_cipher(&self) -> StreamCipher {
        StreamCipher::new(&self.payload_key)
    }
}

/// Incremental label expansion for one token: the counter-scan's label
/// schedule `F(K1_w, 0), F(K1_w, 1), …` exposed **separately from probing**
/// — the counter scan's label half, and what staged replays and tests use
/// to predict a token's probes (and their shards) without touching storage.
///
/// Trapdoors are deterministic (that *is* the search-pattern leakage), so
/// two equal tokens yield identical label sequences: the serve layer's batch
/// executor dedupes whole tokens rather than labels, and serving a repeated
/// token once reveals nothing the per-query scans would not. The PRF key
/// schedule is cached at construction and shared across every call.
#[derive(Clone, Debug)]
pub struct TokenLabeler {
    prf: Prf,
}

impl TokenLabeler {
    /// Caches the label-PRF key schedule of `token`.
    pub fn new(token: &SearchToken) -> Self {
        Self {
            prf: Prf::new(&token.label_key),
        }
    }

    /// The dictionary label the scan probes at `counter` (the truncated PRF
    /// output `F(K1_w, counter)`).
    pub fn label_at(&self, counter: u64) -> Label {
        let mut full = [0u8; KEY_LEN];
        self.prf.eval_u64_into(counter, &mut full);
        truncate(&full)
    }
}

/// The label a full PRF output truncates to.
#[inline]
fn truncate(full: &[u8; KEY_LEN]) -> Label {
    *full
        .first_chunk()
        .expect("a label is shorter than a PRF output")
}

/// Appends the label `F(prf, counter)` of every job to `out`, in job order
/// — what [`TokenLabeler::label_at`] returns for each, evaluated two jobs
/// at a time ([`Prf::eval_pair_into`]). The build expands one list's
/// counters through this, the scan a round's counters across its tokens.
fn expand_labels<'p>(mut jobs: impl Iterator<Item = (&'p Prf, u64)>, out: &mut Vec<Label>) {
    let (mut full_a, mut full_b) = ([0u8; KEY_LEN], [0u8; KEY_LEN]);
    while let Some((prf_a, counter_a)) = jobs.next() {
        let Some((prf_b, counter_b)) = jobs.next() else {
            prf_a.eval_u64_into(counter_a, &mut full_a);
            out.push(truncate(&full_a));
            break;
        };
        Prf::eval_pair_into(
            (prf_a, &counter_a.to_le_bytes()),
            (prf_b, &counter_b.to_le_bytes()),
            &mut full_a,
            &mut full_b,
        );
        out.extend([truncate(&full_a), truncate(&full_b)]);
    }
}

/// A ciphertext resolved by a dictionary probe.
///
/// In-memory arenas hand out plain borrows of their arena bytes; budgeted
/// disk-backed shards hand out spans **pinned** inside a reference-counted
/// cache block, which stays alive for as long as the span does even if the
/// cache evicts the block concurrently. Either way the payload bytes are
/// reached through [`Deref`], so search code never distinguishes the two.
#[derive(Clone, Debug)]
pub struct CipherSpan<'a>(SpanRepr<'a>);

#[derive(Clone, Debug)]
enum SpanRepr<'a> {
    /// Borrowed straight from an in-memory arena (or a resident block).
    Borrowed(&'a [u8]),
    /// Pinned inside a shared cache block; the `Arc` keeps the block's
    /// bytes alive across a concurrent eviction.
    Pinned {
        block: Arc<[u8]>,
        offset: usize,
        len: usize,
    },
}

impl<'a> CipherSpan<'a> {
    /// A span borrowed from storage owned by the index itself.
    pub fn borrowed(bytes: &'a [u8]) -> Self {
        CipherSpan(SpanRepr::Borrowed(bytes))
    }

    /// A span pinned inside a reference-counted cache block.
    pub fn pinned(block: Arc<[u8]>, offset: usize, len: usize) -> Self {
        debug_assert!(offset + len <= block.len());
        CipherSpan(SpanRepr::Pinned { block, offset, len })
    }
}

impl Deref for CipherSpan<'_> {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match &self.0 {
            SpanRepr::Borrowed(bytes) => bytes,
            SpanRepr::Pinned { block, offset, len } => &block[*offset..*offset + *len],
        }
    }
}

impl PartialEq for CipherSpan<'_> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for CipherSpan<'_> {}

/// Read-side interface shared by the dictionary variants: the single-arena
/// [`EncryptedIndex`] and the [`ShardedIndex`](crate::sharded::ShardedIndex).
///
/// The counter scan ([`SseScheme::search_batch_scan`]) and its thin
/// callers are generic over this trait, so a scheme can move between the
/// unsharded and sharded server layouts without touching its query logic.
///
/// Probes are **fallible**: a disk-backed index distinguishes "label
/// absent" (`Ok(None)`) from "the storage failed" (`Err`). The in-memory
/// backends set [`Error`](Self::Error) to [`std::convert::Infallible`], so
/// the compiler statically erases every error branch on the hot path —
/// the fallible API costs the arena layout nothing.
pub trait IndexLookup {
    /// Probe failure type: [`std::convert::Infallible`] for in-memory
    /// backends, `StorageError` for disk-backed ones.
    type Error;

    /// Looks up the ciphertext stored under `label`.
    ///
    /// `Ok(None)` means the label is genuinely absent; `Err` means the
    /// backend could not resolve the probe (e.g. a block read failed).
    fn try_get(&self, label: &Label) -> Result<Option<CipherSpan<'_>>, Self::Error>;

    /// Resolves a batch of probes, writing `out[i] = try_get(&labels[i])?`.
    ///
    /// The default implementation probes in input order; sharded
    /// implementations override it to group probes by shard for table
    /// locality. `out` is cleared first, and results always come back in
    /// probe order regardless of the internal grouping. The first failed
    /// probe aborts the batch; `out` then holds the hits resolved before it
    /// (`Some` at their probes' slots, nothing or `None` elsewhere), which
    /// is what lets the scan hand a caller everything resolved so far.
    fn try_get_many<'a>(
        &'a self,
        labels: &[Label],
        out: &mut Vec<Option<CipherSpan<'a>>>,
    ) -> Result<(), Self::Error> {
        out.clear();
        for label in labels {
            out.push(self.try_get(label)?);
        }
        Ok(())
    }
}

/// The server-side encrypted index: a flat dictionary from labels to
/// encrypted payloads, stored as one contiguous ciphertext arena plus a
/// `label → (offset, len)` table.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use rsse_sse::{SseDatabase, SseScheme};
///
/// let mut rng = rand_chacha::ChaCha20Rng::seed_from_u64(1);
/// let key = SseScheme::setup(&mut rng);
/// let mut db = SseDatabase::new();
/// db.add(b"keyword".to_vec(), b"payload".to_vec());
///
/// let index = SseScheme::build_index(&key, &db, &mut rng);
/// assert_eq!(index.len(), 1);
/// let token = SseScheme::trapdoor(&key, b"keyword");
/// assert_eq!(
///     SseScheme::search(&index, &token).unwrap(),
///     vec![b"payload".to_vec()]
/// );
/// ```
#[derive(Clone, Debug, Default)]
pub struct EncryptedIndex {
    pub(crate) table: LabelTable,
    pub(crate) arena: Vec<u8>,
}

impl IndexLookup for EncryptedIndex {
    type Error = std::convert::Infallible;

    fn try_get(&self, label: &Label) -> Result<Option<CipherSpan<'_>>, Self::Error> {
        Ok(EncryptedIndex::get(self, label).map(CipherSpan::borrowed))
    }
}

impl EncryptedIndex {
    /// Number of entries in the dictionary (the only thing the index leaks,
    /// `L1` in the paper's terminology).
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Approximate server-side storage footprint in bytes
    /// (labels + encrypted payloads).
    pub fn storage_bytes(&self) -> usize {
        self.table.len() * LABEL_LEN + self.arena.len()
    }

    /// Looks up the ciphertext stored under `label`.
    pub fn get(&self, label: &Label) -> Option<&[u8]> {
        self.table
            .get(label)
            .map(|&(offset, len)| &self.arena[offset as usize..(offset + len) as usize])
    }

    /// Iterates over the stored ciphertexts (used by leakage-oriented tests).
    pub fn ciphertexts(&self) -> impl Iterator<Item = &[u8]> {
        self.table
            .values()
            .map(|&(offset, len)| &self.arena[offset as usize..(offset + len) as usize])
    }

    /// Appends an entry; the value bytes were already appended to the arena
    /// by the caller at `offset`.
    fn insert_span(&mut self, label: Label, offset: usize, len: usize) {
        assert!(
            offset + len <= u32::MAX as usize,
            "arena limited to 4 GiB per index; shard the dataset first"
        );
        self.table.insert(label, (offset as u32, len as u32));
    }

    /// Creates an empty index with pre-sized table and arena — the shard
    /// builder knows both exactly from its tally pass.
    pub(crate) fn with_capacity(entries: usize, arena_bytes: usize) -> Self {
        Self {
            table: LabelTable::with_capacity_and_hasher(entries, BuildHasherDefault::default()),
            arena: Vec::with_capacity(arena_bytes),
        }
    }

    /// Appends one `(label, ciphertext)` entry at the end of the arena.
    pub(crate) fn append_entry(&mut self, label: Label, ciphertext: &[u8]) {
        let offset = self.arena.len();
        self.arena.extend_from_slice(ciphertext);
        self.insert_span(label, offset, ciphertext.len());
    }

    /// The `(label, offset, len)` directory sorted by arena offset — the
    /// deterministic serialization order of the on-disk shard format (arena
    /// spans tile the region in exactly this order).
    pub(crate) fn entries_by_offset(&self) -> Vec<(Label, u32, u32)> {
        let mut entries: Vec<(Label, u32, u32)> = self
            .table
            .iter()
            .map(|(label, &(offset, len))| (*label, offset, len))
            .collect();
        entries.sort_unstable_by_key(|&(_, offset, _)| offset);
        entries
    }

    /// Raw arena bytes (the ciphertext region of the serialized format).
    pub(crate) fn arena_raw(&self) -> &[u8] {
        &self.arena
    }

    /// Raw arena bytes (used by the byte-identity property tests).
    #[cfg(test)]
    pub(crate) fn arena_bytes_raw(&self) -> &[u8] {
        &self.arena
    }

    /// Raw label table (used by the byte-identity property tests).
    #[cfg(test)]
    pub(crate) fn table_raw(&self) -> &LabelTable {
        &self.table
    }
}

/// One keyword's worth of encrypted entries, produced on a worker thread
/// and merged into the arena (or distributed across shards) in
/// deterministic keyword order.
pub(crate) struct KeywordChunk {
    /// Entry labels in counter order.
    pub(crate) labels: Vec<Label>,
    /// Ciphertext spans (offset within `buf`, len), parallel to `labels`.
    pub(crate) spans: Vec<(u32, u32)>,
    /// Concatenated ciphertexts for this keyword.
    pub(crate) buf: Vec<u8>,
}

/// Encrypts one keyword's payload list into a chunk of its own;
/// `nonce_seed` keys the per-entry encryption nonce stream.
fn encrypt_list(
    token: &SearchToken,
    payloads: &[Vec<u8>],
    nonce_seed: [u8; KEY_LEN],
) -> KeywordChunk {
    let lens = payloads
        .iter()
        .map(|p| StreamCipher::ciphertext_len(p.len()));
    let mut chunk = KeywordChunk {
        labels: Vec::with_capacity(payloads.len()),
        spans: Vec::with_capacity(payloads.len()),
        buf: Vec::with_capacity(lens.clone().sum()),
    };
    encrypt_list_into(
        token,
        payloads.iter().map(Vec::as_slice),
        nonce_seed,
        &mut chunk.labels,
        &mut chunk.buf,
    );
    let mut offset = 0u32;
    for len in lens {
        chunk.spans.push((offset, len as u32));
        offset += len as u32;
    }
    chunk
}

/// The encryption core of every build: appends one keyword's entries to
/// two flat buffers — the labels `F(K1_w, 0), F(K1_w, 1), …` in counter
/// order to `labels`, the ciphertexts back to back to `ciphertexts` — with
/// the label PRF and the cipher keyed once for the list. The chunk build
/// hands it a chunk's own buffers, the fixed-stride pipeline
/// ([`external`](crate::external)) the buffers a whole batch part shares.
pub(crate) fn encrypt_list_into<'a>(
    token: &SearchToken,
    payloads: impl Iterator<Item = &'a [u8]> + Clone,
    nonce_seed: [u8; KEY_LEN],
    labels: &mut Vec<Label>,
    ciphertexts: &mut Vec<u8>,
) {
    let label_prf = Prf::new(&token.label_key);
    let cipher = StreamCipher::new(&token.payload_key);
    let mut nonce_rng = ChaCha20Rng::from_seed(nonce_seed);
    expand_labels(
        (0u64..)
            .zip(payloads.clone())
            .map(|(counter, _)| (&label_prf, counter)),
        labels,
    );
    cipher.encrypt_list_to(&mut nonce_rng, payloads, ciphertexts);
}

/// Merges per-keyword chunks (already in deterministic keyword order) into
/// the final arena-backed index.
pub(crate) fn merge_chunks(chunks: Vec<KeywordChunk>) -> EncryptedIndex {
    let entries: usize = chunks.iter().map(|c| c.labels.len()).sum();
    let arena_len: usize = chunks.iter().map(|c| c.buf.len()).sum();
    let mut index = EncryptedIndex {
        table: LabelTable::with_capacity_and_hasher(entries, BuildHasherDefault::default()),
        arena: Vec::with_capacity(arena_len),
    };
    for chunk in chunks {
        let base = index.arena.len();
        index.arena.extend_from_slice(&chunk.buf);
        for (label, (offset, len)) in chunk.labels.into_iter().zip(chunk.spans) {
            index.insert_span(label, base + offset as usize, len as usize);
        }
    }
    index
}

/// Draws one 32-byte nonce seed per keyword from the caller's RNG.
///
/// Drawing happens sequentially, in keyword order, so the whole build stays
/// a deterministic function of (key, RNG stream) no matter how the
/// follow-on encryption work is scheduled across threads.
fn draw_nonce_seeds<R: RngCore + CryptoRng>(count: usize, rng: &mut R) -> Vec<[u8; KEY_LEN]> {
    (0..count)
        .map(|_| {
            let mut seed = [0u8; KEY_LEN];
            rng.fill_bytes(&mut seed);
            seed
        })
        .collect()
}

/// The static SSE scheme (Setup, BuildIndex, Trpdr, Search).
#[derive(Clone, Copy, Debug, Default)]
pub struct SseScheme;

impl SseScheme {
    /// `Setup(1^λ)`: samples the owner's secret key.
    pub fn setup<R: RngCore + CryptoRng>(rng: &mut R) -> SseKey {
        Self::key_from(Key::generate(rng))
    }

    /// Deterministically derives an SSE key from an existing key — used by
    /// the range schemes, which derive all their sub-keys from one master.
    pub fn key_from(master: Key) -> SseKey {
        SseKey {
            prf: Prf::new(&master),
        }
    }

    /// `BuildIndex(k, D)`: encrypts the multimap into a flat dictionary.
    ///
    /// Per-keyword work (trapdoor derivation, label PRF, payload
    /// encryption) runs in parallel across all cores; the merge order is
    /// the database's keyword order, so the output is deterministic.
    pub fn build_index<R: RngCore + CryptoRng>(
        key: &SseKey,
        database: &SseDatabase,
        rng: &mut R,
    ) -> EncryptedIndex {
        merge_chunks(Self::chunks_from_database(key, database, rng))
    }

    /// Produces the per-keyword encrypted chunks of [`build_index`]
    /// (shared by the arena and sharded assembly paths; RNG consumption is
    /// identical in both, one nonce seed per keyword).
    ///
    /// [`build_index`]: Self::build_index
    pub(crate) fn chunks_from_database<R: RngCore + CryptoRng>(
        key: &SseKey,
        database: &SseDatabase,
        rng: &mut R,
    ) -> Vec<KeywordChunk> {
        let keywords: Vec<(&[u8], &[Vec<u8>])> = database.iter().collect();
        let seeds = draw_nonce_seeds(keywords.len(), rng);
        let jobs: Vec<_> = keywords.into_iter().zip(seeds).collect();
        jobs.into_par_iter()
            .map(|((keyword, payloads), seed)| {
                let token = Self::trapdoor(key, keyword);
                encrypt_list(&token, payloads, seed)
            })
            .collect()
    }

    /// Per-keyword encrypted chunks for pre-derived tokens (the core of
    /// `build_index_from_token_lists_stored`; one nonce seed per list).
    pub(crate) fn chunks_from_token_lists<R: RngCore + CryptoRng>(
        lists: &[(SearchToken, Vec<Vec<u8>>)],
        rng: &mut R,
    ) -> Vec<KeywordChunk> {
        let seeds = draw_nonce_seeds(lists.len(), rng);
        let jobs: Vec<_> = lists.iter().zip(seeds).collect();
        jobs.into_par_iter()
            .map(|((token, payloads), seed)| encrypt_list(token, payloads, seed))
            .collect()
    }

    /// `Trpdr(k, w)`: derives the search token for keyword `w`.
    ///
    /// Deterministic, as in the paper: issuing the same keyword twice yields
    /// the same token (this *is* the search-pattern leakage).
    pub fn trapdoor(key: &SseKey, keyword: &[u8]) -> SearchToken {
        let (mut label_key, mut payload_key) = ([0u8; KEY_LEN], [0u8; KEY_LEN]);
        Prf::eval_parts_pair_into(
            (&key.prf, &[b"label", keyword]),
            (&key.prf, &[b"payload", keyword]),
            &mut label_key,
            &mut payload_key,
        );
        SearchToken {
            label_key: Key::from_bytes(label_key),
            payload_key: Key::from_bytes(payload_key),
        }
    }

    /// `Search(t, I)`: returns the decrypted payloads for the token's
    /// keyword, in storage-counter order — the counter scan
    /// ([`search_batch_scan`](Self::search_batch_scan)) over a one-token
    /// vector.
    ///
    /// A corrupt (undecryptable) entry is **skipped**, not a panic: the
    /// server must stay available even if a stored ciphertext was damaged.
    /// Use [`try_search`](Self::try_search) to surface corruption instead.
    ///
    /// A *storage* failure (a disk-backed index that could not read a
    /// block) is never skipped: it aborts the scan with the backend's
    /// typed error, so a caller can distinguish "no more entries" from
    /// "the disk failed mid-scan". In-memory indexes have
    /// `Error = Infallible` and cannot take that branch.
    pub fn search<I: IndexLookup>(
        index: &I,
        token: &SearchToken,
    ) -> Result<Vec<Vec<u8>>, I::Error> {
        let cipher = StreamCipher::new(&token.payload_key);
        let mut results = Vec::new();
        Self::search_batch_scan(index, std::slice::from_ref(token), |_, ciphertext| {
            if let Some(plaintext) = cipher.decrypt(ciphertext) {
                results.push(plaintext);
            }
        })?;
        Ok(results)
    }

    /// Like [`search`](Self::search) but also propagates corruption:
    /// returns [`SearchError::Corrupt`] with the counter position of the
    /// first undecryptable entry, or [`SearchError::Storage`] if the
    /// backend failed mid-scan.
    pub fn try_search<I: IndexLookup>(
        index: &I,
        token: &SearchToken,
    ) -> Result<Vec<Vec<u8>>, SearchError<I::Error>> {
        let cipher = StreamCipher::new(&token.payload_key);
        let mut results = Vec::new();
        let mut corrupt: Option<usize> = None;
        let mut position = 0usize;
        Self::search_batch_scan(index, std::slice::from_ref(token), |_, ciphertext| {
            match cipher.decrypt(ciphertext) {
                Some(plaintext) => results.push(plaintext),
                None => {
                    if corrupt.is_none() {
                        corrupt = Some(position);
                    }
                }
            }
            position += 1;
        })
        .map_err(SearchError::Storage)?;
        match corrupt {
            Some(position) => Err(SearchError::Corrupt(CorruptEntry { position })),
            None => Ok(results),
        }
    }

    /// Like [`search`](Self::search) but only counts matches without
    /// decrypting — handy for benchmarks isolating dictionary lookups.
    pub fn search_count<I: IndexLookup>(index: &I, token: &SearchToken) -> Result<usize, I::Error> {
        let counts = Self::search_batch_scan(index, std::slice::from_ref(token), |_, _| {})?;
        Ok(counts[0])
    }

    /// The counter scan, one hit at a time: [`search_scan_rounds`] with each
    /// round's hits passed on singly as `visit(token_index, ciphertext)`.
    /// Each token's visit sequence is its entries in storage-counter order.
    ///
    /// Callers post-process the ciphertexts themselves (e.g. decrypting
    /// with [`SearchToken::payload_cipher`] into one reused buffer).
    /// Returns the per-token match counts (matched entries, decryptable or
    /// not). A failed probe aborts the whole scan with the backend's typed
    /// error instead of being treated as the end of a list; every hit
    /// resolved before it has been visited by then.
    ///
    /// [`search_scan_rounds`]: Self::search_scan_rounds
    pub fn search_batch_scan<I: IndexLookup>(
        index: &I,
        tokens: &[SearchToken],
        mut visit: impl FnMut(usize, &[u8]),
    ) -> Result<Vec<usize>, I::Error> {
        Self::search_scan_rounds(index, tokens, |round| {
            for (t, ciphertext) in round {
                visit(*t as usize, ciphertext);
            }
        })
    }

    /// The counter scan — the one `Search` walk every entry point runs.
    ///
    /// The walk goes in rounds. In a round every still-live token advances
    /// by a *window* of counters — 1, 2, 4, then 8 per round — and the
    /// round has three steps:
    ///
    /// 1. **Expand.** The labels `F(K1_w, c)` of every live token at every
    ///    counter of the window are computed up front, two PRF evaluations
    ///    at a time across counters and tokens. A long list keeps both
    ///    lanes of the kernel full on its own; the window starts at 1 so a
    ///    list of none or one never pays for a label it did not need.
    /// 2. **Probe**, counter by counter across the tokens still hitting. A
    ///    token leaves the live set at its first miss, so **each token is
    ///    probed at counters `0..=len` in order, never past its first miss
    ///    and never twice**: labels expanded beyond a list's end are
    ///    dropped unprobed. The probe sequence — per token and across
    ///    tokens — is the one a walk expanding one label per token per
    ///    round would issue, so storage, its cache and fault counters and
    ///    the paper's leakage profile see one sequence whatever the window
    ///    schedule. A window-1 round has one probe per token and resolves
    ///    them as one vector through [`IndexLookup::try_get_many`], which
    ///    groups a large vector by shard.
    /// 3. **Deliver.** The round's hits go to `visit_round` together, as
    ///    `(token_index, ciphertext)` in probe order — each token's entries
    ///    in storage-counter order — so the caller can decrypt them two at
    ///    a time ([`StreamCipher::decrypt_pair_into`]).
    ///
    /// Returns the per-token match counts (matched entries, decryptable or
    /// not).
    ///
    /// # Errors
    ///
    /// A failed probe aborts the whole scan with the backend's typed error
    /// instead of being treated as the end of a list. The hits the round
    /// had resolved before it are delivered first, so what the caller has
    /// seen when the error arrives is every hit resolved so far.
    pub fn search_scan_rounds<'a, I: IndexLookup>(
        index: &'a I,
        tokens: &[SearchToken],
        mut visit_round: impl FnMut(&[(u32, CipherSpan<'a>)]),
    ) -> Result<Vec<usize>, I::Error> {
        /// Counters a live token advances by in rounds 0, 1, 2, …; the last
        /// entry repeats.
        const WINDOWS: [u64; 4] = [1, 2, 4, 8];

        let mut counts = vec![0usize; tokens.len()];
        // One cached PRF key schedule per token, shared across rounds.
        let labelers: Vec<TokenLabeler> = tokens.iter().map(TokenLabeler::new).collect();
        let mut live: Vec<u32> = (0..tokens.len() as u32).collect();
        // The round's labels: one window after another, in `live` order.
        let mut labels: Vec<Label> = Vec::new();
        let mut hits: Vec<Option<CipherSpan<'a>>> = Vec::new();
        // Whether `live[i]` met its first miss in this round.
        let mut ended: Vec<bool> = Vec::new();
        let mut round: Vec<(u32, CipherSpan<'a>)> = Vec::new();
        let mut first_counter = 0u64;
        let mut schedule = WINDOWS.into_iter();
        let mut window = 0u64;
        while !live.is_empty() {
            window = schedule.next().unwrap_or(window);
            labels.clear();
            expand_labels(
                live.iter().flat_map(|&t| {
                    let prf = &labelers[t as usize].prf;
                    (first_counter..first_counter + window).map(move |counter| (prf, counter))
                }),
                &mut labels,
            );
            round.clear();
            let mut resolved = Ok(());
            if window == 1 {
                // On a failure `hits` holds what was resolved before it.
                resolved = index.try_get_many(&labels, &mut hits);
                let mut hits = hits.drain(..);
                live.retain(|&t| match hits.next().flatten() {
                    Some(ciphertext) => {
                        round.push((t, ciphertext));
                        true
                    }
                    None => false,
                });
            } else {
                // Counter by counter across the tokens still hitting: the
                // probe order of the one-label-at-a-time walk.
                let window = window as usize;
                ended.clear();
                ended.resize(live.len(), false);
                'probes: for k in 0..window {
                    for (slot, &t) in live.iter().enumerate() {
                        if ended[slot] {
                            continue;
                        }
                        match index.try_get(&labels[slot * window + k]) {
                            Ok(Some(ciphertext)) => round.push((t, ciphertext)),
                            Ok(None) => ended[slot] = true,
                            Err(error) => {
                                resolved = Err(error);
                                break 'probes;
                            }
                        }
                    }
                }
                let mut ended = ended.iter();
                live.retain(|_| !ended.next().expect("one flag per live token"));
            }
            for (t, _) in &round {
                counts[*t as usize] += 1;
            }
            visit_round(&round);
            resolved?;
            first_counter += window;
        }
        Ok(counts)
    }
}

/// Error returned by [`SseScheme::try_search`] when a stored entry fails to
/// decrypt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CorruptEntry {
    /// Counter position of the first corrupt entry within the keyword's list.
    pub position: usize,
}

impl std::fmt::Display for CorruptEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "index entry at counter {} failed to decrypt",
            self.position
        )
    }
}

impl std::error::Error for CorruptEntry {}

/// Error returned by [`SseScheme::try_search`]: either a stored entry
/// failed to decrypt, or the storage backend failed to resolve a probe.
///
/// `E` is the index's [`IndexLookup::Error`]; for in-memory indexes it is
/// [`std::convert::Infallible`], so only the corruption variant can occur.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SearchError<E> {
    /// An entry matched the token but could not be decrypted.
    Corrupt(CorruptEntry),
    /// The storage backend failed mid-scan.
    Storage(E),
}

impl<E: std::fmt::Display> std::fmt::Display for SearchError<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SearchError::Corrupt(corrupt) => corrupt.fmt(f),
            SearchError::Storage(error) => write!(f, "storage failed during search: {error}"),
        }
    }
}

impl<E: std::error::Error + 'static> std::error::Error for SearchError<E> {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SearchError::Corrupt(corrupt) => Some(corrupt),
            SearchError::Storage(error) => Some(error),
        }
    }
}

/// Reference (pre-arena) implementation used by the equivalence property
/// tests: one `HashMap<Label, Vec<u8>>` with a heap allocation per entry
/// and SipHash hashing, built sequentially. Kept runnable so the tests can
/// prove the arena-backed path byte-identical.
pub mod reference {
    use super::*;

    /// The old per-entry dictionary.
    #[derive(Clone, Debug, Default)]
    pub struct ReferenceIndex {
        /// Label → individually allocated ciphertext.
        pub dictionary: HashMap<Label, Vec<u8>>,
    }

    /// Sequential `BuildIndex` against the per-entry dictionary, consuming
    /// the RNG exactly like [`SseScheme::build_index`] (one nonce seed per
    /// keyword) so both paths produce byte-identical ciphertexts.
    pub fn build_index<R: RngCore + CryptoRng>(
        key: &SseKey,
        database: &SseDatabase,
        rng: &mut R,
    ) -> ReferenceIndex {
        let mut dictionary = HashMap::new();
        for (keyword, payloads) in database.iter() {
            let token = SseScheme::trapdoor(key, keyword);
            let mut seed = [0u8; KEY_LEN];
            rng.fill_bytes(&mut seed);
            let chunk = encrypt_list(&token, payloads, seed);
            for (label, (offset, len)) in chunk.labels.iter().zip(&chunk.spans) {
                let span = &chunk.buf[*offset as usize..(*offset + *len) as usize];
                dictionary.insert(*label, span.to_vec());
            }
        }
        ReferenceIndex { dictionary }
    }

    /// The single-token counter walk over the per-entry dictionary — the
    /// test oracle the counter scan is compared against (it shares no
    /// code with it: own label derivation, own loop, own decrypt).
    #[cfg(test)]
    pub(crate) fn search(index: &ReferenceIndex, token: &SearchToken) -> Vec<Vec<u8>> {
        let label_prf = Prf::new(&token.label_key);
        let cipher = StreamCipher::new(&token.payload_key);
        (0u64..)
            .map_while(|counter| {
                let label: Label = label_prf.eval_truncated(&counter.to_le_bytes());
                index.dictionary.get(&label)
            })
            .filter_map(|ciphertext| cipher.decrypt(ciphertext))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha20Rng;

    fn sample_db() -> SseDatabase {
        let mut db = SseDatabase::new();
        db.add(b"apple".to_vec(), 1u64.to_le_bytes().to_vec());
        db.add(b"apple".to_vec(), 2u64.to_le_bytes().to_vec());
        db.add(b"apple".to_vec(), 3u64.to_le_bytes().to_vec());
        db.add(b"banana".to_vec(), 9u64.to_le_bytes().to_vec());
        db
    }

    #[test]
    fn roundtrip_search_returns_exactly_the_payloads() {
        let mut rng = ChaCha20Rng::seed_from_u64(1);
        let key = SseScheme::setup(&mut rng);
        let index = SseScheme::build_index(&key, &sample_db(), &mut rng);
        assert_eq!(index.len(), 4);

        let token = SseScheme::trapdoor(&key, b"apple");
        let results = SseScheme::search(&index, &token).unwrap();
        assert_eq!(
            results,
            vec![
                1u64.to_le_bytes().to_vec(),
                2u64.to_le_bytes().to_vec(),
                3u64.to_le_bytes().to_vec()
            ]
        );

        let token = SseScheme::trapdoor(&key, b"banana");
        assert_eq!(SseScheme::search(&index, &token).unwrap().len(), 1);
    }

    #[test]
    fn absent_keyword_returns_nothing() {
        let mut rng = ChaCha20Rng::seed_from_u64(2);
        let key = SseScheme::setup(&mut rng);
        let index = SseScheme::build_index(&key, &sample_db(), &mut rng);
        let token = SseScheme::trapdoor(&key, b"cherry");
        assert!(SseScheme::search(&index, &token).unwrap().is_empty());
        assert_eq!(SseScheme::search_count(&index, &token).unwrap(), 0);
    }

    #[test]
    fn trapdoors_are_deterministic_and_keyword_specific() {
        let mut rng = ChaCha20Rng::seed_from_u64(3);
        let key = SseScheme::setup(&mut rng);
        assert_eq!(
            SseScheme::trapdoor(&key, b"apple"),
            SseScheme::trapdoor(&key, b"apple")
        );
        assert_ne!(
            SseScheme::trapdoor(&key, b"apple"),
            SseScheme::trapdoor(&key, b"banana")
        );
    }

    #[test]
    fn wrong_key_finds_nothing() {
        let mut rng = ChaCha20Rng::seed_from_u64(4);
        let key = SseScheme::setup(&mut rng);
        let other = SseScheme::setup(&mut rng);
        let index = SseScheme::build_index(&key, &sample_db(), &mut rng);
        let token = SseScheme::trapdoor(&other, b"apple");
        assert!(SseScheme::search(&index, &token).unwrap().is_empty());
    }

    #[test]
    fn index_entries_look_unlinkable() {
        // The index must not contain the plaintext payloads anywhere.
        let mut rng = ChaCha20Rng::seed_from_u64(5);
        let key = SseScheme::setup(&mut rng);
        let mut db = SseDatabase::new();
        let secret = b"super-secret-payload-value".to_vec();
        db.add(b"w".to_vec(), secret.clone());
        let index = SseScheme::build_index(&key, &db, &mut rng);
        for value in index.ciphertexts() {
            assert!(!value
                .windows(secret.len())
                .any(|window| window == secret.as_slice()));
        }
    }

    #[test]
    fn search_count_matches_search_len() {
        let mut rng = ChaCha20Rng::seed_from_u64(6);
        let key = SseScheme::setup(&mut rng);
        let index = SseScheme::build_index(&key, &sample_db(), &mut rng);
        for kw in [
            b"apple".as_slice(),
            b"banana".as_slice(),
            b"none".as_slice(),
        ] {
            let token = SseScheme::trapdoor(&key, kw);
            assert_eq!(
                SseScheme::search_count(&index, &token).unwrap(),
                SseScheme::search(&index, &token).unwrap().len()
            );
        }
    }

    #[test]
    fn storage_accounting_counts_labels_and_ciphertexts() {
        let mut rng = ChaCha20Rng::seed_from_u64(7);
        let key = SseScheme::setup(&mut rng);
        let index = SseScheme::build_index(&key, &sample_db(), &mut rng);
        // 4 entries, each: 16-byte label + (16-byte nonce + 8-byte payload).
        assert_eq!(index.storage_bytes(), 4 * (LABEL_LEN + 16 + 8));
    }

    #[test]
    fn key_from_round_trips_master() {
        let master = Key::from_bytes([9u8; KEY_LEN]);
        let key = SseScheme::key_from(master.clone());
        let mut rng = ChaCha20Rng::seed_from_u64(8);
        let index = SseScheme::build_index(&key, &sample_db(), &mut rng);
        // A key reconstructed from the same master must produce working tokens.
        let key2 = SseScheme::key_from(master);
        let token = SseScheme::trapdoor(&key2, b"apple");
        assert_eq!(SseScheme::search(&index, &token).unwrap().len(), 3);
    }

    #[test]
    fn token_lists_build_is_searchable_with_same_tokens() {
        let mut rng = ChaCha20Rng::seed_from_u64(9);
        let seed_a = [1u8; KEY_LEN];
        let seed_b = [2u8; KEY_LEN];
        let ta = SearchToken::derive_from_seed(&seed_a);
        let tb = SearchToken::derive_from_seed(&seed_b);
        let index = SseScheme::build_index_from_token_lists_stored(
            &[
                (ta.clone(), vec![b"x".to_vec(), b"y".to_vec()]),
                (tb.clone(), vec![b"z".to_vec()]),
            ],
            &crate::storage::StorageConfig::in_memory(0),
            &mut rng,
        )
        .unwrap();
        assert_eq!(index.len(), 3);
        assert_eq!(
            SseScheme::search(&index, &ta).unwrap(),
            vec![b"x".to_vec(), b"y".to_vec()]
        );
        assert_eq!(SseScheme::search(&index, &tb).unwrap(), vec![b"z".to_vec()]);
        // A token from an unrelated seed finds nothing.
        let tc = SearchToken::derive_from_seed(&[3u8; KEY_LEN]);
        assert!(SseScheme::search(&index, &tc).unwrap().is_empty());
    }

    #[test]
    fn derive_from_seed_is_deterministic() {
        let seed = [7u8; KEY_LEN];
        assert_eq!(
            SearchToken::derive_from_seed(&seed),
            SearchToken::derive_from_seed(&seed)
        );
        assert_ne!(
            SearchToken::derive_from_seed(&seed),
            SearchToken::derive_from_seed(&[8u8; KEY_LEN])
        );
    }

    #[test]
    fn corrupt_entry_is_skipped_not_panicking() {
        // Build an index whose only entry is too short to decrypt (shorter
        // than a nonce) by corrupting the arena directly.
        let mut rng = ChaCha20Rng::seed_from_u64(10);
        let key = SseScheme::setup(&mut rng);
        let mut db = SseDatabase::new();
        db.add(b"w".to_vec(), b"payload".to_vec());
        db.add(b"w".to_vec(), b"payload-2".to_vec());
        let mut index = SseScheme::build_index(&key, &db, &mut rng);
        // Truncate the first entry's span to 3 bytes (< NONCE_LEN).
        let token = SseScheme::trapdoor(&key, b"w");
        let label_prf = Prf::new(&Key::from_bytes(*token.label_key.as_bytes()));
        let first: Label = label_prf.eval_truncated(&0u64.to_le_bytes());
        let span = index.table.get_mut(&first).expect("entry exists");
        span.1 = 3;

        // search skips the corrupt entry, still returning the healthy one.
        let results = SseScheme::search(&index, &token).unwrap();
        assert_eq!(results, vec![b"payload-2".to_vec()]);
        // try_search reports the corrupt position.
        assert_eq!(
            SseScheme::try_search(&index, &token),
            Err(SearchError::Corrupt(CorruptEntry { position: 0 }))
        );
        // search_count is unaffected (it never decrypts).
        assert_eq!(SseScheme::search_count(&index, &token).unwrap(), 2);
    }

    #[test]
    fn label_hasher_uses_label_bytes() {
        use std::hash::{BuildHasher, BuildHasherDefault};
        let build: BuildHasherDefault<LabelHasher> = BuildHasherDefault::default();
        let a = build.hash_one([1u8; LABEL_LEN]);
        let b = build.hash_one([1u8; LABEL_LEN]);
        let c = build.hash_one([2u8; LABEL_LEN]);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    // ---- the windowed walk against the single-token reference walk ----

    /// List lengths on both sides of every window edge of the scan (rounds
    /// end after counters 0, 2, 6, 14, 22, …).
    const EDGE_LENGTHS: [usize; 13] = [0, 1, 2, 3, 4, 6, 7, 8, 14, 15, 16, 23, 100];

    /// Keyword `i` holds `lengths[i]` distinct 8-byte payloads. Returns the
    /// key, the multimap and one token per keyword.
    fn edge_database(lengths: &[usize]) -> (SseKey, SseDatabase, Vec<SearchToken>) {
        let key = SseScheme::key_from(Key::from_bytes([0x5E; KEY_LEN]));
        let mut db = SseDatabase::new();
        let mut tokens = Vec::new();
        for (i, &len) in lengths.iter().enumerate() {
            let keyword = format!("kw{i}").into_bytes();
            for entry in 0..len {
                let payload = ((i * 1000 + entry) as u64).to_le_bytes();
                db.add(keyword.clone(), payload.to_vec());
            }
            tokens.push(SseScheme::trapdoor(&key, &keyword));
        }
        (key, db, tokens)
    }

    /// Token vectors over `tokens` and two absent keywords: every token in
    /// order and reversed, a seeded shuffle, the shuffle with duplicates,
    /// each token alone, an absent keyword alone, and the empty vector.
    fn token_vectors(key: &SseKey, tokens: &[SearchToken]) -> Vec<Vec<SearchToken>> {
        let absent = |name: &[u8]| SseScheme::trapdoor(key, name);
        let mut mixed: Vec<SearchToken> = tokens.to_vec();
        mixed.insert(3, absent(b"absent-a"));
        mixed.push(absent(b"absent-b"));
        let mut shuffled = mixed.clone();
        let mut rng = ChaCha20Rng::seed_from_u64(77);
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, rng.next_u32() as usize % (i + 1));
        }
        let mut duplicated = shuffled.clone();
        duplicated.extend_from_slice(&shuffled[..5]);
        duplicated.push(tokens[tokens.len() - 1].clone());
        let mut vectors = vec![
            mixed.iter().rev().cloned().collect(),
            mixed,
            shuffled,
            duplicated,
            vec![absent(b"absent-a")],
            Vec::new(),
        ];
        vectors.extend(tokens.iter().map(|token| vec![token.clone()]));
        vectors
    }

    /// An index wrapper that records every label probed, in order, and can
    /// fail the `fail_at`-th probe (`Err(None)`; an error of the wrapped
    /// index would be `Err(Some(_))`). Whole vectors go to the wrapped
    /// index's own `try_get_many` unless a failure is armed, so its shard
    /// grouping runs.
    struct Recording<'i, I> {
        inner: &'i I,
        probes: std::cell::RefCell<Vec<Label>>,
        fail_at: Option<usize>,
    }

    impl<'i, I> Recording<'i, I> {
        fn new(inner: &'i I, fail_at: Option<usize>) -> Self {
            Self {
                inner,
                probes: Default::default(),
                fail_at,
            }
        }
    }

    impl<I: IndexLookup> IndexLookup for Recording<'_, I> {
        type Error = Option<I::Error>;

        fn try_get(&self, label: &Label) -> Result<Option<CipherSpan<'_>>, Self::Error> {
            let mut probes = self.probes.borrow_mut();
            if self.fail_at == Some(probes.len()) {
                return Err(None);
            }
            probes.push(*label);
            self.inner.try_get(label).map_err(Some)
        }

        fn try_get_many<'a>(
            &'a self,
            labels: &[Label],
            out: &mut Vec<Option<CipherSpan<'a>>>,
        ) -> Result<(), Self::Error> {
            if self.fail_at.is_some() {
                out.clear();
                for label in labels {
                    out.push(self.try_get(label)?);
                }
                return Ok(());
            }
            self.probes.borrow_mut().extend_from_slice(labels);
            self.inner.try_get_many(labels, out).map_err(Some)
        }
    }

    /// (a) and (b) of the battery on one layout, for every token vector.
    fn check_walk<I: IndexLookup>(
        layout: &str,
        index: &I,
        oracle: &reference::ReferenceIndex,
        key: &SseKey,
        tokens: &[SearchToken],
    ) where
        I::Error: std::fmt::Debug,
    {
        for (v, vector) in token_vectors(key, tokens).iter().enumerate() {
            let context = format!("{layout}, vector {v}");
            // (a) Each token's visits, decrypted, are the reference walk's
            // payloads in order; its count is their number.
            let recording = Recording::new(index, None);
            let mut visited: Vec<Vec<Vec<u8>>> = vec![Vec::new(); vector.len()];
            let counts = SseScheme::search_batch_scan(&recording, vector, |t, ciphertext| {
                visited[t].push(ciphertext.to_vec());
            })
            .unwrap();
            for (t, token) in vector.iter().enumerate() {
                let cipher = token.payload_cipher();
                let got: Vec<Vec<u8>> = visited[t]
                    .iter()
                    .map(|ciphertext| cipher.decrypt(ciphertext).unwrap())
                    .collect();
                let want = reference::search(oracle, token);
                assert_eq!(counts[t], want.len(), "{context}: count of token {t}");
                assert_eq!(got, want, "{context}: visits of token {t}");
            }

            // (b) What storage saw is the probe sequence of the walk that
            // expands one label per token per round: counter by counter,
            // every occurrence of a token at its labels 0..=len once each
            // — so no label past a first miss, though the walk had
            // expanded some, and none twice.
            let labelers: Vec<TokenLabeler> = vector.iter().map(TokenLabeler::new).collect();
            let rounds = counts.iter().max().map_or(0, |&longest| longest as u64 + 1);
            let one_at_a_time: Vec<Label> = (0..rounds)
                .flat_map(|counter| {
                    let in_reach = |t: &usize| counts[*t] as u64 >= counter;
                    let label = |t: usize| labelers[t].label_at(counter);
                    (0..vector.len())
                        .filter(in_reach)
                        .map(label)
                        .collect::<Vec<_>>()
                })
                .collect();
            assert_eq!(
                recording.probes.into_inner(),
                one_at_a_time,
                "{context}: probes"
            );
        }
    }

    #[test]
    fn windowed_walk_matches_the_reference_walk_on_every_layout() {
        use crate::storage::test_support::TempDir;
        use crate::storage::StorageConfig;
        use crate::ShardedIndex;

        let (key, db, tokens) = edge_database(&EDGE_LENGTHS);
        let rng = || ChaCha20Rng::seed_from_u64(21);
        let oracle = reference::build_index(&key, &db, &mut rng());

        let arena = SseScheme::build_index(&key, &db, &mut rng());
        check_walk("arena", &arena, &oracle, &key, &tokens);
        for bits in [0u32, 3, 6] {
            let config = StorageConfig::in_memory(bits);
            let sharded = SseScheme::build_index_stored(&key, &db, &config, &mut rng()).unwrap();
            check_walk(
                &format!("{bits} shard bits"),
                &sharded,
                &oracle,
                &key,
                &tokens,
            );
        }
        let dir = TempDir::new("windowed-walk");
        let config = StorageConfig::on_disk(3, dir.path());
        SseScheme::build_index_stored(&key, &db, &config, &mut rng()).unwrap();
        let resident = ShardedIndex::open_dir(dir.path()).unwrap();
        assert!(resident.is_file_backed());
        check_walk("file-backed", &resident, &oracle, &key, &tokens);
        // A budget of one 4 KiB cache block: every block read evicts the last.
        let paged = ShardedIndex::open_dir_with_budget(dir.path(), Some(4 << 10)).unwrap();
        check_walk("file-backed, one block", &paged, &oracle, &key, &tokens);
    }

    #[test]
    fn a_failed_probe_surfaces_after_every_hit_resolved_before_it() {
        // (c) Fail the k-th probe, for every k of a small vector: the scan
        // returns the error, and what it visited by then is exactly the
        // hits among the k probes before it, in probe order.
        let (key, db, tokens) = edge_database(&[3, 0, 7, 1, 15, 2]);
        let index = SseScheme::build_index_stored(
            &key,
            &db,
            &crate::storage::StorageConfig::in_memory(3),
            &mut ChaCha20Rng::seed_from_u64(22),
        )
        .unwrap();
        let owner: HashMap<Label, usize> = tokens
            .iter()
            .enumerate()
            .flat_map(|(t, token)| {
                let labeler = TokenLabeler::new(token);
                (0..32).map(move |counter| (labeler.label_at(counter), t))
            })
            .collect();

        let healthy = Recording::new(&index, None);
        SseScheme::search_batch_scan(&healthy, &tokens, |_, _| {}).unwrap();
        let probes = healthy.probes.into_inner();
        assert_eq!(probes.len(), 3 + 7 + 1 + 15 + 2 + 6);

        for k in 0..probes.len() {
            let failing = Recording::new(&index, Some(k));
            let mut visited: Vec<(usize, Vec<u8>)> = Vec::new();
            let result = SseScheme::search_batch_scan(&failing, &tokens, |t, ciphertext| {
                visited.push((t, ciphertext.to_vec()));
            });
            assert!(matches!(result, Err(None)), "probe {k} fails the scan");
            assert_eq!(
                failing.probes.into_inner(),
                &probes[..k],
                "probes before {k}"
            );
            let resolved: Vec<(usize, Vec<u8>)> = probes[..k]
                .iter()
                .filter_map(|label| Some((owner[label], index.try_get(label).unwrap()?.to_vec())))
                .collect();
            assert_eq!(visited, resolved, "hits delivered before probe {k} failed");
        }
    }

    #[test]
    fn corrupt_entry_position_is_its_counter_at_every_position() {
        // (d) One list of 20 spanning four rounds of the walk: damage each
        // entry in turn; `try_search` names its counter, `search` skips it.
        let (key, db, tokens) = edge_database(&[20]);
        let healthy = SseScheme::build_index(&key, &db, &mut ChaCha20Rng::seed_from_u64(23));
        let all = SseScheme::search(&healthy, &tokens[0]).unwrap();
        assert_eq!(SseScheme::try_search(&healthy, &tokens[0]), Ok(all.clone()));
        let labeler = TokenLabeler::new(&tokens[0]);
        for position in 0..20usize {
            let mut index = healthy.clone();
            // Shorter than a nonce: undecryptable.
            index
                .table
                .get_mut(&labeler.label_at(position as u64))
                .unwrap()
                .1 = 3;
            assert_eq!(
                SseScheme::try_search(&index, &tokens[0]),
                Err(SearchError::Corrupt(CorruptEntry { position }))
            );
            let mut skipped = all.clone();
            skipped.remove(position);
            assert_eq!(SseScheme::search(&index, &tokens[0]).unwrap(), skipped);
            assert_eq!(SseScheme::search_count(&index, &tokens[0]).unwrap(), 20);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn arbitrary_multimaps_roundtrip(entries in proptest::collection::vec(
            (proptest::collection::vec(any::<u8>(), 1..8),
             proptest::collection::vec(any::<u8>(), 0..24)), 0..60),
            seed in any::<u64>())
        {
            let mut rng = ChaCha20Rng::seed_from_u64(seed);
            let key = SseScheme::setup(&mut rng);
            let mut db = SseDatabase::new();
            for (k, v) in &entries {
                db.add(k.clone(), v.clone());
            }
            let index = SseScheme::build_index(&key, &db, &mut rng);
            prop_assert_eq!(index.len(), db.entry_count());
            // Every keyword's payload list is returned exactly (same multiset,
            // Π_bas preserves insertion order per keyword).
            for (keyword, expected) in db.iter() {
                let token = SseScheme::trapdoor(&key, keyword);
                let got = SseScheme::search(&index, &token).unwrap();
                prop_assert_eq!(got, expected.to_vec());
            }
        }

        /// The ISSUE's acceptance property: for arbitrary multimaps, the
        /// arena-backed index stores **byte-identical** (label, ciphertext)
        /// pairs to the reference per-entry dictionary, given the same key
        /// and RNG stream — and searches agree byte-for-byte.
        #[test]
        fn arena_index_is_byte_identical_to_reference(entries in proptest::collection::vec(
            (proptest::collection::vec(any::<u8>(), 1..6),
             proptest::collection::vec(any::<u8>(), 0..40)), 0..50),
            seed in any::<u64>())
        {
            let mut db = SseDatabase::new();
            for (k, v) in &entries {
                db.add(k.clone(), v.clone());
            }
            let key = SseScheme::key_from(Key::from_bytes([0xA5; KEY_LEN]));

            let mut rng_arena = ChaCha20Rng::seed_from_u64(seed);
            let arena = SseScheme::build_index(&key, &db, &mut rng_arena);
            let mut rng_reference = ChaCha20Rng::seed_from_u64(seed);
            let reference = reference::build_index(&key, &db, &mut rng_reference);

            prop_assert_eq!(arena.len(), reference.dictionary.len());
            for (label, ciphertext) in &reference.dictionary {
                prop_assert_eq!(arena.get(label), Some(ciphertext.as_slice()),
                    "label spans must match the reference dictionary");
            }
            for (keyword, expected) in db.iter() {
                let token = SseScheme::trapdoor(&key, keyword);
                prop_assert_eq!(SseScheme::search(&arena, &token).unwrap(), expected.to_vec());
                prop_assert_eq!(reference::search(&reference, &token), expected.to_vec());
            }
        }
    }
}
