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
//! The table is a flat array of slots **addressed by the label's own
//! bits** (a fixed mix of its two halves), with no keyed hash. That is
//! sound *in this trust model* because labels are not attacker-chosen:
//! every label is a truncated PRF output produced owner-side under a
//! secret key, so labels are computationally indistinguishable from
//! uniform and no party in the protocol can craft colliding inputs. (An
//! adversarial *client* inserting chosen labels is outside the paper's
//! model — the owner is the only writer.) This is word-RAM address
//! arithmetic on uniform keys: a label's slot is known before the table is
//! read, so the counter scan can [`prefetch`](IndexLookup::prefetch) a
//! round's slots before it probes them, and a probe is usually one slot.
//!
//! `BuildIndex` is the fixed-stride pipeline of the
//! [`external`](crate::external) module: one nonce seed per keyword drawn
//! from the caller's RNG in keyword order, then each keyword's list
//! encryption, and its labels as part of a paired stream across 64
//! keywords, on all cores. [`reference`](mod@reference) is the
//! sequential oracle every byte-identity test holds it to.

use crate::table::LabelTable;
use rand::{CryptoRng, RngCore, SeedableRng};
use rand_chacha::ChaCha20Rng;
use rsse_crypto::{Key, Prf, StreamCipher, KEY_LEN};
use std::ops::Deref;

/// Byte length of dictionary labels (128-bit truncated PRF outputs).
pub const LABEL_LEN: usize = 16;

/// Dictionary label type.
pub type Label = [u8; LABEL_LEN];

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
    /// instantiates server-side. Exposed so callers of
    /// [`SseScheme::search_scan_rounds`] decrypt its hits themselves (e.g.
    /// into one reused scratch buffer instead of a fresh allocation per
    /// payload).
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

/// Appends the label `labeler.label_at(counter)` of every job to `out`,
/// in job order, evaluated two jobs at a time ([`Prf::eval_pair_into`]).
/// The build expands the lists of 64 keywords through one stream, the
/// scan a round's counters across its tokens: both keep the two lanes full
/// across list boundaries.
pub(crate) fn expand_labels<'l>(
    mut jobs: impl Iterator<Item = (&'l TokenLabeler, u64)>,
    out: &mut Vec<Label>,
) {
    let (mut full_a, mut full_b) = ([0u8; KEY_LEN], [0u8; KEY_LEN]);
    while let Some((labeler_a, counter_a)) = jobs.next() {
        let Some((labeler_b, counter_b)) = jobs.next() else {
            labeler_a.prf.eval_u64_into(counter_a, &mut full_a);
            out.push(truncate(&full_a));
            break;
        };
        Prf::eval_pair_into(
            (&labeler_a.prf, &counter_a.to_le_bytes()),
            (&labeler_b.prf, &counter_b.to_le_bytes()),
            &mut full_a,
            &mut full_b,
        );
        out.extend([truncate(&full_a), truncate(&full_b)]);
    }
}

/// Longest span a [`CipherSpan`] copied out of a cache holds inline: every
/// fixed-stride ciphertext (a 24-byte id, a 40-byte SRC-i span) fits, so a
/// probe of a budgeted shard allocates nothing.
const INLINE_SPAN: usize = 40;

/// A ciphertext resolved by a dictionary probe.
///
/// In-memory arenas and resident blocks hand out plain borrows of their
/// bytes; a budgeted disk-backed shard hands out a **copy** of the span,
/// taken out of its cache frame (or the block it just read), because the
/// frame may be refilled with another block the moment the probe returns.
/// A copy of up to 40 bytes is held inline, a longer one on the heap.
/// Either way the payload bytes are reached through [`Deref`], so search
/// code never distinguishes the two.
#[derive(Clone, Debug)]
pub struct CipherSpan<'a>(SpanRepr<'a>);

#[derive(Clone, Debug)]
enum SpanRepr<'a> {
    /// Borrowed straight from an in-memory arena (or a resident block).
    Borrowed(&'a [u8]),
    /// Copied out of a cache, short enough to live inline.
    Inline { len: u8, bytes: [u8; INLINE_SPAN] },
    /// Copied out of a cache, too long to live inline.
    Owned(Box<[u8]>),
}

impl<'a> CipherSpan<'a> {
    /// A span borrowed from storage owned by the index itself.
    pub fn borrowed(bytes: &'a [u8]) -> Self {
        CipherSpan(SpanRepr::Borrowed(bytes))
    }

    /// A `len`-byte span copied out of storage that does not outlive the
    /// probe: `fill` writes the bytes.
    pub(crate) fn copied(len: usize, fill: impl FnOnce(&mut [u8])) -> Self {
        if len <= INLINE_SPAN {
            let mut bytes = [0u8; INLINE_SPAN];
            fill(&mut bytes[..len]);
            CipherSpan(SpanRepr::Inline {
                len: len as u8,
                bytes,
            })
        } else {
            let mut bytes = vec![0u8; len].into_boxed_slice();
            fill(&mut bytes);
            CipherSpan(SpanRepr::Owned(bytes))
        }
    }
}

impl Deref for CipherSpan<'_> {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match &self.0 {
            SpanRepr::Borrowed(bytes) => bytes,
            SpanRepr::Inline { len, bytes } => &bytes[..usize::from(*len)],
            SpanRepr::Owned(bytes) => bytes,
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
/// The counter scan ([`SseScheme::search_scan_rounds`]) is generic over
/// this trait, so a scheme can move between the unsharded and sharded
/// server layouts without touching its query logic.
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

    /// A hint that `labels` are about to be probed: a backend whose table
    /// slots are addressed by label bits loads each label's first slot now,
    /// so the probes that follow overlap their cache misses instead of
    /// taking them one after another. The counter scan calls it on a
    /// round's labels before probing any of them, once its window is 4
    /// wide ([`SseScheme::search_scan_rounds`]).
    ///
    /// It reads no ciphertext block, moves no counter, consults no fault
    /// injector, returns nothing and changes no result — a backend may
    /// ignore it, and the default does.
    fn prefetch(&self, labels: &[Label]) {
        let _ = labels;
    }

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
/// `label → (offset, len)` table — one shard of an in-memory
/// [`ShardedIndex`](crate::ShardedIndex).
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use rsse_sse::{build_index_external_with, SpillOrder, SseScheme, StorageConfig, TokenLabeler};
///
/// let mut rng = rand_chacha::ChaCha20Rng::seed_from_u64(1);
/// let key = SseScheme::setup(&mut rng);
/// let entries = [(*b"keyword", 7u64.to_le_bytes())];
/// let index = build_index_external_with(
///     entries,
///     SpillOrder::ByKeyword,
///     |keyword: &[u8; 7], _: &mut Vec<[u8; 8]>| SseScheme::trapdoor(&key, keyword),
///     &StorageConfig::in_memory(0),
///     &mut rng,
/// )
/// .unwrap();
/// // An unsharded in-memory index is one arena.
/// let arena = index.shards()[0].as_memory().unwrap();
/// assert_eq!(arena.len(), 1);
///
/// let token = SseScheme::trapdoor(&key, b"keyword");
/// let ciphertext = arena.get(&TokenLabeler::new(&token).label_at(0)).unwrap();
/// assert_eq!(
///     token.payload_cipher().decrypt(ciphertext),
///     Some(7u64.to_le_bytes().to_vec())
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

    fn prefetch(&self, labels: &[Label]) {
        for label in labels {
            self.table.prefetch(label);
        }
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

    /// Bytes the index holds in memory: the label table as allocated — a
    /// tag and a 24-byte slot for each of its `⌈4n/3⌉` slots, the least
    /// count at a load of at most 3/4, so ≈ 33 B an entry — plus the
    /// arena.
    pub(crate) fn resident_bytes(&self) -> usize {
        self.table.allocated_bytes() + self.arena.len()
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

    /// Creates an empty index with pre-sized table and arena — the shard
    /// builder knows both exactly from its tally pass.
    pub(crate) fn with_capacity(entries: usize, arena_bytes: usize) -> Self {
        Self {
            table: LabelTable::with_capacity(entries),
            arena: Vec::with_capacity(arena_bytes),
        }
    }

    /// Appends one `(label, ciphertext)` entry at the end of the arena.
    pub(crate) fn append_entry(&mut self, label: Label, ciphertext: &[u8]) {
        let offset = self.arena.len();
        assert!(
            offset + ciphertext.len() <= u32::MAX as usize,
            "arena limited to 4 GiB per index; shard the dataset first"
        );
        self.arena.extend_from_slice(ciphertext);
        self.table
            .insert(label, (offset as u32, ciphertext.len() as u32));
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

/// The static SSE scheme (Setup, Trpdr, Search); `BuildIndex` is
/// [`build_index_external_with`](crate::build_index_external_with).
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

    /// The number of entries stored under `token`, without decrypting any:
    /// the counter scan ([`search_scan_rounds`](Self::search_scan_rounds))
    /// over a one-token vector.
    pub fn search_count<I: IndexLookup>(index: &I, token: &SearchToken) -> Result<usize, I::Error> {
        let counts = Self::search_scan_rounds(index, std::slice::from_ref(token), |_| {})?;
        Ok(counts[0])
    }

    /// The counter scan — the one `Search` walk every entry point runs —
    /// from the first counter to every token's first miss:
    /// [`search_scan_from`](Self::search_scan_from) from
    /// [`ScanCursor::start`], never paused.
    ///
    /// Returns the per-token match counts (matched entries, decryptable or
    /// not).
    ///
    /// # Errors
    ///
    /// As [`search_scan_from`](Self::search_scan_from): a failed probe
    /// aborts the scan after the hits its round had resolved are delivered.
    pub fn search_scan_rounds<'a, I: IndexLookup>(
        index: &'a I,
        tokens: &[SearchToken],
        visit_round: impl FnMut(&[(u32, CipherSpan<'a>)]),
    ) -> Result<Vec<usize>, I::Error> {
        let labelers: Vec<TokenLabeler> = tokens.iter().map(TokenLabeler::new).collect();
        let mut cursor = ScanCursor::start(tokens.len());
        Self::search_scan_from(index, &labelers, &mut cursor, visit_round, |_| false)?;
        Ok(cursor.counts)
    }

    /// The counter scan from `cursor` on, one round at a time, until every
    /// live token has missed or `pause` asks to stop at a round boundary.
    /// `labelers` holds one [`TokenLabeler`] per token of the vector the
    /// cursor indexes.
    ///
    /// In a round every still-live token advances by a *window* of
    /// `min(next + 1, 8)` counters, `next` being the counter the round
    /// starts at — 1, 2, 4, then 8 from counter 0 — and the round has three
    /// steps:
    ///
    /// 1. **Expand.** The labels `F(K1_w, c)` of every live token at every
    ///    counter of the window are computed up front, two PRF evaluations
    ///    at a time across counters and tokens. A long list keeps both
    ///    lanes of the kernel full on its own; the window starts at 1 so a
    ///    list of none or one never pays for a label it did not need. From
    ///    the window of 4 on, the round's labels then go to
    ///    [`IndexLookup::prefetch`], so their table slots are on their way
    ///    to the cache before the first probe. A token still live there has
    ///    hit three times, so its window is mostly hits, each needing its
    ///    slot; the earlier rounds' probes are mostly closing misses of
    ///    short lists, which read a tag alone and for which the hint only
    ///    costs time.
    /// 2. **Probe**, counter by counter across the tokens still hitting. A
    ///    token leaves the live set at its first miss, so **each token is
    ///    probed at counters `0..=len` in order, never past its first miss
    ///    and never twice**: labels expanded beyond a list's end are
    ///    dropped unprobed. The probe sequence — per token and across
    ///    tokens — is the one a walk expanding one label per token per
    ///    round would issue, so storage, its cache and fault counters and
    ///    the paper's leakage profile see one sequence whatever the window
    ///    schedule, and however often the walk is paused and resumed. A
    ///    window-1 round has one probe per token and resolves them as one
    ///    vector through [`IndexLookup::try_get_many`], which groups a
    ///    large vector by shard.
    /// 3. **Deliver.** The round's hits go to `visit_round` together, as
    ///    `(token_index, ciphertext)` in probe order — each token's entries
    ///    in storage-counter order — so the caller can decrypt them two at
    ///    a time ([`StreamCipher::decrypt_pair_into`]).
    ///
    /// After each round that leaves a token live, `pause` sees the cursor;
    /// `true` returns `Ok` with the cursor at that boundary, and a later
    /// call from it continues the walk exactly where it stopped.
    ///
    /// A cursor cut into `k` strided lanes ([`ScanCursor::lane`]) walks
    /// counters `next, next + k, next + 2k, …` instead: the schedule above
    /// with the stride as the step, each lane leaving a token at *its own*
    /// first miss. Every lane therefore probes one counter past the
    /// list's end — `k − 1` probes more than the single walk per split
    /// token, each at a label `F(K1_w, c)` with `c` beyond the list, which
    /// is a function of the token alone. [`merge_lanes`] puts the lanes'
    /// hits back in counter order, up to the single walk's first miss.
    ///
    /// # Errors
    ///
    /// A failed probe aborts the scan with the backend's typed error
    /// instead of being treated as the end of a list. The hits the round
    /// had resolved before it are delivered first, so what the caller has
    /// seen when the error arrives is every hit resolved so far. The cursor
    /// then stays at the failed round's first counter, and its live set has
    /// dropped no token the round did not see miss.
    pub fn search_scan_from<'a, I: IndexLookup>(
        index: &'a I,
        labelers: &[TokenLabeler],
        cursor: &mut ScanCursor,
        mut visit_round: impl FnMut(&[(u32, CipherSpan<'a>)]),
        mut pause: impl FnMut(&ScanCursor) -> bool,
    ) -> Result<(), I::Error> {
        /// The widest window; a round from counter `c` is `min(c + 1, 8)`.
        const MAX_WINDOW: u64 = 8;
        /// The narrowest window whose labels are prefetched.
        const PREFETCH_WINDOW: u64 = 4;

        // The round's labels: one window after another, in `live` order.
        let mut labels: Vec<Label> = Vec::new();
        let mut hits: Vec<Option<CipherSpan<'a>>> = Vec::new();
        // Whether `live[i]` met its first miss in this round.
        let mut ended: Vec<bool> = Vec::new();
        let mut round: Vec<(u32, CipherSpan<'a>)> = Vec::new();
        while !cursor.live.is_empty() {
            let (next, stride) = (cursor.next, cursor.stride);
            let window = next.saturating_add(1).min(MAX_WINDOW);
            labels.clear();
            expand_labels(
                cursor.live.iter().flat_map(|&t| {
                    let labeler = &labelers[t as usize];
                    (0..window).map(move |step| (labeler, next + step * stride))
                }),
                &mut labels,
            );
            if window >= PREFETCH_WINDOW {
                index.prefetch(&labels);
            }
            round.clear();
            let mut resolved = Ok(());
            if window == 1 {
                // On a failure `hits` holds what was resolved before it; a
                // token without a hit there may not have been probed, so
                // it stays live.
                resolved = index.try_get_many(&labels, &mut hits);
                let failed = resolved.is_err();
                let mut hits = hits.drain(..);
                cursor.live.retain(|&t| match hits.next().flatten() {
                    Some(ciphertext) => {
                        round.push((t, ciphertext));
                        true
                    }
                    None => failed,
                });
            } else {
                // Counter by counter across the tokens still hitting: the
                // probe order of the one-label-at-a-time walk.
                let window = window as usize;
                ended.clear();
                ended.resize(cursor.live.len(), false);
                'probes: for k in 0..window {
                    for (slot, &t) in cursor.live.iter().enumerate() {
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
                cursor
                    .live
                    .retain(|_| !ended.next().expect("one flag per live token"));
            }
            for (t, _) in &round {
                cursor.counts[*t as usize] += 1;
            }
            visit_round(&round);
            resolved?;
            cursor.next = next + window * stride;
            if !cursor.live.is_empty() && pause(cursor) {
                break;
            }
        }
        Ok(())
    }
}

/// Where a counter scan ([`SseScheme::search_scan_from`]) stands at a round
/// boundary: the tokens still live, the counter they probe next and the
/// step between their probes, and every token's hits so far.
///
/// Π_bas labels every counter on its own — posting `c` of keyword `w` is
/// stored under `F(K1_w, c)` — so one list can be walked by several lanes
/// at once, each taking its own counters: [`lane`](Self::lane) cuts a
/// paused scan into strided lanes, and [`merge_lanes`] puts their hits
/// back in counter order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScanCursor {
    live: Vec<u32>,
    next: u64,
    stride: u64,
    counts: Vec<usize>,
}

impl ScanCursor {
    /// A scan of `tokens` tokens that has not begun: every token live at
    /// counter 0, stride 1, no hits.
    pub fn start(tokens: usize) -> Self {
        Self {
            live: (0..tokens as u32).collect(),
            next: 0,
            stride: 1,
            counts: vec![0; tokens],
        }
    }

    /// Lane `lane` of `lanes` from this position: the same live tokens,
    /// walking every `lanes`-th of the counters this cursor would walk
    /// next — `next + lane·stride`, then `lanes·stride` apart — with no
    /// hits counted yet. Lanes `0..lanes` together cover every counter
    /// once.
    ///
    /// # Panics
    ///
    /// If `lane >= lanes`.
    pub fn lane(&self, lane: usize, lanes: usize) -> Self {
        assert!(lane < lanes, "lane {lane} of {lanes}");
        Self {
            live: self.live.clone(),
            next: self.next + lane as u64 * self.stride,
            stride: self.stride * lanes as u64,
            counts: vec![0; self.counts.len()],
        }
    }

    /// The indices of the tokens still live (not yet seen to miss), in
    /// token order; empty once the scan is done.
    pub fn live(&self) -> &[u32] {
        &self.live
    }

    /// The counter every live token probes next.
    pub fn next(&self) -> u64 {
        self.next
    }

    /// Per token, the entries matched so far.
    pub fn counts(&self) -> &[usize] {
        &self.counts
    }

    /// The per-token match counts, consuming the cursor.
    pub fn into_counts(self) -> Vec<usize> {
        self.counts
    }
}

/// One token's hits from `lanes` strided lanes of a scan
/// ([`ScanCursor::lane`]), back in counter order: position `p` is lane
/// `p mod lanes`'s hit number `p / lanes`, and the merge stops at the first
/// position whose lane has none — the counter where a single walk would
/// have met its first miss. A lane's hits past that point (only possible
/// if a label inside the list is missing) are dropped, as the single walk
/// never probes them.
pub fn merge_lanes<'s, T: 's>(
    lanes: usize,
    lane_hits: impl Fn(usize) -> &'s [T],
) -> impl Iterator<Item = &'s T> {
    (0..).map_while(move |p: usize| lane_hits(p % lanes).get(p / lanes))
}

/// The oracle the build and the scan are tested against, and the
/// conveniences the tests search with.
///
/// [`build_index`](reference::build_index) and
/// [`build_stored`](reference::build_stored) encrypt an [`SseDatabase`] of
/// keywords and payloads of any length, sequentially and with none of the
/// pipeline's code — their own label derivation and one
/// [`StreamCipher::encrypt`] call per payload — drawing one nonce seed per
/// keyword in keyword order, as the pipeline does. So for fixed-stride lists
/// in the order the pipeline groups them, the two write byte-identical
/// indexes.
///
/// [`SseDatabase`]: crate::SseDatabase
pub mod reference {
    use super::*;
    use crate::database::SseDatabase;
    use crate::sharded::{shard_of_label, Shard, ShardedIndex};
    use crate::storage::{StorageBackend, StorageConfig, StorageError};
    use std::collections::HashMap;

    /// The per-entry dictionary: one heap allocation per ciphertext, SipHash
    /// hashing.
    #[derive(Clone, Debug, Default)]
    pub struct ReferenceIndex {
        /// Label → individually allocated ciphertext.
        pub dictionary: HashMap<Label, Vec<u8>>,
    }

    impl ReferenceIndex {
        /// The single-token counter walk over the dictionary — the oracle
        /// the counter scan is compared against (it shares no code with
        /// it: own label derivation, own loop, own decrypt).
        pub fn search(&self, token: &SearchToken) -> Vec<Vec<u8>> {
            let label_prf = Prf::new(&token.label_key);
            let cipher = StreamCipher::new(&token.payload_key);
            (0u64..)
                .map_while(|counter| {
                    let label: Label = label_prf.eval_truncated(&counter.to_le_bytes());
                    self.dictionary.get(&label)
                })
                .filter_map(|ciphertext| cipher.decrypt(ciphertext))
                .collect()
        }
    }

    /// Every `(label, ciphertext)` of `database`, in (keyword, counter)
    /// order.
    fn encrypt<R: RngCore + CryptoRng>(
        key: &SseKey,
        database: &SseDatabase,
        rng: &mut R,
    ) -> Vec<(Label, Vec<u8>)> {
        let mut entries = Vec::with_capacity(database.entry_count());
        for (keyword, payloads) in database.iter() {
            let token = SseScheme::trapdoor(key, keyword);
            let label_prf = Prf::new(&token.label_key);
            let cipher = StreamCipher::new(&token.payload_key);
            let mut seed = [0u8; KEY_LEN];
            rng.fill_bytes(&mut seed);
            let mut nonces = ChaCha20Rng::from_seed(seed);
            for (counter, payload) in (0u64..).zip(payloads) {
                let label: Label = label_prf.eval_truncated(&counter.to_le_bytes());
                entries.push((label, cipher.encrypt(&mut nonces, payload)));
            }
        }
        entries
    }

    /// `BuildIndex` into the per-entry dictionary.
    pub fn build_index<R: RngCore + CryptoRng>(
        key: &SseKey,
        database: &SseDatabase,
        rng: &mut R,
    ) -> ReferenceIndex {
        ReferenceIndex {
            dictionary: encrypt(key, database, rng).into_iter().collect(),
        }
    }

    /// `BuildIndex` into the layout `config` selects: each entry appended
    /// to the shard its label prefix picks, in (keyword, counter) order. An
    /// on-disk configuration saves the shards into its directory and
    /// reopens them paged, under its cache budget.
    pub fn build_stored<R: RngCore + CryptoRng>(
        key: &SseKey,
        database: &SseDatabase,
        config: &StorageConfig,
        rng: &mut R,
    ) -> Result<ShardedIndex, StorageError> {
        let bits = config.shard_bits;
        let mut shards = vec![EncryptedIndex::default(); 1usize << bits];
        for (label, ciphertext) in encrypt(key, database, rng) {
            shards[shard_of_label(&label, bits)].append_entry(label, &ciphertext);
        }
        let index = ShardedIndex::from_parts(bits, shards.into_iter().map(Shard::Memory).collect());
        match &config.backend {
            StorageBackend::InMemory => Ok(index),
            StorageBackend::OnDisk(dir) => {
                index.save_to_dir(dir)?;
                ShardedIndex::open_dir_with_budget(dir, config.cache_budget)
            }
        }
    }

    /// [`build_stored`] unsharded and in memory: the one arena.
    pub fn build_arena<R: RngCore + CryptoRng>(
        key: &SseKey,
        database: &SseDatabase,
        rng: &mut R,
    ) -> EncryptedIndex {
        let index = build_stored(key, database, &StorageConfig::in_memory(0), rng)
            .expect("an in-memory build cannot fail");
        index.shards()[0]
            .as_memory()
            .expect("an in-memory build has in-memory shards")
            .clone()
    }

    /// `Search(t, I)`: the decrypted payloads of `token`, in
    /// storage-counter order — the counter scan over a one-token vector.
    ///
    /// A corrupt (undecryptable) entry is skipped; use [`try_search`] to
    /// surface it. A storage failure aborts the scan with the backend's
    /// typed error.
    pub fn search<I: IndexLookup>(
        index: &I,
        token: &SearchToken,
    ) -> Result<Vec<Vec<u8>>, I::Error> {
        let cipher = token.payload_cipher();
        let mut results = Vec::new();
        search_batch_scan(index, std::slice::from_ref(token), |_, ciphertext| {
            results.extend(cipher.decrypt(ciphertext));
        })?;
        Ok(results)
    }

    /// Like [`search`] but also propagates corruption: returns
    /// [`SearchError::Corrupt`] with the counter position of the first
    /// undecryptable entry, or [`SearchError::Storage`] if the backend
    /// failed mid-scan.
    pub fn try_search<I: IndexLookup>(
        index: &I,
        token: &SearchToken,
    ) -> Result<Vec<Vec<u8>>, SearchError<I::Error>> {
        let cipher = token.payload_cipher();
        let mut results = Vec::new();
        let mut corrupt: Option<usize> = None;
        let mut position = 0usize;
        search_batch_scan(index, std::slice::from_ref(token), |_, ciphertext| {
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

    /// The counter scan, one hit at a time:
    /// [`SseScheme::search_scan_rounds`] with each round's hits passed on
    /// singly as `visit(token_index, ciphertext)`. Returns the per-token
    /// match counts.
    pub fn search_batch_scan<I: IndexLookup>(
        index: &I,
        tokens: &[SearchToken],
        mut visit: impl FnMut(usize, &[u8]),
    ) -> Result<Vec<usize>, I::Error> {
        SseScheme::search_scan_rounds(index, tokens, |round| {
            for (t, ciphertext) in round {
                visit(*t as usize, ciphertext);
            }
        })
    }

    /// Error returned by [`try_search`] when a stored entry fails to
    /// decrypt.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct CorruptEntry {
        /// Counter position of the first corrupt entry within the keyword's
        /// list.
        pub position: usize,
    }

    /// Error returned by [`try_search`]: either a stored entry failed to
    /// decrypt, or the storage backend failed to resolve a probe.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum SearchError<E> {
        /// An entry matched the token but could not be decrypted.
        Corrupt(CorruptEntry),
        /// The storage backend failed mid-scan.
        Storage(E),
    }
}

#[cfg(test)]
mod tests {
    use super::reference::{
        build_arena, build_stored, search, search_batch_scan, try_search, CorruptEntry, SearchError,
    };
    use super::*;
    use crate::database::SseDatabase;
    use crate::storage::StorageConfig;
    use crate::{build_index_external_with, SpillOrder};
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha20Rng;
    use std::collections::HashMap;

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
        let index = build_arena(&key, &sample_db(), &mut rng);
        assert_eq!(index.len(), 4);

        let token = SseScheme::trapdoor(&key, b"apple");
        let results = search(&index, &token).unwrap();
        assert_eq!(
            results,
            vec![
                1u64.to_le_bytes().to_vec(),
                2u64.to_le_bytes().to_vec(),
                3u64.to_le_bytes().to_vec()
            ]
        );

        let token = SseScheme::trapdoor(&key, b"banana");
        assert_eq!(search(&index, &token).unwrap().len(), 1);
    }

    #[test]
    fn absent_keyword_returns_nothing() {
        let mut rng = ChaCha20Rng::seed_from_u64(2);
        let key = SseScheme::setup(&mut rng);
        let index = build_arena(&key, &sample_db(), &mut rng);
        let token = SseScheme::trapdoor(&key, b"cherry");
        assert!(search(&index, &token).unwrap().is_empty());
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
        let index = build_arena(&key, &sample_db(), &mut rng);
        let token = SseScheme::trapdoor(&other, b"apple");
        assert!(search(&index, &token).unwrap().is_empty());
    }

    #[test]
    fn index_entries_look_unlinkable() {
        // The index must not contain the plaintext payloads anywhere.
        let mut rng = ChaCha20Rng::seed_from_u64(5);
        let key = SseScheme::setup(&mut rng);
        let secret = *b"super-secret-payload-value";
        let index = build_index_external_with(
            [(*b"w", secret)],
            SpillOrder::ByKeyword,
            |keyword: &[u8; 1], _: &mut Vec<[u8; 26]>| SseScheme::trapdoor(&key, keyword),
            &StorageConfig::in_memory(0),
            &mut rng,
        )
        .unwrap();
        for value in index.shards()[0].as_memory().unwrap().ciphertexts() {
            assert!(!value
                .windows(secret.len())
                .any(|window| window == secret.as_slice()));
        }
    }

    #[test]
    fn search_count_matches_search_len() {
        let mut rng = ChaCha20Rng::seed_from_u64(6);
        let key = SseScheme::setup(&mut rng);
        let index = build_arena(&key, &sample_db(), &mut rng);
        for kw in [
            b"apple".as_slice(),
            b"banana".as_slice(),
            b"none".as_slice(),
        ] {
            let token = SseScheme::trapdoor(&key, kw);
            assert_eq!(
                SseScheme::search_count(&index, &token).unwrap(),
                search(&index, &token).unwrap().len()
            );
        }
    }

    #[test]
    fn storage_accounting_counts_labels_and_ciphertexts() {
        let mut rng = ChaCha20Rng::seed_from_u64(7);
        let key = SseScheme::setup(&mut rng);
        let index = build_arena(&key, &sample_db(), &mut rng);
        // 4 entries, each: 16-byte label + (16-byte nonce + 8-byte payload).
        assert_eq!(index.storage_bytes(), 4 * (LABEL_LEN + 16 + 8));
    }

    #[test]
    fn key_from_round_trips_master() {
        let master = Key::from_bytes([9u8; KEY_LEN]);
        let key = SseScheme::key_from(master.clone());
        let mut rng = ChaCha20Rng::seed_from_u64(8);
        let index = build_arena(&key, &sample_db(), &mut rng);
        // A key reconstructed from the same master must produce working tokens.
        let key2 = SseScheme::key_from(master);
        let token = SseScheme::trapdoor(&key2, b"apple");
        assert_eq!(search(&index, &token).unwrap().len(), 3);
    }

    #[test]
    fn token_lists_build_is_searchable_with_same_tokens() {
        // Constant-BRC/URC's shape: the pipeline keyed by tokens derived
        // from seeds rather than from the SSE master key.
        let mut rng = ChaCha20Rng::seed_from_u64(9);
        let token_of = |keyword: &[u8; 1]| SearchToken::derive_from_seed(&[keyword[0]; KEY_LEN]);
        let index = build_index_external_with(
            [(*b"\x01", *b"x"), (*b"\x02", *b"z"), (*b"\x01", *b"y")],
            SpillOrder::ByKeyword,
            |keyword: &[u8; 1], _: &mut Vec<[u8; 1]>| token_of(keyword),
            &StorageConfig::in_memory(0),
            &mut rng,
        )
        .unwrap();
        assert_eq!(index.len(), 3);
        let (ta, tb) = (token_of(b"\x01"), token_of(b"\x02"));
        assert_eq!(
            search(&index, &ta).unwrap(),
            vec![b"x".to_vec(), b"y".to_vec()]
        );
        assert_eq!(search(&index, &tb).unwrap(), vec![b"z".to_vec()]);
        // A token from an unrelated seed finds nothing.
        let tc = SearchToken::derive_from_seed(&[3u8; KEY_LEN]);
        assert!(search(&index, &tc).unwrap().is_empty());
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
        let mut index = build_arena(&key, &db, &mut rng);
        // Truncate the first entry's span to 3 bytes (< NONCE_LEN).
        let token = SseScheme::trapdoor(&key, b"w");
        let first = TokenLabeler::new(&token).label_at(0);
        let span = index.table.get_mut(&first).expect("entry exists");
        span.1 = 3;

        // search skips the corrupt entry, still returning the healthy one.
        let results = search(&index, &token).unwrap();
        assert_eq!(results, vec![b"payload-2".to_vec()]);
        // try_search reports the corrupt position.
        assert_eq!(
            try_search(&index, &token),
            Err(SearchError::Corrupt(CorruptEntry { position: 0 }))
        );
        // search_count is unaffected (it never decrypts).
        assert_eq!(SseScheme::search_count(&index, &token).unwrap(), 2);
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
            let counts = search_batch_scan(&recording, vector, |t, ciphertext| {
                visited[t].push(ciphertext.to_vec());
            })
            .unwrap();
            for (t, token) in vector.iter().enumerate() {
                let cipher = token.payload_cipher();
                let got: Vec<Vec<u8>> = visited[t]
                    .iter()
                    .map(|ciphertext| cipher.decrypt(ciphertext).unwrap())
                    .collect();
                let want = oracle.search(token);
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
        use crate::ShardedIndex;

        let (key, db, tokens) = edge_database(&EDGE_LENGTHS);
        let rng = || ChaCha20Rng::seed_from_u64(21);
        let oracle = reference::build_index(&key, &db, &mut rng());

        let arena = build_arena(&key, &db, &mut rng());
        check_walk("arena", &arena, &oracle, &key, &tokens);
        for bits in [0u32, 3, 6] {
            let config = StorageConfig::in_memory(bits);
            let sharded = build_stored(&key, &db, &config, &mut rng()).unwrap();
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
        build_stored(&key, &db, &config, &mut rng()).unwrap();
        let resident = ShardedIndex::open_dir(dir.path()).unwrap();
        assert!(resident.is_file_backed());
        check_walk("file-backed", &resident, &oracle, &key, &tokens);
        // A budget of one ~512-byte cache frame: every block read evicts
        // the last.
        let paged = ShardedIndex::open_dir_with_budget(dir.path(), Some(600)).unwrap();
        assert_eq!(
            paged.block_cache().map(|cache| cache.frame_count()),
            Some(1)
        );
        check_walk("file-backed, one block", &paged, &oracle, &key, &tokens);
    }

    #[test]
    fn a_failed_probe_surfaces_after_every_hit_resolved_before_it() {
        // (c) Fail the k-th probe, for every k of a small vector: the scan
        // returns the error, and what it visited by then is exactly the
        // hits among the k probes before it, in probe order.
        let (key, db, tokens) = edge_database(&[3, 0, 7, 1, 15, 2]);
        let index = build_stored(
            &key,
            &db,
            &StorageConfig::in_memory(3),
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
        search_batch_scan(&healthy, &tokens, |_, _| {}).unwrap();
        let probes = healthy.probes.into_inner();
        assert_eq!(probes.len(), 3 + 7 + 1 + 15 + 2 + 6);

        for k in 0..probes.len() {
            let failing = Recording::new(&index, Some(k));
            let mut visited: Vec<(usize, Vec<u8>)> = Vec::new();
            let result = search_batch_scan(&failing, &tokens, |t, ciphertext| {
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
        let healthy = build_arena(&key, &db, &mut ChaCha20Rng::seed_from_u64(23));
        let all = search(&healthy, &tokens[0]).unwrap();
        assert_eq!(try_search(&healthy, &tokens[0]), Ok(all.clone()));
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
                try_search(&index, &tokens[0]),
                Err(SearchError::Corrupt(CorruptEntry { position }))
            );
            let mut skipped = all.clone();
            skipped.remove(position);
            assert_eq!(search(&index, &tokens[0]).unwrap(), skipped);
            assert_eq!(SseScheme::search_count(&index, &tokens[0]).unwrap(), 20);
        }
    }

    /// List lengths on both sides of the window edges and long enough to
    /// split, with the empty list.
    const SPLIT_LENGTHS: [usize; 10] = [0, 1, 7, 8, 127, 128, 129, 300, 3, 16];

    /// A sharded in-memory index over `edge_database(lengths)`.
    fn split_index(lengths: &[usize]) -> (crate::ShardedIndex, Vec<SearchToken>) {
        let (key, db, tokens) = edge_database(lengths);
        let config = StorageConfig::in_memory(3);
        let index = build_stored(&key, &db, &config, &mut ChaCha20Rng::seed_from_u64(24)).unwrap();
        (index, tokens)
    }

    /// Runs `cursor` to the end (never pausing) over `index`, appending each
    /// token's hits to `visited` and every probe to the returned count.
    fn walk_to_end(
        index: &crate::ShardedIndex,
        labelers: &[TokenLabeler],
        cursor: &mut ScanCursor,
        visited: &mut [Vec<Vec<u8>>],
    ) -> usize {
        let recording = Recording::new(index, None);
        SseScheme::search_scan_from(
            &recording,
            labelers,
            cursor,
            |round| {
                for (t, ciphertext) in round {
                    visited[*t as usize].push(ciphertext.to_vec());
                }
            },
            |_| false,
        )
        .unwrap();
        assert!(cursor.live().is_empty());
        recording.probes.into_inner().len()
    }

    #[test]
    fn a_scan_paused_at_any_round_boundary_resumes_into_the_unbroken_scan() {
        let (index, tokens) = split_index(&SPLIT_LENGTHS);
        let labelers: Vec<TokenLabeler> = tokens.iter().map(TokenLabeler::new).collect();
        let scan = |cursor: &mut ScanCursor,
                    recording: &Recording<'_, crate::ShardedIndex>,
                    visited: &mut Vec<Vec<Vec<u8>>>,
                    pause: &dyn Fn(&ScanCursor) -> bool| {
            SseScheme::search_scan_from(
                recording,
                &labelers,
                cursor,
                |round| {
                    for (t, ciphertext) in round {
                        visited[*t as usize].push(ciphertext.to_vec());
                    }
                },
                pause,
            )
            .unwrap();
        };
        let unbroken = Recording::new(&index, None);
        let mut want = vec![Vec::new(); tokens.len()];
        let mut cursor = ScanCursor::start(tokens.len());
        scan(&mut cursor, &unbroken, &mut want, &|_| false);
        let want_counts = cursor.into_counts();
        let want_probes = unbroken.probes.into_inner();
        assert_eq!(
            want_counts,
            search_batch_scan(&index, &tokens, |_, _| {}).unwrap()
        );

        // Counters 0, 1, 3, 7, then every 8: the boundaries of the window
        // schedule, up to the last one the 300-list is still live at.
        let boundaries = [0u64, 1, 3]
            .into_iter()
            .chain((7..300).step_by(8))
            .collect::<Vec<_>>();
        for &boundary in &boundaries {
            let recording = Recording::new(&index, None);
            let mut got = vec![Vec::new(); tokens.len()];
            let mut cursor = ScanCursor::start(tokens.len());
            if boundary > 0 {
                scan(&mut cursor, &recording, &mut got, &|at| {
                    at.next() == boundary
                });
            }
            assert_eq!(cursor.next(), boundary, "paused at {boundary}");
            assert!(!cursor.live().is_empty());
            scan(&mut cursor, &recording, &mut got, &|_| false);
            assert!(cursor.live().is_empty());
            assert_eq!(cursor.counts(), want_counts, "counts, paused at {boundary}");
            assert_eq!(got, want, "hits, paused at {boundary}");
            assert_eq!(
                recording.probes.into_inner(),
                want_probes,
                "probes, paused at {boundary}"
            );
        }

        // Paused at every boundary: one call per round.
        let recording = Recording::new(&index, None);
        let mut got = vec![Vec::new(); tokens.len()];
        let mut cursor = ScanCursor::start(tokens.len());
        let mut calls = 0;
        while !cursor.live().is_empty() {
            scan(&mut cursor, &recording, &mut got, &|_| true);
            calls += 1;
        }
        assert_eq!(calls, boundaries.len(), "one round per boundary");
        assert_eq!(cursor.counts(), want_counts);
        assert_eq!(got, want);
        assert_eq!(recording.probes.into_inner(), want_probes);
    }

    #[test]
    fn strided_lanes_merge_into_the_single_walk() {
        let (index, tokens) = split_index(&SPLIT_LENGTHS);
        let labelers: Vec<TokenLabeler> = tokens.iter().map(TokenLabeler::new).collect();
        let mut want = vec![Vec::new(); tokens.len()];
        let mut cursor = ScanCursor::start(tokens.len());
        let single_probes = walk_to_end(&index, &labelers, &mut cursor, &mut want);
        let want_counts = cursor.into_counts();

        for lanes in [2usize, 3] {
            for split in [0u64, 1, 7, 15, 127] {
                let context = format!("{lanes} lanes from counter {split}");
                let recording = Recording::new(&index, None);
                let mut got = vec![Vec::new(); tokens.len()];
                let mut cursor = ScanCursor::start(tokens.len());
                if split > 0 {
                    SseScheme::search_scan_from(
                        &recording,
                        &labelers,
                        &mut cursor,
                        |round| {
                            for (t, ciphertext) in round {
                                got[*t as usize].push(ciphertext.to_vec());
                            }
                        },
                        |at| at.next() == split,
                    )
                    .unwrap();
                }
                assert_eq!(cursor.next(), split, "{context}");
                let before = recording.probes.into_inner().len();

                let mut lane_probes = 0;
                let walked: Vec<Vec<Vec<Vec<u8>>>> = (0..lanes)
                    .map(|lane| {
                        let mut visited = vec![Vec::new(); tokens.len()];
                        let mut at = cursor.lane(lane, lanes);
                        lane_probes += walk_to_end(&index, &labelers, &mut at, &mut visited);
                        visited
                    })
                    .collect();
                let mut counts = cursor.counts().to_vec();
                for &t in cursor.live() {
                    let t = t as usize;
                    let merged = merge_lanes(lanes, |lane| &walked[lane][t]);
                    let before = got[t].len();
                    got[t].extend(merged.cloned());
                    counts[t] += got[t].len() - before;
                }
                assert_eq!(got, want, "{context}: hits");
                assert_eq!(counts, want_counts, "{context}: counts");
                // Each split list costs each extra lane one probe past its
                // end, and nothing else.
                assert_eq!(
                    before + lane_probes,
                    single_probes + (lanes - 1) * cursor.live().len(),
                    "{context}: probes"
                );
            }
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
            let index = build_arena(&key, &db, &mut rng);
            prop_assert_eq!(index.len(), db.entry_count());
            // Every keyword's payload list is returned exactly (same multiset,
            // Π_bas preserves insertion order per keyword).
            for (keyword, expected) in db.iter() {
                let token = SseScheme::trapdoor(&key, keyword);
                let got = search(&index, &token).unwrap();
                prop_assert_eq!(got, expected.to_vec());
            }
        }

        /// For arbitrary fixed-stride entries, the pipeline's arena stores
        /// **byte-identical** (label, ciphertext) pairs to the per-entry
        /// reference dictionary of the same lists, given the same key and
        /// RNG stream — and searches agree byte for byte.
        #[test]
        fn arena_index_is_byte_identical_to_reference(raw in proptest::collection::vec(
            (0u16..12, any::<u64>()), 0..50),
            seed in any::<u64>())
        {
            let entries: Vec<([u8; 2], [u8; 8])> = raw
                .iter()
                .map(|&(keyword, payload)| (keyword.to_be_bytes(), payload.to_le_bytes()))
                .collect();
            // The database keeps each keyword's arrival order, as the
            // pipeline's `ByKeyword` order does.
            let db: SseDatabase = entries.iter().copied().collect();
            let key = SseScheme::key_from(Key::from_bytes([0xA5; KEY_LEN]));

            let index = build_index_external_with(
                entries.iter().copied(),
                SpillOrder::ByKeyword,
                |keyword: &[u8; 2], _: &mut Vec<[u8; 8]>| SseScheme::trapdoor(&key, keyword),
                &StorageConfig::in_memory(0),
                &mut ChaCha20Rng::seed_from_u64(seed),
            )
            .unwrap();
            let arena = index.shards()[0].as_memory().unwrap();
            let reference = reference::build_index(&key, &db, &mut ChaCha20Rng::seed_from_u64(seed));

            prop_assert_eq!(arena.len(), reference.dictionary.len());
            for (label, ciphertext) in &reference.dictionary {
                prop_assert_eq!(arena.get(label), Some(ciphertext.as_slice()),
                    "label spans must match the reference dictionary");
            }
            for (keyword, expected) in db.iter() {
                let token = SseScheme::trapdoor(&key, keyword);
                prop_assert_eq!(search(arena, &token).unwrap(), expected.to_vec());
                prop_assert_eq!(reference.search(&token), expected.to_vec());
            }
        }
    }
}
