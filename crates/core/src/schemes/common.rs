//! Helpers shared by the scheme implementations.

use crate::dataset::DocId;
use crate::server::{scan_query_into_with, ScanScratch};
use rand::{CryptoRng, RngCore};
use rayon::prelude::*;
use rsse_cover::{Domain, Range};
use rsse_sse::{IndexLookup, SearchToken, ShardedIndex, SseKey, StorageConfig, StorageError};

/// Token counts at or above this are scanned in per-worker chunks on all
/// cores. Below it (the Logarithmic schemes' `O(log R)` token vectors)
/// threading overhead would exceed the scan work.
const PARALLEL_SEARCH_TOKENS: usize = 64;

/// Which exact range-covering technique a BRC/URC-based scheme uses for its
/// trapdoors (Section 2.2 of the paper).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CoverKind {
    /// Best Range Cover — minimum number of nodes, leaks range position
    /// through the level profile of the cover.
    Brc,
    /// Uniform Range Cover — worst-case decomposition, level profile depends
    /// only on the range size.
    Urc,
}

impl CoverKind {
    /// Computes the cover of `range` with the selected technique.
    pub fn cover(&self, domain: &Domain, range: Range) -> Vec<rsse_cover::Node> {
        match self {
            CoverKind::Brc => rsse_cover::brc(domain, range),
            CoverKind::Urc => rsse_cover::urc(domain, range),
        }
    }

    /// Scheme-name suffix used in reports ("BRC" / "URC").
    pub fn label(&self) -> &'static str {
        match self {
            CoverKind::Brc => "BRC",
            CoverKind::Urc => "URC",
        }
    }
}

/// Clamps a query range to the domain. Queries entirely outside the domain
/// are answered with `None` (empty result) without contacting the server.
pub fn clamp_query(domain: &Domain, range: Range) -> Option<Range> {
    domain.clamp(range)
}

/// Runs the counter scan ([`scan_query_into_with`]) over a token vector
/// and flattens its per-token id groups, returning the ids together with
/// the per-token group sizes (the result partitioning the server observes;
/// sizes count matched entries, decodable or not — e.g. padding dummies).
/// The first storage failure aborts the whole query with its typed error —
/// a failed block read is an error, not an empty group.
///
/// Generic over the dictionary layout ([`EncryptedIndex`] or
/// [`ShardedIndex`]). Large token vectors — the Constant schemes expand a
/// trapdoor into one token per domain value of the range — are split into
/// one contiguous chunk per worker thread and the chunks scanned in
/// parallel; results are merged in token order either way, so the outcome
/// is deterministic.
///
/// [`EncryptedIndex`]: rsse_sse::EncryptedIndex
pub fn try_search_ids<I>(
    index: &I,
    tokens: &[SearchToken],
) -> Result<(Vec<DocId>, Vec<usize>), I::Error>
where
    I: IndexLookup + Sync,
    I::Error: Send,
{
    let chunk_len = if tokens.len() >= PARALLEL_SEARCH_TOKENS {
        tokens.len().div_ceil(rayon::current_num_threads())
    } else {
        tokens.len()
    };
    type ChunkResult<E> = Result<(Vec<Vec<DocId>>, Vec<usize>), E>;
    let scanned: Vec<ChunkResult<I::Error>> = tokens
        .chunks(chunk_len.max(1))
        .collect::<Vec<_>>()
        .into_par_iter()
        .map(|chunk| {
            let mut per_token = Vec::new();
            let mut scratch = ScanScratch::default();
            let counts = scan_query_into_with(index, chunk, &mut per_token, &mut scratch)?;
            Ok((per_token, counts))
        })
        .collect();
    let mut ids = Vec::new();
    let mut groups = Vec::with_capacity(tokens.len());
    for chunk in scanned {
        let (per_token, counts) = chunk?;
        ids.extend(per_token.into_iter().flatten());
        groups.extend(counts);
    }
    Ok((ids, groups))
}

/// Infallible convenience wrapper over [`try_search_ids`] for analysis
/// helpers and in-memory paths: **panics** if the storage backend fails
/// (which an in-memory index cannot).
pub fn search_ids<I>(index: &I, tokens: &[SearchToken]) -> (Vec<DocId>, Vec<usize>)
where
    I: IndexLookup + Sync,
    I::Error: Send + std::fmt::Debug,
{
    try_search_ids(index, tokens).expect("storage backend failed during search")
}

/// Builds an encrypted index from flat `(keyword, payload)` entries with
/// fixed-size keywords and payloads — the BuildIndex shared by the
/// replication-based schemes — on the layout and backend `config` selects.
///
/// Semantically equivalent to filling an [`rsse_sse::SseDatabase`], calling
/// `shuffle_lists`, and running `SseScheme::build_index_stored` (the tests
/// hold it to that, byte for byte), but without the byte-keyed `BTreeMap`
/// and the heap allocations per entry and per keyword: this is
/// [`rsse_sse::build_index_fixed_external`], the one fixed-stride pipeline
/// — entries grouped by one sort of flat arrays, each group shuffled with
/// the same `(shuffle_key, keyword)`-keyed permutation, encrypted in
/// bounded batches straight into the shard sinks.
///
/// `entries` is consumed as an iterator and never collected twice. A
/// [`BuildBudget`](rsse_sse::BuildBudget) on the configuration only
/// matters once the entries exceed it: then they are sorted through spill
/// runs on disk instead of in RAM — byte-identical output, peak RSS
/// bounded by the budget rather than the entry count.
pub fn grouped_fixed_index_stored<const K: usize, const P: usize, R: RngCore + CryptoRng>(
    key: &SseKey,
    shuffle_key: &rsse_crypto::Key,
    entries: impl IntoIterator<Item = ([u8; K], [u8; P])>,
    config: &StorageConfig,
    rng: &mut R,
) -> Result<ShardedIndex, StorageError> {
    rsse_sse::build_index_fixed_external(key, shuffle_key, entries, config, rng)
}

/// Encodes a `(value, start, end)` triple — the "(domain value, tuple
/// range)" documents indexed by Logarithmic-SRC-i's first index — as a
/// 24-byte payload.
pub fn encode_value_span(value: u64, start: u64, end: u64) -> Vec<u8> {
    encode_value_span_array(value, start, end).to_vec()
}

/// Allocation-free variant of [`encode_value_span`] for the fixed-stride
/// BuildIndex fast path.
pub fn encode_value_span_array(value: u64, start: u64, end: u64) -> [u8; 24] {
    let mut out = [0u8; 24];
    out[0..8].copy_from_slice(&value.to_le_bytes());
    out[8..16].copy_from_slice(&start.to_le_bytes());
    out[16..24].copy_from_slice(&end.to_le_bytes());
    out
}

/// Decodes a payload produced by [`encode_value_span`].
pub fn decode_value_span(payload: &[u8]) -> Option<(u64, u64, u64)> {
    if payload.len() != 24 {
        return None;
    }
    let value = u64::from_le_bytes(payload[0..8].try_into().ok()?);
    let start = u64::from_le_bytes(payload[8..16].try_into().ok()?);
    let end = u64::from_le_bytes(payload[16..24].try_into().ok()?);
    Some((value, start, end))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schemes::testutil::{self, TempDir};
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha20Rng;
    use rsse_sse::pibas::reference;
    use rsse_sse::{SseDatabase, SseScheme};

    #[test]
    fn cover_kind_dispatches() {
        let domain = Domain::new(8);
        let range = Range::new(2, 7);
        assert_eq!(CoverKind::Brc.cover(&domain, range).len(), 2);
        assert_eq!(CoverKind::Urc.cover(&domain, range).len(), 4);
        assert_eq!(CoverKind::Brc.label(), "BRC");
        assert_eq!(CoverKind::Urc.label(), "URC");
    }

    #[test]
    fn clamp_query_filters_out_of_domain() {
        let domain = Domain::new(10);
        assert_eq!(
            clamp_query(&domain, Range::new(5, 100)),
            Some(Range::new(5, 9))
        );
        assert_eq!(clamp_query(&domain, Range::new(50, 100)), None);
    }

    #[test]
    fn value_span_roundtrip() {
        let encoded = encode_value_span(7, 100, 200);
        assert_eq!(encoded.len(), 24);
        assert_eq!(decode_value_span(&encoded), Some((7, 100, 200)));
        assert_eq!(decode_value_span(b"short"), None);
    }

    #[test]
    fn search_ids_groups_by_token() {
        let mut rng = ChaCha20Rng::seed_from_u64(1);
        let key = SseScheme::setup(&mut rng);
        let mut db = SseDatabase::new();
        db.add(b"a".to_vec(), 1u64.to_le_bytes().to_vec());
        db.add(b"a".to_vec(), 2u64.to_le_bytes().to_vec());
        db.add(b"b".to_vec(), 3u64.to_le_bytes().to_vec());
        let index = SseScheme::build_index(&key, &db, &mut rng);
        let tokens = vec![
            SseScheme::trapdoor(&key, b"a"),
            SseScheme::trapdoor(&key, b"b"),
            SseScheme::trapdoor(&key, b"missing"),
        ];
        let (ids, groups) = search_ids(&index, &tokens);
        assert_eq!(ids, vec![1, 2, 3]);
        assert_eq!(groups, vec![2, 1, 0]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The one scan against the reference oracle: for random multimaps
        /// and random token vectors — duplicates, tokens with no entries,
        /// the empty vector, and vectors past `PARALLEL_SEARCH_TOKENS` so
        /// the chunk-parallel merge runs — ids, per-token group order and
        /// per-token counts equal the single-token walk over the per-entry
        /// reference dictionary, on every index layout and residency.
        #[test]
        fn scan_matches_the_reference_oracle_on_every_layout(
            sizes in proptest::collection::vec(0usize..7, 1..12),
            picks in proptest::collection::vec(0usize..16, 0..160),
            seed in any::<u64>())
        {
            let (key, db, keyword_tokens) = testutil::oracle_database(&sizes);
            // Picks past the keyword list are tokens with no entries.
            let tokens: Vec<SearchToken> = picks
                .iter()
                .map(|&pick| match keyword_tokens.get(pick) {
                    Some(token) => token.clone(),
                    None => SseScheme::trapdoor(&key, format!("absent{pick}").as_bytes()),
                })
                .collect();
            let build_rng = || ChaCha20Rng::seed_from_u64(seed);
            let oracle = reference::build_index(&key, &db, &mut build_rng());
            let expected = testutil::oracle_search_ids(&oracle, &tokens);

            let flat = SseScheme::build_index(&key, &db, &mut build_rng());
            prop_assert_eq!(&try_search_ids(&flat, &tokens).unwrap(), &expected);
            for bits in [0u32, 4] {
                let config = StorageConfig::in_memory(bits);
                let sharded =
                    SseScheme::build_index_stored(&key, &db, &config, &mut build_rng()).unwrap();
                prop_assert_eq!(&try_search_ids(&sharded, &tokens).unwrap(), &expected);
            }
            // A budgeted FileShard index: one 64-byte cache budget, so
            // nearly every probe pages its block in and evicts another.
            let dir = TempDir::new("scan-oracle");
            let config = StorageConfig::on_disk(4, dir.path());
            SseScheme::build_index_stored(&key, &db, &config, &mut build_rng()).unwrap();
            let paged = ShardedIndex::open_dir_with_budget(dir.path(), Some(64)).unwrap();
            prop_assert_eq!(&try_search_ids(&paged, &tokens).unwrap(), &expected);
        }
    }
}
