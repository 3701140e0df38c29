//! The server-side query path: one range query's token vector → the
//! counter scan → per-token id groups → a [`QueryOutcome`].
//!
//! The paper's server model (Sections 6–7) is a machine answering many
//! concurrent range queries, each of which expands into a *vector* of SSE
//! tokens — one per BRC/URC covering node. Every scheme and every serving
//! layer answers such a vector through the same three steps defined here:
//!
//! * [`scan_query_into_with`] runs the whole vector through the one counter
//!   scan ([`SseScheme::search_scan_rounds`]): all tokens advance a window
//!   of counters per round (1, 2, 4, then 8), the window's labels expanded
//!   two at a time, and each counter's probes are resolved together,
//!   grouped by shard of the underlying [`ShardedIndex`];
//! * a round's hits are decrypted two at a time into two reused buffers
//!   and decoded straight into their tokens' id groups — no per-payload
//!   heap allocation;
//! * [`assemble_outcome`] flattens the groups and fills in the
//!   [`QueryStats`].
//!
//! [`QueryServer`] is the endpoint over a [`ShardedIndex`];
//! [`QueryServer::answer_many`] fans concurrent queries out across cores
//! (shards are immutable behind `&self`, so the reads are lock-free).
//!
//! Results are **deterministic**: per query, ids come back grouped by token
//! in token order, each group in storage-counter order, and `answer_many`
//! returns outcomes in query order regardless of scheduling.

use crate::dataset::{decode_id_payload, DocId};
use crate::metrics::QueryStats;
use crate::traits::QueryOutcome;
use rayon::prelude::*;
use rsse_crypto::StreamCipher;
use rsse_sse::{CipherSpan, IndexLookup, SearchToken, ShardedIndex, SseScheme, StorageError};
use std::path::Path;

/// Decrypts one probe hit with its token's payload cipher (into the reused
/// `plaintext` buffer) and decodes the tuple id. Returns `None` for a
/// corrupt (undecryptable or undecodable) entry — the scan skips it, it is
/// never a panic.
///
/// [`ScanScratch::decode_round`] is this for a whole round of hits, two at
/// a time; the sequential scan ([`scan_query_into_with`]) and the batch
/// executor in `rsse-serve` both decode through it, which is what makes
/// their outcomes byte-identical.
pub fn decode_hit_into(
    cipher: &StreamCipher,
    ciphertext: &[u8],
    plaintext: &mut Vec<u8>,
) -> Option<DocId> {
    if cipher.decrypt_into(ciphertext, plaintext) {
        decode_id_payload(plaintext)
    } else {
        None
    }
}

/// Reusable per-query scan state: the per-token payload ciphers and the two
/// plaintext buffers a pair of hits decrypts into. A serving layer
/// answering many queries keeps one `ScanScratch` per worker thread and
/// rekeys it per query, so steady-state serving does no per-query scratch
/// allocation.
#[derive(Debug, Default)]
pub struct ScanScratch {
    ciphers: Vec<StreamCipher>,
    plaintext: Vec<u8>,
    /// The second hit of a pair.
    plaintext_pair: Vec<u8>,
}

impl ScanScratch {
    /// (Re)derives the payload ciphers of `tokens` into the reused vector.
    pub fn rekey(&mut self, tokens: &[SearchToken]) {
        self.ciphers.clear();
        self.ciphers
            .extend(tokens.iter().map(SearchToken::payload_cipher));
    }

    /// Decodes one round of scan hits — `(token_index, ciphertext)` as
    /// [`SseScheme::search_scan_rounds`] delivers them — pushing each id
    /// onto its token's group in `per_token`, in the round's order. Hits
    /// are decrypted two at a time ([`StreamCipher::decrypt_pair_into`]),
    /// an odd last one alone; what each decodes to is [`decode_hit_into`]'s
    /// answer, a corrupt entry being skipped. Call [`rekey`](Self::rekey)
    /// with the query's tokens first.
    pub fn decode_round(&mut self, round: &[(u32, CipherSpan<'_>)], per_token: &mut [Vec<DocId>]) {
        let Self {
            ciphers,
            plaintext,
            plaintext_pair,
        } = self;
        let mut push = |t: u32, id: Option<DocId>| per_token[t as usize].extend(id);
        let mut pairs = round.chunks_exact(2);
        for pair in &mut pairs {
            let ((ta, hit_a), (tb, hit_b)) = (&pair[0], &pair[1]);
            let (ok_a, ok_b) = StreamCipher::decrypt_pair_into(
                (&ciphers[*ta as usize], hit_a, plaintext),
                (&ciphers[*tb as usize], hit_b, plaintext_pair),
            );
            push(*ta, ok_a.then(|| decode_id_payload(plaintext)).flatten());
            push(
                *tb,
                ok_b.then(|| decode_id_payload(plaintext_pair)).flatten(),
            );
        }
        if let [(t, hit)] = pairs.remainder() {
            push(*t, decode_hit_into(&ciphers[*t as usize], hit, plaintext));
        }
    }
}

/// Runs one range query's whole token vector against any index in a single
/// counter scan, decrypting and decoding every hit into `per_token` (one
/// id group per token, in token order, each group in storage-counter
/// order). Returns the per-token entry counts on success — every matched
/// entry counts, decodable or not, because that is what the server
/// observes.
///
/// This is the probe-and-decode core of every query path — the schemes'
/// `try_query`, [`QueryServer::answer`], and the serving layers of
/// `rsse-serve`, which wrap the index (deadlines, per-probe retries,
/// circuit breakers) while producing **byte-identical outcomes**: same
/// scan order, same decode. `scratch` holds the per-token ciphers and the
/// decrypt buffers, so a caller answering many queries reuses them across
/// queries instead of reallocating per query.
///
/// # Errors
///
/// A failed probe aborts the scan with the index's typed error
/// ([`StorageError`] for disk-backed indexes). On error, `per_token` keeps
/// every id decoded before the failure — the scan delivers the hits its
/// last round had resolved before it returns the error — so the groups are
/// a faithful "what was resolved so far" snapshot a caller can surface as a
/// typed partial result.
pub fn scan_query_into_with<I: IndexLookup>(
    index: &I,
    tokens: &[SearchToken],
    per_token: &mut Vec<Vec<DocId>>,
    scratch: &mut ScanScratch,
) -> Result<Vec<usize>, I::Error> {
    per_token.clear();
    per_token.resize_with(tokens.len(), Vec::new);
    scratch.rekey(tokens);
    SseScheme::search_scan_rounds(index, tokens, |round| {
        scratch.decode_round(round, per_token)
    })
}

/// Flattens the per-token id groups of a completed [`scan_query_into_with`] pass
/// into the [`QueryOutcome`] the serving APIs return — the single place the
/// outcome shape (id order and [`QueryStats`] accounting) is defined, so
/// every serving layer reports identically.
pub fn assemble_outcome(
    tokens: &[SearchToken],
    per_token: Vec<Vec<DocId>>,
    counts: &[usize],
) -> QueryOutcome {
    let mut ids: Vec<DocId> = Vec::with_capacity(per_token.iter().map(Vec::len).sum());
    for group in per_token {
        ids.extend(group);
    }
    QueryOutcome {
        ids,
        stats: QueryStats {
            tokens_sent: tokens.len(),
            token_bytes: tokens.len() * SearchToken::SIZE_BYTES,
            rounds: 1,
            entries_touched: counts.iter().sum(),
            result_groups: tokens.len(),
        },
    }
}

/// A server-side search endpoint answering whole token vectors — and whole
/// batches of concurrent queries — over one sharded encrypted dictionary.
///
/// # Examples
///
/// ```
/// use rsse_core::{Dataset, Record, RangeScheme, StorageConfig};
/// use rsse_core::schemes::log_brc_urc::LogScheme;
/// use rsse_cover::{Domain, Range};
/// use rand::SeedableRng;
///
/// let dataset = Dataset::new(
///     Domain::new(1 << 10),
///     (0..200).map(|i| Record::new(i, (i * 37) % 1024)).collect(),
/// ).unwrap();
/// let mut rng = rand_chacha::ChaCha20Rng::seed_from_u64(7);
///
/// // Build with a 2^4-way sharded dictionary and stand up the server.
/// let config = StorageConfig::in_memory(4);
/// let (client, server) = LogScheme::build_stored(&dataset, &config, &mut rng).unwrap();
/// let server = server.into_query_server();
///
/// // A batch of concurrent range queries: one token vector each, one
/// // `Result` per query.
/// let ranges = [Range::new(0, 100), Range::new(500, 800)];
/// let queries: Vec<_> = ranges.iter().map(|&r| client.trapdoor(r).unwrap()).collect();
/// let outcomes = server.answer_many(&queries);
///
/// for (range, outcome) in ranges.iter().zip(&outcomes) {
///     let mut got = outcome.as_ref().unwrap().ids.clone();
///     let mut expected = dataset.matching_ids(*range);
///     got.sort(); expected.sort();
///     assert_eq!(got, expected);
/// }
/// ```
#[derive(Clone, Debug)]
pub struct QueryServer {
    index: ShardedIndex,
}

impl QueryServer {
    /// Wraps a sharded dictionary in a batched search endpoint.
    pub fn new(index: ShardedIndex) -> Self {
        Self { index }
    }

    /// Cold-opens a batched search endpoint over an index previously
    /// persisted with [`ShardedIndex::save_to_dir`] (or built straight to
    /// disk through a `StorageConfig::on_disk` build): the shard
    /// directories are loaded, the ciphertext regions stay on disk behind
    /// paged reads, and [`answer_many`](Self::answer_many) serves queries
    /// immediately — no rebuild, no full-index residency.
    ///
    /// # Errors
    ///
    /// Surfaces every malformed input as a typed [`StorageError`] (see
    /// [`ShardedIndex::open_dir`]).
    pub fn open_dir(dir: impl AsRef<Path>) -> Result<Self, StorageError> {
        Ok(Self::new(ShardedIndex::open_dir(dir)?))
    }

    /// Like [`open_dir`](Self::open_dir), but bounds the resident
    /// ciphertext blocks of the served index at `cache_budget` bytes
    /// (`None` = unlimited): all shards share one clock block cache, so a
    /// long-running server's memory tracks its working set instead of
    /// everything it ever touched. Query outcomes are identical for every
    /// budget; `index().cache_stats()` exposes the hit/miss/eviction
    /// counters.
    pub fn open_dir_with_budget(
        dir: impl AsRef<Path>,
        cache_budget: Option<usize>,
    ) -> Result<Self, StorageError> {
        Ok(Self::new(ShardedIndex::open_dir_with_budget(
            dir,
            cache_budget,
        )?))
    }

    /// Serializes the underlying dictionary into `dir` (see
    /// [`ShardedIndex::save_to_dir`]).
    pub fn save_to_dir(&self, dir: impl AsRef<Path>) -> Result<(), StorageError> {
        self.index.save_to_dir(dir)
    }

    /// The underlying sharded dictionary.
    pub fn index(&self) -> &ShardedIndex {
        &self.index
    }

    /// Number of label-prefix bits sharding the dictionary.
    pub fn shard_bits(&self) -> u32 {
        self.index.shard_bits()
    }

    /// Answers one range query's whole token vector in a single counter
    /// scan ([`scan_query_into_with`] + [`assemble_outcome`]): ids come
    /// back grouped by token in token order, each group in storage-counter
    /// order.
    ///
    /// # Errors
    ///
    /// A failed block read on a disk-backed index aborts the query with a
    /// typed [`StorageError`] instead of silently shortening the result —
    /// the caller can tell "label absent" (an empty group in `Ok`) from
    /// "the disk failed" (`Err`) per query. In-memory indexes never fail.
    pub fn answer(&self, tokens: &[SearchToken]) -> Result<QueryOutcome, StorageError> {
        let mut per_token: Vec<Vec<DocId>> = Vec::new();
        let mut scratch = ScanScratch::default();
        let counts = scan_query_into_with(&self.index, tokens, &mut per_token, &mut scratch)?;
        Ok(assemble_outcome(tokens, per_token, &counts))
    }

    /// Answers a batch of concurrent queries — one token vector per client
    /// — in parallel, returning **per-query** results in query order.
    ///
    /// The shards are immutable behind `&self`, so the per-query worker
    /// threads read them lock-free; each query is answered with the
    /// single-query scan of [`answer`](Self::answer), and the output order
    /// is the input order regardless of thread scheduling.
    ///
    /// # Partial-batch error reporting
    ///
    /// Queries are independent, so one query's storage fault does not abort
    /// its whole batch: each slot carries its own `Result`, and a healthy
    /// query in a faulted batch still returns `Ok`. This is the **raw**
    /// serving path — a probe failure surfaces immediately as its typed
    /// [`StorageError`] with no retry. Production callers that want
    /// transient faults absorbed (budgeted per-probe retries with jittered
    /// backoff, deadlines, per-shard circuit breakers) should serve through
    /// `rsse_serve::ResilientServer`, which wraps this server and keeps
    /// outcomes byte-identical. Callers that want all-or-nothing collection
    /// `collect` the slots into a `Result<Vec<_>, _>`.
    pub fn answer_many(
        &self,
        queries: &[Vec<SearchToken>],
    ) -> Vec<Result<QueryOutcome, StorageError>> {
        queries
            .par_iter()
            .map(|tokens| self.answer(tokens))
            .collect()
    }
}

/// Chaos-harness support: faults injected into a `QueryServer` wrap its
/// dictionary's shards (see the `rsse_sse::fault` module). Test support
/// only — production servers never carry fault wrappers.
impl rsse_sse::FaultInjectable for QueryServer {
    fn fault_indexes(&mut self) -> Vec<&mut ShardedIndex> {
        vec![&mut self.index]
    }
}

#[cfg(test)]
mod tests {
    use super::{scan_query_into_with, QueryServer, ScanScratch};
    use crate::schemes::log_brc_urc::LogScheme;
    use crate::schemes::testutil::{self, TempDir};
    use crate::schemes::CoverKind;
    use crate::traits::{QueryOutcome, RangeScheme};
    use rand::SeedableRng;
    use rand_chacha::ChaCha20Rng;
    use rsse_cover::Range;
    use rsse_sse::pibas::reference;
    use rsse_sse::{
        CipherSpan, IndexLookup, Label, SearchToken, ShardedIndex, SseScheme, StorageConfig,
        StorageError, TokenLabeler,
    };
    use std::cell::{Cell, RefCell};
    use std::collections::HashMap;

    /// In-memory Logarithmic build over `2^bits` shards.
    fn build_log(
        dataset: &crate::Dataset,
        kind: CoverKind,
        bits: u32,
        seed: u64,
    ) -> (LogScheme, QueryServer) {
        let mut rng = ChaCha20Rng::seed_from_u64(seed);
        let config = StorageConfig::in_memory(bits);
        let (client, server) =
            LogScheme::build_full_stored(dataset, kind, false, &config, &mut rng).unwrap();
        (client, server.into_query_server())
    }

    /// All-or-nothing collection of `answer_many`.
    fn answer_all(
        qs: &QueryServer,
        queries: &[Vec<SearchToken>],
    ) -> Result<Vec<QueryOutcome>, StorageError> {
        qs.answer_many(queries).into_iter().collect()
    }

    #[test]
    fn answer_matches_per_token_search_ids() {
        // The oracle is the single-token walk over the per-entry reference
        // dictionary holding the same (label, ciphertext) pairs — no code
        // shared with the scan `answer` runs.
        let (key, db, tokens) = testutil::oracle_database(&[3, 0, 7, 1, 12, 5]);
        let absent = SseScheme::trapdoor(&key, b"absent");
        let vectors: Vec<Vec<SearchToken>> = vec![
            tokens.clone(),
            tokens.iter().rev().cloned().collect(),
            vec![tokens[2].clone(), absent.clone(), tokens[2].clone()],
            vec![absent],
            Vec::new(),
        ];
        let oracle = reference::build_index(&key, &db, &mut ChaCha20Rng::seed_from_u64(1));
        for bits in [0u32, 3, 6] {
            let config = StorageConfig::in_memory(bits);
            let mut rng = ChaCha20Rng::seed_from_u64(1);
            let index = SseScheme::build_index_stored(&key, &db, &config, &mut rng).unwrap();
            let qs = QueryServer::new(index);
            assert_eq!(qs.shard_bits(), bits);
            for tokens in &vectors {
                let outcome = qs.answer(tokens).unwrap();
                let (expected_ids, groups) = testutil::oracle_search_ids(&oracle, tokens);
                assert_eq!(outcome.ids, expected_ids, "ids must match per-token order");
                assert_eq!(outcome.stats.entries_touched, groups.iter().sum::<usize>());
                assert_eq!(outcome.stats.tokens_sent, tokens.len());
                assert_eq!(outcome.stats.result_groups, tokens.len());
            }
        }
    }

    /// An index that counts its probes, remembers which token's list each
    /// hit belonged to, and fails probe number `fail_at`.
    struct FailAt<'i> {
        inner: &'i ShardedIndex,
        owner: &'i HashMap<Label, usize>,
        fail_at: Option<usize>,
        probes: Cell<usize>,
        hit_owners: RefCell<Vec<usize>>,
    }

    impl IndexLookup for FailAt<'_> {
        type Error = Option<StorageError>;

        fn try_get(&self, label: &Label) -> Result<Option<CipherSpan<'_>>, Self::Error> {
            if self.fail_at == Some(self.probes.get()) {
                return Err(None);
            }
            self.probes.set(self.probes.get() + 1);
            let hit = self.inner.try_get(label).map_err(Some)?;
            if hit.is_some() {
                self.hit_owners.borrow_mut().push(self.owner[label]);
            }
            Ok(hit)
        }
    }

    #[test]
    fn a_failed_probe_leaves_exactly_the_ids_resolved_before_it() {
        // Lists on both sides of the scan's window edges, one absent token.
        let (key, db, mut tokens) = testutil::oracle_database(&[3, 0, 9, 1, 16, 2]);
        tokens.insert(2, SseScheme::trapdoor(&key, b"absent"));
        let config = StorageConfig::in_memory(3);
        let mut rng = ChaCha20Rng::seed_from_u64(5);
        let index = SseScheme::build_index_stored(&key, &db, &config, &mut rng).unwrap();
        let owner: HashMap<Label, usize> = tokens
            .iter()
            .enumerate()
            .flat_map(|(t, token)| {
                let labeler = TokenLabeler::new(token);
                (0..32).map(move |counter| (labeler.label_at(counter), t))
            })
            .collect();
        let scan = |fail_at: Option<usize>| {
            let guarded = FailAt {
                inner: &index,
                owner: &owner,
                fail_at,
                probes: Cell::new(0),
                hit_owners: RefCell::default(),
            };
            let mut per_token = Vec::new();
            let mut scratch = ScanScratch::default();
            let counts = scan_query_into_with(&guarded, &tokens, &mut per_token, &mut scratch);
            (counts, per_token, guarded.hit_owners.into_inner())
        };

        let (counts, full, hit_owners) = scan(None);
        let counts = counts.unwrap();
        assert_eq!(counts, [3, 0, 0, 9, 1, 16, 2]);
        let probes = counts.iter().map(|count| count + 1).sum::<usize>();
        for k in 0..probes {
            let (result, per_token, resolved) = scan(Some(k));
            assert!(matches!(result, Err(None)), "probe {k} fails the scan");
            // The walk is deterministic: the hits before probe `k` are a
            // prefix of the healthy run's, and each token's group is the
            // matching prefix of its healthy group — hits of the failing
            // round included.
            assert_eq!(resolved, &hit_owners[..resolved.len()], "before probe {k}");
            for (t, group) in per_token.iter().enumerate() {
                let hits = resolved.iter().filter(|&&owner| owner == t).count();
                assert_eq!(group, &full[t][..hits], "token {t} before probe {k}");
            }
        }
    }

    #[test]
    fn answer_many_is_deterministic_and_query_ordered() {
        let dataset = testutil::skewed_dataset();
        let (client, qs) = build_log(&dataset, CoverKind::Brc, 4, 2);
        let ranges: Vec<Range> = (0..16u64).map(|i| Range::new(i, i + 7)).collect();
        let queries: Vec<Vec<SearchToken>> = ranges
            .iter()
            .map(|&r| client.trapdoor(r).unwrap())
            .collect();
        let a = answer_all(&qs, &queries).unwrap();
        let b = answer_all(&qs, &queries).unwrap();
        assert_eq!(a, b, "same batch must produce identical outcomes");
        for (outcome, range) in a.iter().zip(&ranges) {
            testutil::assert_exact(&dataset, *range, outcome);
        }
    }

    #[test]
    fn query_many_handles_out_of_domain_queries() {
        // An out-of-domain range has no trapdoor; the owner answers it
        // empty without contacting the server.
        let dataset = testutil::skewed_dataset();
        let (client, qs) = build_log(&dataset, CoverKind::Brc, 2, 3);
        let ranges = [Range::new(2, 7), Range::new(1000, 2000), Range::new(0, 63)];
        assert!(client.trapdoor(ranges[1]).is_none());
        let queries: Vec<Vec<SearchToken>> = ranges
            .iter()
            .map(|&r| client.trapdoor(r).unwrap_or_default())
            .collect();
        let outcomes = answer_all(&qs, &queries).unwrap();
        assert_eq!(outcomes.len(), 3);
        testutil::assert_exact(&dataset, ranges[0], &outcomes[0]);
        assert!(outcomes[1].is_empty(), "out-of-domain query must be empty");
        testutil::assert_exact(&dataset, ranges[2], &outcomes[2]);
    }

    #[test]
    fn cold_opened_server_answers_identically_to_in_memory() {
        // The PR 3 acceptance criterion: build with the file backend (same
        // RNG stream as the in-memory build), drop everything, reopen from
        // disk via QueryServer::open_dir, and serve answer_many with
        // results identical to the in-memory backend — no rebuild.
        let dataset = testutil::uniform_dataset();
        for bits in [0u32, 4] {
            let (_, mem_qs) = build_log(&dataset, CoverKind::Brc, bits, 11);

            let dir = TempDir::new("cold-open");
            let mut rng_disk = ChaCha20Rng::seed_from_u64(11);
            let (client, disk_server) = LogScheme::build_stored(
                &dataset,
                &StorageConfig::on_disk(bits, dir.path()),
                &mut rng_disk,
            )
            .unwrap();
            assert!(disk_server.index().is_file_backed());
            drop(disk_server); // nothing of the built index survives in RAM

            let qs = QueryServer::open_dir(dir.path()).unwrap();
            assert_eq!(qs.shard_bits(), bits);
            assert!(qs.index().is_file_backed());
            let ranges: Vec<Range> = testutil::query_mix(dataset.domain().size());
            let queries: Vec<Vec<SearchToken>> = ranges
                .iter()
                .map(|&r| client.trapdoor(r).unwrap())
                .collect();
            let cold = answer_all(&qs, &queries).unwrap();
            let warm = answer_all(&mem_qs, &queries).unwrap();
            assert_eq!(
                cold, warm,
                "cold-open outcomes must match in-memory (k={bits})"
            );
            for (range, outcome) in ranges.iter().zip(&cold) {
                testutil::assert_exact(&dataset, *range, outcome);
            }
        }
    }

    #[test]
    fn query_many_agrees_with_single_query_path() {
        let dataset = testutil::uniform_dataset();
        let mut rng = ChaCha20Rng::seed_from_u64(4);
        let config = StorageConfig::in_memory(5);
        let (client, single_server) =
            LogScheme::build_full_stored(&dataset, CoverKind::Urc, false, &config, &mut rng)
                .unwrap();
        let qs = single_server.clone().into_query_server();
        let ranges: Vec<Range> = testutil::query_mix(dataset.domain().size());
        let queries: Vec<Vec<SearchToken>> = ranges
            .iter()
            .map(|&r| client.trapdoor(r).unwrap())
            .collect();
        let batched = answer_all(&qs, &queries).unwrap();
        for (range, outcome) in ranges.iter().zip(&batched) {
            assert_eq!(outcome, &client.query(&single_server, *range));
            testutil::assert_exact(&dataset, *range, outcome);
        }
    }
}
