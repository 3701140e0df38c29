//! The server-side query path: one range query's token vector → the
//! lock-step counter scan → per-token id groups → a [`QueryOutcome`].
//!
//! The paper's server model (Sections 6–7) is a machine answering many
//! concurrent range queries, each of which expands into a *vector* of SSE
//! tokens — one per BRC/URC covering node. Every scheme and every serving
//! layer answers such a vector through the same three steps defined here:
//!
//! * [`scan_query_into_with`] runs the whole vector through the one counter
//!   scan ([`SseScheme::search_batch_scan`]): all tokens advance one
//!   counter round at a time and each round's probes are resolved together,
//!   grouped by shard of the underlying [`ShardedIndex`];
//! * every hit is decrypted into one reused buffer and decoded straight
//!   into its token's id group ([`decode_hit_into`]) — no per-payload heap
//!   allocation;
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
use rsse_sse::{IndexLookup, SearchToken, ShardedIndex, SseScheme, StorageError};
use std::path::Path;

/// Decrypts one probe hit with its token's payload cipher (into the reused
/// `plaintext` buffer) and decodes the tuple id. Returns `None` for a
/// corrupt (undecryptable or undecodable) entry — the scan skips it, it is
/// never a panic.
///
/// This is the single definition of hit decoding: the sequential scan
/// ([`scan_query_into_with`]) and the batch executor in `rsse-serve` both
/// decode through it, which is what makes their outcomes byte-identical.
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

/// Reusable per-query scan state: the per-token payload ciphers and the one
/// plaintext buffer every hit decrypts into. A serving layer answering many
/// queries keeps one `ScanScratch` per worker thread and rekeys it per
/// query, so steady-state serving does no per-query scratch allocation.
#[derive(Debug, Default)]
pub struct ScanScratch {
    ciphers: Vec<StreamCipher>,
    plaintext: Vec<u8>,
}

impl ScanScratch {
    /// (Re)derives the payload ciphers of `tokens` into the reused vector.
    pub fn rekey(&mut self, tokens: &[SearchToken]) {
        self.ciphers.clear();
        self.ciphers
            .extend(tokens.iter().map(SearchToken::payload_cipher));
    }

    /// Decodes one hit of token `t` (see [`decode_hit_into`]). Call
    /// [`rekey`](Self::rekey) with the query's tokens first.
    pub fn decode_hit(&mut self, t: usize, ciphertext: &[u8]) -> Option<DocId> {
        decode_hit_into(&self.ciphers[t], ciphertext, &mut self.plaintext)
    }
}

/// Runs one range query's whole token vector against any index in a single
/// lockstep scan, decrypting and decoding every hit into `per_token` (one
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
/// decrypt buffer, so a caller answering many queries reuses them across
/// queries instead of reallocating per query.
///
/// # Errors
///
/// A failed probe aborts the scan with the index's typed error
/// ([`StorageError`] for disk-backed indexes). On error, `per_token` keeps
/// every id decoded before the failure — the lockstep scan visits all
/// tokens in counter rounds, so the groups are a faithful "what was
/// resolved so far" snapshot a caller can surface as a typed partial
/// result.
pub fn scan_query_into_with<I: IndexLookup>(
    index: &I,
    tokens: &[SearchToken],
    per_token: &mut Vec<Vec<DocId>>,
    scratch: &mut ScanScratch,
) -> Result<Vec<usize>, I::Error> {
    per_token.clear();
    per_token.resize_with(tokens.len(), Vec::new);
    scratch.rekey(tokens);
    SseScheme::search_batch_scan(index, tokens, |t, ciphertext| {
        if let Some(id) = scratch.decode_hit(t, ciphertext) {
            per_token[t].push(id);
        }
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

    /// Answers one range query's whole token vector in a single lock-step
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
    use super::QueryServer;
    use crate::schemes::log_brc_urc::LogScheme;
    use crate::schemes::testutil::{self, TempDir};
    use crate::schemes::CoverKind;
    use crate::traits::{QueryOutcome, RangeScheme};
    use rand::SeedableRng;
    use rand_chacha::ChaCha20Rng;
    use rsse_cover::Range;
    use rsse_sse::pibas::reference;
    use rsse_sse::{SearchToken, SseScheme, StorageConfig, StorageError};

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
