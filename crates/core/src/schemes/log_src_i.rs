//! The Logarithmic-SRC-i scheme (Section 6.3) — the paper's best
//! security/efficiency trade-off.
//!
//! Logarithmic-SRC can return up to `O(n)` false positives under skew
//! because its single covering node is chosen over the *domain*, where a
//! huge pile of tuples may sit on one value just outside the query. SRC-i
//! fixes this with a double index and one extra round:
//!
//! * `I1` indexes, for every **distinct domain value**, the contiguous range
//!   of positions its tuples occupy in the value-sorted order — a single
//!   `(value, [start, end])` document per distinct value — under the TDAG
//!   over the *domain* (`TDAG1`).
//! * `I2` indexes the tuples themselves, sorted by value (ties shuffled),
//!   under the TDAG over the *positions* `0 … n−1` (`TDAG2`).
//!
//! A query first asks `I1` for the SRC node of its range, learns which
//! position spans belong to qualifying values, merges them into one position
//! range, and then asks `I2` for the SRC node of that position range. False
//! positives drop to `O(R + r)` regardless of skew.

use crate::dataset::{Dataset, Record};
use crate::metrics::{IndexStats, QueryStats};
use crate::schemes::common::{
    clamp_query, decode_value_span, encode_value_span_array, grouped_fixed_index_stored,
};
use crate::server::QueryServer;
use crate::traits::{QueryOutcome, RangeScheme};
use rand::{CryptoRng, RngCore};
use rsse_cover::{Domain, Range, Tdag};
use rsse_crypto::{permute, KeyChain, Prf};
use rsse_sse::{SearchToken, ShardedIndex, SseKey, SseScheme, StorageConfig, StorageError};

/// Owner-side state of Logarithmic-SRC-i.
#[derive(Clone, Debug)]
pub struct LogSrcIScheme {
    key1: SseKey,
    key2: SseKey,
    tdag1: Tdag,
    tdag2: Tdag,
}

/// Subdirectories of an on-disk SRC-i server's directory holding `I1` and
/// `I2`, in the order of the server's two [`QueryServer`]s.
pub const INDEX_SUBDIRS: [&str; 2] = ["i1", "i2"];

impl LogSrcIScheme {
    /// Builds both indexes on the backend `config` selects; with an
    /// on-disk backend `I1` and `I2` are streamed into the
    /// [`INDEX_SUBDIRS`] of the configured directory. The server is the
    /// two dictionaries, `[I1, I2]`.
    pub fn build_impl_stored<R: RngCore + CryptoRng>(
        dataset: &Dataset,
        config: &StorageConfig,
        rng: &mut R,
    ) -> Result<(Self, [QueryServer; 2]), StorageError> {
        let domain = *dataset.domain();
        let chain = KeyChain::generate(rng);
        let key1 = SseScheme::key_from(chain.derive(b"sse-i1"));
        let key2 = SseScheme::key_from(chain.derive(b"sse-i2"));
        let shuffle = Prf::new(&chain.derive(b"shuffle"));

        // Sort tuples by value; shuffle ties so the position of a tuple
        // within its value group is independent of its id.
        let mut sorted: Vec<Record> = dataset.sorted_by_value();
        let mut start = 0usize;
        while start < sorted.len() {
            let value = sorted[start].value;
            let mut end = start;
            while end < sorted.len() && sorted[end].value == value {
                end += 1;
            }
            permute::keyed_shuffle(&shuffle, &value.to_le_bytes(), &mut sorted[start..end]);
            start = end;
        }

        // TDAG1 over the domain indexes (value, position-span) documents.
        let tdag1 = Tdag::new(domain);
        let mut entries1: Vec<([u8; 13], [u8; 24])> = Vec::new();
        let mut i = 0usize;
        while i < sorted.len() {
            let value = sorted[i].value;
            let mut j = i;
            while j < sorted.len() && sorted[j].value == value {
                j += 1;
            }
            let payload = encode_value_span_array(value, i as u64, (j - 1) as u64);
            for node in tdag1.covering_nodes(value) {
                entries1.push((node.keyword(), payload));
            }
            i = j;
        }
        let index1 = grouped_fixed_index_stored(
            &key1,
            &chain.derive(b"shuffle-i1"),
            entries1,
            &config.subdir(INDEX_SUBDIRS[0]),
            rng,
        )?;

        // TDAG2 over positions 0..n indexes the tuples themselves. This is
        // the corpus-sized index, so it streams entries into the grouped
        // build: with a build budget set, nothing n·log n-sized is ever
        // collected (the value-sorted record array itself stays resident —
        // a scheme-level floor documented in ARCHITECTURE.md).
        let position_domain = Domain::new(sorted.len().max(1) as u64);
        let tdag2 = Tdag::new(position_domain);
        let entries2 = sorted.iter().enumerate().flat_map(|(position, record)| {
            let payload = record.id_payload_array();
            tdag2
                .covering_nodes(position as u64)
                .into_iter()
                .map(move |node| (node.keyword(), payload))
        });
        let index2 = match grouped_fixed_index_stored(
            &key2,
            &chain.derive(b"shuffle-i2"),
            entries2,
            &config.subdir(INDEX_SUBDIRS[1]),
            rng,
        ) {
            Ok(index2) => index2,
            Err(error) => {
                // I2 failed after I1 was durably written: unwind I1 so a
                // failed build never leaves half a two-index server behind.
                if let rsse_sse::StorageBackend::OnDisk(dir) = &config.backend {
                    rsse_sse::storage::cleanup_partial_index(
                        &dir.join(INDEX_SUBDIRS[0]),
                        1usize << config.shard_bits,
                    );
                    let _ = rsse_sse::formats::remove_dir(dir);
                }
                return Err(error);
            }
        };
        Ok((
            Self {
                key1,
                key2,
                tdag1,
                tdag2,
            },
            [QueryServer::new(index1), QueryServer::new(index2)],
        ))
    }

    /// First-stage trapdoor: the SRC token over `TDAG1` for the query range.
    pub fn trapdoor_stage1(&self, range: Range) -> Option<SearchToken> {
        let clamped = clamp_query(self.tdag1.domain(), range)?;
        let node = self.tdag1.src_cover(clamped);
        Some(SseScheme::trapdoor(&self.key1, &node.keyword()))
    }

    /// Second-stage trapdoor: the SRC token over `TDAG2` for a merged
    /// position range.
    pub fn trapdoor_stage2(&self, positions: Range) -> Option<SearchToken> {
        let clamped = clamp_query(self.tdag2.domain(), positions)?;
        let node = self.tdag2.src_cover(clamped);
        Some(SseScheme::trapdoor(&self.key2, &node.keyword()))
    }

    /// Owner-side processing between the two rounds: decode the
    /// `(value, span)` documents returned by `I1`, keep those whose value
    /// satisfies the query, and merge their spans into one position range.
    pub fn merge_spans(range: Range, stage1_payloads: &[Vec<u8>]) -> Option<Range> {
        let mut merged: Option<Range> = None;
        for payload in stage1_payloads {
            let Some((value, start, end)) = decode_value_span(payload) else {
                continue;
            };
            if !range.contains(value) {
                continue;
            }
            let span = Range::new(start, end);
            merged = Some(match merged {
                Some(current) => current.union_hull(span),
                None => span,
            });
        }
        merged
    }
}

impl RangeScheme for LogSrcIScheme {
    type Server = [QueryServer; 2];
    const NAME: &'static str = "Logarithmic-SRC-i";

    fn build_stored<R: RngCore + CryptoRng>(
        dataset: &Dataset,
        config: &StorageConfig,
        rng: &mut R,
    ) -> Result<(Self, Self::Server), StorageError> {
        Self::build_impl_stored(dataset, config, rng)
    }

    /// Fast reopen of a persisted two-index server: the owner state is a
    /// pure function of the RNG stream's leading `KeyChain` draw plus two
    /// public parameters (the domain and the dataset size, which fixes
    /// `TDAG2`'s position domain), so both dictionaries are cold-opened
    /// from their subdirectories without a rebuild. In-memory configs
    /// fall back to the deterministic rebuild.
    fn open_stored<R: RngCore + CryptoRng>(
        dataset: &Dataset,
        config: &StorageConfig,
        rng: &mut R,
    ) -> Result<(Self, Self::Server), StorageError> {
        match &config.backend {
            rsse_sse::StorageBackend::InMemory => Self::build_stored(dataset, config, rng),
            rsse_sse::StorageBackend::OnDisk(dir) => {
                // Exactly the key-material draws build_impl_stored makes
                // before it reads the dataset.
                let chain = KeyChain::generate(rng);
                let key1 = SseScheme::key_from(chain.derive(b"sse-i1"));
                let key2 = SseScheme::key_from(chain.derive(b"sse-i2"));
                let tdag1 = Tdag::new(*dataset.domain());
                let tdag2 = Tdag::new(Domain::new(dataset.len().max(1) as u64));
                let open = |subdir| {
                    QueryServer::open_dir_with_budget(dir.join(subdir), config.cache_budget)
                };
                let server = [open(INDEX_SUBDIRS[0])?, open(INDEX_SUBDIRS[1])?];
                Ok((
                    Self {
                        key1,
                        key2,
                        tdag1,
                        tdag2,
                    },
                    server,
                ))
            }
        }
    }

    fn try_query(&self, server: &Self::Server, range: Range) -> Result<QueryOutcome, StorageError> {
        let Some(clamped) = clamp_query(self.tdag1.domain(), range) else {
            return Ok(QueryOutcome::default());
        };
        // Round 1: query I1 for the (value, span) documents. A storage
        // failure here aborts before the second round is ever issued.
        let token1 = self
            .trapdoor_stage1(clamped)
            .expect("clamped range is inside the domain");
        let stage1 = stage1_documents(server[0].index(), &token1)?;
        let stage1_touched = stage1.len();

        // Owner merges the qualifying spans.
        let Some(positions) = Self::merge_spans(clamped, &stage1) else {
            // No qualifying value: empty result after a single round.
            return Ok(QueryOutcome {
                ids: Vec::new(),
                stats: QueryStats {
                    tokens_sent: 1,
                    token_bytes: SearchToken::SIZE_BYTES,
                    rounds: 1,
                    entries_touched: stage1_touched,
                    result_groups: 1,
                },
            });
        };

        // Round 2: query I2 for the tuples in the merged position range.
        let token2 = self
            .trapdoor_stage2(positions)
            .expect("merged positions are valid indices into the sorted dataset");
        let stage2 = server[1].answer(&[token2])?;
        Ok(QueryOutcome {
            ids: stage2.ids,
            stats: QueryStats {
                tokens_sent: 2,
                token_bytes: 2 * SearchToken::SIZE_BYTES,
                rounds: 2,
                entries_touched: stage1_touched + stage2.stats.entries_touched,
                result_groups: 1,
            },
        })
    }

    fn index_stats(server: &Self::Server) -> IndexStats {
        server[0].index_stats().merged(server[1].index_stats())
    }
}

/// Round 1 at the server: the counter scan over `I1` for `token`, each hit
/// decrypted into its `(value, span)` document (an undecryptable entry is
/// skipped).
fn stage1_documents(
    index: &ShardedIndex,
    token: &SearchToken,
) -> Result<Vec<Vec<u8>>, StorageError> {
    let cipher = token.payload_cipher();
    let mut documents = Vec::new();
    SseScheme::search_scan_rounds(index, std::slice::from_ref(token), |round| {
        documents.extend(round.iter().filter_map(|(_, hit)| cipher.decrypt(hit)));
    })?;
    Ok(documents)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Evaluation;
    use crate::schemes::common::encode_value_span;
    use crate::schemes::log_src::LogSrcScheme;
    use crate::schemes::testutil;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha20Rng;

    #[test]
    fn results_are_complete_on_query_mix() {
        let mut rng = ChaCha20Rng::seed_from_u64(1);
        for dataset in [testutil::skewed_dataset(), testutil::uniform_dataset()] {
            let (client, server) = LogSrcIScheme::build(&dataset, &mut rng);
            for range in testutil::query_mix(dataset.domain().size()) {
                let outcome = client.query(&server, range);
                testutil::assert_complete(&dataset, range, &outcome);
            }
        }
    }

    #[test]
    fn paper_example_figure4() {
        // D = {d0..d15} with d0..d9 on value 2, d10 on 4, d11-d12 on 5,
        // d13-d14 on 6, d15 on 7; query [3,5] must return d10, d11, d12 and
        // at most O(R + r) extras — in particular *not* the ten tuples on
        // value 2, which plain SRC would return.
        let records: Vec<Record> = (0..16u64)
            .map(|i| {
                let value = match i {
                    0..=9 => 2,
                    10 => 4,
                    11 | 12 => 5,
                    13 | 14 => 6,
                    _ => 7,
                };
                Record::new(i, value)
            })
            .collect();
        let dataset = Dataset::new(Domain::new(8), records).unwrap();
        let mut rng = ChaCha20Rng::seed_from_u64(2);
        let (client, server) = LogSrcIScheme::build(&dataset, &mut rng);
        let range = Range::new(3, 5);
        let outcome = client.query(&server, range);
        let eval = testutil::assert_complete(&dataset, range, &outcome);
        assert!(
            eval.false_positives <= 4,
            "SRC-i should return only a handful of false positives, got {}",
            eval.false_positives
        );
        // ids 0..9 are the value-2 pile; none of them may be returned.
        assert!(
            !outcome.ids.iter().any(|id| *id <= 9),
            "the value-2 pile must not be returned: {:?}",
            outcome.ids
        );
        assert_eq!(outcome.stats.rounds, 2);
        assert_eq!(outcome.stats.tokens_sent, 2);
    }

    #[test]
    fn src_i_beats_src_under_skew() {
        // The headline claim of Section 6.3, and the shape of Figure 6(b).
        let dataset = testutil::skewed_dataset();
        let mut rng = ChaCha20Rng::seed_from_u64(3);
        let (src, src_server) = LogSrcScheme::build(&dataset, &mut rng);
        let (srci, srci_server) = LogSrcIScheme::build(&dataset, &mut rng);
        let range = Range::new(3, 5);
        let expected = dataset.matching_ids(range);
        let src_eval = Evaluation::compare(&src.query(&src_server, range).ids, &expected);
        let srci_eval = Evaluation::compare(&srci.query(&srci_server, range).ids, &expected);
        assert!(srci_eval.false_positives < src_eval.false_positives);
    }

    #[test]
    fn empty_result_needs_single_round() {
        let dataset = testutil::skewed_dataset();
        let mut rng = ChaCha20Rng::seed_from_u64(4);
        let (client, server) = LogSrcIScheme::build(&dataset, &mut rng);
        // [40,45] contains no tuple values, and the SRC node around it
        // contains none either.
        let outcome = client.query(&server, Range::new(40, 45));
        assert!(outcome.is_empty());
        assert_eq!(outcome.stats.rounds, 1);
    }

    #[test]
    fn i1_size_tracks_distinct_values() {
        let dataset = testutil::skewed_dataset();
        let mut rng = ChaCha20Rng::seed_from_u64(5);
        let (client, server) = LogSrcIScheme::build(&dataset, &mut rng);
        // The size of `I1` leaks the number of distinct values — part of
        // the scheme's extra leakage (Section 6.3).
        let (i1, i2) = (server[0].index_stats(), server[1].index_stats());
        let tdag1 = &client.tdag1;
        let expected_i1: usize = {
            use std::collections::BTreeSet;
            let distinct: BTreeSet<u64> = dataset.records().iter().map(|r| r.value).collect();
            distinct
                .iter()
                .map(|v| tdag1.covering_nodes(*v).len())
                .sum()
        };
        assert_eq!(i1.entries, expected_i1);
        // I2 indexes every tuple once per covering TDAG2 node.
        assert!(i2.entries >= dataset.len());
        assert_eq!(
            LogSrcIScheme::index_stats(&server).entries,
            i1.entries + i2.entries
        );
    }

    #[test]
    fn merge_spans_filters_and_merges() {
        let payloads = vec![
            encode_value_span(2, 0, 9),
            encode_value_span(4, 10, 10),
            encode_value_span(5, 11, 12),
        ];
        // Query [3,5]: value 2 is filtered out, spans [10,10] and [11,12]
        // merge into [10,12] — the exact example of Section 6.3.
        assert_eq!(
            LogSrcIScheme::merge_spans(Range::new(3, 5), &payloads),
            Some(Range::new(10, 12))
        );
        assert_eq!(
            LogSrcIScheme::merge_spans(Range::new(0, 1), &payloads),
            None
        );
        // Corrupt payloads are ignored rather than crashing the owner.
        assert_eq!(
            LogSrcIScheme::merge_spans(Range::new(0, 10), &[vec![1, 2, 3]]),
            None
        );
    }

    #[test]
    fn out_of_domain_query_is_empty() {
        let dataset = testutil::skewed_dataset();
        let mut rng = ChaCha20Rng::seed_from_u64(6);
        let (client, server) = LogSrcIScheme::build(&dataset, &mut rng);
        assert!(client.query(&server, Range::new(500, 600)).is_empty());
    }

    #[test]
    fn both_indexes_persist_and_cold_open() {
        use rsse_sse::StorageConfig;
        let dataset = testutil::skewed_dataset();
        let dir = testutil::TempDir::new("srci-disk");
        let mut rng_mem = ChaCha20Rng::seed_from_u64(31);
        let (_, mem_server) = LogSrcIScheme::build(&dataset, &mut rng_mem);
        let mut rng_disk = ChaCha20Rng::seed_from_u64(31);
        let (client, disk_server) = LogSrcIScheme::build_impl_stored(
            &dataset,
            &StorageConfig::on_disk(0, dir.path()),
            &mut rng_disk,
        )
        .unwrap();
        assert!(disk_server.iter().all(|s| s.index().is_file_backed()));
        drop(disk_server);
        let open = |root: &std::path::Path| {
            INDEX_SUBDIRS.map(|subdir| QueryServer::open_dir(root.join(subdir)).unwrap())
        };
        let reopened = open(dir.path());
        for range in testutil::query_mix(dataset.domain().size()) {
            assert_eq!(
                client.query(&reopened, range).ids,
                client.query(&mem_server, range).ids,
                "cold-open must answer like the in-memory server for {range}"
            );
        }
        // Round-trip: save the reopened server and reopen again.
        let dir2 = testutil::TempDir::new("srci-resave");
        for (server, subdir) in reopened.iter().zip(INDEX_SUBDIRS) {
            server.save_to_dir(dir2.path().join(subdir)).unwrap();
        }
        let again = open(dir2.path());
        for (again, reopened) in again.iter().zip(&reopened) {
            assert_eq!(again.index_stats(), reopened.index_stats());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        #[test]
        fn complete_and_false_positives_bounded_by_cover(
            values in proptest::collection::vec(0u64..100, 1..40),
            lo in 0u64..100,
            len in 1u64..100)
        {
            let domain = Domain::new(100);
            let records: Vec<Record> = values
                .iter()
                .enumerate()
                .map(|(i, &v)| Record::new(i as u64, v))
                .collect();
            let dataset = Dataset::new(domain, records).unwrap();
            let mut rng = ChaCha20Rng::seed_from_u64(8);
            let (client, server) = LogSrcIScheme::build(&dataset, &mut rng);
            let hi = (lo + len - 1).min(99);
            let range = Range::new(lo, hi);
            let outcome = client.query(&server, range);
            let expected = dataset.matching_ids(range);
            let eval = Evaluation::compare(&outcome.ids, &expected);
            prop_assert!(eval.is_complete(), "missed ids for {range}");
            // The second index's cover is at most 4× the merged position
            // span, so false positives are bounded by 4(r + R) generously.
            let r = expected.len() as u64;
            prop_assert!((eval.false_positives as u64) <= 4 * (r + range.len()) + 4);
        }
    }
}
