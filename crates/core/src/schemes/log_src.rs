//! The Logarithmic-SRC scheme (Section 6.2).
//!
//! The result-partitioning leakage of Logarithmic-BRC/URC comes from sending
//! one token per covering node. Logarithmic-SRC sends a *single* token: the
//! query range is covered by one node of the TDAG (binary tree plus injected
//! "cousin-bridging" nodes), whose subtree has size at most `4R` (Lemma 1).
//! Each tuple is therefore replicated over its `O(log m)` TDAG ancestors at
//! build time. The scheme degenerates to plain single-keyword SSE — optimal
//! query size and the strongest privacy in the framework — at the cost of
//! false positives: `O(R)` for uniform data, but up to `O(n)` under heavy
//! skew, which motivates Logarithmic-SRC-i.

use crate::dataset::Dataset;
use crate::metrics::{IndexStats, QueryStats};
use crate::schemes::common::{clamp_query, grouped_fixed_index_stored, try_search_ids};
use crate::traits::{QueryOutcome, RangeScheme};
use rand::{CryptoRng, RngCore};
use rsse_cover::{Range, Tdag};
use rsse_crypto::{Key, KeyChain};
use rsse_sse::{
    padding, SearchToken, ShardedIndex, SseDatabase, SseKey, SseScheme, StorageConfig, StorageError,
};
use std::path::Path;

/// Owner-side state of Logarithmic-SRC.
#[derive(Clone, Debug)]
pub struct LogSrcScheme {
    key: SseKey,
    tdag: Tdag,
}

/// Server-side state: one encrypted multimap with `O(n log m)` entries
/// (sharded by label prefix per the build's `StorageConfig::shard_bits`).
#[derive(Clone, Debug)]
pub struct LogSrcServer {
    index: ShardedIndex,
}

impl LogSrcServer {
    /// Number of label-prefix bits sharding the dictionary.
    pub fn shard_bits(&self) -> u32 {
        self.index.shard_bits()
    }

    /// Serializes the server's dictionary into `dir` (see
    /// [`ShardedIndex::save_to_dir`]).
    pub fn save_to_dir(&self, dir: impl AsRef<Path>) -> Result<(), StorageError> {
        self.index.save_to_dir(dir)
    }

    /// Cold-opens a server over a previously saved (or disk-built)
    /// dictionary; the shards are served via paged reads without a rebuild.
    pub fn open_dir(dir: impl AsRef<Path>) -> Result<Self, StorageError> {
        Ok(Self {
            index: ShardedIndex::open_dir(dir)?,
        })
    }
}

/// Chaos-harness support (see the `rsse_sse::fault` module): injected
/// faults wrap this server's dictionary.
impl rsse_sse::FaultInjectable for LogSrcServer {
    fn fault_indexes(&mut self) -> Vec<&mut ShardedIndex> {
        vec![&mut self.index]
    }
}

impl LogSrcScheme {
    /// Builds the scheme, optionally padding the multimap to
    /// `n · (2⌈log m⌉ + 1)` entries; the dictionary lives on the backend
    /// `config` selects (in-memory arenas or shard files streamed to disk
    /// during BuildIndex).
    pub fn build_full_stored<R: RngCore + CryptoRng>(
        dataset: &Dataset,
        pad: bool,
        config: &StorageConfig,
        rng: &mut R,
    ) -> Result<(Self, LogSrcServer), StorageError> {
        let domain = *dataset.domain();
        let tdag = Tdag::new(domain);
        let chain = KeyChain::generate(rng);
        let key = SseScheme::key_from(chain.derive(b"sse"));
        let shuffle_key: Key = chain.derive(b"shuffle");

        let index = if pad {
            let mut db = SseDatabase::new();
            for record in dataset.records() {
                for node in tdag.covering_nodes(record.value) {
                    db.add(node.keyword().to_vec(), record.id_payload());
                }
            }
            db.shuffle_lists(&shuffle_key);
            let target = padding::logarithmic_padding_target(dataset.len(), domain.size(), true);
            padding::pad_to(&mut db, target, 8);
            SseScheme::build_index_stored(&key, &db, config, rng)?
        } else {
            // Unpadded fast path: flat (TDAG keyword, id) entries, streamed
            // into the grouped build — grouped by one sort in RAM, or,
            // under a build budget, spilled and merged without ever being
            // collected (byte-identical output either way).
            let entries = dataset.records().iter().flat_map(|record| {
                let payload = record.id_payload_array();
                tdag.covering_nodes(record.value)
                    .into_iter()
                    .map(move |node| (node.keyword(), payload))
            });
            grouped_fixed_index_stored(&key, &shuffle_key, entries, config, rng)?
        };
        Ok((Self { key, tdag }, LogSrcServer { index }))
    }

    /// `Trpdr`: the single token for the SRC covering node of the range.
    pub fn trapdoor(&self, range: Range) -> Option<SearchToken> {
        let clamped = clamp_query(self.tdag.domain(), range)?;
        let node = self.tdag.src_cover(clamped);
        Some(SseScheme::trapdoor(&self.key, &node.keyword()))
    }

    /// The TDAG this scheme indexes with (used by tests and the cover
    /// ablation bench).
    pub fn tdag(&self) -> &Tdag {
        &self.tdag
    }
}

impl RangeScheme for LogSrcScheme {
    type Server = LogSrcServer;
    const NAME: &'static str = "Logarithmic-SRC";

    fn build_stored<R: RngCore + CryptoRng>(
        dataset: &Dataset,
        config: &StorageConfig,
        rng: &mut R,
    ) -> Result<(Self, Self::Server), StorageError> {
        Self::build_full_stored(dataset, false, config, rng)
    }

    fn try_query(&self, server: &Self::Server, range: Range) -> Result<QueryOutcome, StorageError> {
        let Some(token) = self.trapdoor(range) else {
            return Ok(QueryOutcome::default());
        };
        let (ids, groups) = try_search_ids(&server.index, &[token])?;
        let touched = groups.iter().sum();
        Ok(QueryOutcome {
            ids,
            stats: QueryStats {
                tokens_sent: 1,
                token_bytes: SearchToken::SIZE_BYTES,
                rounds: 1,
                entries_touched: touched,
                result_groups: 1,
            },
        })
    }

    fn index_stats(server: &Self::Server) -> IndexStats {
        IndexStats {
            entries: server.index.len(),
            storage_bytes: server.index.storage_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{Dataset, Record};
    use crate::metrics::Evaluation;
    use crate::schemes::testutil;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha20Rng;
    use rsse_cover::Domain;

    #[test]
    fn results_are_complete_with_bounded_false_positives_on_uniform_data() {
        let dataset = testutil::uniform_dataset();
        let mut rng = ChaCha20Rng::seed_from_u64(1);
        let (client, server) = LogSrcScheme::build(&dataset, &mut rng);
        for range in testutil::query_mix(dataset.domain().size()) {
            let outcome = client.query(&server, range);
            let eval = testutil::assert_complete(&dataset, range, &outcome);
            // Every returned id lies in the SRC covering node's range, which
            // has width at most 4R — so on near-uniform data false positives
            // stay proportional to R (we only check the structural bound
            // here; the quantitative behaviour is Figure 6's experiment).
            let cover = client
                .tdag()
                .src_cover(range.intersection(dataset.domain().full_range()).unwrap());
            let upper = dataset.result_size(cover.range());
            assert!(eval.true_positives + eval.false_positives <= upper);
        }
    }

    #[test]
    fn single_token_and_single_group() {
        let dataset = testutil::skewed_dataset();
        let mut rng = ChaCha20Rng::seed_from_u64(2);
        let (client, server) = LogSrcScheme::build(&dataset, &mut rng);
        let outcome = client.query(&server, Range::new(3, 50));
        assert_eq!(outcome.stats.tokens_sent, 1);
        assert_eq!(outcome.stats.result_groups, 1);
        assert_eq!(outcome.stats.token_bytes, SearchToken::SIZE_BYTES);
        assert_eq!(outcome.stats.rounds, 1);
    }

    #[test]
    fn skew_can_blow_up_false_positives() {
        // The paper's own worked example (Section 6.2 / Figure 4): most of
        // the dataset sits on value 2; the query [3,5] is covered by
        // N_{2,5}, so the whole pile on value 2 comes back as false
        // positives. This is exactly the weakness SRC-i fixes.
        let dataset = testutil::skewed_dataset();
        let mut rng = ChaCha20Rng::seed_from_u64(3);
        let (client, server) = LogSrcScheme::build(&dataset, &mut rng);
        let range = Range::new(3, 5);
        let outcome = client.query(&server, range);
        let eval = testutil::assert_complete(&dataset, range, &outcome);
        assert!(
            eval.false_positives >= 10,
            "expected the value-2 pile to be returned as false positives, got {}",
            eval.false_positives
        );
    }

    #[test]
    fn index_entries_match_tdag_replication() {
        let dataset = testutil::skewed_dataset();
        let mut rng = ChaCha20Rng::seed_from_u64(4);
        let (client, server) = LogSrcScheme::build(&dataset, &mut rng);
        let expected: usize = dataset
            .records()
            .iter()
            .map(|r| client.tdag().covering_nodes(r.value).len())
            .sum();
        assert_eq!(LogSrcScheme::index_stats(&server).entries, expected);
        // TDAG replication is strictly larger than plain-tree replication
        // but still O(n log m).
        let bits = dataset.domain().bits() as usize;
        assert!(expected <= dataset.len() * (2 * bits + 1));
        assert!(expected > dataset.len() * (bits + 1));
    }

    #[test]
    fn padded_build_still_answers_queries() {
        let dataset = testutil::skewed_dataset();
        let mut rng = ChaCha20Rng::seed_from_u64(5);
        let config = StorageConfig::in_memory(0);
        let (client, server) =
            LogSrcScheme::build_full_stored(&dataset, true, &config, &mut rng).unwrap();
        let range = Range::new(0, 63);
        testutil::assert_complete(&dataset, range, &client.query(&server, range));
        assert_eq!(
            LogSrcScheme::index_stats(&server).entries,
            dataset.len() * (2 * dataset.domain().bits() as usize + 1)
        );
    }

    #[test]
    fn out_of_domain_query_is_empty() {
        let dataset = testutil::skewed_dataset();
        let mut rng = ChaCha20Rng::seed_from_u64(6);
        let (client, server) = LogSrcScheme::build(&dataset, &mut rng);
        assert!(client.query(&server, Range::new(100, 200)).is_empty());
    }

    #[test]
    fn disk_built_server_cold_opens_and_answers_identically() {
        let dataset = testutil::skewed_dataset();
        let dir = testutil::TempDir::new("logsrc-disk");
        let mut rng_mem = ChaCha20Rng::seed_from_u64(51);
        let (_, mem_server) = LogSrcScheme::build(&dataset, &mut rng_mem);
        let mut rng_disk = ChaCha20Rng::seed_from_u64(51);
        let (client, disk_server) = LogSrcScheme::build_full_stored(
            &dataset,
            false,
            &StorageConfig::on_disk(3, dir.path()),
            &mut rng_disk,
        )
        .unwrap();
        drop(disk_server);
        let reopened = LogSrcServer::open_dir(dir.path()).unwrap();
        assert_eq!(reopened.shard_bits(), 3);
        for range in testutil::query_mix(dataset.domain().size()) {
            assert_eq!(
                client.query(&reopened, range).ids,
                client.query(&mem_server, range).ids,
                "cold-open must answer like the in-memory server for {range}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn never_misses_and_false_positives_stay_in_cover(
            values in proptest::collection::vec(0u64..200, 1..50),
            lo in 0u64..200,
            len in 1u64..200)
        {
            let domain = Domain::new(200);
            let records: Vec<Record> = values
                .iter()
                .enumerate()
                .map(|(i, &v)| Record::new(i as u64, v))
                .collect();
            let dataset = Dataset::new(domain, records).unwrap();
            let mut rng = ChaCha20Rng::seed_from_u64(7);
            let (client, server) = LogSrcScheme::build(&dataset, &mut rng);
            let hi = (lo + len - 1).min(199);
            let range = Range::new(lo, hi);
            let outcome = client.query(&server, range);
            let expected = dataset.matching_ids(range);
            let eval = Evaluation::compare(&outcome.ids, &expected);
            prop_assert!(eval.is_complete());
            // Everything returned lies inside the SRC node's range.
            let cover = client.tdag().src_cover(range);
            for id in &outcome.ids {
                let record = dataset.records().iter().find(|r| r.id == *id).unwrap();
                prop_assert!(cover.range().contains(record.value));
            }
        }
    }
}
