//! The Logarithmic-BRC and Logarithmic-URC schemes (Section 6.1).
//!
//! Each tuple is replicated once per node on the path from the binary-tree
//! root to its value's leaf (`⌈log m⌉ + 1` keywords), and a query is covered
//! with BRC or URC exactly as in the Constant schemes — but the covering
//! nodes are ordinary SSE keywords, so no DPRF is needed, the search time
//! drops to `O(log R + r)`, and the heavy structural leakage of the Constant
//! schemes (the exact mapping of ids onto subtree leaves) disappears. What
//! remains visible to the server is only the *partitioning of the result
//! into one group per covering node*.

use crate::dataset::Dataset;
use crate::metrics::IndexStats;
use crate::schemes::common::{clamp_query, grouped_fixed_index_stored, CoverKind};
use crate::server::QueryServer;
use crate::traits::{MergeInput, QueryOutcome, RangeScheme};
use rand::{CryptoRng, RngCore};
use rsse_cover::{Domain, Node, Range};
use rsse_crypto::{permute, KeyChain, Prf};
use rsse_sse::{
    padding, SearchToken, ShardedIndex, SseKey, SseScheme, StorageBackend, StorageConfig,
    StorageError,
};
use std::path::Path;

/// Owner-side state of Logarithmic-BRC / Logarithmic-URC.
#[derive(Clone, Debug)]
pub struct LogScheme {
    key: SseKey,
    /// Keyed once; every trapdoor's token shuffle borrows it.
    shuffle: Prf,
    domain: Domain,
    kind: CoverKind,
}

impl LogScheme {
    /// Builds the scheme with an explicit covering technique, optional
    /// padding of the multimap to `n · (⌈log m⌉ + 1)` entries, and the
    /// dictionary held by the storage backend `config` selects — in-memory
    /// shard arenas, or shard files streamed to disk during BuildIndex and
    /// served via paged reads. The server is one encrypted multimap with
    /// `O(n log m)` entries.
    pub fn build_full_stored<R: RngCore + CryptoRng>(
        dataset: &Dataset,
        kind: CoverKind,
        pad: bool,
        config: &StorageConfig,
        rng: &mut R,
    ) -> Result<(Self, QueryServer), StorageError> {
        let domain = *dataset.domain();
        let chain = KeyChain::generate(rng);
        let key = SseScheme::key_from(chain.derive(b"sse"));
        let shuffle_key = chain.derive(b"shuffle");

        // Flat (node keyword, id) entries, streamed into the grouped build
        // — grouped by one sort in RAM, or, under a build budget, spilled
        // and merged without ever being collected (byte-identical output
        // either way). Randomly permuting the documents sharing a keyword,
        // as prescribed by BuildIndex, happens inside it (the keyed
        // shuffle), so storage order leaks nothing about attribute order.
        let entries = dataset.records().iter().flat_map(|record| {
            let payload = record.id_payload_array();
            Node::path_to_root(&domain, record.value)
                .into_iter()
                .map(move |node| (node.keyword(), payload))
        });
        // One entry per record per level of its root path.
        let path_len = domain.bits() as usize + 1;
        let entries = rsse_sse::with_len(entries, dataset.len() * path_len);
        let index = if pad {
            let target = padding::logarithmic_padding_target(dataset.len(), domain.size(), false);
            let padded = padding::pad_to(entries, target);
            grouped_fixed_index_stored(&key, &shuffle_key, padded, config, rng)?
        } else {
            grouped_fixed_index_stored(&key, &shuffle_key, entries, config, rng)?
        };
        Ok((
            Self {
                key,
                shuffle: Prf::new(&shuffle_key),
                domain,
                kind,
            },
            QueryServer::new(index),
        ))
    }

    /// Builds the scheme with the given covering technique on the
    /// unsharded in-memory configuration (no padding).
    pub fn build_with<R: RngCore + CryptoRng>(
        dataset: &Dataset,
        kind: CoverKind,
        rng: &mut R,
    ) -> (Self, QueryServer) {
        Self::build_full_stored(dataset, kind, false, &StorageConfig::in_memory(0), rng)
            .expect("in-memory build cannot fail")
    }

    /// `Trpdr`: one SSE token per covering node, randomly permuted.
    /// Returns `None` if the range lies entirely outside the domain.
    pub fn trapdoor(&self, range: Range) -> Option<Vec<SearchToken>> {
        let clamped = clamp_query(&self.domain, range)?;
        let cover = self.kind.cover(&self.domain, clamped);
        let mut tokens: Vec<SearchToken> = cover
            .iter()
            .map(|node| SseScheme::trapdoor(&self.key, &node.keyword()))
            .collect();
        let mut label = Vec::with_capacity(17);
        label.push(b'L');
        label.extend_from_slice(&clamped.lo().to_le_bytes());
        label.extend_from_slice(&clamped.hi().to_le_bytes());
        permute::keyed_shuffle(&self.shuffle, &label, &mut tokens);
        Some(tokens)
    }
}

impl RangeScheme for LogScheme {
    type Server = QueryServer;
    const NAME: &'static str = "Logarithmic-BRC/URC";

    fn build_stored<R: RngCore + CryptoRng>(
        dataset: &Dataset,
        config: &StorageConfig,
        rng: &mut R,
    ) -> Result<(Self, Self::Server), StorageError> {
        Self::build_full_stored(dataset, CoverKind::Brc, false, config, rng)
    }

    /// Fast reopen: the owner state is a pure function of the RNG stream's
    /// leading `KeyChain` draw (plus the dataset's domain), so an on-disk
    /// index is reopened by re-deriving the keys and cold-opening the
    /// persisted shards — no rebuild, no re-encryption. In-memory configs
    /// fall back to the deterministic rebuild.
    fn open_stored<R: RngCore + CryptoRng>(
        dataset: &Dataset,
        config: &StorageConfig,
        rng: &mut R,
    ) -> Result<(Self, Self::Server), StorageError> {
        match &config.backend {
            StorageBackend::InMemory => Self::build_stored(dataset, config, rng),
            StorageBackend::OnDisk(dir) => {
                // Exactly the key-material draws build_full_stored makes
                // before it reads the dataset.
                let chain = KeyChain::generate(rng);
                let key = SseScheme::key_from(chain.derive(b"sse"));
                let shuffle_key = chain.derive(b"shuffle");
                Ok((
                    Self {
                        key,
                        shuffle: Prf::new(&shuffle_key),
                        domain: *dataset.domain(),
                        kind: CoverKind::Brc,
                    },
                    QueryServer::open_dir_with_budget(dir, config.cache_budget)?,
                ))
            }
        }
    }

    /// The server is one encrypted multimap probed by exact label lookups
    /// under per-instance keys: distinct instances' labels are disjoint
    /// (w.h.p.), so a disjoint union of the dictionaries answers every
    /// input client exactly as its own dictionary did.
    fn supports_structural_merge() -> bool {
        true
    }

    /// Structural merge of committed dictionaries: ciphertext regions are
    /// copied verbatim and the label directories re-emitted — see
    /// [`ShardedIndex::merge_in_memory`] / [`ShardedIndex::merge_dirs`].
    /// No payload decrypt or re-encrypt happens on this path.
    fn merge_stored(
        inputs: &[MergeInput<'_, Self::Server>],
        config: &StorageConfig,
    ) -> Result<Self::Server, StorageError> {
        let index = match &config.backend {
            StorageBackend::InMemory => {
                let indexes: Vec<&ShardedIndex> =
                    inputs.iter().map(|input| input.server.index()).collect();
                ShardedIndex::merge_in_memory(&indexes)?
            }
            StorageBackend::OnDisk(out) => {
                let dirs = inputs
                    .iter()
                    .map(|input| {
                        input.dir.ok_or(StorageError::Unsupported(
                            "structural on-disk merge of an instance without a saved directory",
                        ))
                    })
                    .collect::<Result<Vec<&Path>, StorageError>>()?;
                ShardedIndex::merge_dirs(&dirs, out, config.cache_budget)?
            }
        };
        Ok(QueryServer::new(index))
    }

    /// Exactly the key-material draws `build_full_stored` makes before it
    /// reads the dataset — replaying an instance's seed reproduces the
    /// client whose trapdoors match its persisted (or merged) dictionary.
    fn derive_client<R: RngCore + CryptoRng>(
        domain: &Domain,
        rng: &mut R,
    ) -> Result<Self, StorageError> {
        let chain = KeyChain::generate(rng);
        Ok(Self {
            key: SseScheme::key_from(chain.derive(b"sse")),
            shuffle: Prf::new(&chain.derive(b"shuffle")),
            domain: *domain,
            kind: CoverKind::Brc,
        })
    }

    fn open_merged(dir: &Path, config: &StorageConfig) -> Result<Self::Server, StorageError> {
        match &config.backend {
            StorageBackend::InMemory => Ok(QueryServer::new(ShardedIndex::open_dir_resident(dir)?)),
            StorageBackend::OnDisk(_) => {
                QueryServer::open_dir_with_budget(dir, config.cache_budget)
            }
        }
    }

    fn try_query(&self, server: &Self::Server, range: Range) -> Result<QueryOutcome, StorageError> {
        match self.trapdoor(range) {
            Some(tokens) => server.answer(&tokens),
            None => Ok(QueryOutcome::default()),
        }
    }

    fn index_stats(server: &Self::Server) -> IndexStats {
        server.index_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Record;
    use crate::schemes::common::search_ids;
    use crate::schemes::testutil;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha20Rng;

    #[test]
    fn brc_and_urc_are_exact_on_query_mix() {
        let mut rng = ChaCha20Rng::seed_from_u64(1);
        for dataset in [testutil::skewed_dataset(), testutil::uniform_dataset()] {
            for kind in [CoverKind::Brc, CoverKind::Urc] {
                let (client, server) = LogScheme::build_with(&dataset, kind, &mut rng);
                for range in testutil::query_mix(dataset.domain().size()) {
                    let outcome = client.query(&server, range);
                    testutil::assert_exact(&dataset, range, &outcome);
                }
            }
        }
    }

    #[test]
    fn index_has_n_log_m_entries() {
        let dataset = testutil::skewed_dataset(); // domain 64 → 7 keywords/tuple
        let mut rng = ChaCha20Rng::seed_from_u64(2);
        let (_, server) = LogScheme::build(&dataset, &mut rng);
        assert_eq!(
            LogScheme::index_stats(&server).entries,
            dataset.len() * (dataset.domain().bits() as usize + 1)
        );
    }

    #[test]
    fn padded_build_hides_dataset_size_detail_and_still_answers() {
        let mut rng = ChaCha20Rng::seed_from_u64(3);
        let dataset = testutil::skewed_dataset();
        let config = StorageConfig::in_memory(0);
        let (client, server) =
            LogScheme::build_full_stored(&dataset, CoverKind::Brc, true, &config, &mut rng)
                .unwrap();
        assert_eq!(
            LogScheme::index_stats(&server).entries,
            dataset.len() * (dataset.domain().bits() as usize + 1)
        );
        let range = Range::new(2, 7);
        testutil::assert_exact(&dataset, range, &client.query(&server, range));
    }

    #[test]
    fn query_size_is_logarithmic_and_urc_uniform() {
        let dataset = testutil::uniform_dataset();
        let mut rng = ChaCha20Rng::seed_from_u64(4);
        let (brc, _) = LogScheme::build_with(&dataset, CoverKind::Brc, &mut rng);
        let (urc, _) = LogScheme::build_with(&dataset, CoverKind::Urc, &mut rng);
        for len in [5u64, 17, 60, 128] {
            let t1 = urc.trapdoor(Range::new(3, 3 + len - 1)).unwrap();
            let t2 = urc.trapdoor(Range::new(100, 100 + len - 1)).unwrap();
            assert_eq!(t1.len(), t2.len(), "URC token count must not leak position");
        }
        let t = brc.trapdoor(Range::new(0, 127)).unwrap();
        assert_eq!(t.len(), 1);
        let t = brc.trapdoor(Range::new(1, 254)).unwrap();
        assert!(t.len() <= 2 * 8);
    }

    #[test]
    fn result_partitioning_matches_group_structure() {
        // Section 6.1: the only extra leakage is the partitioning of results
        // into per-node groups. Check the group sizes sum to r and that SRC
        // would not see this (covered in log_src tests).
        let dataset = testutil::skewed_dataset();
        let mut rng = ChaCha20Rng::seed_from_u64(5);
        let (client, server) = LogScheme::build_with(&dataset, CoverKind::Brc, &mut rng);
        let range = Range::new(2, 7);
        let tokens = client.trapdoor(range).unwrap();
        let (_, groups) = search_ids(server.index(), &tokens);
        assert!(groups.len() >= 2, "BRC covers [2,7] with multiple nodes");
        assert_eq!(
            groups.iter().sum::<usize>(),
            dataset.result_size(range),
            "groups must partition the exact result"
        );
    }

    #[test]
    fn entries_touched_equals_result_size() {
        // No false positives: server work is log R + r.
        let dataset = testutil::uniform_dataset();
        let mut rng = ChaCha20Rng::seed_from_u64(6);
        let (client, server) = LogScheme::build_with(&dataset, CoverKind::Urc, &mut rng);
        let range = Range::new(10, 200);
        let outcome = client.query(&server, range);
        assert_eq!(outcome.stats.entries_touched, dataset.result_size(range));
        assert_eq!(outcome.stats.rounds, 1);
        assert_eq!(outcome.stats.result_groups, outcome.stats.tokens_sent);
    }

    #[test]
    fn out_of_domain_query_is_empty() {
        let dataset = testutil::skewed_dataset();
        let mut rng = ChaCha20Rng::seed_from_u64(7);
        let (client, server) = LogScheme::build(&dataset, &mut rng);
        assert!(client.query(&server, Range::new(200, 300)).is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn random_datasets_random_queries_are_exact(
            values in proptest::collection::vec(0u64..128, 1..60),
            lo in 0u64..128,
            len in 1u64..128,
            kind_is_brc in any::<bool>())
        {
            let domain = Domain::new(128);
            let records: Vec<Record> = values
                .iter()
                .enumerate()
                .map(|(i, &v)| Record::new(i as u64, v))
                .collect();
            let dataset = Dataset::new(domain, records).unwrap();
            let mut rng = ChaCha20Rng::seed_from_u64(42);
            let kind = if kind_is_brc { CoverKind::Brc } else { CoverKind::Urc };
            let (client, server) = LogScheme::build_with(&dataset, kind, &mut rng);
            let hi = (lo + len - 1).min(127);
            let range = Range::new(lo, hi);
            let outcome = client.query(&server, range);
            let expected = {
                let mut e = dataset.matching_ids(range);
                e.sort_unstable();
                e
            };
            prop_assert_eq!(testutil::sorted_ids(&outcome), expected);
        }
    }
}
