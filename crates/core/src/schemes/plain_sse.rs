//! The naive per-value SSE scheme (the warm-up variant of Section 5) and
//! the "pure SSE" baseline of Figure 7.
//!
//! Every tuple gets exactly one keyword — its attribute value — and a range
//! query of size `R` is answered with `R` ordinary SSE tokens, one per value
//! in the range. Storage is the optimal `O(n)` and there are no false
//! positives, but the query size is `O(R)`, which is what motivates the
//! DPRF-based Constant schemes. The same structure doubles as the "SSE
//! (Cash et al.)" curve of the paper's Figure 7: [`PlainSseScheme::query_values`]
//! issues tokens only for the values actually present in the result, which
//! measures the inevitable cost of retrieving the `r` results through the
//! underlying SSE scheme.

use crate::dataset::Dataset;
use crate::metrics::{IndexStats, QueryStats};
use crate::schemes::common::{clamp_query, grouped_fixed_index_stored, try_search_ids};
use crate::server::QueryServer;
use crate::traits::{QueryOutcome, RangeScheme};
use rand::{CryptoRng, RngCore};
use rsse_cover::{Domain, Range};
use rsse_crypto::KeyChain;
use rsse_sse::{SearchToken, SseKey, SseScheme, StorageConfig, StorageError};

/// Owner-side state of the per-value SSE scheme.
#[derive(Clone, Debug)]
pub struct PlainSseScheme {
    key: SseKey,
    domain: Domain,
}

fn value_keyword(value: u64) -> [u8; 9] {
    let mut keyword = [0u8; 9];
    keyword[0] = b'V';
    keyword[1..9].copy_from_slice(&value.to_le_bytes());
    keyword
}

impl PlainSseScheme {
    /// `Trpdr` for an explicit list of values.
    pub fn trapdoor_values(&self, values: &[u64]) -> Vec<SearchToken> {
        values
            .iter()
            .filter(|v| self.domain.contains(**v))
            .map(|v| SseScheme::trapdoor(&self.key, &value_keyword(*v)))
            .collect()
    }

    /// Issues SSE queries for exactly the given values — the "pure SSE
    /// retrieval cost" baseline of Figure 7.
    pub fn query_values(
        &self,
        server: &QueryServer,
        values: &[u64],
    ) -> Result<QueryOutcome, StorageError> {
        let tokens = self.trapdoor_values(values);
        let (ids, groups) = try_search_ids(server.index(), &tokens)?;
        let touched = groups.iter().sum();
        Ok(QueryOutcome {
            ids,
            stats: QueryStats {
                tokens_sent: tokens.len(),
                token_bytes: tokens.len() * SearchToken::SIZE_BYTES,
                rounds: 1,
                entries_touched: touched,
                result_groups: tokens.len(),
            },
        })
    }
}

impl RangeScheme for PlainSseScheme {
    type Server = QueryServer;
    const NAME: &'static str = "SSE (per-value)";

    fn build_stored<R: RngCore + CryptoRng>(
        dataset: &Dataset,
        config: &StorageConfig,
        rng: &mut R,
    ) -> Result<(Self, Self::Server), StorageError> {
        let domain = *dataset.domain();
        let chain = KeyChain::generate(rng);
        let key = SseScheme::key_from(chain.derive(b"sse"));
        let entries = dataset
            .records()
            .iter()
            .map(|record| (value_keyword(record.value), record.id_payload_array()));
        let index =
            grouped_fixed_index_stored(&key, &chain.derive(b"shuffle"), entries, config, rng)?;
        Ok((Self { key, domain }, QueryServer::new(index)))
    }

    fn try_query(&self, server: &Self::Server, range: Range) -> Result<QueryOutcome, StorageError> {
        let Some(clamped) = clamp_query(&self.domain, range) else {
            return Ok(QueryOutcome::default());
        };
        let values: Vec<u64> = clamped.iter().collect();
        self.query_values(server, &values)
    }

    fn index_stats(server: &Self::Server) -> IndexStats {
        server.index_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schemes::testutil;
    use rand::SeedableRng;
    use rand_chacha::ChaCha20Rng;

    #[test]
    fn range_queries_are_exact() {
        let mut rng = ChaCha20Rng::seed_from_u64(1);
        for dataset in [testutil::skewed_dataset(), testutil::uniform_dataset()] {
            let (client, server) = PlainSseScheme::build(&dataset, &mut rng);
            for range in testutil::query_mix(dataset.domain().size()) {
                let outcome = client.query(&server, range);
                testutil::assert_exact(&dataset, range, &outcome);
            }
        }
    }

    #[test]
    fn query_size_is_linear_in_range() {
        let dataset = testutil::skewed_dataset();
        let mut rng = ChaCha20Rng::seed_from_u64(2);
        let (client, server) = PlainSseScheme::build(&dataset, &mut rng);
        let outcome = client.query(&server, Range::new(0, 31));
        assert_eq!(outcome.stats.tokens_sent, 32);
        assert_eq!(outcome.stats.token_bytes, 32 * SearchToken::SIZE_BYTES);
    }

    #[test]
    fn storage_is_exactly_n_entries() {
        let dataset = testutil::uniform_dataset();
        let mut rng = ChaCha20Rng::seed_from_u64(3);
        let (_, server) = PlainSseScheme::build(&dataset, &mut rng);
        assert_eq!(PlainSseScheme::index_stats(&server).entries, dataset.len());
    }

    #[test]
    fn query_values_retrieves_only_named_values() {
        let dataset = testutil::skewed_dataset();
        let mut rng = ChaCha20Rng::seed_from_u64(4);
        let (client, server) = PlainSseScheme::build(&dataset, &mut rng);
        let outcome = client.query_values(&server, &[2, 5]).unwrap();
        let expected: usize =
            dataset.result_size(Range::point(2)) + dataset.result_size(Range::point(5));
        assert_eq!(outcome.len(), expected);
        assert_eq!(outcome.stats.tokens_sent, 2);
        // Values outside the domain are dropped before token generation.
        let outcome = client.query_values(&server, &[2, 10_000]).unwrap();
        assert_eq!(outcome.stats.tokens_sent, 1);
    }

    #[test]
    fn out_of_domain_query_is_empty() {
        let dataset = testutil::skewed_dataset();
        let mut rng = ChaCha20Rng::seed_from_u64(5);
        let (client, server) = PlainSseScheme::build(&dataset, &mut rng);
        assert!(client.query(&server, Range::new(70, 80)).is_empty());
    }
}
