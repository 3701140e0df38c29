//! The Quadratic baseline (Section 4 of the paper).
//!
//! Every possible sub-range of the domain gets its own keyword, and every
//! tuple is associated with the keywords of *all* ranges containing its
//! value. A query is then a single-keyword SSE query for its exact range:
//! constant query size, `O(r)` search time, no false positives, and —
//! with padding — no leakage beyond `(n, m)` and what SSE itself leaks.
//! The price is the `O(n·m²)` index, which is why the scheme is only a
//! conceptual baseline; construction is guarded by [`MAX_DOMAIN_SIZE`].

use crate::dataset::Dataset;
use crate::metrics::IndexStats;
use crate::schemes::common::clamp_query;
use crate::server::QueryServer;
use crate::traits::{QueryOutcome, RangeScheme};
use rand::{CryptoRng, RngCore};
use rsse_cover::{Domain, Range};
use rsse_sse::{
    build_index_external_with, padding, SearchToken, SpillOrder, SseKey, SseScheme, StorageConfig,
    StorageError,
};

/// Largest domain for which Quadratic will agree to build an index. The
/// `O(n·m²)` blow-up makes anything bigger pointless (the paper excludes
/// Quadratic from its evaluation for the same reason).
pub const MAX_DOMAIN_SIZE: u64 = 4096;

/// Owner-side state of the Quadratic scheme.
#[derive(Clone, Debug)]
pub struct QuadraticScheme {
    key: SseKey,
    domain: Domain,
}

fn range_keyword(range: Range) -> [u8; 17] {
    let mut keyword = [0u8; 17];
    keyword[0] = b'Q';
    keyword[1..9].copy_from_slice(&range.lo().to_le_bytes());
    keyword[9..].copy_from_slice(&range.hi().to_le_bytes());
    keyword
}

impl QuadraticScheme {
    /// Builds the scheme on the unsharded in-memory configuration,
    /// optionally padding the plaintext multimap to the maximum possible
    /// size so the index size leaks only `(n, m)`.
    pub fn build_with<R: RngCore + CryptoRng>(
        dataset: &Dataset,
        pad: bool,
        rng: &mut R,
    ) -> (Self, QueryServer) {
        Self::build_full_stored(dataset, pad, &StorageConfig::in_memory(0), rng)
            .expect("in-memory build cannot fail")
    }

    /// Builds the scheme, optionally padded, with the dictionary on the
    /// backend `config` selects. The server is one `O(n·m²)`-entry
    /// encrypted multimap.
    ///
    /// # Panics
    /// Panics if the domain holds more than [`MAX_DOMAIN_SIZE`] values.
    pub fn build_full_stored<R: RngCore + CryptoRng>(
        dataset: &Dataset,
        pad: bool,
        config: &StorageConfig,
        rng: &mut R,
    ) -> Result<(Self, QueryServer), StorageError> {
        let domain = *dataset.domain();
        assert!(
            domain.size() <= MAX_DOMAIN_SIZE,
            "Quadratic is a baseline for domains of at most {MAX_DOMAIN_SIZE} values \
             (got {}); use a Logarithmic scheme instead",
            domain.size()
        );
        let key = SseScheme::setup(rng);
        // Every tuple under the keyword of every range containing its
        // value; each keyword's list keeps the dataset's order.
        let entries = dataset.records().iter().flat_map(|record| {
            let (value, payload) = (record.value, record.id_payload_array());
            (0..=value).flat_map(move |lo| {
                (value..domain.size()).map(move |hi| (range_keyword(Range::new(lo, hi)), payload))
            })
        });
        let token = |keyword: &[u8; 17], _: &mut Vec<[u8; 8]>| SseScheme::trapdoor(&key, keyword);
        let index = if pad {
            let target = padding::quadratic_padding_target(dataset.len(), domain.size());
            let padded = padding::pad_to(entries, target);
            build_index_external_with(padded, SpillOrder::ByKeyword, token, config, rng)?
        } else {
            build_index_external_with(entries, SpillOrder::ByKeyword, token, config, rng)?
        };
        Ok((Self { key, domain }, QueryServer::new(index)))
    }

    /// `Trpdr`: the single token for the query's exact range keyword.
    pub fn trapdoor(&self, range: Range) -> Option<SearchToken> {
        let clamped = clamp_query(&self.domain, range)?;
        Some(SseScheme::trapdoor(&self.key, &range_keyword(clamped)))
    }
}

impl RangeScheme for QuadraticScheme {
    type Server = QueryServer;
    const NAME: &'static str = "Quadratic";

    fn build_stored<R: RngCore + CryptoRng>(
        dataset: &Dataset,
        config: &StorageConfig,
        rng: &mut R,
    ) -> Result<(Self, Self::Server), StorageError> {
        Self::build_full_stored(dataset, false, config, rng)
    }

    fn try_query(&self, server: &Self::Server, range: Range) -> Result<QueryOutcome, StorageError> {
        match self.trapdoor(range) {
            Some(token) => server.answer(&[token]),
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
    use crate::schemes::testutil;
    use rand::SeedableRng;
    use rand_chacha::ChaCha20Rng;

    fn tiny_dataset() -> Dataset {
        Dataset::new(
            Domain::new(16),
            vec![
                Record::new(1, 0),
                Record::new(2, 3),
                Record::new(3, 3),
                Record::new(4, 9),
                Record::new(5, 15),
            ],
        )
        .unwrap()
    }

    #[test]
    fn all_queries_are_exact_on_tiny_domain() {
        let dataset = tiny_dataset();
        let mut rng = ChaCha20Rng::seed_from_u64(1);
        let (client, server) = QuadraticScheme::build(&dataset, &mut rng);
        for lo in 0..16u64 {
            for hi in lo..16u64 {
                let range = Range::new(lo, hi);
                let outcome = client.query(&server, range);
                testutil::assert_exact(&dataset, range, &outcome);
            }
        }
    }

    #[test]
    fn query_stats_are_constant_size() {
        let dataset = tiny_dataset();
        let mut rng = ChaCha20Rng::seed_from_u64(2);
        let (client, server) = QuadraticScheme::build(&dataset, &mut rng);
        let outcome = client.query(&server, Range::new(0, 15));
        assert_eq!(outcome.stats.tokens_sent, 1);
        assert_eq!(outcome.stats.rounds, 1);
        assert_eq!(outcome.stats.token_bytes, SearchToken::SIZE_BYTES);
        assert_eq!(outcome.stats.result_groups, 1);
    }

    #[test]
    fn index_size_is_quadratic_in_domain() {
        // One record at the median of a 16-value domain belongs to 8·8 = 64
        // ranges.
        let dataset = Dataset::new(Domain::new(16), vec![Record::new(1, 7)]).unwrap();
        let mut rng = ChaCha20Rng::seed_from_u64(3);
        let (_, server) = QuadraticScheme::build(&dataset, &mut rng);
        assert_eq!(QuadraticScheme::index_stats(&server).entries, 8 * 9);
    }

    #[test]
    fn padding_makes_index_size_distribution_independent() {
        let mut rng = ChaCha20Rng::seed_from_u64(4);
        let d1 =
            Dataset::new(Domain::new(16), (0..4).map(|i| Record::new(i, 7)).collect()).unwrap();
        let d2 = Dataset::new(
            Domain::new(16),
            (0..4).map(|i| Record::new(i, (i * 5) % 16)).collect(),
        )
        .unwrap();
        let (_, s1) = QuadraticScheme::build_with(&d1, true, &mut rng);
        let (_, s2) = QuadraticScheme::build_with(&d2, true, &mut rng);
        assert_eq!(
            QuadraticScheme::index_stats(&s1).entries,
            QuadraticScheme::index_stats(&s2).entries
        );
        // And queries still work on the padded index.
        let (c1, s1) = QuadraticScheme::build_with(&d1, true, &mut rng);
        let outcome = c1.query(&s1, Range::new(0, 15));
        testutil::assert_exact(&d1, Range::new(0, 15), &outcome);
    }

    #[test]
    fn out_of_domain_query_is_empty() {
        let dataset = tiny_dataset();
        let mut rng = ChaCha20Rng::seed_from_u64(5);
        let (client, server) = QuadraticScheme::build(&dataset, &mut rng);
        let outcome = client.query(&server, Range::new(100, 200));
        assert!(outcome.is_empty());
        assert_eq!(outcome.stats.tokens_sent, 0);
    }

    #[test]
    fn overflowing_query_is_clamped() {
        let dataset = tiny_dataset();
        let mut rng = ChaCha20Rng::seed_from_u64(6);
        let (client, server) = QuadraticScheme::build(&dataset, &mut rng);
        let outcome = client.query(&server, Range::new(9, 1_000));
        testutil::assert_exact(&dataset, Range::new(9, 15), &outcome);
    }

    #[test]
    fn builds_on_disk_and_answers_like_in_memory() {
        let dataset = testutil::skewed_dataset();
        let (client, memory) = QuadraticScheme::build(&dataset, &mut ChaCha20Rng::seed_from_u64(8));
        let dir = testutil::TempDir::new("quadratic-disk");
        let (_, disk) = QuadraticScheme::build_stored(
            &dataset,
            &StorageConfig::on_disk(2, dir.path()),
            &mut ChaCha20Rng::seed_from_u64(8),
        )
        .unwrap();
        assert!(disk.index().is_file_backed());
        for range in testutil::query_mix(dataset.domain().size()) {
            let outcome = client.query(&disk, range);
            assert_eq!(outcome, client.query(&memory, range));
            testutil::assert_exact(&dataset, range, &outcome);
        }
    }

    #[test]
    #[should_panic(expected = "baseline for domains")]
    fn oversized_domain_is_rejected() {
        let dataset = Dataset::new(Domain::new(1 << 20), vec![Record::new(1, 5)]).unwrap();
        let mut rng = ChaCha20Rng::seed_from_u64(7);
        let _ = QuadraticScheme::build(&dataset, &mut rng);
    }
}
