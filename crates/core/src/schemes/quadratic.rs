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
use crate::metrics::{IndexStats, QueryStats};
use crate::schemes::common::clamp_query;
use crate::traits::{QueryOutcome, RangeScheme};
use rand::{CryptoRng, RngCore};
use rsse_cover::{Domain, Range};
use rsse_sse::{
    padding, EncryptedIndex, SearchToken, SseDatabase, SseKey, SseScheme, StorageBackend,
    StorageConfig, StorageError,
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

/// Server-side state of the Quadratic scheme.
#[derive(Clone, Debug)]
pub struct QuadraticServer {
    index: EncryptedIndex,
}

fn range_keyword(range: Range) -> Vec<u8> {
    let mut keyword = Vec::with_capacity(17);
    keyword.push(b'Q');
    keyword.extend_from_slice(&range.lo().to_le_bytes());
    keyword.extend_from_slice(&range.hi().to_le_bytes());
    keyword
}

impl QuadraticScheme {
    /// Builds the scheme, optionally padding the plaintext multimap to the
    /// maximum possible size so the index size leaks only `(n, m)`.
    pub fn build_with<R: RngCore + CryptoRng>(
        dataset: &Dataset,
        pad: bool,
        rng: &mut R,
    ) -> (Self, QuadraticServer) {
        let domain = *dataset.domain();
        assert!(
            domain.size() <= MAX_DOMAIN_SIZE,
            "Quadratic is a baseline for domains of at most {MAX_DOMAIN_SIZE} values \
             (got {}); use a Logarithmic scheme instead",
            domain.size()
        );
        let key = SseScheme::setup(rng);
        let mut db = SseDatabase::new();
        for record in dataset.records() {
            let v = record.value;
            for lo in 0..=v {
                for hi in v..domain.size() {
                    db.add(range_keyword(Range::new(lo, hi)), record.id_payload());
                }
            }
        }
        if pad {
            let target = padding::quadratic_padding_target(dataset.len(), domain.size());
            padding::pad_to(&mut db, target, 8);
        }
        let index = SseScheme::build_index(&key, &db, rng);
        (Self { key, domain }, QuadraticServer { index })
    }

    /// `Trpdr`: the single token for the query's exact range keyword.
    pub fn trapdoor(&self, range: Range) -> Option<SearchToken> {
        let clamped = clamp_query(&self.domain, range)?;
        Some(SseScheme::trapdoor(&self.key, &range_keyword(clamped)))
    }
}

impl RangeScheme for QuadraticScheme {
    type Server = QuadraticServer;
    const NAME: &'static str = "Quadratic";

    /// Quadratic's dictionary is always one in-memory arena: `shard_bits`
    /// does not apply and an on-disk backend is rejected typed.
    fn build_stored<R: RngCore + CryptoRng>(
        dataset: &Dataset,
        config: &StorageConfig,
        rng: &mut R,
    ) -> Result<(Self, Self::Server), StorageError> {
        if let StorageBackend::OnDisk(_) = &config.backend {
            return Err(StorageError::Unsupported(Self::NAME));
        }
        Ok(Self::build_with(dataset, false, rng))
    }

    /// Quadratic's dictionary is always an in-memory arena
    /// (`IndexLookup::Error = Infallible`), so the fallible path cannot
    /// actually fail.
    fn try_query(&self, server: &Self::Server, range: Range) -> Result<QueryOutcome, StorageError> {
        let Some(token) = self.trapdoor(range) else {
            return Ok(QueryOutcome::default());
        };
        let (ids, groups) = crate::schemes::common::search_ids(&server.index, &[token]);
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
    #[should_panic(expected = "baseline for domains")]
    fn oversized_domain_is_rejected() {
        let dataset = Dataset::new(Domain::new(1 << 20), vec![Record::new(1, 5)]).unwrap();
        let mut rng = ChaCha20Rng::seed_from_u64(7);
        let _ = QuadraticScheme::build(&dataset, &mut rng);
    }
}
