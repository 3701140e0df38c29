//! Explicit leakage profiles (`L1`, `L2`) of the SSE layer.
//!
//! The security definition the paper adopts (Curtmola et al., adaptive
//! ideal/real games) is parameterised by two leakage functions: `L1(D)` —
//! what the encrypted index alone reveals — and `L2(D, W)` — what a sequence
//! of queries reveals. These cannot be "executed" inside a library, but they
//! *can* be represented as data, which lets tests make leakage claims
//! precise: e.g. "two datasets with the same `L1` produce indistinguishable
//! index sizes" or "the access pattern of Logarithmic-BRC is exactly the
//! per-node id lists".
//!
//! `rsse-core` builds its scheme-specific leakage profiles on top of these.

use crate::pibas::EncryptedIndex;

/// `L1(D)`: what the server learns from the encrypted index alone —
/// an upper bound on the number of entries (and their total byte size).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IndexLeakage {
    /// Number of (label, value) entries in the dictionary.
    pub entries: usize,
    /// Total stored bytes.
    pub storage_bytes: usize,
}

impl IndexLeakage {
    /// Extracts the `L1` leakage of an encrypted index.
    pub fn of(index: &EncryptedIndex) -> Self {
        Self {
            entries: index.len(),
            storage_bytes: index.storage_bytes(),
        }
    }
}

/// The access pattern `α(W)` of one query: the list of response payload
/// sizes (the server observes which dictionary entries were touched; for a
/// response-revealing scheme this is equivalent knowledge).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AccessPattern {
    /// Number of index entries matched by the query.
    pub matched_entries: usize,
}

/// The search pattern `σ(W)` over a query sequence: for every pair of
/// queries, whether they produced the same token.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SearchPattern {
    /// `equal[i][j]` is true iff query `i` and query `j` used identical
    /// tokens (stored as a full symmetric matrix for simplicity).
    pub equal: Vec<Vec<bool>>,
}

impl SearchPattern {
    /// Computes the search pattern of a sequence of opaque token encodings.
    pub fn from_tokens<T: PartialEq>(tokens: &[T]) -> Self {
        let n = tokens.len();
        let mut equal = vec![vec![false; n]; n];
        for i in 0..n {
            for j in 0..n {
                equal[i][j] = tokens[i] == tokens[j];
            }
        }
        Self { equal }
    }

    /// Number of distinct tokens observed.
    pub fn distinct(&self) -> usize {
        let n = self.equal.len();
        let mut distinct = 0;
        'outer: for i in 0..n {
            for j in 0..i {
                if self.equal[i][j] {
                    continue 'outer;
                }
            }
            distinct += 1;
        }
        distinct
    }
}

/// `L2(D, W)`: the per-query leakage of a query sequence.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct QueryLeakage {
    /// Access pattern of each query, in issue order.
    pub access: Vec<AccessPattern>,
    /// Search pattern across the whole sequence.
    pub search: SearchPattern,
}

impl QueryLeakage {
    /// Records one more query observation.
    pub fn push(&mut self, matched_entries: usize) {
        self.access.push(AccessPattern { matched_entries });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::SseDatabase;
    use crate::pibas::{reference, SseScheme};
    use rand::SeedableRng;
    use rand_chacha::ChaCha20Rng;

    #[test]
    fn index_leakage_reports_size_only() {
        let mut rng = ChaCha20Rng::seed_from_u64(1);
        let key = SseScheme::setup(&mut rng);
        let mut db1 = SseDatabase::new();
        let mut db2 = SseDatabase::new();
        // Same number of entries and payload sizes, different contents and
        // keyword structure: L1 must be identical.
        for i in 0..10u64 {
            db1.add(b"same-keyword".to_vec(), i.to_le_bytes().to_vec());
            db2.add(
                format!("kw-{i}").into_bytes(),
                (i * 7).to_le_bytes().to_vec(),
            );
        }
        let i1 = reference::build_arena(&key, &db1, &mut rng);
        let i2 = reference::build_arena(&key, &db2, &mut rng);
        assert_eq!(IndexLeakage::of(&i1), IndexLeakage::of(&i2));
    }

    #[test]
    fn search_pattern_counts_distinct_tokens() {
        let tokens = vec![1u32, 2, 1, 3, 2];
        let pattern = SearchPattern::from_tokens(&tokens);
        assert_eq!(pattern.distinct(), 3);
        assert!(pattern.equal[0][2]);
        assert!(!pattern.equal[0][1]);
    }

    #[test]
    fn search_pattern_of_repeated_sse_queries() {
        let mut rng = ChaCha20Rng::seed_from_u64(2);
        let key = SseScheme::setup(&mut rng);
        let t1 = SseScheme::trapdoor(&key, b"a");
        let t2 = SseScheme::trapdoor(&key, b"b");
        let t3 = SseScheme::trapdoor(&key, b"a");
        let pattern = SearchPattern::from_tokens(&[t1, t2, t3]);
        assert_eq!(pattern.distinct(), 2);
    }

    #[test]
    fn query_leakage_accumulates_access_patterns() {
        let mut leakage = QueryLeakage::default();
        leakage.push(3);
        leakage.push(0);
        assert_eq!(leakage.access.len(), 2);
        assert_eq!(leakage.access[0].matched_entries, 3);
        assert_eq!(leakage.access[1].matched_entries, 0);
    }

    #[test]
    fn empty_search_pattern() {
        let pattern = SearchPattern::from_tokens::<u8>(&[]);
        assert_eq!(pattern.distinct(), 0);
    }
}
