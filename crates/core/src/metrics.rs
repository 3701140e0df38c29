//! Cost accounting shared by every scheme: index statistics, per-query
//! statistics and result evaluation against ground truth.
//!
//! These are the quantities the paper's evaluation reports (Figures 5–8,
//! Tables 1–2): index size, construction cost, query (token) size, number of
//! communication rounds, server work, and false-positive rate.

use crate::dataset::DocId;
use std::collections::HashSet;

/// Size statistics of a built encrypted index.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// Number of (label, value) entries across all encrypted dictionaries.
    pub entries: usize,
    /// Approximate server-side storage in bytes.
    pub storage_bytes: usize,
}

impl IndexStats {
    /// Adds two statistics together (used when a scheme keeps several
    /// sub-indexes, e.g. Logarithmic-SRC-i, or the update manager's batches).
    pub fn merged(self, other: IndexStats) -> IndexStats {
        IndexStats {
            entries: self.entries + other.entries,
            storage_bytes: self.storage_bytes + other.storage_bytes,
        }
    }

    /// Storage in mebibytes, for report printing.
    pub fn storage_mib(&self) -> f64 {
        self.storage_bytes as f64 / (1024.0 * 1024.0)
    }
}

/// Client- and server-side cost of answering one range query.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Number of tokens shipped to the server.
    pub tokens_sent: usize,
    /// Total serialized size of those tokens, in bytes (Figure 8(a)).
    pub token_bytes: usize,
    /// Number of owner↔server communication rounds (1 for every scheme
    /// except Logarithmic-SRC-i, which needs 2).
    pub rounds: usize,
    /// Number of encrypted-index entries the server touched — a
    /// machine-independent proxy for search work.
    pub entries_touched: usize,
    /// Number of distinct per-token result groups the server can observe
    /// (the "result partitioning" leakage of the Logarithmic-BRC/URC
    /// schemes; always 1 for the SRC family).
    pub result_groups: usize,
}

impl QueryStats {
    /// Folds in the cost of a sub-query issued concurrently with the ones
    /// already counted (e.g. one per instance of an update manager): token,
    /// entry and group counts add up, rounds take the maximum.
    pub fn absorb(&mut self, other: &QueryStats) {
        self.tokens_sent += other.tokens_sent;
        self.token_bytes += other.token_bytes;
        self.rounds = self.rounds.max(other.rounds);
        self.entries_touched += other.entries_touched;
        self.result_groups += other.result_groups;
    }
}

/// Comparison of a query outcome against the plaintext ground truth.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Evaluation {
    /// Matching ids correctly returned.
    pub true_positives: usize,
    /// Ids returned that do not satisfy the range.
    pub false_positives: usize,
    /// Matching ids that were *not* returned (must be zero for every scheme
    /// in the paper — they are all complete).
    pub false_negatives: usize,
}

impl Evaluation {
    /// Compares `returned` ids against the `expected` ground-truth ids.
    pub fn compare(returned: &[DocId], expected: &[DocId]) -> Self {
        let returned_set: HashSet<DocId> = returned.iter().copied().collect();
        let expected_set: HashSet<DocId> = expected.iter().copied().collect();
        let true_positives = returned_set.intersection(&expected_set).count();
        Self {
            true_positives,
            false_positives: returned_set.difference(&expected_set).count(),
            false_negatives: expected_set.difference(&returned_set).count(),
        }
    }

    /// Whether every matching tuple was returned.
    pub fn is_complete(&self) -> bool {
        self.false_negatives == 0
    }

    /// Whether the result is exact (complete and without false positives).
    pub fn is_exact(&self) -> bool {
        self.false_negatives == 0 && self.false_positives == 0
    }

    /// The false-positive *rate* as defined in the paper's Figure 6: false
    /// positives over the total number of returned results. Zero when
    /// nothing is returned.
    pub fn false_positive_rate(&self) -> f64 {
        let total = self.true_positives + self.false_positives;
        if total == 0 {
            0.0
        } else {
            self.false_positives as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merged_adds_fields() {
        let a = IndexStats {
            entries: 10,
            storage_bytes: 1000,
        };
        let b = IndexStats {
            entries: 5,
            storage_bytes: 24,
        };
        assert_eq!(
            a.merged(b),
            IndexStats {
                entries: 15,
                storage_bytes: 1024
            }
        );
        assert!(a.storage_mib() > 0.0);
    }

    #[test]
    fn absorb_adds_counts_and_maxes_rounds() {
        let mut total = QueryStats {
            tokens_sent: 2,
            token_bytes: 128,
            rounds: 1,
            entries_touched: 5,
            result_groups: 2,
        };
        total.absorb(&QueryStats {
            tokens_sent: 1,
            token_bytes: 64,
            rounds: 2,
            entries_touched: 7,
            result_groups: 1,
        });
        assert_eq!(
            total,
            QueryStats {
                tokens_sent: 3,
                token_bytes: 192,
                rounds: 2,
                entries_touched: 12,
                result_groups: 3,
            }
        );
    }

    #[test]
    fn evaluation_classification() {
        let eval = Evaluation::compare(&[1, 2, 3, 4], &[2, 3, 5]);
        assert_eq!(eval.true_positives, 2);
        assert_eq!(eval.false_positives, 2);
        assert_eq!(eval.false_negatives, 1);
        assert!(!eval.is_complete());
        assert!(!eval.is_exact());
        assert!((eval.false_positive_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn exact_result_has_zero_rate() {
        let eval = Evaluation::compare(&[7, 8], &[8, 7]);
        assert!(eval.is_exact());
        assert_eq!(eval.false_positive_rate(), 0.0);
    }

    #[test]
    fn empty_results_yield_zero_rate() {
        let eval = Evaluation::compare(&[], &[]);
        assert!(eval.is_exact());
        assert_eq!(eval.false_positive_rate(), 0.0);
        let eval = Evaluation::compare(&[], &[1]);
        assert!(!eval.is_complete());
    }

    #[test]
    fn duplicate_ids_do_not_inflate_counts() {
        let eval = Evaluation::compare(&[1, 1, 1, 9], &[1]);
        assert_eq!(eval.true_positives, 1);
        assert_eq!(eval.false_positives, 1);
    }
}
