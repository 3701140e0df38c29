//! All RSSE schemes of the paper, plus the PB baseline of Li et al. and a
//! plain per-value SSE baseline.
//!
//! Every scheme follows the same client/server split and implements
//! [`RangeScheme`](crate::traits::RangeScheme); schemes with configuration
//! knobs additionally expose `build_with`-style constructors. The
//! [`any`] module offers a runtime-dispatched wrapper used by the
//! experiment harness and the examples.

pub mod any;
pub mod common;
pub mod constant;
pub mod log_brc_urc;
pub mod log_src;
pub mod log_src_i;
pub mod pb;
pub mod plain_sse;
pub mod quadratic;

pub use any::{AnyScheme, SchemeKind};
pub use common::CoverKind;

#[cfg(test)]
pub(crate) mod testutil {
    //! Shared fixtures for scheme tests.

    use crate::dataset::{Dataset, DocId, Record};
    use crate::metrics::Evaluation;
    use crate::traits::QueryOutcome;
    use rsse_cover::{Domain, Range};

    /// A small skewed dataset over a 64-value domain: ten tuples piled on
    /// value 2 (mirroring the USPS-style skew of the paper's Figure 4
    /// example) plus a spread of singletons.
    pub fn skewed_dataset() -> Dataset {
        let mut records = Vec::new();
        for id in 0..10u64 {
            records.push(Record::new(id, 2));
        }
        records.push(Record::new(10, 4));
        records.push(Record::new(11, 5));
        records.push(Record::new(12, 5));
        records.push(Record::new(13, 6));
        records.push(Record::new(14, 6));
        records.push(Record::new(15, 7));
        records.push(Record::new(16, 33));
        records.push(Record::new(17, 47));
        records.push(Record::new(18, 63));
        Dataset::new(Domain::new(64), records).unwrap()
    }

    /// A small near-uniform dataset over a 256-value domain.
    pub fn uniform_dataset() -> Dataset {
        let records = (0..80u64)
            .map(|i| Record::new(i, (i * 37 + 11) % 256))
            .collect();
        Dataset::new(Domain::new(256), records).unwrap()
    }

    /// Checks that an outcome is *complete* (no false negatives) for `range`
    /// and returns its evaluation.
    pub fn assert_complete(dataset: &Dataset, range: Range, outcome: &QueryOutcome) -> Evaluation {
        let expected = dataset.matching_ids(range);
        let eval = Evaluation::compare(&outcome.ids, &expected);
        assert!(
            eval.is_complete(),
            "scheme missed {} matching ids for {range}: returned {:?}, expected {:?}",
            eval.false_negatives,
            outcome.ids,
            expected
        );
        eval
    }

    /// Checks that an outcome is *exact* (complete, no false positives).
    pub fn assert_exact(dataset: &Dataset, range: Range, outcome: &QueryOutcome) {
        let eval = assert_complete(dataset, range, outcome);
        assert!(
            eval.is_exact(),
            "scheme returned {} false positives for {range}",
            eval.false_positives
        );
    }

    /// A spread of query ranges exercising edges, points and spans.
    pub fn query_mix(domain_size: u64) -> Vec<Range> {
        let max = domain_size - 1;
        vec![
            Range::new(0, max),
            Range::point(0),
            Range::point(max),
            Range::point(domain_size / 2),
            Range::new(1, domain_size / 2),
            Range::new(domain_size / 3, 2 * domain_size / 3),
            Range::new(max.saturating_sub(5), max),
            Range::new(2, 7),
            Range::new(3, 5),
        ]
    }

    /// Collects the ids of an outcome sorted, for order-insensitive equality.
    pub fn sorted_ids(outcome: &QueryOutcome) -> Vec<DocId> {
        let mut ids = outcome.ids.clone();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// The single-token counter walk over the per-entry reference
    /// dictionary, decoding id payloads: the oracle the counter scan and
    /// everything built on it are compared against (its own loop, its own
    /// decrypt — only the label PRF is shared). Returns the flattened ids
    /// and the per-token matched-entry counts, like `search_ids`.
    pub fn oracle_search_ids(
        reference: &rsse_sse::pibas::reference::ReferenceIndex,
        tokens: &[rsse_sse::SearchToken],
    ) -> (Vec<DocId>, Vec<usize>) {
        let mut ids = Vec::new();
        let mut groups = Vec::with_capacity(tokens.len());
        for token in tokens {
            let labeler = rsse_sse::TokenLabeler::new(token);
            let cipher = token.payload_cipher();
            let mut matched = 0usize;
            while let Some(ciphertext) = reference.dictionary.get(&labeler.label_at(matched as u64))
            {
                let payload = cipher.decrypt(ciphertext);
                ids.extend(
                    payload
                        .as_deref()
                        .and_then(crate::dataset::decode_id_payload),
                );
                matched += 1;
            }
            groups.push(matched);
        }
        (ids, groups)
    }

    /// A keyed multimap of id payloads for oracle comparisons: keyword
    /// `kw{i}` holds `sizes[i]` consecutive ids. Returns the key, the
    /// database, and one token per keyword.
    pub fn oracle_database(
        sizes: &[usize],
    ) -> (
        rsse_sse::SseKey,
        rsse_sse::SseDatabase,
        Vec<rsse_sse::SearchToken>,
    ) {
        use rsse_sse::SseScheme;
        let key = SseScheme::key_from(rsse_crypto::Key::from_bytes([0x42; 32]));
        let mut db = rsse_sse::SseDatabase::new();
        let mut next_id = 0u64;
        for (kw, &size) in sizes.iter().enumerate() {
            for _ in 0..size {
                db.add(
                    format!("kw{kw}").into_bytes(),
                    next_id.to_le_bytes().to_vec(),
                );
                next_id += 1;
            }
        }
        let tokens = (0..sizes.len())
            .map(|kw| SseScheme::trapdoor(&key, format!("kw{kw}").as_bytes()))
            .collect();
        (key, db, tokens)
    }

    /// Unique scratch directory for persistence tests (shared helper from
    /// `rsse-sse`'s test support, so every crate maintains one copy).
    pub use rsse_sse::test_support::TempDir;
}
