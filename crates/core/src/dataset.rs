//! Plaintext datasets: tuples of (id, query-attribute value).
//!
//! The paper abstracts every tuple `d ∈ D` as a pair `(id, a)` where `id` is
//! a unique identifier and `a = d.a` is the value of the single query
//! attribute. The records themselves are encrypted independently with a
//! semantically secure cipher and fetched by id after the search — that
//! retrieval step is orthogonal to RSSE and therefore not modelled here.

use rsse_cover::{Domain, Range};
use std::collections::BTreeSet;
use std::fmt;

/// A tuple identifier.
pub type DocId = u64;

/// One tuple of the outsourced dataset: `(id, value)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Record {
    /// Unique tuple identifier (`d.id`).
    pub id: DocId,
    /// Value of the query attribute (`d.a`).
    pub value: u64,
}

impl Record {
    /// Creates a record.
    pub fn new(id: DocId, value: u64) -> Self {
        Self { id, value }
    }

    /// Serializes the record id as an 8-byte SSE payload.
    pub(crate) fn id_payload_array(&self) -> [u8; 8] {
        self.id.to_le_bytes()
    }
}

/// Decodes an 8-byte SSE payload back into a [`DocId`].
pub(crate) fn decode_id_payload(payload: &[u8]) -> Option<DocId> {
    let bytes: [u8; 8] = payload.try_into().ok()?;
    Some(DocId::from_le_bytes(bytes))
}

/// Errors raised when constructing a [`Dataset`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DatasetError {
    /// A record's value lies outside the declared domain.
    ValueOutOfDomain {
        /// The offending record id.
        id: DocId,
        /// The offending value.
        value: u64,
        /// The domain size it violates.
        domain_size: u64,
    },
    /// Two records share the same id.
    DuplicateId(DocId),
}

impl fmt::Display for DatasetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatasetError::ValueOutOfDomain {
                id,
                value,
                domain_size,
            } => write!(
                f,
                "record {id} has value {value} outside domain of size {domain_size}"
            ),
            DatasetError::DuplicateId(id) => write!(f, "duplicate record id {id}"),
        }
    }
}

impl std::error::Error for DatasetError {}

/// The owner's plaintext dataset, validated against its domain.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Dataset {
    domain: Domain,
    records: Vec<Record>,
}

impl Dataset {
    /// Creates a dataset, checking that every value lies in the domain and
    /// ids are unique.
    pub fn new(domain: Domain, records: Vec<Record>) -> Result<Self, DatasetError> {
        let mut seen = BTreeSet::new();
        for record in &records {
            if !domain.contains(record.value) {
                return Err(DatasetError::ValueOutOfDomain {
                    id: record.id,
                    value: record.value,
                    domain_size: domain.size(),
                });
            }
            if !seen.insert(record.id) {
                return Err(DatasetError::DuplicateId(record.id));
            }
        }
        Ok(Self { domain, records })
    }

    /// The query attribute domain.
    pub fn domain(&self) -> &Domain {
        &self.domain
    }

    /// The records.
    pub fn records(&self) -> &[Record] {
        &self.records
    }

    /// Number of tuples (`n` in the paper).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the dataset holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Number of distinct attribute values present — the quantity that
    /// drives the size of Logarithmic-SRC-i's auxiliary index (and is leaked
    /// by it).
    pub fn distinct_values(&self) -> usize {
        self.records
            .iter()
            .map(|r| r.value)
            .collect::<BTreeSet<_>>()
            .len()
    }

    /// Ground truth: the ids of the tuples whose value falls in `range`.
    /// Used by the evaluation harness to count false positives.
    pub fn matching_ids(&self, range: Range) -> Vec<DocId> {
        self.records
            .iter()
            .filter(|r| range.contains(r.value))
            .map(|r| r.id)
            .collect()
    }

    /// Number of tuples matching `range` (the paper's `r`).
    pub fn result_size(&self, range: Range) -> usize {
        self.records
            .iter()
            .filter(|r| range.contains(r.value))
            .count()
    }

    /// Records sorted by attribute value (stable, so equal values keep their
    /// input order); used by Logarithmic-SRC-i.
    pub fn sorted_by_value(&self) -> Vec<Record> {
        let mut sorted = self.records.clone();
        sorted.sort_by_key(|r| r.value);
        sorted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Dataset {
        Dataset::new(
            Domain::new(16),
            vec![
                Record::new(1, 2),
                Record::new(2, 2),
                Record::new(3, 7),
                Record::new(4, 15),
            ],
        )
        .unwrap()
    }

    #[test]
    fn construction_validates_domain_membership() {
        let err = Dataset::new(Domain::new(4), vec![Record::new(1, 9)]).unwrap_err();
        assert_eq!(
            err,
            DatasetError::ValueOutOfDomain {
                id: 1,
                value: 9,
                domain_size: 4
            }
        );
        assert!(err.to_string().contains("outside domain"));
    }

    #[test]
    fn construction_rejects_duplicate_ids() {
        let err =
            Dataset::new(Domain::new(4), vec![Record::new(1, 0), Record::new(1, 1)]).unwrap_err();
        assert_eq!(err, DatasetError::DuplicateId(1));
    }

    #[test]
    fn ground_truth_matches_filter() {
        let ds = small();
        assert_eq!(ds.matching_ids(Range::new(0, 3)), vec![1, 2]);
        assert_eq!(ds.matching_ids(Range::new(7, 15)), vec![3, 4]);
        assert_eq!(ds.result_size(Range::new(0, 15)), 4);
        assert!(ds.matching_ids(Range::new(8, 14)).is_empty());
    }

    #[test]
    fn distinct_values_counts_unique() {
        assert_eq!(small().distinct_values(), 3);
    }

    #[test]
    fn sorted_by_value_is_stable() {
        let ds = small();
        let sorted = ds.sorted_by_value();
        assert_eq!(
            sorted.iter().map(|r| r.id).collect::<Vec<_>>(),
            vec![1, 2, 3, 4]
        );
    }

    #[test]
    fn payload_roundtrip() {
        let record = Record::new(0xDEADBEEF, 3);
        assert_eq!(
            decode_id_payload(&record.id_payload_array()),
            Some(0xDEADBEEF)
        );
        assert_eq!(decode_id_payload(b"short"), None);
    }

    #[test]
    fn empty_dataset_is_fine() {
        let ds = Dataset::new(Domain::new(8), vec![]).unwrap();
        assert!(ds.is_empty());
        assert_eq!(ds.distinct_values(), 0);
        assert!(ds.matching_ids(Range::new(0, 7)).is_empty());
    }
}
