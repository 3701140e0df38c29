//! The plaintext multimap the reference build reads.

use std::collections::BTreeMap;

/// A plaintext searchable database: a multimap from keywords to payloads.
///
/// Keywords and payloads are opaque byte strings of any length; nothing in
/// this crate interprets either. It is the input of the sequential oracle
/// ([`pibas::reference`](crate::pibas::reference)) the fixed-stride
/// `BuildIndex` is tested against.
///
/// Internally a `BTreeMap` keyed by keyword keeps iteration deterministic,
/// which makes index construction reproducible given the same key and RNG.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SseDatabase {
    entries: BTreeMap<Vec<u8>, Vec<Vec<u8>>>,
}

impl SseDatabase {
    /// Creates an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends `payload` to the list associated with `keyword`.
    pub fn add(&mut self, keyword: impl Into<Vec<u8>>, payload: impl Into<Vec<u8>>) {
        self.entries
            .entry(keyword.into())
            .or_default()
            .push(payload.into());
    }

    /// Appends several payloads to the list associated with `keyword`.
    pub fn add_all<I, P>(&mut self, keyword: impl Into<Vec<u8>>, payloads: I)
    where
        I: IntoIterator<Item = P>,
        P: Into<Vec<u8>>,
    {
        let list = self.entries.entry(keyword.into()).or_default();
        list.extend(payloads.into_iter().map(Into::into));
    }

    /// The payload list for a keyword (empty slice if absent).
    pub fn get(&self, keyword: &[u8]) -> &[Vec<u8>] {
        self.entries.get(keyword).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of distinct keywords.
    pub fn keyword_count(&self) -> usize {
        self.entries.len()
    }

    /// Total number of (keyword, payload) pairs — the `N` that drives the
    /// encrypted index size.
    pub fn entry_count(&self) -> usize {
        self.entries.values().map(Vec::len).sum()
    }

    /// Total payload bytes stored (for storage accounting).
    pub fn payload_bytes(&self) -> usize {
        self.entries
            .values()
            .flat_map(|v| v.iter())
            .map(Vec::len)
            .sum()
    }

    /// Length of the longest payload list (the maximum response size).
    pub fn max_list_len(&self) -> usize {
        self.entries.values().map(Vec::len).max().unwrap_or(0)
    }

    /// Iterates over `(keyword, payload list)` pairs in keyword order.
    pub fn iter(&self) -> impl Iterator<Item = (&[u8], &[Vec<u8>])> {
        self.entries
            .iter()
            .map(|(k, v)| (k.as_slice(), v.as_slice()))
    }

    /// Applies a keyed shuffle to every payload list.
    ///
    /// The Logarithmic schemes require the documents sharing a keyword to be
    /// randomly permuted before indexing so that storage order leaks nothing
    /// about attribute order.
    ///
    /// Each list's permutation is a pure function of `(key, keyword)`, so
    /// the lists shuffle independently on all cores.
    pub fn shuffle_lists(&mut self, key: &rsse_crypto::Key) {
        use rayon::prelude::*;
        let prf = rsse_crypto::Prf::new(key);
        let lists: Vec<(&Vec<u8>, &mut Vec<Vec<u8>>)> = self.entries.iter_mut().collect();
        let _: Vec<()> = lists
            .into_par_iter()
            .map(|(keyword, list)| rsse_crypto::permute::keyed_shuffle(&prf, keyword, list))
            .collect();
    }
}

impl<K, P> FromIterator<(K, P)> for SseDatabase
where
    K: Into<Vec<u8>>,
    P: Into<Vec<u8>>,
{
    fn from_iter<T: IntoIterator<Item = (K, P)>>(iter: T) -> Self {
        let mut db = SseDatabase::new();
        for (k, p) in iter {
            db.add(k, p);
        }
        db
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsse_crypto::Key;

    #[test]
    fn add_and_get() {
        let mut db = SseDatabase::new();
        db.add(b"w1".to_vec(), b"d1".to_vec());
        db.add(b"w1".to_vec(), b"d2".to_vec());
        db.add(b"w2".to_vec(), b"d3".to_vec());
        assert_eq!(db.get(b"w1"), &[b"d1".to_vec(), b"d2".to_vec()]);
        assert_eq!(db.get(b"w2"), &[b"d3".to_vec()]);
        assert!(db.get(b"w3").is_empty());
        assert_eq!(db.keyword_count(), 2);
        assert_eq!(db.entry_count(), 3);
        assert_eq!(db.max_list_len(), 2);
        assert_eq!(db.payload_bytes(), 6);
    }

    #[test]
    fn add_all_extends() {
        let mut db = SseDatabase::new();
        db.add_all(b"w".to_vec(), vec![b"a".to_vec(), b"b".to_vec()]);
        db.add_all(b"w".to_vec(), vec![b"c".to_vec()]);
        assert_eq!(db.get(b"w").len(), 3);
    }

    #[test]
    fn from_iterator_collects_pairs() {
        let db: SseDatabase = vec![
            (b"k".to_vec(), b"1".to_vec()),
            (b"k".to_vec(), b"2".to_vec()),
        ]
        .into_iter()
        .collect();
        assert_eq!(db.get(b"k").len(), 2);
    }

    #[test]
    fn iteration_is_keyword_ordered() {
        let mut db = SseDatabase::new();
        db.add(b"zz".to_vec(), b"1".to_vec());
        db.add(b"aa".to_vec(), b"2".to_vec());
        let keys: Vec<&[u8]> = db.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![b"aa".as_slice(), b"zz".as_slice()]);
    }

    #[test]
    fn shuffle_preserves_multiset() {
        let mut db = SseDatabase::new();
        for i in 0..50u8 {
            db.add(b"w".to_vec(), vec![i]);
        }
        let before: Vec<Vec<u8>> = db.get(b"w").to_vec();
        db.shuffle_lists(&Key::from_bytes([1; 32]));
        let mut after: Vec<Vec<u8>> = db.get(b"w").to_vec();
        assert_ne!(after, before, "shuffle should move elements");
        after.sort();
        let mut sorted_before = before;
        sorted_before.sort();
        assert_eq!(after, sorted_before);
    }

    #[test]
    fn empty_database_counts() {
        let db = SseDatabase::new();
        assert_eq!(db.keyword_count(), 0);
        assert_eq!(db.entry_count(), 0);
        assert_eq!(db.max_list_len(), 0);
    }
}
