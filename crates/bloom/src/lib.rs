//! Keyed Bloom filters.
//!
//! The PB baseline (the basic scheme of Li et al., PVLDB 2014, against which
//! the paper compares) stores, at every node of a binary tree over the
//! *dataset*, a Bloom filter over the dyadic ranges of the items in that
//! node's subtree. Queries are answered by checking the filter of each
//! visited node for the query's minimal dyadic ranges.
//!
//! Two pieces live here:
//!
//! * [`BloomFilter`] — a plain bit-array Bloom filter that consumes
//!   *pre-hashed* elements (`k` 64-bit hash values per element). Keeping the
//!   hashing outside the filter is what makes the PB trapdoor work: the
//!   owner sends the hash values (computed with a secret PRF key), and the
//!   server probes every node filter with them without learning the
//!   underlying keyword.
//! * [`element_hashes`] — the keyed hash family `h_i(x) = PRF_k(i ‖ x)`,
//!   yielding the `k` values for an element.
//! * [`BloomParams`] — the usual `(bits, hashes)` sizing from an expected
//!   element count and target false-positive rate, as fixed per node by Li
//!   et al.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use rsse_crypto::{Key, Prf};

/// Sizing parameters of a Bloom filter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BloomParams {
    /// Number of bits in the filter.
    pub num_bits: usize,
    /// Number of hash functions per element.
    pub num_hashes: u32,
}

impl BloomParams {
    /// Computes near-optimal parameters for `expected_items` elements and a
    /// target false-positive probability `fp_rate` (0 < fp_rate < 1), using
    /// the standard formulas `m = −n·ln p / (ln 2)²`, `k = (m/n)·ln 2`.
    pub fn optimal(expected_items: usize, fp_rate: f64) -> Self {
        assert!(fp_rate > 0.0 && fp_rate < 1.0, "fp_rate must be in (0,1)");
        let n = expected_items.max(1) as f64;
        let ln2 = std::f64::consts::LN_2;
        let num_bits = (-(n * fp_rate.ln()) / (ln2 * ln2)).ceil().max(8.0) as usize;
        let num_hashes = ((num_bits as f64 / n) * ln2).round().max(1.0) as u32;
        Self {
            num_bits,
            num_hashes,
        }
    }

    /// Size of the filter in bytes (rounded up to whole 64-bit words).
    pub fn storage_bytes(&self) -> usize {
        self.num_bits.div_ceil(64) * 8
    }
}

/// A Bloom filter over pre-hashed elements.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BloomFilter {
    words: Vec<u64>,
    num_bits: usize,
    num_hashes: u32,
    items: usize,
}

impl BloomFilter {
    /// Creates an empty filter with the given parameters.
    pub fn new(params: BloomParams) -> Self {
        assert!(params.num_bits > 0 && params.num_hashes > 0);
        Self {
            words: vec![0u64; params.num_bits.div_ceil(64)],
            num_bits: params.num_bits,
            num_hashes: params.num_hashes,
            items: 0,
        }
    }

    /// The parameters this filter was created with.
    pub fn params(&self) -> BloomParams {
        BloomParams {
            num_bits: self.num_bits,
            num_hashes: self.num_hashes,
        }
    }

    /// Number of elements inserted so far.
    pub fn len(&self) -> usize {
        self.items
    }

    /// Whether no element has been inserted.
    pub fn is_empty(&self) -> bool {
        self.items == 0
    }

    /// Server-side storage of the filter in bytes.
    pub fn storage_bytes(&self) -> usize {
        self.words.len() * 8
    }

    /// Inserts an element given its hash values (at least `num_hashes` of
    /// them must be provided; extras are ignored).
    pub fn insert_hashes(&mut self, hashes: &[u64]) {
        assert!(
            hashes.len() >= self.num_hashes as usize,
            "not enough hashes"
        );
        for &h in &hashes[..self.num_hashes as usize] {
            self.set_bit(h);
        }
        self.items += 1;
    }

    /// Tests membership of an element given its hash values.
    ///
    /// False positives are possible (that is the point of the comparison in
    /// the paper); false negatives are not.
    pub fn contains_hashes(&self, hashes: &[u64]) -> bool {
        assert!(
            hashes.len() >= self.num_hashes as usize,
            "not enough hashes"
        );
        hashes[..self.num_hashes as usize]
            .iter()
            .all(|&h| self.get_bit(h))
    }

    fn set_bit(&mut self, hash: u64) {
        let bit = (hash % self.num_bits as u64) as usize;
        self.words[bit / 64] |= 1u64 << (bit % 64);
    }

    fn get_bit(&self, hash: u64) -> bool {
        let bit = (hash % self.num_bits as u64) as usize;
        self.words[bit / 64] & (1u64 << (bit % 64)) != 0
    }

    /// Fraction of bits set — a cheap estimator of how loaded the filter is.
    pub fn fill_ratio(&self) -> f64 {
        let set: u32 = self.words.iter().map(|w| w.count_ones()).sum();
        set as f64 / self.num_bits as f64
    }

    /// The raw 64-bit words of the bit array (serialization support; the
    /// PB baseline persists its filter tree through this).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Reconstructs a filter from its serialized parts: the sizing
    /// parameters, the raw words, and the recorded element count.
    ///
    /// # Panics
    /// Panics if the parameters are degenerate or `words` does not hold
    /// exactly `num_bits.div_ceil(64)` words — deserializers are expected
    /// to validate sizes before calling this.
    pub fn from_parts(params: BloomParams, words: Vec<u64>, items: usize) -> Self {
        assert!(params.num_bits > 0 && params.num_hashes > 0);
        assert_eq!(
            words.len(),
            params.num_bits.div_ceil(64),
            "word count must match num_bits"
        );
        Self {
            words,
            num_bits: params.num_bits,
            num_hashes: params.num_hashes,
            items,
        }
    }
}

/// Computes the `count` keyed hash values of `element` under `key`:
/// `h_i(element) = PRF_key(i ‖ element)` truncated to 64 bits.
///
/// These values are what the PB owner places in its trapdoors; the server
/// probes node filters with them directly.
pub fn element_hashes(key: &Key, element: &[u8], count: u32) -> Vec<u64> {
    let prf = Prf::new(key);
    (0..count)
        .map(|i| {
            let out = prf.eval_parts(&[&i.to_le_bytes(), element]);
            u64::from_le_bytes(out[..8].try_into().expect("PRF output is 32 bytes"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rsse_crypto::KEY_LEN;

    fn key(byte: u8) -> Key {
        Key::from_bytes([byte; KEY_LEN])
    }

    #[test]
    fn optimal_params_are_sane() {
        let p = BloomParams::optimal(1000, 0.01);
        // ~9.6 bits/element and ~7 hashes for 1% fp.
        assert!(p.num_bits > 9000 && p.num_bits < 11000, "{p:?}");
        assert!(p.num_hashes >= 6 && p.num_hashes <= 8, "{p:?}");
        assert_eq!(p.storage_bytes() % 8, 0);
    }

    #[test]
    fn no_false_negatives() {
        let k = key(1);
        let params = BloomParams::optimal(100, 0.01);
        let mut filter = BloomFilter::new(params);
        let elements: Vec<Vec<u8>> = (0..100u64).map(|i| i.to_le_bytes().to_vec()).collect();
        for e in &elements {
            filter.insert_hashes(&element_hashes(&k, e, params.num_hashes));
        }
        for e in &elements {
            assert!(filter.contains_hashes(&element_hashes(&k, e, params.num_hashes)));
        }
        assert_eq!(filter.len(), 100);
    }

    #[test]
    fn false_positive_rate_is_near_target() {
        let k = key(2);
        let params = BloomParams::optimal(500, 0.02);
        let mut filter = BloomFilter::new(params);
        for i in 0..500u64 {
            filter.insert_hashes(&element_hashes(&k, &i.to_le_bytes(), params.num_hashes));
        }
        let mut false_positives = 0usize;
        let probes = 5000u64;
        for i in 0..probes {
            let candidate = (1_000_000 + i).to_le_bytes();
            if filter.contains_hashes(&element_hashes(&k, &candidate, params.num_hashes)) {
                false_positives += 1;
            }
        }
        let rate = false_positives as f64 / probes as f64;
        assert!(rate < 0.08, "false positive rate too high: {rate}");
    }

    #[test]
    fn different_keys_produce_different_hashes() {
        let a = element_hashes(&key(3), b"element", 4);
        let b = element_hashes(&key(4), b"element", 4);
        assert_ne!(a, b);
        assert_eq!(a.len(), 4);
    }

    #[test]
    fn empty_filter_contains_nothing() {
        let params = BloomParams::optimal(10, 0.01);
        let filter = BloomFilter::new(params);
        assert!(filter.is_empty());
        assert!(!filter.contains_hashes(&element_hashes(&key(5), b"x", params.num_hashes)));
        assert_eq!(filter.fill_ratio(), 0.0);
    }

    #[test]
    #[should_panic(expected = "not enough hashes")]
    fn too_few_hashes_rejected() {
        let params = BloomParams {
            num_bits: 64,
            num_hashes: 4,
        };
        let filter = BloomFilter::new(params);
        let _ = filter.contains_hashes(&[1, 2]);
    }

    #[test]
    fn fill_ratio_grows_with_insertions() {
        let params = BloomParams {
            num_bits: 256,
            num_hashes: 3,
        };
        let mut filter = BloomFilter::new(params);
        let k = key(6);
        let before = filter.fill_ratio();
        for i in 0..20u64 {
            filter.insert_hashes(&element_hashes(&k, &i.to_le_bytes(), 3));
        }
        assert!(filter.fill_ratio() > before);
        assert!(filter.fill_ratio() <= 1.0);
    }

    proptest! {
        #[test]
        fn inserted_elements_are_always_found(elements in proptest::collection::hash_set(any::<u64>(), 1..200),
                                              key_byte in any::<u8>()) {
            let k = key(key_byte);
            let params = BloomParams::optimal(elements.len(), 0.01);
            let mut filter = BloomFilter::new(params);
            for e in &elements {
                filter.insert_hashes(&element_hashes(&k, &e.to_le_bytes(), params.num_hashes));
            }
            for e in &elements {
                prop_assert!(filter.contains_hashes(&element_hashes(&k, &e.to_le_bytes(), params.num_hashes)));
            }
        }
    }
}
