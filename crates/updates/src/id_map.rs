//! The owner-side maps keyed by document id: the manager's authority
//! index, each instance's latest-op map and each structural instance's
//! part map. A query probes the first (and, for a structural instance,
//! the last) once per returned id, so their hash is on the query path,
//! where std's SipHash was about half of the refinement's cost.
//!
//! [`IdHash`] is two rounds of a folded multiply — the 128-bit product of
//! the id and a multiplier, its high half xored into its low half — under
//! two odd multipliers drawn once per process from [`RandomState`]: never
//! fixed constants, so that ids chosen by whoever supplies the updates
//! cannot be aimed at one bucket. One round, or a 64-bit multiply with an
//! xorshift, leaves strided ids (`i · 2^k`) on a lattice that, for some
//! multipliers, fills a fraction of the buckets and control bytes; two
//! folded rounds spread every stride like a random function.

use rsse_core::DocId;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

/// A map keyed by document id, hashed by [`IdHash`].
pub(crate) type IdMap<V> = HashMap<DocId, V, IdHash>;

/// Builds [`IdHasher`]s under the process's multipliers.
#[derive(Clone, Copy, Debug)]
pub(crate) struct IdHash {
    multipliers: [u64; 2],
}

impl Default for IdHash {
    fn default() -> Self {
        static MULTIPLIERS: OnceLock<[u64; 2]> = OnceLock::new();
        let multipliers = *MULTIPLIERS.get_or_init(|| {
            let state = RandomState::new();
            [state.hash_one(0u64) | 1, state.hash_one(1u64) | 1]
        });
        Self { multipliers }
    }
}

impl BuildHasher for IdHash {
    type Hasher = IdHasher;

    fn build_hasher(&self) -> IdHasher {
        IdHasher {
            multipliers: self.multipliers,
            hash: 0,
        }
    }
}

/// `x × m` in 128 bits, the high half xored into the low half, so that the
/// high bits of `x` reach the low bits of the result (a 64-bit product's
/// low bits see only the operands' low bits).
fn folded_multiply(x: u64, m: u64) -> u64 {
    let product = u128::from(x) * u128::from(m);
    (product as u64) ^ ((product >> 64) as u64)
}

/// The hasher of one key — the table takes its bucket from the low bits
/// of the hash and its control byte from the high ones.
pub(crate) struct IdHasher {
    multipliers: [u64; 2],
    hash: u64,
}

impl Hasher for IdHasher {
    fn write_u64(&mut self, id: u64) {
        let [first, second] = self.multipliers;
        self.hash = folded_multiply(folded_multiply(self.hash ^ id, first), second);
    }

    /// Only `u64` keys reach an [`IdMap`]; any other key is folded in
    /// eight bytes at a time.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_multipliers_are_odd_and_shared_by_the_process() {
        let (a, b) = (IdHash::default(), IdHash::default());
        assert!(a.multipliers.iter().all(|m| m & 1 == 1));
        assert_eq!(a.multipliers, b.multipliers);
        for id in [0, 1, 2, 1 << 40, u64::MAX] {
            assert_eq!(a.hash_one(id), b.hash_one(id));
        }
    }

    #[test]
    fn strided_ids_spread_over_buckets_and_control_bytes() {
        // 4 096 ids into 4 096 buckets fill ≈ 2 589 of them at random
        // (1 − 1/e); two folded rounds stay within a few dozen of that for
        // every stride, while one 64-bit multiply-xorshift round drops to a
        // few hundred for some multipliers. Every one of the 128 control
        // bytes (the hash's top 7 bits) is hit.
        let builder = IdHash::default();
        let strides = [
            1u64,
            2,
            3,
            1 << 12,
            1 << 20,
            1 << 32,
            (1 << 32) + 1,
            1 << 40,
            1 << 52,
        ];
        for stride in strides {
            let hashes: Vec<u64> = (0..4096u64)
                .map(|i| builder.hash_one(i.wrapping_mul(stride)))
                .collect();
            let distinct = |bits: fn(u64) -> u64| {
                let mut values: Vec<u64> = hashes.iter().map(|&h| bits(h)).collect();
                values.sort_unstable();
                values.dedup();
                values.len()
            };
            let buckets = distinct(|h| h & 0xfff);
            assert!(buckets > 2300, "stride {stride}: {buckets} buckets");
            let control_bytes = distinct(|h| h >> 57);
            assert!(
                control_bytes > 120,
                "stride {stride}: {control_bytes} control bytes"
            );
        }
    }
}
