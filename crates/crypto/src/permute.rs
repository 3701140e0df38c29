//! Keyed pseudorandom permutations of in-memory sequences.
//!
//! Several places in the paper require a *random permutation* whose
//! randomness must not be visible to the server: the documents associated
//! with the same keyword are shuffled before `BuildIndex` (Logarithmic
//! schemes, SRC-i), and the token vectors output by `Trpdr` are shuffled so
//! the server cannot tell which sub-range each token corresponds to.
//!
//! [`keyed_shuffle`] implements a Fisher–Yates shuffle driven by a PRF
//! keystream, so the permutation is (a) pseudorandom to anyone without the
//! key and (b) reproducible by the owner, which keeps `BuildIndex`
//! deterministic given its key — convenient for testing and for the
//! update-manager's re-build during consolidation. It borrows a keyed
//! [`Prf`] rather than a key: a client shuffles once per query and a build
//! once per keyword list, all under one shuffle key, so the key schedule is
//! the caller's to run once.
//! [`rng_shuffle`] is the plain randomized variant used when the permutation
//! never needs to be reproduced.

use crate::prf::Prf;
use rand::seq::SliceRandom;
use rand::RngCore;

/// Deterministically shuffles `items` using the keyed `prf`,
/// domain-separated by `label`.
///
/// Swap indices come from a PRF *keystream* — each 32-byte PRF output
/// yields four `u64` draws — rather than one PRF evaluation per swap, so a
/// length-`n` shuffle costs `⌈(n−1)/4⌉` PRF calls and no key schedule.
/// The Logarithmic schemes shuffle every keyword list during BuildIndex
/// (`n · log m` elements in total), which makes this one of the three
/// PRF-bound build phases.
pub fn keyed_shuffle<T>(prf: &Prf, label: &[u8], items: &mut [T]) {
    if items.len() <= 1 {
        return;
    }
    let mut block = [0u8; 32];
    let mut block_index = 0u64;
    let mut used = 4usize; // draws consumed from `block`; 4 = refill needed
                           // Fisher–Yates: for i from n-1 down to 1, swap items[i] with items[j],
                           // j uniform in 0..=i derived from the PRF stream.
    for i in (1..items.len()).rev() {
        if used == 4 {
            prf.eval_parts_into(&[label, &block_index.to_le_bytes()], &mut block);
            block_index += 1;
            used = 0;
        }
        let mut word = [0u8; 8];
        word.copy_from_slice(&block[8 * used..8 * used + 8]);
        used += 1;
        let j = (u64::from_le_bytes(word) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// Shuffles `items` with a caller-provided RNG (non-reproducible variant).
pub fn rng_shuffle<T, R: RngCore>(rng: &mut R, items: &mut [T]) {
    items.shuffle(rng);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prf::{Key, KEY_LEN};
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha20Rng;
    use std::collections::HashSet;

    fn keyed(byte: u8) -> Prf {
        Prf::new(&Key::from_bytes([byte; KEY_LEN]))
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut items: Vec<u32> = (0..100).collect();
        keyed_shuffle(&keyed(1), b"docs", &mut items);
        let set: HashSet<_> = items.iter().copied().collect();
        assert_eq!(set.len(), 100);
        assert!((0..100).all(|v| set.contains(&v)));
    }

    #[test]
    fn shuffle_is_deterministic_per_key_and_label() {
        let mut a: Vec<u32> = (0..50).collect();
        let mut b: Vec<u32> = (0..50).collect();
        keyed_shuffle(&keyed(2), b"x", &mut a);
        keyed_shuffle(&keyed(2), b"x", &mut b);
        assert_eq!(a, b);

        let mut c: Vec<u32> = (0..50).collect();
        keyed_shuffle(&keyed(2), b"y", &mut c);
        assert_ne!(a, c, "different labels must give different permutations");

        let mut d: Vec<u32> = (0..50).collect();
        keyed_shuffle(&keyed(3), b"x", &mut d);
        assert_ne!(a, d, "different keys must give different permutations");
    }

    /// Permutation computed before the MAC under the shuffle PRF was rebuilt
    /// on raw compressions (PR 19's parent commit): 15 draws, four PRF blocks.
    #[test]
    fn sixteen_item_shuffle_is_pinned() {
        let prf = Prf::new(&Key::from_bytes(std::array::from_fn(|i| i as u8)));
        let mut items: Vec<u8> = (0..16).collect();
        keyed_shuffle(&prf, b"L-pinned-shuffle", &mut items);
        assert_eq!(
            items,
            [8, 13, 15, 3, 14, 4, 0, 7, 12, 2, 9, 1, 11, 6, 5, 10]
        );
    }

    #[test]
    fn tiny_inputs_are_handled() {
        let mut empty: Vec<u8> = vec![];
        keyed_shuffle(&keyed(4), b"l", &mut empty);
        assert!(empty.is_empty());
        let mut one = vec![42];
        keyed_shuffle(&keyed(4), b"l", &mut one);
        assert_eq!(one, vec![42]);
    }

    #[test]
    fn rng_shuffle_is_a_permutation() {
        let mut rng = ChaCha20Rng::seed_from_u64(5);
        let mut items: Vec<u32> = (0..64).collect();
        rng_shuffle(&mut rng, &mut items);
        let mut sorted = items.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn shuffle_actually_moves_elements() {
        // With 64 elements the probability that a pseudorandom permutation is
        // the identity is negligible; treat identity as a failure.
        let mut items: Vec<u32> = (0..64).collect();
        keyed_shuffle(&keyed(6), b"move", &mut items);
        assert_ne!(items, (0..64).collect::<Vec<_>>());
    }

    proptest! {
        #[test]
        fn arbitrary_inputs_stay_permutations(mut items in proptest::collection::vec(any::<u16>(), 0..128),
                                              key_byte in any::<u8>()) {
            let mut original = items.clone();
            keyed_shuffle(&keyed(key_byte), b"prop", &mut items);
            original.sort_unstable();
            items.sort_unstable();
            prop_assert_eq!(items, original);
        }
    }
}
