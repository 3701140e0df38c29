//! Owner-side padding of the plaintext multimap.
//!
//! Section 4 of the paper: the size of the augmented dataset `D'` produced
//! by replication-based schemes (Quadratic, the Logarithmic family) depends
//! on the data distribution, so leaking `|D'|` can leak distributional
//! information. The fix is to pad the multimap with dummy entries up to a
//! value computable from the public parameters `(n, m)` alone, so that the
//! index size reveals nothing beyond them.
//!
//! Dummy entries are inserted under reserved keywords that real queries can
//! never produce (they live in a distinct namespace byte), carrying payloads
//! of the same length as real ones so they are indistinguishable inside the
//! encrypted dictionary. They join the build's entry stream after the real
//! entries ([`pad_to`]).

/// Namespace prefix for padding keywords. Scheme keywords produced by
/// `rsse-cover` start with `b'B'` or `b'T'`, and the schemes' own auxiliary
/// keywords never use this byte, so padding can never be matched by a query.
pub const PADDING_KEYWORD_TAG: u8 = 0xFF;

/// The `K`-byte keyword of dummy entry `i`: [`PADDING_KEYWORD_TAG`], `i`
/// little-endian, then zeros.
fn padding_keyword<const K: usize>(i: u64) -> [u8; K] {
    assert!(
        K >= 9,
        "a padding keyword takes 9 bytes, these keywords {K}"
    );
    let mut keyword = [0u8; K];
    keyword[0] = PADDING_KEYWORD_TAG;
    keyword[1..9].copy_from_slice(&i.to_le_bytes());
    keyword
}

/// Extends a build's entry stream with dummy entries until it holds exactly
/// `target_entries`: after the last real entry come `(keyword_i, 0^P)` for
/// `i = 0, 1, …`, each under a padding keyword of its own. Dummy payloads
/// are zeros (they are encrypted individually, so their content is
/// irrelevant).
///
/// # Panics
/// Panics, once `entries` runs out, if it held more than `target_entries`.
pub fn pad_to<const K: usize, const P: usize>(
    entries: impl IntoIterator<Item = ([u8; K], [u8; P])>,
    target_entries: usize,
) -> impl Iterator<Item = ([u8; K], [u8; P])> {
    let mut entries = entries.into_iter();
    let mut real = 0usize;
    let mut dummies: Option<std::ops::Range<u64>> = None;
    let padded = std::iter::from_fn(move || {
        if dummies.is_none() {
            if let Some(entry) = entries.next() {
                real += 1;
                return Some(entry);
            }
            assert!(
                real <= target_entries,
                "the stream has {real} entries, more than the padding target {target_entries}"
            );
            dummies = Some(0..(target_entries - real) as u64);
        }
        let i = dummies.as_mut()?.next()?;
        Some((padding_keyword(i), [0u8; P]))
    });
    crate::with_len(padded, target_entries)
}

/// The padding target used by the Quadratic scheme: every tuple is
/// associated with every range containing its value, so the maximum possible
/// augmented size for `n` tuples over a domain of size `m` is `n · m(m+1)/2 /
/// m = n·(m+1)/2`… more precisely a value `v` belongs to `(v+1)·(m−v)`
/// ranges, maximised at the middle of the domain. The paper only requires a
/// bound computable from `(n, m)`; we use the exact maximum
/// `n · ⌈(m+1)/2⌉ · ⌈m/2⌉ / …` — conservatively, `n` times the number of
/// ranges containing the median value.
pub fn quadratic_padding_target(n: usize, m: u64) -> usize {
    let v = (m - 1) / 2; // median value maximises (v+1)(m-v)
    let per_tuple = (v + 1) * (m - v);
    n.saturating_mul(per_tuple as usize)
}

/// The padding target used by the Logarithmic schemes: each tuple maps to at
/// most `⌈log₂ m⌉ + 1` binary-tree keywords (BRC/URC variants) or
/// `2⌈log₂ m⌉ + 1` TDAG keywords (SRC variants).
pub fn logarithmic_padding_target(n: usize, m: u64, tdag: bool) -> usize {
    let bits = if m <= 1 {
        0
    } else {
        64 - (m - 1).leading_zeros()
    } as usize;
    let per_tuple = if tdag { 2 * bits + 1 } else { bits + 1 };
    n.saturating_mul(per_tuple)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha20Rng;

    use crate::pibas::{reference, SseScheme};
    use crate::{build_index_external_with, SpillOrder, StorageConfig};

    /// `count` entries under the one keyword `keyword`.
    fn list(keyword: &[u8], count: u64) -> Vec<([u8; 13], [u8; 8])> {
        let mut fixed = [0u8; 13];
        fixed[..keyword.len()].copy_from_slice(keyword);
        (0..count).map(|i| (fixed, i.to_le_bytes())).collect()
    }

    fn dummies(stream: &[([u8; 13], [u8; 8])]) -> usize {
        stream
            .iter()
            .filter(|(keyword, _)| keyword[0] == PADDING_KEYWORD_TAG)
            .count()
    }

    #[test]
    fn pad_to_reaches_exact_target() {
        let padded: Vec<_> = pad_to(list(b"w", 2), 10).collect();
        assert_eq!(padded.len(), 10);
        assert_eq!(dummies(&padded), 8);
        // Every dummy has a keyword of its own and a zero payload.
        let mut keywords: Vec<[u8; 13]> = padded[2..].iter().map(|(k, _)| *k).collect();
        keywords.dedup();
        assert_eq!(keywords.len(), 8);
        assert!(padded[2..].iter().all(|(_, payload)| *payload == [0; 8]));
    }

    #[test]
    fn padding_is_invisible_to_real_queries() {
        let mut rng = ChaCha20Rng::seed_from_u64(1);
        let key = SseScheme::setup(&mut rng);
        let index = build_index_external_with(
            pad_to(list(b"Breal", 1), 64),
            SpillOrder::ByKeywordAndPayload,
            |keyword: &[u8; 13], _: &mut Vec<[u8; 8]>| SseScheme::trapdoor(&key, keyword),
            &StorageConfig::in_memory(0),
            &mut rng,
        )
        .unwrap();
        assert_eq!(index.len(), 64);
        let token = SseScheme::trapdoor(&key, &list(b"Breal", 1)[0].0);
        assert_eq!(reference::search(&index, &token).unwrap().len(), 1);
    }

    #[test]
    fn two_distributions_pad_to_identical_size() {
        // The whole point of padding: a skewed and a uniform dataset of the
        // same cardinality end up with identical index sizes.
        let skewed = list(b"hot", 20);
        let uniform: Vec<_> = (0..10u8).flat_map(|i| list(&[b'w', i], 1)).collect();
        let target = 50;
        assert_eq!(
            pad_to(skewed, target).count(),
            pad_to(uniform, target).count()
        );
    }

    #[test]
    #[should_panic(expected = "more than the padding target")]
    fn overful_database_rejected() {
        pad_to(list(b"w", 5), 3).for_each(drop);
    }

    #[test]
    fn logarithmic_target_formula() {
        // m = 1024 → 10 bits → 11 keywords per tuple for the binary tree,
        // 21 for the TDAG.
        assert_eq!(logarithmic_padding_target(100, 1024, false), 1100);
        assert_eq!(logarithmic_padding_target(100, 1024, true), 2100);
        assert_eq!(logarithmic_padding_target(10, 1, false), 10);
    }

    #[test]
    fn quadratic_target_is_maximal_over_values() {
        let m = 64u64;
        let worst = (0..m).map(|v| (v + 1) * (m - v)).max().unwrap() as usize;
        assert_eq!(quadratic_padding_target(1, m), worst);
    }

    proptest! {
        #[test]
        fn padding_never_shrinks_and_hits_target(real in 0u64..40, extra in 0usize..40) {
            let target = real as usize + extra;
            let padded: Vec<_> = pad_to(list(b"k", real), target).collect();
            prop_assert_eq!(dummies(&padded), extra);
            prop_assert_eq!(padded.len(), target);
        }
    }
}
