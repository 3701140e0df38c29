//! The GGM length-doubling pseudorandom generator.
//!
//! Goldreich–Goldwasser–Micali construct a PRF from any length-doubling PRG
//! `G : {0,1}^λ → {0,1}^{2λ}` by walking a binary tree: the secret key is the
//! root seed, and the PRF value of an ℓ-bit input `a_{ℓ-1} … a_0` is obtained
//! by applying `G` ℓ times, each time keeping the left half (`G_0`) or the
//! right half (`G_1`) of the output depending on the next input bit
//! (most-significant bit first, matching the binary-tree picture of Figure 1
//! in the paper).
//!
//! The delegatable PRF of Kiayias et al. — used by the Constant-BRC/URC
//! schemes — exploits exactly this structure: revealing the seed of an inner
//! node of the GGM tree delegates the PRF on the whole sub-range below it.
//!
//! # Hot-path layout
//!
//! Expanding a node keys one HMAC from its seed and evaluates it twice
//! (once per child tag), instead of building two independently keyed PRFs:
//! 6 compression-function calls per node instead of 8, and no intermediate
//! key objects. [`Ggm::expand_subtree`] works level by level **in place**
//! inside the output buffer (parents at the front, expanded back-to-front),
//! so a full `2^h`-leaf expansion performs exactly one allocation; subtrees
//! of `PARALLEL_HEIGHT` (12) or more levels are split across threads, which
//! is what makes the Constant schemes' `O(R)` server expansion scale.

use crate::prf::KEY_LEN;
use hmac::Hmac;

/// Domain-separation tags for the two halves of the PRG output.
const LEFT_TAG: &[u8] = b"GGM-G0";
const RIGHT_TAG: &[u8] = b"GGM-G1";

/// Subtrees at least this high are expanded on multiple threads.
const PARALLEL_HEIGHT: u32 = 12;

/// Maximum extra split depth for parallel expansion (2^4 = 16 leaf tasks).
const PARALLEL_SPLITS: u32 = 4;

/// A GGM seed: the λ-bit state attached to one node of the GGM tree.
pub type Seed = [u8; KEY_LEN];

/// The GGM pseudorandom generator `G(x) = (G_0(x), G_1(x))`.
///
/// Implemented as `G_b(x) = HMAC_x(tag_b)`, i.e. the current seed keys the
/// PRF and the child selector is the message — the standard way to realise a
/// PRG from a PRF.
#[derive(Clone, Copy, Debug, Default)]
pub struct Ggm;

impl Ggm {
    /// Creates a GGM evaluator.
    pub fn new() -> Self {
        Self
    }

    /// Expands a seed into its two children `(G_0(seed), G_1(seed))`.
    pub fn expand(&self, seed: &Seed) -> (Seed, Seed) {
        let mut left = [0u8; KEY_LEN];
        let mut right = [0u8; KEY_LEN];
        self.expand_into(seed, &mut left, &mut right);
        (left, right)
    }

    /// Buffer-reusing expansion: writes both children of `seed`, keying the
    /// HMAC once and evaluating it per child.
    pub fn expand_into(&self, seed: &Seed, left: &mut Seed, right: &mut Seed) {
        let mac = Hmac::new(seed);
        mac.mac([LEFT_TAG], left);
        mac.mac([RIGHT_TAG], right);
    }

    /// Computes one child of a seed; `right == false` gives `G_0`,
    /// `right == true` gives `G_1`.
    pub fn child(&self, seed: &Seed, right: bool) -> Seed {
        let mut out = [0u8; KEY_LEN];
        self.child_into(seed, right, &mut out);
        out
    }

    /// Buffer-reusing variant of [`child`](Self::child). `out` may alias a
    /// buffer that held the parent seed — the seed is fully absorbed before
    /// `out` is written.
    pub fn child_into(&self, seed: &Seed, right: bool, out: &mut Seed) {
        Hmac::new(seed).mac([if right { RIGHT_TAG } else { LEFT_TAG }], out);
    }

    /// Walks `depth` levels down from `seed`, choosing children according to
    /// the top `depth` bits of `path` (most-significant of those bits first).
    ///
    /// With `seed` being the root key and `depth` the bit-length of the
    /// domain, this is exactly the GGM PRF evaluation
    /// `f_k(a) = G_{a_0}( … (G_{a_{ℓ-1}}(k)) … )` from the paper.
    pub fn walk(&self, seed: &Seed, path: u64, depth: u32) -> Seed {
        debug_assert!(depth <= 64);
        let mut current = *seed;
        let mut next = [0u8; KEY_LEN];
        for level in (0..depth).rev() {
            let bit = (path >> level) & 1 == 1;
            self.child_into(&current, bit, &mut next);
            current = next;
        }
        current
    }

    /// Expands the full subtree of height `height` below `seed`, returning
    /// the `2^height` leaf seeds in left-to-right order.
    ///
    /// This is what the server does in the Constant schemes: given the GGM
    /// value of a covering node (and its level), it derives the DPRF values
    /// of every leaf in that node's sub-range.
    pub fn expand_subtree(&self, seed: &Seed, height: u32) -> Vec<Seed> {
        assert!(height <= 32, "refusing to expand more than 2^32 leaves");
        let mut out = vec![[0u8; KEY_LEN]; 1usize << height];
        self.expand_subtree_into(seed, height, &mut out);
        out
    }

    /// Expands the subtree below `seed` into a caller-provided buffer of
    /// exactly `2^height` seeds (left-to-right leaf order).
    pub fn expand_subtree_into(&self, seed: &Seed, height: u32, out: &mut [Seed]) {
        assert!(height <= 32, "refusing to expand more than 2^32 leaves");
        assert_eq!(
            out.len(),
            1usize << height,
            "output buffer must hold exactly 2^height seeds"
        );
        if height >= PARALLEL_HEIGHT {
            self.expand_parallel(seed, height, out, PARALLEL_SPLITS);
        } else {
            out[0] = *seed;
            self.expand_levels_in_place(height, out);
        }
    }

    /// In-place level-by-level expansion: nodes of level `l` occupy
    /// `out[..2^l]`; expanding back-to-front writes each parent's children
    /// to slots `2i` and `2i+1` without clobbering unexpanded parents
    /// (`2i ≥ i`, and slot `i` is read before it is overwritten).
    fn expand_levels_in_place(&self, height: u32, out: &mut [Seed]) {
        for level in 0..height {
            let nodes = 1usize << level;
            for i in (0..nodes).rev() {
                let parent = out[i];
                let (l, r) = out.split_at_mut(2 * i + 1);
                self.expand_into(&parent, &mut l[2 * i], &mut r[0]);
            }
        }
    }

    /// Splits the top `splits` levels sequentially, then expands the
    /// resulting sub-subtrees on worker threads (two per `join`, recursing).
    fn expand_parallel(&self, seed: &Seed, height: u32, out: &mut [Seed], splits: u32) {
        if splits == 0 || height < PARALLEL_HEIGHT {
            out[0] = *seed;
            self.expand_levels_in_place(height, out);
            return;
        }
        let (left, right) = self.expand(seed);
        let (lo, hi) = out.split_at_mut(out.len() / 2);
        rayon::join(
            || self.expand_parallel(&left, height - 1, lo, splits - 1),
            || self.expand_parallel(&right, height - 1, hi, splits - 1),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn seed(byte: u8) -> Seed {
        [byte; KEY_LEN]
    }

    #[test]
    fn children_are_distinct_and_deterministic() {
        let g = Ggm::new();
        let (l, r) = g.expand(&seed(1));
        assert_ne!(l, r);
        assert_eq!(l, g.child(&seed(1), false));
        assert_eq!(r, g.child(&seed(1), true));
    }

    #[test]
    fn walk_matches_manual_expansion() {
        let g = Ggm::new();
        let root = seed(42);
        // value 6 = 0b110 over a 3-bit domain: right, right, left — the
        // worked example from Section 2.2 of the paper.
        let expected = g.child(&g.child(&g.child(&root, true), true), false);
        assert_eq!(g.walk(&root, 6, 3), expected);
    }

    #[test]
    fn walk_depth_zero_is_identity() {
        let g = Ggm::new();
        assert_eq!(g.walk(&seed(9), 0, 0), seed(9));
    }

    #[test]
    fn expand_subtree_leaves_match_walks() {
        let g = Ggm::new();
        let root = seed(5);
        let leaves = g.expand_subtree(&root, 4);
        assert_eq!(leaves.len(), 16);
        for (i, leaf) in leaves.iter().enumerate() {
            assert_eq!(*leaf, g.walk(&root, i as u64, 4), "leaf {i}");
        }
    }

    #[test]
    fn parallel_expansion_matches_walks() {
        // Height above PARALLEL_HEIGHT exercises the threaded path.
        let g = Ggm::new();
        let root = seed(17);
        let height = PARALLEL_HEIGHT + 1;
        let leaves = g.expand_subtree(&root, height);
        assert_eq!(leaves.len(), 1 << height);
        for &i in &[0usize, 1, 4095, 4096, (1 << height) - 1] {
            assert_eq!(leaves[i], g.walk(&root, i as u64, height), "leaf {i}");
        }
    }

    #[test]
    fn expand_into_matches_expand() {
        let g = Ggm::new();
        let (l, r) = g.expand(&seed(3));
        let mut l2 = [0u8; KEY_LEN];
        let mut r2 = [0u8; KEY_LEN];
        g.expand_into(&seed(3), &mut l2, &mut r2);
        assert_eq!((l, r), (l2, r2));
    }

    #[test]
    fn sibling_subtrees_do_not_collide() {
        let g = Ggm::new();
        let root = seed(7);
        let (l, r) = g.expand(&root);
        let left_leaves = g.expand_subtree(&l, 3);
        let right_leaves = g.expand_subtree(&r, 3);
        for ll in &left_leaves {
            assert!(!right_leaves.contains(ll));
        }
    }

    proptest! {
        #[test]
        fn expand_into_is_two_child_into_calls(root in proptest::collection::vec(any::<u8>(), KEY_LEN)) {
            let g = Ggm::new();
            let root: Seed = root.try_into().expect("KEY_LEN bytes");
            let (mut left, mut right) = ([0u8; KEY_LEN], [0u8; KEY_LEN]);
            g.expand_into(&root, &mut left, &mut right);
            let (mut l, mut r) = ([0u8; KEY_LEN], [0u8; KEY_LEN]);
            g.child_into(&root, false, &mut l);
            g.child_into(&root, true, &mut r);
            prop_assert_eq!((left, right), (l, r));
        }

        #[test]
        fn delegation_consistency(path in 0u64..1024, root_byte in any::<u8>()) {
            // Expanding from an inner node must agree with walking all the
            // way from the root: this is the core property that makes DPRF
            // delegation sound.
            let g = Ggm::new();
            let root = seed(root_byte);
            let depth = 10u32;
            let split = 4u32; // delegate at depth 4 (node covers 2^6 leaves)
            let prefix = path >> (depth - split);
            let suffix = path & ((1 << (depth - split)) - 1);
            let inner = g.walk(&root, prefix, split);
            let via_inner = g.walk(&inner, suffix, depth - split);
            let direct = g.walk(&root, path, depth);
            prop_assert_eq!(via_inner, direct);
        }

        #[test]
        fn distinct_paths_distinct_values(a in 0u64..4096, b in 0u64..4096) {
            prop_assume!(a != b);
            let g = Ggm::new();
            let root = seed(13);
            prop_assert_ne!(g.walk(&root, a, 12), g.walk(&root, b, 12));
        }

        #[test]
        fn subtree_expansion_agrees_with_walks(height in 0u32..8, root_byte in any::<u8>()) {
            // The buffer-reuse rewrite must agree with repeated walk calls
            // at every height and position (the ISSUE's regression guard).
            let g = Ggm::new();
            let root = seed(root_byte);
            let leaves = g.expand_subtree(&root, height);
            prop_assert_eq!(leaves.len() as u64, 1u64 << height);
            for (i, leaf) in leaves.iter().enumerate() {
                prop_assert_eq!(*leaf, g.walk(&root, i as u64, height));
            }
        }
    }
}
