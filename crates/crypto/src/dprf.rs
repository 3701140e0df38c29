//! Delegatable PRF (DPRF) in the sense of Kiayias, Papadopoulos,
//! Triandopoulos, Zacharias (CCS 2013), built on the GGM tree.
//!
//! The owner holds the GGM root seed over an ℓ-bit domain. To delegate the
//! PRF over a sub-range, it hands the server the GGM seeds of the nodes that
//! cover the range (the *token*, produced by the `T` function of the DPRF —
//! in our layering the covering nodes themselves are computed by
//! `rsse-cover`'s BRC or URC and passed in here). Each seed is paired with
//! the *level* of its node so the server knows how far to expand; from those
//! seeds the server's `C` function derives the leaf-level DPRF values of
//! every domain point in the range — and, by PRG security, learns nothing
//! about values outside the delegated sub-ranges.

use crate::ggm::{Ggm, Seed};
use crate::prf::{Key, KEY_LEN};

/// A delegated GGM inner-node seed together with the level of its node.
///
/// `level` is the height of the node's subtree: a node at level `h` covers
/// `2^h` consecutive leaves. Level 0 seeds are already leaf-level DPRF
/// values.
#[derive(Clone, PartialEq, Eq)]
pub struct GgmNodeSeed {
    /// GGM seed of the delegated node.
    pub seed: Seed,
    /// Height of the delegated node's subtree (0 = leaf).
    pub level: u32,
}

impl std::fmt::Debug for GgmNodeSeed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "GgmNodeSeed {{ level: {}, seed: <{} bytes> }}",
            self.level, KEY_LEN
        )
    }
}

/// A DPRF delegation token: the (randomly permutable) set of GGM node seeds
/// covering the delegated range.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DprfToken {
    /// Delegated node seeds. The order carries no information; callers are
    /// expected to shuffle before sending (the schemes do).
    pub nodes: Vec<GgmNodeSeed>,
}

impl DprfToken {
    /// Number of delegated nodes (the `O(log R)` of the paper).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the token delegates nothing.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Serialized size in bytes: each node ships a seed plus its level.
    /// Used by the Figure 8(a) experiment (query size at the owner).
    pub fn size_bytes(&self) -> usize {
        self.nodes.len() * (KEY_LEN + 4)
    }
}

/// One requested node of a batched delegation, in walk coordinates.
struct DelegateTarget {
    /// Leftmost leaf covered by the node (`index << level`).
    base: u64,
    /// Depth of the node below the root (`depth − level`).
    prefix_depth: u32,
    /// Position of the node in the caller's input list.
    pos: u32,
}

/// A delegatable PRF over an `ℓ`-bit domain (domain values `0 .. 2^ℓ`).
///
/// # Examples
///
/// The owner delegates a sub-range; the server expands the token into
/// exactly that range's leaf values and nothing else:
///
/// ```
/// use rsse_crypto::{Dprf, Key};
///
/// let dprf = Dprf::new(&Key::from_bytes([7u8; 32]), 4); // domain 0..16
///
/// // Delegate the aligned range [8, 12): one level-2 node (index 2).
/// let token = dprf.delegate(&[(2, 2)]);
/// assert_eq!(Dprf::token_coverage(&token), 4);
///
/// // Server-side expansion reproduces the owner's per-value PRF outputs.
/// let leaves = Dprf::expand_token(&token);
/// let expected: Vec<_> = (8..12).map(|v| dprf.eval(v)).collect();
/// assert_eq!(leaves, expected);
/// ```
#[derive(Clone, Debug)]
pub struct Dprf {
    root: Seed,
    depth: u32,
    ggm: Ggm,
}

impl Dprf {
    /// Creates a DPRF keyed by `key` over a domain of `depth` bits.
    pub fn new(key: &Key, depth: u32) -> Self {
        assert!(depth <= 63, "domain depth must fit in 63 bits");
        Self {
            root: *key.as_bytes(),
            depth,
            ggm: Ggm::new(),
        }
    }

    /// Number of bits of the domain (the height of the GGM tree).
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// Evaluates the full (leaf-level) DPRF on a single domain value.
    ///
    /// Only the key holder can call this; the server obtains the same values
    /// through [`expand_token`](Self::expand_token).
    pub fn eval(&self, value: u64) -> Seed {
        assert!(
            self.depth == 63 || value < (1u64 << self.depth),
            "value {value} outside the {}-bit domain",
            self.depth
        );
        self.ggm.walk(&self.root, value, self.depth)
    }

    /// Delegates the PRF over the sub-ranges described by `nodes`.
    ///
    /// Each node is given as `(level, index)`: the node at height `level`
    /// covering leaves `[index * 2^level, (index + 1) * 2^level)`. The
    /// covering-node lists are produced by the BRC/URC algorithms of
    /// `rsse-cover`; this function only turns them into GGM seeds.
    ///
    /// The walk **shares GGM prefixes** between covering nodes: the nodes
    /// of a BRC/URC cover sit on at most two root-to-leaf paths, so
    /// independent walks re-derive
    /// almost every inner node up to `2·log m` times — one DFS over the
    /// requested set derives each needed GGM node exactly once (the
    /// difference matters for URC, whose covers are larger by design). The
    /// returned token lists the node seeds in **input order**, and every
    /// seed is identical to an independent root walk — the
    /// `delegate_matches_per_node_walks` property pins the trapdoors
    /// unchanged.
    pub fn delegate(&self, nodes: &[(u32, u64)]) -> DprfToken {
        let mut targets: Vec<DelegateTarget> = Vec::with_capacity(nodes.len());
        for (pos, &(level, index)) in nodes.iter().enumerate() {
            assert!(level <= self.depth, "node level exceeds tree depth");
            let prefix_depth = self.depth - level;
            assert!(
                prefix_depth == 0 || index < (1u64 << prefix_depth),
                "node index {index} out of range at level {level}"
            );
            // A level == depth node is the root; the per-node walk ignored
            // `index` there (`walk(root, index, 0) == root` for any index),
            // so the DFS coordinates must too, or the target's leaf base
            // would land outside the tree.
            targets.push(DelegateTarget {
                base: if prefix_depth == 0 { 0 } else { index << level },
                prefix_depth,
                pos: pos as u32,
            });
        }
        // Lexicographic path order: ancestors sort before their descendants
        // (same leaf base, shorter prefix first), siblings by leaf base.
        targets.sort_unstable_by_key(|t| (t.base, t.prefix_depth));
        let mut out = vec![
            GgmNodeSeed {
                seed: [0u8; KEY_LEN],
                level: 0,
            };
            nodes.len()
        ];
        self.delegate_rec(&self.root, 0, 0, &targets, &mut out);
        DprfToken { nodes: out }
    }

    /// DFS helper of [`delegate`](Self::delegate): `seed` is the GGM node at
    /// depth `cur_depth` whose subtree's leftmost leaf is `base`; `targets`
    /// the (path-ordered) requested nodes inside that subtree.
    fn delegate_rec(
        &self,
        seed: &Seed,
        cur_depth: u32,
        base: u64,
        mut targets: &[DelegateTarget],
        out: &mut [GgmNodeSeed],
    ) {
        // Emit every target sitting exactly at this node (duplicates allowed),
        // then keep descending for any deeper targets below it.
        while let Some(first) = targets.first() {
            if first.prefix_depth != cur_depth {
                break;
            }
            out[first.pos as usize] = GgmNodeSeed {
                seed: *seed,
                level: self.depth - cur_depth,
            };
            targets = &targets[1..];
        }
        if targets.is_empty() {
            return;
        }
        // Remaining targets are strictly deeper, so cur_depth < self.depth.
        let height = self.depth - cur_depth;
        let mid = base + (1u64 << (height - 1));
        let split = targets.partition_point(|t| t.base < mid);
        let (lo, hi) = targets.split_at(split);
        match (lo.is_empty(), hi.is_empty()) {
            (false, false) => {
                // Both subtrees requested: one keying serves both children.
                let (left, right) = self.ggm.expand(seed);
                self.delegate_rec(&left, cur_depth + 1, base, lo, out);
                self.delegate_rec(&right, cur_depth + 1, mid, hi, out);
            }
            (false, true) => {
                let left = self.ggm.child(seed, false);
                self.delegate_rec(&left, cur_depth + 1, base, lo, out);
            }
            (true, false) => {
                let right = self.ggm.child(seed, true);
                self.delegate_rec(&right, cur_depth + 1, mid, hi, out);
            }
            (true, true) => unreachable!("targets checked non-empty"),
        }
    }

    /// Server-side expansion: derives all leaf-level DPRF values delegated by
    /// `token`, in the order the token lists its nodes (leaves of each node
    /// left-to-right). Requires no secret key.
    ///
    /// Allocates the full leaf buffer once and expands every node's subtree
    /// in place inside its slice of it (large subtrees fan out across
    /// threads inside [`Ggm::expand_subtree_into`]).
    pub fn expand_token(token: &DprfToken) -> Vec<Seed> {
        let ggm = Ggm::new();
        let total: usize = token
            .nodes
            .iter()
            .map(|n| {
                // Mirror expand_subtree_into's bound *before* sizing the
                // buffer, so an oversized node fails here rather than as an
                // allocation failure or slice panic.
                assert!(n.level <= 32, "refusing to expand more than 2^32 leaves");
                1usize << n.level
            })
            .sum();
        let mut out = vec![[0u8; KEY_LEN]; total];
        let mut offset = 0usize;
        for node in &token.nodes {
            let len = 1usize << node.level;
            ggm.expand_subtree_into(&node.seed, node.level, &mut out[offset..offset + len]);
            offset += len;
        }
        out
    }

    /// Convenience: number of leaf values a token expands to.
    pub fn token_coverage(token: &DprfToken) -> u64 {
        token.nodes.iter().map(|n| 1u64 << n.level).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prf::Key;
    use proptest::prelude::*;

    fn key(byte: u8) -> Key {
        Key::from_bytes([byte; KEY_LEN])
    }

    #[test]
    fn eval_is_deterministic_and_value_sensitive() {
        let dprf = Dprf::new(&key(1), 8);
        assert_eq!(dprf.eval(5), dprf.eval(5));
        assert_ne!(dprf.eval(5), dprf.eval(6));
    }

    #[test]
    fn delegation_of_single_leaf_equals_eval() {
        let dprf = Dprf::new(&key(2), 8);
        let token = dprf.delegate(&[(0, 77)]);
        let leaves = Dprf::expand_token(&token);
        assert_eq!(leaves, vec![dprf.eval(77)]);
    }

    #[test]
    fn delegation_of_inner_node_covers_exact_range() {
        // Node (level=2, index=3) covers leaves 12..16 of the domain.
        let dprf = Dprf::new(&key(3), 6);
        let token = dprf.delegate(&[(2, 3)]);
        let leaves = Dprf::expand_token(&token);
        assert_eq!(leaves.len(), 4);
        for (i, leaf) in leaves.iter().enumerate() {
            assert_eq!(*leaf, dprf.eval(12 + i as u64));
        }
    }

    #[test]
    fn paper_example_range_2_to_7() {
        // Figure 1 of the paper: domain {0..7}, BRC of [2,7] = {N_{2,3}, N_{4,7}}
        // i.e. nodes (level 1, index 1) and (level 2, index 1).
        let dprf = Dprf::new(&key(4), 3);
        let token = dprf.delegate(&[(1, 1), (2, 1)]);
        assert_eq!(token.len(), 2);
        assert_eq!(Dprf::token_coverage(&token), 6);
        let leaves = Dprf::expand_token(&token);
        let expected: Vec<_> = (2..=7).map(|v| dprf.eval(v)).collect();
        assert_eq!(leaves, expected);
    }

    #[test]
    fn token_size_accounts_seed_and_level() {
        let dprf = Dprf::new(&key(5), 10);
        let token = dprf.delegate(&[(0, 1), (3, 2), (5, 0)]);
        assert_eq!(token.size_bytes(), 3 * (KEY_LEN + 4));
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn eval_out_of_domain_panics() {
        let dprf = Dprf::new(&key(6), 4);
        let _ = dprf.eval(16);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn delegate_out_of_range_node_panics() {
        let dprf = Dprf::new(&key(6), 4);
        let _ = dprf.delegate(&[(2, 4)]); // only indices 0..4 exist at level 2
    }

    #[test]
    fn debug_output_hides_seed_bytes() {
        let dprf = Dprf::new(&key(9), 4);
        let token = dprf.delegate(&[(1, 0)]);
        let rendered = format!("{:?}", token.nodes[0]);
        assert!(rendered.contains("<32 bytes>"));
    }

    #[test]
    fn delegate_shares_prefixes_without_changing_trapdoors() {
        // The ISSUE's satellite guard: batched delegation must hand out the
        // exact seeds independent per-node root walks produced before —
        // trapdoors are on the wire, so they may not change. BRC of [2,7]
        // over a 3-bit domain plus a nested duplicate exercises sharing,
        // nesting, and duplicates at once.
        let dprf = Dprf::new(&key(12), 3);
        let nodes = [(1u32, 1u64), (2, 1), (1, 1), (0, 2)];
        let token = dprf.delegate(&nodes);
        assert_eq!(token.len(), nodes.len());
        for (&(level, index), got) in nodes.iter().zip(&token.nodes) {
            assert_eq!(got.level, level);
            let reference = dprf.ggm.walk(&dprf.root, index, dprf.depth - level);
            assert_eq!(got.seed, reference, "seed for node ({level}, {index})");
        }
    }

    #[test]
    fn delegate_of_root_level_node_ignores_index_like_walk_did() {
        // `walk(root, index, 0)` returns the root whatever `index` is, and
        // the old per-node delegate inherited that; the batched DFS must
        // reproduce it (regression for a base-out-of-tree underflow).
        let dprf = Dprf::new(&key(14), 3);
        let token = dprf.delegate(&[(0, 0), (3, 1)]);
        assert_eq!(token.nodes[0].seed, dprf.ggm.walk(&dprf.root, 0, 3));
        assert_eq!(token.nodes[1].level, 3);
        assert_eq!(
            token.nodes[1].seed, dprf.root,
            "level == depth delegates the root"
        );
    }

    #[test]
    fn delegate_handles_max_depth_domain() {
        let dprf = Dprf::new(&key(13), 63);
        let nodes = [(63u32, 0u64), (62, 1), (0, (1u64 << 62) + 17)];
        let token = dprf.delegate(&nodes);
        for (&(level, index), got) in nodes.iter().zip(&token.nodes) {
            assert_eq!(
                got.seed,
                dprf.ggm.walk(&dprf.root, index, dprf.depth - level)
            );
        }
    }

    proptest! {
        /// Batched delegation returns, at every input position, exactly the
        /// seed an independent root walk derives — for arbitrary node sets
        /// (unsorted, overlapping, nested, duplicated).
        #[test]
        fn delegate_matches_per_node_walks(
            raw in proptest::collection::vec((0u32..=8, any::<u64>()), 0..24))
        {
            let depth = 8u32;
            let dprf = Dprf::new(&key(11), depth);
            let nodes: Vec<(u32, u64)> = raw
                .into_iter()
                .map(|(level, index)| {
                    let prefix_depth = depth - level;
                    // At prefix_depth == 0 any index is accepted (and
                    // ignored, as the zero-step walk ignores it).
                    let index = if prefix_depth == 0 { index } else { index % (1u64 << prefix_depth) };
                    (level, index)
                })
                .collect();
            let token = dprf.delegate(&nodes);
            prop_assert_eq!(token.len(), nodes.len());
            for (&(level, index), got) in nodes.iter().zip(&token.nodes) {
                prop_assert_eq!(got.level, level);
                let reference = dprf.ggm.walk(&dprf.root, index, depth - level);
                prop_assert_eq!(got.seed, reference);
            }
        }

        #[test]
        fn expansion_matches_direct_eval(start in 0u64..200, level in 0u32..5) {
            let depth = 8u32;
            let max_index = 1u64 << (depth - level);
            let index = start % max_index;
            let dprf = Dprf::new(&key(8), depth);
            let token = dprf.delegate(&[(level, index)]);
            let leaves = Dprf::expand_token(&token);
            let base = index << level;
            prop_assert_eq!(leaves.len() as u64, 1u64 << level);
            for (i, leaf) in leaves.iter().enumerate() {
                prop_assert_eq!(*leaf, dprf.eval(base + i as u64));
            }
        }
    }
}
