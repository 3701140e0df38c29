//! Range covering techniques for Range Searchable Symmetric Encryption.
//!
//! The RSSE framework of *Practical Private Range Search Revisited*
//! (Demertzis et al., SIGMOD 2016) reduces range search to multi-keyword
//! search by covering ranges of the query-attribute domain with nodes of
//! tree-shaped index structures. This crate implements all of those
//! structures and covering algorithms, purely combinatorially (no crypto):
//!
//! * [`Domain`] / [`Range`] — the query attribute domain `A = {0, …, m-1}`
//!   and inclusive ranges over it;
//! * [`Node`] — nodes of the full binary tree built bottom-up over `A`
//!   (dyadic intervals);
//! * [`brc()`] — *Best Range Cover*: the minimum set of dyadic intervals that
//!   exactly covers a range (`O(log R)` nodes);
//! * [`urc()`] — *Uniform Range Cover* (Kiayias et al.): a worst-case
//!   decomposition whose multiset of node levels depends only on the range
//!   *size*, not its position, removing the positional leakage of BRC;
//! * [`Tdag`] / [`TdagNode`] — the tree-like DAG of the Logarithmic-SRC
//!   schemes: the binary tree plus one injected node "bridging" every pair
//!   of adjacent nodes at each level;
//! * [`Tdag::src_cover`] — *Single Range Cover*: the lowest TDAG node whose
//!   subtree covers a query range entirely (size ≤ 4R, Lemma 1).
//!
//! Keyword byte-labels for index nodes (used as SSE keywords by the schemes)
//! are produced by [`Node::keyword`] and [`TdagNode::keyword`].

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod brc;
pub mod domain;
pub mod node;
pub mod tdag;
pub mod urc;

pub use brc::brc;
pub use domain::{Domain, Range};
pub use node::Node;
pub use tdag::{Tdag, TdagNode};
pub use urc::urc;

#[cfg(test)]
mod integration_tests {
    use super::*;

    /// The worked example of Figure 1: domain {0..7}, range [2,7].
    #[test]
    fn figure1_brc_and_urc() {
        let domain = Domain::new(8);
        let range = Range::new(2, 7);

        // BRC covers [2,7] with N_{2,3} (level 1) and N_{4,7} (level 2).
        let cover = brc(&domain, range);
        assert_eq!(cover, vec![Node::new(1, 1), Node::new(2, 1)]);

        // URC breaks both into {N_2, N_3, N_{4,5}, N_{6,7}}.
        let mut uniform = urc(&domain, range);
        uniform.sort();
        assert_eq!(
            uniform,
            vec![
                Node::new(0, 2),
                Node::new(0, 3),
                Node::new(1, 2),
                Node::new(1, 3),
            ]
        );
    }

    /// The worked example of Figure 3: TDAG over {0..7}.
    #[test]
    fn figure3_src_examples() {
        let domain = Domain::new(8);
        let tdag = Tdag::new(domain);

        // Range [2,7] is covered by the root N_{0,7}.
        let node = tdag.src_cover(Range::new(2, 7));
        assert_eq!(node.range(), Range::new(0, 7));

        // Range [3,5] is covered by the injected node N_{2,5}.
        let node = tdag.src_cover(Range::new(3, 5));
        assert_eq!(node.range(), Range::new(2, 5));
        assert!(node.is_injected());
    }
}
