//! Cryptographic primitives for the RSSE (Range Searchable Symmetric
//! Encryption) framework of *Practical Private Range Search Revisited*
//! (Demertzis et al., SIGMOD 2016).
//!
//! The paper's constructions are defined on top of four primitives, all of
//! which this crate provides:
//!
//! * a **pseudorandom function** ([`Prf`]) — the paper uses HMAC-SHA-512,
//!   we use HMAC-SHA-256 which is interchangeable for every construction;
//! * the **GGM pseudorandom generator** ([`ggm::Ggm`]) — a length-doubling
//!   PRG `G : {0,1}^λ → {0,1}^{2λ}` used to build the GGM tree;
//! * a **delegatable PRF** ([`dprf::Dprf`]) in the sense of Kiayias et al.
//!   (CCS 2013): the key holder hands out a *token* (a small set of GGM
//!   inner-node seeds) from which an untrusted party can derive the PRF
//!   values of an entire sub-range of the domain, and nothing else;
//! * a **semantically secure symmetric cipher** ([`cipher::StreamCipher`]) —
//!   AES-256 in counter mode (the paper uses AES-128-CBC), used to encrypt
//!   index payloads and the owner's state on disk.
//!
//! In addition it offers a keyed [`permute::keyed_shuffle`] (Fisher–Yates
//! driven by a PRF keystream) used by the schemes to randomly permute
//! document lists and token vectors, and a simple [`KeyChain`] helper for
//! deriving independent sub-keys from a master key.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod cipher;
pub mod dprf;
pub mod ggm;
pub mod permute;
pub mod prf;

pub use cipher::{decrypt_call_count, encrypt_call_count, StreamCipher};
pub use dprf::{Dprf, DprfToken, GgmNodeSeed};
pub use ggm::Ggm;
pub use prf::{Key, Prf, KEY_LEN};

use rand::{CryptoRng, RngCore};

/// Derives a family of independent keys from a single master key.
///
/// Sub-keys are computed as `PRF(master, domain_separator)`, so two chains
/// built from the same master key but different separators are independent,
/// and the same `(master, label)` pair always yields the same key (which is
/// what the deterministic `Trpdr` algorithms of the schemes rely on).
#[derive(Clone, Debug)]
pub struct KeyChain {
    master: Key,
    /// Cached keyed PRF state — derivations share one key schedule.
    prf: Prf,
}

impl KeyChain {
    /// Creates a key chain from an existing master key.
    pub fn new(master: Key) -> Self {
        let prf = Prf::new(&master);
        Self { master, prf }
    }

    /// Generates a fresh random master key and wraps it in a chain.
    pub fn generate<R: RngCore + CryptoRng>(rng: &mut R) -> Self {
        Self::new(Key::generate(rng))
    }

    /// Returns the master key.
    pub fn master(&self) -> &Key {
        &self.master
    }

    /// Derives the sub-key identified by `label`.
    pub fn derive(&self, label: &[u8]) -> Key {
        Key::from_bytes(self.prf.eval(label))
    }

    /// Derives the sub-key identified by a label and a numeric index.
    ///
    /// Convenient for per-batch or per-level keys (e.g. the update manager
    /// derives one key per batch: `derive_indexed(b"batch", i)`).
    pub fn derive_indexed(&self, label: &[u8], index: u64) -> Key {
        let mut input = Vec::with_capacity(label.len() + 8);
        input.extend_from_slice(label);
        input.extend_from_slice(&index.to_le_bytes());
        self.derive(&input)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha20Rng;

    #[test]
    fn keychain_is_deterministic() {
        let mut rng = ChaCha20Rng::seed_from_u64(7);
        let chain = KeyChain::generate(&mut rng);
        assert_eq!(chain.derive(b"sse"), chain.derive(b"sse"));
        assert_ne!(chain.derive(b"sse"), chain.derive(b"dprf"));
    }

    #[test]
    fn keychain_indexed_labels_are_independent() {
        let mut rng = ChaCha20Rng::seed_from_u64(7);
        let chain = KeyChain::generate(&mut rng);
        let a = chain.derive_indexed(b"batch", 0);
        let b = chain.derive_indexed(b"batch", 1);
        let c = chain.derive_indexed(b"other", 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, chain.derive_indexed(b"batch", 0));
    }

    #[test]
    fn different_masters_give_different_subkeys() {
        let mut rng = ChaCha20Rng::seed_from_u64(1);
        let c1 = KeyChain::generate(&mut rng);
        let c2 = KeyChain::generate(&mut rng);
        assert_ne!(c1.derive(b"x"), c2.derive(b"x"));
    }

    #[test]
    fn indexed_derivation_is_not_prefix_ambiguous() {
        // derive_indexed must not collide with a plain derive over the
        // concatenated byte string interpretation of a different split.
        let mut rng = ChaCha20Rng::seed_from_u64(3);
        let chain = KeyChain::generate(&mut rng);
        let a = chain.derive_indexed(b"ab", 0);
        let b = chain.derive_indexed(b"a", u64::from_le_bytes(*b"b\0\0\0\0\0\0\0"));
        // These inputs genuinely differ in byte length, so they must differ.
        assert_ne!(a, b);
    }
}
