//! Semantically secure symmetric encryption.
//!
//! The schemes need a probabilistic (IND-CPA secure) cipher for two jobs:
//! encrypting the per-document payloads stored in the SSE index, and
//! encrypting the records themselves before outsourcing. The paper uses
//! AES-128-CBC; we use a counter-mode stream cipher whose keystream blocks
//! are PRF evaluations over `(nonce, block counter)` — the textbook
//! PRF-to-IND-CPA construction, so the security argument carries over
//! unchanged.
//!
//! A keystream block is one PRF evaluation over 40 bytes (the 16-byte nonce
//! and the 8-byte counter, each behind its length): one SHA-256 block, so
//! two compressions per 32 bytes of keystream on the cipher's cached key
//! state. An 8-byte tuple id — the payload of every index entry — costs one.
//! Keystream blocks of *different* messages do not wait on each other, so
//! wherever two messages are at hand — two hits of a scan
//! ([`StreamCipher::decrypt_pair_into`]), two neighbours of a list being
//! built ([`StreamCipher::encrypt_list_to`]) — their blocks are evaluated as
//! pairs on the two-lane kernel, bytes unchanged.
//!
//! The two process-wide call counters below are instrumentation, not part
//! of the cipher: see [`encrypt_call_count`] for where each entry point's
//! count lands.

use crate::prf::{Key, Prf, KEY_LEN};
use rand::{CryptoRng, RngCore};
use std::sync::atomic::{AtomicU64, Ordering};

/// Length of the random per-message nonce, in bytes.
pub const NONCE_LEN: usize = 16;

/// Process-wide count of payload encryption operations (see
/// [`encrypt_call_count`]).
static ENCRYPT_CALLS: AtomicU64 = AtomicU64::new(0);

/// Process-wide count of payload decryption operations (see
/// [`decrypt_call_count`]).
static DECRYPT_CALLS: AtomicU64 = AtomicU64::new(0);

/// Number of [`StreamCipher`] encryption operations performed by this
/// process so far, across all threads.
///
/// Instrumentation for tests that pin *where* ciphertext is produced —
/// e.g. that a structural index merge copies ciphertext without
/// re-encrypting. Every encrypted message counts as one operation, exactly:
/// [`StreamCipher::encrypt`] and [`StreamCipher::encrypt_with_nonce`] add 1
/// per call (the randomized entry point delegates to the nonce-explicit
/// one, which counts), and [`StreamCipher::encrypt_list_to`] — the index
/// build's path, run by every worker thread at once — adds the length of
/// its list in one step when the list is done, so a count read while a
/// build is in flight misses the lists still being encrypted. The counter
/// is monotone and relaxed — read a delta around the region under test
/// rather than an absolute value.
pub fn encrypt_call_count() -> u64 {
    ENCRYPT_CALLS.load(Ordering::Relaxed)
}

/// Number of [`StreamCipher`] decryption operations performed by this
/// process so far, across all threads.
///
/// Counterpart of [`encrypt_call_count`]: [`StreamCipher::decrypt`] and
/// [`StreamCipher::decrypt_into`] each count as one operation, whether or
/// not the ciphertext turns out to be well-formed;
/// [`StreamCipher::decrypt_pair_into`] counts its two in one addition.
pub fn decrypt_call_count() -> u64 {
    DECRYPT_CALLS.load(Ordering::Relaxed)
}

/// Counter-mode stream cipher keyed by a PRF.
#[derive(Clone, Debug)]
pub struct StreamCipher {
    prf: Prf,
}

impl StreamCipher {
    /// Creates a cipher instance under `key`.
    pub fn new(key: &Key) -> Self {
        Self { prf: Prf::new(key) }
    }

    /// Encrypts `plaintext` with a fresh random nonce drawn from `rng`.
    ///
    /// The ciphertext layout is `nonce || (plaintext XOR keystream)`, so it
    /// is exactly `NONCE_LEN` bytes longer than the plaintext.
    pub fn encrypt<R: RngCore + CryptoRng>(&self, rng: &mut R, plaintext: &[u8]) -> Vec<u8> {
        let mut nonce = [0u8; NONCE_LEN];
        rng.fill_bytes(&mut nonce);
        self.encrypt_with_nonce(&nonce, plaintext)
    }

    /// Encrypts every plaintext of a list, each under a fresh nonce from
    /// `rng`, appending the ciphertexts back to back to `out` (no per-entry
    /// allocation — the hot path the arena-backed index builds on). Entry
    /// `i` occupies [`ciphertext_len`](Self::ciphertext_len) of its
    /// plaintext's length, after those of the entries before it.
    ///
    /// The whole list is one addition to [`encrypt_call_count`]: parallel
    /// builds run this on every core, and one shared counter bumped per
    /// entry is a cache line bouncing between them.
    pub fn encrypt_list_to<'a, R: RngCore + CryptoRng>(
        &self,
        rng: &mut R,
        plaintexts: impl Iterator<Item = &'a [u8]>,
        out: &mut Vec<u8>,
    ) {
        // Neighbours are encrypted two at a time: nonces are drawn and the
        // bytes laid down in list order, then both keystreams are applied
        // in one paired pass.
        let mut plaintexts = plaintexts;
        let mut encrypted = 0u64;
        let mut lay_down = |plaintext: &[u8], out: &mut Vec<u8>| {
            let mut nonce = [0u8; NONCE_LEN];
            rng.fill_bytes(&mut nonce);
            out.extend_from_slice(&nonce);
            out.extend_from_slice(plaintext);
            nonce
        };
        while let Some(first) = plaintexts.next() {
            let start = out.len();
            let nonce_a = lay_down(first, out);
            let Some(second) = plaintexts.next() else {
                xor_keystream(&self.prf, &nonce_a, &mut out[start + NONCE_LEN..], 0);
                encrypted += 1;
                break;
            };
            let middle = out.len();
            let nonce_b = lay_down(second, out);
            let (a, b) = out[start..].split_at_mut(middle - start);
            xor_keystream_pair(
                (&self.prf, &nonce_a, &mut a[NONCE_LEN..]),
                (&self.prf, &nonce_b, &mut b[NONCE_LEN..]),
            );
            encrypted += 2;
        }
        ENCRYPT_CALLS.fetch_add(encrypted, Ordering::Relaxed);
    }

    /// Deterministic encryption under an explicit nonce.
    ///
    /// Callers must never reuse a nonce under the same key for different
    /// plaintexts; the randomized [`encrypt`](Self::encrypt) is the default
    /// entry point and the schemes only use this variant in tests.
    pub fn encrypt_with_nonce(&self, nonce: &[u8; NONCE_LEN], plaintext: &[u8]) -> Vec<u8> {
        ENCRYPT_CALLS.fetch_add(1, Ordering::Relaxed);
        let mut out = Vec::with_capacity(NONCE_LEN + plaintext.len());
        out.extend_from_slice(nonce);
        out.extend_from_slice(plaintext);
        xor_keystream(&self.prf, nonce, &mut out[NONCE_LEN..], 0);
        out
    }

    /// Decrypts a ciphertext produced by [`encrypt`](Self::encrypt).
    ///
    /// Returns `None` if the ciphertext is too short to contain a nonce.
    pub fn decrypt(&self, ciphertext: &[u8]) -> Option<Vec<u8>> {
        let mut plain = Vec::new();
        self.decrypt_into(ciphertext, &mut plain).then_some(plain)
    }

    /// Buffer-reusing variant of [`decrypt`](Self::decrypt): writes the
    /// plaintext into `out` (cleared first) and returns `false` if the
    /// ciphertext is too short to contain a nonce.
    ///
    /// This is the batched-search hot path: a server answering a whole token
    /// vector decrypts thousands of entries with one scratch buffer instead
    /// of one heap allocation per entry.
    pub fn decrypt_into(&self, ciphertext: &[u8], out: &mut Vec<u8>) -> bool {
        DECRYPT_CALLS.fetch_add(1, Ordering::Relaxed);
        match lay_open(ciphertext, out) {
            Some(nonce) => {
                xor_keystream(&self.prf, &nonce, out, 0);
                true
            }
            None => false,
        }
    }

    /// Two [`decrypt_into`](Self::decrypt_into) calls at once — each of
    /// `a` and `b` is a cipher, a ciphertext under it and the buffer its
    /// plaintext goes to; the two results come back in that order. The
    /// keystream blocks of the two are evaluated in pairs, which is where a
    /// scan handing over a round of hits saves a quarter of its decryption
    /// time; plaintexts, results and the (single, `+2`) addition to
    /// [`decrypt_call_count`] are those of the two separate calls.
    pub fn decrypt_pair_into(
        a: (&StreamCipher, &[u8], &mut Vec<u8>),
        b: (&StreamCipher, &[u8], &mut Vec<u8>),
    ) -> (bool, bool) {
        DECRYPT_CALLS.fetch_add(2, Ordering::Relaxed);
        match (lay_open(a.1, a.2), lay_open(b.1, b.2)) {
            (Some(nonce_a), Some(nonce_b)) => {
                xor_keystream_pair((&a.0.prf, &nonce_a, a.2), (&b.0.prf, &nonce_b, b.2));
                (true, true)
            }
            (nonce_a, nonce_b) => {
                for (cipher, nonce, out) in [(a.0, &nonce_a, a.2), (b.0, &nonce_b, b.2)] {
                    if let Some(nonce) = nonce {
                        xor_keystream(&cipher.prf, nonce, out, 0);
                    }
                }
                (nonce_a.is_some(), nonce_b.is_some())
            }
        }
    }

    /// Ciphertext expansion for a plaintext of `len` bytes.
    pub fn ciphertext_len(len: usize) -> usize {
        len + NONCE_LEN
    }
}

/// Splits `ciphertext` for decryption: copies its body into `out` (cleared
/// first) and returns its nonce, or `None` — `out` untouched — if it is too
/// short to hold one.
fn lay_open(ciphertext: &[u8], out: &mut Vec<u8>) -> Option<[u8; NONCE_LEN]> {
    let (nonce, body) = ciphertext.split_first_chunk::<NONCE_LEN>()?;
    out.clear();
    out.extend_from_slice(body);
    Some(*nonce)
}

/// XORs keystream block `index` of `(prf, nonce)` — already evaluated into
/// `block` — over the `index`-th 32 bytes of `data`.
#[inline]
fn xor_block(data: &mut [u8], index: usize, block: &[u8; KEY_LEN]) {
    let chunk = &mut data[index * KEY_LEN..];
    for (byte, key) in chunk.iter_mut().zip(block) {
        *byte ^= key;
    }
}

/// XORs the keystream of `(prf, nonce)` over `data[first_block * 32..]`,
/// one block at a time.
fn xor_keystream(prf: &Prf, nonce: &[u8; NONCE_LEN], data: &mut [u8], first_block: usize) {
    let mut block = [0u8; KEY_LEN];
    for index in first_block..data.len().div_ceil(KEY_LEN) {
        prf.eval_parts_into(&[nonce, &(index as u64).to_le_bytes()], &mut block);
        xor_block(data, index, &block);
    }
}

/// [`xor_keystream`] over two messages at once: the blocks both have are
/// evaluated as pairs, what the longer one has beyond that singly.
fn xor_keystream_pair(
    a: (&Prf, &[u8; NONCE_LEN], &mut [u8]),
    b: (&Prf, &[u8; NONCE_LEN], &mut [u8]),
) {
    let (mut block_a, mut block_b) = ([0u8; KEY_LEN], [0u8; KEY_LEN]);
    let shared = a.2.len().min(b.2.len()).div_ceil(KEY_LEN);
    for index in 0..shared {
        let counter = (index as u64).to_le_bytes();
        Prf::eval_parts_pair_into(
            (a.0, &[a.1, &counter]),
            (b.0, &[b.1, &counter]),
            &mut block_a,
            &mut block_b,
        );
        xor_block(a.2, index, &block_a);
        xor_block(b.2, index, &block_b);
    }
    xor_keystream(a.0, a.1, a.2, shared);
    xor_keystream(b.0, b.1, b.2, shared);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha20Rng;

    fn cipher(byte: u8) -> StreamCipher {
        StreamCipher::new(&Key::from_bytes([byte; KEY_LEN]))
    }

    #[test]
    fn roundtrip_small_and_empty() {
        let c = cipher(1);
        let mut rng = ChaCha20Rng::seed_from_u64(1);
        for msg in [&b""[..], b"a", b"hello world", &[0u8; 100]] {
            let ct = c.encrypt(&mut rng, msg);
            assert_eq!(c.decrypt(&ct).unwrap(), msg);
            assert_eq!(ct.len(), StreamCipher::ciphertext_len(msg.len()));
        }
    }

    #[test]
    fn encryption_is_randomized() {
        let c = cipher(2);
        let mut rng = ChaCha20Rng::seed_from_u64(2);
        let a = c.encrypt(&mut rng, b"same message");
        let b = c.encrypt(&mut rng, b"same message");
        assert_ne!(a, b, "two encryptions of the same plaintext must differ");
    }

    #[test]
    fn wrong_key_garbles_plaintext() {
        let c1 = cipher(3);
        let c2 = cipher(4);
        let mut rng = ChaCha20Rng::seed_from_u64(3);
        let ct = c1.encrypt(&mut rng, b"secret value");
        let wrong = c2.decrypt(&ct).unwrap();
        assert_ne!(wrong, b"secret value");
    }

    #[test]
    fn too_short_ciphertext_is_rejected() {
        let c = cipher(5);
        assert!(c.decrypt(&[0u8; NONCE_LEN - 1]).is_none());
    }

    #[test]
    fn spans_multiple_keystream_blocks() {
        let c = cipher(6);
        let mut rng = ChaCha20Rng::seed_from_u64(6);
        let msg = vec![0xA5u8; 3 * KEY_LEN + 7];
        let ct = c.encrypt(&mut rng, &msg);
        assert_eq!(c.decrypt(&ct).unwrap(), msg);
    }

    #[test]
    fn decrypt_into_matches_decrypt_and_reuses_buffer() {
        let c = cipher(10);
        let mut rng = ChaCha20Rng::seed_from_u64(10);
        let mut scratch = Vec::new();
        for msg in [&b""[..], b"x", b"a longer message spanning blocks....."] {
            let ct = c.encrypt(&mut rng, msg);
            assert!(c.decrypt_into(&ct, &mut scratch));
            assert_eq!(scratch, c.decrypt(&ct).unwrap());
        }
        // Too-short ciphertexts are rejected without touching the contract.
        assert!(!c.decrypt_into(&[0u8; NONCE_LEN - 1], &mut scratch));
    }

    #[test]
    fn call_counters_track_every_entry_point_once() {
        let c = cipher(11);
        let mut rng = ChaCha20Rng::seed_from_u64(11);
        let (e0, d0) = (encrypt_call_count(), decrypt_call_count());
        let ct = c.encrypt(&mut rng, b"counted"); // delegates, counts once
        let mut buf = Vec::new();
        let list = [&b"counted"[..], b"per entry"];
        c.encrypt_list_to(&mut rng, list.into_iter(), &mut buf); // counts 2
        c.encrypt_with_nonce(&[1u8; NONCE_LEN], b"counted");
        // Other tests in this binary run concurrently and also encrypt, so
        // the deltas are lower bounds; the monotone >= checks still pin
        // that each entry point is counted.
        assert!(encrypt_call_count() >= e0 + 4);
        // A list lands back to back, each entry decryptable on its own.
        let first = StreamCipher::ciphertext_len(list[0].len());
        assert_eq!(
            buf.len(),
            first + StreamCipher::ciphertext_len(list[1].len())
        );
        assert_eq!(c.decrypt(&buf[..first]).unwrap(), list[0]);
        assert_eq!(c.decrypt(&buf[first..]).unwrap(), list[1]);
        c.decrypt(&ct).unwrap();
        c.decrypt_into(&ct, &mut buf);
        let mut other = Vec::new();
        StreamCipher::decrypt_pair_into((&c, &ct, &mut buf), (&c, &ct, &mut other)); // counts 2
        assert!(decrypt_call_count() >= d0 + 4);
    }

    #[test]
    fn pair_decrypt_equals_two_single_decrypts() {
        // Body lengths on both sides of a keystream block, unequal between
        // the lanes, under two keys; and a too-short ciphertext in either
        // lane, which must not disturb the other.
        let (c1, c2) = (cipher(12), cipher(13));
        let mut rng = ChaCha20Rng::seed_from_u64(12);
        let lengths = [0usize, 1, 8, 31, 32, 33, 64, 100];
        let short = [0u8; NONCE_LEN - 1];
        let (mut out_a, mut out_b) = (vec![7u8; 3], vec![7u8; 3]);
        for &len_a in &lengths {
            for &len_b in &lengths {
                let (msg_a, msg_b) = (vec![0x5Au8; len_a], vec![0xC3u8; len_b]);
                let (ct_a, ct_b) = (c1.encrypt(&mut rng, &msg_a), c2.encrypt(&mut rng, &msg_b));
                let ok = StreamCipher::decrypt_pair_into(
                    (&c1, &ct_a, &mut out_a),
                    (&c2, &ct_b, &mut out_b),
                );
                assert_eq!(ok, (true, true));
                assert_eq!(
                    (&out_a, &out_b),
                    (&msg_a, &msg_b),
                    "lengths {len_a}, {len_b}"
                );
            }
            let msg = vec![0x5Au8; len_a];
            let ct = c1.encrypt(&mut rng, &msg);
            out_b = b"kept".to_vec();
            let ok =
                StreamCipher::decrypt_pair_into((&c1, &ct, &mut out_a), (&c2, &short, &mut out_b));
            assert_eq!(
                (ok, &out_a, &out_b[..]),
                ((true, false), &msg, &b"kept"[..])
            );
            let ok =
                StreamCipher::decrypt_pair_into((&c2, &short, &mut out_b), (&c1, &ct, &mut out_a));
            assert_eq!(
                (ok, &out_a, &out_b[..]),
                ((false, true), &msg, &b"kept"[..])
            );
        }
    }

    #[test]
    fn list_encryption_is_entry_by_entry_encryption_under_the_same_nonce_stream() {
        // Odd and even list lengths, mixed plaintext lengths: the paired
        // pass must draw nonces and lay bytes down exactly as one
        // `encrypt_with_nonce` per entry does.
        let c = cipher(14);
        let plaintexts: Vec<Vec<u8>> = [8usize, 0, 40, 8, 33, 64, 1]
            .iter()
            .enumerate()
            .map(|(i, &len)| vec![i as u8; len])
            .collect();
        for take in 0..=plaintexts.len() {
            let list = &plaintexts[..take];
            let mut got = vec![0xFFu8; 5];
            let mut rng = ChaCha20Rng::seed_from_u64(14);
            c.encrypt_list_to(&mut rng, list.iter().map(Vec::as_slice), &mut got);
            let mut want = vec![0xFFu8; 5];
            let mut rng_single = ChaCha20Rng::seed_from_u64(14);
            for plaintext in list {
                let mut nonce = [0u8; NONCE_LEN];
                rng_single.fill_bytes(&mut nonce);
                want.extend_from_slice(&c.encrypt_with_nonce(&nonce, plaintext));
            }
            assert_eq!(got, want, "list of {take}");
            assert_eq!(
                rng.next_u64(),
                rng_single.next_u64(),
                "same RNG consumption"
            );
        }
    }

    /// Ciphertext computed before the MAC under the keystream PRF was
    /// rebuilt on raw compressions (PR 19's parent commit): 40 bytes span two
    /// keystream blocks, each a 40-byte PRF input.
    #[test]
    fn two_block_keystream_is_pinned() {
        let c = StreamCipher::new(&Key::from_bytes(std::array::from_fn(|i| i as u8)));
        let nonce: [u8; NONCE_LEN] = std::array::from_fn(|i| 0xa0 + i as u8);
        let plaintext: Vec<u8> = (0..40).collect();
        let hex: String = c
            .encrypt_with_nonce(&nonce, &plaintext)
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(
            hex,
            "a0a1a2a3a4a5a6a7a8a9aaabacadaeaf\
             1657e9cb7157d87692a82de74637ed8c07ba328b76bc73487699eaf36f65c114\
             8027bea2881e4823"
        );
    }

    #[test]
    fn nonce_reuse_is_deterministic() {
        let c = cipher(7);
        let nonce = [9u8; NONCE_LEN];
        assert_eq!(
            c.encrypt_with_nonce(&nonce, b"abc"),
            c.encrypt_with_nonce(&nonce, b"abc")
        );
    }

    proptest! {
        #[test]
        fn roundtrip_arbitrary(data in proptest::collection::vec(any::<u8>(), 0..512), seed in any::<u64>()) {
            let c = cipher(8);
            let mut rng = ChaCha20Rng::seed_from_u64(seed);
            let ct = c.encrypt(&mut rng, &data);
            prop_assert_eq!(c.decrypt(&ct).unwrap(), data);
        }

        #[test]
        fn ciphertext_hides_plaintext_prefix(data in proptest::collection::vec(any::<u8>(), 32..64)) {
            // The ciphertext body must not equal the plaintext (keystream is
            // never the all-zero string for a random key).
            let c = cipher(9);
            let mut rng = ChaCha20Rng::seed_from_u64(99);
            let ct = c.encrypt(&mut rng, &data);
            prop_assert_ne!(&ct[NONCE_LEN..], &data[..]);
        }
    }
}
