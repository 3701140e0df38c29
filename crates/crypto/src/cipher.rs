//! Semantically secure symmetric encryption.
//!
//! The schemes need a probabilistic (IND-CPA secure) cipher for two jobs:
//! encrypting the per-document payloads stored in the SSE index, and
//! encrypting the owner's own state before it goes to disk. The paper uses
//! AES-128-CBC; [`StreamCipher`] is AES-256 in counter mode (NIST SP
//! 800-38A §6.5) on the vendored `aes` crate, whose AES-NI kernel runs
//! wherever the CPU has it.
//!
//! A ciphertext is `nonce ‖ body`. The 16-byte nonce is the initial
//! counter block; keystream block `i` is `AES_K(nonce + i)`, the counter
//! incremented as a big-endian 128-bit integer (SP 800-38A's standard
//! incrementing function on the whole block); the body is the plaintext
//! XOR the keystream, cut to the plaintext's length.
//!
//! Security is the textbook counter-mode argument. Counter mode under a
//! random function is IND-CPA as long as no two messages use the same
//! counter block, which for `q` random nonces and messages of at most `ℓ`
//! blocks fails with probability at most `q²ℓ / 2¹²⁸`. AES is a PRP; by the
//! PRP/PRF switching lemma it is indistinguishable from a random function
//! up to `σ² / 2¹²⁹` over the `σ` blocks encrypted under one key, and
//! by the PRP assumption otherwise. Every payload key encrypts one keyword's
//! list, so both terms stay negligible.
//!
//! An 8-byte tuple id — the payload of every index entry — is one block:
//! one AES encryption. Blocks do not wait on each other, so they are
//! encrypted two at a time on the interleaved kernel
//! (`aes::encrypt_pair`): two hits of a scan
//! ([`StreamCipher::decrypt_pair_into`]), two neighbours of a list being
//! built ([`StreamCipher::encrypt_list_to`]), and two consecutive blocks of
//! one longer message, bytes unchanged.
//!
//! The two process-wide call counters below are instrumentation, not part
//! of the cipher: see [`encrypt_call_count`] for where each entry point's
//! count lands.

use crate::prf::Key;
use aes::{encrypt_pair, Aes256, Block, BLOCK_LEN};
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

/// AES-256 in counter mode: the 32-byte [`Key`] is the AES key as is.
#[derive(Clone, Debug)]
pub struct StreamCipher {
    aes: Aes256,
}

impl StreamCipher {
    /// Creates a cipher instance under `key` (runs the AES key schedule).
    pub fn new(key: &Key) -> Self {
        Self {
            aes: Aes256::new(key.as_bytes()),
        }
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
        // Neighbours are encrypted two at a time: nonces are drawn in list
        // order, the first body goes straight to `out`, the second through
        // a reused buffer, since it lands after the first one's end.
        let mut plaintexts = plaintexts;
        let mut encrypted = 0u64;
        let mut draw_nonce = || {
            let mut nonce = [0u8; NONCE_LEN];
            rng.fill_bytes(&mut nonce);
            nonce
        };
        let mut second_body = Vec::new();
        while let Some(first) = plaintexts.next() {
            let nonce_a = draw_nonce();
            out.extend_from_slice(&nonce_a);
            let Some(second) = plaintexts.next() else {
                append_keystream(&self.aes, &nonce_a, 0, first, out);
                encrypted += 1;
                break;
            };
            let nonce_b = draw_nonce();
            second_body.clear();
            append_keystream_pair(
                (&self.aes, &nonce_a, first, out),
                (&self.aes, &nonce_b, second, &mut second_body),
            );
            out.extend_from_slice(&nonce_b);
            out.extend_from_slice(&second_body);
            encrypted += 2;
        }
        ENCRYPT_CALLS.fetch_add(encrypted, Ordering::Relaxed);
    }

    /// Deterministic encryption under an explicit nonce.
    ///
    /// Callers must never reuse a nonce under the same key for different
    /// plaintexts; the randomized [`encrypt`](Self::encrypt) is the default
    /// entry point. The update manager's owner sidecar uses this variant
    /// with an all-zero nonce, under a key that encrypts exactly one
    /// message.
    pub fn encrypt_with_nonce(&self, nonce: &[u8; NONCE_LEN], plaintext: &[u8]) -> Vec<u8> {
        ENCRYPT_CALLS.fetch_add(1, Ordering::Relaxed);
        let mut out = Vec::with_capacity(NONCE_LEN + plaintext.len());
        out.extend_from_slice(nonce);
        append_keystream(&self.aes, nonce, 0, plaintext, &mut out);
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
    /// of one heap allocation per entry. It is inlined into the caller's
    /// loop, as is [`decrypt_pair_into`](Self::decrypt_pair_into): called
    /// out of line, an 8-byte id took ≈ 50 ns where inlined it takes ≈ 12
    /// (a microbenchmark over cached ciphertexts on a 2-vCPU AES-NI host).
    #[inline]
    pub fn decrypt_into(&self, ciphertext: &[u8], out: &mut Vec<u8>) -> bool {
        DECRYPT_CALLS.fetch_add(1, Ordering::Relaxed);
        let Some((nonce, body)) = ciphertext.split_first_chunk() else {
            return false;
        };
        out.clear();
        append_keystream(&self.aes, nonce, 0, body, out);
        true
    }

    /// Two [`decrypt_into`](Self::decrypt_into) calls at once — each of
    /// `a` and `b` is a cipher, a ciphertext under it and the buffer its
    /// plaintext goes to; the two results come back in that order. The
    /// keystream blocks of the two are encrypted in pairs, which is where a
    /// scan handing over a round of hits saves almost half of its
    /// decryption time; plaintexts, results and the (single, `+2`) addition to
    /// [`decrypt_call_count`] are those of the two separate calls.
    #[inline]
    pub fn decrypt_pair_into(
        a: (&StreamCipher, &[u8], &mut Vec<u8>),
        b: (&StreamCipher, &[u8], &mut Vec<u8>),
    ) -> (bool, bool) {
        DECRYPT_CALLS.fetch_add(2, Ordering::Relaxed);
        match (a.1.split_first_chunk(), b.1.split_first_chunk()) {
            (Some((nonce_a, body_a)), Some((nonce_b, body_b))) => {
                a.2.clear();
                b.2.clear();
                append_keystream_pair(
                    (&a.0.aes, nonce_a, body_a, a.2),
                    (&b.0.aes, nonce_b, body_b, b.2),
                );
                (true, true)
            }
            (split_a, split_b) => {
                for (cipher, split, out) in [(a.0, split_a, a.2), (b.0, split_b, b.2)] {
                    if let Some((nonce, body)) = split {
                        out.clear();
                        append_keystream(&cipher.aes, nonce, 0, body, out);
                    }
                }
                (split_a.is_some(), split_b.is_some())
            }
        }
    }

    /// Ciphertext expansion for a plaintext of `len` bytes.
    pub fn ciphertext_len(len: usize) -> usize {
        len + NONCE_LEN
    }
}

/// Counter block `index` of the message whose initial counter block is
/// `nonce`: the two as big-endian 128-bit integers, added modulo 2¹²⁸.
#[inline]
fn counter_block(nonce: &[u8; NONCE_LEN], index: usize) -> Block {
    u128::from_be_bytes(*nonce)
        .wrapping_add(index as u128)
        .to_be_bytes()
}

/// Appends `input` (at most one block) XOR `keystream` to `out`. The sum
/// is formed in a block on the stack and appended: copying the ciphertext
/// into `out` first and XORing it there in place measured ≈ 3× slower per
/// 8-byte id.
#[inline]
fn append_xor(out: &mut Vec<u8>, input: &[u8], keystream: Block) {
    let mut block = [0u8; BLOCK_LEN];
    block[..input.len()].copy_from_slice(input);
    let sum = (u128::from_ne_bytes(block) ^ u128::from_ne_bytes(keystream)).to_ne_bytes();
    out.extend_from_slice(&sum[..input.len()]);
}

/// Appends `input` XOR the keystream of `(aes, nonce)` from block
/// `first_block` on to `out`, two blocks at a time.
#[inline]
fn append_keystream(
    aes: &Aes256,
    nonce: &[u8; NONCE_LEN],
    first_block: usize,
    input: &[u8],
    out: &mut Vec<u8>,
) {
    let mut index = first_block;
    let mut blocks = input.chunks(BLOCK_LEN);
    while let Some(a) = blocks.next() {
        let Some(b) = blocks.next() else {
            append_xor(out, a, aes.encrypt_block(counter_block(nonce, index)));
            break;
        };
        let (key_a, key_b) = encrypt_pair(
            aes,
            counter_block(nonce, index),
            aes,
            counter_block(nonce, index + 1),
        );
        append_xor(out, a, key_a);
        append_xor(out, b, key_b);
        index += 2;
    }
}

/// [`append_keystream`] for two messages at once, each to its own buffer:
/// the blocks both have are encrypted as pairs across the two, what the
/// longer one has beyond that two at a time on its own.
#[inline]
fn append_keystream_pair(
    a: (&Aes256, &[u8; NONCE_LEN], &[u8], &mut Vec<u8>),
    b: (&Aes256, &[u8; NONCE_LEN], &[u8], &mut Vec<u8>),
) {
    let shared = a.2.len().min(b.2.len()).div_ceil(BLOCK_LEN);
    let (head_a, tail_a) = a.2.split_at((shared * BLOCK_LEN).min(a.2.len()));
    let (head_b, tail_b) = b.2.split_at((shared * BLOCK_LEN).min(b.2.len()));
    let blocks = head_a.chunks(BLOCK_LEN).zip(head_b.chunks(BLOCK_LEN));
    for (index, (block_a, block_b)) in blocks.enumerate() {
        let (key_a, key_b) = encrypt_pair(
            a.0,
            counter_block(a.1, index),
            b.0,
            counter_block(b.1, index),
        );
        append_xor(a.3, block_a, key_a);
        append_xor(b.3, block_b, key_b);
    }
    append_keystream(a.0, a.1, shared, tail_a, a.3);
    append_keystream(b.0, b.1, shared, tail_b, b.3);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prf::KEY_LEN;
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
        let lengths = [0usize, 1, 8, 15, 16, 17, 31, 32, 33, 40, 64, 100];
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

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn unhex<const N: usize>(hex: &str) -> [u8; N] {
        let hex: Vec<u8> = hex.bytes().filter(u8::is_ascii_hexdigit).collect();
        assert_eq!(hex.len(), 2 * N);
        std::array::from_fn(|i| {
            u8::from_str_radix(std::str::from_utf8(&hex[2 * i..2 * i + 2]).unwrap(), 16).unwrap()
        })
    }

    /// NIST SP 800-38A Appendix F.5.5, CTR-AES256.Encrypt: four blocks
    /// from the initial counter block `f0f1…feff`.
    #[test]
    fn nist_sp_800_38a_f5_5_ctr_aes256() {
        let c = StreamCipher::new(&Key::from_bytes(unhex(
            "603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4",
        )));
        let nonce: [u8; NONCE_LEN] = unhex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff");
        let plaintext: [u8; 64] = unhex(
            "6bc1bee22e409f96e93d7e117393172a ae2d8a571e03ac9c9eb76fac45af8e51 \
             30c81c46a35ce411e5fbc1191a0a52ef f69f2445df4f9b17ad2b417be66c3710",
        );
        let body = "601ec313775789a5b7a7f504bbf3d228f443e3ca4d62b59aca84e990cacaf5c5\
                    2b0930daa23de94ce87017ba2d84988ddfc9c58db67aada613c2dd08457941a6";
        let ciphertext = c.encrypt_with_nonce(&nonce, &plaintext);
        assert_eq!(hex(&ciphertext[..NONCE_LEN]), hex(&nonce));
        assert_eq!(hex(&ciphertext[NONCE_LEN..]), body);
        assert_eq!(c.decrypt(&ciphertext).unwrap(), plaintext);
    }

    /// A 40-byte message — an SRC-i span's length, three keystream blocks,
    /// the last one cut — pinned when the cipher became AES-256-CTR, and
    /// equal to `openssl enc -aes-256-ctr` on the same key, nonce and bytes.
    #[test]
    fn ctr_keystream_is_pinned() {
        let c = StreamCipher::new(&Key::from_bytes(std::array::from_fn(|i| i as u8)));
        let nonce: [u8; NONCE_LEN] = std::array::from_fn(|i| 0xa0 + i as u8);
        let plaintext: Vec<u8> = (0..40).collect();
        assert_eq!(
            hex(&c.encrypt_with_nonce(&nonce, &plaintext)),
            "a0a1a2a3a4a5a6a7a8a9aaabacadaeaf\
             dc9e03fe72bd7a0a0742e28e0706e2eff1c0f9026854833ff493e2917b2dcd80\
             b9cac681cc42bf2d"
        );
    }

    /// The counter is one 128-bit big-endian integer: incrementing a
    /// nonce whose low 64 bits are all ones carries into the high half,
    /// and `ff…ff` wraps to zero.
    #[test]
    fn counter_carries_across_the_whole_block() {
        let key = Key::from_bytes([0x42; KEY_LEN]);
        let (c, aes) = (StreamCipher::new(&key), Aes256::new(key.as_bytes()));
        for (nonce, next) in [
            (
                "0000000000000000ffffffffffffffff",
                "00000000000000010000000000000000",
            ),
            (
                "ffffffffffffffffffffffffffffffff",
                "00000000000000000000000000000000",
            ),
        ] {
            let nonce: [u8; NONCE_LEN] = unhex(nonce);
            let keystream = &c.encrypt_with_nonce(&nonce, &[0u8; 2 * BLOCK_LEN])[NONCE_LEN..];
            assert_eq!(keystream[..BLOCK_LEN], aes.encrypt_block(nonce));
            assert_eq!(keystream[BLOCK_LEN..], aes.encrypt_block(unhex(next)));
        }
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
