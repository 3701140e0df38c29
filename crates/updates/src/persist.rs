//! Owner-state persistence for the update manager.
//!
//! The durable footprint of an [`UpdateManager`](crate::UpdateManager) is:
//!
//! * one **`manager.meta`** manifest at the storage root — public
//!   bookkeeping (scheme kind and parameters, counters, the level table
//!   with per-instance sequence numbers and operation counts), serialized
//!   by [`manifest`](crate::manifest)'s `ManagerManifest` codec;
//! * one **`owner.meta`** sidecar per instance directory — the instance's
//!   identity plus an encrypted, authenticated payload holding the
//!   owner's secrets for that instance: the 32-byte **build seed** (from
//!   which the instance's whole key material re-derives) and the
//!   plaintext **update log** (the entries the instance indexes, needed
//!   for result refinement and future consolidations).
//!
//! This module implements the payload cryptography and codec. The payload
//! is encrypted with the workspace [`StreamCipher`] under a key derived
//! from the owner's master key and the instance's build number, then
//! authenticated encrypt-then-MAC with a PRF tag under an independently
//! derived key. A wrong master key, a bit flip, or a sidecar transplanted
//! from another instance all fail the tag check and surface as typed
//! [`StorageError`]s — recovery never acts on unauthenticated owner state.

use crate::batch::{UpdateEntry, UpdateOp};
use crate::manifest::OWNER_META_FILE;
use rsse_core::{Record, StorageError};
use rsse_crypto::{cipher::NONCE_LEN, Key, KeyChain, Prf, StreamCipher, KEY_LEN};
use rsse_sse::formats::{MetaReader, MetaWriter};
use std::path::Path;

/// Length of the per-instance build seed (a full ChaCha20 seed).
pub const SEED_LEN: usize = 32;

/// Bytes per serialized update entry: id + value + op tag.
const ENTRY_LEN: usize = 17;

/// Bytes per serialized structural entry: id + value + op tag + part index.
const STRUCTURAL_ENTRY_LEN: usize = 21;

/// The authentication tag is a full PRF output.
const TAG_LEN: usize = KEY_LEN;

/// Payload-kind tag of a plain (single-seed) instance.
const KIND_PLAIN: u8 = 0;

/// Payload-kind tag of a structurally merged (multi-part) instance.
const KIND_STRUCTURAL: u8 = 1;

/// The decrypted owner secrets of one instance, in either of the two
/// payload forms the kind byte selects.
#[derive(Clone, Debug, PartialEq, Eq)]
#[doc(hidden)]
pub enum OwnerPayload {
    /// A batch build or rebuild consolidation: one build seed replays the
    /// whole key material, and the update log is the entries the instance
    /// indexes.
    Plain {
        /// The instance's build seed.
        seed: [u8; SEED_LEN],
        /// The instance's update log.
        entries: Vec<UpdateEntry>,
    },
    /// A structural consolidation: one seed per flattened input part
    /// (each replays that part's client keys), and a **compacted** update
    /// log — the deduped latest-per-id surviving entries, each tagged with
    /// the part whose dictionary holds its authoritative copy. Raw update
    /// history is not retained, so the sidecar's size is bounded by the
    /// live-id count rather than the update count.
    Structural {
        /// One build seed per flattened part, in part order.
        seeds: Vec<[u8; SEED_LEN]>,
        /// Compacted `(entry, part index)` log, at most one entry per id.
        entries: Vec<(UpdateEntry, u32)>,
    },
}

/// Derives the payload encryption key for one instance.
fn payload_cipher(chain: &KeyChain, build_id: u64) -> StreamCipher {
    StreamCipher::new(&chain.derive_indexed(b"owner-meta-enc", build_id))
}

/// Derives the payload MAC for one instance.
fn payload_mac(chain: &KeyChain, build_id: u64) -> Prf {
    Prf::new(&chain.derive_indexed(b"owner-meta-mac", build_id))
}

/// Encodes one update operation as its one-byte wire tag.
fn op_tag(op: UpdateOp) -> u8 {
    match op {
        UpdateOp::Insert => 0,
        UpdateOp::Modify => 1,
        UpdateOp::Delete => 2,
    }
}

/// Encrypts and authenticates a serialized payload plaintext.
///
/// Keys are unique per `(master key, build id)` pair and the payload is
/// written exactly once per instance, so a fixed all-zero nonce is safe
/// and keeps the output deterministic.
fn seal(chain: &KeyChain, build_id: u64, plain: &[u8]) -> Vec<u8> {
    let mut sealed = payload_cipher(chain, build_id).encrypt_with_nonce(&[0u8; NONCE_LEN], plain);
    let tag = payload_mac(chain, build_id).eval(&sealed);
    sealed.extend_from_slice(&tag);
    sealed
}

/// The kind-0 payload plaintext: `0 ‖ seed ‖ count ‖ 17-byte entries`.
fn plain_plaintext(seed: &[u8; SEED_LEN], entries: &[UpdateEntry]) -> Vec<u8> {
    let mut plain = MetaWriter::body();
    plain.u8(KIND_PLAIN).bytes(seed).u64(entries.len() as u64);
    for entry in entries {
        plain
            .u64(entry.record.id)
            .u64(entry.record.value)
            .u8(op_tag(entry.op));
    }
    plain.into_bytes()
}

/// The kind-1 payload plaintext:
/// `1 ‖ part_count ‖ seeds ‖ entry_count ‖ 21-byte entries`.
fn structural_plaintext(seeds: &[[u8; SEED_LEN]], entries: &[(UpdateEntry, u32)]) -> Vec<u8> {
    let mut plain = MetaWriter::body();
    plain
        .u8(KIND_STRUCTURAL)
        .u32(u32::try_from(seeds.len()).expect("part count fits u32"));
    for seed in seeds {
        plain.bytes(seed);
    }
    plain.u64(entries.len() as u64);
    for (entry, part) in entries {
        debug_assert!((*part as usize) < seeds.len(), "part index out of range");
        plain
            .u64(entry.record.id)
            .u64(entry.record.value)
            .u8(op_tag(entry.op))
            .u32(*part);
    }
    plain.into_bytes()
}

/// Serializes, encrypts, and authenticates a plain instance's owner
/// secrets (`seed` + update log) into the opaque `owner.meta` payload
/// (kind byte `0`).
pub(crate) fn seal_plain_payload(
    chain: &KeyChain,
    build_id: u64,
    seed: &[u8; SEED_LEN],
    entries: &[UpdateEntry],
) -> Vec<u8> {
    seal(chain, build_id, &plain_plaintext(seed, entries))
}

/// Serializes, encrypts, and authenticates a structurally merged
/// instance's owner secrets (per-part seeds + compacted log) into the
/// opaque `owner.meta` payload (kind byte `1`).
///
/// `entries` must already be compacted — at most one entry per id, each
/// tagged with the flattened part index holding its authoritative copy —
/// which is what bounds the sidecar by live ids instead of raw history.
pub(crate) fn seal_structural_payload(
    chain: &KeyChain,
    build_id: u64,
    seeds: &[[u8; SEED_LEN]],
    entries: &[(UpdateEntry, u32)],
) -> Vec<u8> {
    seal(chain, build_id, &structural_plaintext(seeds, entries))
}

/// Decodes a one-byte wire tag back into an update operation.
fn op_from_tag(tag: u8) -> Option<UpdateOp> {
    match tag {
        0 => Some(UpdateOp::Insert),
        1 => Some(UpdateOp::Modify),
        2 => Some(UpdateOp::Delete),
        _ => None,
    }
}

/// Verifies and decrypts one instance's owner payload back into its
/// plaintext form — plain or structural, as its kind byte records.
///
/// # Errors
///
/// A failed tag check (wrong master key, tampering, or a sidecar copied
/// from a different instance) and every structural inconsistency surface
/// as typed [`StorageError`]s naming `dir`'s sidecar.
pub(crate) fn open_payload(
    chain: &KeyChain,
    build_id: u64,
    dir: &Path,
    payload: &[u8],
) -> Result<OwnerPayload, StorageError> {
    let path = dir.join(OWNER_META_FILE);
    let corrupt = |detail: String| StorageError::CorruptDirectory {
        path: path.clone(),
        detail,
    };
    if payload.len() < TAG_LEN + NONCE_LEN {
        return Err(corrupt(format!(
            "owner payload of {} bytes is shorter than nonce + tag",
            payload.len()
        )));
    }
    let (sealed, tag) = payload.split_at(payload.len() - TAG_LEN);
    let expected = payload_mac(chain, build_id).eval(sealed);
    // Not constant-time; the comparison guards the owner's own local state
    // against corruption, not a remote oracle.
    if tag != expected {
        return Err(corrupt(
            "owner payload failed authentication — wrong owner key, tampered \
             sidecar, or a sidecar copied from another instance"
                .to_string(),
        ));
    }
    let plain = payload_cipher(chain, build_id)
        .decrypt(sealed)
        .ok_or_else(|| corrupt("owner payload shorter than its nonce".to_string()))?;
    OwnerPayload::from_plaintext(&path, &plain)
}

impl OwnerPayload {
    /// Decodes a payload plaintext (the kind byte and the body it selects).
    /// `path` names the sidecar in errors. Public for the
    /// decoder-robustness battery only, like
    /// [`to_plaintext`](Self::to_plaintext).
    #[doc(hidden)]
    pub fn from_plaintext(path: &Path, plain: &[u8]) -> Result<Self, StorageError> {
        let mut body = MetaReader::body(path, plain);
        match body.u8()? {
            KIND_PLAIN => {
                let seed = body.array()?;
                let rows = entry_rows(&mut body, ENTRY_LEN)?;
                let mut entries = Vec::with_capacity(rows.len() / ENTRY_LEN);
                for row in rows.chunks_exact(ENTRY_LEN) {
                    entries.push(decode_entry(&body, row)?);
                }
                Ok(OwnerPayload::Plain { seed, entries })
            }
            KIND_STRUCTURAL => {
                let part_count = body.u32()?;
                if part_count == 0 {
                    return Err(body.corrupt("structural owner payload with zero parts".into()));
                }
                let seeds = (0..body.rows(u64::from(part_count), SEED_LEN)?)
                    .map(|_| body.array())
                    .collect::<Result<Vec<[u8; SEED_LEN]>, _>>()?;
                let rows = entry_rows(&mut body, STRUCTURAL_ENTRY_LEN)?;
                let mut entries = Vec::with_capacity(rows.len() / STRUCTURAL_ENTRY_LEN);
                for row in rows.chunks_exact(STRUCTURAL_ENTRY_LEN) {
                    let (entry, part) = row.split_at(ENTRY_LEN);
                    let part = u32::from_le_bytes(part.try_into().expect("4 bytes"));
                    if part >= part_count {
                        return Err(body.corrupt(format!(
                            "structural owner payload entry names part {part} of {part_count}"
                        )));
                    }
                    entries.push((decode_entry(&body, entry)?, part));
                }
                Ok(OwnerPayload::Structural { seeds, entries })
            }
            other => Err(body.corrupt(format!("unknown owner-payload kind {other}"))),
        }
    }

    /// The plaintext [`from_plaintext`](Self::from_plaintext) decodes.
    #[doc(hidden)]
    pub fn to_plaintext(&self) -> Vec<u8> {
        match self {
            OwnerPayload::Plain { seed, entries } => plain_plaintext(seed, entries),
            OwnerPayload::Structural { seeds, entries } => structural_plaintext(seeds, entries),
        }
    }
}

/// The bulk entry table closing both payload bodies: a count, then that
/// many `row_len`-byte rows and nothing after them. The cursor validates
/// the one length; the caller walks the rows with `chunks_exact`.
fn entry_rows<'a>(body: &mut MetaReader<'a>, row_len: usize) -> Result<&'a [u8], StorageError> {
    let count = body.u64()?;
    let rows = body.bytes(body.rows(count, row_len)? * row_len)?;
    body.finish()?;
    Ok(rows)
}

/// Decodes the 17 bytes every entry row starts with: id, value, op tag.
fn decode_entry(body: &MetaReader<'_>, row: &[u8]) -> Result<UpdateEntry, StorageError> {
    let id = u64::from_le_bytes(row[..8].try_into().expect("8 bytes"));
    let value = u64::from_le_bytes(row[8..16].try_into().expect("8 bytes"));
    let op = op_from_tag(row[16])
        .ok_or_else(|| body.corrupt(format!("unknown update-op tag {}", row[16])))?;
    Ok(UpdateEntry {
        record: Record::new(id, value),
        op,
    })
}

/// The owner's master key: the single secret from which every durable
/// manager state re-derives — payload encryption and MAC keys per
/// instance. Losing it orphans the storage root (the encrypted indexes
/// stay intact but the owner can no longer interpret them); it should be
/// stored like any other long-term symmetric key.
pub type OwnerKey = Key;

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha20Rng;

    fn chain() -> KeyChain {
        KeyChain::new(Key::from_bytes([7u8; KEY_LEN]))
    }

    #[test]
    fn payload_round_trips() {
        let seed = [42u8; SEED_LEN];
        let entries = vec![
            UpdateEntry::insert(1, 10),
            UpdateEntry::modify(2, 20),
            UpdateEntry::delete(3, 30),
        ];
        let sealed = seal_plain_payload(&chain(), 5, &seed, &entries);
        let payload = open_payload(&chain(), 5, Path::new("/x"), &sealed).expect("round trip");
        assert_eq!(payload, OwnerPayload::Plain { seed, entries });
    }

    #[test]
    fn structural_payload_round_trips() {
        let seeds = vec![[1u8; SEED_LEN], [2u8; SEED_LEN], [3u8; SEED_LEN]];
        let entries = vec![
            (UpdateEntry::insert(1, 10), 0u32),
            (UpdateEntry::modify(2, 20), 2),
            (UpdateEntry::delete(3, 30), 1),
        ];
        let sealed = seal_structural_payload(&chain(), 8, &seeds, &entries);
        let payload = open_payload(&chain(), 8, Path::new("/x"), &sealed).expect("round trip");
        assert_eq!(payload, OwnerPayload::Structural { seeds, entries });
    }

    #[test]
    fn structural_payload_rejects_out_of_range_part_and_zero_parts() {
        // A part index past the seed table must be rejected on read even if
        // the payload authenticates (defense against encoder bugs).
        let seeds = vec![[1u8; SEED_LEN]];
        let entries = vec![(UpdateEntry::insert(1, 1), 0u32)];
        let sealed = seal_structural_payload(&chain(), 2, &seeds, &entries);
        // Rewriting bytes would fail the MAC, so exercise the decoder
        // directly through a hand-built body instead.
        let mut body = vec![KIND_STRUCTURAL];
        body.extend_from_slice(&1u32.to_le_bytes());
        body.extend_from_slice(&[1u8; SEED_LEN]);
        body.extend_from_slice(&1u64.to_le_bytes());
        body.extend_from_slice(&1u64.to_le_bytes());
        body.extend_from_slice(&1u64.to_le_bytes());
        body.push(0);
        body.extend_from_slice(&7u32.to_le_bytes()); // part 7 of 1
        assert!(matches!(
            OwnerPayload::from_plaintext(Path::new("/x"), &body),
            Err(StorageError::CorruptDirectory { .. })
        ));
        let mut zero_parts = vec![KIND_STRUCTURAL];
        zero_parts.extend_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            OwnerPayload::from_plaintext(Path::new("/x"), &zero_parts),
            Err(StorageError::CorruptDirectory { .. })
        ));
        // The untampered sealed payload still opens.
        assert!(open_payload(&chain(), 2, Path::new("/x"), &sealed).is_ok());
    }

    /// Randomized compaction property: for any raw update log, the
    /// compacted structural payload (deduped latest-per-id, tagged with an
    /// arbitrary part) round-trips to exactly the state a full replay of
    /// the raw log reaches, and its sealed size is bounded by the live-id
    /// count — never by the raw log's length.
    #[test]
    fn compacted_payload_replays_like_the_raw_log_and_stays_live_bounded() {
        use rand::Rng;
        use std::collections::BTreeMap;
        for seed in 0..8u64 {
            let mut rng = ChaCha20Rng::seed_from_u64(900 + seed);
            let raw_len = 200 + (seed as usize) * 50;
            let mut raw: Vec<UpdateEntry> = Vec::with_capacity(raw_len);
            for _ in 0..raw_len {
                // A small id space forces heavy per-id churn.
                let id = rng.gen_range(0..24u64);
                let value = rng.gen_range(0..1_000u64);
                raw.push(match rng.gen_range(0..3u32) {
                    0 => UpdateEntry::insert(id, value),
                    1 => UpdateEntry::modify(id, value),
                    _ => UpdateEntry::delete(id, value),
                });
            }
            // Replaying the raw log in order is the reference owner state.
            let mut replayed: BTreeMap<u64, UpdateEntry> = BTreeMap::new();
            for entry in &raw {
                replayed.insert(entry.record.id, *entry);
            }
            // The compaction: latest entry per id, each tagged with some
            // part (the tag is opaque to the codec).
            let seeds = vec![[9u8; SEED_LEN], [11u8; SEED_LEN]];
            let compacted: Vec<(UpdateEntry, u32)> = replayed
                .values()
                .map(|entry| (*entry, (entry.record.id % 2) as u32))
                .collect();
            let sealed = seal_structural_payload(&chain(), seed, &seeds, &compacted);
            let payload =
                open_payload(&chain(), seed, Path::new("/x"), &sealed).expect("round trip");
            let OwnerPayload::Structural { entries, .. } = payload else {
                panic!("kind byte must select the structural form");
            };
            // Replaying the opened payload reaches the raw log's state.
            let mut from_payload: BTreeMap<u64, UpdateEntry> = BTreeMap::new();
            for (entry, _) in &entries {
                from_payload.insert(entry.record.id, *entry);
            }
            assert_eq!(from_payload, replayed, "seed {seed}");
            // Size bound: live ids dictate the size, not the raw length.
            let live = replayed.len() as u64;
            let fixed = 1 + 4 + (seeds.len() as u64) * SEED_LEN as u64 + 8 + TAG_LEN as u64 + 16;
            assert!(
                (sealed.len() as u64) <= fixed + live * STRUCTURAL_ENTRY_LEN as u64,
                "seed {seed}: sealed {} bytes for {live} live ids",
                sealed.len()
            );
            assert!((sealed.len() as u64) < (raw.len() as u64) * ENTRY_LEN as u64 / 2);
        }
    }

    #[test]
    fn wrong_key_fails_authentication() {
        let sealed =
            seal_plain_payload(&chain(), 1, &[1u8; SEED_LEN], &[UpdateEntry::insert(1, 1)]);
        let mut rng = ChaCha20Rng::seed_from_u64(9);
        let other = KeyChain::generate(&mut rng);
        let err = open_payload(&other, 1, Path::new("/x"), &sealed).expect_err("must fail");
        assert!(matches!(err, StorageError::CorruptDirectory { .. }));
    }

    #[test]
    fn wrong_build_id_fails_authentication() {
        // A sidecar transplanted into another instance's directory must not
        // authenticate: the MAC key is bound to the build id.
        let sealed = seal_plain_payload(&chain(), 1, &[1u8; SEED_LEN], &[]);
        assert!(open_payload(&chain(), 2, Path::new("/x"), &sealed).is_err());
    }

    #[test]
    fn bit_flips_fail_authentication() {
        let mut sealed =
            seal_plain_payload(&chain(), 3, &[9u8; SEED_LEN], &[UpdateEntry::insert(4, 4)]);
        for at in [0, sealed.len() / 2, sealed.len() - 1] {
            sealed[at] ^= 1;
            assert!(
                open_payload(&chain(), 3, Path::new("/x"), &sealed).is_err(),
                "flip at {at} must fail"
            );
            sealed[at] ^= 1;
        }
        assert!(open_payload(&chain(), 3, Path::new("/x"), &sealed).is_ok());
    }
}
