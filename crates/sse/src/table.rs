//! The label table: the `label → (offset, len)` directory under both
//! backends — the in-memory arena of [`EncryptedIndex`](crate::EncryptedIndex)
//! and the resident directory of a [`FileShard`](crate::FileShard).
//!
//! A flat open-addressing table: an array of 24-byte slots
//! `(label, (offset, len))` beside an array of one-byte tags, searched by
//! linear probing that wraps at the last slot. It is sized to its load:
//! the least slot count that holds its entries at a load of at most 3/4,
//! `⌈4n/3⌉`. A label's 7-bit tag is the top bits of one fixed mix of its
//! two 8-byte halves, and its home slot a multiply-shift of the bits below
//! them onto the slot count, so tag and home are independent and a probe's
//! first slot is known before any memory is read — which is what lets
//! [`prefetch`](LabelTable::prefetch) touch it ahead of the probe.
//! A hit is usually one tag byte and one slot. A miss ends at the first
//! empty tag: slots whose tag differs are never compared, so a closing
//! miss reads the tag array alone, as hashbrown decides one from its
//! control bytes.
//!
//! No keyed hash is needed. Labels are truncated PRF outputs the owner
//! computes under a secret key, so they are indistinguishable from
//! uniform and no party in the protocol can choose one to collide (an
//! adversarial writer is outside the paper's model: the owner is the only
//! writer). Their bits already are an address. The mix takes both halves
//! because the top bits of the first half are the shard prefix, which is
//! constant within a shard.

use crate::pibas::{Label, LABEL_LEN};
use std::fmt;

/// A stored entry's `(offset, len)` within its ciphertext region.
pub(crate) type Span = (u32, u32);

/// Tag of an empty slot. Occupied tags have their top bit set, so no
/// label's tag is ever 0.
const EMPTY: u8 = 0;

/// Bytes one slot costs: its tag and its `(label, span)`.
const SLOT_BYTES: usize = 1 + std::mem::size_of::<(Label, Span)>();

/// Folded multiply of `x` by a fixed odd constant (the 64-bit golden
/// ratio): the high and low halves of the 128-bit product, XORed, so every
/// output bit depends on every input bit.
#[inline]
fn fold_mix(x: u64) -> u64 {
    let product = u128::from(x) * 0x9E37_79B9_7F4A_7C15;
    (product as u64) ^ ((product >> 64) as u64)
}

/// The mix of both label halves: the top seven bits are the tag, the bits
/// below them pick the home slot.
#[inline]
fn label_hash(label: &Label) -> u64 {
    let (first, second) = label.split_at(LABEL_LEN / 2);
    let half = |bytes: &[u8]| u64::from_le_bytes(bytes.try_into().expect("8-byte half"));
    fold_mix(half(first) ^ half(second))
}

/// The occupied tag of a label hash: its top seven bits, top bit set.
#[inline]
fn tag_of(hash: u64) -> u8 {
    0x80 | (hash >> 57) as u8
}

/// Slots of a table holding `entries` at a load of at most 3/4: the least
/// such count, and at least one.
fn slots_for(entries: usize) -> usize {
    (entries * 4).div_ceil(3).max(1)
}

/// The home slot of `hash` in a table of `slots` slots: the 57 hash bits
/// below the tag, read as a fraction of 2^64 and scaled onto the slots.
#[inline]
fn home_of(hash: u64, slots: usize) -> usize {
    ((u128::from(hash << 7) * slots as u128) >> 64) as usize
}

/// The flat tagged `label → span` table (see the module docs).
#[derive(Clone)]
pub(crate) struct LabelTable {
    /// One tag per slot: [`EMPTY`] or the occupant's [`tag_of`].
    tags: Box<[u8]>,
    /// `(label, span)` per slot; meaningful only where the tag is set.
    slots: Box<[(Label, Span)]>,
    /// Occupied slots.
    len: usize,
}

impl LabelTable {
    /// An empty table sized once for `entries`: the least slot count that
    /// holds them at a load of at most 3/4, `⌈4/3 · entries⌉` (at least
    /// one), so filling it never rehashes.
    pub(crate) fn with_capacity(entries: usize) -> Self {
        Self::with_slots(slots_for(entries))
    }

    /// An empty table of `slots` slots, at least one.
    fn with_slots(slots: usize) -> Self {
        Self {
            tags: vec![EMPTY; slots].into_boxed_slice(),
            slots: vec![([0; LABEL_LEN], (0, 0)); slots].into_boxed_slice(),
            len: 0,
        }
    }

    /// Number of stored labels.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Whether no label is stored.
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes the table holds allocated: a tag and a slot per slot.
    pub(crate) fn allocated_bytes(&self) -> usize {
        self.tags.len() * SLOT_BYTES
    }

    /// The slot holding `label` (`Ok`), or the empty slot that ends its
    /// walk (`Err`). The walk from the home slot compares a label only
    /// where its tag matches, and stops at the first empty slot; the load
    /// bound guarantees there is one.
    #[inline]
    fn locate(&self, label: &Label) -> Result<usize, usize> {
        let hash = label_hash(label);
        let tag = tag_of(hash);
        let slots = self.tags.len();
        let mut at = home_of(hash, slots);
        loop {
            match self.tags[at] {
                EMPTY => return Err(at),
                occupied if occupied == tag && self.slots[at].0 == *label => return Ok(at),
                _ => at = if at + 1 == slots { 0 } else { at + 1 },
            }
        }
    }

    /// The span stored under `label`.
    #[inline]
    pub(crate) fn get(&self, label: &Label) -> Option<&Span> {
        self.locate(label).ok().map(|at| &self.slots[at].1)
    }

    /// The span stored under `label`, mutably (tests damage entries
    /// through it).
    #[cfg(test)]
    pub(crate) fn get_mut(&mut self, label: &Label) -> Option<&mut Span> {
        self.locate(label).ok().map(|at| &mut self.slots[at].1)
    }

    /// Stores `span` under `label`, returning the span it replaces if the
    /// label was already stored. An insert that could pass the 3/4 load
    /// bound doubles the table first; a table sized by
    /// [`with_capacity`](Self::with_capacity) for what it receives never
    /// does.
    pub(crate) fn insert(&mut self, label: Label, span: Span) -> Option<Span> {
        if (self.len + 1) * 4 > self.tags.len() * 3 {
            self.grow();
        }
        match self.locate(&label) {
            Ok(at) => Some(std::mem::replace(&mut self.slots[at].1, span)),
            Err(at) => {
                self.tags[at] = tag_of(label_hash(&label));
                self.slots[at] = (label, span);
                self.len += 1;
                None
            }
        }
    }

    /// Doubles the slot count and re-inserts every entry.
    fn grow(&mut self) {
        let mut grown = Self::with_slots(self.tags.len() * 2);
        for (label, span) in self.iter() {
            grown.insert(*label, *span);
        }
        *self = grown;
    }

    /// Loads `label`'s home tag and slot — the memory its probe reads
    /// first — so a probe issued shortly after finds them cached. A hint:
    /// it changes nothing and returns nothing.
    #[inline]
    pub(crate) fn prefetch(&self, label: &Label) {
        let at = home_of(label_hash(label), self.tags.len());
        std::hint::black_box((self.tags[at], self.slots[at]));
    }

    /// The stored `(label, span)` pairs, in slot order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&Label, &Span)> {
        self.tags
            .iter()
            .zip(self.slots.iter())
            .filter(|(&tag, _)| tag != EMPTY)
            .map(|(_, (label, span))| (label, span))
    }

    /// The stored labels, in slot order.
    pub(crate) fn keys(&self) -> impl Iterator<Item = &Label> {
        self.iter().map(|(label, _)| label)
    }

    /// The stored spans, in slot order.
    pub(crate) fn values(&self) -> impl Iterator<Item = &Span> {
        self.iter().map(|(_, span)| span)
    }
}

impl Default for LabelTable {
    fn default() -> Self {
        Self::with_capacity(0)
    }
}

/// Set equality: the same labels mapped to the same spans, wherever each
/// table placed them.
impl PartialEq for LabelTable {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len
            && self
                .iter()
                .all(|(label, span)| other.get(label) == Some(span))
    }
}

impl fmt::Debug for LabelTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// A label from two 8-byte halves.
    fn label_of(first: u64, second: u64) -> Label {
        let mut label = [0u8; LABEL_LEN];
        label[..8].copy_from_slice(&first.to_le_bytes());
        label[8..].copy_from_slice(&second.to_le_bytes());
        label
    }

    /// `count` labels sharing one hash — hence one home slot and one tag at
    /// every table size: the XOR of their halves is the same.
    fn colliding(count: u64) -> Vec<Label> {
        (0..count)
            .map(|i| label_of(0xDEAD_BEEF ^ i, 0x1234_5678 ^ i))
            .collect()
    }

    /// Checks `table` against `oracle`: length, every stored pair, the
    /// absent `probes`, and iteration equal to the stored set.
    fn check_against(table: &LabelTable, oracle: &HashMap<Label, Span>, probes: &[Label]) {
        assert_eq!(table.len(), oracle.len());
        assert_eq!(table.is_empty(), oracle.is_empty());
        for (label, span) in oracle {
            assert_eq!(table.get(label), Some(span));
        }
        for label in probes {
            assert_eq!(table.get(label), oracle.get(label));
            table.prefetch(label);
        }
        let listed: HashMap<Label, Span> = table.iter().map(|(l, s)| (*l, *s)).collect();
        assert_eq!(
            listed.len(),
            table.len(),
            "iteration yields each entry once"
        );
        assert_eq!(&listed, oracle);
        assert_eq!(table.keys().count(), oracle.len());
        assert_eq!(table.values().count(), oracle.len());
    }

    #[test]
    fn colliding_labels_share_a_home_slot_and_a_tag() {
        let labels = colliding(40);
        let hash = label_hash(&labels[0]);
        assert!(labels.iter().all(|label| label_hash(label) == hash));

        let mut table = LabelTable::with_capacity(labels.len());
        let mut oracle = HashMap::new();
        for (i, label) in labels.iter().enumerate() {
            let span = (i as u32, 24);
            assert_eq!(table.insert(*label, span), None);
            oracle.insert(*label, span);
        }
        // One more with the same hash that was never inserted: the walk
        // compares it against every tag-equal occupant and still misses.
        let absent = label_of(0xDEAD_BEEF ^ 999, 0x1234_5678 ^ 999);
        assert_eq!(label_hash(&absent), hash);
        check_against(&table, &oracle, &[absent]);
        // A duplicate is reported with the span it replaces.
        assert_eq!(table.insert(labels[7], (1000, 1)), Some((7, 24)));
        assert_eq!(table.get(&labels[7]), Some(&(1000, 1)));
        assert_eq!(table.len(), labels.len());
    }

    #[test]
    fn sizes_at_the_edges_of_the_load_bound() {
        for entries in [0usize, 1, 2, 3, 5, 7, 10, 100, 131_250, 1000] {
            let table = LabelTable::with_capacity(entries);
            let slots = table.tags.len();
            assert!(
                entries * 4 <= slots * 3,
                "{entries} entries in {slots} slots"
            );
            assert!(
                slots == 1 || entries * 4 > (slots - 1) * 3,
                "{slots} is the least"
            );
        }
        // Filled to the count it was sized for: 1 000 entries in 1 334
        // slots, a load of 0.7496, with no rehash.
        let labels: Vec<Label> = (0..1000u64).map(|i| label_of(fold_mix(i), i)).collect();
        let mut table = LabelTable::with_capacity(labels.len());
        assert_eq!(table.tags.len(), 1334);
        let mut oracle = HashMap::new();
        for (i, label) in labels.iter().enumerate() {
            table.insert(*label, (i as u32, 1));
            oracle.insert(*label, (i as u32, 1));
        }
        assert_eq!(table.tags.len(), 1334, "filling to the count never grows");
        let absent: Vec<Label> = (0..64u64).map(|i| label_of(i, fold_mix(i))).collect();
        check_against(&table, &oracle, &absent);
        // One past it doubles the table and keeps every entry.
        let extra = label_of(1, 2);
        table.insert(extra, (9, 9));
        oracle.insert(extra, (9, 9));
        assert_eq!(table.tags.len(), 2668);
        check_against(&table, &oracle, &absent);
    }

    #[test]
    fn the_home_slot_ignores_the_tag_bits() {
        for slots in [1usize, 7, 1334, 175_000] {
            for i in 0..256u64 {
                let hash = fold_mix(i);
                let home = home_of(hash, slots);
                assert!(home < slots);
                for tag_bits in [0u64, 1, 0x55, 0x7F] {
                    let retagged = (hash & (u64::MAX >> 7)) | (tag_bits << 57);
                    assert_eq!(
                        home_of(retagged, slots),
                        home,
                        "{slots} slots, hash {hash:#x}"
                    );
                }
            }
        }
        // And the bits below the tag do move it: the least and the
        // greatest of them land on the first and the last slot.
        assert_eq!(home_of(0, 1334), 0);
        assert_eq!(home_of(u64::MAX >> 7, 1334), 1333);
        assert_eq!(home_of(u64::MAX, 1334), 1333);
    }

    #[test]
    fn empty_and_single_entry_tables() {
        let empty = LabelTable::default();
        assert_eq!(empty.tags.len(), 1);
        check_against(
            &empty,
            &HashMap::new(),
            &[[0; LABEL_LEN], [0xFF; LABEL_LEN]],
        );
        assert_eq!(
            empty,
            LabelTable::with_capacity(100),
            "equality is by content"
        );

        let mut one = LabelTable::with_capacity(1);
        one.insert([7; LABEL_LEN], (0, 24));
        let oracle = HashMap::from([([7; LABEL_LEN], (0, 24))]);
        check_against(&one, &oracle, &[[0; LABEL_LEN], [8; LABEL_LEN]]);
        assert_ne!(one, empty);
        assert_eq!(one.allocated_bytes(), 2 * 25);
    }

    #[test]
    fn a_walk_wraps_past_the_last_slot() {
        // Labels whose home is the last slot of a 7-slot table: the
        // second and third land in slots 0 and 1 after the wrap.
        let table_of = |labels: &[Label]| {
            let mut table = LabelTable::with_capacity(5);
            for (i, label) in labels.iter().enumerate() {
                table.insert(*label, (i as u32, 3));
            }
            table
        };
        assert_eq!(LabelTable::with_capacity(5).tags.len(), 7);
        let last: Vec<Label> = (0u64..)
            .map(|i| label_of(i, 0))
            .filter(|label| home_of(label_hash(label), 7) == 6)
            .take(4)
            .collect();
        let table = table_of(&last[..3]);
        assert_ne!(table.tags[6], EMPTY);
        assert_ne!(table.tags[0], EMPTY, "the walk wrapped to slot 0");
        assert_ne!(table.tags[1], EMPTY);
        let oracle: HashMap<Label, Span> = last[..3]
            .iter()
            .enumerate()
            .map(|(i, label)| (*label, (i as u32, 3)))
            .collect();
        // The fourth label's miss walks 6 → 0 → 1 → 2 and stops at slot 2.
        check_against(&table, &oracle, &last[3..]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random inserts (with repeats), against a `HashMap` oracle:
        /// duplicate detection, gets of present and absent labels, and
        /// iteration equal to the inserted set — from a table sized for
        /// the inserts, and from one that must grow on the way.
        #[test]
        fn matches_a_hashmap_oracle(
            ops in proptest::collection::vec((0u16..300, any::<u32>()), 0..400),
            presized in any::<bool>(),
        ) {
            // A small label universe, so inserts repeat.
            let label = |key: u16| label_of(u64::from(key) * 0x0101, u64::from(key) << 40);
            let mut table = LabelTable::with_capacity(if presized { ops.len() } else { 0 });
            let mut oracle: HashMap<Label, Span> = HashMap::new();
            for &(key, offset) in &ops {
                let span = (offset, u32::from(key));
                prop_assert_eq!(table.insert(label(key), span), oracle.insert(label(key), span));
            }
            let probes: Vec<Label> = (0u16..320).map(label).collect();
            check_against(&table, &oracle, &probes);
        }
    }
}
