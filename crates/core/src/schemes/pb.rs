//! PB — the basic scheme of Li et al. (PVLDB 2014), the paper's closest
//! competitor and the baseline of its experimental comparison.
//!
//! PB builds a binary tree over the *dataset* (not the domain): tuples are
//! randomly permuted and assigned to the leaves; every node stores a Bloom
//! filter over the dyadic ranges `DR(d)` of the tuples in its subtree. A
//! range query is decomposed into its minimal dyadic ranges (BRC), hashed
//! under the owner's secret key, and the server walks the tree top-down,
//! descending into any node whose filter claims to contain one of the query
//! ranges; matching leaves yield the result ids.
//!
//! Costs (Table 1): `O(n log n log m)` storage (a filter per node, sized to
//! its subtree), `Ω(log n · log R + r)` search, `O(log R)` query size and
//! `O(r)` Bloom-filter false positives — all strictly worse than
//! Logarithmic-BRC/URC, which is the point of the comparison. Security-wise
//! the construction only meets the weak, non-adaptive definitions of Goh,
//! which the paper discusses at length; it is reproduced here purely as a
//! baseline.

use crate::dataset::{Dataset, DocId};
use crate::metrics::{IndexStats, QueryStats};
use crate::schemes::common::clamp_query;
use crate::traits::{QueryOutcome, RangeScheme};
use rand::{CryptoRng, RngCore};
use rayon::prelude::*;
use rsse_bloom::{element_hashes, BloomFilter, BloomParams};
use rsse_cover::{brc, Domain, Node, Range};
use rsse_crypto::{permute, Key, KeyChain};
use rsse_sse::formats::{self, io_err, MetaReader, MetaWriter, FORMAT_VERSION};
use rsse_sse::{StorageBackend, StorageConfig, StorageError};
use std::fs;
use std::path::{Path, PathBuf};

/// Default per-node Bloom-filter false-positive rate (the "fixed ratio" of
/// Li et al.).
pub const DEFAULT_BLOOM_FP_RATE: f64 = 0.01;

/// Owner-side state of PB.
#[derive(Clone, Debug)]
pub struct PbScheme {
    hash_key: Key,
    domain: Domain,
    num_hashes: u32,
}

/// One node of the PB tree.
#[derive(Clone, Debug)]
struct PbNode {
    filter: BloomFilter,
    /// `Some(id)` at occupied leaves, `None` elsewhere.
    record: Option<DocId>,
}

/// Server-side state of PB: a heap-layout binary tree of Bloom filters.
#[derive(Clone, Debug)]
pub struct PbServer {
    /// Heap layout: node `i` has children `2i + 1` and `2i + 2`; the first
    /// `leaf_offset` entries are internal nodes.
    nodes: Vec<PbNode>,
    leaf_offset: usize,
}

/// File holding a serialized PB filter tree inside its storage directory.
const PB_TREE_FILE: &str = "pb-tree.bin";

/// Magic bytes of the PB tree file.
const PB_MAGIC: [u8; 8] = *b"RSSE-PBT";

/// Bytes of one serialized node before its filter words: record flag,
/// record id, filter bits, hash count, item count, word count.
const PB_NODE_FIXED_LEN: usize = 1 + 8 + 8 + 4 + 8 + 8;

impl PbServer {
    /// Serializes the Bloom-filter tree into `dir/pb-tree.bin`, creating
    /// the directory if needed.
    ///
    /// PB has no encrypted dictionary to page, so persistence here is
    /// durability only: [`open_dir`](Self::open_dir) loads the whole tree
    /// back into memory (every query walks the tree from the root, so a
    /// partially resident tree would not bound anything).
    pub fn save_to_dir(&self, dir: impl AsRef<Path>) -> Result<(), StorageError> {
        let dir = dir.as_ref();
        formats::create_dir_all(dir)?;
        let mut tree = MetaWriter::new(&PB_MAGIC, FORMAT_VERSION);
        tree.u32(0)
            .u64(self.leaf_offset as u64)
            .u64(self.nodes.len() as u64);
        for node in &self.nodes {
            tree.u8(u8::from(node.record.is_some()))
                .u64(node.record.unwrap_or(0));
            let params = node.filter.params();
            tree.u64(params.num_bits as u64)
                .u32(params.num_hashes)
                .u64(node.filter.len() as u64)
                .u64(node.filter.words().len() as u64);
            for word in node.filter.words() {
                tree.u64(*word);
            }
        }
        tree.commit(&dir.join(PB_TREE_FILE))
    }

    /// Loads a Bloom-filter tree previously written by
    /// [`save_to_dir`](Self::save_to_dir), rejecting malformed files with
    /// typed [`StorageError`]s.
    pub fn open_dir(dir: impl AsRef<Path>) -> Result<Self, StorageError> {
        let path: PathBuf = dir.as_ref().join(PB_TREE_FILE);
        let bytes = fs::read(&path).map_err(|e| io_err(&path, e))?;
        let mut r = MetaReader::open(&path, &bytes, &PB_MAGIC, FORMAT_VERSION, 32)?;
        r.reserved()?;
        let leaf_offset = r.u64()? as usize;
        let node_count = r.u64()?;
        let node_count = r.rows(node_count, PB_NODE_FIXED_LEN)?;
        let mut nodes = Vec::with_capacity(node_count);
        for i in 0..node_count {
            let has_record = r.u8()?;
            let id = r.u64()?;
            let record = match (has_record, id) {
                (0, 0) => None,
                (1, id) => Some(id),
                (flag, id) => {
                    return Err(r.corrupt(format!("node {i} has record flag {flag}, id {id}")));
                }
            };
            let num_bits = r.u64()? as usize;
            let num_hashes = r.u32()?;
            let items = r.u64()? as usize;
            let word_count = r.u64()?;
            if num_bits == 0 || num_hashes == 0 || word_count != num_bits.div_ceil(64) as u64 {
                return Err(r.corrupt(format!(
                    "node {i} claims {num_bits} bits, {num_hashes} hashes, {word_count} words"
                )));
            }
            let word_count = r.rows(word_count, 8)?;
            let mut words = Vec::with_capacity(word_count);
            for _ in 0..word_count {
                words.push(r.u64()?);
            }
            nodes.push(PbNode {
                filter: BloomFilter::from_parts(
                    BloomParams {
                        num_bits,
                        num_hashes,
                    },
                    words,
                    items,
                ),
                record,
            });
        }
        r.finish()?;
        // A heap-layout tree over 2^h leaves always has 2·leaf_offset + 1
        // nodes; anything else would send Search's child indexing
        // (`2i + 1`/`2i + 2`) out of bounds at query time.
        if leaf_offset.checked_mul(2).and_then(|n| n.checked_add(1)) != Some(nodes.len()) {
            return Err(r.corrupt(format!(
                "leaf offset {leaf_offset} inconsistent with node count {}",
                nodes.len()
            )));
        }
        Ok(Self { nodes, leaf_offset })
    }
}

/// The PB trapdoor: the keyed hash values of every minimal dyadic range of
/// the query (`O(log R)` ranges × `k` hashes each).
#[derive(Clone, Debug)]
pub struct PbTrapdoor {
    hashes_per_range: Vec<Vec<u64>>,
}

impl PbTrapdoor {
    /// Serialized size of the trapdoor in bytes.
    pub fn size_bytes(&self) -> usize {
        self.hashes_per_range
            .iter()
            .map(|h| h.len() * std::mem::size_of::<u64>())
            .sum()
    }

    /// Number of dyadic ranges in the trapdoor.
    pub fn range_count(&self) -> usize {
        self.hashes_per_range.len()
    }
}

impl PbScheme {
    /// Builds PB with an explicit per-node false-positive rate.
    pub fn build_with<R: RngCore + CryptoRng>(
        dataset: &Dataset,
        fp_rate: f64,
        rng: &mut R,
    ) -> (Self, PbServer) {
        let domain = *dataset.domain();
        let chain = KeyChain::generate(rng);
        let hash_key = chain.derive(b"pb-hash");
        // With the standard optimal sizing, the number of hash functions
        // depends only on the false-positive rate, so one trapdoor works for
        // every node's filter regardless of its size.
        let num_hashes = (-fp_rate.ln() / std::f64::consts::LN_2).round().max(1.0) as u32;

        // Randomly permute the tuples over the leaves.
        let mut records = dataset.records().to_vec();
        permute::rng_shuffle(rng, &mut records);
        let n_leaves = records.len().next_power_of_two().max(1);
        let leaf_offset = n_leaves - 1;
        let path_len = domain.bits() as usize + 1;

        // Count how many tuples fall under each node to size its filter.
        let total_nodes = leaf_offset + n_leaves;
        let mut subtree_counts = vec![0usize; total_nodes];
        for leaf in 0..records.len() {
            let mut node = leaf_offset + leaf;
            loop {
                subtree_counts[node] += 1;
                if node == 0 {
                    break;
                }
                node = (node - 1) / 2;
            }
        }

        let mut nodes: Vec<PbNode> = subtree_counts
            .iter()
            .map(|&count| {
                let expected = (count * path_len).max(1);
                let mut params = BloomParams::optimal(expected, fp_rate);
                params.num_hashes = num_hashes;
                PbNode {
                    filter: BloomFilter::new(params),
                    record: None,
                }
            })
            .collect();

        // Insert every tuple's dyadic ranges into all its ancestors' filters.
        // The keyed hashes depend only on the record's dyadic keywords, so
        // they are computed once per record (in parallel) instead of once
        // per (ancestor, keyword) pair — the tree walk itself is pure
        // bit-setting. One flat `Vec<u64>` per record (keywords concatenated
        // at stride `num_hashes`) keeps the peak footprint to a single
        // allocation per record.
        let record_hashes: Vec<Vec<u64>> = records
            .par_iter()
            .map(|record| {
                let mut flat = Vec::with_capacity(path_len * num_hashes as usize);
                for node in Node::path_to_root(&domain, record.value) {
                    flat.extend(element_hashes(&hash_key, &node.keyword(), num_hashes));
                }
                flat
            })
            .collect();
        for (leaf, (record, dyadic_hashes)) in records.iter().zip(&record_hashes).enumerate() {
            let mut node = leaf_offset + leaf;
            nodes[node].record = Some(record.id);
            loop {
                for hashes in dyadic_hashes.chunks(num_hashes as usize) {
                    nodes[node].filter.insert_hashes(hashes);
                }
                if node == 0 {
                    break;
                }
                node = (node - 1) / 2;
            }
        }

        (
            Self {
                hash_key,
                domain,
                num_hashes,
            },
            PbServer { nodes, leaf_offset },
        )
    }

    /// `Trpdr`: the keyed hashes of the query's minimal dyadic ranges.
    pub fn trapdoor(&self, range: Range) -> Option<PbTrapdoor> {
        let clamped = clamp_query(&self.domain, range)?;
        let cover = brc(&self.domain, clamped);
        let hashes_per_range = cover
            .iter()
            .map(|node| element_hashes(&self.hash_key, &node.keyword(), self.num_hashes))
            .collect();
        Some(PbTrapdoor { hashes_per_range })
    }

    /// `Search`: top-down traversal of the Bloom-filter tree.
    pub fn search(server: &PbServer, trapdoor: &PbTrapdoor) -> QueryOutcome {
        let mut ids = Vec::new();
        let mut visited = 0usize;
        if !server.nodes.is_empty() {
            let mut stack = vec![0usize];
            while let Some(node_index) = stack.pop() {
                visited += 1;
                let node = &server.nodes[node_index];
                let matched = trapdoor
                    .hashes_per_range
                    .iter()
                    .any(|hashes| !node.filter.is_empty() && node.filter.contains_hashes(hashes));
                if !matched {
                    continue;
                }
                if node_index >= server.leaf_offset {
                    if let Some(id) = node.record {
                        ids.push(id);
                    }
                } else {
                    stack.push(2 * node_index + 1);
                    stack.push(2 * node_index + 2);
                }
            }
        }
        QueryOutcome {
            ids,
            stats: QueryStats {
                tokens_sent: trapdoor.range_count(),
                token_bytes: trapdoor.size_bytes(),
                rounds: 1,
                entries_touched: visited,
                result_groups: trapdoor.range_count(),
            },
        }
    }

    /// The number of keyed hash functions in use (public parameter).
    pub fn num_hashes(&self) -> u32 {
        self.num_hashes
    }
}

impl RangeScheme for PbScheme {
    type Server = PbServer;
    const NAME: &'static str = "PB (Li et al.)";

    /// PB has no encrypted dictionary, so `shard_bits` does not apply; an
    /// on-disk backend persists the Bloom-filter tree (durability) while
    /// the served tree stays memory-resident — see
    /// [`PbServer::save_to_dir`].
    fn build_stored<R: RngCore + CryptoRng>(
        dataset: &Dataset,
        config: &StorageConfig,
        rng: &mut R,
    ) -> Result<(Self, Self::Server), StorageError> {
        let (client, server) = Self::build_with(dataset, DEFAULT_BLOOM_FP_RATE, rng);
        if let StorageBackend::OnDisk(dir) = &config.backend {
            server.save_to_dir(dir)?;
        }
        Ok((client, server))
    }

    /// PB's served tree is fully memory-resident (only the open path does
    /// I/O), so the fallible query path can never fail — it exists so PB
    /// slots into the same fallible serving API as the dictionary schemes.
    fn try_query(&self, server: &Self::Server, range: Range) -> Result<QueryOutcome, StorageError> {
        Ok(match self.trapdoor(range) {
            Some(trapdoor) => Self::search(server, &trapdoor),
            None => QueryOutcome::default(),
        })
    }

    fn index_stats(server: &Self::Server) -> IndexStats {
        let storage_bytes = server
            .nodes
            .iter()
            .map(|n| n.filter.storage_bytes() + if n.record.is_some() { 8 } else { 0 })
            .sum();
        IndexStats {
            entries: server.nodes.len(),
            storage_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Record;
    use crate::schemes::testutil;
    use rand::SeedableRng;
    use rand_chacha::ChaCha20Rng;

    #[test]
    fn results_are_complete_on_query_mix() {
        let mut rng = ChaCha20Rng::seed_from_u64(1);
        for dataset in [testutil::skewed_dataset(), testutil::uniform_dataset()] {
            let (client, server) = PbScheme::build(&dataset, &mut rng);
            for range in testutil::query_mix(dataset.domain().size()) {
                let outcome = client.query(&server, range);
                // Bloom filters never yield false negatives, so PB is always
                // complete; false positives are possible and expected.
                testutil::assert_complete(&dataset, range, &outcome);
            }
        }
    }

    #[test]
    fn false_positive_rate_is_small_with_default_parameters() {
        let dataset = testutil::uniform_dataset();
        let mut rng = ChaCha20Rng::seed_from_u64(2);
        let (client, server) = PbScheme::build(&dataset, &mut rng);
        let mut fp = 0usize;
        let mut total = 0usize;
        for lo in (0..250u64).step_by(10) {
            let range = Range::new(lo, (lo + 20).min(255));
            let outcome = client.query(&server, range);
            let eval = testutil::assert_complete(&dataset, range, &outcome);
            fp += eval.false_positives;
            total += outcome.len().max(1);
        }
        assert!(
            (fp as f64) < 0.25 * total as f64,
            "PB false positives unexpectedly high: {fp}/{total}"
        );
    }

    #[test]
    fn storage_is_superlinear_in_n() {
        // O(n log n log m): doubling n should more than double storage.
        let mut rng = ChaCha20Rng::seed_from_u64(3);
        let small = Dataset::new(
            Domain::new(1 << 16),
            (0..64u64).map(|i| Record::new(i, i * 100)).collect(),
        )
        .unwrap();
        let large = Dataset::new(
            Domain::new(1 << 16),
            (0..128u64).map(|i| Record::new(i, i * 100)).collect(),
        )
        .unwrap();
        let (_, s_small) = PbScheme::build(&small, &mut rng);
        let (_, s_large) = PbScheme::build(&large, &mut rng);
        let b_small = PbScheme::index_stats(&s_small).storage_bytes;
        let b_large = PbScheme::index_stats(&s_large).storage_bytes;
        assert!(b_large > 2 * b_small);
    }

    #[test]
    fn trapdoor_size_is_logarithmic_in_range() {
        let dataset = testutil::uniform_dataset();
        let mut rng = ChaCha20Rng::seed_from_u64(4);
        let (client, _) = PbScheme::build(&dataset, &mut rng);
        let small = client.trapdoor(Range::new(7, 10)).unwrap();
        let large = client.trapdoor(Range::new(1, 254)).unwrap();
        assert!(small.range_count() <= large.range_count());
        assert!(large.range_count() <= 2 * 8);
        assert_eq!(
            large.size_bytes(),
            large.range_count() * client.num_hashes() as usize * 8
        );
    }

    #[test]
    fn search_visits_a_tree_prefix() {
        let dataset = testutil::uniform_dataset();
        let mut rng = ChaCha20Rng::seed_from_u64(5);
        let (client, server) = PbScheme::build(&dataset, &mut rng);
        let outcome = client.query(&server, Range::point(11));
        // A point query visits at most one root-to-leaf path per match plus
        // the pruned frontier — far fewer nodes than the whole tree.
        assert!(outcome.stats.entries_touched < server.nodes.len());
        assert_eq!(outcome.stats.rounds, 1);
    }

    #[test]
    fn empty_dataset_answers_empty() {
        let dataset = Dataset::new(Domain::new(64), vec![]).unwrap();
        let mut rng = ChaCha20Rng::seed_from_u64(6);
        let (client, server) = PbScheme::build(&dataset, &mut rng);
        let outcome = client.query(&server, Range::new(0, 63));
        assert!(outcome.is_empty());
    }

    #[test]
    fn out_of_domain_query_is_empty() {
        let dataset = testutil::skewed_dataset();
        let mut rng = ChaCha20Rng::seed_from_u64(7);
        let (client, server) = PbScheme::build(&dataset, &mut rng);
        assert!(client.query(&server, Range::new(100, 110)).is_empty());
    }

    #[test]
    fn filter_tree_persists_and_cold_opens() {
        let dataset = testutil::skewed_dataset();
        let dir = testutil::TempDir::new("pb-disk");
        let mut rng = ChaCha20Rng::seed_from_u64(41);
        let (client, server) =
            PbScheme::build_stored(&dataset, &StorageConfig::on_disk(0, dir.path()), &mut rng)
                .unwrap();
        let reopened = PbServer::open_dir(dir.path()).unwrap();
        assert_eq!(reopened.nodes.len(), server.nodes.len());
        assert_eq!(reopened.leaf_offset, server.leaf_offset);
        for range in testutil::query_mix(dataset.domain().size()) {
            assert_eq!(
                client.query(&reopened, range).ids,
                client.query(&server, range).ids,
                "cold-open must answer like the built server for {range}"
            );
        }
    }

    #[test]
    fn open_dir_rejects_corrupt_tree_files() {
        let dataset = testutil::skewed_dataset();
        let dir = testutil::TempDir::new("pb-corrupt");
        let mut rng = ChaCha20Rng::seed_from_u64(42);
        let (_, server) = PbScheme::build(&dataset, &mut rng);
        server.save_to_dir(dir.path()).unwrap();
        let path = dir.path().join(super::PB_TREE_FILE);
        let valid = std::fs::read(&path).unwrap();

        std::fs::write(&path, &valid[..valid.len() - 3]).unwrap();
        assert!(matches!(
            PbServer::open_dir(dir.path()),
            Err(StorageError::Truncated { .. })
        ));

        let mut bad_magic = valid.clone();
        bad_magic[0] ^= 0xFF;
        std::fs::write(&path, &bad_magic).unwrap();
        assert!(matches!(
            PbServer::open_dir(dir.path()),
            Err(StorageError::BadMagic { .. })
        ));

        let mut trailing = valid.clone();
        trailing.extend_from_slice(b"xx");
        std::fs::write(&path, &trailing).unwrap();
        assert!(matches!(
            PbServer::open_dir(dir.path()),
            Err(StorageError::CorruptDirectory { .. })
        ));

        // A crafted header claiming a gigantic (internally consistent)
        // filter must fail typed instead of attempting the allocation. The
        // 32-byte file header is followed by the first node: record flag
        // (1 B) + id (8 B), then num_bits at 41..49 and — after num_hashes
        // (4 B) and items (8 B) — word_count at 61..69.
        let mut huge = valid.clone();
        huge[41..49].copy_from_slice(&(1u64 << 40).to_le_bytes());
        huge[61..69].copy_from_slice(&(1u64 << 34).to_le_bytes());
        std::fs::write(&path, &huge).unwrap();
        assert!(matches!(
            PbServer::open_dir(dir.path()),
            Err(StorageError::Truncated { .. })
        ));

        // Same for the node count itself (bytes 24..32): it is validated
        // against the bytes left before it sizes the node vector.
        let mut many = valid.clone();
        many[24..32].copy_from_slice(&u64::MAX.to_le_bytes());
        std::fs::write(&path, &many).unwrap();
        assert!(matches!(
            PbServer::open_dir(dir.path()),
            Err(StorageError::Truncated { .. })
        ));
    }
}
