//! The Constant-BRC and Constant-URC schemes (Section 5 of the paper).
//!
//! Each tuple carries a *single* keyword — its attribute value — so the
//! index has only `O(n)` entries. To keep the query size at `O(log R)`
//! instead of `O(R)`, the per-value decryption capability is not an SSE
//! token but a **delegatable PRF** value: the trapdoor ships the `O(log R)`
//! GGM seeds of the nodes covering the range (BRC or URC), and the server
//! expands them into the `R` leaf-level DPRF values, from which it derives
//! the per-value SSE tokens.
//!
//! The price is leakage: the server learns, for every covering node, which
//! result ids map to which leaf of its subtree (relative order inside the
//! cover), and — as shown in the DPRF paper — adaptive security only holds
//! if queries never intersect. [`ConstantScheme::query_guarded`] implements
//! the application-level guard the paper suggests (abort on intersection);
//! [`RangeScheme::query`] performs no such bookkeeping.

use crate::dataset::Dataset;
use crate::metrics::{IndexStats, QueryStats};
use crate::schemes::common::{clamp_query, search_ids, try_search_ids, CoverKind};
use crate::traits::{QueryOutcome, RangeScheme};
use rand::{CryptoRng, RngCore};
use rsse_cover::{Domain, Node, Range};
use rsse_crypto::{permute, Dprf, DprfToken, KeyChain, Prf};
use rsse_sse::formats::{io_err, MetaReader, MetaWriter};
use rsse_sse::{
    SearchToken, ShardedIndex, SpillOrder, StorageBackend, StorageConfig, StorageError,
};
use std::fmt;
use std::fs;
use std::path::Path;

/// Error returned by [`ConstantScheme::query_guarded`] when the new query
/// intersects a previously issued one (the functional restriction under
/// which the Constant schemes are provably adaptively secure).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IntersectingQuery {
    /// The previously issued range that overlaps the new one.
    pub previous: Range,
    /// The rejected new range.
    pub attempted: Range,
}

impl fmt::Display for IntersectingQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "query {} intersects previously issued query {}; the Constant schemes \
             are only secure for non-intersecting queries",
            self.attempted, self.previous
        )
    }
}

impl std::error::Error for IntersectingQuery {}

/// Owner-side state of Constant-BRC / Constant-URC.
#[derive(Clone, Debug)]
pub struct ConstantScheme {
    dprf: Dprf,
    shuffle: Prf,
    domain: Domain,
    kind: CoverKind,
    history: Vec<Range>,
}

/// Server-side state: the `O(n)`-entry encrypted index (sharded by label
/// prefix per the build's `StorageConfig::shard_bits`) plus the (public)
/// depth of the GGM tree, which the server needs to expand tokens.
#[derive(Clone, Debug)]
pub struct ConstantServer {
    index: ShardedIndex,
    depth: u32,
}

/// File recording the (public) GGM tree depth next to a saved Constant
/// server's shard files.
const DEPTH_META_FILE: &str = "constant.meta";

/// Magic bytes of the depth metadata file.
const DEPTH_META_MAGIC: [u8; 8] = *b"RSSE-CMD";

impl ConstantServer {
    /// Number of label-prefix bits sharding the dictionary.
    pub fn shard_bits(&self) -> u32 {
        self.index.shard_bits()
    }

    /// Serializes the dictionary (and the public GGM depth, in a
    /// `constant.meta` sidecar) into `dir`.
    pub fn save_to_dir(&self, dir: impl AsRef<Path>) -> Result<(), StorageError> {
        let dir = dir.as_ref();
        self.index.save_to_dir(dir)?;
        write_depth_meta(dir, self.depth)
    }

    /// Cold-opens a server over a previously saved (or disk-built)
    /// dictionary; the shards are served via paged reads without a rebuild.
    pub fn open_dir(dir: impl AsRef<Path>) -> Result<Self, StorageError> {
        let dir = dir.as_ref();
        Ok(Self {
            index: ShardedIndex::open_dir(dir)?,
            depth: read_depth_meta(dir)?,
        })
    }
}

/// Writes the GGM-depth sidecar file.
fn write_depth_meta(dir: &Path, depth: u32) -> Result<(), StorageError> {
    MetaWriter::new(&DEPTH_META_MAGIC)
        .u32(depth)
        .commit(&dir.join(DEPTH_META_FILE))
}

/// Reads and validates the GGM-depth sidecar file.
fn read_depth_meta(dir: &Path) -> Result<u32, StorageError> {
    let path = dir.join(DEPTH_META_FILE);
    let bytes = fs::read(&path).map_err(|e| io_err(&path, e))?;
    let mut fields = MetaReader::open(&path, &bytes, &DEPTH_META_MAGIC, 16)?;
    let depth = fields.u32()?;
    fields.finish()?;
    Ok(depth)
}

/// The trapdoor of the Constant schemes: a delegated DPRF token.
#[derive(Clone, Debug)]
pub struct ConstantTrapdoor {
    token: DprfToken,
}

impl ConstantTrapdoor {
    /// Serialized query size in bytes (Figure 8(a)).
    pub fn size_bytes(&self) -> usize {
        self.token.size_bytes()
    }

    /// Number of delegated GGM nodes (`O(log R)`).
    pub fn node_count(&self) -> usize {
        self.token.len()
    }
}

impl ConstantScheme {
    /// Builds the scheme with an explicit covering technique on the
    /// unsharded in-memory configuration.
    pub fn build_with<R: RngCore + CryptoRng>(
        dataset: &Dataset,
        kind: CoverKind,
        rng: &mut R,
    ) -> (Self, ConstantServer) {
        Self::build_stored_with(dataset, kind, &StorageConfig::in_memory(0), rng)
            .expect("in-memory build cannot fail")
    }

    /// Builds the scheme with an explicit covering technique and the
    /// dictionary held by the storage backend `config` selects; on-disk
    /// builds also record the (public) GGM depth in a `constant.meta`
    /// sidecar so [`ConstantServer::open_dir`] can cold-open the server.
    pub fn build_stored_with<R: RngCore + CryptoRng>(
        dataset: &Dataset,
        kind: CoverKind,
        config: &StorageConfig,
        rng: &mut R,
    ) -> Result<(Self, ConstantServer), StorageError> {
        let domain = *dataset.domain();
        let chain = KeyChain::generate(rng);
        let dprf = Dprf::new(&chain.derive(b"dprf"), domain.bits());
        let shuffle = Prf::new(&chain.derive(b"shuffle"));

        // Each attribute value is a keyword whose SSE token derives from
        // the value's DPRF output, so the server can recreate it after GGM
        // expansion. Big-endian keywords make the pipeline's keyword order
        // the numeric value order, and the stable `ByKeyword` order keeps
        // each value's ids in dataset order for the keyed shuffle.
        let entries = dataset
            .records()
            .iter()
            .map(|record| (record.value.to_be_bytes(), record.id_payload_array()));
        let index = rsse_sse::build_index_external_with(
            entries,
            SpillOrder::ByKeyword,
            |keyword: &[u8; 8], payloads: &mut Vec<[u8; 8]>| {
                let value = u64::from_be_bytes(*keyword);
                permute::keyed_shuffle(&shuffle, &value.to_le_bytes(), payloads);
                SearchToken::derive_from_seed(&dprf.eval(value))
            },
            config,
            rng,
        )?;
        if let StorageBackend::OnDisk(dir) = &config.backend {
            if let Err(error) = write_depth_meta(dir, domain.bits()) {
                // Unwind the already-written index files so a failed build
                // never leaves a directory that looks like a complete index
                // but cannot be cold-opened as a Constant server.
                rsse_sse::storage::cleanup_partial_index(dir, 1usize << config.shard_bits);
                return Err(error);
            }
        }
        Ok((
            Self {
                dprf,
                shuffle,
                domain,
                kind,
                history: Vec::new(),
            },
            ConstantServer {
                index,
                depth: domain.bits(),
            },
        ))
    }

    /// The covering technique this client uses.
    pub fn cover_kind(&self) -> CoverKind {
        self.kind
    }

    /// `Trpdr`: delegates the DPRF over the BRC/URC cover of the range.
    /// Returns `None` if the range lies entirely outside the domain.
    pub fn trapdoor(&self, range: Range) -> Option<ConstantTrapdoor> {
        let clamped = clamp_query(&self.domain, range)?;
        let cover = self.kind.cover(&self.domain, clamped);
        let nodes: Vec<(u32, u64)> = cover.iter().map(|n| (n.level(), n.index())).collect();
        let mut token = self.dprf.delegate(&nodes);
        // Randomly permute the GGM values so their order reveals nothing
        // about the sub-range layout (keyed, hence reproducible for tests).
        let mut label = Vec::with_capacity(17);
        label.push(b'C');
        label.extend_from_slice(&clamped.lo().to_le_bytes());
        label.extend_from_slice(&clamped.hi().to_le_bytes());
        permute::keyed_shuffle(&self.shuffle, &label, &mut token.nodes);
        Some(ConstantTrapdoor { token })
    }

    /// `Search`: server-side expansion of the GGM token into leaf DPRF
    /// values, followed by one SSE lookup per leaf. A failed block read on
    /// a disk-backed dictionary aborts the query with a typed
    /// [`StorageError`] instead of silently dropping the affected leaves.
    pub fn try_search(
        server: &ConstantServer,
        trapdoor: &ConstantTrapdoor,
    ) -> Result<QueryOutcome, StorageError> {
        let leaves = Dprf::expand_token(&trapdoor.token);
        let tokens: Vec<SearchToken> = leaves.iter().map(SearchToken::derive_from_seed).collect();
        let (ids, groups) = try_search_ids(&server.index, &tokens)?;
        let touched = groups.iter().sum();
        Ok(QueryOutcome {
            ids,
            stats: QueryStats {
                tokens_sent: trapdoor.node_count(),
                token_bytes: trapdoor.size_bytes(),
                rounds: 1,
                entries_touched: touched,
                result_groups: trapdoor.node_count(),
            },
        })
    }

    /// Queries with the application-level non-intersection guard the paper
    /// describes: the client keeps the history of issued ranges and refuses
    /// to issue a query that overlaps any of them. (Distinct from the
    /// storage-fallible [`RangeScheme::try_query`], which guards against
    /// I/O failures, not leakage.)
    pub fn query_guarded(
        &mut self,
        server: &ConstantServer,
        range: Range,
    ) -> Result<QueryOutcome, IntersectingQuery> {
        let effective = clamp_query(&self.domain, range).unwrap_or(range);
        if let Some(previous) = self
            .history
            .iter()
            .copied()
            .find(|prev| prev.intersects(effective))
        {
            return Err(IntersectingQuery {
                previous,
                attempted: effective,
            });
        }
        self.history.push(effective);
        Ok(self.query(server, range))
    }

    /// The GGM tree depth the server uses for expansion (public parameter).
    pub fn server_depth(server: &ConstantServer) -> u32 {
        server.depth
    }
}

impl RangeScheme for ConstantScheme {
    type Server = ConstantServer;
    const NAME: &'static str = "Constant-BRC/URC";

    fn build_stored<R: RngCore + CryptoRng>(
        dataset: &Dataset,
        config: &StorageConfig,
        rng: &mut R,
    ) -> Result<(Self, Self::Server), StorageError> {
        Self::build_stored_with(dataset, CoverKind::Brc, config, rng)
    }

    fn try_query(&self, server: &Self::Server, range: Range) -> Result<QueryOutcome, StorageError> {
        match self.trapdoor(range) {
            Some(trapdoor) => Self::try_search(server, &trapdoor),
            None => Ok(QueryOutcome::default()),
        }
    }

    fn index_stats(server: &Self::Server) -> IndexStats {
        IndexStats {
            entries: server.index.len(),
            storage_bytes: server.index.storage_bytes(),
        }
    }
}

/// Exposes the per-node structural leakage of a Constant query: for every
/// delegated node, its level and the number of result ids found in its
/// subtree (the paper's `(µ(N_i), ℓ(N_i), idmap(N_i))` without the aliases).
pub fn structural_leakage(
    client: &ConstantScheme,
    server: &ConstantServer,
    range: Range,
) -> Vec<(u32, usize)> {
    let Some(clamped) = clamp_query(&client.domain, range) else {
        return Vec::new();
    };
    let cover: Vec<Node> = client.kind.cover(&client.domain, clamped);
    cover
        .iter()
        .map(|node| {
            let nodes = [(node.level(), node.index())];
            let token = client.dprf.delegate(&nodes);
            let leaves = Dprf::expand_token(&token);
            let tokens: Vec<SearchToken> =
                leaves.iter().map(SearchToken::derive_from_seed).collect();
            let (ids, _) = search_ids(&server.index, &tokens);
            (node.level(), ids.len())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schemes::testutil;
    use rand::SeedableRng;
    use rand_chacha::ChaCha20Rng;

    #[test]
    fn brc_and_urc_return_exact_results() {
        let dataset = testutil::skewed_dataset();
        let mut rng = ChaCha20Rng::seed_from_u64(1);
        for kind in [CoverKind::Brc, CoverKind::Urc] {
            let (client, server) = ConstantScheme::build_with(&dataset, kind, &mut rng);
            for range in testutil::query_mix(dataset.domain().size()) {
                let outcome = client.query(&server, range);
                testutil::assert_exact(&dataset, range, &outcome);
            }
        }
    }

    #[test]
    fn uniform_dataset_exhaustive_small_ranges() {
        let dataset = testutil::uniform_dataset();
        let mut rng = ChaCha20Rng::seed_from_u64(2);
        let (client, server) = ConstantScheme::build_with(&dataset, CoverKind::Urc, &mut rng);
        for lo in (0..256u64).step_by(17) {
            let hi = (lo + 30).min(255);
            let range = Range::new(lo, hi);
            testutil::assert_exact(&dataset, range, &client.query(&server, range));
        }
    }

    #[test]
    fn index_has_exactly_n_entries() {
        // Constant storage: one entry per tuple, regardless of the domain.
        let dataset = testutil::skewed_dataset();
        let mut rng = ChaCha20Rng::seed_from_u64(3);
        let (_, server) = ConstantScheme::build(&dataset, &mut rng);
        assert_eq!(ConstantScheme::index_stats(&server).entries, dataset.len());
    }

    #[test]
    fn trapdoor_is_logarithmic_and_urc_is_position_independent() {
        let dataset = testutil::uniform_dataset();
        let mut rng = ChaCha20Rng::seed_from_u64(4);
        let (brc, _) = ConstantScheme::build_with(&dataset, CoverKind::Brc, &mut rng);
        let (urc, _) = ConstantScheme::build_with(&dataset, CoverKind::Urc, &mut rng);
        // Two same-size ranges at different positions: URC token count must
        // be identical, BRC's may differ.
        let a = urc.trapdoor(Range::new(1, 30)).unwrap();
        let b = urc.trapdoor(Range::new(65, 94)).unwrap();
        assert_eq!(a.node_count(), b.node_count());
        let t = brc.trapdoor(Range::new(0, 255)).unwrap();
        assert_eq!(t.node_count(), 1, "aligned full range is a single node");
        // log-size bound.
        let t = brc.trapdoor(Range::new(3, 200)).unwrap();
        assert!(t.node_count() <= 2 * 8);
        assert_eq!(t.size_bytes(), t.node_count() * 36);
    }

    #[test]
    fn query_stats_report_dprf_expansion_cost() {
        let dataset = testutil::skewed_dataset();
        let mut rng = ChaCha20Rng::seed_from_u64(5);
        let (client, server) = ConstantScheme::build(&dataset, &mut rng);
        let range = Range::new(0, 7);
        let outcome = client.query(&server, range);
        assert_eq!(outcome.stats.rounds, 1);
        assert_eq!(outcome.stats.tokens_sent, 1); // [0,7] is one aligned node
        assert_eq!(
            outcome.stats.entries_touched,
            dataset.result_size(range),
            "no false positives: touched entries == result size"
        );
    }

    #[test]
    fn non_intersection_guard_rejects_overlaps() {
        let dataset = testutil::skewed_dataset();
        let mut rng = ChaCha20Rng::seed_from_u64(6);
        let (mut client, server) = ConstantScheme::build(&dataset, &mut rng);
        assert!(client.query_guarded(&server, Range::new(0, 7)).is_ok());
        assert!(client.query_guarded(&server, Range::new(8, 15)).is_ok());
        let err = client.query_guarded(&server, Range::new(7, 9)).unwrap_err();
        assert_eq!(err.previous, Range::new(0, 7));
        assert!(err.to_string().contains("non-intersecting"));
        // Disjoint queries keep working afterwards.
        assert!(client.query_guarded(&server, Range::new(20, 25)).is_ok());
    }

    #[test]
    fn structural_leakage_reports_per_node_result_counts() {
        let dataset = testutil::skewed_dataset();
        let mut rng = ChaCha20Rng::seed_from_u64(7);
        let (client, server) = ConstantScheme::build_with(&dataset, CoverKind::Brc, &mut rng);
        // [0,7] (one node, level 3) contains 16 of the tuples (values 2..7).
        let leakage = structural_leakage(&client, &server, Range::new(0, 7));
        assert_eq!(leakage, vec![(3, 16)]);
        // The per-node counts must sum to the total result size.
        let leakage = structural_leakage(&client, &server, Range::new(2, 63));
        let total: usize = leakage.iter().map(|(_, c)| c).sum();
        assert_eq!(total, dataset.result_size(Range::new(2, 63)));
    }

    #[test]
    fn out_of_domain_queries_are_empty() {
        let dataset = testutil::skewed_dataset();
        let mut rng = ChaCha20Rng::seed_from_u64(8);
        let (client, server) = ConstantScheme::build(&dataset, &mut rng);
        assert!(client.query(&server, Range::new(64, 100)).is_empty());
        assert!(client.trapdoor(Range::new(64, 100)).is_none());
    }

    #[test]
    fn disk_built_server_cold_opens_and_answers_identically() {
        let dataset = testutil::skewed_dataset();
        let dir = testutil::TempDir::new("constant-disk");
        let mut rng_mem = ChaCha20Rng::seed_from_u64(21);
        let (_, mem_server) = ConstantScheme::build_with(&dataset, CoverKind::Brc, &mut rng_mem);
        let mut rng_disk = ChaCha20Rng::seed_from_u64(21);
        let (client, disk_server) = ConstantScheme::build_stored_with(
            &dataset,
            CoverKind::Brc,
            &StorageConfig::on_disk(2, dir.path()),
            &mut rng_disk,
        )
        .unwrap();
        drop(disk_server);
        let reopened = ConstantServer::open_dir(dir.path()).unwrap();
        assert_eq!(ConstantScheme::server_depth(&reopened), 6);
        for range in testutil::query_mix(dataset.domain().size()) {
            assert_eq!(
                client.query(&reopened, range).ids,
                client.query(&mem_server, range).ids,
                "cold-open must answer like the in-memory server for {range}"
            );
        }
    }

    #[test]
    fn server_depth_matches_domain_bits() {
        let dataset = testutil::uniform_dataset();
        let mut rng = ChaCha20Rng::seed_from_u64(9);
        let (_, server) = ConstantScheme::build(&dataset, &mut rng);
        assert_eq!(ConstantScheme::server_depth(&server), 8);
    }
}
