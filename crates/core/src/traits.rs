//! The unifying RSSE client/server interface implemented by every scheme.

use crate::dataset::{Dataset, DocId};
use crate::metrics::{IndexStats, QueryStats};
use rand::{CryptoRng, RngCore};
use rsse_cover::{Domain, Range};
use rsse_sse::{StorageConfig, StorageError};
use std::path::Path;

/// One input instance of a structural merge (see
/// [`RangeScheme::merge_stored`]).
///
/// The merge consumes committed server state only: the opened server, plus
/// — for file-backed instances — the saved index directory whose shard
/// files the merge copies from. The input's owner state is untouched; after
/// the merge its client keeps querying the merged server with its original
/// trapdoors.
#[derive(Clone, Copy, Debug)]
pub struct MergeInput<'a, Srv> {
    /// The input instance's opened server.
    pub server: &'a Srv,
    /// The instance's saved index directory, when file-backed.
    pub dir: Option<&'a Path>,
}

/// The owner-visible outcome of a range query.
///
/// `ids` is the list of tuple ids the server returned. Depending on the
/// scheme it may contain false positives (SRC family, PB); it never misses a
/// matching tuple. `stats` records the communication and server-work costs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct QueryOutcome {
    /// Tuple ids returned by the server (possibly with false positives).
    pub ids: Vec<DocId>,
    /// Cost accounting for the query.
    pub stats: QueryStats,
}

impl QueryOutcome {
    /// Number of ids returned.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the query returned nothing.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

/// A complete RSSE scheme: an owner-side client bound to a server-side
/// encrypted index.
///
/// `build_stored` plays the role of `Setup` + `BuildIndex` of the paper (the
/// key is generated internally and kept in the client); `query` bundles
/// `Trpdr` and `Search`, including the extra communication round of
/// Logarithmic-SRC-i. Schemes with configuration knobs (cover technique,
/// padding, Bloom-filter rate) additionally expose an inherent constructor
/// taking those knobs next to the [`StorageConfig`].
///
/// # Examples
///
/// ```
/// use rsse_core::{Dataset, Record, RangeScheme, StorageConfig};
/// use rsse_core::schemes::log_brc_urc::LogScheme;
/// use rsse_cover::{Domain, Range};
/// use rand::SeedableRng;
///
/// let dataset = Dataset::new(
///     Domain::new(256),
///     (0..50).map(|i| Record::new(i, (i * 3) % 256)).collect(),
/// ).unwrap();
/// let mut rng = rand_chacha::ChaCha20Rng::seed_from_u64(1);
///
/// // `build_stored` + `query` is the whole lifecycle. Layout (shard bits),
/// // residency (in memory / on disk, cache budget) and build memory (build
/// // budget) are all fields of the one `StorageConfig`.
/// let config = StorageConfig::in_memory(4);
/// let (client, server) = LogScheme::build_stored(&dataset, &config, &mut rng).unwrap();
/// let outcome = client.query(&server, Range::new(10, 40));
/// assert!(!outcome.is_empty());
///
/// // `build` is shorthand for the unsharded in-memory configuration.
/// let (client, server) = LogScheme::build(&dataset, &mut rng);
/// assert!(!client.query(&server, Range::new(10, 40)).is_empty());
/// ```
pub trait RangeScheme: Sized {
    /// The server-side state (encrypted indexes).
    type Server;

    /// Human-readable scheme name as used in the paper's tables and figures.
    const NAME: &'static str;

    /// Builds the owner state and the encrypted server state for a dataset
    /// — the one constructor of every scheme. Everything about *where and
    /// how* the encrypted indexes are built is a field of `config`
    /// (see [`StorageConfig`]):
    ///
    /// * `shard_bits` splits each encrypted dictionary into `2^shard_bits`
    ///   label-prefix shards (`rsse_sse::sharded`), assembled in parallel
    ///   and probed lock-free;
    /// * the backend selects in-memory shard arenas, or shard files written
    ///   to a directory **during BuildIndex** and served via paged reads
    ///   (under `cache_budget`), so the built index is never fully
    ///   memory-resident and survives the process (reopen it with
    ///   `ShardedIndex::open_dir` / `QueryServer::open_dir`);
    /// * `build_budget` bounds the build's peak working set: transformed
    ///   entries past it are sorted through spill runs on disk instead of
    ///   in RAM (the `rsse_sse::external` module); a build that fits it
    ///   runs exactly as it does without one.
    ///
    /// Query results are **identical** for every configuration, and the
    /// built index is bit-identical across build budgets for the same
    /// dataset and RNG stream (property-tested in
    /// `tests/external_build.rs`): these are layout and residency knobs,
    /// never semantic ones. Schemes without an encrypted-dictionary server
    /// ignore the fields that do not apply to them (Quadratic and the
    /// per-value baseline are always one in-memory arena and report
    /// [`StorageError::Unsupported`] for an on-disk backend; PB persists
    /// its filter tree). The update manager routes every batch build and
    /// consolidation rebuild through this entry point.
    fn build_stored<R: RngCore + CryptoRng>(
        dataset: &Dataset,
        config: &StorageConfig,
        rng: &mut R,
    ) -> Result<(Self, Self::Server), StorageError>;

    /// [`build_stored`](Self::build_stored) on the unsharded in-memory
    /// configuration (`StorageConfig::in_memory(0)`), which cannot fail.
    fn build<R: RngCore + CryptoRng>(dataset: &Dataset, rng: &mut R) -> (Self, Self::Server) {
        Self::build_stored(dataset, &StorageConfig::in_memory(0), rng)
            .expect("in-memory build cannot fail")
    }

    /// Reopens the owner state and server of an index previously built by
    /// [`build_stored`](Self::build_stored), given the **same dataset,
    /// configuration, and RNG stream** the original build consumed.
    ///
    /// Every scheme draws its whole key material from the RNG *before*
    /// touching the dataset (a single `KeyChain::generate` up front), so
    /// replaying the stream reproduces the owner state byte-identically —
    /// trapdoors issued by the reopened client match the persisted index
    /// exactly. This is the primitive the update manager's
    /// `UpdateManager::open_root` builds on: it persists one 32-byte seed
    /// per instance and replays it here.
    ///
    /// The default implementation simply **rebuilds** via `build_stored`,
    /// which is always correct (builds are deterministic given the RNG):
    /// in-memory backends reconstruct the index in RAM, on-disk backends
    /// rewrite the directory with byte-identical files. Schemes with a
    /// cheap reopen path (Logarithmic-BRC/URC, Logarithmic-SRC-i)
    /// override it to re-derive only the keys and cold-open the persisted
    /// shards via `ShardedIndex::open_dir_with_budget` — no re-encryption,
    /// no full-index residency.
    fn open_stored<R: RngCore + CryptoRng>(
        dataset: &Dataset,
        config: &StorageConfig,
        rng: &mut R,
    ) -> Result<(Self, Self::Server), StorageError> {
        Self::build_stored(dataset, config, rng)
    }

    /// Whether this scheme's server state supports **structural merges**
    /// ([`merge_stored`](Self::merge_stored)): combining several committed
    /// servers by copying their already-encrypted entries, with no payload
    /// decrypt/re-encrypt, while every input client's trapdoors keep
    /// answering exactly as before against the merged server.
    ///
    /// This holds for schemes whose server is a single encrypted multimap
    /// probed by exact label lookups under per-instance keys
    /// (Logarithmic-BRC/URC): distinct instances' labels are disjoint with
    /// overwhelming probability, so the union of the dictionaries is
    /// itself a valid dictionary for each input client. Schemes whose
    /// query processing depends on global index structure — SRC's single
    /// covering node over the whole corpus, SRC-i's id-domain second
    /// index, PB's filter tree, the Constant schemes' DPRF-positioned
    /// subtrees — cannot merge structurally and report `false`, keeping
    /// the rebuild consolidation path.
    fn supports_structural_merge() -> bool {
        false
    }

    /// Structurally merges committed input servers into one server on the
    /// backend `config` selects, **copying ciphertext verbatim** — no
    /// payload is decrypted or re-encrypted. In-memory inputs merge arena
    /// to arena; file-backed inputs merge shard files into the output
    /// directory of an on-disk `config`.
    ///
    /// The merged server answers each input client's queries exactly as
    /// that input did (the merge is a disjoint union of encrypted
    /// dictionaries); the caller — the update manager — keeps the input
    /// clients and routes their trapdoors to the merged server.
    ///
    /// # Errors
    ///
    /// [`StorageError::Unsupported`] when the scheme cannot merge
    /// structurally ([`supports_structural_merge`](Self::supports_structural_merge)
    /// is `false`), when the inputs' layouts are incompatible, or on a
    /// cross-instance label collision — in every case the caller's correct
    /// response is to fall back to a rebuild consolidation. Genuine I/O
    /// and corruption failures surface as their usual typed errors.
    fn merge_stored(
        inputs: &[MergeInput<'_, Self::Server>],
        config: &StorageConfig,
    ) -> Result<Self::Server, StorageError> {
        let _ = (inputs, config);
        Err(StorageError::Unsupported(Self::NAME))
    }

    /// Re-derives the owner state from the RNG stream alone — the key
    /// draws [`build_stored`](Self::build_stored) makes before it reads
    /// the dataset — without building or opening any server.
    ///
    /// This is how the update manager restores the per-part clients of a
    /// structurally merged instance: each part's 32-byte seed replays the
    /// key material, while the merged server is reopened separately via
    /// [`open_merged`](Self::open_merged). Only meaningful for schemes
    /// with [`supports_structural_merge`](Self::supports_structural_merge);
    /// others report [`StorageError::Unsupported`].
    fn derive_client<R: RngCore + CryptoRng>(
        domain: &Domain,
        rng: &mut R,
    ) -> Result<Self, StorageError> {
        let _ = (domain, rng);
        Err(StorageError::Unsupported(Self::NAME))
    }

    /// Reopens a structurally merged server from its saved index
    /// directory. An in-memory `config` loads the shards fully resident
    /// (byte-identical arenas — the restore-into-RAM path); an on-disk
    /// `config` serves them via paged reads under the configured cache
    /// budget.
    ///
    /// Unlike [`open_stored`](Self::open_stored) this cannot fall back to
    /// a rebuild: a merged directory's physical layout is not reproducible
    /// from any single dataset, so the files themselves are authoritative.
    /// Only meaningful for schemes with
    /// [`supports_structural_merge`](Self::supports_structural_merge);
    /// others report [`StorageError::Unsupported`].
    fn open_merged(dir: &Path, config: &StorageConfig) -> Result<Self::Server, StorageError> {
        let _ = (dir, config);
        Err(StorageError::Unsupported(Self::NAME))
    }

    /// Issues a range query against the server, surfacing storage
    /// failures as typed errors.
    ///
    /// `Ok` with an empty outcome means the range genuinely matched
    /// nothing; `Err(StorageError)` means a disk-backed index failed to
    /// resolve a probe mid-search — the two are **not** interchangeable,
    /// which is the whole point of the fallible path. In-memory servers
    /// never return `Err`.
    fn try_query(&self, server: &Self::Server, range: Range) -> Result<QueryOutcome, StorageError>;

    /// Issues a range query against the server and returns the outcome.
    ///
    /// Convenience wrapper over [`try_query`](Self::try_query) that
    /// **panics** if the storage backend fails mid-search. Safe on
    /// in-memory servers (which cannot fail); disk-backed deployments
    /// that must stay available through storage faults should call
    /// `try_query` and handle the error.
    fn query(&self, server: &Self::Server, range: Range) -> QueryOutcome {
        self.try_query(server, range)
            .expect("storage backend failed during query (use try_query to handle I/O errors)")
    }

    /// Index size statistics of the server state.
    fn index_stats(server: &Self::Server) -> IndexStats;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_len_and_emptiness() {
        let outcome = QueryOutcome {
            ids: vec![3, 4],
            stats: QueryStats::default(),
        };
        assert_eq!(outcome.len(), 2);
        assert!(!outcome.is_empty());
        assert!(QueryOutcome::default().is_empty());
    }

    #[test]
    fn default_build_stored_supports_memory_and_rejects_disk() {
        // Quadratic is always one in-memory arena: the in-memory backend
        // must build and answer, and an on-disk request must surface a
        // typed Unsupported error instead of silently building a volatile
        // index.
        use crate::schemes::quadratic::QuadraticScheme;
        use crate::schemes::testutil;
        use rand::SeedableRng;
        use rand_chacha::ChaCha20Rng;

        let dataset = testutil::skewed_dataset();
        let mut rng = ChaCha20Rng::seed_from_u64(1);
        let (client, server) =
            QuadraticScheme::build_stored(&dataset, &StorageConfig::in_memory(0), &mut rng)
                .unwrap();
        testutil::assert_exact(
            &dataset,
            Range::new(2, 7),
            &client.query(&server, Range::new(2, 7)),
        );

        let err = QuadraticScheme::build_stored(
            &dataset,
            &StorageConfig::on_disk(0, "/tmp/never-created"),
            &mut rng,
        )
        .expect_err("on-disk must be rejected");
        assert!(matches!(err, StorageError::Unsupported(_)));
        assert!(!std::path::Path::new("/tmp/never-created").exists());
    }
}
