//! The owner-side update manager: ingestion, querying across active
//! instances, and hierarchical consolidation.
//!
//! A persisted manager's ingest is **atomic on disk**, with one commit
//! point: every instance directory is committed by its `owner.meta`
//! (written last), the root manifest is rewritten once all of them are,
//! and only then are the directories it no longer references removed.
//! [`UpdateManager::open_root`] reopens whatever state the manifest on disk
//! describes — the pre- or the post-ingest one — and sweeps every
//! unreferenced directory (`docs/FORMATS.md`, "Manager crash recovery"). No
//! function here takes a crash or kill argument: every filesystem mutation
//! is a call into [`rsse_sse::formats`], whose gate the crash tests arm
//! from outside (`tests/crash_replay.rs`).

use crate::batch::{UpdateEntry, UpdateOp};
use crate::id_map::IdMap;
use crate::manifest::{
    read_manager_manifest, read_owner_meta, write_manager_manifest, write_owner_meta,
    ManagerManifest, ManifestInstance, OwnerMeta, MANAGER_MANIFEST_FILE,
};
use crate::persist::{self, OwnerKey, OwnerPayload, SEED_LEN};
use rand::{CryptoRng, RngCore, SeedableRng};
use rand_chacha::ChaCha20Rng;
use rayon::prelude::*;
use rsse_core::{
    BuildBudget, Dataset, DocId, IndexStats, MergeInput, QueryOutcome, QueryStats, RangeScheme,
    Record, StorageConfig, StorageError,
};
use rsse_cover::{Domain, Range};
use rsse_crypto::KeyChain;
use rsse_sse::formats::{self, io_err};
use std::cmp::Reverse;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::{Path, PathBuf};

/// How the manager realizes a due consolidation (see
/// [`UpdateConfig::consolidation_mode`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ConsolidationMode {
    /// The paper's "download, merge, re-encrypt": replay the group's
    /// surviving updates and rebuild one index under a fresh key. Always
    /// available, physically purges superseded versions and met
    /// tombstones, and is the reference implementation the structural
    /// path is differenced against.
    #[default]
    Rebuild,
    /// Re-encryption-free structural merge for schemes that support it
    /// ([`RangeScheme::supports_structural_merge`]): the inputs'
    /// already-encrypted dictionaries are combined by copying ciphertext
    /// verbatim — zero payload decrypt/encrypt operations on the merge
    /// path — and each input's client keeps querying the merged server,
    /// refined by an owner-side authority map. Falls back to
    /// [`Rebuild`](Self::Rebuild) per consolidation whenever the scheme
    /// or the inputs cannot merge structurally. Superseded versions are
    /// hidden by refinement but not physically removed until a rebuild
    /// consolidation meets them.
    Structural,
}

/// Configuration of the update manager.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UpdateConfig {
    /// The consolidation step `s`: once `s` instances accumulate at a level
    /// of the merge hierarchy, they are consolidated into a single instance
    /// at the next level. `s = 0` disables consolidation (every batch stays
    /// a separate index forever); otherwise `s` is at least 2, since at
    /// `s = 1` every merged instance would be due again at once.
    /// [`UpdateManager::new`] panics on `s = 1` and
    /// [`UpdateManager::open_root`] refuses it.
    pub consolidation_step: usize,
    /// Label-prefix shard bits for every index the manager builds: each
    /// batch index and every consolidation rebuild goes through
    /// [`RangeScheme::build_stored`], so the encrypted dictionaries are
    /// split into `2^shard_bits` shards (0 = single arena). Consolidations
    /// of large levels are exactly where the parallel sharded assembly pays
    /// off, since a rebuild re-encrypts the whole merged level.
    pub shard_bits: u32,
    /// When set, every level of the merge hierarchy **persists**: each
    /// instance's encrypted index is streamed into its own subdirectory of
    /// this root during the build (batch ingests and consolidation rebuilds
    /// alike write through the on-disk backend and are served via paged
    /// reads). The root manifest `manager.meta` is each ingest's commit
    /// record; after it commits, the ingest sweeps every instance
    /// subdirectory it does not reference — those a consolidation
    /// consumed included.
    /// `None` (the default) keeps every instance in memory, exactly as
    /// before.
    pub storage_root: Option<PathBuf>,
    /// Block-cache budget, in bytes, for every **persisted** instance the
    /// manager builds (see `StorageConfig::cache_budget`): each
    /// instance's file-backed shards share one clock cache bounding their
    /// resident ciphertext blocks. `None` (the default) leaves residency
    /// unbounded; ignored without a [`storage_root`](Self::storage_root).
    pub cache_budget: Option<usize>,
    /// Memory budget for **large index builds** (see
    /// `rsse_sse::BuildBudget`), handed to every batch build and
    /// consolidation rebuild as is: a build whose entries exceed
    /// `build_budget.memory_bytes` sorts them through spill runs on disk
    /// and stages its shards — byte-identical index files, peak RSS bounded
    /// by the budget — and a build that fits never touches disk for it.
    /// This is a runtime knob like [`cache_budget`](Self::cache_budget): it
    /// is not persisted in the root manifest, so pass it again when
    /// reopening with `open_root`. `None` (the default) never spills.
    pub build_budget: Option<BuildBudget>,
    /// How due consolidations are realized (see [`ConsolidationMode`]).
    /// A runtime knob like [`build_budget`](Self::build_budget): it is not
    /// persisted in the root manifest, so pass it again when reopening
    /// with `open_root`. Instances that were structurally merged reopen
    /// structurally regardless of this mode — their physical layout is
    /// authoritative — while future consolidations follow the mode.
    pub consolidation_mode: ConsolidationMode,
}

impl Default for UpdateConfig {
    fn default() -> Self {
        Self {
            consolidation_step: 4,
            shard_bits: 0,
            storage_root: None,
            cache_budget: None,
            build_budget: None,
            consolidation_mode: ConsolidationMode::default(),
        }
    }
}

/// One active instance: a static RSSE index over one batch (or one
/// consolidated group of batches), plus the owner-side metadata needed to
/// refine query results (which ids this batch touched, and how).
struct BatchInstance<S: RangeScheme> {
    /// Monotonically increasing sequence number; larger = newer. Used to let
    /// newer batches supersede older ones during result refinement.
    seq: u64,
    /// Monotonic build counter naming the instance directory; also binds
    /// the instance's owner sidecar to its directory.
    build_id: u64,
    /// The owner-side client(s) — one for a built instance, one per
    /// flattened part for a structurally merged one.
    kind: InstanceKind<S>,
    server: S::Server,
    /// The plaintext updates of this instance (owner-side only; persisted
    /// encrypted in the instance's `owner.meta` sidecar, as the paper's
    /// consolidation step needs them back). For a structural instance this
    /// is the **compacted** log: the deduped latest-per-id surviving
    /// entries, not the raw update history.
    entries: Vec<UpdateEntry>,
    /// Latest operation per id inside this instance. Read by merges (the
    /// purge decision) and by the authority index's maintenance, never by
    /// a query: the index carries the op's tombstone bit.
    ops: IdMap<UpdateOp>,
    /// Directory holding this instance's persisted index, when the manager
    /// runs on an on-disk backend; removed once a consolidation has
    /// consumed the instance and the manifest that drops it has committed.
    dir: Option<PathBuf>,
}

/// A batch being ingested: its raw update log, the seq it takes, and the
/// build number, storage configuration and seed drawn for its own index —
/// which a rebuild that takes the batch straight in never builds.
struct Batch {
    entries: Vec<UpdateEntry>,
    seq: u64,
    build_id: u64,
    config: StorageConfig,
    seed: [u8; SEED_LEN],
}

/// The owner-side query state of an instance.
enum InstanceKind<S: RangeScheme> {
    /// A batch build or rebuild consolidation: one client, whose build
    /// seed replays its whole key material.
    Plain { client: S, seed: [u8; SEED_LEN] },
    /// A structural consolidation: the merged server physically contains
    /// every input part's encrypted entries, and each part's client still
    /// queries it with the part's original trapdoors. The authority map
    /// records, per live id, the flattened part holding its newest
    /// version; hits from any other part are stale copies and are
    /// filtered owner-side.
    Structural {
        /// One `(client, seed)` per flattened part, in merge order.
        parts: Vec<(S, [u8; SEED_LEN])>,
        /// `id → flattened part index` of the authoritative version.
        authority: IdMap<u32>,
    },
}

impl<S: RangeScheme> InstanceKind<S> {
    /// Whether this is a structurally merged instance.
    fn is_structural(&self) -> bool {
        matches!(self, Self::Structural { .. })
    }
}

/// Dedupes a batch's raw update log into its effective records and ops:
/// within a batch, the latest entry for an id wins.
fn latest_of(entries: &[UpdateEntry]) -> BTreeMap<DocId, UpdateEntry> {
    let mut latest: BTreeMap<DocId, UpdateEntry> = BTreeMap::new();
    for entry in entries {
        latest.insert(entry.record.id, *entry);
    }
    latest
}

/// The latest operation per id of a **deduped** log (one entry per id),
/// allocated once at its final size.
fn ops_of<'a>(deduped: impl ExactSizeIterator<Item = &'a UpdateEntry>) -> IdMap<UpdateOp> {
    let mut ops = IdMap::with_capacity_and_hasher(deduped.len(), Default::default());
    ops.extend(deduped.map(|entry| (entry.record.id, entry.op)));
    ops
}

impl<S: RangeScheme> BatchInstance<S> {
    /// Builds a fresh instance: dedupes the update log, runs the scheme's
    /// stored build on a dedicated RNG replayed from `seed`, and — for
    /// persisted instances — commits the encrypted owner sidecar as the
    /// instance's durable commit record (written **last**, so a directory
    /// with a readable sidecar always holds a complete index).
    #[allow(clippy::too_many_arguments)]
    fn build(
        domain: Domain,
        build_id: u64,
        seq: u64,
        level: u32,
        entries: Vec<UpdateEntry>,
        config: &StorageConfig,
        chain: &KeyChain,
        seed: [u8; SEED_LEN],
    ) -> Result<Self, StorageError> {
        let latest = latest_of(&entries);
        let records: Vec<Record> = latest.values().map(|e| e.record).collect();
        let ops = ops_of(latest.values());
        let dataset = Dataset::new(domain, records)
            .expect("update entries validated against the domain before ingestion");
        let mut build_rng = ChaCha20Rng::from_seed(seed);
        let (client, server) = S::build_stored(&dataset, config, &mut build_rng)?;
        let dir = match &config.backend {
            rsse_core::StorageBackend::InMemory => None,
            rsse_core::StorageBackend::OnDisk(dir) => Some(dir.clone()),
        };
        if let Some(dir) = &dir {
            write_owner_meta(
                dir,
                &OwnerMeta {
                    build_id,
                    seq,
                    level,
                    payload: persist::seal_plain_payload(chain, build_id, &seed, &entries),
                },
            )?;
        }
        Ok(Self {
            seq,
            build_id,
            kind: InstanceKind::Plain { client, seed },
            server,
            entries,
            ops,
            dir,
        })
    }

    /// Reopens a persisted instance from its decrypted owner state: the
    /// client re-derives from the replayed seed, the server either
    /// cold-opens from the instance directory (on-disk mode) or rebuilds
    /// in memory from the update log (in-memory restore) — both through
    /// [`RangeScheme::open_stored`], and both byte-identical to the
    /// pre-crash instance.
    fn reopen(
        domain: Domain,
        build_id: u64,
        seq: u64,
        entries: Vec<UpdateEntry>,
        config: &StorageConfig,
        seed: [u8; SEED_LEN],
    ) -> Result<Self, StorageError> {
        let latest = latest_of(&entries);
        let records: Vec<Record> = latest.values().map(|e| e.record).collect();
        let ops = ops_of(latest.values());
        let dataset = Dataset::new(domain, records)
            .expect("persisted update entries were validated at ingestion");
        let mut build_rng = ChaCha20Rng::from_seed(seed);
        let (client, server) = S::open_stored(&dataset, config, &mut build_rng)?;
        let dir = match &config.backend {
            rsse_core::StorageBackend::InMemory => None,
            rsse_core::StorageBackend::OnDisk(dir) => Some(dir.clone()),
        };
        Ok(Self {
            seq,
            build_id,
            kind: InstanceKind::Plain { client, seed },
            server,
            entries,
            ops,
            dir,
        })
    }

    /// Reopens a structurally merged instance: each part's client
    /// re-derives from its replayed seed, and the merged server — whose
    /// physical layout is not reproducible from any dataset — reopens
    /// from its saved directory via [`RangeScheme::open_merged`]: paged
    /// on an on-disk config, loaded fully resident (byte-identical
    /// arenas) on an in-memory restore.
    fn reopen_structural(
        domain: Domain,
        build_id: u64,
        seq: u64,
        seeds: Vec<[u8; SEED_LEN]>,
        tagged_entries: Vec<(UpdateEntry, u32)>,
        dir: &Path,
        config: &StorageConfig,
    ) -> Result<Self, StorageError> {
        let parts = seeds
            .into_iter()
            .map(|seed| {
                let mut rng = ChaCha20Rng::from_seed(seed);
                S::derive_client(&domain, &mut rng).map(|client| (client, seed))
            })
            .collect::<Result<Vec<(S, [u8; SEED_LEN])>, StorageError>>()?;
        let server = S::open_merged(dir, config)?;
        let entries: Vec<UpdateEntry> = tagged_entries.iter().map(|(entry, _)| *entry).collect();
        let ops = ops_of(entries.iter());
        let authority: IdMap<u32> = tagged_entries
            .iter()
            .map(|(entry, part)| (entry.record.id, *part))
            .collect();
        let keep_dir = matches!(&config.backend, rsse_core::StorageBackend::OnDisk(_));
        Ok(Self {
            seq,
            build_id,
            kind: InstanceKind::Structural { parts, authority },
            server,
            entries,
            ops,
            dir: keep_dir.then(|| dir.to_path_buf()),
        })
    }

    /// Issues a range query against this instance's server. A plain
    /// instance asks its one client; a structural instance asks every
    /// part's client in part order, keeping only the hits the part is
    /// authoritative for (stale copies of an id in other parts are
    /// refined away) and accumulating the parts' costs. Like every
    /// scheme's `try_query`, it never returns an id twice: each id has one
    /// authoritative part.
    fn try_query(&self, range: Range) -> Result<QueryOutcome, StorageError> {
        match &self.kind {
            InstanceKind::Plain { client, .. } => client.try_query(&self.server, range),
            InstanceKind::Structural { parts, authority } => {
                let mut ids: Vec<DocId> = Vec::new();
                let mut stats = QueryStats::default();
                for (index, (client, _)) in parts.iter().enumerate() {
                    let outcome = client.try_query(&self.server, range)?;
                    stats.absorb(&outcome.stats);
                    let part = index as u32;
                    let authoritative = |id: &DocId| authority.get(id) == Some(&part);
                    ids.extend(outcome.ids.into_iter().filter(authoritative));
                }
                Ok(QueryOutcome { ids, stats })
            }
        }
    }

    /// The manifest record of this instance (public bookkeeping only).
    fn manifest_record(&self) -> ManifestInstance {
        let mut inserts = 0u64;
        let mut modifies = 0u64;
        let mut deletes = 0u64;
        for entry in &self.entries {
            match entry.op {
                UpdateOp::Insert => inserts += 1,
                UpdateOp::Modify => modifies += 1,
                UpdateOp::Delete => deletes += 1,
            }
        }
        ManifestInstance {
            build_id: self.build_id,
            seq: self.seq,
            entry_count: self.entries.len() as u64,
            inserts,
            modifies,
            deletes,
        }
    }
}

/// Whether no id occurs twice in `ids` (only ever evaluated under
/// `debug_assert!`).
fn all_distinct(ids: &[DocId]) -> bool {
    let mut seen = HashSet::with_capacity(ids.len());
    ids.iter().all(|id| seen.insert(id))
}

/// Best-effort removal of the instance directory a failed build or merge
/// was writing (a leftover is swept after the next commit).
fn discard_build(config: &StorageConfig) {
    if let rsse_core::StorageBackend::OnDisk(dir) = &config.backend {
        let _ = formats::remove_dir_all(dir);
    }
}

/// The canonical instance directories under `root`, by build number: only
/// the exact names the manager writes; anything else (a user's
/// `instance-1`, scratch siblings) is left alone.
fn instance_dirs(root: &Path) -> Result<BTreeMap<u64, PathBuf>, StorageError> {
    let mut on_disk = BTreeMap::new();
    for entry in std::fs::read_dir(root).map_err(|e| io_err(root, e))? {
        let entry = entry.map_err(|e| io_err(root, e))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(build_id) = ManagerManifest::parse_instance_dir_name(name) {
            if name == ManagerManifest::instance_dir_name(build_id) && entry.path().is_dir() {
                on_disk.insert(build_id, entry.path());
            }
        }
    }
    Ok(on_disk)
}

/// Removes every directory of `on_disk` whose build the committed manifest
/// does not reference — the sweep that follows each commit and ends
/// [`UpdateManager::open_root`]. Stops at the first directory that cannot
/// be removed.
fn sweep_unreferenced(
    on_disk: &BTreeMap<u64, PathBuf>,
    referenced: &HashSet<u64>,
) -> Result<(), StorageError> {
    on_disk
        .iter()
        .filter(|(build_id, _)| !referenced.contains(build_id))
        .try_for_each(|(_, dir)| formats::remove_dir_all(dir))
}

/// One entry of the authority index: the seq of the newest live instance
/// touching an id, with the top bit set when that instance's op for the id
/// is a deletion. Seqs count ingests and stay below 2^63 (`open_root`
/// rejects a root claiming more), so the bit never clashes and an index
/// entry stays 16 bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Touch(u64);

impl Touch {
    /// The tombstone bit, and the bound every seq stays below.
    const TOMBSTONE: u64 = 1 << 63;

    /// The touch of `op` by the instance numbered `seq`.
    fn new(seq: u64, op: UpdateOp) -> Self {
        debug_assert!(seq < Self::TOMBSTONE, "seq {seq} reaches the tombstone bit");
        match op {
            UpdateOp::Delete => Self(seq | Self::TOMBSTONE),
            UpdateOp::Insert | UpdateOp::Modify => Self(seq),
        }
    }

    /// The entry under which a query keeps an id the instance numbered
    /// `seq` returns: that instance is the newest to touch the id, and
    /// did not delete it.
    fn live(seq: u64) -> Self {
        Self(seq)
    }

    /// The seq of the newest instance touching the id.
    fn seq(self) -> u64 {
        self.0 & !Self::TOMBSTONE
    }

    /// Whether that instance's op for the id is a deletion.
    #[cfg(test)]
    fn is_tombstone(self) -> bool {
        self.0 & Self::TOMBSTONE != 0
    }
}

/// Owner-side manager of a dynamically updated, privately searchable
/// dataset.
pub struct UpdateManager<S: RangeScheme> {
    domain: Domain,
    config: UpdateConfig,
    /// Master-key chain sealing the per-instance owner sidecars. Drawn
    /// lazily from the first ingest's RNG unless supplied up front via
    /// [`with_key`](Self::with_key) / [`open_root`](Self::open_root).
    chain: Option<KeyChain>,
    /// `levels[l]` holds the not-yet-consolidated instances at height `l` of
    /// the s-ary merge tree (level 0 = raw batches).
    levels: Vec<Vec<BatchInstance<S>>>,
    /// The owner's refinement (authority) index: `id → (seq, tombstone)`
    /// of the newest live instance touching the id — the one instance
    /// whose answer for the id counts — and whether its op there is a
    /// deletion ([`Touch`]). One entry per id any live instance touches.
    /// Derived from `levels` and never persisted; it changes only where
    /// the set of instances does: an ingest overwrites its batch's ids
    /// (O(batch)), a committed merge re-points or drops its group's ids
    /// ([`Self::repoint_merged`], O(group)), and `open_root` computes it
    /// once from the recovered levels (O(live ids)). Queries only read it,
    /// one probe per returned id.
    newest_touch: IdMap<Touch>,
    next_seq: u64,
    /// Monotonic counter naming persisted instance directories — a merged
    /// instance reuses the newest `seq` of its group, so `seq` alone would
    /// collide.
    next_build: u64,
    batches_ingested: usize,
    /// Consolidations realized as re-encryption-free structural merges.
    structural_consolidations: usize,
    /// Consolidations realized as full rebuilds (including structural-mode
    /// fallbacks).
    rebuild_consolidations: usize,
}

impl<S: RangeScheme> UpdateManager<S> {
    /// Creates an empty manager over `domain`.
    ///
    /// The owner master key — which seals the durable owner state of a
    /// persisted manager — is drawn from the first
    /// [`ingest_batch`](Self::ingest_batch)'s RNG; retrieve it with
    /// [`owner_key`](Self::owner_key) and store it safely if the manager
    /// is ever to be reopened with [`open_root`](Self::open_root).
    /// Managers restarted across processes should prefer
    /// [`with_key`](Self::with_key).
    ///
    /// # Panics
    /// Panics if `config.consolidation_step` is 1 (it is 0 or at least 2).
    pub fn new(domain: Domain, config: UpdateConfig) -> Self {
        assert!(
            config.consolidation_step != 1,
            "UpdateConfig::consolidation_step must be 0 or at least 2, got {}",
            config.consolidation_step
        );
        Self {
            domain,
            config,
            chain: None,
            levels: Vec::new(),
            newest_touch: IdMap::default(),
            next_seq: 0,
            next_build: 0,
            batches_ingested: 0,
            structural_consolidations: 0,
            rebuild_consolidations: 0,
        }
    }

    /// Creates an empty manager over `domain` whose durable owner state is
    /// sealed under the given master key — the key
    /// [`open_root`](Self::open_root) will later need to reopen the
    /// manager from its storage root.
    ///
    /// # Panics
    /// Panics if `config.consolidation_step` is 1 (it is 0 or at least 2).
    pub fn with_key(key: OwnerKey, domain: Domain, config: UpdateConfig) -> Self {
        let mut manager = Self::new(domain, config);
        manager.chain = Some(KeyChain::new(key));
        manager
    }

    /// The owner master key, if one has been set or drawn yet (`None`
    /// before the first ingest of a [`new`](Self::new)-built manager).
    /// This is the key to persist alongside the storage root: without it
    /// the root cannot be reopened.
    pub fn owner_key(&self) -> Option<&OwnerKey> {
        self.chain.as_ref().map(KeyChain::master)
    }

    /// Ensures the master-key chain exists, drawing a fresh key from `rng`
    /// on the first ingest of a manager built without one.
    fn ensure_chain<R: RngCore + CryptoRng>(&mut self, rng: &mut R) -> &KeyChain {
        if self.chain.is_none() {
            self.chain = Some(KeyChain::generate(rng));
        }
        self.chain.as_ref().expect("chain was just ensured")
    }

    /// The storage configuration for the next index build: in-memory, or a
    /// fresh uniquely named subdirectory of the configured storage root,
    /// with the manager's [`build_budget`](UpdateConfig::build_budget)
    /// attached as is — the build itself spills once its entries exceed
    /// the budget, and a build that fits never touches disk for it.
    /// Returns the build number that names (and is sealed into) the
    /// instance.
    fn next_instance_config(&mut self) -> (u64, StorageConfig) {
        let build_id = self.next_build;
        self.next_build += 1;
        let mut config = match &self.config.storage_root {
            None => StorageConfig::in_memory(self.config.shard_bits),
            Some(root) => {
                let dir = root.join(ManagerManifest::instance_dir_name(build_id));
                let config = StorageConfig::on_disk(self.config.shard_bits, dir);
                match self.config.cache_budget {
                    Some(budget) => config.with_cache_budget(budget),
                    None => config,
                }
            }
        };
        config.build_budget = self.config.build_budget.clone();
        (build_id, config)
    }

    /// The root manifest describing the manager's current durable state.
    fn manifest(&self) -> ManagerManifest {
        ManagerManifest {
            scheme: S::NAME.to_string(),
            domain_size: self.domain.size(),
            consolidation_step: self.config.consolidation_step as u64,
            shard_bits: self.config.shard_bits,
            cache_budget: self.config.cache_budget.map(|b| b as u64),
            next_seq: self.next_seq,
            next_build: self.next_build,
            batches_ingested: self.batches_ingested as u64,
            consolidations: (self.structural_consolidations + self.rebuild_consolidations) as u64,
            structural_consolidations: self.structural_consolidations as u64,
            rebuild_consolidations: self.rebuild_consolidations as u64,
            levels: self
                .levels
                .iter()
                .map(|level| level.iter().map(BatchInstance::manifest_record).collect())
                .collect(),
        }
    }

    /// Commits the root manifest (atomic tmp + rename). No-op without a
    /// storage root: an in-memory manager has no durable state to record.
    fn persist_manifest(&self) -> Result<(), StorageError> {
        match &self.config.storage_root {
            None => Ok(()),
            Some(root) => write_manager_manifest(root, &self.manifest()),
        }
    }

    /// The attribute domain shared by all batches.
    pub fn domain(&self) -> &Domain {
        &self.domain
    }

    /// Number of currently active (separately queried) index instances.
    pub fn active_instances(&self) -> usize {
        self.levels.iter().map(Vec::len).sum()
    }

    /// Number of raw batches ingested so far.
    pub fn batches_ingested(&self) -> usize {
        self.batches_ingested
    }

    /// Total number of consolidation operations performed, across both
    /// merge strategies — always
    /// [`structural_consolidations`](Self::structural_consolidations)` + `
    /// [`rebuild_consolidations`](Self::rebuild_consolidations).
    pub fn consolidations(&self) -> usize {
        self.structural_consolidations + self.rebuild_consolidations
    }

    /// Number of consolidations realized as re-encryption-free structural
    /// merges (only ever non-zero under
    /// [`ConsolidationMode::Structural`]).
    pub fn structural_consolidations(&self) -> usize {
        self.structural_consolidations
    }

    /// Number of consolidations realized as full merge-and-re-encrypt
    /// rebuilds — the paper's baseline strategy, including any
    /// structural-mode consolidations that fell back to it.
    pub fn rebuild_consolidations(&self) -> usize {
        self.rebuild_consolidations
    }

    /// Number of currently active instances that are structurally merged
    /// (multi-part). Unlike
    /// [`structural_consolidations`](Self::structural_consolidations) this
    /// counts live state, not history: a structural instance that is later
    /// consolidated away (or rebuilt) stops counting.
    pub fn structural_instances(&self) -> usize {
        self.levels
            .iter()
            .flatten()
            .filter(|instance| instance.kind.is_structural())
            .count()
    }

    /// Combined index statistics over all active instances.
    pub fn index_stats(&self) -> IndexStats {
        self.levels
            .iter()
            .flatten()
            .map(|instance| S::index_stats(&instance.server))
            .fold(IndexStats::default(), IndexStats::merged)
    }

    /// Ingests one batch of updates: builds a fresh static index under a
    /// fresh key — or, when the batch makes a consolidation due, one index
    /// over the batch and every instance its carry drains.
    ///
    /// # Panics
    /// Panics if an entry's value lies outside the manager's domain, or if
    /// a configured on-disk backend fails (use
    /// [`try_ingest_batch`](Self::try_ingest_batch) to handle storage
    /// errors instead).
    pub fn ingest_batch<R: RngCore + CryptoRng>(&mut self, entries: Vec<UpdateEntry>, rng: &mut R) {
        self.try_ingest_batch(entries, rng)
            .expect("storage backend failed during batch ingestion");
    }

    /// Fallible variant of [`ingest_batch`](Self::ingest_batch): surfaces
    /// storage-backend failures (full disk, permissions, …) as typed
    /// [`StorageError`]s instead of panicking.
    ///
    /// An ingest builds one instance. When the batch leaves level 0 below
    /// `s`, that is the batch's own index at level 0. Otherwise the batch
    /// drains a chain of levels — level ℓ is due when its instances plus
    /// the carry from below reach `s` — and one merge of the batch and
    /// every drained instance lands at the first level that stays below
    /// `s`. A [`Rebuild`](ConsolidationMode::Rebuild) merge takes the
    /// batch's updates straight into its rebuild and never builds the
    /// batch's own index; a [`Structural`](ConsolidationMode::Structural)
    /// one builds the batch as usual and copies every input once. Either
    /// way the result is byte for byte the one of merging level by level:
    /// the seeds and build numbers of the skipped builds are drawn and
    /// discarded, and each drained level counts as one consolidation.
    ///
    /// A failed batch build leaves the manager unchanged. A failed
    /// consolidation restores its input instances and builds the batch
    /// alone at level 0 (the batch stays ingested), so active state never
    /// degrades on error. The next ingest first completes the chain the
    /// failure left due, then places its own batch, and so lands on the
    /// layout of a manager that never failed.
    ///
    /// # Panics
    /// Panics if an entry's value lies outside the manager's domain (a
    /// caller bug, not an environmental failure).
    pub fn try_ingest_batch<R: RngCore + CryptoRng>(
        &mut self,
        entries: Vec<UpdateEntry>,
        rng: &mut R,
    ) -> Result<(), StorageError> {
        let result = self.ingest_and_consolidate(entries, rng);
        // Whichever way the ingest ended — committed, batch build failed,
        // a merge failed and the batch stands alone — the incrementally
        // maintained index must be what a pass over the live instances
        // computes.
        debug_assert!(self.index_matches_levels());
        result
    }

    /// The body of [`try_ingest_batch`](Self::try_ingest_batch).
    fn ingest_and_consolidate<R: RngCore + CryptoRng>(
        &mut self,
        entries: Vec<UpdateEntry>,
        rng: &mut R,
    ) -> Result<(), StorageError> {
        for entry in &entries {
            assert!(
                self.domain.contains(entry.record.value),
                "update value {} outside domain of size {}",
                entry.record.value,
                self.domain.size()
            );
        }
        self.ensure_chain(rng);
        let mut seed = [0u8; SEED_LEN];
        rng.fill_bytes(&mut seed);
        let (build_id, config) = self.next_instance_config();
        let batch = Batch {
            entries,
            seq: self.next_seq,
            build_id,
            config,
            seed,
        };
        // A chain an earlier failed consolidation left due completes first,
        // so that the batch lands where it would have without the failure.
        match self.consolidate_due_levels(rng) {
            Ok(()) => self.place_batch(batch, rng)?,
            Err(error) => return self.push_batch(batch).and(Err(error)),
        }
        // The manifest is the ingest's one commit point, written once every
        // instance directory it references is durable: a crash anywhere
        // above leaves the previous manifest with all its directories
        // intact, and `open_root` sweeps what it does not reference.
        self.persist_manifest()?;
        // No committed manifest references the superseded inputs any more,
        // nor a batch that stood alone after an earlier failed merge.
        // Best effort: a leftover wastes disk until the next sweep, but
        // cannot corrupt the committed state.
        if let Some(root) = &self.config.storage_root {
            let referenced: HashSet<u64> =
                self.levels.iter().flatten().map(|i| i.build_id).collect();
            let _ = instance_dirs(root).and_then(|dirs| sweep_unreferenced(&dirs, &referenced));
        }
        Ok(())
    }

    /// Places the batch: alone at level 0 when that level stays below `s`,
    /// otherwise as one merge with every level its carry drains. A
    /// structural merge copies the batch's built dictionary like any other
    /// input's; a rebuild reads only its updates, so the batch is built
    /// alone only when the rebuild fails.
    fn place_batch<R: RngCore + CryptoRng>(
        &mut self,
        batch: Batch,
        rng: &mut R,
    ) -> Result<(), StorageError> {
        match self.due_chain(true) {
            Some(drained) if !self.merges_structurally() => {
                match self.merge_chain(drained, Some(&batch), rng) {
                    Ok(()) => {
                        self.next_seq += 1;
                        self.batches_ingested += 1;
                        Ok(())
                    }
                    Err(error) => self.push_batch(batch).and(Err(error)),
                }
            }
            _ => {
                self.push_batch(batch)?;
                self.consolidate_due_levels(rng)
            }
        }
    }

    /// Builds the batch's own index at level 0 and admits it. A failed
    /// build leaves the manager as it was.
    fn push_batch(&mut self, batch: Batch) -> Result<(), StorageError> {
        let Batch {
            entries,
            seq,
            build_id,
            config,
            seed,
        } = batch;
        let chain = self.chain.as_ref().expect("every ingest ensures the chain");
        let instance =
            BatchInstance::build(self.domain, build_id, seq, 0, entries, &config, chain, seed)
                .inspect_err(|_| discard_build(&config))?;
        self.next_seq += 1;
        self.batches_ingested += 1;
        // The batch carries the newest sequence number there is, so it owns
        // every id it touches.
        let touches = instance
            .ops
            .iter()
            .map(|(&id, &op)| (id, Touch::new(seq, op)));
        self.newest_touch.extend(touches);
        if self.levels.is_empty() {
            self.levels.push(Vec::new());
        }
        self.levels[0].push(instance);
        Ok(())
    }

    /// Whether due consolidations merge structurally: the mode asks for it
    /// and the scheme can.
    fn merges_structurally(&self) -> bool {
        self.config.consolidation_mode == ConsolidationMode::Structural
            && S::supports_structural_merge()
    }

    /// The levels the next merge drains, as `(first, target)`: levels
    /// `first..target` are due — level ℓ is due when its instances plus the
    /// carry from below reach `s`, and a due level carries one instance up
    /// — and `target` is the first level that stays below `s`. With a
    /// `batch` the chain starts at level 0, carrying the batch; without
    /// one, at the lowest level that already holds `s` instances, which
    /// only a failed consolidation (or a reopen under a smaller `s`)
    /// leaves. `None` when nothing is due or `s` is 0.
    fn due_chain(&self, batch: bool) -> Option<(usize, usize)> {
        let step = self.config.consolidation_step;
        if step == 0 {
            return None;
        }
        let len = |level: usize| self.levels.get(level).map_or(0, Vec::len);
        let first = match batch {
            true => (len(0) + 1 >= step).then_some(0)?,
            false => (0..self.levels.len()).find(|&level| len(level) >= step)?,
        };
        let target = (first + 1..)
            .find(|&level| len(level) + 1 < step)
            .expect("s ≥ 2, so an empty level stays below it");
        Some((first, target))
    }

    /// Runs every chain of due levels that no batch carries — each as one
    /// merge into its target level — until no level holds `s` instances.
    /// Only a failed consolidation leaves such a chain, or a structural
    /// ingest's batch once it stands at level 0. A failed merge restores
    /// its inputs; the merges before it stand.
    fn consolidate_due_levels<R: RngCore + CryptoRng>(
        &mut self,
        rng: &mut R,
    ) -> Result<(), StorageError> {
        while let Some(drained) = self.due_chain(false) {
            self.merge_chain(drained, None, rng)?;
        }
        Ok(())
    }

    /// Drains levels `first..target` and merges their instances — and the
    /// batch's updates, when given — into one instance at `target`,
    /// counting one consolidation per drained level. On failure the drained
    /// instances go back to their levels (the authority index never left
    /// them) and the error is returned.
    fn merge_chain<R: RngCore + CryptoRng>(
        &mut self,
        (first, target): (usize, usize),
        batch: Option<&Batch>,
        rng: &mut R,
    ) -> Result<(), StorageError> {
        let drained: Vec<Vec<BatchInstance<S>>> = (first..target)
            .map(|level| std::mem::take(&mut self.levels[level]))
            .collect();
        let mut group: Vec<&BatchInstance<S>> = drained.iter().flatten().collect();
        group.sort_by_key(|instance| instance.seq);
        match self.merge_instances(&group, batch, target - first, target, rng) {
            Ok((merged, structural)) => {
                self.repoint_merged(&group, batch, &merged);
                if self.levels.len() <= target {
                    self.levels.resize_with(target + 1, Vec::new);
                }
                self.levels[target].push(merged);
                let consolidations = match structural {
                    true => &mut self.structural_consolidations,
                    false => &mut self.rebuild_consolidations,
                };
                *consolidations += target - first;
                Ok(())
            }
            Err(error) => {
                for (level, instances) in (first..target).zip(drained) {
                    self.levels[level] = instances;
                }
                Err(error)
            }
        }
    }

    /// The authority-index rule of a committed merge: an id whose newest
    /// touch was one of the `inputs` — or the batch, which is newer than
    /// every instance — now belongs to `merged` (which carries the group's
    /// newest sequence number), tombstoned as `merged`'s op says — or
    /// leaves the index, when the merge purged its tombstone, which it
    /// only does if no instance outside the group touches the id. An id a
    /// newer instance outside the group owns stays put. O(ids of the
    /// group), not of the database.
    fn repoint_merged(
        &mut self,
        inputs: &[&BatchInstance<S>],
        batch: Option<&Batch>,
        merged: &BatchInstance<S>,
    ) {
        let repoint = |index: &mut IdMap<Touch>, id: DocId| match merged.ops.get(&id) {
            Some(&op) => index.insert(id, Touch::new(merged.seq, op)),
            None => index.remove(&id),
        };
        for input in inputs {
            for &id in input.ops.keys() {
                if self.newest_touch.get(&id).map(|touch| touch.seq()) == Some(input.seq) {
                    repoint(&mut self.newest_touch, id);
                }
            }
        }
        for entry in batch.map_or(&[][..], |batch| &batch.entries) {
            repoint(&mut self.newest_touch, entry.record.id);
        }
    }

    /// The authority index from scratch, one pass over every id of every
    /// instance: [`open_root`](Self::open_root)'s initializer, and the
    /// oracle debug builds hold the incremental rules to.
    fn newest_touch_of(levels: &[Vec<BatchInstance<S>>]) -> IdMap<Touch> {
        // Sized once for every touch — the number of ids when none lives
        // in two instances, never more than the `ops` maps hold together.
        // Growing from empty instead costs the pass 3× (1.9 vs 0.7 ms at
        // 40 k ids).
        let touches = levels.iter().flatten().map(|i| i.ops.len()).sum();
        let mut newest_touch = IdMap::with_capacity_and_hasher(touches, Default::default());
        for instance in levels.iter().flatten() {
            for (&id, &op) in &instance.ops {
                let touch = Touch::new(instance.seq, op);
                let entry = newest_touch.entry(id).or_insert(touch);
                if instance.seq > entry.seq() {
                    *entry = touch;
                }
            }
        }
        newest_touch
    }

    /// Whether the maintained index equals the from-scratch pass (only
    /// ever evaluated under `debug_assert!`).
    fn index_matches_levels(&self) -> bool {
        self.newest_touch == Self::newest_touch_of(&self.levels)
    }

    /// Merges a group of instances (sorted by sequence number) — and the
    /// batch's updates, when given, which are newer than all of them —
    /// into one instance at `target`: replays their updates in sequence
    /// order, drops deleted tuples, and rebuilds a single index under a
    /// fresh key (the "download, merge, re-encrypt" of the paper) —
    /// written through the configured storage backend, like every other
    /// build — or, when mode and scheme allow, merges the inputs'
    /// dictionaries structurally. Returns the merged instance and whether
    /// it is a structural one; the inputs and their directories are
    /// untouched either way.
    ///
    /// The merge drains `levels` levels, where merging level by level
    /// built one instance per level (and, for a rebuild with a batch, the
    /// batch's own index first). It takes the seeds and build numbers
    /// those builds took and keeps the last, so that the instance, its
    /// directory name and every later build come out as they did.
    ///
    /// A deletion tombstone can only be dropped ("physically purged") when
    /// no instance *outside* the merged group still touches the deleted id
    /// — otherwise an older instance holding a stale version of the tuple
    /// would become authoritative again and the tuple would resurrect.
    /// Tombstones that must survive stay in the merged instance's entries
    /// (and are indexed and query-filtered exactly like a level-0 delete)
    /// until a later merge meets the stale version and purges both. One
    /// merge of a whole chain purges exactly what its level-by-level
    /// merges purged: every input is newer than every instance left
    /// outside, and a tombstone an intermediate merge purged touched no
    /// instance above that merge's level.
    fn merge_instances<R: RngCore + CryptoRng>(
        &mut self,
        group: &[&BatchInstance<S>],
        batch: Option<&Batch>,
        levels: usize,
        target: usize,
        rng: &mut R,
    ) -> Result<(BatchInstance<S>, bool), StorageError> {
        let newest_seq = match batch {
            Some(batch) => batch.seq,
            None => group.last().map_or(0, |instance| instance.seq),
        };
        // The flattened part layout of a prospective structural merge:
        // group member `g`'s parts occupy flat indexes starting at
        // `flat_base[g]` (one part for a plain instance, its own part
        // count for an already-structural one).
        let mut flat_base: Vec<u32> = Vec::with_capacity(group.len());
        let mut part_total = 0u32;
        for instance in group {
            flat_base.push(part_total);
            part_total += match &instance.kind {
                InstanceKind::Plain { .. } => 1,
                InstanceKind::Structural { parts, .. } => parts.len() as u32,
            };
        }
        // Latest entry per id across the group (instances iterate in seq
        // order and the batch comes last, so later inserts win), each
        // tagged with the flattened part whose dictionary holds that
        // authoritative version.
        let mut latest: BTreeMap<DocId, (UpdateEntry, u32)> = BTreeMap::new();
        for (g, instance) in group.iter().enumerate() {
            for entry in &instance.entries {
                let part = match &instance.kind {
                    InstanceKind::Plain { .. } => flat_base[g],
                    InstanceKind::Structural { authority, .. } => {
                        flat_base[g] + authority[&entry.record.id]
                    }
                };
                latest.insert(entry.record.id, (*entry, part));
            }
        }
        for entry in batch.map_or(&[][..], |batch| &batch.entries) {
            latest.insert(entry.record.id, (*entry, part_total));
        }
        // `self.levels` no longer contains the drained levels, so every
        // instance seen here is a live instance outside the merge.
        let outside = &self.levels;
        let touched_elsewhere =
            |id: DocId| (outside.iter().flatten()).any(|instance| instance.ops.contains_key(&id));
        let surviving: Vec<(UpdateEntry, u32)> = latest
            .into_values()
            .filter(|(entry, _)| !entry.is_deletion() || touched_elsewhere(entry.record.id))
            .map(|(entry, part)| {
                (
                    UpdateEntry {
                        record: entry.record,
                        op: if entry.is_deletion() {
                            UpdateOp::Delete
                        } else {
                            UpdateOp::Insert
                        },
                    },
                    part,
                )
            })
            .collect();

        // Structural merge first, when the mode and the scheme allow it (a
        // batch then stands among the inputs, built). A typed Unsupported
        // — incompatible layouts, a label collision — falls back to the
        // rebuild below (burning build numbers, which is harmless:
        // directory names only need to be unique, not dense). Anything
        // else is a real failure.
        if self.merges_structurally() {
            match self.merge_structural(group, levels, target, newest_seq, &surviving) {
                Ok(instance) => return Ok((instance, true)),
                Err(StorageError::Unsupported(_)) => {}
                Err(error) => return Err(error),
            }
        }

        let surviving: Vec<UpdateEntry> = surviving.into_iter().map(|(entry, _)| entry).collect();
        // The intermediate merges' seeds and build numbers, discarded (the
        // batch's own were drawn before the chain was known).
        for _ in 1..levels {
            rng.fill_bytes(&mut [0u8; SEED_LEN]);
            self.next_build += 1;
        }
        let mut seed = [0u8; SEED_LEN];
        rng.fill_bytes(&mut seed);
        let (build_id, config) = self.next_instance_config();
        let chain = self
            .chain
            .as_ref()
            .expect("consolidation only runs after an ingest ensured the chain");
        BatchInstance::build(
            self.domain,
            build_id,
            newest_seq,
            target as u32,
            surviving,
            &config,
            chain,
            seed,
        )
        .map(|merged| (merged, false))
        .inspect_err(|_| discard_build(&config))
    }

    /// Attempts the re-encryption-free structural merge of `group` into
    /// one instance at `target`, copying each input's dictionary once
    /// however many levels the merge drains (`levels`, whose intermediate
    /// build numbers it burns): the inputs' committed dictionaries are
    /// combined via [`RangeScheme::merge_stored`] (ciphertext copied
    /// verbatim, in input order — the layout merging level by level
    /// produced), the flattened parts' clients re-derive from their
    /// retained seeds, and — for persisted managers — the **compacted**
    /// owner sidecar (deduped latest-per-id log, kind byte `1`) commits
    /// the instance durably, written last like every other commit record.
    ///
    /// Returns [`StorageError::Unsupported`] when the merge cannot proceed
    /// structurally — the caller falls back to a rebuild.
    fn merge_structural(
        &mut self,
        group: &[&BatchInstance<S>],
        levels: usize,
        target: usize,
        newest_seq: u64,
        surviving: &[(UpdateEntry, u32)],
    ) -> Result<BatchInstance<S>, StorageError> {
        let mut seeds: Vec<[u8; SEED_LEN]> = Vec::new();
        for instance in group {
            match &instance.kind {
                InstanceKind::Plain { seed, .. } => seeds.push(*seed),
                InstanceKind::Structural { parts, .. } => {
                    seeds.extend(parts.iter().map(|(_, seed)| *seed));
                }
            }
        }
        let parts = seeds
            .iter()
            .map(|&seed| {
                let mut rng = ChaCha20Rng::from_seed(seed);
                S::derive_client(&self.domain, &mut rng).map(|client| (client, seed))
            })
            .collect::<Result<Vec<(S, [u8; SEED_LEN])>, StorageError>>()?;
        self.next_build += levels as u64 - 1;
        let (build_id, config) = self.next_instance_config();
        let chain = self
            .chain
            .as_ref()
            .expect("consolidation only runs after an ingest ensured the chain");
        let inputs: Vec<MergeInput<'_, S::Server>> = group
            .iter()
            .map(|instance| MergeInput {
                server: &instance.server,
                dir: instance.dir.as_deref(),
            })
            .collect();
        let built = (|| -> Result<S::Server, StorageError> {
            let server = S::merge_stored(&inputs, &config)?;
            if let rsse_core::StorageBackend::OnDisk(dir) = &config.backend {
                write_owner_meta(
                    dir,
                    &OwnerMeta {
                        build_id,
                        seq: newest_seq,
                        level: target as u32,
                        payload: persist::seal_structural_payload(
                            chain, build_id, &seeds, surviving,
                        ),
                    },
                )?;
            }
            Ok(server)
        })();
        // Don't leak a half-merged output directory — whether the error
        // falls back to a rebuild or aborts the ingest.
        let server = built.inspect_err(|_| discard_build(&config))?;
        let dir = match &config.backend {
            rsse_core::StorageBackend::InMemory => None,
            rsse_core::StorageBackend::OnDisk(dir) => Some(dir.clone()),
        };
        let entries: Vec<UpdateEntry> = surviving.iter().map(|(entry, _)| *entry).collect();
        let ops = ops_of(entries.iter());
        let authority: IdMap<u32> = surviving
            .iter()
            .map(|(entry, part)| (entry.record.id, *part))
            .collect();
        Ok(BatchInstance {
            seq: newest_seq,
            build_id,
            kind: InstanceKind::Structural { parts, authority },
            server,
            entries,
            ops,
            dir,
        })
    }

    /// Issues a range query against every active instance, merges the
    /// results and refines them at the owner: ids superseded by a newer
    /// batch are dropped, and ids whose newest operation is a deletion are
    /// filtered out.
    ///
    /// **Cost:** one index scan per active instance (per flattened part of
    /// a structural one) plus one probe of the authority index per
    /// returned id — it holds both the newest instance's seq and the
    /// tombstone bit, and no dedup set is needed: only that one instance
    /// contributes the id, and no instance returns an id twice. The
    /// refinement state is kept current by ingests, merges and `open_root`,
    /// so a query does no work and allocates nothing in proportion to the
    /// database — only to its answer. The instances are the items of one
    /// parallel map on the global `rayon` pool, handed out largest record
    /// count first: the pool's lanes (the calling thread always one of
    /// them) each take the next instance when they finish one, so the
    /// longest scan starts first and the wall time approaches the total
    /// over the lanes. Scanning instances concurrently shows the server
    /// nothing beyond the instance set and sizes it already sees: the same
    /// tokens reach the same instances, only their order of arrival moves.
    ///
    /// Convenience wrapper over [`try_query`](Self::try_query) that
    /// **panics** if a persisted instance's storage fails mid-search;
    /// in-memory managers cannot fail.
    pub fn query(&self, range: Range) -> QueryOutcome {
        self.try_query(range)
            .expect("storage backend failed during query (use try_query to handle I/O errors)")
    }

    /// Fallible variant of [`query`](Self::query): a failed block read in
    /// any persisted instance aborts the whole query with its typed
    /// [`StorageError`] instead of silently dropping that instance's
    /// results (which would be indistinguishable from the tuples not
    /// existing — exactly the confusion the fallible path removes). Same
    /// cost as [`query`](Self::query): instances × (one index scan) + one
    /// probe per id returned, the scans side by side on the pool.
    ///
    /// Ids come back in instance order, and when several instances fail
    /// the error is the earliest one's — exactly what a walk over the
    /// instances one after another returns.
    pub fn try_query(&self, range: Range) -> Result<QueryOutcome, StorageError> {
        let instances: Vec<&BatchInstance<S>> = self.levels.iter().flatten().collect();
        let mut largest_first: Vec<usize> = (0..instances.len()).collect();
        largest_first.sort_by_key(|&i| Reverse(instances[i].entries.len()));
        let mut scanned: Vec<(usize, Result<QueryOutcome, StorageError>)> = largest_first
            .into_par_iter()
            .map(|i| (i, self.scan_instance(instances[i], range)))
            .collect();
        // Folded in instance order, so the ids and the first error are the
        // ones a walk over the instances one after another meets.
        scanned.sort_unstable_by_key(|&(i, _)| i);
        let mut outcome = QueryOutcome::default();
        for (_, scan) in scanned {
            let scan = scan?;
            outcome.ids.extend(scan.ids);
            outcome.stats.absorb(&scan.stats);
        }
        debug_assert!(all_distinct(&outcome.ids), "a query returned an id twice");
        Ok(outcome)
    }

    /// Queries one instance and keeps each id only if the instance is
    /// authoritative for it.
    fn scan_instance(
        &self,
        instance: &BatchInstance<S>,
        range: Range,
    ) -> Result<QueryOutcome, StorageError> {
        let mut outcome = instance.try_query(range)?;
        // Only the instance that holds the *newest* version of the tuple is
        // authoritative for it, and only if that version is no tombstone.
        // Live instances have distinct seqs, so no id passes for two of
        // them.
        let live = Touch::live(instance.seq);
        outcome
            .ids
            .retain(|id| self.newest_touch.get(id) == Some(&live));
        Ok(outcome)
    }

    /// The plaintext ground truth of the manager's current logical state —
    /// what a trusted database would answer. Used by tests and the update
    /// ablation experiment.
    pub fn ground_truth(&self, range: Range) -> Vec<DocId> {
        let mut latest: BTreeMap<DocId, (u64, UpdateEntry)> = BTreeMap::new();
        for instance in self.levels.iter().flatten() {
            for entry in &instance.entries {
                let candidate = (instance.seq, *entry);
                match latest.get(&entry.record.id) {
                    Some((seq, _)) if *seq > instance.seq => {}
                    _ => {
                        latest.insert(entry.record.id, candidate);
                    }
                }
            }
        }
        latest
            .values()
            .filter(|(_, entry)| !entry.is_deletion() && range.contains(entry.record.value))
            .map(|(_, entry)| entry.record.id)
            .collect()
    }

    /// Reopens a whole manager from the durable state at `root`: the
    /// `manager.meta` manifest, the per-instance directories, and their
    /// encrypted `owner.meta` sidecars — everything a restarted process
    /// needs besides the owner master `key`.
    ///
    /// Each instance's client re-derives byte-identically by replaying its
    /// persisted build seed, and its server reopens through
    /// [`RangeScheme::open_stored`], so the reopened manager answers
    /// [`try_query`](Self::try_query) exactly as the pre-crash manager
    /// did. `config` selects how the instances are served going forward:
    ///
    /// * `config.storage_root == Some(root)` — instances cold-open from
    ///   their directories (paged reads, bounded by
    ///   `config.cache_budget`), future ingests keep persisting, and the
    ///   manifest is re-committed;
    /// * `config.storage_root == None` — the durable state is **restored
    ///   into RAM**: every instance rebuilds in memory from its persisted
    ///   update log, nothing at `root` is modified beyond crash cleanup,
    ///   and the reopened manager continues as a purely in-memory one.
    ///
    /// # Crash recovery
    ///
    /// `manager.meta` is an ingest's one commit point: it is written only
    /// after every instance directory it references is durable, and an
    /// ingest removes the directories it superseded only after the
    /// manifest that drops them has committed. Whatever a crash leaves,
    /// the manifest on disk therefore describes a whole state — the pre-
    /// or the post-ingest one — and every directory it references is
    /// intact. This method reopens exactly that state and sweeps every
    /// canonical instance directory the manifest does not reference: the
    /// crashed ingest's uncommitted builds, superseded inputs whose
    /// removal was cut short, and half-built debris. The counters come
    /// from the manifest.
    ///
    /// # Errors
    ///
    /// Everything malformed surfaces as a typed [`StorageError`]: a
    /// missing or corrupt manifest, a scheme-kind mismatch, a referenced
    /// instance whose directory or sidecar is missing, foreign or stale
    /// sidecars (sequence, level or counts disagreeing with the
    /// manifest), and owner payloads failing authentication — the wrong
    /// master key refuses to open rather than misinterpreting the root,
    /// and **nothing is deleted before every readable sidecar has
    /// authenticated** under the supplied key. A swept directory that
    /// cannot be removed also fails the open, since its name may be built
    /// into again. A `config.consolidation_step` of 1 is refused as
    /// [`StorageError::Unsupported`] before anything is read.
    ///
    /// # Examples
    ///
    /// ```
    /// use rand::SeedableRng;
    /// use rand_chacha::ChaCha20Rng;
    /// use rsse_core::schemes::log_brc_urc::LogScheme;
    /// use rsse_cover::{Domain, Range};
    /// use rsse_updates::{OwnerKey, UpdateConfig, UpdateEntry, UpdateManager};
    ///
    /// let root = std::env::temp_dir().join(format!("rsse-open-root-doc-{}", std::process::id()));
    /// let mut rng = ChaCha20Rng::seed_from_u64(1);
    /// let key = OwnerKey::generate(&mut rng);
    /// let config = UpdateConfig {
    ///     storage_root: Some(root.clone()),
    ///     ..UpdateConfig::default()
    /// };
    ///
    /// // A persisted manager: every batch index and the owner state land
    /// // under `root`.
    /// let mut manager: UpdateManager<LogScheme> =
    ///     UpdateManager::with_key(key.clone(), Domain::new(256), config.clone());
    /// manager.ingest_batch((0..10).map(|i| UpdateEntry::insert(i, i * 20)).collect(), &mut rng);
    /// let before = manager.query(Range::new(0, 255));
    /// drop(manager); // the process "dies"
    ///
    /// // A new process reopens the root from disk alone and answers
    /// // byte-identically.
    /// let reopened: UpdateManager<LogScheme> =
    ///     UpdateManager::open_root(key, &root, config).unwrap();
    /// assert_eq!(reopened.query(Range::new(0, 255)), before);
    /// # std::fs::remove_dir_all(&root).unwrap();
    /// ```
    pub fn open_root(
        key: OwnerKey,
        root: impl AsRef<Path>,
        config: UpdateConfig,
    ) -> Result<Self, StorageError> {
        let root = root.as_ref();
        if let Some(configured) = &config.storage_root {
            if configured != root {
                return Err(StorageError::Unsupported(
                    "open_root: config.storage_root must be the opened root (or None \
                     to restore the instances into memory)",
                ));
            }
        }
        if config.consolidation_step == 1 {
            return Err(StorageError::Unsupported(
                "open_root: config.consolidation_step must be 0 or at least 2",
            ));
        }
        let manifest = read_manager_manifest(root)?;
        let manifest_path = root.join(MANAGER_MANIFEST_FILE);
        let corrupt = |detail: String| StorageError::CorruptDirectory {
            path: manifest_path.clone(),
            detail,
        };
        if manifest.scheme != S::NAME {
            return Err(corrupt(format!(
                "root was built by scheme \"{}\", reopened as \"{}\"",
                manifest.scheme,
                S::NAME
            )));
        }
        // Validate before Domain::new, whose own bounds are assertions —
        // a corrupt size must surface typed, not panic.
        if manifest.domain_size == 0 || manifest.domain_size > 1 << 63 {
            return Err(corrupt(format!(
                "manifest claims an invalid domain size {}",
                manifest.domain_size
            )));
        }
        let domain = Domain::new(manifest.domain_size);
        let chain = KeyChain::new(key);

        let on_disk = instance_dirs(root)?;

        // Every referenced instance must be referenced once, have its
        // directory, and lie below the manifest's counters (the next build
        // must not land in it).
        let mut referenced: HashSet<u64> = HashSet::new();
        for instance in manifest.levels.iter().flatten() {
            let name = ManagerManifest::instance_dir_name(instance.build_id);
            if !referenced.insert(instance.build_id) {
                return Err(corrupt(format!("instance {name} is referenced twice")));
            }
            if !on_disk.contains_key(&instance.build_id) {
                return Err(corrupt(format!(
                    "instance {name} (seq {}) is referenced by the manifest but its \
                     directory is missing",
                    instance.seq
                )));
            }
            if instance.build_id >= manifest.next_build || instance.seq >= manifest.next_seq {
                return Err(corrupt(format!(
                    "instance {name} (seq {}) is not below the manifest's next build {} \
                     and next seq {}",
                    instance.seq, manifest.next_build, manifest.next_seq
                )));
            }
        }

        // Read every commit record (owner sidecar), then decrypt and
        // authenticate its payload — the referenced instances' and those of
        // the directories about to be swept — BEFORE touching the disk: a
        // wrong master key must fail the open, never delete. A referenced
        // directory needs a readable sidecar; an unreferenced one without it
        // is half-built or half-removed, and is swept below.
        let mut opened: HashMap<u64, (u64, u32, OwnerPayload)> = HashMap::new();
        for (&build_id, dir) in &on_disk {
            let meta = match read_owner_meta(dir) {
                Ok(meta) => meta,
                Err(error) if referenced.contains(&build_id) => return Err(error),
                Err(_) => continue,
            };
            if meta.build_id != build_id {
                return Err(StorageError::CorruptDirectory {
                    path: dir.clone(),
                    detail: format!(
                        "owner sidecar names build {} inside directory {} — \
                         a foreign instance",
                        meta.build_id,
                        ManagerManifest::instance_dir_name(build_id)
                    ),
                });
            }
            let payload = persist::open_payload(&chain, build_id, dir, &meta.payload)?;
            opened.insert(build_id, (meta.seq, meta.level, payload));
        }

        // Reopen the referenced instances in level order; each sidecar must
        // agree with the manifest on sequence number, level and counts.
        let persist_instances = config.storage_root.is_some();
        let mut levels: Vec<Vec<BatchInstance<S>>> = Vec::with_capacity(manifest.levels.len());
        for (level, records) in manifest.levels.iter().enumerate() {
            let mut instances = Vec::with_capacity(records.len());
            for record in records {
                let (build_id, seq) = (record.build_id, record.seq);
                let dir = &on_disk[&build_id];
                let (meta_seq, meta_level, payload) =
                    opened.remove(&build_id).expect("payload opened above");
                if meta_seq != seq || meta_level != level as u32 {
                    return Err(StorageError::CorruptDirectory {
                        path: dir.clone(),
                        detail: format!(
                            "owner sidecar says (seq {meta_seq}, level {meta_level}) but the \
                             manifest records (seq {seq}, level {level}) — a stale or \
                             foreign instance"
                        ),
                    });
                }
                // The authority index keeps a tombstone in a seq's top bit;
                // no honest manager comes near it.
                if seq >= Touch::TOMBSTONE {
                    return Err(StorageError::CorruptDirectory {
                        path: dir.clone(),
                        detail: format!("instance seq {seq} is out of range (max 2^63 - 1)"),
                    });
                }
                let instance_config = if persist_instances {
                    let cfg = StorageConfig::on_disk(manifest.shard_bits, dir.clone());
                    match config.cache_budget {
                        Some(budget) => cfg.with_cache_budget(budget),
                        None => cfg,
                    }
                } else {
                    StorageConfig::in_memory(manifest.shard_bits)
                };
                let instance = match payload {
                    OwnerPayload::Plain { seed, entries } => BatchInstance::reopen(
                        domain,
                        build_id,
                        seq,
                        entries,
                        &instance_config,
                        seed,
                    )?,
                    // A structural instance reopens structurally no matter
                    // the current consolidation mode: its payload kind, not
                    // the runtime knob, dictates.
                    OwnerPayload::Structural { seeds, entries } => {
                        BatchInstance::reopen_structural(
                            domain,
                            build_id,
                            seq,
                            seeds,
                            entries,
                            dir,
                            &instance_config,
                        )?
                    }
                };
                let held = instance.manifest_record();
                if held != *record {
                    return Err(StorageError::CorruptDirectory {
                        path: dir.clone(),
                        detail: format!(
                            "owner payload holds {} entries ({}/{}/{} ins/mod/del) but the \
                             manifest records {} ({}/{}/{}) — manifest and instance disagree",
                            held.entry_count,
                            held.inserts,
                            held.modifies,
                            held.deletes,
                            record.entry_count,
                            record.inserts,
                            record.modifies,
                            record.deletes
                        ),
                    });
                }
                instances.push(instance);
            }
            levels.push(instances);
        }

        // Sweep every directory the manifest does not reference: a crashed
        // ingest's uncommitted builds, inputs whose removal a crash or a
        // failure cut short, half-built debris. One that cannot be removed
        // fails the open: its name may be built into again.
        sweep_unreferenced(&on_disk, &referenced)?;

        let manager = Self {
            domain,
            config,
            chain: Some(chain),
            newest_touch: Self::newest_touch_of(&levels),
            levels,
            next_seq: manifest.next_seq,
            next_build: manifest.next_build,
            batches_ingested: manifest.batches_ingested as usize,
            structural_consolidations: manifest.structural_consolidations as usize,
            rebuild_consolidations: manifest.rebuild_consolidations as usize,
        };
        // Re-commit the manifest under the reopening configuration (no-op
        // for an in-memory restore).
        manager.persist_manifest()?;
        // True by construction today; it keeps any later step of recovery
        // that moves `levels` after the initializer above from going unseen.
        debug_assert!(manager.index_matches_levels());
        Ok(manager)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha20Rng;
    use rsse_core::schemes::log_brc_urc::LogScheme;
    use rsse_core::schemes::log_src_i::LogSrcIScheme;

    type LogManager = UpdateManager<LogScheme>;

    fn manager(step: usize) -> LogManager {
        LogManager::new(
            Domain::new(256),
            UpdateConfig {
                consolidation_step: step,
                ..UpdateConfig::default()
            },
        )
    }

    fn sorted(mut ids: Vec<DocId>) -> Vec<DocId> {
        ids.sort_unstable();
        ids
    }

    #[test]
    fn inserts_across_batches_are_all_visible() {
        let mut rng = ChaCha20Rng::seed_from_u64(1);
        let mut mgr = manager(4);
        mgr.ingest_batch(
            (0..10).map(|i| UpdateEntry::insert(i, i * 10)).collect(),
            &mut rng,
        );
        mgr.ingest_batch(
            (10..20).map(|i| UpdateEntry::insert(i, i * 10)).collect(),
            &mut rng,
        );
        let outcome = mgr.query(Range::new(0, 255));
        assert_eq!(
            sorted(outcome.ids),
            sorted(mgr.ground_truth(Range::new(0, 255)))
        );
        assert_eq!(mgr.active_instances(), 2);
        assert_eq!(mgr.batches_ingested(), 2);
    }

    #[test]
    fn deletions_are_filtered_at_the_owner() {
        let mut rng = ChaCha20Rng::seed_from_u64(2);
        let mut mgr = manager(10);
        mgr.ingest_batch(
            vec![
                UpdateEntry::insert(1, 50),
                UpdateEntry::insert(2, 60),
                UpdateEntry::insert(3, 70),
            ],
            &mut rng,
        );
        mgr.ingest_batch(vec![UpdateEntry::delete(2, 60)], &mut rng);
        let outcome = mgr.query(Range::new(0, 255));
        assert_eq!(sorted(outcome.ids), vec![1, 3]);
        assert_eq!(sorted(mgr.ground_truth(Range::new(0, 255))), vec![1, 3]);
    }

    #[test]
    fn modifications_supersede_older_values() {
        let mut rng = ChaCha20Rng::seed_from_u64(3);
        let mut mgr = manager(10);
        mgr.ingest_batch(vec![UpdateEntry::insert(7, 10)], &mut rng);
        mgr.ingest_batch(vec![UpdateEntry::modify(7, 200)], &mut rng);
        // The tuple must be found at its new value…
        assert_eq!(mgr.query(Range::new(150, 255)).ids, vec![7]);
        // …and no longer at its old one.
        assert!(mgr.query(Range::new(0, 50)).is_empty());
    }

    #[test]
    fn consolidation_keeps_instance_count_logarithmic() {
        let mut rng = ChaCha20Rng::seed_from_u64(4);
        let step = 3;
        let mut mgr = manager(step);
        let batches = 27;
        for b in 0..batches {
            let entries = (0..5u64)
                .map(|i| UpdateEntry::insert(b as u64 * 100 + i, (b as u64 * 7 + i) % 256))
                .collect();
            mgr.ingest_batch(entries, &mut rng);
            // The paper's bound: at most s instances per level, log_s(b)+1 levels.
            let max_active = step * ((batches as f64).log(step as f64).ceil() as usize + 1);
            assert!(
                mgr.active_instances() <= max_active,
                "too many active instances: {}",
                mgr.active_instances()
            );
        }
        assert!(mgr.consolidations() > 0);
        // 27 batches with s=3 fully telescope into a single level-3 instance.
        assert_eq!(mgr.active_instances(), 1);
        // All inserted tuples remain visible after the merges.
        assert_eq!(mgr.query(Range::new(0, 255)).ids.len(), batches * 5);
    }

    #[test]
    fn structural_mode_answers_like_rebuild_and_splits_the_counters() {
        // Same batches into a rebuild-mode and a structural-mode manager:
        // answers must agree with each other and with ground truth, while
        // the consolidation counters attribute the work to the right
        // strategy. Step 2 forces multi-level telescoping, so structural
        // instances are themselves structurally re-merged.
        let step = 2;
        let config = |mode| UpdateConfig {
            consolidation_step: step,
            consolidation_mode: mode,
            ..UpdateConfig::default()
        };
        let mut rng_a = ChaCha20Rng::seed_from_u64(40);
        let mut rng_b = ChaCha20Rng::seed_from_u64(40);
        let mut rebuild = LogManager::new(Domain::new(256), config(ConsolidationMode::Rebuild));
        let mut structural =
            LogManager::new(Domain::new(256), config(ConsolidationMode::Structural));
        for b in 0..8u64 {
            let mut entries: Vec<UpdateEntry> = (0..5u64)
                .map(|i| UpdateEntry::insert(b * 10 + i, (b * 37 + i * 11) % 256))
                .collect();
            if b >= 2 {
                // Delete one tuple from an earlier batch, modify another.
                entries.push(UpdateEntry::delete((b - 2) * 10, ((b - 2) * 37) % 256));
                entries.push(UpdateEntry::modify((b - 1) * 10 + 1, (b * 53) % 256));
            }
            rebuild.ingest_batch(entries.clone(), &mut rng_a);
            structural.ingest_batch(entries, &mut rng_b);
            for lo in [0u64, 64, 128] {
                let range = Range::new(lo, lo + 90);
                assert_eq!(
                    sorted(rebuild.query(range).ids),
                    sorted(structural.query(range).ids),
                    "modes disagree after batch {b} on {range:?}"
                );
            }
        }
        let range = Range::new(0, 255);
        assert_eq!(
            sorted(structural.query(range).ids),
            sorted(structural.ground_truth(range))
        );
        assert_eq!(rebuild.consolidations(), structural.consolidations());
        assert_eq!(rebuild.structural_consolidations(), 0);
        assert_eq!(structural.rebuild_consolidations(), 0);
        assert!(structural.structural_consolidations() > 0);
        assert!(structural.structural_instances() > 0);
        assert_eq!(rebuild.structural_instances(), 0);
    }

    #[test]
    fn structural_mode_falls_back_to_rebuild_on_layout_mismatch() {
        // LogSrcIScheme has no structural-merge capability, so structural
        // mode must silently fall back to the rebuild path and attribute
        // the consolidations accordingly.
        let mut rng = ChaCha20Rng::seed_from_u64(41);
        let mut mgr: UpdateManager<LogSrcIScheme> = UpdateManager::new(
            Domain::new(128),
            UpdateConfig {
                consolidation_step: 2,
                consolidation_mode: ConsolidationMode::Structural,
                ..UpdateConfig::default()
            },
        );
        for b in 0..4u64 {
            mgr.ingest_batch(
                (0..4u64)
                    .map(|i| UpdateEntry::insert(b * 10 + i, (b * 17 + i * 5) % 128))
                    .collect(),
                &mut rng,
            );
        }
        assert!(mgr.consolidations() > 0);
        assert_eq!(mgr.structural_consolidations(), 0);
        assert_eq!(mgr.rebuild_consolidations(), mgr.consolidations());
        let range = Range::new(0, 127);
        assert_eq!(
            sorted(mgr.query(range).ids),
            sorted(mgr.ground_truth(range))
        );
    }

    #[test]
    fn consolidation_purges_deleted_tuples() {
        let mut rng = ChaCha20Rng::seed_from_u64(5);
        let mut mgr = manager(2);
        mgr.ingest_batch(
            vec![UpdateEntry::insert(1, 10), UpdateEntry::insert(2, 20)],
            &mut rng,
        );
        let before = mgr.index_stats();
        mgr.ingest_batch(vec![UpdateEntry::delete(1, 10)], &mut rng);
        // The two batches merged (s = 2) and the deleted tuple is physically
        // gone, so the consolidated index holds a single tuple.
        assert_eq!(mgr.active_instances(), 1);
        assert!(mgr.index_stats().entries < before.entries + 5);
        assert_eq!(mgr.query(Range::new(0, 255)).ids, vec![2]);
    }

    #[test]
    fn query_stats_accumulate_across_instances() {
        let mut rng = ChaCha20Rng::seed_from_u64(6);
        let mut mgr = manager(0); // never consolidate
        for b in 0..4u64 {
            mgr.ingest_batch(vec![UpdateEntry::insert(b, b * 11)], &mut rng);
        }
        assert_eq!(mgr.active_instances(), 4);
        let outcome = mgr.query(Range::new(0, 255));
        assert_eq!(outcome.ids.len(), 4);
        assert!(outcome.stats.tokens_sent >= 4, "one token set per instance");
    }

    #[test]
    fn works_with_interactive_schemes_too() {
        let mut rng = ChaCha20Rng::seed_from_u64(7);
        let mut mgr: UpdateManager<LogSrcIScheme> =
            UpdateManager::new(Domain::new(128), UpdateConfig::default());
        mgr.ingest_batch(
            (0..20)
                .map(|i| UpdateEntry::insert(i, (i * 13) % 128))
                .collect(),
            &mut rng,
        );
        mgr.ingest_batch(
            vec![UpdateEntry::delete(3, 39), UpdateEntry::insert(100, 64)],
            &mut rng,
        );
        let range = Range::new(0, 127);
        assert_eq!(
            sorted(mgr.query(range).ids.clone()),
            sorted(mgr.ground_truth(range))
        );
    }

    #[test]
    fn consolidated_deletion_does_not_resurrect_older_instances() {
        // Regression: a tuple inserted in an early (already consolidated)
        // instance and deleted in a later batch must stay deleted after the
        // deleting batch's level consolidates. The tombstone has to survive
        // the merge while any older live instance still touches the id.
        let mut rng = ChaCha20Rng::seed_from_u64(10);
        let mut mgr = manager(2);
        mgr.ingest_batch(vec![UpdateEntry::insert(1, 10)], &mut rng);
        mgr.ingest_batch(vec![UpdateEntry::insert(2, 20)], &mut rng);
        // Level 0 consolidated into instance A = {1, 2} at level 1.
        assert_eq!(mgr.active_instances(), 1);
        mgr.ingest_batch(vec![UpdateEntry::delete(1, 10)], &mut rng);
        mgr.ingest_batch(vec![UpdateEntry::insert(3, 30)], &mut rng);
        // The deleting batch merged with its level-0 sibling while A still
        // lives: id 1 must not resurrect from A.
        let range = Range::new(0, 255);
        assert_eq!(sorted(mgr.query(range).ids), vec![2, 3]);
        assert_eq!(sorted(mgr.ground_truth(range)), vec![2, 3]);
        // One more round of batches telescopes everything into one
        // instance; the tombstone finally meets the stale insert and both
        // are purged physically.
        mgr.ingest_batch(vec![UpdateEntry::insert(4, 40)], &mut rng);
        mgr.ingest_batch(vec![UpdateEntry::insert(5, 50)], &mut rng);
        assert_eq!(sorted(mgr.query(range).ids), vec![2, 3, 4, 5]);
        if mgr.active_instances() == 1 {
            // Fully consolidated: the index holds exactly the live tuples.
            let entries_per_tuple = 9; // domain 256 → log m + 1 keywords
            assert_eq!(mgr.index_stats().entries, 4 * entries_per_tuple);
        }
    }

    #[test]
    fn modification_survives_consolidation_of_the_modifying_batch() {
        // Same resurrection scenario through the modify path: the old value
        // must stay dead once the modifying batch consolidates.
        let mut rng = ChaCha20Rng::seed_from_u64(11);
        let mut mgr = manager(2);
        mgr.ingest_batch(vec![UpdateEntry::insert(7, 10)], &mut rng);
        mgr.ingest_batch(vec![UpdateEntry::insert(8, 11)], &mut rng);
        mgr.ingest_batch(vec![UpdateEntry::modify(7, 200)], &mut rng);
        mgr.ingest_batch(vec![UpdateEntry::insert(9, 12)], &mut rng);
        assert!(
            mgr.query(Range::new(0, 50)).ids != vec![7],
            "old value must stay dead"
        );
        assert_eq!(sorted(mgr.query(Range::new(0, 50)).ids), vec![8, 9]);
        assert_eq!(mgr.query(Range::new(150, 255)).ids, vec![7]);
    }

    #[test]
    fn sharded_rebuilds_answer_identically_to_unsharded() {
        // The rebuild path goes through build_stored: a manager configured
        // with shard bits must stay logically identical to an unsharded one
        // across ingestion and consolidation.
        let mut rng_a = ChaCha20Rng::seed_from_u64(9);
        let mut rng_b = ChaCha20Rng::seed_from_u64(9);
        let mut plain = manager(3);
        let mut sharded = LogManager::new(
            Domain::new(256),
            UpdateConfig {
                consolidation_step: 3,
                shard_bits: 4,
                storage_root: None,
                cache_budget: None,
                build_budget: None,
                consolidation_mode: ConsolidationMode::default(),
            },
        );
        for b in 0..9u64 {
            let entries: Vec<UpdateEntry> = (0..6u64)
                .map(|i| UpdateEntry::insert(b * 10 + i, (b * 31 + i * 7) % 256))
                .collect();
            plain.ingest_batch(entries.clone(), &mut rng_a);
            sharded.ingest_batch(entries, &mut rng_b);
        }
        assert_eq!(plain.consolidations(), sharded.consolidations());
        for range in [Range::new(0, 255), Range::new(10, 60), Range::new(200, 220)] {
            assert_eq!(
                sorted(sharded.query(range).ids),
                sorted(plain.query(range).ids)
            );
        }
        // Sharding is layout-only: index sizes agree too.
        assert_eq!(plain.index_stats().entries, sharded.index_stats().entries);
    }

    #[test]
    fn a_consolidation_step_of_one_is_refused() {
        let config = UpdateConfig {
            consolidation_step: 1,
            ..UpdateConfig::default()
        };
        let new = std::panic::catch_unwind(|| LogManager::new(Domain::new(256), config.clone()));
        let message = *new.err().expect("new panics").downcast::<String>().unwrap();
        assert!(message.contains("consolidation_step"), "{message}");
        let key = || OwnerKey::from_bytes([5u8; 32]);
        let with_key = std::panic::catch_unwind(|| {
            LogManager::with_key(key(), Domain::new(256), config.clone())
        });
        assert!(with_key.is_err(), "with_key panics");

        // A root written at s = 2 reopens at 2, never at 1.
        let root = TempDir::new("step-one");
        let on_disk = |step| UpdateConfig {
            consolidation_step: step,
            storage_root: Some(root.path().to_path_buf()),
            ..UpdateConfig::default()
        };
        let mut mgr = LogManager::with_key(key(), Domain::new(256), on_disk(2));
        mgr.ingest_batch(
            vec![UpdateEntry::insert(1, 10)],
            &mut ChaCha20Rng::seed_from_u64(53),
        );
        drop(mgr);
        let err = LogManager::open_root(key(), root.path(), on_disk(1))
            .err()
            .expect("s = 1 is refused");
        assert!(
            matches!(&err, StorageError::Unsupported(why) if why.contains("consolidation_step")),
            "{err:?}"
        );
        assert!(LogManager::open_root(key(), root.path(), on_disk(2)).is_ok());
    }

    #[test]
    #[should_panic(expected = "outside domain")]
    fn out_of_domain_update_is_rejected() {
        let mut rng = ChaCha20Rng::seed_from_u64(8);
        let mut mgr = manager(4);
        mgr.ingest_batch(vec![UpdateEntry::insert(1, 10_000)], &mut rng);
    }

    use rsse_sse::test_support::TempDir;

    #[test]
    fn persistent_manager_answers_identically_to_in_memory() {
        // Every level on disk: batch builds and consolidation rebuilds both
        // write through the on-disk backend, and query results stay
        // identical to the purely in-memory manager on the same RNG stream.
        let root = TempDir::new("persist-eq");
        let mut rng_a = ChaCha20Rng::seed_from_u64(12);
        let mut rng_b = ChaCha20Rng::seed_from_u64(12);
        let mut in_memory = manager(3);
        let mut on_disk = LogManager::new(
            Domain::new(256),
            UpdateConfig {
                consolidation_step: 3,
                shard_bits: 2,
                storage_root: Some(root.path().to_path_buf()),
                cache_budget: None,
                build_budget: None,
                consolidation_mode: ConsolidationMode::default(),
            },
        );
        for b in 0..9u64 {
            let entries: Vec<UpdateEntry> = (0..6u64)
                .map(|i| UpdateEntry::insert(b * 10 + i, (b * 29 + i * 13) % 256))
                .collect();
            in_memory.ingest_batch(entries.clone(), &mut rng_a);
            on_disk.ingest_batch(entries, &mut rng_b);
        }
        assert_eq!(on_disk.consolidations(), in_memory.consolidations());
        for range in [Range::new(0, 255), Range::new(10, 60), Range::new(200, 220)] {
            assert_eq!(
                sorted(on_disk.query(range).ids),
                sorted(in_memory.query(range).ids)
            );
        }
        assert_eq!(
            on_disk.index_stats().entries,
            in_memory.index_stats().entries
        );
    }

    #[test]
    fn consolidation_removes_superseded_instance_directories() {
        let root = TempDir::new("persist-gc");
        let mut rng = ChaCha20Rng::seed_from_u64(13);
        let mut mgr = LogManager::new(
            Domain::new(256),
            UpdateConfig {
                consolidation_step: 2,
                shard_bits: 0,
                storage_root: Some(root.path().to_path_buf()),
                cache_budget: None,
                build_budget: None,
                consolidation_mode: ConsolidationMode::default(),
            },
        );
        mgr.ingest_batch(vec![UpdateEntry::insert(1, 10)], &mut rng);
        // The root holds the instance directory plus the manager.meta
        // manifest committed at the end of the ingest.
        assert_eq!(
            root.subdir_count(),
            2,
            "one persisted instance + the root manifest after one batch"
        );
        mgr.ingest_batch(vec![UpdateEntry::insert(2, 20)], &mut rng);
        // s = 2: the two level-0 instances merged into one level-1 instance;
        // their directories are gone, only the merged one (and the
        // manifest) remains.
        assert_eq!(mgr.active_instances(), 1);
        assert_eq!(
            root.subdir_count(),
            mgr.active_instances() + 1,
            "exactly one directory per active instance + the manifest"
        );
        assert_eq!(sorted(mgr.query(Range::new(0, 255)).ids), vec![1, 2]);
    }

    #[test]
    fn failed_batch_build_leaves_no_partial_directory() {
        // Plant a directory where the first instance's shard FILE must go:
        // the build fails after the manifest is already written, and the
        // half-written instance directory must be cleaned up, not leaked.
        let root = TempDir::new("persist-leak");
        let instance_dir = root.path().join("instance-00000000");
        std::fs::create_dir_all(instance_dir.join("shard-00000.shd")).unwrap();
        let mut rng = ChaCha20Rng::seed_from_u64(15);
        let mut mgr = LogManager::new(
            Domain::new(256),
            UpdateConfig {
                consolidation_step: 2,
                shard_bits: 0,
                storage_root: Some(root.path().to_path_buf()),
                cache_budget: None,
                build_budget: None,
                consolidation_mode: ConsolidationMode::default(),
            },
        );
        let err = mgr
            .try_ingest_batch(vec![UpdateEntry::insert(1, 10)], &mut rng)
            .expect_err("occupied shard path must fail the build");
        assert!(matches!(err, rsse_core::StorageError::Io { .. }));
        assert_eq!(mgr.active_instances(), 0);
        assert_eq!(
            root.subdir_count(),
            0,
            "the partial instance directory must be removed on failure"
        );
    }

    #[test]
    fn try_ingest_surfaces_storage_errors_without_losing_state() {
        // Point the storage root somewhere unwritable: a path whose parent
        // is a regular file. The failed ingest must leave the manager empty
        // and report a typed Io error instead of panicking.
        let root = TempDir::new("persist-err");
        let file_path = root.path().join("not-a-dir");
        std::fs::write(&file_path, b"occupied").unwrap();
        let mut rng = ChaCha20Rng::seed_from_u64(14);
        let mut mgr = LogManager::new(
            Domain::new(256),
            UpdateConfig {
                consolidation_step: 2,
                shard_bits: 0,
                storage_root: Some(file_path.join("sub")),
                cache_budget: None,
                build_budget: None,
                consolidation_mode: ConsolidationMode::default(),
            },
        );
        let err = mgr
            .try_ingest_batch(vec![UpdateEntry::insert(1, 10)], &mut rng)
            .expect_err("unwritable root must fail");
        assert!(matches!(err, rsse_core::StorageError::Io { .. }));
        assert_eq!(mgr.active_instances(), 0);
        assert_eq!(mgr.batches_ingested(), 0);
        assert!(mgr.query(Range::new(0, 255)).is_empty());
    }

    const MODES: [ConsolidationMode; 2] =
        [ConsolidationMode::Rebuild, ConsolidationMode::Structural];

    /// The authority index holds exactly the ids some live instance
    /// touches — a purge leaks no entry, a merge loses none — each under
    /// the newest instance touching it, tombstoned exactly where that
    /// instance's op is a deletion (the from-scratch pass compares both
    /// halves of every entry).
    fn assert_index_is_exact(mgr: &LogManager, when: &str) {
        let touched: HashSet<DocId> = (mgr.levels.iter().flatten())
            .flat_map(|instance| instance.ops.keys().copied())
            .collect();
        assert_eq!(mgr.newest_touch.len(), touched.len(), "index size {when}");
        assert_eq!(
            mgr.newest_touch,
            LogManager::newest_touch_of(&mgr.levels),
            "index {when}"
        );
    }

    /// `(seq of the newest instance touching id, tombstone bit)`.
    fn touch(mgr: &LogManager, id: DocId) -> (u64, bool) {
        let touch = mgr.newest_touch[&id];
        (touch.seq(), touch.is_tombstone())
    }

    #[test]
    fn touch_packs_the_tombstone_into_the_top_bit() {
        for seq in [0, 1, 41, Touch::TOMBSTONE - 1] {
            for op in [UpdateOp::Insert, UpdateOp::Modify, UpdateOp::Delete] {
                let touch = Touch::new(seq, op);
                assert_eq!(touch.seq(), seq);
                assert_eq!(touch.is_tombstone(), op == UpdateOp::Delete);
                assert_eq!(touch == Touch::live(seq), op != UpdateOp::Delete);
                assert_ne!(touch, Touch::live(seq ^ 1));
            }
        }
        assert_eq!(std::mem::size_of::<(DocId, Touch)>(), 16);
    }

    #[test]
    fn authority_index_follows_ingests_merges_and_purges_in_both_modes() {
        for mode in MODES {
            let mut rng = ChaCha20Rng::seed_from_u64(50);
            let mut mgr = LogManager::new(
                Domain::new(256),
                UpdateConfig {
                    consolidation_step: 3,
                    consolidation_mode: mode,
                    ..UpdateConfig::default()
                },
            );
            let mut ingest = |mgr: &mut LogManager, entries: Vec<UpdateEntry>, when: &str| {
                mgr.ingest_batch(entries, &mut rng);
                assert_index_is_exact(mgr, when);
            };
            let batch = (1..=3).map(|id| UpdateEntry::insert(id, id * 10)).collect();
            ingest(&mut mgr, batch, "after an ingest");
            assert_eq!(mgr.newest_touch.len(), 3);
            ingest(
                &mut mgr,
                vec![UpdateEntry::insert(4, 40)],
                "after an ingest",
            );
            ingest(&mut mgr, vec![UpdateEntry::insert(5, 50)], "after a merge");
            // A = {1..5} sits at level 1, carrying the seq of its newest input.
            assert_eq!((mgr.active_instances(), mgr.consolidations()), (1, 1));
            assert!(mgr.newest_touch.values().all(|&t| t == Touch::live(2)));

            // The next level-0 group deletes 1 and modifies 2, both living
            // in A: the tombstone must survive the merge (A still touches
            // 1), and the merged instance B owns both ids.
            ingest(&mut mgr, vec![UpdateEntry::delete(1, 10)], "after a delete");
            assert_eq!(touch(&mgr, 1), (3, true), "the batch's tombstone");
            ingest(
                &mut mgr,
                vec![UpdateEntry::insert(6, 60)],
                "after an ingest",
            );
            ingest(&mut mgr, vec![UpdateEntry::modify(2, 99)], "after a merge");
            assert_eq!((mgr.active_instances(), mgr.consolidations()), (2, 2));
            assert_eq!(mgr.newest_touch.len(), 6, "ids 1..=6, the tombstone's too");
            for (id, owner) in [(1, 5), (2, 5), (3, 2), (4, 2), (5, 2), (6, 5)] {
                // Only the deleted-but-unpurged id carries the bit.
                assert_eq!(touch(&mgr, id), (owner, id == 1), "touch of id {id}");
            }
            assert_eq!(
                sorted(mgr.query(Range::new(0, 255)).ids),
                vec![2, 3, 4, 5, 6]
            );

            // Three more batches cascade through both levels: the tombstone
            // meets its insert, both are purged, and id 1 leaves the index.
            for id in 7..=9 {
                ingest(
                    &mut mgr,
                    vec![UpdateEntry::insert(id, id)],
                    "after a cascade",
                );
            }
            assert_eq!((mgr.active_instances(), mgr.consolidations()), (1, 4));
            assert!(!mgr.newest_touch.contains_key(&1), "purged id leaked");
            assert_eq!(mgr.newest_touch.len(), 8);
            assert!(mgr.newest_touch.values().all(|&t| t == Touch::live(8)));
            assert_eq!(
                mgr.structural_instances(),
                usize::from(mode == ConsolidationMode::Structural)
            );

            // A delete above the merged instance sets the bit, and a later
            // re-insert of the same id clears it.
            ingest(&mut mgr, vec![UpdateEntry::delete(3, 30)], "after a delete");
            assert_eq!(touch(&mgr, 3), (9, true));
            assert_eq!(
                sorted(mgr.query(Range::new(0, 255)).ids),
                vec![2, 4, 5, 6, 7, 8, 9]
            );
            ingest(
                &mut mgr,
                vec![UpdateEntry::insert(3, 33)],
                "after a re-insert",
            );
            assert_eq!(touch(&mgr, 3), (10, false));
            assert_eq!(mgr.query(Range::new(31, 35)).ids, vec![3]);
            assert!(mgr.query(Range::new(30, 30)).is_empty());
        }
    }

    #[test]
    fn authority_index_survives_a_rolled_back_merge_and_a_reopen() {
        // s = 2, build numbers: b0 = 0, b1 = 1, A = b0 + b1 = 2, b2 = 3.
        // Batch 3 (build 4, never built on success) drains level 0 and
        // level 1: its one rebuild of A + b2 + b3 takes build 6 (5 is
        // burned for the level-0 merge the chain skips), whose shard file's
        // place a planted directory occupies, so that rebuild fails and b3
        // is built alone under 4. (Planted just before that ingest: each
        // commit sweeps unreferenced instance directories.)
        let root = TempDir::new("index-rollback");
        let config = UpdateConfig {
            consolidation_step: 2,
            storage_root: Some(root.path().to_path_buf()),
            ..UpdateConfig::default()
        };
        let key = || OwnerKey::from_bytes([9u8; 32]);
        let mut rng = ChaCha20Rng::seed_from_u64(51);
        let mut mgr = LogManager::with_key(key(), Domain::new(256), config.clone());
        let batch = vec![UpdateEntry::insert(1, 10), UpdateEntry::insert(2, 20)];
        mgr.ingest_batch(batch, &mut rng);
        mgr.ingest_batch(vec![UpdateEntry::insert(3, 30)], &mut rng);
        mgr.ingest_batch(vec![UpdateEntry::insert(4, 40)], &mut rng);
        std::fs::create_dir_all(root.path().join("instance-00000006/shard-00000.shd")).unwrap();
        mgr.try_ingest_batch(vec![UpdateEntry::delete(1, 10)], &mut rng)
            .expect_err("the chain's rebuild hits the planted directory");
        // The rebuild was rolled back and b3 stands alone at level 0: it
        // owns the tombstone of 1, A and b2 keep the rest.
        assert_eq!((mgr.active_instances(), mgr.consolidations()), (3, 1));
        assert_eq!(mgr.levels[0].len(), 2, "b2 and b3 at level 0");
        assert_eq!(
            mgr.levels[0][1].build_id, 4,
            "b3 under its own build number"
        );
        assert_index_is_exact(&mgr, "after a rolled-back merge");
        for (id, owner) in [(1, 3), (2, 1), (3, 1), (4, 2)] {
            assert_eq!(touch(&mgr, id), (owner, id == 1), "touch of id {id}");
        }

        // The next batch (seq 4) first completes the chain the failure left
        // due — A + b2 + b3 commit at level 2 with seq 3, and the
        // tombstone of 1 is purged and leaves — and then stands at level 0:
        // id 2 lives in the group but belongs to the newer batch.
        let batch = vec![UpdateEntry::modify(2, 99), UpdateEntry::insert(5, 50)];
        mgr.ingest_batch(batch, &mut rng);
        assert_eq!((mgr.active_instances(), mgr.consolidations()), (2, 3));
        assert_index_is_exact(&mgr, "after a merge below a newer instance");
        assert_eq!(mgr.newest_touch.len(), 4);
        for (id, owner) in [(2, 4), (3, 3), (4, 3), (5, 4)] {
            assert_eq!(touch(&mgr, id), (owner, false), "touch of id {id}");
        }
        assert_eq!(mgr.query(Range::new(90, 255)).ids, vec![2]);
        assert!(mgr.query(Range::new(0, 25)).is_empty());

        let index = mgr.newest_touch.clone();
        drop(mgr);
        let reopened = LogManager::open_root(key(), root.path(), config).unwrap();
        assert_index_is_exact(&reopened, "after a reopen");
        assert_eq!(reopened.newest_touch, index);
    }

    /// `try_query` as it ran before the index was maintained, sharing none
    /// of the refinement's state: its own id → newest-seq map built from
    /// scratch per call with std's hasher, then per id one lookup of that
    /// map, one of the instance's ops, and a dedup set.
    fn per_query_pass(mgr: &LogManager, range: Range) -> QueryOutcome {
        let mut newest_seq: HashMap<DocId, u64> = HashMap::new();
        for instance in mgr.levels.iter().flatten() {
            for &id in instance.ops.keys() {
                let seq = newest_seq.entry(id).or_insert(instance.seq);
                *seq = (*seq).max(instance.seq);
            }
        }
        let mut ids: Vec<DocId> = Vec::new();
        let mut seen: HashSet<DocId> = HashSet::new();
        let mut stats = QueryStats::default();
        for instance in mgr.levels.iter().flatten() {
            let outcome = instance.try_query(range).unwrap();
            stats.absorb(&outcome.stats);
            for id in outcome.ids {
                if newest_seq.get(&id) == Some(&instance.seq)
                    && instance.ops.get(&id) != Some(&UpdateOp::Delete)
                    && seen.insert(id)
                {
                    ids.push(id);
                }
            }
        }
        QueryOutcome { ids, stats }
    }

    #[test]
    fn try_query_outcome_equals_the_per_query_pass_on_the_churn_stream() {
        // The churn of `tests/consolidation.rs`: every batch modifies and
        // deletes into the one before it and re-inserts the id it deleted
        // from the one before that, ten batches at s = 3. The whole
        // outcome — ids in emission order and every `QueryStats` counter —
        // must be what the per-query pass produced, after every batch, in
        // memory and on disk, and again once the on-disk manager reopens
        // (its index then comes from the from-scratch pass).
        const DOMAIN: u64 = 1 << 10;
        let seed = 3u64;
        let ranges = [(0, DOMAIN - 1), (0, 127), (200, 500), (700, DOMAIN - 1)];
        let assert_equal = |mgr: &LogManager, when: &str| {
            for (lo, hi) in ranges {
                let range = Range::new(lo, hi);
                assert_eq!(
                    mgr.try_query(range).unwrap(),
                    per_query_pass(mgr, range),
                    "{when}, {range:?}"
                );
            }
        };
        let key = || OwnerKey::from_bytes([3u8; 32]);
        for mode in MODES {
            for on_disk in [false, true] {
                let root = TempDir::new("churn-oracle");
                let config = UpdateConfig {
                    consolidation_step: 3,
                    consolidation_mode: mode,
                    storage_root: on_disk.then(|| root.path().to_path_buf()),
                    ..UpdateConfig::default()
                };
                let mut mgr = LogManager::with_key(key(), Domain::new(DOMAIN), config.clone());
                for b in 0..10u64 {
                    let mut entries: Vec<UpdateEntry> = (0..10u64)
                        .map(|i| {
                            UpdateEntry::insert(b * 20 + i, (seed * 71 + b * 97 + i * 13) % DOMAIN)
                        })
                        .collect();
                    if b > 0 {
                        let modified = (b - 1) * 20 + (b % 7);
                        entries.push(UpdateEntry::modify(modified, (seed * 31 + b * 53) % DOMAIN));
                        let value = (seed * 71 + (b - 1) * 97 + 13) % DOMAIN;
                        entries.push(UpdateEntry::delete((b - 1) * 20 + 1, value));
                    }
                    if b > 1 {
                        let value = (seed * 17 + b * 41) % DOMAIN;
                        entries.push(UpdateEntry::insert((b - 2) * 20 + 1, value));
                    }
                    let mut rng = ChaCha20Rng::seed_from_u64(seed * 10_000 + b);
                    mgr.ingest_batch(entries, &mut rng);
                    assert_equal(&mgr, &format!("{mode:?}, on disk {on_disk}, batch {b}"));
                }
                assert_eq!(mgr.consolidations(), 4);
                if on_disk {
                    drop(mgr);
                    let reopened = LogManager::open_root(key(), root.path(), config).unwrap();
                    assert_equal(&reopened, &format!("{mode:?}, reopened"));
                }
            }
        }
    }

    /// What a walk over the instances one after another returns: each
    /// instance's authoritative ids in instance order, and the first
    /// failing instance's error.
    fn sequential_walk(mgr: &LogManager, range: Range) -> Result<QueryOutcome, StorageError> {
        let mut walked = QueryOutcome::default();
        for instance in mgr.levels.iter().flatten() {
            let outcome = instance.try_query(range)?;
            walked.stats.absorb(&outcome.stats);
            let live = Touch::live(instance.seq);
            let authoritative = |id: &DocId| mgr.newest_touch.get(id) == Some(&live);
            walked
                .ids
                .extend(outcome.ids.into_iter().filter(authoritative));
        }
        Ok(walked)
    }

    /// The failing file and the I/O error's kind of a storage error.
    fn io_failure(err: &StorageError) -> (PathBuf, std::io::ErrorKind) {
        match err {
            StorageError::Io { path, error } => (path.clone(), error.kind()),
            other => panic!("an injected fault surfaces as I/O: {other:?}"),
        }
    }

    /// A manager over `root` holding one unconsolidated on-disk instance
    /// per size in `sizes`, in ingest order; each batch after the first
    /// modifies an id of an older one and deletes another, so refinement
    /// drops ids from several instances.
    fn uneven_instances(root: &Path, sizes: &[u64]) -> LogManager {
        let mut mgr = LogManager::new(
            Domain::new(256),
            UpdateConfig {
                consolidation_step: 8,
                storage_root: Some(root.to_path_buf()),
                ..UpdateConfig::default()
            },
        );
        let mut values: BTreeMap<DocId, u64> = BTreeMap::new();
        let mut next = 0u64;
        for (b, &size) in sizes.iter().enumerate() {
            let b = b as u64;
            let mut entries: Vec<UpdateEntry> = (next..next + size)
                .map(|id| UpdateEntry::insert(id, (id * 37 + b * 11) % 256))
                .collect();
            next += size;
            if b > 0 {
                entries.push(UpdateEntry::modify(3 * b, (b * 59) % 256));
                let deleted = 3 * b + 1;
                entries.push(UpdateEntry::delete(deleted, values[&deleted]));
            }
            for entry in &entries {
                values.insert(entry.record.id, entry.record.value);
            }
            mgr.ingest_batch(entries, &mut ChaCha20Rng::seed_from_u64(60 + b));
        }
        assert_eq!(
            mgr.levels.iter().flatten().count(),
            sizes.len(),
            "no consolidation ran"
        );
        mgr
    }

    #[test]
    fn try_query_fans_out_like_the_sequential_walk() {
        use rsse_sse::fault::FaultPlan;
        use rsse_sse::formats::arm_faults;
        use std::time::Duration;

        // The instances are handed out largest first, and folded back in
        // instance order: the ids come back as the walk returns them
        // whether the largest instance is first, last or in the middle.
        let ranges = [Range::new(0, 255), Range::new(0, 90), Range::new(100, 200)];
        for sizes in [
            [40, 10, 10, 10, 40],
            [10, 10, 60, 10, 20],
            [5, 10, 20, 30, 40],
        ] {
            let root = TempDir::new("fan-out");
            let mgr = uneven_instances(root.path(), &sizes);
            for range in ranges {
                let outcome = mgr.try_query(range).unwrap();
                assert_eq!(
                    outcome,
                    sequential_walk(&mgr, range).unwrap(),
                    "{sizes:?} {range:?}"
                );
            }
        }

        // An early, small instance fails slowly, a later one at once. The
        // later one is the largest, so it is handed out first and its error
        // comes first in time; yet the earlier instance's error is the one
        // the walk meets and the one to return.
        let root = TempDir::new("fan-out-faults");
        let mgr = uneven_instances(root.path(), &[10, 10, 60, 10, 20]);
        let instances: Vec<&BatchInstance<LogScheme>> = mgr.levels.iter().flatten().collect();
        let slow = instances[1].dir.clone().expect("on disk");
        let fast = instances[2].dir.clone().expect("on disk");
        let slow_plan = FaultPlan::dead_after(0).latency(Duration::from_millis(30));
        let _slow = arm_faults(&slow, slow_plan, None);
        let _fast = arm_faults(&fast, FaultPlan::dead_after(0), None);
        for range in ranges {
            let walked = io_failure(&sequential_walk(&mgr, range).unwrap_err());
            assert!(walked.0.starts_with(&slow), "{walked:?}");
            for _ in 0..3 {
                let err = mgr.try_query(range).unwrap_err();
                assert_eq!(io_failure(&err), walked, "{range:?}");
            }
        }
    }

    #[test]
    fn open_root_rejects_a_seq_that_reaches_the_tombstone_bit() {
        let root = TempDir::new("seq-bound");
        let config = UpdateConfig {
            storage_root: Some(root.path().to_path_buf()),
            ..UpdateConfig::default()
        };
        let key = || OwnerKey::from_bytes([4u8; 32]);
        let mut mgr = LogManager::with_key(key(), Domain::new(256), config.clone());
        mgr.ingest_batch(
            vec![UpdateEntry::insert(1, 10)],
            &mut ChaCha20Rng::seed_from_u64(52),
        );
        let dir = mgr.levels[0][0].dir.clone().unwrap();
        drop(mgr);
        // Forge seq 2^63 into the manifest and the sidecar alike, so that
        // the two agree and only the bound can catch it.
        let mut manifest = read_manager_manifest(root.path()).unwrap();
        manifest.levels[0][0].seq = Touch::TOMBSTONE;
        manifest.next_seq = Touch::TOMBSTONE + 1;
        write_manager_manifest(root.path(), &manifest).unwrap();
        let mut meta = read_owner_meta(&dir).unwrap();
        meta.seq = Touch::TOMBSTONE;
        write_owner_meta(&dir, &meta).unwrap();
        let err = LogManager::open_root(key(), root.path(), config)
            .err()
            .expect("a seq at the tombstone bit is corrupt");
        assert!(
            matches!(&err, StorageError::CorruptDirectory { detail, .. } if detail.contains("out of range")),
            "{err:?}"
        );
    }
}
