//! The owner-side update manager: ingestion, querying across active
//! instances, and hierarchical consolidation.
//!
//! A persisted manager's ingest is **atomic on disk**. Every instance
//! directory is committed by its `owner.meta` (written last), a cascade of
//! consolidations removes no input before its last merge has committed, and
//! the root manifest is rewritten last of all; [`UpdateManager::open_root`]
//! turns whatever a crash leaves between those points back into the pre- or
//! the post-ingest state (`docs/FORMATS.md`, "Manager crash recovery"). No
//! function here takes a crash or kill argument: every filesystem mutation
//! is a call into [`rsse_sse::formats`], whose gate the crash tests arm
//! from outside (`tests/crash_replay.rs`).

use crate::batch::{UpdateEntry, UpdateOp};
use crate::manifest::{
    read_manager_manifest, read_owner_meta, write_manager_manifest, write_owner_meta,
    ManagerManifest, ManifestInstance, OwnerMeta, MANAGER_MANIFEST_FILE,
};
use crate::persist::{self, OwnerKey, OwnerPayload, SEED_LEN};
use rand::{CryptoRng, RngCore, SeedableRng};
use rand_chacha::ChaCha20Rng;
use rsse_core::{
    BuildBudget, Dataset, DocId, IndexStats, MergeInput, QueryOutcome, QueryStats, RangeScheme,
    Record, StorageConfig, StorageError,
};
use rsse_cover::{Domain, Range};
use rsse_crypto::KeyChain;
use rsse_sse::formats::{self, io_err};
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
    /// a separate index forever).
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
    /// reads), and the subdirectories of instances consumed by a
    /// consolidation are removed once the merged instance is durably built.
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
    /// Latest operation per id inside this instance.
    ops: HashMap<DocId, UpdateOp>,
    /// Directory holding this instance's persisted index, when the manager
    /// runs on an on-disk backend; removed when the instance is consumed by
    /// a consolidation.
    dir: Option<PathBuf>,
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
        authority: HashMap<DocId, u32>,
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
fn ops_of<'a>(deduped: impl ExactSizeIterator<Item = &'a UpdateEntry>) -> HashMap<DocId, UpdateOp> {
    let mut ops = HashMap::with_capacity(deduped.len());
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
        let authority: HashMap<DocId, u32> = tagged_entries
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
    /// refined away) and accumulating the parts' costs.
    fn try_query(&self, range: Range) -> Result<QueryOutcome, StorageError> {
        match &self.kind {
            InstanceKind::Plain { client, .. } => client.try_query(&self.server, range),
            InstanceKind::Structural { parts, authority } => {
                let mut ids: Vec<DocId> = Vec::new();
                let mut stats = QueryStats::default();
                for (index, (client, _)) in parts.iter().enumerate() {
                    let outcome = client.try_query(&self.server, range)?;
                    stats.absorb(&outcome.stats);
                    for id in outcome.ids {
                        if authority.get(&id) == Some(&(index as u32)) {
                            ids.push(id);
                        }
                    }
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

/// Best-effort removal of the instance directory a failed build or merge
/// was writing (a leftover is swept by the next `open_root`).
fn discard_build(config: &StorageConfig) {
    if let rsse_core::StorageBackend::OnDisk(dir) = &config.backend {
        let _ = formats::remove_dir_all(dir);
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
    /// The owner's refinement (authority) index: `id → seq` of the newest
    /// live instance touching the id — the one instance whose answer for
    /// the id counts (its `ops` holds the op). One entry per id any live
    /// instance touches. Derived from `levels` and never persisted; it
    /// changes only where the set of instances does: an ingest overwrites
    /// its batch's ids (O(batch)), a committed merge re-points or drops its
    /// group's ids ([`Self::repoint_merged`], O(group)), and `open_root`
    /// computes it once from the recovered levels (O(live ids)). Queries
    /// only read it.
    newest_touch: HashMap<DocId, u64>,
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
    pub fn new(domain: Domain, config: UpdateConfig) -> Self {
        Self {
            domain,
            config,
            chain: None,
            levels: Vec::new(),
            newest_touch: HashMap::new(),
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
    /// fresh key and triggers any due consolidations.
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
    /// [`StorageError`]s instead of panicking. A failed batch build leaves
    /// the manager unchanged; a failed consolidation rebuild restores its
    /// input instances (the batch itself stays ingested), so active state
    /// never degrades on error.
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
        // a merge failed mid-cascade — the incrementally maintained index
        // must be what a pass over the live instances computes.
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
        let seq = self.next_seq;
        let (build_id, config) = self.next_instance_config();
        let chain = self.chain.as_ref().expect("chain ensured above");
        let instance =
            BatchInstance::build(self.domain, build_id, seq, 0, entries, &config, chain, seed)
                .inspect_err(|_| discard_build(&config))?;
        self.next_seq += 1;
        self.batches_ingested += 1;
        if self.levels.is_empty() {
            self.levels.push(Vec::new());
        }
        // The batch carries the newest sequence number there is, so it owns
        // every id it touches.
        self.newest_touch
            .extend(instance.ops.keys().map(|&id| (id, seq)));
        self.levels[0].push(instance);
        self.consolidate_due_levels(rng)?;
        // The manifest is committed last, once every instance directory it
        // references is durable: a crash anywhere above leaves a manifest
        // describing the previous consistent state, which open_root heals
        // (rolling an uncommitted ingest back, a fully consolidated one
        // forward).
        self.persist_manifest()
    }

    /// Runs every due consolidation, bottom-up, as one atomic cascade: the
    /// directories of every merge's inputs stay until the last merge has
    /// committed and are removed only then. A crash before that point
    /// leaves the whole pre-ingest state on disk for `open_root` to roll
    /// back to; a crash after it leaves the top merged instance, which
    /// supersedes everything below it. A failed merge keeps its inputs
    /// active and the merges before it stand; the directories those
    /// superseded are left for the next `open_root` to sweep, so that the
    /// stale manifest never references a removed directory.
    fn consolidate_due_levels<R: RngCore + CryptoRng>(
        &mut self,
        rng: &mut R,
    ) -> Result<(), StorageError> {
        let step = self.config.consolidation_step;
        if step == 0 {
            return Ok(());
        }
        let mut superseded: Vec<PathBuf> = Vec::new();
        let mut level = 0;
        while level < self.levels.len() {
            if self.levels[level].len() >= step {
                let mut group: Vec<BatchInstance<S>> = self.levels[level].drain(..).collect();
                match self.merge_instances(&mut group, level, rng) {
                    Ok((instance, structural)) => {
                        self.repoint_merged(&group, &instance);
                        if self.levels.len() <= level + 1 {
                            self.levels.push(Vec::new());
                        }
                        self.levels[level + 1].push(instance);
                        if structural {
                            self.structural_consolidations += 1;
                        } else {
                            self.rebuild_consolidations += 1;
                        }
                        superseded.extend(group.into_iter().filter_map(|input| input.dir));
                    }
                    Err(error) => {
                        // Roll back: the inputs stay active, nothing lost
                        // (and the authority index never left them).
                        self.levels[level] = group;
                        return Err(error);
                    }
                }
            }
            level += 1;
        }
        // Best effort: a leftover directory wastes disk until the next
        // `open_root` sweeps it, but cannot corrupt the merged state.
        for dir in superseded {
            let _ = formats::remove_dir_all(&dir);
        }
        Ok(())
    }

    /// The authority-index rule of a committed merge: an id whose newest
    /// touch was one of the `inputs` now belongs to `merged` (which carries
    /// the group's newest sequence number) — or leaves the index, when the
    /// merge purged its tombstone, which it only does if no instance outside
    /// the group touches the id. An id a newer instance outside the group
    /// owns stays put. O(ids of the group), not of the database.
    fn repoint_merged(&mut self, inputs: &[BatchInstance<S>], merged: &BatchInstance<S>) {
        for input in inputs {
            for &id in input.ops.keys() {
                if self.newest_touch.get(&id) != Some(&input.seq) {
                    continue;
                }
                if merged.ops.contains_key(&id) {
                    self.newest_touch.insert(id, merged.seq);
                } else {
                    self.newest_touch.remove(&id);
                }
            }
        }
    }

    /// The authority index from scratch, one pass over every id of every
    /// instance: [`open_root`](Self::open_root)'s initializer, and the
    /// oracle debug builds hold the incremental rules to.
    fn newest_touch_of(levels: &[Vec<BatchInstance<S>>]) -> HashMap<DocId, u64> {
        // Sized once for every touch — the number of ids when none lives
        // in two instances, never more than the `ops` maps hold together.
        // Growing from empty instead costs the pass 3× (1.9 vs 0.7 ms at
        // 40 k ids).
        let touches = levels.iter().flatten().map(|i| i.ops.len()).sum();
        let mut newest_touch: HashMap<DocId, u64> = HashMap::with_capacity(touches);
        for instance in levels.iter().flatten() {
            for &id in instance.ops.keys() {
                let entry = newest_touch.entry(id).or_insert(instance.seq);
                if instance.seq > *entry {
                    *entry = instance.seq;
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

    /// Merges a group of instances into one: replays their updates in
    /// sequence order, drops deleted tuples, and rebuilds a single index
    /// under a fresh key (the "download, merge, re-encrypt" of the paper) —
    /// written through the configured storage backend, like every other
    /// build — or, when mode and scheme allow, merges them structurally.
    /// Returns the merged instance and whether it is a structural one; the
    /// group (sorted by sequence number) and its directories are untouched
    /// either way.
    ///
    /// A deletion tombstone can only be dropped ("physically purged") when
    /// no instance *outside* the merged group still touches the deleted id
    /// — otherwise an older instance holding a stale version of the tuple
    /// would become authoritative again and the tuple would resurrect.
    /// Tombstones that must survive stay in the merged instance's entries
    /// (and are indexed and query-filtered exactly like a level-0 delete)
    /// until a later merge meets the stale version and purges both.
    fn merge_instances<R: RngCore + CryptoRng>(
        &mut self,
        group: &mut [BatchInstance<S>],
        level: usize,
        rng: &mut R,
    ) -> Result<(BatchInstance<S>, bool), StorageError> {
        group.sort_by_key(|instance| instance.seq);
        let newest_seq = group.last().map(|i| i.seq).unwrap_or(0);
        // The flattened part layout of a prospective structural merge:
        // group member `g`'s parts occupy flat indexes starting at
        // `flat_base[g]` (one part for a plain instance, its own part
        // count for an already-structural one).
        let mut flat_base: Vec<u32> = Vec::with_capacity(group.len());
        let mut part_total = 0u32;
        for instance in group.iter() {
            flat_base.push(part_total);
            part_total += match &instance.kind {
                InstanceKind::Plain { .. } => 1,
                InstanceKind::Structural { parts, .. } => parts.len() as u32,
            };
        }
        // Latest entry per id across the group (instances iterate in seq
        // order, so later inserts win), each tagged with the flattened
        // part whose dictionary holds that authoritative version.
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
        // `self.levels` no longer contains the drained group, so every
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

        // Structural merge first, when the mode and the scheme allow it.
        // A typed Unsupported — scheme can't merge, incompatible layouts,
        // a label collision — falls back to the rebuild below (burning a
        // build number, which is harmless: directory names only need to
        // be unique, not dense). Anything else is a real failure.
        if self.config.consolidation_mode == ConsolidationMode::Structural
            && S::supports_structural_merge()
        {
            match self.merge_structural(group, level, newest_seq, &surviving) {
                Ok(instance) => return Ok((instance, true)),
                Err(StorageError::Unsupported(_)) => {}
                Err(error) => return Err(error),
            }
        }

        let surviving: Vec<UpdateEntry> = surviving.into_iter().map(|(entry, _)| entry).collect();
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
            (level + 1) as u32,
            surviving,
            &config,
            chain,
            seed,
        )
        .map(|merged| (merged, false))
        .inspect_err(|_| discard_build(&config))
    }

    /// Attempts the re-encryption-free structural merge of `group` into
    /// one instance at `level + 1`: the inputs' committed dictionaries
    /// are combined via [`RangeScheme::merge_stored`] (ciphertext copied
    /// verbatim), the flattened parts' clients re-derive from their
    /// retained seeds, and — for persisted managers — the **compacted**
    /// owner sidecar (deduped latest-per-id log, kind byte `1`) commits
    /// the instance durably, written last like every other commit record.
    ///
    /// Returns [`StorageError::Unsupported`] when the merge cannot proceed
    /// structurally — the caller falls back to a rebuild.
    fn merge_structural(
        &mut self,
        group: &[BatchInstance<S>],
        level: usize,
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
                        level: (level + 1) as u32,
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
        let authority: HashMap<DocId, u32> = surviving
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
    /// a structural one) plus one owner-side lookup per returned id. The
    /// refinement state is kept current by ingests, merges and `open_root`,
    /// so a query does no work and allocates nothing in proportion to the
    /// database — only to its answer.
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
    /// cost as [`query`](Self::query): instances × (one index scan) + O(ids
    /// returned).
    pub fn try_query(&self, range: Range) -> Result<QueryOutcome, StorageError> {
        let mut ids: Vec<DocId> = Vec::new();
        let mut seen: HashSet<DocId> = HashSet::new();
        let mut stats = QueryStats::default();
        for instance in self.levels.iter().flatten() {
            let outcome = instance.try_query(range)?;
            stats.absorb(&outcome.stats);
            for id in outcome.ids {
                // Only the instance that holds the *newest* version of the
                // tuple is authoritative for it.
                if self.newest_touch.get(&id) != Some(&instance.seq) {
                    continue;
                }
                if instance.ops.get(&id) == Some(&UpdateOp::Delete) {
                    continue;
                }
                if seen.insert(id) {
                    ids.push(id);
                }
            }
        }
        Ok(QueryOutcome { ids, stats })
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
    ///   healed manifest is re-committed;
    /// * `config.storage_root == None` — the durable state is **restored
    ///   into RAM**: every instance rebuilds in memory from its persisted
    ///   update log, nothing at `root` is modified beyond crash cleanup,
    ///   and the reopened manager continues as a purely in-memory one.
    ///
    /// # Crash recovery
    ///
    /// The manifest commits only after the instance directories it
    /// references are durable, and a consolidation cascade removes its
    /// inputs only after its last merge committed. A crash anywhere in an
    /// ingest therefore leaves a stale manifest plus some of the
    /// following, each of which this method heals:
    ///
    /// * a directory **without a readable commit record** that no live
    ///   instance needs — half-built, or half-removed — is swept;
    /// * a **batch instance** committed but unreferenced — the ingest
    ///   never returned to the caller, so it is rolled back (the
    ///   directory is swept after its sidecar authenticates);
    /// * **consolidated instances** committed but unreferenced — adopted
    ///   bottom-up, each superseding every instance *below* it with a
    ///   sequence number at or below its own, whether that instance's
    ///   directory is gone, intact or partly removed. If that leaves no
    ///   level due, the cascade had finished: the ingest is rolled
    ///   *forward* and the consolidation counters advance. If a level is
    ///   still due it had not, no input has been touched, and the whole
    ///   ingest is rolled back. One that supersedes nothing is a leftover
    ///   of a failed merge or removal and is swept;
    /// * an instance **still live after adoption** whose directory or
    ///   commit record is missing — genuine damage: the open fails typed.
    ///
    /// # Errors
    ///
    /// Everything malformed surfaces as a typed [`StorageError`]: a
    /// missing or corrupt manifest, a scheme-kind mismatch, a live
    /// instance whose directory or sidecar is missing (with no superseding
    /// consolidation), foreign or stale sidecars (sequence or level
    /// disagreeing with the manifest), and owner payloads failing
    /// authentication — the wrong master key refuses to open rather than
    /// misinterpreting the root, and **nothing is deleted before the
    /// sidecars of the directories involved have authenticated** under
    /// the supplied key. A swept directory that cannot be removed also
    /// fails the open, since its name may be built into again.
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

        // Inventory the canonical instance directories under the root.
        let mut on_disk: HashMap<u64, PathBuf> = HashMap::new();
        let dir_iter = std::fs::read_dir(root).map_err(|e| io_err(root, e))?;
        for entry in dir_iter {
            let entry = entry.map_err(|e| io_err(root, e))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(build_id) = ManagerManifest::parse_instance_dir_name(name) {
                // Only the exact names the manager writes; anything else
                // (a user's `instance-1`, scratch siblings) is left alone.
                if name == ManagerManifest::instance_dir_name(build_id) && entry.path().is_dir() {
                    on_disk.insert(build_id, entry.path());
                }
            }
        }
        let referenced: HashSet<u64> = manifest
            .levels
            .iter()
            .flatten()
            .map(|instance| instance.build_id)
            .collect();

        // Read every commit record (owner sidecar). A directory without a
        // readable one is judged after adoption: no longer live, it is a
        // half-built or half-removed instance and is swept; still live, its
        // error is the open's error.
        let mut sidecars: HashMap<u64, OwnerMeta> = HashMap::new();
        let mut unreadable: HashMap<u64, StorageError> = HashMap::new();
        for (&build_id, dir) in &on_disk {
            match read_owner_meta(dir) {
                Ok(meta) if meta.build_id != build_id => {
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
                Ok(meta) => {
                    sidecars.insert(build_id, meta);
                }
                Err(error) => {
                    unreadable.insert(build_id, error);
                }
            }
        }

        // Working level table seeded from the manifest; referenced
        // sidecars must agree with it on sequence number and level.
        let mut levels: Vec<Vec<(u64, u64, Option<ManifestInstance>)>> = manifest
            .levels
            .iter()
            .map(|level| {
                level
                    .iter()
                    .map(|instance| (instance.build_id, instance.seq, Some(instance.clone())))
                    .collect()
            })
            .collect();
        for (level_index, level) in levels.iter().enumerate() {
            for &(build_id, seq, _) in level {
                if let Some(meta) = sidecars.get(&build_id) {
                    if meta.seq != seq || meta.level != level_index as u32 {
                        return Err(StorageError::CorruptDirectory {
                            path: on_disk[&build_id].clone(),
                            detail: format!(
                                "owner sidecar says (seq {}, level {}) but the manifest \
                                 records (seq {seq}, level {level_index}) — a stale or \
                                 foreign instance",
                                meta.seq, meta.level
                            ),
                        });
                    }
                }
            }
        }

        // Committed-but-unreferenced instances are what a crashed ingest
        // left. Its batch (level 0) never reached the caller and is rolled
        // back; its consolidations are adopted bottom-up, each superseding
        // every instance below it with a sequence number at or below its
        // own (a cascade drains whole levels) — but only if that finishes
        // the cascade. While a level is still due the ingest had not
        // committed its last merge, no input has been removed yet, and the
        // whole ingest rolls back instead. One that supersedes nothing is
        // not this ingest's at all — a leftover of a failed merge or
        // removal — and is swept.
        let mut orphans: Vec<(u32, u64, u64)> = sidecars
            .iter()
            .filter(|(build_id, meta)| !referenced.contains(build_id) && meta.level > 0)
            .map(|(&build_id, meta)| (meta.level, meta.seq, build_id))
            .collect();
        orphans.sort_unstable();
        let mut adopted = levels.clone();
        orphans.retain(|&(level, seq, build_id)| {
            let level = level as usize;
            adopted.resize(adopted.len().max(level + 1), Vec::new());
            let mut superseded = 0;
            for inputs in &mut adopted[..level] {
                superseded += inputs.len();
                inputs.retain(|input| input.1 > seq);
                superseded -= inputs.len();
            }
            if superseded > 0 {
                adopted[level].push((build_id, seq, None));
            }
            superseded > 0
        });
        let step = manifest.consolidation_step as usize;
        if step > 0 && adopted.iter().any(|level| level.len() >= step) {
            orphans.clear();
        } else {
            levels = adopted;
        }

        // Every instance still live must have its directory and a readable
        // commit record: anything less is genuine damage, not a crash window.
        for level in &levels {
            for &(build_id, seq, _) in level {
                if !on_disk.contains_key(&build_id) {
                    return Err(corrupt(format!(
                        "instance {} (seq {seq}) is referenced by the manifest but its \
                         directory is missing and no committed consolidation supersedes it",
                        ManagerManifest::instance_dir_name(build_id)
                    )));
                }
                if let Some(error) = unreadable.remove(&build_id) {
                    return Err(error);
                }
            }
        }

        // Decrypt and authenticate every readable owner payload — the kept
        // instances and the directories about to be swept — BEFORE touching
        // the disk: a wrong master key must fail the open, never delete.
        let mut opened: HashMap<u64, OwnerPayload> = HashMap::new();
        for (&build_id, meta) in &sidecars {
            let payload =
                persist::open_payload(&chain, build_id, &on_disk[&build_id], &meta.payload)?;
            opened.insert(build_id, payload);
        }
        // The adopted ingest ran one consolidation per level up to its top
        // one. Each is classified by its payload's kind byte; one whose
        // directory is already gone, by the top one's.
        let (mut adopted_structural, mut adopted_rebuild) = (0u64, 0u64);
        if let Some(&(top_level, _, top)) = orphans.last() {
            let structural = |id: &u64| matches!(opened[id], OwnerPayload::Structural { .. });
            let gone = (top_level as usize).saturating_sub(orphans.len());
            adopted_structural = orphans.iter().filter(|o| structural(&o.2)).count() as u64;
            adopted_rebuild = orphans.len() as u64 - adopted_structural;
            if structural(&top) {
                adopted_structural += gone as u64;
            } else {
                adopted_rebuild += gone as u64;
            }
        }

        // Reconstruct the instances in level order.
        let persist_instances = config.storage_root.is_some();
        let mut rebuilt: Vec<Vec<BatchInstance<S>>> = Vec::with_capacity(levels.len());
        for level in &levels {
            let mut instances = Vec::with_capacity(level.len());
            for (build_id, seq, record) in level {
                let dir = &on_disk[build_id];
                let payload = opened.remove(build_id).expect("payload opened above");
                if let Some(record) = record {
                    let (mut inserts, mut modifies, mut deletes) = (0u64, 0u64, 0u64);
                    let (entry_count, ops) = match &payload {
                        OwnerPayload::Plain { entries, .. } => (
                            entries.len(),
                            entries.iter().map(|entry| entry.op).collect::<Vec<_>>(),
                        ),
                        OwnerPayload::Structural { entries, .. } => (
                            entries.len(),
                            entries
                                .iter()
                                .map(|(entry, _)| entry.op)
                                .collect::<Vec<_>>(),
                        ),
                    };
                    for op in ops {
                        match op {
                            UpdateOp::Insert => inserts += 1,
                            UpdateOp::Modify => modifies += 1,
                            UpdateOp::Delete => deletes += 1,
                        }
                    }
                    if entry_count as u64 != record.entry_count
                        || inserts != record.inserts
                        || modifies != record.modifies
                        || deletes != record.deletes
                    {
                        return Err(StorageError::CorruptDirectory {
                            path: dir.clone(),
                            detail: format!(
                                "owner payload holds {entry_count} entries \
                                 ({inserts}/{modifies}/{deletes} ins/mod/del) but the \
                                 manifest records {} ({}/{}/{}) — manifest and instance \
                                 disagree",
                                record.entry_count, record.inserts, record.modifies, record.deletes
                            ),
                        });
                    }
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
                instances.push(match payload {
                    OwnerPayload::Plain { seed, entries } => BatchInstance::reopen(
                        domain,
                        *build_id,
                        *seq,
                        entries,
                        &instance_config,
                        seed,
                    )?,
                    OwnerPayload::Structural { seeds, entries } => {
                        // A structural instance reopens structurally no
                        // matter the current consolidation mode: its
                        // payload kind, not the runtime knob, dictates.
                        BatchInstance::reopen_structural(
                            domain,
                            *build_id,
                            *seq,
                            seeds,
                            entries,
                            dir,
                            &instance_config,
                        )?
                    }
                });
            }
            rebuilt.push(instances);
        }

        // Commit the cleanup: every directory that is not a live instance
        // — superseded, rolled back (both authenticated above where they
        // could be), half-built or half-removed — goes. A directory that
        // cannot be removed fails the open: its name may be built into again.
        let live: HashSet<u64> = rebuilt.iter().flatten().map(|i| i.build_id).collect();
        for (build_id, dir) in &on_disk {
            if !live.contains(build_id) {
                formats::remove_dir_all(dir)?;
            }
        }

        // Counters: adopted consolidations advance them past the stale
        // manifest's values (an adopted merge whose newest input was the
        // crashed ingest's batch also advances the batch counters).
        let max_seq = rebuilt
            .iter()
            .flatten()
            .map(|instance| instance.seq + 1)
            .max()
            .unwrap_or(0);
        let next_seq = manifest.next_seq.max(max_seq);
        let next_build = live
            .iter()
            .map(|id| id + 1)
            .max()
            .unwrap_or(0)
            .max(manifest.next_build);
        let manager = Self {
            domain,
            config,
            chain: Some(chain),
            // Recovery has settled which instances are live: index them.
            newest_touch: Self::newest_touch_of(&rebuilt),
            levels: rebuilt,
            next_seq,
            next_build,
            batches_ingested: (manifest.batches_ingested + (next_seq - manifest.next_seq)) as usize,
            structural_consolidations: (manifest.structural_consolidations + adopted_structural)
                as usize,
            rebuild_consolidations: (manifest.rebuild_consolidations + adopted_rebuild) as usize,
        };
        // Re-commit the healed manifest (no-op for an in-memory restore),
        // so the next crash starts from this consistent state.
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
    /// the newest instance touching it.
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
            assert!(mgr.newest_touch.values().all(|&seq| seq == 2));

            // The next level-0 group deletes 1 and modifies 2, both living
            // in A: the tombstone must survive the merge (A still touches
            // 1), and the merged instance B owns both ids.
            ingest(&mut mgr, vec![UpdateEntry::delete(1, 10)], "after a delete");
            ingest(
                &mut mgr,
                vec![UpdateEntry::insert(6, 60)],
                "after an ingest",
            );
            ingest(&mut mgr, vec![UpdateEntry::modify(2, 99)], "after a merge");
            assert_eq!((mgr.active_instances(), mgr.consolidations()), (2, 2));
            assert_eq!(mgr.newest_touch.len(), 6, "ids 1..=6, the tombstone's too");
            for (id, owner) in [(1, 5), (2, 5), (3, 2), (4, 2), (5, 2), (6, 5)] {
                assert_eq!(mgr.newest_touch[&id], owner, "owner of id {id}");
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
            assert!(mgr.newest_touch.values().all(|&seq| seq == 8));
            assert_eq!(
                mgr.structural_instances(),
                usize::from(mode == ConsolidationMode::Structural)
            );
        }
    }

    #[test]
    fn authority_index_survives_a_rolled_back_merge_and_a_reopen() {
        // s = 2, build numbers: b0 = 0, b1 = 1, A = b0 + b1 = 2, b2 = 3,
        // b3 = 4, B = b2 + b3 = 5, and A + B would be 6 — whose shard file's
        // place a planted directory occupies, so that merge fails.
        let root = TempDir::new("index-rollback");
        std::fs::create_dir_all(root.path().join("instance-00000006/shard-00000.shd")).unwrap();
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
        mgr.try_ingest_batch(vec![UpdateEntry::delete(1, 10)], &mut rng)
            .expect_err("the level-1 merge hits the planted directory");
        // B stands, A + B was rolled back: B owns what its inputs owned
        // (the surviving tombstone of 1 included), A keeps the rest.
        assert_eq!((mgr.active_instances(), mgr.consolidations()), (2, 2));
        assert_index_is_exact(&mgr, "after a rolled-back merge");
        for (id, owner) in [(1, 3), (2, 1), (3, 1), (4, 3)] {
            assert_eq!(mgr.newest_touch[&id], owner, "owner of id {id}");
        }

        // The next batch (seq 4) stays at level 0 while the retried merge
        // of A + B commits above it with seq 3: id 2 lives in the group but
        // belongs to the newer batch outside it and must stay there; the
        // tombstone of 1 is purged and leaves.
        let batch = vec![UpdateEntry::modify(2, 99), UpdateEntry::insert(5, 50)];
        mgr.ingest_batch(batch, &mut rng);
        assert_eq!((mgr.active_instances(), mgr.consolidations()), (2, 3));
        assert_index_is_exact(&mgr, "after a merge below a newer instance");
        assert_eq!(mgr.newest_touch.len(), 4);
        for (id, owner) in [(2, 4), (3, 3), (4, 3), (5, 4)] {
            assert_eq!(mgr.newest_touch[&id], owner, "owner of id {id}");
        }
        assert_eq!(mgr.query(Range::new(90, 255)).ids, vec![2]);
        assert!(mgr.query(Range::new(0, 25)).is_empty());

        let index = mgr.newest_touch.clone();
        drop(mgr);
        let reopened = LogManager::open_root(key(), root.path(), config).unwrap();
        assert_index_is_exact(&reopened, "after a reopen");
        assert_eq!(reopened.newest_touch, index);
    }

    /// `try_query` as it ran before the index was maintained: the id →
    /// newest-seq map built from scratch per call, then the refinement.
    fn per_query_pass(mgr: &LogManager, range: Range) -> QueryOutcome {
        let newest_touch = LogManager::newest_touch_of(&mgr.levels);
        let mut ids: Vec<DocId> = Vec::new();
        let mut seen: HashSet<DocId> = HashSet::new();
        let mut stats = QueryStats::default();
        for instance in mgr.levels.iter().flatten() {
            let outcome = instance.try_query(range).unwrap();
            stats.absorb(&outcome.stats);
            for id in outcome.ids {
                if newest_touch.get(&id) == Some(&instance.seq)
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
        // deletes into the one before it, ten batches at s = 3. The whole
        // outcome — ids in emission order and every `QueryStats` counter —
        // must be what the per-query pass produced, after every batch.
        const DOMAIN: u64 = 1 << 10;
        let seed = 3u64;
        for mode in MODES {
            let mut mgr = LogManager::new(
                Domain::new(DOMAIN),
                UpdateConfig {
                    consolidation_step: 3,
                    consolidation_mode: mode,
                    ..UpdateConfig::default()
                },
            );
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
                mgr.ingest_batch(entries, &mut ChaCha20Rng::seed_from_u64(seed * 10_000 + b));
                for (lo, hi) in [(0, DOMAIN - 1), (0, 127), (200, 500), (700, DOMAIN - 1)] {
                    let range = Range::new(lo, hi);
                    assert_eq!(
                        mgr.try_query(range).unwrap(),
                        per_query_pass(&mgr, range),
                        "{mode:?}, after batch {b}, {range:?}"
                    );
                }
            }
            assert_eq!(mgr.consolidations(), 4);
        }
    }
}
