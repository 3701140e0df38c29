//! The update manager's two durable owner-state formats and the only code
//! in the workspace that reads or writes them:
//!
//! * **`manager.meta`** (`RSSE-MGR`, [`ManagerManifest`]) — the root
//!   manifest: public bookkeeping (scheme kind and parameters, counters,
//!   the level table), rewritten atomically as the commit point of every
//!   ingest;
//! * **`owner.meta`** (`RSSE-OWN`, [`OwnerMeta`]) — one sidecar per
//!   instance directory: the instance's identity framing an opaque payload
//!   that [`persist`](crate::persist) encrypts and authenticates. It is
//!   written last during an instance build and is the instance's commit
//!   record.
//!
//! Both are encoded and decoded with the codec kit of
//! [`rsse_sse::formats`]; `docs/FORMATS.md` has the byte layouts. A
//! serving process that holds no owner key needs exactly one thing from
//! these files — which instance directories are live — and gets it from
//! [`open_manager_root`].

use rsse_core::{QueryServer, StorageError};
use rsse_sse::formats::{
    io_err, MetaReader, MetaWriter, CIPHERTEXT_FORMAT_VERSION, FORMAT_VERSION,
};
use rsse_sse::sharded::MAX_SHARD_BITS;
use std::fs;
use std::path::Path;

/// Magic bytes opening the update manager's root manifest (`manager.meta`).
pub const MANAGER_MANIFEST_MAGIC: [u8; 8] = *b"RSSE-MGR";

/// File name of the update manager's root manifest inside a storage root.
pub const MANAGER_MANIFEST_FILE: &str = "manager.meta";

/// Magic bytes opening a per-instance owner sidecar (`owner.meta`).
pub const OWNER_META_MAGIC: [u8; 8] = *b"RSSE-OWN";

/// File name of the per-instance owner sidecar inside an instance directory.
pub const OWNER_META_FILE: &str = "owner.meta";

/// Fixed `manager.meta` header length (magic + version + scheme-name
/// length), before the variable-length fields.
const MANAGER_HEADER_LEN: u64 = 16;

/// Fixed `owner.meta` length before the encrypted payload.
const OWNER_META_HEADER_LEN: u64 = 40;

/// Bytes per instance row of the `manager.meta` level table.
const INSTANCE_ROW_LEN: usize = 48;

/// One active instance as recorded in the update manager's root manifest:
/// public bookkeeping only (counts and names) — the owner's secrets (the
/// build seed and the plaintext update log) live in the instance's
/// encrypted [`OwnerMeta`] sidecar, never in the manifest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ManifestInstance {
    /// Monotonic build number naming the instance directory
    /// (`instance-{build_id:08}`).
    pub build_id: u64,
    /// The instance's sequence number (largest = newest; a merged instance
    /// reuses the newest sequence number of its inputs).
    pub seq: u64,
    /// Number of update entries the instance indexes.
    pub entry_count: u64,
    /// Number of insert operations among the entries.
    pub inserts: u64,
    /// Number of modify operations among the entries.
    pub modifies: u64,
    /// Number of delete operations (tombstones) among the entries.
    pub deletes: u64,
}

/// The update manager's durable root manifest (`manager.meta`): everything
/// the owner needs — besides the master key and the per-instance
/// [`OwnerMeta`] sidecars — to reopen a whole `UpdateManager` from its
/// storage root after a crash or restart.
///
/// The manifest is deliberately **public data**: scheme kind and
/// parameters, counters, and the level table with per-instance sequence
/// numbers and operation counts. It is written through the same
/// tmp+rename atomic-write machinery as every other metadata file, always
/// *after* the instance directories it references are durably committed
/// and *before* any directory it drops is removed, so it is an ingest's
/// one commit point: a crash before it leaves the previous manifest and
/// every directory that one references.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ManagerManifest {
    /// `RangeScheme::NAME` of the scheme the manager is instantiated with;
    /// reopening with a different scheme is rejected typed.
    pub scheme: String,
    /// Size of the attribute domain shared by all batches.
    pub domain_size: u64,
    /// The consolidation step `s` the manager was configured with.
    pub consolidation_step: u64,
    /// Label-prefix shard bits of every index the manager builds.
    pub shard_bits: u32,
    /// Block-cache budget for persisted instances (`None` = unbounded).
    pub cache_budget: Option<u64>,
    /// Next batch sequence number.
    pub next_seq: u64,
    /// Next instance-directory build number.
    pub next_build: u64,
    /// Raw batches ingested so far.
    pub batches_ingested: u64,
    /// Consolidation operations performed so far (always the sum of the
    /// two strategy counters below).
    pub consolidations: u64,
    /// Consolidations realized as structural merges: ciphertext copied
    /// verbatim from the input instances, no re-encryption.
    pub structural_consolidations: u64,
    /// Consolidations realized as full rebuilds (the reference path every
    /// scheme supports).
    pub rebuild_consolidations: u64,
    /// The level table: `levels[l]` lists the active instances at height
    /// `l` of the merge hierarchy, in insertion (ascending-seq) order.
    pub levels: Vec<Vec<ManifestInstance>>,
}

impl ManagerManifest {
    /// The directory name of an instance with this build number
    /// (`instance-{build_id:08}`, zero-padded so names sort by build).
    pub fn instance_dir_name(build_id: u64) -> String {
        format!("instance-{build_id:08}")
    }

    /// Parses an instance directory name back into its build number
    /// (`None` for anything that is not exactly `instance-NNNNNNNN`).
    pub fn parse_instance_dir_name(name: &str) -> Option<u64> {
        let digits = name.strip_prefix("instance-")?;
        if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
            return None;
        }
        digits.parse().ok()
    }

    /// Serializes the manifest into its on-disk byte layout (see
    /// `docs/FORMATS.md` for the byte-by-byte specification).
    fn encode(&self) -> MetaWriter {
        let mut out = MetaWriter::new(&MANAGER_MANIFEST_MAGIC, FORMAT_VERSION);
        out.u32(self.scheme.len() as u32)
            .bytes(self.scheme.as_bytes())
            .u64(self.domain_size)
            .u64(self.consolidation_step)
            .u32(self.shard_bits)
            .u32(u32::from(self.cache_budget.is_some()))
            .u64(self.cache_budget.unwrap_or(0))
            .u64(self.next_seq)
            .u64(self.next_build)
            .u64(self.batches_ingested)
            .u64(self.consolidations)
            .u64(self.structural_consolidations)
            .u64(self.rebuild_consolidations)
            .u32(self.levels.len() as u32);
        for level in &self.levels {
            out.u32(level.len() as u32);
            for instance in level {
                out.u64(instance.build_id)
                    .u64(instance.seq)
                    .u64(instance.entry_count)
                    .u64(instance.inserts)
                    .u64(instance.modifies)
                    .u64(instance.deletes);
            }
        }
        out
    }
}

/// Writes the update manager's root manifest into `root/manager.meta`
/// atomically (tmp + rename): a crash mid-write leaves the previous
/// manifest byte-identical.
pub fn write_manager_manifest(root: &Path, manifest: &ManagerManifest) -> Result<(), StorageError> {
    manifest.encode().commit(&root.join(MANAGER_MANIFEST_FILE))
}

/// Reads and validates `root/manager.meta`.
///
/// # Errors
///
/// Every malformed input surfaces as a typed [`StorageError`]: a missing
/// file as [`Io`](StorageError::Io), foreign content as
/// [`BadMagic`](StorageError::BadMagic), an unknown format as
/// [`UnsupportedVersion`](StorageError::UnsupportedVersion), a short file
/// as [`Truncated`](StorageError::Truncated), and internal inconsistencies
/// (non-UTF-8 scheme name, oversized tables, trailing bytes) as
/// [`CorruptDirectory`](StorageError::CorruptDirectory).
pub fn read_manager_manifest(root: &Path) -> Result<ManagerManifest, StorageError> {
    let path = root.join(MANAGER_MANIFEST_FILE);
    let bytes = fs::read(&path).map_err(|e| io_err(&path, e))?;
    let mut reader = MetaReader::open(
        &path,
        &bytes,
        &MANAGER_MANIFEST_MAGIC,
        FORMAT_VERSION,
        MANAGER_HEADER_LEN,
    )?;
    let name_len = reader.u32()? as usize;
    if name_len > 256 {
        return Err(reader.corrupt(format!(
            "scheme name length {name_len} exceeds the 256-byte bound"
        )));
    }
    let scheme = std::str::from_utf8(reader.bytes(name_len)?)
        .map_err(|_| reader.corrupt("scheme name is not UTF-8".to_string()))?
        .to_string();
    let domain_size = reader.u64()?;
    let consolidation_step = reader.u64()?;
    let shard_bits = reader.u32()?;
    if shard_bits > MAX_SHARD_BITS {
        return Err(reader.corrupt(format!(
            "manifest claims {shard_bits} shard bits (max {MAX_SHARD_BITS})"
        )));
    }
    let cache_budget = match (reader.u32()?, reader.u64()?) {
        (0, 0) => None,
        (1, budget) => Some(budget),
        (flag, budget) => {
            return Err(reader.corrupt(format!(
                "invalid cache-budget flag {flag} with value {budget}"
            )));
        }
    };
    let next_seq = reader.u64()?;
    let next_build = reader.u64()?;
    let batches_ingested = reader.u64()?;
    let consolidations = reader.u64()?;
    let structural_consolidations = reader.u64()?;
    let rebuild_consolidations = reader.u64()?;
    if structural_consolidations.checked_add(rebuild_consolidations) != Some(consolidations) {
        return Err(reader.corrupt(format!(
            "strategy counters ({structural_consolidations} structural + \
             {rebuild_consolidations} rebuild) do not sum to {consolidations} consolidations"
        )));
    }
    let level_count = reader.u32()? as usize;
    if level_count > 64 {
        return Err(reader.corrupt(format!(
            "manifest claims {level_count} merge levels (max 64)"
        )));
    }
    let mut levels = Vec::with_capacity(level_count);
    for level in 0..level_count {
        let instance_count = u64::from(reader.u32()?);
        if instance_count > next_build {
            return Err(reader.corrupt(format!(
                "level {level} claims {instance_count} instances but only \
                 {next_build} builds ever ran"
            )));
        }
        let instance_count = reader.rows(instance_count, INSTANCE_ROW_LEN)?;
        let mut instances = Vec::with_capacity(instance_count);
        for _ in 0..instance_count {
            let instance = ManifestInstance {
                build_id: reader.u64()?,
                seq: reader.u64()?,
                entry_count: reader.u64()?,
                inserts: reader.u64()?,
                modifies: reader.u64()?,
                deletes: reader.u64()?,
            };
            let op_sum = instance
                .inserts
                .checked_add(instance.modifies)
                .and_then(|sum| sum.checked_add(instance.deletes));
            if op_sum != Some(instance.entry_count) {
                return Err(reader.corrupt(format!(
                    "instance {} op counts do not sum to its {} entries",
                    instance.build_id, instance.entry_count
                )));
            }
            instances.push(instance);
        }
        levels.push(instances);
    }
    reader.finish()?;
    Ok(ManagerManifest {
        scheme,
        domain_size,
        consolidation_step,
        shard_bits,
        cache_budget,
        next_seq,
        next_build,
        batches_ingested,
        consolidations,
        structural_consolidations,
        rebuild_consolidations,
        levels,
    })
}

/// The owner-side sidecar of one persisted update-manager instance
/// (`<instance dir>/owner.meta`): the public identity of the instance plus
/// an opaque `payload` — the build seed and plaintext update log,
/// encrypted and authenticated by [`persist`](crate::persist) under the
/// owner's master key. This layer only frames the bytes; it never sees
/// the plaintext.
///
/// The sidecar is written **last** during an instance build, so its
/// presence is the instance's durable commit record: a directory without
/// a readable `owner.meta` is a half-built instance and is swept by the
/// manager's reopen path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OwnerMeta {
    /// Build number of the instance (must match the directory name).
    pub build_id: u64,
    /// The instance's sequence number.
    pub seq: u64,
    /// Height of the instance in the merge hierarchy (0 = raw batch).
    pub level: u32,
    /// Encrypted, authenticated owner payload (opaque at this layer).
    pub payload: Vec<u8>,
}

/// Writes an instance's owner sidecar into `dir/owner.meta` atomically.
pub fn write_owner_meta(dir: &Path, meta: &OwnerMeta) -> Result<(), StorageError> {
    MetaWriter::new(&OWNER_META_MAGIC, CIPHERTEXT_FORMAT_VERSION)
        .u32(meta.level)
        .u64(meta.build_id)
        .u64(meta.seq)
        .u64(meta.payload.len() as u64)
        .bytes(&meta.payload)
        .commit(&dir.join(OWNER_META_FILE))
}

/// Reads and validates an instance's owner sidecar from `dir/owner.meta`,
/// surfacing every malformed input as a typed [`StorageError`] (see
/// [`read_manager_manifest`] for the error taxonomy).
pub fn read_owner_meta(dir: &Path) -> Result<OwnerMeta, StorageError> {
    let path = dir.join(OWNER_META_FILE);
    let bytes = fs::read(&path).map_err(|e| io_err(&path, e))?;
    let mut reader = MetaReader::open(
        &path,
        &bytes,
        &OWNER_META_MAGIC,
        CIPHERTEXT_FORMAT_VERSION,
        OWNER_META_HEADER_LEN,
    )?;
    let level = reader.u32()?;
    let build_id = reader.u64()?;
    let seq = reader.u64()?;
    let payload_len = reader.u64()?;
    let payload = reader.bytes(reader.rows(payload_len, 1)?)?.to_vec();
    reader.finish()?;
    Ok(OwnerMeta {
        build_id,
        seq,
        level,
        payload,
    })
}

/// Reopens one batched search endpoint per **active instance** of a
/// persisted update manager, in level order, from the manager's storage
/// root alone — the server-side half of a process restart
/// ([`UpdateManager::open_root`](crate::UpdateManager::open_root) is the
/// owner-side half, and sweeps what a crash left unreferenced). The
/// manifest is an ingest's one commit point, so whatever instant a crash
/// hit, every directory it references is intact and this needs no
/// recovery first.
///
/// Reads the root's `manager.meta` manifest, cold-opens every instance
/// directory it references under the manifest's recorded cache budget,
/// and returns the endpoints in the same instance order the owner
/// iterates — the server never needs the owner's master key, because
/// everything it serves is encrypted. Wrap each in
/// `rsse_serve::ResilientServer::new` for the resilient serving plane.
///
/// Supports managers whose scheme keeps a single dictionary per instance
/// directory (the Logarithmic/Constant families); multi-index layouts
/// (Logarithmic-SRC-i's `i1`/`i2`) fail typed on the missing top-level
/// `index.meta`.
///
/// # Errors
///
/// Surfaces a missing or corrupt manifest, and every malformed instance
/// directory, as typed [`StorageError`]s.
pub fn open_manager_root(root: impl AsRef<Path>) -> Result<Vec<QueryServer>, StorageError> {
    let root = root.as_ref();
    let manifest = read_manager_manifest(root)?;
    let budget = manifest.cache_budget.map(|bytes| bytes as usize);
    manifest
        .levels
        .iter()
        .flatten()
        .map(|instance| {
            let dir = root.join(ManagerManifest::instance_dir_name(instance.build_id));
            QueryServer::open_dir_with_budget(dir, budget)
        })
        .collect()
}
