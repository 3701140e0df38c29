//! Batch updates over static RSSE schemes (Section 7 of the paper).
//!
//! Dynamic SSE schemes handle updates with purpose-built dynamic indexes;
//! the paper instead adopts the bulk-loading strategy of large-scale
//! analytic databases (Vertica): updates arrive in **batches**, every batch
//! becomes an independent *static* RSSE instance under a **fresh key**, and
//! instances are periodically **consolidated** (merged, filtered of
//! deletions, and re-encrypted) following a log-structured-merge schedule
//! controlled by the consolidation step `s`.
//!
//! The approach gives *forward privacy* for free: a trapdoor issued against
//! the indexes that existed at time `t` is useless against any index created
//! after `t`, because later batches are encrypted under independent keys.
//! The cost is that a query must be sent to every active instance — the
//! manager keeps their number at `O(s·log_s b)` for `b` ingested batches.
//!
//! [`UpdateManager`] is generic over any [`RangeScheme`], exactly as the
//! paper's mechanism is generic over any static RSSE construction. Every
//! batch build and consolidation rebuild is routed through
//! [`RangeScheme::build_stored`], so an [`UpdateConfig::shard_bits`]
//! setting gives the manager sharded dictionaries (parallel rebuild
//! assembly, lock-free concurrent searches), and an
//! [`UpdateConfig::storage_root`] makes every level of the merge
//! hierarchy **persistent**: each instance's index is streamed to its own
//! directory during the build and served from disk via paged reads, and a
//! consolidation removes the directories of the instances it supersedes
//! once the merged index is durably written. Schemes without an
//! encrypted-dictionary server layout (Quadratic, the plain-SSE baseline)
//! fall back to the trait's default, which supports the in-memory backend
//! and rejects on-disk requests with a typed error.
//!
//! [`ConsolidationMode::Structural`] replaces the re-encrypting rebuild
//! with a **structural merge** for capable schemes: the inputs' committed
//! shards are merge-joined by copying ciphertext verbatim (zero payload
//! decrypt/encrypt calls on the merge path) and the owner sidecar
//! compacts to the deduped latest-per-id update log at the same commit.
//! Answers are identical to the rebuild strategy; see
//! `docs/OPERATIONS.md` for the trade-offs (no physical purge, part
//! correlation) and `docs/FORMATS.md` for the merged-directory commit
//! protocol.
//!
//! [`RangeScheme`]: rsse_core::RangeScheme
//! [`RangeScheme::build_stored`]: rsse_core::RangeScheme::build_stored

//! # Durability
//!
//! A manager with a storage root is fully **restartable**: alongside the
//! per-instance index directories it maintains a `manager.meta` root
//! manifest (public bookkeeping: scheme kind and parameters, counters,
//! the level table) and one encrypted `owner.meta` sidecar per instance
//! (the build seed and update log, sealed under the owner's master key).
//! [`UpdateManager::open_root`] reopens the whole manager from the root
//! and the key alone — healing any window a crash between an index
//! commit and the manifest commit can leave — and serves queries
//! byte-identical to the pre-crash manager. Both formats are owned by the
//! [`manifest`] module — no other crate reads or writes them — and a
//! serving process without the key restarts from the same root through
//! [`open_manager_root`]. See `docs/FORMATS.md` at the repository root
//! for the byte-level layout of every file involved.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod batch;
pub mod manager;
pub mod manifest;
pub mod persist;

pub use batch::{UpdateEntry, UpdateOp};
pub use manager::{ConsolidationMode, UpdateConfig, UpdateManager};
pub use manifest::open_manager_root;
pub use persist::OwnerKey;
