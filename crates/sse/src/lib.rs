//! Static single-keyword Searchable Symmetric Encryption (SSE).
//!
//! The RSSE framework of *Practical Private Range Search Revisited* treats
//! SSE as a black box: any secure SSE scheme can instantiate every range
//! scheme in the paper. This crate provides that black box — a
//! response-revealing **encrypted multimap** in the style of the Π_bas
//! construction of Cash et al. (NDSS 2014), which is also the SSE scheme the
//! paper's own evaluation builds on:
//!
//! * [`SseDatabase`] — the plaintext multimap `keyword → list of payloads`
//!   handed to `BuildIndex` (payloads are opaque byte strings; the range
//!   schemes store encrypted tuple ids or (value, position-range) pairs);
//! * [`SseScheme`] — the four algorithms of the paper's Section 2.2:
//!   [`SseScheme::setup`], [`SseScheme::build_index`],
//!   [`SseScheme::trapdoor`], [`SseScheme::search`];
//! * [`EncryptedIndex`] — the server-side dictionary of PRF-labelled,
//!   individually encrypted entries;
//! * [`ShardedIndex`] — the same dictionary split into `2^k`
//!   label-prefix-keyed shards for parallel builds, lock-free concurrent
//!   reads and shard-grouped batched search (see [`sharded`]);
//! * [`storage`] — pluggable shard backends behind the [`ShardStorage`]
//!   trait: the in-memory arena, or on-disk shard files written during
//!   BuildIndex and served via paged reads ([`FileShard`]), selected by a
//!   [`StorageConfig`] and persisted/reopened with
//!   [`ShardedIndex::save_to_dir`] / [`ShardedIndex::open_dir`];
//! * [`formats`] — the codec kit every on-disk format of the workspace is
//!   read and written with (magic + version header, bounds-checked
//!   little-endian cursor, checked row counts, tmp + rename commit);
//! * [`external`] — the external-memory `BuildIndex` pipeline: entries
//!   spill to sorted `RSSE-SPL` runs on disk and are k-way-merged back
//!   through the encrypt/scatter stages, so peak RSS is bounded by a
//!   [`BuildBudget`] rather than corpus size, with byte-identical output;
//! * [`fault`] — deterministic fault injection (seeded [`FaultPlan`]s
//!   behind the [`FaultInjectable`] trait) shared by the resilience tests,
//!   the chaos battery and the bench harness;
//! * [`padding`] — owner-side padding of the multimap to a fixed size, the
//!   countermeasure the paper prescribes for Quadratic and Logarithmic-SRC
//!   so that the index size leaks only `n` and `m`;
//! * [`leakage`] — explicit `L1`/`L2` leakage profiles (size, access
//!   pattern, search pattern) used by the security-oriented tests.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod database;
pub mod external;
pub mod fault;
pub mod formats;
pub mod leakage;
pub mod padding;
pub mod pibas;
pub mod sharded;
pub mod storage;

pub use database::SseDatabase;
pub use external::{build_index_external_with, build_index_fixed_external, SpillOrder};
pub use fault::{DelayHook, FaultInjectable, FaultInjector, FaultPlan};
pub use leakage::{AccessPattern, IndexLeakage, QueryLeakage, SearchPattern};
pub use pibas::{
    CipherSpan, CorruptEntry, EncryptedIndex, IndexLookup, Label, LabelHasher, SearchError,
    SearchToken, SseKey, SseScheme, TokenLabeler,
};
pub use sharded::{FaultShard, Shard, ShardedIndex};
pub use storage::{
    BuildBudget, CacheStats, FileShard, ShardStorage, StorageBackend, StorageConfig, StorageError,
};

// Test scaffolding shared with downstream crates' persistence tests; not
// part of the API contract.
#[doc(hidden)]
pub use storage::test_support;
