//! Static single-keyword Searchable Symmetric Encryption (SSE).
//!
//! The RSSE framework of *Practical Private Range Search Revisited* treats
//! SSE as a black box: any secure SSE scheme can instantiate every range
//! scheme in the paper. This crate provides that black box — a
//! response-revealing **encrypted multimap** in the style of the Π_bas
//! construction of Cash et al. (NDSS 2014), which is also the SSE scheme the
//! paper's own evaluation builds on:
//!
//! * [`SseScheme`] — the paper's Section 2.2 algorithms:
//!   [`SseScheme::setup`], [`SseScheme::trapdoor`], and `Search` as the
//!   counter scan [`SseScheme::search_scan_rounds`]; `BuildIndex` is
//!   [`build_index_external_with`] over fixed-stride `(keyword, payload)`
//!   entries (the range schemes store tuple ids or (value, position-range)
//!   pairs);
//! * [`SseDatabase`] — a plaintext multimap of arbitrary-length keywords
//!   and payloads, the input of the sequential oracle
//!   [`pibas::reference`] the build and the scan are tested against;
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
//!   little-endian cursor, checked row counts, tmp + rename commit), and
//!   the two gates a test arms per directory: the crash seam every
//!   filesystem mutation passes, and the probe gate every file-shard probe
//!   passes;
//! * [`external`] — the one `BuildIndex` pipeline: entries sorted in RAM,
//!   or spilled to headerless sorted runs on disk and k-way-merged back
//!   once a [`BuildBudget`] is exceeded, then encrypted in bounded parallel
//!   batches into the shards — byte-identical output either way;
//! * [`fault`] — deterministic fault injection: the seeded [`FaultPlan`]s
//!   the resilience tests and the chaos battery arm on an index directory
//!   through the probe gate;
//! * [`padding`] — owner-side padding of the entry stream to a fixed size, the
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
mod table;

pub use database::SseDatabase;
pub use external::{build_index_external_with, with_len, SpillOrder};
pub use fault::{DelayHook, FaultInjector, FaultPlan};
pub use leakage::{AccessPattern, IndexLeakage, QueryLeakage, SearchPattern};
pub use pibas::{
    CipherSpan, EncryptedIndex, IndexLookup, Label, SearchToken, SseKey, SseScheme, TokenLabeler,
};
pub use sharded::{Shard, ShardedIndex};
pub use storage::{
    BuildBudget, CacheStats, FileShard, ShardStorage, StorageBackend, StorageConfig, StorageError,
};

// Test scaffolding shared with downstream crates' persistence tests; not
// part of the API contract.
#[doc(hidden)]
pub use storage::test_support;
