//! # rsse — Practical Private Range Search
//!
//! A Rust implementation of the Range Searchable Symmetric Encryption (RSSE)
//! framework of *Practical Private Range Search Revisited* (Demertzis,
//! Papadopoulos, Papapetrou, Deligiannakis, Garofalakis — SIGMOD 2016).
//!
//! This umbrella crate re-exports the public API of the workspace crates so
//! downstream users need a single dependency:
//!
//! * [`core`](mod@core) — the RSSE schemes (Quadratic, Constant-BRC/URC,
//!   Logarithmic-BRC/URC/SRC/SRC-i, the PB baseline and a per-value SSE
//!   baseline), the [`RangeScheme`] trait, datasets and metrics;
//! * [`cover`] — range-covering structures (BRC, URC, TDAG, SRC);
//! * [`sse`] — the underlying single-keyword SSE (encrypted multimap);
//! * [`crypto`] — PRF, GGM, delegatable PRF, AES-256-CTR payload cipher;
//! * [`bloom`] — keyed Bloom filters (used by the PB baseline);
//! * [`serve`] — the resilient serving layer (admission control, deadlines,
//!   retry budgets, per-shard circuit breakers);
//! * [`updates`] — batch updates with forward privacy (LSM consolidation);
//! * [`workload`] — synthetic Gowalla-like / USPS-like dataset and query
//!   generators used by the experiment harness.
//!
//! ## Quick start
//!
//! ```
//! use rsse::prelude::*;
//! use rand::SeedableRng;
//!
//! // A dataset of (id, value) tuples over a 2^16-value domain.
//! let domain = Domain::new(1 << 16);
//! let records: Vec<Record> = (0..1000).map(|i| Record::new(i, (i * 61) % (1 << 16))).collect();
//! let dataset = Dataset::new(domain, records).unwrap();
//!
//! // Build the paper's recommended scheme (Logarithmic-SRC-i) and query it.
//! let mut rng = rand_chacha::ChaCha20Rng::seed_from_u64(7);
//! let scheme = AnyScheme::build(SchemeKind::LogarithmicSrcI, &dataset, &mut rng);
//! let outcome = scheme.query(Range::new(100, 5_000));
//!
//! // Every matching tuple is returned (false positives are possible, false
//! // negatives are not).
//! let expected = dataset.matching_ids(Range::new(100, 5_000));
//! let eval = Evaluation::compare(&outcome.ids, &expected);
//! assert!(eval.is_complete());
//! ```

#![deny(missing_docs)]

pub use rsse_bloom as bloom;
pub use rsse_core as core;
pub use rsse_cover as cover;
pub use rsse_crypto as crypto;
pub use rsse_serve as serve;
pub use rsse_sse as sse;
pub use rsse_updates as updates;
pub use rsse_workload as workload;

pub use rsse_core::RangeScheme;
pub use rsse_core::{Dataset, DocId, Evaluation, IndexStats, QueryOutcome, QueryStats, Record};
pub use rsse_cover::{Domain, Range};

/// The most common imports, bundled.
pub mod prelude {
    pub use rsse_core::schemes::{AnyScheme, CoverKind, SchemeKind};
    pub use rsse_core::{
        Dataset, DocId, Evaluation, IndexStats, QueryOutcome, QueryServer, QueryStats, RangeScheme,
        Record,
    };
    pub use rsse_cover::{Domain, Range};
    pub use rsse_serve::{ResilientServer, ServeConfig, ServeError};
    pub use rsse_sse::ShardedIndex;
    pub use rsse_updates::{
        ConsolidationMode, OwnerKey, UpdateConfig, UpdateEntry, UpdateManager, UpdateOp,
    };
    pub use rsse_workload::{gowalla_like, usps_like, DatasetProfile};
}
