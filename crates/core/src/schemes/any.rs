//! Runtime-dispatched access to every scheme.
//!
//! The experiment harness, the update manager and the examples all need to
//! treat "a built scheme" uniformly without generics; [`AnyScheme`] bundles
//! a client with its server behind one enum and forwards queries and
//! statistics. [`SchemeKind`] enumerates every configuration the paper
//! evaluates.

use crate::dataset::Dataset;
use crate::metrics::IndexStats;
use crate::schemes::common::CoverKind;
use crate::schemes::constant::{ConstantScheme, ConstantServer};
use crate::schemes::log_brc_urc::{LogScheme, LogServer};
use crate::schemes::log_src::{LogSrcScheme, LogSrcServer};
use crate::schemes::log_src_i::{LogSrcIScheme, LogSrcIServer};
use crate::schemes::pb::{PbScheme, PbServer};
use crate::schemes::plain_sse::{PlainSseScheme, PlainSseServer};
use crate::schemes::quadratic::{QuadraticScheme, QuadraticServer};
use crate::traits::{QueryOutcome, RangeScheme};
use rand::{CryptoRng, RngCore};
use rsse_cover::Range;
use rsse_sse::{StorageConfig, StorageError};

/// Every scheme configuration evaluated in the paper (plus the per-value SSE
/// baseline used for the Figure 7 lower bound).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// Section 4 baseline with `O(n m²)` storage.
    Quadratic,
    /// Constant storage, DPRF trapdoors, BRC covering.
    ConstantBrc,
    /// Constant storage, DPRF trapdoors, URC covering.
    ConstantUrc,
    /// `O(n log m)` storage, per-node SSE tokens, BRC covering.
    LogarithmicBrc,
    /// `O(n log m)` storage, per-node SSE tokens, URC covering.
    LogarithmicUrc,
    /// Single-range cover over the TDAG.
    LogarithmicSrc,
    /// Interactive double-index single-range cover.
    LogarithmicSrcI,
    /// The baseline of Li et al. (PVLDB 2014).
    Pb,
    /// Plain per-value SSE (naive variant / pure-SSE cost).
    PlainSse,
}

impl SchemeKind {
    /// All kinds, in the order the paper's tables list them.
    pub const ALL: [SchemeKind; 9] = [
        SchemeKind::Pb,
        SchemeKind::Quadratic,
        SchemeKind::ConstantBrc,
        SchemeKind::ConstantUrc,
        SchemeKind::LogarithmicBrc,
        SchemeKind::LogarithmicUrc,
        SchemeKind::LogarithmicSrc,
        SchemeKind::LogarithmicSrcI,
        SchemeKind::PlainSse,
    ];

    /// The kinds the paper's experimental section evaluates (Quadratic is
    /// excluded there for its prohibitive storage, exactly as in Section 8).
    pub const EVALUATED: [SchemeKind; 7] = [
        SchemeKind::ConstantBrc,
        SchemeKind::ConstantUrc,
        SchemeKind::LogarithmicBrc,
        SchemeKind::LogarithmicUrc,
        SchemeKind::LogarithmicSrc,
        SchemeKind::LogarithmicSrcI,
        SchemeKind::Pb,
    ];

    /// Display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            SchemeKind::Quadratic => "Quadratic",
            SchemeKind::ConstantBrc => "Constant-BRC",
            SchemeKind::ConstantUrc => "Constant-URC",
            SchemeKind::LogarithmicBrc => "Logarithmic-BRC",
            SchemeKind::LogarithmicUrc => "Logarithmic-URC",
            SchemeKind::LogarithmicSrc => "Logarithmic-SRC",
            SchemeKind::LogarithmicSrcI => "Logarithmic-SRC-i",
            SchemeKind::Pb => "PB (Li et al.)",
            SchemeKind::PlainSse => "SSE (Cash et al.)",
        }
    }

    /// Parses the name used on the `reproduce` command line.
    pub fn parse(name: &str) -> Option<SchemeKind> {
        let normalized = name.to_ascii_lowercase().replace(['_', ' '], "-");
        Some(match normalized.as_str() {
            "quadratic" => SchemeKind::Quadratic,
            "constant-brc" => SchemeKind::ConstantBrc,
            "constant-urc" => SchemeKind::ConstantUrc,
            "logarithmic-brc" | "log-brc" => SchemeKind::LogarithmicBrc,
            "logarithmic-urc" | "log-urc" => SchemeKind::LogarithmicUrc,
            "logarithmic-src" | "log-src" => SchemeKind::LogarithmicSrc,
            "logarithmic-src-i" | "log-src-i" => SchemeKind::LogarithmicSrcI,
            "pb" | "li" => SchemeKind::Pb,
            "sse" | "plain-sse" => SchemeKind::PlainSse,
            _ => return None,
        })
    }

    /// Whether the scheme can return false positives.
    pub fn has_false_positives(&self) -> bool {
        matches!(
            self,
            SchemeKind::LogarithmicSrc | SchemeKind::LogarithmicSrcI | SchemeKind::Pb
        )
    }
}

// One `AnyScheme` exists per built index, so the size spread between
// variants is irrelevant next to the indexes they own; boxing would only
// add an indirection on the query path.
#[allow(clippy::large_enum_variant)]
enum Inner {
    Quadratic(QuadraticScheme, QuadraticServer),
    Constant(ConstantScheme, ConstantServer),
    Logarithmic(LogScheme, LogServer),
    LogSrc(LogSrcScheme, LogSrcServer),
    LogSrcI(LogSrcIScheme, LogSrcIServer),
    Pb(PbScheme, PbServer),
    PlainSse(PlainSseScheme, PlainSseServer),
}

/// A built scheme (client + server) behind runtime dispatch.
pub struct AnyScheme {
    kind: SchemeKind,
    inner: Inner,
}

impl AnyScheme {
    /// Builds the given scheme kind over a dataset on the unsharded
    /// in-memory configuration.
    pub fn build<R: RngCore + CryptoRng>(kind: SchemeKind, dataset: &Dataset, rng: &mut R) -> Self {
        Self::build_stored(kind, dataset, &StorageConfig::in_memory(0), rng)
            .expect("in-memory build cannot fail")
    }

    /// Builds the given scheme kind over a dataset with an explicit
    /// storage configuration: shard bits plus the backend (in-memory
    /// arenas or on-disk shard files, with an optional block-cache
    /// budget). Dispatches to every scheme's
    /// [`RangeScheme::build_stored`], so the whole runtime-dispatched
    /// battery (`tests/scheme_consistency.rs` loops over both) can run
    /// against either backend.
    pub fn build_stored<R: RngCore + CryptoRng>(
        kind: SchemeKind,
        dataset: &Dataset,
        config: &StorageConfig,
        rng: &mut R,
    ) -> Result<Self, StorageError> {
        let inner = match kind {
            SchemeKind::Quadratic => {
                let (c, s) = QuadraticScheme::build_stored(dataset, config, rng)?;
                Inner::Quadratic(c, s)
            }
            SchemeKind::ConstantBrc => {
                let (c, s) =
                    ConstantScheme::build_stored_with(dataset, CoverKind::Brc, config, rng)?;
                Inner::Constant(c, s)
            }
            SchemeKind::ConstantUrc => {
                let (c, s) =
                    ConstantScheme::build_stored_with(dataset, CoverKind::Urc, config, rng)?;
                Inner::Constant(c, s)
            }
            SchemeKind::LogarithmicBrc => {
                let (c, s) =
                    LogScheme::build_full_stored(dataset, CoverKind::Brc, false, config, rng)?;
                Inner::Logarithmic(c, s)
            }
            SchemeKind::LogarithmicUrc => {
                let (c, s) =
                    LogScheme::build_full_stored(dataset, CoverKind::Urc, false, config, rng)?;
                Inner::Logarithmic(c, s)
            }
            SchemeKind::LogarithmicSrc => {
                let (c, s) = LogSrcScheme::build_stored(dataset, config, rng)?;
                Inner::LogSrc(c, s)
            }
            SchemeKind::LogarithmicSrcI => {
                let (c, s) = LogSrcIScheme::build_stored(dataset, config, rng)?;
                Inner::LogSrcI(c, s)
            }
            SchemeKind::Pb => {
                let (c, s) = PbScheme::build_stored(dataset, config, rng)?;
                Inner::Pb(c, s)
            }
            SchemeKind::PlainSse => {
                let (c, s) = PlainSseScheme::build_stored(dataset, config, rng)?;
                Inner::PlainSse(c, s)
            }
        };
        Ok(Self { kind, inner })
    }

    /// The scheme kind this instance was built as.
    pub fn kind(&self) -> SchemeKind {
        self.kind
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        self.kind.name()
    }

    /// Issues a range query, panicking if the storage backend fails (see
    /// [`try_query`](Self::try_query)).
    pub fn query(&self, range: Range) -> QueryOutcome {
        self.try_query(range)
            .expect("storage backend failed during query (use try_query to handle I/O errors)")
    }

    /// Issues a range query, surfacing a disk-backed index's probe
    /// failures as typed [`StorageError`]s.
    pub fn try_query(&self, range: Range) -> Result<QueryOutcome, StorageError> {
        match &self.inner {
            Inner::Quadratic(c, s) => c.try_query(s, range),
            Inner::Constant(c, s) => c.try_query(s, range),
            Inner::Logarithmic(c, s) => c.try_query(s, range),
            Inner::LogSrc(c, s) => c.try_query(s, range),
            Inner::LogSrcI(c, s) => c.try_query(s, range),
            Inner::Pb(c, s) => c.try_query(s, range),
            Inner::PlainSse(c, s) => c.try_query(s, range),
        }
    }

    /// Generates only the trapdoor(s) for a range and reports their size in
    /// bytes and count — the owner-side cost of Figure 8 — without touching
    /// the server.
    pub fn trapdoor_cost(&self, range: Range) -> (usize, usize) {
        match &self.inner {
            Inner::Quadratic(c, _) => match c.trapdoor(range) {
                Some(_) => (1, rsse_sse::SearchToken::SIZE_BYTES),
                None => (0, 0),
            },
            Inner::Constant(c, _) => match c.trapdoor(range) {
                Some(t) => (t.node_count(), t.size_bytes()),
                None => (0, 0),
            },
            Inner::Logarithmic(c, _) => match c.trapdoor(range) {
                Some(t) => (t.len(), t.len() * rsse_sse::SearchToken::SIZE_BYTES),
                None => (0, 0),
            },
            Inner::LogSrc(c, _) => match c.trapdoor(range) {
                Some(_) => (1, rsse_sse::SearchToken::SIZE_BYTES),
                None => (0, 0),
            },
            // SRC-i always ships two tokens (one per round).
            Inner::LogSrcI(c, _) => match c.trapdoor_stage1(range) {
                Some(_) => (2, 2 * rsse_sse::SearchToken::SIZE_BYTES),
                None => (0, 0),
            },
            Inner::Pb(c, _) => match c.trapdoor(range) {
                Some(t) => (t.range_count(), t.size_bytes()),
                None => (0, 0),
            },
            Inner::PlainSse(c, _) => {
                let values: Vec<u64> = range.iter().collect();
                let tokens = c.trapdoor_values(&values);
                (
                    tokens.len(),
                    tokens.len() * rsse_sse::SearchToken::SIZE_BYTES,
                )
            }
        }
    }

    /// Index statistics of the server state.
    pub fn index_stats(&self) -> IndexStats {
        match &self.inner {
            Inner::Quadratic(_, s) => QuadraticScheme::index_stats(s),
            Inner::Constant(_, s) => ConstantScheme::index_stats(s),
            Inner::Logarithmic(_, s) => LogScheme::index_stats(s),
            Inner::LogSrc(_, s) => LogSrcScheme::index_stats(s),
            Inner::LogSrcI(_, s) => LogSrcIScheme::index_stats(s),
            Inner::Pb(_, s) => PbScheme::index_stats(s),
            Inner::PlainSse(_, s) => PlainSseScheme::index_stats(s),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schemes::testutil;
    use rand::SeedableRng;
    use rand_chacha::ChaCha20Rng;

    #[test]
    fn every_kind_builds_and_answers_completely() {
        let dataset = testutil::skewed_dataset();
        let mut rng = ChaCha20Rng::seed_from_u64(1);
        for kind in SchemeKind::ALL {
            let scheme = AnyScheme::build(kind, &dataset, &mut rng);
            assert_eq!(scheme.kind(), kind);
            for range in [Range::new(2, 7), Range::new(0, 63), Range::point(33)] {
                let outcome = scheme.query(range);
                let eval = testutil::assert_complete(&dataset, range, &outcome);
                if !kind.has_false_positives() {
                    assert!(
                        eval.is_exact(),
                        "{} must not return false positives",
                        kind.name()
                    );
                }
            }
            assert!(scheme.index_stats().entries > 0);
        }
    }

    #[test]
    fn parse_round_trips_names() {
        for kind in SchemeKind::ALL {
            if kind == SchemeKind::PlainSse || kind == SchemeKind::Pb {
                continue; // display names differ from parse aliases
            }
            assert_eq!(
                SchemeKind::parse(kind.name()),
                Some(kind),
                "{}",
                kind.name()
            );
        }
        assert_eq!(
            SchemeKind::parse("log-src-i"),
            Some(SchemeKind::LogarithmicSrcI)
        );
        assert_eq!(SchemeKind::parse("PB"), Some(SchemeKind::Pb));
        assert_eq!(SchemeKind::parse("sse"), Some(SchemeKind::PlainSse));
        assert_eq!(SchemeKind::parse("unknown"), None);
    }

    #[test]
    fn trapdoor_cost_reflects_scheme_family() {
        let dataset = testutil::uniform_dataset();
        let mut rng = ChaCha20Rng::seed_from_u64(2);
        let range = Range::new(3, 100);
        let src = AnyScheme::build(SchemeKind::LogarithmicSrc, &dataset, &mut rng);
        let brc = AnyScheme::build(SchemeKind::LogarithmicBrc, &dataset, &mut rng);
        let plain = AnyScheme::build(SchemeKind::PlainSse, &dataset, &mut rng);
        let (src_tokens, _) = src.trapdoor_cost(range);
        let (brc_tokens, _) = brc.trapdoor_cost(range);
        let (plain_tokens, _) = plain.trapdoor_cost(range);
        assert_eq!(src_tokens, 1);
        assert!(brc_tokens > 1 && brc_tokens <= 16);
        assert_eq!(plain_tokens, 98);
    }

    #[test]
    fn evaluated_list_excludes_quadratic() {
        assert!(!SchemeKind::EVALUATED.contains(&SchemeKind::Quadratic));
        assert_eq!(SchemeKind::EVALUATED.len(), 7);
    }
}
