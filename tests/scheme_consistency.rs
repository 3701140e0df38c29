//! Cross-crate integration tests: every scheme, built over realistic
//! synthetic workloads, answers the same queries consistently.
//!
//! Storage backend: every battery runs in memory and through the
//! file-backed backend with a small block-cache budget, so it exercises
//! streamed builds, paged reads, and budgeted eviction too.
//!
//! Build path: on each backend every battery runs twice — without a
//! `BuildBudget` (the in-RAM grouped build) and with a deliberately tiny
//! one, so every budget-honoring scheme also builds through the external
//! spill/merge pipeline — which must leave every answer unchanged, since
//! the index bytes are identical by contract.

use rand::SeedableRng;
use rand_chacha::ChaCha20Rng;
use rsse::core::{BuildBudget, StorageConfig};
use rsse::prelude::*;
use rsse::sse::test_support::TempDir;

fn sorted(mut ids: Vec<DocId>) -> Vec<DocId> {
    ids.sort_unstable();
    ids.dedup();
    ids
}

/// What every battery runs under — (on disk?, build budget): both
/// backends, each without a budget (the in-RAM build) and with one small
/// enough that every budgeted build spills several sorted runs.
fn build_variants() -> [(bool, Option<BuildBudget>); 4] {
    let tiny = || Some(BuildBudget::with_memory(64 << 10));
    [(false, None), (false, tiny()), (true, None), (true, tiny())]
}

/// Builds `kind` under `variant`: in memory, or on disk with a 256 KiB
/// block-cache budget. Returns the scheme plus the temp directory keeping
/// a disk build alive.
fn build_scheme(
    kind: SchemeKind,
    dataset: &Dataset,
    variant: &(bool, Option<BuildBudget>),
    rng: &mut rand_chacha::ChaCha20Rng,
    tag: &str,
) -> (AnyScheme, Option<TempDir>) {
    let (mut config, dir) = if variant.0 {
        let dir = TempDir::new(tag);
        let config = StorageConfig::on_disk(2, dir.path()).with_cache_budget(256 << 10);
        (config, Some(dir))
    } else {
        (StorageConfig::in_memory(2), None)
    };
    config.build_budget = variant.1.clone();
    let scheme = AnyScheme::build_stored(kind, dataset, &config, rng)
        .expect("every backend and budget builds the battery");
    (scheme, dir)
}

/// Schemes without false positives must return exactly the ground truth;
/// schemes with false positives must at least contain it.
#[test]
fn all_schemes_are_complete_and_exact_schemes_agree() {
    let mut rng = ChaCha20Rng::seed_from_u64(1);
    let dataset = gowalla_like(1_200, 1 << 13, &mut rng);
    let queries = [
        Range::new(0, (1 << 13) - 1),
        Range::new(100, 1_500),
        Range::new(4_000, 4_200),
        Range::point(2_500),
    ];

    for variant in build_variants() {
        let schemes: Vec<(AnyScheme, Option<TempDir>)> = SchemeKind::EVALUATED
            .iter()
            .map(|kind| build_scheme(*kind, &dataset, &variant, &mut rng, "consistency"))
            .collect();

        for query in queries {
            let expected = sorted(dataset.matching_ids(query));
            for (scheme, _dir) in &schemes {
                let outcome = scheme
                    .try_query(query)
                    .expect("storage backend answers the battery");
                let eval = Evaluation::compare(&outcome.ids, &expected);
                assert!(
                    eval.is_complete(),
                    "{} missed results for {query}",
                    scheme.name()
                );
                if !scheme.kind().has_false_positives() {
                    assert_eq!(
                        sorted(outcome.ids),
                        expected,
                        "{} expected to be exact for {query}",
                        scheme.name()
                    );
                }
            }
        }
    }
}

/// The same battery on a heavily skewed (USPS-like) dataset, where the SRC
/// false-positive path is exercised hard.
#[test]
fn skewed_data_keeps_every_scheme_complete() {
    let mut rng = ChaCha20Rng::seed_from_u64(2);
    let dataset = usps_like(1_200, 1 << 13, &mut rng);
    let queries = [
        Range::new(0, 500),
        Range::new(2_000, 4_500),
        Range::new((1 << 13) - 300, (1 << 13) - 1),
    ];
    for variant in build_variants() {
        for kind in SchemeKind::EVALUATED {
            let (scheme, _dir) = build_scheme(kind, &dataset, &variant, &mut rng, "skewed");
            for query in queries {
                let expected = dataset.matching_ids(query);
                let outcome = scheme
                    .try_query(query)
                    .expect("storage backend answers the battery");
                let eval = Evaluation::compare(&outcome.ids, &expected);
                assert!(eval.is_complete(), "{} missed results", scheme.name());
            }
        }
    }
}

/// Queries that partially or fully exceed the declared domain are clamped or
/// answered empty, never panicking and never missing in-domain matches.
#[test]
fn out_of_domain_queries_are_handled_uniformly() {
    let mut rng = ChaCha20Rng::seed_from_u64(3);
    let domain_size = 1u64 << 12;
    let dataset = gowalla_like(500, domain_size, &mut rng);
    for variant in build_variants() {
        for kind in SchemeKind::EVALUATED {
            let (scheme, _dir) = build_scheme(kind, &dataset, &variant, &mut rng, "edges");
            // Fully outside: empty.
            assert!(
                scheme
                    .query(Range::new(domain_size + 10, domain_size + 20))
                    .is_empty(),
                "{} should answer empty outside the domain",
                scheme.name()
            );
            // Straddling the upper edge: clamped, still complete.
            let query = Range::new(domain_size - 100, domain_size + 100);
            let clamped = Range::new(domain_size - 100, domain_size - 1);
            let outcome = scheme.query(query);
            let eval = Evaluation::compare(&outcome.ids, &dataset.matching_ids(clamped));
            assert!(
                eval.is_complete(),
                "{} missed results at the edge",
                scheme.name()
            );
        }
    }
}

/// The underlying SSE layer never returns payloads for keys it was not built
/// with: querying a scheme built over dataset A with a client built over
/// dataset B yields nothing useful (keys are independent).
#[test]
fn clients_and_servers_from_different_builds_do_not_mix() {
    use rsse::core::schemes::log_brc_urc::LogScheme;
    use rsse::core::schemes::CoverKind;
    use rsse::core::RangeScheme;

    let mut rng = ChaCha20Rng::seed_from_u64(4);
    let dataset = gowalla_like(300, 1 << 12, &mut rng);
    let (_client_a, server_a) = LogScheme::build_with(&dataset, CoverKind::Brc, &mut rng);
    let (client_b, _server_b) = LogScheme::build_with(&dataset, CoverKind::Brc, &mut rng);
    // Client B's tokens are derived from an independent key, so they find
    // nothing in server A's index.
    let outcome = client_b.query(&server_a, Range::new(0, (1 << 12) - 1));
    assert!(outcome.is_empty());
}

/// Dataset profiles generated by the workload crate match the paper's
/// stated statistics closely enough to drive the experiments.
#[test]
fn workload_profiles_match_paper_statistics() {
    let mut rng = ChaCha20Rng::seed_from_u64(5);
    let gowalla = DatasetProfile::of(&gowalla_like(10_000, 1 << 20, &mut rng));
    let usps = DatasetProfile::of(&usps_like(10_000, 1 << 18, &mut rng));
    assert!(gowalla.distinct_ratio > 0.9);
    assert!(usps.distinct_ratio < 0.1);
    assert_eq!(gowalla.n, 10_000);
    assert_eq!(usps.n, 10_000);
}
