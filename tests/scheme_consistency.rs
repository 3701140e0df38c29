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
use rsse::serve::{ResilientServer, ServeConfig};
use rsse::sse::test_support::TempDir;
use rsse::sse::SearchToken;

fn sorted(mut ids: Vec<DocId>) -> Vec<DocId> {
    ids.sort_unstable();
    ids.dedup();
    ids
}

/// `RangeScheme::try_query`'s contract: one query never returns an id
/// twice (`sorted` dedups, so the batteries would not notice otherwise).
fn assert_distinct(ids: &[DocId], what: &str) {
    let mut unique = ids.to_vec();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), ids.len(), "{what} returned an id twice");
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
                assert_distinct(&outcome.ids, &format!("{} for {query}", scheme.name()));
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
                assert_distinct(&outcome.ids, &format!("{} for {query}", scheme.name()));
                let eval = Evaluation::compare(&outcome.ids, &expected);
                assert!(eval.is_complete(), "{} missed results", scheme.name());
            }
        }
    }
}

/// Every one of the nine schemes — Quadratic and the per-value baseline
/// too, so on a domain Quadratic accepts — returns each id at most once
/// per query, on every backend and build path, skewed data included: the
/// update manager keeps an id from an instance without a dedup set.
#[test]
fn no_scheme_repeats_an_id_within_one_query() {
    let mut rng = ChaCha20Rng::seed_from_u64(7);
    let domain_size = 1u64 << 6;
    let datasets = [
        gowalla_like(300, domain_size, &mut rng),
        usps_like(300, domain_size, &mut rng),
    ];
    for dataset in &datasets {
        for variant in build_variants() {
            for kind in SchemeKind::ALL {
                let (scheme, _dir) = build_scheme(kind, dataset, &variant, &mut rng, "distinct");
                for range in query_mix(domain_size) {
                    let outcome = scheme
                        .try_query(range)
                        .expect("storage backend answers the battery");
                    assert_distinct(&outcome.ids, &format!("{} for {range}", scheme.name()));
                    let eval = Evaluation::compare(&outcome.ids, &dataset.matching_ids(range));
                    assert!(eval.is_complete(), "{} missed results", scheme.name());
                }
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

/// A spread of in-domain query ranges: the whole domain, both edges,
/// points, halves, a middle third and short spans.
fn query_mix(domain_size: u64) -> Vec<Range> {
    let max = domain_size - 1;
    vec![
        Range::new(0, max),
        Range::point(0),
        Range::point(max),
        Range::point(domain_size / 2),
        Range::new(1, domain_size / 2),
        Range::new(domain_size / 3, 2 * domain_size / 3),
        Range::new(max - 5, max),
        Range::new(2, 7),
        Range::new(3, 5),
    ]
}

/// Checks that `server`, wrapped in the serve plane, answers the tokens of
/// each range of the query mix exactly like the scheme's own query path —
/// ids and stats.
fn assert_servable<S: RangeScheme<Server = QueryServer>>(
    what: &str,
    domain: &Domain,
    client: &S,
    server: &QueryServer,
    tokens: impl Fn(Range) -> Vec<SearchToken>,
) {
    let serve = ResilientServer::new(server.clone(), ServeConfig::default());
    for range in query_mix(domain.size()) {
        let served = serve
            .answer(&tokens(range))
            .expect("the serve plane answers the battery");
        let scheme = client
            .try_query(server, range)
            .expect("the scheme answers the battery");
        assert_eq!(served, scheme, "{what} served differently for {range}");
    }
}

/// Every single-dictionary scheme's server is a `QueryServer`, so the serve
/// plane (`ResilientServer`) can stand in front of any of them and answer
/// their trapdoors exactly as the scheme's own `try_query` does — on both
/// backends.
#[test]
fn every_single_dictionary_server_is_servable() {
    use rsse::core::schemes::log_brc_urc::LogScheme;
    use rsse::core::schemes::log_src::LogSrcScheme;
    use rsse::core::schemes::plain_sse::PlainSseScheme;
    use rsse::core::schemes::quadratic::QuadraticScheme;

    let mut rng = ChaCha20Rng::seed_from_u64(6);
    // A 64-value domain keeps Quadratic's O(n·m²) index small.
    let dataset = gowalla_like(150, 1 << 6, &mut rng);
    let domain = dataset.domain();
    for on_disk in [false, true] {
        let dir = TempDir::new("servable");
        let config = |name: &str| {
            if on_disk {
                StorageConfig::on_disk(2, dir.path().join(name)).with_cache_budget(256 << 10)
            } else {
                StorageConfig::in_memory(2)
            }
        };
        let lane = if on_disk { "on disk" } else { "in memory" };

        for kind in [CoverKind::Brc, CoverKind::Urc] {
            let (client, server) = LogScheme::build_full_stored(
                &dataset,
                kind,
                false,
                &config(kind.label()),
                &mut rng,
            )
            .unwrap();
            let what = format!("Log-{} {lane}", kind.label());
            assert_servable(&what, domain, &client, &server, |r| {
                client.trapdoor(r).unwrap()
            });
        }

        let (client, server) =
            LogSrcScheme::build_stored(&dataset, &config("src"), &mut rng).unwrap();
        assert_servable(&format!("SRC {lane}"), domain, &client, &server, |r| {
            vec![client.trapdoor(r).unwrap()]
        });

        let (client, server) =
            QuadraticScheme::build_stored(&dataset, &config("quadratic"), &mut rng).unwrap();
        assert_servable(
            &format!("Quadratic {lane}"),
            domain,
            &client,
            &server,
            |r| vec![client.trapdoor(r).unwrap()],
        );

        let (client, server) =
            PlainSseScheme::build_stored(&dataset, &config("plain"), &mut rng).unwrap();
        assert_servable(
            &format!("per-value {lane}"),
            domain,
            &client,
            &server,
            |r| {
                let values: Vec<u64> = domain.clamp(r).unwrap().iter().collect();
                client.trapdoor_values(&values)
            },
        );
    }
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
