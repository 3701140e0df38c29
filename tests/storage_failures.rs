//! Fault-injection and cache-budget integration tests for the fallible
//! storage-aware search path.
//!
//! The acceptance criteria of the typed-I/O-error refactor: a block-read
//! failure in the middle of a search must surface as a typed
//! `StorageError` from every scheme's query path and from
//! `QueryServer::answer_many` — never as a silently shortened ("entry
//! missing") result — and a cache budget must bound resident bytes while
//! leaving query outcomes byte-identical to the unbounded configuration.

use rand::SeedableRng;
use rand_chacha::ChaCha20Rng;
use rsse::core::schemes::constant::ConstantScheme;
use rsse::core::schemes::log_brc_urc::LogScheme;
use rsse::core::schemes::log_src::LogSrcScheme;
use rsse::core::schemes::log_src_i::LogSrcIScheme;
use rsse::core::{QueryServer, RangeScheme, StorageConfig, StorageError};
use rsse::prelude::*;
use rsse::serve::{ResilientServer, ServeConfig};
use rsse::sse::test_support::TempDir;
use rsse::sse::FaultInjectable;

fn dataset(domain_size: u64, n: u64) -> Dataset {
    let domain = Domain::new(domain_size);
    let records = (0..n)
        .map(|i| Record::new(i, (i * 37 + 11) % domain_size))
        .collect();
    Dataset::new(domain, records).expect("values fit the domain")
}

/// Every probe after the first few fails: the five scheme query paths —
/// Logarithmic-BRC, Logarithmic-URC, Constant, Logarithmic-SRC and
/// Logarithmic-SRC-i — must all return `Err(StorageError)` from
/// `try_query` instead of a silently incomplete `Ok`.
#[test]
fn all_five_scheme_query_paths_surface_block_read_failures() {
    let data = dataset(1 << 10, 400);
    let range = Range::new(0, 900);
    let expected = {
        let mut ids = data.matching_ids(range);
        ids.sort_unstable();
        ids
    };
    let sorted = |outcome: QueryOutcome| {
        let mut ids = outcome.ids;
        ids.sort_unstable();
        ids.dedup();
        ids
    };

    // Logarithmic-BRC and Logarithmic-URC (two of the five query paths).
    for kind in [CoverKind::Brc, CoverKind::Urc] {
        let dir = TempDir::new("fault-log");
        let mut rng = ChaCha20Rng::seed_from_u64(1);
        let (client, mut server) = LogScheme::build_full_stored(
            &data,
            kind,
            false,
            &StorageConfig::on_disk(2, dir.path()),
            &mut rng,
        )
        .expect("on-disk build");
        assert_eq!(
            sorted(
                client
                    .try_query(&server, range)
                    .expect("healthy disk answers")
            ),
            expected
        );
        server.inject_read_faults(5);
        let err = client
            .try_query(&server, range)
            .expect_err("a failing disk must not produce an Ok outcome");
        assert!(
            matches!(err, StorageError::Io { .. }),
            "Logarithmic-{} must surface a typed I/O error, got {err}",
            kind.label()
        );
    }

    // Constant-BRC (DPRF expansion feeding per-leaf SSE probes).
    {
        let dir = TempDir::new("fault-constant");
        let mut rng = ChaCha20Rng::seed_from_u64(2);
        let (client, mut server) = ConstantScheme::build_stored_with(
            &data,
            CoverKind::Brc,
            &StorageConfig::on_disk(0, dir.path()),
            &mut rng,
        )
        .expect("on-disk build");
        assert_eq!(
            sorted(
                client
                    .try_query(&server, range)
                    .expect("healthy disk answers")
            ),
            expected
        );
        server.inject_read_faults(5);
        let err = client
            .try_query(&server, range)
            .expect_err("must fail typed");
        assert!(matches!(err, StorageError::Io { .. }), "Constant: {err}");
    }

    // Logarithmic-SRC (single-token TDAG cover).
    {
        let dir = TempDir::new("fault-src");
        let mut rng = ChaCha20Rng::seed_from_u64(3);
        let (client, mut server) = LogSrcScheme::build_full_stored(
            &data,
            false,
            &StorageConfig::on_disk(1, dir.path()),
            &mut rng,
        )
        .expect("on-disk build");
        assert!(client.try_query(&server, range).is_ok());
        server.inject_read_faults(2);
        let err = client
            .try_query(&server, range)
            .expect_err("must fail typed");
        assert!(matches!(err, StorageError::Io { .. }), "Log-SRC: {err}");
    }

    // Logarithmic-SRC-i (two indexes, two rounds).
    {
        let dir = TempDir::new("fault-srci");
        let mut rng = ChaCha20Rng::seed_from_u64(4);
        let (client, mut server) = LogSrcIScheme::build_impl_stored(
            &data,
            &StorageConfig::on_disk(0, dir.path()),
            &mut rng,
        )
        .expect("on-disk build");
        assert!(client.try_query(&server, range).is_ok());
        server.inject_read_faults(0);
        let err = client
            .try_query(&server, range)
            .expect_err("must fail typed");
        assert!(matches!(err, StorageError::Io { .. }), "Log-SRC-i: {err}");
    }
}

/// The headline acceptance test: a block-read failure in the middle of a
/// served batch surfaces as a typed `StorageError` from
/// `QueryServer::answer_many` — and is distinguishable from a genuinely
/// empty result, which still comes back as `Ok`.
#[test]
fn answer_many_surfaces_mid_search_failure_as_typed_error() {
    // Values live in the lower half of the domain, so the upper half is a
    // genuinely empty range (the "label absent" case below).
    let domain = Domain::new(1 << 12);
    let data = Dataset::new(
        domain,
        (0..600u64)
            .map(|i| Record::new(i, (i * 37 + 11) % (1 << 11)))
            .collect(),
    )
    .expect("values fit the domain");
    let dir = TempDir::new("fault-server");
    let mut rng = ChaCha20Rng::seed_from_u64(5);
    let (client, server) =
        LogScheme::build_stored(&data, &StorageConfig::on_disk(3, dir.path()), &mut rng)
            .expect("on-disk build");
    drop(server);

    let ranges: Vec<Range> = (0..8u64)
        .map(|i| Range::new(i * 250, i * 250 + 249))
        .collect();
    let queries: Vec<Vec<rsse::sse::SearchToken>> = ranges
        .iter()
        .map(|&r| client.trapdoor(r).expect("in-domain range"))
        .collect();

    let mut qs = QueryServer::open_dir(dir.path()).expect("cold-open");
    let healthy = qs
        .answer_many(&queries)
        .into_iter()
        .collect::<Result<Vec<_>, _>>()
        .expect("healthy disk serves the batch");
    assert_eq!(healthy.len(), queries.len());

    // "Label absent" is an empty Ok — NOT an error.
    let empty = client
        .trapdoor(Range::new(3000, 4095))
        .expect("in-domain range");
    let outcome = qs.answer(&empty).expect("an empty range is not a failure");
    assert!(outcome.ids.is_empty(), "no record lives above 2^11");

    // "Disk failed mid-search" is a typed error — NOT an empty result —
    // and with per-query reporting, every affected slot carries its own.
    qs.inject_read_faults(25);
    let slots = qs.answer_many(&queries);
    assert_eq!(slots.len(), queries.len());
    assert!(
        slots.iter().any(Result::is_err),
        "a dead disk must fail at least one query"
    );
    for slot in &slots {
        if let Err(err) = slot {
            assert!(
                matches!(err, StorageError::Io { .. }),
                "expected a typed I/O error, got {err}"
            );
        }
    }
    let err = qs
        .answer_many(&queries)
        .into_iter()
        .collect::<Result<Vec<_>, _>>()
        .expect_err("the strict collection must abort the batch");
    assert!(matches!(err, StorageError::Io { .. }));
}

/// Regression: an *undecryptable* entry (a directory span shorter than a
/// nonce) is skipped by every query path but still **counted** — the server
/// observed the match — so `LogScheme::try_query`, `QueryServer::answer`
/// and `ResilientServer::answer` return the same ids *and* the same
/// `QueryStats`. (The per-token decoder used to count only entries that
/// decrypted, disagreeing with the server paths on `entries_touched`.)
#[test]
fn undecryptable_entry_counts_the_same_on_every_query_path() {
    use rsse::sse::storage::shard_file_name;
    use rsse::sse::TokenLabeler;

    let data = dataset(1 << 10, 400);
    let range = Range::new(100, 700);
    let dir = TempDir::new("corrupt-entry");
    let mut rng = ChaCha20Rng::seed_from_u64(12);
    let (client, server) =
        LogScheme::build_stored(&data, &StorageConfig::on_disk(0, dir.path()), &mut rng)
            .expect("on-disk build");
    drop(server);
    let tokens = client.trapdoor(range).expect("in-domain range");

    // Corrupt the shard file the way a damaged directory would look while
    // still passing the open-time tiling check: shrink one queried entry's
    // span to 3 bytes and hand the rest of it to the next entry. (Shard
    // format v1: 32-byte header with the entry count at 16, then 24-byte
    // directory entries of label, LE u32 offset, LE u32 len.)
    let path = dir.path().join(shard_file_name(0));
    let mut bytes = std::fs::read(&path).unwrap();
    let entries = u64::from_le_bytes(bytes[16..24].try_into().unwrap()) as usize;
    let entry = |i: usize| 32 + 24 * i;
    let u32_at =
        |bytes: &[u8], at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
    let victim = tokens
        .iter()
        .map(|token| TokenLabeler::new(token).label_at(0))
        .find_map(|label| (0..entries - 1).find(|&i| bytes[entry(i)..entry(i) + 16] == label))
        .expect("some queried keyword has an entry before the last directory slot");
    let (offset, len) = (
        u32_at(&bytes, entry(victim) + 16),
        u32_at(&bytes, entry(victim) + 20),
    );
    let next_len = u32_at(&bytes, entry(victim + 1) + 20);
    bytes[entry(victim) + 20..entry(victim) + 24].copy_from_slice(&3u32.to_le_bytes());
    bytes[entry(victim + 1) + 16..entry(victim + 1) + 20]
        .copy_from_slice(&(offset + 3).to_le_bytes());
    bytes[entry(victim + 1) + 20..entry(victim + 1) + 24]
        .copy_from_slice(&(next_len + len - 3).to_le_bytes());
    std::fs::write(&path, bytes).unwrap();

    let scheme_path = client
        .try_query(
            &rsse::core::schemes::log_brc_urc::LogServer::open_dir(dir.path()).unwrap(),
            range,
        )
        .expect("a corrupt entry is skipped, not an error");
    let server_path = QueryServer::open_dir(dir.path())
        .unwrap()
        .answer(&tokens)
        .expect("a corrupt entry is skipped, not an error");
    let serve_path = ResilientServer::new(
        QueryServer::open_dir(dir.path()).unwrap(),
        ServeConfig::default(),
    )
    .answer(&tokens)
    .expect("a corrupt entry is skipped, not an error");

    assert_eq!(scheme_path, server_path);
    assert_eq!(server_path, serve_path);
    // Every matched entry is counted; the undecryptable one yields no id.
    assert_eq!(scheme_path.stats.entries_touched, data.result_size(range));
    assert!(scheme_path.ids.len() < scheme_path.stats.entries_touched);
}

/// Partial-batch error reporting: one query's storage fault must not take
/// down its batch-mates. A query that never touches the dying storage
/// (out-of-domain → empty token vector) keeps answering `Ok` while every
/// probing query in the same `answer_many` batch reports its own typed
/// error.
#[test]
fn healthy_queries_in_a_faulted_batch_still_succeed() {
    let data = dataset(1 << 12, 600);
    let dir = TempDir::new("fault-partial");
    let mut rng = ChaCha20Rng::seed_from_u64(7);
    let (client, server) =
        LogScheme::build_stored(&data, &StorageConfig::on_disk(2, dir.path()), &mut rng)
            .expect("on-disk build");
    drop(server);

    // Slot 0 probes nothing (its range is empty of tokens after clamping
    // happens client-side: an empty token vector); slots 1.. all probe.
    let mut queries: Vec<Vec<rsse::sse::SearchToken>> = vec![Vec::new()];
    queries.extend((0..4u64).map(|i| client.trapdoor(Range::new(i * 500, i * 500 + 499)).unwrap()));

    let mut qs = QueryServer::open_dir(dir.path()).expect("cold-open");
    qs.inject_read_faults(0); // the disk is dead from the first probe
    let slots = qs.answer_many(&queries);
    assert!(
        slots[0]
            .as_ref()
            .expect("probe-free query survives")
            .is_empty(),
        "the healthy query answers Ok (and empty) in the faulted batch"
    );
    for slot in &slots[1..] {
        let err = slot.as_ref().expect_err("probing queries fail typed");
        assert!(matches!(err, StorageError::Io { .. }));
    }
}

/// The retry that makes per-query results worth having: failed blocks are
/// never cached, so retrying a failed probe re-reads from storage — a
/// transient fault window is absorbed invisibly, with outcomes identical
/// to the healthy server's. The raw `answer_many` no longer retries (it
/// reports the first failure typed); absorption is the resilient serving
/// layer's job, observable through its stats.
#[test]
fn resilient_retry_absorbs_a_transient_fault_window() {
    let data = dataset(1 << 12, 600);
    let dir = TempDir::new("fault-transient");
    let mut rng = ChaCha20Rng::seed_from_u64(8);
    let (client, server) =
        LogScheme::build_stored(&data, &StorageConfig::on_disk(2, dir.path()), &mut rng)
            .expect("on-disk build");
    drop(server);

    let queries: Vec<Vec<rsse::sse::SearchToken>> = (0..8u64)
        .map(|i| client.trapdoor(Range::new(i * 500, i * 500 + 499)).unwrap())
        .collect();
    let reference = QueryServer::open_dir(dir.path())
        .expect("cold-open")
        .answer_many(&queries)
        .into_iter()
        .collect::<Result<Vec<_>, _>>()
        .expect("healthy reference");

    // The first probe fails, then the "disk" recovers: exactly one probe
    // sees the failure, and its per-probe retry re-reads the now-healthy
    // block. Every slot must come back Ok and byte-identical, and the
    // absorption must be observable in the serving stats.
    let mut qs = QueryServer::open_dir(dir.path()).expect("cold-open");
    qs.inject_transient_read_faults(0, 1);
    let serve = ResilientServer::new(qs, ServeConfig::default());
    let slots = serve.answer_many(&queries);
    for (slot, expected) in slots.iter().zip(&reference) {
        assert_eq!(
            slot.as_ref().expect("the retry absorbs the blip"),
            expected,
            "post-retry outcomes must be byte-identical to the healthy server"
        );
    }
    let stats = serve.stats();
    assert_eq!(stats.faults_absorbed, 1, "exactly one probe blipped");
    assert_eq!(stats.served_ok, queries.len() as u64);
}

/// The cache-budget acceptance test at the serving layer: outcomes under a
/// tight budget are identical to the unbounded server's, resident bytes
/// stay inside the budget throughout, and the counters move.
#[test]
fn cache_budget_bounds_server_residency_with_identical_outcomes() {
    let data = dataset(1 << 12, 3_000);
    let dir = TempDir::new("budget-server");
    let mut rng = ChaCha20Rng::seed_from_u64(6);
    let (client, server) =
        LogScheme::build_stored(&data, &StorageConfig::on_disk(2, dir.path()), &mut rng)
            .expect("on-disk build");
    let region_bytes = {
        let index = server.index();
        index.storage_bytes() - index.len() * 16
    };
    drop(server);

    let ranges: Vec<Range> = (0..24u64)
        .map(|i| Range::new(i * 170, i * 170 + 240))
        .collect();
    let queries: Vec<Vec<rsse::sse::SearchToken>> = ranges
        .iter()
        .map(|&r| client.trapdoor(r).expect("in-domain range"))
        .collect();

    let unbounded = QueryServer::open_dir(dir.path()).expect("cold-open");
    let reference = unbounded
        .answer_many(&queries)
        .into_iter()
        .collect::<Result<Vec<_>, _>>()
        .expect("unbounded serves");

    // 25% of the ciphertext region: a fraction of its ~4 KiB blocks fit, so
    // the cache genuinely caches and genuinely evicts. (Budgets below one
    // block size still bound residency — nothing caches — which the sse
    // crate's `zero_budget_still_answers_with_nothing_resident` pins.)
    let budget = region_bytes / 4;
    let budgeted =
        QueryServer::open_dir_with_budget(dir.path(), Some(budget)).expect("budgeted open");
    for (query, expected) in queries.iter().zip(&reference) {
        let outcome = budgeted.answer(query).expect("budgeted serves");
        assert_eq!(
            &outcome, expected,
            "budgeted outcome must be byte-identical"
        );
        let stats = budgeted.index().cache_stats();
        assert!(
            stats.resident_bytes <= budget,
            "resident {} exceeds the {budget}-byte budget",
            stats.resident_bytes
        );
    }
    let stats = budgeted.index().cache_stats();
    assert!(stats.misses > 0);
    assert!(
        stats.evictions > 0,
        "a 25% budget over this working set must evict: {stats:?}"
    );
    assert!(
        unbounded.index().cache_stats().evictions == 0,
        "the unbounded server never evicts"
    );
}

/// Cache stats under *concurrent* mixed hit/miss/eviction traffic on the
/// public serving surface: eight threads replay overlapping query sets
/// against one budgeted server while a sampler watches the counters. Every
/// observation must show monotone hit/miss/eviction counters and residency
/// inside the budget plus the documented transient overshoot (at most one
/// in-flight ~4 KiB block per probing thread); at quiescence the budget
/// holds exactly.
#[test]
fn cache_stats_stay_consistent_under_concurrent_query_traffic() {
    use std::sync::atomic::{AtomicBool, Ordering};

    const THREADS: usize = 8;
    // Block slack: blocks are cut at a 4 KiB target plus at most one
    // (here: tens of bytes) entry, so 8 KiB per in-flight thread is a safe
    // per-block bound.
    const BLOCK_SLACK: usize = 8 << 10;

    let data = dataset(1 << 12, 3_000);
    let dir = TempDir::new("budget-concurrent");
    let mut rng = ChaCha20Rng::seed_from_u64(17);
    let (client, server) =
        LogScheme::build_stored(&data, &StorageConfig::on_disk(2, dir.path()), &mut rng)
            .expect("on-disk build");
    let region_bytes = {
        let index = server.index();
        index.storage_bytes() - index.len() * 16
    };
    drop(server);

    let queries: Vec<Vec<rsse::sse::SearchToken>> = (0..24u64)
        .map(|i| {
            client
                .trapdoor(Range::new(i * 170, i * 170 + 240))
                .expect("in-domain range")
        })
        .collect();

    let budget = region_bytes / 4;
    let budgeted =
        QueryServer::open_dir_with_budget(dir.path(), Some(budget)).expect("budgeted open");
    let reference = budgeted
        .answer_many(&queries)
        .into_iter()
        .collect::<Result<Vec<_>, _>>()
        .expect("warm reference");
    let stop = AtomicBool::new(false);

    std::thread::scope(|scope| {
        for thread in 0..THREADS {
            let budgeted = &budgeted;
            let queries = &queries;
            let reference = &reference;
            let stop = &stop;
            scope.spawn(move || {
                // Each thread walks the query set from its own offset, so
                // at any instant some threads hit warm blocks while others
                // miss and force evictions.
                for round in 0..3 {
                    for offset in 0..queries.len() {
                        let at = (thread + round * 3 + offset) % queries.len();
                        let outcome = budgeted.answer(&queries[at]).expect("budgeted serves");
                        assert_eq!(
                            &outcome, &reference[at],
                            "concurrent budgeted outcome must stay byte-identical"
                        );
                    }
                }
                stop.store(true, Ordering::Relaxed);
            });
        }
        let budgeted = &budgeted;
        let stop = &stop;
        scope.spawn(move || {
            let mut last = budgeted.index().cache_stats();
            while !stop.load(Ordering::Relaxed) {
                let stats = budgeted.index().cache_stats();
                assert!(
                    stats.hits >= last.hits
                        && stats.misses >= last.misses
                        && stats.evictions >= last.evictions,
                    "cache counters must be monotone: {last:?} -> {stats:?}"
                );
                assert!(
                    stats.resident_bytes <= budget + THREADS * BLOCK_SLACK,
                    "mid-flight resident {} exceeds budget {budget} + slack",
                    stats.resident_bytes
                );
                last = stats;
                std::thread::yield_now();
            }
        });
    });

    let stats = budgeted.index().cache_stats();
    assert!(
        stats.resident_bytes <= budget,
        "quiescent resident {} exceeds the {budget}-byte budget",
        stats.resident_bytes
    );
    assert!(stats.hits > 0, "repeated queries must hit: {stats:?}");
    assert!(stats.misses > 0);
    assert!(
        stats.evictions > 0,
        "a 25% budget under concurrent traffic must evict: {stats:?}"
    );
}
