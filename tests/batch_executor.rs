//! The batch-executor battery: cross-query probe deduplication must be a
//! pure execution-layer optimization.
//!
//! The contract pinned here, across seeds × {in_memory, on_disk} backends:
//!
//! * **Byte-identical outcomes** — `answer_batch` returns exactly what
//!   serving each query alone (a batch of one, the sequential guarded
//!   scan) returns, which in turn is exactly what the raw `QueryServer`
//!   returns: same ids in the same order, same `QueryStats`.
//! * **Identical per-query probe counts** — the per-query leakage profile
//!   (probes demanded: every hit plus each token's terminating miss) is
//!   the sequential path's; only the *storage* read count shrinks, and the
//!   saving is visible exclusively in the executor's own counters.
//! * **Control plane** — a deadline cuts one query with a typed partial
//!   without cancelling probes other queries share (a shared token runs
//!   under its latest demander's deadline); a fully resolved query is never
//!   cut; an open breaker fails exactly the queries demanding a token that
//!   probes its shard, and a shared probe's failure keeps its shard file
//!   and error kind; transient faults are absorbed per unique probe; the
//!   drain serves the fair plan, each request as if answered alone.

use proptest::prelude::*;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha20Rng;
use rsse::core::schemes::log_brc_urc::LogScheme;
use rsse::core::{QueryServer, StorageConfig};
use rsse::prelude::*;
use rsse::serve::{
    AdmissionConfig, BreakerConfig, BreakerState, Clock, ResilientServer, RetryConfig, ServeConfig,
    ServeError, VirtualClock,
};
use rsse::sse::formats::{arm_faults, FaultScope};
use rsse::sse::storage::shard_file_name;
use rsse::sse::test_support::TempDir;
use rsse::sse::{FaultPlan, SearchToken, StorageError, TokenLabeler};
use std::collections::HashSet;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

fn dataset(seed: u64) -> Dataset {
    let domain = Domain::new(1 << 12);
    let mut rng = ChaCha20Rng::seed_from_u64(seed ^ 0xda7a);
    let records = (0..1_500u64)
        .map(|i| Record::new(i, rng.gen_range(0..domain.size())))
        .collect();
    Dataset::new(domain, records).expect("values fit the domain")
}

/// A Zipf-flavored query mix with guaranteed overlap: a few hot ranges
/// repeated (some byte-identical, some jittered) plus scattered cold ones.
fn query_mix(seed: u64, domain: Domain, n: usize) -> Vec<Range> {
    let mut rng = ChaCha20Rng::seed_from_u64(seed ^ 0x9e37_79b9);
    let hot: Vec<u64> = (0..4)
        .map(|_| rng.gen_range(0..domain.size() - 200))
        .collect();
    (0..n)
        .map(|i| {
            if i % 4 == 3 {
                let lo = rng.gen_range(0..domain.size() - 200);
                Range::new(lo, lo + rng.gen_range(1..200u64))
            } else {
                let center = hot[rng.gen_range(0..hot.len())];
                let jitter = if i % 2 == 0 {
                    0
                } else {
                    rng.gen_range(0..16u64)
                };
                Range::new(center + jitter, center + jitter + 120)
            }
        })
        .collect()
}

/// One backend lane under test: a Logarithmic-BRC client paired with a
/// `QueryServer` over its index, plus the tempdir guard for disk builds.
struct Lane {
    name: &'static str,
    client: LogScheme,
    qs: QueryServer,
    dir: Option<TempDir>,
}

impl Lane {
    /// The on-disk lane's index directory, where a fault plan is armed.
    fn dir(&self) -> &Path {
        self.dir.as_ref().expect("the on-disk lane").path()
    }
}

/// Builds both backend lanes for one seed: an in-memory sharded index, and
/// an on-disk build reopened through the budgeted block cache (64 KiB —
/// small enough that the batch sweeps evict).
fn lanes(seed: u64, tag: &str) -> Vec<Lane> {
    lanes_over(&dataset(seed), seed, tag)
}

/// [`lanes`] over a caller-chosen dataset.
fn lanes_over(data: &Dataset, seed: u64, tag: &str) -> Vec<Lane> {
    let mut rng = ChaCha20Rng::seed_from_u64(seed);
    let (client, qs) = LogScheme::build_stored(data, &StorageConfig::in_memory(4), &mut rng)
        .expect("in-memory build cannot fail");
    let mem = Lane {
        name: "in_memory",
        client,
        qs,
        dir: None,
    };

    let dir = TempDir::new(tag);
    let mut rng = ChaCha20Rng::seed_from_u64(seed);
    let (client, server) = LogScheme::build_full_stored(
        data,
        CoverKind::Brc,
        false,
        &StorageConfig::on_disk(4, dir.path()),
        &mut rng,
    )
    .expect("on-disk build");
    drop(server);
    let qs = QueryServer::open_dir_with_budget(dir.path(), Some(64 << 10))
        .expect("reopen budgeted on-disk index");
    let disk = Lane {
        name: "on_disk",
        client,
        qs,
        dir: Some(dir),
    };

    vec![mem, disk]
}

/// Unique tokens from which a batch's units are offered to a second lane
/// of the pool: twice the executor's 8 units per lane. Below it, a batch
/// is scanned inline, in plan order.
const SPLIT_UNITS: usize = 16;

/// The unique tokens of a batch (its units of scan work).
fn unique_tokens(batch: &[Vec<SearchToken>]) -> usize {
    batch.iter().flatten().collect::<HashSet<_>>().len()
}

/// The headline property, swept across seeds and backends: batched-deduped
/// execution is outcome- and leakage-equivalent to the sequential guarded
/// path, and only the storage probe count shrinks.
#[test]
fn batched_dedup_is_byte_identical_with_identical_probe_counts() {
    for seed in [1u64, 7, 23] {
        for lane in lanes(seed, "batch-prop") {
            let (backend, qs) = (lane.name, lane.qs);
            let domain = Domain::new(1 << 12);
            let queries: Vec<Vec<SearchToken>> = query_mix(seed, domain, 48)
                .into_iter()
                .filter_map(|r| lane.client.trapdoor(r))
                .collect();
            assert!(queries.len() >= 40, "query mix must mostly be in-domain");

            // Three servers over clones of one backend: the whole mix as
            // one batch, each query as a batch of its own (nothing to share
            // across queries), and each query through `answer`.
            let batch = ResilientServer::new(qs.clone(), ServeConfig::default());
            let singles = ResilientServer::new(qs.clone(), ServeConfig::default());
            let naive = ResilientServer::new(qs, ServeConfig::default());

            let batched = batch.answer_batch(&queries);
            for (i, (query, outcome)) in queries.iter().zip(&batched).enumerate() {
                let before = (naive.stats(), singles.stats());
                let expected = naive.answer(query).expect("healthy backend");
                let single = singles.answer_batch(std::slice::from_ref(query));
                let after = (naive.stats(), singles.stats());
                assert_eq!(
                    outcome.as_ref().expect("healthy backend"),
                    &expected,
                    "batched/sequential outcomes differ (seed {seed}, {backend}, query {i})"
                );
                assert_eq!(single[0].as_ref().expect("healthy backend"), &expected);
                // A single query is a batch of one: every counter moves
                // alike, the per-query probe count (the leakage profile)
                // among them.
                assert_eq!(
                    before.0, before.1,
                    "both servers start equal (seed {seed}, {backend}, query {i})"
                );
                assert_eq!(
                    after.0, after.1,
                    "`answer` is `answer_batch` of one (seed {seed}, {backend}, query {i})"
                );
                // A cover repeats no node: one round per token, on one
                // lane, and nothing deduplicated.
                let tokens = query.len() as u64;
                assert_eq!(after.1.batch_rounds - before.1.batch_rounds, tokens);
                assert_eq!(
                    after.1.batch_probes_unique - before.1.batch_probes_unique,
                    after.1.probes_resolved - before.1.probes_resolved
                );
                assert!(after.1.batch_max_lane_depth >= tokens);
            }

            // The whole batch demands the sequential totals ...
            let stats = batch.stats();
            let seq = naive.stats();
            assert_eq!(
                stats.probes_resolved, seq.probes_resolved,
                "dedup must not change demanded probe counts (seed {seed}, {backend})"
            );
            assert_eq!(stats.batch_probes_demanded, seq.probes_resolved);

            // ... and issues strictly fewer to storage (the mix guarantees
            // byte-identical hot queries), the difference being the dedup
            // hits.
            assert!(
                stats.batch_probes_unique < stats.batch_probes_demanded,
                "hot mix must dedup some probes (seed {seed}, {backend})"
            );
            assert_eq!(
                stats.batch_dedup_hits,
                stats.batch_probes_demanded - stats.batch_probes_unique
            );
            assert!(stats.batch_rounds > 0 && stats.batch_max_lane_depth > 0);
        }
    }
}

/// An all-duplicates batch collapses to one query's worth of storage
/// probes, regardless of batch width.
#[test]
fn identical_queries_share_every_probe() {
    for lane in lanes(5, "batch-dup") {
        let (backend, qs) = (lane.name, lane.qs);
        let tokens = lane
            .client
            .trapdoor(Range::new(100, 900))
            .expect("in-domain");
        let queries: Vec<Vec<SearchToken>> = (0..16).map(|_| tokens.clone()).collect();
        let serve = ResilientServer::new(qs, ServeConfig::default());
        let outcomes = serve.answer_batch(&queries);
        let first = outcomes[0].as_ref().expect("healthy backend");
        for slot in &outcomes {
            assert_eq!(slot.as_ref().expect("healthy backend"), first);
        }
        let stats = serve.stats();
        assert_eq!(
            stats.batch_probes_demanded,
            16 * stats.batch_probes_unique,
            "16 clones must demand 16× the unique probes ({backend})"
        );
        assert!(
            stats.batch_dedup_hit_rate() > 0.93,
            "hit rate {:.3} must approach 15/16 ({backend})",
            stats.batch_dedup_hit_rate()
        );
    }
}

/// Transient storage faults are absorbed per unique probe inside the batch;
/// outcomes stay byte-identical to the healthy server's.
#[test]
fn batch_absorbs_transient_faults_byte_identically() {
    let lane = lanes(11, "batch-fault").remove(1);
    let qs = lane.qs.clone();
    let queries: Vec<Vec<SearchToken>> = query_mix(11, Domain::new(1 << 12), 24)
        .into_iter()
        .filter_map(|r| lane.client.trapdoor(r))
        .collect();

    let healthy = ResilientServer::new(qs.clone(), ServeConfig::default());
    let expected = healthy.answer_batch(&queries);

    let _faults = arm_faults(lane.dir(), FaultPlan::transient_window(2, 4), None);
    let degraded = ResilientServer::new(qs, ServeConfig::default());
    let recovered = degraded.answer_batch(&queries);

    for (slot, expect) in recovered.iter().zip(&expected) {
        assert_eq!(
            slot.as_ref().expect("retries absorb the window"),
            expect.as_ref().expect("healthy backend"),
        );
    }
    let stats = degraded.stats();
    assert!(stats.faults_absorbed > 0, "the window must have been hit");
    assert_eq!(stats.retry_exhausted, 0);
}

/// A query whose deadline expired while queued is cut at batch start with
/// a typed zero-probe partial — and the live query sharing
/// its exact probes still completes, byte-identical: cutting a demander
/// never cancels shared work.
#[test]
fn expired_deadline_cuts_query_without_cancelling_shared_probes() {
    let lane = lanes(3, "batch-deadline").remove(0);
    let qs = lane.qs;
    let tokens = lane
        .client
        .trapdoor(Range::new(50, 700))
        .expect("in-domain");

    let clock = Arc::new(VirtualClock::new());
    let config = ServeConfig {
        default_deadline: Some(Duration::from_millis(100)),
        ..ServeConfig::default()
    };
    let reference = ResilientServer::new(qs.clone(), ServeConfig::default());
    let expected = reference.answer(&tokens).expect("healthy backend");

    let serve = ResilientServer::with_clock(qs, config, clock.clone());
    serve
        .enqueue("tenant-a", tokens.clone())
        .expect("queue empty");
    clock.advance(Duration::from_millis(200)); // tenant-a's deadline passes
    serve
        .enqueue("tenant-b", tokens.clone())
        .expect("queue empty");

    let drained = serve.drain();
    assert_eq!(drained.len(), 2);
    match &drained[0].1 {
        Err(ServeError::DeadlineExceeded { partial, .. }) => {
            assert_eq!(partial.probes_resolved, 0, "cut before any probe");
            assert!(partial.ids.is_empty());
        }
        other => panic!("tenant-a must be cut by its deadline, got {other:?}"),
    }
    assert_eq!(
        drained[1].1.as_ref().expect("tenant-b is within deadline"),
        &expected,
        "the surviving demander of the shared probes must complete identically"
    );
}

/// The drain serves the oldest-tenant-fair plan as one batch: the tickets
/// come back in plan order, each with exactly the outcome of answering its
/// request alone, in plan order, and the same probe totals.
#[test]
fn drain_batched_matches_sequential_drain() {
    let lane = lanes(9, "batch-drain").remove(0);
    let qs = lane.qs;
    let ranges = query_mix(9, Domain::new(1 << 12), 12);

    let alone = ResilientServer::new(qs.clone(), ServeConfig::default());
    let batched = ResilientServer::new(qs, ServeConfig::default());
    let mut queued: Vec<Vec<SearchToken>> = Vec::new();
    for (i, range) in ranges.iter().enumerate() {
        let tokens = lane.client.trapdoor(*range).expect("in-domain");
        let tenant = format!("tenant-{}", i % 3);
        let ticket = batched.enqueue(&tenant, tokens.clone()).expect("fits");
        assert_eq!(ticket.0 as usize, queued.len(), "tickets count from 0");
        queued.push(tokens);
    }

    let drained = batched.drain();
    // Three tenants enqueued in turn: each fair round takes one request of
    // each, oldest first, which is the enqueue order.
    let order: Vec<usize> = drained
        .iter()
        .map(|(ticket, _)| ticket.0 as usize)
        .collect();
    assert_eq!(order, (0..queued.len()).collect::<Vec<_>>());
    for (ticket, outcome) in &drained {
        let expected = alone.answer(&queued[ticket.0 as usize]);
        assert_eq!(
            outcome.as_ref().expect("healthy backend"),
            expected.as_ref().expect("healthy backend"),
            "ticket {ticket:?}"
        );
    }
    let (stats, reference) = (batched.stats(), alone.stats());
    assert_eq!(stats.probes_resolved, reference.probes_resolved);
    assert_eq!(stats.served_ok, reference.served_ok);
}

/// A shared probe that runs out of retries fails every query demanding it
/// with the error a query answered alone reports: the same shard file, the
/// same I/O error kind and message — not a placeholder path.
#[test]
fn shared_probe_failure_keeps_its_file_and_error_kind() {
    let lane = lanes(3, "batch-shared-fault").remove(1);
    // BRC covers sharing exactly the node [512, 767].
    let first = lane
        .client
        .trapdoor(Range::new(200, 767))
        .expect("in-domain");
    let second = lane
        .client
        .trapdoor(Range::new(512, 895))
        .expect("in-domain");
    let shared = first
        .iter()
        .find(|token| second.contains(token))
        .expect("one shared node");
    let dead = lane
        .qs
        .index()
        .shard_of(&TokenLabeler::new(shared).label_at(0)) as u32;

    let _faults = arm_faults(lane.dir(), FaultPlan::seeded(1).dead_shard(dead), None);
    let config = ServeConfig {
        retry: RetryConfig {
            max_attempts: 2,
            ..RetryConfig::default()
        },
        breaker: BreakerConfig {
            failure_threshold: u32::MAX,
            cooldown: Duration::from_secs(600),
        },
        ..ServeConfig::default()
    };
    let server = || {
        let clock = Arc::new(VirtualClock::new());
        ResilientServer::with_clock(lane.qs.clone(), config.clone(), clock)
    };
    let alone = server();
    let serve = server();
    serve.enqueue("tenant-a", first.clone()).expect("fits");
    serve.enqueue("tenant-b", second.clone()).expect("fits");
    let drained = serve.drain();

    for ((_, outcome), tokens) in drained.iter().zip([&first, &second]) {
        let expected = alone.answer(tokens).expect_err("demands the dead shard");
        let got = outcome.as_ref().expect_err("demands the dead shard");
        match (got, &expected) {
            (
                ServeError::RetriesExhausted {
                    attempts: 2,
                    source: StorageError::Io { path, error },
                    ..
                },
                ServeError::RetriesExhausted {
                    attempts: 2,
                    source:
                        StorageError::Io {
                            path: expected_path,
                            error: expected_error,
                        },
                    ..
                },
            ) => {
                assert_eq!(path, expected_path);
                assert!(
                    path.ends_with(shard_file_name(dead as usize)),
                    "{}",
                    path.display()
                );
                assert_eq!(error.kind(), expected_error.kind());
            }
            other => panic!("expected two exhausted retries, got {other:?}"),
        }
        assert_eq!(got.to_string(), expected.to_string());
    }
}

/// The unattributed serving paths admit as the *configured* default tenant
/// (no more hardcoded `"adhoc"`): pressure sheds report it by name.
#[test]
fn default_tenant_is_taken_from_config() {
    let lane = lanes(13, "batch-tenant").remove(1);
    assert_eq!(lane.name, "on_disk");
    let config = ServeConfig {
        default_tenant: "reporting".to_string(),
        admission: AdmissionConfig {
            // Any resident ciphertext sheds — the second query must trip.
            shed_at_resident_bytes: Some(0),
            ..Default::default()
        },
        ..ServeConfig::default()
    };
    let tokens = lane.client.trapdoor(Range::new(0, 800)).expect("in-domain");
    let serve = ResilientServer::new(lane.qs, config);
    serve
        .answer(&tokens)
        .expect("cold cache: nothing resident yet");
    match serve.answer(&tokens) {
        Err(ServeError::Overloaded { tenant, .. }) => {
            assert_eq!(tenant, "reporting", "shed must name the configured tenant");
        }
        other => panic!("warm cache must shed for pressure, got {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The differential property behind every other test here: for random
    /// batches — byte-identical queries, partially overlapping covers,
    /// empty token vectors, tokens with no entries — `answer_batch` equals
    /// serving each query alone (ids, `QueryStats`, probe totals), for a
    /// batch scanned inline and one offered to the pool's lanes, in memory
    /// and behind a 64 KiB block cache, and the dedup counters reconcile.
    #[test]
    fn batch_matches_per_query_answers_on_random_batches(
        seed in 0u64..1_000_000,
        specs in proptest::collection::vec((0usize..6, 0u64..1024, 1u64..160), 0..40),
    ) {
        // Records only in the lower half of the domain: every token over
        // the upper half has no entries.
        let domain = Domain::new(1 << 10);
        let mut rng = ChaCha20Rng::seed_from_u64(seed);
        let records = (0..300u64)
            .map(|i| Record::new(i, rng.gen_range(0..domain.size() / 2)))
            .collect();
        let data = Dataset::new(domain, records).expect("values fit the domain");
        let hot = [Range::new(40, 200), Range::new(130, 330), Range::new(300, 511)];

        for lane in lanes_over(&data, seed, "batch-diff") {
            let queries: Vec<Vec<SearchToken>> = specs
                .iter()
                .map(|&(kind, lo, len)| {
                    let spot = hot[lo as usize % hot.len()];
                    let range = match kind {
                        0 | 1 => spot,
                        2 => Range::new(spot.lo() + lo % 16, spot.hi() + lo % 16),
                        3 => Range::new(lo, (lo + len).min(domain.size() - 1)),
                        4 => return Vec::new(),
                        _ => Range::new(512 + lo % 400, (512 + lo % 400 + len).min(1023)),
                    };
                    lane.client.trapdoor(range).expect("in-domain range")
                })
                .collect();

            // The batch's longest prefix that is scanned inline, and the
            // whole batch padded past the split threshold with wide ranges.
            let inline = (0..=queries.len())
                .rev()
                .find(|&len| unique_tokens(&queries[..len]) < SPLIT_UNITS)
                .expect("the empty prefix has no token");
            let mut padded = queries.clone();
            padded.extend((0..4u64).map(|i| {
                let range = Range::new(i * 256 + 1, i * 256 + 250);
                lane.client.trapdoor(range).expect("in-domain range")
            }));
            prop_assert!(unique_tokens(&padded) >= SPLIT_UNITS);

            // The pool's width: one thread per CPU the process may use.
            let one_cpu = std::thread::available_parallelism().map_or(true, |n| n.get() == 1);
            for batch in [&queries[..inline], &padded[..]] {
                let naive = ResilientServer::new(lane.qs.clone(), ServeConfig::default());
                let expected: Vec<QueryOutcome> = batch
                    .iter()
                    .map(|query| naive.answer(query).expect("healthy backend"))
                    .collect();
                let sequential = naive.stats();

                let serve = ResilientServer::new(lane.qs.clone(), ServeConfig::default());
                let batched: Vec<QueryOutcome> = serve
                    .answer_batch(batch)
                    .into_iter()
                    .map(|outcome| outcome.expect("healthy backend"))
                    .collect();
                let unique = unique_tokens(batch);
                let at = format!("{}, {} queries, {unique} unique tokens", lane.name, batch.len());
                prop_assert_eq!(&batched, &expected, "outcomes differ ({})", at);

                let stats = serve.stats();
                prop_assert_eq!(stats.probes_resolved, sequential.probes_resolved, "{}", at);
                prop_assert_eq!(stats.served_ok, sequential.served_ok, "{}", at);
                prop_assert_eq!(stats.admitted, sequential.admitted, "{}", at);
                prop_assert_eq!(stats.batch_probes_demanded, stats.probes_resolved, "{}", at);
                prop_assert!(
                    stats.batch_probes_unique <= stats.batch_probes_demanded,
                    "{}", at
                );
                prop_assert_eq!(
                    stats.batch_probes_demanded - stats.batch_probes_unique,
                    stats.batch_dedup_hits,
                    "{}", at
                );
                // Which path the batch took: below the threshold (or on a
                // one-thread pool) one lane scans every unit; above it the
                // units are offered to the pool, and the lanes that take
                // some share them.
                if batch.len() > 1 {
                    prop_assert_eq!(stats.batch_rounds, unique as u64, "{}", at);
                }
                if unique < SPLIT_UNITS || one_cpu {
                    prop_assert_eq!(stats.batch_max_lane_depth, stats.batch_rounds, "{}", at);
                } else {
                    prop_assert!(stats.batch_max_lane_depth <= stats.batch_rounds, "{}", at);
                }
            }
        }
    }
}

/// A deadline-staggered pair on one virtual clock: `first` is enqueued with
/// 4.5 ms of its 10 s budget left by drain time, `second` with the whole
/// budget — effectively unbounded at 1 ms of injected latency per probe.
/// Returns the server over `lane` (drained through `drain`; the pair holds
/// fewer than [`SPLIT_UNITS`] unique tokens, so it is scanned inline and
/// the probe order is the plan order), its clock, and
/// the latency plan armed on the lane's directory.
fn staggered_pair(
    lane: &Lane,
    first: &[SearchToken],
    second: &[SearchToken],
) -> (ResilientServer, Arc<VirtualClock>, FaultScope) {
    let clock = Arc::new(VirtualClock::new());
    let latency = arm_faults(
        lane.dir(),
        FaultPlan::seeded(1).latency(Duration::from_millis(1)),
        Some(clock.delay_hook()),
    );
    assert!(
        unique_tokens(&[first.to_vec(), second.to_vec()]) < SPLIT_UNITS,
        "the pair's batch is scanned inline, in plan order"
    );
    let config = ServeConfig {
        default_deadline: Some(Duration::from_secs(10)),
        ..ServeConfig::default()
    };
    let serve = ResilientServer::with_clock(lane.qs.clone(), config, clock.clone());
    serve.enqueue("tenant-a", first.to_vec()).expect("fits");
    clock.advance(Duration::from_secs(10) - Duration::from_micros(4500));
    serve.enqueue("tenant-b", second.to_vec()).expect("fits");
    (serve, clock, latency)
}

/// A deadline passing *mid-scan* cuts only the work nobody else can use:
/// the cut query gets a typed partial whose ids are a per-token prefix of
/// its full answer — the token it shares with a still-live query resolved
/// in full, under that query's later deadline — and the sharer completes
/// byte-identically.
#[test]
fn mid_scan_deadline_cut_keeps_shared_tokens_running() {
    let lane = lanes(3, "batch-midscan").remove(1);
    let reference = ResilientServer::new(lane.qs.clone(), ServeConfig::default());
    // BRC covers sharing exactly the node [512, 767] (trapdoors come
    // shuffled, so the shared token sits anywhere in either vector).
    let cut = lane
        .client
        .trapdoor(Range::new(200, 767))
        .expect("in-domain");
    let sharer = lane
        .client
        .trapdoor(Range::new(512, 895))
        .expect("in-domain");
    let shared: Vec<bool> = cut.iter().map(|token| sharer.contains(token)).collect();
    assert_eq!(shared.iter().filter(|&&s| s).count(), 1, "one shared node");
    let groups: Vec<Vec<DocId>> = cut
        .iter()
        .map(|token| {
            let outcome = reference.answer(std::slice::from_ref(token));
            outcome.expect("healthy backend").ids
        })
        .collect();
    let expected_sharer = reference.answer(&sharer).expect("healthy backend");

    // The oracle: units are scanned in plan order (the cut query's tokens
    // first), 1 ms per probe, each token's probes being its hits plus the
    // terminating miss. The cut query's own tokens stop once 4.5 ms have
    // passed; its shared token runs to completion whenever it comes up.
    let mut elapsed_ms = 0.0;
    let mut expected_ids: Vec<DocId> = Vec::new();
    let mut expected_probes = 0u64;
    for (group, &shared) in groups.iter().zip(&shared) {
        let mut probes = 0;
        while probes <= group.len() && (shared || elapsed_ms < 4.5) {
            probes += 1;
            elapsed_ms += 1.0;
        }
        expected_ids.extend(&group[..probes.min(group.len())]);
        expected_probes += probes as u64;
    }
    let full: usize = groups.iter().map(Vec::len).sum();
    assert!(expected_ids.len() < full, "the cut must lose something");

    let (serve, _clock, _latency) = staggered_pair(&lane, &cut, &sharer);
    let drained = serve.drain();
    match &drained[0].1 {
        Err(ServeError::DeadlineExceeded {
            deadline, partial, ..
        }) => {
            assert_eq!(
                *deadline,
                Duration::from_micros(4500),
                "the cut query reports its own deadline, not the shared token's"
            );
            assert_eq!(partial.tokens_total, cut.len());
            assert_eq!(partial.probes_resolved, expected_probes);
            assert_eq!(partial.ids, expected_ids, "per-token prefixes, in order");
        }
        other => panic!("the first query must be cut mid-scan, got {other:?}"),
    }
    assert_eq!(
        drained[1].1.as_ref().expect("within its deadline"),
        &expected_sharer,
        "the sharer must complete byte-identically"
    );
    let stats = serve.stats();
    assert_eq!((stats.deadline_expired, stats.served_ok), (1, 1));
}

/// A query whose deadline passes during the batch, but whose tokens were
/// all completed for another demander, returns `Ok`: cutting it would only
/// discard an answer that is already there.
#[test]
fn fully_resolved_query_is_not_cut_by_its_deadline() {
    let lane = lanes(3, "batch-resolved").remove(1);
    let tokens = lane
        .client
        .trapdoor(Range::new(50, 700))
        .expect("in-domain");
    let expected = ResilientServer::new(lane.qs.clone(), ServeConfig::default())
        .answer(&tokens)
        .expect("healthy backend");

    let (serve, clock, _latency) = staggered_pair(&lane, &tokens, &tokens);
    let drained = serve.drain();
    assert!(
        clock.now() > Duration::from_secs(10),
        "the batch must have run past the first query's deadline"
    );
    for (_, outcome) in &drained {
        assert_eq!(outcome.as_ref().expect("every token completed"), &expected);
    }
    let stats = serve.stats();
    assert_eq!((stats.deadline_expired, stats.served_ok), (0, 2));
}

/// An open breaker on one shard fails exactly the queries demanding a token
/// that probes it — every demander of a shared token with its own typed
/// `ShardUnavailable` — and every other query completes byte-identically.
#[test]
fn open_breaker_fails_only_the_queries_probing_its_shard() {
    let lane = lanes(17, "batch-breaker").remove(1);
    let reference = ResilientServer::new(lane.qs.clone(), ServeConfig::default());
    // Narrow ranges (a handful of probes each), every one asked twice.
    let queries: Vec<Vec<SearchToken>> = (0..24u64)
        .map(|i| Range::new(i * 150, i * 150 + 1 + i % 3))
        .flat_map(|range| [range, range])
        .map(|range| lane.client.trapdoor(range).expect("in-domain"))
        .collect();
    // The shards a query's scan probes: every hit plus each token's
    // terminating miss.
    let index = lane.qs.index();
    let shards_of = |query: &[SearchToken]| -> Vec<u32> {
        let mut shards = Vec::new();
        for token in query {
            let labeler = TokenLabeler::new(token);
            for counter in 0u64.. {
                let label = labeler.label_at(counter);
                shards.push(index.shard_of(&label) as u32);
                if index.try_get(&label).expect("healthy backend").is_none() {
                    break;
                }
            }
        }
        shards
    };
    // Both are read off the same files the plan is armed on, so before it.
    let probed: Vec<Vec<u32>> = queries.iter().map(|query| shards_of(query)).collect();
    let answers: Vec<_> = queries
        .iter()
        .map(|query| reference.answer(query))
        .collect();
    let dead = probed[0][0];

    let _faults = arm_faults(lane.dir(), FaultPlan::seeded(1).dead_shard(dead), None);
    let qs = lane.qs.clone();
    let config = ServeConfig {
        breaker: BreakerConfig {
            failure_threshold: 1,
            cooldown: Duration::from_secs(600),
        },
        ..ServeConfig::default()
    };
    let serve = ResilientServer::with_clock(qs, config, Arc::new(VirtualClock::new()));
    serve
        .answer(&queries[0])
        .expect_err("the first probe of the dead shard opens its breaker");
    assert_eq!(serve.breaker_state(dead), BreakerState::Open);
    let before = serve.stats();

    let outcomes = serve.answer_batch(&queries);
    let mut failed = 0u64;
    for ((shards, answer), outcome) in probed.iter().zip(&answers).zip(&outcomes) {
        if shards.contains(&dead) {
            failed += 1;
            match outcome {
                Err(ServeError::ShardUnavailable { shard, .. }) => assert_eq!(*shard, dead),
                other => panic!("a query probing the open shard must fail fast, got {other:?}"),
            }
        } else {
            assert_eq!(
                outcome.as_ref().expect("never probes the open shard"),
                answer.as_ref().expect("healthy backend"),
            );
        }
    }
    assert!(failed >= 2, "the first range and its twin both fail");
    assert!(
        failed < queries.len() as u64,
        "some query must avoid the shard"
    );
    let after = serve.stats();
    assert_eq!(after.shard_unavailable - before.shard_unavailable, failed);
    assert_eq!(
        after.served_ok - before.served_ok,
        queries.len() as u64 - failed
    );
}
