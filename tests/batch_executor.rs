//! The batch-executor battery: cross-query probe deduplication must be a
//! pure execution-layer optimization.
//!
//! The contract pinned here, across seeds × {in_memory, on_disk} backends:
//!
//! * **Byte-identical outcomes** — `answer_batch` (dedup on and off)
//!   returns exactly what serving each query alone returns, which in turn
//!   is exactly what the raw `QueryServer` returns: same ids in the same
//!   order, same `QueryStats`.
//! * **Identical per-query probe counts** — the per-query leakage profile
//!   (probes demanded: every hit plus each token's terminating miss) does
//!   not depend on dedup; only the *storage* read count shrinks, and the
//!   saving is visible exclusively in the executor's own counters.
//! * **Control plane** — deadlines cut one query at a round boundary with
//!   a typed partial without cancelling probes other queries share;
//!   transient faults are absorbed per unique probe; the batched drain
//!   serves the same fair plan as the sequential drain.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha20Rng;
use rsse::core::schemes::log_brc_urc::LogScheme;
use rsse::core::{QueryServer, StorageConfig};
use rsse::prelude::*;
use rsse::serve::{
    AdmissionConfig, BatchConfig, ResilientServer, ServeConfig, ServeError, VirtualClock,
};
use rsse::sse::test_support::TempDir;
use rsse::sse::{FaultInjectable, FaultPlan, SearchToken};
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
    _dir: Option<TempDir>,
}

/// Builds both backend lanes for one seed: an in-memory sharded index, and
/// an on-disk build reopened through the budgeted block cache (64 KiB —
/// small enough that the batch sweeps evict).
fn lanes(seed: u64, tag: &str) -> Vec<Lane> {
    let data = dataset(seed);

    let mut rng = ChaCha20Rng::seed_from_u64(seed);
    let (client, server) = LogScheme::build_stored(&data, &StorageConfig::in_memory(4), &mut rng)
        .expect("in-memory build cannot fail");
    let mem = Lane {
        name: "in_memory",
        client,
        qs: server.into_query_server(),
        _dir: None,
    };

    let dir = TempDir::new(tag);
    let mut rng = ChaCha20Rng::seed_from_u64(seed);
    let (client, server) = LogScheme::build_full_stored(
        &data,
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
        _dir: Some(dir),
    };

    vec![mem, disk]
}

fn config_with(dedup: bool) -> ServeConfig {
    ServeConfig {
        batch: BatchConfig {
            dedup,
            workers: Some(3),
        },
        ..ServeConfig::default()
    }
}

/// The headline property, swept across seeds and backends: batched-deduped
/// execution is outcome- and leakage-equivalent to naive per-query
/// execution, and only the storage probe count shrinks.
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

            // Three servers over clones of one backend: dedup on, dedup
            // off, and the naive sequential path.
            let dedup_on = ResilientServer::new(qs.clone(), config_with(true));
            let dedup_off = ResilientServer::new(qs.clone(), config_with(false));
            let naive = ResilientServer::new(qs, config_with(true));

            let batched = dedup_on.answer_batch(&queries);
            let undeduped = dedup_off.answer_batch(&queries);
            let sequential: Vec<_> = queries.iter().map(|q| naive.answer(q)).collect();

            for (i, ((a, b), c)) in batched.iter().zip(&undeduped).zip(&sequential).enumerate() {
                let a = a.as_ref().expect("healthy backend");
                let b = b.as_ref().expect("healthy backend");
                let c = c.as_ref().expect("healthy backend");
                assert_eq!(
                    a, b,
                    "dedup on/off outcomes differ (seed {seed}, {backend}, query {i})"
                );
                assert_eq!(
                    a, c,
                    "batched/sequential outcomes differ (seed {seed}, {backend}, query {i})"
                );
            }

            // Per-query probe counts (the leakage profile) are identical:
            // the demanded-probe totals of all three paths agree.
            let on = dedup_on.stats();
            let off = dedup_off.stats();
            let seq = naive.stats();
            assert_eq!(
                on.probes_resolved, seq.probes_resolved,
                "dedup must not change demanded probe counts (seed {seed}, {backend})"
            );
            assert_eq!(
                off.probes_resolved, seq.probes_resolved,
                "batching alone must not change demanded probe counts (seed {seed}, {backend})"
            );
            assert_eq!(on.batch_probes_demanded, off.batch_probes_demanded);

            // Dedup off issues every demand to storage; dedup on strictly
            // fewer (the mix guarantees byte-identical hot queries).
            assert_eq!(off.batch_probes_unique, off.batch_probes_demanded);
            assert_eq!(off.batch_dedup_hits, 0);
            assert!(
                on.batch_probes_unique < on.batch_probes_demanded,
                "hot mix must dedup some probes (seed {seed}, {backend})"
            );
            assert_eq!(
                on.batch_dedup_hits,
                on.batch_probes_demanded - on.batch_probes_unique
            );
            assert!(on.batch_rounds > 0 && on.batch_max_lane_depth > 0);
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
        let serve = ResilientServer::new(qs, config_with(true));
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
    let lane = lanes(11, "batch-fault").remove(0);
    let qs = lane.qs;
    let queries: Vec<Vec<SearchToken>> = query_mix(11, Domain::new(1 << 12), 24)
        .into_iter()
        .filter_map(|r| lane.client.trapdoor(r))
        .collect();

    let healthy = ResilientServer::new(qs.clone(), config_with(true));
    let expected = healthy.answer_batch(&queries);

    let mut chaotic = qs;
    chaotic.inject_fault_plan(FaultPlan::transient_window(2, 4));
    let degraded = ResilientServer::new(chaotic, config_with(true));
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

/// A query whose deadline expired while queued is cut at the first round
/// boundary with a typed zero-probe partial — and the live query sharing
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
        ..config_with(true)
    };
    let reference = ResilientServer::new(qs.clone(), config_with(true));
    let expected = reference.answer(&tokens).expect("healthy backend");

    let serve = ResilientServer::with_clock(qs, config, clock.clone());
    serve
        .enqueue("tenant-a", tokens.clone())
        .expect("queue empty");
    clock.advance(Duration::from_millis(200)); // tenant-a's deadline passes
    serve
        .enqueue("tenant-b", tokens.clone())
        .expect("queue empty");

    let drained = serve.drain_batched();
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

/// The batched drain serves the same oldest-tenant-fair plan as the
/// sequential drain: same tickets in the same order, byte-identical
/// outcomes.
#[test]
fn drain_batched_matches_sequential_drain() {
    let lane = lanes(9, "batch-drain").remove(0);
    let qs = lane.qs;
    let ranges = query_mix(9, Domain::new(1 << 12), 12);

    let sequential = ResilientServer::new(qs.clone(), config_with(true));
    let batched = ResilientServer::new(qs, config_with(true));
    for (i, range) in ranges.iter().enumerate() {
        let Some(tokens) = lane.client.trapdoor(*range) else {
            continue;
        };
        let tenant = format!("tenant-{}", i % 3);
        sequential.enqueue(&tenant, tokens.clone()).expect("fits");
        batched.enqueue(&tenant, tokens).expect("fits");
    }

    let a = sequential.drain();
    let b = batched.drain_batched();
    assert_eq!(a.len(), b.len());
    for ((ticket_a, outcome_a), (ticket_b, outcome_b)) in a.iter().zip(&b) {
        assert_eq!(ticket_a, ticket_b, "same fair plan order");
        assert_eq!(
            outcome_a.as_ref().expect("healthy backend"),
            outcome_b.as_ref().expect("healthy backend"),
        );
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
