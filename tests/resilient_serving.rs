//! The chaos battery: the resilient serving layer under seeded fault plans.
//!
//! Every test drives `ResilientServer` against a `FaultPlan` armed on the
//! directory of the same sharded index the raw `QueryServer` would use, and
//! pins the contract of the resilience machinery:
//!
//! * completed queries are **byte-identical** to the fault-free server's,
//!   no matter how many transient faults the retry layer absorbed;
//! * permanently failing shards open their circuit breaker and later
//!   queries fail fast, typed, without touching storage or retry budget;
//! * deadlines cut probe fan-out mid-batch with a typed partial outcome;
//! * load shedding and drain fairness behave as configured;
//! * everything is deterministic: same seeds, same outcomes, same stats.
//!
//! A fault plan is armed on an index directory, so every test that arms
//! one runs on the file-backed backend behind a 256 KiB block cache (an
//! in-memory shard has no file and cannot fail). The two tests that arm
//! none — admission and cache pressure — run their whole body on both
//! storage lanes. One knob, which the CI chaos lane sweeps:
//! `RSSE_CHAOS_SEED` picks the fault plan's seed (default 7).

use rand::SeedableRng;
use rand_chacha::ChaCha20Rng;
use rsse::core::schemes::log_brc_urc::LogScheme;
use rsse::core::{QueryServer, StorageConfig, StorageError};
use rsse::prelude::*;
use rsse::serve::{
    AdmissionConfig, BreakerConfig, BreakerState, OverloadReason, Query, ResilientServer,
    RetryConfig, ServeConfig, ServeError, VirtualClock,
};
use rsse::sse::formats::arm_faults;
use rsse::sse::test_support::TempDir;
use rsse::sse::{FaultPlan, SearchToken};
use std::sync::Arc;
use std::time::Duration;

/// The fault-plan seed under test (the CI chaos lane sweeps several).
fn chaos_seed() -> u64 {
    std::env::var("RSSE_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(7)
}

/// The storage lanes every test runs on: in memory, then on disk.
const ON_DISK: [bool; 2] = [false, true];

fn dataset(domain_size: u64, n: u64) -> Dataset {
    let domain = Domain::new(domain_size);
    let records = (0..n)
        .map(|i| Record::new(i, (i * 37 + 11) % domain_size))
        .collect();
    Dataset::new(domain, records).expect("values fit the domain")
}

/// Builds a Logarithmic-BRC endpoint on the lane's backend: in-memory, or
/// file-backed behind a 256 KiB block cache. The `TempDir` guard keeps a
/// disk build alive for the test's duration.
fn endpoint(
    on_disk: bool,
    tag: &str,
    shard_bits: u32,
    build_seed: u64,
) -> (Dataset, LogScheme, QueryServer, Option<TempDir>) {
    let data = dataset(1 << 12, 600);
    if on_disk {
        let (client, server, dir) = disk_endpoint(tag, shard_bits, build_seed);
        return (data, client, server, Some(dir));
    }
    let mut rng = ChaCha20Rng::seed_from_u64(build_seed);
    let (client, server) =
        LogScheme::build_stored(&data, &StorageConfig::in_memory(shard_bits), &mut rng)
            .expect("in-memory build cannot fail");
    (data, client, server, None)
}

/// The on-disk endpoint, file-backed behind a 256 KiB block cache in the
/// returned `TempDir` — the directory a test arms its fault plan on.
fn disk_endpoint(tag: &str, shard_bits: u32, build_seed: u64) -> (LogScheme, QueryServer, TempDir) {
    let mut rng = ChaCha20Rng::seed_from_u64(build_seed);
    let dir = TempDir::new(tag);
    let (client, server) = LogScheme::build_full_stored(
        &dataset(1 << 12, 600),
        CoverKind::Brc,
        false,
        &StorageConfig::on_disk(shard_bits, dir.path()).with_cache_budget(256 << 10),
        &mut rng,
    )
    .expect("on-disk build");
    (client, server, dir)
}

fn batch(client: &LogScheme) -> Vec<Vec<SearchToken>> {
    (0..8u64)
        .map(|i| {
            client
                .trapdoor(Range::new(i * 500, i * 500 + 499))
                .expect("in-domain range")
        })
        .collect()
}

/// Retry/breaker tuning that rides out a sustained 10% fault rate without
/// flaking: enough attempts per probe (residual failure odds ~1e-6/probe),
/// an effectively unbounded budget, and a breaker threshold far above any
/// plausible same-shard failure streak. Backoffs are microscopic so the
/// battery stays fast on the real clock.
fn chaos_config(seed: u64) -> ServeConfig {
    ServeConfig {
        retry: RetryConfig {
            max_attempts: 6,
            initial_tokens: 100_000,
            max_tokens: 100_000,
            backoff_base: Duration::from_micros(10),
            backoff_cap: Duration::from_micros(200),
            ..RetryConfig::default()
        },
        breaker: BreakerConfig {
            failure_threshold: 20,
            cooldown: Duration::from_millis(50),
        },
        seed,
        ..ServeConfig::default()
    }
}

/// The headline acceptance test: under a seeded 10% per-probe transient
/// fault rate, the resilient server, answering each query on its own,
/// absorbs every fault and returns outcomes byte-identical to the
/// fault-free server's — with the absorption fully observable in the
/// serving stats.
#[test]
fn chaos_rate_faults_leave_outcomes_byte_identical() {
    let (client, qs, dir) = disk_endpoint("chaos-rate", 3, 11);
    let queries = batch(&client);
    let reference = queries
        .iter()
        .map(|query| qs.answer(query))
        .collect::<Result<Vec<_>, _>>()
        .expect("fault-free reference");

    let plan = FaultPlan::seeded(chaos_seed()).fault_rate(0.10);
    let injector = arm_faults(dir.path(), plan, None);
    let serve = ResilientServer::new(qs, chaos_config(chaos_seed()));
    for (query, expected) in queries.iter().zip(&reference) {
        assert_eq!(
            &serve
                .answer(query)
                .expect("the retry layer absorbs rate faults"),
            expected,
            "resilient outcomes must be byte-identical to the fault-free server"
        );
    }

    let stats = serve.stats();
    assert_eq!(stats.served_ok, queries.len() as u64);
    assert_eq!(
        stats.faults_absorbed,
        injector.faults_injected(),
        "every injected fault must be absorbed (none leaked to callers)"
    );
    assert_eq!(stats.retries, stats.faults_absorbed);
    assert!(
        stats.faults_absorbed > 0,
        "a 10% rate over {} probes should have fired at least once",
        injector.probes_issued()
    );
    assert_eq!(stats.deadline_expired, 0);
    assert_eq!(stats.retry_exhausted, 0);
    assert_eq!(
        injector.probes_issued(),
        stats.probes_resolved + stats.faults_absorbed,
        "every attempt reaches storage once: a resolved probe or an absorbed fault"
    );
}

/// The healthy server's early-out hands its first failure to the retry
/// loop as attempt 1: the very first probe of a pristine server fails once
/// and is retried exactly once, without opening anything, and the outcome
/// is byte-identical to the fault-free answer.
#[test]
fn first_probe_failure_on_a_pristine_server_is_retried_once() {
    let (client, qs, dir) = disk_endpoint("chaos-first-fail", 2, 41);
    let tokens = client.trapdoor(Range::new(0, 2000)).expect("in-domain");
    let reference = qs.answer(&tokens).expect("fault-free reference");

    let injector = arm_faults(dir.path(), FaultPlan::transient_window(0, 1), None);
    let clock = Arc::new(VirtualClock::new());
    let serve = ResilientServer::with_clock(qs, ServeConfig::default(), clock);
    let outcome = serve
        .answer(&tokens)
        .expect("one transient fault is absorbed");
    assert_eq!(outcome, reference, "outcome must be byte-identical");

    let stats = serve.stats();
    assert_eq!(stats.retries, 1);
    assert_eq!(stats.faults_absorbed, 1);
    assert_eq!(stats.breaker_opened, 0);
    assert_eq!(stats.retry_exhausted, 0);
    assert_eq!(injector.faults_injected(), 1);
    assert_eq!(
        injector.probes_issued(),
        stats.probes_resolved + 1,
        "the failed attempt is not re-probed on its own account"
    );
    for shard in 0..4 {
        assert_eq!(serve.breaker_state(shard), BreakerState::Closed);
    }
}

/// A permanently dead shard: its breaker opens within the failure threshold
/// and from then on queries touching it fail fast — typed, consuming zero
/// probes and zero retry budget — while other shards keep serving.
#[test]
fn dead_shard_opens_breaker_and_later_queries_fail_fast() {
    let (client, qs, dir) = disk_endpoint("chaos-dead", 2, 13);
    let queries = batch(&client);
    let plan = FaultPlan::seeded(chaos_seed()).dead_shard(0);
    let injector = arm_faults(dir.path(), plan, None);
    let serve = ResilientServer::new(
        qs,
        ServeConfig {
            retry: RetryConfig {
                max_attempts: 6,
                initial_tokens: 256,
                max_tokens: 256,
                backoff_base: Duration::from_micros(10),
                backoff_cap: Duration::from_micros(100),
                ..RetryConfig::default()
            },
            breaker: BreakerConfig {
                failure_threshold: 2,
                // No half-open trials during this test.
                cooldown: Duration::from_secs(600),
            },
            seed: chaos_seed(),
            ..ServeConfig::default()
        },
    );

    let slots: Vec<_> = queries.iter().map(|query| serve.answer(query)).collect();
    let mut dead_hits = 0;
    for slot in &slots {
        match slot {
            Ok(_) => {} // never probed the dead shard
            Err(ServeError::ShardUnavailable { shard: 0, .. }) => dead_hits += 1,
            other => panic!("expected Ok or typed shard-0 unavailability, got {other:?}"),
        }
    }
    assert!(
        dead_hits > 0,
        "labels are uniform; some query probes shard 0"
    );
    assert_eq!(serve.breaker_state(0), BreakerState::Open);
    for shard in 1..4 {
        assert_eq!(
            serve.breaker_state(shard),
            BreakerState::Closed,
            "healthy shard {shard} must stay closed"
        );
    }

    // Once open: fail fast means *zero* storage probes and *zero* retry
    // tokens for subsequent queries that hit the shard ("< 1 retry budget").
    let tokens_before = serve.retry_tokens_remaining();
    let probes_before = injector.probes_issued();
    let fail_fast_before = serve.stats().breaker_fail_fast;
    let mut tripped = 0;
    for query in &queries {
        if let Err(err) = serve.answer(query) {
            assert!(
                matches!(err, ServeError::ShardUnavailable { shard: 0, .. }),
                "expected fast typed unavailability, got {err:?}"
            );
            tripped += 1;
        }
    }
    assert_eq!(tripped, dead_hits, "the same queries trip again");
    assert_eq!(
        serve.retry_tokens_remaining(),
        tokens_before,
        "fail-fast must not consume retry budget"
    );
    assert!(
        serve.stats().breaker_fail_fast > fail_fast_before,
        "the open breaker must be what refused them"
    );
    // Fail-fast queries stopped at the breaker, not at storage: every
    // storage probe issued after the open came from healthy queries, none
    // of which the injector failed.
    let faults_before = injector.faults_injected();
    let healthy = queries
        .iter()
        .zip(&slots)
        .find(|(_, slot)| slot.is_ok())
        .map(|(query, _)| query);
    if let Some(query) = healthy {
        serve.answer(query).expect("healthy query still serves");
        assert_eq!(
            injector.faults_injected(),
            faults_before,
            "post-open probes of healthy shards never fault"
        );
        assert!(injector.probes_issued() > probes_before);
    }
}

/// Retry exhaustion is typed and distinguishes the per-probe attempt limit
/// from a dry global budget.
#[test]
fn retry_exhaustion_reports_attempts_and_budget_distinctly() {
    // Attempt-limit exhaustion: everything fails, budget is ample.
    let (client, qs, dir) = disk_endpoint("chaos-exhaust-a", 2, 17);
    let tokens = client.trapdoor(Range::new(0, 2000)).expect("in-domain");
    let plan = FaultPlan::seeded(chaos_seed()).fault_rate(1.0);
    let _faults = arm_faults(dir.path(), plan, None);
    let clock = Arc::new(VirtualClock::new());
    let serve = ResilientServer::with_clock(
        qs,
        ServeConfig {
            retry: RetryConfig {
                max_attempts: 3,
                initial_tokens: 1_000,
                max_tokens: 1_000,
                ..RetryConfig::default()
            },
            breaker: BreakerConfig {
                failure_threshold: u32::MAX,
                cooldown: Duration::from_millis(1),
            },
            seed: chaos_seed(),
            ..ServeConfig::default()
        },
        clock,
    );
    match serve.answer(&tokens) {
        Err(ServeError::RetriesExhausted {
            attempts: 3,
            budget_empty: false,
            source,
        }) => assert!(matches!(source, StorageError::Io { .. })),
        other => panic!("expected attempt-limit exhaustion, got {other:?}"),
    }
    assert_eq!(serve.stats().retry_exhausted, 1);

    // Budget exhaustion: generous attempt limit, bone-dry token pool.
    let (client, qs, dir) = disk_endpoint("chaos-exhaust-b", 2, 17);
    let tokens = client.trapdoor(Range::new(0, 2000)).expect("in-domain");
    let plan = FaultPlan::seeded(chaos_seed()).fault_rate(1.0);
    let _faults = arm_faults(dir.path(), plan, None);
    let clock = Arc::new(VirtualClock::new());
    let serve = ResilientServer::with_clock(
        qs,
        ServeConfig {
            retry: RetryConfig {
                max_attempts: 10,
                initial_tokens: 1,
                tokens_per_query: 0,
                ..RetryConfig::default()
            },
            breaker: BreakerConfig {
                failure_threshold: u32::MAX,
                cooldown: Duration::from_millis(1),
            },
            seed: chaos_seed(),
            ..ServeConfig::default()
        },
        clock,
    );
    match serve.answer(&tokens) {
        Err(ServeError::RetriesExhausted {
            attempts: 2,
            budget_empty: true,
            ..
        }) => {}
        other => panic!("expected budget exhaustion, got {other:?}"),
    }
}

/// A deadline cuts probe fan-out mid-batch at an exact probe boundary —
/// pinned with a virtual clock and 1ms of injected latency per probe — and
/// the typed error carries the faithfully partial outcome.
#[test]
fn deadline_cuts_fanout_mid_batch_with_typed_partial_outcome() {
    let (client, qs, dir) = disk_endpoint("chaos-deadline", 2, 19);
    let tokens = client.trapdoor(Range::new(0, 3000)).expect("in-domain");
    let clock = Arc::new(VirtualClock::new());
    let injector = arm_faults(
        dir.path(),
        FaultPlan::seeded(chaos_seed()).latency(Duration::from_millis(1)),
        Some(clock.delay_hook()),
    );
    let serve = ResilientServer::with_clock(qs, chaos_config(chaos_seed()), clock.clone());

    // Fault-free, deadline-free pass: the full outcome, and the query's
    // probe count (every probe advanced the virtual clock by exactly 1ms).
    let full = serve.answer(&tokens).expect("no faults injected");
    let total_probes = injector.probes_issued();
    assert!(
        total_probes > 5,
        "the battery needs a query wider than the deadline cut"
    );

    // 4.5ms of budget at 1ms/probe: probes 1..=4 start before the deadline
    // trips... plus the probe that was already in flight at 4ms. The check
    // sits at the probe boundary, so exactly 5 probes resolve.
    let query = Query {
        tokens: &tokens,
        tenant: None,
        deadline: Some(Duration::from_micros(4500)),
    };
    match serve.answer_batch(&[query]).remove(0) {
        Err(ServeError::DeadlineExceeded {
            deadline,
            elapsed,
            partial,
        }) => {
            assert_eq!(deadline, Duration::from_micros(4500));
            assert_eq!(elapsed, Duration::from_millis(5));
            assert_eq!(partial.probes_resolved, 5);
            assert_eq!(partial.tokens_total, tokens.len());
            assert!(
                partial.ids.len() <= full.ids.len(),
                "a prefix of the work resolves a prefix of the ids"
            );
            for id in &partial.ids {
                assert!(
                    full.ids.contains(id),
                    "partial ids must be drawn from the full outcome"
                );
            }
        }
        other => panic!("expected a typed deadline cut, got {other:?}"),
    }
    assert_eq!(serve.stats().deadline_expired, 1);
}

/// The breaker lifecycle end to end: a shard outage opens the breaker
/// (open queries fail fast), the cooldown admits a half-open trial, the
/// healed shard passes it, and the re-closed breaker serves byte-identical
/// outcomes again.
#[test]
fn breaker_reopens_through_half_open_trial_after_outage_heals() {
    let (client, qs, dir) = disk_endpoint("chaos-heal", 0, 23);
    let tokens = client.trapdoor(Range::new(0, 2000)).expect("in-domain");
    let reference = qs.answer(&tokens).expect("healthy reference");

    // Global probes 0 and 1 fail (the single shard's outage), then heal.
    let plan = FaultPlan::seeded(chaos_seed()).shard_outage(0, 0, 2);
    let _faults = arm_faults(dir.path(), plan, None);
    let clock = Arc::new(VirtualClock::new());
    let serve = ResilientServer::with_clock(
        qs,
        ServeConfig {
            retry: RetryConfig {
                max_attempts: 3,
                ..RetryConfig::default()
            },
            breaker: BreakerConfig {
                failure_threshold: 2,
                cooldown: Duration::from_millis(10),
            },
            seed: chaos_seed(),
            ..ServeConfig::default()
        },
        clock.clone(),
    );

    // Query 1: two outage failures open the breaker mid-retry; the query
    // fails fast on its own open breaker.
    match serve.answer(&tokens) {
        Err(ServeError::ShardUnavailable { shard: 0, .. }) => {}
        other => panic!("expected the outage to open the breaker, got {other:?}"),
    }
    assert_eq!(serve.breaker_state(0), BreakerState::Open);
    assert_eq!(serve.stats().breaker_opened, 1);

    // Before the cooldown: still failing fast, storage untouched.
    match serve.answer(&tokens) {
        Err(ServeError::ShardUnavailable { shard: 0, .. }) => {}
        other => panic!("expected fail-fast during cooldown, got {other:?}"),
    }

    // After the cooldown the next probe is the half-open trial; the outage
    // has healed, so the trial succeeds, the breaker re-closes, and the
    // query runs to a byte-identical completion.
    clock.advance(Duration::from_millis(10));
    let outcome = serve.answer(&tokens).expect("healed shard serves again");
    assert_eq!(
        outcome, reference,
        "post-heal outcome must be byte-identical"
    );
    assert_eq!(serve.breaker_state(0), BreakerState::Closed);
    let stats = serve.stats();
    assert_eq!(stats.breaker_trials, 1);
    assert_eq!(stats.breaker_reclosed, 1);
}

/// Admission control: bounded queues shed typed (per-tenant and global),
/// and the drain serves tenants oldest-first in fair round-robin.
#[test]
fn load_shedding_and_drain_fairness() {
    for on_disk in ON_DISK {
        let (data, client, qs, _guard) = endpoint(on_disk, "chaos-admit", 2, 29);
        let ranges = [
            Range::new(0, 400),
            Range::new(500, 900),
            Range::new(1000, 1400),
            Range::new(1500, 1900),
        ];
        let q = |i: usize| client.trapdoor(ranges[i]).expect("in-domain");
        let expected = |i: usize| {
            let mut ids = data.matching_ids(ranges[i]);
            ids.sort_unstable();
            ids
        };

        let serve = ResilientServer::new(
            qs,
            ServeConfig {
                admission: AdmissionConfig {
                    per_tenant_queue: 2,
                    max_queued: 100,
                    shed_at_resident_bytes: None,
                },
                seed: chaos_seed(),
                ..ServeConfig::default()
            },
        );

        // b bursts first, a's single older request arrives later, c last.
        let t0 = serve.enqueue("b", q(0)).expect("admitted");
        let t1 = serve.enqueue("b", q(1)).expect("admitted");
        match serve.enqueue("b", q(2)) {
            Err(ServeError::Overloaded {
                reason: OverloadReason::TenantQueueFull,
                ..
            }) => {}
            other => panic!("the noisy tenant must shed itself, got {other:?}"),
        }
        let t2 = serve.enqueue("a", q(2)).expect("other tenants admit fine");
        let t3 = serve.enqueue("c", q(3)).expect("admitted");
        assert_eq!(serve.stats().shed_tenant_full, 1);
        assert_eq!(serve.stats().queued, 4);

        // Fair drain: round 1 takes each tenant's head in arrival order of
        // their oldest request (b, a, c), round 2 takes b's second.
        let served = serve.drain();
        let order: Vec<_> = served.iter().map(|(ticket, _)| *ticket).collect();
        assert_eq!(order, vec![t0, t2, t3, t1]);
        let by_ticket = |t| served.iter().find(|(x, _)| *x == t).expect("served");
        for (ticket, want) in [
            (t0, expected(0)),
            (t1, expected(1)),
            (t2, expected(2)),
            (t3, expected(3)),
        ] {
            let (_, outcome) = by_ticket(ticket);
            let mut got = outcome.as_ref().expect("no faults injected").ids.clone();
            got.sort_unstable();
            got.dedup();
            assert_eq!(got, want, "drained outcome for ticket {ticket:?}");
        }
        assert_eq!(serve.stats().queued, 0);

        // The global bound sheds typed too.
        let (_data, client, qs, _guard) = endpoint(on_disk, "chaos-admit-global", 2, 29);
        let serve = ResilientServer::new(
            qs,
            ServeConfig {
                admission: AdmissionConfig {
                    per_tenant_queue: 10,
                    max_queued: 2,
                    shed_at_resident_bytes: None,
                },
                ..ServeConfig::default()
            },
        );
        let q0 = client.trapdoor(ranges[0]).expect("in-domain");
        serve.enqueue("a", q0.clone()).expect("admitted");
        serve.enqueue("b", q0.clone()).expect("admitted");
        assert!(matches!(
            serve.enqueue("c", q0),
            Err(ServeError::Overloaded {
                reason: OverloadReason::GlobalQueueFull,
                ..
            })
        ));
        assert_eq!(serve.stats().shed_global_full, 1);
    }
}

/// Cache-pressure shedding on the direct serving path: once the block cache
/// holds more resident bytes than the configured threshold, direct answers
/// shed typed. Only the on-disk lane has a real cache; in-memory indexes
/// report zero residency and never shed on pressure.
#[test]
fn cache_pressure_sheds_direct_answers_on_disk() {
    for on_disk in ON_DISK {
        let (_data, client, qs, _guard) = endpoint(on_disk, "chaos-pressure", 2, 31);
        let tokens = client.trapdoor(Range::new(0, 2000)).expect("in-domain");
        let serve = ResilientServer::new(
            qs,
            ServeConfig {
                admission: AdmissionConfig {
                    shed_at_resident_bytes: Some(0),
                    ..AdmissionConfig::default()
                },
                ..ServeConfig::default()
            },
        );

        // First answer: nothing resident yet, so it passes — and populates the
        // cache on the on-disk lane.
        serve.answer(&tokens).expect("cold cache admits");
        let second = serve.answer(&tokens);
        if on_disk {
            assert!(
                matches!(
                    second,
                    Err(ServeError::Overloaded {
                        reason: OverloadReason::CachePressure,
                        ..
                    })
                ),
                "resident bytes above the threshold must shed, got {second:?}"
            );
            assert_eq!(serve.stats().shed_pressure, 1);
        } else {
            second.expect("in-memory indexes have no cache residency");
        }
    }
}

/// Determinism: two independently built, identically seeded servers under
/// the same chaotic fault plan (rate faults inside burst windows) answer a
/// sequential query stream with identical outcomes *and* identical
/// resilience stats.
#[test]
fn chaos_runs_are_deterministic_for_a_fixed_seed() {
    let run = |tag: &str| {
        let (client, qs, dir) = disk_endpoint(tag, 3, 37);
        let queries = batch(&client);
        let plan = FaultPlan::seeded(chaos_seed())
            .fault_rate(0.25)
            .burst(32, 16);
        let _faults = arm_faults(dir.path(), plan, None);
        let clock = Arc::new(VirtualClock::new());
        let serve = ResilientServer::with_clock(qs, chaos_config(chaos_seed()), clock);
        // Sequential answers: the global probe counter (and with it every
        // seeded fault decision) advances in one deterministic order.
        let outcomes: Vec<Result<Vec<DocId>, String>> = queries
            .iter()
            .map(|q| serve.answer(q).map(|o| o.ids).map_err(|e| e.to_string()))
            .collect();
        // An injected fault names the failing shard file; the two runs'
        // files differ only in their root.
        let root = dir.path().to_str().expect("temp paths are UTF-8");
        let outcomes: Vec<_> = outcomes
            .into_iter()
            .map(|outcome| outcome.map_err(|e| e.replace(root, "<root>")))
            .collect();
        (outcomes, serve.stats())
    };
    let (outcomes_a, stats_a) = run("chaos-det-a");
    let (outcomes_b, stats_b) = run("chaos-det-b");
    assert_eq!(outcomes_a, outcomes_b, "outcomes must replay exactly");
    assert_eq!(stats_a, stats_b, "resilience stats must replay exactly");
    assert!(
        stats_a.served_ok == outcomes_a.len() as u64 || stats_a.retry_exhausted > 0,
        "either everything was absorbed or exhaustion was typed — never silent"
    );
}

/// The number of threads answering moves only latency: one fixed query
/// list over a budgeted on-disk index, answered by 1, 2 and 4 threads
/// through one `ResilientServer` each, returns the sequential run's
/// outcomes and resolves the same number of storage probes at every width.
#[test]
fn thread_width_moves_neither_outcomes_nor_probes() {
    let domain = Domain::new(1 << 12);
    let records = (0..2_000u64)
        .map(|i| Record::new(i, (i * 6151 + 17) % domain.size()))
        .collect();
    let data = Dataset::new(domain, records).expect("values fit the domain");
    let dir = TempDir::new("chaos-width");
    let (client, server) = LogScheme::build_stored(
        &data,
        &StorageConfig::on_disk(4, dir.path()),
        &mut ChaCha20Rng::seed_from_u64(5),
    )
    .expect("on-disk build");
    drop(server);
    let qs = QueryServer::open_dir_with_budget(dir.path(), Some(64 << 10))
        .expect("reopen the budgeted on-disk index");
    let tokens: Vec<Vec<SearchToken>> = (0..200u64)
        .map(|i| {
            let lo = (i * 977) % (domain.size() - 64);
            client
                .trapdoor(Range::new(lo, lo + 8 + i % 56))
                .expect("in-domain")
        })
        .collect();

    let sequential = ResilientServer::new(qs.clone(), ServeConfig::default());
    let expected: Vec<QueryOutcome> = tokens
        .iter()
        .map(|t| sequential.answer(t).expect("fault-free"))
        .collect();
    let probes = sequential.stats().probes_resolved;
    assert!(probes > 0, "the queries must probe storage");

    for width in [1, 2, 4] {
        let server = ResilientServer::new(qs.clone(), ServeConfig::default());
        let mut outcomes: Vec<Option<QueryOutcome>> = vec![None; tokens.len()];
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..width)
                .map(|w| {
                    let (server, tokens) = (&server, &tokens);
                    scope.spawn(move || {
                        (w..tokens.len())
                            .step_by(width)
                            .map(|i| (i, server.answer(&tokens[i]).expect("fault-free")))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for worker in workers {
                for (i, outcome) in worker.join().expect("worker panicked") {
                    outcomes[i] = Some(outcome);
                }
            }
        });
        let outcomes: Vec<QueryOutcome> = outcomes.into_iter().map(Option::unwrap).collect();
        assert_eq!(outcomes, expected, "{width} threads");
        assert_eq!(server.stats().probes_resolved, probes, "{width} threads");
    }
}

/// The zero-probe `PartialOutcome` edge: a deadline that has already
/// expired when the guarded scan starts trips before the *first* probe, so
/// the typed partial outcome reports no ids, zero probes resolved, and the
/// full token count — and the tenant-attributed direct path reports the
/// real tenant if the request is shed later.
#[test]
fn deadline_expired_before_first_probe_yields_zero_probe_partial() {
    let (client, qs, dir) = disk_endpoint("chaos-zero-probe", 2, 29);
    let tokens = client.trapdoor(Range::new(0, 3000)).expect("in-domain");
    let clock = Arc::new(VirtualClock::new());
    let injector = arm_faults(
        dir.path(),
        FaultPlan::seeded(chaos_seed()).latency(Duration::from_millis(1)),
        Some(clock.delay_hook()),
    );
    let serve = ResilientServer::with_clock(qs, chaos_config(chaos_seed()), clock.clone());

    // A zero budget is expired at the very first deadline check — before
    // probe 0. The scan must stop with an empty-but-typed partial outcome,
    // not a panic and not a silently empty Ok.
    let query = Query {
        tokens: &tokens,
        tenant: Some("tenant-0"),
        deadline: Some(Duration::ZERO),
    };
    match serve.answer_batch(&[query]).remove(0) {
        Err(ServeError::DeadlineExceeded {
            deadline,
            elapsed,
            partial,
        }) => {
            assert_eq!(deadline, Duration::ZERO);
            assert_eq!(elapsed, Duration::ZERO, "no probe ran, no time passed");
            assert_eq!(partial.probes_resolved, 0);
            assert!(partial.ids.is_empty(), "zero probes resolve zero ids");
            assert_eq!(partial.tokens_total, tokens.len());
        }
        other => panic!("expected a zero-probe deadline cut, got {other:?}"),
    }
    assert_eq!(
        injector.probes_issued(),
        0,
        "an expired deadline must not touch storage"
    );
    let stats = serve.stats();
    assert_eq!(stats.deadline_expired, 1);
    assert_eq!(stats.probes_resolved, 0);

    // The same query with real budget serves in full on the same server.
    let unbounded = Query {
        deadline: None,
        ..query
    };
    let full = serve
        .answer_batch(&[unbounded])
        .remove(0)
        .expect("an unbounded pass serves in full");
    assert!(!full.ids.is_empty());
}

/// Slow is not dead: a latency-only fault plan makes every probe take 1ms
/// of (virtual) time but never fail. Deadline-expired queries against the
/// slow shard must never open its breaker — only *failures* count — and a
/// breaker opened by a real outage must re-close through its half-open
/// trial even when the healed shard is still slow.
#[test]
fn latency_only_faults_never_open_breaker_and_slow_trial_recloses() {
    let (client, qs, dir) = disk_endpoint("chaos-slow-not-dead", 0, 31);
    let tokens = client.trapdoor(Range::new(0, 2000)).expect("in-domain");
    let clock = Arc::new(VirtualClock::new());
    // Global probes 0 and 1 fail (a real outage), then the shard heals but
    // stays slow: every probe costs 1ms of virtual time forever.
    let injector = arm_faults(
        dir.path(),
        FaultPlan::seeded(chaos_seed())
            .shard_outage(0, 0, 2)
            .latency(Duration::from_millis(1)),
        Some(clock.delay_hook()),
    );
    let serve = ResilientServer::with_clock(
        qs,
        ServeConfig {
            retry: RetryConfig {
                max_attempts: 3,
                backoff_base: Duration::from_micros(10),
                backoff_cap: Duration::from_micros(200),
                ..RetryConfig::default()
            },
            breaker: BreakerConfig {
                failure_threshold: 2,
                cooldown: Duration::from_millis(10),
            },
            seed: chaos_seed(),
            ..ServeConfig::default()
        },
        clock.clone(),
    );

    // The outage opens the breaker: two consecutive real failures.
    match serve.answer(&tokens) {
        Err(ServeError::ShardUnavailable { shard: 0, .. }) => {}
        other => panic!("expected the outage to open the breaker, got {other:?}"),
    }
    assert_eq!(serve.breaker_state(0), BreakerState::Open);
    assert_eq!(serve.stats().breaker_opened, 1);

    // Past the cooldown, the half-open trial probe lands on a shard that
    // is healed but *slow* (1ms per probe). Slow success is still success:
    // the trial passes, the breaker re-closes, the query completes.
    clock.advance(Duration::from_millis(10));
    let reference = serve
        .answer(&tokens)
        .expect("slow-but-healthy shard must pass its trial");
    assert_eq!(serve.breaker_state(0), BreakerState::Closed);
    let healed = serve.stats();
    assert_eq!(healed.breaker_trials, 1);
    assert_eq!(healed.breaker_reclosed, 1);

    // Now hammer the slow shard with deadline-expired queries: each one
    // resolves a few 1ms probes and then trips its 2.5ms deadline. The
    // breaker sees only successful (if slow) probes — it must stay closed
    // and the opened counter must not move. Slow ≠ dead.
    let probes_before = injector.probes_issued();
    let query = Query {
        tokens: &tokens,
        tenant: None,
        deadline: Some(Duration::from_micros(2500)),
    };
    for _ in 0..5 {
        match serve.answer_batch(&[query]).remove(0) {
            Err(ServeError::DeadlineExceeded { partial, .. }) => {
                assert!(
                    partial.probes_resolved >= 1,
                    "the deadline outlives at least the first slow probe"
                );
            }
            other => panic!("expected deadline cuts on the slow shard, got {other:?}"),
        }
        assert_eq!(
            serve.breaker_state(0),
            BreakerState::Closed,
            "latency alone must never open the breaker"
        );
    }
    let stats = serve.stats();
    assert_eq!(stats.breaker_opened, 1, "no new opens from slowness");
    assert_eq!(stats.deadline_expired, 5);
    assert!(
        injector.probes_issued() > probes_before,
        "deadline queries really probed the slow shard"
    );

    // And a full-budget query still serves, byte-identical to the healed
    // reference.
    assert_eq!(serve.answer(&tokens).expect("still healthy"), reference);
}
