//! Sharded dictionaries + batched multi-client search, behind the
//! resilient serving layer.
//!
//! A server answering many concurrent range queries should not pay
//! per-token fixed costs: each query expands into a whole vector of
//! BRC/URC cover tokens, and a batch of clients multiplies that again.
//! This example builds a Logarithmic-BRC index over a 2^8-way sharded
//! dictionary, stands up a [`ResilientServer`] over the batched
//! [`QueryServer`], and answers a burst of client queries in one batched
//! call — then checks the answers against both the plaintext ground truth
//! and the classic one-token-at-a-time path, and shows the serving layer
//! absorbing a transient storage fault without changing a byte of output.
//!
//! Run with:
//! ```sh
//! cargo run --release --example batched_server
//! ```

use rand::SeedableRng;
use rand_chacha::ChaCha20Rng;
use rsse::core::schemes::log_brc_urc::LogScheme;
use rsse::core::{QueryServer, StorageConfig};
use rsse::prelude::*;
use rsse::sse::formats::arm_faults;
use rsse::sse::{FaultPlan, SearchToken};

fn main() {
    // ---------------------------------------------------------------
    // 1. Owner: outsource 50,000 tuples into a sharded encrypted index.
    // ---------------------------------------------------------------
    let mut rng = ChaCha20Rng::seed_from_u64(42);
    let domain = Domain::new(1 << 16);
    let records: Vec<Record> = (0..50_000u64)
        .map(|i| Record::new(i, (i * 6151 + 17) % domain.size()))
        .collect();
    let dataset = Dataset::new(domain, records).expect("values fit the domain");

    let shard_bits = 8;
    let (client, server) =
        LogScheme::build_stored(&dataset, &StorageConfig::in_memory(shard_bits), &mut rng)
            .expect("in-memory build cannot fail");
    println!(
        "index: {} entries across {} shards ({} bits of label prefix)",
        server.index().len(),
        server.index().shard_count(),
        server.shard_bits(),
    );

    // Keep a copy for the sequential comparison, then stand up the serving
    // frontend: admission control, per-shard circuit breakers, and budgeted
    // per-probe retries around the batched query server (shards are
    // immutable — concurrent reads are lock-free).
    let sequential_server = server.clone();
    let serve = ResilientServer::new(server, ServeConfig::default());

    // ---------------------------------------------------------------
    // 2. A burst of concurrent clients, each with its own range query.
    // ---------------------------------------------------------------
    let ranges: Vec<Range> = (0..32u64)
        .map(|c| {
            let lo = (c * 1987) % (domain.size() - 2_000);
            Range::new(lo, lo + 1_999)
        })
        .collect();
    let queries: Vec<Vec<SearchToken>> = ranges
        .iter()
        .map(|&r| client.trapdoor(r).expect("in-domain range"))
        .collect();
    let outcomes: Vec<QueryOutcome> = serve
        .answer_batch(&queries)
        .into_iter()
        .map(|slot| slot.expect("healthy in-memory backend"))
        .collect();

    // ---------------------------------------------------------------
    // 3. Verify: exact results, identical to querying the bare scheme
    //    server one query at a time (same scan, no serving frontend).
    // ---------------------------------------------------------------
    let mut total_results = 0usize;
    let mut total_tokens = 0usize;
    for (range, outcome) in ranges.iter().zip(&outcomes) {
        let mut got = outcome.ids.clone();
        let mut expected = dataset.matching_ids(*range);
        got.sort_unstable();
        expected.sort_unstable();
        assert_eq!(got, expected, "batched answer must be exact for {range}");
        assert_eq!(
            outcome.ids,
            client.query(&sequential_server, *range).ids,
            "batched and sequential answers must be identical for {range}"
        );
        total_results += outcome.ids.len();
        total_tokens += outcome.stats.tokens_sent;
    }
    println!(
        "answered {} queries in one batch: {} tokens, {} result tuples, all exact \
         and identical to the sequential unguarded path",
        ranges.len(),
        total_tokens,
        total_results,
    );

    // ---------------------------------------------------------------
    // 4. Degraded mode: the index is saved to disk and served from there,
    //    a transient fault window armed on its directory hits the first
    //    probes, the serving layer retries just the failed blocks under its
    //    token budget, and the batch comes back byte-identical.
    // ---------------------------------------------------------------
    let dir = std::env::temp_dir().join(format!("rsse-batched-demo-{}", std::process::id()));
    sequential_server
        .index()
        .save_to_dir(&dir)
        .expect("save the index");
    let on_disk = QueryServer::open_dir(&dir).expect("cold-open saved index");
    let hiccup = arm_faults(&dir, FaultPlan::transient_window(0, 3), None);
    let degraded = ResilientServer::new(on_disk, ServeConfig::default());
    let recovered: Vec<QueryOutcome> = degraded
        .answer_batch(&queries)
        .into_iter()
        .map(|slot| slot.expect("per-probe retries absorb the blip"))
        .collect();
    assert_eq!(
        recovered, outcomes,
        "outcomes under transient faults must be byte-identical"
    );
    let stats = degraded.stats();
    println!(
        "degraded run: {} transient faults absorbed by {} retries, {} retry tokens left — \
         outcomes byte-identical",
        stats.faults_absorbed, stats.retries, stats.retry_tokens,
    );
    drop(hiccup);
    std::fs::remove_dir_all(&dir).expect("clean up demo directory");

    // ---------------------------------------------------------------
    // 5. Zipf-hot traffic: many clients hammering the same few ranges.
    //    The batch executor maps the batch's tokens to unique-token slots
    //    (the search pattern is already public within a batch —
    //    deterministic trapdoors), scans each unique token once, and hands
    //    its hits to every query demanding it.
    // ---------------------------------------------------------------
    let hot: Vec<Range> = (0..64u64)
        .map(|c| {
            // 64 clients, 4 hot ranges: plenty of identical covers.
            let lo = (c % 4) * 5_000;
            Range::new(lo, lo + 1_999)
        })
        .collect();
    let hot_queries: Vec<Vec<SearchToken>> = hot
        .iter()
        .map(|&r| client.trapdoor(r).expect("in-domain range"))
        .collect();
    // A fresh frontend, so its counters are the hot batch's alone.
    let fresh = ResilientServer::new(sequential_server.clone(), ServeConfig::default());
    let batched = fresh.answer_batch(&hot_queries);
    let stats = fresh.stats();
    for ((range, tokens), slot) in hot.iter().zip(&hot_queries).zip(&batched) {
        let alone = serve.answer(tokens).expect("healthy in-memory backend");
        let outcome = slot.as_ref().expect("healthy in-memory backend");
        assert_eq!(
            outcome, &alone,
            "batch-executed outcome must be byte-identical for {range}"
        );
    }
    println!(
        "batch executor: {} probes demanded, {} unique after cross-query dedup \
         ({:.0}% saved), {} unique-token scans, at most {} per worker — outcomes \
         byte-identical",
        stats.batch_probes_demanded,
        stats.batch_probes_unique,
        stats.batch_dedup_hit_rate() * 100.0,
        stats.batch_rounds,
        stats.batch_max_lane_depth,
    );
}
