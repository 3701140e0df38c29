//! Durable encrypted indexes: build to disk, drop, cold-open, serve — all
//! through the resilient serving layer.
//!
//! Before PR 3 an encrypted index lived and died with the process and
//! every shard's ciphertext arena was pinned in RAM. This example walks
//! the full persistence lifecycle of the storage engine:
//!
//! 1. BuildIndex streams the shards straight into serialized files
//!    (`StorageConfig::on_disk`) — the built index is file-backed from the
//!    first moment;
//! 2. the server state is dropped entirely;
//! 3. a "fresh process" cold-opens the index behind a
//!    [`ResilientServer`] (`ResilientServer::new` over
//!    `QueryServer::open_dir`) — shard bucket
//!    directories load, ciphertext regions stay on disk — and answers a
//!    batch of range queries, with paged reads faulting in only the probed
//!    blocks (a failed read surfaces as a typed error, never as a silently
//!    empty result);
//! 4. the same index is reopened with a block-cache budget
//!    (`QueryServer::open_dir_with_budget`), which caps resident
//!    ciphertext blocks with a clock cache — residency then tracks the
//!    working set, not everything ever touched;
//! 5. a transient fault window hits the cold path and the serving layer's
//!    budgeted per-probe retries absorb it, byte-identically.
//!
//! Run with:
//! ```sh
//! cargo run --release --example persistent_server
//! ```

use rand::SeedableRng;
use rand_chacha::ChaCha20Rng;
use rsse::core::schemes::log_brc_urc::LogScheme;
use rsse::core::StorageConfig;
use rsse::prelude::*;
use rsse::sse::formats::arm_faults;
use rsse::sse::{FaultPlan, SearchToken};

fn main() {
    let dir = std::env::temp_dir().join(format!("rsse-persistent-demo-{}", std::process::id()));

    // ---------------------------------------------------------------
    // 1. Owner: outsource 50,000 tuples, streaming the encrypted index
    //    to disk during BuildIndex (2^6 shard files + manifest).
    // ---------------------------------------------------------------
    let mut rng = ChaCha20Rng::seed_from_u64(42);
    let domain = Domain::new(1 << 16);
    let records: Vec<Record> = (0..50_000u64)
        .map(|i| Record::new(i, (i * 6151 + 17) % domain.size()))
        .collect();
    let dataset = Dataset::new(domain, records).expect("values fit the domain");

    let config = StorageConfig::on_disk(6, &dir);
    let (client, server) =
        LogScheme::build_stored(&dataset, &config, &mut rng).expect("disk build");
    let storage_bytes = server.index().storage_bytes();
    println!(
        "built {} entries into {} shard files under {} ({} KiB of labels + ciphertext)",
        server.index().len(),
        server.index().shard_count(),
        dir.display(),
        storage_bytes / 1024,
    );

    // ---------------------------------------------------------------
    // 2. Drop the server: nothing of the index survives in this process.
    // ---------------------------------------------------------------
    drop(server);

    // ---------------------------------------------------------------
    // 3. Cold-open from disk behind the resilient frontend and serve a
    //    batch of range queries. Only the bucket directories are loaded;
    //    ciphertext blocks fault in as the queries probe them.
    // ---------------------------------------------------------------
    let serve = ResilientServer::new(
        QueryServer::open_dir(&dir).expect("cold-open saved index"),
        ServeConfig::default(),
    );
    // Right after the open, what is resident is the directories alone:
    // each shard's label table, a tag and a 24-byte slot per slot.
    let directories = serve.backend().index().resident_bytes();

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
        .map(|slot| slot.expect("cold-opened index answers the batch"))
        .collect();

    let mut total_results = 0usize;
    for (range, outcome) in ranges.iter().zip(&outcomes) {
        let mut got = outcome.ids.clone();
        let mut expected = dataset.matching_ids(*range);
        got.sort_unstable();
        expected.sort_unstable();
        assert_eq!(got, expected, "cold-open answer must be exact for {range}");
        total_results += outcome.ids.len();
    }
    let region_bytes = storage_bytes - serve.backend().index().len() * 16;
    let paged_in = serve.backend().index().resident_bytes() - directories;
    println!(
        "cold-open answered {} queries ({} result tuples, all exact); {} directory bytes \
         resident, {} of {} ciphertext bytes paged in — only probed blocks",
        ranges.len(),
        total_results,
        directories,
        paged_in,
        region_bytes,
    );
    assert!(
        paged_in < region_bytes,
        "paged reads must not fault in the whole index"
    );

    // ---------------------------------------------------------------
    // 4. Reopen with a block-cache budget: resident ciphertext blocks are
    //    capped by a clock cache while outcomes stay identical. Typed
    //    degraded-mode errors are what let a production server distinguish
    //    "no matches" (an empty Ok) from "the disk failed mid-search"
    //    (`ServeError::RetriesExhausted` once the budgeted per-probe
    //    retries give up).
    // ---------------------------------------------------------------
    let budget = region_bytes / 10;
    let budgeted = ResilientServer::new(
        QueryServer::open_dir_with_budget(&dir, Some(budget)).expect("budgeted cold-open"),
        ServeConfig::default(),
    );
    let budgeted_outcomes: Vec<QueryOutcome> = budgeted
        .answer_batch(&queries)
        .into_iter()
        .map(|slot| slot.expect("healthy disk serves the batch"))
        .collect();
    assert_eq!(
        budgeted_outcomes, outcomes,
        "budgeted outcomes must be identical to unbounded"
    );
    let stats = budgeted.backend().index().cache_stats();
    assert!(
        stats.resident_bytes <= budget,
        "budget must bound residency"
    );
    println!(
        "budgeted reopen (cap {} of {} region bytes): identical answers with {} resident, \
         {} hits / {} misses / {} evictions",
        budget, region_bytes, stats.resident_bytes, stats.hits, stats.misses, stats.evictions,
    );

    // ---------------------------------------------------------------
    // 5. Degraded mode on the persistent path: the first probes of a fresh
    //    cold-open fail transiently (a fault window armed on the index
    //    directory — say a NAS hiccup right after a failover); failed
    //    blocks are never cached, so each retry re-reads from disk and the
    //    batch completes byte-identically, with the absorption visible in
    //    the stats.
    // ---------------------------------------------------------------
    let flaky = QueryServer::open_dir(&dir).expect("cold-open saved index");
    let hiccup = arm_faults(&dir, FaultPlan::transient_window(0, 3), None);
    let degraded = ResilientServer::new(flaky, ServeConfig::default());
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
        "degraded cold-open: {} transient faults absorbed by {} retries — outcomes \
         byte-identical",
        stats.faults_absorbed, stats.retries,
    );
    drop(hiccup);

    std::fs::remove_dir_all(&dir).expect("clean up demo directory");
}
