//! Trace-driven open-loop replay against the resilient serving layer.
//!
//! Benches that issue queries back-to-back (closed loop) hide queueing: a
//! stalled server just slows the generator down. This example does what a
//! real load test should — it generates a deterministic, multi-tenant trace
//! up front (Zipf-hotspot range queries on Poisson arrivals), then replays
//! it **open-loop**: every event fires at its trace-dictated send time, and
//! latency is measured from that scheduled time, so a server that falls
//! behind shows the slip in its tail percentiles instead of silently
//! back-pressuring the generator (the coordinated-omission correction).
//!
//! The same seed always produces a byte-identical trace (checked here via
//! the trace digest), which is what makes two replay runs comparable.
//!
//! Run with:
//! ```sh
//! cargo run --release --example trace_replay
//! ```

use rand::SeedableRng;
use rand_chacha::ChaCha20Rng;
use rsse::core::schemes::log_brc_urc::LogScheme;
use rsse::core::StorageConfig;
use rsse::prelude::*;
use rsse::workload::{replay, ArrivalProcess, ReplayConfig, ResilientTarget, TraceSpec};
use std::time::Duration;

fn main() {
    // ---------------------------------------------------------------
    // 1. A server worth load-testing: 20,000 tuples behind the full
    //    resilient serving stack (admission, deadlines, retries).
    // ---------------------------------------------------------------
    let mut rng = ChaCha20Rng::seed_from_u64(42);
    let domain = Domain::new(1 << 16);
    let records: Vec<Record> = (0..20_000u64)
        .map(|i| Record::new(i, (i * 6151 + 17) % domain.size()))
        .collect();
    let dataset = Dataset::new(domain, records).expect("values fit the domain");
    let (client, server) =
        LogScheme::build_stored(&dataset, &StorageConfig::in_memory(4), &mut rng)
            .expect("in-memory build cannot fail");
    let serve = ResilientServer::new(server, ServeConfig::default());

    // ---------------------------------------------------------------
    // 2. The trace: one virtual second of Poisson arrivals at 800/s,
    //    4 tenants, queries clustered on 8 Zipf-weighted hotspots.
    // ---------------------------------------------------------------
    let spec = TraceSpec::queries_only(
        domain,
        ArrivalProcess::Poisson {
            rate_per_sec: 800.0,
        },
        Duration::from_secs(1),
    );
    let trace = spec.generate(&mut ChaCha20Rng::seed_from_u64(7));
    let again = spec.generate(&mut ChaCha20Rng::seed_from_u64(7));
    assert_eq!(
        trace.digest(),
        again.digest(),
        "same seed must regenerate a byte-identical trace"
    );
    println!(
        "trace {:#018x}: {} events, {} tenants, horizon {:.2}s",
        trace.digest(),
        trace.len(),
        trace.tenants.len(),
        trace.horizon().as_secs_f64(),
    );

    // ---------------------------------------------------------------
    // 3. Replay it open-loop, 4x faster than the trace says.
    // ---------------------------------------------------------------
    let target = ResilientTarget::new(&serve, |range| client.trapdoor(range), None);
    let report = replay(
        &trace,
        &target,
        &ReplayConfig {
            time_scale: 4.0,
            ..ReplayConfig::default()
        },
    );

    // ---------------------------------------------------------------
    // 4. The numbers a load test is for: tails, throughput, per-tenant
    //    outcome classes — and a hard zero on unexpected errors.
    // ---------------------------------------------------------------
    let totals = report.totals();
    assert_eq!(report.events, trace.len() as u64, "every event fires once");
    assert_eq!(report.unexpected_errors(), 0, "healthy replay");
    assert_eq!(
        totals.served_ok + totals.partial + totals.shed,
        totals.queries,
        "every query lands in a typed outcome class"
    );
    println!(
        "replayed {} queries in {:.2}s ({:.0}/s offered, {:.0}/s achieved)",
        totals.queries,
        report.wall.as_secs_f64(),
        report.offered_per_sec,
        report.achieved_per_sec,
    );
    println!(
        "latency from scheduled send: p50 {:.2}ms  p99 {:.2}ms  p999 {:.2}ms  max {:.2}ms \
         ({} late events, max lag {:.2}ms)",
        report.latency.quantile(0.50).as_secs_f64() * 1e3,
        report.latency.quantile(0.99).as_secs_f64() * 1e3,
        report.latency.quantile(0.999).as_secs_f64() * 1e3,
        report.latency.max().as_secs_f64() * 1e3,
        report.late_events,
        report.max_lag.as_secs_f64() * 1e3,
    );
    for tenant in &report.tenants {
        println!(
            "  {}: {} queries, {} served, {} shed, {} partial",
            tenant.tenant,
            tenant.counts.queries,
            tenant.counts.served_ok,
            tenant.counts.shed,
            tenant.counts.partial,
        );
    }
}
