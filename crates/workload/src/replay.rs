//! Open-loop trace replay: drive a real server at trace-dictated send
//! times and report what its tails actually look like.
//!
//! The engine ([`replay`]) walks a [`Trace`] with a pool of worker threads.
//! Each worker claims the next event, sleeps until its scheduled send time,
//! fires it at the [`ReplayTarget`], and records the latency **from the
//! scheduled send time**, not from when the call started. A server that
//! falls behind therefore shows the delay in its latency distribution
//! instead of silently slowing the generator down — the standard fix for
//! *coordinated omission*. Late events are never skipped or back-pressured;
//! they fire immediately and their lag counts.
//!
//! [`ResilientTarget`] adapts the repo's serving stack: query-only replay
//! against a [`ResilientServer`], trapdoors computed by a caller-supplied
//! closure.
//!
//! Every worker keeps its own [`LatencyHistogram`] and per-tenant counters;
//! the engine merges them at the end, so the mergeability property the
//! histogram tests pin down is exactly what the engine relies on.

use crate::histogram::LatencyHistogram;
use crate::trace::{EventKind, Trace};
use rsse_core::QueryOutcome;
use rsse_cover::Range;
use rsse_serve::{ResilientServer, ServeError, ServeIndex};
use rsse_sse::SearchToken;
use rsse_updates::UpdateEntry;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// How a replayed query ended, bucketing [`ServeError`] variants into the
/// classes the reports track.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryFate {
    /// Full outcome returned.
    Served,
    /// Deadline expired mid-scan; a typed partial outcome came back.
    Partial,
    /// Shed at admission (queue bound or cache pressure).
    Shed,
    /// Failed fast on an open shard breaker.
    Unavailable,
    /// Ran out of retry attempts or budget.
    Exhausted,
    /// The target itself could not issue the query (e.g. no trapdoor for
    /// the range) — never expected in a healthy replay.
    Failed,
}

impl QueryFate {
    /// Classifies a resilient serving result.
    pub fn of_serve(result: &Result<QueryOutcome, ServeError>) -> Self {
        match result {
            Ok(_) => Self::Served,
            Err(ServeError::Overloaded { .. }) => Self::Shed,
            Err(ServeError::DeadlineExceeded { .. }) => Self::Partial,
            Err(ServeError::ShardUnavailable { .. }) => Self::Unavailable,
            Err(ServeError::RetriesExhausted { .. }) => Self::Exhausted,
        }
    }
}

/// Anything a trace can be replayed against. Implementations must be
/// callable from many worker threads at once (`Sync` is required by
/// [`replay`]).
pub trait ReplayTarget {
    /// Issues one range query on behalf of `tenant`.
    fn query(&self, tenant: &str, range: Range) -> QueryFate;
    /// Applies one insert batch; `false` marks it failed.
    fn insert(&self, entries: &[UpdateEntry]) -> bool;
}

/// Query-only adapter over a [`ResilientServer`]: ranges are turned into
/// search tokens by `trapdoor` and served on the direct tenant-attributed
/// path ([`ResilientServer::answer_for`]). Insert events are rejected: the
/// server holds a static index.
pub struct ResilientTarget<'a, B: ServeIndex, F> {
    server: &'a ResilientServer<B>,
    trapdoor: F,
    deadline: Option<Duration>,
}

impl<'a, B, F> ResilientTarget<'a, B, F>
where
    B: ServeIndex,
    F: Fn(Range) -> Option<Vec<SearchToken>> + Sync,
{
    /// Wraps a server. `deadline` applies per query; `None` falls back to
    /// the server's configured default.
    pub fn new(server: &'a ResilientServer<B>, trapdoor: F, deadline: Option<Duration>) -> Self {
        Self {
            server,
            trapdoor,
            deadline,
        }
    }
}

impl<B, F> ReplayTarget for ResilientTarget<'_, B, F>
where
    B: ServeIndex,
    F: Fn(Range) -> Option<Vec<SearchToken>> + Sync,
{
    fn query(&self, tenant: &str, range: Range) -> QueryFate {
        let Some(tokens) = (self.trapdoor)(range) else {
            return QueryFate::Failed;
        };
        QueryFate::of_serve(&self.server.answer_for(tenant, &tokens, self.deadline))
    }

    fn insert(&self, _entries: &[UpdateEntry]) -> bool {
        false
    }
}

/// Replay tuning.
#[derive(Clone, Debug)]
pub struct ReplayConfig {
    /// Worker threads firing events. More workers tolerate more in-flight
    /// slow requests before the open-loop schedule slips.
    pub workers: usize,
    /// Trace-time compression: `2.0` replays a trace twice as fast as its
    /// timestamps say (every `at` is divided by this). `1.0` = real time.
    pub time_scale: f64,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        Self {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            time_scale: 1.0,
        }
    }
}

/// Per-tenant outcome counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TenantCounts {
    /// Queries attempted.
    pub queries: u64,
    /// Queries served in full.
    pub served_ok: u64,
    /// Deadline-expired queries returning typed partial outcomes.
    pub partial: u64,
    /// Queries shed at admission.
    pub shed: u64,
    /// Queries failed fast on an open breaker.
    pub unavailable: u64,
    /// Queries that exhausted retries.
    pub retry_exhausted: u64,
    /// Queries the target could not issue — unexpected errors.
    pub failed: u64,
    /// Insert batches attempted.
    pub inserts: u64,
    /// Insert batches that failed — unexpected errors.
    pub insert_failures: u64,
}

impl TenantCounts {
    fn absorb(&mut self, other: &TenantCounts) {
        self.queries += other.queries;
        self.served_ok += other.served_ok;
        self.partial += other.partial;
        self.shed += other.shed;
        self.unavailable += other.unavailable;
        self.retry_exhausted += other.retry_exhausted;
        self.failed += other.failed;
        self.inserts += other.inserts;
        self.insert_failures += other.insert_failures;
    }

    fn count_query(&mut self, fate: QueryFate) {
        self.queries += 1;
        match fate {
            QueryFate::Served => self.served_ok += 1,
            QueryFate::Partial => self.partial += 1,
            QueryFate::Shed => self.shed += 1,
            QueryFate::Unavailable => self.unavailable += 1,
            QueryFate::Exhausted => self.retry_exhausted += 1,
            QueryFate::Failed => self.failed += 1,
        }
    }
}

/// One tenant's row in the report.
#[derive(Clone, Debug)]
pub struct TenantReport {
    /// Tenant name from the trace.
    pub tenant: String,
    /// Its outcome counters.
    pub counts: TenantCounts,
}

/// Everything one replay run measured.
#[derive(Clone, Debug)]
pub struct ReplayReport {
    /// Events fired (queries + insert batches).
    pub events: u64,
    /// Wall-clock time from first scheduled send to last completion.
    pub wall: Duration,
    /// Event rate the trace asked for (after time scaling).
    pub offered_per_sec: f64,
    /// Event rate actually sustained (`events / wall`).
    pub achieved_per_sec: f64,
    /// Events whose worker picked them up after their scheduled send time.
    pub late_events: u64,
    /// Largest observed start lag — how far the schedule slipped.
    pub max_lag: Duration,
    /// Query latency from *scheduled send* to completion
    /// (coordinated-omission corrected).
    pub latency: LatencyHistogram,
    /// Insert-batch latency, same convention.
    pub insert_latency: LatencyHistogram,
    /// Per-tenant outcome counters, in trace tenant order.
    pub tenants: Vec<TenantReport>,
}

impl ReplayReport {
    /// Outcome counters summed over all tenants.
    pub fn totals(&self) -> TenantCounts {
        let mut total = TenantCounts::default();
        for tenant in &self.tenants {
            total.absorb(&tenant.counts);
        }
        total
    }

    /// Queries that ended in an **unexpected** class — target-level
    /// failures and failed insert batches. Shed / partial / breaker
    /// outcomes are expected degraded modes, not errors.
    pub fn unexpected_errors(&self) -> u64 {
        let totals = self.totals();
        totals.failed + totals.insert_failures
    }
}

/// Per-worker measurement state, merged after the join.
struct WorkerLog {
    latency: LatencyHistogram,
    insert_latency: LatencyHistogram,
    tenants: Vec<TenantCounts>,
    late_events: u64,
    max_lag: Duration,
}

impl WorkerLog {
    fn new(tenants: usize) -> Self {
        Self {
            latency: LatencyHistogram::new(),
            insert_latency: LatencyHistogram::new(),
            tenants: vec![TenantCounts::default(); tenants],
            late_events: 0,
            max_lag: Duration::ZERO,
        }
    }
}

/// Replays `trace` against `target` open-loop (see the [module
/// docs](self)) and returns the merged measurements.
///
/// Outcome *counts* are deterministic for a healthy target regardless of
/// worker count — events are claimed from one shared cursor and every event
/// fires exactly once; only the latency samples vary run to run.
///
/// # Panics
/// Panics if `config.workers` is zero or `config.time_scale` is not
/// strictly positive.
pub fn replay<T: ReplayTarget + Sync>(
    trace: &Trace,
    target: &T,
    config: &ReplayConfig,
) -> ReplayReport {
    assert!(config.workers >= 1, "need at least one replay worker");
    assert!(config.time_scale > 0.0, "time_scale must be positive");

    let cursor = AtomicUsize::new(0);
    let logs = Mutex::new(Vec::with_capacity(config.workers));
    let start = Instant::now();

    std::thread::scope(|scope| {
        for _ in 0..config.workers {
            scope.spawn(|| {
                let mut log = WorkerLog::new(trace.tenants.len());
                loop {
                    let index = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(event) = trace.events.get(index) else {
                        break;
                    };
                    let scheduled = event.at.div_f64(config.time_scale);
                    let now = start.elapsed();
                    if scheduled > now {
                        std::thread::sleep(scheduled - now);
                    } else if now > scheduled {
                        let lag = now - scheduled;
                        log.late_events += 1;
                        log.max_lag = log.max_lag.max(lag);
                    }
                    let counts = &mut log.tenants[event.tenant as usize];
                    let tenant = &trace.tenants[event.tenant as usize];
                    match &event.kind {
                        EventKind::Query(range) => {
                            counts.count_query(target.query(tenant, *range));
                            log.latency
                                .record(start.elapsed().saturating_sub(scheduled));
                        }
                        EventKind::InsertBatch(entries) => {
                            counts.inserts += 1;
                            if !target.insert(entries) {
                                counts.insert_failures += 1;
                            }
                            log.insert_latency
                                .record(start.elapsed().saturating_sub(scheduled));
                        }
                    }
                }
                logs.lock().expect("worker log lock").push(log);
            });
        }
    });
    let wall = start.elapsed();

    let mut latency = LatencyHistogram::new();
    let mut insert_latency = LatencyHistogram::new();
    let mut tenants = vec![TenantCounts::default(); trace.tenants.len()];
    let mut late_events = 0;
    let mut max_lag = Duration::ZERO;
    for log in logs.into_inner().expect("worker log lock") {
        latency.merge(&log.latency);
        insert_latency.merge(&log.insert_latency);
        for (total, worker) in tenants.iter_mut().zip(&log.tenants) {
            total.absorb(worker);
        }
        late_events += log.late_events;
        max_lag = max_lag.max(log.max_lag);
    }

    let scaled_horizon = trace.horizon().div_f64(config.time_scale);
    ReplayReport {
        events: trace.len() as u64,
        wall,
        offered_per_sec: if scaled_horizon > Duration::ZERO {
            trace.len() as f64 / scaled_horizon.as_secs_f64()
        } else {
            0.0
        },
        achieved_per_sec: if wall > Duration::ZERO {
            trace.len() as f64 / wall.as_secs_f64()
        } else {
            0.0
        },
        late_events,
        max_lag,
        latency,
        insert_latency,
        tenants: trace
            .tenants
            .iter()
            .zip(tenants)
            .map(|(tenant, counts)| TenantReport {
                tenant: tenant.clone(),
                counts,
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::ArrivalProcess;
    use crate::trace::TraceSpec;
    use rand::SeedableRng;
    use rand_chacha::ChaCha20Rng;
    use rsse_core::schemes::log_brc_urc::LogScheme;
    use rsse_core::{Dataset, QueryServer, RangeScheme, Record, StorageConfig};
    use rsse_cover::Domain;
    use rsse_serve::ServeConfig;
    use rsse_sse::test_support::TempDir;
    use std::sync::atomic::AtomicU64;

    /// A target that records exactly what it was asked to do.
    #[derive(Default)]
    struct CountingTarget {
        queries: AtomicU64,
        inserts: AtomicU64,
        fail_inserts: bool,
    }

    impl ReplayTarget for CountingTarget {
        fn query(&self, _tenant: &str, _range: Range) -> QueryFate {
            self.queries.fetch_add(1, Ordering::Relaxed);
            QueryFate::Served
        }

        fn insert(&self, entries: &[UpdateEntry]) -> bool {
            self.inserts
                .fetch_add(entries.len() as u64, Ordering::Relaxed);
            !self.fail_inserts
        }
    }

    fn fast_trace(seed: u64) -> Trace {
        let mut spec = TraceSpec::queries_only(
            Domain::new(1 << 12),
            ArrivalProcess::Poisson {
                rate_per_sec: 20_000.0,
            },
            Duration::from_millis(50),
        );
        spec.insert_fraction = 0.25;
        spec.insert_batch = 4;
        spec.generate(&mut ChaCha20Rng::seed_from_u64(seed))
    }

    #[test]
    fn every_event_fires_exactly_once() {
        let trace = fast_trace(1);
        let target = CountingTarget::default();
        let report = replay(
            &trace,
            &target,
            &ReplayConfig {
                workers: 4,
                time_scale: 50.0,
            },
        );
        assert_eq!(report.events, trace.len() as u64);
        let totals = report.totals();
        assert_eq!(totals.queries, trace.query_count() as u64);
        assert_eq!(totals.inserts, trace.insert_count() as u64);
        assert_eq!(target.queries.load(Ordering::Relaxed), totals.queries);
        assert_eq!(totals.served_ok, totals.queries);
        assert_eq!(report.latency.count(), totals.queries);
        assert_eq!(report.insert_latency.count(), totals.inserts);
        assert_eq!(report.unexpected_errors(), 0);
        // Per-tenant counts add up and every tenant saw traffic.
        assert_eq!(report.tenants.len(), trace.tenants.len());
        assert!(report.tenants.iter().all(|t| t.counts.queries > 0));
    }

    #[test]
    fn failed_inserts_are_unexpected_errors() {
        let trace = fast_trace(2);
        let target = CountingTarget {
            fail_inserts: true,
            ..CountingTarget::default()
        };
        let report = replay(
            &trace,
            &target,
            &ReplayConfig {
                workers: 2,
                time_scale: 100.0,
            },
        );
        let totals = report.totals();
        assert_eq!(totals.insert_failures, totals.inserts);
        assert_eq!(report.unexpected_errors(), totals.inserts);
    }

    #[test]
    fn slow_target_shows_up_as_lag_not_lost_events() {
        struct SlowTarget;
        impl ReplayTarget for SlowTarget {
            fn query(&self, _tenant: &str, _range: Range) -> QueryFate {
                std::thread::sleep(Duration::from_micros(500));
                QueryFate::Served
            }
            fn insert(&self, _entries: &[UpdateEntry]) -> bool {
                std::thread::sleep(Duration::from_micros(500));
                true
            }
        }
        // One worker, events every ~50µs, service time 500µs: the schedule
        // must slip, and the slip must be recorded, not dropped.
        let trace = fast_trace(3);
        let report = replay(
            &trace,
            &SlowTarget,
            &ReplayConfig {
                workers: 1,
                time_scale: 1.0,
            },
        );
        assert_eq!(report.events, trace.len() as u64);
        assert!(report.late_events > 0, "a saturated run must record lag");
        assert!(report.max_lag > Duration::ZERO);
        // Coordinated-omission correction: the p99 reflects queueing delay,
        // far beyond the 500µs service time.
        assert!(report.latency.quantile(0.99) > Duration::from_millis(2));
    }

    /// Against a real server the worker count moves only latencies: one
    /// fixed-seed trace replayed at 1, 2 and 4 workers over a budgeted
    /// on-disk index yields the same outcomes and resolves the same
    /// storage probes at every width.
    #[test]
    fn worker_width_moves_latency_not_outcomes_or_probes() {
        let domain = Domain::new(1 << 12);
        let records = (0..2_000u64)
            .map(|i| Record::new(i, (i * 6151 + 17) % domain.size()))
            .collect();
        let data = Dataset::new(domain, records).expect("values fit the domain");
        let dir = TempDir::new("replay-width");
        let (client, server) = LogScheme::build_stored(
            &data,
            &StorageConfig::on_disk(4, dir.path()),
            &mut ChaCha20Rng::seed_from_u64(5),
        )
        .expect("on-disk build");
        drop(server);
        let qs = QueryServer::open_dir_with_budget(dir.path(), Some(64 << 10))
            .expect("reopen budgeted on-disk index");

        let trace = TraceSpec::queries_only(
            domain,
            ArrivalProcess::Poisson {
                rate_per_sec: 2_000.0,
            },
            Duration::from_millis(100),
        )
        .generate(&mut ChaCha20Rng::seed_from_u64(7));
        assert!(trace.query_count() >= 150, "about 200 queries");

        let runs: Vec<(TenantCounts, u64)> = [1, 2, 4]
            .into_iter()
            .map(|workers| {
                let server = ResilientServer::new(qs.clone(), ServeConfig::default());
                let target = ResilientTarget::new(&server, |range| client.trapdoor(range), None);
                let config = ReplayConfig {
                    workers,
                    time_scale: 20.0,
                };
                let report = replay(&trace, &target, &config);
                assert_eq!(report.events, trace.len() as u64, "{workers} workers");
                assert_eq!(report.unexpected_errors(), 0, "{workers} workers");
                (report.totals(), server.stats().probes_resolved)
            })
            .collect();
        assert_eq!(runs[0].0.served_ok, trace.query_count() as u64);
        assert!(runs[0].1 > 0, "the replay must have probed storage");
        for (run, workers) in runs.iter().zip([1, 2, 4]) {
            assert_eq!(run, &runs[0], "{workers} workers");
        }
    }
}
