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
//! Two targets adapt the repo's serving stacks:
//!
//! * [`ResilientTarget`] — query-only replay against a
//!   [`ResilientServer`], trapdoors computed by a caller-supplied closure;
//! * [`ManagedTarget`] — mixed query + insert replay against an
//!   [`UpdateManager`], queries under a shared retry policy, inserts
//!   serialized through a write lock (the owner is single-writer by
//!   design).
//!
//! Every worker keeps its own [`LatencyHistogram`] and per-tenant counters;
//! the engine merges them at the end, so the mergeability property the
//! histogram tests pin down is exactly what the engine relies on.

use crate::histogram::LatencyHistogram;
use crate::trace::{EventKind, Trace};
use rand::SeedableRng;
use rand_chacha::ChaCha20Rng;
use rsse_core::{QueryOutcome, RangeScheme};
use rsse_cover::Range;
use rsse_serve::{ResilientServer, RetryPolicy, ServeError, ServeIndex, SystemClock};
use rsse_sse::SearchToken;
use rsse_updates::{UpdateEntry, UpdateManager};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, RwLock};
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
/// path ([`ResilientServer::answer_for`]). Insert events are rejected —
/// replay mixed traces against a [`ManagedTarget`] instead.
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

/// Mixed query + insert adapter over an [`UpdateManager`]: queries take a
/// read lock and run under one shared [`RetryPolicy`]; insert batches take
/// the write lock (the manager is a single-writer owner object, so the
/// trace's insert stream is serialized exactly as a real owner would).
pub struct ManagedTarget<S: RangeScheme> {
    manager: RwLock<UpdateManager<S>>,
    policy: RetryPolicy,
    clock: SystemClock,
    rng: Mutex<ChaCha20Rng>,
}

impl<S: RangeScheme> ManagedTarget<S> {
    /// Wraps a manager; `policy` governs query retries, `seed` pins the
    /// ingest encryption RNG.
    pub fn new(manager: UpdateManager<S>, policy: RetryPolicy, seed: u64) -> Self {
        Self {
            manager: RwLock::new(manager),
            policy,
            clock: SystemClock::new(),
            rng: Mutex::new(ChaCha20Rng::seed_from_u64(seed)),
        }
    }

    /// Unwraps the manager (for post-replay inspection or cold-start
    /// persistence checks).
    pub fn into_inner(self) -> UpdateManager<S> {
        self.manager.into_inner().expect("manager lock poisoned")
    }

    /// Runs `f` against the manager under the read lock.
    pub fn with_manager<T>(&self, f: impl FnOnce(&UpdateManager<S>) -> T) -> T {
        f(&self.manager.read().expect("manager lock poisoned"))
    }
}

impl<S: RangeScheme> ReplayTarget for ManagedTarget<S>
where
    UpdateManager<S>: Send + Sync,
{
    fn query(&self, _tenant: &str, range: Range) -> QueryFate {
        let manager = self.manager.read().expect("manager lock poisoned");
        QueryFate::of_serve(&self.policy.run(&self.clock, || manager.try_query(range)))
    }

    fn insert(&self, entries: &[UpdateEntry]) -> bool {
        let mut manager = self.manager.write().expect("manager lock poisoned");
        let mut rng = self.rng.lock().expect("ingest rng poisoned");
        manager
            .try_ingest_batch(entries.to_vec(), &mut *rng)
            .is_ok()
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

    /// Serializes the report as a JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let totals = self.totals();
        let mut tenants = String::new();
        for (i, tenant) in self.tenants.iter().enumerate() {
            if i > 0 {
                tenants.push(',');
            }
            let c = &tenant.counts;
            tenants.push_str(&format!(
                "{{\"tenant\":\"{}\",\"queries\":{},\"served_ok\":{},\"partial\":{},\
                 \"shed\":{},\"unavailable\":{},\"retry_exhausted\":{},\"failed\":{},\
                 \"inserts\":{},\"insert_failures\":{}}}",
                json_escape(&tenant.tenant),
                c.queries,
                c.served_ok,
                c.partial,
                c.shed,
                c.unavailable,
                c.retry_exhausted,
                c.failed,
                c.inserts,
                c.insert_failures
            ));
        }
        format!(
            "{{\"events\":{},\"queries\":{},\"inserts\":{},\"wall_ms\":{:.3},\
             \"offered_per_sec\":{:.1},\"achieved_per_sec\":{:.1},\
             \"late_events\":{},\"max_lag_ms\":{:.3},\
             \"latency_ms\":{{\"p50\":{:.4},\"p99\":{:.4},\"p999\":{:.4},\
             \"mean\":{:.4},\"max\":{:.4}}},\
             \"insert_latency_ms\":{{\"p50\":{:.4},\"p99\":{:.4},\"max\":{:.4}}},\
             \"tenants\":[{}]}}",
            self.events,
            totals.queries,
            totals.inserts,
            ms(self.wall),
            self.offered_per_sec,
            self.achieved_per_sec,
            self.late_events,
            ms(self.max_lag),
            ms(self.latency.quantile(0.50)),
            ms(self.latency.quantile(0.99)),
            ms(self.latency.quantile(0.999)),
            ms(self.latency.mean()),
            ms(self.latency.max()),
            ms(self.insert_latency.quantile(0.50)),
            ms(self.insert_latency.quantile(0.99)),
            ms(self.insert_latency.max()),
            tenants
        )
    }
}

/// Milliseconds as a float, for JSON.
fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Minimal JSON string escaping (quotes, backslashes, control bytes).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
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
    use rsse_cover::Domain;
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

    #[test]
    fn report_json_is_well_formed_enough() {
        let trace = fast_trace(4);
        let report = replay(
            &trace,
            &CountingTarget::default(),
            &ReplayConfig {
                workers: 2,
                time_scale: 100.0,
            },
        );
        let json = report.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"p999\""));
        assert!(json.contains("\"tenant\":\"tenant-0\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\n"), "a\\\"b\\\\c\\u000a");
    }
}
