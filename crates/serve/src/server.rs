//! The resilient request loop: admission → deadline-guarded, breaker-gated,
//! budget-retried probe fan-out → typed outcome.
//!
//! [`ResilientServer`] wraps any [`ServeIndex`] backend (a
//! [`QueryServer`], a bare [`ShardedIndex`], or anything else that can
//! resolve labeled probes) and serves range queries through a guarded probe
//! loop:
//!
//! 1. **Admission** — direct calls check cache pressure; queued requests
//!    ([`enqueue`](ResilientServer::enqueue) /
//!    [`drain`](ResilientServer::drain)) additionally pass the bounded
//!    per-tenant queues of the [`admission`](crate::admission) module.
//!    Shed requests fail typed without consuming serving resources.
//! 2. **Deadline** — each admitted query may carry an absolute deadline
//!    (queue wait counts); when it does, the guarded scan reads the clock
//!    before every probe and cuts the fan-out mid-batch, returning the
//!    partially resolved ids as a typed [`ServeError::DeadlineExceeded`].
//! 3. **Breakers** — once some shard has a failure on its streak, every
//!    probe is gated by its shard's circuit breaker
//!    ([`breaker`](crate::breaker) module): a shard with too many
//!    consecutive failures fails fast without touching storage until a
//!    cooldown trial heals it.
//! 4. **Retries** — a failed probe is retried *at probe granularity* under
//!    the server-wide budget of the [`retry`](crate::retry) module, with
//!    seeded decorrelated-jitter backoff. Only the failed block is re-read;
//!    the query's already-resolved probes stand.
//!
//! Steps 3 and 4 cost a healthy index nothing per probe. While every shard
//! is pristine (closed, no failure on its streak), a probe goes straight to
//! storage: no shard lookup, no breaker call, no retry frame. The first
//! failed attempt — or a probe that starts while some shard is off
//! pristine — enters the out-of-line loop that runs both, and that loop
//! takes the failed attempt as its first, so storage sees exactly the
//! attempts it would without the early-out.
//!
//! Outcomes are **byte-identical** to the raw [`QueryServer`] path: the
//! guarded loop reuses `rsse_core`'s `scan_query_into_with`/`assemble_outcome`
//! primitives, so resilience changes when probes happen, never what a
//! completed query returns.

use crate::admission::{AdmissionConfig, AdmissionQueue, Pending, Ticket};
use crate::breaker::{Admit, BreakerConfig, BreakerState, ShardHealth};
use crate::clock::{Clock, SystemClock};
use crate::error::{OverloadReason, PartialOutcome, ServeError};
use crate::executor::{execute_batch, BatchConfig, BatchItem};
use crate::retry::{RetryConfig, RetryPolicy};
use rayon::prelude::*;
use rsse_core::server::{assemble_outcome, scan_query_into_with, ScanScratch};
use rsse_core::{DocId, QueryOutcome, QueryServer};
use rsse_sse::{
    CacheStats, CipherSpan, IndexLookup, Label, SearchToken, ShardedIndex, StorageError,
};
use std::cell::Cell;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The narrow boundary between the serving loop and an index backend: a
/// fallible labeled probe plus the shard topology and cache telemetry the
/// resilience machinery keys off. Implemented for [`ShardedIndex`] and
/// [`QueryServer`]; serving layers stay generic over it.
pub trait ServeIndex: Sync {
    /// Resolves one dictionary probe (`Ok(None)` = label absent).
    fn probe(&self, label: &Label) -> Result<Option<CipherSpan<'_>>, StorageError>;
    /// The shard the label's probe hits (the circuit-breaker unit). Must be
    /// below [`shard_count`](Self::shard_count): it indexes the breaker
    /// table directly (out of range is a bug, checked in debug builds).
    fn shard_of(&self, label: &Label) -> u32;
    /// Number of shards (breaker table size).
    fn shard_count(&self) -> usize;
    /// Block-cache counters (the admission pressure signal).
    fn cache_stats(&self) -> CacheStats;
}

impl ServeIndex for ShardedIndex {
    fn probe(&self, label: &Label) -> Result<Option<CipherSpan<'_>>, StorageError> {
        ShardedIndex::try_get(self, label)
    }

    fn shard_of(&self, label: &Label) -> u32 {
        ShardedIndex::shard_of(self, label) as u32
    }

    fn shard_count(&self) -> usize {
        ShardedIndex::shard_count(self)
    }

    fn cache_stats(&self) -> CacheStats {
        ShardedIndex::cache_stats(self)
    }
}

impl ServeIndex for QueryServer {
    fn probe(&self, label: &Label) -> Result<Option<CipherSpan<'_>>, StorageError> {
        self.index().try_get(label)
    }

    fn shard_of(&self, label: &Label) -> u32 {
        self.index().shard_of(label) as u32
    }

    fn shard_count(&self) -> usize {
        self.index().shard_count()
    }

    fn cache_stats(&self) -> CacheStats {
        self.index().cache_stats()
    }
}

/// Complete tuning of one resilient server.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Queue bounds and shed thresholds.
    pub admission: AdmissionConfig,
    /// Retry budget and backoff shape.
    pub retry: RetryConfig,
    /// Circuit-breaker thresholds.
    pub breaker: BreakerConfig,
    /// Batch-executor tuning (scan workers).
    pub batch: BatchConfig,
    /// Deadline applied to queries that don't bring their own (`None` =
    /// unbounded).
    pub default_deadline: Option<Duration>,
    /// Tenant that unattributed queries ([`ResilientServer::answer`],
    /// [`answer_within`](ResilientServer::answer_within),
    /// [`answer_many`](ResilientServer::answer_many),
    /// [`answer_batch`](ResilientServer::answer_batch)) are admitted as.
    ///
    /// Admission implication: every unattributed query charges this one
    /// tenant's bounded queue and shows up as it in shed errors, so a
    /// multi-tenant deployment that mixes attributed
    /// ([`answer_for`](ResilientServer::answer_for) /
    /// [`enqueue`](ResilientServer::enqueue)) and unattributed traffic
    /// shares the default tenant's fairness slot across all unattributed
    /// callers. Defaults to `"adhoc"`.
    pub default_tenant: String,
    /// Seed of the backoff jitter RNG (deterministic tests pin it).
    pub seed: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            admission: AdmissionConfig::default(),
            retry: RetryConfig::default(),
            breaker: BreakerConfig::default(),
            batch: BatchConfig::default(),
            default_deadline: None,
            default_tenant: "adhoc".to_string(),
            seed: 0,
        }
    }
}

/// Counters of everything the resilience machinery did, sampled with
/// [`ResilientServer::stats`]. All counts are since server construction.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Queries admitted to serving (direct or drained).
    pub admitted: u64,
    /// Queries completing with a full outcome.
    pub served_ok: u64,
    /// Requests shed for a full tenant queue.
    pub shed_tenant_full: u64,
    /// Requests shed for the global queue bound.
    pub shed_global_full: u64,
    /// Requests shed for cache pressure.
    pub shed_pressure: u64,
    /// Queries cut off by their deadline.
    pub deadline_expired: u64,
    /// Queries failed fast on an open shard breaker.
    pub shard_unavailable: u64,
    /// Queries that ran out of retry attempts or budget.
    pub retry_exhausted: u64,
    /// Probes resolved successfully.
    pub probes_resolved: u64,
    /// Failed probe attempts that a later retry of the same probe absorbed
    /// (transient faults the caller never saw).
    pub faults_absorbed: u64,
    /// Retries performed (budget tokens consumed).
    pub retries: u64,
    /// Retries denied because the budget pool was dry.
    pub retry_denials: u64,
    /// Retry tokens currently in the pool.
    pub retry_tokens: u64,
    /// Breaker open transitions (including trial-failure reopens).
    pub breaker_opened: u64,
    /// Half-open trial probes admitted.
    pub breaker_trials: u64,
    /// Successful trials that re-closed a breaker.
    pub breaker_reclosed: u64,
    /// Probes refused by an open breaker without touching storage.
    pub breaker_fail_fast: u64,
    /// Requests currently queued.
    pub queued: u64,
    /// Unique-token scans the batch executor ran (all batches) — its
    /// units of work.
    pub batch_rounds: u64,
    /// Probes batch queries demanded (the leakage-profile count: every
    /// query's logical probe, whether or not storage was actually read).
    pub batch_probes_demanded: u64,
    /// Probes the batch executor actually issued after cross-query dedup —
    /// each unique token of a batch is scanned once (equals
    /// `batch_probes_demanded` when no two queries of a batch share a
    /// token).
    pub batch_probes_unique: u64,
    /// Demanded probes satisfied by another query's identical probe
    /// (`batch_probes_demanded - batch_probes_unique`).
    pub batch_dedup_hits: u64,
    /// Most unique tokens one scan worker took in a single batch (the
    /// whole batch when it was scanned inline).
    pub batch_max_lane_depth: u64,
}

impl ServeStats {
    /// Fraction of demanded batch probes satisfied by dedup instead of
    /// storage (`0.0` when no batch ran).
    pub fn batch_dedup_hit_rate(&self) -> f64 {
        if self.batch_probes_demanded == 0 {
            0.0
        } else {
            self.batch_dedup_hits as f64 / self.batch_probes_demanded as f64
        }
    }
}

/// Internal atomic counters behind [`ServeStats`].
#[derive(Debug, Default)]
pub(crate) struct Counters {
    pub(crate) admitted: AtomicU64,
    pub(crate) served_ok: AtomicU64,
    shed_tenant_full: AtomicU64,
    shed_global_full: AtomicU64,
    shed_pressure: AtomicU64,
    deadline_expired: AtomicU64,
    shard_unavailable: AtomicU64,
    retry_exhausted: AtomicU64,
    pub(crate) probes_resolved: AtomicU64,
    pub(crate) faults_absorbed: AtomicU64,
    pub(crate) batch_rounds: AtomicU64,
    pub(crate) batch_probes_demanded: AtomicU64,
    pub(crate) batch_probes_unique: AtomicU64,
    pub(crate) batch_max_lane_depth: AtomicU64,
}

/// Why a guarded probe (or the query demanding it) stopped short. Recorded
/// where it is detected — the deadline check of [`QueryGuard`], the batch
/// executor's batch-start check, or
/// [`probe_guarded`](ResilientServer::probe_guarded) — and translated into
/// the query's typed [`ServeError`] by
/// [`trip_error`](ResilientServer::trip_error).
pub(crate) enum Trip {
    /// The query's absolute deadline (on the server clock) had passed.
    Deadline {
        deadline: Duration,
    },
    Breaker {
        shard: u32,
        open_for: Duration,
    },
    Exhausted {
        attempts: u32,
        budget_empty: bool,
        source: StorageError,
    },
}

impl Trip {
    /// A copy of this trip for one more query demanding the same shared
    /// batch token. The underlying [`StorageError`] is not clonable (it may
    /// wrap an [`io::Error`]), so the copy carries a faithful re-rendering
    /// of the same failure.
    pub(crate) fn fan_out(&self) -> Trip {
        match self {
            Trip::Deadline { deadline } => Trip::Deadline {
                deadline: *deadline,
            },
            Trip::Breaker { shard, open_for } => Trip::Breaker {
                shard: *shard,
                open_for: *open_for,
            },
            Trip::Exhausted {
                attempts,
                budget_empty,
                source,
            } => Trip::Exhausted {
                attempts: *attempts,
                budget_empty: *budget_empty,
                source: StorageError::Io {
                    path: PathBuf::from("<shared-batch-probe>"),
                    error: io::Error::other(source.to_string()),
                },
            },
        }
    }
}

/// What one [`scan_guarded`](ResilientServer::scan_guarded) pass did.
pub(crate) struct GuardedScan {
    /// Per-token entry counts of a completed scan, or the trip that
    /// stopped it.
    pub(crate) counts: Result<Vec<usize>, Trip>,
    /// Probes resolved (hits and terminating misses) before it ended.
    pub(crate) probes_resolved: u64,
    /// Failed attempts that retries of those probes absorbed.
    pub(crate) faults_absorbed: u64,
}

/// The guarded view of the backend one scan runs against: an
/// [`IndexLookup`] whose `try_get` is the scan's deadline check (a clock
/// read, only when the scan has a deadline) followed by
/// [`probe_guarded`](ResilientServer::probe_guarded) — on a healthy index,
/// the bare backend probe.
struct QueryGuard<'a, B: ServeIndex> {
    server: &'a ResilientServer<B>,
    /// Absolute deadline on the server clock, if any.
    deadline: Option<Duration>,
    trip: Cell<Option<Trip>>,
    probes_resolved: Cell<u64>,
    faults_absorbed: Cell<u64>,
}

impl<B: ServeIndex> QueryGuard<'_, B> {
    /// Records `trip` and returns the placeholder error that aborts the
    /// scan; the placeholder is never surfaced to callers.
    fn abort(&self, trip: Trip) -> StorageError {
        self.trip.set(Some(trip));
        StorageError::Io {
            path: PathBuf::from("<resilient-serve-trip>"),
            error: io::Error::other("guarded scan aborted"),
        }
    }
}

impl<B: ServeIndex> IndexLookup for QueryGuard<'_, B> {
    type Error = StorageError;

    fn try_get(&self, label: &Label) -> Result<Option<CipherSpan<'_>>, StorageError> {
        let server = self.server;
        if let Some(deadline) = self.deadline {
            if server.clock.now() >= deadline {
                return Err(self.abort(Trip::Deadline { deadline }));
            }
        }
        match server.probe_guarded(label) {
            Ok((span, absorbed)) => {
                self.probes_resolved.set(self.probes_resolved.get() + 1);
                self.faults_absorbed
                    .set(self.faults_absorbed.get() + u64::from(absorbed));
                Ok(span)
            }
            Err(trip) => Err(self.abort(trip)),
        }
    }
}

/// A resilient serving frontend over any [`ServeIndex`] backend — see the
/// [module docs](self) for the request loop.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use rsse_core::schemes::log_brc_urc::LogScheme;
/// use rsse_core::{Dataset, RangeScheme, Record, StorageConfig};
/// use rsse_cover::{Domain, Range};
/// use rsse_serve::{ResilientServer, ServeConfig};
///
/// let dataset = Dataset::new(
///     Domain::new(1 << 10),
///     (0..200).map(|i| Record::new(i, (i * 37) % 1024)).collect(),
/// )
/// .unwrap();
/// let mut rng = rand_chacha::ChaCha20Rng::seed_from_u64(7);
/// let config = StorageConfig::in_memory(4);
/// let (client, server) = LogScheme::build_stored(&dataset, &config, &mut rng).unwrap();
/// let serve = ResilientServer::new(server.into_query_server(), ServeConfig::default());
///
/// let tokens = client.trapdoor(Range::new(0, 100)).unwrap();
/// let outcome = serve.answer(&tokens).unwrap();
/// let mut got = outcome.ids.clone();
/// let mut expected = dataset.matching_ids(Range::new(0, 100));
/// got.sort();
/// expected.sort();
/// assert_eq!(got, expected);
/// assert_eq!(serve.stats().served_ok, 1);
/// ```
pub struct ResilientServer<B: ServeIndex = QueryServer> {
    pub(crate) backend: B,
    pub(crate) config: ServeConfig,
    pub(crate) clock: Arc<dyn Clock>,
    pub(crate) breakers: ShardHealth,
    pub(crate) retry: RetryPolicy,
    admission: Mutex<AdmissionQueue>,
    pub(crate) counters: Counters,
}

impl<B: ServeIndex + std::fmt::Debug> std::fmt::Debug for ResilientServer<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResilientServer")
            .field("backend", &self.backend)
            .field("config", &self.config)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl<B: ServeIndex> ResilientServer<B> {
    /// Wraps a backend under the given tuning, on the system clock.
    pub fn new(backend: B, config: ServeConfig) -> Self {
        Self::with_clock(backend, config, Arc::new(SystemClock::new()))
    }

    /// Wraps a backend on an explicit clock — the deterministic tests pass
    /// a [`VirtualClock`](crate::clock::VirtualClock).
    pub fn with_clock(backend: B, config: ServeConfig, clock: Arc<dyn Clock>) -> Self {
        let breakers = ShardHealth::new(backend.shard_count(), config.breaker.clone());
        let retry = RetryPolicy::new(config.retry.clone(), config.seed);
        let admission = Mutex::new(AdmissionQueue::new(config.admission.clone()));
        Self {
            backend,
            config,
            clock,
            breakers,
            retry,
            admission,
            counters: Counters::default(),
        }
    }

    /// The wrapped backend.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// The tuning this server runs under.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The server's clock (shared with tests driving a virtual clock).
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// The breaker state of `shard`.
    pub fn breaker_state(&self, shard: u32) -> BreakerState {
        self.breakers.state_of(shard)
    }

    /// Retry tokens currently in the budget pool.
    pub fn retry_tokens_remaining(&self) -> u64 {
        self.retry.tokens_remaining()
    }

    /// Samples every resilience counter.
    pub fn stats(&self) -> ServeStats {
        let c = &self.counters;
        ServeStats {
            admitted: c.admitted.load(Ordering::Relaxed),
            served_ok: c.served_ok.load(Ordering::Relaxed),
            shed_tenant_full: c.shed_tenant_full.load(Ordering::Relaxed),
            shed_global_full: c.shed_global_full.load(Ordering::Relaxed),
            shed_pressure: c.shed_pressure.load(Ordering::Relaxed),
            deadline_expired: c.deadline_expired.load(Ordering::Relaxed),
            shard_unavailable: c.shard_unavailable.load(Ordering::Relaxed),
            retry_exhausted: c.retry_exhausted.load(Ordering::Relaxed),
            probes_resolved: c.probes_resolved.load(Ordering::Relaxed),
            faults_absorbed: c.faults_absorbed.load(Ordering::Relaxed),
            retries: self.retry.retries_performed(),
            retry_denials: self.retry.denials(),
            retry_tokens: self.retry.tokens_remaining(),
            breaker_opened: self.breakers.opened(),
            breaker_trials: self.breakers.trials(),
            breaker_reclosed: self.breakers.reclosed(),
            breaker_fail_fast: self.breakers.fail_fast(),
            queued: self.admission.lock().expect("admission lock").queued() as u64,
            batch_rounds: c.batch_rounds.load(Ordering::Relaxed),
            batch_probes_demanded: c.batch_probes_demanded.load(Ordering::Relaxed),
            batch_probes_unique: c.batch_probes_unique.load(Ordering::Relaxed),
            batch_dedup_hits: c
                .batch_probes_demanded
                .load(Ordering::Relaxed)
                .saturating_sub(c.batch_probes_unique.load(Ordering::Relaxed)),
            batch_max_lane_depth: c.batch_max_lane_depth.load(Ordering::Relaxed),
        }
    }

    /// Records a shed and returns it.
    fn count_shed(&self, err: ServeError) -> ServeError {
        if let ServeError::Overloaded { reason, .. } = &err {
            match reason {
                OverloadReason::TenantQueueFull => &self.counters.shed_tenant_full,
                OverloadReason::GlobalQueueFull => &self.counters.shed_global_full,
                OverloadReason::CachePressure => &self.counters.shed_pressure,
            }
            .fetch_add(1, Ordering::Relaxed);
        }
        err
    }

    /// Admission-time cache-pressure check for the direct (unqueued)
    /// serving paths.
    fn check_pressure(&self, tenant: &str) -> Result<(), ServeError> {
        if let Some(limit) = self.config.admission.shed_at_resident_bytes {
            let resident = self.backend.cache_stats().resident_bytes;
            if resident > limit {
                return Err(self.count_shed(ServeError::Overloaded {
                    tenant: tenant.to_string(),
                    reason: OverloadReason::CachePressure,
                    queued: self.admission.lock().expect("admission lock").queued(),
                    limit,
                }));
            }
        }
        Ok(())
    }

    /// The admitted-query core: runs the guarded scan against an absolute
    /// deadline and translates any trip into its typed error.
    fn serve_admitted(
        &self,
        tokens: &[SearchToken],
        admitted_at: Duration,
        deadline: Option<Duration>,
    ) -> Result<QueryOutcome, ServeError> {
        let mut scratch = ScanScratch::default();
        self.serve_admitted_with(tokens, admitted_at, deadline, &mut scratch)
    }

    /// [`serve_admitted`](Self::serve_admitted) with caller-owned scan
    /// scratch — batch paths keep one `ScanScratch` per worker thread so
    /// the per-token ciphers and the decrypt buffer are reused across the
    /// queries of a batch instead of reallocated per query.
    fn serve_admitted_with(
        &self,
        tokens: &[SearchToken],
        admitted_at: Duration,
        deadline: Option<Duration>,
        scratch: &mut ScanScratch,
    ) -> Result<QueryOutcome, ServeError> {
        self.counters.admitted.fetch_add(1, Ordering::Relaxed);
        self.retry.credit_query();
        let mut per_token: Vec<Vec<DocId>> = Vec::new();
        let scan = self.scan_guarded(tokens, deadline, &mut per_token, scratch);
        self.counters
            .probes_resolved
            .fetch_add(scan.probes_resolved, Ordering::Relaxed);
        self.counters
            .faults_absorbed
            .fetch_add(scan.faults_absorbed, Ordering::Relaxed);
        match scan.counts {
            Ok(counts) => {
                self.counters.served_ok.fetch_add(1, Ordering::Relaxed);
                Ok(assemble_outcome(tokens, per_token, &counts))
            }
            Err(trip) => Err(self.trip_error(trip, admitted_at, || PartialOutcome {
                ids: per_token.into_iter().flatten().collect(),
                probes_resolved: scan.probes_resolved,
                tokens_total: tokens.len(),
            })),
        }
    }

    /// The guarded counter scan — `rsse_core`'s one scan of `tokens` behind
    /// a [`QueryGuard`] carrying `deadline`. The sequential paths run it
    /// over a query's whole token vector, the batch executor over one
    /// unique token at a time. `per_token` receives the id groups (on a
    /// trip: everything decoded before it). Counts nothing server-wide —
    /// callers attribute the returned accounting.
    pub(crate) fn scan_guarded(
        &self,
        tokens: &[SearchToken],
        deadline: Option<Duration>,
        per_token: &mut Vec<Vec<DocId>>,
        scratch: &mut ScanScratch,
    ) -> GuardedScan {
        let guard = QueryGuard {
            server: self,
            deadline,
            trip: Cell::new(None),
            probes_resolved: Cell::new(0),
            faults_absorbed: Cell::new(0),
        };
        let counts = scan_query_into_with(&guard, tokens, per_token, scratch).map_err(|raw| {
            // Every guard error records its trip; a bare backend error
            // cannot reach the scan, but is surfaced faithfully if one
            // somehow does.
            guard.trip.take().unwrap_or(Trip::Exhausted {
                attempts: 1,
                budget_empty: false,
                source: raw,
            })
        });
        GuardedScan {
            counts,
            probes_resolved: guard.probes_resolved.get(),
            faults_absorbed: guard.faults_absorbed.get(),
        }
    }

    /// The guarded probe — the one place the serving loops touch storage:
    /// breaker admission, the probe, and budgeted retries with seeded
    /// backoff. Returns the resolved span (`None` = label absent) together
    /// with the failed attempts its retries absorbed, or the [`Trip`] that
    /// stopped it.
    ///
    /// While no shard has a failure on its streak
    /// ([`ShardHealth::all_pristine`]) the breakers would wave every probe
    /// through and have nothing to record for a success, so the probe goes
    /// straight to storage and a success returns at once. Only a failed
    /// attempt, or a table with some shard off pristine, enters
    /// [`probe_retrying`](Self::probe_retrying): the shard lookup, the
    /// per-shard breaker and the retry loop.
    ///
    /// Deadlines are the caller's: [`QueryGuard`] checks its scan's
    /// deadline before each probe (a query's own, or — for a batch token
    /// several queries share — the latest among its demanders).
    #[inline]
    pub(crate) fn probe_guarded(
        &self,
        label: &Label,
    ) -> Result<(Option<CipherSpan<'_>>, u32), Trip> {
        let failed = if self.breakers.all_pristine() {
            match self.backend.probe(label) {
                Ok(span) => return Ok((span, 0)),
                Err(source) => Some(source),
            }
        } else {
            None
        };
        self.probe_retrying(label, failed)
    }

    /// [`probe_guarded`](Self::probe_guarded) once the early-out does not
    /// apply: per attempt, breaker admission → probe → `record_success` or
    /// `record_failure` → attempt limit, budget and backoff. `failed` is
    /// the early-out's failed attempt, taken as attempt 1 without
    /// re-probing it, so storage sees exactly the attempts it would have
    /// seen had the breaker admitted that one too.
    #[cold]
    #[inline(never)]
    fn probe_retrying(
        &self,
        label: &Label,
        mut failed: Option<StorageError>,
    ) -> Result<(Option<CipherSpan<'_>>, u32), Trip> {
        let shard = self.backend.shard_of(label);
        let mut attempt: u32 = 0;
        loop {
            let source = match failed.take() {
                Some(source) => source,
                None => {
                    match self.breakers.admit(shard, || self.clock.now()) {
                        Admit::Proceed | Admit::Trial => {}
                        Admit::FailFast { open_for } => {
                            return Err(Trip::Breaker { shard, open_for })
                        }
                    }
                    match self.backend.probe(label) {
                        Ok(span) => {
                            self.breakers.record_success(shard);
                            return Ok((span, attempt));
                        }
                        Err(source) => source,
                    }
                }
            };
            self.breakers.record_failure(shard, self.clock.now());
            attempt += 1;
            if attempt >= self.config.retry.max_attempts.max(1) {
                return Err(Trip::Exhausted {
                    attempts: attempt,
                    budget_empty: false,
                    source,
                });
            }
            if !self.retry.try_consume() {
                return Err(Trip::Exhausted {
                    attempts: attempt,
                    budget_empty: true,
                    source,
                });
            }
            self.clock.sleep(self.retry.backoff(attempt));
        }
    }

    /// Counts a trip and builds the typed error of the query it stopped —
    /// the one `Trip → ServeError` mapping. `partial` (what the query had
    /// resolved) is only consumed by a deadline trip.
    pub(crate) fn trip_error(
        &self,
        trip: Trip,
        admitted_at: Duration,
        partial: impl FnOnce() -> PartialOutcome,
    ) -> ServeError {
        let (counter, error) = match trip {
            Trip::Deadline { deadline } => (
                &self.counters.deadline_expired,
                ServeError::DeadlineExceeded {
                    deadline: deadline.saturating_sub(admitted_at),
                    elapsed: self.clock.now().saturating_sub(admitted_at),
                    partial: partial(),
                },
            ),
            Trip::Breaker { shard, open_for } => (
                &self.counters.shard_unavailable,
                ServeError::ShardUnavailable { shard, open_for },
            ),
            Trip::Exhausted {
                attempts,
                budget_empty,
                source,
            } => (
                &self.counters.retry_exhausted,
                ServeError::RetriesExhausted {
                    attempts,
                    budget_empty,
                    source,
                },
            ),
        };
        counter.fetch_add(1, Ordering::Relaxed);
        error
    }

    /// Answers one query under the configured
    /// [`default_deadline`](ServeConfig::default_deadline), admitted as the
    /// configured [`default_tenant`](ServeConfig::default_tenant) (see
    /// there for the admission implication of unattributed traffic).
    pub fn answer(&self, tokens: &[SearchToken]) -> Result<QueryOutcome, ServeError> {
        self.answer_for(&self.config.default_tenant, tokens, None)
    }

    /// Answers one query with an explicit deadline budget, measured from
    /// admission, admitted as the configured
    /// [`default_tenant`](ServeConfig::default_tenant).
    pub fn answer_within(
        &self,
        tokens: &[SearchToken],
        deadline: Duration,
    ) -> Result<QueryOutcome, ServeError> {
        self.answer_for(&self.config.default_tenant, tokens, Some(deadline))
    }

    /// Answers one query on the direct (unqueued) path, attributed to
    /// `tenant` — sheds report the real tenant instead of `"adhoc"`. This is
    /// the replay-harness entry point: open-loop traces tag every event with
    /// a tenant and must never sit in a queue (queueing would hide the lag
    /// the harness exists to measure). A `None` deadline falls back to the
    /// configured [`default_deadline`](ServeConfig::default_deadline).
    pub fn answer_for(
        &self,
        tenant: &str,
        tokens: &[SearchToken],
        deadline: Option<Duration>,
    ) -> Result<QueryOutcome, ServeError> {
        self.check_pressure(tenant)?;
        let admitted_at = self.clock.now();
        let deadline = deadline.or(self.config.default_deadline);
        self.serve_admitted(tokens, admitted_at, deadline.map(|d| admitted_at + d))
    }

    /// Answers a batch of queries in parallel (rayon fan-out, outcomes in
    /// query order), every query under the full guarded loop and the
    /// **shared** retry budget and breakers. This is the resilient
    /// counterpart of [`QueryServer::answer_many`]. Scan scratch (payload
    /// ciphers, decrypt buffer) is thread-local and reused across the
    /// queries a worker serves, not reallocated per query.
    ///
    /// Queries here stay fully independent; to share work between them
    /// (scan a token repeated across the batch once) use
    /// [`answer_batch`](Self::answer_batch).
    pub fn answer_many(
        &self,
        queries: &[Vec<SearchToken>],
    ) -> Vec<Result<QueryOutcome, ServeError>> {
        queries
            .par_iter()
            .map_init(ScanScratch::default, |scratch, tokens| {
                self.check_pressure(&self.config.default_tenant)?;
                let admitted_at = self.clock.now();
                let deadline = self
                    .config
                    .default_deadline
                    .map(|budget| admitted_at + budget);
                self.serve_admitted_with(tokens, admitted_at, deadline, scratch)
            })
            .collect()
    }

    /// Answers a batch of queries through the batch executor (see the
    /// [`executor`](crate::executor) module): the batch's tokens are mapped
    /// to unique-token slots once, each unique token is scanned once by the
    /// same guarded counter scan [`answer`](Self::answer) runs — on
    /// [`BatchConfig::workers`] threads forked at most once per batch — and
    /// its hits go to every query demanding it. Outcomes are
    /// **byte-identical** to serving each query alone, in query order.
    ///
    /// The whole batch is admitted at one instant (queries shed for cache
    /// pressure fail typed without joining the batch), and the configured
    /// [`default_deadline`](ServeConfig::default_deadline) runs from that
    /// instant. A token stops being scanned once the deadline of every
    /// query demanding it has passed; a query missing one of its tokens is
    /// cut with a typed partial, a query whose tokens all completed is
    /// answered.
    pub fn answer_batch(
        &self,
        queries: &[Vec<SearchToken>],
    ) -> Vec<Result<QueryOutcome, ServeError>> {
        let admitted_at = self.clock.now();
        let deadline = self
            .config
            .default_deadline
            .map(|budget| admitted_at + budget);
        let mut slots: Vec<Option<Result<QueryOutcome, ServeError>>> =
            (0..queries.len()).map(|_| None).collect();
        let mut admitted: Vec<usize> = Vec::with_capacity(queries.len());
        let mut items: Vec<BatchItem<'_>> = Vec::with_capacity(queries.len());
        for (slot, tokens) in queries.iter().enumerate() {
            match self.check_pressure(&self.config.default_tenant) {
                Ok(()) => {
                    admitted.push(slot);
                    items.push(BatchItem {
                        tokens,
                        admitted_at,
                        deadline,
                    });
                }
                Err(shed) => slots[slot] = Some(Err(shed)),
            }
        }
        let outcomes = execute_batch(self, items);
        for (slot, outcome) in admitted.into_iter().zip(outcomes) {
            slots[slot] = Some(outcome);
        }
        slots
            .into_iter()
            .map(|slot| slot.expect("every batch slot resolves"))
            .collect()
    }

    /// Queues one tenant's query for a later [`drain`](Self::drain),
    /// shedding typed if a bound is hit. The configured default deadline
    /// starts **now** — time spent queued counts against it.
    pub fn enqueue(&self, tenant: &str, tokens: Vec<SearchToken>) -> Result<Ticket, ServeError> {
        let now = self.clock.now();
        let deadline = self.config.default_deadline.map(|d| now + d);
        let resident = self.backend.cache_stats().resident_bytes;
        let mut queue = self.admission.lock().expect("admission lock");
        queue
            .enqueue(tenant, tokens, deadline, resident)
            .map_err(|err| self.count_shed(err))
    }

    /// Serves everything queued, in oldest-tenant-fair round-robin order
    /// (see the [`admission`](crate::admission) module), sequentially and
    /// deterministically. Returns each request's ticket with its outcome,
    /// in serving order.
    pub fn drain(&self) -> Vec<(Ticket, Result<QueryOutcome, ServeError>)> {
        let plan: Vec<Pending> = self.admission.lock().expect("admission lock").drain_plan();
        plan.into_iter()
            .map(|pending| {
                let admitted_at = self.clock.now();
                let outcome = self.serve_admitted(&pending.tokens, admitted_at, pending.deadline);
                (pending.ticket, outcome)
            })
            .collect()
    }

    /// Serves everything queued as **one batch** through the batch
    /// executor: the drain plan's queries (same oldest-tenant-fair order as
    /// [`drain`](Self::drain)) are admitted together, tokens repeated
    /// across them are scanned once, and each request's ticket comes back
    /// with its outcome in plan order. Every request keeps the deadline it
    /// was enqueued under — one whose deadline passed while queued is cut
    /// at batch start with a zero-probe typed partial, without cancelling
    /// probes other requests share.
    pub fn drain_batched(&self) -> Vec<(Ticket, Result<QueryOutcome, ServeError>)> {
        let plan: Vec<Pending> = self.admission.lock().expect("admission lock").drain_plan();
        let admitted_at = self.clock.now();
        let items: Vec<BatchItem<'_>> = plan
            .iter()
            .map(|pending| BatchItem {
                tokens: &pending.tokens,
                admitted_at,
                deadline: pending.deadline,
            })
            .collect();
        let outcomes = execute_batch(self, items);
        plan.into_iter()
            .map(|pending| pending.ticket)
            .zip(outcomes)
            .collect()
    }
}

impl ResilientServer<QueryServer> {
    /// Cold-opens a resilient endpoint over an index persisted with
    /// `ShardedIndex::save_to_dir` (or built on disk): the resilient
    /// counterpart of [`QueryServer::open_dir`].
    pub fn open_dir(dir: impl AsRef<Path>, config: ServeConfig) -> Result<Self, StorageError> {
        Ok(Self::new(QueryServer::open_dir(dir)?, config))
    }

    /// Like [`open_dir`](Self::open_dir) with a block-cache budget bounding
    /// resident ciphertext bytes (see [`QueryServer::open_dir_with_budget`])
    /// — pairs naturally with
    /// [`AdmissionConfig::shed_at_resident_bytes`] pressure shedding.
    pub fn open_dir_with_budget(
        dir: impl AsRef<Path>,
        cache_budget: Option<usize>,
        config: ServeConfig,
    ) -> Result<Self, StorageError> {
        Ok(Self::new(
            QueryServer::open_dir_with_budget(dir, cache_budget)?,
            config,
        ))
    }
}
