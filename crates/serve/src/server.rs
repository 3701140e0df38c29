//! The resilient request loop: admission → deadline-guarded, breaker-gated,
//! budget-retried probe fan-out → typed outcome.
//!
//! [`ResilientServer`] wraps any [`ServeIndex`] backend (a
//! [`QueryServer`], a bare [`ShardedIndex`], or anything else that can
//! resolve labeled probes) and serves range queries through one entry, the
//! batch executor ([`executor`](crate::executor)): a [`Query`] carries its
//! tokens, tenant and deadline budget, [`answer`](ResilientServer::answer)
//! is a batch of one, [`answer_batch`](ResilientServer::answer_batch) any
//! batch, and [`drain`](ResilientServer::drain) the queued admission plan.
//! Every query passes the same guarded probe loop:
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

use crate::admission::{shed_on_pressure, AdmissionConfig, AdmissionQueue, Pending, Ticket};
use crate::breaker::{Admit, BreakerConfig, BreakerState, ShardHealth};
use crate::clock::{Clock, SystemClock};
use crate::error::{OverloadReason, PartialOutcome, ServeError};
use crate::executor::{execute_batch, serve_alone, BatchConfig, BatchItem};
use crate::retry::{RetryConfig, RetryPolicy};
use rsse_core::server::{scan_query_into_with, ScanScratch};
use rsse_core::{DocId, QueryOutcome, QueryServer};
use rsse_sse::{
    CacheStats, CipherSpan, IndexLookup, Label, SearchToken, ShardedIndex, StorageError,
};
use std::cell::Cell;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The narrow boundary between the serving loop and an index backend: a
/// fallible labeled probe, the scan's prefetch hint, the shard topology
/// and cache telemetry the resilience machinery keys off, and whether the
/// backend is memory-resident. Implemented for [`ShardedIndex`] and
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
    /// The [`IndexLookup::prefetch`] hint for labels about to be probed:
    /// it reads no block, moves no counter, passes no breaker and returns
    /// nothing, so the guarded scan forwards it unguarded. A backend may
    /// ignore it, and the default does.
    fn prefetch(&self, labels: &[Label]) {
        let _ = labels;
    }

    /// Whether every probe resolves from memory: no storage read, so no
    /// I/O error, no fault gate and no block cache behind it. Only over
    /// such a backend does a batch of one's counter scan split across
    /// lanes ([`executor`](crate::executor)); lanes over storage would add
    /// reads — each lane's probe past a list's end — that the storage sees.
    /// The default says no.
    fn memory_resident(&self) -> bool {
        false
    }
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

    fn prefetch(&self, labels: &[Label]) {
        IndexLookup::prefetch(self, labels);
    }

    fn memory_resident(&self) -> bool {
        !self.is_file_backed()
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

    fn prefetch(&self, labels: &[Label]) {
        IndexLookup::prefetch(self.index(), labels);
    }

    fn memory_resident(&self) -> bool {
        !self.index().is_file_backed()
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
    /// Tenant that unattributed queries ([`ResilientServer::answer`], and
    /// every [`Query`] of [`answer_batch`](ResilientServer::answer_batch)
    /// whose `tenant` is `None`) are admitted as.
    ///
    /// Admission implication: every unattributed query charges this one
    /// tenant's bounded queue and shows up as it in shed errors, so a
    /// multi-tenant deployment that mixes attributed (a [`Query`] naming
    /// its tenant, [`enqueue`](ResilientServer::enqueue)) and unattributed
    /// traffic shares the default tenant's fairness slot across all
    /// unattributed callers. Defaults to `"adhoc"`.
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
    /// Token scans the batch executor ran — its units of work: each
    /// unique token of a multi-query batch, every token of a batch of one.
    pub batch_rounds: u64,
    /// Probes queries demanded (the leakage-profile count: every query's
    /// logical probe, whether or not storage was actually read). Every
    /// query is served as a batch, so this is `probes_resolved`.
    pub batch_probes_demanded: u64,
    /// Probes the batch executor actually issued after cross-query dedup —
    /// each unique token of a batch is scanned once (equals
    /// `batch_probes_demanded` when no two queries of a batch share a
    /// token, as in a batch of one).
    pub batch_probes_unique: u64,
    /// Demanded probes satisfied by another query's identical probe
    /// (`batch_probes_demanded - batch_probes_unique`).
    pub batch_dedup_hits: u64,
    /// Most token scans one worker took in a single batch (the whole batch
    /// when it was scanned inline, every token of a batch of one).
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
    /// Demanded probes a multi-query batch served from another query's
    /// scan; `batch_probes_unique` is `probes_resolved` minus these.
    pub(crate) batch_dedup_hits: AtomicU64,
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
    /// wrap an [`io::Error`]); a probe's error is an I/O error naming the
    /// shard file, and the copy keeps that path and the error's kind and
    /// message.
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
                source: match source {
                    StorageError::Io { path, error } => StorageError::Io {
                        path: path.clone(),
                        error: io::Error::new(error.kind(), error.to_string()),
                    },
                    other => StorageError::Io {
                        path: PathBuf::from("<shared-batch-probe>"),
                        error: io::Error::other(other.to_string()),
                    },
                },
            },
        }
    }
}

/// What one guarded scan ([`scan_guarded`](ResilientServer::scan_guarded),
/// or a batch of one split across lanes) did.
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
/// the bare backend probe. Its `prefetch` goes straight to the backend's
/// [`ServeIndex::prefetch`]: a hint is no probe, so no deadline, breaker
/// or retry sees it.
pub(crate) struct QueryGuard<'a, B: ServeIndex> {
    server: &'a ResilientServer<B>,
    /// Absolute deadline on the server clock, if any.
    deadline: Option<Duration>,
    trip: Cell<Option<Trip>>,
    probes_resolved: Cell<u64>,
    faults_absorbed: Cell<u64>,
}

impl<'a, B: ServeIndex> QueryGuard<'a, B> {
    /// A guard for one scan against `server`, cut at `deadline`.
    pub(crate) fn new(server: &'a ResilientServer<B>, deadline: Option<Duration>) -> Self {
        Self {
            server,
            deadline,
            trip: Cell::new(None),
            probes_resolved: Cell::new(0),
            faults_absorbed: Cell::new(0),
        }
    }

    /// Probes resolved through this guard so far.
    pub(crate) fn probes_resolved(&self) -> u64 {
        self.probes_resolved.get()
    }

    /// The accounting of the scan that ended with `counts`: a guard error
    /// becomes the trip it recorded.
    pub(crate) fn finish(self, counts: Result<Vec<usize>, StorageError>) -> GuardedScan {
        let counts = counts.map_err(|raw| {
            // Every guard error records its trip; a bare backend error
            // cannot reach the scan, but is surfaced faithfully if one
            // somehow does.
            self.trip.take().unwrap_or(Trip::Exhausted {
                attempts: 1,
                budget_empty: false,
                source: raw,
            })
        });
        GuardedScan {
            counts,
            probes_resolved: self.probes_resolved.get(),
            faults_absorbed: self.faults_absorbed.get(),
        }
    }

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

    fn prefetch(&self, labels: &[Label]) {
        self.server.backend.prefetch(labels);
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
/// let serve = ResilientServer::new(server, ServeConfig::default());
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
        let probes_resolved = c.probes_resolved.load(Ordering::Relaxed);
        let batch_dedup_hits = c.batch_dedup_hits.load(Ordering::Relaxed);
        ServeStats {
            admitted: c.admitted.load(Ordering::Relaxed),
            served_ok: c.served_ok.load(Ordering::Relaxed),
            shed_tenant_full: c.shed_tenant_full.load(Ordering::Relaxed),
            shed_global_full: c.shed_global_full.load(Ordering::Relaxed),
            shed_pressure: c.shed_pressure.load(Ordering::Relaxed),
            deadline_expired: c.deadline_expired.load(Ordering::Relaxed),
            shard_unavailable: c.shard_unavailable.load(Ordering::Relaxed),
            retry_exhausted: c.retry_exhausted.load(Ordering::Relaxed),
            probes_resolved,
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
            batch_probes_demanded: probes_resolved,
            batch_probes_unique: probes_resolved.saturating_sub(batch_dedup_hits),
            batch_dedup_hits,
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

    /// Admits one direct (unqueued) query at `admitted_at`: the
    /// cache-pressure check under its tenant, then its deadline budget
    /// resolved to an absolute deadline on the server clock.
    fn admit<'q>(
        &self,
        query: Query<'q>,
        admitted_at: Duration,
    ) -> Result<BatchItem<'q>, ServeError> {
        shed_on_pressure(
            &self.config.admission,
            query.tenant.unwrap_or(&self.config.default_tenant),
            || self.backend.cache_stats().resident_bytes,
            || self.admission.lock().expect("admission lock").queued(),
        )
        .map_err(|err| self.count_shed(err))?;
        let deadline = query.deadline.or(self.config.default_deadline);
        Ok(BatchItem {
            tokens: query.tokens,
            admitted_at,
            deadline: deadline.map(|budget| admitted_at + budget),
        })
    }

    /// The guarded counter scan — `rsse_core`'s one scan of `tokens` behind
    /// a [`QueryGuard`] carrying `deadline`. The batch executor runs it over
    /// the whole token vector of a batch of one, and over one unique token
    /// at a time of a larger batch. `per_token` receives the id groups (on a
    /// trip: everything decoded before it). Counts nothing server-wide —
    /// callers attribute the returned accounting.
    pub(crate) fn scan_guarded(
        &self,
        tokens: &[SearchToken],
        deadline: Option<Duration>,
        per_token: &mut Vec<Vec<DocId>>,
        scratch: &mut ScanScratch,
    ) -> GuardedScan {
        let guard = QueryGuard::new(self, deadline);
        let counts = scan_query_into_with(&guard, tokens, per_token, scratch);
        guard.finish(counts)
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

    /// Answers one query as a batch of one — exactly what
    /// [`answer_batch`](Self::answer_batch) returns for `&[tokens]`,
    /// without its vectors — under the configured
    /// [`default_deadline`](ServeConfig::default_deadline), admitted as the
    /// configured [`default_tenant`](ServeConfig::default_tenant) (see
    /// there for the admission implication of unattributed traffic).
    pub fn answer(&self, tokens: &[SearchToken]) -> Result<QueryOutcome, ServeError> {
        let query = Query {
            tokens,
            ..Query::default()
        };
        let item = self.admit(query, self.clock.now())?;
        serve_alone(self, &item)
    }

    /// Answers a batch of queries through the batch executor (see the
    /// [`executor`](crate::executor) module), outcomes in query order and
    /// **byte-identical** to serving each query alone. A batch of one runs
    /// its whole token vector through one guarded scan; a larger batch maps
    /// its tokens to unique-token slots once, scans each unique token once
    /// by the same guarded scan — on lanes of the global `rayon` pool,
    /// at most [`BatchConfig::workers`] of them — and hands its hits to
    /// every query demanding it.
    ///
    /// Items are anything that converts into a [`Query`]: a token vector
    /// (unattributed, under the default deadline) or a `Query` naming its
    /// tenant and deadline budget. The whole batch is admitted at one
    /// instant (a query shed for cache pressure fails typed without joining
    /// the batch), and every deadline runs from that instant. A token stops
    /// being scanned once the deadline of every query demanding it has
    /// passed; a query missing one of its tokens is cut with a typed
    /// partial, a query whose tokens all completed is answered.
    pub fn answer_batch<'q, Q>(&self, queries: &'q [Q]) -> Vec<Result<QueryOutcome, ServeError>>
    where
        &'q Q: Into<Query<'q>>,
    {
        let admitted_at = self.clock.now();
        let mut shed: Vec<(usize, ServeError)> = Vec::new();
        let items: Vec<BatchItem<'q>> = queries
            .iter()
            .enumerate()
            .filter_map(|(slot, query)| {
                self.admit(query.into(), admitted_at)
                    .map_err(|err| shed.push((slot, err)))
                    .ok()
            })
            .collect();
        let mut outcomes = execute_batch(self, items);
        // Ascending slots: each shed lands where its query stood.
        for (slot, err) in shed {
            outcomes.insert(slot, Err(err));
        }
        outcomes
    }

    /// Queues one tenant's query for a later [`drain`](Self::drain),
    /// shedding typed if a bound is hit. The configured default deadline
    /// starts **now** — time spent queued counts against it.
    pub fn enqueue(&self, tenant: &str, tokens: Vec<SearchToken>) -> Result<Ticket, ServeError> {
        let now = self.clock.now();
        let deadline = self.config.default_deadline.map(|d| now + d);
        // Residency is sampled only when a pressure limit will read it.
        let resident = match self.config.admission.shed_at_resident_bytes {
            Some(_) => self.backend.cache_stats().resident_bytes,
            None => 0,
        };
        let mut queue = self.admission.lock().expect("admission lock");
        queue
            .enqueue(tenant, tokens, deadline, resident)
            .map_err(|err| self.count_shed(err))
    }

    /// Serves everything queued as one batch through the batch executor:
    /// the drain plan's queries (oldest-tenant-fair round-robin, see the
    /// [`admission`](crate::admission) module) are admitted together,
    /// tokens repeated across them are scanned once, and each request's
    /// ticket comes back with its outcome in plan order. Every request
    /// keeps the deadline it was enqueued under — one whose deadline passed
    /// while queued is cut at batch start with a zero-probe typed partial,
    /// without cancelling probes other requests share.
    pub fn drain(&self) -> Vec<(Ticket, Result<QueryOutcome, ServeError>)> {
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

/// One query as the serve plane takes it: the token vector the owner's
/// `Trpdr` sent, the tenant it is admitted as and its deadline budget,
/// measured from admission. `None` falls back to the server's
/// [`default_tenant`](ServeConfig::default_tenant) /
/// [`default_deadline`](ServeConfig::default_deadline).
#[derive(Clone, Copy, Debug, Default)]
pub struct Query<'a> {
    /// One search token per covering node.
    pub tokens: &'a [SearchToken],
    /// The tenant the query is admitted (and shed) as.
    pub tenant: Option<&'a str>,
    /// The deadline budget, from the batch's admission instant.
    pub deadline: Option<Duration>,
}

impl<'a> From<&'a Vec<SearchToken>> for Query<'a> {
    fn from(tokens: &'a Vec<SearchToken>) -> Self {
        Query {
            tokens,
            ..Query::default()
        }
    }
}

impl<'a, 'b: 'a> From<&'a Query<'b>> for Query<'a> {
    fn from(query: &'a Query<'b>) -> Self {
        *query
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rsse_sse::formats::arm_faults;
    use rsse_sse::test_support::TempDir;
    use rsse_sse::{FaultPlan, SseDatabase, SseScheme, StorageConfig, TokenLabeler};

    /// The guarded scan's prefetch reaches the backend and nothing else: no
    /// deadline check, breaker, retry or probe count sees it, and the
    /// budgeted on-disk index under it reads no block and draws no fault
    /// decision — while one probe through the same guard trips at once.
    #[test]
    fn guarded_prefetch_is_no_probe() {
        let mut rng = rand_chacha::ChaCha20Rng::seed_from_u64(5);
        let key = SseScheme::setup(&mut rng);
        let mut db = SseDatabase::new();
        for i in 0..64u64 {
            db.add(
                format!("kw{}", i % 4).into_bytes(),
                i.to_le_bytes().to_vec(),
            );
        }
        let dir = TempDir::new("guarded-prefetch");
        let config = StorageConfig::on_disk(2, dir.path());
        rsse_sse::pibas::reference::build_stored(&key, &db, &config, &mut rng).unwrap();
        let index = ShardedIndex::open_dir_with_budget(dir.path(), Some(0)).unwrap();
        let injector = arm_faults(dir.path(), FaultPlan::dead_after(0), None);
        let server = ResilientServer::new(index, ServeConfig::default());
        let guard = QueryGuard::new(&server, Some(Duration::ZERO));
        let labeler = TokenLabeler::new(&SseScheme::trapdoor(&key, b"kw1"));
        let labels: Vec<Label> = (0..20).map(|counter| labeler.label_at(counter)).collect();

        let stats = server.stats();
        guard.prefetch(&labels);
        assert_eq!(server.stats(), stats);
        assert_eq!(server.backend.cache_stats(), CacheStats::default());
        assert_eq!(server.backend.read_errors(), 0);
        assert_eq!(injector.probes_issued(), 0);
        assert_eq!(guard.probes_resolved.get(), 0);
        assert!(guard.trip.take().is_none());

        assert!(guard.try_get(&labels[0]).is_err());
        assert!(matches!(guard.trip.take(), Some(Trip::Deadline { .. })));
    }
}
