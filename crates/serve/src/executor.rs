//! The batch executor: plan once, scan each unique token once, fan out.
//!
//! Every query the serve plane answers is served here: `answer_batch` and
//! `drain` hand their batch to `execute_batch`, and `answer` is a batch of
//! one, which `execute_batch` serves with `serve_alone` too.
//!
//! **A batch of one** has nothing to share. Its whole token vector goes
//! through one guarded counter scan
//! (`rsse_core::server::scan_query_into_with`), which advances all its
//! tokens in lock-step windows and prefetches from the window of 4. Routing
//! it through the plan below instead cost `mem_point` +31 % p50: the plan's
//! map, a scan per token and the fan-out's id copies are pure overhead when
//! no other query can use the work.
//!
//! **A larger batch** of queries from hot tenant ranges repeats whole
//! *tokens* — trapdoors are deterministic, so two queries covering the same
//! node carry byte-equal tokens — and the executor serves every distinct
//! token of it exactly once:
//!
//! 1. **Plan** — one pass over the admitted batch maps each
//!    [`SearchToken`] to a unique-token slot. Token-level dedup *is*
//!    label-level dedup: equal tokens have equal label keys, hence equal
//!    label schedules `F(K1, 0), F(K1, 1), …`, and equal payload keys, so
//!    one scan of the token yields exactly the hits, in exactly the order,
//!    that each demander's own scan would have decrypted. (Distinct tokens
//!    share a label only on a 128-bit PRF collision.)
//! 2. **Scan** — the unique tokens are the work units. Workers pull them
//!    off a shared cursor; each unit is a batch of one's guarded counter
//!    scan over a one-token slice, so every probe still goes deadline check
//!    → `probe_guarded` (breaker and budgeted retry once a shard has
//!    failed), and the executor keeps no counter loop of its own. The
//!    lanes run on the global `rayon` pool, the calling thread always one
//!    of them; the pool's width and [`BatchConfig::workers`] bound how
//!    many take part, and a batch too small to amortise a hand-off is
//!    scanned inline.
//! 3. **Fan out** — per query, in item order, `assemble_outcome` over its
//!    slots' id groups and counts: outcomes, `QueryStats`, per-query
//!    `probes_resolved` and the per-query `ServeStats` totals are
//!    byte-identical to serving each query as a batch of one.
//!
//! ## Control plane
//!
//! * **Deadlines.** A query already past its deadline when the batch
//!   starts is cut with a zero-probe typed partial and demands nothing. A
//!   unit's scan runs under the *latest* deadline among its live demanders
//!   (unbounded if any of them is): work stops only when nobody can use
//!   it, so cutting one demander never cancels another's probes. A query is
//!   `DeadlineExceeded` — its partial being the groups resolved so far, in
//!   token order — iff it was expired at the start or one of its tokens
//!   was abandoned. A query whose tokens all completed returns `Ok` even if
//!   its own deadline passed meanwhile: `answer_batch` returns when the
//!   batch does, and cutting a fully resolved query only discards its
//!   answer.
//! * **Breakers and retries** act per unique probe inside the unit's scan.
//!   A fail-fast or an exhausted retry stops that unit and fails exactly
//!   the queries demanding its token, each with its own typed error
//!   (`Trip::fan_out`, which keeps the failing shard file and the I/O
//!   error's kind); a transiently faulty block is re-read once for the
//!   whole batch, not once per demander.
//!
//! ## Leakage
//!
//! Within-batch dedup is leakage-free: which tokens coincide is the search
//! pattern, which the server already learns from the deterministic tokens
//! themselves (see the `rsse_sse::leakage` module). The executor reveals
//! its savings only through counters the server operator already holds.
//! Per-query accounting is unchanged — a query's `probes_resolved` counts
//! its *demanded* probes whether or not storage was read, so outcomes and
//! the per-query leakage profile are byte-identical to serving it alone.

use crate::error::{PartialOutcome, ServeError};
use crate::server::{GuardedScan, ResilientServer, ServeIndex, Trip};
use rsse_core::server::{assemble_outcome, ScanScratch};
use rsse_core::{DocId, QueryOutcome};
use rsse_sse::SearchToken;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

/// Tuning of the batch executor (every answer of a [`ResilientServer`]).
#[derive(Clone, Debug, Default)]
pub struct BatchConfig {
    /// The most lanes scanning a batch's unique tokens: `None` (default)
    /// lets every thread of the global `rayon` pool take part, `Some(n)`
    /// caps them at `n` (the `batch_executor` battery sweeps 1–3). The
    /// pool's width caps them too — lanes run on its parked workers, the
    /// calling thread always one of them — and so does the batch itself,
    /// one lane per 8 unique tokens, so a small batch is scanned inline.
    pub workers: Option<usize>,
}

/// Unique tokens a batch must hold per lane. Handing a lane to the pool
/// costs the caller ≈ 2 µs while a worker polls and ≈ 8 µs when it is
/// parked, and a parked worker starts ≈ 25–65 µs later (2-vCPU VM: its
/// halted vCPU has to be rescheduled). Against units of ≈ 2 µs, two lanes
/// took 1.1× the inline time at 8 units and 0.9× at 16, so a second lane
/// pays from about 8 units each.
const MIN_UNITS_PER_WORKER: usize = 8;

/// One admitted query entering [`execute_batch`]: its tokens plus the
/// admission instant and the absolute deadline (server clock) it is served
/// against — a [`Query`](crate::server::Query)'s budget resolved at
/// admission, or a queued request's fixed when it was enqueued.
pub(crate) struct BatchItem<'a> {
    pub(crate) tokens: &'a [SearchToken],
    pub(crate) admitted_at: Duration,
    pub(crate) deadline: Option<Duration>,
}

/// How the plan disposes of one query.
enum Plan {
    /// Past its deadline when the batch started: demands nothing.
    Expired { deadline: Duration },
    /// The unique-token slot of each of its tokens, in token order.
    Slots(Vec<u32>),
}

/// One unique token of the batch — a unit of scan work.
struct Unit<'a> {
    token: &'a SearchToken,
    /// The latest absolute deadline among the queries demanding the token;
    /// `None` (unbounded) as soon as one of them has none.
    deadline: Option<Duration>,
}

/// What scanning one unit produced: the token's ids in storage-counter
/// order (everything decoded before a trip, if the scan was stopped) and
/// the guarded scan's counts and accounting.
struct UnitScan {
    ids: Vec<DocId>,
    scan: GuardedScan,
}

/// Runs one batch to completion. Outcomes are in item order and
/// byte-identical to serving each item as a batch of one (pinned by the
/// `batch_executor` test battery).
pub(crate) fn execute_batch<B: ServeIndex>(
    server: &ResilientServer<B>,
    items: Vec<BatchItem<'_>>,
) -> Vec<Result<QueryOutcome, ServeError>> {
    match items.as_slice() {
        [] => return Vec::new(),
        [item] => return vec![serve_alone(server, item)],
        _ => {}
    }
    let counters = &server.counters;
    counters
        .admitted
        .fetch_add(items.len() as u64, Ordering::Relaxed);

    // Plan: one pass maps every live query's tokens to unique-token slots.
    // Tokens arrive from clients, so the map keeps the default (keyed)
    // hasher.
    let started = server.clock.now();
    let mut slot_of: HashMap<&SearchToken, u32> = HashMap::new();
    let mut units: Vec<Unit<'_>> = Vec::new();
    let plans: Vec<Plan> = items
        .iter()
        .map(|item| {
            server.retry.credit_query();
            if let Some(deadline) = item.deadline.filter(|&deadline| started >= deadline) {
                return Plan::Expired { deadline };
            }
            let slots = item.tokens.iter().map(|token| {
                let slot = *slot_of.entry(token).or_insert(units.len() as u32);
                match units.get_mut(slot as usize) {
                    // One more demander: the unit must live as long as
                    // the latest of them can still use it.
                    Some(unit) => {
                        unit.deadline = unit
                            .deadline
                            .zip(item.deadline)
                            .map(|(unit, query)| unit.max(query));
                    }
                    None => units.push(Unit {
                        token,
                        deadline: item.deadline,
                    }),
                }
                slot
            });
            Plan::Slots(slots.collect())
        })
        .collect();

    let scanned = scan_units(server, &units);
    let unique: u64 = scanned.iter().map(|unit| unit.scan.probes_resolved).sum();
    counters
        .batch_rounds
        .fetch_add(units.len() as u64, Ordering::Relaxed);
    counters.faults_absorbed.fetch_add(
        scanned.iter().map(|unit| unit.scan.faults_absorbed).sum(),
        Ordering::Relaxed,
    );

    // Fan out: every query reads its slots' shared results, in token order.
    let mut demanded_total = 0u64;
    let outcomes = items
        .iter()
        .zip(plans)
        .map(|(item, plan)| {
            let slots = match plan {
                Plan::Slots(slots) => slots,
                Plan::Expired { deadline } => {
                    return Err(server.trip_error(
                        Trip::Deadline { deadline },
                        item.admitted_at,
                        || PartialOutcome {
                            tokens_total: item.tokens.len(),
                            ..PartialOutcome::default()
                        },
                    ));
                }
            };
            let demanded = || slots.iter().map(|&slot| &scanned[slot as usize]);
            let probes_resolved: u64 = demanded().map(|unit| unit.scan.probes_resolved).sum();
            demanded_total += probes_resolved;
            counters
                .probes_resolved
                .fetch_add(probes_resolved, Ordering::Relaxed);
            let counts: Result<Vec<usize>, &Trip> = demanded()
                .map(|unit| unit.scan.counts.as_ref().map(|counts| counts[0]))
                .collect();
            match counts {
                Ok(counts) => {
                    counters.served_ok.fetch_add(1, Ordering::Relaxed);
                    let per_token = demanded().map(|unit| unit.ids.clone()).collect();
                    Ok(assemble_outcome(item.tokens, per_token, &counts))
                }
                Err(trip) => {
                    let trip = match (trip, item.deadline) {
                        // The unit ran under its latest demander's
                        // deadline; this query reports its own.
                        (Trip::Deadline { .. }, Some(deadline)) => Trip::Deadline { deadline },
                        (trip, _) => trip.fan_out(),
                    };
                    Err(
                        server.trip_error(trip, item.admitted_at, || PartialOutcome {
                            ids: demanded().flat_map(|unit| &unit.ids).copied().collect(),
                            probes_resolved,
                            tokens_total: item.tokens.len(),
                        }),
                    )
                }
            }
        })
        .collect();
    counters
        .batch_dedup_hits
        .fetch_add(demanded_total - unique, Ordering::Relaxed);
    outcomes
}

/// A batch of one: the query's whole token vector in one guarded scan,
/// counted as one round per token on one lane.
pub(crate) fn serve_alone<B: ServeIndex>(
    server: &ResilientServer<B>,
    item: &BatchItem<'_>,
) -> Result<QueryOutcome, ServeError> {
    let counters = &server.counters;
    counters.admitted.fetch_add(1, Ordering::Relaxed);
    server.retry.credit_query();
    let tokens = item.tokens;
    let mut per_token: Vec<Vec<DocId>> = Vec::new();
    let scan = server.scan_guarded(
        tokens,
        item.deadline,
        &mut per_token,
        &mut ScanScratch::default(),
    );
    let rounds = tokens.len() as u64;
    counters.batch_rounds.fetch_add(rounds, Ordering::Relaxed);
    counters
        .batch_max_lane_depth
        .fetch_max(rounds, Ordering::Relaxed);
    counters
        .probes_resolved
        .fetch_add(scan.probes_resolved, Ordering::Relaxed);
    counters
        .faults_absorbed
        .fetch_add(scan.faults_absorbed, Ordering::Relaxed);
    match scan.counts {
        Ok(counts) => {
            counters.served_ok.fetch_add(1, Ordering::Relaxed);
            Ok(assemble_outcome(tokens, per_token, &counts))
        }
        Err(trip) => Err(
            server.trip_error(trip, item.admitted_at, || PartialOutcome {
                ids: per_token.into_iter().flatten().collect(),
                probes_resolved: scan.probes_resolved,
                tokens_total: tokens.len(),
            }),
        ),
    }
}

/// Scans every unit once, in parallel across the lanes the batch and the
/// pool support, and returns the results in unit order. Lanes pull units
/// off one shared cursor, so a slow or retried unit delays only the lane
/// holding it; the calling thread is one of the lanes, and scans the rest
/// itself when no worker is free.
fn scan_units<B: ServeIndex>(server: &ResilientServer<B>, units: &[Unit<'_>]) -> Vec<UnitScan> {
    let lanes = server
        .config
        .batch
        .workers
        .unwrap_or(usize::MAX)
        .min(rayon::current_num_threads())
        .min(units.len() / MIN_UNITS_PER_WORKER)
        .max(1);
    let results: Vec<OnceLock<UnitScan>> = units.iter().map(|_| OnceLock::new()).collect();
    let cursor = AtomicUsize::new(0);
    let work = || {
        let mut scratch = ScanScratch::default();
        let mut per_token: Vec<Vec<DocId>> = Vec::new();
        let mut scanned = 0u64;
        loop {
            let at = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(unit) = units.get(at) else { break };
            let scan = server.scan_guarded(
                std::slice::from_ref(unit.token),
                unit.deadline,
                &mut per_token,
                &mut scratch,
            );
            let ids = per_token.pop().unwrap_or_default();
            assert!(
                results[at].set(UnitScan { ids, scan }).is_ok(),
                "the cursor hands each unit to one worker"
            );
            scanned += 1;
        }
        server
            .counters
            .batch_max_lane_depth
            .fetch_max(scanned, Ordering::Relaxed);
    };
    if lanes == 1 {
        work();
    } else {
        rayon::scope(|scope| {
            for _ in 1..lanes {
                scope.spawn(|_| work());
            }
            work();
        });
    }
    results
        .into_iter()
        .map(|slot| slot.into_inner().expect("every unit was scanned"))
        .collect()
}
