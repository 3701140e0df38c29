//! The batch executor: plan once, scan each unique token once, fan out.
//!
//! Every query the serve plane answers is served here: `answer_batch` and
//! `drain` hand their batch to `execute_batch`, and `answer` is a batch of
//! one, which `execute_batch` serves with `serve_alone` too.
//!
//! **A batch of one** has nothing to share. Its whole token vector goes
//! through one guarded counter scan (`SseScheme::search_scan_from`, the walk
//! `rsse_core::server::scan_query_into_with` runs), which advances all its
//! tokens in lock-step windows and prefetches from the window of 4. Routing
//! it through the plan below instead cost `mem_point` +31 % p50: the plan's
//! map, a scan per token and the fan-out's id copies are pure overhead when
//! no other query can use the work.
//!
//! A *long* batch of one splits instead, across lanes of the same pool. Π_bas
//! labels each counter on its own (`F(K1_w, c)`), so lanes can walk one list
//! at once, each taking its own counters. The walk starts on the caller and
//! pauses at the first round boundary by which 128 probes have resolved. If
//! a token is still live there, the backend is memory-resident
//! ([`ServeIndex::memory_resident`]) and the pool and
//! [`BatchConfig::workers`] allow `k ≥ 2` lanes, lane `i` walks every live
//! token at counters `next + i, next + i + k, …` until its own first miss,
//! under its own deadline guard and decrypt scratch; the caller is lane 0.
//! Each token's hits are merged back by counter, keeping the position of a
//! corrupt one, so outcomes, `probes_resolved` and every `ServeStats`
//! counter are the single walk's. The `k − 1` probes the other lanes take
//! past each split list's end are not counted: they are no probe the
//! single walk resolves. On `mem_scan` (≈ 1 000 probes a query) two lanes
//! take the p50 ≈ 20 % down on a 2-vCPU host; a disk-backed index never
//! splits — lanes there cost `disk_hot` p50 +30–45 % and add reads the
//! storage and its fault gate would see. `QueryServer::answer` and the
//! larger batch below stay sequential per token.
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
use crate::server::{GuardedScan, QueryGuard, ResilientServer, ServeIndex, Trip};
use rsse_core::server::{assemble_outcome, ScanScratch};
use rsse_core::{DocId, QueryOutcome};
use rsse_sse::{merge_lanes, ScanCursor, SearchToken, SseScheme, TokenLabeler};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

/// Tuning of the batch executor (every answer of a [`ResilientServer`]).
#[derive(Clone, Debug, Default)]
pub struct BatchConfig {
    /// The most lanes scanning a batch's unique tokens, or splitting a long
    /// batch of one's lists over a memory-resident index: `None` (default)
    /// lets every thread of the global `rayon` pool take part, `Some(n)`
    /// caps them at `n` (the `batch_executor` battery sweeps 1–3; `Some(1)`
    /// keeps every scan on the calling thread). The pool's width caps them
    /// too — lanes run on its parked workers, the calling thread always one
    /// of them — and so does the batch itself, one lane per 8 unique
    /// tokens, so a small batch is scanned inline.
    pub workers: Option<usize>,
}

/// Unique tokens a batch must hold per lane. Handing a lane to the pool
/// costs the caller ≈ 2 µs while a worker polls and ≈ 8 µs when it is
/// parked, and a parked worker starts ≈ 25–65 µs later (2-vCPU VM: its
/// halted vCPU has to be rescheduled). Against units of ≈ 2 µs, two lanes
/// took 1.1× the inline time at 8 units and 0.9× at 16, so a second lane
/// pays from about 8 units each.
const MIN_UNITS_PER_WORKER: usize = 8;

/// Probes a batch of one's walk must have resolved, with a token still
/// live, before the rest of it splits across lanes. A split costs a
/// hand-off (≈ 2 µs while the worker polls) and one probe past each split
/// list's end per extra lane; on `mem_scan` (≈ 1 000 probes a query,
/// ≈ 0.25 µs each) splitting once 128 had resolved took the p50 from
/// ≈ 240 to ≈ 190 µs on a 2-vCPU host, while a query of a few dozen probes
/// never reaches it.
const SPLIT_MIN_PROBES: u64 = 128;

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

/// A batch of one: the query's whole token vector in one guarded scan —
/// split across lanes once it is long, over a memory-resident backend
/// ([`scan_alone`]) — counted as one round per token on one lane.
pub(crate) fn serve_alone<B: ServeIndex>(
    server: &ResilientServer<B>,
    item: &BatchItem<'_>,
) -> Result<QueryOutcome, ServeError> {
    let counters = &server.counters;
    counters.admitted.fetch_add(1, Ordering::Relaxed);
    server.retry.credit_query();
    let tokens = item.tokens;
    let mut per_token: Vec<Vec<DocId>> = Vec::new();
    let lanes = if server.backend.memory_resident() {
        lane_cap(server)
    } else {
        1
    };
    let scan = scan_alone(server, tokens, item.deadline, lanes, &mut per_token);
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

/// The most lanes [`BatchConfig::workers`] and the pool's width allow.
fn lane_cap<B: ServeIndex>(server: &ResilientServer<B>) -> usize {
    server
        .config
        .batch
        .workers
        .unwrap_or(usize::MAX)
        .min(rayon::current_num_threads())
        .max(1)
}

/// One lane of a split batch of one: its hits per token in its own
/// counter order (a corrupt entry as `None`, keeping its position), where
/// it stopped, and its guard's accounting.
struct LaneScan {
    hits: Vec<Vec<Option<DocId>>>,
    cursor: ScanCursor,
    scan: GuardedScan,
}

/// A batch of one's guarded scan, split across `lanes` lanes once it is
/// long. The walk runs on the caller, to its end if `lanes` is 1, or else
/// until [`SPLIT_MIN_PROBES`] probes have
/// resolved; if a token is still live then, lane `i` walks every live
/// token at counters `next + i, next + i + lanes, …` until its own first
/// miss, under its own [`QueryGuard`] and [`ScanScratch`], the caller
/// being lane 0. Each token's hits are then merged back in counter order
/// ([`merge_lanes`]), so the groups, counts and id order are the single
/// walk's, a corrupt entry skipped where it skips it.
///
/// The accounting is the single walk's too: `probes_resolved` counts a
/// split token's merged hits and its first miss, not the misses the other
/// lanes took past its end. A cut lane (a deadline: an in-memory probe
/// cannot fail otherwise) leaves each token the prefix up to the first
/// counter its lane did not reach, and counts the probes the single walk
/// would have resolved for those prefixes; the query is cut only if some
/// token's walk is left unfinished.
fn scan_alone<B: ServeIndex>(
    server: &ResilientServer<B>,
    tokens: &[SearchToken],
    deadline: Option<Duration>,
    lanes: usize,
    per_token: &mut Vec<Vec<DocId>>,
) -> GuardedScan {
    per_token.clear();
    per_token.resize_with(tokens.len(), Vec::new);
    let mut scratch = ScanScratch::default();
    scratch.reset(tokens.len());
    let labelers: Vec<TokenLabeler> = tokens.iter().map(TokenLabeler::new).collect();
    let mut cursor = ScanCursor::start(tokens.len());
    let guard = QueryGuard::new(server, deadline);
    let walked = SseScheme::search_scan_from(
        &guard,
        &labelers,
        &mut cursor,
        |round| scratch.decode_round(tokens, round, per_token),
        |_| lanes > 1 && guard.probes_resolved() >= SPLIT_MIN_PROBES,
    );
    if walked.is_err() || cursor.live().is_empty() {
        return guard.finish(walked.map(|()| cursor.into_counts()));
    }
    let walked = guard.finish(Ok(Vec::new()));

    let lane = |lane: usize, scratch: &mut ScanScratch| {
        let guard = QueryGuard::new(server, deadline);
        let mut hits: Vec<Vec<Option<DocId>>> = vec![Vec::new(); tokens.len()];
        let mut at = cursor.lane(lane, lanes);
        let result = SseScheme::search_scan_from(
            &guard,
            &labelers,
            &mut at,
            |round| scratch.decode_round_with(tokens, round, |t, id| hits[t as usize].push(id)),
            |_| false,
        );
        LaneScan {
            hits,
            scan: guard.finish(result.map(|()| Vec::new())),
            cursor: at,
        }
    };
    let mut scanned: Vec<Option<LaneScan>> = (0..lanes).map(|_| None).collect();
    let (first, rest) = scanned.split_first_mut().expect("two lanes or more");
    rayon::scope(|scope| {
        for (i, slot) in rest.iter_mut().enumerate() {
            let lane = &lane;
            scope.spawn(move |_| {
                let mut scratch = ScanScratch::default();
                scratch.reset(tokens.len());
                *slot = Some(lane(i + 1, &mut scratch));
            });
        }
        // The caller's scratch has keyed the ciphers of every token that
        // has hit so far.
        *first = Some(lane(0, &mut scratch));
    });
    let scanned: Vec<LaneScan> = scanned
        .into_iter()
        .map(|lane| lane.expect("the scope ran every lane"))
        .collect();

    let mut probes_resolved = walked.probes_resolved;
    let mut counts = cursor.counts().to_vec();
    let mut unfinished = false;
    for &t in cursor.live() {
        let group = &mut per_token[t as usize];
        let mut merged = 0usize;
        for id in merge_lanes(lanes, |lane| &scanned[lane].hits[t as usize]) {
            group.extend(*id);
            merged += 1;
        }
        counts[t as usize] += merged;
        // The single walk's first miss, once the lane owning its counter
        // has probed it.
        let missed = !scanned[merged % lanes].cursor.live().contains(&t);
        unfinished |= !missed;
        probes_resolved += merged as u64 + u64::from(missed);
    }
    let mut trip = None;
    let mut faults_absorbed = walked.faults_absorbed;
    for lane in scanned {
        faults_absorbed += lane.scan.faults_absorbed;
        if let Err(lane_trip) = lane.scan.counts {
            trip.get_or_insert(lane_trip);
        }
    }
    let counts = match trip {
        // A lane cut only past the single walk's last probe leaves every
        // group whole: the query is answered, as a batch's fully resolved
        // query is.
        Some(trip) if unfinished => Err(trip),
        _ => Ok(counts),
    };
    GuardedScan {
        counts,
        probes_resolved,
        faults_absorbed,
    }
}

/// Scans every unit once, in parallel across the lanes the batch and the
/// pool support, and returns the results in unit order. Lanes pull units
/// off one shared cursor, so a slow or retried unit delays only the lane
/// holding it; the calling thread is one of the lanes, and scans the rest
/// itself when no worker is free.
fn scan_units<B: ServeIndex>(server: &ResilientServer<B>, units: &[Unit<'_>]) -> Vec<UnitScan> {
    let lanes = lane_cap(server)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{Clock, VirtualClock};
    use crate::server::ServeConfig;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha20Rng;
    use rsse_sse::pibas::reference::build_stored;
    use rsse_sse::{
        CacheStats, CipherSpan, Label, ShardedIndex, SseDatabase, SseKey, StorageConfig,
        StorageError,
    };
    use std::sync::Arc;

    /// A memory-resident index of one keyword per length in `lengths`,
    /// keyword `i`'s entry `j` holding id `1000 i + j` — except the entries
    /// at `corrupt`, `(keyword, position)`, whose 3-byte payload decodes to
    /// no id. Returns one token per keyword, two absent keywords' among them.
    fn corpus(
        lengths: &[usize],
        corrupt: &[(usize, usize)],
        seed: u64,
    ) -> (ShardedIndex, Vec<SearchToken>) {
        let mut rng = ChaCha20Rng::seed_from_u64(seed);
        let key: SseKey = SseScheme::setup(&mut rng);
        let mut db = SseDatabase::new();
        let mut tokens = Vec::new();
        for (i, &len) in lengths.iter().enumerate() {
            let keyword = format!("kw{i}").into_bytes();
            for j in 0..len {
                let payload = if corrupt.contains(&(i, j)) {
                    vec![0xC0; 3]
                } else {
                    ((i * 1000 + j) as u64).to_le_bytes().to_vec()
                };
                db.add(keyword.clone(), payload);
            }
            tokens.push(SseScheme::trapdoor(&key, &keyword));
        }
        tokens.insert(1, SseScheme::trapdoor(&key, b"absent-a"));
        tokens.push(SseScheme::trapdoor(&key, b"absent-b"));
        let index = build_stored(&key, &db, &StorageConfig::in_memory(3), &mut rng).unwrap();
        (index, tokens)
    }

    /// The single guarded walk: its groups and accounting.
    fn single<B: ServeIndex>(
        server: &ResilientServer<B>,
        tokens: &[SearchToken],
        deadline: Option<Duration>,
    ) -> (Vec<Vec<DocId>>, GuardedScan) {
        let mut groups = Vec::new();
        let scan = server.scan_guarded(tokens, deadline, &mut groups, &mut ScanScratch::default());
        (groups, scan)
    }

    #[test]
    fn a_split_scan_is_the_single_walk() {
        let mut rng = ChaCha20Rng::seed_from_u64(50);
        for case in 0..24 {
            let lengths: Vec<usize> = (0..rng.gen_range(1..12))
                .map(|_| match rng.gen_range(0..4) {
                    0 => rng.gen_range(0..4),
                    1 => rng.gen_range(0..40),
                    _ => rng.gen_range(0..400),
                })
                .collect();
            // A corrupt entry inside the longest list, and one more anywhere.
            let longest = (0..lengths.len()).max_by_key(|&i| lengths[i]).unwrap();
            let mut corrupt = Vec::new();
            if lengths[longest] > 0 {
                corrupt.push((longest, rng.gen_range(0..lengths[longest])));
            }
            let other = rng.gen_range(0..lengths.len());
            if lengths[other] > 0 {
                corrupt.push((other, rng.gen_range(0..lengths[other])));
            }
            let (index, tokens) = corpus(&lengths, &corrupt, case);
            let server = ResilientServer::new(index, ServeConfig::default());
            let (want, want_scan) = single(&server, &tokens, None);
            let want_counts = want_scan.counts.as_ref().ok().unwrap();
            for lanes in [2, 3] {
                let mut groups = Vec::new();
                let scan = scan_alone(&server, &tokens, None, lanes, &mut groups);
                let context = format!("case {case}, {lanes} lanes, lengths {lengths:?}");
                assert_eq!(groups, want, "{context}: groups");
                assert_eq!(scan.counts.as_ref().ok(), Some(want_counts), "{context}");
                assert_eq!(scan.probes_resolved, want_scan.probes_resolved, "{context}");
                assert_eq!(scan.faults_absorbed, 0, "{context}");
            }
        }
    }

    /// A memory-resident backend on which every probe takes 1 µs of a
    /// virtual clock.
    struct Ticking {
        index: ShardedIndex,
        clock: Arc<VirtualClock>,
    }

    impl ServeIndex for Ticking {
        fn probe(&self, label: &Label) -> Result<Option<CipherSpan<'_>>, StorageError> {
            self.clock.advance(Duration::from_micros(1));
            self.index.probe(label)
        }
        fn shard_of(&self, label: &Label) -> u32 {
            ServeIndex::shard_of(&self.index, label)
        }
        fn shard_count(&self) -> usize {
            ServeIndex::shard_count(&self.index)
        }
        fn cache_stats(&self) -> CacheStats {
            ServeIndex::cache_stats(&self.index)
        }
        fn memory_resident(&self) -> bool {
            self.index.memory_resident()
        }
    }

    #[test]
    fn a_deadline_cuts_every_split_group_to_a_prefix() {
        let lengths = [300, 5, 0, 180, 250, 40];
        let (index, tokens) = corpus(&lengths, &[(0, 200), (4, 3)], 51);
        let clock = Arc::new(VirtualClock::new());
        let ticking = Ticking {
            index,
            clock: Arc::clone(&clock),
        };
        let server = ResilientServer::with_clock(ticking, ServeConfig::default(), clock.clone());
        let (full, full_scan) = single(&server, &tokens, None);
        let total = full_scan.probes_resolved;
        let mut cut = 0;
        for lanes in [2, 3] {
            for budget in (0..total + 40).step_by(7) {
                let deadline = clock.now() + Duration::from_micros(budget);
                let mut groups = Vec::new();
                let scan = scan_alone(&server, &tokens, Some(deadline), lanes, &mut groups);
                let context = format!("{lanes} lanes, {budget} µs");
                for (t, group) in groups.iter().enumerate() {
                    assert!(full[t].starts_with(group), "{context}: token {t}");
                }
                let ids: u64 = groups.iter().map(|group| group.len() as u64).sum();
                match scan.counts {
                    Ok(counts) => {
                        assert_eq!(groups, full, "{context}");
                        assert_eq!(Some(&counts), full_scan.counts.as_ref().ok());
                        assert_eq!(scan.probes_resolved, total, "{context}");
                    }
                    Err(Trip::Deadline { deadline: at }) => {
                        cut += 1;
                        assert_eq!(at, deadline, "{context}");
                        assert!(ids <= scan.probes_resolved, "{context}");
                        assert!(scan.probes_resolved < total, "{context}");
                    }
                    Err(_) => panic!("{context}: an in-memory probe cannot fail"),
                }
            }
        }
        assert!(cut > 0, "some deadline cuts a query");
    }
}
