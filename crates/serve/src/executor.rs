//! The shard-affine batch executor: cross-query probe deduplication with
//! per-shard worker lanes.
//!
//! Serving one query already runs a lockstep counter scan (all of the
//! query's tokens advance one counter round at a time — see
//! `rsse_sse::SseScheme::search_batch_scan`). This module lifts the same
//! lockstep **across queries**: a whole batch advances round by round, and
//! each round is executed scatter/gather:
//!
//! 1. **Expand** — every live `(query, token)` pair derives its round label
//!    through the cached [`TokenLabeler`] (label expansion split from
//!    probing, so planning never touches storage).
//! 2. **Dedupe** — identical labels across the batch collapse into one
//!    entry of a shared probe table. Trapdoors are deterministic — two
//!    queries covering the same node carry byte-equal tokens, whose label
//!    sequences coincide counter-for-counter — so a shared probe's result
//!    is exactly what each demander's own probe would have returned.
//! 3. **Scatter** — the unique probes are grouped by shard into lanes, one
//!    worker task per shard lane. Each lane probes sequentially (its
//!    `FileShard` block reads stay clustered), lanes run in parallel, so
//!    one slow block stalls only its shard's lane, never the whole round.
//! 4. **Gather** — demanders read their probes' shared results: hits are
//!    decrypted per query with that query's own payload cipher (dedup
//!    shares storage reads, never plaintext across keys), misses retire
//!    the token, exactly as in the sequential scan.
//!
//! ## Control plane
//!
//! The resilience machinery threads through at per-probe granularity — the
//! same `probe_guarded` loop the sequential `QueryGuard` of
//! [`server`](crate::server) runs:
//!
//! * **Deadlines** are checked at round boundaries. An expired query is cut
//!   with a typed partial outcome and simply stops demanding; probes it
//!   shared with still-live queries proceed — cutting one query never
//!   cancels work another query needs.
//! * **Breakers** gate every unique probe at its shard; a fail-fast trips
//!   every query demanding that probe (each gets its own typed error).
//! * **Retries** run per unique probe under the server-wide budget with the
//!   same seeded backoff; a transiently faulty block is re-read once for
//!   the whole batch, not once per demander.
//!
//! ## Leakage
//!
//! Within-batch dedup is leakage-free: which probes coincide is the search
//! pattern, which the server already learns from the deterministic tokens
//! themselves (see the `rsse_sse::leakage` module). The executor reveals
//! its savings only through counters the server operator already holds.
//! Per-query accounting is unchanged — a query's `probes_resolved` counts
//! its *demanded* probes whether or not storage was read, so outcomes and
//! the per-query leakage profile are byte-identical to sequential serving.

use crate::error::{PartialOutcome, ServeError};
use crate::server::{ResilientServer, ServeIndex, Trip};
use rsse_core::server::{assemble_outcome, decode_hit_into};
use rsse_core::{DocId, QueryOutcome};
use rsse_crypto::StreamCipher;
use rsse_sse::{CipherSpan, Label, LabelHasher, SearchToken, TokenLabeler};
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// Tuning of the batch executor
/// ([`ResilientServer::answer_batch`] / [`drain_batched`]).
///
/// [`drain_batched`]: ResilientServer::drain_batched
#[derive(Clone, Debug)]
pub struct BatchConfig {
    /// Dedupe identical probes across the batch (default `true`). Off,
    /// every demanded probe is issued to storage individually — the lanes
    /// and control plane still apply, which makes this the control knob
    /// for measuring what dedup alone buys.
    pub dedup: bool,
    /// Worker threads per round for the shard lanes: `None` (default) uses
    /// the machine's available parallelism, `Some(n)` pins exactly `n`
    /// (the CI bench worker sweep pins 1/2/4). Always capped at the number
    /// of lanes in the round; `1` resolves lanes sequentially inline.
    pub workers: Option<usize>,
}

impl Default for BatchConfig {
    fn default() -> Self {
        Self {
            dedup: true,
            workers: None,
        }
    }
}

/// One admitted query entering [`execute_batch`]: its tokens plus the
/// admission instant and absolute deadline its round checks run against.
pub(crate) struct BatchItem<'a> {
    pub(crate) tokens: &'a [SearchToken],
    pub(crate) admitted_at: Duration,
    pub(crate) deadline: Option<Duration>,
}

/// One query's in-flight state across counter rounds.
struct QueryRun<'a> {
    tokens: &'a [SearchToken],
    admitted_at: Duration,
    deadline: Option<Duration>,
    /// Cached label-PRF schedules, one per token.
    labelers: Vec<TokenLabeler>,
    /// This query's payload ciphers — decryption is always per query.
    ciphers: Vec<StreamCipher>,
    /// Ids decoded so far, grouped by token in token order.
    per_token: Vec<Vec<DocId>>,
    /// Per-token hit counts (the outcome's `entries_touched` accounting).
    counts: Vec<usize>,
    /// Tokens still scanning, in token order.
    live: Vec<u32>,
    /// Tokens that hit this round (becomes `live` at the round's end).
    next_live: Vec<u32>,
    /// Probes this query demanded and saw resolved (hits *and* misses) —
    /// the sequential guard's count, independent of dedup.
    probes_resolved: u64,
    /// Set once the query is finished (completed or tripped).
    result: Option<Result<QueryOutcome, ServeError>>,
}

impl QueryRun<'_> {
    /// The typed error of a trip that stopped this query (counted by the
    /// server); a deadline trip takes the ids decoded so far as its typed
    /// partial outcome.
    fn trip<B: ServeIndex>(&mut self, server: &ResilientServer<B>, trip: Trip) -> ServeError {
        server.trip_error(trip, self.admitted_at, || PartialOutcome {
            ids: std::mem::take(&mut self.per_token)
                .into_iter()
                .flatten()
                .collect(),
            probes_resolved: self.probes_resolved,
            tokens_total: self.tokens.len(),
        })
    }
}

/// What one guarded unique probe produced for the round: the resolved
/// label (`Some` ciphertext or a miss — transient faults were retried away
/// inside [`ResilientServer::probe_guarded`]), or the trip every demander
/// fails with (breaker fail-fast or retries exhausted).
type RoundProbe<'a> = Result<Option<CipherSpan<'a>>, Trip>;

/// Runs one batch to completion. Outcomes are in item order and
/// byte-identical to serving each item alone through the guarded
/// sequential path (pinned by the `batch_executor` test battery).
pub(crate) fn execute_batch<'a, B: ServeIndex>(
    server: &ResilientServer<B>,
    items: Vec<BatchItem<'a>>,
) -> Vec<Result<QueryOutcome, ServeError>> {
    if items.is_empty() {
        return Vec::new();
    }
    server
        .counters
        .admitted
        .fetch_add(items.len() as u64, Ordering::Relaxed);
    let mut runs: Vec<QueryRun<'a>> = items
        .into_iter()
        .map(|item| {
            server.retry.credit_query();
            QueryRun {
                labelers: item.tokens.iter().map(TokenLabeler::new).collect(),
                ciphers: item
                    .tokens
                    .iter()
                    .map(SearchToken::payload_cipher)
                    .collect(),
                per_token: (0..item.tokens.len()).map(|_| Vec::new()).collect(),
                counts: vec![0usize; item.tokens.len()],
                live: (0..item.tokens.len() as u32).collect(),
                next_live: Vec::with_capacity(item.tokens.len()),
                probes_resolved: 0,
                result: None,
                tokens: item.tokens,
                admitted_at: item.admitted_at,
                deadline: item.deadline,
            }
        })
        .collect();

    let dedup = server.config.batch.dedup;
    // The shared probe table: label → index into this round's unique
    // probes. Labels are PRF outputs, so the trivial label hasher is an
    // ideal hash here just as in the dictionary itself.
    let mut table: HashMap<Label, u32, BuildHasherDefault<LabelHasher>> = HashMap::default();
    // Unique probes of the round, in first-demand order: (label, shard).
    let mut probes: Vec<(Label, u32)> = Vec::new();
    // (query, token, probe) demands of the round, in (query, token) order.
    let mut demands: Vec<(u32, u32, u32)> = Vec::new();
    // One decrypt buffer reused across every query of the batch.
    let mut plaintext: Vec<u8> = Vec::new();
    let mut counter = 0u64;

    loop {
        // Finish queries with nothing left to scan (empty token vectors
        // complete here on round 0).
        for run in runs.iter_mut() {
            if run.result.is_none() && run.live.is_empty() {
                server.counters.served_ok.fetch_add(1, Ordering::Relaxed);
                let per_token = std::mem::take(&mut run.per_token);
                run.result = Some(Ok(assemble_outcome(run.tokens, per_token, &run.counts)));
            }
        }

        // Expand + dedupe this round's demands.
        table.clear();
        probes.clear();
        demands.clear();
        for (q, run) in runs.iter_mut().enumerate() {
            if run.result.is_some() {
                continue;
            }
            if let Some(deadline) = run.deadline {
                if server.clock.now() >= deadline {
                    run.result = Some(Err(run.trip(server, Trip::Deadline { deadline })));
                    continue;
                }
            }
            for &t in &run.live {
                let label = run.labelers[t as usize].label_at(counter);
                let probe = if dedup {
                    *table.entry(label).or_insert_with(|| {
                        let shard = server.backend.shard_of(&label);
                        probes.push((label, shard));
                        (probes.len() - 1) as u32
                    })
                } else {
                    let shard = server.backend.shard_of(&label);
                    probes.push((label, shard));
                    (probes.len() - 1) as u32
                };
                demands.push((q as u32, t, probe));
            }
        }
        if demands.is_empty() {
            break;
        }
        let c = &server.counters;
        c.batch_rounds.fetch_add(1, Ordering::Relaxed);
        c.batch_probes_demanded
            .fetch_add(demands.len() as u64, Ordering::Relaxed);
        c.batch_probes_unique
            .fetch_add(probes.len() as u64, Ordering::Relaxed);

        // Scatter: group unique probes into shard lanes and run them.
        let resolved = run_lanes(server, &probes);

        // Gather: demanders consume their probes' shared results, in
        // (query, token) order — identical to each query's own scan order.
        for run in runs.iter_mut() {
            run.next_live.clear();
        }
        for &(q, t, p) in &demands {
            let run = &mut runs[q as usize];
            if run.result.is_some() {
                // Tripped earlier this round (an earlier token's probe
                // failed); its remaining demands are moot.
                continue;
            }
            match &resolved[p as usize] {
                Ok(span) => {
                    run.probes_resolved += 1;
                    server
                        .counters
                        .probes_resolved
                        .fetch_add(1, Ordering::Relaxed);
                    // A `None` span is the token's first miss: it retires.
                    if let Some(ciphertext) = span {
                        if let Some(id) =
                            decode_hit_into(&run.ciphers[t as usize], ciphertext, &mut plaintext)
                        {
                            run.per_token[t as usize].push(id);
                        }
                        run.counts[t as usize] += 1;
                        run.next_live.push(t);
                    }
                }
                Err(trip) => run.result = Some(Err(run.trip(server, trip.fan_out()))),
            }
        }
        for run in runs.iter_mut() {
            if run.result.is_none() {
                std::mem::swap(&mut run.live, &mut run.next_live);
            }
        }
        counter += 1;
    }

    runs.into_iter()
        .map(|run| run.result.expect("every batch query resolves"))
        .collect()
}

/// Groups the round's unique probes by shard and resolves each lane
/// sequentially, lanes in parallel across the configured worker count
/// ([`BatchConfig::workers`], defaulting to the machine's parallelism).
/// Workers pull whole lanes from a shared cursor — shard affinity: a lane's
/// block reads stay clustered on one worker, and a slow block delays only
/// the lanes behind it on that worker, never the other workers' lanes.
/// Returns the probes' results in probe order.
fn run_lanes<'a, B: ServeIndex>(
    server: &'a ResilientServer<B>,
    probes: &[(Label, u32)],
) -> Vec<RoundProbe<'a>> {
    // Stable shard grouping: sort probe indices by (shard, index) so each
    // lane keeps first-demand order and the layout is deterministic.
    let mut order: Vec<u32> = (0..probes.len() as u32).collect();
    order.sort_unstable_by_key(|&p| (probes[p as usize].1, p));
    let mut lanes: Vec<&[u32]> = Vec::new();
    let mut start = 0usize;
    for end in 1..=order.len() {
        if end == order.len() || probes[order[end] as usize].1 != probes[order[start] as usize].1 {
            lanes.push(&order[start..end]);
            start = end;
        }
    }
    let deepest = lanes.iter().map(|lane| lane.len()).max().unwrap_or(0) as u64;
    server
        .counters
        .batch_max_lane_depth
        .fetch_max(deepest, Ordering::Relaxed);

    let probe_lane = |lane: &[u32], out: &mut Vec<(u32, RoundProbe<'a>)>| {
        for &p in lane {
            let (label, shard) = &probes[p as usize];
            let probed = server.probe_guarded(*shard, label).map(|(span, absorbed)| {
                let absorbed = u64::from(absorbed);
                server
                    .counters
                    .faults_absorbed
                    .fetch_add(absorbed, Ordering::Relaxed);
                span
            });
            out.push((p, probed));
        }
    };

    let workers = server
        .config
        .batch
        .workers
        .unwrap_or_else(rayon::current_num_threads)
        .max(1)
        .min(lanes.len().max(1));
    let mut tagged: Vec<(u32, RoundProbe<'a>)> = Vec::with_capacity(probes.len());
    if workers <= 1 || lanes.len() <= 1 {
        for lane in &lanes {
            probe_lane(lane, &mut tagged);
        }
    } else {
        let cursor = AtomicUsize::new(0);
        let collected = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let cursor = &cursor;
                    let lanes = &lanes;
                    let probe_lane = &probe_lane;
                    scope.spawn(move || {
                        let mut out: Vec<(u32, RoundProbe<'a>)> = Vec::new();
                        loop {
                            let lane = cursor.fetch_add(1, Ordering::Relaxed);
                            if lane >= lanes.len() {
                                break;
                            }
                            probe_lane(lanes[lane], &mut out);
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|handle| handle.join().expect("shard-lane worker panicked"))
                .collect::<Vec<_>>()
        });
        tagged = collected;
    }

    let mut resolved: Vec<Option<RoundProbe<'a>>> = (0..probes.len()).map(|_| None).collect();
    for (p, outcome) in tagged {
        resolved[p as usize] = Some(outcome);
    }
    resolved
        .into_iter()
        .map(|slot| slot.expect("every lane probe reports"))
        .collect()
}
