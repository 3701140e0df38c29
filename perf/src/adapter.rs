//! The one file that names the system under test.
//!
//! Every call the harness makes into the repository's crates goes through a
//! function here, so a later change of an entry point is a change of this
//! file only. The harness measures each layer from outside, by timing these
//! calls; nothing in the crates is edited or instrumented.
//!
//! Entry points used, by layer:
//!
//! | layer     | entry point                                                        |
//! |-----------|--------------------------------------------------------------------|
//! | workload  | `gowalla_like`, `random_queries_of_len`, `TraceSpec`, `insert_batches` |
//! | cover     | `rsse_cover::brc`                                                  |
//! | core      | `RangeScheme::build_stored`, `LogScheme::trapdoor`, `QueryServer::{answer, open_dir_with_budget}`, `assemble_outcome` |
//! | sse       | `SseScheme::search_count`, `TokenLabeler::{new, label_at}`, `ShardedIndex::{try_get_many, cache_stats, read_errors}` |
//! | crypto    | `SearchToken::payload_cipher`, `StreamCipher::decrypt_into`, `{encrypt,decrypt}_call_count` |
//! | serve     | `ResilientServer::{new, answer, answer_batch, stats}`              |
//! | updates   | `UpdateManager::{with_key, try_ingest_batch, try_query, ground_truth, open_root}` |

use rand::{CryptoRng, RngCore};
use rsse_core::schemes::log_brc_urc::LogScheme;
use rsse_core::server::assemble_outcome;
use rsse_core::{QueryServer, RangeScheme, StorageConfig};
use rsse_crypto::StreamCipher;
use rsse_serve::{ResilientServer, ServeConfig};
use rsse_sse::{CipherSpan, IndexLookup, Label, SearchToken, SseScheme, TokenLabeler};
use rsse_updates::{UpdateConfig, UpdateEntry, UpdateManager};
use rsse_workload::{ArrivalProcess, EventKind, TraceSpec};
use std::path::Path;
use std::time::Duration;

pub use rsse_core::{Dataset, DocId, QueryOutcome};
pub use rsse_cover::{Domain, Range};
pub use rsse_updates::OwnerKey;

/// One query's trapdoor: a token per covering node.
pub type Tokens = Vec<SearchToken>;
/// The owner-side state of the static workloads.
pub type Client = LogScheme;
/// The serving endpoint of the static workloads.
pub type Server = ResilientServer<QueryServer>;
/// The durable update manager of `updates_mixed`.
pub type Manager = UpdateManager<LogScheme>;
/// One ingest batch.
pub type Batch = Vec<UpdateEntry>;

/// The scheme every workload runs, as the paper names it.
pub const SCHEME: &str = "Logarithmic-BRC";
/// Bytes of one dictionary label; an index's ciphertext region is its
/// storage bytes minus one label per entry.
pub const LABEL_BYTES: usize = std::mem::size_of::<Label>();

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

// ---------------------------------------------------------------- workload

/// The attribute domain of every workload: 2^20 values.
pub fn domain() -> Domain {
    Domain::new(1 << 20)
}

/// A Gowalla-like dataset of `n` records (near-uniform, ~95 % distinct).
pub fn gen_dataset<R: RngCore>(n: usize, rng: &mut R) -> Dataset {
    rsse_workload::gowalla_like(n, domain().size(), rng)
}

/// `(value, id)` of every record, for the plaintext oracle.
pub fn dataset_pairs(dataset: &Dataset) -> Vec<(u64, DocId)> {
    dataset.records().iter().map(|r| (r.value, r.id)).collect()
}

/// `count` uniformly placed ranges of exactly `len` values.
pub fn uniform_ranges<R: RngCore>(len: u64, count: usize, rng: &mut R) -> Vec<Range> {
    rsse_workload::random_queries_of_len(&domain(), len, count, rng)
}

/// `count` tenant-style hot ranges: 8 tenants, 8 Zipf hotspots at skew 0.9,
/// ranges of 0.1 % of the domain, jittered around their hotspot.
pub fn hotspot_ranges<R: RngCore>(count: usize, rng: &mut R) -> Vec<Range> {
    let domain = domain();
    let spec = TraceSpec {
        tenants: 8,
        range_len: domain.size() / 1000,
        ..TraceSpec::queries_only(
            domain,
            // Arrival times are not used (the load is a closed loop); the
            // process only decides how many events the trace holds.
            ArrivalProcess::Poisson {
                rate_per_sec: 2.0 * count as f64,
            },
            Duration::from_secs(1),
        )
    };
    let mut ranges = Vec::with_capacity(count);
    while ranges.len() < count {
        let trace = spec.generate(rng);
        ranges.extend(trace.events.into_iter().filter_map(|e| match e.kind {
            EventKind::Query(range) => Some(range),
            EventKind::InsertBatch(_) => None,
        }));
    }
    ranges.truncate(count);
    ranges
}

/// `batches` insert batches of `size` fresh records, ids from 0.
pub fn gen_batches<R: RngCore>(batches: usize, size: usize, rng: &mut R) -> Vec<Batch> {
    rsse_workload::insert_batches(&domain(), batches, size, 0, rng)
}

/// `(value, id)` of every entry of a batch, for the plaintext oracle.
pub fn batch_pairs(batch: &Batch) -> Vec<(u64, DocId)> {
    batch
        .iter()
        .map(|e| (e.record.value, e.record.id))
        .collect()
}

// ------------------------------------------------------------ build / open

/// Shard bits of the static workloads.
pub const STATIC_SHARD_BITS: u32 = 4;
/// Shard bits of the update manager.
pub const UPDATES_SHARD_BITS: u32 = 2;

/// What a build reports about the index it made.
#[derive(Clone, Copy, Debug)]
pub struct IndexSize {
    pub entries: usize,
    pub storage_bytes: usize,
}

fn index_size(server: &<LogScheme as RangeScheme>::Server) -> IndexSize {
    let stats = LogScheme::index_stats(server);
    IndexSize {
        entries: stats.entries,
        storage_bytes: stats.storage_bytes,
    }
}

fn serve(server: QueryServer) -> Server {
    ResilientServer::new(server, ServeConfig::default())
}

/// BuildIndex into in-memory arenas, wrapped in the serve plane.
pub fn build_in_memory<R: RngCore + CryptoRng>(
    dataset: &Dataset,
    rng: &mut R,
) -> Result<(Client, Server, IndexSize), String> {
    let config = StorageConfig::in_memory(STATIC_SHARD_BITS);
    let (client, server) = LogScheme::build_stored(dataset, &config, rng).map_err(err)?;
    let size = index_size(&server);
    Ok((client, serve(server.into_query_server()), size))
}

/// BuildIndex streamed to shard files under `dir`; the built server is
/// dropped, so nothing of the index stays in memory.
pub fn build_on_disk<R: RngCore + CryptoRng>(
    dataset: &Dataset,
    dir: &Path,
    rng: &mut R,
) -> Result<(Client, IndexSize), String> {
    let config = StorageConfig::on_disk(STATIC_SHARD_BITS, dir);
    let (client, server) = LogScheme::build_stored(dataset, &config, rng).map_err(err)?;
    Ok((client, index_size(&server)))
}

/// Cold-opens the index under `dir` behind a block cache of `budget` bytes.
pub fn open_on_disk(dir: &Path, budget: usize) -> Result<Server, String> {
    QueryServer::open_dir_with_budget(dir, Some(budget))
        .map(serve)
        .map_err(err)
}

// ------------------------------------------------------------- query path

/// `Trpdr`: the owner's tokens for `range` (always inside the domain here).
pub fn trapdoor(client: &Client, range: Range) -> Tokens {
    client
        .trapdoor(range)
        .expect("workload ranges lie inside the domain")
}

/// One query through the serve plane.
pub fn answer(server: &Server, tokens: &[SearchToken]) -> Result<QueryOutcome, String> {
    server.answer(tokens).map_err(err)
}

/// The same query through the raw `QueryServer`, below the serve plane.
pub fn answer_core(server: &Server, tokens: &[SearchToken]) -> Result<QueryOutcome, String> {
    server.backend().answer(tokens).map_err(err)
}

/// One round of queries through the batch executor.
pub fn answer_batch(server: &Server, round: &[Tokens]) -> Vec<Result<QueryOutcome, String>> {
    server
        .answer_batch(round)
        .into_iter()
        .map(|outcome| outcome.map_err(err))
        .collect()
}

/// Number of BRC covering nodes of `range`.
pub fn cover_nodes(range: Range) -> usize {
    rsse_cover::brc(&domain(), range).len()
}

// ------------------------------------------------------- staged replay

/// Entries stored under each token: the counter scan without decryption.
pub fn token_counts(server: &Server, tokens: &[SearchToken]) -> Result<Vec<usize>, String> {
    let index = server.backend().index();
    tokens
        .iter()
        .map(|token| SseScheme::search_count(index, token).map_err(err))
        .collect()
}

/// Stage `labeler_init`: one cached label-PRF key schedule per token.
pub fn labelers(tokens: &[SearchToken]) -> Vec<TokenLabeler> {
    tokens.iter().map(TokenLabeler::new).collect()
}

/// Stage `cipher_init`: one payload cipher per token.
pub fn ciphers(tokens: &[SearchToken]) -> Vec<StreamCipher> {
    tokens.iter().map(SearchToken::payload_cipher).collect()
}

/// The probes of one query in the order the lock-step scan issues them.
#[derive(Default)]
pub struct ProbePlan {
    /// Every label probed, round by round.
    pub labels: Vec<Label>,
    /// The token each label belongs to.
    pub owners: Vec<u32>,
    /// End offset of each counter round within `labels`.
    pub round_ends: Vec<usize>,
}

/// Stage `label`: expands every token's labels for counters `0..=count`
/// (the last one is the miss that ends its scan), in lock-step round order.
pub fn plan_probes(labelers: &[TokenLabeler], counts: &[usize], plan: &mut ProbePlan) {
    plan.labels.clear();
    plan.owners.clear();
    plan.round_ends.clear();
    let rounds = counts.iter().max().map_or(0, |&max| max + 1);
    for counter in 0..rounds {
        for (t, labeler) in labelers.iter().enumerate() {
            if counts[t] >= counter {
                plan.labels.push(labeler.label_at(counter as u64));
                plan.owners.push(t as u32);
            }
        }
        plan.round_ends.push(plan.labels.len());
    }
}

/// Stage `probe`: resolves the plan round by round, as the scan does.
pub fn probe<'a>(
    server: &'a Server,
    plan: &ProbePlan,
    hits: &mut Vec<Option<CipherSpan<'a>>>,
) -> Result<(), String> {
    let index = server.backend().index();
    hits.clear();
    let mut round: Vec<Option<CipherSpan<'a>>> = Vec::new();
    let mut start = 0;
    for &end in &plan.round_ends {
        index
            .try_get_many(&plan.labels[start..end], &mut round)
            .map_err(err)?;
        hits.append(&mut round);
        start = end;
    }
    Ok(())
}

/// Stage `decrypt`: decrypts every hit with its token's cipher and decodes
/// the 8-byte little-endian tuple id. Returns the ids grouped by token.
pub fn decrypt(
    ciphers: &[StreamCipher],
    plan: &ProbePlan,
    hits: &[Option<CipherSpan<'_>>],
) -> Vec<Vec<DocId>> {
    let mut per_token: Vec<Vec<DocId>> = vec![Vec::new(); ciphers.len()];
    let mut plaintext = Vec::new();
    for (hit, &owner) in hits.iter().zip(&plan.owners) {
        let Some(ciphertext) = hit else { continue };
        if ciphers[owner as usize].decrypt_into(ciphertext, &mut plaintext) {
            if let Ok(bytes) = <[u8; 8]>::try_from(plaintext.as_slice()) {
                per_token[owner as usize].push(DocId::from_le_bytes(bytes));
            }
        }
    }
    per_token
}

/// Stage `assemble`: flattens the groups into the outcome `answer` returns.
pub fn assemble(
    tokens: &[SearchToken],
    per_token: Vec<Vec<DocId>>,
    counts: &[usize],
) -> QueryOutcome {
    assemble_outcome(tokens, per_token, counts)
}

// ---------------------------------------------------------------- counters

/// Block-cache and storage counters of the served index, since open.
#[derive(Clone, Copy, Debug, Default)]
pub struct StorageCounters {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub resident_bytes: u64,
    pub read_errors: u64,
}

pub fn storage_counters(server: &Server) -> StorageCounters {
    let index = server.backend().index();
    let cache = index.cache_stats();
    StorageCounters {
        hits: cache.hits,
        misses: cache.misses,
        evictions: cache.evictions,
        resident_bytes: cache.resident_bytes as u64,
        read_errors: index.read_errors(),
    }
}

/// Serve-plane counters, since the server was made.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServeCounters {
    pub shed: u64,
    pub retries: u64,
    pub deadline_expired: u64,
    pub breaker_opened: u64,
    pub batch_probes_demanded: u64,
    pub batch_probes_unique: u64,
    pub batch_max_lane_depth: u64,
}

pub fn serve_counters(server: &Server) -> ServeCounters {
    let stats = server.stats();
    ServeCounters {
        shed: stats.shed_tenant_full + stats.shed_global_full + stats.shed_pressure,
        retries: stats.retries,
        deadline_expired: stats.deadline_expired,
        breaker_opened: stats.breaker_opened,
        batch_probes_demanded: stats.batch_probes_demanded,
        batch_probes_unique: stats.batch_probes_unique,
        batch_max_lane_depth: stats.batch_max_lane_depth,
    }
}

/// Process-wide `(encrypt, decrypt)` cipher call counts.
pub fn cipher_calls() -> (u64, u64) {
    (
        rsse_crypto::encrypt_call_count(),
        rsse_crypto::decrypt_call_count(),
    )
}

// ----------------------------------------------------------------- updates

/// The owner master key of a manager, drawn from `rng`.
pub fn owner_key<R: RngCore + CryptoRng>(rng: &mut R) -> OwnerKey {
    OwnerKey::generate(rng)
}

/// `UpdateConfig::default()` except the storage root and the shard bits,
/// so a later change of a default shows in the numbers.
fn update_config(root: &Path) -> UpdateConfig {
    UpdateConfig {
        storage_root: Some(root.to_path_buf()),
        shard_bits: UPDATES_SHARD_BITS,
        ..UpdateConfig::default()
    }
}

/// An empty durable manager persisting under `root`.
pub fn new_manager(key: &OwnerKey, root: &Path) -> Manager {
    UpdateManager::with_key(key.clone(), domain(), update_config(root))
}

/// Reopens a manager from its storage root alone.
pub fn open_manager(key: &OwnerKey, root: &Path) -> Result<Manager, String> {
    UpdateManager::open_root(key.clone(), root, update_config(root)).map_err(err)
}

pub fn ingest<R: RngCore + CryptoRng>(
    manager: &mut Manager,
    batch: Batch,
    rng: &mut R,
) -> Result<(), String> {
    manager.try_ingest_batch(batch, rng).map_err(err)
}

pub fn manager_query(manager: &Manager, range: Range) -> Result<QueryOutcome, String> {
    manager.try_query(range).map_err(err)
}

/// What a trusted database would answer, from the manager's own logs.
pub fn manager_truth(manager: &Manager, range: Range) -> Vec<DocId> {
    manager.ground_truth(range)
}

/// Manager counters, since it was made or reopened.
#[derive(Clone, Copy, Debug, Default)]
pub struct ManagerCounters {
    pub instances: u64,
    pub consolidations: u64,
    pub rebuild_consolidations: u64,
    pub structural_consolidations: u64,
    pub entries: u64,
    pub storage_bytes: u64,
}

pub fn manager_counters(manager: &Manager) -> ManagerCounters {
    let stats = manager.index_stats();
    ManagerCounters {
        instances: manager.active_instances() as u64,
        consolidations: manager.consolidations() as u64,
        rebuild_consolidations: manager.rebuild_consolidations() as u64,
        structural_consolidations: manager.structural_consolidations() as u64,
        entries: stats.entries as u64,
        storage_bytes: stats.storage_bytes as u64,
    }
}
