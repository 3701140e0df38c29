//! `workload_replay` — the trace-driven open-loop replay harness, packaged
//! as a standalone binary (independent of `cargo bench`).
//!
//! ```sh
//! cargo run -p rsse-bench --release --bin workload_replay -- --out BENCH_pr8.json
//! cargo run -p rsse-bench --release --bin workload_replay -- --smoke
//! ```
//!
//! Three scenarios, each replayed on an **in-memory** and a **budgeted
//! on-disk** backend:
//!
//! * `steady_zipf`   — Poisson arrivals, Zipf-hotspot 1% range queries
//!   through the full resilient serving stack;
//! * `burst_storm`   — calm base load with periodic storm windows at many
//!   times the base rate, same query population;
//! * `mixed_updates` — diurnal arrivals mixing Zipf queries with insert
//!   batches through the `UpdateManager` (single-writer, so inserts
//!   serialize against concurrent reads).
//!
//! Every replay is open-loop: send times come from the trace, late events
//! fire immediately and their lag counts toward latency (coordinated
//! omission correction). The trace for a given `--seed` is byte-identical
//! across runs and machines — each scenario reports its trace digest as
//! evidence. The durable mixed scenario additionally measures **cold
//! start**: `UpdateManager::open_root` on the replayed state through the
//! first query served.
//!
//! Exits non-zero if any scenario records an unexpected error (target-level
//! failures or failed insert batches); shed / partial / breaker outcomes
//! are expected degraded modes, not errors.

use rand::SeedableRng;
use rand_chacha::ChaCha20Rng;
use rsse_core::schemes::log_brc_urc::LogScheme;
use rsse_core::{QueryServer, RangeScheme, StorageConfig};
use rsse_cover::{Domain, Range};
use rsse_serve::BatchConfig;
use rsse_serve::{ResilientServer, RetryConfig, RetryPolicy, ServeConfig};
use rsse_updates::{OwnerKey, UpdateConfig, UpdateManager};
use rsse_workload::{
    gowalla_like, insert_batches, replay, ArrivalProcess, EventKind, LatencyHistogram,
    ManagedTarget, ReplayConfig, ReplayReport, ResilientTarget, Trace, TraceSpec,
};
use std::time::{Duration, Instant};

const USAGE: &str = "\
usage: workload_replay [OPTIONS]

options:
  --seed N        trace RNG seed (default 7)
  --records N     dataset size for the query scenarios (default 50000)
  --horizon-ms N  trace length in virtual milliseconds (default 2000)
  --time-scale F  replay compression: 2.0 = twice as fast as the trace says
                  (default 1.0)
  --workers N     replay worker threads (default: available parallelism)
  --out PATH      where to write the JSON report (default BENCH_pr8.json)
  --smoke         CI-sized run: --records 5000 --horizon-ms 500
                  --time-scale 4 unless given explicitly
";

struct Opts {
    seed: u64,
    records: usize,
    horizon: Duration,
    time_scale: f64,
    workers: usize,
    out: String,
}

fn parse_opts() -> Opts {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut seed = None;
    let mut records = None;
    let mut horizon_ms = None;
    let mut time_scale = None;
    let mut workers = None;
    let mut out = None;
    let mut smoke = false;

    let mut iter = args.iter();
    let value = |iter: &mut std::slice::Iter<String>, flag: &str| -> String {
        iter.next().cloned().unwrap_or_else(|| {
            eprintln!("{flag} needs a value\n{USAGE}");
            std::process::exit(2);
        })
    };
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--seed" => seed = Some(parse_num(&value(&mut iter, "--seed"), "--seed")),
            "--records" => {
                records = Some(parse_num(&value(&mut iter, "--records"), "--records") as usize)
            }
            "--horizon-ms" => {
                horizon_ms = Some(parse_num(&value(&mut iter, "--horizon-ms"), "--horizon-ms"))
            }
            "--time-scale" => {
                let raw = value(&mut iter, "--time-scale");
                let parsed: f64 = raw.parse().unwrap_or_else(|_| {
                    eprintln!("--time-scale: bad value '{raw}'\n{USAGE}");
                    std::process::exit(2);
                });
                time_scale = Some(parsed);
            }
            "--workers" => {
                workers = Some(parse_num(&value(&mut iter, "--workers"), "--workers") as usize)
            }
            "--out" => out = Some(value(&mut iter, "--out")),
            "--smoke" => smoke = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument '{other}'\n{USAGE}");
                std::process::exit(2);
            }
        }
    }

    Opts {
        seed: seed.unwrap_or(7),
        records: records.unwrap_or(if smoke { 5_000 } else { 50_000 }),
        horizon: Duration::from_millis(horizon_ms.unwrap_or(if smoke { 500 } else { 2_000 })),
        time_scale: time_scale.unwrap_or(if smoke { 4.0 } else { 1.0 }),
        workers: workers.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        }),
        out: out.unwrap_or_else(|| "BENCH_pr8.json".to_string()),
    }
}

fn parse_num(raw: &str, flag: &str) -> u64 {
    raw.parse().unwrap_or_else(|_| {
        eprintln!("{flag}: bad value '{raw}'\n{USAGE}");
        std::process::exit(2);
    })
}

/// Serving stack tuning shared by the query scenarios: generous retries so
/// transient trouble is absorbed, a per-query deadline so a stall degrades
/// to a typed partial outcome instead of an unbounded wait.
fn serve_config(seed: u64) -> ServeConfig {
    ServeConfig {
        retry: RetryConfig {
            backoff_base: Duration::from_micros(20),
            backoff_cap: Duration::from_micros(500),
            ..RetryConfig::default()
        },
        default_deadline: Some(Duration::from_millis(250)),
        seed,
        ..ServeConfig::default()
    }
}

/// One finished scenario replay, ready for the report.
struct ScenarioResult {
    scenario: &'static str,
    arrivals: &'static str,
    backend: &'static str,
    digest: u64,
    report: ReplayReport,
}

impl ScenarioResult {
    fn to_json(&self) -> String {
        format!(
            "{{\"scenario\":\"{}\",\"arrivals\":\"{}\",\"backend\":\"{}\",\
             \"trace_digest\":\"{:#018x}\",\"report\":{}}}",
            self.scenario,
            self.arrivals,
            self.backend,
            self.digest,
            self.report.to_json()
        )
    }
}

/// The two query-only traces: steady Poisson load and a bursty storm
/// pattern, both over Zipf-hotspot 1% ranges on the dataset's domain.
fn query_trace(scenario: &str, domain: Domain, opts: &Opts) -> Trace {
    let arrivals = match scenario {
        "steady_zipf" => ArrivalProcess::Poisson {
            rate_per_sec: 1_500.0,
        },
        "burst_storm" => ArrivalProcess::BurstStorm {
            base_per_sec: 400.0,
            storm_per_sec: 6_000.0,
            storm_every: Duration::from_millis(500),
            storm_len: Duration::from_millis(100),
        },
        other => panic!("unknown query scenario '{other}'"),
    };
    TraceSpec::queries_only(domain, arrivals, opts.horizon)
        .generate(&mut ChaCha20Rng::seed_from_u64(opts.seed))
}

/// Replays both query scenarios against one resilient server and labels the
/// results with the backend name.
fn run_query_scenarios<B: rsse_serve::ServeIndex + Sync>(
    server: &ResilientServer<B>,
    client: &(impl Fn(Range) -> Option<Vec<rsse_sse::SearchToken>> + Sync),
    backend: &'static str,
    domain: Domain,
    opts: &Opts,
    config: &ReplayConfig,
) -> Vec<ScenarioResult> {
    ["steady_zipf", "burst_storm"]
        .into_iter()
        .map(|scenario| {
            let trace = query_trace(scenario, domain, opts);
            let target = ResilientTarget::new(server, client, None);
            println!(
                "replaying {scenario}/{backend}: {} events over {:.1}s ...",
                trace.len(),
                trace.horizon().div_f64(config.time_scale).as_secs_f64()
            );
            ScenarioResult {
                scenario,
                arrivals: if scenario == "steady_zipf" {
                    "poisson"
                } else {
                    "burst_storm"
                },
                backend,
                digest: trace.digest(),
                report: replay(&trace, &target, config),
            }
        })
        .collect()
}

/// One execution mode's half of the dedup comparison.
struct DedupModeResult {
    probes_demanded: u64,
    probes_unique: u64,
    hit_rate: f64,
    latency: LatencyHistogram,
    outcomes: Vec<rsse_core::QueryOutcome>,
}

/// Micro-batches `queries` through [`ResilientServer::answer_batch`] on a
/// fresh budgeted on-disk server and measures per-query batch latency.
fn run_dedup_mode(
    dir: &std::path::Path,
    cache_budget: usize,
    dedup: bool,
    queries: &[Vec<rsse_sse::SearchToken>],
    batch_size: usize,
    opts: &Opts,
) -> DedupModeResult {
    let qs = QueryServer::open_dir_with_budget(dir, Some(cache_budget)).expect("open saved index");
    let server = ResilientServer::new(
        qs,
        ServeConfig {
            batch: BatchConfig {
                dedup,
                workers: Some(opts.workers),
            },
            // No deadline: the comparison wants every query completed, so
            // outcome equality across modes is a hard check.
            default_deadline: None,
            ..serve_config(opts.seed)
        },
    );
    // Untimed warmup pass: fills the block cache (and the OS page cache) to
    // its steady state so the timed pass compares serving work, not which
    // mode ran first against cold storage.
    for batch in queries.chunks(batch_size) {
        for slot in server.answer_batch(batch) {
            slot.expect("healthy backend, no deadline");
        }
    }
    let warm = server.stats();
    let mut latency = LatencyHistogram::new();
    let mut outcomes = Vec::with_capacity(queries.len());
    for batch in queries.chunks(batch_size) {
        let t0 = Instant::now();
        let slots = server.answer_batch(batch);
        let elapsed = t0.elapsed();
        // Open-loop batch service: every query in the round completes when
        // the round does, so each is charged the full batch latency.
        for _ in 0..batch.len() {
            latency.record(elapsed);
        }
        for slot in slots {
            outcomes.push(slot.expect("healthy backend, no deadline"));
        }
    }
    // Counter deltas over the timed pass only (the warmup pass demanded the
    // same probes once already).
    let stats = server.stats();
    let probes_demanded = stats.batch_probes_demanded - warm.batch_probes_demanded;
    let probes_unique = stats.batch_probes_unique - warm.batch_probes_unique;
    DedupModeResult {
        probes_demanded,
        probes_unique,
        hit_rate: if probes_demanded > 0 {
            (probes_demanded - probes_unique) as f64 / probes_demanded as f64
        } else {
            0.0
        },
        latency,
        outcomes,
    }
}

/// The tentpole's headline measurement: the `steady_zipf` query population
/// with 8 tenants, micro-batched through the batch executor on two
/// identically-built budgeted on-disk servers — cross-query probe dedup on
/// vs off. Returns the JSON section and whether outcomes diverged.
fn run_dedup_comparison(
    dir: &std::path::Path,
    cache_budget: usize,
    client: &impl Fn(Range) -> Option<Vec<rsse_sse::SearchToken>>,
    domain: Domain,
    opts: &Opts,
) -> (String, bool) {
    let mut spec = TraceSpec::queries_only(
        domain,
        ArrivalProcess::Poisson {
            rate_per_sec: 1_500.0,
        },
        opts.horizon,
    );
    spec.tenants = 8;
    let trace = spec.generate(&mut ChaCha20Rng::seed_from_u64(opts.seed));
    let queries: Vec<Vec<rsse_sse::SearchToken>> = trace
        .events
        .iter()
        .filter_map(|event| match &event.kind {
            EventKind::Query(range) => client(*range),
            EventKind::InsertBatch(_) => None,
        })
        .collect();
    let batch_size = 64.min(queries.len().max(1));
    println!(
        "dedup comparison on steady_zipf/disk_budget25: {} queries, 8 tenants, \
         batches of {batch_size} ...",
        queries.len()
    );

    let on = run_dedup_mode(dir, cache_budget, true, &queries, batch_size, opts);
    let off = run_dedup_mode(dir, cache_budget, false, &queries, batch_size, opts);
    let diverged = on.outcomes != off.outcomes;
    if diverged {
        eprintln!("FAIL: dedup-on and dedup-off outcomes differ");
    }

    let reduction = if off.probes_unique > 0 {
        1.0 - on.probes_unique as f64 / off.probes_unique as f64
    } else {
        0.0
    };
    let p99_on = on.latency.quantile(0.99).as_secs_f64() * 1e3;
    let p99_off = off.latency.quantile(0.99).as_secs_f64() * 1e3;
    let mode_json = |label: &str, mode: &DedupModeResult| {
        format!(
            "\"{label}\":{{\"probes_demanded\":{},\"storage_probes\":{},\
             \"dedup_hit_rate\":{:.4},\"p50_ms\":{:.3},\"p99_ms\":{:.3},\"mean_ms\":{:.3}}}",
            mode.probes_demanded,
            mode.probes_unique,
            mode.hit_rate,
            mode.latency.quantile(0.50).as_secs_f64() * 1e3,
            mode.latency.quantile(0.99).as_secs_f64() * 1e3,
            mode.latency.mean().as_secs_f64() * 1e3,
        )
    };
    println!(
        "dedup on : {} demanded -> {} storage probes ({:.1}% shared), p99 {:.3}ms",
        on.probes_demanded,
        on.probes_unique,
        on.hit_rate * 100.0,
        p99_on,
    );
    println!(
        "dedup off: {} demanded -> {} storage probes, p99 {:.3}ms  \
         (reduction {:.1}%, outcomes identical: {})",
        off.probes_demanded,
        off.probes_unique,
        p99_off,
        reduction * 100.0,
        !diverged,
    );
    let json = format!(
        "{{\"scenario\":\"steady_zipf\",\"backend\":\"disk_budget25\",\"tenants\":8,\
         \"batch_size\":{batch_size},\"queries\":{},\"trace_digest\":\"{:#018x}\",\
         {},{},\"storage_probe_reduction\":{:.4},\"outcomes_identical\":{}}}",
        queries.len(),
        trace.digest(),
        mode_json("dedup_on", &on),
        mode_json("dedup_off", &off),
        reduction,
        !diverged,
    );
    (json, diverged)
}

/// The mixed insert + query scenario on an `UpdateManager`, in-memory or
/// durable depending on `config.storage_root`. Returns the result and the
/// manager (for the durable cold-start measurement).
fn run_mixed_scenario(
    backend: &'static str,
    manager_config: UpdateConfig,
    key: &OwnerKey,
    opts: &Opts,
    config: &ReplayConfig,
) -> (ScenarioResult, UpdateManager<LogScheme>) {
    let domain = Domain::new(1 << 16);
    let mut rng = ChaCha20Rng::seed_from_u64(opts.seed);
    let mut manager: UpdateManager<LogScheme> =
        UpdateManager::with_key(key.clone(), domain, manager_config);
    // Pre-load so queries have something to find from the first event.
    for batch in insert_batches(&domain, 4, 200, 1, &mut rng) {
        manager.ingest_batch(batch, &mut rng);
    }

    let mut spec = TraceSpec::queries_only(
        domain,
        ArrivalProcess::Diurnal {
            trough_per_sec: 200.0,
            peak_per_sec: 1_200.0,
            period: opts.horizon,
        },
        opts.horizon,
    );
    spec.insert_fraction = 0.1;
    spec.insert_batch = 16;
    let trace = spec.generate(&mut ChaCha20Rng::seed_from_u64(opts.seed));
    println!(
        "replaying mixed_updates/{backend}: {} events ({} insert batches) over {:.1}s ...",
        trace.len(),
        trace.insert_count(),
        trace.horizon().div_f64(config.time_scale).as_secs_f64()
    );

    let policy = RetryPolicy::new(RetryConfig::default(), opts.seed);
    let target = ManagedTarget::new(manager, policy, opts.seed ^ 0xdead_beef);
    let report = replay(&trace, &target, config);
    (
        ScenarioResult {
            scenario: "mixed_updates",
            arrivals: "diurnal",
            backend,
            digest: trace.digest(),
            report,
        },
        target.into_inner(),
    )
}

fn main() {
    let opts = parse_opts();
    let config = ReplayConfig {
        workers: opts.workers,
        time_scale: opts.time_scale,
    };
    let mut results: Vec<ScenarioResult> = Vec::new();

    // --- Query scenarios: shared dataset, in-memory and on-disk stacks ---
    let domain_size = 1u64 << 20;
    let mut data_rng = ChaCha20Rng::seed_from_u64(5);
    let dataset = gowalla_like(opts.records, domain_size, &mut data_rng);
    let bits = 4u32;

    println!(
        "building in-memory index: {} records, 2^{bits} shards ...",
        opts.records
    );
    let mut build_rng = ChaCha20Rng::seed_from_u64(opts.seed);
    let (mem_client, mem_server) =
        LogScheme::build_stored(&dataset, &StorageConfig::in_memory(bits), &mut build_rng)
            .expect("in-memory build cannot fail");
    let mem_resilient =
        ResilientServer::new(mem_server.into_query_server(), serve_config(opts.seed));
    let mem_trapdoor = |range: Range| mem_client.trapdoor(range);
    results.extend(run_query_scenarios(
        &mem_resilient,
        &mem_trapdoor,
        "memory",
        *dataset.domain(),
        &opts,
        &config,
    ));

    let dir = std::env::temp_dir().join(format!("rsse-workload-replay-{}", std::process::id()));
    println!("building on-disk index under {} ...", dir.display());
    let mut disk_rng = ChaCha20Rng::seed_from_u64(opts.seed);
    let (disk_client, disk_server) =
        LogScheme::build_stored(&dataset, &StorageConfig::on_disk(bits, &dir), &mut disk_rng)
            .expect("on-disk build");
    let region_bytes = {
        let index = disk_server.index();
        index.storage_bytes() - index.len() * 16
    };
    drop(disk_server);
    // A 25% block-cache budget: every replay mixes hits, misses, evictions.
    let disk_qs =
        QueryServer::open_dir_with_budget(&dir, Some(region_bytes / 4)).expect("open saved index");
    let disk_resilient = ResilientServer::new(disk_qs, serve_config(opts.seed));
    let disk_trapdoor = |range: Range| disk_client.trapdoor(range);
    results.extend(run_query_scenarios(
        &disk_resilient,
        &disk_trapdoor,
        "disk_budget25",
        *dataset.domain(),
        &opts,
        &config,
    ));

    // --- Batch executor: dedup-on vs dedup-off on the same disk index ---
    let (dedup_json, dedup_diverged) = run_dedup_comparison(
        &dir,
        region_bytes / 4,
        &disk_trapdoor,
        *dataset.domain(),
        &opts,
    );

    // --- Mixed scenario: in-memory and durable update managers ---
    let key = OwnerKey::from_bytes([9u8; 32]);
    let mixed_config = UpdateConfig {
        consolidation_step: 4,
        shard_bits: 2,
        ..UpdateConfig::default()
    };
    let (mem_mixed, _) = run_mixed_scenario("memory", mixed_config.clone(), &key, &opts, &config);
    results.push(mem_mixed);

    let root = dir.join("manager");
    let durable_config = UpdateConfig {
        storage_root: Some(root.clone()),
        ..mixed_config
    };
    let (disk_mixed, manager) =
        run_mixed_scenario("disk", durable_config.clone(), &key, &opts, &config);
    results.push(disk_mixed);

    // --- Cold start: reopen the replayed durable state, serve one query ---
    drop(manager);
    println!("measuring cold start from {} ...", root.display());
    let cold_range = Range::new(10_000, 10_000 + (1 << 16) / 100);
    let t0 = Instant::now();
    let reopened: UpdateManager<LogScheme> =
        UpdateManager::open_root(key.clone(), &root, durable_config).expect("reopen from root");
    let open_elapsed = t0.elapsed();
    let outcome = reopened.try_query(cold_range).expect("cold query");
    let first_query_elapsed = t0.elapsed();
    let cold_start = format!(
        "{{\"open_root_ms\":{:.3},\"first_query_served_ms\":{:.3},\"first_query_ids\":{}}}",
        open_elapsed.as_secs_f64() * 1e3,
        first_query_elapsed.as_secs_f64() * 1e3,
        outcome.ids.len()
    );

    let _ = std::fs::remove_dir_all(&dir);

    // --- Report ---
    let unexpected: u64 = results.iter().map(|r| r.report.unexpected_errors()).sum();
    let scenarios_json: Vec<String> = results.iter().map(ScenarioResult::to_json).collect();
    let summary = format!(
        "Open-loop replay, latency measured from scheduled send times \
         (coordinated-omission corrected): lag from a saturated backend lands \
         in the percentiles instead of slowing the generator. Trace digests \
         are a pure function of the seed, so two runs with equal digests \
         replayed byte-identical inputs. Durable cold start: open_root {:.1} ms, \
         first query served at {:.1} ms.",
        open_elapsed.as_secs_f64() * 1e3,
        first_query_elapsed.as_secs_f64() * 1e3,
    );
    let json = format!(
        "{{\n  \"bench\": \"workload_replay\",\n  \"host\": \"{} logical cpus\",\n  \
         \"seed\": {},\n  \"records\": {},\n  \"horizon_ms\": {},\n  \
         \"time_scale\": {},\n  \"workers\": {},\n  \"unexpected_errors\": {},\n  \
         \"summary\": \"{}\",\n  \
         \"cold_start\": {},\n  \"dedup_comparison\": {},\n  \
         \"scenarios\": [\n    {}\n  ]\n}}\n",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(0),
        opts.seed,
        opts.records,
        opts.horizon.as_millis(),
        opts.time_scale,
        opts.workers,
        unexpected,
        summary,
        cold_start,
        dedup_json,
        scenarios_json.join(",\n    ")
    );
    std::fs::write(&opts.out, &json).expect("write report");
    println!("wrote {}", opts.out);

    for result in &results {
        let totals = result.report.totals();
        println!(
            "{:>13}/{:<13} {:>6} events  p50 {:>8.3}ms  p99 {:>8.3}ms  p999 {:>8.3}ms  \
             served {:>5}  shed {:>3}  partial {:>3}  late {:>4}",
            result.scenario,
            result.backend,
            result.report.events,
            result.report.latency.quantile(0.50).as_secs_f64() * 1e3,
            result.report.latency.quantile(0.99).as_secs_f64() * 1e3,
            result.report.latency.quantile(0.999).as_secs_f64() * 1e3,
            totals.served_ok,
            totals.shed,
            totals.partial,
            result.report.late_events,
        );
    }

    if unexpected > 0 || dedup_diverged {
        if unexpected > 0 {
            eprintln!("FAIL: {unexpected} unexpected errors across scenarios");
        }
        std::process::exit(1);
    }
    println!(
        "ok: zero unexpected errors across {} replays",
        results.len()
    );
}
