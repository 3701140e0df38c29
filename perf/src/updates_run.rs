//! `updates_mixed`: writes beside reads on the durable update manager.
//!
//! Work-bounded, so that the consolidation schedule — and with it every
//! count — is fixed by the seed: set-up ingests 8 batches, the run ingests
//! 32 more and issues 50 queries after each. One client thread; a query's
//! latency is one `try_query`, an ingest's one `try_ingest_batch`
//! (consolidations included).

use crate::adapter::{self, DocId, Manager};
use crate::check::Checker;
use crate::inputs::{self, Oracle, UpdateInputs, BATCH_RECORDS, QUERIES_PER_BATCH};
use crate::json::Json;
use crate::metrics::Values;
use crate::trace::Tracer;
use crate::{env, stats, RunArgs, RunOutput};
use rand_chacha::ChaCha20Rng;
use std::path::Path;
use std::time::Instant;

/// Reopens measured for `reopen_ms`.
const REOPENS: usize = 9;

/// What one pass over the ingest/query schedule measured.
#[derive(Default)]
struct Schedule {
    ingest_ns: Vec<u64>,
    /// Whether each ingest ran at least one consolidation.
    consolidated: Vec<bool>,
    query_ns: Vec<u64>,
    /// Active instances summed over the queries.
    instances: u64,
    tokens_sent: u64,
    token_bytes: u64,
    /// Cipher calls made inside the ingest calls.
    encrypt_calls: u64,
    decrypt_calls: u64,
}

impl Schedule {
    fn query_p50_ns(&self) -> f64 {
        let ns: Vec<f64> = self.query_ns.iter().map(|&ns| ns as f64).collect();
        stats::median(&ns)
    }
}

struct Run<'a> {
    args: &'a RunArgs,
    inputs: UpdateInputs,
    key: adapter::OwnerKey,
    root: std::path::PathBuf,
    checker: Checker,
    /// Wall seconds of every `open_root` this process made.
    open_walls: Vec<f64>,
}

/// Times `f`, as a span when tracing and with a bare clock pair when not.
fn timed<T>(
    tracer: &mut Option<Tracer>,
    name: &'static str,
    id: u32,
    f: impl FnOnce() -> T,
) -> (T, u64) {
    match tracer {
        Some(tracer) => tracer.span(name, id, |_| f()),
        None => {
            let start = Instant::now();
            let value = f();
            (value, start.elapsed().as_nanos() as u64)
        }
    }
}

pub fn run(args: &RunArgs, tmp: &Path) -> Result<RunOutput, String> {
    let inputs = inputs::update_inputs(args.seed);
    let mut run = Run {
        args,
        key: adapter::owner_key(&mut inputs::stream(args.seed, "owner-key")),
        inputs,
        root: tmp.join("manager"),
        checker: Checker::default(),
        open_walls: Vec::new(),
    };
    let mut values = Values::default();
    let mut report = vec![
        (
            "input_digest",
            Json::str(format!("{:016x}", run.inputs.digest)),
        ),
        (
            "records",
            Json::Num((run.total_batches() * BATCH_RECORDS) as f64),
        ),
        ("queries_in_set", Json::Num(run.inputs.queries.len() as f64)),
    ];

    // Set-up and the measured schedule, tracing off: three times over when
    // end-to-end metrics are wanted. Interference in a shared sandbox only
    // ever slows an operation down, in phases of a few seconds, so each
    // ingest and each query is charged its best time over the passes.
    let passes = if args.end_to_end { 3 } else { 1 };
    let mut ready = Vec::new();
    let mut measured: Vec<Schedule> = Vec::new();
    let mut state = None;
    for _ in 0..passes {
        drop(state.take());
        let (mut manager, mut rng, build_s, ready_s) = run.set_up()?;
        ready.push(ready_s);
        let entries = adapter::manager_counters(&manager).entries as f64;
        measured.push(run.schedule(&mut manager, &mut rng, &mut None));
        state = Some((manager, entries / build_s));
    }
    let (manager, build_rate) = state.expect("at least one pass");
    values.set("core.build_entries_per_s", build_rate);

    let best = |of: fn(&Schedule) -> &Vec<u64>| -> Vec<u64> {
        let first = of(&measured[0]);
        (0..first.len())
            .map(|i| {
                measured
                    .iter()
                    .map(|pass| of(pass)[i])
                    .min()
                    .expect("a pass")
            })
            .collect()
    };
    let ingest_ns = best(|pass| &pass.ingest_ns);
    let mut query_ns = best(|pass| &pass.query_ns);
    query_ns.sort_unstable();
    let tail_quantile = stats::tail_quantile(query_ns.len());
    let pass_p50s: Vec<f64> = measured.iter().map(Schedule::query_p50_ns).collect();
    let typical_p50_ns = stats::median(&pass_p50s);
    report.push(("passes", Json::Num(passes as f64)));
    report.push(("timed_queries", Json::Num(query_ns.len() as f64)));
    report.push(("tail_quantile", Json::Num(tail_quantile)));
    values.set(
        "query_p99_us",
        stats::quantile_sorted(&query_ns, tail_quantile) as f64 / 1e3,
    );

    let records = (run.total_batches() * BATCH_RECORDS) as f64;
    let counters = adapter::manager_counters(&manager);
    values.set("core.entries_per_record", counters.entries as f64 / records);

    if args.end_to_end {
        let queries = query_ns.len() as f64;
        let ingested = (run.inputs.run_batches.len() * BATCH_RECORDS) as f64;
        let seconds = |ns: &[u64]| ns.iter().sum::<u64>() as f64 / 1e9;
        values.set("setup_s", stats::median(&ready));
        values.set(
            "query_p50_us",
            stats::quantile_sorted(&query_ns, 0.5) as f64 / 1e3,
        );
        values.set("queries_per_s", queries / seconds(&query_ns));
        values.set("ingest_records_per_s", ingested / seconds(&ingest_ns));
        let longest = ingest_ns.iter().copied().max().unwrap_or(0);
        values.set("ingest_stall_ms", longest as f64 / 1e6);
        values.set(
            "index_bytes_per_record",
            counters.storage_bytes as f64 / records,
        );
        values.set(
            "token_bytes_per_query",
            measured[0].token_bytes as f64 / queries,
        );
        let rss = env::peak_rss_mb().ok_or("VmHWM is not readable on this platform")?;
        values.set("peak_rss_mb", rss);
    }
    drop(manager);

    let mut tracer = None;
    if args.per_layer {
        // The traced run repeats the schedule from a fresh set-up.
        let (mut manager, mut rng, _, _) = run.set_up()?;
        let before = adapter::manager_counters(&manager);
        tracer = Some(Tracer::new());
        let traced = run.schedule(&mut manager, &mut rng, &mut tracer);
        let after = adapter::manager_counters(&manager);
        let disk_bytes = env::dir_bytes(&run.root).map_err(|e| e.to_string())?;
        let mut reopen_s = Vec::with_capacity(REOPENS);
        for _ in 0..REOPENS {
            let (reopened, wall) = run.reopen(manager)?;
            manager = reopened;
            reopen_s.push(wall);
        }
        drop(manager);
        values.set("reopen_ms", stats::min(&reopen_s) * 1e3);

        let ingest_ms: Vec<f64> = traced.ingest_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
        let plain: Vec<f64> = (ingest_ms.iter().zip(&traced.consolidated))
            .filter_map(|(&ms, &consolidated)| (!consolidated).then_some(ms))
            .collect();
        // From outside, a consolidation is what an ingest call costs above
        // the median ingest that ran none.
        let plain_ms = if plain.is_empty() {
            0.0
        } else {
            stats::median(&plain)
        };
        let consolidate_ms: f64 = (ingest_ms.iter().zip(&traced.consolidated))
            .filter_map(|(&ms, &consolidated)| consolidated.then_some((ms - plain_ms).max(0.0)))
            .sum();
        let ingested = (run.inputs.run_batches.len() * BATCH_RECORDS) as f64;
        let queries = traced.query_ns.len() as f64;
        let query_ns: Vec<f64> = traced.query_ns.iter().map(|&ns| ns as f64).collect();
        let delta = |a: u64, b: u64| (a - b) as f64;
        values.set("core.tokens_per_query", traced.tokens_sent as f64 / queries);
        values.set("updates.ingest_ms_p50", stats::median(&ingest_ms));
        values.set(
            "updates.consolidations",
            delta(after.consolidations, before.consolidations),
        );
        values.set(
            "updates.rebuild_consolidations",
            delta(after.rebuild_consolidations, before.rebuild_consolidations),
        );
        values.set(
            "updates.structural_consolidations",
            delta(
                after.structural_consolidations,
                before.structural_consolidations,
            ),
        );
        values.set("updates.consolidate_ms_total", consolidate_ms);
        values.set(
            "crypto.encrypt_calls_per_record",
            traced.encrypt_calls as f64 / ingested,
        );
        values.set(
            "crypto.decrypt_calls_per_record",
            traced.decrypt_calls as f64 / ingested,
        );
        values.set(
            "updates.instances_per_query",
            traced.instances as f64 / queries,
        );
        values.set(
            "updates.query_us_per_instance",
            query_ns.iter().sum::<f64>() / 1e3 / traced.instances as f64,
        );
        values.set("updates.disk_bytes_per_record", disk_bytes as f64 / records);
        values.set("updates.open_root_ms", stats::median(&run.open_walls) * 1e3);
        // Against the median pass: the traced run is not a best-of.
        let traced_p50 = traced.query_p50_ns();
        values.set(
            "trace.overhead_share",
            (traced_p50 - typical_p50_ns) / typical_p50_ns,
        );
        let spans = tracer.as_ref().map_or(0, |t| t.spans().len());
        values.set("trace.spans", spans as f64);
    }
    values.set("error_rate", run.checker.error_rate());

    Ok(RunOutput {
        values,
        checker: run.checker,
        report,
        tracer,
    })
}

impl Run<'_> {
    fn total_batches(&self) -> usize {
        self.inputs.setup_batches.len() + self.inputs.run_batches.len()
    }

    /// A fresh durable manager with the set-up batches ingested and its
    /// first answer verified. Returns it with the key stream it continues
    /// on, the seconds spent ingesting, and the seconds to that answer.
    fn set_up(&mut self) -> Result<(Manager, ChaCha20Rng, f64, f64), String> {
        env::clear_dir(&self.root).map_err(|e| e.to_string())?;
        let mut rng = inputs::stream(self.args.seed, "keys");
        let batches = self.inputs.setup_batches.clone();
        let start = Instant::now();
        let mut manager = adapter::new_manager(&self.key, &self.root);
        for (b, batch) in batches.into_iter().enumerate() {
            let done = adapter::ingest(&mut manager, batch, &mut rng);
            self.checker
                .ok(format_args!("set-up ingest {b}"), done)
                .ok_or("set-up ingest failed")?;
        }
        let build_s = start.elapsed().as_secs_f64();
        let outcome = adapter::manager_query(&manager, self.inputs.queries[0]);
        let ready_s = start.elapsed().as_secs_f64();
        self.verify_against_truth("first answer after set-up", &manager, outcome)?;
        Ok((manager, rng, build_s, ready_s))
    }

    /// Full check of the first query's answer against the manager's own
    /// ground truth.
    fn verify_against_truth(
        &mut self,
        what: &str,
        manager: &Manager,
        outcome: Result<adapter::QueryOutcome, String>,
    ) -> Result<(), String> {
        let mut expected = adapter::manager_truth(manager, self.inputs.queries[0]);
        expected.sort_unstable();
        let ids = outcome.as_ref().map(|o| o.ids.as_slice());
        match self.checker.ids(what, ids, &expected) {
            true => Ok(()),
            false => Err(format!("{what} is wrong")),
        }
    }

    /// Drops `manager`, reopens its root, and serves the first verified
    /// answer. Returns the reopened manager and the seconds to that answer.
    fn reopen(&mut self, manager: Manager) -> Result<(Manager, f64), String> {
        drop(manager);
        let start = Instant::now();
        let opened = adapter::open_manager(&self.key, &self.root);
        self.open_walls.push(start.elapsed().as_secs_f64());
        let manager = self
            .checker
            .ok("open_root", opened)
            .ok_or("open_root failed")?;
        let outcome = adapter::manager_query(&manager, self.inputs.queries[0]);
        let wall = start.elapsed().as_secs_f64();
        self.verify_against_truth("first answer after reopen", &manager, outcome)?;
        Ok((manager, wall))
    }

    /// The measured schedule: every run batch ingested, its queries after
    /// it. The first query after each ingest is compared id by id with
    /// `UpdateManager::ground_truth` (which also vouches for the harness's
    /// own oracle); the rest are compared with that oracle by count.
    fn schedule(
        &mut self,
        manager: &mut Manager,
        rng: &mut ChaCha20Rng,
        tracer: &mut Option<Tracer>,
    ) -> Schedule {
        let mut measured = Schedule::default();
        let mut oracle = Oracle::default();
        for batch in &self.inputs.setup_batches {
            oracle.extend(adapter::batch_pairs(batch));
        }
        let batches = self.inputs.run_batches.clone();
        let rounds = self.inputs.queries.chunks(QUERIES_PER_BATCH);
        for (b, (batch, ranges)) in batches.into_iter().zip(rounds).enumerate() {
            oracle.extend(adapter::batch_pairs(&batch));
            let consolidations = adapter::manager_counters(manager).consolidations;
            let (encrypts, decrypts) = adapter::cipher_calls();
            let (done, ns) = timed(tracer, "ingest", b as u32, || {
                adapter::ingest(manager, batch, rng)
            });
            let (encrypts_after, decrypts_after) = adapter::cipher_calls();
            measured.encrypt_calls += encrypts_after - encrypts;
            measured.decrypt_calls += decrypts_after - decrypts;
            self.checker.ok(format_args!("ingest {b}"), done);
            measured.ingest_ns.push(ns);
            let counters = adapter::manager_counters(manager);
            measured
                .consolidated
                .push(counters.consolidations > consolidations);

            for (i, &range) in ranges.iter().enumerate() {
                let q = (b * QUERIES_PER_BATCH + i) as u32;
                let (outcome, ns) = timed(tracer, "query", q, || {
                    adapter::manager_query(manager, range)
                });
                measured.query_ns.push(ns);
                measured.instances += counters.instances;
                if let Ok(outcome) = &outcome {
                    measured.tokens_sent += outcome.stats.tokens_sent as u64;
                    measured.token_bytes += outcome.stats.token_bytes as u64;
                }
                if i == 0 {
                    let mut truth: Vec<DocId> = adapter::manager_truth(manager, range);
                    truth.sort_unstable();
                    let ids = outcome.as_ref().map(|o| o.ids.as_slice());
                    self.checker.ids(format_args!("query {q}"), ids, &truth);
                    let oracle_ids = Ok::<_, String>(oracle.ids(range));
                    let oracle_ids = oracle_ids.as_ref().map(Vec::as_slice);
                    self.checker
                        .ids(format_args!("oracle for query {q}"), oracle_ids, &truth);
                } else {
                    let count = outcome.map(|o| o.ids.len());
                    self.checker
                        .count(format_args!("query {q}"), count, oracle.count(range));
                }
            }
        }
        measured
    }
}
