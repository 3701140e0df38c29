//! The four query workloads over a static index: `mem_point`, `mem_scan`,
//! `disk_hot` and `disk_hot_batch`.
//!
//! One client thread in a closed loop: the owner derives a trapdoor, sends
//! it, and waits for the reply before the next query. A query's latency
//! runs from before `trapdoor` to after `answer` (for `disk_hot_batch`, a
//! round of 32 trapdoors and one `answer_batch`, charged to each of its
//! queries). The system under test keeps its own thread pool.

use crate::adapter::{self, Client, DocId, IndexSize, Range, Server, Tokens};
use crate::check::Checker;
use crate::inputs::{self, Fnv, Oracle, QueryShape, StaticInputs, BATCH_ROUND, STATIC_RECORDS};
use crate::json::Json;
use crate::metrics::{Values, Workload};
use crate::trace::{total_ns, total_self_ns, Tracer};
use crate::{env, stats, RunArgs, RunOutput};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Reopens measured for `reopen_ms` on the disk workloads.
const REOPENS: usize = 9;
/// Latency samples that make a slice of the timed phase, unless a tenth
/// of the phase passes first: enough for a p99 with ten samples beyond it.
const SLICE_SAMPLES: usize = 1000;

/// A built, opened and verified index.
struct Instance {
    client: Client,
    /// `None` only while a reopen replaces it.
    server: Option<Server>,
    size: IndexSize,
    /// Seconds in `build_stored`.
    build_s: f64,
    /// Seconds from before the build to the first verified answer.
    ready_s: f64,
}

impl Instance {
    fn server(&self) -> &Server {
        self.server
            .as_ref()
            .expect("a server is open outside reopen")
    }
}

/// The block cache a disk workload reopens with: a tenth of the ciphertext
/// region, so the working set does not fit.
fn cache_budget(size: IndexSize) -> usize {
    (size.storage_bytes - size.entries * adapter::LABEL_BYTES) / 10
}

struct Run<'a> {
    args: &'a RunArgs,
    inputs: StaticInputs,
    oracle: Oracle,
    /// Where a disk workload keeps its index; `None` for in-memory.
    disk: Option<PathBuf>,
    batch: bool,
    checker: Checker,
    values: Values,
    /// Wall seconds of every `open_dir_with_budget` this process made.
    open_walls: Vec<f64>,
}

pub fn run(args: &RunArgs, tmp: &Path) -> Result<RunOutput, String> {
    let (shape, on_disk, batch) = match args.workload {
        Workload::MemPoint => (QueryShape::Point, false, false),
        Workload::MemScan => (QueryShape::Scan, false, false),
        Workload::DiskHot => (QueryShape::Hot, true, false),
        Workload::DiskHotBatch => (QueryShape::Hot, true, true),
        Workload::UpdatesMixed => unreachable!("updates_mixed has its own runner"),
    };
    let inputs = inputs::static_inputs(args.seed, shape);
    let oracle = Oracle::new(adapter::dataset_pairs(&inputs.dataset));
    let mut run = Run {
        args,
        inputs,
        oracle,
        disk: on_disk.then(|| tmp.join("index")),
        batch,
        checker: Checker::default(),
        values: Values::default(),
        open_walls: Vec::new(),
    };
    let mut report = vec![
        (
            "input_digest",
            Json::str(format!("{:016x}", run.inputs.digest)),
        ),
        ("records", Json::Num(STATIC_RECORDS as f64)),
        ("queries_in_set", Json::Num(run.inputs.queries.len() as f64)),
    ];

    // Set-up, three times from the same seed when end-to-end metrics are
    // wanted; the last instance is the one served.
    let setups = if args.end_to_end { 3 } else { 1 };
    let mut built: Vec<(f64, f64)> = Vec::new();
    let mut instance = None;
    for _ in 0..setups {
        // Free the previous instance first: peak memory is one index.
        drop(instance.take());
        let fresh = run.set_up()?;
        built.push((fresh.build_s, fresh.ready_s));
        instance = Some(fresh);
    }
    let mut instance = instance.expect("at least one set-up");
    let size = instance.size;
    let build_total: f64 = built.iter().map(|b| b.0).sum();
    let records = STATIC_RECORDS as f64;
    run.values.set(
        "core.build_entries_per_s",
        (size.entries * setups) as f64 / build_total,
    );
    run.values
        .set("core.entries_per_record", size.entries as f64 / records);

    // Warm-up: one verified cycle of the query set, every id compared.
    let (answers_digest, token_bytes) = run.verified_cycle(&instance);
    report.push((
        "answers_digest",
        Json::str(format!("{answers_digest:016x}")),
    ));

    // The timed phase, tracing off.
    let timed = run.timed_phase(&instance);
    report.push(("slices", Json::Num(timed.slices as f64)));
    report.push((
        "samples_per_slice",
        Json::Num(timed.samples_per_slice as f64),
    ));
    report.push(("tail_quantile", Json::Num(timed.tail_quantile)));
    run.values.set("query_p99_us", timed.tail_ns / 1e3);

    if args.end_to_end {
        let ready: Vec<f64> = built.iter().map(|b| b.1).collect();
        run.values.set("setup_s", stats::median(&ready));
        run.values.set("query_p50_us", timed.p50_ns / 1e3);
        run.values.set("queries_per_s", timed.per_s);
        // A static index is ingested by building it, in one call: the
        // best of the set-ups' builds, as a rate and as a stall.
        let builds: Vec<f64> = built.iter().map(|b| b.0).collect();
        let best_build = stats::min(&builds);
        run.values.set("ingest_records_per_s", records / best_build);
        run.values.set("ingest_stall_ms", best_build * 1e3);
        run.values.set(
            "index_bytes_per_record",
            size.storage_bytes as f64 / records,
        );
        let in_set = run.inputs.queries.len() as f64;
        run.values
            .set("token_bytes_per_query", token_bytes as f64 / in_set);
        let rss = env::peak_rss_mb().ok_or("VmHWM is not readable on this platform")?;
        run.values.set("peak_rss_mb", rss);
    }

    let mut tracer = None;
    if args.per_layer {
        let walls: Vec<f64> = match run.disk.is_some() {
            // Nothing of an in-memory index survives a restart: coming
            // back means building again, which every set-up measured.
            false => built.iter().map(|b| b.1).collect(),
            true => run.reopens(&mut instance)?,
        };
        run.values.set("reopen_ms", stats::min(&walls) * 1e3);
        tracer = Some(run.traced_pass(&mut instance, &timed)?);
    }
    run.values.set("error_rate", run.checker.error_rate());

    Ok(RunOutput {
        values: run.values,
        checker: run.checker,
        report,
        tracer,
    })
}

/// One slice of the timed phase.
struct Slice {
    samples: usize,
    p50_ns: f64,
    /// The tail percentile this slice has enough samples for, and its value.
    tail_quantile: f64,
    tail_ns: f64,
    /// Queries completed per second of the slice.
    per_s: f64,
}

/// What the timed phase measured: the best slice's value of each metric.
struct Timed {
    p50_ns: f64,
    /// The median slice's p50, for the tracing-overhead comparison.
    typical_p50_ns: f64,
    tail_ns: f64,
    tail_quantile: f64,
    per_s: f64,
    slices: usize,
    samples_per_slice: usize,
}

impl Run<'_> {
    fn queries(&self) -> &[Range] {
        &self.inputs.queries
    }

    /// Builds (and for disk, reopens behind the cache) one instance and
    /// serves its first verified answer.
    fn set_up(&mut self) -> Result<Instance, String> {
        let first = self.queries()[0];
        let expected = self.oracle.ids(first);
        if let Some(dir) = &self.disk {
            env::clear_dir(dir).map_err(|e| e.to_string())?;
        }
        // Same key stream every time: the three set-ups build one index.
        let mut rng = inputs::stream(self.args.seed, "keys");
        let start = Instant::now();
        let (client, server, size, build_s) = match &self.disk {
            None => {
                let built = adapter::build_in_memory(&self.inputs.dataset, &mut rng);
                let (client, server, size) =
                    self.checker.ok("build", built).ok_or("build failed")?;
                (client, server, size, start.elapsed().as_secs_f64())
            }
            Some(dir) => {
                let built = adapter::build_on_disk(&self.inputs.dataset, dir, &mut rng);
                let (client, size) = self.checker.ok("build", built).ok_or("build failed")?;
                let build_s = start.elapsed().as_secs_f64();
                let dir = dir.clone();
                let server = self.open(&dir, size)?;
                (client, server, size, build_s)
            }
        };
        let outcome = adapter::answer(&server, &adapter::trapdoor(&client, first));
        let ready_s = start.elapsed().as_secs_f64();
        let ids = outcome.as_ref().map(|o| o.ids.as_slice());
        if !self
            .checker
            .ids("first answer after set-up", ids, &expected)
        {
            return Err("first answer after set-up is wrong".to_string());
        }
        Ok(Instance {
            client,
            server: Some(server),
            size,
            build_s,
            ready_s,
        })
    }

    fn open(&mut self, dir: &Path, size: IndexSize) -> Result<Server, String> {
        let start = Instant::now();
        let opened = adapter::open_on_disk(dir, cache_budget(size));
        self.open_walls.push(start.elapsed().as_secs_f64());
        self.checker
            .ok("open_dir", opened)
            .ok_or("open failed".to_string())
    }

    /// Answers one group of queries the way the workload does — singly, or
    /// as one `answer_batch` round — returning the ids per query.
    fn answer_group(
        &self,
        instance: &Instance,
        ranges: &[Range],
    ) -> Vec<Result<adapter::QueryOutcome, String>> {
        let tokens: Vec<Tokens> = ranges
            .iter()
            .map(|&range| adapter::trapdoor(&instance.client, range))
            .collect();
        if self.batch {
            adapter::answer_batch(instance.server(), &tokens)
        } else {
            tokens
                .iter()
                .map(|tokens| adapter::answer(instance.server(), tokens))
                .collect()
        }
    }

    fn group_len(&self) -> usize {
        if self.batch {
            BATCH_ROUND
        } else {
            1
        }
    }

    /// One pass over the query set with every id list compared against the
    /// oracle. Returns a digest of the (sorted) answers and the token bytes
    /// the pass sent.
    fn verified_cycle(&mut self, instance: &Instance) -> (u64, u64) {
        let mut digest = Fnv::new();
        let mut token_bytes = 0u64;
        let queries = self.queries().to_vec();
        for (g, group) in queries.chunks(self.group_len()).enumerate() {
            let outcomes = self.answer_group(instance, group);
            for (i, (range, outcome)) in group.iter().zip(outcomes).enumerate() {
                let expected = self.oracle.ids(*range);
                let ids = outcome.as_ref().map(|o| o.ids.as_slice());
                let q = g * self.group_len() + i;
                self.checker
                    .ids(format_args!("warm-up query {q}"), ids, &expected);
                token_bytes += outcome.as_ref().map_or(0, |o| o.stats.token_bytes as u64);
                let mut sorted: Vec<DocId> = outcome.map(|o| o.ids).unwrap_or_default();
                sorted.sort_unstable();
                digest.u64(sorted.len() as u64);
                sorted.into_iter().for_each(|id| digest.u64(id));
            }
        }
        (digest.finish(), token_bytes)
    }

    /// Cycles the query set for `--seconds`, checking every result count,
    /// in slices of whole cycles (so every slice answers the same query
    /// mix): a slice ends at the first cycle boundary with `SLICE_SAMPLES`
    /// latencies or a tenth of the phase behind it. Interference in a
    /// shared sandbox comes in phases and only ever slows a slice down, so
    /// each metric is that of the best slice; the median slice is kept for
    /// comparison.
    fn timed_phase(&mut self, instance: &Instance) -> Timed {
        let queries = self.queries().to_vec();
        let expected: Vec<usize> = queries.iter().map(|&q| self.oracle.count(q)).collect();
        let group_len = self.group_len();
        let slice_cap = Duration::from_secs_f64(self.args.seconds / 10.0);
        let mut slices: Vec<Slice> = Vec::new();
        // One latency per independent measurement: a query, or a round.
        let mut latencies_ns: Vec<u64> = Vec::new();
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < self.args.seconds {
            latencies_ns.clear();
            let mut completed = 0usize;
            let slice_start = Instant::now();
            while latencies_ns.len() < SLICE_SAMPLES && slice_start.elapsed() < slice_cap {
                for at in (0..queries.len()).step_by(group_len) {
                    let end = (at + group_len).min(queries.len());
                    let sent = Instant::now();
                    if self.batch {
                        let outcomes = self.answer_group(instance, &queries[at..end]);
                        latencies_ns.push(sent.elapsed().as_nanos() as u64);
                        for (q, outcome) in (at..end).zip(outcomes) {
                            self.count_checked(q, outcome, expected[q]);
                        }
                    } else {
                        // No vectors between the clock reads on this path.
                        let tokens = adapter::trapdoor(&instance.client, queries[at]);
                        let outcome = adapter::answer(instance.server(), &tokens);
                        latencies_ns.push(sent.elapsed().as_nanos() as u64);
                        self.count_checked(at, outcome, expected[at]);
                    }
                }
                completed += queries.len();
            }
            let wall_s = slice_start.elapsed().as_secs_f64();
            latencies_ns.sort_unstable();
            let tail_quantile = stats::tail_quantile(latencies_ns.len());
            slices.push(Slice {
                samples: latencies_ns.len(),
                p50_ns: stats::quantile_sorted(&latencies_ns, 0.5) as f64,
                tail_quantile,
                tail_ns: stats::quantile_sorted(&latencies_ns, tail_quantile) as f64,
                per_s: completed as f64 / wall_s,
            });
        }
        let each = |of: fn(&Slice) -> f64| -> Vec<f64> { slices.iter().map(of).collect() };
        let p50s = each(|s| s.p50_ns);
        Timed {
            p50_ns: stats::min(&p50s),
            typical_p50_ns: stats::median(&p50s),
            tail_ns: stats::min(&each(|s| s.tail_ns)),
            tail_quantile: stats::min(&each(|s| s.tail_quantile)),
            per_s: each(|s| s.per_s).into_iter().fold(0.0, f64::max),
            slices: slices.len(),
            samples_per_slice: slices.iter().map(|s| s.samples).min().unwrap_or(0),
        }
    }

    /// Checks a timed query's result count.
    fn count_checked(
        &mut self,
        q: usize,
        outcome: Result<adapter::QueryOutcome, String>,
        expected: usize,
    ) {
        let count = outcome.map(|o| o.ids.len());
        self.checker
            .count(format_args!("timed query {q}"), count, expected);
    }

    /// `REOPENS` × reopen-to-first-verified-answer on the disk workloads.
    /// The served instance's server is replaced, so only one is open.
    fn reopens(&mut self, instance: &mut Instance) -> Result<Vec<f64>, String> {
        let dir = self.disk.clone().expect("disk workload");
        let first = self.queries()[0];
        let expected = self.oracle.ids(first);
        let mut walls = Vec::with_capacity(REOPENS);
        for _ in 0..REOPENS {
            // Close the old server first: its teardown is not a reopen.
            drop(instance.server.take());
            let start = Instant::now();
            let server = self.open(&dir, instance.size)?;
            let tokens = adapter::trapdoor(&instance.client, first);
            let outcome = adapter::answer(&server, &tokens);
            walls.push(start.elapsed().as_secs_f64());
            instance.server = Some(server);
            let ids = outcome.as_ref().map(|o| o.ids.as_slice());
            self.checker
                .ids("first answer after reopen", ids, &expected);
        }
        Ok(walls)
    }

    /// The traced passes, each once over the query set in the order the
    /// timed phase cycles it, a span per stage per query, counts read at
    /// the same boundaries:
    ///
    /// * A — `query → {cover, trapdoor, answer_serve}`: what the timed
    ///   phase does, traced; block-cache counters are deltas over it.
    /// * B — `answer_core`: the same tokens through the raw server.
    /// * C — `staged → {labeler_init, cipher_init, label, probe, decrypt,
    ///   assemble}`: each stage over all of the query's items before the
    ///   next.
    /// * D — `batch_round` (`disk_hot_batch`): rounds of 32 through
    ///   `answer_batch`.
    ///
    /// The passes are separate on purpose. Run back to back on one query,
    /// the second path would find the first one's entries in the CPU and
    /// block caches and read up to 10x cheaper than in the timed phase;
    /// a full pass in between restores the state the timed loop sees.
    /// Spans of one query share its `query_id` across passes.
    fn traced_pass(&mut self, instance: &mut Instance, timed: &Timed) -> Result<Tracer, String> {
        let queries = self.queries().to_vec();
        if let Some(dir) = self.disk.clone() {
            // Start from a defined cache state, whatever the timed phase
            // left behind: a fresh open, then one untraced pass.
            drop(instance.server.take());
            instance.server = Some(self.open(&dir, instance.size)?);
            for &range in &queries {
                let tokens = adapter::trapdoor(&instance.client, range);
                let outcome = adapter::answer(instance.server(), &tokens);
                self.checker.ok("cache priming query", outcome);
            }
        }
        let (client, server) = (&instance.client, instance.server());
        let expected: Vec<Vec<DocId>> = queries.iter().map(|&q| self.oracle.ids(q)).collect();
        let mut tracer = Tracer::new();
        let n = queries.len() as f64;

        // Pass A.
        let mut nodes = 0u64;
        let mut tokens: Vec<Tokens> = Vec::with_capacity(queries.len());
        let mut trapdoor_ns: Vec<u64> = Vec::with_capacity(queries.len());
        let mut traced_ns: Vec<f64> = Vec::with_capacity(queries.len());
        let storage_before = adapter::storage_counters(server);
        for (q, &range) in queries.iter().enumerate() {
            let qid = q as u32;
            let (outcome, _) = tracer.span("query", qid, |t| {
                nodes += t.span("cover", qid, |_| adapter::cover_nodes(range)).0 as u64;
                let (query_tokens, own_ns) =
                    t.span("trapdoor", qid, |_| adapter::trapdoor(client, range));
                let (outcome, serve_ns) = t.span("answer_serve", qid, |_| {
                    adapter::answer(server, &query_tokens)
                });
                tokens.push(query_tokens);
                trapdoor_ns.push(own_ns);
                traced_ns.push((own_ns + serve_ns) as f64);
                outcome
            });
            let ids = outcome.as_ref().map(|o| o.ids.as_slice());
            self.checker.ids(
                format_args!("traced query {q} (answer_serve)"),
                ids,
                &expected[q],
            );
        }
        let storage_after = adapter::storage_counters(server);

        // Pass B, learning each token's entry count (untimed) on the way.
        let mut counts: Vec<Vec<usize>> = Vec::with_capacity(queries.len());
        for (q, query_tokens) in tokens.iter().enumerate() {
            let (outcome, _) = tracer.span("answer_core", q as u32, |_| {
                adapter::answer_core(server, query_tokens)
            });
            let ids = outcome.as_ref().map(|o| o.ids.as_slice());
            self.checker.ids(
                format_args!("traced query {q} (answer_core)"),
                ids,
                &expected[q],
            );
            let counted = adapter::token_counts(server, query_tokens);
            counts.push(
                self.checker
                    .ok(format_args!("entry counts of query {q}"), counted)
                    .unwrap_or_default(),
            );
        }

        // Pass C.
        let (mut probes, mut entries) = (0u64, 0u64);
        let mut plan = adapter::ProbePlan::default();
        let mut hits = Vec::new();
        for (q, (query_tokens, counts)) in tokens.iter().zip(&counts).enumerate() {
            let qid = q as u32;
            if counts.len() != query_tokens.len() {
                continue; // counted as failed above
            }
            let (outcome, _) = tracer.span("staged", qid, |t| {
                let (labelers, _) =
                    t.span("labeler_init", qid, |_| adapter::labelers(query_tokens));
                let (ciphers, _) = t.span("cipher_init", qid, |_| adapter::ciphers(query_tokens));
                t.span("label", qid, |_| {
                    adapter::plan_probes(&labelers, counts, &mut plan)
                });
                t.span("probe", qid, |_| adapter::probe(server, &plan, &mut hits))
                    .0?;
                let (groups, _) =
                    t.span("decrypt", qid, |_| adapter::decrypt(&ciphers, &plan, &hits));
                let assembled = t.span("assemble", qid, |_| {
                    adapter::assemble(query_tokens, groups, counts)
                });
                Ok::<_, String>(assembled.0)
            });
            probes += plan.labels.len() as u64;
            entries += counts.iter().sum::<usize>() as u64;
            let ids = outcome.as_ref().map(|o| o.ids.as_slice());
            self.checker
                .ids(format_args!("traced query {q} (staged)"), ids, &expected[q]);
        }
        hits.clear();

        // Pass D.
        let mut round_ms: Vec<f64> = Vec::new();
        let serve_before = adapter::serve_counters(server);
        if self.batch {
            for (r, round) in tokens.chunks(BATCH_ROUND).enumerate() {
                let first = r * BATCH_ROUND;
                let (outcomes, round_ns) = tracer.span("batch_round", first as u32, |_| {
                    adapter::answer_batch(server, round)
                });
                let own_ns: u64 = trapdoor_ns[first..first + round.len()].iter().sum();
                round_ms.push((own_ns + round_ns) as f64 / 1e6);
                for (i, outcome) in outcomes.into_iter().enumerate() {
                    let q = first + i;
                    let ids = outcome.as_ref().map(|o| o.ids.as_slice());
                    self.checker.ids(
                        format_args!("traced query {q} (batch_round)"),
                        ids,
                        &expected[q],
                    );
                }
            }
        }
        let serve = adapter::serve_counters(server);

        let spans = tracer.spans();
        let total = |name: &str| total_ns(spans, name).0 as f64;
        let per = |total: f64, count: u64| {
            if count == 0 {
                0.0
            } else {
                total / count as f64
            }
        };
        let tokens_sent: u64 = tokens.iter().map(|t| t.len() as u64).sum();
        let v = &mut self.values;
        v.set("cover.brc_ns_per_query", total("cover") / n);
        v.set("cover.nodes_per_query", nodes as f64 / n);
        // `trapdoor` computes the cover itself; the separate `cover` span
        // times the same call, so the difference is the trapdoor's own.
        v.set(
            "core.trapdoor_ns_per_query",
            (total("trapdoor") - total("cover")) / n,
        );
        v.set("core.tokens_per_query", tokens_sent as f64 / n);
        v.set(
            "sse.labeler_init_ns_per_token",
            per(total("labeler_init"), tokens_sent),
        );
        v.set(
            "crypto.cipher_init_ns_per_token",
            per(total("cipher_init"), tokens_sent),
        );
        v.set("sse.label_ns_per_probe", per(total("label"), probes));
        v.set("sse.probes_per_query", probes as f64 / n);
        v.set("sse.probe_hit_ratio", per(entries as f64, probes));
        v.set("sse.probe_ns_per_probe", per(total("probe"), probes));
        v.set("crypto.decrypt_ns_per_hit", per(total("decrypt"), entries));
        v.set("core.assemble_ns_per_query", total("assemble") / n);
        v.set("core.answer_ns_per_query", total("answer_core") / n);
        v.set("core.staged_ns_per_query", total("staged") / n);
        // Σ stages = the staged span minus its self time (the glue between
        // stages), set against the one call that does all of it at once.
        let stages = total("staged") - total_self_ns(spans, "staged") as f64;
        v.set(
            "core.unattributed_share",
            1.0 - stages / total("answer_core"),
        );
        let overhead = total("answer_serve") - total("answer_core");
        v.set("serve.answer_ns_per_query", total("answer_serve") / n);
        v.set("serve.overhead_ns_per_query", overhead / n);
        v.set("serve.overhead_share", overhead / total("answer_core"));
        v.set("serve.shed", serve.shed as f64);
        v.set("serve.retries", serve.retries as f64);
        v.set("serve.deadline_expired", serve.deadline_expired as f64);
        v.set("serve.breaker_opened", serve.breaker_opened as f64);

        if self.disk.is_some() {
            let hits = storage_after.hits - storage_before.hits;
            let misses = storage_after.misses - storage_before.misses;
            let evictions = storage_after.evictions - storage_before.evictions;
            v.set("sse.cache_hit_rate", per(hits as f64, hits + misses));
            v.set("sse.cache_misses_per_query", misses as f64 / n);
            v.set("sse.cache_evictions_per_query", evictions as f64 / n);
            let resident = storage_after.resident_bytes as f64 / f64::from(1 << 20);
            v.set("sse.cache_resident_mb", resident);
            v.set(
                "sse.read_errors",
                adapter::storage_counters(server).read_errors as f64,
            );
            v.set("sse.open_dir_ms", stats::median(&self.open_walls) * 1e3);
        }

        // Tracing overhead: the traced latency of what the timed phase
        // measured untraced — per query, or per round for the batch —
        // against its median slice (the traced pass is not a best-of).
        let traced_p50 = if self.batch {
            let demanded = serve.batch_probes_demanded - serve_before.batch_probes_demanded;
            let unique = serve.batch_probes_unique - serve_before.batch_probes_unique;
            v.set("serve.batch_round_ms_p50", stats::median(&round_ms));
            v.set(
                "serve.batch_dedup_hit_rate",
                per((demanded - unique) as f64, demanded),
            );
            v.set("serve.batch_probes_demanded_per_query", demanded as f64 / n);
            v.set("serve.batch_probes_unique_per_query", unique as f64 / n);
            v.set(
                "serve.batch_max_lane_depth",
                serve.batch_max_lane_depth as f64,
            );
            v.set(
                "serve.batch_vs_single_ratio",
                total("batch_round") / total("answer_serve"),
            );
            stats::median(&round_ms) * 1e6
        } else {
            stats::median(&traced_ns)
        };
        let untraced_p50 = timed.typical_p50_ns;
        v.set(
            "trace.overhead_share",
            (traced_p50 - untraced_p50) / untraced_p50,
        );
        v.set("trace.spans", spans.len() as f64);
        Ok(tracer)
    }
}
