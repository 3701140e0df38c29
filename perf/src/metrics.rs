//! The benchmark's vocabulary: workloads, end-to-end metrics with their
//! bounds, per-layer metrics — one table, from which `BENCHMARK.json`, the
//! reports and the `repeat` verdicts are all derived.

use crate::json::Json;

/// Version of the report schema (`report-W.json`).
pub const REPORT_SCHEMA: u32 = 1;
/// Seconds one run measures (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 10;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    MemPoint,
    MemScan,
    DiskHot,
    DiskHotBatch,
    UpdatesMixed,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::MemPoint,
        Workload::MemScan,
        Workload::DiskHot,
        Workload::DiskHotBatch,
        Workload::UpdatesMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MemPoint => "mem_point",
            Workload::MemScan => "mem_scan",
            Workload::DiskHot => "disk_hot",
            Workload::DiskHotBatch => "disk_hot_batch",
            Workload::UpdatesMixed => "updates_mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One line on why the workload exists (`why` of `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::MemPoint => {
                "in-memory, 16-value ranges (~1.5 ids): per-query fixed costs (cover, trapdoor, \
                 labeler/cipher init, serve plane) are nearly all of the time"
            }
            Workload::MemScan => {
                "same index, 1 % ranges (~1000 ids): per-entry costs (label PRF, arena probe, \
                 decrypt) dominate; the control for mem_point"
            }
            Workload::DiskHot => {
                "on-disk index behind a block cache of a tenth of it, hot tenant ranges one at a \
                 time: paged reads and the cache do the arena's work"
            }
            Workload::DiskHotBatch => {
                "same index, cache and queries in rounds of 32 through answer_batch: dedup and \
                 lane scatter against the sequential scan of disk_hot"
            }
            Workload::UpdatesMixed => {
                "durable update manager: 32 ingests of 1000 inserts, 50 queries after each; small \
                 builds, consolidations and multi-instance fan-out beside reads"
            }
        }
    }

    fn bit(self) -> u8 {
        1 << self as u8
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: reported by every workload, gated by `bound`.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
    /// A count fixed by the inputs: the same seed must give the same value.
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better: Better::Lower,
        bound,
        exact: true,
    }
}

use Better::{Higher, Lower};

/// Bounds were set from `baseline/repeat.txt` (see the README): on the
/// shared 2-vCPU host the timed metrics of one commit spread 5-25 % between
/// runs, so they all carry the widest bound the contract allows.
pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("query_p50_us", "us", Lower, 0.25),
    e2e("queries_per_s", "1/s", Higher, 0.25),
    e2e("ingest_records_per_s", "1/s", Higher, 0.25),
    e2e("ingest_stall_ms", "ms", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.15),
    exact("index_bytes_per_record", "B", 0.02),
    exact("token_bytes_per_query", "B", 0.05),
];

/// A metric of one layer, from the traced pass. No bound.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Bit set of the workloads whose traced pass yields it.
    applies: u8,
}

impl PerLayer {
    pub fn applies_to(&self, workload: Workload) -> bool {
        self.applies & workload.bit() != 0
    }
}

const DISK: u8 = 0b0_1100;
const STATIC: u8 = 0b0_1111;
const BATCH: u8 = 0b0_1000;
const UPDATES: u8 = 0b1_0000;
const EVERY: u8 = 0b1_1111;

const fn layer(name: &'static str, unit: &'static str, better: Better, applies: u8) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        applies,
    }
}

pub const PER_LAYER: &[PerLayer] = &[
    layer("cover.brc_ns_per_query", "ns", Lower, STATIC),
    layer("cover.nodes_per_query", "count", Lower, STATIC),
    layer("core.trapdoor_ns_per_query", "ns", Lower, STATIC),
    layer("core.tokens_per_query", "count", Lower, EVERY),
    layer("sse.labeler_init_ns_per_token", "ns", Lower, STATIC),
    layer("crypto.cipher_init_ns_per_token", "ns", Lower, STATIC),
    layer("sse.label_ns_per_probe", "ns", Lower, STATIC),
    layer("sse.probes_per_query", "count", Lower, STATIC),
    layer("sse.probe_hit_ratio", "ratio", Higher, STATIC),
    layer("sse.probe_ns_per_probe", "ns", Lower, STATIC),
    layer("crypto.decrypt_ns_per_hit", "ns", Lower, STATIC),
    layer("sse.cache_hit_rate", "ratio", Higher, DISK),
    layer("sse.cache_misses_per_query", "count", Lower, DISK),
    layer("sse.cache_evictions_per_query", "count", Lower, DISK),
    layer("sse.cache_resident_mb", "MB", Lower, DISK),
    layer("sse.read_errors", "count", Lower, DISK),
    layer("sse.open_dir_ms", "ms", Lower, DISK),
    layer("core.assemble_ns_per_query", "ns", Lower, STATIC),
    layer("core.answer_ns_per_query", "ns", Lower, STATIC),
    layer("core.staged_ns_per_query", "ns", Lower, STATIC),
    layer("core.unattributed_share", "ratio", Lower, STATIC),
    layer("serve.answer_ns_per_query", "ns", Lower, STATIC),
    layer("serve.overhead_ns_per_query", "ns", Lower, STATIC),
    layer("serve.overhead_share", "ratio", Lower, STATIC),
    layer("serve.shed", "count", Lower, STATIC),
    layer("serve.retries", "count", Lower, STATIC),
    layer("serve.deadline_expired", "count", Lower, STATIC),
    layer("serve.breaker_opened", "count", Lower, STATIC),
    layer("serve.batch_round_ms_p50", "ms", Lower, BATCH),
    layer("serve.batch_dedup_hit_rate", "ratio", Higher, BATCH),
    layer(
        "serve.batch_probes_demanded_per_query",
        "count",
        Lower,
        BATCH,
    ),
    layer("serve.batch_probes_unique_per_query", "count", Lower, BATCH),
    layer("serve.batch_max_lane_depth", "count", Lower, BATCH),
    layer("serve.batch_vs_single_ratio", "ratio", Lower, BATCH),
    layer("updates.ingest_ms_p50", "ms", Lower, UPDATES),
    layer("updates.consolidations", "count", Lower, UPDATES),
    layer("updates.rebuild_consolidations", "count", Lower, UPDATES),
    layer(
        "updates.structural_consolidations",
        "count",
        Higher,
        UPDATES,
    ),
    layer("updates.consolidate_ms_total", "ms", Lower, UPDATES),
    layer("crypto.encrypt_calls_per_record", "count", Lower, UPDATES),
    layer("crypto.decrypt_calls_per_record", "count", Lower, UPDATES),
    layer("updates.instances_per_query", "count", Lower, UPDATES),
    layer("updates.query_us_per_instance", "us", Lower, UPDATES),
    layer("updates.disk_bytes_per_record", "B", Lower, UPDATES),
    layer("updates.open_root_ms", "ms", Lower, UPDATES),
    layer("query_p99_us", "us", Lower, EVERY),
    layer("reopen_ms", "ms", Lower, EVERY),
    layer("core.build_entries_per_s", "1/s", Higher, EVERY),
    layer("core.entries_per_record", "count", Lower, EVERY),
    layer("trace.overhead_share", "ratio", Lower, EVERY),
    layer("trace.spans", "count", Lower, EVERY),
    layer("error_rate", "ratio", Lower, EVERY),
];

/// Measured values, keyed by metric name, in the order they were set.
#[derive(Debug, Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(self.get(name).is_none(), "{name} set twice");
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

/// What a run measured, checked against the table: every end-to-end
/// metric (when `end_to_end`), every per-layer metric that applies to the
/// workload (when `per_layer`), each a finite number.
pub struct Measured {
    pub end_to_end: Option<Vec<(&'static EndToEnd, f64)>>,
    pub per_layer: Option<Vec<(&'static PerLayer, Option<f64>)>>,
}

impl Measured {
    pub fn collect(
        workload: Workload,
        values: &Values,
        end_to_end: bool,
        per_layer: bool,
    ) -> Result<Measured, String> {
        let lookup = |name: &str| match values.get(name) {
            Some(value) if value.is_finite() => Ok(value),
            Some(value) => Err(format!("metric {name} is not a number: {value}")),
            None => Err(format!("metric {name} was not measured")),
        };
        let end_to_end = end_to_end
            .then(|| {
                END_TO_END
                    .iter()
                    .map(|def| Ok((def, lookup(def.name)?)))
                    .collect::<Result<Vec<_>, String>>()
            })
            .transpose()?;
        let per_layer = per_layer
            .then(|| {
                PER_LAYER
                    .iter()
                    .map(|def| {
                        let value = def
                            .applies_to(workload)
                            .then(|| lookup(def.name))
                            .transpose()?;
                        Ok((def, value))
                    })
                    .collect::<Result<Vec<_>, String>>()
            })
            .transpose()?;
        Ok(Measured {
            end_to_end,
            per_layer,
        })
    }

    /// `name value unit` lines, every metric that applies.
    pub fn lines(&self) -> Vec<String> {
        let e2e = self.end_to_end.iter().flatten();
        let layers = self.per_layer.iter().flatten();
        e2e.map(|(def, value)| format!("{} {} {}", def.name, value, def.unit))
            .chain(layers.filter_map(|(def, value)| {
                value.map(|value| format!("{} {} {}", def.name, value, def.unit))
            }))
            .collect()
    }

    /// The `metrics` object of the result line. The contract wants every
    /// per-layer metric on every workload: one that does not apply reads 0.
    pub fn result_metrics(&self) -> Json {
        let e2e = self.end_to_end.iter().flatten();
        let layers = self.per_layer.iter().flatten();
        Json::obj(
            e2e.map(|(def, value)| (def.name, entry(*value, def.unit)))
                .chain(
                    layers.map(|(def, value)| (def.name, entry(value.unwrap_or(0.0), def.unit))),
                ),
        )
    }

    /// The `end_to_end` / `per_layer` objects of the report file, which
    /// lists only what applies.
    pub fn report_sections(&self) -> Vec<(&'static str, Json)> {
        let mut sections = Vec::new();
        if let Some(e2e) = &self.end_to_end {
            let fields = e2e
                .iter()
                .map(|(def, value)| (def.name, entry(*value, def.unit)));
            sections.push(("end_to_end", Json::obj(fields)));
        }
        if let Some(layers) = &self.per_layer {
            let fields = layers
                .iter()
                .filter_map(|(def, value)| value.map(|value| (def.name, entry(value, def.unit))));
            sections.push(("per_layer", Json::obj(fields)));
        }
        sections
    }
}

/// `{"value": v, "unit": u}`, the shape of a metric in every output.
fn entry(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
}

/// `BENCHMARK.json`, generated from the tables above.
pub fn manifest() -> Json {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "perf/Cargo.toml",
        "--",
        "run",
    ];
    Json::obj([
        (
            "command",
            Json::Arr(command.into_iter().map(Json::str).collect()),
        ),
        ("paths", Json::Arr(vec![Json::str("perf")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                Workload::ALL
                    .into_iter()
                    .map(|w| {
                        Json::obj([("name", Json::str(w.name())), ("why", Json::str(w.why()))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|def| {
                        Json::obj([
                            ("name", Json::str(def.name)),
                            ("unit", Json::str(def.unit)),
                            ("better", Json::str(def.better.name())),
                            ("bound", Json::Num(def.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|def| {
                        Json::obj([
                            ("name", Json::str(def.name)),
                            ("unit", Json::str(def.unit)),
                            ("better", Json::str(def.better.name())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn tables_meet_the_benchmark_contract() {
        let mut seen = HashSet::new();
        let names = (Workload::ALL.iter().map(|w| w.name()))
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} used twice");
        }
        for unit in (END_TO_END.iter().map(|m| m.unit)).chain(PER_LAYER.iter().map(|m| m.unit)) {
            assert!(unit.len() <= 16, "{unit}");
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!((2..=8).contains(&Workload::ALL.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        for workload in Workload::ALL {
            assert!(workload.why().len() <= 200 && !workload.why().contains('\n'));
            assert_eq!(Workload::parse(workload.name()), Some(workload));
        }
        // setup_s is there, in seconds, lower is better, with the largest bound.
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        for metric in END_TO_END {
            assert!(
                metric.bound > 0.0 && metric.bound <= 0.25,
                "{}",
                metric.name
            );
            assert!(metric.bound <= setup.bound, "{}", metric.name);
        }
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(manifest().to_pretty().len() <= 64 * 1024);
    }

    #[test]
    fn committed_manifest_is_the_generated_one() {
        // BENCHMARK.json sits at the repository root, one level above this
        // package; it is generated with `rsse-perf manifest`.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(Json::parse(&committed).unwrap(), manifest());
    }

    #[test]
    fn result_line_round_trips_the_metric_names() {
        let mut values = Values::default();
        for (i, def) in END_TO_END.iter().enumerate() {
            values.set(def.name, 1.0 + i as f64 / 3.0);
        }
        for (i, def) in PER_LAYER.iter().enumerate() {
            values.set(def.name, i as f64 * 0.7);
        }
        for workload in Workload::ALL {
            let measured = Measured::collect(workload, &values, true, true).unwrap();
            let parsed = Json::parse(&measured.result_metrics().to_line()).unwrap();
            let names: Vec<&str> = parsed
                .fields()
                .iter()
                .map(|(name, _)| name.as_str())
                .collect();
            let table: Vec<&str> = (END_TO_END.iter().map(|m| m.name))
                .chain(PER_LAYER.iter().map(|m| m.name))
                .collect();
            assert_eq!(names, table);
            for (name, entry) in parsed.fields() {
                let value = entry.get("value").and_then(Json::as_f64).unwrap();
                let applies = PER_LAYER
                    .iter()
                    .find(|m| m.name == name)
                    .is_none_or(|m| m.applies_to(workload));
                let expected = if applies {
                    values.get(name).unwrap()
                } else {
                    0.0
                };
                assert_eq!(value, expected, "{name}");
                assert!(matches!(entry.get("unit"), Some(Json::Str(_))));
            }
            // The report lists only what applies; the text lines likewise.
            let sections = measured.report_sections();
            let listed = sections[1].1.fields().len();
            let applying = PER_LAYER.iter().filter(|m| m.applies_to(workload)).count();
            assert_eq!(listed, applying);
            assert_eq!(measured.lines().len(), END_TO_END.len() + applying);
        }
        // A metric that applies but was not measured is an error, as is NaN.
        let mut partial = Values::default();
        partial.set("setup_s", f64::NAN);
        assert!(Measured::collect(Workload::MemPoint, &partial, true, false).is_err());
        assert!(Measured::collect(Workload::MemPoint, &Values::default(), false, true).is_err());
    }
}
