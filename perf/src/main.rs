//! `rsse-perf`: the layered benchmark of the range-search system.
//!
//! ```text
//! rsse-perf run --workload W --seed N [--seconds S] [--trace 0|1]
//! rsse-perf run --all --seed N [--seconds S] [--trace 0|1]
//! rsse-perf repeat [--sets 2] [--runs 5] [--seed N] [--seconds S]
//! rsse-perf manifest
//! rsse-perf --self-test
//! ```
//!
//! One process per workload run. `--trace 0` measures the end-to-end
//! metrics (three set-ups, timed phase, reopens), `--trace 1` the per-layer
//! metrics (one set-up, timed phase, traced pass); without `--trace` a run
//! does both. Every metric is printed as `name value unit`, the report goes
//! to `target/perf/report-W.json`, spans to `target/perf/trace-W.jsonl`,
//! and the last line of standard output is the result object the benchmark
//! contract asks for. The exit code is non-zero if any answer was wrong.

mod adapter;
mod check;
mod env;
mod inputs;
mod json;
mod metrics;
mod repeat;
mod static_run;
mod stats;
mod trace;
mod updates_run;

use check::Checker;
use json::Json;
use metrics::{Measured, Values, Workload, REPORT_SCHEMA, RUN_SECONDS};
use std::collections::HashMap;
use std::process::{Command, ExitCode};
use trace::Tracer;

/// One workload run, as asked for on the command line.
pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    pub end_to_end: bool,
    pub per_layer: bool,
}

/// What a workload runner hands back.
pub struct RunOutput {
    pub values: Values,
    pub checker: Checker,
    /// Extra fields of the report (digests, sample counts).
    pub report: Vec<(&'static str, Json)>,
    pub tracer: Option<Tracer>,
}

const USAGE: &str = "usage:
  rsse-perf run --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]
  rsse-perf run --all --seed <n> [--seconds <s>] [--trace 0|1]
  rsse-perf repeat [--sets 2] [--runs 5] [--seed <n>] [--seconds <s>]
  rsse-perf manifest
  rsse-perf --self-test
workloads: mem_point mem_scan disk_hot disk_hot_batch updates_mixed";

/// `--flag value` pairs and bare `--flag`s after the subcommand.
struct Flags(HashMap<String, Option<String>>);

impl Flags {
    fn parse(args: &[String], bare: &[&str]) -> Result<Flags, String> {
        let mut flags = HashMap::new();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            let name = arg
                .strip_prefix("--")
                .ok_or(format!("unexpected argument {arg}"))?;
            let value = match bare.contains(&name) {
                true => None,
                false => Some(
                    args.next()
                        .ok_or(format!("--{name} needs a value"))?
                        .clone(),
                ),
            };
            flags.insert(name.to_string(), value);
        }
        Ok(Flags(flags))
    }

    fn has(&self, name: &str) -> bool {
        self.0.contains_key(name)
    }

    fn get<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.0.get(name) {
            Some(Some(text)) => text
                .parse()
                .map(Some)
                .map_err(|_| format!("--{name}: cannot read {text:?}")),
            _ => Ok(None),
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run_command(&args[1..]),
        Some("repeat") => repeat::command(&args[1..]),
        Some("manifest") => {
            print!("{}", metrics::manifest().to_pretty());
            Ok(true)
        }
        Some("--self-test") => check::self_test().map(|()| {
            println!("self-test passed: wrong ids, a wrong count and an Err were each counted");
            true
        }),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

fn run_command(args: &[String]) -> Result<bool, String> {
    let flags = Flags::parse(args, &["all"])?;
    let seed: u64 = flags.get("seed")?.ok_or("run needs --seed")?;
    let seconds: f64 = flags.get("seconds")?.unwrap_or(RUN_SECONDS as f64);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    let trace: Option<u8> = flags.get("trace")?;
    let (end_to_end, per_layer) = match trace {
        None => (true, true),
        Some(0) => (true, false),
        Some(1) => (false, true),
        Some(_) => return Err("--trace is 0 or 1".to_string()),
    };
    if flags.has("all") {
        return run_all(args);
    }
    let name: String = flags
        .get("workload")?
        .ok_or("run needs --workload or --all")?;
    let workload = Workload::parse(&name).ok_or(format!("unknown workload {name}\n{USAGE}"))?;
    run_one(&RunArgs {
        workload,
        seed,
        seconds,
        end_to_end,
        per_layer,
    })
}

/// `--all`: one child process per workload, so no run inherits another's
/// heap, page cache footprint or peak RSS.
fn run_all(args: &[String]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let passed: Vec<String> = args.iter().filter(|a| *a != "--all").cloned().collect();
    let mut all_ok = true;
    for workload in Workload::ALL {
        println!("== {}", workload.name());
        let status = Command::new(&exe)
            .arg("run")
            .args(["--workload", workload.name()])
            .args(&passed)
            .status()
            .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
        all_ok &= status.success();
    }
    Ok(all_ok)
}

fn run_one(args: &RunArgs) -> Result<bool, String> {
    let out_dir = env::out_dir().map_err(|e| format!("cannot create target/perf: {e}"))?;
    // The guard removes the scratch directory when this function returns
    // or unwinds, whatever the outcome.
    let tmp = env::TmpRoot::create().map_err(|e| format!("cannot create scratch dir: {e}"))?;
    let name = args.workload.name();
    let output = match args.workload {
        Workload::UpdatesMixed => updates_run::run(args, tmp.path()),
        _ => static_run::run(args, tmp.path()),
    };
    drop(tmp);
    let output = output.map_err(|e| format!("{name}: {e}"))?;
    let checker = &output.checker;
    let measured = Measured::collect(
        args.workload,
        &output.values,
        args.end_to_end,
        args.per_layer,
    )
    .map_err(|e| format!("{name}: {e}"))?;

    for line in measured.lines() {
        println!("{line}");
    }
    println!("ops {} count", checker.ops);
    println!("failed_ops {} count", checker.failed);
    for failure in &checker.failures {
        eprintln!("FAILED {failure}");
    }

    let mode = match (args.end_to_end, args.per_layer) {
        (true, true) => "both",
        (true, false) => "end_to_end",
        _ => "per_layer",
    };
    let mut report = vec![
        ("schema", Json::Num(f64::from(REPORT_SCHEMA))),
        ("workload", Json::str(name)),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("mode", Json::str(mode)),
        ("scheme", Json::str(adapter::SCHEME)),
        ("nproc", Json::Num(env::nproc() as f64)),
        ("rustc", Json::str(env::rustc_version())),
        ("commit", Json::str(env::commit())),
        ("ops", Json::Num(checker.ops as f64)),
        ("failed_ops", Json::Num(checker.failed as f64)),
        (
            "failures",
            Json::Arr(checker.failures.iter().map(Json::str).collect()),
        ),
    ];
    report.extend(output.report);
    report.extend(measured.report_sections());
    let report_path = out_dir.join(format!("report-{name}.json"));
    std::fs::write(&report_path, Json::obj(report).to_pretty())
        .map_err(|e| format!("cannot write {}: {e}", report_path.display()))?;
    if let Some(tracer) = &output.tracer {
        let trace_path = out_dir.join(format!("trace-{name}.jsonl"));
        tracer
            .write_jsonl(&trace_path, name, args.seed)
            .map_err(|e| format!("cannot write {}: {e}", trace_path.display()))?;
    }

    let correct = checker.failed == 0;
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(checker.ops as f64)),
        ("failed", Json::Num(checker.failed as f64)),
        ("metrics", measured.result_metrics()),
    ]);
    println!("{}", result.to_line());
    Ok(correct)
}
