//! `rsse-perf repeat`: is the benchmark steady enough for its own bounds?
//!
//! Runs every workload `--runs` times in each of `--sets` alternating sets
//! (run r of every set uses seed `--seed + r`, so sets see the same
//! inputs), then for each end-to-end metric prints the median, the
//! quartiles and their spread over each set's runs, and how much worse the
//! last set's median is than the first's — all against the metric's bound.
//! A breach (spread or difference beyond the bound, an exact count that
//! differs between sets for one seed, any failed operation) makes the exit
//! code non-zero. This is the check the bounds in `BENCHMARK.json` were
//! confirmed with; its output is committed as `baseline/repeat.txt`.

use crate::json::Json;
use crate::metrics::{Better, Workload, END_TO_END, RUN_SECONDS};
use crate::{env, stats, Flags};
use std::process::Command;

/// `values[set][run]` of one metric on one workload.
type Samples = Vec<Vec<f64>>;

pub fn command(args: &[String]) -> Result<bool, String> {
    let flags = Flags::parse(args, &[])?;
    let sets: usize = flags.get("sets")?.unwrap_or(2);
    let runs: usize = flags.get("runs")?.unwrap_or(5);
    let seed: u64 = flags.get("seed")?.unwrap_or(1);
    let seconds: f64 = flags.get("seconds")?.unwrap_or(RUN_SECONDS as f64);
    if sets == 0 || runs < 2 {
        return Err("repeat needs --sets >= 1 and --runs >= 2".to_string());
    }
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    println!(
        "# rsse-perf repeat: {sets} sets x {runs} runs x {} workloads, seeds {seed}..{}, {seconds} s timed",
        Workload::ALL.len(),
        seed + runs as u64 - 1
    );
    println!(
        "# nproc {}  {}  commit {}",
        env::nproc(),
        env::rustc_version(),
        env::commit()
    );

    // samples[workload][metric][set][run]
    let mut samples: Vec<Vec<Samples>> = Workload::ALL
        .iter()
        .map(|_| END_TO_END.iter().map(|_| vec![Vec::new(); sets]).collect())
        .collect();
    let mut failed_ops = 0u64;
    // Sets alternate run by run, so slow drift of the machine lands on
    // every set alike.
    for run in 0..runs {
        // `set` names the run in messages as well as indexing the samples.
        #[allow(clippy::needless_range_loop)]
        for set in 0..sets {
            for (w, workload) in Workload::ALL.into_iter().enumerate() {
                let output = Command::new(&exe)
                    .args(["run", "--workload", workload.name(), "--trace", "0"])
                    .args(["--seed", &(seed + run as u64).to_string()])
                    .args(["--seconds", &seconds.to_string()])
                    .output()
                    .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
                let stdout = String::from_utf8_lossy(&output.stdout);
                let what = format!("{} set {set} run {run}", workload.name());
                let line = stdout.lines().last().ok_or(format!("{what}: no output"))?;
                let result = Json::parse(line).map_err(|e| format!("{what}: {e}"))?;
                let number = |json: Option<&Json>| json.and_then(Json::as_f64);
                failed_ops +=
                    number(result.get("failed")).ok_or(format!("{what}: no result"))? as u64;
                for (m, metric) in END_TO_END.iter().enumerate() {
                    let value = result.get("metrics").and_then(|all| all.get(metric.name));
                    let value = number(value.and_then(|entry| entry.get("value")))
                        .ok_or(format!("{what}: {} missing", metric.name))?;
                    samples[w][m][set].push(value);
                }
                eprintln!("{what}: done");
            }
        }
    }

    let mut breaches = 0usize;
    println!(
        "{:<15} {:<23} {:>12} {:>12} {:>12} {:>8} {:>9} {:>6}  verdict",
        "workload", "metric", "median", "q1", "q3", "spread", "set-diff", "bound"
    );
    for (w, workload) in Workload::ALL.into_iter().enumerate() {
        for (m, metric) in END_TO_END.iter().enumerate() {
            let by_set = &samples[w][m];
            let pooled: Vec<f64> = by_set.iter().flatten().copied().collect();
            let (q1, q3) = stats::quartiles(&pooled);
            // The spread that counts is that of one set's runs.
            let spread = by_set
                .iter()
                .map(|set| stats::spread(set))
                .fold(0.0, f64::max);
            let first = stats::median(&by_set[0]);
            let last = stats::median(&by_set[sets - 1]);
            let worse = match metric.better {
                Better::Lower => (last - first) / first,
                Better::Higher => (first - last) / first,
            };
            let differs = metric.exact
                && (0..runs).any(|run| by_set.iter().any(|set| set[run] != by_set[0][run]));
            let verdict = if differs {
                "BREACH: exact count differs between sets"
            } else if worse > metric.bound {
                "BREACH: sets differ by more than the bound"
            } else if metric.name != "setup_s" && spread > metric.bound {
                "BREACH: spread beyond the bound"
            } else if spread * 3.0 > metric.bound {
                "ok (spread above a third of the bound)"
            } else {
                "ok"
            };
            breaches += usize::from(verdict.starts_with("BREACH"));
            println!(
                "{:<15} {:<23} {:>12.4} {:>12.4} {:>12.4} {:>7.2}% {:>+8.2}% {:>5.0}%  {verdict}",
                workload.name(),
                metric.name,
                stats::median(&pooled),
                q1,
                q3,
                spread * 100.0,
                worse * 100.0,
                metric.bound * 100.0
            );
        }
    }
    println!("# every run, set by set:");
    for (w, workload) in Workload::ALL.into_iter().enumerate() {
        for (m, metric) in END_TO_END.iter().enumerate() {
            let sets: Vec<String> = (samples[w][m].iter())
                .map(|set| {
                    set.iter()
                        .map(|v| format!("{v:.5}"))
                        .collect::<Vec<_>>()
                        .join(" ")
                })
                .collect();
            println!(
                "# {} {}: {}",
                workload.name(),
                metric.name,
                sets.join(" | ")
            );
        }
    }
    println!("# failed operations: {failed_ops}; breaches: {breaches}");
    Ok(breaches == 0 && failed_ops == 0)
}
