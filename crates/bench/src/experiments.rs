//! One function per table/figure of the paper's evaluation section.
//!
//! Every function builds its own datasets from the workload generators
//! (reproducibly, from `Scale::seed`), runs the measurement, prints an
//! aligned table and writes a CSV under `target/experiments/`. Absolute
//! timings obviously differ from the paper's 2016 Java/i7 testbed; the
//! quantities to compare are the *relative* ones (orderings, ratios,
//! crossovers), which EXPERIMENTS.md tracks.

use crate::report::{mib, millis, secs, Report};
use crate::scale::{DatasetKind, Scale};
use rand::SeedableRng;
use rand_chacha::ChaCha20Rng;
use rsse_core::schemes::plain_sse::PlainSseScheme;
use rsse_core::schemes::{AnyScheme, SchemeKind};
use rsse_core::{Dataset, Evaluation, RangeScheme};
use rsse_cover::{Domain, Tdag};
use rsse_updates::{UpdateConfig, UpdateEntry, UpdateManager};
use rsse_workload::{
    gowalla_like, percent_of_domain, random_queries_of_len, usps_like, DatasetProfile,
};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

fn make_dataset(kind: DatasetKind, n: usize, scale: &Scale, rng: &mut ChaCha20Rng) -> Dataset {
    match kind {
        DatasetKind::Gowalla => gowalla_like(n, scale.gowalla_domain, rng),
        DatasetKind::Usps => usps_like(n, scale.usps_domain, rng),
    }
}

/// Dataset used by the Figure 6–7 range-size sweeps: same distributional
/// profile, smaller domain (the Constant schemes' O(R) search makes
/// full-domain sweeps over the Figure-5 domain impractically slow at laptop
/// scale; the trends are domain-size independent).
fn make_sweep_dataset(kind: DatasetKind, scale: &Scale, rng: &mut ChaCha20Rng) -> Dataset {
    match kind {
        DatasetKind::Gowalla => gowalla_like(scale.sweep_n, scale.sweep_domain, rng),
        DatasetKind::Usps => usps_like(scale.sweep_n, scale.sweep_domain, rng),
    }
}

/// The scheme set shown in the index-cost experiments (Figure 5 / Table 2).
const INDEX_SCHEMES: [SchemeKind; 5] = [
    SchemeKind::ConstantBrc,
    SchemeKind::LogarithmicBrc,
    SchemeKind::LogarithmicSrc,
    SchemeKind::LogarithmicSrcI,
    SchemeKind::Pb,
];

/// **Table 1 (measured):** per-scheme query size, search time, storage and
/// false positives on a common workload, next to the paper's asymptotic
/// claims.
pub fn table1(scale: &Scale) -> Report {
    let mut rng = ChaCha20Rng::seed_from_u64(scale.seed);
    let dataset = make_dataset(DatasetKind::Gowalla, scale.gowalla_n, scale, &mut rng);
    let domain = *dataset.domain();
    let queries = random_queries_of_len(
        &domain,
        percent_of_domain(&domain, 1.0),
        scale.queries_per_point,
        &mut rng,
    );

    let mut report = Report::new(
        format!(
            "Table 1 — measured costs ({} n={} m={})",
            DatasetKind::Gowalla.name(),
            dataset.len(),
            domain.size()
        ),
        &[
            "scheme",
            "asymptotic storage",
            "index entries",
            "index MiB",
            "build s",
            "avg tokens",
            "avg query bytes",
            "avg search ms",
            "avg false pos",
        ],
    );

    let asymptotics = |kind: SchemeKind| match kind {
        SchemeKind::Quadratic => "O(n m^2)",
        SchemeKind::ConstantBrc | SchemeKind::ConstantUrc | SchemeKind::PlainSse => "O(n)",
        SchemeKind::LogarithmicBrc
        | SchemeKind::LogarithmicUrc
        | SchemeKind::LogarithmicSrc
        | SchemeKind::LogarithmicSrcI => "O(n log m)",
        SchemeKind::Pb => "O(n log n log m)",
    };

    for kind in SchemeKind::EVALUATED {
        let mut build_rng = ChaCha20Rng::seed_from_u64(scale.seed ^ 0xA5A5);
        let start = Instant::now();
        let scheme = AnyScheme::build(kind, &dataset, &mut build_rng);
        let build_time = start.elapsed();
        let stats = scheme.index_stats();

        let mut total_tokens = 0usize;
        let mut total_bytes = 0usize;
        let mut total_fp = 0usize;
        let mut search_time = Duration::ZERO;
        for query in &queries {
            let start = Instant::now();
            let outcome = scheme.query(*query);
            search_time += start.elapsed();
            total_tokens += outcome.stats.tokens_sent;
            total_bytes += outcome.stats.token_bytes;
            let eval = Evaluation::compare(&outcome.ids, &dataset.matching_ids(*query));
            assert!(eval.is_complete(), "{} missed results", scheme.name());
            total_fp += eval.false_positives;
        }
        let q = queries.len().max(1);
        report.push_row(vec![
            scheme.name().to_string(),
            asymptotics(kind).to_string(),
            stats.entries.to_string(),
            mib(stats.storage_bytes),
            secs(build_time),
            format!("{:.1}", total_tokens as f64 / q as f64),
            format!("{:.0}", total_bytes as f64 / q as f64),
            millis(search_time / q as u32),
            format!("{:.1}", total_fp as f64 / q as f64),
        ]);
    }
    report
}

/// **Figure 5(a)/(b):** index size and construction time as a function of the
/// dataset size, on the Gowalla-like workload.
pub fn fig5_index_costs(scale: &Scale) -> Report {
    let mut report = Report::new(
        format!(
            "Figure 5 — index size (a) and construction time (b), {}",
            DatasetKind::Gowalla.name()
        ),
        &["scheme", "n", "index entries", "index MiB", "build s"],
    );
    for &n in &scale.fig5_sizes {
        let mut rng = ChaCha20Rng::seed_from_u64(scale.seed + n as u64);
        let dataset = make_dataset(DatasetKind::Gowalla, n, scale, &mut rng);
        for kind in INDEX_SCHEMES {
            let start = Instant::now();
            let scheme = AnyScheme::build(kind, &dataset, &mut rng);
            let build_time = start.elapsed();
            let stats = scheme.index_stats();
            report.push_row(vec![
                kind.name().to_string(),
                n.to_string(),
                stats.entries.to_string(),
                mib(stats.storage_bytes),
                secs(build_time),
            ]);
        }
    }
    report
}

/// **Table 2:** index size and construction time on the USPS-like workload.
pub fn table2(scale: &Scale) -> Report {
    let mut rng = ChaCha20Rng::seed_from_u64(scale.seed + 2);
    let dataset = make_dataset(DatasetKind::Usps, scale.usps_n, scale, &mut rng);
    let profile = DatasetProfile::of(&dataset);
    let mut report = Report::new(
        format!(
            "Table 2 — index costs ({} n={} m={} distinct={})",
            DatasetKind::Usps.name(),
            profile.n,
            profile.domain_size,
            profile.distinct_values
        ),
        &["scheme", "index entries", "index MiB", "build s"],
    );
    for kind in INDEX_SCHEMES {
        let start = Instant::now();
        let scheme = AnyScheme::build(kind, &dataset, &mut rng);
        let build_time = start.elapsed();
        let stats = scheme.index_stats();
        report.push_row(vec![
            kind.name().to_string(),
            stats.entries.to_string(),
            mib(stats.storage_bytes),
            secs(build_time),
        ]);
    }
    report
}

/// **Figure 6(a)/(b):** average false-positive rate of Logarithmic-SRC and
/// Logarithmic-SRC-i as a function of the range size (% of the domain).
pub fn fig6_false_positives(kind: DatasetKind, scale: &Scale) -> Report {
    let mut rng = ChaCha20Rng::seed_from_u64(scale.seed + 6);
    let dataset = make_sweep_dataset(kind, scale, &mut rng);
    let domain = *dataset.domain();
    let src = AnyScheme::build(SchemeKind::LogarithmicSrc, &dataset, &mut rng);
    let src_i = AnyScheme::build(SchemeKind::LogarithmicSrcI, &dataset, &mut rng);

    let mut report = Report::new(
        format!(
            "Figure 6 — false positive rate vs range size ({})",
            kind.name()
        ),
        &["range %", "Logarithmic-SRC", "Logarithmic-SRC-i"],
    );
    for &pct in &scale.range_percents {
        let queries = random_queries_of_len(
            &domain,
            percent_of_domain(&domain, pct),
            scale.queries_per_point,
            &mut rng,
        );
        let rate = |scheme: &AnyScheme| {
            let mut total = 0.0;
            for query in &queries {
                let outcome = scheme.query(*query);
                let eval = Evaluation::compare(&outcome.ids, &dataset.matching_ids(*query));
                total += eval.false_positive_rate();
            }
            total / queries.len().max(1) as f64
        };
        let src_rate = rate(&src);
        let src_i_rate = rate(&src_i);
        report.push_row(vec![
            format!("{pct:.0}"),
            format!("{src_rate:.3}"),
            format!("{src_i_rate:.3}"),
        ]);
    }
    report
}

/// **Figure 7(a)/(b):** average server search time as a function of the range
/// size, for every scheme plus the pure-SSE retrieval baseline.
pub fn fig7_search_time(kind: DatasetKind, scale: &Scale) -> Report {
    let mut rng = ChaCha20Rng::seed_from_u64(scale.seed + 7);
    let dataset = make_sweep_dataset(kind, scale, &mut rng);
    let domain = *dataset.domain();
    // Timing sweeps cap the per-point query count: the Constant schemes'
    // O(R) expansion makes each full-domain query individually expensive.
    let queries_per_point = scale.queries_per_point.min(20);

    let schemes: Vec<AnyScheme> = SchemeKind::EVALUATED
        .iter()
        .map(|k| AnyScheme::build(*k, &dataset, &mut rng))
        .collect();
    let (sse_client, sse_server) = PlainSseScheme::build(&dataset, &mut rng);

    let mut columns: Vec<&str> = vec!["range %"];
    columns.extend(SchemeKind::EVALUATED.iter().map(|k| k.name()));
    columns.push("SSE (retrieval only)");
    let mut report = Report::new(
        format!(
            "Figure 7 — search time (ms) vs range size ({})",
            kind.name()
        ),
        &columns,
    );

    for &pct in &scale.range_percents {
        let queries = random_queries_of_len(
            &domain,
            percent_of_domain(&domain, pct),
            queries_per_point,
            &mut rng,
        );
        let mut row = vec![format!("{pct:.0}")];
        for scheme in &schemes {
            let start = Instant::now();
            for query in &queries {
                std::hint::black_box(scheme.query(*query));
            }
            let avg = start.elapsed() / queries.len().max(1) as u32;
            row.push(millis(avg));
        }
        // Pure-SSE baseline: retrieve exactly the distinct values present in
        // each query range (the inherent cost of fetching the r results).
        let start = Instant::now();
        for query in &queries {
            let values: Vec<u64> = dataset
                .records()
                .iter()
                .filter(|r| query.contains(r.value))
                .map(|r| r.value)
                .collect::<BTreeSet<_>>()
                .into_iter()
                .collect();
            std::hint::black_box(
                sse_client
                    .query_values(&sse_server, &values)
                    .expect("an in-memory index cannot fail"),
            );
        }
        let avg = start.elapsed() / queries.len().max(1) as u32;
        row.push(millis(avg));
        report.push_row(row);
    }
    report
}

/// **Figure 8(a)/(b):** query size in bytes and query (trapdoor) generation
/// time at the owner, as a function of the absolute range size.
pub fn fig8_query_costs(scale: &Scale) -> Report {
    let mut rng = ChaCha20Rng::seed_from_u64(scale.seed + 8);
    // The appendix uses a 2^20 domain and sizes 1–100; the dataset content
    // is irrelevant for owner-side token generation, so a small one is used.
    let domain_size = scale.gowalla_domain;
    let dataset = gowalla_like(1_000.min(scale.gowalla_n), domain_size, &mut rng);

    let kinds = [
        SchemeKind::LogarithmicBrc,
        SchemeKind::LogarithmicUrc,
        SchemeKind::LogarithmicSrc,
        SchemeKind::LogarithmicSrcI,
        SchemeKind::ConstantBrc,
        SchemeKind::ConstantUrc,
        SchemeKind::Pb,
    ];
    let schemes: Vec<AnyScheme> = kinds
        .iter()
        .map(|k| AnyScheme::build(*k, &dataset, &mut rng))
        .collect();

    let mut columns: Vec<String> = vec!["range size".to_string()];
    for k in &kinds {
        columns.push(format!("{} bytes", k.name()));
        columns.push(format!("{} ms", k.name()));
    }
    let column_refs: Vec<&str> = columns.iter().map(String::as_str).collect();
    let mut report = Report::new(
        format!("Figure 8 — query size (a) and generation time (b), m={domain_size}"),
        &column_refs,
    );

    let domain = Domain::new(domain_size);
    for &len in &scale.fig8_range_sizes {
        let queries =
            random_queries_of_len(&domain, len, scale.queries_per_point.max(20), &mut rng);
        let mut row = vec![len.to_string()];
        for scheme in &schemes {
            let mut bytes = 0usize;
            let start = Instant::now();
            for query in &queries {
                bytes += std::hint::black_box(scheme.trapdoor_cost(*query)).1;
            }
            let elapsed = start.elapsed();
            row.push(format!("{:.0}", bytes as f64 / queries.len() as f64));
            row.push(millis(elapsed / queries.len() as u32));
        }
        report.push_row(row);
    }
    report
}

/// **Ablation (beyond the paper):** BRC vs URC cover sizes and the TDAG
/// single-range-cover inflation factor, as a function of the range size.
pub fn ablation_cover(scale: &Scale) -> Report {
    let mut rng = ChaCha20Rng::seed_from_u64(scale.seed + 9);
    let domain = Domain::new(scale.gowalla_domain);
    let tdag = Tdag::new(domain);
    let mut report = Report::new(
        format!(
            "Cover ablation — BRC/URC node counts and SRC inflation (m={})",
            domain.size()
        ),
        &[
            "range size",
            "avg BRC nodes",
            "avg URC nodes",
            "max URC nodes",
            "avg SRC cover/R",
            "max SRC cover/R",
        ],
    );
    for &len in &scale.fig8_range_sizes {
        let queries =
            random_queries_of_len(&domain, len, scale.queries_per_point.max(50), &mut rng);
        let mut brc_total = 0usize;
        let mut urc_total = 0usize;
        let mut urc_max = 0usize;
        let mut inflation_total = 0.0f64;
        let mut inflation_max = 0.0f64;
        for query in &queries {
            let brc_nodes = rsse_cover::brc(&domain, *query).len();
            let urc_nodes = rsse_cover::urc(&domain, *query).len();
            brc_total += brc_nodes;
            urc_total += urc_nodes;
            urc_max = urc_max.max(urc_nodes);
            let cover = tdag.src_cover(*query);
            let inflation = cover.width() as f64 / query.len() as f64;
            inflation_total += inflation;
            inflation_max = inflation_max.max(inflation);
        }
        let q = queries.len() as f64;
        report.push_row(vec![
            len.to_string(),
            format!("{:.2}", brc_total as f64 / q),
            format!("{:.2}", urc_total as f64 / q),
            urc_max.to_string(),
            format!("{:.2}", inflation_total / q),
            format!("{:.2}", inflation_max),
        ]);
    }
    report
}

/// **Ablation (beyond the paper):** effect of the consolidation step `s` on
/// the number of active indexes, total storage and per-query token cost.
pub fn ablation_updates(scale: &Scale) -> Report {
    use rsse_core::schemes::log_brc_urc::LogScheme;

    let domain = Domain::new(1 << 16);
    let batches = 32usize;
    let batch_size = (scale.gowalla_n / batches).max(16);
    let mut report = Report::new(
        format!(
            "Update ablation — {batches} batches of {batch_size} tuples, Logarithmic-BRC instances"
        ),
        &[
            "consolidation step s",
            "active indexes",
            "consolidations",
            "total entries",
            "total MiB",
            "avg query tokens",
            "avg query ms",
        ],
    );
    for s in [0usize, 2, 4, 8] {
        let mut rng = ChaCha20Rng::seed_from_u64(scale.seed + 100 + s as u64);
        let mut manager: UpdateManager<LogScheme> = UpdateManager::new(
            domain,
            UpdateConfig {
                consolidation_step: s,
                ..UpdateConfig::default()
            },
        );
        let mut next_id = 0u64;
        for b in 0..batches {
            let entries: Vec<UpdateEntry> = (0..batch_size)
                .map(|i| {
                    let id = next_id;
                    next_id += 1;
                    UpdateEntry::insert(id, ((b * 7919 + i * 13) as u64) % domain.size())
                })
                .collect();
            manager.ingest_batch(entries, &mut rng);
        }
        let stats = manager.index_stats();
        let queries = random_queries_of_len(&domain, 1 << 12, 20, &mut rng);
        let mut tokens = 0usize;
        let start = Instant::now();
        for query in &queries {
            tokens += std::hint::black_box(manager.query(*query))
                .stats
                .tokens_sent;
        }
        let avg_time = start.elapsed() / queries.len() as u32;
        report.push_row(vec![
            if s == 0 {
                "none".to_string()
            } else {
                s.to_string()
            },
            manager.active_instances().to_string(),
            manager.consolidations().to_string(),
            stats.entries.to_string(),
            mib(stats.storage_bytes),
            format!("{:.1}", tokens as f64 / queries.len() as f64),
            millis(avg_time),
        ]);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    // The harness itself is exercised at smoke scale so that `cargo test`
    // stays fast; the real sweeps run through the `reproduce` binary.

    #[test]
    fn table1_produces_a_row_per_evaluated_scheme() {
        let report = table1(&Scale::smoke());
        assert_eq!(report.len(), SchemeKind::EVALUATED.len());
    }

    #[test]
    fn fig5_sweeps_sizes_and_schemes() {
        let scale = Scale::smoke();
        let report = fig5_index_costs(&scale);
        assert_eq!(report.len(), scale.fig5_sizes.len() * INDEX_SCHEMES.len());
    }

    #[test]
    fn table2_has_all_index_schemes() {
        let report = table2(&Scale::smoke());
        assert_eq!(report.len(), INDEX_SCHEMES.len());
    }

    #[test]
    fn fig6_rates_are_valid_probabilities() {
        let scale = Scale::smoke();
        for kind in [DatasetKind::Gowalla, DatasetKind::Usps] {
            let report = fig6_false_positives(kind, &scale);
            assert_eq!(report.len(), scale.range_percents.len());
            for line in report.to_csv().lines().skip(1) {
                let cells: Vec<&str> = line.split(',').collect();
                for cell in &cells[1..] {
                    let rate: f64 = cell.parse().unwrap();
                    assert!((0.0..=1.0).contains(&rate), "rate {rate} out of range");
                }
            }
        }
    }

    #[test]
    fn fig7_and_fig8_render() {
        let scale = Scale::smoke();
        let fig7 = fig7_search_time(DatasetKind::Usps, &scale);
        assert_eq!(fig7.len(), scale.range_percents.len());
        let fig8 = fig8_query_costs(&scale);
        assert_eq!(fig8.len(), scale.fig8_range_sizes.len());
    }

    #[test]
    fn ablations_render() {
        let scale = Scale::smoke();
        assert_eq!(ablation_cover(&scale).len(), scale.fig8_range_sizes.len());
        assert_eq!(ablation_updates(&scale).len(), 4);
    }
}
