//! Order statistics for latencies and for repeated runs.

/// The `q`-quantile of an ascending slice by nearest rank: the smallest
/// element with at least `q` of the samples at or below it.
pub fn quantile_sorted(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    sorted[tail_rank(sorted.len(), q) - 1]
}

/// Nearest rank (1-based) of the `q`-quantile among `n` samples.
fn tail_rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// The highest of the tail percentiles 99 / 95 / 90 / 75 that still has at
/// least ten samples beyond it, or the median when none has: a percentile
/// resting on fewer samples is one outlier, not a measurement.
pub fn tail_quantile(samples: usize) -> f64 {
    const MIN_BEYOND: usize = 10;
    [0.99, 0.95, 0.90, 0.75]
        .into_iter()
        .find(|&q| samples >= tail_rank(samples, q) + MIN_BEYOND)
        .unwrap_or(0.5)
}

/// Smallest of the values: the best of several timings of one thing.
pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Median of unsorted values (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), which is how the benchmark contract
/// defines a metric's spread. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let at = |k: usize| {
        // Position k(n+1)/4 on a 1-based scale, interpolated, clamped.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Distance between the quartiles as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let mid = median(values);
    if mid == 0.0 {
        0.0
    } else {
        (q3 - q1) / mid.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        // p99 of 1000 samples has exactly ten beyond rank 990.
        assert_eq!(tail_quantile(1000), 0.99);
        assert_eq!(tail_quantile(999), 0.95);
        // p95 of 200 has ten beyond; of 199 it has nine.
        assert_eq!(tail_quantile(200), 0.95);
        assert_eq!(tail_quantile(199), 0.90);
        assert_eq!(tail_quantile(100), 0.90);
        assert_eq!(tail_quantile(40), 0.75);
        assert_eq!(tail_quantile(39), 0.5);
        assert_eq!(tail_quantile(1), 0.5);
        for n in 1..3000 {
            let q = tail_quantile(n);
            if q > 0.5 {
                assert!(n - tail_rank(n, q) >= 10, "n={n} q={q}");
            }
        }
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile_sorted(&sorted, 0.5), 50);
        assert_eq!(quantile_sorted(&sorted, 0.99), 99);
        assert_eq!(quantile_sorted(&sorted, 1.0), 100);
        assert_eq!(quantile_sorted(&[7], 0.99), 7);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&values);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert_eq!(median(&values), 5.5);
        assert!((spread(&values) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, q3) = quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]);
        assert_eq!((q1, q3), (1.5, 12.0));
        // Two values extrapolate to the values themselves after clamping.
        let (q1, q3) = quartiles(&[1.0, 3.0]);
        assert_eq!((q1, q3), (0.5, 3.5));
    }
}
