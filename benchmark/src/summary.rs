//! Order statistics: medians, the tail-percentile picker, and the
//! quartiles the acceptance rule is written in.

/// Sort ascending; inputs are finite timings and counts.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_unstable_by(f64::total_cmp);
    values
}

/// Nearest-rank percentile of an ascending slice (`p` in `(0, 1]`).
/// `0.0` for an empty slice, so an unused layer reads as zero.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values.to_vec()), 0.5)
}

/// How many samples must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// The tail percentile `latency_p99_ms` is read at: p99 when at least
/// [`MIN_BEYOND`] of the `n` samples lie beyond it, else the highest of
/// p95 / p90 / p75 that has that many, else the median.
pub fn tail_percentile(n: usize) -> f64 {
    [0.99, 0.95, 0.90, 0.75]
        .into_iter()
        .find(|p| beyond(n, *p) >= MIN_BEYOND)
        .unwrap_or(0.5)
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    n - ((p * n as f64).ceil() as usize).clamp(usize::from(n > 0), n)
}

/// `(q1, median, q3)` exactly as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) computes
/// them — the acceptance rule for this benchmark is written in those
/// terms. `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let data = sorted(values.to_vec());
    let n = data.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Interquartile range as a share of the median — the run-to-run
/// spread. `None` when it cannot be formed (too few values, median 0).
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q2, q3) = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_honours_ten_samples_beyond() {
        // p99 needs 1000 samples before ten lie beyond it.
        assert_eq!(tail_percentile(999), 0.95);
        assert_eq!(tail_percentile(1000), 0.99);
        assert_eq!(tail_percentile(200), 0.95);
        assert_eq!(tail_percentile(199), 0.90);
        assert_eq!(tail_percentile(100), 0.90);
        assert_eq!(tail_percentile(99), 0.75);
        assert_eq!(tail_percentile(40), 0.75);
        assert_eq!(tail_percentile(39), 0.5);
        assert_eq!(tail_percentile(0), 0.5);
        for n in [40usize, 100, 250, 1000, 8000, 330_000] {
            assert!(beyond(n, tail_percentile(n)) >= MIN_BEYOND, "n={n}");
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(beyond(100, 0.99), 1);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([2, 4, 4, 5, 7, 9, 12], n=4) == [4, 5, 9]
        let v = [12.0, 2.0, 4.0, 9.0, 4.0, 7.0, 5.0];
        assert_eq!(quartiles(&v), Some((4.0, 5.0, 9.0)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&[10.0, 10.0, 10.0, 10.0]), Some(0.0));
        assert_eq!(spread(&[0.0, 0.0]), None);
    }
}
