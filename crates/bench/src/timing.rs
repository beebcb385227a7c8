//! Wall-clock measurement and percentile summaries (Table 2 reports
//! percentiles, not only means).

use std::time::Instant;

/// Run `f` once and return `(result, elapsed milliseconds)`.
pub fn time_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// The `p`-th percentile of `values` by linear interpolation. `p` is
/// clamped into `[0, 100]` (a request for p150 reports the maximum — the
/// clamp — instead of indexing past the sorted data), and NaN `p` is
/// treated as 0. Returns 0.0 for an empty slice; with 1–2 samples the
/// interpolation degrades gracefully (single sample: that sample for
/// every `p`; two samples: linear between them).
#[must_use]
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let p = if p.is_nan() { 0.0 } else { p.clamp(0.0, 100.0) };
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0) * (sorted.len() as f64 - 1.0);
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let w = rank - lo as f64;
        sorted[lo] * (1.0 - w) + sorted[hi] * w
    }
}

/// Percentile summary in the shape of the paper's Table 2 rows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Mean.
    pub mean: f64,
    /// Sample standard deviation.
    pub std_dev: f64,
    /// 75th percentile.
    pub p75: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// 99.9th percentile.
    pub p999: f64,
}

impl LatencySummary {
    /// Summarize a set of measurements (milliseconds).
    #[must_use]
    pub fn of(values: &[f64]) -> Self {
        let m: sketch_stats::Moments = values.iter().copied().collect();
        Self {
            mean: m.mean().unwrap_or(0.0),
            std_dev: m.sample_std().unwrap_or(0.0),
            p75: percentile(values, 75.0),
            p90: percentile(values, 90.0),
            p99: percentile(values, 99.0),
            p999: percentile(values, 99.9),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_basics() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert!((percentile(&v, 50.0) - 50.5).abs() < 1e-9);
        assert!((percentile(&v, 75.0) - 75.25).abs() < 1e-9);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn one_and_two_sample_edge_cases() {
        // One sample: every percentile is that sample — including the
        // extreme tails the latency summaries request.
        for p in [0.0, 50.0, 95.0, 99.0, 99.9, 100.0] {
            assert_eq!(percentile(&[42.0], p), 42.0, "p={p}");
        }
        // Two samples: linear interpolation between them, never beyond.
        assert_eq!(percentile(&[10.0, 20.0], 0.0), 10.0);
        assert_eq!(percentile(&[10.0, 20.0], 50.0), 15.0);
        assert_eq!(percentile(&[10.0, 20.0], 100.0), 20.0);
        let p999 = percentile(&[10.0, 20.0], 99.9);
        assert!((19.0..=20.0).contains(&p999), "{p999}");
        // And the full summary is finite + ordered on tiny inputs.
        for v in [&[7.0][..], &[7.0, 9.0][..]] {
            let s = LatencySummary::of(v);
            assert!(s.mean.is_finite() && s.std_dev.is_finite());
            assert!(s.p75 <= s.p90 && s.p90 <= s.p99 && s.p99 <= s.p999);
            assert!(s.p999 <= 9.0);
        }
    }

    #[test]
    fn out_of_range_percentiles_clamp() {
        let v = [1.0, 2.0, 3.0];
        assert_eq!(percentile(&v, 150.0), 3.0, "beyond 100 clamps to max");
        assert_eq!(percentile(&v, -20.0), 1.0, "below 0 clamps to min");
        assert_eq!(percentile(&v, f64::NAN), 1.0, "NaN treated as p0");
    }

    #[test]
    fn percentiles_are_monotone() {
        let v: Vec<f64> = (0..57).map(|i| ((i * 37) % 100) as f64).collect();
        let mut prev = f64::NEG_INFINITY;
        for p in [0.0, 10.0, 50.0, 75.0, 90.0, 99.0, 99.9, 100.0] {
            let x = percentile(&v, p);
            assert!(x >= prev);
            prev = x;
        }
    }

    #[test]
    fn summary_shape() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = LatencySummary::of(&v);
        assert!((s.mean - 500.5).abs() < 1e-9);
        assert!((s.p75 - 750.25).abs() < 1e-6);
        assert!(s.p75 < s.p90 && s.p90 < s.p99 && s.p99 < s.p999);
    }

    #[test]
    fn time_ms_measures_something() {
        let (out, ms) = time_ms(|| (0..100_000).sum::<u64>());
        assert_eq!(out, 4_999_950_000);
        assert!(ms >= 0.0);
    }
}
