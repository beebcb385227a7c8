//! Property-based tests for the statistics substrate.

use proptest::collection::vec;
use proptest::prelude::*;
use sketch_stats::{
    average_ranks, hfd_interval, hoeffding_interval, pearson, rankit_transform, rin_correlation,
    spearman, Moments, ValueBounds,
};

fn finite_vec(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f64>> {
    vec(-1e4f64..1e4, len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Pearson is symmetric and bounded.
    #[test]
    fn pearson_symmetric_and_bounded(x in finite_vec(2..200), y in finite_vec(2..200)) {
        let n = x.len().min(y.len());
        let (x, y) = (&x[..n], &y[..n]);
        if let Ok(r) = pearson(x, y) {
            prop_assert!((-1.0..=1.0).contains(&r));
            prop_assert_eq!(r, pearson(y, x).unwrap());
        }
    }

    /// Pearson is invariant under positive affine maps and flips sign
    /// under negation.
    #[test]
    fn pearson_affine_invariance(
        x in finite_vec(3..100),
        y in finite_vec(3..100),
        scale in 0.001f64..100.0,
        shift in -1e4f64..1e4,
    ) {
        let n = x.len().min(y.len());
        let (x, y) = (&x[..n], &y[..n]);
        if let Ok(r) = pearson(x, y) {
            let x2: Vec<f64> = x.iter().map(|v| scale * v + shift).collect();
            if let Ok(r2) = pearson(&x2, y) {
                prop_assert!((r - r2).abs() < 1e-6, "{r} vs {r2}");
            }
            let x3: Vec<f64> = x.iter().map(|v| -v).collect();
            if let Ok(r3) = pearson(&x3, y) {
                prop_assert!((r + r3).abs() < 1e-6);
            }
        }
    }

    /// Spearman is invariant under strictly monotone transforms.
    #[test]
    fn spearman_monotone_invariance(x in finite_vec(3..100), y in finite_vec(3..100)) {
        let n = x.len().min(y.len());
        let (x, y) = (&x[..n], &y[..n]);
        if let Ok(rho) = spearman(x, y) {
            // v³ is strictly monotone and overflow-free on the input range.
            let x2: Vec<f64> = x.iter().map(|v| v.powi(3)).collect();
            if let Ok(rho2) = spearman(&x2, y) {
                prop_assert!((rho - rho2).abs() < 1e-9);
            }
        }
    }

    /// Rank sums are invariant: Σ ranks = n(n+1)/2.
    #[test]
    fn rank_sum_invariant(x in finite_vec(1..300)) {
        let ranks = average_ranks(&x);
        let n = x.len() as f64;
        let sum: f64 = ranks.iter().sum();
        prop_assert!((sum - n * (n + 1.0) / 2.0).abs() < 1e-6);
    }

    /// Rankit scores are finite and order-isomorphic to the data.
    #[test]
    fn rankit_is_finite_and_monotone(x in finite_vec(1..200)) {
        let h = rankit_transform(&x);
        prop_assert!(h.iter().all(|v| v.is_finite()));
        for i in 0..x.len() {
            for j in 0..x.len() {
                if x[i] < x[j] {
                    prop_assert!(h[i] < h[j]);
                }
            }
        }
    }

    /// RIN correlation is bounded when defined.
    #[test]
    fn rin_bounded(x in finite_vec(3..100), y in finite_vec(3..100)) {
        let n = x.len().min(y.len());
        if let Ok(r) = rin_correlation(&x[..n], &y[..n]) {
            prop_assert!((-1.0..=1.0).contains(&r));
        }
    }

    /// Welford moments agree with naive two-pass computations.
    #[test]
    fn moments_match_naive(x in finite_vec(1..300)) {
        let m: Moments = x.iter().copied().collect();
        let n = x.len() as f64;
        let mean = x.iter().sum::<f64>() / n;
        let var = x.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
        prop_assert!((m.mean().unwrap() - mean).abs() < 1e-6 * (1.0 + mean.abs()));
        prop_assert!((m.population_variance().unwrap() - var).abs() < 1e-4 * (1.0 + var));
        prop_assert_eq!(m.min().unwrap(), x.iter().copied().fold(f64::INFINITY, f64::min));
        prop_assert_eq!(m.max().unwrap(), x.iter().copied().fold(f64::NEG_INFINITY, f64::max));
    }

    /// The Hoeffding interval always contains the plain Pearson estimate
    /// computed on the same sample, for any alpha.
    #[test]
    fn hoeffding_contains_sample_estimate(
        x in finite_vec(3..150),
        y in finite_vec(3..150),
        alpha in 0.01f64..0.5,
    ) {
        let n = x.len().min(y.len());
        let (x, y) = (&x[..n], &y[..n]);
        let bounds = ValueBounds::from_samples(x, y);
        if let (Ok(r), Ok(ci)) = (pearson(x, y), hoeffding_interval(x, y, bounds, alpha)) {
            prop_assert!(ci.contains(r), "r={r} not in {ci:?}");
            prop_assert!(ci.low >= -1.0 && ci.high <= 1.0);
        }
    }

    /// Hoeffding intervals shrink (weakly) as alpha grows.
    #[test]
    fn hoeffding_monotone_in_alpha(x in finite_vec(5..100), y in finite_vec(5..100)) {
        let n = x.len().min(y.len());
        let (x, y) = (&x[..n], &y[..n]);
        let bounds = ValueBounds::from_samples(x, y);
        if let (Ok(strict), Ok(loose)) = (
            hoeffding_interval(x, y, bounds, 0.01),
            hoeffding_interval(x, y, bounds, 0.3),
        ) {
            prop_assert!(strict.length() >= loose.length() - 1e-12);
        }
    }

    /// HFD lengths are finite and non-negative.
    #[test]
    fn hfd_length_sane(x in finite_vec(3..100), y in finite_vec(3..100)) {
        let n = x.len().min(y.len());
        let (x, y) = (&x[..n], &y[..n]);
        let bounds = ValueBounds::from_samples(x, y);
        if let Ok(ci) = hfd_interval(x, y, bounds, 0.05) {
            prop_assert!(ci.length() >= 0.0);
            prop_assert!(ci.length().is_finite());
        }
    }
}
