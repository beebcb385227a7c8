//! Property-based tests for the statistics substrate.

use proptest::collection::vec;
use proptest::prelude::*;
use sketch_stats::kernel::{centered_sums, column_means};
use sketch_stats::{
    average_ranks, fisher_z_interval, hfd_interval, hoeffding_interval, pearson,
    percentile_bootstrap_ci, rankit_transform, rin_correlation, scored_estimate, spearman,
    BootstrapScratch, CorrelationEstimator, Moments, StatsError, ValueBounds,
};

/// The tightest bounds covering both samples.
fn sample_bounds(x: &[f64], y: &[f64]) -> ValueBounds {
    let (lo, hi) = (x.iter().chain(y)).fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
        (lo.min(v), hi.max(v))
    });
    ValueBounds::new(lo, hi)
}

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
        let bounds = sample_bounds(x, y);
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
        let bounds = sample_bounds(x, y);
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
        let bounds = sample_bounds(x, y);
        if let Ok(ci) = hfd_interval(x, y, bounds, 0.05) {
            prop_assert!(ci.length() >= 0.0);
            prop_assert!(ci.length().is_finite());
        }
    }
}

/// Pearson as it stood with two checks of every sample: the whole
/// sample validated (lengths, size, every value finite) before the
/// two-pass moment kernels ran.
fn pearson_validated_twice(x: &[f64], y: &[f64], min_len: usize) -> Result<f64, StatsError> {
    if x.len() != y.len() {
        return Err(StatsError::LengthMismatch {
            left: x.len(),
            right: y.len(),
        });
    }
    if x.len() < min_len {
        return Err(StatsError::TooFewSamples {
            needed: min_len,
            got: x.len(),
        });
    }
    if !x.iter().chain(y).all(|v| v.is_finite()) {
        return Err(StatsError::NonFiniteInput);
    }
    let (mean_x, mean_y) = column_means(x, y);
    let s = centered_sums(x, y, mean_x, mean_y);
    if s.sxx <= 0.0 || s.syy <= 0.0 {
        return Err(StatsError::ZeroVariance);
    }
    Ok((s.sxy / (s.sxx.sqrt() * s.syy.sqrt())).clamp(-1.0, 1.0))
}

/// A sample value from a `(kind, ordinary value)` draw: mostly the
/// ordinary value; otherwise one whose column sum overflows while every
/// value is finite, NaN, an infinity, or a constant.
fn hostile_value((kind, v): (usize, f64)) -> f64 {
    match kind {
        0 => f64::MAX,
        1 => -f64::MAX,
        2 => 1.5e308,
        3 => f64::NAN,
        4 => f64::INFINITY,
        5 => f64::NEG_INFINITY,
        6 => 3.0,
        _ => v,
    }
}

/// A paired sample of up to `max_rows` rows, now and then of unequal
/// lengths, whose columns are ordinary or hostile (a hostile value in
/// about one row in three) or constant.
fn hostile_pair(max_rows: usize) -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
    let column = move || (vec((0usize..20, -1e4f64..1e4), 0..max_rows + 1), 0usize..4);
    (column(), column(), 0usize..10).prop_map(|(x, y, skew)| {
        let make = |(draws, mode): (Vec<(usize, f64)>, usize)| -> Vec<f64> {
            match mode {
                0 => draws.iter().map(|&(_, v)| v).collect(),
                1 => draws.iter().map(|_| 7.0).collect(),
                _ => draws.into_iter().map(hostile_value).collect(),
            }
        };
        let (mut x, mut y) = (make(x), make(y));
        if skew > 0 {
            // Equal lengths nine times in ten.
            let n = x.len().min(y.len());
            x.truncate(n);
            y.truncate(n);
        }
        (x, y)
    })
}

fn same_bits(a: Result<f64, StatsError>, b: Result<f64, StatsError>) -> bool {
    match (a, b) {
        (Ok(a), Ok(b)) => a.to_bits() == b.to_bits(),
        (a, b) => a == b,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `pearson` checks its sample once, judging the values from the
    /// column means: bit for bit (or error for error) what validating
    /// the whole sample first gave, on NaN, ±∞, and finite values whose
    /// sums overflow.
    #[test]
    fn single_validation_pearson_is_the_validated_one((x, y) in hostile_pair(40)) {
        let want = pearson_validated_twice(&x, &y, 2);
        prop_assert!(same_bits(pearson(&x, &y), want), "{:?} vs {want:?}", pearson(&x, &y));
    }

    /// The scored Pearson path checks the sample once too: the same
    /// estimate, interval and error as validating it, then estimating.
    #[test]
    fn scored_pearson_checks_once_and_answers_the_same(
        (x, y) in hostile_pair(40),
        confidence in 0.5f64..0.999,
    ) {
        let est = CorrelationEstimator::Pearson;
        let got = scored_estimate(est, &x, &y, confidence, &mut BootstrapScratch::new());
        let want = pearson_validated_twice(&x, &y, est.min_samples()).map(|r| {
            let ci = fisher_z_interval(r, x.len(), 1.0 - confidence.clamp(1e-6, 1.0 - 1e-6));
            (r, ci.low, ci.high)
        });
        match (got, want) {
            (Ok(g), Ok((r, lo, hi))) => {
                prop_assert_eq!(g.estimate.to_bits(), r.to_bits());
                prop_assert_eq!(g.ci_lo.to_bits(), lo.to_bits());
                prop_assert_eq!(g.ci_hi.to_bits(), hi.to_bits());
                prop_assert_eq!(g.sample_size, x.len());
            }
            (Err(g), Err(w)) => prop_assert_eq!(g, w),
            (g, w) => prop_assert!(false, "{:?} vs {:?}", g, w),
        }
    }

    /// Every estimator checks its sample once: bit for bit (or error for
    /// error) what validating the whole sample against the estimator's
    /// minimum and then computing gave — on NaN, ±∞, sums that overflow,
    /// constant columns, unequal lengths and samples below the minimum
    /// (PM1 at two rows included).
    #[test]
    fn every_estimator_checks_once_and_answers_the_same((x, y) in hostile_pair(40)) {
        for est in CorrelationEstimator::ALL {
            let got = est.estimate(&x, &y);
            let want = validated_then_computed(est, &x, &y);
            prop_assert!(same_bits(got, want), "{est}: {got:?} vs {want:?}");
        }
    }

    /// A scored robust estimate evaluates the estimator on the full
    /// sample once: the same estimate, interval and error as estimating
    /// and then bootstrapping the interval, which evaluated it again —
    /// on 0 to 8 rows, NaN, ±∞ and unequal lengths.
    #[test]
    fn scored_robust_estimates_evaluate_the_sample_once(
        (x, y) in hostile_pair(8),
        confidence in 0.5f64..0.999,
    ) {
        use CorrelationEstimator::{Qn, Rin, Spearman};
        for est in [Spearman, Rin, Qn] {
            let got = scored_estimate(est, &x, &y, confidence, &mut BootstrapScratch::new())
                .map(|g| [g.estimate, g.ci_lo, g.ci_hi].map(f64::to_bits));
            let want = est.estimate(&x, &y).and_then(|r| {
                let ci = percentile_bootstrap_ci(
                    &|a, b| est.estimate(a, b),
                    &x,
                    &y,
                    199,
                    confidence.clamp(1e-6, 1.0 - 1e-6),
                    0x00c1_5eed,
                    &mut BootstrapScratch::new(),
                )?;
                Ok([r, ci.low, ci.high].map(f64::to_bits))
            });
            prop_assert_eq!(got, want, "{}", est);
        }
    }
}

/// An estimate as it stood with two checks of every sample: lengths,
/// size (against the estimator's minimum) and every value validated,
/// then the estimator run. Each estimator but PM1 is run through its
/// population target, which is the bare estimator; PM1's target is
/// Pearson, so its value is `estimate`'s on the sample validation passed.
fn validated_then_computed(
    est: CorrelationEstimator,
    x: &[f64],
    y: &[f64],
) -> Result<f64, StatsError> {
    if x.len() != y.len() {
        return Err(StatsError::LengthMismatch {
            left: x.len(),
            right: y.len(),
        });
    }
    if x.len() < est.min_samples() {
        return Err(StatsError::TooFewSamples {
            needed: est.min_samples(),
            got: x.len(),
        });
    }
    if !x.iter().chain(y).all(|v| v.is_finite()) {
        return Err(StatsError::NonFiniteInput);
    }
    match est {
        CorrelationEstimator::Pm1Bootstrap { .. } => est.estimate(x, y),
        _ => est.population_target(x, y),
    }
}
