//! Confidence-aware point estimates for the ranking pipeline (paper
//! Section 4): one estimate plus a matched confidence interval, computed
//! in a single pass over the join sample.
//!
//! The interval source is tied to the estimator:
//!
//! * **Pearson** — the Fisher z-transform interval
//!   ([`crate::fisher_z_interval`]): transform, add ±z·SE, transform
//!   back. Closed-form, O(1) after the moment pass.
//! * **PM1 bootstrap** — Wilcox's modified percentile bootstrap interval
//!   ([`crate::pm1_ci`]) at its native 95% level, the plain percentile
//!   interval at any other level; estimate and interval come out of one
//!   replicate pass ([`crate::pm1_with_ci`]), so a scored PM1 candidate
//!   costs the interval's 599 resamples and no more.
//! * **Robust estimators** (Spearman, RIN, Qn, Kendall, distance
//!   correlation) — the plain percentile bootstrap
//!   ([`crate::percentile_bootstrap_ci`]) of the estimator itself.
//!
//! Every bootstrap draw is seeded per candidate from a fixed constant
//! (never from thread or iteration state) and reuses a caller-owned
//! [`BootstrapScratch`], so scored queries are bit-identical across
//! thread counts and allocation-free on the hot path.

use crate::bootstrap::{percentile_bootstrap_ci, pm1_with_ci, BootstrapConfig, BootstrapScratch};
use crate::ci::{fisher_z_interval, ConfidenceInterval};
use crate::error::StatsError;
use crate::estimator::CorrelationEstimator;
use crate::pearson::pearson;

/// Fixed seed for the robust-estimator bootstrap intervals. A constant —
/// not worker or query state — so a candidate's interval depends only on
/// its own join sample.
pub const SCORED_CI_SEED: u64 = 0x00c1_5eed;

/// Bootstrap replicates for the robust-estimator intervals. Fewer than
/// the 599 of the PM1 interval: the robust estimators cost `O(n log n)`
/// or worse per replicate and the scorers only consume the interval
/// *length*, which converges much faster than its endpoints.
const ROBUST_REPLICATES: usize = 199;

/// A correlation estimate with its matched confidence interval — what
/// the `s1`–`s4` scoring functions consume.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredEstimate {
    /// The point estimate.
    pub estimate: f64,
    /// Lower endpoint of the confidence interval.
    pub ci_lo: f64,
    /// Upper endpoint of the confidence interval.
    pub ci_hi: f64,
    /// Join-sample size `n` the estimate was computed from.
    pub sample_size: usize,
}

impl ScoredEstimate {
    /// Interval length `ci_hi − ci_lo` — the risk signal the `s3`/`s4`
    /// penalization factors consume.
    #[must_use]
    pub fn ci_length(&self) -> f64 {
        self.ci_hi - self.ci_lo
    }

    /// The interval as a [`ConfidenceInterval`].
    #[must_use]
    pub fn interval(&self) -> ConfidenceInterval {
        ConfidenceInterval::new(self.ci_lo, self.ci_hi)
    }
}

/// Estimate the correlation of the paired sample and attach the
/// estimator-matched confidence interval at level `confidence`
/// (e.g. `0.95`), reusing `scratch` for any bootstrap resampling.
///
/// Deterministic: the result is a pure function of
/// `(estimator, x, y, confidence)` — scratch state, thread count, and
/// evaluation order never affect it.
///
/// # Errors
///
/// Propagates the estimator's [`StatsError`]s (too few samples, zero
/// variance, …) — the same failure modes as
/// [`CorrelationEstimator::estimate`].
pub fn scored_estimate(
    estimator: CorrelationEstimator,
    x: &[f64],
    y: &[f64],
    confidence: f64,
    scratch: &mut BootstrapScratch,
) -> Result<ScoredEstimate, StatsError> {
    crate::error::validate_pairs(x, y, estimator.min_samples())?;
    let confidence = confidence.clamp(1e-6, 1.0 - 1e-6);
    let alpha = 1.0 - confidence;
    let (estimate, ci) = match estimator {
        CorrelationEstimator::Pearson => {
            let r = pearson(x, y)?;
            // The |r| → 1 degeneracy guard lives inside
            // [`fisher_z_interval`] now: |r| is bounded away from ±1 by
            // 1/(2n) for the transform and the interval re-widened to
            // contain the point estimate, so a 4-row perfect-fit fluke
            // never gets a sharper interval than a genuine large-sample
            // candidate.
            (r, fisher_z_interval(r, x.len(), alpha))
        }
        CorrelationEstimator::Pm1Bootstrap { seed } => {
            let cfg = BootstrapConfig {
                seed,
                ..BootstrapConfig::default()
            };
            // One replicate pass: the estimate is the adaptive-rule
            // prefix mean of the interval's 599 replicates.
            let (est, ci) = pm1_with_ci(x, y, &cfg, confidence, scratch)?;
            (est.estimate, ci)
        }
        other => {
            let est = other.estimate(x, y)?;
            let ci = percentile_bootstrap_ci(
                &|a, b| other.estimate(a, b),
                x,
                y,
                ROBUST_REPLICATES,
                confidence,
                SCORED_CI_SEED,
                scratch,
            )?;
            (est, ci)
        }
    };
    Ok(ScoredEstimate {
        estimate,
        ci_lo: ci.low,
        ci_hi: ci.high,
        sample_size: x.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noisy_linear(n: usize) -> (Vec<f64>, Vec<f64>) {
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() * 3.0).collect();
        let y: Vec<f64> = x
            .iter()
            .enumerate()
            .map(|(i, &v)| v + ((i as f64) * 1.3).cos())
            .collect();
        (x, y)
    }

    #[test]
    fn pearson_interval_contains_estimate_and_shrinks_with_n() {
        let (x, y) = noisy_linear(800);
        let mut scratch = BootstrapScratch::new();
        let small = scored_estimate(
            CorrelationEstimator::Pearson,
            &x[..30],
            &y[..30],
            0.95,
            &mut scratch,
        )
        .unwrap();
        let large =
            scored_estimate(CorrelationEstimator::Pearson, &x, &y, 0.95, &mut scratch).unwrap();
        for s in [&small, &large] {
            assert!(s.ci_lo <= s.estimate && s.estimate <= s.ci_hi, "{s:?}");
        }
        assert_eq!(small.sample_size, 30);
        assert!(small.ci_length() > large.ci_length());
    }

    #[test]
    fn every_estimator_yields_a_finite_interval() {
        let (x, y) = noisy_linear(120);
        let mut scratch = BootstrapScratch::new();
        for est in CorrelationEstimator::EXTENDED {
            let s = scored_estimate(est, &x, &y, 0.95, &mut scratch).unwrap_or_else(|e| {
                panic!("{est}: {e}");
            });
            assert!(s.ci_lo.is_finite() && s.ci_hi.is_finite(), "{est}: {s:?}");
            assert!(s.ci_lo <= s.ci_hi, "{est}: {s:?}");
            assert!(s.ci_length() > 0.0, "{est}: {s:?}");
        }
    }

    #[test]
    fn deterministic_and_scratch_independent() {
        let (x, y) = noisy_linear(60);
        for est in [
            CorrelationEstimator::Spearman,
            CorrelationEstimator::Pm1Bootstrap { seed: 7 },
        ] {
            let fresh = scored_estimate(est, &x, &y, 0.95, &mut BootstrapScratch::new()).unwrap();
            // A scratch polluted by unrelated prior work — another
            // estimator, another seed's kept words, a longer and a
            // shorter sample under this seed — must not change a single
            // bit of the result.
            let mut dirty = BootstrapScratch::new();
            let (a, b) = noisy_linear(333);
            let other = CorrelationEstimator::Pm1Bootstrap { seed: 8 };
            for (prior, rows) in [
                (CorrelationEstimator::Qn, 333),
                (other, 333),
                (est, 200),
                (est, 12),
            ] {
                let _ = scored_estimate(prior, &a[..rows], &b[..rows], 0.8, &mut dirty).unwrap();
            }
            let reused = scored_estimate(est, &x, &y, 0.95, &mut dirty).unwrap();
            assert_eq!(fresh, reused, "{est}");
        }
    }

    #[test]
    fn higher_confidence_widens_the_interval() {
        let (x, y) = noisy_linear(100);
        let mut scratch = BootstrapScratch::new();
        for est in [
            CorrelationEstimator::Pearson,
            CorrelationEstimator::Spearman,
        ] {
            let loose = scored_estimate(est, &x, &y, 0.80, &mut scratch).unwrap();
            let strict = scored_estimate(est, &x, &y, 0.99, &mut scratch).unwrap();
            assert!(
                strict.ci_length() >= loose.ci_length(),
                "{est}: strict={strict:?} loose={loose:?}"
            );
        }
    }

    #[test]
    fn perfect_correlation_stays_finite_and_sample_size_aware() {
        // r = 1 exactly: atanh(1) = ∞. The guarded transform must come
        // back finite, contain the estimate, and still be much wider for
        // a tiny sample than a large one — a 4-row perfect fit is weak
        // evidence, a 200-row one is strong.
        let perfect = |n: usize| {
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
            let y: Vec<f64> = x.iter().map(|v| 2.0 * v + 1.0).collect();
            scored_estimate(
                CorrelationEstimator::Pearson,
                &x,
                &y,
                0.95,
                &mut BootstrapScratch::new(),
            )
            .unwrap()
        };
        let tiny = perfect(4);
        let big = perfect(200);
        for s in [&tiny, &big] {
            assert!((s.estimate - 1.0).abs() < 1e-12, "{s:?}");
            assert!(s.ci_lo.is_finite() && s.ci_hi.is_finite(), "{s:?}");
            assert!(s.ci_lo <= s.estimate && s.estimate <= s.ci_hi, "{s:?}");
            assert!(s.ci_length() > 0.0, "{s:?}");
        }
        assert!(
            tiny.ci_length() > 5.0 * big.ci_length(),
            "tiny={tiny:?} big={big:?}"
        );
    }

    #[test]
    fn degenerate_sample_is_a_typed_error() {
        let x = [3.0, 3.0, 3.0, 3.0];
        let y = [1.0, 2.0, 3.0, 4.0];
        for est in CorrelationEstimator::ALL {
            assert!(
                scored_estimate(est, &x, &y, 0.95, &mut BootstrapScratch::new()).is_err(),
                "{est}"
            );
        }
    }

    #[test]
    fn pm1_scored_matches_standalone_pieces() {
        let (x, y) = noisy_linear(80);
        let est = CorrelationEstimator::Pm1Bootstrap { seed: 42 };
        let s = scored_estimate(est, &x, &y, 0.95, &mut BootstrapScratch::new()).unwrap();
        let standalone = crate::bootstrap::pm1_bootstrap(
            &x,
            &y,
            &BootstrapConfig {
                seed: 42,
                ..BootstrapConfig::default()
            },
        )
        .unwrap();
        let ci = crate::bootstrap::pm1_ci(&x, &y, 42).unwrap();
        assert_eq!(s.estimate, standalone.estimate);
        assert_eq!((s.ci_lo, s.ci_hi), (ci.low, ci.high));
    }
}
