//! Confidence intervals and error-risk statistics for correlation
//! estimates (paper Sections 4.2–4.3).
//!
//! Three mechanisms are implemented:
//!
//! 1. **Fisher's z standard error** `SE_z = 1/√(n−3)` — cheap, but assumes
//!    bivariate normality ([`fisher_z_se`], [`fisher_z_interval`]).
//! 2. The paper's new **Hoeffding confidence interval**
//!    ([`hoeffding_interval`]): distribution-free bounds built from five
//!    individual Hoeffding inequalities on the sufficient statistics
//!    `{μ_A, μ_B, ν_A, ν_B, ν_AB}` of the Pearson estimator, combined with
//!    a union bound at level `α/5` each. Requires only the global value
//!    range `C` of the columns — which a single data pass provides — and
//!    the sketch-join sample size `n`.
//! 3. The **HFD variant** ([`hfd_interval`]): at small `n` the Hoeffding
//!    bounds on the variance terms can go negative, collapsing the
//!    denominator; HFD substitutes the *sample* standard deviations in the
//!    denominator. Not a true probabilistic bound, but its length is still
//!    a useful risk signal — it is what the `s4 = r_p · ci_h` scoring
//!    function of Section 4.4 consumes.

use crate::error::{validate_pairs, StatsError};

/// A closed interval `[low, high]`, always clamped to `[−1, 1]` by the
/// constructors in this module when it bounds a correlation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// Lower endpoint.
    pub low: f64,
    /// Upper endpoint.
    pub high: f64,
}

impl ConfidenceInterval {
    /// Create an interval; endpoints are swapped if given out of order.
    /// A NaN endpoint carries no information, so it yields the vacuous
    /// interval — never an interval whose `contains`/`length` lie (and
    /// never a bound a pruning planner could act on).
    #[must_use]
    pub fn new(low: f64, high: f64) -> Self {
        if low.is_nan() || high.is_nan() {
            Self::vacuous()
        } else if low <= high {
            Self { low, high }
        } else {
            Self {
                low: high,
                high: low,
            }
        }
    }

    /// Interval covering the whole correlation range — the "no information"
    /// interval.
    #[must_use]
    pub(crate) const fn vacuous() -> Self {
        Self {
            low: -1.0,
            high: 1.0,
        }
    }

    /// Interval length `high − low`.
    #[must_use]
    pub fn length(&self) -> f64 {
        self.high - self.low
    }

    /// Does the interval contain `v`?
    #[must_use]
    pub fn contains(&self, v: f64) -> bool {
        self.low <= v && v <= self.high
    }
}

/// The interval between `a` and `b` with both endpoints clamped into
/// `[−1, 1]`.
fn unit_interval(a: f64, b: f64) -> ConfidenceInterval {
    ConfidenceInterval::new(a.clamp(-1.0, 1.0), b.clamp(-1.0, 1.0))
}

/// Standard error of the Fisher z-transformed correlation,
/// `SE_z = 1/√(n−3)` (paper Section 4.2).
///
/// Following the paper's `se_z` scoring factor, `n` is floored at 4 so the
/// result is always finite and at most 1.
#[must_use]
pub fn fisher_z_se(n: usize) -> f64 {
    1.0 / ((n.max(4) - 3) as f64).sqrt()
}

/// Fisher z 95%-style confidence interval at level `alpha` around estimate
/// `r` for sample size `n`: transform to z-space, add ±`z_{α/2}`·SE, and
/// transform back with `tanh`.
///
/// `atanh` diverges at |r| = 1, which would collapse the interval to a
/// zero-width `[±1, ±1]` — false certainty for exactly the perfect-fit
/// small samples where uncertainty is largest. The transform therefore
/// bounds |r| away from 1 by `1/(2n)` (a continuity-correction-style
/// guard that tightens as evidence accumulates) and re-widens the result
/// to contain the (unit-clamped) point estimate, so the interval is
/// never degenerate at |r| = 1 and tolerates r marginally outside
/// `[−1, 1]` from float error.
#[must_use]
pub fn fisher_z_interval(r: f64, n: usize, alpha: f64) -> ConfidenceInterval {
    let guard = 1.0 - 1.0 / (2.0 * n.max(2) as f64);
    let bounded = r.clamp(-guard, guard);
    let z = 0.5 * ((1.0 + bounded) / (1.0 - bounded)).ln(); // atanh(bounded)
    let zcrit = crate::normal::inverse_normal_cdf(1.0 - alpha / 2.0);
    let se = fisher_z_se(n);
    let ci = unit_interval((z - zcrit * se).tanh(), (z + zcrit * se).tanh());
    let r_unit = r.clamp(-1.0, 1.0);
    ConfidenceInterval::new(ci.low.min(r_unit), ci.high.max(r_unit))
}

/// Global value bounds of the two *full* columns, `C_low = min{x∈X, y∈Y}`
/// and `C_high = max{x∈X, y∈Y}` (paper Section 4.3).
///
/// These are computed during the single sketch-construction pass; the
/// joined columns are subsets of the originals, so the bounds remain valid
/// after any join.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ValueBounds {
    /// Smallest value across both columns.
    pub c_low: f64,
    /// Largest value across both columns.
    pub c_high: f64,
}

impl ValueBounds {
    /// Bounds from explicit endpoints.
    #[must_use]
    pub fn new(c_low: f64, c_high: f64) -> Self {
        if c_low <= c_high {
            Self { c_low, c_high }
        } else {
            Self {
                c_low: c_high,
                c_high: c_low,
            }
        }
    }

    /// Combine per-column ranges into the pairwise bounds.
    #[must_use]
    pub fn union(a: Self, b: Self) -> Self {
        Self {
            c_low: a.c_low.min(b.c_low),
            c_high: a.c_high.max(b.c_high),
        }
    }

    /// Range width `C = C_high − C_low`.
    #[must_use]
    pub fn range(&self) -> f64 {
        self.c_high - self.c_low
    }
}

/// The five sufficient statistics of the Pearson estimator on the shifted
/// sample `a = x − C_low`, `b = y − C_low`.
struct SampleParams {
    mu_a: f64,
    mu_b: f64,
    nu_a: f64,
    nu_b: f64,
    nu_ab: f64,
}

fn sample_params(x: &[f64], y: &[f64], c_low: f64) -> SampleParams {
    let n = x.len() as f64;
    let mut sums = [0.0f64; 5];
    for (&xi, &yi) in x.iter().zip(y) {
        let a = xi - c_low;
        let b = yi - c_low;
        let terms = [a, b, a * a, b * b, a * b];
        for (sum, t) in sums.iter_mut().zip(terms) {
            *sum += t;
        }
    }
    let [mu_a, mu_b, nu_a, nu_b, nu_ab] = sums.map(|s| s / n);
    SampleParams {
        mu_a,
        mu_b,
        nu_a,
        nu_b,
        nu_ab,
    }
}

/// Numerator/denominator bound assembly shared by the true Hoeffding
/// interval and the HFD variant (paper Eqs. 6–7).
fn assemble_interval(
    p: &SampleParams,
    (t, t2): (f64, f64),
    c: f64,
    hfd_denominator: Option<f64>,
    clamp: bool,
) -> ConfidenceInterval {
    // Parameter bounds, clamped to their feasible ranges: means lie in
    // [0, C], raw second moments in [0, C²] (the clamp is valid because A
    // and B are bounded in [0, C] by construction, and only tightens the
    // interval). `t` bounds the deviation of the means (μ_A, μ_B), `t2`
    // that of the second moments (ν_A, ν_B, ν_AB).
    let c2 = c * c;
    let mu_a_low = (p.mu_a - t).max(0.0);
    let mu_a_high = (p.mu_a + t).min(c);
    let mu_b_low = (p.mu_b - t).max(0.0);
    let mu_b_high = (p.mu_b + t).min(c);
    let nu_a_low = (p.nu_a - t2).max(0.0);
    let nu_a_high = (p.nu_a + t2).min(c2);
    let nu_b_low = (p.nu_b - t2).max(0.0);
    let nu_b_high = (p.nu_b + t2).min(c2);
    let nu_ab_low = (p.nu_ab - t2).max(0.0);
    let nu_ab_high = (p.nu_ab + t2).min(c2);

    let num_low = nu_ab_low - mu_a_high * mu_b_high;
    let num_high = nu_ab_high - mu_a_low * mu_b_low;

    let (den_low, den_high) = if let Some(d) = hfd_denominator {
        (d, d)
    } else {
        let dl = ((nu_a_low - mu_a_high * mu_a_high).max(0.0)
            * (nu_b_low - mu_b_high * mu_b_high).max(0.0))
        .sqrt();
        let dh = ((nu_a_high - mu_a_low * mu_a_low).max(0.0)
            * (nu_b_high - mu_b_low * mu_b_low).max(0.0))
        .sqrt();
        (dl, dh)
    };

    // Eq. 6: ρ_low uses the larger denominator when the numerator is
    // positive (shrinks it towards zero) and the smaller one when negative
    // (pushes it further down). Eq. 7 mirrors this for ρ_high. A zero
    // denominator yields ±∞, which the final clamp turns into the vacuous
    // endpoint — exactly the "no information" semantics we want.
    let rho_low = if num_low >= 0.0 {
        num_low / den_high
    } else {
        num_low / den_low
    };
    let rho_high = if num_high >= 0.0 {
        num_high / den_low
    } else {
        num_high / den_high
    };

    let low = if rho_low.is_nan() { -1.0 } else { rho_low };
    let high = if rho_high.is_nan() { 1.0 } else { rho_high };
    if clamp {
        unit_interval(low, high)
    } else {
        // Cap at a finite width so downstream length normalization stays
        // well-behaved when the denominator collapses.
        let ci = ConfidenceInterval::new(low, high);
        ConfidenceInterval::new(ci.low.max(-1e12), ci.high.min(1e12))
    }
}

/// Hoeffding deviation widths `t` (for means) and `t'` (for second
/// moments) at level `α/5` each: `t = √(ln(10/α)·C²/2n)`,
/// `t' = √(ln(10/α)·C⁴/2n)`.
fn hoeffding_widths(n: usize, c: f64, alpha: f64) -> (f64, f64) {
    let ln_term = (10.0 / alpha).ln();
    let n = n as f64;
    let t = (ln_term * c * c / (2.0 * n)).sqrt();
    let t2 = (ln_term * c.powi(4) / (2.0 * n)).sqrt();
    (t, t2)
}

/// The paper's distribution-free confidence interval for the population
/// Pearson correlation `ρ` of the joined columns (Section 4.3).
///
/// `x`/`y` is the paired sample reconstructed from the sketch join,
/// `bounds` the full-column value range (`C_low`, `C_high`), and `alpha`
/// the total failure probability (each of the five parameter bounds gets
/// `α/5`; a union bound yields `Pr[ρ_low ≤ ρ ≤ ρ_high] ≥ 1 − α`).
///
/// ```
/// use sketch_stats::{hoeffding_interval, pearson, ValueBounds};
/// let x: Vec<f64> = (0..500).map(|i| (f64::from(i) * 0.1).sin()).collect();
/// let y: Vec<f64> = x.iter().map(|v| v * 2.0 + 0.1).collect();
/// let bounds = ValueBounds::new(-2.0, 2.2); // both columns' range
/// let ci = hoeffding_interval(&x, &y, bounds, 0.05).unwrap();
/// let r = pearson(&x, &y).unwrap();
/// assert!(ci.contains(r));
/// ```
///
/// # Errors
///
/// Standard paired-sample validation errors; sample values outside
/// `bounds` also produce [`StatsError::NonFiniteInput`]-style rejection via
/// debug assertions (callers construct bounds from the same columns, so
/// this cannot occur in normal operation).
pub fn hoeffding_interval(
    x: &[f64],
    y: &[f64],
    bounds: ValueBounds,
    alpha: f64,
) -> Result<ConfidenceInterval, StatsError> {
    validate_pairs(x, y, 1)?;
    let c = bounds.range();
    if c <= 0.0 {
        // All values identical: correlation undefined, no information.
        return Ok(ConfidenceInterval::vacuous());
    }
    let p = sample_params(x, y, bounds.c_low);
    let widths = hoeffding_widths(x.len(), c, alpha);
    Ok(assemble_interval(&p, widths, c, None, true))
}

/// The HFD small-sample variant (paper Section 4.3, "Effect of Small
/// Sample Sizes"): same numerator bounds as [`hoeffding_interval`] but the
/// denominator is replaced by the product of the *sample* standard
/// deviations. The resulting `[ρ_low_HFD, ρ_high_HFD]` is not a true
/// probabilistic bound, but its length is a meaningful risk measure and is
/// what the `ci_h` scoring factor uses.
///
/// Unlike [`hoeffding_interval`], the endpoints are **not clamped** to
/// `[−1, 1]`: the interval *length* is the signal here, and clamping
/// would flatten exactly the high-risk (small `n`, large range `C`)
/// candidates the scorer must discriminate between.
///
/// # Errors
///
/// Standard paired-sample validation errors.
pub fn hfd_interval(
    x: &[f64],
    y: &[f64],
    bounds: ValueBounds,
    alpha: f64,
) -> Result<ConfidenceInterval, StatsError> {
    validate_pairs(x, y, 1)?;
    let c = bounds.range();
    if c <= 0.0 {
        return Ok(ConfidenceInterval::vacuous());
    }
    let p = sample_params(x, y, bounds.c_low);
    let widths = hoeffding_widths(x.len(), c, alpha);
    let var_a = (p.nu_a - p.mu_a * p.mu_a).max(0.0);
    let var_b = (p.nu_b - p.mu_b * p.mu_b).max(0.0);
    let den = (var_a * var_b).sqrt();
    Ok(assemble_interval(&p, widths, c, Some(den), false))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pearson::pearson;

    /// The tightest bounds covering both samples.
    fn sample_bounds(x: &[f64], y: &[f64]) -> ValueBounds {
        let (lo, hi) = (x.iter().chain(y))
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                (lo.min(v), hi.max(v))
            });
        ValueBounds::new(lo, hi)
    }

    fn correlated_sample(n: usize, noise: f64) -> (Vec<f64>, Vec<f64>) {
        // Deterministic pseudo-random pattern, bounded in [0, ~3].
        let x: Vec<f64> = (0..n)
            .map(|i| 1.5 + (i as f64 * 0.37).sin() * 1.4)
            .collect();
        let y: Vec<f64> = x
            .iter()
            .enumerate()
            .map(|(i, &v)| v + noise * ((i as f64) * 1.7).cos())
            .collect();
        (x, y)
    }

    #[test]
    fn interval_basics() {
        let ci = ConfidenceInterval::new(0.7, 0.2);
        assert_eq!(ci.low, 0.2);
        assert_eq!(ci.high, 0.7);
        assert!((ci.length() - 0.5).abs() < 1e-12);
        assert!(ci.contains(0.3));
        assert!(!ci.contains(0.9));
        assert_eq!(ConfidenceInterval::vacuous().length(), 2.0);
    }

    #[test]
    fn fisher_se_shrinks_with_n() {
        assert!((fisher_z_se(4) - 1.0).abs() < 1e-12);
        assert!((fisher_z_se(103) - 0.1).abs() < 1e-12);
        assert!(fisher_z_se(1) <= 1.0); // floored at n = 4
        assert!(fisher_z_se(1000) < fisher_z_se(100));
    }

    #[test]
    fn fisher_interval_contains_estimate() {
        let ci = fisher_z_interval(0.6, 50, 0.05);
        assert!(ci.contains(0.6));
        assert!(ci.low > 0.0 && ci.high < 1.0);
    }

    #[test]
    fn nan_endpoints_yield_vacuous_interval() {
        // NaN fails every comparison, so the old swap-sort path built an
        // interval whose contains/length lied. A planner pruning on such
        // a bound would silently drop candidates.
        for (lo, hi) in [(f64::NAN, 0.5), (0.5, f64::NAN), (f64::NAN, f64::NAN)] {
            let ci = ConfidenceInterval::new(lo, hi);
            assert_eq!(ci, ConfidenceInterval::vacuous(), "({lo}, {hi})");
            assert!(ci.contains(0.0));
            assert_eq!(ci.length(), 2.0);
        }
    }

    #[test]
    fn fisher_interval_guarded_at_perfect_correlation() {
        // |r| = 1 used to collapse to zero-width [±1, ±1] via atanh(±1)
        // = ±inf — falsely certain exactly where uncertainty is largest.
        for n in [4usize, 10, 100] {
            for r in [1.0, -1.0] {
                let ci = fisher_z_interval(r, n, 0.05);
                assert!(ci.length() > 0.0, "n={n} r={r} degenerate {ci:?}");
                assert!(ci.contains(r), "n={n} r={r} {ci:?}");
                assert!(ci.low >= -1.0 && ci.high <= 1.0, "n={n} r={r} {ci:?}");
            }
        }
        // More evidence at the same perfect fit ⇒ a tighter interval.
        let small = fisher_z_interval(1.0, 5, 0.05);
        let large = fisher_z_interval(1.0, 500, 0.05);
        assert!(large.length() < small.length(), "{large:?} vs {small:?}");
    }

    #[test]
    fn fisher_interval_tolerates_float_error_outside_unit_range() {
        // Accumulated float error can push a computed r marginally past
        // ±1; the guard must absorb it instead of producing NaN bounds.
        for r in [1.0 + 1e-12, -(1.0 + 1e-12), 1.0 + 1e-6, -1.000001] {
            let ci = fisher_z_interval(r, 12, 0.05);
            assert!(ci.low.is_finite() && ci.high.is_finite(), "r={r} {ci:?}");
            assert!(ci.low >= -1.0 && ci.high <= 1.0, "r={r} {ci:?}");
            assert!(ci.length() > 0.0, "r={r} degenerate {ci:?}");
            assert!(ci.contains(r.clamp(-1.0, 1.0)), "r={r} {ci:?}");
        }
    }

    #[test]
    fn value_bounds_construction() {
        let b = ValueBounds::new(5.0, 1.0);
        assert_eq!(b.c_low, 1.0);
        assert_eq!(b.c_high, 5.0);
        let u = ValueBounds::union(ValueBounds::new(0.0, 2.0), ValueBounds::new(-1.0, 1.0));
        assert_eq!(u.c_low, -1.0);
        assert_eq!(u.c_high, 2.0);
        let s = sample_bounds(&[1.0, 3.0], &[-2.0, 0.5]);
        assert_eq!(s.c_low, -2.0);
        assert_eq!(s.c_high, 3.0);
        assert_eq!(s.range(), 5.0);
    }

    #[test]
    fn hoeffding_interval_contains_truth_for_large_samples() {
        let (x, y) = correlated_sample(5_000, 0.4);
        let r_full = pearson(&x, &y).unwrap();
        let bounds = sample_bounds(&x, &y);
        // Use the first 2000 points as "the sample".
        let ci = hoeffding_interval(&x[..2000], &y[..2000], bounds, 0.05).unwrap();
        assert!(
            ci.contains(r_full),
            "true r = {r_full} not in {ci:?} (len {})",
            ci.length()
        );
    }

    #[test]
    fn hoeffding_interval_shrinks_with_sample_size() {
        let (x, y) = correlated_sample(20_000, 0.3);
        let bounds = sample_bounds(&x, &y);
        let small = hoeffding_interval(&x[..100], &y[..100], bounds, 0.05).unwrap();
        let large = hoeffding_interval(&x[..10_000], &y[..10_000], bounds, 0.05).unwrap();
        assert!(
            large.length() < small.length(),
            "large={large:?} small={small:?}"
        );
    }

    #[test]
    fn hoeffding_scaling_matches_one_over_sqrt_n() {
        // For fixed data distribution, width should scale ≈ 1/√n.
        let (x, y) = correlated_sample(40_000, 0.3);
        let bounds = sample_bounds(&x, &y);
        let w1 = hoeffding_interval(&x[..2_000], &y[..2_000], bounds, 0.05)
            .unwrap()
            .length();
        let w2 = hoeffding_interval(&x[..32_000], &y[..32_000], bounds, 0.05)
            .unwrap()
            .length();
        // 16× more samples → width ratio ≈ 4 (allow generous slack: the
        // vacuous clamp at ±1 can compress w1).
        let ratio = w1 / w2;
        assert!(ratio > 2.0, "ratio={ratio} w1={w1} w2={w2}");
    }

    #[test]
    fn hoeffding_small_sample_is_vacuous_but_valid() {
        let (x, y) = correlated_sample(5, 0.1);
        let bounds = sample_bounds(&x, &y);
        let ci = hoeffding_interval(&x, &y, bounds, 0.05).unwrap();
        // At n=5 the bound has no power — must clamp to (nearly) [−1, 1].
        assert!(ci.length() > 1.9, "{ci:?}");
        assert!(ci.low >= -1.0 && ci.high <= 1.0);
    }

    #[test]
    fn hfd_interval_length_discriminates_where_hoeffding_saturates() {
        // At small n the (clamped) Hoeffding interval saturates at length
        // 2 for both candidates; the unclamped HFD lengths still order
        // them by risk.
        let (x, y) = correlated_sample(4_000, 0.3);
        let bounds = sample_bounds(&x, &y);
        let h_small = hoeffding_interval(&x[..10], &y[..10], bounds, 0.05).unwrap();
        let h_big = hoeffding_interval(&x[..40], &y[..40], bounds, 0.05).unwrap();
        assert_eq!(h_small.length(), 2.0);
        assert_eq!(h_big.length(), 2.0);
        let f_small = hfd_interval(&x[..10], &y[..10], bounds, 0.05).unwrap();
        let f_big = hfd_interval(&x[..40], &y[..40], bounds, 0.05).unwrap();
        assert!(
            f_small.length() > f_big.length(),
            "hfd lengths must discriminate: {f_small:?} vs {f_big:?}"
        );
    }

    #[test]
    fn hfd_length_orders_risk_by_sample_size() {
        // The s4 ranking factor needs: more samples ⇒ shorter HFD interval.
        let (x, y) = correlated_sample(4_000, 0.5);
        let bounds = sample_bounds(&x, &y);
        let mut prev = f64::INFINITY;
        for &n in &[20usize, 100, 500, 3_000] {
            let len = hfd_interval(&x[..n], &y[..n], bounds, 0.05)
                .unwrap()
                .length();
            assert!(len <= prev + 1e-9, "n={n} len={len} prev={prev}");
            prev = len;
        }
    }

    #[test]
    fn degenerate_range_gives_vacuous_interval() {
        let x = [2.0, 2.0, 2.0];
        let y = [2.0, 2.0, 2.0];
        let bounds = sample_bounds(&x, &y);
        let ci = hoeffding_interval(&x, &y, bounds, 0.05).unwrap();
        assert_eq!(ci, ConfidenceInterval::vacuous());
    }

    #[test]
    fn interval_endpoints_always_in_unit_range() {
        let (x, y) = correlated_sample(64, 1.5);
        let bounds = sample_bounds(&x, &y);
        for alpha in [0.01, 0.05, 0.2] {
            let ci = hoeffding_interval(&x, &y, bounds, alpha).unwrap();
            assert!(ci.low >= -1.0 && ci.high <= 1.0, "alpha={alpha} {ci:?}");
            // HFD endpoints are deliberately unclamped but must be finite.
            let ci = hfd_interval(&x, &y, bounds, alpha).unwrap();
            assert!(
                ci.low.is_finite() && ci.high.is_finite(),
                "alpha={alpha} {ci:?}"
            );
        }
    }

    #[test]
    fn smaller_alpha_gives_wider_interval() {
        let (x, y) = correlated_sample(2_000, 0.4);
        let bounds = sample_bounds(&x, &y);
        let strict = hoeffding_interval(&x, &y, bounds, 0.01).unwrap();
        let loose = hoeffding_interval(&x, &y, bounds, 0.20).unwrap();
        assert!(strict.length() >= loose.length());
    }

    #[test]
    fn empirical_coverage_at_95_percent() {
        // Repeatedly subsample and check the Hoeffding CI covers the
        // full-population correlation at least 95% of the time (it is a
        // conservative bound, so coverage should be ~100%).
        let (x, y) = correlated_sample(10_000, 0.6);
        let rho = pearson(&x, &y).unwrap();
        let bounds = sample_bounds(&x, &y);
        let mut covered = 0;
        let trials = 50;
        for t in 0..trials {
            // Deterministic strided subsamples of size 500.
            let xs: Vec<f64> = x.iter().skip(t).step_by(20).copied().take(500).collect();
            let ys: Vec<f64> = y.iter().skip(t).step_by(20).copied().take(500).collect();
            let ci = hoeffding_interval(&xs, &ys, bounds, 0.05).unwrap();
            if ci.contains(rho) {
                covered += 1;
            }
        }
        assert!(covered >= 48, "coverage {covered}/{trials}");
    }
}
