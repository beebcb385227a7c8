//! The robust `Qn` scale estimator (Rousseeuw & Croux, 1993) and the
//! `Qn`-based robust correlation (paper Section 5.3, estimator 4; see
//! Shevlyakov & Oja, *Robust Correlation*, 2016).

use crate::error::{validate_pairs, StatsError};

/// Asymptotic consistency constant making `Qn` unbiased for the standard
/// deviation under normality.
const QN_CONSTANT: f64 = 2.219_144;

/// Finite-sample correction factor `d_n` for the `Qn` estimator
/// (Croux & Rousseeuw, 1992).
fn small_sample_factor(n: usize) -> f64 {
    match n {
        0 | 1 => 0.0,
        2 => 0.399,
        3 => 0.994,
        4 => 0.512,
        5 => 0.844,
        6 => 0.611,
        7 => 0.857,
        8 => 0.669,
        9 => 0.872,
        _ => {
            let nf = n as f64;
            if n % 2 == 1 {
                nf / (nf + 1.4)
            } else {
                nf / (nf + 3.8)
            }
        }
    }
}

/// The `Qn` scale estimate of `data`: the k-th order statistic of the
/// `n(n−1)/2` pairwise absolute differences, where `k = C(h, 2)` and
/// `h = ⌊n/2⌋ + 1`, scaled for consistency at the normal distribution.
///
/// This is the plain `O(n² log n)` formulation — sketch samples are at most
/// a few thousand values, far below the size where the `O(n log n)`
/// algorithm of Croux & Rousseeuw pays off.
///
/// # Errors
///
/// [`StatsError::TooFewSamples`] for fewer than 2 observations.
pub(crate) fn qn_scale(data: &[f64]) -> Result<f64, StatsError> {
    let n = data.len();
    if n < 2 {
        return Err(StatsError::TooFewSamples { needed: 2, got: n });
    }
    if !data.iter().all(|v| v.is_finite()) {
        return Err(StatsError::NonFiniteInput);
    }
    let h = n / 2 + 1;
    let k = h * (h - 1) / 2; // C(h, 2), 1-based order statistic index

    let mut diffs = Vec::with_capacity(n * (n - 1) / 2);
    for i in 0..n {
        for j in (i + 1)..n {
            diffs.push((data[i] - data[j]).abs());
        }
    }
    let (_, kth, _) = diffs.select_nth_unstable_by(k - 1, f64::total_cmp);
    Ok(QN_CONSTANT * small_sample_factor(n) * *kth)
}

/// Robust correlation from robust scales (Gnanadesikan–Kettenring
/// construction with `Qn`):
///
/// ```text
/// r_Qn = ( Qn(x̃ + ỹ)² − Qn(x̃ − ỹ)² ) / ( Qn(x̃ + ỹ)² + Qn(x̃ − ỹ)² )
/// ```
///
/// where `x̃ = x / Qn(x)` and `ỹ = y / Qn(y)` are robustly standardized
/// variables (centering is unnecessary since `Qn` is translation
/// invariant). The result lies in `[−1, 1]` by construction and resists
/// outlier contamination that destroys Pearson's estimator.
///
/// # Errors
///
/// * [`StatsError::ZeroVariance`] if either variable has zero `Qn` scale
///   (more than half of the pairwise differences are zero).
/// * Other failure modes as in [`qn_scale`].
pub(crate) fn qn_correlation(x: &[f64], y: &[f64]) -> Result<f64, StatsError> {
    validate_pairs(x, y, 2)?;
    let sx = qn_scale(x)?;
    let sy = qn_scale(y)?;
    if sx <= 0.0 || sy <= 0.0 {
        return Err(StatsError::ZeroVariance);
    }
    let u: Vec<f64> = x.iter().zip(y).map(|(&a, &b)| a / sx + b / sy).collect();
    let v: Vec<f64> = x.iter().zip(y).map(|(&a, &b)| a / sx - b / sy).collect();
    let qu = qn_scale(&u)?.powi(2);
    let qv = qn_scale(&v)?.powi(2);
    if qu + qv <= 0.0 {
        return Err(StatsError::ZeroVariance);
    }
    Ok(((qu - qv) / (qu + qv)).clamp(-1.0, 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qn_scale_of_constant_data_is_zero() {
        assert_eq!(qn_scale(&[3.0; 8]).unwrap(), 0.0);
    }

    #[test]
    fn qn_scale_is_translation_invariant_and_scale_equivariant() {
        let data = [1.0, 4.0, 2.0, 8.0, 5.0, 7.0, 3.0];
        let q = qn_scale(&data).unwrap();
        let shifted: Vec<f64> = data.iter().map(|v| v + 1000.0).collect();
        assert!((qn_scale(&shifted).unwrap() - q).abs() < 1e-9);
        let scaled: Vec<f64> = data.iter().map(|v| v * 3.0).collect();
        assert!((qn_scale(&scaled).unwrap() - 3.0 * q).abs() < 1e-9);
    }

    #[test]
    fn qn_scale_estimates_sigma_under_normality() {
        // Deterministic "normal" sample via the inverse CDF over a uniform
        // grid: Qn should be close to 1.
        let n = 500;
        let data: Vec<f64> = (1..=n)
            .map(|i| crate::normal::inverse_normal_cdf((i as f64 - 0.5) / n as f64))
            .collect();
        let q = qn_scale(&data).unwrap();
        assert!((q - 1.0).abs() < 0.1, "Qn={q}");
    }

    #[test]
    fn qn_scale_resists_outliers() {
        let mut data: Vec<f64> = (1..=100)
            .map(|i| crate::normal::inverse_normal_cdf((f64::from(i) - 0.5) / 100.0))
            .collect();
        let clean = qn_scale(&data).unwrap();
        // Replace 20% with huge outliers; Qn has a 50% breakdown point.
        for v in data.iter_mut().take(20) {
            *v = 1e6;
        }
        let dirty = qn_scale(&data).unwrap();
        assert!(dirty < 4.0 * clean, "clean={clean} dirty={dirty}");
    }

    #[test]
    fn qn_correlation_perfect_linear() {
        let x: Vec<f64> = (1..=30).map(f64::from).collect();
        let y: Vec<f64> = x.iter().map(|v| 2.0 * v + 1.0).collect();
        let r = qn_correlation(&x, &y).unwrap();
        assert!(r > 0.99, "r={r}");
        let yn: Vec<f64> = x.iter().map(|v| -v).collect();
        let r = qn_correlation(&x, &yn).unwrap();
        assert!(r < -0.99, "r={r}");
    }

    #[test]
    fn qn_correlation_near_zero_for_independent_grids() {
        // A deterministic "independent" pattern: x cycles fast, y slow.
        let x: Vec<f64> = (0..64).map(|i| f64::from(i % 8)).collect();
        let y: Vec<f64> = (0..64).map(|i| f64::from(i / 8)).collect();
        let r = qn_correlation(&x, &y).unwrap();
        assert!(r.abs() < 0.3, "r={r}");
    }

    #[test]
    fn qn_correlation_survives_outliers() {
        let mut x: Vec<f64> = (1..=60).map(f64::from).collect();
        let mut y: Vec<f64> = x.iter().map(|v| v * 1.5 + 2.0).collect();
        x.push(1e6);
        y.push(-1e6);
        let rq = qn_correlation(&x, &y).unwrap();
        let rp = crate::pearson::pearson(&x, &y).unwrap();
        assert!(rq > 0.9, "qn correlation should survive: {rq}");
        assert!(rp < 0.0, "pearson should be destroyed: {rp}");
    }

    #[test]
    fn errors() {
        assert!(matches!(
            qn_scale(&[1.0]),
            Err(StatsError::TooFewSamples { .. })
        ));
        assert_eq!(
            qn_correlation(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]),
            Err(StatsError::ZeroVariance)
        );
        assert!(matches!(
            qn_scale(&[1.0, f64::NAN]),
            Err(StatsError::NonFiniteInput)
        ));
    }

    #[test]
    fn result_in_unit_range_for_messy_data() {
        let x = [0.0, 0.0, 1.0, 1.0, 2.0, 5.0, 5.0, 9.0];
        let y = [1.0, 3.0, 1.0, 4.0, 2.0, 8.0, 2.0, 9.0];
        let r = qn_correlation(&x, &y).unwrap();
        assert!((-1.0..=1.0).contains(&r));
    }
}
