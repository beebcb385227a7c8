//! Pearson's sample correlation coefficient `r` (paper Eq. 3).

use crate::error::{validate_pairs, StatsError};
use crate::kernel::{centered_sums, column_means};

/// Pearson's sample correlation between paired samples `x` and `y`.
///
/// Implements Eq. 3 of the paper:
///
/// ```text
/// r = Σ (xᵢ − x̄)(yᵢ − ȳ) / ( √Σ(xᵢ − x̄)² · √Σ(yᵢ − ȳ)² )
/// ```
///
/// Uses a two-pass, mean-centred computation for numerical stability (the
/// textbook one-pass `E[XY] − E[X]E[Y]` form loses catastrophic precision
/// when means are large relative to the spread, which is common for
/// monetary columns). The result is clamped to `[−1, 1]` to absorb
/// last-bit rounding.
///
/// Both passes run on the chunked lane kernels of [`crate::kernel`]
/// (means, then the three centered sums fused in one loop), so the
/// moment accumulation autovectorizes. Lane-splitting reassociates the
/// float additions, which can move the result by a few ulps relative to
/// a single-accumulator loop for `n >` `kernel::LANES`; for
/// shorter inputs the kernels degenerate to the plain left-to-right sum
/// and the result is bit-identical to the textbook implementation. The
/// result remains a pure function of `(x, y)` — see the determinism
/// contract in [`crate::kernel`].
///
/// ```
/// let x = [1.0, 2.0, 3.0, 4.0, 5.0];
/// let y = [2.0, 1.0, 4.0, 3.0, 5.0];
/// let r = sketch_stats::pearson(&x, &y).unwrap();
/// assert!((r - 0.8).abs() < 1e-12);
/// ```
///
/// # Errors
///
/// * [`StatsError::TooFewSamples`] if fewer than 2 pairs are supplied.
/// * [`StatsError::LengthMismatch`] if the slices differ in length.
/// * [`StatsError::ZeroVariance`] if either variable is constant.
/// * [`StatsError::NonFiniteInput`] on NaN/∞ inputs.
pub fn pearson(x: &[f64], y: &[f64]) -> Result<f64, StatsError> {
    validate_pairs(x, y, 2)?;
    let (mean_x, mean_y) = column_means(x, y);
    let s = centered_sums(x, y, mean_x, mean_y);
    if s.sxx <= 0.0 || s.syy <= 0.0 {
        return Err(StatsError::ZeroVariance);
    }
    Ok((s.sxy / (s.sxx.sqrt() * s.syy.sqrt())).clamp(-1.0, 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_positive_and_negative() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [10.0, 20.0, 30.0, 40.0];
        assert!((pearson(&x, &y).unwrap() - 1.0).abs() < 1e-12);
        let yn = [40.0, 30.0, 20.0, 10.0];
        assert!((pearson(&x, &yn).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn textbook_fixture() {
        // Hand-computed: x = [1,2,3,4,5], y = [2,1,4,3,5] → r = 0.8.
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y = [2.0, 1.0, 4.0, 3.0, 5.0];
        assert!((pearson(&x, &y).unwrap() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn invariant_under_affine_transform_with_positive_scale() {
        let x = [1.0, 5.0, 2.0, 8.0, 3.0];
        let y = [2.0, 4.0, 9.0, 1.0, 7.0];
        let r = pearson(&x, &y).unwrap();
        let x2: Vec<f64> = x.iter().map(|v| 3.5 * v + 100.0).collect();
        let y2: Vec<f64> = y.iter().map(|v| 0.25 * v - 42.0).collect();
        assert!((pearson(&x2, &y2).unwrap() - r).abs() < 1e-12);
    }

    #[test]
    fn sign_flips_under_negative_scale() {
        let x = [1.0, 5.0, 2.0, 8.0, 3.0];
        let y = [2.0, 4.0, 9.0, 1.0, 7.0];
        let r = pearson(&x, &y).unwrap();
        let y2: Vec<f64> = y.iter().map(|v| -v).collect();
        assert!((pearson(&x, &y2).unwrap() + r).abs() < 1e-12);
    }

    #[test]
    fn symmetric_in_arguments() {
        let x = [1.0, 4.0, 2.0, 7.0];
        let y = [3.0, 1.0, 9.0, 2.0];
        assert_eq!(pearson(&x, &y).unwrap(), pearson(&y, &x).unwrap());
    }

    #[test]
    fn numerically_stable_with_large_offsets() {
        // Same shape shifted by 1e9 must give the same correlation.
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y = [2.0, 1.0, 4.0, 3.0, 5.0];
        let r = pearson(&x, &y).unwrap();
        let xs: Vec<f64> = x.iter().map(|v| v + 1e9).collect();
        let ys: Vec<f64> = y.iter().map(|v| v + 1e9).collect();
        assert!((pearson(&xs, &ys).unwrap() - r).abs() < 1e-6);
    }

    #[test]
    fn errors() {
        assert_eq!(
            pearson(&[1.0], &[1.0]),
            Err(StatsError::TooFewSamples { needed: 2, got: 1 })
        );
        assert_eq!(
            pearson(&[1.0, 2.0, 3.0], &[1.0, 1.0, 1.0]),
            Err(StatsError::ZeroVariance)
        );
        assert_eq!(
            pearson(&[1.0, 2.0], &[1.0, 2.0, 3.0]),
            Err(StatsError::LengthMismatch { left: 2, right: 3 })
        );
    }

    #[test]
    fn result_always_in_unit_range() {
        // Nearly collinear data can round outside [−1,1] without the clamp.
        let x: Vec<f64> = (0..50).map(f64::from).collect();
        let y: Vec<f64> = x.iter().map(|v| 2.0 * v + 1e-14 * v.sin()).collect();
        let r = pearson(&x, &y).unwrap();
        assert!((-1.0..=1.0).contains(&r));
    }
}
