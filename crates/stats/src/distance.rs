//! Distance correlation (Székely, Rizzo & Bakirov 2007) — cited by the
//! paper (§6) as an example of the statistics a sketch-join sample
//! supports beyond classical correlations.
//!
//! Distance correlation is zero **iff** the variables are independent (for
//! finite first moments), so it detects arbitrary — not just monotone —
//! dependence. The plug-in estimator is `O(n²)`, fine for sketch-join
//! samples (≤ a few thousand pairs).

use crate::error::{validate_pairs, StatsError};

/// Doubly-centered pairwise-distance matrix of a 1-D sample, flattened
/// row-major.
fn centered_distances(v: &[f64]) -> Vec<f64> {
    let n = v.len();
    let mut d = vec![0.0; n * n];
    let mut row_means = vec![0.0; n];
    let mut grand = 0.0;
    for i in 0..n {
        for j in 0..n {
            let dist = (v[i] - v[j]).abs();
            d[i * n + j] = dist;
            row_means[i] += dist;
        }
        grand += row_means[i];
        row_means[i] /= n as f64;
    }
    grand /= (n * n) as f64;
    for i in 0..n {
        for j in 0..n {
            d[i * n + j] += grand - row_means[i] - row_means[j];
        }
    }
    d
}

/// Sample distance correlation `dCor(x, y) ∈ [0, 1]`.
///
/// Returns the square root of `dCov² / √(dVar_x · dVar_y)`; by
/// construction non-negative, and (asymptotically) zero exactly under
/// independence.
///
/// # Errors
///
/// Standard paired-sample validation errors; a constant variable yields
/// [`StatsError::ZeroVariance`].
pub(crate) fn distance_correlation(x: &[f64], y: &[f64]) -> Result<f64, StatsError> {
    validate_pairs(x, y, 2)?;
    let n = x.len();
    let a = centered_distances(x);
    let b = centered_distances(y);

    let n2 = (n * n) as f64;
    let mut dcov2 = 0.0;
    let mut dvar_x = 0.0;
    let mut dvar_y = 0.0;
    for (ai, bi) in a.iter().zip(&b) {
        dcov2 += ai * bi;
        dvar_x += ai * ai;
        dvar_y += bi * bi;
    }
    dcov2 /= n2;
    dvar_x /= n2;
    dvar_y /= n2;

    if dvar_x <= 0.0 || dvar_y <= 0.0 {
        return Err(StatsError::ZeroVariance);
    }
    let r2 = dcov2 / (dvar_x * dvar_y).sqrt();
    Ok(r2.max(0.0).sqrt().min(1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_linear_dependence_gives_one() {
        let x: Vec<f64> = (0..40).map(f64::from).collect();
        let y: Vec<f64> = x.iter().map(|v| 3.0 * v - 7.0).collect();
        let d = distance_correlation(&x, &y).unwrap();
        assert!(d > 0.999, "d={d}");
        // Negative linear dependence too: dCor is sign-blind.
        let yn: Vec<f64> = x.iter().map(|v| -v).collect();
        assert!(distance_correlation(&x, &yn).unwrap() > 0.999);
    }

    #[test]
    fn detects_nonmonotone_dependence_that_spearman_misses() {
        // y = (x − 0.5)² over a symmetric grid: ρ_s ≈ 0, dCor ≫ 0.
        let x: Vec<f64> = (0..101).map(|i| f64::from(i) / 100.0).collect();
        let y: Vec<f64> = x.iter().map(|v| (v - 0.5) * (v - 0.5)).collect();
        let rho = crate::spearman::spearman(&x, &y).unwrap();
        assert!(rho.abs() < 0.05, "spearman blind: {rho}");
        let d = distance_correlation(&x, &y).unwrap();
        assert!(d > 0.4, "dCor must see the parabola: {d}");
    }

    #[test]
    fn near_zero_for_independent_grids() {
        let x: Vec<f64> = (0..400).map(|i| f64::from(i % 20)).collect();
        let y: Vec<f64> = (0..400).map(|i| f64::from(i / 20)).collect();
        let d = distance_correlation(&x, &y).unwrap();
        assert!(d < 0.1, "d={d}");
    }

    #[test]
    fn symmetric_and_bounded() {
        let x = [1.0, 4.0, 2.0, 8.0, 5.0, 7.0];
        let y = [3.0, 1.0, 9.0, 2.0, 7.0, 4.0];
        let a = distance_correlation(&x, &y).unwrap();
        let b = distance_correlation(&y, &x).unwrap();
        assert!((a - b).abs() < 1e-12);
        assert!((0.0..=1.0).contains(&a));
    }

    #[test]
    fn invariant_under_shift_and_positive_scale() {
        let x = [1.0, 4.0, 2.0, 8.0, 5.0];
        let y = [3.0, 1.0, 9.0, 2.0, 7.0];
        let a = distance_correlation(&x, &y).unwrap();
        let x2: Vec<f64> = x.iter().map(|v| 5.0 * v + 100.0).collect();
        let b = distance_correlation(&x2, &y).unwrap();
        assert!((a - b).abs() < 1e-9);
    }

    #[test]
    fn degenerate_inputs() {
        assert!(matches!(
            distance_correlation(&[1.0], &[2.0]),
            Err(StatsError::TooFewSamples { .. })
        ));
        assert_eq!(
            distance_correlation(&[5.0, 5.0, 5.0], &[1.0, 2.0, 3.0]),
            Err(StatsError::ZeroVariance)
        );
    }
}
