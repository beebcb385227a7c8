//! Kendall's rank correlation τ-b.
//!
//! Not part of the paper's five evaluated estimators, but Theorem 1 makes
//! *any* paired-sample statistic estimable from a sketch join; Kendall's τ
//! is the most commonly requested addition (the paper's own framing:
//! "sketches … can be used to compute any statistics that are based on
//! paired numeric values"). Implemented with the `O(n log n)`
//! Knight (1966) merge-sort inversion count, with τ-b tie correction.

use crate::error::{validate_pairs, StatsError};

/// Merge-sort that counts inversions ("discordant swaps") in `values`.
fn count_swaps(values: &mut [f64], buf: &mut [f64]) -> u64 {
    let n = values.len();
    if n <= 1 {
        return 0;
    }
    let mid = n / 2;
    let (left, right) = values.split_at_mut(mid);
    let mut swaps = count_swaps(left, buf) + count_swaps(right, buf);

    // Merge, counting how many right elements jump over left elements.
    let (mut i, mut j, mut k) = (0usize, 0usize, 0usize);
    while i < left.len() && j < right.len() {
        if left[i] <= right[j] {
            buf[k] = left[i];
            i += 1;
        } else {
            buf[k] = right[j];
            swaps += (left.len() - i) as u64;
            j += 1;
        }
        k += 1;
    }
    while i < left.len() {
        buf[k] = left[i];
        i += 1;
        k += 1;
    }
    while j < right.len() {
        buf[k] = right[j];
        j += 1;
        k += 1;
    }
    values.copy_from_slice(&buf[..n]);
    swaps
}

/// Count `Σ t(t−1)/2` over runs of equal values in sorted `v`.
fn tie_pairs(sorted: &[f64]) -> u64 {
    let mut total = 0u64;
    let mut run = 1u64;
    for w in sorted.windows(2) {
        if w[0] == w[1] {
            run += 1;
        } else {
            total += run * (run - 1) / 2;
            run = 1;
        }
    }
    total + run * (run - 1) / 2
}

/// Kendall's τ-b between paired samples, tie-corrected:
///
/// ```text
/// τ_b = (C − D) / √((n0 − n1)(n0 − n2)),   n0 = n(n−1)/2
/// ```
///
/// where `C`/`D` count concordant/discordant pairs and `n1`/`n2` are the
/// tie-pair counts of each variable. `O(n log n)`.
///
/// # Errors
///
/// Same failure modes as [`crate::pearson::pearson`]; all-tied variables
/// yield [`StatsError::ZeroVariance`].
pub(crate) fn kendall_tau(x: &[f64], y: &[f64]) -> Result<f64, StatsError> {
    validate_pairs(x, y, 2)?;
    let n = x.len();

    // Sort pairs by x (then y, to group x-ties deterministically).
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&a, &b| x[a].total_cmp(&x[b]).then(y[a].total_cmp(&y[b])));
    let xs: Vec<f64> = idx.iter().map(|&i| x[i]).collect();
    let mut ys: Vec<f64> = idx.iter().map(|&i| y[i]).collect();

    let n0 = (n as u64) * (n as u64 - 1) / 2;
    let n1 = tie_pairs(&xs);
    let mut ys_sorted = ys.clone();
    ys_sorted.sort_by(f64::total_cmp);
    let n2 = tie_pairs(&ys_sorted);

    // Joint ties (pairs tied in both x and y) must not count as
    // discordant; they are excluded from both C and D.
    let mut joint = 0u64;
    {
        let mut pairs: Vec<(u64, u64)> = xs
            .iter()
            .zip(&ys)
            .map(|(a, b)| (a.to_bits(), b.to_bits()))
            .collect();
        pairs.sort_unstable();
        let mut run = 1u64;
        for w in pairs.windows(2) {
            if w[0] == w[1] {
                run += 1;
            } else {
                joint += run * (run - 1) / 2;
                run = 1;
            }
        }
        joint += run * (run - 1) / 2;
    }

    if n0 == n1 || n0 == n2 {
        return Err(StatsError::ZeroVariance);
    }

    // Discordant pairs = inversions of y within the x-sorted order,
    // except that y-values inside an x-tie group are sorted ascending (by
    // the secondary sort key) and therefore contribute no inversions.
    let mut buf = vec![0.0; n];
    let swaps = count_swaps(&mut ys, &mut buf);

    // C − D = n0 − n1 − n2 + joint − 2·D.
    let num = n0 as f64 - n1 as f64 - n2 as f64 + joint as f64 - 2.0 * swaps as f64;
    let den = ((n0 - n1) as f64 * (n0 - n2) as f64).sqrt();
    Ok((num / den).clamp(-1.0, 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force reference implementation (O(n²)). Sign comparisons use
    /// `Ordering` — note `f64::signum` maps ±0.0 to ±1, so a subtraction
    /// trick would miscount ties.
    fn kendall_naive(x: &[f64], y: &[f64]) -> f64 {
        use std::cmp::Ordering;
        let n = x.len();
        let (mut c, mut d) = (0i64, 0i64);
        for i in 0..n {
            for j in (i + 1)..n {
                let sx = x[i].total_cmp(&x[j]);
                let sy = y[i].total_cmp(&y[j]);
                if sx == Ordering::Equal || sy == Ordering::Equal {
                    continue; // any tie: neither concordant nor discordant
                }
                if sx == sy {
                    c += 1;
                } else {
                    d += 1;
                }
            }
        }
        let n0 = (n * (n - 1) / 2) as f64;
        // τ-b uses total tie pairs per variable (including joint ties).
        let mut xs = x.to_vec();
        xs.sort_by(f64::total_cmp);
        let mut ys = y.to_vec();
        ys.sort_by(f64::total_cmp);
        let t1 = super::tie_pairs(&xs) as f64;
        let t2 = super::tie_pairs(&ys) as f64;
        (c - d) as f64 / ((n0 - t1) * (n0 - t2)).sqrt()
    }

    #[test]
    fn perfect_orderings() {
        let x: Vec<f64> = (1..=20).map(f64::from).collect();
        let y: Vec<f64> = x.iter().map(|v| v * v).collect();
        assert!((kendall_tau(&x, &y).unwrap() - 1.0).abs() < 1e-12);
        let yr: Vec<f64> = x.iter().map(|v| -v).collect();
        assert!((kendall_tau(&x, &yr).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn textbook_small_case() {
        // x = 1..5, y = [3,1,4,2,5]: C=6? compute via naive.
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y = [3.0, 1.0, 4.0, 2.0, 5.0];
        let fast = kendall_tau(&x, &y).unwrap();
        let naive = kendall_naive(&x, &y);
        assert!((fast - naive).abs() < 1e-12, "{fast} vs {naive}");
    }

    #[test]
    fn matches_naive_on_pseudorandom_data_with_ties() {
        for seed in 0..10u64 {
            let n = 60;
            let x: Vec<f64> = (0..n)
                .map(|i| ((i as u64 * 2_654_435_761 + seed * 97) % 17) as f64)
                .collect();
            let y: Vec<f64> = (0..n)
                .map(|i| ((i as u64 * 40_503 + seed * 31) % 13) as f64)
                .collect();
            let fast = kendall_tau(&x, &y).unwrap();
            let naive = kendall_naive(&x, &y);
            assert!(
                (fast - naive).abs() < 1e-9,
                "seed {seed}: {fast} vs {naive}"
            );
        }
    }

    #[test]
    fn invariant_under_monotone_transform() {
        let x = [1.0, 5.0, 2.0, 8.0, 3.0, 9.0];
        let y = [2.0, 4.0, 9.0, 1.0, 7.0, 3.0];
        let a = kendall_tau(&x, &y).unwrap();
        let x2: Vec<f64> = x.iter().map(|v| v.powi(3)).collect();
        let b = kendall_tau(&x2, &y).unwrap();
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn symmetric() {
        let x = [1.0, 4.0, 2.0, 7.0, 7.0];
        let y = [3.0, 1.0, 9.0, 2.0, 2.0];
        assert!((kendall_tau(&x, &y).unwrap() - kendall_tau(&y, &x).unwrap()).abs() < 1e-12);
    }

    #[test]
    fn degenerate_inputs() {
        assert!(matches!(
            kendall_tau(&[1.0], &[1.0]),
            Err(StatsError::TooFewSamples { .. })
        ));
        assert_eq!(
            kendall_tau(&[2.0, 2.0, 2.0], &[1.0, 2.0, 3.0]),
            Err(StatsError::ZeroVariance)
        );
    }

    #[test]
    fn tau_weaker_than_rho_for_noisy_data() {
        // |τ| ≤ |ρ_s| empirically for most monotone-ish data; just check
        // both see the same sign and τ ∈ [−1, 1].
        let x: Vec<f64> = (0..50).map(f64::from).collect();
        let y: Vec<f64> = x.iter().map(|v| v + 10.0 * ((v * 1.3).sin())).collect();
        let tau = kendall_tau(&x, &y).unwrap();
        let rho = crate::spearman::spearman(&x, &y).unwrap();
        assert_eq!(tau.signum(), rho.signum());
        assert!((-1.0..=1.0).contains(&tau));
    }
}
