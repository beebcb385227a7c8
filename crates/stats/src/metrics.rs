//! Evaluation metrics: RMSE for estimation accuracy (Figure 4), mean
//! average precision and nDCG for ranking quality (Table 1, Figure 5).

/// Arithmetic mean; 0.0 for an empty slice (callers treat empty metric
/// sets explicitly).
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Root mean squared error between paired estimate/truth slices.
///
/// # Panics
///
/// Panics if the slices differ in length (programmer error in a harness).
#[must_use]
pub fn rmse(estimates: &[f64], truths: &[f64]) -> f64 {
    assert_eq!(estimates.len(), truths.len(), "rmse requires paired slices");
    if estimates.is_empty() {
        return 0.0;
    }
    let mse = estimates
        .iter()
        .zip(truths)
        .map(|(e, t)| (e - t) * (e - t))
        .sum::<f64>()
        / estimates.len() as f64;
    mse.sqrt()
}

/// Average precision of a ranked list with binary relevance judgments.
///
/// `relevant[i]` says whether the item at rank `i` (0-based, best first)
/// is relevant. AP = mean over relevant positions of precision@that-rank.
/// Returns `None` when the list contains no relevant item (the query is
/// then conventionally excluded from MAP, matching trec-style evaluation).
#[must_use]
pub fn average_precision(relevant: &[bool]) -> Option<f64> {
    let mut hits = 0usize;
    let mut sum_prec = 0.0;
    for (i, &rel) in relevant.iter().enumerate() {
        if rel {
            hits += 1;
            sum_prec += hits as f64 / (i + 1) as f64;
        }
    }
    (hits > 0).then(|| sum_prec / hits as f64)
}

/// Recall at cutoff `k` of a ranked list with binary relevance
/// judgments: the fraction of *all* relevant items that appear in the
/// top `k` (`relevant[i]` says whether the item at rank `i`, 0-based and
/// best-first, is relevant). Returns `None` when the list contains no
/// relevant item, so such queries can be excluded from averages like the
/// MAP/nDCG conventions above.
#[must_use]
pub fn recall_at_k(relevant: &[bool], k: usize) -> Option<f64> {
    let total = relevant.iter().filter(|&&r| r).count();
    (total > 0).then(|| relevant.iter().take(k).filter(|&&r| r).count() as f64 / total as f64)
}

/// Discounted cumulative gain at cutoff `k` for graded relevance `gains`
/// (best-first ranked order): `Σ_{i<k} gain_i / log2(i + 2)`.
#[must_use]
pub(crate) fn dcg_at_k(gains: &[f64], k: usize) -> f64 {
    gains
        .iter()
        .take(k)
        .enumerate()
        .map(|(i, &g)| g / ((i + 2) as f64).log2())
        .sum()
}

/// Normalized DCG at cutoff `k`: DCG of the ranking divided by the DCG of
/// the ideal (descending-gain) ranking of the same items. Returns `None`
/// when the ideal DCG is zero (all gains zero).
#[must_use]
pub fn ndcg_at_k(gains: &[f64], k: usize) -> Option<f64> {
    let dcg = dcg_at_k(gains, k);
    let mut ideal: Vec<f64> = gains.to_vec();
    ideal.sort_by(|a, b| b.total_cmp(a));
    let idcg = dcg_at_k(&ideal, k);
    (idcg > 0.0).then(|| dcg / idcg)
}

/// Histogram of `values` over `bins` equal-width buckets spanning
/// `[lo, hi]`; values outside the range are clamped into the end buckets.
/// Used for the Figure 5 score distributions.
#[must_use]
pub fn histogram(values: &[f64], bins: usize, lo: f64, hi: f64) -> Vec<usize> {
    assert!(bins > 0, "histogram needs at least one bin");
    assert!(hi > lo, "histogram needs a non-empty range");
    let mut counts = vec![0usize; bins];
    let width = (hi - lo) / bins as f64;
    for &v in values {
        let idx = (((v - lo) / width).floor() as i64).clamp(0, bins as i64 - 1) as usize;
        counts[idx] += 1;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_basics() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
    }

    #[test]
    fn rmse_basics() {
        assert_eq!(rmse(&[], &[]), 0.0);
        assert_eq!(rmse(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
        assert!((rmse(&[0.0, 0.0], &[3.0, 4.0]) - (12.5f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "paired")]
    fn rmse_length_mismatch_panics() {
        let _ = rmse(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn ap_perfect_ranking_is_one() {
        assert_eq!(average_precision(&[true, true, false, false]), Some(1.0));
    }

    #[test]
    fn ap_worst_ranking() {
        // Single relevant item at the last of 4 positions: AP = 1/4.
        assert_eq!(average_precision(&[false, false, false, true]), Some(0.25));
    }

    #[test]
    fn ap_textbook_example() {
        // Relevant at ranks 1, 3, 5 → AP = (1/1 + 2/3 + 3/5)/3.
        let ap = average_precision(&[true, false, true, false, true]).unwrap();
        assert!((ap - (1.0 + 2.0 / 3.0 + 3.0 / 5.0) / 3.0).abs() < 1e-12);
    }

    #[test]
    fn ap_empty_or_no_relevant_is_none() {
        assert_eq!(average_precision(&[]), None);
        assert_eq!(average_precision(&[false, false]), None);
    }

    #[test]
    fn recall_counts_relevant_in_prefix() {
        let rel = [true, false, true, false, true];
        assert_eq!(recall_at_k(&rel, 1), Some(1.0 / 3.0));
        assert_eq!(recall_at_k(&rel, 3), Some(2.0 / 3.0));
        assert_eq!(recall_at_k(&rel, 5), Some(1.0));
        assert_eq!(recall_at_k(&rel, 100), Some(1.0));
        assert_eq!(recall_at_k(&rel, 0), Some(0.0));
        assert_eq!(recall_at_k(&[false, false], 2), None);
        assert_eq!(recall_at_k(&[], 2), None);
    }

    #[test]
    fn dcg_discounts_by_position() {
        let d = dcg_at_k(&[3.0, 2.0, 1.0], 3);
        let expected = 3.0 / 1.0 + 2.0 / 3f64.log2() + 1.0 / 2.0;
        assert!((d - expected).abs() < 1e-12);
    }

    #[test]
    fn dcg_cutoff_truncates() {
        assert_eq!(dcg_at_k(&[1.0, 1.0, 1.0], 1), 1.0);
        assert_eq!(dcg_at_k(&[], 5), 0.0);
    }

    #[test]
    fn ndcg_of_ideal_ranking_is_one() {
        let gains = [0.9, 0.7, 0.5, 0.1];
        assert!((ndcg_at_k(&gains, 4).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ndcg_of_reversed_ranking_is_less_than_one() {
        let gains = [0.1, 0.5, 0.7, 0.9];
        let n = ndcg_at_k(&gains, 4).unwrap();
        assert!(n < 1.0 && n > 0.0);
    }

    #[test]
    fn ndcg_all_zero_gains_is_none() {
        assert_eq!(ndcg_at_k(&[0.0, 0.0], 2), None);
    }

    #[test]
    fn ndcg_invariant_to_items_beyond_cutoff_order() {
        let a = ndcg_at_k(&[0.9, 0.8, 0.1, 0.2], 2).unwrap();
        let b = ndcg_at_k(&[0.9, 0.8, 0.2, 0.1], 2).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn histogram_counts_and_clamps() {
        let h = histogram(&[0.05, 0.15, 0.95, 1.5, -0.2], 10, 0.0, 1.0);
        assert_eq!(h.iter().sum::<usize>(), 5);
        assert_eq!(h[0], 2); // 0.05 and clamped −0.2
        assert_eq!(h[1], 1);
        assert_eq!(h[9], 2); // 0.95 and clamped 1.5
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn histogram_zero_bins_panics() {
        let _ = histogram(&[1.0], 0, 0.0, 1.0);
    }
}
