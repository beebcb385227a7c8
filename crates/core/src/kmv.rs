//! KMV statistics retained by correlation sketches (paper Sections 2.1 and
//! 3.3): distinct values and Jaccard containment, through the
//! intersection cardinality of paper Eq. 1.
//!
//! "Another benefit of Correlation Sketches is that it retains all
//! information contained in a KMV sketch … it also enables the estimation
//! of all statistics supported by the family of minimum-value sketches."
//! These estimates are what the `ĵc` ranking baseline and the join-size
//! predictions use.

use crate::error::SketchError;
use crate::sketch::CorrelationSketch;

/// Unbiased distinct-value estimator `D̂_UB = (k − 1)/U(k)` of Beyer et
/// al. When the sketch is unsaturated (no key was ever excluded) the
/// count is exact.
#[must_use]
pub fn distinct_value_estimate(s: &CorrelationSketch) -> f64 {
    let k = s.len() as f64;
    if !s.is_saturated() || s.is_empty() {
        return k;
    }
    match s.kth_unit_hash() {
        Some(u) if u > 0.0 => (k - 1.0) / u,
        _ => k,
    }
}

/// Walk the two sorted entry lists and produce the combined KMV synopsis
/// `L = L_A ⊕ L_B`: the `k = min(k_A, k_B)` smallest distinct hashed keys
/// of the union. Returns `(k, U(k), K∩)` where `K∩` counts combined keys
/// present in *both* sketches.
fn combine(
    a: &CorrelationSketch,
    b: &CorrelationSketch,
) -> Result<(usize, f64, usize), SketchError> {
    if a.hasher() != b.hasher() {
        return Err(SketchError::HasherMismatch);
    }
    let k = a.len().min(b.len());
    if k == 0 {
        return Ok((0, 0.0, 0));
    }
    let ea = a.entries();
    let eb = b.entries();
    // Merge-walk on the cached unit hashes — no rehashing per comparison.
    let (ua_all, ub_all) = (a.units(), b.units());
    let (mut i, mut j) = (0usize, 0usize);
    let mut taken = 0usize;
    let mut common = 0usize;
    let mut last_unit = 0.0f64;
    while taken < k {
        let ca = (i < ea.len()).then(|| (ua_all[i], ea[i].key));
        let cb = (j < eb.len()).then(|| (ub_all[j], eb[j].key));
        match (ca, cb) {
            (Some((ua, ka)), Some((ub, kb))) => {
                match ua.total_cmp(&ub).then(ka.cmp(&kb)) {
                    std::cmp::Ordering::Equal => {
                        common += 1;
                        last_unit = ua;
                        i += 1;
                        j += 1;
                    }
                    std::cmp::Ordering::Less => {
                        last_unit = ua;
                        i += 1;
                    }
                    std::cmp::Ordering::Greater => {
                        last_unit = ub;
                        j += 1;
                    }
                }
                taken += 1;
            }
            (Some((ua, _)), None) => {
                last_unit = ua;
                i += 1;
                taken += 1;
            }
            (None, Some((ub, _))) => {
                last_unit = ub;
                j += 1;
                taken += 1;
            }
            (None, None) => break,
        }
    }
    Ok((taken, last_unit, common))
}

/// Exact intersection count over complete (unsaturated) sketches. Both
/// entry lists are sorted by `(unit hash, key)`, so a single merge walk
/// suffices — no hash sets.
fn intersection_full(a: &CorrelationSketch, b: &CorrelationSketch) -> usize {
    let (ea, eb) = (a.entries(), b.entries());
    let (ua, ub) = (a.units(), b.units());
    let (mut i, mut j) = (0usize, 0usize);
    let mut inter = 0usize;
    while i < ea.len() && j < eb.len() {
        match ua[i].total_cmp(&ub[j]).then(ea[i].key.cmp(&eb[j].key)) {
            std::cmp::Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
        }
    }
    inter
}

/// Estimate the number of distinct keys in the intersection `K_A ∩ K_B`
/// — paper Eq. 1: `D̂∩ = (K∩/k) · (k − 1)/U(k)`.
///
/// After per-key aggregation every key appears once per table, so this is
/// also the estimated *join cardinality* `|T_{X⨝Y}|` (Section 3.3).
///
/// # Errors
///
/// [`SketchError::HasherMismatch`] for incompatible sketches.
fn intersection_estimate(a: &CorrelationSketch, b: &CorrelationSketch) -> Result<f64, SketchError> {
    if a.hasher() != b.hasher() {
        return Err(SketchError::HasherMismatch);
    }
    if !a.is_saturated() && !b.is_saturated() {
        return Ok(intersection_full(a, b) as f64);
    }
    let (k, u_k, common) = combine(a, b)?;
    if k == 0 {
        return Ok(0.0);
    }
    if u_k <= 0.0 {
        return Ok(common as f64);
    }
    Ok((common as f64 / k as f64) * ((k as f64 - 1.0) / u_k))
}

/// Estimate the Jaccard containment `|K_A ∩ K_B| / |K_A|` of `a`'s keys in
/// `b` — the `ĵc` baseline of the paper's ranking evaluation
/// (Section 5.4). Clamped to `[0, 1]`.
///
/// # Errors
///
/// [`SketchError::HasherMismatch`] for incompatible sketches.
pub fn containment_estimate(
    a: &CorrelationSketch,
    b: &CorrelationSketch,
) -> Result<f64, SketchError> {
    let inter = intersection_estimate(a, b)?;
    let da = distinct_value_estimate(a);
    if da <= 0.0 {
        return Ok(0.0);
    }
    Ok((inter / da).clamp(0.0, 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{SketchBuilder, SketchConfig};
    use sketch_table::ColumnPair;

    fn keyed_pair(table: &str, range: std::ops::Range<usize>) -> ColumnPair {
        ColumnPair::new(
            table,
            "k",
            "v",
            range.clone().map(|i| format!("key-{i}")).collect(),
            range.map(|i| i as f64).collect(),
        )
    }

    fn sketch(p: &ColumnPair, n: usize) -> CorrelationSketch {
        SketchBuilder::new(SketchConfig::with_size(n)).build(p)
    }

    #[test]
    fn dv_estimate_exact_when_unsaturated() {
        let s = sketch(&keyed_pair("t", 0..100), 256);
        assert_eq!(distinct_value_estimate(&s), 100.0);
    }

    #[test]
    fn dv_estimate_within_error_envelope() {
        // Theoretical relative std error of D̂_UB ≈ 1/√(k−2).
        for &(d, k) in &[(10_000usize, 256usize), (50_000, 1024), (5_000, 128)] {
            let s = sketch(&keyed_pair("t", 0..d), k);
            let est = distinct_value_estimate(&s);
            let rel = (est - d as f64).abs() / d as f64;
            let three_sigma = 3.0 / ((k as f64) - 2.0).sqrt();
            assert!(rel < three_sigma, "d={d} k={k}: est={est} rel={rel}");
        }
    }

    #[test]
    fn overlap_exact_for_small_tables() {
        let a = sketch(&keyed_pair("a", 0..50), 256);
        let b = sketch(&keyed_pair("b", 25..75), 256);
        assert_eq!(intersection_estimate(&a, &b).unwrap(), 25.0);
        assert!((containment_estimate(&a, &b).unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn intersection_estimate_large_overlapping_sets() {
        let a = sketch(&keyed_pair("a", 0..30_000), 1024);
        let b = sketch(&keyed_pair("b", 10_000..40_000), 1024);
        let est = intersection_estimate(&a, &b).unwrap();
        let truth = 20_000.0;
        assert!(
            (est - truth).abs() / truth < 0.25,
            "intersection est {est} vs {truth}"
        );
    }

    #[test]
    fn containment_estimate_tracks_truth() {
        let a = sketch(&keyed_pair("a", 0..10_000), 512);
        let b = sketch(&keyed_pair("b", 0..50_000), 512);
        // All of a's keys are contained in b.
        let est = containment_estimate(&a, &b).unwrap();
        assert!(est > 0.75, "containment est {est}, truth 1.0");
        // And the reverse containment is ≈ 0.2.
        let rev = containment_estimate(&b, &a).unwrap();
        assert!((rev - 0.2).abs() < 0.1, "reverse containment {rev}");
    }

    #[test]
    fn disjoint_sets_give_zero_overlap_statistics() {
        let a = sketch(&keyed_pair("a", 0..10_000), 256);
        let b = sketch(
            &ColumnPair::new(
                "b",
                "k",
                "v",
                (0..10_000).map(|i| format!("other-{i}")).collect(),
                (0..10_000).map(|i| i as f64).collect(),
            ),
            256,
        );
        assert_eq!(intersection_estimate(&a, &b).unwrap(), 0.0);
        assert_eq!(containment_estimate(&a, &b).unwrap(), 0.0);
    }

    #[test]
    fn empty_sketch_edge_cases() {
        let e = sketch(&keyed_pair("e", 0..0), 64);
        let a = sketch(&keyed_pair("a", 0..100), 256);
        assert_eq!(distinct_value_estimate(&e), 0.0);
        assert_eq!(intersection_estimate(&e, &a).unwrap(), 0.0);
        assert_eq!(containment_estimate(&e, &a).unwrap(), 0.0);
    }

    #[test]
    fn hasher_mismatch_rejected() {
        use sketch_hashing::TupleHasher;
        let p = keyed_pair("t", 0..100);
        let a = sketch(&p, 16);
        let c = SketchBuilder::new(SketchConfig::with_size(16).hasher(TupleHasher::new_64(5)))
            .build(&p);
        assert!(intersection_estimate(&a, &c).is_err());
        assert!(containment_estimate(&a, &c).is_err());
    }
}
