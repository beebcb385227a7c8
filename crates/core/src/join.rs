//! Sketch joins: reconstructing a uniform random sample of the joined
//! table (paper Section 3.2, Theorem 1) and estimating statistics on it.

use sketch_hashing::KeyHash;
use sketch_stats::{
    fisher_z_se, hfd_interval, hoeffding_interval, ConfidenceInterval, CorrelationEstimator,
    StatsError, ValueBounds,
};

use crate::error::SketchError;
use crate::sketch::CorrelationSketch;

/// The joined sketch `L_{X⨝Y}`: paired numeric values for every key
/// present in both sketches, together with the metadata needed for the
/// Section 4 risk statistics.
///
/// By Theorem 1 the pairs `(x[i], y[i])` form a uniform random sample of
/// the full joined table `T_{X⨝Y}`, so any sample statistic computed on
/// them is a valid estimator.
/// The columns are stored structure-of-arrays: `x`/`y` are contiguous
/// `f64` slices the estimator kernels (`sketch_stats::kernel`) consume
/// directly, with no row-wise intermediary. [`join_sketches_into`]
/// refills an existing sample in place so a caller joining many pairs
/// can reuse one buffer.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JoinSample {
    /// Hashed keys of the joined rows, ascending by unit hash.
    pub key_hashes: Vec<KeyHash>,
    /// Values from the left sketch, aligned with `key_hashes`.
    pub x: Vec<f64>,
    /// Values from the right sketch, aligned with `key_hashes`.
    pub y: Vec<f64>,
    /// Union of the two full-column value ranges — the `C_low`/`C_high`
    /// inputs of the Hoeffding interval. `None` if either column was
    /// empty.
    pub bounds: Option<ValueBounds>,
}

impl JoinSample {
    /// Number of joined rows (the "sketch intersection size" of Figure 4).
    #[must_use]
    pub fn len(&self) -> usize {
        self.key_hashes.len()
    }

    /// True when no keys were shared.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.key_hashes.is_empty()
    }

    /// Estimate the after-join correlation with the given estimator.
    ///
    /// # Errors
    ///
    /// Propagates the estimator's [`StatsError`]s (too few samples, zero
    /// variance, …).
    pub fn estimate(&self, estimator: CorrelationEstimator) -> Result<f64, StatsError> {
        estimator.estimate(&self.x, &self.y)
    }

    /// The paper's distribution-free Hoeffding confidence interval
    /// (Section 4.3) at total failure probability `alpha`.
    ///
    /// # Errors
    ///
    /// [`StatsError`] if the sample is unusable (empty, non-finite).
    pub fn hoeffding_ci(&self, alpha: f64) -> Result<ConfidenceInterval, StatsError> {
        let bounds = self
            .bounds
            .ok_or(StatsError::TooFewSamples { needed: 1, got: 0 })?;
        hoeffding_interval(&self.x, &self.y, bounds, alpha)
    }

    /// The HFD small-sample variant (sample standard deviations in the
    /// denominator) whose length feeds the `ci_h` ranking factor.
    ///
    /// # Errors
    ///
    /// [`StatsError`] if the sample is unusable.
    pub fn hfd_ci(&self, alpha: f64) -> Result<ConfidenceInterval, StatsError> {
        let bounds = self
            .bounds
            .ok_or(StatsError::TooFewSamples { needed: 1, got: 0 })?;
        hfd_interval(&self.x, &self.y, bounds, alpha)
    }

    /// Fisher's z standard error `1/√(max(4,n) − 3)` of this sample size.
    #[must_use]
    pub fn fisher_se(&self) -> f64 {
        fisher_z_se(self.len())
    }

    /// One-call summary: estimate plus every Section 4 risk statistic.
    ///
    /// # Errors
    ///
    /// [`StatsError`] if the sample is too small or degenerate for the
    /// chosen estimator.
    pub fn report(
        &self,
        estimator: CorrelationEstimator,
        alpha: f64,
    ) -> Result<EstimateReport, StatsError> {
        Ok(EstimateReport {
            estimate: self.estimate(estimator)?,
            estimator,
            sample_size: self.len(),
            hoeffding: self.hoeffding_ci(alpha)?,
            hfd_length: self.hfd_ci(alpha)?.length(),
            fisher_se: self.fisher_se(),
        })
    }
}

/// Everything a caller usually wants from one sketch-join estimate: the
/// point estimate and the Section 4 uncertainty statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EstimateReport {
    /// The correlation estimate.
    pub estimate: f64,
    /// Which estimator produced it.
    pub estimator: CorrelationEstimator,
    /// Join-sample size `n`.
    pub sample_size: usize,
    /// Distribution-free Hoeffding interval (clamped to `[−1, 1]`).
    pub hoeffding: ConfidenceInterval,
    /// Length of the (unclamped) HFD interval — the `ci_h` risk signal.
    pub hfd_length: f64,
    /// Fisher's z standard error `1/√(max(4,n) − 3)`.
    pub fisher_se: f64,
}

/// Join two sketches on their hashed keys, producing the reconstructed
/// uniform sample `L_{X⨝Y}` (Figure 2, right).
///
/// Runs in `O(|a| + |b|)`: both entry lists are sorted by
/// `(unit hash, key)`, so a single merge walk finds the intersection.
///
/// # Errors
///
/// [`SketchError::HasherMismatch`] when the sketches were built with
/// different hasher configurations (their key identifiers are
/// incomparable).
pub fn join_sketches(
    a: &CorrelationSketch,
    b: &CorrelationSketch,
) -> Result<JoinSample, SketchError> {
    let mut out = JoinSample::default();
    join_sketches_into(a, b, &mut out)?;
    Ok(out)
}

/// As [`join_sketches`], refilling a caller-owned [`JoinSample`] instead
/// of allocating one. `out` is cleared and overwritten unconditionally
/// (its capacity is reused), so the result is identical to
/// [`join_sketches`] for every prior state of `out`. The query engine
/// gets its samples from the index instead (postings carry values); the
/// one pairwise join it still runs — a shard worker's report for a
/// coordinator-chosen doc — reuses one buffer per worker this way.
///
/// # Errors
///
/// [`SketchError::HasherMismatch`] when the sketches were built with
/// different hasher configurations.
pub fn join_sketches_into(
    a: &CorrelationSketch,
    b: &CorrelationSketch,
    out: &mut JoinSample,
) -> Result<(), SketchError> {
    out.key_hashes.clear();
    out.x.clear();
    out.y.clear();
    out.bounds = None;
    if a.hasher() != b.hasher() {
        return Err(SketchError::HasherMismatch);
    }

    let ea = a.entries();
    let eb = b.entries();
    // Cached unit hashes drive the merge walk — the hot path of every
    // query rehashes nothing.
    let (ua_all, ub_all) = (a.units(), b.units());
    // The intersection is at most the smaller side; reserving it up
    // front keeps the hot loop free of reallocation.
    let cap = ea.len().min(eb.len());
    out.key_hashes.reserve(cap);
    out.x.reserve(cap);
    out.y.reserve(cap);

    let (mut i, mut j) = (0usize, 0usize);
    while i < ea.len() && j < eb.len() {
        let ka = ea[i].key;
        let kb = eb[j].key;
        match ua_all[i].total_cmp(&ub_all[j]).then(ka.cmp(&kb)) {
            std::cmp::Ordering::Equal => {
                out.key_hashes.push(ka);
                out.x.push(ea[i].value);
                out.y.push(eb[j].value);
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
        }
    }

    out.bounds = match (a.value_bounds(), b.value_bounds()) {
        (Some(ba), Some(bb)) => Some(ValueBounds::union(ba, bb)),
        _ => None,
    };
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{SketchBuilder, SketchConfig};
    use sketch_hashing::TupleHasher;
    use sketch_stats::pearson;
    use sketch_table::{exact_join, Aggregation, ColumnPair};
    use std::collections::HashSet;

    fn pair_with(table: &str, n: usize, f: impl Fn(usize) -> f64) -> ColumnPair {
        ColumnPair::new(
            table,
            "k",
            "v",
            (0..n).map(|i| format!("key-{i}")).collect(),
            (0..n).map(f).collect(),
        )
    }

    #[test]
    fn identical_key_sets_join_to_full_sketch_size() {
        // The paper's extreme example: same N keys on both sides — the
        // join must have exactly n rows, not n²/N.
        let n = 64;
        let tx = pair_with("tx", 10_000, |i| i as f64);
        let ty = pair_with("ty", 10_000, |i| (i as f64) * 2.0);
        let b = SketchBuilder::new(SketchConfig::with_size(n));
        let s = join_sketches(&b.build(&tx), &b.build(&ty)).unwrap();
        assert_eq!(s.len(), n);
    }

    #[test]
    fn join_sample_is_subset_of_exact_join() {
        let tx = pair_with("tx", 5_000, |i| i as f64);
        // ty covers only a subset of the keys.
        let ty = ColumnPair::new(
            "ty",
            "k",
            "v",
            (0..5_000)
                .filter(|i| i % 3 == 0)
                .map(|i| format!("key-{i}"))
                .collect(),
            (0..5_000)
                .filter(|i| i % 3 == 0)
                .map(|i| i as f64 + 1.0)
                .collect(),
        );
        let b = SketchBuilder::new(SketchConfig::with_size(128));
        let (la, lb) = (b.build(&tx), b.build(&ty));
        let sample = join_sketches(&la, &lb).unwrap();
        assert!(!sample.is_empty());

        // Every joined key hash must appear in both sketches.
        let ka: HashSet<_> = la.entries().iter().map(|e| e.key).collect();
        let kb: HashSet<_> = lb.entries().iter().map(|e| e.key).collect();
        for kh in &sample.key_hashes {
            assert!(ka.contains(kh) && kb.contains(kh));
        }

        // And the paired values must be consistent with the exact join.
        let exact = exact_join(&tx, &ty, Aggregation::Mean);
        let exact_pairs: HashSet<(u64, u64)> = exact
            .x
            .iter()
            .zip(&exact.y)
            .map(|(x, y)| (x.to_bits(), y.to_bits()))
            .collect();
        for (x, y) in sample.x.iter().zip(&sample.y) {
            assert!(exact_pairs.contains(&(x.to_bits(), y.to_bits())));
        }
    }

    #[test]
    fn theorem_one_join_equals_m_smallest_of_intersection() {
        // The joined keys must be exactly the |join| smallest g(k) values
        // of the exact key intersection — the mechanics behind Theorem 1.
        let tx = pair_with("tx", 3_000, |i| i as f64);
        let ty = ColumnPair::new(
            "ty",
            "k",
            "v",
            (1_000..4_000).map(|i| format!("key-{i}")).collect(),
            (1_000..4_000).map(|i| i as f64).collect(),
        );
        let cfg = SketchConfig::with_size(64);
        let b = SketchBuilder::new(cfg);
        let sample = join_sketches(&b.build(&tx), &b.build(&ty)).unwrap();
        assert!(!sample.is_empty());

        let hasher = cfg.hasher;
        use sketch_hashing::KeyHasher as _;
        let mut inter: Vec<(f64, KeyHash)> = (1_000..3_000)
            .map(|i| {
                let (kh, u) = hasher.g(format!("key-{i}").as_bytes());
                (u, kh)
            })
            .collect();
        inter.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let expected: Vec<KeyHash> = inter[..sample.len()].iter().map(|(_, k)| *k).collect();
        assert_eq!(sample.key_hashes, expected);
    }

    #[test]
    fn estimates_recover_true_correlation() {
        let tx = pair_with("tx", 20_000, |i| (i as f64 * 0.13).sin() * 10.0);
        let ty = pair_with("ty", 20_000, |i| {
            (i as f64 * 0.13).sin() * 10.0 + (i % 7) as f64
        });
        let exact = exact_join(&tx, &ty, Aggregation::Mean);
        let truth = pearson(&exact.x, &exact.y).unwrap();

        let b = SketchBuilder::new(SketchConfig::with_size(512));
        let sample = join_sketches(&b.build(&tx), &b.build(&ty)).unwrap();
        let est = sample.estimate(CorrelationEstimator::Pearson).unwrap();
        assert!(
            (est - truth).abs() < 0.1,
            "estimate {est} too far from truth {truth} (sample size {})",
            sample.len()
        );
    }

    #[test]
    fn hasher_mismatch_is_rejected() {
        let p = pair_with("t", 100, |i| i as f64);
        let a = SketchBuilder::new(SketchConfig::with_size(16)).build(&p);
        let c = SketchBuilder::new(SketchConfig::with_size(16).hasher(TupleHasher::new_64(99)))
            .build(&p);
        assert_eq!(join_sketches(&a, &c), Err(SketchError::HasherMismatch));
    }

    #[test]
    fn disjoint_sketches_join_empty() {
        let tx = pair_with("tx", 100, |i| i as f64);
        let ty = ColumnPair::new(
            "ty",
            "k",
            "v",
            (0..100).map(|i| format!("other-{i}")).collect(),
            (0..100).map(|i| i as f64).collect(),
        );
        let b = SketchBuilder::new(SketchConfig::with_size(32));
        let s = join_sketches(&b.build(&tx), &b.build(&ty)).unwrap();
        assert!(s.is_empty());
        assert!(s.estimate(CorrelationEstimator::Pearson).is_err());
    }

    #[test]
    fn ci_methods_work_on_join_samples() {
        let tx = pair_with("tx", 8_000, |i| (i % 100) as f64);
        let ty = pair_with("ty", 8_000, |i| (i % 100) as f64 + ((i * 7) % 13) as f64);
        let b = SketchBuilder::new(SketchConfig::with_size(512));
        let s = join_sketches(&b.build(&tx), &b.build(&ty)).unwrap();
        assert!(s.len() > 100);

        let r = s.estimate(CorrelationEstimator::Pearson).unwrap();
        let hoeff = s.hoeffding_ci(0.05).unwrap();
        let hfd = s.hfd_ci(0.05).unwrap();
        assert!(hoeff.contains(r));
        assert!(hfd.length().is_finite() && hfd.length() > 0.0);
        assert!(s.fisher_se() < 0.1);
    }

    #[test]
    fn join_is_symmetric_up_to_swapping_sides() {
        let tx = pair_with("tx", 2_000, |i| i as f64);
        let ty = pair_with("ty", 1_500, |i| -(i as f64));
        let b = SketchBuilder::new(SketchConfig::with_size(64));
        let ab = join_sketches(&b.build(&tx), &b.build(&ty)).unwrap();
        let ba = join_sketches(&b.build(&ty), &b.build(&tx)).unwrap();
        assert_eq!(ab.key_hashes, ba.key_hashes);
        assert_eq!(ab.x, ba.y);
        assert_eq!(ab.y, ba.x);
    }

    #[test]
    fn report_bundles_all_risk_statistics() {
        let tx = pair_with("tx", 6_000, |i| (i % 50) as f64);
        let ty = pair_with("ty", 6_000, |i| (i % 50) as f64 * 2.0 + 1.0);
        let b = SketchBuilder::new(SketchConfig::with_size(256));
        let s = join_sketches(&b.build(&tx), &b.build(&ty)).unwrap();
        let rep = s.report(CorrelationEstimator::Pearson, 0.05).unwrap();
        assert_eq!(rep.sample_size, s.len());
        assert!((rep.estimate - 1.0).abs() < 1e-9);
        assert!(rep.hoeffding.contains(rep.estimate));
        assert!(rep.hfd_length > 0.0);
        assert!(rep.fisher_se < 0.1);
        assert_eq!(rep.estimator.name(), "pearson");
    }

    #[test]
    fn join_into_reused_buffer_is_identical_to_fresh_join() {
        let tx = pair_with("tx", 3_000, |i| i as f64);
        let ty = pair_with("ty", 2_000, |i| (i as f64) * 0.5);
        let tz = ColumnPair::new(
            "tz",
            "k",
            "v",
            (500..1_500).map(|i| format!("key-{i}")).collect(),
            (500..1_500).map(|i| -(i as f64)).collect(),
        );
        let b = SketchBuilder::new(SketchConfig::with_size(64));
        let (sa, sb, sc) = (b.build(&tx), b.build(&ty), b.build(&tz));

        // Pollute the buffer with a larger unrelated join first: the
        // refill must clear every field, including `bounds`.
        let mut reused = join_sketches(&sa, &sb).unwrap();
        join_sketches_into(&sa, &sc, &mut reused).unwrap();
        assert_eq!(reused, join_sketches(&sa, &sc).unwrap());

        // A hasher mismatch must leave the buffer empty, not stale.
        let other = SketchBuilder::new(SketchConfig::with_size(16).hasher(TupleHasher::new_64(99)))
            .build(&tx);
        assert_eq!(
            join_sketches_into(&sa, &other, &mut reused),
            Err(SketchError::HasherMismatch)
        );
        assert!(reused.is_empty() && reused.bounds.is_none());
    }

    #[test]
    fn sample_is_ordered_by_unit_hash() {
        let tx = pair_with("tx", 4_000, |i| i as f64);
        let ty = pair_with("ty", 4_000, |i| i as f64);
        let b = SketchBuilder::new(SketchConfig::with_size(128));
        let la = b.build(&tx);
        let s = join_sketches(&la, &b.build(&ty)).unwrap();
        use sketch_hashing::KeyHasher as _;
        let units: Vec<f64> = s
            .key_hashes
            .iter()
            .map(|kh| la.hasher().unit_hash(*kh))
            .collect();
        for w in units.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }
}
