//! Unified interface over the five correlation estimators the paper
//! evaluates (Section 5.3).

use crate::bootstrap::{pm1_bootstrap_with_scratch, BootstrapConfig, BootstrapScratch};
use crate::distance::distance_correlation;
use crate::error::StatsError;
use crate::kendall::kendall_tau;
use crate::pearson::pearson;
use crate::qn::qn_correlation;
use crate::rin::rin_correlation;
use crate::spearman::spearman;

/// The correlation estimators studied in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CorrelationEstimator {
    /// Pearson's sample correlation (Eq. 3).
    Pearson,
    /// Spearman's rank correlation.
    Spearman,
    /// Rank-based Inverse Normal (rankit + Pearson).
    Rin,
    /// Robust correlation via the `Qn` scale estimator.
    Qn,
    /// PM1 bootstrap (mean of resampled Pearson correlations) with the
    /// given RNG seed.
    Pm1Bootstrap {
        /// Seed for the deterministic resampling stream.
        seed: u64,
    },
    /// Kendall's τ-b rank correlation (extension beyond the paper's five;
    /// Theorem 1 makes any paired statistic estimable).
    Kendall,
    /// Distance correlation (Székely et al.) — detects arbitrary
    /// dependence, sign-blind, in `[0, 1]` (extension, cited in paper §6).
    DistanceCorrelation,
}

impl CorrelationEstimator {
    /// The five estimators evaluated in the paper (Section 5.3), in the
    /// paper's order — what Figure 4 sweeps over.
    pub const ALL: [Self; 5] = [
        Self::Pearson,
        Self::Spearman,
        Self::Rin,
        Self::Qn,
        Self::Pm1Bootstrap { seed: 0x5eed },
    ];

    /// Paper estimators plus the extensions (Kendall, distance
    /// correlation).
    pub const EXTENDED: [Self; 7] = [
        Self::Pearson,
        Self::Spearman,
        Self::Rin,
        Self::Qn,
        Self::Pm1Bootstrap { seed: 0x5eed },
        Self::Kendall,
        Self::DistanceCorrelation,
    ];

    /// Short machine-friendly name (matches the labels in Figure 4).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Self::Pearson => "pearson",
            Self::Spearman => "spearman",
            Self::Rin => "rin",
            Self::Qn => "qn",
            Self::Pm1Bootstrap { .. } => "pm1",
            Self::Kendall => "kendall",
            Self::DistanceCorrelation => "dcor",
        }
    }

    /// Minimum paired-sample size this estimator needs to produce
    /// *meaningful* output — enforced by [`Self::estimate`], so "n below
    /// the minimum ⇒ always `Err`" is a contract admission checks (like
    /// the query planner's pass-2 gate) can rely on.
    ///
    /// The moment/rank estimators are honest at `n = 2` (two distinct
    /// points carry sign information). The two resampling-free composites
    /// need one more row: at `n = 2` every nondegenerate PM1 resample is
    /// the full sample (the bootstrap mean degenerates to plain Pearson),
    /// and the distance-correlation centering algebra returns exactly 1
    /// for *any* two distinct points — no information about the data.
    #[must_use]
    pub fn min_samples(&self) -> usize {
        match self {
            Self::Pearson | Self::Spearman | Self::Rin | Self::Qn | Self::Kendall => 2,
            Self::Pm1Bootstrap { .. } | Self::DistanceCorrelation => 3,
        }
    }

    /// Estimate the correlation of the paired sample.
    ///
    /// # Errors
    ///
    /// Propagates the underlying estimator's [`StatsError`]s; any sample
    /// smaller than [`Self::min_samples`] is a
    /// [`StatsError::TooFewSamples`].
    pub fn estimate(&self, x: &[f64], y: &[f64]) -> Result<f64, StatsError> {
        self.estimate_with_scratch(x, y, &mut BootstrapScratch::new())
    }

    /// As [`Self::estimate`], with PM1's resampling done in caller-owned
    /// buffers (the other estimators do not touch them). Bit-identical
    /// for every scratch state.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Self::estimate`].
    pub fn estimate_with_scratch(
        &self,
        x: &[f64],
        y: &[f64],
        scratch: &mut BootstrapScratch,
    ) -> Result<f64, StatsError> {
        crate::error::validate_pairs(x, y, self.min_samples())?;
        match self {
            Self::Pearson => pearson(x, y),
            Self::Spearman => spearman(x, y),
            Self::Rin => rin_correlation(x, y),
            Self::Qn => qn_correlation(x, y),
            Self::Pm1Bootstrap { seed } => {
                let cfg = BootstrapConfig {
                    seed: *seed,
                    ..BootstrapConfig::default()
                };
                pm1_bootstrap_with_scratch(x, y, &cfg, scratch).map(|b| b.estimate)
            }
            Self::Kendall => kendall_tau(x, y),
            Self::DistanceCorrelation => distance_correlation(x, y),
        }
    }

    /// The population-level quantity this estimator targets, computed on
    /// full columns. For the rank-based estimators this applies the same
    /// transformation to the population data (the paper compares sketch
    /// estimates "to their corresponding population correlations,
    /// including the transformations of the population data when
    /// applicable"); PM1 targets the plain Pearson correlation.
    ///
    /// # Errors
    ///
    /// Propagates the underlying estimator's [`StatsError`]s.
    pub fn population_target(&self, x: &[f64], y: &[f64]) -> Result<f64, StatsError> {
        match self {
            Self::Pearson | Self::Pm1Bootstrap { .. } => pearson(x, y),
            Self::Spearman => spearman(x, y),
            Self::Rin => rin_correlation(x, y),
            Self::Qn => qn_correlation(x, y),
            Self::Kendall => kendall_tau(x, y),
            Self::DistanceCorrelation => distance_correlation(x, y),
        }
    }
}

impl std::fmt::Display for CorrelationEstimator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for CorrelationEstimator {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "pearson" | "rp" => Ok(Self::Pearson),
            "spearman" | "rs" => Ok(Self::Spearman),
            "rin" => Ok(Self::Rin),
            "qn" => Ok(Self::Qn),
            "pm1" | "bootstrap" => Ok(Self::Pm1Bootstrap { seed: 0x5eed }),
            "kendall" | "tau" => Ok(Self::Kendall),
            "dcor" | "distance" => Ok(Self::DistanceCorrelation),
            other => Err(format!(
                "unknown estimator '{other}' (expected pearson|spearman|rin|qn|pm1|kendall|dcor)"
            )),
        }
    }
}

/// Free-function convenience wrapper around
/// [`CorrelationEstimator::estimate`].
///
/// # Errors
///
/// Propagates the underlying estimator's [`StatsError`]s.
pub fn estimate_correlation(
    estimator: CorrelationEstimator,
    x: &[f64],
    y: &[f64],
) -> Result<f64, StatsError> {
    estimator.estimate(x, y)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_estimators_agree_on_perfect_linear_data() {
        let x: Vec<f64> = (1..=50).map(f64::from).collect();
        let y: Vec<f64> = x.iter().map(|v| 3.0 * v + 2.0).collect();
        for est in CorrelationEstimator::ALL {
            let r = est.estimate(&x, &y).unwrap();
            assert!(r > 0.98, "{est}: r={r}");
        }
    }

    #[test]
    fn all_estimators_agree_on_sign() {
        let x: Vec<f64> = (1..=50).map(f64::from).collect();
        let y: Vec<f64> = x.iter().map(|v| -v + 0.01 * (v * 10.0).sin()).collect();
        for est in CorrelationEstimator::ALL {
            let r = est.estimate(&x, &y).unwrap();
            assert!(r < -0.9, "{est}: r={r}");
        }
    }

    #[test]
    fn names_roundtrip_through_fromstr() {
        for est in CorrelationEstimator::ALL {
            let parsed: CorrelationEstimator = est.name().parse().unwrap();
            assert_eq!(parsed.name(), est.name());
        }
        assert!("nope".parse::<CorrelationEstimator>().is_err());
    }

    #[test]
    fn aliases_parse() {
        assert_eq!(
            "rp".parse::<CorrelationEstimator>().unwrap(),
            CorrelationEstimator::Pearson
        );
        assert_eq!(
            "rs".parse::<CorrelationEstimator>().unwrap(),
            CorrelationEstimator::Spearman
        );
    }

    #[test]
    fn population_target_of_pm1_is_pearson() {
        let x = [1.0, 2.0, 3.0, 4.0, 10.0];
        let y = [1.0, 4.0, 9.0, 16.0, 100.0];
        let pm1 = CorrelationEstimator::Pm1Bootstrap { seed: 1 };
        assert_eq!(
            pm1.population_target(&x, &y).unwrap(),
            pearson(&x, &y).unwrap()
        );
        // But Spearman's target is the rank correlation (here exactly 1).
        let sp = CorrelationEstimator::Spearman;
        assert!((sp.population_target(&x, &y).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn errors_propagate() {
        // Non-collinear, non-constant data so nothing but the sample-size
        // gate can reject: every n below the estimator's honest minimum
        // must be a typed error, and the minimum itself must succeed.
        let x = [1.0, 2.0, 3.0, 5.0, 8.0, 13.0];
        let y = [2.0, 5.0, 7.0, 12.0, 18.0, 25.0];
        for est in CorrelationEstimator::EXTENDED {
            let min = est.min_samples();
            for n in 0..min {
                assert!(
                    matches!(
                        est.estimate(&x[..n], &y[..n]),
                        Err(StatsError::TooFewSamples { needed, got })
                            if needed == min && got == n
                    ),
                    "{est}: n={n} below min={min} must be TooFewSamples"
                );
            }
            assert!(
                est.estimate(&x[..min], &y[..min]).is_ok(),
                "{est}: n={min} (the minimum) must succeed"
            );
        }
    }
}
