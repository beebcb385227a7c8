//! The `s1`–`s4` scoring functions (paper Section 4.4) — the one
//! implementation the query engine, the server and the evaluation
//! harness all rank with — operating on confidence-aware estimates
//! ([`ScoredEstimate`]: point estimate + interval).
//!
//! ```text
//! s1 = |r̂|                                      (no penalization)
//! s2 = |r̂| · (1 − se_z)      se_z = 1/√(max(4,n) − 3)
//! s3 = |r̂| · max(0, 1 − ci_len/2)               (absolute CI length)
//! s4 = |r̂| · (1 − (ci_len − min)/(max − min))   (list-normalized CI length)
//! ```
//!
//! The CI is the estimator-matched interval of
//! [`sketch_stats::scored_estimate`] — Fisher z for Pearson, bootstrap
//! for the robust estimators — so each scorer generalizes its paper
//! counterpart (`s2 = rp·se_z`, `s3 = rb·ci_b`, `s4 = rp·ci_h`) to every
//! estimator the engine supports.
//!
//! Scoring is **list-level** because `s4` normalizes CI lengths within
//! the ranked candidate list; `score_estimates` therefore takes the
//! whole list and returns one score per candidate. Candidates without a
//! usable estimate (degenerate join sample) or with a non-finite CI
//! score 0 — they sort behind every scorable candidate but ahead of
//! nothing else, deterministically.

use sketch_stats::{fisher_z_se, ScoredEstimate};

/// The four scoring functions of the live query path, in ascending
/// paper order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Scorer {
    /// `s1 = |r̂|` — the raw point estimate (the baseline the paper's
    /// CI-aware scorers are measured against).
    #[default]
    S1,
    /// `s2 = |r̂|·(1 − se_z)` — Fisher's z standard-error penalization.
    S2,
    /// `s3 = |r̂|·max(0, 1 − ci_len/2)` — absolute CI-length penalization
    /// (the paper's bootstrap-CI scorer shape).
    S3,
    /// `s4 = |r̂|·(1 − normalized ci_len)` — CI length normalized over
    /// the candidate list (the paper's best constant-time scorer shape).
    S4,
}

impl Scorer {
    /// All scorers, `s1..s4`.
    pub const ALL: [Self; 4] = [Self::S1, Self::S2, Self::S3, Self::S4];

    /// Canonical name (`"s1"`…`"s4"`).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Self::S1 => "s1",
            Self::S2 => "s2",
            Self::S3 => "s3",
            Self::S4 => "s4",
        }
    }

    /// Can a two-pass planner prune candidates under this scorer from
    /// per-candidate score bounds alone?
    ///
    /// `s1`–`s3` are per-candidate functions of `(estimate, n, ci_len)`,
    /// so a candidate's score bound is independent of who else is in the
    /// list. `s4` normalizes CI lengths *across the list*: removing a
    /// candidate with an extreme CI length shifts `(min, max)` and can
    /// reorder — or re-tie — the survivors, so no survivor-only
    /// evaluation reproduces the exhaustive ranking and pruning cannot
    /// be lossless. Planners must fall back to exhaustive for `s4`.
    #[must_use]
    pub fn prunable(&self) -> bool {
        !matches!(self, Self::S4)
    }
}

impl std::fmt::Display for Scorer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Scorer {
    type Err = String;

    /// Accepts the canonical `s1..s4` plus the paper-notation aliases
    /// used by the evaluation harness (`rp`, `rp*sez`, `rb*cib`,
    /// `rp*cih`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "s1" | "rp" | "point" => Ok(Self::S1),
            "s2" | "rp*sez" | "sez" => Ok(Self::S2),
            "s3" | "rb*cib" | "cib" => Ok(Self::S3),
            "s4" | "rp*cih" | "cih" => Ok(Self::S4),
            other => Err(format!(
                "unknown scorer '{other}' (expected s1|s2|s3|s4; aliases rp, rp*sez, rb*cib, rp*cih)"
            )),
        }
    }
}

/// Descending-score comparison that deterministically ranks NaN *last*.
/// `f64::total_cmp` alone would put NaN above +∞ in a descending sort,
/// so one degenerate candidate (constant column → undefined correlation)
/// would float to the top of the ranking instead of the bottom.
#[must_use]
pub fn desc_score_nan_last(a: f64, b: f64) -> std::cmp::Ordering {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => std::cmp::Ordering::Equal,
        (true, false) => std::cmp::Ordering::Greater, // a sorts after b
        (false, true) => std::cmp::Ordering::Less,
        (false, false) => b.total_cmp(&a),
    }
}

/// Is this estimate usable for scoring? Non-finite estimates or interval
/// endpoints (a degenerate candidate can surface NaN through the CI
/// arithmetic) are treated exactly like a missing estimate: score 0,
/// never a NaN that poisons the sort.
fn usable(e: &ScoredEstimate) -> bool {
    e.estimate.is_finite() && e.ci_lo.is_finite() && e.ci_hi.is_finite()
}

/// Score a candidate list under `scorer`; `estimates[i]` is `None` when
/// candidate `i` had no usable estimate (too-small or degenerate join
/// sample). Returns one finite score per candidate, aligned with the
/// input. List-level because `s4` normalizes CI lengths within the list.
#[must_use]
pub fn score_estimates(scorer: Scorer, estimates: &[Option<ScoredEstimate>]) -> Vec<f64> {
    let per_candidate = |f: &dyn Fn(&ScoredEstimate) -> f64| -> Vec<f64> {
        estimates
            .iter()
            .map(|e| e.as_ref().filter(|e| usable(e)).map_or(0.0, f))
            .collect()
    };
    match scorer {
        Scorer::S1 => per_candidate(&|e| e.estimate.abs()),
        Scorer::S2 => per_candidate(&|e| e.estimate.abs() * (1.0 - fisher_z_se(e.sample_size))),
        Scorer::S3 => per_candidate(&|e| e.estimate.abs() * (1.0 - e.ci_length() / 2.0).max(0.0)),
        Scorer::S4 => {
            let (min_len, max_len) = estimates
                .iter()
                .flatten()
                .filter(|e| usable(e))
                .map(ScoredEstimate::ci_length)
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), l| {
                    (lo.min(l), hi.max(l))
                });
            per_candidate(&|e| {
                let cih = if max_len > min_len {
                    1.0 - (e.ci_length() - min_len) / (max_len - min_len)
                } else {
                    // One usable candidate (or all-equal lengths): the
                    // normalization carries no information.
                    1.0
                };
                e.estimate.abs() * cih
            })
        }
    }
}

/// Bounds `[lb, ub]` on the score `scorer` could assign to a candidate
/// whose final estimate lies anywhere in the candidate's confidence
/// interval — the pruning primitive of the two-pass query planner.
///
/// `est` is the *cheap-pass* estimate (Pearson + Fisher-z CI): the upper
/// bound is sound for any estimator whose estimate falls inside
/// `[ci_lo, ci_hi]`, which is exactly the planner's configured-confidence
/// contract. Per scorer:
///
/// * `s1` — `|r̂|` over the interval: `ub = max(|lo|, |hi|)`, `lb = 0` if
///   the interval straddles zero, else `min(|lo|, |hi|)`.
/// * `s2` — both bounds scale by `(1 − se_z(n))`, which depends only on
///   the join-sample size `n` (identical in both passes), so the mapping
///   is exact.
/// * `s3` — the CI-length penalty is in `[0, 1]`, so `ub` is the raw
///   magnitude bound (sound without knowing the expensive estimator's
///   interval); the lower bound applies the *cheap* interval's penalty
///   as a heuristic (lower bounds only seed the initial band — planner
///   correctness never depends on them).
/// * `s4` — not prunable (see [`Scorer::prunable`]); returns
///   `(0, ∞)` so a defensive caller never prunes on it.
///
/// A non-finite estimate or endpoint also yields `(0, ∞)`: no
/// information, never prune.
#[must_use]
pub fn score_bounds(scorer: Scorer, est: &ScoredEstimate) -> (f64, f64) {
    if !usable(est) || !scorer.prunable() {
        return (0.0, f64::INFINITY);
    }
    let mag_ub = est.ci_lo.abs().max(est.ci_hi.abs());
    let mag_lb = if est.ci_lo <= 0.0 && 0.0 <= est.ci_hi {
        0.0
    } else {
        est.ci_lo.abs().min(est.ci_hi.abs())
    };
    match scorer {
        Scorer::S1 => (mag_lb, mag_ub),
        Scorer::S2 => {
            let f = 1.0 - fisher_z_se(est.sample_size);
            (mag_lb * f, mag_ub * f)
        }
        Scorer::S3 => (mag_lb * (1.0 - est.ci_length() / 2.0).max(0.0), mag_ub),
        Scorer::S4 => unreachable!("s4 is not prunable"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn est(estimate: f64, ci_len: f64, n: usize) -> Option<ScoredEstimate> {
        Some(ScoredEstimate {
            estimate,
            ci_lo: estimate - ci_len / 2.0,
            ci_hi: estimate + ci_len / 2.0,
            sample_size: n,
        })
    }

    #[test]
    fn names_and_parsing_roundtrip() {
        for s in Scorer::ALL {
            assert_eq!(s.name().parse::<Scorer>().unwrap(), s);
        }
        assert_eq!("rp".parse::<Scorer>().unwrap(), Scorer::S1);
        assert_eq!("rp*sez".parse::<Scorer>().unwrap(), Scorer::S2);
        assert_eq!("rb*cib".parse::<Scorer>().unwrap(), Scorer::S3);
        assert_eq!("rp*cih".parse::<Scorer>().unwrap(), Scorer::S4);
        assert_eq!("S4".parse::<Scorer>().unwrap(), Scorer::S4);
        assert!("s5".parse::<Scorer>().is_err());
        assert_eq!(Scorer::default(), Scorer::S1);
    }

    #[test]
    fn s1_is_the_absolute_estimate() {
        let s = score_estimates(Scorer::S1, &[est(-0.9, 0.5, 100), est(0.4, 0.1, 10), None]);
        assert_eq!(s, vec![0.9, 0.4, 0.0]);
    }

    #[test]
    fn s2_penalizes_small_samples() {
        let s = score_estimates(Scorer::S2, &[est(0.8, 0.2, 403), est(0.8, 0.2, 4)]);
        assert!((s[0] - 0.8 * 0.95).abs() < 1e-12, "{s:?}");
        assert_eq!(s[1], 0.0, "se_z = 1 at the n floor");
    }

    #[test]
    fn s3_penalizes_absolute_interval_length() {
        let s = score_estimates(
            Scorer::S3,
            &[est(0.6, 0.2, 50), est(0.6, 1.8, 50), est(0.6, 4.0, 50)],
        );
        assert!((s[0] - 0.6 * 0.9).abs() < 1e-12);
        assert!((s[1] - 0.6 * 0.1).abs() < 1e-12);
        assert_eq!(s[2], 0.0, "lengths past 2 clamp to zero, never negative");
    }

    #[test]
    fn s4_normalizes_within_the_list() {
        let s = score_estimates(Scorer::S4, &[est(0.7, 0.1, 500), est(0.9, 1.9, 10)]);
        assert!((s[0] - 0.7).abs() < 1e-12, "sharpest CI keeps full score");
        assert_eq!(s[1], 0.0, "widest CI is fully penalized");
        // Single candidate: the normalization degrades to factor 1.
        let s = score_estimates(Scorer::S4, &[est(0.7, 0.1, 500)]);
        assert!((s[0] - 0.7).abs() < 1e-12);
        // Missing estimates do not perturb the normalization bounds.
        let s = score_estimates(Scorer::S4, &[None, est(0.5, 0.3, 20), None]);
        assert_eq!(s, vec![0.0, 0.5, 0.0]);
    }

    #[test]
    fn non_finite_inputs_score_zero_for_every_scorer() {
        let bad = [
            Some(ScoredEstimate {
                estimate: f64::NAN,
                ci_lo: 0.0,
                ci_hi: 1.0,
                sample_size: 10,
            }),
            Some(ScoredEstimate {
                estimate: 0.9,
                ci_lo: f64::NEG_INFINITY,
                ci_hi: 0.9,
                sample_size: 10,
            }),
            est(0.5, 0.2, 100),
        ];
        for scorer in Scorer::ALL {
            let s = score_estimates(scorer, &bad);
            assert_eq!(s[0], 0.0, "{scorer}: NaN estimate must score 0");
            assert_eq!(s[1], 0.0, "{scorer}: infinite CI must score 0");
            assert!(s[2] > 0.0 && s[2].is_finite(), "{scorer}: {s:?}");
        }
    }

    #[test]
    fn score_bounds_contain_the_actual_score_for_any_estimate_in_the_ci() {
        // For every prunable scorer: sweep estimates across the interval
        // and check each resulting score lands inside the bounds (the
        // upper bound is the planner's soundness contract; for s1/s2 the
        // lower bound is tight too).
        let cases = [est(0.6, 0.5, 40).unwrap(), est(-0.2, 0.9, 7).unwrap()];
        for cheap in &cases {
            for scorer in [Scorer::S1, Scorer::S2] {
                let (lb, ub) = score_bounds(scorer, cheap);
                assert!(lb <= ub, "{scorer}: ({lb}, {ub})");
                for step in 0..=20 {
                    let r = cheap.ci_lo + cheap.ci_length() * f64::from(step) / 20.0;
                    let moved = ScoredEstimate {
                        estimate: r,
                        ..*cheap
                    };
                    let s = score_estimates(scorer, &[Some(moved)])[0];
                    assert!(
                        lb - 1e-12 <= s && s <= ub + 1e-12,
                        "{scorer}: score {s} outside [{lb}, {ub}] at r={r}"
                    );
                }
            }
            // s3's upper bound must hold for ANY expensive interval
            // (penalty ≤ 1), including one much sharper than the cheap CI.
            let (_, ub) = score_bounds(Scorer::S3, cheap);
            let sharp = ScoredEstimate {
                estimate: cheap.ci_hi,
                ci_lo: cheap.ci_hi - 0.01,
                ci_hi: cheap.ci_hi,
                sample_size: cheap.sample_size,
            };
            let s = score_estimates(Scorer::S3, &[Some(sharp)])[0];
            assert!(s <= ub + 1e-12, "s3: score {s} above ub {ub}");
        }
    }

    #[test]
    fn score_bounds_straddling_zero_has_zero_lower_bound() {
        let cheap = est(0.1, 0.6, 50).unwrap(); // CI [-0.2, 0.4]
        let (lb, ub) = score_bounds(Scorer::S1, &cheap);
        assert_eq!(lb, 0.0);
        assert!((ub - 0.4).abs() < 1e-12);
    }

    #[test]
    fn s4_and_unusable_estimates_are_never_prunable() {
        assert!(Scorer::S1.prunable() && Scorer::S2.prunable() && Scorer::S3.prunable());
        assert!(!Scorer::S4.prunable());
        let cheap = est(0.9, 0.1, 100).unwrap();
        assert_eq!(score_bounds(Scorer::S4, &cheap), (0.0, f64::INFINITY));
        let nan = ScoredEstimate {
            estimate: f64::NAN,
            ..cheap
        };
        for scorer in Scorer::ALL {
            assert_eq!(
                score_bounds(scorer, &nan),
                (0.0, f64::INFINITY),
                "{scorer}: NaN estimate must be unprunable"
            );
        }
    }

    #[test]
    fn ci_aware_scorers_prefer_confident_candidates_on_ties() {
        // Same |estimate|, very different uncertainty: s1 ties, s2–s4
        // all rank the confident candidate first.
        let list = [est(0.8, 0.1, 400), est(0.8, 1.5, 5)];
        let s1 = score_estimates(Scorer::S1, &list);
        assert_eq!(s1[0], s1[1]);
        for scorer in [Scorer::S2, Scorer::S3, Scorer::S4] {
            let s = score_estimates(scorer, &list);
            assert!(s[0] > s[1], "{scorer}: {s:?}");
        }
    }
}
