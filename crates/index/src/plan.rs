//! Cost-based plan selection for the scored query pipeline: the plan
//! mode vocabulary, the pure band/threshold arithmetic of the two-pass
//! planner, and the per-query execution statistics it reports.
//!
//! The expensive estimators (`pm1`, `qn`, …) cost orders of magnitude
//! more than Pearson per candidate. The two-pass plan exploits that a
//! candidate whose *cheap* confidence interval cannot reach the top-k
//! boundary never needs the expensive estimator:
//!
//! 1. **Pass 1** runs Pearson + Fisher-z CIs over every candidate (the
//!    same SoA stage-2 pass over the join samples retrieval left, just
//!    with the cheapest estimator).
//! 2. Each candidate's CI is mapped through the active scorer to a score
//!    interval `[lb, ub]` ([`sketch_ranking::score_bounds`]); the k-th
//!    best lower bound seeds the contested band.
//! 3. **Pass 2** re-estimates only the band, from the same samples, with
//!    the requested estimator. The k-th best *actual* band score `τ*` then
//!    drives a promotion fixed point: any pruned candidate whose upper
//!    bound still reaches `τ*` is promoted into the band and
//!    re-estimated, until no candidate's bound crosses the threshold.
//!
//! **Losslessness contract.** A candidate stays pruned only while
//! `ub < τ*` (strict). Its exhaustive score is at most `ub` whenever its
//! expensive estimate falls inside the pass-1 interval — which holds at
//! the plan's configured confidence level — so every pruned candidate
//! ranks strictly below the k-th surviving score and the top-k (ids,
//! estimates, scores, tie-breaks) is bit-identical to the exhaustive
//! plan. Three situations fall back to exhaustive because no sound
//! per-candidate bound exists:
//!
//! * **`s4`** normalizes CI lengths across the candidate list, so
//!   removing a pruned candidate with an extreme interval shifts the
//!   `(min, max)` normalization and can reorder — or re-tie — the
//!   survivors ([`Scorer::prunable`]).
//! * **`dcor`** detects dependence invisible to Pearson (and is
//!   sign-blind), so a Pearson interval bounds nothing about it.
//! * **Pearson itself** — the two passes would run the same estimator.

use sketch_ranking::Scorer;
use sketch_stats::CorrelationEstimator;

/// Pass-1 confidence level used when a plan string does not specify one
/// (`"two-pass"`). Deliberately above the default scoring confidence:
/// the wider the cheap interval, the safer the pruning bound.
pub const DEFAULT_TWO_PASS_CONFIDENCE: f64 = 0.99;

/// How the engine spends its estimator budget on a scored query.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum PlanMode {
    /// One pass: the requested estimator runs on every retrieved
    /// candidate.
    #[default]
    Exhaustive,
    /// Two passes: cheap Pearson + Fisher-z CIs on every candidate,
    /// then the requested estimator only on the contested band.
    TwoPass {
        /// Confidence level of the pass-1 interval the pruning bound is
        /// read from — the level at which pruning is lossless.
        confidence: f64,
    },
}

impl PlanMode {
    /// The two-pass plan at the default pruning confidence.
    #[must_use]
    pub const fn two_pass() -> Self {
        Self::TwoPass {
            confidence: DEFAULT_TWO_PASS_CONFIDENCE,
        }
    }

    /// Canonical name (`"exhaustive"` / `"two-pass"`).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Self::Exhaustive => "exhaustive",
            Self::TwoPass { .. } => "two-pass",
        }
    }

    /// Does the two-pass machinery actually engage for this
    /// scorer/estimator pair? Returns the pass-1 confidence when it
    /// does; `None` means the query runs exhaustively (which is the
    /// trivially lossless plan — see the module docs for why `s4`,
    /// `dcor`, and Pearson-as-target cannot be pruned).
    #[must_use]
    pub fn pruning_confidence(
        &self,
        scorer: Scorer,
        estimator: CorrelationEstimator,
    ) -> Option<f64> {
        match self {
            Self::Exhaustive => None,
            Self::TwoPass { confidence } => {
                (scorer.prunable() && has_pearson_surrogate(estimator)).then_some(*confidence)
            }
        }
    }
}

impl std::fmt::Display for PlanMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Exhaustive => f.write_str("exhaustive"),
            Self::TwoPass { confidence } => write!(f, "two-pass@{confidence}"),
        }
    }
}

impl std::str::FromStr for PlanMode {
    type Err = String;

    /// Accepts `exhaustive`, `two-pass` (default pruning confidence),
    /// and `two-pass@<confidence>` with the confidence in `(0, 1)` —
    /// one string form shared by the CLI flag, the server request
    /// field, and the cache fingerprint.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let lower = s.to_ascii_lowercase();
        match lower.as_str() {
            "exhaustive" | "one-pass" => return Ok(Self::Exhaustive),
            "two-pass" | "twopass" | "2pass" => return Ok(Self::two_pass()),
            _ => {}
        }
        if let Some(conf) = lower
            .strip_prefix("two-pass@")
            .or_else(|| lower.strip_prefix("twopass@"))
        {
            let confidence: f64 = conf
                .parse()
                .map_err(|e| format!("plan confidence '{conf}': {e}"))?;
            if !(confidence > 0.0 && confidence < 1.0) {
                return Err(format!(
                    "plan confidence must be in (0, 1), got {confidence}"
                ));
            }
            return Ok(Self::TwoPass { confidence });
        }
        Err(format!(
            "unknown plan '{s}' (expected exhaustive|two-pass|two-pass@<confidence>)"
        ))
    }
}

/// Does this estimator estimate a quantity a Pearson interval can bound?
///
/// `pm1` targets the Pearson correlation outright; `qn`, `spearman`,
/// `rin`, and `kendall` are (rank-/robustness-transformed) linear
/// association measures whose estimates track Pearson's interval on the
/// same sample. `dcor` measures arbitrary dependence — a relationship
/// invisible to Pearson is exactly its headline feature — so no Pearson
/// surrogate exists. Pearson itself is excluded because a two-pass plan
/// over it would run the identical estimator twice.
#[must_use]
pub fn has_pearson_surrogate(estimator: CorrelationEstimator) -> bool {
    !matches!(
        estimator,
        CorrelationEstimator::Pearson | CorrelationEstimator::DistanceCorrelation
    )
}

/// Per-query execution statistics of the planner — what `rank_eval`
/// and the ledger report as estimator-invocation cost.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PlanStats {
    /// Did the two-pass machinery engage (vs exhaustive, whether
    /// requested or fallen back to)?
    pub two_pass: bool,
    /// Candidates that survived retrieval + join.
    pub candidates: usize,
    /// Pass-1 (Pearson + Fisher CI) estimator invocations. Zero on the
    /// exhaustive plan.
    pub cheap_invocations: usize,
    /// Invocations of the *requested* estimator: every admitted
    /// candidate on the exhaustive plan, only the contested band on the
    /// two-pass plan.
    pub expensive_invocations: usize,
    /// Candidates whose score upper bound never reached the threshold —
    /// they skipped the expensive estimator entirely.
    pub pruned: usize,
    /// Promotion-fix-point iterations pass 2 ran (0 when the plan did
    /// not engage).
    pub promotion_rounds: usize,
    /// The final pruning threshold `τ*` — the k-th best band score.
    /// `0.0` when nothing was pruned.
    pub threshold: f64,
}

impl PlanStats {
    /// Fold another query's statistics into this accumulator — how the
    /// batch path and the server's plan-total counters aggregate.
    /// Counts sum, `two_pass` ORs; the per-query threshold `τ*` has no
    /// meaningful aggregate, so the accumulated value keeps the last
    /// engaged query's threshold (and is best ignored on aggregates).
    pub fn absorb(&mut self, other: &Self) {
        self.two_pass |= other.two_pass;
        self.candidates += other.candidates;
        self.cheap_invocations += other.cheap_invocations;
        self.expensive_invocations += other.expensive_invocations;
        self.pruned += other.pruned;
        self.promotion_rounds += other.promotion_rounds;
        if other.two_pass {
            self.threshold = other.threshold;
        }
    }
}

/// The k-th largest value of `values` (descending), or `0.0` when fewer
/// than `k` values exist — the planner's band seed (over score lower
/// bounds) and pruning threshold `τ*` (over actual band scores). Scores
/// and bounds are non-negative, so `0.0` is the "no threshold" floor:
/// every candidate's upper bound reaches it.
#[must_use]
pub fn kth_largest(values: &[f64], k: usize) -> f64 {
    if k == 0 || values.len() < k {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| b.total_cmp(a));
    sorted[k - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_mode_parses_and_roundtrips() {
        assert_eq!(
            "exhaustive".parse::<PlanMode>().unwrap(),
            PlanMode::Exhaustive
        );
        assert_eq!(
            "two-pass".parse::<PlanMode>().unwrap(),
            PlanMode::two_pass()
        );
        assert_eq!(
            "two-pass@0.999".parse::<PlanMode>().unwrap(),
            PlanMode::TwoPass { confidence: 0.999 }
        );
        assert_eq!(
            "Two-Pass@0.9".parse::<PlanMode>().unwrap(),
            PlanMode::TwoPass { confidence: 0.9 }
        );
        for bad in ["nope", "two-pass@1.5", "two-pass@0", "two-pass@x"] {
            assert!(bad.parse::<PlanMode>().is_err(), "{bad}");
        }
        for mode in [PlanMode::Exhaustive, PlanMode::two_pass()] {
            assert_eq!(mode.to_string().parse::<PlanMode>().unwrap(), mode);
        }
        assert_eq!(PlanMode::default(), PlanMode::Exhaustive);
    }

    #[test]
    fn pruning_engages_only_with_a_surrogate_and_a_prunable_scorer() {
        let qn = CorrelationEstimator::Qn;
        let two = PlanMode::TwoPass { confidence: 0.97 };
        assert_eq!(two.pruning_confidence(Scorer::S2, qn), Some(0.97));
        assert_eq!(
            two.pruning_confidence(Scorer::S4, qn),
            None,
            "s4 is list-level"
        );
        assert_eq!(
            two.pruning_confidence(Scorer::S1, CorrelationEstimator::DistanceCorrelation),
            None,
            "dcor has no Pearson surrogate"
        );
        assert_eq!(
            two.pruning_confidence(Scorer::S1, CorrelationEstimator::Pearson),
            None,
            "two-pass over Pearson itself is pointless"
        );
        assert_eq!(
            PlanMode::Exhaustive.pruning_confidence(Scorer::S1, qn),
            None
        );
    }

    #[test]
    fn kth_largest_is_the_band_threshold() {
        let v = [0.2, 0.9, 0.5, 0.7];
        assert_eq!(kth_largest(&v, 1), 0.9);
        assert_eq!(kth_largest(&v, 3), 0.5);
        assert_eq!(kth_largest(&v, 4), 0.2);
        assert_eq!(kth_largest(&v, 5), 0.0, "fewer than k values: no threshold");
        assert_eq!(kth_largest(&v, 0), 0.0);
        assert_eq!(kth_largest(&[], 2), 0.0);
    }
}
