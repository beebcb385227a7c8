//! Risk-aware ranking for join-correlation queries (paper Section 4) and
//! the ranking evaluation harness (Section 5.4).
//!
//! In a large corpus there are many more uncorrelated columns than
//! correlated ones, so raw correlation estimates produce false positives
//! "simply by chance". The paper's fix is the scoring framework
//! `score = |r̂| · (1 − risk)` (Eq. 5), with risk measured by Fisher's z
//! standard error, a bootstrap confidence interval, or the new Hoeffding
//! interval. There is one implementation of the scorers, and everything
//! that ranks — engine, server, CLI, evaluation — calls it:
//!
//! * [`scored`] — the `s1..s4` scorers over confidence-aware estimates
//!   ([`sketch_stats::ScoredEstimate`]: estimate + interval), the score
//!   bounds the two-pass planner prunes on, and the NaN-last ordering;
//! * [`evaluation`] — the Section 5.4 harness on top of it: rank every
//!   query's joinable corpus columns once per row of Table 1 and measure
//!   MAP (r > 0.75, r > 0.5) and nDCG@{5, 10} against the exact-join
//!   correlations. It adds only what the paper's rows need and the
//!   served path lacks: the interval source each row names (Fisher z,
//!   PM1 percentile, HFD for `rp*cih`), the `jc` / `ĵc` / `random`
//!   joinability baselines, and the metrics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod evaluation;
pub mod scored;

pub use evaluation::{
    ground_truth_grade, run_ranking_experiment, QueryOutcome, RankingConfig, RankingReport, ROWS,
};
pub use scored::{desc_score_nan_last, score_bounds, score_estimates, Scorer};
