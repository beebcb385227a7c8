//! Statistics substrate for the Correlation Sketches reproduction.
//!
//! This crate implements, from scratch, every statistical tool the paper
//! relies on:
//!
//! * **Correlation estimators** — the five of paper Section 5.3, and no
//!   others: Pearson's sample correlation ([`pearson()`]), Spearman's
//!   rank correlation ([`spearman()`]), the Rank-based Inverse Normal
//!   transformation ([`rin`]), the robust `Qn` correlation ([`qn`]) and
//!   the `PM1` bootstrap ([`bootstrap`]), all served through
//!   [`CorrelationEstimator`] from its one list,
//!   [`CorrelationEstimator::ALL`]. PM1 has the paper's one stopping
//!   rule (θ = 0.01, p = 5e-4); nothing tunes it.
//! * **Error-risk statistics** (Sections 4.2–4.3): Fisher's z standard
//!   error, the new distribution-free **Hoeffding confidence interval**
//!   (union bound over five Hoeffding inequalities) together with its
//!   small-sample `HFD` variant, Wilcox's modified percentile interval
//!   for PM1 ([`pm1_with_ci`], the `ci_b` of Section 4) and
//!   percentile-bootstrap intervals for the robust estimators.
//! * **Ranking-evaluation metrics** (Section 5.4): mean average precision
//!   and nDCG@k.
//! * Supporting numerics: streaming moments, rank transforms with tie
//!   handling, the normal CDF `Φ` and its inverse `Φ⁻¹` (Acklam's
//!   algorithm plus a Halley refinement step).
//!
//! All estimators operate on plain `&[f64]` slices so they work equally on
//! full columns (ground truth) and on the paired samples reconstructed from
//! sketch joins.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bootstrap;
pub mod ci;
pub mod error;
pub mod estimator;
pub mod kernel;
pub mod metrics;
pub mod moments;
pub mod normal;
pub mod pearson;
pub mod qn;
pub mod rank;
pub mod rin;
pub mod scored;
pub mod spearman;

pub use bootstrap::{percentile_bootstrap_ci, pm1_with_ci, BootstrapScratch};
pub use ci::{
    fisher_z_interval, fisher_z_se, hfd_interval, hoeffding_interval, ConfidenceInterval,
    ValueBounds,
};
pub use error::StatsError;
pub use estimator::CorrelationEstimator;
pub use metrics::{average_precision, mean, ndcg_at_k, recall_at_k, rmse};
pub use moments::Moments;
pub use normal::normal_cdf;
pub use pearson::pearson;
pub use rank::average_ranks;
pub use rin::{rankit_transform, rin_correlation};
pub use scored::{scored_estimate, ScoredEstimate};
pub use spearman::spearman;
