//! Statistics substrate for the Correlation Sketches reproduction.
//!
//! This crate implements, from scratch, every statistical tool the paper
//! relies on:
//!
//! * **Correlation estimators** (paper Section 5.3): Pearson's sample
//!   correlation ([`pearson()`]), Spearman's rank correlation ([`spearman()`]),
//!   the Rank-based Inverse Normal transformation ([`rin`]), the robust
//!   `Qn` correlation ([`qn`]) and the `PM1` bootstrap ([`bootstrap`]).
//! * **Error-risk statistics** (Sections 4.2–4.3): Fisher's z standard
//!   error, the new distribution-free **Hoeffding confidence interval**
//!   (union bound over five Hoeffding inequalities) together with its
//!   small-sample `HFD` variant, and percentile-bootstrap intervals.
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
pub mod distance;
pub mod error;
pub mod estimator;
pub mod kendall;
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

pub use bootstrap::{
    pearson_percentile_ci, percentile_bootstrap_ci, pm1_bootstrap, pm1_bootstrap_with_scratch,
    pm1_ci, pm1_ci_with_scratch, pm1_with_ci, BootstrapConfig, BootstrapResult, BootstrapScratch,
};
pub use ci::{
    bernstein_interval, fisher_z_interval, fisher_z_se, hfd_interval, hoeffding_interval,
    ConfidenceInterval, ValueBounds,
};
pub use distance::distance_correlation;
pub use error::StatsError;
pub use estimator::{estimate_correlation, CorrelationEstimator};
pub use kendall::kendall_tau;
pub use metrics::{average_precision, dcg_at_k, mean, ndcg_at_k, recall_at_k, rmse};
pub use moments::{Moments, SummaryStats};
pub use normal::{inverse_normal_cdf, normal_cdf};
pub use pearson::pearson;
pub use qn::{qn_correlation, qn_scale};
pub use rank::average_ranks;
pub use rin::{rankit_transform, rin_correlation};
pub use scored::{scored_estimate, ScoredEstimate, SCORED_CI_SEED};
pub use spearman::spearman;
