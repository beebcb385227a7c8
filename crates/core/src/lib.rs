//! **Correlation Sketches** — the core contribution of Santos et al.,
//! *"Correlation Sketches for Approximate Join-Correlation Queries"*,
//! SIGMOD 2021.
//!
//! A correlation sketch `L_⟨K,X⟩` summarizes a key/value column pair
//! `⟨K, X⟩` by keeping, for the `n` keys with the smallest uniform hash
//! `g(k) = h_u(h(k))`, the tuple `⟨h(k), x_k⟩` (hashed key identifier plus
//! aggregated numeric value). Because every table in a corpus uses the
//! *same* hash functions, two sketches built independently tend to retain
//! the *same* keys, and joining them on `h(k)` reconstructs a **uniform
//! random sample of the joined table** (Theorem 1). Any sample statistic —
//! Pearson, Spearman, RIN, Qn, bootstrap correlations, mutual information,
//! cardinalities, containment — can then be estimated without ever
//! executing the join.
//!
//! # Quick start
//!
//! ```
//! use correlation_sketches::{SketchBuilder, SketchConfig, join_sketches};
//! use sketch_table::ColumnPair;
//! use sketch_stats::CorrelationEstimator;
//!
//! // Two tables that share some join keys.
//! let tx = ColumnPair::new(
//!     "tx", "day", "bikes",
//!     (0..1000).map(|i| format!("day-{i}")).collect(),
//!     (0..1000).map(|i| i as f64).collect(),
//! );
//! let ty = ColumnPair::new(
//!     "ty", "day", "accidents",
//!     (0..800).map(|i| format!("day-{i}")).collect(),
//!     (0..800).map(|i| 2.0 * i as f64 + 5.0).collect(),
//! );
//!
//! let builder = SketchBuilder::new(SketchConfig::with_size(256));
//! let la = builder.build(&tx);
//! let lb = builder.build(&ty);
//!
//! let sample = join_sketches(&la, &lb).expect("hashers match");
//! let r = sample.estimate(CorrelationEstimator::Pearson).unwrap();
//! assert!(r > 0.99); // the columns are perfectly correlated after the join
//! ```
//!
//! # Module map
//!
//! * [`builder`] — single-pass sketch construction with streaming
//!   repeated-key aggregation (Section 3.1) and the fixed-size /
//!   threshold (G-KMV-style) selection strategies (Section 3.3).
//! * [`sketch`] — the sketch data structure and its per-column statistics.
//! * [`join`] — sketch joins and [`join::JoinSample`], the reconstructed
//!   uniform sample with correlation estimates and the Section 4
//!   confidence intervals attached.
//! * [`kmv`] — everything a KMV synopsis supports: distinct-value
//!   estimators, union/intersection cardinality, Jaccard similarity and
//!   containment estimates (Sections 2.1, 3.3).
//! * [`mutual_info`] — mutual-information estimation from join samples,
//!   demonstrating the "any statistic" claim of Theorem 1.
//! * [`binary`] — the compact binary sketch codec (the payload of a
//!   `sketch-store` shard record, and the one persisted sketch format).
//! * [`json`] — the JSON reader and writers under the server's request
//!   decode and every machine-readable report.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binary;
pub mod builder;
pub mod error;
pub mod hll;
pub mod join;
pub mod json;
pub mod kmv;
pub mod merge;
pub mod mutual_info;
pub mod parallel;
pub mod sketch;
pub mod stream;

pub use binary::{
    decode_tombstone, encode_tombstone, DeltaHead, DeltaRecord, SketchHead, DELTA_TAG_SKETCH,
    DELTA_TAG_TOMBSTONE,
};
pub use builder::{SelectionStrategy, SketchBuilder, SketchConfig};
pub use error::SketchError;
pub use hll::HyperLogLog;
pub use join::{join_sketches, join_sketches_into, EstimateReport, JoinSample};
pub use kmv::{
    containment_estimate, distinct_value_estimate, intersection_estimate, jaccard_estimate,
    union_estimate,
};
pub use merge::{is_decomposable, merge_partition_sketches};
pub use mutual_info::mutual_information;
pub use parallel::build_sketches_parallel;
pub use sketch::{CorrelationSketch, SketchEntry};
pub use stream::StreamingSketchBuilder;
