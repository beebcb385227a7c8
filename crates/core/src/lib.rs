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
//! Pearson, Spearman, RIN, Qn, bootstrap correlations, cardinalities,
//! containment — can then be estimated without ever executing the join.
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
//! * [`builder`] — single-pass construction of a fixed-size sketch with
//!   streaming repeated-key aggregation (Sections 3.1 and 3.3).
//! * [`sketch`] — the sketch data structure and its per-column statistics.
//! * [`join`] — sketch joins and [`join::JoinSample`], the reconstructed
//!   uniform sample with correlation estimates and the Section 4
//!   confidence intervals attached.
//! * [`kmv`] — the KMV statistics the system measures: the distinct-value
//!   estimate and the Jaccard containment of the `ĵc` baseline (Sections
//!   2.1, 3.3).
//! * [`binary`] — the compact binary sketch codec (the payload of a
//!   `sketch-store` shard record, and the one persisted sketch format).
//! * [`json`] — the JSON reader and writers under the server's request
//!   decode and every machine-readable report.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

// Workspace invariants scoped to modules (README "Static analysis"):
// the codecs read no clock (R5), the binary codec has no `as` casts
// (R6) and the JSON reader cannot panic on any input (R3).
#[deny(clippy::disallowed_types, clippy::as_conversions)]
pub mod binary;
pub mod builder;
pub mod error;
pub mod join;
#[deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::string_slice,
    clippy::disallowed_types
)]
pub mod json;
pub mod kmv;
pub mod parallel;
pub mod sketch;
pub mod stream;

pub use binary::{
    encode_tombstone, DeltaHead, DeltaRecord, SketchHead, DELTA_TAG_SKETCH, DELTA_TAG_TOMBSTONE,
};
pub use builder::{SketchBuilder, SketchConfig};
pub use error::SketchError;
pub use join::{join_sketches, join_sketches_into, EstimateReport, JoinSample};
pub use kmv::{containment_estimate, distinct_value_estimate};
pub use parallel::build_sketches_parallel;
pub use sketch::{CorrelationSketch, SketchEntry};
pub use stream::StreamingSketchBuilder;
