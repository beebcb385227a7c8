//! Indexing and query evaluation for top-k join-correlation queries
//! (paper Definition 3 and Sections 4, 5.5).
//!
//! The paper notes that a sketch "includes a set of pairs ⟨h(k), x_k⟩.
//! Since h(k) is a discrete value, we can leverage existing data
//! structures for efficient querying such as inverted indexes available in
//! off-the-shelf systems (e.g., PostgreSQL, Apache Lucene)". This crate is
//! our from-scratch stand-in for that machinery:
//!
//! * [`SketchIndex`] — an in-memory inverted index mapping hashed keys to
//!   the sketches containing them and the values they store, with top-N
//!   retrieval by key overlap that emits the winners' join samples;
//! * [`engine`] — the query pipeline of Sections 4 and 5.5 behind one
//!   entry point, [`engine::execute`]: retrieve the top-N candidates by
//!   overlap together with their join samples, then estimate +
//!   confidence interval per candidate, re-rank with one of the `s1..s4`
//!   scorers of `sketch-ranking`
//!   ([`QueryOptions::scorer`]/[`QueryOptions::confidence`]), and
//!   attach uncertainty reports when asked.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod inverted;
pub mod merge;
pub mod plan;
mod select;

pub use engine::{QueryOptions, QueryOutput, QueryResult, ReportedResult, ShardCandidate};
pub use inverted::{DocId, JoinedHits, SketchIndex};
pub use merge::{merge_shard_candidates, MergeOutcome, MergedWinner, ShardRows};
pub use plan::{PlanMode, PlanStats};
pub use sketch_ranking::Scorer;
