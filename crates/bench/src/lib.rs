//! Shared plumbing for the experiment binaries (one per paper
//! table/figure, the ablations and the `rank_eval` CI gate — see
//! `src/bin/`). Serving, store and cluster performance is measured by
//! the ledger (`benchmark/`), not here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod corpus;
pub mod timing;

pub use args::Args;
pub use corpus::{corpus_pairs, CorpusChoice};
pub use timing::{time_ms, LatencySummary};
