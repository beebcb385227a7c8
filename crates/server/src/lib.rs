//! **sketch-serve** — a dependency-free (std-only) concurrent HTTP/1.1
//! query service over a packed corpus store, turning the one-shot query
//! engine into a long-running system.
//!
//! The paper's scenario is interactive: a user uploads a column and asks
//! "which tables in the lake join with mine *and* correlate?". That
//! demands a resident index answering many concurrent queries while the
//! corpus underneath keeps mutating — the `sketch-store` delta log from
//! the mutable-corpora work, served live.
//!
//! # Endpoints
//!
//! | method & path        | purpose |
//! |----------------------|---------|
//! | `POST /query`        | top-k join-correlation query with uncertainty reports |
//! | `POST /query_batch`  | many queries ranked under shared parameters |
//! | `GET /corpus`        | store generation + shard/tombstone shape |
//! | `GET /healthz`       | liveness + served generation |
//! | `GET /stats`         | request counters, cache hits, latency percentiles |
//! | `GET /metrics`       | the same counters as Prometheus text |
//! | `POST /shard_query`, `/shard_query_batch` | a worker's half of a coordinator's scatter: candidate rows with score bounds, no reports |
//! | `POST /shard_reports` | full uncertainty reports for the shard-local docs the coordinator's merge kept |
//!
//! The `/shard_*` endpoints exist on a store-serving server only; a
//! [`coordinator`] answers the first six and calls the rest.
//!
//! # Design invariants
//!
//! * **One request pipeline.** `/query` and `/query_batch`, on a single
//!   server and on a [`coordinator`], run the same memo → cache → parse →
//!   *miss* → cache → trace sequence (`pipeline`), generic over the
//!   request kind and over the backend that computes a miss: `Local`
//!   runs [`sketch_index::engine::execute`] on the current snapshot,
//!   `Cluster` scatters to its workers and gathers.
//! * **Snapshot reads.** Queries run on an immutable
//!   [`IndexSnapshot`](snapshot::IndexSnapshot) behind an `Arc`; the only
//!   synchronized step is cloning that `Arc`. No query ever blocks on a
//!   mutation, and no mutation ever tears a query.
//! * **Generation-aware caching.** The LRU response cache is keyed by
//!   `(canonical query fingerprint, store generation)`, so a corpus
//!   mutation invalidates exactly the stale entries — and a cache hit is
//!   byte-identical to the miss that populated it.
//! * **Answers are the engine's answers.** A served response body is a
//!   pure rendering of what [`sketch_index::engine::execute`] returns at
//!   the served generation — proven byte-identical in the
//!   mutation-under-load integration test.
//! * **Freshness off the hot path.** A background thread polls the store
//!   manifest, applies new delta generations incrementally to a private
//!   clone, and atomically swaps snapshots; after a compaction
//!   (`StaleGeneration`) it rebuilds from the store instead.

#![deny(unsafe_code)] // `signal.rs` carves out the one allowed exception.
#![warn(missing_docs)]

pub mod api;
pub mod cache;
pub mod client;
mod conn;
pub mod coordinator;
#[cfg(test)]
mod decode_battery;
pub mod http;
mod metrics;
mod pipeline;
pub mod server;
pub mod signal;
pub mod snapshot;
pub mod stats;

pub use api::{render_batch_response, render_query_response, QueryParams};
pub use cache::QueryCache;
pub use client::{HttpClient, Response};
pub use coordinator::{start_coordinator, CoordinatorConfig, CoordinatorHandle};
pub use server::{start, ServerConfig, ServerError, ServerHandle};
pub use snapshot::{IndexSnapshot, SnapshotCell};
pub use stats::ServerStats;
