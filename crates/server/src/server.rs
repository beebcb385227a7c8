//! The server itself: the request `pipeline`'s `Local` backend — a
//! fixed pool of worker threads accepting on one shared listener,
//! answering cache misses from the current
//! [`IndexSnapshot`] — plus a background
//! refresher thread that polls the store manifest and swaps fresh
//! snapshots in off the hot path.
//!
//! # Concurrency model
//!
//! * **Workers** (`threads` of them) each loop `accept → serve
//!   connection (keep-alive) → accept`. The listener is non-blocking and
//!   shared, so an idle worker picks up the next connection without a
//!   dispatcher thread or a channel. A worker serves one connection at a
//!   time, so the pool size bounds concurrent connections; to keep a
//!   parked client from pinning a worker, a connection idle past
//!   `keep_alive_idle` is closed and the worker returns to accepting
//!   (active clients are unaffected — the deadline only applies between
//!   requests). Connection streams use a short read timeout, and every
//!   timeout tick honors shutdown — even mid-request on a stalled
//!   client — so graceful shutdown always completes.
//! * **Queries never take a lock**: a cache miss loads the current
//!   snapshot `Arc` (the only synchronized step — an `RwLock` held for
//!   one refcount increment), runs the whole query on that immutable
//!   snapshot and is cached under that snapshot's generation. A refresh
//!   swapping a new snapshot in mid-query is invisible to the request
//!   being served.
//! * **The refresher** polls `manifest.cskm` every `poll_interval`.
//!   Polling is one tiny file read; only when the generation moved does
//!   it clone the index, apply the new deltas (or rebuild after a
//!   compaction), and swap. Store errors are logged to stderr and
//!   retried next tick — the previous snapshot keeps serving.
//! * **The cache** is keyed by `(query fingerprint, generation)`; see
//!   [`crate::cache`].

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use sketch_index::engine;
use sketch_obs::{promtext, Trace};
use sketch_store::StoreError;

use crate::api::{self, BatchRequest, QueryParams, QueryRequest};
use crate::conn::{Body, ConnLimits};
use crate::metrics;
use crate::pipeline::{self, Backend, FrontEnd, Kind, Parsed};
use crate::snapshot::{refresh_with_generation, IndexSnapshot, RefreshOutcome, SnapshotCell};
use crate::stats::ServerStats;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// The packed corpus store directory to serve.
    pub store: PathBuf,
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Worker threads in the fixed pool.
    pub threads: usize,
    /// Threads for shard loading (initial load and rebuilds).
    pub load_threads: usize,
    /// Query-result cache capacity in responses (0 disables).
    pub cache_capacity: usize,
    /// How often the refresher polls the store manifest.
    pub poll_interval: Duration,
    /// How long a keep-alive connection may sit idle (no request bytes)
    /// before its worker closes it and returns to accepting. Bounds
    /// worker starvation by parked clients; active requests are never
    /// cut off.
    pub keep_alive_idle: Duration,
    /// How long a single request may take to arrive in full once its
    /// first byte has been read, and how long a response write may sit
    /// with no progress. Bounds worker starvation by slow-loris clients
    /// that trickle a partial head or body forever and by clients that
    /// never drain their response; zero disables both deadlines.
    pub request_timeout: Duration,
    /// When set, trace every `/query` and `/query_batch` internally and
    /// log one structured line (with the full span tree) for each
    /// request whose total reaches the threshold. `None` disables both
    /// the logging and the always-on tracing it requires.
    pub slow_query: Option<Duration>,
    /// Default ranking parameters for requests that omit them.
    pub defaults: QueryParams,
}

impl ServerConfig {
    /// Sensible defaults for serving `store`: ephemeral loopback port,
    /// 4 workers, 1024-entry cache, 200 ms manifest polling, 10 s
    /// keep-alive idle reclaim, 10 s per-request receive deadline.
    #[must_use]
    pub fn new(store: impl Into<PathBuf>) -> Self {
        Self {
            store: store.into(),
            addr: "127.0.0.1:0".to_string(),
            threads: 4,
            load_threads: 4,
            cache_capacity: 1024,
            poll_interval: Duration::from_millis(200),
            keep_alive_idle: Duration::from_secs(10),
            request_timeout: Duration::from_secs(10),
            slow_query: None,
            defaults: QueryParams::default(),
        }
    }
}

/// Why the server failed to start or refresh.
#[derive(Debug)]
pub enum ServerError {
    /// The corpus store could not be read.
    Store(StoreError),
    /// The listener could not be bound or configured.
    Io(std::io::Error),
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Store(e) => write!(f, "{e}"),
            Self::Io(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Store(e) => Some(e),
            Self::Io(e) => Some(e),
        }
    }
}

impl From<StoreError> for ServerError {
    fn from(e: StoreError) -> Self {
        Self::Store(e)
    }
}

impl From<std::io::Error> for ServerError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

/// The pipeline's local backend — a cache miss runs the engine on the
/// current snapshot — and everything the workers and the refresher
/// share.
struct Local {
    front: FrontEnd,
    store: PathBuf,
    load_threads: usize,
    cell: SnapshotCell,
    poll_interval: Duration,
    /// `/corpus` body cached per served generation, so polling
    /// dashboards don't re-stat the store (manifest + every delta
    /// shard) from a worker thread on each hit. Entries also expire
    /// after `poll_interval`: the body embeds on-disk store stats, and
    /// a generation-only key would freeze them for as long as a stuck
    /// refresher pins the served generation — hiding exactly the
    /// disk-vs-served divergence a dashboard needs to see.
    corpus_info: Mutex<Option<(u64, Instant, Arc<str>)>>,
}

/// A running server. Dropping the handle without calling
/// [`ServerHandle::shutdown`] detaches the threads (they exit with the
/// process); call `shutdown` for a deterministic, graceful stop.
pub struct ServerHandle {
    addr: SocketAddr,
    ctx: Arc<Local>,
    workers: Vec<std::thread::JoinHandle<()>>,
    refresher: std::thread::JoinHandle<()>,
}

impl ServerHandle {
    /// The bound address (with the real port when 0 was requested).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The store generation currently being served.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.ctx.generation()
    }

    /// Live sketches in the served snapshot.
    #[must_use]
    pub fn sketches(&self) -> usize {
        self.ctx.cell.load().index().len()
    }

    /// Live server counters.
    #[must_use]
    pub fn stats(&self) -> &ServerStats {
        &self.ctx.front.stats
    }

    /// Graceful shutdown: stop accepting, let in-flight requests finish,
    /// join every worker and the refresher. Returns the final `/stats`
    /// payload.
    #[must_use = "the returned stats summary describes the server's whole life"]
    pub fn shutdown(self) -> String {
        let threads = self.workers.into_iter().chain([self.refresher]);
        pipeline::stop(&*self.ctx, threads)
    }
}

/// Load the store, bind the listener, and start the worker pool plus
/// the background refresher.
///
/// # Errors
///
/// [`ServerError`] when the store cannot be loaded, the address cannot
/// be bound, or a thread cannot be spawned.
pub fn start(config: ServerConfig) -> Result<ServerHandle, ServerError> {
    let snapshot = IndexSnapshot::from_store(&config.store, config.load_threads)?;
    let front = FrontEnd::new(config.cache_capacity, config.defaults, config.slow_query);
    // Until the refresher's first poll, the freshest on-disk generation
    // the process has observed is the one it just loaded.
    front
        .stats
        .store_generation
        .store(snapshot.generation(), Ordering::Relaxed);
    let ctx = Arc::new(Local {
        front,
        store: config.store,
        load_threads: config.load_threads,
        cell: SnapshotCell::new(snapshot),
        poll_interval: config.poll_interval,
        corpus_info: Mutex::new(None),
    });
    let limits = ConnLimits {
        keep_alive_idle: config.keep_alive_idle,
        request_timeout: config.request_timeout,
    };
    let (addr, workers) = pipeline::listen(&ctx, &config.addr, config.threads, limits)?;
    let refresher = {
        let ctx = Arc::clone(&ctx);
        std::thread::Builder::new()
            .name("sketch-serve-refresh".to_string())
            .spawn(move || refresher_loop(&ctx, ctx.poll_interval))?
    };
    Ok(ServerHandle {
        addr,
        ctx,
        workers,
        refresher,
    })
}

fn refresher_loop(ctx: &Local, interval: Duration) {
    let stats = &ctx.front.stats;
    // Tick in small steps so shutdown is observed promptly even with
    // long poll intervals.
    let tick = interval.min(Duration::from_millis(50));
    let mut next_poll = Instant::now();
    while !ctx.front.shutdown.load(Ordering::Relaxed) {
        if Instant::now() >= next_poll {
            next_poll = Instant::now() + interval;
            // Contained like worker panics: an escaped panic here would
            // silently kill generation tracking while the server keeps
            // answering 200 from an ever-staler snapshot.
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                refresh_with_generation(&ctx.cell, &ctx.store, ctx.load_threads)
            }));
            match outcome {
                Ok(Ok((outcome, store_generation))) => {
                    // Even an Unchanged poll refreshes the on-disk view,
                    // keeping the /metrics generation-lag gauge honest
                    // while a later refresh is failing.
                    stats
                        .store_generation
                        .store(store_generation, Ordering::Relaxed);
                    match outcome {
                        RefreshOutcome::Unchanged => {}
                        RefreshOutcome::Refreshed(_) => ServerStats::bump(&stats.refreshes),
                        RefreshOutcome::Rebuilt => ServerStats::bump(&stats.rebuilds),
                    }
                }
                Ok(Err(e)) => {
                    // Keep serving the old snapshot; a mutation that is
                    // mid-write will be complete by a later poll.
                    eprintln!("sketch-serve: refresh failed (will retry): {e}");
                }
                Err(_) => {
                    ServerStats::bump(&stats.errors);
                    eprintln!("sketch-serve: refresh panicked (will retry)");
                }
            }
        }
        std::thread::sleep(tick);
    }
}

impl Backend for Local {
    const TAG: &'static str = "sketch-serve";
    const EXTRA: &'static [(&'static str, &'static str)] = &[
        ("/corpus", "GET"),
        // The internal scatter-gather endpoints a coordinator fans out
        // to. They answer from the same snapshot as `/query` but ship
        // bit-exact candidate rows / reports instead of ranked JSON,
        // and are deliberately uncached — the coordinator caches merged
        // responses under the shard-generation vector.
        ("/shard_query", "POST"),
        ("/shard_query_batch", "POST"),
        ("/shard_reports", "POST"),
    ];

    fn front(&self) -> &FrontEnd {
        &self.front
    }

    fn generation(&self) -> u64 {
        self.cell.load().generation()
    }

    /// Snapshot → sketch the query columns → [`engine::execute`] →
    /// render. Queries never take a lock: the whole miss runs on one
    /// immutable snapshot, whose generation the answer is cached under.
    fn miss(&self, req: Parsed, trace: &mut Trace) -> Result<(String, Option<u64>), &'static str> {
        let snap = self.cell.load();
        let guard = trace.begin("build_query");
        let sketches: Vec<_> = req
            .queries
            .into_iter()
            .map(|q| snap.build_query(&q.id, q.keys, q.values))
            .collect();
        trace.end(guard);
        let guard = trace.begin(match req.kind {
            Kind::Single => "execute",
            Kind::Batch => "batch_execute",
        });
        let (opts, alpha) = (req.params.to_options(), Some(req.params.alpha));
        let outputs = engine::execute(snap.index(), &sketches, &opts, alpha, trace);
        trace.end(guard);
        let answers: Vec<_> = outputs
            .into_iter()
            .map(|out| {
                self.front.stats.absorb_plan(&out.stats);
                out.results
            })
            .collect();
        let guard = trace.begin("render");
        let generation = snap.generation();
        let rendered = match (req.kind, answers.as_slice()) {
            (Kind::Single, [answer]) => api::render_query_response(generation, &req.params, answer),
            (_, answers) => api::render_batch_response(generation, &req.params, answers),
        };
        trace.end(guard);
        Ok((rendered, Some(generation)))
    }

    fn endpoint(&self, path: &str, body: &[u8]) -> (u16, Body) {
        let stats = &self.front.stats;
        let snap = self.cell.load();
        match path {
            "/healthz" => {
                ServerStats::bump(&stats.healthz);
                let body = format!(
                    "{{\"status\":\"ok\",\"generation\":{},\"sketches\":{}}}",
                    snap.generation(),
                    snap.index().len()
                );
                (200, Body::Owned(body))
            }
            "/metrics" => {
                ServerStats::bump(&stats.metrics);
                let body = metrics::render_server(
                    stats,
                    snap.generation(),
                    snap.index().len() as u64,
                    self.front.cache.len() as u64,
                    self.front.cache.evictions(),
                );
                (200, Body::Text(body, promtext::CONTENT_TYPE))
            }
            "/corpus" => {
                ServerStats::bump(&stats.corpus);
                self.corpus(&snap)
            }
            _ => {
                ServerStats::bump(&stats.shard);
                let answered = match path {
                    "/shard_query" => self.shard_query(&snap, body),
                    "/shard_query_batch" => self.shard_batch(&snap, body),
                    _ => self.shard_reports(&snap, body),
                };
                match answered {
                    Ok(body) => (200, Body::Owned(body)),
                    Err(msg) => (400, Body::Owned(api::render_error(&msg))),
                }
            }
        }
    }
}

impl Local {
    /// `GET /corpus`: store generation + shard/tombstone shape.
    fn corpus(&self, snap: &IndexSnapshot) -> (u16, Body) {
        let generation = snap.generation();
        // Poison-tolerant: the slot only ever holds a complete
        // `Some`, so state after a caught panic is still valid.
        let slot = || {
            self.corpus_info
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
        };
        if let Some((g, at, body)) = slot().clone() {
            if g == generation && at.elapsed() < self.poll_interval {
                return (200, Body::Shared(body));
            }
        }
        match sketch_store::stat_corpus(&self.store) {
            Ok(info) => {
                let body: Arc<str> = Arc::from(format!(
                    "{{\"served_generation\":{},\"serving_sketches\":{},\
                     \"distinct_keys\":{},\"store\":{}}}",
                    generation,
                    snap.index().len(),
                    snap.index().distinct_keys(),
                    info.to_json()
                ));
                *slot() = Some((generation, Instant::now(), Arc::clone(&body)));
                (200, Body::Shared(body))
            }
            // Transient: a compact can briefly race the stat read.
            Err(e) => (503, Body::Owned(api::render_error(&e.to_string()))),
        }
    }

    /// `POST /shard_query`: this worker's half of a scattered `/query` —
    /// the shard-local candidate rows (estimated exhaustively; see
    /// [`engine::shard_candidates`]), bit-exact on the wire.
    fn shard_query(&self, snap: &IndexSnapshot, body: &[u8]) -> Result<String, String> {
        let req = QueryRequest::parse(body, &self.front.defaults)?;
        let sketch = snap.build_query(&req.body.id, req.body.keys, req.body.values);
        let rows = engine::shard_candidates(snap.index(), &sketch, &req.params.to_options());
        let (generation, sketches) = (snap.generation(), snap.index().len());
        Ok(api::render_shard_query_response(
            generation, sketches, &rows,
        ))
    }

    /// `POST /shard_query_batch`: the scattered `/query_batch` half — one
    /// candidate-row list per query, all from one snapshot.
    fn shard_batch(&self, snap: &IndexSnapshot, body: &[u8]) -> Result<String, String> {
        let req = BatchRequest::parse(body, &self.front.defaults)?;
        let opts = req.params.to_options();
        let queries: Vec<_> = req
            .queries
            .into_iter()
            .map(|q| {
                let sketch = snap.build_query(&q.id, q.keys, q.values);
                engine::shard_candidates(snap.index(), &sketch, &opts)
            })
            .collect();
        let (generation, sketches) = (snap.generation(), snap.index().len());
        Ok(api::render_shard_batch_response(
            generation, sketches, &queries,
        ))
    }

    /// `POST /shard_reports`: full uncertainty reports for the shard-local
    /// docs the coordinator's merge actually shipped — the fetch that
    /// early termination avoids for everything else.
    fn shard_reports(&self, snap: &IndexSnapshot, body: &[u8]) -> Result<String, String> {
        let (req, docs) = api::parse_reports_request(body, &self.front.defaults)?;
        let (opts, alpha) = (req.params.to_options(), req.params.alpha);
        let sketch = snap.build_query(&req.body.id, req.body.keys, req.body.values);
        let mut sample = correlation_sketches::JoinSample::default();
        let reports: Vec<_> = docs
            .into_iter()
            .map(|doc| {
                engine::report_for_doc(snap.index(), &sketch, doc, &opts, alpha, &mut sample)
            })
            .collect();
        Ok(api::render_shard_reports_response(
            snap.generation(),
            &reports,
        ))
    }
}
