//! The scatter-gather coordinator: the request `pipeline`'s `Cluster`
//! backend — a front end that partitions a `/query` cache miss (one
//! query column) over N worker servers (one per corpus partition,
//! see `sketch_store::shard_corpus`) and merges their candidate rows
//! into the *same answer bytes* a single process would serve over the
//! union corpus.
//!
//! # Protocol
//!
//! One public query becomes two internal phases against each worker:
//!
//! 1. **Scatter** — the coordinator re-renders the request with every
//!    parameter resolved (so worker-side defaults can never skew a
//!    shard) and posts it to each worker's `/shard_query`. Workers
//!    answer with their shard-local candidate rows — overlap, sample
//!    size, and the estimate with its score bounds' inputs — in a
//!    bit-exact wire encoding (`f64::to_bits`).
//! 2. **Gather** — [`sketch_index::merge_shard_candidates`] re-cuts the
//!    union candidate set exactly as the single-process retrieval stage
//!    would, scores it, and uses per-row score bounds to compute the
//!    global k-th lower bound τ: a row whose upper bound cannot reach τ
//!    is *terminated* — its full uncertainty report is never fetched.
//!    Only the surviving rows' reports are pulled via `/shard_reports`
//!    (phase 2), and only for the winners' shards.
//!
//! The merge is unconditionally lossless (`sketch_index::merge`
//! documents the proof), so early termination is a pure transfer
//! optimization: the shipped results, scores, CIs, and tie-breaks are
//! bit-identical to `top_k_with_reports` on the union — the property
//! the `prop_shard` oracle battery checks at every shard count.
//!
//! # Consistency
//!
//! Each worker answers both phases from *its* snapshot; a mutation
//! landing between the phases would pair rows from one generation with
//! reports from another. The coordinator detects this — every internal
//! response carries the worker's generation — and re-scatters (up to
//! `MAX_ATTEMPTS` attempts) until both phases agree per shard, else
//! answers 503. Responses are cached under `(query fingerprint,
//! generation-vector hash)`, so mixed-generation answers can never
//! alias across mutations; degraded answers are never cached.
//!
//! # Partial failure
//!
//! A worker that cannot be reached, times out, or answers garbage
//! within `worker_timeout` makes the response **degraded, not wrong**:
//! its shard is skipped, the typed `degraded` field names the shard and
//! the last generation the coordinator observed for it, and the merge
//! runs over the shards that did answer. Never a hang (every socket op
//! is deadline-bounded), never a silently short list.

use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use sketch_index::{merge_shard_candidates, DocId, ReportedResult, ShardCandidate, ShardRows};
use sketch_obs::{promtext, Trace};

use crate::api::{self, QueryBody, QueryParams, QueryRequest, ShardState};
use crate::client::HttpClient;
use crate::conn::{Body, ConnLimits};
use crate::metrics::{self, ShardView};
use crate::pipeline::{self, Backend, FrontEnd};
use crate::server::ServerError;
use crate::stats::{Counter, ServerStats};

/// Scatter attempts before a phase-1/phase-2 generation mismatch (a
/// mutation racing the query) becomes a 503.
const MAX_ATTEMPTS: usize = 3;

/// Coordinator configuration.
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// Worker addresses (`host:port`), one per partition, **in
    /// partition order** — the merge reconstructs union doc ids from
    /// this order, so it must match `partition.cskp`.
    pub workers: Vec<String>,
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Front-end threads in the fixed accept pool.
    pub threads: usize,
    /// Merged-response cache capacity (0 disables).
    pub cache_capacity: usize,
    /// How often the health poller refreshes worker generations.
    pub poll_interval: Duration,
    /// Per-request receive/send deadline for public connections.
    pub request_timeout: Duration,
    /// Deadline for each internal worker call (connect, read, write).
    /// Bounds the latency cost of a dead or stalled worker.
    pub worker_timeout: Duration,
    /// How long `start_coordinator` waits for every worker to answer
    /// its first health probe before giving up.
    pub startup_timeout: Duration,
    /// When set, trace every `/query` internally and log one structured
    /// line (with the full span tree, including per-shard scatter round
    /// trips) for each request whose total reaches the threshold. `None` disables both the logging and the
    /// always-on tracing it requires.
    pub slow_query: Option<Duration>,
    /// Default ranking parameters for requests that omit them.
    pub defaults: QueryParams,
}

impl CoordinatorConfig {
    /// Sensible defaults for fanning out over `workers`: ephemeral
    /// loopback port, 4 front-end threads, 1024-entry cache, 200 ms
    /// health polling, 2 s per-worker call deadline.
    #[must_use]
    pub fn new(workers: Vec<String>) -> Self {
        Self {
            workers,
            addr: "127.0.0.1:0".to_string(),
            threads: 4,
            cache_capacity: 1024,
            poll_interval: Duration::from_millis(200),
            request_timeout: Duration::from_secs(10),
            worker_timeout: Duration::from_secs(2),
            startup_timeout: Duration::from_secs(10),
            slow_query: None,
            defaults: QueryParams::default(),
        }
    }
}

/// One worker: its resolved address, a pool of keep-alive connections,
/// and the last-known state — updated by every successful call and by
/// the background health poller.
struct WorkerSlot {
    addr: SocketAddr,
    pool: Mutex<Vec<HttpClient>>,
    state: Mutex<ShardView>,
}

impl WorkerSlot {
    fn new(addr: SocketAddr) -> Self {
        Self {
            addr,
            pool: Mutex::new(Vec::new()),
            state: Mutex::new(ShardView {
                generation: 0,
                sketches: 0,
                healthy: false,
            }),
        }
    }

    fn state(&self) -> ShardView {
        *self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn observe(&self, generation: u64, sketches: u64) {
        *self.state.lock().unwrap_or_else(PoisonError::into_inner) = ShardView {
            generation,
            sketches,
            healthy: true,
        };
    }

    fn mark_unhealthy(&self) {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .healthy = false;
    }

    /// One bounded request against this worker. A pooled keep-alive
    /// connection is reused when available; on any transport error the
    /// connection is dropped (its stream state is unknown), on success
    /// it returns to the pool. A transport error on a *pooled*
    /// connection gets one retry on a fresh connection — the worker may
    /// simply have reaped the idle socket, which must not masquerade as
    /// a dead shard. `None` covers every remaining failure mode —
    /// connect refusal, timeout, non-200 — because the caller's only
    /// recourse is the same either way: degrade or retry.
    fn call(&self, timeout: Duration, method: &str, path: &str, body: &str) -> Option<String> {
        let pooled = self
            .pool
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop();
        let mut from_pool = pooled.is_some();
        let mut client = match pooled {
            Some(c) => c,
            None => HttpClient::connect_with_timeout(self.addr, timeout).ok()?,
        };
        loop {
            let response = if method == "GET" {
                client.get(path)
            } else {
                client.post(path, body)
            };
            match response {
                Ok(resp) => {
                    self.pool
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .push(client);
                    return (resp.status == 200).then_some(resp.body);
                }
                Err(_) if from_pool => {
                    from_pool = false;
                    client = HttpClient::connect_with_timeout(self.addr, timeout).ok()?;
                }
                Err(_) => return None,
            }
        }
    }

    /// Probe `/healthz` and fold the answer into the last-known state.
    fn probe(&self, timeout: Duration) -> bool {
        let Some(body) = self.call(timeout, "GET", "/healthz", "") else {
            self.mark_unhealthy();
            return false;
        };
        match (
            api::extract_u64(&body, "generation"),
            api::extract_u64(&body, "sketches"),
        ) {
            (Ok(generation), Ok(sketches)) => {
                self.observe(generation, sketches);
                true
            }
            _ => {
                self.mark_unhealthy();
                false
            }
        }
    }
}

/// The pipeline's cluster backend — a cache miss scatters to the
/// workers and gathers — and everything the front-end threads and the
/// health poller share.
struct Cluster {
    front: FrontEnd,
    slots: Vec<WorkerSlot>,
    worker_timeout: Duration,
}

impl Cluster {
    /// The last-known `(generation, sketches)` vector, in shard order.
    fn known_generations(&self) -> Vec<(u64, u64)> {
        self.slots
            .iter()
            .map(|s| {
                let st = s.state();
                (st.generation, st.sketches)
            })
            .collect()
    }
}

/// A running coordinator. Call [`CoordinatorHandle::shutdown`] for a
/// deterministic, graceful stop.
pub struct CoordinatorHandle {
    addr: SocketAddr,
    ctx: Arc<Cluster>,
    workers: Vec<std::thread::JoinHandle<()>>,
    poller: std::thread::JoinHandle<()>,
}

impl CoordinatorHandle {
    /// The bound address (with the real port when 0 was requested).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Last-known worker generations, in shard order.
    #[must_use]
    pub fn generations(&self) -> Vec<u64> {
        self.ctx
            .slots
            .iter()
            .map(|s| s.state().generation)
            .collect()
    }

    /// Live coordinator counters.
    #[must_use]
    pub fn stats(&self) -> &ServerStats {
        &self.ctx.front.stats
    }

    /// Graceful shutdown: stop accepting, finish in-flight requests,
    /// join every thread. Returns the final `/stats` payload.
    #[must_use = "the returned stats summary describes the coordinator's whole life"]
    pub fn shutdown(self) -> String {
        let threads = self.workers.into_iter().chain([self.poller]);
        pipeline::stop(&*self.ctx, threads)
    }
}

/// Resolve the workers, wait for all of them to answer a health probe,
/// bind the public listener, and start the front-end pool plus the
/// health poller.
///
/// # Errors
///
/// [`ServerError::Io`] when a worker address cannot be resolved, a
/// worker stays unreachable past `startup_timeout`, the public address
/// cannot be bound, or a thread cannot be spawned.
pub fn start_coordinator(config: CoordinatorConfig) -> Result<CoordinatorHandle, ServerError> {
    if config.workers.is_empty() {
        return Err(ServerError::Io(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "a coordinator needs at least one worker address",
        )));
    }
    let slots = config
        .workers
        .iter()
        .map(|w| {
            let addr = w.to_socket_addrs()?.next().ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    format!("worker address resolved to nothing: {w}"),
                )
            })?;
            Ok(WorkerSlot::new(addr))
        })
        .collect::<Result<Vec<_>, std::io::Error>>()?;

    // Startup requires the full partition: serving with a worker that
    // was *never* observed would mean shipping answers whose degraded
    // entries carry made-up generations.
    let deadline = Instant::now() + config.startup_timeout;
    loop {
        let all_up = slots
            .iter()
            .filter(|s| !s.state().healthy)
            .all(|s| s.probe(config.worker_timeout));
        if all_up {
            break;
        }
        if Instant::now() >= deadline {
            let down: Vec<String> = slots
                .iter()
                .filter(|s| !s.state().healthy)
                .map(|s| s.addr.to_string())
                .collect();
            return Err(ServerError::Io(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                format!("workers unreachable at startup: {}", down.join(", ")),
            )));
        }
        std::thread::sleep(Duration::from_millis(50));
    }

    let ctx = Arc::new(Cluster {
        front: FrontEnd::new(config.cache_capacity, config.defaults, config.slow_query),
        slots,
        worker_timeout: config.worker_timeout,
    });
    let limits = ConnLimits {
        request_timeout: config.request_timeout,
    };
    let (addr, workers) = pipeline::listen(&ctx, &config.addr, config.threads, limits)?;
    let poller = {
        let ctx = Arc::clone(&ctx);
        let interval = config.poll_interval;
        std::thread::Builder::new()
            .name("sketch-coord-poll".to_string())
            .spawn(move || poller_loop(&ctx, interval, ctx.worker_timeout))?
    };
    Ok(CoordinatorHandle {
        addr,
        ctx,
        workers,
        poller,
    })
}

/// Run `call` on every item at once, one scoped thread each, and
/// return one answer per item, in item order. A call that panics
/// answers `None` instead of unwinding into the caller.
fn fan_out<I: Send, T: Send>(
    items: impl IntoIterator<Item = I>,
    call: impl Fn(I) -> T + Sync,
) -> Vec<Option<T>> {
    let call = &call;
    std::thread::scope(|s| {
        let handles: Vec<_> = (items.into_iter())
            .map(|item| s.spawn(move || call(item)))
            .collect();
        handles.into_iter().map(|h| h.join().ok()).collect()
    })
}

/// Poll every worker's `/healthz` each `interval`. This is how a
/// mutation on a worker's store reaches the coordinator's cache key
/// (generation-vector hash) without any query traffic, and how a dead
/// worker's `healthy` flag clears so `/healthz` reports it.
fn poller_loop(ctx: &Cluster, interval: Duration, timeout: Duration) {
    let tick = interval.min(Duration::from_millis(50));
    let mut next_poll = Instant::now();
    while !ctx.front.shutdown.load(Ordering::Relaxed) {
        if Instant::now() >= next_poll {
            next_poll = Instant::now() + interval;
            let before = ctx.known_generations();
            let probes = fan_out(&ctx.slots, |slot| slot.probe(timeout));
            // A probe that panicked is a failed probe.
            for (slot, probe) in ctx.slots.iter().zip(probes) {
                if probe.is_none() {
                    slot.mark_unhealthy();
                }
            }
            if ctx.known_generations() != before {
                ctx.front.stats.bump(Counter::Refreshes);
            }
        }
        std::thread::sleep(tick);
    }
}

/// `GET /healthz`: coordinator liveness plus the per-shard view —
/// integration tests and the smoke script wait on `generation` bumps
/// and `healthy` flips here.
fn healthz_body(ctx: &Cluster) -> String {
    let states: Vec<ShardView> = ctx.slots.iter().map(WorkerSlot::state).collect();
    let status = if states.iter().all(|s| s.healthy) {
        "ok"
    } else {
        "degraded"
    };
    let shards: Vec<String> = (states.iter().enumerate())
        .map(|(i, s)| {
            let (generation, sketches, healthy) = (s.generation, s.sketches, s.healthy);
            format!(
                "{{\"shard\":{i},\"generation\":{generation},\"sketches\":{sketches},\
                 \"healthy\":{healthy}}}"
            )
        })
        .collect();
    let (workers, shards) = (states.len(), shards.join(","));
    format!("{{\"status\":\"{status}\",\"workers\":{workers},\"shards\":[{shards}]}}")
}

/// One shard's phase-1 outcome: its candidate rows at a generation, or
/// a degraded marker carrying the last-known state.
struct ShardFetch {
    generation: u64,
    sketches: u64,
    degraded: bool,
    /// When the scatter thread issued this shard's call, and how long
    /// the call took (to the answer, or to the failure that degraded
    /// it) — measured in the thread, recorded into the trace after the
    /// join as `shard_rtt` spans.
    started: Instant,
    rtt: Duration,
    /// The shard-local candidate rows, in retrieval order.
    rows: Vec<ShardCandidate>,
}

impl ShardFetch {
    fn degraded_from(state: ShardView) -> Self {
        Self {
            generation: state.generation,
            sketches: state.sketches,
            degraded: true,
            started: Instant::now(),
            rtt: Duration::ZERO,
            rows: Vec::new(),
        }
    }

    fn shard_state(&self) -> ShardState {
        ShardState {
            generation: self.generation,
            degraded: self.degraded,
        }
    }
}

/// Phase 1: post `wire` to every worker's `/shard_query` concurrently. A
/// worker that fails (or answers garbage) comes back degraded with its
/// last-known state; successes update the slot's state.
fn scatter(ctx: &Cluster, wire: &str) -> Vec<ShardFetch> {
    let fetches = fan_out(&ctx.slots, |slot| {
        let started = Instant::now();
        let parsed = slot
            .call(ctx.worker_timeout, "POST", "/shard_query", wire)
            .and_then(|body| api::parse_shard_query_response(&body).ok());
        let rtt = started.elapsed();
        match parsed {
            Some(r) => {
                slot.observe(r.generation, r.sketches as u64);
                ShardFetch {
                    generation: r.generation,
                    sketches: r.sketches as u64,
                    degraded: false,
                    started,
                    rtt,
                    rows: r.rows,
                }
            }
            None => {
                let state = slot.state();
                slot.mark_unhealthy();
                let mut fetch = ShardFetch::degraded_from(state);
                fetch.started = started;
                fetch.rtt = rtt;
                fetch
            }
        }
    });
    fetches
        .into_iter()
        .zip(&ctx.slots)
        .map(|(fetch, slot)| fetch.unwrap_or_else(|| ShardFetch::degraded_from(slot.state())))
        .collect()
}

/// The gather outcome: final results plus the termination accounting
/// the public response reports.
struct Gather {
    results: Vec<ReportedResult>,
    merged: usize,
    shipped: usize,
}

/// Phase 2 + merge. `Err(())` means a healthy shard's reports could not
/// be fetched at the phase-1 generation (a mutation raced the two
/// phases, or the worker died between them) — the caller re-scatters.
#[allow(clippy::result_unit_err)]
fn gather(
    ctx: &Cluster,
    fetches: &[ShardFetch],
    query: &QueryBody,
    params: &QueryParams,
) -> Result<Gather, ()> {
    let shard_rows: Vec<ShardRows<'_>> = fetches
        .iter()
        .map(|f| ShardRows {
            rows: &f.rows,
            sketches: f.sketches as usize,
        })
        .collect();
    let outcome = merge_shard_candidates(&shard_rows, &params.to_options());

    // Each shard's surviving winners, in rank order: these are the only
    // docs whose reports cross the wire — everything the bound
    // terminated stays on its worker.
    let wanted: Vec<Vec<DocId>> = (0..fetches.len())
        .map(|shard| {
            (outcome.winners.iter())
                .filter(|w| w.shard == shard)
                .map(|w| w.local_doc)
                .collect()
        })
        .collect();

    // Fetch reports, shards concurrently. Every response must match the
    // shard's phase-1 generation.
    let shards = ctx.slots.iter().zip(fetches).zip(&wanted);
    let reports: Vec<Option<Vec<_>>> = fan_out(shards, |((slot, fetch), docs)| {
        if docs.is_empty() {
            return Some(Vec::new());
        }
        let wire = api::render_shard_reports_request(query, params, docs);
        let response = slot
            .call(ctx.worker_timeout, "POST", "/shard_reports", &wire)
            .and_then(|b| api::parse_shard_reports_response(&b, params.estimator).ok())?;
        (response.generation == fetch.generation && response.reports.len() == docs.len())
            .then_some(response.reports)
    })
    .into_iter()
    .map(Option::flatten)
    .collect();

    // A shard that answered phase 1 but failed phase 2 poisons the
    // attempt (stale reports must never ship); a shard that was already
    // degraded contributed no winners and fetched nothing.
    let poisoned = (fetches.iter().zip(&reports).zip(&wanted))
        .any(|((fetch, got), docs)| !fetch.degraded && got.is_none() && !docs.is_empty());
    if poisoned {
        return Err(());
    }

    // Stitch: walk the winners in rank order, pulling the next report of
    // their shard's stream — the order the docs were requested in.
    let mut streams: Vec<_> = (reports.into_iter())
        .map(|r| r.unwrap_or_default().into_iter())
        .collect();
    let results = outcome
        .winners
        .into_iter()
        .map(|w| ReportedResult {
            report: streams.get_mut(w.shard).and_then(Iterator::next).flatten(),
            result: w.result,
        })
        .collect();
    Ok(Gather {
        results,
        merged: outcome.merged,
        shipped: outcome.shipped,
    })
}

/// Replay the per-shard scatter round trips (measured inside the
/// scatter threads) into the trace as indexed `shard_rtt` spans,
/// nested under the still-open `scatter` span.
fn record_shard_rtts(trace: &mut Trace, fetches: &[ShardFetch]) {
    if !trace.is_enabled() {
        return;
    }
    for (i, fetch) in fetches.iter().enumerate() {
        trace.record("shard_rtt", i as u32, fetch.started, fetch.rtt);
    }
}

impl Backend for Cluster {
    const TAG: &'static str = "sketch-coord";
    const EXTRA: &'static [(&'static str, &'static str)] = &[];

    fn front(&self) -> &FrontEnd {
        &self.front
    }

    fn generation(&self) -> u64 {
        api::generation_hash(&self.known_generations())
    }

    /// Scatter → gather → render, re-scattering while a mutation races
    /// the two phases. A fully healthy answer is cached under the
    /// *actual* phase-1 generation vector (which may be newer than the
    /// one the lookup used), so a cached body can never be replayed
    /// against a different mixture; a degraded one is never cached.
    fn miss(
        &self,
        req: QueryRequest,
        trace: &mut Trace,
    ) -> Result<(String, Option<u64>), &'static str> {
        let wire = api::render_shard_query_request(&req.body, &req.params);
        for attempt in 0..MAX_ATTEMPTS {
            let guard = trace.begin_indexed("scatter", attempt as u32);
            let fetches = scatter(self, &wire);
            record_shard_rtts(trace, &fetches);
            trace.end(guard);
            let degraded = fetches.iter().filter(|f| f.degraded).count();
            if degraded == fetches.len() {
                return Err("every shard is unreachable");
            }
            let guard = trace.begin_indexed("gather", attempt as u32);
            let gathered = gather(self, &fetches, &req.body, &req.params);
            trace.end(guard);
            let Ok(g) = gathered else {
                continue;
            };
            trace.note("merged", g.merged as u64);
            trace.note("shipped", g.shipped as u64);
            trace.note("degraded_shards", degraded as u64);
            let shards: Vec<ShardState> = fetches.iter().map(ShardFetch::shard_state).collect();
            let guard = trace.begin("render");
            let rendered = api::render_coordinator_response(
                &shards,
                &req.params,
                g.merged,
                g.shipped,
                &g.results,
            );
            trace.end(guard);
            if degraded > 0 {
                self.front.stats.bump(Counter::Degraded);
                return Ok((rendered, None));
            }
            let actual: Vec<(u64, u64)> =
                fetches.iter().map(|f| (f.generation, f.sketches)).collect();
            return Ok((rendered, Some(api::generation_hash(&actual))));
        }
        Err("shard generations kept changing mid-query; retry")
    }

    fn endpoint(&self, path: &str, _body: &[u8]) -> (u16, Body) {
        let stats = &self.front.stats;
        if path == "/healthz" {
            stats.bump(Counter::Healthz);
            return (200, Body::Owned(healthz_body(self)));
        }
        stats.bump(Counter::Metrics);
        let shards: Vec<ShardView> = self.slots.iter().map(WorkerSlot::state).collect();
        let body = metrics::render_coordinator(
            stats,
            &shards,
            self.front.cache.len() as u64,
            self.front.cache.evictions(),
        );
        (200, Body::Text(body, promtext::CONTENT_TYPE))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fan_out_answers_in_worker_order_and_contains_a_panic() {
        let slots: Vec<WorkerSlot> = (1..=3)
            .map(|port| WorkerSlot::new(SocketAddr::from(([127, 0, 0, 1], port))))
            .collect();
        let answers = fan_out(&slots, |slot| {
            let port = slot.addr.port();
            assert_ne!(port, 2, "worker 1 panics");
            port
        });
        assert_eq!(answers, vec![Some(1), None, Some(3)]);
    }
}
