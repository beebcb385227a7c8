//! The one request pipeline under `/query` and `/query_batch`, shared by
//! the single-store server and the scatter-gather coordinator.
//!
//! Both front ends answer a query the same way until the moment the
//! answer has to be computed: hash the raw body, consult the parse memo,
//! probe the response cache under the current generation, and only on a
//! miss decode → fingerprint → probe again → *compute* → cache → splice
//! the trace (started, when only the decoded body asks for one, back at
//! the instant the decode began). That sequence, the routing table in
//! front of it and the accept pool underneath it are written once here,
//! generic over the request [`Kind`] (a single query is a batch of one)
//! and over a [`Backend`] that supplies the one step that differs:
//! `Local` ([`crate::server`]) runs the engine on its snapshot, `Cluster`
//! ([`crate::coordinator`]) scatters to its workers and gathers.

use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sketch_obs::{Trace, NO_INDEX};

use crate::api::{self, BatchRequest, QueryBody, QueryParams, QueryRequest};
use crate::cache::{self, CacheKey, ParseMemo, QueryCache};
use crate::conn::{self, Body, ConnLimits};
use crate::http::Request;
use crate::stats::ServerStats;

/// Which public query endpoint a request came in on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    /// `POST /query`.
    Single,
    /// `POST /query_batch`.
    Batch,
}

/// A parsed request of either kind: the query columns (exactly one for
/// [`Kind::Single`]) ranked under one set of parameters.
pub(crate) struct Parsed {
    pub kind: Kind,
    pub queries: Vec<QueryBody>,
    pub params: QueryParams,
    memo: Memoized,
}

/// What the parse memo remembers about a raw body: everything the
/// cache-hit path needs without parsing — the endpoint the bytes were
/// parsed for (one body can be valid on both), the canonical
/// fingerprint, the query count `batched_queries` accounts (0 for a
/// single query), and whether the request asked for its trace.
#[derive(Clone, Copy)]
struct Memoized {
    kind: Kind,
    fingerprint: u128,
    batched: u64,
    trace: bool,
}

impl Kind {
    fn parse(self, body: &[u8], defaults: &QueryParams) -> Result<Parsed, String> {
        let memo = |fingerprint, batched, trace| Memoized {
            kind: self,
            fingerprint,
            batched,
            trace,
        };
        Ok(match self {
            Self::Single => {
                let req = QueryRequest::parse(body, defaults)?;
                Parsed {
                    kind: self,
                    memo: memo(req.fingerprint(), 0, req.trace),
                    queries: vec![req.body],
                    params: req.params,
                }
            }
            Self::Batch => {
                let req = BatchRequest::parse(body, defaults)?;
                Parsed {
                    kind: self,
                    memo: memo(req.fingerprint(), req.queries.len() as u64, req.trace),
                    queries: req.queries,
                    params: req.params,
                }
            }
        })
    }
}

/// The state every front end keeps in front of its backend.
pub(crate) struct FrontEnd {
    /// Default ranking parameters for requests that omit them.
    pub defaults: QueryParams,
    /// Rendered responses by `(canonical fingerprint, generation)`.
    pub cache: QueryCache,
    /// Raw-body-hash → [`Memoized`], so a repeated byte-identical body
    /// skips the JSON parse in front of the cache (the parse dominates
    /// the warm path on large queries).
    memo: ParseMemo<Memoized>,
    slow_query: Option<Duration>,
    pub stats: ServerStats,
    pub shutdown: AtomicBool,
}

impl FrontEnd {
    pub(crate) fn new(
        cache_capacity: usize,
        defaults: QueryParams,
        slow_query: Option<Duration>,
    ) -> Self {
        Self {
            defaults,
            cache: QueryCache::new(cache_capacity),
            // With caching disabled the memo could never produce a hit,
            // so `memo_capacity` disables it too rather than pay its
            // insert on every miss.
            memo: ParseMemo::new(cache::memo_capacity(cache_capacity)),
            slow_query,
            stats: ServerStats::default(),
            shutdown: AtomicBool::new(false),
        }
    }

    /// Probe the response cache, accounting a hit.
    fn probe(&self, trace: &mut Trace, key: CacheKey, batched: u64) -> Option<Arc<str>> {
        let guard = trace.begin("cache_probe");
        let cached = self.cache.get(&key);
        trace.end(guard);
        if cached.is_some() {
            ServerStats::bump(&self.stats.cache_hits);
            self.stats
                .batched_queries
                .fetch_add(batched, Ordering::Relaxed);
        }
        cached
    }
}

/// The part of answering a query that differs between front ends, plus
/// the endpoints only one of them has.
pub(crate) trait Backend: Send + Sync + 'static {
    /// Accept-thread name prefix and slow-query log tag.
    const TAG: &'static str;
    /// `(path, allowed method)` of the endpoints beyond [`SHARED`].
    const EXTRA: &'static [(&'static str, &'static str)];

    fn front(&self) -> &FrontEnd;

    /// The generation cache probes are keyed under right now: the served
    /// store generation, or a hash of the last-known shard generations.
    fn generation(&self) -> u64;

    /// Compute the answer to a cache miss: the rendered, untraced body
    /// and the generation it was actually answered at — the key it is
    /// cached under, which may be newer than the one the probe used;
    /// `None` keeps the body out of the cache. `Err` is the reason for a
    /// 503.
    fn miss(&self, req: Parsed, trace: &mut Trace) -> Result<(String, Option<u64>), &'static str>;

    /// Serve any endpoint other than `/query`, `/query_batch`, `/stats`.
    fn endpoint(&self, path: &str, body: &[u8]) -> (u16, Body);
}

/// The endpoints both front ends serve, each with the method it allows.
const SHARED: [(&str, &str); 5] = [
    ("/healthz", "GET"),
    ("/stats", "GET"),
    ("/metrics", "GET"),
    ("/query", "POST"),
    ("/query_batch", "POST"),
];

/// Bind `addr` and start `threads` accept loops routing into `backend`.
pub(crate) fn listen<B: Backend>(
    backend: &Arc<B>,
    addr: &str,
    threads: usize,
    limits: ConnLimits,
) -> std::io::Result<(SocketAddr, Vec<JoinHandle<()>>)> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let workers = (0..threads.max(1))
        .map(|i| {
            let listener = listener.try_clone()?;
            let backend = Arc::clone(backend);
            std::thread::Builder::new()
                .name(format!("{}-{i}", B::TAG))
                .spawn(move || {
                    let front = backend.front();
                    conn::accept_loop(
                        &listener,
                        &front.shutdown,
                        &front.stats.requests,
                        &front.stats.errors,
                        limits,
                        |req| route(&*backend, req),
                    );
                })
        })
        .collect::<std::io::Result<Vec<_>>>()?;
    Ok((listener.local_addr()?, workers))
}

/// Graceful shutdown: stop accepting, let in-flight requests finish,
/// join every thread. Returns the final `/stats` payload.
pub(crate) fn stop<B: Backend>(
    backend: &B,
    threads: impl IntoIterator<Item = JoinHandle<()>>,
) -> String {
    backend.front().shutdown.store(true, Ordering::SeqCst);
    for thread in threads {
        let _ = thread.join();
    }
    stats_json(backend)
}

fn stats_json<B: Backend>(backend: &B) -> String {
    let front = backend.front();
    front.stats.to_json(backend.generation(), front.cache.len())
}

/// Dispatch one request. Returns `(status, body, allow)` — `allow` is
/// the `Allow` header value, set only on 405 (RFC 9110 §15.5.6
/// requires it).
pub(crate) fn route<B: Backend>(backend: &B, req: &Request) -> (u16, Body, Option<&'static str>) {
    // Probes and load balancers routinely append query parameters
    // (`/healthz?probe=1`); routing only cares about the path.
    let path = req
        .path
        .split_once('?')
        .map_or(req.path.as_str(), |(path, _query)| path);
    let Some(&(_, method)) = SHARED.iter().chain(B::EXTRA).find(|(p, _)| *p == path) else {
        let body = Body::Owned(api::render_error("no such endpoint"));
        return (404, body, None);
    };
    // Any other method on an endpoint that exists (HEAD, PUT, OPTIONS,
    // …) is 405, not "no such endpoint".
    if req.method != method {
        let body = Body::Owned(api::render_error("method not allowed"));
        return (405, body, Some(method));
    }
    let (status, body) = match path {
        "/query" => query(backend, Kind::Single, &req.body),
        "/query_batch" => query(backend, Kind::Batch, &req.body),
        "/stats" => {
            ServerStats::bump(&backend.front().stats.stats);
            (200, Body::Owned(stats_json(backend)))
        }
        _ => backend.endpoint(path, &req.body),
    };
    (status, body, None)
}

/// `POST /query` / `POST /query_batch`: count, answer, time.
fn query<B: Backend>(backend: &B, kind: Kind, body: &[u8]) -> (u16, Body) {
    let stats = &backend.front().stats;
    ServerStats::bump(match kind {
        Kind::Single => &stats.query,
        Kind::Batch => &stats.query_batch,
    });
    let t0 = Instant::now();
    let response = answer(backend, kind, body);
    // Only answered queries feed the histogram — microsecond 400
    // rejections would otherwise drag p50/p95 down and mask real
    // served-query latency.
    if response.0 < 300 {
        let elapsed_us = u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX);
        stats.latency.record_us(elapsed_us);
    }
    response
}

fn answer<B: Backend>(backend: &B, kind: Kind, body: &[u8]) -> (u16, Body) {
    let front = backend.front();
    let raw = api::raw_fingerprint(body);
    let generation = backend.generation();
    let memo = front.memo.get(raw).filter(|m| m.kind == kind);
    // Trace when the slow-query log needs every request traced, or the
    // request asked: the memo knows for bytes seen before; new bytes say
    // so only once decoded, below.
    let mut trace = Trace::new(front.slow_query.is_some() || memo.is_some_and(|m| m.trace));
    // Close out: slow-query logging and the trace splice, both no-ops
    // unless this request enabled tracing.
    let finish = |trace: &Trace, want_trace, status, body| {
        let (stats, slow) = (&front.stats, front.slow_query);
        conn::finish_traced(stats, slow, B::TAG, trace, want_trace, status, body)
    };
    // A memo hit proves these exact bytes parsed to this canonical
    // fingerprint (and trace flag) before — skip the parse when the
    // answer is cached.
    if let Some(m) = memo {
        if let Some(hit) = front.probe(&mut trace, (m.fingerprint, generation), m.batched) {
            return finish(&trace, m.trace, 200, Body::Shared(hit));
        }
    }
    let decode_started = Instant::now();
    let parsed = kind.parse(body, &front.defaults);
    // The decoded flag is the source of truth for new bytes, wherever in
    // the body and however spelled: a trace asked for only now starts
    // where the decode did, so its `parse` span is never lost.
    if !trace.is_enabled() && parsed.as_ref().is_ok_and(|req| req.memo.trace) {
        trace = Trace::enabled_at(decode_started);
    }
    if trace.is_enabled() {
        let took = decode_started.elapsed();
        trace.record("parse", NO_INDEX, decode_started, took);
    }
    let req = match parsed {
        Ok(req) => req,
        Err(msg) => return finish(&trace, false, 400, Body::Owned(api::render_error(&msg))),
    };
    let m = req.memo;
    front.memo.put(raw, m);
    if let Some(hit) = front.probe(&mut trace, (m.fingerprint, generation), m.batched) {
        return finish(&trace, m.trace, 200, Body::Shared(hit));
    }
    ServerStats::bump(&front.stats.cache_misses);
    front
        .stats
        .batched_queries
        .fetch_add(m.batched, Ordering::Relaxed);
    match backend.miss(req, &mut trace) {
        Ok((rendered, answered_at)) => {
            // The cache stores only the untraced body: a traced request
            // and its untraced twin must read back byte-identical
            // result payloads.
            if let Some(generation) = answered_at {
                let key = (m.fingerprint, generation);
                front.cache.put(key, Arc::from(rendered.as_str()));
            }
            finish(&trace, m.trace, 200, Body::Owned(rendered))
        }
        Err(reason) => finish(&trace, m.trace, 503, Body::Owned(api::render_error(reason))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// A backend that answers every miss with a canned body naming the
    /// generation it ran at, and counts how often it was asked to.
    struct Stub {
        front: FrontEnd,
        generation: AtomicU64,
        degraded: AtomicBool,
        executed: AtomicU64,
        /// Misses that arrived with a live trace.
        traced: AtomicU64,
    }

    fn stub(cache_capacity: usize) -> Stub {
        Stub {
            front: FrontEnd::new(cache_capacity, QueryParams::default(), None),
            generation: AtomicU64::new(1),
            degraded: AtomicBool::new(false),
            executed: AtomicU64::new(0),
            traced: AtomicU64::new(0),
        }
    }

    impl Backend for Stub {
        const TAG: &'static str = "stub";
        const EXTRA: &'static [(&'static str, &'static str)] = &[];

        fn front(&self) -> &FrontEnd {
            &self.front
        }

        fn generation(&self) -> u64 {
            self.generation.load(Ordering::Relaxed)
        }

        fn miss(
            &self,
            req: Parsed,
            trace: &mut Trace,
        ) -> Result<(String, Option<u64>), &'static str> {
            self.executed.fetch_add(1, Ordering::Relaxed);
            self.traced
                .fetch_add(u64::from(trace.is_enabled()), Ordering::Relaxed);
            let generation = self.generation();
            let body = format!(
                "{{\"generation\":{generation},\"n\":{}}}",
                req.queries.len()
            );
            let healthy = !self.degraded.load(Ordering::Relaxed);
            Ok((body, healthy.then_some(generation)))
        }

        fn endpoint(&self, _: &str, _: &[u8]) -> (u16, Body) {
            (200, Body::Owned("{}".to_string()))
        }
    }

    fn post(path: &str, body: String) -> Request {
        Request {
            method: "POST".to_string(),
            path: path.to_string(),
            body: body.into_bytes(),
            keep_alive: true,
        }
    }

    const X: &str = r#"{"keys":["a","b"],"values":[1.0,2.0]}"#;
    const X_REORDERED: &str = r#"{"values":[1.0,2.0],"keys":["a","b"]}"#;
    const X_TRACED: &str = r#"{"keys":["a","b"],"values":[1.0,2.0],"trace":true}"#;
    const X_ESCAPED: &str = r#"{"keys":["a","b"],"values":[1.0,2.0],"tr\u0061ce":true}"#;
    const Y: &str = r#"{"keys":["c"],"values":[3.0]}"#;
    const Y_TRACED: &str = r#"{"keys":["c"],"values":[3.0],"trace":true}"#;
    const Z: &str = r#"{"keys":["trace"],"values":[4.0]}"#;
    const BAD: &str = r#"{"keys":["a"],"values":[]}"#;

    /// `(what, query, [Δcache_hits, Δcache_misses, Δexecuted, Δcached],
    /// answer)`: one request per row against one stub. The answer is
    /// `"<generation>"`, `"<generation> traced"`, or `"400"`; a row whose
    /// label starts with `bump` / `degrade` first moves the stub's
    /// generation / also marks it degraded. Every traced row sends bytes
    /// the memo has not seen, so its span tree must include `parse`; and
    /// only a traced row may hand the backend a live trace.
    const SCRIPT: [(&str, &str, [u64; 4], &str); 14] = [
        ("cold", X, [0, 1, 1, 1], "1"),
        ("memo hit, cache hit", X, [1, 0, 0, 0], "1"),
        (
            "re-ordered: no memo, cache hit",
            X_REORDERED,
            [1, 0, 0, 0],
            "1",
        ),
        (
            "traced twin: same entry",
            X_TRACED,
            [1, 0, 0, 0],
            "1 traced",
        ),
        (
            "escaped trace key traces, parse span and all",
            X_ESCAPED,
            [1, 0, 0, 0],
            "1 traced",
        ),
        ("untraced again: unspliced", X, [1, 0, 0, 0], "1"),
        ("a 400 leaves nothing behind", BAD, [0, 0, 0, 0], "400"),
        ("bump: memo hit, cache miss", X, [0, 1, 1, 1], "2"),
        (
            "traced miss: untraced body cached",
            Y_TRACED,
            [0, 1, 1, 1],
            "2 traced",
        ),
        ("untraced twin: same entry", Y, [1, 0, 0, 0], "2"),
        (
            "a key that reads \"trace\" asks for none",
            Z,
            [0, 1, 1, 1],
            "2",
        ),
        ("degrade: answered, not cached", X, [0, 1, 1, 0], "3"),
        ("still degraded: re-executes", X, [0, 1, 1, 0], "3"),
        ("bump: old entries are unreachable", Y, [0, 1, 1, 0], "4"),
    ];

    /// The query as `kind`'s endpoint takes it: bare, or a batch of one
    /// (with the shared `trace` field lifted to the batch object).
    fn spell(kind: Kind, query: &str) -> String {
        match (kind, query.rsplit_once(r#"],"tr"#)) {
            (Kind::Single, _) => query.to_string(),
            (Kind::Batch, None) => format!(r#"{{"queries":[{query}]}}"#),
            (Kind::Batch, Some((q, flag))) => format!(r#"{{"queries":[{q}]}}],"tr{flag}"#),
        }
    }

    /// Runs [`SCRIPT`] through `route`; returns the final `[cache_hits,
    /// cache_misses, batched_queries]`.
    fn run_script(kind: Kind) -> [u64; 3] {
        let stub = stub(8);
        let stats = &stub.front.stats;
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let observe = || {
            let cached = stub.front.cache.len() as u64;
            let (hits, misses) = (load(&stats.cache_hits), load(&stats.cache_misses));
            [hits, misses, load(&stub.executed), cached]
        };
        let path = match kind {
            Kind::Single => "/query",
            Kind::Batch => "/query_batch",
        };
        for (what, query, delta, answer) in SCRIPT {
            if what.starts_with("bump") || what.starts_with("degrade") {
                stub.generation.fetch_add(1, Ordering::Relaxed);
                stub.degraded
                    .fetch_or(what.starts_with("degrade"), Ordering::Relaxed);
            }
            let request = post(path, spell(kind, query));
            let (was, batched_was) = (observe(), load(&stats.batched_queries));
            let live_was = load(&stub.traced);
            let (status, body, _) = route(&stub, &request);
            let (what, body) = (format!("{kind:?}: {what}"), body.as_str());
            let now = observe();
            assert_eq!([0, 1, 2, 3].map(|i| now[i] - was[i]), delta, "{what}");
            let answered = answer != "400";
            assert_eq!(status, if answered { 200 } else { 400 }, "{what}");
            // Only an answered batch counts its (one) query — on every
            // path: memo hit, parsed hit, miss, degraded.
            let batched = u64::from(kind == Kind::Batch && answered);
            assert_eq!(
                load(&stats.batched_queries) - batched_was,
                batched,
                "{what}"
            );
            let memo = stub.front.memo.get(api::raw_fingerprint(&request.body));
            assert_eq!(memo.is_some(), answered, "{what}");
            let (generation, traced) = answer.split_once(' ').unwrap_or((answer, ""));
            let prefix = format!("{{\"generation\":{generation},\"n\":1");
            assert_eq!(body.starts_with(&prefix), answered, "{what}: {body}");
            let traced = traced == "traced";
            assert_eq!(body.contains("\"trace\":{"), traced, "{what}");
            assert_eq!(body.contains("\"name\":\"parse\""), traced, "{what}");
            // An untraced request never costs a `Trace`: what reaches
            // the backend is the disabled one, no spans, no allocation.
            let live = u64::from(traced) * delta[2];
            assert_eq!(load(&stub.traced) - live_was, live, "{what}");
        }
        assert_eq!(
            stats.latency.snapshot().iter().sum::<u64>(),
            13,
            "400s are untimed"
        );
        let batched = load(&stats.batched_queries);
        [load(&stats.cache_hits), load(&stats.cache_misses), batched]
    }

    /// The front half behaves the same whichever endpoint a query comes
    /// in on: `/query` X and `/query_batch` [X] move `cache_hits` and
    /// `cache_misses` in lockstep, and `batched_queries` stays what
    /// `/stats` documents — queries inside answered batches.
    #[test]
    fn front_half_is_one_pipeline_for_both_kinds() {
        assert_eq!(run_script(Kind::Single), [6, 7, 0]);
        assert_eq!(run_script(Kind::Batch), [6, 7, 13]);
    }

    /// One body can be valid on both endpoints; the memo must not let
    /// `/query_batch` replay what `/query` cached for the same bytes.
    #[test]
    fn the_memo_keeps_the_two_endpoints_apart() {
        let stub = stub(8);
        let both = format!(r#"{{"keys":["a"],"values":[1.0],"queries":[{X},{Y}]}}"#);
        for _ in 0..2 {
            for (kind, n) in [(Kind::Single, 1), (Kind::Batch, 2)] {
                let (status, body) = answer(&stub, kind, both.as_bytes());
                assert_eq!(status, 200);
                assert_eq!(body.as_str(), format!("{{\"generation\":1,\"n\":{n}}}"));
            }
        }
        assert_eq!(stub.executed.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn routing_is_one_table() {
        let stub = stub(0);
        let ask = |method: &str, path: &str| {
            let request = Request {
                method: method.to_string(),
                ..post(path, String::new())
            };
            let (status, _, allow) = route(&stub, &request);
            (status, allow)
        };
        assert_eq!(ask("GET", "/healthz?probe=1"), (200, None));
        assert_eq!(ask("GET", "/stats"), (200, None));
        assert_eq!(ask("HEAD", "/metrics"), (405, Some("GET")));
        assert_eq!(ask("GET", "/query_batch"), (405, Some("POST")));
        assert_eq!(ask("POST", "/query"), (400, None));
        assert_eq!(ask("POST", "/shard_query"), (404, None));
        assert_eq!(ask("GET", "/"), (404, None));
    }
}
