//! The one request pipeline under `/query` — one query column per
//! request — shared by the single-store server and the scatter-gather
//! coordinator.
//!
//! Both front ends answer a query the same way until the moment the
//! answer has to be computed: hash the raw body, consult the parse memo,
//! probe the response cache under the current generation, and only on a
//! miss decode → fingerprint → probe again → *compute* → cache → splice
//! the trace (started, when only the decoded body asks for one, back at
//! the instant the decode began). That sequence, the routing table in
//! front of it and the accept pool underneath it are written once here,
//! generic over a [`Backend`] that supplies the one step that differs:
//! `Local` ([`crate::server`]) runs the engine on its snapshot, `Cluster`
//! ([`crate::coordinator`]) scatters to its workers and gathers. A batch
//! of queries is that many `/query` requests, on one keep-alive
//! connection if the client likes.

use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sketch_obs::{Trace, NO_INDEX};

use crate::api::{self, QueryParams, QueryRequest};
use crate::cache::{self, CacheKey, ParseMemo, QueryCache};
use crate::conn::{self, Body, ConnLimits};
use crate::http::Request;
use crate::stats::{Counter, ServerStats};

/// What the parse memo remembers about a raw body: everything the
/// cache-hit path needs without parsing — the canonical fingerprint and
/// whether the request asked for its trace.
#[derive(Clone, Copy)]
struct Memoized {
    fingerprint: u128,
    trace: bool,
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
    fn probe(&self, trace: &mut Trace, key: CacheKey) -> Option<Arc<str>> {
        let guard = trace.begin("cache_probe");
        let cached = self.cache.get(&key);
        trace.end(guard);
        if cached.is_some() {
            self.stats.bump(Counter::CacheHits);
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
    fn miss(
        &self,
        req: QueryRequest,
        trace: &mut Trace,
    ) -> Result<(String, Option<u64>), &'static str>;

    /// Serve any endpoint other than `/query` and `/stats`.
    fn endpoint(&self, path: &str, body: &[u8]) -> (u16, Body);
}

/// The endpoints both front ends serve, each with the method it allows.
const SHARED: [(&str, &str); 4] = [
    ("/healthz", "GET"),
    ("/stats", "GET"),
    ("/metrics", "GET"),
    ("/query", "POST"),
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
                    conn::accept_loop(&listener, &front.shutdown, &front.stats, limits, |req| {
                        route(&*backend, req)
                    });
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
        "/query" => query(backend, &req.body),
        "/stats" => {
            backend.front().stats.bump(Counter::Stats);
            (200, Body::Owned(stats_json(backend)))
        }
        _ => backend.endpoint(path, &req.body),
    };
    (status, body, None)
}

/// `POST /query`: count, answer, time.
fn query<B: Backend>(backend: &B, body: &[u8]) -> (u16, Body) {
    let stats = &backend.front().stats;
    stats.bump(Counter::Query);
    let t0 = Instant::now();
    let response = answer(backend, body);
    // Only answered queries feed the histogram — microsecond 400
    // rejections would otherwise drag p50/p95 down and mask real
    // served-query latency.
    if response.0 < 300 {
        let elapsed_us = u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX);
        stats.latency.record_us(elapsed_us);
    }
    response
}

fn answer<B: Backend>(backend: &B, body: &[u8]) -> (u16, Body) {
    let front = backend.front();
    let raw = api::raw_fingerprint(body);
    let generation = backend.generation();
    let memo = front.memo.get(raw);
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
        if let Some(hit) = front.probe(&mut trace, (m.fingerprint, generation)) {
            return finish(&trace, m.trace, 200, Body::Shared(hit));
        }
    }
    let decode_started = Instant::now();
    // The `parse` span covers the decode and the fingerprint.
    let parsed = QueryRequest::parse(body, &front.defaults).map(|req| {
        let fingerprint = req.fingerprint();
        let trace = req.trace;
        (req, Memoized { fingerprint, trace })
    });
    // The decoded flag is the source of truth for new bytes, wherever in
    // the body and however spelled: a trace asked for only now starts
    // where the decode did, so its `parse` span is never lost.
    if !trace.is_enabled() && parsed.as_ref().is_ok_and(|(_, m)| m.trace) {
        trace = Trace::enabled_at(decode_started);
    }
    if trace.is_enabled() {
        let took = decode_started.elapsed();
        trace.record("parse", NO_INDEX, decode_started, took);
    }
    let (req, m) = match parsed {
        Ok(parsed) => parsed,
        Err(msg) => return finish(&trace, false, 400, Body::Owned(api::render_error(&msg))),
    };
    front.memo.put(raw, m);
    if let Some(hit) = front.probe(&mut trace, (m.fingerprint, generation)) {
        return finish(&trace, m.trace, 200, Body::Shared(hit));
    }
    front.stats.bump(Counter::CacheMisses);
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
            req: QueryRequest,
            trace: &mut Trace,
        ) -> Result<(String, Option<u64>), &'static str> {
            self.executed.fetch_add(1, Ordering::Relaxed);
            self.traced
                .fetch_add(u64::from(trace.is_enabled()), Ordering::Relaxed);
            let generation = self.generation();
            let body = format!(
                "{{\"generation\":{generation},\"keys\":{}}}",
                req.body.keys.len()
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

    /// Runs [`SCRIPT`] through `route`, row by row.
    #[test]
    fn front_half_follows_the_script() {
        let stub = stub(8);
        let stats = &stub.front.stats;
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let hits_misses = || [Counter::CacheHits, Counter::CacheMisses].map(|c| stats.get(c));
        let observe = || {
            let cached = stub.front.cache.len() as u64;
            let [hits, misses] = hits_misses();
            [hits, misses, load(&stub.executed), cached]
        };
        for (what, query, delta, answer) in SCRIPT {
            if what.starts_with("bump") || what.starts_with("degrade") {
                stub.generation.fetch_add(1, Ordering::Relaxed);
                stub.degraded
                    .fetch_or(what.starts_with("degrade"), Ordering::Relaxed);
            }
            let request = post("/query", query.to_string());
            let was = observe();
            let live_was = load(&stub.traced);
            let (status, body, _) = route(&stub, &request);
            let body = body.as_str();
            let now = observe();
            assert_eq!([0, 1, 2, 3].map(|i| now[i] - was[i]), delta, "{what}");
            let answered = answer != "400";
            assert_eq!(status, if answered { 200 } else { 400 }, "{what}");
            let memo = stub.front.memo.get(api::raw_fingerprint(&request.body));
            assert_eq!(memo.is_some(), answered, "{what}");
            let (generation, traced) = answer.split_once(' ').unwrap_or((answer, ""));
            let prefix = format!("{{\"generation\":{generation},\"keys\":");
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
        assert_eq!(hits_misses(), [6, 7]);
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
        assert_eq!(ask("GET", "/query"), (405, Some("POST")));
        assert_eq!(ask("POST", "/query"), (400, None));
        // The many-query route is gone: a batch is N `/query` requests.
        assert_eq!(ask("POST", concat!("/query", "_batch")), (404, None));
        assert_eq!(ask("POST", "/shard_query"), (404, None));
        assert_eq!(ask("GET", "/"), (404, None));
    }
}
