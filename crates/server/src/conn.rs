//! The connection-serving loop shared by the single-store server and
//! the scatter-gather coordinator: accept on a shared non-blocking
//! listener, serve keep-alive requests through a caller-supplied
//! router, and apply the idle/slow-loris/shutdown discipline of
//! [`crate::http`] uniformly. Both front ends get byte-identical HTTP
//! behavior (timeouts, 400/408/413 handling, HEAD body suppression,
//! panic containment) because it is literally the same loop.

use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sketch_obs::Trace;

use crate::api;
use crate::http::{self, RecvError, Request};
use crate::stats::{Counter, ServerStats};

/// A response body: freshly rendered JSON, JSON shared straight out of
/// the cache (no copy on the hit path), or a plain-text payload with an
/// explicit content type (the `/metrics` exposition).
pub(crate) enum Body {
    Owned(String),
    Shared(Arc<str>),
    Text(String, &'static str),
}

impl Body {
    pub(crate) fn as_str(&self) -> &str {
        match self {
            Self::Owned(s) | Self::Text(s, _) => s,
            Self::Shared(s) => s,
        }
    }

    pub(crate) fn content_type(&self) -> &'static str {
        match self {
            Self::Owned(_) | Self::Shared(_) => http::CONTENT_TYPE_JSON,
            Self::Text(_, ct) => ct,
        }
    }
}

impl From<String> for Body {
    fn from(s: String) -> Self {
        Self::Owned(s)
    }
}

/// Close out a traced request, shared by both front ends: log it when
/// it crossed the slow-query threshold, then splice the span tree into
/// the response when the request asked for it. A disabled trace returns
/// `(status, body)` untouched — the zero-cost path every normal request
/// takes.
///
/// Callers must cache the *untraced* body before calling this: the
/// splice happens last, so a traced request never changes what any
/// other request (or its untraced twin) reads back.
pub(crate) fn finish_traced(
    stats: &ServerStats,
    slow_query: Option<Duration>,
    log_tag: &str,
    trace: &Trace,
    want_trace: bool,
    status: u16,
    body: Body,
) -> (u16, Body) {
    if !trace.is_enabled() {
        return (status, body);
    }
    if let Some(threshold) = slow_query {
        let total_us = trace.total_us();
        let threshold_us = u64::try_from(threshold.as_micros()).unwrap_or(u64::MAX);
        if total_us >= threshold_us {
            stats.bump(Counter::SlowQueries);
            eprintln!(
                "{log_tag}: slow-query status={status} total_us={total_us} \
                 threshold_us={threshold_us} trace={}",
                trace.render_json()
            );
        }
    }
    if want_trace {
        stats.bump(Counter::Traced);
        if status < 300 {
            let spliced = api::attach_trace(body.as_str(), &trace.render_json());
            return (status, Body::Owned(spliced));
        }
    }
    (status, body)
}

/// How long a keep-alive connection may sit idle (no request bytes)
/// before its worker closes it and returns to accepting. Bounds worker
/// starvation by parked clients; active requests are never cut off.
const KEEP_ALIVE_IDLE: Duration = Duration::from_secs(10);

/// Per-connection deadlines, taken from the front end's config.
#[derive(Clone, Copy)]
pub(crate) struct ConnLimits {
    pub request_timeout: Duration,
}

/// One worker's accept loop: `accept → serve connection (keep-alive) →
/// accept`, with exponential idle backoff and per-connection panic
/// containment. `route` dispatches one request to `(status, body,
/// allow-header)`; `stats` counts every request and error.
pub(crate) fn accept_loop(
    listener: &TcpListener,
    shutdown: &AtomicBool,
    stats: &ServerStats,
    limits: ConnLimits,
    route: impl Fn(&Request) -> (u16, Body, Option<&'static str>),
) {
    // Idle accept polling backs off exponentially (1 ms → 25 ms) so a
    // quiet daemon isn't waking thousands of times a second, while a
    // burst after idle is still picked up within one tick; the cap also
    // keeps shutdown latency well under 50 ms.
    const IDLE_SLEEP_MIN: Duration = Duration::from_millis(1);
    const IDLE_SLEEP_MAX: Duration = Duration::from_millis(25);
    let mut idle_sleep = IDLE_SLEEP_MIN;
    while !shutdown.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                idle_sleep = IDLE_SLEEP_MIN;
                // A panic while serving must not unwind the worker out
                // of the pool — the fixed pool never respawns, so each
                // escaped panic would permanently shrink capacity until
                // the server silently stopped accepting.
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    serve_connection(stream, shutdown, stats, limits, &route);
                }));
                if result.is_err() {
                    stats.bump(Counter::Errors);
                    eprintln!("sketch-serve: worker caught a panic while serving a connection");
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(idle_sleep);
                idle_sleep = (idle_sleep * 2).min(IDLE_SLEEP_MAX);
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

fn serve_connection(
    mut stream: TcpStream,
    shutdown: &AtomicBool,
    stats: &ServerStats,
    limits: ConnLimits,
    route: &impl Fn(&Request) -> (u16, Body, Option<&'static str>),
) {
    let request_timeout = (!limits.request_timeout.is_zero()).then_some(limits.request_timeout);
    // Short read *and* write timeouts turn blocking syscalls into
    // ticks; `read_request` / `write_response_bounded` then apply the
    // same progress-credited deadline in both directions, so neither a
    // slow-loris sender nor a non-draining reader can pin the worker or
    // wedge shutdown (which joins workers).
    if stream.set_nonblocking(false).is_err()
        || stream
            .set_read_timeout(Some(Duration::from_millis(50)))
            .is_err()
        || stream
            .set_write_timeout(Some(Duration::from_millis(50)))
            .is_err()
    {
        return;
    }
    let _ = stream.set_nodelay(true);
    let mut buf = Vec::new();
    loop {
        let idle_deadline = Some(Instant::now() + KEEP_ALIVE_IDLE);
        match http::read_request(
            &mut stream,
            &mut buf,
            shutdown,
            idle_deadline,
            request_timeout,
        ) {
            Ok(req) => {
                let (status, body, allow) = route(&req);
                stats.bump(Counter::Requests);
                if status >= 300 {
                    stats.bump(Counter::Errors);
                }
                // RFC 9110: a response to HEAD must not carry a body —
                // a spec-compliant peer would leave the unread bytes in
                // its buffer and desync the next keep-alive response.
                let body_str = if req.method == "HEAD" {
                    ""
                } else {
                    body.as_str()
                };
                if http::write_response_bounded(
                    &mut stream,
                    &http::ResponsePayload {
                        status,
                        body: body_str,
                        keep_alive: req.keep_alive,
                        allow,
                        content_type: body.content_type(),
                    },
                    shutdown,
                    request_timeout,
                )
                .is_err()
                    || !req.keep_alive
                {
                    return;
                }
            }
            Err(err) => {
                let (status, msg) = match &err {
                    RecvError::Malformed(msg) => (400, msg.as_str()),
                    RecvError::TimedOut => (408, "request timed out"),
                    RecvError::TooLarge => (413, "request too large"),
                    RecvError::Closed | RecvError::Shutdown | RecvError::Io(_) => return,
                };
                stats.bump(Counter::Requests);
                stats.bump(Counter::Errors);
                let _ = http::write_response_bounded(
                    &mut stream,
                    &http::ResponsePayload {
                        status,
                        body: &api::render_error(msg),
                        keep_alive: false,
                        allow: None,
                        content_type: http::CONTENT_TYPE_JSON,
                    },
                    shutdown,
                    request_timeout,
                );
                return;
            }
        }
        // Finish the in-flight request, then honor shutdown.
        if shutdown.load(Ordering::Relaxed) {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_passes_the_body_through_untouched() {
        let stats = ServerStats::default();
        let trace = Trace::disabled();
        let (status, body) = finish_traced(
            &stats,
            Some(Duration::ZERO),
            "test",
            &trace,
            false,
            200,
            Body::Owned("{\"a\":1}".to_string()),
        );
        assert_eq!(status, 200);
        assert_eq!(body.as_str(), "{\"a\":1}");
        assert_eq!(stats.get(Counter::SlowQueries), 0);
        assert_eq!(stats.get(Counter::Traced), 0);
    }

    #[test]
    fn traced_success_gets_the_span_tree_spliced_in() {
        let stats = ServerStats::default();
        let mut trace = Trace::enabled();
        let g = trace.begin("parse");
        trace.end(g);
        let (status, body) = finish_traced(
            &stats,
            None,
            "test",
            &trace,
            true,
            200,
            Body::Owned("{\"a\":1}".to_string()),
        );
        assert_eq!(status, 200);
        assert!(
            body.as_str().starts_with("{\"a\":1,\"trace\":{"),
            "{}",
            body.as_str()
        );
        assert!(body.as_str().contains("\"name\":\"parse\""));
        assert_eq!(stats.get(Counter::Traced), 1);
    }

    #[test]
    fn traced_errors_count_but_keep_the_error_body() {
        let stats = ServerStats::default();
        let trace = Trace::enabled();
        let (status, body) = finish_traced(
            &stats,
            Some(Duration::ZERO),
            "test",
            &trace,
            true,
            400,
            Body::Owned("{\"error\":\"x\"}".to_string()),
        );
        assert_eq!(status, 400);
        assert_eq!(body.as_str(), "{\"error\":\"x\"}");
        assert_eq!(stats.get(Counter::Traced), 1);
        // A zero threshold marks every traced request slow.
        assert_eq!(stats.get(Counter::SlowQueries), 1);
    }
}
