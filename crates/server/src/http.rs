//! A hand-rolled HTTP/1.1 subset: exactly what the query service needs
//! (request line + headers + `Content-Length` bodies, keep-alive,
//! pipelining-tolerant buffering) and nothing it doesn't (no chunked
//! encoding, no TLS, no compression).
//!
//! Reading is built around a caller-owned byte buffer that persists
//! across requests on a connection: bytes of a second pipelined request
//! that arrive with the first are kept, not dropped. Streams are
//! expected to have a short read timeout; every timeout tick checks the
//! caller's shutdown flag (so a stalled client can never pin a worker
//! past shutdown). In the idle keep-alive state it additionally checks
//! the caller's idle deadline (so parked connections hand their worker
//! back to the accept loop), and once request bytes exist a per-request
//! deadline bounds the head/body phases (so a slow-loris client that
//! trickles a partial request cannot pin a worker either).

use std::io::{Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Upper bound on the request line + headers.
const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Upper bound on a request body.
const MAX_BODY_BYTES: usize = 16 * 1024 * 1024;
/// The most body bytes one `read` asks for.
const BODY_READ_STEP: usize = 64 * 1024;

/// One parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// `GET`, `POST`, … (uppercased by the wire format already).
    pub method: String,
    /// Request target, e.g. `/query`. Query strings are not split off
    /// here; the router strips `?...` before matching.
    pub path: String,
    /// Raw request body (`Content-Length` bytes).
    pub body: Vec<u8>,
    /// Whether the connection should be kept open after responding.
    pub keep_alive: bool,
}

/// Why no request could be read.
#[derive(Debug)]
pub enum RecvError {
    /// The peer closed the connection cleanly between requests, or sat
    /// idle past the caller's deadline and was reclaimed.
    Closed,
    /// The server's shutdown flag was raised — while idle between
    /// requests, or on a timeout tick of a stalled partial request.
    Shutdown,
    /// The bytes on the wire are not a well-formed request; the string
    /// says why (safe to echo in a 400 response).
    Malformed(String),
    /// Request bytes stopped arriving in full (stalled or trickled)
    /// before the caller's per-request deadline; respond 408.
    TimedOut,
    /// Head or body exceeded its cap (16 KiB / 16 MiB).
    TooLarge,
    /// A non-timeout I/O failure on the stream.
    Io(std::io::Error),
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

fn stalled_past(deadline: Option<Instant>) -> bool {
    deadline.is_some_and(|d| Instant::now() >= d)
}

/// The minimum transfer rate a request must sustain once the deadline
/// is armed: every received byte credits the deadline at this rate, so
/// the timeout bounds *lack of progress* rather than total duration. A
/// legitimate client pushing a large body over a modest link keeps
/// earning time (worst case `timeout + MAX_BODY_BYTES / rate`, ~4 min),
/// while a slow-loris trickle earns microseconds per byte and still
/// dies at ~`timeout`.
const MIN_PROGRESS_BYTES_PER_SEC: u64 = 64 * 1024;

fn credit_progress(deadline: &mut Option<Instant>, bytes: usize) {
    if let Some(d) = deadline {
        let bytes = u64::try_from(bytes).unwrap_or(u64::MAX);
        let ns = bytes.saturating_mul(1_000_000_000 / MIN_PROGRESS_BYTES_PER_SEC);
        *d += Duration::from_nanos(ns);
    }
}

/// Read one request from `stream` into/out of `buf` (which carries
/// pipelined leftovers between calls).
///
/// `idle_deadline` bounds the *idle* wait only (no request bytes yet):
/// past it the connection is reclaimed as a clean [`RecvError::Closed`]
/// so the worker can go back to accepting. Once request bytes have
/// arrived, `request_timeout` bounds the remaining head/body phases
/// instead: a client that stops making progress — stalled outright or
/// trickling bytes below `MIN_PROGRESS_BYTES_PER_SEC` — gets a
/// [`RecvError::TimedOut`] rather than pinning the worker (a
/// slow-loris defense), while received bytes credit the deadline so a
/// large body on a modest link is never rejected for duration alone.
/// Every timeout tick additionally honors `shutdown`.
///
/// # Errors
///
/// See [`RecvError`]; `Closed` and `Shutdown` are the clean exits.
pub fn read_request(
    stream: &mut impl Read,
    buf: &mut Vec<u8>,
    shutdown: &AtomicBool,
    idle_deadline: Option<Instant>,
    request_timeout: Option<Duration>,
) -> Result<Request, RecvError> {
    // Armed when the first request byte arrives (or immediately, for a
    // request already started by pipelined leftovers).
    let mut request_deadline: Option<Instant> = if buf.is_empty() {
        None
    } else {
        request_timeout.map(|t| Instant::now() + t)
    };
    // Phase 1: accumulate until the head is complete. The deadline is
    // checked whenever the request is still incomplete — before every
    // read, not just on timeout ticks — so a client trickling bytes
    // faster than the socket read timeout cannot sidestep it; a request
    // that completes is never rejected.
    let mut scanned = 0;
    let head_end = loop {
        if let Some(pos) = find_head_end(buf, scanned) {
            break pos;
        }
        scanned = buf.len();
        if buf.len() > MAX_HEAD_BYTES {
            return Err(RecvError::TooLarge);
        }
        if stalled_past(request_deadline) {
            return Err(RecvError::TimedOut);
        }
        match read_head_step(stream, buf) {
            Ok(0) => {
                return if buf.is_empty() {
                    Err(RecvError::Closed)
                } else {
                    Err(RecvError::Malformed("connection closed mid-request".into()))
                };
            }
            Ok(n) => {
                if request_deadline.is_none() {
                    request_deadline = request_timeout.map(|t| Instant::now() + t);
                } else {
                    credit_progress(&mut request_deadline, n);
                }
            }
            Err(e) if is_timeout(&e) => {
                if shutdown.load(Ordering::Relaxed) {
                    return Err(RecvError::Shutdown);
                }
                if buf.is_empty() && stalled_past(idle_deadline) {
                    return Err(RecvError::Closed);
                }
            }
            Err(e) => return Err(RecvError::Io(e)),
        }
    };

    let head = buf
        .get(..head_end)
        .and_then(|head| std::str::from_utf8(head).ok())
        .ok_or_else(|| RecvError::Malformed("non-utf8 request head".into()))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or_else(|| RecvError::Malformed("empty request line".into()))?
        .to_string();
    let path = parts
        .next()
        .ok_or_else(|| RecvError::Malformed("request line has no target".into()))?
        .to_string();
    let version = parts
        .next()
        .ok_or_else(|| RecvError::Malformed("request line has no version".into()))?;
    if !version.starts_with("HTTP/1.") {
        return Err(RecvError::Malformed(format!(
            "unsupported version '{version}'"
        )));
    }

    let mut content_length: Option<usize> = None;
    // HTTP/1.1 defaults to keep-alive, HTTP/1.0 to close.
    let mut keep_alive = version == "HTTP/1.1";
    for line in lines {
        // RFC 9112 §5.2: a line starting with SP/HTAB is obsolete
        // header folding — reject rather than silently drop, since a
        // proxy that unfolds it would frame the message differently.
        if line.starts_with(' ') || line.starts_with('\t') {
            return Err(RecvError::Malformed("obsolete header folding".into()));
        }
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        // RFC 9112 §5.1: whitespace between the field name and the
        // colon MUST be rejected with 400 — a lenient proxy that
        // accepts "Content-Length : N" while this parser silently
        // dropped it would disagree on message framing (the same
        // desync class as the duplicate/'+digit' rejections below).
        if name.trim_end() != name {
            return Err(RecvError::Malformed(
                "whitespace before header colon".into(),
            ));
        }
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            // Duplicate Content-Length headers are a request-smuggling
            // desync vector behind proxies (RFC 9112 §6.3) — reject
            // rather than silently letting the last one win.
            if content_length.is_some() {
                return Err(RecvError::Malformed(
                    "duplicate content-length header".into(),
                ));
            }
            // RFC 9110 allows DIGIT only; Rust's integer parse also
            // accepts a leading '+', which a fronting proxy may frame
            // differently — another desync vector, so digits only.
            if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
                return Err(RecvError::Malformed(format!(
                    "bad content-length '{value}'"
                )));
            }
            content_length = Some(
                value
                    .parse()
                    .map_err(|_| RecvError::Malformed(format!("bad content-length '{value}'")))?,
            );
        } else if name.eq_ignore_ascii_case("connection") {
            keep_alive = !value.eq_ignore_ascii_case("close");
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            return Err(RecvError::Malformed(
                "chunked bodies are not supported".into(),
            ));
        }
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Err(RecvError::TooLarge);
    }

    // Phase 2: the body, read into its own buffer: only the bytes that
    // arrived with the head are copied, the rest is read in place, as
    // much per call as the socket has (up to a step, so the buffer grows
    // with the bytes received, not with the length a client declares).
    let body_start = head_end + 4;
    let arrived = buf.get(body_start..).unwrap_or_default();
    let arrived = arrived.get(..content_length).unwrap_or(arrived);
    let mut body = Vec::with_capacity(content_length.min(arrived.len() + BODY_READ_STEP));
    body.extend_from_slice(arrived);
    // Keep pipelined leftovers for the next call.
    buf.drain(..body_start + body.len());
    let mut filled = body.len();
    while filled < content_length {
        if stalled_past(request_deadline) {
            return Err(RecvError::TimedOut);
        }
        body.resize(content_length.min(filled + BODY_READ_STEP), 0);
        match stream.read(body.get_mut(filled..).unwrap_or_default()) {
            Ok(0) => return Err(RecvError::Malformed("connection closed mid-body".into())),
            Ok(n) => {
                filled += n;
                credit_progress(&mut request_deadline, n);
            }
            Err(e) if is_timeout(&e) => {
                if shutdown.load(Ordering::Relaxed) {
                    return Err(RecvError::Shutdown);
                }
            }
            Err(e) => return Err(RecvError::Io(e)),
        }
    }
    Ok(Request {
        method,
        path,
        body,
        keep_alive,
    })
}

/// Append one `read` of up to a whole head's worth of bytes to `buf`,
/// returning what the read returned.
fn read_head_step(stream: &mut impl Read, buf: &mut Vec<u8>) -> std::io::Result<usize> {
    let filled = buf.len();
    buf.resize(filled + MAX_HEAD_BYTES, 0);
    let got = stream.read(buf.get_mut(filled..).unwrap_or_default());
    buf.truncate(filled + got.as_ref().map_or(0, |&n| n));
    got
}

/// Where the blank line ending the head starts, searching only past the
/// first `scanned` bytes (already searched by an earlier call), less the
/// three a terminator split across reads may have begun in.
fn find_head_end(buf: &[u8], scanned: usize) -> Option<usize> {
    let from = scanned.saturating_sub(3);
    let pos = buf.get(from..)?.windows(4).position(|w| w == b"\r\n\r\n")?;
    Some(from + pos)
}

/// The content type every response carries unless the route overrides
/// it (only `/metrics` does, with the Prometheus text type).
pub(crate) const CONTENT_TYPE_JSON: &str = "application/json";

/// Everything that shapes one rendered response: status line, body,
/// connection handling, and headers.
pub(crate) struct ResponsePayload<'a> {
    /// HTTP status code.
    pub status: u16,
    /// Response body.
    pub body: &'a str,
    /// Keep the connection open after this response.
    pub keep_alive: bool,
    /// `Allow` header value (405 responses, RFC 9110 §15.5.6).
    pub allow: Option<&'a str>,
    /// `Content-Type` header value.
    pub content_type: &'a str,
}

fn render_response(
    status: u16,
    body: &str,
    keep_alive: bool,
    allow: Option<&str>,
    content_type: &str,
) -> Vec<u8> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        408 => "Request Timeout",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    };
    let mut out = Vec::with_capacity(128 + body.len());
    out.extend_from_slice(format!("HTTP/1.1 {status} {reason}\r\n").as_bytes());
    out.extend_from_slice(format!("Content-Type: {content_type}\r\n").as_bytes());
    if let Some(methods) = allow {
        out.extend_from_slice(format!("Allow: {methods}\r\n").as_bytes());
    }
    out.extend_from_slice(format!("Content-Length: {}\r\n", body.len()).as_bytes());
    out.extend_from_slice(if keep_alive {
        b"Connection: keep-alive\r\n\r\n"
    } else {
        b"Connection: close\r\n\r\n"
    });
    out.extend_from_slice(body.as_bytes());
    out
}

/// Serialize and send one response. The body is always sent with an
/// explicit `Content-Length` (no chunking), content type
/// `application/json`.
///
/// # Errors
///
/// Propagates the stream's write error.
pub fn write_response(
    stream: &mut impl Write,
    status: u16,
    body: &str,
    keep_alive: bool,
) -> std::io::Result<()> {
    stream.write_all(&render_response(
        status,
        body,
        keep_alive,
        None,
        CONTENT_TYPE_JSON,
    ))?;
    stream.flush()
}

/// [`write_response`] under the same progress deadline as the receive
/// side: the stream must have a short write timeout, and every write
/// that makes progress credits the deadline at
/// `MIN_PROGRESS_BYTES_PER_SEC` — so a reader that drains slowly but
/// steadily completes, while one holding its window shut (or trickling
/// a byte per timeout tick to reset a naive per-syscall timeout) is cut
/// off near `timeout`. Timeout ticks also honor `shutdown`, so a
/// non-draining client cannot wedge graceful drain.
///
/// # Errors
///
/// `TimedOut` past the deadline or on shutdown, otherwise the stream's
/// write error.
pub(crate) fn write_response_bounded(
    stream: &mut impl Write,
    payload: &ResponsePayload<'_>,
    shutdown: &AtomicBool,
    timeout: Option<Duration>,
) -> std::io::Result<()> {
    let out = render_response(
        payload.status,
        payload.body,
        payload.keep_alive,
        payload.allow,
        payload.content_type,
    );
    let mut deadline = timeout.map(|t| Instant::now() + t);
    let mut pos = 0;
    while let Some(rest) = out.get(pos..).filter(|rest| !rest.is_empty()) {
        if stalled_past(deadline) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                "response write timed out",
            ));
        }
        match stream.write(rest) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "stream refused response bytes",
                ));
            }
            Ok(n) => {
                pos += n;
                credit_progress(&mut deadline, n);
            }
            Err(e) if is_timeout(&e) => {
                if shutdown.load(Ordering::Relaxed) {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::TimedOut,
                        "shutdown during response write",
                    ));
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A `Read` over a script of chunks; an empty chunk injects a
    /// timeout error (like a read timeout on a real socket).
    struct Script {
        chunks: Vec<Vec<u8>>,
    }

    impl Read for Script {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            if self.chunks.is_empty() {
                return Ok(0);
            }
            let mut chunk = self.chunks.remove(0);
            if chunk.is_empty() {
                return Err(std::io::Error::new(std::io::ErrorKind::WouldBlock, "tick"));
            }
            let n = chunk.len().min(out.len());
            out[..n].copy_from_slice(&chunk[..n]);
            if n < chunk.len() {
                chunk.drain(..n);
                self.chunks.insert(0, chunk);
            }
            Ok(n)
        }
    }

    fn read_one(wire: &[Vec<u8>], buf: &mut Vec<u8>) -> Result<Request, RecvError> {
        let mut s = Script {
            chunks: wire.to_vec(),
        };
        read_request(&mut s, buf, &AtomicBool::new(false), None, None)
    }

    #[test]
    fn parses_post_with_body_split_across_reads() {
        let mut buf = Vec::new();
        let req = read_one(
            &[
                b"POST /query HTTP/1.1\r\nContent-Le".to_vec(),
                b"ngth: 11\r\n\r\nhello".to_vec(),
                Vec::new(), // a timeout mid-body just keeps waiting
                b" world".to_vec(),
            ],
            &mut buf,
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/query");
        assert_eq!(req.body, b"hello world");
        assert!(req.keep_alive);
        assert!(buf.is_empty());
    }

    #[test]
    fn pipelined_requests_survive_in_the_buffer() {
        let mut buf = Vec::new();
        let wire = b"GET /healthz HTTP/1.1\r\n\r\nGET /stats HTTP/1.1\r\n\r\n".to_vec();
        let first = read_one(&[wire], &mut buf).unwrap();
        assert_eq!(first.path, "/healthz");
        // Second request is already buffered; no further reads needed.
        let second = read_one(&[], &mut buf).unwrap();
        assert_eq!(second.path, "/stats");
    }

    #[test]
    fn connection_close_and_http10_disable_keep_alive() {
        let mut buf = Vec::new();
        let req = read_one(
            &[b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n".to_vec()],
            &mut buf,
        )
        .unwrap();
        assert!(!req.keep_alive);
        let req = read_one(&[b"GET / HTTP/1.0\r\n\r\n".to_vec()], &mut buf).unwrap();
        assert!(!req.keep_alive);
    }

    #[test]
    fn clean_close_vs_truncation() {
        let mut buf = Vec::new();
        assert!(matches!(read_one(&[], &mut buf), Err(RecvError::Closed)));
        assert!(matches!(
            read_one(&[b"GET / HT".to_vec()], &mut buf),
            Err(RecvError::Malformed(_))
        ));
    }

    #[test]
    fn shutdown_flag_ends_idle_and_stalled_connections() {
        let shutdown = AtomicBool::new(true);
        // Idle (empty buffer) + timeout -> Shutdown.
        let mut s = Script {
            chunks: vec![Vec::new()],
        };
        let mut buf = Vec::new();
        assert!(matches!(
            read_request(&mut s, &mut buf, &shutdown, None, None),
            Err(RecvError::Shutdown)
        ));
        // A client stalled mid-head is abandoned on the next timeout
        // tick — a worker must never be pinned past shutdown.
        buf.clear();
        let mut s = Script {
            chunks: vec![b"GET / HTTP/1.1".to_vec(), Vec::new(), b"\r\n\r\n".to_vec()],
        };
        assert!(matches!(
            read_request(&mut s, &mut buf, &shutdown, None, None),
            Err(RecvError::Shutdown)
        ));
        // Same for a client stalled mid-body.
        buf.clear();
        let mut s = Script {
            chunks: vec![
                b"POST / HTTP/1.1\r\nContent-Length: 5\r\n\r\nab".to_vec(),
                Vec::new(),
                b"cde".to_vec(),
            ],
        };
        assert!(matches!(
            read_request(&mut s, &mut buf, &shutdown, None, None),
            Err(RecvError::Shutdown)
        ));
        // Without shutdown, the same stalls just keep waiting and the
        // requests complete.
        let no_shutdown = AtomicBool::new(false);
        buf.clear();
        let mut s = Script {
            chunks: vec![
                b"POST / HTTP/1.1\r\nContent-Length: 5\r\n\r\nab".to_vec(),
                Vec::new(),
                b"cde".to_vec(),
            ],
        };
        let req = read_request(&mut s, &mut buf, &no_shutdown, None, None).unwrap();
        assert_eq!(req.body, b"abcde");
    }

    #[test]
    fn request_timeout_abandons_slow_loris_clients() {
        let shutdown = AtomicBool::new(false);
        let expired = Some(Duration::ZERO);
        // Stalled mid-head past the request deadline: typed error, the
        // worker is released.
        let mut buf = Vec::new();
        let mut s = Script {
            chunks: vec![b"GET / HTTP/1.1".to_vec(), Vec::new(), b"\r\n\r\n".to_vec()],
        };
        assert!(matches!(
            read_request(&mut s, &mut buf, &shutdown, None, expired),
            Err(RecvError::TimedOut)
        ));
        // Stalled mid-body: same.
        buf.clear();
        let mut s = Script {
            chunks: vec![
                b"POST / HTTP/1.1\r\nContent-Length: 5\r\n\r\nab".to_vec(),
                Vec::new(),
                b"cde".to_vec(),
            ],
        };
        assert!(matches!(
            read_request(&mut s, &mut buf, &shutdown, None, expired),
            Err(RecvError::TimedOut)
        ));
        // Trickling bytes *without* ever hitting a read timeout must
        // not sidestep the deadline: the check runs whenever the
        // request is incomplete, not just on timeout ticks.
        buf.clear();
        let mut s = Script {
            chunks: (0..32).map(|_| b"x".to_vec()).collect(),
        };
        assert!(matches!(
            read_request(&mut s, &mut buf, &shutdown, None, expired),
            Err(RecvError::TimedOut)
        ));
        assert!(buf.len() < 4, "trickle must be cut off at the deadline");
        // A generous deadline lets the same trickle complete: the
        // timeout only fires on ticks past the deadline.
        buf.clear();
        let mut s = Script {
            chunks: vec![
                b"POST / HTTP/1.1\r\nContent-Length: 5\r\n\r\nab".to_vec(),
                Vec::new(),
                b"cde".to_vec(),
            ],
        };
        let req = read_request(
            &mut s,
            &mut buf,
            &shutdown,
            None,
            Some(Duration::from_secs(3600)),
        )
        .unwrap();
        assert_eq!(req.body, b"abcde");
        // The idle wait is NOT governed by the request timeout — only
        // request bytes arm it.
        buf.clear();
        let mut s = Script {
            chunks: vec![Vec::new(), b"GET / HTTP/1.1\r\n\r\n".to_vec()],
        };
        assert!(read_request(&mut s, &mut buf, &shutdown, None, expired).is_ok());
    }

    #[test]
    fn idle_deadline_reclaims_parked_connections() {
        let shutdown = AtomicBool::new(false);
        let expired = Some(Instant::now() - std::time::Duration::from_millis(1));
        // Idle past the deadline: reclaimed as a clean close.
        let mut s = Script {
            chunks: vec![Vec::new()],
        };
        let mut buf = Vec::new();
        assert!(matches!(
            read_request(&mut s, &mut buf, &shutdown, expired, None),
            Err(RecvError::Closed)
        ));
        // Once request bytes exist, the idle deadline no longer applies.
        buf.clear();
        let mut s = Script {
            chunks: vec![b"GET / HTTP/1.1".to_vec(), Vec::new(), b"\r\n\r\n".to_vec()],
        };
        assert!(read_request(&mut s, &mut buf, &shutdown, expired, None).is_ok());
    }

    #[test]
    fn oversized_heads_and_bodies_are_rejected() {
        let mut buf = Vec::new();
        let huge = vec![b'a'; MAX_HEAD_BYTES + 8];
        assert!(matches!(
            read_one(&[huge], &mut buf),
            Err(RecvError::TooLarge)
        ));
        buf.clear();
        let req = format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", u64::MAX);
        assert!(matches!(
            read_one(&[req.into_bytes()], &mut buf),
            Err(RecvError::Malformed(_) | RecvError::TooLarge)
        ));
    }

    #[test]
    fn malformed_request_lines_are_typed() {
        for wire in [
            "\r\n\r\n",
            "GET\r\n\r\n",
            "GET /\r\n\r\n",
            "GET / SPDY/9\r\n\r\n",
            "POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
            "POST / HTTP/1.1\r\nContent-Length: +16\r\n\r\n",
            "POST / HTTP/1.1\r\nContent-Length : 5\r\n\r\nhello",
            "POST / HTTP/1.1\r\n Content-Length: 5\r\n\r\nhello",
            "POST / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 50\r\n\r\n",
            "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
        ] {
            let mut buf = Vec::new();
            assert!(
                matches!(
                    read_one(&[wire.as_bytes().to_vec()], &mut buf),
                    Err(RecvError::Malformed(_))
                ),
                "{wire:?}"
            );
        }
    }

    /// A `Write` that accepts one byte per call, with a timeout tick
    /// between accepts — the shape of a peer draining its receive
    /// window one byte at a time.
    struct TrickleSink {
        written: Vec<u8>,
        tick: bool,
    }

    impl Write for TrickleSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.tick = !self.tick;
            if self.tick {
                return Err(std::io::Error::new(std::io::ErrorKind::WouldBlock, "tick"));
            }
            self.written.push(buf[0]);
            Ok(1)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn bounded_write_cuts_off_non_draining_readers() {
        // A reader draining one byte per tick earns ~15 µs per byte —
        // far below the expired deadline — and is cut off early, even
        // though every other write call makes (token) progress.
        let mut sink = TrickleSink {
            written: Vec::new(),
            tick: false,
        };
        let err = write_response_bounded(
            &mut sink,
            &ResponsePayload {
                status: 200,
                body: "{\"big\":true}",
                keep_alive: true,
                allow: None,
                content_type: CONTENT_TYPE_JSON,
            },
            &AtomicBool::new(false),
            Some(Duration::ZERO),
        )
        .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::TimedOut);
        assert!(sink.written.len() < 4, "must not ride progress forever");
        // A generous deadline lets the same slow reader finish.
        let mut sink = TrickleSink {
            written: Vec::new(),
            tick: false,
        };
        write_response_bounded(
            &mut sink,
            &ResponsePayload {
                status: 200,
                body: "{\"big\":true}",
                keep_alive: true,
                allow: None,
                content_type: CONTENT_TYPE_JSON,
            },
            &AtomicBool::new(false),
            Some(Duration::from_secs(3600)),
        )
        .unwrap();
        assert!(sink.written.ends_with(b"{\"big\":true}"));
        // Shutdown cuts a blocked write on the next tick.
        let mut sink = TrickleSink {
            written: Vec::new(),
            tick: false,
        };
        let err = write_response_bounded(
            &mut sink,
            &ResponsePayload {
                status: 200,
                body: "{}",
                keep_alive: true,
                allow: None,
                content_type: CONTENT_TYPE_JSON,
            },
            &AtomicBool::new(true),
            None,
        )
        .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::TimedOut);
    }

    #[test]
    fn response_wire_format() {
        let mut out = Vec::new();
        write_response(&mut out, 200, "{\"ok\":true}", true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 11\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"));
        let mut out = Vec::new();
        write_response(&mut out, 404, "{}", false).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 404 Not Found\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        // 405 responses carry the Allow header (RFC 9110 §15.5.6).
        let mut out = Vec::new();
        write_response_bounded(
            &mut out,
            &ResponsePayload {
                status: 405,
                body: "{}",
                keep_alive: true,
                allow: Some("POST"),
                content_type: CONTENT_TYPE_JSON,
            },
            &AtomicBool::new(false),
            None,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 405 Method Not Allowed\r\n"));
        assert!(text.contains("Allow: POST\r\n"));
        assert!(text.contains("Content-Type: application/json\r\n"));
        // The content type is caller-controlled (the /metrics route
        // sends the Prometheus text type).
        let mut out = Vec::new();
        write_response_bounded(
            &mut out,
            &ResponsePayload {
                status: 200,
                body: "m 1\n",
                keep_alive: true,
                allow: None,
                content_type: "text/plain; version=0.0.4",
            },
            &AtomicBool::new(false),
            None,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Content-Type: text/plain; version=0.0.4\r\n"));
    }
}
