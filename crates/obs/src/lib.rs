//! Observability primitives for the query path: a bounded, monotonic
//! span recorder ([`Trace`]) and Prometheus text-exposition writers
//! ([`promtext`]).
//!
//! # Zero cost when disabled
//!
//! The server traces a request only when the client asked for it (or a
//! slow-query threshold is armed), so the disabled path must cost
//! nothing measurable: [`Trace::disabled`] is `const`, holds no heap
//! allocation, and every recording method is one branch on a `None`
//! before touching the clock. No `Instant::now()` call, no `Vec` growth,
//! no formatting ever happens on a disabled trace.
//!
//! # Bounded by construction
//!
//! An enabled trace caps both the span count (`MAX_SPANS`) and the
//! nesting depth ([`MAX_DEPTH`]); spans beyond either bound are counted
//! in `dropped` rather than recorded, so a pathological request can
//! never make its own trace allocate without bound. Timings come from
//! the monotonic clock (`Instant`), recorded as microsecond offsets
//! from the trace's epoch — wall-clock steps can never produce negative
//! or reordered stage durations.

use std::time::{Duration, Instant};

pub mod promtext;

/// Ceiling on recorded spans per trace; later spans are dropped (and
/// counted) rather than recorded.
const MAX_SPANS: usize = 128;

/// Ceiling on span nesting depth; deeper `begin`s are dropped (and
/// counted) rather than recorded.
pub const MAX_DEPTH: usize = 16;

/// Sentinel for a span with no index label.
pub const NO_INDEX: u32 = u32::MAX;

/// One recorded stage: a name, an optional numeric index (shard number,
/// promotion round, …), its nesting depth, and monotonic-clock timing
/// as microsecond offsets from the trace epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Stage name (static: span names are a closed vocabulary, which
    /// keeps recording allocation-free).
    pub name: &'static str,
    /// Numeric label ([`NO_INDEX`] when absent) — e.g. the shard a
    /// scatter RTT belongs to.
    pub index: u32,
    /// Nesting depth at `begin` (0 = top level).
    pub depth: u32,
    /// Start offset from the trace epoch, µs.
    pub start_us: u64,
    /// Duration, µs. Still-open spans render as 0.
    pub dur_us: u64,
}

#[derive(Debug)]
struct Inner {
    epoch: Instant,
    spans: Vec<Span>,
    /// Open-span stack: `(slot in spans, start instant)`.
    open: Vec<(usize, Instant)>,
    /// `(name, value)` annotations — counters folded into the trace
    /// (plan statistics, candidate counts, degraded shards).
    notes: Vec<(&'static str, u64)>,
    dropped: u64,
}

/// A span recorder for one request. Disabled traces are free (see the
/// module docs); enabled traces record a bounded tree of stage timings
/// plus numeric notes, rendered as one JSON object.
#[derive(Debug)]
pub struct Trace {
    inner: Option<Box<Inner>>,
}

/// Token returned by [`Trace::begin`]; hand it back to [`Trace::end`]
/// to close the span. Dropping it without `end` leaves the span open
/// (rendered with duration 0) — fine for abandoned paths, never unsafe.
#[derive(Debug)]
#[must_use = "pass the guard back to Trace::end to close the span"]
pub struct SpanGuard {
    slot: u32,
}

impl SpanGuard {
    const NONE: Self = Self { slot: u32::MAX };
}

impl Trace {
    /// A trace that records nothing and allocates nothing. `const`, so
    /// the untraced hot path carries only a `None` check.
    #[must_use]
    pub const fn disabled() -> Self {
        Self { inner: None }
    }

    /// A live trace whose epoch is now.
    #[must_use]
    pub fn enabled() -> Self {
        Self::enabled_at(Instant::now())
    }

    /// A live trace whose epoch is `epoch` — for a caller that learns it
    /// wants a trace only after the first stage ran (the request's
    /// `"trace"` flag is known once the body is decoded): take an
    /// `Instant` before the stage, and [`record`](Self::record) the
    /// stage into the trace started there.
    #[must_use]
    pub fn enabled_at(epoch: Instant) -> Self {
        Self {
            inner: Some(Box::new(Inner {
                epoch,
                spans: Vec::with_capacity(16),
                open: Vec::with_capacity(4),
                notes: Vec::with_capacity(8),
                dropped: 0,
            })),
        }
    }

    /// An enabled or disabled trace, picked at runtime.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        if enabled {
            Self::enabled()
        } else {
            Self::disabled()
        }
    }

    /// Is this trace recording?
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Open a span. Returns a token to pass back to [`end`](Self::end).
    pub fn begin(&mut self, name: &'static str) -> SpanGuard {
        self.begin_indexed(name, NO_INDEX)
    }

    /// Open a span with a numeric index label (e.g. a shard number).
    pub fn begin_indexed(&mut self, name: &'static str, index: u32) -> SpanGuard {
        let Some(inner) = self.inner.as_deref_mut() else {
            return SpanGuard::NONE;
        };
        if inner.spans.len() >= MAX_SPANS || inner.open.len() >= MAX_DEPTH {
            inner.dropped += 1;
            return SpanGuard::NONE;
        }
        let now = Instant::now();
        let slot = inner.spans.len();
        inner.spans.push(Span {
            name,
            index,
            depth: inner.open.len() as u32,
            start_us: offset_us(inner.epoch, now),
            dur_us: 0,
        });
        inner.open.push((slot, now));
        SpanGuard { slot: slot as u32 }
    }

    /// Close the span `guard` opened. Out-of-order ends are tolerated:
    /// only the named span is closed, not everything above it.
    pub fn end(&mut self, guard: SpanGuard) {
        let Some(inner) = self.inner.as_deref_mut() else {
            return;
        };
        let slot = guard.slot as usize;
        let Some(pos) = inner.open.iter().rposition(|&(s, _)| s == slot) else {
            return;
        };
        let (_, started) = inner.open.remove(pos);
        inner.spans[slot].dur_us = duration_us(started.elapsed());
    }

    /// Run `f` inside a span — the ergonomic form for straight-line
    /// stages.
    pub fn scope<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let guard = self.begin(name);
        let out = f(self);
        self.end(guard);
        out
    }

    /// Record a span measured elsewhere (e.g. a per-shard RTT taken on
    /// a scatter thread and reported back after the join). `start` is
    /// clamped to the trace epoch if it predates it.
    pub fn record(&mut self, name: &'static str, index: u32, start: Instant, dur: Duration) {
        let Some(inner) = self.inner.as_deref_mut() else {
            return;
        };
        if inner.spans.len() >= MAX_SPANS {
            inner.dropped += 1;
            return;
        }
        inner.spans.push(Span {
            name,
            index,
            depth: inner.open.len() as u32,
            start_us: offset_us(inner.epoch, start),
            dur_us: duration_us(dur),
        });
    }

    /// Attach a numeric annotation (plan statistics, shard counts, …).
    /// Bounded by `MAX_SPANS` like spans.
    pub fn note(&mut self, name: &'static str, value: u64) {
        let Some(inner) = self.inner.as_deref_mut() else {
            return;
        };
        if inner.notes.len() >= MAX_SPANS {
            inner.dropped += 1;
            return;
        }
        inner.notes.push((name, value));
    }

    /// Microseconds since the trace epoch (0 when disabled).
    #[must_use]
    pub fn total_us(&self) -> u64 {
        self.inner
            .as_deref()
            .map_or(0, |i| duration_us(i.epoch.elapsed()))
    }

    /// Recorded spans (empty when disabled).
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        self.inner.as_deref().map_or(&[], |i| &i.spans)
    }

    /// Recorded notes (empty when disabled).
    #[must_use]
    pub fn notes(&self) -> &[(&'static str, u64)] {
        self.inner.as_deref().map_or(&[], |i| &i.notes)
    }

    /// Spans dropped at the span-count or depth bound.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.inner.as_deref().map_or(0, |i| i.dropped)
    }

    /// Render the trace as one JSON object:
    /// `{"total_us":…,"dropped":…,"spans":[{"name":…,"depth":…,
    /// "start_us":…,"dur_us":…},…],"notes":{…}}`. Span objects carry
    /// `"index"` only when one was set. Disabled traces render as an
    /// empty object (callers normally don't render those at all).
    #[must_use]
    pub fn render_json(&self) -> String {
        let Some(inner) = self.inner.as_deref() else {
            return "{}".to_string();
        };
        let mut out = String::with_capacity(64 + 96 * inner.spans.len());
        out.push_str("{\"total_us\":");
        out.push_str(&self.total_us().to_string());
        out.push_str(",\"dropped\":");
        out.push_str(&inner.dropped.to_string());
        out.push_str(",\"spans\":[");
        for (i, s) in inner.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":\"");
            out.push_str(s.name);
            out.push('"');
            if s.index != NO_INDEX {
                out.push_str(",\"index\":");
                out.push_str(&s.index.to_string());
            }
            out.push_str(",\"depth\":");
            out.push_str(&s.depth.to_string());
            out.push_str(",\"start_us\":");
            out.push_str(&s.start_us.to_string());
            out.push_str(",\"dur_us\":");
            out.push_str(&s.dur_us.to_string());
            out.push('}');
        }
        out.push_str("],\"notes\":{");
        for (i, (name, value)) in inner.notes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(name);
            out.push_str("\":");
            out.push_str(&value.to_string());
        }
        out.push_str("}}");
        out
    }
}

fn offset_us(epoch: Instant, at: Instant) -> u64 {
    duration_us(at.saturating_duration_since(epoch))
}

fn duration_us(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_records_nothing_and_renders_empty() {
        let mut t = Trace::disabled();
        assert!(!t.is_enabled());
        let g = t.begin("stage");
        t.end(g);
        t.note("n", 7);
        t.record("x", 3, Instant::now(), Duration::from_millis(5));
        assert!(t.spans().is_empty());
        assert!(t.notes().is_empty());
        assert_eq!(t.total_us(), 0);
        assert_eq!(t.dropped(), 0);
        assert_eq!(t.render_json(), "{}");
    }

    #[test]
    fn spans_nest_and_close_with_monotone_offsets() {
        let mut t = Trace::enabled();
        let outer = t.begin("request");
        let inner = t.begin("stage1");
        std::thread::sleep(Duration::from_millis(2));
        t.end(inner);
        let inner2 = t.begin_indexed("shard", 3);
        t.end(inner2);
        t.end(outer);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].name, "request");
        assert_eq!(spans[0].depth, 0);
        assert_eq!(spans[1].depth, 1);
        assert_eq!(spans[1].name, "stage1");
        assert!(spans[1].dur_us >= 1_000, "slept 2ms: {}", spans[1].dur_us);
        assert_eq!(spans[2].index, 3);
        // The parent covers its children.
        assert!(spans[0].dur_us >= spans[1].dur_us + spans[2].dur_us);
        assert!(spans[1].start_us >= spans[0].start_us);
        assert!(t.total_us() >= spans[0].dur_us);
    }

    #[test]
    fn out_of_order_end_closes_only_the_named_span() {
        let mut t = Trace::enabled();
        let a = t.begin("a");
        let b = t.begin("b");
        t.end(a); // out of order: b stays open
        let spans = t.spans();
        assert_eq!(spans[0].name, "a");
        // A third span still opens at b's depth (b is still on the stack).
        let c = t.begin("c");
        t.end(c);
        t.end(b);
        assert_eq!(t.spans()[2].depth, 1);
    }

    #[test]
    fn span_count_and_depth_are_bounded() {
        let mut t = Trace::enabled();
        let mut guards = Vec::new();
        for _ in 0..MAX_DEPTH + 4 {
            guards.push(t.begin("deep"));
        }
        assert_eq!(t.spans().len(), MAX_DEPTH);
        assert_eq!(t.dropped(), 4);
        for g in guards.into_iter().rev() {
            t.end(g);
        }
        for _ in 0..MAX_SPANS {
            let g = t.begin("flat");
            t.end(g);
        }
        assert_eq!(t.spans().len(), MAX_SPANS);
        assert!(t.dropped() > 4, "overflow spans are counted");
        // Notes are bounded too.
        for _ in 0..MAX_SPANS + 2 {
            t.note("n", 1);
        }
        assert_eq!(t.notes().len(), MAX_SPANS);
    }

    #[test]
    fn scope_and_record_and_notes_land_in_json() {
        let mut t = Trace::enabled();
        let sum = t.scope("work", |t| {
            t.note("items", 42);
            1 + 1
        });
        assert_eq!(sum, 2);
        let started = Instant::now();
        t.record("rtt", 2, started, Duration::from_micros(123));
        let json = t.render_json();
        assert!(json.contains("\"name\":\"work\""), "{json}");
        assert!(json.contains("\"name\":\"rtt\""), "{json}");
        assert!(json.contains("\"index\":2"), "{json}");
        assert!(json.contains("\"dur_us\":123"), "{json}");
        assert!(json.contains("\"notes\":{\"items\":42}"), "{json}");
        assert!(json.contains("\"dropped\":0"), "{json}");
        // The rendered trace must be valid JSON in the workspace's own
        // parser's eyes — checked end to end by the server tests; here
        // at least balance the braces.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
    }

    #[test]
    fn record_clamps_pre_epoch_starts() {
        let early = Instant::now();
        std::thread::sleep(Duration::from_millis(1));
        let mut t = Trace::enabled();
        t.record("before", NO_INDEX, early, Duration::from_micros(10));
        assert_eq!(t.spans()[0].start_us, 0);
    }

    #[test]
    fn enabled_at_back_dates_the_epoch() {
        let early = Instant::now();
        std::thread::sleep(Duration::from_millis(2));
        let epoch = Instant::now();
        std::thread::sleep(Duration::from_millis(2));
        let mut t = Trace::enabled_at(epoch);
        // The stage that ran before the trace existed starts it.
        t.record("parse", NO_INDEX, epoch, Duration::from_micros(10));
        // A start before the epoch still clamps.
        t.record("before", NO_INDEX, early, Duration::from_micros(10));
        let live = t.begin("after");
        t.end(live);
        let starts: Vec<u64> = t.spans().iter().map(|s| s.start_us).collect();
        assert_eq!(starts[..2], [0, 0]);
        assert!(
            starts[2] >= 2_000,
            "offsets count from the epoch: {starts:?}"
        );
        assert!(t.total_us() >= 2_000);
    }
}
