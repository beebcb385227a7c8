//! The server's counters, one table behind `/stats` and `/metrics`, and
//! a log-bucketed latency histogram.
//!
//! Each counter is a row of [`COUNTERS`]: a [`Counter`] variant, its
//! `/stats` key and its `/metrics` family. Both endpoints render the
//! table in one loop, so both carry every counter, and a new counter
//! takes one row plus the line that bumps it. The counters are one array
//! of `AtomicU64`, bumped with relaxed ordering: observability, not
//! accounting, never contending with the query hot path. The histogram
//! buckets latencies by power-of-two microseconds (bucket 0 holds 0 µs;
//! bucket `i ≥ 1` covers `[2^(i-1), 2^i)` µs), which is accurate to
//! within ~50% per sample across nine decades — plenty for p50/p95/p99.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Number of log2 histogram buckets: covers up to ~2^40 µs ≈ 12 days.
pub(crate) const BUCKETS: usize = 40;

/// A latency histogram with power-of-two microsecond buckets, plus
/// exact sum/min/max — the log2 buckets alone are accurate to ~50% per
/// sample, and the saturation clamp would silently hide the true
/// worst-case latency from `/stats` and the load-harness reports.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    sum_us: AtomicU64,
    min_us: AtomicU64,
    max_us: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_us: AtomicU64::new(0),
            min_us: AtomicU64::new(u64::MAX),
            max_us: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    /// Record one latency in microseconds.
    pub(crate) fn record_us(&self, us: u64) {
        let bucket = (64 - us.leading_zeros() as usize).min(BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.min_us.fetch_min(us, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// Copy out the bucket counts.
    #[must_use]
    pub(crate) fn snapshot(&self) -> [u64; BUCKETS] {
        let mut out = [0u64; BUCKETS];
        for (o, b) in out.iter_mut().zip(&self.buckets) {
            *o = b.load(Ordering::Relaxed);
        }
        out
    }

    /// Exact sum of every recorded latency, µs.
    #[must_use]
    pub(crate) fn sum_us(&self) -> u64 {
        self.sum_us.load(Ordering::Relaxed)
    }

    /// Exact smallest recorded latency, µs (`None` before any sample).
    #[must_use]
    fn min_us(&self) -> Option<u64> {
        let v = self.min_us.load(Ordering::Relaxed);
        (v != u64::MAX).then_some(v)
    }

    /// Exact largest recorded latency, µs (`None` before any sample —
    /// distinguishable from a genuine 0 µs fastest-path sample).
    #[must_use]
    fn max_us(&self) -> Option<u64> {
        self.min_us().map(|_| self.max_us.load(Ordering::Relaxed))
    }

    /// Estimate the `p`-th percentile (0–100, clamped) in milliseconds
    /// from a snapshot: the geometric midpoint of the bucket containing
    /// the rank. Returns 0.0 for an empty histogram.
    ///
    /// The last bucket is the *saturation* bucket — every duration at or
    /// beyond `2^(BUCKETS-2)` µs is clamped into it, so its upper edge
    /// is unbounded. A percentile landing there reports the bucket's
    /// lower bound (the clamp value, the largest latency the histogram
    /// can resolve) rather than a fabricated midpoint above it.
    #[must_use]
    fn percentile_ms(counts: &[u64; BUCKETS], p: f64) -> f64 {
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let rank = ((p.clamp(0.0, 100.0) / 100.0) * total as f64)
            .ceil()
            .max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Bucket 0 holds 0 µs; bucket i≥1 covers [2^(i-1), 2^i) µs.
                let low = if i == 0 {
                    0.0
                } else {
                    (1u64 << (i - 1)) as f64
                };
                if i == BUCKETS - 1 {
                    return low / 1000.0;
                }
                let high = (1u64 << i) as f64;
                return (low + high) / 2.0 / 1000.0;
            }
        }
        f64::from(u32::MAX) // unreachable: ranks are <= total
    }
}

/// A counter's Prometheus family.
#[derive(Debug)]
pub struct Family {
    /// Family name, `sketch_`-prefixed.
    pub name: &'static str,
    /// HELP text: what the family counts.
    pub help: &'static str,
    /// For a family several counters share, the label that tells their
    /// samples apart, valued with each counter's `/stats` key.
    pub label: Option<&'static str>,
}

/// `sketch_requests_total{endpoint="…"}`, one sample per endpoint.
const BY_ENDPOINT: Family = Family {
    name: "sketch_requests_total",
    help: "Requests routed, by endpoint.",
    label: Some("endpoint"),
};

/// One counter's `/stats` key and `/metrics` family.
#[derive(Debug)]
pub struct Row {
    /// Key in the `/stats` object.
    pub key: &'static str,
    /// Family in the `/metrics` exposition.
    pub family: Family,
}

/// Declares [`Counter`] and [`COUNTERS`] from one list of rows. A row
/// names a shared family, or gives its own family's name and HELP text.
macro_rules! counters {
    (@family $shared:ident) => { $shared };
    (@family $name:literal, $help:literal) => { Family { name: $name, help: $help, label: None } };
    ($($variant:ident => $key:literal, $($family:tt),+;)*) => {
        /// A server counter: a slot of [`ServerStats`] and the row of
        /// [`COUNTERS`] at its index, whose HELP text says what it counts.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[allow(missing_docs)]
        pub enum Counter {
            $($variant,)*
        }

        /// The table both `/stats` and `/metrics` render, in `/stats` order.
        pub static COUNTERS: [Row; COUNT] =
            [$(Row { key: $key, family: counters!(@family $($family),+) },)*];

        const COUNT: usize = [$($key),*].len();
    };
}

counters! {
    Requests => "requests", "sketch_routed_requests_total", "Requests answered, any path and any status.";
    Query => "query", BY_ENDPOINT;
    Shard => "shard", BY_ENDPOINT;
    Corpus => "corpus", BY_ENDPOINT;
    Healthz => "healthz", BY_ENDPOINT;
    Stats => "stats", BY_ENDPOINT;
    Errors => "errors", "sketch_errors_total", "Responses with a non-2xx status.";
    Degraded => "degraded", "sketch_degraded_responses_total", "Responses served with at least one degraded shard.";
    CacheHits => "cache_hits", "sketch_cache_hits_total", "Query-cache hits.";
    CacheMisses => "cache_misses", "sketch_cache_misses_total", "Query-cache misses.";
    Refreshes => "refreshes", "sketch_refreshes_total", "Incremental snapshot refreshes (generation observations on the coordinator).";
    Rebuilds => "rebuilds", "sketch_rebuilds_total", "Full index rebuilds after a compaction.";
    Metrics => "metrics", BY_ENDPOINT;
    Traced => "traced", "sketch_traced_requests_total", "Requests that asked for a span trace.";
    SlowQueries => "slow_queries", "sketch_slow_queries_total", "Requests at or over the slow-query threshold.";
    RefreshFailures => "refresh_failures", "sketch_refresh_failures_total", "Snapshot refresh attempts that failed (each poll retries).";
    PlanCandidates => "plan_candidates", "sketch_plan_candidates_total", "Planner: candidates that survived retrieval and join.";
    PlanCheapInvocations => "plan_cheap_invocations", "sketch_plan_cheap_invocations_total", "Planner: pass-1 (Pearson) estimator invocations.";
    PlanExpensiveInvocations => "plan_expensive_invocations", "sketch_plan_expensive_invocations_total", "Planner: requested-estimator invocations.";
    PlanPruned => "plan_pruned", "sketch_plan_pruned_total", "Planner: candidates pruned without the expensive estimator.";
    PlanPromotionRounds => "plan_promotion_rounds", "sketch_plan_promotion_rounds_total", "Planner: promotion fixed-point rounds.";
}

/// `/stats` keeps its key order from before the table: the
/// `cache_entries` gauge goes before the row at `CACHE_ENTRIES_AT`, the
/// `latency` block before the row at `LATENCY_AT`, the first counter
/// `/stats` gained.
const CACHE_ENTRIES_AT: usize = Counter::Refreshes as usize;
const LATENCY_AT: usize = Counter::Metrics as usize;

/// The server's counters and gauges, shared by the workers, the
/// refresher, and the `/stats` and `/metrics` endpoints.
#[derive(Debug)]
pub struct ServerStats {
    /// Monotonic start instant, for `uptime_s`.
    pub started: Instant,
    /// Wall-clock start as a unix timestamp (seconds), so scrapers can
    /// align counter resets across restarts.
    pub started_unix: u64,
    /// One slot per [`Counter`].
    counters: [AtomicU64; COUNT],
    /// The store generation the refresher last observed on disk; with
    /// [`Self::store_generation`] ≥ served generation always, the
    /// difference is the refresher's generation lag.
    pub store_generation: AtomicU64,
    /// `/query` latency histogram (cache hits included).
    pub latency: LatencyHistogram,
}

impl Default for ServerStats {
    fn default() -> Self {
        Self {
            started: Instant::now(),
            started_unix: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_or(0, |d| d.as_secs()),
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            store_generation: AtomicU64::new(0),
            latency: LatencyHistogram::default(),
        }
    }
}

impl ServerStats {
    /// Bump a counter by one.
    #[inline]
    pub(crate) fn bump(&self, counter: Counter) {
        self.counters[counter as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// A counter's current value.
    #[must_use]
    pub fn get(&self, counter: Counter) -> u64 {
        self.counters[counter as usize].load(Ordering::Relaxed)
    }

    /// Every counter's row and current value, in table order.
    pub(crate) fn counters(&self) -> impl Iterator<Item = (&'static Row, u64)> + '_ {
        COUNTERS
            .iter()
            .zip(&self.counters)
            .map(|(row, c)| (row, c.load(Ordering::Relaxed)))
    }

    /// Whole seconds since the server started.
    #[must_use]
    pub(crate) fn uptime_s(&self) -> u64 {
        self.started.elapsed().as_secs()
    }

    /// Fold one answered query's planner statistics into the totals.
    pub(crate) fn absorb_plan(&self, plan: &sketch_index::PlanStats) {
        for (counter, n) in [
            (Counter::PlanCandidates, plan.candidates),
            (Counter::PlanCheapInvocations, plan.cheap_invocations),
            (
                Counter::PlanExpensiveInvocations,
                plan.expensive_invocations,
            ),
            (Counter::PlanPruned, plan.pruned),
            (Counter::PlanPromotionRounds, plan.promotion_rounds),
        ] {
            self.counters[counter as usize].fetch_add(n as u64, Ordering::Relaxed);
        }
    }

    /// Render the `/stats` payload: every counter plus histogram
    /// percentiles, with `cached` (current cache entry count) and
    /// `generation` passed in by the caller.
    #[must_use]
    pub(crate) fn to_json(&self, generation: u64, cached: usize) -> String {
        let counts = self.latency.snapshot();
        let served: u64 = counts.iter().sum();
        let mut out = format!(
            "{{\"generation\":{generation},\"uptime_s\":{},\"started_unix\":{}",
            self.uptime_s(),
            self.started_unix,
        );
        for (i, (row, value)) in self.counters().enumerate() {
            if i == CACHE_ENTRIES_AT {
                let _ = write!(out, ",\"cache_entries\":{cached}");
            }
            if i == LATENCY_AT {
                let _ = write!(
                    out,
                    ",\"latency\":{{\"count\":{served},\"p50_ms\":{:.4},\"p95_ms\":{:.4},\
                     \"p99_ms\":{:.4},\"min_ms\":{:.4},\"max_ms\":{:.4}}}",
                    LatencyHistogram::percentile_ms(&counts, 50.0),
                    LatencyHistogram::percentile_ms(&counts, 95.0),
                    LatencyHistogram::percentile_ms(&counts, 99.0),
                    self.latency.min_us().unwrap_or(0) as f64 / 1000.0,
                    self.latency.max_us().unwrap_or(0) as f64 / 1000.0,
                );
            }
            let _ = write!(out, ",\"{}\":{value}", row.key);
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_log2_microseconds() {
        let h = LatencyHistogram::default();
        h.record_us(0); // bucket 0
        h.record_us(1); // bucket 1
        h.record_us(3); // bucket 2
        h.record_us(1000);
        h.record_us(u64::MAX); // clamped to the last bucket
        let counts = h.snapshot();
        assert_eq!(counts.iter().sum::<u64>(), 5);
        assert_eq!(counts[0], 1);
        assert_eq!(counts[1], 1);
        assert_eq!(counts[2], 1);
        assert_eq!(counts[BUCKETS - 1], 1);
    }

    #[test]
    fn percentiles_are_monotone_and_bracket_the_data() {
        let h = LatencyHistogram::default();
        for _ in 0..90 {
            h.record_us(100); // ~0.1 ms
        }
        for _ in 0..10 {
            h.record_us(50_000); // ~50 ms
        }
        let counts = h.snapshot();
        let p50 = LatencyHistogram::percentile_ms(&counts, 50.0);
        let p95 = LatencyHistogram::percentile_ms(&counts, 95.0);
        let p99 = LatencyHistogram::percentile_ms(&counts, 99.0);
        assert!(p50 < 1.0, "p50={p50}");
        assert!(p95 > 10.0, "p95={p95}");
        assert!(p50 <= p95 && p95 <= p99);
        assert_eq!(LatencyHistogram::percentile_ms(&[0; BUCKETS], 50.0), 0.0);
    }

    #[test]
    fn saturated_bucket_reports_the_clamp_not_a_midpoint() {
        // Every recorded duration is far beyond the last bucket's lower
        // edge: the percentile must report the clamp value 2^38 µs
        // (≈ 2.75e5 ms), not the fabricated midpoint (2^38 + 2^39)/2.
        let h = LatencyHistogram::default();
        for _ in 0..10 {
            h.record_us(u64::MAX);
        }
        let counts = h.snapshot();
        let clamp_ms = (1u64 << (BUCKETS - 2)) as f64 / 1000.0;
        for p in [50.0, 99.0, 100.0] {
            assert_eq!(LatencyHistogram::percentile_ms(&counts, p), clamp_ms);
        }
        // Out-of-range percentile requests clamp instead of scanning
        // past the histogram.
        assert_eq!(LatencyHistogram::percentile_ms(&counts, 150.0), clamp_ms);
        let h2 = LatencyHistogram::default();
        h2.record_us(100);
        let c2 = h2.snapshot();
        assert_eq!(
            LatencyHistogram::percentile_ms(&c2, -5.0),
            LatencyHistogram::percentile_ms(&c2, 0.0)
        );
    }

    #[test]
    fn stats_json_is_parseable() {
        let s = ServerStats::default();
        s.bump(Counter::Requests);
        s.bump(Counter::Query);
        s.bump(Counter::CacheHits);
        s.latency.record_us(250);
        let text = s.to_json(3, 7);
        let v = correlation_sketches::json::parse(&text).unwrap();
        let obj = v.as_object("stats").unwrap();
        assert_eq!(obj.get("generation").unwrap().as_u64("g").unwrap(), 3);
        assert_eq!(obj.get("requests").unwrap().as_u64("r").unwrap(), 1);
        assert_eq!(obj.get("cache_entries").unwrap().as_u64("c").unwrap(), 7);
        let lat = obj.get("latency").unwrap().as_object("latency").unwrap();
        assert_eq!(lat.get("count").unwrap().as_u64("n").unwrap(), 1);
        assert!(lat.get("p99_ms").unwrap().as_f64("p99").unwrap() > 0.0);
        assert_eq!(lat.get("min_ms").unwrap().as_f64("min").unwrap(), 0.25);
        assert_eq!(lat.get("max_ms").unwrap().as_f64("max").unwrap(), 0.25);
        assert!(obj.get("uptime_s").unwrap().as_u64("u").is_ok());
        assert!(obj.get("started_unix").unwrap().as_u64("s").unwrap() > 1_600_000_000);
    }

    /// `/stats` keeps every key it had before the table, in the same
    /// order, and gains the rest of the table after them. Each row has a
    /// key of its own, and a family of its own or a label in a shared one.
    #[test]
    fn stats_keeps_its_keys_and_the_table_names_each_counter_once() {
        let text = ServerStats::default().to_json(0, 0);
        let at = |key: &str| text.find(&format!("\"{key}\":")).unwrap();
        let kept: Vec<&str> = "generation uptime_s started_unix requests query shard corpus \
             healthz stats errors degraded cache_hits cache_misses cache_entries refreshes \
             rebuilds latency"
            .split_whitespace()
            .collect();
        assert!(kept.windows(2).all(|w| at(w[0]) < at(w[1])), "{text}");
        let end = text.find('}').unwrap();
        for row in COUNTERS.iter().filter(|r| !kept.contains(&r.key)) {
            assert!(at(row.key) > end, "{}: {text}", row.key);
        }
        for (i, row) in COUNTERS.iter().enumerate() {
            let (key, Family { name, label, .. }) = (row.key, &row.family);
            let unique = |o: &Row| o.key != key && (o.family.name != *name || label.is_some());
            assert!(COUNTERS[..i].iter().all(unique), "{key}");
        }
    }

    #[test]
    fn exact_min_max_sum_track_alongside_the_buckets() {
        let h = LatencyHistogram::default();
        assert_eq!(h.min_us(), None);
        assert_eq!(h.max_us(), None);
        assert_eq!(h.sum_us(), 0);
        h.record_us(700);
        h.record_us(3);
        h.record_us(90_000);
        assert_eq!(h.min_us(), Some(3));
        assert_eq!(h.max_us(), Some(90_000));
        assert_eq!(h.sum_us(), 90_703);
        // A genuine 0 µs sample is distinguishable from "no samples".
        let z = LatencyHistogram::default();
        z.record_us(0);
        assert_eq!(z.min_us(), Some(0));
        assert_eq!(z.max_us(), Some(0));
    }
}
