//! Lock-free server counters and a log-bucketed latency histogram.
//!
//! Everything is `AtomicU64` with relaxed ordering — the stats endpoint
//! is observability, not accounting, and must never contend with the
//! query hot path. The histogram buckets latencies by power-of-two
//! microseconds (bucket 0 holds 0 µs; bucket `i ≥ 1` covers
//! `[2^(i-1), 2^i)` µs), which is accurate to within ~50% per sample
//! across nine decades — plenty for p50/p95/p99 reporting.

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

/// All server counters, shared by the workers, the refresher, and the
/// `/stats` endpoint.
#[derive(Debug)]
pub struct ServerStats {
    /// Monotonic start instant, for `uptime_s`.
    pub started: Instant,
    /// Wall-clock start as a unix timestamp (seconds), so scrapers can
    /// align counter resets across restarts.
    pub started_unix: u64,
    /// Requests that reached routing (any endpoint, any status).
    pub requests: AtomicU64,
    /// `POST /query` requests.
    pub query: AtomicU64,
    /// Internal shard endpoints (`/shard_query`, `/shard_reports`)
    /// served for a coordinator.
    pub shard: AtomicU64,
    /// `GET /corpus` requests.
    pub corpus: AtomicU64,
    /// `GET /healthz` requests.
    pub healthz: AtomicU64,
    /// `GET /stats` requests.
    pub stats: AtomicU64,
    /// `GET /metrics` scrapes.
    pub metrics: AtomicU64,
    /// Responses with a non-2xx status.
    pub errors: AtomicU64,
    /// Coordinator responses served with at least one degraded shard
    /// (always 0 on a single-store server).
    pub degraded: AtomicU64,
    /// Query-cache hits.
    pub cache_hits: AtomicU64,
    /// Query-cache misses.
    pub cache_misses: AtomicU64,
    /// Incremental snapshot refreshes applied by the background poller.
    pub refreshes: AtomicU64,
    /// Full index rebuilds (post-compaction `StaleGeneration`).
    pub rebuilds: AtomicU64,
    /// Refresh attempts that failed (an error or a caught panic); the
    /// refresher retries on every poll, so a stuck store counts up.
    pub refresh_failures: AtomicU64,
    /// The store generation the refresher last observed on disk; with
    /// [`Self::store_generation`] ≥ served generation always, the
    /// difference is the refresher's generation lag.
    pub store_generation: AtomicU64,
    /// Requests that carried `"trace": true`.
    pub traced: AtomicU64,
    /// Requests at or over the slow-query threshold (0 when no
    /// threshold is armed).
    pub slow_queries: AtomicU64,
    /// Planner totals across answered queries: candidates that survived
    /// retrieval + join.
    pub plan_candidates: AtomicU64,
    /// Planner totals: cheap (pass-1 Pearson) estimator invocations.
    pub plan_cheap_invocations: AtomicU64,
    /// Planner totals: requested-estimator invocations (the contested
    /// band on the two-pass plan, every admitted candidate otherwise).
    pub plan_expensive_invocations: AtomicU64,
    /// Planner totals: candidates pruned without the expensive
    /// estimator.
    pub plan_pruned: AtomicU64,
    /// Planner totals: promotion fixed-point rounds.
    pub plan_promotion_rounds: AtomicU64,
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
            requests: AtomicU64::new(0),
            query: AtomicU64::new(0),
            shard: AtomicU64::new(0),
            corpus: AtomicU64::new(0),
            healthz: AtomicU64::new(0),
            stats: AtomicU64::new(0),
            metrics: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            refreshes: AtomicU64::new(0),
            rebuilds: AtomicU64::new(0),
            refresh_failures: AtomicU64::new(0),
            store_generation: AtomicU64::new(0),
            traced: AtomicU64::new(0),
            slow_queries: AtomicU64::new(0),
            plan_candidates: AtomicU64::new(0),
            plan_cheap_invocations: AtomicU64::new(0),
            plan_expensive_invocations: AtomicU64::new(0),
            plan_pruned: AtomicU64::new(0),
            plan_promotion_rounds: AtomicU64::new(0),
            latency: LatencyHistogram::default(),
        }
    }
}

impl ServerStats {
    /// Bump a counter by one.
    pub(crate) fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Whole seconds since the server started.
    #[must_use]
    pub(crate) fn uptime_s(&self) -> u64 {
        self.started.elapsed().as_secs()
    }

    /// Fold one answered query's planner statistics into the totals.
    pub(crate) fn absorb_plan(&self, plan: &sketch_index::PlanStats) {
        self.plan_candidates
            .fetch_add(plan.candidates as u64, Ordering::Relaxed);
        self.plan_cheap_invocations
            .fetch_add(plan.cheap_invocations as u64, Ordering::Relaxed);
        self.plan_expensive_invocations
            .fetch_add(plan.expensive_invocations as u64, Ordering::Relaxed);
        self.plan_pruned
            .fetch_add(plan.pruned as u64, Ordering::Relaxed);
        self.plan_promotion_rounds
            .fetch_add(plan.promotion_rounds as u64, Ordering::Relaxed);
    }

    /// Render the `/stats` payload: counters plus histogram percentiles,
    /// with `cached` (current cache entry count) and `generation` passed
    /// in by the caller.
    #[must_use]
    pub(crate) fn to_json(&self, generation: u64, cached: usize) -> String {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let counts = self.latency.snapshot();
        let served: u64 = counts.iter().sum();
        format!(
            "{{\"generation\":{generation},\"uptime_s\":{},\"started_unix\":{},\
             \"requests\":{},\"query\":{},\"shard\":{},\"corpus\":{},\
             \"healthz\":{},\"stats\":{},\"errors\":{},\"degraded\":{},\
             \"cache_hits\":{},\"cache_misses\":{},\"cache_entries\":{cached},\
             \"refreshes\":{},\"rebuilds\":{},\"latency\":{{\"count\":{served},\
             \"p50_ms\":{:.4},\"p95_ms\":{:.4},\"p99_ms\":{:.4},\
             \"min_ms\":{:.4},\"max_ms\":{:.4}}}}}",
            self.uptime_s(),
            self.started_unix,
            load(&self.requests),
            load(&self.query),
            load(&self.shard),
            load(&self.corpus),
            load(&self.healthz),
            load(&self.stats),
            load(&self.errors),
            load(&self.degraded),
            load(&self.cache_hits),
            load(&self.cache_misses),
            load(&self.refreshes),
            load(&self.rebuilds),
            LatencyHistogram::percentile_ms(&counts, 50.0),
            LatencyHistogram::percentile_ms(&counts, 95.0),
            LatencyHistogram::percentile_ms(&counts, 99.0),
            self.latency.min_us().unwrap_or(0) as f64 / 1000.0,
            self.latency.max_us().unwrap_or(0) as f64 / 1000.0,
        )
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
        ServerStats::bump(&s.requests);
        ServerStats::bump(&s.query);
        ServerStats::bump(&s.cache_hits);
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
