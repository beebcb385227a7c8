//! The `GET /metrics` surface: every [`ServerStats`] counter, the cache
//! and refresher gauges, and the query latency histogram rendered in
//! Prometheus text exposition format (version 0.0.4) via
//! [`sketch_obs::promtext`].
//!
//! All families share the `sketch_` prefix. The single-store server and
//! the coordinator expose the same common families (requests, errors,
//! cache, latency, plan totals); the server adds corpus gauges
//! (`sketch_generation`, `sketch_store_generation`,
//! `sketch_generation_lag`, `sketch_sketches`), the coordinator adds
//! per-shard gauges (`sketch_shard_healthy{shard="i"}`, …). Rendering
//! reads relaxed atomics only — a scrape never touches a lock the query
//! path contends on (the one exception is the cache's own mutex, for
//! the entry/eviction gauges).

use std::sync::atomic::Ordering;

use sketch_obs::promtext;

use crate::stats::ServerStats;

/// One worker shard's last-known state, as the coordinator keeps and
/// exposes it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ShardView {
    pub generation: u64,
    pub sketches: u64,
    pub healthy: bool,
}

fn counter(out: &mut String, name: &str, help: &str, value: u64) {
    promtext::push_family(out, name, "counter", help);
    promtext::push_sample_u64(out, name, &[], value);
}

fn gauge(out: &mut String, name: &str, help: &str, value: u64) {
    promtext::push_family(out, name, "gauge", help);
    promtext::push_sample_u64(out, name, &[], value);
}

/// The families both front ends share.
fn push_common(out: &mut String, stats: &ServerStats, cache_entries: u64, cache_evictions: u64) {
    let load = |c: &std::sync::atomic::AtomicU64| c.load(Ordering::Relaxed);

    promtext::push_family(
        out,
        "sketch_requests_total",
        "counter",
        "Requests routed, by endpoint.",
    );
    for (endpoint, c) in [
        ("query", &stats.query),
        ("query_batch", &stats.query_batch),
        ("shard", &stats.shard),
        ("corpus", &stats.corpus),
        ("healthz", &stats.healthz),
        ("stats", &stats.stats),
        ("metrics", &stats.metrics),
    ] {
        promtext::push_sample_u64(
            out,
            "sketch_requests_total",
            &[("endpoint", endpoint)],
            load(c),
        );
    }
    counter(
        out,
        "sketch_errors_total",
        "Responses with a non-2xx status.",
        load(&stats.errors),
    );
    counter(
        out,
        "sketch_batched_queries_total",
        "Individual queries inside /query_batch requests.",
        load(&stats.batched_queries),
    );
    counter(
        out,
        "sketch_degraded_responses_total",
        "Responses served with at least one degraded shard.",
        load(&stats.degraded),
    );
    counter(
        out,
        "sketch_traced_requests_total",
        "Requests that asked for a span trace.",
        load(&stats.traced),
    );
    counter(
        out,
        "sketch_slow_queries_total",
        "Requests at or over the slow-query threshold.",
        load(&stats.slow_queries),
    );

    counter(
        out,
        "sketch_cache_hits_total",
        "Query-cache hits.",
        load(&stats.cache_hits),
    );
    counter(
        out,
        "sketch_cache_misses_total",
        "Query-cache misses.",
        load(&stats.cache_misses),
    );
    counter(
        out,
        "sketch_cache_evictions_total",
        "Query-cache entries evicted by capacity or byte-budget pressure.",
        cache_evictions,
    );
    gauge(
        out,
        "sketch_cache_entries",
        "Query-cache entries currently resident.",
        cache_entries,
    );

    counter(
        out,
        "sketch_refreshes_total",
        "Incremental snapshot refreshes (generation observations on the coordinator).",
        load(&stats.refreshes),
    );
    counter(
        out,
        "sketch_rebuilds_total",
        "Full index rebuilds after a compaction.",
        load(&stats.rebuilds),
    );

    counter(
        out,
        "sketch_plan_candidates_total",
        "Planner: candidates that survived retrieval and join.",
        load(&stats.plan_candidates),
    );
    counter(
        out,
        "sketch_plan_cheap_invocations_total",
        "Planner: pass-1 (Pearson) estimator invocations.",
        load(&stats.plan_cheap_invocations),
    );
    counter(
        out,
        "sketch_plan_expensive_invocations_total",
        "Planner: requested-estimator invocations.",
        load(&stats.plan_expensive_invocations),
    );
    counter(
        out,
        "sketch_plan_pruned_total",
        "Planner: candidates pruned without the expensive estimator.",
        load(&stats.plan_pruned),
    );
    counter(
        out,
        "sketch_plan_promotion_rounds_total",
        "Planner: promotion fixed-point rounds.",
        load(&stats.plan_promotion_rounds),
    );

    promtext::push_family(
        out,
        "sketch_query_latency_seconds",
        "histogram",
        "Answered /query and /query_batch latency.",
    );
    promtext::push_log2_us_histogram(
        out,
        "sketch_query_latency_seconds",
        &[],
        &stats.latency.snapshot(),
        stats.latency.sum_us(),
    );

    gauge(
        out,
        "sketch_uptime_seconds",
        "Whole seconds since this process started.",
        stats.uptime_s(),
    );
    gauge(
        out,
        "sketch_started_time_seconds",
        "Unix time this process started, seconds.",
        stats.started_unix,
    );
}

/// Render the single-store server's `/metrics` body.
pub(crate) fn render_server(
    stats: &ServerStats,
    generation: u64,
    sketches: u64,
    cache_entries: u64,
    cache_evictions: u64,
) -> String {
    let mut out = String::with_capacity(4096);
    push_common(&mut out, stats, cache_entries, cache_evictions);
    gauge(
        &mut out,
        "sketch_generation",
        "Store generation currently served.",
        generation,
    );
    let store_generation = stats.store_generation.load(Ordering::Relaxed);
    gauge(
        &mut out,
        "sketch_store_generation",
        "Store generation the refresher last observed on disk.",
        store_generation,
    );
    gauge(
        &mut out,
        "sketch_generation_lag",
        "Generations the served snapshot trails the on-disk store.",
        store_generation.saturating_sub(generation),
    );
    gauge(
        &mut out,
        "sketch_sketches",
        "Live sketches in the served snapshot.",
        sketches,
    );
    out
}

/// Render the coordinator's `/metrics` body: the common families plus
/// one gauge sample per shard.
pub(crate) fn render_coordinator(
    stats: &ServerStats,
    shards: &[ShardView],
    cache_entries: u64,
    cache_evictions: u64,
) -> String {
    let mut out = String::with_capacity(4096 + shards.len() * 256);
    push_common(&mut out, stats, cache_entries, cache_evictions);
    gauge(
        &mut out,
        "sketch_shards",
        "Worker shards this coordinator fans out over.",
        shards.len() as u64,
    );
    let labels: Vec<String> = (0..shards.len()).map(|i| i.to_string()).collect();
    promtext::push_family(
        &mut out,
        "sketch_shard_healthy",
        "gauge",
        "1 when the shard answered its last probe or call, else 0.",
    );
    for (i, s) in shards.iter().enumerate() {
        promtext::push_sample_u64(
            &mut out,
            "sketch_shard_healthy",
            &[("shard", &labels[i])],
            u64::from(s.healthy),
        );
    }
    promtext::push_family(
        &mut out,
        "sketch_shard_generation",
        "gauge",
        "Last-known store generation of the shard.",
    );
    for (i, s) in shards.iter().enumerate() {
        promtext::push_sample_u64(
            &mut out,
            "sketch_shard_generation",
            &[("shard", &labels[i])],
            s.generation,
        );
    }
    promtext::push_family(
        &mut out,
        "sketch_shard_sketches",
        "gauge",
        "Last-known live sketch count of the shard.",
    );
    for (i, s) in shards.iter().enumerate() {
        promtext::push_sample_u64(
            &mut out,
            "sketch_shard_sketches",
            &[("shard", &labels[i])],
            s.sketches,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn server_metrics_render_every_family_once() {
        let stats = ServerStats::default();
        ServerStats::bump(&stats.query);
        stats.latency.record_us(1500);
        let body = render_server(&stats, 4, 100, 7, 2);
        for family in [
            "sketch_requests_total",
            "sketch_errors_total",
            "sketch_cache_hits_total",
            "sketch_cache_evictions_total",
            "sketch_cache_entries",
            "sketch_plan_pruned_total",
            "sketch_query_latency_seconds",
            "sketch_generation",
            "sketch_store_generation",
            "sketch_generation_lag",
            "sketch_sketches",
            "sketch_uptime_seconds",
        ] {
            assert_eq!(
                body.matches(&format!("# HELP {family} ")).count(),
                1,
                "{family}"
            );
            assert_eq!(
                body.matches(&format!("# TYPE {family} ")).count(),
                1,
                "{family}"
            );
        }
        assert!(body.contains("sketch_requests_total{endpoint=\"query\"} 1\n"));
        assert!(body.contains("sketch_generation 4\n"));
        assert!(body.contains("sketch_sketches 100\n"));
        assert!(body.contains("sketch_cache_entries 7\n"));
        assert!(body.contains("sketch_cache_evictions_total 2\n"));
        assert!(body.contains("sketch_query_latency_seconds_count 1\n"));
        assert!(body.contains("sketch_query_latency_seconds_bucket{le=\"+Inf\"} 1\n"));
    }

    /// Prometheus reads `le` as an inclusive bound: every bucket line
    /// counts exactly the samples at or below it, edges included.
    #[test]
    fn latency_buckets_count_the_samples_at_or_below_le() {
        let stats = ServerStats::default();
        let samples_us = [0u64, 1, 2, 3, 4, 1023, 1024, 1025];
        for us in samples_us {
            stats.latency.record_us(us);
        }
        let body = render_server(&stats, 0, 0, 0, 0);
        let prefix = "sketch_query_latency_seconds_bucket{le=\"";
        let mut buckets = 0;
        for line in body.lines().filter_map(|l| l.strip_prefix(prefix)) {
            let (le, count) = line.split_once("\"} ").unwrap();
            let count: usize = count.parse().unwrap();
            let want = if le == "+Inf" {
                samples_us.len()
            } else {
                let le_s: f64 = le.parse().unwrap();
                samples_us
                    .iter()
                    .filter(|&&us| us as f64 / 1e6 <= le_s)
                    .count()
            };
            assert_eq!(count, want, "le={le}");
            buckets += 1;
        }
        assert_eq!(buckets, crate::stats::BUCKETS);
    }

    #[test]
    fn generation_lag_is_disk_minus_served_floored_at_zero() {
        let stats = ServerStats::default();
        stats.store_generation.store(9, Ordering::Relaxed);
        let body = render_server(&stats, 7, 0, 0, 0);
        assert!(body.contains("sketch_generation_lag 2\n"), "{body}");
        // Startup order can briefly leave the observed disk generation
        // behind the served one; lag must clamp, not wrap.
        let body = render_server(&stats, 11, 0, 0, 0);
        assert!(body.contains("sketch_generation_lag 0\n"));
    }

    #[test]
    fn coordinator_metrics_carry_per_shard_gauges() {
        let stats = ServerStats::default();
        let shards = [
            ShardView {
                generation: 3,
                sketches: 40,
                healthy: true,
            },
            ShardView {
                generation: 2,
                sketches: 41,
                healthy: false,
            },
        ];
        let body = render_coordinator(&stats, &shards, 0, 0);
        assert!(body.contains("sketch_shards 2\n"));
        assert!(body.contains("sketch_shard_healthy{shard=\"0\"} 1\n"));
        assert!(body.contains("sketch_shard_healthy{shard=\"1\"} 0\n"));
        assert!(body.contains("sketch_shard_generation{shard=\"1\"} 2\n"));
        assert!(body.contains("sketch_shard_sketches{shard=\"0\"} 40\n"));
        // No single-store gauges on a coordinator scrape.
        assert!(!body.contains("# HELP sketch_generation "));
        assert!(!body.contains("sketch_generation_lag"));
    }
}
