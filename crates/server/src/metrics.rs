//! The `GET /metrics` surface in Prometheus text exposition format
//! (version 0.0.4, via [`sketch_obs::promtext`]), all families
//! `sketch_`-prefixed: one family per family of the counter table
//! ([`crate::stats::COUNTERS`], which `/stats` renders too), the cache
//! gauges, the clock and the query latency histogram; then the
//! single-store server's corpus gauges (`sketch_generation`,
//! `sketch_store_generation`, `sketch_generation_lag`,
//! `sketch_sketches`) or the coordinator's per-shard ones
//! (`sketch_shard_healthy{shard="i"}`, …). Rendering reads relaxed
//! atomics only, except for the cache gauges, which take the cache's
//! own mutex.

use std::sync::atomic::Ordering;

use sketch_obs::promtext;

use crate::stats::{Family, ServerStats};

/// One worker shard's last-known state, as the coordinator keeps and
/// exposes it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ShardView {
    pub generation: u64,
    pub sketches: u64,
    pub healthy: bool,
}

fn gauge(out: &mut String, name: &str, help: &str, value: u64) {
    promtext::push_family(out, name, "gauge", help);
    promtext::push_sample_u64(out, name, &[], value);
}

/// The families both front ends share: one per family of the counter
/// table, then the cache's, the latency histogram and the clock.
fn push_common(out: &mut String, stats: &ServerStats, cache_entries: u64, cache_evictions: u64) {
    let counters: Vec<_> = stats.counters().collect();
    for (i, (row, _)) in counters.iter().enumerate() {
        let Family { name, help, label } = row.family;
        // A family several counters share renders whole at its first row.
        if counters[..i].iter().all(|(r, _)| r.family.name != name) {
            promtext::push_family(out, name, "counter", help);
            for (r, value) in counters[i..].iter().filter(|(r, _)| r.family.name == name) {
                let label = label.map(|l| (l, r.key));
                promtext::push_sample_u64(out, name, label.as_slice(), *value);
            }
        }
    }
    let evictions = "sketch_cache_evictions_total";
    let help = "Query-cache entries evicted by capacity or byte-budget pressure.";
    promtext::push_family(out, evictions, "counter", help);
    promtext::push_sample_u64(out, evictions, &[], cache_evictions);
    gauge(
        out,
        "sketch_cache_entries",
        "Query-cache entries currently resident.",
        cache_entries,
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
    let latency = "sketch_query_latency_seconds";
    promtext::push_family(out, latency, "histogram", "Answered /query latency.");
    let counts = stats.latency.snapshot();
    promtext::push_log2_us_histogram(out, latency, &[], &counts, stats.latency.sum_us());
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

/// A per-shard gauge family: name, HELP text and each shard's value.
type ShardGauge = (&'static str, &'static str, fn(&ShardView) -> u64);

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
    let per_shard: [ShardGauge; 3] = [
        (
            "sketch_shard_healthy",
            "1 when the shard answered its last probe or call, else 0.",
            |s| u64::from(s.healthy),
        ),
        (
            "sketch_shard_generation",
            "Last-known store generation of the shard.",
            |s| s.generation,
        ),
        (
            "sketch_shard_sketches",
            "Last-known live sketch count of the shard.",
            |s| s.sketches,
        ),
    ];
    for (name, help, value) in per_shard {
        promtext::push_family(&mut out, name, "gauge", help);
        for (i, s) in shards.iter().enumerate() {
            let shard = i.to_string();
            promtext::push_sample_u64(&mut out, name, &[("shard", &shard)], value(s));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Counter;

    #[test]
    fn server_metrics_render_every_family_once() {
        let stats = ServerStats::default();
        stats.bump(Counter::Query);
        stats.latency.record_us(1500);
        let body = render_server(&stats, 4, 100, 7, 2);
        for family in [
            "sketch_requests_total",
            "sketch_routed_requests_total",
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
        assert!(body.contains("sketch_routed_requests_total 0\n"));
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
