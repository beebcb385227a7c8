//! Observability contract tests:
//!
//! * **traced-vs-untraced byte identity** — adding `"trace":true` to a
//!   request must change nothing about the result payload: stripping
//!   the spliced trace object back out of a traced response yields the
//!   untraced response byte-for-byte, on the miss path, on the cache-hit
//!   path, for every scorer, both plan modes, against a single server
//!   and scatter-gather clusters at several shard counts (proptest over
//!   planted corpora);
//! * **span accounting** — the depth-0 span durations of a traced
//!   `/query` sum to no more than the request total;
//! * **/metrics scrape conformance** — the Prometheus text exposition
//!   parses line by line (HELP/TYPE/sample grammar, `sketch_`-prefixed
//!   identifiers, quoted label values), each family's TYPE appears
//!   exactly once, and the latency histogram's cumulative buckets are
//!   monotone with the `+Inf` bucket equal to `_count`;
//! * **coordinator /metrics** — per-shard health/generation gauges, with
//!   a killed worker visible as `sketch_shard_healthy{shard="…"} 0`;
//! * **slow-query log** — a server with a zero threshold traces every
//!   request internally and counts it slow, while its response bytes
//!   stay identical to a server that never traces.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use proptest::prelude::*;
use sketch_datagen::{generate_planted, PlantedConfig};
use sketch_server::{
    CoordinatorConfig, CoordinatorHandle, Counter, HttpClient, ServerConfig, ServerHandle,
};
use sketch_store::{pack_corpus, PackOptions};
use sketch_table::ColumnPair;

use correlation_sketches::{SketchBuilder, SketchConfig};

static CASE: AtomicUsize = AtomicUsize::new(0);

struct TempDir(PathBuf);
impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "sketch-obs-it-{tag}-{}-{}",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Self(dir)
    }
}
impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn planted(seed: u64, noise: usize, rows: usize) -> (Vec<ColumnPair>, PathBuf, TempDir) {
    let planted = generate_planted(&PlantedConfig {
        queries: 1,
        true_per_query: 3,
        noise_per_query: noise,
        traps_per_query: 3,
        rows,
        trap_keys: 8,
        seed,
    });
    let builder = SketchBuilder::new(SketchConfig::with_size(128));
    let sketches: Vec<_> = planted.corpus.iter().map(|p| builder.build(p)).collect();
    let dir = TempDir::new("planted");
    let union_store = dir.0.join("union");
    pack_corpus(
        &union_store,
        &sketches,
        &PackOptions {
            shards: 2,
            threads: 2,
        },
    )
    .unwrap();
    (planted.queries, union_store, dir)
}

fn keys_values_json(pair: &ColumnPair) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    out.push_str("\"keys\":[");
    for (i, k) in pair.keys.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        correlation_sketches::json::push_string(&mut out, k);
    }
    out.push_str("],\"values\":[");
    for (i, v) in pair.values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{v:?}");
    }
    out.push(']');
    out
}

fn query_json(pair: &ColumnPair, params: &str) -> String {
    format!("{{\"id\":\"q\",{}{params}}}", keys_values_json(pair))
}

/// Remove the spliced `,"trace":{…}` suffix from a traced response
/// body, recovering what the untraced twin must have answered.
fn strip_trace(body: &str) -> String {
    let pos = body
        .rfind(",\"trace\":{")
        .unwrap_or_else(|| panic!("no trace object in {body}"));
    assert!(body.ends_with('}'), "{body}");
    format!("{}}}", &body[..pos])
}

/// First `"field":<digits>` after the start of `hay` — a raw scanner
/// for fields nested inside the trace object (`api::extract_u64` parses
/// whole response bodies, not fragments).
fn scan_u64(hay: &str, field: &str) -> u64 {
    let pat = format!("\"{field}\":");
    let pos = hay
        .find(&pat)
        .unwrap_or_else(|| panic!("no {field} in {hay}"));
    let digits: String = hay[pos + pat.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().unwrap()
}

/// `(depth, dur_us)` for every span in a traced response body.
fn span_depth_durs(body: &str) -> Vec<(u64, u64)> {
    let trace = &body[body.rfind(",\"trace\":{").expect("trace object")..];
    let mut out = Vec::new();
    let mut rest = trace;
    while let Some(pos) = rest.find("\"depth\":") {
        rest = &rest[pos..];
        out.push((scan_u64(rest, "depth"), scan_u64(rest, "dur_us")));
        rest = &rest[8..];
    }
    out
}

/// The identity under test, exercised on one endpoint: a traced miss, a
/// traced hit, and an untraced hit must carry the same result payload,
/// and the traced spans must account within the request total.
fn assert_trace_identity(client: &mut HttpClient, pair: &ColumnPair, params: &str) {
    let untraced = query_json(pair, params);
    let traced = query_json(pair, &format!("{params},\"trace\":true"));

    // Miss path: the traced request executes the full pipeline.
    let t1 = client.post("/query", &traced).unwrap();
    assert_eq!(t1.status, 200, "{}", t1.body);

    // The cache stored only the untraced body; the untraced twin is a
    // hit and must read back exactly the traced payload minus the trace.
    let u = client.post("/query", &untraced).unwrap();
    assert_eq!(u.status, 200, "{}", u.body);
    assert_eq!(strip_trace(&t1.body), u.body, "traced miss diverged");
    assert!(
        !u.body.contains("\"trace\":{"),
        "untraced response leaked a trace: {}",
        u.body
    );

    // Hit path: tracing a cached request splices a fresh trace around
    // the identical payload.
    let t2 = client.post("/query", &traced).unwrap();
    assert_eq!(t2.status, 200, "{}", t2.body);
    assert_eq!(strip_trace(&t2.body), u.body, "traced hit diverged");

    // Span accounting: depth-0 spans are disjoint wall-clock intervals
    // inside the request, so their durations sum within the total.
    for resp in [&t1, &t2] {
        let trace = &resp.body[resp.body.rfind(",\"trace\":{").unwrap()..];
        let total = scan_u64(trace, "total_us");
        let spans = span_depth_durs(&resp.body);
        assert!(!spans.is_empty(), "trace carried no spans: {trace}");
        let top: u64 = spans.iter().filter(|(d, _)| *d == 0).map(|(_, v)| v).sum();
        assert!(
            top <= total,
            "depth-0 spans sum to {top}us > total {total}us: {trace}"
        );
    }
}

/// A booted scatter-gather cluster over one partitioned corpus.
struct Cluster {
    workers: Vec<ServerHandle>,
    coordinator: CoordinatorHandle,
}

impl Cluster {
    fn boot(union_store: &Path, out: &Path, shards: usize) -> Self {
        let manifest = sketch_store::shard_corpus(union_store, out, shards, 2).unwrap();
        let mut workers = Vec::new();
        let mut addrs = Vec::new();
        for shard in &manifest.shards {
            let mut config = ServerConfig::new(out.join(&shard.dir));
            config.threads = 4;
            config.poll_interval = Duration::from_millis(50);
            let handle = sketch_server::start(config).unwrap();
            addrs.push(handle.addr().to_string());
            workers.push(handle);
        }
        let mut config = CoordinatorConfig::new(addrs);
        config.threads = 2;
        config.poll_interval = Duration::from_millis(50);
        let coordinator = sketch_server::start_coordinator(config).unwrap();
        Self {
            workers,
            coordinator,
        }
    }

    fn shutdown(self) {
        let _ = self.coordinator.shutdown();
        for w in self.workers {
            let _ = w.shutdown();
        }
    }
}

fn run_identity_case(seed: u64, noise: usize, rows: usize) {
    let (queries, union_store, dir) = planted(seed, noise, rows);
    let query = &queries[0];
    let grid: Vec<String> = ["s1", "s2", "s3", "s4"]
        .iter()
        .flat_map(|scorer| {
            ["exhaustive", "two-pass"].iter().map(move |plan| {
                format!(
                    ",\"k\":4,\"estimator\":\"spearman\",\
                     \"scorer\":\"{scorer}\",\"plan\":\"{plan}\""
                )
            })
        })
        .collect();

    // Single server.
    let mut config = ServerConfig::new(&union_store);
    config.threads = 4;
    let handle = sketch_server::start(config).unwrap();
    let mut client = HttpClient::connect(handle.addr()).unwrap();
    for params in &grid {
        assert_trace_identity(&mut client, query, params);
    }
    // Every traced request above was counted.
    let traced = handle.stats().get(Counter::Traced);
    assert_eq!(traced, 2 * grid.len() as u64);
    drop(client);
    let _ = handle.shutdown();

    // Scatter-gather clusters: the identity must survive the
    // scatter/gather/merge pipeline at several shard counts.
    for shards in [1usize, 2, 3] {
        let cluster = Cluster::boot(&union_store, &dir.0.join(format!("parts-{shards}")), shards);
        let mut client = HttpClient::connect(cluster.coordinator.addr()).unwrap();
        for params in &grid {
            assert_trace_identity(&mut client, query, params);
        }
        cluster.shutdown();
    }
}

fn identity_cases() -> ProptestConfig {
    let cases =
        match std::env::var("PROPTEST_CASES") {
            Ok(v) => v.parse().ok().filter(|&c| c > 0).unwrap_or_else(|| {
                panic!("invalid PROPTEST_CASES '{v}' (need a positive integer)")
            }),
            Err(_) => 2,
        };
    ProptestConfig::with_cases(cases)
}

proptest! {
    #![proptest_config(identity_cases())]

    /// Arbitrary planted corpora: `"trace":true` never changes the
    /// result payload, at every scorer × plan × topology point.
    #[test]
    fn traced_and_untraced_payloads_are_byte_identical(
        seed in 0u64..1_000_000,
        noise in 4usize..10,
        rows in 120usize..240,
    ) {
        run_identity_case(seed, noise, rows);
    }
}

// ---------------------------------------------------------------------
// /metrics scrape conformance
// ---------------------------------------------------------------------

fn is_metric_ident(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        && !s.starts_with(|c: char| c.is_ascii_digit())
}

/// One parsed sample line: `name`, label pairs, numeric value.
struct Sample {
    name: String,
    labels: Vec<(String, String)>,
    value: f64,
}

/// Parse the exposition body, panicking on anything outside the
/// text-format 0.0.4 grammar, and return the samples plus the per-family
/// TYPE declarations in order of appearance.
fn parse_exposition(body: &str) -> (Vec<Sample>, Vec<(String, String)>) {
    let mut samples = Vec::new();
    let mut types = Vec::new();
    for line in body.lines() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split(' ').next().unwrap();
            assert!(is_metric_ident(name), "bad HELP name: {line}");
            assert!(name.starts_with("sketch_"), "unprefixed family: {line}");
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.splitn(2, ' ');
            let name = it.next().unwrap();
            let kind = it.next().unwrap_or_else(|| panic!("bad TYPE: {line}"));
            assert!(is_metric_ident(name), "bad TYPE name: {line}");
            assert!(
                matches!(kind, "counter" | "gauge" | "histogram"),
                "unknown TYPE kind: {line}"
            );
            types.push((name.to_string(), kind.to_string()));
            continue;
        }
        assert!(!line.starts_with('#'), "unknown comment form: {line}");
        // Sample: name[{label="value",…}] value
        let (name_labels, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("no value on sample line: {line}"));
        let value: f64 = value
            .parse()
            .unwrap_or_else(|_| panic!("non-numeric value: {line}"));
        let (name, labels) = match name_labels.split_once('{') {
            None => (name_labels.to_string(), Vec::new()),
            Some((name, rest)) => {
                let inner = rest
                    .strip_suffix('}')
                    .unwrap_or_else(|| panic!("unterminated label block: {line}"));
                let labels = inner
                    .split(',')
                    .map(|pair| {
                        let (k, v) = pair
                            .split_once('=')
                            .unwrap_or_else(|| panic!("bad label pair '{pair}': {line}"));
                        assert!(is_metric_ident(k), "bad label name '{k}': {line}");
                        let v = v
                            .strip_prefix('"')
                            .and_then(|v| v.strip_suffix('"'))
                            .unwrap_or_else(|| panic!("unquoted label value '{v}': {line}"));
                        (k.to_string(), v.to_string())
                    })
                    .collect();
                (name.to_string(), labels)
            }
        };
        assert!(is_metric_ident(&name), "bad sample name: {line}");
        assert!(name.starts_with("sketch_"), "unprefixed sample: {line}");
        samples.push(Sample {
            name,
            labels,
            value,
        });
    }
    (samples, types)
}

fn sample_value(samples: &[Sample], name: &str, labels: &[(&str, &str)]) -> f64 {
    samples
        .iter()
        .find(|s| {
            s.name == name
                && labels
                    .iter()
                    .all(|(k, v)| s.labels.iter().any(|(sk, sv)| sk == k && sv == v))
        })
        .unwrap_or_else(|| panic!("no sample {name}{labels:?}"))
        .value
}

/// The histogram contract: cumulative `_bucket` counts are monotone,
/// the last bucket is `+Inf`, and it equals `_count`.
fn assert_histogram(samples: &[Sample], family: &str) {
    let buckets: Vec<&Sample> = samples
        .iter()
        .filter(|s| s.name == format!("{family}_bucket"))
        .collect();
    assert!(!buckets.is_empty(), "{family} has no buckets");
    let mut prev = 0.0;
    for b in &buckets {
        assert!(
            b.value >= prev,
            "{family} cumulative buckets not monotone at {:?}",
            b.labels
        );
        prev = b.value;
    }
    let last = buckets.last().unwrap();
    assert_eq!(
        last.labels
            .iter()
            .find(|(k, _)| k == "le")
            .map(|(_, v)| v.as_str()),
        Some("+Inf"),
        "{family} final bucket is not +Inf"
    );
    let count = sample_value(samples, &format!("{family}_count"), &[]);
    assert_eq!(last.value, count, "{family} +Inf bucket != _count");
    // _sum exists and is non-negative.
    assert!(sample_value(samples, &format!("{family}_sum"), &[]) >= 0.0);
}

#[test]
fn metrics_exposition_is_scrape_conformant() {
    let (queries, union_store, _dir) = planted(11, 6, 160);
    let mut config = ServerConfig::new(&union_store);
    config.threads = 2;
    let handle = sketch_server::start(config).unwrap();
    let mut client = HttpClient::connect(handle.addr()).unwrap();

    // Traffic across the endpoints the counters must reflect: two
    // distinct queries, a repeat (cache hit), an error, and /stats.
    let a = query_json(&queries[0], ",\"k\":3");
    let b = query_json(&queries[0], ",\"k\":3,\"scorer\":\"s2\"");
    for body in [&a, &b, &a] {
        let resp = client.post("/query", body).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body);
    }
    assert_eq!(client.post("/query", "{oops").unwrap().status, 400);
    let stats = client.get("/stats").unwrap();
    assert_eq!(stats.status, 200);
    // The /stats satellites ride along: uptime and start time.
    assert!(stats.body.contains("\"uptime_s\":"), "{}", stats.body);
    assert!(stats.body.contains("\"started_unix\":"), "{}", stats.body);

    // Raw scrape once to pin the content type on the wire.
    {
        use std::io::{Read as _, Write as _};
        let mut raw = std::net::TcpStream::connect(handle.addr()).unwrap();
        raw.write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
            .unwrap();
        let mut head = Vec::new();
        raw.read_to_end(&mut head).unwrap();
        let head = String::from_utf8_lossy(&head);
        assert!(
            head.contains("Content-Type: text/plain; version=0.0.4"),
            "scrape head missing Prometheus content type:\n{head}"
        );
    }

    let scrape = client.get("/metrics").unwrap();
    assert_eq!(scrape.status, 200);
    let (samples, types) = parse_exposition(&scrape.body);

    // Each family declares its TYPE exactly once, and every sample
    // belongs to a declared family.
    let mut seen = std::collections::HashSet::new();
    for (name, _) in &types {
        assert!(seen.insert(name.clone()), "duplicate TYPE for {name}");
    }
    for s in &samples {
        let family = s
            .name
            .strip_suffix("_bucket")
            .or_else(|| s.name.strip_suffix("_sum"))
            .or_else(|| s.name.strip_suffix("_count"))
            .unwrap_or(&s.name);
        assert!(
            seen.contains(family) || seen.contains(&s.name),
            "sample {} has no TYPE declaration",
            s.name
        );
    }

    // The counters reflect the traffic.
    assert!(sample_value(&samples, "sketch_requests_total", &[("endpoint", "query")]) >= 4.0);
    assert!(sample_value(&samples, "sketch_errors_total", &[]) >= 1.0);
    assert!(sample_value(&samples, "sketch_cache_hits_total", &[]) >= 1.0);
    assert!(sample_value(&samples, "sketch_cache_misses_total", &[]) >= 2.0);
    assert_eq!(sample_value(&samples, "sketch_generation", &[]), 0.0);
    assert!(sample_value(&samples, "sketch_sketches", &[]) >= 1.0);
    assert!(sample_value(&samples, "sketch_started_time_seconds", &[]) > 0.0);

    assert_histogram(&samples, "sketch_query_latency_seconds");
    // Only the three answered queries feed the histogram — the 400
    // rejection is deliberately excluded from latency.
    assert!(
        sample_value(&samples, "sketch_query_latency_seconds_count", &[]) >= 3.0,
        "latency histogram missed requests"
    );

    // A second scrape counts the first: /metrics observes itself.
    let scrape2 = client.get("/metrics").unwrap();
    let (samples2, _) = parse_exposition(&scrape2.body);
    assert!(
        sample_value(
            &samples2,
            "sketch_requests_total",
            &[("endpoint", "metrics")]
        ) >= 2.0
    );

    let _ = handle.shutdown();
}

/// Polls until `counter` reaches `at_least`.
fn wait_for(handle: &ServerHandle, counter: Counter, at_least: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.stats().get(counter) < at_least {
        assert!(Instant::now() < deadline, "{counter:?} stuck");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// `/stats` and `/metrics` render one counter table: after traffic that
/// moves every counter a single server can move, each row reads the
/// same on both surfaces.
#[test]
fn stats_and_metrics_report_every_counter_alike() {
    let (queries, union_store, _dir) = planted(41, 6, 160);
    let mut config = ServerConfig::new(&union_store);
    config.threads = 2;
    config.poll_interval = Duration::from_millis(25);
    // A zero threshold makes every query a slow one.
    config.slow_query = Some(Duration::ZERO);
    let handle = sketch_server::start(config).unwrap();
    let mut client = HttpClient::connect(handle.addr()).unwrap();

    // The two-pass plan moves every planner total.
    let params = ",\"k\":3,\"estimator\":\"spearman\",\"plan\":\"two-pass\"";
    let body = query_json(&queries[0], params);
    let traced = query_json(&queries[0], &format!("{params},\"trace\":true"));
    // A miss, a hit, a traced request, a 400, a 405, a shard call, then
    // a 404 and the other endpoints.
    for (path, body, status) in [
        ("/query", body.as_str(), 200),
        ("/query", body.as_str(), 200),
        ("/query", traced.as_str(), 200),
        ("/query", "{oops", 400),
        ("/healthz", "", 405),
        ("/shard_query", "{}", 400),
    ] {
        assert_eq!(client.post(path, body).unwrap().status, status, "{path}");
    }
    for path in ["/nowhere", "/healthz", "/corpus", "/stats", "/metrics"] {
        let status = client.get(path).unwrap().status;
        assert_eq!(status, if path == "/nowhere" { 404 } else { 200 });
    }
    // A refresh after an append, a rebuild after a compaction.
    let fresh = SketchBuilder::new(SketchConfig::with_size(128)).build(&queries[0]);
    sketch_store::append_corpus(&union_store, &[fresh], 1).unwrap();
    wait_for(&handle, Counter::Refreshes, 1);
    let options = PackOptions {
        shards: 2,
        threads: 2,
    };
    sketch_store::compact_corpus(&union_store, &options).unwrap();
    wait_for(&handle, Counter::Rebuilds, 1);

    let stats = client.get("/stats").unwrap().body;
    let (samples, _) = parse_exposition(&client.get("/metrics").unwrap().body);
    for row in &sketch_server::stats::COUNTERS {
        let on_stats = sketch_server::api::extract_u64(&stats, row.key).unwrap();
        let label = row.family.label.map(|l| (l, row.key));
        let on_metrics = sample_value(&samples, row.family.name, label.as_slice()) as u64;
        // `/stats` is counted as a request once it has rendered, and a
        // scrape counts itself before it renders.
        let between = u64::from(matches!(row.key, "requests" | "metrics"));
        assert_eq!(on_metrics, on_stats + between, "{}", row.key);
        // Only a coordinator degrades, and no refresh failed here.
        let moved = !matches!(row.key, "degraded" | "refresh_failures");
        assert_eq!(on_metrics > 0, moved, "{}", row.key);
    }

    let _ = handle.shutdown();
}

#[test]
fn coordinator_metrics_track_killed_worker_health() {
    let (queries, union_store, dir) = planted(23, 6, 160);
    let cluster = Cluster::boot(&union_store, &dir.0.join("parts"), 2);
    let mut client = HttpClient::connect(cluster.coordinator.addr()).unwrap();

    let body = query_json(&queries[0], ",\"k\":3");
    let resp = client.post("/query", &body).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);

    let scrape = client.get("/metrics").unwrap();
    assert_eq!(scrape.status, 200);
    let (samples, _) = parse_exposition(&scrape.body);
    assert_eq!(sample_value(&samples, "sketch_shards", &[]), 2.0);
    for shard in ["0", "1"] {
        assert_eq!(
            sample_value(&samples, "sketch_shard_healthy", &[("shard", shard)]),
            1.0,
            "shard {shard} should start healthy"
        );
    }
    // The coordinator has no single corpus generation: only per-shard
    // generation gauges are exposed.
    assert!(
        !samples.iter().any(|s| s.name == "sketch_generation"),
        "coordinator must not expose a scalar generation"
    );

    // Kill worker 1; a degraded query plus the health poller must flip
    // its gauge to 0 while shard 0 stays healthy.
    let mut workers = cluster.workers;
    let _ = workers.remove(1).shutdown();
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut attempt = 0u32;
    loop {
        // Keep traffic flowing so degradation is observed promptly —
        // under fresh ids, so every probe misses the cache and actually
        // scatters (degraded answers are produced, and counted, only on
        // the scatter path).
        attempt += 1;
        let fresh = format!(
            "{{\"id\":\"probe-{attempt}\",{},\"k\":3}}",
            keys_values_json(&queries[0])
        );
        let resp = client.post("/query", &fresh).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body);
        let scrape = client.get("/metrics").unwrap();
        let (samples, _) = parse_exposition(&scrape.body);
        if sample_value(&samples, "sketch_shard_healthy", &[("shard", "1")]) == 0.0 {
            assert_eq!(
                sample_value(&samples, "sketch_shard_healthy", &[("shard", "0")]),
                1.0
            );
            assert!(sample_value(&samples, "sketch_degraded_responses_total", &[]) >= 1.0);
            break;
        }
        assert!(
            Instant::now() < deadline,
            "killed worker never showed unhealthy in /metrics"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    let _ = cluster.coordinator.shutdown();
    for w in workers {
        let _ = w.shutdown();
    }
}

#[test]
fn slow_query_tracing_counts_without_changing_bytes() {
    let (queries, union_store, _dir) = planted(31, 6, 160);

    let plain = sketch_server::start(ServerConfig::new(&union_store)).unwrap();
    let mut slow_config = ServerConfig::new(&union_store);
    // Zero threshold: every request is at-or-over it, so every request
    // runs with tracing enabled and lands in the slow-query log.
    slow_config.slow_query = Some(Duration::ZERO);
    let slow = sketch_server::start(slow_config).unwrap();

    let mut plain_client = HttpClient::connect(plain.addr()).unwrap();
    let mut slow_client = HttpClient::connect(slow.addr()).unwrap();

    let body = query_json(&queries[0], ",\"k\":3,\"scorer\":\"s3\"");
    let want = plain_client.post("/query", &body).unwrap();
    assert_eq!(want.status, 200, "{}", want.body);
    for _ in 0..3 {
        let got = slow_client.post("/query", &body).unwrap();
        assert_eq!(got.status, 200);
        // Internal tracing never leaks into the response.
        assert_eq!(got.body, want.body, "slow-query tracing changed the bytes");
    }
    assert!(slow.stats().get(Counter::SlowQueries) >= 3);
    // Nothing asked for a trace in the response, so none were attached.
    assert_eq!(slow.stats().get(Counter::Traced), 0);
    assert_eq!(plain.stats().get(Counter::SlowQueries), 0);

    let _ = plain.shutdown();
    let _ = slow.shutdown();
}
