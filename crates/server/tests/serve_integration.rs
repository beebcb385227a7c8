//! End-to-end server test: boot on an ephemeral port, mutate the corpus
//! underneath it (`append` / `rm` / `compact`), and assert that every
//! served response is **byte-identical** to a fresh single-process
//! `top_k_with_reports` answer at the same generation — cache hit or
//! miss, before and during mutation.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use correlation_sketches::{CorrelationSketch, SketchBuilder, SketchConfig};
use sketch_server::{api, Counter, HttpClient, IndexSnapshot, QueryParams, ServerConfig};
use sketch_store::PackOptions;
use sketch_table::ColumnPair;

struct TempDir(PathBuf);
impl TempDir {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("sketch-serve-it-{tag}-{}", std::process::id()));
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

fn sketch(table: &str, lo: usize, n: usize, scale: f64) -> CorrelationSketch {
    SketchBuilder::new(SketchConfig::with_size(64)).build(&ColumnPair::new(
        table,
        "k",
        "v",
        (lo..lo + n).map(|i| format!("key-{i}")).collect(),
        (lo..lo + n)
            .map(|i| ((i as f64) * 0.17).sin() * scale)
            .collect(),
    ))
}

fn corpus(n: usize) -> Vec<CorrelationSketch> {
    (0..n)
        .map(|t| sketch(&format!("t{t}"), (t * 13) % 120, 80, (t + 1) as f64))
        .collect()
}

/// A query over keys 0..80 with a sine signal; `extra` injects extra
/// request fields (e.g. a scorer override), empty for the defaults.
fn query_json(extra: &str) -> String {
    let keys: Vec<String> = (0..80).map(|i| format!("\"key-{i}\"")).collect();
    let values: Vec<String> = (0..80)
        .map(|i| format!("{:?}", ((i as f64) * 0.17).sin() * 3.0))
        .collect();
    format!(
        "{{\"keys\":[{}],\"values\":[{}]{extra}}}",
        keys.join(","),
        values.join(",")
    )
}

/// What a fresh single process would answer for this request body
/// against the store as it is on disk right now, rendered exactly like
/// the server renders it.
fn expected_body(store: &Path, body: &str) -> String {
    let snap = IndexSnapshot::from_store(store, 2).unwrap();
    let req = api::QueryRequest::parse(body.as_bytes(), &QueryParams::default()).unwrap();
    let sketch = snap.build_query(&req.body.id, req.body.keys.clone(), req.body.values.clone());
    let results = sketch_index::engine::top_k_with_reports(
        snap.index(),
        &sketch,
        &req.params.to_options(),
        req.params.alpha,
    );
    api::render_query_response(snap.generation(), &req.params, &results)
}

fn wait_for_generation(handle: &sketch_server::ServerHandle, generation: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.generation() != generation {
        assert!(
            Instant::now() < deadline,
            "server never reached generation {generation} (at {})",
            handle.generation()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn served_answers_stay_byte_identical_under_mutation() {
    let dir = TempDir::new("mutation");
    sketch_store::pack_corpus(
        &dir.0,
        &corpus(16),
        &PackOptions {
            shards: 4,
            threads: 2,
        },
    )
    .unwrap();

    let mut config = ServerConfig::new(&dir.0);
    config.threads = 4;
    config.poll_interval = Duration::from_millis(25);
    let handle = sketch_server::start(config).unwrap();
    let addr = handle.addr();

    // Two request bodies hammer the server throughout: the default
    // point-estimate ranking and a CI-aware scored ranking — both must
    // stay byte-identical to fresh single-process answers at every
    // generation.
    let bodies: [String; 2] = [
        query_json(""),
        query_json(",\"scorer\":\"s4\",\"confidence\":0.9"),
    ];

    // Authoritative per-(body, generation) answers, computed from a
    // *fresh* single-process store load while the store sits at that
    // generation.
    let expected: Mutex<HashMap<(usize, u64), String>> = Mutex::new(HashMap::new());
    let record = |generation: u64| {
        let mut map = expected.lock().unwrap();
        for (bi, body) in bodies.iter().enumerate() {
            map.insert((bi, generation), expected_body(&dir.0, body));
        }
    };
    record(0);

    // Background clients hammer both queries through every mutation;
    // each observation must match the expected body of its generation.
    let stop = std::sync::atomic::AtomicBool::new(false);
    let observations: Mutex<Vec<(usize, u64, String)>> = Mutex::new(Vec::new());

    std::thread::scope(|scope| {
        for c in 0..4 {
            let bodies = &bodies;
            let observations = &observations;
            let stop = &stop;
            scope.spawn(move || {
                let mut client = HttpClient::connect(addr).unwrap();
                // Two clients per body; scored and unscored interleave.
                let bi = c % bodies.len();
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let resp = client.post("/query", &bodies[bi]).unwrap();
                    assert_eq!(resp.status, 200, "{}", resp.body);
                    let generation = api::extract_u64(&resp.body, "generation").unwrap();
                    observations
                        .lock()
                        .unwrap()
                        .push((bi, generation, resp.body));
                }
            });
        }

        // Let clients observe generation 0 first.
        std::thread::sleep(Duration::from_millis(100));

        // Mutation 1: append two sketches -> generation 1.
        sketch_store::append_corpus(
            &dir.0,
            &[
                sketch("fresh-a", 0, 80, 2.5),
                sketch("fresh-b", 40, 80, 4.0),
            ],
            1,
        )
        .unwrap();
        record(1);
        wait_for_generation(&handle, 1);
        std::thread::sleep(Duration::from_millis(60));

        // Mutation 2: tombstone two of the originals -> generation 2.
        sketch_store::remove_from_corpus(&dir.0, &["t0/k/v".to_string(), "t5/k/v".to_string()], 1)
            .unwrap();
        record(2);
        wait_for_generation(&handle, 2);
        std::thread::sleep(Duration::from_millis(60));

        // Mutation 3: compact -> generation 3, forcing the rebuild path.
        sketch_store::compact_corpus(
            &dir.0,
            &PackOptions {
                shards: 3,
                threads: 2,
            },
        )
        .unwrap();
        record(3);
        wait_for_generation(&handle, 3);
        std::thread::sleep(Duration::from_millis(60));

        stop.store(true, std::sync::atomic::Ordering::Relaxed);
    });

    // Every observation, at every generation, cache hit or miss, scored
    // or not, must be byte-identical to the fresh single-process answer.
    let expected = expected.into_inner().unwrap();
    let observations = observations.into_inner().unwrap();
    assert!(
        observations.len() >= 20,
        "clients made only {} observations",
        observations.len()
    );
    let mut seen_generations: Vec<u64> = Vec::new();
    for (bi, generation, body) in &observations {
        let want = expected
            .get(&(*bi, *generation))
            .unwrap_or_else(|| panic!("unexpected generation {generation}"));
        assert_eq!(&body, &want, "generation {generation} answer diverged");
        if !seen_generations.contains(generation) {
            seen_generations.push(*generation);
        }
    }
    // The run must actually have exercised mutation visibility: at
    // least the first and last generations are observed (intermediate
    // ones can be skipped on a slow machine).
    assert!(seen_generations.contains(&0), "{seen_generations:?}");
    assert!(seen_generations.contains(&3), "{seen_generations:?}");

    // The same queries repeated at a settled generation are cache hits
    // and still byte-identical — for the scored request too, proving
    // scorer and confidence are part of the cache identity.
    let hits_before = handle.stats().get(Counter::CacheHits);
    let mut client = HttpClient::connect(addr).unwrap();
    for (bi, body) in bodies.iter().enumerate() {
        let a = client.post("/query", body).unwrap();
        let b = client.post("/query", body).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.body, expected[&(bi, 3)]);
    }
    assert_ne!(
        expected[&(0, 3)],
        expected[&(1, 3)],
        "scored and unscored responses must not collide"
    );
    let hits_after = handle.stats().get(Counter::CacheHits);
    assert!(hits_after > hits_before);

    // The rebuild path (post-compact) was exercised.
    assert!(handle.stats().get(Counter::Rebuilds) >= 1);

    let summary = handle.shutdown();
    assert!(summary.contains("\"generation\":3"), "{summary}");
    // After graceful shutdown nothing is listening any more.
    std::thread::sleep(Duration::from_millis(50));
    assert!(std::net::TcpStream::connect_timeout(&addr, Duration::from_millis(250)).is_err());
}

#[test]
fn health_stats_corpus_and_error_paths() {
    let dir = TempDir::new("endpoints");
    sketch_store::pack_corpus(
        &dir.0,
        &corpus(6),
        &PackOptions {
            shards: 2,
            threads: 1,
        },
    )
    .unwrap();
    let handle = sketch_server::start(ServerConfig::new(&dir.0)).unwrap();
    let mut client = HttpClient::connect(handle.addr()).unwrap();

    let health = client.get("/healthz").unwrap();
    assert_eq!(health.status, 200);
    assert_eq!(api::extract_u64(&health.body, "generation").unwrap(), 0);
    assert_eq!(api::extract_u64(&health.body, "sketches").unwrap(), 6);

    // Load balancers append query parameters to probe URLs; routing
    // must ignore everything after '?'.
    let probed = client.get("/healthz?probe=1").unwrap();
    assert_eq!(probed.status, 200);
    assert_eq!(probed.body, health.body);

    let corpus_resp = client.get("/corpus").unwrap();
    assert_eq!(corpus_resp.status, 200);
    assert_eq!(
        api::extract_u64(&corpus_resp.body, "served_generation").unwrap(),
        0
    );
    let v = correlation_sketches::json::parse(&corpus_resp.body).unwrap();
    let store = v
        .as_object("corpus")
        .unwrap()
        .get("store")
        .unwrap()
        .as_object("store")
        .unwrap();
    assert_eq!(store.get("live").unwrap().as_u64("live").unwrap(), 6);
    assert_eq!(
        store
            .get("shards")
            .unwrap()
            .as_array("shards")
            .unwrap()
            .len(),
        2
    );

    // Error paths: malformed JSON, bad shapes, unknown routes, wrong
    // methods — all typed JSON errors, connection stays usable where
    // keep-alive is preserved.
    let resp = client.post("/query", "{oops").unwrap();
    assert_eq!(resp.status, 400);
    assert!(api::is_error_body(&resp.body));
    let resp = client
        .post("/query", "{\"keys\":[\"a\"],\"values\":[1,2]}")
        .unwrap();
    assert_eq!(resp.status, 400);
    let resp = client.get("/nope").unwrap();
    assert_eq!(resp.status, 404);
    let resp = client.post("/healthz", "{}").unwrap();
    assert_eq!(resp.status, 405);
    let resp = client.get("/query").unwrap();
    assert_eq!(resp.status, 405);
    // Any unsupported method on an endpoint that exists is 405, not
    // 404 — an uptime probe issuing HEAD must not read "no such
    // endpoint".
    let resp = client.request_with_method("PUT", "/query").unwrap();
    assert_eq!(resp.status, 405);
    let resp = client.request_with_method("HEAD", "/healthz").unwrap();
    assert_eq!(resp.status, 405);
    // The many-query routes are gone: a batch is N `/query` requests.
    for gone in [
        concat!("/query", "_batch"),
        concat!("/shard_query", "_batch"),
    ] {
        let resp = client.post(gone, "{}").unwrap();
        assert_eq!(resp.status, 404, "{gone}");
    }

    // The connection survived all of that (keep-alive).
    let again = client.get("/healthz").unwrap();
    assert_eq!(again.status, 200);

    let stats = client.get("/stats").unwrap();
    assert_eq!(stats.status, 200);
    let v = correlation_sketches::json::parse(&stats.body).unwrap();
    let obj = v.as_object("stats").unwrap();
    assert!(obj.get("requests").unwrap().as_u64("r").unwrap() >= 8);
    assert!(obj.get("errors").unwrap().as_u64("e").unwrap() >= 5);

    let _ = handle.shutdown();
}

/// The `sketch_generation_lag` sample of a `/metrics` body.
fn generation_lag(metrics: &str) -> u64 {
    sample(metrics, "sketch_generation_lag")
}

/// The value of the unlabelled `/metrics` sample `name`.
fn sample(metrics: &str, name: &str) -> u64 {
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or_else(|| panic!("no {name} in {metrics}"))
}

/// A refresh that keeps failing must not hide how far behind the served
/// snapshot is: with the newest delta shard corrupt, `/metrics` reports
/// the lag while `/query` keeps answering at the old generation.
#[test]
fn generation_lag_shows_while_a_refresh_keeps_failing() {
    let dir = TempDir::new("lag");
    let pack = PackOptions {
        shards: 2,
        threads: 1,
    };
    sketch_store::pack_corpus(&dir.0, &corpus(6), &pack).unwrap();
    let mut config = ServerConfig::new(&dir.0);
    config.poll_interval = Duration::from_millis(25);
    let handle = sketch_server::start(config).unwrap();
    let mut client = HttpClient::connect(handle.addr()).unwrap();
    let body = query_json("");
    let served = client.post("/query", &body).unwrap();
    assert_eq!(api::extract_u64(&served.body, "generation").unwrap(), 0);

    // Generation 1 is written beside the served store and its delta
    // shard corrupted there, then published: the delta first, the
    // manifest naming it last, so the refresher never sees it intact.
    let next = TempDir::new("lag-next");
    sketch_store::pack_corpus(&next.0, &corpus(6), &pack).unwrap();
    sketch_store::append_corpus(&next.0, &[sketch("fresh", 0, 80, 2.5)], 1).unwrap();
    for entry in std::fs::read_dir(&next.0).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_str().unwrap().to_string();
        if name.starts_with("delta-") && name.ends_with(".cskb") {
            let mut bytes = std::fs::read(&path).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x10;
            std::fs::write(dir.0.join(&name), bytes).unwrap();
        }
    }
    let staged = dir.0.join("manifest.staged");
    std::fs::copy(next.0.join("manifest.cskm"), &staged).unwrap();
    std::fs::rename(&staged, dir.0.join("manifest.cskm")).unwrap();

    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let metrics = client.get("/metrics").unwrap().body;
        if generation_lag(&metrics) >= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "the lag never showed while the refresh failed:\n{metrics}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    let still = client.post("/query", &body).unwrap();
    assert_eq!(still.status, 200, "{}", still.body);
    assert_eq!(still.body, served.body, "still answering at generation 0");
    assert_eq!(handle.generation(), 0);

    // Every failed attempt counts, poll after poll.
    let failures = |client: &mut HttpClient| {
        sample(
            &client.get("/metrics").unwrap().body,
            "sketch_refresh_failures_total",
        )
    };
    let first = failures(&mut client);
    assert!(first >= 1, "the failed refresh was not counted");
    let deadline = Instant::now() + Duration::from_secs(10);
    while failures(&mut client) <= first {
        assert!(Instant::now() < deadline, "the failure count never rose");
        std::thread::sleep(Duration::from_millis(25));
    }

    let _ = handle.shutdown();
}
