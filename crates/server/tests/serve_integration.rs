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
use sketch_server::{api, HttpClient, IndexSnapshot, QueryParams, ServerConfig};
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
    let hits_before = handle
        .stats()
        .cache_hits
        .load(std::sync::atomic::Ordering::Relaxed);
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
    let hits_after = handle
        .stats()
        .cache_hits
        .load(std::sync::atomic::Ordering::Relaxed);
    assert!(hits_after > hits_before);

    // The rebuild path (post-compact) was exercised.
    assert!(
        handle
            .stats()
            .rebuilds
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 1
    );

    let summary = handle.shutdown();
    assert!(summary.contains("\"generation\":3"), "{summary}");
    // After graceful shutdown nothing is listening any more.
    std::thread::sleep(Duration::from_millis(50));
    assert!(std::net::TcpStream::connect_timeout(&addr, Duration::from_millis(250)).is_err());
}

#[test]
fn batch_answers_match_engine_and_cache() {
    let dir = TempDir::new("batch");
    sketch_store::pack_corpus(
        &dir.0,
        &corpus(10),
        &PackOptions {
            shards: 2,
            threads: 1,
        },
    )
    .unwrap();
    let handle = sketch_server::start(ServerConfig::new(&dir.0)).unwrap();
    let mut client = HttpClient::connect(handle.addr()).unwrap();

    let q1: Vec<String> = (0..60).map(|i| format!("\"key-{i}\"")).collect();
    let q2: Vec<String> = (20..80).map(|i| format!("\"key-{i}\"")).collect();
    let vals = |n: usize, f: f64| {
        (0..n)
            .map(|i| format!("{:?}", (i as f64 * f).cos()))
            .collect::<Vec<_>>()
            .join(",")
    };
    let body = format!(
        "{{\"queries\":[{{\"id\":\"a\",\"keys\":[{}],\"values\":[{}]}},\
         {{\"id\":\"b\",\"keys\":[{}],\"values\":[{}]}}],\"k\":5}}",
        q1.join(","),
        vals(60, 0.21),
        q2.join(","),
        vals(60, 0.13)
    );

    let resp = client.post("/query_batch", &body).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);

    // Reproduce single-process: parse the same request, run the batch
    // engine on a fresh load, render identically.
    let req = api::BatchRequest::parse(body.as_bytes(), &QueryParams::default()).unwrap();
    let snap = IndexSnapshot::from_store(&dir.0, 1).unwrap();
    let sketches: Vec<_> = req
        .queries
        .iter()
        .map(|q| snap.build_query(&q.id, q.keys.clone(), q.values.clone()))
        .collect();
    let answers = sketch_index::engine::execute(
        snap.index(),
        &sketches,
        &req.params.to_options(),
        Some(req.params.alpha),
        &mut sketch_obs::Trace::disabled(),
    )
    .into_iter()
    .map(|out| out.results)
    .collect::<Vec<_>>();
    assert_eq!(
        resp.body,
        api::render_batch_response(snap.generation(), &req.params, &answers)
    );

    // And the batch is answered from cache on repeat, byte-identically.
    let resp2 = client.post("/query_batch", &body).unwrap();
    assert_eq!(resp, resp2);
    assert!(
        handle
            .stats()
            .cache_hits
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 1
    );

    // Batch answers are also identical to looping the single-query
    // endpoint (the engine equivalence, observed over HTTP).
    for (i, q) in req.queries.iter().enumerate() {
        let single = format!(
            "{{\"id\":{:?},\"keys\":[{}],\"values\":[{}],\"k\":5}}",
            q.id,
            q.keys
                .iter()
                .map(|k| format!("{k:?}"))
                .collect::<Vec<_>>()
                .join(","),
            q.values
                .iter()
                .map(|v| format!("{v:?}"))
                .collect::<Vec<_>>()
                .join(","),
        );
        let resp = client.post("/query", &single).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert_eq!(
            resp.body,
            api::render_query_response(snap.generation(), &req.params, &answers[i])
        );
    }

    let _ = handle.shutdown();
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
