//! Fault injection and mutation coverage for the scatter-gather
//! coordinator — the states the oracle battery (`prop_shard`) cannot
//! reach with healthy workers:
//!
//! * a **killed** worker: the coordinator answers 200 with a typed
//!   `degraded` entry naming the shard and its last observed
//!   generation, the merged answer is byte-identical to the public-API
//!   replay over the surviving shards, `/healthz` flips to `degraded`,
//!   and nothing hangs;
//! * a **stalled** worker (accepts the request, never answers): same
//!   contract, bounded by `worker_timeout` — never a hang, never a
//!   silently short list;
//! * a **mutation under shards**: appending to one worker's store while
//!   the coordinator serves produces per-generation byte-identical
//!   responses, and the generation-vector cache key means answers from
//!   different generation mixtures can never alias;
//! * **graceful shutdown** drains and leaves the port closed.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sketch_datagen::{generate_planted, PlantedConfig};
use sketch_index::{engine, merge_shard_candidates, ShardCandidate, ShardRows};
use sketch_server::{
    api, CoordinatorConfig, CoordinatorHandle, Counter, HttpClient, IndexSnapshot, QueryParams,
    ServerConfig, ServerHandle,
};
use sketch_store::{pack_corpus, PackOptions, PartitionManifest};
use sketch_table::ColumnPair;

use correlation_sketches::{JoinSample, SketchBuilder, SketchConfig};

static CASE: AtomicUsize = AtomicUsize::new(0);

struct TempDir(PathBuf);
impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "sketch-coord-int-{tag}-{}-{}",
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

fn planted_sketches(
    seed: u64,
) -> (
    Vec<ColumnPair>,
    Vec<correlation_sketches::CorrelationSketch>,
) {
    let planted = generate_planted(&PlantedConfig {
        queries: 1,
        true_per_query: 4,
        noise_per_query: 8,
        traps_per_query: 4,
        rows: 200,
        trap_keys: 8,
        seed,
    });
    let builder = SketchBuilder::new(SketchConfig::with_size(128));
    let sketches = planted.corpus.iter().map(|p| builder.build(p)).collect();
    (planted.queries, sketches)
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

/// A booted cluster plus the partition facts the tests assert against.
struct Cluster {
    workers: Vec<ServerHandle>,
    worker_dirs: Vec<PathBuf>,
    manifest: PartitionManifest,
    coordinator: CoordinatorHandle,
}

/// Partition + boot, with fault-friendly deadlines (`worker_timeout`
/// 400 ms so a dead or stalled worker costs well under a second) and an
/// optional extra (fake) worker address appended after the real ones.
fn boot_cluster(union_store: &Path, out: &Path, shards: usize, extra: &[String]) -> Cluster {
    let manifest = sketch_store::shard_corpus(union_store, out, shards, 2).unwrap();
    let mut workers = Vec::new();
    let mut worker_dirs = Vec::new();
    let mut addrs = Vec::new();
    for shard in &manifest.shards {
        let dir = out.join(&shard.dir);
        let mut config = ServerConfig::new(&dir);
        // One conn.rs thread serves one keep-alive connection at a
        // time, and the coordinator holds pooled connections (scatter,
        // reports, poller) — give workers headroom so a pinned thread
        // never reads as a dead shard.
        config.threads = 4;
        config.poll_interval = Duration::from_millis(50);
        let handle = sketch_server::start(config).unwrap();
        addrs.push(handle.addr().to_string());
        workers.push(handle);
        worker_dirs.push(dir);
    }
    addrs.extend_from_slice(extra);
    let mut config = CoordinatorConfig::new(addrs);
    config.threads = 2;
    config.poll_interval = Duration::from_millis(50);
    config.worker_timeout = Duration::from_millis(800);
    let coordinator = sketch_server::start_coordinator(config).unwrap();
    Cluster {
        workers,
        worker_dirs,
        manifest,
        coordinator,
    }
}

/// What the coordinator should believe about one shard when building
/// the expected answer.
enum Shard {
    Live(PathBuf),
    Dead { generation: u64, sketches: usize },
}

/// The full expected `/query` bytes, rebuilt from the public API alone:
/// per-shard candidate rows ([`engine::shard_candidates`]) for live
/// shards, empty rows at the last-known size for dead ones, merged by
/// [`merge_shard_candidates`], reports for the surviving winners via
/// [`engine::report_for_doc`] — exactly the coordinator's two phases.
fn expected_response(shards: &[Shard], body: &str) -> String {
    let req = api::QueryRequest::parse(body.as_bytes(), &QueryParams::default()).unwrap();
    let opts = req.params.to_options();
    let snaps: Vec<Option<IndexSnapshot>> = shards
        .iter()
        .map(|s| match s {
            Shard::Live(dir) => Some(IndexSnapshot::from_store(dir, 1).unwrap()),
            Shard::Dead { .. } => None,
        })
        .collect();
    let sketches: Vec<Option<correlation_sketches::CorrelationSketch>> = snaps
        .iter()
        .map(|s| {
            s.as_ref().map(|snap| {
                snap.build_query(&req.body.id, req.body.keys.clone(), req.body.values.clone())
            })
        })
        .collect();
    let rows: Vec<Vec<ShardCandidate>> = snaps
        .iter()
        .zip(&sketches)
        .map(|(snap, sketch)| match (snap, sketch) {
            (Some(snap), Some(sketch)) => engine::shard_candidates(snap.index(), sketch, &opts),
            _ => Vec::new(),
        })
        .collect();
    let shard_rows: Vec<ShardRows<'_>> = rows
        .iter()
        .enumerate()
        .map(|(i, r)| ShardRows {
            rows: r,
            sketches: match (&shards[i], &snaps[i]) {
                (Shard::Dead { sketches, .. }, _) => *sketches,
                (Shard::Live(_), Some(snap)) => snap.index().len(),
                (Shard::Live(_), None) => unreachable!(),
            },
        })
        .collect();
    let outcome = merge_shard_candidates(&shard_rows, &opts);

    let mut sample = JoinSample::default();
    let results: Vec<sketch_index::ReportedResult> = outcome
        .winners
        .into_iter()
        .map(|w| {
            let snap = snaps[w.shard]
                .as_ref()
                .expect("winners come from live shards");
            let sketch = sketches[w.shard].as_ref().unwrap();
            let report = engine::report_for_doc(
                snap.index(),
                sketch,
                w.local_doc,
                &opts,
                req.params.alpha,
                &mut sample,
            );
            sketch_index::ReportedResult {
                result: w.result,
                report,
            }
        })
        .collect();

    let states: Vec<api::ShardState> = shards
        .iter()
        .zip(&snaps)
        .map(|(s, snap)| match s {
            Shard::Live(_) => api::ShardState {
                generation: snap.as_ref().unwrap().generation(),
                degraded: false,
            },
            Shard::Dead { generation, .. } => api::ShardState {
                generation: *generation,
                degraded: true,
            },
        })
        .collect();
    api::render_coordinator_response(
        &states,
        &req.params,
        outcome.merged,
        outcome.shipped,
        &results,
    )
}

/// Poll the coordinator's `/healthz` until `pred` holds.
fn wait_for_healthz(addr: std::net::SocketAddr, pred: impl Fn(&str) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let mut client = HttpClient::connect(addr).unwrap();
        let resp = client.get("/healthz").unwrap();
        if pred(&resp.body) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "healthz never converged; last: {}",
            resp.body
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn killed_worker_yields_typed_degraded_partial_result() {
    let (queries, sketches) = planted_sketches(11);
    let dir = TempDir::new("kill");
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
    let mut cluster = boot_cluster(&union_store, &dir.0.join("parts"), 3, &[]);
    assert_eq!(cluster.workers.len(), 3, "corpus too small for 3 shards");

    let body = query_json(
        &queries[0],
        ",\"k\":3,\"estimator\":\"spearman\",\"scorer\":\"s2\"",
    );
    let mut client = HttpClient::connect(cluster.coordinator.addr()).unwrap();
    let healthy = client.post("/query", &body).unwrap();
    assert_eq!(healthy.status, 200);
    assert!(healthy.body.contains("\"degraded\":[]"));

    // Kill the middle worker; the poller must notice.
    let dead = cluster.workers.remove(1);
    let _ = dead.shutdown();
    wait_for_healthz(cluster.coordinator.addr(), |b| {
        b.contains("\"status\":\"degraded\"")
            && b.contains("{\"shard\":1,\"generation\":0,\"sketches\":")
    });

    // Same query: the (fingerprint, generation-vector) key still holds
    // — generations did not change — so the cached *complete* answer is
    // served; it is still byte-correct for this data. A query the cache
    // has never seen must go out degraded.
    let cached = client.post("/query", &body).unwrap();
    assert_eq!(
        cached, healthy,
        "complete cached answer must survive a worker death"
    );

    let fresh_body = query_json(
        &queries[0],
        ",\"k\":4,\"estimator\":\"spearman\",\"scorer\":\"s2\"",
    );
    let t0 = Instant::now();
    let resp = client.post("/query", &fresh_body).unwrap();
    let elapsed = t0.elapsed();
    assert!(
        elapsed < Duration::from_secs(5),
        "degraded query took {elapsed:?} — a dead worker must not stall the answer"
    );
    assert_eq!(resp.status, 200);
    assert!(
        resp.body
            .contains("\"degraded\":[{\"shard\":1,\"generation\":0}]"),
        "degraded entry must name the missing shard and generation: {}",
        resp.body
    );
    let expected = expected_response(
        &[
            Shard::Live(cluster.worker_dirs[0].clone()),
            Shard::Dead {
                generation: 0,
                sketches: cluster.manifest.shards[1].count as usize,
            },
            Shard::Live(cluster.worker_dirs[2].clone()),
        ],
        &fresh_body,
    );
    assert_eq!(
        resp.body, expected,
        "degraded answer must equal the replay over the surviving shards"
    );
    assert!(cluster.coordinator.stats().get(Counter::Degraded) >= 1);

    // Degraded answers are never cached: asking again re-scatters and
    // answers identically (deterministic), still degraded.
    let again = client.post("/query", &fresh_body).unwrap();
    assert_eq!(again, resp);

    let _ = cluster.coordinator.shutdown();
    for w in cluster.workers {
        let _ = w.shutdown();
    }
}

/// A fake worker that answers `/healthz` but goes silent on any shard
/// query — the worst failure mode, because the socket stays open.
fn spawn_stalling_worker(stop: &Arc<AtomicBool>) -> (String, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    listener.set_nonblocking(true).unwrap();
    let stop = Arc::clone(stop);
    let handle = std::thread::spawn(move || {
        while !stop.load(Ordering::Relaxed) {
            match listener.accept() {
                Ok((stream, _)) => {
                    let stop = Arc::clone(&stop);
                    std::thread::spawn(move || stall_conn(stream, &stop));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(_) => break,
            }
        }
    });
    (addr.to_string(), handle)
}

fn stall_conn(mut stream: TcpStream, stop: &AtomicBool) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(25)));
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    while !stop.load(Ordering::Relaxed) {
        while let Some(line) = take_request(&mut buf) {
            if line.starts_with("GET /healthz") {
                let body = "{\"status\":\"ok\",\"generation\":0,\"sketches\":0}";
                let resp = format!(
                    "HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n{body}",
                    body.len()
                );
                if stream.write_all(resp.as_bytes()).is_err() {
                    return;
                }
            } else {
                // The point of this worker: swallow the request, never
                // answer, keep the socket open until the test ends.
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_millis(10));
                }
                return;
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(_) => return,
        }
    }
}

/// Pop one complete HTTP request off `buf`, returning its request line.
fn take_request(buf: &mut Vec<u8>) -> Option<String> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = String::from_utf8_lossy(&buf[..head_end]).to_string();
    let mut content_length = 0usize;
    for line in head.split("\r\n").skip(1) {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().unwrap_or(0);
            }
        }
    }
    let total = head_end + 4 + content_length;
    if buf.len() < total {
        return None;
    }
    let line = head.split("\r\n").next().unwrap_or("").to_string();
    buf.drain(..total);
    Some(line)
}

#[test]
fn stalled_worker_degrades_within_deadline_never_hangs() {
    let (queries, sketches) = planted_sketches(23);
    let dir = TempDir::new("stall");
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

    let stop = Arc::new(AtomicBool::new(false));
    let (fake_addr, fake) = spawn_stalling_worker(&stop);
    // Two real partitions plus the stalling fake as shard 2 (it claims
    // zero sketches, so union doc offsets are unaffected).
    let cluster = boot_cluster(&union_store, &dir.0.join("parts"), 2, &[fake_addr]);
    assert_eq!(cluster.workers.len(), 2);

    let body = query_json(
        &queries[0],
        ",\"k\":3,\"estimator\":\"spearman\",\"scorer\":\"s3\"",
    );
    let mut client = HttpClient::connect(cluster.coordinator.addr()).unwrap();
    let t0 = Instant::now();
    let resp = client.post("/query", &body).unwrap();
    let elapsed = t0.elapsed();
    assert!(
        elapsed < Duration::from_secs(5),
        "stalled worker must be cut off by worker_timeout, took {elapsed:?}"
    );
    assert_eq!(resp.status, 200);
    assert!(
        resp.body
            .contains("\"degraded\":[{\"shard\":2,\"generation\":0}]"),
        "stall must surface as a typed degraded entry: {}",
        resp.body
    );
    let expected = expected_response(
        &[
            Shard::Live(cluster.worker_dirs[0].clone()),
            Shard::Live(cluster.worker_dirs[1].clone()),
            Shard::Dead {
                generation: 0,
                sketches: 0,
            },
        ],
        &body,
    );
    assert_eq!(resp.body, expected);

    stop.store(true, Ordering::Relaxed);
    let _ = fake.join();
    let _ = cluster.coordinator.shutdown();
    for w in cluster.workers {
        let _ = w.shutdown();
    }
}

#[test]
fn mutation_under_shards_is_generation_exact_and_never_aliases() {
    let (queries, sketches) = planted_sketches(37);
    let dir = TempDir::new("mutate");
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
    let cluster = boot_cluster(&union_store, &dir.0.join("parts"), 3, &[]);
    assert_eq!(cluster.workers.len(), 3);

    let body = query_json(
        &queries[0],
        ",\"k\":3,\"estimator\":\"spearman\",\"scorer\":\"s2\"",
    );
    let mut client = HttpClient::connect(cluster.coordinator.addr()).unwrap();
    let resp_a = client.post("/query", &body).unwrap();
    assert_eq!(resp_a.status, 200);
    let expected_a = expected_response(
        &[
            Shard::Live(cluster.worker_dirs[0].clone()),
            Shard::Live(cluster.worker_dirs[1].clone()),
            Shard::Live(cluster.worker_dirs[2].clone()),
        ],
        &body,
    );
    assert_eq!(resp_a.body, expected_a);

    // Append a perfectly correlated partner to worker 0's store while
    // the cluster serves: it must enter the top-k, and the coordinator
    // must notice the generation bump without a restart.
    let appended = ColumnPair::new(
        "appended-perfect",
        "k",
        "v",
        queries[0].keys.clone(),
        queries[0].values.clone(),
    );
    let builder = SketchBuilder::new(SketchConfig::with_size(128));
    sketch_store::append_corpus(&cluster.worker_dirs[0], &[builder.build(&appended)], 1).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while cluster.coordinator.generations() != vec![1, 0, 0] {
        assert!(
            Instant::now() < deadline,
            "coordinator never observed the append: {:?}",
            cluster.coordinator.generations()
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // Same request bytes, new generation vector: a different cache key,
    // so the pre-mutation answer can never alias in.
    let resp_b = client.post("/query", &body).unwrap();
    assert_eq!(resp_b.status, 200);
    assert_ne!(
        resp_b.body, resp_a.body,
        "the appended perfect partner must change the answer"
    );
    assert!(resp_b.body.contains("\"generations\":[1,0,0]"));
    assert!(
        resp_b.body.contains("appended-perfect"),
        "appended partner missing from: {}",
        resp_b.body
    );
    let expected_b = expected_response(
        &[
            Shard::Live(cluster.worker_dirs[0].clone()),
            Shard::Live(cluster.worker_dirs[1].clone()),
            Shard::Live(cluster.worker_dirs[2].clone()),
        ],
        &body,
    );
    assert_eq!(resp_b.body, expected_b);

    // Cross-check against a single process over the equivalent union:
    // worker 0's live view is its base rows plus the append, so the
    // union corpus in global doc order is [shard0.., appended, shard1..,
    // shard2..]. The sharded answer must be bit-equal in results to
    // that single store's top-k.
    let c0 = cluster.manifest.shards[0].count as usize;
    let mut union2: Vec<_> = sketches[..c0].to_vec();
    union2.push(builder.build(&appended));
    union2.extend_from_slice(&sketches[c0..]);
    let union2_store = dir.0.join("union2");
    pack_corpus(
        &union2_store,
        &union2,
        &PackOptions {
            shards: 2,
            threads: 2,
        },
    )
    .unwrap();
    let req = api::QueryRequest::parse(body.as_bytes(), &QueryParams::default()).unwrap();
    let opts = req.params.to_options();
    let snap = IndexSnapshot::from_store(&union2_store, 2).unwrap();
    let sketch = snap.build_query(&req.body.id, req.body.keys.clone(), req.body.values.clone());
    let single = engine::top_k_with_reports(snap.index(), &sketch, &opts, req.params.alpha);
    let single_render = api::render_query_response(0, &req.params, &single);
    let results_field = |body: &str| {
        let start = body.find("\"results\":").expect("results field");
        body[start..].to_string()
    };
    assert_eq!(
        results_field(&resp_b.body),
        results_field(&single_render),
        "post-mutation sharded results must match the single-process union"
    );

    // Replaying the identical request is a pure cache hit, byte-equal.
    let hits_before = cluster.coordinator.stats().get(Counter::CacheHits);
    let resp_b2 = client.post("/query", &body).unwrap();
    assert_eq!(resp_b2, resp_b);
    assert!(cluster.coordinator.stats().get(Counter::CacheHits) > hits_before);

    let _ = cluster.coordinator.shutdown();
    for w in cluster.workers {
        let _ = w.shutdown();
    }
}

#[test]
fn graceful_shutdown_drains_and_closes() {
    let (queries, sketches) = planted_sketches(53);
    let dir = TempDir::new("drain");
    let union_store = dir.0.join("union");
    pack_corpus(
        &union_store,
        &sketches,
        &PackOptions {
            shards: 1,
            threads: 1,
        },
    )
    .unwrap();
    let cluster = boot_cluster(&union_store, &dir.0.join("parts"), 2, &[]);

    let body = query_json(&queries[0], ",\"k\":2");
    let addr = cluster.coordinator.addr();
    let mut client = HttpClient::connect(addr).unwrap();
    assert_eq!(client.post("/query", &body).unwrap().status, 200);

    let summary = cluster.coordinator.shutdown();
    assert!(summary.contains("\"requests\":"), "final stats: {summary}");
    // The port is really closed: a fresh connection cannot complete a
    // request any more.
    let refused = match HttpClient::connect(addr) {
        Err(_) => true,
        Ok(mut c) => c.post("/query", &body).is_err(),
    };
    assert!(refused, "coordinator port still answering after shutdown");
    for w in cluster.workers {
        let _ = w.shutdown();
    }
}
