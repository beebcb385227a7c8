//! The shard-merge oracle battery — the coordinator's headline
//! guarantee: over arbitrary planted corpora, at shard counts
//! {1, 2, 3, 7}, for every scorer (`s1..s4`) and both plan modes
//! ({exhaustive, two-pass}), a real scatter-gather cluster (worker
//! servers + coordinator, over HTTP) answers `/query` **byte-identical**
//! to a single process running `top_k_with_reports` over the union
//! corpus — results, scores, CIs, tie-breaks, and reports — where the
//! single-process answer is itself verified identical at thread counts
//! {0, 2, 7} first.
//!
//! A second, independent check replays the coordinator's
//! early-termination bound from the public API alone: per-shard
//! candidate rows via [`engine::shard_candidates`] on per-shard
//! indexes, merged by [`merge_shard_candidates`]. The replay's winners
//! must equal the single-process results, and its `merged`/`shipped`
//! counts must match the coordinator's response fields exactly (they
//! are part of the byte comparison) — so the wire really ships exactly
//! the candidates the bound says survive, and nothing else.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use proptest::prelude::*;
use sketch_datagen::{generate_planted, PlantedConfig};
use sketch_index::{engine, merge_shard_candidates, QueryOptions, ShardCandidate, ShardRows};
use sketch_server::{
    api, CoordinatorConfig, CoordinatorHandle, HttpClient, IndexSnapshot, QueryParams,
    ServerConfig, ServerHandle,
};
use sketch_store::{pack_corpus, PackOptions};
use sketch_table::ColumnPair;

use correlation_sketches::{SketchBuilder, SketchConfig};

/// Shard counts the oracle must hold at (including the degenerate 1).
const SHARD_COUNTS: [usize; 4] = [1, 2, 3, 7];

/// Thread counts the single-process oracle must agree at before it is
/// trusted as the expected answer.
const ORACLE_THREADS: [usize; 3] = [0, 2, 7];

static CASE: AtomicUsize = AtomicUsize::new(0);

struct TempDir(PathBuf);
impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "sketch-shard-prop-{tag}-{}-{}",
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

/// A booted scatter-gather cluster over one partitioned corpus.
struct Cluster {
    workers: Vec<ServerHandle>,
    coordinator: CoordinatorHandle,
    worker_dirs: Vec<PathBuf>,
}

impl Cluster {
    /// Partition `union_store` into (at most) `workers` worker stores
    /// under `out`, boot one server per partition plus a coordinator
    /// over them, in partition-manifest order.
    fn boot(union_store: &Path, out: &Path, workers: usize) -> Self {
        let manifest = sketch_store::shard_corpus(union_store, out, workers, 2).unwrap();
        let mut handles = Vec::new();
        let mut addrs = Vec::new();
        let mut worker_dirs = Vec::new();
        for shard in &manifest.shards {
            let dir = out.join(&shard.dir);
            let mut config = ServerConfig::new(&dir);
            // conn.rs pins one thread per keep-alive connection; the
            // coordinator pools several (scatter, reports, poller), so
            // workers need headroom beyond the public client count.
            config.threads = 4;
            config.poll_interval = Duration::from_millis(50);
            let handle = sketch_server::start(config).unwrap();
            addrs.push(handle.addr().to_string());
            handles.push(handle);
            worker_dirs.push(dir);
        }
        let mut config = CoordinatorConfig::new(addrs);
        config.threads = 2;
        config.poll_interval = Duration::from_millis(50);
        let coordinator = sketch_server::start_coordinator(config).unwrap();
        Self {
            workers: handles,
            coordinator,
            worker_dirs,
        }
    }

    fn shutdown(self) {
        let _ = self.coordinator.shutdown();
        for w in self.workers {
            let _ = w.shutdown();
        }
    }
}

/// `"keys":[…],"values":[…]` for a planted column, values in Rust's
/// shortest-round-trip float syntax (exactly what the wire preserves).
fn keys_values_json(pair: &ColumnPair) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(pair.keys.len() * 24);
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

/// Replay the coordinator's merge from the public API: per-shard
/// exhaustive candidate rows, merged with the score-bound cut.
fn replay_merge(
    worker_dirs: &[PathBuf],
    req: &api::QueryRequest,
    opts: &QueryOptions,
) -> (sketch_index::MergeOutcome, Vec<api::ShardState>) {
    let snaps: Vec<IndexSnapshot> = worker_dirs
        .iter()
        .map(|d| IndexSnapshot::from_store(d, 1).unwrap())
        .collect();
    let rows: Vec<Vec<ShardCandidate>> = snaps
        .iter()
        .map(|s| {
            let sketch =
                s.build_query(&req.body.id, req.body.keys.clone(), req.body.values.clone());
            engine::shard_candidates(s.index(), &sketch, opts)
        })
        .collect();
    let shard_rows: Vec<ShardRows<'_>> = rows
        .iter()
        .zip(&snaps)
        .map(|(r, s)| ShardRows {
            rows: r,
            sketches: s.index().len(),
        })
        .collect();
    let outcome = merge_shard_candidates(&shard_rows, opts);
    let states = snaps
        .iter()
        .map(|s| api::ShardState {
            generation: s.generation(),
            degraded: false,
        })
        .collect();
    (outcome, states)
}

/// One oracle assertion: the coordinator's `/query` bytes equal the
/// expected render built from the (thread-invariant) single-process
/// answer and the replayed merge accounting.
fn assert_query_oracle(
    union_store: &Path,
    worker_dirs: &[PathBuf],
    client: &mut HttpClient,
    body: &str,
) {
    let req = api::QueryRequest::parse(body.as_bytes(), &QueryParams::default()).unwrap();
    let opts = req.params.to_options();

    // The single-process expected answer, trusted only once it agrees
    // with itself at every oracle thread count.
    let union_snap = IndexSnapshot::from_store(union_store, 2).unwrap();
    let sketch =
        union_snap.build_query(&req.body.id, req.body.keys.clone(), req.body.values.clone());
    let expected = engine::top_k_with_reports(union_snap.index(), &sketch, &opts, req.params.alpha);
    for threads in ORACLE_THREADS {
        let alt = engine::top_k_with_reports(
            union_snap.index(),
            &sketch,
            &QueryOptions { threads, ..opts },
            req.params.alpha,
        );
        assert_eq!(alt, expected, "oracle unstable at threads={threads}");
    }

    // Independent replay of the merge + termination bound.
    let (outcome, states) = replay_merge(worker_dirs, &req, &opts);
    assert_eq!(
        outcome
            .winners
            .iter()
            .map(|w| &w.result)
            .collect::<Vec<_>>(),
        expected.iter().map(|r| &r.result).collect::<Vec<_>>(),
        "replayed merge winners differ from the single-process top-k"
    );
    assert!(outcome.shipped <= outcome.merged);

    let expected_body = api::render_coordinator_response(
        &states,
        &req.params,
        outcome.merged,
        outcome.shipped,
        &expected,
    );
    let resp = client.post("/query", body).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert_eq!(
        resp.body, expected_body,
        "coordinator answer diverged from the single-process oracle"
    );
}

fn run_case(seed: u64, true_n: usize, noise: usize, traps: usize, rows: usize) {
    let planted = generate_planted(&PlantedConfig {
        queries: 1,
        true_per_query: true_n,
        noise_per_query: noise,
        traps_per_query: traps,
        rows,
        trap_keys: 8,
        seed,
    });
    let builder = SketchBuilder::new(SketchConfig::with_size(128));
    let sketches: Vec<_> = planted.corpus.iter().map(|p| builder.build(p)).collect();

    let dir = TempDir::new("oracle");
    let union_store = dir.0.join("union");
    pack_corpus(
        &union_store,
        &sketches,
        &PackOptions {
            shards: 3,
            threads: 2,
        },
    )
    .unwrap();

    let query = &planted.queries[0];
    for shards in SHARD_COUNTS {
        let out = dir.0.join(format!("parts-{shards}"));
        let cluster = Cluster::boot(&union_store, &out, shards);
        let mut client = HttpClient::connect(cluster.coordinator.addr()).unwrap();
        for scorer in ["s1", "s2", "s3", "s4"] {
            for plan in ["exhaustive", "two-pass"] {
                let body = query_json(
                    query,
                    &format!(
                        ",\"k\":4,\"estimator\":\"spearman\",\
                         \"scorer\":\"{scorer}\",\"plan\":\"{plan}\""
                    ),
                );
                assert_query_oracle(&union_store, &cluster.worker_dirs, &mut client, &body);
            }
        }
        cluster.shutdown();
    }
}

/// Same convention as `prop_plan`: each case boots four full clusters,
/// so the local default stays low; `PROPTEST_CASES` governs the CI
/// battery.
fn oracle_cases() -> ProptestConfig {
    let cases =
        match std::env::var("PROPTEST_CASES") {
            Ok(v) => v.parse().ok().filter(|&c| c > 0).unwrap_or_else(|| {
                panic!("invalid PROPTEST_CASES '{v}' (need a positive integer)")
            }),
            Err(_) => 4,
        };
    ProptestConfig::with_cases(cases)
}

proptest! {
    #![proptest_config(oracle_cases())]

    /// The headline property: arbitrary planted corpora, the full
    /// shard-count × scorer × plan grid per case, bit-identity of the
    /// whole response body (which embeds results, scores, CIs,
    /// tie-break order, reports, and the replay-checked merged/shipped
    /// counts).
    #[test]
    fn coordinator_matches_single_process_everywhere(
        seed in 0u64..1_000_000,
        true_n in 2usize..5,
        noise in 3usize..9,
        traps in 2usize..6,
        rows in 120usize..260,
    ) {
        run_case(seed, true_n, noise, traps, rows);
    }
}

/// The seeded smoke version: a corpus with enough strong partners that
/// the k-th lower bound is high and the termination bound demonstrably
/// bites — the coordinator must ship strictly fewer rows than it
/// merged, while the answer bytes stay oracle-identical (asserted by
/// the same helper).
#[test]
fn early_termination_ships_strictly_fewer_rows() {
    let planted = generate_planted(&PlantedConfig {
        queries: 1,
        true_per_query: 6,
        noise_per_query: 40,
        traps_per_query: 10,
        rows: 500,
        trap_keys: 8,
        seed: 42,
    });
    let builder = SketchBuilder::new(SketchConfig::with_size(128));
    let sketches: Vec<_> = planted.corpus.iter().map(|p| builder.build(p)).collect();

    let dir = TempDir::new("terminate");
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
    let cluster = Cluster::boot(&union_store, &dir.0.join("parts"), 3);
    let mut client = HttpClient::connect(cluster.coordinator.addr()).unwrap();

    let body = query_json(
        &planted.queries[0],
        ",\"k\":3,\"estimator\":\"spearman\",\"scorer\":\"s2\"",
    );
    assert_query_oracle(&union_store, &cluster.worker_dirs, &mut client, &body);

    let resp = client.post("/query", &body).unwrap();
    let merged = api::extract_u64(&resp.body, "merged").unwrap();
    let shipped = api::extract_u64(&resp.body, "shipped").unwrap();
    assert!(
        shipped < merged,
        "termination bound never bit: shipped {shipped} of {merged} merged rows"
    );
    assert!(shipped >= 3, "must ship at least k rows");
    cluster.shutdown();
}

/// Batch scatter-gather: `/query_batch` over the cluster answers every
/// query byte-identically to the single-process batch engine, with
/// per-query merged/shipped accounting from the replay.
#[test]
fn coordinator_batch_matches_single_process() {
    let planted = generate_planted(&PlantedConfig {
        queries: 2,
        true_per_query: 4,
        noise_per_query: 8,
        traps_per_query: 4,
        rows: 200,
        trap_keys: 8,
        seed: 7,
    });
    let builder = SketchBuilder::new(SketchConfig::with_size(128));
    let sketches: Vec<_> = planted.corpus.iter().map(|p| builder.build(p)).collect();

    let dir = TempDir::new("batch");
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
    let cluster = Cluster::boot(&union_store, &dir.0.join("parts"), 3);
    let mut client = HttpClient::connect(cluster.coordinator.addr()).unwrap();

    let body = format!(
        "{{\"queries\":[{{\"id\":\"a\",{}}},{{\"id\":\"b\",{}}}],\
         \"k\":3,\"estimator\":\"spearman\",\"scorer\":\"s3\"}}",
        keys_values_json(&planted.queries[0]),
        keys_values_json(&planted.queries[1]),
    );
    let req = api::BatchRequest::parse(body.as_bytes(), &QueryParams::default()).unwrap();
    let opts = req.params.to_options();

    let union_snap = IndexSnapshot::from_store(&union_store, 2).unwrap();
    let query_sketches: Vec<_> = req
        .queries
        .iter()
        .map(|q| union_snap.build_query(&q.id, q.keys.clone(), q.values.clone()))
        .collect();
    let answers = engine::execute(
        union_snap.index(),
        &query_sketches,
        &opts,
        Some(req.params.alpha),
        &mut sketch_obs::Trace::disabled(),
    )
    .into_iter()
    .map(|out| out.results)
    .collect::<Vec<_>>();

    let mut merged = Vec::new();
    let mut shipped = Vec::new();
    let mut states = Vec::new();
    for (qi, q) in req.queries.iter().enumerate() {
        let single = api::QueryRequest {
            body: q.clone(),
            params: req.params,
            trace: false,
        };
        let (outcome, s) = replay_merge(&cluster.worker_dirs, &single, &opts);
        assert_eq!(
            outcome
                .winners
                .iter()
                .map(|w| &w.result)
                .collect::<Vec<_>>(),
            answers[qi].iter().map(|r| &r.result).collect::<Vec<_>>(),
            "query {qi}: replayed merge differs from the batch engine"
        );
        merged.push(outcome.merged);
        shipped.push(outcome.shipped);
        states = s;
    }
    let expected =
        api::render_coordinator_batch_response(&states, &req.params, &merged, &shipped, &answers);

    let resp = client.post("/query_batch", &body).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert_eq!(resp.body, expected);

    // Repeat is a cache hit, byte-identical.
    let resp2 = client.post("/query_batch", &body).unwrap();
    assert_eq!(resp, resp2);
    assert!(
        cluster
            .coordinator
            .stats()
            .cache_hits
            .load(Ordering::Relaxed)
            >= 1
    );
    cluster.shutdown();
}
