//! Criterion micro-benchmark behind the **Section 5.5** query-latency
//! study: end-to-end top-k join-correlation queries against the inverted
//! index at increasing corpus sizes, plus the `top_k_with_reports` path
//! (the PR-over-PR perf tripwire) at 1/2/4 worker threads over a
//! ~5k-sketch corpus, the request decode that precedes every served
//! miss, and stage 1 on its own on the ledger's lake: count-only
//! retrieval, retrieval that emits the join, and count retrieval followed
//! by the merge joins it replaced.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use correlation_sketches::{
    join_sketches_into, CorrelationSketch, JoinSample, SketchBuilder, SketchConfig,
};
use sketch_datagen::{generate_open_data, split_corpus, OpenDataConfig};
use sketch_index::{engine, JoinedHits, QueryOptions, SketchIndex};
use sketch_server::api::{self, QueryBody, QueryParams, QueryRequest};

fn build_index(
    tables: usize,
    sketch_size: usize,
    seed: u64,
) -> (SketchIndex, Vec<CorrelationSketch>) {
    let config = OpenDataConfig {
        tables,
        min_rows: 50,
        max_rows: 1_000,
        ..OpenDataConfig::nyc(seed)
    };
    build_lake(&config, 0.2, sketch_size, 16)
}

/// Index the corpus side of a generated lake and sketch the first
/// `queries` columns of its query side.
fn build_lake(
    config: &OpenDataConfig,
    query_fraction: f64,
    sketch_size: usize,
    queries: usize,
) -> (SketchIndex, Vec<CorrelationSketch>) {
    let corpus_tables = generate_open_data(config);
    let split = split_corpus(&corpus_tables, query_fraction, config.seed);
    let builder = SketchBuilder::new(SketchConfig::with_size(sketch_size));
    let sketches =
        correlation_sketches::build_sketches_parallel(&split.corpus, *builder.config(), 8);
    let mut idx = SketchIndex::new();
    for s in sketches {
        idx.insert(s).expect("uniform hasher");
    }
    let queries = split
        .queries
        .iter()
        .take(queries)
        .map(|p| builder.build(p))
        .collect();
    (idx, queries)
}

fn bench_query(c: &mut Criterion) {
    let mut group = c.benchmark_group("query_latency");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.sample_size(20);
    for tables in [50usize, 200] {
        let (idx, queries) = build_index(tables, 1024, 0xbe_ec);
        let opts = QueryOptions::default();
        group.bench_with_input(
            BenchmarkId::new("top10_of_top100", tables),
            &tables,
            |b, _| {
                let mut qi = 0usize;
                b.iter(|| {
                    let q = &queries[qi % queries.len()];
                    qi += 1;
                    black_box(engine::top_k_with_plan_stats(&idx, q, &opts).0)
                })
            },
        );
    }
    group.finish();
}

/// `top_k_with_reports` over a ~5k-sketch corpus — the acceptance-criteria
/// benchmark: single-thread speed versus the seed implementation, plus
/// scaling from the `threads` knob.
fn bench_reports_5k(c: &mut Criterion) {
    // ~2900 NYC-style tables yield ≈5k corpus column pairs after the
    // 20% query split; sketch size 256 keeps setup tractable while the
    // per-query work stays join-dominated.
    let (idx, queries) = build_index(2_900, 256, 0x0005_eed5);
    eprintln!("reports_5k corpus: {} sketches", idx.len());
    let mut group = c.benchmark_group("top_k_with_reports_5k");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(3));
    group.sample_size(10);
    for threads in [1usize, 2, 4] {
        let opts = QueryOptions {
            overlap_candidates: 100,
            k: 10,
            threads,
            ..QueryOptions::default()
        };
        group.bench_with_input(BenchmarkId::new("threads", threads), &threads, |b, _| {
            let mut qi = 0usize;
            b.iter(|| {
                let q = &queries[qi % queries.len()];
                qi += 1;
                black_box(engine::top_k_with_reports(&idx, q, &opts, 0.05))
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_request_decode,
    bench_query,
    bench_reports_5k,
    bench_retrieval_only
);

/// What a served miss pays before the engine runs: one 1.5k-row `/query`
/// body (the ledger's median pool column is 1549 rows, ~48 kB) through
/// `QueryRequest::parse`. `json::parse` alone on the same bytes — the
/// tree the decode used to start from — is the floor the old path could
/// not beat.
fn bench_request_decode(c: &mut Criterion) {
    let rows = 1_500u32;
    let column = QueryBody {
        id: "pool/column".to_string(),
        keys: (0..rows)
            .map(|i| format!("key-{:07}", i.wrapping_mul(7_919) % 10_000_000))
            .collect(),
        values: (0..rows).map(|i| f64::from(i).sin() * 1_000.0).collect(),
    };
    let defaults = QueryParams::default();
    let body = api::render_shard_query_request(&column, &defaults);
    eprintln!("request_decode_48k body: {} bytes", body.len());
    let mut group = c.benchmark_group("request_decode_48k");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.bench_function("query_request_parse", |b| {
        b.iter(|| black_box(QueryRequest::parse(black_box(body.as_bytes()), &defaults)))
    });
    group.bench_function("json_parse_tree", |b| {
        b.iter(|| black_box(correlation_sketches::json::parse(black_box(&body))))
    });
    group.finish();
}

/// Stage 1 on the ledger's lake (1600 NYC-style tables, 30% query split,
/// sketch size 1024 → 2813 indexed sketches), top-100 of 64 pool
/// queries: `top100` counts and selects, `top100_joined` also emits the
/// hundred join samples, and `top100_then_merge` is what the engine did
/// before postings carried values — count, then one merge walk per hit.
fn bench_retrieval_only(c: &mut Criterion) {
    let config = OpenDataConfig {
        tables: 1_600,
        ..OpenDataConfig::nyc(0x0055_5eed)
    };
    let (idx, queries) = build_lake(&config, 0.3, 1024, 64);
    eprintln!("overlap_retrieval corpus: {} sketches", idx.len());
    let mut group = c.benchmark_group("overlap_retrieval");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.bench_function("top100", |b| {
        let mut qi = 0usize;
        b.iter(|| {
            let q = &queries[qi % queries.len()];
            qi += 1;
            black_box(idx.overlap_candidates(q, 100))
        })
    });
    group.bench_function("top100_joined", |b| {
        let (mut qi, mut joined) = (0usize, JoinedHits::default());
        b.iter(|| {
            let q = &queries[qi % queries.len()];
            qi += 1;
            idx.retrieve_joined(q, 100, &mut joined);
            black_box(joined.hits().len())
        })
    });
    group.bench_function("top100_then_merge", |b| {
        let (mut qi, mut sample) = (0usize, JoinSample::default());
        b.iter(|| {
            let q = &queries[qi % queries.len()];
            qi += 1;
            let mut rows = 0usize;
            for (doc, _) in idx.overlap_candidates(q, 100) {
                let sketch = idx.get(doc).expect("retrieved docs are live");
                join_sketches_into(q, sketch, &mut sample).expect("one hasher per lake");
                rows += black_box(&sample).len();
            }
            rows
        })
    });
    group.finish();
}

criterion_main!(benches);
