//! Batch query determinism (mirroring PR 1's thread-equivalence tests)
//! and index construction from a packed binary corpus store.

use correlation_sketches::{CorrelationSketch, SketchBuilder, SketchConfig};
use sketch_index::{engine, QueryOptions, QueryResult, ReportedResult, SketchIndex};
use sketch_obs::Trace;
use sketch_store::{pack_corpus, PackOptions};
use sketch_table::ColumnPair;

/// Corpus of staggered, varied columns plus a set of query sketches.
fn fixture(tables: usize, queries: usize) -> (Vec<CorrelationSketch>, Vec<CorrelationSketch>) {
    let b = SketchBuilder::new(SketchConfig::with_size(128));
    let n = 600usize;
    let corpus: Vec<CorrelationSketch> = (0..tables)
        .map(|t| {
            let lo = (t * 41) % 400;
            b.build(&ColumnPair::new(
                format!("t{t}"),
                "k",
                "v",
                (lo..lo + n).map(|i| format!("key-{i}")).collect(),
                (lo..lo + n)
                    .map(|i| ((i as f64) * 0.13 + t as f64).sin() * (t + 1) as f64)
                    .collect(),
            ))
        })
        .collect();
    let query_sketches: Vec<CorrelationSketch> = (0..queries)
        .map(|q| {
            let lo = (q * 29) % 300;
            b.build(&ColumnPair::new(
                format!("q{q}"),
                "k",
                "v",
                (lo..lo + n).map(|i| format!("key-{i}")).collect(),
                (lo..lo + n)
                    .map(|i| ((i as f64) * 0.11).sin() * 4.0)
                    .collect(),
            ))
        })
        .collect();
    (corpus, query_sketches)
}

struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("cskb-index-test-{tag}-{}", std::process::id()));
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

/// `engine::execute` over a batch with reports, untraced.
fn execute_batch_with_reports(
    index: &SketchIndex,
    queries: &[CorrelationSketch],
    opts: &QueryOptions,
    alpha: f64,
) -> Vec<Vec<ReportedResult>> {
    engine::execute(index, queries, opts, Some(alpha), &mut Trace::disabled())
        .into_iter()
        .map(|out| out.results)
        .collect()
}

/// `engine::execute` over a batch without reports: the ranked results.
fn execute_batch(
    index: &SketchIndex,
    queries: &[CorrelationSketch],
    opts: &QueryOptions,
) -> Vec<Vec<QueryResult>> {
    engine::execute(index, queries, opts, None, &mut Trace::disabled())
        .into_iter()
        .map(|out| out.results.into_iter().map(|r| r.result).collect())
        .collect()
}

#[test]
fn batch_identical_to_looping_for_every_thread_count() {
    let (corpus, queries) = fixture(30, 12);
    let index = SketchIndex::from_sketches(corpus).unwrap();
    let serial = QueryOptions {
        k: 15,
        threads: 1,
        ..QueryOptions::default()
    };

    // The reference: one serial single-query call per query sketch.
    let looped: Vec<Vec<_>> = queries
        .iter()
        .map(|q| engine::top_k_with_plan_stats(&index, q, &serial).0)
        .collect();
    let looped_reports: Vec<Vec<_>> = queries
        .iter()
        .map(|q| engine::top_k_with_reports(&index, q, &serial, 0.05))
        .collect();
    assert!(looped.iter().any(|r| !r.is_empty()));

    for threads in [0usize, 1, 2, 7, 16] {
        let opts = QueryOptions { threads, ..serial };
        assert_eq!(
            execute_batch(&index, &queries, &opts),
            looped,
            "threads={threads}"
        );
        assert_eq!(
            execute_batch_with_reports(&index, &queries, &opts, 0.05),
            looped_reports,
            "reports, threads={threads}"
        );
    }
}

#[test]
fn batch_of_one_and_empty_batch() {
    let (corpus, queries) = fixture(8, 2);
    let index = SketchIndex::from_sketches(corpus).unwrap();
    let opts = QueryOptions {
        threads: 4,
        ..QueryOptions::default()
    };
    assert!(execute_batch(&index, &[], &opts).is_empty());
    let single = execute_batch(&index, &queries[..1], &opts);
    assert_eq!(single.len(), 1);
    assert_eq!(
        single[0],
        engine::top_k_with_plan_stats(&index, &queries[0], &opts).0
    );
}

#[test]
fn from_store_equals_insertion_order_index() {
    let (corpus, queries) = fixture(20, 5);
    let dir = TempDir::new("from-store");
    pack_corpus(
        &dir.0,
        &corpus,
        &PackOptions {
            shards: 5,
            threads: 2,
        },
    )
    .unwrap();

    let direct = SketchIndex::from_sketches(corpus.clone()).unwrap();
    for threads in [1usize, 4] {
        let from_store = SketchIndex::from_store(&dir.0, threads).unwrap();
        assert_eq!(from_store.len(), direct.len());
        assert_eq!(from_store.distinct_keys(), direct.distinct_keys());
        // Doc ids follow pack order, so queries answer identically.
        let opts = QueryOptions::default();
        for q in &queries {
            assert_eq!(
                engine::top_k_with_plan_stats(&from_store, q, &opts).0,
                engine::top_k_with_plan_stats(&direct, q, &opts).0,
            );
        }
    }
}

#[test]
fn from_store_surfaces_corruption() {
    let (corpus, _) = fixture(6, 1);
    let dir = TempDir::new("from-store-corrupt");
    pack_corpus(
        &dir.0,
        &corpus,
        &PackOptions {
            shards: 2,
            threads: 1,
        },
    )
    .unwrap();
    // Flip one payload byte in shard 0.
    let shard = dir.0.join("shard-0000.cskb");
    let mut bytes = std::fs::read(&shard).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&shard, bytes).unwrap();
    let err = SketchIndex::from_store(&dir.0, 2).unwrap_err();
    assert!(
        err.as_sketch_error().is_some(),
        "corruption must surface as a typed sketch error: {err}"
    );
}
