//! Persisting and searching a sketch corpus: build sketches for a
//! simulated data lake, pack them into a corpus store on disk (the
//! offline indexing artifact), load the store into the inverted index,
//! and serve interactive top-k join-correlation queries — the deployment
//! shape sketched in paper Sections 1 and 5.5.
//!
//! ```text
//! cargo run --release --example index_search
//! ```

use std::time::Instant;

use join_correlation::datagen::{generate_open_data, split_corpus, OpenDataConfig};
use join_correlation::index::{engine, QueryOptions, SketchIndex};
use join_correlation::sketches::{SketchBuilder, SketchConfig};
use join_correlation::store::{pack_corpus, stat_corpus, PackOptions};

fn main() {
    let tables = generate_open_data(&OpenDataConfig {
        tables: 120,
        ..OpenDataConfig::nyc(7)
    });
    let split = split_corpus(&tables, 0.2, 7);
    let builder = SketchBuilder::new(SketchConfig::with_size(512));
    let store = std::env::temp_dir().join(format!("index-search-{}", std::process::id()));

    // --- Offline: sketch every corpus column pair and pack the store. ---
    let t0 = Instant::now();
    let sketches: Vec<_> = split.corpus.iter().map(|p| builder.build(p)).collect();
    let options = PackOptions {
        shards: 4,
        threads: 2,
    };
    pack_corpus(&store, &sketches, &options).expect("writable temp dir");
    println!(
        "offline: sketched + packed {} column pairs in {:.1} ms ({:.1} KiB on disk)",
        sketches.len(),
        t0.elapsed().as_secs_f64() * 1e3,
        stat_corpus(&store).expect("just packed").disk_bytes() as f64 / 1024.0
    );

    // --- Startup: load the packed store into the inverted index. ---
    let t0 = Instant::now();
    let index = SketchIndex::from_store(&store, 2).expect("just packed");
    println!(
        "startup: loaded {} sketches ({} distinct keys) in {:.1} ms",
        index.len(),
        index.distinct_keys(),
        t0.elapsed().as_secs_f64() * 1e3
    );
    let _ = std::fs::remove_dir_all(&store);

    // --- Online: serve queries. ---
    let opts = QueryOptions {
        overlap_candidates: 100,
        k: 5,
        ..QueryOptions::default()
    };
    let mut latencies = Vec::new();
    for q in split.queries.iter().take(20) {
        let t0 = Instant::now();
        let q_sketch = builder.build(q);
        let results = engine::top_k_with_plan_stats(&index, &q_sketch, &opts).0;
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        latencies.push(ms);
        if let Some(top) = results.first() {
            println!(
                "query {:<26} -> best match {:<26} (r^ = {}, n = {}) in {:.2} ms",
                q.id(),
                top.id,
                top.estimate
                    .map_or_else(|| "-".into(), |e| format!("{e:+.2}")),
                top.sample_size,
                ms
            );
        }
    }
    latencies.sort_by(f64::total_cmp);
    if !latencies.is_empty() {
        println!(
            "\nquery latency: median {:.2} ms, max {:.2} ms — the interactive \
             regime the paper reports (94% of queries under 100 ms).",
            latencies[latencies.len() / 2],
            latencies[latencies.len() - 1]
        );
    }
}
