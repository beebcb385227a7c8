//! Persisting and searching a sketch corpus: build sketches for a
//! simulated data lake, serialize them to JSON (the offline indexing
//! artifact), reload, and serve interactive top-k join-correlation
//! queries — the deployment shape sketched in paper Sections 1 and 5.5.
//!
//! ```text
//! cargo run --release --example index_search
//! ```

use std::time::Instant;

use join_correlation::datagen::{generate_open_data, split_corpus, OpenDataConfig};
use join_correlation::index::{engine, QueryOptions, SketchIndex};
use join_correlation::sketches::{CorrelationSketch, SketchBuilder, SketchConfig};

fn main() {
    let tables = generate_open_data(&OpenDataConfig {
        tables: 120,
        ..OpenDataConfig::nyc(7)
    });
    let split = split_corpus(&tables, 0.2, 7);
    let builder = SketchBuilder::new(SketchConfig::with_size(512));

    // --- Offline: sketch every corpus column pair and persist. ---
    let t0 = Instant::now();
    let serialized: Vec<String> = split
        .corpus
        .iter()
        .map(|p| builder.build(p).to_json().expect("serializable"))
        .collect();
    let bytes: usize = serialized.iter().map(String::len).sum();
    println!(
        "offline: sketched + serialized {} column pairs in {:.1} ms ({:.1} KiB total)",
        serialized.len(),
        t0.elapsed().as_secs_f64() * 1e3,
        bytes as f64 / 1024.0
    );

    // --- Startup: load the persisted sketches into the inverted index. ---
    let t0 = Instant::now();
    let mut index = SketchIndex::new();
    for json in &serialized {
        let sketch = CorrelationSketch::from_json(json).expect("round-trip");
        index.insert(sketch).expect("uniform hasher");
    }
    println!(
        "startup: loaded {} sketches ({} distinct keys) in {:.1} ms",
        index.len(),
        index.distinct_keys(),
        t0.elapsed().as_secs_f64() * 1e3
    );

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
