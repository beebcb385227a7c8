//! Production-shaped ingestion: rows arrive in shards and are sketched
//! incrementally (push API), and the rest of the lake is sketched in
//! parallel — both bit-identical to a one-shot build.
//!
//! ```text
//! cargo run --release --example partitioned_ingest
//! ```

use join_correlation::sketches::{
    build_sketches_parallel, join_sketches, SketchBuilder, SketchConfig, StreamingSketchBuilder,
};
use join_correlation::stats::CorrelationEstimator;
use join_correlation::table::{Aggregation, ColumnPair};

fn main() {
    // A "sensor" table that arrives in four shards of (station,
    // reading-count) rows.
    let config = SketchConfig::with_size(256).aggregation(Aggregation::Count);
    let shard_rows = |s: usize| -> Vec<(String, f64)> {
        (0..50_000)
            .map(|i| {
                let station = (i * 7 + s * 13) % 9_000;
                (format!("station-{station}"), 1.0)
            })
            .collect()
    };

    // 1. Incremental (push-based) sketching — the shape of a streaming
    //    ingestion pipeline: one builder, each shard pushed as it lands.
    let mut builder = StreamingSketchBuilder::new("sensors/station/events", config);
    for s in 0..4 {
        for (k, v) in shard_rows(s) {
            builder.push(&k, v);
        }
        println!(
            "after shard {s}: {} rows pushed, {} tuples retained",
            builder.rows_scanned(),
            builder.len()
        );
    }
    let streamed = builder.finish();

    // Cross-check against a one-shot build over the concatenated shards.
    let mut all_keys = Vec::new();
    let mut all_vals = Vec::new();
    for s in 0..4 {
        for (k, v) in shard_rows(s) {
            all_keys.push(k);
            all_vals.push(v);
        }
    }
    let whole = ColumnPair::new("sensors", "station", "events", all_keys, all_vals);
    assert_eq!(streamed, SketchBuilder::new(config).build(&whole));
    println!(
        "\nstreamed sketch == one-shot sketch over {} rows ({} tuples)",
        streamed.rows_scanned(),
        streamed.len()
    );

    // 2. Parallel corpus sketching for the rest of the lake.
    let corpus: Vec<ColumnPair> = (0..64)
        .map(|t| {
            ColumnPair::new(
                format!("table{t}"),
                "station",
                "metric",
                (0..8_000)
                    .map(|i| format!("station-{}", (i + t * 31) % 9_000))
                    .collect(),
                (0..8_000)
                    .map(|i| ((i + t) as f64 * 0.11).sin() * 5.0)
                    .collect(),
            )
        })
        .collect();
    let t0 = std::time::Instant::now();
    let serial = build_sketches_parallel(&corpus, SketchConfig::with_size(256), 1);
    let t_serial = t0.elapsed();
    let t0 = std::time::Instant::now();
    let parallel = build_sketches_parallel(&corpus, SketchConfig::with_size(256), 8);
    let t_parallel = t0.elapsed();
    assert_eq!(serial, parallel);
    println!(
        "parallel corpus sketching: {} pairs in {:.0} ms (serial {:.0} ms, identical output)",
        corpus.len(),
        t_parallel.as_secs_f64() * 1e3,
        t_serial.as_secs_f64() * 1e3,
    );

    // 3. The streamed sketch is a first-class citizen: join it against a
    //    corpus sketch and estimate.
    let sample = join_sketches(&streamed, &parallel[0]).expect("same hasher");
    println!(
        "\nstreamed sketch ⨝ corpus sketch: {} shared stations, r^ = {}",
        sample.len(),
        sample
            .estimate(CorrelationEstimator::Pearson)
            .map_or_else(|e| format!("({e})"), |r| format!("{r:+.3}"))
    );
}
