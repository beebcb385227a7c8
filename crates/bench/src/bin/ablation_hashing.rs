//! **Ablation: hash configuration** — the paper's 32-bit MurmurHash3
//! setup vs. this crate's 64-bit default, at corpus scale.
//!
//! With 32-bit identifiers, distinct keys start colliding around the
//! birthday bound (~65k keys); a collision merges two unrelated keys'
//! aggregates and can pair unrelated values in joins. This ablation
//! measures whether that is visible in estimate accuracy at realistic
//! column cardinalities.
//!
//! ```text
//! cargo run --release -p sketch-bench --bin ablation_hashing -- --scale 150
//! ```

use correlation_sketches::{join_sketches, SketchBuilder, SketchConfig};
use sketch_bench::{corpus_pairs, Args, CorpusChoice};
use sketch_hashing::TupleHasher;
use sketch_stats::{rmse, CorrelationEstimator};
use sketch_table::{exact_join, Aggregation};

fn main() {
    let args = Args::from_env();
    let scale = args.get_or("scale", 150usize);
    let max_pairs = args.get_or("max-pairs", 1_200usize);
    let sketch_size = args.get_or("sketch-size", 256usize);
    let seed = args.get_or("seed", 0xab4u64);
    args.finish("ablation_hashing");

    eprintln!("ablation_hashing: scale={scale} max_pairs={max_pairs} k={sketch_size}");
    let pairs = corpus_pairs(CorpusChoice::Nyc, scale, seed, max_pairs);

    let configs = [
        ("murmur3-64", TupleHasher::new_64(0)),
        ("murmur3-32 (paper)", TupleHasher::paper_32(0)),
    ];

    println!(
        "{:<20} {:>7} {:>9} {:>11}",
        "hasher", "pairs", "RMSE", "med join"
    );
    for (name, hasher) in configs {
        let builder = SketchBuilder::new(SketchConfig::with_size(sketch_size).hasher(hasher));
        let mut ests = Vec::new();
        let mut truths = Vec::new();
        let mut joins = Vec::new();
        for (a, b) in &pairs {
            let joined = exact_join(a, b, Aggregation::Mean);
            if joined.len() < 3 {
                continue;
            }
            let Ok(truth) = sketch_stats::pearson(&joined.x, &joined.y) else {
                continue;
            };
            let Ok(sample) = join_sketches(&builder.build(a), &builder.build(b)) else {
                continue;
            };
            if sample.len() < 3 {
                continue;
            }
            joins.push(sample.len());
            if let Ok(est) = sample.estimate(CorrelationEstimator::Pearson) {
                ests.push(est);
                truths.push(truth);
            }
        }
        joins.sort_unstable();
        println!(
            "{:<20} {:>7} {:>9.4} {:>11}",
            name,
            ests.len(),
            rmse(&ests, &truths),
            joins.get(joins.len() / 2).copied().unwrap_or(0)
        );
    }
    println!(
        "\nExpected shape: near-identical accuracy at these cardinalities \
         (collisions are rare below the 32-bit birthday bound); 64-bit \
         identifiers remove the corpus-size ceiling at 2x entry size."
    );
}
