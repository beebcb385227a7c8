//! **Ablation: repeated-key aggregation** — how the choice of aggregate
//! function (mean/sum/min/max/first/last/count) affects sketch estimate
//! accuracy relative to the matching ground truth.
//!
//! The paper's synopsis is agnostic to the aggregation (Section 3.1); the
//! invariant this ablation demonstrates is that the sketch estimates the
//! correlation of the *aggregated* join regardless of which function the
//! application picks — i.e. accuracy should be similar across functions.
//!
//! ```text
//! cargo run --release -p sketch-bench --bin ablation_aggregation -- --scale 150
//! ```

use correlation_sketches::{join_sketches, SketchBuilder, SketchConfig};
use sketch_bench::{corpus_pairs, Args, CorpusChoice};
use sketch_stats::{rmse, CorrelationEstimator};
use sketch_table::{exact_join, Aggregation};

fn main() {
    let args = Args::from_env();
    let scale = args.get_or("scale", 150usize);
    let max_pairs = args.get_or("max-pairs", 1_000usize);
    let sketch_size = args.get_or("sketch-size", 256usize);
    let seed = args.get_or("seed", 0xab2u64);
    args.finish("ablation_aggregation");

    eprintln!("ablation_aggregation: scale={scale} max_pairs={max_pairs} k={sketch_size}");
    // NYC-like data has Zipf-repeated keys, so aggregation genuinely
    // matters here.
    let pairs = corpus_pairs(CorpusChoice::Nyc, scale, seed, max_pairs);

    println!(
        "{:<8} {:>7} {:>9} {:>12}",
        "agg", "pairs", "RMSE", "mean |err|"
    );
    for agg in Aggregation::ALL {
        let builder = SketchBuilder::new(SketchConfig::with_size(sketch_size).aggregation(agg));
        let mut ests = Vec::new();
        let mut truths = Vec::new();
        for (a, b) in &pairs {
            let joined = exact_join(a, b, agg);
            if joined.len() < 10 {
                continue;
            }
            let Ok(truth) = sketch_stats::pearson(&joined.x, &joined.y) else {
                continue;
            };
            let Ok(sample) = join_sketches(&builder.build(a), &builder.build(b)) else {
                continue;
            };
            if sample.len() < 10 {
                continue;
            }
            if let Ok(est) = sample.estimate(CorrelationEstimator::Pearson) {
                ests.push(est);
                truths.push(truth);
            }
        }
        let mean_abs = if ests.is_empty() {
            0.0
        } else {
            ests.iter()
                .zip(&truths)
                .map(|(e, t)| (e - t).abs())
                .sum::<f64>()
                / ests.len() as f64
        };
        println!(
            "{:<8} {:>7} {:>9.4} {:>12.4}",
            agg.name(),
            ests.len(),
            rmse(&ests, &truths),
            mean_abs
        );
    }
    println!(
        "\nExpected shape: similar accuracy for every aggregate function — \
         the sketch is agnostic to the aggregation because it applies the \
         same function the ground truth uses, in-stream."
    );
}
