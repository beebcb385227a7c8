//! **Ablation: tuple-selection strategy** — fixed-size (the paper's
//! choice) vs. threshold/G-KMV-style sketches at matched expected memory.
//!
//! The paper (Sections 3.3, 6) argues fixed-size sketches give
//! predictable space and latency, while threshold sketches spend space
//! proportional to column cardinality; exploring the trade-off is listed
//! as future work. This binary compares estimation RMSE and realized
//! sketch sizes at matched memory budgets.
//!
//! ```text
//! cargo run --release -p sketch-bench --bin ablation_selection -- --scale 200
//! ```

use correlation_sketches::{join_sketches, SelectionStrategy, SketchBuilder, SketchConfig};
use sketch_bench::{corpus_pairs, Args, CorpusChoice};
use sketch_stats::{rmse, CorrelationEstimator};
use sketch_table::{exact_join, Aggregation};

fn main() {
    let args = Args::from_env();
    let scale = args.get_or("scale", 200usize);
    let max_pairs = args.get_or("max-pairs", 1_500usize);
    let seed = args.get_or("seed", 0xab1u64);
    let budget = args.get_or("budget", 256usize); // target tuples per sketch
    args.finish("ablation_selection");

    eprintln!("ablation_selection: scale={scale} max_pairs={max_pairs} budget={budget}");
    let pairs = corpus_pairs(CorpusChoice::Nyc, scale, seed, max_pairs);

    // Median distinct-key count calibrates the threshold so both
    // strategies spend roughly the same expected memory.
    let mut distincts: Vec<usize> = pairs
        .iter()
        .flat_map(|(a, b)| [a.distinct_keys(), b.distinct_keys()])
        .collect();
    distincts.sort_unstable();
    let median_d = distincts[distincts.len() / 2].max(1);
    let threshold = (budget as f64 / median_d as f64).min(1.0);
    eprintln!("median distinct keys: {median_d}; matched threshold t = {threshold:.4}");

    let strategies = [
        SelectionStrategy::FixedSize(budget),
        SelectionStrategy::Threshold(threshold),
    ];

    println!(
        "{:<22} {:>7} {:>10} {:>10} {:>10} {:>9}",
        "strategy", "pairs", "med size", "max size", "med join", "RMSE"
    );
    for strat in strategies {
        let cfg = SketchConfig {
            strategy: strat,
            ..SketchConfig::with_size(budget)
        };
        let builder = SketchBuilder::new(cfg);

        let mut sizes = Vec::new();
        let mut joins = Vec::new();
        let mut ests = Vec::new();
        let mut truths = Vec::new();
        for (a, b) in &pairs {
            let joined = exact_join(a, b, Aggregation::Mean);
            if joined.len() < 3 {
                continue;
            }
            let Ok(truth) = sketch_stats::pearson(&joined.x, &joined.y) else {
                continue;
            };
            let (sa, sb) = (builder.build(a), builder.build(b));
            sizes.push(sa.len());
            sizes.push(sb.len());
            let Ok(sample) = join_sketches(&sa, &sb) else {
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
        sizes.sort_unstable();
        joins.sort_unstable();
        let med = |v: &[usize]| v.get(v.len() / 2).copied().unwrap_or(0);
        println!(
            "{:<22} {:>7} {:>10} {:>10} {:>10} {:>9.4}",
            strat.describe(),
            ests.len(),
            med(&sizes),
            sizes.last().copied().unwrap_or(0),
            med(&joins),
            rmse(&ests, &truths)
        );
    }
    println!(
        "\nExpected shape: comparable RMSE at matched budgets, but the \
         threshold strategy's realized sizes vary with column cardinality \
         (unpredictable memory/latency), which is why the paper fixes the \
         sketch size."
    );
}
