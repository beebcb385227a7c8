//! **Figure 5** — distribution of per-query metric scores for the `jc`
//! baseline vs. the Hoeffding-based scorer `rp*cih`.
//!
//! The paper plots, for each metric (MAP .75 / MAP .50 / nDCG@5 /
//! nDCG@10), a histogram of the per-query scores under each scoring
//! function; the `rp*cih` rows shift mass from the left (bad) to the
//! right (good) bins.
//!
//! ```text
//! cargo run --release -p sketch-bench --bin fig5_histograms -- \
//!     --tables 200 --queries 60
//! ```

use sketch_bench::Args;
use sketch_datagen::{generate_open_data, split_corpus, OpenDataConfig};
use sketch_ranking::evaluation::Metric;
use sketch_ranking::{run_ranking_experiment, RankingConfig};
use sketch_stats::metrics::histogram;

const BINS: usize = 10;

fn main() {
    let args = Args::from_env();
    let tables = args.get_or("tables", 200usize);
    let queries = args.get_or("queries", 60usize);
    let seed = args.get_or("seed", 0x515u64);

    eprintln!("fig5: tables={tables} queries={queries} seed={seed}");

    let corpus_tables = generate_open_data(&OpenDataConfig {
        tables,
        ..OpenDataConfig::nyc(seed)
    });
    let mut split = split_corpus(&corpus_tables, 0.25, seed);
    split.queries.truncate(queries);

    let cfg = RankingConfig {
        seed,
        ..RankingConfig::default()
    };
    let report = run_ranking_experiment(&split.queries, &split.corpus, &cfg);
    eprintln!("queries evaluated: {}", report.per_query.len());

    let metrics: [(&str, Metric); 4] = [
        ("MAP(r>.75)", |m| m.map_high),
        ("MAP(r>.50)", |m| m.map_mid),
        ("nDCG@5", |m| m.ndcg_a),
        ("nDCG@10", |m| m.ndcg_b),
    ];
    let scorers = ["jc", "rp*cih"];

    for (name, metric) in metrics {
        println!("\n=== {name} — queries per score bin (bins of width 0.1) ===");
        for scorer in scorers {
            let scores = report.per_query_scores(scorer, metric);
            let hist = histogram(&scores, BINS, 0.0, 1.0000001);
            let max = hist.iter().copied().max().unwrap_or(1).max(1);
            println!("{scorer}:");
            for (b, &count) in hist.iter().enumerate() {
                let bar = "#".repeat(count * 40 / max);
                println!(
                    "  [{:.1},{:.1}) {:>4} {bar}",
                    b as f64 / 10.0,
                    (b + 1) as f64 / 10.0,
                    count
                );
            }
        }
    }
    println!(
        "\nExpected shape (paper Fig. 5): rp*cih mass shifts right relative \
         to jc in every metric."
    );
}
