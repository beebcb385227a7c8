//! **Table 2** — running times (ms) for computing joins and correlations
//! using the full data vs. the sketches.
//!
//! Columns: full-data join, full-data Spearman (`r_s`), full-data Pearson
//! (`r_p`), sketch join, sketch Pearson, sketch Spearman. Rows: mean,
//! std-dev, p75, p90, p99, p99.9.
//!
//! ```text
//! cargo run --release -p sketch-bench --bin table2_runtime -- \
//!     --dataset nyc --scale 200 --max-pairs 800 --sketch-size 1024
//! ```
//!
//! Paper reference points: sketch operations are orders of magnitude
//! faster than full-data operations and — because sketch size is fixed —
//! have far smaller tail percentiles (predictable latency).

use correlation_sketches::{join_sketches, CorrelationSketch, SketchBuilder, SketchConfig};
use sketch_bench::{corpus_pairs, time_ms, Args, CorpusChoice, LatencySummary};
use sketch_stats::{pearson, spearman};
use sketch_table::{exact_join, Aggregation};

fn main() {
    let args = Args::from_env();
    let dataset: CorpusChoice = args
        .get("dataset")
        .unwrap_or("nyc")
        .parse()
        .expect("--dataset sbn|wbf|nyc");
    let scale = args.get_or("scale", 200usize);
    let max_pairs = args.get_or("max-pairs", 800usize);
    let sketch_size = args.get_or("sketch-size", 1024usize);
    let seed = args.get_or("seed", 0x7ab2u64);
    args.finish("table2_runtime");

    eprintln!(
        "table2: dataset={dataset} scale={scale} max_pairs={max_pairs} sketch_size={sketch_size}"
    );

    let pairs = corpus_pairs(dataset, scale, seed, max_pairs);
    let builder = SketchBuilder::new(SketchConfig::with_size(sketch_size));

    // Pre-build sketches: construction is an offline indexing cost, not a
    // query-time cost (the paper's comparison is join+estimate).
    let sketches: Vec<(CorrelationSketch, CorrelationSketch)> = pairs
        .iter()
        .map(|(a, b)| (builder.build(a), builder.build(b)))
        .collect();

    let mut full_join = Vec::new();
    let mut full_rp = Vec::new();
    let mut full_rs = Vec::new();
    let mut sk_join = Vec::new();
    let mut sk_rp = Vec::new();
    let mut sk_rs = Vec::new();

    for ((a, b), (sa, sb)) in pairs.iter().zip(&sketches) {
        let (joined, t_join) = time_ms(|| exact_join(a, b, Aggregation::Mean));
        full_join.push(t_join);
        if joined.len() >= 3 {
            let (_, t_rp) = time_ms(|| pearson(&joined.x, &joined.y));
            let (_, t_rs) = time_ms(|| spearman(&joined.x, &joined.y));
            full_rp.push(t_rp);
            full_rs.push(t_rs);
        }

        let (sample, t_sj) = time_ms(|| join_sketches(sa, sb).expect("same hasher"));
        sk_join.push(t_sj);
        if sample.len() >= 3 {
            let (_, t_rp) = time_ms(|| pearson(&sample.x, &sample.y));
            let (_, t_rs) = time_ms(|| spearman(&sample.x, &sample.y));
            sk_rp.push(t_rp);
            sk_rs.push(t_rs);
        }
    }

    println!(
        "\nTable 2 — running times in milliseconds ({} pairs)",
        pairs.len()
    );
    println!(
        "{:<12} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "", "full join", "full r_s", "full r_p", "sk join", "sk r_p", "sk r_s"
    );
    type Extract = fn(&LatencySummary) -> f64;
    let rows: [(&str, Extract); 6] = [
        ("mean", |s| s.mean),
        ("std. dev.", |s| s.std_dev),
        ("75%", |s| s.p75),
        ("90%", |s| s.p90),
        ("99%", |s| s.p99),
        ("99.9%", |s| s.p999),
    ];
    let summaries = [
        LatencySummary::of(&full_join),
        LatencySummary::of(&full_rs),
        LatencySummary::of(&full_rp),
        LatencySummary::of(&sk_join),
        LatencySummary::of(&sk_rp),
        LatencySummary::of(&sk_rs),
    ];
    for (label, extract) in rows {
        print!("{label:<12}");
        for s in &summaries {
            print!(" {:>12.4}", extract(s));
        }
        println!();
    }
    println!(
        "\nExpected shape (paper Table 2): sketch columns orders of magnitude \
         below full-data columns, with much flatter tails (fixed sketch size \
         ⇒ predictable latency)."
    );
}
