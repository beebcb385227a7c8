//! **Table 1** — ranking quality of the scoring functions: MAP at
//! relevance thresholds `r > 0.75` and `r > 0.50`, and nDCG@5 / nDCG@10,
//! with relative improvement over the `jc` (Jaccard containment)
//! baseline, every correlation row ranked by the served `score_estimates`.
//!
//! ```text
//! cargo run --release -p sketch-bench --bin table1_ranking -- \
//!     --tables 200 --queries 60 --sketch-size 256
//! ```
//!
//! Paper reference points (NYC): all correlation-based scorers improve
//! 15–193% over `jc` depending on the metric; `jc`/`ĵc` are close to
//! `random`; `rp*cih` is best or near-best at MAP(0.75). The first is
//! checked below, at bands from the default run; the exit code is the gate.

use sketch_bench::Args;
use sketch_datagen::{generate_open_data, split_corpus, OpenDataConfig};
use sketch_ranking::evaluation::Metric;
use sketch_ranking::{run_ranking_experiment, RankingConfig, ROWS};

/// The paper's correlation rows: each must reach [`MIN_FACTOR`] times each
/// of [`BASELINES`] on every metric defined on >= [`MIN_QUERIES`] queries.
const GATED: [&str; 4] = ["rp", "rp*sez", "rb*cib", "rp*cih"];
const BASELINES: [&str; 3] = ["jc", "jc_est", "random"];
const MIN_QUERIES: usize = 10;
/// The default run's narrowest margin is 1.83x (`rb*cib` 0.788 against
/// `random` 0.430 on nDCG@10).
const MIN_FACTOR: f64 = 1.5;
/// How far `jc_est` may sit from `jc`; the default run's largest gap is
/// 0.010 (MAP at `r > .50`).
const MAX_JC_GAP: f64 = 0.02;

const SECTIONS: [(&str, Metric); 4] = [
    ("(a) MAP (r > .75)", |m| m.map_high),
    ("(b) MAP (r > .50)", |m| m.map_mid),
    ("(c) nDCG@5", |m| m.ndcg_a),
    ("(d) nDCG@10", |m| m.ndcg_b),
];

fn main() {
    let args = Args::from_env();
    let tables = args.get_or("tables", 200usize);
    let queries = args.get_or("queries", 60usize);
    let sketch_size = args.get_or("sketch-size", 256usize);
    let seed = args.get_or("seed", 0x7ab1u64);

    eprintln!("table1: tables={tables} queries={queries} sketch_size={sketch_size} seed={seed}");

    let corpus_tables = generate_open_data(&OpenDataConfig {
        tables,
        ..OpenDataConfig::nyc(seed)
    });
    let mut split = split_corpus(&corpus_tables, 0.25, seed);
    split.queries.truncate(queries);
    eprintln!(
        "query set: {} pairs, corpus set: {} pairs",
        split.queries.len(),
        split.corpus.len()
    );

    let cfg = RankingConfig {
        sketch_size,
        seed,
        ..RankingConfig::default()
    };
    let report = run_ranking_experiment(&split.queries, &split.corpus, &cfg);
    eprintln!(
        "queries with joinable candidates: {}",
        report.per_query.len()
    );

    let (mut gated, mut failures) = (0usize, Vec::new());
    for (title, metric) in SECTIONS {
        // Whether a query has a relevant candidate does not depend on who
        // ranks it: a metric is defined on the same queries for every row.
        let cell = |label: &str| report.mean_of(label, metric);
        let base = cell("jc");
        println!("\nTable 1{title} — {} queries", base.queries);
        println!("{:<10} {:>8} {:>9}", "ranker", "score", "%");
        let mut rows: Vec<(&str, Option<f64>)> = ROWS.map(|l| (l, cell(l).mean)).to_vec();
        rows.sort_by(|a, b| b.1.unwrap_or(0.0).total_cmp(&a.1.unwrap_or(0.0)));
        let above_zero = base.mean.filter(|&b| b > 0.0);
        for (name, score) in rows {
            let Some(score) = score else {
                println!("{name:<10} {:>8} {:>9}", "n/a", "n/a");
                continue;
            };
            let pct = above_zero.map_or(0.0, |b| (score - b) / b * 100.0);
            println!("{name:<10} {score:>8.3} {pct:>8.1}%");
        }
        if base.queries >= MIN_QUERIES {
            gated += 1;
            let broken = shape_violations(&|label| cell(label).mean.unwrap_or(0.0));
            failures.extend(broken.into_iter().map(|why| format!("{title}: {why}")));
        }
    }

    println!(
        "\nShape (paper Table 1), on every metric defined on >= {MIN_QUERIES} queries: each of \
         {GATED:?} at least {MIN_FACTOR}x each of {BASELINES:?}; jc_est within {MAX_JC_GAP} of jc."
    );
    // The paper's third claim — risk-penalized scorers at or above plain
    // rp at MAP(r > .75) — is reported, not gated: on this synthetic
    // corpus rp ties or leads.
    let map_high = |label| report.mean_of(label, |m| m.map_high).mean;
    if let Some(rp) = map_high("rp") {
        let deltas = ["rp*cih", "rb*cib", "rp*sez", "s4"]
            .map(|l| format!("{l} {:+.3}", map_high(l).unwrap_or(rp) - rp));
        println!(
            "Reported, not gated — against plain rp at MAP(r > .75): {}.",
            deltas.join(", ")
        );
    }
    if failures.is_empty() {
        println!("table1: OK — {gated} of 4 metrics gated");
    } else {
        for why in &failures {
            eprintln!("table1: FAIL — {why}");
        }
        std::process::exit(1);
    }
}

/// Which of the bands one metric's row means (`mean_of`) break.
fn shape_violations(mean_of: &dyn Fn(&str) -> f64) -> Vec<String> {
    let mut broken = Vec::new();
    for row in GATED {
        for baseline in BASELINES {
            let (score, floor) = (mean_of(row), mean_of(baseline));
            if score < MIN_FACTOR * floor {
                broken.push(format!(
                    "{row} {score:.3} is below {MIN_FACTOR}x {baseline} {floor:.3}"
                ));
            }
        }
    }
    let gap = (mean_of("jc") - mean_of("jc_est")).abs();
    if gap > MAX_JC_GAP {
        broken.push(format!(
            "jc_est is {gap:.3} from jc, more than {MAX_JC_GAP}"
        ));
    }
    broken
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bands_hold_on_the_default_runs_narrowest_metric_and_break_when_moved() {
        // nDCG@10 of the default run, in ROWS order.
        let mut means = [0.794, 0.788, 0.825, 0.802, 0.763, 0.372, 0.370, 0.430];
        let of = |means: [f64; 8]| move |l: &str| means[ROWS.iter().position(|r| *r == l).unwrap()];
        assert_eq!(shape_violations(&of(means)), Vec::<String>::new());
        means[1] = 0.6; // rb*cib: 1.40x random
        means[6] = 0.34; // jc_est: 0.032 from jc
        let broken = shape_violations(&of(means));
        assert_eq!(broken.len(), 2, "{broken:?}");
        assert!(broken[0].starts_with("rb*cib 0.600 is below 1.5x random 0.430"));
        assert!(broken[1].starts_with("jc_est is 0.032 from jc"));
    }
}
