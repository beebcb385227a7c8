//! **Table 1** — ranking quality of the scoring functions: MAP at
//! relevance thresholds `r > 0.75` and `r > 0.50`, and nDCG@5 / nDCG@10,
//! with relative improvement over the `jc` (Jaccard containment)
//! baseline, every correlation row ranked by the served `score_estimates`.
//! **Figure 5** — the per-query distribution behind those means, for `jc`
//! and the Hoeffding-based scorer `rp*cih` — is printed from the same
//! report.
//!
//! ```text
//! cargo run --release -p sketch-bench --bin table1_ranking -- \
//!     --tables 200 --queries 60 --sketch-size 256
//! ```
//!
//! Paper reference points (NYC): all correlation-based scorers improve
//! 15–193% over `jc` depending on the metric; `jc`/`ĵc` are close to
//! `random`; `rp*cih` is best or near-best at MAP(0.75); and in Figure 5
//! `rp*cih` shifts the per-query mass to the right of `jc` on every
//! metric. The first, second and fourth are checked below, at the bands
//! each constant names its runs for; the exit code is the gate, and a run
//! that can gate no metric fails.

use sketch_bench::timing::percentile;
use sketch_bench::{Args, Gate};
use sketch_datagen::{generate_open_data, split_corpus, OpenDataConfig};
use sketch_ranking::evaluation::Metric;
use sketch_ranking::{run_ranking_experiment, RankingConfig, ROWS};
use sketch_stats::metrics::histogram;

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
/// Figure 5's shift, on every gated metric: `rp*cih`'s lower quartile at
/// or above `jc`'s median. The narrowest of seeds 0x7ab1 (the default),
/// 1, 2 and 0x555 is 0.671 against 0.348 (nDCG@10 at 0x555), 1.93x the
/// bound.
const FIG5_MIN_FACTOR: f64 = 1.0;
/// Figure 5's histogram bins over `[0, 1]`.
const BINS: usize = 10;

const SECTIONS: [(&str, Metric); 4] = [
    ("(a) MAP (r > .75)", |m| m.map_high),
    ("(b) MAP (r > .50)", |m| m.map_mid),
    ("(c) nDCG@5", |m| m.ndcg_a),
    ("(d) nDCG@10", |m| m.ndcg_b),
];

/// What the gates read off one metric defined on >= [`MIN_QUERIES`]
/// queries: each row's mean in [`ROWS`] order, and the per-query values'
/// lower quartile under `rp*cih` and median under `jc`.
#[derive(Debug, Clone, Copy)]
struct Gated {
    means: [f64; ROWS.len()],
    cih_q1: f64,
    jc_median: f64,
}

fn main() {
    let args = Args::from_env();
    let tables = args.get_or("tables", 200usize);
    let queries = args.get_or("queries", 60usize);
    let sketch_size = args.get_or("sketch-size", 256usize);
    let seed = args.get_or("seed", 0x7ab1u64);
    args.finish("table1_ranking");

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

    let cfg = RankingConfig { sketch_size, seed };
    let report = run_ranking_experiment(&split.queries, &split.corpus, &cfg);
    eprintln!(
        "queries with joinable candidates: {}",
        report.per_query.len()
    );

    let mut metrics = Vec::new();
    for (title, metric) in SECTIONS {
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

        println!("\nFigure 5{title} — queries per score bin [0, .1) … [.9, 1]");
        let [jc, cih] = ["jc", "rp*cih"].map(|scorer| {
            let scores = report.per_query_scores(scorer, metric);
            let bins: Vec<String> = (histogram(&scores, BINS, 0.0, 1.0).iter())
                .map(|n| format!("{n:>3}"))
                .collect();
            let (q1, median) = (percentile(&scores, 25.0), percentile(&scores, 50.0));
            println!(
                "{scorer:<7} {}  lower quartile {q1:.3}, median {median:.3}",
                bins.join(" ")
            );
            (q1, median)
        });
        // Whether a query has a relevant candidate does not depend on who
        // ranks it: a metric is defined on the same queries for every row.
        let gated = (base.queries >= MIN_QUERIES).then(|| Gated {
            means: ROWS.map(|l| cell(l).mean.unwrap_or(0.0)),
            cih_q1: cih.0,
            jc_median: jc.1,
        });
        metrics.push((title, gated));
    }

    println!(
        "\nShape (paper Table 1 and Figure 5), on every metric defined on >= {MIN_QUERIES} \
         queries: each of {GATED:?} at least {MIN_FACTOR}x each of {BASELINES:?}; jc_est \
         within {MAX_JC_GAP} of jc; rp*cih's lower quartile at least {FIG5_MIN_FACTOR}x jc's \
         median."
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
    let gated = metrics.iter().filter(|(_, g)| g.is_some()).count();
    Gate(violations(&metrics)).verdict("table1", &format!("{gated} of 4 metrics gated"));
}

/// Which bands the metrics break, each named by its section title; a
/// run in which no metric is gated breaks the gate too.
fn violations(metrics: &[(&str, Option<Gated>)]) -> Vec<String> {
    if metrics.iter().all(|(_, g)| g.is_none()) {
        return vec![format!(
            "no metric is defined on >= {MIN_QUERIES} queries: nothing is gated"
        )];
    }
    let mut gate = Gate::default();
    for (title, gated) in metrics {
        let Some(g) = gated else { continue };
        let mean = |label| g.means[ROWS.iter().position(|r| *r == label).expect("a row")];
        for row in GATED {
            for baseline in BASELINES {
                let (score, floor) = (mean(row), mean(baseline));
                gate.check(score >= MIN_FACTOR * floor, || {
                    format!(
                        "{title}: {row} {score:.3} is below {MIN_FACTOR}x {baseline} {floor:.3}"
                    )
                });
            }
        }
        let gap = (mean("jc") - mean("jc_est")).abs();
        gate.check(gap <= MAX_JC_GAP, || {
            format!("{title}: jc_est is {gap:.3} from jc, more than {MAX_JC_GAP}")
        });
        let (q1, median) = (g.cih_q1, g.jc_median);
        gate.check(q1 >= FIG5_MIN_FACTOR * median, || {
            format!(
                "{title}: rp*cih's lower quartile {q1:.3} is below {FIG5_MIN_FACTOR}x jc's \
                 median {median:.3}"
            )
        });
    }
    gate.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bands_hold_on_the_default_runs_narrowest_metric_and_break_when_moved() {
        // nDCG@10 of the default run, in ROWS order.
        let mut g = Gated {
            means: [0.794, 0.788, 0.825, 0.802, 0.763, 0.372, 0.370, 0.430],
            cih_q1: 0.739,
            jc_median: 0.327,
        };
        assert_eq!(violations(&[("d", Some(g))]), Vec::<String>::new());
        // A metric defined on too few queries is not gated, but a run
        // that gates nothing fails.
        assert_eq!(
            violations(&[("c", None), ("d", Some(g))]),
            Vec::<String>::new()
        );
        assert_eq!(
            violations(&[("c", None), ("d", None)]),
            ["no metric is defined on >= 10 queries: nothing is gated"]
        );
        g.means[1] = 0.6; // rb*cib: 1.40x random
        g.means[6] = 0.34; // jc_est: 0.032 from jc
        g.cih_q1 = 0.3; // below jc's median
        let broken = violations(&[("d", Some(g))]);
        assert_eq!(broken.len(), 3, "{broken:?}");
        assert!(broken[0].starts_with("d: rb*cib 0.600 is below 1.5x random 0.430"));
        assert!(broken[1].starts_with("d: jc_est is 0.032 from jc"));
        assert!(broken[2].starts_with("d: rp*cih's lower quartile 0.300 is below 1x jc's"));
    }
}
