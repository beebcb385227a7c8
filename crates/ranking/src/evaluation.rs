//! The ranking evaluation harness (paper Section 5.4, Table 1, Figure 5).
//!
//! For every query column pair: retrieve all joinable corpus pairs,
//! compute the ground-truth after-join correlation (the relevance grade),
//! rank the candidates once per row of [`ROWS`], and measure MAP and nDCG
//! against the ground truth.
//!
//! Every correlation row is ranked by the served scorer
//! ([`score_estimates`]) over the served stage function's estimates
//! ([`scored_estimate`]); the harness adds the interval source a paper
//! row names, the three joinability baselines, and the metrics.

use correlation_sketches::{
    containment_estimate, join_sketches, CorrelationSketch, SketchBuilder, SketchConfig,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sketch_stats::{
    average_precision, mean, ndcg_at_k, pearson, scored_estimate, BootstrapScratch,
    CorrelationEstimator, ScoredEstimate,
};
use sketch_table::{exact_join, jaccard_containment, Aggregation, ColumnPair};

use crate::scored::{desc_score_nan_last, score_estimates, Scorer};

/// The rows of Table 1 by paper label, in [`QueryOutcome::rows`] order:
/// `rp*cih` is `s4` over the paper's HFD interval, the `s4` row is `s4` over
/// the Fisher z interval a `"scorer":"s4"` request runs on.
pub const ROWS: [&str; 8] = [
    "rp*cih", "rb*cib", "rp", "rp*sez", "s4", "jc", "jc_est", "random",
];

/// Confidence level of the intervals — the engine's default.
const CONFIDENCE: f64 = 0.95;

/// Significance of the HFD interval behind `rp*cih` (paper Section 4.3).
const HFD_ALPHA: f64 = 0.05;

/// Minimum ground-truth join size for a corpus pair to count as joinable
/// with the query (the engine's default `min_sample`).
const MIN_OVERLAP: usize = 3;

/// MAP relevance thresholds (Table 1 uses `r > 0.75` and `r > 0.50`).
const MAP_THRESHOLDS: (f64, f64) = (0.75, 0.50);

/// nDCG cutoffs (Table 1 uses 5 and 10).
const NDCG_KS: (usize, usize) = (5, 10);

/// Aggregation for repeated keys, in sketches and ground truth alike.
const AGGREGATION: Aggregation = Aggregation::Mean;

/// Configuration of a ranking experiment run.
#[derive(Debug, Clone, Copy)]
pub struct RankingConfig {
    /// Maximum sketch size (paper Section 5.2 uses 256 for accuracy plots;
    /// Section 5.5 uses 1024 for the query-latency study).
    pub sketch_size: usize,
    /// Seed for the PM1 bootstrap and the random baseline.
    pub seed: u64,
}

impl Default for RankingConfig {
    fn default() -> Self {
        Self {
            sketch_size: 256,
            seed: 0x7a_11,
        }
    }
}

/// Metrics of one row on one query's ranked list. `None` when the
/// metric is undefined for the query (e.g. no relevant candidate for
/// MAP, all-zero gains for nDCG) — such queries are excluded from that
/// metric's average, trec-style.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct QueryMetrics {
    /// MAP at the high relevance threshold (`r > 0.75`).
    pub map_high: Option<f64>,
    /// MAP at the mid relevance threshold (`r > 0.50`).
    pub map_mid: Option<f64>,
    /// nDCG at the first cutoff (5).
    pub ndcg_a: Option<f64>,
    /// nDCG at the second cutoff (10).
    pub ndcg_b: Option<f64>,
}

/// Reads one metric off a row's [`QueryMetrics`].
pub type Metric = fn(&QueryMetrics) -> Option<f64>;

/// One row of [`ROWS`] on one query.
#[derive(Debug, Clone)]
pub struct RowOutcome {
    /// The row's paper label.
    pub label: &'static str,
    /// What the row ranked by, aligned with [`QueryOutcome::candidate_ids`].
    pub scores: Vec<f64>,
    /// Quality of the resulting ranking against the ground truth.
    pub metrics: QueryMetrics,
}

/// Outcome of one query: the candidates and what each row made of them.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// Query column pair identifier.
    pub query_id: String,
    /// Ids of the joinable candidates ranked, in corpus order.
    pub candidate_ids: Vec<String>,
    /// One outcome per row, in [`ROWS`] order.
    pub rows: Vec<RowOutcome>,
}

/// Aggregated report over all queries.
#[derive(Debug, Clone)]
pub struct RankingReport {
    /// Per-query outcomes (Figure 5 histograms are built from these).
    pub per_query: Vec<QueryOutcome>,
}

/// One metric averaged over the queries it is defined on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricMean {
    /// `None` when defined on no query — "undefined" is not zero.
    pub mean: Option<f64>,
    /// How many queries the metric is defined on.
    pub queries: usize,
}

impl RankingReport {
    /// One cell of Table 1: the row's `metric` averaged over the queries
    /// it is defined on.
    #[must_use]
    pub fn mean_of(&self, label: &str, metric: Metric) -> MetricMean {
        let vals = self.per_query_scores(label, metric);
        MetricMean {
            mean: (!vals.is_empty()).then(|| mean(&vals)),
            queries: vals.len(),
        }
    }

    /// Per-query values of one row's metric, for the Figure 5
    /// histograms.
    #[must_use]
    pub fn per_query_scores(&self, label: &str, metric: Metric) -> Vec<f64> {
        self.per_query
            .iter()
            .filter_map(|q| {
                let row = q.rows.iter().find(|row| row.label == label)?;
                metric(&row.metrics)
            })
            .collect()
    }
}

/// Ground truth for one candidate: the absolute Pearson correlation of
/// the exact join, `None` when the join has fewer than three rows (the
/// pair is not joinable).
#[must_use]
pub fn ground_truth_grade(q: &ColumnPair, c: &ColumnPair) -> Option<f64> {
    let joined = exact_join(q, c, AGGREGATION);
    if joined.len() < MIN_OVERLAP {
        return None;
    }
    Some(pearson(&joined.x, &joined.y).map_or(0.0, f64::abs))
}

fn metrics_for_ranking(order: &[usize], grades: &[f64]) -> QueryMetrics {
    let ranked_grades: Vec<f64> = order.iter().map(|&i| grades[i]).collect();
    let (thr_high, thr_mid) = MAP_THRESHOLDS;
    let rel_high: Vec<bool> = ranked_grades.iter().map(|&g| g > thr_high).collect();
    let rel_mid: Vec<bool> = ranked_grades.iter().map(|&g| g > thr_mid).collect();
    let (k_a, k_b) = NDCG_KS;
    QueryMetrics {
        map_high: average_precision(&rel_high),
        map_mid: average_precision(&rel_mid),
        ndcg_a: ndcg_at_k(&ranked_grades, k_a),
        ndcg_b: ndcg_at_k(&ranked_grades, k_b),
    }
}

/// Run the full ranking experiment: every query against every corpus
/// pair.
///
/// Cost scales as `O(|queries| · |corpus|)` ground-truth joins — the
/// experiment binaries control corpus sizes (the paper itself does this
/// offline over the NYC collection).
#[must_use]
pub fn run_ranking_experiment(
    queries: &[ColumnPair],
    corpus: &[ColumnPair],
    cfg: &RankingConfig,
) -> RankingReport {
    let builder =
        SketchBuilder::new(SketchConfig::with_size(cfg.sketch_size).aggregation(AGGREGATION));
    let corpus_sketches: Vec<CorrelationSketch> = corpus.iter().map(|p| builder.build(p)).collect();
    let pm1_estimator = CorrelationEstimator::Pm1Bootstrap { seed: cfg.seed };
    let mut scratch = BootstrapScratch::new();

    let mut per_query = Vec::new();
    for (qi, q) in queries.iter().enumerate() {
        let q_sketch = builder.build(q);

        // One estimate list per interval source, aligned with the ids.
        let (mut ids, mut grades) = (Vec::new(), Vec::new());
        let (mut fisher, mut pm1, mut hfd) = (Vec::new(), Vec::new(), Vec::new());
        let (mut jc, mut jc_est) = (Vec::new(), Vec::new());
        for (c, c_sketch) in corpus.iter().zip(&corpus_sketches) {
            if c.table == q.table {
                continue; // never rank a table against itself
            }
            let Some(grade) = ground_truth_grade(q, c) else {
                continue;
            };
            let sample = join_sketches(&q_sketch, c_sketch).expect("one builder, one hasher");
            let mut estimate = |estimator| {
                scored_estimate(estimator, &sample.x, &sample.y, CONFIDENCE, &mut scratch).ok()
            };
            let rp = estimate(CorrelationEstimator::Pearson);
            pm1.push(estimate(pm1_estimator));
            // The paper's `ci_h`: the Pearson estimate, its risk read off
            // the HFD interval instead of Fisher z.
            hfd.push(rp.and_then(|e| {
                let ci = sample.hfd_ci(HFD_ALPHA).ok()?;
                Some(ScoredEstimate {
                    ci_lo: ci.low,
                    ci_hi: ci.high,
                    ..e
                })
            }));
            fisher.push(rp);
            jc.push(jaccard_containment(q, c));
            jc_est.push(containment_estimate(&q_sketch, c_sketch).unwrap_or(0.0));
            ids.push(c_sketch.id().to_string());
            grades.push(grade);
        }
        if ids.is_empty() {
            continue;
        }

        // The random baseline must differ per query but stay
        // reproducible.
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ (qi as u64).wrapping_mul(0x9e37_79b9));
        let random = ids.iter().map(|_| rng.random::<f64>()).collect();
        // In `ROWS` order.
        let scores = [
            score_estimates(Scorer::S4, &hfd),
            score_estimates(Scorer::S3, &pm1),
            score_estimates(Scorer::S1, &fisher),
            score_estimates(Scorer::S2, &fisher),
            score_estimates(Scorer::S4, &fisher),
            jc,
            jc_est,
            random,
        ];
        let rows = ROWS
            .into_iter()
            .zip(scores)
            .map(|(label, scores)| {
                let mut order: Vec<usize> = (0..scores.len()).collect();
                order.sort_by(|&a, &b| desc_score_nan_last(scores[a], scores[b]));
                RowOutcome {
                    label,
                    metrics: metrics_for_ranking(&order, &grades),
                    scores,
                }
            })
            .collect();

        per_query.push(QueryOutcome {
            query_id: q.id(),
            candidate_ids: ids,
            rows,
        });
    }

    RankingReport { per_query }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build a small corpus where ground truth is unambiguous: the query
    /// has one strongly-correlated candidate with *low* key containment
    /// and several uncorrelated candidates with *full* containment. A
    /// correlation-aware scorer must beat `jc`.
    fn fixture() -> (Vec<ColumnPair>, Vec<ColumnPair>) {
        let n = 1_200usize;
        let keys: Vec<String> = (0..n).map(|i| format!("k{i}")).collect();
        let signal: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.37).sin() * 5.0).collect();

        let query = ColumnPair::new("q", "k", "v", keys.clone(), signal.clone());

        // Correlated candidate: only 40% of the keys (low jc).
        let sub: Vec<usize> = (0..n).filter(|i| i % 5 < 2).collect();
        let corr = ColumnPair::new(
            "corr",
            "k",
            "v",
            sub.iter().map(|&i| keys[i].clone()).collect(),
            sub.iter().map(|&i| signal[i] * 2.0 + 1.0).collect(),
        );

        // Uncorrelated candidates with full key overlap (high jc).
        let mut corpus = vec![corr];
        for t in 0..4 {
            corpus.push(ColumnPair::new(
                format!("noise{t}"),
                "k",
                "v",
                keys.clone(),
                (0..n)
                    .map(|i| (((i * (31 + t)) % 997) as f64) - 500.0)
                    .collect(),
            ));
        }
        (vec![query], corpus)
    }

    #[test]
    fn correlation_scorers_beat_jc_on_the_fixture() {
        let (queries, corpus) = fixture();
        let report = run_ranking_experiment(&queries, &corpus, &RankingConfig::default());
        assert_eq!(report.per_query.len(), 1);
        let [rp, jc] = ["rp", "jc"].map(|row| report.mean_of(row, |m| m.map_high));
        assert_eq!((rp.queries, jc.queries), (1, 1));
        assert_eq!(rp.mean, Some(1.0), "single relevant doc must rank first");
        assert!(jc.mean.unwrap() < 0.5, "jc ranks the noise first: {jc:?}");
    }

    #[test]
    fn every_row_produces_scores_and_metrics() {
        let (queries, corpus) = fixture();
        let report = run_ranking_experiment(&queries, &corpus, &RankingConfig::default());
        let q = &report.per_query[0];
        assert_eq!(q.rows.len(), ROWS.len());
        assert_eq!(q.candidate_ids.len(), 5);
        for row in &q.rows {
            assert_eq!(row.scores.len(), 5, "{}", row.label);
            assert!(row.metrics.map_high.is_some(), "{}: map_high", row.label);
            assert!(row.metrics.ndcg_a.is_some(), "{}: ndcg", row.label);
        }
    }

    #[test]
    fn risk_aware_scorers_also_rank_the_needle_first() {
        let (queries, corpus) = fixture();
        let report = run_ranking_experiment(&queries, &corpus, &RankingConfig::default());
        for name in ["rp*cih", "rb*cib", "rp*sez", "s4"] {
            let map_high = report.mean_of(name, |m| m.map_high).mean.unwrap();
            assert!(map_high > 0.9, "{name}: {map_high}");
        }
    }

    #[test]
    fn experiment_is_deterministic() {
        let (queries, corpus) = fixture();
        let a = run_ranking_experiment(&queries, &corpus, &RankingConfig::default());
        let b = run_ranking_experiment(&queries, &corpus, &RankingConfig::default());
        for (qa, qb) in a.per_query.iter().zip(&b.per_query) {
            assert_eq!(qa.candidate_ids, qb.candidate_ids);
            for (ra, rb) in qa.rows.iter().zip(&qb.rows) {
                assert_eq!((ra.label, &ra.scores), (rb.label, &rb.scores));
                assert_eq!(ra.metrics, rb.metrics);
            }
        }
        // ... and the random baseline follows the seed.
        let cfg = RankingConfig {
            seed: 1,
            ..RankingConfig::default()
        };
        let c = run_ranking_experiment(&queries, &corpus, &cfg);
        let random = |r: &RankingReport| r.per_query[0].rows[7].scores.clone();
        assert!(ROWS[7] == "random" && random(&a) != random(&c));
    }

    #[test]
    fn queries_without_joinable_candidates_are_skipped() {
        let q = ColumnPair::new(
            "lonely",
            "k",
            "v",
            vec!["x1".into(), "x2".into(), "x3".into()],
            vec![1.0, 2.0, 3.0],
        );
        let c = ColumnPair::new(
            "corpus",
            "k",
            "v",
            vec!["y1".into(), "y2".into(), "y3".into()],
            vec![1.0, 2.0, 3.0],
        );
        let report = run_ranking_experiment(&[q], &[c], &RankingConfig::default());
        assert!(report.per_query.is_empty());
    }

    #[test]
    fn a_metric_defined_on_no_query_is_undefined_not_zero() {
        // Only the uncorrelated candidates: nothing clears r > 0.75, so
        // MAP there has no query to average over; nDCG still has one.
        let (queries, corpus) = fixture();
        let report = run_ranking_experiment(&queries, &corpus[1..], &RankingConfig::default());
        for label in ROWS {
            let map = report.mean_of(label, |m| m.map_high);
            let ndcg = report.mean_of(label, |m| m.ndcg_a);
            assert_eq!((map.mean, map.queries), (None, 0), "{label}");
            assert!(ndcg.mean.is_some() && ndcg.queries == 1, "{label}");
        }
    }

    #[test]
    fn a_candidate_without_an_estimate_stays_out_of_the_cih_normalization() {
        let (queries, mut corpus) = fixture();
        let (cfg, q) = (RankingConfig::default(), &queries[0]);
        // Three query keys of which the query's sketch kept one: joinable
        // (3 exact rows), but a one-row sketch join — no Pearson estimate,
        // and an HFD interval of enormous length.
        let builder = SketchBuilder::new(SketchConfig::with_size(cfg.sketch_size));
        let sketch_join = |c: &ColumnPair| join_sketches(&builder.build(q), &builder.build(c));
        let stub = (q.keys.windows(3))
            .map(|w| ColumnPair::new("stub", "k", "v", w.to_vec(), vec![1.0, 2.0, 3.0]))
            .find(|c| sketch_join(c).unwrap().len() == 1)
            .expect("some window of three keys has one sketched key");
        assert!(sketch_join(&stub).unwrap().hfd_ci(HFD_ALPHA).is_ok());

        let cih = |corpus: &[ColumnPair]| {
            let report = run_ranking_experiment(&queries, corpus, &cfg);
            report.per_query[0].rows[0].scores.clone()
        };
        assert_eq!(ROWS[0], "rp*cih");
        let without = cih(&corpus);
        corpus.push(stub);
        let with = cih(&corpus);
        assert_eq!(with[..without.len()], without[..]);
        assert_eq!(with.last(), Some(&0.0));
        // The normalization is live on this list: the lengths differ.
        assert!(without.iter().any(|&s| s > 0.0) && without.contains(&0.0));
    }
}
