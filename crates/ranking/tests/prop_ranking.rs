//! Property-based tests for the scorers and the rankings built on them:
//! the served `s1..s4` over arbitrary estimate lists, and every row of the
//! evaluation harness (the three baselines included) over arbitrary lakes.

use proptest::collection::vec;
use proptest::prelude::*;

use sketch_ranking::{
    desc_score_nan_last, run_ranking_experiment, score_estimates, RankingConfig, Scorer, ROWS,
};
use sketch_stats::ScoredEstimate;
use sketch_table::ColumnPair;

/// `None`, a usable estimate, or one the scorers must treat as missing
/// (a non-finite point estimate or interval endpoint).
fn arb_estimates() -> impl Strategy<Value = Vec<Option<ScoredEstimate>>> {
    let r = prop_oneof![-1.0f64..1.0, -1.0f64..1.0, Just(f64::NAN)];
    let len = prop_oneof![0.0f64..10.0, 0.0f64..10.0, Just(f64::INFINITY)];
    let one = (1usize..2000, r, len).prop_map(|(n, r, len)| ScoredEstimate {
        estimate: r,
        ci_lo: r - len / 2.0,
        ci_hi: r + len / 2.0,
        sample_size: n,
    });
    vec(proptest::option::of(one), 1..20)
}

/// A query column and a few candidate columns over prefixes of one key
/// space — some too short to join, some whose sketch join is too small
/// to estimate from.
fn arb_lake() -> impl Strategy<Value = (ColumnPair, Vec<ColumnPair>)> {
    vec(vec(-100.0f64..100.0, 1..40), 2..6).prop_map(|columns| {
        let mut pairs = columns.into_iter().enumerate().map(|(t, values)| {
            let keys = (0..values.len()).map(|i| format!("k{i}")).collect();
            ColumnPair::new(format!("t{t}"), "k", "v", keys, values)
        });
        let query = pairs.next().expect("at least two columns");
        (query, pairs.collect())
    })
}

/// Every score list under test, each checked to align with its input:
/// the four scorers over `estimates`, and every harness row (the three
/// baselines included) over the lake's one query.
fn score_lists(
    estimates: &[Option<ScoredEstimate>],
    lake: &(ColumnPair, Vec<ColumnPair>),
) -> Vec<Vec<f64>> {
    let cfg = RankingConfig {
        sketch_size: 8,
        ..RankingConfig::default()
    };
    let report = run_ranking_experiment(std::slice::from_ref(&lake.0), &lake.1, &cfg);
    let mut lists = Scorer::ALL.map(|s| score_estimates(s, estimates)).to_vec();
    assert!(lists.iter().all(|l| l.len() == estimates.len()));
    for q in &report.per_query {
        assert_eq!(q.rows.len(), ROWS.len());
        for row in &q.rows {
            assert_eq!(row.scores.len(), q.candidate_ids.len(), "{}", row.label);
            lists.push(row.scores.clone());
        }
    }
    lists
}

proptest! {
    /// Scores are finite, non-negative, aligned with the input, and
    /// deterministic — for the four scorers and for every harness row.
    #[test]
    fn scores_are_sane(estimates in arb_estimates(), lake in arb_lake()) {
        let lists = score_lists(&estimates, &lake);
        for &s in lists.iter().flatten() {
            prop_assert!(s.is_finite() && s >= 0.0, "{s}");
        }
        prop_assert_eq!(lists, score_lists(&estimates, &lake));
    }

    /// A candidate lacking a usable estimate scores exactly zero, so it
    /// never outranks one that has an estimate.
    #[test]
    fn missing_statistics_score_zero(estimates in arb_estimates()) {
        for scorer in Scorer::ALL {
            let scores = score_estimates(scorer, &estimates);
            for (e, &s) in estimates.iter().zip(&scores) {
                let usable = e.is_some_and(|e| {
                    e.estimate.is_finite() && e.ci_lo.is_finite() && e.ci_hi.is_finite()
                });
                if !usable {
                    prop_assert_eq!(s, 0.0, "scorer {}", scorer);
                }
            }
        }
    }

    /// A ranking is a permutation in descending score order with NaN
    /// last — over scorer output, harness rows, and a raw score list that
    /// does contain NaN.
    #[test]
    fn rank_is_an_ordered_permutation(
        estimates in arb_estimates(),
        lake in arb_lake(),
        raw in vec(prop_oneof![-2.0f64..2.0, Just(f64::NAN), Just(f64::INFINITY), Just(f64::NEG_INFINITY)], 1..20),
    ) {
        let mut lists = score_lists(&estimates, &lake);
        lists.push(raw);
        for scores in lists {
            let mut order: Vec<usize> = (0..scores.len()).collect();
            order.sort_by(|&a, &b| desc_score_nan_last(scores[a], scores[b]));
            for w in order.windows(2) {
                let (hi, lo) = (scores[w[0]], scores[w[1]]);
                prop_assert!(lo.is_nan() || hi >= lo, "{hi} ranked above {lo}");
            }
            order.sort_unstable();
            prop_assert_eq!(order, (0..scores.len()).collect::<Vec<_>>());
        }
    }

    /// The se_z penalization is monotone in sample size: same estimate,
    /// more samples, never a lower score.
    #[test]
    fn sez_monotone_in_sample_size(r in -1.0f64..1.0, n1 in 1usize..500, extra in 1usize..500) {
        let est = |n: usize| Some(ScoredEstimate {
            estimate: r,
            ci_lo: r - 0.5,
            ci_hi: r + 0.5,
            sample_size: n,
        });
        let scores = score_estimates(Scorer::S2, &[est(n1), est(n1 + extra)]);
        prop_assert!(scores[1] >= scores[0] - 1e-12);
    }

    /// ci_h normalization maps the per-list min/max CI lengths to factors
    /// 1 and 0 respectively.
    #[test]
    fn cih_normalization_endpoints(lens in vec(0.01f64..5.0, 2..10)) {
        let estimates: Vec<Option<ScoredEstimate>> = lens
            .iter()
            .map(|&l| Some(ScoredEstimate {
                estimate: 0.5,
                ci_lo: 0.5 - l / 2.0,
                ci_hi: 0.5 + l / 2.0,
                sample_size: 100,
            }))
            .collect();
        let scores = score_estimates(Scorer::S4, &estimates);
        let (min, max) = lens.iter().fold((f64::MAX, f64::MIN), |(lo, hi), &l| (lo.min(l), hi.max(l)));
        prop_assume!(min < max);
        for (&l, &s) in lens.iter().zip(&scores) {
            prop_assert!(l != min || (s - 0.5).abs() < 1e-9, "shortest CI gets full score");
            prop_assert!(l != max || s.abs() < 1e-9, "longest CI gets zero");
        }
    }
}
