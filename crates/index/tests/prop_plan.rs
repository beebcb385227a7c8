//! The lossless-pruning oracle — the two-pass planner's headline
//! guarantee: over arbitrary planted corpora, every scorer (`s1..s4`)
//! and every expensive estimator (`pm1`, `qn`, `dcor`), the two-pass
//! plan answers every top-k query **bit-identical** to the exhaustive
//! plan at every thread count in the tier-1 acceptance set — while
//! never invoking the expensive estimator on more candidates.
//!
//! A second, independent check replays the planner's promotion fixed
//! point from the public API alone: cheap Pearson CIs (an exhaustive
//! Pearson query at the plan's pruning confidence, mapped through
//! [`sketch_ranking::score_bounds`]) plus per-candidate expensive
//! scores (an exhaustive full-list query with the requested estimator).
//! The replay must agree with the reported [`PlanStats`] on the pruned
//! count, the band size, and the final threshold `τ*` bit-for-bit —
//! and by construction every replayed-pruned candidate's score upper
//! bound sits strictly below `τ*`, i.e. the pruned set genuinely could
//! never reach the k-th best surviving score.

use proptest::prelude::*;
use sketch_datagen::{generate_planted, PlantedConfig};
use sketch_index::plan::kth_largest;
use sketch_index::{engine, PlanMode, QueryOptions, Scorer, SketchIndex};
use sketch_ranking::score_bounds;
use sketch_stats::{CorrelationEstimator, ScoredEstimate};

use correlation_sketches::{CorrelationSketch, SketchBuilder, SketchConfig};

/// Thread counts every comparison must hold at (tier-1 acceptance set).
const THREADS: [usize; 5] = [0, 1, 2, 7, 16];

/// The expensive estimators the planner is pointed at: the two with a
/// Pearson surrogate (pruning engages) and `dcor` (no surrogate — the
/// planner must fall back to exhaustive and still answer identically).
fn arb_estimator() -> impl Strategy<Value = CorrelationEstimator> {
    prop_oneof![
        Just(CorrelationEstimator::Pm1Bootstrap { seed: 0x5eed }),
        Just(CorrelationEstimator::Qn),
        Just(CorrelationEstimator::DistanceCorrelation),
    ]
}

fn arb_scorer() -> impl Strategy<Value = Scorer> {
    prop_oneof![
        Just(Scorer::S1),
        Just(Scorer::S2),
        Just(Scorer::S3),
        Just(Scorer::S4),
    ]
}

struct Case {
    index: SketchIndex,
    queries: Vec<CorrelationSketch>,
}

fn build_case(
    queries: usize,
    seed: u64,
    true_n: usize,
    noise: usize,
    traps: usize,
    rows: usize,
) -> Case {
    let cfg = PlantedConfig {
        queries,
        true_per_query: true_n,
        noise_per_query: noise,
        traps_per_query: traps,
        rows,
        trap_keys: 8,
        seed,
    };
    let planted = generate_planted(&cfg);
    let builder = SketchBuilder::new(SketchConfig::with_size(128));
    let index = SketchIndex::from_sketches(planted.corpus.iter().map(|p| builder.build(p)))
        .expect("uniform hashers");
    let queries = planted.queries.iter().map(|q| builder.build(q)).collect();
    Case { index, queries }
}

/// What the independent replay of the promotion fixed point concludes.
#[derive(Debug, PartialEq)]
struct Replay {
    pruned: usize,
    band: usize,
    threshold: f64,
}

/// Replay the planner's decisions from the public API alone: the cheap
/// pass is an exhaustive Pearson query at `pass1_confidence`, the
/// expensive scores come from an exhaustive full-list query with the
/// requested estimator (per-candidate for `s1..s3`, so subset-invariant
/// — exactly why `s4` is not prunable). The fixed point is then pure
/// arithmetic over those two result lists.
fn replay_plan(
    case: &Case,
    query: &CorrelationSketch,
    opts: &QueryOptions,
    pass1_confidence: f64,
) -> Replay {
    let full_list = QueryOptions {
        k: opts.overlap_candidates,
        plan: PlanMode::Exhaustive,
        threads: 1,
        ..*opts
    };
    let cheap = engine::top_k_with_plan_stats(
        &case.index,
        query,
        &QueryOptions {
            estimator: CorrelationEstimator::Pearson,
            confidence: pass1_confidence,
            ..full_list
        },
    )
    .0;
    let expensive = engine::top_k_with_plan_stats(&case.index, query, &full_list).0;

    let effective_min = opts.min_sample.max(opts.estimator.min_samples());
    // Admitted candidates: (score upper/lower bound, expensive score).
    let admitted: Vec<((f64, f64), f64)> = cheap
        .iter()
        .filter(|r| r.sample_size >= effective_min)
        .map(|r| {
            let bounds = match (r.estimate, r.ci_lo, r.ci_hi) {
                (Some(estimate), Some(ci_lo), Some(ci_hi)) => score_bounds(
                    opts.scorer,
                    &ScoredEstimate {
                        estimate,
                        ci_lo,
                        ci_hi,
                        sample_size: r.sample_size,
                    },
                ),
                // The cheap estimator couldn't score it: contested.
                _ => (0.0, f64::INFINITY),
            };
            let score = expensive
                .iter()
                .find(|e| e.doc == r.doc)
                .map_or(0.0, |e| e.score);
            (bounds, score)
        })
        .collect();

    let seed = kth_largest(
        &admitted.iter().map(|((lb, _), _)| *lb).collect::<Vec<_>>(),
        opts.k,
    );
    let mut in_band: Vec<bool> = admitted.iter().map(|((_, ub), _)| *ub >= seed).collect();
    let threshold = loop {
        let band_scores: Vec<f64> = admitted
            .iter()
            .zip(&in_band)
            .filter(|(_, &b)| b)
            .map(|((_, s), _)| *s)
            .collect();
        let tau = kth_largest(&band_scores, opts.k);
        let promote: Vec<usize> = admitted
            .iter()
            .enumerate()
            .filter(|(i, ((_, ub), _))| !in_band[*i] && *ub >= tau)
            .map(|(i, _)| i)
            .collect();
        if promote.is_empty() {
            break tau;
        }
        for i in promote {
            in_band[i] = true;
        }
    };
    // The pruned set's upper bounds are genuinely below `τ*` — the
    // invariant the whole plan rests on.
    for (i, ((_, ub), _)) in admitted.iter().enumerate() {
        if !in_band[i] {
            assert!(
                *ub < threshold,
                "replay pruned a candidate whose bound reaches the threshold"
            );
        }
    }
    let band = in_band.iter().filter(|&&b| b).count();
    Replay {
        pruned: admitted.len() - band,
        band,
        threshold,
    }
}

fn assert_plan_oracle(case: &Case, scorer: Scorer, estimator: CorrelationEstimator) {
    let pass1_confidence = 0.99;
    let base = QueryOptions {
        k: 4,
        overlap_candidates: 100,
        scorer,
        estimator,
        threads: 1,
        ..QueryOptions::default()
    };
    let two = QueryOptions {
        plan: PlanMode::TwoPass {
            confidence: pass1_confidence,
        },
        ..base
    };
    for query in &case.queries {
        let (expected, ex_stats) = engine::top_k_with_plan_stats(&case.index, query, &base);
        let replay = PlanMode::two_pass()
            .pruning_confidence(scorer, estimator)
            .map(|_| replay_plan(case, query, &base, pass1_confidence));
        for threads in THREADS {
            let opts = QueryOptions { threads, ..two };
            let (got, stats) = engine::top_k_with_plan_stats(&case.index, query, &opts);
            assert_eq!(
                got,
                expected,
                "{scorer}/{estimator} threads={threads} query={}: two-pass differs from exhaustive",
                query.id()
            );
            assert!(
                stats.expensive_invocations <= ex_stats.expensive_invocations,
                "{scorer}/{estimator} threads={threads}: {stats:?} vs {ex_stats:?}"
            );
            match &replay {
                Some(replay) => {
                    assert!(stats.two_pass, "{scorer}/{estimator}: {stats:?}");
                    assert_eq!(
                        (stats.pruned, stats.expensive_invocations, stats.threshold),
                        (replay.pruned, replay.band, replay.threshold),
                        "{scorer}/{estimator} threads={threads}: planner disagrees with \
                         the replayed fixed point ({stats:?} vs {replay:?})"
                    );
                }
                None => {
                    assert!(
                        !stats.two_pass && stats.pruned == 0 && stats.cheap_invocations == 0,
                        "{scorer}/{estimator}: must fall back to exhaustive, got {stats:?}"
                    );
                }
            }
        }
    }
}

/// Each case runs a full planted corpus through 6 engine executions
/// plus the replay (hundreds of bootstrap-CI estimator calls), so the
/// local default is lower than the shim's 64; `PROPTEST_CASES` still
/// governs the CI battery exactly as everywhere else.
fn oracle_cases() -> ProptestConfig {
    let cases =
        match std::env::var("PROPTEST_CASES") {
            Ok(v) => v.parse().ok().filter(|&c| c > 0).unwrap_or_else(|| {
                panic!("invalid PROPTEST_CASES '{v}' (need a positive integer)")
            }),
            Err(_) => 8,
        };
    ProptestConfig::with_cases(cases)
}

proptest! {
    #![proptest_config(oracle_cases())]

    /// The headline property: arbitrary planted corpora, a sampled
    /// scorer (`s1..s4`) × expensive estimator (`pm1`/`qn`/`dcor`)
    /// combo per case — the full grid is covered across cases —
    /// identity at every thread count plus the replayed-fixed-point
    /// agreement. (Each fallback cell of the grid also has its own
    /// deterministic unit test in `engine.rs`; this oracle's job is
    /// the arbitrary-corpus sweep.)
    #[test]
    fn two_pass_matches_exhaustive_everywhere(
        seed in 0u64..1_000_000,
        true_n in 2usize..6,
        noise in 4usize..12,
        traps in 3usize..8,
        rows in 200usize..450,
        scorer in arb_scorer(),
        estimator in arb_estimator(),
    ) {
        let case = build_case(1, seed, true_n, noise, traps, rows);
        assert_plan_oracle(&case, scorer, estimator);
    }
}

/// The seeded smoke version of the oracle: one deterministic planted
/// corpus with enough strong partners (`true_per_query > k`) that the
/// band seed is high and pruning demonstrably engages — so a regression
/// that silently disables pruning cannot pass, and the savings are real.
#[test]
fn two_pass_prunes_on_the_seeded_planted_corpus() {
    let case = build_case(2, 42, 5, 40, 10, 800);
    let base = QueryOptions {
        k: 3,
        overlap_candidates: 100,
        scorer: Scorer::S2,
        estimator: CorrelationEstimator::Qn,
        ..QueryOptions::default()
    };
    let two = QueryOptions {
        plan: PlanMode::two_pass(),
        ..base
    };
    let mut total_pruned = 0usize;
    for query in &case.queries {
        let (expected, ex_stats) = engine::top_k_with_plan_stats(&case.index, query, &base);
        let (got, stats) = engine::top_k_with_plan_stats(&case.index, query, &two);
        assert_eq!(got, expected, "query {}", query.id());
        assert!(stats.two_pass);
        assert!(
            stats.expensive_invocations < ex_stats.expensive_invocations,
            "query {}: {stats:?} vs exhaustive {ex_stats:?}",
            query.id()
        );
        total_pruned += stats.pruned;
    }
    assert!(total_pruned > 0, "the planted corpus must exercise pruning");
}
