//! Recall@k of point-estimate vs confidence-aware ranking on a planted
//! corpus with known ground truth — the paper's Section 5 comparison,
//! run through the *live* engine path (retrieve → fused estimate + CI →
//! `s1..s4` re-rank) rather than the offline evaluation harness.
//!
//! The planted corpus (`sketch_datagen::planted`) hides a few genuinely
//! correlated partners per query among full-overlap noise and many
//! small-overlap "trap" columns whose sketch-join estimates can land
//! near ±1 purely by chance. Ground truth (exact joins over the full
//! data) marks only the true partners relevant; recall@k then measures
//! how many of them each scorer surfaces.
//!
//! ```text
//! cargo run --release -p sketch-bench --bin rank_eval
//! cargo run --release -p sketch-bench --bin rank_eval -- \
//!     --queries 8 --traps 60 --sketch-size 128 --k 5 --seed 42 --assert
//! ```
//!
//! With `--assert`, the process exits non-zero unless every CI-aware
//! scorer's recall@k is at least the point-estimate recall AND at least
//! one strictly beats it — the CI smoke gate. The same flag carries the
//! planner gate: under each of [`PLAN_ESTIMATORS`] the two-pass plan must
//! answer identically to exhaustive with strictly fewer expensive
//! estimator calls, and at least [`PM1_MIN_RATIO`] times fewer under
//! `pm1`. Call counts are deterministic, so they are gated; wall time on
//! shared CI runners is not, so it is only printed.

use correlation_sketches::{SketchBuilder, SketchConfig};
use sketch_bench::args::Args;
use sketch_bench::time_ms;
use sketch_datagen::{generate_planted, PlantedConfig};
use sketch_index::{engine, PlanMode, QueryOptions, QueryResult, Scorer, SketchIndex};
use sketch_ranking::ground_truth_grade;
use sketch_stats::{mean, recall_at_k, CorrelationEstimator};
use sketch_table::{Aggregation, ColumnPair};

/// The expensive estimators the planner gate runs under: the costliest
/// one on the live path and the rank-based one with the loosest relation
/// to the Pearson pass the planner prunes on.
const PLAN_ESTIMATORS: [&str; 2] = ["pm1", "qn"];

/// How many times fewer `pm1` calls the two-pass plan must spend than
/// the exhaustive one.
const PM1_MIN_RATIO: f64 = 2.0;

/// Minimum exact-join size for a candidate to enter the ground truth at
/// all; `relevant_ids` then applies the `--relevance` threshold to its
/// full-data `|r|`. Matches the engine's default `min_sample`.
const MIN_JOIN: usize = 3;

fn main() {
    let args = Args::from_env();
    let cfg = PlantedConfig {
        queries: args.get_or("queries", 8usize),
        true_per_query: args.get_or("true-per-query", 3usize),
        noise_per_query: args.get_or("noise-per-query", 6usize),
        traps_per_query: args.get_or("traps", 60usize),
        rows: args.get_or("rows", 1_200usize),
        trap_keys: args.get_or("trap-keys", 40usize),
        seed: args.get_or("seed", 42u64),
    };
    let sketch_size = args.get_or("sketch-size", 128usize);
    let k = args.get_or("k", 5usize);
    let relevance = args.get_or("relevance", 0.6f64);
    let threads = args.get_or("threads", 2usize);

    let planted = generate_planted(&cfg);
    eprintln!(
        "rank_eval: {} queries x {} candidates each ({} true, {} noise, {} traps), seed {}",
        planted.queries.len(),
        cfg.true_per_query + cfg.noise_per_query + cfg.traps_per_query,
        cfg.true_per_query,
        cfg.noise_per_query,
        cfg.traps_per_query,
        cfg.seed
    );

    // Ground truth: exact joins over the full planted data.
    let relevant_sets: Vec<Vec<String>> = planted
        .queries
        .iter()
        .map(|q| relevant_ids(q, &planted.corpus, relevance))
        .collect();
    for (q, rel) in planted.queries.iter().zip(&relevant_sets) {
        assert!(
            !rel.is_empty(),
            "{}: planted corpus must contain relevant candidates",
            q.id()
        );
    }

    // The live path: sketch everything, index the corpus, rank with the
    // engine under each scorer.
    let config = SketchConfig::with_size(sketch_size);
    let builder = SketchBuilder::new(config);
    let index = SketchIndex::from_sketches(planted.corpus.iter().map(|p| builder.build(p)))
        .expect("uniform hashers");
    let query_sketches: Vec<_> = planted.queries.iter().map(|q| builder.build(q)).collect();

    println!(
        "scorer      recall@{k}   cost/query   (mean over {} queries)",
        planted.queries.len()
    );
    let mut recalls = Vec::new();
    let mut costs_ms = Vec::new();
    for scorer in Scorer::ALL {
        let opts = QueryOptions {
            k,
            overlap_candidates: 200,
            scorer,
            threads,
            ..QueryOptions::default()
        };
        let (per_query, t_scorer): (Vec<f64>, f64) = time_ms(|| {
            query_sketches
                .iter()
                .zip(&relevant_sets)
                .map(|(q, relevant)| {
                    // Rank the whole retrieved list (k = the candidate
                    // cap), then cut at k.
                    let full = QueryOptions {
                        k: opts.overlap_candidates,
                        ..opts
                    };
                    let ranked = engine::top_k_with_plan_stats(&index, q, &full).0;
                    answer_recall(&ranked, relevant, k)
                })
                .collect()
        });
        let recall = mean(&per_query);
        // Ranking wall time per query under this scorer. The fused
        // stage 2 computes estimate + CI for every scorer, so the costs
        // mostly track each other — the column makes that (and any
        // future scorer-specific work) visible.
        let cost = t_scorer / per_query.len().max(1) as f64;
        let label = if scorer == Scorer::S1 {
            "s1 (point)"
        } else {
            scorer.name()
        };
        println!("{label:<11} {recall:.3}      {cost:>7.2} ms");
        recalls.push((scorer, recall));
        costs_ms.push(cost);
    }

    // Plan-mode comparison: the same corpus under each expensive
    // estimator, exhaustive vs the two-pass planner. The planner's
    // losslessness contract means the answers must be *identical*; what
    // changes is how many times the expensive estimator runs.
    let plan_scorer: Scorer = args
        .get("plan-scorer")
        .unwrap_or("s2")
        .parse()
        .expect("--plan-scorer");
    // Pruning needs the k-th best pass-1 lower bound to sit above the
    // trap herd, so the plan section queries at a k within the planted
    // strong-partner count (the scorer section above keeps its own k).
    let plan_k = args.get_or("plan-k", cfg.true_per_query.min(k));
    println!(
        "plan ({})  estimator  recall@{plan_k}  calls/query  cost/query",
        plan_scorer.name()
    );
    let mut plan_rows = Vec::new();
    for name in PLAN_ESTIMATORS {
        let estimator: CorrelationEstimator = name.parse().expect("PLAN_ESTIMATORS");
        let [exhaustive, two_pass] = [PlanMode::Exhaustive, PlanMode::two_pass()].map(|plan| {
            let opts = QueryOptions {
                k: plan_k,
                overlap_candidates: 200,
                scorer: plan_scorer,
                estimator,
                threads,
                plan,
                ..QueryOptions::default()
            };
            let run = run_plan(&index, &query_sketches, &relevant_sets, &opts);
            println!(
                "{:<12} {name:<9} {:.3}     {:>8.1}        {:>7.2} ms",
                plan.name(),
                run.recall,
                run.invocations as f64 / query_sketches.len().max(1) as f64,
                run.ms_per_query
            );
            run
        });
        plan_rows.push((name, exhaustive, two_pass));
    }

    let point = recalls[0].1;
    let best = recalls
        .iter()
        .skip(1)
        .map(|&(_, r)| r)
        .fold(f64::NEG_INFINITY, f64::max);
    let plan_json: Vec<String> = plan_rows
        .iter()
        .map(|(name, ex, tp)| {
            format!(
                "\"{name}\":{{\"recall_exhaustive\":{:.4},\"recall_two_pass\":{:.4},\
                 \"invocations_exhaustive\":{},\"invocations_two_pass\":{},\
                 \"ms_exhaustive\":{:.3},\"ms_two_pass\":{:.3}}}",
                ex.recall,
                tp.recall,
                ex.invocations,
                tp.invocations,
                ex.ms_per_query,
                tp.ms_per_query
            )
        })
        .collect();
    println!(
        "{{\"bench\":\"rank_eval\",\"k\":{k},\"seed\":{},\"queries\":{},\
         \"traps_per_query\":{},\"sketch_size\":{sketch_size},\"threads\":{threads},\
         \"recall_point\":{point:.4},\"recall_s2\":{:.4},\
         \"recall_s3\":{:.4},\"recall_s4\":{:.4},\
         \"cost_s1_ms\":{:.3},\"cost_s2_ms\":{:.3},\"cost_s3_ms\":{:.3},\
         \"cost_s4_ms\":{:.3},\"plan_k\":{plan_k},\"plan\":{{{}}}}}",
        cfg.seed,
        planted.queries.len(),
        cfg.traps_per_query,
        recalls[1].1,
        recalls[2].1,
        recalls[3].1,
        costs_ms[0],
        costs_ms[1],
        costs_ms[2],
        costs_ms[3],
        plan_json.join(","),
    );

    if args.flag("assert") {
        let mut ok = true;
        for &(scorer, recall) in &recalls[1..] {
            if recall + 1e-12 < point {
                eprintln!("rank_eval: FAIL — {scorer} recall {recall:.3} below point {point:.3}");
                ok = false;
            }
        }
        if best <= point {
            eprintln!(
                "rank_eval: FAIL — no CI-aware scorer beats point-estimate \
                 ranking (point {point:.3}, best {best:.3})"
            );
            ok = false;
        }
        // The planner gate: two-pass must answer *identically* (so
        // recall is equal by construction) while invoking the expensive
        // estimator strictly fewer times — and, for pm1, the costliest
        // estimator and the one the planner matters most for, at least
        // PM1_MIN_RATIO times fewer.
        for (name, ex, tp) in &plan_rows {
            if tp.answers != ex.answers {
                eprintln!("rank_eval: FAIL — {name} two-pass results differ from exhaustive");
                ok = false;
            }
            let required = if *name == "pm1" { PM1_MIN_RATIO } else { 1.0 };
            let ratio = ex.invocations as f64 / tp.invocations.max(1) as f64;
            if tp.invocations >= ex.invocations || ratio < required {
                eprintln!(
                    "rank_eval: FAIL — two-pass spent {} {name} calls vs {} exhaustive \
                     ({ratio:.2}x fewer, {required:.2}x required)",
                    tp.invocations, ex.invocations
                );
                ok = false;
            }
        }
        if !ok {
            std::process::exit(1);
        }
        println!(
            "rank_eval: OK — s2..s4 >= point ({point:.3}) and best CI-aware \
             scorer ({best:.3}) beats it"
        );
        for (name, ex, tp) in &plan_rows {
            println!(
                "rank_eval: OK — two-pass matches exhaustive with {} vs {} {name} calls",
                tp.invocations, ex.invocations
            );
        }
    }
}

/// One plan's aggregate numbers under one estimator.
struct PlanRun {
    recall: f64,
    invocations: usize,
    ms_per_query: f64,
    answers: Vec<Vec<QueryResult>>,
}

/// Answer every query under `opts`, keeping the answers, the
/// expensive-estimator invocation count and the wall time.
fn run_plan(
    index: &SketchIndex,
    queries: &[correlation_sketches::CorrelationSketch],
    relevant_sets: &[Vec<String>],
    opts: &QueryOptions,
) -> PlanRun {
    let mut invocations = 0usize;
    let (answers, ms): (Vec<Vec<QueryResult>>, f64) = time_ms(|| {
        queries
            .iter()
            .map(|q| {
                let (ranked, stats) = engine::top_k_with_plan_stats(index, q, opts);
                invocations += stats.expensive_invocations;
                ranked
            })
            .collect()
    });
    let per_query: Vec<f64> = answers
        .iter()
        .zip(relevant_sets)
        .map(|(ranked, relevant)| answer_recall(ranked, relevant, opts.k))
        .collect();
    PlanRun {
        recall: mean(&per_query),
        invocations,
        ms_per_query: ms / queries.len().max(1) as f64,
        answers,
    }
}

/// recall@k of one ranked answer against its ground-truth set. Relevant
/// candidates the answer lacks are appended beyond the cutoff — even
/// when fewer than `k` rows ranked — so recall's denominator stays the
/// ground-truth set.
fn answer_recall(ranked: &[QueryResult], relevant: &[String], k: usize) -> f64 {
    let mut flags: Vec<bool> = ranked.iter().map(|r| relevant.contains(&r.id)).collect();
    let found = flags.iter().filter(|&&f| f).count();
    flags.resize(flags.len().max(k), false);
    flags.extend(std::iter::repeat_n(true, relevant.len() - found));
    recall_at_k(&flags, k).expect("relevant sets are non-empty")
}

/// Ids of the candidates whose ground-truth after-join correlation
/// clears the relevance threshold.
fn relevant_ids(query: &ColumnPair, corpus: &[ColumnPair], threshold: f64) -> Vec<String> {
    corpus
        .iter()
        .filter(|c| {
            ground_truth_grade(query, c, Aggregation::Mean, MIN_JOIN)
                .is_some_and(|r| r >= threshold)
        })
        .map(ColumnPair::id)
        .collect()
}
