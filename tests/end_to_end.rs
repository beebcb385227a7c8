//! End-to-end integration: corpus generation → sketching → indexing →
//! top-k join-correlation queries → validation against exact joins.

use join_correlation::datagen::{generate_open_data, split_corpus, OpenDataConfig};
use join_correlation::index::{engine, QueryOptions, SketchIndex};
use join_correlation::sketches::{SketchBuilder, SketchConfig};
use join_correlation::stats::pearson;
use join_correlation::table::{exact_join, Aggregation, ColumnPair, Table};

fn corpus() -> Vec<Table> {
    generate_open_data(&OpenDataConfig {
        tables: 60,
        min_rows: 80,
        max_rows: 600,
        ..OpenDataConfig::nyc(0xe2e)
    })
}

#[test]
fn pipeline_estimates_match_ground_truth_for_large_joins() {
    let tables = corpus();
    let split = split_corpus(&tables, 0.2, 1);
    let builder = SketchBuilder::new(SketchConfig::with_size(256));

    let mut index = SketchIndex::new();
    for pair in &split.corpus {
        index.insert(builder.build(pair)).unwrap();
    }

    let mut checked = 0usize;
    for q in split.queries.iter().take(10) {
        let q_sketch = builder.build(q);
        let results = engine::top_k_with_plan_stats(
            &index,
            &q_sketch,
            &QueryOptions {
                overlap_candidates: 50,
                k: 20,
                ..QueryOptions::default()
            },
        )
        .0;
        for r in results {
            if r.sample_size < 60 {
                continue;
            }
            let cand: &ColumnPair = split
                .corpus
                .iter()
                .find(|p| p.id() == r.id)
                .expect("result id resolves to a corpus pair");
            let joined = exact_join(q, cand, Aggregation::Mean);
            let Ok(truth) = pearson(&joined.x, &joined.y) else {
                continue;
            };
            let est = r.estimate.expect("large sample has an estimate");
            assert!(
                (est - truth).abs() < 0.35,
                "query {} cand {}: est {est:.3} vs truth {truth:.3} (n={})",
                q.id(),
                r.id,
                r.sample_size
            );
            checked += 1;
        }
    }
    assert!(
        checked >= 10,
        "too few large-sample results validated: {checked}"
    );
}

#[test]
fn index_retrieval_agrees_with_exact_overlap_ordering() {
    let tables = corpus();
    let pairs: Vec<ColumnPair> = tables.iter().flat_map(|t| t.column_pairs()).collect();
    let builder = SketchBuilder::new(SketchConfig::with_size(512));

    let mut index = SketchIndex::new();
    for p in pairs.iter().skip(1) {
        index.insert(builder.build(p)).unwrap();
    }
    let q = &pairs[0];
    let q_sketch = builder.build(q);
    let hits = index.overlap_candidates(&q_sketch, 10);

    // Sketch-overlap ordering should broadly track exact key overlap:
    // the top sketch-overlap hit must be within the top-5 exact overlaps.
    if let Some(&(best_doc, _)) = hits.first() {
        let best = index.get(best_doc).unwrap().id();
        let mut exact: Vec<(String, usize)> = pairs
            .iter()
            .skip(1)
            .map(|p| (p.id(), join_correlation::table::key_overlap(q, p)))
            .collect();
        exact.sort_by_key(|e| std::cmp::Reverse(e.1));
        let top5: Vec<&str> = exact.iter().take(5).map(|(id, _)| id.as_str()).collect();
        assert!(
            top5.contains(&best),
            "sketch-overlap best {best} not in exact top-5 {top5:?}"
        );
    }
}

#[test]
fn sketches_survive_persistence_through_the_whole_pipeline() {
    use join_correlation::sketches::CorrelationSketch;

    let tables = corpus();
    let split = split_corpus(&tables, 0.2, 3);
    let builder = SketchBuilder::new(SketchConfig::with_size(128));

    // Serialize all corpus sketches, reload, and compare query results
    // against the in-memory path.
    let mut direct = SketchIndex::new();
    let mut reloaded = SketchIndex::new();
    for p in &split.corpus {
        let s = builder.build(p);
        let bytes = s.to_bytes().unwrap();
        direct.insert(s).unwrap();
        reloaded
            .insert(CorrelationSketch::from_bytes(&bytes).unwrap())
            .unwrap();
    }

    let q_sketch = builder.build(&split.queries[0]);
    let opts = QueryOptions::default();
    let a = engine::top_k_with_plan_stats(&direct, &q_sketch, &opts).0;
    let b = engine::top_k_with_plan_stats(&reloaded, &q_sketch, &opts).0;
    assert_eq!(a, b);
}

#[test]
fn ranking_harness_scores_what_the_engine_serves() {
    use join_correlation::ranking::{run_ranking_experiment, RankingConfig, Scorer};
    use join_correlation::stats::CorrelationEstimator::{Pearson, Pm1Bootstrap};

    // Table 1 measures the served scorer only if the scores its harness
    // ranks by are the scores a query gets: on the three paper rows whose
    // scorer is per-candidate (s4 normalizes over the list, and the two
    // lists differ), every candidate both see scores the same, bit for bit.
    let split = split_corpus(&corpus(), 0.2, 1);
    let cfg = RankingConfig::default();
    let report = run_ranking_experiment(&split.queries, &split.corpus, &cfg);

    let builder = SketchBuilder::new(SketchConfig::with_size(cfg.sketch_size));
    let index = SketchIndex::from_sketches(split.corpus.iter().map(|p| builder.build(p))).unwrap();
    let served = [
        ("rp", Scorer::S1, Pearson),
        ("rp*sez", Scorer::S2, Pearson),
        ("rb*cib", Scorer::S3, Pm1Bootstrap { seed: cfg.seed }),
    ];

    let mut estimated = 0usize;
    for outcome in &report.per_query {
        let q = split.queries.iter().find(|q| q.id() == outcome.query_id);
        let q_sketch = builder.build(q.unwrap());
        for (label, scorer, estimator) in served {
            let row = outcome.rows.iter().find(|r| r.label == label).unwrap();
            // One query through `engine::execute`, every candidate kept.
            let opts = QueryOptions {
                overlap_candidates: index.len(),
                k: index.len(),
                min_sample: 0,
                estimator,
                scorer,
                ..QueryOptions::default()
            };
            for r in engine::top_k_with_plan_stats(&index, &q_sketch, &opts).0 {
                let Some(i) = outcome.candidate_ids.iter().position(|id| *id == r.id) else {
                    continue;
                };
                let (harness, served, q, c) = (row.scores[i], r.score, &outcome.query_id, &r.id);
                let same = harness.to_bits() == served.to_bits();
                assert!(
                    same,
                    "{label}: {q} vs {c}: harness {harness}, served {served}"
                );
                estimated += usize::from(r.estimate.is_some());
            }
        }
    }
    assert!(estimated >= 150, "too few shared candidates: {estimated}");
}
