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
fn multi_column_sketch_agrees_with_per_pair_sketches() {
    use join_correlation::hashing::TupleHasher;
    use join_correlation::sketches::{join_multi_sketches, MultiColumnSketch};

    let tables = corpus();
    // Find two joinable tables with ≥ 2 numeric columns.
    let (ta, tb) = {
        let mut found = None;
        'outer: for a in &tables {
            for b in &tables {
                if a.name == b.name || a.numeric_names().len() < 2 || b.numeric_names().len() < 2 {
                    continue;
                }
                let pa = a.column_pairs().into_iter().next().unwrap();
                let pb = b.column_pairs().into_iter().next().unwrap();
                if join_correlation::table::key_overlap(&pa, &pb) > 50 {
                    found = Some((a.clone(), b.clone()));
                    break 'outer;
                }
            }
        }
        found.expect("corpus contains joinable multi-column tables")
    };

    let hasher = TupleHasher::default();
    let ma = MultiColumnSketch::build(&ta, "key", 256, hasher, Aggregation::Mean).unwrap();
    let mb = MultiColumnSketch::build(&tb, "key", 256, hasher, Aggregation::Mean).unwrap();
    let multi = join_multi_sketches(&ma, &mb).unwrap();

    let builder = SketchBuilder::new(SketchConfig::with_size(256));
    let pa = ta.column_pair("key", ta.numeric_names()[0]).unwrap();
    let pb = tb.column_pair("key", tb.numeric_names()[0]).unwrap();
    let single =
        join_correlation::sketches::join_sketches(&builder.build(&pa), &builder.build(&pb))
            .unwrap();

    // The multi-column sketch keeps a key as long as *any* numeric column
    // is non-null for it, while the per-pair sketch drops rows whose
    // specific value is null — so the single-pair join keys are a subset
    // of the multi join keys (and most keys coincide).
    let multi_keys: std::collections::HashSet<_> = multi.key_hashes.iter().copied().collect();
    for kh in &single.key_hashes {
        assert!(
            multi_keys.contains(kh),
            "single-join key missing from multi join"
        );
    }
    assert!(
        single.key_hashes.len() as f64 >= 0.8 * multi.key_hashes.len() as f64,
        "unexpectedly large divergence: single {} vs multi {}",
        single.key_hashes.len(),
        multi.key_hashes.len()
    );
}
