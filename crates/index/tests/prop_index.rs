//! Property-based tests for the inverted index and query engine.

use proptest::collection::vec;
use proptest::prelude::*;

use correlation_sketches::{join_sketches, SketchBuilder, SketchConfig};
use sketch_index::{engine, QueryOptions, SketchIndex};
use sketch_table::ColumnPair;

fn pair_from(table: String, keys: &[u16], values: &[f64]) -> ColumnPair {
    let n = keys.len().min(values.len());
    ColumnPair::new(
        table,
        "k",
        "v",
        keys[..n].iter().map(|k| format!("key-{k}")).collect(),
        values[..n].to_vec(),
    )
}

fn arb_corpus() -> impl Strategy<Value = Vec<ColumnPair>> {
    vec((vec(0u16..300, 1..120), vec(-1e3f64..1e3, 1..120)), 1..12).prop_map(|tables| {
        tables
            .into_iter()
            .enumerate()
            .map(|(i, (k, v))| pair_from(format!("t{i}"), &k, &v))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The reported overlap of each retrieved candidate equals the true
    /// sketch-key intersection, and candidates are sorted by it.
    #[test]
    fn overlap_counts_are_exact(
        corpus in arb_corpus(),
        qk in vec(0u16..300, 1..120),
        qv in vec(-1e3f64..1e3, 1..120),
    ) {
        let builder = SketchBuilder::new(SketchConfig::with_size(64));
        let mut index = SketchIndex::new();
        for p in &corpus {
            index.insert(builder.build(p)).unwrap();
        }
        let q = builder.build(&pair_from("q".into(), &qk, &qv));
        let hits = index.overlap_candidates(&q, 100);

        let mut prev = usize::MAX;
        for (doc, overlap) in hits {
            let cand = index.get(doc).unwrap();
            let true_overlap = join_sketches(&q, cand).unwrap().len();
            prop_assert_eq!(overlap, true_overlap);
            prop_assert!(overlap <= prev);
            prop_assert!(overlap > 0);
            prev = overlap;
        }
    }

    /// Query results are never longer than k, scores descend, and every
    /// reported sample size matches the candidate's join.
    #[test]
    fn query_results_are_well_formed(
        corpus in arb_corpus(),
        qk in vec(0u16..300, 1..120),
        qv in vec(-1e3f64..1e3, 1..120),
        k in 1usize..8,
    ) {
        let builder = SketchBuilder::new(SketchConfig::with_size(64));
        let mut index = SketchIndex::new();
        for p in &corpus {
            index.insert(builder.build(p)).unwrap();
        }
        let q = builder.build(&pair_from("q".into(), &qk, &qv));
        let opts = QueryOptions { k, ..QueryOptions::default() };
        let results = engine::top_k_with_plan_stats(&index, &q, &opts).0;
        prop_assert!(results.len() <= k);
        for w in results.windows(2) {
            prop_assert!(w[0].score >= w[1].score);
        }
        for r in &results {
            let cand = index.get(r.doc).unwrap();
            prop_assert_eq!(r.sample_size, join_sketches(&q, cand).unwrap().len());
            if let Some(est) = r.estimate {
                prop_assert!((-1.0..=1.0).contains(&est));
                prop_assert!((r.score - est.abs()).abs() < 1e-12);
            }
        }
    }

    /// Inserting the query itself into the index makes it the top result
    /// (self-similarity sanity).
    #[test]
    fn self_query_ranks_first(
        qk in vec(0u16..300, 10..120),
        qv in vec(-1e3f64..1e3, 10..120),
    ) {
        let q_pair = pair_from("q".into(), &qk, &qv);
        let builder = SketchBuilder::new(SketchConfig::with_size(64));
        let q_sketch = builder.build(&q_pair);
        // Require a non-degenerate self-estimate (constant columns have
        // undefined correlation).
        let self_sample = join_sketches(&q_sketch, &q_sketch).unwrap();
        prop_assume!(self_sample
            .estimate(sketch_stats::CorrelationEstimator::Pearson)
            .is_ok());

        let mut index = SketchIndex::new();
        index.insert(q_sketch.clone()).unwrap();
        // A decoy with disjoint keys.
        let decoy = ColumnPair::new(
            "decoy",
            "k",
            "v",
            (0..50).map(|i| format!("other-{i}")).collect(),
            (0..50).map(f64::from).collect(),
        );
        index.insert(builder.build(&decoy)).unwrap();

        let results =
            engine::top_k_with_plan_stats(&index, &q_sketch, &QueryOptions::default()).0;
        prop_assert!(!results.is_empty());
        prop_assert_eq!(results[0].doc, 0);
        prop_assert!((results[0].estimate.unwrap() - 1.0).abs() < 1e-9);
    }
}
