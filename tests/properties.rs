//! Cross-crate property-based tests (proptest) on the core invariants
//! listed in DESIGN.md §6.

use proptest::collection::vec;
use proptest::prelude::*;

use join_correlation::hashing::TupleHasher;
use join_correlation::sketches::{
    distinct_value_estimate, join_sketches, CorrelationSketch, SketchBuilder, SketchConfig,
};
use join_correlation::stats::CorrelationEstimator;
use join_correlation::table::{exact_join, Aggregation, ColumnPair};

fn pair_from(keys: Vec<u16>, values: Vec<f64>, table: &str) -> ColumnPair {
    let n = keys.len().min(values.len());
    ColumnPair::new(
        table,
        "k",
        "v",
        keys[..n].iter().map(|k| format!("key-{k}")).collect(),
        values[..n].to_vec(),
    )
}

/// Arbitrary key/value columns: repeated keys, arbitrary finite values.
fn arb_pair(table: &'static str) -> impl Strategy<Value = ColumnPair> {
    (vec(0u16..500, 1..400), vec(-1e6f64..1e6, 1..400))
        .prop_map(move |(k, v)| pair_from(k, v, table))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// An unsaturated sketch contains exactly the distinct-key set.
    #[test]
    fn unsaturated_sketch_is_exact(p in arb_pair("t")) {
        let builder = SketchBuilder::new(SketchConfig::with_size(100_000));
        let s = builder.build(&p);
        prop_assert!(!s.is_saturated());
        prop_assert_eq!(s.len(), p.distinct_keys());
        prop_assert_eq!(distinct_value_estimate(&s) as usize, p.distinct_keys());
    }

    /// The sketch join's paired values are always a subset of the exact
    /// aggregated join's pairs.
    #[test]
    fn sketch_join_is_subset_of_exact_join(
        a in arb_pair("a"),
        b in arb_pair("b"),
        size in 1usize..64,
    ) {
        let builder = SketchBuilder::new(SketchConfig::with_size(size));
        let sample = join_sketches(&builder.build(&a), &builder.build(&b)).unwrap();
        let exact = exact_join(&a, &b, Aggregation::Mean);
        prop_assert!(sample.len() <= exact.len());
        let exact_pairs: std::collections::HashSet<(u64, u64)> = exact
            .x
            .iter()
            .zip(&exact.y)
            .map(|(x, y)| (x.to_bits(), y.to_bits()))
            .collect();
        for (x, y) in sample.x.iter().zip(&sample.y) {
            prop_assert!(exact_pairs.contains(&(x.to_bits(), y.to_bits())));
        }
    }

    /// Streaming repeated-key aggregation equals aggregate-then-sketch
    /// for arbitrary inputs and every order-free aggregation.
    #[test]
    fn streaming_equals_preaggregation(
        keys in vec(0u16..60, 1..300),
        values in vec(-1e3f64..1e3, 1..300),
    ) {
        let p = pair_from(keys, values, "t");
        for agg in [Aggregation::Mean, Aggregation::Sum, Aggregation::Min, Aggregation::Max] {
            let cfg = SketchConfig::with_size(16).aggregation(agg);
            let streamed = SketchBuilder::new(cfg).build(&p);

            // Reference: group by key, aggregate, sketch with identity agg.
            let mut order: Vec<&str> = Vec::new();
            let mut groups: std::collections::HashMap<&str, Vec<f64>> = Default::default();
            for (k, v) in p.rows() {
                if !groups.contains_key(k) {
                    order.push(k);
                }
                groups.entry(k).or_default().push(v);
            }
            let ref_pair = ColumnPair::new(
                "t", "k", "v",
                order.iter().map(|k| (*k).to_string()).collect(),
                order.iter().map(|k| agg.aggregate_slice(&groups[*k]).unwrap()).collect(),
            );
            let ref_cfg = SketchConfig::with_size(16).aggregation(Aggregation::First);
            let reference = SketchBuilder::new(ref_cfg).build(&ref_pair);
            prop_assert_eq!(streamed.entries(), reference.entries());
        }
    }

    /// Serialization round-trips exactly.
    #[test]
    fn sketch_serde_roundtrip(p in arb_pair("t"), size in 1usize..64) {
        let s = SketchBuilder::new(SketchConfig::with_size(size)).build(&p);
        let back = CorrelationSketch::from_bytes(&s.to_bytes().unwrap()).unwrap();
        prop_assert_eq!(s, back);
    }

    /// Correlation estimates, when defined, always lie in [−1, 1].
    #[test]
    fn estimates_in_unit_range(
        a in arb_pair("a"),
        b in arb_pair("b"),
    ) {
        let builder = SketchBuilder::new(SketchConfig::with_size(64));
        let sample = join_sketches(&builder.build(&a), &builder.build(&b)).unwrap();
        for est in [
            CorrelationEstimator::Pearson,
            CorrelationEstimator::Spearman,
            CorrelationEstimator::Rin,
        ] {
            if let Ok(r) = sample.estimate(est) {
                prop_assert!((-1.0..=1.0).contains(&r), "{}: {r}", est.name());
            }
        }
    }

    /// Different hasher seeds build different sketches but identical
    /// seeds always agree (corpus-wide determinism).
    #[test]
    fn hasher_determinism(p in arb_pair("t"), seed in 0u64..1000) {
        let c1 = SketchConfig::with_size(32).hasher(TupleHasher::new_64(seed));
        let a = SketchBuilder::new(c1).build(&p);
        let b = SketchBuilder::new(c1).build(&p);
        prop_assert_eq!(a.entries(), b.entries());
    }

    /// The Hoeffding interval always contains the sample estimate itself
    /// and is a superset of sane bounds.
    #[test]
    fn hoeffding_interval_contains_estimate(
        a in arb_pair("a"),
        b in arb_pair("b"),
    ) {
        let builder = SketchBuilder::new(SketchConfig::with_size(128));
        let sample = join_sketches(&builder.build(&a), &builder.build(&b)).unwrap();
        if sample.len() < 3 {
            return Ok(());
        }
        if let (Ok(r), Ok(ci)) = (
            sample.estimate(CorrelationEstimator::Pearson),
            sample.hoeffding_ci(0.05),
        ) {
            prop_assert!(ci.low >= -1.0 && ci.high <= 1.0);
            prop_assert!(
                ci.contains(r),
                "estimate {r} outside its own CI {ci:?} (n={})",
                sample.len()
            );
        }
    }
}
