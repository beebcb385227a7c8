//! Cross-crate edge cases: adversarial inputs that a data-lake deployment
//! will eventually see.

use join_correlation::sketches::{join_sketches, CorrelationSketch, SketchBuilder, SketchConfig};
use join_correlation::stats::CorrelationEstimator;
use join_correlation::table::{ColumnPair, Table};

fn builder(n: usize) -> SketchBuilder {
    SketchBuilder::new(SketchConfig::with_size(n))
}

#[test]
fn unicode_and_hostile_keys_sketch_and_join() {
    let keys: Vec<String> = vec![
        "naïve".into(),
        "日本語キー".into(),
        "key,with,commas".into(),
        "key\nwith\nnewlines".into(),
        "ключ".into(),
        "🗽-zip".into(),
        String::new(), // empty string is a valid categorical value
        " leading-space".into(),
    ];
    let a = ColumnPair::new(
        "a",
        "k",
        "v",
        keys.clone(),
        (0..keys.len()).map(|i| i as f64).collect(),
    );
    let b = ColumnPair::new(
        "b",
        "k",
        "v",
        keys.clone(),
        (0..keys.len()).map(|i| 2.0 * i as f64).collect(),
    );
    let sample = join_sketches(&builder(16).build(&a), &builder(16).build(&b)).unwrap();
    assert_eq!(sample.len(), keys.len());
    let r = sample.estimate(CorrelationEstimator::Pearson).unwrap();
    assert!((r - 1.0).abs() < 1e-12);
}

#[test]
fn keys_that_differ_only_in_case_or_whitespace_stay_distinct() {
    let a = ColumnPair::new(
        "a",
        "k",
        "v",
        vec!["Key".into(), "key".into(), "key ".into(), " key".into()],
        vec![1.0, 2.0, 3.0, 4.0],
    );
    let s = builder(16).build(&a);
    assert_eq!(s.len(), 4, "no silent normalization of keys");
}

#[test]
fn single_row_tables_are_handled_throughout() {
    let a = ColumnPair::new("a", "k", "v", vec!["only".into()], vec![42.0]);
    let s = builder(8).build(&a);
    assert_eq!(s.len(), 1);
    let sample = join_sketches(&s, &s).unwrap();
    assert_eq!(sample.len(), 1);
    // One pair: correlation undefined, must error not panic.
    assert!(sample.estimate(CorrelationEstimator::Pearson).is_err());
    assert!(sample.hoeffding_ci(0.05).is_ok(), "CI degrades gracefully");
}

#[test]
fn identical_values_column_is_rejected_by_estimators_not_by_sketching() {
    let keys: Vec<String> = (0..100).map(|i| format!("k{i}")).collect();
    let constant = ColumnPair::new("c", "k", "v", keys.clone(), vec![7.0; 100]);
    let varying = ColumnPair::new("v", "k", "v", keys, (0..100).map(f64::from).collect());
    let sample =
        join_sketches(&builder(64).build(&constant), &builder(64).build(&varying)).unwrap();
    assert_eq!(sample.len(), 64);
    assert!(sample.estimate(CorrelationEstimator::Pearson).is_err());
    assert!(sample.estimate(CorrelationEstimator::Spearman).is_err());
}

#[test]
fn extreme_value_magnitudes_survive_the_pipeline() {
    let keys: Vec<String> = (0..500).map(|i| format!("k{i}")).collect();
    let a = ColumnPair::new(
        "a",
        "k",
        "v",
        keys.clone(),
        (0..500).map(|i| 1e12 + f64::from(i)).collect(),
    );
    let b = ColumnPair::new(
        "b",
        "k",
        "v",
        keys,
        (0..500).map(|i| 1e-9 * f64::from(i)).collect(),
    );
    let sample = join_sketches(&builder(128).build(&a), &builder(128).build(&b)).unwrap();
    let r = sample.estimate(CorrelationEstimator::Pearson).unwrap();
    assert!(
        r > 0.999,
        "mean-centred Pearson must survive 1e12 offsets: {r}"
    );
}

#[test]
fn csv_with_bom_and_mixed_line_endings_parses() {
    let text = "\u{feff}key,value\r\na,1\nb,2\r\nc,3";
    let t = Table::from_csv("bom", text).unwrap();
    assert_eq!(t.num_rows(), 3);
    // The BOM sticks to the first header name; pin that behaviour so a
    // future fix is a conscious choice.
    assert_eq!(t.columns()[0].name, "\u{feff}key");
    assert_eq!(t.numeric_names(), vec!["value"]);
}

#[test]
fn sketch_bytes_from_other_hasher_configs_still_load_but_wont_join() {
    let p = ColumnPair::new(
        "t",
        "k",
        "v",
        (0..50).map(|i| format!("k{i}")).collect(),
        (0..50).map(f64::from).collect(),
    );
    let a = builder(16).build(&p);
    let other = SketchBuilder::new(
        SketchConfig::with_size(16).hasher(join_correlation::hashing::TupleHasher::new_64(99)),
    )
    .build(&p);
    let reloaded = CorrelationSketch::from_bytes(&other.to_bytes().unwrap()).unwrap();
    assert!(
        join_sketches(&a, &reloaded).is_err(),
        "configs must not mix silently"
    );
}

#[test]
fn repeated_key_floods_do_not_grow_the_sketch() {
    // 100k rows, only 3 distinct keys: the sketch must stay tiny and the
    // aggregates exact.
    let mut keys = Vec::with_capacity(100_000);
    let mut vals = Vec::with_capacity(100_000);
    for i in 0..100_000usize {
        keys.push(format!("k{}", i % 3));
        vals.push(1.0);
    }
    let p = ColumnPair::new("flood", "k", "v", keys, vals);
    let cfg = SketchConfig::with_size(1024).aggregation(join_correlation::table::Aggregation::Sum);
    let s = SketchBuilder::new(cfg).build(&p);
    assert_eq!(s.len(), 3);
    assert!(!s.is_saturated());
    let total: f64 = s.entries().iter().map(|e| e.value).sum();
    assert_eq!(total, 100_000.0);
}

#[test]
fn nan_and_infinite_values_are_rejected_before_estimation() {
    // The table layer never produces NaN (CSV parse filters them), but a
    // direct API user might; the estimator must reject, not poison.
    let keys: Vec<String> = (0..10).map(|i| format!("k{i}")).collect();
    let a = ColumnPair::new(
        "a",
        "k",
        "v",
        keys.clone(),
        (0..10).map(f64::from).collect(),
    );
    let mut vals: Vec<f64> = (0..10).map(f64::from).collect();
    vals[3] = f64::NAN;
    let b = ColumnPair::new("b", "k", "v", keys, vals);
    let sample = join_sketches(&builder(16).build(&a), &builder(16).build(&b)).unwrap();
    assert!(matches!(
        sample.estimate(CorrelationEstimator::Pearson),
        Err(join_correlation::stats::StatsError::NonFiniteInput)
    ));
}
