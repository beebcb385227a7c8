//! **Figure 4** — RMSE vs. sketch-intersection size, per correlation
//! estimator and maximum sketch size.
//!
//! The paper buckets all NYC column-pair estimates by the size of the
//! sketch intersection (the join-sample size), and plots RMSE per bucket
//! for each estimator (Pearson, Spearman, RIN, Qn, PM1) and each maximum
//! sketch size `k ∈ {256, 512, 1024}`. The expected shape: RMSE falls as
//! the intersection grows and stabilizes around ~0.1; `Qn` is the least
//! stable. The first is checked per `k` and estimator — RMSE in the largest
//! populated bucket below RMSE in the smallest — and the exit code is the
//! gate; a cell that is exact in its smallest bucket (the sketches hold
//! every joined row) has nothing to fall and is reported, not gated.
//!
//! ```text
//! cargo run --release -p sketch-bench --bin fig4_rmse -- \
//!     --dataset nyc --scale 300 --max-pairs 3000
//! ```

use correlation_sketches::{join_sketches, SketchBuilder, SketchConfig};
use sketch_bench::{corpus_pairs, Args, CorpusChoice, Gate};
use sketch_stats::{rmse, CorrelationEstimator};
use sketch_table::{exact_join, Aggregation};

/// Log-spaced intersection-size buckets.
const BUCKETS: [(usize, usize); 7] = [
    (3, 5),
    (6, 10),
    (11, 20),
    (21, 40),
    (41, 80),
    (81, 160),
    (161, usize::MAX),
];

/// RMSE below this is rounding error on exact estimates.
const EXACT: f64 = 1e-9;

fn bucket_label(b: (usize, usize)) -> String {
    if b.1 == usize::MAX {
        format!("{}+", b.0)
    } else {
        format!("{}-{}", b.0, b.1)
    }
}

fn main() {
    let args = Args::from_env();
    let dataset: CorpusChoice = args
        .get("dataset")
        .unwrap_or("nyc")
        .parse()
        .expect("--dataset sbn|wbf|nyc");
    let scale = args.get_or("scale", 300usize);
    let max_pairs = args.get_or("max-pairs", 3_000usize);
    let seed = args.get_or("seed", 0x417u64);
    let sketch_sizes: Vec<usize> = args
        .get("sketch-sizes")
        .unwrap_or("256,512,1024")
        .split(',')
        .map(|s| s.trim().parse().expect("--sketch-sizes 256,512,1024"))
        .collect();
    args.finish("fig4_rmse");

    eprintln!("fig4: dataset={dataset} scale={scale} max_pairs={max_pairs} k={sketch_sizes:?}");

    let pairs = corpus_pairs(dataset, scale, seed, max_pairs);
    let estimators = CorrelationEstimator::ALL;

    println!(
        "{:<6} {:<9} {:<10} {:>8} {:>8}",
        "k", "estimator", "intersect", "pairs", "RMSE"
    );
    let (mut gated, mut exact, mut gate) = (0usize, Vec::new(), Gate::default());
    for &k in &sketch_sizes {
        let builder = SketchBuilder::new(SketchConfig::with_size(k));
        // (estimator, bucket) → (estimates, truths)
        let mut cells: Vec<Vec<(Vec<f64>, Vec<f64>)>> =
            vec![vec![(Vec::new(), Vec::new()); BUCKETS.len()]; estimators.len()];

        for (a, b) in &pairs {
            let joined = exact_join(a, b, Aggregation::Mean);
            if joined.len() < 3 {
                continue;
            }
            let Ok(sample) = join_sketches(&builder.build(a), &builder.build(b)) else {
                continue;
            };
            if sample.len() < 3 {
                continue;
            }
            let Some(bucket) = BUCKETS
                .iter()
                .position(|&(lo, hi)| sample.len() >= lo && sample.len() <= hi)
            else {
                continue;
            };
            for (ei, est) in estimators.iter().enumerate() {
                let (Ok(truth), Ok(estimate)) = (
                    est.population_target(&joined.x, &joined.y),
                    sample.estimate(*est),
                ) else {
                    continue;
                };
                cells[ei][bucket].0.push(estimate);
                cells[ei][bucket].1.push(truth);
            }
        }

        for (ei, est) in estimators.iter().enumerate() {
            // RMSE per populated bucket, smallest intersection first.
            let mut curve = Vec::new();
            for (bi, &bucket) in BUCKETS.iter().enumerate() {
                let (ests, truths) = &cells[ei][bi];
                if ests.is_empty() {
                    continue;
                }
                let err = rmse(ests, truths);
                println!(
                    "{:<6} {:<9} {:<10} {:>8} {:>8.4}",
                    k,
                    est.name(),
                    bucket_label(bucket),
                    ests.len(),
                    err
                );
                curve.push(err);
            }
            let cell = format!("k={k} {}", est.name());
            match (curve.first(), curve.last()) {
                (Some(&small), _) if small < EXACT => exact.push(cell),
                (Some(&small), Some(&large)) if large >= small => gate.0.push(format!(
                    "{cell}: RMSE {large:.4} in the largest bucket is not below {small:.4}"
                )),
                (Some(_), _) => gated += 1,
                (None, _) => gate.0.push(format!("{cell}: no populated bucket")),
            }
        }
    }
    println!("\nExpected shape (paper Fig. 4): RMSE decreases with intersection size");
    println!("and stabilizes around ~0.1; qn is the least robust of the estimators.");
    let ok = format!(
        "RMSE falls from the smallest to the largest bucket in {gated} cells; exact in the \
         smallest bucket, not gated: [{}]",
        exact.join(", ")
    );
    gate.verdict("fig4", &ok);
}
