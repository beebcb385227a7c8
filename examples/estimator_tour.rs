//! Tour of the correlation estimators and KMV statistics a single pair of
//! sketches supports (paper Sections 3.3 and 5.3): Pearson, Spearman,
//! RIN, Qn, PM1 bootstrap, distinct values and containment.
//!
//! ```text
//! cargo run --release --example estimator_tour
//! ```

use join_correlation::datagen::Dist;
use join_correlation::sketches::{
    containment_estimate, distinct_value_estimate, join_sketches, SketchBuilder, SketchConfig,
};
use join_correlation::stats::CorrelationEstimator;
use join_correlation::table::{exact_join, Aggregation, ColumnPair};

fn main() {
    let mut d = Dist::seeded(7);
    let n = 30_000usize;

    // A monotone-but-nonlinear relationship with heavy-tailed noise:
    // exactly the regime where the estimators disagree.
    let keys: Vec<String> = (0..n).map(|i| format!("id-{i}")).collect();
    let latent: Vec<f64> = (0..n).map(|_| d.normal()).collect();
    let tx = ColumnPair::new("tx", "id", "x", keys.clone(), latent.clone());
    let ty = ColumnPair::new(
        "ty",
        "id",
        "y",
        keys.iter().take(2 * n / 3).cloned().collect(),
        latent
            .iter()
            .take(2 * n / 3)
            .map(|&z| (1.5 * z).exp() + 0.2 * d.normal().abs())
            .collect(),
    );

    let builder = SketchBuilder::new(SketchConfig::with_size(1024));
    let (sx, sy) = (builder.build(&tx), builder.build(&ty));
    let sample = join_sketches(&sx, &sy).expect("same hasher");
    let joined = exact_join(&tx, &ty, Aggregation::Mean);

    println!(
        "tables: {} and {} rows; exact join = {} rows; sketch join sample = {} rows\n",
        tx.len(),
        ty.len(),
        joined.len(),
        sample.len()
    );

    println!("{:<10} {:>10} {:>10}", "estimator", "sketch", "exact");
    for est in CorrelationEstimator::ALL {
        let sketch_est = sample.estimate(est);
        // Qn's scale is O(n²) time *and* memory (it builds all pairwise
        // differences); evaluate the "exact" reference on a prefix rather
        // than the full 20k join.
        let cap = if est == CorrelationEstimator::Qn {
            4_000.min(joined.x.len())
        } else {
            joined.x.len()
        };
        let exact = est.population_target(&joined.x[..cap], &joined.y[..cap]);
        println!(
            "{:<10} {:>10} {:>10}",
            est.name(),
            sketch_est.map_or_else(|e| format!("({e})"), |r| format!("{r:+.3}")),
            exact.map_or_else(|e| format!("({e})"), |r| format!("{r:+.3}")),
        );
    }
    println!(
        "\nPearson is dragged below the rank estimators by the exponential \
         tail; Spearman/RIN see the monotone link (paper Section 2.2)."
    );

    println!("\nKMV statistics from the same sketches:");
    println!(
        "  distinct keys of X : est {:>10.0}   true {:>8}",
        distinct_value_estimate(&sx),
        tx.distinct_keys()
    );
    println!(
        "  distinct keys of Y : est {:>10.0}   true {:>8}",
        distinct_value_estimate(&sy),
        ty.distinct_keys()
    );
    println!(
        "  containment X in Y : est {:>10.3}   true {:>8.3}",
        containment_estimate(&sx, &sy).unwrap(),
        joined.len() as f64 / tx.distinct_keys() as f64
    );
    println!(
        "  containment Y in X : est {:>10.3}   true {:>8.3}",
        containment_estimate(&sy, &sx).unwrap(),
        1.0
    );
}
