//! **Ablation: distinct-value sketch families** — KMV (what Correlation
//! Sketches builds on) vs. HyperLogLog (better accuracy per bit, but
//! unable to support join-correlation estimation; paper Sections 2.1/6).
//!
//! At matched memory budgets, compare cardinality-estimate accuracy. The
//! point the paper makes — and this binary demonstrates empirically — is
//! that KMV pays a constant-factor accuracy premium *in exchange for
//! retaining key identifiers and values*, which is precisely what makes
//! sketch joins (and therefore correlation estimates) possible at all.
//!
//! ```text
//! cargo run --release -p sketch-bench --bin ablation_dv -- --trials 20
//! ```

use correlation_sketches::{distinct_value_estimate, HyperLogLog, SketchBuilder, SketchConfig};
use sketch_bench::Args;
use sketch_hashing::TupleHasher;
use sketch_table::ColumnPair;

fn relative_errors(estimates: &[f64], truth: f64) -> (f64, f64) {
    let mean_abs =
        estimates.iter().map(|e| (e - truth).abs()).sum::<f64>() / estimates.len() as f64 / truth;
    let rmse = (estimates
        .iter()
        .map(|e| ((e - truth) / truth).powi(2))
        .sum::<f64>()
        / estimates.len() as f64)
        .sqrt();
    (mean_abs, rmse)
}

fn main() {
    let args = Args::from_env();
    let trials = args.get_or("trials", 20usize);
    let cardinality = args.get_or("cardinality", 200_000usize);
    args.finish("ablation_dv");

    eprintln!("ablation_dv: trials={trials} cardinality={cardinality}");

    // Matched memory budgets: a KMV entry is 16 bytes (key hash + value),
    // an HLL register is 1 byte.
    let budgets = [(256usize, 12u8), (1024, 14), (4096, 16)];

    println!(
        "{:<8} {:<22} {:>10} {:>12} {:>12}",
        "bytes", "sketch", "theory SE", "mean |err|", "rel RMSE"
    );
    for (kmv_n, hll_p) in budgets {
        let bytes = kmv_n * 16;
        let mut kmv_ests = Vec::with_capacity(trials);
        let mut hll_ests = Vec::with_capacity(trials);
        for t in 0..trials as u64 {
            let hasher = TupleHasher::new_64(t);
            let pair = ColumnPair::new(
                "t",
                "k",
                "v",
                (0..cardinality).map(|i| format!("key-{i}")).collect(),
                (0..cardinality).map(|i| i as f64).collect(),
            );
            let kmv =
                SketchBuilder::new(SketchConfig::with_size(kmv_n).hasher(hasher)).build(&pair);
            kmv_ests.push(distinct_value_estimate(&kmv));

            let mut hll = HyperLogLog::new(hll_p, hasher);
            for k in &pair.keys {
                hll.insert(k.as_bytes());
            }
            hll_ests.push(hll.estimate());
        }
        let truth = cardinality as f64;
        let (kmv_mae, kmv_rmse) = relative_errors(&kmv_ests, truth);
        let (hll_mae, hll_rmse) = relative_errors(&hll_ests, truth);
        let kmv_theory = 1.0 / ((kmv_n as f64) - 2.0).sqrt();
        let hll_theory = 1.04 / ((1u64 << hll_p) as f64).sqrt();
        println!(
            "{:<8} {:<22} {:>10.4} {:>12.4} {:>12.4}",
            bytes,
            format!("kmv(n={kmv_n})"),
            kmv_theory,
            kmv_mae,
            kmv_rmse
        );
        println!(
            "{:<8} {:<22} {:>10.4} {:>12.4} {:>12.4}",
            (1usize << hll_p),
            format!("hll(p={hll_p})"),
            hll_theory,
            hll_mae,
            hll_rmse
        );
    }
    println!(
        "\nExpected shape: HLL's error per byte is lower (the paper's §6 \
         remark), but only KMV-family sketches retain the ⟨h(k), x_k⟩ \
         samples that sketch joins — and hence join-correlation queries — \
         require."
    );
}
