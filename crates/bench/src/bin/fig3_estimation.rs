//! **Figure 3** — estimated vs. actual Pearson correlation scatter.
//!
//! For every pair of column pairs in the chosen corpus: build sketches,
//! join them, estimate the correlation, and compare against the exact
//! after-join correlation. The paper plots the raw scatter; this binary
//! prints the scatter density (a terminal heat map) plus summary accuracy
//! numbers, and optionally dumps the raw `(truth, estimate, n)` triples
//! as CSV for external plotting.
//!
//! ```text
//! cargo run --release -p sketch-bench --bin fig3_estimation -- \
//!     --dataset nyc --scale 300 --sketch-size 256 --min-sample 3
//! ```
//!
//! Paper reference points: SBN estimates hug the diagonal; NYC/WBF show a
//! vertical over-estimation band at truth ≈ 0 that disappears when
//! filtering to join samples ≥ 20 (Figure 3d). Both are checked below, at
//! bands from the default run; the exit code is the gate (`--csv` only
//! dumps).

use correlation_sketches::{SketchBuilder, SketchConfig};
use sketch_bench::{corpus_pairs, evaluable_pairs, Args, CorpusChoice, Gate};
use sketch_stats::{rmse, CorrelationEstimator};

/// The default run measures RMSE 0.1035 over all pairs.
const MAX_RMSE: f64 = 0.12;
/// The default run has 0.822 of its estimates within ±0.10 of the truth.
const MIN_WITHIN_010: f64 = 0.78;

struct Point {
    truth: f64,
    estimate: f64,
    sample: usize,
}

fn main() {
    let args = Args::from_env();
    let dataset: CorpusChoice = args
        .get("dataset")
        .unwrap_or("sbn")
        .parse()
        .expect("--dataset sbn|wbf|nyc");
    let scale = args.get_or(
        "scale",
        match dataset {
            CorpusChoice::Sbn => 300usize,
            CorpusChoice::Wbf => 64,
            CorpusChoice::Nyc => 300,
        },
    );
    let sketch_size = args.get_or("sketch-size", 256usize);
    let min_sample = args.get_or("min-sample", 3usize);
    let max_pairs = args.get_or("max-pairs", 5_000usize);
    let seed = args.get_or("seed", 0x316u64);
    let dump_csv = args.flag("csv");
    args.finish("fig3_estimation");

    eprintln!(
        "fig3: dataset={dataset} scale={scale} sketch_size={sketch_size} \
         min_sample={min_sample} max_pairs={max_pairs} seed={seed}"
    );

    let pairs = corpus_pairs(dataset, scale, seed, max_pairs);
    let builder = SketchBuilder::new(SketchConfig::with_size(sketch_size));

    let mut points = Vec::new();
    for (truth, sample) in evaluable_pairs(&pairs, &builder, min_sample) {
        let Ok(estimate) = sample.estimate(CorrelationEstimator::Pearson) else {
            continue;
        };
        points.push(Point {
            truth,
            estimate,
            sample: sample.len(),
        });
    }

    if dump_csv {
        println!("truth,estimate,sample_size");
        for p in &points {
            println!("{},{},{}", p.truth, p.estimate, p.sample);
        }
        return;
    }

    let Some((all_rmse, within_010)) = report(&points, min_sample) else {
        println!("fig3: FAIL — no evaluable pairs");
        std::process::exit(1);
    };
    let mut gate = Gate::default();
    gate.check(all_rmse <= MAX_RMSE, || {
        format!("RMSE {all_rmse:.4} above {MAX_RMSE}")
    });
    gate.check(within_010 >= MIN_WITHIN_010, || {
        format!("{within_010:.3} within +-0.10, below {MIN_WITHIN_010}")
    });
    // Figure 3d: re-filter at n ≥ 20 for the real-data collections.
    if min_sample < 20 {
        let filtered: Vec<Point> = points.into_iter().filter(|p| p.sample >= 20).collect();
        println!("\n--- filtered to join samples >= 20 (Figure 3d view) ---");
        match report(&filtered, 20) {
            Some((rmse_20, _)) if rmse_20 > all_rmse => gate.0.push(format!(
                "RMSE {rmse_20:.4} at n >= 20 above {all_rmse:.4} over all samples"
            )),
            None => gate.0.push("no pair with a join sample >= 20".to_string()),
            Some(_) => {}
        }
    }
    let ok = format!(
        "RMSE <= {MAX_RMSE}, >= {MIN_WITHIN_010} within +-0.10, and RMSE at n >= 20 no \
         higher than over all samples"
    );
    gate.verdict("fig3", &ok);
}

/// Print one accuracy block; `(RMSE, share within ±0.10)` unless empty.
fn report(points: &[Point], min_sample: usize) -> Option<(f64, f64)> {
    if points.is_empty() {
        println!("no evaluable pairs (min_sample={min_sample})");
        return None;
    }
    let truths: Vec<f64> = points.iter().map(|p| p.truth).collect();
    let ests: Vec<f64> = points.iter().map(|p| p.estimate).collect();
    let err_rmse = rmse(&ests, &truths);
    let within = |tol: f64| {
        points
            .iter()
            .filter(|p| (p.estimate - p.truth).abs() <= tol)
            .count() as f64
            / points.len() as f64
    };

    println!("pairs evaluated (n >= {min_sample}): {}", points.len());
    println!("RMSE(estimate, truth)            : {err_rmse:.4}");
    println!("fraction within +-0.05           : {:.3}", within(0.05));
    println!("fraction within +-0.10           : {:.3}", within(0.10));
    println!("fraction within +-0.25           : {:.3}", within(0.25));

    // Terminal scatter density: 21x21 grid over [-1, 1]^2.
    const GRID: usize = 21;
    let mut grid = [[0usize; GRID]; GRID];
    for p in points {
        let gx = (((p.truth + 1.0) / 2.0 * (GRID as f64 - 1.0)).round() as usize).min(GRID - 1);
        let gy = (((p.estimate + 1.0) / 2.0 * (GRID as f64 - 1.0)).round() as usize).min(GRID - 1);
        grid[GRID - 1 - gy][gx] += 1;
    }
    println!("\nscatter density (x: actual -1..1, y: estimate 1..-1):");
    for row in &grid {
        let line: String = row
            .iter()
            .map(|&c| match c {
                0 => ' ',
                1..=2 => '.',
                3..=9 => 'o',
                10..=29 => 'O',
                _ => '#',
            })
            .collect();
        println!("|{line}|");
    }
    println!("(diagonal concentration = accurate estimates)");
    Some((err_rmse, within(0.10)))
}
