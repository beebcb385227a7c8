//! **Ablation: confidence-interval methods** — Fisher's z vs. the
//! paper's Hoeffding interval vs. PM1 bootstrap: empirical coverage of
//! the true correlation, interval width, and computation cost.
//!
//! This quantifies the paper's Section 4.2 argument: Hoeffding bounds are
//! distribution-free and **constant time** while the bootstrap needs
//! hundreds of resamples ("we derive rankings that are comparable to …
//! bootstrapping at a fraction of the cost").
//!
//! ```text
//! cargo run --release -p sketch-bench --bin ablation_ci -- --scale 150
//! ```

use correlation_sketches::{join_sketches, SketchBuilder, SketchConfig};
use sketch_bench::{corpus_pairs, time_ms, Args, CorpusChoice};
use sketch_stats::fisher_z_interval;
use sketch_table::{exact_join, Aggregation};

#[derive(Default)]
struct Tally {
    covered: usize,
    total: usize,
    width_sum: f64,
    time_ms: f64,
}

impl Tally {
    fn add(&mut self, covered: bool, width: f64, t: f64) {
        self.covered += usize::from(covered);
        self.total += 1;
        self.width_sum += width;
        self.time_ms += t;
    }

    fn row(&self, name: &str) {
        if self.total == 0 {
            println!("{name:<12} (no samples)");
            return;
        }
        println!(
            "{:<12} {:>9.1}% {:>11.3} {:>13.4}",
            name,
            self.covered as f64 / self.total as f64 * 100.0,
            self.width_sum / self.total as f64,
            self.time_ms / self.total as f64
        );
    }
}

fn main() {
    let args = Args::from_env();
    let scale = args.get_or("scale", 150usize);
    let max_pairs = args.get_or("max-pairs", 1_200usize);
    let sketch_size = args.get_or("sketch-size", 256usize);
    let alpha = args.get_or("alpha", 0.05f64);
    let seed = args.get_or("seed", 0xab3u64);
    args.finish("ablation_ci");

    eprintln!("ablation_ci: scale={scale} max_pairs={max_pairs} alpha={alpha}");
    let pairs = corpus_pairs(CorpusChoice::Nyc, scale, seed, max_pairs);
    let builder = SketchBuilder::new(SketchConfig::with_size(sketch_size));

    let mut hoeffding = Tally::default();
    let mut bernstein = Tally::default();
    let mut hfd = Tally::default();
    let mut fisher = Tally::default();
    let mut pm1 = Tally::default();

    for (a, b) in &pairs {
        let joined = exact_join(a, b, Aggregation::Mean);
        if joined.len() < 10 {
            continue;
        }
        let Ok(truth) = sketch_stats::pearson(&joined.x, &joined.y) else {
            continue;
        };
        let Ok(sample) = join_sketches(&builder.build(a), &builder.build(b)) else {
            continue;
        };
        if sample.len() < 10 {
            continue;
        }
        let Ok(r_est) = sample.estimate(sketch_stats::CorrelationEstimator::Pearson) else {
            continue;
        };

        let (ci, t) = time_ms(|| sample.hoeffding_ci(alpha).unwrap());
        hoeffding.add(ci.contains(truth), ci.length(), t);

        let (ci, t) = time_ms(|| sample.bernstein_ci(alpha).unwrap());
        bernstein.add(ci.contains(truth), ci.length(), t);

        let (ci, t) = time_ms(|| sample.hfd_ci(alpha).unwrap());
        hfd.add(ci.contains(truth), ci.length(), t);

        let (ci, t) = time_ms(|| fisher_z_interval(r_est, sample.len(), alpha));
        fisher.add(ci.contains(truth), ci.length(), t);

        let (ci, t) = time_ms(|| sample.pm1_ci(seed));
        if let Ok(ci) = ci {
            pm1.add(ci.contains(truth), ci.length(), t);
        }
    }

    println!(
        "\n{:<12} {:>10} {:>11} {:>13}",
        "method", "coverage", "mean width", "mean ms/call"
    );
    hoeffding.row("hoeffding");
    bernstein.row("bernstein");
    hfd.row("hfd");
    fisher.row("fisher-z");
    pm1.row("pm1-boot");
    println!(
        "\nExpected shape: hoeffding coverage ≥ 95% (conservative — often \
         saturating at width 2 for the small join samples of a sketch \
         corpus); bernstein identical here but pulls ahead once samples \
         reach ~10k and column variance ≪ range² (see the unit tests in \
         sketch-stats::ci); fisher-z far narrower but can under-cover on \
         non-normal data; pm1 competitive coverage at orders-of-magnitude \
         higher cost. hfd is not a probabilistic bound and is unclamped: \
         its (sometimes huge) width is the relative risk signal the \
         rp*cih scorer normalizes per ranked list."
    );
}
