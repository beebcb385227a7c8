//! **Section 1 anecdote** — "joining a dataset on taxi pickups (~1 GB)
//! with a dataset on precipitation (~3 MB) took about 29 seconds and
//! computing the Spearman's coefficient … took about 5 seconds".
//!
//! We reproduce the *shape* at configurable scale: one large taxi-like
//! table joined with a small weather-like table, full pipeline vs. sketch
//! pipeline.
//!
//! ```text
//! cargo run --release -p sketch-bench --bin intro_anecdote -- --rows 2000000
//! ```

use correlation_sketches::{join_sketches, SketchBuilder, SketchConfig};
use sketch_bench::{time_ms, Args};
use sketch_datagen::Dist;
use sketch_stats::{pearson, spearman, CorrelationEstimator};
use sketch_table::{exact_join, Aggregation, ColumnPair};

fn main() {
    let args = Args::from_env();
    let rows = args.get_or("rows", 2_000_000usize);
    let days = args.get_or("days", 1_500usize);
    let sketch_size = args.get_or("sketch-size", 1024usize);
    let seed = args.get_or("seed", 0x1a_1au64);
    args.finish("intro_anecdote");

    eprintln!("intro: taxi rows={rows}, weather days={days}, sketch_size={sketch_size}");

    // Taxi-like table: many trip rows per day key; pickups correlate with
    // a latent per-day demand factor.
    let mut d = Dist::seeded(seed);
    let demand: Vec<f64> = (0..days).map(|_| d.normal() * 2.0 + 10.0).collect();
    let day_key = |i: usize| format!("2021-{:04}", i);

    let mut taxi_keys = Vec::with_capacity(rows);
    let mut taxi_vals = Vec::with_capacity(rows);
    for _ in 0..rows {
        let day = d.index(days);
        taxi_keys.push(day_key(day));
        taxi_vals.push((demand[day] + d.normal()).max(0.0));
    }
    let taxi = ColumnPair::new("taxi", "day", "pickups", taxi_keys, taxi_vals);

    // Weather-like table: one row per day; precipitation correlated with
    // the same latent demand (negatively — rain suppresses pickups).
    let weather = ColumnPair::new(
        "weather",
        "day",
        "precipitation",
        (0..days).map(day_key).collect(),
        (0..days)
            .map(|i| (-0.8 * demand[i] + 12.0 + 0.3 * d.normal()).max(0.0))
            .collect(),
    );

    // Full-data pipeline.
    let (joined, t_join) = time_ms(|| exact_join(&taxi, &weather, Aggregation::Mean));
    let (r_full, t_rp) = time_ms(|| pearson(&joined.x, &joined.y).unwrap());
    let (rs_full, t_rs) = time_ms(|| spearman(&joined.x, &joined.y).unwrap());

    // Sketch pipeline (construction shown separately: it is a one-time
    // indexing cost amortized over all future queries).
    let builder = SketchBuilder::new(SketchConfig::with_size(sketch_size));
    let (sk_taxi, t_build_big) = time_ms(|| builder.build(&taxi));
    let (sk_weather, t_build_small) = time_ms(|| builder.build(&weather));
    let (sample, t_sk_join) = time_ms(|| join_sketches(&sk_taxi, &sk_weather).unwrap());
    let (r_sk, t_sk_rp) = time_ms(|| sample.estimate(CorrelationEstimator::Pearson).unwrap());
    let (rs_sk, t_sk_rs) = time_ms(|| sample.estimate(CorrelationEstimator::Spearman).unwrap());

    println!(
        "\nfull data: join of {rows} x {days} rows -> {} joined days",
        joined.len()
    );
    println!("  join            : {t_join:>10.1} ms");
    println!("  pearson         : {t_rp:>10.3} ms  (r = {r_full:.3})");
    println!("  spearman        : {t_rs:>10.3} ms  (r = {rs_full:.3})");
    println!(
        "\nsketch (size {sketch_size}): join sample = {} rows",
        sample.len()
    );
    println!("  build (1-time)  : {t_build_big:>10.1} ms + {t_build_small:.1} ms");
    println!("  sketch join     : {t_sk_join:>10.3} ms");
    println!("  pearson         : {t_sk_rp:>10.3} ms  (r = {r_sk:.3})");
    println!("  spearman        : {t_sk_rs:>10.3} ms  (r = {rs_sk:.3})");
    println!(
        "\nspeedup at query time: {:.0}x (join) / {:.0}x (join+spearman)",
        t_join / t_sk_join.max(1e-6),
        (t_join + t_rs) / (t_sk_join + t_sk_rs).max(1e-6)
    );
    println!(
        "estimate error: pearson {:+.3}, spearman {:+.3}",
        r_sk - r_full,
        rs_sk - rs_full
    );
}
