//! **Table 2** — running times (ms) for computing joins and correlations
//! using the full data vs. the sketches, and the **Section 1 anecdote**
//! — one large pair, full pipeline vs. sketch pipeline.
//!
//! Columns: full-data join, full-data Spearman (`r_s`), full-data Pearson
//! (`r_p`), sketch join, sketch Pearson, sketch Spearman. Rows: mean,
//! std-dev, p75, p90, p99, p99.9. The large pair is a 2,000,000-row
//! taxi-like table (many trips per day) joined with a 1,500-row
//! weather-like one ("joining a dataset on taxi pickups (~1 GB) with a
//! dataset on precipitation (~3 MB) took about 29 seconds").
//!
//! ```text
//! cargo run --release -p sketch-bench --bin table2_runtime -- \
//!     --dataset nyc --scale 200 --max-pairs 800 --sketch-size 1024
//! ```
//!
//! Paper reference points: sketch operations are orders of magnitude
//! faster than full-data operations and — because sketch size is fixed —
//! have far smaller tail percentiles (predictable latency). Both sections
//! are checked below by time ratios, not milliseconds, at bands from
//! three seeds; the exit code is the gate. The Spearman columns are
//! reported, not gated: on this corpus join sizes sit near the sketch
//! size, so a full-data Spearman costs about what a sketch one does.

use correlation_sketches::{join_sketches, CorrelationSketch, SketchBuilder, SketchConfig};
use sketch_bench::{corpus_pairs, time_ms, Args, CorpusChoice, Gate, LatencySummary};
use sketch_datagen::Dist;
use sketch_stats::{pearson, spearman};
use sketch_table::{exact_join, Aggregation, ColumnPair};

/// The corpus section: the sketch join at least this many times faster
/// than the full join, at the mean and at p99. Six runs each of seeds
/// 0x7ab2 (the default), 1 and 2 measure at least 10.5x (p99, seed 1).
const MIN_JOIN_SPEEDUP: f64 = 5.0;
/// The large pair: rows of the taxi-like table, days of the weather one.
const TAXI_ROWS: usize = 2_000_000;
const DAYS: usize = 1_500;
/// The large pair: sketch join + Spearman at least this many times faster
/// than full join + Spearman. Four runs each of seeds 0x7ab2, 1 and 2
/// measure at least 884x.
const MIN_PAIR_SPEEDUP: f64 = 100.0;
/// The large pair: how far each sketch estimate (Pearson, Spearman) may
/// sit from the full-data value. Seeds 0x7ab2, 1 and 2 measure at most
/// 0.0005.
const MAX_PAIR_ERROR: f64 = 0.01;

fn main() {
    let args = Args::from_env();
    let dataset: CorpusChoice = args
        .get("dataset")
        .unwrap_or("nyc")
        .parse()
        .expect("--dataset sbn|wbf|nyc");
    let scale = args.get_or("scale", 200usize);
    let max_pairs = args.get_or("max-pairs", 800usize);
    let sketch_size = args.get_or("sketch-size", 1024usize);
    let seed = args.get_or("seed", 0x7ab2u64);
    args.finish("table2_runtime");

    eprintln!(
        "table2: dataset={dataset} scale={scale} max_pairs={max_pairs} sketch_size={sketch_size}"
    );

    let pairs = corpus_pairs(dataset, scale, seed, max_pairs);
    let builder = SketchBuilder::new(SketchConfig::with_size(sketch_size));

    // Pre-build sketches: construction is an offline indexing cost, not a
    // query-time cost (the paper's comparison is join+estimate).
    let sketches: Vec<(CorrelationSketch, CorrelationSketch)> = pairs
        .iter()
        .map(|(a, b)| (builder.build(a), builder.build(b)))
        .collect();

    // Milliseconds per column: full join, r_s, r_p, then sketch join,
    // r_p, r_s.
    let mut ms: [Vec<f64>; 6] = Default::default();
    for ((a, b), (sa, sb)) in pairs.iter().zip(&sketches) {
        let (joined, t_join) = time_ms(|| exact_join(a, b, Aggregation::Mean));
        ms[0].push(t_join);
        if joined.len() >= 3 {
            let t_rp = time_ms(|| pearson(&joined.x, &joined.y)).1;
            ms[1].push(time_ms(|| spearman(&joined.x, &joined.y)).1);
            ms[2].push(t_rp);
        }

        let (sample, t_sj) = time_ms(|| join_sketches(sa, sb).expect("same hasher"));
        ms[3].push(t_sj);
        if sample.len() >= 3 {
            ms[4].push(time_ms(|| pearson(&sample.x, &sample.y)).1);
            ms[5].push(time_ms(|| spearman(&sample.x, &sample.y)).1);
        }
    }

    println!(
        "\nTable 2 — running times in milliseconds ({} pairs)",
        pairs.len()
    );
    println!(
        "{:<12} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "", "full join", "full r_s", "full r_p", "sk join", "sk r_p", "sk r_s"
    );
    type Extract = fn(&LatencySummary) -> f64;
    let rows: [(&str, Extract); 6] = [
        ("mean", |s| s.mean),
        ("std. dev.", |s| s.std_dev),
        ("75%", |s| s.p75),
        ("90%", |s| s.p90),
        ("99%", |s| s.p99),
        ("99.9%", |s| s.p999),
    ];
    let summaries = ms.map(|column| LatencySummary::of(&column));
    for (label, extract) in rows {
        print!("{label:<12}");
        for s in &summaries {
            print!(" {:>12.4}", extract(s));
        }
        println!();
    }

    let (full, sketch) = (&summaries[0], &summaries[3]);
    let (at_mean, at_p99) = (
        full.mean / sketch.mean.max(1e-9),
        full.p99 / sketch.p99.max(1e-9),
    );
    println!("\nsketch join speedup: {at_mean:.1}x at the mean, {at_p99:.1}x at p99");

    // Section 1's pair. Each query-time step keeps the fastest of three
    // runs, so one preemption does not decide the gate; building the
    // sketches is a one-time indexing cost, shown apart.
    let (taxi, weather) = large_pair(seed);
    let (joined, t_join) = best_of_3(|| exact_join(&taxi, &weather, Aggregation::Mean));
    let (rs, t_rs) = best_of_3(|| spearman(&joined.x, &joined.y));
    let ((sk_taxi, sk_weather), t_build) =
        time_ms(|| (builder.build(&taxi), builder.build(&weather)));
    let (sample, t_sk_join) =
        best_of_3(|| join_sketches(&sk_taxi, &sk_weather).expect("one hasher"));
    let (sk_rs, t_sk_rs) = best_of_3(|| spearman(&sample.x, &sample.y));
    let speedup = (t_join + t_rs) / (t_sk_join + t_sk_rs).max(1e-9);
    println!(
        "\nSection 1 — {TAXI_ROWS} x {DAYS} rows, {} joined, a sketch join of {} (both \
         sketches built once in {t_build:.1} ms)\n  full join {t_join:.1} ms + spearman \
         {t_rs:.3} ms; sketch join {t_sk_join:.3} ms + spearman {t_sk_rs:.3} ms: {speedup:.0}x",
        joined.len(),
        sample.len()
    );

    let mut gate = Gate::default();
    for (speedup, at) in [(at_mean, "the mean"), (at_p99, "p99")] {
        gate.check(speedup >= MIN_JOIN_SPEEDUP, || {
            format!("sketch join {speedup:.1}x faster at {at}, below {MIN_JOIN_SPEEDUP}x")
        });
    }
    gate.check(speedup >= MIN_PAIR_SPEEDUP, || {
        format!("large pair join+spearman {speedup:.0}x faster, below {MIN_PAIR_SPEEDUP}x")
    });
    let rp = (pearson(&joined.x, &joined.y), pearson(&sample.x, &sample.y));
    for (name, (full, sketch)) in [("pearson", rp), ("spearman", (rs, sk_rs))] {
        let error = match (full, sketch) {
            (Ok(full), Ok(sketch)) => sketch - full,
            _ => f64::NAN,
        };
        println!("  {name}: sketch estimate {error:+.4} from the full data");
        gate.check(error.abs() <= MAX_PAIR_ERROR, || {
            format!("large pair {name} error {error:+.4} beyond +-{MAX_PAIR_ERROR}")
        });
    }
    let ok = format!(
        "sketch join >= {MIN_JOIN_SPEEDUP}x faster than the full join at the mean and p99; \
         large pair join+spearman >= {MIN_PAIR_SPEEDUP}x faster, estimates within \
         +-{MAX_PAIR_ERROR}"
    );
    gate.verdict("table2", &ok);
}

/// Run `f` three times: its last result and its fastest time (ms).
fn best_of_3<T>(f: impl Fn() -> T) -> (T, f64) {
    let [(_, t1), (_, t2), (out, t3)] = [(); 3].map(|()| time_ms(&f));
    (out, t1.min(t2).min(t3))
}

/// Section 1's pair: a taxi-like table with many trip rows per day key,
/// its pickups following a latent per-day demand, and a weather-like
/// table with one row per day whose precipitation follows the same
/// demand, negatively (rain suppresses pickups).
fn large_pair(seed: u64) -> (ColumnPair, ColumnPair) {
    let mut d = Dist::seeded(seed);
    let demand: Vec<f64> = (0..DAYS).map(|_| d.normal() * 2.0 + 10.0).collect();
    let day_key = |i: usize| format!("2021-{i:04}");

    let (taxi_keys, taxi_vals) = (0..TAXI_ROWS)
        .map(|_| {
            let day = d.index(DAYS);
            (day_key(day), (demand[day] + d.normal()).max(0.0))
        })
        .unzip();
    let taxi = ColumnPair::new("taxi", "day", "pickups", taxi_keys, taxi_vals);
    let weather = ColumnPair::new(
        "weather",
        "day",
        "precipitation",
        (0..DAYS).map(day_key).collect(),
        (0..DAYS)
            .map(|i| (-0.8 * demand[i] + 12.0 + 0.3 * d.normal()).max(0.0))
            .collect(),
    );
    (taxi, weather)
}
