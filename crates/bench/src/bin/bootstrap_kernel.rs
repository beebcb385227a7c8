//! **bootstrap_kernel** — microbench of the bootstrap resample inner
//! loop, in three tables.
//!
//! **Gather** (the `--assert` gate): the retired
//! gather-then-two-pass-Pearson shape (kept in-tree as
//! [`sketch_stats::kernel::resample_pearson_twopass`], the numerical
//! baseline) against the fused index-gather + five-sum kernel
//! ([`gather_sums`](kernel::gather_sums) +
//! [`pearson_from_gather`](kernel::pearson_from_gather)).
//!
//! **Index draw**: the other part of a resample, which the gather table
//! (pre-drawn index blocks) leaves out. With a division per index a live
//! resample cost ≈ 3.9 ns per element, of which the fused gather was
//! ≈ 1.06 ns: gather ≈ ¼, draw ≈ ¾. The table reports draws per second
//! three ways over one seed's stream: generator word
//! `%` n (hardware `div`), generator word through
//! [`IndexDraw`](kernel::IndexDraw) (the exact reciprocal remainder), and
//! [`WordStream`](kernel::WordStream) words — kept, not regenerated —
//! through the same draw, which is what the bootstrap runs.
//!
//! **Whole call**: µs per `scored_estimate` under PM1 at 95% — one
//! replicate pass of 599 resamples, estimate and interval together.
//!
//! ```text
//! cargo run --release -p sketch-bench --bin bootstrap_kernel -- \
//!     [--ms 300] [--blocks 64] [--assert 2.0] [--json true]
//! ```
//!
//! The gather table runs `n ∈ {32, 256, 4096}` (the span from tiny join
//! samples to full-size sketches): the harness pre-draws `--blocks`
//! deterministic index blocks, then times each variant for at least
//! `--ms` milliseconds of steady-state work, cycling through the blocks
//! so neither variant can specialize to one index pattern. The fused
//! path's one-off column centering is setup, not per-resample work: a
//! PM1 run amortizes it over hundreds of resamples. The other two tables
//! run `n ∈ {32, 256, 1024}`, up to the ledger's sketch size.
//!
//! Reported per `n`: resamples/sec for both gather shapes and the
//! fused/legacy ratio; the headline number is the geometric mean of the
//! per-size ratios (at n = 32 a resample is ~60 ns, so its ratio wobbles
//! ±25% run to run — the geomean is the stable summary). `--assert [min]`
//! exits non-zero unless the geomean clears `min` (default 2.0, the PR
//! gate). The draw and whole-call tables are reported, not gated: a
//! ratio against hardware `div` is the machine's. `--json` prints all
//! three tables as one JSON object.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use sketch_bench::Args;
use sketch_stats::{kernel, scored_estimate, BootstrapScratch, CorrelationEstimator};

/// SplitMix64 step for the deterministic index blocks and column noise
/// (`StdRng` appears only where the production stream is what is timed).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Uniform f64 in [0, 1) from the top 53 bits.
fn unit_f64(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Correlated column pair of length `n` (slope 2 plus noise), like the
/// conditioned fixtures of the `prop_kernel` battery.
fn columns(n: usize, state: &mut u64) -> (Vec<f64>, Vec<f64>) {
    let x: Vec<f64> = (0..n)
        .map(|i| i as f64 + (unit_f64(state) - 0.5) * 0.8)
        .collect();
    let y: Vec<f64> = x
        .iter()
        .map(|&v| 2.0 * v + (unit_f64(state) - 0.5) * 6.0)
        .collect();
    (x, y)
}

/// Run `lap` (which reports how many units of work it did) until at
/// least `min_ms` of wall time has elapsed, after one untimed warm-up
/// lap. Returns units/sec.
fn rate(min_ms: f64, mut lap: impl FnMut() -> u64) -> f64 {
    lap();
    let mut total = 0u64;
    let start = Instant::now();
    loop {
        total += lap();
        if start.elapsed().as_secs_f64() * 1e3 >= min_ms {
            break;
        }
    }
    total as f64 / start.elapsed().as_secs_f64()
}

/// Run `resample` once per pre-drawn index block, cycling, under
/// [`rate`]. Returns (resamples/sec, checksum) — the checksum is consumed
/// by the caller so the optimizer cannot discard the work.
fn throughput(
    blocks: &[Vec<u32>],
    min_ms: f64,
    mut resample: impl FnMut(&[u32]) -> f64,
) -> (f64, f64) {
    let mut sink = 0.0;
    let per_sec = rate(min_ms, || {
        for idx in blocks {
            sink += resample(idx);
        }
        blocks.len() as u64
    });
    (per_sec, sink)
}

/// One row of the index-draw table: draws/sec over the first 599
/// resamples of `seed`'s stream, by `%`, by the reciprocal, and by the
/// reciprocal over kept words. All three must visit the same indices.
fn index_draw_row(n: usize, seed: u64, min_ms: f64) -> (f64, f64, f64) {
    const RESAMPLES: usize = 599;
    // A modulus the optimizer cannot see: `% 256` must stay a division.
    let n = std::hint::black_box(n);
    let draws = (n * RESAMPLES) as u64;
    let draw = kernel::IndexDraw::new(n);
    let mut sums = [0u64; 3];
    let modulo = rate(min_ms, || {
        let mut rng = StdRng::seed_from_u64(seed);
        sums[0] = (0..draws).fold(0, |acc, _| acc + rng.next_u64() % n as u64);
        draws
    });
    let reciprocal = rate(min_ms, || {
        let mut rng = StdRng::seed_from_u64(seed);
        sums[1] = (0..draws).fold(0, |acc, _| acc + draw.index(rng.next_u64()) as u64);
        draws
    });
    let mut stream = kernel::WordStream::default();
    let kept = rate(min_ms, || {
        let words = stream.rewind(seed);
        sums[2] = 0;
        for _ in 0..RESAMPLES {
            sums[2] += words
                .next(n)
                .iter()
                .fold(0, |acc, &w| acc + draw.index(w) as u64);
        }
        draws
    });
    assert!(
        sums[0] == sums[1] && sums[1] == sums[2],
        "index streams diverged at n={n}: {sums:?}"
    );
    (modulo, reciprocal, kept)
}

fn main() {
    let args = Args::from_env();
    let min_ms = args.get_or("ms", 300.0f64);
    let n_blocks = args.get_or("blocks", 64usize).max(1);
    let seed = args.get_or("seed", 0x00c1_5eedu64);
    let json = args.get_or("json", false);
    // Bare `--assert` gates at the PR threshold; `--assert <r>` overrides.
    let min_ratio: Option<f64> = args.get("assert").map(|v| {
        if v == "true" {
            2.0
        } else {
            v.parse().unwrap_or_else(|e| panic!("--assert {v}: {e:?}"))
        }
    });

    let sizes = [32usize, 256, 4096];
    let mut rows = Vec::new();
    let mut checksum = 0.0f64;

    if !json {
        println!("bootstrap resample kernel — fused gather+sums vs two-pass baseline");
        println!(
            "{:>6}  {:>14}  {:>14}  {:>7}",
            "n", "legacy rs/s", "fused rs/s", "ratio"
        );
    }

    for n in sizes {
        let mut state = seed ^ (n as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let (x, y) = columns(n, &mut state);
        // One-off setup of each shape: the legacy path owns its gather
        // buffers, the fused path its centered column copies.
        let mut bx = vec![0.0f64; n];
        let mut by = vec![0.0f64; n];
        let (mean_x, mean_y) = kernel::column_means(&x, &y);
        let cx: Vec<f64> = x.iter().map(|v| v - mean_x).collect();
        let cy: Vec<f64> = y.iter().map(|v| v - mean_y).collect();
        let blocks: Vec<Vec<u32>> = (0..n_blocks)
            .map(|_| {
                (0..n)
                    .map(|_| (splitmix64(&mut state) % n as u64) as u32)
                    .collect()
            })
            .collect();

        let (legacy_rps, s1) = throughput(&blocks, min_ms, |idx| {
            kernel::resample_pearson_twopass(&x, &y, idx, &mut bx, &mut by).unwrap_or(0.0)
        });
        let (fused_rps, s2) = throughput(&blocks, min_ms, |idx| {
            kernel::pearson_from_gather(n, &kernel::gather_sums(&cx, &cy, idx)).unwrap_or(0.0)
        });
        checksum += s1 - s2;
        let ratio = fused_rps / legacy_rps;
        if !json {
            println!("{n:>6}  {legacy_rps:>14.0}  {fused_rps:>14.0}  {ratio:>6.2}x");
        }
        rows.push((n, legacy_rps, fused_rps, ratio));
    }
    // The two variants replay identical resamples, so their checksums
    // cancel; printing the residual keeps the work observable.
    eprintln!("bootstrap_kernel: checksum residual {checksum:.3e}");
    let geomean = (rows.iter().map(|&(_, _, _, r)| r.ln()).sum::<f64>() / rows.len() as f64).exp();
    if !json {
        println!("geomean ratio: {geomean:.2}x");
    }

    let call_sizes = [32usize, 256, 1024];
    let estimator = CorrelationEstimator::Pm1Bootstrap { seed: 0x5eed };
    if !json {
        println!("index draw (M draws/s) and whole scored PM1 call");
        println!(
            "{:>6}  {:>9}  {:>10}  {:>11}  {:>12}",
            "n", "word % n", "reciprocal", "kept stream", "scored us"
        );
    }
    let mut draw_fields = Vec::new();
    let mut call_fields = Vec::new();
    for n in call_sizes {
        let (modulo, reciprocal, kept) = index_draw_row(n, 0x5eed, min_ms);
        let mut state = seed ^ (n as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let (x, y) = columns(n, &mut state);
        let mut scratch = BootstrapScratch::new();
        let calls_per_sec = rate(min_ms, || {
            let scored = scored_estimate(estimator, &x, &y, 0.95, &mut scratch);
            std::hint::black_box(scored.expect("conditioned columns"));
            1
        });
        let scored_us = 1e6 / calls_per_sec;
        if !json {
            println!(
                "{n:>6}  {:>9.0}  {:>10.0}  {:>11.0}  {scored_us:>12.1}",
                modulo / 1e6,
                reciprocal / 1e6,
                kept / 1e6
            );
        }
        draw_fields.push(format!(
            "{{\"n\":{n},\"modulo_draws_per_sec\":{modulo:.0},\
             \"reciprocal_draws_per_sec\":{reciprocal:.0},\
             \"kept_stream_draws_per_sec\":{kept:.0}}}"
        ));
        call_fields.push(format!("{{\"n\":{n},\"us_per_call\":{scored_us:.1}}}"));
    }

    let fields: Vec<String> = rows
        .iter()
        .map(|(n, l, f, r)| {
            format!(
                "{{\"n\":{n},\"legacy_resamples_per_sec\":{l:.0},\
                 \"fused_resamples_per_sec\":{f:.0},\"ratio\":{r:.3}}}"
            )
        })
        .collect();
    let obj = format!(
        "{{\"bench\":\"bootstrap_kernel\",\"ms_per_variant\":{min_ms},\
         \"index_blocks\":{n_blocks},\"seed\":{seed},\
         \"geomean_ratio\":{geomean:.3},\"sizes\":[{}],\
         \"index_draw\":[{}],\"scored_pm1\":[{}]}}",
        fields.join(","),
        draw_fields.join(","),
        call_fields.join(",")
    );
    if json {
        println!("{obj}");
    }

    if let Some(gate) = min_ratio {
        if geomean < gate {
            eprintln!(
                "bootstrap_kernel: FAIL — geomean fused/legacy ratio {geomean:.2}x \
                 below the {gate:.2}x gate"
            );
            std::process::exit(1);
        }
        println!("bootstrap_kernel: OK — geomean speedup {geomean:.2}x >= {gate:.2}x gate");
    }
}
