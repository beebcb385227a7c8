//! Property battery for the SoA estimator kernels (the PR-6 hot path).
//!
//! Two distinct contracts are asserted here, and they are deliberately
//! different strengths:
//!
//! 1. **Bit-equivalence, unconditional**: the chunk-major optimized
//!    kernels and their per-lane-strided scalar references perform the
//!    same float operations in the same order, so they must agree
//!    `to_bits`-exactly for *every* numeric input — arbitrary shapes, ∞
//!    and signed-zero payloads, constant columns, degenerate resamples.
//!    No tolerance. The one carve-out is the *payload of NaN outputs*:
//!    IEEE 754 and LLVM leave NaN sign/payload propagation unspecified
//!    (`fadd` operands may be commuted per inlining context, and x86
//!    returns the first NaN operand), so two spellings of the same sum
//!    may yield differently-signed quiet NaNs. The battery therefore
//!    compares NaN as a class — *whether* a result is NaN is still exact
//!    — and [`bits_eq`] encodes that rule.
//! 2. **Old-vs-new tolerance, documented**: the fused corrected-sums
//!    resample kernel reassociates additions relative to the pre-kernel
//!    gather-then-two-pass path, so those paths agree only within a
//!    tolerance — `1e-9` per resample and per CI endpoint on bounded,
//!    well-conditioned data (order statistics are 1-Lipschitz under
//!    sup-norm perturbation of the replicate multiset). Resamples whose
//!    centered variance cancels below ~1e-6 of the raw second moment are
//!    outside the contract: there the old path already returned
//!    rounding noise, and the new path may classify them degenerate
//!    (`None`) instead. The PM1 *estimate* under the adaptive stopping
//!    rule gets a looser documented bound (the stopping iteration can
//!    flip on an ε change in one replicate), so the tight property runs
//!    on a fixed replicate budget.
//! 3. **One word stream, unconditional**: the division-free index draw,
//!    the kept word stream and the single replicate pass change *how*
//!    the resamples of a seed are produced and who reads them, never
//!    which resamples they are — so the draw equals `%` for every
//!    modulus and word, and the one-pass PM1 estimate + interval equals
//!    the two separately seeded legacy loops (reimplemented literally
//!    below, `random_range` and all) `to_bits`-exactly, for every
//!    config, confidence level and scratch history.

use proptest::collection::vec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sketch_stats::kernel::{
    centered_sums, centered_sums_scalar, column_means, gather_sums, gather_sums_scalar, lane_sum,
    lane_sum_scalar, pearson_from_gather, resample_pearson_twopass, IndexDraw,
};
use sketch_stats::{
    pearson, pearson_percentile_ci, percentile_bootstrap_ci, pm1_bootstrap, pm1_ci, pm1_with_ci,
    scored_estimate, spearman, BootstrapConfig, BootstrapScratch, CorrelationEstimator,
};

/// Bitwise equality with NaN compared as a class: every non-NaN value
/// (including -0.0 vs 0.0 and ±∞) must match to the bit, but any NaN
/// equals any NaN — NaN sign/payload is unspecified by IEEE 754/LLVM
/// and legitimately differs between spellings of the same sum.
fn bits_eq(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

/// Special values the sum kernels must propagate identically.
fn special() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(0.0),
        Just(-0.0),
        Just(1e300),
        Just(-1e300),
        Just(5e-324),
    ]
}

/// Arbitrary paired columns with special-value injections, plus a
/// resample index block over them (arbitrary length, including shorter
/// and much longer than the columns).
fn wild_columns() -> impl Strategy<Value = (Vec<f64>, Vec<f64>, Vec<u32>)> {
    (2usize..160).prop_flat_map(|n| {
        (
            vec(-1e4f64..1e4, n..n + 1),
            vec(-1e4f64..1e4, n..n + 1),
            vec(0usize..n, 1..350),
            vec((0usize..n, special()), 0..6),
            vec((0usize..n, special()), 0..6),
        )
            .prop_map(|(mut x, mut y, idx, inj_x, inj_y)| {
                for (i, v) in inj_x {
                    x[i] = v;
                }
                for (i, v) in inj_y {
                    y[i] = v;
                }
                let idx = idx.into_iter().map(|i| i as u32).collect();
                (x, y, idx)
            })
    })
}

/// Well-conditioned paired columns: strictly spread `x`, linear `y` with
/// bounded noise — every realistic resample keeps most of its variance,
/// which is what the old-vs-new tolerance contract covers.
fn conditioned_columns(len: std::ops::Range<usize>) -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
    len.prop_flat_map(|n| {
        (
            vec(-0.4f64..0.4, n..n + 1),
            vec(-3.0f64..3.0, n..n + 1),
            -5.0f64..5.0,
        )
            .prop_map(|(jitter, noise, slope)| {
                let x: Vec<f64> = jitter
                    .iter()
                    .enumerate()
                    .map(|(i, j)| i as f64 + j)
                    .collect();
                let y: Vec<f64> = x.iter().zip(&noise).map(|(v, e)| slope * v + e).collect();
                (x, y)
            })
    })
}

/// The pre-PR-6 replicate collector, reimplemented literally: gather the
/// resample into buffers, run two-pass `pearson`, keep successes, with
/// the same RNG stream and attempt budget as the production collectors.
fn legacy_replicates(x: &[f64], y: &[f64], replicates: usize, seed: u64) -> Vec<f64> {
    let n = x.len();
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut bx, mut by) = (vec![0.0; n], vec![0.0; n]);
    let mut rs = Vec::new();
    let mut attempts = 0usize;
    while rs.len() < replicates && attempts < replicates * 4 {
        attempts += 1;
        for i in 0..n {
            let j = rng.random_range(0..n);
            bx[i] = x[j];
            by[i] = y[j];
        }
        if let Ok(r) = pearson(&bx, &by) {
            rs.push(r);
        }
    }
    rs
}

/// Wilcox's index table, duplicated from the implementation for the
/// legacy oracle.
fn pm1_indices(n: usize) -> (usize, usize) {
    match n {
        0..=39 => (7, 593),
        40..=79 => (8, 592),
        80..=179 => (11, 589),
        180..=249 => (14, 586),
        _ => (16, 584),
    }
}

/// Moduli the exact remainder must hold for: the degenerate ones, both
/// sides of every power of two, the largest 32-bit one, and arbitrary
/// ones of every magnitude.
fn moduli() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(1usize),
        Just(2usize),
        Just(3usize),
        Just(333usize),
        Just((1usize << 32) - 1),
        Just(usize::MAX),
        (0u32..64).prop_map(|s| 1usize << s),
        (1u32..64).prop_map(|s| (1usize << s) - 1),
        (0u32..63).prop_map(|s| (1usize << s) + 1),
        1usize..5000,
        any::<usize>().prop_map(|n| n.max(1)),
        (any::<usize>(), 0u32..64).prop_map(|(n, s)| (n >> s).max(1)),
    ]
}

/// Tie-heavy paired columns (values from a two- or three-letter
/// alphabet): most short resamples of them are constant on one side, so
/// the attempt budgets — not the replicate targets — end the loops.
fn tied_columns(len: std::ops::Range<usize>) -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
    len.prop_flat_map(|n| (vec(0u8..2, n..n + 1), vec(0u8..3, n..n + 1)))
        .prop_map(|(x, y)| {
            (
                x.into_iter().map(f64::from).collect(),
                y.into_iter().map(f64::from).collect(),
            )
        })
}

/// The PM1 stopping rules the one-pass estimator must keep: the default,
/// budgets that end before the rule can fire (`max_resamples` < 100),
/// rules that cannot fire before the interval's 599 replicates are in
/// (`min_resamples` > 599), and a fixed budget.
fn configs() -> impl Strategy<Value = BootstrapConfig> {
    let with = |min_resamples, max_resamples| BootstrapConfig {
        min_resamples,
        max_resamples,
        ..BootstrapConfig::default()
    };
    prop_oneof![
        Just(BootstrapConfig::default()),
        (1usize..100).prop_map(move |max| with(100, max)),
        (600usize..900).prop_map(move |min| with(min, 10_000)),
        (1usize..700).prop_map(move |both| with(both, both)),
        (1usize..50, 0.001f64..0.2).prop_map(move |(min, threshold)| BootstrapConfig {
            mean_change_threshold: threshold,
            ..with(min, 2_000)
        }),
    ]
}

/// The pre-unification fused resample draw, literally: `n` calls of
/// `random_range(0..n)` into a `u32` index block, then the fused gather.
fn legacy_fused_draw(cx: &[f64], cy: &[f64], rng: &mut StdRng, idx: &mut [u32]) -> Option<f64> {
    let n = cx.len();
    for slot in idx.iter_mut() {
        *slot = rng.random_range(0..n) as u32;
    }
    pearson_from_gather(n, &gather_sums(cx, cy, idx))
}

fn centered(x: &[f64], y: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let (mx, my) = column_means(x, y);
    (
        x.iter().map(|v| v - mx).collect(),
        y.iter().map(|v| v - my).collect(),
    )
}

/// The pre-unification `pm1_bootstrap`, literally: its own generator,
/// its own adaptive loop. `None` where it returned an error.
fn legacy_pm1_estimate(x: &[f64], y: &[f64], cfg: &BootstrapConfig) -> Option<(f64, usize)> {
    pearson(x, y).ok()?;
    let (cx, cy) = centered(x, y);
    let mut idx = vec![0u32; x.len()];
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let (mut sum, mut sum_sq, mut count, mut attempts) = (0.0f64, 0.0f64, 0usize, 0usize);
    while count < cfg.max_resamples && attempts < cfg.max_resamples.saturating_mul(2) {
        attempts += 1;
        let Some(r) = legacy_fused_draw(&cx, &cy, &mut rng, &mut idx) else {
            continue;
        };
        count += 1;
        sum += r;
        sum_sq += r * r;
        if count >= cfg.min_resamples {
            let mean = sum / count as f64;
            let sd = (sum_sq / count as f64 - mean * mean).max(0.0).sqrt();
            if sd == 0.0 {
                break;
            }
            let z = cfg.mean_change_threshold * (count as f64 + 1.0) / sd;
            if 2.0 * (1.0 - sketch_stats::normal_cdf(z)) < cfg.stop_probability {
                break;
            }
        }
    }
    (count > 0).then(|| ((sum / count as f64).clamp(-1.0, 1.0), count))
}

/// The pre-unification replicate collector on the fused kernel,
/// literally: its own generator seeded alike, its own attempt budget.
/// `None` where it returned an error.
fn legacy_fused_replicates(x: &[f64], y: &[f64], replicates: usize, seed: u64) -> Option<Vec<f64>> {
    pearson(x, y).ok()?;
    let (cx, cy) = centered(x, y);
    let mut idx = vec![0u32; x.len()];
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rs = Vec::new();
    let mut attempts = 0usize;
    while rs.len() < replicates && attempts < replicates * 4 {
        attempts += 1;
        if let Some(r) = legacy_fused_draw(&cx, &cy, &mut rng, &mut idx) {
            rs.push(r);
        }
    }
    (rs.len() >= replicates / 2).then_some(rs)
}

/// The pre-unification interval, literally: the legacy replicates, a
/// full sort, then either Wilcox's indices (95%) or the percentile
/// ranks. `None` where it returned an error.
fn legacy_pm1_interval(
    x: &[f64],
    y: &[f64],
    replicates: usize,
    confidence: f64,
    seed: u64,
) -> Option<(f64, f64)> {
    let mut rs = legacy_fused_replicates(x, y, replicates, seed)?;
    rs.sort_by(f64::total_cmp);
    let b = rs.len();
    let (lo, hi) = if (confidence - 0.95).abs() < 1e-12 {
        let (a, c) = pm1_indices(x.len());
        let scale = b as f64 / 599.0;
        let lo = ((a as f64 * scale).round() as usize).clamp(1, b) - 1;
        let hi = ((c as f64 * scale).round() as usize).clamp(1, b) - 1;
        (lo.min(hi), lo.max(hi))
    } else {
        let alpha = (1.0 - confidence).clamp(1e-9, 1.0);
        let lo_rank = ((alpha / 2.0 * b as f64).ceil() as usize).clamp(1, b);
        let hi_rank = (b + 1 - lo_rank).clamp(1, b);
        (lo_rank.min(hi_rank) - 1, lo_rank.max(hi_rank) - 1)
    };
    Some((rs[lo], rs[hi]))
}

/// One pass ≡ the two legacy loops, bit for bit, on this scratch.
fn assert_one_pass_matches_legacy(
    x: &[f64],
    y: &[f64],
    cfg: &BootstrapConfig,
    confidence: f64,
    scratch: &mut BootstrapScratch,
) -> Result<(), TestCaseError> {
    let legacy =
        legacy_pm1_estimate(x, y, cfg).zip(legacy_pm1_interval(x, y, 599, confidence, cfg.seed));
    let new = pm1_with_ci(x, y, cfg, confidence, scratch).ok();
    let bits = |(est, ci): ((f64, usize), (f64, f64))| {
        (est.0.to_bits(), est.1, ci.0.to_bits(), ci.1.to_bits())
    };
    prop_assert_eq!(
        new.map(|(est, ci)| bits(((est.estimate, est.resamples), (ci.low, ci.high)))),
        legacy.map(bits)
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Contract 1: five-sum gather kernel, bitwise, over everything —
    /// including the shared finisher.
    #[test]
    fn gather_sums_bit_identical_to_scalar_reference((x, y, idx) in wild_columns()) {
        let a = gather_sums(&x, &y, &idx);
        let b = gather_sums_scalar(&x, &y, &idx);
        prop_assert!(bits_eq(a.sx, b.sx), "sx {:?} vs {:?}", a.sx, b.sx);
        prop_assert!(bits_eq(a.sy, b.sy), "sy {:?} vs {:?}", a.sy, b.sy);
        prop_assert!(bits_eq(a.sxx, b.sxx), "sxx {:?} vs {:?}", a.sxx, b.sxx);
        prop_assert!(bits_eq(a.syy, b.syy), "syy {:?} vs {:?}", a.syy, b.syy);
        prop_assert!(bits_eq(a.sxy, b.sxy), "sxy {:?} vs {:?}", a.sxy, b.sxy);
        // The finisher maps every NaN sum to `None`, so its output is
        // payload-free and must match exactly.
        let ra = pearson_from_gather(idx.len(), &a).map(f64::to_bits);
        let rb = pearson_from_gather(idx.len(), &b).map(f64::to_bits);
        prop_assert_eq!(ra, rb);
    }

    /// Contract 1 for the direct-pass kernels (`pearson`'s two passes).
    #[test]
    fn centered_and_lane_sums_bit_identical_to_scalar((x, y, _) in wild_columns()) {
        prop_assert!(bits_eq(lane_sum(&x), lane_sum_scalar(&x)));
        let (mx, my) = column_means(&x, &y);
        let a = centered_sums(&x, &y, mx, my);
        let b = centered_sums_scalar(&x, &y, mx, my);
        prop_assert!(bits_eq(a.sxx, b.sxx), "sxx {:?} vs {:?}", a.sxx, b.sxx);
        prop_assert!(bits_eq(a.syy, b.syy), "syy {:?} vs {:?}", a.syy, b.syy);
        prop_assert!(bits_eq(a.sxy, b.sxy), "sxy {:?} vs {:?}", a.sxy, b.sxy);
    }

    /// A resample of an integer-valued constant column cancels exactly
    /// in the corrected sums and must classify degenerate — never a
    /// fabricated correlation.
    #[test]
    fn integer_constant_columns_classify_degenerate(
        n in 2usize..100,
        c in -1000i32..1000,
        m in 2usize..200,
    ) {
        let x = vec![f64::from(c); n];
        let y: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let idx: Vec<u32> = (0..m).map(|i| (i % n) as u32).collect();
        let (mx, my) = column_means(&x, &y);
        let cx: Vec<f64> = x.iter().map(|v| v - mx).collect();
        let cy: Vec<f64> = y.iter().map(|v| v - my).collect();
        prop_assert_eq!(pearson_from_gather(m, &gather_sums(&cx, &cy, &idx)), None);
    }

    /// Contract 2, per resample: fused corrected-sums vs the literal
    /// old gather-then-two-pass path, on full-mean-centered columns,
    /// within 1e-9 wherever the resample keeps ≥1e-6 of its raw second
    /// moment. (Both paths see the *same* resample by construction.)
    #[test]
    fn fused_resample_within_1e9_of_twopass_when_conditioned(
        (x, y) in conditioned_columns(4..120),
        draws in vec(any::<u32>(), 2..240),
    ) {
        let n = x.len();
        let idx: Vec<u32> = draws.into_iter().map(|d| d % n as u32).collect();
        let (mx, my) = column_means(&x, &y);
        let cx: Vec<f64> = x.iter().map(|v| v - mx).collect();
        let cy: Vec<f64> = y.iter().map(|v| v - my).collect();
        let sums = gather_sums(&cx, &cy, &idx);
        let m = idx.len() as f64;
        let sxx_c = sums.sxx - sums.sx * sums.sx / m;
        let syy_c = sums.syy - sums.sy * sums.sy / m;
        prop_assume!(sxx_c > 1e-6 * sums.sxx && syy_c > 1e-6 * sums.syy);

        let fused = pearson_from_gather(idx.len(), &sums);
        let (mut bx, mut by) = (vec![0.0; idx.len()], vec![0.0; idx.len()]);
        let twopass = resample_pearson_twopass(&x, &y, &idx, &mut bx, &mut by);
        match (fused, twopass) {
            (Some(a), Some(b)) => {
                prop_assert!((a - b).abs() < 1e-9, "fused={a} twopass={b}");
            }
            (a, b) => prop_assert!(false, "classification split: {a:?} vs {b:?}"),
        }
    }

    /// Contract 2, interval endpoints: the fused `pm1_ci` vs the legacy
    /// sort-and-index implementation over the same RNG stream, within
    /// 1e-9 per endpoint on well-conditioned data.
    #[test]
    fn pm1_ci_endpoints_within_1e9_of_legacy(
        (x, y) in conditioned_columns(10..60),
        seed in any::<u64>(),
    ) {
        let new = pm1_ci(&x, &y, seed).unwrap();
        let mut rs = legacy_replicates(&x, &y, 599, seed);
        prop_assume!(rs.len() == 599); // knife-edge resamples excluded
        rs.sort_by(f64::total_cmp);
        let (a, c) = pm1_indices(x.len());
        prop_assert!((new.low - rs[a - 1]).abs() < 1e-9, "{} vs {}", new.low, rs[a - 1]);
        prop_assert!((new.high - rs[c - 1]).abs() < 1e-9, "{} vs {}", new.high, rs[c - 1]);
    }

    /// Contract 2, point estimate on a *fixed* replicate budget (the
    /// adaptive stopping rule disabled by `min == max`): the mean of 200
    /// replicates each within 1e-9 stays within 1e-9.
    #[test]
    fn pm1_fixed_budget_estimate_within_1e9_of_legacy(
        (x, y) in conditioned_columns(10..60),
        seed in any::<u64>(),
    ) {
        let cfg = BootstrapConfig {
            min_resamples: 200,
            max_resamples: 200,
            seed,
            ..BootstrapConfig::default()
        };
        let new = pm1_bootstrap(&x, &y, &cfg).unwrap();
        let rs = legacy_replicates(&x, &y, 200, seed);
        prop_assume!(rs.len() == 200);
        let legacy_mean = (rs.iter().sum::<f64>() / 200.0).clamp(-1.0, 1.0);
        prop_assert_eq!(new.resamples, 200);
        prop_assert!(
            (new.estimate - legacy_mean).abs() < 1e-9,
            "new={} legacy={legacy_mean}",
            new.estimate
        );
    }

    /// Satellite regression: the generic (robust-estimator) percentile
    /// CI kept its replicate values — only the quantile step moved to
    /// `select_nth_unstable` — so its endpoints must be *bit-identical*
    /// to the old sort-then-rank implementation.
    #[test]
    fn generic_percentile_ci_bit_identical_to_sorting(
        (x, y) in conditioned_columns(8..50),
        seed in any::<u64>(),
        confidence in 0.5f64..0.99,
    ) {
        let ci = percentile_bootstrap_ci(
            &|a, b| spearman(a, b),
            &x,
            &y,
            99,
            confidence,
            seed,
            &mut BootstrapScratch::new(),
        )
        .unwrap();
        // Legacy path: same draws evaluated through the same statistic,
        // then a full sort and the rank formula.
        let n = x.len();
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut bx, mut by) = (vec![0.0; n], vec![0.0; n]);
        let mut rs = Vec::new();
        let mut attempts = 0usize;
        while rs.len() < 99 && attempts < 99 * 4 {
            attempts += 1;
            for i in 0..n {
                let j = rng.random_range(0..n);
                bx[i] = x[j];
                by[i] = y[j];
            }
            if let Ok(r) = spearman(&bx, &by) {
                rs.push(r);
            }
        }
        rs.sort_by(f64::total_cmp);
        let alpha = (1.0 - confidence).clamp(1e-9, 1.0);
        let b = rs.len();
        let lo_rank = ((alpha / 2.0 * b as f64).ceil() as usize).clamp(1, b);
        let hi_rank = (b + 1 - lo_rank).clamp(1, b);
        prop_assert_eq!(ci.low.to_bits(), rs[lo_rank - 1].to_bits());
        prop_assert_eq!(ci.high.to_bits(), rs[hi_rank - 1].to_bits());
    }

    /// Contract 3, the remainder: `IndexDraw` ≡ `%` at the words where a
    /// reciprocal estimate can go wrong — 0, the top of the range, and
    /// both sides of every multiple of the modulus.
    #[test]
    fn exact_remainder_equals_modulo(
        n in moduli(),
        ks in vec(any::<u64>(), 1..8),
        words in vec(any::<u64>(), 1..32),
    ) {
        let draw = IndexDraw::new(n);
        let m = n as u64;
        let mut probes = vec![0, 1, u64::MAX, u64::MAX - 1, m - 1, m, m.wrapping_add(1)];
        for k in ks {
            // The multiple of n nearest below k, and the largest one.
            for multiple in [k - k % m, u64::MAX - u64::MAX % m] {
                probes.extend([multiple.wrapping_sub(1), multiple, multiple.wrapping_add(1)]);
            }
        }
        probes.extend(words);
        for w in probes {
            prop_assert_eq!(draw.index(w) as u64, w % m, "n={} w={}", n, w);
        }
    }

    /// Contract 3, the draw: reducing the raw words of a seed equals
    /// `random_range(0..n)` on a generator seeded alike, element for
    /// element.
    #[test]
    fn index_draw_equals_random_range(n in moduli(), seed in any::<u64>()) {
        let draw = IndexDraw::new(n);
        let mut words = StdRng::seed_from_u64(seed);
        let mut ranged = StdRng::seed_from_u64(seed);
        for i in 0..512 {
            let word: u64 = words.random();
            prop_assert_eq!(draw.index(word), ranged.random_range(0..n), "draw {}", i);
        }
    }

    /// Contract 3, the pass: estimate and interval out of one replicate
    /// pass ≡ the two legacy loops, over well-conditioned columns of
    /// every small and mid size, every stopping rule, both interval
    /// kinds — on a scratch that has served another seed, a longer and
    /// a shorter sample before.
    #[test]
    fn one_pass_pm1_bit_identical_to_legacy_loops(
        (x, y) in conditioned_columns(3..90),
        (dx, dy) in conditioned_columns(3..200),
        cfg in configs(),
        seed in any::<u64>(),
        other_seed in any::<u64>(),
        confidence in prop_oneof![Just(0.95f64), 0.5f64..0.999],
    ) {
        let cfg = BootstrapConfig { seed, ..cfg };
        assert_one_pass_matches_legacy(&x, &y, &cfg, confidence, &mut BootstrapScratch::new())?;

        let mut dirty = BootstrapScratch::new();
        let other = BootstrapConfig { seed: other_seed, ..BootstrapConfig::default() };
        let _ = pm1_with_ci(&dx, &dy, &other, 0.9, &mut dirty);
        let _ = pm1_with_ci(&dx, &dy, &cfg, 0.95, &mut dirty);
        let _ = sketch_stats::pm1_ci_with_scratch(&x[..3], &y[..3], seed, &mut dirty);
        let _ = pearson_percentile_ci(&x[..3], &y[..3], 50, 0.8, seed, &mut dirty);
        assert_one_pass_matches_legacy(&x, &y, &cfg, confidence, &mut dirty)?;
    }

    /// Contract 3 where the estimate's attempt budget binds: tie-heavy
    /// columns of 3 to 8 rows lose about half their resamples as
    /// degenerate, so under a small `max_resamples` the estimate stops
    /// on `2·max_resamples` attempts — exactly where its legacy loop
    /// did — while the interval draws on.
    #[test]
    fn one_pass_pm1_keeps_the_estimate_attempt_budget(
        (x, y) in tied_columns(3..9),
        cfg in configs(),
        seed in any::<u64>(),
        confidence in prop_oneof![Just(0.95f64), 0.5f64..0.999],
    ) {
        let cfg = BootstrapConfig { seed, ..cfg };
        assert_one_pass_matches_legacy(&x, &y, &cfg, confidence, &mut BootstrapScratch::new())?;
    }

    /// The scored pipeline's PM1 arm is that pass under the default
    /// rule, and the standalone estimators are projections of it.
    #[test]
    fn scored_pm1_and_projections_bit_identical_to_legacy(
        (x, y) in conditioned_columns(3..70),
        seed in any::<u64>(),
        confidence in prop_oneof![Just(0.95f64), 0.5f64..0.999],
        replicates in 1usize..300,
    ) {
        let cfg = BootstrapConfig { seed, ..BootstrapConfig::default() };
        let mut scratch = BootstrapScratch::new();
        let est = CorrelationEstimator::Pm1Bootstrap { seed };
        let scored = scored_estimate(est, &x, &y, confidence, &mut scratch).unwrap();
        let (mean, _) = legacy_pm1_estimate(&x, &y, &cfg).unwrap();
        let (lo, hi) = legacy_pm1_interval(&x, &y, 599, confidence, seed).unwrap();
        prop_assert_eq!(scored.estimate.to_bits(), mean.to_bits());
        prop_assert_eq!((scored.ci_lo.to_bits(), scored.ci_hi.to_bits()), (lo.to_bits(), hi.to_bits()));

        prop_assert_eq!(pm1_bootstrap(&x, &y, &cfg).unwrap().estimate.to_bits(), mean.to_bits());
        let ci = pearson_percentile_ci(&x, &y, replicates, 0.9, seed, &mut scratch).unwrap();
        let (lo, hi) = legacy_pm1_interval(&x, &y, replicates, 0.9, seed).unwrap();
        prop_assert_eq!((ci.low.to_bits(), ci.high.to_bits()), (lo.to_bits(), hi.to_bits()));
    }
}

/// Contract 2 under the *adaptive* stopping rule, as a deterministic
/// fixture: the stopping iteration may flip on an ε replicate change, so
/// the documented old-vs-new bound for the default config is loose
/// (0.02 — the same scale as the rule's own mean-change threshold).
#[test]
fn adaptive_pm1_documented_divergence_bound() {
    for n in [20usize, 50, 137, 400] {
        let x: Vec<f64> = (0..n)
            .map(|i| i as f64 + ((i * 7 % 13) as f64) * 0.1)
            .collect();
        let y: Vec<f64> = x
            .iter()
            .enumerate()
            .map(|(i, v)| 0.7 * v + 10.0 * ((i as f64) * 0.9).sin())
            .collect();
        let cfg = BootstrapConfig::default();
        let new = pm1_bootstrap(&x, &y, &cfg).unwrap();

        // Legacy adaptive loop, literally (two-pass pearson resamples).
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let (mut bx, mut by) = (vec![0.0; n], vec![0.0; n]);
        let (mut sum, mut sum_sq, mut count, mut attempts) = (0.0f64, 0.0f64, 0usize, 0usize);
        while count < cfg.max_resamples && attempts < cfg.max_resamples * 2 {
            attempts += 1;
            for i in 0..n {
                let j = rng.random_range(0..n);
                bx[i] = x[j];
                by[i] = y[j];
            }
            let Ok(r) = pearson(&bx, &by) else { continue };
            count += 1;
            sum += r;
            sum_sq += r * r;
            if count >= cfg.min_resamples {
                let mean = sum / count as f64;
                let sd = (sum_sq / count as f64 - mean * mean).max(0.0).sqrt();
                if sd == 0.0 {
                    break;
                }
                let z = cfg.mean_change_threshold * (count as f64 + 1.0) / sd;
                let p = 2.0 * (1.0 - sketch_stats::normal_cdf(z));
                if p < cfg.stop_probability {
                    break;
                }
            }
        }
        let legacy = (sum / count as f64).clamp(-1.0, 1.0);
        assert!(
            (new.estimate - legacy).abs() < 0.02,
            "n={n}: new={} legacy={legacy} (counts {} vs {count})",
            new.estimate,
            new.resamples
        );
    }
}

/// Contract 3 past the kept stream's cap: 599 resamples of 1400 rows
/// need more words than a scratch keeps, so the last resamples come from
/// the generator state — on a fresh scratch, and on one whose kept
/// prefix (left by a 1312-row call) ends inside the resample that
/// crosses the cap.
#[test]
fn one_pass_pm1_crosses_the_kept_stream_cap_unchanged() {
    let columns = |n: usize| -> (Vec<f64>, Vec<f64>) {
        let x: Vec<f64> = (0..n)
            .map(|i| i as f64 + ((i * 7 % 13) as f64) * 0.1)
            .collect();
        let y = x
            .iter()
            .enumerate()
            .map(|(i, v)| 0.7 * v + 40.0 * ((i as f64) * 0.9).sin())
            .collect();
        (x, y)
    };
    let cfg = BootstrapConfig::default();
    let (x, y) = columns(1400);
    let fresh = &mut BootstrapScratch::new();
    assert_one_pass_matches_legacy(&x, &y, &cfg, 0.95, fresh).unwrap();
    let dirty = &mut BootstrapScratch::new();
    let (dx, dy) = columns(1312);
    assert_one_pass_matches_legacy(&dx, &dy, &cfg, 0.95, dirty).unwrap();
    assert_one_pass_matches_legacy(&x, &y, &cfg, 0.9, dirty).unwrap();
    assert_one_pass_matches_legacy(&dx[..40], &dy[..40], &cfg, 0.95, dirty).unwrap();
}

/// Contract 3 where the *interval's* attempt budget binds. Rows near
/// `√f64::MAX` overflow the kernel's sums whenever a resample draws two
/// of them, so of the resamples of `[a, −a, 0]` only those with exactly
/// one large row survive: 2/9 of the attempts — the collector runs out
/// of its `4·599` attempts with more than half but fewer than 599
/// replicates, and the interval is read at scaled indices. With two
/// more large rows fewer than 1% survive and the interval is an error,
/// while the estimate's own loop would have carried on.
#[test]
fn one_pass_pm1_keeps_the_interval_attempt_budget() {
    let a = 1.2e154;
    let (x, y) = ([a, -a, 0.0], [a, -a, 1.0]);
    for seed in 0..8 {
        let cfg = BootstrapConfig {
            seed,
            ..BootstrapConfig::default()
        };
        let kept = legacy_fused_replicates(&x, &y, 599, seed).unwrap().len();
        assert!((299..599).contains(&kept), "seed {seed}: {kept} replicates");
        for confidence in [0.95, 0.8] {
            let scratch = &mut BootstrapScratch::new();
            assert_one_pass_matches_legacy(&x, &y, &cfg, confidence, scratch).unwrap();
        }

        let b = 1.0e154;
        let (x, y) = ([a, -a, b, -b, 0.0], [a, -a, b, -b, 1.0]);
        assert!(legacy_pm1_estimate(&x, &y, &cfg).is_some());
        assert_eq!(legacy_fused_replicates(&x, &y, 599, seed), None);
        assert!(pm1_with_ci(&x, &y, &cfg, 0.95, &mut BootstrapScratch::new()).is_err());
    }
}
