//! `PM1` bootstrap correlation estimator and the modified percentile
//! bootstrap confidence interval (paper Section 5.3, estimator 5, and the
//! `ci_b` risk factor of Section 4.4; Wilcox 1996).
//!
//! # One replicate pass over one word stream
//!
//! Every estimator and interval here is a projection of one loop,
//! `replicate_pass`: draw a resample, evaluate the statistic, hand the
//! value to whoever still wants it — the adaptive running mean (the PM1
//! estimate) and the replicate buffer the quantile steps select from.
//! A scored PM1 call needs both, seeded alike, so [`pm1_with_ci`] feeds
//! both from the same draws, each under the stopping rule and attempt
//! budget it has standalone: the estimate is the adaptive-rule prefix
//! mean of the interval's replicates, summed in draw order. Replicates
//! of `r` have `sd ≤ 1`, so the paper's rule
//! (`2(1 − Φ(0.01·(count + 1)/sd)) < 5e-4`) closes the mean by replicate
//! 348 < 599 and the estimate costs no resample of its own.
//!
//! A resample is `n` indices `word % n` over the raw words of
//! `StdRng::seed_from_u64(seed)` — a stream that depends on the seed
//! alone, so [`BootstrapScratch`] keeps a bounded prefix of it
//! (`WordStream`) for every later call under that seed: each
//! candidate of a query, each query under one estimator. A kept word is
//! the word the generator yields at that position, so reuse cannot
//! change a bit; [`IndexDraw`] takes the remainder exactly, without a
//! division.
//!
//! # Kernel layout
//!
//! The Pearson passes run on the fused SoA kernel of [`crate::kernel`]:
//! the columns are centered once at their full-sample means and
//! `kernel::gather_sums_by` reduces each word to its index and
//! accumulates the five Pearson sums in one chunked pass — no index
//! block, no `bx`/`by` materialization, no per-resample validation (the
//! full columns are validated once; every resample is a multiset of
//! validated rows). Replicates differ from a two-pass `pearson` over
//! materialized resamples only by float reassociation (property-tested
//! tolerance in `tests/prop_kernel.rs`). The generic robust-estimator
//! path (Spearman, Qn, …) materializes resamples — those statistics
//! need the values — from the same words through the same draw.

use crate::ci::ConfidenceInterval;
use crate::error::{validate_pairs, StatsError};
use crate::kernel::{self, IndexDraw, WordStream};
use crate::normal::normal_cdf;
use crate::pearson::pearson;

/// The paper's adaptive stopping rule (Section 5.3): draw at least
/// `MIN_RESAMPLES` replicates, then stop once the probability that the
/// next one moves the running mean by more than `MEAN_CHANGE_THRESHOLD`
/// falls below `STOP_PROBABILITY` (0.05%); never more than
/// `MAX_RESAMPLES` replicates or twice as many attempts.
const MIN_RESAMPLES: usize = 100;
const MAX_RESAMPLES: usize = 10_000;
const MEAN_CHANGE_THRESHOLD: f64 = 0.01;
const STOP_PROBABILITY: f64 = 5e-4;

/// Reusable buffers for the bootstrap estimators and intervals. One
/// scratch per worker amortizes the per-candidate allocations away on
/// the query hot path; results are identical to the allocating variants
/// (the buffers are resized and overwritten before every use, and kept
/// words are the generator's own), so scratch reuse never affects
/// determinism.
///
/// `cx`/`cy` serve the fused Pearson kernel (mean-centered columns);
/// `bx`/`by` the generic robust-estimator path, which must materialize
/// each resample; `stream` holds the last seed's words — 8 bytes per
/// index the longest call under it drew, at most
/// `kernel::KEPT_WORDS` of them (6 MiB).
#[derive(Debug, Default, Clone)]
pub struct BootstrapScratch {
    bx: Vec<f64>,
    by: Vec<f64>,
    rs: Vec<f64>,
    cx: Vec<f64>,
    cy: Vec<f64>,
    stream: WordStream,
}

impl BootstrapScratch {
    /// Fresh, empty scratch (buffers grow on first use).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// Center both columns at their full-sample means into `cx`/`cy`. The
/// corrected-sums finisher ([`kernel::pearson_from_gather`]) removes the
/// per-resample mean exactly, so centering here is purely for numerical
/// conditioning — it keeps the `Σx²`-style raw sums small relative to
/// the centered spread (the same reason `pearson` is two-pass).
fn center_columns(x: &[f64], y: &[f64], cx: &mut Vec<f64>, cy: &mut Vec<f64>) {
    let (mx, my) = kernel::column_means(x, y);
    cx.clear();
    cx.extend(x.iter().map(|v| v - mx));
    cy.clear();
    cy.extend(y.iter().map(|v| v - my));
}

/// The PM1 estimate as a consumer of a replicate pass: the running mean
/// of the replicates it is handed, closed by the paper's adaptive rule.
#[derive(Default)]
struct AdaptiveMean {
    sum: f64,
    sum_sq: f64,
    count: usize,
    stopped: bool,
}

impl AdaptiveMean {
    /// Whether the mean takes the next attempt's replicate: not stopped,
    /// under its resample cap, within its attempt budget (twice the cap).
    fn open(&self, attempts: usize) -> bool {
        !self.stopped && self.count < MAX_RESAMPLES && attempts < MAX_RESAMPLES * 2
    }

    fn push(&mut self, r: f64) {
        self.count += 1;
        self.sum += r;
        self.sum_sq += r * r;
        if self.count >= MIN_RESAMPLES {
            let mean = self.sum / self.count as f64;
            let sd = (self.sum_sq / self.count as f64 - mean * mean)
                .max(0.0)
                .sqrt();
            // The next resample r* changes the mean by (r* − mean)/(count+1).
            // P(|change| > θ) = P(|r* − mean| > θ(count+1))
            //                 ≈ 2(1 − Φ(θ(count+1)/sd)).
            let z = MEAN_CHANGE_THRESHOLD * (self.count as f64 + 1.0) / sd;
            let p_change = 2.0 * (1.0 - normal_cdf(z));
            self.stopped = sd == 0.0 || p_change < STOP_PROBABILITY;
        }
    }

    /// The PM1 estimate: the mean of the replicates taken, clamped to
    /// `[−1, 1]`.
    fn finish(&self) -> Result<f64, StatsError> {
        if self.count == 0 {
            return Err(StatsError::ZeroVariance);
        }
        Ok((self.sum / self.count as f64).clamp(-1.0, 1.0))
    }
}

/// The one replicate loop. Each attempt draws one resample's statistic
/// (`None` for a degenerate resample) and hands it to the consumers still
/// open: the adaptive `mean`, and the buffer `rs` (left unsorted) until
/// it holds `replicates` values or its attempt budget (4× the target)
/// runs out. Deterministic for a given draw closure — per-candidate
/// seeding, never thread or iteration state, is what keeps scored
/// queries bit-identical across thread counts.
fn replicate_pass(
    mut mean: Option<&mut AdaptiveMean>,
    replicates: usize,
    rs: &mut Vec<f64>,
    mut draw: impl FnMut() -> Option<f64>,
) -> Result<(), StatsError> {
    rs.clear();
    let mut attempts = 0usize;
    loop {
        let mean = mean.as_deref_mut().filter(|m| m.open(attempts));
        let rs_open = rs.len() < replicates && attempts < replicates * 4;
        if mean.is_none() && !rs_open {
            break;
        }
        attempts += 1;
        let Some(r) = draw() else {
            continue;
        };
        if let Some(mean) = mean {
            mean.push(r);
        }
        if rs_open {
            rs.push(r);
        }
    }
    if rs.len() < replicates / 2 {
        return Err(StatsError::ZeroVariance);
    }
    Ok(())
}

/// [`replicate_pass`] of Pearson's `r` on the fused kernel path over the
/// resamples of `seed`, replicates left in `scratch.rs`.
fn pearson_pass(
    x: &[f64],
    y: &[f64],
    seed: u64,
    mean: &mut AdaptiveMean,
    replicates: usize,
    scratch: &mut BootstrapScratch,
) -> Result<(), StatsError> {
    validate_pairs(x, y, 2)?;
    // Fail fast if the full sample is degenerate.
    pearson(x, y)?;

    let n = x.len();
    let BootstrapScratch {
        rs, cx, cy, stream, ..
    } = scratch;
    center_columns(x, y, cx, cy);
    let words = stream.rewind(seed);
    let draw = IndexDraw::new(n);
    replicate_pass(Some(mean), replicates, rs, || {
        let sums = kernel::gather_sums_by(cx, cy, words.next(n), |w| draw.index(w));
        kernel::pearson_from_gather(n, &sums)
    })
}

/// PM1 bootstrap estimate of Pearson's correlation — what
/// [`crate::CorrelationEstimator::Pm1Bootstrap`] serves.
///
/// Repeatedly resamples the paired data with replacement, recomputes the
/// Pearson sample correlation, and returns the running mean, closed by
/// the paper's adaptive rule (module constants) instead of a fixed
/// resample budget.
///
/// # Errors
///
/// Propagates the validation errors of [`pearson`]; additionally returns
/// [`StatsError::ZeroVariance`] if every resample is degenerate.
pub(crate) fn pm1_estimate(
    x: &[f64],
    y: &[f64],
    seed: u64,
    scratch: &mut BootstrapScratch,
) -> Result<f64, StatsError> {
    let mut mean = AdaptiveMean::default();
    pearson_pass(x, y, seed, &mut mean, 0, scratch)?;
    mean.finish()
}

/// Number of bootstrap replicates used by the modified percentile interval.
const PM1_CI_REPLICATES: usize = 599;

/// Wilcox's sample-size-dependent order-statistic indices (1-based) for the
/// 95% modified percentile bootstrap interval over 599 replicates.
fn pm1_ci_indices(n: usize) -> (usize, usize) {
    match n {
        0..=39 => (7, 593),
        40..=79 => (8, 592),
        80..=179 => (11, 589),
        180..=249 => (14, 586),
        _ => (16, 584),
    }
}

/// Wilcox's modified percentile interval of the replicates in `rs`, for
/// a sample of `n` rows.
fn modified_interval(rs: &mut [f64], n: usize) -> ConfidenceInterval {
    let (a, c) = pm1_ci_indices(n);
    let b = rs.len();
    // Scale indices if we collected fewer than the nominal replicate count.
    let scale = b as f64 / PM1_CI_REPLICATES as f64;
    let lo_idx = (((a as f64) * scale).round() as usize).clamp(1, b) - 1;
    let hi_idx = (((c as f64) * scale).round() as usize).clamp(1, b) - 1;
    let (lo, hi) = order_stat_pair(rs, lo_idx.min(hi_idx), lo_idx.max(hi_idx));
    ConfidenceInterval::new(lo, hi)
}

/// The PM1 estimate of the resamples of `seed` and its interval at level
/// `confidence`, from one replicate pass.
///
/// At 95% the interval is Wilcox's (1996) modified percentile bootstrap
/// interval for Pearson's correlation — the basis of the paper's `ci_b`
/// risk-penalization factor: 599 replicates, read at sample-size-adjusted
/// order statistics that correct the percentile method's poor
/// small-sample coverage for `r`. At any other level (the adjustment is
/// tabulated for 95% only) it is the plain percentile interval of the
/// same replicates.
///
/// The estimate equals [`crate::CorrelationEstimator::estimate`]'s bit
/// for bit, and the interval is the one a pass that drew for the
/// interval alone would give: both take the first successful replicates
/// of the same draws, each under its own stopping rule and attempt
/// budget.
///
/// # Errors
///
/// Propagates the validation errors of [`pearson`], and returns
/// [`StatsError::ZeroVariance`] when more than half of the interval's
/// resamples are degenerate.
pub fn pm1_with_ci(
    x: &[f64],
    y: &[f64],
    seed: u64,
    confidence: f64,
    scratch: &mut BootstrapScratch,
) -> Result<(f64, ConfidenceInterval), StatsError> {
    let mut mean = AdaptiveMean::default();
    pearson_pass(x, y, seed, &mut mean, PM1_CI_REPLICATES, scratch)?;
    let ci = if (confidence - 0.95).abs() < 1e-12 {
        modified_interval(&mut scratch.rs, x.len())
    } else {
        percentile_interval(&mut scratch.rs, confidence)
    };
    Ok((mean.finish()?, ci))
}

/// Select the `(lo, hi)` order statistics (0-based, `lo <= hi`) of `rs`
/// under the `total_cmp` total order without sorting the whole buffer:
/// one `select_nth_unstable` for `lo`, a second over the right partition
/// for `hi`. The k-th element of a multiset under a total order is
/// unique, so the endpoints are bit-identical to
/// `sort_by(total_cmp)` + indexing (regression-tested below).
fn order_stat_pair(rs: &mut [f64], lo: usize, hi: usize) -> (f64, f64) {
    debug_assert!(lo <= hi && hi < rs.len());
    let (_, lo_v, rest) = rs.select_nth_unstable_by(lo, f64::total_cmp);
    let lo_v = *lo_v;
    let hi_v = if hi == lo {
        lo_v
    } else {
        *rest.select_nth_unstable_by(hi - lo - 1, f64::total_cmp).1
    };
    (lo_v, hi_v)
}

/// The empirical `(α/2, 1 − α/2)` interval of the replicate values in
/// `rs` at level `confidence`.
fn percentile_interval(rs: &mut [f64], confidence: f64) -> ConfidenceInterval {
    let alpha = (1.0 - confidence).clamp(1e-9, 1.0);
    let b = rs.len();
    let lo_rank = ((alpha / 2.0 * b as f64).ceil() as usize).clamp(1, b);
    let hi_rank = (b + 1 - lo_rank).clamp(1, b);
    let (lo, hi) = order_stat_pair(rs, lo_rank.min(hi_rank) - 1, lo_rank.max(hi_rank) - 1);
    ConfidenceInterval::new(lo, hi)
}

/// A paired-sample statistic as the generic bootstrap consumes it.
pub type PairedStat<'a> = dyn Fn(&[f64], &[f64]) -> Result<f64, StatsError> + 'a;

/// Plain percentile bootstrap confidence interval of an arbitrary paired
/// statistic at level `confidence` — the CI source for the robust
/// estimators (Spearman, RIN, Qn, Kendall, …) on the scored query path,
/// where no closed-form interval exists.
///
/// Draws `replicates` resamples with a fixed `seed` (fully deterministic)
/// and returns the empirical `(α/2, 1 − α/2)` order statistics of the
/// successful replicate values — over materialized resamples (the
/// statistic needs the values) of the fused path's index stream.
///
/// # Errors
///
/// Validation errors, the statistic's own error on the full sample, or
/// [`StatsError::ZeroVariance`] when more than half the resamples are
/// degenerate.
pub fn percentile_bootstrap_ci(
    stat: &PairedStat<'_>,
    x: &[f64],
    y: &[f64],
    replicates: usize,
    confidence: f64,
    seed: u64,
    scratch: &mut BootstrapScratch,
) -> Result<ConfidenceInterval, StatsError> {
    // The statistic is arbitrary: it may accept a sample the resampler
    // cannot draw from (NaN, ±∞, unequal lengths, fewer than two rows).
    validate_pairs(x, y, 2)?;
    estimate_with_percentile_ci(stat, x, y, replicates, confidence, seed, scratch).map(|(_, ci)| ci)
}

/// [`percentile_bootstrap_ci`] together with the statistic on the full
/// sample, which it evaluates once: first, so a degenerate sample fails
/// with the statistic's own error before any resampling. `stat` must
/// refuse what [`validate_pairs`] refuses at a minimum of two rows, as
/// every robust [`crate::CorrelationEstimator::estimate`] does, so the
/// sample is not scanned a second time.
pub(crate) fn estimate_with_percentile_ci(
    stat: &PairedStat<'_>,
    x: &[f64],
    y: &[f64],
    replicates: usize,
    confidence: f64,
    seed: u64,
    scratch: &mut BootstrapScratch,
) -> Result<(f64, ConfidenceInterval), StatsError> {
    let estimate = stat(x, y)?;

    let n = x.len();
    let BootstrapScratch {
        bx, by, rs, stream, ..
    } = scratch;
    // Every resample overwrites all `n` rows.
    bx.resize(n, 0.0);
    by.resize(n, 0.0);
    let words = stream.rewind(seed);
    let draw = IndexDraw::new(n);
    replicate_pass(None, replicates, rs, || {
        for ((bx, by), &word) in bx.iter_mut().zip(by.iter_mut()).zip(words.next(n)) {
            let j = draw.index(word);
            (*bx, *by) = (x[j], y[j]);
        }
        stat(bx, by).ok()
    })?;
    Ok((estimate, percentile_interval(rs, confidence)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear_data(n: usize) -> (Vec<f64>, Vec<f64>) {
        let x: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let y: Vec<f64> = x
            .iter()
            .map(|v| 2.0 * v + 10.0 * ((v * 0.7).sin()))
            .collect();
        (x, y)
    }

    fn estimate(x: &[f64], y: &[f64], seed: u64) -> Result<f64, StatsError> {
        pm1_estimate(x, y, seed, &mut BootstrapScratch::new())
    }

    fn interval(x: &[f64], y: &[f64], seed: u64) -> ConfidenceInterval {
        pm1_with_ci(x, y, seed, 0.95, &mut BootstrapScratch::new())
            .unwrap()
            .1
    }

    #[test]
    fn pm1_estimate_close_to_pearson_on_clean_data() {
        let (x, y) = linear_data(200);
        let r = pearson(&x, &y).unwrap();
        let b = estimate(&x, &y, 0x5eed).unwrap();
        assert!((b - r).abs() < 0.02, "r={r} pm1={b}");
    }

    #[test]
    fn pm1_is_deterministic_given_seed() {
        let (x, y) = linear_data(50);
        let a = estimate(&x, &y, 0x5eed).unwrap();
        let b = estimate(&x, &y, 0x5eed).unwrap();
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn different_seeds_give_slightly_different_estimates() {
        let (x, y) = linear_data(30);
        let a = estimate(&x, &y, 1).unwrap();
        let b = estimate(&x, &y, 2).unwrap();
        assert_ne!(a, b);
        assert!((a - b).abs() < 0.1);
    }

    #[test]
    fn adaptive_stopping_uses_fewer_resamples_for_stable_data() {
        // Near-perfect correlation → tiny resample variance → early stop,
        // but never before the rule's minimum.
        let x: Vec<f64> = (0..500).map(f64::from).collect();
        let y: Vec<f64> = x.iter().map(|v| v * 3.0).collect();
        let mut mean = AdaptiveMean::default();
        pearson_pass(&x, &y, 0x5eed, &mut mean, 0, &mut BootstrapScratch::new()).unwrap();
        assert!(mean.stopped);
        assert!(
            (MIN_RESAMPLES..1_000).contains(&mean.count),
            "expected early stop, used {}",
            mean.count
        );
    }

    #[test]
    fn estimate_is_clamped() {
        let x = [1.0, 2.0, 3.0];
        let y = [2.0, 4.0, 6.0];
        let b = estimate(&x, &y, 0x5eed).unwrap();
        assert!((-1.0..=1.0).contains(&b));
    }

    #[test]
    fn degenerate_input_is_an_error() {
        assert!(matches!(
            estimate(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0], 0x5eed),
            Err(StatsError::ZeroVariance)
        ));
    }

    #[test]
    fn pm1_ci_contains_point_estimate_on_clean_data() {
        let (x, y) = linear_data(100);
        let r = pearson(&x, &y).unwrap();
        let ci = interval(&x, &y, 42);
        assert!(ci.low <= r && r <= ci.high, "r={r} ci={ci:?}");
        assert!(ci.length() < 0.3);
    }

    #[test]
    fn pm1_ci_wider_for_smaller_samples() {
        let (x_big, y_big) = linear_data(400);
        let ci_big = interval(&x_big, &y_big, 7);
        let (x_small, y_small) = linear_data(12);
        let ci_small = interval(&x_small, &y_small, 7);
        assert!(
            ci_small.length() > ci_big.length(),
            "small={:?} big={:?}",
            ci_small,
            ci_big
        );
    }

    #[test]
    fn ci_index_table_is_monotone() {
        let mut prev = pm1_ci_indices(2);
        for n in [40, 80, 180, 250, 1000] {
            let cur = pm1_ci_indices(n);
            assert!(cur.0 >= prev.0);
            assert!(cur.1 <= prev.1);
            prev = cur;
        }
    }

    #[test]
    fn order_stat_pair_matches_full_sort() {
        // The select_nth quantile step must be bit-identical to the old
        // sort-then-index implementation, including ties, ±0.0, and
        // adversarial orderings.
        let fixtures: Vec<Vec<f64>> = vec![
            vec![3.0, 1.0, 2.0],
            vec![5.0, 5.0, 5.0, 5.0],
            vec![-0.0, 0.0, -1.0, 1.0, 0.5, -0.5],
            (0..599).map(|i| ((i * 37 % 599) as f64).sin()).collect(),
            vec![1.0, f64::MIN_POSITIVE, -f64::MIN_POSITIVE, 0.0, -0.0],
        ];
        for v in fixtures {
            let mut sorted = v.clone();
            sorted.sort_by(f64::total_cmp);
            for (lo, hi) in [(0, v.len() - 1), (0, 0), (v.len() / 3, 2 * v.len() / 3)] {
                let mut work = v.clone();
                let (a, b) = order_stat_pair(&mut work, lo, hi);
                assert_eq!(a.to_bits(), sorted[lo].to_bits(), "{v:?} lo={lo}");
                assert_eq!(b.to_bits(), sorted[hi].to_bits(), "{v:?} hi={hi}");
            }
        }
    }

    #[test]
    fn percentile_interval_matches_sorted_rank_formula() {
        // Regression for the select_nth refactor: endpoints must equal
        // the rank formula applied to a fully sorted buffer.
        let rs: Vec<f64> = (0..199)
            .map(|i| ((i * 83 % 199) as f64 * 0.01).tan())
            .collect();
        for confidence in [0.5f64, 0.8, 0.9, 0.95, 0.99] {
            let mut sorted = rs.clone();
            sorted.sort_by(f64::total_cmp);
            let alpha = (1.0 - confidence).clamp(1e-9, 1.0);
            let b = sorted.len();
            let lo_rank = ((alpha / 2.0 * b as f64).ceil() as usize).clamp(1, b);
            let hi_rank = (b + 1 - lo_rank).clamp(1, b);
            let mut work = rs.clone();
            let ci = percentile_interval(&mut work, confidence);
            assert_eq!(ci.low.to_bits(), sorted[lo_rank - 1].to_bits());
            assert_eq!(ci.high.to_bits(), sorted[hi_rank - 1].to_bits());
        }
    }

    #[test]
    fn percentile_bootstrap_ci_validates_for_a_statistic_that_does_not() {
        let accept_all = |_: &[f64], _: &[f64]| Ok(0.5);
        let ci = |x: &[f64], y: &[f64]| {
            percentile_bootstrap_ci(&accept_all, x, y, 50, 0.9, 7, &mut BootstrapScratch::new())
        };
        let (x, y) = linear_data(6);
        assert!(ci(&x, &y).is_ok());
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut xb = x.clone();
            xb[3] = bad;
            assert_eq!(ci(&xb, &y), Err(StatsError::NonFiniteInput), "x {bad}");
            let mut yb = y.clone();
            yb[0] = bad;
            assert_eq!(ci(&x, &yb), Err(StatsError::NonFiniteInput), "y {bad}");
        }
        assert_eq!(
            ci(&x, &y[..5]),
            Err(StatsError::LengthMismatch { left: 6, right: 5 })
        );
        for n in [0, 1] {
            assert_eq!(
                ci(&x[..n], &y[..n]),
                Err(StatsError::TooFewSamples { needed: 2, got: n })
            );
        }
    }

    #[test]
    fn pm1_percentile_interval_close_to_generic_stat_path() {
        // Off 95%, the PM1 interval is the plain percentile interval of
        // the fused Pearson replicates, which visit the same resamples as
        // the generic materializing path (same word stream): the
        // intervals differ only by kernel float reassociation.
        let (x, y) = linear_data(90);
        let (_, fused) = pm1_with_ci(&x, &y, 17, 0.9, &mut BootstrapScratch::new()).unwrap();
        let generic = percentile_bootstrap_ci(
            &|a, b| pearson(a, b),
            &x,
            &y,
            PM1_CI_REPLICATES,
            0.9,
            17,
            &mut BootstrapScratch::new(),
        )
        .unwrap();
        assert!(
            (fused.low - generic.low).abs() < 1e-9,
            "{fused:?} {generic:?}"
        );
        assert!(
            (fused.high - generic.high).abs() < 1e-9,
            "{fused:?} {generic:?}"
        );
    }
}
