//! SoA sum kernels for the estimator hot path — portable,
//! autovectorizable, no intrinsics — and the index supply of the
//! bootstrap's resamples.
//!
//! # Layout and chunking
//!
//! Every kernel consumes contiguous column slices (`x[]`, `y[]`, index
//! blocks) and accumulates into `LANES` independent partial sums:
//! element `i` always lands in lane `i % LANES`, and the lanes are
//! reduced left-to-right at the end. Splitting the accumulation across
//! independent lanes removes the loop-carried dependence on a single
//! float accumulator, so the optimizer is free to keep the lanes in
//! vector registers (`LANES = 8` f64 lanes = two AVX2 or one AVX-512
//! register per sum) — without any `target-cpu` flag, intrinsics, or
//! unsafe code. On a target with no vector units the same code runs as
//! plain scalar arithmetic.
//!
//! # Determinism contract
//!
//! Chunking reassociates float addition, so the kernels' results differ
//! from a single-accumulator loop in the last bits — but they are a pure
//! function of the input columns alone:
//!
//! * The lane assignment (`i % LANES`) and the reduction order are fixed
//!   by `LANES`, a compile-time constant. Thread counts, chunk sizes of
//!   the caller's fan-out, and scratch state never influence a bit of
//!   the output.
//! * Each optimized kernel has a scalar reference twin in this module
//!   (`*_scalar`) written as per-lane strided loops — the obviously
//!   correct spelling of the same association. The two are bit-identical
//!   by construction (identical op sequence per lane) for every numeric
//!   result, and the `prop_kernel` battery asserts it over arbitrary
//!   shapes, including ∞/signed-zero payloads and degenerate resamples.
//!   The sole exception is the sign/payload of NaN *outputs*: IEEE 754
//!   and LLVM leave NaN propagation unspecified (float adds may be
//!   commuted per inlining context), so two spellings of the same sum
//!   can produce differently-signed quiet NaNs. Whether a result is NaN
//!   is still exact, and every caller collapses NaN to `None` before it
//!   can reach an answer, so no observable output depends on a payload.
//! * For inputs shorter than `LANES` every lane holds at most one
//!   element, so the reduction degenerates to the plain left-to-right
//!   sum — tiny fixtures are bit-identical to the textbook loop.
//!
//! The kernels are raw sum machines: they accept NaN/∞ and simply
//! propagate them (IEEE semantics); validation and degeneracy policy
//! live in the callers ([`crate::pearson()`], [`crate::bootstrap`]).
//!
//! # Index draws without a division
//!
//! A bootstrap index is `word % n` over a raw 64-bit generator word. A
//! hardware 64-bit `div` per index was about three quarters of a
//! resample (the five-sum gather the other quarter), so [`IndexDraw`]
//! takes the remainder by a reciprocal precomputed once per call, and
//! takes it *exactly*. With `m = ⌊(2⁶⁴−1)/n⌋`, write `2⁶⁴ = m·n + e`,
//! `1 ≤ e ≤ n`. The estimated quotient `q = ⌊w·m/2⁶⁴⌋` satisfies
//! `w·m/2⁶⁴ = w/n − (w/n)(e/2⁶⁴)`, and the subtracted term is below
//! `e/n ≤ 1` because `w < 2⁶⁴`; hence `q ∈ {⌊w/n⌋ − 1, ⌊w/n⌋}` and
//! `r = w − q·n ∈ [0, 2n)` without overflow (`q·n ≤ w`). One conditional
//! subtraction of `n` lands `r` in `[0, n)` — spelled branch-free as
//! `min(r, r − n)` in wrapping arithmetic: the estimate is one short
//! for about `e/2n` of the words (half of them when `n` is a power of
//! two), decided by the word's low bits, so a branch there would
//! mispredict at that rate and give the division's cost back. The
//! argument holds for every `n ≥ 1` and every word, so the index stream
//! — and with it every resample — is unchanged; `gather_sums_by`
//! fuses the reduction into the gather loop, so a resample reads
//! generator words and never materializes an index block.
//!
//! The words themselves are a function of the seed alone, and every
//! candidate of a query (and every query under one estimator) draws
//! under the same seed. A `WordStream` therefore keeps the first
//! `KEPT_WORDS` of its seed's stream, generated on first demand, and
//! serves each later call from them; a resample that ends past the cap
//! takes what the prefix still holds and the rest from the generator
//! state at the prefix's end. Word `i` of a seed is the same word
//! whichever way it is served, so neither reuse, nor the cap, nor what
//! an earlier call left behind can change a bit of any resample.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Number of independent accumulator lanes. Eight f64 lanes fill two
/// AVX2 registers (or one AVX-512 register) per sum and still fit the
/// 16 architectural vector registers of x86-64 when five sums are live.
pub(crate) const LANES: usize = 8;

/// The five raw sums of one gathered resample over (centered) columns:
/// Σx, Σy, Σx², Σy², Σxy — everything Pearson's `r` needs, in one pass.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GatherSums {
    /// `Σ x[idx[i]]`
    pub sx: f64,
    /// `Σ y[idx[i]]`
    pub sy: f64,
    /// `Σ x[idx[i]]²`
    pub sxx: f64,
    /// `Σ y[idx[i]]²`
    pub syy: f64,
    /// `Σ x[idx[i]]·y[idx[i]]`
    pub sxy: f64,
}

/// Centered second-moment sums for the direct (identity-gather) Pearson
/// pass: Σdx², Σdy², Σdx·dy with `dx = x − mean_x`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CenteredSums {
    /// Σ (x − mean_x)²
    pub sxx: f64,
    /// Σ (y − mean_y)²
    pub syy: f64,
    /// Σ (x − mean_x)(y − mean_y)
    pub sxy: f64,
}

/// Reduce one lane array left-to-right. The single reduction order every
/// kernel (optimized and reference) shares.
#[inline]
fn reduce(lanes: &[f64; LANES]) -> f64 {
    let mut total = 0.0;
    for &lane in lanes {
        total += lane;
    }
    total
}

/// Exact `word % n` by a precomputed reciprocal — the one index draw of
/// every bootstrap path (module docs give the exactness argument).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexDraw {
    n: u64,
    recip: u64,
}

impl IndexDraw {
    /// The draw over `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` (an empty sample has no index to draw).
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "index draw over an empty sample");
        let n = n as u64;
        Self {
            n,
            recip: u64::MAX / n,
        }
    }

    /// `word % n`, bit for bit what `rng.random_range(0..n)` maps the
    /// same generator word to.
    #[must_use]
    #[inline]
    pub fn index(self, word: u64) -> usize {
        let q = ((u128::from(word) * u128::from(self.recip)) >> 64) as u64;
        let r = word.wrapping_sub(q.wrapping_mul(self.n));
        r.min(r.wrapping_sub(self.n)) as usize
    }
}

/// Words of one seed's stream a [`WordStream`] keeps: 6 MiB, the 599
/// resamples of a full 1024-row join sample with a quarter to spare for
/// degenerate attempts. A constant, not an option: a shorter prefix only
/// sends more of a long call to the generator.
pub(crate) const KEPT_WORDS: usize = 768 * 1024;

/// The raw word stream of `StdRng::seed_from_u64(seed)` as the
/// bootstrap reads it, one resample's words at a time: the kept prefix
/// (module docs), and the cursor of the call reading it.
#[derive(Debug, Clone)]
pub(crate) struct WordStream {
    seed: u64,
    /// The generator, positioned just past `words`.
    rng: StdRng,
    words: Vec<u64>,
    pos: usize,
    /// Past the cap: the generator from the end of `words` on, and the
    /// one resample's words it was last asked for.
    past: Option<StdRng>,
    tail: Vec<u64>,
}

impl Default for WordStream {
    fn default() -> Self {
        Self {
            seed: 0,
            rng: StdRng::seed_from_u64(0),
            words: Vec::new(),
            pos: 0,
            past: None,
            tail: Vec::new(),
        }
    }
}

impl WordStream {
    /// Start a call at the first word of `seed`'s stream; a prefix kept
    /// for another seed is dropped.
    pub fn rewind(&mut self, seed: u64) -> &mut Self {
        if self.seed != seed {
            self.words.clear();
            (self.seed, self.rng) = (seed, StdRng::seed_from_u64(seed));
        }
        (self.pos, self.past) = (0, None);
        self
    }

    /// The next `n` words of the stream.
    pub fn next(&mut self, n: usize) -> &[u64] {
        let start = self.pos;
        self.pos = start.saturating_add(n);
        let Self { rng, words, .. } = self;
        if self.pos <= KEPT_WORDS {
            if words.capacity() < self.pos {
                // Amortized doubling, but never past the cap.
                let target = (2 * words.len()).clamp(self.pos, KEPT_WORDS);
                words.reserve_exact(target - words.len());
            }
            words.extend((words.len()..self.pos).map(|_| rng.next_u64()));
            return &words[start..self.pos];
        }
        // What the prefix still holds of this resample, then the
        // generator from where the prefix ends.
        let past = self.past.get_or_insert_with(|| rng.clone());
        self.tail.clear();
        self.tail
            .extend_from_slice(&words[start.min(words.len())..]);
        let fresh = n - self.tail.len();
        self.tail.extend((0..fresh).map(|_| past.next_u64()));
        &self.tail
    }
}

/// Fused gather + five-sum kernel: accumulate the Pearson sums of the
/// resample `(x[idx[i]], y[idx[i]])` in one chunked pass — no `bx`/`by`
/// materialization, no second pass.
///
/// # Panics
///
/// Panics if any index is out of bounds for `x`/`y` (the callers
/// generate indices in `0..x.len()`).
#[must_use]
#[inline]
pub fn gather_sums(x: &[f64], y: &[f64], idx: &[u32]) -> GatherSums {
    gather_sums_by(x, y, idx, |j| j as usize)
}

/// [`gather_sums`] over any index source: element `i` of the resample is
/// row `index(src[i])`. The bootstrap passes raw generator words and an
/// [`IndexDraw`], so the reduction runs inside the gather loop.
///
/// # Panics
///
/// Panics if `index` yields a row out of bounds for `x`/`y`.
#[must_use]
#[inline]
pub(crate) fn gather_sums_by<T: Copy>(
    x: &[f64],
    y: &[f64],
    src: &[T],
    index: impl Fn(T) -> usize,
) -> GatherSums {
    let mut sx = [0.0f64; LANES];
    let mut sy = [0.0f64; LANES];
    let mut sxx = [0.0f64; LANES];
    let mut syy = [0.0f64; LANES];
    let mut sxy = [0.0f64; LANES];

    let mut chunks = src.chunks_exact(LANES);
    for chunk in chunks.by_ref() {
        // Gather the chunk into dense lane temporaries first, then do
        // the pure-arithmetic lane update the vectorizer can lift whole.
        let mut xv = [0.0f64; LANES];
        let mut yv = [0.0f64; LANES];
        for lane in 0..LANES {
            let j = index(chunk[lane]);
            xv[lane] = x[j];
            yv[lane] = y[j];
        }
        for lane in 0..LANES {
            sx[lane] += xv[lane];
            sy[lane] += yv[lane];
            sxx[lane] += xv[lane] * xv[lane];
            syy[lane] += yv[lane] * yv[lane];
            sxy[lane] += xv[lane] * yv[lane];
        }
    }
    for (lane, &s) in chunks.remainder().iter().enumerate() {
        let j = index(s);
        let (xv, yv) = (x[j], y[j]);
        sx[lane] += xv;
        sy[lane] += yv;
        sxx[lane] += xv * xv;
        syy[lane] += yv * yv;
        sxy[lane] += xv * yv;
    }

    GatherSums {
        sx: reduce(&sx),
        sy: reduce(&sy),
        sxx: reduce(&sxx),
        syy: reduce(&syy),
        sxy: reduce(&sxy),
    }
}

/// Scalar reference twin of [`gather_sums`]: per-lane strided loops —
/// the same association spelled the obvious way. Bit-identical to the
/// optimized kernel for every input (property-tested); kept in-tree as
/// the correctness oracle and the microbench baseline shape.
#[must_use]
#[inline]
pub fn gather_sums_scalar(x: &[f64], y: &[f64], idx: &[u32]) -> GatherSums {
    let mut out = GatherSums::default();
    let mut sx = [0.0f64; LANES];
    let mut sy = [0.0f64; LANES];
    let mut sxx = [0.0f64; LANES];
    let mut syy = [0.0f64; LANES];
    let mut sxy = [0.0f64; LANES];
    for lane in 0..LANES {
        for &j in idx.iter().skip(lane).step_by(LANES) {
            let (xv, yv) = (x[j as usize], y[j as usize]);
            sx[lane] += xv;
            sy[lane] += yv;
            sxx[lane] += xv * xv;
            syy[lane] += yv * yv;
            sxy[lane] += xv * yv;
        }
    }
    out.sx = reduce(&sx);
    out.sy = reduce(&sy);
    out.sxx = reduce(&sxx);
    out.syy = reduce(&syy);
    out.sxy = reduce(&sxy);
    out
}

/// Chunked column means: `(Σx/n, Σy/n)` with lane-split sums. The first
/// pass of [`crate::pearson()`] and the centering step of the bootstrap
/// kernels.
#[must_use]
#[inline]
pub fn column_means(x: &[f64], y: &[f64]) -> (f64, f64) {
    let n = x.len() as f64;
    (lane_sum(x) / n, lane_sum(y) / n)
}

/// Lane-split sum of one column.
#[must_use]
#[inline]
pub fn lane_sum(v: &[f64]) -> f64 {
    let mut acc = [0.0f64; LANES];
    let mut chunks = v.chunks_exact(LANES);
    for chunk in chunks.by_ref() {
        for lane in 0..LANES {
            acc[lane] += chunk[lane];
        }
    }
    for (lane, &value) in chunks.remainder().iter().enumerate() {
        acc[lane] += value;
    }
    reduce(&acc)
}

/// Scalar reference twin of [`lane_sum`] (per-lane strided).
#[must_use]
#[inline]
pub fn lane_sum_scalar(v: &[f64]) -> f64 {
    let mut acc = [0.0f64; LANES];
    for (lane, slot) in acc.iter_mut().enumerate() {
        for &value in v.iter().skip(lane).step_by(LANES) {
            *slot += value;
        }
    }
    reduce(&acc)
}

/// Chunked centered second moments — the fused second pass of
/// [`crate::pearson()`]: Σdx², Σdy², Σdx·dy in one loop.
#[must_use]
#[inline]
pub fn centered_sums(x: &[f64], y: &[f64], mean_x: f64, mean_y: f64) -> CenteredSums {
    let mut sxx = [0.0f64; LANES];
    let mut syy = [0.0f64; LANES];
    let mut sxy = [0.0f64; LANES];
    let n = x.len().min(y.len());
    let (x, y) = (&x[..n], &y[..n]);
    let mut xc = x.chunks_exact(LANES);
    let mut yc = y.chunks_exact(LANES);
    for (cx, cy) in xc.by_ref().zip(yc.by_ref()) {
        for lane in 0..LANES {
            let dx = cx[lane] - mean_x;
            let dy = cy[lane] - mean_y;
            sxx[lane] += dx * dx;
            syy[lane] += dy * dy;
            sxy[lane] += dx * dy;
        }
    }
    for (lane, (&xv, &yv)) in xc.remainder().iter().zip(yc.remainder()).enumerate() {
        let dx = xv - mean_x;
        let dy = yv - mean_y;
        sxx[lane] += dx * dx;
        syy[lane] += dy * dy;
        sxy[lane] += dx * dy;
    }
    CenteredSums {
        sxx: reduce(&sxx),
        syy: reduce(&syy),
        sxy: reduce(&sxy),
    }
}

/// Scalar reference twin of [`centered_sums`] (per-lane strided).
#[must_use]
#[inline]
pub fn centered_sums_scalar(x: &[f64], y: &[f64], mean_x: f64, mean_y: f64) -> CenteredSums {
    let mut sxx = [0.0f64; LANES];
    let mut syy = [0.0f64; LANES];
    let mut sxy = [0.0f64; LANES];
    let n = x.len().min(y.len());
    for lane in 0..LANES {
        let mut i = lane;
        while i < n {
            let dx = x[i] - mean_x;
            let dy = y[i] - mean_y;
            sxx[lane] += dx * dx;
            syy[lane] += dy * dy;
            sxy[lane] += dx * dy;
            i += LANES;
        }
    }
    CenteredSums {
        sxx: reduce(&sxx),
        syy: reduce(&syy),
        sxy: reduce(&sxy),
    }
}

/// Finish a gathered resample: Pearson's `r` from the five raw sums of a
/// sample of `n` draws over full-sample-centered columns, with the
/// mean-correction applied (`Sxx − Sx²/n`, …). `None` when the corrected
/// variance of either side is not strictly positive (a degenerate
/// resample — e.g. one index drawn `n` times) or any sum went non-finite.
#[must_use]
#[inline]
pub fn pearson_from_gather(n: usize, sums: &GatherSums) -> Option<f64> {
    let nf = n as f64;
    let sxx = sums.sxx - sums.sx * sums.sx / nf;
    let syy = sums.syy - sums.sy * sums.sy / nf;
    let sxy = sums.sxy - sums.sx * sums.sy / nf;
    // Requiring a strictly-positive comparison to *hold* (rather than
    // rejecting `<= 0.0`) also catches NaN from ∞−∞ cancellation.
    let positive = |v: f64| v > 0.0;
    if !positive(sxx) || !positive(syy) || !sxy.is_finite() {
        return None;
    }
    Some((sxy / (sxx.sqrt() * syy.sqrt())).clamp(-1.0, 1.0))
}

/// The pre-kernel resample path, retained in-tree as the numerical
/// baseline: gather `(x[idx[i]], y[idx[i]])` into `bx`/`by`, then run the
/// classic two-pass mean-centered Pearson over the materialized buffers.
/// The `prop_kernel` battery bounds the fused kernel's divergence from
/// this path.
///
/// # Panics
///
/// Panics if `bx`/`by` are shorter than `idx` or any index is out of
/// bounds.
#[must_use]
#[inline]
pub fn resample_pearson_twopass(
    x: &[f64],
    y: &[f64],
    idx: &[u32],
    bx: &mut [f64],
    by: &mut [f64],
) -> Option<f64> {
    let n = idx.len();
    for (i, &j) in idx.iter().enumerate() {
        bx[i] = x[j as usize];
        by[i] = y[j as usize];
    }
    let (bx, by) = (&bx[..n], &by[..n]);
    let nf = n as f64;
    let mean_x = bx.iter().sum::<f64>() / nf;
    let mean_y = by.iter().sum::<f64>() / nf;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (&xi, &yi) in bx.iter().zip(by) {
        let dx = xi - mean_x;
        let dy = yi - mean_y;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx <= 0.0 || syy <= 0.0 {
        return None;
    }
    Some((sxy / (sxx.sqrt() * syy.sqrt())).clamp(-1.0, 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn columns(n: usize) -> (Vec<f64>, Vec<f64>) {
        let x: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.7).sin() * 3.0).collect();
        let y: Vec<f64> = x
            .iter()
            .enumerate()
            .map(|(i, v)| 2.0 * v + ((i as f64) * 1.3).cos())
            .collect();
        (x, y)
    }

    #[test]
    fn word_stream_is_the_generator_stream_whatever_it_kept() {
        // Blocks of every size, through and past the cap, must spell the
        // generator's own words — on a fresh stream, after a call under
        // another seed, and after calls that left a longer or shorter
        // prefix (one ending inside the block that crosses the cap).
        let expect = |seed: u64, len: usize| -> Vec<u64> {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..len).map(|_| rng.next_u64()).collect()
        };
        let read = |stream: &mut WordStream, seed: u64, n: usize, blocks: usize| -> Vec<u64> {
            let words = stream.rewind(seed);
            (0..blocks).flat_map(|_| words.next(n).to_vec()).collect()
        };
        let mut stream = WordStream::default();
        let per_cap = |n: usize| KEPT_WORDS / n;
        for (seed, n, blocks) in [
            (7u64, 333usize, 40usize),
            (9, 50_000, per_cap(50_000) + 3),
            (9, 1, 10),
            (9, 49_999, per_cap(49_999)),
            (9, 50_000, per_cap(50_000) + 2),
            (9, KEPT_WORDS + 5, 2),
            (7, 1024, 3),
        ] {
            let got = read(&mut stream, seed, n, blocks);
            assert_eq!(got, expect(seed, n * blocks), "seed={seed} n={n}");
        }
        assert!(stream.words.len() <= KEPT_WORDS);
    }

    #[test]
    fn gather_matches_scalar_reference_bitwise() {
        for n in [0usize, 1, 3, 7, 8, 9, 16, 31, 200] {
            let (x, y) = columns(n.max(1));
            let idx: Vec<u32> = (0..n).map(|i| ((i * 5 + 1) % x.len()) as u32).collect();
            let a = gather_sums(&x, &y, &idx);
            let b = gather_sums_scalar(&x, &y, &idx);
            assert_eq!(a.sx.to_bits(), b.sx.to_bits(), "n={n}");
            assert_eq!(a.sy.to_bits(), b.sy.to_bits(), "n={n}");
            assert_eq!(a.sxx.to_bits(), b.sxx.to_bits(), "n={n}");
            assert_eq!(a.syy.to_bits(), b.syy.to_bits(), "n={n}");
            assert_eq!(a.sxy.to_bits(), b.sxy.to_bits(), "n={n}");
        }
    }

    #[test]
    fn short_inputs_reduce_to_plain_left_to_right_sums() {
        // Below LANES each element owns a lane, so the kernel result is
        // bit-identical to the naive sequential sum.
        let x = [1.5, -2.25, 3.0, 0.5];
        let y = [2.0, 4.0, -1.0, 8.0];
        let idx = [0u32, 1, 2, 3];
        let s = gather_sums(&x, &y, &idx);
        assert_eq!(s.sx.to_bits(), (1.5 + -2.25 + 3.0 + 0.5f64).to_bits());
        assert_eq!(
            s.sxy.to_bits(),
            (1.5 * 2.0 + -2.25 * 4.0 + -3.0 + 0.5 * 8.0f64).to_bits()
        );
        assert_eq!(
            lane_sum(&x).to_bits(),
            (1.5 + -2.25 + 3.0 + 0.5f64).to_bits()
        );
    }

    #[test]
    fn fused_resample_close_to_twopass() {
        let (x, y) = columns(257);
        let (mx, my) = column_means(&x, &y);
        let cx: Vec<f64> = x.iter().map(|v| v - mx).collect();
        let cy: Vec<f64> = y.iter().map(|v| v - my).collect();
        let idx: Vec<u32> = (0..257).map(|i| ((i * 31 + 7) % 257) as u32).collect();
        let fused = pearson_from_gather(idx.len(), &gather_sums(&cx, &cy, &idx)).unwrap();
        let mut bx = vec![0.0; idx.len()];
        let mut by = vec![0.0; idx.len()];
        let twopass = resample_pearson_twopass(&x, &y, &idx, &mut bx, &mut by).unwrap();
        assert!((fused - twopass).abs() < 1e-12, "{fused} vs {twopass}");
    }

    #[test]
    fn degenerate_resample_is_none() {
        let (x, y) = columns(64);
        let (mx, my) = column_means(&x, &y);
        let cx: Vec<f64> = x.iter().map(|v| v - mx).collect();
        let cy: Vec<f64> = y.iter().map(|v| v - my).collect();
        // Every draw picks the same row: zero variance.
        let idx = vec![5u32; 64];
        assert_eq!(pearson_from_gather(64, &gather_sums(&cx, &cy, &idx)), None);
    }

    #[test]
    fn nan_inputs_propagate_to_none_not_panic() {
        let x = [1.0, f64::NAN, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0];
        let y = [2.0, 1.0, 4.0, 3.0, 5.0, 8.0, 6.0, 7.0, 9.0];
        let idx: Vec<u32> = (0..9).collect();
        let sums = gather_sums(&x, &y, &idx);
        assert!(sums.sx.is_nan());
        assert_eq!(pearson_from_gather(9, &sums), None);
    }

    #[test]
    fn centered_sums_match_scalar_reference_bitwise() {
        for n in [1usize, 5, 8, 13, 64, 100] {
            let (x, y) = columns(n);
            let (mx, my) = column_means(&x, &y);
            let a = centered_sums(&x, &y, mx, my);
            let b = centered_sums_scalar(&x, &y, mx, my);
            assert_eq!(a.sxx.to_bits(), b.sxx.to_bits(), "n={n}");
            assert_eq!(a.syy.to_bits(), b.syy.to_bits(), "n={n}");
            assert_eq!(a.sxy.to_bits(), b.sxy.to_bits(), "n={n}");
        }
    }

    #[test]
    fn lane_sum_matches_scalar_reference_bitwise() {
        for n in [0usize, 1, 7, 8, 9, 100] {
            let v: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.31).cos() * 7.5).collect();
            assert_eq!(lane_sum(&v).to_bits(), lane_sum_scalar(&v).to_bits());
        }
    }
}
