//! Oracle battery for sketch construction: `SketchBuilder::build` against
//! a reference that aggregates first and selects afterwards, written with
//! none of the builder's machinery (no heap, no streaming eviction, a
//! float sort) — and `murmur3_x64_128` against the byte-at-a-time tail
//! loop it used to run.
//!
//! The reference: group each key's rows in row order and fold them with
//! the aggregation, sort the distinct keys by `(g(k), h(k))` under
//! `total_cmp`, then keep the first `n`. `saturated` is "some key was
//! left out", `bounds` the extremes of every value scanned.

use std::collections::HashMap;

use proptest::collection::vec;
use proptest::prelude::*;

use correlation_sketches::{CorrelationSketch, SketchBuilder, SketchConfig};
use sketch_hashing::{murmur3_x64_128, KeyHash, KeyHasher, TupleHasher};
use sketch_stats::ValueBounds;
use sketch_table::{Aggregation, ColumnPair};

/// What a sketch of `pair` under `config` must hold, field for field.
struct Expected {
    keys: Vec<KeyHash>,
    values: Vec<f64>,
    units: Vec<f64>,
    saturated: bool,
    rows: u64,
    bounds: Option<ValueBounds>,
}

fn reference(pair: &ColumnPair, config: SketchConfig) -> Expected {
    let mut rows_of: HashMap<KeyHash, (f64, Vec<f64>)> = HashMap::new();
    for (key, value) in pair.rows() {
        let (kh, unit) = config.hasher.g(key.as_bytes());
        rows_of
            .entry(kh)
            .or_insert((unit, Vec::new()))
            .1
            .push(value);
    }
    let mut distinct: Vec<(f64, KeyHash, f64)> = rows_of
        .into_iter()
        .map(|(kh, (unit, values))| {
            let agg = config
                .aggregation
                .aggregate_slice(&values)
                .expect("a key has rows");
            (unit, kh, agg)
        })
        .collect();
    distinct.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let kept = config.size.min(distinct.len());
    let saturated = kept < distinct.len();
    distinct.truncate(kept);
    let values: Vec<f64> = pair.rows().map(|(_, v)| v).collect();
    let bounds = (!values.is_empty()).then(|| {
        let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        ValueBounds::new(lo, hi)
    });
    Expected {
        keys: distinct.iter().map(|d| d.1).collect(),
        values: distinct.iter().map(|d| d.2).collect(),
        units: distinct.iter().map(|d| d.0).collect(),
        saturated,
        rows: values.len() as u64,
        bounds,
    }
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

fn assert_matches(got: &CorrelationSketch, want: &Expected, config: SketchConfig, case: &str) {
    let keys: Vec<KeyHash> = got.entries().iter().map(|e| e.key).collect();
    let values: Vec<f64> = got.entries().iter().map(|e| e.value).collect();
    assert_eq!(keys, want.keys, "{case}: keys");
    assert_eq!(bits(&values), bits(&want.values), "{case}: values");
    assert_eq!(bits(got.units()), bits(&want.units), "{case}: units");
    assert_eq!(got.is_saturated(), want.saturated, "{case}: saturated");
    assert_eq!(got.rows_scanned(), want.rows, "{case}: rows_scanned");
    assert_eq!(
        got.value_bounds()
            .map(|b| (b.c_low.to_bits(), b.c_high.to_bits())),
        want.bounds.map(|b| (b.c_low.to_bits(), b.c_high.to_bits())),
        "{case}: bounds"
    );
    assert_eq!(got.hasher(), config.hasher, "{case}: hasher");
    assert_eq!(got.aggregation(), config.aggregation, "{case}: aggregation");
    assert_eq!(got.size(), config.size, "{case}: size");
}

/// Rows drawn from a key domain much smaller than the row count, so
/// nearly every key repeats, in an order that interleaves them.
fn pair_from(keys: &[u16], values: &[f64]) -> ColumnPair {
    let n = keys.len().min(values.len());
    ColumnPair::new(
        "t",
        "k",
        "v",
        keys[..n].iter().map(|k| format!("key-{k}")).collect(),
        values[..n].to_vec(),
    )
}

fn hasher_for(bits64: bool, seed: u64) -> TupleHasher {
    if bits64 {
        TupleHasher::new_64(seed)
    } else {
        TupleHasher::paper_32(seed as u32)
    }
}

proptest! {
    /// Fixed-size sketches at n ∈ {0, 1, 2, 7, 64, more than the
    /// distinct count}, every aggregation, both hash widths: the
    /// streaming build (heap-free until full, heap after) equals the
    /// aggregate-then-select reference.
    #[test]
    fn fixed_size_build_equals_the_reference(
        keys in vec(0u16..90, 0..400),
        values in vec(-1e3f64..1e3, 0..400),
        bits64 in any::<bool>(),
        seed in 0u64..1_000,
    ) {
        let pair = pair_from(&keys, &values);
        let distinct = keys.iter().take(pair.len()).collect::<std::collections::HashSet<_>>().len();
        for n in [0, 1, 2, 7, 64, distinct + 3] {
            for agg in Aggregation::ALL {
                let config = SketchConfig::with_size(n)
                    .hasher(hasher_for(bits64, seed))
                    .aggregation(agg);
                let got = SketchBuilder::new(config).build(&pair);
                let case = format!("n={n} agg={agg} bits64={bits64} seed={seed}");
                assert_matches(&got, &reference(&pair, config), config, &case);
            }
        }
    }

    /// Every tail length of every block count up to three blocks.
    #[test]
    fn murmur3_x64_128_equals_the_byte_loop(
        data in vec(any::<u8>(), 47..48),
        seed in any::<u64>(),
    ) {
        for len in 0..=47 {
            let input = &data[..len];
            prop_assert_eq!(
                murmur3_x64_128(input, seed),
                byte_loop::murmur3_x64_128(input, seed),
                "len={}", len
            );
        }
    }
}

/// `murmur3_x64_128` as it stood with the per-byte tail loop.
mod byte_loop {
    use sketch_hashing::fmix64;

    pub fn murmur3_x64_128(data: &[u8], seed: u64) -> (u64, u64) {
        const C1: u64 = 0x87c3_7b91_1142_53d5;
        const C2: u64 = 0x4cf5_ad43_2745_937f;

        let mut h1 = seed;
        let mut h2 = seed;
        let n_blocks = data.len() / 16;

        for block in data.chunks_exact(16) {
            let mut k1 = u64::from_le_bytes(block[0..8].try_into().expect("8-byte slice"));
            let mut k2 = u64::from_le_bytes(block[8..16].try_into().expect("8-byte slice"));

            k1 = k1.wrapping_mul(C1);
            k1 = k1.rotate_left(31);
            k1 = k1.wrapping_mul(C2);
            h1 ^= k1;
            h1 = h1.rotate_left(27);
            h1 = h1.wrapping_add(h2);
            h1 = h1.wrapping_mul(5).wrapping_add(0x52dc_e729);

            k2 = k2.wrapping_mul(C2);
            k2 = k2.rotate_left(33);
            k2 = k2.wrapping_mul(C1);
            h2 ^= k2;
            h2 = h2.rotate_left(31);
            h2 = h2.wrapping_add(h1);
            h2 = h2.wrapping_mul(5).wrapping_add(0x3849_5ab5);
        }

        let tail = &data[n_blocks * 16..];
        let mut k1: u64 = 0;
        let mut k2: u64 = 0;
        for (i, &byte) in tail.iter().enumerate().rev() {
            match i {
                0..=7 => k1 ^= u64::from(byte) << (8 * i),
                8..=15 => k2 ^= u64::from(byte) << (8 * (i - 8)),
                _ => unreachable!("tail is at most 15 bytes"),
            }
        }
        if tail.len() > 8 {
            k2 = k2.wrapping_mul(C2);
            k2 = k2.rotate_left(33);
            k2 = k2.wrapping_mul(C1);
            h2 ^= k2;
        }
        if !tail.is_empty() {
            k1 = k1.wrapping_mul(C1);
            k1 = k1.rotate_left(31);
            k1 = k1.wrapping_mul(C2);
            h1 ^= k1;
        }

        h1 ^= data.len() as u64;
        h2 ^= data.len() as u64;
        h1 = h1.wrapping_add(h2);
        h2 = h2.wrapping_add(h1);
        h1 = fmix64(h1);
        h2 = fmix64(h2);
        h1 = h1.wrapping_add(h2);
        h2 = h2.wrapping_add(h1);
        (h1, h2)
    }
}
