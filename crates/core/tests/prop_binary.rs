//! Property tests: the binary codec round-trips bit-exactly for every
//! sketch shape the builder can produce — empty, single-entry,
//! saturated, max-size (nothing excluded), threshold strategy, both
//! hasher widths, every aggregation — including the rebuilt `units`
//! caches.

use proptest::collection::vec;
use proptest::prelude::*;

use correlation_sketches::{CorrelationSketch, SketchBuilder, SketchConfig};
use sketch_hashing::TupleHasher;
use sketch_table::{Aggregation, ColumnPair};

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

/// Bit-exact sketch comparison: `PartialEq` plus explicit `f64` bit
/// checks on entry values, units, and bounds (so `-0.0` vs `0.0` or NaN
/// payload drift could never slip through an `==`).
fn assert_bit_identical(a: &CorrelationSketch, b: &CorrelationSketch) {
    assert_eq!(a, b);
    assert_eq!(a.len(), b.len());
    for (ea, eb) in a.entries().iter().zip(b.entries()) {
        assert_eq!(ea.key, eb.key);
        assert_eq!(ea.value.to_bits(), eb.value.to_bits());
    }
    assert_eq!(a.units().len(), b.units().len());
    for (ua, ub) in a.units().iter().zip(b.units()) {
        assert_eq!(ua.to_bits(), ub.to_bits());
    }
    match (a.value_bounds(), b.value_bounds()) {
        (None, None) => {}
        (Some(ba), Some(bb)) => {
            assert_eq!(ba.c_low.to_bits(), bb.c_low.to_bits());
            assert_eq!(ba.c_high.to_bits(), bb.c_high.to_bits());
        }
        other => panic!("bounds mismatch: {other:?}"),
    }
}

fn config_for(
    strat_kind: usize,
    size: usize,
    thresh: f64,
    bits64: bool,
    seed: u64,
    agg_idx: usize,
) -> SketchConfig {
    let base = match strat_kind {
        0 => SketchConfig::with_size(size),
        // Clamp away a zero threshold (with_threshold(0.0) would keep
        // nothing; still legal, but covered by the size-0 case).
        _ => SketchConfig::with_threshold(thresh.max(1e-6)),
    };
    let hasher = if bits64 {
        TupleHasher::new_64(seed)
    } else {
        TupleHasher::paper_32(seed as u32)
    };
    base.hasher(hasher).aggregation(Aggregation::ALL[agg_idx])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// For arbitrary build inputs and configurations, the binary codec
    /// round-trips to a sketch bit-identical to the original (including
    /// the rebuilt `units` cache).
    #[test]
    fn binary_roundtrip_is_bit_identical(
        keys in vec(0u16..400, 0..130),
        values in vec(-1e6f64..1e6, 0..130),
        strat_kind in 0usize..2,
        size in 0usize..80,
        thresh in 0.0f64..1.0,
        bits64_sel in 0usize..2,
        seed in 0u64..(1u64 << 48),
        agg_idx in 0usize..7,
    ) {
        let cfg = config_for(strat_kind, size, thresh, bits64_sel == 1, seed, agg_idx);
        let s = SketchBuilder::new(cfg).build(&pair_from(&keys, &values));

        // NaN-free invariant: nothing the builder produces is non-finite.
        prop_assert!(s.entries().iter().all(|e| e.value.is_finite()));
        prop_assert!(s.units().iter().all(|u| u.is_finite()));

        let via_bin = CorrelationSketch::from_bytes(&s.to_bytes().unwrap()).unwrap();
        assert_bit_identical(&s, &via_bin);
        // The units cache is genuinely rebuilt, not copied: recompute.
        for (u, e) in via_bin.units().iter().zip(via_bin.entries()) {
            prop_assert_eq!(u.to_bits(), via_bin.unit_hash(e).to_bits());
        }
    }

    /// Encoding is deterministic, and a second encode of the decoded
    /// sketch reproduces the same bytes (canonical form).
    #[test]
    fn encoding_is_canonical(
        keys in vec(0u16..200, 0..100),
        values in vec(-1e3f64..1e3, 0..100),
        size in 0usize..40,
    ) {
        let s = SketchBuilder::new(SketchConfig::with_size(size))
            .build(&pair_from(&keys, &values));
        let bytes = s.to_bytes().unwrap();
        prop_assert_eq!(&bytes, &s.to_bytes().unwrap());
        let back = CorrelationSketch::from_bytes(&bytes).unwrap();
        prop_assert_eq!(&bytes, &back.to_bytes().unwrap());
    }
}

#[test]
fn named_edge_shapes_roundtrip() {
    let b64 = SketchBuilder::new(SketchConfig::with_size(16));
    // Empty column.
    let empty = b64.build(&pair_from(&[], &[]));
    assert!(empty.is_empty());
    assert_bit_identical(
        &empty,
        &CorrelationSketch::from_bytes(&empty.to_bytes().unwrap()).unwrap(),
    );
    // Single entry.
    let single = b64.build(&pair_from(&[7], &[1.25]));
    assert_eq!(single.len(), 1);
    assert_bit_identical(
        &single,
        &CorrelationSketch::from_bytes(&single.to_bytes().unwrap()).unwrap(),
    );
    // Max size: every distinct key retained, not saturated.
    let keys: Vec<u16> = (0..50).collect();
    let values: Vec<f64> = (0..50).map(f64::from).collect();
    let max = SketchBuilder::new(SketchConfig::with_size(500)).build(&pair_from(&keys, &values));
    assert!(!max.is_saturated());
    assert_eq!(max.len(), 50);
    assert_bit_identical(
        &max,
        &CorrelationSketch::from_bytes(&max.to_bytes().unwrap()).unwrap(),
    );
    // Zero-size sketch of a non-empty column.
    let zero = SketchBuilder::new(SketchConfig::with_size(0)).build(&pair_from(&keys, &values));
    assert!(zero.is_empty() && zero.is_saturated());
    assert_bit_identical(
        &zero,
        &CorrelationSketch::from_bytes(&zero.to_bytes().unwrap()).unwrap(),
    );
}
