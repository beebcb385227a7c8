//! Fibonacci (golden-ratio multiplicative) hashing — the unit-interval hash
//! `h_u` of the paper (Section 3.4, citing Knuth TAOCP vol. 3 §6.4).
//!
//! Multiplying by `2^w / φ` (where φ is the golden ratio) and keeping the
//! low `w` bits scrambles consecutive integers into a low-discrepancy,
//! uniform-looking sequence. Interpreting the scrambled word as a fixed
//! point fraction yields a value in `[0, 1)`.

/// `⌊2^64 / φ⌋`, the 64-bit Fibonacci hashing multiplier (odd).
const FIB_MULT_64: u64 = 0x9e37_79b9_7f4a_7c15;

/// Scale factor that maps the top 53 bits of a u64 into `[0, 1)` without
/// precision loss (f64 has a 53-bit significand).
const INV_2_53: f64 = 1.0 / ((1u64 << 53) as f64);

/// Fibonacci hash of a 64-bit integer: `x * ⌊2^64/φ⌋ mod 2^64`.
///
/// This is a bijection on `u64` (the multiplier is odd), so it cannot
/// introduce collisions on top of the key hash `h`.
#[inline]
#[must_use]
pub const fn fib_hash_u64(x: u64) -> u64 {
    x.wrapping_mul(FIB_MULT_64)
}

/// The paper's `h_u`: maps an integer tuple identifier `h(k)` uniformly into
/// the unit interval `[0, 1)`.
///
/// The top 53 bits of the Fibonacci hash are used so that every
/// representable output is an exact multiple of `2^-53`; this keeps the
/// mapping order-isomorphic to the underlying integer hash (ties in `f64`
/// imply ties in the top 53 bits).
#[inline]
#[must_use]
pub fn unit_hash_u64(x: u64) -> f64 {
    (fib_hash_u64(x) >> 11) as f64 * INV_2_53
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_hash_is_in_unit_interval() {
        for x in [0u64, 1, 2, u64::MAX, u64::MAX - 1, 0xdead_beef] {
            let u = unit_hash_u64(x);
            assert!((0.0..1.0).contains(&u), "x={x} u={u}");
        }
    }

    #[test]
    fn fib_hash_u64_is_injective_on_samples() {
        let mut outs: Vec<u64> = (0u64..100_000).map(fib_hash_u64).collect();
        outs.sort_unstable();
        outs.dedup();
        assert_eq!(outs.len(), 100_000);
    }

    #[test]
    fn unit_hash_spreads_consecutive_integers() {
        // Consecutive inputs must land far apart — the whole point of
        // golden-ratio hashing. Check the minimum pairwise gap of the first
        // few mapped points is large (≈ 1/φ² spacing behaviour).
        let us: Vec<f64> = (0u64..8).map(unit_hash_u64).collect();
        for i in 0..us.len() {
            for j in (i + 1)..us.len() {
                assert!(
                    (us[i] - us[j]).abs() > 0.05,
                    "points {i},{j} too close: {} vs {}",
                    us[i],
                    us[j]
                );
            }
        }
    }

    #[test]
    fn unit_hash_is_approximately_uniform() {
        // Bucket 1M hashed integers into 64 bins; every bin should be within
        // 5% of the expected count. Fibonacci hashing of a contiguous range
        // is low-discrepancy, so this is a very safe bound.
        const N: u64 = 1_000_000;
        const BINS: usize = 64;
        let mut counts = [0u32; BINS];
        for x in 0..N {
            let u = unit_hash_u64(x);
            let b = ((u * BINS as f64) as usize).min(BINS - 1);
            counts[b] += 1;
        }
        let expected = N as f64 / BINS as f64;
        for (b, &c) in counts.iter().enumerate() {
            let rel = (f64::from(c) - expected).abs() / expected;
            assert!(rel < 0.05, "bin {b}: count {c} vs expected {expected}");
        }
    }

    #[test]
    fn unit_hash_u64_preserves_distinctness() {
        let mut us: Vec<u64> = (0u64..100_000)
            .map(|x| unit_hash_u64(x).to_bits())
            .collect();
        us.sort_unstable();
        us.dedup();
        // 53 bits of resolution over 100k samples: collisions are possible in
        // principle but astronomically unlikely.
        assert_eq!(us.len(), 100_000);
    }
}
