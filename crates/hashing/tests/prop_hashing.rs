//! Property-based tests for the hash substrate.

use proptest::prelude::*;
use sketch_hashing::{fib_hash_u64, murmur3_x64_128, unit_hash_u64, KeyHasher, TupleHasher};

proptest! {
    /// Appending a byte changes the hash (no trivial prefix collisions).
    #[test]
    fn extension_changes_hash(data in proptest::collection::vec(any::<u8>(), 0..128), byte in any::<u8>()) {
        let mut extended = data.clone();
        extended.push(byte);
        prop_assert_ne!(murmur3_x64_128(&data, 0), murmur3_x64_128(&extended, 0));
    }

    /// Single-bit flips flip roughly half the output bits (avalanche).
    #[test]
    fn avalanche_on_bit_flip(data in proptest::collection::vec(any::<u8>(), 1..64), bit in 0usize..8, idx_seed in any::<u64>()) {
        let idx = (idx_seed as usize) % data.len();
        let mut flipped = data.clone();
        flipped[idx] ^= 1 << bit;
        let a = murmur3_x64_128(&data, 0).0;
        let b = murmur3_x64_128(&flipped, 0).0;
        let diff = (a ^ b).count_ones();
        // Expect ~32 differing bits of the identifier word; demand at
        // least 8 (p(<8) < 1e-8).
        prop_assert!(diff >= 8, "only {diff} bits differ");
    }

    /// The unit hash always lies in [0, 1).
    #[test]
    fn unit_hash_in_range(x in any::<u64>()) {
        let u = unit_hash_u64(x);
        prop_assert!((0.0..1.0).contains(&u));
    }

    /// Fibonacci hashing is injective (it is an odd multiplier mod 2^64).
    #[test]
    fn fib_hash_injective(a in any::<u64>(), b in any::<u64>()) {
        prop_assume!(a != b);
        prop_assert_ne!(fib_hash_u64(a), fib_hash_u64(b));
    }

    /// g(k) is consistent across hasher instances with the same config
    /// and inconsistent across seeds.
    #[test]
    fn tuple_hasher_config_determinism(key in proptest::collection::vec(any::<u8>(), 1..64), seed in any::<u64>()) {
        let a = TupleHasher::new_64(seed);
        let b = TupleHasher::new_64(seed);
        prop_assert_eq!(a.g(&key), b.g(&key));
        let c = TupleHasher::new_64(seed.wrapping_add(1));
        prop_assert_ne!(a.hash_bytes(&key), c.hash_bytes(&key));
    }
}
