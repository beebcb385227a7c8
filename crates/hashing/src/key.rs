//! Composition of the two hash functions into the tuple-identifier scheme
//! used by sketch construction: `g(k) = h_u(h(k))`.
//!
//! [`TupleHasher`] bundles the 64-bit MurmurHash3 key hash `h` with the
//! Fibonacci unit-interval hash `h_u`. Every sketch in a corpus must be
//! built with the *same* `TupleHasher` seed — otherwise sketches are not
//! joinable (the key identifiers would disagree). The seed is therefore
//! serialized with every sketch.

use crate::fibonacci::unit_hash_u64;
use crate::murmur3::murmur3_x64_128;

/// A hashed key: the tuple identifier `h(k)` stored inside a sketch, the
/// low 64 bits of `murmur3_x64_128` (see [`crate::murmur3`] for why not
/// the paper's 32-bit hash).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KeyHash(pub u64);

// The order of the `u64`, written out: a derived `PartialOrd` calls
// `partial_cmp`, which the workspace lints refuse (R2).
impl Ord for KeyHash {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.cmp(&other.0)
    }
}

impl PartialOrd for KeyHash {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl KeyHash {
    /// Raw identifier value.
    #[inline]
    #[must_use]
    pub const fn value(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for KeyHash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Anything that can hash raw key bytes to a [`KeyHash`].
///
/// Abstracting over this lets tests substitute adversarial or weak hashers
/// (e.g. the identity hash) to demonstrate how sketch quality depends on
/// hash quality.
pub trait KeyHasher {
    /// Hash raw key bytes into a tuple identifier.
    fn hash_bytes(&self, key: &[u8]) -> KeyHash;

    /// Map a tuple identifier into the unit interval (`h_u`).
    fn unit_hash(&self, id: KeyHash) -> f64;

    /// The full composition `g(k) = h_u(h(k))`, returning both the
    /// identifier and its unit-interval position.
    fn g(&self, key: &[u8]) -> (KeyHash, f64) {
        let id = self.hash_bytes(key);
        (id, self.unit_hash(id))
    }
}

/// The concrete hasher configuration used across a sketch corpus: the
/// seed of `h`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TupleHasher {
    seed: u64,
}

impl Default for TupleHasher {
    fn default() -> Self {
        Self::new_64(0)
    }
}

impl TupleHasher {
    /// `h` = low word of `murmur3_x64_128` under `seed`, `h_u` = 64-bit
    /// Fibonacci hashing.
    #[must_use]
    pub const fn new_64(seed: u64) -> Self {
        Self { seed }
    }

    /// Seed of this configuration.
    #[must_use]
    pub const fn seed(&self) -> u64 {
        self.seed
    }
}

impl KeyHasher for TupleHasher {
    #[inline]
    fn hash_bytes(&self, key: &[u8]) -> KeyHash {
        KeyHash(murmur3_x64_128(key, self.seed).0)
    }

    #[inline]
    fn unit_hash(&self, id: KeyHash) -> f64 {
        unit_hash_u64(id.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[expect(clippy::disallowed_methods, reason = "checks partial_cmp itself")]
    fn key_hash_orders_as_its_u64() {
        let values = [0, 1, (1 << 32) - 1, 1 << 32, 1 << 63, u64::MAX];
        for a in values {
            for b in values {
                let (ka, kb) = (KeyHash(a), KeyHash(b));
                assert_eq!(ka.cmp(&kb), a.cmp(&b), "{a} vs {b}");
                assert_eq!(ka.partial_cmp(&kb), Some(ka.cmp(&kb)), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn same_key_same_hash_across_instances() {
        let a = TupleHasher::new_64(7);
        let b = TupleHasher::new_64(7);
        assert_eq!(a.hash_bytes(b"2021-01"), b.hash_bytes(b"2021-01"));
        assert_eq!(a.g(b"2021-01"), b.g(b"2021-01"));
    }

    #[test]
    fn different_seeds_disagree() {
        let a = TupleHasher::new_64(1);
        let b = TupleHasher::new_64(2);
        assert_ne!(a.hash_bytes(b"key"), b.hash_bytes(b"key"));
    }

    #[test]
    fn g_is_consistent_with_parts() {
        let h = TupleHasher::new_64(3);
        let (id, u) = h.g(b"station-42");
        assert_eq!(id, h.hash_bytes(b"station-42"));
        assert!((u - h.unit_hash(id)).abs() == 0.0);
    }

    #[test]
    fn display_is_fixed_width_hex() {
        assert_eq!(format!("{}", KeyHash(0xabc)), "0000000000000abc");
    }

    #[test]
    fn distinct_keys_rarely_collide_in_64_bit_mode() {
        let h = TupleHasher::new_64(0);
        let mut ids: Vec<u64> = (0..200_000u32)
            .map(|i| h.hash_bytes(format!("key-{i}").as_bytes()).0)
            .collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 200_000);
    }
}
