//! Composition of the two hash functions into the tuple-identifier scheme
//! used by sketch construction: `g(k) = h_u(h(k))`.
//!
//! [`TupleHasher`] bundles a MurmurHash3 key hash `h` (32- or 64-bit) with
//! the Fibonacci unit-interval hash `h_u`. Every sketch in a corpus must be
//! built with the *same* `TupleHasher` configuration — otherwise sketches
//! are not joinable (the key identifiers would disagree). The configuration
//! is therefore serializable and carries an explicit seed.

use crate::fibonacci::{unit_hash_u32, unit_hash_u64};
use crate::murmur3::{murmur3_x64_128, murmur3_x86_32};

/// Width of the key-identifier hash `h`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum HashBits {
    /// 32-bit MurmurHash3 (`murmur3_x86_32`) — the paper's configuration.
    ///
    /// Collisions start to matter beyond ~65k distinct keys per corpus
    /// (birthday bound), exactly as in the reference implementation.
    B32,
    /// 64-bit identifiers (low word of `murmur3_x64_128`) — the default.
    #[default]
    B64,
}

/// A hashed key: the tuple identifier `h(k)` stored inside a sketch.
///
/// Stored as `u64` regardless of [`HashBits`]; in 32-bit mode the upper
/// word is zero so identifiers from the two modes never mix silently.
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

/// The concrete hasher configuration used across a sketch corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TupleHasher {
    bits: HashBits,
    seed: u64,
}

impl Default for TupleHasher {
    fn default() -> Self {
        Self::new_64(0)
    }
}

impl TupleHasher {
    /// 64-bit configuration (recommended): `h` = low word of
    /// `murmur3_x64_128`, `h_u` = 64-bit Fibonacci hashing.
    #[must_use]
    pub const fn new_64(seed: u64) -> Self {
        Self {
            bits: HashBits::B64,
            seed,
        }
    }

    /// The paper's configuration: `h` = `murmur3_x86_32`, `h_u` = 32-bit
    /// Fibonacci hashing.
    #[must_use]
    pub const fn paper_32(seed: u32) -> Self {
        Self {
            bits: HashBits::B32,
            seed: seed as u64,
        }
    }

    /// Hash width of this configuration.
    #[must_use]
    pub const fn bits(&self) -> HashBits {
        self.bits
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
        match self.bits {
            HashBits::B32 => KeyHash(u64::from(murmur3_x86_32(key, self.seed as u32))),
            HashBits::B64 => KeyHash(murmur3_x64_128(key, self.seed).0),
        }
    }

    #[inline]
    fn unit_hash(&self, id: KeyHash) -> f64 {
        match self.bits {
            HashBits::B32 => unit_hash_u32(id.0 as u32),
            HashBits::B64 => unit_hash_u64(id.0),
        }
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
    fn paper_mode_uses_32_bits() {
        let h = TupleHasher::paper_32(0);
        let id = h.hash_bytes(b"zip-10001");
        assert!(id.0 <= u64::from(u32::MAX));
        let u = h.unit_hash(id);
        assert!((0.0..1.0).contains(&u));
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
