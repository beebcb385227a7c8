//! From-scratch implementation of MurmurHash3 (Austin Appleby, public
//! domain), the key-identifier hash `h` of the paper (Section 3.4).
//!
//! Only the 128-bit x64 variant is provided: the key identifier `h(k)` of
//! [`crate::key::TupleHasher`] is its low 64 bits, not the paper's 32-bit
//! MurmurHash3, because 32-bit identifiers collide from ~65k distinct
//! keys on (the birthday bound) and a collision merges two keys' values,
//! while a sketch entry stores a `u64` identifier either way.
//! It is verified against reference vectors from the C++ implementation
//! (see the tests at the bottom of this module).

/// 64-bit finalization mix ("fmix64") of MurmurHash3.
#[inline]
#[must_use]
pub const fn fmix64(mut k: u64) -> u64 {
    k ^= k >> 33;
    k = k.wrapping_mul(0xff51_afd7_ed55_8ccd);
    k ^= k >> 33;
    k = k.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    k ^= k >> 33;
    k
}

/// The two little-endian `u64` lanes of a 16-byte block.
#[inline]
fn le_lanes(block: &[u8]) -> (u64, u64) {
    let (lo, hi) = block.split_at(8);
    (
        u64::from_le_bytes(lo.try_into().expect("8-byte lane")),
        u64::from_le_bytes(hi.try_into().expect("8-byte lane")),
    )
}

/// MurmurHash3_x64_128: hashes `data` with the given `seed` into 128 bits,
/// returned as `(low64, high64)` matching the reference output order
/// `(h1, h2)`.
#[must_use]
pub fn murmur3_x64_128(data: &[u8], seed: u64) -> (u64, u64) {
    const C1: u64 = 0x87c3_7b91_1142_53d5;
    const C2: u64 = 0x4cf5_ad43_2745_937f;

    let mut h1 = seed;
    let mut h2 = seed;

    // Body: process 16-byte blocks as two u64 lanes.
    let mut blocks = data.chunks_exact(16);
    for block in &mut blocks {
        let (mut k1, mut k2) = le_lanes(block);

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

    // Tail: up to 15 remaining bytes, read as the two lanes of a
    // zero-padded block (the reference's byte-by-byte switch XORs each
    // byte into the same position, over zeros).
    let tail = blocks.remainder();
    let mut padded = [0u8; 16];
    padded[..tail.len()].copy_from_slice(tail);
    let (mut k1, mut k2) = le_lanes(&padded);
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

    // Finalization.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn x64_128_empty_seed_zero_is_zero() {
        assert_eq!(murmur3_x64_128(b"", 0), (0, 0));
    }

    #[test]
    fn x64_128_reference_vectors() {
        // Vectors cross-checked against the C++ reference implementation.
        assert_eq!(
            murmur3_x64_128(b"hello", 0),
            (0xcbd8_a7b3_41bd_9b02, 0x5b1e_906a_48ae_1d19)
        );
        assert_eq!(
            murmur3_x64_128(b"hello, world", 0),
            (0x342f_ac62_3a5e_bc8e, 0x4cdc_bc07_9642_414d)
        );
        assert_eq!(
            murmur3_x64_128(b"The quick brown fox jumps over the lazy dog", 0),
            (0xe34b_bc7b_bc07_1b6c, 0x7a43_3ca9_c49a_9347)
        );
    }

    #[test]
    fn x64_128_seed_changes_output() {
        let a = murmur3_x64_128(b"correlation", 1);
        let b = murmur3_x64_128(b"correlation", 2);
        assert_ne!(a, b);
    }

    #[test]
    fn x64_128_all_tail_lengths_are_deterministic() {
        let data = b"abcdefghijklmnopqrstuvwxyz0123456789";
        for len in 0..=data.len() {
            let h1 = murmur3_x64_128(&data[..len], 42);
            let h2 = murmur3_x64_128(&data[..len], 42);
            assert_eq!(h1, h2, "len={len}");
        }
    }

    #[test]
    fn fmix64_is_a_bijection_on_samples() {
        // fmix64 is invertible; sampled values must therefore be distinct.
        let mut outs: Vec<u64> = (0u64..10_000).map(fmix64).collect();
        outs.sort_unstable();
        outs.dedup();
        assert_eq!(outs.len(), 10_000);
    }
}
