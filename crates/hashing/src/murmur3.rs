//! From-scratch implementation of MurmurHash3 (Austin Appleby, public
//! domain), the key-identifier hash `h` of the paper (Section 3.4).
//!
//! Two variants are provided:
//!
//! * [`murmur3_x86_32`] — the 32-bit variant used by the paper's reference
//!   implementation.
//! * [`murmur3_x64_128`] — the 128-bit x64 variant; its low 64 bits are used
//!   by [`crate::key::KeyHasher`] when 64-bit identifiers are requested.
//!
//! Both are verified against the reference test vectors from the original
//! `smhasher` suite (see the tests at the bottom of this module).

/// 32-bit finalization mix ("fmix32") of MurmurHash3.
///
/// Forces all bits of a hash block to avalanche; also useful standalone as a
/// fast high-quality integer mixer.
#[inline]
#[must_use]
pub const fn fmix32(mut h: u32) -> u32 {
    h ^= h >> 16;
    h = h.wrapping_mul(0x85eb_ca6b);
    h ^= h >> 13;
    h = h.wrapping_mul(0xc2b2_ae35);
    h ^= h >> 16;
    h
}

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

/// MurmurHash3_x86_32: hashes `data` with the given `seed` into 32 bits.
///
/// This is the exact function the paper uses for `h` ("the well-known
/// 32-bits MurmurHash3 function", Section 3.4).
#[must_use]
pub fn murmur3_x86_32(data: &[u8], seed: u32) -> u32 {
    const C1: u32 = 0xcc9e_2d51;
    const C2: u32 = 0x1b87_3593;

    let mut h1 = seed;
    let n_blocks = data.len() / 4;

    // Body: process 4-byte blocks.
    for block in data.chunks_exact(4) {
        let mut k1 = u32::from_le_bytes([block[0], block[1], block[2], block[3]]);
        k1 = k1.wrapping_mul(C1);
        k1 = k1.rotate_left(15);
        k1 = k1.wrapping_mul(C2);

        h1 ^= k1;
        h1 = h1.rotate_left(13);
        h1 = h1.wrapping_mul(5).wrapping_add(0xe654_6b64);
    }

    // Tail: up to 3 remaining bytes.
    let tail = &data[n_blocks * 4..];
    let mut k1: u32 = 0;
    if !tail.is_empty() {
        if tail.len() >= 3 {
            k1 ^= u32::from(tail[2]) << 16;
        }
        if tail.len() >= 2 {
            k1 ^= u32::from(tail[1]) << 8;
        }
        k1 ^= u32::from(tail[0]);
        k1 = k1.wrapping_mul(C1);
        k1 = k1.rotate_left(15);
        k1 = k1.wrapping_mul(C2);
        h1 ^= k1;
    }

    // Finalization.
    h1 ^= data.len() as u32;
    fmix32(h1)
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

    // Reference vectors from the original MurmurHash3 (smhasher) suite and
    // the widely-cited Wikipedia table.
    #[test]
    fn x86_32_reference_vectors_seed_zero() {
        assert_eq!(murmur3_x86_32(b"", 0), 0x0000_0000);
        assert_eq!(murmur3_x86_32(b"", 1), 0x514e_28b7);
        assert_eq!(murmur3_x86_32(b"", 0xffff_ffff), 0x81f1_6f39);
    }

    #[test]
    fn x86_32_reference_vectors_seed_9747b28c() {
        let seed = 0x9747_b28c;
        assert_eq!(murmur3_x86_32(b"aaaa", seed), 0x5a97_808a);
        assert_eq!(murmur3_x86_32(b"aaa", seed), 0x283e_0130);
        assert_eq!(murmur3_x86_32(b"aa", seed), 0x5d21_1726);
        assert_eq!(murmur3_x86_32(b"a", seed), 0x7fa0_9ea6);
        assert_eq!(murmur3_x86_32(b"abcd", seed), 0xf047_8627);
        assert_eq!(murmur3_x86_32(b"abc", seed), 0xc84a_62dd);
        assert_eq!(murmur3_x86_32(b"ab", seed), 0x7487_5592);
        assert_eq!(murmur3_x86_32(b"Hello, world!", seed), 0x2488_4cba);
        assert_eq!(
            murmur3_x86_32(b"The quick brown fox jumps over the lazy dog", seed),
            0x2fa8_26cd
        );
    }

    #[test]
    fn x86_32_four_zero_bytes() {
        assert_eq!(murmur3_x86_32(&[0, 0, 0, 0], 0), 0x2362_f9de);
    }

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
    fn x86_32_all_tail_lengths_are_deterministic() {
        // Exercise every tail length (0..=3 residual bytes).
        let data = b"abcdefghijk";
        for len in 0..=data.len() {
            let h1 = murmur3_x86_32(&data[..len], 42);
            let h2 = murmur3_x86_32(&data[..len], 42);
            assert_eq!(h1, h2, "len={len}");
        }
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

    #[test]
    fn fmix32_zero_maps_to_zero() {
        assert_eq!(fmix32(0), 0);
        assert_eq!(fmix64(0), 0);
    }
}
