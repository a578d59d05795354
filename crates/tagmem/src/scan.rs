//! Portable u64-lane bitmap scan kernels.
//!
//! [`crate::TaggedMemory::fbits_clear_range`] answers one question fast:
//! "is any forwarding bit set in this word range?" — a clear range means
//! every reference into it is walk-free. These kernels answer it by scanning
//! the bitmap limbs in explicit 4-lane chunks (one cache line of `u64`s per
//! step) so the compiler vectorizes them on any stable toolchain; no
//! nightly features, no target-specific intrinsics.

/// Lanes per chunk: four `u64`s = 32 bytes, half a cache line — wide enough
/// to vectorize, small enough that tail handling stays cheap for the 8-limb
/// page bitmaps.
const LANES: usize = 4;

/// True when every limb is zero, i.e. no bit is set anywhere.
///
/// OR-reduces `LANES` limbs at a time with a scalar tail.
#[inline]
pub fn all_zero(limbs: &[u64]) -> bool {
    let mut chunks = limbs.chunks_exact(LANES);
    let mut acc = 0u64;
    for c in &mut chunks {
        acc |= c[0] | c[1] | c[2] | c[3];
    }
    for &l in chunks.remainder() {
        acc |= l;
    }
    acc == 0
}

/// Total number of set bits, `LANES` limbs at a time.
#[inline]
pub fn count_ones(limbs: &[u64]) -> u64 {
    let mut chunks = limbs.chunks_exact(LANES);
    let mut acc = 0u64;
    for c in &mut chunks {
        acc += u64::from(c[0].count_ones())
            + u64::from(c[1].count_ones())
            + u64::from(c[2].count_ones())
            + u64::from(c[3].count_ones());
    }
    for &l in chunks.remainder() {
        acc += u64::from(l.count_ones());
    }
    acc
}

/// True when none of the `n_bits` bits starting at bit index `b0` are set.
///
/// Bits are LSB-first within each limb. The first and last limbs of the
/// range are masked; whole limbs in between go through [`all_zero`].
#[inline]
pub fn bits_none_in(limbs: &[u64], b0: usize, n_bits: usize) -> bool {
    if n_bits == 0 {
        return true;
    }
    let last = b0 + n_bits - 1;
    debug_assert!(last / 64 < limbs.len(), "bit range exceeds bitmap");
    let (first_limb, last_limb) = (b0 / 64, last / 64);
    let lo_mask = !0u64 << (b0 % 64);
    let hi_mask = !0u64 >> (63 - last % 64);
    if first_limb == last_limb {
        return limbs[first_limb] & lo_mask & hi_mask == 0;
    }
    if limbs[first_limb] & lo_mask != 0 || limbs[last_limb] & hi_mask != 0 {
        return false;
    }
    all_zero(&limbs[first_limb + 1..last_limb])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_zero_detects_any_bit() {
        assert!(all_zero(&[]));
        assert!(all_zero(&[0; 11]));
        for i in 0..11 {
            let mut v = [0u64; 11];
            v[i] = 1 << (i * 5 % 64);
            assert!(!all_zero(&v), "limb {i}");
        }
    }

    #[test]
    fn count_matches_reference() {
        let v: Vec<u64> = (0..13u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        let want: u64 = v.iter().map(|l| u64::from(l.count_ones())).sum();
        assert_eq!(count_ones(&v), want);
    }

    #[test]
    fn range_scan_masks_ends() {
        let mut v = [0u64; 8];
        v[2] = 1 << 63; // bit 191
        assert!(bits_none_in(&v, 0, 191));
        assert!(!bits_none_in(&v, 0, 192));
        assert!(!bits_none_in(&v, 191, 1));
        assert!(bits_none_in(&v, 192, 8 * 64 - 192));
        assert!(bits_none_in(&v, 191, 0), "empty range");
    }

    #[test]
    fn range_scan_within_one_limb() {
        let v = [0b0110_0000u64, 0];
        assert!(bits_none_in(&v, 0, 5));
        assert!(!bits_none_in(&v, 5, 1));
        assert!(!bits_none_in(&v, 4, 3));
        assert!(bits_none_in(&v, 7, 64));
    }

    #[test]
    fn exhaustive_against_naive() {
        let limbs = [0xDEAD_BEEF_0123_4567u64, 0, 0xFFFF_0000_0000_0001];
        let bit = |b: usize| limbs[b / 64] >> (b % 64) & 1 == 1;
        for b0 in 0..192 {
            for n in 0..(192 - b0) {
                let want = (b0..b0 + n).all(|b| !bit(b));
                assert_eq!(bits_none_in(&limbs, b0, n), want, "b0={b0} n={n}");
            }
        }
    }
}
