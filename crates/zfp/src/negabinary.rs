//! Two's-complement ↔ negabinary conversion.
//!
//! The embedded coder transmits bit planes from most to least significant.
//! Two's-complement is unsuitable: small negative numbers have *all* high
//! bits set. Negabinary (base −2) gives small magnitudes small codes
//! regardless of sign, so high bit planes of near-zero coefficients are
//! zero and run-length encode almost for free.

/// Mask of alternating ones used by the O(1) conversion.
const NBMASK: u64 = 0xAAAA_AAAA_AAAA_AAAA;

/// Convert signed to negabinary.
#[inline]
pub fn encode(x: i64) -> u64 {
    ((x as u64).wrapping_add(NBMASK)) ^ NBMASK
}

/// Convert negabinary back to signed.
#[inline]
pub fn decode(x: u64) -> i64 {
    (x ^ NBMASK).wrapping_sub(NBMASK) as i64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_maps_to_zero() {
        assert_eq!(encode(0), 0);
        assert_eq!(decode(0), 0);
    }

    #[test]
    fn small_values_roundtrip() {
        for x in -1000i64..=1000 {
            assert_eq!(decode(encode(x)), x, "x={x}");
        }
    }

    #[test]
    fn known_negabinary_codes() {
        // 1 = 1, −1 = 11 (−2+1... base −2: 11 = −2+1 = −1), 2 = 110, −2 = 10.
        assert_eq!(encode(1), 0b1);
        assert_eq!(encode(-1), 0b11);
        assert_eq!(encode(2), 0b110);
        assert_eq!(encode(-2), 0b10);
        assert_eq!(encode(3), 0b111);
    }

    #[test]
    fn magnitude_controls_code_width() {
        // |x| < 2^k ⟹ negabinary fits in k+2 bits (negatives need one
        // extra digit in base −2): high planes are zero.
        for k in 1..40u32 {
            let x = (1i64 << k) - 1;
            for v in [x, -x] {
                let nb = encode(v);
                assert!(
                    64 - nb.leading_zeros() <= k + 2,
                    "v={v} nb width {}",
                    64 - nb.leading_zeros()
                );
            }
        }
    }

    #[test]
    fn large_values_roundtrip() {
        for &x in &[i64::MAX / 4, -(i64::MAX / 4), 1 << 40, -(1 << 40)] {
            assert_eq!(decode(encode(x)), x);
        }
    }
}
