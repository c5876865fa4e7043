//! Element-type abstraction for the ZFP codec: `f32` and `f64` fields.
//!
//! The two types differ only in their fixed-point width: `f32` keeps
//! Q = 30 fraction bits (the reference codec's choice), `f64` keeps
//! Q = 52. Both fit the transform's worst-case 3-bit gain plus the
//! negabinary sign bit inside an `i64`/`u64`.

/// A floating-point element type the codec can compress.
pub trait ZfpElement: Copy + PartialEq + std::fmt::Debug + Send + Sync + 'static {
    /// Format tag stored in the stream header.
    const TYPE_TAG: u8;
    /// Fraction bits of the block fixed-point representation.
    const Q: i32;
    /// Bit planes coded per block (`Q + 5`: 3 bits of transform headroom,
    /// 1 negabinary bit, 1 spare).
    const INTPREC: u32;
    /// Bits used to store a block exponent.
    const EMAX_BITS: usize;
    /// Exponent bias covering the type's full range including subnormals.
    const EMAX_BIAS: i32;
    /// Widen to f64 (exact for both supported types).
    fn to_f64(self) -> f64;
    /// Narrow from f64.
    fn from_f64(v: f64) -> Self;
}

impl ZfpElement for f32 {
    const TYPE_TAG: u8 = 0;
    const Q: i32 = 30;
    const INTPREC: u32 = 35;
    const EMAX_BITS: usize = 9;
    const EMAX_BIAS: i32 = 200;

    #[inline]
    fn to_f64(self) -> f64 {
        self as f64
    }

    #[inline]
    fn from_f64(v: f64) -> Self {
        v as f32
    }
}

impl ZfpElement for f64 {
    const TYPE_TAG: u8 = 1;
    const Q: i32 = 52;
    const INTPREC: u32 = 57;
    const EMAX_BITS: usize = 12;
    const EMAX_BIAS: i32 = 1200;

    #[inline]
    fn to_f64(self) -> f64 {
        self
    }

    #[inline]
    fn from_f64(v: f64) -> Self {
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headroom_fits_in_64_bits() {
        // Q + 3 bits of transform gain + 1 negabinary bit must stay < 63.
        const { assert!(<f32 as ZfpElement>::Q + 4 < 63) };
        const { assert!(<f64 as ZfpElement>::Q + 4 < 63) };
        assert_eq!(<f32 as ZfpElement>::INTPREC, 35);
        assert_eq!(<f64 as ZfpElement>::INTPREC, 57);
    }

    #[test]
    fn exponent_fields_cover_type_ranges() {
        // f32 exponents range ~[-148, 128]; 9 bits biased by 200 → [-200, 311].
        const { assert!(1 << <f32 as ZfpElement>::EMAX_BITS > 128 + 200) };
        // f64 exponents range ~[-1074, 1024]; 12 bits biased by 1200 → [-1200, 2895].
        const { assert!(1 << <f64 as ZfpElement>::EMAX_BITS > 1024 + 1200) };
    }

    #[test]
    fn tags_are_distinct() {
        assert_ne!(<f32 as ZfpElement>::TYPE_TAG, <f64 as ZfpElement>::TYPE_TAG);
    }
}
