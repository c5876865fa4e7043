//! Block-floating-point conversion.
//!
//! Each ZFP block is normalized to a common exponent (the largest exponent
//! in the block) and converted to signed fixed-point integers with `Q`
//! fraction bits. We keep the integers in `i64` with generous headroom so
//! the decorrelating transform can never overflow, trading a little memory
//! for provable safety (the reference implementation uses `int32` with
//! carefully counted guard bits). The fraction width is per element type
//! ([`ZfpElement::Q`]); the constants below are the `f32` instance.

use crate::element::ZfpElement;

/// Fraction bits of the fixed-point representation.
pub const Q: i32 = 30;

/// Number of bit planes coded per block: |i| ≤ 2^Q before the transform and
/// the transform's worst-case gain is < 2^3 for 3-D, so negabinary values
/// fit comfortably in `Q + 5` bits.
pub const INTPREC: u32 = (Q + 5) as u32;

/// `2^n`, bit for bit what `2f64.powi(n)` returns. While the power is a
/// normal `f64` that is the exponent field set directly; outside that
/// range `powi` does not return the power (below `2^-1022` it yields 0
/// where a subnormal exists), so there the call itself is kept. Tested
/// equal for every exponent either element type's stream field can carry.
#[inline]
fn exp2i(n: i32) -> f64 {
    if (-1022..=1023).contains(&n) {
        f64::from_bits(((n + 1023) as u64) << 52)
    } else {
        (2.0f64).powi(n)
    }
}

/// Exponent (base-2) of the largest magnitude in the block, as used for the
/// common scale factor; 0 magnitude blocks return `None`.
///
/// The exponent is `floor(log2(max)) + 1`. `log2` rounds up to the next
/// integer just below a power of two (`(2 − 2⁻⁵²)·2¹⁰` gives 12, not 11),
/// and that result is in the streams, so only a mantissa too far from 2
/// for any rounding to reach it (one of its top 23 bits clear, which
/// leaves `log2` at least `2⁻²⁴` short of the integer) takes the exponent
/// field; the rest, and subnormals, take the `log2` call. Every `f32`
/// value but the all-ones mantissa is on the integer side.
pub fn block_exponent<T: ZfpElement, const N: usize>(block: &[T; N]) -> Option<i32> {
    let mut max = 0.0f64;
    for &v in block {
        let a = v.to_f64().abs();
        if a.is_finite() && a > max {
            max = a;
        }
    }
    if max == 0.0 {
        return None;
    }
    // frexp-style exponent: max = m · 2^e with m ∈ [0.5, 1).
    let bits = max.to_bits();
    let field = (bits >> 52) as i32;
    const TOP23: u64 = 0x7F_FFFF << 29;
    Some(if field == 0 || bits & TOP23 == TOP23 {
        max.log2().floor() as i32 + 1
    } else {
        field - 1022
    })
}

/// Scale a block to fixed point given its common exponent.
#[inline]
pub fn forward<T: ZfpElement, const N: usize>(block: &[T; N], emax: i32, out: &mut [i64; N]) {
    let q = T::Q;
    let scale = exp2i(q - emax);
    for (o, &v) in out.iter_mut().zip(block) {
        let v = v.to_f64();
        let x = if v.is_finite() { v * scale } else { 0.0 };
        // Round half away from zero, equivalent to `x.round() as i64` but
        // without the libm call: truncate (saturating), then bump by one
        // when the discarded fraction reaches one half. Exact for every
        // finite x — |x| ≥ 2^53 has no fraction, and saturated values are
        // pulled back by the clamp below.
        let t = x as i64;
        let frac = x - t as f64;
        let r = t + (frac >= 0.5) as i64 - (frac <= -0.5) as i64;
        // Clamp pathological values (|v| slightly above 2^emax after
        // rounding) into range.
        *o = r.clamp(-(1i64 << q), 1i64 << q);
    }
}

/// Undo [`forward`].
#[inline]
pub fn inverse<T: ZfpElement, const N: usize>(ints: &[i64; N], emax: i32, out: &mut [T; N]) {
    let scale = exp2i(emax - T::Q);
    for (o, &i) in out.iter_mut().zip(ints) {
        *o = T::from_f64(i as f64 * scale);
    }
}

/// The slice forms the array kernels above replaced, with the shipped
/// `log2` and `powi` calls per block: the executable specification of the
/// exponent and the scale.
#[cfg(test)]
pub(crate) mod reference {
    use crate::element::ZfpElement;

    pub(crate) fn block_exponent<T: ZfpElement>(block: &[T]) -> Option<i32> {
        let mut max = 0.0f64;
        for &v in block {
            let a = v.to_f64().abs();
            if a.is_finite() && a > max {
                max = a;
            }
        }
        if max == 0.0 {
            None
        } else {
            Some(max.log2().floor() as i32 + 1)
        }
    }

    pub(crate) fn forward<T: ZfpElement>(block: &[T], emax: i32, out: &mut [i64]) {
        let q = T::Q;
        let scale = (2.0f64).powi(q - emax);
        for (o, &v) in out.iter_mut().zip(block) {
            let v = v.to_f64();
            let x = if v.is_finite() { v * scale } else { 0.0 };
            let t = x as i64;
            let frac = x - t as f64;
            let r = t + (frac >= 0.5) as i64 - (frac <= -0.5) as i64;
            *o = r.clamp(-(1i64 << q), 1i64 << q);
        }
    }

    pub(crate) fn inverse<T: ZfpElement>(ints: &[i64], emax: i32, out: &mut [T]) {
        let scale = (2.0f64).powi(emax - T::Q);
        for (o, &i) in out.iter_mut().zip(ints) {
            *o = T::from_f64(i as f64 * scale);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exponent_of_unit_block() {
        // max = 1.0 = 0.5·2^1 → emax = 1
        assert_eq!(block_exponent(&[0.25f32, -1.0, 0.5, 0.0]), Some(1));
    }

    #[test]
    fn exponent_of_zero_block() {
        assert_eq!(block_exponent(&[0.0f32, -0.0]), None);
    }

    #[test]
    fn exponent_ignores_non_finite() {
        assert_eq!(block_exponent(&[f32::NAN, 2.0, f32::INFINITY, 0.0]), Some(2));
    }

    #[test]
    fn forward_inverse_accuracy() {
        let block = [0.7f32, -0.33, 0.001, -0.9999];
        let emax = block_exponent(&block).unwrap();
        let mut ints = [0i64; 4];
        forward(&block, emax, &mut ints);
        let mut rec = [0.0f32; 4];
        inverse(&ints, emax, &mut rec);
        for (a, b) in block.iter().zip(&rec) {
            // Quantization error ≤ 2^(emax−Q−1).
            let tol = (2.0f64).powi(emax - Q - 1) * 1.01;
            assert!((*a as f64 - *b as f64).abs() <= tol, "{a} vs {b}");
        }
    }

    #[test]
    fn forward_respects_q_range() {
        let block = [1.0f32, -1.0, 0.5, 0.25];
        let emax = block_exponent(&block).unwrap();
        let mut ints = [0i64; 4];
        forward(&block, emax, &mut ints);
        for i in ints {
            assert!(i.abs() <= 1i64 << Q);
        }
    }

    #[test]
    fn large_magnitudes_scale_correctly() {
        let block = [3.0e30f32, -1.5e30, 0.0, 2.9e30];
        let emax = block_exponent(&block).unwrap();
        let mut ints = [0i64; 4];
        forward(&block, emax, &mut ints);
        let mut rec = [0.0f32; 4];
        inverse(&ints, emax, &mut rec);
        for (a, b) in block.iter().zip(&rec) {
            let rel = if *a == 0.0 { (*b).abs() as f64 } else { ((a - b) / a).abs() as f64 };
            assert!(rel < 1e-6, "{a} vs {b}");
        }
    }

    /// Every exponent the two stream fields can carry, both directions:
    /// the scale is what `powi` returned, including where that is 0 or ∞.
    #[test]
    fn scale_matches_powi_for_every_field_exponent() {
        fn check<T: ZfpElement>() {
            for field in 0..1i32 << T::EMAX_BITS {
                let emax = field - T::EMAX_BIAS;
                for n in [T::Q - emax, emax - T::Q] {
                    assert_eq!(exp2i(n).to_bits(), (2.0f64).powi(n).to_bits(), "2^{n}");
                }
            }
        }
        check::<f32>();
        check::<f64>();
    }

    /// Mantissas at the edges of a binade: the power of two, one and two
    /// ulps either side of it, the middle, and both sides of the point
    /// where `block_exponent` stops trusting the exponent field.
    fn edge_mantissas(bits: u32) -> Vec<u64> {
        let ones = (1u64 << bits) - 1;
        let low = (1u64 << (bits - 23)) - 1;
        vec![0, 1, 2, 1 << (bits - 1), ones ^ (low + 1), ones ^ low, ones - 1, ones]
    }

    #[test]
    fn exponent_matches_log2_for_every_f32_binade() {
        // Biased exponent 0 is the subnormals, 254 the last finite binade.
        for exp in 0..255u32 {
            for m in edge_mantissas(23) {
                let v = f32::from_bits(exp << 23 | m as u32);
                let block = [0.0, -v, v * 0.5, f32::NAN];
                assert_eq!(block_exponent(&block), reference::block_exponent(&block), "{v:e}");
            }
        }
    }

    #[test]
    fn exponent_matches_log2_either_side_of_every_f64_power_of_two() {
        for exp in 0..2047u64 {
            for m in edge_mantissas(52) {
                let v = f64::from_bits(exp << 52 | m);
                let block = [v, f64::INFINITY, -v * 0.25, 0.0];
                assert_eq!(block_exponent(&block), reference::block_exponent(&block), "{v:e}");
            }
        }
    }

    #[test]
    fn array_kernels_match_the_slice_forms() {
        let mut s = 0x1234_5678_9abc_def1u64;
        for case in 0..2000 {
            let mut block = [0.0f64; 16];
            for v in block.iter_mut() {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                // Spread over the whole exponent range now and then.
                *v = if case % 3 == 0 { f64::from_bits(s) } else { (s >> 11) as f64 / 1e12 - 4e3 };
            }
            let narrow = block.map(|v| v as f32);
            let Some(emax) = reference::block_exponent(&block) else { continue };
            let (mut ints, mut want) = ([0i64; 16], [0i64; 16]);
            reference::forward(&block, emax, &mut want);
            forward(&block, emax, &mut ints);
            assert_eq!(ints, want);
            let (mut got, mut back) = ([0.0f64; 16], [0.0f64; 16]);
            reference::inverse(&ints, emax, &mut back);
            inverse(&ints, emax, &mut got);
            assert_eq!(got.map(f64::to_bits), back.map(f64::to_bits));
            let Some(emax) = reference::block_exponent(&narrow) else { continue };
            reference::forward(&narrow, emax, &mut want);
            forward(&narrow, emax, &mut ints);
            assert_eq!(ints, want);
            let (mut got, mut back) = ([0.0f32; 16], [0.0f32; 16]);
            reference::inverse(&ints, emax, &mut back);
            inverse(&ints, emax, &mut got);
            assert_eq!(got.map(f32::to_bits), back.map(f32::to_bits));
        }
    }
}
