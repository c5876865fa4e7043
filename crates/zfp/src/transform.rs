//! ZFP's decorrelating transform.
//!
//! A non-orthogonal, lifted approximation of the DCT applied independently
//! along each axis of the 4^d block. The lifting form is exactly
//! invertible in integer arithmetic — the inverse applies the steps in
//! reverse — and each step's right-shift keeps the dynamic range bounded.
//!
//! Forward transform of a length-4 lane `(x, y, z, w)` (from the ZFP
//! specification):
//!
//! ```text
//! x += w; x >>= 1; w -= x;
//! z += y; z >>= 1; y -= z;
//! x += z; x >>= 1; z -= x;
//! w += y; w >>= 1; y -= w;
//! w += y >> 1;    y -= w >> 1;
//! ```

use crate::block::{as_block_mut, SIDE};

/// Forward transform of one 4-element lane.
#[inline]
pub fn fwd_lift(v: &mut [i64; 4]) {
    let [mut x, mut y, mut z, mut w] = *v;
    x += w;
    x >>= 1;
    w -= x;
    z += y;
    z >>= 1;
    y -= z;
    x += z;
    x >>= 1;
    z -= x;
    w += y;
    w >>= 1;
    y -= w;
    w += y >> 1;
    y -= w >> 1;
    *v = [x, y, z, w];
}

/// Inverse transform of one 4-element lane.
#[inline]
pub fn inv_lift(v: &mut [i64; 4]) {
    let [mut x, mut y, mut z, mut w] = *v;
    y += w >> 1;
    w -= y >> 1;
    y += w;
    w <<= 1;
    w -= y;
    z += x;
    x <<= 1;
    x -= z;
    y += z;
    z <<= 1;
    z -= y;
    w += x;
    x <<= 1;
    x -= w;
    *v = [x, y, z, w];
}

/// Apply `f` to every axis-aligned lane of a 4^d block by rediscovering
/// lane origins with index arithmetic. Retained as the executable
/// specification the specialized kernels below are tested against.
fn for_each_lane(block: &mut [i64], d: usize, axis: usize, f: impl Fn(&mut [i64; 4])) {
    debug_assert!(axis < d);
    let stride = SIDE.pow(axis as u32);
    let lanes = block.len() / SIDE;
    let mut lane = [0i64; 4];
    // Enumerate lane "origins": all indices whose `axis` coordinate is 0.
    let n = block.len();
    for base in 0..n {
        let coord = (base / stride) % SIDE;
        if coord != 0 {
            continue;
        }
        for (s, slot) in lane.iter_mut().enumerate() {
            *slot = block[base + s * stride];
        }
        f(&mut lane);
        for (s, &val) in lane.iter().enumerate() {
            block[base + s * stride] = val;
        }
    }
    debug_assert_eq!(n / SIDE, lanes);
}

/// Generic (index-arithmetic) forward transform — the reference path.
#[doc(hidden)]
pub fn forward_generic(block: &mut [i64], d: usize) {
    debug_assert_eq!(block.len(), SIDE.pow(d as u32));
    for axis in 0..d {
        for_each_lane(block, d, axis, fwd_lift);
    }
}

/// Generic (index-arithmetic) inverse transform — the reference path.
#[doc(hidden)]
pub fn inverse_generic(block: &mut [i64], d: usize) {
    debug_assert_eq!(block.len(), SIDE.pow(d as u32));
    for axis in (0..d).rev() {
        for_each_lane(block, d, axis, inv_lift);
    }
}

/// Lift every lane of one axis of a block of `N = 4^d` coefficients in
/// place. `STRIDE` is the axis (1, 4 or 16 for x, y, z); with both
/// constants known the lane origins are compile-time offsets.
#[inline(always)]
fn lift_axis<const N: usize, const STRIDE: usize>(block: &mut [i64; N], f: impl Fn(&mut [i64; 4])) {
    for lane in 0..N / SIDE {
        // The lane's origin: its index with a zero `STRIDE` digit put in.
        let base = lane / STRIDE * STRIDE * SIDE + lane % STRIDE;
        let mut v = [
            block[base],
            block[base + STRIDE],
            block[base + 2 * STRIDE],
            block[base + 3 * STRIDE],
        ];
        f(&mut v);
        block[base] = v[0];
        block[base + STRIDE] = v[1];
        block[base + 2 * STRIDE] = v[2];
        block[base + 3 * STRIDE] = v[3];
    }
}

/// Forward transform of a full block of `N = 4^d` coefficients, x axis
/// first.
#[inline]
pub fn forward_block<const N: usize>(block: &mut [i64; N]) {
    lift_axis::<N, 1>(block, fwd_lift);
    if N >= 16 {
        lift_axis::<N, 4>(block, fwd_lift);
    }
    if N >= 64 {
        lift_axis::<N, 16>(block, fwd_lift);
    }
}

/// Inverse transform of a full block (axes in reverse order).
#[inline]
pub fn inverse_block<const N: usize>(block: &mut [i64; N]) {
    if N >= 64 {
        lift_axis::<N, 16>(block, inv_lift);
    }
    if N >= 16 {
        lift_axis::<N, 4>(block, inv_lift);
    }
    lift_axis::<N, 1>(block, inv_lift);
}

/// Slice entry to [`forward_block`] for a 4^d block (d = 1, 2, or 3).
///
/// # Panics
/// When `block` does not hold `4^d` coefficients.
pub fn forward(block: &mut [i64], d: usize) {
    match d {
        1 => forward_block::<4>(as_block_mut(block)),
        2 => forward_block::<16>(as_block_mut(block)),
        _ => forward_block::<64>(as_block_mut(block)),
    }
}

/// Slice entry to [`inverse_block`].
///
/// # Panics
/// When `block` does not hold `4^d` coefficients.
pub fn inverse(block: &mut [i64], d: usize) {
    match d {
        1 => inverse_block::<4>(as_block_mut(block)),
        2 => inverse_block::<16>(as_block_mut(block)),
        _ => inverse_block::<64>(as_block_mut(block)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The lifted transform pair is an algebraic inverse but the `>>1`
    /// steps round, so integer roundtrips incur a few ULPs of error —
    /// negligible against the Q=30 fixed-point scale, but not zero.
    const LANE_TOL: i64 = 8;

    #[test]
    fn lift_roundtrip_near_exact() {
        let cases = [
            [0i64, 0, 0, 0],
            [1, 2, 3, 4],
            [-1000, 999, -998, 997],
            [1 << 30, -(1 << 30), 123456789, -987654321],
        ];
        for c in cases {
            let mut v = c;
            fwd_lift(&mut v);
            inv_lift(&mut v);
            for (a, b) in v.iter().zip(&c) {
                assert!((a - b).abs() <= LANE_TOL, "{v:?} vs {c:?}");
            }
        }
    }

    #[test]
    fn lift_roundtrip_randomized() {
        let mut x = 0x1234_5678_9abc_def0u64;
        for _ in 0..1000 {
            let mut v = [0i64; 4];
            for slot in v.iter_mut() {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                *slot = (x as i64) >> 34; // keep ~30-bit magnitudes
            }
            let orig = v;
            fwd_lift(&mut v);
            inv_lift(&mut v);
            for (a, b) in v.iter().zip(&orig) {
                assert!((a - b).abs() <= LANE_TOL, "{v:?} vs {orig:?}");
            }
        }
    }

    #[test]
    fn block_roundtrip_1d_2d_3d_near_exact() {
        for d in 1..=3usize {
            let n = SIDE.pow(d as u32);
            let orig: Vec<i64> = (0..n as i64).map(|i| (i * 37 - 100) % 1009).collect();
            let mut b = orig.clone();
            forward(&mut b, d);
            inverse(&mut b, d);
            let tol = LANE_TOL * d as i64 * 2;
            for (a, o) in b.iter().zip(&orig) {
                assert!((a - o).abs() <= tol, "d={d}: {a} vs {o}");
            }
        }
    }

    #[test]
    fn constant_lane_concentrates_energy() {
        // DC-like input: all energy lands in the first coefficient.
        let mut v = [100i64, 100, 100, 100];
        fwd_lift(&mut v);
        assert_eq!(v[0], 100);
        assert_eq!(&v[1..], &[0, 0, 0]);
    }

    #[test]
    fn smooth_lane_has_small_high_coeffs() {
        let mut v = [1000i64, 1010, 1020, 1030]; // linear ramp
        fwd_lift(&mut v);
        // High-frequency coefficients should be tiny vs the DC term.
        assert!(v[0].abs() > 500);
        assert!(v[2].abs() <= 4, "{v:?}");
        assert!(v[3].abs() <= 4, "{v:?}");
    }

    #[test]
    fn specialized_kernels_match_generic_path() {
        let mut x = 0xfeed_f00d_dead_beefu64;
        for d in 1..=3usize {
            let n = SIDE.pow(d as u32);
            for _ in 0..500 {
                let mut block = vec![0i64; n];
                for slot in block.iter_mut() {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    *slot = (x as i64) >> 33;
                }
                let mut generic = block.clone();
                forward(&mut block, d);
                forward_generic(&mut generic, d);
                assert_eq!(block, generic, "forward d={d}");
                inverse(&mut block, d);
                inverse_generic(&mut generic, d);
                assert_eq!(block, generic, "inverse d={d}");
            }
        }
    }

    #[test]
    fn transform_gain_is_bounded() {
        // Inputs bounded by 2^30 must stay below 2^33 after a 3-D forward
        // transform (our INTPREC headroom assumption).
        let mut x = 0x9e3779b97f4a7c15u64;
        for _ in 0..100 {
            let mut b = vec![0i64; 64];
            for slot in b.iter_mut() {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let v = (x as i64) % (1i64 << 30);
                *slot = v;
            }
            forward(&mut b, 3);
            for &v in &b {
                assert!(v.abs() < 1i64 << 33, "coefficient {v} exceeds headroom");
            }
        }
    }
}
