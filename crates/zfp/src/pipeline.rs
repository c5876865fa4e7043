//! Whole-array ZFP compression/decompression.
//!
//! Every 4^d block passes through: block-floating-point conversion →
//! lifted decorrelating transform → sequency reordering → negabinary →
//! embedded bit-plane coding. The per-block plane cutoff and bit budget are
//! derived from the array-level [`ZfpMode`] and the block's exponent, using
//! the same arithmetic on both sides so nothing but the exponent needs to
//! be stored per block.
//!
//! Both `f32` and `f64` fields are supported through [`ZfpElement`]; the
//! element type is recorded in the header and checked on decode.

use crate::bitstream::{ReadStream, WriteStream};
use crate::block::{self, Geom};
use crate::coder;
use crate::element::ZfpElement;
use crate::fixedpoint;
use crate::order;
use crate::transform;
use crate::{ZfpCompressed, ZfpError, ZfpMode, ZfpStats};

/// Stream magic.
pub const MAGIC: [u8; 4] = *b"ZFL1";

/// Effectively-unlimited budget for non-rate modes.
const NO_BUDGET: usize = usize::MAX / 2;

/// What the array-level [`ZfpMode`] fixes for every block of a call, worked
/// out once (the tolerance's `log2` among it): a block then gets its lowest
/// coded plane from its exponent with one subtraction and a clamp.
#[derive(Debug, Clone, Copy)]
struct BlockCoding {
    /// Fixed accuracy: `kmin = clamp(kmin_at_zero − emax)`. The other
    /// modes ignore the exponent (`None`) and use `kmin` as it stands.
    kmin_at_zero: Option<i32>,
    kmin: u32,
    intprec: u32,
    /// Bit budget for a block's coefficient payload.
    budget: usize,
    /// Fixed rate: the bits every block occupies (header + payload +
    /// padding), which makes the stream randomly accessible by block.
    rate_bits: Option<usize>,
}

impl BlockCoding {
    fn new<T: ZfpElement>(mode: &ZfpMode, d: usize) -> Self {
        let base = BlockCoding {
            kmin_at_zero: None,
            kmin: 0,
            intprec: T::INTPREC,
            budget: NO_BUDGET,
            rate_bits: None,
        };
        match *mode {
            ZfpMode::FixedAccuracy(tol) => {
                // Keep planes whose weight exceeds tol / 2^(2(d+1)); the guard
                // absorbs transform error amplification.
                let minexp = tol.log2().floor() as i32;
                let guard = 2 * (d as i32 + 1);
                BlockCoding { kmin_at_zero: Some(minexp - guard + T::Q), ..base }
            }
            ZfpMode::FixedPrecision(prec) => {
                BlockCoding { kmin: T::INTPREC - prec.min(T::INTPREC), ..base }
            }
            ZfpMode::FixedRate(bpv) => {
                let maxbits = rate_block_bits(bpv, d);
                // Reserve the header bits (zero flag + exponent).
                let budget = maxbits.saturating_sub(1 + T::EMAX_BITS);
                BlockCoding { budget, rate_bits: Some(maxbits), ..base }
            }
        }
    }

    /// Lowest coded plane of a block with exponent `emax`; `intprec` when
    /// every plane is cut and the block rounds to zero.
    #[inline]
    fn kmin(&self, emax: i32) -> u32 {
        match self.kmin_at_zero {
            Some(at_zero) => (at_zero - emax).clamp(0, self.intprec as i32) as u32,
            None => self.kmin,
        }
    }
}

/// Total bits one fixed-rate block occupies (header + payload + padding).
fn rate_block_bits(bpv: f64, d: usize) -> usize {
    (bpv * block::SIDE.pow(d as u32) as f64).ceil() as usize
}

/// Coordinates `(bk, bj, bi)` of every block of `g`, x fastest.
fn block_coords(g: &Geom) -> impl Iterator<Item = (usize, usize, usize)> {
    let (bz, by, bx) = g.block_counts();
    let mut next = (0, 0, 0);
    std::iter::from_fn(move || {
        let at = next;
        if at.0 == bz {
            return None;
        }
        next.2 += 1;
        if next.2 == bx {
            next = (at.0, at.1 + 1, 0);
            if next.1 == by {
                next = (at.0 + 1, 0, 0);
            }
        }
        Some(at)
    })
}

/// Coefficients one batch of [`encode_field`] holds between its two stages.
const BATCH_COEFFICIENTS: usize = 1024;

/// The coefficient stream of a whole field of `4^d = N`-element blocks,
/// coded by `code` (the block coder for `N`), with the zero-block and
/// coded-plane counts.
///
/// Blocks go through in batches of two stages, transform (gather, block
/// floating point, lift, reorder) into a fixed buffer and then code, so a
/// trace-on build reads the clock twice per stage per batch and not four
/// times per block, which on rank 1 would cost as much as the block.
fn encode_field<T: ZfpElement, const N: usize>(
    data: &[T],
    g: &Geom,
    coding: &BlockCoding,
    code: impl Fn(&[u64; N], u32, u32, usize, &mut WriteStream) -> usize,
) -> (WriteStream, u64, u64) {
    let mut w = WriteStream::new();
    let mut zero_blocks = 0u64;
    let mut bit_planes = 0u64;
    // Per-block timings accumulate locally; the global registry is touched
    // once per compress call (after the loop), never per block.
    let mut transform_laps = lcpio_trace::Stopwatch::new();
    let mut coder_laps = lcpio_trace::Stopwatch::new();
    let mut coefficients = [0u64; BATCH_COEFFICIENTS];
    // Exponent and lowest plane per block; `kmin == intprec` is a zero block.
    let mut heads = [(0i32, 0u32); BATCH_COEFFICIENTS / 4];
    let mut coords = block_coords(g);
    let mut left = g.num_blocks();
    while left > 0 {
        let count = left.min(BATCH_COEFFICIENTS / N);
        left -= count;
        transform_laps.lap(|| {
            let slots = coefficients.chunks_exact_mut(N).zip(&mut heads).take(count);
            for ((slot, head), at) in slots.zip(&mut coords) {
                let mut fblock = [T::from_f64(0.0); N];
                block::gather(data, g, at, &mut fblock);
                *head = (0, coding.intprec);
                let Some(emax) = fixedpoint::block_exponent(&fblock) else { continue };
                let kmin = coding.kmin(emax);
                if kmin < coding.intprec {
                    let mut ints = [0i64; N];
                    fixedpoint::forward(&fblock, emax, &mut ints);
                    transform::forward_block(&mut ints);
                    order::apply_negabinary(&ints, block::as_block_mut(slot));
                    *head = (emax, kmin);
                }
            }
        });
        coder_laps.lap(|| {
            let slots = coefficients.chunks_exact(N).zip(&heads).take(count);
            for (slot, &(emax, kmin)) in slots {
                let block_start = w.bit_len();
                if kmin >= coding.intprec {
                    w.write_bit(false);
                    zero_blocks += 1;
                } else {
                    w.write_bits(1 | ((emax + T::EMAX_BIAS) as u64) << 1, 1 + T::EMAX_BITS);
                    let slot = block::as_block::<u64, N>(slot);
                    code(slot, coding.intprec, kmin, coding.budget, &mut w);
                    bit_planes += (coding.intprec - kmin) as u64;
                }
                // Fixed-rate blocks are padded to their exact budget so the
                // stream supports random block access.
                if let Some(bits) = coding.rate_bits {
                    w.pad_to(block_start + bits);
                }
            }
        });
    }
    transform_laps.commit("zfp.transform");
    coder_laps.commit("zfp.coder");
    (w, zero_blocks, bit_planes)
}

/// Compress `data` shaped as `dims` (1–4 dims, slowest first), for any
/// supported element type.
pub fn compress_typed<T: ZfpElement>(
    data: &[T],
    dims: &[usize],
    mode: &ZfpMode,
) -> Result<ZfpCompressed, ZfpError> {
    let g = Geom::new(dims).ok_or(ZfpError::InvalidDims)?;
    if g.len() != data.len() {
        return Err(ZfpError::InvalidDims);
    }
    mode.validate()?;

    let coding = BlockCoding::new::<T>(mode, g.d);
    let (w, zero_blocks, bit_planes) = match g.d {
        1 => encode_field(data, &g, &coding, coder::encode_rank1),
        2 => encode_field(data, &g, &coding, coder::encode_block::<16>),
        _ => encode_field(data, &g, &coding, coder::encode_block::<64>),
    };

    let bitstream_span = lcpio_trace::span("zfp.bitstream");
    let payload = w.into_bytes();
    let bitstream_bits = payload.len() * 8;

    // ---- envelope ----
    let mut out = Vec::with_capacity(payload.len() + 64);
    out.extend_from_slice(&MAGIC);
    out.push(T::TYPE_TAG);
    out.push(dims.len() as u8);
    for &dim in dims {
        out.extend_from_slice(&(dim as u64).to_le_bytes());
    }
    let (tag, param) = mode.encode();
    out.push(tag);
    out.extend_from_slice(&param.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&payload);
    drop(bitstream_span);

    let stats = ZfpStats {
        elements: data.len() as u64,
        input_bytes: std::mem::size_of_val(data) as u64,
        output_bytes: out.len() as u64,
        blocks: g.num_blocks() as u64,
        zero_blocks,
        payload_bits: bitstream_bits as u64,
    };
    if lcpio_trace::collecting() {
        lcpio_trace::counter_add("zfp.elements", stats.elements);
        lcpio_trace::counter_add("zfp.bytes_in", stats.input_bytes);
        lcpio_trace::counter_add("zfp.bytes_out", stats.output_bytes);
        lcpio_trace::counter_add("zfp.blocks", stats.blocks);
        lcpio_trace::counter_add("zfp.zero_blocks", stats.zero_blocks);
        lcpio_trace::counter_add("zfp.payload_bits", stats.payload_bits);
        lcpio_trace::counter_add("zfp.bit_planes", bit_planes);
    }
    Ok(ZfpCompressed { bytes: out, stats })
}

/// Compress an `f32` field (the paper's data type).
pub fn compress(data: &[f32], dims: &[usize], mode: &ZfpMode) -> Result<ZfpCompressed, ZfpError> {
    compress_typed(data, dims, mode)
}

/// Compress an `f64` field.
pub fn compress_f64(
    data: &[f64],
    dims: &[usize],
    mode: &ZfpMode,
) -> Result<ZfpCompressed, ZfpError> {
    compress_typed(data, dims, mode)
}

/// Element type tag recorded in a compressed stream.
pub fn stream_type_tag(stream: &[u8]) -> Result<u8, ZfpError> {
    if stream.len() < 5 || stream[..4] != MAGIC {
        return Err(ZfpError::Corrupt("bad magic"));
    }
    Ok(stream[4])
}

/// Decode every block of a field of `4^d = N`-element blocks into `out`
/// with `decode` (the block decoder for `N`).
fn decode_field<T: ZfpElement, const N: usize>(
    r: &mut ReadStream<'_>,
    g: &Geom,
    coding: &BlockCoding,
    out: &mut [T],
    decode: impl Fn(&mut [u64; N], u32, u32, usize, &mut ReadStream<'_>),
) {
    for at in block_coords(g) {
        let block_start = r.bit_pos();
        if r.read_bit() {
            let emax = r.read_bits(T::EMAX_BITS) as i32 - T::EMAX_BIAS;
            let mut nb = [0u64; N];
            decode(&mut nb, coding.intprec, coding.kmin(emax), coding.budget, r);
            let mut ints = [0i64; N];
            order::invert_negabinary(&nb, &mut ints);
            transform::inverse_block(&mut ints);
            let mut fblock = [T::from_f64(0.0); N];
            fixedpoint::inverse(&ints, emax, &mut fblock);
            block::scatter(&fblock, g, at, out);
        }
        // A zero block leaves the zeros `out` was made of.
        if let Some(bits) = coding.rate_bits {
            r.seek(block_start + bits);
        }
    }
}

/// Decompress a stream produced by [`compress_typed`]. Fails with
/// [`ZfpError::TypeMismatch`] when the stream holds a different element
/// type.
pub fn decompress_typed<T: ZfpElement>(stream: &[u8]) -> Result<(Vec<T>, Vec<usize>), ZfpError> {
    let _span = lcpio_trace::span("zfp.decompress");
    let mut pos = 0usize;
    let take = |pos: &mut usize, n: usize| -> Result<&[u8], ZfpError> {
        let end = pos
            .checked_add(n)
            .filter(|&end| end <= stream.len())
            .ok_or(ZfpError::Corrupt("unexpected end of stream"))?;
        let s = &stream[*pos..end];
        *pos = end;
        Ok(s)
    };
    if take(&mut pos, 4)? != MAGIC {
        return Err(ZfpError::Corrupt("bad magic"));
    }
    let type_tag = take(&mut pos, 1)?[0];
    if type_tag != T::TYPE_TAG {
        return Err(ZfpError::TypeMismatch);
    }
    let rank = take(&mut pos, 1)?[0] as usize;
    if rank == 0 || rank > 4 {
        return Err(ZfpError::Corrupt("bad rank"));
    }
    let mut dims = Vec::with_capacity(rank);
    for _ in 0..rank {
        let b = take(&mut pos, 8)?;
        dims.push(u64::from_le_bytes(b.try_into().expect("8-byte read")) as usize);
    }
    let tag = take(&mut pos, 1)?[0];
    let param = f64::from_le_bytes(take(&mut pos, 8)?.try_into().expect("8-byte read"));
    let mode = ZfpMode::decode(tag, param)?;
    mode.validate()?;
    let payload_len =
        u64::from_le_bytes(take(&mut pos, 8)?.try_into().expect("8-byte read")) as usize;
    let payload = take(&mut pos, payload_len)?;

    let g = Geom::new(&dims).ok_or(ZfpError::Corrupt("bad dims"))?;
    // Every block consumes at least its zero-flag bit, so a corrupt header
    // cannot claim more blocks (and thus output) than the payload allows.
    if g.num_blocks() > payload.len().saturating_mul(8) {
        return Err(ZfpError::Corrupt("block count exceeds payload"));
    }
    let coding = BlockCoding::new::<T>(&mode, g.d);
    let mut out: Vec<T> = vec![T::from_f64(0.0); g.len()];
    let mut r = ReadStream::new(payload);
    match g.d {
        1 => decode_field(&mut r, &g, &coding, &mut out, coder::decode_rank1),
        2 => decode_field(&mut r, &g, &coding, &mut out, coder::decode_block::<16>),
        _ => decode_field(&mut r, &g, &coding, &mut out, coder::decode_block::<64>),
    }
    Ok((out, dims))
}

/// Decompress an `f32` stream.
pub fn decompress(stream: &[u8]) -> Result<(Vec<f32>, Vec<usize>), ZfpError> {
    decompress_typed(stream)
}

/// Decompress an `f64` stream.
pub fn decompress_f64(stream: &[u8]) -> Result<(Vec<f64>, Vec<usize>), ZfpError> {
    decompress_typed(stream)
}

/// The block loop [`encode_field`] / [`decode_field`] replaced, kept as
/// the executable specification of the stream: per block a `Vec`-backed
/// gather by the clamp formula, the `log2`/`powi` fixed point, the
/// lane-walking transform, a sorted permutation and the slice coder, with
/// the mode arithmetic redone for every block.
#[cfg(test)]
mod reference {
    use super::{rate_block_bits, MAGIC, NO_BUDGET};
    use crate::bitstream::{ReadStream, WriteStream};
    use crate::block::reference::lane;
    use crate::block::{Geom, SIDE};
    use crate::element::ZfpElement;
    use crate::{coder, fixedpoint, negabinary, order, transform};
    use crate::{ZfpMode, ZfpStats};

    /// Per-block coding parameters derived from mode + block exponent.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(super) struct BlockParams {
        /// Lowest coded plane.
        pub(super) kmin: u32,
        /// Bit budget for the coefficient payload.
        pub(super) budget: usize,
    }

    pub(super) fn block_params<T: ZfpElement>(mode: &ZfpMode, d: usize, emax: i32) -> BlockParams {
        match *mode {
            ZfpMode::FixedAccuracy(tol) => {
                let minexp = tol.log2().floor() as i32;
                let guard = 2 * (d as i32 + 1);
                let kmin = (minexp - guard - emax + T::Q).clamp(0, T::INTPREC as i32) as u32;
                BlockParams { kmin, budget: NO_BUDGET }
            }
            ZfpMode::FixedPrecision(prec) => {
                let prec = prec.min(T::INTPREC);
                BlockParams { kmin: T::INTPREC - prec, budget: NO_BUDGET }
            }
            ZfpMode::FixedRate(bpv) => {
                let block_len = SIDE.pow(d as u32);
                let maxbits = (bpv * block_len as f64).ceil() as usize;
                let budget = maxbits.saturating_sub(1 + T::EMAX_BITS);
                BlockParams { kmin: 0, budget }
            }
        }
    }

    pub(super) fn compress_typed<T: ZfpElement>(
        data: &[T],
        dims: &[usize],
        mode: &ZfpMode,
    ) -> (Vec<u8>, ZfpStats, u64) {
        let g = Geom::new(dims).expect("valid dims");
        let d = g.d;
        let blen = g.block_len();
        let perm = order::reference::permutation(d);
        let mut w = WriteStream::new();
        let mut ints = vec![0i64; blen];
        let mut nb = vec![0u64; blen];
        let (mut zero_blocks, mut bit_planes) = (0u64, 0u64);
        let (bz, by, bx) = g.block_counts();
        for bk in 0..bz {
            for bj in 0..by {
                for bi in 0..bx {
                    let block_start = w.bit_len();
                    let fblock: Vec<T> =
                        (0..blen).map(|idx| data[lane(&g, (bk, bj, bi), idx).0]).collect();
                    let emax = fixedpoint::reference::block_exponent(&fblock);
                    let params = emax.map(|e| block_params::<T>(mode, d, e));
                    match (emax, params) {
                        (Some(emax), Some(p)) if p.kmin < T::INTPREC => {
                            w.write_bit(true);
                            w.write_bits((emax + T::EMAX_BIAS) as u64, T::EMAX_BITS);
                            fixedpoint::reference::forward(&fblock, emax, &mut ints);
                            transform::forward_generic(&mut ints, d);
                            for (o, &p) in nb.iter_mut().zip(&perm) {
                                *o = negabinary::encode(ints[p]);
                            }
                            let (kmin, budget) = (p.kmin, p.budget);
                            coder::reference::encode_ints(&nb, T::INTPREC, kmin, budget, &mut w);
                            bit_planes += (T::INTPREC - p.kmin) as u64;
                        }
                        _ => {
                            w.write_bit(false);
                            zero_blocks += 1;
                        }
                    }
                    if let ZfpMode::FixedRate(bpv) = mode {
                        w.pad_to(block_start + rate_block_bits(*bpv, d));
                    }
                }
            }
        }
        let payload = w.into_bytes();
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        out.push(T::TYPE_TAG);
        out.push(dims.len() as u8);
        for &dim in dims {
            out.extend_from_slice(&(dim as u64).to_le_bytes());
        }
        let (tag, param) = mode.encode();
        out.push(tag);
        out.extend_from_slice(&param.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&payload);
        let stats = ZfpStats {
            elements: data.len() as u64,
            input_bytes: std::mem::size_of_val(data) as u64,
            output_bytes: out.len() as u64,
            blocks: g.num_blocks() as u64,
            zero_blocks,
            payload_bits: payload.len() as u64 * 8,
        };
        (out, stats, bit_planes)
    }

    /// Decode the payload of a stream whose header `compress_typed` wrote.
    pub(super) fn decompress_typed<T: ZfpElement>(
        payload: &[u8],
        dims: &[usize],
        mode: &ZfpMode,
    ) -> Vec<T> {
        let g = Geom::new(dims).expect("valid dims");
        let d = g.d;
        let blen = g.block_len();
        let perm = order::reference::permutation(d);
        let mut out = vec![T::from_f64(0.0); g.len()];
        let mut r = ReadStream::new(payload);
        let mut ints = vec![0i64; blen];
        let mut nb = vec![0u64; blen];
        let mut fblock = vec![T::from_f64(0.0); blen];
        let (bz, by, bx) = g.block_counts();
        for bk in 0..bz {
            for bj in 0..by {
                for bi in 0..bx {
                    let block_start = r.bit_pos();
                    if r.read_bit() {
                        let emax = r.read_bits(T::EMAX_BITS) as i32 - T::EMAX_BIAS;
                        let p = block_params::<T>(mode, d, emax);
                        let (prec, kmin, budget) = (T::INTPREC, p.kmin, p.budget);
                        coder::reference::decode_ints_into(&mut nb, prec, kmin, budget, &mut r);
                        for (&v, &p) in nb.iter().zip(&perm) {
                            ints[p] = negabinary::decode(v);
                        }
                        transform::inverse_generic(&mut ints, d);
                        fixedpoint::reference::inverse(&ints, emax, &mut fblock);
                    } else {
                        fblock.fill(T::from_f64(0.0));
                    }
                    if let ZfpMode::FixedRate(bpv) = mode {
                        r.seek(block_start + rate_block_bits(*bpv, d));
                    }
                    for (idx, &v) in fblock.iter().enumerate() {
                        let (at, inside) = lane(&g, (bk, bj, bi), idx);
                        if inside {
                            out[at] = v;
                        }
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixedpoint::INTPREC;

    #[test]
    fn block_params_accuracy_scales_with_emax() {
        // Larger block magnitudes need more planes for the same tolerance.
        let coding = BlockCoding::new::<f32>(&ZfpMode::FixedAccuracy(1e-3), 3);
        assert!(coding.kmin(10) < coding.kmin(0));
    }

    #[test]
    fn block_params_precision_ignores_emax() {
        let coding = BlockCoding::new::<f32>(&ZfpMode::FixedPrecision(16), 2);
        assert_eq!(coding.kmin(-5), coding.kmin(20));
        assert_eq!(coding.kmin(-5), INTPREC - 16);
    }

    #[test]
    fn block_params_rate_sets_budget() {
        let coding = BlockCoding::new::<f32>(&ZfpMode::FixedRate(8.0), 3);
        assert_eq!(coding.budget, 8 * 64 - 1 - <f32 as ZfpElement>::EMAX_BITS);
        assert_eq!(coding.kmin(0), 0);
    }

    #[test]
    fn f64_params_keep_more_planes_for_same_tolerance() {
        let f32_kmin = BlockCoding::new::<f32>(&ZfpMode::FixedAccuracy(1e-6), 3).kmin(0);
        let f64_kmin = BlockCoding::new::<f64>(&ZfpMode::FixedAccuracy(1e-6), 3).kmin(0);
        let f32_planes = <f32 as ZfpElement>::INTPREC - f32_kmin;
        let f64_planes = <f64 as ZfpElement>::INTPREC - f64_kmin;
        // Same tolerance ⇒ same number of *kept* planes relative to the
        // block exponent; both types count down from their own Q.
        assert_eq!(f32_planes, f64_planes);
    }

    #[test]
    fn rate_block_bits_rounds_up() {
        assert_eq!(rate_block_bits(0.9, 1), 4);
        assert_eq!(rate_block_bits(8.0, 3), 512);
    }

    #[test]
    fn f64_roundtrip_below_f32_precision() {
        // A tolerance far below f32 ULP: only the f64 path can honor it.
        let data: Vec<f64> = (0..512)
            .map(|i| 1.0 + (i as f64) * 1e-12 + (i as f64 * 0.05).sin() * 1e-9)
            .collect();
        let tol = 1e-13;
        let out = compress_f64(&data, &[512], &ZfpMode::FixedAccuracy(tol)).expect("compress");
        let (rec, _) = decompress_f64(&out.bytes).expect("decompress");
        for (a, b) in data.iter().zip(&rec) {
            assert!((a - b).abs() <= tol, "{a} vs {b}");
        }
    }

    #[test]
    fn f64_3d_roundtrip() {
        let (nz, ny, nx) = (9, 10, 11);
        let data: Vec<f64> = (0..nz * ny * nx)
            .map(|i| ((i % nx) as f64 * 0.2).sin() * 1e8 + ((i / nx) as f64 * 0.1).cos())
            .collect();
        let tol = 1e-2;
        let out =
            compress_f64(&data, &[nz, ny, nx], &ZfpMode::FixedAccuracy(tol)).expect("compress");
        let (rec, dims) = decompress_f64(&out.bytes).expect("decompress");
        assert_eq!(dims, vec![nz, ny, nx]);
        for (a, b) in data.iter().zip(&rec) {
            assert!((a - b).abs() <= tol, "{a} vs {b}");
        }
    }

    #[test]
    fn type_tags_are_checked() {
        let f32_out =
            compress(&vec![1.5f32; 64], &[64], &ZfpMode::FixedAccuracy(1e-3)).expect("compress");
        assert_eq!(decompress_f64(&f32_out.bytes).unwrap_err(), ZfpError::TypeMismatch);
        let f64_out = compress_f64(&vec![1.5f64; 64], &[64], &ZfpMode::FixedAccuracy(1e-3))
            .expect("compress");
        assert_eq!(decompress(&f64_out.bytes).unwrap_err(), ZfpError::TypeMismatch);
        assert_eq!(stream_type_tag(&f32_out.bytes).unwrap(), 0);
        assert_eq!(stream_type_tag(&f64_out.bytes).unwrap(), 1);
    }

    #[test]
    fn block_coding_matches_the_per_block_arithmetic() {
        fn check<T: ZfpElement>(mode: ZfpMode) {
            for d in 1..=3 {
                let coding = BlockCoding::new::<T>(&mode, d);
                for field in 0..1i32 << T::EMAX_BITS {
                    let emax = field - T::EMAX_BIAS;
                    let want = reference::block_params::<T>(&mode, d, emax);
                    let (kmin, budget) = (coding.kmin(emax), coding.budget);
                    let got = reference::BlockParams { kmin, budget };
                    assert_eq!(got, want, "{mode:?} d {d} emax {emax}");
                }
            }
        }
        for mode in [
            ZfpMode::FixedAccuracy(1e-3),
            ZfpMode::FixedAccuracy(5e-324),
            ZfpMode::FixedAccuracy(1e300),
            ZfpMode::FixedPrecision(1),
            ZfpMode::FixedPrecision(16),
            ZfpMode::FixedPrecision(99),
            ZfpMode::FixedRate(0.01),
            ZfpMode::FixedRate(8.0),
            ZfpMode::FixedRate(64.0),
        ] {
            check::<f32>(mode);
            check::<f64>(mode);
        }
    }

    /// A field with everything a block can hold: smooth stretches, noise,
    /// exact zeros and all-zero blocks, NaN and ±∞, magnitudes across the
    /// exponent range, and values one ulp below a power of two (where the
    /// `f64` exponent comes from `log2`, not the exponent field).
    fn mixed_field(n: usize, seed: u64, huge: f64) -> Vec<f64> {
        let mut s = seed | 1;
        (0..n)
            .map(|i| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                let noise = (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
                match (i / 61) % 9 {
                    0 => 0.0,
                    1 => (i as f64 * 0.05).sin() * 40.0,
                    2 => noise * 1e4,
                    3 if i % 7 == 0 => [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][i % 3],
                    4 => noise * huge,
                    5 => noise / huge,
                    6 if s & 1 == 0 => f64::from_bits((1024.0f64).to_bits() - 1),
                    6 => f64::from_bits((1024.0f64).to_bits() - 1) * -0.5,
                    7 if i % 5 == 0 => 0.0,
                    _ => (i as f64 * 0.01).cos() + noise * 1e-3,
                }
            })
            .collect()
    }

    /// Whole calls, new against the retained reference: stream bytes and
    /// statistics equal, and both decoders return the same values bit for
    /// bit (`to_bits`), from the clean stream and from a damaged payload.
    fn check_whole_call<T: ZfpElement>(
        data: &[T],
        dims: &[usize],
        mode: ZfpMode,
        bits: fn(T) -> u64,
    ) {
        let what = format!("{dims:?} {mode:?}");
        let new = compress_typed(data, dims, &mode).expect("compress");
        let (old_bytes, old_stats, _) = reference::compress_typed(data, dims, &mode);
        assert_eq!(new.bytes, old_bytes, "{what}");
        assert_eq!(new.stats, old_stats, "{what}");
        let header = old_bytes.len() - old_stats.payload_bits as usize / 8;
        let mut stream = old_bytes;
        for round in 0..4u64 {
            let want = reference::decompress_typed::<T>(&stream[header..], dims, &mode);
            let (got, got_dims) = decompress_typed::<T>(&stream).expect("decompress");
            assert_eq!(got_dims, dims, "{what}");
            assert_eq!(
                got.iter().map(|&v| bits(v)).collect::<Vec<_>>(),
                want.iter().map(|&v| bits(v)).collect::<Vec<_>>(),
                "{what} round {round}"
            );
            // Damage the payload for the next round: a few bytes, spread out.
            let payload = stream.len() - header;
            for hit in 0..3 {
                let at = header + (round * 7919 + hit * 104729) as usize % payload;
                stream[at] ^= 0x5A;
            }
        }
    }

    #[test]
    fn whole_calls_match_the_reference() {
        let shapes: [&[usize]; 8] =
            [&[4], &[1021], &[4, 8], &[33, 47], &[1, 5], &[9, 10, 11], &[5, 6, 7], &[2, 3, 5, 9]];
        let modes = [
            ZfpMode::FixedAccuracy(1e-3),
            ZfpMode::FixedAccuracy(1e-9),
            ZfpMode::FixedAccuracy(300.0),
            ZfpMode::FixedPrecision(1),
            ZfpMode::FixedPrecision(12),
            ZfpMode::FixedPrecision(64),
            ZfpMode::FixedRate(0.5),
            ZfpMode::FixedRate(3.7),
            ZfpMode::FixedRate(16.0),
        ];
        for (case, dims) in shapes.into_iter().enumerate() {
            let n: usize = dims.iter().product();
            let wide = mixed_field(n, 0xF1E1D + case as u64, 1e250);
            let narrow = mixed_field(n, 0xF1E1D + case as u64, 1e30);
            let narrow: Vec<f32> = narrow.iter().map(|&v| v as f32).collect();
            for mode in modes {
                check_whole_call(&wide, dims, mode, f64::to_bits);
                check_whole_call(&narrow, dims, mode, |v| v.to_bits() as u64);
            }
        }
    }

    /// A `payload_len` that wraps `pos + n` used to pass the length test
    /// and panic on the slice.
    #[test]
    fn forged_payload_len_is_a_typed_error() {
        let good = compress(&[1.5f32; 8], &[8], &ZfpMode::FixedAccuracy(1e-3)).expect("compress");
        let at = 4 + 1 + 1 + 8 + 1 + 8;
        assert_eq!(good.bytes[at..at + 8], (good.bytes.len() as u64 - 31).to_le_bytes());
        for forged in [u64::MAX, u64::MAX - 30, 1 << 63] {
            for len in [31, good.bytes.len()] {
                let mut stream = good.bytes[..len].to_vec();
                stream[at..at + 8].copy_from_slice(&forged.to_le_bytes());
                assert_eq!(
                    decompress(&stream).unwrap_err(),
                    ZfpError::Corrupt("unexpected end of stream"),
                    "payload_len {forged:#x}, {len} bytes"
                );
            }
        }
    }
}
