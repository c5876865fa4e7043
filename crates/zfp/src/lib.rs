#![warn(missing_docs)]
//! # lcpio-zfp — ZFP-style transform-coding lossy compressor
//!
//! A from-scratch Rust implementation of the ZFP compressed-array codec
//! (Lindstrom, 2014) for 1–4 dimensional `f32`/`f64` data: 4^d blocks are
//! normalized to a common exponent (block floating point), decorrelated
//! with an exactly-invertible lifted transform, reordered by total
//! sequency, converted to negabinary, and entropy-coded with an embedded
//! bit-plane coder with group testing.
//!
//! Three rate-control modes are provided, mirroring the reference codec:
//!
//! * [`ZfpMode::FixedAccuracy`] — absolute error tolerance (the paper's
//!   "fixed-accuracy mode").
//! * [`ZfpMode::FixedPrecision`] — a fixed number of bit planes per block.
//! * [`ZfpMode::FixedRate`] — an exact bit budget per value, giving random
//!   block access.
//!
//! This crate is the single-stream codec. The multi-threaded chunked
//! container (`ZFLP`, the reference codec's OpenMP mode) lives in
//! `lcpio-codec`, which codes block-aligned sub-arrays through
//! [`compress_typed`] / [`decompress_typed`].
//!
//! Non-finite values are not supported by the ZFP transform; they are
//! flushed to zero on compression (the reference codec's behaviour is
//! likewise undefined for NaN/Inf).
//!
//! ```
//! use lcpio_zfp::{compress, decompress, ZfpMode};
//!
//! let data: Vec<f32> = (0..64 * 64)
//!     .map(|i| ((i % 64) as f32 * 0.1).sin() + ((i / 64) as f32 * 0.07).cos())
//!     .collect();
//! let out = compress(&data, &[64, 64], &ZfpMode::FixedAccuracy(1e-3)).unwrap();
//! let (rec, dims) = decompress(&out.bytes).unwrap();
//! assert_eq!(dims, vec![64, 64]);
//! for (a, b) in data.iter().zip(&rec) {
//!     assert!((a - b).abs() <= 1e-3);
//! }
//! assert!(out.stats.ratio() > 2.0);
//! ```

pub mod bitstream;
pub mod block;
pub mod coder;
pub mod element;
pub mod fixedpoint;
pub mod negabinary;
pub mod order;
mod pipeline;
pub mod transform;

pub use element::ZfpElement;
pub use pipeline::{
    compress, compress_f64, compress_typed, decompress, decompress_f64, decompress_typed,
    stream_type_tag, MAGIC,
};

use serde::{Deserialize, Serialize};

/// Rate-control mode.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ZfpMode {
    /// Bound the max absolute error by the tolerance.
    FixedAccuracy(f64),
    /// Code exactly this many bit planes per block (≤ [`fixedpoint::INTPREC`]).
    FixedPrecision(u32),
    /// Spend exactly this many bits per value (supports random access).
    FixedRate(f64),
}

impl ZfpMode {
    /// Check parameter sanity.
    pub fn validate(&self) -> Result<(), ZfpError> {
        match *self {
            ZfpMode::FixedAccuracy(t) if t > 0.0 && t.is_finite() => Ok(()),
            ZfpMode::FixedPrecision(p) if p >= 1 => Ok(()),
            ZfpMode::FixedRate(r) if r > 0.0 && r.is_finite() && r <= 64.0 => Ok(()),
            _ => Err(ZfpError::InvalidMode),
        }
    }

    /// Serialize as (tag, parameter).
    pub(crate) fn encode(&self) -> (u8, f64) {
        match *self {
            ZfpMode::FixedAccuracy(t) => (0, t),
            ZfpMode::FixedPrecision(p) => (1, p as f64),
            ZfpMode::FixedRate(r) => (2, r),
        }
    }

    /// Inverse of [`ZfpMode::encode`].
    pub(crate) fn decode(tag: u8, param: f64) -> Result<Self, ZfpError> {
        match tag {
            0 => Ok(ZfpMode::FixedAccuracy(param)),
            1 => Ok(ZfpMode::FixedPrecision(param as u32)),
            2 => Ok(ZfpMode::FixedRate(param)),
            _ => Err(ZfpError::Corrupt("bad mode tag")),
        }
    }
}

/// Statistics from one compression run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ZfpStats {
    /// Input element count.
    pub elements: u64,
    /// Input bytes (`elements × element size`).
    pub input_bytes: u64,
    /// Output bytes including the envelope.
    pub output_bytes: u64,
    /// Total 4^d blocks coded.
    pub blocks: u64,
    /// Blocks skipped as all-zero (1 bit each).
    pub zero_blocks: u64,
    /// Bits in the coefficient bitstream.
    pub payload_bits: u64,
}

impl ZfpStats {
    /// Compression ratio `input/output`.
    pub fn ratio(&self) -> f64 {
        if self.output_bytes == 0 {
            0.0
        } else {
            self.input_bytes as f64 / self.output_bytes as f64
        }
    }

    /// Bits per element in the output.
    pub fn bits_per_element(&self) -> f64 {
        if self.elements == 0 {
            0.0
        } else {
            self.output_bytes as f64 * 8.0 / self.elements as f64
        }
    }
}

/// A compressed buffer plus run statistics.
#[derive(Debug, Clone)]
pub struct ZfpCompressed {
    /// Serialized stream.
    pub bytes: Vec<u8>,
    /// Run statistics.
    pub stats: ZfpStats,
}

/// Errors from compression or decompression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ZfpError {
    /// Dimensions invalid or inconsistent with the data length.
    InvalidDims,
    /// Mode parameter out of range.
    InvalidMode,
    /// The stream holds a different element type than requested
    /// (f32 vs f64 — check [`stream_type_tag`]).
    TypeMismatch,
    /// Malformed stream; the message names the failing section.
    Corrupt(&'static str),
}

impl std::fmt::Display for ZfpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ZfpError::InvalidDims => write!(f, "invalid dimensions"),
            ZfpError::InvalidMode => write!(f, "invalid mode parameter"),
            ZfpError::TypeMismatch => write!(f, "stream element type does not match"),
            ZfpError::Corrupt(what) => write!(f, "corrupt stream: {what}"),
        }
    }
}

impl std::error::Error for ZfpError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn smooth_3d(nz: usize, ny: usize, nx: usize) -> Vec<f32> {
        let mut v = Vec::with_capacity(nz * ny * nx);
        for k in 0..nz {
            for j in 0..ny {
                for i in 0..nx {
                    v.push(
                        (i as f32 * 0.2).sin() * (j as f32 * 0.15).cos()
                            + (k as f32 * 0.1).sin() * 3.0,
                    );
                }
            }
        }
        v
    }

    fn max_err(a: &[f32], b: &[f32]) -> f64 {
        a.iter().zip(b).map(|(x, y)| (*x as f64 - *y as f64).abs()).fold(0.0, f64::max)
    }

    #[test]
    fn fixed_accuracy_bounds_error_3d() {
        let data = smooth_3d(10, 11, 12);
        for tol in [1e-1, 1e-2, 1e-3, 1e-4] {
            let out = compress(&data, &[10, 11, 12], &ZfpMode::FixedAccuracy(tol)).unwrap();
            let (rec, _) = decompress(&out.bytes).unwrap();
            let err = max_err(&data, &rec);
            assert!(err <= tol, "tol {tol}: err {err}");
        }
    }

    #[test]
    fn fixed_accuracy_bounds_error_1d_2d() {
        let data1: Vec<f32> = (0..1000).map(|i| (i as f32 * 0.01).sin() * 50.0).collect();
        let out = compress(&data1, &[1000], &ZfpMode::FixedAccuracy(1e-3)).unwrap();
        let (rec, _) = decompress(&out.bytes).unwrap();
        assert!(max_err(&data1, &rec) <= 1e-3);

        let data2: Vec<f32> = (0..50 * 70)
            .map(|idx| ((idx % 70) as f32 * 0.1).cos() * ((idx / 70) as f32 * 0.05).sin())
            .collect();
        let out = compress(&data2, &[50, 70], &ZfpMode::FixedAccuracy(1e-4)).unwrap();
        let (rec, _) = decompress(&out.bytes).unwrap();
        assert!(max_err(&data2, &rec) <= 1e-4);
    }

    #[test]
    fn tighter_tolerance_costs_more_bits() {
        let data = smooth_3d(16, 16, 16);
        let loose = compress(&data, &[16, 16, 16], &ZfpMode::FixedAccuracy(1e-1)).unwrap();
        let tight = compress(&data, &[16, 16, 16], &ZfpMode::FixedAccuracy(1e-5)).unwrap();
        assert!(tight.bytes.len() > loose.bytes.len());
    }

    #[test]
    fn smooth_data_compresses_well() {
        let data = smooth_3d(32, 32, 32);
        let out = compress(&data, &[32, 32, 32], &ZfpMode::FixedAccuracy(1e-3)).unwrap();
        assert!(out.stats.ratio() > 3.0, "ratio {}", out.stats.ratio());
    }

    #[test]
    fn fixed_rate_hits_exact_size() {
        let data = smooth_3d(8, 8, 8);
        let out = compress(&data, &[8, 8, 8], &ZfpMode::FixedRate(8.0)).unwrap();
        // 8 blocks × 512 bits = 512 bytes payload.
        assert_eq!(out.stats.payload_bits, 8 * 512);
        let (rec, _) = decompress(&out.bytes).unwrap();
        // 8 bpv on smooth data should already be quite accurate.
        assert!(max_err(&data, &rec) < 0.1);
    }

    #[test]
    fn fixed_rate_quality_scales() {
        let data = smooth_3d(12, 12, 12);
        let mut prev = f64::MAX;
        for bpv in [2.0, 4.0, 8.0, 16.0, 31.0] {
            let out = compress(&data, &[12, 12, 12], &ZfpMode::FixedRate(bpv)).unwrap();
            let (rec, _) = decompress(&out.bytes).unwrap();
            let err = max_err(&data, &rec);
            assert!(err <= prev * 1.5, "bpv {bpv}: err {err} prev {prev}");
            prev = err;
        }
        assert!(prev < 1e-4);
    }

    #[test]
    fn fixed_precision_quality_scales() {
        let data = smooth_3d(12, 12, 12);
        let hi = compress(&data, &[12, 12, 12], &ZfpMode::FixedPrecision(30)).unwrap();
        let lo = compress(&data, &[12, 12, 12], &ZfpMode::FixedPrecision(8)).unwrap();
        let (rec_hi, _) = decompress(&hi.bytes).unwrap();
        let (rec_lo, _) = decompress(&lo.bytes).unwrap();
        assert!(max_err(&data, &rec_hi) < max_err(&data, &rec_lo));
        assert!(hi.bytes.len() > lo.bytes.len());
    }

    #[test]
    fn zero_field_codes_to_zero_blocks() {
        let data = vec![0.0f32; 256];
        let out = compress(&data, &[16, 16], &ZfpMode::FixedAccuracy(1e-6)).unwrap();
        assert_eq!(out.stats.zero_blocks, out.stats.blocks);
        let (rec, _) = decompress(&out.bytes).unwrap();
        assert!(rec.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn values_below_tolerance_become_zero_blocks() {
        let data = vec![1e-9f32; 64];
        let out = compress(&data, &[4, 4, 4], &ZfpMode::FixedAccuracy(1e-3)).unwrap();
        assert_eq!(out.stats.zero_blocks, 1);
        let (rec, _) = decompress(&out.bytes).unwrap();
        assert!(max_err(&data, &rec) <= 1e-3);
    }

    #[test]
    fn partial_blocks_roundtrip() {
        // 5×6×7: every border is partial.
        let data = smooth_3d(5, 6, 7);
        let out = compress(&data, &[5, 6, 7], &ZfpMode::FixedAccuracy(1e-4)).unwrap();
        let (rec, dims) = decompress(&out.bytes).unwrap();
        assert_eq!(dims, vec![5, 6, 7]);
        assert!(max_err(&data, &rec) <= 1e-4);
    }

    #[test]
    fn four_d_input_roundtrips() {
        let dims = [2usize, 3, 8, 9];
        let n: usize = dims.iter().product();
        let data: Vec<f32> = (0..n).map(|i| (i as f32 * 0.01).sin()).collect();
        let out = compress(&data, &dims, &ZfpMode::FixedAccuracy(1e-3)).unwrap();
        let (rec, d) = decompress(&out.bytes).unwrap();
        assert_eq!(d, dims.to_vec());
        assert!(max_err(&data, &rec) <= 1e-3);
    }

    #[test]
    fn non_finite_values_flush_to_zero() {
        let mut data = vec![0.5f32; 64];
        data[10] = f32::NAN;
        data[20] = f32::INFINITY;
        let out = compress(&data, &[64], &ZfpMode::FixedAccuracy(1e-4)).unwrap();
        let (rec, _) = decompress(&out.bytes).unwrap();
        assert!((rec[10]).abs() <= 1e-3);
        assert!((rec[20]).abs() <= 1e-3);
        assert!((rec[0] - 0.5).abs() <= 1e-4);
    }

    #[test]
    fn mode_validation() {
        assert!(ZfpMode::FixedAccuracy(0.0).validate().is_err());
        assert!(ZfpMode::FixedAccuracy(-1.0).validate().is_err());
        assert!(ZfpMode::FixedPrecision(0).validate().is_err());
        assert!(ZfpMode::FixedRate(0.0).validate().is_err());
        assert!(ZfpMode::FixedRate(100.0).validate().is_err());
        assert!(ZfpMode::FixedAccuracy(1e-3).validate().is_ok());
    }

    #[test]
    fn invalid_dims_rejected() {
        let data = vec![0.0f32; 10];
        assert_eq!(
            compress(&data, &[11], &ZfpMode::FixedAccuracy(1e-3)).unwrap_err(),
            ZfpError::InvalidDims
        );
        assert_eq!(
            compress(&data, &[], &ZfpMode::FixedAccuracy(1e-3)).unwrap_err(),
            ZfpError::InvalidDims
        );
    }

    #[test]
    fn corrupt_stream_rejected() {
        let data = vec![1.0f32; 64];
        let mut out = compress(&data, &[64], &ZfpMode::FixedAccuracy(1e-3)).unwrap();
        out.bytes[0] = b'X';
        assert!(matches!(decompress(&out.bytes), Err(ZfpError::Corrupt(_))));
        let out2 = compress(&data, &[64], &ZfpMode::FixedAccuracy(1e-3)).unwrap();
        assert!(decompress(&out2.bytes[..10]).is_err());
    }

    #[test]
    fn stats_consistent() {
        let data = smooth_3d(9, 9, 9);
        let out = compress(&data, &[9, 9, 9], &ZfpMode::FixedAccuracy(1e-2)).unwrap();
        assert_eq!(out.stats.elements, 729);
        assert_eq!(out.stats.blocks, 27);
        assert_eq!(out.stats.output_bytes as usize, out.bytes.len());
    }
}
