#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # lcpio-sz — SZ-style error-bounded lossy compressor
//!
//! A from-scratch Rust implementation of the SZ lossy-compression pipeline
//! for scientific floating-point data (Di & Cappello et al.): value
//! prediction (the Lorenzo stencil on a lattice of spacing `2·eb`),
//! error-bounded linear quantization, canonical Huffman coding of the
//! quantization bins, and an LZSS lossless backend. Streams of SZ2-style
//! per-block hyperplane regression, which earlier versions wrote, still
//! decode.
//!
//! The headline guarantee is the **absolute error bound**: for every
//! element, `|decompressed − original| ≤ eb`. Value-range-relative bounds
//! resolve to absolute ones, and pointwise-relative bounds
//! (`|v̂ − v| ≤ r·|v|`) are available through [`compress_pointwise_rel`].
//! Both `f32` and `f64` fields are supported ([`compress_f64`]).
//!
//! This crate is the single-stream codec. The multi-threaded chunked
//! container (`SZLP`) lives in `lcpio-codec`, which codes block-aligned
//! sub-arrays through [`compress_typed_with`] / [`decompress_into`], each
//! chunk decoded straight into its slice of the field.
//!
//! ```
//! use lcpio_sz::{compress, decompress, ErrorBound, SzConfig};
//!
//! let data: Vec<f32> = (0..4096).map(|i| (i as f32 * 0.01).sin()).collect();
//! let cfg = SzConfig::new(ErrorBound::Absolute(1e-3));
//! let out = compress(&data, &[4096], &cfg).unwrap();
//! let (restored, dims) = decompress(&out.bytes).unwrap();
//! assert_eq!(dims, vec![4096]);
//! for (a, b) in data.iter().zip(&restored) {
//!     assert!((a - b).abs() <= 1e-3 + 1e-6);
//! }
//! assert!(out.stats.ratio() > 4.0);
//! ```

pub mod bitio;
mod classes;
pub mod element;
// The shared test generators name this crate the way an integration test
// does.
#[cfg(test)]
extern crate self as lcpio_sz;
#[cfg(test)]
#[path = "../tests/generators/mod.rs"]
mod generators;
pub mod header;
pub mod huffman;
pub mod kernels;
pub mod lossless;
mod pipeline;
pub mod predictor;
pub mod pwrel;
pub mod quantizer;
pub mod regression;
pub mod stats;
mod table;

pub use element::Element;
/// The instrumentation crate this backend records its spans through,
/// re-exported so `lcpio-codec`'s chunked container (which has no
/// `lcpio-trace` edge of its own) records into the same registry.
pub use lcpio_trace as trace;
pub use pipeline::{
    compress, compress_f64, compress_typed, compress_typed_with, decompress, decompress_f64,
    decompress_into, decompress_typed, decompress_typed_with, stream_type_tag, table_range,
    SzScratch,
};
pub use pwrel::{compress_pointwise_rel, decompress_pointwise_rel};
pub use quantizer::Quantizer;
pub use stats::CompressionStats;

use serde::{Deserialize, Serialize};

/// How the compression error is bounded.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ErrorBound {
    /// `|x̂ − x| ≤ eb` for every element (SZ "ABS" mode; the paper's mode).
    Absolute(f64),
    /// `|x̂ − x| ≤ r · (max − min)` over the dataset (SZ "REL" mode).
    ValueRangeRelative(f64),
}

/// Predictor selection, which selects nothing: every stream is written
/// with the Lorenzo stencil on the lattice. Kept, with
/// [`SzConfig::with_mode`], only because the repository benchmark's layer
/// probes name it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PredictorMode {
    /// Global Lorenzo stencil (SZ 1.4 style).
    Lorenzo,
}

/// Compressor configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SzConfig {
    /// Error-bound mode and magnitude.
    pub error_bound: ErrorBound,
    /// Lorenzo order for 1-D data (1 or 2; default 2).
    pub lorenzo_order: u8,
    /// Quantizer bin radius (default [`Quantizer::DEFAULT_RADIUS`]).
    pub radius: u32,
    /// Run the lossless back end (default true): the Huffman table is
    /// written packed and the payload LZSS-compressed, each only when that
    /// makes the stream smaller. Off, the stream is the dense payload as it
    /// is.
    pub lossless: bool,
}

impl SzConfig {
    /// Default configuration for a given error bound.
    pub fn new(error_bound: ErrorBound) -> Self {
        SzConfig {
            error_bound,
            lorenzo_order: 2,
            radius: Quantizer::DEFAULT_RADIUS,
            lossless: true,
        }
    }

    /// The configuration unchanged: there is one predictor (see
    /// [`PredictorMode`]).
    pub fn with_mode(self, _mode: PredictorMode) -> Self {
        self
    }

    /// Builder-style toggle of the lossless back end.
    pub fn with_lossless(mut self, on: bool) -> Self {
        self.lossless = on;
        self
    }

    /// Builder-style quantizer radius override. Values are clamped to
    /// `1..=Quantizer::MAX_RADIUS` at compression time.
    pub fn with_radius(mut self, radius: u32) -> Self {
        self.radius = radius;
        self
    }
}

/// A compressed buffer plus the statistics of the run that produced it.
#[derive(Debug, Clone)]
pub struct Compressed {
    /// The serialized compressed stream.
    pub bytes: Vec<u8>,
    /// Counters collected during compression.
    pub stats: CompressionStats,
}

/// Errors surfaced by compression or decompression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SzError {
    /// Dimensions empty, zero-sized, >4-D, or inconsistent with data length.
    InvalidDims,
    /// Error bound not positive/finite.
    InvalidErrorBound,
    /// The stream holds a different element type than requested
    /// (f32 vs f64 — check [`stream_type_tag`]).
    TypeMismatch,
    /// The compressed stream is malformed; the message names the section.
    Corrupt(&'static str),
    /// Invariant violation inside the compressor (a bug if ever seen).
    Internal(&'static str),
}

impl std::fmt::Display for SzError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SzError::InvalidDims => write!(f, "invalid dimensions"),
            SzError::InvalidErrorBound => write!(f, "invalid error bound"),
            SzError::TypeMismatch => write!(f, "stream element type does not match"),
            SzError::Corrupt(what) => write!(f, "corrupt stream: {what}"),
            SzError::Internal(what) => write!(f, "internal error: {what}"),
        }
    }
}

impl std::error::Error for SzError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f32> {
        (0..n).map(|i| i as f32 * 0.5).collect()
    }

    fn check_bound(orig: &[f32], rec: &[f32], eb: f64) {
        assert_eq!(orig.len(), rec.len());
        for (idx, (a, b)) in orig.iter().zip(rec).enumerate() {
            let err = (*a as f64 - *b as f64).abs();
            assert!(err <= eb * 1.0001 + 1e-9, "idx {idx}: {a} vs {b}, err {err} > {eb}");
        }
    }

    #[test]
    fn roundtrip_1d_ramp() {
        let data = ramp(1000);
        let cfg = SzConfig::new(ErrorBound::Absolute(1e-3));
        let out = compress(&data, &[1000], &cfg).unwrap();
        let (rec, dims) = decompress(&out.bytes).unwrap();
        assert_eq!(dims, vec![1000]);
        check_bound(&data, &rec, 1e-3);
        // A linear ramp is perfectly predictable by order-2 Lorenzo.
        assert!(out.stats.hit_rate() > 0.99);
        assert!(out.stats.ratio() > 20.0, "ratio {}", out.stats.ratio());
    }

    #[test]
    fn roundtrip_2d_smooth() {
        let (ny, nx) = (48, 64);
        let data: Vec<f32> = (0..ny * nx)
            .map(|idx| {
                let (j, i) = (idx / nx, idx % nx);
                ((i as f32) * 0.1).sin() * ((j as f32) * 0.07).cos() * 10.0
            })
            .collect();
        let cfg = SzConfig::new(ErrorBound::Absolute(1e-2));
        let out = compress(&data, &[ny, nx], &cfg).unwrap();
        let (rec, dims) = decompress(&out.bytes).unwrap();
        assert_eq!(dims, vec![ny, nx]);
        check_bound(&data, &rec, 1e-2);
        assert!(out.stats.ratio() > 3.0, "ratio {}", out.stats.ratio());
    }

    #[test]
    fn roundtrip_3d_tilted_planes() {
        let (nz, ny, nx) = (12, 13, 14);
        let data: Vec<f32> = (0..nz * ny * nx)
            .map(|idx| {
                let k = idx / (ny * nx);
                let j = (idx / nx) % ny;
                let i = idx % nx;
                (k as f32) * 0.3 + (j as f32) * 0.2 - (i as f32) * 0.1
            })
            .collect();
        let cfg = SzConfig::new(ErrorBound::Absolute(1e-3));
        let out = compress(&data, &[nz, ny, nx], &cfg).unwrap();
        let (rec, _) = decompress(&out.bytes).unwrap();
        check_bound(&data, &rec, 1e-3);
    }

    #[test]
    fn roundtrip_4d() {
        let dims = [3usize, 4, 5, 6];
        let n: usize = dims.iter().product();
        let data: Vec<f32> = (0..n).map(|i| (i as f32 * 0.01).cos()).collect();
        let cfg = SzConfig::new(ErrorBound::Absolute(1e-4));
        let out = compress(&data, &dims, &cfg).unwrap();
        let (rec, d) = decompress(&out.bytes).unwrap();
        assert_eq!(d, dims.to_vec());
        check_bound(&data, &rec, 1e-4);
    }

    #[test]
    fn relative_bound_resolves_to_range() {
        let data: Vec<f32> = (0..500).map(|i| i as f32).collect(); // range 499
        let cfg = SzConfig::new(ErrorBound::ValueRangeRelative(1e-3));
        let out = compress(&data, &[500], &cfg).unwrap();
        let (rec, _) = decompress(&out.bytes).unwrap();
        check_bound(&data, &rec, 0.499 * 1.01);
    }

    #[test]
    fn random_data_roundtrips_via_literals() {
        // White noise with a tiny bound: most elements escape to literals,
        // and those must be restored exactly.
        let mut x = 123456789u32;
        let data: Vec<f32> = (0..2000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                (x as f32 / u32::MAX as f32 - 0.5) * 1e6
            })
            .collect();
        let cfg = SzConfig::new(ErrorBound::Absolute(1e-6)).with_radius(4);
        let out = compress(&data, &[2000], &cfg).unwrap();
        assert!(out.stats.unpredictable > 1000);
        let (rec, _) = decompress(&out.bytes).unwrap();
        check_bound(&data, &rec, 1e-6);
    }

    #[test]
    fn special_values_survive() {
        let data = vec![1.0f32, f32::NAN, f32::INFINITY, -2.5, f32::NEG_INFINITY, 0.0];
        let cfg = SzConfig::new(ErrorBound::Absolute(1e-3));
        let out = compress(&data, &[6], &cfg).unwrap();
        let (rec, _) = decompress(&out.bytes).unwrap();
        assert_eq!(rec.len(), 6);
        assert!(rec[1].is_nan());
        assert_eq!(rec[2], f32::INFINITY);
        assert_eq!(rec[4], f32::NEG_INFINITY);
        assert!((rec[0] - 1.0).abs() <= 2e-3);
        assert!((rec[3] + 2.5).abs() <= 2e-3);
    }

    #[test]
    fn tighter_bound_means_bigger_output() {
        let data: Vec<f32> = (0..10_000).map(|i| (i as f32 * 0.013).sin() * 100.0).collect();
        let loose = compress(&data, &[10_000], &SzConfig::new(ErrorBound::Absolute(1e-1)))
            .unwrap();
        let tight = compress(&data, &[10_000], &SzConfig::new(ErrorBound::Absolute(1e-5)))
            .unwrap();
        assert!(tight.bytes.len() > loose.bytes.len());
    }

    #[test]
    fn corrupt_magic_rejected() {
        let data = ramp(64);
        let cfg = SzConfig::new(ErrorBound::Absolute(1e-3));
        let mut out = compress(&data, &[64], &cfg).unwrap();
        out.bytes[0] = b'X';
        assert!(matches!(decompress(&out.bytes), Err(SzError::Corrupt(_))));
    }

    #[test]
    fn truncated_stream_rejected() {
        let data = ramp(64);
        let cfg = SzConfig::new(ErrorBound::Absolute(1e-3));
        let out = compress(&data, &[64], &cfg).unwrap();
        let cut = &out.bytes[..out.bytes.len() / 2];
        assert!(decompress(cut).is_err());
    }

    #[test]
    fn dims_mismatch_rejected() {
        let data = ramp(10);
        let cfg = SzConfig::new(ErrorBound::Absolute(1e-3));
        assert_eq!(compress(&data, &[11], &cfg).unwrap_err(), SzError::InvalidDims);
        assert_eq!(compress(&data, &[], &cfg).unwrap_err(), SzError::InvalidDims);
    }

    #[test]
    fn lossless_stage_never_grows_output() {
        let data = ramp(4096);
        let with = compress(&data, &[4096], &SzConfig::new(ErrorBound::Absolute(1e-3)))
            .unwrap();
        let without = compress(
            &data,
            &[4096],
            &SzConfig::new(ErrorBound::Absolute(1e-3)).with_lossless(false),
        )
        .unwrap();
        assert!(with.bytes.len() <= without.bytes.len() + 1);
    }

    #[test]
    fn stats_are_consistent() {
        let data = ramp(512);
        let out = compress(&data, &[512], &SzConfig::new(ErrorBound::Absolute(1e-2)))
            .unwrap();
        let s = out.stats;
        assert_eq!(s.elements, 512);
        assert_eq!(s.input_bytes, 2048);
        assert_eq!(s.predictable + s.unpredictable, s.elements);
        assert_eq!(s.output_bytes as usize, out.bytes.len());
    }
}
