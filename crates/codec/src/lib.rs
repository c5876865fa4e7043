#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # lcpio-codec — unified codec abstraction and container registry
//!
//! The paper treats SZ and ZFP as interchangeable error-bounded
//! compressors feeding the same power/energy model (P(f) = a·f^b + c,
//! Tables IV–V). This crate makes that interchangeability structural: an
//! object-safe [`Codec`] trait with one adapter per backend, and a static
//! [`CodecRegistry`] that resolves codecs by CLI name and compressed
//! containers by their magic bytes. Drivers, the CLI, and the benches all
//! dispatch through the registry, so adding a third backend is a
//! one-crate change rather than a shotgun edit across every call site.
//!
//! ```
//! use lcpio_codec::{registry, BoundSpec};
//!
//! let data: Vec<f32> = (0..4096).map(|i| (i as f32 * 0.01).sin()).collect();
//! let codec = registry().by_name("sz").unwrap();
//! let out = codec.compress(&data, &[4096], BoundSpec::Absolute(1e-3)).unwrap();
//! // Decode without knowing which codec produced the stream:
//! let (restored, dims) = registry().decompress_auto(&out.bytes, 1).unwrap();
//! assert_eq!(dims, vec![4096]);
//! assert_eq!(restored.len(), data.len());
//! ```

pub mod chunked;
pub mod policy;
mod registry;
mod sz_adapter;
pub mod wire;
mod zfp_adapter;

pub use policy::{ChunkPlan, ChunkPolicy, CodecId, FixedPolicy, HeuristicPolicy};
pub use registry::{registry, render_container_table, CodecRegistry};
pub use sz_adapter::SzCodec;
pub use zfp_adapter::ZfpCodec;

use lcpio_sz::SzError;
use lcpio_wire::WireError;
use lcpio_zfp::ZfpError;

/// How the compression error is bounded, across all backends.
///
/// Each codec supports a subset: SZ accepts all three; ZFP accepts only
/// [`BoundSpec::Absolute`] (its fixed-accuracy mode) and reports
/// [`CodecError::UnsupportedBound`] otherwise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BoundSpec {
    /// `|x̂ − x| ≤ eb` for every element (the paper's mode).
    Absolute(f64),
    /// `|x̂ − x| ≤ r · (max − min)` over the dataset (SZ "REL").
    ValueRangeRelative(f64),
    /// `|x̂ − x| ≤ r · |x|` for every element (SZ "PW_REL").
    PointwiseRelative(f64),
}

impl std::fmt::Display for BoundSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BoundSpec::Absolute(eb) => write!(f, "absolute {eb}"),
            BoundSpec::ValueRangeRelative(r) => write!(f, "value-range-relative {r}"),
            BoundSpec::PointwiseRelative(r) => write!(f, "pointwise-relative {r}"),
        }
    }
}

/// Codec-neutral statistics from one compression run.
///
/// The fields are the least common denominator the
/// [`CostModel`](https://docs.rs/lcpio-core) needs to turn a run into a
/// work profile: SZ maps `unpredictable → literal_elements` and
/// `huffman_bits → coded_bits`; ZFP maps `payload_bits → coded_bits` and
/// has no literal path (`literal_elements = 0`).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CodecStats {
    /// Input element count.
    pub elements: u64,
    /// Input bytes (`elements × element size`).
    pub input_bytes: u64,
    /// Output bytes including the container envelope.
    pub output_bytes: u64,
    /// Elements that escaped the predictive/transform path and were stored
    /// as raw literals (SZ's unpredictable count; 0 for ZFP).
    pub literal_elements: u64,
    /// Bits spent in the entropy-coded payload (SZ Huffman bits, ZFP
    /// bit-plane payload bits).
    pub coded_bits: u64,
}

impl CodecStats {
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

    /// Fraction of elements that did *not* escape to literals.
    pub fn hit_rate(&self) -> f64 {
        if self.elements == 0 {
            0.0
        } else {
            1.0 - self.literal_elements as f64 / self.elements as f64
        }
    }
}

/// A compressed stream plus the statistics of the run that produced it.
#[derive(Debug, Clone)]
pub struct Encoded {
    /// The serialized compressed stream (self-describing via its magic).
    pub bytes: Vec<u8>,
    /// Codec-neutral counters collected during compression.
    pub stats: CodecStats,
}

/// One container format a codec can produce and decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContainerInfo {
    /// The 4-byte magic prefix identifying the container.
    pub magic: [u8; 4],
    /// Human-readable one-liner (also used by the CLI's `info` command).
    pub description: &'static str,
}

impl ContainerInfo {
    /// The magic rendered as ASCII (all registered magics are ASCII).
    pub fn magic_str(&self) -> &str {
        std::str::from_utf8(&self.magic).unwrap_or("????")
    }
}

/// Errors surfaced by the codec abstraction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CodecError {
    /// The SZ backend failed.
    Sz(SzError),
    /// The ZFP backend failed.
    Zfp(ZfpError),
    /// The requested error-bound mode is not supported by this codec.
    UnsupportedBound {
        /// Codec that rejected the request.
        codec: &'static str,
        /// The offending bound.
        bound: BoundSpec,
    },
    /// No registered container matches the stream's 4-byte magic.
    /// `Display` lists every known magic so the holder of a mystery file
    /// can see what this build could have decoded.
    UnknownMagic([u8; 4]),
    /// The stream is shorter than a 4-byte magic.
    TooShort,
    /// Two registered codecs claim the same container magic (rejected at
    /// registration time — resolution is never first-match-wins).
    DuplicateMagic {
        /// The contested magic.
        magic: [u8; 4],
        /// Codec that registered it first.
        first: &'static str,
        /// Codec that tried to register it again.
        second: &'static str,
    },
    /// The LCW1 wire envelope layer failed.
    Wire(WireError),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Sz(e) => write!(f, "{e}"),
            CodecError::Zfp(e) => write!(f, "{e}"),
            CodecError::UnsupportedBound { codec, bound } => {
                write!(f, "codec `{codec}` does not support {bound} error bounds")
            }
            CodecError::UnknownMagic(m) => {
                let known: Vec<String> = registry::registry()
                    .known_magics()
                    .iter()
                    .map(|m| String::from_utf8_lossy(m).into_owned())
                    .collect();
                write!(
                    f,
                    "unknown stream magic {:?} (known: {})",
                    String::from_utf8_lossy(m),
                    known.join(", ")
                )
            }
            CodecError::TooShort => write!(f, "stream too short"),
            CodecError::DuplicateMagic { magic, first, second } => write!(
                f,
                "container magic {:?} registered by both `{first}` and `{second}`",
                String::from_utf8_lossy(magic)
            ),
            CodecError::Wire(e) => write!(f, "wire envelope: {e}"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<WireError> for CodecError {
    fn from(e: WireError) -> Self {
        CodecError::Wire(e)
    }
}

impl From<SzError> for CodecError {
    fn from(e: SzError) -> Self {
        CodecError::Sz(e)
    }
}

impl From<ZfpError> for CodecError {
    fn from(e: ZfpError) -> Self {
        CodecError::Zfp(e)
    }
}

/// An error-bounded lossy compressor backend.
///
/// The trait is object-safe — the registry hands out `&'static dyn Codec`
/// — and deliberately narrow: `f32` fields (every paper dataset), one
/// bound per call, and self-describing output streams. `f64` stays with
/// the backend crates and the adapters' generic `decompress_chunked`. Backend-specific knobs (SZ predictor
/// modes, ZFP fixed-rate/precision) stay on the backend crates; code that
/// ablates those knobs is expected to call the backend directly.
///
/// # Examples
///
/// Round-trip a field through whichever backend the registry hands out:
///
/// ```
/// use lcpio_codec::{registry, BoundSpec, Codec};
///
/// let codec: &'static dyn Codec = registry().by_name("sz").unwrap();
/// let field: Vec<f32> = (0..512).map(|i| (i as f32 * 0.05).sin()).collect();
/// let enc = codec.compress(&field, &[512], BoundSpec::Absolute(1e-3)).unwrap();
/// assert!(enc.stats.ratio() > 1.0);
///
/// let (restored, dims) = codec.decompress(&enc.bytes, 1).unwrap();
/// assert_eq!(dims, vec![512]);
/// assert!(restored.iter().zip(&field).all(|(r, x)| (r - x).abs() <= 1e-3 * 1.001));
/// ```
pub trait Codec: Send + Sync {
    /// Registry/CLI name (lowercase, e.g. `"sz"`).
    fn name(&self) -> &'static str;

    /// Container formats this codec produces and decodes.
    fn containers(&self) -> &'static [ContainerInfo];

    /// Compress a whole field serially.
    fn compress(
        &self,
        data: &[f32],
        dims: &[usize],
        bound: BoundSpec,
    ) -> Result<Encoded, CodecError>;

    /// Compress using up to `threads` workers (0 ⇒ all available).
    ///
    /// Falls back to the serial container when the bound has no chunked
    /// path (SZ pointwise-relative).
    fn compress_chunked(
        &self,
        data: &[f32],
        dims: &[usize],
        bound: BoundSpec,
        threads: usize,
    ) -> Result<Encoded, CodecError>;

    /// Compress for *work characterization* (cost-model sampling) rather
    /// than for a specific thread budget.
    ///
    /// The default is the serial path. A codec whose chunked container is
    /// thread-count-invariant may instead return that (SZ does), so sweep
    /// drivers characterize the same stream the parallel dump writes.
    fn compress_for_profile(
        &self,
        data: &[f32],
        dims: &[usize],
        bound: BoundSpec,
    ) -> Result<Encoded, CodecError> {
        self.compress(data, dims, bound)
    }

    /// Decompress any of this codec's containers, legacy or wrapped in an
    /// `LCW1` envelope, into `f32`, using up to `threads` workers where
    /// the container supports it.
    fn decompress(&self, stream: &[u8], threads: usize)
        -> Result<(Vec<f32>, Vec<usize>), CodecError>;

    /// [`Codec::decompress`] into `out`, which must hold exactly the
    /// stream's element count: any other length is the backend's
    /// `InvalidDims` error before a value is written. Returns the dims. A
    /// chunked container decodes each chunk straight into its slice of
    /// `out`.
    fn decompress_into(
        &self,
        stream: &[u8],
        out: &mut [f32],
        threads: usize,
    ) -> Result<Vec<usize>, CodecError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_helpers() {
        let s = CodecStats {
            elements: 100,
            input_bytes: 400,
            output_bytes: 100,
            literal_elements: 25,
            coded_bits: 640,
        };
        assert!((s.ratio() - 4.0).abs() < 1e-12);
        assert!((s.bits_per_element() - 8.0).abs() < 1e-12);
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        let zero = CodecStats::default();
        assert_eq!(zero.ratio(), 0.0);
        assert_eq!(zero.bits_per_element(), 0.0);
        assert_eq!(zero.hit_rate(), 0.0);
    }

    #[test]
    fn error_display_matches_backends() {
        // CoreError's historical Display strings wrap these verbatim, so
        // they must pass straight through.
        assert_eq!(
            CodecError::Sz(SzError::InvalidDims).to_string(),
            SzError::InvalidDims.to_string()
        );
        assert_eq!(
            CodecError::Zfp(ZfpError::InvalidMode).to_string(),
            ZfpError::InvalidMode.to_string()
        );
        let ub = CodecError::UnsupportedBound {
            codec: "zfp",
            bound: BoundSpec::PointwiseRelative(1e-3),
        };
        assert!(ub.to_string().contains("zfp"));
        assert!(ub.to_string().contains("pointwise-relative"));
    }
}
