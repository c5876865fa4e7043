//! [`Codec`] adapter over `lcpio-sz`.

use crate::chunked::{self, Backend, Format, ScratchPool};
use crate::wire::{self, Opened};
use crate::{BoundSpec, Codec, CodecError, CodecStats, ContainerInfo, Encoded};
use lcpio_sz as sz;
use lcpio_sz::{CompressionStats, SzScratch};

/// The SZ backend: Lorenzo/regression prediction, error-bounded
/// quantization, Huffman coding, LZSS lossless stage.
///
/// Owns a scratch pool so chunked compression *and* decompression reuse
/// worker buffers across calls instead of reallocating per field (or per
/// restart chunk).
pub struct SzCodec {
    pool_f32: ScratchPool<SzScratch<f32>>,
}

/// Containers the SZ adapter produces/decodes. Descriptions are the CLI's
/// historical `info` strings — tests pin them.
static SZ_CONTAINERS: [ContainerInfo; 3] = [
    ContainerInfo { magic: sz::header::MAGIC, description: "SZ compressed stream" },
    ContainerInfo {
        magic: chunked::SZLP.magic,
        description: "SZ chunked (parallel) stream",
    },
    ContainerInfo {
        magic: sz::pwrel::PWREL_MAGIC,
        description: "SZ pointwise-relative stream",
    },
];

/// The `SZLP` per-chunk operations: each chunk is a standalone `SZL1`
/// stream coded with the worker's reusable [`SzScratch`].
impl<T: sz::Element> Backend<T> for SzCodec {
    const FORMAT: &'static Format = &chunked::SZLP;
    const TYPE_TAG: u8 = T::TYPE_TAG;
    type Params = sz::SzConfig;
    type Scratch = SzScratch<T>;

    fn compress(
        sub: &[T],
        dims: &[usize],
        cfg: &sz::SzConfig,
        scratch: &mut SzScratch<T>,
    ) -> Result<Encoded, CodecError> {
        Ok(encoded(sz::compress_typed_with(sub, dims, cfg, scratch)?))
    }

    fn decompress(
        chunk: &[u8],
        scratch: &mut SzScratch<T>,
    ) -> Result<(Vec<T>, Vec<usize>), CodecError> {
        Ok(sz::decompress_typed_with(chunk, scratch)?)
    }
}

impl SzCodec {
    /// New adapter with empty scratch pools (usable in a `static`).
    pub const fn new() -> Self {
        SzCodec { pool_f32: ScratchPool::new() }
    }

    /// Map a portable bound onto an SZ config, or onto the ratio `r` of a
    /// pointwise-relative bound, which runs the `SZPR` wrapper pipeline.
    fn config(bound: BoundSpec) -> Result<sz::SzConfig, f64> {
        match bound {
            BoundSpec::Absolute(eb) => Ok(sz::SzConfig::new(sz::ErrorBound::Absolute(eb))),
            BoundSpec::ValueRangeRelative(r) => {
                Ok(sz::SzConfig::new(sz::ErrorBound::ValueRangeRelative(r)))
            }
            BoundSpec::PointwiseRelative(r) => Err(r),
        }
    }

    /// One serial stream of either element type: `SZL1`, or `SZPR` for a
    /// pointwise-relative bound. The wrapper runs its log-domain pipeline
    /// under an inner config whose bound it substitutes itself.
    fn serial<T: sz::Element>(
        data: &[T],
        dims: &[usize],
        bound: BoundSpec,
    ) -> Result<Encoded, CodecError> {
        Ok(encoded(match Self::config(bound) {
            Ok(cfg) => sz::compress_typed(data, dims, &cfg)?,
            Err(r) => {
                let inner = sz::SzConfig::new(sz::ErrorBound::Absolute(1.0));
                sz::compress_pointwise_rel(data, dims, r, &inner)?
            }
        }))
    }

    /// The `SZLP` container of either element type. Pointwise-relative has
    /// no chunked container; its serial wrapper stream is the only format.
    fn chunked<T: sz::Element>(
        data: &[T],
        dims: &[usize],
        bound: BoundSpec,
        threads: usize,
        pool: &ScratchPool<SzScratch<T>>,
    ) -> Result<Encoded, CodecError> {
        match Self::config(bound) {
            Ok(cfg) => chunked::encode::<T, Self>(data, dims, &cfg, threads, pool),
            Err(_) => Self::serial(data, dims, bound),
        }
    }

    /// Any SZ container, legacy or `LCW1`-wrapped, as either element type.
    fn decode<T: sz::Element>(
        stream: &[u8],
        threads: usize,
        pool: &ScratchPool<SzScratch<T>>,
    ) -> Result<(Vec<T>, Vec<usize>), CodecError> {
        match wire::open(stream)? {
            Opened::Chunked(container) => chunked::decode::<T, Self>(&container, threads, pool),
            Opened::Legacy(s) if s.starts_with(&sz::pwrel::PWREL_MAGIC) => {
                Ok(sz::decompress_pointwise_rel(&s)?)
            }
            Opened::Legacy(s) => Ok(sz::decompress_typed(&s)?),
        }
    }

    /// [`Codec::compress_chunked`] for an `f64` field.
    pub fn compress_chunked_f64(
        &self,
        data: &[f64],
        dims: &[usize],
        bound: BoundSpec,
        threads: usize,
    ) -> Result<Encoded, CodecError> {
        Self::chunked(data, dims, bound, threads, &ScratchPool::new())
    }

    /// Decode legacy `SZLP` bytes as `T` through the chunked parser
    /// directly: no registry lookup and no sniffing among this codec's
    /// containers, so anything that is not `SZLP` is a typed error.
    pub fn decompress_chunked<T: sz::Element>(
        stream: &[u8],
        threads: usize,
    ) -> Result<(Vec<T>, Vec<usize>), CodecError> {
        chunked::decode::<T, Self>(&chunked::parse(stream)?, threads, &ScratchPool::new())
    }
}

/// Compress a policy probe window with a quantizer radius clamped to the
/// window length. A window of `n` elements can populate at most `n` bins,
/// and the residuals past the clamped radius fall back to literals,
/// exactly the elements the full-radius run spends the most bits on, so
/// the statistics are near those of the default radius (32768).
///
/// The clamp was introduced for its cost, when SZ's entropy stage was
/// sized by the dense `2·radius+1` alphabet and a 2 Ki window cost 303 µs
/// at the default radius against 80 µs clamped. The stage is now sized by
/// the symbols a call used (`lcpio_sz::huffman::HuffmanEncoder`): a
/// 64-element call costs 23 µs at the default radius (262 µs before) and
/// the 2 Ki window 115 µs against 78 µs clamped, by the in-process
/// two-version loop of `.claude/skills/verify/SKILL.md`. The clamp stays
/// because every plan downstream is pinned to what the clamped probe
/// reports: `tests/policy_mixed.rs`, the per-chunk plans behind
/// `crates/core/tests/model_golden.rs` and the ledgers' `stored_ratio` /
/// `modeled_j_per_gb` on the stream workloads all move with its literals.
///
/// `None` when the bound has no direct SZ config (pointwise-relative runs
/// a wrapper pipeline) or the backend rejects the window; callers fall
/// back to the full-price registry path.
pub(crate) fn probe_stats(
    window: &[f32],
    bound: BoundSpec,
    radius: u32,
) -> Option<CodecStats> {
    let cfg = SzCodec::config(bound).ok()?.with_radius(radius);
    sz::compress(window, &[window.len()], &cfg).ok().map(|out| convert(&out.stats))
}

impl Default for SzCodec {
    fn default() -> Self {
        Self::new()
    }
}

/// SZ stats → codec-neutral stats: literals are the unpredictable
/// elements, coded bits are the Huffman payload.
fn convert(stats: &CompressionStats) -> CodecStats {
    CodecStats {
        elements: stats.elements,
        input_bytes: stats.input_bytes,
        output_bytes: stats.output_bytes,
        literal_elements: stats.unpredictable,
        coded_bits: stats.huffman_bits,
    }
}

fn encoded(out: sz::Compressed) -> Encoded {
    Encoded { stats: convert(&out.stats), bytes: out.bytes }
}

impl Codec for SzCodec {
    fn name(&self) -> &'static str {
        "sz"
    }

    fn containers(&self) -> &'static [ContainerInfo] {
        &SZ_CONTAINERS
    }

    fn compress(
        &self,
        data: &[f32],
        dims: &[usize],
        bound: BoundSpec,
    ) -> Result<Encoded, CodecError> {
        Self::serial(data, dims, bound)
    }

    fn compress_chunked(
        &self,
        data: &[f32],
        dims: &[usize],
        bound: BoundSpec,
        threads: usize,
    ) -> Result<Encoded, CodecError> {
        Self::chunked(data, dims, bound, threads, &self.pool_f32)
    }

    fn compress_for_profile(
        &self,
        data: &[f32],
        dims: &[usize],
        bound: BoundSpec,
    ) -> Result<Encoded, CodecError> {
        // SZ's chunk layout is a pure function of the array shape, so the
        // chunked stream (and its stats) is identical at every worker
        // count. Characterize that stream — it is what the parallel dump
        // writes — with one inner worker, since profile sampling runs
        // inside an already-parallel sweep pool.
        self.compress_chunked(data, dims, bound, 1)
    }

    fn compress_f64(
        &self,
        data: &[f64],
        dims: &[usize],
        bound: BoundSpec,
    ) -> Result<Encoded, CodecError> {
        Self::serial(data, dims, bound)
    }

    fn decompress(
        &self,
        stream: &[u8],
        threads: usize,
    ) -> Result<(Vec<f32>, Vec<usize>), CodecError> {
        // Decode workers draw scratch from the same pool the encode side
        // parks into — the restart pipeline's per-chunk decodes stop
        // allocating once the pool is warm.
        Self::decode(stream, threads, &self.pool_f32)
    }

    fn decompress_f64(
        &self,
        stream: &[u8],
        threads: usize,
    ) -> Result<(Vec<f64>, Vec<usize>), CodecError> {
        Self::decode(stream, threads, &ScratchPool::new())
    }
}
