//! [`Codec`] adapter over `lcpio-sz`.

use crate::chunked::{self, Backend, Format, ScratchPool};
use crate::wire::{self, Opened};
use crate::{BoundSpec, Codec, CodecError, CodecStats, ContainerInfo, Encoded};
use lcpio_sz as sz;
use lcpio_sz::{CompressionStats, SzScratch};

/// The SZ backend: Lorenzo prediction on the lattice, error-bounded
/// quantization, Huffman coding, LZSS lossless stage.
///
/// Owns a scratch pool so chunked compression *and* decompression reuse
/// worker buffers across calls instead of reallocating per field. A
/// serial `SZL1` stream, which is what a restart frame or a serve request
/// holds, decodes with fresh buffers (see its `decompress`).
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

    fn decompress_into(
        chunk: &[u8],
        out: &mut [T],
        scratch: &mut SzScratch<T>,
    ) -> Result<Vec<usize>, CodecError> {
        Ok(sz::decompress_into(chunk, out, scratch)?)
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

    /// Decode legacy `SZLP` bytes as `T` through the chunked parser
    /// directly: no registry lookup and no sniffing among this codec's
    /// containers, so anything that is not `SZLP` is a typed error.
    pub fn decompress_chunked<T: sz::Element + Default>(
        stream: &[u8],
        threads: usize,
    ) -> Result<(Vec<T>, Vec<usize>), CodecError> {
        chunked::decode::<T, Self>(&chunked::parse(stream)?, threads, &ScratchPool::new())
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

    /// Only an `SZLP` container's chunks draw scratch from the pool the
    /// encode side parks into. Every serial `SZL1` stream, which is each
    /// `stream_*` chunk and each serve request, builds a fresh
    /// [`SzScratch`] (here and in [`Codec::decompress_into`]). Decoding
    /// 16 Ki and 24 Ki elements of a CESM chunk takes a median 3–5 %
    /// longer that way than with warm scratch (341–364 against 330–351
    /// µs, 504–514 against 479–496 µs, two runs of 400 alternating
    /// repetitions on a 2-vCPU Xeon host, allocator pinned as the repo
    /// benchmark pins it). A pooled prototype lifted `stream_restart`
    /// from 142 to 151 MB/s (5 of 6 pairs) but raised `serve_mixed`'s
    /// `peak_heap_mb` from 6.6 to 7.6 MB through the scratch it retained.
    /// Allocation calls per call are pinned since (`lcpio-sz`'s
    /// `alloc_counts.rs`), so what pooling serial streams still waits on is
    /// a bound on the scratch a pool retains, and a pin per serve request
    /// and per restart chunk (ROADMAP item 2): the pool does not carry a
    /// serve request's compress buffers between requests either.
    fn decompress(
        &self,
        stream: &[u8],
        threads: usize,
    ) -> Result<(Vec<f32>, Vec<usize>), CodecError> {
        match wire::open(stream)? {
            Opened::Chunked(container) => {
                chunked::decode::<f32, Self>(&container, threads, &self.pool_f32)
            }
            Opened::Legacy(s) if s.starts_with(&sz::pwrel::PWREL_MAGIC) => {
                Ok(sz::decompress_pointwise_rel(&s)?)
            }
            Opened::Legacy(s) => Ok(sz::decompress_typed(&s)?),
        }
    }

    fn decompress_into(
        &self,
        stream: &[u8],
        out: &mut [f32],
        threads: usize,
    ) -> Result<Vec<usize>, CodecError> {
        match wire::open(stream)? {
            Opened::Chunked(container) => {
                chunked::decode_into::<f32, Self>(&container, out, threads, &self.pool_f32)?;
                Ok(container.dims().to_vec())
            }
            // The log-domain values pass through an `f64` array either way.
            Opened::Legacy(s) if s.starts_with(&sz::pwrel::PWREL_MAGIC) => {
                let (values, dims) = sz::decompress_pointwise_rel(&s)?;
                if values.len() != out.len() {
                    return Err(CodecError::Sz(sz::SzError::InvalidDims));
                }
                out.copy_from_slice(&values);
                Ok(dims)
            }
            Opened::Legacy(s) => Ok(sz::decompress_into(&s, out, &mut SzScratch::new())?),
        }
    }
}
