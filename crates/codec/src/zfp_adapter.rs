//! [`Codec`] adapter over `lcpio-zfp`.

use crate::chunked::{self, Backend, Format, ScratchPool};
use crate::wire::{self, Opened};
use crate::{BoundSpec, Codec, CodecError, CodecStats, ContainerInfo, Encoded};
use lcpio_zfp as zfp;
use lcpio_zfp::ZfpStats;

/// The ZFP backend: block floating point, lifted transform, embedded
/// bit-plane coding. Only fixed-accuracy (absolute) bounds travel through
/// the portable trait; fixed-rate/precision stay backend-specific.
///
/// ZFP's per-block transform needs only a fixed 4³ local buffer — there
/// are no per-chunk working arrays worth reusing — so its chunk scratch is
/// `()` and the adapter carries no buffer pool.
///
/// Speed through this adapter is on the ledger for both block shapes the
/// pipelines meet: `zfp.chunk1d_compress_mbps` /
/// `zfp.chunk1d_decompress_mbps` for a rank-1 stream chunk (four values
/// to the block, where per-block cost is everything) and
/// `zfp.compress3d_mbps` / `zfp.decompress3d_mbps` for the 3-D cube.
pub struct ZfpCodec;

/// Containers the ZFP adapter produces/decodes. Descriptions are the
/// CLI's historical `info` strings — tests pin them.
static ZFP_CONTAINERS: [ContainerInfo; 2] = [
    ContainerInfo { magic: zfp::MAGIC, description: "ZFP compressed stream" },
    ContainerInfo {
        magic: chunked::ZFLP.magic,
        description: "ZFP chunked (parallel) stream",
    },
];

/// The `ZFLP` per-chunk operations: each chunk is a standalone `ZFL1`
/// stream.
impl<T: zfp::ZfpElement> Backend<T> for ZfpCodec {
    const FORMAT: &'static Format = &chunked::ZFLP;
    const TYPE_TAG: u8 = T::TYPE_TAG;
    type Params = zfp::ZfpMode;
    type Scratch = ();

    fn compress(
        sub: &[T],
        dims: &[usize],
        mode: &zfp::ZfpMode,
        _scratch: &mut (),
    ) -> Result<Encoded, CodecError> {
        Ok(encoded(zfp::compress_typed(sub, dims, mode)?))
    }

    fn decompress_into(
        chunk: &[u8],
        out: &mut [T],
        _scratch: &mut (),
    ) -> Result<Vec<usize>, CodecError> {
        Ok(zfp::decompress_into(chunk, out)?)
    }
}

impl ZfpCodec {
    /// New adapter (usable in a `static`).
    pub const fn new() -> Self {
        ZfpCodec
    }

    /// ZFP supports only absolute (fixed-accuracy) bounds.
    fn mode(bound: BoundSpec) -> Result<zfp::ZfpMode, CodecError> {
        match bound {
            BoundSpec::Absolute(eb) => Ok(zfp::ZfpMode::FixedAccuracy(eb)),
            other => Err(CodecError::UnsupportedBound { codec: "zfp", bound: other }),
        }
    }

    /// Decode legacy `ZFLP` bytes as `T` through the chunked parser
    /// directly: no registry lookup and no sniffing among this codec's
    /// containers, so anything that is not `ZFLP` is a typed error.
    pub fn decompress_chunked<T: zfp::ZfpElement + Default>(
        stream: &[u8],
        threads: usize,
    ) -> Result<(Vec<T>, Vec<usize>), CodecError> {
        chunked::decode::<T, Self>(&chunked::parse(stream)?, threads, &ScratchPool::new())
    }
}

impl Default for ZfpCodec {
    fn default() -> Self {
        Self::new()
    }
}

/// ZFP stats → codec-neutral stats: no literal path, coded bits are the
/// bit-plane payload.
fn convert(stats: &ZfpStats) -> CodecStats {
    CodecStats {
        elements: stats.elements,
        input_bytes: stats.input_bytes,
        output_bytes: stats.output_bytes,
        literal_elements: 0,
        coded_bits: stats.payload_bits,
    }
}

fn encoded(out: zfp::ZfpCompressed) -> Encoded {
    Encoded { stats: convert(&out.stats), bytes: out.bytes }
}

impl Codec for ZfpCodec {
    fn name(&self) -> &'static str {
        "zfp"
    }

    fn containers(&self) -> &'static [ContainerInfo] {
        &ZFP_CONTAINERS
    }

    fn compress(
        &self,
        data: &[f32],
        dims: &[usize],
        bound: BoundSpec,
    ) -> Result<Encoded, CodecError> {
        Ok(encoded(zfp::compress(data, dims, &Self::mode(bound)?)?))
    }

    fn compress_chunked(
        &self,
        data: &[f32],
        dims: &[usize],
        bound: BoundSpec,
        threads: usize,
    ) -> Result<Encoded, CodecError> {
        chunked::encode::<f32, Self>(data, dims, &Self::mode(bound)?, threads, &ScratchPool::new())
    }

    // compress_for_profile: default (serial). Unlike SZ, ZFP's chunked
    // framing depends on the worker count, so the thread-neutral stream
    // to characterize is the serial one.

    fn decompress(
        &self,
        stream: &[u8],
        threads: usize,
    ) -> Result<(Vec<f32>, Vec<usize>), CodecError> {
        match wire::open(stream)? {
            Opened::Chunked(container) => {
                chunked::decode::<f32, Self>(&container, threads, &ScratchPool::new())
            }
            Opened::Legacy(s) => Ok(zfp::decompress(&s)?),
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
                chunked::decode_into::<f32, Self>(&container, out, threads, &ScratchPool::new())?;
                Ok(container.dims().to_vec())
            }
            Opened::Legacy(s) => Ok(zfp::decompress_into(&s, out)?),
        }
    }
}
