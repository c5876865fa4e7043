//! The chunked-field container: `SZLP` and `ZFLP`, one implementation.
//!
//! A field is split along its slowest dimension at coding-block
//! boundaries; each chunk is a *complete, standalone* serial stream of its
//! sub-array (`SZL1` / `ZFL1`), so chunks compress and decompress
//! independently, and a thin container records their extents:
//!
//! ```text
//! magic[4]  type_tag u8  rank u8  dims[rank] u64
//! n_chunks u32  n_chunks x (start u64, end u64, byte_len u64)  payloads
//! ```
//!
//! This module is the only code that knows those bytes. It holds the one
//! writer ([`Chunked::build`]), the one parser ([`parse`]) and table
//! validator (shared with the `LCW1` form, whose `CHUNK_TABLE` TLV and
//! frames are handed to it directly by [`crate::wire`]), the one worker
//! loop, and the one encode and decode built on it. A backend supplies
//! only "compress this sub-array" and "decode this chunk" through the
//! crate-private `Backend` trait its adapter implements.
//!
//! # What differs per backend, on purpose
//!
//! Both differences are format properties: changing either changes the
//! bytes existing files hold.
//!
//! * **Layout rule.** `SZLP` ranges are a pure function of the shape:
//!   `ceil(blocks / MIN_CHUNK_BLOCKS)` chunks, at most [`MAX_CHUNKS`], at
//!   block side 6. SZ's Lorenzo predictor carries history across rows and
//!   that history resets at every chunk boundary, so the reconstructed
//!   *values* depend on where the boundaries fall; a layout that ignores
//!   the worker count makes bytes and values reproducible at every
//!   `threads`. `ZFLP` asks for `threads` ranges at block side 4: ZFP's
//!   coding blocks are independent, so any block-aligned split decodes to
//!   the serial codec's values and only the framing varies.
//! * **Error variant.** A table fault is reported as the owning backend's
//!   `Corrupt(msg)` ([`CodecError::Sz`] / [`CodecError::Zfp`]) with one
//!   shared set of messages, so CLI and serve error text names the codec.
//!
//! # Decode
//!
//! One strategy for both: every chunk's *own* validated stream header
//! sizes its output (a container header never drives an allocation), the
//! container's sub-shape is cross-checked afterwards, and the results are
//! concatenated in index order. Decoding is therefore bit-identical to
//! decoding each chunk's standalone stream serially, at any thread count.
//! The claimed element count goes through the one decoded-size gate,
//! [`lcpio_wire::guard_element_count`], in both the legacy and `LCW1`
//! forms.

use crate::{CodecError, CodecStats, Encoded};
use lcpio_sz::{trace, SzError};
use lcpio_wire::guard_element_count;
use lcpio_zfp::ZfpError;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Bytes of one chunk-table entry: start, end and payload length as u64.
const CHUNK_ENTRY_LEN: usize = 24;

/// Minimum `SZLP` chunk thickness in Lorenzo blocks: thinner chunks would
/// pay more in per-chunk tables and lost prediction history than they gain
/// in parallelism.
const MIN_CHUNK_BLOCKS: usize = 2;

/// Ceiling on the number of chunks in an `SZLP` container. Sixteen keeps a
/// many-core machine busy while per-chunk headers and Huffman tables stay
/// a rounding error next to the payload.
pub const MAX_CHUNKS: usize = 16;

/// The per-backend constants of the container (see the module docs).
#[derive(Debug)]
pub(crate) struct Format {
    pub(crate) magic: [u8; 4],
    block_side: usize,
    /// Ranges to ask for, given the block count along `dims[0]` and the
    /// resolved worker count.
    want_chunks: fn(blocks: usize, threads: usize) -> usize,
    /// The failures the container reports, under its backend's error type.
    invalid_dims: CodecError,
    type_mismatch: CodecError,
    corrupt: fn(&'static str) -> CodecError,
    span_encode: &'static str,
    span_chunk_encode: &'static str,
    span_chunk_decode: &'static str,
    counter_chunks: &'static str,
}

/// `SZLP`: shape-only layout at Lorenzo-block boundaries.
pub(crate) const SZLP: Format = Format {
    magic: *b"SZLP",
    block_side: lcpio_sz::regression::BLOCK_SIDE,
    want_chunks: |blocks, _threads| blocks.div_ceil(MIN_CHUNK_BLOCKS).min(MAX_CHUNKS),
    invalid_dims: CodecError::Sz(SzError::InvalidDims),
    type_mismatch: CodecError::Sz(SzError::TypeMismatch),
    corrupt: |msg| CodecError::Sz(SzError::Corrupt(msg)),
    span_encode: "sz.compress_chunked",
    span_chunk_encode: "sz.chunk.compress",
    span_chunk_decode: "sz.chunk.decompress",
    counter_chunks: "sz.chunks",
};

/// `ZFLP`: one range per worker at ZFP-block boundaries.
pub(crate) const ZFLP: Format = Format {
    magic: *b"ZFLP",
    block_side: lcpio_zfp::block::SIDE,
    want_chunks: |_blocks, threads| threads,
    invalid_dims: CodecError::Zfp(ZfpError::InvalidDims),
    type_mismatch: CodecError::Zfp(ZfpError::TypeMismatch),
    corrupt: |msg| CodecError::Zfp(ZfpError::Corrupt(msg)),
    span_encode: "zfp.compress_chunked",
    span_chunk_encode: "zfp.chunk.compress",
    span_chunk_decode: "zfp.chunk.decompress",
    counter_chunks: "zfp.chunks",
};

impl Format {
    fn by_magic(magic: [u8; 4]) -> Result<&'static Format, CodecError> {
        [&SZLP, &ZFLP]
            .into_iter()
            .find(|f| f.magic == magic)
            .ok_or(CodecError::UnknownMagic(magic))
    }

    /// Split `extent` into contiguous ranges aligned to the block side.
    fn ranges(&self, extent: usize, threads: usize) -> Vec<(usize, usize)> {
        let side = self.block_side;
        let blocks = extent.div_ceil(side);
        let want = (self.want_chunks)(blocks, threads).clamp(1, blocks);
        let per = blocks.div_ceil(want);
        (0..blocks)
            .step_by(per)
            .map(|b0| (b0 * side, ((b0 + per) * side).min(extent)))
            .collect()
    }
}

/// Element count of `dims` if the shape is one the containers can hold
/// (rank 1–4, no empty axis, product within `usize`).
fn element_count(dims: &[usize]) -> Option<usize> {
    if dims.is_empty() || dims.len() > 4 || dims.contains(&0) {
        return None;
    }
    dims.iter().try_fold(1usize, |acc, &d| acc.checked_mul(d))
}

/// What a backend supplies to the container: its [`Format`] and the two
/// per-chunk operations, for one element type.
pub(crate) trait Backend<T> {
    const FORMAT: &'static Format;
    /// The element type's tag in the container header.
    const TYPE_TAG: u8;
    /// Compression parameters, shared by every chunk of one call.
    type Params: Sync;
    /// Per-worker buffers reused from chunk to chunk (`()` if none).
    type Scratch: Default + Send;

    /// Compress one sub-array into a standalone serial stream.
    fn compress(
        sub: &[T],
        dims: &[usize],
        params: &Self::Params,
        scratch: &mut Self::Scratch,
    ) -> Result<Encoded, CodecError>;

    /// Decode one standalone serial stream; its own header sizes the
    /// output.
    fn decompress(
        chunk: &[u8],
        scratch: &mut Self::Scratch,
    ) -> Result<(Vec<T>, Vec<usize>), CodecError>;
}

/// A lock-guarded pool of per-worker scratch buffers.
///
/// The worker loop gives each worker one scratch for the chunks it pulls;
/// a pool extends that reuse *across* calls, so a driver coding many
/// fields stops paying the warm-up allocations per field. `new` is
/// `const`, so a pool can live in a `static`. Scratch reuse never changes
/// output bytes.
pub(crate) struct ScratchPool<S> {
    slots: Mutex<Vec<S>>,
}

impl<S: Default> ScratchPool<S> {
    /// Ceiling on scratches parked between calls; beyond this they are
    /// dropped rather than retained, bounding idle memory.
    const MAX_RETAINED: usize = 32;

    pub(crate) const fn new() -> Self {
        ScratchPool { slots: Mutex::new(Vec::new()) }
    }

    fn acquire(&self) -> S {
        self.slots.lock().expect("pool lock").pop().unwrap_or_default()
    }

    fn release(&self, scratch: S) {
        let mut slots = self.slots.lock().expect("pool lock");
        if slots.len() < Self::MAX_RETAINED {
            slots.push(scratch);
        }
    }
}

/// The one worker loop: up to `threads` scoped threads pull job indices
/// from an atomic cursor, each holding one scratch from `pool`; results
/// land in index order whatever the scheduling.
fn run_workers<S: Default + Send, R: Send>(
    jobs: usize,
    threads: usize,
    pool: &ScratchPool<S>,
    lap_span: &'static str,
    job: impl Fn(usize, &mut S) -> R + Sync,
) -> Vec<R> {
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..jobs).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..threads.min(jobs) {
            s.spawn(|| {
                let mut scratch = pool.acquire();
                let mut laps = trace::Stopwatch::new();
                loop {
                    // Relaxed: the cursor only hands out indices; results
                    // are published by the slot mutex and the scope join.
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= jobs {
                        break;
                    }
                    let result = laps.lap(|| job(i, &mut scratch));
                    *slots[i].lock().expect("slot lock") = Some(result);
                }
                pool.release(scratch);
                laps.commit(lap_span);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("slot lock").expect("every job ran"))
        .collect()
}

/// Resolve a worker-count request (0 ⇒ all available cores).
fn effective_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map(|p| p.get()).unwrap_or(4)
    } else {
        threads
    }
}

/// Compress `data` into backend `B`'s chunked container using up to
/// `threads` workers (0 ⇒ all available).
pub(crate) fn encode<T: Copy + Sync, B: Backend<T>>(
    data: &[T],
    dims: &[usize],
    params: &B::Params,
    threads: usize,
    pool: &ScratchPool<B::Scratch>,
) -> Result<Encoded, CodecError> {
    let format = B::FORMAT;
    if element_count(dims) != Some(data.len()) {
        return Err(format.invalid_dims);
    }
    let threads = effective_threads(threads);
    let ranges = format.ranges(dims[0], threads);
    let row: usize = dims[1..].iter().product();

    let outer = trace::span(format.span_encode);
    let parts = run_workers(
        ranges.len(),
        threads,
        pool,
        format.span_chunk_encode,
        |i, scratch| {
            let (a, b) = ranges[i];
            let mut sub_dims = dims.to_vec();
            sub_dims[0] = b - a;
            B::compress(&data[a * row..b * row], &sub_dims, params, scratch)
        },
    );
    trace::counter_add(format.counter_chunks, ranges.len() as u64);
    drop(outer);

    let mut stats = CodecStats::default();
    let mut streams = Vec::with_capacity(parts.len());
    for part in parts {
        let chunk = part?;
        stats.elements += chunk.stats.elements;
        stats.input_bytes += chunk.stats.input_bytes;
        stats.literal_elements += chunk.stats.literal_elements;
        stats.coded_bits += chunk.stats.coded_bits;
        streams.push(chunk.bytes);
    }
    let chunks = ranges.iter().zip(&streams).map(|(&(a, b), s)| (a, b, s.as_slice())).collect();
    let bytes = Chunked { format, type_tag: B::TYPE_TAG, dims: dims.to_vec(), chunks }.build();
    stats.output_bytes = bytes.len() as u64;
    Ok(Encoded { bytes, stats })
}

/// A validated chunked container, borrowed from the bytes that carry it
/// (legacy `SZLP` / `ZFLP` bytes or the frames of an `LCW1` envelope).
#[derive(Debug)]
pub struct Chunked<'a> {
    format: &'static Format,
    type_tag: u8,
    dims: Vec<usize>,
    chunks: Vec<(usize, usize, &'a [u8])>,
}

impl<'a> Chunked<'a> {
    /// The one table validator, for both forms of the container: shape,
    /// one frame per range, a contiguous block-aligned cover of `dims[0]`,
    /// and the claimed element count through the one decoded-size gate.
    pub(crate) fn new(
        magic: [u8; 4],
        type_tag: u8,
        dims: Vec<usize>,
        ranges: &[(usize, usize)],
        frames: &[&'a [u8]],
    ) -> Result<Self, CodecError> {
        let format = Format::by_magic(magic)?;
        let side = format.block_side;
        if dims.is_empty() || dims.len() > 4 {
            return Err((format.corrupt)("bad rank"));
        }
        if dims.contains(&0) {
            return Err((format.corrupt)("zero dimension"));
        }
        let elements = element_count(&dims).ok_or_else(|| (format.corrupt)("dims overflow"))?;
        if ranges.is_empty()
            || ranges.len() != frames.len()
            || ranges.len() > dims[0].div_ceil(side)
        {
            return Err((format.corrupt)("bad chunk count"));
        }
        let mut prev_end = 0usize;
        for &(a, b) in ranges {
            if a >= b || b > dims[0] || a != prev_end || a % side != 0 {
                return Err((format.corrupt)("bad chunk range"));
            }
            prev_end = b;
        }
        if prev_end != dims[0] {
            return Err((format.corrupt)("chunks do not cover the array"));
        }
        guard_element_count(elements as u64, frames.iter().map(|f| f.len()).sum())?;
        let chunks = ranges.iter().zip(frames).map(|(&(a, b), &f)| (a, b, f)).collect();
        Ok(Chunked { format, type_tag, dims, chunks })
    }

    /// Element type tag (0 = `f32`, 1 = `f64`).
    pub fn type_tag(&self) -> u8 {
        self.type_tag
    }

    /// Full-array dimensions, slowest first.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Per chunk: `(slow_start, slow_end, standalone serial stream)`.
    pub fn chunks(&self) -> &[(usize, usize, &'a [u8])] {
        &self.chunks
    }

    /// Serialize the legacy container bytes. The single writer of the
    /// layout and the exact inverse of [`parse`]: `parse(s)?.build() == s`.
    pub fn build(&self) -> Vec<u8> {
        let payload: usize = self.chunks.iter().map(|&(_, _, s)| s.len()).sum();
        let header = 10 + 8 * self.dims.len() + CHUNK_ENTRY_LEN * self.chunks.len();
        let mut out = Vec::with_capacity(header + payload);
        out.extend_from_slice(&self.format.magic);
        out.push(self.type_tag);
        out.push(self.dims.len() as u8);
        for &d in &self.dims {
            out.extend_from_slice(&(d as u64).to_le_bytes());
        }
        out.extend_from_slice(&(self.chunks.len() as u32).to_le_bytes());
        for &(a, b, stream) in &self.chunks {
            out.extend_from_slice(&(a as u64).to_le_bytes());
            out.extend_from_slice(&(b as u64).to_le_bytes());
            out.extend_from_slice(&(stream.len() as u64).to_le_bytes());
        }
        for &(_, _, stream) in &self.chunks {
            out.extend_from_slice(stream);
        }
        out
    }
}

/// Split the next `n` bytes off the front of `rest`.
fn take<'a>(rest: &mut &'a [u8], n: usize, format: &Format) -> Result<&'a [u8], CodecError> {
    if n > rest.len() {
        return Err((format.corrupt)("unexpected end of stream"));
    }
    let (head, tail) = rest.split_at(n);
    *rest = tail;
    Ok(head)
}

/// The next little-endian `u64` header word of `rest`.
fn word(rest: &mut &[u8], format: &Format) -> Result<usize, CodecError> {
    Ok(u64::from_le_bytes(take(rest, 8, format)?.try_into().expect("8 bytes")) as usize)
}

/// Parse and validate legacy `SZLP` / `ZFLP` bytes without decoding any
/// chunk.
pub fn parse(stream: &[u8]) -> Result<Chunked<'_>, CodecError> {
    let magic: [u8; 4] =
        stream.get(..4).and_then(|m| m.try_into().ok()).ok_or(CodecError::TooShort)?;
    let format = Format::by_magic(magic)?;
    let rest = &mut &stream[4..];
    let type_tag = take(rest, 1, format)?[0];
    let rank = take(rest, 1, format)?[0] as usize;
    let dims = (0..rank).map(|_| word(rest, format)).collect::<Result<Vec<_>, _>>()?;
    let n_chunks = u32::from_le_bytes(take(rest, 4, format)?.try_into().expect("4 bytes")) as usize;
    // Each chunk has a 24-byte table entry still to come, so the bytes
    // left bound the count before anything is allocated for it.
    if n_chunks > rest.len() / CHUNK_ENTRY_LEN {
        return Err((format.corrupt)("bad chunk count"));
    }
    let mut ranges = Vec::with_capacity(n_chunks);
    let mut lens = Vec::with_capacity(n_chunks);
    for _ in 0..n_chunks {
        ranges.push((word(rest, format)?, word(rest, format)?));
        lens.push(word(rest, format)?);
    }
    let frames =
        lens.into_iter().map(|len| take(rest, len, format)).collect::<Result<Vec<_>, _>>()?;
    if !rest.is_empty() {
        return Err((format.corrupt)("trailing bytes after chunks"));
    }
    Chunked::new(magic, type_tag, dims, &ranges, &frames)
}

/// Decode a validated container with backend `B` using up to `threads`
/// workers (0 ⇒ all available).
pub(crate) fn decode<T: Copy + Send, B: Backend<T>>(
    container: &Chunked<'_>,
    threads: usize,
    pool: &ScratchPool<B::Scratch>,
) -> Result<(Vec<T>, Vec<usize>), CodecError> {
    let format = B::FORMAT;
    if container.format.magic != format.magic {
        return Err((format.corrupt)("bad chunked magic"));
    }
    if container.type_tag != B::TYPE_TAG {
        return Err(format.type_mismatch);
    }
    let dims = &container.dims;
    let row: usize = dims[1..].iter().product();
    let parts = run_workers(
        container.chunks.len(),
        effective_threads(threads),
        pool,
        format.span_chunk_decode,
        |i, scratch| {
            let (a, b, chunk) = container.chunks[i];
            let (vals, got) = B::decompress(chunk, scratch)?;
            let shape_ok = got.len() == dims.len()
                && got[0] == b - a
                && got[1..] == dims[1..]
                && vals.len() == (b - a) * row;
            if shape_ok {
                Ok(vals)
            } else {
                Err((format.corrupt)("chunk shape mismatch"))
            }
        },
    );
    // Sized from what the chunks actually decoded to, not from the header.
    let parts = parts.into_iter().collect::<Result<Vec<Vec<T>>, CodecError>>()?;
    let mut out = Vec::with_capacity(parts.iter().map(Vec::len).sum());
    for part in parts {
        out.extend_from_slice(&part);
    }
    Ok((out, dims.clone()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire;
    use crate::{registry, BoundSpec, SzCodec, ZfpCodec};
    use lcpio_wire::EnvelopeBuilder;

    fn smooth<T: From<f32>>(n: usize) -> Vec<T> {
        (0..n).map(|i| ((i as f32 * 0.01).sin() * 40.0 + (i as f32 * 0.003).cos()).into()).collect()
    }

    fn max_err<T: Copy + Into<f64>>(a: &[T], b: &[T]) -> f64 {
        a.iter().zip(b).map(|(&x, &y)| (x.into() - y.into()).abs()).fold(0.0, f64::max)
    }

    /// Every property of the container, for one backend and element type,
    /// over rank 1–4 and four worker counts.
    fn check_backend<T, B>(params: &B::Params, tol: f64)
    where
        T: Copy + Send + Sync + PartialEq + std::fmt::Debug + From<f32> + Into<f64>,
        B: Backend<T>,
    {
        for dims in [&[1000usize][..], &[25, 40], &[26, 8, 9], &[13, 4, 5, 6]] {
            let n: usize = dims.iter().product();
            let data: Vec<T> = smooth(n);
            let whole = B::compress(&data, dims, params, &mut Default::default()).expect("serial");
            let (serial_values, _) =
                B::decompress(&whole.bytes, &mut Default::default()).expect("serial decode");
            assert!(max_err(&data, &serial_values) <= tol * 1.0001 + 1e-9);

            let pool = ScratchPool::new();
            let mut at_one_thread: Option<(Vec<u8>, Vec<T>)> = None;
            for threads in [1usize, 2, 3, 8] {
                let label = format!("{:?} {dims:?} x{threads}", B::FORMAT.magic);
                let enc = encode::<T, B>(&data, dims, params, threads, &pool).expect("encode");
                let sizes = [enc.stats.elements, enc.stats.input_bytes, enc.stats.output_bytes];
                let expect = [n, std::mem::size_of_val(&data[..]), enc.bytes.len()];
                assert_eq!(sizes.map(|v| v as usize), expect, "{label}");

                let container = parse(&enc.bytes).expect("parse");
                assert_eq!(container.build(), enc.bytes, "{label}: build(parse(s)) != s");

                let (rec, got) = decode::<T, B>(&container, threads, &pool).expect("decode");
                assert_eq!(got, dims, "{label}");
                assert!(max_err(&data, &rec) <= tol * 1.0001 + 1e-9, "{label}: bound broken");
                let alone = |s| B::decompress(s, &mut Default::default()).expect("chunk").0;
                let per_chunk: Vec<T> =
                    container.chunks().iter().flat_map(|&(_, _, s)| alone(s)).collect();
                assert_eq!(rec, per_chunk, "{label}: differs from per-chunk serial decode");

                let zflp = B::FORMAT.magic == ZFLP.magic;
                let most = if zflp { threads } else { MAX_CHUNKS };
                assert!(container.chunks().len() <= most, "{label}");
                // Independent coding blocks: any block-aligned ZFLP split
                // reconstructs the serial codec's values.
                assert!(!zflp || rec == serial_values, "{label}");
                match &at_one_thread {
                    // Values never depend on the worker count; SZLP bytes
                    // do not either (ZFLP framing does, by design).
                    Some((bytes, values)) => {
                        assert_eq!(&rec, values, "{label}");
                        assert!(zflp || &enc.bytes == bytes, "{label}: bytes depend on threads");
                    }
                    None => at_one_thread = Some((enc.bytes, rec)),
                }
            }
            let parked = pool.slots.lock().expect("pool lock").len();
            assert!((1..=8).contains(&parked), "workers must park their scratch ({parked})");
        }
    }

    #[test]
    fn every_backend_element_rank_and_thread_count() {
        let cfg = |eb| lcpio_sz::SzConfig::new(lcpio_sz::ErrorBound::Absolute(eb));
        check_backend::<f32, SzCodec>(&cfg(1e-3), 1e-3);
        check_backend::<f64, SzCodec>(&cfg(1e-6), 1e-6);
        check_backend::<f32, ZfpCodec>(&lcpio_zfp::ZfpMode::FixedAccuracy(1e-3), 1e-3);
        check_backend::<f64, ZfpCodec>(&lcpio_zfp::ZfpMode::FixedAccuracy(1e-6), 1e-6);
    }

    #[test]
    fn layouts_are_block_aligned_and_szlp_ignores_threads() {
        for (format, threads) in [(&SZLP, 1), (&SZLP, 7), (&ZFLP, 4)] {
            let r = format.ranges(100, threads);
            assert_eq!((r[0].0, r[r.len() - 1].1), (0, 100));
            for w in r.windows(2) {
                assert_eq!(w[0].1, w[1].0);
                assert_eq!(w[0].1 % format.block_side, 0);
            }
        }
        assert_eq!(SZLP.ranges(100, 1), SZLP.ranges(100, 64));
        assert_eq!((SZLP.ranges(3, 8), SZLP.ranges(6, 8)), (vec![(0, 3)], vec![(0, 6)]));
        assert_eq!(SZLP.ranges(10_000, 1).len(), MAX_CHUNKS);
        assert_eq!((ZFLP.ranges(3, 8), ZFLP.ranges(8, 1)), (vec![(0, 3)], vec![(0, 8)]));
        assert_eq!(ZFLP.ranges(100, 4).len(), 4);
    }

    #[test]
    fn pool_retention_is_bounded() {
        type Pool = ScratchPool<Vec<u8>>;
        let pool = Pool::new();
        for _ in 0..Pool::MAX_RETAINED + 8 {
            pool.release(Vec::new());
        }
        assert_eq!(pool.slots.lock().expect("pool lock").len(), Pool::MAX_RETAINED);
    }

    #[test]
    fn invalid_inputs_and_corrupt_containers_are_typed_errors() {
        let data: Vec<f32> = smooth(256);
        let sz = registry().by_name("sz").expect("registered");
        let zfp = registry().by_name("zfp").expect("registered");
        let bound = BoundSpec::Absolute(1e-3);
        assert_eq!(
            sz.compress_chunked(&data, &[257], bound, 2).err(),
            Some(CodecError::Sz(SzError::InvalidDims))
        );
        assert_eq!(
            zfp.compress_chunked(&data, &[], bound, 2).err(),
            Some(CodecError::Zfp(ZfpError::InvalidDims))
        );
        assert!(sz.compress_chunked(&data, &[256], BoundSpec::Absolute(0.0), 2).is_err());

        let good = sz.compress_chunked(&data, &[256], bound, 2).expect("compress").bytes;
        assert_eq!(
            SzCodec::decompress_chunked::<f64>(&good, 1).err(),
            Some(CodecError::Sz(SzError::TypeMismatch))
        );
        assert_eq!(
            ZfpCodec::decompress_chunked::<f32>(&good, 1).err(),
            Some(CodecError::Zfp(ZfpError::Corrupt("bad chunked magic")))
        );
        let mut padded = good.clone();
        padded.push(0);
        assert_eq!(
            parse(&padded).err(),
            Some(CodecError::Sz(SzError::Corrupt("trailing bytes after chunks")))
        );
        for cut in 0..good.len() {
            assert!(parse(&good[..cut]).is_err(), "truncation at {cut} must be rejected");
        }
    }

    #[test]
    fn forged_chunk_tables_fail_alike_as_legacy_bytes_and_as_lcw1_tlv() {
        // A range far past dims[0] doubles as the allocation probe: sizing
        // anything from it would ask for terabytes.
        type Case = (&'static str, Vec<(usize, usize)>, &'static str);
        let cases: [Case; 6] = [
            ("gap", vec![(0, 6), (12, 24)], "bad chunk range"),
            ("overlap", vec![(0, 18), (12, 24)], "bad chunk range"),
            ("range past dims[0]", vec![(0, 12), (12, 1 << 40)], "bad chunk range"),
            ("zero-length range", vec![(0, 12), (12, 12)], "bad chunk range"),
            ("short cover", vec![(0, 12), (12, 18)], "chunks do not cover the array"),
            ("count != frames", vec![(0, 12), (12, 18), (18, 24)], "bad chunk count"),
        ];
        let data: Vec<f32> = smooth(24 * 10);
        for name in ["sz", "zfp"] {
            let codec = registry().by_name(name).expect("registered");
            let good = codec
                .compress_chunked(&data, &[24, 10], BoundSpec::Absolute(1e-3), 2)
                .expect("compress")
                .bytes;
            let good = parse(&good).expect("parse");
            let frames: Vec<&[u8]> = good.chunks().iter().map(|c| c.2).collect();
            assert_eq!(frames.len(), 2, "{name}: fixture must have two chunks");
            for (what, table, msg) in &cases {
                let as_tlv = EnvelopeBuilder::new(good.format.magic)
                    .element_type(0)
                    .dims(&[24, 10])
                    .chunk_table(table)
                    .build(&frames);
                // The legacy form has one table entry per payload by
                // construction; there a wrong count is a count field the
                // bytes behind it cannot hold.
                let as_legacy = if table.len() == frames.len() {
                    let chunks = table.iter().zip(&frames).map(|(&(a, b), &f)| (a, b, f)).collect();
                    Chunked { format: good.format, type_tag: 0, dims: vec![24, 10], chunks }.build()
                } else {
                    let mut bytes = good.build();
                    bytes[22..26].copy_from_slice(&1000u32.to_le_bytes());
                    bytes
                };
                let expect = Some((good.format.corrupt)(msg));
                for form in [&as_legacy, &as_tlv] {
                    assert_eq!(registry().decompress_auto(form, 1).err(), expect, "{name} {what}");
                }
                assert_eq!(wire::unwrap(&as_tlv).err(), expect, "{name} {what}");
            }
        }
    }

    #[test]
    fn the_gate_admits_the_densest_streams_either_codec_emits() {
        // The ceiling may not sit below either backend's own limit: SZ's
        // one Huffman bit per element under LZSS's densest token, ZFP's
        // one bit per 4^3 block.
        let lzss_expansion = (lcpio_sz::lossless::MAX_MATCH * 8 / 25 + 1) as u64;
        assert!(lcpio_wire::MAX_EXPANSION >= 8 * lzss_expansion);
        assert!(lcpio_wire::MAX_EXPANSION >= 8 * (lcpio_zfp::block::SIDE as u64).pow(3));

        // Constant and all-zero fields are the densest real inputs; these
        // SZ containers sit above the old 512 elements per byte.
        let fields =
            [(vec![1usize << 22], 0.0f32), (vec![12, 300, 300], 3.5), (vec![6, 400, 400], 0.0)];
        for (dims, value) in fields {
            let n: usize = dims.iter().product();
            let data = vec![value; n];
            for name in registry().names() {
                let codec = registry().by_name(name).expect("registered");
                let legacy = codec
                    .compress_chunked(&data, &dims, BoundSpec::Absolute(1e-3), 1)
                    .expect("compress")
                    .bytes;
                let density = n as f64 / legacy.len() as f64;
                assert!(density <= lcpio_wire::MAX_EXPANSION as f64, "{name} {dims:?}: {density}");
                assert!(name != "sz" || density > 512.0, "{name} {dims:?}: only {density} el/B");
                for form in [wire::wrap(&legacy).expect("wrap"), legacy] {
                    let (rec, got) = registry().decompress_auto(&form, 1).expect("decode");
                    assert_eq!(got, dims, "{name}");
                    assert!(rec.iter().all(|&v| (v - value).abs() <= 1e-3), "{name} {dims:?}");
                }
            }
        }
    }
}
