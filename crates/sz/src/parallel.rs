//! Multi-threaded chunked SZ compression (mirroring the zfp crate's
//! chunked container and the reference SZ's OpenMP mode).
//!
//! The array is split along its slowest dimension at Lorenzo-block
//! ([`BLOCK_SIDE`]) boundaries; each chunk is a *complete, standalone*
//! SZ stream of its sub-array, so chunks compress and decompress
//! independently. A thin container records the chunk extents and byte
//! lengths.
//!
//! Unlike ZFP — whose coding blocks are independent, making chunked output
//! value-identical to the serial codec — SZ's Lorenzo predictor carries
//! history across rows, and that history *resets* at every chunk
//! boundary. Chunked SZ output therefore differs from the whole-array
//! serial stream in both framing and reconstructed values (each still
//! obeys the absolute error bound). To keep results reproducible, the
//! chunk layout is a pure function of the array shape: the same array
//! compresses to the same bytes whatever `threads` is, and decompression
//! is bit-identical to serially decompressing each chunk's standalone
//! stream. The worker count only changes wall-clock time.
//!
//! Workers are scoped threads pulling chunk indices from an atomic
//! cursor; results land in index-order slots, so output order is
//! deterministic regardless of scheduling. Each compression worker owns
//! one reusable [`SzScratch`], so per-chunk allocations are amortized.

use crate::element::Element;
use crate::pipeline::{compress_typed_with, decompress_typed_with, SzScratch};
use crate::regression::BLOCK_SIDE;
use crate::stats::CompressionStats;
use crate::{Compressed, SzConfig, SzError};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Per-chunk result slot filled by the worker pool.
type ChunkSlot<R> = Mutex<Option<Result<R, SzError>>>;

/// Container magic for chunked streams.
pub const CHUNKED_MAGIC: [u8; 4] = *b"SZLP";

/// Ceiling on the number of chunks in a container. Sixteen keeps a
/// many-core machine busy while per-chunk headers and Huffman tables stay
/// a rounding error next to the payload.
pub const MAX_CHUNKS: usize = 16;

/// Bytes of one chunk-table entry: start, end and payload length as u64.
const CHUNK_ENTRY_LEN: usize = 24;

/// Minimum chunk thickness in Lorenzo blocks: thinner chunks would pay
/// more in per-chunk tables and lost prediction history than they gain in
/// parallelism.
const MIN_CHUNK_BLOCKS: usize = 2;

/// Split `extent` into chunk ranges aligned to [`BLOCK_SIDE`]. Depends
/// only on `extent` — never on the worker count — so the container layout
/// is reproducible across machines and thread settings.
fn chunk_ranges(extent: usize) -> Vec<(usize, usize)> {
    let blocks = extent.div_ceil(BLOCK_SIDE);
    let want = blocks.div_ceil(MIN_CHUNK_BLOCKS).clamp(1, MAX_CHUNKS);
    let per = blocks.div_ceil(want);
    let mut out = Vec::new();
    let mut b0 = 0usize;
    while b0 < blocks {
        let b1 = (b0 + per).min(blocks);
        out.push((b0 * BLOCK_SIDE, (b1 * BLOCK_SIDE).min(extent)));
        b0 = b1;
    }
    out
}

/// True if `stream` carries the chunked-container magic.
pub fn is_chunked(stream: &[u8]) -> bool {
    stream.starts_with(&CHUNKED_MAGIC)
}

/// A lock-guarded pool of reusable [`SzScratch`] buffers.
///
/// [`compress_chunked`] amortizes allocations *within* one call by giving
/// each worker its own scratch; a pool extends that reuse *across* calls,
/// so a driver compressing many fields (the registry's chunked path) stops
/// paying the warm-up allocations per field. `new` is `const`, so a pool
/// can live in a `static`. Scratch reuse never changes output bytes — see
/// [`compress_typed_with`].
pub struct SzScratchPool<T> {
    slots: Mutex<Vec<SzScratch<T>>>,
}

impl<T> SzScratchPool<T> {
    /// Ceiling on scratches parked between calls; beyond this they are
    /// dropped rather than retained, bounding idle memory.
    pub const MAX_RETAINED: usize = 32;

    /// New empty pool (usable in `static` items).
    pub const fn new() -> Self {
        SzScratchPool { slots: Mutex::new(Vec::new()) }
    }

    /// Pop a parked scratch, or make a fresh one.
    fn acquire(&self) -> SzScratch<T> {
        self.slots.lock().expect("pool lock").pop().unwrap_or_default()
    }

    /// Park a scratch for the next call (dropped when full).
    fn release(&self, scratch: SzScratch<T>) {
        let mut slots = self.slots.lock().expect("pool lock");
        if slots.len() < Self::MAX_RETAINED {
            slots.push(scratch);
        }
    }

    /// Number of scratches currently parked.
    pub fn idle(&self) -> usize {
        self.slots.lock().expect("pool lock").len()
    }
}

impl<T> Default for SzScratchPool<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// Resolve a worker-count request (0 ⇒ all available cores).
fn effective_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map(|p| p.get()).unwrap_or(4)
    } else {
        threads
    }
}

/// Compress using up to `threads` worker threads (0 ⇒ all available).
/// The output bytes are identical for every `threads` value.
pub fn compress_chunked<T: Element>(
    data: &[T],
    dims: &[usize],
    cfg: &SzConfig,
    threads: usize,
) -> Result<Compressed, SzError> {
    compress_chunked_pooled(data, dims, cfg, threads, &SzScratchPool::new())
}

/// [`compress_chunked`] with worker scratches drawn from (and returned to)
/// `pool`, so repeated calls reuse their buffers. Output bytes are
/// identical to [`compress_chunked`] for the same inputs.
pub fn compress_chunked_pooled<T: Element>(
    data: &[T],
    dims: &[usize],
    cfg: &SzConfig,
    threads: usize,
    pool: &SzScratchPool<T>,
) -> Result<Compressed, SzError> {
    if dims.is_empty() || dims.len() > 4 || dims.contains(&0) {
        return Err(SzError::InvalidDims);
    }
    let n = dims
        .iter()
        .try_fold(1usize, |acc, &d| acc.checked_mul(d))
        .ok_or(SzError::InvalidDims)?;
    if n != data.len() {
        return Err(SzError::InvalidDims);
    }
    let threads = effective_threads(threads);

    // Slowest-dimension extent and the element count per unit of it.
    let slow = dims[0];
    let row: usize = dims[1..].iter().product::<usize>().max(1);
    let ranges = chunk_ranges(slow);

    // Compress chunks in parallel; each result lands in its own slot.
    let outer = lcpio_trace::span("sz.compress_chunked");
    let cursor = AtomicUsize::new(0);
    let slots: Vec<ChunkSlot<Compressed>> =
        (0..ranges.len()).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..threads.min(ranges.len()) {
            s.spawn(|| {
                let mut scratch = pool.acquire();
                let mut laps = lcpio_trace::Stopwatch::new();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= ranges.len() {
                        break;
                    }
                    let (a, b) = ranges[i];
                    let mut sub_dims = dims.to_vec();
                    sub_dims[0] = b - a;
                    let sub = &data[a * row..b * row];
                    let compressed =
                        laps.lap(|| compress_typed_with(sub, &sub_dims, cfg, &mut scratch));
                    *slots[i].lock().expect("slot lock") = Some(compressed);
                }
                pool.release(scratch);
                laps.commit("sz.chunk.compress");
            });
        }
    });
    lcpio_trace::counter_add("sz.chunks", ranges.len() as u64);
    drop(outer);

    let mut chunks = Vec::with_capacity(ranges.len());
    let mut stats = CompressionStats::default();
    for slot in slots {
        let c = slot
            .into_inner()
            .expect("slot lock")
            .expect("every chunk filled")?;
        stats.elements += c.stats.elements;
        stats.input_bytes += c.stats.input_bytes;
        stats.predictable += c.stats.predictable;
        stats.unpredictable += c.stats.unpredictable;
        stats.regression_blocks += c.stats.regression_blocks;
        stats.lorenzo_blocks += c.stats.lorenzo_blocks;
        stats.huffman_table_entries += c.stats.huffman_table_entries;
        stats.huffman_bits += c.stats.huffman_bits;
        chunks.push(c.bytes);
    }

    // ---- container ----
    let labeled: Vec<(usize, usize, &[u8])> = ranges
        .iter()
        .zip(&chunks)
        .map(|(&(a, b), bytes)| (a, b, bytes.as_slice()))
        .collect();
    let out = build_container(T::TYPE_TAG, dims, &labeled);
    stats.output_bytes = out.len() as u64;
    Ok(Compressed { bytes: out, stats })
}

/// Serialize a chunked SZLP container from already-compressed chunks.
///
/// This is the single writer for the SZLP byte layout: the chunked
/// compressor and the LCW1 wire bridge (which re-emits a legacy container
/// from envelope frames) both go through it, so the two can never drift.
/// Inverse of [`parse_chunked`] — `build_container` over a parsed
/// container's chunks reproduces the input bytes exactly.
pub fn build_container(type_tag: u8, dims: &[usize], chunks: &[(usize, usize, &[u8])]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&CHUNKED_MAGIC);
    out.push(type_tag);
    out.push(dims.len() as u8);
    for &d in dims {
        out.extend_from_slice(&(d as u64).to_le_bytes());
    }
    out.extend_from_slice(&(chunks.len() as u32).to_le_bytes());
    for &(a, b, bytes) in chunks {
        out.extend_from_slice(&(a as u64).to_le_bytes());
        out.extend_from_slice(&(b as u64).to_le_bytes());
        out.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
    }
    for &(_, _, bytes) in chunks {
        out.extend_from_slice(bytes);
    }
    out
}

/// Parsed chunked-container header: dims plus each chunk's slow-dimension
/// range and its standalone SZ stream. Used by the decompressor, the
/// property tests, and the CLI's stream describer.
#[derive(Debug)]
pub struct ChunkedInfo<'a> {
    /// Element type tag (matches [`Element::TYPE_TAG`]).
    pub type_tag: u8,
    /// Full-array dimensions, slowest first.
    pub dims: Vec<usize>,
    /// Per chunk: `(slow_start, slow_end, standalone SZ stream)`.
    pub chunks: Vec<(usize, usize, &'a [u8])>,
}

/// Parse and validate a chunked container without decoding any chunk.
pub fn parse_chunked(stream: &[u8]) -> Result<ChunkedInfo<'_>, SzError> {
    let mut pos = 0usize;
    let take = |pos: &mut usize, n: usize| -> Result<&[u8], SzError> {
        // checked_add: a forged chunk length near usize::MAX must not wrap
        // the bounds check in release builds.
        let end = pos.checked_add(n).ok_or(SzError::Corrupt("length overflows cursor"))?;
        if end > stream.len() {
            return Err(SzError::Corrupt("unexpected end of stream"));
        }
        let s = &stream[*pos..end];
        *pos = end;
        Ok(s)
    };
    if take(&mut pos, 4)? != CHUNKED_MAGIC {
        return Err(SzError::Corrupt("bad chunked magic"));
    }
    let type_tag = take(&mut pos, 1)?[0];
    let rank = take(&mut pos, 1)?[0] as usize;
    if rank == 0 || rank > 4 {
        return Err(SzError::Corrupt("bad rank"));
    }
    let mut dims = Vec::with_capacity(rank);
    for _ in 0..rank {
        dims.push(u64::from_le_bytes(take(&mut pos, 8)?.try_into().expect("8 bytes")) as usize);
    }
    if dims.contains(&0) {
        return Err(SzError::Corrupt("zero dimension"));
    }
    dims.iter()
        .try_fold(1usize, |acc, &d| acc.checked_mul(d))
        .ok_or(SzError::Corrupt("dims overflow"))?;
    let n_chunks = u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4 bytes")) as usize;
    // Each chunk has a 24-byte table entry still to come, so the bytes
    // left bound the count before anything is allocated for it (`dims[0]`
    // is itself unvalidated at this point).
    if n_chunks == 0
        || n_chunks > dims[0].div_ceil(BLOCK_SIDE).max(1)
        || n_chunks > (stream.len() - pos) / CHUNK_ENTRY_LEN
    {
        return Err(SzError::Corrupt("bad chunk count"));
    }
    let mut meta = Vec::with_capacity(n_chunks);
    let mut prev_end = 0usize;
    for _ in 0..n_chunks {
        let a = u64::from_le_bytes(take(&mut pos, 8)?.try_into().expect("8 bytes")) as usize;
        let b = u64::from_le_bytes(take(&mut pos, 8)?.try_into().expect("8 bytes")) as usize;
        let len = u64::from_le_bytes(take(&mut pos, 8)?.try_into().expect("8 bytes")) as usize;
        if a >= b || b > dims[0] || a != prev_end {
            return Err(SzError::Corrupt("bad chunk range"));
        }
        prev_end = b;
        meta.push((a, b, len));
    }
    if prev_end != dims[0] {
        return Err(SzError::Corrupt("chunks do not cover the array"));
    }
    let mut chunks = Vec::with_capacity(n_chunks);
    for (a, b, len) in meta {
        chunks.push((a, b, take(&mut pos, len)?));
    }
    if pos != stream.len() {
        return Err(SzError::Corrupt("trailing bytes after chunks"));
    }
    Ok(ChunkedInfo { type_tag, dims, chunks })
}

/// Decompress a chunked stream using up to `threads` workers. The result
/// is bit-identical to decompressing each chunk's standalone stream
/// serially, at every thread count.
pub fn decompress_chunked<T: Element>(
    stream: &[u8],
    threads: usize,
) -> Result<(Vec<T>, Vec<usize>), SzError> {
    decompress_chunked_pooled(stream, threads, &SzScratchPool::new())
}

/// [`decompress_chunked`] with worker scratches drawn from (and returned
/// to) `pool`, mirroring [`compress_chunked_pooled`]: each decode worker
/// reuses one scratch's reconstruction array, Huffman code lengths, and
/// literal buffer across the chunks it pulls, and parks it for the next
/// call. The reconstruction is bit-identical to [`decompress_chunked`].
pub fn decompress_chunked_pooled<T: Element>(
    stream: &[u8],
    threads: usize,
    pool: &SzScratchPool<T>,
) -> Result<(Vec<T>, Vec<usize>), SzError> {
    let info = parse_chunked(stream)?;
    if info.type_tag != T::TYPE_TAG {
        return Err(SzError::TypeMismatch);
    }
    let dims = info.dims;
    let row: usize = dims[1..].iter().product::<usize>().max(1);

    // Decode chunks in parallel. A corrupt container header must never
    // drive an allocation, so each chunk's *own* stream header — which the
    // serial decompressor validates against its payload size — sizes its
    // output; the container's sub-shape is only cross-checked afterwards.
    let threads = effective_threads(threads);
    let cursor = AtomicUsize::new(0);
    let slots: Vec<ChunkSlot<Vec<T>>> =
        (0..info.chunks.len()).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..threads.min(info.chunks.len()) {
            s.spawn(|| {
                let mut scratch = pool.acquire();
                let mut laps = lcpio_trace::Stopwatch::new();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= info.chunks.len() {
                        break;
                    }
                    let (a, b, chunk) = info.chunks[i];
                    let mut sub_dims = dims.clone();
                    sub_dims[0] = b - a;
                    let res = laps
                        .lap(|| decompress_typed_with::<T>(chunk, &mut scratch))
                        .and_then(|(vals, got_dims)| {
                            if got_dims != sub_dims || vals.len() != (b - a) * row {
                                Err(SzError::Corrupt("chunk shape mismatch"))
                            } else {
                                Ok(vals)
                            }
                        });
                    *slots[i].lock().expect("slot lock") = Some(res);
                }
                pool.release(scratch);
                laps.commit("sz.chunk.decompress");
            });
        }
    });
    let mut out: Vec<T> = Vec::new();
    for slot in slots {
        let vals = slot.into_inner().expect("slot lock").expect("every chunk filled")?;
        out.extend_from_slice(&vals);
    }
    Ok((out, dims))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compress, decompress_typed, ErrorBound};

    fn smooth(n: usize) -> Vec<f32> {
        (0..n).map(|i| (i as f32 * 0.01).sin() * 40.0 + (i as f32 * 0.003).cos()).collect()
    }

    fn max_err(a: &[f32], b: &[f32]) -> f64 {
        a.iter().zip(b).map(|(x, y)| (*x as f64 - *y as f64).abs()).fold(0.0, f64::max)
    }

    fn cfg(eb: f64) -> SzConfig {
        SzConfig::new(ErrorBound::Absolute(eb))
    }

    #[test]
    fn chunk_ranges_align_to_blocks() {
        let r = chunk_ranges(100);
        assert_eq!(r.first().expect("nonempty").0, 0);
        assert_eq!(r.last().expect("nonempty").1, 100);
        assert!(r.len() <= MAX_CHUNKS);
        for w in r.windows(2) {
            assert_eq!(w[0].1, w[1].0);
            assert_eq!(w[0].1 % BLOCK_SIDE, 0, "interior boundary must be block-aligned");
        }
    }

    #[test]
    fn chunk_ranges_degenerate_cases() {
        assert_eq!(chunk_ranges(3), vec![(0, 3)]);
        assert_eq!(chunk_ranges(BLOCK_SIDE), vec![(0, BLOCK_SIDE)]);
        // Huge extents saturate at MAX_CHUNKS.
        assert_eq!(chunk_ranges(10_000).len(), MAX_CHUNKS);
    }

    #[test]
    fn chunked_roundtrip_respects_bound_3d() {
        let dims = [24usize, 10, 11];
        let data = smooth(dims.iter().product());
        let tol = 1e-3;
        for threads in [1, 2, 4] {
            let out = compress_chunked(&data, &dims, &cfg(tol), threads).expect("compress");
            let (rec, got) = decompress_chunked::<f32>(&out.bytes, threads).expect("decompress");
            assert_eq!(got, dims.to_vec());
            assert!(max_err(&data, &rec) <= tol * 1.0001 + 1e-9);
        }
    }

    #[test]
    fn container_bytes_are_thread_count_invariant() {
        // The chunk layout depends only on the shape, so the container is
        // byte-identical at every worker count.
        let dims = [30usize, 9, 7];
        let data = smooth(dims.iter().product());
        let one = compress_chunked(&data, &dims, &cfg(1e-2), 1).expect("compress");
        let four = compress_chunked(&data, &dims, &cfg(1e-2), 4).expect("compress");
        let eight = compress_chunked(&data, &dims, &cfg(1e-2), 8).expect("compress");
        assert_eq!(one.bytes, four.bytes);
        assert_eq!(four.bytes, eight.bytes);
        // And so is the reconstruction, whatever count decodes it.
        let (rec1, _) = decompress_chunked::<f32>(&one.bytes, 1).expect("decompress");
        let (rec4, _) = decompress_chunked::<f32>(&four.bytes, 4).expect("decompress");
        assert_eq!(rec1, rec4);
    }

    #[test]
    fn chunked_decode_matches_per_chunk_serial_decode() {
        // The headline determinism property: the chunked decoder is
        // bit-identical to serially decompressing each chunk's standalone
        // stream and concatenating.
        let dims = [26usize, 8, 9];
        let data = smooth(dims.iter().product());
        let out = compress_chunked(&data, &dims, &cfg(1e-3), 4).expect("compress");
        let (rec, _) = decompress_chunked::<f32>(&out.bytes, 4).expect("decompress");
        let info = parse_chunked(&out.bytes).expect("parse");
        assert!(info.chunks.len() > 1, "need multiple chunks to be meaningful");
        let mut serial: Vec<f32> = Vec::new();
        for &(a, b, chunk) in &info.chunks {
            let (vals, sub_dims) = decompress_typed::<f32>(chunk).expect("chunk decode");
            assert_eq!(sub_dims[0], b - a);
            serial.extend_from_slice(&vals);
        }
        assert_eq!(rec, serial);
    }

    #[test]
    fn chunked_values_differ_from_serial_but_both_obey_bound() {
        // Unlike ZFP, Lorenzo history resets at chunk boundaries, so the
        // chunked stream is a *different* (still bound-respecting)
        // approximation than the whole-array serial stream.
        let dims = [26usize, 8, 9];
        let data = smooth(dims.iter().product());
        let tol = 1e-3;
        let serial = compress(&data, &dims, &cfg(tol)).expect("compress");
        let (serial_rec, _) = crate::decompress(&serial.bytes).expect("decompress");
        let chunked = compress_chunked(&data, &dims, &cfg(tol), 4).expect("compress");
        let (chunked_rec, _) = decompress_chunked::<f32>(&chunked.bytes, 4).expect("decompress");
        assert!(max_err(&data, &serial_rec) <= tol * 1.0001 + 1e-9);
        assert!(max_err(&data, &chunked_rec) <= tol * 1.0001 + 1e-9);
    }

    #[test]
    fn chunked_1d_and_2d() {
        let data = smooth(1000);
        let out = compress_chunked(&data, &[1000], &cfg(1e-3), 4).expect("compress");
        let (rec, _) = decompress_chunked::<f32>(&out.bytes, 4).expect("decompress");
        assert!(max_err(&data, &rec) <= 1e-3 * 1.0001 + 1e-9);

        let out = compress_chunked(&data, &[25, 40], &cfg(1e-3), 3).expect("compress");
        let (rec, _) = decompress_chunked::<f32>(&out.bytes, 3).expect("decompress");
        assert!(max_err(&data, &rec) <= 1e-3 * 1.0001 + 1e-9);
    }

    #[test]
    fn chunked_f64() {
        let data: Vec<f64> = (0..4096).map(|i| (i as f64 * 0.001).sin() * 1e6).collect();
        let out = compress_chunked(&data, &[16, 256], &cfg(1e-6), 4).expect("compress");
        let (rec, _) = decompress_chunked::<f64>(&out.bytes, 2).expect("decompress");
        for (a, b) in data.iter().zip(&rec) {
            assert!((a - b).abs() <= 1e-6 * 1.0001 + 1e-15);
        }
    }

    #[test]
    fn merged_stats_are_consistent() {
        let dims = [30usize, 10, 10];
        let data = smooth(dims.iter().product());
        let out = compress_chunked(&data, &dims, &cfg(1e-3), 4).expect("compress");
        let s = out.stats;
        assert_eq!(s.elements as usize, data.len());
        assert_eq!(s.input_bytes as usize, data.len() * 4);
        assert_eq!(s.predictable + s.unpredictable, s.elements);
        assert_eq!(s.output_bytes as usize, out.bytes.len());
    }

    #[test]
    fn corrupt_container_rejected() {
        let data = smooth(256);
        let out = compress_chunked(&data, &[256], &cfg(1e-3), 2).expect("compress");
        assert!(is_chunked(&out.bytes));
        let mut bad = out.bytes.clone();
        bad[0] = b'X';
        assert!(decompress_chunked::<f32>(&bad, 1).is_err());
        // Truncations at every prefix length must fail cleanly, never panic.
        for cut in [0, 4, 6, 14, 20, out.bytes.len() / 2, out.bytes.len() - 1] {
            assert!(
                decompress_chunked::<f32>(&out.bytes[..cut], 1).is_err(),
                "truncation at {cut} must be rejected"
            );
        }
        assert_eq!(
            decompress_chunked::<f64>(&out.bytes, 1).unwrap_err(),
            SzError::TypeMismatch
        );
        // Trailing garbage is also rejected.
        let mut padded = out.bytes.clone();
        padded.push(0);
        assert!(decompress_chunked::<f32>(&padded, 1).is_err());
    }

    #[test]
    fn pooled_output_matches_unpooled() {
        let dims = [30usize, 9, 7];
        let data = smooth(dims.iter().product());
        let pool = SzScratchPool::<f32>::new();
        let fresh = compress_chunked(&data, &dims, &cfg(1e-3), 4).expect("compress");
        let pooled =
            compress_chunked_pooled(&data, &dims, &cfg(1e-3), 4, &pool).expect("compress");
        assert_eq!(fresh.bytes, pooled.bytes);
        // Workers parked their scratches; a second call reuses them and
        // still produces the same bytes.
        assert!(pool.idle() > 0, "pool retained no scratch");
        let parked = pool.idle();
        let again =
            compress_chunked_pooled(&data, &dims, &cfg(1e-3), 4, &pool).expect("compress");
        assert_eq!(again.bytes, fresh.bytes);
        assert!(pool.idle() >= parked, "reused scratches must be returned");
    }

    #[test]
    fn pooled_decode_matches_unpooled() {
        let dims = [30usize, 9, 7];
        let data = smooth(dims.iter().product());
        let pool = SzScratchPool::<f32>::new();
        let out = compress_chunked(&data, &dims, &cfg(1e-3), 4).expect("compress");
        let (fresh, d1) = decompress_chunked::<f32>(&out.bytes, 4).expect("decompress");
        let (pooled, d2) =
            decompress_chunked_pooled::<f32>(&out.bytes, 4, &pool).expect("decompress");
        assert_eq!(d1, d2);
        assert_eq!(fresh, pooled);
        // Workers parked their scratches; a second decode reuses them and
        // still reconstructs bit-identically.
        assert!(pool.idle() > 0, "pool retained no scratch");
        let (again, _) =
            decompress_chunked_pooled::<f32>(&out.bytes, 2, &pool).expect("decompress");
        assert_eq!(again, fresh);
    }

    #[test]
    fn pool_retention_is_bounded() {
        let pool = SzScratchPool::<f32>::new();
        for _ in 0..SzScratchPool::<f32>::MAX_RETAINED + 8 {
            pool.release(SzScratch::new());
        }
        assert_eq!(pool.idle(), SzScratchPool::<f32>::MAX_RETAINED);
    }

    #[test]
    fn invalid_inputs_rejected() {
        let data = smooth(10);
        assert_eq!(
            compress_chunked(&data, &[11], &cfg(1e-3), 2).unwrap_err(),
            SzError::InvalidDims
        );
        assert_eq!(
            compress_chunked(&data, &[], &cfg(1e-3), 2).unwrap_err(),
            SzError::InvalidDims
        );
        assert!(compress_chunked(&data, &[10], &cfg(0.0), 2).is_err());
    }
}
