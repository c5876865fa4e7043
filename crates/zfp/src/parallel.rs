//! Multi-threaded chunked compression (the reference codec's OpenMP mode).
//!
//! The array is split along its slowest dimension at block (multiple-of-4)
//! boundaries; each chunk is a *complete, standalone* ZFP stream of its
//! sub-array, so chunks compress and decompress independently. A thin
//! container records the chunk extents and byte lengths. Because chunk
//! boundaries align with blocks, the chunked stream reconstructs the exact
//! same values as the serial codec — only the container framing differs.
//!
//! Workers are scoped threads pulling chunks from an atomic cursor;
//! output order is fixed by the chunk index, so results are
//! deterministic regardless of scheduling.

use crate::block::SIDE;
use crate::element::ZfpElement;
use crate::pipeline::{compress_typed, decompress_typed};
use crate::{ZfpCompressed, ZfpError, ZfpMode, ZfpStats};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// One decompression job: destination slice, job index, chunk stream, and
/// the chunk's slow-dimension range.
type ChunkJob<'a, T> = (&'a mut [T], usize, &'a [u8], usize, usize);

/// Container magic for chunked streams.
pub const CHUNKED_MAGIC: [u8; 4] = *b"ZFLP";

/// Bytes of one chunk-table entry: start, end and payload length as u64.
const CHUNK_ENTRY_LEN: usize = 24;

/// Split `extent` into at most `want` ranges aligned to the block side.
fn chunk_ranges(extent: usize, want: usize) -> Vec<(usize, usize)> {
    let blocks = extent.div_ceil(SIDE);
    let want = want.clamp(1, blocks);
    let per = blocks.div_ceil(want);
    let mut out = Vec::new();
    let mut b0 = 0usize;
    while b0 < blocks {
        let b1 = (b0 + per).min(blocks);
        out.push((b0 * SIDE, (b1 * SIDE).min(extent)));
        b0 = b1;
    }
    out
}

/// Compress using up to `threads` worker threads (0 ⇒ all available).
pub fn compress_chunked<T: ZfpElement>(
    data: &[T],
    dims: &[usize],
    mode: &ZfpMode,
    threads: usize,
) -> Result<ZfpCompressed, ZfpError> {
    if dims.is_empty() || dims.len() > 4 || dims.contains(&0) {
        return Err(ZfpError::InvalidDims);
    }
    let n = dims
        .iter()
        .try_fold(1usize, |acc, &d| acc.checked_mul(d))
        .ok_or(ZfpError::InvalidDims)?;
    if n != data.len() {
        return Err(ZfpError::InvalidDims);
    }
    mode.validate()?;
    let threads = if threads == 0 {
        std::thread::available_parallelism().map(|p| p.get()).unwrap_or(4)
    } else {
        threads
    };

    // Slowest-dimension extent and the element count per unit of it.
    let slow = dims[0];
    let row: usize = dims[1..].iter().product::<usize>().max(1);
    let ranges = chunk_ranges(slow, threads);

    // Compress chunks in parallel; each result lands in its own slot.
    let outer = lcpio_trace::span("zfp.compress_chunked");
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<ZfpCompressed, ZfpError>>>> =
        (0..ranges.len()).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..threads.min(ranges.len()) {
            s.spawn(|| {
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
                    let compressed = laps.lap(|| compress_typed(sub, &sub_dims, mode));
                    *slots[i].lock().expect("slot lock") = Some(compressed);
                }
                laps.commit("zfp.chunk.compress");
            });
        }
    });
    lcpio_trace::counter_add("zfp.chunks", ranges.len() as u64);
    drop(outer);

    let mut chunks = Vec::with_capacity(ranges.len());
    let mut stats = ZfpStats::default();
    for slot in slots {
        let c = slot
            .into_inner()
            .expect("slot lock")
            .expect("every chunk filled")?;
        stats.elements += c.stats.elements;
        stats.input_bytes += c.stats.input_bytes;
        stats.blocks += c.stats.blocks;
        stats.zero_blocks += c.stats.zero_blocks;
        stats.payload_bits += c.stats.payload_bits;
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
    Ok(ZfpCompressed { bytes: out, stats })
}

/// Serialize a chunked ZFLP container from already-compressed chunks.
///
/// Single writer for the ZFLP byte layout, shared by the chunked
/// compressor and the LCW1 wire bridge; exact inverse of
/// [`parse_chunked`].
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
/// range and its standalone ZFP stream.
#[derive(Debug)]
pub struct ChunkedInfo<'a> {
    /// Element type tag (matches [`ZfpElement::TYPE_TAG`]).
    pub type_tag: u8,
    /// Full-array dimensions, slowest first.
    pub dims: Vec<usize>,
    /// Per chunk: `(slow_start, slow_end, standalone ZFP stream)`.
    pub chunks: Vec<(usize, usize, &'a [u8])>,
}

/// Parse and validate a chunked container without decoding any chunk.
///
/// Every length and range is validated here — contiguous block-aligned
/// coverage of the slow dimension, no trailing bytes, and the 512×
/// element-capacity guard (a ZFP stream spends at least one bit per block
/// and a block covers at most 64 elements, so a header claiming more than
/// 512 elements per payload byte is forged) — so callers never size an
/// allocation from an unvalidated header field.
pub fn parse_chunked(stream: &[u8]) -> Result<ChunkedInfo<'_>, ZfpError> {
    let mut pos = 0usize;
    let take = |pos: &mut usize, n: usize| -> Result<&[u8], ZfpError> {
        // checked_add: a forged chunk length near usize::MAX must not wrap
        // the bounds check in release builds.
        let end = pos.checked_add(n).ok_or(ZfpError::Corrupt("length overflows cursor"))?;
        if end > stream.len() {
            return Err(ZfpError::Corrupt("unexpected end of stream"));
        }
        let s = &stream[*pos..end];
        *pos = end;
        Ok(s)
    };
    if take(&mut pos, 4)? != CHUNKED_MAGIC {
        return Err(ZfpError::Corrupt("bad chunked magic"));
    }
    let type_tag = take(&mut pos, 1)?[0];
    let rank = take(&mut pos, 1)?[0] as usize;
    if rank == 0 || rank > 4 {
        return Err(ZfpError::Corrupt("bad rank"));
    }
    let mut dims = Vec::with_capacity(rank);
    for _ in 0..rank {
        dims.push(u64::from_le_bytes(take(&mut pos, 8)?.try_into().expect("8 bytes")) as usize);
    }
    if dims.contains(&0) {
        return Err(ZfpError::Corrupt("zero dimension"));
    }
    let n = dims
        .iter()
        .try_fold(1usize, |acc, &d| acc.checked_mul(d))
        .ok_or(ZfpError::Corrupt("dims overflow"))?;
    let n_chunks = u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4 bytes")) as usize;
    // Each chunk has a 24-byte table entry still to come, so the bytes
    // left bound the count before anything is allocated for it (`dims[0]`
    // is itself unvalidated at this point).
    if n_chunks == 0
        || n_chunks > dims[0].div_ceil(SIDE).max(1)
        || n_chunks > (stream.len() - pos) / CHUNK_ENTRY_LEN
    {
        return Err(ZfpError::Corrupt("bad chunk count"));
    }
    let mut meta = Vec::with_capacity(n_chunks);
    let mut prev_end = 0usize;
    for _ in 0..n_chunks {
        let a = u64::from_le_bytes(take(&mut pos, 8)?.try_into().expect("8 bytes")) as usize;
        let b = u64::from_le_bytes(take(&mut pos, 8)?.try_into().expect("8 bytes")) as usize;
        let len = u64::from_le_bytes(take(&mut pos, 8)?.try_into().expect("8 bytes")) as usize;
        if a >= b || b > dims[0] || a != prev_end {
            return Err(ZfpError::Corrupt("bad chunk range"));
        }
        prev_end = b;
        meta.push((a, b, len));
    }
    if prev_end != dims[0] {
        return Err(ZfpError::Corrupt("chunks do not cover the array"));
    }
    let mut chunks = Vec::with_capacity(n_chunks);
    for (a, b, len) in meta {
        chunks.push((a, b, take(&mut pos, len)?));
    }
    if pos != stream.len() {
        return Err(ZfpError::Corrupt("trailing bytes after chunks"));
    }
    let payload_bytes: usize = chunks.iter().map(|&(_, _, c)| c.len()).sum();
    if n > payload_bytes.saturating_mul(512) {
        return Err(ZfpError::Corrupt("dims exceed payload capacity"));
    }
    Ok(ChunkedInfo { type_tag, dims, chunks })
}

/// Decompress a chunked stream using up to `threads` workers.
///
/// Unlike SZ's decoder (`decompress_chunked_pooled` over an
/// `SzScratchPool`), this path carries no scratch pool: each worker
/// decodes straight into its pre-carved disjoint slice of the output
/// array, and ZFP's per-block transform needs only a fixed 4³ local
/// buffer — there are no per-chunk working arrays worth reusing.
pub fn decompress_chunked<T: ZfpElement>(
    stream: &[u8],
    threads: usize,
) -> Result<(Vec<T>, Vec<usize>), ZfpError> {
    let info = parse_chunked(stream)?;
    if info.type_tag != T::TYPE_TAG {
        return Err(ZfpError::TypeMismatch);
    }
    let dims = info.dims;
    let n = dims
        .iter()
        .try_fold(1usize, |acc, &d| acc.checked_mul(d))
        .ok_or(ZfpError::Corrupt("dims overflow"))?;
    let row: usize = dims[1..].iter().product::<usize>().max(1);

    // Carve the output into disjoint slices matching the chunk ranges
    // (parse_chunked proved the ranges contiguous and the claimed element
    // count within the payload's 512× capacity, so `n` is safe to
    // allocate).
    let mut out: Vec<T> = vec![T::from_f64(0.0); n];
    {
        let mut rest: &mut [T] = &mut out;
        let mut offset = 0usize;
        let mut jobs: Vec<ChunkJob<'_, T>> = Vec::new();
        for (i, &(a, b, chunk)) in info.chunks.iter().enumerate() {
            let start = a * row;
            let end = b * row;
            if start != offset || end > n {
                return Err(ZfpError::Corrupt("chunk ranges not contiguous"));
            }
            let (head, tail) = rest.split_at_mut(end - offset);
            rest = tail;
            offset = end;
            jobs.push((head, i, chunk, a, b));
        }
        if offset != n {
            return Err(ZfpError::Corrupt("chunks do not cover the array"));
        }
        let threads = if threads == 0 {
            std::thread::available_parallelism().map(|p| p.get()).unwrap_or(4)
        } else {
            threads
        };
        let errors: Vec<Mutex<Option<ZfpError>>> =
            (0..jobs.len()).map(|_| Mutex::new(None)).collect();
        let cursor = AtomicUsize::new(0);
        let jobs_shared: Vec<Mutex<Option<ChunkJob<'_, T>>>> =
            jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
        std::thread::scope(|s| {
            for _ in 0..threads.min(jobs_shared.len()) {
                s.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= jobs_shared.len() {
                        break;
                    }
                    let (slice, idx, stream, a, b) = jobs_shared[i]
                        .lock()
                        .expect("job lock")
                        .take()
                        .expect("each job taken once");
                    let mut sub_dims = dims.clone();
                    sub_dims[0] = b - a;
                    let outcome = match decompress_typed::<T>(stream) {
                        Ok((vals, got_dims)) => {
                            if got_dims != sub_dims || vals.len() != slice.len() {
                                Some(ZfpError::Corrupt("chunk shape mismatch"))
                            } else {
                                slice.copy_from_slice(&vals);
                                None
                            }
                        }
                        Err(e) => Some(e),
                    };
                    *errors[idx].lock().expect("error lock") = outcome;
                });
            }
        });
        for e in errors {
            if let Some(err) = e.into_inner().expect("error lock") {
                return Err(err);
            }
        }
    }
    Ok((out, dims))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smooth(n: usize) -> Vec<f32> {
        (0..n).map(|i| (i as f32 * 0.01).sin() * 40.0 + (i as f32 * 0.003).cos()).collect()
    }

    fn max_err(a: &[f32], b: &[f32]) -> f64 {
        a.iter().zip(b).map(|(x, y)| (*x as f64 - *y as f64).abs()).fold(0.0, f64::max)
    }

    #[test]
    fn chunk_ranges_align_to_blocks() {
        let r = chunk_ranges(100, 4);
        assert_eq!(r.first().expect("nonempty").0, 0);
        assert_eq!(r.last().expect("nonempty").1, 100);
        for w in r.windows(2) {
            assert_eq!(w[0].1, w[1].0);
            assert_eq!(w[0].1 % SIDE, 0, "interior boundary must be block-aligned");
        }
    }

    #[test]
    fn chunk_ranges_degenerate_cases() {
        assert_eq!(chunk_ranges(3, 8), vec![(0, 3)]);
        assert_eq!(chunk_ranges(8, 1), vec![(0, 8)]);
    }

    #[test]
    fn chunked_roundtrip_matches_bound_3d() {
        let dims = [24usize, 10, 11];
        let data = smooth(dims.iter().product());
        let tol = 1e-3;
        for threads in [1, 2, 4] {
            let out = compress_chunked(&data, &dims, &ZfpMode::FixedAccuracy(tol), threads)
                .expect("compress");
            let (rec, got) = decompress_chunked::<f32>(&out.bytes, threads).expect("decompress");
            assert_eq!(got, dims.to_vec());
            assert!(max_err(&data, &rec) <= tol);
        }
    }

    #[test]
    fn chunked_reconstruction_is_thread_count_invariant() {
        let dims = [32usize, 9, 7];
        let data = smooth(dims.iter().product());
        let mode = ZfpMode::FixedAccuracy(1e-2);
        let one = compress_chunked(&data, &dims, &mode, 1).expect("compress");
        let four = compress_chunked(&data, &dims, &mode, 4).expect("compress");
        // Chunk boundaries align with coding blocks, so the reconstructed
        // values are identical whatever the worker count (the container
        // framing differs: more chunks, more headers).
        let (rec1, _) = decompress_chunked::<f32>(&one.bytes, 1).expect("decompress");
        let (rec4, _) = decompress_chunked::<f32>(&four.bytes, 4).expect("decompress");
        assert_eq!(rec1, rec4);
        // Cross-decoding with a different worker count is also identical.
        let (rec4_1, _) = decompress_chunked::<f32>(&four.bytes, 1).expect("decompress");
        assert_eq!(rec4, rec4_1);
    }

    #[test]
    fn chunked_matches_serial_values() {
        // Chunk boundaries align with blocks, so chunked output must be
        // value-identical to the serial codec.
        let dims = [16usize, 8, 8];
        let data = smooth(dims.iter().product());
        let mode = ZfpMode::FixedAccuracy(1e-3);
        let serial = crate::compress(&data, &dims, &mode).expect("compress");
        let (serial_rec, _) = crate::decompress(&serial.bytes).expect("decompress");
        let chunked = compress_chunked(&data, &dims, &mode, 4).expect("compress");
        let (chunked_rec, _) = decompress_chunked::<f32>(&chunked.bytes, 4).expect("decompress");
        assert_eq!(serial_rec, chunked_rec);
    }

    #[test]
    fn chunked_1d_and_2d() {
        let data = smooth(1000);
        let out = compress_chunked(&data, &[1000], &ZfpMode::FixedAccuracy(1e-3), 4)
            .expect("compress");
        let (rec, _) = decompress_chunked::<f32>(&out.bytes, 4).expect("decompress");
        assert!(max_err(&data, &rec) <= 1e-3);

        let out = compress_chunked(&data, &[25, 40], &ZfpMode::FixedAccuracy(1e-3), 3)
            .expect("compress");
        let (rec, _) = decompress_chunked::<f32>(&out.bytes, 3).expect("decompress");
        assert!(max_err(&data, &rec) <= 1e-3);
    }

    #[test]
    fn chunked_f64() {
        let data: Vec<f64> = (0..4096).map(|i| (i as f64 * 0.001).sin() * 1e6).collect();
        let out = compress_chunked(&data, &[16, 256], &ZfpMode::FixedAccuracy(1e-6), 4)
            .expect("compress");
        let (rec, _) = decompress_chunked::<f64>(&out.bytes, 2).expect("decompress");
        for (a, b) in data.iter().zip(&rec) {
            assert!((a - b).abs() <= 1e-6);
        }
    }

    #[test]
    fn corrupt_container_rejected() {
        let data = smooth(256);
        let out = compress_chunked(&data, &[256], &ZfpMode::FixedAccuracy(1e-3), 2)
            .expect("compress");
        let mut bad = out.bytes.clone();
        bad[0] = b'X';
        assert!(decompress_chunked::<f32>(&bad, 1).is_err());
        assert!(decompress_chunked::<f32>(&out.bytes[..20], 1).is_err());
        assert_eq!(
            decompress_chunked::<f64>(&out.bytes, 1).unwrap_err(),
            ZfpError::TypeMismatch
        );
    }

    #[test]
    fn invalid_inputs_rejected() {
        let data = smooth(10);
        assert!(compress_chunked(&data, &[11], &ZfpMode::FixedAccuracy(1e-3), 2).is_err());
        assert!(compress_chunked(&data, &[], &ZfpMode::FixedAccuracy(1e-3), 2).is_err());
        assert!(compress_chunked(&data, &[10], &ZfpMode::FixedAccuracy(0.0), 2).is_err());
    }
}
