//! The restart path: read a container back and decode it, overlapped.
//!
//! [`run_restart`] streams frames off a random-access [`ChunkSource`];
//! [`run_restart_streamed`] parses them out of a forward-only reader. Both
//! are callers of the one stage driver — they differ only in where frames
//! come from — and both restore exactly what the serial references
//! [`run_restart_sequential`] and [`decode_stream`] restore.

use super::format::{decode_frame, scan_stream, FrameEntry, PushFramer, FRAME_RAW};
use super::stage::{retry, run_stage, Source};
use super::FailurePlan;
use crate::error::{CoreError, PipelineError};
use std::io;
use std::time::Instant;

/// Random-access byte source the restart pipeline reads frames from.
///
/// Implementations must support *concurrent positioned reads* — multiple
/// reader threads issue `read_at` calls at distinct offsets at once.
pub trait ChunkSource: Send + Sync {
    /// Total stream length in bytes.
    fn len(&self) -> u64;

    /// Whether the stream is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fill `buf` from `offset`; a read past the end must error, never
    /// short-read.
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<()>;
}

/// A [`ChunkSource`] over an in-memory container stream.
pub struct SliceSource<'a> {
    bytes: &'a [u8],
}

impl<'a> SliceSource<'a> {
    /// Wrap a container stream held in memory.
    pub fn new(bytes: &'a [u8]) -> Self {
        SliceSource { bytes }
    }
}

impl ChunkSource for SliceSource<'_> {
    fn len(&self) -> u64 {
        self.bytes.len() as u64
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        let off = usize::try_from(offset)
            .map_err(|_| io::Error::new(io::ErrorKind::UnexpectedEof, "offset past end"))?;
        let end = off
            .checked_add(buf.len())
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "read past end"))?;
        buf.copy_from_slice(&self.bytes[off..end]);
        Ok(())
    }
}

/// A [`ChunkSource`] over a container file.
///
/// On Unix, readers share one descriptor and use positioned reads
/// (`pread`), so they never contend on a cursor; elsewhere a mutex
/// serializes seek+read.
pub struct FileSource {
    #[cfg(unix)]
    file: std::fs::File,
    #[cfg(not(unix))]
    file: std::sync::Mutex<std::fs::File>,
    len: u64,
}

impl FileSource {
    /// Open a container file for positioned reads.
    pub fn open(path: &std::path::Path) -> io::Result<FileSource> {
        let file = std::fs::File::open(path)?;
        let len = file.metadata()?.len();
        #[cfg(unix)]
        {
            Ok(FileSource { file, len })
        }
        #[cfg(not(unix))]
        {
            Ok(FileSource { file: std::sync::Mutex::new(file), len })
        }
    }
}

impl ChunkSource for FileSource {
    fn len(&self) -> u64 {
        self.len
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        #[cfg(unix)]
        {
            use std::os::unix::fs::FileExt as _;
            self.file.read_exact_at(buf, offset)
        }
        #[cfg(not(unix))]
        {
            use std::io::{Read as _, Seek as _, SeekFrom};
            let mut f = self.file.lock().expect("file lock");
            f.seek(SeekFrom::Start(offset))?;
            f.read_exact(buf)
        }
    }
}

/// Configuration of the overlapped restart (read→decompress) pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct RestartConfig {
    /// Bounded prefetch-queue depth: at most this many read-but-undecoded
    /// frames exist at once (≥ 1).
    pub queue_depth: usize,
    /// Reader workers issuing positioned frame reads (≥ 1).
    pub readers: usize,
    /// Decode workers draining the prefetch queue (0 ⇒ all cores).
    pub workers: usize,
    /// Read attempts per frame before the pipeline fails (≥ 1).
    pub max_read_attempts: u32,
    /// Decode attempts per frame before the pipeline fails (≥ 1). Only a
    /// worker death (injected) is retried — the payload is intact; a
    /// corrupt payload is permanent and fails fast.
    pub max_decode_attempts: u32,
    /// Backoff between read retries, in milliseconds, scaled linearly by
    /// the attempt number (tests use 0).
    pub retry_backoff_ms: u64,
    /// Injected failures (empty in production).
    pub failure_plan: FailurePlan,
}

impl Default for RestartConfig {
    fn default() -> Self {
        RestartConfig {
            queue_depth: 4,
            readers: 1,
            workers: 0,
            max_read_attempts: 3,
            max_decode_attempts: 2,
            retry_backoff_ms: 1,
            failure_plan: FailurePlan::default(),
        }
    }
}

impl RestartConfig {
    /// Reject degenerate knob settings with a typed error.
    pub fn validate(&self) -> Result<(), CoreError> {
        super::require_nonzero(&[
            (self.queue_depth, "queue_depth must be at least 1"),
            (self.readers, "readers must be at least 1"),
            (self.max_read_attempts as usize, "max_read_attempts must be at least 1"),
            (self.max_decode_attempts as usize, "max_decode_attempts must be at least 1"),
        ])
    }
}

/// Outcome of one restart (read→decompress) execution.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RestartOutcome {
    /// Chunk frames decoded.
    pub chunks: usize,
    /// Elements restored.
    pub elements: usize,
    /// Container bytes read (header + all frames).
    pub bytes_in: u64,
    /// Restored payload bytes (`elements × 4`).
    pub bytes_out: u64,
    /// Frames that were stored raw (write-side codec-failure fallback).
    pub raw_frames: usize,
    /// Read retries that eventually succeeded.
    pub read_retries: u64,
    /// Decode retries (worker deaths) that eventually succeeded.
    pub decode_retries: u64,
    /// Wall-clock seconds inside frame reads (summed across readers —
    /// busy time, not elapsed time).
    pub read_busy_s: f64,
    /// Wall-clock seconds inside chunk decodes (busy time).
    pub decode_busy_s: f64,
    /// Elapsed wall-clock seconds for the whole run.
    pub wall_s: f64,
    /// High-water mark of undecoded bytes buffered by the incremental
    /// framer ([`run_restart_streamed`] only; 0 on the random-access
    /// paths). Bounded by one frame plus one read-buffer fill — asserted
    /// by this module's tests — so streamed restart never holds the
    /// container in memory.
    pub peak_buffered_bytes: usize,
}

impl RestartOutcome {
    /// Compression ratio observed on the read side.
    pub fn ratio(&self) -> f64 {
        if self.bytes_in == 0 { 0.0 } else { self.bytes_out as f64 / self.bytes_in as f64 }
    }

    /// Check the restored values against the header's promise and fill in
    /// the totals that follow from them.
    fn close(mut self, vals: &[f32], expected: u64, t0: Instant) -> Result<Self, CoreError> {
        check_count(vals, expected)?;
        self.elements = vals.len();
        self.bytes_out = vals.len() as u64 * 4;
        self.wall_s = t0.elapsed().as_secs_f64();
        Ok(self)
    }
}

/// The restored values must be exactly as many as the header promised.
fn check_count(vals: &[f32], expected: u64) -> Result<(), CoreError> {
    if vals.len() as u64 != expected {
        return Err(CoreError::Pipeline(PipelineError::new(0, 0, "element count mismatch")));
    }
    Ok(())
}

/// Decode an `LCS1` stream back into the flat element array.
///
/// Compressed frames go through the registry's magic sniffing; raw frames
/// are read verbatim. The serial reference the restart pipeline must
/// match element-for-element.
pub fn decode_stream(stream: &[u8]) -> Result<Vec<f32>, CoreError> {
    let layout = scan_stream(&SliceSource::new(stream))?;
    let mut out = Vec::with_capacity(layout.elements);
    for (seq, f) in layout.frames.iter().enumerate() {
        let payload = &stream[f.off as usize..f.off as usize + f.len];
        out.extend_from_slice(&decode_frame(f.kind, payload, seq)?);
    }
    check_count(&out, layout.elements as u64)?;
    Ok(out)
}

/// Read one frame's payload with bounded retry/backoff, booking the time,
/// the retries and the frame kind into `tally`.
///
/// The allocation is safe against forged lengths: `entry.len` was
/// validated against the stream size by [`scan_stream`].
fn read_frame(
    cfg: &RestartConfig,
    source: &dyn ChunkSource,
    seq: usize,
    entry: FrameEntry,
    tally: &mut RestartOutcome,
) -> Result<Vec<u8>, CoreError> {
    let t0 = Instant::now();
    let plan = &cfg.failure_plan.read_failures;
    let (payload, retries) =
        retry("read", seq, cfg.max_read_attempts, cfg.retry_backoff_ms, plan, || {
            let mut buf = vec![0u8; entry.len];
            source.read_at(entry.off, &mut buf).map(|()| buf)
        })?;
    lcpio_trace::counter_add("restart.read_retries", retries);
    tally.read_busy_s += t0.elapsed().as_secs_f64();
    tally.read_retries += retries;
    tally.raw_frames += usize::from(entry.kind == FRAME_RAW);
    Ok(payload)
}

/// Decode one frame, honouring injected worker deaths.
///
/// A death is transient — the payload is intact, so the chunk is retried
/// up to `max_decode_attempts` times. A real decode error (corrupt
/// payload) is permanent and fails fast without burning retries.
fn decode_chunk(
    cfg: &RestartConfig,
    seq: usize,
    kind: u8,
    payload: &[u8],
    tally: &mut RestartOutcome,
) -> Result<Vec<f32>, CoreError> {
    let t0 = Instant::now();
    let plan = &cfg.failure_plan.decode_failures;
    // Only the injected deaths are retried: the attempt itself is a no-op
    // here, and the one real decode runs once the worker has survived them.
    let survived = retry("decode", seq, cfg.max_decode_attempts, 0, plan, || {
        Ok::<(), std::convert::Infallible>(())
    });
    let result = survived.and_then(|((), deaths)| {
        if deaths > 0 {
            lcpio_trace::counter_add("restart.decode_retries", deaths);
        }
        tally.decode_retries += deaths;
        decode_frame(kind, payload, seq)
    });
    tally.decode_busy_s += t0.elapsed().as_secs_f64();
    result
}

/// Run the *sequential* restart reference: read a frame, decode it,
/// append, repeat. Same frame rules as [`run_restart`], no overlap — the
/// baseline the overlapped path must match element-for-element and beat
/// on wall time.
pub fn run_restart_sequential(
    source: &dyn ChunkSource,
    cfg: &RestartConfig,
) -> Result<(Vec<f32>, RestartOutcome), CoreError> {
    cfg.validate()?;
    let _span = lcpio_trace::span("restart.sequential");
    let t0 = Instant::now();
    let layout = scan_stream(source)?;
    let mut out =
        RestartOutcome { chunks: layout.chunks(), bytes_in: source.len(), ..Default::default() };
    let mut vals = Vec::with_capacity(layout.elements);
    for (seq, entry) in layout.frames.iter().enumerate() {
        let payload = read_frame(cfg, source, seq, *entry, &mut out)?;
        vals.extend_from_slice(&decode_chunk(cfg, seq, entry.kind, &payload, &mut out)?);
    }
    let out = out.close(&vals, layout.elements as u64, t0)?;
    Ok((vals, out))
}

/// Decode frames from `source` on `workers` threads and reassemble them
/// in order: the part both overlapped restart paths share. Returns the
/// restored values and the folded per-thread tallies.
fn decode_overlapped(
    cfg: &RestartConfig,
    reserve: usize,
    workers: usize,
    source: Source<'_, (u8, Vec<u8>, usize), RestartOutcome>,
) -> Result<(Vec<f32>, RestartOutcome), CoreError> {
    let mut vals = Vec::with_capacity(reserve);
    let tallies = run_stage(
        cfg.queue_depth,
        source,
        workers,
        "restart.decode.worker",
        |seq, (kind, bytes, start): (u8, Vec<u8>, usize), tally| {
            decode_chunk(cfg, seq, kind, &bytes[start..], tally)
        },
        |_, chunk: Vec<f32>| {
            vals.extend_from_slice(&chunk);
            Ok(())
        },
    )?;
    let mut out = RestartOutcome::default();
    for t in &tallies {
        out.raw_frames += t.raw_frames;
        out.read_retries += t.read_retries;
        out.decode_retries += t.decode_retries;
        out.read_busy_s += t.read_busy_s;
        out.decode_busy_s += t.decode_busy_s;
    }
    Ok((vals, out))
}

/// Run the overlapped restart pipeline.
///
/// Reader workers draw frame indices from a shared cursor, issue
/// positioned reads, and push payloads into the bounded prefetch window;
/// decode workers drain it strictly in order and reassemble chunks
/// through the ordered commit. The output is element-identical to
/// [`run_restart_sequential`] (and to serial [`decode_stream`]) at every
/// queue depth, reader count, and worker count — overlap changes wall
/// time, never values.
///
/// On a permanent read or decode failure every stage stops and the first
/// typed [`CoreError::Pipeline`] is returned — never a panic, never a
/// silent partial result.
pub fn run_restart(
    source: &dyn ChunkSource,
    cfg: &RestartConfig,
) -> Result<(Vec<f32>, RestartOutcome), CoreError> {
    cfg.validate()?;
    let _span = lcpio_trace::span("restart.streaming");
    let t0 = Instant::now();
    let layout = scan_stream(source)?;
    lcpio_trace::counter_add("restart.chunks", layout.chunks() as u64);
    let readers = Source::Shared {
        threads: cfg.readers.min(layout.chunks().max(1)),
        span: "restart.read.worker",
        produce: &|seq, tally| match layout.frames.get(seq) {
            Some(entry) => {
                read_frame(cfg, source, seq, *entry, tally).map(|p| Some((entry.kind, p, 0)))
            }
            None => Ok(None),
        },
    };
    let workers = crate::par::effective_threads(cfg.workers).min(layout.chunks().max(1));
    let (vals, mut out) = decode_overlapped(cfg, layout.elements, workers, readers)?;
    out.chunks = layout.chunks();
    out.bytes_in = source.len();
    let out = out.close(&vals, layout.elements as u64, t0)?;
    Ok((vals, out))
}

/// Bytes per `read` call in [`run_restart_streamed`]. Small enough that
/// the framer's buffering bound (one frame + one read) stays tight, large
/// enough to amortize syscalls.
pub(super) const STREAM_READ_BYTES: usize = 1 << 16;

/// Run the restart pipeline over a *forward-only* byte stream — a pipe, a
/// socket, a sequential file read — with incremental push decoding.
///
/// Unlike [`run_restart`], which needs a random-access [`ChunkSource`] and
/// an up-front frame-table scan, this path parses frames as bytes arrive
/// (sniffing `LCW1` wire envelopes vs legacy `LCS1` from the first four
/// bytes) and hands each completed frame to the decode-worker pool
/// immediately — decode of chunk *k* overlaps arrival of chunk *k+1*, and
/// peak buffering is bounded by one frame plus the bounded queue
/// ([`RestartOutcome::peak_buffered_bytes`]) rather than the container
/// size. Output is element-identical to [`run_restart_sequential`] on the
/// same container.
///
/// The failure plan's `read_failures` are not honoured here (a
/// forward-only stream cannot replay a positioned read); `decode_failures`
/// behave exactly as in [`run_restart`].
pub fn run_restart_streamed(
    reader: &mut dyn io::Read,
    cfg: &RestartConfig,
) -> Result<(Vec<f32>, RestartOutcome), CoreError> {
    cfg.validate()?;
    let _span = lcpio_trace::span("restart.streamed");
    let t0 = Instant::now();
    let mut framer = PushFramer::new();
    let mut rbuf = vec![0u8; STREAM_READ_BYTES];
    let mut pending = std::collections::VecDeque::new();
    let mut bytes_in = 0u64;
    let mut chunks = 0usize;
    // The feeder runs on the calling thread: read forward until the framer
    // has completed at least one frame, hand frames out one per call (the
    // stage's backpressure caps how far arrival runs ahead of decode), and
    // end the stream at a clean EOF.
    let mut feed = |seq: usize, tally: &mut RestartOutcome| loop {
        if let Some((kind, bytes, start)) = pending.pop_front() {
            tally.raw_frames += usize::from(kind == FRAME_RAW);
            chunks = seq + 1;
            return Ok(Some((kind, bytes, start)));
        }
        let tr = Instant::now();
        let n = match reader.read(&mut rbuf) {
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => {
                let msg = format!("stream read failed: {e}");
                return Err(CoreError::Pipeline(PipelineError::new(seq, 1, msg)));
            }
        };
        tally.read_busy_s += tr.elapsed().as_secs_f64();
        if n == 0 {
            return framer.finish().map(|()| None);
        }
        bytes_in += n as u64;
        pending.extend(framer.feed(&rbuf[..n])?);
    };
    let workers = crate::par::effective_threads(cfg.workers);
    let (vals, mut out) = decode_overlapped(cfg, 0, workers, Source::Caller(&mut feed))?;
    out.chunks = chunks;
    out.bytes_in = bytes_in;
    out.peak_buffered_bytes = framer.peak_buffered();
    let out = out.close(&vals, framer.elements().unwrap_or(0), t0)?;
    Ok((vals, out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::test_support::*;
    use crate::pipeline::{run_sequential, VecSink};

    #[test]
    fn restart_matches_sequential_decode_at_every_depth_and_worker_count() {
        let data = field(10_500);
        let stream = stream_of(&data);
        let reference = decode_stream(&stream).expect("decode");
        let source = SliceSource::new(&stream);
        let (seq_vals, seq_out) =
            run_restart_sequential(&source, &restart_cfg()).expect("sequential restart");
        assert_eq!(bits(&seq_vals), bits(&reference));
        assert_eq!(seq_out.chunks, 11);
        for depth in [1, 2, 4, 16] {
            for workers in [1, 2, 3] {
                for readers in [1, 2] {
                    let c = RestartConfig {
                        queue_depth: depth,
                        readers,
                        workers,
                        ..restart_cfg()
                    };
                    let (vals, out) = run_restart(&source, &c).expect("restart");
                    assert_eq!(
                        bits(&vals),
                        bits(&reference),
                        "depth {depth} workers {workers} readers {readers}"
                    );
                    assert_eq!(out.chunks, seq_out.chunks);
                    assert_eq!(out.elements, data.len());
                    assert_eq!(out.bytes_in, stream.len() as u64);
                }
            }
        }
    }

    #[test]
    fn restart_decodes_raw_fallback_frames_exactly() {
        let data = field(5_000);
        let mut c = cfg();
        c.failure_plan.compress_failures =
            (0..c.max_compress_attempts).map(|a| (2usize, a)).collect();
        let mut sink = VecSink::default();
        run_sequential(&data, &c, &mut sink).expect("sequential");
        let source = SliceSource::new(&sink.bytes);
        let (vals, out) = run_restart(&source, &restart_cfg()).expect("restart");
        assert_eq!(out.raw_frames, 1);
        assert_eq!(&vals[2000..3000], &data[2000..3000]);
    }

    #[test]
    fn restart_validate_rejects_degenerate_knobs() {
        let stream = stream_of(&field(100));
        let source = SliceSource::new(&stream);
        for bad in [
            RestartConfig { queue_depth: 0, ..restart_cfg() },
            RestartConfig { readers: 0, ..restart_cfg() },
            RestartConfig { max_read_attempts: 0, ..restart_cfg() },
            RestartConfig { max_decode_attempts: 0, ..restart_cfg() },
        ] {
            assert!(matches!(run_restart(&source, &bad), Err(CoreError::Pipeline(_))));
        }
    }

    #[test]
    fn restart_of_header_only_stream_is_empty() {
        let stream = stream_of(&[]);
        assert_eq!(stream.len(), 20);
        let source = SliceSource::new(&stream);
        let (vals, out) = run_restart(&source, &restart_cfg()).expect("restart");
        assert!(vals.is_empty());
        assert_eq!(out.chunks, 0);
        assert_eq!(out.elements, 0);
    }

    #[test]
    fn file_source_restart_roundtrips() {
        let data = field(6_000);
        let stream = stream_of(&data);
        let path = std::env::temp_dir().join("lcpio-pipeline-filesource.lcs");
        std::fs::write(&path, &stream).expect("write stream");
        let source = FileSource::open(&path).expect("open");
        assert_eq!(ChunkSource::len(&source), stream.len() as u64);
        let (vals, _) = run_restart(&source, &restart_cfg()).expect("restart");
        assert_eq!(bits(&vals), bits(&decode_stream(&stream).expect("decode")));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn restart_decodes_wire_streams_like_legacy() {
        let data = field(10_500);
        let reference = decode_stream(&stream_of(&data)).expect("decode legacy");
        let wire = wire_stream_of(&data);
        let source = SliceSource::new(&wire);
        let (seq_vals, _) = run_restart_sequential(&source, &restart_cfg()).expect("sequential");
        assert_eq!(bits(&seq_vals), bits(&reference));
        let c = RestartConfig { queue_depth: 2, workers: 2, ..restart_cfg() };
        let (vals, out) = run_restart(&source, &c).expect("restart");
        assert_eq!(bits(&vals), bits(&reference));
        assert_eq!(out.elements, data.len());
        assert_eq!(out.bytes_in, wire.len() as u64);
    }

    #[test]
    fn streamed_restart_matches_positioned_restart_on_both_formats() {
        let data = field(10_500);
        for stream in [stream_of(&data), wire_stream_of(&data)] {
            let reference = decode_stream(&stream).expect("decode");
            let layout = scan_stream(&SliceSource::new(&stream)).expect("scan");
            let max_frame = layout.max_frame_len();
            for depth in [1, 4] {
                for workers in [1, 3] {
                    let c = RestartConfig { queue_depth: depth, workers, ..restart_cfg() };
                    let mut rd: &[u8] = &stream;
                    let (vals, out) = run_restart_streamed(&mut rd, &c).expect("streamed");
                    assert_eq!(bits(&vals), bits(&reference), "depth {depth} workers {workers}");
                    assert_eq!(out.chunks, layout.chunks());
                    assert_eq!(out.elements, data.len());
                    // Peak buffering is bounded by one frame plus one
                    // read-buffer fill plus the header — never the whole
                    // container.
                    assert!(out.peak_buffered_bytes > 0);
                    assert!(
                        out.peak_buffered_bytes
                            <= max_frame + STREAM_READ_BYTES + lcpio_wire::MAX_HEADER_LEN,
                        "peak {} vs frame {max_frame}",
                        out.peak_buffered_bytes
                    );
                }
            }
        }
    }

    #[test]
    fn streamed_restart_of_empty_streams_is_empty() {
        for stream in [stream_of(&[]), wire_stream_of(&[])] {
            let mut rd: &[u8] = &stream;
            let (vals, out) = run_restart_streamed(&mut rd, &restart_cfg()).expect("streamed");
            assert!(vals.is_empty());
            assert_eq!(out.chunks, 0);
        }
    }

    #[test]
    fn streamed_restart_rejects_truncation_at_every_offset() {
        let data = field(2_500);
        for stream in [stream_of(&data), wire_stream_of(&data)] {
            for cut in 0..stream.len() {
                let mut rd: &[u8] = &stream[..cut];
                assert!(
                    run_restart_streamed(&mut rd, &restart_cfg()).is_err(),
                    "cut at {cut}/{} decoded",
                    stream.len()
                );
            }
        }
    }

    #[test]
    fn mixed_codec_restart_paths_agree() {
        let (data, stream) = mixed_stream(4096, 6);
        let reference = decode_stream(&stream).expect("decode");
        assert_eq!(reference.len(), data.len());
        let source = SliceSource::new(&stream);
        let (a, _) = run_restart_sequential(&source, &restart_cfg()).expect("sequential restart");
        assert_eq!(bits(&a), bits(&reference));
        let c = RestartConfig { queue_depth: 2, workers: 3, ..restart_cfg() };
        let (b, _) = run_restart(&source, &c).expect("restart");
        assert_eq!(bits(&b), bits(&reference));
        let mut rd: &[u8] = &stream;
        let (d, _) = run_restart_streamed(&mut rd, &c).expect("streamed restart");
        assert_eq!(bits(&d), bits(&reference));
    }

    #[test]
    fn mixed_codec_truncation_rejected_at_every_offset() {
        let (_, stream) = mixed_stream(1024, 2);
        for cut in 0..stream.len() {
            let mut rd: &[u8] = &stream[..cut];
            assert!(
                run_restart_streamed(&mut rd, &restart_cfg()).is_err(),
                "cut at {cut}/{} decoded",
                stream.len()
            );
        }
    }
}
