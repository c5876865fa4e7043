//! The write path: plan, compress and frame chunks, commit them in order.
//!
//! [`run_sequential`] is the serial reference (compress a chunk, write it,
//! repeat); [`run_streaming`] runs the same steps as one call of the stage
//! driver, so compression of chunk *k+1* proceeds while chunk *k* is on
//! the wire. Both emit byte-identical streams.

use super::format::{frame_bytes, header_bytes, raw_payload, FRAME_COMPRESSED, FRAME_RAW};
use super::stage::{retry, run_stage, Source};
use super::FailurePlan;
use crate::error::{CoreError, PipelineError};
use crate::policy::{build_policy, PolicyKind};
use crate::records::Compressor;
use crate::workmap::CostModel;
use lcpio_codec::chunked::effective_threads;
use lcpio_codec::policy::{ChunkPlan, CodecId};
use lcpio_codec::{BoundSpec, CodecStats};
use lcpio_powersim::Chip;
use std::io;
use std::io::Write as _;
use std::ops::Range;
use std::time::Instant;

/// Configuration of the streaming pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineConfig {
    /// Compressor backend (resolved through the codec registry).
    pub compressor: Compressor,
    /// Error bound for every chunk.
    pub bound: BoundSpec,
    /// Elements per chunk (the last chunk may be shorter).
    pub chunk_elements: usize,
    /// Bounded-queue depth between the stages: at most this many
    /// compressed-but-unwritten chunks exist at once (≥ 1).
    pub queue_depth: usize,
    /// Writer workers draining the queue (≥ 1). Commits to the sink are
    /// serialized in chunk order regardless, so the stream is identical.
    pub writers: usize,
    /// Compression workers (0 ⇒ all available cores).
    pub compress_threads: usize,
    /// Write attempts per chunk before the pipeline fails (≥ 1).
    pub max_write_attempts: u32,
    /// Backoff between write retries, in milliseconds, scaled linearly by
    /// the attempt number (tests use 0).
    pub retry_backoff_ms: u64,
    /// Emit the stream as an `LCW1` wire envelope (container id `LCS1`,
    /// one frame per chunk with the kind byte leading the payload) instead
    /// of the legacy `LCS1` container. Both forms carry identical chunk
    /// payloads and decode identically, positioned
    /// ([`run_restart`](super::run_restart)) or forward-only
    /// ([`run_restart_streamed`](super::run_restart_streamed)).
    pub wire_format: bool,
    /// Per-chunk planning policy. [`PolicyKind::Fixed`] reproduces the
    /// single-codec stream byte-for-byte; the heuristic and adaptive
    /// policies may route each chunk to a different codec (and simulated
    /// frequency), producing a mixed-codec container. Wire-form mixed
    /// containers additionally carry a per-frame codec-tag TLV.
    pub policy: PolicyKind,
    /// Simulated chip whose DVFS ladder the policy plans against.
    pub chip: Chip,
    /// Injected failures (empty in production).
    pub failure_plan: FailurePlan,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            compressor: Compressor::Sz,
            bound: BoundSpec::Absolute(1e-3),
            chunk_elements: 1 << 18,
            queue_depth: 4,
            writers: 1,
            compress_threads: 0,
            max_write_attempts: 3,
            retry_backoff_ms: 1,
            wire_format: false,
            policy: PolicyKind::Fixed,
            chip: Chip::Broadwell,
            failure_plan: FailurePlan::default(),
        }
    }
}

impl PipelineConfig {
    /// Reject degenerate knob settings with a typed error.
    pub fn validate(&self) -> Result<(), CoreError> {
        super::require_nonzero(&[
            (self.chunk_elements, "chunk_elements must be at least 1"),
            (self.queue_depth, "queue_depth must be at least 1"),
            (self.writers, "writers must be at least 1"),
            (self.max_write_attempts as usize, "max_write_attempts must be at least 1"),
        ])
    }
}

/// Where the writer stage commits finished chunks.
///
/// `write_chunk` receives frames strictly in `seq` order (0, 1, 2, …; the
/// stream header is seq 0's predecessor and arrives via `write_header`).
/// An implementation may fail transiently — the writer retries up to
/// [`PipelineConfig::max_write_attempts`] times.
pub trait ChunkSink: Send {
    /// Write the stream header (once, before any chunk).
    fn write_header(&mut self, bytes: &[u8]) -> io::Result<()>;
    /// Write one framed chunk. `seq` is the chunk index.
    fn write_chunk(&mut self, seq: usize, bytes: &[u8]) -> io::Result<()>;
}

/// An in-memory sink: the assembled container stream.
#[derive(Debug, Default)]
pub struct VecSink {
    /// The bytes written so far (header + frames in order).
    pub bytes: Vec<u8>,
}

impl ChunkSink for VecSink {
    fn write_header(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.bytes.extend_from_slice(bytes);
        Ok(())
    }

    fn write_chunk(&mut self, _seq: usize, bytes: &[u8]) -> io::Result<()> {
        self.bytes.extend_from_slice(bytes);
        Ok(())
    }
}

/// A sink that writes the container to disk **atomically**: all frames go
/// to `<path>.part`, which is renamed onto the final path only when
/// [`FileSink::commit`] is called after a successful run. Dropping an
/// uncommitted sink removes the partial file, so a failed pipeline never
/// leaves a partial container at the destination.
pub struct FileSink {
    file: Option<std::io::BufWriter<std::fs::File>>,
    tmp: std::path::PathBuf,
    dest: std::path::PathBuf,
    committed: bool,
}

impl FileSink {
    /// Open `<path>.part` for writing.
    pub fn create(path: &std::path::Path) -> io::Result<FileSink> {
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".part");
        let tmp = std::path::PathBuf::from(tmp);
        let file = std::fs::File::create(&tmp)?;
        Ok(FileSink {
            file: Some(std::io::BufWriter::new(file)),
            tmp,
            dest: path.to_path_buf(),
            committed: false,
        })
    }

    /// Flush and atomically rename the finished container into place.
    pub fn commit(mut self) -> io::Result<()> {
        if let Some(mut f) = self.file.take() {
            f.flush()?;
        }
        std::fs::rename(&self.tmp, &self.dest)?;
        self.committed = true;
        Ok(())
    }
}

impl Drop for FileSink {
    fn drop(&mut self) {
        if !self.committed {
            drop(self.file.take());
            let _ = std::fs::remove_file(&self.tmp);
        }
    }
}

impl ChunkSink for FileSink {
    fn write_header(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.file.as_mut().expect("sink not committed").write_all(bytes)
    }

    fn write_chunk(&mut self, _seq: usize, bytes: &[u8]) -> io::Result<()> {
        self.file.as_mut().expect("sink not committed").write_all(bytes)
    }
}

/// Outcome of one pipeline (or sequential-reference) execution.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StreamOutcome {
    /// Chunks written.
    pub chunks: usize,
    /// Uncompressed input bytes.
    pub bytes_in: u64,
    /// Container bytes written (header + all frames).
    pub bytes_out: u64,
    /// Chunks stored as raw frames, planned raw or after a codec failure:
    /// the same count as `codec_chunks[Raw]`.
    pub raw_fallbacks: usize,
    /// Total write retries that eventually succeeded.
    pub write_retries: u64,
    /// Summed codec statistics over the compressed chunks.
    pub stats: CodecStats,
    /// Wall-clock seconds spent inside chunk compression (summed across
    /// workers — busy time, not elapsed time).
    pub compress_busy_s: f64,
    /// Wall-clock seconds spent inside sink writes (busy time).
    pub write_busy_s: f64,
    /// Wall-clock seconds spent computing per-chunk plans before the
    /// stream was opened (near 0 for the fixed policy, which samples
    /// nothing).
    pub plan_s: f64,
    /// Chunks emitted per codec, indexed by wire codec id
    /// ([`CodecId::Raw`], [`CodecId::Sz`], [`CodecId::Zfp`]). Raw counts
    /// both planned-raw chunks and codec-failure fallbacks.
    pub codec_chunks: [usize; 3],
    /// Elapsed wall-clock seconds for the whole run.
    pub wall_s: f64,
}

impl StreamOutcome {
    /// Compression ratio of the whole container.
    pub fn ratio(&self) -> f64 {
        if self.bytes_out == 0 { 0.0 } else { self.bytes_in as f64 / self.bytes_out as f64 }
    }

    /// Book one compressed frame: its time, codec statistics and codec.
    fn book_frame(&mut self, frame: &Frame) {
        self.compress_busy_s += frame.compress_s;
        if let Some(s) = &frame.stats {
            accumulate(&mut self.stats, s);
        }
        self.codec_chunks[frame.codec.as_u8() as usize] += 1;
        self.raw_fallbacks += usize::from(frame.codec == CodecId::Raw);
    }
}

fn accumulate(total: &mut CodecStats, s: &CodecStats) {
    total.elements += s.elements;
    total.input_bytes += s.input_bytes;
    total.output_bytes += s.output_bytes;
    total.literal_elements += s.literal_elements;
    total.coded_bits += s.coded_bits;
}

/// Split `data` into the pipeline's chunks.
fn chunk_ranges(len: usize, chunk_elements: usize) -> Vec<Range<usize>> {
    (0..len).step_by(chunk_elements).map(|start| start..(start + chunk_elements).min(len)).collect()
}

/// Compute every chunk's plan up front, before the header is written.
///
/// Plans are a pure function of `(chunk bytes, seq)` — never of thread
/// interleaving — so the sequential and streaming paths produce identical
/// plans, and with them identical streams, at every worker count.
fn plan_chunks(cfg: &PipelineConfig, data: &[f32], ranges: &[Range<usize>]) -> Vec<ChunkPlan> {
    let policy =
        build_policy(cfg.policy, cfg.compressor, cfg.bound, cfg.chip, CostModel::default());
    ranges.iter().enumerate().map(|(seq, r)| policy.plan(&data[r.clone()], seq)).collect()
}

/// A dump ready to stream: its chunks, their plans, and the outcome so
/// far (the header is already in the sink).
struct Opened {
    ranges: Vec<Range<usize>>,
    plans: Vec<ChunkPlan>,
    out: StreamOutcome,
}

/// Plan every chunk and write the stream header: the opening both write
/// paths share. Plans are computed up front on the calling thread because
/// the wire header needs the codec tags before the first frame, and a pure
/// pre-pass is what keeps the stream byte-identical at every worker count.
fn open_stream(
    data: &[f32],
    cfg: &PipelineConfig,
    sink: &mut dyn ChunkSink,
) -> Result<Opened, CoreError> {
    let ranges = chunk_ranges(data.len(), cfg.chunk_elements);
    let t0 = Instant::now();
    let plans = plan_chunks(cfg, data, &ranges);
    let plan_s = t0.elapsed().as_secs_f64();
    // The `CODEC_TAGS` TLV goes only into mixed-codec wire headers: the
    // legacy layout has no room for it, and the fixed policy's stream must
    // stay byte-identical to the single-codec form on either layout.
    let tags: Option<Vec<u8>> = (cfg.wire_format && cfg.policy != PolicyKind::Fixed)
        .then(|| plans.iter().map(|p| p.codec.as_u8()).collect());
    let header = header_bytes(
        cfg.wire_format,
        data.len() as u64,
        cfg.chunk_elements as u64,
        ranges.len(),
        tags.as_deref(),
    );
    sink.write_header(&header).map_err(|e| {
        CoreError::Pipeline(PipelineError::new(0, 1, format!("header write failed: {e}")))
    })?;
    let out = StreamOutcome {
        chunks: ranges.len(),
        bytes_in: data.len() as u64 * 4,
        bytes_out: header.len() as u64,
        plan_s,
        ..StreamOutcome::default()
    };
    Ok(Opened { ranges, plans, out })
}

/// A compressed (or raw-fallback) chunk, framed for the container.
struct Frame {
    bytes: Vec<u8>,
    stats: Option<CodecStats>,
    /// Codec the frame was actually emitted with ([`CodecId::Raw`] for
    /// planned-raw chunks and codec-failure fallbacks alike).
    codec: CodecId,
    compress_s: f64,
}

/// Compress one chunk into its frame under the chunk's plan, falling back
/// to a raw frame on a codec error or an injected failure. Deterministic:
/// identical for sequential and streaming.
fn compress_frame(cfg: &PipelineConfig, seq: usize, chunk: &[f32], plan: &ChunkPlan) -> Frame {
    let t0 = Instant::now();
    // A plan for `CodecId::Raw` resolves to no registry codec and drops
    // straight into the raw-frame path below. The codec is a pure
    // function of its inputs, so a failed call is not retried.
    let encoded = lcpio_codec::registry()
        .by_name(plan.codec.name())
        .filter(|_| !cfg.failure_plan.compress_failures.contains(&seq))
        .and_then(|codec| codec.compress(chunk, &[chunk.len()], plan.bound).ok());
    let (bytes, stats, codec) = match encoded {
        Some(e) => {
            (frame_bytes(cfg.wire_format, FRAME_COMPRESSED, &e.bytes), Some(e.stats), plan.codec)
        }
        // Graceful degradation: a codec failure must not sink the dump —
        // store the chunk uncompressed (bound trivially respected: the
        // data is exact).
        None => (frame_bytes(cfg.wire_format, FRAME_RAW, &raw_payload(chunk)), None, CodecId::Raw),
    };
    Frame { bytes, stats, codec, compress_s: t0.elapsed().as_secs_f64() }
}

/// Write one frame to the sink with bounded retry/backoff, booking the
/// time, the retries and the bytes into `out`. Fails with the typed error
/// after `max_write_attempts` failures.
fn write_frame(
    cfg: &PipelineConfig,
    sink: &mut dyn ChunkSink,
    seq: usize,
    bytes: &[u8],
    out: &mut StreamOutcome,
) -> Result<(), CoreError> {
    let t0 = Instant::now();
    let injected = &cfg.failure_plan.write_failures;
    let ((), retries) =
        retry("write", seq, cfg.max_write_attempts, cfg.retry_backoff_ms, injected, || {
            sink.write_chunk(seq, bytes)
        })?;
    out.write_retries += retries;
    out.write_busy_s += t0.elapsed().as_secs_f64();
    out.bytes_out += bytes.len() as u64;
    Ok(())
}

/// Run the *sequential* reference path: compress chunk, write chunk,
/// repeat. Same frames, same sink protocol, no overlap — the baseline the
/// overlapped pipeline must match byte-for-byte and beat on wall time.
pub fn run_sequential(
    data: &[f32],
    cfg: &PipelineConfig,
    sink: &mut dyn ChunkSink,
) -> Result<StreamOutcome, CoreError> {
    cfg.validate()?;
    let _span = lcpio_trace::span("pipeline.sequential");
    let t0 = Instant::now();
    let Opened { ranges, plans, mut out } = open_stream(data, cfg, sink)?;
    for (seq, r) in ranges.iter().enumerate() {
        let frame = compress_frame(cfg, seq, &data[r.clone()], &plans[seq]);
        out.book_frame(&frame);
        write_frame(cfg, sink, seq, &frame.bytes, &mut out)?;
    }
    out.wall_s = t0.elapsed().as_secs_f64();
    Ok(out)
}

/// Run the overlapped streaming pipeline.
///
/// Compression workers (up to `compress_threads`) draw chunk indices from
/// a shared cursor and push frames into the bounded window; writer workers
/// (`writers`) drain it and commit to `sink` strictly in order, retrying
/// transient failures. The emitted stream is byte-identical to
/// [`run_sequential`] for every knob setting — overlap changes wall time,
/// never bytes.
///
/// On a permanent write failure every stage is stopped and the first
/// [`CoreError::Pipeline`] is returned; the sink may have received a
/// prefix of the stream (file-based callers write to a temporary path and
/// only rename on success — see the CLI's `pipeline` subcommand).
pub fn run_streaming(
    data: &[f32],
    cfg: &PipelineConfig,
    sink: &mut dyn ChunkSink,
) -> Result<StreamOutcome, CoreError> {
    cfg.validate()?;
    let _span = lcpio_trace::span("pipeline.streaming");
    let t0 = Instant::now();
    let Opened { ranges, plans, mut out } = open_stream(data, cfg, sink)?;
    let compressors = Source::Shared {
        threads: effective_threads(cfg.compress_threads).min(ranges.len().max(1)),
        span: "pipeline.compress.worker",
        produce: &|seq, tally: &mut StreamOutcome| {
            let Some(r) = ranges.get(seq) else { return Ok(None) };
            let frame = compress_frame(cfg, seq, &data[r.clone()], &plans[seq]);
            tally.book_frame(&frame);
            Ok(Some(frame.bytes))
        },
    };
    let tallies = run_stage(
        cfg.queue_depth,
        compressors,
        cfg.writers,
        "pipeline.write.worker",
        |_, frame: Vec<u8>, _| Ok(frame),
        |seq, frame: Vec<u8>| write_frame(cfg, sink, seq, &frame, &mut out),
    )?;
    for t in &tallies {
        out.compress_busy_s += t.compress_busy_s;
        out.raw_fallbacks += t.raw_fallbacks;
        accumulate(&mut out.stats, &t.stats);
        for (total, n) in out.codec_chunks.iter_mut().zip(t.codec_chunks) {
            *total += n;
        }
    }
    out.wall_s = t0.elapsed().as_secs_f64();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::test_support::*;
    use crate::pipeline::{decode_stream, scan_stream, SliceSource};

    #[test]
    fn streaming_is_byte_identical_to_sequential() {
        let data = field(10_500);
        for depth in [1, 2, 4, 16] {
            for writers in [1, 2, 3] {
                let c = PipelineConfig { queue_depth: depth, writers, ..cfg() };
                let mut seq = VecSink::default();
                let mut par = VecSink::default();
                let a = run_sequential(&data, &c, &mut seq).expect("sequential");
                let b = run_streaming(&data, &c, &mut par).expect("streaming");
                assert_eq!(seq.bytes, par.bytes, "depth {depth} writers {writers}");
                assert_eq!(a.chunks, b.chunks);
                assert_eq!(a.bytes_out, b.bytes_out);
                assert_eq!(a.stats, b.stats);
            }
        }
    }

    #[test]
    fn decode_roundtrips_within_bound() {
        let data = field(7_321);
        let c = cfg();
        let mut sink = VecSink::default();
        run_streaming(&data, &c, &mut sink).expect("streaming");
        let back = decode_stream(&sink.bytes).expect("decode");
        assert_eq!(back.len(), data.len());
        let BoundSpec::Absolute(eb) = c.bound else { panic!("absolute bound") };
        for (a, b) in data.iter().zip(&back) {
            assert!((a - b).abs() as f64 <= eb * 1.0000001, "{a} vs {b}");
        }
    }

    #[test]
    fn compressed_stream_is_smaller() {
        let data = field(50_000);
        let mut sink = VecSink::default();
        let out = run_streaming(&data, &cfg(), &mut sink).expect("streaming");
        assert!(out.ratio() > 1.5, "ratio {}", out.ratio());
        assert_eq!(out.bytes_out as usize, sink.bytes.len());
    }

    #[test]
    fn validate_rejects_degenerate_knobs() {
        for bad in [
            PipelineConfig { queue_depth: 0, ..cfg() },
            PipelineConfig { writers: 0, ..cfg() },
            PipelineConfig { chunk_elements: 0, ..cfg() },
            PipelineConfig { max_write_attempts: 0, ..cfg() },
        ] {
            let mut sink = VecSink::default();
            assert!(matches!(
                run_streaming(&[1.0; 8], &bad, &mut sink),
                Err(CoreError::Pipeline(_))
            ));
        }
    }

    #[test]
    fn empty_input_writes_header_only() {
        let mut sink = VecSink::default();
        let out = run_streaming(&[], &cfg(), &mut sink).expect("streaming");
        assert_eq!(out.chunks, 0);
        assert_eq!(sink.bytes.len(), 20);
        assert_eq!(decode_stream(&sink.bytes).expect("decode"), Vec::<f32>::new());
    }

    #[test]
    fn injected_codec_failure_falls_back_to_raw() {
        let data = field(5_000);
        let mut c = cfg();
        // Chunk 2 fails compression → raw frame.
        c.failure_plan.compress_failures = vec![2];
        let mut seq = VecSink::default();
        let mut par = VecSink::default();
        let a = run_sequential(&data, &c, &mut seq).expect("sequential");
        let b = run_streaming(&data, &c, &mut par).expect("streaming");
        assert_eq!(a.raw_fallbacks, 1);
        assert_eq!(b.raw_fallbacks, 1);
        assert_eq!(seq.bytes, par.bytes, "fallback must stay deterministic");
        // Raw chunk decodes exactly.
        let back = decode_stream(&par.bytes).expect("decode");
        assert_eq!(&back[2000..3000], &data[2000..3000]);
    }

    #[test]
    fn transient_write_failure_is_retried() {
        let data = field(4_000);
        let mut c = cfg();
        c.failure_plan.write_failures = vec![(1, 0), (3, 0), (3, 1)];
        let mut clean = VecSink::default();
        run_sequential(&data, &cfg(), &mut clean).expect("clean");
        let mut par = VecSink::default();
        let out = run_streaming(&data, &c, &mut par).expect("retries succeed");
        assert_eq!(out.write_retries, 3);
        assert_eq!(clean.bytes, par.bytes);
    }

    #[test]
    fn exhausted_retries_surface_typed_error() {
        let data = field(4_000);
        let mut c = cfg();
        c.failure_plan.write_failures =
            (0..c.max_write_attempts).map(|a| (2usize, a)).collect();
        let mut sink = VecSink::default();
        let err = run_streaming(&data, &c, &mut sink).expect_err("chunk 2 must fail");
        match err {
            CoreError::Pipeline(p) => {
                assert_eq!(p.chunk, 2);
                assert_eq!(p.attempts, c.max_write_attempts);
            }
            other => panic!("wrong error {other:?}"),
        }
    }

    #[test]
    fn wire_format_streaming_is_byte_identical_to_sequential() {
        let data = field(10_500);
        for depth in [1, 4] {
            for writers in [1, 3] {
                let c = PipelineConfig { queue_depth: depth, writers, ..wire_cfg() };
                let mut seq = VecSink::default();
                let mut par = VecSink::default();
                run_sequential(&data, &c, &mut seq).expect("sequential");
                run_streaming(&data, &c, &mut par).expect("streaming");
                assert_eq!(seq.bytes, par.bytes, "depth {depth} writers {writers}");
            }
        }
    }

    #[test]
    fn mixed_codec_streaming_is_byte_identical_at_every_knob() {
        let data = crate::policy::interleaved_cesm_hacc(2048, 6, 7);
        for policy in [PolicyKind::Heuristic, PolicyKind::Adaptive] {
            for wire in [false, true] {
                let base = PipelineConfig {
                    chunk_elements: 2048,
                    wire_format: wire,
                    policy,
                    retry_backoff_ms: 0,
                    ..PipelineConfig::default()
                };
                let mut seq = VecSink::default();
                let a = run_sequential(&data, &base, &mut seq).expect("sequential");
                assert_eq!(a.codec_chunks.iter().sum::<usize>(), a.chunks);
                for (threads, writers) in [(1, 1), (2, 3), (0, 2)] {
                    let c = PipelineConfig {
                        compress_threads: threads,
                        writers,
                        ..base.clone()
                    };
                    let mut par = VecSink::default();
                    let b = run_streaming(&data, &c, &mut par).expect("streaming");
                    assert_eq!(
                        seq.bytes, par.bytes,
                        "{policy:?} wire={wire} threads={threads} writers={writers}"
                    );
                    assert_eq!(a.codec_chunks, b.codec_chunks);
                }
            }
        }
    }

    #[test]
    fn legacy_layout_supports_mixed_codecs_without_tags() {
        let data = crate::policy::interleaved_cesm_hacc(4096, 4, 11);
        let c = PipelineConfig {
            chunk_elements: 4096,
            policy: PolicyKind::Adaptive,
            retry_backoff_ms: 0,
            ..PipelineConfig::default()
        };
        let mut sink = VecSink::default();
        let out = run_sequential(&data, &c, &mut sink).expect("sequential");
        assert_eq!(out.codec_chunks.iter().sum::<usize>(), out.chunks);
        assert!(out.plan_s > 0.0);
        // Legacy frames are self-describing (magic-sniffed), so the mixed
        // container needs no tag TLV — and the layout reports none.
        let layout = scan_stream(&SliceSource::new(&sink.bytes)).expect("scan");
        assert!(layout.codec_tags().is_none());
        assert_eq!(decode_stream(&sink.bytes).expect("decode").len(), data.len());
    }
}
