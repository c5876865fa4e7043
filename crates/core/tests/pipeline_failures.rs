//! Failure-injection suite for the streaming pipeline's writer stage.
//!
//! The pipeline promises three robustness properties:
//!
//! * transient write failures are retried with bounded backoff and leave
//!   the emitted stream byte-identical to a clean run;
//! * exhausted retries surface a typed [`CoreError::Pipeline`] and leave
//!   **no partial container** at the destination path;
//! * degraded schedules — queue depth 1, writers slower than the
//!   compressors, more writers than chunks — never change the bytes.

use lcpio_codec::BoundSpec;
use lcpio_core::error::CoreError;
use lcpio_core::pipeline::{
    decode_stream, run_restart, run_restart_sequential, run_restart_streamed, run_sequential,
    run_streaming, ChunkSink, FileSink, PipelineConfig, RestartConfig, SliceSource, VecSink,
};
use lcpio_core::Compressor;
use std::io;
use std::path::PathBuf;
use std::time::Duration;

fn field(n: usize) -> Vec<f32> {
    (0..n).map(|i| (i as f32 * 0.011).sin() * 30.0 + (i as f32 * 0.0017).cos() * 3.0).collect()
}

fn cfg() -> PipelineConfig {
    PipelineConfig { chunk_elements: 1500, retry_backoff_ms: 0, ..PipelineConfig::default() }
}

fn clean_stream(data: &[f32], c: &PipelineConfig) -> Vec<u8> {
    let mut sink = VecSink::default();
    run_sequential(data, c, &mut sink).expect("clean sequential run");
    sink.bytes
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("lcpio-pipeline-failures");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

/// A sink that sleeps on every chunk commit: the writer stage becomes the
/// bottleneck and the bounded queue spends the run saturated.
struct SlowSink {
    inner: VecSink,
    delay: Duration,
}

impl ChunkSink for SlowSink {
    fn write_header(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.inner.write_header(bytes)
    }

    fn write_chunk(&mut self, seq: usize, bytes: &[u8]) -> io::Result<()> {
        std::thread::sleep(self.delay);
        self.inner.write_chunk(seq, bytes)
    }
}

#[test]
fn mid_stream_write_error_is_retried_and_stream_is_identical() {
    let data = field(12_000);
    let reference = clean_stream(&data, &cfg());
    let mut c = cfg();
    // First attempt on chunks 0, 3 and 7 fails; chunk 5 fails twice.
    c.failure_plan.write_failures = vec![(0, 0), (3, 0), (7, 0), (5, 0), (5, 1)];
    for depth in [1, 2, 4] {
        let mut sink = VecSink::default();
        let out = run_streaming(
            &data,
            &PipelineConfig { queue_depth: depth, ..c.clone() },
            &mut sink,
        )
        .expect("all retries succeed");
        assert_eq!(out.write_retries, 5, "depth {depth}");
        assert_eq!(sink.bytes, reference, "depth {depth}");
    }
}

#[test]
fn exhausted_retries_fail_with_typed_error_and_no_partial_file() {
    let data = field(9_000);
    let mut c = cfg();
    // Chunk 4 fails on every attempt — retries exhaust.
    c.failure_plan.write_failures = (0..c.max_write_attempts).map(|a| (4usize, a)).collect();
    let dest = tmp("exhausted.lcs");
    let part = tmp("exhausted.lcs.part");
    let _ = std::fs::remove_file(&dest);
    let _ = std::fs::remove_file(&part);

    let sink = FileSink::create(&dest).expect("create sink");
    let err = {
        let mut sink = sink;
        let e = run_streaming(&data, &c, &mut sink).expect_err("chunk 4 must fail");
        // `sink` dropped here without commit → partial file removed.
        e
    };
    match err {
        CoreError::Pipeline(p) => {
            assert_eq!(p.chunk, 4);
            assert_eq!(p.attempts, c.max_write_attempts);
            assert!(p.message.contains("injected"), "{}", p.message);
        }
        other => panic!("expected CoreError::Pipeline, got {other:?}"),
    }
    assert!(!dest.exists(), "no container may appear at the destination");
    assert!(!part.exists(), "the partial temp file must be cleaned up");
}

#[test]
fn committed_file_sink_matches_in_memory_stream() {
    let data = field(10_000);
    let c = cfg();
    let reference = clean_stream(&data, &c);
    let dest = tmp("committed.lcs");
    let mut sink = FileSink::create(&dest).expect("create sink");
    run_streaming(&data, &c, &mut sink).expect("streaming");
    sink.commit().expect("commit");
    assert!(!tmp("committed.lcs.part").exists(), "temp renamed away");
    assert_eq!(std::fs::read(&dest).expect("read container"), reference);
}

#[test]
fn queue_depth_one_is_byte_identical_to_sequential() {
    let data = field(20_000);
    let c = PipelineConfig { queue_depth: 1, ..cfg() };
    let reference = clean_stream(&data, &c);
    let mut sink = VecSink::default();
    let out = run_streaming(&data, &c, &mut sink).expect("depth-1 streaming");
    assert_eq!(sink.bytes, reference);
    assert_eq!(out.chunks, 14);
}

#[test]
fn writer_slower_than_compressor_is_byte_identical_to_sequential() {
    // The queue saturates and every push blocks on backpressure; ordering
    // and bytes must still match the sequential reference exactly.
    let data = field(15_000);
    let c = PipelineConfig { queue_depth: 2, ..cfg() };
    let reference = clean_stream(&data, &c);
    let mut sink = SlowSink { inner: VecSink::default(), delay: Duration::from_millis(3) };
    run_streaming(&data, &c, &mut sink).expect("slow-writer streaming");
    assert_eq!(sink.inner.bytes, reference);
}

#[test]
fn more_writers_than_chunks_is_byte_identical_to_sequential() {
    let data = field(4_500); // 3 chunks
    let c = PipelineConfig { writers: 8, queue_depth: 8, ..cfg() };
    let reference = clean_stream(&data, &c);
    let mut sink = VecSink::default();
    let out = run_streaming(&data, &c, &mut sink).expect("streaming");
    assert_eq!(out.chunks, 3);
    assert_eq!(sink.bytes, reference);
}

#[test]
fn codec_failure_degrades_to_raw_frames_and_decodes() {
    let data = field(8_000);
    let mut c = cfg();
    // Chunks 1 and 3 fail compression → raw fallback.
    c.failure_plan.compress_failures = vec![1, 3];
    let reference = clean_stream(&data, &c);
    let mut sink = VecSink::default();
    let out = run_streaming(&data, &c, &mut sink).expect("streaming with fallback");
    assert_eq!(out.raw_fallbacks, 2);
    assert_eq!(sink.bytes, reference, "fallback must be deterministic");
    // The degraded container still decodes; raw chunks are exact.
    let back = decode_stream(&sink.bytes).expect("decode");
    assert_eq!(back.len(), data.len());
    assert_eq!(&back[1500..3000], &data[1500..3000], "raw chunk 1 is exact");
    assert_eq!(&back[4500..6000], &data[4500..6000], "raw chunk 3 is exact");
}

#[test]
fn real_codec_error_falls_back_to_raw_frames_without_injection() {
    // ZFP has no value-range-relative mode, so every chunk's compress call
    // fails for real and every frame is stored raw.
    let data = field(8_000);
    for wire_format in [false, true] {
        let c = PipelineConfig {
            compressor: Compressor::Zfp,
            bound: BoundSpec::ValueRangeRelative(1e-3),
            wire_format,
            ..cfg()
        };
        let mut sink = VecSink::default();
        let out = run_streaming(&data, &c, &mut sink).expect("streaming with fallback");
        assert_eq!(out.raw_fallbacks, out.chunks);
        assert_eq!(out.codec_chunks, [out.chunks, 0, 0], "every frame is raw");
        assert_eq!(sink.bytes, clean_stream(&data, &c), "fallback must be deterministic");
        let bytes = &sink.bytes;
        let rc = RestartConfig { workers: 2, retry_backoff_ms: 0, ..RestartConfig::default() };
        let decoded = [
            decode_stream(bytes).expect("decode"),
            run_restart(&SliceSource::new(bytes), &rc).expect("restart").0,
            run_restart_sequential(&SliceSource::new(bytes), &rc).expect("sequential restart").0,
            run_restart_streamed(&mut &bytes[..], &rc).expect("streamed restart").0,
        ];
        for back in decoded {
            assert!(back.iter().map(|v| v.to_bits()).eq(data.iter().map(|v| v.to_bits())));
        }
    }
}

#[test]
fn write_failure_error_takes_priority_over_later_chunks() {
    // A permanent failure poisons the queue: compressors and writers stop,
    // and the first error is what surfaces — even with multiple writers.
    let data = field(30_000);
    let mut c = PipelineConfig { writers: 3, queue_depth: 4, ..cfg() };
    c.failure_plan.write_failures = (0..c.max_write_attempts).map(|a| (6usize, a)).collect();
    let mut sink = VecSink::default();
    let err = run_streaming(&data, &c, &mut sink).expect_err("chunk 6 fails");
    assert!(matches!(err, CoreError::Pipeline(p) if p.chunk == 6));
}

#[test]
fn retry_with_backoff_still_succeeds() {
    // Same plan as the retry test but with a non-zero backoff, covering
    // the sleep path.
    let data = field(6_000);
    let mut c = cfg();
    c.retry_backoff_ms = 1;
    c.failure_plan.write_failures = vec![(2, 0), (2, 1)];
    let reference = clean_stream(&data, &c);
    let mut sink = VecSink::default();
    let out = run_streaming(&data, &c, &mut sink).expect("retries with backoff succeed");
    assert_eq!(out.write_retries, 2);
    assert_eq!(sink.bytes, reference);
}
