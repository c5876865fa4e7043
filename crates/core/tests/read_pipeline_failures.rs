//! Failure-injection suite for the restart (read→decompress) pipeline.
//!
//! The read path promises the mirror image of the writer-stage suite:
//!
//! * transient read failures and decode worker deaths are retried and the
//!   restored elements stay identical to serial [`decode_stream`];
//! * truncated streams, corrupt payloads and exhausted retries surface a
//!   typed [`CoreError::Pipeline`] — never a panic, never a silent
//!   partial result;
//! * forged headers cannot drive a huge pre-allocation;
//! * frames are held to the header's geometry: as many as it calls for,
//!   each exactly its range of the field;
//! * every queue depth × reader × worker combination restores the same
//!   bytes.

use lcpio_codec::BoundSpec;
use lcpio_core::error::CoreError;
use lcpio_core::pipeline::{
    decode_stream, run_restart, run_restart_sequential, run_restart_streamed, run_sequential,
    run_streaming, PipelineConfig, RestartConfig, SliceSource, VecSink, STREAM_MAGIC,
};

fn field(n: usize) -> Vec<f32> {
    (0..n).map(|i| (i as f32 * 0.011).sin() * 30.0 + (i as f32 * 0.0017).cos() * 3.0).collect()
}

/// A clean 8-chunk container to restart from.
fn container() -> Vec<u8> {
    let data = field(12_000);
    let c = PipelineConfig { chunk_elements: 1500, retry_backoff_ms: 0, ..Default::default() };
    let mut sink = VecSink::default();
    run_sequential(&data, &c, &mut sink).expect("clean sequential run");
    sink.bytes
}

fn cfg() -> RestartConfig {
    RestartConfig { retry_backoff_ms: 0, ..RestartConfig::default() }
}

/// Queue depths the identity matrix sweeps.
const DEPTHS: [usize; 3] = [1, 2, 4];

/// `(kind, payload_start, payload_len)` of every frame in the container.
fn frame_spans(stream: &[u8]) -> Vec<(u8, usize, usize)> {
    let mut spans = Vec::new();
    let mut off = 20usize;
    while off < stream.len() {
        let kind = stream[off];
        let len = u32::from_le_bytes(stream[off + 1..off + 5].try_into().expect("4 bytes")) as usize;
        spans.push((kind, off + 5, len));
        off += 5 + len;
    }
    spans
}

fn expect_pipeline_err<T>(result: Result<T, CoreError>) -> lcpio_core::error::PipelineError {
    match result {
        Err(CoreError::Pipeline(p)) => p,
        Err(other) => panic!("expected CoreError::Pipeline, got {other:?}"),
        Ok(_) => panic!("expected a typed pipeline failure, got success"),
    }
}

#[test]
fn identity_matrix_matches_serial_decode_at_every_knob_setting() {
    let stream = container();
    let reference = decode_stream(&stream).expect("serial decode");
    let source = SliceSource::new(&stream);
    let (seq_vals, seq_out) = run_restart_sequential(&source, &cfg()).expect("sequential restart");
    assert_eq!(seq_vals, reference, "sequential restart matches serial decode");
    assert_eq!(seq_out.chunks, 8);
    for depth in DEPTHS {
        for readers in [1, 2] {
            for workers in [1, 2, 4] {
                let c = RestartConfig { queue_depth: depth, readers, workers, ..cfg() };
                let (vals, out) = run_restart(&source, &c).expect("overlapped restart");
                assert_eq!(
                    vals, reference,
                    "depth {depth}, readers {readers}, workers {workers}"
                );
                assert_eq!(out.chunks, 8);
                assert_eq!(out.elements, reference.len());
                assert_eq!(out.bytes_in, stream.len() as u64);
            }
        }
    }
}

#[test]
fn transient_read_failures_are_retried_and_output_is_identical() {
    let stream = container();
    let reference = decode_stream(&stream).expect("serial decode");
    let source = SliceSource::new(&stream);
    let mut c = cfg();
    // First attempt on chunks 1 and 4 fails; chunk 4 fails twice.
    c.failure_plan.read_failures = vec![(1, 0), (4, 0), (4, 1)];
    for depth in DEPTHS {
        let c = RestartConfig { queue_depth: depth, workers: 2, ..c.clone() };
        let (vals, out) = run_restart(&source, &c).expect("retries succeed");
        assert_eq!(out.read_retries, 3, "depth {depth}");
        assert_eq!(vals, reference, "depth {depth}");
    }
}

#[test]
fn exhausted_read_retries_fail_with_typed_error() {
    let stream = container();
    let source = SliceSource::new(&stream);
    let mut c = cfg();
    c.failure_plan.read_failures = (0..c.max_read_attempts).map(|a| (2usize, a)).collect();
    let p = expect_pipeline_err(run_restart(&source, &c));
    assert_eq!(p.chunk, 2);
    assert_eq!(p.attempts, c.max_read_attempts);
    assert!(p.message.contains("read failed"), "{}", p.message);
}

#[test]
fn worker_death_is_retried_and_output_is_identical() {
    let stream = container();
    let reference = decode_stream(&stream).expect("serial decode");
    let source = SliceSource::new(&stream);
    let mut c = cfg();
    // Workers die once on chunks 0 and 5; the payloads are intact, so the
    // retry decodes cleanly.
    c.failure_plan.decode_failures = vec![(0, 0), (5, 0)];
    for depth in DEPTHS {
        let c = RestartConfig { queue_depth: depth, workers: 3, ..c.clone() };
        let (vals, out) = run_restart(&source, &c).expect("decode retries succeed");
        assert_eq!(out.decode_retries, 2, "depth {depth}");
        assert_eq!(vals, reference, "depth {depth}");
    }
}

#[test]
fn repeated_worker_death_fails_with_typed_error() {
    let stream = container();
    let source = SliceSource::new(&stream);
    let mut c = cfg();
    c.failure_plan.decode_failures = (0..c.max_decode_attempts).map(|a| (3usize, a)).collect();
    let p = expect_pipeline_err(run_restart(&source, &c));
    assert_eq!(p.chunk, 3);
    assert_eq!(p.attempts, c.max_decode_attempts);
    assert!(p.message.contains("died"), "{}", p.message);
}

#[test]
fn corrupt_payload_fails_fast_with_typed_error_at_every_depth() {
    let mut stream = container();
    let spans = frame_spans(&stream);
    // Smash the codec magic of chunk 2's payload — a permanent decode
    // error, not a transient worker death, so no retries are burned.
    let (kind, start, len) = spans[2];
    assert_eq!(kind, 0, "chunk 2 is a compressed frame");
    assert!(len > 8);
    for b in &mut stream[start..start + 8] {
        *b ^= 0xA5;
    }
    let source = SliceSource::new(&stream);
    for depth in DEPTHS {
        for workers in [1, 4] {
            let c = RestartConfig { queue_depth: depth, workers, ..cfg() };
            let p = expect_pipeline_err(run_restart(&source, &c));
            assert_eq!(p.chunk, 2, "depth {depth}, workers {workers}");
            assert!(p.message.contains("decode failed"), "{}", p.message);
        }
    }
}

#[test]
fn truncated_mid_payload_fails_with_typed_error() {
    let stream = container();
    let spans = frame_spans(&stream);
    // Cut the stream in the middle of chunk 5's payload.
    let (_, start, len) = spans[5];
    let cut = &stream[..start + len / 2];
    let source = SliceSource::new(cut);
    let p = expect_pipeline_err(run_restart(&source, &cfg()));
    assert!(p.message.contains("truncated frame payload"), "{}", p.message);
    let p = expect_pipeline_err(run_restart_sequential(&source, &cfg()));
    assert!(p.message.contains("truncated frame payload"), "{}", p.message);
}

#[test]
fn truncated_mid_frame_header_fails_with_typed_error() {
    let stream = container();
    let spans = frame_spans(&stream);
    // Keep chunks 0..3 whole plus 3 bytes of chunk 3's frame header.
    let (_, start, _) = spans[3];
    let cut = &stream[..start - 2];
    let source = SliceSource::new(cut);
    let p = expect_pipeline_err(run_restart(&source, &cfg()));
    assert!(p.message.contains("truncated frame header"), "{}", p.message);
}

#[test]
fn forged_element_count_is_rejected_before_allocation() {
    // A 20-byte header promising u64::MAX elements over a 4-byte payload
    // must be rejected by the scan guard — the restored-output buffer is
    // sized from the header, so this is the allocation the cap protects.
    let mut forged = Vec::new();
    forged.extend_from_slice(&STREAM_MAGIC);
    forged.extend_from_slice(&u64::MAX.to_le_bytes());
    forged.extend_from_slice(&1500u64.to_le_bytes());
    forged.push(1); // raw frame
    forged.extend_from_slice(&4u32.to_le_bytes());
    forged.extend_from_slice(&1.0f32.to_le_bytes());
    let source = SliceSource::new(&forged);
    let p = expect_pipeline_err(run_restart(&source, &cfg()));
    assert!(p.message.contains("exceeds stream capacity"), "{}", p.message);
}

#[test]
fn constant_fields_pass_the_capacity_guard_on_every_restart_path() {
    // The guard's ceiling was once ZFP's 512 elements per byte, which SZ
    // legitimately beats on constant data: these containers were written
    // fine and then refused with "element count exceeds stream capacity".
    for value in [0.0f32, 3.5] {
        let data = vec![value; 1 << 20];
        for wire_format in [false, true] {
            let c = PipelineConfig {
                chunk_elements: 1 << 18,
                wire_format,
                retry_backoff_ms: 0,
                ..Default::default()
            };
            let mut sink = VecSink::default();
            run_streaming(&data, &c, &mut sink).expect("write");
            let stream = sink.bytes;
            assert!(data.len() > 512 * stream.len(), "fixture must be denser than the old ceiling");
            let restored = [
                decode_stream(&stream).expect("serial decode"),
                run_restart(&SliceSource::new(&stream), &cfg()).expect("restart").0,
                run_restart_streamed(&mut &stream[..], &cfg()).expect("streamed restart").0,
            ];
            for vals in restored {
                let close = vals.iter().all(|v| (v - value).abs() <= 1e-3);
                assert!(close && vals.len() == data.len(), "wire={wire_format}");
            }
        }
    }
}

#[test]
fn forged_frame_length_is_rejected_before_allocation() {
    // A frame header claiming a u32::MAX-byte payload on a tiny stream
    // must fail the scan, not allocate a 4 GiB read buffer.
    let mut forged = Vec::new();
    forged.extend_from_slice(&STREAM_MAGIC);
    forged.extend_from_slice(&1u64.to_le_bytes());
    forged.extend_from_slice(&1u64.to_le_bytes());
    forged.push(0);
    forged.extend_from_slice(&u32::MAX.to_le_bytes());
    forged.extend_from_slice(&[0u8; 16]);
    let source = SliceSource::new(&forged);
    let p = expect_pipeline_err(run_restart(&source, &cfg()));
    assert!(p.message.contains("truncated frame payload"), "{}", p.message);
}

#[test]
fn restart_over_degraded_container_counts_raw_frames_and_round_trips() {
    // A container written under codec failures stores raw fallback frames;
    // restart must decode them verbatim and report the count.
    let data = field(12_000);
    let mut wc =
        PipelineConfig { chunk_elements: 1500, retry_backoff_ms: 0, ..Default::default() };
    wc.failure_plan.compress_failures =
        (0..wc.max_compress_attempts).flat_map(|a| [(1usize, a), (6usize, a)]).collect();
    let mut sink = VecSink::default();
    run_sequential(&data, &wc, &mut sink).expect("degraded write");
    let source = SliceSource::new(&sink.bytes);
    let (vals, out) = run_restart(&source, &RestartConfig { workers: 2, ..cfg() })
        .expect("restart over degraded container");
    assert_eq!(out.raw_frames, 2);
    assert_eq!(&vals[1500..3000], &data[1500..3000], "raw chunk 1 is exact");
    assert_eq!(&vals[9000..10500], &data[9000..10500], "raw chunk 6 is exact");
}

#[test]
fn read_failure_with_backoff_still_succeeds() {
    let stream = container();
    let reference = decode_stream(&stream).expect("serial decode");
    let source = SliceSource::new(&stream);
    let mut c = cfg();
    c.retry_backoff_ms = 1;
    c.failure_plan.read_failures = vec![(3, 0), (3, 1)];
    let (vals, out) = run_restart(&source, &c).expect("retries with backoff succeed");
    assert_eq!(out.read_retries, 2);
    assert_eq!(vals, reference);
}

/// An `LCS1` stream of `frames` under a header of `elements` in chunks of
/// `chunk_elements`, each frame `(kind, payload)`: the legacy layout, or
/// its `LCW1` form.
fn stream_of(elements: u64, chunk_elements: u64, frames: &[(u8, Vec<u8>)], wire: bool) -> Vec<u8> {
    let mut params = elements.to_le_bytes().to_vec();
    params.extend_from_slice(&chunk_elements.to_le_bytes());
    if wire {
        let framed: Vec<Vec<u8>> =
            frames.iter().map(|(kind, p)| [&[*kind][..], p].concat()).collect();
        let framed: Vec<&[u8]> = framed.iter().map(Vec::as_slice).collect();
        return lcpio_wire::EnvelopeBuilder::new(STREAM_MAGIC).params(&params).build(&framed);
    }
    let mut out = [&STREAM_MAGIC[..], &params].concat();
    for (kind, payload) in frames {
        out.push(*kind);
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(payload);
    }
    out
}

/// Frames of `n` elements each, raw or SZ-compressed.
fn frames_of(counts: &[usize], compressed: bool) -> Vec<(u8, Vec<u8>)> {
    let data = field(counts.iter().sum());
    let mut at = 0;
    let mut frames = Vec::new();
    for &n in counts {
        let chunk = &data[at..at + n];
        at += n;
        frames.push(if compressed {
            let codec = lcpio_codec::registry().by_name("sz").expect("sz");
            let enc = codec.compress(chunk, &[n], BoundSpec::Absolute(1e-3)).expect("compress");
            (0, enc.bytes)
        } else {
            (1, chunk.iter().flat_map(|v| v.to_le_bytes()).collect())
        });
    }
    frames
}

/// Every decoder's verdict on `stream`: serial decode, positioned restart
/// (one worker, so the first bad frame is the one reported) and streamed
/// restart.
fn every_decoder(stream: &[u8]) -> [Result<Vec<f32>, CoreError>; 3] {
    let c = RestartConfig { workers: 1, ..cfg() };
    [
        decode_stream(stream),
        run_restart(&SliceSource::new(stream), &c).map(|r| r.0),
        run_restart_streamed(&mut &stream[..], &c).map(|r| r.0),
    ]
}

#[test]
fn frames_off_their_ranges_fail_with_typed_error_naming_the_frame() {
    // The header's total (3000) and frame count (3 chunks of 1000) hold;
    // every frame is off its range, the first one short.
    for compressed in [false, true] {
        for wire in [false, true] {
            let frames = frames_of(&[999, 1001, 1000], compressed);
            let stream = stream_of(3000, 1000, &frames, wire);
            for result in every_decoder(&stream) {
                let p = expect_pipeline_err(result);
                let label = format!("compressed={compressed} wire={wire}: {p}");
                assert_eq!(p.chunk, 0, "{label}");
                assert!(p.message.contains("does not match its range"), "{label}");
            }
            // The same frames in their right sizes decode on every path.
            let honest = stream_of(3000, 1000, &frames_of(&[1000; 3], compressed), wire);
            for result in every_decoder(&honest) {
                assert_eq!(result.expect("honest stream").len(), 3000);
            }
        }
    }
}

#[test]
fn frame_count_must_be_the_one_the_geometry_calls_for() {
    let cases = [
        (3000, 0, vec![1000, 1000, 1000], "zero chunk size"),
        (3000, 1000, vec![1000, 2000], "frame count does not match"),
        (3000, 1000, vec![1000, 1000, 1000, 0], "frame count does not match"),
        (3000, 2000, vec![1000, 1000, 1000], "frame count does not match"),
    ];
    for (elements, chunk, counts, msg) in cases {
        for wire in [false, true] {
            let stream = stream_of(elements, chunk, &frames_of(&counts, false), wire);
            for result in every_decoder(&stream) {
                let p = expect_pipeline_err(result);
                assert!(p.message.contains(msg), "{counts:?} chunk {chunk} wire={wire}: {p}");
            }
        }
    }
    // A chunk size past the element count is one frame, whatever the range
    // arithmetic would make of it.
    for wire in [false, true] {
        let one = stream_of(3000, u64::MAX, &frames_of(&[3000], false), wire);
        for result in every_decoder(&one) {
            assert_eq!(result.expect("one frame").len(), 3000, "wire={wire}");
        }
    }
}
