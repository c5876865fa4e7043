//! Overlapped compress→write and read→decompress streaming pipelines.
//!
//! The paper's subject is compressed I/O — compress a dump, then write it
//! to NFS — and it accounts energy *per phase* (§V–VI). The sequential
//! drivers model exactly that, but they leave the write path idle while
//! workers compress. This module adds the overlap: chunked compression
//! (through the [`lcpio_codec`] registry) feeds a **bounded window** ahead
//! of a writer stage, so compression of chunk *k+1* proceeds while chunk
//! *k* is on the wire, with backpressure once the writer falls
//! `queue_depth` chunks behind. The **restart path** is the same loop
//! walked the other way: read a chunk, then decompress it.
//!
//! Five modules, one job each:
//!
//! * `format` — the self-describing `LCS1` container, in its legacy
//!   layout and as an `LCW1` wire envelope: header and frame encoding, the
//!   positioned scan ([`scan_stream`]), the push framer, every check a
//!   header or frame must pass, and the one-line [`describe`] that
//!   `lcpio-cli info` and `serve`'s `INFO` print. Nothing else knows the
//!   byte layout.
//! * `stage` — the one ordered two-stage driver (producers → bounded
//!   reorder window → in-order workers → ordered commit) and the one
//!   bounded-retry helper. Write, restart and streamed restart are three
//!   callers of it.
//! * `write` — [`run_streaming`]: compression workers produce frames, the
//!   commit writes them to the [`ChunkSink`] in order, retrying failed
//!   writes with bounded backoff. [`run_sequential`] is the serial
//!   reference; both produce **byte-identical** streams at every queue
//!   depth / writer count.
//! * `restart` — [`run_restart`] (positioned reads off a [`ChunkSource`])
//!   and [`run_restart_streamed`] (a forward-only reader) produce frames,
//!   workers decode each through the registry straight into its range of
//!   the one restored field, and the commit carries only errors and
//!   tallies — element-identical to the serial
//!   [`run_restart_sequential`] and [`decode_stream`] at every queue depth
//!   and worker count.
//! * `model` — the one pricing point of the two-phase job:
//!   [`TwoPhaseWork`] (a CPU phase plus the I/O phase it feeds or drains)
//!   is priced per phase by [`TwoPhaseWork::price`], and [`overlap`]
//!   streams priced units through the bounded queue
//!   ([`overlap_makespan`]) under the energy-conservation invariant. The
//!   dump, checkpoint, read-back and policy studies and `lcpio-serve` all
//!   price through it.
//!
//! ```
//! use lcpio_core::pipeline::{run_sequential, run_streaming, PipelineConfig, VecSink};
//!
//! let data: Vec<f32> = (0..4096).map(|i| (i as f32 * 0.01).sin()).collect();
//! let cfg = PipelineConfig { chunk_elements: 512, queue_depth: 2, ..PipelineConfig::default() };
//! let mut seq = VecSink::default();
//! let mut par = VecSink::default();
//! run_sequential(&data, &cfg, &mut seq).unwrap();
//! let outcome = run_streaming(&data, &cfg, &mut par).unwrap();
//! assert_eq!(seq.bytes, par.bytes); // overlap never changes the stream
//! assert_eq!(outcome.chunks, 8);
//! ```

use crate::error::{CoreError, PipelineError};

mod format;
mod model;
mod restart;
mod stage;
mod write;

pub use format::{describe, is_stream_container, scan_stream, StreamLayout, STREAM_MAGIC};
pub use model::{
    overlap, overlap_makespan, sample_chunks, stretch, PhaseCost, PhaseOrder, TwoPhaseWork,
};
pub use restart::{
    decode_stream, run_restart, run_restart_sequential, run_restart_streamed, ChunkSource,
    FileSource, RestartConfig, RestartOutcome, SliceSource,
};
pub use write::{
    run_sequential, run_streaming, ChunkSink, FileSink, PipelineConfig, StreamOutcome, VecSink,
};

/// Which chunk/attempt pairs fail, for fault-injection tests.
///
/// The plan is *deterministic* — a function of `(chunk, attempt)` only —
/// so the sequential and streaming paths degrade identically and stay
/// byte-comparable even under injected faults.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FailurePlan {
    /// `(chunk, attempt)` pairs (0-based) at which the sink write fails.
    pub write_failures: Vec<(usize, u32)>,
    /// `(chunk, attempt)` pairs at which chunk compression "fails",
    /// exercising the raw-frame fallback path.
    pub compress_failures: Vec<(usize, u32)>,
    /// `(chunk, attempt)` pairs at which a restart frame read fails.
    pub read_failures: Vec<(usize, u32)>,
    /// `(chunk, attempt)` pairs at which a restart decode worker "dies"
    /// mid-chunk; the chunk is retried (the payload is intact).
    pub decode_failures: Vec<(usize, u32)>,
}

/// Reject a configuration in which any of the listed knobs is zero, with
/// the knob's message as a typed error.
fn require_nonzero(knobs: &[(usize, &str)]) -> Result<(), CoreError> {
    match knobs.iter().find(|(value, _)| *value == 0) {
        Some((_, msg)) => Err(CoreError::Pipeline(PipelineError::new(0, 0, *msg))),
        None => Ok(()),
    }
}

/// Fixtures the module tests share.
#[cfg(test)]
pub(crate) mod test_support {
    use super::format::lcs_params;
    use super::*;
    use crate::policy::PolicyKind;

    pub(crate) fn field(n: usize) -> Vec<f32> {
        (0..n).map(|i| (i as f32 * 0.013).sin() * 40.0 + (i as f32 * 0.0021).cos()).collect()
    }

    pub(crate) fn cfg() -> PipelineConfig {
        PipelineConfig {
            chunk_elements: 1000,
            retry_backoff_ms: 0,
            ..PipelineConfig::default()
        }
    }

    pub(crate) fn stream_of(data: &[f32]) -> Vec<u8> {
        let mut sink = VecSink::default();
        run_sequential(data, &cfg(), &mut sink).expect("sequential");
        sink.bytes
    }

    pub(crate) fn restart_cfg() -> RestartConfig {
        RestartConfig { retry_backoff_ms: 0, ..RestartConfig::default() }
    }

    pub(crate) fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    pub(crate) fn wire_cfg() -> PipelineConfig {
        PipelineConfig { wire_format: true, ..cfg() }
    }

    pub(crate) fn wire_stream_of(data: &[f32]) -> Vec<u8> {
        let mut sink = VecSink::default();
        run_sequential(data, &wire_cfg(), &mut sink).expect("sequential wire");
        sink.bytes
    }

    pub(crate) fn adaptive_cfg(chunk_elements: usize) -> PipelineConfig {
        PipelineConfig {
            chunk_elements,
            wire_format: true,
            policy: PolicyKind::Adaptive,
            retry_backoff_ms: 0,
            ..PipelineConfig::default()
        }
    }

    pub(crate) fn mixed_stream(chunk_elements: usize, chunks: usize) -> (Vec<f32>, Vec<u8>) {
        let data = crate::policy::interleaved_cesm_hacc(chunk_elements, chunks, 20220530);
        let mut sink = VecSink::default();
        run_sequential(&data, &adaptive_cfg(chunk_elements), &mut sink).expect("sequential");
        (data, sink.bytes)
    }

    pub(crate) fn tagged_envelope(tags: &[u8], frames: &[&[u8]]) -> Vec<u8> {
        lcpio_wire::EnvelopeBuilder::new(STREAM_MAGIC)
            .params(&lcs_params(600, 600))
            .codec_tags(tags)
            .build(frames)
    }
}
