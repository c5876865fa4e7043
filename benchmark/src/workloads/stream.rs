//! `stream_write` and `stream_restart` — the chunked pipelines of
//! `core::pipeline` over 32 rank-1 chunks of the interleaved CESM/HACC
//! field, planned by the adaptive policy into a mixed SZ/ZFP LCW1
//! container.

use super::{
    max_abs_err, same_bits, shuffled, Lane, OpOutcome, Scale, Seeds, Workload, STREAM_BOUND,
    STREAM_CHUNKS,
};
use crate::energy;
use crate::spans::{Recorder, SpanId};
use lcpio_codec::policy::ChunkPlan;
use lcpio_codec::{registry, BoundSpec, Encoded};
use lcpio_core::pipeline::{
    decode_stream, run_restart, run_restart_streamed, run_streaming, ChunkSink, ChunkSource,
    FileSink, FileSource, VecSink,
};
use lcpio_core::policy::{build_policy, interleaved_cesm_hacc};
use lcpio_core::records::Compressor;
use lcpio_core::{CostModel, PipelineConfig, PolicyKind, RestartConfig};
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The write pipeline's configuration: one codec thread, one writer,
/// depth 4, LCW1 output, adaptive policy, no retry sleeps.
pub fn write_config(scale: &Scale) -> PipelineConfig {
    PipelineConfig {
        compressor: Compressor::Sz,
        bound: BoundSpec::Absolute(STREAM_BOUND),
        chunk_elements: scale.chunk_elements,
        queue_depth: 4,
        writers: 1,
        compress_threads: 1,
        retry_backoff_ms: 0,
        wire_format: true,
        policy: PolicyKind::Adaptive,
        chip: energy::CHIP,
        ..PipelineConfig::default()
    }
}

/// The restart pipeline's configuration: one reader, one decode worker,
/// depth 4.
pub fn restart_config() -> RestartConfig {
    RestartConfig {
        queue_depth: 4,
        readers: 1,
        workers: 1,
        retry_backoff_ms: 0,
        ..RestartConfig::default()
    }
}

/// The interleaved CESM/HACC field of the stream workloads: generated
/// from the field seed, its (CESM, HACC) chunk pairs put in the order the
/// traffic seed draws. Every chunk is planned and compressed on its own,
/// so the container's length does not depend on the order.
pub fn stream_field(scale: &Scale, seeds: Seeds) -> Vec<f32> {
    let pair = 2 * scale.chunk_elements;
    let field = interleaved_cesm_hacc(scale.chunk_elements, STREAM_CHUNKS, seeds.field);
    shuffled(STREAM_CHUNKS / 2, seeds.traffic)
        .into_iter()
        .flat_map(|p| field[p * pair..(p + 1) * pair].iter().copied())
        .collect()
}

/// One chunk as the pipeline treats it: the policy's plan and the
/// planned codec's output, made by direct calls outside the pipeline.
pub struct PlannedChunk {
    /// Codec, bound and DVFS frequency the policy chose.
    pub plan: ChunkPlan,
    /// The planned codec's stream and statistics.
    pub encoded: Encoded,
}

/// Plan and compress every chunk of `data` the way `run_streaming` does
/// under `cfg`, but one direct call after the other. This prices the
/// container's modeled energy and gives the pipeline probes their
/// "codec time without the pipeline" reference.
pub fn plan_and_encode(data: &[f32], cfg: &PipelineConfig) -> Result<Vec<PlannedChunk>, String> {
    let policy = build_policy(
        cfg.policy,
        cfg.compressor,
        cfg.bound,
        cfg.chip,
        CostModel::default(),
    );
    data.chunks(cfg.chunk_elements)
        .enumerate()
        .map(|(seq, chunk)| {
            let plan = policy.plan(chunk, seq);
            let codec = registry().by_name(plan.codec.name()).ok_or_else(|| {
                format!(
                    "chunk {seq}: planned codec `{}` has no backend",
                    plan.codec.name()
                )
            })?;
            let encoded = codec
                .compress(chunk, &[chunk.len()], plan.bound)
                .map_err(|e| format!("chunk {seq}: {e}"))?;
            Ok(PlannedChunk { plan, encoded })
        })
        .collect()
}

/// Decode a stream container and require the bound against `data`.
fn check_stream(container: &[u8], data: &[f32]) -> Result<Vec<f32>, String> {
    let restored = decode_stream(container).map_err(|e| format!("decode_stream: {e}"))?;
    if restored.len() != data.len() {
        return Err(format!(
            "decode_stream: {} elements, expected {}",
            restored.len(),
            data.len()
        ));
    }
    let err = max_abs_err(data, &restored);
    if err > STREAM_BOUND {
        return Err(format!("bound {STREAM_BOUND} violated: max error {err}"));
    }
    Ok(restored)
}

/// A `ChunkSink` that records a span around every `write_chunk` of the
/// sink behind it (traced pass only).
pub struct TracedSink<'a, S: ChunkSink> {
    /// The real sink.
    pub inner: S,
    /// Where the spans go.
    pub rec: &'a Recorder,
    /// The `pipeline.run_*` span the writes belong to.
    pub parent: Option<SpanId>,
    /// The op's id.
    pub op: u32,
}

impl<S: ChunkSink> ChunkSink for TracedSink<'_, S> {
    fn write_header(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.inner.write_header(bytes)
    }

    fn write_chunk(&mut self, seq: usize, bytes: &[u8]) -> io::Result<()> {
        let TracedSink {
            inner,
            rec,
            parent,
            op,
        } = self;
        rec.scope("sink.write_chunk", *parent, *op, |_| {
            inner.write_chunk(seq, bytes)
        })
    }
}

/// A `ChunkSource` that records a span around every `read_at` of the
/// source behind it (traced pass only).
pub struct TracedSource<'a, S: ChunkSource> {
    /// The real source.
    pub inner: S,
    /// Where the spans go.
    pub rec: &'a Recorder,
    /// The `pipeline.run_*` span the reads belong to.
    pub parent: Option<SpanId>,
    /// The op's id.
    pub op: u32,
}

impl<S: ChunkSource> ChunkSource for TracedSource<'_, S> {
    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        self.rec.scope("source.read_at", self.parent, self.op, |_| {
            self.inner.read_at(offset, buf)
        })
    }
}

/// An `io::Read` that records a span around every `read` (traced pass,
/// streamed restart).
struct TracedRead<'a, R: io::Read> {
    inner: R,
    rec: &'a Recorder,
    parent: Option<SpanId>,
    op: u32,
}

impl<R: io::Read> io::Read for TracedRead<'_, R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let TracedRead {
            inner,
            rec,
            parent,
            op,
        } = self;
        rec.scope("reader.read", *parent, *op, |_| inner.read(buf))
    }
}

/// The `stream_write` workload.
pub struct StreamWrite {
    data: Vec<f32>,
    cfg: PipelineConfig,
    path: PathBuf,
    /// The container the first run produced.
    reference: Vec<u8>,
    /// Modeled nanojoules of one op: every chunk's compression at its
    /// planned frequency plus the NFS write of the container.
    nanojoules: u64,
}

impl StreamWrite {
    pub fn new(scale: &Scale, seeds: Seeds, dir: &Path) -> Result<Self, String> {
        let data = stream_field(scale, seeds);
        let cfg = write_config(scale);
        let mut sink = VecSink::default();
        run_streaming(&data, &cfg, &mut sink).map_err(|e| format!("reference run: {e}"))?;
        let reference = sink.bytes;
        check_stream(&reference, &data)?;
        let nanojoules = plan_and_encode(&data, &cfg)?
            .iter()
            .map(|c| energy::compress_nj(c.plan.codec, &c.encoded.stats, c.plan.f_ghz))
            .sum::<u64>()
            + energy::nfs_write_nj(reference.len() as u64);
        Ok(StreamWrite {
            data,
            cfg,
            path: dir.join("stream.lcw"),
            reference,
            nanojoules,
        })
    }
}

struct WriteLane<'a>(&'a StreamWrite);

impl Lane for WriteLane<'_> {
    fn op(&mut self, i: usize, rec: &Recorder) -> OpOutcome {
        let w = self.0;
        let op = i as u32;
        let start = Instant::now();
        let outcome = rec.scope("op", None, op, |parent| -> Result<_, String> {
            let sink = FileSink::create(&w.path).map_err(|e| e.to_string())?;
            let (outcome, sink) = rec.scope("pipeline.run_streaming", parent, op, |run| {
                if rec.enabled() {
                    let mut traced = TracedSink {
                        inner: sink,
                        rec,
                        parent: run,
                        op,
                    };
                    (run_streaming(&w.data, &w.cfg, &mut traced), traced.inner)
                } else {
                    let mut sink = sink;
                    (run_streaming(&w.data, &w.cfg, &mut sink), sink)
                }
            });
            let outcome = outcome.map_err(|e| e.to_string())?;
            rec.scope("sink.commit", parent, op, |_| sink.commit())
                .map_err(|e| e.to_string())?;
            Ok(outcome)
        });
        let end = Instant::now();
        // Determinism and no degraded path: the committed file is the
        // reference container, nothing fell back to raw, nothing retried.
        let ok = outcome.is_ok_and(|o| o.raw_fallbacks == 0 && o.write_retries == 0)
            && std::fs::read(&w.path).is_ok_and(|bytes| bytes == w.reference);
        OpOutcome {
            kind: 0,
            start,
            end,
            raw_bytes: (w.data.len() * 4) as u64,
            stored_bytes: w.reference.len() as u64,
            nanojoules: w.nanojoules,
            ok,
        }
    }
}

impl Workload for StreamWrite {
    fn kinds(&self) -> &'static [&'static str] {
        &["run_streaming"]
    }

    fn cycle_len(&self) -> usize {
        1
    }

    fn lanes(&mut self) -> Vec<Box<dyn Lane + '_>> {
        vec![Box::new(WriteLane(self))]
    }

    /// What the last op left on disk must decode within the bound.
    fn check(&mut self) -> Vec<String> {
        let checked = std::fs::read(&self.path)
            .map_err(|e| format!("reading {}: {e}", self.path.display()))
            .and_then(|bytes| check_stream(&bytes, &self.data));
        checked.err().into_iter().collect()
    }
}

/// The `stream_restart` workload.
pub struct StreamRestart {
    path: PathBuf,
    cfg: RestartConfig,
    container_bytes: u64,
    /// The set-up decode every op must reproduce bit for bit.
    reference: Vec<f32>,
    /// Modeled nanojoules of one op: every chunk's decompression at
    /// `f_max`.
    nanojoules: u64,
}

impl StreamRestart {
    pub fn new(scale: &Scale, seeds: Seeds, dir: &Path) -> Result<Self, String> {
        let data = stream_field(scale, seeds);
        let cfg = write_config(scale);
        let path = dir.join("stream.lcw");
        let mut sink =
            FileSink::create(&path).map_err(|e| format!("creating {}: {e}", path.display()))?;
        run_streaming(&data, &cfg, &mut sink).map_err(|e| format!("writing the container: {e}"))?;
        sink.commit()
            .map_err(|e| format!("committing {}: {e}", path.display()))?;
        let container =
            std::fs::read(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
        let reference = check_stream(&container, &data)?;
        let nanojoules = plan_and_encode(&data, &cfg)?
            .iter()
            .map(|c| energy::decompress_nj(c.plan.codec, &c.encoded.stats))
            .sum();
        Ok(StreamRestart {
            path,
            cfg: restart_config(),
            container_bytes: container.len() as u64,
            reference,
            nanojoules,
        })
    }
}

struct RestartLane<'a>(&'a StreamRestart);

impl Lane for RestartLane<'_> {
    fn op(&mut self, i: usize, rec: &Recorder) -> OpOutcome {
        let w = self.0;
        let op = i as u32;
        let kind = i % 2;
        let start = Instant::now();
        let restored = rec.scope("op", None, op, |parent| -> Result<_, String> {
            if kind == 0 {
                let source = FileSource::open(&w.path).map_err(|e| e.to_string())?;
                rec.scope("pipeline.run_restart", parent, op, |run| {
                    if rec.enabled() {
                        run_restart(
                            &TracedSource {
                                inner: source,
                                rec,
                                parent: run,
                                op,
                            },
                            &w.cfg,
                        )
                    } else {
                        run_restart(&source, &w.cfg)
                    }
                })
                .map_err(|e| e.to_string())
            } else {
                let mut file = std::fs::File::open(&w.path).map_err(|e| e.to_string())?;
                rec.scope("pipeline.run_restart_streamed", parent, op, |run| {
                    if rec.enabled() {
                        let mut traced = TracedRead {
                            inner: file,
                            rec,
                            parent: run,
                            op,
                        };
                        run_restart_streamed(&mut traced, &w.cfg)
                    } else {
                        run_restart_streamed(&mut file, &w.cfg)
                    }
                })
                .map_err(|e| e.to_string())
            }
        });
        let end = Instant::now();
        let ok = restored.is_ok_and(|(data, o)| {
            o.read_retries == 0 && o.decode_retries == 0 && same_bits(&data, &w.reference)
        });
        OpOutcome {
            kind,
            start,
            end,
            raw_bytes: (w.reference.len() * 4) as u64,
            stored_bytes: w.container_bytes,
            nanojoules: w.nanojoules,
            ok,
        }
    }
}

impl Workload for StreamRestart {
    fn kinds(&self) -> &'static [&'static str] {
        &["run_restart", "run_restart_streamed"]
    }

    fn cycle_len(&self) -> usize {
        2
    }

    fn lanes(&mut self) -> Vec<Box<dyn Lane + '_>> {
        vec![Box::new(RestartLane(self))]
    }
}
