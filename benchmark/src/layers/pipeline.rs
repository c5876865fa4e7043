//! `pipeline` and `policy` layer probes: what `core::pipeline` adds on
//! top of the codec calls it makes (planning, bounded queue, ordered
//! commit, framing, sink or source), and what overlap buys when the sink
//! or source holds time.

use super::{Inputs, Values};
use crate::spans::Recorder;
use crate::stats;
use crate::workloads::stream::{self, TracedSink, TracedSource};
use lcpio_codec::policy::CodecId;
use lcpio_codec::registry;
use lcpio_core::pipeline::{
    run_restart, run_restart_sequential, run_restart_streamed, run_sequential, run_streaming,
    scan_stream, ChunkSink, ChunkSource, FileSink, FileSource, VecSink,
};
use lcpio_core::policy::build_policy;
use lcpio_core::{CostModel, RestartOutcome, StreamOutcome};
use std::hint::black_box;
use std::io;
use std::time::Duration;

/// `run_sequential` or `run_streaming`.
type WriteRun = fn(
    &[f32],
    &lcpio_core::PipelineConfig,
    &mut dyn ChunkSink,
) -> Result<StreamOutcome, lcpio_core::CoreError>;
/// `run_restart_sequential` or `run_restart`.
type RestartRun = fn(
    &dyn ChunkSource,
    &lcpio_core::RestartConfig,
) -> Result<(Vec<f32>, RestartOutcome), lcpio_core::CoreError>;

/// A sink that holds every chunk for a fixed time, as a slow device would.
struct HoldingSink {
    inner: VecSink,
    hold: Duration,
}

impl ChunkSink for HoldingSink {
    fn write_header(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.inner.write_header(bytes)
    }

    fn write_chunk(&mut self, seq: usize, bytes: &[u8]) -> io::Result<()> {
        std::thread::sleep(self.hold);
        self.inner.write_chunk(seq, bytes)
    }
}

/// A source that holds every frame-sized read for a fixed time. The
/// few-byte header and prefix reads of the scan pass through.
struct HoldingSource<S: ChunkSource> {
    inner: S,
    hold: Duration,
}

impl<S: ChunkSource> ChunkSource for HoldingSource<S> {
    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        if buf.len() >= 256 {
            std::thread::sleep(self.hold);
        }
        self.inner.read_at(offset, buf)
    }
}

/// Median duration, in microseconds, of the spans called `name`.
fn median_span_us(rec: &Recorder, name: &str) -> f64 {
    let mut us: Vec<f64> = rec
        .spans()
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
        .collect();
    stats::median(&mut us)
}

pub fn probe(inp: &Inputs) -> Result<Values, String> {
    let t = &inp.timer;
    let mut v = Values::new();
    let data = &inp.stream;
    let cfg = stream::write_config(&inp.scale);
    let restart_cfg = stream::restart_config();
    let path = inp.dir.join("probe-stream.lcw");
    let fail = |e: lcpio_core::CoreError| e.to_string();
    let mut retries = 0u64;
    let mut raw_fallbacks = 0usize;

    // ---- policy: the planner alone.
    let policy = build_policy(
        cfg.policy,
        cfg.compressor,
        cfg.bound,
        cfg.chip,
        CostModel::default(),
    );
    let chunks: Vec<&[f32]> = data.chunks(cfg.chunk_elements).collect();
    let plan_s = t.median_per_item_s(chunks.len(), || {
        chunks
            .iter()
            .enumerate()
            .map(|(seq, c)| policy.plan(black_box(c), seq).f_ghz)
            .sum::<f64>()
    });
    v.push(("policy.adaptive_plan_us", plan_s * 1e6));

    // ---- write side. The codec calls alone, for the same planned chunks.
    let planned = stream::plan_and_encode(data, &cfg)?;
    let codec_s = t.median_s(|| {
        for (chunk, p) in chunks.iter().zip(&planned) {
            let codec = registry()
                .by_name(p.plan.codec.name())
                .expect("planned codec is registered");
            black_box(codec.compress(black_box(chunk), &[chunk.len()], p.plan.bound)).ok();
        }
    });
    let mut outcomes: Vec<StreamOutcome> = Vec::new();
    let mut walls = t.samples(|| -> Result<(), String> {
        let mut sink = FileSink::create(&path).map_err(|e| e.to_string())?;
        outcomes.push(run_streaming(data, &cfg, &mut sink).map_err(fail)?);
        sink.commit().map_err(|e| e.to_string())
    });
    let first = outcomes
        .first()
        .ok_or("run_streaming failed in the write probe")?
        .clone();
    if outcomes.len() != walls.len() {
        return Err("run_streaming failed in the write probe".to_string());
    }
    let wall_s = stats::median(&mut walls);
    v.push((
        "pipeline.write_self_pct",
        (wall_s - codec_s) / wall_s * 100.0,
    ));
    let share = |f: fn(&StreamOutcome) -> f64| {
        stats::median(&mut outcomes.iter().map(|o| f(o) / o.wall_s).collect::<Vec<_>>())
    };
    v.push(("pipeline.compress_busy_share", share(|o| o.compress_busy_s)));
    v.push(("pipeline.write_busy_share", share(|o| o.write_busy_s)));
    v.push(("pipeline.plan_share", share(|o| o.plan_s)));
    v.push((
        "policy.zfp_chunk_share",
        first.codec_chunks[CodecId::Zfp.as_u8() as usize] as f64 / first.chunks as f64,
    ));
    for o in &outcomes {
        retries += o.write_retries;
        raw_fallbacks += o.raw_fallbacks;
    }

    let rec = Recorder::on();
    let mut traced = TracedSink {
        inner: FileSink::create(&path).map_err(|e| e.to_string())?,
        rec: &rec,
        parent: None,
        op: 0,
    };
    run_streaming(data, &cfg, &mut traced).map_err(fail)?;
    traced.inner.commit().map_err(|e| e.to_string())?;
    v.push((
        "pipeline.sink_write_us",
        median_span_us(&rec, "sink.write_chunk"),
    ));

    // Overlap only shows when the sink holds time: 60 % of a chunk's mean
    // compress time, sequential reference against the depth-4 pipeline.
    let hold = Duration::from_secs_f64(0.6 * first.compress_busy_s / first.chunks as f64);
    let held = |run: WriteRun| {
        let mut walls: Vec<f64> = (0..3)
            .filter_map(|_| {
                run(
                    data,
                    &cfg,
                    &mut HoldingSink {
                        inner: VecSink::default(),
                        hold,
                    },
                )
                .ok()
            })
            .map(|o| o.wall_s)
            .collect();
        stats::median(&mut walls)
    };
    v.push((
        "pipeline.write_overlap_gain",
        held(run_sequential) / held(run_streaming),
    ));

    // ---- restart side, on the file the write probe left.
    let source = FileSource::open(&path).map_err(|e| e.to_string())?;
    v.push((
        "pipeline.scan_us",
        t.median_s(|| scan_stream(black_box(&source))) * 1e6,
    ));
    let decode_s = t.median_s(|| {
        for p in &planned {
            black_box(registry().decompress_auto(black_box(&p.encoded.bytes), 1)).ok();
        }
    });
    let mut restarts: Vec<RestartOutcome> = Vec::new();
    let mut walls = t.samples(|| {
        run_restart(&source, &restart_cfg).map(|(data, o)| {
            restarts.push(o);
            data
        })
    });
    if restarts.len() != walls.len() || restarts.is_empty() {
        return Err("run_restart failed in the restart probe".to_string());
    }
    let random_s = stats::median(&mut walls);
    v.push((
        "pipeline.restart_self_pct",
        (random_s - decode_s) / random_s * 100.0,
    ));
    let share = |f: fn(&RestartOutcome) -> f64| {
        stats::median(&mut restarts.iter().map(|o| f(o) / o.wall_s).collect::<Vec<_>>())
    };
    v.push(("pipeline.decode_busy_share", share(|o| o.decode_busy_s)));
    v.push(("pipeline.read_busy_share", share(|o| o.read_busy_s)));

    let rec = Recorder::on();
    run_restart(
        &TracedSource {
            inner: FileSource::open(&path).map_err(|e| e.to_string())?,
            rec: &rec,
            parent: None,
            op: 0,
        },
        &restart_cfg,
    )
    .map_err(fail)?;
    v.push((
        "pipeline.source_read_us",
        median_span_us(&rec, "source.read_at"),
    ));

    let read_hold =
        Duration::from_secs_f64(0.6 * restarts[0].decode_busy_s / restarts[0].chunks as f64);
    let held = |run: RestartRun| -> Result<f64, String> {
        let holding = HoldingSource {
            inner: FileSource::open(&path).map_err(|e| e.to_string())?,
            hold: read_hold,
        };
        let mut walls: Vec<f64> = (0..3)
            .filter_map(|_| run(&holding, &restart_cfg).ok())
            .map(|(_, o)| o.wall_s)
            .collect();
        Ok(stats::median(&mut walls))
    };
    v.push((
        "pipeline.restart_overlap_gain",
        held(run_restart_sequential)? / held(run_restart)?,
    ));

    let mut streamed: Vec<RestartOutcome> = Vec::new();
    let mut walls = t.samples(|| -> Result<(), String> {
        let mut file = std::fs::File::open(&path).map_err(|e| e.to_string())?;
        streamed.push(
            run_restart_streamed(&mut file, &restart_cfg)
                .map_err(fail)?
                .1,
        );
        Ok(())
    });
    let last = streamed
        .last()
        .ok_or("run_restart_streamed failed in the restart probe")?;
    v.push((
        "pipeline.streamed_peak_buffered_bytes",
        last.peak_buffered_bytes as f64,
    ));
    v.push((
        "pipeline.streamed_vs_random_ratio",
        stats::median(&mut walls) / random_s,
    ));
    for o in restarts.iter().chain(&streamed) {
        retries += o.read_retries + o.decode_retries;
    }
    v.push(("pipeline.retries", retries as f64));
    v.push(("pipeline.raw_fallbacks", raw_fallbacks as f64));
    Ok(v)
}
