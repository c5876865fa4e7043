//! Overlapped compress→write pipeline vs the sequential dump path.
//!
//! Two claims, both pinned:
//!
//! 1. **Real execution** — `run_streaming` on a NYX field with a
//!    wire-throttled sink beats `run_sequential` wall-clock at queue
//!    depth ≥ 2 while emitting byte-identical containers.
//! 2. **Energy model** — the overlapped accounting's per-phase joules sum
//!    to the sequential path's totals (overlap shortens wall time; it
//!    must never double-count or drop energy).

use lcpio_bench::banner;
use lcpio_core::pipeline::{
    overlap, run_sequential, run_streaming, sample_chunks, stretch, ChunkSink, PhaseOrder,
    PipelineConfig, TwoPhaseWork, VecSink,
};
use lcpio_core::{Compressor, CostModel};
use lcpio_codec::BoundSpec;
use lcpio_powersim::{Chip, Machine};
use std::time::{Duration, Instant};

const REPS: usize = 5;

/// A sink that emulates a slow NFS wire: each committed chunk costs a
/// fixed sleep on top of the in-memory append.
struct ThrottledSink {
    inner: VecSink,
    delay: Duration,
}

impl ChunkSink for ThrottledSink {
    fn write_header(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.inner.write_header(bytes)
    }

    fn write_chunk(&mut self, seq: usize, bytes: &[u8]) -> std::io::Result<()> {
        std::thread::sleep(self.delay);
        self.inner.write_chunk(seq, bytes)
    }
}

fn main() {
    banner(
        "EXTENSION — overlapped compress→write streaming pipeline",
        "compression of chunk k+1 overlaps the write of chunk k (cf. CEAZ / To-Compress-or-Not)",
    );
    let field = lcpio_datagen::nyx::velocity_x(96, 0x0A11);
    let cfg = PipelineConfig {
        compressor: Compressor::Sz,
        bound: BoundSpec::Absolute(1e-3),
        chunk_elements: 1 << 16,
        compress_threads: 1, // one compression stream vs one write stream
        retry_backoff_ms: 0,
        ..PipelineConfig::default()
    };

    // Calibrate the throttle: make each chunk's write cost ~60% of its
    // compression cost, the regime where overlap pays but compression
    // stays the bottleneck (a 10 GbE wire against one SZ core).
    let mut probe = VecSink::default();
    let seq_probe = run_sequential(&field.data, &cfg, &mut probe).expect("sequential probe");
    let delay =
        Duration::from_secs_f64(0.6 * seq_probe.compress_busy_s / seq_probe.chunks as f64);
    println!(
        "field: 96^3 NYX, {} chunks of {} elements, per-chunk wire delay {:.2} ms",
        seq_probe.chunks,
        cfg.chunk_elements,
        delay.as_secs_f64() * 1e3
    );

    let run_with = |depth: usize, streaming: bool| -> (Vec<u8>, f64) {
        let c = PipelineConfig { queue_depth: depth, ..cfg.clone() };
        let mut best = f64::MAX;
        let mut bytes = Vec::new();
        for _ in 0..REPS {
            let mut sink = ThrottledSink { inner: VecSink::default(), delay };
            let t0 = Instant::now();
            if streaming {
                run_streaming(&field.data, &c, &mut sink).expect("streaming");
            } else {
                run_sequential(&field.data, &c, &mut sink).expect("sequential");
            }
            best = best.min(t0.elapsed().as_secs_f64());
            bytes = sink.inner.bytes;
        }
        (bytes, best)
    };

    let (seq_bytes, seq_s) = run_with(1, false);
    println!("sequential:        {:>7.1} ms  (best of {REPS})", seq_s * 1e3);
    for depth in [1usize, 2, 4] {
        let (bytes, wall_s) = run_with(depth, true);
        assert_eq!(bytes, seq_bytes, "depth {depth}: stream must be byte-identical");
        println!(
            "pipeline depth {depth}:  {:>7.1} ms  ({:.2}x)",
            wall_s * 1e3,
            seq_s / wall_s
        );
        if depth >= 2 {
            assert!(
                wall_s < seq_s,
                "depth {depth}: overlapped pipeline ({wall_s:.3} s) must beat sequential ({seq_s:.3} s)"
            );
        }
    }

    // Energy model: per-phase joules under overlap equal the sequential
    // accounting (within the integral-chunk-count rounding).
    let machine = Machine::for_chip(Chip::Broadwell);
    let cost_model = CostModel::default();
    let total_bytes = 512e9;
    let stats = {
        let codec = Compressor::Sz.codec();
        let dims: Vec<usize> = field.dims().extents().to_vec();
        codec
            .compress_chunked(&field.data, &dims, BoundSpec::Absolute(1e-3), 0)
            .expect("characterize")
            .stats
    };
    let fmax = machine.cpu.f_max_ghz;
    // The whole dump priced as one job against the same dump streamed as
    // sample-sized chunks through a queue of depth 4.
    let dump = |volume_bytes: f64| {
        let (scale, stored) = stretch(&stats, volume_bytes);
        TwoPhaseWork::compress_write(&cost_model, &machine, Compressor::Sz, &stats, scale, stored)
    };
    let (chunk_bytes, chunks) = sample_chunks(&stats, total_bytes);
    let job = dump(total_bytes).price(&machine, fmax, fmax);
    let chunk = dump(chunk_bytes).price(&machine, fmax, fmax);
    let overlap = overlap([chunk], chunks, 4, PhaseOrder::CpuFirst);
    let rel = |a: f64, b: f64| (a - b).abs() / b;
    assert!(rel(overlap.cpu_j, job.cpu_j) < 1e-4, "compression joules must match");
    assert!(rel(overlap.io_j, job.io_j) < 1e-4, "writing joules must match");
    assert!(rel(overlap.sequential_s, job.sequential_s) < 1e-4);
    assert!(overlap.pipelined_s < overlap.sequential_s, "depth 4 must overlap");
    println!(
        "\n512 GB dump model @ f_max: sequential {:.0} s, pipelined {:.0} s ({:.2}x), \
         energy {:.1} kJ in both accountings",
        overlap.sequential_s,
        overlap.pipelined_s,
        overlap.speedup(),
        overlap.total_j() / 1e3
    );

    println!("\nPASS — overlapped pipeline: byte-identical, faster at depth >= 2, energy-conserving");
}
