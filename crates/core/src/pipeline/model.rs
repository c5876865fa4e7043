//! The one pricing point of the paper's two-phase job.
//!
//! The paper prices a CPU phase (compress, or decompress on the way back)
//! and the I/O phase it feeds or drains (NFS write, or fetch), each as
//! `P(f)·t(f)` at its own DVFS frequency (Eqn 3). [`TwoPhaseWork`] is one
//! unit of that work, [`TwoPhaseWork::price`] is the only place the two
//! `simulate` calls are paired, and [`overlap`] streams priced units
//! through the bounded queue ([`overlap_makespan`]). Per-phase joules are
//! summed per unit, so the overlapped totals equal the sequential totals
//! exactly — overlap shortens wall time, it must never double-count (or
//! lose) energy.

use crate::records::Compressor;
use crate::workmap::CostModel;
use lcpio_codec::CodecStats;
use lcpio_powersim::{simulate, Machine, WorkProfile};

/// Makespan of a two-stage pipeline with a bounded queue of `depth`.
///
/// `t_c[k]` / `t_w[k]` are per-chunk first-stage and second-stage times:
/// compression and write on the dump side, fetch and decompression on the
/// restart side. One first-stage stream feeds one (order-preserving)
/// second-stage stream; the first stage of chunk `k` cannot *start* until
/// chunk `k - depth` has left the second stage (its queue slot frees up).
/// `depth = 0` is treated as 1.
pub fn overlap_makespan(t_c: &[f64], t_w: &[f64], depth: usize) -> f64 {
    assert_eq!(t_c.len(), t_w.len(), "one write per compressed chunk");
    let depth = depth.max(1);
    let mut comp_finish = 0.0f64;
    let mut write_finish = vec![0.0f64; t_c.len()];
    for k in 0..t_c.len() {
        let gate = if k >= depth { write_finish[k - depth] } else { 0.0 };
        let start = comp_finish.max(gate);
        comp_finish = start + t_c[k];
        let prev_write = if k > 0 { write_finish[k - 1] } else { 0.0 };
        write_finish[k] = comp_finish.max(prev_write) + t_w[k];
    }
    write_finish.last().copied().unwrap_or(0.0)
}

/// One unit of the paper's two-phase job: a CPU phase and the I/O phase
/// it feeds (compress → write) or drains (fetch → decompress).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TwoPhaseWork {
    /// The CPU phase: compression or decompression.
    pub cpu: WorkProfile,
    /// The I/O phase: the NFS write or fetch of the stored bytes.
    pub io: WorkProfile,
}

impl TwoPhaseWork {
    /// Compress → write: the compression behind `stats` stretched by
    /// `scale`, then `stored_bytes` written to the NFS mount.
    pub fn compress_write(
        cost_model: &CostModel,
        machine: &Machine,
        compressor: Compressor,
        stats: &CodecStats,
        scale: f64,
        stored_bytes: f64,
    ) -> Self {
        TwoPhaseWork {
            cpu: cost_model.compression_profile(compressor, stats, scale),
            io: machine.nfs.write_profile(stored_bytes),
        }
    }

    /// Fetch → decompress, the restart-side mirror: `stored_bytes` read
    /// back off the mount (the same single-core copy path as writing),
    /// then the decompression behind `stats` stretched by `scale`.
    pub fn fetch_decompress(
        cost_model: &CostModel,
        machine: &Machine,
        compressor: Compressor,
        stats: &CodecStats,
        scale: f64,
        stored_bytes: f64,
    ) -> Self {
        TwoPhaseWork {
            cpu: cost_model.decompression_profile(compressor, stats, scale),
            io: machine.nfs.write_profile(stored_bytes),
        }
    }

    /// Price both phases on `machine`, each at its own clock: the CPU
    /// phase at `f_cpu`, the I/O phase at `f_io` (Eqn 3 tunes the two
    /// apart). One unit on its own cannot overlap, so both wall times are
    /// the sum of the phases.
    pub fn price(&self, machine: &Machine, f_cpu: f64, f_io: f64) -> PhaseCost {
        let cpu = simulate(machine, f_cpu, &self.cpu);
        let io = simulate(machine, f_io, &self.io);
        let wall_s = cpu.runtime_s + io.runtime_s;
        PhaseCost {
            cpu_j: cpu.energy_j,
            io_j: io.energy_j,
            cpu_s: cpu.runtime_s,
            io_s: io.runtime_s,
            sequential_s: wall_s,
            pipelined_s: wall_s,
        }
    }
}

/// The scale factor and stored bytes that stretch a compressed sample's
/// `stats` to `volume_bytes` of data like it: `volume / sample` for the
/// cost model, `volume / ratio` onto the mount.
///
/// The studies use it under two conventions and report both. The
/// sequential figures price the whole volume as one job (`scale =
/// total / sample`, the paper's Figure 6 arithmetic); the overlapped
/// figures price [`sample_chunks`] sample-sized chunks (`volume =
/// sample`, so the scale is exactly 1). The two agree to the rounding of
/// the chunk count.
pub fn stretch(stats: &CodecStats, volume_bytes: f64) -> (f64, f64) {
    (volume_bytes / stats.input_bytes.max(1) as f64, volume_bytes / stats.ratio().max(1e-9))
}

/// `total_bytes` as sample-sized chunks through the queue: the bytes of
/// one chunk (one sample) and how many there are, `ceil(total / sample)`,
/// at least one.
pub fn sample_chunks(stats: &CodecStats, total_bytes: f64) -> (f64, usize) {
    let sample_bytes = stats.input_bytes.max(1) as f64;
    (sample_bytes, (total_bytes / sample_bytes).ceil().max(1.0) as usize)
}

/// What one priced unit, or a stream of them, costs: joules and busy
/// seconds per phase, named by role so the dump side (CPU = compression,
/// I/O = write) and the restart side (CPU = decompression, I/O = fetch)
/// read the same fields, plus both wall-time accountings.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PhaseCost {
    /// CPU-phase energy (J).
    pub cpu_j: f64,
    /// I/O-phase energy (J).
    pub io_j: f64,
    /// CPU-phase busy time (s).
    pub cpu_s: f64,
    /// I/O-phase busy time (s).
    pub io_s: f64,
    /// Wall time with the phases run one after the other (s). Stored, not
    /// derived: `rounds` equal chunks take `(cpu + io)·rounds`, which is
    /// not bit for bit `cpu_s + io_s`.
    pub sequential_s: f64,
    /// Wall time through the bounded queue (s); equals `sequential_s`
    /// for a single unit.
    pub pipelined_s: f64,
}

impl PhaseCost {
    /// Total energy (J) — the same joules sequential or overlapped;
    /// overlap must never double-count.
    pub fn total_j(&self) -> f64 {
        self.cpu_j + self.io_j
    }

    /// Sequential / pipelined wall time (≥ 1 for depth ≥ 1).
    pub fn speedup(&self) -> f64 {
        if self.pipelined_s > 0.0 { self.sequential_s / self.pipelined_s } else { 1.0 }
    }

    /// The same work run `n` times back to back, nothing overlapping
    /// across the repeats (a job's checkpoints, separated by simulation).
    pub fn times(&self, n: f64) -> PhaseCost {
        PhaseCost {
            cpu_j: self.cpu_j * n,
            io_j: self.io_j * n,
            cpu_s: self.cpu_s * n,
            io_s: self.io_s * n,
            sequential_s: self.sequential_s * n,
            pipelined_s: self.pipelined_s * n,
        }
    }
}

/// Which phase of every unit enters the bounded queue first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseOrder {
    /// Compress → write: the CPU phase feeds the I/O phase.
    CpuFirst,
    /// Fetch → decompress: the I/O phase feeds the CPU phase.
    IoFirst,
}

/// Stream priced units through the two-stage pipeline: the list `units`
/// in order, `rounds` times over, with a bounded queue of `queue_depth`
/// between the stages.
///
/// Energy and busy time are the per-unit prices summed unit by unit and
/// then multiplied by `rounds` — exactly the sequential totals — while
/// `pipelined_s` comes from [`overlap_makespan`] over the per-unit stage
/// times. Joules are attributed to the phase that burns them, never to
/// wall-clock overlap. `rounds` is how a caller says "`n` identical
/// chunks": `n ×` one price rather than a running sum of `n` equal terms,
/// so the result stays linear in `n` to the last bit (as `simulate`
/// itself is linear in the profile).
pub fn overlap(
    units: impl IntoIterator<Item = PhaseCost>,
    rounds: usize,
    queue_depth: usize,
    order: PhaseOrder,
) -> PhaseCost {
    let _span = lcpio_trace::span("pipeline.simulate");
    let (mut cpu_j, mut io_j) = (0.0, 0.0);
    let (mut t_cpu, mut t_io) = (Vec::new(), Vec::new());
    for unit in units {
        cpu_j += unit.cpu_j;
        io_j += unit.io_j;
        t_cpu.push(unit.cpu_s);
        t_io.push(unit.io_s);
    }
    let (cpu_s, io_s) = (t_cpu.iter().sum::<f64>(), t_io.iter().sum::<f64>());
    let rounds = rounds.max(1);
    if rounds > 1 {
        (t_cpu, t_io) = (t_cpu.repeat(rounds), t_io.repeat(rounds));
    }
    let once = PhaseCost { cpu_j, io_j, cpu_s, io_s, sequential_s: cpu_s + io_s, pipelined_s: 0.0 };
    let outcome = PhaseCost {
        pipelined_s: match order {
            PhaseOrder::CpuFirst => overlap_makespan(&t_cpu, &t_io, queue_depth),
            PhaseOrder::IoFirst => overlap_makespan(&t_io, &t_cpu, queue_depth),
        },
        ..once.times(rounds as f64)
    };
    if lcpio_trace::collecting() {
        lcpio_trace::counter_add("pipeline.sim.compression_uj", (outcome.cpu_j * 1e6) as u64);
        lcpio_trace::counter_add("pipeline.sim.writing_uj", (outcome.io_j * 1e6) as u64);
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::test_support::*;
    use lcpio_codec::BoundSpec;
    use lcpio_powersim::Chip;

    #[test]
    fn makespan_bounds() {
        // Overlap can never beat the slower stage, nor lose to the sum.
        let t_c = [3.0, 3.0, 3.0, 3.0];
        let t_w = [1.0, 1.0, 1.0, 1.0];
        let seq: f64 = 16.0;
        for depth in 1..6 {
            let m = overlap_makespan(&t_c, &t_w, depth);
            assert!(m >= 12.0 + 1.0 - 1e-12, "depth {depth}: {m}");
            assert!(m <= seq + 1e-12, "depth {depth}: {m}");
        }
        // Deep queue: compression streams, last write tail remains.
        assert!((overlap_makespan(&t_c, &t_w, 8) - 13.0).abs() < 1e-12);
    }

    #[test]
    fn makespan_backpressure_hurts_when_writer_is_slow() {
        let t_c = vec![1.0; 16];
        let t_w = vec![2.0; 16];
        let shallow = overlap_makespan(&t_c, &t_w, 1);
        let deep = overlap_makespan(&t_c, &t_w, 8);
        // Write-bound either way: lower bound is 1 + 32 = 33.
        assert!(deep >= 33.0 - 1e-12);
        assert!(shallow >= deep - 1e-12);
        // Depth 1 degenerates to sequential here (the next compression
        // waits for the previous write); depth ≥ 2 genuinely overlaps.
        assert!((shallow - 48.0).abs() < 1e-12);
        assert!((deep - 33.0).abs() < 1e-12);
        assert!(overlap_makespan(&t_c, &t_w, 2) < 48.0);
    }

    fn unit(machine: &Machine) -> TwoPhaseWork {
        TwoPhaseWork {
            cpu: WorkProfile { compute_cycles: 3e9, memory_bytes: 16e9, ..Default::default() },
            io: machine.nfs.write_profile(1e8),
        }
    }

    #[test]
    fn price_is_the_two_simulations_side_by_side() {
        let machine = Machine::for_chip(Chip::Broadwell);
        let work = unit(&machine);
        let p = work.price(&machine, 2.0, 1.7);
        let c = simulate(&machine, 2.0, &work.cpu);
        let w = simulate(&machine, 1.7, &work.io);
        assert_eq!((p.cpu_j, p.cpu_s), (c.energy_j, c.runtime_s));
        assert_eq!((p.io_j, p.io_s), (w.energy_j, w.runtime_s));
        assert_eq!(p.sequential_s, c.runtime_s + w.runtime_s);
        assert_eq!(p.pipelined_s, p.sequential_s);
    }

    #[test]
    fn overlapped_energy_matches_sequential_exactly() {
        let machine = Machine::for_chip(Chip::Broadwell);
        let p = unit(&machine).price(&machine, 2.0, 1.7);
        let o = overlap([p], 37, 4, PhaseOrder::CpuFirst);
        // Per-phase joules are per-chunk sums — overlap neither
        // double-counts nor drops energy.
        assert_eq!(o.cpu_j, p.cpu_j * 37.0);
        assert_eq!(o.io_j, p.io_j * 37.0);
        assert_eq!(o.sequential_s, p.sequential_s * 37.0);
        // The makespan is shorter than sequential but at least the longer
        // stage's busy time.
        assert!(o.pipelined_s < o.sequential_s);
        assert!(o.pipelined_s >= o.cpu_s.max(o.io_s));
        assert!(o.speedup() > 1.0);
    }

    #[test]
    fn deeper_queue_never_slows_the_simulated_pipeline() {
        let machine = Machine::for_chip(Chip::Broadwell);
        let work = TwoPhaseWork { io: machine.nfs.write_profile(6e8), ..unit(&machine) };
        let p = work.price(&machine, 2.0, 2.0);
        let mut last = f64::INFINITY;
        for depth in [1, 2, 4, 8] {
            let o = overlap([p], 64, depth, PhaseOrder::CpuFirst);
            assert!(o.pipelined_s <= last + 1e-12, "depth {depth}");
            last = o.pipelined_s;
        }
    }

    #[test]
    fn restart_side_prices_decompression_and_fetch_under_their_own_names() {
        let machine = Machine::for_chip(Chip::Broadwell);
        let cost_model = CostModel::default();
        let data = field(40_000);
        let stats = Compressor::Sz
            .codec()
            .compress(&data, &[data.len()], BoundSpec::Absolute(1e-3))
            .expect("compress")
            .stats;
        let (scale, stored) = stretch(&stats, stats.input_bytes as f64);
        assert_eq!(scale, 1.0);
        let dump = TwoPhaseWork::compress_write(
            &cost_model, &machine, Compressor::Sz, &stats, scale, stored,
        );
        let restart = TwoPhaseWork::fetch_decompress(
            &cost_model, &machine, Compressor::Sz, &stats, scale, stored,
        );
        // The mirror moves the same bytes and decodes for 70% of the
        // encode cycles.
        assert_eq!(restart.io, dump.io);
        assert_eq!(restart.cpu, cost_model.decompression_profile(Compressor::Sz, &stats, 1.0));
        assert!(restart.cpu.compute_cycles < dump.cpu.compute_cycles);
        let (chunk_bytes, chunks) = sample_chunks(&stats, 64.0 * stats.input_bytes as f64);
        assert_eq!((chunk_bytes, chunks), (stats.input_bytes as f64, 64));
        let p = restart.price(&machine, 2.0, 1.7);
        let o = overlap([p], chunks, 4, PhaseOrder::IoFirst);
        assert_eq!(o.cpu_j, p.cpu_j * 64.0);
        assert_eq!(o.io_j, p.io_j * 64.0);
        assert!(o.pipelined_s < o.sequential_s);
        // Same stage times, fetch first: the first fetch cannot hide.
        let t = overlap_makespan(&[p.io_s; 64], &[p.cpu_s; 64], 4);
        assert_eq!(o.pipelined_s, t);
    }

    #[test]
    fn mixed_units_sum_unit_by_unit() {
        let machine = Machine::for_chip(Chip::Broadwell);
        let work = unit(&machine);
        // Per-chunk frequencies: joules still sum chunk by chunk.
        let prices: Vec<PhaseCost> = (0..16)
            .map(|k| work.price(&machine, if k % 2 == 0 { 2.0 } else { 1.2 }, 1.7))
            .collect();
        let o = overlap(prices.iter().copied(), 1, 4, PhaseOrder::CpuFirst);
        assert_eq!(o.cpu_j, prices.iter().fold(0.0, |j, p| j + p.cpu_j));
        assert_eq!(o.io_j, prices.iter().fold(0.0, |j, p| j + p.io_j));
        assert!(o.pipelined_s <= o.sequential_s + 1e-12);
    }

    #[test]
    fn times_repeats_the_whole_outcome_without_overlap() {
        let machine = Machine::for_chip(Chip::Broadwell);
        let o = overlap([unit(&machine).price(&machine, 2.0, 1.7)], 8, 4, PhaseOrder::CpuFirst);
        let job = o.times(10.0);
        assert_eq!(job.total_j(), o.cpu_j * 10.0 + o.io_j * 10.0);
        assert_eq!(job.pipelined_s, o.pipelined_s * 10.0);
        assert!((job.speedup() - o.speedup()).abs() < 1e-12);
    }
}
