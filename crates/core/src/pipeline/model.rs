//! The simulated overlapped energy/time model.
//!
//! [`simulate_pipeline`] maps per-chunk work profiles onto a machine at
//! tuned frequencies and computes the overlapped makespan
//! ([`overlap_makespan`]). Per-phase joules are summed per chunk, so the
//! overlapped totals equal the sequential totals exactly — overlap
//! shortens wall time, it must never double-count (or lose) energy.

use crate::records::Compressor;
use crate::workmap::CostModel;
use lcpio_codec::CodecStats;
use lcpio_powersim::{simulate, Machine, WorkProfile};

/// Makespan of a two-stage pipeline with a bounded queue of `depth`.
///
/// `t_c[k]` / `t_w[k]` are per-chunk compression and write times. One
/// compression stream feeds one (order-preserving) write stream;
/// compression of chunk `k` cannot *start* until chunk `k - depth` has
/// finished writing (its queue slot frees up). `depth = 0` is treated as 1.
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

/// Per-phase energy and both wall-time accountings of one simulated dump.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct OverlapOutcome {
    /// Compression energy (J) — identical to the sequential accounting.
    pub compression_j: f64,
    /// Write energy (J) — identical to the sequential accounting.
    pub writing_j: f64,
    /// Sequential wall time: Σ t_c + Σ t_w (s).
    pub sequential_s: f64,
    /// Overlapped wall time at the configured queue depth (s).
    pub pipelined_s: f64,
}

impl OverlapOutcome {
    /// Total energy (J) — the same joules as the sequential path; overlap
    /// must never double-count.
    pub fn total_j(&self) -> f64 {
        self.compression_j + self.writing_j
    }

    /// Sequential / pipelined wall time (≥ 1 for depth ≥ 1).
    pub fn speedup(&self) -> f64 {
        if self.pipelined_s > 0.0 { self.sequential_s / self.pipelined_s } else { 1.0 }
    }
}

/// Simulate a dump of `chunks` identical chunks through the overlapped
/// pipeline on `machine`: compression at `f_comp` with `comp_profile` per
/// chunk, writing at `f_write` with `write_profile` per chunk.
///
/// Energy is accumulated per chunk and per phase — exactly the sequential
/// sums — while the makespan comes from [`overlap_makespan`]. The
/// per-phase split therefore stays correct under overlap: joules are
/// attributed to the stage that burns them, never to wall-clock overlap.
pub fn simulate_pipeline(
    machine: &Machine,
    f_comp: f64,
    f_write: f64,
    comp_profile: &WorkProfile,
    write_profile: &WorkProfile,
    chunks: usize,
    queue_depth: usize,
) -> OverlapOutcome {
    let _span = lcpio_trace::span("pipeline.simulate");
    let c = simulate(machine, f_comp, comp_profile);
    let w = simulate(machine, f_write, write_profile);
    let n = chunks.max(1);
    let t_c = vec![c.runtime_s; n];
    let t_w = vec![w.runtime_s; n];
    let outcome = OverlapOutcome {
        compression_j: c.energy_j * n as f64,
        writing_j: w.energy_j * n as f64,
        sequential_s: (c.runtime_s + w.runtime_s) * n as f64,
        pipelined_s: overlap_makespan(&t_c, &t_w, queue_depth),
    };
    if lcpio_trace::collecting() {
        lcpio_trace::counter_add("pipeline.sim.compression_uj", (outcome.compression_j * 1e6) as u64);
        lcpio_trace::counter_add("pipeline.sim.writing_uj", (outcome.writing_j * 1e6) as u64);
    }
    outcome
}

/// Per-chunk generalization of [`simulate_pipeline`] for mixed-codec
/// plans: every chunk carries its own `(frequency, work profile)` pair
/// per stage, so the energy model attributes each chunk's compression
/// joules at *that chunk's* planned DVFS frequency rather than one
/// pipeline-wide setting.
///
/// The accounting invariant is unchanged: per-phase joules are summed
/// chunk by chunk — exactly the sequential totals — while the makespan
/// comes from [`overlap_makespan`] over the per-chunk stage times. With
/// every chunk identical this reduces to [`simulate_pipeline`] exactly
/// (asserted by a test).
pub fn simulate_pipeline_mixed(
    machine: &Machine,
    comp: &[(f64, WorkProfile)],
    write: &[(f64, WorkProfile)],
    queue_depth: usize,
) -> OverlapOutcome {
    assert_eq!(comp.len(), write.len(), "one write per compressed chunk");
    let _span = lcpio_trace::span("pipeline.simulate_mixed");
    let mut compression_j = 0.0;
    let mut writing_j = 0.0;
    let mut t_c = Vec::with_capacity(comp.len());
    let mut t_w = Vec::with_capacity(write.len());
    for (f, profile) in comp {
        let m = simulate(machine, *f, profile);
        compression_j += m.energy_j;
        t_c.push(m.runtime_s);
    }
    for (f, profile) in write {
        let m = simulate(machine, *f, profile);
        writing_j += m.energy_j;
        t_w.push(m.runtime_s);
    }
    OverlapOutcome {
        compression_j,
        writing_j,
        sequential_s: t_c.iter().sum::<f64>() + t_w.iter().sum::<f64>(),
        pipelined_s: overlap_makespan(&t_c, &t_w, queue_depth),
    }
}

/// One-stop characterization for the drivers: compress a sample once,
/// derive the per-chunk profiles, and return the overlapped outcome for a
/// full-size dump of `total_bytes`.
///
/// The sample characterization (field compression + cost-model mapping)
/// happens in the *caller* — this helper only scales it — so sweeps can
/// hoist the invariant work out of their frequency loops.
#[allow(clippy::too_many_arguments)]
pub fn scaled_overlap(
    machine: &Machine,
    f_comp: f64,
    f_write: f64,
    cost_model: &CostModel,
    compressor: Compressor,
    stats: &CodecStats,
    total_bytes: f64,
    queue_depth: usize,
) -> OverlapOutcome {
    // One "chunk" of the full-size dump is one sample-sized block; the
    // pipeline streams ceil(total/sample) of them.
    let sample_bytes = stats.input_bytes.max(1) as f64;
    let chunks = (total_bytes / sample_bytes).ceil().max(1.0) as usize;
    let comp_profile = cost_model.compression_profile(compressor, stats, 1.0);
    let compressed_chunk_bytes = sample_bytes / stats.ratio().max(1e-9);
    let write_profile = machine.nfs.write_profile(compressed_chunk_bytes);
    simulate_pipeline(machine, f_comp, f_write, &comp_profile, &write_profile, chunks, queue_depth)
}

/// Restart-side sibling of [`scaled_overlap`]: NFS fetch feeds chunk
/// decompression through the bounded prefetch queue.
///
/// The returned [`OverlapOutcome`] follows `readback`'s slot convention —
/// `compression_j` holds the **decompression** energy and `writing_j` the
/// **fetch** energy — so the overlapped per-phase joules line up with (and
/// sum exactly to) [`crate::readback::run_readback`]'s sequential report
/// while the makespan shrinks.
#[allow(clippy::too_many_arguments)]
pub fn scaled_restart(
    machine: &Machine,
    f_fetch: f64,
    f_decomp: f64,
    cost_model: &CostModel,
    compressor: Compressor,
    stats: &CodecStats,
    total_bytes: f64,
    queue_depth: usize,
) -> OverlapOutcome {
    let sample_bytes = stats.input_bytes.max(1) as f64;
    let chunks = (total_bytes / sample_bytes).ceil().max(1.0) as usize;
    let decomp_profile = cost_model.decompression_profile(compressor, stats, 1.0);
    let compressed_chunk_bytes = sample_bytes / stats.ratio().max(1e-9);
    let fetch_profile = machine.nfs.write_profile(compressed_chunk_bytes);
    // Stage 1 (fetch off NFS) feeds stage 2 (decode); the simulator's
    // stage-1/stage-2 slots are then swapped into readback's convention.
    let o = simulate_pipeline(
        machine,
        f_fetch,
        f_decomp,
        &fetch_profile,
        &decomp_profile,
        chunks,
        queue_depth,
    );
    OverlapOutcome {
        compression_j: o.writing_j,
        writing_j: o.compression_j,
        sequential_s: o.sequential_s,
        pipelined_s: o.pipelined_s,
    }
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

    #[test]
    fn simulated_energy_matches_sequential_exactly() {
        let machine = Machine::for_chip(Chip::Broadwell);
        let comp = WorkProfile { compute_cycles: 3e9, memory_bytes: 16e9, ..Default::default() };
        let write = machine.nfs.write_profile(1e8);
        let o = simulate_pipeline(&machine, 2.0, 1.7, &comp, &write, 37, 4);
        let c = simulate(&machine, 2.0, &comp);
        let w = simulate(&machine, 1.7, &write);
        // Per-phase joules are per-chunk sums — overlap neither
        // double-counts nor drops energy.
        assert!((o.compression_j - c.energy_j * 37.0).abs() < 1e-9 * o.compression_j);
        assert!((o.writing_j - w.energy_j * 37.0).abs() < 1e-9 * o.writing_j);
        assert!((o.total_j() - (c.energy_j + w.energy_j) * 37.0).abs() < 1e-6);
        // The makespan is shorter than sequential but at least the longer
        // stage's busy time.
        assert!(o.pipelined_s < o.sequential_s);
        assert!(o.speedup() > 1.0);
    }

    #[test]
    fn deeper_queue_never_slows_the_simulated_pipeline() {
        let machine = Machine::for_chip(Chip::Broadwell);
        let comp = WorkProfile { compute_cycles: 3e9, memory_bytes: 16e9, ..Default::default() };
        let write = machine.nfs.write_profile(6e8);
        let mut last = f64::INFINITY;
        for depth in [1, 2, 4, 8] {
            let o = simulate_pipeline(&machine, 2.0, 2.0, &comp, &write, 64, depth);
            assert!(o.pipelined_s <= last + 1e-12, "depth {depth}");
            last = o.pipelined_s;
        }
    }

    #[test]
    fn scaled_restart_conserves_sequential_energy() {
        use crate::records::Compressor;
        use crate::workmap::CostModel;
        let machine = Machine::for_chip(Chip::Broadwell);
        let cost_model = CostModel::default();
        let data = field(40_000);
        let enc = Compressor::Sz
            .codec()
            .compress(&data, &[data.len()], BoundSpec::Absolute(1e-3))
            .expect("compress");
        let total_bytes = 64.0 * enc.stats.input_bytes as f64;
        let o = scaled_restart(
            &machine, 1.7, 2.0, &cost_model, Compressor::Sz, &enc.stats, total_bytes, 4,
        );
        // Cross-check against the raw simulator: same chunks, same
        // profiles, per-phase joules identical (slots swapped).
        let sample_bytes = enc.stats.input_bytes as f64;
        let chunks = (total_bytes / sample_bytes).ceil() as usize;
        let decomp = cost_model.decompression_profile(Compressor::Sz, &enc.stats, 1.0);
        let fetch = machine.nfs.write_profile(sample_bytes / enc.stats.ratio());
        let raw = simulate_pipeline(&machine, 1.7, 2.0, &fetch, &decomp, chunks, 4);
        assert!((o.compression_j - raw.writing_j).abs() <= 1e-9 * o.compression_j);
        assert!((o.writing_j - raw.compression_j).abs() <= 1e-9 * o.writing_j);
        assert!((o.total_j() - raw.total_j()).abs() <= 1e-9 * o.total_j());
        assert!(o.pipelined_s < o.sequential_s);
        assert!(o.speedup() > 1.0);
    }

    #[test]
    fn mixed_simulation_reduces_to_uniform_and_conserves_energy() {
        let machine = Machine::for_chip(Chip::Broadwell);
        let comp = WorkProfile { compute_cycles: 3e9, memory_bytes: 16e9, ..Default::default() };
        let write = machine.nfs.write_profile(1e8);
        // Uniform plans: the mixed simulator must equal simulate_pipeline.
        let uniform = simulate_pipeline(&machine, 2.0, 1.7, &comp, &write, 16, 4);
        let mixed = simulate_pipeline_mixed(
            &machine,
            &vec![(2.0, comp); 16],
            &vec![(1.7, write); 16],
            4,
        );
        assert!((uniform.compression_j - mixed.compression_j).abs() < 1e-9);
        assert!((uniform.writing_j - mixed.writing_j).abs() < 1e-9);
        assert!((uniform.pipelined_s - mixed.pipelined_s).abs() < 1e-12);
        // Per-chunk frequencies: joules still sum chunk by chunk.
        let comps: Vec<(f64, WorkProfile)> =
            (0..16).map(|k| (if k % 2 == 0 { 2.0 } else { 1.2 }, comp)).collect();
        let writes = vec![(1.7, write); 16];
        let o = simulate_pipeline_mixed(&machine, &comps, &writes, 4);
        let expect_j: f64 = comps.iter().map(|(f, p)| simulate(&machine, *f, p).energy_j).sum();
        assert!((o.compression_j - expect_j).abs() < 1e-9 * expect_j.max(1.0));
        assert!(o.pipelined_s <= o.sequential_s + 1e-12);
    }
}
