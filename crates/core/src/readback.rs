//! Read-side workflow energy (extension).
//!
//! The paper models the *write* path: compress → dump to NFS. Scientific
//! workflows also pay the mirror-image cost at analysis time: fetch the
//! compressed file from NFS and decompress it. This module extends the
//! Eqn-3 treatment to that read path, reusing the paper's observation that
//! I/O phases tolerate lower clocks.

use crate::error::CoreError;
use crate::pipeline::{overlap, sample_chunks, stretch, PhaseCost, PhaseOrder, TwoPhaseWork};
use crate::policy::{build_policy, compressor_of, PolicyKind};
use crate::records::Compressor;
use crate::tuning::TuningRule;
use crate::workmap::{CostModel, NyxSample};
use lcpio_powersim::{Chip, Machine};
use lcpio_codec::{BoundSpec, CodecStats};
use serde::{Deserialize, Serialize};

/// Configuration of the read-back experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReadbackConfig {
    /// Uncompressed volume being read back (bytes).
    pub total_bytes: f64,
    /// Error bound the data was compressed at.
    pub error_bound: f64,
    /// Chip performing the read + decompress.
    pub chip: Chip,
    /// Compressor that produced the file.
    pub compressor: Compressor,
    /// NYX sample cube side used to characterize the work.
    pub sample_side: usize,
    /// RNG seed.
    pub seed: u64,
    /// Tuning rule: the *writing* fraction is applied to the network read,
    /// the *compression* fraction to decompression.
    pub rule: TuningRule,
    /// Cost-model constants.
    pub cost_model: CostModel,
    /// Prefetch-queue depth of the overlapped restart pipeline whose
    /// outcome is reported alongside the sequential phases.
    pub queue_depth: usize,
    /// Per-chunk policy the restart is re-priced under
    /// ([`ReadbackResult::policy_overlap`]): the policy plans the sample
    /// chunk's codec and DVFS frequency, and the energy model attributes
    /// the decode phase at the plan's frequency. [`PolicyKind::Fixed`]
    /// reproduces the tuned overlap exactly.
    pub policy: PolicyKind,
}

impl ReadbackConfig {
    /// 512 GB read-back mirroring the paper's §VI-B dump.
    pub fn paper() -> Self {
        ReadbackConfig {
            total_bytes: 512e9,
            error_bound: 1e-3,
            chip: Chip::Broadwell,
            compressor: Compressor::Sz,
            sample_side: 64,
            seed: 0x0EAD,
            rule: TuningRule::PAPER,
            cost_model: CostModel::default(),
            queue_depth: 4,
            policy: PolicyKind::Fixed,
        }
    }

    /// Small settings for tests.
    pub fn quick() -> Self {
        ReadbackConfig { sample_side: 24, ..Self::paper() }
    }
}

/// Result of the read-back study.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReadbackResult {
    /// Compression ratio of the stored file.
    pub ratio: f64,
    /// Base-clock cost of the whole read-back priced as one job (CPU
    /// phase = decompression, I/O phase = the NFS fetch).
    pub base: PhaseCost,
    /// Tuned cost.
    pub tuned: PhaseCost,
    /// Base-clock overlapped restart (fetch feeds decode through the
    /// bounded prefetch queue): per-phase joules equal `base`'s, wall
    /// time shrinks.
    pub base_overlap: PhaseCost,
    /// Tuned overlapped restart.
    pub tuned_overlap: PhaseCost,
    /// Overlapped restart re-priced under [`ReadbackConfig::policy`]: the
    /// decode phase runs the planned codec and is attributed at the
    /// plan's DVFS frequency. Identical to `tuned_overlap` when the
    /// policy is fixed.
    pub policy_overlap: PhaseCost,
}

impl ReadbackResult {
    /// Fractional energy savings from tuning.
    pub fn savings(&self) -> f64 {
        1.0 - self.tuned.total_j() / self.base.total_j()
    }
}

/// Run the read-back experiment.
///
/// Fails with [`CoreError`] when the sample field cannot be compressed
/// under the configured bound (e.g. a non-finite `error_bound`).
pub fn run_readback(cfg: &ReadbackConfig) -> Result<ReadbackResult, CoreError> {
    let machine = Machine::for_chip(cfg.chip);
    let fmax = machine.cpu.f_max_ghz;
    let (f_decomp, f_fetch) = cfg.rule.clocks(&machine.cpu);

    let sample = NyxSample::new(cfg.sample_side, cfg.seed);
    let bound = BoundSpec::Absolute(cfg.error_bound);
    let stats = sample.compress(cfg.compressor, bound, None)?;
    let restart = |compressor: Compressor, stats: &CodecStats, volume_bytes: f64| {
        let (scale, stored) = stretch(stats, volume_bytes);
        TwoPhaseWork::fetch_decompress(&cfg.cost_model, &machine, compressor, stats, scale, stored)
    };
    // The sequential figures price the whole volume as one job; the
    // overlapped ones stream it as sample-sized chunks.
    let job = restart(cfg.compressor, &stats, cfg.total_bytes);
    let (chunk_bytes, chunks) = sample_chunks(&stats, cfg.total_bytes);
    let chunk = restart(cfg.compressor, &stats, chunk_bytes);
    let overlap_at = |f_cpu: f64, f_io: f64| {
        overlap([chunk.price(&machine, f_cpu, f_io)], chunks, cfg.queue_depth, PhaseOrder::IoFirst)
    };
    let tuned_overlap = overlap_at(f_decomp, f_fetch);
    let policy_overlap = if cfg.policy == PolicyKind::Fixed {
        tuned_overlap
    } else {
        // Plan the sample chunk; the volume is modelled as N identical
        // sample-sized chunks, so one plan prices them all. The decode
        // phase runs the *planned* codec and is attributed at the plan's
        // frequency; the fetch stage keeps the tuned rule frequency so
        // the comparison isolates the policy's decode decision.
        let policy = build_policy(cfg.policy, cfg.compressor, bound, cfg.chip, cfg.cost_model);
        let plan = policy.plan(sample.data(), 0);
        let planned = compressor_of(plan.codec).unwrap_or(cfg.compressor);
        let stats =
            if planned == cfg.compressor { stats } else { sample.compress(planned, plan.bound, None)? };
        let (chunk_bytes, chunks) = sample_chunks(&stats, cfg.total_bytes);
        let price = restart(planned, &stats, chunk_bytes).price(
            &machine,
            machine.cpu.snap(plan.f_ghz),
            f_fetch,
        );
        // A per-chunk plan list, summed chunk by chunk (not `chunks ×` one
        // price) as a mixed plan would be.
        overlap(std::iter::repeat_n(price, chunks), 1, cfg.queue_depth, PhaseOrder::IoFirst)
    };
    Ok(ReadbackResult {
        ratio: stats.ratio(),
        base: job.price(&machine, fmax, fmax),
        tuned: job.price(&machine, f_decomp, f_fetch),
        base_overlap: overlap_at(fmax, fmax),
        tuned_overlap,
        policy_overlap,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readback_tuning_saves_energy() {
        let r = run_readback(&ReadbackConfig::quick()).expect("quick read-back runs");
        assert!(r.savings() > 0.0, "savings {}", r.savings());
        assert!(r.ratio > 1.0);
    }

    #[test]
    fn decompression_is_cheaper_than_compression_side() {
        use crate::datadump::{run_data_dump, DataDumpConfig};
        let rb = run_readback(&ReadbackConfig::quick()).expect("quick read-back runs");
        let mut dump_cfg = DataDumpConfig::quick();
        dump_cfg.error_bounds = vec![1e-3];
        let (rows, _) = run_data_dump(&dump_cfg).expect("quick dump runs");
        assert!(
            rb.base.cpu_j < rows[0].base.cpu_j,
            "decompress {} !< compress {}",
            rb.base.cpu_j,
            rows[0].base.cpu_j
        );
    }

    #[test]
    fn overlapped_restart_conserves_phase_energy_and_shrinks_wall_time() {
        let r = run_readback(&ReadbackConfig::quick()).expect("quick read-back runs");
        let rel = |a: f64, b: f64| (a - b).abs() / b;
        for (seq, ov) in [(r.base, r.base_overlap), (r.tuned, r.tuned_overlap)] {
            // Same joules per phase as the sequential accounting (the
            // chunk-count ceiling perturbs at ~1e-7), shorter makespan.
            assert!(rel(ov.cpu_j, seq.cpu_j) < 1e-4);
            assert!(rel(ov.io_j, seq.io_j) < 1e-4);
            assert!(rel(ov.sequential_s, seq.sequential_s) < 1e-4);
            assert!(ov.pipelined_s < ov.sequential_s);
            assert!(ov.speedup() > 1.0);
        }
    }

    #[test]
    fn zfp_readback_also_saves() {
        let cfg = ReadbackConfig { compressor: Compressor::Zfp, ..ReadbackConfig::quick() };
        let r = run_readback(&cfg).expect("read-back runs");
        assert!(r.savings() > 0.0);
    }

    #[test]
    fn fixed_policy_overlap_equals_tuned_overlap() {
        let r = run_readback(&ReadbackConfig::quick()).expect("quick read-back runs");
        assert_eq!(r.policy_overlap, r.tuned_overlap);
    }

    #[test]
    fn adaptive_policy_attributes_decode_at_planned_frequency() {
        let cfg = ReadbackConfig { policy: PolicyKind::Adaptive, ..ReadbackConfig::quick() };
        let r = run_readback(&cfg).expect("read-back runs");
        // Conservation invariants hold under per-plan attribution.
        assert!(r.policy_overlap.total_j() > 0.0);
        assert!(r.policy_overlap.pipelined_s <= r.policy_overlap.sequential_s + 1e-12);
        // The adaptive plan minimizes decode energy over every
        // (codec, frequency) arm, so its decode-phase joules cannot
        // materially exceed the fixed tuned rule's (small slack for the
        // sampled-window vs full-sample stats gap).
        assert!(
            r.policy_overlap.cpu_j <= r.tuned_overlap.cpu_j * 1.05,
            "adaptive {} vs tuned {}",
            r.policy_overlap.cpu_j,
            r.tuned_overlap.cpu_j
        );
    }

    #[test]
    fn a_non_finite_bound_is_a_typed_error_in_every_study() {
        use crate::checkpoint::{run_checkpoint_study, CheckpointConfig};
        use crate::datadump::{run_data_dump, DataDumpConfig};
        let nan = f64::NAN;
        let rb = run_readback(&ReadbackConfig { error_bound: nan, ..ReadbackConfig::quick() });
        let dump = run_data_dump(&DataDumpConfig { error_bounds: vec![nan], ..DataDumpConfig::quick() });
        let ck = run_checkpoint_study(&CheckpointConfig { error_bound: nan, ..CheckpointConfig::quick() });
        for err in [rb.err(), dump.err(), ck.err()] {
            assert!(matches!(err, Some(CoreError::Sz(_))), "{err:?}");
        }
    }
}
