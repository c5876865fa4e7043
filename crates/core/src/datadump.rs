//! The 512 GB data-dump use case — Figure 6 (§VI-B).
//!
//! The paper compresses a 512 GB NYX `velocity_x` field with SZ at four
//! error bounds and writes the result to NFS over 10 GbE, once at the base
//! clock and once with Eqn-3 tuning (−12.5% for compression, −15% for the
//! write). Tuning saves 6.5 kJ (13%) on average across the bounds.

use crate::error::CoreError;
use crate::pipeline::{overlap, sample_chunks, stretch, PhaseCost, PhaseOrder, TwoPhaseWork};
use crate::records::Compressor;
use crate::tuning::TuningRule;
use crate::workmap::{CostModel, NyxSample};
use lcpio_codec::BoundSpec;
use lcpio_powersim::{Chip, Machine};
use serde::{Deserialize, Serialize};

/// Configuration of the dump experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DataDumpConfig {
    /// Total uncompressed volume (bytes); the paper uses 512 GB.
    pub total_bytes: f64,
    /// Error bounds to sweep (paper: 1e-1 … 1e-4).
    pub error_bounds: Vec<f64>,
    /// Chip to run on.
    pub chip: Chip,
    /// Compressor (paper: SZ; ZFP supported as an extension).
    pub compressor: Compressor,
    /// Side length of the NYX sample cube used to characterize the work.
    pub sample_side: usize,
    /// RNG seed.
    pub seed: u64,
    /// The tuning rule to compare against the base clock.
    pub rule: TuningRule,
    /// Cost-model constants.
    pub cost_model: CostModel,
    /// Worker threads for chunked SZ compression (0 = all available cores).
    pub threads: usize,
    /// Bounded-queue depth of the overlapped compress→write pipeline used
    /// for the per-row overlap accounting (1 = no overlap).
    pub queue_depth: usize,
}

impl DataDumpConfig {
    /// The paper's experiment.
    pub fn paper() -> Self {
        DataDumpConfig {
            total_bytes: 512e9,
            error_bounds: crate::experiment::PAPER_ERROR_BOUNDS.to_vec(),
            chip: Chip::Broadwell,
            compressor: Compressor::Sz,
            sample_side: 64,
            seed: 0x512,
            rule: TuningRule::PAPER,
            cost_model: CostModel::default(),
            threads: 0,
            queue_depth: 4,
        }
    }

    /// Small settings for tests.
    pub fn quick() -> Self {
        DataDumpConfig { sample_side: 24, error_bounds: vec![1e-1, 1e-4], ..Self::paper() }
    }
}

/// One error-bound row of Figure 6.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DumpRow {
    /// Error bound.
    pub error_bound: f64,
    /// Compression ratio achieved on the sample.
    pub ratio: f64,
    /// Base-clock cost of the whole dump priced as one job (CPU phase =
    /// compression, I/O phase = the NFS write).
    pub base: PhaseCost,
    /// Eqn-3-tuned cost.
    pub tuned: PhaseCost,
    /// Overlapped-pipeline accounting at the base clock: the dump as
    /// sample-sized chunks through the bounded queue. Same per-phase
    /// joules as [`DumpRow::base`] (to the rounding of the chunk count),
    /// shorter wall time.
    pub base_overlap: PhaseCost,
    /// Overlapped-pipeline accounting at the Eqn-3 clocks.
    pub tuned_overlap: PhaseCost,
}

impl DumpRow {
    /// Energy saved by tuning (J).
    pub fn saved_j(&self) -> f64 {
        self.base.total_j() - self.tuned.total_j()
    }

    /// Fractional savings.
    pub fn savings(&self) -> f64 {
        self.saved_j() / self.base.total_j()
    }
}

/// Aggregate over the error bounds (the paper's "6.5 kJ, or 13%").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DumpSummary {
    /// Mean energy saved (J).
    pub mean_saved_j: f64,
    /// Mean fractional savings.
    pub mean_savings: f64,
}

/// Run the Figure 6 experiment.
///
/// Fails with [`CoreError`] when the sample field cannot be compressed
/// under the configured bound (e.g. a non-finite `error_bounds` entry).
pub fn run_data_dump(cfg: &DataDumpConfig) -> Result<(Vec<DumpRow>, DumpSummary), CoreError> {
    let _span = lcpio_trace::span("core.dump");
    let machine = Machine::for_chip(cfg.chip);
    let fmax = machine.cpu.f_max_ghz;
    let (f_comp, f_write) = cfg.rule.clocks(&machine.cpu);

    let sample = NyxSample::new(cfg.sample_side, cfg.seed);

    let mut rows = Vec::new();
    for &eb in &cfg.error_bounds {
        let stats = sample.compress(cfg.compressor, BoundSpec::Absolute(eb), Some(cfg.threads))?;
        let dump = |volume_bytes: f64| {
            let (scale, stored) = stretch(&stats, volume_bytes);
            TwoPhaseWork::compress_write(
                &cfg.cost_model,
                &machine,
                cfg.compressor,
                &stats,
                scale,
                stored,
            )
        };
        // The sequential figures price the whole dump as one job; the
        // overlapped ones stream it chunk by chunk: identical per-phase
        // joules, shorter wall time (queue_depth ≥ 2 lets compression of
        // chunk k+1 proceed while chunk k is on the wire).
        let (chunk_bytes, chunks) = sample_chunks(&stats, cfg.total_bytes);
        let (job, chunk) = (dump(cfg.total_bytes), dump(chunk_bytes));
        let overlap_at = |fc: f64, fw: f64| {
            overlap([chunk.price(&machine, fc, fw)], chunks, cfg.queue_depth, PhaseOrder::CpuFirst)
        };
        let row = DumpRow {
            error_bound: eb,
            ratio: stats.ratio(),
            base: job.price(&machine, fmax, fmax),
            tuned: job.price(&machine, f_comp, f_write),
            base_overlap: overlap_at(fmax, fmax),
            tuned_overlap: overlap_at(f_comp, f_write),
        };
        if lcpio_trace::collecting() {
            lcpio_trace::counter_add("core.dump.compression_uj", (row.base.cpu_j * 1e6) as u64);
            lcpio_trace::counter_add("core.dump.writing_uj", (row.base.io_j * 1e6) as u64);
            lcpio_trace::counter_add("core.dump.saved_uj", (row.saved_j() * 1e6) as u64);
        }
        rows.push(row);
    }
    let n = rows.len().max(1) as f64;
    let summary = DumpSummary {
        mean_saved_j: rows.iter().map(|r| r.saved_j()).sum::<f64>() / n,
        mean_savings: rows.iter().map(|r| r.savings()).sum::<f64>() / n,
    };
    Ok((rows, summary))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcpio_powersim::simulate;

    #[test]
    fn tuning_always_saves_energy() {
        let (rows, summary) = run_data_dump(&DataDumpConfig::quick()).expect("quick dump runs");
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.saved_j() > 0.0, "eb {}: no savings", r.error_bound);
        }
        assert!(summary.mean_saved_j > 0.0);
    }

    #[test]
    fn savings_fraction_matches_paper_band() {
        // Paper: 13% on average (6.5 kJ of ~50 kJ).
        let (_, summary) = run_data_dump(&DataDumpConfig::paper()).expect("paper dump runs");
        assert!(
            (0.06..0.20).contains(&summary.mean_savings),
            "savings {}",
            summary.mean_savings
        );
    }

    #[test]
    fn absolute_energy_is_tens_of_kilojoules() {
        // 512 GB of compression + writing lands in the 10–200 kJ decade —
        // same order as Figure 6's tens of kJ.
        let (rows, _) = run_data_dump(&DataDumpConfig::paper()).expect("paper dump runs");
        for r in &rows {
            let kj = r.base.total_j() / 1e3;
            assert!((10.0..400.0).contains(&kj), "eb {}: {kj} kJ", r.error_bound);
        }
    }

    #[test]
    fn finer_bounds_cost_more_energy_and_compress_less() {
        let (rows, _) = run_data_dump(&DataDumpConfig::paper()).expect("paper dump runs");
        // rows are ordered 1e-1 → 1e-4.
        assert!(rows.first().unwrap().ratio > rows.last().unwrap().ratio);
        assert!(rows.first().unwrap().base.total_j() < rows.last().unwrap().base.total_j());
    }

    #[test]
    fn writing_shrinks_with_compression_ratio() {
        let (rows, _) = run_data_dump(&DataDumpConfig::paper()).expect("paper dump runs");
        for r in &rows {
            // Compressed write must be much cheaper than compression for
            // high ratios.
            assert!(r.base.io_j < r.base.cpu_j, "eb {}", r.error_bound);
        }
    }

    #[test]
    fn overlap_conserves_per_phase_energy() {
        // Overlap changes wall time, never joules: each row's pipelined
        // per-phase energies must sum to the sequential accounting within
        // the chunk-count rounding (ceil(total/sample) vs exact ratio).
        let (rows, _) = run_data_dump(&DataDumpConfig::paper()).expect("paper dump runs");
        for r in &rows {
            for (seq, ovl) in [(&r.base, &r.base_overlap), (&r.tuned, &r.tuned_overlap)] {
                let rel = |a: f64, b: f64| (a - b).abs() / b.max(1e-12);
                assert!(rel(ovl.cpu_j, seq.cpu_j) < 1e-4, "eb {}", r.error_bound);
                assert!(rel(ovl.io_j, seq.io_j) < 1e-4, "eb {}", r.error_bound);
                assert!(rel(ovl.total_j(), seq.total_j()) < 1e-4, "eb {}", r.error_bound);
                assert!(rel(ovl.sequential_s, seq.sequential_s) < 1e-4, "eb {}", r.error_bound);
            }
        }
    }

    #[test]
    fn overlap_beats_sequential_wall_clock() {
        let cfg = DataDumpConfig::paper(); // queue_depth 4
        let (rows, _) = run_data_dump(&cfg).expect("paper dump runs");
        for r in &rows {
            for ovl in [&r.base_overlap, &r.tuned_overlap] {
                assert!(ovl.speedup() > 1.0, "eb {}: speedup {}", r.error_bound, ovl.speedup());
                // Bounded below by the slower stage's busy time.
                assert!(ovl.pipelined_s < ovl.sequential_s);
            }
        }
    }

    #[test]
    fn depth_one_pipeline_degenerates_to_sequential() {
        let cfg = DataDumpConfig { queue_depth: 1, ..DataDumpConfig::quick() };
        let (rows, _) = run_data_dump(&cfg).expect("quick dump runs");
        for r in &rows {
            // With one queue slot the next compression waits for the
            // previous write: no overlap at all.
            let rel =
                (r.base_overlap.pipelined_s - r.base_overlap.sequential_s).abs() / r.base_overlap.sequential_s;
            assert!(rel < 1e-9, "eb {}", r.error_bound);
        }
    }

    #[test]
    fn sequential_rows_match_direct_simulation() {
        // Regression pin: wiring the overlapped pipeline into the driver
        // must not perturb the Figure-6 sequential numbers. Recompute one
        // row from scratch and require bitwise equality.
        let cfg = DataDumpConfig::quick();
        let (rows, _) = run_data_dump(&cfg).expect("quick dump runs");
        let machine = Machine::for_chip(cfg.chip);
        let field = lcpio_datagen::nyx::velocity_x(cfg.sample_side, cfg.seed);
        let dims: Vec<usize> = field.dims().extents().to_vec();
        let scale_factor = cfg.total_bytes / field.sample_bytes() as f64;
        let eb = cfg.error_bounds[0];
        let out = cfg
            .compressor
            .codec()
            .compress_chunked(&field.data, &dims, BoundSpec::Absolute(eb), cfg.threads)
            .expect("sample compresses");
        let profile = cfg.cost_model.compression_profile(cfg.compressor, &out.stats, scale_factor);
        let write = machine.nfs.write_profile(cfg.total_bytes / out.stats.ratio());
        let c = simulate(&machine, machine.cpu.f_max_ghz, &profile);
        let w = simulate(&machine, machine.cpu.f_max_ghz, &write);
        assert_eq!(rows[0].base.cpu_j, c.energy_j);
        assert_eq!(rows[0].base.io_j, w.energy_j);
        assert_eq!(rows[0].base.cpu_s, c.runtime_s);
        assert_eq!(rows[0].base.io_s, w.runtime_s);
    }

    #[test]
    fn zfp_variant_also_saves() {
        let cfg = DataDumpConfig {
            compressor: Compressor::Zfp,
            ..DataDumpConfig::quick()
        };
        let (_, summary) = run_data_dump(&cfg).expect("dump runs");
        assert!(summary.mean_savings > 0.0);
    }
}
