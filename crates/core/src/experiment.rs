//! The experiment pipeline: the sweeps behind every table and figure.
//!
//! §IV's methodology, end to end: generate (synthetic) fields, really
//! compress them with SZ and ZFP at four error bounds, convert the
//! measured operation counts into work profiles, then sweep the DVFS
//! ladder of both chips measuring energy and runtime with 10 noisy
//! repetitions per point. Compression and transit jobs fan out across
//! scoped worker threads ([`crate::par::par_map`]); results are
//! deterministic because every combination derives its own RNG seed from
//! its identity, not from scheduling order.

use crate::policy::{interleaved_cesm_hacc, run_policy_study, PolicyRecord, PolicyStudy};
use crate::records::{CompressionRecord, Compressor, TransitRecord};
use crate::workmap::CostModel;
use lcpio_datagen::Dataset;
use lcpio_powersim::{Chip, Machine, Perf};
use lcpio_codec::BoundSpec;
use serde::{Deserialize, Serialize};

/// The paper's four error bounds (§III-A).
pub const PAPER_ERROR_BOUNDS: [f64; 4] = [1e-1, 1e-2, 1e-3, 1e-4];

/// The paper's data-transit sizes: 1–16 GB (§IV-B).
pub const PAPER_TRANSIT_GB: [f64; 5] = [1.0, 2.0, 4.0, 8.0, 16.0];

/// Everything needed to reproduce one full sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Element-count divisor for dataset samples (1 = full size).
    pub scale: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Repetitions per (config, frequency) point; the paper uses 10.
    pub reps: u32,
    /// Absolute error bounds to compress at.
    pub error_bounds: Vec<f64>,
    /// Datasets to compress.
    pub datasets: Vec<Dataset>,
    /// Chips to sweep.
    pub chips: Vec<Chip>,
    /// Compressors to run.
    pub compressors: Vec<Compressor>,
    /// Cost-model constants (see [`CostModel`]).
    pub cost_model: CostModel,
    /// Measurement noise σ.
    pub noise_sigma: f64,
    /// Transit payload sizes in GB.
    pub transit_gb: Vec<f64>,
    /// Worker threads for sweep fan-out and chunked SZ compression
    /// (0 = all available cores).
    pub threads: usize,
}

impl ExperimentConfig {
    /// Full paper configuration on moderately sized samples (≈0.5–1 M
    /// elements per dataset). Runs in seconds in release mode.
    pub fn paper() -> Self {
        ExperimentConfig {
            scale: 256,
            seed: 20220530, // IPDPS-W 2022
            reps: 10,
            error_bounds: PAPER_ERROR_BOUNDS.to_vec(),
            datasets: Dataset::MODEL_SETS.to_vec(),
            chips: Chip::ALL.to_vec(),
            compressors: Compressor::ALL.to_vec(),
            cost_model: CostModel::default(),
            noise_sigma: lcpio_powersim::DEFAULT_NOISE_SIGMA,
            transit_gb: PAPER_TRANSIT_GB.to_vec(),
            threads: 0,
        }
    }

    /// Small configuration for unit tests and debug builds.
    pub fn quick() -> Self {
        ExperimentConfig {
            scale: 16384,
            reps: 3,
            error_bounds: vec![1e-2, 1e-4],
            ..Self::paper()
        }
    }

    /// Deterministic per-combination seed.
    fn combo_seed(&self, comp: Compressor, ds: Dataset, eb_idx: usize) -> u64 {
        let c = match comp {
            Compressor::Sz => 1u64,
            Compressor::Zfp => 2,
        };
        let d = match ds {
            Dataset::CesmAtm => 1u64,
            Dataset::Hacc => 2,
            Dataset::Nyx => 3,
            Dataset::Isabel => 4,
        };
        self.seed
            .wrapping_mul(0x9e3779b97f4a7c15)
            .wrapping_add(c * 1_000_003 + d * 10_007 + eb_idx as u64)
    }
}

/// Output of one compression run prior to the frequency sweep.
#[derive(Debug, Clone)]
struct CompressedJob {
    compressor: Compressor,
    dataset: Dataset,
    error_bound: f64,
    profile: lcpio_powersim::WorkProfile,
    ratio: f64,
    seed: u64,
}

/// Results of the full sweep (the paper's raw dataset).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SweepResult {
    /// One record per (chip, compressor, dataset, eb, frequency).
    pub compression: Vec<CompressionRecord>,
    /// One record per (chip, size, frequency).
    pub transit: Vec<TransitRecord>,
    /// Adaptive-policy axis: per chip, every fixed codec×frequency arm
    /// plus the heuristic and adaptive policies evaluated over the
    /// interleaved CESM+HACC workload ([`run_policy_sweep`]).
    pub policy: Vec<PolicyRecord>,
}

impl SweepResult {
    /// Serialize to pretty JSON (for EXPERIMENTS.md provenance).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("sweep serialization cannot fail")
    }
}

/// Generate the sample field for one dataset.
///
/// The field depends only on `(dataset, scale, seed)` — never on the
/// compressor or error bound — so [`run_compression_sweep`] generates it
/// once per dataset and shares it across all combos
/// ([`tests::hoisted_field_generation_leaves_sweep_unchanged`] pins that
/// the hoist changed nothing).
fn dataset_field(cfg: &ExperimentConfig, ds: Dataset) -> lcpio_datagen::Field {
    ds.generate(cfg.scale, cfg.seed ^ 0xD5)
}

/// Really compress one dataset sample and derive its work profile.
fn run_compression_job(
    cfg: &ExperimentConfig,
    comp: Compressor,
    ds: Dataset,
    field: &lcpio_datagen::Field,
    eb: f64,
    seed: u64,
) -> CompressedJob {
    let dims: Vec<usize> = field.dims().extents().to_vec();
    let scale_factor = field.scale_factor();
    // `compress_for_profile` picks each codec's thread-neutral container:
    // SZ's chunked stream (bytes/stats identical at every inner thread
    // count) with one inner worker — the sweep's own pool already
    // saturates the cores — and ZFP's serial stream.
    let out = comp
        .codec()
        .compress_for_profile(&field.data, &dims, BoundSpec::Absolute(eb))
        .expect("generated fields always compress");
    let profile = cfg.cost_model.compression_profile(comp, &out.stats, scale_factor);
    let ratio = out.stats.ratio();
    CompressedJob { compressor: comp, dataset: ds, error_bound: eb, profile, ratio, seed }
}

/// Run the full compression sweep of §IV-A.
pub fn run_compression_sweep(cfg: &ExperimentConfig) -> Vec<CompressionRecord> {
    let _span = lcpio_trace::span("core.sweep.compression");
    // Generate each dataset's sample field once; every (compressor, eb)
    // combo reuses it. The fields are combo-invariant, so regenerating
    // them inside the fan-out below (as this driver once did) only
    // repeated identical spectral synthesis 2 × |error_bounds| times per
    // dataset.
    let fields: Vec<lcpio_datagen::Field> =
        crate::par::par_map(&cfg.datasets, cfg.threads, |_, &ds| dataset_field(cfg, ds));

    // Enumerate combinations with their deterministic seeds.
    let combos: Vec<(Compressor, usize, f64, u64)> = cfg
        .compressors
        .iter()
        .flat_map(|&comp| {
            cfg.datasets.iter().enumerate().flat_map(move |(di, _)| {
                cfg.error_bounds
                    .iter()
                    .enumerate()
                    .map(move |(i, &eb)| (comp, di, eb, i as u64))
            })
        })
        .map(|(comp, di, eb, i)| {
            (comp, di, eb, cfg.combo_seed(comp, cfg.datasets[di], i as usize))
        })
        .collect();

    // Fan the (real) compression work out over scoped worker threads.
    let jobs: Vec<CompressedJob> = crate::par::par_map(&combos, cfg.threads, |_, &(comp, di, eb, seed)| {
        run_compression_job(cfg, comp, cfg.datasets[di], &fields[di], eb, seed)
    });

    // Frequency sweep: cheap, deterministic, sequential.
    let mut records = Vec::new();
    for job in &jobs {
        for &chip in &cfg.chips {
            let machine = Machine::for_chip(chip);
            let mut perf = Perf::with_sigma(job.seed ^ (chip as u64) << 32, cfg.noise_sigma);
            for f in machine.cpu.ladder() {
                let stat = perf.measure(&machine, f, &job.profile, cfg.reps);
                records.push(CompressionRecord {
                    chip,
                    compressor: job.compressor,
                    dataset: job.dataset,
                    error_bound: job.error_bound,
                    f_ghz: f,
                    power_w: stat.power_w,
                    runtime_s: stat.runtime_s,
                    energy_j: stat.energy_j,
                    power_ci95_w: stat.power_ci95_w,
                    ratio: job.ratio,
                });
            }
        }
    }
    records
}

/// Run the data-transit sweep of §IV-B.
///
/// Each (chip, size) combination is independent and derives its RNG seed
/// from its identity, so the combos fan out over the shared worker pool
/// with record order fixed by the combo index.
pub fn run_transit_sweep(cfg: &ExperimentConfig) -> Vec<TransitRecord> {
    let _span = lcpio_trace::span("core.sweep.transit");
    let combos: Vec<(Chip, usize, f64)> = cfg
        .chips
        .iter()
        .flat_map(|&chip| {
            cfg.transit_gb.iter().enumerate().map(move |(si, &gb)| (chip, si, gb))
        })
        .collect();
    let per_combo = crate::par::par_map(&combos, cfg.threads, |_, &(chip, si, gb)| {
        let machine = Machine::for_chip(chip);
        let bytes = gb * 1e9;
        let profile = machine.nfs.write_profile(bytes);
        let mut perf = Perf::with_sigma(
            cfg.seed ^ ((chip as u64) << 24) ^ ((si as u64) << 8),
            cfg.noise_sigma,
        );
        let mut records = Vec::new();
        for f in machine.cpu.ladder() {
            let stat = perf.measure(&machine, f, &profile, cfg.reps);
            records.push(TransitRecord {
                chip,
                bytes,
                f_ghz: f,
                power_w: stat.power_w,
                runtime_s: stat.runtime_s,
                energy_j: stat.energy_j,
                power_ci95_w: stat.power_ci95_w,
            });
        }
        records
    });
    per_combo.into_iter().flatten().collect()
}

/// Elements per chunk of the policy sweep's interleaved workload.
pub const POLICY_SWEEP_CHUNK_ELEMENTS: usize = 8192;

/// Chunks in the policy sweep's interleaved workload (alternating CESM
/// and range-amplified HACC).
pub const POLICY_SWEEP_CHUNKS: usize = 8;

/// Run the adaptive-policy axis: for every chip, evaluate each fixed
/// codec×frequency arm plus the heuristic and adaptive policies over the
/// interleaved CESM+HACC workload, one [`PolicyRecord`] per arm.
///
/// The chips fan out over the shared worker pool; each chip's study is
/// deterministic (real compressions of a seeded workload, modelled
/// energies), so record order is fixed by the chip index.
pub fn run_policy_sweep(cfg: &ExperimentConfig) -> Vec<PolicyRecord> {
    let _span = lcpio_trace::span("core.sweep.policy");
    let data =
        interleaved_cesm_hacc(POLICY_SWEEP_CHUNK_ELEMENTS, POLICY_SWEEP_CHUNKS, cfg.seed);
    let per_chip = crate::par::par_map(&cfg.chips, cfg.threads, |_, &chip| {
        let study = PolicyStudy {
            chip,
            cost_model: cfg.cost_model,
            chunk_elements: POLICY_SWEEP_CHUNK_ELEMENTS,
            ..PolicyStudy::default()
        };
        let result = run_policy_study(&data, &study);
        // Canonical records only: the measured wall-times would make two
        // runs of one config differ.
        result.all().into_iter().map(|r| r.clone().canonical()).collect::<Vec<PolicyRecord>>()
    });
    per_chip.into_iter().flatten().collect()
}

/// Run all three sweeps.
pub fn run_full_sweep(cfg: &ExperimentConfig) -> SweepResult {
    SweepResult {
        compression: run_compression_sweep(cfg),
        transit: run_transit_sweep(cfg),
        policy: run_policy_sweep(cfg),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_covers_all_combinations() {
        let cfg = ExperimentConfig::quick();
        let recs = run_compression_sweep(&cfg);
        // 2 compressors × 3 datasets × 2 ebs × (25 + 29) frequencies.
        assert_eq!(recs.len(), 2 * 3 * 2 * (25 + 29));
        // All records carry positive physical quantities.
        for r in &recs {
            assert!(r.power_w > 0.0 && r.runtime_s > 0.0 && r.energy_j > 0.0);
            assert!(r.ratio > 1.0, "{:?} ratio {}", r.dataset, r.ratio);
        }
    }

    #[test]
    fn sweep_is_deterministic() {
        let cfg = ExperimentConfig::quick();
        let a = run_compression_sweep(&cfg);
        let b = run_compression_sweep(&cfg);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.power_w, y.power_w);
            assert_eq!(x.energy_j, y.energy_j);
        }
    }

    #[test]
    fn transit_sweep_shape() {
        let mut cfg = ExperimentConfig::quick();
        cfg.transit_gb = vec![1.0, 4.0];
        let recs = run_transit_sweep(&cfg);
        assert_eq!(recs.len(), 2 * (25 + 29));
        // Bigger payloads take longer at the same frequency.
        let at = |chip: Chip, gb: f64| {
            recs.iter()
                .find(|r| r.chip == chip && (r.bytes - gb * 1e9).abs() < 1.0 && r.f_ghz > 1.99)
                .unwrap()
                .runtime_s
        };
        assert!(at(Chip::Broadwell, 4.0) > 3.0 * at(Chip::Broadwell, 1.0));
    }

    #[test]
    fn finer_error_bound_costs_more_energy() {
        let cfg = ExperimentConfig::quick();
        let recs = run_compression_sweep(&cfg);
        // Compare mean energy at the two bounds for SZ on NYX, Broadwell.
        let mean_energy = |eb: f64| {
            let sel: Vec<f64> = recs
                .iter()
                .filter(|r| {
                    r.chip == Chip::Broadwell
                        && r.compressor == Compressor::Sz
                        && r.dataset == Dataset::Nyx
                        && (r.error_bound - eb).abs() < 1e-12
                })
                .map(|r| r.energy_j)
                .collect();
            sel.iter().sum::<f64>() / sel.len() as f64
        };
        assert!(mean_energy(1e-4) > mean_energy(1e-2));
    }

    #[test]
    fn hoisted_field_generation_leaves_sweep_unchanged() {
        // Regression for the invariant hoist: the driver used to call
        // `ds.generate` inside every (compressor, eb) combo. Rebuild the
        // records the old way — regenerating the field per combo — and
        // require bitwise-identical output from the hoisted driver.
        let mut cfg = ExperimentConfig::quick();
        cfg.datasets = vec![Dataset::Nyx, Dataset::Hacc];
        let hoisted = run_compression_sweep(&cfg);

        let mut reference = Vec::new();
        for &comp in &cfg.compressors {
            for &ds in &cfg.datasets {
                for (i, &eb) in cfg.error_bounds.iter().enumerate() {
                    let field = ds.generate(cfg.scale, cfg.seed ^ 0xD5); // per-combo, as before
                    let job = run_compression_job(
                        &cfg,
                        comp,
                        ds,
                        &field,
                        eb,
                        cfg.combo_seed(comp, ds, i),
                    );
                    for &chip in &cfg.chips {
                        let machine = Machine::for_chip(chip);
                        let mut perf =
                            Perf::with_sigma(job.seed ^ (chip as u64) << 32, cfg.noise_sigma);
                        for f in machine.cpu.ladder() {
                            let stat = perf.measure(&machine, f, &job.profile, cfg.reps);
                            reference.push((f, stat.power_w, stat.energy_j, job.ratio));
                        }
                    }
                }
            }
        }
        assert_eq!(hoisted.len(), reference.len());
        for (h, r) in hoisted.iter().zip(&reference) {
            assert_eq!(h.f_ghz, r.0);
            assert_eq!(h.power_w, r.1);
            assert_eq!(h.energy_j, r.2);
            assert_eq!(h.ratio, r.3);
        }
    }

    #[test]
    fn json_roundtrip() {
        let mut cfg = ExperimentConfig::quick();
        cfg.datasets = vec![Dataset::Nyx];
        cfg.compressors = vec![Compressor::Sz];
        cfg.error_bounds = vec![1e-2];
        let res = run_full_sweep(&cfg);
        let json = res.to_json();
        let back: SweepResult = serde_json::from_str(&json).unwrap();
        assert_eq!(back.compression.len(), res.compression.len());
        assert_eq!(back.transit.len(), res.transit.len());
        assert_eq!(back.policy.len(), res.policy.len());
        assert_eq!(back.policy.last().map(|p| p.label.clone()),
                   res.policy.last().map(|p| p.label.clone()));
    }

    #[test]
    fn policy_sweep_covers_every_chip_and_adaptive_dominates() {
        let mut cfg = ExperimentConfig::quick();
        cfg.chips = vec![Chip::Broadwell, Chip::Skylake];
        let recs = run_policy_sweep(&cfg);
        // Per chip: 2 codecs × ladder points fixed arms + heuristic +
        // adaptive.
        let per_chip = |chip: Chip| recs.iter().filter(|r| r.chip == chip).count();
        let ladder = |chip: Chip| Machine::for_chip(chip).cpu.ladder_len();
        assert_eq!(per_chip(Chip::Broadwell), 2 * ladder(Chip::Broadwell) + 2);
        assert_eq!(per_chip(Chip::Skylake), 2 * ladder(Chip::Skylake) + 2);
        // The adaptive record dominates every fixed arm on its chip.
        for chip in [Chip::Broadwell, Chip::Skylake] {
            let adaptive = recs
                .iter()
                .find(|r| r.chip == chip && r.policy == "adaptive")
                .expect("adaptive record");
            for fixed in recs.iter().filter(|r| r.chip == chip && r.policy == "fixed") {
                assert!(
                    adaptive.dominates(fixed),
                    "{chip:?}: adaptive fails to dominate {}",
                    fixed.label
                );
            }
        }
    }
}
