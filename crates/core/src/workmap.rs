//! Mapping real compressor executions onto simulated work profiles.
//!
//! The experiments *actually run* the SZ and ZFP implementations on
//! (scaled-down) synthetic fields; what the hardware simulator needs is a
//! frequency-independent description of that work. [`CostModel`] converts
//! the compressors' operation counters into compute cycles and effective
//! memory-stall traffic, then scales the profile to the full-size dataset
//! the sample stands in for.
//!
//! Cycle costs are per-operation estimates for a modern out-of-order core;
//! the memory-stall factor is calibrated so compression is ≈52%
//! compute-bound at f_max — the split implied by the paper's observation
//! that a 12.5% clock reduction costs only ≈7.5% runtime (§V-A3). The
//! `ablation_cost_model` bench quantifies how sensitive the headline
//! results are to these constants.

use crate::error::CoreError;
use crate::records::Compressor;
use lcpio_codec::{BoundSpec, CodecStats};
use lcpio_datagen::{nyx, Field};
use lcpio_powersim::WorkProfile;
use serde::{Deserialize, Serialize};

/// The NYX `velocity_x` sample cube the §VI studies characterise their
/// work on: generated once, really compressed per (codec, bound).
pub struct NyxSample(Field);

impl NyxSample {
    /// The `side`³ cube for `seed`.
    pub fn new(side: usize, seed: u64) -> Self {
        NyxSample(nyx::velocity_x(side, seed))
    }

    /// The cube's elements.
    pub fn data(&self) -> &[f32] {
        &self.0.data
    }

    /// Compress the cube and return the operation counts the cost model
    /// maps to a work profile: the chunked container `threads` workers
    /// write (0 = all cores), or the serial stream for `None`.
    ///
    /// Fails with [`CoreError`] when the codec rejects the bound (a
    /// non-finite one, say).
    pub fn compress(
        &self,
        compressor: Compressor,
        bound: BoundSpec,
        threads: Option<usize>,
    ) -> Result<CodecStats, CoreError> {
        let (codec, dims) = (compressor.codec(), self.0.dims());
        let out = match threads {
            Some(t) => codec.compress_chunked(&self.0.data, dims.extents(), bound, t)?,
            None => codec.compress(&self.0.data, dims.extents(), bound)?,
        };
        Ok(out.stats)
    }
}

/// Tunable cost constants for the stats → work-profile mapping.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// SZ cycles per element (prediction + quantization + bookkeeping).
    pub sz_cycles_per_element: f64,
    /// Extra SZ cycles per unpredictable element (literal escape path).
    pub sz_cycles_per_literal: f64,
    /// SZ cycles per Huffman-coded output bit.
    pub sz_cycles_per_huffman_bit: f64,
    /// ZFP cycles per element (block transform + fixed point).
    pub zfp_cycles_per_element: f64,
    /// ZFP cycles per embedded-coded payload bit.
    pub zfp_cycles_per_payload_bit: f64,
    /// Effective memory-stall traffic per compute cycle (bytes/cycle).
    /// Covers cache misses and DRAM latency, not just streaming loads.
    pub stall_bytes_per_cycle: f64,
    /// Dynamic-power intensity of compression kernels.
    pub compression_intensity: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            sz_cycles_per_element: 24.0,
            sz_cycles_per_literal: 40.0,
            sz_cycles_per_huffman_bit: 0.5,
            zfp_cycles_per_element: 20.0,
            zfp_cycles_per_payload_bit: 0.6,
            stall_bytes_per_cycle: 5.4,
            compression_intensity: 1.0,
        }
    }
}

impl CostModel {
    /// Profile for a compression run of either codec, from the
    /// codec-neutral [`CodecStats`] the registry adapters report,
    /// extrapolated by `scale_factor` (full-size bytes / sample bytes).
    ///
    /// SZ literals arrive as `literal_elements` and Huffman bits as
    /// `coded_bits`; ZFP payload bits arrive as `coded_bits`.
    pub fn compression_profile(
        &self,
        compressor: Compressor,
        stats: &CodecStats,
        scale_factor: f64,
    ) -> WorkProfile {
        let cycles = match compressor {
            Compressor::Sz => {
                self.sz_cycles_per_element * stats.elements as f64
                    + self.sz_cycles_per_literal * stats.literal_elements as f64
                    + self.sz_cycles_per_huffman_bit * stats.coded_bits as f64
            }
            Compressor::Zfp => {
                self.zfp_cycles_per_element * stats.elements as f64
                    + self.zfp_cycles_per_payload_bit * stats.coded_bits as f64
            }
        };
        self.finish(cycles, scale_factor)
    }

    /// Decompression is cheaper than compression for both codecs (no
    /// predictor search / no symbol histogramming); model it at 70% of
    /// [`CostModel::compression_profile`].
    pub fn decompression_profile(
        &self,
        compressor: Compressor,
        stats: &CodecStats,
        scale_factor: f64,
    ) -> WorkProfile {
        self.compression_profile(compressor, stats, scale_factor).scaled(0.7)
    }

    fn finish(&self, cycles: f64, scale_factor: f64) -> WorkProfile {
        WorkProfile {
            compute_cycles: cycles,
            memory_bytes: cycles * self.stall_bytes_per_cycle,
            io_bytes: 0.0,
            compute_intensity: self.compression_intensity,
        }
        .scaled(scale_factor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcpio_powersim::{simulate, Chip, Machine};

    fn sz_stats(elements: u64) -> CodecStats {
        CodecStats {
            elements,
            input_bytes: elements * 4,
            output_bytes: elements,
            literal_elements: elements * 5 / 100,
            coded_bits: elements * 4,
        }
    }

    fn sz(cm: &CostModel, stats: &CodecStats, scale: f64) -> WorkProfile {
        cm.compression_profile(Compressor::Sz, stats, scale)
    }

    #[test]
    fn sz_cycles_are_in_realistic_range() {
        let p = sz(&CostModel::default(), &sz_stats(1_000_000), 1.0);
        let cycles_per_elem = p.compute_cycles / 1e6;
        // Real single-core SZ runs at roughly 100–400 MB/s at 2 GHz,
        // i.e. ~20–80 cycles per element.
        assert!((20.0..80.0).contains(&cycles_per_elem), "{cycles_per_elem}");
    }

    #[test]
    fn compute_fraction_matches_paper_calibration() {
        let p = sz(&CostModel::default(), &sz_stats(1_000_000), 1.0);
        let m = Machine::for_chip(Chip::Broadwell);
        let meas = simulate(&m, 2.0, &p);
        let frac = meas.compute_s / meas.runtime_s;
        assert!((0.45..0.60).contains(&frac), "compute fraction {frac}");
    }

    #[test]
    fn scale_factor_extrapolates_linearly() {
        let cm = CostModel::default();
        for comp in Compressor::ALL {
            let one = cm.compression_profile(comp, &sz_stats(1000), 1.0);
            let big = cm.compression_profile(comp, &sz_stats(1000), 512.0);
            assert!((big.compute_cycles / one.compute_cycles - 512.0).abs() < 1e-9);
            assert!((big.memory_bytes / one.memory_bytes - 512.0).abs() < 1e-9);
        }
    }

    #[test]
    fn harder_data_costs_more_cycles() {
        let cm = CostModel::default();
        let easy = sz_stats(1000);
        let hard = CodecStats { literal_elements: 500, coded_bits: 12_000, ..easy };
        assert!(sz(&cm, &hard, 1.0).compute_cycles > sz(&cm, &easy, 1.0).compute_cycles);
    }

    #[test]
    fn zfp_cycles_track_payload_bits() {
        let cm = CostModel::default();
        let zfp = |coded_bits| {
            let stats = CodecStats { elements: 1000, coded_bits, ..Default::default() };
            cm.compression_profile(Compressor::Zfp, &stats, 1.0).compute_cycles
        };
        assert!(zfp(32_000) > zfp(4000));
    }

    #[test]
    fn decompression_is_cheaper() {
        let cm = CostModel::default();
        let s = sz_stats(10_000);
        for comp in Compressor::ALL {
            let enc = cm.compression_profile(comp, &s, 37.0);
            let dec = cm.decompression_profile(comp, &s, 37.0);
            assert_eq!(dec.compute_cycles, enc.compute_cycles * 0.7);
            assert!(dec.compute_cycles < enc.compute_cycles);
        }
    }

    #[test]
    fn nyx_sample_reports_the_cube_it_compressed() {
        let sample = NyxSample::new(16, 3);
        assert_eq!(sample.data().len(), 16 * 16 * 16);
        for threads in [None, Some(1)] {
            let stats = sample
                .compress(Compressor::Sz, BoundSpec::Absolute(1e-3), threads)
                .expect("NYX samples compress");
            assert_eq!(stats.input_bytes, 16 * 16 * 16 * 4);
            assert!(stats.ratio() > 1.0);
        }
        let err = sample.compress(Compressor::Sz, BoundSpec::Absolute(f64::NAN), None);
        assert!(err.is_err(), "a non-finite bound is a typed error, not a panic");
    }
}
