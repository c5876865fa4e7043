//! Compression statistics and work counters.
//!
//! Besides the usual ratio reporting, the stats double as the *work
//! profile* source for the power simulator: element counts, escape counts,
//! and entropy-coding volume determine how many frequency-scaled compute
//! cycles and how much memory traffic a compression job represents.

use serde::{Deserialize, Serialize};

/// Counters describing one compression run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct CompressionStats {
    /// Number of input elements.
    pub elements: u64,
    /// Input size in bytes (`elements * 4`).
    pub input_bytes: u64,
    /// Final compressed size in bytes (after lossless stage, with header).
    pub output_bytes: u64,
    /// Elements whose residual fit in the quantizer range.
    pub predictable: u64,
    /// Elements stored as IEEE literals.
    pub unpredictable: u64,
    /// Distinct symbols in the Huffman table.
    pub huffman_table_entries: u64,
    /// Bits emitted by the Huffman coder.
    pub huffman_bits: u64,
}

impl CompressionStats {
    /// Compression ratio `input/output` (0 if output empty).
    pub fn ratio(&self) -> f64 {
        if self.output_bytes == 0 {
            0.0
        } else {
            self.input_bytes as f64 / self.output_bytes as f64
        }
    }

    /// Fraction of elements that were predictable.
    pub fn hit_rate(&self) -> f64 {
        if self.elements == 0 {
            0.0
        } else {
            self.predictable as f64 / self.elements as f64
        }
    }

    /// Bits per element in the output.
    pub fn bits_per_element(&self) -> f64 {
        if self.elements == 0 {
            0.0
        } else {
            self.output_bytes as f64 * 8.0 / self.elements as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_and_rates() {
        let s = CompressionStats {
            elements: 100,
            input_bytes: 400,
            output_bytes: 100,
            predictable: 90,
            unpredictable: 10,
            ..Default::default()
        };
        assert_eq!(s.ratio(), 4.0);
        assert!((s.hit_rate() - 0.9).abs() < 1e-12);
        assert_eq!(s.bits_per_element(), 8.0);
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = CompressionStats::default();
        assert_eq!(s.ratio(), 0.0);
        assert_eq!(s.hit_rate(), 0.0);
        assert_eq!(s.bits_per_element(), 0.0);
    }
}
