//! Work profiles: the interface between real algorithm executions and the
//! simulated hardware.
//!
//! A [`WorkProfile`] abstracts *what a job does* — how many
//! frequency-scaled compute cycles it needs, how many bytes it streams
//! through memory, and how many bytes it pushes over the I/O path — without
//! saying anything about *which CPU at which frequency* runs it. The energy
//! model combines a profile with a [`crate::CpuSpec`] and a frequency to
//! produce runtime and energy.
//!
//! Profiles are additive (run one job after another) and scalable (the same
//! job on `k×` the data), which is how a compression of a scaled-down
//! sample field extrapolates to the paper's full-size datasets.

use serde::{Deserialize, Serialize};

/// Resource demands of one job, independent of CPU and frequency.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorkProfile {
    /// CPU work in cycles; executes at the core clock.
    pub compute_cycles: f64,
    /// Bytes streamed through the memory subsystem (frequency-invariant).
    pub memory_bytes: f64,
    /// Bytes moved over the network/storage path (frequency-invariant).
    pub io_bytes: f64,
    /// How hard the compute phase drives the core's switching logic,
    /// scaling dynamic power: ≈1.0 for dense compression kernels, lower
    /// for copy/syscall paths (the paper's data writing draws visibly less
    /// dynamic power than compression — Figure 3 vs Figure 1).
    pub compute_intensity: f64,
}

impl Default for WorkProfile {
    fn default() -> Self {
        WorkProfile {
            compute_cycles: 0.0,
            memory_bytes: 0.0,
            io_bytes: 0.0,
            compute_intensity: 1.0,
        }
    }
}

impl WorkProfile {
    /// A pure-compute job at full intensity.
    pub fn compute(cycles: f64) -> Self {
        WorkProfile { compute_cycles: cycles, ..Default::default() }
    }

    /// Sequential composition: this job followed by `other`. The combined
    /// intensity is the cycle-weighted average.
    pub fn then(self, other: WorkProfile) -> Self {
        let cycles = self.compute_cycles + other.compute_cycles;
        let intensity = if cycles > 0.0 {
            (self.compute_intensity * self.compute_cycles
                + other.compute_intensity * other.compute_cycles)
                / cycles
        } else {
            1.0
        };
        WorkProfile {
            compute_cycles: cycles,
            memory_bytes: self.memory_bytes + other.memory_bytes,
            io_bytes: self.io_bytes + other.io_bytes,
            compute_intensity: intensity,
        }
    }

    /// The same job on `k×` the data (k may be fractional).
    pub fn scaled(self, k: f64) -> Self {
        WorkProfile {
            compute_cycles: self.compute_cycles * k,
            memory_bytes: self.memory_bytes * k,
            io_bytes: self.io_bytes * k,
            compute_intensity: self.compute_intensity,
        }
    }

    /// True when the profile demands no work at all.
    pub fn is_empty(&self) -> bool {
        self.compute_cycles == 0.0 && self.memory_bytes == 0.0 && self.io_bytes == 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn then_is_additive() {
        let a = WorkProfile { compute_cycles: 10.0, memory_bytes: 20.0, io_bytes: 30.0, ..Default::default() };
        let b = WorkProfile { compute_cycles: 1.0, memory_bytes: 2.0, io_bytes: 3.0, ..Default::default() };
        let c = a.then(b);
        assert_eq!(c.compute_cycles, 11.0);
        assert_eq!(c.memory_bytes, 22.0);
        assert_eq!(c.io_bytes, 33.0);
    }

    #[test]
    fn then_averages_intensity_by_cycles() {
        let a = WorkProfile { compute_cycles: 30.0, compute_intensity: 1.0, ..Default::default() };
        let b = WorkProfile { compute_cycles: 10.0, compute_intensity: 0.2, ..Default::default() };
        let c = a.then(b);
        assert!((c.compute_intensity - 0.8).abs() < 1e-12);
        // Two empty jobs keep the neutral intensity.
        assert_eq!(WorkProfile::default().then(WorkProfile::default()).compute_intensity, 1.0);
    }

    #[test]
    fn scaled_multiplies_everything_but_intensity() {
        let a = WorkProfile {
            compute_cycles: 10.0,
            memory_bytes: 20.0,
            io_bytes: 30.0,
            compute_intensity: 0.5,
        };
        let s = a.scaled(2.5);
        assert_eq!(s.compute_cycles, 25.0);
        assert_eq!(s.memory_bytes, 50.0);
        assert_eq!(s.io_bytes, 75.0);
        assert_eq!(s.compute_intensity, 0.5);
    }

    #[test]
    fn empty_detection() {
        assert!(WorkProfile::default().is_empty());
        assert!(!WorkProfile::compute(1.0).is_empty());
    }
}
