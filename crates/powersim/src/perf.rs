//! `perf stat`-style measurement harness.
//!
//! The paper samples total energy and runtime with Linux `perf` and repeats
//! each configuration 10 times, averaging the results. [`Perf`] mirrors
//! that: it runs the energy model, injects multiplicative Gaussian
//! measurement noise per repetition (RAPL reads, scheduling jitter, DRAM
//! traffic variation), and reports means with a 95% confidence interval —
//! the shaded bands of Figures 1–4.

use crate::energy::{simulate, Machine, Measurement};
use crate::workload::WorkProfile;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Default relative noise (σ) on energy and runtime per repetition.
pub const DEFAULT_NOISE_SIGMA: f64 = 0.015;

/// Aggregated statistics over the repetitions of one configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PerfStat {
    /// Core clock used (GHz).
    pub f_ghz: f64,
    /// Number of repetitions.
    pub reps: u32,
    /// Mean energy (J).
    pub energy_j: f64,
    /// Mean runtime (s).
    pub runtime_s: f64,
    /// Mean average power (W).
    pub power_w: f64,
    /// Sample standard deviation of power (W).
    pub power_sd_w: f64,
    /// Half-width of the 95% confidence interval on mean power (W).
    pub power_ci95_w: f64,
}

/// The measurement harness.
#[derive(Debug, Clone)]
pub struct Perf {
    rng: SmallRng,
    sigma: f64,
}

impl Perf {
    /// New harness with the default noise level.
    pub fn new(seed: u64) -> Self {
        Self::with_sigma(seed, DEFAULT_NOISE_SIGMA)
    }

    /// New harness with an explicit noise σ (0 disables noise).
    pub fn with_sigma(seed: u64, sigma: f64) -> Self {
        assert!((0.0..0.5).contains(&sigma), "noise sigma out of range");
        Perf { rng: SmallRng::seed_from_u64(seed), sigma }
    }

    /// Standard-normal sample via Box–Muller.
    fn gauss(&mut self) -> f64 {
        let u1: f64 = self.rng.gen::<f64>().max(1e-12);
        let u2: f64 = self.rng.gen();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// One noisy repetition.
    fn run_once(&mut self, machine: &Machine, f_ghz: f64, profile: &WorkProfile) -> Measurement {
        let ideal = simulate(machine, f_ghz, profile);
        let e_noise = 1.0 + self.sigma * self.gauss();
        let t_noise = 1.0 + self.sigma * self.gauss();
        let energy_j = ideal.energy_j * e_noise.max(0.1);
        let runtime_s = ideal.runtime_s * t_noise.max(0.1);
        Measurement {
            energy_j,
            runtime_s,
            avg_power_w: if runtime_s > 0.0 { energy_j / runtime_s } else { 0.0 },
            ..ideal
        }
    }

    /// Measure `profile` at `f_ghz`, repeated `reps` times (the paper uses
    /// 10), returning averaged statistics.
    pub fn measure(
        &mut self,
        machine: &Machine,
        f_ghz: f64,
        profile: &WorkProfile,
        reps: u32,
    ) -> PerfStat {
        assert!(reps >= 1);
        let mut energies = Vec::with_capacity(reps as usize);
        let mut runtimes = Vec::with_capacity(reps as usize);
        let mut powers = Vec::with_capacity(reps as usize);
        for _ in 0..reps {
            let m = self.run_once(machine, f_ghz, profile);
            energies.push(m.energy_j);
            runtimes.push(m.runtime_s);
            powers.push(m.avg_power_w);
        }
        let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
        let p_mean = mean(&powers);
        let var = if powers.len() > 1 {
            powers.iter().map(|p| (p - p_mean).powi(2)).sum::<f64>() / (powers.len() - 1) as f64
        } else {
            0.0
        };
        let sd = var.sqrt();
        PerfStat {
            f_ghz,
            reps,
            energy_j: mean(&energies),
            runtime_s: mean(&runtimes),
            power_w: p_mean,
            power_sd_w: sd,
            power_ci95_w: 1.96 * sd / (reps as f64).sqrt(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::Chip;

    fn profile() -> WorkProfile {
        WorkProfile { compute_cycles: 10e9, memory_bytes: 50e9, ..Default::default() }
    }

    #[test]
    fn noiseless_measurement_matches_model() {
        let m = Machine::new(Chip::Broadwell.spec());
        let mut perf = Perf::with_sigma(1, 0.0);
        let stat = perf.measure(&m, 1.5, &profile(), 3);
        let ideal = simulate(&m, 1.5, &profile());
        assert!((stat.energy_j - ideal.energy_j).abs() < 1e-9);
        assert!((stat.power_w - ideal.avg_power_w).abs() < 1e-9);
        assert_eq!(stat.power_sd_w, 0.0);
    }

    #[test]
    fn noise_averages_out_with_reps() {
        let m = Machine::new(Chip::Skylake.spec());
        let ideal = simulate(&m, 2.0, &profile()).avg_power_w;
        let mut perf = Perf::new(42);
        let stat = perf.measure(&m, 2.0, &profile(), 50);
        assert!((stat.power_w / ideal - 1.0).abs() < 0.02, "mean {} vs {}", stat.power_w, ideal);
        assert!(stat.power_ci95_w > 0.0);
    }

    #[test]
    fn measurements_are_reproducible_per_seed() {
        let m = Machine::new(Chip::Broadwell.spec());
        let a = Perf::new(7).measure(&m, 1.0, &profile(), 10);
        let b = Perf::new(7).measure(&m, 1.0, &profile(), 10);
        assert_eq!(a, b);
        let c = Perf::new(8).measure(&m, 1.0, &profile(), 10);
        assert_ne!(a.energy_j, c.energy_j);
    }

    #[test]
    #[should_panic(expected = "noise sigma out of range")]
    fn absurd_sigma_rejected() {
        let _ = Perf::with_sigma(0, 0.9);
    }
}
