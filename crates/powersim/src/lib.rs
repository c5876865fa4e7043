#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # lcpio-powersim — CPU power/DVFS/energy simulator
//!
//! The paper's measurements require CloudLab m510 (Broadwell) and c220g5
//! (Skylake) nodes with RAPL counters, `cpufreq-set` access, and an NFS
//! mount on 10 GbE — none of which exist in a development sandbox. This
//! crate models that test bench instead: energy comes from the model, not
//! from a counter, and a clock request is [`CpuSpec::snap`]ped onto the
//! P-state grid the way `cpufreq-set` picks the nearest supported state.
//!
//! * [`cpu`] — per-chip specifications with calibrated voltage–frequency
//!   curves (Broadwell's steady ramp vs Skylake's flat-then-knee, which
//!   drive the paper's fitted exponents of ≈5 vs ≈23);
//! * [`workload`] — frequency-independent work profiles (compute cycles,
//!   memory traffic, I/O bytes);
//! * [`energy`] — the three-phase runtime/energy model that produces the
//!   critical power slope;
//! * [`nfs`] — the single-core NFS write path over 10 GbE;
//! * [`perf`] — a `perf stat`-style harness with per-repetition Gaussian
//!   noise and 95% confidence intervals.
//!
//! ```
//! use lcpio_powersim::{Chip, Machine, Perf, WorkProfile};
//!
//! let machine = Machine::new(Chip::Broadwell.spec());
//! let job = WorkProfile { compute_cycles: 30e9, memory_bytes: 160e9, ..Default::default() };
//! let mut perf = Perf::new(42);
//! let fast = perf.measure(&machine, 2.0, &job, 10);
//! let slow = perf.measure(&machine, 0.8, &job, 10);
//! assert!(slow.power_w < fast.power_w);     // lower clock, lower power
//! assert!(slow.runtime_s > fast.runtime_s); // ... but longer runtime
//! ```

pub mod cpu;
pub mod energy;
pub mod multicore;
pub mod nfs;
pub mod perf;
pub mod workload;

pub use cpu::{Chip, CpuSpec, FrequencyLadder, VfCurve};
pub use energy::{simulate, Machine, Measurement};
pub use multicore::NodeSpec;
pub use nfs::NfsSpec;
pub use perf::{Perf, PerfStat, DEFAULT_NOISE_SIGMA};
pub use workload::WorkProfile;

#[cfg(test)]
mod tests {
    use super::*;

    /// End-to-end sanity: sweep the full ladder and confirm the macro
    /// behaviours the paper's Figures 1–4 rely on.
    #[test]
    fn full_ladder_sweep_has_paper_shape() {
        for chip in Chip::ALL {
            let machine = Machine::new(chip.spec());
            let job = WorkProfile { compute_cycles: 30e9, memory_bytes: 160e9, ..Default::default() };
            let mut perf = Perf::with_sigma(1, 0.0);
            let stats: Vec<PerfStat> = machine
                .cpu
                .ladder()
                .map(|f| perf.measure(&machine, f, &job, 1))
                .collect();
            // Power monotone nondecreasing in f; runtime monotone nonincreasing.
            for w in stats.windows(2) {
                assert!(w[1].power_w >= w[0].power_w - 1e-9, "{}", chip.name());
                assert!(w[1].runtime_s <= w[0].runtime_s + 1e-12, "{}", chip.name());
            }
            // Energy curve: minimum strictly inside the ladder would be
            // ideal, but at minimum the extremes must not both be optimal...
            let e_min = stats.iter().map(|s| s.energy_j).fold(f64::MAX, f64::min);
            let e_fmax = stats.last().unwrap().energy_j;
            assert!(e_min < e_fmax, "{}: lowering f must save energy", chip.name());
        }
    }

    /// The paper's Eqn-3 recommendation must save energy on compression
    /// for both chips and on Broadwell data writing; Skylake data writing
    /// is at worst energy-neutral (its runtime and power are both nearly
    /// stagnant — §V-A3).
    #[test]
    fn eqn3_tuning_saves_energy() {
        for chip in Chip::ALL {
            let machine = Machine::new(chip.spec());
            let fmax = machine.cpu.f_max_ghz;
            let comp = WorkProfile { compute_cycles: 30e9, memory_bytes: 160e9, ..Default::default() };
            let base = simulate(&machine, fmax, &comp);
            let tuned = simulate(&machine, machine.cpu.snap(0.875 * fmax), &comp);
            let savings = 1.0 - tuned.energy_j / base.energy_j;
            assert!(
                (0.05..0.25).contains(&savings),
                "{} compression savings {savings}",
                chip.name()
            );

            let write = machine.nfs.write_profile(8e9);
            let base = simulate(&machine, fmax, &write);
            let tuned = simulate(&machine, machine.cpu.snap(0.85 * fmax), &write);
            match chip {
                Chip::Broadwell => assert!(
                    tuned.energy_j < base.energy_j,
                    "Broadwell write tuning must save energy"
                ),
                Chip::Skylake | Chip::EpycLike => assert!(
                    tuned.energy_j < base.energy_j * 1.02,
                    "{} write tuning must be ~energy-neutral",
                    chip.name()
                ),
            }
        }
    }
}
