//! Energy–runtime trade-off analysis (extension).
//!
//! The paper frames tuning as a user trade-off ("Would a user benefit from
//! faster compression? or less energy-consumed?" — §V-A3) but reports only
//! the fixed Eqn-3 point. This module makes the whole trade-off space a
//! first-class object: per-frequency (runtime, energy) points, the Pareto
//! front, and the classic scalarizations — minimum energy and minimum
//! energy-delay product (EDP).

use crate::pipeline::TwoPhaseWork;
use lcpio_powersim::Machine;
use serde::{Deserialize, Serialize};

/// One operating point on the DVFS ladder.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FrequencyPoint {
    /// Core clock (GHz).
    pub f_ghz: f64,
    /// Average power (W).
    pub power_w: f64,
    /// Runtime (s).
    pub runtime_s: f64,
    /// Energy (J).
    pub energy_j: f64,
}

impl FrequencyPoint {
    /// Energy-delay product (J·s).
    pub fn edp(&self) -> f64 {
        self.energy_j * self.runtime_s
    }
}

/// Price a two-phase job at every ladder frequency, both phases pinned
/// to the same clock (a job with no I/O phase is the single-profile sweep).
pub fn frequency_profile(machine: &Machine, job: &TwoPhaseWork) -> Vec<FrequencyPoint> {
    machine
        .cpu
        .ladder()
        .map(|f| {
            let p = job.price(machine, f, f);
            let (runtime_s, energy_j) = (p.sequential_s, p.total_j());
            let power_w = if runtime_s > 0.0 { energy_j / runtime_s } else { 0.0 };
            FrequencyPoint { f_ghz: f, power_w, runtime_s, energy_j }
        })
        .collect()
}

/// The (runtime, energy) Pareto front: points not dominated by any other
/// (strictly better in one dimension, no worse in the other). Returned in
/// increasing runtime order.
pub fn pareto_front(points: &[FrequencyPoint]) -> Vec<FrequencyPoint> {
    let mut sorted: Vec<FrequencyPoint> = points.to_vec();
    sorted.sort_by(|a, b| {
        a.runtime_s
            .partial_cmp(&b.runtime_s)
            .expect("runtimes are finite")
            .then(a.energy_j.partial_cmp(&b.energy_j).expect("energies are finite"))
    });
    let mut front: Vec<FrequencyPoint> = Vec::new();
    let mut best_energy = f64::INFINITY;
    for p in sorted {
        if p.energy_j < best_energy - 1e-12 {
            best_energy = p.energy_j;
            front.push(p);
        }
    }
    front
}

/// Operating point with minimum energy.
pub fn energy_optimal(points: &[FrequencyPoint]) -> Option<&FrequencyPoint> {
    points
        .iter()
        .min_by(|a, b| a.energy_j.partial_cmp(&b.energy_j).expect("finite"))
}

/// Operating point with minimum energy-delay product.
pub fn edp_optimal(points: &[FrequencyPoint]) -> Option<&FrequencyPoint> {
    points.iter().min_by(|a, b| a.edp().partial_cmp(&b.edp()).expect("finite"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcpio_powersim::{Chip, WorkProfile};

    fn comp_job() -> TwoPhaseWork {
        TwoPhaseWork {
            cpu: WorkProfile { compute_cycles: 30e9, memory_bytes: 160e9, ..Default::default() },
            io: WorkProfile::default(),
        }
    }

    #[test]
    fn profile_spans_ladder() {
        let m = Machine::for_chip(Chip::Broadwell);
        let pts = frequency_profile(&m, &comp_job());
        assert_eq!(pts.len(), 25);
        assert!(pts.iter().all(|p| p.energy_j > 0.0 && p.runtime_s > 0.0));
    }

    #[test]
    fn front_is_nondominated_and_sorted() {
        let m = Machine::for_chip(Chip::Broadwell);
        let pts = frequency_profile(&m, &comp_job());
        let front = pareto_front(&pts);
        assert!(!front.is_empty());
        for w in front.windows(2) {
            assert!(w[1].runtime_s > w[0].runtime_s);
            assert!(w[1].energy_j < w[0].energy_j);
        }
        // Every ladder point is dominated by or equal to some front point.
        for p in &pts {
            assert!(front
                .iter()
                .any(|f| f.runtime_s <= p.runtime_s + 1e-12 && f.energy_j <= p.energy_j + 1e-9));
        }
    }

    #[test]
    fn energy_optimum_is_below_fmax_on_knee_chips() {
        // The knee makes f_max energy-suboptimal: the Eqn-3 story.
        for chip in Chip::ALL {
            let m = Machine::for_chip(chip);
            let pts = frequency_profile(&m, &comp_job());
            let opt = energy_optimal(&pts).expect("nonempty ladder");
            assert!(
                opt.f_ghz < m.cpu.f_max_ghz,
                "{}: optimum at f_max",
                chip.name()
            );
            assert!(opt.energy_j < pts.last().expect("nonempty").energy_j);
        }
    }

    #[test]
    fn edp_optimum_is_at_or_above_energy_optimum_frequency() {
        // EDP penalizes runtime, so it never picks a lower clock than the
        // pure-energy optimum.
        let m = Machine::for_chip(Chip::Broadwell);
        let pts = frequency_profile(&m, &comp_job());
        let e = energy_optimal(&pts).expect("nonempty");
        let edp = edp_optimal(&pts).expect("nonempty");
        assert!(edp.f_ghz >= e.f_ghz - 1e-12, "edp {} vs energy {}", edp.f_ghz, e.f_ghz);
    }

    #[test]
    fn generalization_chip_also_benefits_from_tuning() {
        // The paper's future-work question: do the trends hold on a CPU
        // outside the regression set?
        let m = Machine::for_chip(Chip::EpycLike);
        let pts = frequency_profile(&m, &comp_job());
        let opt = energy_optimal(&pts).expect("nonempty");
        let at_fmax = pts.last().expect("nonempty");
        assert!(opt.f_ghz < m.cpu.f_max_ghz);
        let savings = 1.0 - opt.energy_j / at_fmax.energy_j;
        assert!(savings > 0.02, "EPYC-like savings {savings}");
    }

    #[test]
    fn empty_points_are_handled() {
        assert!(energy_optimal(&[]).is_none());
        assert!(edp_optimal(&[]).is_none());
        assert!(pareto_front(&[]).is_empty());
    }
}
