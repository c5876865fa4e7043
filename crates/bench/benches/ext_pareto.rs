//! Extension: the full energy–runtime trade-off space behind Eqn 3 —
//! Pareto front, energy-optimal and EDP-optimal operating points per chip.

use lcpio_bench::banner;
use lcpio_core::pareto::{edp_optimal, energy_optimal, frequency_profile, pareto_front};
use lcpio_core::pipeline::TwoPhaseWork;
use lcpio_powersim::{Chip, Machine, WorkProfile};

fn main() {
    banner(
        "EXTENSION — energy/runtime Pareto analysis of the compression job",
        "the paper reports one point (Eqn 3); this prints the whole frontier",
    );
    // The compression phase alone: no bytes reach the mount.
    let job = TwoPhaseWork {
        cpu: WorkProfile { compute_cycles: 30e9, memory_bytes: 160e9, ..Default::default() },
        io: WorkProfile::default(),
    };
    for chip in [Chip::Broadwell, Chip::Skylake, Chip::EpycLike] {
        let m = Machine::for_chip(chip);
        let pts = frequency_profile(&m, &job);
        let front = pareto_front(&pts);
        let e_opt = energy_optimal(&pts).expect("ladder nonempty");
        let edp_opt = edp_optimal(&pts).expect("ladder nonempty");
        println!("\n{} (f_max {:.2} GHz):", chip.name(), m.cpu.f_max_ghz);
        println!("  pareto front ({} of {} ladder points):", front.len(), pts.len());
        for p in &front {
            println!(
                "    {:>5.2} GHz  {:>7.2} s  {:>8.1} J  (EDP {:>9.0})",
                p.f_ghz, p.runtime_s, p.energy_j, p.edp()
            );
        }
        println!(
            "  energy-optimal: {:.2} GHz ({:.3}·f_max)   EDP-optimal: {:.2} GHz ({:.3}·f_max)",
            e_opt.f_ghz,
            e_opt.f_ghz / m.cpu.f_max_ghz,
            edp_opt.f_ghz,
            edp_opt.f_ghz / m.cpu.f_max_ghz
        );
    }
    println!("\n(paper Eqn 3 uses 0.875·f_max for compression — compare the ratios above)");
}
