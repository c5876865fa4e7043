//! A long-running simulation with periodically compressed checkpoints —
//! the workflow the paper's energy story ultimately serves. The simulation
//! keeps its full clock; Eqn-3 tuning applies only during the dump phases.
//!
//! ```text
//! cargo run --release --example checkpoint_workflow
//! ```

use lcpio::core::checkpoint::{run_checkpoint_study, CheckpointConfig};

fn main() {
    println!("simulating a checkpointing job on the Broadwell node...\n");
    let cfg = CheckpointConfig::paper_like();
    let r = run_checkpoint_study(&cfg).expect("paper-like checkpoint config compresses");
    println!(
        "{} checkpoints x {:.0} GB, SZ at eb {:.0e} (ratio {:.2}x)\n",
        cfg.checkpoints,
        cfg.checkpoint_bytes / 1e9,
        cfg.error_bound,
        r.ratio
    );
    println!("                 {:>14} {:>14}", "base clock", "tuned dumps");
    println!(
        "simulation       {:>11.0} kJ {:>11.0} kJ",
        r.base.simulation_j / 1e3,
        r.tuned.simulation_j / 1e3
    );
    println!(
        "compression      {:>11.0} kJ {:>11.0} kJ",
        r.base.dump.cpu_j / 1e3,
        r.tuned.dump.cpu_j / 1e3
    );
    println!(
        "writing          {:>11.0} kJ {:>11.0} kJ",
        r.base.dump.io_j / 1e3,
        r.tuned.dump.io_j / 1e3
    );
    println!(
        "total            {:>11.0} kJ {:>11.0} kJ",
        r.base.total_j() / 1e3,
        r.tuned.total_j() / 1e3
    );
    println!(
        "\ndump phases are {:.1}% of job energy; tuning them saves {:.2}% of the whole job\nfor a {:.2}% runtime cost.",
        r.dump_share() * 100.0,
        r.savings() * 100.0,
        r.runtime_increase() * 100.0
    );
}
