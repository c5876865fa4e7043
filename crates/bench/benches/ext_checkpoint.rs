//! Extension: whole-job checkpoint/restart energy with dump-phase tuning
//! (the workflow behind the paper's related work, Morán et al.).

use lcpio_bench::banner;
use lcpio_core::checkpoint::{run_checkpoint_study, CheckpointConfig};

fn main() {
    banner(
        "EXTENSION — checkpoint/restart workflow with Eqn-3 dump tuning",
        "simulation keeps f_max; only compress+write phases are tuned",
    );
    let cfg = CheckpointConfig::paper_like();
    let r = run_checkpoint_study(&cfg).expect("paper-like checkpoint config compresses");
    println!(
        "job: {} checkpoints x {:.0} GB (SZ @ {:.0e}), ratio {:.2}x",
        cfg.checkpoints,
        cfg.checkpoint_bytes / 1e9,
        cfg.error_bound,
        r.ratio
    );
    println!(
        "base clock: sim {:.0} kJ + compress {:.0} kJ + write {:.0} kJ = {:.0} kJ over {:.0} s",
        r.base.simulation_j / 1e3,
        r.base.dump.cpu_j / 1e3,
        r.base.dump.io_j / 1e3,
        r.base.total_j() / 1e3,
        r.base.runtime_s
    );
    println!(
        "tuned dumps: total {:.0} kJ over {:.0} s",
        r.tuned.total_j() / 1e3,
        r.tuned.runtime_s
    );
    println!(
        "dump share of job energy: {:.1}%   whole-job savings: {:.2}%   runtime cost: {:.2}% \
         ({:.2}% with overlapped dumps)",
        r.dump_share() * 100.0,
        r.savings() * 100.0,
        r.runtime_increase() * 100.0,
        r.overlapped_runtime_increase() * 100.0
    );
}
