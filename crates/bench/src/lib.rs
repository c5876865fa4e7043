#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # lcpio-bench — the paper's tables and figures, regenerated
//!
//! Each `cargo bench` target reproduces one artifact of the evaluation:
//!
//! | target | artifact |
//! |---|---|
//! | `table1_datasets` | Table I — datasets |
//! | `table2_hardware` | Table II — hardware |
//! | `table3_slices` | Table III — model slices |
//! | `table4_compression_models` | Table IV — compression power models + GF |
//! | `table5_transit_models` | Table V — transit power models + GF |
//! | `fig1_compression_power` | Figure 1 — compression scaled power |
//! | `fig2_compression_runtime` | Figure 2 — compression scaled runtime |
//! | `fig3_transit_power` | Figure 3 — transit scaled power |
//! | `fig4_transit_runtime` | Figure 4 — transit scaled runtime |
//! | `fig5_isabel_validation` | Figure 5 — Broadwell model vs ISABEL |
//! | `fig6_data_dump` | Figure 6 — 512 GB dump, base vs tuned |
//! | `eqn3_tuning_rule` | Eqn 3 + the §V-A3 savings numbers |
//! | `ablation_*` | design-choice ablations (DESIGN.md §5) |
//! | `ext_*` | extension studies of the model (DESIGN.md §6) |
//!
//! Paper-vs-measured comparisons for every artifact are recorded in
//! `EXPERIMENTS.md` at the repository root. No target here measures wall
//! time: timing is the repo benchmark under `benchmark/` and the
//! `BENCH_*.json` ledgers it writes.

use lcpio_core::experiment::{run_full_sweep, ExperimentConfig, SweepResult};

/// Run the standard paper-scale sweep used by most bench targets.
///
/// Honors `LCPIO_BENCH_SCALE` (element-count divisor, default 256) and
/// `LCPIO_BENCH_REPS` (default 10) so CI can trade fidelity for time.
pub fn paper_sweep() -> SweepResult {
    let mut cfg = ExperimentConfig::paper();
    if let Ok(s) = std::env::var("LCPIO_BENCH_SCALE") {
        if let Ok(v) = s.parse::<usize>() {
            cfg.scale = v.max(1);
        }
    }
    if let Ok(s) = std::env::var("LCPIO_BENCH_REPS") {
        if let Ok(v) = s.parse::<u32>() {
            cfg.reps = v.max(1);
        }
    }
    run_full_sweep(&cfg)
}

/// Print the standard bench banner.
pub fn banner(artifact: &str, paper_claim: &str) {
    println!("================================================================");
    println!("{artifact}");
    println!("paper: {paper_claim}");
    println!("================================================================");
}
