#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # lcpio-core — power modeling & DVFS tuning of lossy compressed I/O
//!
//! The paper's contribution, rebuilt as a library. Everything hangs off
//! five stages:
//!
//! 1. [`experiment`] — run the §IV sweeps: really compress synthetic
//!    SDRBench-like fields with SZ/ZFP at four error bounds, map the work
//!    onto the simulated Broadwell/Skylake machines ([`workmap`]), and
//!    measure power/runtime/energy across the DVFS ladder with 10 noisy
//!    repetitions per point.
//! 2. [`slicing`] + [`models`] — regress `P(f) = a·f^b + c` per slice,
//!    reproducing Tables IV and V with SSE/RMSE/R².
//! 3. [`characteristics`] — the scaled power/runtime curves of Figures 1–4
//!    with 95% confidence bands.
//! 4. [`tuning`] — Eqn 3 (`0.875·f_max` / `0.85·f_max`), rule evaluation,
//!    and the energy-optimal search.
//! 5. [`validation`] + [`datadump`] — the §VI use cases: the Broadwell
//!    model vs Hurricane-ISABEL (Figure 5) and the 512 GB NYX dump
//!    (Figure 6).
//!
//! ```no_run
//! use lcpio_core::experiment::{run_full_sweep, ExperimentConfig};
//! use lcpio_core::models::{compression_model_table, transit_model_table};
//! use lcpio_core::report::render_model_table;
//!
//! let sweep = run_full_sweep(&ExperimentConfig::paper());
//! let table4 = compression_model_table(&sweep.compression);
//! let table5 = transit_model_table(&sweep.transit);
//! println!("{}", render_model_table("TABLE IV", &table4));
//! println!("{}", render_model_table("TABLE V", &table5));
//! ```

pub mod characteristics;
pub mod checkpoint;
pub mod datadump;
pub mod error;
pub mod experiment;
pub mod generalization;
pub mod models;
pub mod par;
pub mod pareto;
pub mod pipeline;
pub mod policy;
pub mod readback;
pub mod records;
pub mod report;
pub mod slicing;
pub mod tuning;
pub mod validation;
pub mod workmap;

pub use error::{CoreError, PipelineError};
pub use pipeline::{PipelineConfig, RestartConfig, RestartOutcome, StreamOutcome};
pub use policy::{ParetoAdaptive, PolicyKind, PolicyRecord};
pub use experiment::{ExperimentConfig, SweepResult};
pub use records::{CompressionRecord, Compressor, TransitRecord};
pub use tuning::{TuningReport, TuningRule};
pub use workmap::CostModel;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::characteristics::*;
    use crate::models::*;

    /// One integration pass over the whole §IV–§VI pipeline at test scale.
    #[test]
    fn end_to_end_pipeline() {
        let cfg = ExperimentConfig::quick();
        let sweep = experiment::run_full_sweep(&cfg);

        let t4 = compression_model_table(&sweep.compression);
        let t5 = transit_model_table(&sweep.transit);
        assert_eq!(t4.len(), 5);
        assert_eq!(t5.len(), 3);

        let report = tuning::evaluate_rule(
            TuningRule::PAPER,
            &compression_power_curves(&sweep.compression),
            &compression_runtime_curves(&sweep.compression),
            &transit_power_curves(&sweep.transit),
            &transit_runtime_curves(&sweep.transit),
        );
        assert!(report.combined_savings() > 0.05);

        let (rows, summary) = datadump::run_data_dump(&datadump::DataDumpConfig::quick())
            .expect("quick dump runs");
        assert!(!rows.is_empty());
        assert!(summary.mean_savings > 0.0);
    }
}
