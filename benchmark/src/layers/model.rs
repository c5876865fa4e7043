//! `model` layer probes: the paper's power-model arithmetic
//! (`core::{experiment, models, tuning, datadump}`, `fit`, `powersim`).
//! It moves no timed workload; its values are recorded so that any change
//! can show the paper's numbers held. The configurations carry their own
//! seeds, so these values do not depend on `--seed`.

use super::{Inputs, Values};
use lcpio_core::characteristics::{
    compression_power_curves, compression_runtime_curves, transit_power_curves,
    transit_runtime_curves,
};
use lcpio_core::datadump::{run_data_dump, DataDumpConfig};
use lcpio_core::experiment::{run_compression_sweep, run_transit_sweep, ExperimentConfig};
use lcpio_core::models::{compression_model_table, row, transit_model_table};
use lcpio_core::tuning::{evaluate_rule, TuningRule};
use lcpio_fit::powerlaw::fit_power_law;
use lcpio_powersim::{simulate, Chip, Machine, WorkProfile};
use std::hint::black_box;

pub fn probe(inp: &Inputs) -> Result<Values, String> {
    let t = &inp.timer;
    let mut v = Values::new();

    let cfg = ExperimentConfig {
        scale: 4096,
        threads: 2,
        ..ExperimentConfig::paper()
    };
    let mut compression = Vec::new();
    v.push((
        "model.compression_sweep_ms",
        t.median_s(|| compression = run_compression_sweep(black_box(&cfg))) * 1e3,
    ));
    let transit = run_transit_sweep(&cfg);
    let fit_s = t.median_s(|| {
        (
            compression_model_table(black_box(&compression)),
            transit_model_table(&transit),
        )
    });
    v.push(("model.fit_tables_ms", fit_s * 1e3));

    let table = compression_model_table(&compression);
    let fit_of = |name: &str| {
        row(&table, name)
            .map(|r| r.fit)
            .ok_or(format!("Table IV has no `{name}` row"))
    };
    v.push(("model.table4_broadwell_b", fit_of("Broadwell")?.b));
    v.push(("model.table4_skylake_b", fit_of("Skylake")?.b));
    v.push(("model.table4_total_r2", fit_of("Total")?.gof.r2));

    let report = evaluate_rule(
        TuningRule::PAPER,
        &compression_power_curves(&compression),
        &compression_runtime_curves(&compression),
        &transit_power_curves(&transit),
        &transit_runtime_curves(&transit),
    );
    v.push(("model.eqn3_combined_savings", report.combined_savings()));
    v.push((
        "model.eqn3_runtime_increase",
        report.combined_runtime_increase(),
    ));

    let dump_cfg = DataDumpConfig {
        sample_side: 32,
        threads: 1,
        ..DataDumpConfig::paper()
    };
    let mut dump = None;
    v.push((
        "model.dump_ms",
        t.median_s(|| dump = Some(run_data_dump(black_box(&dump_cfg)))) * 1e3,
    ));
    let (_, summary) = dump
        .expect("timed at least once")
        .map_err(|e| e.to_string())?;
    v.push(("model.fig6_mean_saved_j", summary.mean_saved_j));
    v.push(("model.fig6_mean_savings", summary.mean_savings));

    // One frequency sweep of one Broadwell job, power scaled by its largest.
    let group: Vec<_> = compression
        .iter()
        .filter(|r| {
            let first = &compression[0];
            r.chip == Chip::Broadwell
                && (r.compressor, r.dataset) == (first.compressor, first.dataset)
                && r.error_bound == first.error_bound
        })
        .collect();
    let top = group.iter().map(|r| r.power_w).fold(f64::MIN, f64::max);
    let xs: Vec<f64> = group.iter().map(|r| r.f_ghz).collect();
    let ys: Vec<f64> = group.iter().map(|r| r.power_w / top).collect();
    fit_power_law(&xs, &ys).map_err(|e| format!("power-law fit: {e:?}"))?;
    v.push((
        "fit.power_law_us",
        inp.timer.median_s(|| fit_power_law(black_box(&xs), &ys)) * 1e6,
    ));

    let machine = Machine::for_chip(Chip::Broadwell);
    let job = WorkProfile {
        compute_cycles: 30e9,
        memory_bytes: 160e9,
        ..Default::default()
    };
    const BATCH: usize = 1000;
    let simulate_s = inp.timer.median_per_item_s(BATCH, || {
        (0..BATCH)
            .map(|_| simulate(black_box(&machine), machine.cpu.f_max_ghz, black_box(&job)).energy_j)
            .sum::<f64>()
    });
    v.push(("powersim.simulate_ns", simulate_s * 1e9));
    Ok(v)
}
