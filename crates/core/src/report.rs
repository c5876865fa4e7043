//! Plain-text rendering of the paper's tables and figures.
//!
//! Every bench target prints through these helpers so `cargo bench` output
//! can be diffed against the paper side by side.

use crate::characteristics::CurveSeries;
use crate::datadump::DumpRow;
use crate::models::ModelRow;
use crate::tuning::TuningReport;

/// Render a Table IV/V-style model table.
pub fn render_model_table(title: &str, rows: &[ModelRow]) -> String {
    let mut s = String::new();
    s.push_str(&format!("{title}\n"));
    s.push_str(&format!(
        "{:<11} {:<28} {:>10} {:>9} {:>8}\n",
        "Model Data", "P(f)", "SSE", "RMSE", "R^2"
    ));
    for r in rows {
        s.push_str(&format!(
            "{:<11} {:<28} {:>10.4} {:>9.4} {:>8.4}\n",
            r.name,
            r.fit.equation(),
            r.fit.gof.sse,
            r.fit.gof.rmse,
            r.fit.gof.r2
        ));
    }
    s
}

/// Render characteristic curves as aligned columns (one block per series).
pub fn render_curves(title: &str, curves: &[CurveSeries]) -> String {
    let mut s = String::new();
    s.push_str(&format!("{title}\n"));
    for c in curves {
        s.push_str(&format!("  series {:<18} (floor {:.3})\n", c.label, c.floor()));
        s.push_str(&format!("    {:>6} {:>8} {:>8}\n", "f_GHz", "mean", "ci95"));
        for p in &c.points {
            s.push_str(&format!("    {:>6.2} {:>8.4} {:>8.4}\n", p.f_ghz, p.mean, p.ci95));
        }
    }
    s
}

/// Render the Figure 6 energy table.
///
/// The two rightmost columns report the overlapped compress→write
/// pipeline: tuned wall time and its speedup over the sequential dump
/// (same joules — see [`crate::pipeline`]).
pub fn render_dump(title: &str, rows: &[DumpRow]) -> String {
    let mut s = String::new();
    s.push_str(&format!("{title}\n"));
    s.push_str(&format!(
        "{:>8} {:>8} {:>12} {:>12} {:>10} {:>8} {:>10} {:>8}\n",
        "eb", "ratio", "base_kJ", "tuned_kJ", "saved_kJ", "savings", "pipe_s", "overlap"
    ));
    for r in rows {
        s.push_str(&format!(
            "{:>8.0e} {:>8.2} {:>12.2} {:>12.2} {:>10.2} {:>7.1}% {:>10.1} {:>7.2}x\n",
            r.error_bound,
            r.ratio,
            r.base.total_j() / 1e3,
            r.tuned.total_j() / 1e3,
            r.saved_j() / 1e3,
            r.savings() * 100.0,
            r.tuned_overlap.pipelined_s,
            r.tuned_overlap.speedup()
        ));
    }
    s
}

/// Render the §V-A3 tuning summary.
pub fn render_tuning(report: &TuningReport) -> String {
    format!(
        "Eqn-3 tuning evaluation\n\
           compression: power savings {:>5.1}%, runtime increase {:>5.1}%, energy savings {:>5.1}%\n\
           writing:     power savings {:>5.1}%, runtime increase {:>5.1}%, energy savings {:>5.1}%\n\
           combined:    savings {:>5.1}% (paper: 14.3%), runtime increase {:>5.1}% (paper: 8.4%)\n",
        report.compression_power_savings * 100.0,
        report.compression_runtime_increase * 100.0,
        report.compression_energy_savings * 100.0,
        report.writing_power_savings * 100.0,
        report.writing_runtime_increase * 100.0,
        report.writing_energy_savings * 100.0,
        report.combined_savings() * 100.0,
        report.combined_runtime_increase() * 100.0
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::characteristics::CurvePoint;
    use lcpio_fit::{GoodnessOfFit, PowerLawFit};
    use lcpio_powersim::Chip;

    fn model_row() -> ModelRow {
        ModelRow {
            name: "Broadwell".into(),
            fit: PowerLawFit {
                a: 0.0064,
                b: 5.315,
                c: 0.7429,
                gof: GoodnessOfFit { sse: 2.463, rmse: 0.0279, r2: 0.8731, n: 100 },
                converged: true,
            },
        }
    }

    #[test]
    fn model_table_contains_equation_and_gf() {
        let out = render_model_table("TABLE IV", &[model_row()]);
        assert!(out.contains("TABLE IV"));
        assert!(out.contains("Broadwell"));
        assert!(out.contains("f^5.315"));
        assert!(out.contains("0.0279"));
    }

    #[test]
    fn curves_render_all_points() {
        let c = CurveSeries {
            label: "Broadwell-SZ".into(),
            chip: Chip::Broadwell,
            points: vec![
                CurvePoint { f_ghz: 0.8, mean: 0.78, ci95: 0.01 },
                CurvePoint { f_ghz: 2.0, mean: 1.0, ci95: 0.01 },
            ],
        };
        let out = render_curves("Fig 1", &[c]);
        assert!(out.contains("Broadwell-SZ"));
        assert_eq!(out.matches("\n    ").count(), 3); // header + 2 points
    }

    #[test]
    fn dump_table_shows_overlap_columns() {
        use crate::pipeline::PhaseCost;
        // (CPU joules, I/O joules, sequential s, pipelined s); the busy
        // times are not rendered.
        let cost = |cpu_j: f64, io_j: f64, sequential_s: f64, pipelined_s: f64| PhaseCost {
            cpu_j,
            io_j,
            cpu_s: cpu_j / 100.0,
            io_s: io_j / 100.0,
            sequential_s,
            pipelined_s,
        };
        let row = DumpRow {
            error_bound: 1e-3,
            ratio: 7.5,
            base: cost(40e3, 12e3, 520.0, 520.0),
            tuned: cost(34e3, 11e3, 450.0, 450.0),
            base_overlap: cost(40e3, 12e3, 520.0, 410.0),
            tuned_overlap: cost(34e3, 11e3, 560.0, 448.0),
        };
        let out = render_dump("FIG 6", &[row]);
        assert!(out.contains("pipe_s"));
        assert!(out.contains("overlap"));
        assert!(out.contains("448.0"));
        assert!(out.contains("1.25x"));
    }

    #[test]
    fn tuning_summary_mentions_paper_targets() {
        let rep = TuningReport {
            compression_power_savings: 0.194,
            compression_runtime_increase: 0.075,
            compression_energy_savings: 0.134,
            writing_power_savings: 0.112,
            writing_runtime_increase: 0.093,
            writing_energy_savings: 0.03,
        };
        let out = render_tuning(&rep);
        assert!(out.contains("19.4%"));
        assert!(out.contains("paper: 14.3%"));
    }
}
