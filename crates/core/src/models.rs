//! Fitted power-model tables — Tables IV and V.
//!
//! Each slice of the sweep is regressed as `P(f) = a·f^b + c` (Eqn 2) on
//! *scaled* power (each group normalized by its value at f_max, exactly as
//! in the paper, which is why the fitted `c` lands near 0.75–0.8: that is
//! the scaled idle floor). The GF columns (SSE, RMSE, R²) come from
//! [`lcpio_fit`].

use crate::characteristics::{scaled_at_fmax, ScalingGroup};
use crate::records::{CompressionRecord, TransitRecord};
use crate::slicing::{CompressionSlice, TransitSlice};
use lcpio_fit::powerlaw::{fit_power_law, PowerLawFit};
use serde::{Deserialize, Serialize};

/// One row of Table IV or V.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ModelRow {
    /// Slice name ("Total", "SZ", …).
    pub name: String,
    /// The fitted `a·f^b + c` model with its GF statistics.
    pub fit: PowerLawFit,
}

/// Fit Eqn 2 to the scaled power of the records `keep` selects.
fn fit_slice<R: ScalingGroup>(
    name: &str,
    recs: &[R],
    scaled: &[Option<f64>],
    keep: impl Fn(&R) -> bool,
) -> ModelRow {
    let (xs, ys): (Vec<f64>, Vec<f64>) = recs
        .iter()
        .zip(scaled)
        .filter(|(r, _)| keep(r))
        .filter_map(|(r, y)| y.map(|y| (r.f_ghz(), y)))
        .unzip();
    let fit = fit_power_law(&xs, &ys).expect("sweep slices are well-formed");
    ModelRow { name: name.to_string(), fit }
}

/// Build Table IV: compression power models for all five slices.
pub fn compression_model_table(recs: &[CompressionRecord]) -> Vec<ModelRow> {
    let scaled = scaled_at_fmax(recs, |r| r.power_w);
    CompressionSlice::ALL
        .iter()
        .map(|&slice| fit_slice(slice.name(), recs, &scaled, |r| slice.contains(r)))
        .collect()
}

/// Build Table V: transit power models for all three slices.
pub fn transit_model_table(recs: &[TransitRecord]) -> Vec<ModelRow> {
    let scaled = scaled_at_fmax(recs, |r| r.power_w);
    TransitSlice::ALL
        .iter()
        .map(|&slice| fit_slice(slice.name(), recs, &scaled, |r| slice.contains(r)))
        .collect()
}

/// Look up a fitted model row by slice name.
pub fn row<'a>(table: &'a [ModelRow], name: &str) -> Option<&'a ModelRow> {
    table.iter().find(|r| r.name == name)
}

/// §IV-A's key finding, made checkable: per-chip models must fit better
/// (lower RMSE) than the pooled model.
pub fn hardware_dominates(table: &[ModelRow]) -> bool {
    let total = row(table, "Total").map(|r| r.fit.gof.rmse).unwrap_or(f64::NAN);
    let bd = row(table, "Broadwell").map(|r| r.fit.gof.rmse).unwrap_or(f64::NAN);
    let sk = row(table, "Skylake").map(|r| r.fit.gof.rmse).unwrap_or(f64::NAN);
    bd < total && sk < total
}

/// Convenience: fit tables straight from a sweep (used by benches).
pub fn tables_from_sweep(
    compression: &[CompressionRecord],
    transit: &[TransitRecord],
) -> (Vec<ModelRow>, Vec<ModelRow>) {
    (compression_model_table(compression), transit_model_table(transit))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::characteristics::compression_power_curves;
    use crate::experiment::{run_compression_sweep, run_transit_sweep, ExperimentConfig};

    fn tables() -> (Vec<ModelRow>, Vec<ModelRow>) {
        let cfg = ExperimentConfig::quick();
        (
            compression_model_table(&run_compression_sweep(&cfg)),
            transit_model_table(&run_transit_sweep(&cfg)),
        )
    }

    #[test]
    fn table4_has_five_rows_in_paper_order() {
        let (t4, _) = tables();
        let names: Vec<_> = t4.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, vec!["Total", "SZ", "ZFP", "Broadwell", "Skylake"]);
    }

    #[test]
    fn table5_has_three_rows() {
        let (_, t5) = tables();
        let names: Vec<_> = t5.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, vec!["Total", "Broadwell", "Skylake"]);
    }

    #[test]
    fn per_chip_models_fit_better_than_pooled() {
        // §IV-A: "the Broadwell and Skylake power consumption models have a
        // lower SSE and RMSE … power consumption is less dependent on the
        // choice of lossy compressor."
        let (t4, t5) = tables();
        assert!(hardware_dominates(&t4), "table IV: {t4:?}");
        assert!(hardware_dominates(&t5), "table V: {t5:?}");
    }

    #[test]
    fn skylake_exponent_dwarfs_broadwell() {
        // Table IV: b ≈ 5.3 (Broadwell) vs b ≈ 23.3 (Skylake) — a 4.4×
        // gap. Require a clear (>1.6×) separation in the reproduction.
        // The Skylake exponent is weakly identified (knee-shaped curve):
        // its noise-free fit here is ≈12, but measurement noise wobbles
        // it by a few units, so the hard floor stays below that.
        let (t4, _) = tables();
        let bd = row(&t4, "Broadwell").unwrap().fit.b;
        let sk = row(&t4, "Skylake").unwrap().fit.b;
        assert!(sk > 1.6 * bd, "broadwell b={bd}, skylake b={sk}");
        assert!(sk > 8.0, "skylake b={sk} should be extreme");
    }

    #[test]
    fn offsets_land_near_the_scaled_floor() {
        // The paper's models all have c ∈ [0.70, 0.90] — the scaled idle
        // floor. For knee-shaped (Skylake-like) data the (a, b, c) triple
        // is weakly identified and the SSE-optimal c can drift lower, so
        // only the smoother slices are held to the paper band.
        let (t4, t5) = tables();
        for r in t4.iter().chain(&t5) {
            if r.name == "Skylake" {
                assert!((0.10..0.95).contains(&r.fit.c), "{}: c={}", r.name, r.fit.c);
            } else {
                assert!((0.50..0.95).contains(&r.fit.c), "{}: c={}", r.name, r.fit.c);
            }
        }
    }

    #[test]
    fn fitted_curves_track_measured_curves() {
        let cfg = ExperimentConfig::quick();
        let recs = run_compression_sweep(&cfg);
        let t4 = compression_model_table(&recs);
        let bd = row(&t4, "Broadwell").unwrap();
        let measured = compression_power_curves(&recs);
        let bd_curve = measured
            .iter()
            .find(|c| c.label.starts_with("Broadwell"))
            .unwrap();
        for p in &bd_curve.points {
            let err = (bd.fit.eval(p.f_ghz) - p.mean).abs();
            assert!(err < 0.08, "f={} err={err}", p.f_ghz);
        }
    }
}
