//! Scaled characteristic curves — Figures 1–4.
//!
//! §V-A: to compare chips with different TDPs, every measurement group is
//! normalized by its own value at the chip's maximum clock. A group is one
//! (chip, compressor, dataset, error-bound) combination for compression,
//! or one (chip, payload size) for transit. The figures then plot the
//! mean scaled value per frequency with a 95% confidence band across the
//! group members — which is also why the error-bound curves in Figure 1
//! are "close to indiscernible": scaling factors out the magnitude
//! differences between bounds.

use crate::records::{CompressionRecord, TransitRecord};
use lcpio_powersim::perf::mean_sd_ci95;
use lcpio_powersim::Chip;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// One point of a characteristic curve.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CurvePoint {
    /// Core clock (GHz).
    pub f_ghz: f64,
    /// Mean scaled value across the group members.
    pub mean: f64,
    /// 95% CI half-width across the group members.
    pub ci95: f64,
}

/// One labelled curve (e.g. "Broadwell-SZ").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CurveSeries {
    /// Display label.
    pub label: String,
    /// Chip the frequency axis belongs to.
    pub chip: Chip,
    /// Points ordered by frequency.
    pub points: Vec<CurvePoint>,
}

impl CurveSeries {
    /// Scaled value at the lowest frequency (the curve's floor).
    pub fn floor(&self) -> f64 {
        self.points.first().map(|p| p.mean).unwrap_or(f64::NAN)
    }

    /// Scaled value at the highest frequency (≈1 by construction).
    pub fn at_fmax(&self) -> f64 {
        self.points.last().map(|p| p.mean).unwrap_or(f64::NAN)
    }

    /// Linear interpolation of the curve at `f_ghz`.
    pub fn value_at(&self, f_ghz: f64) -> f64 {
        if self.points.is_empty() {
            return f64::NAN;
        }
        if f_ghz <= self.points[0].f_ghz {
            return self.points[0].mean;
        }
        for w in self.points.windows(2) {
            if f_ghz <= w[1].f_ghz {
                let t = (f_ghz - w[0].f_ghz) / (w[1].f_ghz - w[0].f_ghz);
                return w[0].mean + t * (w[1].mean - w[0].mean);
            }
        }
        // Past the last point: clamp to the curve's f_max value. Total —
        // the empty case returned NaN above.
        self.at_fmax()
    }
}

fn freq_key(f: f64) -> i64 {
    (f * 1000.0).round() as i64
}

/// A sweep record's scaling group and clock — the one definition of "the
/// same measurement at another frequency" that Figures 1–4 and Tables IV/V
/// share.
pub(crate) trait ScalingGroup {
    /// Key of the record's group.
    fn group(&self) -> u64;
    /// Core clock (GHz).
    fn f_ghz(&self) -> f64;
}

/// A compression group is one (chip, compressor, dataset, error bound).
impl ScalingGroup for CompressionRecord {
    fn group(&self) -> u64 {
        ((self.chip as u64) << 60)
            ^ ((self.compressor as u64) << 56)
            ^ ((self.dataset as u64) << 50)
            ^ self.error_bound.to_bits()
    }
    fn f_ghz(&self) -> f64 {
        self.f_ghz
    }
}

/// A transit group is one (chip, payload size).
impl ScalingGroup for TransitRecord {
    fn group(&self) -> u64 {
        ((self.chip as u64) << 60) ^ self.bytes.to_bits()
    }
    fn f_ghz(&self) -> f64 {
        self.f_ghz
    }
}

/// Each record's `value` divided by its group's value at the group's
/// highest clock, in record order; `None` where that base is not positive.
pub(crate) fn scaled_at_fmax<R: ScalingGroup>(
    recs: &[R],
    value: impl Fn(&R) -> f64,
) -> Vec<Option<f64>> {
    let mut base: HashMap<u64, (f64, f64)> = HashMap::new(); // (f_max, value there)
    for r in recs {
        let e = base.entry(r.group()).or_insert((f64::NEG_INFINITY, 1.0));
        if r.f_ghz() > e.0 {
            *e = (r.f_ghz(), value(r));
        }
    }
    recs.iter()
        .map(|r| {
            let b = base[&r.group()].1;
            (b > 0.0).then(|| value(r) / b)
        })
        .collect()
}

/// Generic scaled-curve builder: `series(record)` identifies the output
/// curve, `value(record)` the quantity.
fn build_curves<R: ScalingGroup>(
    recs: &[R],
    series: impl Fn(&R) -> (String, Chip),
    value: impl Fn(&R) -> f64,
) -> Vec<CurveSeries> {
    // Accumulate scaled values per (series, frequency).
    let mut acc: HashMap<(String, i64), Vec<f64>> = HashMap::new();
    let mut chips: HashMap<String, Chip> = HashMap::new();
    for (r, scaled) in recs.iter().zip(scaled_at_fmax(recs, value)) {
        let (label, chip) = series(r);
        chips.insert(label.clone(), chip);
        if let Some(y) = scaled {
            acc.entry((label, freq_key(r.f_ghz()))).or_default().push(y);
        }
    }
    // Assemble ordered series.
    let mut out: Vec<CurveSeries> = chips
        .into_iter()
        .map(|(label, chip)| {
            let mut points: Vec<CurvePoint> = acc
                .iter()
                .filter(|((l, _), _)| *l == label)
                .map(|((_, fk), vals)| {
                    let (mean, _, ci95) = mean_sd_ci95(vals);
                    CurvePoint { f_ghz: *fk as f64 / 1000.0, mean, ci95 }
                })
                .collect();
            // Total ordering: a NaN frequency (degenerate input record)
            // must not panic the sort — it sorts last and is harmless.
            points.sort_by(|a, b| a.f_ghz.total_cmp(&b.f_ghz));
            CurveSeries { label, chip, points }
        })
        .collect();
    out.sort_by(|a, b| a.label.cmp(&b.label));
    out
}

/// Figure 1: compression scaled power, one curve per (chip, compressor).
pub fn compression_power_curves(recs: &[CompressionRecord]) -> Vec<CurveSeries> {
    build_curves(
        recs,
        |r| (format!("{}-{}", r.chip.name(), r.compressor.name()), r.chip),
        |r| r.power_w,
    )
}

/// Figure 2: compression scaled runtime.
pub fn compression_runtime_curves(recs: &[CompressionRecord]) -> Vec<CurveSeries> {
    build_curves(
        recs,
        |r| (format!("{}-{}", r.chip.name(), r.compressor.name()), r.chip),
        |r| r.runtime_s,
    )
}

/// Figure 3: transit scaled power, one curve per chip (sizes are group
/// members — the paper found no size dependence after scaling).
pub fn transit_power_curves(recs: &[TransitRecord]) -> Vec<CurveSeries> {
    build_curves(recs, |r| (r.chip.name().to_string(), r.chip), |r| r.power_w)
}

/// Figure 4: transit scaled runtime.
pub fn transit_runtime_curves(recs: &[TransitRecord]) -> Vec<CurveSeries> {
    build_curves(recs, |r| (r.chip.name().to_string(), r.chip), |r| r.runtime_s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{run_compression_sweep, run_transit_sweep, ExperimentConfig};

    fn quick_recs() -> Vec<CompressionRecord> {
        run_compression_sweep(&ExperimentConfig::quick())
    }

    #[test]
    fn four_compression_series_normalized_at_fmax() {
        let curves = compression_power_curves(&quick_recs());
        assert_eq!(curves.len(), 4, "{:?}", curves.iter().map(|c| &c.label).collect::<Vec<_>>());
        for c in &curves {
            assert!((c.at_fmax() - 1.0).abs() < 0.05, "{}: {}", c.label, c.at_fmax());
            assert!(c.floor() < 1.0, "{}: floor {}", c.label, c.floor());
        }
    }

    #[test]
    fn power_floor_matches_paper_bands() {
        // Figure 1: compression scaled power bottoms around 0.7–0.85.
        for c in compression_power_curves(&quick_recs()) {
            assert!((0.6..0.95).contains(&c.floor()), "{}: {}", c.label, c.floor());
        }
    }

    #[test]
    fn runtime_curves_peak_at_low_frequency() {
        // Figure 2: runtime at f_min is the maximum (>1), at f_max = 1.
        for c in compression_runtime_curves(&quick_recs()) {
            assert!((c.at_fmax() - 1.0).abs() < 0.05);
            assert!(c.floor() > 1.2, "{}: {}", c.label, c.floor());
        }
    }

    #[test]
    fn transit_power_range_is_narrower_than_compression() {
        let cfg = ExperimentConfig::quick();
        let comp = compression_power_curves(&run_compression_sweep(&cfg));
        let tran = transit_power_curves(&run_transit_sweep(&cfg));
        assert_eq!(tran.len(), 2);
        let comp_floor: f64 =
            comp.iter().map(|c| c.floor()).sum::<f64>() / comp.len() as f64;
        let tran_floor: f64 =
            tran.iter().map(|c| c.floor()).sum::<f64>() / tran.len() as f64;
        assert!(
            tran_floor > comp_floor,
            "transit floor {tran_floor} should exceed compression floor {comp_floor}"
        );
    }

    #[test]
    fn value_at_interpolates() {
        let s = CurveSeries {
            label: "t".into(),
            chip: Chip::Broadwell,
            points: vec![
                CurvePoint { f_ghz: 1.0, mean: 0.8, ci95: 0.0 },
                CurvePoint { f_ghz: 2.0, mean: 1.0, ci95: 0.0 },
            ],
        };
        assert!((s.value_at(1.5) - 0.9).abs() < 1e-12);
        assert_eq!(s.value_at(0.5), 0.8);
        assert_eq!(s.value_at(2.5), 1.0);
    }

    #[test]
    fn empty_series_value_at_is_nan_not_panic() {
        let s = CurveSeries { label: "empty".into(), chip: Chip::Broadwell, points: vec![] };
        assert!(s.value_at(1.0).is_nan());
        assert!(s.floor().is_nan());
        assert!(s.at_fmax().is_nan());
    }

    #[test]
    fn nan_frequency_records_do_not_panic_curve_building() {
        // A degenerate record with a NaN clock must not abort the sort in
        // build_curves (historically partial_cmp().unwrap() panicked here).
        let mut recs = quick_recs();
        let mut bad = recs[0];
        bad.f_ghz = f64::NAN;
        recs.push(bad);
        let curves = compression_power_curves(&recs);
        assert!(!curves.is_empty());
        for c in &curves {
            // NaN keys sort last under total_cmp; finite points stay ordered.
            let finite: Vec<f64> =
                c.points.iter().map(|p| p.f_ghz).filter(|f| f.is_finite()).collect();
            assert!(finite.windows(2).all(|w| w[0] <= w[1]), "{}: {:?}", c.label, finite);
        }
    }

    #[test]
    fn confidence_bands_exist_with_noise() {
        let curves = compression_power_curves(&quick_recs());
        let any_ci = curves
            .iter()
            .flat_map(|c| &c.points)
            .any(|p| p.ci95 > 0.0);
        assert!(any_ci, "noisy sweeps must produce nonzero CI bands");
    }
}
