//! NYX-like cosmology fields.
//!
//! NYX dumps 512³ baryon density and velocity grids. Density is log-normal
//! (huge dynamic range, always positive, sharp filaments); velocity is a
//! smooth, signed, roughly Gaussian field. We expose both: velocity is what
//! the paper's §VI-B data-dump experiment compresses (`velocity_x`), density
//! stresses compressors with high dynamic range.

use crate::field::{Dims, Field};
use crate::spectral::{SpectralField, SpectralParams};

/// Generate a NYX-like `velocity_x` cube with side `side`.
pub fn generate_scaled(side: usize, seed: u64) -> Field {
    velocity_x(side.max(8), seed)
}

/// Smooth signed velocity field (km/s-like magnitudes, ±~500).
pub fn velocity_x(side: usize, seed: u64) -> Field {
    // Keep ≥8 cells per cycle at any sample resolution (see cesm.rs).
    let k_max = 24.0f64.min(side as f64 / 8.0).max(2.0);
    let params = SpectralParams { modes: 128, beta: 2.2, k_max, mean: 0.0, sigma: 250.0 };
    let synth = SpectralField::new(params, seed);
    let data = synth.sample_3d(side, side, side);
    Field::new("nyx_velocity_x", data, Dims::d3(side, side, side))
}

/// Log-normal baryon density field (dimensionless overdensity, ≥ 0).
pub fn baryon_density(side: usize, seed: u64) -> Field {
    let k_max = 32.0f64.min(side as f64 / 8.0).max(2.0);
    let params = SpectralParams { modes: 128, beta: 1.8, k_max, mean: 0.0, sigma: 1.2 };
    let synth = SpectralField::new(params, seed ^ 0xABCD);
    let data: Vec<f32> = synth
        .sample_3d(side, side, side)
        .into_iter()
        .map(|g| (g as f64).exp() as f32)
        .collect();
    Field::new("nyx_baryon_density", data, Dims::d3(side, side, side))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn velocity_is_signed_and_bounded() {
        let f = velocity_x(24, 5);
        let (lo, hi) = f.value_range();
        assert!(lo < 0.0 && hi > 0.0, "range {lo}..{hi}");
        assert!(lo > -3000.0 && hi < 3000.0);
    }

    #[test]
    fn density_is_positive_with_long_tail() {
        let f = baryon_density(24, 5);
        let (lo, hi) = f.value_range();
        assert!(lo > 0.0);
        let mean = f.mean();
        // Log-normal: max ≫ mean.
        assert!(hi as f64 > 3.0 * mean, "hi={hi} mean={mean}");
    }

    #[test]
    fn cube_dims() {
        let f = generate_scaled(16, 0);
        assert_eq!(f.dims().extents(), &[16, 16, 16]);
    }

    #[test]
    fn min_side_enforced() {
        assert_eq!(generate_scaled(1, 0).dims().extents(), &[8, 8, 8]);
    }

    #[test]
    fn deterministic() {
        assert_eq!(velocity_x(12, 3).data, velocity_x(12, 3).data);
        assert_eq!(baryon_density(12, 3).data, baryon_density(12, 3).data);
    }
}
