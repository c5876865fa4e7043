//! NYX-like cosmology fields.
//!
//! NYX dumps 512³ baryon density and velocity grids. Density is log-normal
//! (huge dynamic range, always positive, sharp filaments); velocity is a
//! smooth, signed, roughly Gaussian field. We expose both: velocity is what
//! the paper's §VI-B data-dump experiment compresses (`velocity_x`), density
//! stresses compressors with high dynamic range.

use crate::field::{Dims, Field};
use crate::spectral::{workers, SpectralField, SpectralParams};

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
    let data = synth.sample_map([side; 3], workers(), |g| (g as f64).exp() as f32);
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
    fn slabs_match_serial_eval_at_forced_thread_counts() {
        use crate::spectral::tests::{assert_bits_eq, serial, SHAPES, THREADS};
        // The synthesizers `velocity_x` and `baryon_density` draw at side 9
        // (k_max clamps to 2 at every side below 16).
        let seed = 11;
        let params =
            |beta, sigma| SpectralParams { modes: 128, beta, k_max: 2.0, mean: 0.0, sigma };
        let velocity = SpectralField::new(params(2.2, 250.0), seed);
        let density = SpectralField::new(params(1.8, 1.2), seed ^ 0xABCD);
        let exp = |g: f32| (g as f64).exp() as f32;
        let at = |f: &SpectralField, [nz, ny, nx]: [usize; 3], k, j, i| {
            f.eval(i as f64 / nx as f64, j as f64 / ny as f64, k as f64 / nz as f64)
        };
        for dims in SHAPES {
            let want_v = serial(dims, |k, j, i| at(&velocity, dims, k, j, i));
            let want_d = serial(dims, |k, j, i| exp(at(&density, dims, k, j, i)));
            for threads in THREADS {
                let what = format!("{dims:?} on {threads}");
                assert_bits_eq(&velocity.sample_map(dims, threads, |v| v), &want_v, &what);
                assert_bits_eq(&density.sample_map(dims, threads, exp), &want_d, &what);
            }
        }
        // The public generators, on every core this host has.
        let cube = [9; 3];
        let want_v = serial(cube, |k, j, i| at(&velocity, cube, k, j, i));
        let want_d = serial(cube, |k, j, i| exp(at(&density, cube, k, j, i)));
        assert_bits_eq(&velocity_x(9, seed).data, &want_v, "velocity_x");
        assert_bits_eq(&baryon_density(9, seed).data, &want_d, "baryon_density");
    }

    #[test]
    fn deterministic() {
        assert_eq!(velocity_x(12, 3).data, velocity_x(12, 3).data);
        assert_eq!(baryon_density(12, 3).data, baryon_density(12, 3).data);
    }
}
