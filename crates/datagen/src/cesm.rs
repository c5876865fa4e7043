//! CESM-ATM-like climate fields.
//!
//! The real CESM atmosphere output is a stack of 26 vertical levels, each a
//! 1800×3600 latitude/longitude grid. Climate fields are very smooth in the
//! horizontal, carry a strong latitudinal (meridional) gradient, and vary
//! systematically with altitude. We reproduce those traits: a per-level
//! base profile (temperature-like lapse rate), a latitudinal cosine
//! gradient, and a smooth spectral perturbation whose amplitude grows
//! toward the surface (weather lives in the troposphere).

use crate::field::{Dims, Field};
use crate::spectral::{fill_planes, workers, SpectralField, SpectralParams};

/// Full-size extent from Table I.
pub const FULL_DIMS: (usize, usize, usize) = (26, 1800, 3600);

/// Generate a CESM-ATM-like temperature field at reduced resolution.
///
/// `scale` divides the horizontal extents (levels stay at 26, the vertical
/// structure is physical, not resolution); `seed` fixes the realization.
pub fn generate_scaled(scale: usize, seed: u64) -> Field {
    let (nlev, ny, nx) = scaled_dims(scale);
    generate(nlev, ny, nx, seed)
}

/// `(levels, ny, nx)` at `scale`; 0 is taken as 1, the full size.
fn scaled_dims(scale: usize) -> (usize, usize, usize) {
    let (nlev, full_ny, full_nx) = FULL_DIMS;
    (nlev, (full_ny / scale.max(1)).max(16), (full_nx / scale.max(1)).max(16))
}

/// Generate a CESM-ATM-like field with explicit dimensions.
pub fn generate(nlev: usize, ny: usize, nx: usize, seed: u64) -> Field {
    generate_on([nlev, ny, nx], seed, workers())
}

/// `generate` on `threads` workers, each filling a slab of levels.
fn generate_on([nlev, ny, nx]: [usize; 3], seed: u64, threads: usize) -> Field {
    // Cap the spectral content at the sample's resolution (≥8 cells per
    // cycle) so scaled-down fields keep the smoothness — and therefore the
    // compressibility — of the full-resolution product.
    let k_max = 24.0f64.min(ny.min(nx) as f64 / 8.0).max(2.0);
    let params = SpectralParams { modes: 96, beta: 3.0, k_max, mean: 0.0, sigma: 1.0 };
    let synth = SpectralField::new(params, seed);
    let data = fill_planes(nlev, ny * nx, threads, |lev, plane| {
        // Temperature-like vertical profile: ~288 K at the surface dropping
        // ~6.5 K per model level towards the top of the stack.
        let frac = lev as f64 / nlev.max(1) as f64;
        let base = 288.0 - 70.0 * (1.0 - frac);
        // Perturbations strengthen toward the surface (high `lev` index).
        let amp = 2.0 + 8.0 * frac;
        for (j, row) in plane.chunks_mut(nx).enumerate() {
            let lat = j as f64 / ny as f64; // 0 = south pole, 1 = north pole
            // Meridional gradient: warm equator, cold poles.
            let merid = 30.0 * (std::f64::consts::PI * lat).sin();
            for (i, out) in row.iter_mut().enumerate() {
                let x = i as f64 / nx as f64;
                let p = synth.eval(x, lat, frac) as f64;
                *out = (base + merid + amp * p) as f32;
            }
        }
    });
    Field::new("cesm_temperature", data, Dims::d3(nlev, ny, nx))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_dims_shrink_horizontal_only() {
        let f = generate_scaled(100, 0);
        let e = f.dims();
        assert_eq!(e.extents()[0], 26);
        assert_eq!(e.extents()[1], 18);
        assert_eq!(e.extents()[2], 36);
    }

    #[test]
    fn values_look_like_kelvin_temperatures() {
        let f = generate_scaled(64, 3);
        let (lo, hi) = f.value_range();
        assert!(lo > 150.0, "lo={lo}");
        assert!(hi < 400.0, "hi={hi}");
    }

    #[test]
    fn surface_is_warmer_than_top() {
        let f = generate(26, 32, 64, 1);
        let per_level = 32 * 64;
        let mean = |lev: usize| -> f64 {
            f.data[lev * per_level..(lev + 1) * per_level]
                .iter()
                .map(|&v| v as f64)
                .sum::<f64>()
                / per_level as f64
        };
        assert!(mean(25) > mean(0) + 30.0, "surface {} top {}", mean(25), mean(0));
    }

    #[test]
    fn equator_warmer_than_poles() {
        let f = generate(1, 64, 32, 2);
        let row_mean = |j: usize| -> f64 {
            f.data[j * 32..(j + 1) * 32].iter().map(|&v| v as f64).sum::<f64>() / 32.0
        };
        let pole = (row_mean(0) + row_mean(63)) / 2.0;
        let eq = row_mean(32);
        assert!(eq > pole + 10.0, "eq={eq} pole={pole}");
    }

    #[test]
    fn scale_zero_is_full_size() {
        assert_eq!(scaled_dims(0), FULL_DIMS);
        assert_eq!(scaled_dims(1), FULL_DIMS);
    }

    #[test]
    fn slabs_match_serial_eval_at_forced_thread_counts() {
        use crate::spectral::tests::{assert_bits_eq, serial, SHAPES, THREADS};
        let seed = 7;
        for dims @ [nlev, ny, nx] in SHAPES {
            let k_max = 24.0f64.min(ny.min(nx) as f64 / 8.0).max(2.0);
            let params = SpectralParams { modes: 96, beta: 3.0, k_max, mean: 0.0, sigma: 1.0 };
            let synth = SpectralField::new(params, seed);
            let want = serial(dims, |lev, j, i| {
                let frac = lev as f64 / nlev as f64;
                let base = 288.0 - 70.0 * (1.0 - frac);
                let amp = 2.0 + 8.0 * frac;
                let lat = j as f64 / ny as f64;
                let merid = 30.0 * (std::f64::consts::PI * lat).sin();
                let p = synth.eval(i as f64 / nx as f64, lat, frac) as f64;
                (base + merid + amp * p) as f32
            });
            for threads in THREADS {
                let got = generate_on(dims, seed, threads);
                assert_eq!(got.dims().extents(), &dims);
                assert_bits_eq(&got.data, &want, &format!("{dims:?} on {threads}"));
            }
        }
    }

    #[test]
    fn deterministic() {
        assert_eq!(generate(4, 16, 16, 9).data, generate(4, 16, 16, 9).data);
    }
}
