//! Hurricane-ISABEL-like weather fields (the paper's §VI-A validation set).
//!
//! ISABEL is a WRF hurricane simulation: 100×500×500 snapshots of pressure,
//! temperature, wind components, and precipitation. The distinguishing
//! structure is a *vortex*: winds rotate around a low-pressure eye with a
//! radial profile (calm eye, violent eyewall, decay outwards), plus
//! background turbulence. The paper compresses six 95 MB fields (PRECIP, P,
//! TC, U, V, W) at error bound 1e-4 to validate the Broadwell power model
//! on data never seen during regression.

use crate::field::{Dims, Field};
use crate::spectral::{fill_planes, workers, SpectralField, SpectralParams};

/// Full-size extent (levels × y × x) from §VI-A.
pub const FULL_DIMS: (usize, usize, usize) = (100, 500, 500);

/// The six fields the paper validates on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IsabelField {
    /// Precipitation mixing ratio (non-negative, patchy).
    Precip,
    /// Pressure (smooth, strong radial eye signature).
    P,
    /// Temperature in Celsius.
    Tc,
    /// Eastward wind component.
    U,
    /// Northward wind component.
    V,
    /// Vertical wind component (small magnitudes).
    W,
}

impl IsabelField {
    /// All six validation fields, in the paper's order.
    pub const ALL: [IsabelField; 6] = [
        IsabelField::Precip,
        IsabelField::P,
        IsabelField::Tc,
        IsabelField::U,
        IsabelField::V,
        IsabelField::W,
    ];

    /// Field name as used in the SDRBench archive.
    pub fn name(self) -> &'static str {
        match self {
            IsabelField::Precip => "PRECIP",
            IsabelField::P => "P",
            IsabelField::Tc => "TC",
            IsabelField::U => "U",
            IsabelField::V => "V",
            IsabelField::W => "W",
        }
    }
}

/// Generate one ISABEL-like field with horizontal extents divided by `scale`.
pub fn generate_scaled(scale: usize, seed: u64, which: IsabelField) -> Field {
    let (nz, ny, nx) = scaled_dims(scale);
    generate(nz, ny, nx, seed, which)
}

/// `(nz, ny, nx)` at `scale`; 0 is taken as 1, the full size.
fn scaled_dims(scale: usize) -> (usize, usize, usize) {
    let (nz, full_ny, full_nx) = FULL_DIMS;
    let scale = scale.max(1);
    // Keep the vertical extent modest when heavily scaled: levels are
    // cheap but 100 of them dominates runtime at small scales.
    let nz = if scale > 4 { (nz / (scale / 4).max(1)).max(8) } else { nz };
    (nz, (full_ny / scale).max(16), (full_nx / scale).max(16))
}

/// Generate one ISABEL-like field with explicit dimensions.
pub fn generate(nz: usize, ny: usize, nx: usize, seed: u64, which: IsabelField) -> Field {
    generate_on([nz, ny, nx], seed, which, workers())
}

/// `generate` on `threads` workers, each filling a slab of levels.
fn generate_on([nz, ny, nx]: [usize; 3], seed: u64, which: IsabelField, threads: usize) -> Field {
    let k_max = 24.0f64.min(ny.min(nx) as f64 / 8.0).max(2.0);
    let turb = SpectralField::new(
        SpectralParams { modes: 96, beta: 5.0 / 3.0, k_max, mean: 0.0, sigma: 1.0 },
        seed ^ (which as u64).wrapping_mul(0x9e3779b97f4a7c15),
    );
    // Eye of the storm sits slightly off-center.
    let (cx, cy) = (0.55, 0.45);
    let data = fill_planes(nz, ny * nx, threads, |k, plane| {
        let zfrac = k as f64 / nz.max(1) as f64;
        for (j, row) in plane.chunks_mut(nx).enumerate() {
            let y = j as f64 / ny as f64;
            for (i, out) in row.iter_mut().enumerate() {
                let x = i as f64 / nx as f64;
                let dx = x - cx;
                let dy = y - cy;
                let r = (dx * dx + dy * dy).sqrt();
                let t = turb.eval(x, y, zfrac) as f64;
                let v = match which {
                    IsabelField::P => pressure(r, zfrac, t),
                    IsabelField::Tc => temperature(r, zfrac, t),
                    IsabelField::U => {
                        let (u, _) = wind(dx, dy, r, zfrac);
                        u + 4.0 * t
                    }
                    IsabelField::V => {
                        let (_, w) = wind(dx, dy, r, zfrac);
                        w + 4.0 * t
                    }
                    IsabelField::W => 0.5 * t * (1.0 - zfrac),
                    IsabelField::Precip => {
                        // Precipitation: non-negative, concentrated in the
                        // eyewall rainbands.
                        let band = (-((r - 0.08) / 0.05).powi(2)).exp();
                        (band * (1.0 + t).max(0.0) * 0.01).max(0.0)
                    }
                };
                *out = v as f32;
            }
        }
    });
    Field::new(which.name(), data, Dims::d3(nz, ny, nx))
}

/// Radial pressure profile: deep low at the eye filling with altitude (hPa).
fn pressure(r: f64, zfrac: f64, turb: f64) -> f64 {
    let surface = 1010.0;
    let deficit = 70.0 * (-r / 0.12).exp() * (1.0 - 0.6 * zfrac);
    surface - deficit - 90.0 * zfrac + 0.5 * turb
}

/// Temperature (°C): warm core, cooling with altitude.
fn temperature(r: f64, zfrac: f64, turb: f64) -> f64 {
    27.0 + 4.0 * (-r / 0.1).exp() - 60.0 * zfrac + 0.8 * turb
}

/// Tangential vortex wind (m/s): Rankine-like profile.
fn wind(dx: f64, dy: f64, r: f64, zfrac: f64) -> (f64, f64) {
    let r_eye = 0.05;
    let vmax = 65.0 * (1.0 - 0.5 * zfrac);
    let speed = if r < r_eye { vmax * r / r_eye } else { vmax * (r_eye / r).powf(0.6) };
    if r < 1e-9 {
        return (0.0, 0.0);
    }
    // Counter-clockwise rotation: velocity ⟂ radius.
    (-dy / r * speed, dx / r * speed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_fields_have_the_paper_names() {
        let names: Vec<_> = IsabelField::ALL.iter().map(|f| f.name()).collect();
        assert_eq!(names, vec!["PRECIP", "P", "TC", "U", "V", "W"]);
    }

    #[test]
    fn pressure_has_a_low_at_the_eye() {
        let f = generate(4, 64, 64, 1, IsabelField::P);
        // Surface level (k=0): eye pressure < corner pressure.
        let nx = 64;
        let eye = f.data[(29 * nx) + 35]; // near (0.55, 0.45)
        let corner = f.data[0];
        assert!(eye < corner - 20.0, "eye={eye} corner={corner}");
    }

    #[test]
    fn precip_is_non_negative() {
        let f = generate(4, 48, 48, 2, IsabelField::Precip);
        assert!(f.data.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn winds_rotate_around_eye() {
        // Wind to the "east" of the eye should blow "north" (positive V),
        // to the west "south": the sign of V flips across the eye.
        let f = generate(1, 64, 64, 3, IsabelField::V);
        let nx = 64;
        let j = 28; // y ≈ 0.45 → on the eye's horizontal line
        let east = f.data[j * nx + 50] as f64;
        let west = f.data[j * nx + 20] as f64;
        assert!(east * west < 0.0, "east={east} west={west}");
    }

    #[test]
    fn deterministic_per_field() {
        for which in IsabelField::ALL {
            let a = generate(4, 24, 24, 5, which);
            let b = generate(4, 24, 24, 5, which);
            assert_eq!(a.data, b.data);
        }
    }

    #[test]
    fn fields_differ_from_each_other() {
        let u = generate(2, 24, 24, 5, IsabelField::U);
        let v = generate(2, 24, 24, 5, IsabelField::V);
        assert_ne!(u.data, v.data);
    }

    #[test]
    fn scale_zero_is_full_size() {
        assert_eq!(super::scaled_dims(0), FULL_DIMS);
        assert_eq!(super::scaled_dims(1), FULL_DIMS);
    }

    #[test]
    fn slabs_match_serial_eval_at_forced_thread_counts() {
        use crate::spectral::tests::{assert_bits_eq, serial, SHAPES, THREADS};
        let seed = 5;
        for which in IsabelField::ALL {
            for dims @ [nz, ny, nx] in SHAPES {
                let k_max = 24.0f64.min(ny.min(nx) as f64 / 8.0).max(2.0);
                let turb = SpectralField::new(
                    SpectralParams { modes: 96, beta: 5.0 / 3.0, k_max, mean: 0.0, sigma: 1.0 },
                    seed ^ (which as u64).wrapping_mul(0x9e3779b97f4a7c15),
                );
                let want = serial(dims, |k, j, i| {
                    let zfrac = k as f64 / nz as f64;
                    let (y, x) = (j as f64 / ny as f64, i as f64 / nx as f64);
                    let (dx, dy) = (x - 0.55, y - 0.45);
                    let r = (dx * dx + dy * dy).sqrt();
                    let t = turb.eval(x, y, zfrac) as f64;
                    let v = match which {
                        IsabelField::P => pressure(r, zfrac, t),
                        IsabelField::Tc => temperature(r, zfrac, t),
                        IsabelField::U => wind(dx, dy, r, zfrac).0 + 4.0 * t,
                        IsabelField::V => wind(dx, dy, r, zfrac).1 + 4.0 * t,
                        IsabelField::W => 0.5 * t * (1.0 - zfrac),
                        IsabelField::Precip => {
                            let band = (-((r - 0.08) / 0.05).powi(2)).exp();
                            (band * (1.0 + t).max(0.0) * 0.01).max(0.0)
                        }
                    };
                    v as f32
                });
                for threads in THREADS {
                    let got = generate_on(dims, seed, which, threads);
                    assert_eq!(got.dims().extents(), &dims);
                    let what = format!("{} {dims:?} on {threads}", which.name());
                    assert_bits_eq(&got.data, &want, &what);
                }
            }
        }
    }

    #[test]
    fn scaled_dims() {
        let f = generate_scaled(10, 0, IsabelField::Tc);
        assert_eq!(f.dims().extents(), &[50, 50, 50]);
    }
}
