//! Spectral synthesis of smooth random fields.
//!
//! Scientific simulation output is *smooth*: its spatial power spectrum
//! decays with wavenumber (turbulence ~ k^-5/3, cosmological density ~
//! k^(n-4)...). Lossy-compressor behaviour — predictor hit rate in SZ,
//! coefficient decay in ZFP — is governed by exactly this decay, so we
//! synthesize fields as superpositions of randomly-phased cosine modes with
//! a power-law amplitude spectrum. This is the standard "spectral synthesis"
//! method for fractional-Brownian-like fields and needs no FFT.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Parameters for power-law spectral synthesis.
#[derive(Debug, Clone, Copy)]
pub struct SpectralParams {
    /// Number of random cosine modes to superpose. More modes → richer
    /// small-scale texture; 64–256 is plenty for compression studies.
    pub modes: usize,
    /// Spectral slope β: mode amplitude ∝ k^(-β/2). β≈5/3 mimics
    /// turbulence, β≈3 very smooth climate fields, β≈1 rough particle data.
    pub beta: f64,
    /// Largest wavenumber (cycles across the domain) sampled.
    pub k_max: f64,
    /// Output mean value.
    pub mean: f32,
    /// Output standard deviation (approximate).
    pub sigma: f32,
}

impl Default for SpectralParams {
    fn default() -> Self {
        SpectralParams { modes: 128, beta: 2.0, k_max: 32.0, mean: 0.0, sigma: 1.0 }
    }
}

/// One cosine mode: `amp * cos(2π (k·x) + phase)`.
#[derive(Debug, Clone, Copy)]
struct Mode {
    k: [f64; 3],
    amp: f64,
    phase: f64,
}

/// A reusable smooth-field synthesizer for up to 3 dimensions.
#[derive(Debug, Clone)]
pub struct SpectralField {
    modes: Vec<Mode>,
    params: SpectralParams,
}

impl SpectralField {
    /// Draw a random set of modes with the requested spectrum.
    pub fn new(params: SpectralParams, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed ^ SEED_MIX);
        let mut modes = Vec::with_capacity(params.modes);
        // Amplitude normalization so the field variance is ~params.sigma².
        // Sum of M independent cosines with amplitudes a_i has variance
        // Σ a_i²/2; we normalize after drawing.
        let mut raw: Vec<Mode> = (0..params.modes)
            .map(|_| {
                // log-uniform wavenumber magnitude in [1, k_max]
                let lk = rng.gen::<f64>() * params.k_max.max(1.0).ln();
                let kmag = lk.exp();
                // random direction on the sphere (3 components; unused ones
                // are ignored by lower-rank evaluation)
                let mut dir = [0.0f64; 3];
                loop {
                    for d in dir.iter_mut() {
                        *d = rng.gen::<f64>() * 2.0 - 1.0;
                    }
                    let n2: f64 = dir.iter().map(|d| d * d).sum();
                    if n2 > 1e-6 && n2 <= 1.0 {
                        let n = n2.sqrt();
                        for d in dir.iter_mut() {
                            *d /= n;
                        }
                        break;
                    }
                }
                let amp = kmag.powf(-params.beta / 2.0);
                let phase = rng.gen::<f64>() * std::f64::consts::TAU;
                Mode { k: [dir[0] * kmag, dir[1] * kmag, dir[2] * kmag], amp, phase }
            })
            .collect();
        let var: f64 = raw.iter().map(|m| m.amp * m.amp / 2.0).sum();
        let norm = if var > 0.0 { (params.sigma as f64) / var.sqrt() } else { 1.0 };
        for m in raw.iter_mut() {
            m.amp *= norm;
        }
        modes.append(&mut raw);
        SpectralField { modes, params }
    }

    /// Evaluate the field at a normalized coordinate in [0,1)^3.
    pub fn eval(&self, x: f64, y: f64, z: f64) -> f32 {
        let mut v = self.params.mean as f64;
        for m in &self.modes {
            let arg = std::f64::consts::TAU * (m.k[0] * x + m.k[1] * y + m.k[2] * z) + m.phase;
            v += m.amp * arg.cos();
        }
        v as f32
    }

    /// Fill a row-major 3-D array (z slowest), one slab of planes per core.
    pub fn sample_3d(&self, nz: usize, ny: usize, nx: usize) -> Vec<f32> {
        self.sample_map([nz, ny, nx], workers(), |v| v)
    }

    /// `sample_3d` on `threads` workers, with `map` applied to each value.
    pub(crate) fn sample_map<M>(&self, dims: [usize; 3], threads: usize, map: M) -> Vec<f32>
    where
        M: Fn(f32) -> f32 + Sync,
    {
        let [nz, ny, nx] = dims;
        fill_planes(nz, ny * nx, threads, |k, plane| {
            let z = k as f64 / nz as f64;
            for (j, row) in plane.chunks_mut(nx).enumerate() {
                let y = j as f64 / ny as f64;
                for (i, out) in row.iter_mut().enumerate() {
                    *out = map(self.eval(i as f64 / nx as f64, y, z));
                }
            }
        })
    }
}

/// Every core the OS grants, or 1 if it cannot say: the worker count of
/// field synthesis.
pub(crate) fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Allocate an `nz × plane` field once and fill it on up to `threads`
/// scoped workers (never more than `nz`), each owning one contiguous slab
/// of whole planes; `fill(k, p)` writes plane `k` into `p`. Every value is
/// a pure function of its coordinates and of state drawn before the
/// split, so no bit depends on the worker count.
pub(crate) fn fill_planes<F>(nz: usize, plane: usize, threads: usize, fill: F) -> Vec<f32>
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    let mut field = vec![0.0f32; nz * plane];
    let per = nz.div_ceil(threads.clamp(1, nz.max(1)));
    let fill = &fill;
    std::thread::scope(|s| {
        for (slab, planes) in field.chunks_mut((per * plane).max(1)).enumerate() {
            s.spawn(move || {
                planes.chunks_mut(plane).enumerate().for_each(|(k, p)| fill(slab * per + k, p))
            });
        }
    });
    field
}

/// Decorrelates spectral-synthesis seeds from caller-provided seeds so a
/// generator and its consumer never share an RNG stream.
const SEED_MIX: u64 = 0x9e37_79b9_7f4a_7c15;

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Worker counts the bit-identity tests force: serial, two, a prime
    /// that splits no test shape evenly, and more workers than planes.
    pub(crate) const THREADS: [usize; 5] = [1, 2, 3, 5, 64];

    /// `[nz, ny, nx]`: one plane, fewer planes than workers, a prime plane
    /// count, and planes of several rows.
    pub(crate) const SHAPES: [[usize; 3]; 4] = [[1, 1, 4096], [2, 5, 7], [7, 3, 5], [13, 16, 16]];

    /// The serial reference: `value(k, j, i)` at every index, z slowest.
    pub(crate) fn serial(dims: [usize; 3], value: impl Fn(usize, usize, usize) -> f32) -> Vec<f32> {
        let [nz, ny, nx] = dims;
        let mut out = Vec::with_capacity(nz * ny * nx);
        for k in 0..nz {
            for j in 0..ny {
                for i in 0..nx {
                    out.push(value(k, j, i));
                }
            }
        }
        out
    }

    /// Equal in every bit, element by element.
    pub(crate) fn assert_bits_eq(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (n, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}: element {n} is {g}, want {w}");
        }
    }

    #[test]
    fn fill_planes_writes_each_plane_once_with_its_index() {
        for threads in THREADS {
            for [nz, ny, nx] in SHAPES {
                let plane = ny * nx;
                let field = fill_planes(nz, plane, threads, |k, p| {
                    assert_eq!(p.len(), plane);
                    p.iter_mut().for_each(|v| *v += k as f32 + 1.0);
                });
                let want = serial([nz, ny, nx], |k, _, _| k as f32 + 1.0);
                assert_bits_eq(&field, &want, &format!("{nz}x{ny}x{nx} on {threads}"));
            }
            assert!(fill_planes(0, 6, threads, |_, _| unreachable!()).is_empty());
            assert!(fill_planes(6, 0, threads, |_, _| unreachable!()).is_empty());
        }
    }

    fn var(xs: &[f32]) -> f64 {
        let m = xs.iter().map(|&v| v as f64).sum::<f64>() / xs.len() as f64;
        xs.iter().map(|&v| (v as f64 - m).powi(2)).sum::<f64>() / xs.len() as f64
    }

    #[test]
    fn deterministic_given_seed() {
        let p = SpectralParams::default();
        let a = SpectralField::new(p, 11).sample_3d(1, 1, 256);
        let b = SpectralField::new(p, 11).sample_3d(1, 1, 256);
        assert_eq!(a, b);
    }

    #[test]
    fn sigma_controls_variance() {
        let p = SpectralParams { sigma: 3.0, ..Default::default() };
        let xs = SpectralField::new(p, 5).sample_3d(1, 64, 64);
        let s = var(&xs).sqrt();
        // Spatial variance of a finite sample deviates from the ensemble
        // value; accept a generous band.
        assert!(s > 1.0 && s < 6.0, "sigma={s}");
    }

    #[test]
    fn mean_offset_applied() {
        let p = SpectralParams { mean: 100.0, sigma: 1.0, ..Default::default() };
        let xs = SpectralField::new(p, 5).sample_3d(1, 1, 4096);
        let m = xs.iter().map(|&v| v as f64).sum::<f64>() / xs.len() as f64;
        assert!((m - 100.0).abs() < 3.0, "mean={m}");
    }

    #[test]
    fn smoother_spectrum_has_smaller_gradients() {
        let rough = SpectralParams { beta: 0.5, ..Default::default() };
        let smooth = SpectralParams { beta: 4.0, ..Default::default() };
        let a = SpectralField::new(rough, 9).sample_3d(1, 1, 2048);
        let b = SpectralField::new(smooth, 9).sample_3d(1, 1, 2048);
        let grad = |xs: &[f32]| -> f64 {
            xs.windows(2).map(|w| (w[1] - w[0]).abs() as f64).sum::<f64>() / (xs.len() - 1) as f64
        };
        assert!(
            grad(&a) > 2.0 * grad(&b),
            "rough grad {} should exceed smooth grad {}",
            grad(&a),
            grad(&b)
        );
    }

    #[test]
    fn sample_3d_layout_matches_eval() {
        let p = SpectralParams::default();
        let f = SpectralField::new(p, 3);
        let (nz, ny, nx) = (4, 5, 6);
        let v = f.sample_3d(nz, ny, nx);
        let idx = (2 * ny + 3) * nx + 1; // z=2,y=3,x=1
        let expect = f.eval(1.0 / nx as f64, 3.0 / ny as f64, 2.0 / nz as f64);
        assert_eq!(v[idx], expect);
    }
}
