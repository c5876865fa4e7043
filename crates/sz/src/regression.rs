//! SZ2-style per-block linear-regression predictor.
//!
//! For smooth-but-tilted regions the Lorenzo stencil wastes precision; SZ2
//! instead fits a hyperplane `v ≈ b0 + b1·i + b2·j + b3·k` to each small
//! block and predicts from the (stored) coefficients. Because the block
//! coordinates form a regular grid, the least-squares problem is separable:
//! after centering, each slope is an independent 1-D projection, so the fit
//! is O(block size) with no matrix solve.
//!
//! Coefficients are serialized as `f32`, making compressor and decompressor
//! predictions bit-identical.

/// Side length of regression blocks (SZ2 uses 6 for 3-D data).
pub const BLOCK_SIDE: usize = 6;

/// A fitted hyperplane for one block: `v(i,j,k) = c0 + c1·i + c2·j + c3·k`
/// with local (block-relative) coordinates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockCoeffs {
    /// Intercept and up to three slopes (unused slopes are 0).
    pub c: [f32; 4],
}

impl BlockCoeffs {
    /// Predict the value at local coordinate (i, j, k).
    #[inline]
    pub fn predict(&self, i: usize, j: usize, k: usize) -> f64 {
        self.row(j, k).at(i)
    }

    /// The predictor of row (j, k), with the `j` and `k` products taken
    /// once for the row instead of once per element.
    #[inline]
    pub fn row(&self, j: usize, k: usize) -> RowPredictor {
        let [c0, c1, c2, c3] = self.c.map(f64::from);
        RowPredictor { c0, c1, tj: c2 * j as f64, tk: c3 * k as f64 }
    }
}

/// A block's hyperplane along one row; see [`BlockCoeffs::row`].
#[derive(Debug, Clone, Copy)]
pub struct RowPredictor {
    c0: f64,
    c1: f64,
    tj: f64,
    tk: f64,
}

impl RowPredictor {
    /// The prediction at local column `i`: `c0 + c1·i + c2·j + c3·k`,
    /// summed left to right. Compressor and decompressor must agree on
    /// that order to the bit.
    #[inline]
    pub fn at(&self, i: usize) -> f64 {
        self.c0 + self.c1 * i as f64 + self.tj + self.tk
    }
}

/// The part of a fit that depends only on the block's extent (centroids
/// and the Σ(x−x̄)² denominators), so a caller fitting many blocks of one
/// extent works it out once.
#[derive(Debug, Clone, Copy)]
pub struct BlockFitter {
    extent: (usize, usize, usize),
    /// Centroid along i, j, k.
    centroid: [f64; 3],
    /// Σ(x−x̄)² along i, j, k, times the repetitions over the other two axes.
    denom: [f64; 3],
}

impl BlockFitter {
    /// Fitter for blocks of extent (nk, nj, ni).
    pub fn new(nk: usize, nj: usize, ni: usize) -> Self {
        let centroid = |e: usize| (e as f64 - 1.0) / 2.0;
        let sq = |e: usize| -> f64 {
            (0..e).map(|x| (x as f64 - centroid(e)).powi(2)).sum::<f64>()
        };
        BlockFitter {
            extent: (nk, nj, ni),
            centroid: [centroid(ni), centroid(nj), centroid(nk)],
            denom: [
                sq(ni) * (nj * nk) as f64,
                sq(nj) * (ni * nk) as f64,
                sq(nk) * (ni * nj) as f64,
            ],
        }
    }

    /// Fit a hyperplane to a block whose values are provided row-major in
    /// `vals` (length nk·nj·ni).
    ///
    /// Degenerate extents (length-1 axes) produce zero slopes along those
    /// axes.
    pub fn fit(&self, vals: &[f64]) -> BlockCoeffs {
        let (nk, nj, ni) = self.extent;
        debug_assert_eq!(vals.len(), nk * nj * ni);
        if vals.is_empty() {
            return BlockCoeffs { c: [0.0; 4] };
        }
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        let [ci, cj, ck] = self.centroid;
        let mut num = [0.0f64; 3]; // projections onto (i−ī), (j−j̄), (k−k̄)
        let mut idx = 0;
        for k in 0..nk {
            for j in 0..nj {
                for i in 0..ni {
                    let d = vals[idx] - mean;
                    num[0] += d * (i as f64 - ci);
                    num[1] += d * (j as f64 - cj);
                    num[2] += d * (k as f64 - ck);
                    idx += 1;
                }
            }
        }
        let slope = |axis: usize| if self.denom[axis] > 0.0 { num[axis] / self.denom[axis] } else { 0.0 };
        let (b1, b2, b3) = (slope(0), slope(1), slope(2));
        let b0 = mean - b1 * ci - b2 * cj - b3 * ck;
        BlockCoeffs { c: [b0 as f32, b1 as f32, b2 as f32, b3 as f32] }
    }
}

/// Fit a hyperplane to one block of extent (nk, nj, ni); see
/// [`BlockFitter::fit`].
pub fn fit_block(vals: &[f64], nk: usize, nj: usize, ni: usize) -> BlockCoeffs {
    BlockFitter::new(nk, nj, ni).fit(vals)
}

/// Σ|v − prediction| over a non-empty block in row-major order, abandoned
/// after the first row at which `stop(partial sum)` holds.
fn sum_abs_error(
    vals: &[f64],
    nj: usize,
    ni: usize,
    coeffs: &BlockCoeffs,
    mut stop: impl FnMut(f64) -> bool,
) -> f64 {
    let mut err = 0.0;
    for (r, row_vals) in vals.chunks(ni).enumerate() {
        let row = coeffs.row(r % nj, r / nj);
        for (i, v) in row_vals.iter().enumerate() {
            err += (v - row.at(i)).abs();
        }
        if stop(err) {
            break;
        }
    }
    err
}

/// Mean absolute prediction error of `coeffs` over a block.
pub fn block_abs_error(vals: &[f64], nk: usize, nj: usize, ni: usize, coeffs: &BlockCoeffs) -> f64 {
    debug_assert_eq!(vals.len(), nk * nj * ni);
    if vals.is_empty() {
        return 0.0;
    }
    sum_abs_error(vals, nj, ni, coeffs, |_| false) / vals.len() as f64
}

/// `block_abs_error(..) < limit`, decided without finishing the sum when
/// it can no longer come out below: the terms are non-negative, so the
/// running sum (and its quotient by the block size) only grows.
pub fn block_abs_error_below(
    vals: &[f64],
    nk: usize,
    nj: usize,
    ni: usize,
    coeffs: &BlockCoeffs,
    limit: f64,
) -> bool {
    debug_assert_eq!(vals.len(), nk * nj * ni);
    if vals.is_empty() {
        return 0.0 < limit;
    }
    let n = vals.len() as f64;
    sum_abs_error(vals, nj, ni, coeffs, |partial| partial / n >= limit) / n < limit
}

#[cfg(test)]
mod tests {
    use super::*;

    fn make_block<F: Fn(usize, usize, usize) -> f64>(
        nk: usize,
        nj: usize,
        ni: usize,
        f: F,
    ) -> Vec<f64> {
        let mut v = Vec::with_capacity(nk * nj * ni);
        for k in 0..nk {
            for j in 0..nj {
                for i in 0..ni {
                    v.push(f(i, j, k));
                }
            }
        }
        v
    }

    #[test]
    fn exact_on_planes() {
        let vals = make_block(6, 6, 6, |i, j, k| {
            1.5 + 0.25 * i as f64 - 0.75 * j as f64 + 2.0 * k as f64
        });
        let c = fit_block(&vals, 6, 6, 6);
        assert!(block_abs_error(&vals, 6, 6, 6, &c) < 1e-5);
        assert!((c.c[1] as f64 - 0.25).abs() < 1e-5);
        assert!((c.c[2] as f64 + 0.75).abs() < 1e-5);
        assert!((c.c[3] as f64 - 2.0).abs() < 1e-5);
    }

    #[test]
    fn constant_block_gives_intercept_only() {
        let vals = vec![7.0; 6 * 6 * 6];
        let c = fit_block(&vals, 6, 6, 6);
        assert!((c.c[0] - 7.0).abs() < 1e-6);
        assert_eq!(&c.c[1..], &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn handles_partial_blocks() {
        // Border blocks can be e.g. 2×6×3; slopes along length-1 axes are 0.
        let vals = make_block(1, 4, 3, |i, j, _| 2.0 * i as f64 + j as f64);
        let c = fit_block(&vals, 1, 4, 3);
        assert!(block_abs_error(&vals, 1, 4, 3, &c) < 1e-5);
        assert_eq!(c.c[3], 0.0);
    }

    #[test]
    fn regression_beats_mean_on_tilted_data() {
        let vals = make_block(6, 6, 6, |i, _, _| 10.0 * i as f64);
        let c = fit_block(&vals, 6, 6, 6);
        let mean_pred = BlockCoeffs { c: [c.c[0] + c.c[1] * 2.5, 0.0, 0.0, 0.0] };
        assert!(
            block_abs_error(&vals, 6, 6, 6, &c)
                < 0.2 * block_abs_error(&vals, 6, 6, 6, &mean_pred)
        );
    }

    #[test]
    fn row_predictor_is_the_left_to_right_sum() {
        // The decoder evaluates `predict`; the encoder's hoisted form must
        // be the same number, not just a close one.
        let c = BlockCoeffs { c: [1.0e-3, 0.3333333, -7.1, 2.5e4] };
        for k in 0..7 {
            for j in 0..7 {
                let row = c.row(j, k);
                for i in 0..7 {
                    let spelled_out = c.c[0] as f64
                        + c.c[1] as f64 * i as f64
                        + c.c[2] as f64 * j as f64
                        + c.c[3] as f64 * k as f64;
                    assert_eq!(row.at(i).to_bits(), spelled_out.to_bits());
                    assert_eq!(c.predict(i, j, k).to_bits(), spelled_out.to_bits());
                }
            }
        }
    }

    #[test]
    fn error_below_agrees_with_the_full_sum() {
        // Early abandonment must not change the comparison, at limits on
        // both sides of the true error, at the error itself and at the
        // values no error is below.
        let vals = make_block(6, 5, 4, |i, j, k| (i * i) as f64 - 0.3 * j as f64 + (k % 2) as f64);
        let c = fit_block(&vals, 6, 5, 4);
        let err = block_abs_error(&vals, 6, 5, 4, &c);
        assert!(err > 0.0);
        for limit in [0.0, err * 0.01, err * 0.5, err, err * 1.000001, err * 3.0, f64::INFINITY, f64::NAN] {
            assert_eq!(
                block_abs_error_below(&vals, 6, 5, 4, &c, limit),
                err < limit,
                "limit {limit}"
            );
        }
        assert!(block_abs_error_below(&[], 0, 0, 0, &c, 1.0));
        assert!(!block_abs_error_below(&[], 0, 0, 0, &c, 0.0));
    }

    #[test]
    fn empty_block_is_zero() {
        let c = fit_block(&[], 0, 0, 0);
        assert_eq!(c.c, [0.0; 4]);
        assert_eq!(block_abs_error(&[], 0, 0, 0, &c), 0.0);
    }
}
