//! SZ2-style per-block linear-regression predictor, as block-adaptive
//! streams (predictor bytes 1 and 3) carry it.
//!
//! For smooth-but-tilted regions the Lorenzo stencil wastes precision; SZ2
//! instead fits a hyperplane `v ≈ b0 + b1·i + b2·j + b3·k` to each small
//! block and predicts from the (stored) coefficients. On the lattice, where
//! the Lorenzo stencil reads exact indices, the fit won no block of the
//! fields this repository generates, so the writer no longer fits; the
//! decoder evaluates the stored hyperplanes ([`BlockCoeffs`]), and the fit
//! is kept for the test-only writers of those streams. Because the block
//! coordinates form a regular grid, the least-squares problem is separable:
//! after centering, each slope is an independent 1-D projection, so the fit
//! is O(block size) with no matrix solve.
//!
//! Coefficients are serialized as `f32`, making compressor and decompressor
//! predictions bit-identical.

/// Side length of regression blocks (SZ2 uses 6 for 3-D data); the chunked
/// container also cuts its chunks along it.
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
#[cfg(test)]
#[derive(Debug, Clone, Copy)]
pub(crate) struct BlockFitter {
    extent: (usize, usize, usize),
    /// Centroid along i, j, k.
    centroid: [f64; 3],
    /// Σ(x−x̄)² along i, j, k, times the repetitions over the other two axes.
    denom: [f64; 3],
}

#[cfg(test)]
impl BlockFitter {
    /// Fitter for blocks of extent (nk, nj, ni).
    pub(crate) fn new(nk: usize, nj: usize, ni: usize) -> Self {
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
    pub(crate) fn fit(&self, vals: &[f64]) -> BlockCoeffs {
        if vals.is_empty() {
            return BlockCoeffs { c: [0.0; 4] };
        }
        let [coeffs] = self.fit_lanes(vals.as_chunks::<1>().0);
        coeffs
    }

    /// [`BlockFitter::fit`] for `N` non-empty blocks at once, element `e`
    /// of block `l` at `vals[e][l]`. Each lane's sums take their terms in
    /// the order a block on its own gives them (row-major, the mean's
    /// starting where [`Iterator::sum`] starts), so a block's fit does not
    /// depend on what it is fitted beside; the loops over lanes carry no
    /// dependence, where one block's sums are serial chains.
    pub(crate) fn fit_lanes<const N: usize>(&self, vals: &[[f64; N]]) -> [BlockCoeffs; N] {
        let (nk, nj, ni) = self.extent;
        debug_assert_eq!(vals.len(), nk * nj * ni);
        let mut mean = [std::iter::empty::<f64>().sum::<f64>(); N];
        for v in vals {
            for l in 0..N {
                mean[l] += v[l];
            }
        }
        let mean = mean.map(|sum| sum / vals.len() as f64);
        let [ci, cj, ck] = self.centroid;
        let mut num = [[0.0f64; N]; 3]; // projections onto (i−ī), (j−j̄), (k−k̄)
        let mut rest = vals.iter();
        for k in 0..nk {
            for j in 0..nj {
                for (i, v) in rest.by_ref().take(ni).enumerate() {
                    let (wi, wj, wk) = (i as f64 - ci, j as f64 - cj, k as f64 - ck);
                    for l in 0..N {
                        let d = v[l] - mean[l];
                        num[0][l] += d * wi;
                        num[1][l] += d * wj;
                        num[2][l] += d * wk;
                    }
                }
            }
        }
        let slope = |axis: usize, l: usize| {
            if self.denom[axis] > 0.0 { num[axis][l] / self.denom[axis] } else { 0.0 }
        };
        std::array::from_fn(|l| {
            let (b1, b2, b3) = (slope(0, l), slope(1, l), slope(2, l));
            let b0 = mean[l] - b1 * ci - b2 * cj - b3 * ck;
            BlockCoeffs { c: [b0 as f32, b1 as f32, b2 as f32, b3 as f32] }
        })
    }
}

/// Fit a hyperplane to one block of extent (nk, nj, ni); see
/// [`BlockFitter::fit`].
#[cfg(test)]
pub(crate) fn fit_block(vals: &[f64], nk: usize, nj: usize, ni: usize) -> BlockCoeffs {
    BlockFitter::new(nk, nj, ni).fit(vals)
}

/// Whether the mean absolute prediction error of `coeffs` over a block is
/// below `limit`.
#[cfg(test)]
pub(crate) fn block_abs_error_below(
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
    let [below] = abs_error_below_lanes(vals.as_chunks::<1>().0, nj, ni, &[*coeffs], &[limit]);
    below
}

/// [`block_abs_error_below`] for `N` non-empty blocks of one extent at
/// once, element `e` of block `l` at `vals[e][l]`, each with its fit and
/// its limit. Every lane's Σ|v − prediction| takes its terms in row-major
/// order; the sums are abandoned after the first row at which no block can
/// come out below its limit any more: the terms are non-negative, so a
/// running sum (and its quotient by the block size) only grows, and a
/// block that was past its limit rows ago still is.
#[cfg(test)]
pub(crate) fn abs_error_below_lanes<const N: usize>(
    vals: &[[f64; N]],
    nj: usize,
    ni: usize,
    coeffs: &[BlockCoeffs; N],
    limit: &[f64; N],
) -> [bool; N] {
    let n = vals.len() as f64;
    let c: [[f64; N]; 4] = std::array::from_fn(|t| std::array::from_fn(|l| coeffs[l].c[t] as f64));
    let mut err = [0.0f64; N];
    for (r, row_vals) in vals.chunks(ni).enumerate() {
        let (fj, fk) = ((r % nj) as f64, (r / nj) as f64);
        for (i, v) in row_vals.iter().enumerate() {
            for l in 0..N {
                // `RowPredictor::at`, term for term.
                let pred = c[0][l] + c[1][l] * i as f64 + c[2][l] * fj + c[3][l] * fk;
                err[l] += (v[l] - pred).abs();
            }
        }
        if (0..N).all(|l| err[l] / n >= limit[l]) {
            break;
        }
    }
    std::array::from_fn(|l| err[l] / n < limit[l])
}

/// The fit one block at a time and one term after the other, as it was
/// written before blocks were fitted side by side: the specification the
/// lanes are tested against, here and by the block encoder's reference.
#[cfg(test)]
pub(crate) fn fit_block_reference(vals: &[f64], nk: usize, nj: usize, ni: usize) -> BlockCoeffs {
    let fitter = BlockFitter::new(nk, nj, ni);
    if vals.is_empty() {
        return BlockCoeffs { c: [0.0; 4] };
    }
    let mean = vals.iter().sum::<f64>() / vals.len() as f64;
    let [ci, cj, ck] = fitter.centroid;
    let mut num = [0.0f64; 3];
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
    let slope = |axis: usize| if fitter.denom[axis] > 0.0 { num[axis] / fitter.denom[axis] } else { 0.0 };
    let (b1, b2, b3) = (slope(0), slope(1), slope(2));
    let b0 = mean - b1 * ci - b2 * cj - b3 * ck;
    BlockCoeffs { c: [b0 as f32, b1 as f32, b2 as f32, b3 as f32] }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Mean absolute prediction error of `coeffs` over a block: the whole
    /// sum, one term after the other.
    fn block_abs_error(vals: &[f64], _nk: usize, nj: usize, ni: usize, coeffs: &BlockCoeffs) -> f64 {
        let mut err = 0.0;
        for (n, v) in vals.iter().enumerate() {
            err += (v - coeffs.predict(n % ni, n / ni % nj, n / (ni * nj))).abs();
        }
        if vals.is_empty() { 0.0 } else { err / vals.len() as f64 }
    }

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
    fn lanes_are_the_per_block_fit_and_comparison() {
        // Four blocks side by side: a curved one, a plane (error next to
        // nothing), all -0.0 (the mean keeps the sign), one holding a NaN.
        let blocks = [
            make_block(6, 5, 4, |i, j, k| (i * i) as f64 - 0.3 * j as f64 + (k % 2) as f64),
            make_block(6, 5, 4, |i, j, k| 1.5 + 0.1 * i as f64 - 0.7 * j as f64 + 2.3 * k as f64),
            vec![-0.0; 120],
            make_block(6, 5, 4, |i, j, k| if (i, j, k) == (2, 3, 1) { f64::NAN } else { 0.1 * i as f64 }),
        ];
        let vals: Vec<[f64; 4]> = (0..120).map(|e| blocks.each_ref().map(|block| block[e])).collect();
        let fitter = BlockFitter::new(6, 5, 4);
        let coeffs = fitter.fit_lanes(&vals);
        let bits = |c: BlockCoeffs| c.c.map(f32::to_bits);
        for (l, block) in blocks.iter().enumerate() {
            let want = fit_block_reference(block, 6, 5, 4);
            assert_eq!(bits(coeffs[l]), bits(want), "lane {l}");
            assert_eq!(bits(fitter.fit(block)), bits(want), "block {l} on its own");
        }
        assert_eq!(coeffs[2].c[0].to_bits(), (-0.0f32).to_bits());
        // Limits on both sides of each block's error, so the lanes stop
        // at different rows, all of them early, or never.
        let err = [0, 1, 2, 3].map(|l| block_abs_error(&blocks[l], 6, 5, 4, &coeffs[l]));
        assert!(err[0] > 0.0 && err[1] > 0.0 && err[2] == 0.0 && err[3].is_nan(), "{err:?}");
        for scale in [[0.0; 4], [0.5, 2.0, 1.0, 1.0], [2.0, 0.5, 1.0, 1.0], [1e-3; 4], [1e3; 4]] {
            let limit = [0, 1, 2, 3].map(|l| if err[l] > 0.0 { err[l] * scale[l] } else { scale[l] });
            let below = abs_error_below_lanes(&vals, 5, 4, &coeffs, &limit);
            for l in 0..4 {
                assert_eq!(below[l], err[l] < limit[l], "lane {l} at limit {}", limit[l]);
                let alone = block_abs_error_below(&blocks[l], 6, 5, 4, &coeffs[l], limit[l]);
                assert_eq!(alone, err[l] < limit[l], "block {l} on its own at limit {}", limit[l]);
            }
        }
    }

    #[test]
    fn empty_block_is_zero() {
        let c = fit_block(&[], 0, 0, 0);
        assert_eq!(c.c, [0.0; 4]);
        assert_eq!(block_abs_error(&[], 0, 0, 0, &c), 0.0);
    }
}
