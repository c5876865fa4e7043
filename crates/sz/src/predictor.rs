//! Lorenzo predictors over reconstructed data.
//!
//! SZ predicts each value from already-*reconstructed* neighbours (not the
//! originals!) so the decompressor — which only has reconstructed values —
//! computes bit-identical predictions. Out-of-bounds neighbours are treated
//! as 0, matching SZ's behaviour on array borders.
//!
//! The d-dimensional Lorenzo predictor is the inclusion–exclusion sum of
//! the 2^d − 1 neighbours of the "lower corner" hypercube; it is exact for
//! polynomials of degree < d and extremely cheap, which is why it is SZ's
//! workhorse for smooth fields.

/// Order-1 1-D prediction: previous value.
#[inline]
pub fn lorenzo_1d(recon: &[f64], i: usize) -> f64 {
    if i >= 1 {
        recon[i - 1]
    } else {
        0.0
    }
}

/// 3-D Lorenzo prediction at (k, j, i) in an nz×ny×nx grid.
#[inline]
pub fn lorenzo_3d(recon: &[f64], ny: usize, nx: usize, k: usize, j: usize, i: usize) -> f64 {
    let at = |kk: isize, jj: isize, ii: isize| -> f64 {
        if kk < 0 || jj < 0 || ii < 0 {
            0.0
        } else {
            recon[(kk as usize * ny + jj as usize) * nx + ii as usize]
        }
    };
    let (k, j, i) = (k as isize, j as isize, i as isize);
    at(k, j, i - 1) + at(k, j - 1, i) + at(k - 1, j, i)
        - at(k, j - 1, i - 1)
        - at(k - 1, j, i - 1)
        - at(k - 1, j - 1, i)
        + at(k - 1, j - 1, i - 1)
}

/// `out[idx] = row[i0 + idx] − row[i0 + idx − 1]` (left term 0 at i = 0).
#[inline]
fn diff_scan(row: &[f64], i0: usize, out: &mut [f64]) {
    let mut s = 0usize;
    if i0 == 0 {
        out[0] = row[0];
        s = 1;
    }
    for (idx, x) in out.iter_mut().enumerate().skip(s) {
        let i = i0 + idx;
        *x = row[i] - row[i - 1];
    }
}

/// Partial 3-D Lorenzo sums for row (k, j), columns `i0..i1`, written into
/// `out[..i1 − i0]`: every stencil term *except* the current row's left
/// neighbour. The full prediction at column `i` is
/// `out[i − i0] + recon[(k·ny + j)·nx + i − 1]` (left term 0 at i = 0).
///
/// The body is elementwise arithmetic over the previous row/plane — no
/// loop-carried dependence — so the compiler autovectorizes it; Lorenzo's
/// inherent serial scan is confined to the caller's single left-neighbour
/// add. The terms are associated differently than in [`lorenzo_3d`], so
/// predictions can differ by FP rounding; compressor and decompressor must
/// both use the same helper (they do), which keeps streams self-consistent.
#[allow(clippy::too_many_arguments)]
pub fn lorenzo_3d_row_partial(
    recon: &[f64],
    ny: usize,
    nx: usize,
    k: usize,
    j: usize,
    i0: usize,
    i1: usize,
    out: &mut [f64],
) {
    let n = i1 - i0;
    let out = &mut out[..n];
    if n == 0 {
        return;
    }
    let base = |kk: usize, jj: usize| (kk * ny + jj) * nx;
    match (j > 0, k > 0) {
        (false, false) => out.fill(0.0),
        (true, false) => diff_scan(&recon[base(k, j - 1)..][..nx], i0, out),
        (false, true) => diff_scan(&recon[base(k - 1, j)..][..nx], i0, out),
        (true, true) => {
            let u = &recon[base(k, j - 1)..][..nx]; // same plane, row above
            let p = &recon[base(k - 1, j)..][..nx]; // plane below, same row
            let d = &recon[base(k - 1, j - 1)..][..nx]; // plane below, row above
            let mut s = 0usize;
            if i0 == 0 {
                out[0] = u[0] + p[0] - d[0];
                s = 1;
            }
            for (idx, x) in out.iter_mut().enumerate().skip(s) {
                let i = i0 + idx;
                *x = (u[i] + p[i] - d[i]) - (u[i - 1] + p[i - 1] - d[i - 1]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lorenzo_1d_borders() {
        let r = [3.0, 5.0, 7.0];
        assert_eq!(lorenzo_1d(&r, 0), 0.0);
        assert_eq!(lorenzo_1d(&r, 1), 3.0);
        assert_eq!(lorenzo_1d(&r, 2), 5.0);
    }

    #[test]
    fn lorenzo_3d_exact_on_bilinear() {
        // Degree-2 terms like x·y are also captured by the 3-D stencil.
        let (nz, ny, nx) = (4, 5, 6);
        let mut r = vec![0.0; nz * ny * nx];
        for k in 0..nz {
            for j in 0..ny {
                for i in 0..nx {
                    r[(k * ny + j) * nx + i] =
                        1.0 + 2.0 * k as f64 + 3.0 * j as f64 + 4.0 * i as f64
                            + 0.5 * (k * j) as f64;
                }
            }
        }
        for k in 1..nz {
            for j in 1..ny {
                for i in 1..nx {
                    let p = lorenzo_3d(&r, ny, nx, k, j, i);
                    let v = r[(k * ny + j) * nx + i];
                    assert!((p - v).abs() < 1e-9, "({k},{j},{i}) p={p} v={v}");
                }
            }
        }
    }

    #[test]
    fn row_partial_plus_left_matches_pointwise_stencil() {
        // partial + left must equal lorenzo_3d up to FP re-association.
        let (nz, ny, nx) = (3, 4, 9);
        let mut r = vec![0.0; nz * ny * nx];
        for (idx, v) in r.iter_mut().enumerate() {
            *v = ((idx as f64) * 0.37).sin() * 100.0 + idx as f64;
        }
        let mut rowp = vec![0.0; nx];
        for k in 0..nz {
            for j in 0..ny {
                // Exercise both full rows and segments (chunk interiors).
                for (i0, i1) in [(0usize, nx), (2, 7), (5, nx)] {
                    lorenzo_3d_row_partial(&r, ny, nx, k, j, i0, i1, &mut rowp);
                    for i in i0..i1 {
                        let left = if i > 0 { r[(k * ny + j) * nx + i - 1] } else { 0.0 };
                        let got = rowp[i - i0] + left;
                        let want = lorenzo_3d(&r, ny, nx, k, j, i);
                        assert!(
                            (got - want).abs() <= 1e-9 * (1.0 + want.abs()),
                            "(k={k},j={j},i={i}) got={got} want={want}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn lorenzo_3d_borders_use_zero() {
        let r = vec![1.0; 8]; // 2x2x2 of ones
        // At the origin all neighbours are out of bounds → prediction 0.
        assert_eq!(lorenzo_3d(&r, 2, 2, 0, 0, 0), 0.0);
        // At (1,1,1) all neighbours exist: 3·1 − 3·1 + 1 = 1.
        assert_eq!(lorenzo_3d(&r, 2, 2, 1, 1, 1), 1.0);
    }
}
