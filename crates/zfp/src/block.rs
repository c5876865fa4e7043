//! Block gather/scatter.
//!
//! ZFP partitions a d-dimensional array into 4^d blocks and codes each
//! independently. Partial border blocks are padded by edge replication —
//! the decoder simply never scatters the padded lanes back.

/// Block side length (fixed at 4 in ZFP).
pub const SIDE: usize = 4;

/// Geometry of the array being coded, after fusing 4-D inputs to 3-D.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Geom {
    /// Slowest extent.
    pub nz: usize,
    /// Middle extent.
    pub ny: usize,
    /// Fastest extent.
    pub nx: usize,
    /// Effective dimensionality of the block transform (1, 2, or 3).
    pub d: usize,
}

impl Geom {
    /// Build from user dims (1–4 entries, slowest first). Rejects empty
    /// axes and products that overflow `usize`.
    pub fn new(dims: &[usize]) -> Option<Geom> {
        if dims.is_empty() || dims.len() > 4 || dims.contains(&0) {
            return None;
        }
        dims.iter().try_fold(1usize, |acc, &d| acc.checked_mul(d))?;
        Some(match dims.len() {
            1 => Geom { nz: 1, ny: 1, nx: dims[0], d: 1 },
            2 => Geom { nz: 1, ny: dims[0], nx: dims[1], d: 2 },
            3 => Geom { nz: dims[0], ny: dims[1], nx: dims[2], d: 3 },
            _ => Geom { nz: dims[0] * dims[1], ny: dims[2], nx: dims[3], d: 3 },
        })
    }

    /// Number of elements in one block for this dimensionality (4^d).
    pub fn block_len(&self) -> usize {
        SIDE.pow(self.d as u32)
    }

    /// Number of blocks along (z, y, x).
    pub fn block_counts(&self) -> (usize, usize, usize) {
        let c = |e: usize| e.div_ceil(SIDE);
        match self.d {
            1 => (1, 1, c(self.nx)),
            2 => (1, c(self.ny), c(self.nx)),
            _ => (c(self.nz), c(self.ny), c(self.nx)),
        }
    }

    /// Total number of blocks.
    pub fn num_blocks(&self) -> usize {
        let (bz, by, bx) = self.block_counts();
        bz * by * bx
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.nz * self.ny * self.nx
    }

    /// True when the array is empty (impossible after validation).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// View a slice of exactly `N` elements as one block.
///
/// # Panics
/// When the slice is not `N` long.
#[inline]
pub(crate) fn as_block<T, const N: usize>(data: &[T]) -> &[T; N] {
    data.try_into().expect("a ZFP block of N elements")
}

/// [`as_block`] for a mutable slice.
#[inline]
pub(crate) fn as_block_mut<T, const N: usize>(data: &mut [T]) -> &mut [T; N] {
    data.try_into().expect("a ZFP block of N elements")
}

/// Extents of a block of `N = 4^d` elements along (z, y); x is always
/// [`SIDE`]. The axes a lower-rank block lacks have extent 1, which is
/// also what [`Geom`] gives them, so one loop nest serves every rank.
const fn block_extents<const N: usize>() -> (usize, usize) {
    (if N >= 64 { SIDE } else { 1 }, if N >= 16 { SIDE } else { 1 })
}

/// True when block `(bk, bj, bi)` lies wholly inside the array.
#[inline]
fn is_interior<const N: usize>(g: &Geom, (bk, bj, bi): (usize, usize, usize)) -> bool {
    let (sz, sy) = block_extents::<N>();
    (bi + 1) * SIDE <= g.nx && bj * SIDE + sy <= g.ny && bk * SIDE + sz <= g.nz
}

/// Gather block `(bk, bj, bi)` (`N = 4^d` elements), padding partial
/// blocks by replicating the nearest valid sample. Fully interior blocks
/// copy rows straight from the field with no per-element clamping.
#[inline]
pub fn gather<T: Copy, const N: usize>(
    data: &[T],
    g: &Geom,
    at: (usize, usize, usize),
    out: &mut [T; N],
) {
    debug_assert_eq!(N, g.block_len());
    let (sz, sy) = block_extents::<N>();
    let (k0, j0, i0) = (at.0 * SIDE, at.1 * SIDE, at.2 * SIDE);
    let interior = is_interior::<N>(g, at);
    for k in 0..sz {
        for j in 0..sy {
            let row = &mut out[(k * sy + j) * SIDE..][..SIDE];
            if interior {
                let src = ((k0 + k) * g.ny + j0 + j) * g.nx + i0;
                row.copy_from_slice(&data[src..src + SIDE]);
            } else {
                let src = ((k0 + k).min(g.nz - 1) * g.ny + (j0 + j).min(g.ny - 1)) * g.nx;
                for (i, o) in row.iter_mut().enumerate() {
                    *o = data[src + (i0 + i).min(g.nx - 1)];
                }
            }
        }
    }
}

/// Scatter a decoded block back, skipping padded lanes. Fully interior
/// blocks take the mirror row copy of [`gather`].
#[inline]
pub fn scatter<T: Copy, const N: usize>(
    block: &[T; N],
    g: &Geom,
    at: (usize, usize, usize),
    data: &mut [T],
) {
    debug_assert_eq!(N, g.block_len());
    let (sz, sy) = block_extents::<N>();
    let (k0, j0, i0) = (at.0 * SIDE, at.1 * SIDE, at.2 * SIDE);
    let interior = is_interior::<N>(g, at);
    for k in 0..sz.min(g.nz - k0) {
        for j in 0..sy.min(g.ny - j0) {
            let row = &block[(k * sy + j) * SIDE..][..SIDE];
            let dst = ((k0 + k) * g.ny + j0 + j) * g.nx + i0;
            if interior {
                data[dst..dst + SIDE].copy_from_slice(row);
            } else {
                let valid = SIDE.min(g.nx - i0);
                data[dst..dst + valid].copy_from_slice(&row[..valid]);
            }
        }
    }
}

/// The gather rule as a formula, for the tests here and the reference
/// block loop in `pipeline`.
#[cfg(test)]
pub(crate) mod reference {
    use super::{Geom, SIDE};

    /// Field index of lane `idx` of block `at`, clamped to the nearest
    /// valid sample, and whether the lane lies inside the field.
    pub(crate) fn lane(g: &Geom, at: (usize, usize, usize), idx: usize) -> (usize, bool) {
        let (i, j, k) = match g.d {
            1 => (idx, 0, 0),
            2 => (idx % SIDE, idx / SIDE, 0),
            _ => (idx % SIDE, (idx / SIDE) % SIDE, idx / (SIDE * SIDE)),
        };
        let (k, j, i) = (at.0 * SIDE + k, at.1 * SIDE + j, at.2 * SIDE + i);
        let inside = k < g.nz && j < g.ny && i < g.nx;
        ((k.min(g.nz - 1) * g.ny + j.min(g.ny - 1)) * g.nx + i.min(g.nx - 1), inside)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geom_validation() {
        assert!(Geom::new(&[]).is_none());
        assert!(Geom::new(&[0]).is_none());
        assert!(Geom::new(&[1, 2, 3, 4, 5]).is_none());
        let g = Geom::new(&[10]).unwrap();
        assert_eq!((g.d, g.nx), (1, 10));
        let g = Geom::new(&[3, 5]).unwrap();
        assert_eq!((g.d, g.ny, g.nx), (2, 3, 5));
        let g = Geom::new(&[2, 3, 4, 5]).unwrap();
        assert_eq!((g.d, g.nz, g.ny, g.nx), (3, 6, 4, 5));
    }

    #[test]
    fn block_counts_round_up() {
        let g = Geom::new(&[5, 9]).unwrap();
        assert_eq!(g.block_counts(), (1, 2, 3));
        assert_eq!(g.num_blocks(), 6);
        assert_eq!(g.block_len(), 16);
    }

    #[test]
    fn gather_pads_by_replication() {
        let g = Geom::new(&[5]).unwrap(); // one full block + one partial
        let data = [1.0, 2.0, 3.0, 4.0, 5.0];
        let mut block = [0.0f32; 4];
        gather(&data, &g, (0, 0, 1), &mut block);
        assert_eq!(block, [5.0, 5.0, 5.0, 5.0]);
    }

    #[test]
    fn scatter_skips_padded_lanes() {
        let g = Geom::new(&[5]).unwrap();
        let mut out = [0.0f32; 5];
        scatter(&[9.0, 8.0, 7.0, 6.0], &g, (0, 0, 1), &mut out);
        assert_eq!(out, [0.0, 0.0, 0.0, 0.0, 9.0]);
    }

    /// Every block of a geometry with interior and border blocks: the
    /// gather equals the clamp formula element by element, and scattering
    /// each gathered block rebuilds the field (padded lanes never land).
    fn check_geometry<const N: usize>(dims: &[usize]) {
        let g = Geom::new(dims).unwrap();
        let data: Vec<f32> = (0..g.len()).map(|i| (i * 13 % 101) as f32).collect();
        let mut rebuilt = vec![-1.0f32; g.len()];
        let (bz, by, bx) = g.block_counts();
        for bk in 0..bz {
            for bj in 0..by {
                for bi in 0..bx {
                    let mut block = [0.0f32; N];
                    gather(&data, &g, (bk, bj, bi), &mut block);
                    for (idx, &got) in block.iter().enumerate() {
                        let want = data[reference::lane(&g, (bk, bj, bi), idx).0];
                        assert_eq!(got, want, "block ({bk},{bj},{bi}) lane {idx} dims {dims:?}");
                    }
                    scatter(&block, &g, (bk, bj, bi), &mut rebuilt);
                }
            }
        }
        assert_eq!(rebuilt, data, "dims {dims:?}");
    }

    #[test]
    fn gather_matches_clamp_formula_and_scatter_inverts_it() {
        for dims in [vec![4usize], vec![9], vec![3]] {
            check_geometry::<4>(&dims);
        }
        for dims in [vec![4usize, 8], vec![9, 10], vec![1, 7], vec![5, 3]] {
            check_geometry::<16>(&dims);
        }
        for dims in [vec![6usize, 9, 10], vec![5, 6, 7], vec![1, 1, 1], vec![2, 3, 8, 9]] {
            check_geometry::<64>(&dims);
        }
    }
}
