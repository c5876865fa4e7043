//! Field container and dimension descriptor shared by all generators and
//! both compressors.

use serde::{Deserialize, Serialize};

/// Dimensions of a scientific field, between 1-D and 4-D.
///
/// Stored slowest-varying first (C order), matching how SDRBench distributes
/// its binary dumps and how SZ/ZFP index blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Dims {
    /// Extent of each dimension; unused trailing dimensions are 1.
    extents: [usize; 4],
    /// Number of meaningful dimensions (1..=4).
    rank: u8,
}

impl Dims {
    /// 1-D dims.
    pub fn d1(n: usize) -> Self {
        Dims { extents: [n, 1, 1, 1], rank: 1 }
    }

    /// 2-D dims (rows × cols, row-major).
    pub fn d2(ny: usize, nx: usize) -> Self {
        Dims { extents: [ny, nx, 1, 1], rank: 2 }
    }

    /// 3-D dims (slowest × middle × fastest).
    pub fn d3(nz: usize, ny: usize, nx: usize) -> Self {
        Dims { extents: [nz, ny, nx, 1], rank: 3 }
    }

    /// Number of meaningful dimensions.
    pub fn rank(&self) -> usize {
        self.rank as usize
    }

    /// Extents of the meaningful dimensions.
    pub fn extents(&self) -> &[usize] {
        &self.extents[..self.rank as usize]
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.extents().iter().product()
    }

    /// True when the field has no elements (impossible by construction, but
    /// kept for API completeness).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Extent of the fastest-varying dimension.
    pub fn fastest(&self) -> usize {
        self.extents[self.rank as usize - 1]
    }

    /// Linear index of an (up-to) 4-D coordinate, slowest first.
    pub fn index(&self, coord: &[usize]) -> usize {
        debug_assert_eq!(coord.len(), self.rank());
        let mut idx = 0usize;
        for (c, e) in coord.iter().zip(self.extents()) {
            debug_assert!(c < e);
            idx = idx * e + c;
        }
        idx
    }
}

impl std::fmt::Display for Dims {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut first = true;
        for e in self.extents() {
            if !first {
                write!(f, "x")?;
            }
            write!(f, "{e}")?;
            first = false;
        }
        Ok(())
    }
}

/// An owned floating-point field plus its logical shape.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Field {
    /// Name of the physical quantity (e.g. `"velocity_x"`).
    pub name: String,
    /// Flat element storage, C order.
    pub data: Vec<f32>,
    dims: Dims,
    /// Size in bytes of the *full-scale* field this sample represents.
    full_bytes: u64,
}

impl Field {
    /// Wrap data with its shape. Panics if `data.len() != dims.len()`.
    pub fn new(name: impl Into<String>, data: Vec<f32>, dims: Dims) -> Self {
        assert_eq!(data.len(), dims.len(), "data length must match dims");
        let full = data.len() as u64 * 4;
        Field { name: name.into(), data, dims, full_bytes: full }
    }

    /// Shape of the stored (possibly scaled-down) data.
    pub fn dims(&self) -> Dims {
        self.dims
    }

    /// Bytes of the stored sample (`len * 4`).
    pub fn sample_bytes(&self) -> u64 {
        self.data.len() as u64 * 4
    }

    /// Bytes of the full-scale field this sample stands in for.
    pub fn full_bytes(&self) -> u64 {
        self.full_bytes
    }

    /// Record the full-scale byte count (used by dataset descriptors).
    pub fn set_full_bytes(&mut self, bytes: u64) {
        self.full_bytes = bytes;
    }

    /// Ratio `full_bytes / sample_bytes`, used to extrapolate work profiles.
    pub fn scale_factor(&self) -> f64 {
        self.full_bytes as f64 / self.sample_bytes() as f64
    }

    /// Minimum and maximum finite values.
    pub fn value_range(&self) -> (f32, f32) {
        let mut lo = f32::INFINITY;
        let mut hi = f32::NEG_INFINITY;
        for &v in &self.data {
            if v.is_finite() {
                lo = lo.min(v);
                hi = hi.max(v);
            }
        }
        (lo, hi)
    }

    /// Arithmetic mean of the values.
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.data.iter().map(|&v| v as f64).sum::<f64>() / self.data.len() as f64
    }

    /// Population standard deviation of the values.
    pub fn std_dev(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        let m = self.mean();
        let var = self
            .data
            .iter()
            .map(|&v| {
                let d = v as f64 - m;
                d * d
            })
            .sum::<f64>()
            / self.data.len() as f64;
        var.sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dims_roundtrip() {
        let d = Dims::d3(4, 5, 6);
        assert_eq!(d.rank(), 3);
        assert_eq!(d.len(), 120);
        assert_eq!(d.extents(), &[4, 5, 6]);
        assert_eq!(d.fastest(), 6);
        assert_eq!(format!("{d}"), "4x5x6");
    }

    #[test]
    fn dims_index_is_row_major() {
        let d = Dims::d3(2, 3, 4);
        assert_eq!(d.index(&[0, 0, 0]), 0);
        assert_eq!(d.index(&[0, 0, 1]), 1);
        assert_eq!(d.index(&[0, 1, 0]), 4);
        assert_eq!(d.index(&[1, 0, 0]), 12);
        assert_eq!(d.index(&[1, 2, 3]), 23);
    }

    #[test]
    fn field_stats() {
        let f = Field::new("t", vec![1.0, 2.0, 3.0, 4.0], Dims::d1(4));
        assert_eq!(f.value_range(), (1.0, 4.0));
        assert!((f.mean() - 2.5).abs() < 1e-12);
        assert!((f.std_dev() - (1.25f64).sqrt()).abs() < 1e-12);
        assert_eq!(f.sample_bytes(), 16);
        assert!((f.scale_factor() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "data length must match dims")]
    fn field_len_mismatch_panics() {
        let _ = Field::new("bad", vec![0.0; 3], Dims::d1(4));
    }

    #[test]
    fn value_range_skips_non_finite() {
        let f = Field::new("t", vec![f32::NAN, 1.0, f32::INFINITY, -2.0], Dims::d1(4));
        assert_eq!(f.value_range(), (-2.0, 1.0));
    }
}
