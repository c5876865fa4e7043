#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! # lcpio-datagen — synthetic scientific datasets
//!
//! The paper compresses four SDRBench datasets (Table I plus the
//! Hurricane-ISABEL validation set). The raw archives are multi-GB downloads
//! that are unavailable offline, so this crate synthesizes fields with the
//! same *dimensionality, smoothness class, and value distribution* — the
//! properties that drive lossy-compressor behaviour (prediction accuracy,
//! quantization-bin occupancy, transform-coefficient decay).
//!
//! | Dataset | Paper dims | Generator |
//! |---|---|---|
//! | CESM-ATM | 26 × 1800 × 3600 | layered 2-D climate fields with latitudinal gradients ([`cesm`]) |
//! | HACC | 1 × 280,953,867 | clustered 1-D particle coordinates ([`hacc`]) |
//! | NYX | 512 × 512 × 512 | log-normal cosmological density / velocity fields ([`nyx`]) |
//! | Hurricane-ISABEL | 100 × 500 × 500 | vortex + turbulence weather fields ([`isabel`]) |
//!
//! All generators are deterministic given a seed, and support *scaled*
//! variants that shrink each dimension while preserving spectral shape, so
//! experiments run in milliseconds while the [`Dataset`] descriptor still
//! reports the full-size byte counts used for energy extrapolation.

pub mod cesm;
pub mod field;
pub mod hacc;
pub mod isabel;
pub mod metrics;
pub mod nyx;
pub mod spectral;

pub use field::{Dims, Field};

use serde::{Deserialize, Serialize};

/// Identifies one of the paper's datasets (Table I + §VI-A validation set).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Dataset {
    /// Community Earth System Model, atmosphere component. 26×1800×3600.
    CesmAtm,
    /// Hardware/Hybrid Accelerated Cosmology Code particle data. 1-D.
    Hacc,
    /// NYX adaptive-mesh cosmology. 512³.
    Nyx,
    /// Hurricane-ISABEL WRF weather simulation. 100×500×500 (validation only).
    Isabel,
}

impl Dataset {
    /// All datasets used for *model construction* in the paper (Table I).
    pub const MODEL_SETS: [Dataset; 3] = [Dataset::CesmAtm, Dataset::Hacc, Dataset::Nyx];

    /// Human-readable name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            Dataset::CesmAtm => "CESM-ATM",
            Dataset::Hacc => "HACC",
            Dataset::Nyx => "NYX",
            Dataset::Isabel => "Hurricane-ISABEL",
        }
    }

    /// Full-size dimensions as reported in Table I / §VI-A.
    pub fn full_dims(self) -> Dims {
        match self {
            Dataset::CesmAtm => Dims::d3(26, 1800, 3600),
            Dataset::Hacc => Dims::d1(280_953_867),
            Dataset::Nyx => Dims::d3(512, 512, 512),
            Dataset::Isabel => Dims::d3(100, 500, 500),
        }
    }

    /// Size in bytes of one full-size field (f32 elements).
    pub fn full_field_bytes(self) -> u64 {
        self.full_dims().len() as u64 * 4
    }

    /// Generate a scaled-down field for this dataset.
    ///
    /// `scale` divides the *total element count* (approximately): linear
    /// extents shrink by `scale^(1/d)` for a d-dimensional set, so a given
    /// scale produces comparably sized samples across datasets. `seed`
    /// makes the field reproducible. The returned field's
    /// [`Field::full_bytes`] still reports the paper's full-size byte
    /// count, which the power simulator uses to extrapolate work to
    /// full-dataset magnitude.
    pub fn generate(self, scale: usize, seed: u64) -> Field {
        let scale = scale.max(1) as f64;
        let mut f = match self {
            Dataset::CesmAtm => {
                // 26 levels are structural; shrink the two horizontal dims.
                let s = scale.sqrt().max(1.0);
                cesm::generate_scaled(s.round() as usize, seed)
            }
            Dataset::Hacc => hacc::generate_scaled(scale.round() as usize, seed),
            Dataset::Nyx => {
                let side = ((512.0 / scale.cbrt()).round() as usize).max(8);
                nyx::generate_scaled(side, seed)
            }
            Dataset::Isabel => {
                let s = scale.cbrt().round().max(1.0) as usize;
                isabel::generate_scaled(s, seed, isabel::IsabelField::U)
            }
        };
        f.set_full_bytes(self.full_field_bytes());
        f
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_dims_match_paper_table1() {
        assert_eq!(Dataset::CesmAtm.full_dims().len(), 26 * 1800 * 3600);
        assert_eq!(Dataset::Hacc.full_dims().len(), 280_953_867);
        assert_eq!(Dataset::Nyx.full_dims().len(), 512 * 512 * 512);
        assert_eq!(Dataset::Isabel.full_dims().len(), 100 * 500 * 500);
    }

    #[test]
    fn full_field_sizes_match_paper_table1_within_rounding() {
        // Table I reports 673.9MB, 1046.9MB (split HACC xx field ~1.0GB), 536.9MB.
        let mb = |b: u64| b as f64 / 1e6;
        assert!((mb(Dataset::CesmAtm.full_field_bytes()) - 673.9).abs() < 1.0);
        assert!((mb(Dataset::Hacc.full_field_bytes()) - 1123.8).abs() < 1.0);
        assert!((mb(Dataset::Nyx.full_field_bytes()) - 536.9).abs() < 1.0);
    }

    #[test]
    fn generate_is_deterministic() {
        for ds in [Dataset::CesmAtm, Dataset::Hacc, Dataset::Nyx, Dataset::Isabel] {
            let a = ds.generate(16384, 7);
            let b = ds.generate(16384, 7);
            assert_eq!(a.data, b.data, "{} not deterministic", ds.name());
        }
    }

    #[test]
    fn generate_scaled_respects_full_bytes() {
        let f = Dataset::Nyx.generate(4096, 1);
        assert_eq!(f.full_bytes(), Dataset::Nyx.full_field_bytes());
        assert!(f.data.len() < Dataset::Nyx.full_dims().len());
    }

    #[test]
    fn scale_balances_sample_sizes_across_datasets() {
        // The same scale should give samples within ~20× of each other,
        // despite the datasets' different dimensionalities.
        let sizes: Vec<usize> = Dataset::MODEL_SETS
            .iter()
            .map(|ds| ds.generate(16384, 0).data.len())
            .collect();
        let min = *sizes.iter().min().unwrap() as f64;
        let max = *sizes.iter().max().unwrap() as f64;
        assert!(max / min < 20.0, "sizes {sizes:?}");
    }

    #[test]
    fn different_seeds_differ() {
        let a = Dataset::Nyx.generate(16384, 1);
        let b = Dataset::Nyx.generate(16384, 2);
        assert_ne!(a.data, b.data);
    }
}
