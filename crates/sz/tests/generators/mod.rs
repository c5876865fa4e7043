//! Field generators shared by the crate's equivalence and format tests
//! (this file is a module of `simd_scalar_equivalence.rs` and
//! `format_regression.rs` and, through `#[path]`, of the library's own unit
//! tests, where `lcpio_sz` names the crate itself): values from the classes
//! that historically break hand-optimized float arithmetic, salted into a
//! smooth signal, and the fields and configurations whose streams are
//! pinned by hash.
#![allow(dead_code)] // no includer uses all of it

use lcpio_sz::{ErrorBound, PredictorMode, SzConfig};
use proptest::prelude::*;

/// One value drawn from the classes that historically break
/// hand-optimized float arithmetic.
pub fn special32() -> impl Strategy<Value = f32> {
    prop_oneof![
        2 => Just(f32::NAN),
        2 => Just(f32::INFINITY),
        2 => Just(f32::NEG_INFINITY),
        2 => Just(1.0e-40f32), // subnormal
        1 => Just(-1.0e-45f32), // smallest-magnitude subnormal
        2 => Just(-0.0f32),
        2 => Just(0.0f32),
        2 => Just(3.0e38f32), // finite but escapes every bound
        2 => Just(-3.0e38f32),
        3 => -1.0e6f32..1.0e6f32,
    ]
}

/// `n` values of a smooth base signal, `density` percent of them replaced
/// by one of `specials`.
pub fn salted_field(n: usize, seed: u64, density: u32, specials: &[f32]) -> Vec<f32> {
    let mut s = seed | 1;
    (0..n)
        .map(|i| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            if (s % 100) < density as u64 {
                specials[(s >> 32) as usize % specials.len()]
            } else {
                let x = i as f32 * 0.01;
                x.sin() * 50.0 + (s >> 56) as f32 * 0.01
            }
        })
        .collect()
}

/// FNV-1a over `bytes`: what the pinned stream hashes are.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Deterministic, platform-independent test field: xorshift64 samples with
/// exact zeros and occasional large outliers (so escape literals appear).
pub fn field_f32(n: usize, seed: u64) -> Vec<f32> {
    let mut s = seed | 1;
    (0..n)
        .map(|i| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            if i % 37 == 0 {
                0.0
            } else if i % 41 == 0 {
                ((s >> 40) as f32 - 8000.0) * 1e4
            } else {
                (s >> 52) as f32 / 256.0 + (i as f32 * 0.05).sin() * 4.0
            }
        })
        .collect()
}

/// [`field_f32`] widened.
pub fn field_f64(n: usize, seed: u64) -> Vec<f64> {
    field_f32(n, seed).into_iter().map(|v| v as f64).collect()
}

/// The pinned shape/config combinations: 1-D both orders, 2-D, 3-D in both
/// predictor modes, lossless off, 4-D, and a value-range-relative bound.
pub fn pinned_cases() -> Vec<(Vec<usize>, SzConfig)> {
    let abs = ErrorBound::Absolute(1e-3);
    vec![
        (vec![257], SzConfig::new(abs)),
        (vec![256], SzConfig { lorenzo_order: 1, ..SzConfig::new(abs) }),
        (vec![33, 47], SzConfig::new(abs).with_mode(PredictorMode::Lorenzo)),
        (vec![17, 18, 19], SzConfig::new(abs)),
        (vec![17, 18, 19], SzConfig::new(abs).with_mode(PredictorMode::Lorenzo)),
        (vec![17, 18, 19], SzConfig::new(abs).with_lossless(false)),
        (vec![3, 4, 5, 6], SzConfig::new(abs)),
        (vec![40, 40], SzConfig::new(ErrorBound::ValueRangeRelative(1e-3))),
    ]
}

/// Pinned case `i` as an `f32` field (`seed = 0x5eed`) or, widened, as an
/// `f64` one (`seed = 0xd0d0`): the data the pinned hashes were made from.
pub fn pinned_field_f32(i: usize, dims: &[usize]) -> Vec<f32> {
    field_f32(dims.iter().product(), 0x5eed + i as u64)
}

/// See [`pinned_field_f32`].
pub fn pinned_field_f64(i: usize, dims: &[usize]) -> Vec<f64> {
    field_f64(dims.iter().product(), 0xd0d0 + i as u64)
}
