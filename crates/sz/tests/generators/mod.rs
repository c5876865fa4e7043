//! Field generators shared by the crate's equivalence tests (this file is
//! a module of `simd_scalar_equivalence.rs` and, through `#[path]`, of the
//! library's own unit tests): values from the classes that historically
//! break float kernels, salted into a smooth signal.

use proptest::prelude::*;

/// One value drawn from the classes that historically break vectorized
/// float kernels.
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
