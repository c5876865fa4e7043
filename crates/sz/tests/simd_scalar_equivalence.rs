//! Property test: the encoder's fast arithmetic and its reference
//! arithmetic are indistinguishable from the outside. For every generated
//! field — smooth data salted with NaNs, infinities, subnormals, signed
//! zeros, and bound-busting outliers — both sides of
//! `kernels::force_scalar` must emit byte-identical streams and report
//! identical `CompressionStats` (the work profile the power model prices),
//! and the decompressed values must honour the error bound (exactly
//! preserving non-finite values via the literal escape path).
//!
//! The switch is process-global, so every test in this binary serializes
//! on one mutex before flipping it.

mod generators;

use generators::{salted_field, special32};
use lcpio_sz::kernels;
use lcpio_sz::{compress_typed, decompress_typed, ErrorBound, PredictorMode, SzConfig};
use proptest::prelude::*;
use std::sync::{Mutex, OnceLock};

fn dispatch_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

/// Compress on both sides of the switch, assert identical bytes and stats,
/// then check the reconstruction against the bound. Caller holds the
/// dispatch lock.
fn check_equivalence_f32(
    data: &[f32],
    dims: &[usize],
    cfg: &SzConfig,
    eb: f64,
) -> Result<(), TestCaseError> {
    kernels::force_scalar(true);
    let scalar = compress_typed(data, dims, cfg);
    kernels::force_scalar(false);
    let fast = compress_typed(data, dims, cfg);
    kernels::reset_force_scalar();
    let (scalar, fast) = (scalar.expect("scalar compress"), fast.expect("fast compress"));
    prop_assert_eq!(&scalar.bytes, &fast.bytes);
    prop_assert_eq!(scalar.stats, fast.stats);
    let (rec, got_dims) = decompress_typed::<f32>(&fast.bytes).expect("decompress");
    prop_assert_eq!(&got_dims[..], dims);
    for (i, (&o, &r)) in data.iter().zip(&rec).enumerate() {
        if o.is_nan() {
            prop_assert!(r.is_nan(), "index {}: NaN not preserved (got {})", i, r);
        } else if o.is_infinite() {
            prop_assert!(r == o, "index {}: {} reconstructed as {}", i, o, r);
        } else {
            let err = (r as f64 - o as f64).abs();
            prop_assert!(err <= eb, "index {}: |{} - {}| = {} > eb {}", i, r, o, err, eb);
        }
    }
    Ok(())
}

fn check_equivalence_f64(
    data: &[f64],
    dims: &[usize],
    cfg: &SzConfig,
    eb: f64,
) -> Result<(), TestCaseError> {
    kernels::force_scalar(true);
    let scalar = compress_typed(data, dims, cfg);
    kernels::force_scalar(false);
    let fast = compress_typed(data, dims, cfg);
    kernels::reset_force_scalar();
    let (scalar, fast) = (scalar.expect("scalar compress"), fast.expect("fast compress"));
    prop_assert_eq!(&scalar.bytes, &fast.bytes);
    prop_assert_eq!(scalar.stats, fast.stats);
    let (rec, _) = decompress_typed::<f64>(&fast.bytes).expect("decompress");
    for (i, (&o, &r)) in data.iter().zip(&rec).enumerate() {
        if o.is_nan() {
            prop_assert!(r.is_nan(), "index {}: NaN not preserved (got {})", i, r);
        } else if o.is_infinite() {
            prop_assert!(r == o, "index {}: {} reconstructed as {}", i, o, r);
        } else {
            let err = (r - o).abs();
            prop_assert!(err <= eb, "index {}: |{} - {}| = {} > eb {}", i, r, o, err, eb);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn fast_and_scalar_paths_agree_on_adversarial_fields(
        nz in 1usize..4,
        ny in 1usize..40,
        nx in 1usize..80,
        rank in 1usize..4,
        seed in any::<u64>(),
        density in 0u32..101,
        specials in proptest::collection::vec(special32(), 48..49),
        eb in prop_oneof![3 => Just(1e-3f64), 1 => Just(1e-1f64), 1 => Just(1e-6f64)],
        lorenzo in any::<bool>(),
        lossless in any::<bool>(),
    ) {
        let dims: Vec<usize> = match rank {
            1 => vec![nz * ny * nx],
            2 => vec![nz * ny, nx],
            _ => vec![nz, ny, nx],
        };
        let n: usize = dims.iter().product();
        let data = salted_field(n, seed, density, &specials);
        let mode = if lorenzo { PredictorMode::Lorenzo } else { PredictorMode::BlockAdaptive };
        let cfg = SzConfig::new(ErrorBound::Absolute(eb)).with_mode(mode).with_lossless(lossless);
        let _guard = dispatch_lock().lock().unwrap();
        check_equivalence_f32(&data, &dims, &cfg, eb)?;
        let data64: Vec<f64> = data.iter().map(|&v| v as f64).collect();
        check_equivalence_f64(&data64, &dims, &cfg, eb)?;
    }
}

/// Degenerate whole-field cases the random sampler is unlikely to hit:
/// every element non-finite or every element an escaping outlier, in
/// both predictor modes.
#[test]
fn uniform_special_fields_match_and_roundtrip() {
    let dims = [2usize, 18, 40];
    let n: usize = dims.iter().product();
    let eb = 1e-3;
    let all_nan = vec![f32::NAN; n];
    let all_inf: Vec<f32> =
        (0..n).map(|i| if i % 2 == 0 { f32::INFINITY } else { f32::NEG_INFINITY }).collect();
    let all_outlier: Vec<f32> = (0..n).map(|i| if i % 2 == 0 { 3.0e38 } else { -3.0e38 }).collect();
    let all_subnormal: Vec<f32> = (0..n).map(|i| 1.0e-40 * (i % 7) as f32).collect();
    let _guard = dispatch_lock().lock().unwrap();
    for (name, data) in [
        ("all-NaN", &all_nan),
        ("all-Inf", &all_inf),
        ("all-outlier", &all_outlier),
        ("all-subnormal", &all_subnormal),
    ] {
        for mode in [PredictorMode::Lorenzo, PredictorMode::BlockAdaptive] {
            let cfg = SzConfig::new(ErrorBound::Absolute(eb)).with_mode(mode);
            kernels::force_scalar(true);
            let scalar = compress_typed(data, &dims, &cfg).expect("scalar compress");
            kernels::force_scalar(false);
            let fast = compress_typed(data, &dims, &cfg).expect("fast compress");
            kernels::reset_force_scalar();
            assert_eq!(scalar.bytes, fast.bytes, "{name} {mode:?}: streams differ");
            assert_eq!(scalar.stats, fast.stats, "{name} {mode:?}: stats differ");
            let (rec, _) = decompress_typed::<f32>(&fast.bytes).expect("decompress");
            for (i, (&o, &r)) in data.iter().zip(&rec).enumerate() {
                if o.is_nan() {
                    assert!(r.is_nan(), "{name} {mode:?} index {i}: NaN not preserved");
                } else if o.is_infinite() {
                    assert_eq!(r, o, "{name} {mode:?} index {i}");
                } else {
                    let err = (r as f64 - o as f64).abs();
                    assert!(err <= eb, "{name} {mode:?} index {i}: err {err} > {eb}");
                }
            }
        }
    }
}
