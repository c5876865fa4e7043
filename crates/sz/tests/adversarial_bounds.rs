//! Property test: the default writer honours the error bound on every
//! generated field — smooth data salted with NaNs, infinities, subnormals,
//! signed zeros, and bound-busting outliers — exactly preserving non-finite
//! values via the literal escape path.

mod generators;

use generators::{salted_field, special32};
use lcpio_sz::{compress_typed, decompress_typed, Element, ErrorBound, SzConfig};
use proptest::prelude::*;

/// Compress `data`, decode the stream, and check every value: a NaN comes
/// back a NaN, an infinity itself, anything else within `eb`.
fn check_bound<T: Element>(data: &[T], dims: &[usize], cfg: &SzConfig, eb: f64) -> Result<(), TestCaseError> {
    let out = compress_typed(data, dims, cfg).expect("compress");
    let (rec, got_dims) = decompress_typed::<T>(&out.bytes).expect("decompress");
    prop_assert_eq!(&got_dims[..], dims);
    for (i, (o, r)) in data.iter().zip(&rec).enumerate() {
        let (o, r) = (o.to_f64(), r.to_f64());
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
    fn bound_holds_on_adversarial_fields(
        nz in 1usize..4,
        ny in 1usize..40,
        nx in 1usize..80,
        rank in 1usize..4,
        seed in any::<u64>(),
        density in 0u32..101,
        specials in proptest::collection::vec(special32(), 48..49),
        eb in prop_oneof![3 => Just(1e-3f64), 1 => Just(1e-1f64), 1 => Just(1e-6f64)],
        lossless in any::<bool>(),
    ) {
        let dims: Vec<usize> = match rank {
            1 => vec![nz * ny * nx],
            2 => vec![nz * ny, nx],
            _ => vec![nz, ny, nx],
        };
        let n: usize = dims.iter().product();
        let data = salted_field(n, seed, density, &specials);
        let cfg = SzConfig::new(ErrorBound::Absolute(eb)).with_lossless(lossless);
        check_bound(&data, &dims, &cfg, eb)?;
        let data64: Vec<f64> = data.iter().map(|&v| v as f64).collect();
        check_bound(&data64, &dims, &cfg, eb)?;
    }
}

/// Degenerate whole-field cases the random sampler is unlikely to hit:
/// every element non-finite or every element an escaping outlier.
#[test]
fn uniform_special_fields_roundtrip() {
    let dims = [2usize, 18, 40];
    let n: usize = dims.iter().product();
    let eb = 1e-3;
    let all_nan = vec![f32::NAN; n];
    let all_inf: Vec<f32> =
        (0..n).map(|i| if i % 2 == 0 { f32::INFINITY } else { f32::NEG_INFINITY }).collect();
    let all_outlier: Vec<f32> = (0..n).map(|i| if i % 2 == 0 { 3.0e38 } else { -3.0e38 }).collect();
    let all_subnormal: Vec<f32> = (0..n).map(|i| 1.0e-40 * (i % 7) as f32).collect();
    for (name, data) in [
        ("all-NaN", &all_nan),
        ("all-Inf", &all_inf),
        ("all-outlier", &all_outlier),
        ("all-subnormal", &all_subnormal),
    ] {
        let cfg = SzConfig::new(ErrorBound::Absolute(eb));
        if let Err(e) = check_bound(data, &dims, &cfg, eb) {
            panic!("{name}: {e:?}");
        }
    }
}
