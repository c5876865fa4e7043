//! Stream-format regression: SZ compressed bytes are pinned against hashes
//! captured from the original scalar element-at-a-time codec, before the
//! SIMD kernels landed. The wavefront predict/quantize kernel and the
//! batched Huffman emitter are pure optimizations — any change to the
//! emitted bytes is a format break and must fail here.
//!
//! The same cases are then re-compressed with the kernels forced scalar
//! and forced fast, proving both paths emit identical streams. The kernel
//! switch is process-global, so everything runs inside one `#[test]` per
//! concern rather than one test per case.
//!
//! The chunked `SZLP` container is written by `lcpio-codec`; its pinned
//! hashes live in that crate's `tests/format_regression.rs` (and, for the
//! NYX default path, the workspace root's).

use lcpio_sz::kernels;
use lcpio_sz::{
    compress_pointwise_rel, compress_typed, decompress_typed, ErrorBound, PredictorMode, SzConfig,
};

fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Deterministic, platform-independent test field: xorshift64 samples with
/// exact zeros and occasional large outliers (so escape literals appear).
fn field_f32(n: usize, seed: u64) -> Vec<f32> {
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

fn field_f64(n: usize, seed: u64) -> Vec<f64> {
    field_f32(n, seed).into_iter().map(|v| v as f64).collect()
}

/// Shape/config combinations: 1-D both orders, 2-D, 3-D in both predictor
/// modes, lossless off, 4-D, and a value-range-relative bound.
fn cases() -> Vec<(Vec<usize>, SzConfig)> {
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

const F32_EXPECT: [(usize, u64); 8] = [
    (1474, 0x0b0309fc53ac5be1),
    (1409, 0x9fdaeecd243a8a0f),
    (5903, 0x1bdaa0997fef96ce),
    (26857, 0xb11a0ea539ab285a),
    (19961, 0x601ec97a8dcf50c8),
    (74689, 0x2aed0cf73c1b7ce8),
    (1636, 0x91c2223b11df54df),
    (1235, 0x87bf1391edd3488b),
];

const F64_EXPECT: [(usize, u64); 8] = [
    (1525, 0x1261634bde1d8502),
    (1419, 0x1ebb3a8c14a9b405),
    (6214, 0x71ecd856dbaf7552),
    (32902, 0x9a0f08e18388e23d),
    (21561, 0xb997cc275be17f2d),
    (100907, 0xa194a25cfbfcaee6),
    (2333, 0xe427dc5c54964d7d),
    (1260, 0xbd29894dd90bbddb),
];

fn serial_streams_f32() -> Vec<Vec<u8>> {
    cases()
        .iter()
        .enumerate()
        .map(|(i, (dims, cfg))| {
            let n: usize = dims.iter().product();
            let data = field_f32(n, 0x5eed + i as u64);
            compress_typed(&data, dims, cfg).expect("compress").bytes
        })
        .collect()
}

fn serial_streams_f64() -> Vec<Vec<u8>> {
    cases()
        .iter()
        .enumerate()
        .map(|(i, (dims, cfg))| {
            let n: usize = dims.iter().product();
            let data = field_f64(n, 0xd0d0 + i as u64);
            compress_typed(&data, dims, cfg).expect("compress").bytes
        })
        .collect()
}

#[test]
fn serial_streams_match_pinned_hashes() {
    // Pinned hashes were captured with the kernels forced scalar (the
    // original code); the default dispatch must reproduce them exactly.
    for (i, stream) in serial_streams_f32().iter().enumerate() {
        let (dims, _) = &cases()[i];
        assert_eq!(
            (stream.len(), fnv64(stream)),
            F32_EXPECT[i],
            "f32 case {i} ({dims:?}) changed the stream format"
        );
        let (rec, got_dims) = decompress_typed::<f32>(stream).expect("decompress");
        assert_eq!(&got_dims, dims);
        assert_eq!(rec.len(), dims.iter().product::<usize>());
    }
    for (i, stream) in serial_streams_f64().iter().enumerate() {
        let (dims, _) = &cases()[i];
        assert_eq!(
            (stream.len(), fnv64(stream)),
            F64_EXPECT[i],
            "f64 case {i} ({dims:?}) changed the stream format"
        );
        let (rec, got_dims) = decompress_typed::<f64>(stream).expect("decompress");
        assert_eq!(&got_dims, dims);
        assert_eq!(rec.len(), dims.iter().product::<usize>());
    }
}

#[test]
fn scalar_and_fast_paths_emit_identical_streams() {
    // Process-global switch: flip it around whole passes, restore at end.
    kernels::force_scalar(true);
    let scalar32 = serial_streams_f32();
    let scalar64 = serial_streams_f64();
    kernels::force_scalar(false);
    let fast32 = serial_streams_f32();
    let fast64 = serial_streams_f64();
    kernels::reset_force_scalar();
    for (i, (a, b)) in scalar32.iter().zip(&fast32).enumerate() {
        assert_eq!(a, b, "f32 case {i}: scalar vs fast streams differ");
    }
    for (i, (a, b)) in scalar64.iter().zip(&fast64).enumerate() {
        assert_eq!(a, b, "f64 case {i}: scalar vs fast streams differ");
    }
    // Larger 3-D fields so the wavefront kernel runs multiple full tile
    // groups (and tails) in every mode.
    for mode in [PredictorMode::Lorenzo, PredictorMode::BlockAdaptive] {
        for lossless in [false, true] {
            let dims = vec![6usize, 37, 129];
            let n: usize = dims.iter().product();
            let data = field_f32(n, 0xabcd ^ lossless as u64);
            let cfg = SzConfig::new(ErrorBound::Absolute(1e-3))
                .with_mode(mode)
                .with_lossless(lossless);
            kernels::force_scalar(true);
            let a = compress_typed(&data, &dims, &cfg).unwrap().bytes;
            kernels::force_scalar(false);
            let b = compress_typed(&data, &dims, &cfg).unwrap().bytes;
            kernels::reset_force_scalar();
            assert_eq!(a, b, "large 3-D {mode:?} lossless={lossless}: paths differ");
            let (rec, _) = decompress_typed::<f32>(&b).unwrap();
            assert_eq!(rec.len(), n);
        }
    }
}

#[test]
fn fused_histogram_commit_is_bit_identical_and_pinned() {
    // The AVX2 commit pass folds the 4-stripe symbol histogram into the
    // tile commit (one pass over the symbols instead of two). Stripe
    // assignment differs from the standalone count, but the merged
    // frequencies — and therefore the Huffman table and every emitted
    // bit — must be unchanged. A field large enough for multiple full
    // tile groups, row tails and leftover rows exercises all three
    // fused counting sites.
    let dims = vec![64usize, 48, 96];
    let n: usize = dims.iter().product();
    let data = field_f32(n, 0xf00d);
    let cfg = SzConfig::new(ErrorBound::Absolute(1e-3));
    kernels::force_scalar(true);
    let scalar = compress_typed(&data, &dims, &cfg).unwrap().bytes;
    kernels::force_scalar(false);
    let fast = compress_typed(&data, &dims, &cfg).unwrap().bytes;
    kernels::reset_force_scalar();
    assert_eq!(scalar, fast, "fused-histogram fast path changed the stream");
    assert_eq!(
        (fast.len(), fnv64(&fast)),
        (1239326, 0xa14fe20444c14883),
        "fused-histogram stream changed format"
    );
    let (rec, got_dims) = decompress_typed::<f32>(&fast).expect("decompress");
    assert_eq!(got_dims, dims);
    assert_eq!(rec.len(), n);
}

#[test]
fn pointwise_rel_matches_pinned_hash() {
    let data: Vec<f32> = field_f32(900, 0xfeed)
        .into_iter()
        .map(|v| if v == 0.0 { 0.0 } else { v * v + 0.5 })
        .collect();
    let out = compress_pointwise_rel(
        &data,
        &[30, 30],
        1e-3,
        &SzConfig::new(ErrorBound::Absolute(1.0)),
    )
    .expect("compress");
    assert_eq!(
        (out.bytes.len(), fnv64(&out.bytes)),
        (4719, 0x130883166a901ebc),
        "SZPR pointwise-relative stream changed format"
    );
}
