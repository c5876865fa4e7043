//! Stream-format regression: SZ compressed bytes are pinned against hashes
//! captured from the original scalar element-at-a-time codec, before the
//! SIMD kernels landed. The wavefront predict/quantize kernel and the
//! batched Huffman emitter are pure optimizations — any change to the
//! emitted bytes is a format break and must fail here.
//!
//! The lossless-on cases were re-pinned once, when the lossless back end
//! began to pack the Huffman table (`FLAG_PACKED_TABLE`) and its matcher
//! to stride through unmatchable bytes; the lossless-off cases, the 4-D
//! case (a table too short to pack) and the all-escape 3-D field did not
//! move. The values pinned before live on in
//! `pipeline::tests::legacy_streams_keep_their_hashes_and_restore_the_same_values`,
//! which rebuilds the old streams and decodes them with today's decoder.
//!
//! The same cases are then re-compressed with the kernels forced scalar
//! and forced fast, proving both paths emit identical streams. The kernel
//! switch is process-global, so everything runs inside one `#[test]` per
//! concern rather than one test per case.
//!
//! The chunked `SZLP` container is written by `lcpio-codec`; its pinned
//! hashes live in that crate's `tests/format_regression.rs` (and, for the
//! NYX default path, the workspace root's).

mod generators;

use generators::{field_f32, fnv64, pinned_cases as cases, pinned_field_f32, pinned_field_f64};
use lcpio_sz::kernels;
use lcpio_sz::{
    compress_pointwise_rel, compress_typed, decompress_typed, ErrorBound, PredictorMode, SzConfig,
};

const F32_EXPECT: [(usize, u64); 8] = [
    (789, 0x4e8e5cbc22166838),
    (741, 0x389226a28b858bd1),
    (4137, 0xce907ab4a8b849a4),
    (24490, 0x021d63697a585990),
    (15712, 0x0d312a8b612a7877),
    (74689, 0x2aed0cf73c1b7ce8),
    (1636, 0x91c2223b11df54df),
    (1179, 0x112dad862f4e0473),
];

const F64_EXPECT: [(usize, u64); 8] = [
    (874, 0xbbea17c1e5221ce0),
    (785, 0x6b5c3c5383055f15),
    (4699, 0xc43d5a5fa25f43aa),
    (32318, 0x9a6890c3647641b6),
    (19254, 0xd9f04bbb7cd3fcc4),
    (100907, 0xa194a25cfbfcaee6),
    (2333, 0xe427dc5c54964d7d),
    (1194, 0x8c00def8fddfdeb3),
];

fn serial_streams_f32() -> Vec<Vec<u8>> {
    cases()
        .iter()
        .enumerate()
        .map(|(i, (dims, cfg))| {
            compress_typed(&pinned_field_f32(i, dims), dims, cfg).expect("compress").bytes
        })
        .collect()
}

fn serial_streams_f64() -> Vec<Vec<u8>> {
    cases()
        .iter()
        .enumerate()
        .map(|(i, (dims, cfg))| {
            compress_typed(&pinned_field_f64(i, dims), dims, cfg).expect("compress").bytes
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
        (3408, 0xbe4664c258077cd7),
        "SZPR pointwise-relative stream changed format"
    );
}
