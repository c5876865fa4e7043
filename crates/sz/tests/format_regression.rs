//! Stream-format regression: SZ compressed bytes are pinned against hashes
//! captured from the original element-at-a-time codec. The fast quantizer
//! arithmetic and the batched Huffman emitter are pure optimizations — any
//! change to the emitted bytes is a format break and must fail here.
//!
//! The lossless-on cases were re-pinned once, when the lossless back end
//! began to pack the Huffman table (`FLAG_PACKED_TABLE`) and its matcher
//! to stride through unmatchable bytes; the lossless-off cases, the 4-D
//! case (a table too short to pack) and the all-escape 3-D field did not
//! move. The values pinned before live on in
//! `pipeline::tests::legacy_streams_keep_their_hashes_and_restore_the_same_values`,
//! which rebuilds the old streams and decodes them with today's decoder.
//!
//! The same cases are then re-compressed with the reference arithmetic
//! (`kernels::force_scalar(true)`) and with the fast arithmetic, proving
//! that both emit identical streams and report identical
//! `CompressionStats` (the work profile the power model prices). The
//! switch is process-global, so exactly one `#[test]` in this binary flips
//! it, case after case.
//!
//! The chunked `SZLP` container is written by `lcpio-codec`; its pinned
//! hashes live in that crate's `tests/format_regression.rs` (and, for the
//! NYX default path, the workspace root's).

mod generators;

use generators::{field_f32, fnv64, pinned_cases as cases, pinned_field_f32, pinned_field_f64};
use lcpio_sz::kernels;
use lcpio_sz::{
    compress_pointwise_rel, compress_typed, decompress_typed, Compressed, ErrorBound,
    PredictorMode, SzConfig,
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

fn serial_streams_f32() -> Vec<Compressed> {
    cases()
        .iter()
        .enumerate()
        .map(|(i, (dims, cfg))| {
            compress_typed(&pinned_field_f32(i, dims), dims, cfg).expect("compress")
        })
        .collect()
}

fn serial_streams_f64() -> Vec<Compressed> {
    cases()
        .iter()
        .enumerate()
        .map(|(i, (dims, cfg))| {
            compress_typed(&pinned_field_f64(i, dims), dims, cfg).expect("compress")
        })
        .collect()
}

#[test]
fn serial_streams_match_pinned_hashes() {
    // Pinned hashes were captured from the reference arithmetic (the
    // original code); the default, fast arithmetic must reproduce them.
    for (i, Compressed { bytes: stream, .. }) in serial_streams_f32().iter().enumerate() {
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
    for (i, Compressed { bytes: stream, .. }) in serial_streams_f64().iter().enumerate() {
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

/// `data` compressed with the reference arithmetic and with the fast one:
/// equal bytes and equal work profile; returns the fast side.
fn assert_switch_invariant(data: &[f32], dims: &[usize], cfg: &SzConfig, what: &str) -> Compressed {
    kernels::force_scalar(true);
    let scalar = compress_typed(data, dims, cfg).unwrap();
    kernels::force_scalar(false);
    let fast = compress_typed(data, dims, cfg).unwrap();
    kernels::reset_force_scalar();
    assert_eq!(scalar.bytes, fast.bytes, "{what}: scalar vs fast streams differ");
    assert_eq!(scalar.stats, fast.stats, "{what}: scalar vs fast stats differ");
    let (rec, got_dims) = decompress_typed::<f32>(&fast.bytes).expect("decompress");
    assert_eq!(got_dims, dims);
    assert_eq!(rec.len(), data.len());
    fast
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
        assert_eq!(a.bytes, b.bytes, "f32 case {i}: scalar vs fast streams differ");
        assert_eq!(a.stats, b.stats, "f32 case {i}: scalar vs fast stats differ");
    }
    for (i, (a, b)) in scalar64.iter().zip(&fast64).enumerate() {
        assert_eq!(a.bytes, b.bytes, "f64 case {i}: scalar vs fast streams differ");
        assert_eq!(a.stats, b.stats, "f64 case {i}: scalar vs fast stats differ");
    }
    // Larger 3-D fields: many full rows, row tails and partial blocks in
    // every mode.
    for mode in [PredictorMode::Lorenzo, PredictorMode::BlockAdaptive] {
        for lossless in [false, true] {
            let dims = vec![6usize, 37, 129];
            let n: usize = dims.iter().product();
            let data = field_f32(n, 0xabcd ^ lossless as u64);
            let cfg = SzConfig::new(ErrorBound::Absolute(1e-3))
                .with_mode(mode)
                .with_lossless(lossless);
            let what = format!("large 3-D {mode:?} lossless={lossless}");
            assert_switch_invariant(&data, &dims, &cfg, &what);
        }
    }
    // The large default-path field (block-adaptive, lossless on), on both
    // sides of the switch and pinned; its legacy form is pinned in
    // `pipeline::tests::legacy_streams_keep_their_hashes_and_restore_the_same_values`.
    let dims = vec![64usize, 48, 96];
    let data = field_f32(dims.iter().product(), 0xf00d);
    let cfg = SzConfig::new(ErrorBound::Absolute(1e-3));
    let fast = assert_switch_invariant(&data, &dims, &cfg, "large default-path 3-D").bytes;
    assert_eq!(
        (fast.len(), fnv64(&fast)),
        (1239326, 0xa14fe20444c14883),
        "large default-path stream changed format"
    );
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
