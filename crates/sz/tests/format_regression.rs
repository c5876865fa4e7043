//! Stream-format regression: SZ compressed bytes are pinned by hash. Any
//! change to the emitted bytes is a format break and must fail here.
//!
//! The pins were re-pinned twice. Once when the lossless back end began to
//! pack the Huffman table (`FLAG_PACKED_TABLE`) and its matcher to stride
//! through unmatchable bytes, and once when the default writer moved to the
//! lattice predictor (predictor bytes 2 and 3). The values pinned before
//! live on in
//! `pipeline::tests::legacy_streams_keep_their_hashes_and_restore_the_same_values`,
//! which rebuilds the old streams with the test-only legacy writer and
//! decodes them with today's decoder. Each writer has one arithmetic, so
//! the larger fields below are bound checks on the lattice writer.
//!
//! The chunked `SZLP` container is written by `lcpio-codec`; its pinned
//! hashes live in that crate's `tests/format_regression.rs` (and, for the
//! NYX default path, the workspace root's).

mod generators;

use generators::{field_f32, fnv64, pinned_cases as cases, pinned_field_f32, pinned_field_f64};
use lcpio_sz::{
    compress_pointwise_rel, compress_typed, decompress_typed, Compressed, ErrorBound,
    PredictorMode, SzConfig,
};

const F32_EXPECT: [(usize, u64); 8] = [
    (791, 0x8fe13fea589aa41b),
    (743, 0xa3f5edd791f27741),
    (4127, 0xf8a69ca780c23a46),
    (24492, 0xaae10dc4f883d172),
    (15726, 0xc8af83ee40f43788),
    (74707, 0x61f7697593dfd0ad),
    (1636, 0x977591c532a5eba9),
    (1286, 0xc3168fce6611c795),
];

const F64_EXPECT: [(usize, u64); 8] = [
    (875, 0x01c28730b3267393),
    (788, 0xd4302c0c5b0d1988),
    (4711, 0x14b7005c3e1a8a5c),
    (32739, 0xe0f7a3bd68315a4d),
    (19188, 0x1cf7f37baea277ac),
    (100927, 0xa328104877f21095),
    (2334, 0x3554f5b1e92b503b),
    (1302, 0xc37e1132c10a56a1),
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

/// `data` compressed and decoded: the shape back and every finite value
/// within `eb`. Returns the stream.
fn assert_round_trip(data: &[f32], dims: &[usize], cfg: &SzConfig, eb: f64, what: &str) -> Compressed {
    let out = compress_typed(data, dims, cfg).unwrap();
    let (rec, got_dims) = decompress_typed::<f32>(&out.bytes).expect("decompress");
    assert_eq!(got_dims, dims, "{what}");
    for (i, (&a, &b)) in data.iter().zip(&rec).enumerate() {
        assert!((a as f64 - b as f64).abs() <= eb, "{what}: element {i}: {a} -> {b}");
    }
    out
}

#[test]
fn large_fields_round_trip_within_the_bound() {
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
            assert_round_trip(&data, &dims, &cfg, 1e-3, &format!("large 3-D {mode:?} lossless={lossless}"));
        }
    }
    // The large default-path field (block-adaptive, lossless on), pinned;
    // its legacy form is pinned in
    // `pipeline::tests::legacy_streams_keep_their_hashes_and_restore_the_same_values`.
    let dims = vec![64usize, 48, 96];
    let data = field_f32(dims.iter().product(), 0xf00d);
    let cfg = SzConfig::new(ErrorBound::Absolute(1e-3));
    let out = assert_round_trip(&data, &dims, &cfg, 1e-3, "large default-path 3-D").bytes;
    assert_eq!(
        (out.len(), fnv64(&out)),
        (1239326, 0x6923dbb5a705dd09),
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
        (3410, 0xf44ae3c42d899b22),
        "SZPR pointwise-relative stream changed format"
    );
}
