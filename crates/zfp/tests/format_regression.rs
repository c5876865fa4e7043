//! Stream-format regression: compressed bytes are pinned against hashes
//! captured from the original bit-at-a-time codec. The word-level
//! bitstream, stride-table transforms, and plane-wise coder are pure
//! optimizations — any change to the emitted bytes is a format break and
//! must fail here. (The chunked `ZFLP` container's pinned hash is in
//! `lcpio-codec`'s `tests/format_regression.rs`, next to its writer.)

use lcpio_zfp::{compress_f64, compress_typed, decompress, decompress_f64, ZfpMode};

fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Deterministic, platform-independent test field: xorshift64 samples with
/// a sprinkling of exact zeros (so some blocks hit the zero-block path).
fn field_f32(n: usize, seed: u64) -> Vec<f32> {
    let mut s = seed | 1;
    (0..n)
        .map(|i| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            if i % 37 == 0 {
                0.0
            } else {
                (s >> 40) as f32 / 1024.0 - 8.0
            }
        })
        .collect()
}

fn field_f64(n: usize, seed: u64) -> Vec<f64> {
    field_f32(n, seed).into_iter().map(|v| v as f64).collect()
}

/// The five shape/mode combinations exercised per element type: 1-D, 2-D
/// and 3-D fixed-accuracy, plus fixed-precision and fixed-rate.
fn cases() -> Vec<(Vec<usize>, ZfpMode)> {
    vec![
        (vec![257], ZfpMode::FixedAccuracy(1e-3)),
        (vec![33, 47], ZfpMode::FixedAccuracy(1e-3)),
        (vec![17, 18, 19], ZfpMode::FixedAccuracy(1e-3)),
        (vec![33, 47], ZfpMode::FixedPrecision(16)),
        (vec![17, 18, 19], ZfpMode::FixedRate(8.0)),
    ]
}

#[test]
fn f32_streams_match_pinned_hashes() {
    let expect: [(usize, u64); 5] = [
        (1065, 0xb17b858eea0c5d99),
        (6219, 0xcf44151f34e469f8),
        (27173, 0x8f30244bbb37a7fa),
        (2351, 0xf6736106215ecd97),
        (8047, 0x95615331be656dc9),
    ];
    for (i, (dims, mode)) in cases().into_iter().enumerate() {
        let n: usize = dims.iter().product();
        let data = field_f32(n, 0x5eed + i as u64);
        let out = compress_typed(&data, &dims, &mode).expect("compress");
        assert_eq!(
            (out.bytes.len(), fnv64(&out.bytes)),
            expect[i],
            "f32 case {i} ({dims:?}, {mode:?}) changed the stream format"
        );
        // The pinned stream must still decode.
        let (rec, got_dims) = decompress(&out.bytes).expect("decompress");
        assert_eq!(got_dims, dims);
        assert_eq!(rec.len(), n);
    }
}

#[test]
fn f64_streams_match_pinned_hashes() {
    let expect: [(usize, u64); 5] = [
        (1089, 0xbdb694636d700faa),
        (6257, 0x12718c8ca6014b91),
        (29068, 0xca8650cbae350679),
        (2379, 0x344be5d49feea6f3),
        (8047, 0xe7f63f674bd1f95c),
    ];
    for (i, (dims, mode)) in cases().into_iter().enumerate() {
        let n: usize = dims.iter().product();
        let data = field_f64(n, 0xd0d0 + i as u64);
        let out = compress_f64(&data, &dims, &mode).expect("compress");
        assert_eq!(
            (out.bytes.len(), fnv64(&out.bytes)),
            expect[i],
            "f64 case {i} ({dims:?}, {mode:?}) changed the stream format"
        );
        let (rec, got_dims) = decompress_f64(&out.bytes).expect("decompress");
        assert_eq!(got_dims, dims);
        assert_eq!(rec.len(), n);
    }
}

/// The rank-1 coder's budget paths beside the `[257]` fixed-accuracy case
/// above: fixed precision, fixed rates whose payload budgets (3 and 61
/// bits a block for `f32`, 0 and 58 for `f64`) fall under and over the
/// longest one-lookup plane record, and one HACC × 1000 chunk of the
/// mixed stream workload (chunk 1 of `interleaved_cesm_hacc(24576, 32,
/// 11)`) at the accuracy the adaptive planner codes it with. Fields use
/// the seeds that follow the five cases above.
fn rank1_cases() -> Vec<(Vec<f32>, ZfpMode)> {
    let hacc = lcpio_datagen::Dataset::Hacc.generate(98_304, 11 ^ 0xAAC).data;
    let chunk: Vec<f32> = (0..24_576).map(|i| hacc[i % hacc.len()] * 1000.0).collect();
    vec![
        (field_f32(257, 0x5eed + 5), ZfpMode::FixedPrecision(16)),
        (field_f32(257, 0x5eed + 6), ZfpMode::FixedRate(3.0)),
        (field_f32(257, 0x5eed + 7), ZfpMode::FixedRate(17.5)),
        (chunk, ZfpMode::FixedAccuracy(1e-3)),
    ]
}

/// `(stream bytes, stream hash, hash of the decoded values' bits)` of each
/// rank-1 case, as `f32` and as `f64`.
fn rank1_pins(wide: bool) -> Vec<(usize, u64, u64)> {
    rank1_cases()
        .into_iter()
        .map(|(data, mode)| {
            let dims = [data.len()];
            let (bytes, decoded) = if wide {
                let data: Vec<f64> = data.iter().map(|&v| v as f64).collect();
                let bytes = compress_f64(&data, &dims, &mode).expect("compress").bytes;
                let (rec, got) = decompress_f64(&bytes).expect("decompress");
                assert_eq!(got, dims);
                (bytes, rec.iter().flat_map(|v| v.to_bits().to_le_bytes()).collect::<Vec<u8>>())
            } else {
                let bytes = compress_typed(&data, &dims, &mode).expect("compress").bytes;
                let (rec, got) = decompress(&bytes).expect("decompress");
                assert_eq!(got, dims);
                (bytes, rec.iter().flat_map(|v| v.to_bits().to_le_bytes()).collect())
            };
            (bytes.len(), fnv64(&bytes), fnv64(&decoded))
        })
        .collect()
}

#[test]
fn f32_rank1_streams_and_values_match_pinned_hashes() {
    let expect: [(usize, u64, u64); 4] = [
        (516, 0x8db9f99c984ae10b, 0x53cddbbcc3444cc5),
        (129, 0xc2a381e5d5e814d3, 0x1d2483ad5f2163f5),
        (600, 0xe0c3a6625c4a74c4, 0xe9854b37e70a87e3),
        (93709, 0xdae4f8dc803e8e35, 0xce2d558e930371c9),
    ];
    assert_eq!(rank1_pins(false), expect, "a rank-1 f32 stream or its decoded values changed");
}

#[test]
fn f64_rank1_streams_and_values_match_pinned_hashes() {
    let expect: [(usize, u64, u64); 4] = [
        (541, 0xa529819e7bd6dd0d, 0x7232d9b5c6a6661a),
        (137, 0x4d289ad656b6d161, 0x76caa9c238fbb305),
        (600, 0x363f92df50b610f3, 0x9d382f103a519989),
        (100693, 0x085839176166d67f, 0x99130f14edf8c879),
    ];
    assert_eq!(rank1_pins(true), expect, "a rank-1 f64 stream or its decoded values changed");
}
