//! Failure injection: corrupted, truncated, and bit-flipped streams must
//! never panic, loop, or allocate unboundedly — they must either decode to
//! *something* or return a structured error.

use lcpio::codec::{registry, BoundSpec, CodecError, SzCodec, ZfpCodec};
use lcpio::{sz, zfp};
use proptest::prelude::*;

// Fixture streams come from the registry (the product's only compression
// entry point); the corruption fuzzing below still hits the *backend*
// decoders directly so magic-byte mutations cannot short-circuit into the
// registry's unknown-magic error and mask a deep-path panic.

fn fixture(name: &str, bound: BoundSpec, threads: usize) -> Vec<u8> {
    let data: Vec<f32> = (0..2048).map(|i| (i as f32 * 0.01).sin() * 10.0).collect();
    let codec = registry().by_name(name).expect("registered");
    if threads > 1 {
        codec.compress_chunked(&data, &[32, 64], bound, threads).expect("compress").bytes
    } else {
        codec.compress(&data, &[32, 64], bound).expect("compress").bytes
    }
}

fn sz_stream() -> Vec<u8> {
    fixture("sz", BoundSpec::Absolute(1e-3), 1)
}

fn sz_chunked_stream() -> Vec<u8> {
    fixture("sz", BoundSpec::Absolute(1e-3), 2)
}

fn sz_pwrel_stream() -> Vec<u8> {
    fixture("sz", BoundSpec::PointwiseRelative(1e-3), 1)
}

fn zfp_stream() -> Vec<u8> {
    fixture("zfp", BoundSpec::Absolute(1e-3), 1)
}

fn zfp_chunked_stream() -> Vec<u8> {
    fixture("zfp", BoundSpec::Absolute(1e-3), 2)
}

/// An `LCS1` streaming-pipeline container, legacy or `LCW1`-framed.
fn lcs_stream(wire: bool) -> Vec<u8> {
    let data: Vec<f32> = (0..2048).map(|i| (i as f32 * 0.01).sin() * 10.0).collect();
    let cfg = lcpio::core::pipeline::PipelineConfig {
        chunk_elements: 512,
        wire_format: wire,
        ..lcpio::core::pipeline::PipelineConfig::default()
    };
    let mut sink = lcpio::core::pipeline::VecSink::default();
    lcpio::core::pipeline::run_sequential(&data, &cfg, &mut sink).expect("pipeline");
    sink.bytes
}

/// How a container must behave when cut mid-stream.
enum Truncation {
    /// Every strict prefix is invalid (lengths are cross-checked against
    /// the bytes present), so every cut must yield a typed error.
    Strict,
    /// The payload is self-terminating, so a cut past the terminator can
    /// still decode; the only requirement is "no panic, no hang".
    Lenient,
}

/// Shared cut-at-every-offset harness: decode every strict prefix of
/// `stream` and check the container's truncation contract.
fn assert_survives_every_truncation<T, E: std::fmt::Debug>(
    label: &str,
    stream: &[u8],
    mode: Truncation,
    decode: impl Fn(&[u8]) -> Result<T, E>,
) {
    for len in 0..stream.len() {
        let res = decode(&stream[..len]);
        if matches!(mode, Truncation::Strict) {
            assert!(
                res.is_err(),
                "{label}: prefix of {len}/{} bytes decoded instead of erroring",
                stream.len()
            );
        }
        // In both modes, reaching the next iteration means no panic.
        drop(res);
    }
}

#[test]
fn sz_survives_every_truncation_length() {
    // Any prefix must fail cleanly (or, for lengths past the payload
    // terminator, decode) — never panic.
    assert_survives_every_truncation("SZL1", &sz_stream(), Truncation::Lenient, |s| {
        sz::decompress(s)
    });
}

#[test]
fn sz_chunked_survives_every_truncation_length() {
    // A strict prefix can never be a valid container (the chunk table and
    // payload lengths must line up exactly).
    assert_survives_every_truncation("SZLP", &sz_chunked_stream(), Truncation::Strict, |s| {
        SzCodec::decompress_chunked::<f32>(s, 1)
    });
}

#[test]
fn sz_pwrel_survives_every_truncation_length() {
    // The header, sign-bitmap section, and inner SZ stream are all
    // length-prefixed, so any strict prefix must fail cleanly.
    assert_survives_every_truncation("SZPR", &sz_pwrel_stream(), Truncation::Strict, |s| {
        sz::decompress_pointwise_rel::<f32>(s)
    });
}

#[test]
fn zfp_survives_every_truncation_length() {
    assert_survives_every_truncation("ZFL1", &zfp_stream(), Truncation::Lenient, |s| {
        zfp::decompress(s)
    });
}

#[test]
fn zfp_chunked_survives_every_truncation_length() {
    // A strict prefix loses payload bytes the chunk table promises.
    assert_survives_every_truncation("ZFLP", &zfp_chunked_stream(), Truncation::Strict, |s| {
        ZfpCodec::decompress_chunked::<f32>(s, 1)
    });
}

#[test]
fn lcs_stream_survives_every_truncation_length() {
    // The streaming container records its element count up front, so a
    // header-only prefix (missing frames) is as invalid as a mid-frame cut.
    assert_survives_every_truncation("LCS1", &lcs_stream(false), Truncation::Strict, |s| {
        lcpio::core::pipeline::decode_stream(s)
    });
}

#[test]
fn wire_lcs_stream_survives_every_truncation_length() {
    assert_survives_every_truncation("LCW1/LCS1", &lcs_stream(true), Truncation::Strict, |s| {
        lcpio::core::pipeline::decode_stream(s)
    });
}

#[test]
fn wire_wrapped_codec_containers_survive_every_truncation_length() {
    // Every legacy codec container re-framed as an LCW1 envelope: the
    // envelope's validated frame index must catch every cut, through the
    // product decode surface (`decompress_auto`).
    for (label, legacy) in [
        ("LCW1/SZL1", sz_stream()),
        ("LCW1/SZLP", sz_chunked_stream()),
        ("LCW1/SZPR", sz_pwrel_stream()),
        ("LCW1/ZFL1", zfp_stream()),
        ("LCW1/ZFLP", zfp_chunked_stream()),
    ] {
        let wired = lcpio::codec::wire::wrap(&legacy).expect("wrap");
        assert_survives_every_truncation(label, &wired, Truncation::Strict, |s| {
            registry().decompress_auto(s, 1)
        });
    }
}

#[test]
fn sz_survives_single_byte_corruption_everywhere() {
    let stream = sz_stream();
    for pos in 0..stream.len() {
        let mut s = stream.clone();
        s[pos] ^= 0xFF;
        let _ = sz::decompress(&s); // must not panic
    }
}

#[test]
fn sz_chunked_survives_single_byte_corruption_everywhere() {
    let stream = sz_chunked_stream();
    for pos in 0..stream.len() {
        let mut s = stream.clone();
        s[pos] ^= 0xFF;
        let _ = SzCodec::decompress_chunked::<f32>(&s, 2); // must not panic
    }
}

#[test]
fn sz_pwrel_survives_single_byte_corruption_everywhere() {
    let stream = sz_pwrel_stream();
    for pos in 0..stream.len() {
        let mut s = stream.clone();
        s[pos] ^= 0xFF;
        let _ = sz::decompress_pointwise_rel::<f32>(&s); // must not panic
    }
}

#[test]
fn sz_pwrel_survives_corrupted_sign_bitmap() {
    // The sign bitmap starts right after the 13-byte header and the 8-byte
    // section length prefix. Flipping bits there flips signs in the output
    // (or trips a length check) but must never panic.
    let stream = sz_pwrel_stream();
    let bitmap_start = 21;
    assert!(stream.len() > bitmap_start + 8, "stream too short for the test");
    for pos in bitmap_start..(bitmap_start + 8) {
        for mask in [0x01u8, 0x80, 0xFF] {
            let mut s = stream.clone();
            s[pos] ^= mask;
            let _ = sz::decompress_pointwise_rel::<f32>(&s); // must not panic
        }
    }
}

#[test]
fn sz_pwrel_rejects_forged_magic_and_type_tag() {
    let stream = sz_pwrel_stream();

    // Wrong magic: every other container magic in the workspace must be
    // refused, not misinterpreted.
    for magic in [b"SZL1", b"SZLP", b"ZFLP", b"XXXX"] {
        let mut s = stream.clone();
        s[..4].copy_from_slice(magic);
        assert!(sz::decompress_pointwise_rel::<f32>(&s).is_err());
    }

    // An f32 payload presented with a forged f64 type tag (and vice versa)
    // must be a type mismatch, never a reinterpretation.
    let mut s = stream.clone();
    s[4] ^= 0xFF;
    assert!(sz::decompress_pointwise_rel::<f32>(&s).is_err());
    assert!(sz::decompress_pointwise_rel::<f64>(&stream).is_err());
}

#[test]
fn zfp_survives_single_byte_corruption_everywhere() {
    let stream = zfp_stream();
    for pos in 0..stream.len() {
        let mut s = stream.clone();
        s[pos] ^= 0xA5;
        let _ = zfp::decompress(&s);
    }
}

#[test]
fn zfp_chunked_survives_single_byte_corruption_everywhere() {
    let stream = zfp_chunked_stream();
    for pos in 0..stream.len() {
        let mut s = stream.clone();
        s[pos] ^= 0xA5;
        let _ = ZfpCodec::decompress_chunked::<f32>(&s, 2); // must not panic
    }
}

#[test]
fn zfp_chunked_oversized_dims_rejected_without_allocating() {
    // Forge a container whose header claims a gigantic array backed by a
    // tiny payload: the decoder must reject it up front instead of
    // allocating the claimed output size.
    let mut s = Vec::new();
    s.extend_from_slice(b"ZFLP");
    s.push(0); // f32 tag
    s.push(3); // rank
    for d in [1u64 << 20, 1 << 20, 1 << 20] {
        s.extend_from_slice(&d.to_le_bytes());
    }
    s.extend_from_slice(&1u32.to_le_bytes()); // one chunk
    s.extend_from_slice(&0u64.to_le_bytes()); // a = 0
    s.extend_from_slice(&(1u64 << 20).to_le_bytes()); // b = full extent
    s.extend_from_slice(&8u64.to_le_bytes()); // 8 payload bytes
    s.extend_from_slice(&[0u8; 8]);
    assert!(ZfpCodec::decompress_chunked::<f32>(&s, 1).is_err());
}

#[test]
fn zfp_chunked_forged_chunk_count_rejected_without_allocating() {
    // The first 40 bytes of the noise case that used to abort the process:
    // rank 1, dims[0] ≈ 1.2e19 and a chunk count of 3 960 725 639, which the
    // count-against-dims[0] check lets through. Sizing the chunk table from
    // it asked for 95 GB. The 22 bytes after the count cannot hold even one
    // 24-byte table entry, so the count itself is the corruption.
    let noise: [u8; 36] = [
        0x11, 0x01, 0x7f, 0xb5, 0x82, 0xb0, 0x72, 0x18, 0x33, 0xa9, 0x87, 0xe0, 0x13, 0xec, 0x70,
        0xec, 0xe9, 0xf0, 0xcd, 0x99, 0xc7, 0xc4, 0xbf, 0x49, 0x87, 0xd5, 0xb0, 0x06, 0x1a, 0xfb,
        0xac, 0x48, 0xeb, 0x78, 0x07, 0xf8,
    ];
    let mut s = b"ZFLP".to_vec();
    s.extend_from_slice(&noise);
    assert_eq!(s.len(), 40);
    assert_eq!(
        ZfpCodec::decompress_chunked::<f32>(&s, 1).unwrap_err(),
        CodecError::Zfp(zfp::ZfpError::Corrupt("bad chunk count"))
    );
}

#[test]
fn sz_chunked_forged_chunk_count_rejected_without_allocating() {
    // The SZLP twin of the case above: rank 1, dims[0] = 2^40 and a chunk
    // count of u32::MAX, which the count-against-dims[0] check lets through.
    // Sizing the chunk table from it asked for 103 GB and aborted the
    // process, reachable through `decompress_auto` and serve `DECOMPRESS`.
    // The 22 bytes after the count cannot hold one 24-byte table entry.
    let mut s = b"SZLP".to_vec();
    s.extend_from_slice(&[0, 1]); // f32, rank 1
    s.extend_from_slice(&(1u64 << 40).to_le_bytes());
    s.extend_from_slice(&u32::MAX.to_le_bytes());
    s.extend_from_slice(&[0u8; 22]);
    assert_eq!(s.len(), 40);
    assert_eq!(
        SzCodec::decompress_chunked::<f32>(&s, 1).unwrap_err(),
        CodecError::Sz(sz::SzError::Corrupt("bad chunk count"))
    );
    assert!(registry().decompress_auto(&s, 1).is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn registry_decompress_auto_never_panics_on_noise(
        bytes in proptest::collection::vec(any::<u8>(), 0..2048)
    ) {
        // The product decode surface: arbitrary bytes either decode or
        // return a structured error, for f32 and f64 alike.
        let _ = registry().decompress_auto(&bytes, 1);
        let _ = registry().decompress_auto_f64(&bytes, 1);
    }

    #[test]
    fn sz_decompress_never_panics_on_noise(bytes in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let _ = sz::decompress(&bytes);
    }

    #[test]
    fn zfp_decompress_never_panics_on_noise(bytes in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let _ = zfp::decompress(&bytes);
    }

    #[test]
    fn sz_chunked_decompress_never_panics_on_noise(
        bytes in proptest::collection::vec(any::<u8>(), 0..2048)
    ) {
        let mut s = b"SZLP".to_vec();
        s.extend_from_slice(&bytes);
        let _ = SzCodec::decompress_chunked::<f32>(&s, 1);
    }

    #[test]
    fn sz_chunked_decompress_never_panics_on_mutated_valid_stream(
        flips in proptest::collection::vec((any::<u16>(), any::<u8>()), 1..8)
    ) {
        let mut s = sz_chunked_stream();
        for (pos, mask) in flips {
            let idx = pos as usize % s.len();
            s[idx] ^= mask;
        }
        let _ = SzCodec::decompress_chunked::<f32>(&s, 2);
    }

    #[test]
    fn sz_decompress_never_panics_on_mutated_valid_stream(
        flips in proptest::collection::vec((any::<u16>(), any::<u8>()), 1..8)
    ) {
        let mut s = sz_stream();
        for (pos, mask) in flips {
            let idx = pos as usize % s.len();
            s[idx] ^= mask;
        }
        let _ = sz::decompress(&s);
    }

    #[test]
    fn zfp_decompress_never_panics_on_mutated_valid_stream(
        flips in proptest::collection::vec((any::<u16>(), any::<u8>()), 1..8)
    ) {
        let mut s = zfp_stream();
        for (pos, mask) in flips {
            let idx = pos as usize % s.len();
            s[idx] ^= mask;
        }
        let _ = zfp::decompress(&s);
    }

    #[test]
    fn sz_pwrel_decompress_never_panics_on_noise(
        bytes in proptest::collection::vec(any::<u8>(), 0..2048)
    ) {
        let mut s = b"SZPR".to_vec();
        s.extend_from_slice(&bytes);
        let _ = sz::decompress_pointwise_rel::<f32>(&s);
    }

    #[test]
    fn sz_pwrel_decompress_never_panics_on_mutated_valid_stream(
        flips in proptest::collection::vec((any::<u16>(), any::<u8>()), 1..8)
    ) {
        let mut s = sz_pwrel_stream();
        for (pos, mask) in flips {
            let idx = pos as usize % s.len();
            s[idx] ^= mask;
        }
        let _ = sz::decompress_pointwise_rel::<f32>(&s);
    }

    #[test]
    fn wire_envelope_never_panics_on_noise(
        bytes in proptest::collection::vec(any::<u8>(), 0..2048)
    ) {
        // Arbitrary bytes behind the LCW1 magic: both the registry surface
        // and the streaming-container decoder must error, never panic.
        let mut s = b"LCW1".to_vec();
        s.extend_from_slice(&bytes);
        let _ = registry().decompress_auto(&s, 1);
        let _ = lcpio::core::pipeline::decode_stream(&s);
    }

    #[test]
    fn wire_envelope_never_panics_on_mutated_valid_stream(
        flips in proptest::collection::vec((any::<u16>(), any::<u8>()), 1..8)
    ) {
        let mut s = lcpio::codec::wire::wrap(&sz_chunked_stream()).expect("wrap");
        for (pos, mask) in flips {
            let idx = pos as usize % s.len();
            s[idx] ^= mask;
        }
        let _ = registry().decompress_auto(&s, 1);
    }

    #[test]
    fn zfp_chunked_decompress_never_panics_on_noise(
        bytes in proptest::collection::vec(any::<u8>(), 0..2048)
    ) {
        let mut s = b"ZFLP".to_vec();
        s.extend_from_slice(&bytes);
        let _ = ZfpCodec::decompress_chunked::<f32>(&s, 1);
    }

    #[test]
    fn zfp_chunked_decompress_never_panics_on_mutated_valid_stream(
        flips in proptest::collection::vec((any::<u16>(), any::<u8>()), 1..8)
    ) {
        let mut s = zfp_chunked_stream();
        for (pos, mask) in flips {
            let idx = pos as usize % s.len();
            s[idx] ^= mask;
        }
        let _ = ZfpCodec::decompress_chunked::<f32>(&s, 2);
    }
}
