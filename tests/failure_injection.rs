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

/// A block-adaptive lattice stream (predictor byte 3) whose payload is raw,
/// with literals and regression blocks, and where its last three sections
/// start: the literals, the block flags and the coefficients.
///
/// The encoder writes byte 2 (whole-array Lorenzo) only; byte 3 is the
/// layout older versions wrote on arrays of two dimensions or more, whose
/// writer is test-only in `lcpio-sz`. So the stream is built here from the
/// registry's byte-2 stream of the field: its predictor byte set to 3, and
/// behind its literal section a flag per 6³ block (the blocks of the tilted
/// plane flagged regression) and each of those blocks' plane as its
/// coefficients. Those blocks decode to other values than the field's
/// (their residuals are Lorenzo's); the tests that use it are about the
/// sections, not the values.
fn lattice_stream_sections() -> (Vec<u8>, [usize; 3]) {
    let (nz, ny, nx) = (12usize, 18, 24);
    let mut x = 0x2545_f491u32;
    let data: Vec<f32> = (0..nz * ny * nx)
        .map(|idx| {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            let (i, j, k) = (idx % nx, idx / nx % ny, idx / (nx * ny));
            let noise = (x >> 8) as f32 / (1 << 24) as f32 - 0.5;
            match (i / 6 + j / 6 + k / 6) % 3 {
                0 => 3.0 * i as f32 - 2.0 * j as f32 + 0.5 * k as f32 + 0.02 * noise,
                _ if idx % 97 == 5 => f32::NAN,
                _ => (i as f32 * 0.11).sin() * (j as f32 * 0.07).cos() + k as f32 * 0.013,
            }
        })
        .collect();
    let sz = registry().by_name("sz").expect("registered");
    let mut stream = sz.compress(&data, &[nz, ny, nx], BoundSpec::Absolute(1e-3)).expect("compress").bytes;
    let predictor_at = 13 + 1 + 1 + 3 * 8;
    assert_eq!((stream[4] & sz::header::FLAG_LOSSLESS, stream[predictor_at]), (0, 2), "a raw byte-2 stream");
    stream[predictor_at] = 3;
    let (mut flags, mut coeffs) = (vec![0u8; (nz / 6 * ny / 6 * nx / 6).div_ceil(8)], Vec::new());
    let blocks = (0..nz / 6).flat_map(|bk| (0..ny / 6).flat_map(move |bj| (0..nx / 6).map(move |bi| (bk, bj, bi))));
    for (n, (bk, bj, bi)) in blocks.enumerate().filter(|(_, (bk, bj, bi))| (bi + bj + bk) % 3 == 0) {
        flags[n / 8] |= 0x80 >> (n % 8);
        let intercept = 3.0 * (6 * bi) as f32 - 2.0 * (6 * bj) as f32 + 0.5 * (6 * bk) as f32;
        coeffs.extend([intercept, 3.0, -2.0, 0.5].iter().flat_map(|c| c.to_le_bytes()));
    }
    for section in [flags, coeffs] {
        stream.extend_from_slice(&(section.len() as u64).to_le_bytes());
        stream.extend_from_slice(&section);
    }
    let body = (stream.len() - 13) as u64;
    stream[5..13].copy_from_slice(&body.to_le_bytes());
    // The payload is raw (the field is too noisy for the LZSS pass). Behind
    // the table: the coded-bit count, then the symbol section, then
    // the three sections, each a u64 length and its bytes.
    let len_at = |at: usize| u64::from_le_bytes(stream[at..at + 8].try_into().unwrap()) as usize;
    let symbols = sz::table_range(&stream).expect("a raw stream").end + 8;
    let literals = symbols + 8 + len_at(symbols);
    let flags = literals + 8 + len_at(literals);
    let coeffs = flags + 8 + len_at(flags);
    assert_eq!(coeffs + 8 + len_at(coeffs), stream.len());
    assert!(len_at(literals) > 0 && len_at(coeffs) > 0, "literals and regression blocks");
    (stream, [literals, flags, coeffs])
}

/// `stream` with the section at `at` cut short by `cut` bytes, its length
/// and the envelope's body length made to agree.
fn cut_section(stream: &[u8], at: usize, cut: usize) -> Vec<u8> {
    let len = u64::from_le_bytes(stream[at..at + 8].try_into().unwrap()) as usize;
    let mut out = stream[..at].to_vec();
    out.extend_from_slice(&((len - cut) as u64).to_le_bytes());
    out.extend_from_slice(&stream[at + 8..at + 8 + len - cut]);
    out.extend_from_slice(&stream[at + 8 + len..]);
    let body = (out.len() - 13) as u64;
    out[5..13].copy_from_slice(&body.to_le_bytes());
    out
}

#[test]
fn lattice_stream_with_a_short_section_is_a_typed_error() {
    let (stream, sections) = lattice_stream_sections();
    assert_eq!(stream[13 + 1 + 1 + 3 * 8], 3, "the block-adaptive lattice predictor");
    assert!(sz::decompress(&stream).is_ok());
    // One literal, one byte of block flags, one block's coefficients short.
    let [literals, flags, coeffs] = sections;
    for (at, cut, error) in
        [(literals, 4, "literal underrun"), (flags, 1, "block flags"), (coeffs, 16, "coeff underrun")]
    {
        assert_eq!(sz::decompress(&cut_section(&stream, at, cut)), Err(sz::SzError::Corrupt(error)));
    }
    // And every other cut of each: an error of its type, never a panic.
    for at in sections {
        let len = u64::from_le_bytes(stream[at..at + 8].try_into().unwrap()) as usize;
        for cut in 1..=len {
            assert!(matches!(sz::decompress(&cut_section(&stream, at, cut)), Err(sz::SzError::Corrupt(_))));
        }
    }
}

#[test]
fn every_predictor_byte_on_a_lattice_stream_decodes_or_is_a_typed_error() {
    // 0 and 1 send the lattice stream's symbols to the decoder of the
    // predictor older streams carry, 2 to the classic lattice loop; past 3
    // nothing knows the byte.
    let (stream, _) = lattice_stream_sections();
    let at = 13 + 1 + 1 + 3 * 8;
    for byte in 0..=u8::MAX {
        let mut forged = stream.clone();
        forged[at] = byte;
        let decoded = sz::decompress(&forged);
        if byte > 3 {
            assert_eq!(decoded.unwrap_err(), sz::SzError::Corrupt("unknown predictor"));
        }
    }
}

#[test]
fn a_lattice_index_past_i64_max_is_no_panic() {
    // Rank 1 at order 2 (the default): two NaNs, then noise. The encoder
    // codes the NaNs as escapes of lattice index 0; the literal section,
    // which ends the raw payload, holds the two NaNs. Forged to -4e12 and
    // 4e12 at eb 1e-3, the literals put the first two indices at -2e15 and
    // 2e15, and from there each index extrapolates the two before it plus
    // its residual (a few thousand at most): past i64::MAX by element
    // 2 400 of 8 192. Past `2^51`, where no encoder goes, the values are
    // garbage; wrapping arithmetic makes them garbage in the debug build
    // too, and not a panic.
    let mut x = 0x9e37_79b9u32;
    let mut data: Vec<f32> = (0..8192)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            (x >> 8) as f32 / (1 << 24) as f32 - 0.5
        })
        .collect();
    data[..2].fill(f32::NAN);
    let sz = registry().by_name("sz").expect("registered");
    let mut stream = sz.compress(&data, &[8192], BoundSpec::Absolute(1e-3)).expect("compress").bytes;
    assert!(sz::table_range(&stream).is_some(), "the payload is raw");
    let n = stream.len();
    assert_eq!(stream[n - 16..n - 8], 8u64.to_le_bytes(), "two literals end the stream");
    stream[n - 8..n - 4].copy_from_slice(&(-4.0e12f32).to_le_bytes());
    stream[n - 4..].copy_from_slice(&4.0e12f32.to_le_bytes());
    let (values, _) = sz::decompress(&stream).expect("the forged stream decodes");
    assert_eq!(values.len(), 8192);
    assert_eq!((values[0], values[1]), (-4.0e12, 4.0e12), "the forged literals");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn registry_decompress_auto_never_panics_on_noise(
        bytes in proptest::collection::vec(any::<u8>(), 0..2048)
    ) {
        // The product decode surface: arbitrary bytes either decode or
        // return a structured error, for f32 through the registry and f64
        // through the backend crates' and the chunked containers' decodes.
        let _ = registry().decompress_auto(&bytes, 1);
        let _ = sz::decompress_f64(&bytes);
        let _ = zfp::decompress_f64(&bytes);
        let _ = SzCodec::decompress_chunked::<f64>(&bytes, 1);
        let _ = ZfpCodec::decompress_chunked::<f64>(&bytes, 1);
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
