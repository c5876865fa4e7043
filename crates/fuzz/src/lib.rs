#![forbid(unsafe_code)]
//! Deterministic mutation fuzzing of the decode surfaces.
//!
//! No external fuzzing engine: a seeded xorshift RNG mutates a corpus of
//! valid containers (every registry codec, wire-wrapped and legacy, plus
//! the `LCS1`/`LCW1` streaming containers and a few hand-forged headers
//! mirroring the failure-injection fixtures) and throws the results at
//! these targets:
//!
//! 1. **Envelope parse** — [`lcpio_wire::Envelope::parse`] + the validated
//!    frame index and every typed accessor.
//! 2. **Streaming decode** — [`lcpio_wire::StreamDecoder`] fed the same
//!    bytes in randomly sized pieces, differentially checked against the
//!    one-shot parse: both must accept or both must reject, and on accept
//!    the frames must agree byte-for-byte.
//! 3. **Registry auto-decompress** — the product decode path
//!    ([`lcpio_codec::CodecRegistry::decompress_auto`]), and whatever it
//!    accepts decoded again into a caller's buffer
//!    ([`lcpio_codec::Codec::decompress_into`]), which must restore the
//!    same bits; the `f64` decodes of the backend crates and the chunked
//!    containers; and the streaming container decoder.
//! 4. **Codec-tag field** — the per-frame codec-tag TLV of mixed-codec
//!    streaming containers: the accessor must answer or error (never
//!    panic), and a tag list carrying an unknown codec id must never
//!    decode. The corpus seeds honest mixed-codec containers plus
//!    deterministic forgeries (unknown id, swapped tags, truncated tag
//!    list) for the mutators to work from.
//! 5. **Serve protocol** — the `LCRQ`/`LCRS` request/response frame
//!    codec of `lcpio-serve` (spec: `PROTOCOL.md`): decode must answer
//!    or error (never panic), a successful decode must agree with
//!    [`lcpio_serve::protocol::frame_len`] on where the frame ends, and
//!    re-encoding a decoded frame must decode back to the same value.
//!    Seeded with a valid frame for every operation and status family.
//! 6. **Noise after a magic** — not a mutation of anything valid: every
//!    magic the registry resolves, plus `LCS1`, `LCRQ` and `LCRS`,
//!    followed by a random tail (0–256 bytes, or a plausible type/rank
//!    prefix with huge little-endian dims and counts), thrown at registry
//!    auto-decompress, the three streaming-container decoders (one-shot,
//!    positioned restart and forward-read restart fed 1–97 bytes a read,
//!    which must agree on accept or reject, and on every bit when they
//!    accept) and the serve
//!    frame codec. Mutating valid streams keeps most header fields sane; this is
//!    the input class that reaches a decoder's size arithmetic with every
//!    field forged at once.
//!
//! 7. **SZ Huffman tables** — not a mutation either: a drawn code-length
//!    table (a random prefix code over a sparse alphabet, sometimes
//!    incomplete, sometimes oversubscribed or overlong) and a drawn byte
//!    string, through the three ways `lcpio-sz` can decode them: the bulk
//!    table decoder, its per-symbol form, and a bit-at-a-time reference
//!    kept here. A table is accepted by all or none, and then the symbols
//!    are equal or every decoder refuses.
//!
//! The `SZL1` stream has three independent flag bits (LZSS body, packed
//! Huffman table, class form of the code), and which of them the encoder
//! sets depends on the field: [`szl1_flag_corpus`] seeds one stream per
//! combination of the first two and one in the class form. Those are all
//! lattice streams of predictor byte 2, the one the encoder writes;
//! `LATTICE_BLOCK_SZL1_SEED` (byte 3) and `LEGACY_SZL1_SEED` (byte 1) are
//! block-adaptive streams older versions wrote, so mutations reach the
//! decoder of each. A seed whose
//! packed table lies open in the body (no LZSS layer over it) gets half of
//! its mutations aimed inside the table's fields, where blind byte edits
//! over a whole stream rarely land. A seed whose payload lies open gets a
//! quarter of them (half, when it has no packed table) aimed inside the
//! payload's fixed header ([`payload_header_span`]).
//!
//! Every run is reproducible from its seed; the harness panics (and the
//! smoke test fails) on the first input that panics a target or breaks the
//! differential contract.

use lcpio_codec::{registry, BoundSpec, SzCodec, ZfpCodec};
use lcpio_core::pipeline::{
    decode_stream, run_restart, run_restart_streamed, run_sequential, PipelineConfig,
    RestartConfig, SliceSource, VecSink, STREAM_MAGIC,
};
use lcpio_core::PolicyKind;
use lcpio_wire::{Envelope, EnvelopeBuilder, StreamDecoder};

/// Splittable xorshift64* PRNG — deterministic and dependency-free.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Seeded generator (any seed, including 0, is fine).
    pub fn new(seed: u64) -> Self {
        Rng(seed | 1)
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// Uniform value in `0..n` (`n` > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Valid-container corpus the mutators start from.
pub fn seed_corpus() -> Vec<Vec<u8>> {
    let data: Vec<f32> = (0..2048).map(|i| (i as f32 * 0.01).sin() * 10.0).collect();
    let mut corpus = Vec::new();
    // Every registry codec, serial and chunked, absolute and pointwise-
    // relative bounds, 2-D and rank 1 — compression dispatches through the
    // registry only.
    for name in ["sz", "zfp"] {
        let codec = registry().by_name(name).expect("registered codec");
        for dims in [&[32, 64][..], &[2048]] {
            for bound in [BoundSpec::Absolute(1e-3), BoundSpec::PointwiseRelative(1e-3)] {
                for threads in [1usize, 2] {
                    let enc = if threads > 1 {
                        codec.compress_chunked(&data, dims, bound, threads)
                    } else {
                        codec.compress(&data, dims, bound)
                    };
                    if let Ok(enc) = enc {
                        // Both the legacy container and its wire-wrapped form.
                        if let Ok(wired) = lcpio_codec::wire::wrap(&enc.bytes) {
                            corpus.push(wired);
                        }
                        corpus.push(enc.bytes);
                    }
                }
            }
        }
    }
    // The streaming-pipeline container in both framings.
    for wire in [false, true] {
        let cfg = PipelineConfig {
            chunk_elements: 512,
            wire_format: wire,
            ..PipelineConfig::default()
        };
        let mut sink = VecSink::default();
        run_sequential(&data, &cfg, &mut sink).expect("pipeline");
        corpus.push(sink.bytes);
    }
    // One `SZL1` stream per flag combination, and one of each older
    // block-adaptive predictor.
    corpus.extend(szl1_flag_corpus().into_iter().map(|(_, stream)| stream));
    corpus.push(LATTICE_BLOCK_SZL1_SEED.to_vec());
    corpus.push(LEGACY_SZL1_SEED.to_vec());
    // Mixed-codec containers and their codec-tag forgeries.
    corpus.extend(mixed_tag_corpus());
    // Serve-protocol request and response frames.
    corpus.extend(serve_protocol_corpus());
    // Hand-forged headers mirroring the failure-injection fixtures:
    // forged element counts, absurd section lengths, bare magics.
    corpus.push(b"LCW1".to_vec());
    corpus.push(b"LCW1\x01\x00\x00".to_vec());
    corpus.push(b"LCS1".to_vec());
    let mut forged = b"LCS1".to_vec();
    forged.extend_from_slice(&u64::MAX.to_le_bytes());
    forged.extend_from_slice(&512u64.to_le_bytes());
    corpus.push(forged);
    corpus.extend([false, true].map(misaligned_frames));
    let mut huge_section = b"SZL1\x00".to_vec();
    huge_section.extend_from_slice(&(1u32 << 20).to_le_bytes());
    huge_section.extend_from_slice(&(1u64 << 40).to_le_bytes());
    corpus.push(huge_section);
    corpus
}

/// A streaming container whose raw frames hold 999, 1001 and 1000
/// elements under a header of 3000 elements in chunks of 1000: the right
/// total and frame count, every frame off its range. Legacy `LCS1`
/// layout, or its `LCW1` form.
pub fn misaligned_frames(wire: bool) -> Vec<u8> {
    let params = [3000u64, 1000].map(u64::to_le_bytes).concat();
    let raw = |n: u32| (0..n).flat_map(|i| (i as f32).to_le_bytes()).collect::<Vec<u8>>();
    let frames = [999, 1001, 1000].map(|n| [vec![1u8], raw(n)].concat());
    if wire {
        let frames = frames.each_ref().map(Vec::as_slice);
        return EnvelopeBuilder::new(STREAM_MAGIC).params(&params).build(&frames);
    }
    let framed = frames.iter().map(|f| [&f[..1], &(f.len() as u32 - 1).to_le_bytes(), &f[1..]].concat());
    [STREAM_MAGIC.to_vec(), params].into_iter().chain(framed).collect::<Vec<_>>().concat()
}

/// One serial `SZL1` stream per combination of its first two flag bits, and
/// one in the class form, each with the flags byte the field is chosen to
/// produce (asserted, so an encoder change cannot silently drop a
/// combination from the corpus):
///
/// * `2`: a noisy field. The table spans hundreds of bins and is packed;
///   LZSS loses to its literal tax and is dropped.
/// * `1`: a field of zeros. A one-entry table stays dense; the payload is
///   runs and the LZSS form is kept (all the encoder wrote before the
///   table could be packed).
/// * `3`: mostly flat with a noisy stretch: a wide table and runs.
/// * `0`: every value escapes (jumps far beyond the quantizer's range): a
///   one-entry dense table in front of raw literals LZSS cannot shrink.
///   The form the backend also writes with its lossless stage off.
/// * `6`: noise of ±20 on a wave, so residuals spread over the whole
///   alphabet: the exact table packs past 4 KiB, and the class form
///   (`FLAG_CLASS_CODES`, class codes with raw bits behind them, a packed
///   table of their lengths) is smaller.
pub fn szl1_flag_corpus() -> Vec<(u8, Vec<u8>)> {
    let n = 8192usize;
    let mut rng = Rng::new(0x5a11);
    let mut noise = |amplitude: f32| {
        (rng.next_u64() >> 40) as f32 / (1u64 << 24) as f32 * 2.0 * amplitude - amplitude
    };
    let noisy: Vec<f32> = (0..n).map(|i| (i as f32 * 0.01).sin() + noise(0.5)).collect();
    let constant = vec![0.0f32; n];
    let mostly_flat: Vec<f32> =
        (0..n).map(|i| if i < n - n / 8 { 2.5 } else { 2.5 + noise(0.5) }).collect();
    let escapes: Vec<f32> = (0..n).map(|_| noise(1e30)).collect();
    let wide: Vec<f32> = (0..n).map(|i| (i as f32 * 0.01).sin() * 40.0 + noise(20.0)).collect();
    let sz = registry().by_name("sz").expect("registered codec");
    [(2u8, noisy), (1, constant), (3, mostly_flat), (0, escapes), (6, wide)]
        .into_iter()
        .map(|(flags, field)| {
            let stream =
                sz.compress(&field, &[n], BoundSpec::Absolute(1e-3)).expect("seed compress").bytes;
            assert!(stream.starts_with(b"SZL1"), "a serial SZ stream");
            assert_eq!(stream[4], flags, "the SZL1 seed meant to carry flags {flags}");
            (flags, stream)
        })
        .collect()
}

/// An `SZL1` stream of the predictor over reconstructed values (predictor
/// byte 1, block-adaptive), which the encoder no longer writes and the
/// decoder still reads: without it every seed is a lattice stream and no
/// mutation reaches that decoder. 12 × 16 values at 1e-2, radius 64,
/// lossless stage off: three regression and three Lorenzo blocks, 41
/// literals (a NaN, a 3e30 and the residuals past the radius). Written by
/// the legacy writer (`lcpio-sz`'s test-only `pipeline::legacy`).
const LEGACY_SZL1_SEED: [u8; 447] = [
    0x53, 0x5a, 0x4c, 0x31, 0x00, 0xb2, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x0c,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x10, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01,
    0x02, 0x7b, 0x14, 0xae, 0x47, 0xe1, 0x7a, 0x84, 0x3f, 0x40, 0x00, 0x00, 0x00, 0xc0, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x50, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x07, 0x07,
    0x07, 0x07, 0x00, 0x07, 0x07, 0x00, 0x00, 0x07, 0x07, 0x00, 0x00, 0x00, 0x04, 0x01, 0x04, 0x06,
    0x06, 0x00, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00, 0x07, 0x00, 0x07, 0x00, 0x07, 0xa1, 0x01, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x35, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x7f, 0xfd, 0xf7,
    0xe7, 0x3c, 0xe6, 0xb1, 0xc6, 0xe3, 0x5c, 0xe6, 0xb1, 0xc6, 0xe3, 0x50, 0x33, 0xd7, 0x9e, 0xdd,
    0x7a, 0x37, 0x34, 0x65, 0x0d, 0xa1, 0x8d, 0xc0, 0x1d, 0x7b, 0xf8, 0xf7, 0x8d, 0x6e, 0x00, 0xd6,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x55, 0x55, 0x55, 0x55, 0x55, 0x55, 0x55, 0x55, 0x55, 0x00, 0x00,
    0x00, 0x00, 0xa4, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80, 0x3e, 0x00, 0x00,
    0xc0, 0x7f, 0x5e, 0x02, 0x07, 0x3f, 0x8e, 0x51, 0x53, 0x3f, 0x2a, 0xcf, 0x13, 0x3f, 0x66, 0x66,
    0x66, 0x3f, 0x33, 0x33, 0x93, 0x3f, 0x33, 0x33, 0xb3, 0x3f, 0x33, 0x33, 0xd3, 0x3f, 0x33, 0x33,
    0xf3, 0x3f, 0x9a, 0x99, 0x09, 0x40, 0xcd, 0xcc, 0x4c, 0x3f, 0x66, 0x66, 0x86, 0x3f, 0x66, 0x66,
    0xa6, 0x3f, 0x66, 0x66, 0xc6, 0x3f, 0x66, 0x66, 0xe6, 0x3f, 0x33, 0x33, 0x03, 0x40, 0x33, 0x33,
    0x33, 0x3f, 0x33, 0x33, 0x73, 0x3f, 0x9a, 0x99, 0x99, 0x3f, 0x9a, 0x99, 0xb9, 0x3f, 0x9a, 0x99,
    0xd9, 0x3f, 0x9a, 0x99, 0xf9, 0x3f, 0x17, 0x76, 0x17, 0x72, 0x99, 0x99, 0x59, 0x3f, 0xcc, 0xcc,
    0x8c, 0x3f, 0xcc, 0xcc, 0xac, 0x3f, 0xcc, 0xcc, 0xcc, 0x3f, 0xcc, 0xcc, 0xec, 0x3f, 0x00, 0x00,
    0x00, 0x3f, 0x00, 0x00, 0x40, 0x3f, 0x00, 0x00, 0x80, 0x3f, 0x00, 0x00, 0xa0, 0x3f, 0x00, 0x00,
    0xc0, 0x3f, 0x00, 0x00, 0xe0, 0x3f, 0xcc, 0xcc, 0xcc, 0x3e, 0x66, 0x66, 0x26, 0x3f, 0x66, 0x66,
    0x66, 0x3f, 0x33, 0x33, 0x93, 0x3f, 0x33, 0x33, 0xb3, 0x3f, 0x33, 0x33, 0xd3, 0x3f, 0x01, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x1c, 0x30, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x9a,
    0x99, 0x19, 0xbf, 0x00, 0x00, 0x80, 0x3e, 0xcd, 0xcc, 0xcc, 0xbd, 0x00, 0x00, 0x00, 0x00, 0x18,
    0xb7, 0x36, 0x70, 0x54, 0xcc, 0x66, 0xef, 0x76, 0xa3, 0x38, 0x6e, 0x00, 0x00, 0x00, 0x00, 0x9a,
    0x99, 0x19, 0x40, 0x00, 0x00, 0x80, 0x3e, 0xcd, 0xcc, 0xcc, 0xbd, 0x00, 0x00, 0x00, 0x00
];

/// An `SZL1` stream of the block-adaptive predictor on the lattice
/// (predictor byte 3), which the encoder no longer writes and the decoder
/// still reads: 12 × 16 values at 1e-2, radius 64, lossless stage off,
/// three regression and three Lorenzo blocks, 11 literals (a NaN at 40, a
/// 3e30 at 150 and residuals past the radius). Written by `lcpio-sz`'s
/// test-only byte-3 writer (`pipeline::lattice_blocks`), which pins it.
const LATTICE_BLOCK_SZL1_SEED: [u8; 433] = [
    0x53, 0x5a, 0x4c, 0x31, 0x00, 0xa4, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x0c,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x10, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03,
    0x02, 0x7b, 0x14, 0xae, 0x47, 0xe1, 0x7a, 0x84, 0x3f, 0x40, 0x00, 0x00, 0x00, 0xc0, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x79, 0x00, 0x00, 0x00, 0x04, 0x00, 0x08,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x08, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x08, 0x00, 0x08, 0x00, 0x00, 0x00, 0x07, 0x07, 0x08, 0x00, 0x08,
    0x00, 0x00, 0x00, 0x00, 0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x08, 0x00, 0x08, 0x00, 0x08, 0x00,
    0x00, 0x00, 0x08, 0x07, 0x07, 0x06, 0x06, 0x06, 0x05, 0x04, 0x04, 0x04, 0x04, 0x04, 0x03, 0x04,
    0x04, 0x04, 0x07, 0x06, 0x07, 0x07, 0x06, 0x07, 0x07, 0x07, 0x08, 0x00, 0x00, 0x00, 0x08, 0x00,
    0x00, 0x08, 0x00, 0x07, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x07, 0x00,
    0x07, 0x00, 0x00, 0x07, 0x00, 0x07, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x07, 0xaa, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x76, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xa7, 0x6c, 0x2a, 0xbc, 0xb3, 0x7a, 0x7a, 0xfb, 0x7c, 0xdb,
    0x7f, 0x1e, 0x74, 0xa6, 0x28, 0xff, 0xc4, 0x44, 0x38, 0x66, 0x5a, 0x65, 0x49, 0xc3, 0x66, 0xa2,
    0x6a, 0x90, 0xa8, 0x61, 0x02, 0x9d, 0x69, 0xd7, 0x3f, 0xba, 0xe9, 0xd6, 0xd7, 0xaa, 0x50, 0x39,
    0x5c, 0xb7, 0x6d, 0xd9, 0x50, 0x97, 0xe9, 0x95, 0x0b, 0x12, 0x99, 0x6f, 0xdd, 0x96, 0x21, 0x2f,
    0xfc, 0x60, 0xcf, 0x8c, 0xfd, 0xdc, 0x36, 0xff, 0x70, 0x07, 0x76, 0x80, 0xaa, 0x19, 0x33, 0x7d,
    0x4f, 0x0e, 0x9d, 0xc2, 0xdf, 0xa0, 0x41, 0xca, 0x27, 0x9f, 0xc5, 0x72, 0xf0, 0x50, 0x76, 0xba,
    0x21, 0x5c, 0xd4, 0xbd, 0xf5, 0x75, 0x22, 0x76, 0xb6, 0x11, 0x08, 0xb1, 0x45, 0x9f, 0x1e, 0xc4,
    0x41, 0x95, 0x2c, 0x93, 0x30, 0xe5, 0x9f, 0x1e, 0xc4, 0x4c, 0xee, 0x00, 0x2c, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xc0, 0x7f, 0xf9, 0xa2, 0xb3, 0x3f, 0x17, 0x76, 0x17, 0x72,
    0x00, 0x28, 0xaf, 0x3f, 0xbc, 0x3d, 0xdc, 0x3f, 0x26, 0x30, 0xab, 0xbf, 0x75, 0xcd, 0xbf, 0x3f,
    0x16, 0x2c, 0xf1, 0x3f, 0xeb, 0xc0, 0xaa, 0xbf, 0xd5, 0x50, 0xbf, 0x3f, 0x61, 0x8f, 0xf0, 0x3f,
    0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x98, 0x30, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0xdd, 0x11, 0x91, 0x3b, 0xbd, 0x95, 0x00, 0x3f, 0x1e, 0x6e, 0x9a, 0xbe, 0x00, 0x00, 0x00,
    0x00, 0x96, 0x8e, 0xe8, 0xbf, 0xcf, 0x1d, 0x00, 0x3f, 0x6d, 0x72, 0x94, 0xbe, 0x00, 0x00, 0x00,
    0x00, 0x18, 0xb7, 0x36, 0x70, 0x54, 0xcc, 0x66, 0xef, 0x76, 0xa3, 0x38, 0x6e, 0x00, 0x00, 0x00,
    0x00
];

/// Where the Huffman table's fields sit in an `SZL1` stream whose packed
/// table is not under an LZSS layer: the symbol count, the packed section's
/// length and the section itself, as the sz crate's own header parse finds
/// them. `None` for any other input.
pub fn packed_table_span(stream: &[u8]) -> Option<std::ops::Range<usize>> {
    use lcpio_sz::header::{FLAG_LOSSLESS, FLAG_PACKED_TABLE};
    let packed = stream.get(4).is_some_and(|&flags| flags & (FLAG_LOSSLESS | FLAG_PACKED_TABLE) == FLAG_PACKED_TABLE);
    lcpio_sz::table_range(stream).filter(|_| packed)
}

/// The fixed header of an `SZL1` stream whose payload is not under an LZSS
/// layer: from the element type tag up to the Huffman table (shape,
/// predictor and order bytes, error bound, radius, element count and the
/// first coded symbol), where the decoder's checks of the predictor byte
/// and of the bytes after the body and the payload sit. `None` for any
/// other input.
pub fn payload_header_span(stream: &[u8]) -> Option<std::ops::Range<usize>> {
    lcpio_sz::table_range(stream).map(|table| lcpio_sz::header::ENVELOPE_LEN..table.start)
}

/// [`mutate`] confined to `span` of `input`: the bytes around it stay, so
/// every field in front still leads the decoder to the mutated stretch.
pub fn mutate_within(input: &[u8], span: std::ops::Range<usize>, rng: &mut Rng) -> Vec<u8> {
    let mut out = input[..span.start].to_vec();
    out.extend(mutate(&input[span.clone()], rng));
    out.extend_from_slice(&input[span.end..]);
    out
}

/// Mixed-codec `LCW1` streaming containers plus deterministic codec-tag
/// forgeries: honest heuristic- and adaptive-planned streams over data
/// that alternates smooth and noisy blocks (so the tags genuinely mix),
/// then — rebuilt from the heuristic member — one container with an
/// unknown codec id spliced into the tag list, one with every SZ/ZFP tag
/// swapped, and one whose tag list is one entry short of the frame count.
pub fn mixed_tag_corpus() -> Vec<Vec<u8>> {
    let data: Vec<f32> = (0..4 * 512)
        .map(|i| {
            let block = i / 512;
            let x = (i % 512) as f32;
            if block % 2 == 0 { (x * 0.02).sin() } else { (x * 7919.0).sin() * 1e4 }
        })
        .collect();
    let mut out = Vec::new();
    for policy in [PolicyKind::Heuristic, PolicyKind::Adaptive] {
        let cfg = PipelineConfig {
            chunk_elements: 512,
            wire_format: true,
            policy,
            ..PipelineConfig::default()
        };
        let mut sink = VecSink::default();
        run_sequential(&data, &cfg, &mut sink).expect("mixed-codec pipeline");
        out.push(sink.bytes);
    }
    let honest = out[0].clone();
    let env = Envelope::parse(&honest).expect("valid envelope");
    let idx = env.index(&honest).expect("valid frame index");
    let frames: Vec<Vec<u8>> =
        idx.entries.iter().map(|e| honest[e.off..e.off + e.len].to_vec()).collect();
    let frame_refs: Vec<&[u8]> = frames.iter().map(Vec::as_slice).collect();
    let params = env.params().expect("LCS1 params").to_vec();
    let tags = env.codec_tags().expect("well-formed tags").expect("tagged stream").to_vec();
    let rebuild = |t: &[u8]| {
        EnvelopeBuilder::new(env.container).params(&params).codec_tags(t).build(&frame_refs)
    };
    let mut unknown = tags.clone();
    unknown[0] = 9; // no such codec id
    out.push(rebuild(&unknown));
    let swapped: Vec<u8> =
        tags.iter().map(|&t| match t { 1 => 2, 2 => 1, other => other }).collect();
    out.push(rebuild(&swapped));
    out.push(rebuild(&tags[..tags.len() - 1]));
    out
}

/// Serve-protocol seeds: one valid request frame per operation (with
/// the optional codec/bound/policy/dims fields exercised), plus response
/// frames spanning the status families (success-with-payload, typed
/// error, busy) — the envelope-mutation corpus for target 5.
pub fn serve_protocol_corpus() -> Vec<Vec<u8>> {
    use lcpio_serve::protocol::{status, Op, Request, Response};
    let data: Vec<f32> = (0..256).map(|i| (i as f32 * 0.03).cos()).collect();
    let container = registry()
        .by_name("sz")
        .expect("registered codec")
        .compress(&data, &[256], BoundSpec::Absolute(1e-3))
        .expect("seed compress")
        .bytes;
    let mut out = vec![
        Request::compress(
            1,
            &data,
            &[16, 16],
            lcpio_codec::policy::CodecId::Sz,
            BoundSpec::PointwiseRelative(1e-2),
            PolicyKind::Adaptive,
        )
        .encode(),
        Request::decompress(2, &container).encode(),
        Request::info(3, &container).encode(),
        Request::control(42, Op::Ping).encode(),
        Request::control(5, Op::Shutdown).encode(),
    ];
    // A minimal compress request: every optional field absent.
    let mut bare = Request::control(6, Op::Compress);
    bare.dims = vec![256];
    bare.payload = data.iter().flat_map(|v| v.to_le_bytes()).collect();
    out.push(bare.encode());
    // Responses: an OK carrying a container, a decompress-shaped OK with
    // dims, and typed rejections.
    let mut ok = Response::of_status(1, status::OK, "");
    ok.latency_us = 1234;
    ok.energy_uj = 56789;
    ok.codec = Some(lcpio_codec::policy::CodecId::Sz);
    ok.payload = container;
    out.push(ok.encode());
    let mut restored = Response::of_status(2, status::OK, "");
    restored.dims = vec![16, 16];
    restored.payload = vec![0u8; 64];
    out.push(restored.encode());
    out.push(Response::of_status(7, status::BUSY, "every worker queue is full").encode());
    out.push(Response::of_status(0, status::MALFORMED, "duplicate TLV tag").encode());
    out
}

/// Target 5: the serve-protocol frame codec. Decode must never panic; a
/// successful decode must agree with `frame_len` about where the frame
/// ends; re-encoding the decoded value must decode back equal (the codec
/// is lossless modulo unknown TLV tags, which re-encoding drops).
pub fn target_serve_protocol(bytes: &[u8]) {
    use lcpio_serve::protocol::{frame_len, Request, Response};
    if let Ok((req, used)) = Request::decode(bytes) {
        assert!(used <= bytes.len(), "request decode consumed past the buffer");
        assert_eq!(
            frame_len(&bytes[..used]).expect("decoded frame has sound lengths"),
            Some(used),
            "frame_len and Request::decode disagree on the frame boundary"
        );
        let rewired = req.encode();
        let (again, n) = Request::decode(&rewired).expect("re-encoded request decodes");
        assert_eq!(n, rewired.len());
        assert_eq!(again, req, "request round-trip drifted");
    }
    if let Ok((resp, used)) = Response::decode(bytes) {
        assert!(used <= bytes.len(), "response decode consumed past the buffer");
        assert_eq!(
            frame_len(&bytes[..used]).expect("decoded frame has sound lengths"),
            Some(used),
            "frame_len and Response::decode disagree on the frame boundary"
        );
        let rewired = resp.encode();
        let (again, n) = Response::decode(&rewired).expect("re-encoded response decodes");
        assert_eq!(n, rewired.len());
        assert_eq!(again, resp, "response round-trip drifted");
    }
    // frame_len itself must answer or error on any prefix, never panic.
    let _ = frame_len(bytes);
}

/// Mutate `input` in place-ish: flips, overwrites, truncations, splices,
/// insertions and integer extremes, 1–4 of them per call.
pub fn mutate(input: &[u8], rng: &mut Rng) -> Vec<u8> {
    let mut out = input.to_vec();
    for _ in 0..(1 + rng.below(4)) {
        if out.is_empty() {
            out.push(rng.next_u64() as u8);
            continue;
        }
        match rng.below(6) {
            0 => {
                let i = rng.below(out.len());
                out[i] ^= 1 << rng.below(8);
            }
            1 => {
                let i = rng.below(out.len());
                out[i] = rng.next_u64() as u8;
            }
            2 => out.truncate(rng.below(out.len() + 1)),
            3 => {
                // Splice a window from one offset over another.
                let len = 1 + rng.below(9.min(out.len()));
                let src = rng.below(out.len() - len + 1);
                let dst = rng.below(out.len() - len + 1);
                let window: Vec<u8> = out[src..src + len].to_vec();
                out[dst..dst + len].copy_from_slice(&window);
            }
            4 => {
                let i = rng.below(out.len() + 1);
                out.insert(i, rng.next_u64() as u8);
            }
            _ => {
                // A little-endian integer extreme over a 4- or 8-byte
                // window: the values a length, count or dimension field
                // overflows size arithmetic with, which no run of byte
                // edits ever writes (the last two panics a socket could
                // reach were each one `u64::MAX` field away from a seed).
                let width = [4, 8][rng.below(2)].min(out.len());
                let max = u64::MAX >> (64 - 8 * width);
                let value = match rng.below(6) {
                    0 => 0,
                    1 => 1,
                    2 => max,
                    3 => max - rng.below(64) as u64,
                    4 => max / 2 + 1,
                    _ => 1 << (4 * width),
                };
                // Half the time within the first 64 bytes, where every
                // container keeps its header.
                let span = out.len() - width + 1;
                let near = rng.below(2) == 0;
                let at = rng.below(if near { span.min(64) } else { span });
                out[at..at + width].copy_from_slice(&value.to_le_bytes()[..width]);
            }
        }
    }
    out
}

/// Target 1: one-shot envelope parse + frame index + typed accessors.
/// Returns the frame payloads when the input is a valid envelope.
pub fn target_envelope_parse(bytes: &[u8]) -> Option<Vec<Vec<u8>>> {
    let env = Envelope::parse(bytes).ok()?;
    let idx = env.index(bytes).ok()?;
    // Typed accessors must error or answer — never panic — regardless of
    // what the TLV block claims.
    let _ = env.element_type();
    let _ = env.dims();
    let _ = env.chunk_table();
    let _ = env.params();
    Some(idx.entries.iter().map(|e| bytes[e.off..e.off + e.len].to_vec()).collect())
}

/// Target 2: incremental decode in randomly sized pieces, differentially
/// checked against the one-shot parse.
pub fn target_stream_decode(bytes: &[u8], rng: &mut Rng) {
    let oneshot = target_envelope_parse(bytes);
    let mut dec = StreamDecoder::new();
    let mut frames = Vec::new();
    let mut pos = 0usize;
    let mut failed = false;
    while pos < bytes.len() {
        let step = 1 + rng.below(97);
        let end = (pos + step).min(bytes.len());
        match dec.feed(&bytes[pos..end]) {
            Ok(mut f) => frames.append(&mut f),
            Err(_) => {
                failed = true;
                break;
            }
        }
        pos = end;
    }
    let ok = !failed && dec.finish().is_ok() && (bytes.is_empty() || dec.is_done());
    match (ok, oneshot) {
        (true, Some(expect)) => {
            let got: Vec<Vec<u8>> = frames.into_iter().map(|f| f.payload).collect();
            assert_eq!(got, expect, "streamed and one-shot decode disagree on frame payloads");
        }
        (true, None) => panic!("streaming decoder accepted an envelope the one-shot parse rejects"),
        (false, Some(_)) => {
            panic!("streaming decoder rejected an envelope the one-shot parse accepts")
        }
        (false, None) => {}
    }
}

/// Target 3: the product decode surface — registry auto-decompress, the
/// same stream into a caller's buffer, the `f64` decodes and the
/// streaming-container decoder.
pub fn target_registry_auto(bytes: &[u8]) {
    let auto = registry().decompress_auto(bytes, 1);
    if let (Ok((values, dims)), Ok((codec, _))) = (&auto, registry().by_magic(bytes)) {
        let mut into = vec![f32::NAN; values.len()];
        assert_eq!(codec.decompress_into(bytes, &mut into, 1).as_ref(), Ok(dims), "into refused");
        assert_eq!(bits(values), bits(&into), "decompress_into restored other bits");
    }
    decode_f64(bytes);
    let _ = decode_stream(bytes);
}

/// The `f64` decodes: the backend crates' serial streams and the adapters'
/// chunked containers.
fn decode_f64(bytes: &[u8]) {
    let _ = lcpio_sz::decompress_f64(bytes);
    let _ = lcpio_sz::decompress_pointwise_rel::<f64>(bytes);
    let _ = lcpio_zfp::decompress_f64(bytes);
    let _ = SzCodec::decompress_chunked::<f64>(bytes, 1);
    let _ = ZfpCodec::decompress_chunked::<f64>(bytes, 1);
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|x| x.to_bits()).collect()
}

/// Target 4: the codec-tag field. The accessor must answer or return a
/// typed error — never panic — and an `LCS1` streaming container whose
/// tag list carries an unknown codec id must never decode successfully.
pub fn target_codec_tags(bytes: &[u8]) {
    let Ok(env) = Envelope::parse(bytes) else { return };
    if let Ok(Some(tags)) = env.codec_tags() {
        if env.container == STREAM_MAGIC && tags.iter().any(|&t| t > 2) {
            assert!(
                decode_stream(bytes).is_err(),
                "container with an unknown codec id in its tag list must not decode"
            );
        }
    }
}

/// Every magic target 6 prefixes its noise with: the registry's
/// containers and the wire envelope, the streaming container, and the two
/// serve-protocol frame kinds.
pub fn noise_magics() -> Vec<[u8; 4]> {
    use lcpio_serve::protocol::{REQUEST_MAGIC, RESPONSE_MAGIC};
    let mut magics = registry().known_magics();
    magics.extend([STREAM_MAGIC, REQUEST_MAGIC, RESPONSE_MAGIC]);
    magics
}

/// One target-6 input: a magic from `magics`, then either a uniformly
/// random tail of 0–256 bytes or a forged container prelude — element
/// type, a valid rank, one huge little-endian `u64` per dim, a huge `u32`
/// count — padded with up to 64 zero or random bytes.
pub fn noise_after_magic(magics: &[[u8; 4]], rng: &mut Rng) -> Vec<u8> {
    let mut out = magics[rng.below(magics.len())].to_vec();
    if rng.below(2) == 0 {
        out.extend((0..rng.below(257)).map(|_| rng.next_u64() as u8));
        return out;
    }
    let rank = 1 + rng.below(4);
    out.extend([rng.below(2) as u8, rank as u8]);
    for _ in 0..rank {
        out.extend((1u64 << (20 + rng.below(44))).to_le_bytes());
    }
    out.extend((u32::MAX >> rng.below(12)).to_le_bytes());
    let zero_fill = rng.below(2) == 0;
    out.extend((0..rng.below(65)).map(|_| if zero_fill { 0 } else { rng.next_u64() as u8 }));
    out
}

/// Target 6: noise after a magic, into every decoder that sniffs one.
/// Each must answer or return a typed error without panicking or sizing
/// an allocation from a forged field; the three streaming-container
/// decoders must agree on accept or reject, and on every bit when they
/// accept.
pub fn target_noise_after_magic(bytes: &[u8]) {
    let _ = registry().decompress_auto(bytes, 1);
    decode_f64(bytes);
    target_serve_protocol(bytes);
    target_stream_decoders(bytes);
}

/// A reader handing out `bytes` in pieces of 1–97 bytes, as `rng` draws
/// them.
struct ShortReads<'a> {
    bytes: &'a [u8],
    rng: Rng,
}

impl std::io::Read for ShortReads<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = (1 + self.rng.below(97)).min(buf.len()).min(self.bytes.len());
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

/// The three streaming-container decoders on one input: serial
/// [`decode_stream`], [`run_restart`] over a [`SliceSource`] and
/// [`run_restart_streamed`] reading it in randomly sized pieces (drawn
/// from an FNV-1a hash of the input, so an input replays alone). They
/// accept the same streams and restore the same bits.
pub fn target_stream_decoders(bytes: &[u8]) {
    let cfg = RestartConfig { workers: 1, retry_backoff_ms: 0, ..RestartConfig::default() };
    let one_shot = decode_stream(bytes).map(|v| bits(&v));
    let positioned = run_restart(&SliceSource::new(bytes), &cfg).map(|(v, _)| bits(&v));
    let seed = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    let mut reader = ShortReads { bytes, rng: Rng::new(seed) };
    let streamed = run_restart_streamed(&mut reader, &cfg).map(|(v, _)| bits(&v));
    let verdicts = [one_shot.is_ok(), positioned.is_ok(), streamed.is_ok()];
    assert!(verdicts == [true; 3] || verdicts == [false; 3], "decoders disagree: {verdicts:?}");
    if let (Ok(a), Ok(b), Ok(c)) = (one_shot, positioned, streamed) {
        assert!(a == b && b == c, "the stream decoders restored different bits");
    }
}

/// One target-7 input: code lengths over a sparse alphabet and a byte
/// string to decode with them. The lengths are the leaf depths of a random
/// binary tree (so they are a complete prefix code, up to 32 bits deep
/// when the splits keep to one branch), then sometimes thinned out (an
/// incomplete code) and sometimes damaged (a length raised past 32 or
/// lowered, which oversubscribes the code space).
pub fn huffman_case(rng: &mut Rng) -> (Vec<u8>, Vec<u8>) {
    let most = 1usize << (1 + rng.below(8));
    let leaves = 1 + rng.below(most);
    let mut depths = vec![1u8; leaves.min(2)];
    while depths.len() < leaves {
        // Mostly the newest leaf: a path, which is what reaches depth 32.
        let pick = if rng.below(4) == 0 { rng.below(depths.len()) } else { depths.len() - 1 };
        if depths[pick] < 32 {
            depths[pick] += 1;
            depths.push(depths[pick]);
        } else {
            break;
        }
    }
    match rng.below(8) {
        0 => depths.retain(|_| rng.below(3) != 0),
        1 => {
            let at = rng.below(depths.len());
            depths[at] = if rng.below(2) == 0 { 33 + rng.below(200) as u8 } else { 1 };
        }
        _ => {}
    }
    let stride = 1 + rng.below(40);
    let first = rng.below(70_000);
    let mut lens = vec![0u8; first + depths.len() * stride + rng.below(9)];
    for (i, &d) in depths.iter().enumerate() {
        lens[first + i * stride] = d;
    }
    // Mostly zero bytes at first (the shortest codes, pairs of them), then
    // noise.
    let zeros = rng.below(24);
    let noise = rng.below(40);
    let mut bytes = vec![0u8; zeros];
    bytes.extend((0..noise).map(|_| rng.next_u64() as u8));
    (lens, bytes)
}

/// The reference of target 7: canonical codes assigned in `(length,
/// index)` order, then the stream read a bit at a time until the bits so
/// far are some symbol's code. `None` for a table no decoder may accept
/// (no code, a length above 32, an oversubscribed code space) and for a
/// stream that ends, or runs into 33 bits without a match, before `n`
/// symbols are out.
pub fn huffman_reference(lens: &[u8], bytes: &[u8], n: usize) -> Option<Vec<u32>> {
    use std::collections::HashMap;
    let mut coded: Vec<(u8, u32)> =
        lens.iter().enumerate().filter(|&(_, &l)| l > 0).map(|(i, &l)| (l, i as u32)).collect();
    if coded.is_empty() || coded.iter().any(|&(l, _)| l > 32) {
        return None;
    }
    coded.sort_unstable();
    let kraft: u64 = coded.iter().map(|&(l, _)| 1u64 << (32 - l)).sum();
    if kraft > 1 << 32 {
        return None;
    }
    let mut by_code: HashMap<(u8, u64), u32> = HashMap::new();
    let (mut code, mut prev_len) = (0u64, 0u8);
    for &(l, symbol) in &coded {
        code <<= l - prev_len;
        by_code.insert((l, code), symbol);
        code += 1;
        prev_len = l;
    }
    let mut bits = bytes.iter().flat_map(|&b| (0..8).rev().map(move |i| (b >> i) & 1));
    let mut out = Vec::new();
    while out.len() < n {
        let (mut code, mut len) = (0u64, 0u8);
        let symbol = loop {
            code = (code << 1) | bits.next()? as u64;
            len += 1;
            if let Some(&symbol) = by_code.get(&(len, code)) {
                break symbol;
            }
            if len == 32 {
                return None;
            }
        };
        out.push(symbol);
    }
    Some(out)
}

/// Target 7: one drawn table and byte string through the bulk decoder,
/// the per-symbol decoder and the reference. They accept the table or
/// refuse it together, and for every symbol count up to one more than the
/// stream can hold they give the same symbols or all refuse.
pub fn target_huffman_tables(lens: &[u8], bytes: &[u8]) {
    use lcpio_sz::bitio::BitReader;
    use lcpio_sz::huffman::HuffmanDecoder;
    let table_ok = huffman_reference(lens, &[], 0).is_some();
    let dec = match HuffmanDecoder::from_lengths(lens) {
        Ok(dec) => dec,
        Err(_) => {
            assert!(!table_ok, "decoder refused a table the reference accepts");
            return;
        }
    };
    assert!(table_ok, "decoder accepted a table the reference refuses");
    let mut bulk = Vec::new();
    for n in [1, bytes.len() * 2, bytes.len() * 8, bytes.len() * 8 + 1] {
        let want = huffman_reference(lens, bytes, n);
        let got = dec.decode_into(bytes, n, &mut bulk).ok().map(|()| bulk.clone());
        assert_eq!(got, want, "bulk decoder and reference disagree on {n} symbols");
        let mut r = BitReader::new(bytes);
        let one_by_one: Option<Vec<u32>> = (0..n).map(|_| dec.decode(&mut r).ok()).collect();
        assert_eq!(one_by_one, want, "per-symbol decoder and reference disagree on {n} symbols");
    }
}

/// Run the harness: `iters` mutations (spread round-robin over the
/// corpus), stopping early after `max_seconds` if set. Returns the number
/// of inputs executed.
pub fn run(iters: u64, seed: u64, max_seconds: Option<f64>) -> u64 {
    let corpus = seed_corpus();
    let spans: Vec<_> = corpus.iter().map(|c| (packed_table_span(c), payload_header_span(c))).collect();
    let magics = noise_magics();
    let mut rng = Rng::new(seed);
    let t0 = std::time::Instant::now();
    let mut executed = 0u64;
    for i in 0..iters {
        if let Some(limit) = max_seconds {
            if t0.elapsed().as_secs_f64() >= limit {
                break;
            }
        }
        let at = (i as usize) % corpus.len();
        let base = &corpus[at];
        let input = match spans[at].clone() {
            (Some(table), _) if rng.below(2) == 0 => mutate_within(base, table, &mut rng),
            (_, Some(header)) if rng.below(2) == 0 => mutate_within(base, header, &mut rng),
            _ => mutate(base, &mut rng),
        };
        let _ = target_envelope_parse(&input);
        target_stream_decode(&input, &mut rng);
        target_registry_auto(&input);
        target_codec_tags(&input);
        target_serve_protocol(&input);
        target_noise_after_magic(&noise_after_magic(&magics, &mut rng));
        let (lens, bytes) = huffman_case(&mut rng);
        target_huffman_tables(&lens, &bytes);
        executed += 1;
    }
    executed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic() {
        let a: Vec<u64> = (0..8).map(|_| Rng::new(42).next_u64()).collect();
        let mut r = Rng::new(42);
        assert!(a.iter().all(|&v| v == a[0]));
        let b: Vec<u64> = (0..8).map(|_| r.next_u64()).collect();
        assert_eq!(b.len(), 8);
        assert!(b.windows(2).any(|w| w[0] != w[1]), "sequence must advance");
    }

    #[test]
    fn corpus_is_nonempty_and_mostly_valid() {
        let corpus = seed_corpus();
        assert!(corpus.len() >= 10, "expected a rich corpus, got {}", corpus.len());
        // The wire-wrapped members round-trip through target 1.
        let wired = corpus.iter().filter(|c| c.starts_with(b"LCW1") && c.len() > 8).count();
        assert!(wired >= 4, "expected several valid LCW1 seeds, got {wired}");
    }

    #[test]
    fn unmutated_corpus_passes_every_target() {
        let mut rng = Rng::new(7);
        for input in seed_corpus() {
            let _ = target_envelope_parse(&input);
            target_stream_decode(&input, &mut rng);
            target_registry_auto(&input);
            target_codec_tags(&input);
            target_serve_protocol(&input);
            target_noise_after_magic(&input);
        }
    }

    #[test]
    fn szl1_seeds_cover_every_flag_combination() {
        let seeds = szl1_flag_corpus();
        let flags: Vec<u8> = seeds.iter().map(|(f, _)| *f).collect();
        assert_eq!(flags, [2, 1, 3, 0, 6]);
        for (flags, stream) in &seeds {
            let (values, dims) = registry().decompress_auto(stream, 1).expect("seed decodes");
            assert_eq!((values.len(), dims), (8192, vec![8192]), "flags {flags}");
            // Only an open packed table can be aimed at, and the header
            // of an open payload: type tag to table, 36 bytes at rank 1.
            assert_eq!(packed_table_span(stream).is_some(), flags & 3 == 2, "flags {flags}");
            let header = (flags & 1 == 0).then_some(lcpio_sz::header::ENVELOPE_LEN..49);
            assert_eq!(payload_header_span(stream), header, "flags {flags}");
        }
        // The span is the count, the section length and the section: a
        // mutation confined to it leaves every byte outside alone, and the
        // span's own first field is the table's symbol count.
        // The class form's table too: its section packs the lengths of a
        // hundred-odd classes, a few dozen bytes.
        for stream in [&seeds[0].1, &seeds[4].1] {
            let span = packed_table_span(stream).expect("open packed table");
            let len = u64::from_le_bytes(stream[span.start + 4..span.start + 12].try_into().unwrap());
            assert_eq!(span.len() as u64, 4 + 8 + len);
            assert!(len > 40 && span.len() < stream.len() / 4, "span {span:?} of {}", stream.len());
            let mut rng = Rng::new(3);
            let mut refused = 0;
            for _ in 0..2000 {
                let mutated = mutate_within(stream, span.clone(), &mut rng);
                assert_eq!(mutated[..span.start], stream[..span.start]);
                let tail = stream.len() - span.end;
                assert_eq!(mutated[mutated.len() - tail..], stream[span.end..]);
                target_registry_auto(&mutated);
                refused += registry().decompress_auto(&mutated, 1).is_err() as usize;
            }
            assert!(refused > 1000, "only {refused} of 2000 aimed mutations were refused");
        }
    }

    #[test]
    fn the_legacy_predictor_seed_decodes() {
        let seed = &LEGACY_SZL1_SEED[..];
        let predictor_at = lcpio_sz::header::ENVELOPE_LEN + 1 + 1 + 2 * 8;
        assert_eq!((seed[4], seed[predictor_at]), (0, 1), "a raw block-adaptive legacy stream");
        let (values, dims) = registry().decompress_auto(seed, 1).expect("the seed decodes");
        assert_eq!((values.len(), dims), (192, vec![12, 16]));
        assert!(values[40].is_nan() && values[150] == 3.0e30);
        assert_eq!(payload_header_span(seed), Some(lcpio_sz::header::ENVELOPE_LEN..57));
    }

    #[test]
    fn the_block_lattice_seed_decodes() {
        let seed = &LATTICE_BLOCK_SZL1_SEED[..];
        let predictor_at = lcpio_sz::header::ENVELOPE_LEN + 1 + 1 + 2 * 8;
        assert_eq!((seed[4], seed[predictor_at]), (0, 3), "a raw block-adaptive lattice stream");
        let (values, dims) = registry().decompress_auto(seed, 1).expect("the seed decodes");
        assert_eq!((values.len(), dims), (192, vec![12, 16]));
        assert!(values[40].is_nan() && values[150] == 3.0e30);
        assert_eq!(payload_header_span(seed), Some(lcpio_sz::header::ENVELOPE_LEN..57));
    }

    #[test]
    fn header_mutations_reach_the_predictor_and_trailing_byte_checks() {
        let seeds = szl1_flag_corpus();
        let stream = &seeds[3].1;
        let span = payload_header_span(stream).expect("open payload");
        let mut rng = Rng::new(9);
        let mut refusals = std::collections::BTreeSet::new();
        for _ in 0..2000 {
            let mutated = mutate_within(stream, span.clone(), &mut rng);
            target_registry_auto(&mutated);
            if let Err(e) = lcpio_sz::decompress(&mutated) {
                refusals.insert(e.to_string());
            }
        }
        for check in ["unknown predictor", "trailing bytes after body"] {
            assert!(refusals.contains(&format!("corrupt stream: {check}")), "{refusals:?}");
        }
    }

    #[test]
    fn serve_corpus_members_all_decode() {
        use lcpio_serve::protocol::{Request, Response};
        let members = serve_protocol_corpus();
        assert_eq!(members.len(), 10, "6 requests + 4 responses");
        let requests =
            members.iter().filter(|m| Request::decode(m).is_ok()).count();
        let responses =
            members.iter().filter(|m| Response::decode(m).is_ok()).count();
        assert_eq!(requests, 6, "every request seed decodes");
        assert_eq!(responses, 4, "every response seed decodes");
        for m in &members {
            target_serve_protocol(m);
        }
    }

    #[test]
    fn codec_tag_corpus_mixes_and_forgeries_are_rejected() {
        let members = mixed_tag_corpus();
        assert_eq!(members.len(), 5, "2 honest + 3 forged");
        let (honest, forged) = members.split_at(2);
        // The heuristic member genuinely mixes codecs — both SZ and ZFP
        // tags appear — and both honest members decode.
        let env = Envelope::parse(&honest[0]).expect("valid envelope");
        let tags = env.codec_tags().expect("well-formed").expect("tagged").to_vec();
        assert!(tags.contains(&1) && tags.contains(&2), "tags {tags:?} do not mix");
        for m in honest {
            decode_stream(m).expect("honest mixed-codec container decodes");
        }
        // Unknown codec id, swapped tags, and a short tag list are all
        // typed errors, matched in that order.
        for (member, needle) in forged.iter().zip([
            "unknown codec id",
            "codec tag mismatch",
            "wire envelope",
        ]) {
            let err = decode_stream(member).expect_err("forged member must not decode");
            assert!(err.to_string().contains(needle), "{needle}: got {err}");
        }
    }

    #[test]
    fn noise_generator_covers_every_magic_and_both_tail_kinds() {
        let magics = noise_magics();
        assert_eq!(magics.len(), 9, "6 registry magics + LCS1 + LCRQ + LCRS");
        let mut rng = Rng::new(11);
        let inputs: Vec<Vec<u8>> =
            (0..20_000).map(|_| noise_after_magic(&magics, &mut rng)).collect();
        for magic in &magics {
            assert!(inputs.iter().any(|i| i.starts_with(magic)), "magic {magic:?} never drawn");
        }
        assert!(inputs.iter().any(|i| i.len() == 4), "empty tail never drawn");
        assert!(inputs.iter().any(|i| i.len() == 260), "256-byte tail never drawn");
        // The forged-prelude shape behind the SZLP/ZFLP chunk-table aborts:
        // rank 1, one dim of at least 2^40, a count near u32::MAX.
        let prelude_hit = inputs.iter().any(|i| {
            i.len() >= 18
                && i[5] == 1
                && u64::from_le_bytes(i[6..14].try_into().expect("8 bytes")) >= 1 << 40
                && u32::from_le_bytes(i[14..18].try_into().expect("4 bytes")) >= u32::MAX >> 2
        });
        assert!(prelude_hit, "no rank-1 huge-dim huge-count prelude drawn");
    }

    #[test]
    fn huffman_generator_covers_the_table_classes() {
        // Valid tables up to 32-bit codes, refused ones, streams that
        // decode to the end and streams that do not.
        let mut rng = Rng::new(5);
        let (mut valid, mut refused, mut deepest, mut decoded, mut cut_short) = (0, 0, 0u8, 0, 0);
        for _ in 0..4_000 {
            let (lens, bytes) = huffman_case(&mut rng);
            target_huffman_tables(&lens, &bytes);
            if huffman_reference(&lens, &[], 0).is_none() {
                refused += 1;
                continue;
            }
            valid += 1;
            deepest = deepest.max(*lens.iter().max().expect("non-empty"));
            match huffman_reference(&lens, &bytes, bytes.len()) {
                Some(_) => decoded += 1,
                None => cut_short += 1,
            }
        }
        assert!(valid > 2_000 && refused > 100, "valid {valid}, refused {refused}");
        assert_eq!(deepest, 32, "no 32-bit code drawn");
        assert!(decoded > 500 && cut_short > 100, "decoded {decoded}, cut short {cut_short}");
    }

    #[test]
    fn noise_target_survives_the_forged_szlp_chunk_count() {
        // 40 bytes that made the `SZLP` parser (then in `lcpio-sz`) size its chunk
        // table from a forged count (103 GB, SIGABRT) before this target
        // existed: rank 1, dims[0] = 2^40, n_chunks = u32::MAX.
        let mut s = b"SZLP\x00\x01".to_vec();
        s.extend_from_slice(&(1u64 << 40).to_le_bytes());
        s.extend_from_slice(&u32::MAX.to_le_bytes());
        s.extend_from_slice(&[0u8; 22]);
        target_noise_after_magic(&s);
        assert!(registry().decompress_auto(&s, 1).is_err());
    }

    #[test]
    fn misaligned_frames_are_refused_by_every_stream_decoder() {
        for wire in [false, true] {
            let stream = misaligned_frames(wire);
            assert!(seed_corpus().contains(&stream), "wire={wire}: not seeded");
            assert!(decode_stream(&stream).is_err(), "wire={wire}");
            target_stream_decoders(&stream);
        }
    }

    /// Small-budget smoke pass — the per-PR gate.
    #[test]
    fn smoke_two_thousand_mutated_inputs() {
        let executed = run(2_000, 0xC0FFEE, None);
        assert_eq!(executed, 2_000);
    }
}
