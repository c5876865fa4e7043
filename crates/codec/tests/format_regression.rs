//! Stream-format regression for the chunked containers: `SZLP` / `ZFLP`
//! bytes are pinned against hashes captured when each backend crate still
//! wrote its own container. One module writing both is a refactor — any
//! change to the emitted bytes is a format break and must fail here.
//!
//! The serial streams inside the chunks are pinned next to the codecs
//! (`crates/sz/tests/format_regression.rs`, `crates/zfp/tests/…`), and the
//! NYX default-path containers in the workspace root's
//! `tests/format_regression.rs`, where the field generator is in reach.

use lcpio_codec::{registry, BoundSpec, SzCodec};

fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// The codec suites' deterministic field: an xorshift64 stream with an
/// exact zero every 37th sample (zero blocks, exact-hit bins); `sample`
/// maps the generator state to every other value.
fn field_f32(n: usize, seed: u64, sample: fn(u64, usize) -> f32) -> Vec<f32> {
    let mut s = seed | 1;
    (0..n)
        .map(|i| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            if i % 37 == 0 {
                0.0
            } else {
                sample(s, i)
            }
        })
        .collect()
}

/// The SZ suite's samples: smooth plus noise, with occasional large
/// outliers (so escape literals appear).
fn sz_sample(s: u64, i: usize) -> f32 {
    if i.is_multiple_of(41) {
        ((s >> 40) as f32 - 8000.0) * 1e4
    } else {
        (s >> 52) as f32 / 256.0 + (i as f32 * 0.05).sin() * 4.0
    }
}

/// The ZFP suite's samples: uniform noise in [-8, 8).
fn zfp_sample(s: u64, _i: usize) -> f32 {
    (s >> 40) as f32 / 1024.0 - 8.0
}

#[test]
fn chunked_containers_match_pinned_hashes_across_threads() {
    let sz = registry().by_name("sz").expect("sz is registered");
    let data = field_f32(32 * 9 * 7, 0xc0ffee, sz_sample);
    let bound = BoundSpec::Absolute(1e-3);
    let out = sz.compress_chunked(&data, &[32, 9, 7], bound, 2).expect("compress");
    assert_eq!(
        (out.bytes.len(), fnv64(&out.bytes)),
        (9077, 0xae190346e354477d),
        "chunked SZLP f32 container changed format"
    );
    // Chunk boundaries are shape-only: any thread count must emit the
    // identical container.
    for threads in [1usize, 3, 5, 8] {
        let other = sz.compress_chunked(&data, &[32, 9, 7], bound, threads).expect("compress");
        assert_eq!(out.bytes, other.bytes, "SZLP stream depends on thread count {threads}");
    }

    let data64: Vec<f64> =
        field_f32(40 * 8 * 6, 0xabcdef, sz_sample).into_iter().map(|v| v as f64).collect();
    let out64 = SzCodec::new()
        .compress_chunked_f64(&data64, &[40, 8, 6], BoundSpec::Absolute(1e-4), 3)
        .expect("compress");
    assert_eq!(
        (out64.bytes.len(), fnv64(&out64.bytes)),
        (12299, 0x64e13fb6f13cfd0b),
        "chunked SZLP f64 container changed format"
    );
}

#[test]
fn flat_fields_keep_what_the_lzss_pass_is_for() {
    // The LZSS pass loses on anything with noise in it (9 bits per
    // unmatched byte) and is dropped there; what it is kept for is a field
    // that codes to runs: Huffman alone cannot go below a bit per element
    // (32:1 on `f32`), the matcher takes a constant 64³ cube to 1 087
    // bytes and a ramp along x to 1 552. The stride that lets the matcher
    // race through unmatchable bytes must not cost these a byte.
    let sz = registry().by_name("sz").expect("sz is registered");
    let dims = [64usize, 64, 64];
    let n: usize = dims.iter().product();
    let constant = vec![1.0f32; n];
    let ramp: Vec<f32> = (0..n).map(|i| (i % 64) as f32 * 0.001).collect();
    for (name, field, bytes, floor) in
        [("constant", &constant, 1087, 900.0), ("ramp", &ramp, 1552, 650.0)]
    {
        let out = sz.compress_chunked(field, &dims, BoundSpec::Absolute(1e-3), 2).expect("compress");
        assert_eq!(out.bytes.len(), bytes, "{name} field");
        let ratio = (4 * n) as f64 / out.bytes.len() as f64;
        assert!(ratio >= floor, "{name} field stored at {ratio:.0}:1");
        let (rec, _) = SzCodec::decompress_chunked::<f32>(&out.bytes, 2).expect("decompress");
        for (a, b) in field.iter().zip(&rec) {
            assert!((a - b).abs() <= 1e-3);
        }
    }
}

#[test]
fn chunked_container_matches_pinned_hash() {
    let zfp = registry().by_name("zfp").expect("zfp is registered");
    let data = field_f32(32 * 9 * 7, 0xc0ffee, zfp_sample);
    let out =
        zfp.compress_chunked(&data, &[32, 9, 7], BoundSpec::Absolute(1e-3), 2).expect("compress");
    assert_eq!(
        (out.bytes.len(), fnv64(&out.bytes)),
        (10571, 0x3a88d9254aabcf69),
        "chunked ZFP container changed format"
    );
}
