//! Stream-format regression for the path the paper's data-dump experiment
//! takes, end to end. It lives here rather than beside the other pinned
//! container hashes (`crates/codec/tests/format_regression.rs`) because it
//! needs `lcpio-datagen`'s NYX field, and `lcpio-codec` may not grow a
//! dependency edge for a test.

use lcpio::codec::{registry, BoundSpec, SzCodec};
use lcpio::sz::kernels;

fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[test]
fn default_path_containers_match_pinned_hashes_at_the_paper_bounds() {
    // An NYX-like velocity cube through the chunked container in the
    // default mode (block-adaptive predictor, Huffman, LZSS) at the four
    // paper bounds. Pinned from the encoder before its back end (LZSS
    // matcher, Huffman build, block predictor loops) was rewritten for
    // speed; four chunks of 12 planes give full interior blocks,
    // first-plane blocks and edge blocks, and per-chunk tables from a few
    // dozen to thousands of symbols.
    const EXPECT: [(f64, usize, u64); 4] = [
        (1e-1, 78476, 0xb53bf7c122d1558b),
        (1e-2, 137843, 0x8b7caa7d6616469d),
        (1e-3, 200823, 0xdee5c462cd4d74a7),
        (1e-4, 291966, 0xf40b102c73b07605),
    ];
    let sz = registry().by_name("sz").expect("sz is registered");
    let field = lcpio::datagen::nyx::velocity_x(48, 11);
    let dims = [48usize, 48, 48];
    for (eb, len, hash) in EXPECT {
        let bound = BoundSpec::Absolute(eb);
        let auto = sz.compress_chunked(&field.data, &dims, bound, 1).expect("compress").bytes;
        assert_eq!(
            (auto.len(), fnv64(&auto)),
            (len, hash),
            "default-path container at eb {eb:e} changed format"
        );
        kernels::force_scalar(true);
        let scalar = sz.compress_chunked(&field.data, &dims, bound, 2).expect("compress").bytes;
        kernels::reset_force_scalar();
        assert_eq!(auto, scalar, "eb {eb:e}: forced-scalar container differs");
        let (rec, _) = SzCodec::decompress_chunked::<f32>(&auto, 1).expect("decompress");
        for (a, b) in field.data.iter().zip(&rec) {
            assert!((a - b).abs() as f64 <= eb, "eb {eb:e}: {a} vs {b}");
        }
    }
}
