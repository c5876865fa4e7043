//! Stream-format regression for the path the paper's data-dump experiment
//! takes, end to end. It lives here rather than beside the other pinned
//! container hashes (`crates/codec/tests/format_regression.rs`) because it
//! needs `lcpio-datagen`'s NYX field, and `lcpio-codec` may not grow a
//! dependency edge for a test.

use lcpio::codec::{registry, BoundSpec, SzCodec};

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
    // default mode (block-adaptive predictor, Huffman, packed table, LZSS
    // tried and dropped) at the four paper bounds; four chunks of 12
    // planes give full interior blocks, first-plane blocks and edge
    // blocks, and per-chunk tables from a few dozen to thousands of
    // symbols. Re-pinned twice: when the per-chunk tables went from dense
    // bytes under LZSS to the packed form (78 476 / 137 843 / 200 823 /
    // 291 966 bytes before; the values restored are the same), and when
    // the default writer took up the lattice predictor (72 433 / 119 781 /
    // 172 691 / 240 601 bytes before). The chunks of those last containers
    // are pinned, with the values the decoder restores from them, in
    // `lcpio-sz`'s
    // `pipeline::tests::legacy_chunks_of_the_pinned_containers_decode_to_their_old_values`.
    const EXPECT: [(f64, usize, u64); 4] = [
        (1e-1, 72448, 0xe688db6047ade1ed),
        (1e-2, 119646, 0x58f07cc0a775532c),
        (1e-3, 172439, 0x089fd7dc2682c71a),
        (1e-4, 240524, 0x16dfa306c99165c1),
    ];
    let sz = registry().by_name("sz").expect("sz is registered");
    let field = lcpio::datagen::nyx::velocity_x(48, 11);
    let dims = [48usize, 48, 48];
    for (eb, len, hash) in EXPECT {
        let bound = BoundSpec::Absolute(eb);
        let auto = sz.compress_chunked(&field.data, &dims, bound, 1).expect("compress");
        assert_eq!(
            (auto.bytes.len(), fnv64(&auto.bytes)),
            (len, hash),
            "default-path container at eb {eb:e} changed format"
        );
        let (rec, _) = SzCodec::decompress_chunked::<f32>(&auto.bytes, 1).expect("decompress");
        for (a, b) in field.data.iter().zip(&rec) {
            assert!((a - b).abs() as f64 <= eb, "eb {eb:e}: {a} vs {b}");
        }
    }
}
