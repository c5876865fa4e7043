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
    // default mode (Lorenzo on the lattice, Huffman, packed table, LZSS
    // tried and dropped) at the four paper bounds; four chunks of 12
    // planes, cut along the 6-wide blocks older streams were coded in, and
    // per-chunk tables from a few dozen to thousands of symbols (at 1e-4,
    // the class form of the entropy stage). Re-pinned four times: when the
    // per-chunk tables went from dense bytes under
    // LZSS to the packed form (78 476 / 137 843 / 200 823 / 291 966 bytes
    // before; the values restored are the same), when the default writer
    // took up the lattice predictor (72 433 / 119 781 / 172 691 / 240 601
    // bytes before), and when it dropped block selection (72 448 / 119 646
    // / 172 439 / 240 524 bytes before: each chunk loses its block-flag and
    // coefficient sections, 32 bytes, and nothing else), and when the 1e-4
    // chunks, whose exact tables pack past 4 KiB, took up the class form
    // (240 396 bytes before; the other bounds did not move). The chunks of
    // the earlier forms are pinned, with the values the decoder restores
    // from them, in `lcpio-sz`'s
    // `pipeline::tests::legacy_chunks_of_the_pinned_containers_decode_to_their_old_values`,
    // `pipeline::tests::lattice_block_chunks_of_the_pinned_containers_decode_to_their_old_values`
    // and `pipeline::tests::exact_streams_keep_their_hashes_and_restore_the_same_values`.
    const EXPECT: [(f64, usize, u64); 4] = [
        (1e-1, 72320, 0xb94e7f0c9d31f68c),
        (1e-2, 119518, 0xa9abc5f5d49dce18),
        (1e-3, 172311, 0x6f254088cea2a042),
        (1e-4, 218850, 0xdacd0badc798707e),
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
