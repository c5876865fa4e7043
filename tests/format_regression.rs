//! Stream-format regression for the path the paper's data-dump experiment
//! takes, end to end. It lives here rather than beside the other pinned
//! container hashes (`crates/codec/tests/format_regression.rs`) because it
//! needs `lcpio-datagen`'s NYX field, and `lcpio-codec` may not grow a
//! dependency edge for a test. Each container is written twice, with the
//! encoder's fast arithmetic on one thread and with its reference
//! arithmetic (`kernels::force_scalar`) on two: equal bytes, equal stats.

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
    // default mode (block-adaptive predictor, Huffman, packed table, LZSS
    // tried and dropped) at the four paper bounds; four chunks of 12
    // planes give full interior blocks, first-plane blocks and edge
    // blocks, and per-chunk tables from a few dozen to thousands of
    // symbols. Re-pinned once, when the per-chunk tables went from dense
    // bytes under LZSS to the packed form (78 476 / 137 843 / 200 823 /
    // 291 966 bytes before; the values restored are the same, see the
    // legacy-writer test in `lcpio-sz`).
    const EXPECT: [(f64, usize, u64); 4] = [
        (1e-1, 72433, 0x089ecdefd1e85bda),
        (1e-2, 119781, 0x67428c8d635b95d0),
        (1e-3, 172691, 0xa29de853f3038dfe),
        (1e-4, 240601, 0x6bf9798198b84c8b),
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
        kernels::force_scalar(true);
        let scalar = sz.compress_chunked(&field.data, &dims, bound, 2).expect("compress");
        kernels::reset_force_scalar();
        assert_eq!(auto.bytes, scalar.bytes, "eb {eb:e}: forced-scalar container differs");
        assert_eq!(auto.stats, scalar.stats, "eb {eb:e}: forced-scalar stats differ");
        let (rec, _) = SzCodec::decompress_chunked::<f32>(&auto.bytes, 1).expect("decompress");
        for (a, b) in field.data.iter().zip(&rec) {
            assert!((a - b).abs() as f64 <= eb, "eb {eb:e}: {a} vs {b}");
        }
    }
}
