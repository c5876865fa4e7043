//! What a trace-on build records for a compress call: stage spans by the
//! batch, not by the block, and the counters the block loop feeds. One
//! test function, so nothing else in this process touches the registry.

use lcpio_zfp::{compress, ZfpMode};

/// xorshift64 noise on a slow wave, with exact zeros sprinkled in and one
/// all-zero stretch (so some blocks take the zero-block path).
fn field(n: usize, seed: u64) -> Vec<f32> {
    let mut s = seed | 1;
    (0..n)
        .map(|i| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            if i % 37 == 0 || (1000..1100).contains(&i) {
                0.0
            } else {
                (i as f32 * 0.01).sin() * 300.0 + (s >> 40) as f32 / 4096.0
            }
        })
        .collect()
}

#[test]
fn spans_are_per_batch_and_counters_are_unchanged() {
    if !lcpio_trace::collecting() {
        return;
    }
    // (dims, mode, zero blocks, coded bit planes): the last two as the
    // per-block loop this one replaced counted them. The 3-D tolerance
    // rounds the blocks of smaller exponent to zero and leaves the rest
    // one plane.
    let cases: [(&[usize], ZfpMode, u64, u64); 4] = [
        (&[24576], ZfpMode::FixedAccuracy(1e-3), 25, 189_718),
        (&[96, 256], ZfpMode::FixedAccuracy(1e-3), 0, 51_161),
        (&[24, 32, 32], ZfpMode::FixedAccuracy(3.4e7), 93, 291),
        (&[24576], ZfpMode::FixedRate(6.0), 25, 214_165),
    ];
    for (dims, mode, zero_blocks, bit_planes) in cases {
        let n: usize = dims.iter().product();
        let data = field(n, 0x7ace);
        lcpio_trace::reset();
        let out = compress(&data, dims, &mode).expect("compress");
        let report = lcpio_trace::snapshot();
        let what = format!("{dims:?} {mode:?}");

        // One lap per stage per batch of blocks: a rank-1 block is four
        // values, and two clock reads around it cost as much as coding it.
        let blocks = out.stats.blocks;
        for name in ["zfp.transform", "zfp.coder"] {
            let span = report.span(name).unwrap_or_else(|| panic!("{what}: no {name} span"));
            assert!(span.count >= 1 && span.count <= blocks / 16, "{what}: {name} {span:?}");
            assert!(span.total_ns > 0, "{what}: {name} {span:?}");
        }

        assert_eq!(report.counter("zfp.blocks"), Some(blocks), "{what}");
        assert_eq!(report.counter("zfp.zero_blocks"), Some(zero_blocks), "{what}");
        assert_eq!(out.stats.zero_blocks, zero_blocks, "{what}");
        assert_eq!(report.counter("zfp.payload_bits"), Some(out.stats.payload_bits), "{what}");
        assert_eq!(report.counter("zfp.bit_planes"), Some(bit_planes), "{what}");
        assert_eq!(report.counter("zfp.elements"), Some(n as u64), "{what}");
        assert_eq!(report.counter("zfp.bytes_out"), Some(out.bytes.len() as u64), "{what}");
    }
}
