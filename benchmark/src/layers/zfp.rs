//! `zfp` layer probes: the whole codec through the registry (rank-1
//! chunk and 3-D cube), then its kernels one by one.

use super::{mbps, Inputs, Values};
use crate::workloads::STREAM_BOUND;
use lcpio_codec::{registry, BoundSpec};
use lcpio_zfp::bitstream::{ReadStream, WriteStream};
use lcpio_zfp::fixedpoint::INTPREC;
use lcpio_zfp::{coder, negabinary, transform};
use std::hint::black_box;

/// Blocks per call of a kernel probe: long enough to time.
const BLOCKS: usize = 4096;
const BLOCK: usize = 64;

/// Seeded coefficient blocks with the decaying magnitudes a transformed
/// smooth block has: coefficient `i` spans about `30 - i/3` bits.
fn decaying_blocks(seed: u64) -> Vec<u64> {
    let mut state = seed | 1;
    let mut out = Vec::with_capacity(BLOCKS * BLOCK);
    for _ in 0..BLOCKS {
        for i in 0..BLOCK {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let bits = 30 - (i / 3) as u32;
            let magnitude = (state >> (64 - bits)) as i64;
            out.push(negabinary::encode(if state & 1 == 0 {
                magnitude
            } else {
                -magnitude
            }));
        }
    }
    out
}

pub fn probe(inp: &Inputs) -> Result<Values, String> {
    let t = &inp.timer;
    let mut v = Values::new();
    let zfp = registry().by_name("zfp").ok_or("zfp is not registered")?;
    let bound = BoundSpec::Absolute(STREAM_BOUND);
    for (data, dims, compress, decompress) in [
        (
            inp.stream_chunk(1),
            vec![inp.scale.chunk_elements],
            "zfp.chunk1d_compress_mbps",
            "zfp.chunk1d_decompress_mbps",
        ),
        (
            &inp.cube[..],
            inp.dims.clone(),
            "zfp.compress3d_mbps",
            "zfp.decompress3d_mbps",
        ),
    ] {
        let out = zfp
            .compress(data, &dims, bound)
            .map_err(|e| e.to_string())?;
        let c_s = t.median_s(|| zfp.compress(black_box(data), &dims, bound));
        let d_s = t.median_s(|| zfp.decompress(black_box(&out.bytes), 1));
        v.push((compress, mbps(data.len() * 4, c_s)));
        v.push((decompress, mbps(data.len() * 4, d_s)));
    }

    let block: Vec<i64> = (0..BLOCK as i64).map(|i| (i * 977) % 4096 - 2048).collect();
    let per_block_s = t.median_per_item_s(BLOCKS, || {
        let mut b = black_box(block.clone());
        for _ in 0..BLOCKS {
            transform::forward(&mut b, 3);
            transform::inverse(&mut b, 3);
        }
        b
    });
    v.push(("zfp.transform_mblock_s", 1.0 / 1e6 / per_block_s));

    // All planes, no bit budget: the fixed-accuracy coder at a tight tolerance.
    let coefficients = decaying_blocks(inp.seeds.field);
    let coefficient_bytes = coefficients.len() * 8;
    let encode = |w: &mut WriteStream| {
        for b in coefficients.chunks_exact(BLOCK) {
            coder::encode_ints(b, INTPREC, 0, usize::MAX, w);
        }
    };
    let encode_s = t.median_s(|| {
        let mut w = WriteStream::new();
        encode(&mut w);
        w
    });
    v.push(("zfp.coder_encode_mbps", mbps(coefficient_bytes, encode_s)));
    let mut w = WriteStream::new();
    encode(&mut w);
    let coded = w.into_bytes();
    let mut decoded = vec![0u64; coefficients.len()];
    let decode_s = t.median_s(|| {
        let mut r = ReadStream::new(black_box(&coded));
        for b in decoded.chunks_exact_mut(BLOCK) {
            coder::decode_ints_into(b, INTPREC, 0, usize::MAX, &mut r);
        }
    });
    if decoded != coefficients {
        return Err("zfp coder round trip changed the coefficients".to_string());
    }
    v.push(("zfp.coder_decode_mbps", mbps(coefficient_bytes, decode_s)));

    // Mixed field widths 0..=64, as `ext_zfp_kernels` uses.
    let widths: Vec<usize> = (0..1 << 16).map(|i| (i * 7) % 65).collect();
    let bit_bytes = widths.iter().sum::<usize>() / 8;
    let write = || {
        let mut w = WriteStream::new();
        for (i, &n) in widths.iter().enumerate() {
            w.write_bits(i as u64 ^ 0x9e37_79b9_7f4a_7c15, n);
        }
        w.into_bytes()
    };
    v.push((
        "zfp.bitstream_write_mbps",
        mbps(bit_bytes, t.median_s(write)),
    ));
    let buf = write();
    let read_s = t.median_s(|| {
        let mut r = ReadStream::new(black_box(&buf));
        widths
            .iter()
            .fold(0u64, |acc, &n| acc.wrapping_add(r.read_bits(n)))
    });
    v.push(("zfp.bitstream_read_mbps", mbps(bit_bytes, read_s)));
    Ok(v)
}
