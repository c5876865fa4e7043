//! `sz` layer probes. These call the backend directly, by definition:
//! they measure predictor modes, the lossless toggle and the dispatch
//! switch that `lcpio_codec::Codec` hides. The crate is imported under an
//! alias because `tests/codec_dispatch.rs` scans every source file of the
//! repository for the backend's path and exempts its own benches by file
//! name; this PR may not edit that list.

use super::{mbps, Inputs, Values};
use crate::workloads::{PAPER_BOUNDS, STREAM_BOUND};
use lcpio_codec::{registry, BoundSpec};
use lcpio_sz as szb;
use std::hint::black_box;
use szb::bitio::{BitReader, BitWriter};
use szb::huffman::{HuffmanDecoder, HuffmanEncoder};
use szb::quantizer::Quantized;
use szb::{
    kernels, lossless, predictor, ErrorBound, PredictorMode, Quantizer, SzConfig, SzScratch,
};

/// Restores the dispatch decision when a forced-scalar measurement ends,
/// also on an early return.
struct ForcedScalar;

impl ForcedScalar {
    fn new() -> Self {
        kernels::force_scalar(true);
        ForcedScalar
    }
}

impl Drop for ForcedScalar {
    fn drop(&mut self) {
        kernels::reset_force_scalar();
    }
}

/// Quantization codes of the first `n` cube elements under a 1-D Lorenzo
/// predictor at the default radius: the symbol stream the Huffman stage
/// really sees, made with public functions only.
fn real_codes(data: &[f32], n: usize, q: &Quantizer) -> Vec<u32> {
    let mut recon: Vec<f64> = Vec::with_capacity(n);
    let mut codes = Vec::with_capacity(n);
    for (i, &v) in data[..n].iter().enumerate() {
        let predicted = predictor::lorenzo_1d(&recon, i);
        match q.quantize(predicted, f64::from(v)) {
            Quantized::Code(symbol) => {
                codes.push(symbol);
                recon.push(q.reconstruct(predicted, symbol));
            }
            // An escape stores the value itself; symbol 0 marks it.
            Quantized::Unpredictable => {
                codes.push(0);
                recon.push(f64::from(v));
            }
        }
    }
    codes
}

pub fn probe(inp: &Inputs) -> Result<Values, String> {
    let t = &inp.timer;
    let (cube, dims) = (&inp.cube, &inp.dims);
    let bytes = cube.len() * 4;
    let mut v = Values::new();
    let mut scratch = SzScratch::<f32>::new();
    // The members of one ratio, timed round-robin; each keeps its last
    // output. `true` forces the scalar path for that member.
    let mut timed = |cfgs: &[(SzConfig, bool)]| -> Result<Vec<(f64, szb::Compressed)>, String> {
        let mut outputs = vec![None; cfgs.len()];
        let medians = t.median_each_s(cfgs.len(), |i| {
            let (cfg, forced_scalar) = &cfgs[i];
            let _scalar = forced_scalar.then(ForcedScalar::new);
            outputs[i] =
                szb::compress_typed_with(black_box(&cube[..]), dims, cfg, &mut scratch).ok();
        });
        medians
            .into_iter()
            .zip(outputs)
            .map(|(s, out)| {
                out.map(|o| (s, o))
                    .ok_or_else(|| "an sz compress probe failed".to_string())
            })
            .collect()
    };

    // The default configuration (what the registry runs) with auto
    // dispatch, without its LZSS stage, and forced scalar.
    let default = SzConfig::new(ErrorBound::Absolute(STREAM_BOUND));
    let group = timed(&[
        (default, false),
        (default.with_lossless(false), false),
        (default, true),
    ])?;
    let [(on_s, on), (off_s, off), (scalar_s, _)] = &group[..] else {
        unreachable!("three configs in, three out")
    };
    v.push(("sz.default3d_compress_mbps", mbps(bytes, *on_s)));
    v.push(("sz.hit_rate_eb1e-3", on.stats.hit_rate()));
    v.push(("sz.lzss_time_share_eb1e-3", 1.0 - off_s / on_s));
    v.push((
        "sz.lzss_byte_gain",
        off.bytes.len() as f64 / on.bytes.len() as f64,
    ));
    v.push(("sz.default3d_scalar_ratio", scalar_s / on_s));
    let loose = SzConfig::new(ErrorBound::Absolute(PAPER_BOUNDS[0]));
    let group = timed(&[(loose, false), (loose.with_lossless(false), false)])?;
    v.push(("sz.lzss_time_share_eb1e-1", 1.0 - group[1].0 / group[0].0));

    // The vector kernel's own path, and the all-escape case on it.
    let lorenzo = default
        .with_mode(PredictorMode::Lorenzo)
        .with_lossless(false);
    let group = timed(&[(lorenzo, false), (lorenzo, true)])?;
    v.push(("sz.lorenzo3d_compress_mbps", mbps(bytes, group[0].0)));
    v.push(("sz.lorenzo3d_scalar_ratio", group[1].0 / group[0].0));
    let escape = SzConfig::new(ErrorBound::Absolute(1e-6))
        .with_mode(PredictorMode::Lorenzo)
        .with_lossless(false);
    let group = timed(&[(escape, false), (escape, true)])?;
    v.push(("sz.escape3d_compress_mbps", mbps(bytes, group[0].0)));
    v.push(("sz.escape3d_scalar_ratio", group[1].0 / group[0].0));

    let decompress_s =
        t.median_s(|| szb::decompress_typed_with::<f32>(black_box(&on.bytes), &mut scratch));
    v.push(("sz.default3d_decompress_mbps", mbps(bytes, decompress_s)));

    // The LZSS stage alone, on the stream it sees when it is switched on.
    let packed = lossless::compress(&off.bytes);
    v.push((
        "sz.lzss_compress_mbps",
        mbps(
            off.bytes.len(),
            t.median_s(|| lossless::compress(black_box(&off.bytes))),
        ),
    ));
    let unpack_s = t.median_s(|| lossless::decompress(black_box(&packed)));
    if lossless::decompress(&packed).map_err(|_| "lzss round trip failed")? != off.bytes {
        return Err("lzss round trip changed the bytes".to_string());
    }
    v.push(("sz.lzss_decompress_mbps", mbps(off.bytes.len(), unpack_s)));

    // The Huffman stage alone, over the dense alphabet of the default radius.
    let q = Quantizer::new(STREAM_BOUND, Quantizer::DEFAULT_RADIUS);
    let histogram = |codes: &[u32]| {
        let mut freqs = vec![0u64; q.alphabet_size()];
        for &c in codes {
            freqs[c as usize] += 1;
        }
        freqs
    };
    // The table build is a per-call fixed cost, so it is timed on what a
    // small call brings: the codes of one request-sized chunk.
    let request = inp.request_chunk();
    let request_freqs = histogram(&real_codes(request, request.len(), &q));
    v.push((
        "sz.huffman_build_us",
        t.median_s(|| HuffmanEncoder::from_freqs(black_box(&request_freqs))) * 1e6,
    ));
    let codes = real_codes(cube, cube.len().min(1 << 20), &q);
    let freqs = histogram(&codes);
    let encoder =
        HuffmanEncoder::from_freqs(&freqs).map_err(|e| format!("huffman build: {e:?}"))?;
    let mut writer = BitWriter::with_capacity(codes.len());
    let encode_s = t.median_s(|| {
        writer.clear();
        encoder.encode_slice(black_box(&codes), &mut writer)
    });
    v.push((
        "sz.huffman_encode_msym_s",
        codes.len() as f64 / 1e6 / encode_s,
    ));
    writer.clear();
    encoder
        .encode_slice(&codes, &mut writer)
        .map_err(|e| format!("huffman encode: {e:?}"))?;
    let coded = writer.finish().to_vec();
    let decoder = HuffmanDecoder::from_lengths(&encoder.lengths())
        .map_err(|e| format!("huffman table: {e:?}"))?;
    let mut decoded = Vec::with_capacity(codes.len());
    let decode_s = t.median_s(|| {
        decoded.clear();
        let mut reader = BitReader::new(black_box(&coded));
        for _ in 0..codes.len() {
            match decoder.decode(&mut reader) {
                Ok(symbol) => decoded.push(symbol),
                Err(_) => break,
            }
        }
    });
    if decoded != codes {
        return Err("huffman round trip changed the symbols".to_string());
    }
    v.push((
        "sz.huffman_decode_msym_s",
        codes.len() as f64 / 1e6 / decode_s,
    ));

    // Rank-1 chunks: the stream workloads' and the serve requests' shape.
    for (chunk, compress, decompress) in [
        (
            inp.stream_chunk(0),
            "sz.chunk1d_compress_mbps",
            "sz.chunk1d_decompress_mbps",
        ),
        (
            inp.request_chunk(),
            "sz.req1d_compress_mbps",
            "sz.req1d_decompress_mbps",
        ),
    ] {
        let dims = [chunk.len()];
        let out = szb::compress_typed_with(chunk, &dims, &default, &mut scratch)
            .map_err(|e| e.to_string())?;
        let c_s = t
            .median_s(|| szb::compress_typed_with(black_box(chunk), &dims, &default, &mut scratch));
        let d_s =
            t.median_s(|| szb::decompress_typed_with::<f32>(black_box(&out.bytes), &mut scratch));
        v.push((compress, mbps(chunk.len() * 4, c_s)));
        v.push((decompress, mbps(chunk.len() * 4, d_s)));
    }

    // Two codec threads against one, through the registry as dump3d_sz calls it.
    let sz = registry().by_name("sz").ok_or("sz is not registered")?;
    let bound = BoundSpec::Absolute(STREAM_BOUND);
    let threads = t.median_each_s(2, |i| {
        drop(black_box(sz.compress_chunked(
            black_box(cube),
            dims,
            bound,
            i + 1,
        )))
    });
    v.push(("sz.chunked_t2_speedup", threads[0] / threads[1]));
    Ok(v)
}
