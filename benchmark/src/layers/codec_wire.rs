//! `codec` and `wire` layer probes: registry dispatch, the LCW1 bridge,
//! the heuristic planner, the envelope builder, index and push decoder,
//! and varints.

use super::{mbps, Inputs, Values};
use crate::workloads::{stream, STREAM_BOUND};
use lcpio_codec::policy::{ChunkPolicy, HeuristicPolicy};
use lcpio_codec::{registry, BoundSpec};
use lcpio_core::pipeline::VecSink;
use lcpio_sz as szb;
use lcpio_wire::{varint, Envelope, EnvelopeBuilder, StreamDecoder};
use std::hint::black_box;

pub fn probe(inp: &Inputs) -> Result<Values, String> {
    let t = &inp.timer;
    let (cube, dims) = (&inp.cube, &inp.dims);
    let mut v = Values::new();
    let sz = registry().by_name("sz").ok_or("sz is not registered")?;
    let bound = BoundSpec::Absolute(STREAM_BOUND);

    // The registry's serial compress against the backend's own.
    let cfg = szb::SzConfig::new(szb::ErrorBound::Absolute(STREAM_BOUND));
    let dispatch = t.median_each_s(2, |i| {
        if i == 0 {
            drop(black_box(szb::compress_typed(
                black_box(&cube[..]),
                dims,
                &cfg,
            )));
        } else {
            drop(black_box(sz.compress(black_box(cube), dims, bound)));
        }
    });
    v.push((
        "codec.dispatch_overhead_pct",
        (dispatch[1] - dispatch[0]) / dispatch[0] * 100.0,
    ));

    // The SZLP container dump3d_sz wraps and restart3d_sz unwraps.
    let szlp = sz
        .compress_chunked(cube, dims, bound, 1)
        .map_err(|e| e.to_string())?
        .bytes;
    let lcw = lcpio_codec::wire::wrap(&szlp).map_err(|e| e.to_string())?;
    v.push((
        "codec.wrap_mbps",
        mbps(
            szlp.len(),
            t.median_s(|| lcpio_codec::wire::wrap(black_box(&szlp))),
        ),
    ));
    v.push((
        "codec.unwrap_mbps",
        mbps(
            lcw.len(),
            t.median_s(|| lcpio_codec::wire::unwrap(black_box(&lcw))),
        ),
    ));
    let decode = t.median_each_s(2, |i| {
        if i == 0 {
            drop(black_box(sz.decompress(black_box(&szlp), 1)));
        } else {
            drop(black_box(registry().decompress_auto(black_box(&lcw), 1)));
        }
    });
    v.push((
        "codec.decompress_auto_overhead_pct",
        (decode[1] - decode[0]) / decode[0] * 100.0,
    ));

    let n = inp.scale.chunk_elements;
    let heuristic = HeuristicPolicy::new(bound, crate::energy::machine().cpu.f_max_ghz);
    let chunks: Vec<&[f32]> = inp.stream.chunks(n).collect();
    let plan_s = t.median_per_item_s(chunks.len(), || {
        chunks
            .iter()
            .enumerate()
            .map(|(seq, c)| heuristic.plan(black_box(c), seq).codec.as_u8() as usize)
            .sum::<usize>()
    });
    v.push(("codec.heuristic_plan_us", plan_s * 1e6));

    // The stream container and its real frames.
    let mut sink = VecSink::default();
    lcpio_core::pipeline::run_streaming(&inp.stream, &stream::write_config(&inp.scale), &mut sink)
        .map_err(|e| e.to_string())?;
    let container = sink.bytes;
    let envelope = Envelope::parse(&container).map_err(|e| e.to_string())?;
    let index = envelope.index(&container).map_err(|e| e.to_string())?;
    let frames: Vec<&[u8]> = index
        .entries
        .iter()
        .map(|e| &container[e.off..e.off + e.len])
        .collect();
    let builder = EnvelopeBuilder::new(envelope.container);
    v.push((
        "wire.build_mbps",
        mbps(
            container.len(),
            t.median_s(|| builder.build(black_box(&frames))),
        ),
    ));
    let parse_s = t.median_s(|| {
        let env = Envelope::parse(black_box(&container))?;
        env.index(&container)
    });
    v.push(("wire.parse_index_us", parse_s * 1e6));
    let mut peak = 0;
    let feed_s = t.median_s(|| -> Result<usize, lcpio_wire::WireError> {
        let mut decoder = StreamDecoder::new();
        let mut frames = 0;
        for slice in black_box(&container).chunks(64 << 10) {
            frames += decoder.feed(slice)?.len();
        }
        decoder.finish()?;
        peak = decoder.peak_buffered();
        Ok(frames)
    });
    v.push(("wire.stream_feed_mbps", mbps(container.len(), feed_s)));
    v.push((
        "wire.stream_peak_buffered_frac",
        peak as f64 / container.len() as f64,
    ));

    // Lengths of every magnitude a frame or TLV prefix can take.
    let numbers: Vec<u64> = (0..4096u64)
        .map(|i| (i * 0x9E37_79B9) >> (i % 40))
        .collect();
    let varint_s = t.median_per_item_s(numbers.len(), || {
        let mut buf = Vec::with_capacity(numbers.len() * varint::MAX_LEN);
        for &n in &numbers {
            varint::write_u64(&mut buf, n);
        }
        let mut pos = 0;
        let mut sum = 0u64;
        while pos < buf.len() {
            match varint::read(&buf, &mut pos) {
                Ok(n) => sum = sum.wrapping_add(n),
                Err(_) => break,
            }
        }
        sum
    });
    v.push(("wire.varint_mops", 1.0 / 1e6 / varint_s));
    Ok(v)
}
