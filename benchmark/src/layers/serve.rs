//! `serve` layer probes: protocol encode/decode alone, round trips of
//! growing depth through a live server (ping, info, compress), and the
//! `serve_mixed` mix at 2 shards and at the 1-shard reference.

use super::{mbps, Inputs, Values};
use crate::spans::Recorder;
use crate::stats;
use crate::workloads::serve_mixed::{self, ServeMixed, CLIENTS, OPTIONS};
use crate::workloads::{run_lanes, Stop, Workload, STREAM_BOUND};
use lcpio_codec::policy::CodecId;
use lcpio_codec::BoundSpec;
use lcpio_core::PolicyKind;
use lcpio_serve::protocol::{self, status};
use lcpio_serve::{plan_and_compress, Client, Request, Response, ServeConfig};
use std::hint::black_box;

/// Requests per client in the 2-shard req/s run: 6 cycles of the mix, so
/// that with two clients p99 has ten samples beyond it. The 1-shard
/// reference reports no percentile and runs half as long.
const MIX_OPS: usize = 6 * 84;

/// Run `ops` requests per client of the mix against a server with
/// `workers` shards; returns (req/s, sorted latencies in ms, BUSY
/// rejections).
fn mix(inp: &Inputs, workers: usize, ops: usize) -> Result<(f64, Vec<f64>, u64), String> {
    let dir = inp.dir.join(format!("serve-w{workers}"));
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let cfg = ServeConfig {
        workers,
        ..ServeConfig::default()
    };
    let mut w = ServeMixed::with_config(&inp.scale, inp.seeds, &dir, cfg)?;
    let lanes = run_lanes(&mut w, Stop::Ops(ops), &Recorder::off());
    let busy = w.busy_rejected();
    let failures = w.check();
    Box::new(w).tear_down();
    let ops: Vec<_> = lanes.iter().flatten().collect();
    // BUSY is counted, not fatal; any other wrong answer is.
    if ops.iter().filter(|o| !o.ok).count() as u64 > busy {
        return Err(format!(
            "the {workers}-shard mix got wrong answers: {failures:?}"
        ));
    }
    let first = ops.iter().map(|o| o.start).min().ok_or("no request ran")?;
    let last = ops.iter().map(|o| o.end).max().ok_or("no request ran")?;
    let mut ms: Vec<f64> = ops
        .iter()
        .map(|o| o.end.duration_since(o.start).as_secs_f64() * 1e3)
        .collect();
    ms.sort_unstable_by(f64::total_cmp);
    Ok((
        ops.len() as f64 / last.duration_since(first).as_secs_f64(),
        ms,
        busy,
    ))
}

pub fn probe(inp: &Inputs) -> Result<Values, String> {
    let t = &inp.timer;
    let mut v = Values::new();

    // ---- protocol alone: frames with a 64 KiB payload.
    let field = &inp.stream[..(64 << 10) / 4];
    let bound = BoundSpec::Absolute(STREAM_BOUND);
    let request = Request::compress(
        1,
        field,
        &[field.len()],
        CodecId::Sz,
        bound,
        PolicyKind::Fixed,
    );
    let frame = request.encode();
    v.push((
        "serve.req_encode_mbps",
        mbps(frame.len(), t.median_s(|| black_box(&request).encode())),
    ));
    v.push((
        "serve.req_decode_mbps",
        mbps(
            frame.len(),
            t.median_s(|| Request::decode(black_box(&frame))),
        ),
    ));
    let response = Response {
        latency_us: 1234,
        energy_uj: 5678,
        dims: vec![field.len()],
        codec: Some(CodecId::Sz),
        payload: request.payload.clone(),
        ..Response::of_status(1, status::OK, "")
    };
    let response_frame = response.encode();
    v.push((
        "serve.resp_encode_mbps",
        mbps(
            response_frame.len(),
            t.median_s(|| black_box(&response).encode()),
        ),
    ));
    v.push((
        "serve.resp_decode_mbps",
        mbps(
            response_frame.len(),
            t.median_s(|| Response::decode(black_box(&response_frame))),
        ),
    ));
    const BATCH: usize = 1000;
    let frame_len_s = t.median_per_item_s(BATCH, || {
        (0..BATCH)
            .filter(|_| matches!(protocol::frame_len(black_box(&frame)), Ok(Some(_))))
            .count()
    });
    v.push(("serve.frame_len_ns", frame_len_s * 1e9));

    // ---- round trips through a live default server, one connection.
    let dir = inp.dir.join("serve-rtt");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let cfg = ServeConfig::default();
    let server = serve_mixed::bind(&dir, cfg)?;
    let mut client = Client::connect(server.endpoint()).map_err(|e| e.to_string())?;
    let chunk = inp.request_chunk();
    let dims = [chunk.len()];
    let (container, ..) =
        plan_and_compress(&cfg, chunk, &dims, CodecId::Sz, bound, PolicyKind::Fixed)
            .map_err(|e| e.to_string())?;
    let mut all_ok = true;
    let ping_s = t.median_s(|| all_ok &= client.ping().unwrap_or(false));
    let info_s = t.median_s(|| all_ok &= client.info(&container).is_ok_and(|r| r.is_ok()));
    let socket_s = t.median_s(|| {
        all_ok &= client
            .compress(chunk, &dims, OPTIONS)
            .is_ok_and(|r| r.payload == container)
    });
    let direct_s = t.median_s(|| {
        plan_and_compress(
            &cfg,
            black_box(chunk),
            &dims,
            CodecId::Sz,
            bound,
            PolicyKind::Fixed,
        )
    });
    drop(client);
    server.shutdown();
    server.wait();
    if !all_ok {
        return Err("a serve round-trip probe got a wrong answer".to_string());
    }
    v.push(("serve.ping_rtt_us", ping_s * 1e6));
    v.push(("serve.info_rtt_us", info_s * 1e6));
    v.push(("serve.overhead_us", (socket_s - direct_s) * 1e6));

    // ---- the mix: 2 shards, then the 1-shard in-run reference.
    let (rps, ms, busy) = mix(inp, 2, MIX_OPS)?;
    let (rps_one_shard, ..) = mix(inp, 1, MIX_OPS / 2)?;
    v.push(("serve.rps", rps));
    v.push((
        "serve.req_p99_ms",
        stats::percentile(&ms, 0.99, inp.scale.min_beyond).map_err(|e| {
            format!(
                "{} requests leave {} samples beyond p99",
                CLIENTS * MIX_OPS,
                e.beyond
            )
        })?,
    ));
    v.push(("serve.busy_rejects", busy as f64));
    v.push(("serve.shard1_rps_ratio", rps_one_shard / rps));
    Ok(v)
}
