//! The one table of workloads and metrics. `BENCHMARK.json`, the README
//! tables, the smoke check and `--compare` all read these declarations.

use serde::Value;

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One workload: its final name and the sentence on why it exists.
pub struct WorkloadDecl {
    /// Name used on the command line and in the ledger.
    pub name: &'static str,
    /// One line (at most 200 characters) for `BENCHMARK.json`.
    pub why: &'static str,
}

/// One end-to-end metric; every workload reports all of them.
pub struct EndToEndDecl {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which it may worsen across runs.
    pub bound: f64,
    /// Must repeat exactly between two runs of one seed (`--compare`).
    pub exact: bool,
    /// What is measured.
    pub definition: &'static str,
}

/// One per-layer metric of the traced pass.
pub struct LayerDecl {
    /// `layer.metric`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Must repeat exactly between two runs of one seed (`--compare`).
    pub exact: bool,
    /// What is measured, and the end-to-end metric and workload it
    /// should move.
    pub note: &'static str,
}

/// The five workloads.
pub const WORKLOADS: [WorkloadDecl; 5] = [
    WorkloadDecl {
        name: "dump3d_sz",
        why: "Paper Fig 6 path: 3-D NYX cube through registry SZ at four bounds, wrapped to LCW1 and written to a file; SZ encode (block predictor, Huffman, LZSS) does nearly all the work",
    },
    WorkloadDecl {
        name: "restart3d_sz",
        why: "The same four containers read back through decompress_auto: the sz layer used the other way (Huffman decode, reconstruct), so an encode gain that costs decode shows",
    },
    WorkloadDecl {
        name: "stream_write",
        why: "run_streaming of 32 rank-1 CESM/HACC chunks under the adaptive policy into a FileSink: policy, ZFP and SZ rank-1 paths, wire framing, bounded queue and ordered commit carry the weight",
    },
    WorkloadDecl {
        name: "stream_restart",
        why: "That mixed-codec container read back, alternating run_restart (pread + frame index) and run_restart_streamed (StreamDecoder): the two restart mechanisms and the reorder commit",
    },
    WorkloadDecl {
        name: "serve_mixed",
        why: "In-process server on a Unix socket, 2 closed-loop clients, small compress/decompress/info requests: per-call codec fixed costs, protocol encode/decode, admission and the ordered writer",
    },
];

/// The end-to-end metrics listed in `BENCHMARK.json`. Failed ops are not
/// among them: the builder's contract says "Choose metrics that are
/// never 0", and `failed_ops_pct` is 0 on every run, so failed ops travel
/// in the result line's `attempted`/`failed`/`correct` and print as
/// `failed_ops_pct`.
///
/// The driver applies each bound to runs with ten different `--seed`s.
/// The seed only reorders the traffic over a fixed field (see
/// `workloads::Seeds`), so the exact metrics read the same on every
/// seed and keep the issue's 0.5 %.
///
/// The three timing metrics are read off the quiet-machine latency
/// profile (see `workloads`), not off the window's own median, 90th
/// percentile and bytes per wall second: on the shared sandbox the
/// quartiles of those lie up to 27 % apart over a ten-seed round, and the
/// contract allows no bound above 25 %. They stay in the ledger as
/// `window_*`. The timing bounds are about three times the widest
/// quartile spread measured for the profile over five ten-seed rounds
/// (7.6 %, in a round during which the sandbox was busy throughout).
pub const END_TO_END: [EndToEndDecl; 7] = [
    EndToEndDecl {
        name: "throughput_mbps",
        unit: "MB/s",
        better: Better::Higher,
        bound: 0.20,
        exact: false,
        definition: "uncompressed f32 bytes (1e6 B) that enter a codec (compress) or leave it (decompress) in one op cycle, per second of that cycle's quiet-machine profile (the fastest repeat of every cycle position, summed); summed over client lanes; info requests add 0",
    },
    EndToEndDecl {
        name: "op_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.20,
        exact: false,
        definition: "median op latency of the mix on a quiet machine: nearest-rank median of the profile, which holds one latency per cycle position (bound, restart mechanism, request) and lane, each the fastest of its repeats in the window",
    },
    EndToEndDecl {
        name: "op_p90_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.20,
        exact: false,
        definition: "90th percentile of the same profile: what the costliest tenth of the mix takes; every position must repeat at least 10 times (or the run fails), and the window's own 90th percentile (window_p90_ms in the ledger) needs 100 ops",
    },
    EndToEndDecl {
        name: "stored_ratio",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.005,
        exact: true,
        definition: "uncompressed bytes / container or response bytes over one op cycle of every lane; a count, the same on every seed",
    },
    EndToEndDecl {
        name: "modeled_j_per_gb",
        unit: "J/GB",
        better: Better::Lower,
        bound: 0.005,
        exact: true,
        definition: "modeled joules per uncompressed GB: the ops' CodecStats through CostModel and powersim::simulate on Broadwell at the planned frequency, plus the NFS write profile of the container on the two write workloads; serve_mixed sums Response.energy_uj; the same on every seed",
    },
    EndToEndDecl {
        name: "peak_heap_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
        definition: "peak live heap (1e6 B) during the window, from the benchmark's counting global allocator, reset once after set-up: what set-up left resident (inputs, references) plus the most the ops, their checks and the server's threads held on top; stream_write reads 8.6 or 10.5 MB depending on how far its compress thread ran ahead of the writer, hence the bound",
    },
    EndToEndDecl {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
        definition: "workload start to first timed op (field generation, reference containers and decodes, server bind, 3 warm-up ops); set up at least three times per run and for at least 2 s, fastest",
    },
];

const fn timing(
    name: &'static str,
    unit: &'static str,
    better: Better,
    note: &'static str,
) -> LayerDecl {
    LayerDecl {
        name,
        unit,
        better,
        exact: false,
        note,
    }
}

const fn exact(
    name: &'static str,
    unit: &'static str,
    better: Better,
    note: &'static str,
) -> LayerDecl {
    LayerDecl {
        name,
        unit,
        better,
        exact: true,
        note,
    }
}

use Better::{Higher, Lower};

/// The per-layer metrics of the traced pass, grouped by layer.
pub const PER_LAYER: &[LayerDecl] = &[
    // ---- sz -> throughput_mbps / op_p50_ms @ dump3d_sz (encode), restart3d_sz (decode)
    timing("sz.default3d_compress_mbps", "MB/s", Higher, "compress_typed_with, SzConfig::new (what the registry runs), 3-D cube at abs 1e-3 -> dump3d_sz"),
    timing("sz.default3d_decompress_mbps", "MB/s", Higher, "decompress_typed_with of that stream -> restart3d_sz"),
    timing("sz.default3d_scalar_ratio", "ratio", Higher, "time under kernels::force_scalar(true) / time with auto dispatch, default config; 1.00 means the vector kernel is not reached"),
    timing("sz.lorenzo3d_compress_mbps", "MB/s", Higher, "PredictorMode::Lorenzo, lossless off: the AVX2 wavefront kernel's own path; moves dump3d_sz once the default mode reaches it"),
    timing("sz.lorenzo3d_scalar_ratio", "ratio", Higher, "forced-scalar / auto time in Lorenzo mode: the kernel's real gain"),
    timing("sz.lzss_time_share_eb1e-1", "ratio", Lower, "1 - t(lossless off)/t(on), default mode, abs 1e-1 -> dump3d_sz"),
    timing("sz.lzss_time_share_eb1e-3", "ratio", Lower, "1 - t(lossless off)/t(on), default mode, abs 1e-3 -> dump3d_sz"),
    exact("sz.lzss_byte_gain", "ratio", Higher, "bytes(lossless off) / bytes(on) at abs 1e-3: useful work per LZSS attempt -> stored_ratio"),
    timing("sz.lzss_compress_mbps", "MB/s", Higher, "lossless::compress over the lossless-off stream -> dump3d_sz"),
    timing("sz.lzss_decompress_mbps", "MB/s", Higher, "lossless::decompress (MB/s of restored bytes) -> restart3d_sz"),
    timing("sz.huffman_build_us", "us", Lower, "HuffmanEncoder::from_freqs over the dense 65537-bin alphabet: per-call fixed cost -> op_p50_ms @ serve_mixed, stream_write"),
    timing("sz.huffman_encode_msym_s", "Msym/s", Higher, "encode_slice over 1 Mi real quantization codes -> dump3d_sz"),
    timing("sz.huffman_decode_msym_s", "Msym/s", Higher, "HuffmanDecoder::decode over the same codes -> restart3d_sz"),
    timing("sz.chunk1d_compress_mbps", "MB/s", Higher, "one rank-1 stream chunk (CESM-like) -> stream_write"),
    timing("sz.chunk1d_decompress_mbps", "MB/s", Higher, "its decode -> stream_restart"),
    timing("sz.req1d_compress_mbps", "MB/s", Higher, "one rank-1 request-sized chunk -> serve_mixed"),
    timing("sz.req1d_decompress_mbps", "MB/s", Higher, "its decode -> serve_mixed"),
    timing("sz.escape3d_compress_mbps", "MB/s", Higher, "abs 1e-6, Lorenzo mode: nearly every element escapes (ROADMAP item 3); no workload is escape-heavy in 3-D"),
    timing("sz.escape3d_scalar_ratio", "ratio", Higher, "forced-scalar / auto time on the all-escape case; below 1 the kernel loses"),
    exact("sz.hit_rate_eb1e-3", "ratio", Higher, "predictable / elements at abs 1e-3, default mode"),
    timing("sz.chunked_t2_speedup", "ratio", Higher, "compress_chunked time at 1 thread / at 2 threads (read with available_parallelism; no workload uses 2 codec threads)"),
    // ---- zfp -> stream_write / stream_restart
    timing("zfp.chunk1d_compress_mbps", "MB/s", Higher, "one rank-1 stream chunk (HACC-like), fixed accuracy 1e-3 -> stream_write"),
    timing("zfp.chunk1d_decompress_mbps", "MB/s", Higher, "its decode -> stream_restart"),
    timing("zfp.compress3d_mbps", "MB/s", Higher, "the 3-D cube; no workload yet, the planner only sees rank-1 chunks"),
    timing("zfp.decompress3d_mbps", "MB/s", Higher, "its decode; no workload yet"),
    timing("zfp.transform_mblock_s", "Mblock/s", Higher, "transform::forward + inverse of one 4x4x4 block"),
    timing("zfp.coder_encode_mbps", "MB/s", Higher, "coder::encode_ints over seeded decaying coefficients (MB/s of coefficient bytes)"),
    timing("zfp.coder_decode_mbps", "MB/s", Higher, "coder::decode_ints_into of those blocks"),
    timing("zfp.bitstream_write_mbps", "MB/s", Higher, "WriteStream::write_bits, mixed widths (MB/s of bits written)"),
    timing("zfp.bitstream_read_mbps", "MB/s", Higher, "ReadStream::read_bits of that buffer"),
    // ---- codec
    timing("codec.dispatch_overhead_pct", "%", Lower, "registry compress vs the backend's own compress, same input (expect about 0) -> all workloads"),
    timing("codec.wrap_mbps", "MB/s", Higher, "wire::wrap of the SZLP container (MB/s of container) -> dump3d_sz"),
    timing("codec.unwrap_mbps", "MB/s", Higher, "wire::unwrap of the LCW1 form -> restart3d_sz"),
    timing("codec.decompress_auto_overhead_pct", "%", Lower, "decompress_auto on LCW1 vs decompress on the bare container -> restart3d_sz"),
    timing("codec.heuristic_plan_us", "us", Lower, "HeuristicPolicy::plan per stream chunk (informational; no workload uses it)"),
    // ---- wire
    timing("wire.build_mbps", "MB/s", Higher, "EnvelopeBuilder::build over the stream container's real frames -> stream_write"),
    timing("wire.parse_index_us", "us", Lower, "Envelope::parse + index -> stream_restart (even ops)"),
    timing("wire.stream_feed_mbps", "MB/s", Higher, "StreamDecoder::feed in 64 KiB slices -> stream_restart (odd ops)"),
    exact("wire.stream_peak_buffered_frac", "ratio", Lower, "StreamDecoder::peak_buffered / container length"),
    timing("wire.varint_mops", "Mop/s", Higher, "varint::write_u64 + read round trips"),
    // ---- pipeline (core::pipeline) -> stream_write / stream_restart
    timing("pipeline.write_self_pct", "%", Lower, "(run_streaming wall - direct codec time for the same planned chunks) / wall: planning, queue, ordered commit, framing, sink"),
    timing("pipeline.compress_busy_share", "ratio", Higher, "StreamOutcome.compress_busy_s / wall_s"),
    timing("pipeline.write_busy_share", "ratio", Lower, "StreamOutcome.write_busy_s / wall_s"),
    timing("pipeline.plan_share", "ratio", Lower, "StreamOutcome.plan_s / wall_s"),
    timing("pipeline.sink_write_us", "us", Lower, "median span around the benchmark's ChunkSink wrapper's write_chunk (FileSink behind it)"),
    timing("pipeline.write_overlap_gain", "ratio", Higher, "run_sequential / run_streaming wall with a sink holding each chunk 60 % of the mean chunk compress time (depth-1 in-run reference)"),
    timing("pipeline.scan_us", "us", Lower, "scan_stream(&FileSource) -> stream_restart (even ops)"),
    timing("pipeline.restart_self_pct", "%", Lower, "(run_restart wall - direct decode time of the frames) / wall"),
    timing("pipeline.decode_busy_share", "ratio", Higher, "RestartOutcome.decode_busy_s / wall_s"),
    timing("pipeline.read_busy_share", "ratio", Lower, "RestartOutcome.read_busy_s / wall_s"),
    timing("pipeline.source_read_us", "us", Lower, "median span around the benchmark's ChunkSource wrapper's frame reads"),
    timing("pipeline.restart_overlap_gain", "ratio", Higher, "run_restart_sequential / run_restart wall with a source holding each frame read"),
    timing("pipeline.streamed_vs_random_ratio", "ratio", Lower, "run_restart_streamed / run_restart wall on the same file"),
    exact("pipeline.streamed_peak_buffered_bytes", "B", Lower, "RestartOutcome.peak_buffered_bytes of the streamed restart"),
    exact("pipeline.retries", "count", Lower, "write + read + decode retries over the probes' runs; expected 0"),
    exact("pipeline.raw_fallbacks", "count", Lower, "raw-frame fallbacks over the probes' runs; expected 0"),
    // ---- policy (core::policy) -> plan_share, op_p50_ms @ stream_write
    timing("policy.adaptive_plan_us", "us", Lower, "build_policy(Adaptive).plan per stream chunk"),
    exact("policy.zfp_chunk_share", "ratio", Higher, "codec_chunks[Zfp] / chunks of the stream_write container (informational)"),
    // ---- serve -> op_p50_ms / op_p90_ms / throughput_mbps @ serve_mixed
    timing("serve.req_encode_mbps", "MB/s", Higher, "Request::encode with a 64 KiB payload"),
    timing("serve.req_decode_mbps", "MB/s", Higher, "Request::decode of that frame"),
    timing("serve.resp_encode_mbps", "MB/s", Higher, "Response::encode with a 64 KiB payload"),
    timing("serve.resp_decode_mbps", "MB/s", Higher, "Response::decode of that frame"),
    timing("serve.frame_len_ns", "ns", Lower, "protocol::frame_len on a complete request frame"),
    timing("serve.ping_rtt_us", "us", Lower, "Client::ping p50: socket + connection reader floor"),
    timing("serve.info_rtt_us", "us", Lower, "Client::info p50: adds admission, shard queue, worker and ordered writer with trivial work"),
    timing("serve.overhead_us", "us", Lower, "p50 socket compress of one request chunk - p50 direct plan_and_compress of it"),
    timing("serve.rps", "1/s", Higher, "requests per second of the serve_mixed mix, 2 clients, 2 shards"),
    timing("serve.req_p99_ms", "ms", Lower, "99th percentile request latency of that run"),
    exact("serve.busy_rejects", "count", Lower, "BUSY responses in that run; expected 0 (2 clients never fill 2 x 8 queue slots)"),
    timing("serve.shard1_rps_ratio", "ratio", Lower, "req/s at workers 1 / req/s at workers 2 (the 1-shard in-run reference)"),
    // ---- model (core::{experiment,models,tuning,datadump}, fit, powersim): moves no timed workload
    timing("model.compression_sweep_ms", "ms", Lower, "run_compression_sweep, ExperimentConfig{scale 4096, threads 2, ..paper()}"),
    timing("model.fit_tables_ms", "ms", Lower, "compression_model_table + transit_model_table over that sweep"),
    timing("model.dump_ms", "ms", Lower, "run_data_dump, DataDumpConfig{sample_side 32, threads 1, ..paper()}"),
    timing("powersim.simulate_ns", "ns", Lower, "powersim::simulate of one work profile"),
    timing("fit.power_law_us", "us", Lower, "fit_power_law over the Broadwell slice's points"),
    exact("model.table4_broadwell_b", "ratio", Higher, "Table IV Broadwell exponent b (paper 5.315)"),
    exact("model.table4_skylake_b", "ratio", Higher, "Table IV Skylake exponent b (paper 23.31)"),
    exact("model.table4_total_r2", "ratio", Higher, "Table IV pooled-fit R2 (paper 0.5771)"),
    exact("model.eqn3_combined_savings", "ratio", Higher, "Eqn 3 combined power savings (paper 0.143)"),
    exact("model.eqn3_runtime_increase", "ratio", Lower, "Eqn 3 combined runtime increase (paper 0.084)"),
    exact("model.fig6_mean_saved_j", "J", Higher, "Fig 6 mean joules saved by tuning (paper 6.5 kJ)"),
    exact("model.fig6_mean_savings", "ratio", Higher, "Fig 6 mean fractional savings (paper 0.13)"),
    // ---- datagen -> setup_s on every workload
    timing("datagen.nyx_melem_s", "Melem/s", Higher, "nyx::velocity_x of the 3-D cube -> setup_s @ dump3d_sz, restart3d_sz"),
    timing("datagen.cesm_melem_s", "Melem/s", Higher, "Dataset::CesmAtm.generate as interleaved_cesm_hacc calls it -> setup_s @ stream_*, serve_mixed"),
    timing("datagen.hacc_melem_s", "Melem/s", Higher, "Dataset::Hacc.generate as interleaved_cesm_hacc calls it -> setup_s @ stream_*, serve_mixed"),
    // ---- bench: the harness itself
    timing("bench.calib_ms", "ms", Lower, "the benchmark's fixed scalar recurrence over 8 MiB, before the traced ops"),
    timing("bench.calib_drift_pct", "%", Lower, "|after - before| / before of that recurrence around the traced pass; above 5 % the run is marked noisy"),
    timing("bench.trace_overhead_pct", "%", Lower, "median over 20 ops of (traced - untraced) / untraced latency of the op at the same place of the sequence, chosen workload, same process"),
];

/// Seconds one driver run measures (`run_seconds`), the default of
/// `--seconds`.
pub const RUN_SECONDS: u64 = 15;

/// The contract's rule for workload and metric names: at most 64 letters,
/// digits, `_`, `.` and `-`, starting with a letter or digit.
pub fn well_formed_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// Render `BENCHMARK.json` from the declarations.
pub fn benchmark_json() -> Value {
    let s = |v: &str| Value::Str(v.to_string());
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    Value::Map(vec![
        (
            "command".into(),
            Value::Seq(command.iter().map(|c| s(c)).collect()),
        ),
        ("paths".into(), Value::Seq(vec![s("benchmark")])),
        ("run_seconds".into(), Value::U64(RUN_SECONDS)),
        (
            "workloads".into(),
            Value::Seq(
                WORKLOADS
                    .iter()
                    .map(|w| Value::Map(vec![("name".into(), s(w.name)), ("why".into(), s(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end".into(),
            Value::Seq(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Value::Map(vec![
                            ("name".into(), s(m.name)),
                            ("unit".into(), s(m.unit)),
                            ("better".into(), s(m.better.name())),
                            ("bound".into(), Value::F64(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer".into(),
            Value::Seq(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Value::Map(vec![
                            ("name".into(), s(m.name)),
                            ("unit".into(), s(m.unit)),
                            ("better".into(), s(m.better.name())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The README's workload and metric tables, as markdown.
pub fn readme_tables() -> String {
    let mut out = String::from("### Workloads\n\n| name | why it exists |\n|---|---|\n");
    for w in &WORKLOADS {
        out.push_str(&format!("| `{}` | {} |\n", w.name, w.why));
    }
    out.push_str("\n### End-to-end metrics\n\n| name | unit | better | bound | definition |\n|---|---|---|---|---|\n");
    for m in &END_TO_END {
        out.push_str(&format!(
            "| `{}` | {} | {} | {} %{} | {} |\n",
            m.name,
            m.unit,
            m.better.name(),
            m.bound * 100.0,
            if m.exact { " (exact)" } else { "" },
            m.definition
        ));
    }
    out.push_str("\n### Per-layer metrics\n\n| name | unit | better | what it measures -> what it should move |\n|---|---|---|---|\n");
    for m in PER_LAYER {
        out.push_str(&format!(
            "| `{}` | {} | {}{} | {} |\n",
            m.name,
            m.unit,
            m.better.name(),
            if m.exact { ", exact" } else { "" },
            m.note
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declarations_stay_inside_the_contract_limits() {
        assert!(WORKLOADS.len() <= 8 && END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(well_formed_name(n), "bad name {n}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        let unit_ok = |u: &str| {
            u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        assert!(END_TO_END
            .iter()
            .all(|m| unit_ok(m.unit) && m.bound <= 0.25));
        assert!(PER_LAYER.iter().all(|m| unit_ok(m.unit)));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
    }
}
