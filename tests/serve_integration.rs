//! The CI serve leg: a real daemon on a Unix socket at two worker
//! shards, a mixed workload driven over it, and request/response
//! byte-identity with the one-shot CLI path for every chunk policy.
//!
//! What "byte-identity" pins down: the service path (socket → admission
//! → shard worker) and the one-shot path (`lcpio-cli compress`) must
//! funnel into the same serial codec call, so a checkpoint compressed
//! over the wire is indistinguishable from one compressed in-process.

use std::path::PathBuf;

use lcpio::cli;
use lcpio::codec::policy::CodecId;
use lcpio::codec::BoundSpec;
use lcpio::core::policy::interleaved_cesm_hacc;
use lcpio::core::PolicyKind;
use lcpio::serve::{
    drive, plan_and_compress, Client, CompressOptions, Endpoint, ServeConfig, Server,
    WorkloadConfig,
};

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lcpio-serve-integration-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[test]
fn socket_compress_is_byte_identical_to_one_shot_for_every_policy() {
    let dir = scratch_dir("identity");
    let cfg = ServeConfig { workers: 2, ..ServeConfig::default() };
    let server =
        Server::bind(&Endpoint::Unix(dir.join("serve.sock")), cfg).expect("bind unix");
    let mut client = Client::connect(server.endpoint()).expect("connect");

    // The adaptive policy's home turf: mixed CESM/HACC content.
    let data = interleaved_cesm_hacc(4096, 2, 11);
    let dims = vec![data.len()];
    let bound = BoundSpec::Absolute(1e-3);

    for policy in [PolicyKind::Fixed, PolicyKind::Heuristic, PolicyKind::Adaptive] {
        let opts = CompressOptions {
            codec: Some(CodecId::Sz),
            bound: Some(bound),
            policy: Some(policy),
        };
        let resp = client.compress(&data, &dims, opts).expect("compress over socket");
        assert!(resp.is_ok(), "{policy:?}: {}", resp.message);

        // Reference: the same plan executed in-process.
        let (reference, ref_codec, _, _) =
            plan_and_compress(&cfg, &data, &dims, CodecId::Sz, bound, policy)
                .expect("reference compress");
        assert_eq!(
            resp.payload, reference,
            "{policy:?}: socket bytes differ from the in-process plan"
        );
        assert_eq!(resp.codec, Some(ref_codec), "{policy:?}: planned codec drifted");

        // Round-trip through the service: decompress must restore the
        // field bit-exactly to what the container encodes.
        let back = client.decompress(&resp.payload).expect("decompress over socket");
        assert!(back.is_ok(), "{policy:?}: {}", back.message);
        assert_eq!(back.dims, dims, "{policy:?}");
        let restored = back.elements().expect("elements");
        let worst = data
            .iter()
            .zip(&restored)
            .map(|(a, b)| (*a as f64 - *b as f64).abs())
            .fold(0.0, f64::max);
        assert!(worst <= 1e-3, "{policy:?}: bound violated over the socket ({worst})");
    }

    // For the fixed policy, the one-shot CLI must produce the same
    // container byte-for-byte.
    let field = dir.join("field.lcpf");
    let out = dir.join("field.sz");
    cli::write_field(&field, &data, &dims).expect("write field");
    let cmd = cli::parse(&[
        "compress".into(),
        "--codec".into(),
        "sz".into(),
        "--eb".into(),
        "1e-3".into(),
        "-i".into(),
        field.display().to_string(),
        "-o".into(),
        out.display().to_string(),
    ])
    .expect("parse compress");
    let mut transcript = Vec::new();
    cli::run(cmd, &mut transcript).expect("run compress");
    let cli_bytes = std::fs::read(&out).expect("read CLI output");

    let opts = CompressOptions {
        codec: Some(CodecId::Sz),
        bound: Some(bound),
        policy: Some(PolicyKind::Fixed),
    };
    let resp = client.compress(&data, &dims, opts).expect("compress over socket");
    assert_eq!(
        resp.payload, cli_bytes,
        "fixed-policy socket output differs from `lcpio-cli compress`"
    );

    server.shutdown();
    let stats = server.wait();
    assert_eq!(stats.errors, 0, "no request on this path may error");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mixed_workload_over_unix_socket_completes_cleanly() {
    let dir = scratch_dir("workload");
    let cfg = ServeConfig { workers: 2, ..ServeConfig::default() };
    let server = Server::bind(&Endpoint::Unix(dir.join("serve.sock")), cfg).expect("bind unix");

    let workload = WorkloadConfig {
        requests: 30,
        clients: 3,
        chunk_elements: 4096,
        policy: PolicyKind::Adaptive,
        ..WorkloadConfig::default()
    };
    let report = drive(server.endpoint(), &workload).expect("drive workload");
    assert_eq!(report.requests, 30);
    assert_eq!(report.ok, 30, "busy={} errors={}", report.busy, report.errors);
    assert!(report.req_per_s > 0.0);
    assert!(report.p99_us >= report.p50_us);
    assert!(report.bytes_in > 0 && report.bytes_out > 0);
    assert!(report.energy_uj > 0, "every served request is energy-priced");

    server.shutdown();
    let stats = server.wait();
    assert_eq!(stats.requests, 30);
    assert_eq!(stats.errors, 0);
    assert_eq!(stats.compress + stats.decompress + stats.info, 30, "op mix accounting");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn info_op_and_cli_info_print_the_same_line_for_every_container_form() {
    use lcpio::codec::registry;
    use lcpio::core::pipeline::{run_sequential, PipelineConfig, VecSink};

    let dir = scratch_dir("info");
    let server = Server::bind(&Endpoint::Unix(dir.join("serve.sock")), ServeConfig::default())
        .expect("bind unix");
    let mut client = Client::connect(server.endpoint()).expect("connect");

    let data: Vec<f32> = (0..8192).map(|i| (i as f32 * 0.01).sin()).collect();
    let dims = [data.len()];
    let bound = BoundSpec::Absolute(1e-3);
    let codec = |name: &str| registry().by_name(name).expect("registered");
    let serial = |name: &str| codec(name).compress(&data, &dims, bound).expect("compress").bytes;
    let szlp = codec("sz").compress_chunked(&data, &dims, bound, 2).expect("chunked").bytes;
    let stream = |wire_format| {
        let cfg = PipelineConfig { chunk_elements: 2048, wire_format, ..PipelineConfig::default() };
        let mut sink = VecSink::default();
        run_sequential(&data, &cfg, &mut sink).expect("pipeline");
        sink.bytes
    };
    let containers: [(&str, &[u8; 4], Vec<u8>); 6] = [
        ("szl1", b"SZL1", serial("sz")),
        ("zfl1", b"ZFL1", serial("zfp")),
        ("szlp", b"SZLP", szlp.clone()),
        ("szlp-wire", b"LCW1", lcpio::codec::wire::wrap(&szlp).expect("wrap")),
        ("lcs1", b"LCS1", stream(false)),
        ("lcs1-wire", b"LCW1", stream(true)),
    ];

    for (name, magic, bytes) in &containers {
        assert_eq!(&bytes[..4], &magic[..], "{name}: container form under test");
        let path = dir.join(name);
        std::fs::write(&path, bytes).expect("write container");
        let mut cli_out = Vec::new();
        cli::run(cli::Command::Info { input: path }, &mut cli_out).expect("cli info");
        let cli_line = String::from_utf8(cli_out).expect("utf8");

        let resp = client.info(bytes).expect("info over socket");
        assert!(resp.is_ok(), "{name}: {}", resp.message);
        assert_eq!(cli_line.trim_end(), resp.message, "{name}: CLI and INFO disagree");
    }

    server.shutdown();
    let stats = server.wait();
    assert_eq!(stats.info, containers.len() as u64);
    assert_eq!(stats.errors, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn decompress_op_and_cli_decompress_restore_the_same_field_for_every_container_form() {
    use lcpio::codec::registry;
    use lcpio::core::pipeline::{run_sequential, PipelineConfig, VecSink};

    let dir = scratch_dir("decompress");
    let server = Server::bind(&Endpoint::Unix(dir.join("serve.sock")), ServeConfig::default())
        .expect("bind unix");
    let mut client = Client::connect(server.endpoint()).expect("connect");

    let data: Vec<f32> = (0..8192).map(|i| 1.5 + (i as f32 * 0.01).sin()).collect();
    let dims = [64, 128];
    let codec = |name: &str| registry().by_name(name).expect("registered");
    let abs = BoundSpec::Absolute(1e-3);
    let encode = |name: &str, bound| codec(name).compress(&data, &dims, bound).expect("encode");
    let chunked = |name: &str| codec(name).compress_chunked(&data, &dims, abs, 2).expect("chunked");
    let stream = |wire_format| {
        let cfg = PipelineConfig { chunk_elements: 2048, wire_format, ..PipelineConfig::default() };
        let mut sink = VecSink::default();
        run_sequential(&data, &cfg, &mut sink).expect("pipeline");
        sink.bytes
    };
    let bare: [(&str, &[u8; 4], Vec<u8>); 5] = [
        ("szl1", b"SZL1", encode("sz", abs).bytes),
        ("zfl1", b"ZFL1", encode("zfp", abs).bytes),
        ("szlp", b"SZLP", chunked("sz").bytes),
        ("zflp", b"ZFLP", chunked("zfp").bytes),
        ("szpr", b"SZPR", encode("sz", BoundSpec::PointwiseRelative(1e-3)).bytes),
    ];
    // (name, magic, bytes, priced): codec containers are energy-priced,
    // pipeline streams are not.
    let mut containers: Vec<(String, &[u8; 4], Vec<u8>, bool)> = Vec::new();
    for (name, magic, bytes) in bare {
        let wrapped = lcpio::codec::wire::wrap(&bytes).expect("wrap");
        containers.push((name.to_string(), magic, bytes, true));
        containers.push((format!("{name}-wire"), b"LCW1", wrapped, true));
    }
    containers.push(("lcs1".to_string(), b"LCS1", stream(false), false));
    containers.push(("lcs1-wire".to_string(), b"LCW1", stream(true), false));

    for (name, magic, bytes, priced) in &containers {
        assert_eq!(&bytes[..4], &magic[..], "{name}: container form under test");
        let input = dir.join(name);
        let output = dir.join(format!("{name}.lcpf"));
        std::fs::write(&input, bytes).expect("write container");
        let mut transcript = Vec::new();
        cli::run(cli::Command::Decompress { input, output: output.clone() }, &mut transcript)
            .expect("cli decompress");
        let (cli_data, cli_dims) = cli::read_field(&output).expect("read CLI output");

        let resp = client.decompress(bytes).expect("decompress over socket");
        assert!(resp.is_ok(), "{name}: {}", resp.message);
        assert_eq!(resp.dims, cli_dims, "{name}: dims differ from `lcpio-cli decompress`");
        let restored = resp.elements().expect("elements");
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&restored), bits(&cli_data), "{name}: bits differ from the CLI's");
        assert_eq!(resp.energy_uj > 0, *priced, "{name}: energy_uj {}", resp.energy_uj);
    }

    server.shutdown();
    let stats = server.wait();
    assert_eq!(stats.decompress, containers.len() as u64);
    assert_eq!(stats.errors, 0);
    let _ = std::fs::remove_dir_all(&dir);
}
