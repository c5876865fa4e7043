//! Mixed-codec `LCW1` streaming containers, through the public `lcpio`
//! API: round-trip properties of the per-chunk policy layer (thread-count
//! invariance, restart-path agreement) and failure injection against its
//! codec-tag field (truncation at every offset, forged and unknown tags).
//!
//! The policy set under test always includes the heuristic and adaptive
//! planners plus whatever `LCPIO_POLICY` selects, so the CI leg that
//! exports `LCPIO_POLICY=adaptive` re-runs the whole suite under the
//! environment-selected policy too.

use lcpio::core::pipeline::{
    decode_stream, run_restart, run_restart_streamed, run_sequential, run_streaming,
    PipelineConfig, RestartConfig, SliceSource, VecSink,
};
use lcpio::core::PolicyKind;
use lcpio::wire::{Envelope, EnvelopeBuilder};

/// Blocks that alternate smooth (SZ-friendly) and noisy large-range
/// (ZFP-leaning under an absolute bound) data, so non-fixed policies
/// genuinely mix codecs across chunks.
fn mixed_workload(chunk: usize, chunks: usize) -> Vec<f32> {
    (0..chunk * chunks)
        .map(|i| {
            let block = i / chunk;
            let x = (i % chunk) as f32;
            if block.is_multiple_of(2) { (x * 0.02).sin() } else { (x * 7919.0).sin() * 1e4 }
        })
        .collect()
}

/// Heuristic + adaptive, plus the environment-selected policy (fixed by
/// default, adaptive under the dedicated CI leg).
fn policies() -> Vec<PolicyKind> {
    let mut v = vec![PolicyKind::Heuristic, PolicyKind::Adaptive];
    let env = PolicyKind::from_env();
    if !v.contains(&env) {
        v.push(env);
    }
    v
}

fn config(policy: PolicyKind, wire: bool) -> PipelineConfig {
    PipelineConfig {
        chunk_elements: 512,
        wire_format: wire,
        policy,
        ..PipelineConfig::default()
    }
}

fn stream(data: &[f32], cfg: &PipelineConfig) -> Vec<u8> {
    let mut sink = VecSink::default();
    run_sequential(data, cfg, &mut sink).expect("pipeline");
    sink.bytes
}

#[test]
fn mixed_container_output_is_invariant_across_thread_counts() {
    let data = mixed_workload(512, 6);
    for policy in policies() {
        for wire in [false, true] {
            let cfg = config(policy, wire);
            let reference = stream(&data, &cfg);
            for (threads, writers) in [(1, 1), (2, 1), (3, 2)] {
                let cfg = PipelineConfig { compress_threads: threads, writers, ..cfg.clone() };
                let mut sink = VecSink::default();
                run_streaming(&data, &cfg, &mut sink).expect("streaming pipeline");
                assert_eq!(
                    sink.bytes, reference,
                    "{policy:?} wire={wire} threads={threads} writers={writers}: \
                     output differs from the sequential reference"
                );
            }
            // The container round-trips within the absolute bound.
            let back = decode_stream(&reference).expect("decode");
            assert_eq!(back.len(), data.len());
            let bound = 1e-3f32;
            for (a, b) in data.iter().zip(&back) {
                assert!((a - b).abs() <= bound * 1.001, "{a} vs {b}");
            }
        }
    }
}

#[test]
fn restart_paths_agree_on_mixed_containers() {
    let data = mixed_workload(512, 6);
    for policy in policies() {
        let bytes = stream(&data, &config(policy, true));
        let sequential = decode_stream(&bytes).expect("decode");
        let cfg = RestartConfig { queue_depth: 2, workers: 2, ..RestartConfig::default() };
        let (positioned, _) =
            run_restart(&SliceSource::new(&bytes), &cfg).expect("positioned restart");
        let (streamed, _) =
            run_restart_streamed(&mut &bytes[..], &cfg).expect("streamed restart");
        for (a, b) in sequential.iter().zip(&positioned) {
            assert_eq!(a.to_bits(), b.to_bits(), "{policy:?}: positioned restart differs");
        }
        for (a, b) in sequential.iter().zip(&streamed) {
            assert_eq!(a.to_bits(), b.to_bits(), "{policy:?}: streamed restart differs");
        }
    }
}

#[test]
fn mixed_wire_container_survives_truncation_at_every_offset() {
    // Tag-carrying containers keep the strict truncation contract: every
    // strict prefix is a typed error on both decode paths, never a panic.
    let data = mixed_workload(512, 2);
    let bytes = stream(&data, &config(PolicyKind::Adaptive, true));
    for len in 0..bytes.len() {
        assert!(
            decode_stream(&bytes[..len]).is_err(),
            "prefix of {len}/{} bytes decoded instead of erroring",
            bytes.len()
        );
        assert!(
            run_restart_streamed(&mut &bytes[..len], &RestartConfig::default()).is_err(),
            "streamed restart accepted a {len}-byte prefix"
        );
    }
}

#[test]
fn forged_codec_tags_are_rejected_on_every_decode_path() {
    let data = mixed_workload(512, 4);
    let honest = stream(&data, &config(PolicyKind::Heuristic, true));
    let env = Envelope::parse(&honest).expect("valid envelope");
    let idx = env.index(&honest).expect("valid index");
    let frames: Vec<Vec<u8>> =
        idx.entries.iter().map(|e| honest[e.off..e.off + e.len].to_vec()).collect();
    let frame_refs: Vec<&[u8]> = frames.iter().map(Vec::as_slice).collect();
    let params = env.params().expect("LCS1 params").to_vec();
    let tags = env.codec_tags().expect("well-formed").expect("tagged").to_vec();
    assert!(
        tags.contains(&1) && tags.contains(&2),
        "workload failed to mix codecs: tags {tags:?}"
    );
    let rebuild = |t: &[u8]| {
        EnvelopeBuilder::new(env.container).params(&params).codec_tags(t).build(&frame_refs)
    };

    // The honest rebuild decodes — the forgeries differ only in the tags.
    decode_stream(&rebuild(&tags)).expect("honest rebuild decodes");

    let mut unknown = tags.clone();
    unknown[0] = 9;
    let swapped: Vec<u8> =
        tags.iter().map(|&t| match t { 1 => 2, 2 => 1, other => other }).collect();
    let short = &tags[..tags.len() - 1];
    for (label, forged, needle) in [
        ("unknown id", rebuild(&unknown), "unknown codec id"),
        ("swapped tags", rebuild(&swapped), "codec tag mismatch"),
        ("short tag list", rebuild(short), "wire envelope"),
    ] {
        let err = decode_stream(&forged).expect_err(label);
        assert!(err.to_string().contains(needle), "{label}: wrong error {err}");
        let err = run_restart_streamed(&mut &forged[..], &RestartConfig::default())
            .expect_err(label);
        assert!(
            err.to_string().contains(needle) || err.to_string().contains("codec tag"),
            "{label} (streamed): wrong error {err}"
        );
    }
}

#[test]
fn fixed_policy_wire_output_is_tagless_and_byte_stable() {
    // The fixed policy must keep emitting exactly the pre-policy format:
    // no codec-tag field, and byte-identical output whether the policy
    // enum or the legacy default constructed the config.
    let data = mixed_workload(512, 4);
    let implicit = stream(
        &data,
        &PipelineConfig { chunk_elements: 512, wire_format: true, ..PipelineConfig::default() },
    );
    let explicit = stream(&data, &config(PolicyKind::Fixed, true));
    assert_eq!(implicit, explicit);
    let env = Envelope::parse(&explicit).expect("valid envelope");
    assert_eq!(env.codec_tags().expect("well-formed"), None, "fixed output must carry no tags");
}
