//! Registry round-trip matrix: every container magic × {single, chunked}
//! decode paths × f32, plus a proptest that magic sniffing never panics.

use lcpio_codec::{registry, BoundSpec, CodecError, SzCodec};
use proptest::prelude::*;

fn smooth_3d(nz: usize, ny: usize, nx: usize) -> Vec<f32> {
    (0..nz * ny * nx)
        .map(|idx| {
            let k = idx / (ny * nx);
            let j = (idx / nx) % ny;
            let i = idx % nx;
            (i as f32 * 0.2).sin() * (j as f32 * 0.15).cos() + (k as f32 * 0.1).sin() * 3.0
        })
        .collect()
}

fn max_err(a: &[f32], b: &[f32]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (*x as f64 - *y as f64).abs()).fold(0.0, f64::max)
}

/// Compress via every (codec, mode) pair that exists, check the expected
/// magic comes out, then decode through the registry sniffer at both one
/// and several worker threads and verify the bound.
#[test]
fn roundtrip_matrix_covers_every_magic() {
    let dims = [20usize, 12, 13];
    let data = smooth_3d(dims[0], dims[1], dims[2]);
    let eb = 1e-3;
    let sz = registry().by_name("sz").expect("sz registered");
    let zfp = registry().by_name("zfp").expect("zfp registered");

    type Job<'a> = (&'static str, Box<dyn Fn() -> lcpio_codec::Encoded + 'a>, f64);
    let jobs: Vec<Job> = vec![
        (
            "SZL1",
            Box::new(|| sz.compress(&data, &dims, BoundSpec::Absolute(eb)).expect("sz")),
            eb,
        ),
        (
            "SZLP",
            Box::new(|| {
                sz.compress_chunked(&data, &dims, BoundSpec::Absolute(eb), 3).expect("sz chunked")
            }),
            eb,
        ),
        (
            "SZPR",
            Box::new(|| {
                sz.compress(&data, &dims, BoundSpec::PointwiseRelative(1e-2)).expect("sz pwrel")
            }),
            // Pointwise bound: validated separately below; this slot holds
            // the *relative* tolerance for the generic check via range.
            f64::NAN,
        ),
        (
            "ZFL1",
            Box::new(|| zfp.compress(&data, &dims, BoundSpec::Absolute(eb)).expect("zfp")),
            eb,
        ),
        (
            "ZFLP",
            Box::new(|| {
                zfp.compress_chunked(&data, &dims, BoundSpec::Absolute(eb), 3)
                    .expect("zfp chunked")
            }),
            eb,
        ),
    ];

    let mut seen = Vec::new();
    for (expect_magic, make, bound) in jobs {
        let out = make();
        assert_eq!(&out.bytes[..4], expect_magic.as_bytes(), "container {expect_magic}");
        assert!(out.stats.elements as usize == data.len(), "stats for {expect_magic}");
        assert!(out.stats.ratio() > 1.0, "ratio for {expect_magic}");
        let (codec, info) = registry().by_magic(&out.bytes).expect("sniff");
        assert_eq!(info.magic_str(), expect_magic);
        for threads in [1usize, 3] {
            let (rec, got_dims) =
                registry().decompress_auto(&out.bytes, threads).expect("decode");
            assert_eq!(got_dims, dims.to_vec(), "{expect_magic} dims at {threads} threads");
            assert_eq!(rec.len(), data.len());
            if bound.is_nan() {
                // Pointwise-relative contract.
                for (a, b) in data.iter().zip(&rec) {
                    let tol = 1e-2 * a.abs() as f64 + 1e-9;
                    assert!(
                        ((*a - *b).abs() as f64) <= tol * 1.001,
                        "{expect_magic}: pwrel violated ({a} vs {b})"
                    );
                }
            } else {
                assert!(
                    max_err(&data, &rec) <= bound * 1.0001 + 1e-9,
                    "{expect_magic} bound at {threads} threads"
                );
            }
        }
        seen.push((expect_magic, codec.name()));
    }
    assert_eq!(
        seen,
        vec![
            ("SZL1", "sz"),
            ("SZLP", "sz"),
            ("SZPR", "sz"),
            ("ZFL1", "zfp"),
            ("ZFLP", "zfp"),
        ]
    );
}

#[test]
fn f64_streams_roundtrip_through_the_backend_crates() {
    // `f64` stays off the `dyn` surface: the backend crates and the
    // adapters' generic chunked decode carry it, serial and chunked.
    let data: Vec<f64> = (0..4096).map(|i| (i as f64 * 0.001).sin() * 1e5).collect();
    let (dims, eb) = ([16usize, 256], 1e-6);
    let sz_cfg = lcpio_sz::SzConfig::new(lcpio_sz::ErrorBound::Absolute(eb));
    let zfp_mode = lcpio_zfp::ZfpMode::FixedAccuracy(eb);
    let sz_serial = lcpio_sz::compress_f64(&data, &dims, &sz_cfg).expect("sz").bytes;
    let zfp_serial = lcpio_zfp::compress_f64(&data, &dims, &zfp_mode).expect("zfp").bytes;
    let sz_chunked = SzCodec::new()
        .compress_chunked_f64(&data, &dims, BoundSpec::Absolute(eb), 2)
        .expect("sz chunked")
        .bytes;
    let decoded = [
        ("sz", lcpio_sz::decompress_f64(&sz_serial).expect("sz decode")),
        ("zfp", lcpio_zfp::decompress_f64(&zfp_serial).expect("zfp decode")),
        ("sz chunked", SzCodec::decompress_chunked::<f64>(&sz_chunked, 2).expect("decode")),
    ];
    for (name, (rec, got)) in decoded {
        assert_eq!(got, dims, "{name}");
        for (a, b) in data.iter().zip(&rec) {
            assert!((a - b).abs() <= eb * 1.0001 + 1e-12, "{name}: {a} vs {b}");
        }
    }
}

#[test]
fn unsupported_bounds_are_reported_not_panicked() {
    let data = vec![1.0f32; 64];
    let zfp = registry().by_name("zfp").expect("zfp");
    for bound in [BoundSpec::ValueRangeRelative(1e-3), BoundSpec::PointwiseRelative(1e-3)] {
        match zfp.compress(&data, &[64], bound) {
            Err(CodecError::UnsupportedBound { codec, .. }) => assert_eq!(codec, "zfp"),
            other => panic!("expected UnsupportedBound, got {other:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Sniffing, describing, and auto-decoding arbitrary short prefixes
    /// must never panic — they return clean errors instead.
    #[test]
    fn sniffing_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..17)) {
        let _ = registry().by_magic(&bytes);
        let _ = registry().describe(&bytes);
        prop_assert!(registry().decompress_auto(&bytes, 1).is_err());
        if let Ok((codec, _)) = registry().by_magic(&bytes) {
            prop_assert!(codec.decompress_into(&bytes, &mut [0.0; 4], 1).is_err());
        }
    }

    /// Prefixes that *do* carry a registered magic still decode-fail
    /// cleanly (they are truncated garbage past the magic).
    #[test]
    fn magic_prefixed_garbage_fails_cleanly(
        which in 0..5usize,
        tail in proptest::collection::vec(any::<u8>(), 0..12),
    ) {
        let magics = [*b"SZL1", *b"SZLP", *b"SZPR", *b"ZFL1", *b"ZFLP"];
        let mut bytes = magics[which].to_vec();
        bytes.extend_from_slice(&tail);
        prop_assert!(registry().by_magic(&bytes).is_ok());
        prop_assert!(registry().decompress_auto(&bytes, 1).is_err());
    }
}
