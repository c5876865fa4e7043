//! Cross-crate integration: synthetic datasets → both registered codecs →
//! error-bound verification, across every dataset and the paper's four
//! bounds. All dispatch goes through the codec registry.

use lcpio::codec::{registry, BoundSpec};
use lcpio::datagen::Dataset;

fn max_err(a: &[f32], b: &[f32]) -> f64 {
    a.iter()
        .zip(b)
        .filter(|(x, _)| x.is_finite())
        .map(|(x, y)| (*x as f64 - *y as f64).abs())
        .fold(0.0, f64::max)
}

#[test]
fn every_codec_respects_bounds_on_all_datasets() {
    for codec in registry().codecs() {
        for ds in [Dataset::CesmAtm, Dataset::Hacc, Dataset::Nyx, Dataset::Isabel] {
            let field = ds.generate(16384, 5);
            let dims: Vec<usize> = field.dims().extents().to_vec();
            for eb in [1e-1, 1e-2, 1e-3, 1e-4] {
                let out = codec
                    .compress(&field.data, &dims, BoundSpec::Absolute(eb))
                    .unwrap_or_else(|e| panic!("{} {} eb {eb}: {e}", codec.name(), ds.name()));
                let (rec, rdims) =
                    registry().decompress_auto(&out.bytes, 1).expect("decompress");
                assert_eq!(rdims, dims, "{} {}", codec.name(), ds.name());
                let err = max_err(&field.data, &rec);
                assert!(err <= eb, "{} {} eb {eb}: err {err}", codec.name(), ds.name());
            }
        }
    }
}

#[test]
fn smooth_gridded_data_compresses_better_than_particles() {
    // The paper's motivation for diverse datasets: dimensionality and
    // smoothness drive compressibility (§III-C). At a tight relative
    // bound, the smooth 3-D NYX grid must beat the clustered 1-D HACC
    // particles.
    //
    // The margin comes from what the data alone gives on these two fields:
    // with both Huffman tables left out, the coded residuals compress 1.16x
    // better for NYX, and tables smaller than today's, down to nothing on
    // either side, leave the gap between 1.14 and 1.19 (it reads 6.24x
    // against 5.29x: 1.18). A larger factor would read table overhead, as
    // 1.2 did while a table stored a byte per symbol cost the 1-D stream a
    // sixth of its bytes.
    let eb = 1e-4;
    let sz = registry().by_name("sz").expect("sz is registered");
    let ratio = |ds: Dataset| {
        let field = ds.generate(4096, 5);
        let dims: Vec<usize> = field.dims().extents().to_vec();
        // Use a value-range-relative bound so datasets with different value
        // scales are compared fairly.
        let out = sz
            .compress(&field.data, &dims, BoundSpec::ValueRangeRelative(eb))
            .expect("compress");
        out.stats.ratio()
    };
    let nyx = ratio(Dataset::Nyx);
    let hacc = ratio(Dataset::Hacc);
    assert!(
        nyx > 1.1 * hacc,
        "3-D NYX ({nyx:.2}x) should compress better than 1-D HACC ({hacc:.2}x)"
    );
}

#[test]
fn codecs_agree_on_which_bound_is_harder() {
    let field = Dataset::Nyx.generate(16384, 6);
    let dims: Vec<usize> = field.dims().extents().to_vec();
    for codec in registry().codecs() {
        let sizes: Vec<usize> = [1e-1, 1e-4]
            .iter()
            .map(|&eb| {
                codec
                    .compress(&field.data, &dims, BoundSpec::Absolute(eb))
                    .expect("compress")
                    .bytes
                    .len()
            })
            .collect();
        assert!(sizes[1] > sizes[0], "{}: tighter bound must cost bytes", codec.name());
    }
}
