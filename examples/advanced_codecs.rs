//! The codec extensions in one tour: f64 fields (through the SZ adapter's
//! chunked container, since the registry's `dyn` surface is `f32`), then
//! through the registry pointwise-relative bounds and multi-threaded
//! chunked ZFP.
//!
//! ```text
//! cargo run --release --example advanced_codecs
//! ```

use lcpio::codec::{registry, BoundSpec, SzCodec};
use lcpio::datagen::nyx;
use std::time::Instant;

fn main() {
    let sz = registry().by_name("sz").expect("sz is registered");
    let zfp = registry().by_name("zfp").expect("zfp is registered");

    // --- f64 precision beyond what f32 can hold ---
    let fine: Vec<f64> = (0..65536)
        .map(|i| 1.0 + i as f64 * 1e-10 + (i as f64 * 0.001).sin() * 1e-6)
        .collect();
    let out = SzCodec::new()
        .compress_chunked_f64(&fine, &[65536], BoundSpec::Absolute(1e-9), 1)
        .expect("compress");
    let (rec, _) = SzCodec::decompress_chunked::<f64>(&out.bytes, 1).expect("decompress");
    let max_err = fine.iter().zip(&rec).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max);
    println!(
        "SZ f64:  eb 1e-9 on double-precision data  ratio {:>6.2}x  max err {max_err:.2e}",
        out.stats.ratio()
    );

    // --- pointwise-relative bounds on high-dynamic-range data ---
    let density = nyx::baryon_density(40, 11);
    let dims: Vec<usize> = density.dims().extents().to_vec();
    let (lo, hi) = density.value_range();
    let out = sz
        .compress(&density.data, &dims, BoundSpec::PointwiseRelative(1e-3))
        .expect("compress");
    println!(
        "SZ PW_REL: 0.1% relative bound on density spanning [{lo:.2e}, {hi:.2e}]  ratio {:>6.2}x",
        out.stats.ratio()
    );

    // --- parallel chunked ZFP ---
    let velocity = nyx::velocity_x(96, 5);
    let dims: Vec<usize> = velocity.dims().extents().to_vec();
    let bound = BoundSpec::Absolute(1e-3);
    let t0 = Instant::now();
    let serial = zfp.compress(&velocity.data, &dims, bound).expect("compress");
    let t_serial = t0.elapsed();
    let t0 = Instant::now();
    let chunked = zfp.compress_chunked(&velocity.data, &dims, bound, 0).expect("compress");
    let t_par = t0.elapsed();
    let (rec, _) = registry().decompress_auto(&chunked.bytes, 0).expect("decompress");
    assert_eq!(rec.len(), velocity.data.len());
    println!(
        "ZFP parallel: 96^3 field  serial {:.0} ms → chunked {:.0} ms ({:.1}x), size {:+.2}%",
        t_serial.as_secs_f64() * 1e3,
        t_par.as_secs_f64() * 1e3,
        t_serial.as_secs_f64() / t_par.as_secs_f64().max(1e-9),
        (chunked.bytes.len() as f64 / serial.bytes.len() as f64 - 1.0) * 100.0
    );
}
