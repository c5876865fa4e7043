//! Extension: the multi-threaded chunked container of every registered
//! codec — wall-clock scaling and the (tiny) size overhead of the chunk
//! table.
//!
//! Chunked ZFP reconstructs the serial codec's values (its coding blocks
//! are independent); chunked SZ is a *different*, still bound-respecting
//! approximation, because the Lorenzo predictor resets at every chunk
//! boundary. SZ's container bytes are nevertheless identical at every
//! thread count, so its speedup comes with full reproducibility.

use lcpio_bench::banner;
use lcpio_codec::{registry, BoundSpec};
use lcpio_datagen::nyx;
use std::time::Instant;

fn main() {
    banner(
        "EXTENSION — parallel (chunked) compression",
        "reference codecs' OpenMP mode; one container and worker loop, near-linear speedup",
    );
    let bound = BoundSpec::Absolute(1e-3);
    for name in registry().names() {
        let codec = registry().by_name(name).expect("listed codecs resolve");
        // 256^3 = 16.8 M elements for SZ; ZFP's per-element cost is higher.
        let field = nyx::velocity_x(if name == "sz" { 256 } else { 96 }, 3);
        let dims: Vec<usize> = field.dims().extents().to_vec();

        let t0 = Instant::now();
        let serial = codec.compress(&field.data, &dims, bound).expect("compress");
        let serial_time = t0.elapsed();
        println!(
            "{name} serial:          {:>8.1} ms   {:>9} bytes",
            serial_time.as_secs_f64() * 1e3,
            serial.bytes.len()
        );

        for threads in [1usize, 2, 4, 8] {
            let t0 = Instant::now();
            let out = codec.compress_chunked(&field.data, &dims, bound, threads).expect("compress");
            let dt = t0.elapsed();
            let t1 = Instant::now();
            let (rec, _) = registry().decompress_auto(&out.bytes, threads).expect("decompress");
            let ddt = t1.elapsed();
            let overhead = out.bytes.len() as f64 / serial.bytes.len() as f64 - 1.0;
            assert_eq!(rec.len(), field.data.len());
            println!(
                "{name} chunked x{threads}:      {:>8.1} ms   {:>9} bytes ({:+.2}% container overhead), decode {:>7.1} ms, speedup {:.2}x",
                dt.as_secs_f64() * 1e3,
                out.bytes.len(),
                overhead * 100.0,
                ddt.as_secs_f64() * 1e3,
                serial_time.as_secs_f64() / dt.as_secs_f64()
            );
        }
    }
}
